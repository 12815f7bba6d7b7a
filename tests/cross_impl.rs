//! Cross-implementation agreement at the workspace level: the paper's
//! kernel, every baseline, and the batch path must produce identical
//! scores for identical inputs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use swsimd::baselines::{sw_diag_classic_i16, sw_scan_i16, sw_striped_i16, sw_striped_i32};
use swsimd::core::batch::lanes_for;
use swsimd::core::{diag_score, sw_scalar, KernelStats};
use swsimd::matrices::{blosum45, blosum62, pam250, Alphabet};
use swsimd::seq::{generate_database, BatchedDatabase, Database, SeqRecord, SynthConfig};
use swsimd::{Aligner, EngineKind, GapModel, GapPenalties, Precision, Scoring};

fn rand_seq(rng: &mut StdRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.gen_range(0..20u8)).collect()
}

/// `SWSIMD_FUZZ_CASES`, or `default` when unset.
fn fuzz_cases(default: usize) -> usize {
    std::env::var("SWSIMD_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// A homolog of `q`: about `rate` of its residues substituted, deleted
/// or followed by an insertion.
fn plant_homolog(rng: &mut StdRng, q: &[u8], rate: f64) -> Vec<u8> {
    let mut out = Vec::with_capacity(q.len() + 4);
    for &r in q {
        match rng.gen_range(0.0..1.0) / rate {
            x if x < 0.6 => out.push(rng.gen_range(0..20u8)),
            x if x < 0.8 => {}
            x if x < 1.0 => out.extend([r, rng.gen_range(0..20u8)]),
            _ => out.push(r),
        }
    }
    if out.is_empty() {
        out.push(q[0]);
    }
    out
}

#[test]
fn every_implementation_agrees() {
    let mut rng = StdRng::seed_from_u64(0xD00D);
    let engine = EngineKind::best();
    for (mi, matrix) in [blosum62(), blosum45(), pam250()].into_iter().enumerate() {
        let scoring = Scoring::matrix(matrix);
        let gaps = GapModel::Affine(GapPenalties::new(11, 1));
        for round in 0..8 {
            let (lm, ln) = (rng.gen_range(2..150), rng.gen_range(2..150));
            let q = rand_seq(&mut rng, lm);
            let t = rand_seq(&mut rng, ln);
            let want = sw_scalar(&q, &t, &scoring, gaps).score;
            let mut st = KernelStats::default();

            let ours = diag_score(engine, Precision::I16, &q, &t, &scoring, gaps, 8, &mut st);
            assert_eq!(ours.score, want, "ours m{mi} r{round}");

            let striped = sw_striped_i16(engine, &q, &t, &scoring, gaps, &mut st);
            assert_eq!(striped.score, want, "striped m{mi} r{round}");

            let scan = sw_scan_i16(engine, &q, &t, &scoring, gaps, &mut st);
            assert_eq!(scan.score, want, "scan m{mi} r{round}");

            let classic = sw_diag_classic_i16(engine, &q, &t, &scoring, gaps, &mut st);
            assert_eq!(classic.score, want, "classic diag m{mi} r{round}");
        }
    }
}

/// Regression: the striped lazy-F loop used to break as soon as a
/// correction pass improved no H cell. That is not a fixpoint — a
/// vertical gap chain can pass *under* higher H values and only
/// surface an improvement several lanes later — and the loop dropped
/// the chain's tail, under-scoring the scalar reference by 1 (the
/// ROADMAP open item: 31 vs 32, BLOSUM62 affine 11/1). These inputs
/// were found by brute-force search against `sw_scalar` and failed on
/// wide-lane engines (AVX2/AVX-512) before the fixpoint test was
/// extended to cover F as well as H.
#[test]
fn striped_lazy_f_carries_chains_under_higher_cells() {
    let cases: [(&[u8], &[u8], i32, i32); 3] = [
        // Failed on AVX-512 i16 (32 lanes, one segment), affine 11/1.
        (
            &[
                2, 0, 15, 13, 8, 18, 7, 1, 0, 14, 18, 15, 2, 16, 8, 2, 19, 8, 12, 8, 14, 11, 1, 13,
                17, 5, 2, 18, 10, 19, 8, 11,
            ],
            &[
                4, 15, 3, 5, 18, 16, 14, 5, 3, 5, 14, 7, 19, 9, 11, 4, 18, 17, 8, 18, 14, 13, 12,
                14, 8, 8, 2, 17, 11, 16, 13, 17, 16, 9, 13,
            ],
            11,
            1,
        ),
        // Failed on AVX2 i16 and AVX-512 i16/i32, affine 2/1.
        (
            &[
                18, 5, 1, 1, 4, 18, 12, 15, 11, 12, 10, 0, 19, 2, 3, 1, 6, 1, 16, 14, 7, 0, 8, 4,
                8, 2, 19,
            ],
            &[
                16, 12, 18, 2, 12, 19, 17, 9, 13, 2, 13, 0, 15, 18, 0, 18, 3, 16, 16, 14, 9, 14,
                10, 4, 4, 3, 11, 2, 15, 11, 9, 14, 10, 16, 2, 18, 12, 16, 16, 2, 6, 5, 5, 19, 18,
                4, 3, 18, 2, 0, 15, 9, 2, 19, 16, 3, 2, 7, 6, 8, 9, 2, 12, 3, 14, 10, 17, 8, 16, 5,
                9, 1, 15,
            ],
            2,
            1,
        ),
        // Failed on AVX-512 i16, affine 11/1.
        (
            &[
                18, 8, 0, 4, 6, 8, 11, 9, 10, 12, 0, 10, 5, 3, 19, 1, 18, 18, 8, 13, 14, 3, 8, 16,
                17, 0, 17, 15, 15, 15,
            ],
            &[
                10, 6, 11, 5, 4, 11, 7, 13, 3, 5, 8, 17, 12, 16, 4, 16, 0, 7, 16, 13, 13, 7, 12, 3,
                9, 11, 1, 5, 12, 16, 10, 8, 16, 1, 15, 19, 11, 16, 5, 6, 8, 14, 9, 3, 12, 1, 5, 10,
                2, 1, 10, 11, 18, 18, 14, 3,
            ],
            11,
            1,
        ),
    ];
    let scoring = Scoring::matrix(blosum62());
    for (ci, (q, t, open, extend)) in cases.into_iter().enumerate() {
        let gaps = GapModel::Affine(GapPenalties::new(open, extend));
        let want = sw_scalar(q, t, &scoring, gaps).score;
        // Every available engine, both widths: the bug was lane-count
        // dependent (it needed chains crossing many lane boundaries).
        for engine in [
            EngineKind::Scalar,
            EngineKind::Sse41,
            EngineKind::Avx2,
            EngineKind::Avx512,
        ] {
            if !engine.is_available() {
                continue;
            }
            let mut st = KernelStats::default();
            let got16 = sw_striped_i16(engine, q, t, &scoring, gaps, &mut st).score;
            assert_eq!(got16, want, "case {ci} i16 {}", engine.name());
            let got32 = sw_striped_i32(engine, q, t, &scoring, gaps, &mut st).score;
            assert_eq!(got32, want, "case {ci} i32 {}", engine.name());
        }
    }
}

/// Nightly-scale differential fuzz: every available backend against
/// the scalar reference over seeded random pairs (mixed matrices and
/// gap penalties, adaptive precision, periodic CIGAR rescoring).
///
/// `SWSIMD_FUZZ_CASES` scales the per-backend case count — 500 by
/// default so local `cargo test` stays fast; the CI nightly job sets
/// 20000. Seeds are fixed per backend, so any failure message
/// identifies a reproducible case.
#[test]
fn differential_fuzz_all_backends_vs_scalar() {
    let cases = fuzz_cases(500);
    let matrices = [blosum62(), blosum45(), pam250()];
    let penalties = [(11, 1), (2, 1), (5, 2)];
    for (ei, engine) in EngineKind::available().into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(0xFA22_0000 + ei as u64);
        for case in 0..cases {
            let matrix = matrices[case % matrices.len()];
            let (open, extend) = penalties[case % penalties.len()];
            let scoring = Scoring::matrix(matrix);
            let gaps = GapModel::Affine(GapPenalties::new(open, extend));
            let (lq, lt) = (rng.gen_range(1..120), rng.gen_range(1..120));
            let q = rand_seq(&mut rng, lq);
            let t = rand_seq(&mut rng, lt);
            let want = sw_scalar(&q, &t, &scoring, gaps).score;
            let mut aligner = Aligner::builder()
                .matrix(matrix)
                .gaps(GapPenalties::new(open, extend))
                .engine(engine)
                .traceback(case % 16 == 0)
                .build();
            let r = aligner.align(&q, &t);
            assert_eq!(
                r.score,
                want,
                "{} case {case} (qlen {lq} tlen {lt}, seed 0x{:x})",
                engine.name(),
                0xFA22_0000u64 + ei as u64
            );
            if let Some(aln) = &r.alignment {
                assert_eq!(
                    aln.rescore(&q, &t, &scoring, gaps),
                    want,
                    "{} case {case}: CIGAR disagrees with its own score",
                    engine.name()
                );
            }
        }
    }
}

/// The batch path under the same fuzz: per case a small random database
/// (mixed lengths, a planted homolog that often saturates 8-bit lanes,
/// enough sequences for full and ragged batches on every lane count)
/// searched with `search_batched` on every available backend, every hit
/// checked against the scalar reference. Scoring cycles through three
/// matrices and fixed scores, gaps through two affine and one linear
/// model. Scaled by `SWSIMD_FUZZ_CASES` like the pairwise fuzz.
#[test]
fn differential_fuzz_search_batched_vs_scalar() {
    let cases = fuzz_cases(500);
    let scorings = [
        Scoring::matrix(blosum62()),
        Scoring::matrix(blosum45()),
        Scoring::matrix(pam250()),
        Scoring::Fixed {
            r#match: 2,
            mismatch: -3,
        },
    ];
    let gap_models = [
        GapModel::Affine(GapPenalties::new(11, 1)),
        GapModel::Affine(GapPenalties::new(5, 2)),
        GapModel::Linear { gap: 4 },
    ];
    let alphabet = Alphabet::protein();
    let seed = 0xFA22_BA7C_u64;
    let mut rng = StdRng::seed_from_u64(seed);
    for case in 0..cases {
        let scoring = &scorings[case % scorings.len()];
        let gaps = gap_models[case % gap_models.len()];
        let lq = rng.gen_range(1..=48);
        let q = rand_seq(&mut rng, lq);
        // Every fourth database is big enough for a full 64-lane batch.
        let n = rng.gen_range(1..=if case % 4 == 0 { 80 } else { 40 });
        let homolog = rng.gen_range(0..n);
        let seqs: Vec<Vec<u8>> = (0..n)
            .map(|i| {
                if i == homolog {
                    let rate = rng.gen_range(0.0..0.4);
                    plant_homolog(&mut rng, &q, rate)
                } else {
                    let len = rng.gen_range(1..=40);
                    rand_seq(&mut rng, len)
                }
            })
            .collect();
        let want: Vec<i32> = seqs
            .iter()
            .map(|t| sw_scalar(&q, t, scoring, gaps).score)
            .collect();
        let records = seqs
            .iter()
            .map(|s| SeqRecord::new("t", alphabet.decode(s)))
            .collect();
        let db = Database::from_records(records, &alphabet);
        for engine in EngineKind::available() {
            let batched = BatchedDatabase::build(&db, lanes_for(engine), case % 2 == 0);
            let mut aligner = Aligner::builder()
                .scoring(scoring.clone())
                .gap_model(gaps)
                .engine(engine)
                .build();
            let mut seen = vec![false; n];
            for hit in aligner.search_batched(&q, &db, &batched) {
                assert!(!seen[hit.db_index], "duplicate hit {}", hit.db_index);
                seen[hit.db_index] = true;
                assert_eq!(
                    hit.score,
                    want[hit.db_index],
                    "{} case {case} seq {} (qlen {lq}, db {n}, {gaps:?}, seed 0x{seed:x})",
                    engine.name(),
                    hit.db_index,
                );
            }
            assert!(
                seen.iter().all(|&s| s),
                "{} case {case}: missing hits",
                engine.name()
            );
        }
    }
}

#[test]
fn database_search_agrees_with_pairwise() {
    let db = generate_database(&SynthConfig {
        n_seqs: 64,
        max_len: 200,
        median_len: 80.0,
        ..Default::default()
    });
    let alphabet = Alphabet::protein();
    let q = alphabet.encode(&swsimd::seq::generate_exact(60, 1).seq);
    let mut aligner = Aligner::builder().matrix(blosum62()).build();
    let hits = aligner.search(&q, &db, 0);
    for h in hits.iter().step_by(7) {
        let want = sw_scalar(
            &q,
            &db.encoded(h.db_index).idx,
            aligner.scoring(),
            aligner.gap_model(),
        )
        .score;
        assert_eq!(h.score, want, "hit {}", h.db_index);
    }
}

#[test]
fn baseline_32bit_handles_huge_scores() {
    // Long identical homopolymers exceed i16 range.
    let q = vec![17u8; 4_000]; // W, 11 each → 44k > 32767
    let scoring = Scoring::matrix(blosum62());
    let gaps = GapModel::default_affine();
    let mut st = KernelStats::default();
    let r = sw_striped_i32(EngineKind::best(), &q, &q, &scoring, gaps, &mut st);
    assert_eq!(r.score, 44_000);
    let mut a = Aligner::builder()
        .matrix(blosum62())
        .precision(Precision::I32)
        .build();
    assert_eq!(a.align(&q, &q).score, 44_000);
}

#[test]
fn adaptive_equals_i32_on_mixed_magnitudes() {
    let mut rng = StdRng::seed_from_u64(5);
    let alphabet = Alphabet::protein();
    let _ = alphabet;
    for len in [10usize, 60, 300, 1200] {
        let q = rand_seq(&mut rng, len);
        let t = {
            // Related target: keeps scores growing with length.
            let mut t = q.clone();
            for k in (0..t.len()).step_by(7) {
                t[k] = (t[k] + 1) % 20;
            }
            t
        };
        let mut adaptive = Aligner::builder().matrix(blosum62()).build();
        let mut wide = Aligner::builder()
            .matrix(blosum62())
            .precision(Precision::I32)
            .build();
        assert_eq!(
            adaptive.align(&q, &t).score,
            wide.align(&q, &t).score,
            "len {len}"
        );
    }
}
