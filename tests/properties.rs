//! Property-based tests (proptest) on core invariants.

use proptest::prelude::*;
use swsimd::core::modes::sw_scalar_mode;
use swsimd::core::{
    banded_score, diag_score, sw_scalar, sw_scalar_traceback, AlignMode, KernelStats,
};
use swsimd::matrices::blosum62;
use swsimd::{EngineKind, GapModel, GapPenalties, Precision, Scoring};

fn seq_strategy(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..20, 1..max_len)
}

fn gap_strategy() -> impl Strategy<Value = GapModel> {
    prop_oneof![
        (1i32..12, 1i32..4).prop_map(|(o, e)| {
            let e = e.min(o);
            GapModel::Affine(GapPenalties::new(o, e))
        }),
        (1i32..8).prop_map(|g| GapModel::Linear { gap: g }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The vector kernel equals the scalar reference on arbitrary
    /// inputs, gap models and thresholds.
    #[test]
    fn kernel_matches_reference(
        q in seq_strategy(100),
        t in seq_strategy(100),
        gaps in gap_strategy(),
        threshold in 1usize..64,
    ) {
        let scoring = Scoring::matrix(blosum62());
        let want = sw_scalar(&q, &t, &scoring, gaps).score;
        let mut st = KernelStats::default();
        let got = diag_score(
            EngineKind::best(), Precision::I32, &q, &t, &scoring, gaps, threshold, &mut st,
        );
        prop_assert_eq!(got.score, want);
    }

    /// Local alignment scores are never negative and never exceed the
    /// perfect self-alignment of the shorter sequence.
    #[test]
    fn score_bounds(q in seq_strategy(80), t in seq_strategy(80)) {
        let scoring = Scoring::matrix(blosum62());
        let gaps = GapModel::default_affine();
        let s = sw_scalar(&q, &t, &scoring, gaps).score;
        prop_assert!(s >= 0);
        let bound: i32 = if q.len() <= t.len() {
            q.iter().map(|&a| blosum62().score_by_index(a, a) as i32).sum()
        } else {
            t.iter().map(|&a| blosum62().score_by_index(a, a) as i32).sum()
        };
        prop_assert!(s <= bound, "score {} exceeds bound {}", s, bound);
    }

    /// Symmetry: BLOSUM matrices are symmetric, so score(q,t) == score(t,q).
    #[test]
    fn alignment_is_symmetric(q in seq_strategy(60), t in seq_strategy(60)) {
        let scoring = Scoring::matrix(blosum62());
        let gaps = GapModel::default_affine();
        let a = sw_scalar(&q, &t, &scoring, gaps).score;
        let b = sw_scalar(&t, &q, &scoring, gaps).score;
        prop_assert_eq!(a, b);
    }

    /// Monotonicity: appending residues can never lower the optimal
    /// local score (the old alignment is still available).
    #[test]
    fn extension_monotone(q in seq_strategy(50), t in seq_strategy(50), extra in seq_strategy(10)) {
        let scoring = Scoring::matrix(blosum62());
        let gaps = GapModel::default_affine();
        let base = sw_scalar(&q, &t, &scoring, gaps).score;
        let mut t2 = t.clone();
        t2.extend_from_slice(&extra);
        let ext = sw_scalar(&q, &t2, &scoring, gaps).score;
        prop_assert!(ext >= base);
    }

    /// Traceback paths rescore exactly to the reported score and have
    /// consistent spans.
    #[test]
    fn traceback_is_valid(q in seq_strategy(60), t in seq_strategy(60), gaps in gap_strategy()) {
        let scoring = Scoring::matrix(blosum62());
        let r = sw_scalar_traceback(&q, &t, &scoring, gaps);
        if let Some(aln) = &r.alignment {
            prop_assert_eq!(aln.rescore(&q, &t, &scoring, gaps), r.score);
            let m: usize = aln.ops.iter().filter(|&&o| o != swsimd::Op::Delete).count();
            let d: usize = aln.ops.iter().filter(|&&o| o != swsimd::Op::Insert).count();
            prop_assert_eq!(aln.query_end - aln.query_start, m);
            prop_assert_eq!(aln.target_end - aln.target_start, d);
            // Local alignments must start and end on a match.
            if !aln.ops.is_empty() {
                prop_assert_eq!(aln.ops[0], swsimd::Op::Match);
                prop_assert_eq!(*aln.ops.last().unwrap(), swsimd::Op::Match);
            }
        } else {
            prop_assert_eq!(r.score, 0);
        }
    }

    /// Concatenation superadditivity: aligning q against t1++t2 is at
    /// least as good as the best of the parts.
    #[test]
    fn concat_superadditive(q in seq_strategy(40), t1 in seq_strategy(40), t2 in seq_strategy(40)) {
        let scoring = Scoring::matrix(blosum62());
        let gaps = GapModel::default_affine();
        let s1 = sw_scalar(&q, &t1, &scoring, gaps).score;
        let s2 = sw_scalar(&q, &t2, &scoring, gaps).score;
        let mut cat = t1.clone();
        cat.extend_from_slice(&t2);
        let sc = sw_scalar(&q, &cat, &scoring, gaps).score;
        prop_assert!(sc >= s1.max(s2));
    }

    /// The 8-bit kernel either reports the exact score or flags
    /// saturation — never a silently wrong value.
    #[test]
    fn i8_exact_or_saturated(q in seq_strategy(90), t in seq_strategy(90)) {
        let scoring = Scoring::matrix(blosum62());
        let gaps = GapModel::default_affine();
        let want = sw_scalar(&q, &t, &scoring, gaps).score;
        let mut st = KernelStats::default();
        let got = diag_score(
            EngineKind::best(), Precision::I8, &q, &t, &scoring, gaps, 8, &mut st,
        );
        if got.saturated {
            prop_assert!(want >= i8::MAX as i32);
        } else {
            prop_assert_eq!(got.score, want);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Mode ordering: local >= semi-global >= global, always.
    #[test]
    fn mode_ordering(q in seq_strategy(70), t in seq_strategy(70), gaps in gap_strategy()) {
        let scoring = Scoring::matrix(blosum62());
        let local = sw_scalar(&q, &t, &scoring, gaps).score;
        let sg = sw_scalar_mode(&q, &t, &scoring, gaps, AlignMode::SemiGlobal).score;
        let global = sw_scalar_mode(&q, &t, &scoring, gaps, AlignMode::Global).score;
        prop_assert!(local >= sg);
        prop_assert!(sg >= global);
    }

    /// Global alignment is symmetric under argument swap for symmetric
    /// matrices.
    #[test]
    fn global_symmetric(q in seq_strategy(60), t in seq_strategy(60), gaps in gap_strategy()) {
        let scoring = Scoring::matrix(blosum62());
        let a = sw_scalar_mode(&q, &t, &scoring, gaps, AlignMode::Global).score;
        let b = sw_scalar_mode(&t, &q, &scoring, gaps, AlignMode::Global).score;
        prop_assert_eq!(a, b);
    }

    /// Banded scores are monotone in the width and reach the unbanded
    /// score once the band covers the matrix.
    #[test]
    fn banded_monotone(q in seq_strategy(60), t in seq_strategy(60), gaps in gap_strategy()) {
        let scoring = Scoring::matrix(blosum62());
        let full = sw_scalar(&q, &t, &scoring, gaps).score;
        let mut prev = 0i32;
        for width in [0usize, 3, 9, 27, 200] {
            let mut st = KernelStats::default();
            let got = banded_score(
                EngineKind::best(), Precision::I32, &q, &t, &scoring, gaps, width, 8, &mut st,
            ).score;
            prop_assert!(got >= prev, "width {} lowered score {} -> {}", width, prev, got);
            prop_assert!(got <= full);
            prev = got;
        }
        prop_assert_eq!(prev, full);
    }

    /// The batch kernel agrees with the scalar reference on whole
    /// mini-databases.
    #[test]
    fn batch_search_matches_reference(
        q in seq_strategy(40),
        targets in prop::collection::vec(seq_strategy(40), 1..12),
    ) {
        let alphabet = swsimd::matrices::Alphabet::protein();
        let records: Vec<swsimd::SeqRecord> = targets
            .iter()
            .enumerate()
            .map(|(i, t)| swsimd::SeqRecord::new(format!("s{i}"), alphabet.decode(t)))
            .collect();
        let db = swsimd::Database::from_records(records, &alphabet);
        let scoring = Scoring::matrix(blosum62());
        let gaps = GapModel::default_affine();
        let mut aligner = swsimd::Aligner::new();
        for hit in aligner.search(&q, &db, 0) {
            let want = sw_scalar(&q, &db.encoded(hit.db_index).idx, &scoring, gaps).score;
            prop_assert_eq!(hit.score, want);
        }
    }
}

// ---------------------------------------------------------------------
// Durability properties (DESIGN.md §10): random corruption of persisted
// artifacts — database images and search journals — is always detected.
// ---------------------------------------------------------------------

use std::sync::OnceLock;

fn synth_db(n_seqs: usize, seed: u64) -> swsimd::Database {
    swsimd::seq::generate_database(&swsimd::seq::SynthConfig {
        n_seqs,
        seed,
        median_len: 40.0,
        max_len: 90,
        ..Default::default()
    })
}

/// A valid v2 database image, built once.
fn image_fixture() -> &'static Vec<u8> {
    static IMAGE: OnceLock<Vec<u8>> = OnceLock::new();
    IMAGE.get_or_init(|| {
        let alphabet = swsimd::matrices::Alphabet::protein();
        let db = synth_db(10, 71);
        let batched = swsimd::seq::BatchedDatabase::build(&db, 16, true);
        swsimd::seq::save_database_image(&db, &batched, &alphabet).to_vec()
    })
}

/// A complete search journal plus its parsed clean form, built once.
fn journal_fixture() -> &'static (Vec<u8>, swsimd::Journal) {
    static JOURNAL: OnceLock<(Vec<u8>, swsimd::Journal)> = OnceLock::new();
    JOURNAL.get_or_init(|| {
        let db = synth_db(18, 72);
        let q: Vec<u8> = (0..36u8).map(|i| i % 20).collect();
        let cfg = swsimd::runner::PoolConfig {
            threads: 3,
            ..Default::default()
        };
        let mut jw = swsimd::JournalWriter::new(Vec::new()).expect("journal header");
        swsimd::checkpointed_search(
            &q,
            &db,
            &cfg,
            || swsimd::Aligner::builder().matrix(blosum62()),
            &mut jw,
        )
        .expect("clean checkpointed search");
        let bytes = jw.into_inner();
        let clean = swsimd::read_journal(&bytes).expect("clean journal parses");
        (bytes, clean)
    })
}

/// Apply an arbitrary truncation and/or bit flip. Returns `None` when
/// the mutation leaves the bytes unchanged.
fn corrupt(clean: &[u8], cut: Option<usize>, flip: Option<(usize, u8)>) -> Option<Vec<u8>> {
    let mut data = clean.to_vec();
    let mut changed = false;
    if let Some(cut) = cut {
        let cut = cut % (data.len() + 1);
        if cut < data.len() {
            data.truncate(cut);
            changed = true;
        }
    }
    if let Some((pos, mask)) = flip {
        if !data.is_empty() {
            let pos = pos % data.len();
            data[pos] ^= mask;
            changed = true;
        }
    }
    changed.then_some(data)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

    /// Any truncation and/or bit flip of a v2 database image yields a
    /// typed error — never a panic, never a silently wrong database
    /// (every byte of the image is covered by a CRC32).
    #[test]
    fn corrupted_image_never_loads(
        cut in proptest::option::of(0usize..1 << 16),
        flip in proptest::option::of((0usize..1 << 16, 1u8..=255u8)),
    ) {
        let image = image_fixture();
        let bad = corrupt(image, cut, flip);
        prop_assume!(bad.is_some()); // skip no-op mutations
        let bad = bad.unwrap();
        let alphabet = swsimd::matrices::Alphabet::protein();
        prop_assert!(
            swsimd::seq::load_database_image(&bad, &alphabet).is_err(),
            "corrupted image of {} bytes (clean {}) loaded silently",
            bad.len(),
            image.len()
        );
    }

    /// Any truncation and/or bit flip of a search journal either fails
    /// to read, or replays a verified prefix of the clean journal —
    /// damage costs recomputed work, never wrong hits.
    #[test]
    fn corrupted_journal_never_replays_wrong(
        cut in proptest::option::of(0usize..1 << 16),
        flip in proptest::option::of((0usize..1 << 16, 1u8..=255u8)),
    ) {
        let (bytes, clean) = journal_fixture();
        let bad = corrupt(bytes, cut, flip);
        prop_assume!(bad.is_some()); // skip no-op mutations
        let bad = bad.unwrap();
        match swsimd::read_journal(&bad) {
            Err(_) => {} // CRC framing rejected the damage: fine
            Ok(journal) => {
                prop_assert_eq!(journal.meta, clean.meta);
                for entry in &journal.entries {
                    let reference = clean.entries.iter().find(|e| e.chunk == entry.chunk);
                    prop_assert_eq!(Some(entry), reference, "replayed frame drifted");
                }
            }
        }
    }
}
