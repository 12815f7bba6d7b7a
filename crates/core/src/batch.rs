//! Inter-sequence batch kernel — the paper's 8-bit database-search path
//! (§III-C, Fig 5).
//!
//! A batch holds `LANES` database sequences in transposed layout
//! (`swsimd-seq::DbBatch`): one contiguous load yields the next residue
//! of every sequence. Each vector lane then runs an independent DP
//! matrix in lockstep, and the per-cell substitution scores for all
//! lanes come from a **single 32-byte matrix row** (the reorganized
//! layout) looked up with a shuffle (`vpshufb`/`vpermb`) — no gather,
//! which is exactly how the paper repairs the missing 8-bit gather
//! ("the performance is now comparable", §IV-C).
//!
//! **Column blocking.** One pass over the query scores a block of
//! [`BLOCK`] consecutive database columns. Per query position the
//! block's score vectors come from one matrix row, H and F of every
//! column and the E running left to right across the block stay in
//! registers, and the H/E state of the query column is read and written
//! once per block instead of once per column. A column-at-a-time pass
//! is one serial chain (F(i) → H(i) → F(i+1)) with two loads and two
//! stores per cell; a block gives the core [`BLOCK`] independent chains
//! to overlap and divides that memory traffic by [`BLOCK`] — the
//! register-resident DP state SWAPHI and the KNL study use for their
//! inter-sequence throughput. The `max_len % BLOCK` tail columns run
//! through the same body at width 1.
//!
//! Lanes whose sequence has ended read the poisoned padding residue, so
//! their H stays clamped at 0 and their recorded maximum is unaffected.
//! Saturated lanes (score = 127) are reported so the caller can rerun
//! just those sequences through the 16/32-bit diagonal kernel — the
//! "variable (8/16) bit width implementation" (contribution iii).

use swsimd_seq::DbBatch;
use swsimd_simd::{EngineKind, ScoreElem, SimdEngine, SimdVec};

use crate::diag::gap_elems;
use crate::govern::{cancel_poll, CANCEL_CHECK_PERIOD};
use crate::params::{GapModel, Scoring};
use crate::stats::KernelStats;

/// Database columns scored per pass over the query.
pub(crate) const BLOCK: usize = 4;

// Blocks never straddle a cancel-poll boundary, so polling when a block
// crosses a multiple of the period polls after the same columns as a
// column-at-a-time loop would.
const _: () = assert!(CANCEL_CHECK_PERIOD.is_multiple_of(BLOCK));

/// Per-sequence outcome of one batch run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaneScore {
    /// Index of the sequence in the source database.
    pub db_index: u32,
    /// Best local score for this lane (clamped at `i8::MAX`).
    pub score: i32,
    /// True if this lane saturated and needs a wider rerun.
    pub saturated: bool,
}

/// The inter-sequence kernel, generic over engine (8-bit lanes).
///
/// `#[inline(always)]` so the dispatch wrappers compile it per-ISA. The
/// scoring and gap-model matches happen here, once per batch; each arm
/// instantiates [`sweep`] with its own scorer and gap model.
#[inline(always)]
fn batch_kernel<En: SimdEngine>(
    query: &[u8],
    batch: &DbBatch,
    scoring: &Scoring,
    gaps: GapModel,
    stats: &mut KernelStats,
    out: &mut Vec<LaneScore>,
) {
    let lanes = <En::V8 as SimdVec>::LANES;
    assert_eq!(
        batch.lanes(),
        lanes,
        "batch built for {} lanes, engine {} has {}",
        batch.lanes(),
        En::NAME,
        lanes
    );
    let m = query.len();
    let cols = batch.max_len();
    let (go, ge, affine) = gap_elems::<i8>(gaps);

    let vmax = match (scoring, affine) {
        (Scoring::Matrix(mat), true) => {
            sweep::<En, true>(query, batch, (go, ge), true, stats, |q, d| {
                En::lut32(mat.row8(q), d)
            })
        }
        (Scoring::Matrix(mat), false) => {
            sweep::<En, false>(query, batch, (go, ge), true, stats, |q, d| {
                En::lut32(mat.row8(q), d)
            })
        }
        (Scoring::Fixed { r#match, mismatch }, affine) => {
            let vmatch = En::V8::splat(i8::from_i32(*r#match));
            let vmismatch = En::V8::splat(i8::from_i32(*mismatch));
            let fixed = |q: u8, d: En::V8| {
                En::V8::blend(En::V8::splat(q as i8).cmpeq(d), vmatch, vmismatch)
            };
            if affine {
                sweep::<En, true>(query, batch, (go, ge), false, stats, fixed)
            } else {
                sweep::<En, false>(query, batch, (go, ge), false, stats, fixed)
            }
        }
    };

    // Deferred per-lane maxima → one store + scatter at the end (§III-D).
    let mut lane_max = vec![0i8; lanes];
    vmax.store_slice(&mut lane_max);
    for (k, &db_index) in batch.members().iter().enumerate() {
        let score = lane_max[k] as i32;
        let real_cells = batch.lens()[k] as u64 * m as u64;
        stats.cells += real_cells;
        out.push(LaneScore {
            db_index,
            score,
            saturated: score >= i8::MAX as i32,
        });
    }
    // Lane slots burned on padding (ragged tails and short batches).
    let real: u64 = batch.lens().iter().map(|&l| l as u64 * m as u64).sum();
    stats.padded_lanes += (cols * lanes * m) as u64 - real;
}

/// Walk the batch's columns in blocks of [`BLOCK`] (the tail at width
/// 1) and return the running per-lane maximum of H.
///
/// `score(q, d)` is the substitution-score vector of query residue `q`
/// against the database residues `d`; `lut` says whether it is a table
/// lookup (counted in [`KernelStats::lut_ops`]).
#[inline(always)]
fn sweep<En: SimdEngine, const AFFINE: bool>(
    query: &[u8],
    batch: &DbBatch,
    gap: (i8, i8),
    lut: bool,
    stats: &mut KernelStats,
    score: impl Fn(u8, En::V8) -> En::V8 + Copy,
) -> En::V8 {
    let lanes = <En::V8 as SimdVec>::LANES;
    let m = query.len();
    let cols = batch.max_len();

    // Per-query-position state of the last column scored: H, and E of
    // the column after it.
    let mut h_arr = vec![En::V8::zero(); m];
    let mut e_arr = vec![gap_vectors::<En, AFFINE>(gap).2; m];
    let mut vmax = En::V8::zero();

    let mut j = 0;
    while j < cols {
        let width = if cols - j >= BLOCK { BLOCK } else { 1 };
        vmax = if width == BLOCK {
            block::<En, BLOCK, AFFINE>(query, batch, j, score, gap, &mut h_arr, &mut e_arr, vmax)
        } else {
            block::<En, 1, AFFINE>(query, batch, j, score, gap, &mut h_arr, &mut e_arr, vmax)
        };
        let steps = (width * m) as u64;
        stats.vector_steps += steps;
        stats.vector_lane_slots += steps * lanes as u64;
        stats.vector_loads += 2 * steps + width as u64;
        stats.vector_stores += 2 * steps;
        if lut {
            stats.lut_ops += steps;
        }

        // Amortized governor poll: lane maxima are garbage after a
        // cancel — governed callers re-check the token and discard them.
        let crossed = (j + width) / CANCEL_CHECK_PERIOD > j / CANCEL_CHECK_PERIOD;
        j += width;
        if crossed && cancel_poll() {
            break;
        }
    }
    vmax
}

/// One pass over the query scoring database columns `j0..j0 + B`;
/// returns `vmax` raised by every H of the block.
///
/// On entry `h_arr[i]`/`e_arr[i]` hold H of the column left of the
/// block and E of its first column at query position `i + 1`; on exit
/// they hold H of the block's last column and E of the next one. H and
/// F of each column, the E carried across the block and the running
/// maximum stay in registers for the whole pass.
#[inline(always)]
fn block<En: SimdEngine, const B: usize, const AFFINE: bool>(
    query: &[u8],
    batch: &DbBatch,
    j0: usize,
    score: impl Fn(u8, En::V8) -> En::V8,
    gap: (i8, i8),
    h_arr: &mut [En::V8],
    e_arr: &mut [En::V8],
    vmax: En::V8,
) -> En::V8 {
    // Splatted per block behind `black_box` so LLVM cannot hoist them
    // into the caller's column loop: there they would live across the
    // cancel-poll call and be reloaded from the stack on every row.
    let (vgo, vge, gap0) = gap_vectors::<En, AFFINE>(std::hint::black_box(gap));
    let vzero = En::V8::zero();
    // Plain loops rather than `std::array::from_fn`: the closures must
    // inline into this target-feature context, and `from_fn`'s
    // out-of-line body would call the ISA intrinsics as functions.
    let mut dbres = [vzero; B];
    for (b, d) in dbres.iter_mut().enumerate() {
        // Residue indices are < 32 and reinterpret cleanly as i8 lanes.
        *d = En::V8::load_slice(bytes_as_i8(batch.column(j0 + b)));
    }
    let mut best = vzero;
    // H(i-1, ·) and F(i, ·) of each block column; row 0 is the boundary.
    let mut h_up = [vzero; B];
    let mut f = [gap0; B];
    // H(i-1, j0-1), the diagonal of the block's first column.
    let mut h_diag = vzero;
    for ((&q, h_slot), e_slot) in query.iter().zip(h_arr.iter_mut()).zip(e_arr.iter_mut()) {
        let mut s = [vzero; B];
        for b in 0..B {
            s[b] = score(q, dbres[b]);
        }
        let h_left = *h_slot;
        let mut e = *e_slot;
        for b in 0..B {
            let h = h_diag.adds(s[b]).max(vzero).max(e).max(f[b]);
            h_diag = h_up[b];
            h_up[b] = h;
            best = best.max(h);
            // H − gap_open, shared by E of the next column and F of the
            // next row.
            let hgo = h.subs(vgo);
            e = next_gap::<En, AFFINE>(e, hgo, vge);
            f[b] = next_gap::<En, AFFINE>(f[b], hgo, vge);
        }
        h_diag = h_left;
        *h_slot = h_up[B - 1];
        *e_slot = e;
    }
    vmax.max(best)
}

/// The gap-open and gap-extend vectors, and the E/F entering row 1 and
/// column 0: one gap step from the NEG_INF/zero boundary, exactly as
/// inside the matrix.
#[inline(always)]
fn gap_vectors<En: SimdEngine, const AFFINE: bool>((go, ge): (i8, i8)) -> (En::V8, En::V8, En::V8) {
    let (vgo, vge) = (En::V8::splat(go), En::V8::splat(ge));
    let gap0 = next_gap::<En, AFFINE>(En::V8::splat(i8::NEG_INF), En::V8::zero().subs(vgo), vge);
    (vgo, vge, gap0)
}

/// One gap step: affine `max(prev − extend, H − open)`; linear gaps
/// collapse to `H − gap`.
#[inline(always)]
fn next_gap<En: SimdEngine, const AFFINE: bool>(prev: En::V8, hgo: En::V8, vge: En::V8) -> En::V8 {
    if AFFINE {
        prev.subs(vge).max(hgo)
    } else {
        hgo
    }
}

#[inline(always)]
fn bytes_as_i8(b: &[u8]) -> &[i8] {
    // SAFETY: u8 and i8 have identical layout.
    unsafe { std::slice::from_raw_parts(b.as_ptr() as *const i8, b.len()) }
}

macro_rules! batch_wrapper {
    ($name:ident, $en:ty, $($feat:literal)?) => {
        $(#[target_feature(enable = $feat)])?
        unsafe fn $name(
            query: &[u8],
            batch: &DbBatch,
            scoring: &Scoring,
            gaps: GapModel,
            stats: &mut KernelStats,
            out: &mut Vec<LaneScore>,
        ) {
            batch_kernel::<$en>(query, batch, scoring, gaps, stats, out)
        }
    };
}

batch_wrapper!(batch_scalar, swsimd_simd::Scalar,);
#[cfg(target_arch = "x86_64")]
batch_wrapper!(batch_sse41, swsimd_simd::Sse41, "sse4.1,ssse3");
#[cfg(target_arch = "x86_64")]
batch_wrapper!(batch_avx2, swsimd_simd::Avx2, "avx2");
#[cfg(target_arch = "x86_64")]
batch_wrapper!(
    batch_avx512,
    swsimd_simd::Avx512,
    "avx512f,avx512bw,avx512vl,avx512vbmi"
);

/// Number of 8-bit lanes (and therefore required batch width) for an
/// engine kind.
pub fn lanes_for(engine: EngineKind) -> usize {
    match engine {
        EngineKind::Scalar | EngineKind::Sse41 => 16,
        EngineKind::Avx2 => 32,
        EngineKind::Avx512 => 64,
    }
}

/// Score one query against one transposed batch with the 8-bit
/// inter-sequence kernel, appending per-sequence results to `out`.
///
/// The batch must have been built with [`lanes_for`]`(engine)` lanes.
/// Falls back to the scalar engine if `engine` is unavailable.
pub fn batch_score(
    engine: EngineKind,
    query: &[u8],
    batch: &DbBatch,
    scoring: &Scoring,
    gaps: GapModel,
    stats: &mut KernelStats,
    out: &mut Vec<LaneScore>,
) {
    let engine = if engine.is_available() {
        engine
    } else {
        EngineKind::Scalar
    };
    // SAFETY: availability checked above.
    unsafe {
        match engine {
            EngineKind::Scalar => batch_scalar(query, batch, scoring, gaps, stats, out),
            #[cfg(target_arch = "x86_64")]
            EngineKind::Sse41 => batch_sse41(query, batch, scoring, gaps, stats, out),
            #[cfg(target_arch = "x86_64")]
            EngineKind::Avx2 => batch_avx2(query, batch, scoring, gaps, stats, out),
            #[cfg(target_arch = "x86_64")]
            EngineKind::Avx512 => batch_avx512(query, batch, scoring, gaps, stats, out),
            #[cfg(not(target_arch = "x86_64"))]
            _ => batch_scalar(query, batch, scoring, gaps, stats, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::GapPenalties;
    use crate::scalar_ref::sw_scalar;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use swsimd_matrices::{blosum62, Alphabet};
    use swsimd_seq::{BatchedDatabase, Database, SeqRecord};

    fn mk_db(seqs: Vec<Vec<u8>>) -> Database {
        let records = seqs
            .into_iter()
            .enumerate()
            .map(|(i, s)| SeqRecord::new(format!("s{i}"), s))
            .collect();
        Database::from_records(records, &Alphabet::protein())
    }

    fn rand_ascii(rng: &mut StdRng, len: usize) -> Vec<u8> {
        (0..len)
            .map(|_| swsimd_matrices::PROTEIN_LETTERS[rng.gen_range(0..20)])
            .collect()
    }

    #[test]
    fn batch_matches_scalar_reference_all_engines() {
        let mut rng = StdRng::seed_from_u64(11);
        let scoring = Scoring::matrix(blosum62());
        let gaps = GapModel::Affine(GapPenalties::new(11, 1));
        let alphabet = Alphabet::protein();

        let seqs: Vec<Vec<u8>> = (0..70)
            .map(|_| {
                let l = rng.gen_range(1..40);
                rand_ascii(&mut rng, l)
            })
            .collect();
        let db = mk_db(seqs);
        let query = alphabet.encode(&rand_ascii(&mut rng, 25));

        for engine in EngineKind::available() {
            let batched = BatchedDatabase::build(&db, lanes_for(engine), true);
            let mut out = Vec::new();
            let mut stats = KernelStats::default();
            for b in batched.batches() {
                batch_score(engine, &query, b, &scoring, gaps, &mut stats, &mut out);
            }
            assert_eq!(out.len(), db.len());
            for ls in &out {
                assert!(!ls.saturated, "{engine:?}: unexpected saturation");
                let want = sw_scalar(
                    &query,
                    &db.encoded(ls.db_index as usize).idx,
                    &scoring,
                    gaps,
                )
                .score;
                assert_eq!(ls.score, want, "{engine:?} seq {}", ls.db_index);
            }
        }
    }

    #[test]
    fn fixed_scoring_batch() {
        let mut rng = StdRng::seed_from_u64(23);
        let scoring = Scoring::Fixed {
            r#match: 3,
            mismatch: -2,
        };
        let gaps = GapModel::Linear { gap: 2 };
        let alphabet = Alphabet::protein();
        let seqs: Vec<Vec<u8>> = (0..20)
            .map(|_| {
                let l = rng.gen_range(1..30);
                rand_ascii(&mut rng, l)
            })
            .collect();
        let db = mk_db(seqs);
        let query = alphabet.encode(&rand_ascii(&mut rng, 12));
        for engine in EngineKind::available() {
            let batched = BatchedDatabase::build(&db, lanes_for(engine), false);
            let mut out = Vec::new();
            let mut stats = KernelStats::default();
            for b in batched.batches() {
                batch_score(engine, &query, b, &scoring, gaps, &mut stats, &mut out);
            }
            for ls in &out {
                let want = sw_scalar(
                    &query,
                    &db.encoded(ls.db_index as usize).idx,
                    &scoring,
                    gaps,
                )
                .score;
                assert_eq!(ls.score, want, "{engine:?} seq {}", ls.db_index);
            }
        }
    }

    #[test]
    fn saturation_flagged_per_lane() {
        // One long identical sequence (saturates), many short ones (fine).
        let alphabet = Alphabet::protein();
        let hot = vec![b'W'; 300];
        let mut seqs = vec![hot.clone()];
        for _ in 0..10 {
            seqs.push(b"ARND".to_vec());
        }
        let db = mk_db(seqs);
        let query = alphabet.encode(&hot);
        let scoring = Scoring::matrix(blosum62());
        let gaps = GapModel::default_affine();
        let engine = EngineKind::best();
        let batched = BatchedDatabase::build(&db, lanes_for(engine), false);
        let mut out = Vec::new();
        let mut stats = KernelStats::default();
        for b in batched.batches() {
            batch_score(engine, &query, b, &scoring, gaps, &mut stats, &mut out);
        }
        let hot_lane = out.iter().find(|l| l.db_index == 0).unwrap();
        assert!(hot_lane.saturated);
        assert!(out.iter().filter(|l| l.db_index != 0).all(|l| !l.saturated));
    }

    #[test]
    fn empty_query_scores_zero() {
        let db = mk_db(vec![b"ARN".to_vec()]);
        let engine = EngineKind::best();
        let batched = BatchedDatabase::build(&db, lanes_for(engine), false);
        let mut out = Vec::new();
        let mut stats = KernelStats::default();
        for b in batched.batches() {
            batch_score(
                engine,
                &[],
                b,
                &Scoring::matrix(blosum62()),
                GapModel::default_affine(),
                &mut stats,
                &mut out,
            );
        }
        assert!(out.iter().all(|l| l.score == 0));
    }

    #[test]
    fn padding_lanes_never_score() {
        // A batch with a single short sequence: all other lanes padded.
        let db = mk_db(vec![b"WWWWW".to_vec()]);
        let engine = EngineKind::best();
        let batched = BatchedDatabase::build(&db, lanes_for(engine), false);
        let query = Alphabet::protein().encode(b"WWWWW");
        let mut out = Vec::new();
        let mut stats = KernelStats::default();
        batch_score(
            engine,
            &query,
            &batched.batches()[0],
            &Scoring::matrix(blosum62()),
            GapModel::default_affine(),
            &mut stats,
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].score, 55); // 5 × W:W = 5 × 11
    }

    /// The four scoring × gap-model combinations the kernel specializes.
    fn all_paths() -> Vec<(Scoring, GapModel)> {
        let fixed = Scoring::Fixed {
            r#match: 3,
            mismatch: -2,
        };
        let matrix = Scoring::matrix(blosum62());
        let affine = GapModel::Affine(GapPenalties::new(5, 2));
        let linear = GapModel::Linear { gap: 3 };
        vec![
            (matrix.clone(), affine),
            (matrix, linear),
            (fixed.clone(), affine),
            (fixed, linear),
        ]
    }

    /// Score `query` against every batch of `db` laid out for `engine`.
    fn score_db(
        engine: EngineKind,
        query: &[u8],
        db: &Database,
        scoring: &Scoring,
        gaps: GapModel,
    ) -> (Vec<LaneScore>, KernelStats, BatchedDatabase) {
        let batched = BatchedDatabase::build(db, lanes_for(engine), false);
        let mut out = Vec::new();
        let mut stats = KernelStats::default();
        for b in batched.batches() {
            batch_score(engine, query, b, scoring, gaps, &mut stats, &mut out);
        }
        (out, stats, batched)
    }

    #[test]
    fn every_column_count_and_path_matches_scalar() {
        // 1..=9 columns covers a lone tail, whole blocks, and whole
        // blocks followed by every tail length.
        let mut rng = StdRng::seed_from_u64(41);
        let alphabet = Alphabet::protein();
        for cols in 1..=9usize {
            let seqs: Vec<Vec<u8>> = (0..19)
                .map(|k| {
                    let l = if k == 0 {
                        cols
                    } else {
                        rng.gen_range(1..=cols)
                    };
                    rand_ascii(&mut rng, l)
                })
                .collect();
            let db = mk_db(seqs);
            let qlen = rng.gen_range(1..24);
            let query = alphabet.encode(&rand_ascii(&mut rng, qlen));
            for (scoring, gaps) in all_paths() {
                for engine in EngineKind::available() {
                    let (out, _, batched) = score_db(engine, &query, &db, &scoring, gaps);
                    assert_eq!(batched.batches()[0].max_len(), cols);
                    assert_eq!(out.len(), db.len());
                    for ls in &out {
                        let target = &db.encoded(ls.db_index as usize).idx;
                        let want = sw_scalar(&query, target, &scoring, gaps).score;
                        assert_eq!(
                            ls.score, want,
                            "{engine:?} cols {cols} {gaps:?} seq {}",
                            ls.db_index
                        );
                        assert!(!ls.saturated);
                    }
                }
            }
        }
    }

    #[test]
    fn saturation_in_a_later_block_is_flagged() {
        // 12 × W:W = 132 > 127. Sequence 0 first saturates in its last
        // column (21 columns: the width-1 tail); sequence 1 in column 15,
        // the last column of its fourth block. The rest stay small.
        let alphabet = Alphabet::protein();
        let query = alphabet.encode(&[b'W'; 12]);
        let mut seqs = vec![
            [b"AAAAAAAAA".as_slice(), &[b'W'; 12]].concat(),
            [b"AAAA".as_slice(), &[b'W'; 12]].concat(),
        ];
        for _ in 0..5 {
            seqs.push(b"ARNDW".to_vec());
        }
        let db = mk_db(seqs);
        let scoring = Scoring::matrix(blosum62());
        let gaps = GapModel::default_affine();
        for engine in EngineKind::available() {
            let (out, _, _) = score_db(engine, &query, &db, &scoring, gaps);
            for ls in &out {
                let target = &db.encoded(ls.db_index as usize).idx;
                let want = sw_scalar(&query, target, &scoring, gaps).score;
                if ls.db_index < 2 {
                    assert!(want > i8::MAX as i32);
                    assert!(ls.saturated, "{engine:?} seq {}", ls.db_index);
                    assert_eq!(ls.score, i8::MAX as i32);
                } else {
                    assert!(!ls.saturated, "{engine:?} seq {}", ls.db_index);
                    assert_eq!(ls.score, want, "{engine:?} seq {}", ls.db_index);
                }
            }
        }
    }

    #[test]
    fn cancel_mid_batch_returns_garbage_that_callers_discard() {
        // The only alignment worth anything sits past column 64, so a
        // kernel that stops at the first poll reports a low score.
        let alphabet = Alphabet::protein();
        let query = alphabet.encode(b"WWWWWCCCCC");
        let target = [vec![b'A'; 100], b"WWWWWCCCCC".to_vec()].concat();
        let db = mk_db(vec![target]);
        let scoring = Scoring::matrix(blosum62());
        let gaps = GapModel::default_affine();
        let dead = crate::govern::CancelToken::new();
        dead.cancel(crate::govern::CancelReason::Deadline);
        for engine in EngineKind::available() {
            let batched = BatchedDatabase::build(&db, lanes_for(engine), false);
            let mut out = Vec::new();
            let mut stats = KernelStats::default();
            {
                let _scope = crate::govern::GovernorScope::install(dead.clone());
                batch_score(
                    engine,
                    &query,
                    &batched.batches()[0],
                    &scoring,
                    gaps,
                    &mut stats,
                    &mut out,
                );
            }
            // One lane result per member still comes back, computed over
            // the first CANCEL_CHECK_PERIOD columns only.
            assert_eq!(out.len(), 1);
            assert_eq!(
                stats.vector_steps,
                (CANCEL_CHECK_PERIOD * query.len()) as u64
            );
            let want = sw_scalar(&query, &db.encoded(0).idx, &scoring, gaps).score;
            assert!(out[0].score < want, "{engine:?}: {}", out[0].score);

            // The governed entry point discards it and reports the cancel.
            let mut aligner = crate::api::Aligner::builder().engine(engine).build();
            let err = aligner
                .try_search_batched(&query, &db, &batched, Some(&dead))
                .unwrap_err();
            assert!(
                matches!(err, crate::error::AlignError::Cancelled { .. }),
                "{err:?}"
            );
        }
    }

    #[test]
    fn kernel_stats_match_closed_forms() {
        let mut rng = StdRng::seed_from_u64(59);
        let alphabet = Alphabet::protein();
        let seqs: Vec<Vec<u8>> = (0..150)
            .map(|_| {
                let l = rng.gen_range(1..=75);
                rand_ascii(&mut rng, l)
            })
            .collect();
        let db = mk_db(seqs);
        let query = alphabet.encode(&rand_ascii(&mut rng, 17));
        let m = query.len() as u64;
        for (scoring, gaps) in all_paths() {
            let lut = matches!(scoring, Scoring::Matrix(_));
            for engine in EngineKind::available() {
                let (_, stats, batched) = score_db(engine, &query, &db, &scoring, gaps);
                let lanes = lanes_for(engine) as u64;
                let cols: u64 = batched.batches().iter().map(|b| b.max_len() as u64).sum();
                let real: u64 = m * db.total_residues() as u64;
                let steps = m * cols;
                assert_eq!(stats.vector_steps, steps, "{engine:?}");
                assert_eq!(stats.lut_ops, if lut { steps } else { 0 }, "{engine:?}");
                assert_eq!(stats.cells, real, "{engine:?}");
                assert_eq!(stats.padded_lanes, steps * lanes - real, "{engine:?}");
                assert_eq!(stats.vector_lane_slots, steps * lanes, "{engine:?}");
                assert_eq!(stats.vector_loads, 2 * steps + cols, "{engine:?}");
                assert_eq!(stats.vector_stores, 2 * steps, "{engine:?}");
            }
        }
    }
}
