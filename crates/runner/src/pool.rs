//! Database-partitioned parallel search.
//!
//! The paper's threading model (§IV-E, §IV-G): "each thread handles a
//! different segment of the database". A query is aligned against
//! residue-balanced database partitions on scoped threads, each with
//! its own [`Aligner`] over its own range of the
//! batch layout (kernels are stateless apart from stats, which are
//! merged afterwards).
//!
//! This module holds the only partition fan-out, the only worker
//! isolation policy and the only stall watchdog. [`try_parallel_search`]
//! and the journaled searches in [`crate::journal`] are thin callers
//! of the fan-out; the batch server calls `isolate` and `Watchdog`
//! directly with its persistent aligner and layout.
//!
//! ## Worker isolation
//!
//! A panic inside one partition's kernel must not take down the whole
//! search: each worker's fast path runs under `catch_unwind` and its
//! result is validated (one hit per partition sequence). On a panic, a
//! failed validation or a watchdog reap the partition is recomputed
//! **once** on the scalar reference engine — scores stay exact, only
//! throughput degrades — and the event is counted in
//! [`SearchOutput::faults`]. A panic on the degraded retry itself is a
//! double fault and is propagated to the caller.

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use swsimd_core::{
    AlignError, Aligner, AlignerBuilder, CancelReason, CancelToken, EngineKind, Hit, KernelStats,
};
use swsimd_seq::{BatchedDatabase, Database};

use crate::fault::{FaultPlan, FaultStats};
use crate::shadow::{ShadowConfig, ShadowVerifier};

/// Configuration for parallel search.
#[derive(Clone)]
pub struct PoolConfig {
    /// Worker threads (1 = run inline on the caller).
    pub threads: usize,
    /// Fault-injection schedule (inert by default; see [`FaultPlan`]).
    pub fault_plan: FaultPlan,
    /// Sampled shadow verification of served hits against the scalar
    /// reference (off by default; see [`ShadowConfig`]).
    pub shadow: ShadowConfig,
    /// Cancel token governing the whole search (deadline, shutdown,
    /// client drop). Workers run under per-partition children of this
    /// token, so one `cancel()` stops every partition within a kernel
    /// check period. `None` = ungoverned.
    pub cancel: Option<CancelToken>,
    /// Stuck-worker watchdog: when a worker's heartbeat (ticked by the
    /// kernel governor poll) makes no progress for this long, its
    /// token is cancelled with [`CancelReason::Watchdog`] and the
    /// partition is recomputed on the scalar reference engine. `None`
    /// disables the watchdog.
    pub stall_timeout: Option<Duration>,
}

impl Default for PoolConfig {
    fn default() -> Self {
        Self {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            fault_plan: FaultPlan::default(),
            shadow: ShadowConfig::default(),
            cancel: None,
            stall_timeout: None,
        }
    }
}

/// Result of a parallel search: exact hits plus merged kernel stats.
#[derive(Debug)]
pub struct SearchOutput {
    /// One hit per database sequence, sorted best-first.
    pub hits: Vec<Hit>,
    /// Merged kernel statistics from all workers.
    pub stats: KernelStats,
    /// Degradation events (worker panics, retries) across all workers.
    pub faults: FaultStats,
}

/// One finished chunk: globally indexed hits plus its kernel and fault
/// ledgers.
pub(crate) type Chunk = (Vec<Hit>, KernelStats, FaultStats);

/// How an isolated search ended: `Err` is a double fault (the scalar
/// retry panicked too) carrying the panic payload; inside, either the
/// accepted hits plus the caller's payload, or the typed error that
/// stopped the search.
pub(crate) type Isolated<T> = std::thread::Result<Result<(Vec<Hit>, T), AlignError>>;

/// The stall watchdog. Each slot holds the token of one in-flight
/// computation; [`Watchdog::run`] polls their kernel heartbeats and
/// cancels any token whose heartbeat has not advanced for the stall
/// timeout with [`CancelReason::Watchdog`]. The pool uses one slot per
/// chunk for the length of a search, the batch server one slot for its
/// lifetime.
pub(crate) struct Watchdog {
    /// Per slot: a generation bumped on every publish, so a new token
    /// starts a fresh stall clock, and the token under observation.
    slots: Vec<Mutex<(u64, Option<CancelToken>)>>,
    stop: AtomicBool,
}

impl Watchdog {
    pub(crate) fn new(slots: usize) -> Self {
        Self {
            slots: (0..slots).map(|_| Mutex::new((0, None))).collect(),
            stop: AtomicBool::new(false),
        }
    }

    fn publish(&self, slot: usize, token: Option<&CancelToken>) {
        let mut s = self.slots[slot].lock().expect("watchdog slot");
        *s = (s.0 + 1, token.cloned());
    }

    /// Observe `token` in `slot` from now on.
    pub(crate) fn watch(&self, slot: usize, token: &CancelToken) {
        self.publish(slot, Some(token));
    }

    /// Stop observing `slot`: its computation finished.
    pub(crate) fn clear(&self, slot: usize) {
        self.publish(slot, None);
    }

    /// Make [`Watchdog::run`] return at its next poll.
    pub(crate) fn stop(&self) {
        self.stop.store(true, Ordering::Release);
    }

    /// Poll until stopped, reaping every watched token whose heartbeat
    /// has not advanced for `stall`. A computation wedged before its
    /// first kernel strip stalls from the first observation, so a
    /// pre-kernel hang is reaped on the same clock as a mid-kernel one.
    pub(crate) fn run(&self, stall: Duration) {
        let poll = (stall / 4).clamp(Duration::from_millis(1), Duration::from_millis(25));
        // Per slot: (generation, heartbeat, when it last advanced).
        let mut seen: Vec<Option<(u64, u64, Instant)>> = vec![None; self.slots.len()];
        while !self.stop.load(Ordering::Acquire) {
            std::thread::sleep(poll);
            let now = Instant::now();
            for (slot, last) in self.slots.iter().zip(seen.iter_mut()) {
                let slot = slot.lock().expect("watchdog slot");
                // A token already cancelled (by the watchdog, or by its
                // parent) is being torn down, not wedged.
                let (gen, Some(token)) = (slot.0, slot.1.as_ref().filter(|t| !t.is_cancelled()))
                else {
                    *last = None;
                    continue;
                };
                let beat = token.heartbeat();
                match *last {
                    Some((g, b, since)) if g == gen && b == beat => {
                        let stalled = now.duration_since(since);
                        if stalled >= stall && token.cancel(CancelReason::Watchdog) {
                            swsimd_obs::event!(
                                "watchdog_fire",
                                "stalled_ms" => stalled.as_millis() as u64
                            );
                        }
                    }
                    _ => *last = Some((gen, beat, now)),
                }
            }
        }
    }
}

/// Stops a [`Watchdog`] when dropped, so an early return or a
/// propagated double fault cannot leave its loop running.
struct StopOnDrop<'a>(&'a Watchdog);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.stop();
    }
}

/// The one worker-isolation policy, shared by the pool, the journal
/// and the batch server. `chunk` is the unit [`FaultPlan`] targets;
/// `expected` the hit count a valid result carries; `engine` the
/// backend `fast` computes on, which takes the trust strike.
///
/// * a validated `fast` result is accepted;
/// * a watchdog reap, a panic or a wrong hit count is counted and
///   recomputed once by `retry` on the scalar engine; a reap or a
///   panic also files a trust strike;
/// * a cooperative cancel (or any other typed error) is returned with
///   no retry.
///
/// `fast` must run under a child of the token `retry` runs under, so
/// the watchdog can reap it without cancelling the retry. The returned
/// [`FaultStats`] count the events even when the retry fails.
pub(crate) fn isolate<T>(
    chunk: usize,
    plan: &FaultPlan,
    expected: usize,
    engine: EngineKind,
    fast: impl FnOnce() -> Result<(Vec<Hit>, T), AlignError>,
    retry: impl FnOnce() -> Result<(Vec<Hit>, T), AlignError>,
) -> (FaultStats, Isolated<T>) {
    let fast = catch_unwind(AssertUnwindSafe(|| {
        plan.before_partition(chunk);
        fast().map(|(mut hits, extra)| {
            plan.corrupt_hits(chunk, &mut hits);
            plan.skew_hits(chunk, &mut hits);
            (hits, extra)
        })
    }));
    let (panicked, reaped) = match fast {
        Ok(Ok((hits, extra))) if hits.len() == expected => {
            return (FaultStats::default(), Ok(Ok((hits, extra))))
        }
        Ok(Err(AlignError::Cancelled {
            reason: CancelReason::Watchdog,
        })) => (false, true),
        Ok(Err(e)) => return (FaultStats::default(), Ok(Err(e))),
        Ok(Ok(_)) => (false, false),
        Err(_) => (true, false),
    };
    let mut faults = FaultStats {
        worker_panics: panicked as u64,
        watchdog_fires: reaped as u64,
        degraded_batches: 1,
        retries: 1,
        ..FaultStats::default()
    };
    // A kernel panic or stall is a strike against the backend that
    // computed it; enough strikes open the trust breaker.
    if (panicked || reaped)
        && swsimd_core::trust::global().record_strike(swsimd_core::trust::effective_engine(engine))
    {
        faults.backend_demotions = 1;
    }
    swsimd_obs::event!(
        "partition_degraded",
        "partition" => chunk,
        "panicked" => panicked,
        "reaped" => reaped,
        "engine" => "scalar"
    );
    (faults, catch_unwind(AssertUnwindSafe(retry)))
}

/// Search one chunk of the database under isolation, then shadow
/// verify it. The fast path runs under `token`, the scalar retry under
/// `parent`.
#[allow(clippy::too_many_arguments)] // private seam of the fan-out
fn search_chunk<F>(
    query: &[u8],
    db: &Database,
    chunk: usize,
    range: &Range<usize>,
    cfg: &PoolConfig,
    shadow: &ShadowVerifier,
    make_aligner: &F,
    token: &CancelToken,
    parent: &CancelToken,
) -> Result<Chunk, AlignError>
where
    F: Fn() -> AlignerBuilder + Sync,
{
    let search = |mut aligner: Aligner, token: &CancelToken| {
        let lanes = swsimd_core::batch::lanes_for(aligner.engine());
        let batched = BatchedDatabase::build_range(db, range.clone(), lanes, true);
        let hits = aligner.try_search_batched(query, db, &batched, Some(token))?;
        Ok((hits, aligner.stats().clone()))
    };
    let aligner = make_aligner().build();
    let engine = aligner.engine();
    let (mut faults, outcome) = isolate(
        chunk,
        &cfg.fault_plan,
        range.len(),
        engine,
        || search(aligner, token),
        || search(make_aligner().engine(EngineKind::Scalar).build(), parent),
    );
    // Double fault: nothing left to degrade to — propagate.
    let (mut hits, stats) = outcome.unwrap_or_else(|payload| resume_unwind(payload))?;
    faults.record_shadow(&shadow.verify_hits(query, db, &mut hits, make_aligner));
    Ok((hits, stats, faults))
}

/// The partition fan-out: search each `(chunk, range)` of `chunks` on
/// its own scoped worker (inline when there is only one), each under a
/// per-chunk child of [`PoolConfig::cancel`], with the stall watchdog
/// running whenever [`PoolConfig::stall_timeout`] is set. Results are
/// joined in `chunks` order and handed to `take` as each lands; the
/// first error `take` returns ends the fan-out.
pub(crate) fn fan_out<F, E>(
    query: &[u8],
    db: &Database,
    cfg: &PoolConfig,
    make_aligner: &F,
    chunks: &[(usize, Range<usize>)],
    mut take: impl FnMut(usize, &Range<usize>, Result<Chunk, AlignError>) -> Result<(), E>,
) -> Result<(), E>
where
    F: Fn() -> AlignerBuilder + Sync,
{
    // One sampler across all chunks, so the configured rate holds over
    // the whole search rather than per chunk.
    let shadow = ShadowVerifier::new(cfg.shadow);
    let parent = cfg.cancel.clone().unwrap_or_default();
    let watchdog = Watchdog::new(chunks.len());
    let run = |slot: usize| {
        let (chunk, range) = &chunks[slot];
        let token = parent.child();
        watchdog.watch(slot, &token);
        let out = search_chunk(
            query,
            db,
            *chunk,
            range,
            cfg,
            &shadow,
            make_aligner,
            &token,
            &parent,
        );
        watchdog.clear(slot);
        out
    };
    // Helper threads work inside the caller's trace and recorder scope.
    let ctx = swsimd_obs::handoff();
    std::thread::scope(|scope| {
        if let Some(stall) = cfg.stall_timeout {
            let watchdog = &watchdog;
            scope.spawn(move || {
                let _ctx = ctx.enter();
                watchdog.run(stall)
            });
        }
        let _stop = StopOnDrop(&watchdog);
        if let [(chunk, range)] = chunks {
            return take(*chunk, range, run(0));
        }
        let run = &run;
        let handles: Vec<_> = (0..chunks.len())
            .map(|slot| {
                scope.spawn(move || {
                    let _ctx = ctx.enter();
                    run(slot)
                })
            })
            .collect();
        for ((chunk, range), handle) in chunks.iter().zip(handles) {
            let out = handle
                .join()
                .unwrap_or_else(|payload| resume_unwind(payload));
            take(*chunk, range, out)?;
        }
        Ok(())
    })
}

/// Merge chunk results into one best-first [`SearchOutput`].
pub(crate) fn merge(chunks: Vec<Chunk>) -> SearchOutput {
    let mut hits = Vec::new();
    let mut stats = KernelStats::default();
    let mut faults = FaultStats::default();
    for (mut h, s, f) in chunks {
        hits.append(&mut h);
        stats.merge(&s);
        faults.merge(&f);
    }
    hits.sort_by(|a, b| b.score.cmp(&a.score).then(a.db_index.cmp(&b.db_index)));
    SearchOutput {
        hits,
        stats,
        faults,
    }
}

/// Search one encoded query against a database with `cfg.threads`
/// workers over residue-balanced partitions.
///
/// `make_aligner` builds each worker's aligner (so callers control
/// matrix/gaps/precision). Results are exact and deterministic: the
/// partitioning depends only on the database, and each sequence's score
/// is computed by the same kernels regardless of thread count — a
/// partition degraded to the scalar engine (see module docs) still
/// produces identical scores.
pub fn parallel_search<F>(
    query: &[u8],
    db: &Database,
    cfg: &PoolConfig,
    make_aligner: F,
) -> SearchOutput
where
    F: Fn() -> AlignerBuilder + Sync,
{
    // Without a parent cancel token every cancellation path either
    // cannot fire or is recovered internally (watchdog → scalar
    // retry), so this cannot error.
    try_parallel_search(query, db, cfg, make_aligner)
        .expect("searches without a parent cancel token cannot be cancelled")
}

/// Governed variant of [`parallel_search`]: honors
/// [`PoolConfig::cancel`] and [`PoolConfig::stall_timeout`], returning
/// [`AlignError::Cancelled`] when the search is torn down mid-compute
/// (deadline, shutdown, client drop, memory). A watchdog reap is *not*
/// an error — the wedged partition is recomputed on the scalar
/// reference and counted in [`FaultStats::watchdog_fires`].
pub fn try_parallel_search<F>(
    query: &[u8],
    db: &Database,
    cfg: &PoolConfig,
    make_aligner: F,
) -> Result<SearchOutput, AlignError>
where
    F: Fn() -> AlignerBuilder + Sync,
{
    let threads = cfg.threads.max(1);
    let mut sp = swsimd_obs::span!(
        "parallel_search",
        "threads" => threads,
        "db_seqs" => db.len()
    );
    let chunks: Vec<_> = db.partition(threads).into_iter().enumerate().collect();
    let mut done = Vec::with_capacity(chunks.len());
    fan_out(query, db, cfg, &make_aligner, &chunks, |_, _, out| {
        done.push(out?);
        Ok(())
    })?;
    let out = merge(done);
    sp.record("cells", out.stats.cells);
    sp.record("retries", out.faults.retries);
    Ok(out)
}

/// Align many (query, target) pairs across threads — the many-to-many
/// primitive behind Scenario 2.
pub fn parallel_pairs<F>(pairs: &[(Vec<u8>, Vec<u8>)], threads: usize, make_aligner: F) -> Vec<i32>
where
    F: Fn() -> AlignerBuilder + Sync,
{
    let threads = threads.max(1);
    let chunk = pairs.len().div_ceil(threads).max(1);
    let mut scores = vec![0i32; pairs.len()];
    let ctx = swsimd_obs::handoff();
    std::thread::scope(|scope| {
        for (slot_chunk, pair_chunk) in scores.chunks_mut(chunk).zip(pairs.chunks(chunk)) {
            let make_aligner = &make_aligner;
            scope.spawn(move || {
                let _ctx = ctx.enter();
                let mut aligner = make_aligner().build();
                for (slot, (q, t)) in slot_chunk.iter_mut().zip(pair_chunk) {
                    *slot = aligner.align(q, t).score;
                }
            });
        }
    });
    scores
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use swsimd_core::Aligner;
    use swsimd_matrices::{blosum62, Alphabet, PROTEIN_LETTERS};
    use swsimd_seq::SeqRecord;

    fn small_db(n: usize, seed: u64) -> Database {
        let mut rng = StdRng::seed_from_u64(seed);
        let records: Vec<SeqRecord> = (0..n)
            .map(|i| {
                let l = rng.gen_range(5..80);
                let s: Vec<u8> = (0..l)
                    .map(|_| PROTEIN_LETTERS[rng.gen_range(0..20)])
                    .collect();
                SeqRecord::new(format!("s{i}"), s)
            })
            .collect();
        Database::from_records(records, &Alphabet::protein())
    }

    #[test]
    fn threaded_matches_single_thread() {
        let db = small_db(60, 3);
        let q = Alphabet::protein().encode(b"MKVLAADTWGHKDDTWGHK");
        let builder = || Aligner::builder().matrix(blosum62());
        let single = parallel_search(
            &q,
            &db,
            &PoolConfig {
                threads: 1,
                ..PoolConfig::default()
            },
            builder,
        );
        for threads in [2, 3, 7] {
            let multi = parallel_search(
                &q,
                &db,
                &PoolConfig {
                    threads,
                    ..PoolConfig::default()
                },
                builder,
            );
            assert_eq!(single.hits, multi.hits, "threads={threads}");
            assert!(!multi.faults.any());
        }
    }

    #[test]
    fn stats_merge_across_threads() {
        let db = small_db(40, 5);
        let q = Alphabet::protein().encode(b"MKVLAADTW");
        let out = parallel_search(
            &q,
            &db,
            &PoolConfig {
                threads: 4,
                ..PoolConfig::default()
            },
            || Aligner::builder().matrix(blosum62()),
        );
        assert!(out.stats.cells > 0);
        assert_eq!(out.hits.len(), 40);
    }

    #[test]
    fn injected_panic_degrades_not_fails() {
        let db = small_db(50, 11);
        let q = Alphabet::protein().encode(b"MKVLAADTWGHKDDTWGHK");
        let builder = || Aligner::builder().matrix(blosum62());
        let clean = parallel_search(
            &q,
            &db,
            &PoolConfig {
                threads: 1,
                ..PoolConfig::default()
            },
            builder,
        );
        let faulted = parallel_search(
            &q,
            &db,
            &PoolConfig {
                threads: 4,
                fault_plan: FaultPlan::new().panic_at(1, 1),
                ..PoolConfig::default()
            },
            builder,
        );
        assert_eq!(faulted.hits, clean.hits, "degraded search stays exact");
        assert_eq!(faulted.faults.worker_panics, 1);
        assert_eq!(faulted.faults.degraded_batches, 1);
        assert_eq!(faulted.faults.retries, 1);
    }

    #[test]
    fn injected_poison_is_caught_by_validation() {
        let db = small_db(30, 13);
        let q = Alphabet::protein().encode(b"MKVLAADTW");
        let builder = || Aligner::builder().matrix(blosum62());
        let clean = parallel_search(
            &q,
            &db,
            &PoolConfig {
                threads: 1,
                ..PoolConfig::default()
            },
            builder,
        );
        let faulted = parallel_search(
            &q,
            &db,
            &PoolConfig {
                threads: 3,
                fault_plan: FaultPlan::new().poison_at(2, 1),
                ..PoolConfig::default()
            },
            builder,
        );
        assert_eq!(faulted.hits, clean.hits);
        assert_eq!(faulted.faults.worker_panics, 0, "poison is not a panic");
        assert_eq!(faulted.faults.degraded_batches, 1);
        assert_eq!(faulted.faults.retries, 1);
    }

    #[test]
    fn single_thread_panic_degrades_inline() {
        let db = small_db(10, 17);
        let q = Alphabet::protein().encode(b"MKVLAADTW");
        let out = parallel_search(
            &q,
            &db,
            &PoolConfig {
                threads: 1,
                fault_plan: FaultPlan::new().panic_at(0, 1),
                ..PoolConfig::default()
            },
            || Aligner::builder().matrix(blosum62()),
        );
        assert_eq!(out.hits.len(), 10);
        assert_eq!(out.faults.worker_panics, 1);
    }

    #[test]
    fn shadow_full_rate_verifies_every_hit_cleanly() {
        use crate::shadow::{OnMismatch, ShadowConfig};
        let db = small_db(25, 19);
        let q = Alphabet::protein().encode(b"MKVLAADTWGHK");
        let out = parallel_search(
            &q,
            &db,
            &PoolConfig {
                threads: 2,
                shadow: ShadowConfig {
                    sample_rate: 1.0,
                    on_mismatch: OnMismatch::Record,
                },
                ..PoolConfig::default()
            },
            || Aligner::builder().matrix(blosum62()),
        );
        assert_eq!(out.faults.shadow_checks, 25, "full rate checks every hit");
        assert_eq!(out.faults.shadow_mismatches, 0, "clean kernels agree");
        assert_eq!(out.hits.len(), 25);
    }

    #[test]
    fn shadow_catches_and_repairs_injected_wrong_score() {
        use crate::shadow::{OnMismatch, ShadowConfig};
        let db = small_db(20, 23);
        let q = Alphabet::protein().encode(b"MKVLAADTWGHK");
        let builder = || Aligner::builder().matrix(blosum62());
        let clean = parallel_search(
            &q,
            &db,
            &PoolConfig {
                threads: 1,
                ..PoolConfig::default()
            },
            builder,
        );
        // Record mode: count mismatches without striking the global
        // trust ladder (breaker behavior is covered by the e2e suite).
        let shadowed = parallel_search(
            &q,
            &db,
            &PoolConfig {
                threads: 1,
                fault_plan: FaultPlan::new().wrong_score_at(0, 1).corrupt_lane_at(0, 1),
                shadow: ShadowConfig {
                    sample_rate: 1.0,
                    on_mismatch: OnMismatch::Record,
                },
                ..PoolConfig::default()
            },
            builder,
        );
        assert_eq!(shadowed.faults.shadow_checks, 20);
        assert_eq!(
            shadowed.faults.shadow_mismatches, 2,
            "both injected skews caught"
        );
        assert_eq!(shadowed.hits, clean.hits, "mismatching scores repaired");
        assert_eq!(
            shadowed.faults.degraded_batches, 0,
            "count-preserving skew evades structural validation"
        );
    }

    #[test]
    fn shadow_off_checks_nothing() {
        let db = small_db(10, 29);
        let q = Alphabet::protein().encode(b"MKVLAADTW");
        let out = parallel_search(&q, &db, &PoolConfig::default(), || {
            Aligner::builder().matrix(blosum62())
        });
        assert_eq!(out.faults.shadow_checks, 0);
        assert_eq!(out.faults.shadow_mismatches, 0);
    }

    #[test]
    fn watchdog_reaps_hung_worker_and_answers_exactly_via_scalar() {
        let db = small_db(50, 31);
        let q = Alphabet::protein().encode(b"MKVLAADTWGHKDDTWGHK");
        let builder = || Aligner::builder().matrix(blosum62());
        let clean = parallel_search(
            &q,
            &db,
            &PoolConfig {
                threads: 1,
                ..PoolConfig::default()
            },
            builder,
        );
        // Partition 1's worker wedges (sleeps well past the stall
        // timeout before its first heartbeat); the watchdog must reap
        // it and the scalar retry must still answer exactly.
        let out = parallel_search(
            &q,
            &db,
            &PoolConfig {
                threads: 4,
                fault_plan: FaultPlan::new().delay_at(1, Duration::from_millis(400)),
                stall_timeout: Some(Duration::from_millis(50)),
                ..PoolConfig::default()
            },
            builder,
        );
        assert_eq!(out.hits, clean.hits, "reaped partition recomputed exactly");
        assert_eq!(out.faults.watchdog_fires, 1);
        assert_eq!(out.faults.retries, 1);
        assert_eq!(out.faults.worker_panics, 0, "a reap is not a panic");
    }

    #[test]
    fn governed_but_uncancelled_search_matches_ungoverned() {
        let db = small_db(40, 33);
        let q = Alphabet::protein().encode(b"MKVLAADTWGHK");
        let builder = || Aligner::builder().matrix(blosum62());
        let plain = parallel_search(&q, &db, &PoolConfig::default(), builder);
        let governed = try_parallel_search(
            &q,
            &db,
            &PoolConfig {
                threads: 3,
                cancel: Some(CancelToken::new()),
                stall_timeout: Some(Duration::from_secs(5)),
                ..PoolConfig::default()
            },
            builder,
        )
        .expect("nothing fired");
        assert_eq!(governed.hits, plain.hits);
        assert_eq!(governed.faults.watchdog_fires, 0);
    }

    #[test]
    fn cancelled_parent_token_aborts_search_with_typed_error() {
        let db = small_db(40, 37);
        let q = Alphabet::protein().encode(b"MKVLAADTWGHK");
        let token = CancelToken::new();
        token.cancel(CancelReason::Shutdown);
        let err = try_parallel_search(
            &q,
            &db,
            &PoolConfig {
                threads: 3,
                cancel: Some(token),
                ..PoolConfig::default()
            },
            || Aligner::builder().matrix(blosum62()),
        )
        .unwrap_err();
        assert_eq!(
            err,
            AlignError::Cancelled {
                reason: CancelReason::Shutdown
            }
        );
    }

    /// Partition workers search their range of the database as it was
    /// encoded, whatever the alphabet: DNA scores at 4 threads equal
    /// those at 1 thread, for the plain and the journaled search.
    #[test]
    fn dna_scores_do_not_depend_on_thread_count() {
        use crate::journal::{checkpointed_search, JournalWriter};
        use swsimd_core::GapPenalties;
        use swsimd_matrices::{SubstitutionMatrix, DNA_LETTERS};

        let mut rng = StdRng::seed_from_u64(41);
        let records: Vec<SeqRecord> = (0..40)
            .map(|i| {
                let l = rng.gen_range(20..120);
                let s: Vec<u8> = (0..l).map(|_| DNA_LETTERS[rng.gen_range(0..4)]).collect();
                SeqRecord::new(format!("d{i}"), s)
            })
            .collect();
        let db = Database::from_records(records, &Alphabet::dna());
        let q = Alphabet::dna().encode(b"ACGTTGCAACGGTTACGATCGATCGGCTAAGCTTAGCGT");
        let dna = SubstitutionMatrix::match_mismatch("dna+2/-3", Alphabet::dna(), 2, -3);
        let builder = || {
            Aligner::builder()
                .matrix(&dna)
                .gaps(GapPenalties::new(5, 2))
        };
        let cfg = |threads| PoolConfig {
            threads,
            ..PoolConfig::default()
        };
        let single = parallel_search(&q, &db, &cfg(1), builder);
        let multi = parallel_search(&q, &db, &cfg(4), builder);
        assert_eq!(multi.hits, single.hits, "parallel_search at 4 threads");
        let mut jw = JournalWriter::new(Vec::new()).unwrap();
        let journaled = checkpointed_search(&q, &db, &cfg(4), builder, &mut jw).unwrap();
        assert_eq!(
            journaled.hits, single.hits,
            "checkpointed_search at 4 threads"
        );
    }

    #[test]
    fn parallel_pairs_match_sequential() {
        let mut rng = StdRng::seed_from_u64(8);
        let alphabet = Alphabet::protein();
        let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..20)
            .map(|_| {
                let l1 = rng.gen_range(3..40);
                let l2 = rng.gen_range(3..40);
                let a: Vec<u8> = (0..l1).map(|_| rng.gen_range(0..20u8)).collect();
                let b: Vec<u8> = (0..l2).map(|_| rng.gen_range(0..20u8)).collect();
                (a, b)
            })
            .collect();
        let _ = alphabet;
        let builder = || Aligner::builder().matrix(blosum62());
        let seq = parallel_pairs(&pairs, 1, builder);
        let par = parallel_pairs(&pairs, 4, builder);
        assert_eq!(seq, par);
    }
}
