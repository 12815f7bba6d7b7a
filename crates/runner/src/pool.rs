//! Database-partitioned parallel search.
//!
//! The paper's threading model (§IV-E, §IV-G): "each thread handles a
//! different segment of the database". A query (or batch of queries)
//! is aligned against residue-balanced database partitions on scoped
//! threads, each with its own [`Aligner`] (kernels are stateless apart
//! from stats, which are merged afterwards).
//!
//! ## Worker isolation
//!
//! A panic inside one partition's kernel must not take down the whole
//! search: each worker's fast path runs under `catch_unwind` and its
//! result is validated (one hit per partition sequence). On a panic or
//! a failed validation the partition is recomputed **once** on the
//! scalar reference engine — scores stay exact, only throughput
//! degrades — and the event is counted in [`SearchOutput::faults`]. A
//! panic on the degraded retry itself is a double fault and is
//! propagated to the caller.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use swsimd_core::{
    AlignError, AlignerBuilder, CancelReason, CancelToken, EngineKind, Hit, KernelStats,
};
use swsimd_seq::{BatchedDatabase, Database};

use crate::fault::{FaultPlan, FaultStats};
use crate::shadow::{ShadowConfig, ShadowVerifier};

/// Configuration for parallel search.
#[derive(Clone)]
pub struct PoolConfig {
    /// Worker threads (1 = run inline on the caller).
    pub threads: usize,
    /// Sort each partition's sequences by length before batching.
    pub sort_batches: bool,
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
            sort_batches: true,
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

fn db_alphabet() -> &'static swsimd_matrices::Alphabet {
    use std::sync::OnceLock;
    static A: OnceLock<swsimd_matrices::Alphabet> = OnceLock::new();
    A.get_or_init(swsimd_matrices::Alphabet::protein)
}

/// Run `f` over the sub-database covering `range` (borrowing the whole
/// database when the range covers it, to avoid a copy).
fn with_sub_db<R>(db: &Database, range: &Range<usize>, f: impl FnOnce(&Database) -> R) -> R {
    if range.start == 0 && range.end == db.len() {
        f(db)
    } else {
        let records: Vec<_> = range.clone().map(|i| db.record(i).clone()).collect();
        let sub = Database::from_records(records, db_alphabet());
        f(&sub)
    }
}

fn search_sub<F>(
    query: &[u8],
    db: &Database,
    range: &Range<usize>,
    builder: F,
    token: Option<&CancelToken>,
) -> Result<(Vec<Hit>, KernelStats), AlignError>
where
    F: FnOnce() -> AlignerBuilder,
{
    let mut aligner = builder().build();
    with_sub_db(db, range, |sub| {
        let lanes = swsimd_core::batch::lanes_for(aligner.engine());
        let batched = BatchedDatabase::build(sub, lanes, true);
        let hits = aligner.try_search_batched(query, sub, &batched, token)?;
        Ok((hits, aligner.stats().clone()))
    })
}

/// Per-partition governance handles.
pub(crate) struct PartitionGovern<'a> {
    /// Token the fast path runs under (a per-worker child).
    pub token: &'a CancelToken,
    /// Token a post-watchdog scalar retry runs under (the parent), if
    /// any — the worker token is already cancelled at that point.
    pub retry: Option<&'a CancelToken>,
}

/// One worker's watchdog slot: the token whose heartbeat the watchdog
/// observes, plus a completion flag so finished workers are skipped.
struct WatchSlot {
    token: CancelToken,
    done: AtomicBool,
}

/// Poll worker heartbeats until all workers finish; cancel any live
/// worker whose heartbeat has not advanced for `stall`. A worker that
/// never enters the kernel (wedged before its first strip) stalls from
/// the watchdog's first observation, so a pre-kernel hang is reaped on
/// the same clock as a mid-kernel one.
fn watchdog_loop(slots: &[Arc<WatchSlot>], stall: Duration, done: &AtomicBool, fires: &AtomicU64) {
    let poll = (stall / 4)
        .max(Duration::from_millis(1))
        .min(Duration::from_millis(25));
    let start = Instant::now();
    let mut seen: Vec<(u64, Instant)> =
        slots.iter().map(|s| (s.token.heartbeat(), start)).collect();
    while !done.load(Ordering::Acquire) {
        std::thread::sleep(poll);
        let now = Instant::now();
        for (slot, last) in slots.iter().zip(seen.iter_mut()) {
            if slot.done.load(Ordering::Acquire) || slot.token.is_cancelled() {
                continue;
            }
            let hb = slot.token.heartbeat();
            if hb != last.0 {
                *last = (hb, now);
            } else if now.duration_since(last.1) >= stall
                && slot.token.cancel(CancelReason::Watchdog)
            {
                fires.fetch_add(1, Ordering::Relaxed);
                swsimd_obs::event!(
                    "watchdog_fire",
                    "stalled_ms" => now.duration_since(last.1).as_millis() as u64
                );
            }
        }
    }
}

/// What one partition worker hands back: globally-indexed hits plus
/// the kernel and fault ledgers, or the typed error that stopped it.
pub(crate) type PartitionResult = Result<(Vec<Hit>, KernelStats, FaultStats), AlignError>;

/// One partition's search with isolation: fast path under
/// `catch_unwind` + result validation, then a single degraded retry on
/// the scalar reference engine. Returns globally-indexed hits. Shared
/// with [`crate::journal`], whose checkpointed/resumed chunks must go
/// through the exact same compute path to stay bit-identical.
#[allow(clippy::too_many_arguments)] // internal seam; callers are the pool and the journal only
pub(crate) fn search_partition<F>(
    query: &[u8],
    db: &Database,
    range: Range<usize>,
    part_idx: usize,
    plan: &FaultPlan,
    shadow: &ShadowVerifier,
    make_aligner: &F,
    govern: Option<&PartitionGovern<'_>>,
) -> PartitionResult
where
    F: Fn() -> AlignerBuilder + Sync,
{
    let expected = range.len();
    let token = govern.map(|g| g.token);
    let fast = catch_unwind(AssertUnwindSafe(|| {
        plan.before_partition(part_idx);
        search_sub(query, db, &range, make_aligner, token).map(|(mut hits, stats)| {
            plan.corrupt_hits(part_idx, &mut hits);
            plan.skew_hits(part_idx, &mut hits);
            (hits, stats)
        })
    }));

    let mut faults = FaultStats::default();
    let (mut hits, stats) = match fast {
        Ok(Ok((hits, stats))) if hits.len() == expected => (hits, stats),
        Ok(Err(AlignError::Cancelled {
            reason: CancelReason::Watchdog,
        })) => {
            // The watchdog reaped this worker mid-compute: file a
            // strike against the engine that wedged and recompute on
            // the scalar reference, governed only by the parent token
            // (this worker's own token is already dead).
            let engine = swsimd_core::trust::effective_engine(make_aligner().build().engine());
            if swsimd_core::trust::global().record_strike(engine) {
                faults.backend_demotions += 1;
            }
            faults.degraded_batches += 1;
            faults.retries += 1;
            swsimd_obs::event!(
                "partition_reaped",
                "partition" => part_idx,
                "engine" => "scalar"
            );
            search_sub(
                query,
                db,
                &range,
                || make_aligner().engine(EngineKind::Scalar),
                govern.and_then(|g| g.retry),
            )?
        }
        // Cooperative cancellation (deadline, shutdown, client drop,
        // memory): the whole search is being torn down — no retry.
        Ok(Err(e)) => return Err(e),
        outcome => {
            // The fast path panicked or returned a malformed result:
            // isolate it and recompute this partition on the scalar
            // reference engine (exact, engine-independent scores).
            if outcome.is_err() {
                faults.worker_panics += 1;
                // A kernel panic is a strike against the backend that
                // computed it; enough strikes open the trust breaker.
                let engine = swsimd_core::trust::effective_engine(make_aligner().build().engine());
                if swsimd_core::trust::global().record_strike(engine) {
                    faults.backend_demotions += 1;
                }
            }
            faults.degraded_batches += 1;
            faults.retries += 1;
            swsimd_obs::event!(
                "partition_degraded",
                "partition" => part_idx,
                "panicked" => outcome.is_err(),
                "engine" => "scalar"
            );
            search_sub(
                query,
                db,
                &range,
                || make_aligner().engine(EngineKind::Scalar),
                token,
            )?
        }
    };
    for h in &mut hits {
        h.db_index += range.start;
    }
    faults.record_shadow(&shadow.verify_hits(query, db, &mut hits, make_aligner));
    Ok((hits, stats, faults))
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
    let plan = &cfg.fault_plan;
    // One sampler across all partitions, so the configured rate holds
    // over the whole search rather than per partition.
    let shadow = ShadowVerifier::new(cfg.shadow);
    let mut sp = swsimd_obs::span!(
        "parallel_search",
        "threads" => threads,
        "db_seqs" => db.len()
    );

    let parts: Vec<Range<usize>> = if threads == 1 || db.len() <= 1 {
        std::iter::once(0..db.len()).collect()
    } else {
        db.partition(threads)
    };

    // Watchdog slots exist whenever the search is governed: a parent
    // token alone still wants per-worker children (so a cancelled
    // parent stops all workers), and a stall timeout alone still wants
    // per-worker heartbeats.
    let governed = cfg.cancel.is_some() || cfg.stall_timeout.is_some();
    let slots: Vec<Arc<WatchSlot>> = if governed {
        parts
            .iter()
            .map(|_| {
                Arc::new(WatchSlot {
                    token: match &cfg.cancel {
                        Some(parent) => parent.child(),
                        None => CancelToken::new(),
                    },
                    done: AtomicBool::new(false),
                })
            })
            .collect()
    } else {
        Vec::new()
    };
    let fires = AtomicU64::new(0);
    let workers_done = AtomicBool::new(false);

    let mut outputs: Vec<PartitionResult> = Vec::with_capacity(parts.len());
    // Helper threads work inside the caller's trace and recorder scope.
    let ctx = swsimd_obs::handoff();
    std::thread::scope(|scope| {
        if let Some(stall) = cfg.stall_timeout {
            let slots = &slots;
            let workers_done = &workers_done;
            let fires = &fires;
            scope.spawn(move || {
                let _ctx = ctx.enter();
                watchdog_loop(slots, stall, workers_done, fires)
            });
        }
        if parts.len() == 1 {
            let range = parts[0].clone();
            let g = slots.first().map(|s| PartitionGovern {
                token: &s.token,
                retry: cfg.cancel.as_ref(),
            });
            outputs.push(search_partition(
                query,
                db,
                range,
                0,
                plan,
                &shadow,
                &make_aligner,
                g.as_ref(),
            ));
            if let Some(s) = slots.first() {
                s.done.store(true, Ordering::Release);
            }
        } else {
            let mut handles = Vec::with_capacity(parts.len());
            for (part_idx, range) in parts.iter().enumerate() {
                let range = range.clone();
                let make_aligner = &make_aligner;
                let shadow = &shadow;
                let slot = slots.get(part_idx).cloned();
                let parent = cfg.cancel.as_ref();
                handles.push(scope.spawn(move || {
                    let _ctx = ctx.enter();
                    let g = slot.as_ref().map(|s| PartitionGovern {
                        token: &s.token,
                        retry: parent,
                    });
                    let out = search_partition(
                        query,
                        db,
                        range,
                        part_idx,
                        plan,
                        shadow,
                        make_aligner,
                        g.as_ref(),
                    );
                    if let Some(s) = &slot {
                        s.done.store(true, Ordering::Release);
                    }
                    out
                }));
            }
            for h in handles {
                match h.join() {
                    Ok(out) => outputs.push(out),
                    // Double fault (degraded retry panicked too):
                    // nothing left to degrade to — propagate.
                    Err(payload) => {
                        workers_done.store(true, Ordering::Release);
                        std::panic::resume_unwind(payload)
                    }
                }
            }
        }
        workers_done.store(true, Ordering::Release);
    });

    let mut hits = Vec::with_capacity(db.len());
    let mut stats = KernelStats::default();
    let mut faults = FaultStats {
        watchdog_fires: fires.load(Ordering::Relaxed),
        ..FaultStats::default()
    };
    for out in outputs {
        let (mut h, s, f) = out?;
        hits.append(&mut h);
        stats.merge(&s);
        faults.merge(&f);
    }
    hits.sort_by(|a, b| b.score.cmp(&a.score).then(a.db_index.cmp(&b.db_index)));
    sp.record("cells", stats.cells);
    sp.record("retries", faults.retries);
    Ok(SearchOutput {
        hits,
        stats,
        faults,
    })
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
