//! Throughput metrics — GCUPS (billions of cell updates per second),
//! the unit every figure in the paper reports — plus the shared
//! health counters the serving layer exposes ([`ServeCounters`]) and
//! the process-global latency/GCUPS histogram families the scenarios
//! and the batch server record into (scraped via
//! [`swsimd_obs::Registry::prometheus_text`]).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::fault::FaultStats;

/// A completed measurement.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Throughput {
    /// DP cells computed.
    pub cells: u64,
    /// Wall-clock seconds.
    pub seconds: f64,
}

impl Throughput {
    /// Giga cell updates per second.
    pub fn gcups(&self) -> f64 {
        if self.seconds <= 0.0 {
            0.0
        } else {
            self.cells as f64 / self.seconds / 1e9
        }
    }

    /// Mega cell updates per second.
    pub fn mcups(&self) -> f64 {
        self.gcups() * 1e3
    }
}

/// Stopwatch helper around a cell count.
pub struct CellTimer {
    start: Instant,
    cells: u64,
}

impl CellTimer {
    /// Start timing a region that will compute `cells` DP cells.
    pub fn start(cells: u64) -> Self {
        Self {
            start: Instant::now(),
            cells,
        }
    }

    /// Add late-discovered cells (e.g. adaptive reruns).
    pub fn add_cells(&mut self, cells: u64) {
        self.cells += cells;
    }

    /// Stop and report.
    pub fn stop(self) -> Throughput {
        Throughput {
            cells: self.cells,
            seconds: self.start.elapsed().as_secs_f64(),
        }
    }

    /// Elapsed so far.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

/// Name of the end-to-end query latency histogram family.
pub const QUERY_LATENCY_METRIC: &str = "swsimd_query_latency_seconds";

/// Name of the per-run throughput histogram family.
pub const GCUPS_METRIC: &str = "swsimd_gcups";

/// Handle to the global end-to-end query latency histogram for one
/// scenario label (`"1"`, `"2"`, `"3"`, or `"server"`). Values are
/// recorded in nanoseconds and exposed in seconds.
pub fn query_latency(scenario: &'static str) -> Arc<swsimd_obs::Histogram> {
    swsimd_obs::global().histogram_scaled(
        QUERY_LATENCY_METRIC,
        "End-to-end query latency (enqueue to reply), by scenario.",
        1e-9,
        &[("scenario", scenario)],
    )
}

/// Handle to the global throughput histogram for one scenario label.
/// Values are recorded in milli-GCUPS and exposed in GCUPS.
pub fn scenario_gcups(scenario: &'static str) -> Arc<swsimd_obs::Histogram> {
    swsimd_obs::global().histogram_scaled(
        GCUPS_METRIC,
        "Per-run alignment throughput in GCUPS, by scenario.",
        1e-3,
        &[("scenario", scenario)],
    )
}

/// Record a [`Throughput`] into a scenario GCUPS histogram (milli-GCUPS
/// resolution; sub-micro-GCUPS runs round to zero).
pub fn record_gcups(hist: &swsimd_obs::Histogram, t: &Throughput) {
    hist.record((t.gcups() * 1e3) as u64);
}

/// Live, lock-free health counters for a running server.
///
/// Shared (`Arc`) between the server worker, every
/// [`crate::ServerClient`] clone, and the [`crate::BatchServer`]
/// handle, so load shedding and timeouts observed client-side land in
/// the same ledger as worker-side batching and degradation events.
/// Snapshot into the plain-value [`Snapshot`] for reporting.
#[derive(Debug, Default)]
pub struct ServeCounters {
    /// Batches processed.
    pub batches: AtomicU64,
    /// Queries served (a reply was computed).
    pub queries: AtomicU64,
    /// Batches that filled to `batch_size` before the wait expired.
    pub full_batches: AtomicU64,
    /// Queries that hit their deadline before a result arrived.
    pub timeouts: AtomicU64,
    /// Queries shed because a tenant lane or the job queue was full.
    pub shed: AtomicU64,
    /// Queries refused at admission by a tenant's token bucket.
    pub rate_limited: AtomicU64,
    /// Worker panics isolated by the serving layer.
    pub worker_panics: AtomicU64,
    /// Fast-path results discarded (panic or failed validation).
    pub degraded_batches: AtomicU64,
    /// Degraded retries run on the scalar reference engine.
    pub retries: AtomicU64,
    /// Searches resumed from a journal instead of recomputed from
    /// scratch.
    pub journal_replays: AtomicU64,
    /// Malformed ingest records quarantined (skip-record policy).
    pub records_quarantined: AtomicU64,
    /// Database images rejected for failed integrity checks.
    pub corrupt_images: AtomicU64,
    /// Served hits recomputed on the scalar reference by shadow
    /// verification.
    pub shadow_checks: AtomicU64,
    /// Shadow-verified hits whose served score disagreed with the
    /// reference.
    pub shadow_mismatches: AtomicU64,
    /// Circuit-breaker openings: a backend crossed its strike
    /// threshold and was demoted.
    pub backend_demotions: AtomicU64,
    /// Backends that failed the boot self-test battery and were marked
    /// unavailable before serving.
    pub selftest_failures: AtomicU64,
    /// Queries rejected at admission because their estimated cost
    /// exceeded the configured ceiling.
    pub cost_rejected: AtomicU64,
    /// Queries rejected (or degraded) because a DP/traceback allocation
    /// exceeded the per-query memory budget.
    pub budget_rejected: AtomicU64,
    /// Wedged workers reaped by the stall watchdog.
    pub watchdog_fires: AtomicU64,
    /// Work cancelled because its deadline expired mid-compute.
    pub cancelled_deadline: AtomicU64,
    /// Work cancelled because the requesting client went away.
    pub cancelled_client_drop: AtomicU64,
    /// Work cancelled by server shutdown.
    pub cancelled_shutdown: AtomicU64,
    /// Work cancelled by the stall watchdog.
    pub cancelled_watchdog: AtomicU64,
    /// Work cancelled by memory-budget enforcement.
    pub cancelled_memory: AtomicU64,
}

/// Point-in-time plain-value copy of [`ServeCounters`] — one
/// consistent struct instead of callers reading atomics
/// field-by-field. `Display` renders the single-line `key=value` form
/// used by server stats reporting and the periodic health line.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Batches processed.
    pub batches: u64,
    /// Queries served (a reply was computed).
    pub queries: u64,
    /// Batches that were full (vs. flushed by timeout/shutdown).
    pub full_batches: u64,
    /// Queries that hit their deadline before a result arrived.
    pub timeouts: u64,
    /// Queries shed because the job queue was full.
    pub shed: u64,
    /// Queries refused at admission by a tenant's token bucket.
    pub rate_limited: u64,
    /// Worker panics isolated on the request path.
    pub worker_panics: u64,
    /// Fast-path results discarded (panic or failed validation).
    pub degraded_batches: u64,
    /// Degraded retries run on the scalar reference engine.
    pub retries: u64,
    /// Searches resumed from a journal.
    pub journal_replays: u64,
    /// Malformed ingest records quarantined.
    pub records_quarantined: u64,
    /// Database images rejected for failed integrity checks.
    pub corrupt_images: u64,
    /// Served hits recomputed on the scalar reference by shadow
    /// verification.
    pub shadow_checks: u64,
    /// Shadow-verified hits whose served score disagreed with the
    /// reference.
    pub shadow_mismatches: u64,
    /// Circuit-breaker openings (backend demotions).
    pub backend_demotions: u64,
    /// Backends that failed the boot self-test battery.
    pub selftest_failures: u64,
    /// Queries rejected at admission for excessive estimated cost.
    pub cost_rejected: u64,
    /// Queries rejected/degraded by the per-query memory budget.
    pub budget_rejected: u64,
    /// Wedged workers reaped by the stall watchdog.
    pub watchdog_fires: u64,
    /// Work cancelled: deadline expired mid-compute.
    pub cancelled_deadline: u64,
    /// Work cancelled: requesting client went away.
    pub cancelled_client_drop: u64,
    /// Work cancelled: server shutdown.
    pub cancelled_shutdown: u64,
    /// Work cancelled: stall watchdog.
    pub cancelled_watchdog: u64,
    /// Work cancelled: memory-budget enforcement.
    pub cancelled_memory: u64,
}

impl ServeCounters {
    /// Point-in-time snapshot as plain values.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            batches: self.batches.load(Relaxed),
            queries: self.queries.load(Relaxed),
            full_batches: self.full_batches.load(Relaxed),
            timeouts: self.timeouts.load(Relaxed),
            shed: self.shed.load(Relaxed),
            rate_limited: self.rate_limited.load(Relaxed),
            worker_panics: self.worker_panics.load(Relaxed),
            degraded_batches: self.degraded_batches.load(Relaxed),
            retries: self.retries.load(Relaxed),
            journal_replays: self.journal_replays.load(Relaxed),
            records_quarantined: self.records_quarantined.load(Relaxed),
            corrupt_images: self.corrupt_images.load(Relaxed),
            shadow_checks: self.shadow_checks.load(Relaxed),
            shadow_mismatches: self.shadow_mismatches.load(Relaxed),
            backend_demotions: self.backend_demotions.load(Relaxed),
            selftest_failures: self.selftest_failures.load(Relaxed),
            cost_rejected: self.cost_rejected.load(Relaxed),
            budget_rejected: self.budget_rejected.load(Relaxed),
            watchdog_fires: self.watchdog_fires.load(Relaxed),
            cancelled_deadline: self.cancelled_deadline.load(Relaxed),
            cancelled_client_drop: self.cancelled_client_drop.load(Relaxed),
            cancelled_shutdown: self.cancelled_shutdown.load(Relaxed),
            cancelled_watchdog: self.cancelled_watchdog.load(Relaxed),
            cancelled_memory: self.cancelled_memory.load(Relaxed),
        }
    }

    /// Fold a worker's per-search [`FaultStats`] into the ledger. A
    /// watchdog fire is by definition a watchdog cancellation, so it
    /// lands in both `watchdog_fires` and `cancelled_watchdog`.
    pub fn record_faults(&self, f: &FaultStats) {
        self.worker_panics.fetch_add(f.worker_panics, Relaxed);
        self.degraded_batches.fetch_add(f.degraded_batches, Relaxed);
        self.retries.fetch_add(f.retries, Relaxed);
        self.shadow_checks.fetch_add(f.shadow_checks, Relaxed);
        self.shadow_mismatches
            .fetch_add(f.shadow_mismatches, Relaxed);
        self.backend_demotions
            .fetch_add(f.backend_demotions, Relaxed);
        self.watchdog_fires.fetch_add(f.watchdog_fires, Relaxed);
        self.cancelled_watchdog.fetch_add(f.watchdog_fires, Relaxed);
    }

    /// Bump the cancellation counter for one [`CancelReason`].
    pub fn record_cancel(&self, reason: swsimd_core::CancelReason) {
        use swsimd_core::CancelReason as R;
        let counter = match reason {
            R::Deadline => &self.cancelled_deadline,
            R::ClientDrop => &self.cancelled_client_drop,
            R::Shutdown => &self.cancelled_shutdown,
            R::Watchdog => &self.cancelled_watchdog,
            R::Memory => &self.cancelled_memory,
        };
        counter.fetch_add(1, Relaxed);
    }

    /// Bump one counter by one (convenience for call sites).
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Relaxed);
    }
}

impl fmt::Display for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "batches={} queries={} full_batches={} timeouts={} shed={} \
             rate_limited={} worker_panics={} degraded_batches={} retries={} \
             journal_replays={} records_quarantined={} corrupt_images={} \
             shadow_checks={} shadow_mismatches={} backend_demotions={} \
             selftest_failures={} cost_rejected={} budget_rejected={} \
             watchdog_fires={} cancelled_deadline={} \
             cancelled_client_drop={} cancelled_shutdown={} \
             cancelled_watchdog={} cancelled_memory={}",
            self.batches,
            self.queries,
            self.full_batches,
            self.timeouts,
            self.shed,
            self.rate_limited,
            self.worker_panics,
            self.degraded_batches,
            self.retries,
            self.journal_replays,
            self.records_quarantined,
            self.corrupt_images,
            self.shadow_checks,
            self.shadow_mismatches,
            self.backend_demotions,
            self.selftest_failures,
            self.cost_rejected,
            self.budget_rejected,
            self.watchdog_fires,
            self.cancelled_deadline,
            self.cancelled_client_drop,
            self.cancelled_shutdown,
            self.cancelled_watchdog,
            self.cancelled_memory,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcups_math() {
        let t = Throughput {
            cells: 2_000_000_000,
            seconds: 2.0,
        };
        assert!((t.gcups() - 1.0).abs() < 1e-12);
        assert!((t.mcups() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn zero_seconds_is_zero() {
        let t = Throughput {
            cells: 10,
            seconds: 0.0,
        };
        assert_eq!(t.gcups(), 0.0);
    }

    #[test]
    fn timer_accumulates() {
        let mut t = CellTimer::start(100);
        t.add_cells(50);
        let out = t.stop();
        assert_eq!(out.cells, 150);
        assert!(out.seconds >= 0.0);
    }

    #[test]
    fn counters_snapshot_and_fold() {
        let c = ServeCounters::default();
        ServeCounters::bump(&c.shed);
        ServeCounters::bump(&c.queries);
        c.record_faults(&FaultStats {
            worker_panics: 1,
            degraded_batches: 2,
            retries: 3,
            shadow_checks: 10,
            shadow_mismatches: 4,
            backend_demotions: 1,
            watchdog_fires: 2,
        });
        let s = c.snapshot();
        assert_eq!(s.shed, 1);
        assert_eq!(s.queries, 1);
        assert_eq!(s.worker_panics, 1);
        assert_eq!(s.degraded_batches, 2);
        assert_eq!(s.retries, 3);
        assert_eq!(s.shadow_checks, 10);
        assert_eq!(s.shadow_mismatches, 4);
        assert_eq!(s.backend_demotions, 1);
        assert_eq!(s.watchdog_fires, 2);
        assert_eq!(s.cancelled_watchdog, 2, "fires count as cancellations");
        let line = s.to_string();
        assert!(line.contains("shed=1"));
        assert!(line.contains("rate_limited=0"));
        assert!(line.contains("retries=3"));
        assert!(line.contains("shadow_mismatches=4"));
        assert!(line.contains("backend_demotions=1"));
        assert!(line.contains("selftest_failures=0"));
        assert!(line.contains("watchdog_fires=2"));
        assert!(line.contains("cancelled_watchdog=2"));
        assert!(line.contains("cost_rejected=0"));
    }

    #[test]
    fn cancel_reasons_land_in_their_own_counters() {
        use swsimd_core::CancelReason;
        let c = ServeCounters::default();
        for reason in CancelReason::ALL {
            c.record_cancel(reason);
        }
        c.record_cancel(CancelReason::Deadline);
        let s = c.snapshot();
        assert_eq!(s.cancelled_deadline, 2);
        assert_eq!(s.cancelled_client_drop, 1);
        assert_eq!(s.cancelled_shutdown, 1);
        assert_eq!(s.cancelled_watchdog, 1);
        assert_eq!(s.cancelled_memory, 1);
    }
}
