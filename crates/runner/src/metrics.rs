//! Throughput metrics — GCUPS (billions of cell updates per second),
//! the unit every figure in the paper reports — plus the
//! process-global latency/GCUPS histogram families the scenarios and
//! the batch server record into (scraped via
//! [`swsimd_obs::Registry::prometheus_text`]).

use std::sync::Arc;
use std::time::{Duration, Instant};

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
}
