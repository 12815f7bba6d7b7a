//! The four workloads. Each runs its seeded inputs for the run's time,
//! checks the answers, and fills an [`Outcome`] with the end-to-end
//! metrics (untraced run) or the per-layer metrics (traced run).

pub mod align;
pub mod msa;
pub mod scan;
pub mod serve;

use crate::report::Outcome;
use crate::stats::{mean, median, percentile};
use crate::Run;

/// Run workload `name`; `None` for an unknown name.
pub fn run(name: &str, r: &Run) -> Option<Outcome> {
    Some(match name {
        "scan" => scan::run(r),
        "msa" => msa::run(r),
        "serve" => serve::run(r),
        "align" => align::run(r),
        _ => return None,
    })
}

/// Fill the end-to-end metrics shared by every workload: the median
/// set-up, the throughput over all rounds (`(cells, seconds)` each), and
/// the mean and tail of the operation latencies.
///
/// Throughput and latency are means, not medians over rounds or
/// operations: on a host whose speed flips between two levels the
/// median flips with it, while a mean moves smoothly with the share of
/// slow time. The `scan` queries are also ten fixed lengths, so their
/// median would sit on the edge between two queries' samples.
fn end_to_end(out: &mut Outcome, setup_s: Vec<f64>, rounds: &[(u64, f64)], latency_ms: Vec<f64>) {
    let cells: u64 = rounds.iter().map(|r| r.0).sum();
    let secs: f64 = rounds.iter().map(|r| r.1).sum();
    out.metrics.insert("setup_s", median(&setup_s));
    out.metrics.insert("gcups", cells as f64 / secs / 1e9);
    out.metrics.insert("latency_mean_ms", mean(&latency_ms));
    out.metrics
        .insert("latency_p95_ms", percentile(&latency_ms, 0.95));
    out.fact("latency_samples", latency_ms.len());
    out.series.insert("setup_s", setup_s);
    out.series.insert(
        "gcups",
        rounds.iter().map(|&(c, s)| c as f64 / s / 1e9).collect(),
    );
    out.series.insert("latency_ms", latency_ms);
}
