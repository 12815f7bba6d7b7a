//! Metric names, the outcome of one workload run, and its JSON forms.

use std::collections::BTreeMap;

use serde_json::{json, Map, Value};

use crate::stats::quartiles;
use crate::trace::Span;

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
/// The names and units match `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("gcups", "GCUPS"),
    ("latency_mean_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("rss_peak_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`).
/// Layers are named after the crates; see the README for definitions.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("seq.encode_ms", "ms"),
    ("seq.layout_ms", "ms"),
    ("seq.layout_calls", "count"),
    ("seq.padding_fraction", "fraction"),
    ("core.batch.busy_s", "s"),
    ("core.batch.cells", "count"),
    ("core.batch.gcups", "GCUPS"),
    ("core.batch.lane_utilization", "fraction"),
    ("core.batch.lut_ops_per_cell", "ratio"),
    ("core.promote.lanes", "count"),
    ("core.promote.rate", "fraction"),
    ("core.promote.busy_s", "s"),
    ("core.promote.cells", "count"),
    ("core.diag.busy_s", "s"),
    ("core.diag.gcups", "GCUPS"),
    ("core.diag.scalar_fraction", "fraction"),
    ("core.diag.padding_fraction", "fraction"),
    ("core.diag.emulated_gathers_per_cell", "ratio"),
    ("core.diag.promotions", "count"),
    ("core.tb.bytes_per_cell", "B/cell"),
    ("runner.pool.wall_ms", "ms"),
    ("runner.pool.imbalance", "ratio"),
    ("runner.msa.scores_s", "s"),
    ("runner.msa.upgma_s", "s"),
    ("runner.server.queue_p50_ms", "ms"),
    ("runner.server.queue_p95_ms", "ms"),
    ("runner.server.compute_p50_ms", "ms"),
    ("runner.rank_ms", "ms"),
    ("net.ping_ms", "ms"),
    ("net.shard_ms", "ms"),
    ("net.hop_ms", "ms"),
    ("net.gateway_ms", "ms"),
    ("net.fanout_ms", "ms"),
    ("bench.gen_late_p95_ms", "ms"),
    ("bench.trace_overhead", "ratio"),
    ("bench.attributed", "fraction"),
];

/// Everything one workload run measured.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (queries, trees, pairs, requests) plus
    /// sampled oracle checks.
    pub attempted: u64,
    /// Errors, degraded replies and oracle mismatches.
    pub failed: u64,
    /// Metric values by name (end-to-end or per-layer).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Per-round (or per-sample) values behind the metrics, for the
    /// result file.
    pub series: BTreeMap<&'static str, Vec<f64>>,
    /// Other facts worth keeping (sample counts, qps, error rate).
    pub facts: Map<String, Value>,
    /// Spans of a traced run.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Count `n` attempts of which `bad` failed.
    pub fn tally(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// Record a fact for the result file.
    pub fn fact(&mut self, key: &str, v: impl Into<Value>) {
        self.facts.insert(key.to_string(), v.into());
    }

    /// True when every operation succeeded and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The one-line result the benchmark prints last:
    /// `{"correct", "attempted", "failed", "metrics"}`, with exactly the
    /// metrics of `names`.
    pub fn result_line(&self, names: &[(&str, &str)]) -> Value {
        let mut metrics = Map::new();
        for &(name, unit) in names {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            metrics.insert(
                name.to_string(),
                json!({"value": finite(value), "unit": unit}),
            );
        }
        json!({
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Value::Object(metrics),
        })
    }

    /// The full record written to `--out`: the result line plus each
    /// series with its median and quartiles, and the run's facts.
    pub fn record(&self, names: &[(&str, &str)]) -> Value {
        let mut series = Map::new();
        for (name, values) in &self.series {
            let [q1, q2, q3] = quartiles(values);
            series.insert(
                name.to_string(),
                json!({"n": values.len(), "q1": q1, "median": q2, "q3": q3, "values": values.clone()}),
            );
        }
        json!({
            "result": self.result_line(names),
            "series": Value::Object(series),
            "facts": Value::Object(self.facts.clone()),
        })
    }
}

/// JSON has no NaN or infinity; a metric that could not be computed
/// reads as 0 (and an empty sum's -0 as 0).
pub fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v + 0.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::default();
        o.tally(10, 0);
        o.metrics.insert("gcups", 12.5);
        o.metrics.insert("not_declared", 1.0);
        let line = o.result_line(END_TO_END).to_string();
        assert!(line.starts_with("{\"attempted\":10,\"correct\":true,\"failed\":0,\"metrics\":{"));
        assert!(line.contains("\"gcups\":{\"unit\":\"GCUPS\",\"value\":12.5}"));
        assert!(line.contains("\"setup_s\":{\"unit\":\"s\",\"value\":0"));
        assert!(!line.contains("not_declared"));
        o.tally(1, 1);
        assert!(!o.correct());
    }

    /// The metric tables here and `BENCHMARK.json` name the same
    /// metrics with the same units.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let names = text.matches("\"name\":").count();
        assert_eq!(names, 4 + END_TO_END.len() + PER_LAYER.len());
    }
}
