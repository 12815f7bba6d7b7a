//! The traced runs' view of the layers: the product's search path
//! re-issued one public call at a time inside spans, the counters kept
//! along the way, and the per-layer metrics computed from both.

use std::collections::BTreeMap;

use swsimd_core::adaptive::minimal_safe_precision;
use swsimd_core::batch::{batch_score, lanes_for, LaneScore};
use swsimd_core::{diag_score, EngineKind, GapModel, Hit, KernelStats, Precision, Scoring};
use swsimd_matrices::Alphabet;
use swsimd_seq::{BatchedDatabase, Database, SeqRecord};

use crate::stats::{mean, median, percentile};
use crate::trace::{attributed_share, self_time_by_name, Scope, Span};

/// The kernel configuration every workload uses: the default `Aligner`
/// (BLOSUM62, affine 11/1, adaptive precision, widest engine), with the
/// parameters its search path passes to the kernels.
pub struct Kernel {
    /// Dispatched engine.
    pub engine: EngineKind,
    /// Scoring scheme.
    pub scoring: Scoring,
    /// Gap model.
    pub gaps: GapModel,
    /// Short-segment scalar threshold (the aligner's default).
    pub threshold: usize,
}

impl Kernel {
    /// The benchmark aligner's configuration.
    pub fn new() -> Self {
        let a = crate::builder().build();
        Self {
            engine: a.engine(),
            scoring: a.scoring().clone(),
            gaps: a.gap_model(),
            threshold: lanes_for(a.engine()),
        }
    }

    /// 8-bit lanes of the batch layout this engine needs.
    pub fn lanes(&self) -> usize {
        lanes_for(self.engine)
    }
}

impl Default for Kernel {
    fn default() -> Self {
        Self::new()
    }
}

/// Work counted by one thread of a traced round; merged afterwards.
#[derive(Clone, Default)]
pub struct Counters {
    /// Batch (inter-sequence, 8-bit) kernel.
    pub batch: KernelStats,
    /// Promotion reruns of saturated lanes.
    pub promote: KernelStats,
    /// Pairwise diagonal kernel outside promotion (self-scores,
    /// traceback alignments).
    pub diag: KernelStats,
    /// Database sequences scored by the batch kernel.
    pub lanes_scored: u64,
    /// Of those, lanes that saturated and were rerun.
    pub lanes_saturated: u64,
    /// `BatchedDatabase::build` calls.
    pub layout_calls: u64,
    /// Residue slots in the layouts built.
    pub layout_slots: u64,
    /// Of those, padding.
    pub layout_padding: u64,
}

impl Counters {
    /// Fold another thread's counts into these.
    pub fn merge(&mut self, o: &Counters) {
        self.batch.merge(&o.batch);
        self.promote.merge(&o.promote);
        self.diag.merge(&o.diag);
        self.lanes_scored += o.lanes_scored;
        self.lanes_saturated += o.lanes_saturated;
        self.layout_calls += o.layout_calls;
        self.layout_slots += o.layout_slots;
        self.layout_padding += o.layout_padding;
    }

    /// Count the residue slots of a layout.
    pub fn note_layout(&mut self, b: &BatchedDatabase) {
        for batch in b.batches() {
            let slots = (batch.max_len() * batch.lanes()) as u64;
            let real: u64 = batch.lens().iter().map(|&l| u64::from(l)).sum();
            self.layout_slots += slots;
            self.layout_padding += slots - real;
        }
    }
}

/// `Database::from_records` in a `seq.encode` span.
pub fn encode(sc: Scope<'_>, records: Vec<SeqRecord>) -> Database {
    sc.span("seq.encode", |_| {
        Database::from_records(records, &Alphabet::protein())
    })
}

/// `BatchedDatabase::build` (length-sorted, as the product builds it)
/// in a `seq.layout` span.
pub fn layout(sc: Scope<'_>, k: &Kernel, db: &Database, c: &mut Counters) -> BatchedDatabase {
    let b = sc.span("seq.layout", |_| {
        BatchedDatabase::build(db, k.lanes(), true)
    });
    c.layout_calls += 1;
    c.note_layout(&b);
    b
}

/// The body of `Aligner::search_batched`, one public call at a time:
/// `batch_score` over every batch (`core.batch`), then each saturated
/// lane rerun with `diag_score` at the minimal safe precision, and at
/// 32 bits if that saturates too (`core.promote`). Returns one exact
/// hit per database sequence, unsorted.
pub fn search(
    sc: Scope<'_>,
    k: &Kernel,
    query: &[u8],
    db: &Database,
    batched: &BatchedDatabase,
    c: &mut Counters,
) -> Vec<Hit> {
    let mut lanes: Vec<LaneScore> = Vec::with_capacity(db.len());
    sc.span("core.batch", |_| {
        for b in batched.batches() {
            batch_score(
                k.engine,
                query,
                b,
                &k.scoring,
                k.gaps,
                &mut c.batch,
                &mut lanes,
            );
        }
    });
    c.lanes_scored += lanes.len() as u64;
    sc.span("core.promote", |_| {
        lanes
            .iter()
            .map(|ls| {
                let db_index = ls.db_index as usize;
                if !ls.saturated {
                    return Hit {
                        db_index,
                        score: ls.score,
                        precision: Precision::I8,
                    };
                }
                c.lanes_saturated += 1;
                c.promote.promotions += 1;
                let target = &db.encoded(db_index).idx;
                let prec = match minimal_safe_precision(query.len(), target.len(), &k.scoring) {
                    Precision::I8 => Precision::I16,
                    p => p,
                };
                let run = |p, stats: &mut KernelStats| {
                    diag_score(
                        k.engine,
                        p,
                        query,
                        target,
                        &k.scoring,
                        k.gaps,
                        k.threshold,
                        stats,
                    )
                };
                let r = run(prec, &mut c.promote);
                let (score, precision) = if r.saturated {
                    c.promote.promotions += 1;
                    (run(Precision::I32, &mut c.promote).score, Precision::I32)
                } else {
                    (r.score, prec)
                };
                Hit {
                    db_index,
                    score,
                    precision,
                }
            })
            .collect()
    })
}

/// Everything a traced run observed, beyond the spans themselves.
#[derive(Default)]
pub struct LayerLog {
    /// Kernel and layout counts of the traced rounds.
    pub counters: Counters,
    /// Traced rounds (for `serve`: queries walked through the layers).
    pub rounds: usize,
    /// Batch-server queue wait per query (`QueryOutcome::queue_ns`).
    pub server_queue_ms: Vec<f64>,
    /// Batch-server compute per query (`QueryOutcome::compute_ns`).
    pub server_compute_ms: Vec<f64>,
    /// `NetClient::ping` round trips.
    pub net_ping_ms: Vec<f64>,
    /// `NetClient::query` straight to a shard.
    pub net_shard_ms: Vec<f64>,
    /// Shard query minus the in-process server latency of the same
    /// query on the same slice.
    pub net_hop_ms: Vec<f64>,
    /// `Gateway::query`.
    pub net_gateway_ms: Vec<f64>,
    /// Gateway query minus its slowest direct shard query.
    pub net_fanout_ms: Vec<f64>,
    /// How late the paced load generator sent each request.
    pub gen_late_ms: Vec<f64>,
    /// Wall time of each traced round.
    pub traced_s: Vec<f64>,
    /// Wall time of each untraced round of the same work.
    pub untraced_s: Vec<f64>,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

impl LayerLog {
    /// Every per-layer metric (see `report::PER_LAYER`). Busy and self
    /// times are per round and summed over threads; rates divide cells
    /// by those thread-seconds.
    pub fn metrics(&self, spans: &[Span]) -> BTreeMap<&'static str, f64> {
        let by = self_time_by_name(spans);
        let secs = |name: &str| by.get(name).copied().unwrap_or(0.0);
        let rounds = self.rounds.max(1) as f64;
        let per_round = |name: &str| secs(name) / rounds;
        let wall = |name: &str| {
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(Span::secs)
                .sum::<f64>()
                / rounds
        };
        let c = &self.counters;

        // A pool is a span whose children are partitions.
        let mut parts: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.name == "runner.partition") {
            if let Some(p) = s.parent {
                parts.entry(p).or_default().push(s.secs());
            }
        }
        let pool_wall: Vec<f64> = parts.keys().map(|&p| spans[p as usize].secs()).collect();
        let imbalance: Vec<f64> = parts
            .values()
            .map(|d| ratio(d.iter().copied().fold(0.0, f64::max), mean(d)))
            .collect();
        let attributed: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == "bench.round")
            .map(|root| attributed_share(spans, root))
            .collect();

        BTreeMap::from([
            ("seq.encode_ms", per_round("seq.encode") * 1e3),
            ("seq.layout_ms", per_round("seq.layout") * 1e3),
            ("seq.layout_calls", c.layout_calls as f64 / rounds),
            (
                "seq.padding_fraction",
                ratio(c.layout_padding as f64, c.layout_slots as f64),
            ),
            ("core.batch.busy_s", per_round("core.batch")),
            ("core.batch.cells", c.batch.cells as f64 / rounds),
            (
                "core.batch.gcups",
                ratio(c.batch.cells as f64, secs("core.batch") * 1e9),
            ),
            ("core.batch.lane_utilization", c.batch.lane_utilization()),
            (
                "core.batch.lut_ops_per_cell",
                ratio(c.batch.lut_ops as f64, c.batch.cells as f64),
            ),
            ("core.promote.lanes", c.lanes_saturated as f64 / rounds),
            (
                "core.promote.rate",
                ratio(c.lanes_saturated as f64, c.lanes_scored as f64),
            ),
            ("core.promote.busy_s", per_round("core.promote")),
            ("core.promote.cells", c.promote.cells as f64 / rounds),
            ("core.diag.busy_s", per_round("core.diag")),
            (
                "core.diag.gcups",
                ratio(c.diag.cells as f64, secs("core.diag") * 1e9),
            ),
            ("core.diag.scalar_fraction", c.diag.scalar_fraction()),
            ("core.diag.padding_fraction", c.diag.padding_fraction()),
            (
                "core.diag.emulated_gathers_per_cell",
                ratio(c.diag.emulated_gathers as f64, c.diag.cells as f64),
            ),
            ("core.diag.promotions", c.diag.promotions as f64 / rounds),
            (
                "core.tb.bytes_per_cell",
                ratio(c.diag.traceback_cells as f64, c.diag.cells as f64),
            ),
            ("runner.pool.wall_ms", mean(&pool_wall) * 1e3),
            ("runner.pool.imbalance", mean(&imbalance)),
            ("runner.msa.scores_s", wall("runner.msa.scores")),
            ("runner.msa.upgma_s", wall("runner.msa.upgma")),
            ("runner.server.queue_p50_ms", median(&self.server_queue_ms)),
            (
                "runner.server.queue_p95_ms",
                percentile(&self.server_queue_ms, 0.95),
            ),
            (
                "runner.server.compute_p50_ms",
                median(&self.server_compute_ms),
            ),
            ("runner.rank_ms", per_round("runner.rank") * 1e3),
            ("net.ping_ms", median(&self.net_ping_ms)),
            ("net.shard_ms", median(&self.net_shard_ms)),
            ("net.hop_ms", median(&self.net_hop_ms)),
            ("net.gateway_ms", median(&self.net_gateway_ms)),
            ("net.fanout_ms", median(&self.net_fanout_ms)),
            ("bench.gen_late_p95_ms", percentile(&self.gen_late_ms, 0.95)),
            (
                "bench.trace_overhead",
                ratio(median(&self.traced_s), median(&self.untraced_s)),
            ),
            ("bench.attributed", median(&attributed)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::PER_LAYER;
    use crate::trace::Tracer;
    use swsimd_core::Aligner;
    use swsimd_seq::{generate, SynthConfig};

    #[test]
    fn decomposed_search_matches_the_product_search() {
        let k = Kernel::new();
        let records = generate(&SynthConfig {
            n_seqs: 150,
            max_len: 300,
            ..Default::default()
        });
        let query = records[3].seq.clone();
        let tracer = Tracer::default();
        let sc = Scope::root(&tracer, 0);
        let mut c = Counters::default();
        let db = encode(sc, records);
        let batched = layout(sc, &k, &db, &mut c);
        let enc = Alphabet::protein().encode(&query);
        let mine = search(sc, &k, &enc, &db, &batched, &mut c);
        let theirs = Aligner::builder()
            .build()
            .search_batched(&enc, &db, &batched);
        assert_eq!(mine, theirs);
        // The query is in the database, so at least its own lane saturates.
        assert!(c.lanes_saturated >= 1);
        assert_eq!(c.lanes_scored, 150);

        let log = LayerLog {
            counters: c,
            rounds: 1,
            ..Default::default()
        };
        let m = log.metrics(&tracer.spans());
        for (name, _) in PER_LAYER {
            assert!(m.contains_key(name), "{name} not computed");
        }
        assert_eq!(m.len(), PER_LAYER.len());
        assert!(m["core.batch.cells"] > 0.0);
        assert!(m["core.promote.rate"] > 0.0);
        assert_eq!(m["seq.layout_calls"], 1.0);
    }
}
