//! The paper's three Smith-Waterman usage scenarios (§II-C, §IV-G).
//!
//! * **Scenario 1** — single query vs. a streamed database (the query
//!   stays cache-resident, the database has little reuse);
//! * **Scenario 2** — a batch of queries vs. the database (many-to-many
//!   with substantial reuse; the centralized-server deployment);
//! * **Scenario 3** — SW as a subroutine: small queries vs. a small
//!   database whose working set fits in upper-level cache.

use std::time::Instant;

use swsimd_core::{Aligner, AlignerBuilder, Hit};
use swsimd_obs::{Histogram, HistogramSnapshot};
use swsimd_seq::Database;

use crate::fault::FaultStats;
use crate::metrics::{self, CellTimer, Throughput};
use crate::pool::{parallel_search, PoolConfig};

/// Report from one scenario run.
pub struct ScenarioReport {
    /// Which scenario ran (1, 2 or 3).
    pub scenario: u8,
    /// Throughput over all alignments performed.
    pub throughput: Throughput,
    /// Best hit per query (database index and score), query-major.
    pub best_hits: Vec<Hit>,
    /// Total alignments performed.
    pub alignments: usize,
    /// Degradation events observed (worker panics isolated, scalar
    /// retries). Non-zero only for scenarios running on the pool.
    pub faults: FaultStats,
    /// Per-query latency distribution for this run (nanosecond
    /// values; one sample per query). The same samples are also
    /// recorded into the process-global `swsimd_query_latency_seconds`
    /// histogram under this scenario's label, where the serving layer
    /// exposes them.
    pub latency: HistogramSnapshot,
}

/// Record one query's wall-clock latency into both the run-local
/// histogram (for the report) and the process-global scenario series
/// (for exposition).
fn record_latency(local: &Histogram, global: &Histogram, started: Instant) {
    let ns = started.elapsed().as_nanos() as u64;
    local.record(ns);
    global.record(ns);
}

fn total_cells(queries: &[Vec<u8>], db: &Database) -> u64 {
    let q: u64 = queries.iter().map(|q| q.len() as u64).sum();
    q * db.total_residues() as u64
}

/// Scenario 1: one query against the whole database.
pub fn scenario1<F>(query: &[u8], db: &Database, threads: usize, make_aligner: F) -> ScenarioReport
where
    F: Fn() -> AlignerBuilder + Sync,
{
    let mut sp = swsimd_obs::span!(
        "scenario",
        "id" => 1u64,
        "queries" => 1u64,
        "db_seqs" => db.len()
    );
    let local = Histogram::new();
    let started = Instant::now();
    let timer = CellTimer::start(query.len() as u64 * db.total_residues() as u64);
    let out = parallel_search(
        query,
        db,
        &PoolConfig {
            threads,
            ..PoolConfig::default()
        },
        make_aligner,
    );
    let throughput = timer.stop();
    record_latency(&local, &metrics::query_latency("1"), started);
    metrics::record_gcups(&metrics::scenario_gcups("1"), &throughput);
    sp.record("gcups", throughput.gcups());
    let best = out.hits.into_iter().next();
    ScenarioReport {
        scenario: 1,
        throughput,
        best_hits: best.into_iter().collect(),
        alignments: db.len(),
        faults: out.faults,
        latency: local.snapshot(),
    }
}

/// Scenario 2: a batch of queries against the database.
///
/// Queries are distributed across threads (query-major), so every
/// thread streams the database once per assigned query — the
/// accumulate-then-compute server pattern the paper found ~2× better
/// than per-query processing.
pub fn scenario2<F>(
    queries: &[Vec<u8>],
    db: &Database,
    threads: usize,
    make_aligner: F,
) -> ScenarioReport
where
    F: Fn() -> AlignerBuilder + Sync,
{
    let threads = threads.max(1);
    let mut sp = swsimd_obs::span!(
        "scenario",
        "id" => 2u64,
        "queries" => queries.len(),
        "db_seqs" => db.len()
    );
    let local = Histogram::new();
    let global = metrics::query_latency("2");
    let timer = CellTimer::start(total_cells(queries, db));
    let mut best_hits: Vec<Option<Hit>> = vec![None; queries.len()];

    let lanes_db: std::sync::OnceLock<swsimd_seq::BatchedDatabase> = std::sync::OnceLock::new();
    std::thread::scope(|scope| {
        let chunk = queries.len().div_ceil(threads).max(1);
        for (qchunk, bchunk) in queries.chunks(chunk).zip(best_hits.chunks_mut(chunk)) {
            let make_aligner = &make_aligner;
            let lanes_db = &lanes_db;
            let (local, global) = (&local, &global);
            scope.spawn(move || {
                let mut aligner = make_aligner().build();
                // The batched database is built once and shared: the
                // Scenario-2 reuse the paper highlights.
                let batched = lanes_db.get_or_init(|| {
                    swsimd_seq::BatchedDatabase::build(
                        db,
                        swsimd_core::batch::lanes_for(aligner.engine()),
                        true,
                    )
                });
                for (q, slot) in qchunk.iter().zip(bchunk.iter_mut()) {
                    let started = Instant::now();
                    let mut hits = aligner.search_batched(q, db, batched);
                    hits.sort_by(|a, b| b.score.cmp(&a.score).then(a.db_index.cmp(&b.db_index)));
                    *slot = hits.into_iter().next();
                    record_latency(local, global, started);
                }
            });
        }
    });

    let throughput = timer.stop();
    metrics::record_gcups(&metrics::scenario_gcups("2"), &throughput);
    sp.record("gcups", throughput.gcups());
    ScenarioReport {
        scenario: 2,
        throughput,
        best_hits: best_hits.into_iter().flatten().collect(),
        alignments: queries.len() * db.len(),
        faults: FaultStats::default(),
        latency: local.snapshot(),
    }
}

/// Scenario 3: small sets of queries and references, single-threaded —
/// the SSW-style subroutine case where the working set is cache-hot.
pub fn scenario3(
    queries: &[Vec<u8>],
    db: &Database,
    make_aligner: impl Fn() -> AlignerBuilder,
) -> ScenarioReport {
    let mut sp = swsimd_obs::span!(
        "scenario",
        "id" => 3u64,
        "queries" => queries.len(),
        "db_seqs" => db.len()
    );
    let local = Histogram::new();
    let global = metrics::query_latency("3");
    let timer = CellTimer::start(total_cells(queries, db));
    let mut aligner: Aligner = make_aligner().build();
    let mut best_hits = Vec::with_capacity(queries.len());
    for q in queries {
        let started = Instant::now();
        let hits = aligner.search(q, db, 1);
        best_hits.extend(hits.into_iter().next());
        record_latency(&local, &global, started);
    }
    let throughput = timer.stop();
    metrics::record_gcups(&metrics::scenario_gcups("3"), &throughput);
    sp.record("gcups", throughput.gcups());
    ScenarioReport {
        scenario: 3,
        throughput,
        best_hits,
        alignments: queries.len() * db.len(),
        faults: FaultStats::default(),
        latency: local.snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swsimd_matrices::{blosum62, Alphabet};
    use swsimd_seq::{generate_database, generate_exact, SynthConfig};

    fn tiny_db(n: usize) -> Database {
        generate_database(&SynthConfig {
            n_seqs: n,
            max_len: 120,
            median_len: 60.0,
            ..Default::default()
        })
    }

    fn enc(len: usize, seed: u64) -> Vec<u8> {
        Alphabet::protein().encode(&generate_exact(len, seed).seq)
    }

    fn builder() -> AlignerBuilder {
        Aligner::builder().matrix(blosum62())
    }

    #[test]
    fn scenario1_runs_and_counts() {
        let db = tiny_db(24);
        let q = enc(40, 1);
        let r = scenario1(&q, &db, 2, builder);
        assert_eq!(r.scenario, 1);
        assert_eq!(r.alignments, 24);
        assert_eq!(r.best_hits.len(), 1);
        assert!(r.throughput.gcups() > 0.0);
        assert!(!r.faults.any(), "clean run records no degradation");
        assert_eq!(r.latency.count, 1, "one end-to-end sample per query");
        assert!(r.latency.max >= r.latency.min);
    }

    #[test]
    fn scenario2_all_queries_answered() {
        let db = tiny_db(20);
        let queries: Vec<Vec<u8>> = (0..7).map(|i| enc(30, i)).collect();
        let r = scenario2(&queries, &db, 3, builder);
        assert_eq!(r.best_hits.len(), 7);
        assert_eq!(r.alignments, 7 * 20);
        assert_eq!(r.latency.count, 7, "one latency sample per query");
        assert!(r.latency.p99 >= r.latency.p50);
    }

    #[test]
    fn scenario2_matches_scenario1_scores() {
        let db = tiny_db(16);
        let q = enc(25, 9);
        let s1 = scenario1(&q, &db, 1, builder);
        let s2 = scenario2(std::slice::from_ref(&q), &db, 2, builder);
        assert_eq!(s1.best_hits[0].score, s2.best_hits[0].score);
        assert_eq!(s1.best_hits[0].db_index, s2.best_hits[0].db_index);
    }

    #[test]
    fn scenario3_small_sets() {
        let db = tiny_db(8);
        let queries: Vec<Vec<u8>> = (0..4).map(|i| enc(20, 100 + i)).collect();
        let r = scenario3(&queries, &db, builder);
        assert_eq!(r.scenario, 3);
        assert_eq!(r.best_hits.len(), 4);
    }
}
