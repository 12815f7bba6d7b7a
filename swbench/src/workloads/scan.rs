//! `scan`: the paper's Scenario 1 — each standard query searched
//! against a Swiss-Prot-like database with `runner::parallel_search`.
//!
//! Random targets almost never saturate 8-bit lanes, so the batch
//! kernel does nearly all the work; the server and network layers are
//! not involved.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use swsimd_core::Hit;
use swsimd_matrices::Alphabet;
use swsimd_runner::{parallel_search, rank_hits, PoolConfig};
use swsimd_seq::Database;

use crate::inputs::{self, sub_seed};
use crate::layers::{self, Counters, Kernel, LayerLog};
use crate::report::Outcome;
use crate::trace::{Scope, Tracer};
use crate::{builder, cells, ms, repeat_setup, scalar_mismatches, Run, THREADS};

/// Run the workload.
pub fn run(r: &Run) -> Outcome {
    let k = Kernel::new();
    let input = inputs::scan(r.seed, &r.sizes);
    let cfg = PoolConfig {
        threads: THREADS,
        ..Default::default()
    };
    let warm = input
        .queries
        .iter()
        .min_by_key(|q| q.len())
        .expect("queries");

    let (db, setup_s) = repeat_setup(
        r.sizes.setup_repeats,
        || input.records.clone(),
        |records| {
            let db = Database::from_records(records, &Alphabet::protein());
            parallel_search(warm, &db, &cfg, builder);
            db
        },
    );

    let mut out = Outcome::default();
    let (mut rounds, mut latency_ms) = (Vec::new(), Vec::new());
    let tracer = Tracer::default();
    let mut log = LayerLog::default();
    let mut clock = r.clock();
    while clock.next_round() {
        let round = clock.rounds() - 1;
        let t0 = Instant::now();
        let mut work = 0;
        let mut results = Vec::with_capacity(input.queries.len());
        for q in &input.queries {
            let t = Instant::now();
            let res = parallel_search(q, &db, &cfg, builder);
            latency_ms.push(ms(t.elapsed()));
            work += cells(q, db.total_residues());
            results.push(res);
        }
        let wall = t0.elapsed().as_secs_f64();
        rounds.push((work, wall));
        log.untraced_s.push(wall);

        let degraded = results
            .iter()
            .filter(|o| o.faults.degraded_batches > 0)
            .count();
        out.tally(results.len() as u64, degraded as u64);
        let hits: Vec<Vec<Hit>> = results.into_iter().map(|o| o.hits).collect();
        let bad = check(r, &k, &input.queries, &db, &hits, round);
        out.tally(r.sizes.oracle_pairs as u64, bad);

        if r.trace {
            let t0 = Instant::now();
            let traced = Scope::root(&tracer, round as u64).span("bench.round", |sc| {
                input
                    .queries
                    .iter()
                    .enumerate()
                    .map(|(qi, q)| {
                        traced_search(sc.with_req(qi as u64), &k, q, &db, &mut log.counters)
                    })
                    .collect::<Vec<_>>()
            });
            log.traced_s.push(t0.elapsed().as_secs_f64());
            log.rounds += 1;
            let differ = traced.iter().zip(&hits).filter(|(a, b)| a != b).count();
            out.tally(traced.len() as u64, differ as u64);
        }
    }
    out.fact("rounds", clock.rounds());
    out.fact("db_seqs", db.len());
    out.fact("db_residues", db.total_residues());
    out.fact("engine", k.engine.name());
    if r.trace {
        out.spans = tracer.spans();
        out.metrics = log.metrics(&out.spans);
    } else {
        super::end_to_end(&mut out, setup_s, &rounds, latency_ms);
    }
    out
}

/// `parallel_search`'s work for one query, one public call at a time:
/// per partition (one per thread) the sub-database is encoded, laid
/// out and searched; the partitions' hits are then ranked.
pub(crate) fn traced_search(
    sc: Scope<'_>,
    k: &Kernel,
    query: &[u8],
    db: &Database,
    total: &mut Counters,
) -> Vec<Hit> {
    sc.span("runner.pool", |pool| {
        let parts = db.partition(THREADS);
        let found: Vec<(Vec<Hit>, Counters)> = std::thread::scope(|s| {
            let handles: Vec<_> = parts
                .iter()
                .map(|range| {
                    s.spawn(move || {
                        pool.span("runner.partition", |p| {
                            let mut c = Counters::default();
                            let records = range.clone().map(|i| db.record(i).clone()).collect();
                            let sub = layers::encode(p, records);
                            let batched = layers::layout(p, k, &sub, &mut c);
                            let mut hits = layers::search(p, k, query, &sub, &batched, &mut c);
                            for h in &mut hits {
                                h.db_index += range.start;
                            }
                            (hits, c)
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("partition thread panicked"))
                .collect()
        });
        let mut all = Vec::with_capacity(db.len());
        for (hits, c) in found {
            all.extend(hits);
            total.merge(&c);
        }
        pool.span("runner.rank", |_| rank_hits(all, 0))
    })
}

/// Oracle check of one round: every query has one hit per database
/// sequence, ranked, and a seeded sample of (query, sequence) scores
/// equals the scalar reference. Returns the failed checks.
fn check(
    r: &Run,
    k: &Kernel,
    queries: &[Vec<u8>],
    db: &Database,
    hits: &[Vec<Hit>],
    round: usize,
) -> u64 {
    let mut bad = 0;
    let mut scores = vec![vec![None; db.len()]; queries.len()];
    for (per_db, h) in scores.iter_mut().zip(hits) {
        let ranked = h
            .windows(2)
            .all(|w| (w[0].score, w[1].db_index) >= (w[1].score, w[0].db_index));
        if h.len() != db.len() || !ranked {
            bad += 1;
        }
        for hit in h {
            if let Some(slot) = per_db.get_mut(hit.db_index) {
                *slot = Some(hit.score);
            }
        }
    }
    let mut rng = StdRng::seed_from_u64(sub_seed(r.seed, 1000 + round as u64));
    let mut items = Vec::new();
    for _ in 0..r.sizes.oracle_pairs {
        let qi = rng.gen_range(0..queries.len());
        let j = rng.gen_range(0..db.len());
        match scores[qi][j] {
            Some(s) => items.push((queries[qi].as_slice(), db.encoded(j).idx.as_slice(), s)),
            None => bad += 1,
        }
    }
    bad + scalar_mismatches(k, &items)
}
