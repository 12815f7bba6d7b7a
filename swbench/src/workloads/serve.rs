//! `serve`: the online path — a database split over two in-process
//! `ShardServer`s behind one `Gateway`, on loopback, with default
//! configurations. Server queueing, the wire hop and the gateway merge
//! dominate here, while every other workload bypasses them.
//!
//! Two phases share the run's time:
//! - closed loop: two clients, each sending its next query when the
//!   previous one returns; gives the throughput (`gcups`);
//! - paced: seeded Poisson arrivals at a fixed rate (about 40% of the
//!   closed-loop rate on the reference host, so swings in host speed do
//!   not tip it into queueing collapse), each request timed from its
//!   due time; gives the latencies.
//!
//! The traced run replaces the closed loop with a walk that sends each
//! query through every layer in turn: the slice search itself, a
//! `BatchServer` over the slice, each shard over TCP, and the gateway.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use swsimd_core::{Aligner, Hit};
use swsimd_matrices::Alphabet;
use swsimd_net::{Gateway, GatewayConfig, NetClient, ShardConfig, ShardServer};
use swsimd_runner::{rank_hits, BatchServer, ServerConfig};
use swsimd_seq::{BatchedDatabase, Database, SeqRecord};

use crate::inputs::{self, sub_seed};
use crate::layers::{self, Kernel, LayerLog};
use crate::pacer::{poisson_schedule, run_paced};
use crate::report::Outcome;
use crate::stats::percentile;
use crate::trace::{Scope, Tracer};
use crate::{builder, cells, ms, repeat_setup, scalar_mismatches, Clock, Run, THREADS};

/// Shard servers behind the gateway.
const SHARDS: u32 = 2;
/// Hits per reply.
const TOP_K: usize = 10;
/// Deadline of one request; far above any healthy latency.
const TIMEOUT: Duration = Duration::from_secs(10);
/// Share of the untraced run spent in the closed loop.
const CLOSED_SHARE: f64 = 0.3;
/// Share of the traced run spent in the paced phase.
const TRACED_PACED_SHARE: f64 = 0.4;

/// The serving tier as a user starts it.
struct Cluster {
    db: Database,
    shards: Vec<ShardServer>,
    gateway: Gateway,
}

impl Cluster {
    fn start(records: Vec<SeqRecord>, warm: &[Vec<u8>]) -> Cluster {
        let alphabet = Alphabet::protein();
        let db = Database::from_records(records, &alphabet);
        let shards: Vec<ShardServer> = (0..SHARDS)
            .map(|i| {
                let cfg = ShardConfig {
                    shard_index: i,
                    shard_count: SHARDS,
                    ..Default::default()
                };
                ShardServer::start(&db, &alphabet, cfg, builder).expect("shard starts on loopback")
            })
            .collect();
        let gateway = Gateway::new(GatewayConfig {
            shards: shards
                .iter()
                .map(|s| vec![s.local_addr().to_string()])
                .collect(),
            ..Default::default()
        });
        for q in warm {
            gateway
                .query(q, TOP_K, Some(TIMEOUT))
                .expect("warm-up query");
        }
        Cluster {
            db,
            shards,
            gateway,
        }
    }

    /// One gateway query, judged against the unsharded oracle ranking.
    fn query_ok(&self, query: &[u8], oracle: &[Hit]) -> bool {
        matches!(self.gateway.query(query, TOP_K, Some(TIMEOUT)),
            Ok(r) if !r.degraded && r.hits == oracle)
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for s in self.shards.drain(..) {
            s.shutdown();
        }
    }
}

/// Run the workload.
pub fn run(r: &Run) -> Outcome {
    let k = Kernel::new();
    let input = inputs::serve(r.seed, &r.sizes);
    let queries = &input.queries;
    let (cluster, setup_s) = repeat_setup(
        r.sizes.setup_repeats,
        || input.records.clone(),
        |records| Cluster::start(records, &queries[..2.min(queries.len())]),
    );

    let mut out = Outcome::default();
    let oracle = oracle(r, &k, &cluster.db, queries, &mut out);
    let start = Instant::now();
    let total = Duration::from_secs_f64(r.seconds);

    let mut log = LayerLog::default();
    let tracer = Tracer::default();
    let mut closed = Vec::new();
    let paced_span = if r.trace {
        total.mul_f64(TRACED_PACED_SHARE)
    } else {
        let (n, bad, secs, work) =
            closed_loop(&cluster, queries, &oracle, total.mul_f64(CLOSED_SHARE));
        out.tally(n, bad);
        out.fact("closed_loop_queries", n);
        out.fact("qps", n as f64 / secs);
        closed.push((work, secs));
        total.saturating_sub(start.elapsed())
    };

    let schedule = poisson_schedule(r.sizes.serve_rate, paced_span, sub_seed(r.seed, 6));
    let paced = run_paced(&schedule, THREADS, |i| {
        let qi = i % queries.len();
        cluster.query_ok(&queries[qi], &oracle[qi])
    });
    let latency_ms: Vec<f64> = paced.iter().map(|p| ms(p.latency)).collect();
    log.gen_late_ms = paced.iter().map(|p| ms(p.late)).collect();
    out.tally(
        paced.len() as u64,
        paced.iter().filter(|p| !p.ok).count() as u64,
    );
    out.fact("paced_rate_per_s", r.sizes.serve_rate);
    out.fact("paced_requests", paced.len());
    out.fact("db_residues", cluster.db.total_residues());

    if r.trace {
        let walk_span = total.saturating_sub(start.elapsed());
        walk(
            &k, &cluster, queries, &oracle, walk_span, &tracer, &mut log, &mut out,
        );
        out.spans = tracer.spans();
        out.metrics = log.metrics(&out.spans);
    } else {
        super::end_to_end(&mut out, setup_s, &closed, latency_ms);
        out.fact("gen_late_p95_ms", percentile(&log.gen_late_ms, 0.95));
    }
    out
}

/// Unsharded top-k ranking of every query — what the gateway must
/// return — computed once, plus a scalar check of a seeded sample of
/// its scores.
fn oracle(
    r: &Run,
    k: &Kernel,
    db: &Database,
    queries: &[Vec<u8>],
    out: &mut Outcome,
) -> Vec<Vec<Hit>> {
    let batched = BatchedDatabase::build(db, k.lanes(), true);
    let mut aligner: Aligner = builder().build();
    let ranked: Vec<Vec<Hit>> = queries
        .iter()
        .map(|q| rank_hits(aligner.search_batched(q, db, &batched), TOP_K))
        .collect();
    let mut rng = StdRng::seed_from_u64(sub_seed(r.seed, 4000));
    let items: Vec<(&[u8], &[u8], i32)> = (0..r.sizes.oracle_pairs)
        .map(|_| {
            let qi = rng.gen_range(0..queries.len());
            let h = &ranked[qi][rng.gen_range(0..ranked[qi].len())];
            (
                queries[qi].as_slice(),
                db.encoded(h.db_index).idx.as_slice(),
                h.score,
            )
        })
        .collect();
    out.tally(items.len() as u64, scalar_mismatches(k, &items));
    ranked
}

/// Closed loop: every client sends its next query as soon as the
/// previous one returns. Returns (queries, failures, seconds, cells).
fn closed_loop(
    c: &Cluster,
    queries: &[Vec<u8>],
    oracle: &[Vec<Hit>],
    span: Duration,
) -> (u64, u64, f64, u64) {
    let next = AtomicUsize::new(0);
    let tally = Mutex::new((0u64, 0u64, 0u64));
    let start = Instant::now();
    let stop = start + span;
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                while Instant::now() < stop {
                    let qi = next.fetch_add(1, Ordering::Relaxed) % queries.len();
                    let ok = c.query_ok(&queries[qi], &oracle[qi]);
                    let mut t = tally.lock().expect("tally poisoned");
                    t.0 += 1;
                    t.1 += u64::from(!ok);
                    t.2 += cells(&queries[qi], c.db.total_residues());
                }
            });
        }
    });
    let secs = start.elapsed().as_secs_f64();
    let (n, bad, work) = tally.into_inner().expect("tally poisoned");
    (n, bad, secs, work)
}

/// Send query after query through each layer in turn for `span`:
/// the slice search (`core.*`, `runner.rank`), a `BatchServer` over
/// the same slice (`runner.server`), each shard directly (`net.shard`,
/// `net.ping`), and the gateway (`net.gateway`). Before each traced
/// step the same gateway query runs untraced, for the tracing overhead.
#[allow(clippy::too_many_arguments)] // one call site; the run's state travels together
fn walk(
    k: &Kernel,
    c: &Cluster,
    queries: &[Vec<u8>],
    oracle: &[Vec<Hit>],
    span: Duration,
    tracer: &Tracer,
    log: &mut LayerLog,
    out: &mut Outcome,
) {
    let range = c.db.partition(SHARDS as usize)[0].clone();
    let records = range.map(|i| c.db.record(i).clone()).collect();
    let slice = Database::from_records(records, &Alphabet::protein());
    let batched = BatchedDatabase::build(&slice, k.lanes(), true);
    log.counters.note_layout(&batched);
    let server = BatchServer::start(Arc::new(slice.clone()), ServerConfig::default(), builder);
    let client = server.client();
    let mut conns: Vec<NetClient> = c
        .shards
        .iter()
        .map(|s| {
            NetClient::connect(&s.local_addr().to_string(), TIMEOUT).expect("shard connection")
        })
        .collect();

    let mut clock = Clock::new(span);
    while clock.next_round() {
        let qi = (clock.rounds() - 1) % queries.len();
        let q = &queries[qi];
        let t = Instant::now();
        let untraced_ok = c.query_ok(q, &oracle[qi]);
        log.untraced_s.push(t.elapsed().as_secs_f64());

        let mut bad = u64::from(!untraced_ok);
        Scope::root(tracer, qi as u64).span("bench.round", |sc| {
            let direct = layers::search(sc, k, q, &slice, &batched, &mut log.counters);
            let direct = sc.span("runner.rank", |_| rank_hits(direct, TOP_K));

            let t = Instant::now();
            let served = sc.span("runner.server", |_| {
                client
                    .submit(q.clone(), TOP_K, None)
                    .and_then(|pending| loop {
                        if let Some(res) = pending.poll(Duration::from_millis(50)) {
                            break res;
                        }
                    })
            });
            let server_ms = ms(t.elapsed());
            match served {
                Ok(o) => {
                    log.server_queue_ms.push(o.queue_ns as f64 / 1e6);
                    log.server_compute_ms.push(o.compute_ns as f64 / 1e6);
                    bad += u64::from(o.hits != direct);
                }
                Err(_) => bad += 1,
            }

            let mut shard_ms = Vec::with_capacity(conns.len());
            for (si, conn) in conns.iter_mut().enumerate() {
                let t = Instant::now();
                let reply = sc.span("net.shard", |_| conn.query(q, TOP_K, 0));
                shard_ms.push(ms(t.elapsed()));
                match reply {
                    Ok(rep) => bad += u64::from(rep.degraded || (si == 0 && rep.hits != direct)),
                    Err(_) => bad += 1,
                }
                let t = Instant::now();
                bad += u64::from(sc.span("net.ping", |_| conn.ping()).is_err());
                log.net_ping_ms.push(ms(t.elapsed()));
            }
            log.net_hop_ms.push(shard_ms[0] - server_ms);
            let slowest = shard_ms.iter().copied().fold(0.0, f64::max);
            log.net_shard_ms.extend(shard_ms);

            let t = Instant::now();
            bad += u64::from(!sc.span("net.gateway", |_| c.query_ok(q, &oracle[qi])));
            let gateway_ms = ms(t.elapsed());
            log.net_gateway_ms.push(gateway_ms);
            log.net_fanout_ms.push(gateway_ms - slowest);
            log.traced_s.push(gateway_ms / 1e3);
        });
        log.rounds += 1;
        out.tally(1, bad);
    }
    out.fact("walk_steps", clock.rounds());
    server.shutdown();
}
