//! In-process end-to-end tests of the networked sharded serving tier:
//! scatter-gather correctness against the unsharded reference, and
//! every robustness headline — breaker opening and probe re-admission,
//! deterministic retry of injected network faults, hedging past a slow
//! replica, client-drop cancellation over a real TCP disconnect,
//! graceful drain, journal resume across a shard restart, and deadline
//! propagation — all driven by [`FaultPlan`], not sleeps-and-hope.

use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use swsimd::matrices::{blosum62, Alphabet};
use swsimd::net::wire::{read_msg, write_msg, Msg};
use swsimd::net::{
    BreakerState, Gateway, GatewayConfig, GatewayMetrics, GatewayServer, NetClient, NetError,
    RemoteError, RetryPolicy, ShardConfig, ShardServer,
};
use swsimd::runner::{parallel_search, rank_hits, PoolConfig, ServeError, ServerConfig};
use swsimd::seq::{generate_database, generate_exact, SynthConfig};
use swsimd::{Aligner, Database, FaultPlan, Hit};

fn db(n: usize, seed: u64) -> Database {
    generate_database(&SynthConfig {
        n_seqs: n,
        seed,
        median_len: 50.0,
        max_len: 120,
        ..Default::default()
    })
}

fn enc(len: usize, seed: u64) -> Vec<u8> {
    Alphabet::protein().encode(&generate_exact(len, seed).seq)
}

fn builder() -> swsimd::AlignerBuilder {
    Aligner::builder().matrix(blosum62())
}

/// The unsharded oracle: exact ranked hits over the full database.
fn reference_hits(query: &[u8], db: &Database, top_k: usize) -> Vec<Hit> {
    let out = parallel_search(
        query,
        db,
        &PoolConfig {
            threads: 2,
            ..Default::default()
        },
        builder,
    );
    rank_hits(out.hits, top_k)
}

fn start_shard(db: &Database, index: u32, count: u32, fault: FaultPlan) -> ShardServer {
    start_shard_cfg(
        db,
        ShardConfig {
            shard_index: index,
            shard_count: count,
            fault,
            ..Default::default()
        },
    )
}

fn start_shard_cfg(db: &Database, cfg: ShardConfig) -> ShardServer {
    ShardServer::start(db, &Alphabet::protein(), cfg, builder).expect("shard start")
}

fn gateway_over(shards: &[&ShardServer], cfg: GatewayConfig) -> Gateway {
    let mut topo = Vec::new();
    for s in shards {
        topo.push(vec![s.local_addr().to_string()]);
    }
    Gateway::new(GatewayConfig {
        shards: topo,
        ..cfg
    })
}

fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        base: Duration::from_millis(5),
        cap: Duration::from_millis(20),
        budget: 3,
        seed: 99,
    }
}

/// Sum every sample of a counter family in the global scrape
/// (families may be split across `instance`/`shard` labels).
fn scrape_sum(family: &str) -> u64 {
    swsimd::obs::global()
        .prometheus_text()
        .lines()
        .filter(|l| l.starts_with(family) && !l.starts_with('#'))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum::<f64>() as u64
}

fn scrape_labelled(family: &str, label: &str) -> u64 {
    swsimd::obs::global()
        .prometheus_text()
        .lines()
        .filter(|l| l.starts_with(family) && l.contains(label))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum::<f64>() as u64
}

#[test]
fn sharded_scatter_gather_matches_unsharded_reference() {
    let db = db(48, 401);
    let q = enc(60, 402);
    let want = reference_hits(&q, &db, 10);
    assert!(!want.is_empty());

    let shards: Vec<ShardServer> = (0..3)
        .map(|i| start_shard(&db, i, 3, FaultPlan::default()))
        .collect();
    let gw = gateway_over(
        &shards.iter().collect::<Vec<_>>(),
        GatewayConfig {
            retry: fast_retry(),
            ..Default::default()
        },
    );
    let resp = gw.query(&q, 10, None).expect("query");
    assert!(!resp.degraded);
    assert!(resp.missing_shards.is_empty());
    assert_eq!(resp.hits, want, "sharded merge must be bit-identical");

    // The same answer through the gateway front door over TCP.
    let front = GatewayServer::start(gw, "127.0.0.1:0", Duration::from_secs(2)).expect("front");
    let mut client =
        NetClient::connect(&front.local_addr().to_string(), Duration::from_secs(10)).unwrap();
    let reply = client.query(&q, 10, 0).expect("front query");
    assert!(!reply.degraded);
    assert_eq!(reply.hits, want);

    // And directly against one shard: its slice of the ranking, with
    // global indices.
    let mut direct =
        NetClient::connect(&shards[1].local_addr().to_string(), Duration::from_secs(10)).unwrap();
    let slice_reply = direct.query(&q, 10, 0).expect("direct shard query");
    let ranges = db.partition(3);
    assert!(slice_reply
        .hits
        .iter()
        .all(|h| ranges[1].contains(&h.db_index)));

    assert!(front.shutdown());
    for s in shards {
        assert!(s.shutdown());
    }
}

#[test]
fn dead_shard_degrades_then_breaker_readmits_after_probes() {
    let db = db(36, 403);
    let q = enc(50, 404);
    let want_full = reference_hits(&q, &db, 8);

    let s0 = start_shard(&db, 0, 3, FaultPlan::default());
    let s1 = start_shard(&db, 1, 3, FaultPlan::default());
    // Reserve a port for shard 2 but leave it dead for now.
    let reserved = {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };

    let gw = Gateway::new(GatewayConfig {
        shards: vec![
            vec![s0.local_addr().to_string()],
            vec![s1.local_addr().to_string()],
            vec![reserved.to_string()],
        ],
        retry: RetryPolicy {
            budget: 2,
            base: Duration::from_millis(2),
            cap: Duration::from_millis(10),
            seed: 7,
        },
        connect_timeout: Duration::from_millis(500),
        strike_threshold: 1,
        readmit_after: 2,
        ..Default::default()
    });

    let down_before = scrape_labelled("swsimd_shard_down_total", "shard=\"2\"");
    let degraded = GatewayMetrics::new().degraded.get();

    // Shard 2 is down past its retry budget: partial result, typed
    // degradation marker, breaker open.
    let resp = gw.query(&q, 8, None).expect("degraded query succeeds");
    assert!(resp.degraded);
    assert_eq!(resp.missing_shards, vec![2]);
    let ranges = db.partition(3);
    assert!(resp.hits.iter().all(|h| !ranges[2].contains(&h.db_index)));
    // The slices that answered are still exact.
    let want_partial: Vec<Hit> = {
        let partial: Vec<Hit> = reference_hits(&q, &db, 0)
            .into_iter()
            .filter(|h| !ranges[2].contains(&h.db_index))
            .collect();
        rank_hits(partial, 8)
    };
    assert_eq!(resp.hits, want_partial);
    assert_eq!(gw.replica_states()[2], BreakerState::Down);
    assert!(
        scrape_labelled("swsimd_shard_down_total", "shard=\"2\"") > down_before,
        "breaker opening must be counted"
    );
    assert!(GatewayMetrics::new().degraded.get() > degraded);

    // Probing a still-dead shard keeps the breaker open.
    assert_eq!(gw.probe_now(), 0);
    assert_eq!(gw.replica_states()[2], BreakerState::Down);

    // Bring shard 2 up on the reserved address; two probe passes
    // re-admit it and the next query is whole again.
    let s2 = start_shard_cfg(
        &db,
        ShardConfig {
            listen: reserved.to_string(),
            shard_index: 2,
            shard_count: 3,
            ..Default::default()
        },
    );
    assert_eq!(gw.probe_now(), 0, "first pass is probation");
    assert_eq!(gw.replica_states()[2], BreakerState::Probation);
    assert_eq!(gw.probe_now(), 1, "second pass re-admits");
    assert_eq!(gw.replica_states()[2], BreakerState::Healthy);

    let resp = gw.query(&q, 8, None).expect("recovered query");
    assert!(!resp.degraded);
    assert_eq!(resp.hits, want_full);

    assert!(s0.shutdown());
    assert!(s1.shutdown());
    assert!(s2.shutdown());
}

#[test]
fn refused_connects_retry_within_budget() {
    let db = db(24, 405);
    let q = enc(40, 406);
    let want = reference_hits(&q, &db, 5);

    let shard = start_shard(&db, 0, 1, FaultPlan::default());
    let retries_before = GatewayMetrics::new().retries.get();
    // Refuse the first two connects to replica ordinal 0: attempts 0
    // and 1 fail deterministically, attempt 2 succeeds.
    let gw = gateway_over(
        &[&shard],
        GatewayConfig {
            retry: fast_retry(),
            strike_threshold: 5, // stay under the breaker threshold
            fault: FaultPlan::new().refuse_connect(0, 2),
            ..Default::default()
        },
    );
    let resp = gw.query(&q, 5, None).expect("third attempt lands");
    assert!(!resp.degraded);
    assert_eq!(resp.hits, want);
    assert!(
        GatewayMetrics::new().retries.get() >= retries_before + 2,
        "both refused connects must be counted as retries"
    );
    assert!(shard.shutdown());
}

#[test]
fn torn_and_bit_flipped_replies_are_retried_not_trusted() {
    let db = db(24, 407);
    let q = enc(40, 408);
    let want = reference_hits(&q, &db, 5);

    // First reply torn mid-frame, second reply bit-flipped: the
    // gateway must burn two retries and succeed on the third attempt
    // with an uncorrupted answer.
    let shard = start_shard(
        &db,
        0,
        1,
        FaultPlan::new().torn_reply_at(0, 1).flip_reply_at(0, 1),
    );
    let retries_before = GatewayMetrics::new().retries.get();
    let gw = gateway_over(
        &[&shard],
        GatewayConfig {
            retry: fast_retry(),
            strike_threshold: 5,
            ..Default::default()
        },
    );
    let resp = gw.query(&q, 5, None).expect("retry past both faults");
    assert_eq!(resp.hits, want, "corrupt replies must never surface");
    assert!(GatewayMetrics::new().retries.get() >= retries_before + 2);
    assert!(shard.shutdown());
}

#[test]
fn hedged_request_overtakes_a_slow_replica() {
    let db = db(24, 409);
    let q = enc(40, 410);
    let want = reference_hits(&q, &db, 5);

    // Two replicas of the same (single) slice; the primary's replies
    // are delayed far beyond the hedge floor.
    let slow = start_shard(
        &db,
        0,
        1,
        FaultPlan::new().delay_reply_at(0, Duration::from_millis(1500)),
    );
    let fast = start_shard(&db, 0, 1, FaultPlan::default());
    let hedges_before = GatewayMetrics::new().hedges.get();
    let gw = Gateway::new(GatewayConfig {
        shards: vec![vec![
            slow.local_addr().to_string(),
            fast.local_addr().to_string(),
        ]],
        retry: fast_retry(),
        hedge_after: Some(Duration::from_millis(30)),
        ..Default::default()
    });
    let started = Instant::now();
    let resp = gw.query(&q, 5, None).expect("hedge wins");
    let elapsed = started.elapsed();
    assert_eq!(resp.hits, want);
    assert!(
        GatewayMetrics::new().hedges.get() > hedges_before,
        "the duplicate request must be counted"
    );
    assert!(
        elapsed < Duration::from_millis(1200),
        "hedge should beat the {elapsed:?} slow primary"
    );
    assert!(fast.shutdown());
    assert!(slow.shutdown());
}

#[test]
fn real_tcp_disconnect_cancels_with_client_drop() {
    let db = db(24, 411);
    let q = enc(40, 412);
    // Slow the batch server's only batch slot so the query is still
    // computing when the client vanishes.
    let shard = start_shard_cfg(
        &db,
        ShardConfig {
            server: ServerConfig {
                fault_plan: FaultPlan::new().delay_at(0, Duration::from_millis(400)),
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let dropped_before = scrape_labelled("swsimd_net_cancelled_total", "reason=\"client_drop\"");

    // Raw connection: send a query frame, then vanish mid-compute.
    {
        let mut stream = TcpStream::connect(shard.local_addr()).unwrap();
        write_msg(
            &mut stream,
            &Msg::Query {
                id: 1,
                top_k: 5,
                deadline_ms: 0,
                slice_index: 0,
                slice_count: 0,
                query: q.clone(),
                trace: Default::default(),
                tenant: String::new(),
            },
        )
        .unwrap();
        std::thread::sleep(Duration::from_millis(50));
        // Dropping the stream closes the socket: this disconnect IS
        // the cancellation signal.
    }

    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let dropped = scrape_labelled("swsimd_net_cancelled_total", "reason=\"client_drop\"");
        if dropped > dropped_before {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "client drop was never detected/counted"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(shard.shutdown());
}

#[test]
fn drain_refuses_new_queries_and_finishes_in_flight() {
    let db = db(24, 413);
    let q = enc(40, 414);
    let want = reference_hits(&q, &db, 5);
    let shard = Arc::new(start_shard_cfg(
        &db,
        ShardConfig {
            server: ServerConfig {
                fault_plan: FaultPlan::new().delay_at(0, Duration::from_millis(300)),
                ..Default::default()
            },
            drain_timeout: Duration::from_secs(5),
            ..Default::default()
        },
    ));
    let addr = shard.local_addr().to_string();

    // In-flight query on its own thread.
    let q2 = q.clone();
    let addr2 = addr.clone();
    let inflight = std::thread::spawn(move || {
        let mut c = NetClient::connect(&addr2, Duration::from_secs(10)).unwrap();
        c.query(&q2, 5, 0)
    });
    let wait_deadline = Instant::now() + Duration::from_secs(5);
    while shard.in_flight() == 0 {
        assert!(Instant::now() < wait_deadline, "query never started");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Drain: new queries refused with a typed error, probes still
    // answer and report draining.
    shard.drain();
    let mut late = NetClient::connect(&addr, Duration::from_secs(10)).unwrap();
    match late.query(&q, 5, 0) {
        Err(NetError::Remote(RemoteError::Draining)) => {}
        other => panic!("expected Draining, got {other:?}"),
    }
    let pong = late.ping().expect("probes still answer while draining");
    assert!(pong.draining);

    // The in-flight query still completes exactly.
    let got = inflight.join().unwrap().expect("in-flight query finishes");
    assert_eq!(got.hits, want);

    let shard = Arc::into_inner(shard).unwrap();
    assert!(shard.shutdown(), "drain finished with nothing in flight");
}

#[test]
fn journal_checkpoint_resumes_across_shard_restart() {
    let db = db(32, 415);
    let q = enc(40, 416);
    let want = reference_hits(&q, &db, 5);
    let dir = std::env::temp_dir().join(format!("swsimd-net-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Run 1: the journal writer crashes after one checkpointed chunk.
    // The typed error reaches the client; the fsynced journal stays.
    let crashing = start_shard_cfg(
        &db,
        ShardConfig {
            journal_dir: Some(dir.clone()),
            threads: 4,
            fault: FaultPlan::new().crash_after_chunks(1),
            ..Default::default()
        },
    );
    let mut client =
        NetClient::connect(&crashing.local_addr().to_string(), Duration::from_secs(10)).unwrap();
    match client.query(&q, 5, 0) {
        Err(NetError::Remote(RemoteError::Serve(ServeError::WorkerPanicked))) => {}
        other => panic!("expected WorkerPanicked from the crash fault, got {other:?}"),
    }
    drop(client);
    assert!(crashing.shutdown());
    let journals: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert_eq!(journals.len(), 1, "the interrupted journal must survive");

    // Run 2: a fresh shard process over the same journal directory
    // resumes the checkpoint instead of recomputing from scratch.
    let replays_before = scrape_sum("swsimd_server_journal_replays_total");
    let restarted = start_shard_cfg(
        &db,
        ShardConfig {
            journal_dir: Some(dir.clone()),
            threads: 4,
            ..Default::default()
        },
    );
    let mut client =
        NetClient::connect(&restarted.local_addr().to_string(), Duration::from_secs(10)).unwrap();
    let reply = client.query(&q, 5, 0).expect("resumed query succeeds");
    assert_eq!(reply.hits, want, "resume must be bit-identical");
    assert!(
        scrape_sum("swsimd_server_journal_replays_total") > replays_before,
        "the restart must resume via the journal, not recompute"
    );
    assert!(
        std::fs::read_dir(&dir).unwrap().next().is_none(),
        "journal removed after successful completion"
    );
    assert!(restarted.shutdown());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deadline_propagates_across_the_wire_as_a_fatal_error() {
    let db = db(24, 417);
    let q = enc(40, 418);
    let shard = start_shard_cfg(
        &db,
        ShardConfig {
            server: ServerConfig {
                fault_plan: FaultPlan::new().delay_at(0, Duration::from_millis(800)),
                ..Default::default()
            },
            ..Default::default()
        },
    );
    // Direct: the shard times the query out with the wire deadline.
    let mut client =
        NetClient::connect(&shard.local_addr().to_string(), Duration::from_secs(10)).unwrap();
    match client.query(&q, 5, 50) {
        Err(NetError::Remote(RemoteError::Serve(ServeError::DeadlineExceeded))) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }

    // Through the gateway: deadline errors are fatal — no retry burn,
    // the whole query fails typed.
    let retries_before = GatewayMetrics::new().retries.get();
    let gw = gateway_over(
        &[&shard],
        GatewayConfig {
            retry: fast_retry(),
            ..Default::default()
        },
    );
    match gw.query(&q, 5, Some(Duration::from_millis(60))) {
        Err(RemoteError::Serve(ServeError::DeadlineExceeded)) => {}
        other => panic!("expected fatal DeadlineExceeded, got {other:?}"),
    }
    assert_eq!(
        GatewayMetrics::new().retries.get(),
        retries_before,
        "fatal errors must not be retried"
    );
    assert!(shard.shutdown());
}

/// The acceptance scenario: a shard that accepted the query and then
/// went silent (reply delayed far past the per-attempt timeout — the
/// deterministic stand-in for a kill mid-query). The gateway burns its
/// bounded retry budget against the stalled shard and returns the
/// exact partial ranking, typed `degraded`, well inside the query
/// deadline.
#[test]
fn shard_dying_mid_query_degrades_within_deadline() {
    let db = db(36, 421);
    let q = enc(50, 422);
    let ranges = db.partition(3);

    let s0 = start_shard(&db, 0, 3, FaultPlan::default());
    let s1 = start_shard(&db, 1, 3, FaultPlan::default());
    // Shard 2 receives the query, computes it, and never gets the
    // reply out: each attempt times out at the gateway.
    let s2 = start_shard(
        &db,
        2,
        3,
        FaultPlan::new().delay_reply_at(2, Duration::from_secs(2)),
    );
    let gw = Gateway::new(GatewayConfig {
        shards: vec![
            vec![s0.local_addr().to_string()],
            vec![s1.local_addr().to_string()],
            vec![s2.local_addr().to_string()],
        ],
        retry: RetryPolicy {
            budget: 2,
            base: Duration::from_millis(5),
            cap: Duration::from_millis(20),
            seed: 3,
        },
        request_timeout: Duration::from_millis(200),
        strike_threshold: 2,
        ..Default::default()
    });

    let started = Instant::now();
    let resp = gw
        .query(&q, 8, Some(Duration::from_secs(10)))
        .expect("degrade, not fail");
    let elapsed = started.elapsed();
    assert!(resp.degraded);
    assert_eq!(resp.missing_shards, vec![2]);
    let want_partial: Vec<Hit> = rank_hits(
        reference_hits(&q, &db, 0)
            .into_iter()
            .filter(|h| !ranges[2].contains(&h.db_index))
            .collect(),
        8,
    );
    assert_eq!(resp.hits, want_partial);
    assert!(
        elapsed < Duration::from_secs(10),
        "degradation must land inside the deadline, took {elapsed:?}"
    );

    assert!(s0.shutdown());
    assert!(s1.shutdown());
    // s2's connection threads are still sleeping out their injected
    // reply delays; its Drop waits them out (bounded by the delay).
    drop(s2);
}

#[test]
fn wrong_shard_coordinates_are_rejected_typed() {
    let db = db(16, 419);
    let shard = start_shard(&db, 1, 3, FaultPlan::default());
    let mut stream = TcpStream::connect(shard.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write_msg(
        &mut stream,
        &Msg::Query {
            id: 9,
            top_k: 5,
            deadline_ms: 0,
            slice_index: 2, // addressed to the wrong slice
            slice_count: 3,
            query: enc(20, 420),
            trace: Default::default(),
            tenant: String::new(),
        },
    )
    .unwrap();
    match read_msg(&mut stream) {
        Ok(Msg::Error {
            err: RemoteError::WrongShard { got: 2, want: 1 },
            ..
        }) => {}
        other => panic!("expected WrongShard, got {other:?}"),
    }
    assert!(shard.shutdown());
}
