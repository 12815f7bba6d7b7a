//! Multi-tenant QoS end-to-end: deterministic overload tests of the
//! fair-share scheduler, token-bucket admission, and the brownout
//! degradation ladder — all driven by [`FaultPlan`] compute delays,
//! not sleeps-and-hope. Every answer returned under pressure is
//! checked exact against the unsharded oracle: overload may shed,
//! slow, or degrade *auxiliary* work, but never scores.

use std::sync::Arc;
use std::time::{Duration, Instant};

use swsimd::matrices::{blosum62, Alphabet};
use swsimd::runner::{
    parallel_search, rank_hits, BatchServer, BrownoutConfig, Fidelity, PoolConfig, QosConfig,
    RateConfig, Request, ServerClient, ServerConfig, TenantPolicy,
};
use swsimd::seq::{generate_database, generate_exact, SynthConfig};
use swsimd::{Aligner, Database, FaultPlan, Hit, ServeError, ShadowConfig};

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

/// Sum every sample of a metric family in the global scrape.
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

/// Block until `pending` resolves, in small steps.
fn wait(
    pending: &swsimd::runner::PendingQuery,
) -> Result<swsimd::runner::QueryOutcome, ServeError> {
    loop {
        if let Some(result) = pending.poll(Duration::from_millis(5)) {
            return result;
        }
    }
}

/// Send `req` and block for its hits.
fn served(client: &ServerClient, req: Request) -> Result<Vec<Hit>, ServeError> {
    client.send(req)?.wait().map(|o| o.hits)
}

/// Acceptance headline: two tenants offer load 10:1 into a saturated
/// queue with equal weights. The aggressor's overflow is shed with
/// typed errors carrying backoff hints, the well-behaved tenant keeps
/// admitting, DRR drains both lanes at parity (the good tenant's jobs
/// complete within 2x its fair share of the drain order), and every
/// answer matches the oracle exactly.
#[test]
fn fair_share_protects_the_well_behaved_tenant_under_overload() {
    let database = Arc::new(db(12, 71));
    let q = enc(40, 72);
    let want = reference_hits(&q, &database, 5);
    assert!(!want.is_empty());
    let cost = q.len() as u64 * database.total_residues() as u64;

    let server = BatchServer::start(
        database.clone(),
        ServerConfig {
            batch_size: 1,
            max_wait: Duration::from_millis(1),
            queue_depth: 64,
            // Every job's compute sleeps 60ms: the first job plugs the
            // worker while the burst below is enqueued, and the drain
            // is slow enough that queue waits dominate submit jitter.
            fault_plan: FaultPlan::new().delay_at(0, Duration::from_millis(60)),
            qos: QosConfig {
                lane_depth: 8,
                // One job's cost per DRR visit: strict lane alternation.
                quantum: cost,
                ..Default::default()
            },
            ..Default::default()
        },
        builder,
    );
    let client = server.client();

    // Plug the worker, then burst while it computes.
    let plug = client.submit(q.clone(), 5, None).expect("plug admitted");

    let mut aggressor = Vec::new();
    let mut shed = 0u32;
    for _ in 0..20 {
        match client.send(Request::new(q.clone(), 5).with_tenant("aggressor")) {
            Ok(p) => aggressor.push(p),
            Err(ServeError::QueueFull { retry_after_ms }) => {
                assert!(retry_after_ms >= 1, "shed without a usable hint");
                shed += 1;
            }
            Err(other) => panic!("unexpected admission error: {other}"),
        }
    }
    assert_eq!(aggressor.len(), 8, "lane bound did not hold");
    assert_eq!(shed, 12, "overflow was not shed");

    // The aggressor's full lane must not block the other tenant.
    let good: Vec<_> = (0..2)
        .map(|_| {
            client
                .send(Request::new(q.clone(), 5).with_tenant("good"))
                .expect("well-behaved tenant starved at admission")
        })
        .collect();

    let plug_out = wait(&plug).expect("plug job");
    assert_eq!(plug_out.hits, want);

    // Drain everything; a job's queue wait is its dequeue order (the
    // 60ms per-job compute dwarfs submission jitter).
    let mut finished: Vec<(&str, u64)> = Vec::new();
    for p in &aggressor {
        let out = wait(p).expect("aggressor job");
        assert_eq!(out.hits, want, "aggressor answer diverged from oracle");
        assert_eq!(out.fidelity, Fidelity::Full);
        finished.push(("aggressor", out.queue_ns));
    }
    for p in &good {
        let out = wait(p).expect("good job");
        assert_eq!(out.hits, want, "good-tenant answer diverged from oracle");
        assert_eq!(out.fidelity, Fidelity::Full);
        finished.push(("good", out.queue_ns));
    }
    finished.sort_by_key(|(_, queue_ns)| *queue_ns);

    // Equal weights, equal costs: DRR alternates lanes, so the good
    // tenant's 2 jobs sit in the first ~4 dequeues. "Within 2x fair
    // share" allows them as late as positions 4 and 8 of the 10-job
    // drain.
    let ranks: Vec<usize> = finished
        .iter()
        .enumerate()
        .filter(|(_, (t, _))| *t == "good")
        .map(|(i, _)| i + 1)
        .collect();
    assert_eq!(ranks.len(), 2);
    assert!(
        ranks[0] <= 4 && ranks[1] <= 8,
        "good tenant starved: drained at positions {ranks:?} of {}",
        finished.len()
    );

    let stats = server.shutdown();
    assert!(stats.shed >= 12, "shed not accounted: {}", stats.shed);
}

/// Token-bucket admission: a metered tenant gets its burst, then a
/// typed [`ServeError::RateLimited`] whose `retry_after_ms` names the
/// refill time; unmetered tenants are untouched. Rejections are
/// visible in the per-tenant scrape.
#[test]
fn token_bucket_rate_limits_with_typed_retry_hints() {
    let database = Arc::new(db(12, 81));
    let q = enc(40, 82);
    let want = reference_hits(&q, &database, 5);
    let cost = q.len() as u64 * database.total_residues() as u64;

    let mut qos = QosConfig::default();
    qos.tenants.insert(
        "metered".into(),
        TenantPolicy {
            weight: 1,
            // Exactly one query of burst; a trickle of a refill rate.
            rate: Some(RateConfig {
                rate: 100,
                burst: cost,
            }),
        },
    );
    let server = BatchServer::start(
        database.clone(),
        ServerConfig {
            batch_size: 1,
            max_wait: Duration::from_millis(1),
            qos,
            ..Default::default()
        },
        builder,
    );
    let client = server.client();

    // The burst is admitted and answered exactly.
    let hits =
        served(&client, Request::new(q.clone(), 5).with_tenant("metered")).expect("burst admitted");
    assert_eq!(hits, want);

    // The next query exceeds the drained bucket: typed, hinted, and
    // counted under the tenant's label.
    let before = scrape_labelled("swsimd_rate_limited_total", "tenant=\"metered\"");
    match served(&client, Request::new(q.clone(), 5).with_tenant("metered")) {
        Err(ServeError::RateLimited { retry_after_ms }) => {
            assert!(retry_after_ms >= 1, "rate limit without a refill hint");
        }
        other => panic!("expected RateLimited, got {other:?}"),
    }
    assert!(
        scrape_labelled("swsimd_rate_limited_total", "tenant=\"metered\"") > before,
        "tenant-labelled rate-limit counter did not move"
    );

    // An unmetered tenant is unaffected by the metered tenant's limit.
    let hits = served(&client, Request::new(q.clone(), 5).with_tenant("unmetered"))
        .expect("unmetered tenant refused");
    assert_eq!(hits, want);

    let stats = server.shutdown();
    assert!(stats.rate_limited >= 1);
}

/// Brownout ladder: sustained queue delay steps the level up (typed,
/// never silent — results carry a non-Full [`Fidelity`]), shadow
/// sampling is provably suspended (scrape counter freezes) and resumes
/// on recovery, the level steps back down once the queue drains, and
/// scores stay exact at every level.
#[test]
fn brownout_degrades_stepwise_and_recovers_with_exact_scores() {
    let database = Arc::new(db(12, 91));
    let q = enc(40, 92);
    let want = reference_hits(&q, &database, 5);

    let server = BatchServer::start(
        database.clone(),
        ServerConfig {
            batch_size: 1,
            max_wait: Duration::from_millis(1),
            queue_depth: 64,
            // Every job computes for 40ms, so a burst of queued jobs
            // observes queue delays far above the high watermark.
            fault_plan: FaultPlan::new().delay_at(0, Duration::from_millis(40)),
            shadow: ShadowConfig::full(),
            brownout: Some(BrownoutConfig {
                high: Duration::from_millis(10),
                low: Duration::from_millis(3),
                dwell: Duration::from_millis(50),
                max_level: 3,
            }),
            ..Default::default()
        },
        builder,
    );
    let client = server.client();

    // Healthy phase: full fidelity, shadow verification running.
    let checks_healthy = scrape_sum("swsimd_server_shadow_checks_total");
    let out = wait(&client.submit(q.clone(), 5, None).expect("submit")).expect("healthy job");
    assert_eq!(out.hits, want);
    assert_eq!(out.fidelity, Fidelity::Full);
    assert!(
        scrape_sum("swsimd_server_shadow_checks_total") > checks_healthy,
        "shadow verification not running while healthy"
    );
    assert_eq!(server.brownout_level(), 0);

    // Overload: plug the worker and pile up a burst. Queued jobs wait
    // multiples of 40ms — far over the 10ms high watermark.
    let checks_before = scrape_sum("swsimd_server_shadow_checks_total");
    let pending: Vec<_> = (0..7)
        .map(|_| client.submit(q.clone(), 5, None).expect("burst admitted"))
        .collect();
    let outcomes: Vec<_> = pending
        .iter()
        .map(|p| wait(p).expect("burst job"))
        .collect();
    for out in &outcomes {
        assert_eq!(out.hits, want, "brownout changed scores");
    }
    let degraded = outcomes
        .iter()
        .filter(|o| o.fidelity != Fidelity::Full)
        .count();
    assert!(
        degraded >= 1,
        "sustained overload never declared a fidelity reduction"
    );
    // The fidelity marker is the ground truth for what was suspended:
    // the scrape delta must equal the checks of the full-fidelity jobs
    // alone (shadow verifies every database hit, pre-ranking) — shadow
    // sampling provably did not run for the rest.
    let full_jobs = outcomes
        .iter()
        .filter(|o| o.fidelity == Fidelity::Full)
        .count() as u64;
    let expected = full_jobs * database.len() as u64;
    assert_eq!(
        scrape_sum("swsimd_server_shadow_checks_total") - checks_before,
        expected,
        "shadow counter moved while suspended"
    );
    assert!(
        scrape_sum("swsimd_brownout_level") >= 1,
        "brownout level gauge not raised"
    );

    // Recovery: idle queue delays decay the EWMA below the low
    // watermark; the ladder steps back down (one dwell per step).
    let recovered = Instant::now();
    loop {
        let hits = served(&client, Request::new(q.clone(), 5)).expect("recovery query");
        assert_eq!(hits, want, "wrong scores during recovery");
        if server.brownout_level() == 0 {
            break;
        }
        assert!(
            recovered.elapsed() < Duration::from_secs(20),
            "brownout level stuck at {} after drain",
            server.brownout_level()
        );
    }
    assert_eq!(scrape_sum("swsimd_brownout_level"), 0);

    // Shadow sampling resumed: the counter moves again at full
    // fidelity.
    let checks_after = scrape_sum("swsimd_server_shadow_checks_total");
    let out = wait(&client.submit(q.clone(), 5, None).expect("submit")).expect("recovered job");
    assert_eq!(out.hits, want);
    assert_eq!(out.fidelity, Fidelity::Full);
    assert_eq!(
        scrape_sum("swsimd_server_shadow_checks_total") - checks_after,
        database.len() as u64,
        "shadow verification did not resume"
    );

    server.shutdown();
}

/// Gauge balance audit: every admission path — served, lane-shed,
/// rate-limited, deadline-expired — must settle the queue-depth gauge
/// back to zero once the queue drains. An unbalanced inc/dec pair
/// would drift the gauge permanently and lie to the autoscaler.
#[test]
fn queue_depth_gauge_drains_to_zero_across_every_path() {
    let database = Arc::new(db(12, 61));
    let q = enc(40, 62);
    let cost = q.len() as u64 * database.total_residues() as u64;

    let mut qos = QosConfig {
        lane_depth: 2,
        ..Default::default()
    };
    qos.tenants.insert(
        "metered".into(),
        TenantPolicy {
            weight: 1,
            // Burst below one query's cost: always rate-limited.
            rate: Some(RateConfig {
                rate: 1,
                burst: cost / 2,
            }),
        },
    );
    let server = BatchServer::start(
        database.clone(),
        ServerConfig {
            batch_size: 1,
            max_wait: Duration::from_millis(1),
            queue_depth: 16,
            fault_plan: FaultPlan::new().delay_at(0, Duration::from_millis(50)),
            qos,
            ..Default::default()
        },
        builder,
    );
    let client = server.client();

    // Plug the worker so the paths below all race a busy queue.
    let plug = client.submit(q.clone(), 5, None).expect("plug admitted");

    // Path 1: lane shed. Depth-2 lane, three submissions.
    let mut bursty = Vec::new();
    let mut shed = 0;
    for _ in 0..3 {
        match client.send(Request::new(q.clone(), 5).with_tenant("bursty")) {
            Ok(p) => bursty.push(p),
            Err(ServeError::QueueFull { .. }) => shed += 1,
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert_eq!(shed, 1);

    // Path 2: rate-limited before buffering (gauge must not move).
    let depth_before = server.queue_depth();
    assert!(matches!(
        served(&client, Request::new(q.clone(), 5).with_tenant("metered")),
        Err(ServeError::RateLimited { .. })
    ));
    assert_eq!(server.queue_depth(), depth_before);

    // Path 3: deadline expiry while queued behind the plug.
    assert_eq!(
        served(
            &client,
            Request::new(q.clone(), 5).with_timeout(Duration::from_millis(10)),
        ),
        Err(ServeError::DeadlineExceeded)
    );

    // Path 4: normal service.
    wait(&plug).expect("plug job");
    for p in &bursty {
        wait(p).expect("bursty job");
    }

    // The expired job is discarded when the worker reaches it; give
    // the drain a bounded moment, then the gauge must balance.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.queue_depth() != 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.queue_depth(), 0, "queue-depth gauge leaked");

    let stats = server.shutdown();
    assert!(stats.shed >= 1);
    assert!(stats.rate_limited >= 1);
    assert!(stats.timeouts >= 1);
}
