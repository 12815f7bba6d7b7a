//! Seeded chaos soak over a real self-healing cluster.
//!
//! A [`swsimd::net::Supervisor`] owns three real `swsimd shard` child
//! processes while an in-process gateway (so the test can assert on
//! its typed responses) scatter-gathers across them. A deterministic
//! [`swsimd::net::ChaosSchedule`] kills, wedges, and partitions the
//! shards mid-soak; the test asserts the three cluster invariants the
//! supervisor exists to uphold:
//!
//! 1. **Zero wrong answers**: every response — healthy or degraded —
//!    ranks exactly like the unsharded oracle restricted to the slices
//!    it actually reached.
//! 2. **Bounded degradation**: every degraded window closes within the
//!    recovery SLO once the schedule ends.
//! 3. **Observable self-healing**: restarts show up in
//!    `swsimd_supervisor_restarts_total{shard}` and the recovery
//!    histogram, scrapeable like every other family.
//!
//! The soak seed comes from `SWSIMD_CHAOS_SEED` (decimal or 0x-hex)
//! with a fixed fallback, and is printed so any failure replays
//! bit-for-bit.

use std::io::Write;
use std::time::{Duration, Instant};

use swsimd::matrices::Alphabet;
use swsimd::net::{
    seed_from_env, ChaosFault, ChaosSchedule, ChildSpec, ChildState, Gateway, GatewayConfig,
    NetClient, RetryPolicy, Supervisor, SupervisorConfig,
};
use swsimd::runner::{parallel_search, rank_hits, FaultPlan, PoolConfig};
use swsimd::seq::{generate_database, generate_exact, SynthConfig};
use swsimd::{Aligner, Database, Hit};

const TOP_K: usize = 6;
const SLICES: u32 = 3;
/// Chaos fires inside this window; recovery is judged after it.
const HORIZON: Duration = Duration::from_secs(6);
/// Degraded windows must close within this budget once faults stop.
const RECOVERY_SLO: Duration = Duration::from_secs(15);
const CANARY: &[u8] = b"MKVLAADTW";

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_swsimd")
}

fn test_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("swsimd-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_fasta(path: &std::path::Path, records: &[(String, Vec<u8>)]) {
    let mut f = std::fs::File::create(path).unwrap();
    for (id, seq) in records {
        writeln!(f, ">{id}").unwrap();
        f.write_all(seq).unwrap();
        writeln!(f).unwrap();
    }
}

fn as_pairs(hits: &[Hit]) -> Vec<(usize, i32)> {
    hits.iter().map(|h| (h.db_index, h.score)).collect()
}

/// Shard child spec: a real `swsimd shard` process on a pre-picked
/// port (SO_REUSEADDR lets every respawn rebind the same address).
fn shard_spec(name: &str, db_path: &str, slice: u32, standby: bool) -> ChildSpec {
    let addr = Supervisor::pick_addr().unwrap();
    let mut args: Vec<String> = vec![
        "shard".into(),
        db_path.into(),
        "--listen".into(),
        addr.clone(),
        "--shard-index".into(),
        slice.to_string(),
        "--shards".into(),
        SLICES.to_string(),
        "--threads".into(),
        "1".into(),
    ];
    if standby {
        args.push("--standby".into());
    }
    ChildSpec {
        name: name.into(),
        slice: Some(slice),
        program: bin().into(),
        args,
        addr,
        standby,
    }
}

/// Drive ticks until every child reports `Up` (children need to load
/// the database and pass the readiness canary first).
fn wait_all_up(sup: &mut Supervisor, deadline: Duration) {
    let start = Instant::now();
    loop {
        sup.tick();
        if sup
            .states()
            .iter()
            .all(|(_, state)| *state == ChildState::Up)
        {
            return;
        }
        assert!(
            start.elapsed() < deadline,
            "cluster failed to come up: {:?}",
            sup.states()
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

#[test]
fn seeded_chaos_soak_zero_wrong_answers_and_bounded_recovery() {
    let dir = test_dir("soak");
    let db: Database = generate_database(&SynthConfig {
        n_seqs: 24,
        seed: 911,
        median_len: 40.0,
        max_len: 90,
        ..Default::default()
    });
    let query_rec = generate_exact(40, 912);
    let db_path = dir.join("db.fasta");
    write_fasta(
        &db_path,
        &(0..db.len())
            .map(|i| (db.record(i).id.clone(), db.record(i).seq.clone()))
            .collect::<Vec<_>>(),
    );

    // Unsharded oracle, restrictable to the slices a degraded response
    // actually reached.
    let qe = Alphabet::protein().encode(&query_rec.seq);
    let full_hits = parallel_search(
        &qe,
        &db,
        &PoolConfig {
            threads: 2,
            ..Default::default()
        },
        || Aligner::builder().matrix(swsimd::matrices::blosum62()),
    )
    .hits;
    let parts = db.partition(SLICES as usize);
    let reference = |missing: &[u32]| -> Vec<(usize, i32)> {
        let hits: Vec<Hit> = full_hits
            .iter()
            .filter(|h| {
                !missing
                    .iter()
                    .any(|&s| parts[s as usize].contains(&h.db_index))
            })
            .cloned()
            .collect();
        as_pairs(&rank_hits(hits, TOP_K))
    };

    // Topology: three real shard children under the supervisor, the
    // gateway in-process so responses are typed and assertable.
    let db_str = db_path.to_str().unwrap().to_string();
    let names = ["soak-s0", "soak-s1", "soak-s2"];
    let specs: Vec<ChildSpec> = (0..SLICES)
        .map(|s| shard_spec(names[s as usize], &db_str, s, false))
        .collect();
    let shard_addrs: Vec<String> = specs.iter().map(|s| s.addr.clone()).collect();

    let canary = Alphabet::protein().encode(CANARY);
    let mut sup = Supervisor::new(
        SupervisorConfig {
            probe_interval: Duration::from_millis(100),
            probe_timeout: Duration::from_millis(500),
            probe_misses: 5,
            backoff_base: Duration::from_millis(50),
            backoff_max: Duration::from_millis(500),
            // The soak is about restarts, not quarantine: a seed that
            // hammers one shard must keep getting respawns.
            crash_loop_threshold: 1000,
            canary: canary.clone(),
            ..Default::default()
        },
        specs,
    );
    sup.start().expect("spawn cluster");
    wait_all_up(&mut sup, Duration::from_secs(60));

    // Partitions arm the gateway's own FaultPlan (Arc-shared, so the
    // kept clone mutates the live plan) — the process stays healthy
    // while its connects are refused, exactly a network partition.
    let plan = FaultPlan::new();
    let gateway = Gateway::new(GatewayConfig {
        shards: shard_addrs.iter().map(|a| vec![a.clone()]).collect(),
        retry: RetryPolicy {
            budget: 2,
            ..Default::default()
        },
        connect_timeout: Duration::from_millis(300),
        request_timeout: Duration::from_secs(5),
        strike_threshold: 1,
        readmit_after: 1,
        canary: canary.clone(),
        fault: plan.clone(),
        ..Default::default()
    });
    let prober = gateway.start_prober(Duration::from_millis(100));

    let seed = seed_from_env(0xC0FFEE);
    let schedule = ChaosSchedule::generate(seed, names.len(), HORIZON, 12);
    eprintln!(
        "chaos seed: {seed} ({} events; override with SWSIMD_CHAOS_SEED)",
        schedule.events.len()
    );
    let kills_scheduled = schedule
        .events
        .iter()
        .filter(|e| e.fault == ChaosFault::Kill)
        .count();

    let restarts_before: u64 = names.iter().map(|n| sup.metrics().restarts(n).get()).sum();
    let soak_start = Instant::now();
    let mut last_poll = Duration::ZERO;
    let mut window_start: Option<Instant> = None;
    let mut max_window = Duration::ZERO;
    let mut samples = 0usize;
    let mut degraded_samples = 0usize;

    while soak_start.elapsed() < HORIZON {
        sup.tick();
        let now = soak_start.elapsed();
        for event in schedule.due(last_poll, now) {
            let name = names[event.target];
            match event.fault {
                ChaosFault::Kill => {
                    if let Some(pid) = sup.pid(name) {
                        swsimd::net::chaos::send_signal(pid, "KILL");
                    }
                }
                ChaosFault::Stop { ms } | ChaosFault::Delay { ms } => {
                    if let Some(pid) = sup.pid(name) {
                        if swsimd::net::chaos::send_signal(pid, "STOP") {
                            std::thread::spawn(move || {
                                std::thread::sleep(Duration::from_millis(ms));
                                swsimd::net::chaos::send_signal(pid, "CONT");
                            });
                        }
                    }
                }
                ChaosFault::Partition { attempts } => {
                    let _ = plan.clone().refuse_connect(event.target, attempts);
                }
            }
        }
        last_poll = now;

        samples += 1;
        match gateway.query(&qe, TOP_K, Some(Duration::from_secs(3))) {
            Ok(resp) => {
                // Invariant 1: whatever slices answered, the ranking
                // over them is exact. A wrong answer fails instantly.
                assert_eq!(
                    as_pairs(&resp.hits),
                    reference(&resp.missing_shards),
                    "wrong answer under chaos (seed {seed}, missing {:?})",
                    resp.missing_shards
                );
                if resp.degraded {
                    degraded_samples += 1;
                    window_start.get_or_insert_with(Instant::now);
                } else if let Some(opened) = window_start.take() {
                    max_window = max_window.max(opened.elapsed());
                }
            }
            Err(_) => {
                // Total refusal counts as a degraded moment, never as
                // a wrong answer.
                degraded_samples += 1;
                window_start.get_or_insert_with(Instant::now);
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }

    // Invariant 2: with the schedule exhausted, the cluster must heal
    // back to full, exact answers within the SLO.
    let recovery_deadline = Instant::now() + RECOVERY_SLO;
    loop {
        sup.tick();
        if let Ok(resp) = gateway.query(&qe, TOP_K, Some(Duration::from_secs(3))) {
            if !resp.degraded {
                assert_eq!(
                    as_pairs(&resp.hits),
                    reference(&[]),
                    "post-recovery ranking must match the unsharded oracle (seed {seed})"
                );
                if let Some(opened) = window_start.take() {
                    max_window = max_window.max(opened.elapsed());
                }
                break;
            }
        }
        assert!(
            Instant::now() < recovery_deadline,
            "degraded window failed to close within {RECOVERY_SLO:?} (seed {seed}, states {:?})",
            sup.states()
        );
        std::thread::sleep(Duration::from_millis(100));
    }
    assert!(
        max_window <= RECOVERY_SLO,
        "longest degraded window {max_window:?} exceeded the {RECOVERY_SLO:?} SLO (seed {seed})"
    );

    // Invariant 3: self-healing is observable. Every scheduled kill
    // (and every wedge-kill the stops provoked) became a respawn.
    let restarts_after: u64 = names.iter().map(|n| sup.metrics().restarts(n).get()).sum();
    if kills_scheduled > 0 {
        assert!(
            restarts_after > restarts_before,
            "schedule had {kills_scheduled} kills but restarts_total never moved (seed {seed})"
        );
    }
    let scrape = swsimd::obs::global().prometheus_text();
    for family in [
        "swsimd_supervisor_restarts_total",
        "swsimd_crash_loop_quarantines_total",
        "swsimd_standby_promotions_total",
        "swsimd_supervisor_recovery_seconds",
    ] {
        assert!(
            family_present(&scrape, family),
            "{family} missing from scrape"
        );
    }
    eprintln!(
        "soak: {samples} samples, {degraded_samples} degraded, \
         {} restarts, longest window {max_window:?}",
        restarts_after - restarts_before
    );

    prober.stop();
    sup.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

fn family_present(scrape: &str, family: &str) -> bool {
    scrape.lines().any(|l| l.starts_with(family))
}

/// A persistently-faulted primary must trip the crash-loop breaker —
/// quarantine, not an infinite respawn spin — and the warm standby on
/// the same slice must be promoted to live duty via the Activate
/// frame.
#[test]
fn crash_loop_quarantines_and_promotes_the_standby() {
    let dir = test_dir("loop");
    let db: Database = generate_database(&SynthConfig {
        n_seqs: 12,
        seed: 921,
        median_len: 30.0,
        max_len: 60,
        ..Default::default()
    });
    let db_path = dir.join("db.fasta");
    write_fasta(
        &db_path,
        &(0..db.len())
            .map(|i| (db.record(i).id.clone(), db.record(i).seq.clone()))
            .collect::<Vec<_>>(),
    );

    // The primary is a persistent fault: it exits 1 immediately, every
    // time. The standby is a real shard, hot but refusing queries.
    let primary = ChildSpec {
        name: "loop-primary".into(),
        slice: Some(0),
        program: "/bin/sh".into(),
        args: vec!["-c".into(), "exit 1".into()],
        addr: "127.0.0.1:1".into(),
        standby: false,
    };
    let mut standby = shard_spec("loop-standby", db_path.to_str().unwrap(), 0, true);
    standby.args[7] = "1".into(); // --shards 1: single-slice topology
    let standby_addr = standby.addr.clone();

    let mut sup = Supervisor::new(
        SupervisorConfig {
            probe_interval: Duration::from_millis(50),
            probe_timeout: Duration::from_millis(500),
            backoff_base: Duration::from_millis(1),
            backoff_max: Duration::from_millis(5),
            crash_loop_window: Duration::from_secs(30),
            crash_loop_threshold: 3,
            canary: Alphabet::protein().encode(CANARY),
            ..Default::default()
        },
        vec![primary, standby],
    );
    sup.start().expect("spawn primary + standby");

    // Let the standby finish booting before driving the crash loop:
    // promotion connects to it the moment quarantine trips, and death
    // timestamps are taken at reap time, so holding ticks is safe.
    let boot_deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Ok(mut c) = NetClient::connect(&standby_addr, Duration::from_millis(200)) {
            if let Ok(pong) = c.ping() {
                assert!(pong.draining, "an unpromoted standby must pong draining");
                break;
            }
        }
        assert!(
            Instant::now() < boot_deadline,
            "standby never became pingable"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    // Pre-promotion, the standby refuses real work.
    let qe = Alphabet::protein().encode(CANARY);
    let refusal = NetClient::connect(&standby_addr, Duration::from_millis(500))
        .unwrap()
        .query(&qe, 3, 0);
    assert!(
        refusal.is_err(),
        "standby must refuse queries before promotion: {refusal:?}"
    );

    // Drive the supervisor until the breaker trips: death -> backoff
    // -> respawn -> death ... -> quarantine + promotion, never a spin.
    let deadline = Instant::now() + Duration::from_secs(30);
    while sup.metrics().quarantines.get() == 0 {
        sup.tick();
        assert!(
            Instant::now() < deadline,
            "crash loop never quarantined: {:?}",
            sup.states()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        sup.state("loop-primary"),
        Some(ChildState::Quarantined),
        "a crash-looping child must be parked, not respawned forever"
    );
    assert!(
        sup.metrics().promotions.get() >= 1,
        "quarantining a slice with a warm standby must promote it"
    );

    // The promoted standby now answers: pong says live, queries land.
    let served_deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut c = NetClient::connect(&standby_addr, Duration::from_millis(500))
            .expect("promoted standby reachable");
        let pong = c.ping().expect("promoted standby pongs");
        assert!(!pong.draining, "promotion must clear the draining bit");
        if let Ok(reply) = c.query(&qe, 3, 0) {
            assert!(!reply.hits.is_empty(), "promoted standby must score hits");
            break;
        }
        assert!(
            Instant::now() < served_deadline,
            "promoted standby kept refusing queries"
        );
        std::thread::sleep(Duration::from_millis(100));
    }

    sup.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
