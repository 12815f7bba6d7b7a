//! Streaming-path soak: a real 3-shard cluster behind an in-process
//! gateway front, chaos-interrupted mid-stream and resumed from its
//! token.
//!
//! The flow mirrors an operator's worst day: a client opens a streamed
//! query with a tiny credit window and stalls (never grants), one
//! shard is SIGKILLed mid-stream, then the client connection drops.
//! The shard is restarted over the same journal directory, and a new
//! client resumes from the token the first session minted. The test
//! asserts the tier's three streaming invariants:
//!
//! 1. **Exactness across the seam**: the pre-interrupt chunks plus the
//!    post-resume chunks fold to a ranking byte-identical to the
//!    unsharded oracle, and the resumed stream's `Fin` digest proves
//!    it end-to-end.
//! 2. **Bounded buffering**: the gateway never holds more than the
//!    credit window's worth of merged-but-undelivered chunk bytes per
//!    client (`swsimd_stream_buffered_peak_bytes`).
//! 3. **Observability**: the interruption and recovery are visible in
//!    `swsimd_stream_resumes_total`, `swsimd_stream_chunks_total`,
//!    `swsimd_stream_credit_stalls_total`, and the abandon ledger.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use swsimd::matrices::Alphabet;
use swsimd::net::{
    ranking_digest, Gateway, GatewayConfig, GatewayServer, NetClient, RetryPolicy, StreamEvent,
    Supervisor,
};
use swsimd::runner::{parallel_search, rank_hits, PoolConfig, Request};
use swsimd::seq::{generate_database, generate_exact, SynthConfig};
use swsimd::{Aligner, Database, Hit};

const TOP_K: usize = 6;
const SLICES: u32 = 3;
/// Journal chunks per shard (= shard worker threads): enough that a
/// 2-chunk client window is guaranteed to stall mid-stream.
const SHARD_THREADS: u32 = 4;
/// Session 1's deliberately tiny window: exactly this many chunks are
/// forwarded before the front stalls on credit.
const STALL_CREDIT: u32 = 2;
/// Session 2's window, generous enough to drain without grants
/// mattering much (grants are still exercised per chunk).
const RESUME_CREDIT: u32 = 64;
/// Wire size of one chunk as the gateway ledger accounts it.
const CHUNK_BYTES_MAX: u64 = 24 + TOP_K as u64 * 16;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_swsimd")
}

/// A fresh temporary directory private to one test: the tests in this
/// binary run concurrently, so a shared directory would let one test
/// delete the other's files.
fn test_dir(test: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("swsimd-stream-soak-{test}-{}", std::process::id()));
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

/// Spawn one durable shard on a fixed (SO_REUSEADDR) address so a
/// respawn can rebind it, journaling into `journal_dir`.
fn spawn_shard(db_path: &str, addr: &str, slice: u32, journal_dir: &std::path::Path) -> Child {
    let mut child = Command::new(bin())
        .args([
            "shard",
            db_path,
            "--listen",
            addr,
            "--shard-index",
            &slice.to_string(),
            "--shards",
            &SLICES.to_string(),
            "--threads",
            &SHARD_THREADS.to_string(),
            "--journal",
            journal_dir.to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn shard");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read bound address");
    assert!(
        line.trim().strip_prefix("listening on ").is_some(),
        "unexpected first line: {line:?}"
    );
    child
}

fn wait_pingable(addr: &str, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Ok(mut c) = NetClient::connect(addr, Duration::from_millis(300)) {
            if c.ping().is_ok() {
                return;
            }
        }
        assert!(Instant::now() < deadline, "{what} never became pingable");
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn wait_exit(child: &mut Child, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if child.try_wait().unwrap().is_some() {
            return;
        }
        assert!(Instant::now() < deadline, "{what} did not exit in time");
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Value of an unlabelled counter/gauge family in a Prometheus scrape.
fn scrape_value(scrape: &str, family: &str) -> u64 {
    scrape
        .lines()
        .find_map(|l| {
            let rest = l.strip_prefix(family)?;
            rest.trim().parse::<f64>().ok()
        })
        .unwrap_or_else(|| panic!("{family} missing from scrape")) as u64
}

#[test]
fn interrupted_stream_resumes_to_oracle_exact_ranking() {
    let dir = test_dir("interrupted");
    let db: Database = generate_database(&SynthConfig {
        n_seqs: 24,
        seed: 1001,
        median_len: 40.0,
        max_len: 90,
        ..Default::default()
    });
    let query_rec = generate_exact(40, 1002);
    let db_path = dir.join("db.fasta");
    write_fasta(
        &db_path,
        &(0..db.len())
            .map(|i| (db.record(i).id.clone(), db.record(i).seq.clone()))
            .collect::<Vec<_>>(),
    );

    // Unsharded oracle: the ranking every stitched stream must equal.
    let qe = Alphabet::protein().encode(&query_rec.seq);
    let oracle = rank_hits(
        parallel_search(
            &qe,
            &db,
            &PoolConfig {
                threads: 2,
                ..Default::default()
            },
            || Aligner::builder().matrix(swsimd::matrices::blosum62()),
        )
        .hits,
        TOP_K,
    );
    let oracle_digest = ranking_digest(&oracle);

    // Three durable shard processes on pre-picked rebindable ports.
    let db_str = db_path.to_str().unwrap().to_string();
    let addrs: Vec<String> = (0..SLICES)
        .map(|_| Supervisor::pick_addr().unwrap())
        .collect();
    let journals: Vec<std::path::PathBuf> = (0..SLICES)
        .map(|s| dir.join(format!("journal-{s}")))
        .collect();
    for j in &journals {
        std::fs::create_dir_all(j).unwrap();
    }
    let mut shards: Vec<Child> = (0..SLICES)
        .map(|s| spawn_shard(&db_str, &addrs[s as usize], s, &journals[s as usize]))
        .collect();
    for (s, addr) in addrs.iter().enumerate() {
        wait_pingable(addr, &format!("shard {s}"));
    }

    // Gateway + front in-process so the scrape (and the buffered-bytes
    // ledger) are assertable directly. Breakers are configured lenient:
    // the mid-soak kill must not quarantine the slice past its restart.
    let gateway = Gateway::new(GatewayConfig {
        shards: addrs.iter().map(|a| vec![a.clone()]).collect(),
        retry: RetryPolicy {
            budget: 3,
            ..Default::default()
        },
        connect_timeout: Duration::from_millis(500),
        request_timeout: Duration::from_secs(10),
        strike_threshold: 32,
        readmit_after: 1,
        ..Default::default()
    });
    let front = GatewayServer::start_with_idle_timeout(
        gateway,
        "127.0.0.1:0",
        Duration::from_secs(2),
        Duration::from_secs(30),
    )
    .expect("front binds");
    let front_addr = front.local_addr().to_string();

    // ---- Session 1: stream with a tiny window, stall, get killed. ----
    let mut client = NetClient::connect(&front_addr, Duration::from_secs(5)).unwrap();
    let mut handle = client
        .stream(&Request::new(qe.clone(), TOP_K), STALL_CREDIT)
        .expect("open stream");
    let mut chunks_seen = 0u32;
    while chunks_seen < STALL_CREDIT {
        match handle.next().expect("session 1 stream event") {
            StreamEvent::Chunk { .. } => chunks_seen += 1, // never grant
            StreamEvent::Progress { .. } => {}
            StreamEvent::Fin(fin) => panic!(
                "stream finished before the window closed: {fin:?} \
                 ({SLICES} shards x {SHARD_THREADS} chunks must exceed {STALL_CREDIT})"
            ),
        }
    }
    assert!(!handle.finished(), "window exhausted, stream must be live");
    let pre_ranking = handle.ranking().to_vec();
    let token = handle.token();
    assert!(
        !token.cursors.is_empty(),
        "a mid-stream token must carry per-slice cursors"
    );
    assert_eq!(token.top_k, TOP_K as u32);

    // The stalled window is the per-client buffering bound: session 1
    // buffered at most its window plus one in-flight chunk per reader.
    let stall_deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let scrape = swsimd::obs::global().prometheus_text();
        if scrape_value(&scrape, "swsimd_stream_credit_stalls_total") >= 1 {
            break;
        }
        assert!(
            Instant::now() < stall_deadline,
            "front never recorded the credit stall"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    let peak_stalled = scrape_value(
        &swsimd::obs::global().prometheus_text(),
        "swsimd_stream_buffered_peak_bytes",
    );
    let session1_bound = (STALL_CREDIT as u64 + SLICES as u64 + 1) * CHUNK_BYTES_MAX;
    assert!(
        peak_stalled <= session1_bound,
        "stalled-session buffered peak {peak_stalled}B exceeds the \
         credit-window bound {session1_bound}B"
    );

    // Chaos: SIGKILL one shard mid-stream, then drop the client
    // connection without draining or granting.
    shards[1].kill().expect("SIGKILL shard 1");
    wait_exit(&mut shards[1], "killed shard");
    drop(handle);
    drop(client);

    // Restart the dead shard over the same journal directory and the
    // same address.
    shards[1] = spawn_shard(&db_str, &addrs[1], 1, &journals[1]);
    wait_pingable(&addrs[1], "restarted shard 1");

    // ---- Session 2: resume from the token, drain to Fin. ----
    // The restarted shard may need a breaker readmission attempt or
    // two, so a degraded Fin is retried rather than failed instantly;
    // a *wrong* ranking still fails on the spot.
    let resume_deadline = Instant::now() + Duration::from_secs(60);
    let (post_ranking, fin) = loop {
        let mut client = NetClient::connect(&front_addr, Duration::from_secs(5)).unwrap();
        let mut resumed = client
            .resume_stream(&token, &qe, 0, RESUME_CREDIT)
            .expect("resume stream");
        let fin = loop {
            match resumed.next().expect("session 2 stream event") {
                StreamEvent::Chunk { cursor, shard, .. } => {
                    // The front must not re-send what the token covers.
                    if let Some(&(_, seen)) = token.cursors.iter().find(|&&(s, _)| s == shard) {
                        assert!(
                            cursor > seen,
                            "slice {shard} chunk {cursor} was already delivered \
                             (token cursor {seen})"
                        );
                    }
                    resumed.grant(1).expect("grant credit");
                }
                StreamEvent::Progress { .. } => {}
                StreamEvent::Fin(fin) => break fin,
            }
        };
        if !fin.degraded {
            break (resumed.ranking().to_vec(), fin);
        }
        assert!(
            Instant::now() < resume_deadline,
            "resumed stream stayed degraded past the deadline: {fin:?}"
        );
        std::thread::sleep(Duration::from_millis(250));
    };

    // Invariant 1: the stitched ranking is byte-identical to the
    // oracle, and the Fin digest proves it without trusting the test's
    // own fold.
    let stitched = rank_hits(
        pre_ranking
            .iter()
            .chain(post_ranking.iter())
            .cloned()
            .collect(),
        TOP_K,
    );
    assert_eq!(
        as_pairs(&stitched),
        as_pairs(&oracle),
        "stitched stream diverged from the unsharded oracle"
    );
    assert_eq!(
        fin.digest, oracle_digest,
        "Fin digest must describe the complete oracle ranking"
    );
    assert_eq!(
        ranking_digest(&stitched),
        fin.digest,
        "client-side stitched digest must match the server's Fin digest"
    );

    // Invariants 2 + 3: bounded buffering, observable recovery.
    let scrape = swsimd::obs::global().prometheus_text();
    assert!(
        scrape_value(&scrape, "swsimd_stream_resumes_total") >= 1,
        "the token resume must be counted"
    );
    assert!(
        scrape_value(&scrape, "swsimd_stream_chunks_total") > 0,
        "forwarded chunks must be counted"
    );
    assert!(
        scrape_value(&scrape, "swsimd_stream_credit_stalls_total") >= 1,
        "session 1's stall must be counted"
    );
    let peak = scrape_value(&scrape, "swsimd_stream_buffered_peak_bytes");
    let session2_bound = (RESUME_CREDIT as u64 + SLICES as u64 + 1) * CHUNK_BYTES_MAX;
    assert!(
        peak <= session2_bound,
        "buffered peak {peak}B exceeds the credit-window bound {session2_bound}B"
    );
    assert!(
        scrape.contains("swsimd_stream_abandoned_total"),
        "abandon ledger missing from scrape"
    );

    eprintln!(
        "soak: {} pre-interrupt chunks, fin digest {:08x}, buffered peak {peak}B",
        chunks_seen, fin.digest
    );

    // Clean teardown: SIGTERM-equivalent drain via kill, then exits.
    front.shutdown();
    for (i, shard) in shards.iter_mut().enumerate() {
        let _ = shard.kill();
        wait_exit(shard, &format!("shard {i}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A resume whose query bytes do not hash to the token's `query_crc`
/// must be refused with `BadResumeToken` before any shard work starts.
#[test]
fn resume_with_mismatched_query_is_refused() {
    let dir = test_dir("mismatched");
    let db: Database = generate_database(&SynthConfig {
        n_seqs: 8,
        seed: 1003,
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
    let addr = Supervisor::pick_addr().unwrap();
    let journal = dir.join("journal-0");
    std::fs::create_dir_all(&journal).unwrap();
    let db_str = db_path.to_str().unwrap().to_string();
    let mut shard = Command::new(bin())
        .args([
            "shard",
            &db_str,
            "--listen",
            &addr,
            "--shard-index",
            "0",
            "--shards",
            "1",
            "--threads",
            "2",
            "--journal",
            journal.to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn shard");
    {
        let stdout = shard.stdout.take().expect("stdout piped");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line).unwrap();
    }
    wait_pingable(&addr, "shard");

    let gateway = Gateway::new(GatewayConfig {
        shards: vec![vec![addr.clone()]],
        connect_timeout: Duration::from_millis(500),
        request_timeout: Duration::from_secs(10),
        ..Default::default()
    });
    let front = GatewayServer::start_with_idle_timeout(
        gateway,
        "127.0.0.1:0",
        Duration::from_secs(2),
        Duration::from_secs(30),
    )
    .expect("front binds");
    let front_addr = front.local_addr().to_string();

    let query = Alphabet::protein().encode(&generate_exact(30, 1004).seq);
    let mut client = NetClient::connect(&front_addr, Duration::from_secs(5)).unwrap();
    let mut handle = client
        .stream(&Request::new(query.clone(), 3), 1)
        .expect("open stream");
    // Pull at least one event so the stream is real, then mint a token.
    let _ = handle.next().expect("first stream event");
    let token = handle.token();
    drop(handle);
    drop(client);

    let wrong_query = Alphabet::protein().encode(&generate_exact(30, 1005).seq);
    assert_ne!(wrong_query, query);
    let mut client = NetClient::connect(&front_addr, Duration::from_secs(5)).unwrap();
    let mut resumed = client
        .resume_stream(&token, &wrong_query, 0, 4)
        .expect("resume frame writes");
    match resumed.next() {
        Err(swsimd::net::NetError::Remote(swsimd::net::wire::RemoteError::BadResumeToken)) => {}
        other => panic!("mismatched resume must be BadResumeToken, got {other:?}"),
    }

    front.shutdown();
    let _ = shard.kill();
    wait_exit(&mut shard, "shard");
    let _ = std::fs::remove_dir_all(&dir);
}
