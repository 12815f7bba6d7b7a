//! Process-level cluster test: real `swsimd shard` / `swsimd serve`
//! processes wired over TCP. Launches a 3-shard cluster behind a
//! gateway, proves the merged ranking matches the in-process
//! reference, SIGKILLs one shard, and asserts the cluster degrades to
//! a correct partial result (typed, counted in the Prometheus scrape)
//! instead of failing — then drains the survivors with SIGTERM and
//! expects clean zero exits.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use swsimd::matrices::{blosum62, Alphabet};
use swsimd::runner::{parallel_search, rank_hits, PoolConfig};
use swsimd::seq::{generate_database, generate_exact, SynthConfig};
use swsimd::{Aligner, Database, Hit};

const TOP_K: usize = 6;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_swsimd")
}

fn cluster_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("swsimd-net-cluster-{}", std::process::id()));
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

/// Spawn a swsimd subcommand and wait for its `listening on <addr>`
/// line (printed after bind, before serving).
fn spawn_listener(args: &[&str]) -> (Child, String) {
    let mut child = Command::new(bin())
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn swsimd");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read bound address");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected first line: {line:?}"))
        .to_string();
    (child, addr)
}

/// `id \t db#<idx> \t score=<s>` lines from `swsimd query`.
fn parse_hits(stdout: &str) -> Vec<(usize, i32)> {
    stdout
        .lines()
        .filter_map(|l| {
            let mut parts = l.split('\t');
            let _id = parts.next()?;
            let idx = parts.next()?.strip_prefix("db#")?.parse().ok()?;
            let score = parts.next()?.strip_prefix("score=")?.parse().ok()?;
            Some((idx, score))
        })
        .collect()
}

fn as_pairs(hits: &[Hit]) -> Vec<(usize, i32)> {
    hits.iter().map(|h| (h.db_index, h.score)).collect()
}

fn sigterm(child: &Child) {
    let _ = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status();
}

fn wait_exit(child: &mut Child, what: &str) -> std::process::ExitStatus {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Some(status) = child.try_wait().unwrap() {
            return status;
        }
        assert!(Instant::now() < deadline, "{what} did not exit in time");
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn three_shard_cluster_survives_a_killed_shard() {
    let dir = cluster_dir();
    let db: Database = generate_database(&SynthConfig {
        n_seqs: 24,
        seed: 901,
        median_len: 40.0,
        max_len: 90,
        ..Default::default()
    });
    let query_rec = generate_exact(40, 902);
    let db_path = dir.join("db.fasta");
    let q_path = dir.join("query.fasta");
    write_fasta(
        &db_path,
        &(0..db.len())
            .map(|i| (db.record(i).id.clone(), db.record(i).seq.clone()))
            .collect::<Vec<_>>(),
    );
    write_fasta(&q_path, &[(query_rec.id.clone(), query_rec.seq.clone())]);

    let qe = Alphabet::protein().encode(&query_rec.seq);
    let reference = |top_k: usize, exclude: Option<&std::ops::Range<usize>>| -> Vec<(usize, i32)> {
        let out = parallel_search(
            &qe,
            &db,
            &PoolConfig {
                threads: 2,
                ..Default::default()
            },
            || Aligner::builder().matrix(blosum62()),
        );
        let hits: Vec<Hit> = out
            .hits
            .into_iter()
            .filter(|h| exclude.is_none_or(|r| !r.contains(&h.db_index)))
            .collect();
        as_pairs(&rank_hits(hits, top_k))
    };

    // Boot the cluster: three shard workers plus the gateway.
    let db_str = db_path.to_str().unwrap();
    let mut shards = Vec::new();
    let mut shard_addrs = Vec::new();
    for i in 0..3 {
        let idx = i.to_string();
        let (child, addr) = spawn_listener(&[
            "shard",
            db_str,
            "--listen",
            "127.0.0.1:0",
            "--shard-index",
            &idx,
            "--shards",
            "3",
            "--threads",
            "1",
        ]);
        shards.push(child);
        shard_addrs.push(addr);
    }
    let topology = shard_addrs.join(";");
    let (mut gateway, gw_addr) = spawn_listener(&[
        "serve",
        "--shards",
        &topology,
        "--listen",
        "127.0.0.1:0",
        "--retry-budget",
        "2",
        "--strike-threshold",
        "1",
        "--connect-timeout",
        "500",
        "--probe-interval",
        "200",
    ]);

    // Healthy cluster: the merged ranking equals the unsharded oracle.
    let q_str = q_path.to_str().unwrap();
    let top = TOP_K.to_string();
    let healthy = Command::new(bin())
        .args(["query", &gw_addr, q_str, "--top", &top])
        .output()
        .unwrap();
    assert!(
        healthy.status.success(),
        "healthy query failed: {healthy:?}"
    );
    assert_eq!(
        parse_hits(&String::from_utf8_lossy(&healthy.stdout)),
        reference(TOP_K, None),
        "sharded cluster must reproduce the unsharded ranking"
    );

    // SIGKILL shard 1: no drain, no goodbye — the gateway must absorb
    // it within its retry budget and typed-degrade.
    shards[1].kill().unwrap();
    let _ = shards[1].wait();
    let killed_range = db.partition(3)[1].clone();

    let degraded = Command::new(bin())
        .args([
            "query",
            &gw_addr,
            q_str,
            "--top",
            &top,
            "--deadline",
            "20000",
        ])
        .output()
        .unwrap();
    assert!(
        degraded.status.success(),
        "degraded query must still succeed: {degraded:?}"
    );
    let stderr = String::from_utf8_lossy(&degraded.stderr);
    assert!(
        stderr.contains("degraded") && stderr.contains('1'),
        "degradation must be surfaced with the missing slice: {stderr}"
    );
    assert_eq!(
        parse_hits(&String::from_utf8_lossy(&degraded.stdout)),
        reference(TOP_K, Some(&killed_range)),
        "surviving slices must stay exact"
    );

    // The gateway's scrape records the failure story.
    let scrape = Command::new(bin())
        .args(["net-metrics", &gw_addr])
        .output()
        .unwrap();
    assert!(scrape.status.success());
    let text = String::from_utf8_lossy(&scrape.stdout);
    for family in [
        "swsimd_gateway_requests_total",
        "swsimd_shard_down_total",
        "swsimd_degraded_responses_total",
        "swsimd_hedged_requests_total",
        "swsimd_net_retries_total",
        "swsimd_shard_up",
    ] {
        assert!(
            text.contains(family),
            "{family} missing from scrape:\n{text}"
        );
    }
    let counted = |family: &str| -> f64 {
        text.lines()
            .filter(|l| l.starts_with(family))
            .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
            .sum()
    };
    assert!(counted("swsimd_degraded_responses_total") >= 1.0);
    assert!(counted("swsimd_shard_down_total") >= 1.0);

    // SIGTERM the survivors: graceful drain, exit code 0.
    sigterm(&gateway);
    assert!(
        wait_exit(&mut gateway, "gateway").success(),
        "gateway must drain clean on SIGTERM"
    );
    for (i, shard) in shards.iter_mut().enumerate() {
        if i == 1 {
            continue; // already SIGKILLed
        }
        sigterm(shard);
        assert!(
            wait_exit(shard, "shard").success(),
            "shard {i} must drain clean on SIGTERM"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
