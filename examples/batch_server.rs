//! Scenario 2: the centralized batch-alignment server (§IV-G, §VI).
//!
//! Spins up a `BatchServer` over a shared database, fires queries from
//! several concurrent clients, and compares per-query latency and total
//! throughput against one-at-a-time processing — demonstrating the
//! paper's accumulate-then-compute recommendation.
//!
//! Also exercises the fault-tolerant client surface: every request is
//! one `Request` admitted by `send`, which returns
//! `Result<_, ServeError>` and sheds load instead of blocking when the
//! bounded job queue is full; a request deadline bounds tail latency
//! in `wait`. Final server health counters are printed at exit.
//!
//! ```text
//! cargo run --release --example batch_server [n_seqs] [n_queries]
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use swsimd::matrices::{blosum62, Alphabet};
use swsimd::runner::{BatchServer, Request, ServerConfig};
use swsimd::{Aligner, ServeError};

use swsimd::seq::{generate_database, generate_exact, SynthConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let n_seqs: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(1_000);
    let n_queries: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(16);

    let db = Arc::new(generate_database(&SynthConfig {
        n_seqs,
        max_len: 1_000,
        ..Default::default()
    }));
    let alphabet = Alphabet::protein();
    let queries: Vec<Vec<u8>> = (0..n_queries)
        .map(|i| alphabet.encode(&generate_exact(150 + 20 * i, i as u64).seq))
        .collect();
    println!(
        "database: {} sequences / {} residues; {} queries",
        db.len(),
        db.total_residues(),
        n_queries
    );

    // --- batched server -------------------------------------------------
    let server = BatchServer::start(
        db.clone(),
        ServerConfig {
            batch_size: 8,
            max_wait: Duration::from_millis(30),
            ..Default::default()
        },
        || Aligner::builder().matrix(blosum62()),
    );
    let client = server.client();
    let start = Instant::now();
    let mut tops = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for q in &queries {
            let c = client.clone();
            // A deadline bounds queue + compute + reply; an expired
            // deadline is a typed error, not a hang.
            let req = Request::new(q.clone(), 1).with_timeout(Duration::from_secs(30));
            handles.push(scope.spawn(move || c.send(req)?.wait()));
        }
        for h in handles {
            match h.join().expect("client thread") {
                Ok(outcome) => tops.push(outcome.hits[0].clone()),
                Err(ServeError::DeadlineExceeded) => {
                    println!("query missed its deadline (kept going)")
                }
                Err(e) => panic!("server failed: {e}"),
            }
        }
    });
    let batched_secs = start.elapsed().as_secs_f64();

    // Non-blocking admission: a burst is admitted up to the queue
    // bound and the rest is shed with QueueFull instead of blocking the
    // caller; admitted requests are awaited afterwards.
    let mut admitted = Vec::new();
    let mut shed = 0usize;
    for q in &queries {
        match client.submit(q.clone(), 1, None) {
            Ok(pending) => admitted.push(pending),
            Err(ServeError::QueueFull { .. }) => shed += 1,
            Err(e) => panic!("server failed: {e}"),
        }
    }
    println!("burst: {} admitted, {shed} shed", admitted.len());
    for pending in admitted {
        pending.wait().expect("admitted request served");
    }

    let stats = server.shutdown();
    println!(
        "batched server : {:.3}s for {} queries in {} batches ({} full)",
        batched_secs, stats.queries, stats.batches, stats.full_batches
    );

    // --- one-at-a-time reference ----------------------------------------
    let start = Instant::now();
    let mut aligner = Aligner::builder().matrix(blosum62()).build();
    for (q, expect) in queries.iter().zip(&tops) {
        let hits = aligner.search(q, &db, 1);
        assert_eq!(&hits[0], expect, "server and direct search disagree");
    }
    let serial_secs = start.elapsed().as_secs_f64();
    println!("one-at-a-time  : {serial_secs:.3}s (same results ✓)");
    println!(
        "batching kept {} queries in {} batches; per-query amortization {:.2}x",
        stats.queries,
        stats.batches,
        stats.queries as f64 / stats.batches.max(1) as f64
    );
    println!("server health  : {stats}");
}
