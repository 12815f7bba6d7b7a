//! End-to-end work-governor tests: stuck-worker reaping through the
//! batch server, mid-compute deadline cancellation at the kernel
//! check interval, and cancellation safety of the durable search
//! journal (a cancelled scan leaves a clean prefix that resumes
//! bit-identically).

use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use swsimd::core::{CancelReason, CancelToken, GovernorScope, CANCEL_CHECK_PERIOD};
use swsimd::matrices::{blosum62, Alphabet};
use swsimd::runner::{parallel_search, BatchServer, PoolConfig, ServerConfig};
use swsimd::seq::{generate_database, generate_exact, SynthConfig};
use swsimd::{checkpointed_search, read_journal, resume_search, JournalWriter};
use swsimd::{Aligner, FaultPlan};

fn small_db() -> swsimd::Database {
    generate_database(&SynthConfig {
        n_seqs: 32,
        max_len: 120,
        median_len: 60.0,
        ..Default::default()
    })
}

fn enc(len: usize, seed: u64) -> Vec<u8> {
    Alphabet::protein().encode(&generate_exact(len, seed).seq)
}

/// Acceptance path: a FaultPlan-hung worker is reaped by the stall
/// watchdog, the query is still answered exactly via the scalar
/// retry, and the fire shows up in `health_line()` and the Prometheus
/// scrape under `cancelled_total{reason="watchdog"}`.
#[test]
fn hung_worker_is_reaped_and_query_still_answered_exactly() {
    let db = Arc::new(small_db());
    let q = enc(40, 7);
    let mut direct = Aligner::builder().matrix(blosum62()).build();
    let want = direct.search(&q, &db, 5);

    let server = BatchServer::start(
        db,
        ServerConfig {
            batch_size: 1,
            max_wait: Duration::from_millis(1),
            // Wedge every slot-0 job far past the stall timeout.
            fault_plan: FaultPlan::new().delay_at(0, Duration::from_millis(400)),
            stall_timeout: Some(Duration::from_millis(50)),
            ..Default::default()
        },
        || Aligner::builder().matrix(blosum62()),
    );
    let client = server.client();
    let start = Instant::now();
    let hits = client
        .submit(q, 5, None)
        .and_then(|p| p.wait())
        .expect("reaped and retried, not hung")
        .hits;
    assert_eq!(hits, want, "scalar retry after the reap stays exact");
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "the watchdog must bound a wedged worker"
    );

    let line = server.health_line();
    assert!(line.contains("watchdog_fires=1"), "{line}");
    assert!(line.contains("cancelled_watchdog=1"), "{line}");
    let text = server.prometheus_text();
    assert!(
        text.contains("swsimd_server_watchdog_fires_total"),
        "{text}"
    );
    assert!(text.contains("swsimd_server_cancelled_total"), "{text}");
    assert!(text.contains("reason=\"watchdog\""), "{text}");

    let stats = server.shutdown();
    assert_eq!(stats.watchdog_fires, 1);
    assert_eq!(stats.cancelled_watchdog, 1);
    assert_eq!(stats.retries, 1);
    assert_eq!(stats.worker_panics, 0, "a stall is not a panic");
}

fn governor_cases() -> u32 {
    std::env::var("SWSIMD_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: governor_cases(),
        ..ProptestConfig::default()
    })]

    /// A cancellation observed mid-compute stops the kernel within one
    /// check interval: with the token already cancelled, the DP loop
    /// must bail out after at most one `CANCEL_CHECK_PERIOD` of
    /// anti-diagonals per precision attempt, never walking the full
    /// `m + n - 1`.
    #[test]
    fn cancelled_alignment_stops_within_one_check_interval(
        m in 300usize..600,
        n in 300usize..600,
    ) {
        let qe = enc(m, m as u64);
        let te = enc(n, n as u64 + 1);
        let mut aligner = Aligner::builder()
            .matrix(blosum62())
            .traceback(false)
            .build();
        let token = CancelToken::new();
        token.cancel(CancelReason::Deadline);
        let _scope = GovernorScope::install(token);
        // The infallible API returns a garbage score under
        // cancellation; only the amount of work done matters here.
        let _ = aligner.align(&qe, &te);
        let d = aligner.stats().diagonals;
        let full = (m + n - 1) as u64;
        let bound = 3 * (CANCEL_CHECK_PERIOD as u64 + 1);
        prop_assert!(
            d <= bound && d < full,
            "cancelled kernel walked {d} diagonals (bound {bound}, full {full})"
        );
    }
}

/// Cancellation safety of the durable scan: killing a checkpointed
/// search mid-flight (cooperative cancel while one chunk is wedged)
/// must leave the journal a clean prefix of fully completed chunks,
/// and resuming it without the governor must produce hits
/// bit-identical to an uninterrupted run.
#[test]
fn cancel_mid_scan_leaves_clean_prefix_and_resume_is_bit_identical() {
    let db = small_db();
    let q = enc(40, 9);
    let make = || Aligner::builder().matrix(blosum62());
    let threads = 4;
    let plain = PoolConfig {
        threads,
        ..Default::default()
    };
    let want = parallel_search(&q, &db, &plain, make).hits;

    // Interrupted run: chunk 2 stalls, and the parent token is
    // cancelled while the scan is in flight.
    let token = CancelToken::new();
    let killer = {
        let t = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(40));
            t.cancel(CancelReason::ClientDrop);
        })
    };
    let cfg = PoolConfig {
        threads,
        fault_plan: FaultPlan::new().delay_at(2, Duration::from_millis(250)),
        cancel: Some(token),
        ..Default::default()
    };
    let mut journal = JournalWriter::new(Vec::new()).expect("in-memory journal header");
    let result = checkpointed_search(&q, &db, &cfg, make, &mut journal);
    killer.join().expect("killer thread");
    assert!(result.is_err(), "a cancelled scan must report failure");

    // The journal is a clean prefix: every record intact, fewer
    // chunks than a complete scan (the error surfaced before the
    // failed chunk could be appended).
    let bytes = journal.into_inner();
    let recovered = read_journal(&bytes).expect("cancelled journal stays readable");
    assert!(!recovered.truncated, "no torn frames from a cancel");
    assert!(
        recovered.entries.len() < threads,
        "cancel must interrupt the scan, got {} of {threads} chunks",
        recovered.entries.len()
    );

    // Resume without the cancelled governor: replays the completed
    // prefix, recomputes the rest, bit-identical to the clean run.
    let (out, stats) = resume_search(&recovered, &q, &db, &plain, make).expect("resume");
    assert_eq!(out.hits, want, "resume after cancellation is bit-identical");
    assert_eq!(
        stats.replayed_chunks + stats.recomputed_chunks,
        threads,
        "{stats:?}"
    );
    assert_eq!(stats.replayed_chunks, recovered.entries.len());
}
