//! End-to-end observability: the span tree a traced query emits, span
//! balance when workers panic under `catch_unwind`, histogram
//! percentile fidelity against a sorted-vector oracle, and the
//! Prometheus/JSON exposition formats the serving layer scrapes.

use swsimd::matrices::{blosum62, Alphabet};
use swsimd::obs::{Event, EventKind, Registry};
use swsimd::seq::{generate_database, generate_exact, SynthConfig};
use swsimd::Aligner;

fn enc(len: usize, seed: u64) -> Vec<u8> {
    Alphabet::protein().encode(&generate_exact(len, seed).seq)
}

fn enter<'a>(events: &'a [Event], name: &str) -> &'a Event {
    events
        .iter()
        .find(|e| e.kind == EventKind::Enter && e.name == name)
        .unwrap_or_else(|| panic!("no enter event named {name:?} in {events:#?}"))
}

fn exit_of(events: &[Event], id: u64) -> &Event {
    events
        .iter()
        .find(|e| e.kind == EventKind::Exit && e.id == id)
        .unwrap_or_else(|| panic!("no exit event for span {id}"))
}

/// A single traced `query` emits the complete span tree
/// `query → dispatch → kernel → traceback`, and the kernel span
/// carries ISA, precision and lane-utilization attributes.
#[cfg(feature = "trace")]
#[test]
fn one_query_emits_complete_span_tree() {
    let rec = swsimd::obs::Recorder::install();
    let mut aligner = Aligner::builder()
        .matrix(blosum62())
        .traceback(true)
        .build();
    // Long enough that anti-diagonals exceed the scalar threshold on
    // every engine (short pairs run fully scalar and record no lane
    // slots, so no utilization attribute would appear).
    let q = enc(200, 1);
    let t = enc(240, 2);
    let result = aligner.align(&q, &t);
    let events = rec.events();

    // The tree: each child's Enter has its parent's span id.
    let query = enter(&events, "query");
    let dispatch = enter(&events, "dispatch");
    let kernel = enter(&events, "kernel");
    let traceback = enter(&events, "traceback");
    assert_eq!(dispatch.parent, query.id, "dispatch under query");
    assert_eq!(kernel.parent, dispatch.id, "kernel under dispatch");
    assert_eq!(traceback.parent, kernel.id, "traceback under kernel");

    // Enter attributes: the dispatch decision and kernel identity.
    assert!(query.attr("qlen").is_some() && query.attr("tlen").is_some());
    let isa = kernel.attr("isa").expect("kernel span names its ISA");
    assert!(!isa.to_string().is_empty());
    let precision = kernel.attr("precision").expect("kernel names precision");
    assert!(
        ["i8", "i16", "i32"].contains(&precision.to_string().as_str()),
        "fixed precision on the kernel, got {precision}"
    );

    // Exit attributes: per-call stats deltas, utilization, and timing.
    let kexit = exit_of(&events, kernel.id);
    assert!(kexit.elapsed_ns.is_some(), "spans time themselves");
    assert!(kexit.attr("cells").is_some(), "kernel reports cell count");
    assert!(
        kexit.attr("lane_utilization").is_some(),
        "kernel reports lane utilization: {kexit:?}"
    );
    let score = kexit.attr("score").expect("kernel reports its score");
    assert_eq!(score.to_string(), result.score.to_string());

    let qexit = exit_of(&events, query.id);
    assert!(qexit.attr("precision_used").is_some());

    // Every span that entered also exited (the tree is balanced).
    for e in events.iter().filter(|e| e.kind == EventKind::Enter) {
        exit_of(&events, e.id);
    }
}

/// A worker panic isolated by `catch_unwind` must not unbalance the
/// span stream: every span entered before the panic still exits
/// (RAII drop during unwind), the degradation emits its event, and the
/// retry's kernel spans appear with the scalar engine.
#[cfg(feature = "trace")]
#[test]
fn spans_stay_balanced_across_worker_panics() {
    use swsimd::runner::{parallel_search, FaultPlan, PoolConfig};

    let rec = swsimd::obs::Recorder::install();
    let db = generate_database(&SynthConfig {
        n_seqs: 12,
        max_len: 80,
        median_len: 40.0,
        ..Default::default()
    });
    let q = enc(25, 3);
    let out = parallel_search(
        &q,
        &db,
        &PoolConfig {
            threads: 1,
            fault_plan: FaultPlan::new().panic_at(0, 1),
            ..PoolConfig::default()
        },
        || Aligner::builder().matrix(blosum62()),
    );
    assert_eq!(out.faults.worker_panics, 1, "the fault fired");
    let events = rec.events();

    // Balance: every Enter has a matching Exit, even on the panicked
    // path.
    let mut open: Vec<u64> = Vec::new();
    for e in &events {
        match e.kind {
            EventKind::Enter => open.push(e.id),
            EventKind::Exit => {
                assert!(
                    open.contains(&e.id),
                    "exit without enter for span {} ({})",
                    e.id,
                    e.name
                );
                open.retain(|&id| id != e.id);
            }
            EventKind::Instant => {}
        }
    }
    assert!(open.is_empty(), "unclosed spans after panic: {open:?}");

    // The degradation decision is visible in the event stream.
    let degraded = events
        .iter()
        .find(|e| e.name == "partition_degraded")
        .expect("degraded retry emits its event");
    assert_eq!(
        degraded
            .attr("panicked")
            .map(ToString::to_string)
            .as_deref(),
        Some("true")
    );
}

/// Histogram quantiles agree with a sorted-vector nearest-rank oracle
/// to within the log-linear bucket resolution (2^-5 ≈ 3.2% relative).
#[test]
fn histogram_percentiles_match_sorted_oracle() {
    let hist = swsimd::obs::Histogram::new();
    // Deterministic skewed values: mostly small with a heavy tail,
    // like real latencies.
    let mut state = 0x2545F4914F6CDD1Du64;
    let mut values: Vec<u64> = (0..10_000)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let tail = if state.is_multiple_of(50) {
                state % 900_000
            } else {
                0
            };
            1 + state % 1_000 + tail
        })
        .collect();
    for &v in &values {
        hist.record(v);
    }
    values.sort_unstable();
    let oracle = |p: f64| -> u64 {
        let rank = ((p * values.len() as f64).ceil() as usize).clamp(1, values.len());
        values[rank - 1]
    };
    let s = hist.snapshot();
    assert_eq!(s.count, values.len() as u64);
    assert_eq!(s.min, values[0]);
    assert_eq!(s.max, *values.last().unwrap());
    for (got, want, name) in [
        (s.p50, oracle(0.50), "p50"),
        (s.p95, oracle(0.95), "p95"),
        (s.p99, oracle(0.99), "p99"),
    ] {
        let err = (got as f64 - want as f64).abs() / want as f64;
        assert!(err <= 0.04, "{name}: got {got}, oracle {want}, err {err}");
    }
}

/// Golden test for the Prometheus text exposition a scrape returns.
#[test]
fn prometheus_exposition_golden() {
    let r = Registry::new();
    r.counter(
        "swsimd_server_queries_total",
        "Queries served.",
        &[("instance", "0")],
    )
    .add(7);
    r.gauge("swsimd_queue_depth", "Jobs queued.", &[("instance", "0")])
        .set(2);
    let h = r.histogram_scaled(
        "swsimd_query_latency_seconds",
        "End-to-end query latency.",
        1e-9,
        &[("scenario", "server")],
    );
    for s in 1..=20u64 {
        h.record(s * 1_000_000_000);
    }
    // Quantiles are log-linear bucket midpoints (p50 ≈ 10s, p95 ≈ 19s);
    // p99 clamps to the recorded max, and the sum is exact. The exact
    // midpoints are deterministic, so they can be golden-tested.
    let expected = "\
# HELP swsimd_query_latency_seconds End-to-end query latency.
# TYPE swsimd_query_latency_seconds summary
swsimd_query_latency_seconds{scenario=\"server\",quantile=\"0.5\"} 10.066329599000001
swsimd_query_latency_seconds{scenario=\"server\",quantile=\"0.95\"} 19.058917375
swsimd_query_latency_seconds{scenario=\"server\",quantile=\"0.99\"} 20
swsimd_query_latency_seconds_sum{scenario=\"server\"} 210
swsimd_query_latency_seconds_count{scenario=\"server\"} 20
# HELP swsimd_queue_depth Jobs queued.
# TYPE swsimd_queue_depth gauge
swsimd_queue_depth{instance=\"0\"} 2
# HELP swsimd_server_queries_total Queries served.
# TYPE swsimd_server_queries_total counter
swsimd_server_queries_total{instance=\"0\"} 7
";
    assert_eq!(r.prometheus_text(), expected);

    let json = r.json();
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains("\"swsimd_query_latency_seconds\""), "{json}");
    assert!(json.contains("\"p99\":20}"), "{json}");
}

/// The server-side exposition path end to end: queries through a
/// `BatchServer` land in the scraped latency summary.
#[test]
fn server_scrape_includes_query_latency() {
    use std::sync::Arc;
    use swsimd::runner::{BatchServer, ServerConfig};

    let db = Arc::new(generate_database(&SynthConfig {
        n_seqs: 16,
        max_len: 90,
        median_len: 45.0,
        ..Default::default()
    }));
    let server = BatchServer::start(db, ServerConfig::default(), || {
        Aligner::builder().matrix(blosum62())
    });
    let client = server.client();
    for i in 0..4 {
        client
            .submit(enc(22, 10 + i), 1, None)
            .and_then(|p| p.wait())
            .expect("server is up");
    }
    assert_eq!(server.latency().count, 4);
    let text = server.prometheus_text();
    assert!(
        text.contains("# TYPE swsimd_query_latency_seconds summary"),
        "{text}"
    );
    assert!(text.contains("scenario=\"server\""), "{text}");
    let stats = server.shutdown();
    assert_eq!(stats.queries, 4);
    assert!(stats.to_string().contains("queries=4"), "{stats}");
}
