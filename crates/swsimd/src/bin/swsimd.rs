//! `swsimd` — command-line Smith-Waterman.
//!
//! ```text
//! swsimd align  <query.fasta> <target.fasta> [options]   pairwise, with traceback
//! swsimd search <query.fasta> <db.fasta>     [options]   database search
//! swsimd info                                             engines & matrices
//! swsimd selftest                                         kernel trust battery + conformance
//!
//! serving tier (see DESIGN.md §13):
//! swsimd shard <db.fasta> [options]                       one shard worker process
//!   --listen ADDR        bind address (default 127.0.0.1:0; bound addr printed)
//!   --shard-index I      this worker's slice (default 0)
//!   --shards N           total slices in the topology (default 1)
//!   --journal DIR        checkpoint queries into DIR; resumed after restart
//!   --drain-timeout MS   SIGTERM: wait MS for in-flight queries (default 5000)
//!   --tenant-weights W   fair-share weights, "acme=3,free=1" (default all 1)
//!   --rate R             per-tenant token buckets, "acme=RATE[:BURST],..."
//!                        in DP cells/second (|q| x db residues per query)
//!   --lane-depth N       queued jobs per tenant lane (default: queue depth)
//!   --brownout-high MS / --brownout-low MS / --brownout-dwell MS
//!                        queue-delay watermarks for stepwise brownout
//!                        degradation (high 0 = off, the default)
//!   --standby            start as a warm standby: slice loaded and hot,
//!                        pongs say draining, queries refused until a
//!                        supervisor promotes it with an Activate frame
//! swsimd serve --shards "a,b;c;d" [options]               scatter-gather gateway
//!   --listen ADDR        bind address (default 127.0.0.1:0)
//!   --retry-budget N     attempts per shard group (default 3)
//!   --hedge-after MS     hedge-delay floor; 0 disables hedging (default 50)
//!   --drain-timeout MS   SIGTERM: wait MS for in-flight queries (default 5000)
//!   --connect-timeout MS / --request-timeout MS / --probe-interval MS
//!   --strike-threshold N / --readmit-after N               breaker tuning
//!   --health-period MS   print per-shard health (breaker state, RTT
//!                        p99, in-flight) to stderr every MS (0 = off)
//!   --tenant-inflight N  per-tenant concurrent-query cap (0 = off)
//!   --rate R             per-tenant edge buckets, "acme=RATE[:BURST],..."
//!                        in query bytes/second
//!   --canary SEQ         re-admission canary: a breaker only closes after
//!                        the replica answers this tiny real alignment,
//!                        not just a ping (protein residues; off by default)
//! swsimd cluster <db.fasta> [options]                     self-healing supervisor
//!   spawns shards + gateway as child processes, restarts crashes with
//!   exponential backoff, quarantines crash loops, promotes standbys.
//!   SIGTERM drains the topology; SIGHUP triggers a rolling restart.
//!   --shards N           slices (default 1)
//!   --replicas N         live replicas per slice (default 1)
//!   --standbys N         warm standbys per slice (default 0)
//!   --listen ADDR        gateway bind address (default: picked, printed)
//!   --control ADDR       supervisor control endpoint answering ping +
//!                        net-metrics (default: picked; printed as the
//!                        "listening on" contract line)
//!   --journal-dir DIR    per-child journal dirs DIR/<child-name>
//!   --probe-interval MS / --probe-timeout MS / --probe-misses N
//!   --backoff-base MS / --backoff-max MS                  respawn schedule
//!   --crash-window MS / --crash-threshold N               quarantine policy
//!   --recovery-slo MS    log recovery_slo_breach beyond this (default 10000)
//!   --chaos-seed N       inject a seeded fault schedule against the shard
//!                        children (0 = off; SWSIMD_CHAOS_SEED overrides)
//!   --chaos-events N / --chaos-horizon MS                 schedule shape
//! swsimd query <addr> <query.fasta> [--top K] [--deadline MS] [--tenant NAME]
//!   prints `trace=0x<id>` per query; feed it to `swsimd trace`
//! swsimd trace <addr> <trace-id> [--json]                 flight record for one request
//! swsimd slowlog <addr> [--limit N] [--tenant NAME] [--json]  peer's slow-query log
//! swsimd net-metrics <addr> [--tenant NAME]               fetch Prometheus scrape
//! swsimd net-drain <addr>                                 ask a peer to drain
//!
//! options:
//!   --matrix NAME        BLOSUM45/50/62/80/90, PAM30/70/120/250 (default BLOSUM62)
//!   --open N --extend N  affine gap penalties (default 11/1)
//!   --linear N           linear gap penalty instead of affine
//!   --top K              hits to report for search (default 10)
//!   --threads N          worker threads for search (default: all)
//!   --engine NAME        scalar | sse4.1 | avx2 | avx-512 (default: best)
//!   --mode M             local | global | semiglobal (default local)
//!   --no-traceback       scores only for align
//!
//! environment:
//!   SWSIMD_TRACE=stderr  emit tracing spans/events to stderr (any
//!                        command; gives serving processes nonzero
//!                        span ids so distributed trees stitch)
//!   --journal PATH       search: checkpoint completed chunks to PATH; if PATH
//!                        already holds a journal from a crashed run, resume it
//!                        (bit-identical results). Removed on completion.
//!   --max-cost N         search: refuse queries whose estimated cost
//!                        (|query| x database residues, in DP cells) exceeds N
//!   --mem-budget BYTES   search: per-query cap on DP working-buffer bytes
//!   --stall-timeout MS   search: reap a wedged worker after MS milliseconds
//!                        without kernel progress and retry it on scalar
//! ```

use std::process::ExitCode;

use swsimd::matrices::{by_name, Alphabet};
use swsimd::runner::{parallel_search, PoolConfig};
use swsimd::seq::{read_fasta, Database};
use swsimd::{AlignMode, Aligner, EngineKind, GapPenalties, Op};

struct Opts {
    matrix: &'static swsimd::matrices::SubstitutionMatrix,
    open: i32,
    extend: i32,
    linear: Option<i32>,
    top: usize,
    threads: usize,
    engine: EngineKind,
    traceback: bool,
    mode: AlignMode,
    journal: Option<std::path::PathBuf>,
    max_cost: Option<u64>,
    mem_budget: Option<u64>,
    stall_timeout: Option<std::time::Duration>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        matrix: swsimd::matrices::blosum62(),
        open: 11,
        extend: 1,
        linear: None,
        top: 10,
        threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        engine: EngineKind::best(),
        traceback: true,
        mode: AlignMode::Local,
        journal: None,
        max_cost: None,
        mem_budget: None,
        stall_timeout: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--matrix" => {
                let n = val("--matrix")?;
                o.matrix = by_name(&n).ok_or_else(|| format!("unknown matrix '{n}'"))?;
            }
            "--open" => o.open = val("--open")?.parse().map_err(|e| format!("--open: {e}"))?,
            "--extend" => {
                o.extend = val("--extend")?
                    .parse()
                    .map_err(|e| format!("--extend: {e}"))?
            }
            "--linear" => {
                o.linear = Some(
                    val("--linear")?
                        .parse()
                        .map_err(|e| format!("--linear: {e}"))?,
                )
            }
            "--top" => o.top = val("--top")?.parse().map_err(|e| format!("--top: {e}"))?,
            "--threads" => {
                o.threads = val("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--engine" => {
                let n = val("--engine")?.to_lowercase();
                o.engine = match n.as_str() {
                    "scalar" => EngineKind::Scalar,
                    "sse4.1" | "sse41" | "sse" => EngineKind::Sse41,
                    "avx2" => EngineKind::Avx2,
                    "avx-512" | "avx512" => EngineKind::Avx512,
                    _ => return Err(format!("unknown engine '{n}'")),
                };
                // Typed refusal (missing ISA or trust-demoted backend)
                // instead of a silent fallback to a weaker engine.
                swsimd::core::trust::check_engine_usable(o.engine).map_err(|e| e.to_string())?;
            }
            "--no-traceback" => o.traceback = false,
            "--journal" => o.journal = Some(val("--journal")?.into()),
            "--max-cost" => {
                o.max_cost = Some(
                    val("--max-cost")?
                        .parse()
                        .map_err(|e| format!("--max-cost: {e}"))?,
                )
            }
            "--mem-budget" => {
                o.mem_budget = Some(
                    val("--mem-budget")?
                        .parse()
                        .map_err(|e| format!("--mem-budget: {e}"))?,
                )
            }
            "--stall-timeout" => {
                let ms: u64 = val("--stall-timeout")?
                    .parse()
                    .map_err(|e| format!("--stall-timeout: {e}"))?;
                if ms == 0 {
                    return Err("--stall-timeout: must be > 0 ms".into());
                }
                o.stall_timeout = Some(std::time::Duration::from_millis(ms));
            }
            "--mode" => {
                let n = val("--mode")?.to_lowercase();
                o.mode = match n.as_str() {
                    "local" => AlignMode::Local,
                    "global" => AlignMode::Global,
                    "semiglobal" | "semi-global" | "glocal" => AlignMode::SemiGlobal,
                    _ => return Err(format!("unknown mode '{n}'")),
                };
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(o)
}

fn builder_for(o: &Opts) -> swsimd::AlignerBuilder {
    let mut b = Aligner::builder()
        .matrix(o.matrix)
        .engine(o.engine)
        .mode(o.mode);
    b = match o.linear {
        Some(g) => b.linear_gap(g),
        None => b.gaps(GapPenalties::new(o.open, o.extend)),
    };
    b
}

fn load_fasta(path: &str) -> Result<Vec<swsimd::SeqRecord>, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    read_fasta(std::io::BufReader::new(file)).map_err(|e| format!("{path}: {e}"))
}

fn cmd_align(query_path: &str, target_path: &str, o: &Opts) -> Result<(), String> {
    let alphabet = o.matrix.alphabet().clone();
    let queries = load_fasta(query_path)?;
    let targets = load_fasta(target_path)?;
    let mut aligner = builder_for(o).traceback(o.traceback).build();

    for q in &queries {
        for t in &targets {
            let qe = alphabet.encode(&q.seq);
            let te = alphabet.encode(&t.seq);
            let r = aligner.align(&qe, &te);
            println!(
                "{}\t{}\tscore={}\tprecision={:?}",
                q.id, t.id, r.score, r.precision_used
            );
            if let Some(aln) = &r.alignment {
                let (m, i, d) = aln.ops.iter().fold((0, 0, 0), |(m, i, d), op| match op {
                    Op::Match => (m + 1, i, d),
                    Op::Insert => (m, i + 1, d),
                    Op::Delete => (m, i, d + 1),
                });
                println!(
                    "  q[{}..{}] t[{}..{}] cigar={} (M={m} I={i} D={d})",
                    aln.query_start,
                    aln.query_end,
                    aln.target_start,
                    aln.target_end,
                    aln.cigar()
                );
            }
        }
    }
    Ok(())
}

/// Run one query durably through the journal at `path`: resume it if
/// one survives a previous crash, otherwise start a fresh checkpointed
/// search. The journal is removed once the scan completes (it only
/// has value mid-crash).
fn durable_search(
    qe: &[u8],
    db: &Database,
    cfg: &PoolConfig,
    o: &Opts,
    path: &std::path::Path,
) -> Result<swsimd::runner::SearchOutput, String> {
    let (out, resumed) =
        swsimd::durable_search(path, qe, db, cfg, || builder_for(o), &mut |_, _| {}).map_err(
            |e| match e {
                swsimd::JournalError::Io(e) => {
                    format!("search died ({e}); rerun with --journal to resume")
                }
                e => format!(
                    "{}: cannot resume ({e}); delete it to restart",
                    path.display()
                ),
            },
        )?;
    if let Some(stats) = resumed {
        eprintln!(
            "resumed from {}: replayed {} chunk(s), recomputed {}",
            path.display(),
            stats.replayed_chunks,
            stats.recomputed_chunks
        );
    }
    Ok(out)
}

fn cmd_search(query_path: &str, db_path: &str, o: &Opts) -> Result<(), String> {
    let alphabet = o.matrix.alphabet().clone();
    let queries = load_fasta(query_path)?;
    let db_records = load_fasta(db_path)?;
    let db = Database::from_records(db_records, &alphabet);
    if o.journal.is_some() && queries.len() != 1 {
        return Err(format!(
            "--journal checkpoints a single query, got {}",
            queries.len()
        ));
    }
    eprintln!(
        "db: {} sequences / {} residues; engine {}; {} threads",
        db.len(),
        db.total_residues(),
        o.engine,
        o.threads
    );

    let budget = o.mem_budget.map(swsimd::core::MemBudget::new);
    for q in &queries {
        let qe = alphabet.encode(&q.seq);
        // Cost-based admission: refuse runaway work before spawning
        // threads, mirroring the batch server's admission gate.
        if let Some(limit) = o.max_cost {
            let cost = qe.len() as u64 * db.total_residues() as u64;
            if cost > limit {
                return Err(format!(
                    "query {}: estimated cost {cost} cells exceeds --max-cost {limit}",
                    q.id
                ));
            }
        }
        // Per-query memory budget over the DP working-set estimate.
        let _reserved = match &budget {
            Some(b) => Some(
                b.try_reserve(swsimd::core::govern::score_bytes(qe.len(), 4))
                    .map_err(|e| format!("query {}: {e}", q.id))?,
            ),
            None => None,
        };
        let cfg = PoolConfig {
            threads: o.threads,
            stall_timeout: o.stall_timeout,
            ..PoolConfig::default()
        };
        let start = std::time::Instant::now();
        let out = match &o.journal {
            Some(path) => durable_search(&qe, &db, &cfg, o, path)?,
            None => parallel_search(&qe, &db, &cfg, || builder_for(o)),
        };
        let secs = start.elapsed().as_secs_f64();
        let cells = qe.len() as u64 * db.total_residues() as u64;
        eprintln!(
            "query {} ({} aa): {:.3} GCUPS",
            q.id,
            qe.len(),
            cells as f64 / secs.max(1e-9) / 1e9
        );
        for hit in out.hits.iter().take(o.top) {
            println!(
                "{}\t{}\tscore={}\tlen={}",
                q.id,
                db.record(hit.db_index).id,
                hit.score,
                db.record(hit.db_index).len()
            );
        }
    }
    Ok(())
}

/// Run the boot battery and the engine conformance suite, print a
/// per-engine report, and fail (nonzero exit) on any failure — the
/// operator's pre-flight check for a new machine or a suspect kernel.
fn cmd_selftest() -> Result<(), String> {
    println!(
        "kernel self-test battery (seed 0x{:x}):",
        swsimd::core::selftest::BATTERY_SEED
    );
    let report = swsimd::run_battery();
    for o in &report.outcomes {
        if o.passed() {
            println!("  {:<8} {} checks, all passed", o.engine.name(), o.checks);
        } else {
            println!(
                "  {:<8} {} checks, {} FAILED:",
                o.engine.name(),
                o.checks,
                o.failures.len()
            );
            for f in &o.failures {
                println!("    {f}");
            }
        }
    }
    for e in &report.skipped {
        println!("  {:<8} SKIPPED (ISA not available)", e.name());
    }

    println!("engine conformance (vector ops vs scalar semantics):");
    let conformance = swsimd::simd::run_conformance();
    for r in &conformance {
        println!("  {r}");
    }

    let conformance_failures = conformance.iter().filter(|r| r.ran && !r.passed()).count();
    if report.all_passed() && conformance_failures == 0 {
        println!("selftest OK");
        Ok(())
    } else {
        Err(format!(
            "selftest FAILED: {} battery failure(s), {} conformance failure(s)",
            report.failure_count(),
            conformance_failures
        ))
    }
}

/// SIGTERM/SIGINT latch for graceful drain, via the C `signal(2)`
/// entry point the process links anyway (no signal crate needed).
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TERM: AtomicBool = AtomicBool::new(false);
    static HUP: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_term(_sig: i32) {
        TERM.store(true, Ordering::SeqCst);
    }

    extern "C" fn on_hup(_sig: i32) {
        HUP.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        let handler = on_term as *const () as usize;
        unsafe {
            signal(SIGTERM, handler);
            signal(SIGINT, handler);
        }
    }

    /// SIGHUP latch for the cluster supervisor's rolling restart.
    pub fn install_hup() {
        const SIGHUP: i32 = 1;
        let handler = on_hup as *const () as usize;
        unsafe {
            signal(SIGHUP, handler);
        }
    }

    pub fn termed() -> bool {
        TERM.load(Ordering::SeqCst)
    }

    /// Consume a pending SIGHUP (true at most once per signal).
    pub fn take_hupped() -> bool {
        HUP.swap(false, Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sig {
    pub fn install() {}
    pub fn install_hup() {}
    pub fn termed() -> bool {
        false
    }
    pub fn take_hupped() -> bool {
        false
    }
}

/// Does `--name` take a value? (Everything except the lone flags.)
fn opt_takes_value(name: &str) -> bool {
    name != "--no-traceback" && name != "--json"
}

/// Split net-tier options out of `rest`, passing everything else
/// through to [`parse_opts`].
fn split_net_opts(
    rest: &[String],
    net_keys: &[&str],
) -> Result<(std::collections::HashMap<String, String>, Vec<String>), String> {
    let mut net = std::collections::HashMap::new();
    let mut passthrough = Vec::new();
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        if net_keys.contains(&a.as_str()) {
            let v = it
                .next()
                .cloned()
                .ok_or_else(|| format!("{a} needs a value"))?;
            net.insert(a.clone(), v);
        } else {
            passthrough.push(a.clone());
            if opt_takes_value(a) {
                if let Some(v) = it.next() {
                    passthrough.push(v.clone());
                }
            }
        }
    }
    Ok((net, passthrough))
}

fn net_u64(
    net: &std::collections::HashMap<String, String>,
    key: &str,
    default: u64,
) -> Result<u64, String> {
    match net.get(key) {
        Some(v) => v.parse().map_err(|e| format!("{key}: {e}")),
        None => Ok(default),
    }
}

/// Parse `--tenant-weights "acme=3,free=1"` into name → weight.
fn parse_tenant_weights(spec: &str) -> Result<std::collections::HashMap<String, u32>, String> {
    let mut out = std::collections::HashMap::new();
    for entry in spec.split(',').filter(|e| !e.trim().is_empty()) {
        let (name, w) = entry
            .split_once('=')
            .ok_or_else(|| format!("--tenant-weights: '{entry}' is not name=WEIGHT"))?;
        let weight: u32 = w
            .trim()
            .parse()
            .map_err(|e| format!("--tenant-weights {name}: {e}"))?;
        if weight == 0 {
            return Err(format!("--tenant-weights {name}: weight must be >= 1"));
        }
        out.insert(name.trim().to_string(), weight);
    }
    Ok(out)
}

/// Parse `--rate "acme=1000000[:2000000],free=50000"` into name →
/// token-bucket config (`RATE` units/second, optional `BURST` cap,
/// defaulting to one second of rate).
fn parse_rates(
    spec: &str,
) -> Result<std::collections::HashMap<String, swsimd::runner::RateConfig>, String> {
    let mut out = std::collections::HashMap::new();
    for entry in spec.split(',').filter(|e| !e.trim().is_empty()) {
        let (name, rest) = entry
            .split_once('=')
            .ok_or_else(|| format!("--rate: '{entry}' is not name=RATE[:BURST]"))?;
        let (rate_s, burst_s) = match rest.split_once(':') {
            Some((r, b)) => (r, Some(b)),
            None => (rest, None),
        };
        let rate: u64 = rate_s
            .trim()
            .parse()
            .map_err(|e| format!("--rate {name}: {e}"))?;
        let mut cfg = swsimd::runner::RateConfig::per_second(rate);
        if let Some(b) = burst_s {
            cfg.burst = b
                .trim()
                .parse()
                .map_err(|e| format!("--rate {name}: {e}"))?;
        }
        out.insert(name.trim().to_string(), cfg);
    }
    Ok(out)
}

/// Assemble the shard-side QoS config from `--tenant-weights`,
/// `--rate`, and `--lane-depth`.
fn qos_from_opts(
    net: &std::collections::HashMap<String, String>,
) -> Result<swsimd::runner::QosConfig, String> {
    let mut qos = swsimd::runner::QosConfig::default();
    if let Some(spec) = net.get("--tenant-weights") {
        for (name, weight) in parse_tenant_weights(spec)? {
            qos.tenants.entry(name).or_default().weight = weight;
        }
    }
    if let Some(spec) = net.get("--rate") {
        for (name, rate) in parse_rates(spec)? {
            qos.tenants.entry(name).or_default().rate = Some(rate);
        }
    }
    qos.lane_depth = net_u64(net, "--lane-depth", 0)? as usize;
    Ok(qos)
}

/// Brownout watermarks from `--brownout-*` (high 0 = disabled).
fn brownout_from_opts(
    net: &std::collections::HashMap<String, String>,
) -> Result<Option<swsimd::runner::BrownoutConfig>, String> {
    let high = net_u64(net, "--brownout-high", 0)?;
    if high == 0 {
        return Ok(None);
    }
    let defaults = swsimd::runner::BrownoutConfig::default();
    Ok(Some(swsimd::runner::BrownoutConfig {
        high: std::time::Duration::from_millis(high),
        low: std::time::Duration::from_millis(net_u64(net, "--brownout-low", (high / 4).max(1))?),
        dwell: std::time::Duration::from_millis(net_u64(
            net,
            "--brownout-dwell",
            defaults.dwell.as_millis() as u64,
        )?),
        max_level: defaults.max_level,
    }))
}

/// Run one shard worker until SIGTERM, then drain gracefully.
fn cmd_shard(db_path: &str, rest: &[String]) -> Result<(), String> {
    // `--standby` is a bare flag, not a key=value pair: peel it off
    // before the splitter (which would otherwise eat the next arg).
    let standby = rest.iter().any(|a| a == "--standby");
    let rest: Vec<String> = rest.iter().filter(|a| *a != "--standby").cloned().collect();
    let (net, passthrough) = split_net_opts(
        &rest,
        &[
            "--listen",
            "--shard-index",
            "--shards",
            "--drain-timeout",
            "--tenant-weights",
            "--rate",
            "--lane-depth",
            "--brownout-high",
            "--brownout-low",
            "--brownout-dwell",
            "--idle-timeout",
        ],
    )?;
    let o = parse_opts(&passthrough)?;
    let alphabet = o.matrix.alphabet().clone();
    let db_records = load_fasta(db_path)?;
    let db = swsimd::seq::Database::from_records(db_records, &alphabet);

    let cfg = swsimd::net::ShardConfig {
        listen: net
            .get("--listen")
            .cloned()
            .unwrap_or_else(|| "127.0.0.1:0".into()),
        shard_index: net_u64(&net, "--shard-index", 0)? as u32,
        shard_count: net_u64(&net, "--shards", 1)? as u32,
        server: swsimd::runner::ServerConfig {
            max_cost: o.max_cost,
            mem_budget: o.mem_budget,
            stall_timeout: o.stall_timeout,
            qos: qos_from_opts(&net)?,
            brownout: brownout_from_opts(&net)?,
            ..Default::default()
        },
        journal_dir: o.journal.clone(),
        drain_timeout: std::time::Duration::from_millis(net_u64(&net, "--drain-timeout", 5000)?),
        idle_timeout: std::time::Duration::from_millis(net_u64(&net, "--idle-timeout", 30_000)?),
        threads: o.threads,
        standby,
        fault: Default::default(),
    };
    if cfg.shard_index >= cfg.shard_count {
        return Err(format!(
            "--shard-index {} out of range for --shards {}",
            cfg.shard_index, cfg.shard_count
        ));
    }

    sig::install();
    let shard_index = cfg.shard_index;
    let o = std::sync::Arc::new(o);
    let factory_opts = std::sync::Arc::clone(&o);
    let server =
        swsimd::net::ShardServer::start(&db, &alphabet, cfg, move || builder_for(&factory_opts))
            .map_err(|e| format!("shard: {e}"))?;
    // The bound address is the process's contract with its supervisor
    // (port 0 in tests): print and flush before blocking.
    println!("listening on {}", server.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    eprintln!("shard {shard_index}: serving {} sequences", db.len());

    while !sig::termed() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    eprintln!("shard {shard_index}: draining");
    let clean = server.shutdown();
    if clean {
        eprintln!("shard {shard_index}: drained clean");
        Ok(())
    } else {
        Err(format!(
            "shard {shard_index}: drain timeout expired with queries in flight"
        ))
    }
}

/// Run the gateway front door until SIGTERM, then drain gracefully.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let (net, leftover) = split_net_opts(
        args,
        &[
            "--shards",
            "--listen",
            "--retry-budget",
            "--hedge-after",
            "--drain-timeout",
            "--connect-timeout",
            "--request-timeout",
            "--probe-interval",
            "--strike-threshold",
            "--readmit-after",
            "--health-period",
            "--tenant-inflight",
            "--rate",
            "--canary",
            "--idle-timeout",
        ],
    )?;
    if !leftover.is_empty() {
        return Err(format!("serve: unknown option '{}'", leftover[0]));
    }
    let topology = net
        .get("--shards")
        .ok_or("serve: --shards \"addr,addr;addr\" is required")?;
    let shards: Vec<Vec<String>> = topology
        .split(';')
        .map(|group| {
            group
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(String::from)
                .collect()
        })
        .collect();
    if shards.iter().any(Vec::is_empty) {
        return Err("serve: every shard group needs at least one address".into());
    }
    let hedge_ms = net_u64(&net, "--hedge-after", 50)?;
    let cfg = swsimd::net::GatewayConfig {
        shards,
        retry: swsimd::net::RetryPolicy {
            budget: net_u64(&net, "--retry-budget", 3)? as u32,
            ..Default::default()
        },
        connect_timeout: std::time::Duration::from_millis(net_u64(
            &net,
            "--connect-timeout",
            1000,
        )?),
        request_timeout: std::time::Duration::from_millis(net_u64(
            &net,
            "--request-timeout",
            10_000,
        )?),
        hedge_after: (hedge_ms > 0).then(|| std::time::Duration::from_millis(hedge_ms)),
        strike_threshold: net_u64(&net, "--strike-threshold", 3)? as u32,
        readmit_after: net_u64(&net, "--readmit-after", 2)? as u32,
        qos: swsimd::net::GatewayQos {
            max_inflight: net_u64(&net, "--tenant-inflight", 0)? as usize,
            rates: match net.get("--rate") {
                Some(spec) => parse_rates(spec)?,
                None => Default::default(),
            },
        },
        canary: match net.get("--canary") {
            Some(seq) => swsimd::matrices::Alphabet::protein().encode(seq.as_bytes()),
            None => Vec::new(),
        },
        fault: Default::default(),
    };
    let slices = cfg.shards.len();
    let listen = net
        .get("--listen")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:0".into());
    let drain_timeout = std::time::Duration::from_millis(net_u64(&net, "--drain-timeout", 5000)?);
    let idle_timeout = std::time::Duration::from_millis(net_u64(&net, "--idle-timeout", 30_000)?);
    let probe_interval = std::time::Duration::from_millis(net_u64(&net, "--probe-interval", 500)?);
    let health_ms = net_u64(&net, "--health-period", 0)?;

    sig::install();
    let gateway = swsimd::net::Gateway::new(cfg);
    let prober = gateway.start_prober(probe_interval);
    let health = gateway.clone();
    let server = swsimd::net::GatewayServer::start_with_idle_timeout(
        gateway,
        &listen,
        drain_timeout,
        idle_timeout,
    )
    .map_err(|e| format!("serve: {e}"))?;
    println!("listening on {}", server.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    eprintln!("gateway: {slices} shard group(s)");

    let mut last_health = std::time::Instant::now();
    while !sig::termed() {
        std::thread::sleep(std::time::Duration::from_millis(50));
        if health_ms > 0 && last_health.elapsed().as_millis() as u64 >= health_ms {
            eprintln!("{}", health.health_line());
            last_health = std::time::Instant::now();
        }
    }
    eprintln!("gateway: draining");
    eprintln!("{}", health.health_line());
    let clean = server.shutdown();
    prober.stop();
    if clean {
        eprintln!("gateway: drained clean");
        Ok(())
    } else {
        Err("gateway: drain timeout expired with queries in flight".into())
    }
}

/// Canary alignment used for breaker re-admission and supervisor
/// readiness: tiny, real, and cheap against any slice.
const CLUSTER_CANARY: &str = "MKVLAADTW";

/// Run the self-healing cluster supervisor: spawn shards, standbys,
/// and the gateway as children, then babysit them until SIGTERM.
fn cmd_cluster(db_path: &str, rest: &[String]) -> Result<(), String> {
    let (net, passthrough) = split_net_opts(
        rest,
        &[
            "--shards",
            "--replicas",
            "--standbys",
            "--listen",
            "--control",
            "--journal-dir",
            "--probe-interval",
            "--probe-timeout",
            "--probe-misses",
            "--backoff-base",
            "--backoff-max",
            "--crash-window",
            "--crash-threshold",
            "--recovery-slo",
            "--chaos-seed",
            "--chaos-events",
            "--chaos-horizon",
        ],
    )?;
    if passthrough.iter().any(|a| a == "--journal") {
        return Err("cluster: use --journal-dir; per-child journal paths are derived".into());
    }
    // Validate the passthrough opts here rather than letting N children
    // die on the same typo.
    parse_opts(&passthrough)?;

    let shards = net_u64(&net, "--shards", 1)? as u32;
    let replicas = net_u64(&net, "--replicas", 1)? as u32;
    let standbys = net_u64(&net, "--standbys", 0)? as u32;
    if shards == 0 || replicas == 0 {
        return Err("cluster: --shards and --replicas must be >= 1".into());
    }
    let journal_dir = net.get("--journal-dir").cloned();
    if let Some(dir) = &journal_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("cluster: --journal-dir: {e}"))?;
    }

    let exe = std::env::current_exe().map_err(|e| format!("cluster: current_exe: {e}"))?;
    let pick = |key: &str| -> Result<String, String> {
        match net.get(key) {
            Some(a) => Ok(a.clone()),
            None => swsimd::net::Supervisor::pick_addr().map_err(|e| format!("cluster: {e}")),
        }
    };

    // Build the topology: every replica and standby gets a pre-picked
    // port so the gateway can list standbys up front — promotion needs
    // no reconfiguration, the breaker just starts admitting it.
    let mut specs: Vec<swsimd::net::ChildSpec> = Vec::new();
    let mut groups: Vec<Vec<String>> = vec![Vec::new(); shards as usize];
    for s in 0..shards {
        for r in 0..replicas + standbys {
            let standby = r >= replicas;
            let name = if standby {
                format!("shard{s}-standby{}", r - replicas)
            } else {
                format!("shard{s}-r{r}")
            };
            let addr = swsimd::net::Supervisor::pick_addr().map_err(|e| format!("cluster: {e}"))?;
            let mut args: Vec<String> = vec![
                "shard".into(),
                db_path.into(),
                "--listen".into(),
                addr.clone(),
                "--shard-index".into(),
                s.to_string(),
                "--shards".into(),
                shards.to_string(),
            ];
            if standby {
                args.push("--standby".into());
            }
            if let Some(dir) = &journal_dir {
                let child_dir = std::path::Path::new(dir).join(&name);
                std::fs::create_dir_all(&child_dir)
                    .map_err(|e| format!("cluster: journal dir for {name}: {e}"))?;
                args.push("--journal".into());
                args.push(child_dir.display().to_string());
            }
            args.extend(passthrough.iter().cloned());
            groups[s as usize].push(addr.clone());
            specs.push(swsimd::net::ChildSpec {
                name,
                slice: Some(s),
                program: exe.clone(),
                args,
                addr,
                standby,
            });
        }
    }
    let gw_addr = pick("--listen")?;
    let topology: String = groups
        .iter()
        .map(|g| g.join(","))
        .collect::<Vec<_>>()
        .join(";");
    specs.push(swsimd::net::ChildSpec {
        name: "gateway".into(),
        slice: None,
        program: exe,
        args: vec![
            "serve".into(),
            "--shards".into(),
            topology,
            "--listen".into(),
            gw_addr.clone(),
            "--canary".into(),
            CLUSTER_CANARY.into(),
        ],
        addr: gw_addr.clone(),
        standby: false,
    });

    let defaults = swsimd::net::SupervisorConfig::default();
    let cfg = swsimd::net::SupervisorConfig {
        probe_interval: std::time::Duration::from_millis(net_u64(
            &net,
            "--probe-interval",
            defaults.probe_interval.as_millis() as u64,
        )?),
        probe_timeout: std::time::Duration::from_millis(net_u64(
            &net,
            "--probe-timeout",
            defaults.probe_timeout.as_millis() as u64,
        )?),
        probe_misses: net_u64(&net, "--probe-misses", defaults.probe_misses as u64)? as u32,
        backoff_base: std::time::Duration::from_millis(net_u64(
            &net,
            "--backoff-base",
            defaults.backoff_base.as_millis() as u64,
        )?),
        backoff_max: std::time::Duration::from_millis(net_u64(
            &net,
            "--backoff-max",
            defaults.backoff_max.as_millis() as u64,
        )?),
        crash_loop_window: std::time::Duration::from_millis(net_u64(
            &net,
            "--crash-window",
            defaults.crash_loop_window.as_millis() as u64,
        )?),
        crash_loop_threshold: net_u64(
            &net,
            "--crash-threshold",
            defaults.crash_loop_threshold as u64,
        )? as usize,
        canary: swsimd::matrices::Alphabet::protein().encode(CLUSTER_CANARY.as_bytes()),
        recovery_slo: std::time::Duration::from_millis(net_u64(
            &net,
            "--recovery-slo",
            defaults.recovery_slo.as_millis() as u64,
        )?),
        rolling_timeout: defaults.rolling_timeout,
    };
    let probe_interval = cfg.probe_interval;

    // Seeded chaos against the shard children (never the gateway):
    // only built when requested, and the seed is always logged so a
    // bad run replays exactly.
    let chaos_seed = swsimd::net::seed_from_env(net_u64(&net, "--chaos-seed", 0)?);
    let chaos_targets: Vec<String> = specs
        .iter()
        .filter(|s| s.slice.is_some() && !s.standby)
        .map(|s| s.name.clone())
        .collect();
    let chaos = if chaos_seed != 0 {
        let horizon = std::time::Duration::from_millis(net_u64(&net, "--chaos-horizon", 30_000)?);
        let count = net_u64(&net, "--chaos-events", 20)? as usize;
        let schedule =
            swsimd::net::ChaosSchedule::generate(chaos_seed, chaos_targets.len(), horizon, count);
        eprintln!(
            "cluster: chaos seed {} ({} events over {:?})",
            schedule.seed,
            schedule.events.len(),
            horizon
        );
        Some(schedule)
    } else {
        None
    };

    sig::install();
    sig::install_hup();
    let mut sup = swsimd::net::Supervisor::new(cfg, specs);
    sup.start().map_err(|e| format!("cluster: start: {e}"))?;
    let ctl_addr = pick("--control")?;
    let ctl = swsimd::net::supervisor::ControlServer::start(&ctl_addr)
        .map_err(|e| format!("cluster: control: {e}"))?;
    // The control endpoint is the supervisor's contract line: ping it,
    // scrape it with `swsimd net-metrics`.
    println!("listening on {}", ctl.local_addr());
    println!("gateway listening on {gw_addr}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    eprintln!(
        "cluster: {shards} slice(s) x {replicas} replica(s) + {standbys} standby(s), gateway {gw_addr}"
    );

    let started = std::time::Instant::now();
    let mut last_poll = std::time::Duration::ZERO;
    while !sig::termed() {
        if sig::take_hupped() {
            eprintln!("cluster: SIGHUP -> rolling restart");
            let cycled = sup.rolling_restart();
            eprintln!("cluster: rolling restart cycled {cycled} replica(s)");
        }
        let report = sup.tick();
        if report.deaths + report.respawns + report.quarantines + report.promotions > 0 {
            eprintln!(
                "cluster: tick deaths={} respawns={} quarantines={} promotions={} wedge_kills={}",
                report.deaths,
                report.respawns,
                report.quarantines,
                report.promotions,
                report.wedge_kills
            );
        }
        if let Some(schedule) = &chaos {
            let now = started.elapsed();
            for event in schedule.due(last_poll, now) {
                let name = &chaos_targets[event.target];
                let Some(pid) = sup.pid(name) else { continue };
                match event.fault {
                    swsimd::net::ChaosFault::Kill => {
                        eprintln!("chaos: KILL {name} (pid {pid})");
                        swsimd::net::chaos::send_signal(pid, "KILL");
                    }
                    swsimd::net::ChaosFault::Stop { ms }
                    | swsimd::net::ChaosFault::Delay { ms } => {
                        eprintln!("chaos: STOP {name} (pid {pid}) for {ms}ms");
                        if swsimd::net::chaos::send_signal(pid, "STOP") {
                            std::thread::spawn(move || {
                                std::thread::sleep(std::time::Duration::from_millis(ms));
                                swsimd::net::chaos::send_signal(pid, "CONT");
                            });
                        }
                    }
                    swsimd::net::ChaosFault::Partition { attempts } => {
                        // Gateway-side connect refusal lives in the
                        // soak test harness; from the CLI a partition
                        // degrades to a short stall.
                        eprintln!("chaos: partition({attempts}) on {name} -> 250ms stall");
                        if swsimd::net::chaos::send_signal(pid, "STOP") {
                            std::thread::spawn(move || {
                                std::thread::sleep(std::time::Duration::from_millis(250));
                                swsimd::net::chaos::send_signal(pid, "CONT");
                            });
                        }
                    }
                }
            }
            last_poll = now;
        }
        std::thread::sleep(probe_interval);
    }
    eprintln!("cluster: SIGTERM -> draining topology");
    sup.shutdown();
    for (name, state) in sup.states() {
        eprintln!("cluster: {name} final state {state:?}");
    }
    eprintln!("cluster: down");
    Ok(())
}

/// Query a shard or gateway over the wire. With `--stream`, results
/// arrive incrementally (chunk lines as shards clear checkpoint
/// boundaries, live progress on stderr) and an interrupt prints a
/// resume token; `--resume <token>` continues where that stream
/// stopped.
fn cmd_net_query(addr: &str, query_path: &str, rest: &[String]) -> Result<(), String> {
    // `--stream` is a lone flag; peel it before the value-taking
    // option splitter sees it.
    let mut stream_mode = false;
    let rest: Vec<String> = rest
        .iter()
        .filter(|a| {
            if a.as_str() == "--stream" {
                stream_mode = true;
                false
            } else {
                true
            }
        })
        .cloned()
        .collect();
    let (net, passthrough) =
        split_net_opts(&rest, &["--deadline", "--tenant", "--credit", "--resume"])?;
    let o = parse_opts(&passthrough)?;
    let deadline_ms = net_u64(&net, "--deadline", 0)?;
    let tenant = net.get("--tenant").cloned().unwrap_or_default();
    let credit = net_u64(&net, "--credit", 8)?.clamp(1, u64::from(u32::MAX)) as u32;
    let resume = net.get("--resume").cloned();
    if resume.is_some() {
        stream_mode = true;
    }
    let alphabet = o.matrix.alphabet().clone();
    let queries = load_fasta(query_path)?;

    let read_timeout = if deadline_ms > 0 {
        std::time::Duration::from_millis(deadline_ms + 2000)
    } else {
        std::time::Duration::from_secs(60)
    };
    let mut client = swsimd::net::NetClient::connect(addr, std::time::Duration::from_secs(5))
        .map_err(|e| format!("{addr}: {e}"))?;
    client
        .set_read_timeout(Some(read_timeout))
        .map_err(|e| e.to_string())?;

    if stream_mode {
        return cmd_net_query_stream(
            &mut client,
            &queries,
            &alphabet,
            &o,
            deadline_ms as u32,
            &tenant,
            credit,
            resume.as_deref(),
        );
    }

    for q in &queries {
        let qe = alphabet.encode(&q.seq);
        let reply = client
            .send(&request(qe, o.top, &tenant, deadline_ms))
            .map_err(|e| match e.retry_after_ms() {
                Some(ms) => format!("query {}: {e} (retry after {ms}ms)", q.id),
                None => format!("query {}: {e}", q.id),
            })?;
        if reply.fidelity != swsimd::runner::Fidelity::Full {
            eprintln!(
                "warning: serving tier browning out; answered at fidelity {:?} (scores exact)",
                reply.fidelity
            );
        }
        if reply.degraded {
            eprintln!(
                "warning: degraded response; missing shard slice(s) {:?}",
                reply.missing_shards
            );
        }
        if reply.trace_id != 0 {
            eprintln!("query {}: trace={:#x}", q.id, reply.trace_id);
        }
        for hit in &reply.hits {
            println!("{}\tdb#{}\tscore={}", q.id, hit.db_index, hit.score);
        }
    }
    Ok(())
}

/// One `swsimd query` request; `deadline_ms` 0 means no deadline.
fn request(
    query: Vec<u8>,
    top_k: usize,
    tenant: &str,
    deadline_ms: u64,
) -> swsimd::runner::Request {
    let req = swsimd::runner::Request::new(query, top_k).with_tenant(tenant);
    match deadline_ms {
        0 => req,
        ms => req.with_timeout(std::time::Duration::from_millis(ms)),
    }
}

/// Streaming arm of `swsimd query`: incremental chunk delivery with
/// live progress, credit-based flow control (one grant per consumed
/// chunk keeps the sender's window full), and a resume token printed
/// on interrupt so `--resume <token>` can continue from durable shard
/// state.
#[allow(clippy::too_many_arguments)] // CLI options travel together
fn cmd_net_query_stream(
    client: &mut swsimd::net::NetClient,
    queries: &[swsimd::SeqRecord],
    alphabet: &Alphabet,
    o: &Opts,
    deadline_ms: u32,
    tenant: &str,
    credit: u32,
    resume: Option<&str>,
) -> Result<(), String> {
    use swsimd::net::{StreamEvent, StreamToken};
    if resume.is_some() && queries.len() != 1 {
        return Err(format!(
            "--resume continues exactly one interrupted query; the FASTA has {}",
            queries.len()
        ));
    }
    sig::install();
    for q in queries {
        let qe = alphabet.encode(&q.seq);
        let mut handle = match resume {
            Some(hex) => {
                let token = StreamToken::from_hex(hex).map_err(|e| format!("--resume: {e}"))?;
                client
                    .resume_stream(&token, &qe, deadline_ms, credit)
                    .map_err(|e| format!("resume {}: {e}", q.id))?
            }
            None => client
                .stream(&request(qe, o.top, tenant, u64::from(deadline_ms)), credit)
                .map_err(|e| format!("stream {}: {e}", q.id))?,
        };
        let mut progress_drawn = false;
        let clear_progress = |drawn: &mut bool| {
            if *drawn {
                eprint!("\r\x1b[2K");
                *drawn = false;
            }
        };
        loop {
            if sig::termed() {
                clear_progress(&mut progress_drawn);
                let token = handle.token();
                eprintln!("stream interrupted; resume with:");
                eprintln!(
                    "  swsimd query <addr> <query.fa> --stream --resume {}",
                    token.to_hex()
                );
                return Ok(());
            }
            match handle.next() {
                Ok(StreamEvent::Chunk {
                    shard,
                    cursor,
                    hits,
                }) => {
                    clear_progress(&mut progress_drawn);
                    for hit in &hits {
                        println!(
                            "{}\tslice{}#{}\tdb#{}\tscore={}",
                            q.id, shard, cursor, hit.db_index, hit.score
                        );
                    }
                    // Replace the spent credit so the window never
                    // drains to a stall.
                    handle
                        .grant(1)
                        .map_err(|e| format!("credit grant {}: {e}", q.id))?;
                }
                Ok(StreamEvent::Progress {
                    cells_done,
                    cells_total,
                }) => {
                    if cells_total > 0 {
                        let pct = cells_done as f64 * 100.0 / cells_total as f64;
                        eprint!("\rstream {:>5.1}% of {} cells", pct, cells_total);
                        progress_drawn = true;
                    }
                }
                Ok(StreamEvent::Fin(fin)) => {
                    clear_progress(&mut progress_drawn);
                    if fin.fidelity != swsimd::runner::Fidelity::Full {
                        eprintln!(
                            "warning: serving tier browning out; streamed at fidelity {:?} (scores exact)",
                            fin.fidelity
                        );
                    }
                    if fin.degraded {
                        eprintln!(
                            "warning: degraded stream; missing shard slice(s) {:?}",
                            fin.missing_shards
                        );
                    }
                    if fin.trace_id != 0 {
                        eprintln!("query {}: trace={:#x}", q.id, fin.trace_id);
                    }
                    if resume.is_some() {
                        // A resumed handle only folded post-resume
                        // chunks; the digest describes the complete
                        // ranking across both sessions.
                        eprintln!(
                            "stream complete: final ranking digest {:#010x} (stitch pre-interrupt chunks to verify)",
                            fin.digest
                        );
                    } else if fin.digest == handle.digest() {
                        eprintln!(
                            "stream complete: assembled ranking verified (digest {:#010x})",
                            fin.digest
                        );
                    } else {
                        return Err(format!(
                            "query {}: assembled ranking digest {:#010x} != server digest {:#010x}",
                            q.id,
                            handle.digest(),
                            fin.digest
                        ));
                    }
                    break;
                }
                Err(e) => {
                    clear_progress(&mut progress_drawn);
                    let token = handle.token();
                    eprintln!("stream error; resume with --resume {}", token.to_hex());
                    return Err(format!("stream {}: {e}", q.id));
                }
            }
        }
    }
    Ok(())
}

/// Parse a trace id as printed by `swsimd query` (0x-hex) or decimal.
fn parse_trace_id(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|e| format!("trace id '{s}': {e}"))
}

/// Pretty-print one flight-recorder audit record. Writes through a
/// fallible sink so `swsimd trace | head` gets a clean exit instead
/// of a broken-pipe panic.
fn print_record(rec: &swsimd::obs::AuditRecord) {
    use std::io::Write as _;
    let ms = |ns: u64| ns as f64 / 1e6;
    let mut out = String::new();
    out.push_str(&format!(
        "trace={:#x} query={} {} total={:.3}ms engine={} retries={} hedges={} degraded={}{}{}\n",
        rec.trace_id,
        rec.query_id,
        if rec.ok { "ok" } else { "FAILED" },
        ms(rec.total_ns),
        if rec.engine.is_empty() {
            "?"
        } else {
            &rec.engine
        },
        rec.retries,
        rec.hedges,
        rec.degraded,
        if rec.tenant.is_empty() {
            String::new()
        } else {
            format!(" tenant={}", rec.tenant)
        },
        if rec.cancel.is_empty() {
            String::new()
        } else {
            format!(" cancel={}", rec.cancel)
        },
    ));
    let mut stages = String::new();
    for s in &rec.stages {
        stages.push_str(&format!(" {}={:.3}ms", s.stage, ms(s.ns)));
    }
    out.push_str(&format!(
        "  stages:{stages} (sum {:.3}ms of {:.3}ms e2e)\n",
        ms(rec.stage_sum_ns()),
        ms(rec.total_ns)
    ));
    for shard in &rec.shards {
        let mut stages = String::new();
        for s in &shard.stages {
            stages.push_str(&format!(" {}={:.3}ms", s.stage, ms(s.ns)));
        }
        out.push_str(&format!(
            "  shard={} engine={} rtt={:.3}ms{stages}\n",
            shard.shard,
            shard.engine,
            ms(shard.rtt_ns)
        ));
    }
    if std::io::stdout().write_all(out.as_bytes()).is_err() {
        std::process::exit(0); // downstream pager closed the pipe
    }
}

/// Fetch and print the flight record for one trace id.
fn cmd_trace(addr: &str, id_arg: &str, rest: &[String]) -> Result<(), String> {
    let trace_id = parse_trace_id(id_arg)?;
    let json = rest.iter().any(|a| a == "--json");
    let mut client = swsimd::net::NetClient::connect(addr, std::time::Duration::from_secs(5))
        .map_err(|e| format!("{addr}: {e}"))?;
    if json {
        let text = client
            .flight_json(trace_id, 0, false)
            .map_err(|e| e.to_string())?;
        println!("{text}");
        return Ok(());
    }
    match client.trace(trace_id).map_err(|e| e.to_string())? {
        Some(rec) => {
            print_record(&rec);
            Ok(())
        }
        None => Err(format!(
            "trace {trace_id:#x}: not in the peer's flight recorder (evicted or never recorded)"
        )),
    }
}

/// Fetch and print the peer's slow-query log.
fn cmd_slowlog(addr: &str, rest: &[String]) -> Result<(), String> {
    let (net, flags) = split_net_opts(rest, &["--limit", "--tenant"])?;
    let json = flags.iter().any(|a| a == "--json");
    let limit = net_u64(&net, "--limit", 0)? as u32;
    let tenant = net.get("--tenant").cloned();
    let mut client = swsimd::net::NetClient::connect(addr, std::time::Duration::from_secs(5))
        .map_err(|e| format!("{addr}: {e}"))?;
    if json && tenant.is_none() {
        let text = client
            .flight_json(0, limit, true)
            .map_err(|e| e.to_string())?;
        println!("{text}");
        return Ok(());
    }
    let mut records = client.slowlog(limit).map_err(|e| e.to_string())?;
    if let Some(want) = &tenant {
        // "default" selects records with no tenant attribution, same
        // label the metric families use for the anonymous lane.
        records.retain(|r| swsimd::runner::tenant_label(&r.tenant) == want.as_str());
    }
    if json {
        let body: Vec<String> = records.iter().map(|r| r.to_json()).collect();
        println!("[{}]", body.join(","));
        return Ok(());
    }
    if records.is_empty() {
        println!("slowlog empty");
    }
    for rec in &records {
        print_record(rec);
    }
    Ok(())
}

fn cmd_net_metrics(addr: &str, rest: &[String]) -> Result<(), String> {
    let (net, leftover) = split_net_opts(rest, &["--tenant"])?;
    if !leftover.is_empty() {
        return Err(format!("net-metrics: unknown option '{}'", leftover[0]));
    }
    let mut client = swsimd::net::NetClient::connect(addr, std::time::Duration::from_secs(5))
        .map_err(|e| format!("{addr}: {e}"))?;
    let text = client.metrics().map_err(|e| e.to_string())?;
    match net.get("--tenant") {
        // Scoped view: just the series labelled with this tenant.
        Some(want) => {
            let needle = format!("tenant=\"{want}\"");
            for line in text.lines().filter(|l| l.contains(&needle)) {
                println!("{line}");
            }
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn cmd_net_drain(addr: &str) -> Result<(), String> {
    let mut client = swsimd::net::NetClient::connect(addr, std::time::Duration::from_secs(5))
        .map_err(|e| format!("{addr}: {e}"))?;
    let pong = client.drain().map_err(|e| e.to_string())?;
    println!(
        "draining: shard={} (gateway={})",
        pong.shard,
        pong.shard == swsimd::net::GATEWAY_SHARD_ID
    );
    Ok(())
}

fn cmd_info() {
    println!("swsimd — Smith-Waterman with vector extensions");
    println!("engines available on this CPU:");
    for e in EngineKind::available() {
        let best = if e == EngineKind::best() {
            "  (selected)"
        } else {
            ""
        };
        println!("  {:<8} {} bits{}", e.name(), e.width_bits(), best);
    }
    println!(
        "built-in matrices: {}",
        swsimd::matrices::BUILTIN_NAMES.join(", ")
    );
    let _ = Alphabet::protein();
}

/// `SWSIMD_TRACE=stderr` installs the stderr span sink before any
/// command runs, turning on live span emission (and nonzero span ids,
/// so distributed span trees stitch across processes).
fn maybe_install_trace_sink() {
    if std::env::var("SWSIMD_TRACE").as_deref() == Ok("stderr") {
        swsimd::obs::set_sink(Some(std::sync::Arc::new(swsimd::obs::StderrSink)));
    }
}

fn main() -> ExitCode {
    maybe_install_trace_sink();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: swsimd <align|search|shard|serve|cluster|query|trace|slowlog|net-metrics|net-drain|info|selftest> [paths...] [options] (see --help in source)";
    let result = match args.first().map(String::as_str) {
        Some("align") if args.len() >= 3 => {
            // Boot battery runs before --engine parsing so that a
            // backend which fails its golden vectors is already marked
            // unusable when the trust check sees it.
            swsimd::core::selftest::boot();
            parse_opts(&args[3..]).and_then(|o| cmd_align(&args[1], &args[2], &o))
        }
        Some("search") if args.len() >= 3 => {
            swsimd::core::selftest::boot();
            parse_opts(&args[3..]).and_then(|o| cmd_search(&args[1], &args[2], &o))
        }
        Some("shard") if args.len() >= 2 => {
            swsimd::core::selftest::boot();
            cmd_shard(&args[1], &args[2..])
        }
        Some("serve") => cmd_serve(&args[1..]),
        Some("cluster") if args.len() >= 2 => cmd_cluster(&args[1], &args[2..]),
        Some("query") if args.len() >= 3 => cmd_net_query(&args[1], &args[2], &args[3..]),
        Some("trace") if args.len() >= 3 => cmd_trace(&args[1], &args[2], &args[3..]),
        Some("slowlog") if args.len() >= 2 => cmd_slowlog(&args[1], &args[2..]),
        Some("net-metrics") if args.len() >= 2 => cmd_net_metrics(&args[1], &args[2..]),
        Some("net-drain") if args.len() >= 2 => cmd_net_drain(&args[1]),
        Some("info") => {
            cmd_info();
            Ok(())
        }
        Some("selftest") => cmd_selftest(),
        _ => Err(usage.to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
