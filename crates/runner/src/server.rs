//! Centralized batch-alignment server (§IV-G, §VI).
//!
//! The paper: "in environments with a centralized server handling
//! multiple queries, it may be more efficient to accumulate several
//! queries before beginning the computation". This module implements
//! that deployment: clients submit queries over a bounded channel; the
//! server accumulates up to `batch_size` queries (or until `max_wait`
//! expires), then processes the whole batch against the shared,
//! pre-batched database, amortizing database traffic across queries.
//!
//! ## Failure model
//!
//! The serving layer never panics on the request path; every failure
//! is a typed [`ServeError`]:
//!
//! * every request is one [`Request`] value admitted through
//!   [`ServerClient::send`], and the job queue is **bounded**
//!   (`queue_depth`) and partitioned into bounded per-tenant
//!   fair-share lanes scheduled by deficit round-robin
//!   ([`ServerConfig::qos`]): a full lane (or a full transport queue)
//!   sheds immediately with [`ServeError::QueueFull`] (carrying a
//!   `retry_after_ms` hint) and a tenant's token bucket refuses excess
//!   cost with [`ServeError::RateLimited`], so one hot tenant cannot
//!   starve the rest and no caller ever blocks on admission;
//! * under sustained queue delay the brownout controller
//!   ([`ServerConfig::brownout`]) cheapens work stepwise instead of
//!   refusing it — each step is declared as a typed [`Fidelity`] on
//!   the result, never applied silently;
//! * a [`Request::deadline`] bounds queue + compute + reply:
//!   [`PendingQuery::wait`] returns [`ServeError::DeadlineExceeded`]
//!   when it expires — it never blocks indefinitely — and the server
//!   skips jobs whose deadline has already passed instead of computing
//!   dead answers;
//! * a panicking, wedged or malformed fast path is isolated by the
//!   pool's one isolation policy ([`crate::pool`]) and the job is
//!   retried **once** on the scalar reference engine (exact scores,
//!   degraded throughput); only a double fault surfaces as
//!   [`ServeError::WorkerPanicked`];
//! * queries are validated on submit ([`ServeError::InvalidQuery`]);
//! * after [`BatchServer::shutdown`], outstanding clients get
//!   [`ServeError::ShutDown`] instead of a panic.
//!
//! All of it is observable through [`ServerStats`] and
//! deterministically testable via [`FaultPlan`].
//!
//! ## Exposition
//!
//! Every server keeps its counters in one place: handles in the
//! process-global [`swsimd_obs`] registry, labelled with a per-server
//! `instance`. Each event bumps its handle once, and
//! [`BatchServer::stats`], [`BatchServer::health_line`] and a scrape
//! ([`BatchServer::prometheus_text`] in Prometheus text format,
//! [`BatchServer::json_snapshot`] as JSON) all read those handles.
//! The registry also holds the end-to-end query latency histogram
//! (`swsimd_query_latency_seconds`, labelled `scenario="server"`) and
//! the live queue-depth gauge. Shed, timeout, panic and degraded-retry
//! decisions additionally emit structured trace events when a
//! [`swsimd_obs`] sink is installed.

use std::sync::atomic::{
    AtomicU64, AtomicU8,
    Ordering::{Acquire, Relaxed, Release},
};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use swsimd_core::{
    validate_encoded, AlignError, Aligner, AlignerBuilder, CancelReason, CancelToken, EngineKind,
    Hit, MemBudget,
};
use swsimd_obs::flight::{AuditRecord, Stage, StageTiming};
use swsimd_obs::trace::TraceCtx;
use swsimd_obs::{Counter, Gauge, Histogram};
use swsimd_seq::{BatchedDatabase, Database};

use crate::fault::{FaultPlan, FaultStats};
use crate::metrics;
use crate::pool::{isolate, Watchdog};
use crate::qos::{
    tenant_label, Brownout, BrownoutConfig, Drr, Fidelity, QosConfig, QosShared, TenantShared,
};
use crate::shadow::{ShadowConfig, ShadowVerifier};

/// A typed serving failure. Every client-facing entry point returns
/// `Result<_, ServeError>`; the serving layer itself never panics on
/// the request path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The server has shut down (or did so before answering).
    ShutDown,
    /// The deadline passed before enqueue, compute, or reply finished.
    DeadlineExceeded,
    /// The tenant's bounded fair-share lane is full (load shed).
    QueueFull {
        /// Hint: how long until the lane has likely drained, derived
        /// from the worker's queue-delay EWMA. Milliseconds, ≥ 1; `0`
        /// when the hint could not be computed (e.g. decoded from an
        /// old peer that predates hints).
        retry_after_ms: u64,
    },
    /// The tenant's token bucket refused the query's cost at admission
    /// (fair-share rate limiting).
    RateLimited {
        /// Hint: how long until the bucket holds enough tokens.
        /// Milliseconds, ≥ 1 (`0` only from hint-less old peers).
        retry_after_ms: u64,
    },
    /// A worker panicked and the degraded retry failed too.
    WorkerPanicked,
    /// The query is not a valid encoded sequence.
    InvalidQuery(AlignError),
    /// The query exceeds the server's admission quota
    /// ([`ServerConfig::max_query_len`]).
    QueryTooLarge {
        /// Residues in the rejected query.
        len: usize,
        /// The configured admission limit.
        limit: usize,
    },
    /// The requested engine cannot serve: missing on this CPU, or
    /// demoted by the kernel trust breaker. Surfaced instead of a
    /// silent fallback so operators see the degradation.
    EngineUnavailable {
        /// The engine the server was configured for.
        requested: EngineKind,
        /// Why it cannot be dispatched.
        reason: &'static str,
    },
    /// The query's estimated cost (`|query| × database residues`)
    /// exceeds the server's admission ceiling
    /// ([`ServerConfig::max_cost`]).
    CostTooHigh {
        /// Estimated DP cells for this query.
        cost: u64,
        /// The configured admission ceiling.
        limit: u64,
    },
    /// A DP buffer allocation exceeded the per-query memory budget
    /// ([`ServerConfig::mem_budget`]).
    BudgetExceeded {
        /// Bytes the job needed to reserve.
        requested: u64,
        /// The configured budget.
        limit: u64,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::ShutDown => write!(f, "server is shut down"),
            ServeError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ServeError::QueueFull { retry_after_ms } => {
                write!(f, "job queue full (load shed; retry in {retry_after_ms}ms)")
            }
            ServeError::RateLimited { retry_after_ms } => {
                write!(f, "rate limited (retry in {retry_after_ms}ms)")
            }
            ServeError::WorkerPanicked => {
                write!(f, "worker panicked and degraded retry failed")
            }
            ServeError::InvalidQuery(e) => write!(f, "invalid query: {e}"),
            ServeError::QueryTooLarge { len, limit } => {
                write!(f, "query of {len} residues exceeds admission limit {limit}")
            }
            ServeError::EngineUnavailable { requested, reason } => {
                write!(f, "engine {} unavailable: {reason}", requested.name())
            }
            ServeError::CostTooHigh { cost, limit } => {
                write!(
                    f,
                    "estimated cost {cost} cells exceeds admission ceiling {limit}"
                )
            }
            ServeError::BudgetExceeded { requested, limit } => {
                write!(f, "needed {requested} bytes, per-query budget is {limit}")
            }
        }
    }
}

/// Map a mid-compute cancellation to the client-facing error the
/// serving contract promises: deadline/client-drop cancellations look
/// like [`ServeError::DeadlineExceeded`], shutdown like
/// [`ServeError::ShutDown`]. A watchdog reap never reaches clients
/// directly (the job is retried on scalar first); if the retry path is
/// unavailable it degenerates to [`ServeError::WorkerPanicked`].
fn cancel_to_serve(reason: CancelReason) -> ServeError {
    match reason {
        CancelReason::Deadline | CancelReason::ClientDrop => ServeError::DeadlineExceeded,
        CancelReason::Shutdown => ServeError::ShutDown,
        CancelReason::Watchdog => ServeError::WorkerPanicked,
        CancelReason::Memory => ServeError::BudgetExceeded {
            requested: 0,
            limit: 0,
        },
    }
}

impl ServeError {
    /// The backoff hint carried by overload rejections
    /// ([`ServeError::QueueFull`], [`ServeError::RateLimited`]), if
    /// any — clients should wait this long before retrying instead of
    /// following a generic exponential schedule.
    pub fn retry_after_ms(&self) -> Option<u64> {
        match self {
            ServeError::QueueFull { retry_after_ms }
            | ServeError::RateLimited { retry_after_ms } => Some(*retry_after_ms),
            _ => None,
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::InvalidQuery(e) => Some(e),
            _ => None,
        }
    }
}

impl From<AlignError> for ServeError {
    fn from(e: AlignError) -> Self {
        match e {
            AlignError::EngineUnavailable { requested, reason } => {
                ServeError::EngineUnavailable { requested, reason }
            }
            AlignError::Cancelled { reason } => cancel_to_serve(reason),
            AlignError::BudgetExceeded { requested, limit } => {
                ServeError::BudgetExceeded { requested, limit }
            }
            other => ServeError::InvalidQuery(other),
        }
    }
}

/// Job lifecycle phases, shared between client and worker so a
/// deadline expiry is attributed to the stage the job was actually in
/// (`queue` → `compute` → `reply`) rather than guessed from timing.
const PHASE_QUEUED: u8 = 0;
const PHASE_COMPUTING: u8 = 1;
const PHASE_REPLIED: u8 = 2;

fn stage_of(phase: &AtomicU8) -> &'static str {
    match phase.load(Acquire) {
        PHASE_COMPUTING => "compute",
        PHASE_REPLIED => "reply",
        _ => "queue",
    }
}

/// A completed query's results plus the worker-side attribution the
/// serving tier stitches into traces and flight-recorder records:
/// where the time went (queue vs. kernel) and which engine computed it
/// (`"scalar"` after a degraded retry, whatever the aligner dispatched
/// otherwise).
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    /// Ranked hits.
    pub hits: Vec<Hit>,
    /// Time the job waited in the queue before compute started.
    pub queue_ns: u64,
    /// Kernel + ranking compute time.
    pub compute_ns: u64,
    /// Engine that produced the served answer.
    pub engine: &'static str,
    /// Degraded scalar retries taken before the answer was produced.
    pub retries: u32,
    /// Which work the brownout controller suspended while computing
    /// this (always exact-score) answer. [`Fidelity::Full`] outside
    /// overload.
    pub fidelity: Fidelity,
}

/// One query's outcome, sent back over its private reply channel.
type Reply = Result<QueryOutcome, ServeError>;

struct Job {
    query: Vec<u8>,
    reply: Sender<Reply>,
    top_k: usize,
    /// Propagated trace context: the worker adopts it around compute
    /// so kernel spans parent under the submitter's (possibly remote)
    /// request span, and flight-recorder records carry the trace id.
    trace: TraceCtx,
    /// Client-imposed deadline; the server skips jobs that expire in
    /// the queue instead of computing answers nobody is waiting for.
    deadline: Option<Instant>,
    /// When the client built the job — the start of the end-to-end
    /// latency measurement recorded when the reply is computed.
    submitted: Instant,
    /// Cancellation token governing this job's compute: a child of the
    /// server's shutdown token with the job deadline baked in, so an
    /// expired deadline cancels mid-kernel at the next check period.
    cancel: CancelToken,
    /// Lifecycle phase ([`PHASE_QUEUED`] → [`PHASE_COMPUTING`] →
    /// [`PHASE_REPLIED`]), shared with the client for correct expiry
    /// stage attribution.
    phase: Arc<AtomicU8>,
    /// The admitting tenant's shared QoS state: its fair-share lane
    /// occupancy (incremented at admission, decremented when the
    /// worker dequeues the job) and labelled metric series.
    tenant: Arc<TenantShared>,
    /// Estimated cost in DP cells (`|query| × Σ|db|`) — the currency
    /// both the token bucket and the DRR scheduler charge in.
    cost: u64,
}

/// Registry-backed instruments for one server instance: the latency
/// histogram, the live gauges, and the counters — the only store of
/// every [`ServerStats`] field. Each server gets a unique `instance`
/// label so concurrent servers (and tests) record into disjoint series
/// of the process-global registry.
struct ServerObs {
    /// This server's unique `instance` label value, reused for the
    /// per-tenant metric families minted on demand by [`QosShared`].
    instance: String,
    latency: Arc<Histogram>,
    queue_depth: Arc<Gauge>,
    brownout_level: Arc<Gauge>,
    queries: Arc<Counter>,
    batches: Arc<Counter>,
    full_batches: Arc<Counter>,
    timeouts: Arc<Counter>,
    shed: Arc<Counter>,
    rate_limited: Arc<Counter>,
    worker_panics: Arc<Counter>,
    degraded_batches: Arc<Counter>,
    retries: Arc<Counter>,
    journal_replays: Arc<Counter>,
    records_quarantined: Arc<Counter>,
    corrupt_images: Arc<Counter>,
    shadow_checks: Arc<Counter>,
    shadow_mismatches: Arc<Counter>,
    backend_demotions: Arc<Counter>,
    selftest_failures: Arc<Counter>,
    cost_rejected: Arc<Counter>,
    budget_rejected: Arc<Counter>,
    watchdog_fires: Arc<Counter>,
    /// One labelled series per [`CancelReason`], in
    /// [`CancelReason::ALL`] order.
    cancelled: [Arc<Counter>; 5],
    mem_budget_limit: Arc<Gauge>,
    mem_budget_used: Arc<Gauge>,
}

impl ServerObs {
    fn new() -> Arc<Self> {
        static NEXT_INSTANCE: AtomicU64 = AtomicU64::new(0);
        let id = NEXT_INSTANCE.fetch_add(1, Relaxed).to_string();
        let r = swsimd_obs::global();
        let labels: &[(&str, &str)] = &[("instance", &id)];
        let counter = |name: &str, help: &'static str| r.counter(name, help, labels);
        Arc::new(Self {
            latency: r.histogram_scaled(
                metrics::QUERY_LATENCY_METRIC,
                "End-to-end query latency (enqueue to reply), by scenario.",
                1e-9,
                &[("scenario", "server"), ("instance", &id)],
            ),
            queue_depth: r.gauge(
                "swsimd_queue_depth",
                "Jobs waiting in the bounded server queue.",
                labels,
            ),
            brownout_level: r.gauge(
                "swsimd_brownout_level",
                "Current brownout degradation level (0 = full fidelity).",
                labels,
            ),
            queries: counter(
                "swsimd_server_queries_total",
                "Queries served (a reply was computed).",
            ),
            batches: counter("swsimd_server_batches_total", "Batches processed."),
            full_batches: counter(
                "swsimd_server_full_batches_total",
                "Batches that filled to batch_size before the wait expired.",
            ),
            timeouts: counter(
                "swsimd_server_timeouts_total",
                "Queries that hit their deadline before a result arrived.",
            ),
            shed: counter(
                "swsimd_server_shed_total",
                "Queries shed because the job queue was full.",
            ),
            rate_limited: counter(
                "swsimd_server_rate_limited_total",
                "Queries refused at admission by a tenant's token bucket.",
            ),
            worker_panics: counter(
                "swsimd_server_worker_panics_total",
                "Worker panics isolated on the request path.",
            ),
            degraded_batches: counter(
                "swsimd_server_degraded_batches_total",
                "Fast-path results discarded (panic, failed validation or watchdog reap).",
            ),
            retries: counter(
                "swsimd_server_retries_total",
                "Degraded retries run on the scalar reference engine.",
            ),
            journal_replays: counter(
                "swsimd_server_journal_replays_total",
                "Searches resumed from a journal instead of recomputed.",
            ),
            records_quarantined: counter(
                "swsimd_server_records_quarantined_total",
                "Malformed ingest records quarantined (skip-record policy).",
            ),
            corrupt_images: counter(
                "swsimd_server_corrupt_images_total",
                "Database images rejected for failed integrity checks.",
            ),
            shadow_checks: counter(
                "swsimd_server_shadow_checks_total",
                "Served hits recomputed on the scalar reference by shadow verification.",
            ),
            shadow_mismatches: counter(
                "swsimd_server_shadow_mismatches_total",
                "Shadow-verified hits whose served score disagreed with the reference.",
            ),
            backend_demotions: counter(
                "swsimd_server_backend_demotions_total",
                "Circuit-breaker openings: a backend crossed its strike threshold.",
            ),
            selftest_failures: counter(
                "swsimd_server_selftest_failures_total",
                "Backends that failed the boot self-test battery.",
            ),
            cost_rejected: counter(
                "swsimd_server_cost_rejected_total",
                "Queries rejected at admission for excessive estimated cost.",
            ),
            budget_rejected: counter(
                "swsimd_server_budget_rejected_total",
                "Queries rejected by the per-query memory budget.",
            ),
            watchdog_fires: counter(
                "swsimd_server_watchdog_fires_total",
                "Wedged workers reaped by the stall watchdog.",
            ),
            cancelled: CancelReason::ALL.map(|reason| {
                r.counter(
                    "swsimd_server_cancelled_total",
                    "Work cancelled mid-flight, by reason.",
                    &[("instance", &id), ("reason", reason.as_str())],
                )
            }),
            mem_budget_limit: r.gauge(
                "swsimd_mem_budget_limit_bytes",
                "Configured per-query memory budget (0 = unlimited).",
                labels,
            ),
            mem_budget_used: r.gauge(
                "swsimd_mem_budget_used_bytes",
                "DP/traceback bytes currently reserved against the budget.",
                labels,
            ),
            instance: id.clone(),
        })
    }

    /// The cancellation series labelled with `reason`.
    fn cancelled_counter(&self, reason: CancelReason) -> &Counter {
        let idx = CancelReason::ALL
            .iter()
            .position(|r| *r == reason)
            .expect("ALL covers every reason");
        &self.cancelled[idx]
    }

    /// Bump the series of one job's isolation and shadow events. A
    /// watchdog reap is both a fire and a watchdog cancellation.
    fn add_faults(&self, faults: &FaultStats) {
        let FaultStats {
            worker_panics,
            degraded_batches,
            retries,
            shadow_checks,
            shadow_mismatches,
            backend_demotions,
            watchdog_fires,
        } = *faults;
        self.worker_panics.add(worker_panics);
        self.degraded_batches.add(degraded_batches);
        self.retries.add(retries);
        self.shadow_checks.add(shadow_checks);
        self.shadow_mismatches.add(shadow_mismatches);
        self.backend_demotions.add(backend_demotions);
        self.watchdog_fires.add(watchdog_fires);
        self.cancelled_counter(CancelReason::Watchdog)
            .add(watchdog_fires);
    }

    /// Read every counter into plain values.
    fn stats(&self) -> ServerStats {
        let [cancelled_deadline, cancelled_client_drop, cancelled_shutdown, cancelled_watchdog, cancelled_memory] =
            self.cancelled.each_ref().map(|c| c.get());
        ServerStats {
            batches: self.batches.get(),
            queries: self.queries.get(),
            full_batches: self.full_batches.get(),
            timeouts: self.timeouts.get(),
            shed: self.shed.get(),
            rate_limited: self.rate_limited.get(),
            worker_panics: self.worker_panics.get(),
            degraded_batches: self.degraded_batches.get(),
            retries: self.retries.get(),
            journal_replays: self.journal_replays.get(),
            records_quarantined: self.records_quarantined.get(),
            corrupt_images: self.corrupt_images.get(),
            shadow_checks: self.shadow_checks.get(),
            shadow_mismatches: self.shadow_mismatches.get(),
            backend_demotions: self.backend_demotions.get(),
            selftest_failures: self.selftest_failures.get(),
            cost_rejected: self.cost_rejected.get(),
            budget_rejected: self.budget_rejected.get(),
            watchdog_fires: self.watchdog_fires.get(),
            cancelled_deadline,
            cancelled_client_drop,
            cancelled_shutdown,
            cancelled_watchdog,
            cancelled_memory,
        }
    }

    /// One-line human-readable health summary: the counters plus live
    /// queue depth and latency quantiles in milliseconds.
    fn health_line(&self) -> String {
        let l = self.latency.snapshot();
        format!(
            "[server] {} depth={} p50_ms={:.2} p95_ms={:.2} p99_ms={:.2}",
            self.stats(),
            self.queue_depth.get(),
            l.p50 as f64 / 1e6,
            l.p95 as f64 / 1e6,
            l.p99 as f64 / 1e6,
        )
    }
}

/// Channel protocol: jobs, or an explicit shutdown marker (needed
/// because outstanding `ServerClient` clones keep the channel
/// connected, so disconnect alone cannot signal shutdown).
enum Msg {
    Job(Job),
    Shutdown,
}

/// One search request: the single value every serving layer admits —
/// [`ServerClient::send`] in process, and the network gateway and wire
/// client on the sharded tier.
#[derive(Clone, Debug, Default)]
pub struct Request {
    /// Encoded query residues.
    pub query: Vec<u8>,
    /// Hits to return, best first (0 keeps all).
    pub top_k: usize,
    /// Tenant the request bills to. The tenant's token bucket and
    /// bounded fair-share lane admit it, and deficit round-robin
    /// schedules it against other tenants' lanes. Empty is the
    /// anonymous/default tenant.
    pub tenant: String,
    /// Deadline covering queueing, compute and reply. On expiry the
    /// job is cancelled and the caller gets
    /// [`ServeError::DeadlineExceeded`]. `None` waits indefinitely.
    pub deadline: Option<Instant>,
    /// Distributed-trace context: the worker adopts it around the
    /// kernel, so compute spans parent under the caller's (possibly
    /// remote) request span and the flight-recorder audit record
    /// carries its trace id. The default is untraced.
    pub trace: TraceCtx,
}

impl Request {
    /// An untraced request from the default tenant with no deadline.
    pub fn new(query: Vec<u8>, top_k: usize) -> Self {
        Self {
            query,
            top_k,
            ..Self::default()
        }
    }

    /// Bill the request to `tenant`.
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = tenant.into();
        self
    }

    /// Set the deadline `timeout` from now.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.deadline = Some(Instant::now() + timeout);
        self
    }
}

/// Handle for submitting queries to a running server.
#[derive(Clone)]
pub struct ServerClient {
    tx: Sender<Msg>,
    obs: Arc<ServerObs>,
    max_query_len: usize,
    /// Cost-admission ceiling (estimated DP cells), if configured.
    max_cost: Option<u64>,
    /// Total residues in the served database — the other factor of the
    /// `|query| × Σ|db|` cost model.
    db_residues: u64,
    /// Parent of every job token; cancelled with
    /// [`CancelReason::Shutdown`] when the server stops.
    server_cancel: CancelToken,
    /// Shared multi-tenant admission state (lanes, buckets, hints).
    qos: Arc<QosShared>,
}

impl ServerClient {
    fn make_job(&self, req: Request) -> Result<(Job, Receiver<Reply>), ServeError> {
        let Request {
            query,
            top_k,
            tenant,
            deadline,
            trace,
        } = req;
        if query.len() > self.max_query_len {
            swsimd_obs::event!(
                "query_rejected_too_large",
                "len" => query.len(),
                "limit" => self.max_query_len
            );
            return Err(ServeError::QueryTooLarge {
                len: query.len(),
                limit: self.max_query_len,
            });
        }
        // Cost-based admission: reject work that would monopolize the
        // worker before it is ever buffered. The estimate is exact in
        // cells (`|q| × Σ|db|`); the ceiling is calibrated against
        // measured CUPS by the operator.
        let cost = query.len() as u64 * self.db_residues;
        if let Some(limit) = self.max_cost {
            if cost > limit {
                self.obs.cost_rejected.inc();
                swsimd_obs::event!(
                    "query_rejected_cost",
                    "cost" => cost,
                    "limit" => limit
                );
                return Err(ServeError::CostTooHigh { cost, limit });
            }
        }
        // Token-bucket rate admission: charge the query's cost against
        // the tenant's bucket before it is ever buffered; a refusal
        // carries the refill time as the retry hint.
        let shared = self.qos.tenant(&tenant);
        if let Some(bucket) = &shared.bucket {
            let take = bucket
                .lock()
                .expect("token bucket lock")
                .try_take(cost, Instant::now());
            if let Err(retry_after_ms) = take {
                self.obs.rate_limited.inc();
                shared.rate_limited.inc();
                swsimd_obs::event!(
                    "query_rate_limited",
                    "tenant" => tenant_label(&shared.name).to_string(),
                    "cost" => cost,
                    "retry_after_ms" => retry_after_ms
                );
                return Err(ServeError::RateLimited { retry_after_ms });
            }
        }
        validate_encoded(&query)?;
        // Fair-share lane admission: each tenant owns a bounded slice
        // of the queue, so one hot tenant saturating its lane sheds
        // its own traffic instead of starving everyone else's.
        let lane_depth = self.qos.lane_depth();
        let admitted = shared
            .queued
            .fetch_update(Relaxed, Relaxed, |q| (q < lane_depth).then_some(q + 1));
        if admitted.is_err() {
            return Err(self.shed(&shared));
        }
        shared.queue_depth.inc();
        let (reply_tx, reply_rx) = bounded(1);
        Ok((
            Job {
                query,
                reply: reply_tx,
                top_k,
                trace,
                deadline,
                submitted: Instant::now(),
                cancel: self.server_cancel.child_with_deadline(deadline),
                phase: Arc::new(AtomicU8::new(PHASE_QUEUED)),
                tenant: shared,
                cost,
            },
            reply_rx,
        ))
    }

    /// Ledger + trace bookkeeping for one shed request; returns the
    /// typed refusal carrying the worker's queue-delay backoff hint.
    fn shed(&self, tenant: &TenantShared) -> ServeError {
        let retry_after_ms = self.qos.retry_hint_ms();
        self.obs.shed.inc();
        tenant.shed.inc();
        swsimd_obs::event!(
            "load_shed",
            "tenant" => tenant_label(&tenant.name).to_string(),
            "depth" => self.obs.queue_depth.get(),
            "retry_after_ms" => retry_after_ms
        );
        ServeError::QueueFull { retry_after_ms }
    }

    /// Admit and enqueue one request without blocking. Admission runs
    /// the size, cost, rate and fair-share lane checks; a request that
    /// passes them but finds the transport queue full is shed with
    /// [`ServeError::QueueFull`] like a full lane, so no caller ever
    /// blocks here. The returned [`PendingQuery`] is awaited with
    /// [`PendingQuery::wait`], or polled in steps so a network front
    /// end can interleave waiting with connection-liveness checks and
    /// cancel the job (`CancelReason::ClientDrop`) the moment the
    /// requesting socket disconnects.
    pub fn send(&self, req: Request) -> Result<PendingQuery, ServeError> {
        let (job, reply_rx) = self.make_job(req)?;
        let token = job.cancel.clone();
        let phase = job.phase.clone();
        let deadline = job.deadline;
        if let Err(err) = self.tx.try_send(Msg::Job(job)) {
            let (full, msg) = match err {
                TrySendError::Full(msg) => (true, msg),
                TrySendError::Disconnected(msg) => (false, msg),
            };
            // Undo the lane admission: the job never reached the queue.
            if let Msg::Job(job) = msg {
                job.tenant.queued.fetch_sub(1, Relaxed);
                job.tenant.queue_depth.dec();
                if full {
                    return Err(self.shed(&job.tenant));
                }
            }
            return Err(ServeError::ShutDown);
        }
        self.obs.queue_depth.inc();
        Ok(PendingQuery {
            reply_rx,
            token,
            deadline,
            phase,
            obs: self.obs.clone(),
        })
    }

    /// [`ServerClient::send`] for an untraced request from the default
    /// tenant.
    pub fn submit(
        &self,
        query: Vec<u8>,
        top_k: usize,
        deadline: Option<Instant>,
    ) -> Result<PendingQuery, ServeError> {
        self.send(Request {
            deadline,
            ..Request::new(query, top_k)
        })
    }
}

/// Server configuration.
#[derive(Clone)]
pub struct ServerConfig {
    /// Queries accumulated before a batch is processed.
    pub batch_size: usize,
    /// Maximum time the first query in a batch waits for company.
    pub max_wait: Duration,
    /// Bound on queued jobs: [`ServerClient::send`] sheds with
    /// [`ServeError::QueueFull`] when this many jobs are already
    /// waiting.
    pub queue_depth: usize,
    /// Fault-injection schedule (inert by default; see [`FaultPlan`]).
    pub fault_plan: FaultPlan,
    /// Admission quota: queries longer than this many residues are
    /// rejected at submit time with [`ServeError::QueryTooLarge`]
    /// before any buffering — the serving-side arm of the ingestion
    /// memory budget (`swsimd_seq::IngestQuota`).
    pub max_query_len: usize,
    /// Sampled shadow verification of served hits against the scalar
    /// reference (off by default; see [`ShadowConfig`]).
    pub shadow: ShadowConfig,
    /// Cost-based admission ceiling in estimated DP cells
    /// (`|query| × Σ|db|`). Queries above it are rejected with
    /// [`ServeError::CostTooHigh`] before buffering. `None` disables.
    pub max_cost: Option<u64>,
    /// Per-query memory budget in bytes for DP working buffers.
    /// Reservations above it fail with [`ServeError::BudgetExceeded`].
    /// `None` disables accounting.
    pub mem_budget: Option<u64>,
    /// Stall watchdog: a worker whose kernel heartbeat stops advancing
    /// for this long is cancelled ([`CancelReason::Watchdog`]), a
    /// trust-ladder strike is filed against the effective engine, and
    /// the job is retried on the scalar reference. `None` disables.
    pub stall_timeout: Option<Duration>,
    /// Multi-tenant fair-share scheduling and token-bucket admission
    /// (tenant weights, lane bounds, rate limits). The default is a
    /// single anonymous lane sized to `queue_depth`, which preserves
    /// the historical FIFO behaviour.
    pub qos: QosConfig,
    /// Brownout degradation watermarks: under sustained queue delay
    /// the worker suspends work stepwise (shadow sampling → stage
    /// detail → deadline headroom) instead of shedding, declaring each
    /// step as a typed [`Fidelity`] on results. `None` disables.
    pub brownout: Option<BrownoutConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            batch_size: 8,
            max_wait: Duration::from_millis(20),
            queue_depth: 1024,
            fault_plan: FaultPlan::default(),
            max_query_len: usize::MAX,
            shadow: ShadowConfig::default(),
            max_cost: None,
            mem_budget: None,
            stall_timeout: None,
            qos: QosConfig::default(),
            brownout: None,
        }
    }
}

/// Plain-value copy of one server's counters, read from the registry
/// handles a scrape reads: each field is the server's
/// `swsimd_server_<field>_total` series, except that the `cancelled_*`
/// fields are the cancellation series labelled with their `reason`.
/// `Display` renders the `key=value` form that opens
/// [`BatchServer::health_line`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Batches processed.
    pub batches: u64,
    /// Queries served (a reply was computed).
    pub queries: u64,
    /// Batches that filled to `batch_size` before the wait expired.
    pub full_batches: u64,
    /// Queries that hit their deadline before a result arrived.
    pub timeouts: u64,
    /// Queries shed because a tenant lane or the job queue was full.
    pub shed: u64,
    /// Queries refused at admission by a tenant's token bucket.
    pub rate_limited: u64,
    /// Worker panics isolated on the request path.
    pub worker_panics: u64,
    /// Fast-path results discarded (panic, failed validation or
    /// watchdog reap).
    pub degraded_batches: u64,
    /// Degraded retries run on the scalar reference engine.
    pub retries: u64,
    /// Searches resumed from a journal instead of recomputed.
    pub journal_replays: u64,
    /// Malformed ingest records quarantined (skip-record policy).
    pub records_quarantined: u64,
    /// Database images rejected for failed integrity checks.
    pub corrupt_images: u64,
    /// Served hits recomputed on the scalar reference by shadow
    /// verification.
    pub shadow_checks: u64,
    /// Shadow-verified hits whose served score disagreed with the
    /// reference.
    pub shadow_mismatches: u64,
    /// Circuit-breaker openings: a backend crossed its strike
    /// threshold and was demoted.
    pub backend_demotions: u64,
    /// Backends that failed the boot self-test battery.
    pub selftest_failures: u64,
    /// Queries rejected at admission for excessive estimated cost.
    pub cost_rejected: u64,
    /// Queries rejected by the per-query memory budget.
    pub budget_rejected: u64,
    /// Wedged workers reaped by the stall watchdog.
    pub watchdog_fires: u64,
    /// Work cancelled: deadline expired mid-compute.
    pub cancelled_deadline: u64,
    /// Work cancelled: requesting client went away.
    pub cancelled_client_drop: u64,
    /// Work cancelled: server shutdown.
    pub cancelled_shutdown: u64,
    /// Work cancelled: stall watchdog.
    pub cancelled_watchdog: u64,
    /// Work cancelled: memory-budget enforcement.
    pub cancelled_memory: u64,
}

impl std::fmt::Display for ServerStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let fields = [
            ("batches", self.batches),
            ("queries", self.queries),
            ("full_batches", self.full_batches),
            ("timeouts", self.timeouts),
            ("shed", self.shed),
            ("rate_limited", self.rate_limited),
            ("worker_panics", self.worker_panics),
            ("degraded_batches", self.degraded_batches),
            ("retries", self.retries),
            ("journal_replays", self.journal_replays),
            ("records_quarantined", self.records_quarantined),
            ("corrupt_images", self.corrupt_images),
            ("shadow_checks", self.shadow_checks),
            ("shadow_mismatches", self.shadow_mismatches),
            ("backend_demotions", self.backend_demotions),
            ("selftest_failures", self.selftest_failures),
            ("cost_rejected", self.cost_rejected),
            ("budget_rejected", self.budget_rejected),
            ("watchdog_fires", self.watchdog_fires),
            ("cancelled_deadline", self.cancelled_deadline),
            ("cancelled_client_drop", self.cancelled_client_drop),
            ("cancelled_shutdown", self.cancelled_shutdown),
            ("cancelled_watchdog", self.cancelled_watchdog),
            ("cancelled_memory", self.cancelled_memory),
        ];
        for (i, (key, value)) in fields.into_iter().enumerate() {
            let sep = if i == 0 { "" } else { " " };
            write!(f, "{sep}{key}={value}")?;
        }
        Ok(())
    }
}

/// File a freshly received job into its tenant's DRR lane. The job
/// still counts as queued (gauges decrement when it is popped into a
/// batch, not here) — a laned job has not been scheduled yet.
fn stash(lanes: &mut Drr<Job>, job: Job) {
    let lane = lanes.lane(&job.tenant.name, job.tenant.weight);
    let cost = job.cost.max(1);
    lanes.push(lane, cost, job);
}

/// A running batch server. Dropping the handle shuts the worker down
/// after it drains pending queries.
pub struct BatchServer {
    client_tx: Sender<Msg>,
    worker: Option<std::thread::JoinHandle<()>>,
    watchdog: Option<std::thread::JoinHandle<()>>,
    watch: Arc<Watchdog>,
    obs: Arc<ServerObs>,
    max_query_len: usize,
    max_cost: Option<u64>,
    db_residues: u64,
    server_cancel: CancelToken,
    qos: Arc<QosShared>,
}

impl BatchServer {
    /// Start a server over `db` with per-batch processing by an aligner
    /// built from `make_aligner`.
    ///
    /// Runs the boot-time kernel self-test battery (cached
    /// process-wide) before serving: a backend that fails is marked
    /// unavailable in the trust ladder and the count is surfaced in
    /// [`ServerStats::selftest_failures`]. A server configured for an
    /// unusable engine still starts (dispatch walks down the ladder) —
    /// use [`BatchServer::try_start`] to fail fast instead.
    pub fn start<F>(db: Arc<Database>, cfg: ServerConfig, make_aligner: F) -> Self
    where
        F: Fn() -> AlignerBuilder + Send + 'static,
    {
        let (tx, rx): (Sender<Msg>, Receiver<Msg>) = bounded(cfg.queue_depth.max(1));
        let obs = ServerObs::new();
        let failed = swsimd_core::selftest::boot().failed_engines().len() as u64;
        obs.selftest_failures.add(failed);
        let max_query_len = cfg.max_query_len;
        let max_cost = cfg.max_cost;
        let db_residues = db.total_residues() as u64;
        let server_cancel = CancelToken::new();
        let qos = QosShared::new(cfg.qos.clone(), &obs.instance, cfg.queue_depth);
        // One watchdog slot: the worker publishes each job's compute
        // token into it.
        let watch = Arc::new(Watchdog::new(1));
        let watchdog = cfg.stall_timeout.map(|stall| {
            let watch = watch.clone();
            std::thread::spawn(move || watch.run(stall))
        });
        let worker_obs = obs.clone();
        let worker_watch = watch.clone();
        let worker_qos = qos.clone();
        let brownout = Brownout::new(cfg.brownout).publish(obs.brownout_level.clone());
        let worker = std::thread::spawn(move || {
            let mut ctx = WorkerCtx::new(
                db,
                &cfg,
                make_aligner,
                worker_obs,
                worker_watch,
                worker_qos,
                brownout,
            );
            // Jobs are transported over the bounded channel FIFO but
            // scheduled from per-tenant deficit round-robin lanes, so
            // a tenant flooding the queue still drains in proportion
            // to its weight, not its arrival count.
            let mut lanes: Drr<Job> = Drr::new(cfg.qos.quantum);
            let mut pending: Vec<Job> = Vec::with_capacity(cfg.batch_size);
            let mut shutting_down = false;

            while !shutting_down {
                // Wait for work: anything already laned, else block on
                // the channel for the first job of a batch.
                if lanes.is_empty() {
                    match rx.recv() {
                        Ok(Msg::Job(job)) => stash(&mut lanes, job),
                        Ok(Msg::Shutdown) | Err(_) => break,
                    }
                }
                // Sort everything already buffered into its lane so
                // DRR sees the full picture before picking the batch.
                loop {
                    match rx.try_recv() {
                        Ok(Msg::Job(job)) => stash(&mut lanes, job),
                        Ok(Msg::Shutdown) => {
                            shutting_down = true;
                            break;
                        }
                        Err(_) => break,
                    }
                }
                // Fill the batch in DRR order; when the lanes run dry
                // wait out the batching budget for company.
                let deadline = Instant::now() + cfg.max_wait;
                while pending.len() < cfg.batch_size.max(1) {
                    if let Some(job) = ctx.pop_job(&mut lanes) {
                        pending.push(job);
                        continue;
                    }
                    if shutting_down {
                        break;
                    }
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    match rx.recv_timeout(deadline - now) {
                        Ok(Msg::Job(job)) => stash(&mut lanes, job),
                        Ok(Msg::Shutdown) | Err(RecvTimeoutError::Disconnected) => {
                            shutting_down = true;
                            break;
                        }
                        Err(RecvTimeoutError::Timeout) => break,
                    }
                }
                ctx.process_batch(&mut pending);
            }
            // Drain jobs that raced with the shutdown marker — both
            // the channel and whatever the lanes still hold.
            while let Ok(Msg::Job(job)) = rx.try_recv() {
                stash(&mut lanes, job);
            }
            while !lanes.is_empty() {
                while pending.len() < cfg.batch_size.max(1) {
                    match ctx.pop_job(&mut lanes) {
                        Some(job) => pending.push(job),
                        None => break,
                    }
                }
                ctx.process_batch(&mut pending);
            }
            ctx.process_batch(&mut pending);
            // Release the watchdog only after the drain: jobs without
            // deadlines still complete, and wedged ones stay reapable.
            ctx.watch.stop();
        });
        Self {
            client_tx: tx,
            worker: Some(worker),
            watchdog,
            watch,
            obs,
            max_query_len,
            max_cost,
            db_residues,
            server_cancel,
            qos,
        }
    }

    /// Like [`BatchServer::start`], but refuses to start when the
    /// configured engine cannot actually serve — missing on this CPU
    /// or demoted by the kernel trust breaker — returning the typed
    /// [`ServeError::EngineUnavailable`] instead of silently falling
    /// back to a weaker ISA.
    pub fn try_start<F>(
        db: Arc<Database>,
        cfg: ServerConfig,
        make_aligner: F,
    ) -> Result<Self, ServeError>
    where
        F: Fn() -> AlignerBuilder + Send + 'static,
    {
        swsimd_core::selftest::boot();
        make_aligner().try_build()?;
        Ok(Self::start(db, cfg, make_aligner))
    }

    /// A client handle (cloneable, usable from many threads).
    pub fn client(&self) -> ServerClient {
        ServerClient {
            tx: self.client_tx.clone(),
            obs: self.obs.clone(),
            max_query_len: self.max_query_len,
            max_cost: self.max_cost,
            db_residues: self.db_residues,
            server_cancel: self.server_cancel.clone(),
            qos: self.qos.clone(),
        }
    }

    /// Record a journal-replay recovery into the ledger. Called by
    /// boot/recovery paths that resume a search from a journal before
    /// (or while) serving.
    pub fn note_journal_replay(&self) {
        self.obs.journal_replays.inc();
    }

    /// Record `n` quarantined ingest records (e.g. from the
    /// `IngestReport` of the database load that booted this server).
    pub fn note_records_quarantined(&self, n: u64) {
        self.obs.records_quarantined.add(n);
    }

    /// Record a database image rejected for failed integrity checks.
    pub fn note_corrupt_image(&self) {
        self.obs.corrupt_images.inc();
    }

    /// Live snapshot of the serving counters.
    pub fn stats(&self) -> ServerStats {
        self.obs.stats()
    }

    /// Prometheus text-format scrape of the process-global registry:
    /// this server's latency summary, queue depth and counters, plus
    /// any scenario histograms recorded elsewhere in the process.
    pub fn prometheus_text(&self) -> String {
        swsimd_obs::global().prometheus_text()
    }

    /// JSON rendering of the same registry contents as
    /// [`BatchServer::prometheus_text`], for programmatic scraping.
    pub fn json_snapshot(&self) -> String {
        swsimd_obs::global().json()
    }

    /// One-line human-readable health summary (counters, queue depth,
    /// latency quantiles in milliseconds).
    pub fn health_line(&self) -> String {
        self.obs.health_line()
    }

    /// Point-in-time snapshot of this server's end-to-end query
    /// latency distribution (nanosecond values).
    pub fn latency(&self) -> swsimd_obs::HistogramSnapshot {
        self.obs.latency.snapshot()
    }

    /// Live depth of the bounded job queue.
    pub fn queue_depth(&self) -> i64 {
        self.obs.queue_depth.get()
    }

    /// Current brownout degradation level (0 = full fidelity; see
    /// [`Fidelity`] for what each level suspends).
    pub fn brownout_level(&self) -> u8 {
        self.obs.brownout_level.get() as u8
    }

    /// Shut down: stop accepting, drain, and return the final stats.
    /// Outstanding [`ServerClient`] clones get [`ServeError::ShutDown`]
    /// on later use.
    pub fn shutdown(mut self) -> ServerStats {
        self.stop();
        self.obs.stats()
    }

    /// Shared shutdown path for [`BatchServer::shutdown`] and `Drop`.
    ///
    /// Jobs with no deadline still drain to completion; in-flight jobs
    /// whose deadline has passed cancel themselves at the next kernel
    /// check (the deadline is baked into each job token), so the drain
    /// is bounded. The server-wide token is cancelled only after the
    /// worker exits, so late clients observe a typed
    /// [`ServeError::ShutDown`] rather than a spurious cancellation of
    /// work the drain contract promises to finish.
    fn stop(&mut self) {
        let _ = self.client_tx.send(Msg::Shutdown);
        if let Some(worker) = self.worker.take() {
            // A worker that died outside its isolation harness cannot
            // corrupt the stats snapshot; ignore the join payload.
            let _ = worker.join();
        }
        self.server_cancel.cancel(CancelReason::Shutdown);
        self.watch.stop();
        if let Some(watchdog) = self.watchdog.take() {
            let _ = watchdog.join();
        }
    }
}

impl Drop for BatchServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Worker-side state: the configured fast-path aligner plus a lazily
/// built scalar-engine fallback for degraded retries.
struct WorkerCtx<F> {
    db: Arc<Database>,
    make_aligner: F,
    aligner: Aligner,
    batched: BatchedDatabase,
    /// Scalar reference aligner + batches, built on first degraded
    /// retry (most servers never pay for it).
    fallback: Option<(Aligner, BatchedDatabase)>,
    plan: FaultPlan,
    shadow: ShadowVerifier,
    batch_size: usize,
    obs: Arc<ServerObs>,
    /// Per-query memory accounting ([`ServerConfig::mem_budget`]).
    budget: Option<MemBudget>,
    /// Exponentially weighted cells-per-second estimate, calibrated
    /// from completed jobs (0.0 until the first one). Drives the
    /// deadline-aware predictive skip in [`WorkerCtx::process_batch`].
    cups_ewma: f64,
    db_residues: u64,
    /// The stall watchdog; each job's compute token is published in
    /// its one slot for the length of the fast path.
    watch: Arc<Watchdog>,
    /// Shared QoS state: the worker publishes its queue-delay EWMA
    /// here so admission can derive shed retry hints from it.
    qos: Arc<QosShared>,
    /// Brownout controller (worker-owned; level published to the
    /// brownout gauge).
    brownout: Brownout,
    /// Was shadow verification configured at all? Keeps the level-1
    /// fidelity marker honest: suspending sampling that never ran
    /// reduces nothing.
    shadow_enabled: bool,
}

impl<F: Fn() -> AlignerBuilder> WorkerCtx<F> {
    fn new(
        db: Arc<Database>,
        cfg: &ServerConfig,
        make_aligner: F,
        obs: Arc<ServerObs>,
        watch: Arc<Watchdog>,
        qos: Arc<QosShared>,
        brownout: Brownout,
    ) -> Self {
        let aligner: Aligner = make_aligner().build();
        let batched =
            BatchedDatabase::build(&db, swsimd_core::batch::lanes_for(aligner.engine()), true);
        let budget = cfg.mem_budget.map(MemBudget::new);
        obs.mem_budget_limit.set(cfg.mem_budget.unwrap_or(0) as i64);
        let db_residues = db.total_residues() as u64;
        Self {
            db,
            make_aligner,
            aligner,
            batched,
            fallback: None,
            plan: cfg.fault_plan.clone(),
            shadow: ShadowVerifier::new(cfg.shadow),
            batch_size: cfg.batch_size,
            obs,
            budget,
            cups_ewma: 0.0,
            db_residues,
            watch,
            qos,
            brownout,
            shadow_enabled: cfg.shadow.enabled(),
        }
    }

    /// Take the next job in DRR order and settle its queued-state
    /// accounting (global gauge, tenant lane occupancy and gauge).
    fn pop_job(&self, lanes: &mut Drr<Job>) -> Option<Job> {
        let job = lanes.pop()?;
        self.obs.queue_depth.dec();
        job.tenant.queued.fetch_sub(1, Relaxed);
        job.tenant.queue_depth.dec();
        Some(job)
    }

    /// Predicted compute time for a query of `qlen` residues, from the
    /// calibrated CUPS estimate. `None` until the first job completes.
    fn estimate(&self, qlen: usize) -> Option<Duration> {
        if self.cups_ewma <= 0.0 {
            return None;
        }
        let cells = qlen as f64 * self.db_residues as f64;
        Some(Duration::from_secs_f64(cells / self.cups_ewma))
    }

    fn process_batch(&mut self, pending: &mut Vec<Job>) {
        if pending.is_empty() {
            return;
        }
        let _batch = swsimd_obs::span!("server_batch", "jobs" => pending.len());
        self.obs.batches.inc();
        if pending.len() >= self.batch_size {
            self.obs.full_batches.inc();
        }
        for (slot, job) in pending.drain(..).enumerate() {
            // Feed the overload signals: this job's queue delay drives
            // both the brownout ladder and the retry hints handed to
            // shed clients.
            let waited_ns = job.submitted.elapsed().as_nanos() as u64;
            self.qos.observe_queue_delay(waited_ns);
            self.brownout.observe(waited_ns);
            // Don't compute answers nobody is waiting for: the client
            // observed this same deadline and has already returned.
            if job.deadline.is_some_and(|d| Instant::now() >= d) {
                swsimd_obs::event!("job_expired_in_queue", "slot" => slot);
                continue;
            }
            // Deadline-aware scheduling: once CUPS is calibrated, skip
            // jobs predicted to overrun their remaining budget (with a
            // 2x safety factor — 4x at brownout level 3, where the
            // ladder trades deadline headroom for queue drain) instead
            // of computing a dead answer. The client has NOT timed out
            // yet, so reply explicitly.
            if let (Some(d), Some(est)) = (job.deadline, self.estimate(job.query.len())) {
                let remaining = d.saturating_duration_since(Instant::now());
                if remaining < est * self.brownout.skip_factor() {
                    swsimd_obs::event!(
                        "job_skipped_predicted_overrun",
                        "slot" => slot,
                        "remaining_ms" => remaining.as_millis() as u64,
                        "estimated_ms" => est.as_millis() as u64
                    );
                    self.obs.timeouts.inc();
                    let _ = job.reply.send(Err(ServeError::DeadlineExceeded));
                    continue;
                }
            }
            self.obs.queries.inc();
            job.phase.store(PHASE_COMPUTING, Release);
            let started = Instant::now();
            let queue_ns = started.duration_since(job.submitted).as_nanos() as u64;
            // Adopt the submitter's trace context for the duration of
            // the compute, so kernel spans parent under the (possibly
            // remote) request span instead of floating free.
            let result = {
                let _adopt = swsimd_obs::adopt(job.trace);
                self.run_job(slot, &job)
            };
            let compute = started.elapsed();
            if result.is_ok() {
                // Calibrate the cost model against measured throughput.
                let secs = compute.as_secs_f64().max(1e-9);
                let cups = job.query.len() as f64 * self.db_residues as f64 / secs;
                self.cups_ewma = if self.cups_ewma > 0.0 {
                    0.7 * self.cups_ewma + 0.3 * cups
                } else {
                    cups
                };
            }
            if let Some(b) = &self.budget {
                self.obs.mem_budget_used.set(b.used() as i64);
            }
            let total = job.submitted.elapsed();
            self.obs.latency.record_duration(total);
            self.record_flight(&job, &result, queue_ns, compute.as_nanos() as u64, total);
            let result = result.map(|(hits, engine, retries)| QueryOutcome {
                hits,
                queue_ns,
                compute_ns: compute.as_nanos() as u64,
                engine,
                retries,
                fidelity: self.brownout.fidelity(self.shadow_enabled),
            });
            let was_ok = result.is_ok();
            job.phase.store(PHASE_REPLIED, Release);
            if job.reply.send(result).is_err() && was_ok {
                // The client stopped listening after we paid for the
                // answer — account it as a client-drop cancellation.
                self.obs.cancelled_counter(CancelReason::ClientDrop).inc();
            }
        }
    }

    /// File one completed (or failed) job into the process-global
    /// flight recorder: stage breakdown (queue wait + kernel compute),
    /// engine attribution, retry/degradation flags and the cancel
    /// reason, keyed by the job's propagated trace id.
    fn record_flight(
        &self,
        job: &Job,
        result: &Result<(Vec<Hit>, &'static str, u32), ServeError>,
        queue_ns: u64,
        kernel_ns: u64,
        total: Duration,
    ) {
        let recorder = swsimd_obs::flight::global();
        if !recorder.enabled() {
            return;
        }
        let (engine, retries, ok, cancel) = match result {
            Ok((_, engine, retries)) => (*engine, *retries, true, ""),
            Err(ServeError::DeadlineExceeded) => ("", 0, false, "deadline"),
            Err(ServeError::ShutDown) => ("", 0, false, "shutdown"),
            Err(ServeError::WorkerPanicked) => ("", 0, false, "panic"),
            Err(_) => ("", 0, false, "error"),
        };
        // Brownout level 2 (score-only service) drops per-stage
        // timing detail from audit records — the record itself (and
        // its tenant attribution) survives so triage still works.
        let stages = if self.brownout.level() >= 2 {
            Vec::new()
        } else {
            vec![
                StageTiming {
                    stage: Stage::Queue,
                    ns: queue_ns,
                },
                StageTiming {
                    stage: Stage::Kernel,
                    ns: kernel_ns,
                },
            ]
        };
        recorder.record(AuditRecord {
            trace_id: job.trace.trace_id,
            query_id: job.trace.span_id,
            total_ns: total.as_nanos() as u64,
            stages,
            shards: Vec::new(),
            engine: engine.to_string(),
            retries,
            hedges: 0,
            degraded: retries > 0,
            cost: job.cost,
            cancel: cancel.to_string(),
            ok,
            tenant: tenant_label(&job.tenant.name).to_string(),
        });
    }

    /// One job with isolation and governance: memory-budget
    /// reservation, then [`isolate`] over the persistent aligner and
    /// layout, with the cached scalar fallback as its retry. The fast
    /// path runs under a child of the job's token, published to the
    /// stall watchdog; the retry runs under the job's token, so it
    /// still honors the job's deadline and server shutdown.
    /// Cooperative cancellations propagate as typed errors without a
    /// retry — nobody is waiting for the answer — and a double fault
    /// answers [`ServeError::WorkerPanicked`]. `slot` is the job's
    /// index within its batch — the unit [`FaultPlan`] targets for the
    /// server.
    fn run_job(
        &mut self,
        slot: usize,
        job: &Job,
    ) -> Result<(Vec<Hit>, &'static str, u32), ServeError> {
        let query = &job.query;
        // Reserve the DP working-set estimate up front; held for the
        // whole job (fast path and retry share the buffers' bound).
        let _reserved = match &self.budget {
            Some(b) => match b.try_reserve(swsimd_core::govern::score_bytes(query.len(), 4)) {
                Ok(r) => Some(r),
                Err(e) => {
                    self.obs.budget_rejected.inc();
                    swsimd_obs::event!("job_rejected_budget", "slot" => slot);
                    return Err(e.into());
                }
            },
            None => None,
        };
        let token = job.cancel.child();
        self.watch.watch(0, &token);
        let engine = self.aligner.engine();
        let (mut faults, outcome) = isolate(
            slot,
            &self.plan,
            self.db.len(),
            engine,
            || {
                let hits = self.aligner.try_search_batched(
                    query,
                    &self.db,
                    &self.batched,
                    Some(&token),
                )?;
                Ok((hits, ()))
            },
            || {
                let make_aligner = &self.make_aligner;
                let db = &self.db;
                let (aligner, batched) = self.fallback.get_or_insert_with(|| {
                    let aligner = make_aligner().engine(EngineKind::Scalar).build();
                    let lanes = swsimd_core::batch::lanes_for(aligner.engine());
                    (aligner, BatchedDatabase::build(db, lanes, true))
                });
                let hits = aligner.try_search_batched(query, db, batched, Some(&job.cancel))?;
                Ok((hits, ()))
            },
        );
        self.watch.clear(0);
        let retried = faults.retries > 0;
        let result = match outcome {
            Ok(Ok((mut hits, ()))) => {
                // Brownout level ≥ 1 suspends shadow sampling — the
                // first, cheapest rung of the degradation ladder. The
                // suspension is declared on the result as
                // [`Fidelity::NoShadow`], never silent. A scalar retry
                // already is the reference.
                if !retried && !self.brownout.shadow_suspended() {
                    faults.record_shadow(&self.shadow.verify_hits(
                        query,
                        &self.db,
                        &mut hits,
                        &self.make_aligner,
                    ));
                }
                let engine = if retried {
                    EngineKind::Scalar
                } else {
                    swsimd_core::trust::effective_engine(engine)
                };
                Ok((rank_hits(hits, job.top_k), engine.name(), retried as u32))
            }
            // Cooperative cancellation: deadline, shutdown, drop. The
            // client is gone or going; surface the typed error.
            Ok(Err(AlignError::Cancelled { reason })) => {
                self.obs.cancelled_counter(reason).inc();
                swsimd_obs::event!(
                    "job_cancelled",
                    "slot" => slot,
                    "reason" => reason.as_str()
                );
                Err(cancel_to_serve(reason))
            }
            Ok(Err(e)) => Err(e.into()),
            // Double fault: the reference engine failed too.
            Err(_) => Err(ServeError::WorkerPanicked),
        };
        self.obs.add_faults(&faults);
        result
    }
}

/// A query admitted by [`ServerClient::send`]: block for the reply
/// with [`PendingQuery::wait`], or await it in bounded steps with
/// [`PendingQuery::poll`]; the job's cancel token stays in the
/// caller's hands.
pub struct PendingQuery {
    reply_rx: Receiver<Reply>,
    token: CancelToken,
    deadline: Option<Instant>,
    /// The job's lifecycle phase, so an expiry is charged to the
    /// stage the job was actually in.
    phase: Arc<AtomicU8>,
    obs: Arc<ServerObs>,
}

impl PendingQuery {
    /// The job's cancel token (a child of the server's).
    pub fn token(&self) -> &CancelToken {
        &self.token
    }

    /// Cancel the job; returns false if it was already cancelled.
    pub fn cancel(&self, reason: CancelReason) -> bool {
        self.token.cancel(reason)
    }

    fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Block until the reply arrives or the request deadline passes.
    /// On expiry the job's token is cancelled, so in-flight compute
    /// stops at the next kernel check period and a still-queued job is
    /// discarded; the expiry counts once in [`ServerStats::timeouts`]
    /// against the stage the job was in, and the call returns
    /// [`ServeError::DeadlineExceeded`].
    pub fn wait(self) -> Result<QueryOutcome, ServeError> {
        let received = match self.deadline {
            Some(d) => self
                .reply_rx
                .recv_timeout(d.saturating_duration_since(Instant::now())),
            None => self
                .reply_rx
                .recv()
                .map_err(|_| RecvTimeoutError::Disconnected),
        };
        match received {
            Ok(reply) => reply,
            // The worker dropped the job without a deadline to blame:
            // the server shut down.
            Err(RecvTimeoutError::Disconnected) if !self.expired() => Err(ServeError::ShutDown),
            // Timed out, or the worker dropped the job because it
            // observed the same expired deadline.
            Err(_) => {
                self.token.cancel(CancelReason::Deadline);
                self.obs.timeouts.inc();
                swsimd_obs::event!("deadline_exceeded", "stage" => stage_of(&self.phase));
                Err(ServeError::DeadlineExceeded)
            }
        }
    }

    /// Wait up to `step` for the reply. `None` means still pending;
    /// expiry of the request deadline cancels the job
    /// ([`CancelReason::Deadline`]) and yields
    /// [`ServeError::DeadlineExceeded`]. A successful poll yields the
    /// full [`QueryOutcome`] (hits plus queue/compute timing and engine
    /// attribution) so a network front end can report per-shard stage
    /// breakdowns upstream.
    pub fn poll(&self, step: Duration) -> Option<Result<QueryOutcome, ServeError>> {
        let wait = match self.deadline {
            Some(d) => {
                let left = d.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    self.token.cancel(CancelReason::Deadline);
                    return Some(Err(ServeError::DeadlineExceeded));
                }
                step.min(left)
            }
            None => step,
        };
        match self.reply_rx.recv_timeout(wait) {
            Ok(result) => Some(result),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => Some(if self.expired() {
                self.token.cancel(CancelReason::Deadline);
                Err(ServeError::DeadlineExceeded)
            } else {
                Err(ServeError::ShutDown)
            }),
        }
    }
}

/// Sort hits best-first (stable tie-break on database index) and
/// truncate to `top_k` (0 keeps all). Shared by the batch server and
/// the networked gateway's scatter-gather merge, so local and
/// distributed rankings agree bit-for-bit.
pub fn rank_hits(mut hits: Vec<Hit>, top_k: usize) -> Vec<Hit> {
    hits.sort_by(|a, b| b.score.cmp(&a.score).then(a.db_index.cmp(&b.db_index)));
    if top_k > 0 {
        hits.truncate(top_k);
    }
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use swsimd_matrices::{blosum62, Alphabet};
    use swsimd_seq::{generate_database, generate_exact, SynthConfig};

    fn tiny_db() -> Arc<Database> {
        Arc::new(generate_database(&SynthConfig {
            n_seqs: 24,
            max_len: 100,
            median_len: 50.0,
            ..Default::default()
        }))
    }

    fn enc(len: usize, seed: u64) -> Vec<u8> {
        Alphabet::protein().encode(&generate_exact(len, seed).seq)
    }

    /// Block for an admitted request's hits.
    fn served(admitted: Result<PendingQuery, ServeError>) -> Result<Vec<Hit>, ServeError> {
        admitted?.wait().map(|o| o.hits)
    }

    #[test]
    fn serves_queries_correctly() {
        let db = tiny_db();
        let server = BatchServer::start(db.clone(), ServerConfig::default(), || {
            Aligner::builder().matrix(blosum62())
        });
        let client = server.client();
        let q = enc(30, 7);
        let hits = served(client.submit(q.clone(), 3, None)).expect("server is up");
        assert_eq!(hits.len(), 3);

        // Compare against a direct search.
        let mut direct = Aligner::builder().matrix(blosum62()).build();
        let want = direct.search(&q, &db, 3);
        assert_eq!(hits, want);
        let stats = server.shutdown();
        assert_eq!(stats.queries, 1);
    }

    #[test]
    fn batches_accumulate_from_concurrent_clients() {
        let db = tiny_db();
        let server = BatchServer::start(
            db,
            ServerConfig {
                batch_size: 4,
                max_wait: Duration::from_millis(200),
                ..Default::default()
            },
            || Aligner::builder().matrix(blosum62()),
        );
        let client = server.client();
        std::thread::scope(|scope| {
            for i in 0..8 {
                let c = client.clone();
                scope.spawn(move || {
                    let hits = served(c.submit(enc(25, i), 1, None)).expect("server is up");
                    assert_eq!(hits.len(), 1);
                });
            }
        });
        let stats = server.shutdown();
        assert_eq!(stats.queries, 8);
        assert!(
            stats.batches <= 4,
            "8 concurrent queries should batch: {stats:?}"
        );
    }

    #[test]
    fn timeout_flushes_partial_batch() {
        let db = tiny_db();
        let server = BatchServer::start(
            db,
            ServerConfig {
                batch_size: 64,
                max_wait: Duration::from_millis(10),
                ..Default::default()
            },
            || Aligner::builder().matrix(blosum62()),
        );
        let client = server.client();
        // Would wait forever without the timeout.
        let hits = served(client.submit(enc(20, 3), 2, None)).expect("server is up");
        assert_eq!(hits.len(), 2);
        let stats = server.shutdown();
        assert_eq!(stats.full_batches, 0);
    }

    #[test]
    fn shutdown_drains_pending() {
        let db = tiny_db();
        let server = BatchServer::start(db, ServerConfig::default(), || {
            Aligner::builder().matrix(blosum62())
        });
        let client = server.client();
        let h = std::thread::spawn(move || served(client.submit(enc(15, 1), 1, None)));
        std::thread::sleep(Duration::from_millis(5));
        let stats = server.shutdown();
        let hits = h
            .join()
            .expect("client thread")
            .expect("drained before shutdown");
        assert_eq!(hits.len(), 1);
        assert_eq!(stats.queries, 1);
    }

    #[test]
    fn query_after_shutdown_is_typed_error() {
        let db = tiny_db();
        let server = BatchServer::start(db, ServerConfig::default(), || {
            Aligner::builder().matrix(blosum62())
        });
        let client = server.client();
        let _ = server.shutdown();
        assert_eq!(
            served(client.submit(enc(10, 2), 1, None)),
            Err(ServeError::ShutDown)
        );
        assert_eq!(
            served(
                client.send(Request::new(enc(10, 2), 1).with_timeout(Duration::from_millis(50)))
            ),
            Err(ServeError::ShutDown)
        );
    }

    #[test]
    fn invalid_query_is_rejected_at_the_boundary() {
        let db = tiny_db();
        let server = BatchServer::start(db, ServerConfig::default(), || {
            Aligner::builder().matrix(blosum62())
        });
        let client = server.client();
        let bad = vec![1u8, 200, 3];
        match served(client.submit(bad, 1, None)) {
            Err(ServeError::InvalidQuery(AlignError::InvalidResidue { position, value })) => {
                assert_eq!((position, value), (1, 200));
            }
            other => panic!("expected InvalidQuery, got {other:?}"),
        }
        let stats = server.shutdown();
        assert_eq!(stats.queries, 0, "invalid queries never reach the worker");
    }

    #[test]
    fn oversized_query_rejected_at_admission() {
        let db = tiny_db();
        let server = BatchServer::start(
            db,
            ServerConfig {
                max_query_len: 16,
                ..Default::default()
            },
            || Aligner::builder().matrix(blosum62()),
        );
        let client = server.client();
        match served(client.submit(enc(64, 3), 1, None)) {
            Err(ServeError::QueryTooLarge { len, limit }) => {
                assert_eq!((len, limit), (64, 16));
            }
            other => panic!("expected QueryTooLarge, got {other:?}"),
        }
        // A deadline does not bypass admission.
        assert!(matches!(
            served(
                client.send(Request::new(enc(64, 5), 1).with_timeout(Duration::from_millis(50)))
            ),
            Err(ServeError::QueryTooLarge { .. })
        ));
        // A query inside the quota still works.
        let hits = served(client.submit(enc(10, 6), 1, None)).expect("within quota");
        assert_eq!(hits.len(), 1);
        let stats = server.shutdown();
        assert_eq!(stats.queries, 1, "oversized queries never reach the worker");
    }

    #[test]
    fn recovery_counters_surface_in_exposition() {
        let db = tiny_db();
        let server = BatchServer::start(db, ServerConfig::default(), || {
            Aligner::builder().matrix(blosum62())
        });
        server.note_journal_replay();
        server.note_records_quarantined(3);
        server.note_corrupt_image();
        let stats = server.stats();
        assert_eq!(stats.journal_replays, 1);
        assert_eq!(stats.records_quarantined, 3);
        assert_eq!(stats.corrupt_images, 1);
        let line = server.health_line();
        assert!(line.contains("journal_replays=1"), "{line}");
        assert!(line.contains("records_quarantined=3"), "{line}");
        assert!(line.contains("corrupt_images=1"), "{line}");
        let text = server.prometheus_text();
        assert!(
            text.contains("swsimd_server_journal_replays_total"),
            "{text}"
        );
        assert!(
            text.contains("swsimd_server_records_quarantined_total"),
            "{text}"
        );
        assert!(
            text.contains("swsimd_server_corrupt_images_total"),
            "{text}"
        );
        let _ = server.shutdown();
    }

    #[test]
    fn worker_panic_degrades_to_exact_answer() {
        let db = tiny_db();
        let q = enc(30, 7);
        let mut direct = Aligner::builder().matrix(blosum62()).build();
        let want = direct.search(&q, &db, 5);

        let server = BatchServer::start(
            db.clone(),
            ServerConfig {
                fault_plan: FaultPlan::new().panic_at(0, 1),
                ..Default::default()
            },
            || Aligner::builder().matrix(blosum62()),
        );
        let client = server.client();
        let hits = served(client.submit(q.clone(), 5, None)).expect("degraded, not dead");
        assert_eq!(hits, want, "scalar retry stays exact");
        // Second query: fault budget exhausted, fast path again.
        let hits2 = served(client.submit(q, 5, None)).expect("server is up");
        assert_eq!(hits2, want);
        let stats = server.shutdown();
        assert_eq!(stats.worker_panics, 1);
        assert_eq!(stats.degraded_batches, 1);
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.queries, 2);
    }

    #[test]
    fn poisoned_batch_is_validated_and_recomputed() {
        let db = tiny_db();
        let q = enc(25, 9);
        let mut direct = Aligner::builder().matrix(blosum62()).build();
        let want = direct.search(&q, &db, 0);

        let server = BatchServer::start(
            db,
            ServerConfig {
                fault_plan: FaultPlan::new().poison_at(0, 1),
                ..Default::default()
            },
            || Aligner::builder().matrix(blosum62()),
        );
        let client = server.client();
        let hits = served(client.submit(q, 0, None)).expect("degraded, not dead");
        assert_eq!(hits, want);
        let stats = server.shutdown();
        assert_eq!(stats.worker_panics, 0, "poison is not a panic");
        assert_eq!(stats.degraded_batches, 1);
        assert_eq!(stats.retries, 1);
    }

    #[test]
    fn shadow_verification_catches_wrong_scores_and_surfaces_counters() {
        use crate::shadow::OnMismatch;
        let db = tiny_db();
        let q = enc(30, 7);
        let mut direct = Aligner::builder().matrix(blosum62()).build();
        let want = direct.search(&q, &db, 0);

        let server = BatchServer::start(
            db.clone(),
            ServerConfig {
                // Skew the top hit of the first job — count-preserving,
                // so only shadow verification can catch it. Record mode
                // keeps this unit test independent of the global trust
                // ladder (breaker behavior is covered end-to-end).
                fault_plan: FaultPlan::new().wrong_score_at(0, 1),
                shadow: ShadowConfig {
                    sample_rate: 1.0,
                    on_mismatch: OnMismatch::Record,
                },
                ..Default::default()
            },
            || Aligner::builder().matrix(blosum62()),
        );
        let client = server.client();
        let hits = served(client.submit(q.clone(), 0, None)).expect("server is up");
        assert_eq!(hits, want, "mismatching score repaired before reply");
        let line = server.health_line();
        assert!(line.contains("shadow_checks=24"), "{line}");
        assert!(line.contains("shadow_mismatches=1"), "{line}");
        let text = server.prometheus_text();
        assert!(text.contains("swsimd_server_shadow_checks_total"), "{text}");
        assert!(
            text.contains("swsimd_server_shadow_mismatches_total"),
            "{text}"
        );
        let stats = server.shutdown();
        assert_eq!(stats.shadow_checks, 24, "every hit verified at rate 1");
        assert_eq!(stats.shadow_mismatches, 1);
        assert_eq!(
            stats.degraded_batches, 0,
            "skew evades structural validation; only shadow caught it"
        );
    }

    #[test]
    fn try_start_rejects_unavailable_engine_with_typed_error() {
        let db = tiny_db();
        // Scalar is always usable.
        let ok = BatchServer::try_start(db.clone(), ServerConfig::default(), || {
            Aligner::builder()
                .matrix(blosum62())
                .engine(EngineKind::Scalar)
        });
        assert!(ok.is_ok());
        let _ = ok.unwrap().shutdown();
        // An engine the CPU lacks is a typed refusal, not a fallback.
        if let Some(&missing) = EngineKind::ALL.iter().find(|e| !e.is_available()) {
            match BatchServer::try_start(db, ServerConfig::default(), move || {
                Aligner::builder().matrix(blosum62()).engine(missing)
            }) {
                Err(ServeError::EngineUnavailable { requested, .. }) => {
                    assert_eq!(requested, missing);
                }
                other => panic!("expected EngineUnavailable, got {:?}", other.is_ok()),
            }
        }
    }

    #[test]
    fn deadline_expiry_returns_typed_error_in_bounded_time() {
        let db = tiny_db();
        let server = BatchServer::start(
            db,
            ServerConfig {
                batch_size: 1,
                max_wait: Duration::from_millis(1),
                // Every job in slot 0 stalls well past the deadline.
                fault_plan: FaultPlan::new().delay_at(0, Duration::from_millis(300)),
                ..Default::default()
            },
            || Aligner::builder().matrix(blosum62()),
        );
        let client = server.client();
        let start = Instant::now();
        let r = served(
            client.send(Request::new(enc(20, 4), 1).with_timeout(Duration::from_millis(30))),
        );
        let elapsed = start.elapsed();
        assert_eq!(r, Err(ServeError::DeadlineExceeded));
        assert!(
            elapsed < Duration::from_millis(250),
            "deadline must bound the call, took {elapsed:?}"
        );
        let stats = server.shutdown();
        assert!(stats.timeouts >= 1, "{stats:?}");
    }

    /// Start a server whose every job computes for `delay`, admit one
    /// plug job and wait until the worker has dequeued it, so every
    /// request sent next waits behind the plug's compute.
    fn plugged(cfg: ServerConfig, delay: Duration) -> (BatchServer, ServerClient, PendingQuery) {
        let server = BatchServer::start(
            tiny_db(),
            ServerConfig {
                batch_size: 1,
                max_wait: Duration::from_millis(1),
                fault_plan: FaultPlan::new().delay_at(0, delay),
                ..cfg
            },
            || Aligner::builder().matrix(blosum62()),
        );
        let client = server.client();
        let plug = client.submit(enc(15, 1), 1, None).expect("plug admitted");
        let t0 = Instant::now();
        while server.queue_depth() > 0 {
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "plug never picked up"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        (server, client, plug)
    }

    #[test]
    fn full_queue_sheds_with_typed_error() {
        let (server, client, plug) = plugged(
            ServerConfig {
                queue_depth: 1,
                ..Default::default()
            },
            Duration::from_millis(100),
        );
        // The filler takes the single lane slot behind the plug.
        let filler = client.submit(enc(15, 2), 1, None).expect("filler admitted");
        // With a full lane, send must shed rather than block, and the
        // typed error must carry a usable backoff hint.
        match client.submit(enc(15, 3), 1, None) {
            Err(ServeError::QueueFull { retry_after_ms }) => {
                assert!(retry_after_ms >= 1, "shed must carry a backoff hint");
            }
            other => panic!("expected QueueFull, got {:?}", other.map(|_| ())),
        }
        plug.wait().expect("plug served");
        filler.wait().expect("filler served");
        let stats = server.shutdown();
        assert!(stats.shed >= 1, "{stats:?}");
    }

    #[test]
    fn full_transport_queue_sheds_without_blocking() {
        // Two tenant lanes of depth 2 sum past the 2-slot transport
        // queue, so the queue itself is the bound that trips.
        let (server, client, plug) = plugged(
            ServerConfig {
                queue_depth: 2,
                qos: QosConfig {
                    lane_depth: 2,
                    ..Default::default()
                },
                ..Default::default()
            },
            Duration::from_millis(300),
        );
        let tenant = |name: &str, seed: u64| Request::new(enc(15, seed), 1).with_tenant(name);
        let a = client.send(tenant("a", 2)).expect("tenant a admitted");
        let b = client.send(tenant("b", 3)).expect("tenant b admitted");
        // Tenant a's lane still has room; the transport queue does not.
        let t0 = Instant::now();
        let refused = client.send(tenant("a", 4));
        let waited = t0.elapsed();
        match refused {
            Err(ServeError::QueueFull { retry_after_ms }) => {
                assert!(retry_after_ms >= 1, "shed must carry a backoff hint");
            }
            other => panic!("expected QueueFull, got {:?}", other.map(|_| ())),
        }
        assert!(
            waited < Duration::from_millis(150),
            "send blocked on the full queue for {waited:?}"
        );
        for p in [plug, a, b] {
            p.wait().expect("queued job served");
        }
        assert_eq!(server.queue_depth(), 0, "queue gauge drained");
        for name in ["a", "b"] {
            assert_eq!(
                server.qos.tenant(name).queue_depth.get(),
                0,
                "tenant {name} gauge drained"
            );
        }
        let stats = server.shutdown();
        assert_eq!(stats.shed, 1, "{stats:?}");
        assert_eq!(stats.queries, 3, "{stats:?}");
    }

    #[test]
    fn exposition_scrapes_latency_and_counters() {
        let db = tiny_db();
        let server = BatchServer::start(db, ServerConfig::default(), || {
            Aligner::builder().matrix(blosum62())
        });
        let client = server.client();
        for i in 0..3 {
            served(client.submit(enc(20, i), 1, None)).expect("server is up");
        }
        let lat = server.latency();
        assert_eq!(lat.count, 3);
        assert!(lat.p99 >= lat.p50);
        assert_eq!(server.queue_depth(), 0, "all jobs drained");

        let text = server.prometheus_text();
        assert!(
            text.contains("# TYPE swsimd_query_latency_seconds summary"),
            "{text}"
        );
        assert!(text.contains("quantile=\"0.99\""), "{text}");
        assert!(text.contains("swsimd_server_queries_total"), "{text}");
        assert!(text.contains("swsimd_queue_depth"), "{text}");

        let json = server.json_snapshot();
        assert!(json.contains("\"swsimd_query_latency_seconds\""), "{json}");
        assert!(json.contains("\"p99\""), "{json}");

        let line = server.health_line();
        assert!(line.contains("queries=3"), "{line}");
        assert!(line.contains("p99_ms="), "{line}");
    }

    #[test]
    fn watchdog_reaps_wedged_worker_and_answers_exactly() {
        let db = tiny_db();
        let q = enc(30, 7);
        let mut direct = Aligner::builder().matrix(blosum62()).build();
        let want = direct.search(&q, &db, 5);

        let server = BatchServer::start(
            db,
            ServerConfig {
                batch_size: 1,
                max_wait: Duration::from_millis(1),
                // Every slot-0 job wedges well past the stall timeout.
                fault_plan: FaultPlan::new().delay_at(0, Duration::from_millis(300)),
                stall_timeout: Some(Duration::from_millis(40)),
                ..Default::default()
            },
            || Aligner::builder().matrix(blosum62()),
        );
        let client = server.client();
        let hits = served(client.submit(q, 5, None)).expect("reaped, retried, answered");
        assert_eq!(hits, want, "scalar retry after the reap stays exact");

        let line = server.health_line();
        assert!(line.contains("watchdog_fires=1"), "{line}");
        assert!(line.contains("cancelled_watchdog=1"), "{line}");
        let text = server.prometheus_text();
        assert!(
            text.contains("swsimd_server_watchdog_fires_total"),
            "{text}"
        );
        assert!(text.contains("reason=\"watchdog\""), "{text}");

        let stats = server.shutdown();
        assert_eq!(stats.watchdog_fires, 1);
        assert_eq!(stats.cancelled_watchdog, 1);
        assert_eq!(stats.retries, 1, "one degraded retry");
        assert_eq!(stats.worker_panics, 0, "a stall is not a panic");
        assert_eq!(stats.queries, 1);
    }

    #[test]
    fn cost_admission_rejects_with_typed_error() {
        let db = tiny_db();
        let residues = db.total_residues() as u64;
        let server = BatchServer::start(
            db,
            ServerConfig {
                max_cost: Some(residues * 10),
                ..Default::default()
            },
            || Aligner::builder().matrix(blosum62()),
        );
        let client = server.client();
        match served(client.submit(enc(64, 3), 1, None)) {
            Err(ServeError::CostTooHigh { cost, limit }) => {
                assert_eq!(cost, 64 * residues, "cost model is |q| × Σ|db|");
                assert_eq!(limit, residues * 10);
            }
            other => panic!("expected CostTooHigh, got {other:?}"),
        }
        // A query under the ceiling is still served.
        let hits = served(client.submit(enc(8, 6), 1, None)).expect("cheap query admitted");
        assert_eq!(hits.len(), 1);
        let line = server.health_line();
        assert!(line.contains("cost_rejected=1"), "{line}");
        let text = server.prometheus_text();
        assert!(text.contains("swsimd_server_cost_rejected_total"), "{text}");
        let stats = server.shutdown();
        assert_eq!(stats.cost_rejected, 1);
        assert_eq!(stats.queries, 1, "rejected queries never reach the worker");
    }

    #[test]
    fn memory_budget_rejects_oversized_working_set() {
        let db = tiny_db();
        let server = BatchServer::start(
            db,
            ServerConfig {
                // Far below any real DP working set.
                mem_budget: Some(64),
                ..Default::default()
            },
            || Aligner::builder().matrix(blosum62()),
        );
        let client = server.client();
        match served(client.submit(enc(30, 7), 1, None)) {
            Err(ServeError::BudgetExceeded { requested, limit }) => {
                assert_eq!(limit, 64);
                assert!(requested > 64, "estimate must exceed the tiny budget");
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
        let line = server.health_line();
        assert!(line.contains("budget_rejected=1"), "{line}");
        let text = server.prometheus_text();
        assert!(
            text.contains("swsimd_server_budget_rejected_total"),
            "{text}"
        );
        assert!(text.contains("swsimd_mem_budget_limit_bytes"), "{text}");
        let stats = server.shutdown();
        assert_eq!(stats.budget_rejected, 1);
    }

    #[test]
    fn shutdown_with_expired_compute_in_flight_is_bounded_and_typed() {
        let db = tiny_db();
        let server = BatchServer::start(
            db,
            ServerConfig {
                batch_size: 1,
                max_wait: Duration::from_millis(1),
                fault_plan: FaultPlan::new().delay_at(0, Duration::from_millis(250)),
                ..Default::default()
            },
            || Aligner::builder().matrix(blosum62()),
        );
        let client = server.client();
        let h = std::thread::spawn(move || {
            served(client.send(Request::new(enc(20, 4), 1).with_timeout(Duration::from_millis(20))))
        });
        // Let the job reach the worker and wedge.
        std::thread::sleep(Duration::from_millis(50));
        let start = Instant::now();
        let _ = server.shutdown();
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "shutdown must not drain expired compute to completion indefinitely"
        );
        let r = h.join().expect("client thread");
        assert!(
            matches!(
                r,
                Err(ServeError::DeadlineExceeded) | Err(ServeError::ShutDown)
            ),
            "client must get a typed error, got {r:?}"
        );
    }

    #[test]
    fn live_stats_snapshot() {
        let db = tiny_db();
        let server = BatchServer::start(db, ServerConfig::default(), || {
            Aligner::builder().matrix(blosum62())
        });
        let client = server.client();
        served(client.submit(enc(12, 5), 1, None)).expect("server is up");
        let live = server.stats();
        assert_eq!(live.queries, 1);
        let final_stats = server.shutdown();
        assert_eq!(final_stats.queries, 1);
    }

    #[test]
    fn cancel_reasons_land_in_their_own_counters() {
        let obs = ServerObs::new();
        for reason in CancelReason::ALL {
            obs.cancelled_counter(reason).inc();
        }
        obs.cancelled_counter(CancelReason::Deadline).inc();
        let s = obs.stats();
        assert_eq!(s.cancelled_deadline, 2);
        assert_eq!(s.cancelled_client_drop, 1);
        assert_eq!(s.cancelled_shutdown, 1);
        assert_eq!(s.cancelled_watchdog, 1);
        assert_eq!(s.cancelled_memory, 1);
    }

    /// Value of one series in a Prometheus text scrape.
    fn scraped(text: &str, series: &str) -> u64 {
        text.lines()
            .find_map(|line| line.strip_prefix(series)?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("no series {series} in scrape"))
            .parse()
            .expect("counter value")
    }

    #[test]
    fn stats_equal_their_scraped_series() {
        let db = tiny_db();
        let residues = db.total_residues() as u64;
        let mut tenants = std::collections::HashMap::new();
        tenants.insert(
            "metered".to_string(),
            crate::qos::TenantPolicy {
                weight: 1,
                rate: Some(crate::qos::RateConfig { rate: 1, burst: 1 }),
            },
        );
        // The first job (the plug) stalls, then panics: it is retried
        // on the scalar engine while later requests queue or shed.
        let server = BatchServer::start(
            db,
            ServerConfig {
                batch_size: 1,
                max_wait: Duration::from_millis(1),
                queue_depth: 1,
                fault_plan: FaultPlan::new()
                    .delay_at(0, Duration::from_millis(150))
                    .panic_at(0, 1),
                max_cost: Some(residues * 32),
                qos: QosConfig {
                    tenants,
                    ..Default::default()
                },
                ..Default::default()
            },
            || Aligner::builder().matrix(blosum62()),
        );
        let client = server.client();
        let plug = client.submit(enc(15, 1), 1, None).expect("plug admitted");
        let t0 = Instant::now();
        while server.queue_depth() > 0 {
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "plug never picked up"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let filler = client.submit(enc(15, 2), 1, None).expect("filler admitted");
        assert!(matches!(
            client.submit(enc(15, 3), 1, None),
            Err(ServeError::QueueFull { .. })
        ));
        assert!(matches!(
            client.send(Request::new(enc(20, 4), 1).with_tenant("metered")),
            Err(ServeError::RateLimited { .. })
        ));
        assert!(matches!(
            client.submit(enc(64, 5), 1, None),
            Err(ServeError::CostTooHigh { .. })
        ));
        plug.wait().expect("plug served by the degraded retry");
        filler.wait().expect("filler served");
        server.note_journal_replay();
        server.note_records_quarantined(2);
        server.note_corrupt_image();
        let instance = server.obs.instance.clone();
        let stats = server.shutdown();
        let text = swsimd_obs::global().prometheus_text();

        let counter = |name: &str| scraped(&text, &format!("{name}{{instance=\"{instance}\"}}"));
        let cancelled = |reason: &str| {
            scraped(
                &text,
                &format!(
                    "swsimd_server_cancelled_total{{instance=\"{instance}\",reason=\"{reason}\"}}"
                ),
            )
        };
        let ServerStats {
            batches,
            queries,
            full_batches,
            timeouts,
            shed,
            rate_limited,
            worker_panics,
            degraded_batches,
            retries,
            journal_replays,
            records_quarantined,
            corrupt_images,
            shadow_checks,
            shadow_mismatches,
            backend_demotions,
            selftest_failures,
            cost_rejected,
            budget_rejected,
            watchdog_fires,
            cancelled_deadline,
            cancelled_client_drop,
            cancelled_shutdown,
            cancelled_watchdog,
            cancelled_memory,
        } = stats;
        let pairs = [
            (batches, counter("swsimd_server_batches_total")),
            (queries, counter("swsimd_server_queries_total")),
            (full_batches, counter("swsimd_server_full_batches_total")),
            (timeouts, counter("swsimd_server_timeouts_total")),
            (shed, counter("swsimd_server_shed_total")),
            (rate_limited, counter("swsimd_server_rate_limited_total")),
            (worker_panics, counter("swsimd_server_worker_panics_total")),
            (
                degraded_batches,
                counter("swsimd_server_degraded_batches_total"),
            ),
            (retries, counter("swsimd_server_retries_total")),
            (
                journal_replays,
                counter("swsimd_server_journal_replays_total"),
            ),
            (
                records_quarantined,
                counter("swsimd_server_records_quarantined_total"),
            ),
            (
                corrupt_images,
                counter("swsimd_server_corrupt_images_total"),
            ),
            (shadow_checks, counter("swsimd_server_shadow_checks_total")),
            (
                shadow_mismatches,
                counter("swsimd_server_shadow_mismatches_total"),
            ),
            (
                backend_demotions,
                counter("swsimd_server_backend_demotions_total"),
            ),
            (
                selftest_failures,
                counter("swsimd_server_selftest_failures_total"),
            ),
            (cost_rejected, counter("swsimd_server_cost_rejected_total")),
            (
                budget_rejected,
                counter("swsimd_server_budget_rejected_total"),
            ),
            (
                watchdog_fires,
                counter("swsimd_server_watchdog_fires_total"),
            ),
            (cancelled_deadline, cancelled("deadline")),
            (cancelled_client_drop, cancelled("client_drop")),
            (cancelled_shutdown, cancelled("shutdown")),
            (cancelled_watchdog, cancelled("watchdog")),
            (cancelled_memory, cancelled("memory")),
        ];
        for (i, (field, series)) in pairs.into_iter().enumerate() {
            assert_eq!(field, series, "field {i} of {stats:?}");
        }
        // Each event kind driven above landed exactly once.
        assert_eq!((shed, rate_limited, cost_rejected), (1, 1, 1), "{stats:?}");
        assert_eq!(
            (worker_panics, degraded_batches, retries),
            (1, 1, 1),
            "{stats:?}"
        );
        assert_eq!((queries, batches, full_batches), (2, 2, 2), "{stats:?}");
        assert_eq!(
            (journal_replays, records_quarantined, corrupt_images),
            (1, 2, 1)
        );
    }
}
