//! Scatter-gather gateway with shard-level fault tolerance.
//!
//! The gateway fans a query out to every shard group, merges the
//! slice results with the same [`rank_hits`] ranking the in-process
//! server uses (so sharded and unsharded answers are bit-identical),
//! and absorbs shard failures instead of propagating them:
//!
//! - **Retries.** Transient failures (connect errors, torn or
//!   bit-flipped frames, per-attempt timeouts, `QueueFull`, a
//!   draining or mis-addressed shard) retry under a bounded
//!   [`RetryPolicy`] budget with seeded-jitter exponential backoff,
//!   rotating across the group's replicas. Fatal errors (invalid
//!   query, admission rejections, blown deadline) propagate
//!   immediately — retrying cannot fix the query.
//! - **Circuit breakers.** Each replica has a [`ShardBreaker`]
//!   mirroring the kernel trust ladder: consecutive failures open the
//!   breaker (`swsimd_shard_down_total`, `swsimd_shard_up` → 0) and
//!   the replica stops receiving traffic until consecutive health
//!   probes re-admit it.
//! - **Hedging.** When a group has a spare replica, a duplicate
//!   request launches after the observed p99 of the primary's
//!   round-trips (never below the configured floor); first reply
//!   wins (`swsimd_hedged_requests_total`).
//! - **Graceful degradation.** A group that exhausts its budget is
//!   reported in `missing_shards` and the response is marked
//!   `degraded` (`swsimd_degraded_responses_total`) instead of
//!   failing the whole query; only a fully-missing topology errors.
//! - **Tenant admission.** Each query bills to a tenant (the wire's
//!   `EXT_TENANT` extension; absent = the default tenant). Per-tenant
//!   concurrency caps and token buckets ([`GatewayQos`]) reject
//!   excess load at the edge with typed overload errors carrying a
//!   `retry_after_ms` hint, before any shard sees a frame. Overload
//!   rejections from shards honor the same hints in the retry
//!   schedule ([`RetryPolicy::delay_with_hint`]), and shard-reported
//!   [`Fidelity`] reductions merge conservatively into the response.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use swsimd_core::Hit;
use swsimd_obs::flight::{AuditRecord, ShardTiming, Stage, StageTiming};
use swsimd_obs::trace::{AdoptGuard, Span, TraceCtx};
use swsimd_runner::{
    rank_hits, tenant_label, FaultPlan, Fidelity, RateConfig, Request, ServeError, TokenBucket,
};

use crate::backoff::RetryPolicy;
use crate::breaker::{BreakerState, ShardBreaker};
use crate::conn::lock_ok;
use crate::metrics::{GatewayMetrics, ReplicaMetrics, StreamMetrics, TenantEdgeMetrics};
use crate::wire::{budget_ms, ranking_digest, read_msg, write_msg, Msg, RemoteError, WireError};

/// Per-tenant admission controls enforced at the gateway edge, before
/// any shard sees a frame. The cost unit here is *query bytes* (the
/// gateway does not know the sharded database size; shard-side
/// buckets meter in DP cells).
#[derive(Clone, Default)]
pub struct GatewayQos {
    /// Max scatter-gather requests concurrently in flight per tenant
    /// (0 = uncapped). Excess requests are shed with
    /// [`ServeError::QueueFull`] and a backoff hint.
    pub max_inflight: usize,
    /// Per-tenant token buckets keyed by tenant name (use
    /// `"default"` for anonymous traffic). Tenants without an entry
    /// are not rate-limited at the gateway.
    pub rates: HashMap<String, RateConfig>,
}

/// Gateway configuration.
pub struct GatewayConfig {
    /// Replica addresses per slice: `shards[slice]` lists equivalent
    /// replicas serving that slice.
    pub shards: Vec<Vec<String>>,
    /// Retry schedule per shard group.
    pub retry: RetryPolicy,
    /// Dial timeout per attempt.
    pub connect_timeout: Duration,
    /// Read timeout per attempt (also capped by the query deadline).
    pub request_timeout: Duration,
    /// Hedge-delay floor; `None` disables hedging. The effective
    /// delay is `max(floor, observed p99 rtt of the primary)`.
    pub hedge_after: Option<Duration>,
    /// Consecutive failures that open a replica's breaker.
    pub strike_threshold: u32,
    /// Consecutive probe passes that re-admit it.
    pub readmit_after: u32,
    /// Deterministic network faults (connect refusals).
    pub fault: FaultPlan,
    /// Per-tenant edge admission (concurrency caps, token buckets).
    pub qos: GatewayQos,
    /// Encoded canary query for re-admission probes. When non-empty, a
    /// replica must answer this tiny real alignment — not just a ping —
    /// before its breaker closes, so a shard that accepts TCP but
    /// panics on work is never re-admitted. Empty = ping-only probes.
    pub canary: Vec<u8>,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        Self {
            shards: Vec::new(),
            retry: RetryPolicy::default(),
            connect_timeout: Duration::from_secs(1),
            request_timeout: Duration::from_secs(10),
            hedge_after: Some(Duration::from_millis(50)),
            strike_threshold: 3,
            readmit_after: 2,
            fault: FaultPlan::default(),
            qos: GatewayQos::default(),
            canary: Vec::new(),
        }
    }
}

/// A merged scatter-gather result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GatewayResponse {
    /// Globally-indexed hits, ranked exactly like an unsharded search.
    pub hits: Vec<Hit>,
    /// True when `missing_shards` is non-empty.
    pub degraded: bool,
    /// Slice indices that could not contribute within their budgets.
    pub missing_shards: Vec<u32>,
    /// Distributed trace id this request was filed under in the
    /// gateway's flight recorder (`swsimd trace <id>` looks it up).
    pub trace_id: u64,
    /// Worst (most-degraded) fidelity any contributing shard reported
    /// — a brownout-era shard answers with exact scores but may skip
    /// shadow verification or traceback detail; the reduction is
    /// typed here, never silent.
    pub fidelity: Fidelity,
}

struct Replica {
    addr: String,
    slice: u32,
    breaker: Mutex<ShardBreaker>,
    metrics: ReplicaMetrics,
}

/// Per-tenant edge-admission state, created lazily on first sight.
struct TenantGate {
    inflight: AtomicUsize,
    bucket: Option<Mutex<TokenBucket>>,
    metrics: TenantEdgeMetrics,
}

struct GatewayInner {
    cfg: GatewayConfig,
    replicas: Vec<Replica>,
    /// slice → flat replica ordinals.
    groups: Vec<Vec<usize>>,
    metrics: GatewayMetrics,
    stream: StreamMetrics,
    next_id: AtomicU64,
    /// Tenant label → edge-admission state.
    tenants: Mutex<HashMap<String, Arc<TenantGate>>>,
}

impl GatewayInner {
    fn tenant_gate(&self, tenant: &str) -> Arc<TenantGate> {
        let label = tenant_label(tenant);
        let mut map = lock_ok(&self.tenants);
        if let Some(gate) = map.get(label) {
            return Arc::clone(gate);
        }
        let gate = Arc::new(TenantGate {
            inflight: AtomicUsize::new(0),
            bucket: self
                .cfg
                .qos
                .rates
                .get(label)
                .map(|rate| Mutex::new(TokenBucket::new(*rate))),
            metrics: TenantEdgeMetrics::new(label),
        });
        map.insert(label.to_string(), Arc::clone(&gate));
        gate
    }
}

/// Decrements a tenant's in-flight count (and gauge) on every exit
/// path of a scatter-gather request.
struct InflightGuard(Arc<TenantGate>);

impl Drop for InflightGuard {
    fn drop(&mut self) {
        self.0.inflight.fetch_sub(1, Ordering::Relaxed);
        self.0.metrics.inflight.dec();
    }
}

/// The scatter-gather client half of the serving tier. Cheap to
/// clone; clones share breakers and metrics.
#[derive(Clone)]
pub struct Gateway {
    inner: Arc<GatewayInner>,
}

/// How one attempt against one replica ended; `T` is what a success
/// carries.
enum Attempt<T> {
    Ok(T),
    /// Retrying another replica (or the same one later) may help; an
    /// overloaded shard attaches its `retry_after_ms` backoff hint.
    Retryable(Option<u64>),
    /// The replica announced it is draining (SIGTERM'd or a passive
    /// standby): force its breaker open so no further attempts or
    /// hedges burn budget discovering the same thing, then retry the
    /// siblings.
    Draining,
    /// Retrying cannot change the outcome; fail the query.
    Fatal(RemoteError),
}

/// How one slice ended, after retries.
enum Slice<T> {
    Ok(T),
    /// Budget exhausted or no replica available: degrade.
    Missing,
    Fatal(RemoteError),
}

/// One slice's unary answer: its hits, the shard's timing summary when
/// the peer sent one (`rtt_ns` is filled gateway-side by the attempt
/// thread), and the fidelity the shard served at.
type Answer = (Vec<Hit>, Option<ShardTiming>, Fidelity);

/// Per-query bookkeeping shared by the scatter threads, feeding the
/// request's flight-recorder audit record.
#[derive(Default)]
struct QueryFlight {
    retries: AtomicU32,
    hedges: AtomicU32,
}

/// One scatter-gather request as every slice thread sees it.
struct Scatter {
    /// Wire id of every shard frame the request sends.
    id: u64,
    /// The caller's request, its trace context replaced by the
    /// gateway span's so shard span trees parent under it.
    req: Request,
    flight: QueryFlight,
}

fn deadline_exceeded() -> RemoteError {
    RemoteError::Serve(ServeError::DeadlineExceeded)
}

impl Gateway {
    /// Build a gateway over `cfg.shards`. No connections are opened
    /// until the first query or probe.
    pub fn new(cfg: GatewayConfig) -> Gateway {
        let mut replicas = Vec::new();
        let mut groups = Vec::new();
        for (slice, group) in cfg.shards.iter().enumerate() {
            let mut ordinals = Vec::new();
            for addr in group {
                let ordinal = replicas.len();
                replicas.push(Replica {
                    addr: addr.clone(),
                    slice: slice as u32,
                    breaker: Mutex::new(ShardBreaker::new(cfg.strike_threshold, cfg.readmit_after)),
                    metrics: ReplicaMetrics::new(ordinal),
                });
                ordinals.push(ordinal);
            }
            groups.push(ordinals);
        }
        Gateway {
            inner: Arc::new(GatewayInner {
                cfg,
                replicas,
                groups,
                metrics: GatewayMetrics::new(),
                stream: StreamMetrics::new(),
                next_id: AtomicU64::new(1),
                tenants: Mutex::new(HashMap::new()),
            }),
        }
    }

    /// Slice count in the configured topology.
    pub fn slice_count(&self) -> usize {
        self.inner.groups.len()
    }

    /// Breaker states per replica ordinal (ops/test introspection).
    pub fn replica_states(&self) -> Vec<BreakerState> {
        self.inner
            .replicas
            .iter()
            .map(|r| lock_ok(&r.breaker).state())
            .collect()
    }

    /// Scatter `req` to every shard group and gather the merged
    /// ranking. `req.deadline` bounds the whole operation.
    ///
    /// The request bills to `req.tenant` (empty = the default tenant):
    /// the tenant's gateway-edge concurrency cap and token bucket are
    /// enforced before any shard is contacted, and the tenant rides
    /// every shard frame so shard-side fair-share scheduling sees the
    /// same identity.
    ///
    /// The request gets one trace id (`req.trace`'s, or freshly
    /// minted), a `gateway_request` root span, and the same context
    /// rides every shard frame — so shard-side span trees parent under
    /// this span and the whole request stitches into one distributed
    /// tree. The completed request is filed in the process-global
    /// flight recorder with its stage breakdown (admission → dispatch
    /// → net_rtt → merge partition the gateway's wall time by
    /// construction) plus the per-shard timing summaries that came
    /// back on the replies.
    pub fn send(&self, req: &Request) -> Result<GatewayResponse, RemoteError> {
        let inner = &self.inner;
        inner.metrics.requests.inc();
        let t0 = Instant::now();

        let _inflight = edge_admit(inner, &req.tenant, req.query.len() as u64)?;
        let (_adopt, mut span, ctx) = open_trace(req.trace, "gateway_request", inner.groups.len());
        let trace_id = ctx.trace_id;
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        if inner.groups.is_empty() {
            record_gateway_flight(&FlightInput {
                trace_id,
                id,
                query_len: req.query.len(),
                t0,
                marks: vec![(Stage::Admission, t0.elapsed())],
                shards: Vec::new(),
                flight: &QueryFlight::default(),
                degraded: false,
                ok: false,
                cancel: "unavailable",
                tenant: &req.tenant,
            });
            return Err(RemoteError::Unavailable);
        }
        let scatter = Arc::new(Scatter {
            id,
            req: Request {
                trace: ctx,
                ..req.clone()
            },
            flight: QueryFlight::default(),
        });
        let admitted = Instant::now();

        let (tx, rx) = mpsc::channel();
        for slice in 0..inner.groups.len() {
            let tx = tx.clone();
            let inner = Arc::clone(&self.inner);
            let scatter = Arc::clone(&scatter);
            std::thread::spawn(move || {
                let _ = tx.send((slice, query_group(&inner, slice, &scatter)));
            });
        }
        drop(tx);
        let dispatched = Instant::now();

        let mut all_hits = Vec::new();
        let mut missing = Vec::new();
        let mut fatal = None;
        let mut timings = Vec::new();
        let mut fidelity = Fidelity::Full;
        for (slice, outcome) in rx {
            match outcome {
                Slice::Ok((hits, timing, f)) => {
                    all_hits.extend(hits);
                    timings.extend(timing);
                    // Conservative merge: the response is only as
                    // faithful as its least-faithful contributor.
                    fidelity = fidelity.max(f);
                }
                Slice::Missing => missing.push(slice as u32),
                Slice::Fatal(e) => fatal = Some(e),
            }
        }
        let gathered = Instant::now();
        timings.sort_by_key(|t| t.shard);
        let marks = |merged: Option<Instant>| {
            let mut m = vec![
                (Stage::Admission, admitted.duration_since(t0)),
                (Stage::Dispatch, dispatched.duration_since(admitted)),
                (Stage::NetRtt, gathered.duration_since(dispatched)),
            ];
            if let Some(at) = merged {
                m.push((Stage::Merge, at.duration_since(gathered)));
            }
            m
        };
        let flight = |marks, shards, degraded, cancel: &'static str| FlightInput {
            trace_id,
            id,
            query_len: req.query.len(),
            t0,
            marks,
            shards,
            flight: &scatter.flight,
            degraded,
            ok: cancel.is_empty(),
            cancel,
            tenant: &req.tenant,
        };

        if let Some(e) = fatal {
            record_gateway_flight(&flight(marks(None), timings, false, cancel_label(&e)));
            return Err(e);
        }
        if missing.len() == inner.groups.len() {
            record_gateway_flight(&flight(marks(None), timings, true, "unavailable"));
            return Err(RemoteError::Unavailable);
        }
        missing.sort_unstable();
        let degraded = !missing.is_empty();
        if degraded {
            inner.metrics.degraded.inc();
        }
        let hits = rank_hits(all_hits, req.top_k);
        let merged = Instant::now();
        inner
            .metrics
            .latency
            .record_duration(merged.duration_since(t0));
        span.record("hits", hits.len() as u64);
        span.record("degraded", degraded);
        record_gateway_flight(&flight(marks(Some(merged)), timings, degraded, ""));
        Ok(GatewayResponse {
            hits,
            degraded,
            missing_shards: missing,
            trace_id,
            fidelity,
        })
    }

    /// [`Gateway::send`] for an untraced default-tenant request;
    /// `deadline` bounds the whole operation.
    pub fn query(
        &self,
        query: &[u8],
        top_k: usize,
        deadline: Option<Duration>,
    ) -> Result<GatewayResponse, RemoteError> {
        self.send(&Request {
            deadline: deadline.map(|d| Instant::now() + d),
            ..Request::new(query.to_vec(), top_k)
        })
    }

    /// Open a streaming scatter-gather query, admitted, billed and
    /// traced like [`Gateway::send`] (root span `gateway_stream`).
    /// Chunks of ranked hits arrive incrementally as shards clear
    /// their checkpoint boundaries. One reader thread per slice holds a
    /// [`Msg::StreamQuery`] conversation with a replica (breaker-aware
    /// pick, bounded retries with the shared backoff schedule),
    /// relaying chunks into a bounded buffer of at most
    /// `client_credit` chunks — the gateway never holds more than
    /// `credit × chunk` bytes per client; backpressure propagates to
    /// the shards through their own credit windows. A replica that
    /// dies mid-stream is replaced by a sibling and the conversation
    /// resumes from the last delivered cursor (the shard replays its
    /// durable journal); chunks are deduplicated by `(slice, cursor)`
    /// so replays and replica switches never double-deliver. A slice
    /// that exhausts its retry budget folds into the `degraded` /
    /// `missing_shards` machinery exactly like the one-shot path.
    ///
    /// The returned handle yields [`StreamItem`]s; the terminal
    /// [`StreamItem::Fin`] carries the same merged
    /// [`GatewayResponse`] the one-shot path would have produced (the
    /// gateway folds every chunk incrementally, so the final ranking
    /// is byte-identical to an unsharded search).
    pub fn stream(&self, req: &Request, client_credit: u32) -> Result<GatewayStream, RemoteError> {
        let inner = &self.inner;
        inner.metrics.requests.inc();
        let guard = edge_admit(inner, &req.tenant, req.query.len() as u64)?;
        if inner.groups.is_empty() {
            return Err(RemoteError::Unavailable);
        }
        let (_adopt, _span, ctx) = open_trace(req.trace, "gateway_stream", inner.groups.len());
        let trace_id = ctx.trace_id;
        let scatter = Arc::new(Scatter {
            id: inner.next_id.fetch_add(1, Ordering::Relaxed),
            req: Request {
                trace: ctx,
                ..req.clone()
            },
            flight: QueryFlight::default(),
        });
        // The client's credit window sizes the only gateway-side chunk
        // buffer; a zero or absurd window is clamped, not trusted.
        let bound = (client_credit.max(1) as usize).min(MAX_BUFFERED_CHUNKS);
        let (tx, rx) = mpsc::sync_channel::<StreamItem>(bound);
        let progress = Arc::new(StreamProgress::new(inner.groups.len()));
        let (end_tx, end_rx) = mpsc::channel();
        for slice in 0..inner.groups.len() {
            let inner = Arc::clone(&self.inner);
            let scatter = Arc::clone(&scatter);
            let tx = tx.clone();
            let end_tx = end_tx.clone();
            let progress = Arc::clone(&progress);
            std::thread::spawn(move || {
                let end = stream_group(&inner, slice, &scatter, &tx, &progress);
                let _ = end_tx.send((slice, end));
            });
        }
        drop(end_tx);
        let this = self.clone();
        let slices = inner.groups.len();
        let top_k = req.top_k;
        std::thread::spawn(move || {
            // Holds the tenant's in-flight slot for the stream's whole
            // lifetime, not just the setup call.
            let _guard = guard;
            let inner = &this.inner;
            let mut merged = Vec::new();
            let mut missing = Vec::new();
            let mut fatal = None;
            let mut fidelity = Fidelity::Full;
            let mut abandoned = false;
            for (slice, end) in end_rx {
                match end {
                    Slice::Ok(Some((hits, f))) => {
                        merged.extend(hits);
                        fidelity = fidelity.max(f);
                    }
                    Slice::Ok(None) => abandoned = true,
                    Slice::Missing => missing.push(slice as u32),
                    Slice::Fatal(e) => fatal = Some(e),
                }
            }
            if abandoned {
                // The client side of the buffer is gone; there is
                // nobody left to tell.
                return;
            }
            let result = if let Some(e) = fatal {
                Err(e)
            } else if missing.len() == slices {
                Err(RemoteError::Unavailable)
            } else {
                missing.sort_unstable();
                let degraded = !missing.is_empty();
                if degraded {
                    inner.metrics.degraded.inc();
                }
                Ok(GatewayResponse {
                    hits: rank_hits(merged, top_k),
                    degraded,
                    missing_shards: missing,
                    trace_id,
                    fidelity,
                })
            };
            let _ = tx.send(StreamItem::Fin(result));
        });
        Ok(GatewayStream {
            rx,
            progress,
            metrics: inner.stream.clone(),
            trace_id,
            finished: false,
        })
    }

    /// One-line human-readable health summary: per-replica breaker
    /// state, observed RTT p99, and attempts currently in flight.
    pub fn health_line(&self) -> String {
        let inner = &self.inner;
        let mut line = format!("gateway slices={}", inner.groups.len());
        for (ordinal, replica) in inner.replicas.iter().enumerate() {
            let snap = replica.metrics.rtt.snapshot();
            line.push_str(&format!(
                " | shard={ordinal} slice={} state={:?} rtt_p99={:.2}ms inflight={}",
                replica.slice,
                lock_ok(&replica.breaker).state(),
                snap.p99 as f64 / 1e6,
                replica.metrics.inflight.get(),
            ));
        }
        line.push_str(&format!(
            " | stream chunks={} resumes={} credit_stalls={} buffered={}B peak={}B",
            inner.stream.chunks.get(),
            inner.stream.resumes.get(),
            inner.stream.credit_stalls.get(),
            inner.stream.buffered_bytes.get(),
            inner.stream.buffered_peak.get(),
        ));
        line
    }

    /// Probe every non-healthy replica once; returns how many were
    /// re-admitted. Deterministic (no sleeps) so tests drive the
    /// re-admission state machine directly; production uses
    /// [`Gateway::start_prober`].
    pub fn probe_now(&self) -> usize {
        let inner = &self.inner;
        let mut readmitted = 0;
        for replica in &inner.replicas {
            if lock_ok(&replica.breaker).state() == BreakerState::Healthy {
                continue;
            }
            let pass = probe_replica(inner, replica);
            let mut breaker = lock_ok(&replica.breaker);
            if pass {
                if breaker.probe_success() {
                    replica.metrics.up.set(1);
                    readmitted += 1;
                    swsimd_obs::event!("shard_readmitted", "replica" => replica.slice);
                }
            } else {
                breaker.probe_failure();
            }
        }
        readmitted
    }

    /// Spawn a background prober calling [`Gateway::probe_now`] every
    /// `interval` until the handle is stopped or dropped.
    pub fn start_prober(&self, interval: Duration) -> ProberHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let gw = self.clone();
        let handle = std::thread::spawn(move || {
            while !flag.load(Ordering::Acquire) {
                std::thread::sleep(interval);
                if flag.load(Ordering::Acquire) {
                    break;
                }
                gw.probe_now();
            }
        });
        ProberHandle {
            stop,
            handle: Some(handle),
        }
    }
}

/// Stops the background prober when dropped.
pub struct ProberHandle {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ProberHandle {
    /// Stop the prober and wait for it to exit.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ProberHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Edge admission shared by the one-shot and streaming paths: token
/// bucket first (cheapest to explain to the caller), then the
/// concurrency cap. Both reject with a typed error carrying a backoff
/// hint; neither touches a shard. On success the returned guard holds
/// the tenant's in-flight slot until dropped.
fn edge_admit(inner: &GatewayInner, tenant: &str, cost: u64) -> Result<InflightGuard, RemoteError> {
    let gate = inner.tenant_gate(tenant);
    if let Some(bucket) = &gate.bucket {
        if let Err(retry_after_ms) = lock_ok(bucket).try_take(cost, Instant::now()) {
            gate.metrics.rate_limited.inc();
            swsimd_obs::event!(
                "gateway_rate_limited",
                "tenant" => tenant_label(tenant).to_string(),
                "retry_after_ms" => retry_after_ms
            );
            return Err(RemoteError::Serve(ServeError::RateLimited {
                retry_after_ms,
            }));
        }
    }
    let cap = inner.cfg.qos.max_inflight;
    let admitted = gate
        .inflight
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
            (cap == 0 || n < cap).then_some(n + 1)
        });
    if admitted.is_err() {
        gate.metrics.shed.inc();
        let retry_after_ms = inner.cfg.retry.base.as_millis().max(1) as u64;
        swsimd_obs::event!(
            "gateway_load_shed",
            "tenant" => tenant_label(tenant).to_string(),
            "retry_after_ms" => retry_after_ms
        );
        return Err(RemoteError::Serve(ServeError::QueueFull { retry_after_ms }));
    }
    gate.metrics.inflight.inc();
    Ok(InflightGuard(gate))
}

/// Everything one gateway audit record needs, gathered at an exit
/// point of [`Gateway::send`].
struct FlightInput<'a> {
    trace_id: u64,
    id: u64,
    query_len: usize,
    t0: Instant,
    marks: Vec<(Stage, Duration)>,
    shards: Vec<ShardTiming>,
    flight: &'a QueryFlight,
    degraded: bool,
    ok: bool,
    cancel: &'a str,
    tenant: &'a str,
}

/// File one gateway request into the process-global flight recorder.
fn record_gateway_flight(input: &FlightInput<'_>) {
    let recorder = swsimd_obs::flight::global();
    if !recorder.enabled() {
        return;
    }
    // Engine attribution: unanimous across shards, or "mixed".
    let engine = match input.shards.first() {
        Some(first) if input.shards.iter().all(|t| t.engine == first.engine) => {
            first.engine.clone()
        }
        Some(_) => "mixed".to_string(),
        None => String::new(),
    };
    recorder.record(AuditRecord {
        trace_id: input.trace_id,
        query_id: input.id,
        total_ns: input.t0.elapsed().as_nanos() as u64,
        stages: input
            .marks
            .iter()
            .map(|(stage, d)| StageTiming {
                stage: *stage,
                ns: d.as_nanos() as u64,
            })
            .collect(),
        shards: input.shards.clone(),
        engine,
        retries: input.flight.retries.load(Ordering::Relaxed),
        hedges: input.flight.hedges.load(Ordering::Relaxed),
        degraded: input.degraded,
        cost: input.query_len as u64,
        cancel: input.cancel.to_string(),
        ok: input.ok,
        tenant: tenant_label(input.tenant).to_string(),
    });
}

/// Flight-recorder cancel label for a fatal gateway error.
fn cancel_label(err: &RemoteError) -> &'static str {
    match err {
        RemoteError::Serve(ServeError::DeadlineExceeded) => "deadline",
        RemoteError::Serve(ServeError::ShutDown) => "shutdown",
        RemoteError::Serve(ServeError::WorkerPanicked) => "panic",
        RemoteError::Serve(ServeError::RateLimited { .. }) => "rate_limited",
        RemoteError::Unavailable => "unavailable",
        _ => "error",
    }
}

fn probe_replica(inner: &GatewayInner, replica: &Replica) -> bool {
    let Ok(addr) = resolve(&replica.addr) else {
        return false;
    };
    let Ok(mut stream) = TcpStream::connect_timeout(&addr, inner.cfg.connect_timeout) else {
        return false;
    };
    let _ = stream.set_read_timeout(Some(inner.cfg.connect_timeout));
    if write_msg(&mut stream, &Msg::Ping { nonce: 0x5157 }).is_err() {
        return false;
    }
    let pong_ok = matches!(
        read_msg(&mut stream),
        Ok(Msg::Pong {
            nonce: 0x5157,
            draining: false,
            ..
        })
    );
    if !pong_ok || inner.cfg.canary.is_empty() {
        return pong_ok;
    }
    // Ping passed; now prove the replica can do *work*. A shard whose
    // workers panic still answers pings, and re-admitting it would
    // just bounce it open again on the next real query.
    let canary = Msg::Query {
        id: 0,
        top_k: 1,
        deadline_ms: inner.cfg.request_timeout.as_millis().min(u32::MAX as u128) as u32,
        // slice_count 0 = whole-slice direct query; valid on any shard
        // regardless of its coordinates.
        slice_index: 0,
        slice_count: 0,
        query: inner.cfg.canary.clone(),
        trace: TraceCtx::default(),
        tenant: String::new(),
    };
    let _ = stream.set_read_timeout(Some(inner.cfg.request_timeout));
    if write_msg(&mut stream, &canary).is_err() {
        inner.metrics.canary_failures.inc();
        return false;
    }
    match read_msg(&mut stream) {
        Ok(Msg::Hits { .. }) => true,
        _ => {
            inner.metrics.canary_failures.inc();
            swsimd_obs::event!("canary_failed", "replica" => replica.slice);
            false
        }
    }
}

fn resolve(addr: &str) -> std::io::Result<SocketAddr> {
    use std::net::ToSocketAddrs;
    addr.to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::other("address resolved to nothing"))
}

/// Adopt the caller's trace context (minting a trace id when the
/// caller sent none) and open the gateway's root span; returns the
/// context every shard frame carries.
fn open_trace(
    client: TraceCtx,
    span_name: &'static str,
    shards: usize,
) -> (AdoptGuard, Span, TraceCtx) {
    let trace_id = if client.is_traced() {
        client.trace_id
    } else {
        swsimd_obs::mint_id()
    };
    let adopt = swsimd_obs::adopt(TraceCtx {
        trace_id,
        span_id: client.span_id,
    });
    let span = swsimd_obs::span!(span_name, "shards" => shards);
    let ctx = TraceCtx {
        trace_id,
        span_id: if span.id() != 0 {
            span.id()
        } else {
            client.span_id
        },
    };
    (adopt, span, ctx)
}

/// Run one slice to a verdict — the loop the unary and streaming paths
/// share: the retry budget, backoff honouring the last overload hint,
/// the deadline checks, and breaker-aware replica picks. `attempt(n,
/// available)` runs attempt `n` against the replicas whose breakers
/// currently admit traffic.
fn run_slice<T>(
    inner: &GatewayInner,
    slice: usize,
    scatter: &Scatter,
    mut attempt: impl FnMut(u32, &[usize]) -> Attempt<T>,
) -> Slice<T> {
    let deadline = scatter.req.deadline;
    let mut n = 0u32;
    // Backoff hint from the previous attempt's overload rejection, if
    // any; it overrides the exponential schedule for the next sleep.
    let mut hint_ms: Option<u64> = None;
    loop {
        // An expired deadline is fatal whichever side notices it first.
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Slice::Fatal(deadline_exceeded());
        }
        if !inner.cfg.retry.allows(n) {
            return Slice::Missing;
        }
        if n > 0 {
            inner.metrics.retries.inc();
            scatter.flight.retries.fetch_add(1, Ordering::Relaxed);
            let delay = inner.cfg.retry.delay_with_hint(n, hint_ms);
            // A backoff that would overshoot a still-live deadline
            // gives up on this slice, not on the whole query.
            if deadline.is_some_and(|d| Instant::now() + delay >= d) {
                return Slice::Missing;
            }
            std::thread::sleep(delay);
        }
        let available: Vec<usize> = inner.groups[slice]
            .iter()
            .copied()
            .filter(|&ord| lock_ok(&inner.replicas[ord].breaker).is_available())
            .collect();
        if available.is_empty() {
            // Breaker open on every replica: degrade now; the prober
            // re-admits recovered shards out of band.
            return Slice::Missing;
        }
        match attempt(n, &available) {
            Attempt::Ok(v) => return Slice::Ok(v),
            Attempt::Fatal(e) => return Slice::Fatal(e),
            Attempt::Retryable(hint) => hint_ms = hint,
            // The drained replica's breaker is force-open, so the next
            // pass picks a live sibling.
            Attempt::Draining => hint_ms = None,
        }
        n += 1;
    }
}

/// Breaker and metric bookkeeping for one finished attempt against
/// `ordinal`, shared by the unary and streaming paths. A success counts
/// toward health; an announced drain stops routing to the replica right
/// now rather than strike-by-strike; a retryable failure is a strike.
/// Fatal outcomes are the *query's* fault, not the replica's — no
/// strike.
fn settle<T>(inner: &GatewayInner, ordinal: usize, outcome: &Attempt<T>) {
    let replica = &inner.replicas[ordinal];
    let (opened, event) = match outcome {
        Attempt::Ok(_) => {
            lock_ok(&replica.breaker).record_success();
            return;
        }
        Attempt::Fatal(_) => return,
        Attempt::Draining => {
            inner.metrics.draining_replies.inc();
            let opened = lock_ok(&replica.breaker).force_open();
            (opened, "shard_draining_unrouted")
        }
        Attempt::Retryable(_) => {
            let opened = lock_ok(&replica.breaker).record_failure();
            (opened, "shard_breaker_open")
        }
    };
    if opened {
        replica.metrics.down_total.inc();
        replica.metrics.up.set(0);
        swsimd_obs::event!(event, "replica" => ordinal);
    }
}

/// Run one shard group's unary query to completion, hedging each
/// attempt onto a sibling replica when the group has one.
fn query_group(inner: &Arc<GatewayInner>, slice: usize, scatter: &Arc<Scatter>) -> Slice<Answer> {
    run_slice(inner, slice, scatter, |n, available| {
        let n = n as usize;
        let primary = available[n % available.len()];
        let hedge = (available.len() > 1 && inner.cfg.hedge_after.is_some())
            .then(|| available[(n + 1) % available.len()]);
        attempt_with_hedge(inner, primary, hedge, scatter)
    })
}

/// Per-shard credit window the gateway's slice readers extend: the
/// shard may have this many chunks in flight toward the gateway
/// before it must wait for a grant. Small enough to bound shard-side
/// buffering, large enough to keep the pipe full across one RTT.
const SHARD_CREDIT: u32 = 4;

/// Ceiling on the client-credit-sized gateway chunk buffer; a client
/// asking for a million credits does not get a million-chunk buffer.
const MAX_BUFFERED_CHUNKS: usize = 64;

/// One increment of a streaming scatter-gather query.
#[derive(Debug)]
pub enum StreamItem {
    /// The next undelivered chunk from one slice: globally-indexed,
    /// per-chunk-ranked hits with the slice's monotone cursor.
    Chunk {
        /// Slice the chunk came from.
        slice: u32,
        /// 1-based checkpoint cursor within that slice's stream.
        cursor: u64,
        /// Ranked hits for the chunk's database range.
        hits: Vec<Hit>,
    },
    /// Terminal item: the merged ranking (byte-identical to the
    /// one-shot path) or the fatal error that ended the stream.
    Fin(Result<GatewayResponse, RemoteError>),
}

/// Per-slice progress cells shared between the reader threads (which
/// write what shards report) and the stream handle (which sums them
/// for heartbeats).
struct StreamProgress {
    done: Vec<AtomicU64>,
    total: Vec<AtomicU64>,
}

impl StreamProgress {
    fn new(slices: usize) -> Self {
        Self {
            done: (0..slices).map(|_| AtomicU64::new(0)).collect(),
            total: (0..slices).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn set(&self, slice: usize, done: u64, total: u64) {
        self.done[slice].store(done, Ordering::Relaxed);
        self.total[slice].store(total, Ordering::Relaxed);
    }

    /// A finished slice counts as fully done even if its last
    /// `Progress` frame never arrived.
    fn finish(&self, slice: usize) {
        let t = self.total[slice].load(Ordering::Relaxed);
        self.done[slice].store(t, Ordering::Relaxed);
    }

    fn sum(&self) -> (u64, u64) {
        let done = self.done.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        let total = self.total.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        (done, total)
    }
}

/// Client half of one streaming scatter-gather query. Dropping the
/// handle abandons the stream: reader threads notice their buffer is
/// gone, close their shard sockets, and the shards keep their
/// journals for a later resume.
pub struct GatewayStream {
    rx: mpsc::Receiver<StreamItem>,
    progress: Arc<StreamProgress>,
    metrics: StreamMetrics,
    trace_id: u64,
    finished: bool,
}

impl GatewayStream {
    /// Trace id the stream's shard conversations ride under.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// Aggregate `(cells_done, cells_total)` across every slice, as
    /// last reported by shard `Progress` heartbeats.
    pub fn progress(&self) -> (u64, u64) {
        self.progress.sum()
    }

    /// Next item, or `None` if nothing arrived within `timeout`.
    /// After [`StreamItem::Fin`] every call returns `None`.
    pub fn next_timeout(&mut self, timeout: Duration) -> Option<StreamItem> {
        if self.finished {
            return None;
        }
        match self.rx.recv_timeout(timeout) {
            Ok(StreamItem::Chunk {
                slice,
                cursor,
                hits,
            }) => {
                buffered_sub(&self.metrics, chunk_bytes(&hits));
                Some(StreamItem::Chunk {
                    slice,
                    cursor,
                    hits,
                })
            }
            Ok(item @ StreamItem::Fin(_)) => {
                self.finished = true;
                Some(item)
            }
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            // Every sender died without a Fin: only possible if the
            // coordinator panicked; surface it as an outage rather
            // than hanging the caller.
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                self.finished = true;
                Some(StreamItem::Fin(Err(RemoteError::Unavailable)))
            }
        }
    }
}

impl Drop for GatewayStream {
    fn drop(&mut self) {
        // Undelivered chunks stop being "buffered for a client" the
        // moment the client lets go of the handle.
        while let Ok(item) = self.rx.try_recv() {
            if let StreamItem::Chunk { hits, .. } = item {
                buffered_sub(&self.metrics, chunk_bytes(&hits));
            }
        }
    }
}

/// Wire-shaped size estimate for one chunk held in the gateway
/// buffer: frame overhead plus 16 bytes per hit.
fn chunk_bytes(hits: &[Hit]) -> usize {
    24 + hits.len() * 16
}

/// Process-wide buffered-bytes ledger behind the
/// `swsimd_stream_buffered_bytes` gauge (gauges have no fetch-add, so
/// the true value lives here and the gauge mirrors it).
static BUFFERED_BYTES: AtomicI64 = AtomicI64::new(0);

fn buffered_add(metrics: &StreamMetrics, bytes: usize) {
    let now = BUFFERED_BYTES.fetch_add(bytes as i64, Ordering::Relaxed) + bytes as i64;
    metrics.buffered_bytes.set(now);
    if now > metrics.buffered_peak.get() {
        metrics.buffered_peak.set(now);
    }
}

fn buffered_sub(metrics: &StreamMetrics, bytes: usize) {
    let now = BUFFERED_BYTES.fetch_sub(bytes as i64, Ordering::Relaxed) - bytes as i64;
    metrics.buffered_bytes.set(now);
}

/// Run one slice's stream to completion: the shared slice loop, with
/// mid-stream reconnects that resume from the last delivered cursor.
/// `Ok(None)` means the client dropped the stream handle.
fn stream_group(
    inner: &GatewayInner,
    slice: usize,
    scatter: &Scatter,
    tx: &mpsc::SyncSender<StreamItem>,
    progress: &StreamProgress,
) -> Slice<Option<(Vec<Hit>, Fidelity)>> {
    // Highest cursor forwarded into the client buffer; reconnects ask
    // the next replica to skip everything at or below it.
    let mut delivered = 0u64;
    // Incremental fold of every chunk: per-chunk top-k capping
    // preserves the global top-k, so this stays bounded by `top_k`.
    let mut merged: Vec<Hit> = Vec::new();
    let end = run_slice(inner, slice, scatter, |n, available| {
        let ordinal = available[n as usize % available.len()];
        if n > 0 && delivered > 0 {
            // This attempt continues a partially-delivered stream from
            // durable shard state rather than starting over.
            inner.stream.resumes.inc();
            swsimd_obs::event!(
                "stream_shard_reconnect",
                "slice" => slice,
                "cursor" => delivered
            );
        }
        let replica = &inner.replicas[ordinal];
        replica.metrics.inflight.inc();
        let end = stream_attempt(
            inner,
            ordinal,
            scatter,
            &mut delivered,
            &mut merged,
            tx,
            progress,
        );
        replica.metrics.inflight.dec();
        // An abandoned stream says nothing about the replica.
        if !matches!(end, Attempt::Ok(None)) {
            settle(inner, ordinal, &end);
        }
        end
    });
    match end {
        Slice::Ok(done) => Slice::Ok(done.map(|fidelity| (merged, fidelity))),
        Slice::Missing => Slice::Missing,
        Slice::Fatal(e) => Slice::Fatal(e),
    }
}

/// One streaming conversation with one replica: relay chunks into the
/// client buffer (deduplicated by cursor), grant the shard one credit
/// per chunk consumed, track progress heartbeats, and fold every new
/// chunk into the slice's running merge. Succeeds with the fidelity
/// the shard served at, or `None` when the client buffer is gone.
fn stream_attempt(
    inner: &GatewayInner,
    ordinal: usize,
    scatter: &Scatter,
    delivered: &mut u64,
    merged: &mut Vec<Hit>,
    tx: &mpsc::SyncSender<StreamItem>,
    progress: &StreamProgress,
) -> Attempt<Option<Fidelity>> {
    let replica = &inner.replicas[ordinal];
    let slice = replica.slice;
    let (id, req) = (scatter.id, &scatter.req);
    let Some(deadline_ms) = budget_ms(req.deadline) else {
        return Attempt::Fatal(deadline_exceeded());
    };
    let Some(mut stream) = dial(inner, ordinal) else {
        return Attempt::Retryable(None);
    };
    // The read timeout bounds *silence*, not the stream: the shard
    // proves liveness with sub-second Progress heartbeats, so a long
    // stream never trips it while a dead peer still does.
    crate::listen::apply_socket_opts(&stream, Some(inner.cfg.request_timeout), "gateway_stream");
    let msg = Msg::StreamQuery {
        id,
        top_k: req.top_k as u32,
        deadline_ms,
        slice_index: slice,
        slice_count: inner.groups.len() as u32,
        credit: SHARD_CREDIT,
        cursor: *delivered,
        query: req.query.clone(),
        trace: req.trace,
        tenant: req.tenant.clone(),
    };
    if write_msg(&mut stream, &msg).is_err() {
        return Attempt::Retryable(None);
    }
    loop {
        match read_msg(&mut stream) {
            Ok(Msg::StreamChunk { cursor, hits, .. }) => {
                if cursor > *delivered {
                    merged.extend(hits.iter().cloned());
                    *merged = rank_hits(std::mem::take(merged), req.top_k);
                    let bytes = chunk_bytes(&hits);
                    buffered_add(&inner.stream, bytes);
                    if tx
                        .send(StreamItem::Chunk {
                            slice,
                            cursor,
                            hits,
                        })
                        .is_err()
                    {
                        // Client buffer gone; the chunk was never
                        // delivered, so it no longer counts as
                        // buffered either.
                        buffered_sub(&inner.stream, bytes);
                        return Attempt::Ok(None);
                    }
                    inner.stream.chunks.inc();
                    *delivered = cursor;
                }
                // Grant one credit per chunk consumed — a deduplicated
                // replay still spent shard credit to arrive.
                if write_msg(&mut stream, &Msg::Credit { id, credits: 1 }).is_err() {
                    return Attempt::Retryable(None);
                }
            }
            Ok(Msg::Progress {
                cells_done,
                cells_total,
                ..
            }) => progress.set(slice as usize, cells_done, cells_total),
            Ok(Msg::Fin {
                digest, fidelity, ..
            }) => {
                progress.finish(slice as usize);
                if digest != ranking_digest(merged) {
                    // The fold should always agree with the shard's
                    // own final ranking; a mismatch is a bug worth an
                    // alertable breadcrumb, not a query failure.
                    swsimd_obs::event!(
                        "stream_digest_mismatch",
                        "slice" => slice,
                        "shard_digest" => digest,
                        "fold_digest" => ranking_digest(merged)
                    );
                }
                return Attempt::Ok(Some(fidelity));
            }
            Ok(Msg::Error { err, .. }) => return classify(err),
            // A non-stream kind is a confused peer: reconnect.
            Ok(_) => return Attempt::Retryable(None),
            Err(e) => return read_failed(e),
        }
    }
}

/// Launch the primary attempt; if no reply lands within the hedge
/// delay and a sibling exists, launch a duplicate and take the first
/// answer. Each attempt thread does its own breaker/metric
/// bookkeeping, so the loser's late result still updates state.
fn attempt_with_hedge(
    inner: &Arc<GatewayInner>,
    primary: usize,
    hedge: Option<usize>,
    scatter: &Arc<Scatter>,
) -> Attempt<Answer> {
    let (tx, rx) = mpsc::channel();
    spawn_attempt(inner, primary, scatter, tx.clone());

    let hedge_delay = hedge.and_then(|_| effective_hedge_delay(inner, primary));
    let mut launched = 1;
    let first = match hedge_delay {
        Some(delay) => match rx.recv_timeout(delay) {
            Ok(outcome) => Some(outcome),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                let sibling = hedge.expect("hedge_delay implies sibling");
                inner.metrics.hedges.inc();
                scatter.flight.hedges.fetch_add(1, Ordering::Relaxed);
                swsimd_obs::event!(
                    "hedged_request",
                    "primary" => primary,
                    "sibling" => sibling
                );
                spawn_attempt(inner, sibling, scatter, tx.clone());
                launched = 2;
                None
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => None,
        },
        None => None,
    };
    drop(tx);

    let mut results = Vec::new();
    if let Some(outcome) = first {
        results.push(outcome);
    }
    // Take the first success; otherwise drain what was launched.
    while results
        .iter()
        .filter(|r| !matches!(r, Attempt::Ok(..)))
        .count()
        == results.len()
        && results.len() < launched
    {
        match rx.recv() {
            Ok(outcome) => results.push(outcome),
            Err(_) => break,
        }
    }
    // Prefer success, then fatal (definitive), then retryable. A
    // draining reply folds into retryable here — its breaker is
    // already force-open, so the next attempt picks a live sibling.
    let mut hint_ms: Option<u64> = None;
    let mut fatal = None;
    for outcome in results {
        match outcome {
            Attempt::Ok(answer) => return Attempt::Ok(answer),
            Attempt::Fatal(e) => fatal = Some(e),
            Attempt::Draining => {}
            Attempt::Retryable(hint) => {
                // Back off by the most pessimistic hint any replica
                // attached.
                hint_ms = hint_ms.max(hint);
            }
        }
    }
    match fatal {
        Some(e) => Attempt::Fatal(e),
        None => Attempt::Retryable(hint_ms),
    }
}

/// The hedge delay: observed p99 of the primary's round-trips once
/// enough samples exist, floored by the configured delay.
fn effective_hedge_delay(inner: &GatewayInner, primary: usize) -> Option<Duration> {
    let floor = inner.cfg.hedge_after?;
    let snap = inner.replicas[primary].metrics.rtt.snapshot();
    if snap.count >= 16 {
        Some(floor.max(Duration::from_nanos(snap.p99)))
    } else {
        Some(floor)
    }
}

fn spawn_attempt(
    inner: &Arc<GatewayInner>,
    ordinal: usize,
    scatter: &Arc<Scatter>,
    tx: mpsc::Sender<Attempt<Answer>>,
) {
    let inner = Arc::clone(inner);
    let scatter = Arc::clone(scatter);
    std::thread::spawn(move || {
        let started = Instant::now();
        let replica = &inner.replicas[ordinal];
        replica.metrics.inflight.inc();
        let mut outcome = attempt_once(&inner, ordinal, &scatter);
        let rtt = started.elapsed();
        replica.metrics.inflight.dec();
        if let Attempt::Ok((_, timing, _)) = &mut outcome {
            replica.metrics.rtt.record_duration(rtt);
            // Only the gateway can observe the round trip; stamp it
            // onto the shard's timing summary for the stitched
            // breakdown.
            if let Some(timing) = timing {
                timing.rtt_ns = rtt.as_nanos() as u64;
            }
        }
        settle(&inner, ordinal, &outcome);
        let _ = tx.send(outcome);
    });
}

/// Connect to replica `ordinal`, honouring injected connect faults.
fn dial(inner: &GatewayInner, ordinal: usize) -> Option<TcpStream> {
    if inner.cfg.fault.before_connect(ordinal).is_err() {
        return None;
    }
    let addr = resolve(&inner.replicas[ordinal].addr).ok()?;
    TcpStream::connect_timeout(&addr, inner.cfg.connect_timeout).ok()
}

fn attempt_once(inner: &GatewayInner, ordinal: usize, scatter: &Scatter) -> Attempt<Answer> {
    let replica = &inner.replicas[ordinal];
    let req = &scatter.req;
    let Some(deadline_ms) = budget_ms(req.deadline) else {
        return Attempt::Fatal(deadline_exceeded());
    };
    let Some(mut stream) = dial(inner, ordinal) else {
        return Attempt::Retryable(None);
    };
    let _ = stream.set_nodelay(true);
    // The read waits at most the per-attempt timeout, clipped to what
    // is left of the query deadline.
    let left = req
        .deadline
        .map(|d| d.saturating_duration_since(Instant::now()));
    let clipped = left.is_some_and(|l| l < inner.cfg.request_timeout);
    let read_timeout = left.map_or(inner.cfg.request_timeout, |l| {
        l.min(inner.cfg.request_timeout)
    });
    if read_timeout.is_zero() {
        return Attempt::Fatal(deadline_exceeded());
    }
    let _ = stream.set_read_timeout(Some(read_timeout));
    let msg = Msg::Query {
        id: scatter.id,
        top_k: req.top_k as u32,
        deadline_ms,
        slice_index: replica.slice,
        slice_count: inner.groups.len() as u32,
        query: req.query.clone(),
        trace: req.trace,
        tenant: req.tenant.clone(),
    };
    if write_msg(&mut stream, &msg).is_err() {
        return Attempt::Retryable(None);
    }
    match read_msg(&mut stream) {
        Ok(Msg::Hits {
            hits,
            timing,
            fidelity,
            ..
        }) => Attempt::Ok((hits, timing, fidelity)),
        Ok(Msg::Error { err, .. }) => classify(err),
        // A non-answer kind is a confused peer: don't trust it again
        // this attempt.
        Ok(_) => Attempt::Retryable(None),
        // The read ran out of query deadline, not of per-attempt
        // patience: the deadline expired here first, and that is
        // fatal whichever side notices it.
        Err(WireError::Io(e)) if clipped && is_timeout(&e) => Attempt::Fatal(deadline_exceeded()),
        Err(e) => read_failed(e),
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Torn frames, bit flips, timeouts, resets: all retryable.
fn read_failed<T>(e: WireError) -> Attempt<T> {
    if let WireError::BadCrc { want, got } = e {
        swsimd_obs::event!("reply_crc_mismatch", "want" => want, "got" => got);
    }
    Attempt::Retryable(None)
}

/// Fatal errors fail the query; everything else earns a retry. A
/// shard-side overload rejection (shed or rate-limited) attaches its
/// `retry_after_ms` hint so the retry sleeps what the shard asked
/// for, not the generic schedule.
fn classify<T>(err: RemoteError) -> Attempt<T> {
    use ServeError as S;
    match &err {
        RemoteError::Serve(S::InvalidQuery(_))
        | RemoteError::Serve(S::QueryTooLarge { .. })
        | RemoteError::Serve(S::CostTooHigh { .. })
        | RemoteError::Serve(S::BudgetExceeded { .. })
        | RemoteError::Serve(S::EngineUnavailable { .. })
        | RemoteError::Serve(S::DeadlineExceeded)
        // A rejected resume token means the caller's cursor state does
        // not describe this query; replaying the same token elsewhere
        // cannot succeed either.
        | RemoteError::BadResumeToken => Attempt::Fatal(err),
        RemoteError::Serve(S::QueueFull { .. }) | RemoteError::Serve(S::RateLimited { .. }) => {
            Attempt::Retryable(err.retry_after_ms())
        }
        // A draining peer *announced* its departure: force the breaker
        // open instead of burning strikes (and retries) discovering it.
        RemoteError::Draining => Attempt::Draining,
        RemoteError::Serve(S::ShutDown)
        | RemoteError::Serve(S::WorkerPanicked)
        | RemoteError::WrongShard { .. }
        | RemoteError::Unavailable => Attempt::Retryable(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_splits_fatal_from_retryable() {
        assert!(matches!(
            classify::<()>(RemoteError::Serve(ServeError::DeadlineExceeded)),
            Attempt::Fatal(_)
        ));
        assert!(matches!(
            classify::<()>(RemoteError::Serve(ServeError::QueryTooLarge {
                len: 2,
                limit: 1
            })),
            Attempt::Fatal(_)
        ));
        assert!(
            matches!(
                classify::<()>(RemoteError::BadResumeToken),
                Attempt::Fatal(_)
            ),
            "a rejected resume token cannot be fixed by retrying"
        );
        for retryable in [
            RemoteError::Serve(ServeError::ShutDown),
            RemoteError::Serve(ServeError::WorkerPanicked),
            RemoteError::WrongShard { got: 0, want: 1 },
            RemoteError::Unavailable,
        ] {
            assert!(matches!(
                classify::<()>(retryable),
                Attempt::Retryable(None)
            ));
        }
        // An announced departure is its own class: the breaker is
        // force-opened instead of accumulating strikes.
        assert!(matches!(
            classify::<()>(RemoteError::Draining),
            Attempt::Draining
        ));
    }

    /// Overload rejections retry with the shard's own backoff hint.
    #[test]
    fn classify_carries_overload_hints() {
        assert!(matches!(
            classify::<()>(RemoteError::Serve(ServeError::QueueFull {
                retry_after_ms: 40
            })),
            Attempt::Retryable(Some(40))
        ));
        assert!(matches!(
            classify::<()>(RemoteError::Serve(ServeError::RateLimited {
                retry_after_ms: 900
            })),
            Attempt::Retryable(Some(900))
        ));
        // A hint-less shed from an old peer still retries.
        assert!(matches!(
            classify::<()>(RemoteError::Serve(ServeError::QueueFull {
                retry_after_ms: 0
            })),
            Attempt::Retryable(Some(0))
        ));
    }

    /// The edge concurrency cap sheds without touching any shard and
    /// releases its slot on every exit path.
    #[test]
    fn tenant_inflight_cap_sheds_at_the_edge() {
        let gw = Gateway::new(GatewayConfig {
            qos: GatewayQos {
                max_inflight: 1,
                rates: HashMap::new(),
            },
            ..GatewayConfig::default()
        });
        // Hold the only slot by hand, then watch a query bounce.
        let gate = gw.inner.tenant_gate("acme");
        gate.inflight.fetch_add(1, Ordering::Relaxed);
        match gw.send(&Request::new(vec![1, 2, 3], 5).with_tenant("acme")) {
            Err(RemoteError::Serve(ServeError::QueueFull { retry_after_ms })) => {
                assert!(retry_after_ms >= 1, "edge shed must carry a hint");
            }
            other => panic!("expected edge shed, got {other:?}"),
        }
        gate.inflight.fetch_sub(1, Ordering::Relaxed);
        // Slot free again: admission passes and the (empty) topology
        // reports Unavailable — past the QoS gate.
        assert!(matches!(
            gw.send(&Request::new(vec![1, 2, 3], 5).with_tenant("acme")),
            Err(RemoteError::Unavailable)
        ));
        assert_eq!(gate.inflight.load(Ordering::Relaxed), 0, "slot released");
        // A different tenant is not affected by acme's slot usage.
        assert!(matches!(
            gw.send(&Request::new(vec![1, 2, 3], 5).with_tenant("other")),
            Err(RemoteError::Unavailable)
        ));
    }

    /// The edge token bucket meters per tenant in query-byte units.
    #[test]
    fn tenant_bucket_rate_limits_at_the_edge() {
        let mut rates = HashMap::new();
        rates.insert("metered".to_string(), RateConfig { rate: 1, burst: 4 });
        let gw = Gateway::new(GatewayConfig {
            qos: GatewayQos {
                max_inflight: 0,
                rates,
            },
            ..GatewayConfig::default()
        });
        // Burst of 4 bytes: one 3-byte query passes the bucket (then
        // fails on the empty topology), the next is rate-limited.
        assert!(matches!(
            gw.send(&Request::new(vec![1, 2, 3], 5).with_tenant("metered")),
            Err(RemoteError::Unavailable)
        ));
        match gw.send(&Request::new(vec![1, 2, 3], 5).with_tenant("metered")) {
            Err(RemoteError::Serve(ServeError::RateLimited { retry_after_ms })) => {
                assert!(retry_after_ms >= 1);
            }
            other => panic!("expected rate limit, got {other:?}"),
        }
        // An unmetered tenant is untouched.
        assert!(matches!(
            gw.send(&Request::new(vec![1, 2, 3], 5).with_tenant("free")),
            Err(RemoteError::Unavailable)
        ));
    }

    #[test]
    fn empty_topology_is_unavailable() {
        let gw = Gateway::new(GatewayConfig::default());
        assert!(matches!(
            gw.query(&[1, 2, 3], 5, None),
            Err(RemoteError::Unavailable)
        ));
    }
}
