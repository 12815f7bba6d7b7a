//! Shard worker: one process owning one database slice.
//!
//! A shard loads the *full* database, deterministically computes its
//! own slice with [`Database::partition`] (so every shard in a
//! topology agrees on the split without coordination), and serves
//! wire-protocol queries against that slice through the in-process
//! [`BatchServer`]. Hits leave with **global** database indices, so
//! the gateway's merge needs no per-shard translation table.
//!
//! Robustness wiring:
//! - a real TCP disconnect while a query is computing cancels the job
//!   with [`CancelReason::ClientDrop`] (observed via a non-blocking
//!   `peek` between reply polls) and charges
//!   `swsimd_net_cancelled_total{reason="client_drop"}`;
//! - with a journal directory configured, every query checkpoints
//!   through [`swsimd_runner::journal`]; a drain or crash mid-query
//!   leaves the fsynced journal on disk and the restarted shard
//!   resumes it instead of recomputing finished chunks;
//! - [`FaultPlan`] reply faults (torn frame, bit flip, delay) fire on
//!   the reply write path, so every client-side defense is testable
//!   against this real server.

use std::collections::VecDeque;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use swsimd_core::{AlignerBuilder, CancelReason, CancelToken, Hit};
use swsimd_matrices::Alphabet;
use swsimd_obs::flight::{ShardTiming, Stage, StageTiming};
use swsimd_obs::trace::{AdoptGuard, Span, TraceCtx};
use swsimd_runner::{
    durable_search, rank_hits, BatchServer, FaultPlan, Fidelity, JournalError, PendingQuery,
    PoolConfig, QueryOutcome, ServeError, ServerClient, ServerConfig,
};
use swsimd_seq::{integrity::crc32, Database};

use crate::conn::{
    lock_ok, peer_gone, Acceptor, InFlight, Inbound, Lifecycle, Service, POLL_STEP,
    STREAM_HEARTBEAT,
};
use crate::metrics::{AbandonReason, NetCancelled, StreamMetrics};
use crate::wire::{ranking_digest, read_msg, Msg, RemoteError};

/// Configuration for one shard worker.
pub struct ShardConfig {
    /// Bind address (`127.0.0.1:0` for an ephemeral test port).
    pub listen: String,
    /// This shard's slice index.
    pub shard_index: u32,
    /// Total slices in the topology.
    pub shard_count: u32,
    /// Batch-server tuning for the slice.
    pub server: ServerConfig,
    /// Checkpoint queries into `<dir>/q<crc>-s<shard>.swjl` journals;
    /// unfinished journals are resumed on the next identical query.
    pub journal_dir: Option<PathBuf>,
    /// How long a drain waits for in-flight queries before cancelling
    /// the stragglers with [`CancelReason::Shutdown`].
    pub drain_timeout: Duration,
    /// Worker threads for journaled (durable) queries.
    pub threads: usize,
    /// Deterministic network faults (reply tears/flips/delays).
    pub fault: FaultPlan,
    /// Start as a warm standby: the slice is loaded and the batch
    /// server is hot, but pongs advertise `draining` and queries are
    /// refused with [`RemoteError::Draining`] until a supervisor sends
    /// [`Msg::Activate`] to promote this replica to live duty.
    pub standby: bool,
    /// Read-timeout backstop on accepted connections: how long a
    /// blocking mid-frame read may stall before the peer is declared
    /// wedged. Streams heartbeat well inside this, so only a truly
    /// silent peer trips it — a slow query no longer can.
    pub idle_timeout: Duration,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self {
            listen: "127.0.0.1:0".into(),
            shard_index: 0,
            shard_count: 1,
            server: ServerConfig::default(),
            journal_dir: None,
            drain_timeout: Duration::from_secs(5),
            threads: 1,
            fault: FaultPlan::default(),
            standby: false,
            idle_timeout: Duration::from_secs(30),
        }
    }
}

type AlignerFactory = Arc<dyn Fn() -> AlignerBuilder + Send + Sync>;

struct ShardShared {
    client: ServerClient,
    shard_index: u32,
    shard_count: u32,
    /// First global index of this shard's slice.
    offset: usize,
    slice_db: Arc<Database>,
    make_aligner: AlignerFactory,
    journal_dir: Option<PathBuf>,
    threads: usize,
    fault: FaultPlan,
    life: Lifecycle,
    standby: AtomicBool,
    cancelled: NetCancelled,
    stream: StreamMetrics,
    /// Parent token for journaled queries (the batch server governs
    /// its own jobs).
    shard_cancel: CancelToken,
    server: Mutex<Option<BatchServer>>,
}

/// A running shard worker; dropping it without [`ShardServer::shutdown`]
/// aborts connections without draining.
pub struct ShardServer {
    shared: Arc<ShardShared>,
    addr: SocketAddr,
    acceptor: Acceptor,
    drain_timeout: Duration,
}

impl ShardServer {
    /// Load the slice, start the batch server, and begin accepting.
    ///
    /// `db` is the **full** database; the served slice is
    /// `db.partition(shard_count)[shard_index]` (empty when the
    /// partitioner produced fewer ranges than shards).
    pub fn start<F>(
        db: &Database,
        alphabet: &Alphabet,
        cfg: ShardConfig,
        make_aligner: F,
    ) -> std::io::Result<ShardServer>
    where
        F: Fn() -> AlignerBuilder + Send + Sync + 'static,
    {
        let ranges = db.partition(cfg.shard_count.max(1) as usize);
        let range = ranges
            .get(cfg.shard_index as usize)
            .cloned()
            .unwrap_or(0..0);
        let offset = range.start;
        let records = range.clone().map(|i| db.record(i).clone()).collect();
        let slice_db = Arc::new(Database::from_records(records, alphabet));

        let make_aligner: AlignerFactory = Arc::new(make_aligner);
        let factory = Arc::clone(&make_aligner);
        let server = BatchServer::try_start(Arc::clone(&slice_db), cfg.server, move || factory())
            .map_err(std::io::Error::other)?;
        if let Some(dir) = &cfg.journal_dir {
            std::fs::create_dir_all(dir)?;
        }

        // SO_REUSEADDR: a supervised respawn must rebind this exact
        // port even while the dead process's socket sits in TIME_WAIT.
        let listener = crate::listen::bind_reuse(&cfg.listen)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let shared = Arc::new(ShardShared {
            client: server.client(),
            shard_index: cfg.shard_index,
            shard_count: cfg.shard_count,
            offset,
            slice_db,
            make_aligner,
            journal_dir: cfg.journal_dir,
            threads: cfg.threads.max(1),
            fault: cfg.fault,
            life: Lifecycle::default(),
            standby: AtomicBool::new(cfg.standby),
            cancelled: NetCancelled::new(),
            stream: StreamMetrics::new(),
            shard_cancel: CancelToken::new(),
            server: Mutex::new(Some(server)),
        });
        let acceptor = Acceptor::spawn(listener, Arc::clone(&shared), cfg.idle_timeout, "shard");

        Ok(ShardServer {
            shared,
            addr,
            acceptor,
            drain_timeout: cfg.drain_timeout,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// True once a drain has been requested (locally or by a
    /// [`Msg::Drain`] frame).
    pub fn is_draining(&self) -> bool {
        self.shared.life.draining()
    }

    /// True while this replica is a warm standby awaiting promotion.
    pub fn is_standby(&self) -> bool {
        self.shared.standby.load(Ordering::Acquire)
    }

    /// Promote a warm standby to live duty (the in-process equivalent
    /// of a [`Msg::Activate`] frame). Returns true when this call did
    /// the promotion.
    pub fn activate(&self) -> bool {
        self.shared.standby.swap(false, Ordering::AcqRel)
    }

    /// Queries currently computing.
    pub fn in_flight(&self) -> usize {
        self.shared.life.in_flight.load(Ordering::Acquire)
    }

    /// Begin refusing new queries (health probes still answer).
    pub fn drain(&self) {
        self.shared.life.draining.store(true, Ordering::Release);
    }

    /// Drain, wait up to the configured drain timeout for in-flight
    /// queries, cancel stragglers with [`CancelReason::Shutdown`], and
    /// stop. Journals of cancelled queries stay on disk for resume.
    /// Returns true when every in-flight query finished in time.
    pub fn shutdown(mut self) -> bool {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> bool {
        let clean = self.shared.life.drain_and_stop(self.drain_timeout);
        self.shared.shard_cancel.cancel(CancelReason::Shutdown);
        self.acceptor.join();
        if let Some(server) = lock_ok(&self.shared.server).take() {
            server.shutdown();
        }
        clean
    }
}

impl Drop for ShardServer {
    fn drop(&mut self) {
        if self.acceptor.is_running() {
            self.shutdown_inner();
        }
    }
}

impl Service for ShardShared {
    fn life(&self) -> &Lifecycle {
        &self.life
    }

    fn pong_id(&self) -> u32 {
        self.shard_index
    }

    /// A standby advertises `draining` so gateways keep it unrouted
    /// until the supervisor promotes it.
    fn advertises_draining(&self) -> bool {
        self.life.draining() || self.standby.load(Ordering::Acquire)
    }

    fn activate(&self) {
        if self.standby.swap(false, Ordering::AcqRel) {
            swsimd_obs::event!("standby_activated", "shard" => self.shard_index);
        }
    }

    /// Write `msg`, applying any armed reply faults.
    fn write(&self, stream: &mut TcpStream, msg: &Msg) -> bool {
        if let Some(d) = self.fault.reply_delay(self.shard_index as usize) {
            std::thread::sleep(d);
        }
        let mut framed = crate::wire::frame(&msg.encode());
        match self.fault.reply_fault(self.shard_index as usize) {
            swsimd_runner::ReplyFault::Torn => {
                let keep = framed.len() / 2;
                let _ = stream.write_all(&framed[..keep]);
                let _ = stream.flush();
                let _ = stream.shutdown(std::net::Shutdown::Both);
                return false;
            }
            swsimd_runner::ReplyFault::BitFlip => {
                // Flip a payload byte: the length prefix stays honest, so
                // the client reads a whole frame and the CRC catches it.
                let idx = 4 + (framed.len() - 8) / 2;
                framed[idx] ^= 0x20;
            }
            swsimd_runner::ReplyFault::None => {}
        }
        stream
            .write_all(&framed)
            .and_then(|_| stream.flush())
            .is_ok()
    }

    /// Answer with exactly one [`Msg::Hits`] carrying the shard's
    /// [`ShardTiming`], or one [`Msg::Error`].
    fn query(self: &Arc<Self>, stream: &mut TcpStream, q: Inbound) -> bool {
        let id = q.id;
        let top_k = q.req.top_k;
        let mut admitted = match self.admit(q, "shard_query") {
            Ok(a) => a,
            Err(err) => return self.write(stream, &Msg::Error { id, err }),
        };
        let result = loop {
            if let Some(Ev::Done(r)) = admitted.waiter.next(POLL_STEP) {
                break r;
            }
            if peer_gone(stream) {
                // The real socket disconnect IS the cancellation signal.
                admitted.waiter.cancel(CancelReason::ClientDrop);
                self.cancelled.record(CancelReason::ClientDrop);
                swsimd_obs::event!("net_client_drop", "id" => id);
                return false;
            }
            if self.life.stopping() {
                admitted.waiter.cancel(CancelReason::Shutdown);
                self.cancelled.record(CancelReason::Shutdown);
                return self.write(stream, &serve_error(id, ServeError::ShutDown));
            }
        };
        let reply = match result {
            Ok(outcome) => {
                let hits = self.globalize(outcome.hits, top_k);
                let span = &mut admitted.span;
                span.record("engine", outcome.engine);
                span.record("retries", outcome.retries as u64);
                // Per-shard timing summary rides back on the reply so the
                // gateway can stitch a complete stage breakdown without a
                // second round trip (rtt_ns is filled in by the gateway,
                // which is the only side that can observe it).
                let timing = ShardTiming {
                    shard: self.shard_index,
                    root_span: span.id(),
                    engine: outcome.engine.to_string(),
                    rtt_ns: 0,
                    stages: vec![
                        StageTiming {
                            stage: Stage::Queue,
                            ns: outcome.queue_ns,
                        },
                        StageTiming {
                            stage: Stage::Kernel,
                            ns: outcome.compute_ns,
                        },
                    ],
                };
                Msg::Hits {
                    id,
                    degraded: false,
                    missing_shards: Vec::new(),
                    hits,
                    trace_id: admitted.trace_id,
                    timing: Some(timing),
                    fidelity: outcome.fidelity,
                }
            }
            Err(e) => self.failed(id, e),
        };
        self.write(stream, &reply)
    }

    /// Stream checkpoint chunks under the peer's credit window, then
    /// [`Msg::Fin`]. Without a journal there are no checkpoint
    /// boundaries to align to, so the batch server's answer streams
    /// degenerately as one chunk plus `Fin`.
    fn stream(
        self: &Arc<Self>,
        stream: &mut TcpStream,
        q: Inbound,
        credit: u32,
        resume_cursor: u64,
    ) -> bool {
        let id = q.id;
        let top_k = q.req.top_k;
        let deadline = q.req.deadline;
        let query_len = q.req.query.len() as u64;
        let mut admitted = match self.admit(q, "shard_stream") {
            Ok(a) => a,
            Err(err) => return self.write(stream, &Msg::Error { id, err }),
        };
        // Cost accounting for Progress frames: exact per-chunk cell counts
        // from the same deterministic partition the journal uses.
        let cells_total = self.slice_db.total_residues() as u64 * query_len;
        let chunk_cells: Vec<u64> = self
            .slice_db
            .partition(self.threads)
            .iter()
            .map(|r| {
                r.clone()
                    .map(|i| self.slice_db.record(i).len() as u64)
                    .sum::<u64>()
                    * query_len
            })
            .collect();
        admitted.span.record("cursor", resume_cursor);
        if resume_cursor > 0 {
            // A non-zero cursor is a reconnect continuing from durable
            // state — the stream-resume event the soak test asserts on.
            self.stream.resumes.inc();
            swsimd_obs::event!("stream_resume", "shard" => self.shard_index, "cursor" => resume_cursor);
        }
        let waiter = &admitted.waiter;
        let durable = matches!(waiter, Waiter::Durable { .. });

        let mut queued: VecDeque<(u64, Vec<Hit>)> = VecDeque::new();
        let mut done: Option<Result<QueryOutcome, ServeError>> = None;
        let mut credit_left = u64::from(credit);
        let mut stall_counted = false;
        let mut cells_done: u64 = 0;
        let mut last_write = Instant::now();
        let mut sent_chunks: u64 = 0;
        let abandon = |reason: AbandonReason, cancel: Option<CancelReason>| {
            if let Some(r) = cancel {
                waiter.cancel(r);
                self.cancelled.record(r);
            }
            self.stream.abandon(reason);
            swsimd_obs::event!("stream_abandoned", "id" => id, "reason" => reason.as_str());
        };

        loop {
            // 1. Absorb worker events (both paths park for POLL_STEP here).
            if done.is_none() {
                match waiter.next(POLL_STEP) {
                    Some(Ev::Chunk(c, hits)) => queued.push_back((c, hits)),
                    Some(Ev::Done(r)) => {
                        done = Some(r.map(|mut outcome| {
                            outcome.hits = self.globalize(outcome.hits, top_k);
                            if !durable {
                                cells_done = cells_total;
                                queued.push_back((1, outcome.hits.clone()));
                            }
                            outcome
                        }));
                    }
                    None => {}
                }
            } else {
                std::thread::sleep(POLL_STEP);
            }

            // 2. Drain Credit frames the peer pushed (the only frames a
            // stream client legally sends mid-stream).
            if crate::conn::frame_ready(stream) {
                match read_msg(stream) {
                    Ok(Msg::Credit { id: cid, credits }) if cid == id => {
                        credit_left += u64::from(credits);
                        stall_counted = false;
                    }
                    Ok(_) | Err(_) => {
                        // Protocol violation or torn frame mid-stream: the
                        // connection state is unrecoverable.
                        abandon(AbandonReason::Error, Some(CancelReason::ClientDrop));
                        return false;
                    }
                }
            }

            // 3. Liveness, shutdown, and deadline checks.
            if peer_gone(stream) {
                // The journal stays on disk: this stream is resumable.
                abandon(AbandonReason::ClientDrop, Some(CancelReason::ClientDrop));
                return false;
            }
            if self.life.stopping() {
                abandon(AbandonReason::Shutdown, Some(CancelReason::Shutdown));
                let _ = self.write(stream, &serve_error(id, ServeError::ShutDown));
                return false;
            }
            if deadline.is_some_and(|d| Instant::now() > d) && done.is_none() {
                waiter.cancel(CancelReason::Deadline);
            }

            // 4. Deliver ready chunks while the credit window allows.
            while let Some((c, _)) = queued.front() {
                if *c <= resume_cursor {
                    // Already delivered before the interruption.
                    queued.pop_front();
                    continue;
                }
                if credit_left == 0 {
                    if !stall_counted {
                        self.stream.credit_stalls.inc();
                        stall_counted = true;
                    }
                    break;
                }
                let (c, hits) = queued.pop_front().expect("front checked");
                let chunk = Msg::StreamChunk {
                    id,
                    shard: self.shard_index,
                    cursor: c,
                    hits,
                };
                if !self.write(stream, &chunk) {
                    abandon(AbandonReason::ClientDrop, Some(CancelReason::ClientDrop));
                    return false;
                }
                self.stream.chunks.inc();
                sent_chunks += 1;
                credit_left -= 1;
                if durable {
                    cells_done += chunk_cells.get((c - 1) as usize).copied().unwrap_or(0);
                }
                last_write = Instant::now();
            }

            // 5. Heartbeat when nothing else proved liveness recently.
            if last_write.elapsed() >= STREAM_HEARTBEAT {
                let beat = Msg::Progress {
                    id,
                    cells_done,
                    cells_total,
                };
                if !self.write(stream, &beat) {
                    abandon(AbandonReason::ClientDrop, Some(CancelReason::ClientDrop));
                    return false;
                }
                last_write = Instant::now();
            }

            // 6. Everything delivered and the worker is done: finish.
            if queued.is_empty() {
                let Some(result) = done.take() else {
                    continue;
                };
                let reply = match result {
                    Ok(outcome) => {
                        admitted.span.record("engine", outcome.engine);
                        admitted.span.record("chunks", sent_chunks);
                        Msg::Fin {
                            id,
                            digest: ranking_digest(&outcome.hits),
                            degraded: false,
                            missing_shards: Vec::new(),
                            trace_id: admitted.trace_id,
                            fidelity: outcome.fidelity,
                        }
                    }
                    Err(e) => {
                        self.stream.abandon(AbandonReason::Error);
                        self.failed(id, e)
                    }
                };
                return self.write(stream, &reply);
            }
        }
    }
}

/// A typed serving failure as a reply frame.
fn serve_error(id: u64, e: ServeError) -> Msg {
    Msg::Error {
        id,
        err: RemoteError::Serve(e),
    }
}

/// One admitted query: its compute waiter plus the request context the
/// reply needs. Fields drop in declaration order, so the shard span
/// closes under the adopted trace before the drain slot frees.
struct Admitted<'a> {
    span: Span,
    waiter: Waiter,
    trace_id: u64,
    _adopt: AdoptGuard,
    _in_flight: InFlight<'a>,
}

/// Worker → connection events for one query. The durable worker sends
/// every chunk before `Done`, and mpsc preserves per-sender order, so
/// the connection thread has seen all chunks once it sees `Done`.
enum Ev {
    /// `(cursor, globalized top-k hits)` for one journal chunk.
    Chunk(u64, Vec<Hit>),
    Done(Result<QueryOutcome, ServeError>),
}

/// Either compute path behind one admitted query, awaited in steps.
enum Waiter {
    /// A journaled pool search on a worker thread.
    Durable {
        rx: mpsc::Receiver<Ev>,
        token: CancelToken,
    },
    /// The in-process batch server.
    Server(PendingQuery),
}

impl Waiter {
    /// The next event within `step`, if any.
    fn next(&self, step: Duration) -> Option<Ev> {
        match self {
            Waiter::Durable { rx, .. } => match rx.recv_timeout(step) {
                Ok(ev) => Some(ev),
                Err(mpsc::RecvTimeoutError::Timeout) => None,
                // The worker died without reporting an outcome.
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    Some(Ev::Done(Err(ServeError::WorkerPanicked)))
                }
            },
            Waiter::Server(p) => p.poll(step).map(Ev::Done),
        }
    }

    fn cancel(&self, reason: CancelReason) {
        match self {
            Waiter::Durable { token, .. } => {
                token.cancel(reason);
            }
            Waiter::Server(p) => {
                p.cancel(reason);
            }
        }
    }
}

impl ShardShared {
    /// Admission shared by the unary and streaming paths: refuse while
    /// draining or standby and when mis-addressed; otherwise enter the
    /// drain accounting, adopt the trace context that crossed the wire
    /// (so this shard's span tree parents under the gateway's request
    /// span), open the shard span, and submit to the compute path —
    /// journaled when a journal directory is configured, else the
    /// batch server. `Err` is the refusal to reply with instead.
    fn admit(
        self: &Arc<Self>,
        q: Inbound,
        span_name: &'static str,
    ) -> Result<Admitted<'_>, RemoteError> {
        let Inbound {
            id,
            slice_index,
            slice_count,
            mut req,
        } = q;
        if self.life.draining() || self.standby.load(Ordering::Acquire) {
            return Err(RemoteError::Draining);
        }
        // slice_count 0 = direct whole-slice query (tests, single-shard
        // clients); anything else must match this shard's coordinates.
        if slice_count != 0 && (slice_count != self.shard_count || slice_index != self.shard_index)
        {
            return Err(RemoteError::WrongShard {
                got: slice_index,
                want: self.shard_index,
            });
        }
        let in_flight = self.life.enter();
        let trace = req.trace;
        let adopt = swsimd_obs::adopt(trace);
        let span = swsimd_obs::span!(span_name, "shard" => self.shard_index, "id" => id);
        req.trace = TraceCtx {
            trace_id: trace.trace_id,
            span_id: if span.id() != 0 {
                span.id()
            } else {
                trace.span_id
            },
        };
        let waiter = if self.journal_dir.is_some() {
            durable_stream_submit(self, req)
        } else {
            Waiter::Server(self.client.send(req).map_err(RemoteError::Serve)?)
        };
        Ok(Admitted {
            span,
            waiter,
            trace_id: trace.trace_id,
            _adopt: adopt,
            _in_flight: in_flight,
        })
    }

    /// Slice-local → global indices, ranked within the slice.
    fn globalize(&self, mut hits: Vec<Hit>, top_k: usize) -> Vec<Hit> {
        for h in &mut hits {
            h.db_index += self.offset;
        }
        rank_hits(hits, top_k)
    }

    /// The reply for a failed query; a blown deadline also counts as a
    /// deadline cancellation.
    fn failed(&self, id: u64, e: ServeError) -> Msg {
        if e == ServeError::DeadlineExceeded {
            self.cancelled.record(CancelReason::Deadline);
        }
        serve_error(id, e)
    }
}

/// Submit on the durable (journaled) path: the worker runs
/// [`durable_search`] (resuming an existing journal first) and
/// forwards every checkpoint chunk — globalized and top-k ranked —
/// before the final outcome. The journal file is deleted only after
/// the outcome is computed, so any interruption leaves a resumable
/// checkpoint.
fn durable_stream_submit(shared: &Arc<ShardShared>, req: swsimd_runner::Request) -> Waiter {
    let token = shared.shard_cancel.child_with_deadline(req.deadline);
    let (tx, rx) = mpsc::channel();
    let worker_token = token.clone();
    let shared = Arc::clone(shared);
    std::thread::spawn(move || {
        // Adopt on the worker thread: pool spans parent under the
        // shard's request span even across this thread hop.
        let _adopt = swsimd_obs::adopt(req.trace);
        let started = Instant::now();
        let chunk_tx = tx.clone();
        let result = durable_compute(&shared, &req.query, worker_token, &mut |chunk, hits| {
            // Rank inside the observer so only `top_k` hits per chunk
            // cross the channel: the full per-chunk hit list is
            // journal state, not stream payload.
            let hits = shared.globalize(hits.to_vec(), req.top_k);
            let _ = chunk_tx.send(Ev::Chunk(chunk as u64 + 1, hits));
        });
        let compute_ns = started.elapsed().as_nanos() as u64;
        let _ = tx.send(Ev::Done(result.map(|hits| QueryOutcome {
            hits,
            queue_ns: 0,
            compute_ns,
            engine: "pool",
            retries: 0,
            fidelity: Fidelity::Full,
        })));
    });
    Waiter::Durable { rx, token }
}

fn durable_compute(
    shared: &ShardShared,
    query: &[u8],
    token: CancelToken,
    on_chunk: &mut dyn FnMut(usize, &[Hit]),
) -> Result<Vec<Hit>, ServeError> {
    swsimd_core::validate_encoded(query).map_err(ServeError::InvalidQuery)?;
    let dir = shared.journal_dir.as_ref().expect("durable path");
    let path = dir.join(format!(
        "q{:08x}-s{}.swjl",
        crc32(query),
        shared.shard_index
    ));
    let cfg = PoolConfig {
        threads: shared.threads,
        cancel: Some(token.clone()),
        fault_plan: shared.fault.clone(),
        ..PoolConfig::default()
    };
    let factory = &shared.make_aligner;
    let mut run = || {
        durable_search(
            &path,
            query,
            &shared.slice_db,
            &cfg,
            || factory(),
            &mut *on_chunk,
        )
    };
    let result = match run() {
        // A journal this search cannot use (another query's, a
        // changed database, a damaged identity): start over.
        Err(e) if !matches!(e, JournalError::Io(_)) => {
            let _ = std::fs::remove_file(&path);
            run()
        }
        result => result,
    };
    match result {
        Ok((out, resumed)) => {
            if resumed.is_some() {
                if let Some(server) = lock_ok(&shared.server).as_ref() {
                    server.note_journal_replay();
                }
            }
            Ok(out.hits)
        }
        // Interrupted (cancel, crash fault, or real I/O error): the
        // journal keeps every checkpointed chunk, so a crash-looping
        // shard makes monotone progress across respawns. Surface the
        // typed cause.
        Err(_) => Err(match token.reason() {
            Some(CancelReason::Deadline) => ServeError::DeadlineExceeded,
            Some(_) => ServeError::ShutDown,
            None => ServeError::WorkerPanicked,
        }),
    }
}
