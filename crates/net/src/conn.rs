//! Connection plumbing shared by the shard worker and the gateway
//! front door: the accept loop, the idle wait between request frames,
//! drain accounting, and the replies to every control frame (`Ping`,
//! `Drain`, `Activate`, `MetricsRequest`, `TraceRequest`,
//! `SlowlogRequest`, `FlightJsonRequest`). Each server supplies only
//! its query, stream and resume handlers through [`Service`].

use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use swsimd_runner::Request;

use crate::wire::{read_msg, write_msg, Msg, StreamToken};

/// How often an idle connection, a blocked reply poll or a drain wait
/// re-checks peer liveness and the stop flags.
pub(crate) const POLL_STEP: Duration = Duration::from_millis(5);

/// Accept-loop poll period for the stop flag.
const ACCEPT_STEP: Duration = Duration::from_millis(10);

/// How often a streaming connection proves liveness with a
/// [`Msg::Progress`] frame when nothing else went out. Receivers treat
/// any stream frame as activity, so their idle timeout only fires
/// after several missed heartbeats — "slow but alive" stays alive.
pub(crate) const STREAM_HEARTBEAT: Duration = Duration::from_millis(250);

/// Mutex lock that shrugs off poisoning (connection threads may panic
/// on injected faults without wedging shutdown).
pub(crate) fn lock_ok<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// True when the peer has disconnected (a liveness check between
/// reply polls; never blocks).
pub(crate) fn peer_gone(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return true;
    }
    let mut probe = [0u8; 1];
    let gone = match stream.peek(&mut probe) {
        Ok(0) => true,
        Ok(_) => false,
        Err(e)
            if e.kind() == std::io::ErrorKind::WouldBlock
                || e.kind() == std::io::ErrorKind::TimedOut =>
        {
            false
        }
        Err(_) => true,
    };
    let _ = stream.set_nonblocking(false);
    gone
}

/// Nonblocking "is a frame waiting" probe.
pub(crate) fn frame_ready(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return false;
    }
    let mut probe = [0u8; 1];
    let ready = matches!(stream.peek(&mut probe), Ok(n) if n > 0);
    let _ = stream.set_nonblocking(false);
    ready
}

/// Drain and stop state every listener keeps.
#[derive(Default)]
pub(crate) struct Lifecycle {
    /// Refusing new queries (health and metrics frames still answer).
    pub draining: AtomicBool,
    /// Connections close at their next poll.
    pub stopping: AtomicBool,
    /// Queries currently admitted.
    pub in_flight: AtomicUsize,
}

impl Lifecycle {
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    pub fn stopping(&self) -> bool {
        self.stopping.load(Ordering::Acquire)
    }

    /// Count one admitted query until the guard drops.
    pub fn enter(&self) -> InFlight<'_> {
        self.in_flight.fetch_add(1, Ordering::AcqRel);
        InFlight(&self.in_flight)
    }

    /// Begin refusing queries, wait up to `timeout` for the in-flight
    /// ones, then flag every connection to stop. Returns true when
    /// every in-flight query finished in time.
    pub fn drain_and_stop(&self, timeout: Duration) -> bool {
        self.draining.store(true, Ordering::Release);
        let deadline = Instant::now() + timeout;
        while self.in_flight.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
            std::thread::sleep(POLL_STEP);
        }
        let clean = self.in_flight.load(Ordering::Acquire) == 0;
        self.stopping.store(true, Ordering::Release);
        clean
    }
}

/// Tracks one in-flight query for drain accounting.
pub(crate) struct InFlight<'a>(&'a AtomicUsize);

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// One request frame (`Query`, `StreamQuery` or `Resume`) as a
/// server's handler receives it: the wire id, the slice it was
/// addressed to (`slice_count` 0 = "route for me"), and the request
/// with its relative wire deadline made absolute on arrival.
pub(crate) struct Inbound {
    pub id: u64,
    pub slice_index: u32,
    pub slice_count: u32,
    pub req: Request,
}

/// What a server plugs into the shared connection loop. Handlers
/// return false when the connection must close (peer gone, protocol
/// violation, or an injected tear).
pub(crate) trait Service: Send + Sync + 'static {
    fn life(&self) -> &Lifecycle;

    /// Shard id reported in [`Msg::Pong`].
    fn pong_id(&self) -> u32;

    /// Whether a [`Msg::Ping`] answer advertises `draining`.
    fn advertises_draining(&self) -> bool {
        self.life().draining()
    }

    /// Handle [`Msg::Activate`] (promote a warm standby).
    fn activate(&self) {}

    /// Write one reply frame.
    fn write(&self, stream: &mut TcpStream, msg: &Msg) -> bool {
        write_msg(stream, msg).is_ok()
    }

    /// Answer a unary [`Msg::Query`].
    fn query(self: &Arc<Self>, stream: &mut TcpStream, q: Inbound) -> bool;

    /// Serve a [`Msg::StreamQuery`] to its end.
    fn stream(
        self: &Arc<Self>,
        stream: &mut TcpStream,
        q: Inbound,
        credit: u32,
        cursor: u64,
    ) -> bool;

    /// Serve a [`Msg::Resume`]. Servers that do not resume streams
    /// close the connection.
    fn resume(
        self: &Arc<Self>,
        _stream: &mut TcpStream,
        _q: Inbound,
        _credit: u32,
        _token: StreamToken,
    ) -> bool {
        false
    }
}

/// A listener's accept thread plus every connection thread it spawned.
pub(crate) struct Acceptor {
    thread: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Acceptor {
    /// Accept on `listener` (already nonblocking) until the service's
    /// stop flag is set, serving each connection on its own thread.
    pub fn spawn<S: Service>(
        listener: TcpListener,
        service: Arc<S>,
        idle_timeout: Duration,
        site: &'static str,
    ) -> Acceptor {
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::default();
        let accept_conns = Arc::clone(&conns);
        let thread = std::thread::spawn(move || {
            accept_loop(listener, service, &accept_conns, idle_timeout, site);
        });
        Acceptor {
            thread: Some(thread),
            conns,
        }
    }

    /// True until [`Acceptor::join`] has run.
    pub fn is_running(&self) -> bool {
        self.thread.is_some()
    }

    /// Join the accept thread and every connection thread; call after
    /// the service's stop flag is set.
    pub fn join(&mut self) {
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        let conns = std::mem::take(&mut *lock_ok(&self.conns));
        for c in conns {
            let _ = c.join();
        }
    }
}

fn accept_loop<S: Service>(
    listener: TcpListener,
    service: Arc<S>,
    conns: &Mutex<Vec<JoinHandle<()>>>,
    idle_timeout: Duration,
    site: &'static str,
) {
    while !service.life().stopping() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let service = Arc::clone(&service);
                let handle = std::thread::spawn(move || {
                    serve_conn(stream, service, idle_timeout, site);
                });
                let mut conns = lock_ok(conns);
                // Release exited connection threads as new ones arrive:
                // an unjoined thread keeps its stack mapped, so a
                // long-lived server would otherwise hold one stack per
                // connection it ever served.
                conns.retain(|h| !h.is_finished());
                conns.push(handle);
            }
            Err(_) => std::thread::sleep(ACCEPT_STEP),
        }
    }
}

fn serve_conn<S: Service>(
    mut stream: TcpStream,
    service: Arc<S>,
    idle_timeout: Duration,
    site: &'static str,
) {
    // Backstop so a wedged peer cannot pin this thread forever; the
    // idle wait below uses non-blocking peeks, so this only bounds
    // mid-frame stalls (streams heartbeat well inside it).
    crate::listen::apply_socket_opts(&stream, Some(idle_timeout), site);
    loop {
        // Idle wait: watch for the first byte of a frame without
        // committing to a blocking read, so stop/drain flags stay
        // responsive.
        loop {
            if service.life().stopping() || peer_gone(&stream) {
                return;
            }
            if frame_ready(&stream) {
                break;
            }
            std::thread::sleep(POLL_STEP);
        }
        // EOF, or a torn/corrupt request: drop the connection.
        let Ok(msg) = read_msg(&mut stream) else {
            return;
        };
        let pong = |nonce, draining| Msg::Pong {
            nonce,
            shard: service.pong_id(),
            draining,
        };
        let inbound = |id, slice_index, slice_count, req| Inbound {
            id,
            slice_index,
            slice_count,
            req,
        };
        let keep = match msg {
            Msg::Ping { nonce } => {
                service.write(&mut stream, &pong(nonce, service.advertises_draining()))
            }
            Msg::Activate => {
                service.activate();
                service.write(&mut stream, &pong(0, service.life().draining()))
            }
            Msg::Drain => {
                service.life().draining.store(true, Ordering::Release);
                service.write(&mut stream, &pong(0, true))
            }
            Msg::MetricsRequest => {
                let text = swsimd_obs::global().prometheus_text().into_bytes();
                service.write(&mut stream, &Msg::MetricsText { text })
            }
            Msg::TraceRequest { trace_id } => {
                let records = swsimd_obs::flight::global()
                    .lookup(trace_id)
                    .into_iter()
                    .collect();
                service.write(&mut stream, &Msg::FlightRecords { records })
            }
            Msg::SlowlogRequest { limit } => {
                let records = swsimd_obs::flight::global().slowlog(flight_limit(limit));
                service.write(&mut stream, &Msg::FlightRecords { records })
            }
            Msg::FlightJsonRequest {
                trace_id,
                limit,
                slow_only,
            } => {
                let text = flight_json(trace_id, limit, slow_only).into_bytes();
                service.write(&mut stream, &Msg::FlightJson { text })
            }
            Msg::Query {
                id,
                top_k,
                deadline_ms,
                slice_index,
                slice_count,
                query,
                trace,
                tenant,
            } => {
                let req = request(query, top_k, tenant, deadline_ms, trace);
                service.query(&mut stream, inbound(id, slice_index, slice_count, req))
            }
            Msg::StreamQuery {
                id,
                top_k,
                deadline_ms,
                slice_index,
                slice_count,
                credit,
                cursor,
                query,
                trace,
                tenant,
            } => {
                let req = request(query, top_k, tenant, deadline_ms, trace);
                let q = inbound(id, slice_index, slice_count, req);
                service.stream(&mut stream, q, credit, cursor)
            }
            Msg::Resume {
                id,
                deadline_ms,
                credit,
                token,
                query,
                trace,
                tenant,
            } => {
                // The resumed merge must run at the original depth or
                // the Fin digest would describe a different ranking
                // than the one the client assembled.
                let req = request(query, token.top_k, tenant, deadline_ms, trace);
                service.resume(&mut stream, inbound(id, 0, 0, req), credit, token)
            }
            // Reply kinds, and mid-stream frames outside a stream, have
            // no meaning as requests: close.
            Msg::Hits { .. }
            | Msg::Error { .. }
            | Msg::Pong { .. }
            | Msg::MetricsText { .. }
            | Msg::FlightRecords { .. }
            | Msg::FlightJson { .. }
            | Msg::StreamChunk { .. }
            | Msg::Progress { .. }
            | Msg::Credit { .. }
            | Msg::Fin { .. } => false,
        };
        if !keep {
            return;
        }
    }
}

/// A request frame's fields as a [`Request`]; the relative wire
/// deadline (`0` = none) becomes absolute now.
fn request(
    query: Vec<u8>,
    top_k: u32,
    tenant: String,
    deadline_ms: u32,
    trace: swsimd_obs::trace::TraceCtx,
) -> Request {
    Request {
        query,
        top_k: top_k as usize,
        tenant,
        deadline: (deadline_ms > 0)
            .then(|| Instant::now() + Duration::from_millis(u64::from(deadline_ms))),
        trace,
    }
}

/// Flight-recorder list limit: 0 on the wire means "server default".
fn flight_limit(limit: u32) -> usize {
    if limit == 0 {
        32
    } else {
        limit as usize
    }
}

/// Render a [`Msg::FlightJsonRequest`] against the process-global
/// flight recorder: one record (or `null`) in single-trace mode, a
/// JSON array in list mode.
fn flight_json(trace_id: u64, limit: u32, slow_only: bool) -> String {
    let recorder = swsimd_obs::flight::global();
    if trace_id != 0 {
        return match recorder.lookup(trace_id) {
            Some(rec) => rec.to_json(),
            None => "null".into(),
        };
    }
    let n = flight_limit(limit);
    if slow_only {
        recorder.slowlog_json(n)
    } else {
        recorder.recent_json(n)
    }
}
