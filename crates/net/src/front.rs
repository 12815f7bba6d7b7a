//! Gateway front door: a TCP listener speaking the shard protocol,
//! backed by a scatter-gather [`Gateway`].
//!
//! Clients talk to one address; the front door fans each query out
//! across the shard topology and returns the merged (possibly
//! `degraded`) ranking. It answers [`Msg::Ping`] with shard id
//! `u32::MAX` so probes can tell a gateway from a worker, serves the
//! process-global Prometheus scrape over [`Msg::MetricsRequest`], and
//! supports the same drain protocol as shards: once draining, new
//! queries get [`RemoteError::Draining`] while health and metrics
//! frames still answer.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use swsimd_core::{CancelReason, Hit};
use swsimd_seq::integrity::crc32;

use crate::conn::{
    frame_ready, peer_gone, Acceptor, Inbound, Lifecycle, Service, POLL_STEP, STREAM_HEARTBEAT,
};
use crate::gateway::{Gateway, StreamItem};
use crate::metrics::{AbandonReason, NetCancelled, StreamMetrics};
use crate::wire::{ranking_digest, read_msg, write_msg, Msg, RemoteError, StreamToken};

/// Default idle cutoff for a silent peer when none is configured.
const DEFAULT_IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// Shard id a gateway reports in [`Msg::Pong`].
pub const GATEWAY_SHARD_ID: u32 = u32::MAX;

struct FrontShared {
    gateway: Gateway,
    life: Lifecycle,
    cancelled: NetCancelled,
    stream: StreamMetrics,
}

/// A running gateway front door.
pub struct GatewayServer {
    shared: Arc<FrontShared>,
    addr: SocketAddr,
    acceptor: Acceptor,
    drain_timeout: Duration,
}

impl GatewayServer {
    /// Bind `listen` and serve `gateway` until shutdown, with the
    /// default idle timeout.
    pub fn start(
        gateway: Gateway,
        listen: &str,
        drain_timeout: Duration,
    ) -> std::io::Result<GatewayServer> {
        Self::start_with_idle_timeout(gateway, listen, drain_timeout, DEFAULT_IDLE_TIMEOUT)
    }

    /// [`GatewayServer::start`] with an explicit idle timeout — the
    /// read cutoff for a completely silent peer. Streams outlive it
    /// through [`Msg::Progress`] heartbeats; only a dead connection
    /// trips it.
    pub fn start_with_idle_timeout(
        gateway: Gateway,
        listen: &str,
        drain_timeout: Duration,
        idle_timeout: Duration,
    ) -> std::io::Result<GatewayServer> {
        // SO_REUSEADDR so a supervisor-respawned gateway rebinds its
        // published port straight through TIME_WAIT.
        let listener = crate::listen::bind_reuse(listen)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(FrontShared {
            gateway,
            life: Lifecycle::default(),
            cancelled: NetCancelled::new(),
            stream: StreamMetrics::new(),
        });
        let acceptor =
            Acceptor::spawn(listener, Arc::clone(&shared), idle_timeout, "gateway_front");
        Ok(GatewayServer {
            shared,
            addr,
            acceptor,
            drain_timeout,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// True once a drain has been requested.
    pub fn is_draining(&self) -> bool {
        self.shared.life.draining()
    }

    /// Queries currently in flight.
    pub fn in_flight(&self) -> usize {
        self.shared.life.in_flight.load(Ordering::Acquire)
    }

    /// Begin refusing new queries.
    pub fn drain(&self) {
        self.shared.life.draining.store(true, Ordering::Release);
    }

    /// Drain, wait up to the drain timeout for in-flight queries,
    /// then stop. Returns true when every query finished in time.
    pub fn shutdown(mut self) -> bool {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> bool {
        let clean = self.shared.life.drain_and_stop(self.drain_timeout);
        self.acceptor.join();
        clean
    }
}

impl Drop for GatewayServer {
    fn drop(&mut self) {
        if self.acceptor.is_running() {
            self.shutdown_inner();
        }
    }
}

impl Service for FrontShared {
    fn life(&self) -> &Lifecycle {
        &self.life
    }

    fn pong_id(&self) -> u32 {
        GATEWAY_SHARD_ID
    }

    /// Run the scatter-gather on a worker thread while this connection
    /// thread watches for client disconnect; a client that went away
    /// closes the connection without a reply.
    fn query(self: &Arc<Self>, stream: &mut TcpStream, q: Inbound) -> bool {
        let id = q.id;
        if self.life.draining() {
            return write_msg(
                stream,
                &Msg::Error {
                    id,
                    err: RemoteError::Draining,
                },
            )
            .is_ok();
        }
        let _guard = self.life.enter();
        let (tx, rx) = mpsc::channel();
        let gw = self.gateway.clone();
        std::thread::spawn(move || {
            let _ = tx.send(gw.send(&q.req));
        });
        let result = loop {
            match rx.recv_timeout(POLL_STEP) {
                Ok(r) => break r,
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    break Err(RemoteError::Unavailable);
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if peer_gone(stream) {
                        // Stop waiting; shard-side attempts notice the
                        // gateway hang-ups and cancel their own jobs.
                        self.cancelled.record(CancelReason::ClientDrop);
                        swsimd_obs::event!("net_client_drop", "id" => id, "at" => "gateway");
                        return false;
                    }
                    if self.life.stopping() {
                        self.cancelled.record(CancelReason::Shutdown);
                        let err = RemoteError::Serve(swsimd_runner::ServeError::ShutDown);
                        return write_msg(stream, &Msg::Error { id, err }).is_ok();
                    }
                }
            }
        };
        let reply = match result {
            Ok(resp) => Msg::Hits {
                id,
                degraded: resp.degraded,
                missing_shards: resp.missing_shards,
                hits: resp.hits,
                // Hand the trace id back so the client can pull this
                // request's flight record with `swsimd trace <id>`.
                trace_id: resp.trace_id,
                timing: None,
                fidelity: resp.fidelity,
            },
            Err(err) => Msg::Error { id, err },
        };
        write_msg(stream, &reply).is_ok()
    }

    fn stream(self: &Arc<Self>, stream: &mut TcpStream, q: Inbound, credit: u32, _: u64) -> bool {
        self.serve_stream(stream, q, credit, HashMap::new())
    }

    fn resume(
        self: &Arc<Self>,
        stream: &mut TcpStream,
        q: Inbound,
        credit: u32,
        token: StreamToken,
    ) -> bool {
        if token.query_crc != crc32(&q.req.query) {
            // The token binds the query by hash; these bytes are not
            // the query it claims to continue.
            let refusal = Msg::Error {
                id: q.id,
                err: RemoteError::BadResumeToken,
            };
            return write_msg(stream, &refusal).is_ok();
        }
        self.stream.resumes.inc();
        swsimd_obs::event!(
            "stream_resume",
            "id" => q.id,
            "trace_id" => token.trace_id,
            "slices" => token.cursors.len()
        );
        self.serve_stream(stream, q, credit, token.cursors.iter().copied().collect())
    }
}

impl FrontShared {
    /// Serve one streaming query (fresh or resumed) on `stream`.
    /// `delivered` holds the per-slice cursors already delivered to
    /// *this client* (from a resume token); chunks at or below them are
    /// folded into the final digest but not re-sent.
    fn serve_stream(
        &self,
        stream: &mut TcpStream,
        q: Inbound,
        credit: u32,
        mut delivered: HashMap<u32, u64>,
    ) -> bool {
        let id = q.id;
        if self.life.draining() {
            return write_msg(
                stream,
                &Msg::Error {
                    id,
                    err: RemoteError::Draining,
                },
            )
            .is_ok();
        }
        let _guard = self.life.enter();
        // The gateway always re-pulls every slice from cursor 0 — a
        // resume replays cheap durable journal state — so the final merge
        // and Fin digest always cover the whole ranking; `delivered`
        // only gates what is re-sent.
        let mut gs = match self.gateway.stream(&q.req, credit) {
            Ok(gs) => gs,
            Err(err) => return write_msg(stream, &Msg::Error { id, err }).is_ok(),
        };
        let mut client_credit = credit;
        let mut stall_counted = false;
        let mut last_write = Instant::now();
        let mut pending: Option<(u32, u64, Vec<Hit>)> = None;
        let abandon = |reason: AbandonReason| {
            self.stream.abandon(reason);
            swsimd_obs::event!(
                "stream_abandoned",
                "id" => id,
                "at" => "gateway",
                "reason" => reason.as_str()
            );
        };
        loop {
            // 1. Absorb client frames: only Credit grants are legal
            //    mid-stream.
            while frame_ready(stream) {
                match read_msg(stream) {
                    Ok(Msg::Credit { id: cid, credits }) if cid == id => {
                        client_credit = client_credit.saturating_add(credits);
                        stall_counted = false;
                    }
                    _ => {
                        abandon(AbandonReason::Error);
                        return false;
                    }
                }
            }
            // 2. Liveness and shutdown.
            if peer_gone(stream) {
                self.cancelled.record(CancelReason::ClientDrop);
                abandon(AbandonReason::ClientDrop);
                return false;
            }
            if self.life.stopping() {
                self.cancelled.record(CancelReason::Shutdown);
                abandon(AbandonReason::Shutdown);
                let _ = write_msg(
                    stream,
                    &Msg::Error {
                        id,
                        err: RemoteError::Serve(swsimd_runner::ServeError::ShutDown),
                    },
                );
                return false;
            }
            // 3. Pull the next merge item unless one is already waiting
            //    on client credit. Holding at most one chunk here keeps
            //    the rest in the gateway's bounded buffer, so
            //    backpressure reaches the shards through their own
            //    credit windows — and `Fin` (which needs no credit) can
            //    still surface once the last chunk drains.
            if pending.is_none() {
                match gs.next_timeout(POLL_STEP) {
                    Some(StreamItem::Chunk {
                        slice,
                        cursor,
                        hits,
                    }) => {
                        let seen = delivered.get(&slice).copied().unwrap_or(0);
                        // A chunk the resume token already covers is
                        // folded upstream but not re-sent — and spends no
                        // client credit.
                        if cursor > seen {
                            pending = Some((slice, cursor, hits));
                        }
                    }
                    Some(StreamItem::Fin(result)) => {
                        let fin = match result {
                            Ok(resp) => Msg::Fin {
                                id,
                                digest: ranking_digest(&resp.hits),
                                degraded: resp.degraded,
                                missing_shards: resp.missing_shards,
                                trace_id: resp.trace_id,
                                fidelity: resp.fidelity,
                            },
                            Err(err) => Msg::Error { id, err },
                        };
                        return write_msg(stream, &fin).is_ok();
                    }
                    None => {}
                }
            }
            // 4. Deliver the held chunk once credit allows.
            if let Some((slice, cursor, hits)) = pending.take() {
                if client_credit > 0 {
                    let chunk = Msg::StreamChunk {
                        id,
                        shard: slice,
                        cursor,
                        hits,
                    };
                    if write_msg(stream, &chunk).is_err() {
                        self.cancelled.record(CancelReason::ClientDrop);
                        abandon(AbandonReason::ClientDrop);
                        return false;
                    }
                    self.stream.chunks.inc();
                    client_credit -= 1;
                    delivered.insert(slice, cursor);
                    last_write = Instant::now();
                } else {
                    if !stall_counted {
                        self.stream.credit_stalls.inc();
                        stall_counted = true;
                    }
                    pending = Some((slice, cursor, hits));
                    std::thread::sleep(POLL_STEP);
                }
            }
            // 5. Heartbeat: prove liveness (and carry cost accounting)
            //    whenever no chunk went out recently.
            if last_write.elapsed() >= STREAM_HEARTBEAT {
                let (cells_done, cells_total) = gs.progress();
                let beat = Msg::Progress {
                    id,
                    cells_done,
                    cells_total,
                };
                if write_msg(stream, &beat).is_err() {
                    self.cancelled.record(CancelReason::ClientDrop);
                    abandon(AbandonReason::ClientDrop);
                    return false;
                }
                last_write = Instant::now();
            }
        }
    }
}
