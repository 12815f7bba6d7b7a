//! Thin synchronous client for the swsimd wire protocol.
//!
//! Speaks to either a shard worker directly or a gateway front door —
//! both answer the same frames. One request per call; the connection
//! is reused across calls on the same [`NetClient`].

use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use swsimd_core::Hit;
use swsimd_obs::flight::AuditRecord;
use swsimd_obs::trace::TraceCtx;
use swsimd_runner::{rank_hits, Fidelity, Request, ServeError};
use swsimd_seq::integrity::crc32;

use crate::wire::{
    budget_ms, ranking_digest, read_msg, write_msg, Msg, RemoteError, StreamToken, WireError,
};

/// Client-side failure: transport/framing, a typed remote error, or a
/// protocol violation (unexpected frame kind).
#[derive(Debug)]
pub enum NetError {
    /// Framing or transport failure.
    Wire(WireError),
    /// The server answered with a typed error.
    Remote(RemoteError),
    /// The server answered with a frame that does not answer the
    /// request.
    Unexpected(&'static str),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Wire(e) => write!(f, "wire: {e}"),
            NetError::Remote(e) => write!(f, "remote: {e}"),
            NetError::Unexpected(what) => write!(f, "unexpected reply: {what}"),
        }
    }
}

impl NetError {
    /// Backoff hint attached to an overload rejection (shed or
    /// rate-limited), if the server sent one. Callers should sleep
    /// this long before retrying instead of guessing.
    pub fn retry_after_ms(&self) -> Option<u64> {
        match self {
            NetError::Remote(e) => e.retry_after_ms(),
            _ => None,
        }
    }
}

impl std::error::Error for NetError {}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Wire(e)
    }
}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Wire(WireError::Io(e))
    }
}

/// A query answer, including the degradation marker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HitsReply {
    /// Ranked hits (globally indexed when answered by a gateway).
    pub hits: Vec<Hit>,
    /// True when one or more shards could not contribute.
    pub degraded: bool,
    /// Slice indices missing from the answer.
    pub missing_shards: Vec<u32>,
    /// Distributed trace id the server filed this request under
    /// (0 when the peer predates trace propagation). Feed it to
    /// [`NetClient::trace`] / `swsimd trace` for the stage breakdown.
    pub trace_id: u64,
    /// Fidelity the server answered at ([`Fidelity::Full`] unless the
    /// serving tier was browning out; scores are exact at every
    /// level — degradation affects auxiliary work only).
    pub fidelity: Fidelity,
}

/// A pong, identifying the peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PongReply {
    /// Shard index, or `u32::MAX` when the peer is a gateway.
    pub shard: u32,
    /// True when the peer is draining and refusing new queries.
    pub draining: bool,
}

/// Blocking protocol client over one TCP connection.
pub struct NetClient {
    stream: TcpStream,
    next_id: u64,
}

impl NetClient {
    /// Dial `addr` with `timeout` for connect and subsequent reads.
    pub fn connect(addr: &str, timeout: Duration) -> io::Result<NetClient> {
        let sock = resolve(addr)?;
        let stream = TcpStream::connect_timeout(&sock, timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        Ok(NetClient { stream, next_id: 1 })
    }

    /// Override the read timeout (e.g. for long-deadline queries).
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Run one request. The frame carries the request's trace context
    /// (so the server's span tree parents under the caller's request
    /// span), its tenant (the serving tier's fair-share scheduler, rate
    /// limits and per-tenant metrics key on it) and what is left of its
    /// deadline. An untraced default-tenant request encodes
    /// byte-identically to the pre-trace, pre-tenant wire format. A
    /// deadline that has already passed fails locally with
    /// [`ServeError::DeadlineExceeded`].
    pub fn send(&mut self, req: &Request) -> Result<HitsReply, NetError> {
        let deadline_ms = wire_deadline(req)?;
        self.unary(req, deadline_ms)
    }

    /// [`NetClient::send`] for an untraced default-tenant request.
    /// `deadline_ms == 0` means no deadline.
    pub fn query(
        &mut self,
        query: &[u8],
        top_k: usize,
        deadline_ms: u32,
    ) -> Result<HitsReply, NetError> {
        self.unary(&Request::new(query.to_vec(), top_k), deadline_ms)
    }

    fn unary(&mut self, req: &Request, deadline_ms: u32) -> Result<HitsReply, NetError> {
        let id = self.next_id;
        self.next_id += 1;
        write_msg(
            &mut self.stream,
            &Msg::Query {
                id,
                top_k: req.top_k as u32,
                deadline_ms,
                // slice_count 0 = "route for me": the shard answers
                // its own slice, the gateway scatter-gathers.
                slice_index: 0,
                slice_count: 0,
                query: req.query.clone(),
                trace: req.trace,
                tenant: req.tenant.clone(),
            },
        )?;
        match read_msg(&mut self.stream)? {
            Msg::Hits {
                hits,
                degraded,
                missing_shards,
                trace_id,
                fidelity,
                ..
            } => Ok(HitsReply {
                hits,
                degraded,
                missing_shards,
                trace_id,
                fidelity,
            }),
            Msg::Error { err, .. } => Err(NetError::Remote(err)),
            _ => Err(NetError::Unexpected("non-answer frame for Query")),
        }
    }

    /// Fetch the flight-recorder audit record for one trace id.
    /// `Ok(None)` means the peer's recorder has no such trace (evicted
    /// or never seen).
    pub fn trace(&mut self, trace_id: u64) -> Result<Option<AuditRecord>, NetError> {
        write_msg(&mut self.stream, &Msg::TraceRequest { trace_id })?;
        match read_msg(&mut self.stream)? {
            Msg::FlightRecords { mut records } => Ok(records.pop()),
            _ => Err(NetError::Unexpected("non-flight frame for TraceRequest")),
        }
    }

    /// Fetch the peer's slow-query log, newest first (`limit` 0 asks
    /// for the server default).
    pub fn slowlog(&mut self, limit: u32) -> Result<Vec<AuditRecord>, NetError> {
        write_msg(&mut self.stream, &Msg::SlowlogRequest { limit })?;
        match read_msg(&mut self.stream)? {
            Msg::FlightRecords { records } => Ok(records),
            _ => Err(NetError::Unexpected("non-flight frame for SlowlogRequest")),
        }
    }

    /// Fetch flight-recorder records rendered as JSON: one object (or
    /// `null`) when `trace_id` is nonzero, else an array of the most
    /// recent (or slow-only) records.
    pub fn flight_json(
        &mut self,
        trace_id: u64,
        limit: u32,
        slow_only: bool,
    ) -> Result<String, NetError> {
        write_msg(
            &mut self.stream,
            &Msg::FlightJsonRequest {
                trace_id,
                limit,
                slow_only,
            },
        )?;
        match read_msg(&mut self.stream)? {
            Msg::FlightJson { text } => Ok(String::from_utf8_lossy(&text).into_owned()),
            _ => Err(NetError::Unexpected("non-json frame for FlightJsonRequest")),
        }
    }

    /// Health-check the peer.
    pub fn ping(&mut self) -> Result<PongReply, NetError> {
        write_msg(&mut self.stream, &Msg::Ping { nonce: 0xFEED })?;
        match read_msg(&mut self.stream)? {
            Msg::Pong {
                nonce: 0xFEED,
                shard,
                draining,
            } => Ok(PongReply { shard, draining }),
            Msg::Pong { .. } => Err(NetError::Unexpected("pong nonce mismatch")),
            _ => Err(NetError::Unexpected("non-pong frame for Ping")),
        }
    }

    /// Fetch the peer's Prometheus scrape.
    pub fn metrics(&mut self) -> Result<String, NetError> {
        write_msg(&mut self.stream, &Msg::MetricsRequest)?;
        match read_msg(&mut self.stream)? {
            Msg::MetricsText { text } => Ok(String::from_utf8_lossy(&text).into_owned()),
            _ => Err(NetError::Unexpected("non-metrics frame for MetricsRequest")),
        }
    }

    /// Promote a warm standby shard to live duty. Returns the peer's
    /// post-promotion pong (no longer `draining` once live). A no-op
    /// on a peer that is already serving.
    pub fn activate(&mut self) -> Result<PongReply, NetError> {
        write_msg(&mut self.stream, &Msg::Activate)?;
        match read_msg(&mut self.stream)? {
            Msg::Pong {
                shard, draining, ..
            } => Ok(PongReply { shard, draining }),
            _ => Err(NetError::Unexpected("non-pong frame for Activate")),
        }
    }

    /// Ask the peer to drain: stop admitting queries, finish what is
    /// in flight. Returns its post-drain pong.
    pub fn drain(&mut self) -> Result<PongReply, NetError> {
        write_msg(&mut self.stream, &Msg::Drain)?;
        match read_msg(&mut self.stream)? {
            Msg::Pong {
                shard, draining, ..
            } => Ok(PongReply { shard, draining }),
            _ => Err(NetError::Unexpected("non-pong frame for Drain")),
        }
    }

    /// Open a streaming query: chunks of ranked hits arrive
    /// incrementally, interleaved with [`StreamEvent::Progress`]
    /// heartbeats, terminated by [`StreamEvent::Fin`]. The request
    /// travels as in [`NetClient::send`]. `credit` is the number of
    /// chunks the server may push before waiting for
    /// [`StreamHandle::grant`] — the client's receive-buffer bound.
    pub fn stream(&mut self, req: &Request, credit: u32) -> Result<StreamHandle<'_>, NetError> {
        let deadline_ms = wire_deadline(req)?;
        let id = self.next_id;
        self.next_id += 1;
        write_msg(
            &mut self.stream,
            &Msg::StreamQuery {
                id,
                top_k: req.top_k as u32,
                deadline_ms,
                slice_index: 0,
                slice_count: 0,
                credit: credit.max(1),
                cursor: 0,
                query: req.query.clone(),
                trace: req.trace,
                tenant: req.tenant.clone(),
            },
        )?;
        Ok(StreamHandle {
            client: self,
            id,
            top_k: req.top_k as u32,
            query_crc: crc32(&req.query),
            trace_id: 0,
            delivered: BTreeMap::new(),
            hits: Vec::new(),
            finished: false,
        })
    }

    /// Continue an interrupted stream from its resume token. Chunks
    /// the token already covers are not re-sent; the terminal
    /// [`StreamEvent::Fin`] digest still describes the *complete*
    /// ranking, so a caller that kept the pre-interrupt chunks can
    /// verify the stitched result byte-for-byte.
    pub fn resume_stream(
        &mut self,
        token: &StreamToken,
        query: &[u8],
        deadline_ms: u32,
        credit: u32,
    ) -> Result<StreamHandle<'_>, NetError> {
        let id = self.next_id;
        self.next_id += 1;
        write_msg(
            &mut self.stream,
            &Msg::Resume {
                id,
                deadline_ms,
                credit: credit.max(1),
                token: token.clone(),
                query: query.to_vec(),
                trace: TraceCtx::default(),
                tenant: String::new(),
            },
        )?;
        Ok(StreamHandle {
            client: self,
            id,
            top_k: token.top_k,
            query_crc: token.query_crc,
            trace_id: token.trace_id,
            delivered: token.cursors.iter().copied().collect(),
            hits: Vec::new(),
            finished: false,
        })
    }
}

/// One increment of a streamed query, as seen by the client.
#[derive(Debug)]
pub enum StreamEvent {
    /// A new chunk of ranked hits (duplicates are filtered out before
    /// this surfaces).
    Chunk {
        /// Slice the chunk came from.
        shard: u32,
        /// Monotone 1-based cursor within that slice's stream.
        cursor: u64,
        /// The chunk's ranked hits.
        hits: Vec<Hit>,
    },
    /// Liveness heartbeat with work accounting (`cells_total` 0 =
    /// unknown).
    Progress {
        /// Matrix cells computed so far.
        cells_done: u64,
        /// Total matrix cells the query costs.
        cells_total: u64,
    },
    /// Terminal event: the stream completed.
    Fin(FinReply),
}

/// The terminal frame of a completed stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FinReply {
    /// [`ranking_digest`] of the complete final ranking; compare with
    /// [`StreamHandle::digest`] to verify the assembled result.
    pub digest: u32,
    /// True when one or more shards could not contribute.
    pub degraded: bool,
    /// Slice indices missing from a degraded stream.
    pub missing_shards: Vec<u32>,
    /// Distributed trace id of the stream (0 = untraced peer).
    pub trace_id: u64,
    /// Fidelity the stream was served at.
    pub fidelity: Fidelity,
}

/// An in-progress streamed query. Holds the connection exclusively
/// until [`StreamEvent::Fin`] (or an error) ends it. The handle folds
/// every chunk into a running client-side ranking and tracks
/// per-slice cursors, so [`StreamHandle::token`] can mint a resume
/// token at any moment — including after an interrupt.
pub struct StreamHandle<'a> {
    client: &'a mut NetClient,
    id: u64,
    top_k: u32,
    query_crc: u32,
    trace_id: u64,
    delivered: BTreeMap<u32, u64>,
    hits: Vec<Hit>,
    finished: bool,
}

impl StreamHandle<'_> {
    /// Block for the next stream event. Duplicate chunks (hedged or
    /// resumed upstream streams) are deduplicated by `(shard,
    /// cursor)` and never surface.
    ///
    /// Not an [`Iterator`]: events are fallible and the handle also
    /// exposes credit/token state between calls.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<StreamEvent, NetError> {
        loop {
            match read_msg(&mut self.client.stream)? {
                Msg::StreamChunk {
                    id,
                    shard,
                    cursor,
                    hits,
                } if id == self.id => {
                    let seen = self.delivered.get(&shard).copied().unwrap_or(0);
                    if cursor <= seen {
                        continue;
                    }
                    self.delivered.insert(shard, cursor);
                    self.hits.extend(hits.iter().cloned());
                    self.hits = rank_hits(std::mem::take(&mut self.hits), self.top_k as usize);
                    return Ok(StreamEvent::Chunk {
                        shard,
                        cursor,
                        hits,
                    });
                }
                Msg::Progress {
                    id,
                    cells_done,
                    cells_total,
                } if id == self.id => {
                    return Ok(StreamEvent::Progress {
                        cells_done,
                        cells_total,
                    })
                }
                Msg::Fin {
                    id,
                    digest,
                    degraded,
                    missing_shards,
                    trace_id,
                    fidelity,
                } if id == self.id => {
                    self.finished = true;
                    if trace_id != 0 {
                        self.trace_id = trace_id;
                    }
                    return Ok(StreamEvent::Fin(FinReply {
                        digest,
                        degraded,
                        missing_shards,
                        trace_id,
                        fidelity,
                    }));
                }
                Msg::Error { err, .. } => return Err(NetError::Remote(err)),
                _ => return Err(NetError::Unexpected("non-stream frame mid-stream")),
            }
        }
    }

    /// Grant the server permission to push `credits` more chunks.
    pub fn grant(&mut self, credits: u32) -> Result<(), NetError> {
        write_msg(
            &mut self.client.stream,
            &Msg::Credit {
                id: self.id,
                credits,
            },
        )?;
        Ok(())
    }

    /// Mint a resume token describing everything delivered so far.
    /// Feed it to [`NetClient::resume_stream`] (with the same query
    /// bytes) to continue after an interruption.
    pub fn token(&self) -> StreamToken {
        StreamToken {
            trace_id: self.trace_id,
            query_crc: self.query_crc,
            top_k: self.top_k,
            cursors: self.delivered.iter().map(|(&s, &c)| (s, c)).collect(),
        }
    }

    /// The running client-side fold of every chunk received by *this*
    /// handle (a resumed handle only holds post-resume chunks).
    pub fn ranking(&self) -> &[Hit] {
        &self.hits
    }

    /// [`ranking_digest`] of [`StreamHandle::ranking`].
    pub fn digest(&self) -> u32 {
        ranking_digest(&self.hits)
    }

    /// True once [`StreamEvent::Fin`] has been observed.
    pub fn finished(&self) -> bool {
        self.finished
    }
}

/// The request's deadline as a frame's relative `deadline_ms`.
fn wire_deadline(req: &Request) -> Result<u32, NetError> {
    budget_ms(req.deadline).ok_or(NetError::Remote(RemoteError::Serve(
        ServeError::DeadlineExceeded,
    )))
}

fn resolve(addr: &str) -> io::Result<SocketAddr> {
    addr.to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::other("address resolved to nothing"))
}
