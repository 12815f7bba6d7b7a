//! Length-prefixed, CRC-framed binary protocol for the serving tier.
//!
//! A frame is `u32 len | payload | u32 crc32(payload)` with all
//! integers little-endian; the CRC is the same polynomial the journal
//! and persistence layers use ([`swsimd_seq::integrity::crc32`]), so
//! a bit flip anywhere in transit is caught before the payload is
//! interpreted. The first payload byte is the message kind; unknown
//! kinds and short bodies decode to typed [`WireError`]s, never
//! panics — the codec is fuzzed over truncations and bit flips in
//! `tests/wire_codec.rs`.
//!
//! The protocol is strictly request-response per connection: a peer
//! writes one frame and reads one frame. Deadlines travel inside
//! [`Msg::Query`] as a relative millisecond budget (absolute instants
//! are meaningless across hosts); typed errors travel back as
//! [`RemoteError`] so every [`ServeError`] a shard raises arrives at
//! the gateway as the same variant, not a stringly-typed blob.
//!
//! ## Version tolerance
//!
//! [`Msg::Query`] and [`Msg::Hits`] end in an *extension tail*: zero
//! or more `u8 ext_kind | u16 len | bytes` records after the fixed
//! body. A decoder skips extension kinds it does not recognize, so a
//! frame carrying extensions minted by a newer peer (trace context,
//! shard timing summaries, or whatever comes next) still decodes on
//! an older one, and a frame with no tail — the pre-extension format
//! byte for byte — decodes on a new one. Extension kinds, like
//! message kinds, are append-only.

use std::io::{self, Read, Write};
use std::time::Instant;

use swsimd_core::{AlignError, Hit, Precision};
use swsimd_obs::flight::{AuditRecord, ShardTiming, Stage, StageTiming};
use swsimd_obs::trace::TraceCtx;
use swsimd_runner::{Fidelity, ServeError, MAX_TENANT_LEN};
use swsimd_seq::integrity::crc32;

/// Frames larger than this are rejected before allocation — a
/// corrupted or hostile length prefix must not OOM the peer.
pub const MAX_FRAME: usize = 32 * 1024 * 1024;

/// Typed decode/transport failures. `Eof` is a *clean* close (no
/// bytes of a new frame read); everything else is a protocol error.
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket/file errored.
    Io(io::Error),
    /// Clean end of stream at a frame boundary.
    Eof,
    /// The stream ended mid-frame (torn write or dropped peer).
    Truncated,
    /// The length prefix exceeds [`MAX_FRAME`].
    TooLarge(u32),
    /// The payload CRC does not match (bit flip in transit).
    BadCrc {
        /// CRC carried by the frame trailer.
        want: u32,
        /// CRC computed over the received payload.
        got: u32,
    },
    /// The payload's kind byte is not a known message.
    UnknownKind(u8),
    /// The payload body is malformed for its kind.
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o error: {e}"),
            WireError::Eof => write!(f, "end of stream"),
            WireError::Truncated => write!(f, "stream ended mid-frame"),
            WireError::TooLarge(n) => write!(f, "frame of {n} bytes exceeds {MAX_FRAME}"),
            WireError::BadCrc { want, got } => {
                write!(f, "frame crc mismatch (want {want:#010x}, got {got:#010x})")
            }
            WireError::UnknownKind(k) => write!(f, "unknown message kind {k}"),
            WireError::Malformed(what) => write!(f, "malformed frame body: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

/// A typed serving error crossing the wire. Every [`ServeError`]
/// round-trips; the three extra variants only arise in a sharded
/// deployment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RemoteError {
    /// A shard-local [`ServeError`], reconstructed variant-for-variant.
    Serve(ServeError),
    /// The query's slice coordinates do not match the shard's.
    WrongShard {
        /// Slice index the query addressed.
        got: u32,
        /// Slice index this shard owns.
        want: u32,
    },
    /// The shard is draining and admits no new queries.
    Draining,
    /// The gateway exhausted every replica's retry budget.
    Unavailable,
    /// A [`Msg::Resume`] token did not match the query it claims to
    /// continue (wrong query hash, or undecodable token bytes).
    BadResumeToken,
}

impl std::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemoteError::Serve(e) => write!(f, "remote: {e}"),
            RemoteError::WrongShard { got, want } => {
                write!(f, "query addressed slice {got} but this shard owns {want}")
            }
            RemoteError::Draining => write!(f, "shard is draining"),
            RemoteError::Unavailable => write!(f, "no replica could serve within the retry budget"),
            RemoteError::BadResumeToken => {
                write!(
                    f,
                    "resume token does not match the query it claims to continue"
                )
            }
        }
    }
}

impl std::error::Error for RemoteError {}

/// Stable single-byte code for [`swsimd_core::EngineKind`] on the
/// wire (append-only, mirrors `AlignError::wire_encode`).
fn engine_code(e: swsimd_core::EngineKind) -> u64 {
    use swsimd_core::EngineKind as E;
    match e {
        E::Scalar => 0,
        E::Sse41 => 1,
        E::Avx2 => 2,
        E::Avx512 => 3,
    }
}

fn engine_from_code(v: u64) -> Option<swsimd_core::EngineKind> {
    use swsimd_core::EngineKind as E;
    Some(match v {
        0 => E::Scalar,
        1 => E::Sse41,
        2 => E::Avx2,
        3 => E::Avx512,
        _ => return None,
    })
}

impl RemoteError {
    /// `(code, a, b, c)` wire form. Codes are append-only.
    pub fn wire_encode(&self) -> (u8, u64, u64, u64) {
        use ServeError as S;
        match self {
            RemoteError::Serve(S::ShutDown) => (1, 0, 0, 0),
            RemoteError::Serve(S::DeadlineExceeded) => (2, 0, 0, 0),
            RemoteError::Serve(S::QueueFull { retry_after_ms }) => (3, *retry_after_ms, 0, 0),
            RemoteError::Serve(S::WorkerPanicked) => (4, 0, 0, 0),
            RemoteError::Serve(S::InvalidQuery(e)) => {
                let (sub, a, b) = e.wire_encode();
                (5, sub as u64, a, b)
            }
            RemoteError::Serve(S::QueryTooLarge { len, limit }) => {
                (6, *len as u64, *limit as u64, 0)
            }
            RemoteError::Serve(S::EngineUnavailable { requested, .. }) => {
                (7, engine_code(*requested), 0, 0)
            }
            RemoteError::Serve(S::CostTooHigh { cost, limit }) => (8, *cost, *limit, 0),
            RemoteError::Serve(S::BudgetExceeded { requested, limit }) => {
                (9, *requested, *limit, 0)
            }
            RemoteError::WrongShard { got, want } => (10, *got as u64, *want as u64, 0),
            RemoteError::Draining => (11, 0, 0, 0),
            RemoteError::Unavailable => (12, 0, 0, 0),
            RemoteError::Serve(S::RateLimited { retry_after_ms }) => (13, *retry_after_ms, 0, 0),
            RemoteError::BadResumeToken => (14, 0, 0, 0),
        }
    }

    /// Inverse of [`RemoteError::wire_encode`]; `None` for unknown
    /// codes or out-of-range payloads.
    pub fn wire_decode(code: u8, a: u64, b: u64, c: u64) -> Option<Self> {
        use ServeError as S;
        Some(match code {
            1 => RemoteError::Serve(S::ShutDown),
            2 => RemoteError::Serve(S::DeadlineExceeded),
            3 => RemoteError::Serve(S::QueueFull { retry_after_ms: a }),
            4 => RemoteError::Serve(S::WorkerPanicked),
            5 => RemoteError::Serve(S::InvalidQuery(AlignError::wire_decode(
                u8::try_from(a).ok()?,
                b,
                c,
            )?)),
            6 => RemoteError::Serve(S::QueryTooLarge {
                len: usize::try_from(a).ok()?,
                limit: usize::try_from(b).ok()?,
            }),
            7 => RemoteError::Serve(S::EngineUnavailable {
                requested: engine_from_code(a)?,
                reason: swsimd_core::error::REMOTE_UNAVAILABLE_REASON,
            }),
            8 => RemoteError::Serve(S::CostTooHigh { cost: a, limit: b }),
            9 => RemoteError::Serve(S::BudgetExceeded {
                requested: a,
                limit: b,
            }),
            10 => RemoteError::WrongShard {
                got: u32::try_from(a).ok()?,
                want: u32::try_from(b).ok()?,
            },
            11 => RemoteError::Draining,
            12 => RemoteError::Unavailable,
            13 => RemoteError::Serve(S::RateLimited { retry_after_ms: a }),
            14 => RemoteError::BadResumeToken,
            _ => return None,
        })
    }

    /// Backoff hint carried by overload rejections, if any. Retry
    /// schedules prefer this over their generic exponential delay.
    pub fn retry_after_ms(&self) -> Option<u64> {
        match self {
            RemoteError::Serve(e) => e.retry_after_ms(),
            _ => None,
        }
    }
}

/// One hit on the wire: global database index, score, precision code.
fn precision_code(p: Precision) -> u8 {
    match p {
        Precision::I8 => 0,
        Precision::I16 => 1,
        Precision::I32 => 2,
        Precision::Adaptive => 3,
    }
}

fn precision_from_code(v: u8) -> Option<Precision> {
    Some(match v {
        0 => Precision::I8,
        1 => Precision::I16,
        2 => Precision::I32,
        3 => Precision::Adaptive,
        _ => return None,
    })
}

/// A resumable position in a streamed search: which trace it belongs
/// to, a hash binding it to the query bytes, the requested ranking
/// depth, and how far delivery got per database slice. The cursor for
/// a slice is the number of journal chunks already delivered to the
/// client — chunk indices below it are skipped on resume.
///
/// The binary form is `u64 trace_id | u32 query_crc | u32 top_k |
/// u16 n | n × (u32 slice, u64 cursor)`; the hex form is the binary
/// form hex-encoded, compact enough to print on interrupt and paste
/// back into `swsimd query --stream --resume <token>`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StreamToken {
    /// Trace id of the original streamed query.
    pub trace_id: u64,
    /// `crc32` of the alphabet-encoded query residues; a resume with
    /// different query bytes is rejected with
    /// [`RemoteError::BadResumeToken`].
    pub query_crc: u32,
    /// `top_k` of the original query (the merged ranking depth).
    pub top_k: u32,
    /// `(slice_index, chunks_delivered)` per slice, ascending slice.
    pub cursors: Vec<(u32, u64)>,
}

impl StreamToken {
    /// Serialize to the binary wire form.
    pub fn encode(&self) -> Vec<u8> {
        let n = self.cursors.len().min(u16::MAX as usize);
        let mut out = Vec::with_capacity(18 + n * 12);
        out.extend_from_slice(&self.trace_id.to_le_bytes());
        out.extend_from_slice(&self.query_crc.to_le_bytes());
        out.extend_from_slice(&self.top_k.to_le_bytes());
        out.extend_from_slice(&(n as u16).to_le_bytes());
        for (slice, cursor) in self.cursors.iter().take(n) {
            out.extend_from_slice(&slice.to_le_bytes());
            out.extend_from_slice(&cursor.to_le_bytes());
        }
        out
    }

    /// Parse the binary wire form; every failure is typed, no panics.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader { buf: bytes };
        let trace_id = r.u64("token trace id")?;
        let query_crc = r.u32("token query crc")?;
        let top_k = r.u32("token top_k")?;
        let n = r.u16("token cursor count")? as usize;
        if n * 12 > r.buf.len() {
            return Err(WireError::Malformed("token cursor count"));
        }
        let mut cursors = Vec::with_capacity(n);
        for _ in 0..n {
            let slice = r.u32("token slice")?;
            let cursor = r.u64("token cursor")?;
            cursors.push((slice, cursor));
        }
        r.done("token trailing bytes")?;
        Ok(StreamToken {
            trace_id,
            query_crc,
            top_k,
            cursors,
        })
    }

    /// Hex rendering of [`StreamToken::encode`] for human transport.
    pub fn to_hex(&self) -> String {
        let bytes = self.encode();
        let mut s = String::with_capacity(bytes.len() * 2);
        for b in bytes {
            use std::fmt::Write as _;
            let _ = write!(s, "{b:02x}");
        }
        s
    }

    /// Inverse of [`StreamToken::to_hex`].
    pub fn from_hex(s: &str) -> Result<Self, WireError> {
        let s = s.trim();
        if !s.len().is_multiple_of(2) || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(WireError::Malformed("token hex"));
        }
        let bytes: Vec<u8> = (0..s.len() / 2)
            .map(|i| u8::from_str_radix(&s[i * 2..i * 2 + 2], 16).unwrap())
            .collect();
        StreamToken::decode(&bytes)
    }
}

/// Canonical digest of a final ranking: `crc32` over each hit's
/// `u64 db_index | i32 score` in rank order. Both ends of a stream
/// compute this over the complete merged ranking, so a resumed stream
/// can prove its concatenated result is byte-identical to what an
/// uninterrupted run would have delivered. Precision is deliberately
/// excluded — it describes how a score was computed, not the ranking.
pub fn ranking_digest(hits: &[Hit]) -> u32 {
    let mut bytes = Vec::with_capacity(hits.len() * 12);
    for h in hits {
        bytes.extend_from_slice(&(h.db_index as u64).to_le_bytes());
        bytes.extend_from_slice(&h.score.to_le_bytes());
    }
    crc32(&bytes)
}

/// Every message the serving tier exchanges. Kind bytes are
/// append-only; removing or renumbering one breaks rolling restarts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Msg {
    /// Client → shard/gateway: run one search.
    Query {
        /// Caller-chosen correlation id, echoed in the reply.
        id: u64,
        /// Hits to return (0 = all).
        top_k: u32,
        /// Relative deadline budget in milliseconds (0 = none).
        deadline_ms: u32,
        /// Which database slice this query addresses (gateway → shard;
        /// end clients send 0).
        slice_index: u32,
        /// Total slices in the topology (0 = unsharded/whole database).
        slice_count: u32,
        /// Alphabet-encoded query residues.
        query: Vec<u8>,
        /// Propagated trace context (extension; `TraceCtx::default()`
        /// = untraced, encoded as an absent tail for old peers).
        trace: TraceCtx,
        /// Tenant this query bills to (extension; empty = the default
        /// tenant, encoded as an absent tail for old peers). At most
        /// [`MAX_TENANT_LEN`] bytes of UTF-8 — longer names are a
        /// decode error, rejected before allocation.
        tenant: String,
    },
    /// Shard/gateway → client: the ranked hits.
    Hits {
        /// Correlation id from the query.
        id: u64,
        /// True when one or more shards could not contribute.
        degraded: bool,
        /// Slice indices missing from a degraded response.
        missing_shards: Vec<u32>,
        /// Ranked hits (global database indices).
        hits: Vec<Hit>,
        /// Trace id this reply belongs to (extension; 0 = untraced).
        trace_id: u64,
        /// Responder's timing summary (extension; shards fill this in
        /// so the gateway can stitch a complete request tree).
        timing: Option<ShardTiming>,
        /// Fidelity the responder served at (extension;
        /// [`Fidelity::Full`] is encoded as an absent tail, so old
        /// peers' replies decode as full-fidelity — which they are).
        fidelity: Fidelity,
    },
    /// Shard/gateway → client: the query failed with a typed error.
    Error {
        /// Correlation id from the query.
        id: u64,
        /// What went wrong, variant-preserving.
        err: RemoteError,
    },
    /// Health probe.
    Ping {
        /// Echo nonce.
        nonce: u64,
    },
    /// Probe reply.
    Pong {
        /// Nonce from the ping.
        nonce: u64,
        /// Responder's slice index (`u32::MAX` for a gateway).
        shard: u32,
        /// True once the responder is draining.
        draining: bool,
    },
    /// Ask the peer to stop admitting queries and finish in-flight
    /// work (acknowledged with a [`Msg::Pong`]).
    Drain,
    /// Ask for a Prometheus scrape.
    MetricsRequest,
    /// The scrape text.
    MetricsText {
        /// UTF-8 Prometheus exposition payload.
        text: Vec<u8>,
    },
    /// Ask the flight recorder for the audit record of one trace.
    TraceRequest {
        /// Trace id to look up.
        trace_id: u64,
    },
    /// Ask the flight recorder for its slow-query log.
    SlowlogRequest {
        /// Maximum records to return (0 = a server-chosen default).
        limit: u32,
    },
    /// Flight-recorder reply: zero or more audit records.
    FlightRecords {
        /// Matching records, newest first.
        records: Vec<AuditRecord>,
    },
    /// Ask the flight recorder for records rendered as JSON (the
    /// gateway's machine-readable endpoint).
    FlightJsonRequest {
        /// Look up one trace (0 = list mode).
        trace_id: u64,
        /// Maximum records in list mode (0 = a server-chosen default).
        limit: u32,
        /// List only slow-log records.
        slow_only: bool,
    },
    /// The JSON rendering of the requested records.
    FlightJson {
        /// UTF-8 JSON payload (an array in list mode, an object or
        /// `null` in single-trace mode).
        text: Vec<u8>,
    },
    /// Supervisor → shard: promote a warm standby to live duty. The
    /// shard stops advertising `draining` in pongs and starts taking
    /// queries; acknowledged with [`Msg::Pong`]. A no-op on a shard
    /// that is already live.
    Activate,
    /// Client → gateway (or gateway → shard): run one search with
    /// incremental delivery. The peer replies with a sequence of
    /// [`Msg::StreamChunk`]/[`Msg::Progress`] frames terminated by a
    /// [`Msg::Fin`] (or [`Msg::Error`]) — the one frame kind that
    /// suspends the tier's strict request-response discipline.
    StreamQuery {
        /// Caller-chosen correlation id, echoed in every stream frame.
        id: u64,
        /// Hits to rank per chunk and in the final merge (0 = all).
        top_k: u32,
        /// Relative deadline budget in milliseconds (0 = none).
        deadline_ms: u32,
        /// Which database slice this query addresses (gateway → shard;
        /// end clients send 0).
        slice_index: u32,
        /// Total slices in the topology (0 = unsharded).
        slice_count: u32,
        /// Initial credit: chunks the sender may push before waiting
        /// for a [`Msg::Credit`] grant (0 = decoder-rejected).
        credit: u32,
        /// Skip chunks with cursor ≤ this (0 = from the start). Lets a
        /// reconnecting peer continue from durable journal state.
        cursor: u64,
        /// Alphabet-encoded query residues.
        query: Vec<u8>,
        /// Propagated trace context (extension).
        trace: TraceCtx,
        /// Tenant this query bills to (extension).
        tenant: String,
    },
    /// One increment of a streamed result: the top-k hits of a single
    /// journal checkpoint chunk, already globalized and ranked.
    StreamChunk {
        /// Correlation id from the stream query.
        id: u64,
        /// Slice the chunk came from (`u32::MAX` from a gateway's
        /// merged stream).
        shard: u32,
        /// 1-based monotone position within the shard's stream
        /// (`journal chunk index + 1`); receivers dedupe hedged or
        /// resumed streams by `(shard, cursor)`.
        cursor: u64,
        /// The chunk's ranked hits (global database indices).
        hits: Vec<Hit>,
    },
    /// Stream heartbeat: proof of liveness plus work accounting, sent
    /// between chunks so "slow but alive" never trips an idle timeout.
    Progress {
        /// Correlation id from the stream query.
        id: u64,
        /// Matrix cells computed so far.
        cells_done: u64,
        /// Total matrix cells the query costs (0 = unknown).
        cells_total: u64,
    },
    /// Receiver → sender: permission to push `credits` more chunks.
    Credit {
        /// Correlation id from the stream query.
        id: u64,
        /// Additional chunks the sender may push (> 0).
        credits: u32,
    },
    /// Client → gateway: continue a previously interrupted stream from
    /// its [`StreamToken`]. The query bytes ride along because the
    /// token only binds their hash.
    Resume {
        /// Caller-chosen correlation id for the resumed stream.
        id: u64,
        /// Relative deadline budget in milliseconds (0 = none).
        deadline_ms: u32,
        /// Initial credit for the resumed stream (> 0).
        credit: u32,
        /// Where the interrupted stream left off.
        token: StreamToken,
        /// Alphabet-encoded query residues (must hash to
        /// `token.query_crc`).
        query: Vec<u8>,
        /// Propagated trace context (extension).
        trace: TraceCtx,
        /// Tenant this query bills to (extension).
        tenant: String,
    },
    /// Terminal stream frame: the search completed. Carries a digest
    /// of the full merged ranking so the client can verify that what
    /// it assembled — possibly across a resume — is byte-identical to
    /// an uninterrupted run.
    Fin {
        /// Correlation id from the stream query.
        id: u64,
        /// [`ranking_digest`] of the complete final ranking.
        digest: u32,
        /// True when one or more shards could not contribute.
        degraded: bool,
        /// Slice indices missing from a degraded stream.
        missing_shards: Vec<u32>,
        /// Trace id this stream belongs to (extension; 0 = untraced).
        trace_id: u64,
        /// Fidelity the stream was served at (extension).
        fidelity: Fidelity,
    },
}

const KIND_QUERY: u8 = 1;
const KIND_HITS: u8 = 2;
const KIND_ERROR: u8 = 3;
const KIND_PING: u8 = 4;
const KIND_PONG: u8 = 5;
const KIND_DRAIN: u8 = 6;
const KIND_METRICS_REQ: u8 = 7;
const KIND_METRICS_TEXT: u8 = 8;
const KIND_TRACE_REQ: u8 = 9;
const KIND_SLOWLOG_REQ: u8 = 10;
const KIND_FLIGHT_RECORDS: u8 = 11;
const KIND_FLIGHT_JSON_REQ: u8 = 12;
const KIND_FLIGHT_JSON: u8 = 13;
const KIND_ACTIVATE: u8 = 14;
const KIND_STREAM_QUERY: u8 = 15;
const KIND_STREAM_CHUNK: u8 = 16;
const KIND_PROGRESS: u8 = 17;
const KIND_CREDIT: u8 = 18;
const KIND_RESUME: u8 = 19;
const KIND_FIN: u8 = 20;

/// Extension-tail kinds for [`Msg::Query`]/[`Msg::Hits`]. Append-only;
/// unknown kinds are skipped by the decoder.
const EXT_TRACE_CTX: u8 = 1;
const EXT_TRACE_ID: u8 = 2;
const EXT_SHARD_TIMING: u8 = 3;
const EXT_TENANT: u8 = 4;
const EXT_FIDELITY: u8 = 5;

/// Bounds-checked little-endian reader over a payload body.
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if self.buf.len() < n {
            return Err(WireError::Malformed(what));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &'static str) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().unwrap()))
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn i32(&mut self, what: &'static str) -> Result<i32, WireError> {
        Ok(i32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn done(&self, what: &'static str) -> Result<(), WireError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(WireError::Malformed(what))
        }
    }
}

/// `u32 count | count × (u64 db_index | i32 score | u8 precision)` —
/// the hit-list wire form shared by [`Msg::Hits`] and
/// [`Msg::StreamChunk`].
fn push_hits(out: &mut Vec<u8>, hits: &[Hit]) {
    out.extend_from_slice(&(hits.len() as u32).to_le_bytes());
    for h in hits {
        out.extend_from_slice(&(h.db_index as u64).to_le_bytes());
        out.extend_from_slice(&h.score.to_le_bytes());
        out.push(precision_code(h.precision));
    }
}

/// Inverse of [`push_hits`]; `payload_len` bounds the claimed count
/// so a hostile length cannot force a huge allocation.
fn read_hits(r: &mut Reader<'_>, payload_len: usize) -> Result<Vec<Hit>, WireError> {
    let n = r.u32("hit count")? as usize;
    if n > payload_len {
        return Err(WireError::Malformed("hit count"));
    }
    let mut hits = Vec::with_capacity(n);
    for _ in 0..n {
        let db_index = usize::try_from(r.u64("hit db index")?)
            .map_err(|_| WireError::Malformed("hit db index"))?;
        let score = r.i32("hit score")?;
        let precision = precision_from_code(r.u8("hit precision")?)
            .ok_or(WireError::Malformed("hit precision"))?;
        hits.push(Hit {
            db_index,
            score,
            precision,
        });
    }
    Ok(hits)
}

/// Append one `ext_kind | u16 len | bytes` extension record.
fn push_ext(out: &mut Vec<u8>, kind: u8, body: &[u8]) {
    debug_assert!(body.len() <= u16::MAX as usize);
    out.push(kind);
    out.extend_from_slice(&(body.len() as u16).to_le_bytes());
    out.extend_from_slice(body);
}

/// Walk an extension tail, handing each known-or-unknown record to
/// `f`. Unknown kinds MUST be ignored by the callback for forward
/// compatibility; malformed framing (a length past the end of the
/// payload) is still a hard error.
fn read_exts(
    r: &mut Reader<'_>,
    mut f: impl FnMut(u8, &[u8]) -> Result<(), WireError>,
) -> Result<(), WireError> {
    while !r.buf.is_empty() {
        let kind = r.u8("ext kind")?;
        let len = r.u16("ext length")? as usize;
        let body = r.take(len, "ext body")?;
        f(kind, body)?;
    }
    Ok(())
}

fn push_len_str(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let n = bytes.len().min(u8::MAX as usize);
    out.push(n as u8);
    out.extend_from_slice(&bytes[..n]);
}

fn read_len_str(r: &mut Reader<'_>, what: &'static str) -> Result<String, WireError> {
    let n = r.u8(what)? as usize;
    let bytes = r.take(n, what)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Malformed(what))
}

fn push_stage_timings(out: &mut Vec<u8>, stages: &[StageTiming]) {
    out.push(stages.len().min(u8::MAX as usize) as u8);
    for st in stages.iter().take(u8::MAX as usize) {
        out.push(st.stage.as_u8());
        out.extend_from_slice(&st.ns.to_le_bytes());
    }
}

/// Unknown stage tags (from a newer peer) are skipped, not rejected.
fn read_stage_timings(r: &mut Reader<'_>) -> Result<Vec<StageTiming>, WireError> {
    let n = r.u8("stage count")? as usize;
    let mut stages = Vec::with_capacity(n.min(Stage::ALL.len()));
    for _ in 0..n {
        let tag = r.u8("stage tag")?;
        let ns = r.u64("stage ns")?;
        if let Some(stage) = Stage::from_u8(tag) {
            stages.push(StageTiming { stage, ns });
        }
    }
    Ok(stages)
}

fn encode_shard_timing(t: &ShardTiming) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    out.extend_from_slice(&t.shard.to_le_bytes());
    out.extend_from_slice(&t.root_span.to_le_bytes());
    out.extend_from_slice(&t.rtt_ns.to_le_bytes());
    push_len_str(&mut out, &t.engine);
    push_stage_timings(&mut out, &t.stages);
    out
}

fn decode_shard_timing(bytes: &[u8]) -> Result<ShardTiming, WireError> {
    let mut r = Reader { buf: bytes };
    let shard = r.u32("timing shard")?;
    let root_span = r.u64("timing root span")?;
    let rtt_ns = r.u64("timing rtt")?;
    let engine = read_len_str(&mut r, "timing engine")?;
    let stages = read_stage_timings(&mut r)?;
    // Deliberately no `done()`: a newer peer may append fields.
    Ok(ShardTiming {
        shard,
        root_span,
        engine,
        rtt_ns,
        stages,
    })
}

const AUDIT_FLAG_OK: u8 = 1;
const AUDIT_FLAG_DEGRADED: u8 = 2;

fn encode_audit(rec: &AuditRecord, out: &mut Vec<u8>) {
    out.extend_from_slice(&rec.trace_id.to_le_bytes());
    out.extend_from_slice(&rec.query_id.to_le_bytes());
    out.extend_from_slice(&rec.total_ns.to_le_bytes());
    out.extend_from_slice(&rec.cost.to_le_bytes());
    out.extend_from_slice(&rec.retries.to_le_bytes());
    out.extend_from_slice(&rec.hedges.to_le_bytes());
    let mut flags = 0u8;
    if rec.ok {
        flags |= AUDIT_FLAG_OK;
    }
    if rec.degraded {
        flags |= AUDIT_FLAG_DEGRADED;
    }
    out.push(flags);
    push_len_str(out, &rec.engine);
    push_len_str(out, &rec.cancel);
    push_stage_timings(out, &rec.stages);
    out.push(rec.shards.len().min(u8::MAX as usize) as u8);
    for sh in rec.shards.iter().take(u8::MAX as usize) {
        let body = encode_shard_timing(sh);
        out.extend_from_slice(&(body.len() as u16).to_le_bytes());
        out.extend_from_slice(&body);
    }
    push_len_str(out, &rec.tenant);
}

fn decode_audit(r: &mut Reader<'_>) -> Result<AuditRecord, WireError> {
    let trace_id = r.u64("audit trace id")?;
    let query_id = r.u64("audit query id")?;
    let total_ns = r.u64("audit total")?;
    let cost = r.u64("audit cost")?;
    let retries = r.u32("audit retries")?;
    let hedges = r.u32("audit hedges")?;
    let flags = r.u8("audit flags")?;
    let engine = read_len_str(r, "audit engine")?;
    let cancel = read_len_str(r, "audit cancel")?;
    let stages = read_stage_timings(r)?;
    let n_shards = r.u8("audit shard count")? as usize;
    let mut shards = Vec::with_capacity(n_shards.min(64));
    for _ in 0..n_shards {
        let len = r.u16("audit shard timing length")? as usize;
        shards.push(decode_shard_timing(r.take(len, "audit shard timing")?)?);
    }
    // Tenant was appended to the record in a later protocol revision;
    // a record from an older peer simply ends here (empty = unknown).
    let tenant = if r.buf.is_empty() {
        String::new()
    } else {
        read_len_str(r, "audit tenant")?
    };
    Ok(AuditRecord {
        trace_id,
        query_id,
        total_ns,
        stages,
        shards,
        engine,
        retries,
        hedges,
        degraded: flags & AUDIT_FLAG_DEGRADED != 0,
        cost,
        cancel,
        ok: flags & AUDIT_FLAG_OK != 0,
        tenant,
    })
}

impl Msg {
    /// Serialize the payload (kind byte + body, no framing).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        match self {
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
                out.push(KIND_QUERY);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&top_k.to_le_bytes());
                out.extend_from_slice(&deadline_ms.to_le_bytes());
                out.extend_from_slice(&slice_index.to_le_bytes());
                out.extend_from_slice(&slice_count.to_le_bytes());
                out.extend_from_slice(&(query.len() as u32).to_le_bytes());
                out.extend_from_slice(query);
                if trace.is_traced() {
                    let mut body = Vec::with_capacity(16);
                    body.extend_from_slice(&trace.trace_id.to_le_bytes());
                    body.extend_from_slice(&trace.span_id.to_le_bytes());
                    push_ext(&mut out, EXT_TRACE_CTX, &body);
                }
                if !tenant.is_empty() {
                    let bytes = tenant.as_bytes();
                    let n = bytes.len().min(MAX_TENANT_LEN);
                    let mut end = n;
                    while !tenant.is_char_boundary(end) {
                        end -= 1;
                    }
                    push_ext(&mut out, EXT_TENANT, &bytes[..end]);
                }
            }
            Msg::Hits {
                id,
                degraded,
                missing_shards,
                hits,
                trace_id,
                timing,
                fidelity,
            } => {
                out.push(KIND_HITS);
                out.extend_from_slice(&id.to_le_bytes());
                out.push(u8::from(*degraded));
                out.extend_from_slice(&(missing_shards.len() as u32).to_le_bytes());
                for s in missing_shards {
                    out.extend_from_slice(&s.to_le_bytes());
                }
                out.extend_from_slice(&(hits.len() as u32).to_le_bytes());
                for h in hits {
                    out.extend_from_slice(&(h.db_index as u64).to_le_bytes());
                    out.extend_from_slice(&h.score.to_le_bytes());
                    out.push(precision_code(h.precision));
                }
                if *trace_id != 0 {
                    push_ext(&mut out, EXT_TRACE_ID, &trace_id.to_le_bytes());
                }
                if let Some(t) = timing {
                    push_ext(&mut out, EXT_SHARD_TIMING, &encode_shard_timing(t));
                }
                if *fidelity != Fidelity::Full {
                    push_ext(&mut out, EXT_FIDELITY, &[fidelity.as_u8()]);
                }
            }
            Msg::Error { id, err } => {
                out.push(KIND_ERROR);
                out.extend_from_slice(&id.to_le_bytes());
                let (code, a, b, c) = err.wire_encode();
                out.push(code);
                out.extend_from_slice(&a.to_le_bytes());
                out.extend_from_slice(&b.to_le_bytes());
                out.extend_from_slice(&c.to_le_bytes());
            }
            Msg::Ping { nonce } => {
                out.push(KIND_PING);
                out.extend_from_slice(&nonce.to_le_bytes());
            }
            Msg::Pong {
                nonce,
                shard,
                draining,
            } => {
                out.push(KIND_PONG);
                out.extend_from_slice(&nonce.to_le_bytes());
                out.extend_from_slice(&shard.to_le_bytes());
                out.push(u8::from(*draining));
            }
            Msg::Drain => out.push(KIND_DRAIN),
            Msg::MetricsRequest => out.push(KIND_METRICS_REQ),
            Msg::MetricsText { text } => {
                out.push(KIND_METRICS_TEXT);
                out.extend_from_slice(&(text.len() as u32).to_le_bytes());
                out.extend_from_slice(text);
            }
            Msg::TraceRequest { trace_id } => {
                out.push(KIND_TRACE_REQ);
                out.extend_from_slice(&trace_id.to_le_bytes());
            }
            Msg::SlowlogRequest { limit } => {
                out.push(KIND_SLOWLOG_REQ);
                out.extend_from_slice(&limit.to_le_bytes());
            }
            Msg::FlightRecords { records } => {
                out.push(KIND_FLIGHT_RECORDS);
                out.extend_from_slice(&(records.len() as u32).to_le_bytes());
                for rec in records {
                    encode_audit(rec, &mut out);
                }
            }
            Msg::FlightJsonRequest {
                trace_id,
                limit,
                slow_only,
            } => {
                out.push(KIND_FLIGHT_JSON_REQ);
                out.extend_from_slice(&trace_id.to_le_bytes());
                out.extend_from_slice(&limit.to_le_bytes());
                out.push(u8::from(*slow_only));
            }
            Msg::FlightJson { text } => {
                out.push(KIND_FLIGHT_JSON);
                out.extend_from_slice(&(text.len() as u32).to_le_bytes());
                out.extend_from_slice(text);
            }
            Msg::Activate => out.push(KIND_ACTIVATE),
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
                out.push(KIND_STREAM_QUERY);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&top_k.to_le_bytes());
                out.extend_from_slice(&deadline_ms.to_le_bytes());
                out.extend_from_slice(&slice_index.to_le_bytes());
                out.extend_from_slice(&slice_count.to_le_bytes());
                out.extend_from_slice(&credit.to_le_bytes());
                out.extend_from_slice(&cursor.to_le_bytes());
                out.extend_from_slice(&(query.len() as u32).to_le_bytes());
                out.extend_from_slice(query);
                if trace.is_traced() {
                    let mut body = Vec::with_capacity(16);
                    body.extend_from_slice(&trace.trace_id.to_le_bytes());
                    body.extend_from_slice(&trace.span_id.to_le_bytes());
                    push_ext(&mut out, EXT_TRACE_CTX, &body);
                }
                if !tenant.is_empty() {
                    let bytes = tenant.as_bytes();
                    let n = bytes.len().min(MAX_TENANT_LEN);
                    let mut end = n;
                    while !tenant.is_char_boundary(end) {
                        end -= 1;
                    }
                    push_ext(&mut out, EXT_TENANT, &bytes[..end]);
                }
            }
            Msg::StreamChunk {
                id,
                shard,
                cursor,
                hits,
            } => {
                out.push(KIND_STREAM_CHUNK);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&shard.to_le_bytes());
                out.extend_from_slice(&cursor.to_le_bytes());
                push_hits(&mut out, hits);
            }
            Msg::Progress {
                id,
                cells_done,
                cells_total,
            } => {
                out.push(KIND_PROGRESS);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&cells_done.to_le_bytes());
                out.extend_from_slice(&cells_total.to_le_bytes());
            }
            Msg::Credit { id, credits } => {
                out.push(KIND_CREDIT);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&credits.to_le_bytes());
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
                out.push(KIND_RESUME);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&deadline_ms.to_le_bytes());
                out.extend_from_slice(&credit.to_le_bytes());
                let tok = token.encode();
                out.extend_from_slice(&(tok.len() as u16).to_le_bytes());
                out.extend_from_slice(&tok);
                out.extend_from_slice(&(query.len() as u32).to_le_bytes());
                out.extend_from_slice(query);
                if trace.is_traced() {
                    let mut body = Vec::with_capacity(16);
                    body.extend_from_slice(&trace.trace_id.to_le_bytes());
                    body.extend_from_slice(&trace.span_id.to_le_bytes());
                    push_ext(&mut out, EXT_TRACE_CTX, &body);
                }
                if !tenant.is_empty() {
                    let bytes = tenant.as_bytes();
                    let n = bytes.len().min(MAX_TENANT_LEN);
                    let mut end = n;
                    while !tenant.is_char_boundary(end) {
                        end -= 1;
                    }
                    push_ext(&mut out, EXT_TENANT, &bytes[..end]);
                }
            }
            Msg::Fin {
                id,
                digest,
                degraded,
                missing_shards,
                trace_id,
                fidelity,
            } => {
                out.push(KIND_FIN);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&digest.to_le_bytes());
                out.push(u8::from(*degraded));
                out.extend_from_slice(&(missing_shards.len() as u32).to_le_bytes());
                for s in missing_shards {
                    out.extend_from_slice(&s.to_le_bytes());
                }
                if *trace_id != 0 {
                    push_ext(&mut out, EXT_TRACE_ID, &trace_id.to_le_bytes());
                }
                if *fidelity != Fidelity::Full {
                    push_ext(&mut out, EXT_FIDELITY, &[fidelity.as_u8()]);
                }
            }
        }
        out
    }

    /// Parse a payload produced by [`Msg::encode`]. Every failure is a
    /// typed [`WireError`]; no input panics.
    pub fn decode(payload: &[u8]) -> Result<Msg, WireError> {
        let mut r = Reader { buf: payload };
        let kind = r.u8("kind byte")?;
        let msg = match kind {
            KIND_QUERY => {
                let id = r.u64("query id")?;
                let top_k = r.u32("query top_k")?;
                let deadline_ms = r.u32("query deadline")?;
                let slice_index = r.u32("query slice index")?;
                let slice_count = r.u32("query slice count")?;
                let len = r.u32("query length")? as usize;
                let query = r.take(len, "query residues")?.to_vec();
                let mut trace = TraceCtx::default();
                let mut tenant = String::new();
                read_exts(&mut r, |kind, body| {
                    match kind {
                        EXT_TRACE_CTX => {
                            let mut er = Reader { buf: body };
                            trace = TraceCtx {
                                trace_id: er.u64("trace ctx id")?,
                                span_id: er.u64("trace ctx span")?,
                            };
                        }
                        EXT_TENANT => {
                            if body.len() > MAX_TENANT_LEN {
                                return Err(WireError::Malformed("tenant name too long"));
                            }
                            tenant = std::str::from_utf8(body)
                                .map_err(|_| WireError::Malformed("tenant name"))?
                                .to_string();
                        }
                        _ => {}
                    }
                    Ok(())
                })?;
                Msg::Query {
                    id,
                    top_k,
                    deadline_ms,
                    slice_index,
                    slice_count,
                    query,
                    trace,
                    tenant,
                }
            }
            KIND_HITS => {
                let id = r.u64("hits id")?;
                let degraded = match r.u8("hits degraded flag")? {
                    0 => false,
                    1 => true,
                    _ => return Err(WireError::Malformed("hits degraded flag")),
                };
                let n_missing = r.u32("missing shard count")? as usize;
                if n_missing > payload.len() {
                    return Err(WireError::Malformed("missing shard count"));
                }
                let mut missing_shards = Vec::with_capacity(n_missing);
                for _ in 0..n_missing {
                    missing_shards.push(r.u32("missing shard index")?);
                }
                let n_hits = r.u32("hit count")? as usize;
                if n_hits > payload.len() {
                    return Err(WireError::Malformed("hit count"));
                }
                let mut hits = Vec::with_capacity(n_hits);
                for _ in 0..n_hits {
                    let db_index = usize::try_from(r.u64("hit db index")?)
                        .map_err(|_| WireError::Malformed("hit db index"))?;
                    let score = r.i32("hit score")?;
                    let precision = precision_from_code(r.u8("hit precision")?)
                        .ok_or(WireError::Malformed("hit precision"))?;
                    hits.push(Hit {
                        db_index,
                        score,
                        precision,
                    });
                }
                let mut trace_id = 0u64;
                let mut timing = None;
                let mut fidelity = Fidelity::Full;
                read_exts(&mut r, |kind, body| {
                    match kind {
                        EXT_TRACE_ID => {
                            let mut er = Reader { buf: body };
                            trace_id = er.u64("hits trace id")?;
                        }
                        EXT_SHARD_TIMING => timing = Some(decode_shard_timing(body)?),
                        EXT_FIDELITY => {
                            let mut er = Reader { buf: body };
                            fidelity = Fidelity::from_u8(er.u8("hits fidelity")?);
                        }
                        _ => {}
                    }
                    Ok(())
                })?;
                Msg::Hits {
                    id,
                    degraded,
                    missing_shards,
                    hits,
                    trace_id,
                    timing,
                    fidelity,
                }
            }
            KIND_ERROR => {
                let id = r.u64("error id")?;
                let code = r.u8("error code")?;
                let a = r.u64("error payload a")?;
                let b = r.u64("error payload b")?;
                let c = r.u64("error payload c")?;
                let err = RemoteError::wire_decode(code, a, b, c)
                    .ok_or(WireError::Malformed("error code"))?;
                Msg::Error { id, err }
            }
            KIND_PING => Msg::Ping {
                nonce: r.u64("ping nonce")?,
            },
            KIND_PONG => {
                let nonce = r.u64("pong nonce")?;
                let shard = r.u32("pong shard")?;
                let draining = match r.u8("pong draining flag")? {
                    0 => false,
                    1 => true,
                    _ => return Err(WireError::Malformed("pong draining flag")),
                };
                Msg::Pong {
                    nonce,
                    shard,
                    draining,
                }
            }
            KIND_DRAIN => Msg::Drain,
            KIND_METRICS_REQ => Msg::MetricsRequest,
            KIND_METRICS_TEXT => {
                let len = r.u32("metrics length")? as usize;
                let text = r.take(len, "metrics text")?.to_vec();
                Msg::MetricsText { text }
            }
            KIND_TRACE_REQ => Msg::TraceRequest {
                trace_id: r.u64("trace request id")?,
            },
            KIND_SLOWLOG_REQ => Msg::SlowlogRequest {
                limit: r.u32("slowlog limit")?,
            },
            KIND_FLIGHT_RECORDS => {
                let n = r.u32("flight record count")? as usize;
                if n > payload.len() {
                    return Err(WireError::Malformed("flight record count"));
                }
                let mut records = Vec::with_capacity(n);
                for _ in 0..n {
                    records.push(decode_audit(&mut r)?);
                }
                Msg::FlightRecords { records }
            }
            KIND_FLIGHT_JSON_REQ => {
                let trace_id = r.u64("flight json trace id")?;
                let limit = r.u32("flight json limit")?;
                let slow_only = match r.u8("flight json slow flag")? {
                    0 => false,
                    1 => true,
                    _ => return Err(WireError::Malformed("flight json slow flag")),
                };
                Msg::FlightJsonRequest {
                    trace_id,
                    limit,
                    slow_only,
                }
            }
            KIND_FLIGHT_JSON => {
                let len = r.u32("flight json length")? as usize;
                let text = r.take(len, "flight json text")?.to_vec();
                Msg::FlightJson { text }
            }
            KIND_ACTIVATE => Msg::Activate,
            KIND_STREAM_QUERY => {
                let id = r.u64("stream query id")?;
                let top_k = r.u32("stream query top_k")?;
                let deadline_ms = r.u32("stream query deadline")?;
                let slice_index = r.u32("stream query slice index")?;
                let slice_count = r.u32("stream query slice count")?;
                let credit = r.u32("stream query credit")?;
                if credit == 0 {
                    return Err(WireError::Malformed("stream query credit"));
                }
                let cursor = r.u64("stream query cursor")?;
                let len = r.u32("stream query length")? as usize;
                let query = r.take(len, "stream query residues")?.to_vec();
                let mut trace = TraceCtx::default();
                let mut tenant = String::new();
                read_exts(&mut r, |kind, body| {
                    match kind {
                        EXT_TRACE_CTX => {
                            let mut er = Reader { buf: body };
                            trace = TraceCtx {
                                trace_id: er.u64("trace ctx id")?,
                                span_id: er.u64("trace ctx span")?,
                            };
                        }
                        EXT_TENANT => {
                            if body.len() > MAX_TENANT_LEN {
                                return Err(WireError::Malformed("tenant name too long"));
                            }
                            tenant = std::str::from_utf8(body)
                                .map_err(|_| WireError::Malformed("tenant name"))?
                                .to_string();
                        }
                        _ => {}
                    }
                    Ok(())
                })?;
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
                }
            }
            KIND_STREAM_CHUNK => {
                let id = r.u64("chunk id")?;
                let shard = r.u32("chunk shard")?;
                let cursor = r.u64("chunk cursor")?;
                if cursor == 0 {
                    return Err(WireError::Malformed("chunk cursor"));
                }
                let hits = read_hits(&mut r, payload.len())?;
                // A newer peer may append an extension tail; skip it.
                read_exts(&mut r, |_, _| Ok(()))?;
                Msg::StreamChunk {
                    id,
                    shard,
                    cursor,
                    hits,
                }
            }
            KIND_PROGRESS => {
                let id = r.u64("progress id")?;
                let cells_done = r.u64("progress cells done")?;
                let cells_total = r.u64("progress cells total")?;
                read_exts(&mut r, |_, _| Ok(()))?;
                Msg::Progress {
                    id,
                    cells_done,
                    cells_total,
                }
            }
            KIND_CREDIT => {
                let id = r.u64("credit id")?;
                let credits = r.u32("credit amount")?;
                if credits == 0 {
                    return Err(WireError::Malformed("credit amount"));
                }
                read_exts(&mut r, |_, _| Ok(()))?;
                Msg::Credit { id, credits }
            }
            KIND_RESUME => {
                let id = r.u64("resume id")?;
                let deadline_ms = r.u32("resume deadline")?;
                let credit = r.u32("resume credit")?;
                if credit == 0 {
                    return Err(WireError::Malformed("resume credit"));
                }
                let tok_len = r.u16("resume token length")? as usize;
                let token = StreamToken::decode(r.take(tok_len, "resume token")?)?;
                let len = r.u32("resume query length")? as usize;
                let query = r.take(len, "resume query residues")?.to_vec();
                let mut trace = TraceCtx::default();
                let mut tenant = String::new();
                read_exts(&mut r, |kind, body| {
                    match kind {
                        EXT_TRACE_CTX => {
                            let mut er = Reader { buf: body };
                            trace = TraceCtx {
                                trace_id: er.u64("trace ctx id")?,
                                span_id: er.u64("trace ctx span")?,
                            };
                        }
                        EXT_TENANT => {
                            if body.len() > MAX_TENANT_LEN {
                                return Err(WireError::Malformed("tenant name too long"));
                            }
                            tenant = std::str::from_utf8(body)
                                .map_err(|_| WireError::Malformed("tenant name"))?
                                .to_string();
                        }
                        _ => {}
                    }
                    Ok(())
                })?;
                Msg::Resume {
                    id,
                    deadline_ms,
                    credit,
                    token,
                    query,
                    trace,
                    tenant,
                }
            }
            KIND_FIN => {
                let id = r.u64("fin id")?;
                let digest = r.u32("fin digest")?;
                let degraded = match r.u8("fin degraded flag")? {
                    0 => false,
                    1 => true,
                    _ => return Err(WireError::Malformed("fin degraded flag")),
                };
                let n_missing = r.u32("fin missing shard count")? as usize;
                if n_missing > payload.len() {
                    return Err(WireError::Malformed("fin missing shard count"));
                }
                let mut missing_shards = Vec::with_capacity(n_missing);
                for _ in 0..n_missing {
                    missing_shards.push(r.u32("fin missing shard index")?);
                }
                let mut trace_id = 0u64;
                let mut fidelity = Fidelity::Full;
                read_exts(&mut r, |kind, body| {
                    match kind {
                        EXT_TRACE_ID => {
                            let mut er = Reader { buf: body };
                            trace_id = er.u64("fin trace id")?;
                        }
                        EXT_FIDELITY => {
                            let mut er = Reader { buf: body };
                            fidelity = Fidelity::from_u8(er.u8("fin fidelity")?);
                        }
                        _ => {}
                    }
                    Ok(())
                })?;
                Msg::Fin {
                    id,
                    digest,
                    degraded,
                    missing_shards,
                    trace_id,
                    fidelity,
                }
            }
            other => return Err(WireError::UnknownKind(other)),
        };
        r.done("trailing bytes")?;
        Ok(msg)
    }
}

/// Frame a payload: `u32 len | payload | u32 crc32(payload)`.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out
}

/// Write one message as a frame.
pub fn write_msg<W: Write>(w: &mut W, msg: &Msg) -> io::Result<()> {
    w.write_all(&frame(&msg.encode()))?;
    w.flush()
}

/// Read exactly `buf.len()` bytes; distinguishes a clean EOF before
/// the first byte (`at_start`) from a tear mid-read.
fn read_exact_or(r: &mut impl Read, buf: &mut [u8], at_start: bool) -> Result<(), WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if at_start && filled == 0 {
                    WireError::Eof
                } else {
                    WireError::Truncated
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(())
}

/// Read one frame and decode its message. CRC and length are checked
/// before the payload is interpreted.
pub fn read_msg<R: Read>(r: &mut R) -> Result<Msg, WireError> {
    let mut len_buf = [0u8; 4];
    read_exact_or(r, &mut len_buf, true)?;
    let len = u32::from_le_bytes(len_buf);
    if len as usize > MAX_FRAME {
        return Err(WireError::TooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    read_exact_or(r, &mut payload, false)?;
    let mut crc_buf = [0u8; 4];
    read_exact_or(r, &mut crc_buf, false)?;
    let want = u32::from_le_bytes(crc_buf);
    let got = crc32(&payload);
    if want != got {
        return Err(WireError::BadCrc { want, got });
    }
    Msg::decode(&payload)
}

/// Remaining milliseconds until `deadline` for a request frame's
/// relative `deadline_ms` (0 = no deadline); `None` when it has already
/// expired. A live sub-millisecond remainder encodes as 1, never as
/// "no deadline".
pub(crate) fn budget_ms(deadline: Option<Instant>) -> Option<u32> {
    match deadline {
        None => Some(0),
        Some(d) => {
            let left = d.saturating_duration_since(Instant::now());
            if left.is_zero() {
                None
            } else {
                Some(left.as_millis().clamp(1, u64::from(u32::MAX) as u128) as u32)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn roundtrip(msg: Msg) {
        let framed = frame(&msg.encode());
        let mut cursor = &framed[..];
        let back = read_msg(&mut cursor).expect("frame round-trips");
        assert_eq!(back, msg);
    }

    fn sample_timing() -> ShardTiming {
        ShardTiming {
            shard: 2,
            root_span: 0xABCD_EF01,
            engine: "AVX2".into(),
            rtt_ns: 12_345,
            stages: vec![
                StageTiming {
                    stage: Stage::Queue,
                    ns: 400,
                },
                StageTiming {
                    stage: Stage::Kernel,
                    ns: 9000,
                },
            ],
        }
    }

    #[test]
    fn all_kinds_round_trip() {
        roundtrip(Msg::Query {
            id: 7,
            top_k: 10,
            deadline_ms: 1500,
            slice_index: 2,
            slice_count: 3,
            query: vec![1, 2, 3, 19],
            trace: TraceCtx::default(),
            tenant: String::new(),
        });
        roundtrip(Msg::Query {
            id: 8,
            top_k: 10,
            deadline_ms: 1500,
            slice_index: 2,
            slice_count: 3,
            query: vec![1, 2, 3, 19],
            trace: TraceCtx {
                trace_id: 0xFACE,
                span_id: 0xB00C,
            },
            tenant: "acme-prod".into(),
        });
        roundtrip(Msg::Hits {
            id: 7,
            degraded: true,
            missing_shards: vec![1],
            hits: vec![Hit {
                db_index: 42,
                score: 117,
                precision: Precision::I16,
            }],
            trace_id: 0,
            timing: None,
            fidelity: Fidelity::Full,
        });
        roundtrip(Msg::Hits {
            id: 7,
            degraded: false,
            missing_shards: vec![],
            hits: vec![],
            trace_id: 0xFACE,
            timing: Some(sample_timing()),
            fidelity: Fidelity::NoShadow,
        });
        roundtrip(Msg::Error {
            id: 9,
            err: RemoteError::Serve(ServeError::QueueFull {
                retry_after_ms: 250,
            }),
        });
        roundtrip(Msg::Error {
            id: 10,
            err: RemoteError::Serve(ServeError::RateLimited {
                retry_after_ms: 1000,
            }),
        });
        roundtrip(Msg::Ping { nonce: 0xDEAD });
        roundtrip(Msg::Pong {
            nonce: 0xDEAD,
            shard: 1,
            draining: false,
        });
        roundtrip(Msg::Drain);
        roundtrip(Msg::MetricsRequest);
        roundtrip(Msg::MetricsText {
            text: b"swsimd_up 1\n".to_vec(),
        });
        roundtrip(Msg::TraceRequest { trace_id: 0xFACE });
        roundtrip(Msg::SlowlogRequest { limit: 32 });
        roundtrip(Msg::FlightRecords {
            records: vec![AuditRecord {
                trace_id: 0xFACE,
                query_id: 7,
                total_ns: 1_000_000,
                stages: vec![StageTiming {
                    stage: Stage::NetRtt,
                    ns: 900_000,
                }],
                shards: vec![sample_timing()],
                engine: "AVX2".into(),
                retries: 1,
                hedges: 2,
                degraded: true,
                cost: 640,
                cancel: "deadline".into(),
                ok: false,
                tenant: "acme-prod".into(),
            }],
        });
        roundtrip(Msg::FlightJsonRequest {
            trace_id: 0,
            limit: 16,
            slow_only: true,
        });
        roundtrip(Msg::FlightJson {
            text: b"[]".to_vec(),
        });
        roundtrip(Msg::Activate);
        roundtrip(Msg::StreamQuery {
            id: 11,
            top_k: 10,
            deadline_ms: 0,
            slice_index: 1,
            slice_count: 3,
            credit: 4,
            cursor: 2,
            query: vec![1, 2, 3],
            trace: TraceCtx {
                trace_id: 0xFACE,
                span_id: 0xB00C,
            },
            tenant: "acme-prod".into(),
        });
        roundtrip(Msg::StreamChunk {
            id: 11,
            shard: 1,
            cursor: 3,
            hits: vec![Hit {
                db_index: 99,
                score: 41,
                precision: Precision::I8,
            }],
        });
        roundtrip(Msg::Progress {
            id: 11,
            cells_done: 1 << 33,
            cells_total: 1 << 40,
        });
        roundtrip(Msg::Credit { id: 11, credits: 2 });
        roundtrip(Msg::Resume {
            id: 12,
            deadline_ms: 5000,
            credit: 8,
            token: StreamToken {
                trace_id: 0xFACE,
                query_crc: 0xC0FFEE,
                top_k: 10,
                cursors: vec![(0, 4), (1, 2), (2, 0)],
            },
            query: vec![1, 2, 3],
            trace: TraceCtx::default(),
            tenant: String::new(),
        });
        roundtrip(Msg::Fin {
            id: 11,
            digest: 0xDEAD_BEEF,
            degraded: true,
            missing_shards: vec![2],
            trace_id: 0xFACE,
            fidelity: Fidelity::ScoreOnly,
        });
    }

    /// The resume token survives both its binary and hex transports,
    /// and hostile bytes are typed errors.
    #[test]
    fn stream_token_round_trips_and_rejects_hostile_bytes() {
        let tok = StreamToken {
            trace_id: 0x1234_5678_9ABC_DEF0,
            query_crc: 0xCAFE_F00D,
            top_k: 25,
            cursors: vec![(0, 7), (1, 0), (7, 1 << 50)],
        };
        assert_eq!(StreamToken::decode(&tok.encode()).unwrap(), tok);
        assert_eq!(StreamToken::from_hex(&tok.to_hex()).unwrap(), tok);
        // Whitespace around a pasted token is forgiven.
        assert_eq!(
            StreamToken::from_hex(&format!("  {}\n", tok.to_hex())).unwrap(),
            tok
        );

        // A cursor count past the end of the bytes is rejected before
        // allocation, as are truncations, odd hex, and trailing junk.
        let mut hostile = tok.encode();
        hostile[16] = 0xFF;
        hostile[17] = 0xFF;
        assert!(matches!(
            StreamToken::decode(&hostile),
            Err(WireError::Malformed("token cursor count"))
        ));
        let good = tok.encode();
        for cut in 0..good.len() {
            assert!(StreamToken::decode(&good[..cut]).is_err(), "cut at {cut}");
        }
        assert!(StreamToken::from_hex("abc").is_err());
        assert!(StreamToken::from_hex("zz").is_err());
        let mut trailing = tok.encode();
        trailing.push(0);
        assert!(matches!(
            StreamToken::decode(&trailing),
            Err(WireError::Malformed("token trailing bytes"))
        ));
    }

    /// Zero credit and a zero chunk cursor are protocol violations —
    /// a zero grant would wedge the stream, and cursors are 1-based.
    #[test]
    fn zero_credit_and_zero_cursor_are_rejected() {
        let mut credit = Msg::Credit { id: 1, credits: 9 }.encode();
        credit[9..13].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            Msg::decode(&credit),
            Err(WireError::Malformed("credit amount"))
        ));

        let mut chunk = Msg::StreamChunk {
            id: 1,
            shard: 0,
            cursor: 5,
            hits: vec![],
        }
        .encode();
        chunk[13..21].copy_from_slice(&0u64.to_le_bytes());
        assert!(matches!(
            Msg::decode(&chunk),
            Err(WireError::Malformed("chunk cursor"))
        ));
    }

    /// Stream frames end in the same skip-unknown extension tail as
    /// Query/Hits, so a newer peer can extend them compatibly.
    #[test]
    fn stream_frames_skip_future_extensions() {
        let chunk = Msg::StreamChunk {
            id: 3,
            shard: 1,
            cursor: 2,
            hits: vec![],
        };
        let mut bytes = chunk.encode();
        push_ext(&mut bytes, 0xEE, b"future");
        assert_eq!(Msg::decode(&bytes).unwrap(), chunk);

        let fin = Msg::Fin {
            id: 3,
            digest: 7,
            degraded: false,
            missing_shards: vec![],
            trace_id: 0,
            fidelity: Fidelity::Full,
        };
        let mut bytes = fin.encode();
        push_ext(&mut bytes, 0xEE, &[1, 2, 3]);
        push_ext(&mut bytes, EXT_TRACE_ID, &99u64.to_le_bytes());
        match Msg::decode(&bytes).unwrap() {
            Msg::Fin { trace_id, .. } => assert_eq!(trace_id, 99),
            other => panic!("{other:?}"),
        }

        let progress = Msg::Progress {
            id: 3,
            cells_done: 1,
            cells_total: 2,
        };
        let mut bytes = progress.encode();
        push_ext(&mut bytes, 0xEF, &[]);
        assert_eq!(Msg::decode(&bytes).unwrap(), progress);
    }

    /// The ranking digest is order-sensitive, precision-blind, and
    /// stable across concatenation boundaries — the properties the
    /// resume oracle check relies on.
    #[test]
    fn ranking_digest_properties() {
        let a = Hit {
            db_index: 1,
            score: 50,
            precision: Precision::I8,
        };
        let b = Hit {
            db_index: 2,
            score: 40,
            precision: Precision::I16,
        };
        assert_eq!(ranking_digest(&[]), ranking_digest(&[]));
        assert_ne!(
            ranking_digest(&[a.clone(), b.clone()]),
            ranking_digest(&[b.clone(), a.clone()])
        );
        let a32 = Hit {
            precision: Precision::I32,
            ..a.clone()
        };
        assert_eq!(ranking_digest(&[a, b.clone()]), ranking_digest(&[a32, b]));
    }

    /// A pre-extension frame (fixed body, no tail) must decode on this
    /// decoder — byte-for-byte what an old peer emits.
    #[test]
    fn pre_extension_frames_still_decode() {
        let msg = Msg::Query {
            id: 7,
            top_k: 10,
            deadline_ms: 1500,
            slice_index: 2,
            slice_count: 3,
            query: vec![1, 2, 3],
            trace: TraceCtx::default(),
            tenant: String::new(),
        };
        // An untraced query encodes with no tail: identical to the old
        // format. Hand-build the old bytes to prove it.
        let mut old = vec![KIND_QUERY];
        old.extend_from_slice(&7u64.to_le_bytes());
        old.extend_from_slice(&10u32.to_le_bytes());
        old.extend_from_slice(&1500u32.to_le_bytes());
        old.extend_from_slice(&2u32.to_le_bytes());
        old.extend_from_slice(&3u32.to_le_bytes());
        old.extend_from_slice(&3u32.to_le_bytes());
        old.extend_from_slice(&[1, 2, 3]);
        assert_eq!(msg.encode(), old, "untraced encoding matches old format");
        assert_eq!(Msg::decode(&old).unwrap(), msg);
    }

    /// Extensions minted by a future peer are skipped, not rejected.
    #[test]
    fn unknown_extension_kinds_are_skipped() {
        let msg = Msg::Query {
            id: 1,
            top_k: 5,
            deadline_ms: 0,
            slice_index: 0,
            slice_count: 0,
            query: vec![4, 5],
            trace: TraceCtx {
                trace_id: 77,
                span_id: 88,
            },
            tenant: "acme".into(),
        };
        let mut bytes = msg.encode();
        push_ext(&mut bytes, 0xEE, &[9, 9, 9, 9]); // future ext
        push_ext(&mut bytes, 0xEF, &[]); // future empty ext
        assert_eq!(Msg::decode(&bytes).unwrap(), msg);

        // Same for Hits, with the unknown ext *before* the known ones.
        let hits = Msg::Hits {
            id: 1,
            degraded: false,
            missing_shards: vec![],
            hits: vec![],
            trace_id: 0,
            timing: None,
            fidelity: Fidelity::Full,
        };
        let mut bytes = hits.encode();
        push_ext(&mut bytes, 0xEE, b"future");
        push_ext(&mut bytes, EXT_TRACE_ID, &42u64.to_le_bytes());
        match Msg::decode(&bytes).unwrap() {
            Msg::Hits { trace_id, .. } => assert_eq!(trace_id, 42),
            other => panic!("{other:?}"),
        }
    }

    /// A torn extension (length past the payload end) is a typed
    /// error, not a panic or a silent accept.
    #[test]
    fn torn_extension_is_malformed() {
        let msg = Msg::Query {
            id: 1,
            top_k: 5,
            deadline_ms: 0,
            slice_index: 0,
            slice_count: 0,
            query: vec![],
            trace: TraceCtx::default(),
            tenant: String::new(),
        };
        let mut bytes = msg.encode();
        bytes.push(EXT_TRACE_CTX);
        bytes.extend_from_slice(&100u16.to_le_bytes()); // claims 100 bytes
        bytes.extend_from_slice(&[0; 4]); // delivers 4
        assert!(matches!(
            Msg::decode(&bytes),
            Err(WireError::Malformed("ext body"))
        ));
    }

    /// Unknown stage tags inside a timing summary are skipped — a
    /// newer shard can report stages this gateway doesn't know.
    #[test]
    fn unknown_stage_tags_are_skipped() {
        let mut body = Vec::new();
        body.extend_from_slice(&1u32.to_le_bytes()); // shard
        body.extend_from_slice(&5u64.to_le_bytes()); // root span
        body.extend_from_slice(&0u64.to_le_bytes()); // rtt
        body.push(4);
        body.extend_from_slice(b"AVX2");
        body.push(2); // two stages: one known, one future
        body.push(Stage::Kernel.as_u8());
        body.extend_from_slice(&123u64.to_le_bytes());
        body.push(0xEE);
        body.extend_from_slice(&456u64.to_le_bytes());
        let t = decode_shard_timing(&body).unwrap();
        assert_eq!(t.stages.len(), 1);
        assert_eq!(t.stages[0].ns, 123);
    }

    #[test]
    fn remote_error_codes_round_trip() {
        use swsimd_core::{CancelReason, EngineKind};
        let cases = vec![
            RemoteError::Serve(ServeError::ShutDown),
            RemoteError::Serve(ServeError::DeadlineExceeded),
            RemoteError::Serve(ServeError::QueueFull { retry_after_ms: 0 }),
            RemoteError::Serve(ServeError::QueueFull {
                retry_after_ms: 750,
            }),
            RemoteError::Serve(ServeError::RateLimited {
                retry_after_ms: 1500,
            }),
            RemoteError::Serve(ServeError::WorkerPanicked),
            RemoteError::Serve(ServeError::InvalidQuery(AlignError::InvalidResidue {
                position: 3,
                value: 255,
            })),
            RemoteError::Serve(ServeError::InvalidQuery(AlignError::Cancelled {
                reason: CancelReason::ClientDrop,
            })),
            RemoteError::Serve(ServeError::QueryTooLarge { len: 9, limit: 4 }),
            RemoteError::Serve(ServeError::EngineUnavailable {
                requested: EngineKind::Avx2,
                reason: swsimd_core::error::REMOTE_UNAVAILABLE_REASON,
            }),
            RemoteError::Serve(ServeError::CostTooHigh {
                cost: 1 << 40,
                limit: 1 << 30,
            }),
            RemoteError::Serve(ServeError::BudgetExceeded {
                requested: 100,
                limit: 10,
            }),
            RemoteError::WrongShard { got: 1, want: 2 },
            RemoteError::Draining,
            RemoteError::Unavailable,
        ];
        for e in cases {
            let (code, a, b, c) = e.wire_encode();
            let back = RemoteError::wire_decode(code, a, b, c).expect("decodes");
            assert_eq!(back, e);
        }
        assert!(RemoteError::wire_decode(0, 0, 0, 0).is_none());
        assert!(RemoteError::wire_decode(99, 0, 0, 0).is_none());
        // Out-of-range payloads are rejected, not clamped.
        assert!(RemoteError::wire_decode(7, 99, 0, 0).is_none());
        assert!(RemoteError::wire_decode(5, 77, 0, 0).is_none());
    }

    /// Overload rejections carry their backoff hint across the wire;
    /// nothing else claims one.
    #[test]
    fn retry_hints_survive_the_wire() {
        let shed = RemoteError::Serve(ServeError::QueueFull {
            retry_after_ms: 321,
        });
        let (code, a, b, c) = shed.wire_encode();
        let back = RemoteError::wire_decode(code, a, b, c).unwrap();
        assert_eq!(back.retry_after_ms(), Some(321));

        let limited = RemoteError::Serve(ServeError::RateLimited {
            retry_after_ms: 654,
        });
        let (code, a, b, c) = limited.wire_encode();
        let back = RemoteError::wire_decode(code, a, b, c).unwrap();
        assert_eq!(back.retry_after_ms(), Some(654));

        assert_eq!(RemoteError::Draining.retry_after_ms(), None);
        assert_eq!(
            RemoteError::Serve(ServeError::DeadlineExceeded).retry_after_ms(),
            None
        );
    }

    /// The tenant extension round-trips; an absent ext decodes to the
    /// empty (default) tenant — exactly what an old peer sends.
    #[test]
    fn tenant_extension_round_trips_and_defaults() {
        let base = Msg::Query {
            id: 1,
            top_k: 5,
            deadline_ms: 0,
            slice_index: 0,
            slice_count: 0,
            query: vec![4, 5],
            trace: TraceCtx::default(),
            tenant: String::new(),
        };
        // Empty tenant ⇒ no extension tail at all.
        let bytes = base.encode();
        assert_eq!(Msg::decode(&bytes).unwrap(), base);

        // A fidelity byte in a Hits reply round-trips, and Full is
        // encoded as absence (identical to a pre-fidelity frame).
        let full = Msg::Hits {
            id: 2,
            degraded: false,
            missing_shards: vec![],
            hits: vec![],
            trace_id: 0,
            timing: None,
            fidelity: Fidelity::Full,
        };
        let full_bytes = full.encode();
        assert_eq!(Msg::decode(&full_bytes).unwrap(), full);
        let degraded = Msg::Hits {
            id: 2,
            degraded: false,
            missing_shards: vec![],
            hits: vec![],
            trace_id: 0,
            timing: None,
            fidelity: Fidelity::ScoreOnly,
        };
        assert!(degraded.encode().len() > full_bytes.len());
        assert_eq!(Msg::decode(&degraded.encode()).unwrap(), degraded);
    }

    /// Hostile tenant extensions — oversized or non-UTF-8 — are typed
    /// decode errors, rejected before the name is allocated.
    #[test]
    fn hostile_tenant_extensions_are_rejected() {
        let base = Msg::Query {
            id: 1,
            top_k: 5,
            deadline_ms: 0,
            slice_index: 0,
            slice_count: 0,
            query: vec![],
            trace: TraceCtx::default(),
            tenant: String::new(),
        };
        let mut oversized = base.encode();
        push_ext(&mut oversized, EXT_TENANT, &[b'a'; MAX_TENANT_LEN + 1]);
        assert!(matches!(
            Msg::decode(&oversized),
            Err(WireError::Malformed("tenant name too long"))
        ));

        let mut bad_utf8 = base.encode();
        push_ext(&mut bad_utf8, EXT_TENANT, &[0xFF, 0xFE]);
        assert!(matches!(
            Msg::decode(&bad_utf8),
            Err(WireError::Malformed("tenant name"))
        ));

        // Exactly at the cap is fine.
        let mut at_cap = base.encode();
        push_ext(&mut at_cap, EXT_TENANT, &[b'a'; MAX_TENANT_LEN]);
        match Msg::decode(&at_cap).unwrap() {
            Msg::Query { tenant, .. } => assert_eq!(tenant.len(), MAX_TENANT_LEN),
            other => panic!("{other:?}"),
        }
    }

    /// The encoder clamps an over-long tenant name on a char boundary
    /// rather than emitting an extension its peers must reject.
    #[test]
    fn encoder_clamps_overlong_tenant_names() {
        let long = "é".repeat(MAX_TENANT_LEN); // 2 bytes per char
        let msg = Msg::Query {
            id: 1,
            top_k: 0,
            deadline_ms: 0,
            slice_index: 0,
            slice_count: 0,
            query: vec![],
            trace: TraceCtx::default(),
            tenant: long,
        };
        match Msg::decode(&msg.encode()).unwrap() {
            Msg::Query { tenant, .. } => {
                assert!(tenant.len() <= MAX_TENANT_LEN);
                assert!(tenant.chars().all(|c| c == 'é'));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bit_flip_is_caught_by_crc() {
        let framed = frame(&Msg::Ping { nonce: 5 }.encode());
        for i in 4..framed.len() - 4 {
            let mut bad = framed.clone();
            bad[i] ^= 0x40;
            let mut cursor = &bad[..];
            assert!(
                matches!(read_msg(&mut cursor), Err(WireError::BadCrc { .. })),
                "flip at {i}"
            );
        }
    }

    #[test]
    fn truncation_is_typed_not_a_panic() {
        let framed = frame(&Msg::Ping { nonce: 5 }.encode());
        for cut in 1..framed.len() {
            let mut cursor = &framed[..cut];
            assert!(
                matches!(read_msg(&mut cursor), Err(WireError::Truncated)),
                "cut at {cut}"
            );
        }
        let mut empty: &[u8] = &[];
        assert!(matches!(read_msg(&mut empty), Err(WireError::Eof)));
    }

    #[test]
    fn oversized_length_prefix_rejected_before_allocation() {
        let mut framed = frame(&Msg::Ping { nonce: 5 }.encode());
        framed[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut cursor = &framed[..];
        assert!(matches!(read_msg(&mut cursor), Err(WireError::TooLarge(_))));
    }

    #[test]
    fn budget_ms_zero_means_no_deadline() {
        assert_eq!(budget_ms(None), Some(0));
        assert_eq!(
            budget_ms(Some(Instant::now() - Duration::from_millis(1))),
            None
        );
        let ms = budget_ms(Some(Instant::now() + Duration::from_secs(2))).unwrap();
        assert!(ms > 1500 && ms <= 2000, "{ms}");
    }
}
