//! Checkpointed search: a durable journal of completed partition
//! results so a long whole-database scan (the paper's Scenario 1 at
//! Swiss-Prot scale) survives a process crash.
//!
//! ## Journal format (little-endian)
//!
//! ```text
//! magic "SWJL" | u32 version=1
//! records: u32 payload_len | payload | u32 payload_crc
//!   payload = u8 kind | body
//!   kind 1 (meta):  u32 parts | u64 db_len | u64 db_residues | u32 query_crc
//!   kind 2 (chunk): u32 chunk | u64 start | u64 end | u64 n_hits
//!                   | n_hits × (u64 db_index | i32 score | u8 precision)
//! ```
//!
//! Every record is CRC32-framed ([`swsimd_seq::integrity`]) and
//! fsync'd before the search moves on, so the journal on disk is
//! always a valid prefix of the completed work plus at most one torn
//! tail record.
//!
//! ## Recovery policy
//!
//! [`read_journal`] verifies the header and the meta record strictly —
//! a journal whose identity cannot be established is a typed
//! [`JournalError`], never a panic. *After* the meta record, a torn or
//! corrupt frame ends replay: everything before it is trusted (it was
//! CRC-verified), everything after it is discarded and simply
//! **recomputed** by [`resume_search`]. Corruption can therefore cost
//! work, but never correctness — resumed results are bit-identical to
//! an uninterrupted run because every journaled chunk is re-validated
//! against the database partition map before being trusted, and
//! recomputed chunks use the same deterministic kernels.

use std::io::{self, Write};
use std::ops::Range;
use std::path::Path;

use swsimd_core::{AlignerBuilder, Hit, KernelStats, Precision};
use swsimd_seq::integrity::crc32;
use swsimd_seq::Database;

use crate::fault::FaultStats;
use crate::pool::{fan_out, merge, Chunk, PoolConfig, SearchOutput};

const MAGIC: &[u8; 4] = b"SWJL";
/// Journal format version written by [`JournalWriter`].
pub const JOURNAL_VERSION: u32 = 1;

const KIND_META: u8 = 1;
const KIND_CHUNK: u8 = 2;

/// Errors from reading or resuming a journal.
#[derive(Debug)]
pub enum JournalError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Missing or wrong magic bytes.
    BadMagic,
    /// Unsupported journal version.
    BadVersion(u32),
    /// The journal's identity (header or meta record) is damaged and
    /// nothing in it can be trusted.
    Corrupt(&'static str),
    /// The journal is intact but belongs to a different search
    /// (database or query mismatch) and must not be replayed.
    Mismatch(&'static str),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::BadMagic => write!(f, "not a swsimd search journal"),
            JournalError::BadVersion(v) => write!(f, "unsupported journal version {v}"),
            JournalError::Corrupt(what) => write!(f, "corrupt journal: {what}"),
            JournalError::Mismatch(what) => {
                write!(f, "journal does not match this search: {what}")
            }
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// Identity of the search a journal belongs to. Replay refuses to
/// proceed unless every field matches the resuming search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JournalMeta {
    /// Partition count the chunk ranges were derived from
    /// (`db.partition(parts)` is deterministic given the database).
    pub parts: usize,
    /// Database sequence count at journal time.
    pub db_len: usize,
    /// Database residue count at journal time.
    pub db_residues: usize,
    /// CRC32 of the encoded query.
    pub query_crc: u32,
}

impl JournalMeta {
    /// Compute the meta record for a search.
    pub fn for_search(query: &[u8], db: &Database, parts: usize) -> Self {
        Self {
            parts: parts.max(1),
            db_len: db.len(),
            db_residues: db.total_residues(),
            query_crc: crc32(query),
        }
    }
}

/// One completed chunk recovered from (or written to) a journal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalEntry {
    /// Index of the chunk in the partition map.
    pub chunk: usize,
    /// Database range the chunk covers.
    pub range: Range<usize>,
    /// One hit per sequence in `range`, globally indexed.
    pub hits: Vec<Hit>,
}

/// A verified journal: identity plus every intact chunk record.
#[derive(Debug)]
pub struct Journal {
    /// Search identity.
    pub meta: JournalMeta,
    /// Intact chunk records, in journal order.
    pub entries: Vec<JournalEntry>,
    /// True if replay stopped early at a torn or corrupt frame (the
    /// remainder of the file was discarded).
    pub truncated: bool,
}

/// What `resume_search` replayed versus recomputed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResumeStats {
    /// Chunks replayed from the journal (work saved).
    pub replayed_chunks: usize,
    /// Chunks recomputed because the journal lacked them.
    pub recomputed_chunks: usize,
    /// Hits recovered from the journal.
    pub replayed_hits: usize,
}

/// A sink a journal can be written to: any writer, plus a durability
/// barrier. Files fsync; in-memory sinks are trivially durable.
pub trait JournalSink: Write {
    /// Flush written records to stable storage.
    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl JournalSink for std::fs::File {
    fn sync(&mut self) -> io::Result<()> {
        self.sync_data()
    }
}

impl JournalSink for Vec<u8> {}

impl<W: JournalSink> JournalSink for crate::fault::FaultyWriter<W> {
    fn sync(&mut self) -> io::Result<()> {
        if self.is_dead() {
            return Err(io::Error::other("fault-injected dead writer"));
        }
        self.get_mut().sync()
    }
}

// ---------------------------------------------------------------------------
// Encoding helpers (dependency-free little-endian cursor).

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.0.len() < n {
            return None;
        }
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Some(head)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }

    fn i32(&mut self) -> Option<i32> {
        self.take(4)
            .map(|b| i32::from_le_bytes(b.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }

    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

fn precision_code(p: Precision) -> u8 {
    match p {
        Precision::I8 => 0,
        Precision::I16 => 1,
        Precision::I32 => 2,
        Precision::Adaptive => 3,
    }
}

fn precision_from(code: u8) -> Option<Precision> {
    Some(match code {
        0 => Precision::I8,
        1 => Precision::I16,
        2 => Precision::I32,
        3 => Precision::Adaptive,
        _ => return None,
    })
}

// ---------------------------------------------------------------------------
// Writing.

/// Append-only writer of CRC-framed journal records. Every record is
/// flushed and [`JournalSink::sync`]'d before `append` returns, so a
/// crash at any instant leaves at most one torn tail record.
pub struct JournalWriter<S: JournalSink> {
    sink: S,
    /// Chunk records appended so far.
    chunks: u64,
}

impl JournalWriter<std::fs::File> {
    /// Create (truncate) a journal file and write its header.
    pub fn create(path: &Path) -> io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Self::new(file)
    }
}

impl<S: JournalSink> JournalWriter<S> {
    /// Write the journal header to a fresh sink.
    pub fn new(mut sink: S) -> io::Result<Self> {
        sink.write_all(MAGIC)?;
        sink.write_all(&JOURNAL_VERSION.to_le_bytes())?;
        sink.flush()?;
        sink.sync()?;
        Ok(Self { sink, chunks: 0 })
    }

    fn frame(&mut self, payload: &[u8]) -> io::Result<()> {
        self.sink.write_all(&(payload.len() as u32).to_le_bytes())?;
        self.sink.write_all(payload)?;
        self.sink.write_all(&crc32(payload).to_le_bytes())?;
        self.sink.flush()?;
        self.sink.sync()
    }

    /// Write the search-identity record (must be the first record).
    pub fn write_meta(&mut self, meta: &JournalMeta) -> io::Result<()> {
        let mut payload = vec![KIND_META];
        put_u32(&mut payload, meta.parts as u32);
        put_u64(&mut payload, meta.db_len as u64);
        put_u64(&mut payload, meta.db_residues as u64);
        put_u32(&mut payload, meta.query_crc);
        self.frame(&payload)
    }

    /// Append one completed chunk's hits, durably.
    pub fn append_chunk(&mut self, entry: &JournalEntry) -> io::Result<()> {
        let mut payload = vec![KIND_CHUNK];
        put_u32(&mut payload, entry.chunk as u32);
        put_u64(&mut payload, entry.range.start as u64);
        put_u64(&mut payload, entry.range.end as u64);
        put_u64(&mut payload, entry.hits.len() as u64);
        for h in &entry.hits {
            put_u64(&mut payload, h.db_index as u64);
            payload.extend_from_slice(&h.score.to_le_bytes());
            payload.push(precision_code(h.precision));
        }
        self.frame(&payload)?;
        self.chunks += 1;
        Ok(())
    }

    /// Chunk records appended so far.
    pub fn chunks(&self) -> u64 {
        self.chunks
    }

    /// Recover the sink (e.g. an in-memory buffer in tests).
    pub fn into_inner(self) -> S {
        self.sink
    }
}

// ---------------------------------------------------------------------------
// Reading.

fn parse_meta(body: &mut Cursor<'_>) -> Result<JournalMeta, JournalError> {
    let parts = body.u32().ok_or(JournalError::Corrupt("meta record"))? as usize;
    let db_len = body.u64().ok_or(JournalError::Corrupt("meta record"))? as usize;
    let db_residues = body.u64().ok_or(JournalError::Corrupt("meta record"))? as usize;
    let query_crc = body.u32().ok_or(JournalError::Corrupt("meta record"))?;
    if !body.is_empty() {
        return Err(JournalError::Corrupt("meta record"));
    }
    Ok(JournalMeta {
        parts,
        db_len,
        db_residues,
        query_crc,
    })
}

fn parse_chunk(body: &mut Cursor<'_>) -> Option<JournalEntry> {
    let chunk = body.u32()? as usize;
    let start = body.u64()? as usize;
    let end = body.u64()? as usize;
    let n_hits = body.u64()? as usize;
    // A CRC-valid record can still carry a hostile count if the writer
    // was buggy; bound it by the bytes actually present (13 per hit).
    if end < start || n_hits != end - start || body.0.len() != n_hits * 13 {
        return None;
    }
    let mut hits = Vec::with_capacity(n_hits);
    for _ in 0..n_hits {
        let db_index = body.u64()? as usize;
        let score = body.i32()?;
        let precision = precision_from(body.u8()?)?;
        hits.push(Hit {
            db_index,
            score,
            precision,
        });
    }
    Some(JournalEntry {
        chunk,
        range: start..end,
        hits,
    })
}

/// Split the next CRC-framed record off `data`. `Ok(None)` means a
/// clean end of journal; `Err(())` a torn or corrupt frame.
#[allow(clippy::result_unit_err)] // internal: () is "stop replay here"
fn next_frame<'a>(data: &mut &'a [u8]) -> Result<Option<&'a [u8]>, ()> {
    if data.is_empty() {
        return Ok(None);
    }
    if data.len() < 4 {
        return Err(());
    }
    let len = u32::from_le_bytes(data[..4].try_into().unwrap()) as usize;
    let Some(framed) = len.checked_add(8) else {
        return Err(());
    };
    if data.len() < framed {
        return Err(());
    }
    let payload = &data[4..4 + len];
    let stored = u32::from_le_bytes(data[4 + len..framed].try_into().unwrap());
    if crc32(payload) != stored {
        return Err(());
    }
    *data = &data[framed..];
    Ok(Some(payload))
}

/// Parse and verify a journal image.
///
/// The header and the meta record must be intact — otherwise the
/// journal's identity is unknown and the result is an error. Chunk
/// records are read until the first torn/corrupt frame, which sets
/// [`Journal::truncated`] and ends replay (the tail is recomputed by
/// [`resume_search`], so a damaged tail costs work, never
/// correctness). Duplicate chunk records keep the first occurrence.
pub fn read_journal(mut data: &[u8]) -> Result<Journal, JournalError> {
    if data.len() < 8 {
        return Err(JournalError::Corrupt("header"));
    }
    if &data[..4] != MAGIC {
        return Err(JournalError::BadMagic);
    }
    let version = u32::from_le_bytes(data[4..8].try_into().unwrap());
    if version != JOURNAL_VERSION {
        return Err(JournalError::BadVersion(version));
    }
    data = &data[8..];

    let first = match next_frame(&mut data) {
        Ok(Some(p)) => p,
        _ => return Err(JournalError::Corrupt("meta record")),
    };
    let mut cur = Cursor(first);
    if cur.u8() != Some(KIND_META) {
        return Err(JournalError::Corrupt("meta record"));
    }
    let meta = parse_meta(&mut cur)?;

    let mut entries: Vec<JournalEntry> = Vec::new();
    let mut truncated = false;
    loop {
        match next_frame(&mut data) {
            Ok(None) => break,
            Err(()) => {
                truncated = true;
                break;
            }
            Ok(Some(payload)) => {
                let mut cur = Cursor(payload);
                match cur.u8() {
                    Some(KIND_CHUNK) => match parse_chunk(&mut cur) {
                        Some(entry) => {
                            if entries.iter().all(|e| e.chunk != entry.chunk) {
                                entries.push(entry);
                            }
                        }
                        None => {
                            truncated = true;
                            break;
                        }
                    },
                    // Unknown record kinds are skipped (forward
                    // compatibility); their CRC already checked out.
                    Some(_) => {}
                    None => {
                        truncated = true;
                        break;
                    }
                }
            }
        }
    }
    Ok(Journal {
        meta,
        entries,
        truncated,
    })
}

/// Read and verify a journal file.
pub fn read_journal_file(path: &Path) -> Result<Journal, JournalError> {
    let data = std::fs::read(path)?;
    read_journal(&data)
}

// ---------------------------------------------------------------------------
// Checkpointed search and resume.

/// Search `chunks` through the pool's fan-out, handing each finished
/// chunk to `each` in chunk order before accepting it. Returns the
/// merge of `done` (chunks finished earlier, e.g. replayed) and the new
/// ones. A search aborted mid-compute surfaces as an I/O error before
/// the aborted chunk reaches `each`, so a journal written by `each`
/// stays a clean prefix of fully computed chunks.
fn search_chunks<F>(
    query: &[u8],
    db: &Database,
    cfg: &PoolConfig,
    make_aligner: &F,
    chunks: &[(usize, Range<usize>)],
    mut done: Vec<Chunk>,
    mut each: impl FnMut(usize, &Range<usize>, &[Hit]) -> io::Result<()>,
) -> io::Result<SearchOutput>
where
    F: Fn() -> AlignerBuilder + Sync,
{
    fan_out(query, db, cfg, make_aligner, chunks, |chunk, range, out| {
        let out = out
            .map_err(|e| io::Error::other(format!("search aborted before journal append: {e}")))?;
        each(chunk, range, &out.0)?;
        done.push(out);
        io::Result::Ok(())
    })?;
    Ok(merge(done))
}

/// Append one computed chunk to `journal`, behind the fault plan's
/// crash hook.
fn append<S: JournalSink>(
    journal: &mut JournalWriter<S>,
    plan: &crate::fault::FaultPlan,
    chunk: usize,
    range: &Range<usize>,
    hits: &[Hit],
) -> io::Result<()> {
    plan.before_journal_append()?;
    journal.append_chunk(&JournalEntry {
        chunk,
        range: range.clone(),
        hits: hits.to_vec(),
    })
}

/// Like [`crate::parallel_search`], but journals every completed
/// chunk durably into `journal` before finishing. If the process dies
/// mid-search (or `journal` I/O fails — the error is propagated), the
/// journal on disk holds every completed chunk and [`resume_search`]
/// can finish the remaining work.
///
/// Results are bit-identical to `parallel_search` with the same
/// `cfg.threads`: the same partition map, the same kernels, the same
/// isolation and watchdog, the same deterministic merge.
pub fn checkpointed_search<S, F>(
    query: &[u8],
    db: &Database,
    cfg: &PoolConfig,
    make_aligner: F,
    journal: &mut JournalWriter<S>,
) -> io::Result<SearchOutput>
where
    S: JournalSink,
    F: Fn() -> AlignerBuilder + Sync,
{
    let threads = cfg.threads.max(1);
    journal.write_meta(&JournalMeta::for_search(query, db, threads))?;
    let chunks: Vec<_> = db.partition(threads).into_iter().enumerate().collect();
    search_chunks(
        query,
        db,
        cfg,
        &make_aligner,
        &chunks,
        Vec::new(),
        |chunk, range, hits| append(journal, &cfg.fault_plan, chunk, range, hits),
    )
}

/// Validate a journal's identity and every entry against the search
/// it claims to checkpoint; returns the deterministic partition map
/// replay will use.
fn validate_journal(
    journal: &Journal,
    query: &[u8],
    db: &Database,
) -> Result<Vec<Range<usize>>, JournalError> {
    let meta = &journal.meta;
    if meta.db_len != db.len() || meta.db_residues != db.total_residues() {
        return Err(JournalError::Mismatch("database changed"));
    }
    if meta.query_crc != crc32(query) {
        return Err(JournalError::Mismatch("query changed"));
    }
    let ranges = db.partition(meta.parts.max(1));
    for e in &journal.entries {
        let expected = ranges
            .get(e.chunk)
            .ok_or(JournalError::Mismatch("chunk index out of range"))?;
        if &e.range != expected {
            return Err(JournalError::Mismatch("chunk range drifted"));
        }
        if e.hits.len() != e.range.len() {
            return Err(JournalError::Corrupt("chunk hit count"));
        }
        if e.hits.iter().any(|h| !e.range.contains(&h.db_index)) {
            return Err(JournalError::Corrupt("chunk hit index"));
        }
    }
    Ok(ranges)
}

/// Chunks a validated journal replays as finished results, the chunks
/// still to compute, and the tally.
type Replay = (Vec<Chunk>, Vec<(usize, Range<usize>)>, ResumeStats);

fn replay(journal: &Journal, query: &[u8], db: &Database) -> Result<Replay, JournalError> {
    let ranges = validate_journal(journal, query, db)?;
    let missing: Vec<_> = ranges
        .into_iter()
        .enumerate()
        .filter(|(c, _)| journal.entries.iter().all(|e| e.chunk != *c))
        .collect();
    let stats = ResumeStats {
        replayed_chunks: journal.entries.len(),
        recomputed_chunks: missing.len(),
        replayed_hits: journal.entries.iter().map(|e| e.hits.len()).sum(),
    };
    swsimd_obs::event!(
        "journal_replay",
        "replayed_chunks" => stats.replayed_chunks,
        "recomputed_chunks" => stats.recomputed_chunks,
        "truncated" => journal.truncated
    );
    let done = journal
        .entries
        .iter()
        .map(|e| {
            (
                e.hits.clone(),
                KernelStats::default(),
                FaultStats::default(),
            )
        })
        .collect();
    Ok((done, missing, stats))
}

/// Finish a search from a verified [`Journal`]: replay the journaled
/// chunks (after validating each against the deterministic partition
/// map) and recompute only the missing ones. The returned hits are
/// bit-identical to an uninterrupted [`crate::parallel_search`] /
/// [`checkpointed_search`] run; `SearchOutput::stats` covers only the
/// recomputed chunks (replayed ones cost no cell updates — that is
/// the point). Nothing is written: see [`durable_search`] for a resume
/// that checkpoints its own progress.
pub fn resume_search<F>(
    journal: &Journal,
    query: &[u8],
    db: &Database,
    cfg: &PoolConfig,
    make_aligner: F,
) -> Result<(SearchOutput, ResumeStats), JournalError>
where
    F: Fn() -> AlignerBuilder + Sync,
{
    let (done, missing, stats) = replay(journal, query, db)?;
    let out = search_chunks(query, db, cfg, &make_aligner, &missing, done, |_, _, _| {
        Ok(())
    })?;
    Ok((out, stats))
}

/// Run one search durably through the journal file at `path`, the
/// single resume-or-start entry point:
///
/// * no file: a fresh [`checkpointed_search`] into `path`;
/// * a journal of this search: a durable resume. The verified prefix
///   is first rewritten through an atomic rename (header, meta and the
///   replayed chunks land in a sibling `.tmp` file that then replaces
///   `path`), which also sheds any torn tail record; recomputed chunks
///   are then appended as they complete, so a crash during the resume
///   still grows the checkpoint and repeated crash/resume cycles make
///   monotone progress;
/// * an unusable journal (unreadable identity, another search's): the
///   typed [`JournalError`], leaving the file untouched — the caller
///   decides whether to delete it and call again.
///
/// On success the file is removed and the [`ResumeStats`] say what was
/// replayed (`None` for a fresh search). An interrupted search
/// (cancellation, crash fault, I/O failure) returns
/// [`JournalError::Io`] and keeps the file for the next call.
///
/// `on_chunk(chunk, hits)` fires for every replayed chunk, then after
/// each computed chunk's append, in ascending contiguous chunk order —
/// a chunk is only announced once it is resumable from disk, so
/// `chunk + 1` is a monotone stream cursor.
pub fn durable_search<F>(
    path: &Path,
    query: &[u8],
    db: &Database,
    cfg: &PoolConfig,
    make_aligner: F,
    on_chunk: &mut dyn FnMut(usize, &[Hit]),
) -> Result<(SearchOutput, Option<ResumeStats>), JournalError>
where
    F: Fn() -> AlignerBuilder + Sync,
{
    let (mut writer, (done, missing, stats)) = if path.exists() {
        let journal = read_journal_file(path)?;
        let (done, missing, stats) = replay(&journal, query, db)?;
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        let mut writer = JournalWriter::create(&tmp)?;
        writer.write_meta(&journal.meta)?;
        for e in &journal.entries {
            writer.append_chunk(e)?;
        }
        std::fs::rename(&tmp, path)?;
        for e in &journal.entries {
            on_chunk(e.chunk, &e.hits);
        }
        (writer, (done, missing, Some(stats)))
    } else {
        let threads = cfg.threads.max(1);
        let mut writer = JournalWriter::create(path)?;
        writer.write_meta(&JournalMeta::for_search(query, db, threads))?;
        let chunks = db.partition(threads).into_iter().enumerate().collect();
        (writer, (Vec::new(), chunks, None))
    };
    let out = search_chunks(
        query,
        db,
        cfg,
        &make_aligner,
        &missing,
        done,
        |chunk, range, hits| {
            append(&mut writer, &cfg.fault_plan, chunk, range, hits)?;
            on_chunk(chunk, hits);
            Ok(())
        },
    )?;
    drop(writer);
    let _ = std::fs::remove_file(path);
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::pool::parallel_search;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use swsimd_core::Aligner;
    use swsimd_matrices::{blosum62, Alphabet, PROTEIN_LETTERS};
    use swsimd_seq::SeqRecord;

    fn small_db(n: usize, seed: u64) -> Database {
        let mut rng = StdRng::seed_from_u64(seed);
        let records: Vec<SeqRecord> = (0..n)
            .map(|i| {
                let l = rng.gen_range(5..80);
                let s: Vec<u8> = (0..l)
                    .map(|_| PROTEIN_LETTERS[rng.gen_range(0..20)])
                    .collect();
                SeqRecord::new(format!("s{i}"), s)
            })
            .collect();
        Database::from_records(records, &Alphabet::protein())
    }

    fn builder() -> AlignerBuilder {
        Aligner::builder().matrix(blosum62())
    }

    fn cfg(threads: usize) -> PoolConfig {
        PoolConfig {
            threads,
            ..PoolConfig::default()
        }
    }

    #[test]
    fn checkpointed_matches_parallel() {
        let db = small_db(50, 21);
        let q = Alphabet::protein().encode(b"MKVLAADTWGHKDDTWGHK");
        let oracle = parallel_search(&q, &db, &cfg(3), builder);
        let mut jw = JournalWriter::new(Vec::new()).unwrap();
        let out = checkpointed_search(&q, &db, &cfg(3), builder, &mut jw).unwrap();
        assert_eq!(out.hits, oracle.hits);
        assert_eq!(jw.chunks() as usize, db.partition(3).len());
    }

    #[test]
    fn full_journal_resumes_without_recompute() {
        let db = small_db(40, 22);
        let q = Alphabet::protein().encode(b"MKVLAADTW");
        let mut jw = JournalWriter::new(Vec::new()).unwrap();
        let oracle = checkpointed_search(&q, &db, &cfg(4), builder, &mut jw).unwrap();
        let journal = read_journal(&jw.into_inner()).unwrap();
        assert!(!journal.truncated);
        let (resumed, stats) = resume_search(&journal, &q, &db, &cfg(4), builder).unwrap();
        assert_eq!(resumed.hits, oracle.hits);
        assert_eq!(stats.recomputed_chunks, 0);
        assert_eq!(stats.replayed_hits, db.len());
        assert_eq!(resumed.stats.cells, 0, "no cells recomputed");
    }

    #[test]
    fn crash_mid_search_resumes_bit_identical() {
        let db = small_db(60, 23);
        let q = Alphabet::protein().encode(b"MKVLAADTWGHKDDTWGHK");
        let oracle = parallel_search(&q, &db, &cfg(4), builder);
        let n_chunks = db.partition(4).len();
        for survive in 0..n_chunks {
            let mut jw = JournalWriter::new(Vec::new()).unwrap();
            let crash_cfg = PoolConfig {
                threads: 4,
                fault_plan: FaultPlan::new().crash_after_chunks(survive as u32),
                ..PoolConfig::default()
            };
            let err = checkpointed_search(&q, &db, &crash_cfg, builder, &mut jw);
            assert!(err.is_err(), "crash at chunk {survive} should surface");
            let journal = read_journal(&jw.into_inner()).unwrap();
            assert_eq!(journal.entries.len(), survive);
            let (resumed, stats) = resume_search(&journal, &q, &db, &cfg(4), builder).unwrap();
            assert_eq!(resumed.hits, oracle.hits, "crash after {survive} chunks");
            assert_eq!(stats.replayed_chunks, survive);
            assert_eq!(stats.recomputed_chunks, n_chunks - survive);
        }
    }

    /// Crash-loop coverage: kill the search at two *different*
    /// checkpoint boundaries back-to-back — once during the initial
    /// checkpointed run, once during the first resume — and prove the
    /// second resume is still bit-identical to an uninterrupted run.
    /// The durable resume must grow the journal between crashes
    /// (monotone progress), not replay the same prefix forever.
    #[test]
    fn back_to_back_crashes_resume_bit_identical() {
        let db = small_db(60, 31);
        let q = Alphabet::protein().encode(b"MKVLAADTWGHKDDTWGHK");
        let oracle = parallel_search(&q, &db, &cfg(4), builder);
        let n_chunks = db.partition(4).len();
        assert!(n_chunks >= 3, "need at least three checkpoint boundaries");

        let dir = std::env::temp_dir().join(format!("swsimd-double-crash-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("crashloop.swjl");

        // Crash #1: initial run dies after checkpointing one chunk.
        let mut jw = JournalWriter::create(&path).unwrap();
        let crash1 = PoolConfig {
            threads: 4,
            fault_plan: FaultPlan::new().crash_after_chunks(1),
            ..PoolConfig::default()
        };
        assert!(checkpointed_search(&q, &db, &crash1, builder, &mut jw).is_err());
        drop(jw);
        assert_eq!(read_journal_file(&path).unwrap().entries.len(), 1);

        // Crash #2: the resume itself dies one checkpoint later — a
        // different boundary than the first crash.
        let crash2 = PoolConfig {
            threads: 4,
            fault_plan: FaultPlan::new().crash_after_chunks(1),
            ..PoolConfig::default()
        };
        let died = durable_search(&path, &q, &db, &crash2, builder, &mut |_, _| {});
        assert!(died.is_err(), "second crash must surface");
        let grown = read_journal_file(&path).unwrap();
        assert_eq!(
            grown.entries.len(),
            2,
            "interrupted resume must have checkpointed its progress"
        );

        // Second resume: finishes clean and matches the oracle bit
        // for bit, replaying the work both crashed runs banked. The
        // journal is read back when the last chunk is announced (the
        // file is removed once the search returns).
        let mut finished = None;
        let (out, stats) = durable_search(&path, &q, &db, &cfg(4), builder, &mut |chunk, _| {
            if chunk + 1 == n_chunks {
                finished = Some(read_journal_file(&path).unwrap());
            }
        })
        .unwrap();
        let stats = stats.expect("resumed from the journal");
        assert_eq!(out.hits, oracle.hits, "second resume must be bit-identical");
        assert_eq!(stats.replayed_chunks, 2);
        assert_eq!(stats.recomputed_chunks, n_chunks - 2);
        assert_eq!(
            finished.unwrap().entries.len(),
            n_chunks,
            "journal holds every chunk"
        );
        assert!(!path.exists(), "a finished search removes its journal");
    }

    /// The durable resume's rename step sheds a torn tail record, so
    /// fresh checkpoints are never appended into unreachable space.
    #[test]
    fn durable_resume_sheds_torn_tail() {
        let db = small_db(40, 32);
        let q = Alphabet::protein().encode(b"MKVLAADTW");
        let oracle = parallel_search(&q, &db, &cfg(3), builder);
        let mut jw = JournalWriter::new(Vec::new()).unwrap();
        checkpointed_search(&q, &db, &cfg(3), builder, &mut jw).unwrap();
        let full = jw.into_inner();
        // Tear mid-way through the final record.
        let torn = &full[..full.len() - 7];
        let journal = read_journal(torn).unwrap();
        assert!(journal.truncated);

        let dir = std::env::temp_dir().join(format!("swsimd-torn-resume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.swjl");
        std::fs::write(&path, torn).unwrap();
        let n_chunks = db.partition(3).len();
        let mut reread = None;
        let (out, _) = durable_search(&path, &q, &db, &cfg(3), builder, &mut |chunk, _| {
            if chunk + 1 == n_chunks {
                reread = Some(read_journal_file(&path).unwrap());
            }
        })
        .unwrap();
        assert_eq!(out.hits, oracle.hits);
        let reread = reread.unwrap();
        assert!(!reread.truncated, "rewritten journal must be clean");
        assert_eq!(reread.entries.len(), n_chunks);
    }

    #[test]
    fn torn_tail_is_recomputed_not_trusted() {
        let db = small_db(30, 24);
        let q = Alphabet::protein().encode(b"MKVLAADTW");
        let mut jw = JournalWriter::new(Vec::new()).unwrap();
        let oracle = checkpointed_search(&q, &db, &cfg(3), builder, &mut jw).unwrap();
        let full = jw.into_inner();
        // Tear the final record at every possible byte boundary.
        let intact = read_journal(&full).unwrap();
        let last_entry_bytes = 50; // at least the tail frame header
        for cut in full.len() - last_entry_bytes..full.len() {
            let journal = match read_journal(&full[..cut]) {
                Ok(j) => j,
                Err(_) => continue, // cut reached into the meta record
            };
            assert!(journal.truncated || journal.entries.len() <= intact.entries.len());
            let (resumed, _) = resume_search(&journal, &q, &db, &cfg(3), builder).unwrap();
            assert_eq!(resumed.hits, oracle.hits, "cut at {cut}");
        }
    }

    #[test]
    fn bit_flips_never_accepted_silently() {
        let db = small_db(25, 25);
        let q = Alphabet::protein().encode(b"MKVLAADTW");
        let mut jw = JournalWriter::new(Vec::new()).unwrap();
        let oracle = checkpointed_search(&q, &db, &cfg(2), builder, &mut jw).unwrap();
        let full = jw.into_inner();
        for byte in 0..full.len() {
            let mut flipped = full.clone();
            flipped[byte] ^= 0x04;
            // Either the journal is rejected outright, or the flip is
            // confined to a discarded tail and resume still produces
            // the oracle answer. Silent wrong data is the only failure.
            if let Ok(journal) = read_journal(&flipped) {
                if let Ok((resumed, _)) = resume_search(&journal, &q, &db, &cfg(2), builder) {
                    assert_eq!(resumed.hits, oracle.hits, "flip at byte {byte}");
                }
            }
        }
    }

    #[test]
    fn mismatched_journal_refused() {
        let db = small_db(20, 26);
        let other_db = small_db(20, 27);
        let q = Alphabet::protein().encode(b"MKVLAADTW");
        let q2 = Alphabet::protein().encode(b"WWWWWW");
        let mut jw = JournalWriter::new(Vec::new()).unwrap();
        checkpointed_search(&q, &db, &cfg(2), builder, &mut jw).unwrap();
        let journal = read_journal(&jw.into_inner()).unwrap();
        assert!(matches!(
            resume_search(&journal, &q2, &db, &cfg(2), builder).map(|_| ()),
            Err(JournalError::Mismatch("query changed"))
        ));
        assert!(matches!(
            resume_search(&journal, &q, &other_db, &cfg(2), builder).map(|_| ()),
            Err(JournalError::Mismatch(_))
        ));
    }

    #[test]
    fn hostile_journals_are_typed_errors() {
        assert!(matches!(
            read_journal(b""),
            Err(JournalError::Corrupt("header"))
        ));
        assert!(matches!(
            read_journal(b"NOPEnope"),
            Err(JournalError::BadMagic)
        ));
        let mut v = Vec::new();
        v.extend_from_slice(MAGIC);
        v.extend_from_slice(&9u32.to_le_bytes());
        assert!(matches!(read_journal(&v), Err(JournalError::BadVersion(9))));
        // Valid header, no meta record.
        let mut v = Vec::new();
        v.extend_from_slice(MAGIC);
        v.extend_from_slice(&JOURNAL_VERSION.to_le_bytes());
        assert!(matches!(
            read_journal(&v),
            Err(JournalError::Corrupt("meta record"))
        ));
        // Frame claiming u32::MAX payload length.
        v.extend_from_slice(&u32::MAX.to_le_bytes());
        v.extend_from_slice(&[0; 16]);
        assert!(matches!(
            read_journal(&v),
            Err(JournalError::Corrupt("meta record"))
        ));
    }

    #[test]
    fn journal_file_roundtrip() {
        let db = small_db(15, 28);
        let q = Alphabet::protein().encode(b"MKVLAADTW");
        let dir = std::env::temp_dir().join("swsimd_journal_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.swjl");
        let mut jw = JournalWriter::create(&path).unwrap();
        let oracle = checkpointed_search(&q, &db, &cfg(2), builder, &mut jw).unwrap();
        drop(jw);
        let journal = read_journal_file(&path).unwrap();
        let (resumed, stats) = resume_search(&journal, &q, &db, &cfg(2), builder).unwrap();
        assert_eq!(resumed.hits, oracle.hits);
        assert_eq!(stats.recomputed_chunks, 0);
        std::fs::remove_file(&path).ok();
    }

    /// Journaled searches run the same stall watchdog as the pool: a
    /// wedged chunk is reaped and recomputed exactly.
    #[test]
    fn checkpointed_search_honors_stall_timeout() {
        let db = small_db(40, 33);
        let q = Alphabet::protein().encode(b"MKVLAADTWGHK");
        let wedged = || PoolConfig {
            threads: 2,
            fault_plan: FaultPlan::new().delay_at(0, std::time::Duration::from_millis(300)),
            stall_timeout: Some(std::time::Duration::from_millis(50)),
            ..PoolConfig::default()
        };
        let pooled = parallel_search(&q, &db, &wedged(), builder);
        let mut jw = JournalWriter::new(Vec::new()).unwrap();
        let journaled = checkpointed_search(&q, &db, &wedged(), builder, &mut jw).unwrap();
        assert_eq!(journaled.hits, pooled.hits);
        assert_eq!(pooled.faults.watchdog_fires, 1);
        assert_eq!(
            journaled.faults.watchdog_fires,
            pooled.faults.watchdog_fires
        );
    }

    fn temp_journal(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("swsimd-durable-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn durable_search_starts_fresh_and_removes_its_journal() {
        let db = small_db(30, 34);
        let q = Alphabet::protein().encode(b"MKVLAADTW");
        let oracle = parallel_search(&q, &db, &cfg(3), builder);
        let path = temp_journal("fresh.swjl");
        let mut announced = Vec::new();
        let (out, resumed) = durable_search(&path, &q, &db, &cfg(3), builder, &mut |c, _| {
            announced.push(c)
        })
        .unwrap();
        assert_eq!(out.hits, oracle.hits);
        assert!(resumed.is_none(), "no journal to resume");
        assert_eq!(announced, (0..db.partition(3).len()).collect::<Vec<_>>());
        assert!(!path.exists());
    }

    #[test]
    fn durable_search_leaves_an_unusable_journal_untouched() {
        let db = small_db(20, 35);
        let q = Alphabet::protein().encode(b"MKVLAADTW");
        let path = temp_journal("foreign.swjl");
        let mut jw = JournalWriter::create(&path).unwrap();
        checkpointed_search(&q, &db, &cfg(2), builder, &mut jw).unwrap();
        drop(jw);
        let before = std::fs::read(&path).unwrap();
        let other = Alphabet::protein().encode(b"WWWWWW");
        let err = durable_search(&path, &other, &db, &cfg(2), builder, &mut |_, _| {});
        assert!(matches!(err, Err(JournalError::Mismatch("query changed"))));
        assert_eq!(std::fs::read(&path).unwrap(), before, "file untouched");
        std::fs::remove_file(&path).ok();
    }
}
