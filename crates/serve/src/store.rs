//! Crash-safe persistent cell cache: an append-only, content-addressed,
//! checksummed log of `(core × benchmark × scaled machine)` outcomes.
//!
//! The in-memory cell LRU ([`crate::cache`]) dies with the process; this
//! store is the tier under it, so a daemon restart — or a fresh CI run
//! pointed at the same `--cache-dir` — starts warm. The design leans on
//! the same property that makes the serving cache sound in the first
//! place: cell outcomes are *byte-deterministic* functions of their
//! fingerprinted spec ([`fo4depth_study::cells::CellSpec`]), so a record
//! read back from disk is indistinguishable from a fresh simulation.
//!
//! # On-disk format
//!
//! `cells.log` is a 24-byte header followed by back-to-back records:
//!
//! ```text
//! header:  "FO4DCELL" | format u32 LE | cell-schema u32 LE | log-id u64 LE
//! record:  fingerprint u64 LE | payload-len u32 LE | CRC32C u32 LE | payload
//! ```
//!
//! The CRC32C covers the fingerprint, the length, and the payload, so a
//! torn header is as detectable as a torn payload. Appending is the only
//! mutation; replacing a cell's value appends a newer record (last record
//! wins on recovery, and [`compact`] rewrites the log without the losers).
//!
//! `cells.idx` is a sidecar snapshot of the in-memory index (fingerprint
//! → record offset), refreshed every [`StoreConfig::index_interval`]
//! appends via write-then-rename. It is an *accelerator*, never an
//! authority: it names the log it was built from by log-id and covered
//! length, and a stale, torn, or missing sidecar merely means the tail
//! (or whole log) is re-scanned at open.
//!
//! # Crash safety and degradation
//!
//! * **Recovery never refuses to start.** Open scans forward and
//!   truncates at the first short or checksum-failing record; what was
//!   dropped is counted ([`StoreStats::dropped_bytes`]) and reported in
//!   `/metrics`. A foreign or stale-schema file is reset rather than
//!   trusted.
//! * **Appends are write-behind and bounded.** Producers enqueue encoded
//!   records; a full queue sheds the write (the simulation result is
//!   still served from memory). A failed append rewinds the log to its
//!   pre-append length so one bad write cannot poison the tail; if even
//!   the rewind fails the store flips to *degraded* and stops persisting
//!   — serving never stops.
//! * **Reads re-verify.** Every load re-checks the record CRC and
//!   re-decodes the payload; bit rot yields a cache miss (and a counter),
//!   never a corrupt response.
//! * **Reads never wait on the disk's write side.** A load is a
//!   positioned read of an indexed (hence fully written) record and takes
//!   no lock the persister holds, so a request thread never queues behind
//!   an append, an fsync, or a sidecar snapshot.
//! * **`--fsync always|batch|off`** trades durability for append latency:
//!   per-record `fdatasync`, batched sync (on queue drain or every
//!   [`BATCH_FSYNC_EVERY`] records), or none.
//!
//! Every I/O step is routed through an [`IoFault`] hook so tests can
//! inject `ENOSPC`, short writes, and fsync failures deterministically
//! ([`ScriptedFaults`]).

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use fo4depth_pipeline::{Counters, SimResult, StallCause};
use fo4depth_study::cells::CELL_SCHEMA;
use fo4depth_study::sim::BenchOutcome;
use fo4depth_study::sweep::CoreKind;
use fo4depth_uarch::cache::CacheStats as CoreCacheStats;
use fo4depth_uarch::observe::OccupancyHist;
use fo4depth_uarch::BtbStats;
use fo4depth_util::crc::crc32c;
use fo4depth_util::fsio;
use fo4depth_workload::BenchClass;

/// The append-only log's file name inside the cache directory.
pub const LOG_FILE: &str = "cells.log";
/// The sidecar index's file name inside the cache directory.
pub const INDEX_FILE: &str = "cells.idx";

const LOG_MAGIC: &[u8; 8] = b"FO4DCELL";
const IDX_MAGIC: &[u8; 8] = b"FO4DIDX\0";
/// On-disk framing version (bump on incompatible layout changes).
/// Format 2 added the core-tag byte to the outcome payload
/// ([`encode_outcome_tagged`]); format-1 logs are reset at open.
const LOG_FORMAT: u32 = 2;
/// Log header length in bytes.
pub const HEADER_LEN: u64 = 24;
/// Record framing length (fingerprint + length + CRC) in bytes.
pub const RECORD_OVERHEAD: usize = 16;
/// Largest accepted payload; longer lengths are treated as corruption
/// (a real cell payload is a few KiB even with full counters).
pub const MAX_PAYLOAD: u32 = 1 << 24;
/// Under `FsyncPolicy::Batch`, sync at the latest after this many appends.
pub const BATCH_FSYNC_EVERY: u64 = 32;

/// When `fo4depth serve` pushes bytes to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// `fdatasync` after every appended record: a record acknowledged to
    /// the queue survives `kill -9` once the persister has written it.
    Always,
    /// Sync when the write-behind queue drains, or at the latest every
    /// [`BATCH_FSYNC_EVERY`] records (the default).
    #[default]
    Batch,
    /// Never sync; the OS flushes at its leisure. Recovery still holds —
    /// whatever prefix reached the disk is intact by CRC.
    Off,
}

impl FsyncPolicy {
    /// Parses the `--fsync` flag spelling.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "always" => Some(Self::Always),
            "batch" => Some(Self::Batch),
            "off" => Some(Self::Off),
            _ => None,
        }
    }

    /// The flag spelling back.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Always => "always",
            Self::Batch => "batch",
            Self::Off => "off",
        }
    }
}

// ---------------------------------------------------------------------------
// Record framing
// ---------------------------------------------------------------------------

/// Why a record (or payload) failed to decode. `Truncated` means the
/// input ended mid-record — the expected shape of a crashed writer's
/// tail; `Corrupt` means the bytes are present but inconsistent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordError {
    /// The input ends before the record does.
    Truncated,
    /// Checksum mismatch, impossible length, or malformed payload.
    Corrupt,
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::Truncated => "truncated record",
            Self::Corrupt => "corrupt record",
        })
    }
}

/// Frames `payload` as one log record.
#[must_use]
pub fn encode_record(fingerprint: u64, payload: &[u8]) -> Vec<u8> {
    assert!(payload.len() <= MAX_PAYLOAD as usize, "payload too large");
    let mut out = Vec::with_capacity(RECORD_OVERHEAD + payload.len());
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let mut crc = crc32c(&out[..12]);
    crc = fo4depth_util::crc::crc32c_append(crc, payload);
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Decodes one record from the front of `bytes`, returning the
/// fingerprint, the payload, and the bytes consumed.
///
/// # Errors
///
/// [`RecordError::Truncated`] when `bytes` ends mid-record,
/// [`RecordError::Corrupt`] on an impossible length or CRC mismatch.
/// Never panics, whatever the input.
pub fn decode_record(bytes: &[u8]) -> Result<(u64, &[u8], usize), RecordError> {
    if bytes.len() < RECORD_OVERHEAD {
        return Err(RecordError::Truncated);
    }
    let fingerprint = u64::from_le_bytes(bytes[0..8].try_into().expect("8 bytes"));
    let len = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if len > MAX_PAYLOAD {
        return Err(RecordError::Corrupt);
    }
    let stored_crc = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
    let total = RECORD_OVERHEAD + len as usize;
    if bytes.len() < total {
        return Err(RecordError::Truncated);
    }
    let payload = &bytes[RECORD_OVERHEAD..total];
    let mut crc = crc32c(&bytes[..12]);
    crc = fo4depth_util::crc::crc32c_append(crc, payload);
    if crc != stored_crc {
        return Err(RecordError::Corrupt);
    }
    Ok((fingerprint, payload, total))
}

// ---------------------------------------------------------------------------
// Outcome payload codec
// ---------------------------------------------------------------------------

/// Payload codec version (independent of the framing version).
/// Version 2 inserted the core-tag byte after the version byte.
const OUTCOME_VERSION: u8 = 2;
/// Sanity cap on decoded occupancy-histogram lengths.
const MAX_HIST_BUCKETS: u32 = 1 << 20;

/// The core-tag byte: which core model produced a persisted outcome.
/// The tag is provenance metadata for `fo4depth cache stat` — loads key
/// on the fingerprint alone (which already covers the core), so tagged
/// and untagged records interoperate.
fn core_tag_byte(core: Option<CoreKind>) -> u8 {
    match core {
        None => 0,
        Some(CoreKind::InOrder) => 1,
        Some(CoreKind::OutOfOrder) => 2,
    }
}

/// The `cache stat` spelling of a core tag.
#[must_use]
pub fn core_tag_key(tag: u8) -> &'static str {
    match tag {
        1 => "inorder",
        2 => "ooo",
        _ => "untagged",
    }
}

/// The core model recorded in a payload's core-tag byte, for callers
/// re-installing wire records (`POST /v1/records`) that need to
/// preserve provenance. `Ok(None)` is an untagged record.
///
/// # Errors
///
/// [`RecordError::Truncated`] on a payload shorter than its prefix,
/// [`RecordError::Corrupt`] on a wrong codec version or an impossible
/// tag value.
pub fn payload_core(payload: &[u8]) -> Result<Option<CoreKind>, RecordError> {
    if payload.len() < 2 {
        return Err(RecordError::Truncated);
    }
    if payload[0] != OUTCOME_VERSION {
        return Err(RecordError::Corrupt);
    }
    match payload[1] {
        0 => Ok(None),
        1 => Ok(Some(CoreKind::InOrder)),
        2 => Ok(Some(CoreKind::OutOfOrder)),
        _ => Err(RecordError::Corrupt),
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_hist(out: &mut Vec<u8>, hist: &OccupancyHist) {
    let buckets = hist.buckets();
    put_u32(out, buckets.len() as u32);
    for &b in buckets {
        put_u64(out, b);
    }
}

/// Serializes one [`BenchOutcome`] into the log's payload encoding. The
/// encoding is exact — every counter is a fixed-width integer — so
/// decode ∘ encode is the identity and a warm-started daemon's responses
/// are byte-identical to cold ones.
///
/// [`encode_outcome_tagged`] with no core tag.
#[must_use]
pub fn encode_outcome(outcome: &BenchOutcome) -> Vec<u8> {
    encode_outcome_tagged(outcome, None)
}

/// [`encode_outcome`] carrying the producing core model in the payload's
/// core-tag byte, so offline inspection can attribute entries per core
/// without re-deriving specs.
#[must_use]
pub fn encode_outcome_tagged(outcome: &BenchOutcome, core: Option<CoreKind>) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    out.push(OUTCOME_VERSION);
    out.push(core_tag_byte(core));
    let name = outcome.name.as_bytes();
    assert!(name.len() <= usize::from(u16::MAX), "benchmark name length");
    out.extend_from_slice(&(name.len() as u16).to_le_bytes());
    out.extend_from_slice(name);
    out.push(match outcome.class {
        BenchClass::Integer => 0,
        BenchClass::VectorFp => 1,
        BenchClass::NonVectorFp => 2,
    });
    let r = &outcome.result;
    for v in [
        r.instructions,
        r.cycles,
        r.branches,
        r.mispredicts,
        r.l1.hits,
        r.l1.misses,
        r.l2.hits,
        r.l2.misses,
        r.forwards,
        r.loads,
    ] {
        put_u64(&mut out, v);
    }
    match &outcome.counters {
        None => out.push(0),
        Some(c) => {
            out.push(1);
            put_u32(&mut out, c.width);
            put_u64(&mut out, c.cycles);
            put_u64(&mut out, c.useful_slots);
            put_u32(&mut out, StallCause::COUNT as u32);
            for &s in &c.stall_slots {
                put_u64(&mut out, s);
            }
            put_hist(&mut out, &c.window_occupancy);
            put_hist(&mut out, &c.rob_occupancy);
            put_hist(&mut out, &c.lsq_occupancy);
            put_u64(&mut out, c.dispatch_blocked_rob);
            put_u64(&mut out, c.dispatch_blocked_window);
            put_u64(&mut out, c.dispatch_blocked_lsq);
            put_u64(&mut out, c.dispatch_blocked_rename);
            put_u64(&mut out, c.btb.lookups);
            put_u64(&mut out, c.btb.hits);
        }
    }
    out
}

/// Bounds-checked little-endian reader over a payload.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], RecordError> {
        let end = self.pos.checked_add(n).ok_or(RecordError::Corrupt)?;
        if end > self.bytes.len() {
            return Err(RecordError::Truncated);
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, RecordError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, RecordError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    fn u32(&mut self) -> Result<u32, RecordError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, RecordError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn hist(&mut self) -> Result<OccupancyHist, RecordError> {
        let len = self.u32()?;
        if len > MAX_HIST_BUCKETS {
            return Err(RecordError::Corrupt);
        }
        let mut buckets = Vec::with_capacity(len as usize);
        for _ in 0..len {
            buckets.push(self.u64()?);
        }
        Ok(OccupancyHist::from_buckets(buckets))
    }
}

/// Deserializes a [`BenchOutcome`] payload.
///
/// # Errors
///
/// [`RecordError::Truncated`] when the payload ends early,
/// [`RecordError::Corrupt`] on bad tags, bad UTF-8, impossible lengths,
/// or trailing garbage. Never panics, whatever the input.
pub fn decode_outcome(bytes: &[u8]) -> Result<BenchOutcome, RecordError> {
    let mut r = Reader { bytes, pos: 0 };
    if r.u8()? != OUTCOME_VERSION {
        return Err(RecordError::Corrupt);
    }
    if r.u8()? > 2 {
        // Core tag: provenance only, but an impossible value means the
        // payload is not ours.
        return Err(RecordError::Corrupt);
    }
    let name_len = usize::from(r.u16()?);
    let name = std::str::from_utf8(r.take(name_len)?)
        .map_err(|_| RecordError::Corrupt)?
        .to_string();
    let class = match r.u8()? {
        0 => BenchClass::Integer,
        1 => BenchClass::VectorFp,
        2 => BenchClass::NonVectorFp,
        _ => return Err(RecordError::Corrupt),
    };
    let result = SimResult {
        instructions: r.u64()?,
        cycles: r.u64()?,
        branches: r.u64()?,
        mispredicts: r.u64()?,
        l1: CoreCacheStats {
            hits: r.u64()?,
            misses: r.u64()?,
        },
        l2: CoreCacheStats {
            hits: r.u64()?,
            misses: r.u64()?,
        },
        forwards: r.u64()?,
        loads: r.u64()?,
    };
    let counters = match r.u8()? {
        0 => None,
        1 => {
            let width = r.u32()?;
            let cycles = r.u64()?;
            let useful_slots = r.u64()?;
            if r.u32()? as usize != StallCause::COUNT {
                // A log written by a simulator with a different stall
                // taxonomy; its counters do not map onto ours.
                return Err(RecordError::Corrupt);
            }
            let mut stall_slots = [0u64; StallCause::COUNT];
            for slot in &mut stall_slots {
                *slot = r.u64()?;
            }
            let window_occupancy = r.hist()?;
            let rob_occupancy = r.hist()?;
            let lsq_occupancy = r.hist()?;
            Some(Counters {
                width,
                cycles,
                useful_slots,
                stall_slots,
                window_occupancy,
                rob_occupancy,
                lsq_occupancy,
                dispatch_blocked_rob: r.u64()?,
                dispatch_blocked_window: r.u64()?,
                dispatch_blocked_lsq: r.u64()?,
                dispatch_blocked_rename: r.u64()?,
                btb: BtbStats {
                    lookups: r.u64()?,
                    hits: r.u64()?,
                },
            })
        }
        _ => return Err(RecordError::Corrupt),
    };
    if r.pos != bytes.len() {
        return Err(RecordError::Corrupt);
    }
    Ok(BenchOutcome {
        name,
        class,
        result,
        counters,
    })
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// One injected I/O failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// The operation fails outright with this error kind (use
    /// [`io::ErrorKind::StorageFull`] for `ENOSPC`).
    Error(io::ErrorKind),
    /// The append writes only the first `n` bytes — a torn record — and
    /// then fails. This is the `kill -9`/power-cut shape.
    Short(usize),
}

/// Hooks on the store's writes so tests can break the disk on purpose.
/// The default implementation of every hook injects nothing; the store
/// calls them on its persister thread, never on request threads.
pub trait IoFault: Send + Sync {
    /// Consulted before appending an encoded record of `record_len` bytes.
    fn on_append(&self, record_len: usize) -> Option<InjectedFault> {
        let _ = record_len;
        None
    }

    /// Consulted before each `fdatasync`.
    fn on_fsync(&self) -> Option<io::ErrorKind> {
        None
    }

    /// Consulted before the post-failure rewind truncate.
    fn on_truncate(&self) -> Option<io::ErrorKind> {
        None
    }
}

/// The production no-op fault layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFault;

impl IoFault for NoFault {}

/// A deterministic scripted fault injector: each hook pops the next
/// scripted answer for its operation (FIFO) and injects nothing once its
/// script runs dry.
#[derive(Default)]
pub struct ScriptedFaults {
    appends: Mutex<VecDeque<Option<InjectedFault>>>,
    fsyncs: Mutex<VecDeque<Option<io::ErrorKind>>>,
    truncates: Mutex<VecDeque<Option<io::ErrorKind>>>,
}

impl ScriptedFaults {
    /// An empty script (no faults until scripted).
    #[must_use]
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Scripts the next append: `None` passes cleanly, `Some` injects.
    pub fn script_append(&self, fault: Option<InjectedFault>) {
        self.appends.lock().expect("fault lock").push_back(fault);
    }

    /// Scripts the next fsync.
    pub fn script_fsync(&self, fault: Option<io::ErrorKind>) {
        self.fsyncs.lock().expect("fault lock").push_back(fault);
    }

    /// Scripts the next rewind truncate.
    pub fn script_truncate(&self, fault: Option<io::ErrorKind>) {
        self.truncates.lock().expect("fault lock").push_back(fault);
    }
}

impl IoFault for ScriptedFaults {
    fn on_append(&self, _record_len: usize) -> Option<InjectedFault> {
        self.appends
            .lock()
            .expect("fault lock")
            .pop_front()
            .flatten()
    }

    fn on_fsync(&self) -> Option<io::ErrorKind> {
        self.fsyncs
            .lock()
            .expect("fault lock")
            .pop_front()
            .flatten()
    }

    fn on_truncate(&self) -> Option<io::ErrorKind> {
        self.truncates
            .lock()
            .expect("fault lock")
            .pop_front()
            .flatten()
    }
}

// ---------------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------------

/// Everything configurable about one [`CellStore`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Directory holding `cells.log` and `cells.idx`.
    pub dir: PathBuf,
    /// Durability policy for appends.
    pub fsync: FsyncPolicy,
    /// Bounded write-behind queue (records); beyond this, persistence is
    /// shed, not serving.
    pub queue_capacity: usize,
    /// Appends between sidecar-index snapshots.
    pub index_interval: u64,
}

impl StoreConfig {
    /// Defaults for `dir`: batched fsync, a 1024-record queue, an index
    /// snapshot every 64 appends.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            fsync: FsyncPolicy::default(),
            queue_capacity: 1024,
            index_interval: 64,
        }
    }
}

/// Counter snapshot of one store, rendered into `/metrics` and the
/// `fo4depth cache stat` report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Distinct fingerprints currently indexed (loadable).
    pub entries: usize,
    /// Committed log length in bytes (header included).
    pub log_bytes: u64,
    /// Loads answered from disk.
    pub hits: u64,
    /// Loads that found no (readable) record.
    pub misses: u64,
    /// Loads that found a record which failed its CRC or decode — bit
    /// rot surfacing as a miss instead of a corrupt response.
    pub read_errors: u64,
    /// Records appended durably (by the configured policy).
    pub appended: u64,
    /// Appends that failed at the disk and were rolled back.
    pub append_errors: u64,
    /// Writes shed: queue full, or the store degraded.
    pub shed: u64,
    /// `fdatasync` calls issued.
    pub fsyncs: u64,
    /// `fdatasync` calls that failed (durability lost, consistency kept).
    pub fsync_errors: u64,
    /// Sidecar index snapshots written.
    pub index_writes: u64,
    /// Sidecar snapshots that failed to write (the log is the authority;
    /// the only cost is a longer scan at next open).
    pub index_write_errors: u64,
    /// Entries recovered from the log at open.
    pub recovered_entries: u64,
    /// Corrupt-tail (or foreign-file) bytes truncated at open.
    pub dropped_bytes: u64,
    /// Whether persistence has been disabled after an unrecoverable
    /// write failure (serving continues from memory).
    pub degraded: bool,
    /// Write-behind records currently queued.
    pub queue_depth: usize,
    /// Write-behind queue bound.
    pub queue_capacity: usize,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    offset: u64,
    total_len: u32,
}

struct LogState {
    file: File,
    len: u64,
    appends_since_index: u64,
    appends_since_fsync: u64,
}

struct Queue {
    items: VecDeque<(u64, Vec<u8>)>,
    shutdown: bool,
    exited: bool,
    flush_epoch: u64,
    flushed_epoch: u64,
}

struct Inner {
    config: StoreConfig,
    idx_path: PathBuf,
    log_id: u64,
    log: Mutex<LogState>,
    /// A second handle on the log for [`CellStore::load`]'s positioned
    /// reads, outside the `log` lock the persister holds across appends,
    /// fsyncs and sidecar snapshots.
    reader: File,
    index: Mutex<HashMap<u64, Slot>>,
    queue: Mutex<Queue>,
    queue_cv: Condvar,
    fault: Arc<dyn IoFault>,
    degraded: AtomicBool,
    hits: AtomicU64,
    misses: AtomicU64,
    read_errors: AtomicU64,
    appended: AtomicU64,
    append_errors: AtomicU64,
    shed: AtomicU64,
    fsyncs: AtomicU64,
    fsync_errors: AtomicU64,
    index_writes: AtomicU64,
    index_write_errors: AtomicU64,
    recovered_entries: u64,
    dropped_bytes: u64,
}

/// The persistent cell tier: open/recover, read-through loads, bounded
/// write-behind appends, and explicit flush.
pub struct CellStore {
    inner: Arc<Inner>,
    persister: Mutex<Option<std::thread::JoinHandle<()>>>,
}

fn header_bytes(log_id: u64) -> [u8; HEADER_LEN as usize] {
    let mut h = [0u8; HEADER_LEN as usize];
    h[0..8].copy_from_slice(LOG_MAGIC);
    h[8..12].copy_from_slice(&LOG_FORMAT.to_le_bytes());
    h[12..16].copy_from_slice(&(CELL_SCHEMA as u32).to_le_bytes());
    h[16..24].copy_from_slice(&log_id.to_le_bytes());
    h
}

/// Parses a log header, returning its log-id when compatible.
fn parse_header(bytes: &[u8]) -> Option<u64> {
    if bytes.len() < HEADER_LEN as usize
        || &bytes[0..8] != LOG_MAGIC
        || bytes[8..12] != LOG_FORMAT.to_le_bytes()
        || bytes[12..16] != (CELL_SCHEMA as u32).to_le_bytes()
    {
        return None;
    }
    Some(u64::from_le_bytes(bytes[16..24].try_into().expect("8")))
}

fn fresh_log_id() -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    // Mix in the pid so two processes creating logs in the same nanosecond
    // (or on a clockless platform) still differ.
    nanos ^ (u64::from(std::process::id()) << 48) | 1
}

fn encode_index(log_id: u64, covered_len: u64, entries: &[(u64, Slot)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(40 + entries.len() * 20);
    out.extend_from_slice(IDX_MAGIC);
    out.extend_from_slice(&LOG_FORMAT.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    out.extend_from_slice(&log_id.to_le_bytes());
    out.extend_from_slice(&covered_len.to_le_bytes());
    out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    for &(fp, slot) in entries {
        out.extend_from_slice(&fp.to_le_bytes());
        out.extend_from_slice(&slot.offset.to_le_bytes());
        out.extend_from_slice(&slot.total_len.to_le_bytes());
    }
    let crc = crc32c(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// A decoded sidecar snapshot: which log generation it describes, how
/// many log bytes it covers, and the slots it carries.
struct IndexSnapshot {
    log_id: u64,
    covered_len: u64,
    entries: Vec<(u64, Slot)>,
}

fn decode_index(bytes: &[u8]) -> Option<IndexSnapshot> {
    if bytes.len() < 44 || &bytes[0..8] != IDX_MAGIC || bytes[8..12] != LOG_FORMAT.to_le_bytes() {
        return None;
    }
    let body = &bytes[..bytes.len() - 4];
    let stored = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4"));
    if crc32c(body) != stored {
        return None;
    }
    let log_id = u64::from_le_bytes(bytes[16..24].try_into().expect("8"));
    let covered_len = u64::from_le_bytes(bytes[24..32].try_into().expect("8"));
    let count = u64::from_le_bytes(bytes[32..40].try_into().expect("8"));
    let entry_bytes = body.len().checked_sub(40)?;
    if count.checked_mul(20)? != entry_bytes as u64 {
        return None;
    }
    let mut entries = Vec::with_capacity(count as usize);
    for i in 0..count as usize {
        let at = 40 + i * 20;
        let fp = u64::from_le_bytes(body[at..at + 8].try_into().expect("8"));
        let offset = u64::from_le_bytes(body[at + 8..at + 16].try_into().expect("8"));
        let total_len = u32::from_le_bytes(body[at + 16..at + 20].try_into().expect("4"));
        entries.push((fp, Slot { offset, total_len }));
    }
    Some(IndexSnapshot {
        log_id,
        covered_len,
        entries,
    })
}

impl CellStore {
    /// Opens (creating if absent) the store in `config.dir`, recovering
    /// from whatever state a previous process — cleanly exited, killed,
    /// or interrupted mid-write — left behind. Corruption is truncated
    /// and counted, never fatal.
    ///
    /// # Errors
    ///
    /// Returns environment errors only: the directory cannot be created,
    /// or the log cannot be opened/read at all.
    pub fn open(config: StoreConfig, fault: Arc<dyn IoFault>) -> io::Result<Self> {
        std::fs::create_dir_all(&config.dir)?;
        let log_path = config.dir.join(LOG_FILE);
        let idx_path = config.dir.join(INDEX_FILE);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&log_path)?;
        let disk_len = file.metadata()?.len();
        let mut dropped_bytes = 0u64;

        let mut head = [0u8; HEADER_LEN as usize];
        let log_id = if disk_len >= HEADER_LEN {
            file.seek(SeekFrom::Start(0))?;
            file.read_exact(&mut head)?;
            parse_header(&head)
        } else {
            None
        };
        let (log_id, mut len) = match log_id {
            Some(id) => (id, disk_len),
            None => {
                // Empty, foreign, or stale-schema file: start fresh. A
                // stale schema means every cached outcome is invalid
                // anyway; counting the old bytes as dropped makes the
                // reset visible in /metrics.
                dropped_bytes += disk_len;
                let id = fresh_log_id();
                file.set_len(0)?;
                file.seek(SeekFrom::Start(0))?;
                file.write_all(&header_bytes(id))?;
                file.sync_all()?;
                (id, HEADER_LEN)
            }
        };

        // Seed the index from the sidecar when it provably describes this
        // log (same id, covers no more than what exists); otherwise scan
        // everything. The sidecar is only ever a head start: record CRCs
        // are re-verified on every load.
        let mut index: HashMap<u64, Slot> = HashMap::new();
        let mut scan_from = HEADER_LEN;
        if let Ok(bytes) = std::fs::read(&idx_path) {
            if let Some(snapshot) = decode_index(&bytes) {
                if snapshot.log_id == log_id
                    && snapshot.covered_len >= HEADER_LEN
                    && snapshot.covered_len <= len
                {
                    index.extend(snapshot.entries);
                    scan_from = snapshot.covered_len;
                }
            }
        }

        // Scan the (tail of the) log, truncating at the first bad record.
        if len > scan_from {
            let mut tail = vec![0u8; (len - scan_from) as usize];
            file.seek(SeekFrom::Start(scan_from))?;
            file.read_exact(&mut tail)?;
            let mut at = 0usize;
            while at < tail.len() {
                match decode_record(&tail[at..]) {
                    Ok((fp, _payload, consumed)) => {
                        index.insert(
                            fp,
                            Slot {
                                offset: scan_from + at as u64,
                                total_len: consumed as u32,
                            },
                        );
                        at += consumed;
                    }
                    Err(_) => {
                        let good_end = scan_from + at as u64;
                        dropped_bytes += len - good_end;
                        file.set_len(good_end)?;
                        file.sync_all()?;
                        len = good_end;
                        break;
                    }
                }
            }
        }

        let recovered_entries = index.len() as u64;
        let reader = file.try_clone()?;
        let inner = Arc::new(Inner {
            idx_path,
            log_id,
            reader,
            log: Mutex::new(LogState {
                file,
                len,
                appends_since_index: 0,
                appends_since_fsync: 0,
            }),
            index: Mutex::new(index),
            queue: Mutex::new(Queue {
                items: VecDeque::new(),
                shutdown: false,
                exited: false,
                flush_epoch: 0,
                flushed_epoch: 0,
            }),
            queue_cv: Condvar::new(),
            fault,
            degraded: AtomicBool::new(false),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            read_errors: AtomicU64::new(0),
            appended: AtomicU64::new(0),
            append_errors: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            fsync_errors: AtomicU64::new(0),
            index_writes: AtomicU64::new(0),
            index_write_errors: AtomicU64::new(0),
            recovered_entries,
            dropped_bytes,
            config,
        });
        let persister = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("cell-store".to_string())
                .spawn(move || persister_loop(&inner))
                .expect("spawn store persister")
        };
        Ok(Self {
            inner,
            persister: Mutex::new(Some(persister)),
        })
    }

    /// Loads one outcome from disk, re-verifying its checksum. Any
    /// failure — absent, torn, rotted — is a `None` plus a counter,
    /// never an error or a bad value.
    #[must_use]
    pub fn load(&self, fingerprint: u64) -> Option<BenchOutcome> {
        let slot = {
            let index = self.inner.index.lock().expect("index lock");
            index.get(&fingerprint).copied()
        };
        let Some(slot) = slot else {
            self.inner.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let mut buf = vec![0u8; slot.total_len as usize];
        if self.read_at(&mut buf, slot.offset).is_err() {
            self.inner.read_errors.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let outcome = match decode_record(&buf) {
            Ok((fp, payload, _)) if fp == fingerprint => decode_outcome(payload),
            _ => Err(RecordError::Corrupt),
        };
        match outcome {
            Ok(o) => {
                self.inner.hits.fetch_add(1, Ordering::Relaxed);
                Some(o)
            }
            Err(_) => {
                self.inner.read_errors.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Positioned read that does not disturb the append cursor and takes
    /// no lock. The slot came from the index, which records an append
    /// only once its bytes are written, and nothing shortens the log
    /// below an indexed record while the store is open.
    #[cfg(unix)]
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        use std::os::unix::fs::FileExt as _;
        self.inner.reader.read_exact_at(buf, offset)
    }

    /// Off unix a positioned read moves the shared cursor, so it runs
    /// under the log lock the appends hold.
    #[cfg(not(unix))]
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        let _log = self.inner.log.lock().expect("log lock");
        let mut reader = &self.inner.reader;
        reader.seek(SeekFrom::Start(offset))?;
        reader.read_exact(buf)
    }

    /// Queues one outcome for persistence (write-behind). A full queue
    /// or a degraded store sheds the write and counts it; the caller's
    /// in-memory result is unaffected.
    ///
    /// [`put_tagged`](Self::put_tagged) with no core tag.
    pub fn put(&self, fingerprint: u64, outcome: &BenchOutcome) {
        self.put_tagged(fingerprint, None, outcome);
    }

    /// [`put`](Self::put) with the producing core recorded in the
    /// payload's core-tag byte, so `fo4depth cache stat` can attribute
    /// entries per core.
    pub fn put_tagged(&self, fingerprint: u64, core: Option<CoreKind>, outcome: &BenchOutcome) {
        if self.inner.degraded.load(Ordering::Relaxed) {
            self.inner.shed.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let record = encode_record(fingerprint, &encode_outcome_tagged(outcome, core));
        let mut queue = self.inner.queue.lock().expect("queue lock");
        if queue.shutdown || queue.items.len() >= self.inner.config.queue_capacity {
            drop(queue);
            self.inner.shed.fetch_add(1, Ordering::Relaxed);
            return;
        }
        queue.items.push_back((fingerprint, record));
        drop(queue);
        self.inner.queue_cv.notify_all();
    }

    /// Blocks until every queued record is on disk (by the configured
    /// fsync policy, plus one explicit sync) and the sidecar index is
    /// current. Called on graceful daemon shutdown; cheap when idle.
    pub fn flush(&self) {
        let mut queue = self.inner.queue.lock().expect("queue lock");
        if queue.exited {
            return;
        }
        queue.flush_epoch += 1;
        let target = queue.flush_epoch;
        self.inner.queue_cv.notify_all();
        while queue.flushed_epoch < target && !queue.exited {
            queue = self.inner.queue_cv.wait(queue).expect("queue lock");
        }
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        let entries = self.inner.index.lock().expect("index lock").len();
        let log_bytes = self.inner.log.lock().expect("log lock").len;
        let queue_depth = self.inner.queue.lock().expect("queue lock").items.len();
        StoreStats {
            entries,
            log_bytes,
            hits: self.inner.hits.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
            read_errors: self.inner.read_errors.load(Ordering::Relaxed),
            appended: self.inner.appended.load(Ordering::Relaxed),
            append_errors: self.inner.append_errors.load(Ordering::Relaxed),
            shed: self.inner.shed.load(Ordering::Relaxed),
            fsyncs: self.inner.fsyncs.load(Ordering::Relaxed),
            fsync_errors: self.inner.fsync_errors.load(Ordering::Relaxed),
            index_writes: self.inner.index_writes.load(Ordering::Relaxed),
            index_write_errors: self.inner.index_write_errors.load(Ordering::Relaxed),
            recovered_entries: self.inner.recovered_entries,
            dropped_bytes: self.inner.dropped_bytes,
            degraded: self.inner.degraded.load(Ordering::Relaxed),
            queue_depth,
            queue_capacity: self.inner.config.queue_capacity,
        }
    }

    /// The store's cache directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.inner.config.dir
    }
}

impl Drop for CellStore {
    fn drop(&mut self) {
        {
            let mut queue = self.inner.queue.lock().expect("queue lock");
            queue.shutdown = true;
        }
        self.inner.queue_cv.notify_all();
        if let Some(handle) = self.persister.lock().expect("persister lock").take() {
            let _ = handle.join();
        }
    }
}

enum Job {
    Append(u64, Vec<u8>),
    Flush(u64),
    Exit,
}

fn persister_loop(inner: &Arc<Inner>) {
    loop {
        let job = {
            let mut queue = inner.queue.lock().expect("queue lock");
            loop {
                if let Some((fp, record)) = queue.items.pop_front() {
                    break Job::Append(fp, record);
                }
                if queue.flush_epoch > queue.flushed_epoch {
                    break Job::Flush(queue.flush_epoch);
                }
                if queue.shutdown {
                    break Job::Exit;
                }
                queue = inner.queue_cv.wait(queue).expect("queue lock");
            }
        };
        match job {
            Job::Append(fp, record) => append(inner, fp, &record),
            Job::Flush(epoch) => {
                sync_and_snapshot(inner);
                let mut queue = inner.queue.lock().expect("queue lock");
                queue.flushed_epoch = queue.flushed_epoch.max(epoch);
                drop(queue);
                inner.queue_cv.notify_all();
            }
            Job::Exit => {
                sync_and_snapshot(inner);
                let mut queue = inner.queue.lock().expect("queue lock");
                queue.exited = true;
                drop(queue);
                inner.queue_cv.notify_all();
                return;
            }
        }
    }
}

/// Appends one encoded record, keeping the log's intact-prefix invariant
/// whatever the disk does.
fn append(inner: &Arc<Inner>, fingerprint: u64, record: &[u8]) {
    if inner.degraded.load(Ordering::Relaxed) {
        inner.shed.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let mut log = inner.log.lock().expect("log lock");
    let pre = log.len;
    let write_result = match inner.fault.on_append(record.len()) {
        Some(InjectedFault::Error(kind)) => Err(io::Error::new(kind, "injected append fault")),
        Some(InjectedFault::Short(n)) => {
            // Land a genuinely torn record on disk, then fail — the shape
            // a crash mid-write leaves behind.
            let n = n.min(record.len());
            let _ = log
                .file
                .seek(SeekFrom::Start(pre))
                .and_then(|_| log.file.write_all(&record[..n]));
            Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "injected short write",
            ))
        }
        None => log
            .file
            .seek(SeekFrom::Start(pre))
            .and_then(|_| log.file.write_all(record)),
    };
    match write_result {
        Ok(()) => {
            log.len = pre + record.len() as u64;
            log.appends_since_index += 1;
            log.appends_since_fsync += 1;
            inner.appended.fetch_add(1, Ordering::Relaxed);
            inner.index.lock().expect("index lock").insert(
                fingerprint,
                Slot {
                    offset: pre,
                    total_len: record.len() as u32,
                },
            );
            let sync_now = match inner.config.fsync {
                FsyncPolicy::Always => true,
                FsyncPolicy::Batch => {
                    log.appends_since_fsync >= BATCH_FSYNC_EVERY
                        || inner.queue.lock().expect("queue lock").items.is_empty()
                }
                FsyncPolicy::Off => false,
            };
            if sync_now {
                fsync_log(inner, &mut log);
            }
            if log.appends_since_index >= inner.config.index_interval {
                write_snapshot(inner, &mut log);
            }
        }
        Err(_) => {
            // The tail may now hold a torn record. Rewind to the last
            // committed length; if even that fails, stop persisting —
            // appending after an unknown tail would bury every later
            // record behind garbage.
            inner.append_errors.fetch_add(1, Ordering::Relaxed);
            let rewind = match inner.fault.on_truncate() {
                Some(kind) => Err(io::Error::new(kind, "injected truncate fault")),
                None => log.file.set_len(pre),
            };
            if rewind.is_err() {
                inner.degraded.store(true, Ordering::Relaxed);
            }
        }
    }
}

fn fsync_log(inner: &Arc<Inner>, log: &mut LogState) {
    let result = match inner.fault.on_fsync() {
        Some(kind) => Err(io::Error::new(kind, "injected fsync fault")),
        None => log.file.sync_data(),
    };
    match result {
        Ok(()) => {
            inner.fsyncs.fetch_add(1, Ordering::Relaxed);
            log.appends_since_fsync = 0;
        }
        Err(_) => {
            // Durability of recent appends is unknown; consistency is
            // not at risk (the prefix property holds regardless).
            inner.fsync_errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn write_snapshot(inner: &Arc<Inner>, log: &mut LogState) {
    let mut entries: Vec<(u64, Slot)> = {
        let index = inner.index.lock().expect("index lock");
        index.iter().map(|(&fp, &slot)| (fp, slot)).collect()
    };
    entries.sort_by_key(|&(_, slot)| slot.offset);
    let bytes = encode_index(inner.log_id, log.len, &entries);
    match fsio::write_atomic(&inner.idx_path, &bytes) {
        Ok(()) => {
            inner.index_writes.fetch_add(1, Ordering::Relaxed);
        }
        Err(_) => {
            inner.index_write_errors.fetch_add(1, Ordering::Relaxed);
        }
    }
    // Either way, wait a full interval before trying again.
    log.appends_since_index = 0;
}

fn sync_and_snapshot(inner: &Arc<Inner>) {
    let mut log = inner.log.lock().expect("log lock");
    if inner.config.fsync != FsyncPolicy::Off {
        fsync_log(inner, &mut log);
    }
    write_snapshot(inner, &mut log);
}

// ---------------------------------------------------------------------------
// Offline inspection (fo4depth cache stat|verify|compact)
// ---------------------------------------------------------------------------

/// What walking a log (offline) found.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LogReport {
    /// File length in bytes.
    pub log_bytes: u64,
    /// Whether the header identified a compatible log.
    pub header_ok: bool,
    /// Records walked, superseded ones included.
    pub records: u64,
    /// Distinct fingerprints (live entries).
    pub entries: u64,
    /// Bytes of live records, framing included — what [`compact`] would
    /// keep (plus the header).
    pub live_bytes: u64,
    /// Unreadable tail bytes (torn or corrupt).
    pub corrupt_tail_bytes: u64,
    /// Live records whose payload failed to decode (verify mode only).
    pub payload_errors: u64,
    /// Live entries per producing core ([`core_tag_key`] spelling).
    pub by_core: BTreeMap<&'static str, u64>,
    /// Live entries per benchmark name.
    pub by_benchmark: BTreeMap<String, u64>,
}

/// Reads the cheap payload prefix — codec version, core tag, benchmark
/// name — without touching the counter blocks.
fn payload_prefix(payload: &[u8]) -> Option<(u8, String)> {
    let mut r = Reader {
        bytes: payload,
        pos: 0,
    };
    if r.u8().ok()? != OUTCOME_VERSION {
        return None;
    }
    let tag = r.u8().ok()?;
    if tag > 2 {
        return None;
    }
    let len = usize::from(r.u16().ok()?);
    let name = std::str::from_utf8(r.take(len).ok()?).ok()?;
    Some((tag, name.to_string()))
}

/// Walks `cells.log` under `dir` and reports entries, bytes, and any
/// corrupt tail. With `decode_payloads` (verify mode), every live
/// payload is additionally decoded.
///
/// # Errors
///
/// Returns I/O errors only (missing file, unreadable); corruption is
/// reported, not returned.
pub fn inspect(dir: &Path, decode_payloads: bool) -> io::Result<LogReport> {
    let bytes = std::fs::read(dir.join(LOG_FILE))?;
    let mut report = LogReport {
        log_bytes: bytes.len() as u64,
        ..LogReport::default()
    };
    if parse_header(&bytes).is_none() {
        report.corrupt_tail_bytes = bytes.len() as u64;
        return Ok(report);
    }
    report.header_ok = true;
    let mut live: HashMap<u64, (usize, usize)> = HashMap::new();
    let mut at = HEADER_LEN as usize;
    while at < bytes.len() {
        match decode_record(&bytes[at..]) {
            Ok((fp, _payload, consumed)) => {
                report.records += 1;
                live.insert(fp, (at, consumed));
                at += consumed;
            }
            Err(_) => {
                report.corrupt_tail_bytes = (bytes.len() - at) as u64;
                break;
            }
        }
    }
    report.entries = live.len() as u64;
    for &(offset, len) in live.values() {
        report.live_bytes += len as u64;
        let (_, payload, _) =
            decode_record(&bytes[offset..offset + len]).expect("walked record re-decodes");
        match payload_prefix(payload) {
            Some((tag, name)) => {
                *report.by_core.entry(core_tag_key(tag)).or_insert(0) += 1;
                *report.by_benchmark.entry(name).or_insert(0) += 1;
            }
            None => {
                *report.by_core.entry("unreadable").or_insert(0) += 1;
            }
        }
        if decode_payloads && decode_outcome(payload).is_err() {
            report.payload_errors += 1;
        }
    }
    Ok(report)
}

/// What a [`compact`] pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactReport {
    /// Log length before, in bytes.
    pub bytes_before: u64,
    /// Log length after, in bytes.
    pub bytes_after: u64,
    /// Live entries kept.
    pub entries: u64,
    /// Superseded records dropped.
    pub superseded_dropped: u64,
    /// Corrupt tail bytes dropped.
    pub corrupt_tail_bytes: u64,
}

/// Rewrites `cells.log` under `dir` keeping only the winning record per
/// fingerprint (in log order), dropping any corrupt tail, and refreshing
/// the sidecar index — all atomically (write-new + rename), so a crash
/// mid-compact leaves the old log untouched. Must not race a live
/// daemon on the same directory.
///
/// # Errors
///
/// Returns I/O errors (missing log, unwritable directory).
pub fn compact(dir: &Path) -> io::Result<CompactReport> {
    let log_path = dir.join(LOG_FILE);
    let bytes = std::fs::read(&log_path)?;
    let mut live: HashMap<u64, (usize, usize)> = HashMap::new();
    let mut records = 0u64;
    let mut corrupt_tail_bytes = 0u64;
    let mut at = HEADER_LEN as usize;
    if parse_header(&bytes).is_none() {
        corrupt_tail_bytes = bytes.len() as u64;
        at = bytes.len();
    }
    while at < bytes.len() {
        match decode_record(&bytes[at..]) {
            Ok((fp, _payload, consumed)) => {
                records += 1;
                live.insert(fp, (at, consumed));
                at += consumed;
            }
            Err(_) => {
                corrupt_tail_bytes = (bytes.len() - at) as u64;
                break;
            }
        }
    }
    let mut winners: Vec<(u64, usize, usize)> = live
        .iter()
        .map(|(&fp, &(offset, len))| (fp, offset, len))
        .collect();
    winners.sort_by_key(|&(_, offset, _)| offset);

    let log_id = fresh_log_id();
    let mut out = Vec::with_capacity(
        HEADER_LEN as usize + winners.iter().map(|&(_, _, len)| len).sum::<usize>(),
    );
    out.extend_from_slice(&header_bytes(log_id));
    let mut index_entries = Vec::with_capacity(winners.len());
    for &(fp, offset, len) in &winners {
        index_entries.push((
            fp,
            Slot {
                offset: out.len() as u64,
                total_len: len as u32,
            },
        ));
        out.extend_from_slice(&bytes[offset..offset + len]);
    }
    let bytes_after = out.len() as u64;
    fsio::write_atomic(&log_path, &out)?;
    let idx = encode_index(log_id, bytes_after, &index_entries);
    fsio::write_atomic(&dir.join(INDEX_FILE), &idx)?;
    Ok(CompactReport {
        bytes_before: bytes.len() as u64,
        bytes_after,
        entries: winners.len() as u64,
        superseded_dropped: records - winners.len() as u64,
        corrupt_tail_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fo4depth_util::TempDir;

    fn sample_outcome(seed: u64, observed: bool) -> BenchOutcome {
        let counters = observed.then(|| {
            let mut window = OccupancyHist::new();
            window.record(3);
            window.record(3);
            window.record(17);
            let mut rob = OccupancyHist::new();
            rob.record(0);
            let mut stall_slots = [0u64; StallCause::COUNT];
            for (i, s) in stall_slots.iter_mut().enumerate() {
                *s = seed.wrapping_mul(31).wrapping_add(i as u64);
            }
            Counters {
                width: 4,
                cycles: 1000 + seed,
                useful_slots: 2500,
                stall_slots,
                window_occupancy: window,
                rob_occupancy: rob,
                lsq_occupancy: OccupancyHist::new(),
                dispatch_blocked_rob: 5,
                dispatch_blocked_window: 6,
                dispatch_blocked_lsq: 7,
                dispatch_blocked_rename: 8,
                btb: BtbStats {
                    lookups: 900,
                    hits: 850,
                },
            }
        });
        BenchOutcome {
            name: format!("164.gzip-{seed}"),
            class: BenchClass::Integer,
            result: SimResult {
                instructions: 40_000 + seed,
                cycles: 30_000,
                branches: 5_000,
                mispredicts: 250,
                l1: CoreCacheStats {
                    hits: 9_000,
                    misses: 1_000,
                },
                l2: CoreCacheStats {
                    hits: 800,
                    misses: 200,
                },
                forwards: 123,
                loads: 10_000,
            },
            counters,
        }
    }

    fn open_store(dir: &Path) -> CellStore {
        let mut config = StoreConfig::new(dir);
        config.fsync = FsyncPolicy::Always;
        CellStore::open(config, Arc::new(NoFault)).expect("open store")
    }

    #[test]
    fn record_codec_round_trips_and_rejects_damage() {
        let payload = b"arbitrary payload bytes \x00\xff\x7f";
        let record = encode_record(0xDEAD_BEEF_CAFE_F00D, payload);
        let (fp, got, consumed) = decode_record(&record).expect("round trip");
        assert_eq!(fp, 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(got, payload);
        assert_eq!(consumed, record.len());

        // Every strict prefix is Truncated (never Corrupt, never a value):
        // that is exactly the state a crashed writer leaves.
        for cut in 0..record.len() {
            assert_eq!(
                decode_record(&record[..cut]).unwrap_err(),
                RecordError::Truncated,
                "cut at {cut}"
            );
        }
        // Any single flipped byte is caught.
        for i in 0..record.len() {
            let mut bad = record.clone();
            bad[i] ^= 0x20;
            assert!(decode_record(&bad).is_err(), "flip at {i} undetected");
        }
    }

    #[test]
    fn outcome_codec_round_trips_observed_and_unobserved() {
        for observed in [false, true] {
            let outcome = sample_outcome(7, observed);
            let decoded = decode_outcome(&encode_outcome(&outcome)).expect("round trip");
            assert_eq!(decoded, outcome);
        }
        // Damage never panics and never yields a wrong value.
        let bytes = encode_outcome(&sample_outcome(7, true));
        for cut in 0..bytes.len() {
            assert!(decode_outcome(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(decode_outcome(&trailing).unwrap_err(), RecordError::Corrupt);
    }

    #[test]
    fn tagged_outcome_codec_round_trips_and_inspect_counts_by_core_and_benchmark() {
        // The core tag is provenance metadata riding ahead of the outcome
        // fields; decoding ignores it, so tagged and untagged payloads
        // yield the same outcome.
        let outcome = sample_outcome(7, true);
        for core in [None, Some(CoreKind::InOrder), Some(CoreKind::OutOfOrder)] {
            let decoded =
                decode_outcome(&encode_outcome_tagged(&outcome, core)).expect("round trip");
            assert_eq!(decoded, outcome, "core {core:?}");
        }

        let dir = TempDir::new("fo4depth-store").expect("temp dir");
        {
            let store = open_store(dir.path());
            store.put_tagged(1, Some(CoreKind::OutOfOrder), &sample_outcome(1, false));
            store.put_tagged(2, Some(CoreKind::OutOfOrder), &sample_outcome(2, true));
            store.put_tagged(3, Some(CoreKind::InOrder), &sample_outcome(3, false));
            store.put(4, &sample_outcome(4, false));
            // A superseding record must count once, under its final name.
            store.put_tagged(1, Some(CoreKind::OutOfOrder), &sample_outcome(5, false));
            store.flush();
        }
        let report = inspect(dir.path(), true).expect("inspect");
        assert_eq!(report.entries, 4);
        assert_eq!(report.payload_errors, 0);
        assert_eq!(report.by_core.get("ooo"), Some(&2));
        assert_eq!(report.by_core.get("inorder"), Some(&1));
        assert_eq!(report.by_core.get("untagged"), Some(&1));
        assert_eq!(report.by_core.values().sum::<u64>(), report.entries);
        assert_eq!(report.by_benchmark.values().sum::<u64>(), report.entries);
        assert_eq!(
            report.by_benchmark.get("164.gzip-5"),
            Some(&1),
            "the winning record's benchmark is the one counted"
        );
        assert!(!report.by_benchmark.contains_key("164.gzip-1"));
    }

    #[test]
    fn put_flush_load_round_trips_across_reopen() {
        let dir = TempDir::new("fo4depth-store").expect("temp dir");
        let a = sample_outcome(1, true);
        let b = sample_outcome(2, false);
        {
            let store = open_store(dir.path());
            store.put(10, &a);
            store.put(20, &b);
            store.flush();
            assert_eq!(store.load(10).expect("a"), a);
            assert_eq!(store.stats().appended, 2);
            assert_eq!(store.stats().entries, 2);
        }
        let store = open_store(dir.path());
        let s = store.stats();
        assert_eq!(s.recovered_entries, 2);
        assert_eq!(s.dropped_bytes, 0);
        assert_eq!(store.load(10).expect("a"), a);
        assert_eq!(store.load(20).expect("b"), b);
        assert!(store.load(30).is_none());
        let s = store.stats();
        assert_eq!((s.hits, s.misses), (2, 1));
    }

    #[cfg(unix)]
    #[test]
    fn loads_do_not_wait_for_the_log_lock() {
        // The persister holds the log lock across appends, fsyncs and
        // sidecar snapshots; a request thread's load must not queue
        // behind any of them.
        let dir = TempDir::new("fo4depth-store").expect("temp dir");
        let a = sample_outcome(1, true);
        let store = open_store(dir.path());
        store.put(10, &a);
        store.flush();
        let held = store.inner.log.lock().expect("log lock");
        let (tx, rx) = std::sync::mpsc::channel();
        let loaded = std::thread::scope(|scope| {
            let store = &store;
            scope.spawn(move || {
                let _ = tx.send(store.load(10));
            });
            let loaded = rx.recv_timeout(std::time::Duration::from_secs(5));
            drop(held);
            loaded
        });
        assert_eq!(loaded.expect("load finished under the log lock"), Some(a));
    }

    #[test]
    fn newer_record_for_same_fingerprint_wins_on_recovery() {
        let dir = TempDir::new("fo4depth-store").expect("temp dir");
        let old = sample_outcome(1, false);
        let new = sample_outcome(9, false);
        {
            let store = open_store(dir.path());
            store.put(42, &old);
            store.put(42, &new);
            store.flush();
        }
        let store = open_store(dir.path());
        assert_eq!(store.stats().recovered_entries, 1);
        assert_eq!(store.load(42).expect("value"), new);
    }

    #[test]
    fn corrupt_tail_is_truncated_and_counted_never_fatal() {
        let dir = TempDir::new("fo4depth-store").expect("temp dir");
        let a = sample_outcome(1, true);
        {
            let store = open_store(dir.path());
            store.put(10, &a);
            store.flush();
        }
        // Simulate a crash mid-append: a record prefix with no payload.
        let log_path = dir.path().join(LOG_FILE);
        let clean_len = std::fs::metadata(&log_path).expect("meta").len();
        let torn = &encode_record(99, b"this payload never fully landed")[..20];
        let mut f = OpenOptions::new()
            .append(true)
            .open(&log_path)
            .expect("append");
        f.write_all(torn).expect("torn tail");
        drop(f);

        let store = open_store(dir.path());
        let s = store.stats();
        assert_eq!(s.recovered_entries, 1, "intact prefix recovered");
        assert_eq!(s.dropped_bytes, 20, "torn tail counted");
        assert_eq!(store.load(10).expect("survives"), a);
        assert_eq!(
            std::fs::metadata(&log_path).expect("meta").len(),
            clean_len,
            "log truncated back to the intact prefix"
        );
        // And the store keeps working: appends land after the truncation.
        let b = sample_outcome(3, false);
        store.put(11, &b);
        store.flush();
        drop(store);
        let store = open_store(dir.path());
        assert_eq!(store.stats().recovered_entries, 2);
        assert_eq!(store.load(11).expect("post-recovery append"), b);
    }

    #[test]
    fn foreign_or_stale_schema_file_is_reset_not_trusted() {
        let dir = TempDir::new("fo4depth-store").expect("temp dir");
        std::fs::write(dir.path().join(LOG_FILE), b"not a cell log at all, sorry")
            .expect("plant foreign file");
        let store = open_store(dir.path());
        let s = store.stats();
        assert_eq!(s.recovered_entries, 0);
        assert_eq!(s.dropped_bytes, 28);
        let a = sample_outcome(4, false);
        store.put(1, &a);
        store.flush();
        assert_eq!(store.load(1).expect("fresh log works"), a);
    }

    #[test]
    fn sidecar_index_accelerates_reopen_and_stale_sidecars_are_ignored() {
        let dir = TempDir::new("fo4depth-store").expect("temp dir");
        {
            let store = open_store(dir.path());
            for i in 0..5 {
                store.put(i, &sample_outcome(i, false));
            }
            store.flush();
            assert!(store.stats().index_writes >= 1, "flush snapshots the index");
        }
        {
            let store = open_store(dir.path());
            assert_eq!(store.stats().recovered_entries, 5);
        }
        // A corrupted sidecar must be ignored, not trusted: recovery
        // falls back to the full scan and still finds everything.
        let idx_path = dir.path().join(INDEX_FILE);
        let mut idx = std::fs::read(&idx_path).expect("sidecar exists");
        let mid = idx.len() / 2;
        idx[mid] ^= 0xFF;
        std::fs::write(&idx_path, &idx).expect("corrupt sidecar");
        let store = open_store(dir.path());
        assert_eq!(store.stats().recovered_entries, 5);
        assert!(store.load(3).is_some());
    }

    #[test]
    fn injected_append_error_rolls_back_and_never_poisons_the_log() {
        let dir = TempDir::new("fo4depth-store").expect("temp dir");
        let faults = ScriptedFaults::new();
        // First append fails with ENOSPC, second succeeds.
        faults.script_append(Some(InjectedFault::Error(io::ErrorKind::StorageFull)));
        faults.script_append(None);
        let mut config = StoreConfig::new(dir.path());
        config.fsync = FsyncPolicy::Always;
        let store = CellStore::open(config, faults).expect("open");
        let a = sample_outcome(1, false);
        let b = sample_outcome(2, false);
        store.put(10, &a);
        store.put(11, &b);
        store.flush();
        let s = store.stats();
        assert_eq!(s.append_errors, 1, "ENOSPC counted");
        assert_eq!(s.appended, 1, "the other record landed");
        assert!(!s.degraded, "rollback succeeded; persistence continues");
        assert!(store.load(10).is_none(), "failed record is absent");
        assert_eq!(store.load(11).expect("clean record"), b);
        drop(store);
        // The log on disk is fully intact.
        let store = open_store(dir.path());
        assert_eq!(store.stats().recovered_entries, 1);
        assert_eq!(store.stats().dropped_bytes, 0);
    }

    #[test]
    fn injected_short_write_leaves_an_intact_prefix() {
        let dir = TempDir::new("fo4depth-store").expect("temp dir");
        let faults = ScriptedFaults::new();
        faults.script_append(Some(InjectedFault::Short(9)));
        let mut config = StoreConfig::new(dir.path());
        config.fsync = FsyncPolicy::Always;
        let store = CellStore::open(config, faults).expect("open");
        store.put(10, &sample_outcome(1, false));
        let b = sample_outcome(2, false);
        store.put(11, &b);
        store.flush();
        let s = store.stats();
        assert_eq!(s.append_errors, 1);
        assert_eq!(s.appended, 1);
        assert!(!s.degraded);
        drop(store);
        let store = open_store(dir.path());
        let s = store.stats();
        assert_eq!(s.recovered_entries, 1, "only the clean record survives");
        assert_eq!(s.dropped_bytes, 0, "torn bytes were rewound, not left");
        assert_eq!(store.load(11).expect("clean record"), b);
    }

    #[test]
    fn failed_rewind_degrades_to_memory_only_without_crashing() {
        let dir = TempDir::new("fo4depth-store").expect("temp dir");
        let faults = ScriptedFaults::new();
        faults.script_append(Some(InjectedFault::Short(5)));
        faults.script_truncate(Some(io::ErrorKind::PermissionDenied));
        let mut config = StoreConfig::new(dir.path());
        config.fsync = FsyncPolicy::Always;
        let store = CellStore::open(config, faults).expect("open");
        store.put(10, &sample_outcome(1, false));
        store.flush();
        assert!(store.stats().degraded);
        // Later puts are shed, not attempted.
        store.put(11, &sample_outcome(2, false));
        store.flush();
        let s = store.stats();
        assert!(s.shed >= 1, "degraded store sheds persistence");
        assert_eq!(s.appended, 0);
        drop(store);
        // Reopen recovers the intact prefix: header only, torn tail cut.
        let store = open_store(dir.path());
        let s = store.stats();
        assert_eq!(s.recovered_entries, 0);
        assert_eq!(s.dropped_bytes, 5, "torn bytes dropped at open");
    }

    #[test]
    fn injected_fsync_failure_is_counted_not_fatal() {
        let dir = TempDir::new("fo4depth-store").expect("temp dir");
        let faults = ScriptedFaults::new();
        faults.script_fsync(Some(io::ErrorKind::Other));
        let mut config = StoreConfig::new(dir.path());
        config.fsync = FsyncPolicy::Always;
        let store = CellStore::open(config, faults).expect("open");
        let a = sample_outcome(1, false);
        store.put(10, &a);
        store.flush();
        let s = store.stats();
        assert!(s.fsync_errors >= 1);
        assert_eq!(s.appended, 1);
        assert!(!s.degraded);
        assert_eq!(store.load(10).expect("record readable"), a);
    }

    /// An [`IoFault`] that parks the persister inside its first append
    /// until released, simulating a disk that has stopped making
    /// progress. Injects nothing; it only controls timing.
    struct GateFault {
        open: Mutex<bool>,
        cv: Condvar,
    }

    impl GateFault {
        fn new() -> Arc<Self> {
            Arc::new(Self {
                open: Mutex::new(false),
                cv: Condvar::new(),
            })
        }

        fn release(&self) {
            *self.open.lock().expect("gate lock") = true;
            self.cv.notify_all();
        }
    }

    impl IoFault for GateFault {
        fn on_append(&self, _record_len: usize) -> Option<InjectedFault> {
            let mut open = self.open.lock().expect("gate lock");
            while !*open {
                open = self.cv.wait(open).expect("gate lock");
            }
            None
        }
    }

    #[test]
    fn full_queue_sheds_writes_without_blocking() {
        let dir = TempDir::new("fo4depth-store").expect("temp dir");
        let gate = GateFault::new();
        let mut config = StoreConfig::new(dir.path());
        config.queue_capacity = 1;
        config.fsync = FsyncPolicy::Off;
        let store = CellStore::open(config, Arc::clone(&gate) as Arc<dyn IoFault>).expect("open");
        let a = sample_outcome(1, true);
        // With the persister parked on the first record and one queue
        // slot, three puts cannot all fit: at least one must shed, and
        // none may block the caller.
        store.put(0, &a);
        store.put(1, &a);
        store.put(2, &a);
        gate.release();
        store.flush();
        let s = store.stats();
        assert_eq!(s.appended + s.shed, 3, "every put accounted for");
        assert!(s.shed >= 1, "a full queue sheds instead of blocking");
        assert!(s.appended >= 1, "the accepted records still land");
    }

    #[test]
    fn inspect_and_compact_drop_superseded_records_and_corrupt_tails() {
        let dir = TempDir::new("fo4depth-store").expect("temp dir");
        let newest = sample_outcome(5, false);
        {
            let store = open_store(dir.path());
            store.put(1, &sample_outcome(1, false));
            store.put(2, &sample_outcome(2, false));
            store.put(1, &sample_outcome(3, false));
            store.put(1, &newest);
            store.flush();
        }
        let mut f = OpenOptions::new()
            .append(true)
            .open(dir.path().join(LOG_FILE))
            .expect("append");
        f.write_all(&[0xAB; 13]).expect("garbage tail");
        drop(f);

        let report = inspect(dir.path(), true).expect("inspect");
        assert!(report.header_ok);
        assert_eq!(report.records, 4);
        assert_eq!(report.entries, 2);
        assert_eq!(report.corrupt_tail_bytes, 13);
        assert_eq!(report.payload_errors, 0);

        let compacted = compact(dir.path()).expect("compact");
        assert_eq!(compacted.entries, 2);
        assert_eq!(compacted.superseded_dropped, 2);
        assert_eq!(compacted.corrupt_tail_bytes, 13);
        assert!(compacted.bytes_after < compacted.bytes_before);

        // The compacted log opens clean and serves the latest values.
        let store = open_store(dir.path());
        let s = store.stats();
        assert_eq!(s.recovered_entries, 2);
        assert_eq!(s.dropped_bytes, 0);
        assert_eq!(store.load(1).expect("winner"), newest);
        let after = inspect(dir.path(), true).expect("re-inspect");
        assert_eq!(after.records, 2);
        assert_eq!(after.corrupt_tail_bytes, 0);
    }
}
