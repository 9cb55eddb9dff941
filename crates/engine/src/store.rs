//! Crash-safe persistent memo store.
//!
//! A [`MemoStore`] is the disk tier under the in-memory
//! [`MemoCache`](crate::cache): completed [`Outcome::Count`]s are appended
//! to fingerprint-keyed, checksummed, append-only **segment files**, so a
//! warm restart answers previously computed counts from disk instead of
//! recomputing them. Raw counts are the expensive primitive of the whole
//! workspace — power evaluations and containment refutations are
//! compositions of cached counts — so persisting counts alone makes every
//! job kind warm-restartable without serializing enclosure state
//! (`Magnitude`) or certificates (`Verdict`).
//!
//! # On-disk format (see `DESIGN.md` §9)
//!
//! A store is a directory of segment files named `{writer}-{seq:010}.seg`:
//!
//! ```text
//! segment   := magic record*
//! magic     := "bagcq-store-v1\n\0"                       (16 bytes)
//! record    := len:u32le crc:u32le payload                (len = |payload|)
//! payload   := key_hi:u64le key_lo:u64le tag:u8 value
//! value     := n_limbs:u32le limb:u64le*                  (tag 0 = Count)
//! ```
//!
//! `crc` is CRC-32 (IEEE) over the payload. The format is append-only:
//! a key is rewritten by appending a newer record; recovery keeps the
//! last record read for a key (segments are replayed in sequence order).
//!
//! # Recovery discipline
//!
//! Opening a store replays every segment with three typed degradation
//! levels — never a panic, and never a wrong count:
//!
//! * **Torn tail** — the file ends mid-record (a writer died mid-append,
//!   e.g. `kill -9`). The tail is unreadable by construction; an
//!   exclusive open *truncates* it so the file is byte-clean again, a
//!   shared/read-only open just stops there. Counted in
//!   [`RecoveryReport::truncated_bytes`].
//! * **Quarantined record** — framing is intact but the CRC does not
//!   match (bit rot, torn sector). The record is skipped and counted in
//!   [`RecoveryReport::quarantined_records`]; the key is simply absent
//!   and will be recomputed.
//! * **Quarantined bytes** — framing itself is implausible (corrupted
//!   length, foreign file contents). Everything from the bad offset to
//!   the end of that segment is skipped and counted in
//!   [`RecoveryReport::quarantined_bytes`]; re-synchronizing inside a
//!   corrupted region risks mistaking garbage for a record, and a wrong
//!   count is strictly worse than a recomputation.
//!
//! # Write-behind and durability
//!
//! [`MemoStore::put`] appends into a buffered writer; the buffer is
//! flushed to the OS every [`StoreOptions::flush_every`] records, on
//! [`MemoStore::flush`] (the engine drain calls it), and on drop. A crash
//! can therefore lose at most the last unflushed handful of records —
//! each of which is merely a memo and is recomputed on demand. Records
//! never reach the file partially interleaved (single `write_all` per
//! flush into one file owned by one writer), so the only partial state a
//! crash can leave is the torn tail the recovery path truncates.
//!
//! # Sharing
//!
//! Concurrent *processes* share a store directory by each appending to
//! segments under their own writer tag ([`MemoStore::open_shared`]);
//! sequence numbers are allocated above every existing segment, so a
//! restarted writer never collides with its own dead files. Shared
//! opens never truncate or compact (another live writer may own the
//! file); the single-writer coordinator opens the store exclusively
//! ([`MemoStore::open`]) and performs hygiene — torn-tail truncation and
//! dead-record compaction — at open time.

use crate::job::Outcome;
use bagcq_arith::Nat;
use bagcq_obs::{self as obs, crc32};
use bagcq_structure::Fingerprint;
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// First bytes of every segment file.
const SEGMENT_MAGIC: &[u8; 16] = b"bagcq-store-v1\n\0";

/// Sanity cap on one record's payload; anything larger is treated as a
/// corrupted length. Counts in this workspace are at most a few thousand
/// limbs — 4 MiB is orders of magnitude of headroom.
const MAX_RECORD_BYTES: u32 = 4 << 20;

/// Record tag for [`Outcome::Count`] values.
const TAG_COUNT: u8 = 0;

/// A typed store failure. Per-record corruption is *not* an error — it is
/// absorbed into the [`RecoveryReport`] quarantine counters — so this
/// only surfaces for problems the store cannot degrade around.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// An I/O operation failed; the payload names the path and the OS
    /// error.
    Io(String),
    /// The target path exists but is not a directory.
    NotADirectory(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(msg) => write!(f, "store I/O error: {msg}"),
            StoreError::NotADirectory(path) => {
                write!(f, "store path {path} exists but is not a directory")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// What recovery found (and did) while replaying a store's segments.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Segment files replayed.
    pub segments: usize,
    /// Records whose key survived into the live index.
    pub records_live: usize,
    /// Valid records superseded by a later record for the same key.
    pub records_superseded: usize,
    /// Records skipped because their CRC did not match (bit rot); the
    /// keys are recomputed on demand.
    pub quarantined_records: usize,
    /// Bytes skipped because framing was implausible (corrupted length
    /// field, non-segment file contents).
    pub quarantined_bytes: u64,
    /// Torn-tail bytes found mid-record at end of segment (truncated on
    /// an exclusive open, skipped on a shared one).
    pub truncated_bytes: u64,
    /// Whether open-time compaction rewrote the store.
    pub compacted: bool,
}

impl RecoveryReport {
    /// `true` when recovery saw no corruption of any kind.
    pub fn is_clean(&self) -> bool {
        self.quarantined_records == 0 && self.quarantined_bytes == 0 && self.truncated_bytes == 0
    }
}

impl fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "segments={} live={} superseded={} quarantined_records={} quarantined_bytes={} \
             truncated_bytes={} compacted={}",
            self.segments,
            self.records_live,
            self.records_superseded,
            self.quarantined_records,
            self.quarantined_bytes,
            self.truncated_bytes,
            self.compacted
        )
    }
}

/// Point-in-time store counters (surfaced through
/// [`MetricsSnapshot::store`](crate::MetricsSnapshot)).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Live records in the index.
    pub records: u64,
    /// Segment files on disk (including the open one).
    pub segments: u64,
    /// Records appended by this handle since open.
    pub appends: u64,
    /// Lookups answered from the index since open (the cache tier counts
    /// its own read-through hits separately).
    pub lookups_hit: u64,
    /// Compactions performed (open-time and explicit).
    pub compactions: u64,
    /// Records quarantined at open time.
    pub quarantined_records: u64,
    /// Bytes quarantined or truncated at open time.
    pub quarantined_bytes: u64,
}

/// Tuning knobs for a [`MemoStore`].
#[derive(Clone, Debug)]
pub struct StoreOptions {
    /// Appended records buffered before an automatic flush to the OS
    /// (`0` = flush every append). A crash loses at most this many memos.
    pub flush_every: u32,
    /// Bytes after which the current segment is sealed and a new one is
    /// started.
    pub max_segment_bytes: u64,
    /// On an exclusive open: compact when superseded + quarantined bytes
    /// exceed this fraction of total bytes.
    pub compact_dead_ratio: f64,
    /// Whether an exclusive open may compact at all.
    pub compact_on_open: bool,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            flush_every: 32,
            max_segment_bytes: 8 << 20,
            compact_dead_ratio: 0.3,
            compact_on_open: true,
        }
    }
}

/// The deserialized value of a live record.
#[derive(Clone, Debug, PartialEq, Eq)]
enum StoredValue {
    Count(Nat),
}

impl StoredValue {
    fn to_outcome(&self) -> Outcome {
        match self {
            StoredValue::Count(n) => Outcome::Count(n.clone()),
        }
    }

    fn from_outcome(outcome: &Outcome) -> Option<StoredValue> {
        match outcome {
            Outcome::Count(n) => Some(StoredValue::Count(n.clone())),
            _ => None,
        }
    }
}

/// An open segment being appended to.
struct SegmentWriter {
    file: fs::File,
    path: PathBuf,
    bytes: u64,
    buffer: Vec<u8>,
}

struct Inner {
    index: HashMap<Fingerprint, StoredValue>,
    writer: Option<SegmentWriter>,
    next_seq: u64,
    pending: u32,
    recovery: RecoveryReport,
    /// Approximate bytes of superseded/quarantined data on disk, for the
    /// compaction trigger.
    dead_bytes: u64,
    live_bytes: u64,
    segments_on_disk: u64,
}

/// A disk-backed, fingerprint-keyed outcome store. See the module docs
/// for the format and recovery discipline.
pub struct MemoStore {
    dir: PathBuf,
    writer_tag: String,
    exclusive: bool,
    options: StoreOptions,
    inner: Mutex<Inner>,
    appends: AtomicU64,
    lookups_hit: AtomicU64,
    compactions: AtomicU64,
}

impl fmt::Debug for MemoStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemoStore")
            .field("dir", &self.dir)
            .field("writer_tag", &self.writer_tag)
            .field("exclusive", &self.exclusive)
            .finish_non_exhaustive()
    }
}

fn io_err(path: &Path, e: std::io::Error) -> StoreError {
    StoreError::Io(format!("{}: {e}", path.display()))
}

/// One segment's replay result.
struct SegmentScan {
    records: Vec<(Fingerprint, StoredValue)>,
    live_bytes: u64,
    quarantined_records: usize,
    quarantined_bytes: u64,
    /// Offset of the torn tail, if the file ends mid-record.
    torn_at: Option<u64>,
}

/// Replays one segment file's bytes. Pure: no filesystem effects.
fn scan_segment(bytes: &[u8]) -> SegmentScan {
    let mut scan = SegmentScan {
        records: Vec::new(),
        live_bytes: 0,
        quarantined_records: 0,
        quarantined_bytes: 0,
        torn_at: None,
    };
    if bytes.len() < SEGMENT_MAGIC.len() || &bytes[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
        // Not a segment at all (or a file created and killed before the
        // magic landed): quarantine everything.
        if bytes.is_empty() {
            scan.torn_at = Some(0);
        } else {
            scan.quarantined_bytes = bytes.len() as u64;
        }
        return scan;
    }
    let mut offset = SEGMENT_MAGIC.len();
    loop {
        let remaining = bytes.len() - offset;
        if remaining == 0 {
            return scan;
        }
        if remaining < 8 {
            // Torn mid-header.
            scan.torn_at = Some(offset as u64);
            return scan;
        }
        let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().unwrap());
        if len > MAX_RECORD_BYTES {
            // A corrupted length: no way to find the next frame safely.
            scan.quarantined_bytes += remaining as u64;
            return scan;
        }
        if (len as usize) > remaining - 8 {
            // The payload runs past EOF: a torn tail.
            scan.torn_at = Some(offset as u64);
            return scan;
        }
        let payload = &bytes[offset + 8..offset + 8 + len as usize];
        let record_bytes = 8 + len as u64;
        offset += record_bytes as usize;
        if crc32(payload) != crc {
            scan.quarantined_records += 1;
            scan.quarantined_bytes += record_bytes;
            continue;
        }
        match decode_payload(payload) {
            Some((key, value)) => {
                scan.live_bytes += record_bytes;
                scan.records.push((key, value));
            }
            None => {
                // CRC-valid but undecodable (unknown tag / malformed
                // value): quarantine rather than guess.
                scan.quarantined_records += 1;
                scan.quarantined_bytes += record_bytes;
            }
        }
    }
}

fn decode_payload(payload: &[u8]) -> Option<(Fingerprint, StoredValue)> {
    if payload.len() < 17 {
        return None;
    }
    let hi = u64::from_le_bytes(payload[0..8].try_into().unwrap());
    let lo = u64::from_le_bytes(payload[8..16].try_into().unwrap());
    let key = Fingerprint { hi, lo };
    let tag = payload[16];
    let value = &payload[17..];
    match tag {
        TAG_COUNT => {
            if value.len() < 4 {
                return None;
            }
            let n_limbs = u32::from_le_bytes(value[0..4].try_into().unwrap()) as usize;
            if value.len() != 4 + n_limbs * 8 {
                return None;
            }
            let limbs = (0..n_limbs)
                .map(|i| u64::from_le_bytes(value[4 + i * 8..12 + i * 8].try_into().unwrap()))
                .collect();
            Some((key, StoredValue::Count(Nat::from_limbs(limbs))))
        }
        _ => None,
    }
}

fn encode_record(key: &Fingerprint, value: &StoredValue) -> Vec<u8> {
    let StoredValue::Count(n) = value;
    let limbs = n.limbs();
    let mut payload = Vec::with_capacity(21 + limbs.len() * 8);
    payload.extend_from_slice(&key.hi.to_le_bytes());
    payload.extend_from_slice(&key.lo.to_le_bytes());
    payload.push(TAG_COUNT);
    payload.extend_from_slice(&(limbs.len() as u32).to_le_bytes());
    for &l in limbs {
        payload.extend_from_slice(&l.to_le_bytes());
    }
    let mut record = Vec::with_capacity(8 + payload.len());
    record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    record.extend_from_slice(&crc32(&payload).to_le_bytes());
    record.extend_from_slice(&payload);
    record
}

/// Segment files in replay order (ascending sequence number; ties broken
/// by name so the order is total and stable).
fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, StoreError> {
    let mut segments = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(segments),
        Err(e) => return Err(io_err(dir, e)),
    };
    for entry in entries {
        let entry = entry.map_err(|e| io_err(dir, e))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if !name.ends_with(".seg") {
            continue;
        }
        // `{writer}-{seq:010}.seg`; unparseable names sort as seq 0.
        let seq = name
            .strip_suffix(".seg")
            .and_then(|stem| stem.rsplit_once('-'))
            .and_then(|(_, seq)| seq.parse::<u64>().ok())
            .unwrap_or(0);
        segments.push((seq, path));
    }
    segments.sort();
    Ok(segments)
}

impl MemoStore {
    /// Opens (or creates) the store at `dir` as its **exclusive** writer:
    /// torn tails are truncated, and the store is compacted when enough
    /// dead bytes accumulated ([`StoreOptions::compact_dead_ratio`]).
    ///
    /// Exclusivity is a caller discipline, not a lock — a lock file would
    /// survive `kill -9` and block exactly the restart this store exists
    /// to serve.
    pub fn open(dir: impl Into<PathBuf>) -> Result<MemoStore, StoreError> {
        MemoStore::open_with(dir, "main", true, StoreOptions::default())
    }

    /// Opens the store at `dir` with explicit options (exclusive).
    pub fn open_opts(
        dir: impl Into<PathBuf>,
        options: StoreOptions,
    ) -> Result<MemoStore, StoreError> {
        MemoStore::open_with(dir, "main", true, options)
    }

    /// Opens the store as one of several concurrent writer processes.
    /// `writer_tag` names this writer's segment files and must be unique
    /// among *live* writers (a restarted writer may reuse its tag).
    /// Shared opens never truncate or compact another writer's files.
    pub fn open_shared(dir: impl Into<PathBuf>, writer_tag: &str) -> Result<MemoStore, StoreError> {
        MemoStore::open_with(dir, writer_tag, false, StoreOptions::default())
    }

    fn open_with(
        dir: impl Into<PathBuf>,
        writer_tag: &str,
        exclusive: bool,
        options: StoreOptions,
    ) -> Result<MemoStore, StoreError> {
        assert!(
            !writer_tag.is_empty()
                && writer_tag.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.'),
            "writer tags must be non-empty and [A-Za-z0-9_.] (got {writer_tag:?})"
        );
        let dir = dir.into();
        let _span = obs::span("store.open", if exclusive { "exclusive" } else { "shared" });
        if dir.exists() && !dir.is_dir() {
            return Err(StoreError::NotADirectory(dir.display().to_string()));
        }
        fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        let (inner, needs_compaction) = MemoStore::recover(&dir, exclusive, &options)?;
        let store = MemoStore {
            dir,
            writer_tag: writer_tag.to_string(),
            exclusive,
            options,
            inner: Mutex::new(inner),
            appends: AtomicU64::new(0),
            lookups_hit: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
        };
        if needs_compaction {
            store.compact()?;
            store.lock().recovery.compacted = true;
        }
        Ok(store)
    }

    /// Read-only integrity scan of the store at `dir`: replays every
    /// segment and reports what recovery *would* find, without
    /// truncating, compacting, or writing anything.
    pub fn verify(dir: impl AsRef<Path>) -> Result<RecoveryReport, StoreError> {
        let dir = dir.as_ref();
        if !dir.exists() {
            return Err(StoreError::Io(format!("{}: no such directory", dir.display())));
        }
        if !dir.is_dir() {
            return Err(StoreError::NotADirectory(dir.display().to_string()));
        }
        let (inner, _) = MemoStore::recover(
            dir,
            false,
            &StoreOptions { compact_on_open: false, ..Default::default() },
        )?;
        Ok(inner.recovery)
    }

    fn recover(
        dir: &Path,
        exclusive: bool,
        options: &StoreOptions,
    ) -> Result<(Inner, bool), StoreError> {
        let mut report = RecoveryReport::default();
        let mut index: HashMap<Fingerprint, StoredValue> = HashMap::new();
        let mut dead_bytes = 0u64;
        let mut live_bytes = 0u64;
        let mut next_seq = 0u64;
        let segments = list_segments(dir)?;
        report.segments = segments.len();
        for (seq, path) in &segments {
            next_seq = next_seq.max(seq + 1);
            let bytes = fs::read(path).map_err(|e| io_err(path, e))?;
            let scan = scan_segment(&bytes);
            report.quarantined_records += scan.quarantined_records;
            report.quarantined_bytes += scan.quarantined_bytes;
            dead_bytes += scan.quarantined_bytes;
            live_bytes += scan.live_bytes;
            for (key, value) in scan.records {
                if let Some(old) = index.insert(key, value) {
                    let _ = old;
                    report.records_superseded += 1;
                    // Approximation: superseded records cost about as much
                    // as their replacement; good enough for a trigger.
                    dead_bytes += 32;
                }
            }
            if let Some(torn_at) = scan.torn_at {
                let torn = bytes.len() as u64 - torn_at;
                report.truncated_bytes += torn;
                if exclusive {
                    obs::instant("store.recover", "truncate_torn_tail");
                    // Restore the segment to a byte-clean prefix; an
                    // empty prefix (no magic landed) is just removed.
                    if torn_at < SEGMENT_MAGIC.len() as u64 {
                        fs::remove_file(path).map_err(|e| io_err(path, e))?;
                    } else {
                        let f = fs::OpenOptions::new()
                            .write(true)
                            .open(path)
                            .map_err(|e| io_err(path, e))?;
                        f.set_len(torn_at).map_err(|e| io_err(path, e))?;
                        f.sync_all().map_err(|e| io_err(path, e))?;
                    }
                } else {
                    dead_bytes += torn;
                }
            }
        }
        report.records_live = index.len();
        if report.quarantined_records > 0 || report.quarantined_bytes > 0 {
            obs::instant("store.recover", "quarantine");
        }
        let total = live_bytes + dead_bytes;
        let needs_compaction = exclusive
            && options.compact_on_open
            && total > 0
            && (dead_bytes as f64) / (total as f64) > options.compact_dead_ratio;
        let inner = Inner {
            index,
            writer: None,
            next_seq,
            pending: 0,
            recovery: report,
            dead_bytes,
            live_bytes,
            segments_on_disk: segments.len() as u64,
        };
        Ok((inner, needs_compaction))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// What recovery found at open time.
    pub fn recovery(&self) -> RecoveryReport {
        self.lock().recovery.clone()
    }

    /// Live records in the index.
    pub fn len(&self) -> usize {
        self.lock().index.len()
    }

    /// Whether the index has no live records.
    pub fn is_empty(&self) -> bool {
        self.lock().index.is_empty()
    }

    /// Whether `key` has a persisted outcome.
    pub fn contains(&self, key: &Fingerprint) -> bool {
        self.lock().index.contains_key(key)
    }

    /// The persisted outcome for `key`, if any.
    pub fn get(&self, key: &Fingerprint) -> Option<Outcome> {
        let outcome = self.lock().index.get(key).map(StoredValue::to_outcome);
        if outcome.is_some() {
            self.lookups_hit.fetch_add(1, Ordering::Relaxed);
        }
        outcome
    }

    /// Persists `outcome` under `key`. Returns `Ok(true)` when a record
    /// was appended, `Ok(false)` when the outcome kind is not persisted
    /// (only counts are) or an identical record already exists.
    pub fn put(&self, key: Fingerprint, outcome: &Outcome) -> Result<bool, StoreError> {
        let Some(value) = StoredValue::from_outcome(outcome) else {
            return Ok(false);
        };
        let mut inner = self.lock();
        if inner.index.get(&key) == Some(&value) {
            return Ok(false);
        }
        let record = encode_record(&key, &value);
        self.append_record(&mut inner, &record)?;
        if inner.index.insert(key, value).is_some() {
            inner.dead_bytes += 32;
        }
        inner.live_bytes += record.len() as u64;
        self.appends.fetch_add(1, Ordering::Relaxed);
        Ok(true)
    }

    fn append_record(&self, inner: &mut Inner, record: &[u8]) -> Result<(), StoreError> {
        if inner
            .writer
            .as_ref()
            .is_some_and(|w| w.bytes + w.buffer.len() as u64 >= self.options.max_segment_bytes)
        {
            self.flush_writer(inner)?;
            inner.writer = None;
            obs::instant("store.segment", "rotate");
        }
        if inner.writer.is_none() {
            let seq = inner.next_seq;
            inner.next_seq += 1;
            let path = self.dir.join(format!("{}-{seq:010}.seg", self.writer_tag));
            let file = fs::OpenOptions::new()
                .create_new(true)
                .write(true)
                .open(&path)
                .map_err(|e| io_err(&path, e))?;
            inner.segments_on_disk += 1;
            inner.writer =
                Some(SegmentWriter { file, path, bytes: 0, buffer: SEGMENT_MAGIC.to_vec() });
        }
        let writer = inner.writer.as_mut().expect("writer just ensured");
        writer.buffer.extend_from_slice(record);
        inner.pending += 1;
        if inner.pending > self.options.flush_every {
            self.flush_writer(inner)?;
        }
        Ok(())
    }

    fn flush_writer(&self, inner: &mut Inner) -> Result<(), StoreError> {
        if let Some(writer) = inner.writer.as_mut() {
            if !writer.buffer.is_empty() {
                writer.file.write_all(&writer.buffer).map_err(|e| io_err(&writer.path, e))?;
                writer.bytes += writer.buffer.len() as u64;
                writer.buffer.clear();
            }
        }
        inner.pending = 0;
        Ok(())
    }

    /// Flushes buffered appends to the OS (write-behind boundary). The
    /// engine's drain and the store's drop both call this.
    pub fn flush(&self) -> Result<(), StoreError> {
        let mut inner = self.lock();
        self.flush_writer(&mut inner)
    }

    /// Flushes and `fsync`s the current segment — full durability, used
    /// by the sweep coordinator after committing a point result.
    pub fn sync(&self) -> Result<(), StoreError> {
        let mut inner = self.lock();
        self.flush_writer(&mut inner)?;
        if let Some(writer) = inner.writer.as_ref() {
            writer.file.sync_all().map_err(|e| io_err(&writer.path, e))?;
        }
        Ok(())
    }

    /// Rewrites every live record into one fresh segment and removes the
    /// old files — the write-temp-rename journal discipline applied to
    /// segments. A crash mid-compaction leaves either the old segments,
    /// or the new one plus not-yet-deleted old ones (whose records are
    /// identical and harmlessly superseded on the next replay).
    ///
    /// Callable only on an exclusive store; a shared writer returns
    /// without touching files it may not own.
    pub fn compact(&self) -> Result<bool, StoreError> {
        if !self.exclusive {
            return Ok(false);
        }
        let _span = obs::span("store.compact", "compact");
        let mut inner = self.lock();
        self.flush_writer(&mut inner)?;
        inner.writer = None;
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let dest = self.dir.join(format!("{}-{seq:010}.seg", self.writer_tag));
        let tmp = dest.with_extension("seg.tmp");
        let mut buffer = SEGMENT_MAGIC.to_vec();
        let mut keys: Vec<&Fingerprint> = inner.index.keys().collect();
        // Deterministic on-disk order, so equal stores compact to equal
        // bytes regardless of hash-map iteration order.
        keys.sort_by_key(|k| (k.hi, k.lo));
        for key in keys {
            let value = &inner.index[key];
            buffer.extend_from_slice(&encode_record(key, value));
        }
        let write = || -> std::io::Result<()> {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&buffer)?;
            f.sync_all()?;
            fs::rename(&tmp, &dest)
        };
        write().map_err(|e| io_err(&dest, e))?;
        for (_, path) in list_segments(&self.dir)? {
            if path != dest {
                fs::remove_file(&path).map_err(|e| io_err(&path, e))?;
            }
        }
        inner.live_bytes = buffer.len() as u64;
        inner.dead_bytes = 0;
        inner.segments_on_disk = 1;
        self.compactions.fetch_add(1, Ordering::Relaxed);
        obs::instant("store.compact", "done");
        Ok(true)
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> StoreStats {
        let inner = self.lock();
        StoreStats {
            records: inner.index.len() as u64,
            segments: inner.segments_on_disk,
            appends: self.appends.load(Ordering::Relaxed),
            lookups_hit: self.lookups_hit.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            quarantined_records: inner.recovery.quarantined_records as u64,
            quarantined_bytes: inner.recovery.quarantined_bytes + inner.recovery.truncated_bytes,
        }
    }
}

impl Drop for MemoStore {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bagcq-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn key(n: u64) -> Fingerprint {
        Fingerprint { hi: n.wrapping_mul(0x9E37_79B9_7F4A_7C15), lo: n }
    }

    fn count(n: u64) -> Outcome {
        Outcome::Count(Nat::from_u64(n))
    }

    fn big_count() -> Outcome {
        Outcome::Count(Nat::from_limbs(vec![u64::MAX, 12345, 1]))
    }

    #[test]
    fn roundtrip_survives_reopen() {
        let dir = temp_dir("roundtrip");
        {
            let store = MemoStore::open(&dir).unwrap();
            assert!(store.is_empty());
            assert!(store.put(key(1), &count(7)).unwrap());
            assert!(store.put(key(2), &big_count()).unwrap());
            // Identical re-put is deduplicated.
            assert!(!store.put(key(1), &count(7)).unwrap());
            // Failures are never persisted.
            assert!(!store.put(key(3), &Outcome::TimedOut).unwrap());
            store.flush().unwrap();
        }
        let store = MemoStore::open(&dir).unwrap();
        assert_eq!(store.len(), 2);
        assert!(store.recovery().is_clean());
        assert_eq!(store.get(&key(1)).unwrap().as_count(), Some(&Nat::from_u64(7)));
        assert_eq!(
            store.get(&key(2)).unwrap().as_count(),
            Some(&Nat::from_limbs(vec![u64::MAX, 12345, 1]))
        );
        assert!(store.get(&key(3)).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn drop_flushes_write_behind_buffer() {
        let dir = temp_dir("dropflush");
        {
            let store = MemoStore::open_opts(
                &dir,
                StoreOptions { flush_every: 1000, ..Default::default() },
            )
            .unwrap();
            for i in 0..10 {
                store.put(key(i), &count(i)).unwrap();
            }
            // No explicit flush: Drop must land the buffer.
        }
        let store = MemoStore::open(&dir).unwrap();
        assert_eq!(store.len(), 10);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_prefix_survives() {
        let dir = temp_dir("torntail");
        {
            let store = MemoStore::open(&dir).unwrap();
            store.put(key(1), &count(11)).unwrap();
            store.put(key(2), &count(22)).unwrap();
            store.flush().unwrap();
        }
        // Simulate a kill mid-append: a half-record at the tail.
        let (_, seg) = list_segments(&dir).unwrap().pop().unwrap();
        let clean_len = fs::metadata(&seg).unwrap().len();
        let mut f = fs::OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(&[0x55, 0x00, 0x00]).unwrap();
        drop(f);

        let store = MemoStore::open(&dir).unwrap();
        let report = store.recovery();
        assert_eq!(report.truncated_bytes, 3, "{report}");
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(&key(2)).unwrap().as_count(), Some(&Nat::from_u64(22)));
        drop(store);
        assert_eq!(
            fs::metadata(&seg).unwrap().len(),
            clean_len,
            "exclusive recovery must truncate the torn tail"
        );
        // And a verify-after is clean.
        assert!(MemoStore::verify(&dir).unwrap().is_clean());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_middle_record_is_quarantined_not_fatal() {
        let dir = temp_dir("quarantine");
        {
            let store = MemoStore::open(&dir).unwrap();
            for i in 0..5 {
                store.put(key(i), &count(100 + i)).unwrap();
            }
            store.flush().unwrap();
        }
        // Flip one byte inside the *second* record's payload: framing
        // stays intact, the CRC no longer matches.
        let (_, seg) = list_segments(&dir).unwrap().pop().unwrap();
        let mut bytes = fs::read(&seg).unwrap();
        let first_record_len = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize + 8;
        let target = 16 + first_record_len + 8 + 2; // inside record 2's payload
        bytes[target] ^= 0xFF;
        fs::write(&seg, &bytes).unwrap();

        let store = MemoStore::open(&dir).unwrap();
        let report = store.recovery();
        assert_eq!(report.quarantined_records, 1, "{report}");
        assert_eq!(store.len(), 4, "only the flipped record is lost");
        for i in [0u64, 2, 3, 4] {
            assert_eq!(
                store.get(&key(i)).unwrap().as_count(),
                Some(&Nat::from_u64(100 + i)),
                "surviving record {i} must be exact"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn insane_length_quarantines_rest_of_segment() {
        let dir = temp_dir("badlen");
        {
            let store = MemoStore::open(&dir).unwrap();
            store.put(key(1), &count(1)).unwrap();
            store.put(key(2), &count(2)).unwrap();
            store.flush().unwrap();
        }
        let (_, seg) = list_segments(&dir).unwrap().pop().unwrap();
        let mut bytes = fs::read(&seg).unwrap();
        // Blast the second record's length field.
        let first_record_len = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize + 8;
        let at = 16 + first_record_len;
        bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        fs::write(&seg, &bytes).unwrap();

        let store = MemoStore::open(&dir).unwrap();
        let report = store.recovery();
        assert!(report.quarantined_bytes > 0, "{report}");
        assert_eq!(store.get(&key(1)).unwrap().as_count(), Some(&Nat::from_u64(1)));
        assert!(store.get(&key(2)).is_none(), "no resync inside a corrupt region");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_dedups_and_preserves_latest() {
        let dir = temp_dir("compact");
        let store = MemoStore::open(&dir).unwrap();
        for round in 0..4u64 {
            for i in 0..8 {
                store.put(key(i), &count(round * 100 + i)).unwrap();
            }
        }
        assert!(store.compact().unwrap());
        drop(store);
        let store = MemoStore::open(&dir).unwrap();
        let report = store.recovery();
        assert_eq!(report.segments, 1);
        assert_eq!(report.records_superseded, 0, "compaction leaves one record per key");
        for i in 0..8 {
            assert_eq!(store.get(&key(i)).unwrap().as_count(), Some(&Nat::from_u64(300 + i)));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_is_deterministic_bytes() {
        let dir_a = temp_dir("det-a");
        let dir_b = temp_dir("det-b");
        for dir in [&dir_a, &dir_b] {
            let store = MemoStore::open(dir).unwrap();
            // Different insertion orders.
            let order: Vec<u64> =
                if dir == &dir_a { (0..16).collect() } else { (0..16).rev().collect() };
            for i in order {
                store.put(key(i), &count(i * 3)).unwrap();
            }
            store.compact().unwrap();
        }
        let seg_a = fs::read(&list_segments(&dir_a).unwrap()[0].1).unwrap();
        let seg_b = fs::read(&list_segments(&dir_b).unwrap()[0].1).unwrap();
        assert_eq!(seg_a, seg_b, "equal stores must compact to identical bytes");
        let _ = fs::remove_dir_all(&dir_a);
        let _ = fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn shared_writers_union_on_reopen() {
        let dir = temp_dir("shared");
        {
            let a = MemoStore::open_shared(&dir, "worker_a").unwrap();
            let b = MemoStore::open_shared(&dir, "worker_b").unwrap();
            a.put(key(1), &count(1)).unwrap();
            b.put(key(2), &count(2)).unwrap();
            a.put(key(3), &count(3)).unwrap();
            a.flush().unwrap();
            b.flush().unwrap();
            // A shared writer never compacts.
            assert!(!a.compact().unwrap());
        }
        let store = MemoStore::open(&dir).unwrap();
        assert_eq!(store.len(), 3);
        assert!(store.recovery().is_clean());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn segment_rotation_allocates_fresh_sequence_numbers() {
        let dir = temp_dir("rotate");
        {
            let store = MemoStore::open_opts(
                &dir,
                StoreOptions { max_segment_bytes: 64, flush_every: 0, ..Default::default() },
            )
            .unwrap();
            for i in 0..6 {
                store.put(key(i), &count(i)).unwrap();
            }
        }
        let segments = list_segments(&dir).unwrap();
        assert!(segments.len() > 1, "tiny cap must rotate segments");
        // Reopen appends above every existing sequence number.
        let store = MemoStore::open_opts(
            &dir,
            StoreOptions { compact_on_open: false, ..Default::default() },
        )
        .unwrap();
        store.put(key(100), &count(100)).unwrap();
        store.flush().unwrap();
        let max_before = segments.iter().map(|(s, _)| *s).max().unwrap();
        let max_after = list_segments(&dir).unwrap().iter().map(|(s, _)| *s).max().unwrap();
        assert!(max_after > max_before);
        assert_eq!(store.len(), 7);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_is_read_only() {
        let dir = temp_dir("verify");
        {
            let store = MemoStore::open(&dir).unwrap();
            store.put(key(1), &count(1)).unwrap();
            store.flush().unwrap();
        }
        let (_, seg) = list_segments(&dir).unwrap().pop().unwrap();
        let mut f = fs::OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(&[1, 2, 3]).unwrap();
        drop(f);
        let len_before = fs::metadata(&seg).unwrap().len();
        let report = MemoStore::verify(&dir).unwrap();
        assert_eq!(report.truncated_bytes, 3);
        assert_eq!(fs::metadata(&seg).unwrap().len(), len_before, "verify must not truncate");
        assert!(MemoStore::verify(temp_dir("verify-missing")).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_file_is_quarantined_whole() {
        let dir = temp_dir("foreign");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("rogue-0000000000.seg"), b"this is not a segment").unwrap();
        let store = MemoStore::open_opts(
            &dir,
            StoreOptions { compact_on_open: false, ..Default::default() },
        )
        .unwrap();
        let report = store.recovery();
        assert!(report.quarantined_bytes > 0);
        assert_eq!(store.len(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_time_compaction_triggers_on_dead_ratio() {
        let dir = temp_dir("autocompact");
        {
            let store = MemoStore::open_opts(
                &dir,
                StoreOptions { compact_on_open: false, flush_every: 0, ..Default::default() },
            )
            .unwrap();
            // One live key overwritten many times: almost all dead bytes.
            for round in 0..50u64 {
                store.put(key(1), &count(round)).unwrap();
            }
        }
        let store = MemoStore::open(&dir).unwrap();
        assert!(store.recovery().compacted, "{}", store.recovery());
        assert_eq!(store.get(&key(1)).unwrap().as_count(), Some(&Nat::from_u64(49)));
        assert_eq!(store.stats().compactions, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_track_appends_and_hits() {
        let dir = temp_dir("stats");
        let store = MemoStore::open(&dir).unwrap();
        store.put(key(1), &count(1)).unwrap();
        store.put(key(2), &count(2)).unwrap();
        assert!(store.get(&key(1)).is_some());
        assert!(store.get(&key(9)).is_none());
        let stats = store.stats();
        assert_eq!(stats.records, 2);
        assert_eq!(stats.appends, 2);
        assert_eq!(stats.lookups_hit, 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
