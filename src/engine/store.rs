//! The persistent tier of the [`Engine`](super::Engine)'s schedule cache:
//! one append-only segment file per cache directory.
//!
//! CoSA's one-shot solves make schedules for repeated layer shapes
//! perfectly reusable artifacts, so the engine persists every cache entry
//! (the [`Scheduled`] result plus its optional NoC verdict) to disk and
//! warm-starts from the same directory in later processes — repeated bench
//! runs and serving restarts skip both the MILP solve and the cycle-level
//! NoC simulation.
//!
//! # On-disk layout
//!
//! ```text
//! <cache-dir>/segment.cosa
//!
//! [u64 LE SEGMENT_VERSION][u64 LE generation][u64 LE index_len][index JSON][frames…]
//! frame = [u64 LE record_len][record JSON]
//! ```
//!
//! The file is a log headed by an index *checkpoint*: an exact-length
//! index (the length-prefixed pattern of safetensors) mapping each digest
//! to `(offset, len, version, saved_at_millis)` of its frame, offsets
//! counted from the end of the index. Frames appended after the
//! checkpoint carry no index row: each record is a self-describing
//! envelope — `{"version": 3, "key": "<digest>", "saved_at_millis": …,
//! "check": "<check of key and entry>", "entry": {...}}` — and a view
//! learns them by replaying the tail. Warm start reads the index and
//! replays at most as many frames as it has rows; entries decode lazily
//! on first use.
//!
//! - **Save**: under the writer lock, bring the view up to date, append
//!   one frame and fsync once. No byte before the previous end of file
//!   changes.
//! - **Refresh**: replay the frames past the view's replay position — the
//!   cost is O(new frames), never O(index). An unchanged `(len, mtime)`
//!   costs one `stat`; otherwise the preamble's *generation* decides, and a
//!   generation other than the view's (a checkpoint another handle renamed
//!   in — inode numbers are reused, so inode and length cannot tell)
//!   triggers a full reload. Writers always check the generation.
//! - **Read**: the view holds an open handle to the file its rows
//!   describe, so reading an entry is the refresh's `stat` plus one
//!   positioned read of its frame. The record's raw entry JSON is the
//!   entry's canonical encoding, so the read also yields the entry's
//!   size, which the engine's LRU accounts without encoding it again;
//!   likewise a save can take an entry the engine has already encoded.
//! - **Checkpoint**: the live records, under an exact index and a fresh
//!   generation, go to a temp file that is fsynced and renamed into place.
//!   A save takes one when the frames past the checkpoint would outnumber
//!   its rows (so saves cost amortised O(1) and replay on open is bounded
//!   by the index size); every eviction and every GC compaction is one.
//!
//! There is one schema: a record (or index row) whose version is not
//! [`STORE_VERSION`] is skipped and counted like any other damaged record,
//! the engine re-solves its shape and the fresh record supersedes it. A
//! cache directory is disposable across `STORE_VERSION`s, and a segment of
//! another `SEGMENT_VERSION` loads as empty, is counted, and is replaced by
//! the first save.
//!
//! # Crash ordering and recovery
//!
//! An appended frame needs no second write to become visible, so a crash
//! can only leave a *torn tail*: a frame whose length runs past EOF.
//! Replay stops before it and counts it once; the next writer truncates it
//! before appending, so every appended frame stays reachable. A frame with
//! intact framing but a bad record (unparseable, failed check, another
//! `STORE_VERSION`) is skipped and counted, and replay continues. A cut
//! inside the checkpoint skips (and counts) the rows past it, and the next
//! write checkpoints afresh. Evictions are checkpoints rather than
//! tombstone frames, so the log past a checkpoint only ever adds digests
//! and no truncation can resurrect an evicted one.
//!
//! # Garbage collection
//!
//! Disk is the capacity tier, but it is not unbounded: [`CacheStore::gc`]
//! enforces a [`GcPolicy`] (byte budget and/or maximum entry age),
//! oldest-saved first. A sweep that evicts rewrites the segment as a
//! checkpoint without its victims; one that evicts nothing still compacts
//! once the dead bytes of superseded frames exceed
//! [`GcPolicy::compact_min_dead`] (default: the larger of 4 KiB and the
//! live payload size), so GC cost scales with the index, not with
//! history. The sweep also removes temp files orphaned by killed writers
//! (older than a minute) and lock files nobody holds.
//!
//! # Cross-process solve locks
//!
//! Multiple processes (e.g. two `cosa-serve` daemons) may share one cache
//! directory. Without coordination two cold processes asked for the same
//! digest would each run the solver. [`CacheStore::try_lock`] and
//! [`CacheStore::lock`] provide advisory per-digest coordination:
//!
//! ```text
//! <cache-dir>/<digest>.lock      # held while a process solves <digest>
//! ```
//!
//! A lock is an OS file lock (`File::lock`) on that file, so the OS frees
//! it when its holder exits or dies; a waiter blocks until then, however
//! long a live holder solves. [`SolveLock`] deletes the file on release
//! while it still holds the lock, and a taker checks, once it holds the
//! lock, that the path still names the file it locked — otherwise a
//! release or a GC sweep unlinked it meanwhile, and the taker retries.
//! The locking is advisory and fail-open: an I/O error degrades to a
//! duplicated solve, never to corruption or an unserved request.
//!
//! Segment writers additionally serialize on `segment.cosa.lock`, taken
//! the same way; a writer blocks until the holder's append is done.

use std::borrow::Cow;
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::fs;
use std::hash::BuildHasher;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::os::unix::fs::{FileExt, MetadataExt};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, TryLockError};
use std::time::{Duration, Instant, SystemTime};

use cosa_noc::NocSummary;
use serde::{Deserialize, Reader, Serialize};

use crate::api::Scheduled;

/// Version tag written into every entry envelope. Bump when the entry
/// schema (or the canonical serialization feeding the digests) changes;
/// loaders skip entries from other versions.
pub const STORE_VERSION: u32 = 3;

/// Version tag of the segment layout — preamble, index and framing —
/// independent of the entry envelope version, which governs records.
const SEGMENT_VERSION: u64 = 2;

/// Bytes of the fixed preamble: version, generation, index length.
const PREAMBLE_LEN: u64 = 24;

/// The packed segment file name inside a cache directory.
const SEGMENT_FILE: &str = "segment.cosa";

/// The segment writer lock file name. The `.lock` extension keeps it
/// under the same GC sweep as per-digest solve locks; the dotted stem can
/// never collide with a digest lock (digests are bare alphanumerics).
const SEGMENT_LOCK_FILE: &str = "segment.cosa.lock";

/// Default dead-byte floor below which GC never compacts, so tiny
/// segments are not rewritten over noise.
const DEFAULT_COMPACT_MIN_DEAD: u64 = 4096;

/// Process-wide sequence distinguishing concurrent segment rewrites
/// *within* one process: two threads (e.g. two engines sharing a cache
/// dir in one daemon process) must not share a temp file, or the slower
/// one's rename finds its temp already consumed.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A held per-digest solve lock (see the [module docs](self)).
///
/// Dropping (or [`SolveLock::release`]-ing) deletes the lock file while
/// the lock is still held, then frees the lock.
#[derive(Debug)]
pub struct SolveLock {
    path: PathBuf,
    file: fs::File,
}

impl SolveLock {
    /// Release the lock now (equivalent to dropping it).
    pub fn release(self) {}
}

impl Drop for SolveLock {
    fn drop(&mut self) {
        // Unlink first, so nobody else holds the lock while the path
        // still names this file.
        let _ = fs::remove_file(&self.path);
        let _ = self.file.unlock();
    }
}

/// Per-tensor DRAM traffic of a cached schedule, in bytes per execution:
/// the analytical model's breakdown of
/// [`Evaluation::dram_bytes`](cosa_model::Evaluation::dram_bytes) by
/// operand. Persisted alongside the schedule so warm inter-layer residency
/// passes read savings off the entry instead of re-running the cost model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DramProfile {
    /// DRAM bytes moved for the weight tensor.
    pub weights: f64,
    /// DRAM bytes moved for the input activation tensor.
    pub inputs: f64,
    /// DRAM bytes moved for the output activation tensor.
    pub outputs: f64,
}

impl DramProfile {
    /// From the cost model's per-tensor array (indexed by
    /// `DataTensor::index`).
    pub fn from_tensor_bytes(bytes: [f64; 3]) -> DramProfile {
        DramProfile {
            weights: bytes[0],
            inputs: bytes[1],
            outputs: bytes[2],
        }
    }

    /// Back to the cost model's index order.
    pub fn tensor_bytes(&self) -> [f64; 3] {
        [self.weights, self.inputs, self.outputs]
    }

    /// Total DRAM bytes per execution.
    pub fn total(&self) -> f64 {
        self.weights + self.inputs + self.outputs
    }
}

/// One cached value: the scheduling result plus the engine-level NoC
/// verdict when simulation was enabled for (or has caught up with) the
/// entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheEntry {
    /// The cached scheduling result.
    pub scheduled: Scheduled,
    /// The cached NoC evaluation of `scheduled.schedule`. `None` when the
    /// entry was produced without engine-level NoC evaluation (or the
    /// simulator rejected the schedule, which cannot happen for schedules
    /// the engine itself validated and cached); NoC-enabled engines
    /// re-attempt missing verdicts rather than negatively caching them.
    pub noc: Option<NocSummary>,
    /// Which scheduler backend produced `scheduled` — under the portfolio
    /// scheduler, the backend it picked (e.g. `"cosa"` or `"sat"`).
    pub backend: Option<String>,
    /// Per-tensor DRAM traffic of `scheduled.schedule` — the inter-layer
    /// residency pass's input; caught up lazily when `None`.
    pub dram: Option<DramProfile>,
}

impl CacheEntry {
    /// An entry with no NoC verdict, backend or DRAM provenance yet.
    pub fn new(scheduled: Scheduled) -> CacheEntry {
        CacheEntry {
            scheduled,
            noc: None,
            backend: None,
            dram: None,
        }
    }
}

/// The head of a record envelope — everything before its `"entry"`,
/// which replay reads without decoding the entry itself — borrowed from
/// the frame.
#[derive(Debug)]
struct RecordHead<'a> {
    version: u32,
    key: Cow<'a, str>,
    saved_at_millis: u64,
    /// [`record_check`] of the key and the raw entry JSON, in hex.
    check: Cow<'a, str>,
}

impl<'a> RecordHead<'a> {
    /// Read `head`, an envelope up to (not including) its `,"entry":`, in
    /// place: the members of an object whose closing brace lies past the
    /// text, under a derived struct's rules (unknown keys skipped, the
    /// first of duplicate keys wins, every field required).
    fn read(head: &'a str) -> Result<RecordHead<'a>, serde::Error> {
        let mut r = Reader::new(head);
        let (mut version, mut key, mut saved_at_millis, mut check) = (None, None, None, None);
        r.expect(b'{')?;
        loop {
            let name = r.str()?;
            r.expect(b':')?;
            match &*name {
                "version" if version.is_none() => version = Some(u32::deserialize(&mut r)?),
                "key" if key.is_none() => key = Some(r.str()?),
                "saved_at_millis" if saved_at_millis.is_none() => {
                    saved_at_millis = Some(u64::deserialize(&mut r)?);
                }
                "check" if check.is_none() => check = Some(r.str()?),
                _ => r.skip()?,
            }
            if r.peek().is_none() {
                break;
            }
            r.expect(b',')?;
        }
        Ok(RecordHead {
            version: serde::required(version, "version")?,
            key: serde::required(key, "key")?,
            saved_at_millis: serde::required(saved_at_millis, "saved_at_millis")?,
            check: serde::required(check, "check")?,
        })
    }
}

/// One index row: where a digest's record lives and enough metadata
/// (version, recency) to GC and report without decoding the record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct SegmentIndexEntry {
    key: String,
    /// File offset of the record JSON (just past its length prefix):
    /// absolute in memory, counted from the end of the index on disk.
    offset: u64,
    /// Record JSON length in bytes.
    len: u64,
    /// Entry envelope version ([`STORE_VERSION`] when written).
    version: u32,
    /// Unix-epoch milliseconds of the save — GC's recency key.
    saved_at_millis: u64,
}

/// The JSON index of a checkpoint.
#[derive(Debug, Serialize, Deserialize)]
struct SegmentHeader {
    entries: Vec<SegmentIndexEntry>,
}

/// The in-memory picture of the segment file, cached per store handle
/// behind a `(len, mtime)` fingerprint and kept current by tail replay.
#[derive(Debug, Default)]
struct SegmentView {
    /// An open handle to the file the rows describe, replaced whenever a
    /// refresh, replay or checkpoint rebuilds the view, so a read is one
    /// positioned read with no `open`. `None` when the segment file does
    /// not exist. Writers sync the view through a read-write handle first.
    file: Option<Arc<fs::File>>,
    /// `(len, mtime)` of the file this view was read from; `None` when
    /// the segment file does not exist.
    stat: Option<(u64, SystemTime)>,
    /// Generation stamp of the checkpoint the view replays; `None` when
    /// the file is missing or its preamble, index or checkpoint frames are
    /// damaged — the next write then checkpoints instead of appending.
    generation: Option<u64>,
    /// End of the index: where frames begin.
    payload_start: u64,
    /// Replay position: the end of the last complete frame.
    file_len: u64,
    /// Rows in the checkpoint index, and frames replayed past it.
    checkpoint_rows: usize,
    tail_frames: usize,
    /// Live rows by digest.
    rows: HashMap<String, SegmentIndexEntry>,
    /// Index rows or frames the loader had to skip (truncation damage,
    /// bad records, another [`STORE_VERSION`]).
    skipped: usize,
}

impl SegmentView {
    /// Skipped rows and frames, plus one for a torn tail: file bytes past
    /// the replay position (a frame cut short or still being written, or an
    /// unreadable header).
    fn skipped_total(&self) -> usize {
        let torn = self.stat.is_some_and(|(len, _)| len > self.file_len);
        self.skipped + usize::from(torn)
    }

    /// Live payload bytes (frames still reachable from the index,
    /// including their length prefixes).
    fn live_bytes(&self) -> u64 {
        self.rows.values().map(|e| 8 + e.len).sum()
    }

    /// Payload bytes no row points at (superseded or damaged records) —
    /// what compaction reclaims.
    fn dead_bytes(&self) -> u64 {
        let payload = self.file_len.saturating_sub(self.payload_start);
        payload.saturating_sub(self.live_bytes())
    }

    /// Append one frame at the replay position through the writer's
    /// read-write handle and fsync it — the only write a save makes.
    fn append(
        &mut self,
        file: &fs::File,
        mut row: SegmentIndexEntry,
        record: &[u8],
    ) -> io::Result<()> {
        // A torn tail (a writer killed mid-append) is cut off first, so
        // the new frame stays reachable by replay.
        if self.stat.is_some_and(|(len, _)| len > self.file_len) {
            file.set_len(self.file_len)?;
        }
        let mut frame = Vec::with_capacity(8 + record.len());
        frame.extend_from_slice(&(record.len() as u64).to_le_bytes());
        frame.extend_from_slice(record);
        file.write_all_at(&frame, self.file_len)?;
        file.sync_data()?;
        row.offset = self.file_len + 8;
        self.file_len = row.offset + row.len;
        self.tail_frames += 1;
        self.stat = handle_stat(file);
        self.rows.insert(row.key.clone(), row);
        Ok(())
    }
}

/// The outcome of loading a cache directory.
#[derive(Debug, Default)]
pub struct StoreLoad {
    /// Valid entries, sorted by key for deterministic load order.
    pub entries: Vec<(String, CacheEntry)>,
    /// Records skipped as corrupt, mis-keyed or version-mismatched.
    pub skipped: usize,
    /// Wall-clock microseconds the load took (cold vs. warm start cost).
    pub load_micros: u64,
}

/// The outcome of [`CacheStore::load_index`] — the O(index) warm start.
#[derive(Debug, Default)]
pub struct IndexLoad {
    /// Distinct digests warm-loadable from disk (live index rows).
    pub entries: usize,
    /// Index rows or frames skipped as damaged or version-mismatched.
    pub skipped: usize,
    /// Wall-clock microseconds the load took.
    pub load_micros: u64,
}

/// A point-in-time description of the disk tier's shape, surfaced through
/// `CacheStats` and `GET /v1/stats`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiskTierStats {
    /// Live rows in the segment index.
    pub index_entries: usize,
    /// Size of `segment.cosa` on disk (header + payload, live and dead).
    pub segment_bytes: u64,
    /// Payload bytes reachable from the index.
    pub live_bytes: u64,
    /// Payload bytes awaiting compaction.
    pub dead_bytes: u64,
    /// Compactions this store handle has run.
    pub compactions: u64,
}

/// A size/TTL policy for the disk tier, enforced by [`CacheStore::gc`].
///
/// Age eviction runs first (any entry saved longer than `max_age` ago is
/// evicted), then byte eviction removes the oldest-saved survivors until
/// the live bytes fit in `max_bytes`. The newest entry is never evicted
/// for size — a single oversized entry still persists, mirroring the
/// in-memory LRU's contract. Evictions turn payload bytes
/// dead; once dead bytes reach `compact_min_dead` the sweep compacts the
/// segment. A policy with no bound set is a no-op.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcPolicy {
    /// Byte budget for the sum of live entry sizes, when set.
    pub max_bytes: Option<u64>,
    /// Maximum entry age (time since last save), when set.
    pub max_age: Option<Duration>,
    /// Dead-payload-byte threshold at which GC compacts the segment.
    /// `None` uses the default heuristic: compact when dead bytes exceed
    /// the larger of 4 KiB and the live payload size, which bounds the
    /// segment file at roughly twice its live size.
    pub compact_min_dead: Option<u64>,
}

impl GcPolicy {
    /// `true` when no bound is set (GC would be a no-op beyond the
    /// tmp/lock sweeps).
    pub fn is_unbounded(&self) -> bool {
        self.max_bytes.is_none() && self.max_age.is_none() && self.compact_min_dead.is_none()
    }

    /// Set the byte budget.
    pub fn with_max_bytes(mut self, max_bytes: u64) -> GcPolicy {
        self.max_bytes = Some(max_bytes);
        self
    }

    /// Set the maximum entry age.
    pub fn with_max_age(mut self, max_age: Duration) -> GcPolicy {
        self.max_age = Some(max_age);
        self
    }

    /// Set the dead-byte threshold past which GC compacts the segment
    /// (`0` compacts whenever any dead bytes exist).
    pub fn with_compact_min_dead(mut self, min_dead: u64) -> GcPolicy {
        self.compact_min_dead = Some(min_dead);
        self
    }
}

/// The outcome of one [`CacheStore::gc`] sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GcReport {
    /// Distinct digests considered (live index rows).
    pub examined: usize,
    /// Digests evicted.
    pub removed: usize,
    /// Payload bytes the removals turned dead.
    pub removed_bytes: u64,
    /// Digests kept.
    pub retained: usize,
    /// Live bytes still on disk after the sweep.
    pub retained_bytes: u64,
    /// Digests that could not be evicted (an I/O error).
    pub delete_errors: usize,
    /// Orphaned temp files (left by killed writers) swept alongside the
    /// entries.
    pub stale_tmp_removed: usize,
    /// Lock files (solve locks and the segment writer lock) that nobody
    /// held, left behind by holders that died before their release,
    /// removed alongside the entries. A held lock file is never removed.
    pub stale_locks_removed: usize,
    /// Segment compactions run by this sweep (0 or 1).
    pub compactions: u64,
    /// Bytes the compaction shrank the segment file by.
    pub compacted_bytes: u64,
}

/// A persistent schedule-cache directory. See the [module docs](self) for
/// the format.
#[derive(Debug)]
pub struct CacheStore {
    dir: PathBuf,
    /// Cached segment view; see [`SegmentView`].
    seg: Mutex<SegmentView>,
    /// The disk-tier numbers the last holder of `seg` published, for a
    /// [`CacheStore::disk_stats`] that finds `seg` held (a save holds it
    /// through its lock-file wait, append and fsync). Held only to copy.
    published: Mutex<DiskTierStats>,
    /// Compactions run by this handle (process-local activity counter).
    compactions: AtomicU64,
}

impl CacheStore {
    /// Open (creating if needed) the store at `dir`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<CacheStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(CacheStore {
            dir,
            seg: Mutex::new(SegmentView::default()),
            published: Mutex::new(DiskTierStats::default()),
            compactions: AtomicU64::new(0),
        })
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the solve-lock file for `key`.
    fn lock_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.lock"))
    }

    /// Path of the packed segment file.
    fn segment_path(&self) -> PathBuf {
        self.dir.join(SEGMENT_FILE)
    }

    /// Reject keys that are not bare digests (they name lock files
    /// directly).
    fn validate_key(key: &str) -> io::Result<()> {
        if key.is_empty() || !key.bytes().all(|b| b.is_ascii_alphanumeric()) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("cache key `{key}` is not a digest"),
            ));
        }
        Ok(())
    }

    /// Lock the cached segment view, surviving a poisoned mutex (a
    /// panicking test thread must not wedge its sibling handles).
    fn seg_guard(&self) -> std::sync::MutexGuard<'_, SegmentView> {
        self.seg
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Bring `view` up to date with the file: an unchanged `(len, mtime)`
    /// costs one `stat`, anything else a [`sync_view`] through a fresh
    /// handle.
    fn refresh_view(&self, view: &mut SegmentView) {
        if file_stat(&self.segment_path()) == view.stat {
            return;
        }
        match fs::File::open(self.segment_path()) {
            Ok(file) => sync_view(file, view),
            Err(_) => *view = SegmentView::default(),
        }
    }

    /// Take the segment writer lock, blocking until its holder's append is
    /// done, and sync `view` through a read-write handle, which becomes the
    /// view's, checking the generation even when `(len, mtime)` match, so a
    /// writer never builds on a stale view. The view has no handle when the
    /// segment does not exist.
    fn lock_for_write(&self, view: &mut SegmentView) -> io::Result<SolveLock> {
        let lock =
            take_lock(self.dir.join(SEGMENT_LOCK_FILE), true)?.expect("a blocking take holds");
        let opened = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(self.segment_path());
        match opened {
            Ok(file) => sync_view(file, view),
            Err(e) if e.kind() == io::ErrorKind::NotFound => *view = SegmentView::default(),
            Err(e) => return Err(e),
        }
        Ok(lock)
    }

    /// Load the single entry for `key`, if present and valid. Re-checks
    /// the disk on a miss, so a process can observe entries persisted by
    /// *other* processes after its own warm start (the cross-process
    /// read-through path).
    pub fn load_entry(&self, key: &str) -> Option<CacheEntry> {
        self.load_sized(key).map(|(entry, _)| entry)
    }

    /// [`CacheStore::load_entry`] plus the length of the entry's JSON as
    /// the record holds it — the canonical encoding [`CacheStore::save`]
    /// wrote — so the engine's read-through accounts the entry's size in
    /// its LRU without encoding it again.
    pub(crate) fn load_sized(&self, key: &str) -> Option<(CacheEntry, u64)> {
        // A hit costs one `stat` and one positioned read through the
        // view's handle; a miss costs a refresh, never an index read. A row
        // whose record fails to validate gets one retry from a rebuilt view
        // and a fresh handle: another handle's checkpoint may have moved it.
        for attempt in 0..2 {
            let (row, file) = {
                let mut view = self.seg_guard();
                if attempt > 0 {
                    *view = SegmentView::default();
                }
                self.refresh_view(&mut view);
                (view.rows.get(key).cloned()?, view.file.clone()?)
            };
            if let Some(sized) = read_entry(&file, &row) {
                return Some(sized);
            }
        }
        None
    }

    /// Try to acquire the advisory solve lock for `key` without blocking.
    ///
    /// Returns `Ok(None)` when another holder has it. See the
    /// [module docs](self) for the protocol.
    ///
    /// # Errors
    ///
    /// Returns the I/O error for anything but contention (a bad key, an
    /// unwritable directory); callers should degrade to solving unlocked.
    pub fn try_lock(&self, key: &str) -> io::Result<Option<SolveLock>> {
        Self::validate_key(key)?;
        take_lock(self.lock_path(key), false)
    }

    /// Acquire the advisory solve lock for `key`, blocking until its
    /// holder releases it or dies.
    ///
    /// # Errors
    ///
    /// As [`CacheStore::try_lock`].
    pub fn lock(&self, key: &str) -> io::Result<SolveLock> {
        Self::validate_key(key)?;
        take_lock(self.lock_path(key), true).map(|lock| lock.expect("a blocking take holds"))
    }

    /// Load (eagerly decode) every valid entry, skipping and counting
    /// damaged ones.
    pub fn load(&self) -> StoreLoad {
        let start = Instant::now();
        let mut load = StoreLoad::default();
        let (rows, file): (Vec<SegmentIndexEntry>, _) = {
            let mut view = self.seg_guard();
            self.refresh_view(&mut view);
            load.skipped += view.skipped_total();
            (view.rows.values().cloned().collect(), view.file.clone())
        };
        if let Some(file) = file {
            for row in rows {
                match read_entry(&file, &row) {
                    Some((entry, _)) => load.entries.push((row.key, entry)),
                    None => load.skipped += 1,
                }
            }
        }
        load.entries.sort_by(|a, b| a.0.cmp(&b.0));
        load.load_micros = start.elapsed().as_micros() as u64;
        load
    }

    /// The O(index) warm start: read the checkpoint index and replay the
    /// frames past it (at most as many as it has rows), decoding no entry,
    /// and report what is warm-loadable.
    pub fn load_index(&self) -> IndexLoad {
        let start = Instant::now();
        let mut view = self.seg_guard();
        self.refresh_view(&mut view);
        IndexLoad {
            entries: view.rows.len(),
            skipped: view.skipped_total(),
            load_micros: start.elapsed().as_micros() as u64,
        }
    }

    /// Persist one entry: one frame appended and fsynced — or, when the
    /// frames past the checkpoint would outnumber its rows (or there is
    /// no healthy checkpoint to append to), a checkpoint that includes it.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O or serialization error; the previous
    /// version of the entry (if any) stays intact on failure.
    pub fn save(&self, key: &str, entry: &CacheEntry) -> io::Result<()> {
        let entry = serde_json::to_string(entry)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        self.save_encoded(key, &entry)
    }

    /// [`CacheStore::save`] of an entry the caller has already encoded:
    /// `entry_json` is its canonical JSON (`serde_json::to_string`), which
    /// the engine also takes the entry's LRU size from, so a fresh solve or
    /// a completion encodes the entry once.
    ///
    /// # Errors
    ///
    /// As [`CacheStore::save`].
    pub(crate) fn save_encoded(&self, key: &str, entry_json: &str) -> io::Result<()> {
        Self::validate_key(key)?;
        let saved_at_millis = now_millis();
        let record = encode_record(key, entry_json, saved_at_millis);
        let row = SegmentIndexEntry {
            key: key.to_string(),
            offset: 0,
            len: record.len() as u64,
            version: STORE_VERSION,
            saved_at_millis,
        };
        let mut view = self.seg_guard();
        let _lock = self.lock_for_write(&mut view)?;
        let saved = match view.file.clone() {
            Some(file) if view.generation.is_some() && view.tail_frames < view.checkpoint_rows => {
                view.append(&file, row, record.as_bytes())
            }
            _ => self.checkpoint(&mut view, |k| k != key, Some((row, record.into_bytes()))),
        };
        self.publish(&view);
        saved
    }

    /// Remove one entry (a missing entry is not an error). Like every
    /// eviction, this is a checkpoint.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn remove(&self, key: &str) -> io::Result<()> {
        let mut view = self.seg_guard();
        self.refresh_view(&mut view);
        if view.rows.contains_key(key) {
            let _lock = self.lock_for_write(&mut view)?;
            self.checkpoint(&mut view, |k| k != key, None)?;
            self.publish(&view);
        }
        Ok(())
    }

    /// A point-in-time description of the disk tier's shape: live index
    /// rows, and the payload split into live bytes (what
    /// [`GcPolicy::max_bytes`] budgets against) and dead ones (compaction's
    /// business). Never waits: when
    /// another thread holds the segment view (a save mid-fsync), it
    /// returns the numbers that holder's last publication left instead of
    /// refreshing — a serving event loop reports stats through here.
    pub fn disk_stats(&self) -> DiskTierStats {
        let held = match self.seg.try_lock() {
            Ok(view) => Some(view),
            Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        };
        let mut stats = match held {
            Some(mut view) => {
                self.refresh_view(&mut view);
                self.publish(&view)
            }
            None => self
                .published
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .clone(),
        };
        stats.compactions = self.compactions.load(Ordering::Relaxed);
        stats
    }

    /// Record `view`'s disk-tier numbers for a [`CacheStore::disk_stats`]
    /// that finds the view held, and return them.
    fn publish(&self, view: &SegmentView) -> DiskTierStats {
        let stats = DiskTierStats {
            index_entries: view.rows.len(),
            segment_bytes: view.stat.map_or(0, |(len, _)| len),
            live_bytes: view.live_bytes(),
            dead_bytes: view.dead_bytes(),
            compactions: self.compactions.load(Ordering::Relaxed),
        };
        self.published
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone_from(&stats);
        stats
    }

    /// Enforce `policy` on the disk tier, evicting digests until both
    /// budgets hold and compacting the segment when enough payload is
    /// dead. See [`GcPolicy`] for the eviction order.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the directory cannot be scanned;
    /// per-digest eviction failures are counted in
    /// [`GcReport::delete_errors`] instead of aborting the sweep.
    pub fn gc(&self, policy: &GcPolicy) -> io::Result<GcReport> {
        self.gc_at(policy, SystemTime::now())
    }

    /// [`CacheStore::gc`] with an explicit "now" for the age cutoff, so
    /// tests can age entries deterministically instead of sleeping.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the directory cannot be scanned.
    pub fn gc_at(&self, policy: &GcPolicy, now: SystemTime) -> io::Result<GcReport> {
        let mut report = GcReport::default();
        let now_ms = time_to_millis(now);
        // Directory scan: sweep orphaned temp and lock files. (Entry
        // recency comes from the index — GC stats no per-entry files.)
        for dir_entry in fs::read_dir(&self.dir)?.flatten() {
            let path = dir_entry.path();
            let extension = path.extension().and_then(|e| e.to_str());
            let mtime = dir_entry
                .metadata()
                .and_then(|m| m.modified())
                .unwrap_or(SystemTime::UNIX_EPOCH);
            // A live writer holds its `.tmp` for milliseconds before the
            // rename; anything older was orphaned by a killed process
            // (e.g. a CI run cancelled mid-write) and would otherwise
            // accumulate invisibly — no budget ever counts it.
            if extension == Some("tmp") {
                let stale = now
                    .duration_since(mtime)
                    .map(|age| age > Duration::from_secs(60))
                    .unwrap_or(false);
                if stale && fs::remove_file(&path).is_ok() {
                    report.stale_tmp_removed += 1;
                }
            }
            // Lock files left by holders that died before their release
            // (a release deletes its file). A held one is spared.
            if extension == Some("lock") && remove_unheld_lock(&path) {
                report.stale_locks_removed += 1;
            }
        }

        // Candidates: the live index rows, oldest-saved first.
        let mut view = self.seg_guard();
        self.refresh_view(&mut view);
        let mut cands: Vec<&SegmentIndexEntry> = view.rows.values().collect();
        cands.sort_by(|a, b| (a.saved_at_millis, &a.key).cmp(&(b.saved_at_millis, &b.key)));
        report.examined = cands.len();
        let total = view.live_bytes();

        // Decide the victim set first, then evict it in one checkpoint.
        let max_age_ms = policy
            .max_age
            .map(|max| u64::try_from(max.as_millis()).unwrap_or(u64::MAX));
        let expired =
            |millis: u64| max_age_ms.is_some_and(|max| now_ms.saturating_sub(millis) > max);
        let mut victims: HashSet<String> = HashSet::new();
        let mut running = total;
        for (i, row) in cands.iter().enumerate() {
            let over_bytes = policy
                .max_bytes
                .is_some_and(|max| running > max && i + 1 < cands.len());
            if expired(row.saved_at_millis) || over_bytes {
                victims.insert(row.key.clone());
                running -= 8 + row.len;
            }
        }

        // Evictions rewrite the segment, and so does compaction once
        // superseded frames have turned enough payload dead. Cost scales
        // with the index, not with history.
        let dead = view.dead_bytes();
        let threshold = policy
            .compact_min_dead
            .unwrap_or_else(|| running.max(DEFAULT_COMPACT_MIN_DEAD));
        if !victims.is_empty() || (dead > 0 && dead >= threshold) {
            let old_len = view.stat.map_or(0, |(len, _)| len);
            let rewritten = self
                .lock_for_write(&mut view)
                .and_then(|_lock| self.checkpoint(&mut view, |k| !victims.contains(k), None));
            if rewritten.is_ok() {
                report.removed = victims.len();
                report.removed_bytes = total - running;
                report.compactions = 1;
                report.compacted_bytes = old_len.saturating_sub(view.file_len);
                self.compactions.fetch_add(1, Ordering::Relaxed);
            } else {
                report.delete_errors = victims.len();
            }
        }
        self.publish(&view);
        report.retained = report.examined - report.removed;
        report.retained_bytes = total - report.removed_bytes;
        Ok(report)
    }

    /// Delete every entry, returning how many distinct digests were
    /// removed.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error encountered.
    pub fn clear(&self) -> io::Result<usize> {
        let mut view = self.seg_guard();
        let _lock = self.lock_for_write(&mut view)?;
        let removed = view.rows.len();
        match fs::remove_file(self.segment_path()) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
        *view = SegmentView::default();
        self.publish(&view);
        Ok(removed)
    }

    /// Rewrite the segment as a checkpoint (the caller holds the writer
    /// lock and has synced `view`): the view's live rows that pass `keep`,
    /// plus `add`. Dead frames are dropped and the tail folds into the
    /// index, so replay restarts from zero frames.
    fn checkpoint(
        &self,
        view: &mut SegmentView,
        keep: impl Fn(&str) -> bool,
        add: Option<(SegmentIndexEntry, Vec<u8>)>,
    ) -> io::Result<()> {
        let mut rows: Vec<&SegmentIndexEntry> =
            view.rows.values().filter(|r| keep(&r.key)).collect();
        rows.sort_by_key(|r| r.offset);
        let mut items = Vec::with_capacity(rows.len() + 1);
        if let Some(file) = &view.file {
            for row in rows {
                if let Some(bytes) = read_bytes_in(file, row.offset, row.len) {
                    items.push((row.clone(), bytes));
                }
            }
        }
        items.extend(add);
        *view = self.write_segment_file(&items)?;
        Ok(())
    }

    /// Write a complete segment (preamble with a fresh generation, exact
    /// index, frames) to a temp file, fsync, and atomically rename it into
    /// place; the directory is fsynced so the rename is durable before
    /// callers delete what it replaced.
    fn write_segment_file(
        &self,
        items: &[(SegmentIndexEntry, Vec<u8>)],
    ) -> io::Result<SegmentView> {
        // Index offsets count from the end of the index, so its length
        // does not depend on itself.
        let mut entries = Vec::with_capacity(items.len());
        let mut payload_len = 0;
        for (meta, payload) in items {
            let len = payload.len() as u64;
            entries.push(SegmentIndexEntry {
                offset: payload_len + 8,
                len,
                ..meta.clone()
            });
            payload_len += 8 + len;
        }
        let header = SegmentHeader { entries };
        let index = serde_json::to_string(&header)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let header_end = PREAMBLE_LEN + index.len() as u64;
        // Inode numbers are reused, so only a stamp of its own tells this
        // rewrite apart from every other.
        let generation = RandomState::new().hash_one((std::process::id(), SystemTime::now()));
        let mut buf = Vec::with_capacity((header_end + payload_len) as usize);
        for word in [SEGMENT_VERSION, generation, index.len() as u64] {
            buf.extend_from_slice(&word.to_le_bytes());
        }
        buf.extend_from_slice(index.as_bytes());
        for (_, payload) in items {
            buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            buf.extend_from_slice(payload);
        }
        let tmp = self.dir.join(format!(
            ".segment.{}.{}.tmp",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        // Read-write: the new view reads through this handle.
        let mut f = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        f.write_all(&buf)?;
        f.sync_all()?;
        if let Err(e) = fs::rename(&tmp, self.segment_path()) {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        let _ = fs::File::open(&self.dir).and_then(|d| d.sync_all());
        let rows = header.entries.into_iter().map(|mut row| {
            row.offset += header_end;
            (row.key.clone(), row)
        });
        Ok(SegmentView {
            stat: handle_stat(&f),
            file: Some(Arc::new(f)),
            generation: Some(generation),
            payload_start: header_end,
            file_len: header_end + payload_len,
            checkpoint_rows: items.len(),
            rows: rows.collect(),
            ..SegmentView::default()
        })
    }
}

/// Take the OS lock on the file at `path`, creating it if needed, either
/// at once (`Ok(None)` when it is held) or by blocking (`wait`).
///
/// # Errors
///
/// The I/O error for anything but contention.
fn take_lock(path: PathBuf, wait: bool) -> io::Result<Option<SolveLock>> {
    take_opened(open_lock_file(&path)?, path, wait)
}

/// Open (creating if needed) the lock file at `path`.
fn open_lock_file(path: &Path) -> io::Result<fs::File> {
    fs::File::options()
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)
}

/// [`take_lock`] from a handle already opened on `path`. Once the lock is
/// held, `path` must still name the locked file: a release or a GC sweep
/// may have unlinked it between the open and the lock, and a lock on an
/// unlinked file excludes nobody, so the take retries on a fresh open.
fn take_opened(mut file: fs::File, path: PathBuf, wait: bool) -> io::Result<Option<SolveLock>> {
    loop {
        if wait {
            file.lock()?;
        } else {
            match file.try_lock() {
                Ok(()) => {}
                Err(fs::TryLockError::WouldBlock) => return Ok(None),
                Err(fs::TryLockError::Error(e)) => return Err(e),
            }
        }
        if still_named(&path, &file)? {
            return Ok(Some(SolveLock { path, file }));
        }
        file = open_lock_file(&path)?;
    }
}

/// Whether `path` still names the file `file` has open.
fn still_named(path: &Path, file: &fs::File) -> io::Result<bool> {
    let held = file.metadata()?;
    match fs::metadata(path) {
        Ok(named) => Ok((named.dev(), named.ino()) == (held.dev(), held.ino())),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
        Err(e) => Err(e),
    }
}

/// GC's half of the lock protocol: remove the lock file at `path` only
/// when nobody holds it, under its lock, like a release. `true` when it
/// was removed.
fn remove_unheld_lock(path: &Path) -> bool {
    let Ok(file) = fs::File::options().write(true).open(path) else {
        return false;
    };
    file.try_lock().is_ok()
        && still_named(path, &file).unwrap_or(false)
        && fs::remove_file(path).is_ok()
}

fn file_stat(path: &Path) -> Option<(u64, SystemTime)> {
    fs::metadata(path).ok().map(|m| stat_of(&m))
}

fn handle_stat(file: &fs::File) -> Option<(u64, SystemTime)> {
    file.metadata().ok().map(|m| stat_of(&m))
}

fn stat_of(meta: &fs::Metadata) -> (u64, SystemTime) {
    (
        meta.len(),
        meta.modified().unwrap_or(SystemTime::UNIX_EPOCH),
    )
}

fn time_to_millis(t: SystemTime) -> u64 {
    t.duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

fn now_millis() -> u64 {
    time_to_millis(SystemTime::now())
}

/// The integrity check of a record, so a frame needs no index row to be
/// trusted: FNV-1a over its key and raw entry JSON taken eight bytes a
/// step. Every step is a bijection of the running value, so damage to any
/// one word always changes the check; it is a damage check, not a digest,
/// and cheap enough to run on every replayed frame and every read.
/// A record carries it as 16 lowercase hex digits.
fn record_check(key: &str, entry: &str) -> u64 {
    let words = key.as_bytes().chunks(8).chain(entry.as_bytes().chunks(8));
    words.fold(0xcbf2_9ce4_8422_2325_u64, |h, chunk| {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        (h ^ u64::from_le_bytes(word)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `true` when `hex` is `check` written as 16 lowercase hex digits.
fn is_check(hex: &str, check: u64) -> bool {
    hex.len() == 16
        && hex.bytes().enumerate().all(|(i, b)| {
            let nibble = (check >> (60 - 4 * i)) & 0xf;
            b == b"0123456789abcdef"[nibble as usize]
        })
}

/// Wrap one entry's JSON in the versioned record envelope — a frame body
/// (keys are validated alphanumerics, so direct formatting is
/// escape-safe; the entry comes last so replay can read the head alone).
fn encode_record(key: &str, entry: &str, saved_at_millis: u64) -> String {
    let check = format!("{:016x}", record_check(key, entry));
    format!(
        "{{\"version\":{STORE_VERSION},\"key\":\"{key}\",\"saved_at_millis\":{saved_at_millis},\
         \"check\":\"{check}\",\"entry\":{entry}}}"
    )
}

/// Split a record into its head and raw entry JSON, or `None` when it is
/// damaged, fails its check, or belongs to another [`STORE_VERSION`].
fn decode_record(bytes: &[u8]) -> Option<(RecordHead<'_>, &str)> {
    const ENTRY: &str = ",\"entry\":";
    let text = std::str::from_utf8(bytes).ok()?;
    let at = text.find(ENTRY)?;
    let head = RecordHead::read(&text[..at]).ok()?;
    let entry = text[at + ENTRY.len()..].strip_suffix('}')?;
    let intact =
        head.version == STORE_VERSION && is_check(&head.check, record_check(&head.key, entry));
    intact.then_some((head, entry))
}

/// Read `len` bytes at `offset` from an open segment file: one positioned
/// read, which leaves the handle's cursor alone.
fn read_bytes_in(file: &fs::File, offset: u64, len: u64) -> Option<Vec<u8>> {
    let mut buf = vec![0u8; usize::try_from(len).ok()?];
    file.read_exact_at(&mut buf, offset).ok()?;
    Some(buf)
}

/// Read and decode the entry `row` points at, validating the record
/// against the row's key, with the length of its raw entry JSON.
fn read_entry(file: &fs::File, row: &SegmentIndexEntry) -> Option<(CacheEntry, u64)> {
    let bytes = read_bytes_in(file, row.offset, row.len)?;
    let (head, entry) = decode_record(&bytes)?;
    if head.key != row.key {
        return None;
    }
    let decoded = serde_json::from_str(entry).ok()?;
    Some((decoded, entry.len() as u64))
}

/// Bring `view` up to date through an open segment file, which becomes the
/// view's handle. When the file still carries the view's generation and has
/// not shrunk, only the frames past the replay position are read; anything
/// else (another checkpoint, a truncation, another `SEGMENT_VERSION`)
/// rebuilds the view.
fn sync_view(file: fs::File, view: &mut SegmentView) {
    replay(&file, view);
    view.file = Some(Arc::new(file));
}

/// [`sync_view`]'s reading half.
fn replay(file: &fs::File, view: &mut SegmentView) {
    let stat = handle_stat(file);
    let len = stat.map_or(0, |(len, _)| len);
    let preamble = read_preamble(file);
    if view.generation.is_some()
        && preamble.map(|(generation, _)| generation) == view.generation
        && len >= view.file_len
    {
        view.stat = stat;
        scan_payload(file, len, view);
        return;
    }
    *view = SegmentView {
        stat,
        ..SegmentView::default()
    };
    let Some((generation, index_len)) = preamble else {
        return;
    };
    let header_end = PREAMBLE_LEN.saturating_add(index_len);
    let header = (header_end <= len)
        .then(|| read_bytes_in(file, PREAMBLE_LEN, index_len))
        .flatten()
        .and_then(|bytes| String::from_utf8(bytes).ok())
        .and_then(|text| serde_json::from_str::<SegmentHeader>(&text).ok());
    let Some(header) = header else {
        return;
    };
    view.payload_start = header_end;
    view.checkpoint_rows = header.entries.len();
    let mut tail_start = header_end;
    for mut row in header.entries {
        row.offset = row.offset.saturating_add(header_end);
        let end = row.offset.saturating_add(row.len);
        tail_start = tail_start.max(end);
        if row.offset >= header_end + 8 && end <= len && row.version == STORE_VERSION {
            view.rows.insert(row.key.clone(), row);
        } else {
            view.skipped += 1;
        }
    }
    if tail_start > len {
        // Cut inside the checkpoint: the rows past the cut were counted
        // above, and the next write checkpoints afresh.
        view.file_len = len;
        return;
    }
    view.generation = Some(generation);
    view.file_len = tail_start;
    scan_payload(file, len, view);
}

/// `(generation, index_len)` from the fixed preamble, or `None` for a
/// short file or another `SEGMENT_VERSION`.
fn read_preamble(file: &fs::File) -> Option<(u64, u64)> {
    let bytes = read_bytes_in(file, 0, PREAMBLE_LEN)?;
    let word = |i: usize| u64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().expect("8 bytes"));
    (word(0) == SEGMENT_VERSION).then(|| (word(1), word(2)))
}

/// Replay the frames between the view's replay position and `end`, the
/// one frame reader for open and refresh alike. It stops before a frame
/// running past `end` — torn, or still being written — so a later refresh
/// or a writer's truncation resumes exactly there.
fn scan_payload(mut file: &fs::File, end: u64, view: &mut SegmentView) {
    if view.file_len + 8 > end || file.seek(SeekFrom::Start(view.file_len)).is_err() {
        return;
    }
    let mut reader = io::BufReader::new(file);
    let mut frame = Vec::new();
    while view.file_len + 8 <= end {
        let mut len_buf = [0u8; 8];
        if reader.read_exact(&mut len_buf).is_err() {
            return;
        }
        let len = u64::from_le_bytes(len_buf);
        if len == 0 || len > end - view.file_len - 8 {
            return;
        }
        frame.resize(len as usize, 0);
        if reader.read_exact(&mut frame).is_err() {
            return;
        }
        let offset = view.file_len + 8;
        view.file_len = offset + len;
        view.tail_frames += 1;
        match decode_record(&frame) {
            Some((head, _)) => {
                let row = SegmentIndexEntry {
                    key: head.key.to_string(),
                    offset,
                    len,
                    version: STORE_VERSION,
                    saved_at_millis: head.saved_at_millis,
                };
                view.rows.insert(head.key.into_owned(), row);
            }
            // Framing is intact (the length prefix was honored), so a
            // single bad record does not end the replay.
            None => view.skipped += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn fnv(hash: u64, bytes: &[u8]) -> u64 {
        bytes.iter().fold(hash, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Index paths of every object member in `value`.
    fn member_paths(value: &Value, path: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        let children: Vec<&Value> = match value {
            Value::Map(entries) => entries.iter().map(|(_, v)| v).collect(),
            Value::Seq(items) => items.iter().collect(),
            _ => return,
        };
        for (i, child) in children.into_iter().enumerate() {
            path.push(i);
            if matches!(value, Value::Map(_)) {
                out.push(path.clone());
            }
            member_paths(child, path, out);
            path.pop();
        }
    }

    /// The object holding member `path`, and the member's index in it.
    fn member_mut<'v>(
        value: &'v mut Value,
        path: &[usize],
    ) -> (&'v mut Vec<(String, Value)>, usize) {
        let (&index, parent) = path.split_last().unwrap();
        let node = parent.iter().fold(value, |node, &i| match node {
            Value::Map(entries) => &mut entries[i].1,
            Value::Seq(items) => &mut items[i],
            _ => unreachable!(),
        });
        match node {
            Value::Map(entries) => (entries, index),
            _ => unreachable!(),
        }
    }

    /// Variants of a JSON object's text, as in `tests/json_parse_pin.rs`:
    /// each member dropped, nulled, duplicated with another value before and
    /// after, an integer member written as a float, an unknown member beside
    /// it; pretty whitespace; every cut; seeded ASCII substitutions.
    fn variants(text: &str) -> Vec<String> {
        let root: Value = serde_json::from_str(text).unwrap();
        let compact = serde_json::to_string(&root).unwrap();
        let mut docs = vec![
            compact.clone(),
            serde_json::to_string_pretty(&root).unwrap(),
        ];
        let mut paths = Vec::new();
        member_paths(&root, &mut Vec::new(), &mut paths);
        type Members = Vec<(String, Value)>;
        let mut edit = |change: &dyn Fn(&mut Members, usize)| {
            for path in &paths {
                let mut v = root.clone();
                let (members, i) = member_mut(&mut v, path);
                change(members, i);
                docs.push(serde_json::to_string(&v).unwrap());
            }
        };
        edit(&|m, i| drop(m.remove(i)));
        edit(&|m, i| m[i].1 = Value::Null);
        edit(&|m, i| m.insert(i, (m[i].0.clone(), Value::Str("x".into()))));
        edit(&|m, i| m.insert(i + 1, (m[i].0.clone(), Value::Str("x".into()))));
        edit(&|m, i| m.insert(i + 1, ("zz_unknown".into(), Value::Seq(vec![Value::Null]))));
        edit(&|m, i| {
            if let Value::U64(n) = m[i].1 {
                m[i].1 = Value::F64(n as f64);
            }
        });
        docs.extend((0..compact.len()).map(|n| compact[..n].to_string()));
        const ALPHABET: &[u8] = b"{}[],:\"\\ 0123456789.-+eEtrufalsn x";
        let mut state = 0x9e37_79b9_7f4a_7c15_u64 ^ compact.len() as u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as usize
        };
        for _ in 0..256 {
            let mut bytes = compact.clone().into_bytes();
            let at = next() % bytes.len();
            bytes[at] = ALPHABET[next() % ALPHABET.len()];
            docs.push(String::from_utf8(bytes).unwrap());
        }
        docs
    }

    /// Pins what `decode_record` accepts of a record head and what
    /// `SegmentHeader` parsing accepts of an index, under the same kinds of
    /// damage as `tests/json_parse_pin.rs` (a head variant keeps the
    /// record's `,"entry":…}` tail intact).
    #[test]
    fn record_head_and_index_parse_outcomes_are_pinned() {
        let entry: CacheEntry = serde_json::from_str(include_str!(
            "../../tests/fixtures/parse_pin/cache_entry.json"
        ))
        .unwrap();
        let record = encode_record("k3y", &serde_json::to_string(&entry).unwrap(), 1_234);
        let (head, tail) = record.split_at(record.find(",\"entry\":").unwrap());
        let mut combined = 0xcbf2_9ce4_8422_2325_u64;
        let mut accepted = 0;
        for doc in variants(&format!("{head}}}")) {
            let head = doc.strip_suffix('}').unwrap_or(&doc);
            let outcome = match decode_record(format!("{head}{tail}").as_bytes()) {
                Some((h, entry)) => format!(
                    "ok:{} {} {} {} {}",
                    h.version,
                    h.key,
                    h.saved_at_millis,
                    h.check,
                    entry.len()
                ),
                None => "err".to_string(),
            };
            accepted += usize::from(outcome != "err");
            combined = fnv(fnv(combined, doc.as_bytes()), outcome.as_bytes());
        }

        let row = |key: &str, offset: u64| SegmentIndexEntry {
            key: key.to_string(),
            offset,
            len: 977,
            version: STORE_VERSION,
            saved_at_millis: 1_700_000_000_123,
        };
        let header = SegmentHeader {
            entries: vec![row("a1", 8), row("b2", 993)],
        };
        for doc in variants(&serde_json::to_string(&header).unwrap()) {
            let outcome = match serde_json::from_str::<SegmentHeader>(&doc) {
                Ok(h) => format!("ok:{}", serde_json::to_string(&h).unwrap()),
                Err(_) => "err".to_string(),
            };
            accepted += usize::from(outcome != "err");
            combined = fnv(fnv(combined, doc.as_bytes()), outcome.as_bytes());
        }
        assert_eq!(
            format!("{combined:016x} {accepted}"),
            "b567dd06af4a9103 87",
            "parse outcomes moved"
        );
    }

    /// The unlink race: a taker opens the lock path, then the holder's
    /// release, or a GC sweep of a file nobody holds, unlinks that file
    /// before the taker locks it. The taker must retry and hold the file
    /// the path names, so a third handle still finds the lock held.
    #[test]
    fn a_take_retries_when_its_file_is_unlinked_before_the_lock() {
        let dir = std::env::temp_dir().join(format!("cosa-unlink-race-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = CacheStore::open(&dir).unwrap();
        let path = store.lock_path("aaa1");
        let holds_the_named_file = |taker: &SolveLock| {
            assert!(
                still_named(&path, &taker.file).unwrap(),
                "the file the path names"
            );
            assert!(store.try_lock("aaa1").unwrap().is_none(), "a third handle");
        };

        let holder = store.try_lock("aaa1").unwrap().expect("free");
        let opened = open_lock_file(&path).unwrap();
        holder.release();
        let taker = take_opened(opened, path.clone(), false).unwrap();
        holds_the_named_file(&taker.expect("free after the release"));

        fs::write(&path, "").unwrap();
        let opened = open_lock_file(&path).unwrap();
        let swept = store.gc(&GcPolicy::default()).unwrap().stale_locks_removed;
        assert_eq!(swept, 1, "the sweep unlinked the unheld file");
        let taker = take_opened(opened, path.clone(), true).unwrap();
        holds_the_named_file(&taker.expect("a blocking take holds"));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// `disk_stats` never waits on the segment view: while another thread
    /// holds it (as a save does through its lock-file wait, append and
    /// fsync), the call returns the numbers last published instead of
    /// blocking, and once the view is free it refreshes as before.
    #[test]
    fn disk_stats_returns_while_the_segment_view_is_held() {
        use std::sync::mpsc;

        let dir = std::env::temp_dir().join(format!("cosa-disk-stats-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = Arc::new(CacheStore::open(&dir).unwrap());
        let entry: CacheEntry = serde_json::from_str(include_str!(
            "../../tests/fixtures/parse_pin/cache_entry.json"
        ))
        .unwrap();
        store.save("k1", &entry).unwrap();
        let before = store.disk_stats();
        assert_eq!(before.index_entries, 1);
        assert!(before.segment_bytes > 0);

        let (held_tx, held_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let holder = {
            let store = store.clone();
            std::thread::spawn(move || {
                let _view = store.seg_guard();
                held_tx.send(()).unwrap();
                let _ = release_rx.recv();
            })
        };
        held_rx.recv().unwrap();
        let (stats_tx, stats_rx) = mpsc::channel();
        let reader = {
            let store = store.clone();
            std::thread::spawn(move || stats_tx.send(store.disk_stats()).unwrap())
        };
        let during = stats_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("disk_stats waited on the held segment view");
        assert_eq!(during, before, "the published numbers");
        drop(release_tx);
        holder.join().unwrap();
        reader.join().unwrap();

        store.save("k2", &entry).unwrap();
        let after = store.disk_stats();
        assert_eq!(after.index_entries, 2, "a free view refreshes");
        fs::remove_dir_all(&dir).unwrap();
    }
}
