//! The persistent tier of the [`Engine`](super::Engine)'s schedule cache:
//! one packed, append-only segment file per cache directory.
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
//! [u64 LE header capacity][JSON index, space-padded to capacity][payload]
//! ```
//!
//! The index maps each digest to `(offset, len, version, backend,
//! saved_at_millis)` of its payload record. The payload region is a log of
//! length-prefixed frames (`[u64 LE len][record JSON]`); each record is a
//! versioned envelope — `{"version": 2, "key": "<digest>", "entry": {...}}`
//! — or a tombstone `{"version": 2, "key": "<digest>", "evicted": true}`
//! marking an eviction. Warm start therefore costs **one** sequential
//! header read, O(index) instead of O(entries), and entries decode lazily
//! on first use.
//!
//! There is one schema: a record (or index row) whose version is not
//! [`STORE_VERSION`] is skipped and counted like any other damaged record,
//! the engine re-solves its shape and the fresh record supersedes it. A
//! cache directory is disposable across `STORE_VERSION`s.
//!
//! Appends are crash-ordered: payload frames are appended and fsynced
//! *before* the fixed-capacity header is rewritten in place (same file
//! offset, same length — readers always see either the old or the new
//! index, and a torn header is recovered by replaying the frame log,
//! where tombstones prevent evicted digests from resurrecting). When the
//! index outgrows its capacity, and on GC compaction, the store rewrites
//! live payloads into a fresh segment and atomically renames it into
//! place. A truncated payload tail never loses entries before the torn
//! point: the header sits at a fixed offset ahead of the payload, so tail
//! truncation leaves the index intact and only records past the cut are
//! skipped (and counted), never fatal.
//!
//! # Garbage collection
//!
//! Disk is the capacity tier, but it is not unbounded: [`CacheStore::gc`]
//! enforces a [`GcPolicy`] (byte budget and/or maximum entry age),
//! oldest-saved first. Eviction is index-level: the digest leaves the
//! index and a tombstone frame is appended, which turns payload bytes
//! dead without touching live records. When dead bytes exceed
//! [`GcPolicy::compact_min_dead`] (default: the larger of 4 KiB and the
//! live payload size), GC compacts — live payloads are rewritten into a
//! fresh segment and renamed into place — so GC cost scales with the
//! index, not with history. The sweep also removes temp files orphaned by
//! killed writers (older than a minute) and solve-lock files older than
//! the staleness bound.
//!
//! # Cross-process solve locks
//!
//! Multiple processes (e.g. two `cosa-serve` daemons) may share one cache
//! directory. Without coordination two cold processes asked for the same
//! digest would each run the solver. [`CacheStore::try_lock`] provides
//! advisory per-digest coordination:
//!
//! ```text
//! <cache-dir>/<digest>.lock      # held while a process solves <digest>
//! ```
//!
//! A lock is acquired by creating the file exclusively (`create_new`, the
//! cross-platform atomic primitive — no POSIX `flock` semantics assumed)
//! and released by deleting it; [`SolveLock`] deletes on drop, and only
//! while the file still holds the owner's token, so a staleness-takeover
//! victim cannot delete its thief's lock. A lock whose mtime is older
//! than [`CacheStore::lock_staleness`] (default
//! [`DEFAULT_LOCK_STALENESS`]) is presumed orphaned by a crashed process
//! and is *taken over*. The locking is advisory and fail-open — an I/O
//! error or a takeover race degrades to a duplicated solve, never to
//! corruption or an unserved request.
//!
//! Segment writers additionally serialize on a short-lived
//! `segment.cosa.lock` (same token-checked protocol, seconds-scale
//! staleness since writers hold it for milliseconds). A writer waits for
//! it longer than that staleness bound, so a crashed holder is always
//! taken over before a waiter gives up; a wait that still times out is a
//! `WouldBlock` error, which the engine counts in `store_errors` while
//! the entry stays served from the memory tier.

use std::fs;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant, SystemTime};

use cosa_noc::NocSummary;
use serde::{Deserialize, Serialize};

use crate::api::Scheduled;

/// Version tag written into every entry envelope. Bump when the entry
/// schema (or the canonical serialization feeding the digests) changes;
/// loaders skip entries from other versions.
pub const STORE_VERSION: u32 = 3;

/// Version tag of the segment *header* layout (independent of the entry
/// envelope version, which governs payload records).
const SEGMENT_VERSION: u32 = 1;

/// The packed segment file name inside a cache directory.
const SEGMENT_FILE: &str = "segment.cosa";

/// The segment writer lock file name. The `.lock` extension keeps it
/// under the same stale-lock GC sweep as per-digest solve locks; the
/// dotted stem can never collide with a digest lock (digests are bare
/// alphanumerics).
const SEGMENT_LOCK_FILE: &str = "segment.cosa.lock";

/// Minimum header capacity. Small indexes get room to grow in place
/// before the first rewrite-and-rename.
const MIN_HEADER_CAPACITY: u64 = 4096;

/// Segment writer locks are held for milliseconds (one append batch), so
/// a lock older than this was orphaned by a crashed writer and may be
/// taken over — much tighter than solve-lock staleness, which must cover
/// whole MILP solves.
const SEGMENT_LOCK_STALENESS: Duration = Duration::from_secs(5);

/// How long any segment writer (save, eviction, compaction) waits for the
/// writer lock. It outlasts [`SEGMENT_LOCK_STALENESS`], so a crashed
/// holder is always taken over before a waiter gives up; only a holder
/// that stays *live* this long makes the write fail with `WouldBlock`.
const SEGMENT_LOCK_WAIT: Duration = Duration::from_secs(10);

/// Default dead-byte floor below which GC never compacts, so tiny
/// segments are not rewritten over noise.
const DEFAULT_COMPACT_MIN_DEAD: u64 = 4096;

/// Default bound past which a solve-lock file is presumed orphaned by a
/// crashed holder and may be taken over (see [`CacheStore::try_lock`]).
/// Generous relative to the worst MILP solves the workspace runs
/// (seconds): a takeover of a *live* slow solver merely duplicates work,
/// but it should stay rare.
pub const DEFAULT_LOCK_STALENESS: Duration = Duration::from_secs(300);

/// Process-wide sequence distinguishing lock tokens issued by this
/// process, so two locks taken and released by one process never confuse
/// each other's ownership checks.
static LOCK_SEQ: AtomicU64 = AtomicU64::new(0);

/// Process-wide sequence distinguishing concurrent segment rewrites
/// *within* one process: two threads (e.g. two engines sharing a cache
/// dir in one daemon process) must not share a temp file, or the slower
/// one's rename finds its temp already consumed.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A held per-digest solve lock (see the [module docs](self)).
///
/// Dropping (or [`SolveLock::release`]-ing) deletes the lock file —
/// but only while it still contains this holder's token, so a holder
/// whose stale lock was taken over cannot delete the new holder's file.
#[derive(Debug)]
pub struct SolveLock {
    path: PathBuf,
    token: String,
}

impl SolveLock {
    /// The lock file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Release the lock now (equivalent to dropping it).
    pub fn release(self) {}
}

impl Drop for SolveLock {
    fn drop(&mut self) {
        // Token check before deletion: if a staleness takeover replaced
        // this file, it belongs to the thief now and must survive.
        if fs::read_to_string(&self.path).is_ok_and(|content| content == self.token) {
            let _ = fs::remove_file(&self.path);
        }
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
    /// scheduler, the racer that won (e.g. `"cosa"` or `"sat"`).
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

/// The versioned envelope wrapping one [`CacheEntry`] — the payload
/// record of the packed segment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct StoredEntry {
    version: u32,
    key: String,
    entry: CacheEntry,
}

/// One index row of the packed segment: where a digest's payload record
/// lives and enough metadata (version, backend, recency) to GC and
/// report without decoding the record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct SegmentIndexEntry {
    key: String,
    /// Absolute file offset of the record JSON (just past its length
    /// prefix).
    offset: u64,
    /// Record JSON length in bytes.
    len: u64,
    /// Entry envelope version ([`STORE_VERSION`] when written).
    version: u32,
    backend: Option<String>,
    /// Unix-epoch milliseconds of the save — GC's recency key.
    saved_at_millis: u64,
}

/// The JSON index at the head of the segment file.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SegmentHeader {
    version: u32,
    entries: Vec<SegmentIndexEntry>,
}

/// The in-memory picture of the segment file, cached per store handle
/// behind a `(len, mtime)` fingerprint so warm read paths skip re-parsing
/// the header.
#[derive(Debug, Clone, Default)]
struct SegmentView {
    /// `true` once the view reflects at least one read attempt.
    initialized: bool,
    /// `(len, mtime)` of the file this view was read from; `None` when
    /// the segment file does not exist.
    stat: Option<(u64, SystemTime)>,
    /// `true` when the header parsed cleanly (in-place header rewrites
    /// are only safe against a well-formed file).
    header_ok: bool,
    capacity: u64,
    file_len: u64,
    /// Live index rows, in append order.
    entries: Vec<SegmentIndexEntry>,
    /// Index rows or frames the loader had to skip (truncation damage,
    /// another [`STORE_VERSION`]).
    skipped: usize,
}

impl SegmentView {
    fn contains(&self, key: &str) -> bool {
        self.entries.iter().any(|e| e.key == key)
    }

    fn find(&self, key: &str) -> Option<&SegmentIndexEntry> {
        self.entries.iter().rev().find(|e| e.key == key)
    }

    /// Live payload bytes (frames still reachable from the index,
    /// including their length prefixes).
    fn live_bytes(&self) -> u64 {
        self.entries.iter().map(|e| 8 + e.len).sum()
    }

    /// Payload bytes no index row points at (evicted or superseded
    /// records and tombstones) — what compaction reclaims.
    fn dead_bytes(&self) -> u64 {
        let payload = self.file_len.saturating_sub(8 + self.capacity);
        payload.saturating_sub(self.live_bytes())
    }
}

/// A pending segment mutation, applied in batches under the writer lock.
enum Pending {
    Entry {
        key: String,
        json: String,
        backend: Option<String>,
        saved_at_millis: u64,
    },
    Tombstone {
        key: String,
    },
}

/// A payload record replayed by the torn-header recovery scan.
enum Record {
    Entry(Box<StoredEntry>),
    Tombstone { key: String },
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
    /// stale tmp/lock sweeps).
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
    /// Digests that could not be evicted (an I/O error, or a segment
    /// writer lock that stayed contended).
    pub delete_errors: usize,
    /// Orphaned temp files (left by killed writers) swept alongside the
    /// entries.
    pub stale_tmp_removed: usize,
    /// Solve-lock files older than the staleness bound (orphaned by
    /// crashed holders) swept alongside the entries.
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
    /// Age past which a solve-lock file may be taken over / GC-swept.
    lock_staleness: Duration,
    /// Cached segment view; see [`SegmentView`].
    seg: Mutex<SegmentView>,
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
            lock_staleness: DEFAULT_LOCK_STALENESS,
            seg: Mutex::new(SegmentView::default()),
            compactions: AtomicU64::new(0),
        })
    }

    /// Set the solve-lock staleness bound (see [`CacheStore::try_lock`]).
    /// Must comfortably exceed the worst-case solve time, or a live slow
    /// solver's lock gets taken over and the solve duplicated.
    pub fn with_lock_staleness(mut self, staleness: Duration) -> CacheStore {
        self.set_lock_staleness(staleness);
        self
    }

    /// In-place form of [`CacheStore::with_lock_staleness`], for stores
    /// already attached to an engine.
    pub fn set_lock_staleness(&mut self, staleness: Duration) {
        self.lock_staleness = staleness;
    }

    /// The configured solve-lock staleness bound.
    pub fn lock_staleness(&self) -> Duration {
        self.lock_staleness
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

    /// Bring `view` up to date with the file. Without `force`, a
    /// `(len, mtime)` fingerprint match skips the re-read; with it, the
    /// header is always re-read — required on negative lookups, because
    /// an in-place header rewrite changes neither length nor (at coarse
    /// timestamp granularity, racing the payload append) a fingerprint a
    /// reader already captured.
    fn refresh_view(&self, view: &mut SegmentView, force: bool) {
        if !force && view.initialized {
            let stat = file_stat(&self.segment_path());
            if stat == view.stat {
                return;
            }
        }
        *view = read_segment_view(&self.segment_path());
    }

    /// Load the single entry for `key`, if present and valid. Re-checks
    /// the disk on a miss, so a process can observe entries persisted by
    /// *other* processes after its own warm start (the cross-process
    /// read-through path).
    pub fn load_entry(&self, key: &str) -> Option<CacheEntry> {
        let path = self.segment_path();
        // Two attempts: the second forces a header re-read, which both
        // closes the in-place-rewrite visibility race on a miss and
        // re-syncs offsets if a concurrent compaction moved the record
        // between the index lookup and the payload read.
        for attempt in 0..2 {
            let found = {
                let mut view = self.seg_guard();
                self.refresh_view(&mut view, attempt > 0);
                if !view.contains(key) && attempt == 0 {
                    self.refresh_view(&mut view, true);
                }
                view.find(key).cloned()
            };
            let row = found?;
            if let Some(stored) = read_record_at(&path, row.offset, row.len) {
                if stored.version == STORE_VERSION && stored.key == key {
                    return Some(stored.entry);
                }
            }
        }
        None
    }

    /// Try to acquire the advisory solve lock for `key` without blocking.
    ///
    /// Returns `Ok(None)` when another (live) holder has it. A lock file
    /// older than [`CacheStore::lock_staleness`] is presumed orphaned and
    /// taken over. See the [module docs](self) for the protocol.
    ///
    /// # Errors
    ///
    /// Returns the I/O error for anything but contention (a bad key, an
    /// unwritable directory); callers should degrade to solving unlocked.
    pub fn try_lock(&self, key: &str) -> io::Result<Option<SolveLock>> {
        self.try_lock_at(key, SystemTime::now())
    }

    /// [`CacheStore::try_lock`] with an explicit "now" for the staleness
    /// cutoff, so tests can age locks deterministically instead of
    /// sleeping (mirrors [`CacheStore::gc_at`]).
    ///
    /// # Errors
    ///
    /// Returns the I/O error for anything but contention.
    pub fn try_lock_at(&self, key: &str, now: SystemTime) -> io::Result<Option<SolveLock>> {
        Self::validate_key(key)?;
        let path = self.lock_path(key);
        let token = format!(
            "pid={} seq={}",
            std::process::id(),
            LOCK_SEQ.fetch_add(1, Ordering::Relaxed)
        );
        // At most one takeover attempt: if the lock is re-held after we
        // reclaimed the stale file, a racing taker won — report busy.
        for attempt in 0..2 {
            match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut file) => {
                    // Best-effort token write; an unreadable token only
                    // weakens the release-ownership check, never safety.
                    let _ = file.write_all(token.as_bytes());
                    let _ = file.sync_all();
                    return Ok(Some(SolveLock { path, token }));
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    let stale = fs::metadata(&path)
                        .and_then(|m| m.modified())
                        .ok()
                        .and_then(|mtime| now.duration_since(mtime).ok())
                        .is_some_and(|age| age > self.lock_staleness);
                    if !stale || attempt > 0 {
                        return Ok(None);
                    }
                    // Takeover: delete the orphaned lock and retry the
                    // exclusive create (which serializes racing takers).
                    match fs::remove_file(&path) {
                        Ok(()) => {}
                        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                        Err(_) => return Ok(None),
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Ok(None)
    }

    /// Acquire the segment writer lock, waiting up to
    /// [`SEGMENT_LOCK_WAIT`] across 1 ms retries. Seconds-stale locks are
    /// taken over (writers hold it for milliseconds).
    ///
    /// # Errors
    ///
    /// `WouldBlock` when a live holder outlasts the wait; otherwise the
    /// I/O error that kept the lock file from being created.
    fn segment_lock(&self) -> io::Result<SolveLock> {
        let path = self.dir.join(SEGMENT_LOCK_FILE);
        let deadline = Instant::now() + SEGMENT_LOCK_WAIT;
        let token = format!(
            "pid={} seq={}",
            std::process::id(),
            LOCK_SEQ.fetch_add(1, Ordering::Relaxed)
        );
        loop {
            match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut file) => {
                    let _ = file.write_all(token.as_bytes());
                    let _ = file.sync_all();
                    return Ok(SolveLock { path, token });
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    let stale = fs::metadata(&path)
                        .and_then(|m| m.modified())
                        .ok()
                        .and_then(|mtime| SystemTime::now().duration_since(mtime).ok())
                        .is_some_and(|age| age > SEGMENT_LOCK_STALENESS);
                    if stale {
                        // Racing reclaimers serialize on the create_new.
                        let _ = fs::remove_file(&path);
                        continue;
                    }
                    if Instant::now() >= deadline {
                        return Err(io::Error::new(
                            io::ErrorKind::WouldBlock,
                            "segment writer lock contended",
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Load (eagerly decode) every valid entry, skipping and counting
    /// damaged ones.
    pub fn load(&self) -> StoreLoad {
        let start = Instant::now();
        let mut load = StoreLoad::default();
        let rows = {
            let mut view = self.seg_guard();
            self.refresh_view(&mut view, true);
            load.skipped += view.skipped;
            view.entries.clone()
        };
        if !rows.is_empty() {
            match fs::File::open(self.segment_path()) {
                Ok(mut file) => {
                    for row in &rows {
                        match read_record_in(&mut file, row.offset, row.len) {
                            Some(stored)
                                if stored.version == STORE_VERSION && stored.key == row.key =>
                            {
                                load.entries.push((stored.key, stored.entry));
                            }
                            _ => load.skipped += 1,
                        }
                    }
                }
                Err(_) => load.skipped += rows.len(),
            }
        }
        load.entries.sort_by(|a, b| a.0.cmp(&b.0));
        load.load_micros = start.elapsed().as_micros() as u64;
        load
    }

    /// The O(index) warm start: read the segment header (one sequential
    /// read, no per-entry decode) and report what is warm-loadable.
    pub fn load_index(&self) -> IndexLoad {
        let start = Instant::now();
        let mut view = self.seg_guard();
        self.refresh_view(&mut view, true);
        IndexLoad {
            entries: view.entries.len(),
            skipped: view.skipped,
            load_micros: start.elapsed().as_micros() as u64,
        }
    }

    /// Persist one entry: the record is appended to the segment, with the
    /// payload fsynced before the in-place header rewrite.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O or serialization error (`WouldBlock`
    /// when the segment writer lock stayed contended); the previous
    /// version of the entry (if any) stays intact on failure.
    pub fn save(&self, key: &str, entry: &CacheEntry) -> io::Result<()> {
        Self::validate_key(key)?;
        let pending = Pending::Entry {
            key: key.to_string(),
            json: encode_record(key, entry)?,
            backend: entry.backend.clone(),
            saved_at_millis: now_millis(),
        };
        let mut view = self.seg_guard();
        self.apply_pendings(&mut view, vec![pending], false)
    }

    /// Remove one entry (a missing entry is not an error).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error, including a segment writer lock
    /// that stays contended.
    pub fn remove(&self, key: &str) -> io::Result<()> {
        let mut view = self.seg_guard();
        self.refresh_view(&mut view, true);
        if view.contains(key) {
            let pending = Pending::Tombstone {
                key: key.to_string(),
            };
            self.apply_pendings(&mut view, vec![pending], false)?;
        }
        Ok(())
    }

    /// Distinct digests currently on disk (live index rows).
    pub fn len(&self) -> usize {
        let mut view = self.seg_guard();
        self.refresh_view(&mut view, false);
        view.entries.len()
    }

    /// `true` when the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total *live* entry bytes on disk: the index-reachable segment
    /// payload (what [`GcPolicy::max_bytes`] budgets against — dead
    /// payload bytes are compaction's business, not the capacity
    /// budget's).
    pub fn total_bytes(&self) -> u64 {
        let mut view = self.seg_guard();
        self.refresh_view(&mut view, false);
        view.live_bytes()
    }

    /// A point-in-time description of the disk tier's shape (index size,
    /// live/dead payload split) for stats surfaces.
    pub fn disk_stats(&self) -> DiskTierStats {
        let mut view = self.seg_guard();
        self.refresh_view(&mut view, false);
        DiskTierStats {
            index_entries: view.entries.len(),
            segment_bytes: view.stat.map_or(0, |(len, _)| len),
            live_bytes: view.live_bytes(),
            dead_bytes: view.dead_bytes(),
            compactions: self.compactions.load(Ordering::Relaxed),
        }
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
            // Solve locks orphaned by crashed holders: past the staleness
            // bound they would otherwise only be reclaimed when someone
            // re-requests that exact digest, so the sweep retires them too
            // (a live holder's lock is younger than the bound and spared;
            // the segment writer lock falls under the same sweep).
            if extension == Some("lock") {
                let stale = now
                    .duration_since(mtime)
                    .map(|age| age > self.lock_staleness)
                    .unwrap_or(false);
                if stale && fs::remove_file(&path).is_ok() {
                    report.stale_locks_removed += 1;
                }
            }
        }

        // Candidates: the live index rows, oldest-saved first.
        let mut view = self.seg_guard();
        self.refresh_view(&mut view, true);
        let mut cands: Vec<&SegmentIndexEntry> = view.entries.iter().collect();
        cands.sort_by(|a, b| (a.saved_at_millis, &a.key).cmp(&(b.saved_at_millis, &b.key)));
        report.examined = cands.len();
        let total = view.live_bytes();

        // Decide the victim set first, then evict it as one batch (one
        // tombstone append + header rewrite).
        let max_age_ms = policy
            .max_age
            .map(|max| u64::try_from(max.as_millis()).unwrap_or(u64::MAX));
        let expired =
            |millis: u64| max_age_ms.is_some_and(|max| now_ms.saturating_sub(millis) > max);
        let mut victims: Vec<Pending> = Vec::new();
        let mut running = total;
        for (i, row) in cands.iter().enumerate() {
            let over_bytes = policy
                .max_bytes
                .is_some_and(|max| running > max && i + 1 < cands.len());
            if expired(row.saved_at_millis) || over_bytes {
                victims.push(Pending::Tombstone {
                    key: row.key.clone(),
                });
                running -= 8 + row.len;
            }
        }
        let evicting = victims.len();
        if evicting == 0 || self.apply_pendings(&mut view, victims, false).is_ok() {
            report.removed = evicting;
            report.removed_bytes = total - running;
        } else {
            report.delete_errors = evicting;
        }
        report.retained = report.examined - report.removed;
        report.retained_bytes = total - report.removed_bytes;

        // Compaction: once evictions (here and in prior sweeps) have
        // turned enough payload dead, rewrite live records into a fresh
        // segment. Cost scales with the index, not with history.
        if view.stat.is_some() {
            let dead = view.dead_bytes();
            let threshold = policy
                .compact_min_dead
                .unwrap_or_else(|| view.live_bytes().max(DEFAULT_COMPACT_MIN_DEAD));
            if dead > 0 && dead >= threshold {
                let old_len = view.file_len;
                if self.apply_pendings(&mut view, Vec::new(), true).is_ok() {
                    report.compactions += 1;
                    report.compacted_bytes += old_len.saturating_sub(view.file_len);
                    self.compactions.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
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
        let _lock = self.segment_lock()?;
        self.refresh_view(&mut view, true);
        let removed = view.entries.len();
        match fs::remove_file(self.segment_path()) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
        *view = SegmentView {
            initialized: true,
            ..SegmentView::default()
        };
        Ok(removed)
    }

    /// Apply a batch of mutations to the segment under the writer lock:
    /// re-sync the view from disk (merging other writers' appends),
    /// append payload frames, fsync, then rewrite the header in place.
    /// Falls back to a full rewrite-then-rename when the index outgrows
    /// its capacity or the on-disk header is damaged; `force_rewrite`
    /// requests that path outright (compaction).
    ///
    /// # Errors
    ///
    /// `WouldBlock` when the writer lock stays contended past
    /// [`SEGMENT_LOCK_WAIT`]; otherwise the underlying I/O error.
    fn apply_pendings(
        &self,
        view: &mut SegmentView,
        pendings: Vec<Pending>,
        force_rewrite: bool,
    ) -> io::Result<()> {
        let _lock = self.segment_lock()?;
        self.refresh_view(view, true);
        // Surviving old rows, and the new frames in batch order (later
        // writes of one digest supersede earlier ones within the batch).
        let mut entries = view.entries.clone();
        let mut frames: Vec<(Option<SegmentIndexEntry>, String)> = Vec::new();
        for pending in pendings {
            match pending {
                Pending::Entry {
                    key,
                    json,
                    backend,
                    saved_at_millis,
                } => {
                    entries.retain(|e| e.key != key);
                    frames.retain(|(m, _)| m.as_ref().map(|m| m.key != key).unwrap_or(true));
                    let len = json.len() as u64;
                    frames.push((
                        Some(SegmentIndexEntry {
                            key,
                            offset: 0,
                            len,
                            version: STORE_VERSION,
                            backend,
                            saved_at_millis,
                        }),
                        json,
                    ));
                }
                Pending::Tombstone { key } => {
                    entries.retain(|e| e.key != key);
                    frames.retain(|(m, _)| m.as_ref().map(|m| m.key != key).unwrap_or(true));
                    // The tombstone frame is appended even though the
                    // index row is dropped: a future torn-header scan
                    // replays the log and must not resurrect the digest.
                    let json = tombstone_json(&key);
                    frames.push((None, json));
                }
            }
        }

        if view.header_ok && !force_rewrite {
            // In-place attempt: assign offsets at the current end of
            // file, and check the resulting index still fits.
            let mut off = view.file_len;
            let mut final_entries = entries.clone();
            for (meta, json) in &frames {
                if let Some(meta) = meta {
                    let mut row = meta.clone();
                    row.offset = off + 8;
                    final_entries.push(row);
                }
                off += 8 + json.len() as u64;
            }
            let header_json = encode_header(&final_entries)?;
            if header_json.len() as u64 <= view.capacity {
                let mut file = fs::OpenOptions::new()
                    .write(true)
                    .open(self.segment_path())?;
                let mut buf: Vec<u8> = Vec::new();
                for (_, json) in &frames {
                    buf.extend_from_slice(&(json.len() as u64).to_le_bytes());
                    buf.extend_from_slice(json.as_bytes());
                }
                // Crash ordering: payload first, fsync, then the header
                // — a torn run leaves the old index intact and the new
                // frames recoverable only by the replay scan.
                file.seek(SeekFrom::Start(view.file_len))?;
                file.write_all(&buf)?;
                file.sync_all()?;
                let mut padded = header_json.into_bytes();
                padded.resize(view.capacity as usize, b' ');
                file.seek(SeekFrom::Start(8))?;
                file.write_all(&padded)?;
                file.sync_all()?;
                drop(file);
                view.entries = final_entries;
                view.file_len = off;
                view.skipped = 0;
                view.stat = file_stat(&self.segment_path());
                return Ok(());
            }
        }

        // Full rewrite: carry live payloads over, drop dead bytes and
        // tombstones (the rewrite *is* a compaction), rename into place.
        let mut items: Vec<(SegmentIndexEntry, Vec<u8>)> = Vec::new();
        if !entries.is_empty() {
            let mut file = fs::File::open(self.segment_path())?;
            for row in &entries {
                if let Some(bytes) = read_bytes_in(&mut file, row.offset, row.len) {
                    items.push((row.clone(), bytes));
                }
            }
        }
        for (meta, json) in frames {
            if let Some(meta) = meta {
                items.push((meta, json.into_bytes()));
            }
        }
        *view = self.write_segment_file(&items)?;
        Ok(())
    }

    /// Write a complete segment (header sized with growth slack, then
    /// payload frames) to a temp file, fsync, and atomically rename it
    /// into place; the directory is fsynced so the rename is durable
    /// before callers delete what it replaced.
    fn write_segment_file(
        &self,
        items: &[(SegmentIndexEntry, Vec<u8>)],
    ) -> io::Result<SegmentView> {
        // Capacity from a conservative provisional encoding: the real
        // offsets print in at most 20 digits where the provisional zeros
        // print in one, and doubling leaves in-place growth room.
        let provisional: Vec<SegmentIndexEntry> = items.iter().map(|(m, _)| m.clone()).collect();
        let provisional_len = encode_header(&provisional)?.len() as u64;
        let capacity = MIN_HEADER_CAPACITY.max(2 * (provisional_len + 20 * items.len() as u64));
        let mut entries = Vec::with_capacity(items.len());
        let mut off = 8 + capacity;
        for (meta, payload) in items {
            let mut row = meta.clone();
            row.offset = off + 8;
            row.len = payload.len() as u64;
            entries.push(row);
            off += 8 + payload.len() as u64;
        }
        let header_json = encode_header(&entries)?;
        if header_json.len() as u64 > capacity {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "segment header overflowed its provisioned capacity",
            ));
        }
        let tmp = self.dir.join(format!(
            ".segment.{}.{}.tmp",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&capacity.to_le_bytes())?;
            let mut padded = header_json.into_bytes();
            padded.resize(capacity as usize, b' ');
            f.write_all(&padded)?;
            for (_, payload) in items {
                f.write_all(&(payload.len() as u64).to_le_bytes())?;
                f.write_all(payload)?;
            }
            f.sync_all()?;
        }
        if let Err(e) = fs::rename(&tmp, self.segment_path()) {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        let _ = fs::File::open(&self.dir).and_then(|d| d.sync_all());
        Ok(SegmentView {
            initialized: true,
            stat: file_stat(&self.segment_path()),
            header_ok: true,
            capacity,
            file_len: off,
            entries,
            skipped: 0,
        })
    }
}

fn file_stat(path: &Path) -> Option<(u64, SystemTime)> {
    fs::metadata(path)
        .ok()
        .map(|m| (m.len(), m.modified().unwrap_or(SystemTime::UNIX_EPOCH)))
}

fn time_to_millis(t: SystemTime) -> u64 {
    t.duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

fn now_millis() -> u64 {
    time_to_millis(SystemTime::now())
}

/// Serialize the versioned record envelope for one entry — the payload
/// frame body.
fn encode_record(key: &str, entry: &CacheEntry) -> io::Result<String> {
    let stored = StoredEntry {
        version: STORE_VERSION,
        key: key.to_string(),
        entry: entry.clone(),
    };
    serde_json::to_string(&stored)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

fn encode_header(entries: &[SegmentIndexEntry]) -> io::Result<String> {
    let header = SegmentHeader {
        version: SEGMENT_VERSION,
        entries: entries.to_vec(),
    };
    serde_json::to_string(&header)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// The eviction record appended for a digest (keys are validated
/// alphanumerics, so direct formatting is escape-safe).
fn tombstone_json(key: &str) -> String {
    format!("{{\"version\":{STORE_VERSION},\"key\":\"{key}\",\"evicted\":true}}")
}

/// Read `len` bytes at `offset` from an already-open segment file.
fn read_bytes_in(file: &mut fs::File, offset: u64, len: u64) -> Option<Vec<u8>> {
    file.seek(SeekFrom::Start(offset)).ok()?;
    let mut buf = vec![0u8; len as usize];
    file.read_exact(&mut buf).ok()?;
    Some(buf)
}

fn read_record_in(file: &mut fs::File, offset: u64, len: u64) -> Option<StoredEntry> {
    let buf = read_bytes_in(file, offset, len)?;
    let text = std::str::from_utf8(&buf).ok()?;
    serde_json::from_str(text).ok()
}

/// Open the segment and decode one record (the lazy read-through path).
fn read_record_at(path: &Path, offset: u64, len: u64) -> Option<StoredEntry> {
    let mut file = fs::File::open(path).ok()?;
    read_record_in(&mut file, offset, len)
}

/// Read and validate the segment file into a view. Never panics and
/// never fails hard: a missing file is an empty view, a torn header
/// falls back to replaying the frame log, and index rows pointing past
/// the end of a truncated file are skipped and counted.
fn read_segment_view(path: &Path) -> SegmentView {
    let mut view = SegmentView {
        initialized: true,
        ..SegmentView::default()
    };
    let Ok(mut file) = fs::File::open(path) else {
        return view;
    };
    let Ok(meta) = file.metadata() else {
        return view;
    };
    let file_len = meta.len();
    view.stat = Some((file_len, meta.modified().unwrap_or(SystemTime::UNIX_EPOCH)));
    view.file_len = file_len;
    if file_len < 8 {
        return view;
    }
    let mut cap_buf = [0u8; 8];
    if file.read_exact(&mut cap_buf).is_err() {
        return view;
    }
    let capacity = u64::from_le_bytes(cap_buf);
    view.capacity = capacity;
    if capacity == 0 || capacity.saturating_add(8) > file_len {
        // The header region itself is cut (or the length prefix is
        // garbage). The payload lives *after* the header, so a
        // truncation here left no recoverable records either — an empty
        // view is positionally exact, not a give-up.
        return view;
    }
    let mut header_buf = vec![0u8; capacity as usize];
    if file.read_exact(&mut header_buf).is_err() {
        return view;
    }
    let parsed = std::str::from_utf8(&header_buf)
        .ok()
        .and_then(|s| serde_json::from_str::<SegmentHeader>(s.trim_end()).ok())
        .filter(|h| h.version == SEGMENT_VERSION);
    match parsed {
        Some(header) => {
            view.header_ok = true;
            for row in header.entries {
                let in_payload = row.offset >= 8 + capacity;
                let readable = row.offset.saturating_add(row.len) <= file_len;
                if in_payload && readable && row.version == STORE_VERSION {
                    view.entries.push(row);
                } else {
                    view.skipped += 1;
                }
            }
        }
        // Torn or scribbled header: replay the frame log. Entry frames
        // re-insert digests, tombstone frames delete them — so recovery
        // sees every record before the torn point and never resurrects
        // an evicted digest.
        None => scan_payload(&mut file, capacity, file_len, &mut view),
    }
    view
}

/// Replay the length-prefixed frame log from the start of the payload
/// region, stopping at the first torn or unreadable frame.
fn scan_payload(file: &mut fs::File, capacity: u64, file_len: u64, view: &mut SegmentView) {
    let mut pos = 8 + capacity;
    if file.seek(SeekFrom::Start(pos)).is_err() {
        return;
    }
    let mut reader = io::BufReader::new(file);
    while pos + 8 <= file_len {
        let mut len_buf = [0u8; 8];
        if reader.read_exact(&mut len_buf).is_err() {
            view.skipped += 1;
            return;
        }
        let len = u64::from_le_bytes(len_buf);
        if len == 0 || pos + 8 + len > file_len {
            // Torn frame: its length prefix promises bytes past the cut,
            // so it and everything after are unrecoverable.
            view.skipped += 1;
            return;
        }
        let mut buf = vec![0u8; len as usize];
        if reader.read_exact(&mut buf).is_err() {
            view.skipped += 1;
            return;
        }
        let offset = pos + 8;
        pos += 8 + len;
        let record = std::str::from_utf8(&buf).ok().and_then(parse_record);
        match record {
            Some(Record::Entry(stored)) => {
                let stored = *stored;
                view.entries.retain(|e| e.key != stored.key);
                view.entries.push(SegmentIndexEntry {
                    key: stored.key,
                    offset,
                    len,
                    version: stored.version,
                    backend: stored.entry.backend,
                    // Recency is an index-only attribute; replayed
                    // entries age to the epoch (first GC victims).
                    saved_at_millis: 0,
                });
            }
            Some(Record::Tombstone { key }) => view.entries.retain(|e| e.key != key),
            // Framing is intact (the length prefix was honored), so a
            // single unparseable record does not end the replay.
            None => view.skipped += 1,
        }
    }
}

fn parse_record(text: &str) -> Option<Record> {
    let value: serde::Value = serde_json::from_str(text).ok()?;
    let map = value.as_map()?;
    let evicted = map
        .iter()
        .any(|(k, v)| k == "evicted" && matches!(v, serde::Value::Bool(true)));
    if evicted {
        let key = map
            .iter()
            .find(|(k, _)| k == "key")
            .and_then(|(_, v)| v.as_str())?
            .to_string();
        return Some(Record::Tombstone { key });
    }
    let stored = StoredEntry::from_value(&value).ok()?;
    (stored.version == STORE_VERSION).then(|| Record::Entry(Box::new(stored)))
}
