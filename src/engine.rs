//! The batch scheduling [`Engine`]: whole-[`Network`] scheduling with a
//! content-addressed, optionally **persistent** schedule cache, engine-level
//! NoC evaluation and parallel layer fan-out.
//!
//! The paper evaluates time-to-solution per network (Table VI); production
//! use schedules entire networks at once and restarts processes. The engine
//! takes any [`Scheduler`] (CoSA or a baseline), deduplicates repeated
//! layer shapes through a cache keyed by the canonical serialization of
//! `(architecture, layer, scheduler fingerprint)` (digested via
//! [`cosa_spec::canon`]), fans the remaining unique layers out across
//! scoped worker threads ([`cosa_spec::fanout`]) and returns a
//! serializable [`NetworkReport`] with whole-network latency/energy totals
//! (per-layer results weighted by each entry's repeat count).
//!
//! Three tiers of reuse:
//!
//! * **within a call** — repeated shapes in one network solve once;
//! * **across calls** — the in-memory LRU front ([`ScheduleCache`], with
//!   byte-size accounting and an optional byte budget,
//!   [`Engine::with_cache_bytes`]) returns earlier results verbatim; every
//!   engine has it;
//! * **across processes** — with [`Engine::with_cache_dir`] every entry is
//!   written through to a [`store::CacheStore`] directory and loaded back
//!   on the next start, so warm runs perform zero solver calls.
//!
//! Cold requests are additionally **single-flighted**: when N concurrent
//! requests (threads in this process, or processes sharing a cache
//! directory) ask for the same uncached digest, exactly one runs the MILP
//! and the rest wait for its result — in-process through a per-digest
//! wait map, cross-process through advisory [`store::SolveLock`] files
//! plus disk read-through. [`CacheStats::dedup_waits`] and
//! [`CacheStats::in_flight_peak`] surface the dedup activity; waiters
//! receive the leader's entry verbatim, so deduplicated responses stay
//! byte-identical.
//!
//! With [`Engine::with_noc`] the cycle-level NoC simulator runs *inside*
//! the engine, once per unique shape, and its verdict is cached (and
//! persisted) alongside the schedule — the Fig. 10 campaign reads
//! [`LayerReport::noc`] instead of re-simulating outside. A cached entry
//! that lacks what an answer needs (saved without a NoC verdict, or without
//! the DRAM profile the inter-layer pass reads) goes through one completion
//! step that fills in both, then re-inserts and persists the entry once.
//!
//! Reports are deterministic: scheduling is one-shot/seeded, totals are
//! accumulated in network order, and cached results are returned verbatim.
//! [`NetworkReport::without_timings`] strips the volatile parts (wall-clock
//! and cache counters), and two runs against the same warm cache — in one
//! process or across processes — serialize that canonical form to
//! identical bytes.
//!
//! # Example
//!
//! ```no_run
//! use cosa_repro::prelude::*;
//!
//! let arch = Arch::simba_baseline();
//! let cosa = CosaScheduler::new(&arch);
//! let engine = Engine::new(arch)
//!     .with_noc()
//!     .with_cache_dir(".cosa-cache")
//!     .expect("cache dir");
//! let run = engine.schedule_network(&Network::from_suite(Suite::ResNet50), &cosa);
//! assert!(run.cache_hits >= 1, "ResNet-50 repeats layer shapes");
//! println!("{}", serde_json::to_string_pretty(&run.report).unwrap());
//! // A later process with the same cache dir warm-starts: all hits,
//! // zero solves, zero NoC re-simulations.
//! ```

pub mod interlayer;
pub mod store;

use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use cosa_model::CostModel;
use cosa_noc::{NocSimulator, NocSummary};
use cosa_spec::{canon, fanout, Arch, Layer, Network};
use serde::{Deserialize, Serialize};

use crate::api::{ScheduleError, Scheduled, Scheduler};

pub use interlayer::{
    InterlayerEdgeReport, InterlayerOccupancy, InterlayerOptions, InterlayerReport, ResidencyChain,
    ResidencyEdge, INTERLAYER_VERSION,
};
pub use store::{
    CacheEntry, CacheStore, DiskTierStats, DramProfile, GcPolicy, GcReport, IndexLoad, SolveLock,
    StoreLoad, STORE_VERSION,
};

use interlayer::InterlayerPass;

/// One resident cache slot: the entry plus LRU/size bookkeeping. Slots are
/// shared (`Arc<Slot>`): a hit hands out the slot, not a copy of its entry,
/// and an answer copies only the parts it reports.
#[derive(Debug)]
struct Slot {
    entry: CacheEntry,
    /// Serialized size (key + canonical JSON value) this slot accounts for.
    bytes: u64,
    /// Logical time of last touch (insert or hit) for LRU eviction. Atomic
    /// only because the slot is shared; it is written under the cache lock.
    last_use: AtomicU64,
}

/// The in-memory front of the content-addressed schedule cache.
///
/// Keys are the canonical digest of the architecture and layer plus the
/// scheduler's [`Scheduler::fingerprint`], so equal inputs hit regardless
/// of which network (or engine call) first scheduled them. Eviction is
/// **LRU** under an optional byte budget: every hit or insert refreshes the
/// slot's logical timestamp, and inserts evict the least-recently-used
/// slots until the budget holds again. Byte accounting uses each entry's
/// canonical-JSON size — the same bytes the persistent
/// [`store::CacheStore`] writes. A disk read-through takes that size from
/// the record it has just read, and a fresh solve or a completion from the
/// JSON it encodes once for the store, so neither encodes just to measure.
///
/// Eviction only touches this in-memory front; entries written through to
/// a cache directory stay on disk (the capacity tier) and can warm-start
/// later processes.
#[derive(Debug, Default)]
pub struct ScheduleCache {
    entries: HashMap<String, Arc<Slot>>,
    /// Logical clock driving LRU timestamps.
    clock: u64,
    max_bytes: Option<u64>,
    bytes: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl ScheduleCache {
    /// An unbounded cache.
    pub fn unbounded() -> ScheduleCache {
        ScheduleCache::default()
    }

    /// A cache evicting least-recently-used entries once the resident set
    /// exceeds `max_bytes` of canonical-JSON size. The most recent insert
    /// is never evicted, so a single oversized entry still caches.
    pub fn bounded_bytes(max_bytes: u64) -> ScheduleCache {
        ScheduleCache {
            max_bytes: Some(max_bytes),
            ..ScheduleCache::default()
        }
    }

    /// Apply (or tighten) a byte bound, evicting LRU entries that no
    /// longer fit. Existing entries and counters are kept.
    pub fn bound_bytes(&mut self, max_bytes: u64) {
        self.max_bytes = Some(max_bytes);
        self.shrink_to_budget();
    }

    fn shrink_to_budget(&mut self) {
        while self.max_bytes.is_some_and(|cap| self.bytes > cap) && self.entries.len() > 1 {
            self.evict_lru();
        }
    }

    /// Look up a key without counting a miss on absence: a present entry
    /// counts a hit and refreshes LRU order. Misses are counted apart
    /// ([`ScheduleCache::note_miss`]) so that `misses` counts *solver
    /// invocations* — an absent key whose solve is deduplicated against
    /// an in-flight leader is a [`CacheStats::dedup_waits`], not a miss.
    pub fn peek(&mut self, key: &str) -> Option<CacheEntry> {
        self.hit(key).map(|slot| slot.entry.clone())
    }

    /// [`ScheduleCache::peek`] without the copy: the shared slot.
    fn hit(&mut self, key: &str) -> Option<Arc<Slot>> {
        self.clock += 1;
        let slot = self.entries.get(key)?;
        slot.last_use.store(self.clock, Ordering::Relaxed);
        self.hits += 1;
        Some(Arc::clone(slot))
    }

    /// The entry under `key` without counting a hit or a miss and without
    /// refreshing LRU order — a residency check that leaves every counter
    /// as it was.
    fn resident(&self, key: &str) -> Option<&CacheEntry> {
        self.entries.get(key).map(|slot| &slot.entry)
    }

    /// Count one miss: a single-flight leader is about to run the solver.
    pub fn note_miss(&mut self) {
        self.misses += 1;
    }

    /// Count one hit served from outside the resident set (an entry
    /// read through from the disk tier after another process solved it).
    pub fn note_hit(&mut self) {
        self.hits += 1;
    }

    /// Insert (or replace) an entry, then evict least-recently-used slots
    /// until the byte budget holds. The just-touched entry survives even
    /// when it alone exceeds the budget.
    pub fn insert(&mut self, key: String, entry: CacheEntry) {
        let bytes = entry_bytes(&key, &entry);
        self.insert_sized(key, entry, bytes);
    }

    /// [`ScheduleCache::insert`] of an entry whose [`entry_bytes`] the
    /// caller already knows from JSON it just read or wrote. Returns the
    /// new slot, which outlives its eviction for as long as it is held.
    fn insert_sized(&mut self, key: String, entry: CacheEntry, bytes: u64) -> Arc<Slot> {
        self.clock += 1;
        let slot = Arc::new(Slot {
            entry,
            bytes,
            last_use: AtomicU64::new(self.clock),
        });
        if let Some(old) = self.entries.insert(key, Arc::clone(&slot)) {
            self.bytes -= old.bytes;
        }
        self.bytes += bytes;
        self.shrink_to_budget();
        slot
    }

    /// Evict the least-recently-used slot. Linear scan: the engine's
    /// resident sets are tens-to-thousands of entries, where a scan beats
    /// the constant factors (and code) of an intrusive list.
    fn evict_lru(&mut self) {
        let Some(oldest) = self
            .entries
            .iter()
            .min_by_key(|(_, slot)| slot.last_use.load(Ordering::Relaxed))
            .map(|(k, _)| k.clone())
        else {
            return;
        };
        if let Some(slot) = self.entries.remove(&oldest) {
            self.bytes -= slot.bytes;
            self.evictions += 1;
        }
    }

    /// Number of cached schedules.
    fn len(&self) -> usize {
        self.entries.len()
    }

    /// Total canonical-JSON bytes accounted to resident entries.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// Serialized size an entry is accounted at: key plus canonical JSON value
/// — the same bytes the persistent store writes for it. Paths that hold
/// that JSON anyway (a read-through, a write-through) hand its length to
/// [`sized_bytes`] instead of encoding again.
fn entry_bytes(key: &str, entry: &CacheEntry) -> u64 {
    let json = serde_json::to_string(entry).ok();
    sized_bytes(key, json.map(|json| json.len() as u64))
}

/// [`entry_bytes`] from the length of the entry's canonical JSON (`None`
/// for an entry that does not serialize: one holding a non-finite number).
fn sized_bytes(key: &str, json_len: Option<u64>) -> u64 {
    key.len() as u64 + json_len.unwrap_or(512)
}

/// One in-flight solve in the engine's single-flight map. The leader
/// publishes its outcome exactly once; followers block on the condvar
/// and receive the published slot verbatim.
#[derive(Debug, Default)]
struct Flight {
    outcome: Mutex<Option<Result<Arc<Slot>, ScheduleError>>>,
    done: Condvar,
}

impl Flight {
    fn publish(&self, outcome: Result<Arc<Slot>, ScheduleError>) {
        *self.outcome.lock().expect("flight lock") = Some(outcome);
        self.done.notify_all();
    }

    fn wait(&self) -> Result<Arc<Slot>, ScheduleError> {
        let mut outcome = self.outcome.lock().expect("flight lock");
        while outcome.is_none() {
            outcome = self.done.wait(outcome).expect("flight lock");
        }
        outcome.clone().expect("flight published")
    }
}

/// The single-flight verdict for one uncached lookup.
enum Ticket {
    /// The entry was in the in-memory cache after all.
    Hit(Arc<Slot>),
    /// This request leads: it must solve and publish through the flight.
    Lead(Arc<Flight>),
    /// Another request is already solving this digest; wait on its flight.
    Wait(Arc<Flight>),
}

/// Clears a leader's flight on every exit path: removes the wait-map
/// entry, then publishes the outcome so followers wake. If the leader
/// unwinds before recording an outcome (a panicking scheduler), followers
/// receive an error instead of blocking forever.
struct FlightLead<'a> {
    engine: &'a Engine,
    key: &'a str,
    flight: Arc<Flight>,
    /// Names for the panic-path error message.
    scheduler: String,
    layer: String,
    outcome: Option<Result<Arc<Slot>, ScheduleError>>,
}

impl Drop for FlightLead<'_> {
    fn drop(&mut self) {
        // Order matters: the successful outcome is already in the cache
        // (the leader inserts before this guard drops), so removing the
        // flight first means a new request either sees the cache entry or
        // starts a fresh flight — it can never miss both.
        self.engine
            .flights
            .lock()
            .expect("flights lock")
            .remove(self.key);
        let outcome = self.outcome.take().unwrap_or_else(|| {
            Err(ScheduleError::Solver {
                scheduler: self.scheduler.clone(),
                layer: self.layer.clone(),
                message: "in-flight solve aborted before publishing a result".to_string(),
            })
        });
        self.flight.publish(outcome);
    }
}

/// The outcome of consulting the shared store before a leader solves.
enum CrossProcess {
    /// Another process already persisted the entry; serve it. The `u64`
    /// is the length of its JSON in the record read; the entry is boxed
    /// because a `CacheEntry` dwarfs the other variants.
    Entry(Box<CacheEntry>, u64),
    /// The per-digest solve lock was acquired; solve while holding it.
    Locked(SolveLock),
    /// Locking is unavailable (I/O trouble); solve unlocked (fail-open).
    Unlocked,
}

/// Fresh solves per backend: how many unique-shape solves a scheduler
/// backend ran, and the wall-clock it spent on them.
///
/// For single-backend schedulers every fresh solve goes to that backend.
/// Under the portfolio scheduler the backend it picked for the layer is
/// credited — the entry's [`Scheduled::scheduler`](crate::api::Scheduled)
/// names `"cosa"` or `"sat"`, not the portfolio wrapper — so the
/// distribution shows which backend carried which shapes. (The field names
/// `wins`/`win_micros` are kept from the wire format.)
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BackendWin {
    /// Backend name as reported by the result (e.g. `"cosa"`, `"sat"`).
    pub backend: String,
    /// Fresh solves credited to this backend.
    pub wins: u64,
    /// Total wall-clock microseconds of those fresh solves.
    pub win_micros: u64,
}

/// A snapshot of the engine's cache and evaluation counters, threaded into
/// every [`NetworkReport`] for provenance.
///
/// All fields are volatile run-to-run bookkeeping;
/// [`NetworkReport::without_timings`] resets them so canonical report
/// comparisons see only the deterministic content.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lifetime lookup hits.
    pub hits: u64,
    /// Lifetime lookup misses.
    pub misses: u64,
    /// Lifetime LRU evictions from the in-memory front.
    pub evictions: u64,
    /// Schedules currently resident in memory.
    pub entries: usize,
    /// Canonical-JSON bytes accounted to resident entries.
    pub bytes: u64,
    /// Lifetime cycle-level NoC simulations actually executed (cache hits
    /// with a stored verdict do not re-simulate).
    pub noc_sims: u64,
    /// Entries restored from the persistent store at engine construction
    /// (0 for a cold start or a memory-only engine).
    pub warm_entries: usize,
    /// Microseconds spent loading the persistent store at construction —
    /// the cold vs. warm start cost.
    pub load_micros: u64,
    /// Persistent-store write failures plus corrupt entries skipped at
    /// load (non-fatal; the cache degrades to memory-only behaviour).
    pub store_errors: u64,
    /// Requests that waited on another request's in-flight solve instead
    /// of re-running the solver: in-process single-flight followers plus
    /// cross-process waits on another process's solve lock.
    pub dedup_waits: u64,
    /// Peak number of digests simultaneously in flight (the high-water
    /// mark of the single-flight wait map).
    pub in_flight_peak: u64,
    /// Fresh solves per backend, sorted by backend name. Under the
    /// portfolio scheduler this counts the layers sent to each backend
    /// (see [`BackendWin`]); empty until the first fresh solve.
    pub backend_wins: Vec<BackendWin>,
    /// Live rows in the packed segment index.
    pub disk_index_entries: usize,
    /// Size of the segment file on disk (header + live + dead payload).
    pub segment_bytes: u64,
    /// Segment payload bytes reachable from the index.
    pub segment_live_bytes: u64,
    /// Segment payload bytes awaiting compaction.
    pub segment_dead_bytes: u64,
    /// Segment compactions this engine's store has run.
    pub compactions: u64,
}

/// Per-entry outcome inside a [`NetworkReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerReport {
    /// The network entry's position label (e.g. `conv4.rest.expand`).
    pub name: String,
    /// The layer's shape name.
    pub layer: String,
    /// Back-to-back executions of this entry.
    pub count: u64,
    /// The scheduling result, when the scheduler succeeded.
    pub scheduled: Option<Scheduled>,
    /// The engine-level NoC verdict for the chosen schedule (populated
    /// when the engine has [`Engine::with_noc`] enabled; served from the
    /// cache for repeated shapes and warm starts).
    pub noc: Option<NocSummary>,
    /// The error rendered as text, when it failed.
    pub error: Option<String>,
}

/// The serializable outcome of scheduling a whole network.
///
/// Totals weight each entry's per-execution latency/energy by its repeat
/// count and cover only scheduled entries; `failed_layers` flags gaps.
/// The [`CacheStats`] snapshot records how the engine's cache behaved for
/// provenance; strip it (and wall-clock) with
/// [`NetworkReport::without_timings`] before byte-comparing reports across
/// runs.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkReport {
    /// Network name.
    pub network: String,
    /// Architecture name.
    pub arch: String,
    /// Scheduler name.
    pub scheduler: String,
    /// Per-entry outcomes in network order.
    pub layers: Vec<LayerReport>,
    /// Entries that scheduled successfully.
    pub scheduled_layers: usize,
    /// Entries whose scheduler failed.
    pub failed_layers: usize,
    /// Whole-network latency in cycles (Σ count × per-layer latency).
    pub total_latency_cycles: f64,
    /// Whole-network energy in pJ (Σ count × per-layer energy).
    pub total_energy_pj: f64,
    /// Whole-network multiply-accumulates.
    pub total_macs: u64,
    /// Whole-network NoC-simulator latency (Σ count × per-layer NoC
    /// cycles over entries with a verdict); `None` when engine-level NoC
    /// evaluation is disabled.
    pub total_noc_cycles: Option<f64>,
    /// The engine's cache/evaluation counters when this report was
    /// assembled (volatile; zeroed by [`NetworkReport::without_timings`]).
    pub cache: CacheStats,
    /// The versioned inter-layer residency section — present exactly when
    /// the pass ran (see [`Engine::with_interlayer`]). Omitted from the
    /// wire when absent, so reports from engines without the pass are
    /// byte-identical to the pre-interlayer schema, and reports *written*
    /// before the section existed still deserialize.
    pub interlayer: Option<InterlayerReport>,
}

// Hand-written (instead of derived) serialization for wire-schema
// stability: `interlayer` is *omitted* when `None` — a derive would emit
// `"interlayer":null`, changing the bytes of every pre-existing report —
// and *optional on read*, so pre-interlayer report JSON still loads. The
// field order matches the struct declaration and the keys take the
// identifier path, exactly as the derive would emit them.
impl Serialize for NetworkReport {
    fn serialize(&self, out: &mut serde::Writer) -> Result<(), serde::Error> {
        let mut map = out.map();
        map.ident_field("network", &self.network)?;
        map.ident_field("arch", &self.arch)?;
        map.ident_field("scheduler", &self.scheduler)?;
        map.ident_field("layers", &self.layers)?;
        map.ident_field("scheduled_layers", &self.scheduled_layers)?;
        map.ident_field("failed_layers", &self.failed_layers)?;
        map.ident_field("total_latency_cycles", &self.total_latency_cycles)?;
        map.ident_field("total_energy_pj", &self.total_energy_pj)?;
        map.ident_field("total_macs", &self.total_macs)?;
        map.ident_field("total_noc_cycles", &self.total_noc_cycles)?;
        map.ident_field("cache", &self.cache)?;
        if let Some(interlayer) = &self.interlayer {
            map.ident_field("interlayer", interlayer)?;
        }
        map.end();
        Ok(())
    }
}

// Hand-written so an absent `interlayer` key reads as `None`; every other
// field follows the derive's rules (first of duplicate keys wins, unknown
// keys are skipped, an absent key is `missing field`).
impl Deserialize for NetworkReport {
    fn deserialize(r: &mut serde::Reader<'_>) -> Result<NetworkReport, serde::Error> {
        let (mut network, mut arch, mut scheduler, mut layers) = (None, None, None, None);
        let (mut scheduled_layers, mut failed_layers) = (None, None);
        let (mut total_latency_cycles, mut total_energy_pj) = (None, None);
        let (mut total_macs, mut total_noc_cycles) = (None, None);
        let (mut cache, mut interlayer) = (None, None);
        r.map("NetworkReport", |r, key| {
            fn fill<T: Deserialize>(
                slot: &mut Option<T>,
                r: &mut serde::Reader<'_>,
            ) -> Result<(), serde::Error> {
                match slot {
                    Some(_) => r.skip(),
                    None => T::deserialize(r).map(|value| *slot = Some(value)),
                }
            }
            match key {
                "network" => fill(&mut network, r),
                "arch" => fill(&mut arch, r),
                "scheduler" => fill(&mut scheduler, r),
                "layers" => fill(&mut layers, r),
                "scheduled_layers" => fill(&mut scheduled_layers, r),
                "failed_layers" => fill(&mut failed_layers, r),
                "total_latency_cycles" => fill(&mut total_latency_cycles, r),
                "total_energy_pj" => fill(&mut total_energy_pj, r),
                "total_macs" => fill(&mut total_macs, r),
                "total_noc_cycles" => fill(&mut total_noc_cycles, r),
                "cache" => fill(&mut cache, r),
                "interlayer" => fill::<Option<InterlayerReport>>(&mut interlayer, r),
                _ => r.skip(),
            }
        })?;
        Ok(NetworkReport {
            network: serde::required(network, "network")?,
            arch: serde::required(arch, "arch")?,
            scheduler: serde::required(scheduler, "scheduler")?,
            layers: serde::required(layers, "layers")?,
            scheduled_layers: serde::required(scheduled_layers, "scheduled_layers")?,
            failed_layers: serde::required(failed_layers, "failed_layers")?,
            total_latency_cycles: serde::required(total_latency_cycles, "total_latency_cycles")?,
            total_energy_pj: serde::required(total_energy_pj, "total_energy_pj")?,
            total_macs: serde::required(total_macs, "total_macs")?,
            total_noc_cycles: serde::required(total_noc_cycles, "total_noc_cycles")?,
            cache: serde::required(cache, "cache")?,
            interlayer: interlayer.flatten(),
        })
    }
}

impl NetworkReport {
    /// `true` when every entry scheduled successfully.
    pub fn is_complete(&self) -> bool {
        self.failed_layers == 0
    }

    /// A copy with every volatile measurement zeroed: per-layer wall-clock
    /// and the [`CacheStats`] snapshot.
    ///
    /// Solve times and cache counters vary run to run while schedules and
    /// totals must not, so content comparisons across runs (different
    /// engines, thread counts, or cold-vs-warm processes) go through this
    /// canonical form.
    pub fn without_timings(&self) -> NetworkReport {
        let mut report = self.clone();
        for layer in &mut report.layers {
            if let Some(s) = &mut layer.scheduled {
                s.elapsed = Duration::ZERO;
            }
        }
        report.cache = CacheStats::default();
        report
    }
}

/// A [`NetworkReport`] plus this run's volatile execution statistics
/// (wall-clock and cache behaviour).
#[derive(Debug, Clone)]
pub struct NetworkRun {
    /// The per-network report.
    pub report: NetworkReport,
    /// Entries that received a schedule without a fresh solve (cross-run
    /// cache hits plus within-run deduplication of repeated shapes);
    /// duplicate entries of a failed solve count as neither hit nor miss.
    pub cache_hits: u64,
    /// Unique shapes this call actually solved fresh. Digests resolved by
    /// waiting on a concurrent call's in-flight solve, or read through
    /// from an entry another process persisted, count as neither hit nor
    /// miss here (they surface in [`CacheStats::dedup_waits`]).
    pub cache_misses: u64,
    /// Cycle-level NoC simulations executed during this call (0 on a warm
    /// run whose entries already carry verdicts).
    pub noc_sims: u64,
    /// Wall-clock time for the whole network call.
    pub elapsed: Duration,
}

/// What [`Engine::schedule_resident`] is asked to answer: one layer (keyed
/// under the engine's default inter-layer options, as
/// [`Engine::schedule_layer`] keys it) or a whole network under explicit
/// options (as [`Engine::schedule_network_with`]).
#[derive(Debug, Clone, Copy)]
pub enum Work<'a> {
    /// A single layer.
    Layer(&'a Layer),
    /// A network with its inter-layer options.
    Network(&'a Network, &'a InterlayerOptions),
}

/// A [`Work`] answered from the in-memory tier: exactly what
/// [`Engine::schedule_layer`] or [`Engine::schedule_network_with`] would
/// have returned.
#[derive(Debug, Clone)]
pub enum Resident {
    /// The layer's schedule.
    Layer(Scheduled),
    /// The network's run (`cache_misses` and `noc_sims` are 0; boxed, as
    /// a run dwarfs a schedule).
    Network(Box<NetworkRun>),
}

/// A cache key's parts up to the layer, under one scheduler and one set of
/// inter-layer options (see [`Engine::cache_key_with`]).
struct KeyPrefix {
    /// `fingerprint ‖ arch JSON`, already hashed.
    digest: canon::CanonDigest,
    /// The options' fingerprint, folded in after the layer when the pass is
    /// enabled.
    options: Option<String>,
}

impl KeyPrefix {
    /// The prefix for `scheduler` on the architecture whose canonical JSON
    /// is `arch_json`.
    fn new(
        scheduler: &dyn Scheduler,
        arch_json: &str,
        interlayer: &InterlayerOptions,
    ) -> KeyPrefix {
        let mut digest = canon::CanonDigest::new();
        digest.push(&scheduler.fingerprint());
        digest.push(arch_json);
        KeyPrefix {
            digest,
            options: interlayer.enabled.then(|| interlayer.fingerprint()),
        }
    }

    /// The key of `layer`: a copy of the prefix state extended by the
    /// layer's canonical JSON (and the options).
    fn key(&self, layer: &Layer) -> String {
        let mut digest = self.digest.clone();
        digest.push(&serde_json::to_string(layer).expect("layer serializes"));
        if let Some(options) = &self.options {
            digest.push(options);
        }
        digest.hex()
    }
}

/// The cache key of `layer` under `scheduler` on the architecture whose
/// canonical JSON is `arch_json`: the one statement of the key format,
/// behind [`Engine::cache_key_with`] and the wire's
/// [`routing_digest`](crate::serve::routing_digest).
pub(crate) fn cache_key(
    scheduler: &dyn Scheduler,
    arch_json: &str,
    layer: &Layer,
    interlayer: &InterlayerOptions,
) -> String {
    KeyPrefix::new(scheduler, arch_json, interlayer).key(layer)
}

/// The batch scheduling engine. See the [module docs](self) for an example.
#[derive(Debug)]
pub struct Engine {
    arch: Arch,
    /// Canonical serialization of `arch`, computed once for cache keys.
    arch_json: String,
    threads: usize,
    cache: Mutex<ScheduleCache>,
    /// Persistent write-through tier, when a cache dir is configured.
    store: Option<CacheStore>,
    /// Run the cycle-level NoC simulator per unique shape.
    simulate_noc: bool,
    noc_sims: AtomicU64,
    store_errors: AtomicU64,
    warm_entries: usize,
    load_micros: u64,
    /// Per-digest single-flight wait map: at most one solve per digest is
    /// in flight at a time; concurrent requests for it wait here.
    flights: Mutex<HashMap<String, Arc<Flight>>>,
    /// Requests deduplicated against an in-flight solve (in-process
    /// followers + cross-process lock waits).
    dedup_waits: AtomicU64,
    /// Fresh solves per backend `name -> (wins, win_micros)`, keyed by the
    /// *result's* scheduler name (so the portfolio credits the backend it
    /// picked, not the wrapper).
    backend_wins: Mutex<HashMap<String, (u64, u64)>>,
    /// High-water mark of `flights`.
    in_flight_peak: AtomicU64,
    /// Default inter-layer residency options for network scheduling
    /// (disabled unless [`Engine::with_interlayer`] set them).
    interlayer: InterlayerOptions,
}

impl Engine {
    /// An engine for `arch` with an unbounded in-memory cache and one
    /// worker per available CPU.
    pub fn new(arch: Arch) -> Engine {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        let arch_json = serde_json::to_string(&arch).expect("arch serializes");
        Engine {
            arch,
            arch_json,
            threads,
            cache: Mutex::new(ScheduleCache::unbounded()),
            store: None,
            simulate_noc: false,
            noc_sims: AtomicU64::new(0),
            store_errors: AtomicU64::new(0),
            warm_entries: 0,
            load_micros: 0,
            flights: Mutex::new(HashMap::new()),
            dedup_waits: AtomicU64::new(0),
            backend_wins: Mutex::new(HashMap::new()),
            in_flight_peak: AtomicU64::new(0),
            interlayer: InterlayerOptions::disabled(),
        }
    }

    /// Set the engine-default [`InterlayerOptions`]: with
    /// `options.enabled`, every [`Engine::schedule_network`] call runs the
    /// inter-layer residency pass and reports the versioned
    /// [`NetworkReport::interlayer`] section. Per-call overrides go
    /// through [`Engine::schedule_network_with`].
    pub fn with_interlayer(mut self, options: InterlayerOptions) -> Engine {
        self.interlayer = options;
        self
    }

    /// The engine-default inter-layer residency options.
    pub fn interlayer_options(&self) -> &InterlayerOptions {
        &self.interlayer
    }

    /// Set the number of worker threads for network fan-out, the calling
    /// thread included (min 1).
    pub fn with_threads(mut self, threads: usize) -> Engine {
        self.threads = threads.max(1);
        self
    }

    /// Bound the in-memory cache to `max_bytes` of canonical-JSON size
    /// (LRU eviction with byte accounting; the newest entry always stays,
    /// so a budget of 1 byte keeps exactly one). Composes with
    /// [`Engine::with_cache_dir`] in either order: entries already
    /// resident are kept, shrunk to the bound.
    pub fn with_cache_bytes(mut self, max_bytes: u64) -> Engine {
        self.cache
            .get_mut()
            .expect("cache lock")
            .bound_bytes(max_bytes);
        self
    }

    /// Evaluate every unique shape on the cycle-level NoC simulator inside
    /// the engine, caching the verdict alongside the schedule. Campaign
    /// code (Fig. 10) reads [`LayerReport::noc`] instead of re-simulating.
    pub fn with_noc(mut self) -> Engine {
        self.simulate_noc = true;
        self
    }

    /// Attach a persistent cache directory: the segment index is read in
    /// one pass (an O(index) warm start — entries decode lazily on first
    /// use) and every fresh result is written through. Corrupt on-disk
    /// entries are skipped and counted in [`CacheStats::store_errors`],
    /// never fatal.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the directory cannot be created.
    pub fn with_cache_dir(mut self, dir: impl AsRef<Path>) -> io::Result<Engine> {
        let start = Instant::now();
        let store = CacheStore::open(dir.as_ref())?;
        let load = store.load_index();
        self.warm_entries = load.entries;
        // The whole warm start: one index read and a tail replay bounded
        // by the index size.
        self.load_micros = start.elapsed().as_micros() as u64;
        self.store_errors
            .fetch_add(load.skipped as u64, Ordering::Relaxed);
        self.store = Some(store);
        Ok(self)
    }

    /// The engine's architecture.
    pub fn arch(&self) -> &Arch {
        &self.arch
    }

    /// Configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The persistent store, when a cache dir is configured.
    pub fn store(&self) -> Option<&CacheStore> {
        self.store.as_ref()
    }

    /// Current cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        let mut stats = CacheStats {
            noc_sims: self.noc_sims.load(Ordering::Relaxed),
            warm_entries: self.warm_entries,
            load_micros: self.load_micros,
            store_errors: self.store_errors.load(Ordering::Relaxed),
            dedup_waits: self.dedup_waits.load(Ordering::Relaxed),
            in_flight_peak: self.in_flight_peak.load(Ordering::Relaxed),
            backend_wins: {
                let wins = self.backend_wins.lock().expect("wins lock");
                let mut tallies: Vec<BackendWin> = wins
                    .iter()
                    .map(|(backend, &(wins, win_micros))| BackendWin {
                        backend: backend.clone(),
                        wins,
                        win_micros,
                    })
                    .collect();
                tallies.sort_by(|a, b| a.backend.cmp(&b.backend));
                tallies
            },
            ..CacheStats::default()
        };
        let cache = self.cache.lock().expect("cache lock");
        stats.hits = cache.hits;
        stats.misses = cache.misses;
        stats.evictions = cache.evictions;
        stats.entries = cache.len();
        stats.bytes = cache.bytes();
        drop(cache);
        if let Some(store) = &self.store {
            let disk = store.disk_stats();
            stats.disk_index_entries = disk.index_entries;
            stats.segment_bytes = disk.segment_bytes;
            stats.segment_live_bytes = disk.live_bytes;
            stats.segment_dead_bytes = disk.dead_bytes;
            stats.compactions = disk.compactions;
        }
        stats
    }

    /// Run a [`GcPolicy`] sweep over the persistent store, when one is
    /// attached. Only the disk tier is touched: entries already resident
    /// in memory stay served from the LRU front, so a GC'd daemon keeps
    /// answering from cache while the directory shrinks. Cache hits do
    /// not re-persist, so a collected entry returns to disk only when it
    /// is re-solved (e.g. by a later cold process) — the byte/age budget
    /// genuinely bounds what survives a restart.
    ///
    /// Returns `None` for a memory-only engine.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error when the store directory cannot be
    /// scanned.
    pub fn gc_store(&self, policy: &GcPolicy) -> Option<io::Result<GcReport>> {
        self.store.as_ref().map(|store| store.gc(policy))
    }

    /// The content-addressed cache key for `(self.arch, layer, scheduler)`:
    /// the [`canon::cache_digest`] of the scheduler fingerprint plus the
    /// canonical serializations of the architecture and layer. Digest keys
    /// keep the cache map and the per-network dedup scan cheap instead of
    /// comparing and storing multi-kilobyte JSON strings, and double as the
    /// persistent store's index keys and solve-lock file names.
    pub fn cache_key(&self, scheduler: &dyn Scheduler, layer: &Layer) -> String {
        self.cache_key_with(scheduler, layer, &self.interlayer)
    }

    /// [`Engine::cache_key`] under explicit [`InterlayerOptions`]. With the
    /// pass enabled the options' fingerprint is folded into the digest, so
    /// memory-aware entries never collide with per-layer ones (in this
    /// cache or on disk); with it
    /// disabled the key is the pre-interlayer 3-part digest, keeping
    /// existing cache directories warm for the default path.
    pub fn cache_key_with(
        &self,
        scheduler: &dyn Scheduler,
        layer: &Layer,
        interlayer: &InterlayerOptions,
    ) -> String {
        cache_key(scheduler, &self.arch_json, layer, interlayer)
    }

    /// Run the NoC simulator on a chosen schedule, counting the sim.
    fn noc_verdict(&self, layer: &Layer, scheduled: &Scheduled) -> Option<NocSummary> {
        self.noc_sims.fetch_add(1, Ordering::Relaxed);
        NocSimulator::new(&self.arch)
            .evaluate(layer, &scheduled.schedule)
            .ok()
    }

    /// Insert one entry into the memory tier, then write it through to the
    /// persistent store when one is attached (best-effort; failures are
    /// counted, not propagated). The entry is encoded once: the store
    /// writes that JSON and the LRU accounts its length. Returns the slot.
    fn insert_and_persist(&self, key: &str, entry: CacheEntry) -> Arc<Slot> {
        let json = serde_json::to_string(&entry).ok();
        let bytes = sized_bytes(key, json.as_ref().map(|json| json.len() as u64));
        let slot =
            self.cache
                .lock()
                .expect("cache lock")
                .insert_sized(key.to_string(), entry, bytes);
        if let Some(store) = &self.store {
            let saved = json.map(|json| store.save_encoded(key, &json));
            if !matches!(saved, Some(Ok(()))) {
                self.store_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        slot
    }

    /// Solve one layer fresh (no cache interaction), attaching the NoC
    /// verdict when engine-level evaluation is enabled.
    fn solve_fresh(
        &self,
        scheduler: &dyn Scheduler,
        layer: &Layer,
    ) -> Result<CacheEntry, ScheduleError> {
        scheduler.schedule(&self.arch, layer).map(|scheduled| {
            // Credit the backend that produced the result (under the
            // portfolio wrapper, the backend it picked).
            {
                let mut wins = self.backend_wins.lock().expect("wins lock");
                let tally = wins.entry(scheduled.scheduler.clone()).or_insert((0, 0));
                tally.0 += 1;
                tally.1 += scheduled.elapsed.as_micros() as u64;
            }
            let noc = self
                .simulate_noc
                .then(|| self.noc_verdict(layer, &scheduled))
                .flatten();
            let backend = Some(scheduled.scheduler.clone());
            let dram = Some(self.dram_profile(layer, &scheduled));
            CacheEntry {
                scheduled,
                noc,
                backend,
                dram,
            }
        })
    }

    /// The analytical model's per-tensor DRAM breakdown for a chosen
    /// schedule — the provenance the inter-layer residency pass reads.
    fn dram_profile(&self, layer: &Layer, scheduled: &Scheduled) -> DramProfile {
        let eval = CostModel::new(&self.arch).evaluate_unchecked(layer, &scheduled.schedule);
        DramProfile::from_tensor_bytes(eval.dram_tensor_bytes)
    }

    /// Fill in what a cached slot's entry lacks for an answer — the NoC
    /// verdict when the engine simulates, the DRAM profile when
    /// `needs_dram` (the inter-layer pass reads it) — so entries saved
    /// without them (a bare [`CacheEntry::new`], an engine without
    /// [`Engine::with_noc`]) converge too. Anything filled in is
    /// re-inserted and persisted once; an entry that
    /// [`Engine::answers_without_catch_up`] costs nothing.
    fn complete(&self, key: &str, slot: Arc<Slot>, layer: &Layer, needs_dram: bool) -> Arc<Slot> {
        if self.answers_without_catch_up(&slot.entry, needs_dram) {
            return slot;
        }
        let mut entry = slot.entry.clone();
        let mut filled = false;
        if self.simulate_noc && entry.noc.is_none() {
            entry.noc = self.noc_verdict(layer, &entry.scheduled);
            filled = entry.noc.is_some();
        }
        if needs_dram && entry.dram.is_none() {
            entry.dram = Some(self.dram_profile(layer, &entry.scheduled));
            filled = true;
        }
        if filled {
            self.insert_and_persist(key, entry)
        } else {
            slot
        }
    }

    /// The single-flight admission decision for an uncached-looking key.
    /// The cache check happens *under the wait-map lock* so a leader's
    /// publish (insert cache, then clear flight) can never slip between a
    /// joiner's two checks.
    fn join_flight(&self, key: &str) -> Ticket {
        let mut flights = self.flights.lock().expect("flights lock");
        if let Some(hit) = self.cache.lock().expect("cache lock").hit(key) {
            return Ticket::Hit(hit);
        }
        if let Some(flight) = flights.get(key) {
            self.dedup_waits.fetch_add(1, Ordering::Relaxed);
            return Ticket::Wait(flight.clone());
        }
        let flight = Arc::new(Flight::default());
        flights.insert(key.to_string(), flight.clone());
        self.in_flight_peak
            .fetch_max(flights.len() as u64, Ordering::Relaxed);
        Ticket::Lead(flight)
    }

    /// Consult the shared store before a leader solves: read through for
    /// an entry another process persisted after our warm start, then take
    /// the per-digest solve lock — blocking until another process's
    /// in-flight solve releases it (or its process dies) when it is held.
    fn cross_process_entry(&self, store: &CacheStore, key: &str) -> CrossProcess {
        if let Some((entry, json_len)) = store.load_sized(key) {
            return CrossProcess::Entry(Box::new(entry), json_len);
        }
        let lock = store.try_lock(key).transpose().unwrap_or_else(|| {
            // Another process is solving this digest: wait for it.
            self.dedup_waits.fetch_add(1, Ordering::Relaxed);
            store.lock(key)
        });
        match lock {
            // Re-check under the lock: the previous holder persists before
            // it releases.
            Ok(lock) => match store.load_sized(key) {
                Some((entry, json_len)) => CrossProcess::Entry(Box::new(entry), json_len),
                None => CrossProcess::Locked(lock),
            },
            Err(_) => {
                // Advisory locking is an optimization: degrade to a
                // (possibly duplicated) solve rather than failing.
                self.store_errors.fetch_add(1, Ordering::Relaxed);
                CrossProcess::Unlocked
            }
        }
    }

    /// The leader's solve path: cross-process coordination (when a store
    /// is attached), then the actual solve, publishing successes to the
    /// cache and the store *before* the solve lock releases. An entry read
    /// through from disk is [completed](Engine::complete). Returns the
    /// outcome plus whether this call ran the solver.
    fn lead_flight(
        &self,
        scheduler: &dyn Scheduler,
        key: &str,
        layer: &Layer,
        needs_dram: bool,
    ) -> (Result<Arc<Slot>, ScheduleError>, bool) {
        let mut lock = None;
        if let Some(store) = &self.store {
            match self.cross_process_entry(store, key) {
                CrossProcess::Entry(entry, json_len) => {
                    // Another process solved it: a disk-tier hit, not a
                    // miss — no solver ran here. The record's entry JSON
                    // is the canonical encoding, so its length is the size.
                    let bytes = sized_bytes(key, Some(json_len));
                    debug_assert_eq!(bytes, entry_bytes(key, &entry), "stored JSON is canonical");
                    let mut cache = self.cache.lock().expect("cache lock");
                    cache.note_hit();
                    let slot = cache.insert_sized(key.to_string(), *entry, bytes);
                    drop(cache);
                    return (Ok(self.complete(key, slot, layer, needs_dram)), false);
                }
                CrossProcess::Locked(held) => lock = Some(held),
                CrossProcess::Unlocked => {}
            }
        }
        self.cache.lock().expect("cache lock").note_miss();
        // Persist before releasing the lock: a waiter that acquires the
        // lock next re-checks the disk and must find the entry.
        let outcome = self
            .solve_fresh(scheduler, layer)
            .map(|entry| self.insert_and_persist(key, entry));
        drop(lock);
        (outcome, true)
    }

    /// Resolve one `(key, layer)` through every dedup tier: the in-memory
    /// cache, the in-process single-flight map and (when a store is
    /// attached) the cross-process solve lock plus disk read-through. A
    /// cached entry is [completed](Engine::complete) for `needs_dram`; a
    /// follower receives its leader's entry as the leader completed it.
    /// Returns the outcome plus whether *this call* ran the solver.
    fn resolve_entry(
        &self,
        scheduler: &dyn Scheduler,
        key: &str,
        layer: &Layer,
        needs_dram: bool,
    ) -> (Result<Arc<Slot>, ScheduleError>, bool) {
        match self.join_flight(key) {
            Ticket::Hit(slot) => (Ok(self.complete(key, slot, layer, needs_dram)), false),
            Ticket::Wait(flight) => (flight.wait(), false),
            Ticket::Lead(flight) => {
                let mut lead = FlightLead {
                    engine: self,
                    key,
                    flight,
                    scheduler: scheduler.name().to_string(),
                    layer: layer.name().to_string(),
                    outcome: None,
                };
                let (outcome, led) = self.lead_flight(scheduler, key, layer, needs_dram);
                lead.outcome = Some(outcome.clone());
                drop(lead); // Publishes to followers and clears the flight.
                (outcome, led)
            }
        }
    }

    /// Schedule a single layer through the cache.
    ///
    /// Concurrent calls for the same uncached digest are single-flighted:
    /// exactly one runs the solver, the others wait and receive the same
    /// entry verbatim (counted in [`CacheStats::dedup_waits`]).
    ///
    /// With [`Engine::with_noc`] enabled the NoC verdict is computed (or
    /// served from the cache) and stored alongside the schedule; retrieve
    /// it via [`Engine::schedule_network`] reports or the cache itself.
    ///
    /// # Errors
    ///
    /// Propagates the scheduler's [`ScheduleError`]; errors are not
    /// cached (followers of a failed flight receive the leader's error,
    /// and the next request re-solves).
    pub fn schedule_layer(
        &self,
        scheduler: &dyn Scheduler,
        layer: &Layer,
    ) -> Result<Scheduled, ScheduleError> {
        self.layer_run(scheduler, layer, true)
            .expect("a solving run always answers")
    }

    /// Answer `work` from the in-memory tier alone, or return `None`
    /// without side effects when that is not possible: a shape is not
    /// resident, or an entry lacks the NoC verdict ([`Engine::with_noc`])
    /// or the DRAM profile (inter-layer pass enabled) the answer needs.
    /// An answer runs no solver and no completion (NoC simulation or DRAM
    /// profile), touches no disk beyond a non-blocking
    /// [`CacheStore::disk_stats`], and waits on no lock held across I/O —
    /// a serving event loop may call it. It is byte for byte the answer of
    /// [`Engine::schedule_layer`] or [`Engine::schedule_network_with`], and
    /// it counts its hits exactly as they would; a `None` counts nothing,
    /// so the solving call that follows counts each hit and miss once.
    pub fn schedule_resident(&self, scheduler: &dyn Scheduler, work: Work<'_>) -> Option<Resident> {
        match work {
            Work::Layer(layer) => self
                .layer_run(scheduler, layer, false)
                .map(|outcome| Resident::Layer(outcome.expect("resident entries are successes"))),
            Work::Network(network, interlayer) => self
                .network_run(network, scheduler, interlayer, false)
                .map(|run| Resident::Network(Box::new(run))),
        }
    }

    /// `true` when a resident `entry` carries everything an answer needs
    /// without a catch-up: the NoC verdict when the engine simulates, the
    /// DRAM profile when the inter-layer pass reads it.
    fn answers_without_catch_up(&self, entry: &CacheEntry, needs_dram: bool) -> bool {
        (!self.simulate_noc || entry.noc.is_some()) && (!needs_dram || entry.dram.is_some())
    }

    /// The layer path behind [`Engine::schedule_layer`] (`solve`: every
    /// dedup tier, then the solver) and [`Engine::schedule_resident`]
    /// (`!solve`: the memory tier only, `None` unless the entry is
    /// resident and complete; the check counts nothing, the hit counts
    /// once).
    fn layer_run(
        &self,
        scheduler: &dyn Scheduler,
        layer: &Layer,
        solve: bool,
    ) -> Option<Result<Scheduled, ScheduleError>> {
        let key = self.cache_key(scheduler, layer);
        if solve {
            // Layer keys are the keys network calls under the engine's
            // default options read, so complete what those need too: a
            // shape read through here is then persisted once, not again
            // when a network call adds its DRAM profile.
            let needs_dram = self.interlayer.enabled;
            let (outcome, _led) = self.resolve_entry(scheduler, &key, layer, needs_dram);
            return Some(outcome.map(|slot| slot.entry.scheduled.clone()));
        }
        let mut cache = self.cache.lock().expect("cache lock");
        let complete = cache
            .resident(&key)
            .is_some_and(|entry| self.answers_without_catch_up(entry, false));
        if !complete {
            return None;
        }
        cache.hit(&key).map(|slot| Ok(slot.entry.scheduled.clone()))
    }

    /// Schedule every entry of `network` with `scheduler`.
    ///
    /// Repeated layer shapes are scheduled once: entries are deduplicated
    /// against the cache and within the call, and the remaining unique
    /// shapes are solved (and, with [`Engine::with_noc`], NoC-simulated)
    /// in parallel on up to [`Engine::threads`] workers, the calling thread
    /// being one of them ([`cosa_spec::fanout`]): it spawns `threads − 1`
    /// helpers at most, and none when at most one shape needs work, so a
    /// fully warm call runs on the caller alone. Fresh results are
    /// written through to the persistent store when one is attached.
    /// Per-entry failures are recorded in the report rather than aborting
    /// the network.
    pub fn schedule_network(&self, network: &Network, scheduler: &dyn Scheduler) -> NetworkRun {
        self.schedule_network_with(network, scheduler, &self.interlayer)
    }

    /// [`Engine::schedule_network`] with per-call inter-layer options
    /// overriding the engine default — the entry point the serving tier
    /// uses for the `interlayer` request object.
    ///
    /// When `interlayer.enabled`, the per-layer solves are followed by the
    /// residency pass (see [`interlayer`](crate::engine::interlayer)) and
    /// the report carries an [`InterlayerReport`] section; cache keys fold
    /// in the options' fingerprint so memory-aware and per-layer schedules
    /// never collide.
    pub fn schedule_network_with(
        &self,
        network: &Network,
        scheduler: &dyn Scheduler,
        interlayer: &InterlayerOptions,
    ) -> NetworkRun {
        self.network_run(network, scheduler, interlayer, true)
            .expect("a solving run always completes")
    }

    /// The network path behind [`Engine::schedule_network_with`] (`solve`)
    /// and [`Engine::schedule_resident`] (`!solve`: `None`, with nothing
    /// counted, unless every unique shape is resident and complete — then
    /// no job or completion runs and the report is assembled exactly as a
    /// warm solving call assembles it).
    fn network_run(
        &self,
        network: &Network,
        scheduler: &dyn Scheduler,
        interlayer: &InterlayerOptions,
        solve: bool,
    ) -> Option<NetworkRun> {
        let start = Instant::now();
        let noc_sims_before = self.noc_sims.load(Ordering::Relaxed);

        // Unique shapes in first-occurrence order.
        let prefix = KeyPrefix::new(scheduler, &self.arch_json, interlayer);
        let keys: Vec<String> = network
            .layers
            .iter()
            .map(|e| prefix.key(&e.layer))
            .collect();
        let mut unique: Vec<(&str, &Layer)> = Vec::new();
        let mut seen: std::collections::HashSet<&str> = std::collections::HashSet::new();
        for (key, entry) in keys.iter().zip(&network.layers) {
            if seen.insert(key.as_str()) {
                unique.push((key.as_str(), &entry.layer));
            }
        }

        // Hold the hits' slots now: under a bounded cache the entry could be
        // evicted (by this call's own inserts or a concurrent one) before
        // report assembly reads it back. A hit counts no miss — the
        // job's single-flight leader counts it only if an actual solve
        // happens (a concurrent call or another process may resolve the
        // digest first).
        let mut resolved: HashMap<&str, Arc<Slot>> = HashMap::new();
        let mut jobs: Vec<(&str, &Layer)> = Vec::new();
        {
            let mut cache = self.cache.lock().expect("cache lock");
            // Checked under the same hold as the peeks below: a memory-only
            // call either takes every hit or counts nothing.
            if !solve
                && !unique.iter().all(|(key, _)| {
                    cache.resident(key).is_some_and(|entry| {
                        self.answers_without_catch_up(entry, interlayer.enabled)
                    })
                })
            {
                return None;
            }
            for (key, layer) in &unique {
                match cache.hit(key) {
                    Some(hit) => {
                        resolved.insert(key, hit);
                    }
                    None => jobs.push((key, layer)),
                }
            }
        }

        // Fan the remaining jobs out across workers. Each goes through
        // the full single-flight path, so a digest being solved by a
        // concurrent call (or another process sharing the store) is
        // waited on, not re-solved; successes are published to the cache
        // and the persistent store inside `resolve_entry` (before the
        // per-digest solve lock releases, so cross-process waiters find
        // them).
        let outcomes = fanout::map(&jobs, self.threads, |(key, layer)| {
            self.resolve_entry(scheduler, key, layer, interlayer.enabled)
        });
        let mut led: std::collections::HashSet<&str> = std::collections::HashSet::new();
        let mut failed: HashMap<&str, ScheduleError> = HashMap::new();
        for ((key, _), (outcome, solved)) in jobs.iter().zip(outcomes) {
            if solved {
                led.insert(key);
            }
            match outcome {
                Ok(slot) => {
                    resolved.insert(key, slot);
                }
                Err(e) => {
                    failed.insert(key, e);
                }
            }
        }

        // Complete every entry that lacks what this answer needs: cache
        // hits saved without a NoC verdict or a DRAM profile, and a
        // follower's entry whose leader needed no profile.
        let incomplete: Vec<(&str, &Layer, Arc<Slot>)> = unique
            .iter()
            .filter_map(|&(key, layer)| {
                let slot = resolved.get(key)?;
                let complete = self.answers_without_catch_up(&slot.entry, interlayer.enabled);
                (!complete).then(|| (key, layer, Arc::clone(slot)))
            })
            .collect();
        let completed = fanout::map(&incomplete, self.threads, |(key, layer, slot)| {
            self.complete(key, Arc::clone(slot), layer, interlayer.enabled)
        });
        for ((key, _, _), slot) in incomplete.iter().zip(completed) {
            resolved.insert(key, slot);
        }

        // Assemble the report in network order. An entry is a cache hit
        // when it received a *schedule* without a fresh solve — a pre-warm
        // cache resolution or a successful sibling's result; duplicate
        // entries of a failed solve count as neither hit nor miss. A job
        // only counts as fresh when its worker actually *led* a solve —
        // one resolved lazily from the disk tier (the packed warm start
        // decodes on first use) or by waiting on another flight is a hit,
        // not a miss.
        let mut layers = Vec::with_capacity(network.layers.len());
        let mut total_latency = 0.0;
        let mut total_energy = 0.0;
        let mut total_noc = 0.0;
        let mut scheduled_layers = 0usize;
        let mut failed_layers = 0usize;
        let mut cache_hits = 0u64;
        let mut first_use: std::collections::HashSet<&str> = std::collections::HashSet::new();
        // Per-entry DRAM provenance for the residency pass.
        let mut pass_profiles: Vec<Option<[f64; 3]>> = Vec::new();
        for (key, entry) in keys.iter().zip(&network.layers) {
            let fresh = first_use.insert(key.as_str()) && led.contains(key.as_str());
            let (scheduled, noc, error) = match resolved.get(key.as_str()) {
                Some(slot) => {
                    let e = &slot.entry;
                    if interlayer.enabled {
                        pass_profiles.push(e.dram.map(|d| d.tensor_bytes()));
                    }
                    total_latency += entry.count as f64 * e.scheduled.latency_cycles;
                    total_energy += entry.count as f64 * e.scheduled.energy_pj;
                    if let Some(noc) = &e.noc {
                        total_noc += entry.count as f64 * noc.total_cycles;
                    }
                    scheduled_layers += 1;
                    if !fresh {
                        cache_hits += 1;
                    }
                    (Some(e.scheduled.clone()), e.noc, None)
                }
                None => {
                    if interlayer.enabled {
                        pass_profiles.push(None);
                    }
                    failed_layers += 1;
                    let error = &failed[key.as_str()];
                    (None, None, Some(error.to_string()))
                }
            };
            layers.push(LayerReport {
                name: entry.name.clone(),
                layer: entry.layer.name().to_string(),
                count: entry.count,
                scheduled,
                noc,
                error,
            });
        }

        // With residency enabled, run the inter-layer pass over the chosen
        // schedules and attach its verdict. The headline totals above stay
        // the per-layer baseline — the section carries the adjusted ones.
        let interlayer_report = interlayer.enabled.then(|| {
            let scheduled_refs: Vec<Option<&Scheduled>> =
                layers.iter().map(|l| l.scheduled.as_ref()).collect();
            InterlayerPass::new(
                &self.arch,
                network,
                scheduled_refs,
                pass_profiles,
                interlayer,
            )
            .run()
        });

        Some(NetworkRun {
            report: NetworkReport {
                network: network.name.clone(),
                arch: self.arch.name().to_string(),
                scheduler: scheduler.name().to_string(),
                layers,
                scheduled_layers,
                failed_layers,
                total_latency_cycles: total_latency,
                total_energy_pj: total_energy,
                total_macs: network.total_macs(),
                total_noc_cycles: self.simulate_noc.then_some(total_noc),
                cache: self.cache_stats(),
                interlayer: interlayer_report,
            },
            cache_hits,
            cache_misses: led.len() as u64,
            noc_sims: self.noc_sims.load(Ordering::Relaxed) - noc_sims_before,
            elapsed: start.elapsed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosa_mappers::{RandomMapper, SearchLimits};

    fn tiny_network() -> Network {
        let a = Layer::conv("tiny_a", 3, 3, 8, 8, 16, 16, 1, 1, 1);
        let b = Layer::conv("tiny_b", 1, 1, 8, 8, 32, 16, 1, 1, 1);
        Network::new("tiny")
            .with_layer("l0", a.clone(), 1)
            .with_layer("l1", b, 2)
            .with_layer("l2", a, 3)
    }

    fn quick_random() -> RandomMapper {
        RandomMapper::new(11).with_limits(SearchLimits::quick())
    }

    #[test]
    fn dedups_repeated_shapes() {
        let engine = Engine::new(Arch::simba_baseline()).with_threads(2);
        let run = engine.schedule_network(&tiny_network(), &quick_random());
        assert!(run.report.is_complete());
        // Two unique shapes, three entries: one in-run dedup hit.
        assert_eq!(run.cache_misses, 2);
        assert_eq!(run.cache_hits, 1);
        assert_eq!(engine.cache_stats().entries, 2);
        assert!(engine.cache_stats().bytes > 0, "byte accounting is live");
        // NoC evaluation is off by default.
        assert_eq!(run.noc_sims, 0);
        assert_eq!(run.report.total_noc_cycles, None);
    }

    #[test]
    fn totals_weight_by_count() {
        let engine = Engine::new(Arch::simba_baseline()).with_threads(1);
        let run = engine.schedule_network(&tiny_network(), &quick_random());
        let by_hand: f64 = run
            .report
            .layers
            .iter()
            .map(|l| l.count as f64 * l.scheduled.as_ref().unwrap().latency_cycles)
            .sum();
        assert!((run.report.total_latency_cycles - by_hand).abs() < 1e-9);
        assert!(run.report.total_latency_cycles > 0.0);
    }

    #[test]
    fn bounded_cache_evicts_least_recently_used() {
        let engine = Engine::new(Arch::simba_baseline()).with_threads(1);
        let run = engine.schedule_network(&tiny_network(), &quick_random());
        let mut entries: Vec<CacheEntry> = run
            .report
            .layers
            .iter()
            .filter_map(|l| l.scheduled.clone())
            .map(CacheEntry::new)
            .collect();
        // Room for the two newest entries.
        let mut cache = ScheduleCache::bounded_bytes(
            entry_bytes("k1", &entries[1]) + entry_bytes("k2", &entries[2]),
        );
        for (i, e) in entries.drain(..).enumerate() {
            cache.insert(format!("k{i}"), e);
        }
        assert_eq!(cache.len(), 2);
        assert!(cache.peek("k0").is_none(), "oldest untouched entry evicted");
        assert!(cache.peek("k2").is_some());
    }

    #[test]
    fn bounded_cache_eviction_does_not_panic_network_assembly() {
        // Regression: a warm entry resolved as a hit used to be re-read from
        // the cache at assembly time, after this call's own inserts could
        // have evicted it from a bounded cache.
        let engine = Engine::new(Arch::simba_baseline())
            .with_cache_bytes(1)
            .with_threads(2);
        let mapper = quick_random();
        let a = Layer::conv("tiny_a", 3, 3, 8, 8, 16, 16, 1, 1, 1);
        let b = Layer::conv("tiny_b", 1, 1, 8, 8, 32, 16, 1, 1, 1);
        let c = Layer::conv("tiny_c", 1, 1, 4, 4, 16, 16, 1, 1, 1);
        engine.schedule_layer(&mapper, &a).expect("valid");
        let net = Network::new("evict")
            .with_layer("l0", a, 1)
            .with_layer("l1", b, 1)
            .with_layer("l2", c, 1);
        let run = engine.schedule_network(&net, &mapper);
        assert!(run.report.is_complete());
        assert_eq!(run.cache_hits, 1, "warm entry resolves from the cache");
        assert_eq!(engine.cache_stats().entries, 1, "capacity still enforced");
        assert!(engine.cache_stats().evictions >= 2, "evictions counted");
    }

    #[test]
    fn schedule_layer_uses_cache() {
        let engine = Engine::new(Arch::simba_baseline());
        let layer = Layer::conv("t", 3, 3, 8, 8, 16, 16, 1, 1, 1);
        let mapper = quick_random();
        let first = engine.schedule_layer(&mapper, &layer).expect("valid");
        let second = engine.schedule_layer(&mapper, &layer).expect("valid");
        assert_eq!(first, second);
        let stats = engine.cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn engine_noc_evaluates_once_per_unique_shape() {
        let engine = Engine::new(Arch::simba_baseline())
            .with_noc()
            .with_threads(2);
        let run = engine.schedule_network(&tiny_network(), &quick_random());
        assert!(run.report.is_complete());
        // Three entries, two unique shapes: exactly two simulations.
        assert_eq!(run.noc_sims, 2);
        for l in &run.report.layers {
            let noc = l.noc.as_ref().expect("verdict for every entry");
            assert!(noc.total_cycles > 0.0);
        }
        let total = run.report.total_noc_cycles.expect("noc enabled");
        let by_hand: f64 = run
            .report
            .layers
            .iter()
            .map(|l| l.count as f64 * l.noc.as_ref().unwrap().total_cycles)
            .sum();
        assert!((total - by_hand).abs() < 1e-9);

        // Warm re-run: verdicts served from cache, zero re-simulations.
        let warm = engine.schedule_network(&tiny_network(), &quick_random());
        assert_eq!(warm.noc_sims, 0);
        assert_eq!(warm.cache_misses, 0);
        assert_eq!(warm.report.without_timings(), run.report.without_timings());
    }

    #[test]
    fn byte_bounded_cache_respects_budget_and_recency() {
        let engine = Engine::new(Arch::simba_baseline()).with_threads(1);
        let run = engine.schedule_network(&tiny_network(), &quick_random());
        let entries: Vec<CacheEntry> = run
            .report
            .layers
            .iter()
            .filter_map(|l| l.scheduled.clone())
            .map(CacheEntry::new)
            .collect();
        let one = entry_bytes("k0", &entries[0]);
        // Budget for roughly two entries.
        let mut cache = ScheduleCache::bounded_bytes(one * 2 + one / 2);
        cache.insert("k0".into(), entries[0].clone());
        cache.insert("k1".into(), entries[1].clone());
        // Touch k0 so k1 becomes the LRU victim.
        assert!(cache.peek("k0").is_some());
        cache.insert("k2".into(), entries[2].clone());
        assert!(cache.peek("k1").is_none(), "LRU entry evicted");
        assert!(cache.peek("k0").is_some(), "recently touched entry kept");
        assert!(cache.peek("k2").is_some());
        assert!(cache.bytes() <= one * 2 + one / 2);
    }

    /// `schedule_resident` answers exactly what the solving calls answer
    /// once everything is resident, and before that declines with every
    /// counter untouched — also when only the NoC verdict is missing.
    #[test]
    fn resident_answers_match_solving_calls_and_count_once() {
        let mapper = quick_random();
        let net = tiny_network();
        let off = InterlayerOptions::disabled();
        let layer = &net.layers[1].layer;
        let engine = Engine::new(Arch::simba_baseline()).with_threads(1);
        assert!(engine
            .schedule_resident(&mapper, Work::Network(&net, &off))
            .is_none());
        assert!(engine
            .schedule_resident(&mapper, Work::Layer(layer))
            .is_none());
        engine.schedule_layer(&mapper, layer).expect("valid");
        let stats = engine.cache_stats();
        assert!(
            engine
                .schedule_resident(&mapper, Work::Network(&net, &off))
                .is_none(),
            "one shape is still cold"
        );
        assert_eq!(
            engine.cache_stats(),
            stats,
            "a declined call counts nothing"
        );

        let solved = engine.schedule_network_with(&net, &mapper, &off);
        let after_solve = engine.cache_stats();
        let Some(Resident::Network(resident)) =
            engine.schedule_resident(&mapper, Work::Network(&net, &off))
        else {
            panic!("every shape is resident");
        };
        assert_eq!(resident.cache_misses, 0);
        assert_eq!(resident.cache_hits, solved.cache_hits + solved.cache_misses);
        assert_eq!(
            resident.report.without_timings(),
            engine
                .schedule_network_with(&net, &mapper, &off)
                .report
                .without_timings()
        );
        let hits = engine.cache_stats().hits - after_solve.hits;
        assert_eq!(hits, 4, "two unique shapes, two calls, one hit each");
        let Some(Resident::Layer(scheduled)) =
            engine.schedule_resident(&mapper, Work::Layer(layer))
        else {
            panic!("the layer is resident");
        };
        assert_eq!(scheduled, engine.schedule_layer(&mapper, layer).unwrap());

        // With NoC evaluation on, entries without a verdict need a
        // catch-up: declined, nothing counted, nothing simulated.
        let noc = Engine::new(Arch::simba_baseline()).with_noc();
        let bare = CacheEntry::new(Scheduler::schedule(&mapper, noc.arch(), layer).unwrap());
        let key = noc.cache_key(&mapper, layer);
        noc.cache.lock().unwrap().insert(key, bare);
        let stats = noc.cache_stats();
        assert!(noc.schedule_resident(&mapper, Work::Layer(layer)).is_none());
        assert_eq!(noc.cache_stats(), stats);
        noc.schedule_layer(&mapper, layer).expect("caught up");
        assert!(noc.schedule_resident(&mapper, Work::Layer(layer)).is_some());
    }

    /// A cache key built the way keys were built before the prefix was
    /// hashed once per call: join every part, then digest the whole string.
    fn joined_key(parts: &[&str]) -> String {
        canon::digest128_hex(parts.join(&canon::CANON_SEP.to_string()).as_bytes())
    }

    /// Every layer of every suite, under every registry scheduler whose
    /// keys the daemon derives and with the inter-layer pass off and on:
    /// `cache_key_with` is the joined-parts digest, and the keys
    /// `schedule_network_with` derives inside one call (from one prefix)
    /// are exactly the per-layer keys — shown by a call that finds every
    /// entry cached under the per-layer key and solves nothing.
    #[test]
    fn network_keys_match_per_layer_keys() {
        use cosa_spec::Suite;

        let arch = Arch::simba_baseline();
        let engine = Engine::new(arch.clone()).with_threads(1);
        let networks: Vec<Network> = Suite::ALL.into_iter().map(Network::from_suite).collect();
        let mut schedules: HashMap<Layer, Scheduled> = HashMap::new();
        for entry in networks.iter().flat_map(|n| &n.layers) {
            schedules.entry(entry.layer.clone()).or_insert_with(|| {
                Scheduler::schedule(&quick_random(), &arch, &entry.layer).expect("random schedules")
            });
        }
        for name in ["cosa", "sat", "portfolio", "random"] {
            let scheduler = crate::serve::scheduler_from_name(name, &arch).expect("registry");
            let fingerprint = scheduler.fingerprint();
            for interlayer in [InterlayerOptions::disabled(), InterlayerOptions::enabled()] {
                for network in &networks {
                    for entry in &network.layers {
                        let layer_json = serde_json::to_string(&entry.layer).unwrap();
                        let options = interlayer.fingerprint();
                        let mut parts = vec![fingerprint.as_str(), &engine.arch_json, &layer_json];
                        if interlayer.enabled {
                            parts.push(&options);
                        }
                        let key =
                            engine.cache_key_with(scheduler.as_ref(), &entry.layer, &interlayer);
                        assert_eq!(key, joined_key(&parts), "{name} {}", entry.layer.name());
                        let cached = CacheEntry::new(schedules[&entry.layer].clone());
                        engine.cache.lock().unwrap().insert(key, cached);
                    }
                    let run =
                        engine.schedule_network_with(network, scheduler.as_ref(), &interlayer);
                    assert_eq!(run.cache_misses, 0, "{name} {}: a key moved", network.name);
                    assert_eq!(run.cache_hits, network.layers.len() as u64);
                }
            }
        }
        assert_eq!(engine.cache_stats().misses, 0);
    }

    /// [`quick_random`] with the solve time zeroed, so two engines that
    /// solve the same shapes hold byte-identical entries.
    struct Untimed(RandomMapper);

    impl Scheduler for Untimed {
        fn name(&self) -> &str {
            self.0.name()
        }

        fn schedule(&self, arch: &Arch, layer: &Layer) -> Result<Scheduled, ScheduleError> {
            Scheduler::schedule(&self.0, arch, layer).map(|scheduled| Scheduled {
                elapsed: Duration::ZERO,
                ..scheduled
            })
        }

        fn fingerprint(&self) -> String {
            self.0.fingerprint()
        }
    }

    /// The LRU accounts an entry at [`entry_bytes`] whichever path brought
    /// it in: fresh solves on a memory-only engine and on one writing
    /// through to a store, read-throughs of those records, and
    /// read-throughs that complete a missing NoC verdict all leave the
    /// same resident bytes, every slot at its entry's size.
    #[test]
    fn accounted_bytes_agree_on_every_path() {
        let root = std::env::temp_dir().join(format!("cosa-accounting-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let (solved_dir, bare_dir) = (root.join("solved"), root.join("no-noc"));
        let net = tiny_network();
        let mapper = Untimed(quick_random());
        let engine = || {
            Engine::new(Arch::simba_baseline())
                .with_threads(1)
                .with_noc()
                .with_interlayer(InterlayerOptions::enabled())
        };
        let slots = |engine: &Engine| -> Vec<(String, CacheEntry)> {
            let cache = engine.cache.lock().unwrap();
            for (key, slot) in &cache.entries {
                assert_eq!(slot.bytes, entry_bytes(key, &slot.entry), "{key}");
            }
            let mut slots: Vec<_> = cache
                .entries
                .iter()
                .map(|(key, slot)| (key.clone(), slot.entry.clone()))
                .collect();
            slots.sort_by(|a, b| a.0.cmp(&b.0));
            slots
        };

        let memory = engine();
        memory.schedule_network(&net, &mapper);
        let cold = engine().with_cache_dir(&solved_dir).unwrap();
        cold.schedule_network(&net, &mapper);
        let warm = engine().with_cache_dir(&solved_dir).unwrap();
        assert_eq!(warm.schedule_network(&net, &mapper).cache_misses, 0);

        let store = CacheStore::open(&bare_dir).unwrap();
        for (key, entry) in slots(&memory) {
            store
                .save(&key, &CacheEntry { noc: None, ..entry })
                .unwrap();
        }
        let completing = engine().with_cache_dir(&bare_dir).unwrap();
        let run = completing.schedule_network(&net, &mapper);
        assert_eq!(
            (run.cache_misses, run.noc_sims),
            (0, 2),
            "read through, then completed"
        );

        let want = slots(&memory);
        let bytes = memory.cache_stats().bytes;
        assert!(bytes > 0);
        for engine in [&cold, &warm, &completing] {
            assert_eq!(slots(engine), want);
            assert_eq!(engine.cache_stats().bytes, bytes);
            assert_eq!(engine.cache_stats().store_errors, 0);
        }
        std::fs::remove_dir_all(&root).unwrap();
    }
}
