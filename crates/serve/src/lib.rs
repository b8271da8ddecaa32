//! # cosa-serve
//!
//! A long-lived scheduling daemon over the batch
//! [`Engine`](cosa_repro::engine::Engine): the serving front-end the
//! ROADMAP names. One process owns a (shared, persistent) schedule-cache
//! directory, answers `POST /v1/schedule` requests with canonical
//! [`Scheduled`](cosa_repro::api::Scheduled) /
//! [`NetworkReport`](cosa_repro::engine::NetworkReport) JSON, and keeps
//! the disk tier bounded with a [`GcPolicy`] sweep at startup and every N
//! requests.
//!
//! The wire protocol lives in [`cosa_repro::serve`]; the HTTP/1.1 subset
//! (hand-rolled over [`std::net`], no vendored deps) in [`http`]; the
//! epoll readiness layer in [`poll`]; the event-loop front in [`front`].
//!
//! # Architecture
//!
//! ```text
//!        event-loop thread (epoll)                    worker pool (N threads)
//!  accept ─► nonblocking parse ─► answer_now ─None─► bounded queue ─pop─► route
//!                                     │ Some           │ full?              │
//!                                     ▼                ▼                    ▼
//!                   answered on the loop:        429 from the loop   Engine: solve,
//!                   memory-tier hits, 4xx,                           engine build,
//!                   stats, healthz, shutdown                         GC, persist
//! ```
//!
//! * **Readiness-driven front** — one epoll event loop owns every
//!   connection; a worker is involved only once a *complete* request has
//!   been parsed, so connection count decouples from worker count and a
//!   byte-trickling client cannot pin a worker (see [`front`]).
//! * **Answers without a hand-off** — the loop answers a complete request
//!   itself when no solver is needed: a schedule request for a resident
//!   engine whose every shape is in the memory tier with the NoC and DRAM
//!   data it needs, every `4xx`, `/v1/stats`, `/v1/healthz` and
//!   `/v1/shutdown`. A miss, an engine that is not resident, a due GC
//!   sweep or a NoC/DRAM catch-up goes to a worker, and the failed memory
//!   attempt counts no hit or miss. The loop never solves, builds an
//!   engine, writes to disk or waits on the store's segment mutex or a
//!   lock file, so warm answers are never stuck behind a solve.
//! * **Bounded queue** — requests that need a worker wait in a FIFO of at
//!   most `queue_capacity`; beyond that the event loop answers `429`
//!   without touching a worker, so overload degrades crisply instead of
//!   piling up latency. Only those requests shed: warm hits, stats and
//!   health checks answer on the loop even when the queue is full.
//! * **Warm restarts** — the engine loads the cache dir before the
//!   listener binds, so `/v1/healthz` answering at all means warm-start is
//!   done; a restarted daemon serves its whole request set with zero
//!   solver calls and zero NoC simulations.
//! * **Graceful shutdown** — `POST /v1/shutdown` (or
//!   [`ServerHandle::shutdown`]) stops dispatching, answers new arrivals
//!   `503`, flushes every in-flight response, then joins all threads.
//! * **Versioned wire API** — every route lives under `/v1/`; anything
//!   else is a 404.
//! * **More than one daemon** — N daemons on one `cache_dir` behind any
//!   HTTP load balancer solve each digest once between them: the store's
//!   per-digest solve locks dedup across processes.
//!
//! # Example
//!
//! ```no_run
//! use cosa_serve::{http, ServeConfig, Server};
//! use cosa_repro::serve::ScheduleRequest;
//! use cosa_spec::Suite;
//!
//! let config = ServeConfig::builder().workers(2).build();
//! let handle = Server::start(config).expect("bind");
//! let req = ScheduleRequest::for_suite(Suite::AlexNet);
//! let body = serde_json::to_string(&req).unwrap();
//! let resp = http::request(handle.addr(), "POST", "/v1/schedule", &body).unwrap();
//! assert!(resp.is_ok());
//! handle.shutdown().expect("clean shutdown");
//! ```

#![warn(missing_docs)]

pub mod cli;
pub mod front;
pub mod http;
pub mod poll;

use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use cosa_repro::engine::{CacheStats, Engine, GcPolicy, InterlayerOptions, Resident, Work};
use cosa_repro::serve::{
    scheduler_from_name, CommonArgs, HealthResponse, ScheduleRequest, ScheduleResponse,
    StatsResponse,
};
use cosa_spec::{canon, Arch, Network, Suite};

use front::{FrontConfig, FrontView, Handler, Routed};
use http::Request;

/// Daemon configuration. Construct through [`ServeConfig::builder`];
/// `Default` is a loopback ephemeral-port daemon with no persistence and
/// GC off.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads handling requests.
    pub workers: usize,
    /// Bound on queued (complete, undispatched) requests that need a
    /// worker; beyond it the event loop answers them `429`.
    pub queue_capacity: usize,
    /// Bound on simultaneously open connections; beyond it new accepts
    /// are dropped outright. Idle and mid-parse connections are cheap
    /// (one fd + a parse buffer), so this sits far above `workers`.
    pub max_connections: usize,
    /// Shared persistent schedule-cache directory, when set.
    pub cache_dir: Option<PathBuf>,
    /// Enable engine-level NoC evaluation.
    pub noc: bool,
    /// Disk-tier GC policy (no-op when unbounded or memory-only).
    pub gc: GcPolicy,
    /// Run GC every this many served schedule requests (0 = startup only).
    pub gc_every: u64,
    /// Default architecture for requests that don't carry one.
    pub default_arch: Arch,
    /// Default inter-layer residency options for network/suite requests
    /// that don't carry an `options.interlayer` object (disabled unless
    /// the daemon was started with `--interlayer`).
    pub interlayer: InterlayerOptions,
    /// Log one line per request to stdout (the daemon's CI artifact).
    pub log_requests: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            queue_capacity: 64,
            max_connections: 1024,
            cache_dir: None,
            noc: false,
            gc: GcPolicy::default(),
            gc_every: 64,
            default_arch: Arch::simba_baseline(),
            interlayer: InterlayerOptions::disabled(),
            log_requests: false,
        }
    }
}

impl ServeConfig {
    /// Start building a config from the defaults.
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder {
            config: ServeConfig::default(),
        }
    }
}

/// Builder for [`ServeConfig`] — the one way the daemon, probes and tests
/// assemble a config, so a new field lands everywhere at once
/// instead of in N struct literals.
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    config: ServeConfig,
}

impl ServeConfigBuilder {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    #[must_use]
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.config.addr = addr.into();
        self
    }

    /// Worker threads handling requests.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Bound on queued complete requests before `429` shedding.
    #[must_use]
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.config.queue_capacity = capacity;
        self
    }

    /// Bound on simultaneously open connections.
    #[must_use]
    pub fn max_connections(mut self, max: usize) -> Self {
        self.config.max_connections = max;
        self
    }

    /// Persistent schedule-cache directory.
    #[must_use]
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.config.cache_dir = Some(dir.into());
        self
    }

    /// Optional cache directory (CLI mapping convenience).
    #[must_use]
    pub fn maybe_cache_dir(mut self, dir: Option<PathBuf>) -> Self {
        self.config.cache_dir = dir;
        self
    }

    /// Enable engine-level NoC evaluation.
    #[must_use]
    pub fn noc(mut self, noc: bool) -> Self {
        self.config.noc = noc;
        self
    }

    /// Disk-tier GC policy.
    #[must_use]
    pub fn gc(mut self, gc: GcPolicy) -> Self {
        self.config.gc = gc;
        self
    }

    /// Run GC every this many served schedule requests (0 = startup only).
    #[must_use]
    pub fn gc_every(mut self, every: u64) -> Self {
        self.config.gc_every = every;
        self
    }

    /// Default architecture for requests that don't carry one.
    #[must_use]
    pub fn default_arch(mut self, arch: Arch) -> Self {
        self.config.default_arch = arch;
        self
    }

    /// Default inter-layer residency options for requests that don't
    /// carry an `options.interlayer` object.
    #[must_use]
    pub fn interlayer(mut self, options: InterlayerOptions) -> Self {
        self.config.interlayer = options;
        self
    }

    /// Log one line per request to stdout.
    #[must_use]
    pub fn log_requests(mut self, log: bool) -> Self {
        self.config.log_requests = log;
        self
    }

    /// Apply the shared `--scheduler`/`--cache-dir`/`--noc`/
    /// `--interlayer*` flag set parsed by [`CommonArgs`] (the per-request
    /// scheduler choice does not live in the daemon config and is ignored
    /// here).
    #[must_use]
    pub fn common(mut self, common: &CommonArgs) -> Self {
        if common.cache_dir.is_some() {
            self.config.cache_dir = common.cache_dir.clone();
        }
        if common.noc {
            self.config.noc = true;
        }
        self.config.interlayer = common.interlayer;
        self
    }

    /// Finish: the assembled [`ServeConfig`].
    #[must_use]
    pub fn build(self) -> ServeConfig {
        self.config
    }
}

/// GC counters the engine handler exposes through `/v1/stats`.
#[derive(Debug, Default)]
struct GcCounters {
    gc_runs: AtomicU64,
    gc_removed: AtomicU64,
    /// Schedule requests since the last GC sweep (drives `gc_every`).
    since_gc: AtomicU64,
}

/// The engine-backed request handler: everything above the transport.
/// Owns the architecture-keyed engine map, the GC cadence and the
/// `/v1/*` routing table; the [`front`] owns sockets, the queue and the
/// latency/served/rejected counters. Its [`Handler::answer_now`] answers
/// on the event loop whatever needs no solver (see the crate docs'
/// Architecture section).
struct EngineHandler {
    config: ServeConfig,
    /// Engines keyed by the canonical digest of their architecture; the
    /// default architecture's engine is created at startup (its warm load
    /// gates readiness), others lazily per request. All share one cache
    /// directory, deduplicating through the content-addressed store.
    engines: Mutex<HashMap<String, Arc<Engine>>>,
    default_engine: Arc<Engine>,
    /// Every suite's network in [`Suite::ALL`] order, built once: a suite
    /// request borrows its network from here.
    suites: [Network; Suite::ALL.len()],
    /// Cache counters folded in from non-retained (over-cap) engines, so
    /// `/v1/stats` never loses solver activity — a `--expect-warm` style
    /// zero-solve check must see every miss, resident engine or not.
    overflow_stats: Mutex<CacheStats>,
    gc: GcCounters,
}

impl EngineHandler {
    /// Bound on architecture-keyed engines kept resident. Each engine
    /// carries its own in-memory cache front (warm-loaded from the shared
    /// dir), so an attacker mutating one arch field per request must not
    /// be able to grow the daemon without bound.
    const MAX_RESIDENT_ENGINES: usize = 8;

    /// The engine for a request's architecture (the default engine when
    /// the request carries none or repeats the default), plus whether it
    /// is retained in the resident map. Callers must fold a non-retained
    /// engine's counters into [`EngineHandler::overflow_stats`] when done
    /// with it.
    fn engine_for(&self, arch: Option<&Arch>) -> io::Result<(Arc<Engine>, bool)> {
        if let Some(engine) = self.resident_engine(arch) {
            return Ok((engine, true));
        }
        let arch = arch.expect("the default engine is always resident");
        let key = arch_digest(arch);
        // Built outside the lock: a warm load can take a while and must
        // not stall requests for other architectures.
        let engine = build_engine(&self.config, arch.clone(), SECONDARY_ENGINE_CACHE_BYTES)?;
        let mut engines = self.engines.lock().expect("engines lock");
        // A racing request for the same arch may have inserted first;
        // keep the incumbent (replacing it would discard its cache
        // counters and make /v1/stats deltas go backwards).
        if let Some(existing) = engines.get(&key) {
            return Ok((existing.clone(), true));
        }
        // At the cap the engine serves this request but is not retained
        // (it still reads/writes the shared store, so repeated shapes
        // stay deduplicated across requests — just without a resident
        // memory front for the overflow architecture; each such request
        // re-pays the warm load, a deliberate memory-over-latency trade
        // for the >8-architectures corner).
        if engines.len() < Self::MAX_RESIDENT_ENGINES {
            engines.insert(key, engine.clone());
            return Ok((engine, true));
        }
        Ok((engine, false))
    }

    /// The resident engine for a request's architecture (the default
    /// engine when it carries none or repeats the default), without
    /// building one: the event loop's [`EngineHandler::engine_for`].
    fn resident_engine(&self, arch: Option<&Arch>) -> Option<Arc<Engine>> {
        match arch {
            None => Some(self.default_engine.clone()),
            Some(arch) if arch == self.default_engine.arch() => Some(self.default_engine.clone()),
            Some(arch) => self
                .engines
                .lock()
                .expect("engines lock")
                .get(&arch_digest(arch))
                .cloned(),
        }
    }

    /// Sum cache counters over every resident engine plus everything
    /// folded in from non-retained ones.
    fn summed_cache_stats(&self) -> CacheStats {
        let mut total = self.overflow_stats.lock().expect("overflow lock").clone();
        let engines = self.engines.lock().expect("engines lock");
        for engine in engines.values() {
            add_cache_stats(&mut total, engine.cache_stats());
        }
        total
    }

    /// Fold a non-retained engine's final counters into the running
    /// overflow total (its resident-set numbers die with it, so only the
    /// monotonic activity counters are kept).
    fn fold_overflow_stats(&self, engine: &Engine) {
        let mut stats = engine.cache_stats();
        // The engine is being dropped: its resident entries/bytes are no
        // longer part of the daemon's footprint. The disk-tier shape it
        // observed belongs to the shared directory, which the retained
        // engines keep reporting — only the monotonic compaction count
        // survives the fold.
        stats.entries = 0;
        stats.bytes = 0;
        stats.warm_entries = 0;
        stats.disk_index_entries = 0;
        stats.segment_bytes = 0;
        stats.segment_live_bytes = 0;
        stats.segment_dead_bytes = 0;
        add_cache_stats(
            &mut self.overflow_stats.lock().expect("overflow lock"),
            stats,
        );
    }

    /// Run one GC sweep over the shared cache directory (no-op without a
    /// store or with an unbounded policy).
    fn run_gc(&self, trigger: &str) {
        if self.config.gc.is_unbounded() {
            return;
        }
        if let Some(result) = self.default_engine.gc_store(&self.config.gc) {
            match result {
                Ok(report) => {
                    self.gc.gc_runs.fetch_add(1, Ordering::Relaxed);
                    self.gc
                        .gc_removed
                        .fetch_add(report.removed as u64, Ordering::Relaxed);
                    if self.config.log_requests {
                        println!(
                            "[serve] gc ({trigger}): removed {} of {} entries, {} bytes kept",
                            report.removed, report.examined, report.retained_bytes
                        );
                    }
                }
                Err(e) => eprintln!("[serve] gc ({trigger}) failed: {e}"),
            }
        }
    }

    /// `true` when the next served schedule request is the one that runs
    /// the every-N GC sweep (never with an unbounded policy, whose sweep
    /// does nothing).
    fn gc_due(&self) -> bool {
        self.config.gc_every != 0
            && !self.config.gc.is_unbounded()
            && self.gc.since_gc.load(Ordering::Relaxed) + 1 >= self.config.gc_every
    }

    /// Count a served schedule request and trigger the every-N GC sweep —
    /// on a worker. The event loop (`may_sweep == false`) never sweeps: it
    /// counts up to one short of the sweep, and [`EngineHandler::gc_due`]
    /// then sends the next schedule request to a worker, which runs it.
    fn after_schedule_request(&self, may_sweep: bool) {
        if self.config.gc_every == 0 {
            return;
        }
        if !may_sweep {
            let last = self.config.gc_every - 1;
            let _ = self
                .gc
                .since_gc
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |since| {
                    Some((since + 1).min(last))
                });
            return;
        }
        let since = self.gc.since_gc.fetch_add(1, Ordering::Relaxed) + 1;
        if since >= self.config.gc_every {
            self.gc.since_gc.store(0, Ordering::Relaxed);
            self.run_gc("periodic");
        }
    }

    /// Answer one schedule request. With `solve` (a worker) every request
    /// is answered. Without it (the event loop) only what needs no solver
    /// is: the 4xx answers and a resident engine's memory-tier hits; any
    /// miss, an engine that is not resident, a due GC sweep or a NoC/DRAM
    /// catch-up returns `None`, having counted nothing, for a worker to
    /// answer.
    fn handle_schedule(&self, body: &str, solve: bool) -> Option<(u16, String)> {
        let bad = |message: String| Some((400, error_body(&message)));
        let request: ScheduleRequest = match serde_json::from_str(body) {
            Ok(r) => r,
            Err(e) => return bad(format!("malformed request JSON: {e}")),
        };
        if let Err(msg) = request.work_item() {
            return bad(msg);
        }
        // Derived deserialization accepts structurally valid but
        // semantically broken architectures (no levels, NoC level out of
        // range, ...); validate before any solver code can trip over one.
        if let Some(arch) = request.arch() {
            if let Err(e) = arch.validate() {
                return bad(format!("invalid architecture: {e}"));
            }
        }
        // Resolve the work item before touching an engine: a bad suite
        // name must not cost a lazy engine build.
        let network = match (&request.network, &request.suite) {
            (Some(network), _) => Some(network),
            (None, Some(name)) => match name.parse::<Suite>() {
                Ok(suite) => Some(self.suite_network(suite)),
                Err(e) => return bad(e.to_string()),
            },
            (None, None) => None, // work_item() guarantees `layer` is set.
        };

        let (engine, retained) = if solve {
            match self.engine_for(request.arch()) {
                Ok(engine) => engine,
                Err(e) => return Some((500, error_body(&format!("engine unavailable: {e}")))),
            }
        } else {
            (self.resident_engine(request.arch())?, true)
        };
        let scheduler = match scheduler_from_name(request.scheduler_name(), engine.arch()) {
            Ok(s) => s,
            Err(msg) => return bad(msg),
        };
        let interlayer = request.interlayer_or(&self.config.interlayer);
        let work = match (&request.layer, network) {
            (Some(layer), _) => Work::Layer(layer),
            (None, Some(network)) => Work::Network(network, &interlayer),
            (None, None) => unreachable!("work_item() guarantees one item"),
        };

        let outcome = if solve {
            match work {
                Work::Layer(layer) => engine
                    .schedule_layer(scheduler.as_ref(), layer)
                    .map(ScheduleResponse::from_scheduled)
                    .map_err(|e| e.to_string()),
                Work::Network(network, interlayer) => {
                    let run = engine.schedule_network_with(network, scheduler.as_ref(), interlayer);
                    Ok(ScheduleResponse::from_report(run.report))
                }
            }
        } else {
            if self.gc_due() {
                return None;
            }
            Ok(match engine.schedule_resident(scheduler.as_ref(), work)? {
                Resident::Layer(scheduled) => ScheduleResponse::from_scheduled(scheduled),
                Resident::Network(run) => ScheduleResponse::from_report(run.report),
            })
        };
        // A non-retained engine is dropped here; bank its counters so
        // /v1/stats still accounts for the solver work it did.
        if !retained {
            self.fold_overflow_stats(&engine);
        }
        Some(match outcome {
            Ok(response) => {
                self.after_schedule_request(solve);
                (
                    200,
                    serde_json::to_string(&response).expect("response serializes"),
                )
            }
            Err(message) => (422, error_body(&message)),
        })
    }

    /// The network of `suite`, from the table built at startup.
    fn suite_network(&self, suite: Suite) -> &Network {
        let index = Suite::ALL
            .iter()
            .position(|&s| s == suite)
            .expect("Suite::ALL lists every suite");
        &self.suites[index]
    }

    fn handle_stats(&self, front: &FrontView<'_>) -> String {
        let engines = self.engines.lock().expect("engines lock").len();
        let cache = self.summed_cache_stats();
        let (p50_micros, p99_micros, max_micros) = front.latency_micros();
        let stats = StatsResponse {
            served: front.served(),
            errors: front.errors(),
            rejected: front.rejected(),
            queue_depth: front.queue_depth(),
            queue_capacity: front.queue_capacity(),
            workers: front.workers(),
            engines,
            p50_micros,
            p99_micros,
            max_micros,
            gc_runs: self.gc.gc_runs.load(Ordering::Relaxed),
            gc_removed: self.gc.gc_removed.load(Ordering::Relaxed),
            cache,
        };
        serde_json::to_string(&stats).expect("stats serialize")
    }

    fn handle_healthz(&self) -> String {
        let health = HealthResponse {
            status: "ok".to_string(),
            warm_entries: self.default_engine.cache_stats().warm_entries,
            cache_dir: self
                .config
                .cache_dir
                .as_ref()
                .map(|d| d.display().to_string()),
            noc: self.config.noc,
        };
        serde_json::to_string(&health).expect("health serializes")
    }
}

impl EngineHandler {
    /// The `/v1/*` routing table, shared by both halves of [`Handler`]:
    /// `solve` answers everything (a worker); without it only what
    /// [`EngineHandler::handle_schedule`] can answer from memory, plus
    /// every other route, which never needs a solver.
    fn route(&self, request: &Request, front: &FrontView<'_>, solve: bool) -> Option<Routed> {
        Some(match (request.method.as_str(), request.path.as_str()) {
            ("POST", "/v1/schedule") => {
                let (status, body) = self.handle_schedule(&request.body, solve)?;
                Routed::new(status, body)
            }
            ("GET", "/v1/stats") => Routed::new(200, self.handle_stats(front)),
            ("GET", "/v1/healthz") => Routed::new(200, self.handle_healthz()),
            ("POST", "/v1/shutdown") => Routed {
                status: 200,
                body: error_body("shutting down: draining in-flight requests"),
                shutdown: true,
            },
            ("POST" | "GET", path) => Routed::new(404, error_body(&format!("no route {path}"))),
            (method, _) => Routed::new(405, error_body(&format!("method {method} not allowed"))),
        })
    }
}

impl Handler for EngineHandler {
    fn handle(&self, request: &Request, front: FrontView<'_>) -> Routed {
        self.route(request, &front, true)
            .expect("a worker answers every request")
    }

    /// Everything but a schedule request that needs a solver, an engine
    /// build, a GC sweep or a NoC/DRAM catch-up: those go to a worker.
    fn answer_now(&self, request: &Request, front: FrontView<'_>) -> Option<Routed> {
        self.route(request, &front, false)
    }
}

fn arch_digest(arch: &Arch) -> String {
    let json = serde_json::to_string(arch).expect("arch serializes");
    canon::digest128_hex(json.as_bytes())
}

/// Byte bound on each *secondary* (non-default-arch) engine's in-memory
/// cache front. Every engine warm-loads the whole shared directory (keys
/// are opaque digests, so entries cannot be filtered by architecture up
/// front); bounding the secondaries keeps worst-case residency at
/// `MAX_RESIDENT_ENGINES × 64 MiB` instead of N copies of the directory.
const SECONDARY_ENGINE_CACHE_BYTES: u64 = 64 * 1024 * 1024;

/// Build an engine for `arch`; `cache_bytes` > 0 bounds its in-memory
/// front (0 = unbounded, for the default engine).
fn build_engine(config: &ServeConfig, arch: Arch, cache_bytes: u64) -> io::Result<Arc<Engine>> {
    let mut engine = Engine::new(arch);
    if cache_bytes > 0 {
        engine = engine.with_cache_bytes(cache_bytes);
    }
    if config.noc {
        engine = engine.with_noc();
    }
    if let Some(dir) = &config.cache_dir {
        engine = engine.with_cache_dir(dir)?;
    }
    Ok(Arc::new(engine))
}

/// Accumulate one engine's counters into a running total.
fn add_cache_stats(total: &mut CacheStats, s: CacheStats) {
    total.hits += s.hits;
    total.misses += s.misses;
    total.evictions += s.evictions;
    total.entries += s.entries;
    total.bytes += s.bytes;
    total.noc_sims += s.noc_sims;
    total.warm_entries += s.warm_entries;
    total.load_micros += s.load_micros;
    total.store_errors += s.store_errors;
    total.dedup_waits += s.dedup_waits;
    // A peak is a high-water mark, not a flow: summing engines' peaks
    // would overstate concurrency that never coincided.
    total.in_flight_peak = total.in_flight_peak.max(s.in_flight_peak);
    // Every engine observes the same shared cache directory, so disk-tier
    // sizes and counts merge by max (summing would multiply one directory
    // by the engine count); the per-engine compaction tallies are flows
    // and sum.
    total.disk_index_entries = total.disk_index_entries.max(s.disk_index_entries);
    total.segment_bytes = total.segment_bytes.max(s.segment_bytes);
    total.segment_live_bytes = total.segment_live_bytes.max(s.segment_live_bytes);
    total.segment_dead_bytes = total.segment_dead_bytes.max(s.segment_dead_bytes);
    total.compactions += s.compactions;
    // Per-backend win tallies merge by name, keeping the sorted order.
    for win in s.backend_wins {
        match total
            .backend_wins
            .iter_mut()
            .find(|t| t.backend == win.backend)
        {
            Some(t) => {
                t.wins += win.wins;
                t.win_micros += win.win_micros;
            }
            None => total.backend_wins.push(win),
        }
    }
    total.backend_wins.sort_by(|a, b| a.backend.cmp(&b.backend));
}

fn error_body(message: &str) -> String {
    serde_json::to_string(&ScheduleResponse::from_error(message)).expect("error serializes")
}

/// The daemon. [`Server::start`] warm-starts the default engine, runs the
/// startup GC sweep, binds the listener and spawns the event loop +
/// worker pool, returning a [`ServerHandle`].
pub struct Server;

impl Server {
    /// Start a daemon for `config`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the cache dir cannot be opened or the
    /// address cannot be bound.
    pub fn start(config: ServeConfig) -> io::Result<ServerHandle> {
        // Warm start before binding: a connectable daemon is a ready one.
        let default_engine = build_engine(&config, config.default_arch.clone(), 0)?;

        let mut engines = HashMap::new();
        engines.insert(arch_digest(default_engine.arch()), default_engine.clone());
        let handler = Arc::new(EngineHandler {
            engines: Mutex::new(engines),
            default_engine,
            suites: Suite::ALL.map(Network::from_suite),
            overflow_stats: Mutex::new(CacheStats::default()),
            gc: GcCounters::default(),
            config: config.clone(),
        });
        handler.run_gc("startup");

        let front = front::start(
            FrontConfig {
                addr: config.addr.clone(),
                workers: config.workers,
                queue_capacity: config.queue_capacity,
                max_connections: config.max_connections,
                log_requests: config.log_requests,
            },
            handler.clone(),
        )?;

        if config.log_requests {
            println!(
                "[serve] listening on {} — {} workers, queue {} — {} warm entries{}",
                front.addr(),
                config.workers,
                config.queue_capacity,
                handler.default_engine.cache_stats().warm_entries,
                config
                    .cache_dir
                    .as_ref()
                    .map(|d| format!(", cache dir {}", d.display()))
                    .unwrap_or_default(),
            );
        }
        Ok(ServerHandle { front })
    }
}

/// A running daemon: its bound address plus shutdown/join control.
pub struct ServerHandle {
    front: front::FrontHandle,
}

impl ServerHandle {
    /// The bound address (resolves `:0` to the actual ephemeral port).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.front.addr()
    }

    /// Signal shutdown without waiting: stop dispatching, answer new
    /// arrivals `503`, let workers drain the queue. Idempotent.
    pub fn begin_shutdown(&self) {
        self.front.begin_shutdown();
    }

    /// Block until the daemon exits (a `POST /v1/shutdown` or a prior
    /// [`ServerHandle::begin_shutdown`]). In-flight and queued requests
    /// finish first.
    ///
    /// # Errors
    ///
    /// Returns an error when a daemon thread panicked.
    pub fn join(self) -> io::Result<()> {
        self.front.join()
    }

    /// Graceful shutdown: [`ServerHandle::begin_shutdown`] then
    /// [`ServerHandle::join`].
    ///
    /// # Errors
    ///
    /// Returns an error when a daemon thread panicked.
    pub fn shutdown(self) -> io::Result<()> {
        self.begin_shutdown();
        self.join()
    }
}
