//! Wire protocol for the `cosa-serve` scheduling daemon.
//!
//! CoSA's one-shot solves are deterministic and perfectly cacheable, so a
//! schedule is a *servable artifact*: the `cosa-serve` crate runs a
//! long-lived daemon over the batch [`Engine`](crate::engine::Engine)
//! answering HTTP/1.1 JSON requests. This module owns the request/response
//! types (and the scheduler-by-name registry) so the daemon, the
//! `serve_probe` load generator and in-process clients all speak the exact
//! same schema — responses are canonically serialized by the workspace
//! serde, so identical inputs yield byte-identical bodies.
//!
//! Endpoints (every route lives under `/v1/`; anything else is a 404):
//!
//! * `POST /v1/schedule` — a [`ScheduleRequest`] naming a layer, an inline
//!   network or a suite; answers a [`ScheduleResponse`].
//! * `GET /v1/stats` — a [`StatsResponse`]: cache counters plus request
//!   counters and latency percentiles.
//! * `GET /v1/healthz` — a [`HealthResponse`]; ready means the warm start
//!   (cache-dir load) already happened.
//! * `POST /v1/shutdown` — graceful shutdown: stop accepting, drain
//!   in-flight requests, exit.
//!
//! The offline serde treats a missing request field as an error, so
//! [`ScheduleRequest`] deserialization is hand-written: absent and `null`
//! fields both mean "default". Responses always carry every field.
//!
//! This module also owns the shared pieces every serving process needs:
//! the [`CommonArgs`] CLI parser (`--scheduler`/`--cache-dir`/`--noc`/
//! `--interlayer*`, one implementation for
//! `cosa_serve`, `serve_probe` and `engine_probe`) and the
//! [`routing_digest`] naming the cache entry a request resolves to.

use std::path::PathBuf;
use std::time::Duration;

use cosa_core::CosaScheduler;
use cosa_mappers::{HybridConfig, HybridMapper, RandomMapper, SearchLimits};
use cosa_sat::SatScheduler;
use cosa_spec::{canon, Arch, Layer, Network, Suite};
use serde::{Deserialize, Error as SerdeError, Reader, Serialize};

use crate::api::{PortfolioScheduler, Scheduled, Scheduler};
use crate::engine::{CacheStats, InterlayerOptions, NetworkReport};

/// The value following `--flag` in `args`, when present.
pub fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Parse the value following `--flag`, panicking with the flag name on
/// malformed input (the binaries fail fast on bad invocations).
pub fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    flag_value(args, flag).map(|v| {
        v.parse()
            .unwrap_or_else(|_| panic!("bad value `{v}` for {flag}"))
    })
}

/// The scheduler/cache flag set shared by every serving binary
/// (`cosa_serve`, `serve_probe`, `engine_probe`) — one
/// parser so `--scheduler`, `--cache-dir`, `--noc` and `--interlayer*`
/// cannot drift apart between the daemon and the probes that must hit its
/// cache entries.
#[derive(Debug, Clone, PartialEq)]
pub struct CommonArgs {
    /// `--scheduler NAME` (default `cosa`); validated lazily by
    /// [`scheduler_from_name`] so the error names the valid set.
    pub scheduler: String,
    /// `--cache-dir PATH`, falling back to `COSA_CACHE_DIR`.
    pub cache_dir: Option<PathBuf>,
    /// `--noc` present.
    pub noc: bool,
    /// `--interlayer` (plus `--interlayer-budget-bytes N`): the
    /// inter-layer residency pass options, disabled unless `--interlayer`
    /// is present.
    pub interlayer: InterlayerOptions,
}

impl CommonArgs {
    /// Every flag [`CommonArgs::parse`] reads, paired with whether it
    /// takes a value — what a binary that rejects unknown flags must
    /// accept on this parser's behalf.
    pub const FLAGS: [(&'static str, bool); 5] = [
        ("--scheduler", true),
        ("--cache-dir", true),
        ("--noc", false),
        ("--interlayer", false),
        ("--interlayer-budget-bytes", true),
    ];

    /// Parse the shared flags out of `args` (unrelated flags are left for
    /// the caller). Panics with the flag name on a malformed value.
    pub fn parse(args: &[String]) -> CommonArgs {
        let mut interlayer = if args.iter().any(|a| a == "--interlayer") {
            InterlayerOptions::enabled()
        } else {
            InterlayerOptions::disabled()
        };
        if let Some(bytes) = parse_flag::<u64>(args, "--interlayer-budget-bytes") {
            interlayer = interlayer.with_budget_bytes(bytes);
        }
        CommonArgs {
            scheduler: flag_value(args, "--scheduler").unwrap_or_else(|| "cosa".to_string()),
            cache_dir: flag_value(args, "--cache-dir")
                .or_else(|| std::env::var("COSA_CACHE_DIR").ok())
                .map(Into::into),
            noc: args.iter().any(|a| a == "--noc"),
            interlayer,
        }
    }
}

/// The per-request knob set of the `/v1/schedule` schema: everything that
/// changes *how* a work item is scheduled, as one serializable object.
///
/// Rather than growing one top-level field per knob (`arch`,
/// `scheduler`, `interlayer`, ...), requests carry a single `options`
/// object and every consumer — daemon, probes, tests — reads the
/// same struct.
///
/// Every field defaults: `{}` is a valid options object, and a missing
/// field means "the daemon's default".
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct ScheduleOptions {
    /// Architecture to schedule for; `None` uses the daemon's default.
    pub arch: Option<Arch>,
    /// Scheduler name (`cosa`|`sat`|`portfolio`|`random`|`hybrid`); `None`
    /// means `cosa`.
    pub scheduler: Option<String>,
    /// Inter-layer residency pass options for network/suite requests;
    /// `None` uses the daemon's configured default (disabled unless the
    /// daemon was started with `--interlayer`).
    pub interlayer: Option<InterlayerOptions>,
}

impl ScheduleOptions {
    /// All-defaults options (daemon arch, `cosa`, daemon interlayer).
    pub fn new() -> ScheduleOptions {
        ScheduleOptions::default()
    }

    /// Pin the architecture.
    #[must_use]
    pub fn with_arch(mut self, arch: Arch) -> ScheduleOptions {
        self.arch = Some(arch);
        self
    }

    /// Pick a scheduler by name.
    #[must_use]
    pub fn with_scheduler(mut self, name: impl Into<String>) -> ScheduleOptions {
        self.scheduler = Some(name.into());
        self
    }

    /// Set the inter-layer residency options explicitly.
    #[must_use]
    pub fn with_interlayer(mut self, options: InterlayerOptions) -> ScheduleOptions {
        self.interlayer = Some(options);
        self
    }
}

// Hand-written so a partial object is valid: absent and `null` fields are
// the defaults, unknown fields fail loudly.
impl Deserialize for ScheduleOptions {
    fn deserialize(r: &mut Reader<'_>) -> Result<ScheduleOptions, SerdeError> {
        const KNOWN: [&str; 3] = ["arch", "scheduler", "interlayer"];
        let mut options = ScheduleOptions::default();
        let mut seen = [false; KNOWN.len()];
        r.map("ScheduleOptions", |r, key| {
            let Some(i) = KNOWN.iter().position(|k| *k == key) else {
                return Err(SerdeError::custom(format!(
                    "unknown option `{key}` (expected one of {KNOWN:?})"
                )));
            };
            if std::mem::replace(&mut seen[i], true) {
                return r.skip(); // the first of duplicate keys wins
            }
            match i {
                0 => options.arch = Deserialize::deserialize(r)?,
                1 => options.scheduler = Deserialize::deserialize(r)?,
                _ => options.interlayer = Deserialize::deserialize(r)?,
            }
            Ok(())
        })?;
        Ok(options)
    }
}

/// The content digest of a request: equal digests mean equal answers.
///
/// For single-layer requests this is exactly the engine's cache key
/// (derived by the engine's own key function, with the inter-layer pass
/// off as the daemon's layer engines key it), so two requests with the
/// same digest resolve to the same cache entry. Network/suite requests hash their canonical
/// request JSON instead, with *every* semantics-changing option pinned to
/// its effective value first — the arch, the scheduler and the
/// inter-layer options all fold into the digest, so two requests that
/// differ only in `options.interlayer` digest apart and can never share a
/// cache entry, while "default" and "explicit default" spellings of the
/// same request digest identically. The benchmark's `serve_warm` workload
/// times it as `wire.routing_digest_us`.
pub fn routing_digest(
    request: &ScheduleRequest,
    default_arch: &Arch,
    default_interlayer: &InterlayerOptions,
) -> String {
    let arch = request.arch().unwrap_or(default_arch);
    if let Some(layer) = &request.layer {
        let name = request.scheduler_name();
        if let Ok(scheduler) = scheduler_from_name(name, arch) {
            let arch_json = serde_json::to_string(arch).expect("arch serializes");
            let off = InterlayerOptions::disabled();
            return crate::engine::cache_key(scheduler.as_ref(), &arch_json, layer, &off);
        }
        // Unknown scheduler: fall through to request hashing (the daemon
        // answers such a request 400).
    }
    // Pin every effective option so "default" and "explicit default"
    // requests digest identically.
    let mut canonical = request.clone();
    if canonical.options.arch.is_none() {
        canonical.options.arch = Some(arch.clone());
    }
    if canonical.options.scheduler.is_none() {
        canonical.options.scheduler = Some(request.scheduler_name().to_string());
    }
    if canonical.options.interlayer.is_none() {
        canonical.options.interlayer = Some(*default_interlayer);
    }
    let json = serde_json::to_string(&canonical).expect("request serializes");
    canon::digest128_hex(json.as_bytes())
}

/// Node budget for the default (`"cosa"`) serving scheduler and the
/// `"portfolio"` one's MILP side — the same bound `engine_probe` uses, so the daemon and the probes share cache
/// entries and both stay bit-reproducible when the budget binds.
pub const SERVE_COSA_NODE_LIMIT: usize = 300;

/// Seed for the `"random"` serving scheduler (matches `engine_probe`).
pub const SERVE_RANDOM_SEED: u64 = 7;

/// Build the serving scheduler registry entry for `name`.
///
/// The configurations are fixed (and match `engine_probe`'s) on purpose:
/// the cache key includes [`Scheduler::fingerprint`], so every process
/// that constructs schedulers through this function shares warm cache
/// entries with every other.
///
/// # Errors
///
/// Returns a message naming the valid schedulers for an unknown `name`.
pub fn scheduler_from_name(name: &str, arch: &Arch) -> Result<Box<dyn Scheduler>, String> {
    let serving_cosa = || CosaScheduler::new(arch).with_deterministic_limits(SERVE_COSA_NODE_LIMIT);
    match name {
        "cosa" => Ok(Box::new(serving_cosa())),
        "sat" => Ok(Box::new(SatScheduler::new(arch))),
        // The `cosa` entry for the layers it sends to the MILP, so that
        // side is node-bounded and reproducible too.
        "portfolio" => Ok(Box::new(PortfolioScheduler::from_parts(
            serving_cosa(),
            SatScheduler::new(arch).with_conflict_budget(None),
        ))),
        "random" => Ok(Box::new(
            RandomMapper::new(SERVE_RANDOM_SEED).with_limits(SearchLimits::quick()),
        )),
        "hybrid" => Ok(Box::new(HybridMapper::new(HybridConfig::quick()))),
        other => Err(format!(
            "unknown scheduler `{other}` (expected cosa|sat|portfolio|random|hybrid)"
        )),
    }
}

/// A `POST /v1/schedule` body: what to schedule plus one
/// [`ScheduleOptions`] object saying how.
///
/// Exactly one of `layer`, `network` or `suite` must be set. Missing and
/// `null` fields are equivalent.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct ScheduleRequest {
    /// How to schedule: arch, scheduler and inter-layer knobs.
    pub options: ScheduleOptions,
    /// Schedule one layer, answering [`ScheduleResponse::scheduled`].
    pub layer: Option<Layer>,
    /// Schedule an inline network, answering [`ScheduleResponse::report`].
    pub network: Option<Network>,
    /// Schedule a named suite (e.g. `"resnet50"`), answering
    /// [`ScheduleResponse::report`].
    pub suite: Option<String>,
}

impl Deserialize for ScheduleRequest {
    fn deserialize(r: &mut Reader<'_>) -> Result<ScheduleRequest, SerdeError> {
        // Lenient about *missing* fields, strict about *unknown* ones: a
        // misspelled "schedulr" must fail loudly, not silently fall back
        // to the default scheduler. Absent and `null` fields are `None`.
        const KNOWN: [&str; 4] = ["options", "layer", "network", "suite"];
        let mut request = ScheduleRequest::default();
        let mut seen = [false; KNOWN.len()];
        r.map("ScheduleRequest", |r, key| {
            let Some(i) = KNOWN.iter().position(|k| *k == key) else {
                return Err(SerdeError::custom(format!(
                    "unknown request field `{key}` (expected one of {KNOWN:?})"
                )));
            };
            if std::mem::replace(&mut seen[i], true) {
                return r.skip(); // the first of duplicate keys wins
            }
            match i {
                0 => request.options = Option::deserialize(r)?.unwrap_or_default(),
                1 => request.layer = Deserialize::deserialize(r)?,
                2 => request.network = Deserialize::deserialize(r)?,
                _ => request.suite = Deserialize::deserialize(r)?,
            }
            Ok(())
        })?;
        Ok(request)
    }
}

impl ScheduleRequest {
    /// A request for one layer on the daemon's default arch and scheduler.
    pub fn for_layer(layer: Layer) -> ScheduleRequest {
        ScheduleRequest {
            layer: Some(layer),
            ..ScheduleRequest::default()
        }
    }

    /// A request for a named suite on the daemon's default arch/scheduler.
    pub fn for_suite(suite: Suite) -> ScheduleRequest {
        ScheduleRequest {
            suite: Some(suite.name().to_string()),
            ..ScheduleRequest::default()
        }
    }

    /// A request for an inline network.
    pub fn for_network(network: Network) -> ScheduleRequest {
        ScheduleRequest {
            network: Some(network),
            ..ScheduleRequest::default()
        }
    }

    /// Pick a scheduler by name (`cosa`|`sat`|`portfolio`|`random`|`hybrid`).
    #[must_use]
    pub fn with_scheduler(mut self, name: impl Into<String>) -> ScheduleRequest {
        self.options.scheduler = Some(name.into());
        self
    }

    /// Pin the architecture instead of using the daemon's default.
    #[must_use]
    pub fn with_arch(mut self, arch: Arch) -> ScheduleRequest {
        self.options.arch = Some(arch);
        self
    }

    /// Set the inter-layer residency options explicitly.
    #[must_use]
    pub fn with_interlayer(mut self, options: InterlayerOptions) -> ScheduleRequest {
        self.options.interlayer = Some(options);
        self
    }

    /// Replace the whole options object.
    #[must_use]
    pub fn with_options(mut self, options: ScheduleOptions) -> ScheduleRequest {
        self.options = options;
        self
    }

    /// The requested architecture, when pinned.
    pub fn arch(&self) -> Option<&Arch> {
        self.options.arch.as_ref()
    }

    /// The effective scheduler name (`"cosa"` unless overridden).
    pub fn scheduler_name(&self) -> &str {
        self.options.scheduler.as_deref().unwrap_or("cosa")
    }

    /// The effective inter-layer options given the daemon's default.
    pub fn interlayer_or(&self, default: &InterlayerOptions) -> InterlayerOptions {
        self.options.interlayer.unwrap_or(*default)
    }

    /// Validate the "exactly one work item" rule, and that every entry of
    /// a network runs at least once, naming the violation.
    ///
    /// # Errors
    ///
    /// Returns a client-readable message when zero or multiple of
    /// `layer`/`network`/`suite` are set, or when a network entry has
    /// `count: 0` (the wire admits it, [`Network::push`] does not).
    pub fn work_item(&self) -> Result<(), String> {
        if let Some(entry) = self
            .network
            .iter()
            .flat_map(|n| &n.layers)
            .find(|e| e.count == 0)
        {
            return Err(format!(
                "network entry `{}` has `count` 0 (every entry must run at least once)",
                entry.name
            ));
        }
        let set = [
            self.layer.is_some(),
            self.network.is_some(),
            self.suite.is_some(),
        ]
        .iter()
        .filter(|b| **b)
        .count();
        match set {
            1 => Ok(()),
            0 => Err("request must set one of `layer`, `network` or `suite`".to_string()),
            _ => Err("request must set only one of `layer`, `network` or `suite`".to_string()),
        }
    }
}

/// A `POST /v1/schedule` answer: exactly one of the three fields is set.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ScheduleResponse {
    /// The single-layer result, for [`ScheduleRequest::layer`] requests.
    pub scheduled: Option<Scheduled>,
    /// The whole-network report, for network/suite requests.
    pub report: Option<NetworkReport>,
    /// The failure rendered as text (HTTP status carries the class).
    pub error: Option<String>,
}

impl ScheduleResponse {
    /// A single-layer success.
    pub fn from_scheduled(scheduled: Scheduled) -> ScheduleResponse {
        ScheduleResponse {
            scheduled: Some(scheduled),
            ..ScheduleResponse::default()
        }
    }

    /// A whole-network success.
    pub fn from_report(report: NetworkReport) -> ScheduleResponse {
        ScheduleResponse {
            report: Some(report),
            ..ScheduleResponse::default()
        }
    }

    /// An error answer.
    pub fn from_error(error: impl Into<String>) -> ScheduleResponse {
        ScheduleResponse {
            error: Some(error.into()),
            ..ScheduleResponse::default()
        }
    }

    /// A copy with every volatile measurement zeroed (per-layer wall-clock
    /// and cache counters) — the form byte-identity comparisons across
    /// cold/warm daemon runs use, mirroring
    /// [`NetworkReport::without_timings`].
    pub fn without_timings(&self) -> ScheduleResponse {
        let mut resp = self.clone();
        if let Some(s) = &mut resp.scheduled {
            s.elapsed = Duration::ZERO;
        }
        if let Some(r) = &resp.report {
            resp.report = Some(r.without_timings());
        }
        resp
    }
}

/// A `GET /v1/stats` answer: request counters, latency percentiles, GC
/// activity and the cache counters summed over the daemon's engines.
///
/// `cache.misses` counts *solver invocations*, so a `/v1/stats` delta across
/// a burst of traffic is the number of MILP solves it cost; concurrent
/// identical cold requests that were deduplicated against an in-flight
/// solve (in this process or another daemon sharing the cache dir) show
/// up in `cache.dedup_waits` instead, with `cache.in_flight_peak` the
/// high-water mark of simultaneously in-flight digests.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StatsResponse {
    /// Schedule requests answered 200 (`/v1/stats` and `/v1/healthz` hits are
    /// not counted).
    pub served: u64,
    /// Requests answered 4xx/5xx (excluding queue rejections).
    pub errors: u64,
    /// Connections rejected 429 by the bounded queue.
    pub rejected: u64,
    /// Connections currently queued for a worker.
    pub queue_depth: usize,
    /// Bound on `queue_depth` beyond which connections are rejected.
    pub queue_capacity: usize,
    /// Worker threads handling requests.
    pub workers: usize,
    /// Architecture-keyed engines resident (requests for new architectures
    /// instantiate engines lazily).
    pub engines: usize,
    /// p50 request service time over the recent-latency window, in µs.
    pub p50_micros: u64,
    /// p99 request service time over the recent-latency window, in µs.
    pub p99_micros: u64,
    /// Maximum request service time over the recent-latency window, in µs.
    pub max_micros: u64,
    /// Disk-tier GC sweeps run (startup + every-N-requests).
    pub gc_runs: u64,
    /// Entries GC has evicted.
    pub gc_removed: u64,
    /// Cache counters summed across all resident engines.
    pub cache: CacheStats,
}

/// A `GET /v1/healthz` answer. The daemon only listens after its warm start
/// (cache-dir load) completed, so any answer at all means ready.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HealthResponse {
    /// Always `"ok"` once the daemon answers.
    pub status: String,
    /// Entries warm-loaded from the cache dir at startup (0 = cold).
    pub warm_entries: usize,
    /// The shared cache directory, when persistence is on.
    pub cache_dir: Option<String>,
    /// Whether engine-level NoC evaluation is on.
    pub noc: bool,
}

/// A bounded window of request service times with percentile readout.
///
/// Keeps the most recent [`LatencyRecorder::WINDOW`] samples (overwriting
/// the oldest), so `/v1/stats` percentiles track current behaviour instead of
/// averaging over the daemon's whole lifetime; memory stays constant under
/// heavy traffic.
#[derive(Debug, Default)]
pub struct LatencyRecorder {
    samples: Vec<u64>,
    /// Total samples ever recorded; `total % WINDOW` is the ring cursor.
    total: u64,
}

impl LatencyRecorder {
    /// Resident sample bound.
    pub const WINDOW: usize = 4096;

    /// An empty recorder.
    pub fn new() -> LatencyRecorder {
        LatencyRecorder::default()
    }

    /// Record one service time in microseconds.
    pub fn record(&mut self, micros: u64) {
        let cursor = (self.total % Self::WINDOW as u64) as usize;
        if self.samples.len() < Self::WINDOW {
            self.samples.push(micros);
        } else {
            self.samples[cursor] = micros;
        }
        self.total += 1;
    }

    /// Samples ever recorded (resident window is smaller).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The `p`-th percentile (0.0–1.0) of the resident window, in µs;
    /// 0 when nothing was recorded. Nearest-rank on a sorted copy — the
    /// window is small and `/v1/stats` is rare, so simplicity wins.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.samples.is_empty() {
            return 0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let rank = ((p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize)
            .saturating_sub(1)
            .min(sorted.len() - 1);
        sorted[rank]
    }

    /// Maximum resident sample, in µs.
    pub fn max(&self) -> u64 {
        self.samples.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_missing_fields_deserialize_to_none() {
        let req: ScheduleRequest = serde_json::from_str(r#"{"suite": "resnet50"}"#).unwrap();
        assert_eq!(req.suite.as_deref(), Some("resnet50"));
        assert!(req.arch().is_none() && req.layer.is_none() && req.network.is_none());
        assert!(req.options.interlayer.is_none());
        assert!(req.work_item().is_ok());
        // And the empty object is a well-formed (if unserviceable) request.
        let empty: ScheduleRequest = serde_json::from_str("{}").unwrap();
        assert!(empty.work_item().is_err());
    }

    #[test]
    fn options_object_is_partial_and_strict() {
        let opts: ScheduleOptions =
            serde_json::from_str(r#"{"interlayer": {"enabled": true}}"#).unwrap();
        assert_eq!(opts.interlayer, Some(InterlayerOptions::enabled()));
        assert!(opts.arch.is_none() && opts.scheduler.is_none());
        let empty: ScheduleOptions = serde_json::from_str("{}").unwrap();
        assert_eq!(empty, ScheduleOptions::default());
        let err = serde_json::from_str::<ScheduleOptions>(r#"{"interlayr": {}}"#)
            .expect_err("unknown option field must fail");
        assert!(err.to_string().contains("interlayr"), "{err}");
        // Interlayer sub-object: unknown keys fail, partial objects work.
        let req: ScheduleRequest = serde_json::from_str(
            r#"{"suite": "resnet50",
                "options": {"interlayer": {"enabled": true, "budget_bytes": 4096}}}"#,
        )
        .unwrap();
        let il = req.interlayer_or(&InterlayerOptions::disabled());
        assert!(il.enabled);
        assert_eq!(il.budget_bytes, Some(4096));
        // The selection has no knob: `strategy` is an unknown option.
        let err = serde_json::from_str::<ScheduleRequest>(
            r#"{"suite": "resnet50",
                "options": {"interlayer": {"enabled": true, "strategy": "milp"}}}"#,
        )
        .expect_err("`strategy` is not an interlayer option");
        assert!(err.to_string().contains("`strategy`"), "{err}");
    }

    #[test]
    fn request_rejects_unknown_fields() {
        let err = serde_json::from_str::<ScheduleRequest>(
            r#"{"suite": "resnet50", "schedulr": "random"}"#,
        )
        .expect_err("typo'd field must not silently fall back to defaults");
        assert!(err.to_string().contains("schedulr"), "{err}");
        // The knobs live in `options` only: the same names at the top
        // level are unknown fields like any other.
        for body in [
            r#"{"suite": "resnet50", "scheduler": "random"}"#,
            r#"{"suite": "resnet50", "arch": null}"#,
        ] {
            assert!(
                serde_json::from_str::<ScheduleRequest>(body).is_err(),
                "{body}"
            );
        }
    }

    #[test]
    fn request_round_trips_through_canonical_json() {
        let req = ScheduleRequest::for_layer(Layer::conv("t", 3, 3, 8, 8, 16, 16, 1, 1, 1))
            .with_scheduler("random");
        let json = serde_json::to_string(&req).unwrap();
        let back: ScheduleRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, req);
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    #[test]
    fn work_item_rejects_entries_that_never_run() {
        let mut network = Network::new("n")
            .with_layer("a", Layer::conv("a", 1, 1, 4, 4, 8, 8, 1, 1, 1), 1)
            .with_layer("b", Layer::conv("b", 1, 1, 4, 4, 8, 8, 1, 1, 1), 2);
        network.layers[1].count = 0;
        let err = ScheduleRequest::for_network(network)
            .work_item()
            .expect_err("a count-0 entry is not a network");
        assert!(err.contains("`b`") && err.contains("`count`"), "{err}");
    }

    #[test]
    fn work_item_requires_exactly_one() {
        let both = ScheduleRequest {
            layer: Some(Layer::conv("t", 1, 1, 4, 4, 8, 8, 1, 1, 1)),
            suite: Some("alexnet".to_string()),
            ..ScheduleRequest::default()
        };
        assert!(both.work_item().is_err());
        assert!(ScheduleRequest::for_suite(Suite::AlexNet)
            .work_item()
            .is_ok());
    }

    #[test]
    fn scheduler_registry_matches_probe_configs() {
        let arch = Arch::simba_baseline();
        for name in ["cosa", "sat", "portfolio", "random", "hybrid"] {
            let s = scheduler_from_name(name, &arch).expect("known scheduler");
            assert_eq!(s.name(), name);
        }
        assert!(scheduler_from_name("simulated-annealing", &arch).is_err());
    }

    #[test]
    fn common_args_parse_shared_flags() {
        let args: Vec<String> = [
            "bin",
            "--scheduler",
            "sat",
            "--cache-dir",
            "/tmp/c",
            "--noc",
        ]
        .map(String::from)
        .to_vec();
        let common = CommonArgs::parse(&args);
        assert_eq!(common.scheduler, "sat");
        assert_eq!(
            common.cache_dir.as_deref(),
            Some(std::path::Path::new("/tmp/c"))
        );
        assert!(common.noc);
        assert_eq!(common.interlayer, InterlayerOptions::disabled());

        let defaults = CommonArgs::parse(&["bin".to_string()]);
        assert_eq!(defaults.scheduler, "cosa");
        assert!(!defaults.noc);

        let interlayer = CommonArgs::parse(
            &["bin", "--interlayer", "--interlayer-budget-bytes", "65536"].map(String::from),
        );
        assert_eq!(
            interlayer.interlayer,
            InterlayerOptions::enabled().with_budget_bytes(65536)
        );
    }

    #[test]
    fn routing_digest_matches_engine_cache_key_for_layers() {
        let arch = Arch::simba_baseline();
        let off = InterlayerOptions::disabled();
        let layer = Layer::conv("t", 3, 3, 8, 8, 16, 16, 1, 1, 1);
        let req = ScheduleRequest::for_layer(layer.clone());
        let engine = crate::engine::Engine::new(arch.clone());
        let scheduler = scheduler_from_name("cosa", &arch).unwrap();
        assert_eq!(
            routing_digest(&req, &arch, &off),
            engine.cache_key(scheduler.as_ref(), &layer),
            "layer requests must route by the exact cache key"
        );
        // Default arch and explicit default arch route identically.
        let explicit = req.clone().with_arch(arch.clone());
        assert_eq!(
            routing_digest(&req, &arch, &off),
            routing_digest(&explicit, &arch, &off)
        );
        // Suite requests are stable and scheduler-sensitive.
        let suite = ScheduleRequest::for_suite(Suite::AlexNet);
        assert_eq!(
            routing_digest(&suite, &arch, &off),
            routing_digest(&suite, &arch, &off)
        );
        assert_ne!(
            routing_digest(&suite, &arch, &off),
            routing_digest(&suite.clone().with_scheduler("sat"), &arch, &off)
        );
    }

    #[test]
    fn routing_digest_folds_in_every_option() {
        let arch = Arch::simba_baseline();
        let off = InterlayerOptions::disabled();
        let suite = ScheduleRequest::for_suite(Suite::AlexNet);

        // Requests differing *only* in interlayer options route (and cache)
        // independently — the PR-6/7 era digest ignored everything but
        // arch/scheduler, which would alias these.
        let resident = suite.clone().with_interlayer(InterlayerOptions::enabled());
        assert_ne!(
            routing_digest(&suite, &arch, &off),
            routing_digest(&resident, &arch, &off),
            "interlayer options must change the routing digest"
        );
        let budgeted = suite
            .clone()
            .with_interlayer(InterlayerOptions::enabled().with_budget_bytes(1 << 16));
        assert_ne!(
            routing_digest(&resident, &arch, &off),
            routing_digest(&budgeted, &arch, &off)
        );

        // "Absent" and "explicitly the daemon default" spell the same
        // request and must digest identically.
        let explicit_off = suite.clone().with_interlayer(off);
        assert_eq!(
            routing_digest(&suite, &arch, &off),
            routing_digest(&explicit_off, &arch, &off)
        );
        // ... including when the daemon default is enabled.
        let daemon_default = InterlayerOptions::enabled();
        let explicit_on = suite.clone().with_interlayer(daemon_default);
        assert_eq!(
            routing_digest(&suite, &arch, &daemon_default),
            routing_digest(&explicit_on, &arch, &daemon_default)
        );

        // Engine-level cache keys diverge too: enabling residency folds the
        // options fingerprint into the key, so the two schedules can never
        // share a cache entry.
        let engine = crate::engine::Engine::new(arch.clone());
        let scheduler = scheduler_from_name("cosa", &arch).unwrap();
        let layer = Layer::conv("t", 3, 3, 8, 8, 16, 16, 1, 1, 1);
        let base = engine.cache_key_with(scheduler.as_ref(), &layer, &off);
        let aware =
            engine.cache_key_with(scheduler.as_ref(), &layer, &InterlayerOptions::enabled());
        assert_ne!(base, aware, "cache keys must not collide");
        assert_eq!(
            base,
            engine.cache_key(scheduler.as_ref(), &layer),
            "disabled residency keeps the pre-PR-9 cache key (warm caches stay warm)"
        );
    }

    #[test]
    fn latency_recorder_percentiles_and_window() {
        let mut rec = LatencyRecorder::new();
        assert_eq!(rec.percentile(0.5), 0);
        for v in 1..=100u64 {
            rec.record(v);
        }
        assert_eq!(rec.percentile(0.5), 50);
        assert_eq!(rec.percentile(0.99), 99);
        assert_eq!(rec.max(), 100);
        // The ring overwrites the oldest samples once past the window.
        for v in 0..(LatencyRecorder::WINDOW as u64) {
            rec.record(1000 + v);
        }
        assert!(rec.percentile(0.0) >= 1000, "old samples aged out");
        assert_eq!(rec.total(), 100 + LatencyRecorder::WINDOW as u64);
    }
}
