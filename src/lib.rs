//! # cosa-repro
//!
//! Umbrella crate for the CoSA reproduction (Huang et al., *CoSA:
//! Scheduling by Constrained Optimization for Spatial Accelerators*,
//! ISCA 2021). It re-exports the workspace crates, hosts the unified
//! scheduling API ([`api`], [`engine`]) and the runnable examples
//! (`examples/`) and cross-crate integration tests (`tests/`).
//!
//! * [`spec`] — layers, tensors, architectures, schedules, workloads,
//!   whole-network descriptions
//! * [`milp`] — the from-scratch MILP solver (simplex + branch-and-bound)
//! * [`model`] — the Timeloop-like analytical performance/energy model
//! * [`noc`] — the cycle-level mesh NoC simulator
//! * [`core`] — the CoSA scheduler itself
//! * [`mappers`] — the Random and Timeloop-Hybrid-style baselines
//! * [`gpu`] — the K80 case study and the TVM-style tuner
//! * [`sat`] — the from-scratch CDCL/pseudo-Boolean SAT scheduling backend
//! * [`api`] — the uniform [`Scheduler`](api::Scheduler) trait over all
//!   five schedulers: CoSA's MILP, SAT, the portfolio that sends each layer
//!   to one of those two, and the Random and Hybrid baselines
//! * [`engine`] — batch whole-network scheduling with an LRU +
//!   persistent-on-disk schedule cache (GC'd under a [`engine::GcPolicy`]),
//!   engine-level NoC evaluation and parallel fan-out
//! * [`serve`] — the wire protocol of the `cosa-serve` scheduling daemon
//!   (the long-lived HTTP front-end over the engine lives in
//!   `crates/serve`)
//!
//! # Quickstart
//!
//! Schedule one layer through the uniform API:
//!
//! ```
//! use cosa_repro::prelude::*;
//!
//! let arch = Arch::simba_baseline();
//! let layer = Layer::parse_paper_name("3_13_256_256_1")?;
//! let cosa = CosaScheduler::new(&arch);
//! let result = Scheduler::schedule(&cosa, &arch, &layer)?;
//! assert!(result.schedule.is_valid(&layer, &arch));
//! assert!(result.latency_cycles >= 1.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Schedule a whole network with caching and parallel fan-out:
//!
//! ```no_run
//! use cosa_repro::prelude::*;
//!
//! let arch = Arch::simba_baseline();
//! let cosa = CosaScheduler::new(&arch);
//! let engine = Engine::new(arch).with_threads(8);
//! let run = engine.schedule_network(&Network::from_suite(Suite::ResNet50), &cosa);
//! println!(
//!     "{}: {} cycles, {} cache hits",
//!     run.report.network, run.report.total_latency_cycles, run.cache_hits
//! );
//! ```

pub use cosa_core as core;
pub use cosa_gpu as gpu;
pub use cosa_mappers as mappers;
pub use cosa_milp as milp;
pub use cosa_model as model;
pub use cosa_noc as noc;
pub use cosa_sat as sat;
pub use cosa_spec as spec;

pub mod api;
pub mod engine;
pub mod serve;

/// The types most programs need.
pub mod prelude {
    pub use crate::api::{PortfolioScheduler, ScheduleError, ScheduleStats, Scheduled, Scheduler};
    pub use crate::engine::{
        BackendWin, CacheEntry, CacheStats, CacheStore, Engine, GcPolicy, GcReport,
        InterlayerOptions, InterlayerReport, LayerReport, NetworkReport, NetworkRun, ScheduleCache,
    };
    pub use crate::serve::{
        scheduler_from_name, HealthResponse, ScheduleOptions, ScheduleRequest, ScheduleResponse,
        StatsResponse,
    };
    pub use cosa_core::{CosaResult, CosaScheduler, ObjectiveWeights};
    pub use cosa_mappers::{
        HybridConfig, HybridMapper, RandomMapper, SearchLimits, SearchObjective,
    };
    pub use cosa_model::CostModel;
    pub use cosa_noc::{NocSimulator, NocSummary};
    pub use cosa_sat::{SatOutcome, SatScheduler};
    pub use cosa_spec::{
        Arch, ArchBuilder, DataTensor, Dim, Layer, Loop, Network, NetworkLayer, Schedule, Suite,
    };
}
