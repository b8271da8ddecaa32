//! The unified scheduling API: one [`Scheduler`] trait over CoSA's MILP and
//! SAT backends, the portfolio that picks between them, and both baselines.
//!
//! The workspace historically exposed three mutually incompatible entry
//! points (`CosaScheduler::schedule(&layer)`,
//! `RandomMapper::search(&arch, &layer, &limits)`,
//! `HybridMapper::search(&arch, &layer)`), which made every experiment
//! hand-roll its scheduler dispatch. This module gives all three the same
//! shape — `schedule(&self, arch, layer) -> Result<Scheduled, ScheduleError>`
//! — so they compose as trait objects, plug into the batch
//! [`Engine`](crate::engine::Engine), and serialize their results uniformly.
//!
//! The historical inherent methods remain as the underlying implementations,
//! so existing callers keep compiling; new code should prefer the trait.
//!
//! # Example
//!
//! ```
//! use cosa_repro::prelude::*;
//!
//! let arch = Arch::simba_baseline();
//! let layer = Layer::conv("t", 3, 3, 8, 8, 16, 16, 1, 1, 1);
//! let schedulers: Vec<Box<dyn Scheduler>> = vec![
//!     Box::new(RandomMapper::new(7).with_limits(SearchLimits::quick())),
//!     Box::new(HybridMapper::new(HybridConfig::quick())),
//! ];
//! for s in &schedulers {
//!     let out = s.schedule(&arch, &layer)?;
//!     assert!(out.schedule.is_valid(&layer, &arch));
//!     assert!(out.latency_cycles.is_finite());
//! }
//! # Ok::<(), cosa_repro::api::ScheduleError>(())
//! ```

use std::fmt;
use std::time::{Duration, Instant};

use cosa_core::CosaScheduler;
use cosa_mappers::{layer_seed, HybridConfig, HybridMapper, RandomMapper};
use cosa_model::CostModel;
use cosa_sat::{SatError, SatScheduler};
use cosa_spec::{Arch, Layer, Schedule};
use serde::{Deserialize, Serialize};

/// Errors from the unified scheduling API.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleError {
    /// The underlying solver failed (CoSA's MILP, typically).
    Solver {
        /// Scheduler name.
        scheduler: String,
        /// Layer name.
        layer: String,
        /// Underlying error rendered as text.
        message: String,
    },
    /// A search-based scheduler exhausted its budget without finding any
    /// valid schedule.
    NoValidSchedule {
        /// Scheduler name.
        scheduler: String,
        /// Layer name.
        layer: String,
    },
    /// The chosen schedule failed analytical-model evaluation.
    Evaluation {
        /// Layer name.
        layer: String,
        /// Underlying error rendered as text.
        message: String,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::Solver {
                scheduler,
                layer,
                message,
            } => {
                write!(f, "{scheduler} failed on layer {layer}: {message}")
            }
            ScheduleError::NoValidSchedule { scheduler, layer } => {
                write!(f, "{scheduler} found no valid schedule for layer {layer}")
            }
            ScheduleError::Evaluation { layer, message } => {
                write!(f, "model evaluation failed on layer {layer}: {message}")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Search statistics normalized across schedulers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ScheduleStats {
    /// Scheduling-space points sampled (1 for one-shot CoSA).
    pub samples: u64,
    /// Valid schedules evaluated on the analytical model (1 for CoSA).
    pub evaluations: u64,
    /// Branch-and-bound nodes processed (0 for the search baselines).
    pub milp_nodes: u64,
    /// The MILP objective value at the optimum (CoSA only).
    pub milp_objective: Option<f64>,
}

/// The uniform result of scheduling one layer: the schedule plus both
/// analytical-model verdicts and normalized search statistics.
///
/// Serializes to canonical JSON via the workspace serde, so reports are
/// byte-stable for identical inputs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scheduled {
    /// Name of the scheduler that produced this result.
    pub scheduler: String,
    /// Name of the scheduled layer.
    pub layer: String,
    /// The chosen (validated) schedule.
    pub schedule: Schedule,
    /// Analytical-model latency in cycles.
    pub latency_cycles: f64,
    /// Analytical-model energy in pJ.
    pub energy_pj: f64,
    /// Wall-clock time the scheduler spent (the paper's time-to-solution).
    pub elapsed: Duration,
    /// Normalized search statistics.
    pub stats: ScheduleStats,
}

/// A scheduler with the uniform signature: given an architecture and a
/// layer, produce a validated [`Scheduled`] result.
///
/// Implemented by [`CosaScheduler`], [`SatScheduler`],
/// [`PortfolioScheduler`], [`RandomMapper`] and [`HybridMapper`];
/// `Send + Sync` so trait objects fan out across the
/// [`Engine`](crate::engine::Engine)'s worker threads.
pub trait Scheduler: Send + Sync {
    /// Short stable name for reports (`"cosa"`, `"sat"`, `"portfolio"`,
    /// `"random"`, `"hybrid"`).
    fn name(&self) -> &str;

    /// Schedule `layer` on `arch`.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError`] when the underlying solver fails or the
    /// search finds no valid schedule.
    fn schedule(&self, arch: &Arch, layer: &Layer) -> Result<Scheduled, ScheduleError>;

    /// A canonical description of this scheduler's configuration, used in
    /// content-addressed schedule-cache keys: two schedulers with equal
    /// fingerprints must produce identical schedules for identical
    /// `(arch, layer)` inputs.
    fn fingerprint(&self) -> String {
        self.name().to_string()
    }
}

/// Evaluate a freshly produced schedule on the analytical model.
fn evaluate(arch: &Arch, layer: &Layer, schedule: &Schedule) -> Result<(f64, f64), ScheduleError> {
    CostModel::new(arch)
        .evaluate(layer, schedule)
        .map(|e| (e.latency_cycles, e.energy_pj))
        .map_err(|e| ScheduleError::Evaluation {
            layer: layer.name().to_string(),
            message: e.to_string(),
        })
}

impl Scheduler for CosaScheduler {
    fn name(&self) -> &str {
        "cosa"
    }

    fn fingerprint(&self) -> String {
        let w = self.weights();
        format!(
            "cosa:w=({},{},{}):kind={:?}:opts={:?}",
            w.w_util,
            w.w_comp,
            w.w_traf,
            self.objective_kind(),
            self.solve_options(),
        )
    }

    fn schedule(&self, arch: &Arch, layer: &Layer) -> Result<Scheduled, ScheduleError> {
        let retargeted;
        let solver = if self.arch() == arch {
            self
        } else {
            retargeted = self.for_arch(arch);
            &retargeted
        };
        let result = solver.schedule(layer).map_err(|e| ScheduleError::Solver {
            scheduler: "cosa".to_string(),
            layer: layer.name().to_string(),
            message: e.to_string(),
        })?;
        let (latency_cycles, energy_pj) = evaluate(arch, layer, &result.schedule)?;
        Ok(Scheduled {
            scheduler: "cosa".to_string(),
            layer: layer.name().to_string(),
            schedule: result.schedule,
            latency_cycles,
            energy_pj,
            elapsed: result.solve_time,
            stats: ScheduleStats {
                samples: 1,
                evaluations: 1,
                milp_nodes: result.stats.nodes as u64,
                milp_objective: Some(result.milp_objective),
            },
        })
    }
}

impl Scheduler for SatScheduler {
    fn name(&self) -> &str {
        "sat"
    }

    fn fingerprint(&self) -> String {
        let w = self.weights();
        format!(
            "sat:w=({},{},{}):budget={:?}",
            w.w_util,
            w.w_comp,
            w.w_traf,
            self.conflict_budget(),
        )
    }

    fn schedule(&self, arch: &Arch, layer: &Layer) -> Result<Scheduled, ScheduleError> {
        let retargeted;
        let solver = if self.arch() == arch {
            self
        } else {
            retargeted = self.for_arch(arch);
            &retargeted
        };
        let result = solver.schedule(layer).map_err(|e| {
            let layer_name = layer.name().to_string();
            match e {
                SatError::Budget => ScheduleError::NoValidSchedule {
                    scheduler: "sat".to_string(),
                    layer: layer_name,
                },
                other => ScheduleError::Solver {
                    scheduler: "sat".to_string(),
                    layer: layer_name,
                    message: other.to_string(),
                },
            }
        })?;
        let (latency_cycles, energy_pj) = evaluate(arch, layer, &result.schedule)?;
        Ok(Scheduled {
            scheduler: "sat".to_string(),
            layer: layer.name().to_string(),
            schedule: result.schedule,
            latency_cycles,
            energy_pj,
            elapsed: result.solve_time,
            stats: ScheduleStats {
                samples: 1,
                evaluations: 1,
                milp_nodes: result.stats.conflicts,
                milp_objective: Some(result.objective),
            },
        })
    }
}

/// Layers with at most this many prime-factor instances go to the SAT
/// backend, larger ones to the MILP. Measured on the `portfolio_cold`
/// shapes, SAT proves optimality faster up to 14 factors and the MILP
/// reaches its answer faster from 15 on (README, "Solver portfolio").
const SAT_MAX_FACTORS: usize = 14;

/// A two-backend scheduler that sends each layer to exactly one exact
/// solver, picked by its prime-factor count: SAT ([`SatScheduler`]) for
/// layers with at most 14 factor instances, the MILP ([`CosaScheduler`])
/// for the rest.
///
/// The pick depends only on the layer, so the answer is whatever the
/// chosen backend returns alone: as reproducible as that backend's
/// configuration. The chosen backend's name is kept in
/// [`Scheduled::scheduler`] (`"cosa"` or `"sat"`), which is how the engine
/// attributes per-backend solves and cache provenance. A backend's error
/// is returned as is; the other backend is not tried.
#[derive(Debug, Clone)]
pub struct PortfolioScheduler {
    milp: CosaScheduler,
    sat: SatScheduler,
}

impl PortfolioScheduler {
    /// A portfolio over `arch`: SAT with an unbounded conflict budget, so
    /// its answers are optimality proofs, and the default
    /// [`CosaScheduler`], which stops at a 3 % gap or its 6 s clock — a
    /// MILP answer whose clock binds is not bit-reproducible.
    pub fn new(arch: &Arch) -> PortfolioScheduler {
        PortfolioScheduler {
            milp: CosaScheduler::new(arch),
            sat: SatScheduler::new(arch).with_conflict_budget(None),
        }
    }

    /// A portfolio over explicit backend configurations; a node-limited
    /// MILP ([`CosaScheduler::with_deterministic_limits`]) makes every
    /// answer reproducible.
    pub fn from_parts(milp: CosaScheduler, sat: SatScheduler) -> PortfolioScheduler {
        PortfolioScheduler { milp, sat }
    }

    /// The MILP side.
    pub fn milp(&self) -> &CosaScheduler {
        &self.milp
    }

    /// The SAT side.
    pub fn sat(&self) -> &SatScheduler {
        &self.sat
    }
}

impl Scheduler for PortfolioScheduler {
    fn name(&self) -> &str {
        "portfolio"
    }

    fn fingerprint(&self) -> String {
        format!(
            "portfolio[sat if factors<={SAT_MAX_FACTORS} else cosa | {} | {}]",
            Scheduler::fingerprint(&self.milp),
            Scheduler::fingerprint(&self.sat),
        )
    }

    fn schedule(&self, arch: &Arch, layer: &Layer) -> Result<Scheduled, ScheduleError> {
        if layer.factor_instances().len() <= SAT_MAX_FACTORS {
            Scheduler::schedule(&self.sat, arch, layer)
        } else {
            Scheduler::schedule(&self.milp, arch, layer)
        }
    }
}

impl Scheduler for RandomMapper {
    fn name(&self) -> &str {
        "random"
    }

    fn fingerprint(&self) -> String {
        format!(
            "random:seed={}:limits={:?}:obj={:?}",
            self.seed(),
            self.limits(),
            self.objective(),
        )
    }

    fn schedule(&self, arch: &Arch, layer: &Layer) -> Result<Scheduled, ScheduleError> {
        let start = Instant::now();
        // Per-layer seed mixing keeps network-batch searches decorrelated
        // while staying reproducible for a given (seed, layer) pair.
        let mapper = RandomMapper::new(layer_seed(self.seed(), layer.name()));
        let objective = self.objective();
        let out = mapper.search_by(arch, layer, &self.limits(), |e| objective.metric(e));
        let best = out.best.ok_or_else(|| ScheduleError::NoValidSchedule {
            scheduler: "random".to_string(),
            layer: layer.name().to_string(),
        })?;
        Ok(Scheduled {
            scheduler: "random".to_string(),
            layer: layer.name().to_string(),
            schedule: best,
            latency_cycles: out.best_latency,
            energy_pj: out.best_energy,
            elapsed: start.elapsed(),
            stats: ScheduleStats {
                samples: out.samples,
                evaluations: out.evaluations,
                milp_nodes: 0,
                milp_objective: None,
            },
        })
    }
}

impl Scheduler for HybridMapper {
    fn name(&self) -> &str {
        "hybrid"
    }

    fn fingerprint(&self) -> String {
        format!(
            "hybrid:config={:?}:obj={:?}",
            self.config(),
            self.objective()
        )
    }

    fn schedule(&self, arch: &Arch, layer: &Layer) -> Result<Scheduled, ScheduleError> {
        let start = Instant::now();
        let config = HybridConfig {
            seed: layer_seed(self.config().seed, layer.name()),
            ..self.config()
        };
        let objective = self.objective();
        let out = HybridMapper::new(config).search_by(arch, layer, |e| objective.metric(e));
        let best = out.best.ok_or_else(|| ScheduleError::NoValidSchedule {
            scheduler: "hybrid".to_string(),
            layer: layer.name().to_string(),
        })?;
        Ok(Scheduled {
            scheduler: "hybrid".to_string(),
            layer: layer.name().to_string(),
            schedule: best,
            latency_cycles: out.best_latency,
            energy_pj: out.best_energy,
            elapsed: start.elapsed(),
            stats: ScheduleStats {
                samples: out.samples,
                evaluations: out.evaluations,
                milp_nodes: 0,
                milp_objective: None,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosa_mappers::SearchLimits;

    #[test]
    fn trait_and_inherent_cosa_agree() {
        let arch = Arch::simba_baseline();
        let layer = Layer::conv("t", 3, 3, 4, 4, 8, 8, 1, 1, 1);
        let cosa = CosaScheduler::new(&arch);
        let via_trait = Scheduler::schedule(&cosa, &arch, &layer).expect("feasible");
        let via_inherent = cosa.schedule(&layer).expect("feasible");
        assert_eq!(via_trait.schedule, via_inherent.schedule);
        assert_eq!(via_trait.scheduler, "cosa");
        assert!(via_trait.stats.milp_objective.is_some());
    }

    #[test]
    fn fingerprints_distinguish_configs() {
        let a = RandomMapper::new(1).fingerprint();
        let b = RandomMapper::new(2).fingerprint();
        let c = RandomMapper::new(1)
            .with_limits(SearchLimits::quick())
            .fingerprint();
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn random_mapper_reports_budget_exhaustion() {
        let arch = Arch::simba_baseline();
        // A hard layer with a budget too small to find anything valid.
        let layer = Layer::parse_paper_name("3_7_512_512_1").unwrap();
        let mapper = RandomMapper::new(3).with_limits(SearchLimits {
            valid_target: 1,
            max_samples: 1,
        });
        match Scheduler::schedule(&mapper, &arch, &layer) {
            Err(ScheduleError::NoValidSchedule { scheduler, .. }) => {
                assert_eq!(scheduler, "random")
            }
            other => panic!("expected NoValidSchedule, got {other:?}"),
        }
    }
}
