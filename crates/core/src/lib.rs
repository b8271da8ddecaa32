//! # cosa-core
//!
//! CoSA: one-shot DNN-accelerator scheduling by constrained optimization
//! (Huang et al., ISCA 2021).
//!
//! CoSA expresses the three operator-level scheduling decisions — loop
//! tiling, loop permutation and spatial mapping — as a single mixed-integer
//! program over a *prime-factor allocation* (Sec. III):
//!
//! * every loop bound of the layer is factorized into primes;
//! * each prime factor is assigned one memory level and a spatial or
//!   temporal mapping (the binary matrix `X` of Table III — here aggregated
//!   per `(dimension, prime)` group, a pure symmetry reduction);
//! * the temporal factors at the NoC level additionally receive a
//!   permutation rank (`O0..OZ`), which drives the data-reuse term of the
//!   traffic objective (Eq. 9–10);
//! * buffer capacities (Eq. 1–2) and spatial resources (Eq. 3–4) become
//!   linear constraints in the log domain;
//! * utilization (Eq. 5), compute (Eq. 6) and traffic (Eq. 7–11) combine
//!   into the overall objective `Ô = −wU·Û + wC·Ĉ + wT·T̂` (Eq. 12).
//!
//! The program is stated once ([`statement`]) and lowered to the MILP of
//! [`CosaProgram`], to the SAT backend's encoding and to the exact dynamic
//! program of [`exact`]. Solving the MILP with [`cosa_milp`] yields a
//! complete schedule in one shot — no iterative search.
//!
//! # Example
//!
//! ```
//! use cosa_spec::{Arch, Layer};
//! use cosa_core::CosaScheduler;
//!
//! let arch = Arch::simba_baseline();
//! let layer = Layer::parse_paper_name("3_7_512_512_1")?;
//! // A node budget rather than the default clock: the same schedule on
//! // every machine.
//! let scheduler = CosaScheduler::new(&arch).with_deterministic_limits(300);
//! let result = scheduler.schedule(&layer)?;
//! // The one-shot schedule is always valid for the architecture.
//! assert!(result.schedule.is_valid(&layer, &arch));
//! println!("{}", result.schedule.render(&arch));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
pub mod exact;
mod formulation;
pub mod objective;
mod scheduler;
pub mod statement;

pub use error::CosaError;
pub use formulation::{CosaProgram, FactorAssignment, ObjectiveKind};
pub use objective::{ObjectiveBreakdown, ObjectiveWeights};
pub use scheduler::{extract_schedule, refine_intra_level_order, CosaResult, CosaScheduler};
