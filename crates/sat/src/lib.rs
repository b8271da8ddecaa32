//! # cosa-sat
//!
//! A from-scratch SAT scheduling backend for the CoSA reproduction: a CDCL
//! solver with pseudo-Boolean constraints ([`Solver`]), an exact encoding
//! of CoSA's prime-factor placement / permutation / capacity constraints
//! ([`encode::SatProgram`]), and a one-shot [`SatScheduler`] that optimizes
//! the Eq. 12 objective by iterative bound-tightening and extracts the same
//! loop-nest schedules as the MILP path.
//!
//! The encoding mirrors `cosa_core::CosaProgram` constraint for constraint
//! (same coefficients, same epsilon placement), so the SAT and MILP
//! backends share one feasible set and one optimum — the umbrella crate's
//! portfolio sends each layer to exactly one of them, by factor count,
//! without changing which optimum is meant.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod encode;
mod scheduler;
mod solver;

pub use encode::{Proof, SatProgram};
pub use scheduler::{SatError, SatOutcome, SatScheduler};
pub use solver::{Lit, SatStats, SolveOutcome, Solver, Var};
