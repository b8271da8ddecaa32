//! # cosa-milp
//!
//! A self-contained mixed-integer linear programming (MILP) solver, built
//! from scratch for the CoSA reproduction. It stands in for the Gurobi
//! optimizer used by the paper (Sec. IV-C): CoSA's scheduling programs are
//! small (a few hundred variables) and have tight LP relaxations, so an
//! exact textbook solver recovers the same optima.
//!
//! The solver consists of:
//!
//! * a modelling layer ([`Model`], [`LinExpr`], [`Var`]) for assembling
//!   variables, linear constraints and a linear objective;
//! * a bounded-variable **revised simplex** on a dense maintained basis
//!   inverse ([`simplex`]): a two-phase primal solve with Bland
//!   anti-cycling fallback for an LP met cold, and a persistent workspace
//!   with a **dual simplex** that re-optimizes from a stored or live basis
//!   after a change of bounds, falling back to the cold solve on any
//!   numerical failure;
//! * **branch-and-bound** over integer/binary variables ([`branch`]) with
//!   best-first node selection in a total (deterministic) order,
//!   most-fractional branching, warm-started node LPs and a chained
//!   LP-diving primal heuristic.
//!
//! # Example
//!
//! Solve a tiny knapsack:
//!
//! ```
//! use cosa_milp::{Model, Sense, Cmp};
//!
//! let mut m = Model::new(Sense::Maximize);
//! let x = m.add_binary("x");
//! let y = m.add_binary("y");
//! let z = m.add_binary("z");
//! // weights 3, 4, 5; capacity 7; values 4, 5, 6
//! m.add_constraint(3.0 * x + 4.0 * y + 5.0 * z, Cmp::Le, 7.0);
//! m.set_objective(4.0 * x + 5.0 * y + 6.0 * z);
//! let sol = m.solve()?;
//! assert_eq!(sol.objective().round() as i64, 9); // take x and y
//! # Ok::<(), cosa_milp::MilpError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod branch;
mod error;
mod expr;
mod model;
pub mod simplex;

pub use error::MilpError;
pub use expr::{LinExpr, Var};
pub use model::{
    Cmp, Constraint, Model, Sense, Solution, SolveOptions, SolveStats, Status, VarKind,
};
