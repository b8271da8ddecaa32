//! Model assembly: variables, constraints, objective, solve entry points.

use std::fmt;
use std::time::Duration;

use crate::branch;
use crate::error::MilpError;
use crate::expr::{LinExpr, Var};

/// Variable domain kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarKind {
    /// Real-valued within its bounds.
    Continuous,
    /// Integer-valued within its bounds.
    Integer,
    /// Shorthand for an integer variable with bounds `[0, 1]`.
    Binary,
}

/// Constraint comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cmp {
    /// `lhs ≤ rhs`
    Le,
    /// `lhs ≥ rhs`
    Ge,
    /// `lhs = rhs`
    Eq,
}

impl fmt::Display for Cmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Cmp::Le => "<=",
            Cmp::Ge => ">=",
            Cmp::Eq => "=",
        })
    }
}

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sense {
    /// Minimize the objective.
    Minimize,
    /// Maximize the objective.
    Maximize,
}

/// A stored linear constraint `expr cmp rhs` (any constant in `expr` has
/// been folded into `rhs`).
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// Left-hand side (no constant term).
    pub expr: LinExpr,
    /// Comparison operator.
    pub cmp: Cmp,
    /// Right-hand side.
    pub rhs: f64,
    /// Optional name for diagnostics.
    pub name: Option<String>,
}

#[derive(Debug, Clone)]
pub(crate) struct VarDef {
    pub name: String,
    pub lb: f64,
    pub ub: f64,
    pub kind: VarKind,
}

/// Result status of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Status {
    /// Proven optimal (within the gap tolerance).
    Optimal,
    /// Feasible but a node/time limit stopped the proof of optimality.
    Feasible,
}

/// Solver knobs.
///
/// Schedulers fingerprint an option set with `{:?}`, so the field order is
/// part of every cache key.
#[derive(Debug, Clone)]
pub struct SolveOptions {
    /// Stop after this many branch-and-bound nodes (best incumbent is
    /// returned with [`Status::Feasible`]).
    pub node_limit: usize,
    /// Wall-clock limit.
    pub time_limit: Option<Duration>,
    /// Relative optimality gap at which the search stops.
    pub gap_tol: f64,
    /// Integrality tolerance.
    pub int_tol: f64,
    /// Maximum simplex iterations per LP solve.
    pub max_lp_iters: usize,
    /// Optional feasible starting point (all variables, by index). Used as
    /// the initial incumbent when it checks out, so the solver always has
    /// something to return and can prune immediately.
    pub warm_start: Option<Vec<f64>>,
}

impl Default for SolveOptions {
    fn default() -> SolveOptions {
        SolveOptions {
            node_limit: 200_000,
            time_limit: Some(Duration::from_secs(120)),
            gap_tol: 1e-6,
            int_tol: 1e-6,
            max_lp_iters: 50_000,
            warm_start: None,
        }
    }
}

/// Summary statistics from a solve.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolveStats {
    /// Branch-and-bound nodes processed.
    pub nodes: usize,
    /// Total simplex iterations across all LP solves.
    pub simplex_iters: usize,
    /// Best proven bound on the optimum (in the model's sense).
    pub best_bound: f64,
}

/// An optimal (or best-found) assignment.
#[derive(Debug, Clone)]
pub struct Solution {
    pub(crate) values: Vec<f64>,
    pub(crate) objective: f64,
    pub(crate) status: Status,
    pub(crate) stats: SolveStats,
}

impl Solution {
    /// Objective value of this solution (in the model's sense).
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Value of variable `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to the solved model.
    pub fn value(&self, v: Var) -> f64 {
        self.values[v.index()]
    }

    /// Value of `v` rounded to the nearest integer (use for
    /// integer/binary variables).
    pub fn value_round(&self, v: Var) -> i64 {
        self.values[v.index()].round() as i64
    }

    /// All variable values, indexed by [`Var::index`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Whether optimality was proven.
    pub fn status(&self) -> Status {
        self.status
    }

    /// Search statistics.
    pub fn stats(&self) -> SolveStats {
        self.stats
    }
}

/// A mixed-integer linear program.
///
/// See the [crate docs](crate) for a worked example.
#[derive(Debug, Clone)]
pub struct Model {
    pub(crate) vars: Vec<VarDef>,
    pub(crate) constraints: Vec<Constraint>,
    pub(crate) objective: LinExpr,
    pub(crate) sense: Sense,
}

impl Model {
    /// An empty model with the given optimization sense.
    pub fn new(sense: Sense) -> Model {
        Model {
            vars: Vec::new(),
            constraints: Vec::new(),
            objective: LinExpr::new(),
            sense,
        }
    }

    /// Add a continuous variable with bounds `[lb, ub]` (either may be
    /// infinite).
    pub fn add_continuous(&mut self, name: impl Into<String>, lb: f64, ub: f64) -> Var {
        self.push_var(name.into(), lb, ub, VarKind::Continuous)
    }

    /// Add an integer variable with bounds `[lb, ub]`.
    pub fn add_integer(&mut self, name: impl Into<String>, lb: f64, ub: f64) -> Var {
        self.push_var(name.into(), lb, ub, VarKind::Integer)
    }

    /// Add a binary (0/1) variable.
    pub fn add_binary(&mut self, name: impl Into<String>) -> Var {
        self.push_var(name.into(), 0.0, 1.0, VarKind::Binary)
    }

    fn push_var(&mut self, name: String, lb: f64, ub: f64, kind: VarKind) -> Var {
        self.vars.push(VarDef { name, lb, ub, kind });
        Var(self.vars.len() - 1)
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// The optimization sense.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Name of variable `v` (as given at creation).
    pub fn var_name(&self, v: Var) -> &str {
        &self.vars[v.index()].name
    }

    /// Bounds of variable `v`.
    pub fn var_bounds(&self, v: Var) -> (f64, f64) {
        let d = &self.vars[v.index()];
        (d.lb, d.ub)
    }

    /// Kind of variable `v`.
    pub fn var_kind(&self, v: Var) -> VarKind {
        self.vars[v.index()].kind
    }

    /// Tighten the bounds of `v` (used by branch-and-bound; also handy for
    /// warm-fixing variables).
    pub fn set_bounds(&mut self, v: Var, lb: f64, ub: f64) {
        self.vars[v.index()].lb = lb;
        self.vars[v.index()].ub = ub;
    }

    /// Add the constraint `lhs cmp rhs`. Constant terms on the left are
    /// folded into the right-hand side.
    pub fn add_constraint(&mut self, lhs: impl Into<LinExpr>, cmp: Cmp, rhs: f64) {
        self.add_named_constraint(lhs, cmp, rhs, None::<&str>);
    }

    /// Add a named constraint (the name shows up in diagnostics).
    pub fn add_named_constraint(
        &mut self,
        lhs: impl Into<LinExpr>,
        cmp: Cmp,
        rhs: f64,
        name: Option<impl Into<String>>,
    ) {
        let lhs = lhs.into();
        let rhs = rhs - lhs.constant();
        let mut expr = lhs;
        // zero out the constant: it has been folded into rhs
        expr += LinExpr::constant_expr(-expr.constant());
        self.constraints.push(Constraint {
            expr,
            cmp,
            rhs,
            name: name.map(|n| n.into()),
        });
    }

    /// Set the linear objective. Constant terms are preserved and included
    /// in reported objective values.
    pub fn set_objective(&mut self, obj: impl Into<LinExpr>) {
        self.objective = obj.into();
    }

    /// The current objective expression.
    pub fn objective(&self) -> &LinExpr {
        &self.objective
    }

    /// The stored constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Check that all referenced variables exist and all numbers are finite.
    ///
    /// # Errors
    ///
    /// Returns [`MilpError::BadModel`] or [`MilpError::BadVar`] describing
    /// the problem.
    pub fn validate(&self) -> Result<(), MilpError> {
        for (i, v) in self.vars.iter().enumerate() {
            if v.lb > v.ub {
                return Err(MilpError::BadModel(format!(
                    "variable {} has lb {} > ub {}",
                    v.name, v.lb, v.ub
                )));
            }
            if v.lb.is_nan() || v.ub.is_nan() {
                return Err(MilpError::BadModel(format!(
                    "variable {} has NaN bound",
                    v.name
                )));
            }
            let _ = i;
        }
        let check_expr = |e: &LinExpr| -> Result<(), MilpError> {
            if let Some(mi) = e.max_index() {
                if mi >= self.vars.len() {
                    return Err(MilpError::BadVar(mi));
                }
            }
            for (_, c) in e.iter() {
                if !c.is_finite() {
                    return Err(MilpError::BadModel("non-finite coefficient".into()));
                }
            }
            Ok(())
        };
        check_expr(&self.objective)?;
        for c in &self.constraints {
            check_expr(&c.expr)?;
            if !c.rhs.is_finite() {
                return Err(MilpError::BadModel("non-finite rhs".into()));
            }
        }
        Ok(())
    }

    /// Solve with default options.
    ///
    /// # Errors
    ///
    /// * [`MilpError::Infeasible`] / [`MilpError::Unbounded`] for problems
    ///   without an optimum,
    /// * [`MilpError::LimitWithoutSolution`] if limits were exhausted before
    ///   any integer-feasible point appeared,
    /// * [`MilpError::BadModel`] / [`MilpError::BadVar`] for malformed input.
    pub fn solve(&self) -> Result<Solution, MilpError> {
        self.solve_with(&SolveOptions::default())
    }

    /// Solve with explicit options.
    ///
    /// # Errors
    ///
    /// See [`Model::solve`].
    pub fn solve_with(&self, opts: &SolveOptions) -> Result<Solution, MilpError> {
        self.validate()?;
        branch::solve(self, opts)
    }

    /// `true` iff `values` satisfies every constraint, all variable bounds
    /// and integrality to within `tol`.
    pub fn is_feasible(&self, values: &[f64], tol: f64) -> bool {
        if values.len() != self.vars.len() {
            return false;
        }
        for (i, v) in self.vars.iter().enumerate() {
            let x = values[i];
            if x < v.lb - tol || x > v.ub + tol {
                return false;
            }
            if !matches!(v.kind, VarKind::Continuous) && (x - x.round()).abs() > tol {
                return false;
            }
        }
        for c in &self.constraints {
            let lhs = c.expr.eval(values);
            let ok = match c.cmp {
                Cmp::Le => lhs <= c.rhs + tol,
                Cmp::Ge => lhs >= c.rhs - tol,
                Cmp::Eq => (lhs - c.rhs).abs() <= tol,
            };
            if !ok {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_fold_into_rhs() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous("x", 0.0, 10.0);
        m.add_constraint(x + 3.0, Cmp::Le, 5.0);
        assert_eq!(m.constraints()[0].rhs, 2.0);
        assert_eq!(m.constraints()[0].expr.constant(), 0.0);
    }

    #[test]
    fn validate_catches_reversed_bounds() {
        let mut m = Model::new(Sense::Minimize);
        m.add_continuous("x", 5.0, 1.0);
        assert!(matches!(m.validate(), Err(MilpError::BadModel(_))));
    }

    #[test]
    fn validate_catches_foreign_var() {
        let mut m1 = Model::new(Sense::Minimize);
        let mut m2 = Model::new(Sense::Minimize);
        let _a = m1.add_binary("a");
        let b = m1.add_binary("b");
        m2.add_constraint(LinExpr::from(b), Cmp::Le, 1.0);
        assert!(matches!(m2.validate(), Err(MilpError::BadVar(1))));
    }

    #[test]
    fn debug_format_is_pinned() {
        // Schedulers fingerprint their options with `{:?}` and cache keys
        // are derived from the fingerprint, so the format must not move.
        assert_eq!(
            format!("{:?}", SolveOptions::default()),
            "SolveOptions { node_limit: 200000, time_limit: Some(120s), gap_tol: 1e-6, \
             int_tol: 1e-6, max_lp_iters: 50000, warm_start: None }"
        );
    }

    #[test]
    fn feasibility_checker() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_integer("x", 0.0, 4.0);
        let y = m.add_continuous("y", 0.0, 4.0);
        m.add_constraint(x + y, Cmp::Le, 5.0);
        assert!(m.is_feasible(&[2.0, 3.0], 1e-9));
        assert!(!m.is_feasible(&[2.5, 1.0], 1e-9)); // x not integral
        assert!(!m.is_feasible(&[4.0, 2.0], 1e-9)); // violates constraint
        assert!(!m.is_feasible(&[5.0, 0.0], 1e-9)); // violates bound
    }
}
