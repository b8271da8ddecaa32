//! Bounded-variable revised simplex — primal and dual — on a dense
//! maintained basis inverse, in a workspace that outlives the single solve.
//!
//! The LP is solved in *computational form*: `minimize c'x` subject to
//! `A·x + s = b` with variable bounds `l ≤ x ≤ u`, where one slack `s_i` per
//! row encodes the constraint sense through its bounds
//! (`≤` → `s ∈ [0, ∞)`, `≥` → `s ∈ (−∞, 0]`, `=` → `s ∈ [0, 0]`).
//!
//! **Cold solve.** A two-phase primal start with implicit artificial columns
//! finds a feasible basis (artificials that end phase 1 basic at zero are
//! swapped for their row's slack, so a finished solve holds real columns
//! only); phase 2 then optimizes the true costs. Dantzig pricing is used with
//! a fallback to Bland's rule when the objective stalls, which guarantees
//! termination. This is [`LpProblem::solve`] / [`LpProblem::solve_with_bounds`]
//! and the first LP of a branch-and-bound search.
//!
//! **Warm solve.** Branch-and-bound and its dives solve long chains of LPs
//! that differ from one already solved by a bound or two, and phase 1 used
//! to be ~95 % of their pivots. A `Workspace` therefore keeps bounds, point,
//! basis and inverse between solves: the next LP installs a stored `Basis`
//! (one refactorization, skipped when it is the live basis) or simply stays
//! on the live one, moves the nonbasic columns onto the new bounds, repairs
//! the basic variables this pushes out of range with **dual simplex** pivots
//! (leaving row = largest bound violation, entering column by the dual ratio
//! test), and lets the primal simplex finish — a no-op when the start was
//! dual feasible, which an optimal parent basis is. A violated row that no
//! nonbasic column can move proves infeasibility whatever the reduced costs
//! are, so a start that is *not* dual feasible costs pivots, never
//! correctness. Any numerical failure on this path (singular stored basis,
//! zero pivot, pivot budget) restarts the same LP cold.
//!
//! The basis inverse is maintained with product-form eta updates and
//! refactorized (dense Gauss–Jordan) every `REFACTOR_EVERY` updates and on
//! every basis install.
//!
//! **Zero skipping.** The inverse stays a dense row-major m×m array, but
//! the kernels that write it — `invert`, `eta_update` and
//! `recompute_basics` — skip the exact zeros of the row they apply (the
//! pivot row, the right-hand side), which are most of it: a basis is mostly
//! slack columns. Every nonzero entry still gets the same IEEE operations
//! in the same order, because `x − f·0 = x` for finite `x`; only the sign of
//! some zero entries of the inverse can differ from the dense loops, and no
//! decision, value or counter reads that sign. So the pivots, and with them
//! the whole branch-and-bound trajectory, are those of the dense kernels
//! bit for bit. The unit tests hold the dense kernels as the oracle.

// Dense linear-algebra kernels index row/column vectors by position on
// purpose; iterator rewrites obscure the pivot arithmetic.
#![allow(clippy::needless_range_loop)]

use crate::error::MilpError;
use crate::model::{Cmp, Model, Sense};

/// Feasibility/optimality tolerance.
const TOL: f64 = 1e-7;
/// Pivot magnitude below which a column is considered numerically zero.
const PIVOT_TOL: f64 = 1e-9;
/// Refactorize the basis inverse every this many eta updates.
const REFACTOR_EVERY: usize = 64;
/// Switch to Bland's rule after this many iterations without improvement.
const STALL_LIMIT: usize = 256;

/// Outcome of one LP solve.
#[derive(Debug, Clone, PartialEq)]
pub enum LpResult {
    /// An optimal basic solution was found.
    Optimal(LpSolution),
    /// No feasible point exists.
    Infeasible,
    /// The objective is unbounded below (in minimize form).
    Unbounded,
}

/// An optimal LP solution.
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// Objective value (in minimize form, excluding any constant term).
    pub objective: f64,
    /// Values of the structural variables.
    pub x: Vec<f64>,
    /// Pivots and bound flips this solve took (both phases).
    pub iterations: usize,
}

/// A prepared LP: the model's constraint matrix in computational form with
/// sparse columns, reusable across branch-and-bound nodes with different
/// variable bounds.
#[derive(Debug, Clone)]
pub struct LpProblem {
    /// Number of structural variables.
    n: usize,
    /// Number of rows (constraints).
    m: usize,
    /// Sparse structural + slack columns: `cols[j]` lists `(row, coeff)`.
    cols: Vec<Vec<(u32, f64)>>,
    /// Phase-2 costs for structural variables (minimize form).
    costs: Vec<f64>,
    /// Right-hand sides.
    b: Vec<f64>,
    /// Lower bounds for structural + slack variables.
    lb: Vec<f64>,
    /// Upper bounds for structural + slack variables.
    ub: Vec<f64>,
    /// +1.0 if the model was a maximization (to restore the sign).
    flip: f64,
}

impl LpProblem {
    /// Build the computational form of `model`'s LP relaxation.
    pub fn from_model(model: &Model) -> LpProblem {
        let n = model.num_vars();
        let m = model.num_constraints();
        let mut cols: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n + m];
        let mut b = Vec::with_capacity(m);
        let mut lb = vec![0.0; n + m];
        let mut ub = vec![0.0; n + m];

        for (j, lbub) in (0..n).map(|j| (j, model.var_bounds(crate::Var(j)))) {
            lb[j] = lbub.0;
            ub[j] = lbub.1;
        }
        for (i, c) in model.constraints().iter().enumerate() {
            for (j, a) in c.expr.iter() {
                cols[j].push((i as u32, a));
            }
            let s = n + i;
            cols[s].push((i as u32, 1.0));
            let (slb, sub) = match c.cmp {
                Cmp::Le => (0.0, f64::INFINITY),
                Cmp::Ge => (f64::NEG_INFINITY, 0.0),
                Cmp::Eq => (0.0, 0.0),
            };
            lb[s] = slb;
            ub[s] = sub;
            b.push(c.rhs);
        }

        let flip = match model.sense() {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };
        let mut costs = vec![0.0; n];
        for (j, c) in model.objective().iter() {
            costs[j] = flip * c;
        }
        LpProblem {
            n,
            m,
            cols,
            costs,
            b,
            lb,
            ub,
            flip,
        }
    }

    /// Number of structural variables.
    pub fn num_vars(&self) -> usize {
        self.n
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.m
    }

    /// Solve with the stored bounds.
    ///
    /// # Errors
    ///
    /// Returns [`MilpError::Numerical`] if the iteration budget is exhausted
    /// or the basis becomes singular.
    pub fn solve(&self, max_iters: usize) -> Result<LpResult, MilpError> {
        self.solve_with_bounds(None, max_iters)
    }

    /// Solve with per-node overrides of the *structural* variable bounds
    /// (used by branch-and-bound). `overrides` must have length
    /// [`LpProblem::num_vars`] when provided.
    ///
    /// # Errors
    ///
    /// Returns [`MilpError::Numerical`] on iteration exhaustion or a
    /// singular basis.
    pub fn solve_with_bounds(
        &self,
        overrides: Option<(&[f64], &[f64])>,
        max_iters: usize,
    ) -> Result<LpResult, MilpError> {
        let (lb, ub) = overrides.unwrap_or((&self.lb[..self.n], &self.ub[..self.n]));
        // A fresh workspace has no basis to resume from: this is the cold
        // two-phase solve.
        Workspace::new(self).solve(None, lb, ub, max_iters)
    }

    /// −1 if the original model was a maximization, +1 otherwise.
    pub fn sense_flip(&self) -> f64 {
        self.flip
    }
}

enum RawResult {
    Optimal,
    Infeasible,
    Unbounded,
}

/// Nonbasic status of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NbStatus {
    AtLower,
    AtUpper,
    /// Free variable resting at zero.
    Free,
}

/// A basis of real (structural + slack) columns together with the bound
/// every nonbasic column rests at: all a [`Workspace`] needs, besides the
/// bounds themselves, to resume from the vertex it was taken at.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Basis {
    /// Column index in the basis, per row position.
    basis: Vec<usize>,
    /// Status per real column (ignored for basic columns).
    nb_status: Vec<NbStatus>,
}

/// A persistent simplex state over one [`LpProblem`]: bounds, point, basis
/// and the dense basis inverse survive from one solve to the next, so an LP
/// that differs from the last one by a few bounds is re-optimized from the
/// vertex already at hand instead of from an all-artificial basis.
pub(crate) struct Workspace<'a> {
    prob: &'a LpProblem,
    m: usize,
    /// Total real columns (structural + slack).
    ncols: usize,
    lb: Vec<f64>,
    ub: Vec<f64>,
    /// Current value per real column.
    x: Vec<f64>,
    /// Column index in basis per row; `ART_BASE + i` encodes artificial i.
    basis: Vec<usize>,
    /// Row occupied by a basic column, `None` if nonbasic.
    basic_row: Vec<Option<u32>>,
    /// Status of nonbasic columns.
    nb_status: Vec<NbStatus>,
    /// Dense row-major basis inverse (m×m).
    binv: Vec<f64>,
    /// m×m scratch the basis matrix is assembled in before inversion.
    scratch: Vec<f64>,
    /// `(index, value)` nonzeros of the row a kernel applies: the scaled
    /// pivot row of `binv` (or of the inverse being built), or the
    /// right-hand side in `recompute_basics`.
    row_nz: Vec<(usize, f64)>,
    /// The same for the pivot row of `scratch` during an inversion.
    scratch_row_nz: Vec<(usize, f64)>,
    /// Signs of the implicit artificial columns (`±e_i`).
    art_sign: Vec<f64>,
    /// Artificial values (basic artificials only, tracked via basis).
    art_value: Vec<f64>,
    /// Pivots and bound flips over every LP solved in this workspace.
    iterations: usize,
    updates_since_refactor: usize,
    /// `basis`, `binv` and `x` describe a basis of real columns with a
    /// consistent inverse, i.e. something a warm solve can start from.
    warm_ok: bool,
}

const ART_BASE: usize = usize::MAX / 2;

impl<'a> Workspace<'a> {
    pub(crate) fn new(prob: &'a LpProblem) -> Workspace<'a> {
        let m = prob.m;
        let ncols = prob.n + prob.m;
        Workspace {
            prob,
            m,
            ncols,
            lb: prob.lb.clone(),
            ub: prob.ub.clone(),
            x: vec![0.0; ncols],
            basis: vec![0; m],
            basic_row: vec![None; ncols],
            nb_status: vec![NbStatus::AtLower; ncols],
            binv: vec![0.0; m * m],
            scratch: vec![0.0; m * m],
            row_nz: Vec::with_capacity(m),
            scratch_row_nz: Vec::with_capacity(m),
            art_sign: vec![1.0; m],
            art_value: vec![0.0; m],
            iterations: 0,
            updates_since_refactor: 0,
            warm_ok: false,
        }
    }

    /// Pivots and bound flips performed so far, over every solve.
    pub(crate) fn iterations(&self) -> usize {
        self.iterations
    }

    /// The current basis and nonbasic statuses. Meaningful after a solve
    /// that returned [`LpResult::Optimal`].
    pub(crate) fn snapshot(&self) -> Basis {
        debug_assert!(self.warm_ok);
        Basis {
            basis: self.basis.clone(),
            nb_status: self.nb_status.clone(),
        }
    }

    /// Solve the LP under the structural bounds `lb`/`ub`.
    ///
    /// With `from`, the solve starts at that basis (refactorized unless it
    /// is the live one); without, at the basis the previous solve ended on.
    /// Either way the new bounds are applied to it, a dual simplex repairs
    /// the basic variables they push out of range, and the primal simplex
    /// finishes. A fresh workspace, a state the last solve left unusable,
    /// or a numerical failure along the warm path all end in the cold
    /// two-phase solve instead, so the answer never depends on the start.
    ///
    /// # Errors
    ///
    /// Returns [`MilpError::Numerical`] when the cold solve exhausts
    /// `max_iters` or meets a singular basis.
    pub(crate) fn solve(
        &mut self,
        from: Option<&Basis>,
        lb: &[f64],
        ub: &[f64],
        max_iters: usize,
    ) -> Result<LpResult, MilpError> {
        let n = self.prob.n;
        self.lb[..n].copy_from_slice(lb);
        self.ub[..n].copy_from_slice(ub);
        if (0..n).any(|j| lb[j] > ub[j] + TOL) {
            return Ok(LpResult::Infeasible);
        }
        let start = self.iterations;
        let warm = match from {
            Some(b) => self.install(b).is_ok(),
            None => self.warm_ok,
        };
        if warm {
            // A warm solve that needs more pivots than this is cheaper to
            // restart; the cold path then gets the caller's full budget.
            let limit = start + max_iters.min(4 * (self.m + self.ncols));
            match self.reoptimize(limit) {
                Ok(raw) => return Ok(self.result(raw, start)),
                Err(MilpError::Numerical(_)) => {}
                Err(e) => return Err(e),
            }
        }
        self.warm_ok = false;
        self.reset_cold();
        let raw = self.run_cold(self.iterations + max_iters)?;
        self.warm_ok = matches!(raw, RawResult::Optimal | RawResult::Unbounded);
        Ok(self.result(raw, start))
    }

    fn result(&self, raw: RawResult, start: usize) -> LpResult {
        let n = self.prob.n;
        match raw {
            // `costs` are in minimize form; report the minimize-form value
            // (branch-and-bound works in that form and restores the
            // caller's sense at the end).
            RawResult::Optimal => LpResult::Optimal(LpSolution {
                objective: (0..n).map(|j| self.prob.costs[j] * self.x[j]).sum(),
                x: self.x[..n].to_vec(),
                iterations: self.iterations - start,
            }),
            RawResult::Infeasible => LpResult::Infeasible,
            RawResult::Unbounded => LpResult::Unbounded,
        }
    }

    /// Rest nonbasic column `j` at a finite bound, keeping its side when
    /// that bound still exists (a flip could cost dual feasibility).
    fn rest_at_bound(&mut self, j: usize) {
        let (l, u) = (self.lb[j], self.ub[j]);
        let status = match self.nb_status[j] {
            NbStatus::AtUpper if u.is_finite() => NbStatus::AtUpper,
            _ if l.is_finite() => NbStatus::AtLower,
            _ if u.is_finite() => NbStatus::AtUpper,
            _ => NbStatus::Free,
        };
        self.nb_status[j] = status;
        self.x[j] = match status {
            NbStatus::AtLower => l,
            NbStatus::AtUpper => u,
            NbStatus::Free => 0.0,
        };
    }

    /// Start over from the all-artificial basis at the current bounds.
    fn reset_cold(&mut self) {
        let m = self.m;
        self.basic_row.fill(None);
        // Rest every real column at a finite bound (preferring lower).
        self.nb_status.fill(NbStatus::AtLower);
        for j in 0..self.ncols {
            self.rest_at_bound(j);
        }
        // Residual r = b − A·x determines artificial signs and values.
        let mut r = self.prob.b.clone();
        for (j, x_j) in self.x.iter().enumerate() {
            if *x_j != 0.0 {
                for &(i, a) in &self.prob.cols[j] {
                    r[i as usize] -= a * x_j;
                }
            }
        }
        self.binv.fill(0.0);
        for i in 0..m {
            self.art_sign[i] = if r[i] >= 0.0 { 1.0 } else { -1.0 };
            self.art_value[i] = r[i].abs();
            self.basis[i] = ART_BASE + i;
            // B = diag(art_sign) → B⁻¹ = diag(art_sign).
            self.binv[i * m + i] = self.art_sign[i];
        }
        self.updates_since_refactor = 0;
    }

    /// Make `from` the current basis, refactorizing unless it already is.
    fn install(&mut self, from: &Basis) -> Result<(), MilpError> {
        if self.warm_ok && self.basis == from.basis && self.nb_status == from.nb_status {
            return Ok(());
        }
        self.warm_ok = false;
        self.basis.copy_from_slice(&from.basis);
        self.nb_status.copy_from_slice(&from.nb_status);
        self.basic_row.fill(None);
        for (pos, &col) in self.basis.iter().enumerate() {
            self.basic_row[col] = Some(pos as u32);
        }
        self.factor()?;
        self.warm_ok = true;
        Ok(())
    }

    /// Re-optimize from the current basis after a change of bounds.
    fn reoptimize(&mut self, limit: usize) -> Result<RawResult, MilpError> {
        for j in 0..self.ncols {
            if self.basic_row[j].is_none() {
                self.rest_at_bound(j);
            }
        }
        self.recompute_basics();
        if !self.dual_repair(limit)? {
            return Ok(RawResult::Infeasible);
        }
        self.optimize(false, limit)
    }

    #[inline]
    fn is_artificial(col: usize) -> bool {
        col >= ART_BASE
    }

    /// Cost of a column under the current phase.
    fn cost(&self, col: usize, phase1: bool) -> f64 {
        if Self::is_artificial(col) {
            if phase1 {
                1.0
            } else {
                0.0
            }
        } else if phase1 {
            0.0
        } else if col < self.prob.n {
            self.prob.costs[col]
        } else {
            0.0
        }
    }

    /// Basic value of the column in basis position `i`.
    fn basic_value(&self, i: usize) -> f64 {
        let col = self.basis[i];
        if Self::is_artificial(col) {
            self.art_value[col - ART_BASE]
        } else {
            self.x[col]
        }
    }

    fn set_basic_value(&mut self, i: usize, v: f64) {
        let col = self.basis[i];
        if Self::is_artificial(col) {
            self.art_value[col - ART_BASE] = v;
        } else {
            self.x[col] = v;
        }
    }

    fn bounds_of(&self, col: usize) -> (f64, f64) {
        if Self::is_artificial(col) {
            // Artificials only exist in phase 1, where they may be positive.
            (0.0, f64::INFINITY)
        } else {
            (self.lb[col], self.ub[col])
        }
    }

    /// `y = c_B^T · B⁻¹` for the current phase.
    fn btran(&self, phase1: bool) -> Vec<f64> {
        let m = self.m;
        let mut y = vec![0.0; m];
        for (i, &col) in self.basis.iter().enumerate() {
            let cb = self.cost(col, phase1);
            if cb != 0.0 {
                let row = &self.binv[i * m..(i + 1) * m];
                for (yk, bk) in y.iter_mut().zip(row) {
                    *yk += cb * bk;
                }
            }
        }
        y
    }

    /// `w = B⁻¹ · A_q` for a real column `q`.
    fn ftran(&self, q: usize) -> Vec<f64> {
        let m = self.m;
        let mut w = vec![0.0; m];
        for &(i, a) in &self.prob.cols[q] {
            let i = i as usize;
            // column of binv: binv[:, i]
            for k in 0..m {
                w[k] += self.binv[k * m + i] * a;
            }
        }
        w
    }

    /// Reduced cost of real column `q`.
    fn reduced_cost(&self, q: usize, y: &[f64], phase1: bool) -> f64 {
        let mut d = self.cost(q, phase1);
        for &(i, a) in &self.prob.cols[q] {
            d -= y[i as usize] * a;
        }
        d
    }

    /// The two-phase primal solve from the all-artificial basis.
    fn run_cold(&mut self, limit: usize) -> Result<RawResult, MilpError> {
        // Phase 1: minimize the sum of artificials.
        if self.art_value.iter().any(|v| *v > TOL) {
            self.optimize(true, limit)?;
            let infeas: f64 = (0..self.m)
                .filter(|&i| Self::is_artificial(self.basis[i]))
                .map(|i| self.basic_value(i))
                .sum();
            if infeas > 1e-6 {
                return Ok(RawResult::Infeasible);
            }
        }
        // An artificial still basic sits at (numerically) zero next to its
        // row's slack, which is nonbasic at zero and the same column up to
        // sign: swap them, so that every basis from here on — and every
        // snapshot of one — holds real columns only.
        let m = self.m;
        for r in 0..m {
            let col = self.basis[r];
            if Self::is_artificial(col) {
                let i = col - ART_BASE;
                let slack = self.prob.n + i;
                debug_assert!(self.basic_row[slack].is_none());
                for v in &mut self.binv[r * m..(r + 1) * m] {
                    *v *= self.art_sign[i];
                }
                self.basis[r] = slack;
                self.basic_row[slack] = Some(r as u32);
                self.x[slack] = self.art_sign[i] * self.art_value[i];
                self.art_value[i] = 0.0;
            }
        }
        // Phase 2.
        self.optimize(false, limit)
    }

    fn objective_now(&self, phase1: bool) -> f64 {
        let mut obj = 0.0;
        for j in 0..self.ncols {
            let c = self.cost(j, phase1);
            if c != 0.0 {
                obj += c * self.x[j];
            }
        }
        if phase1 {
            obj += self.art_value.iter().sum::<f64>();
        }
        obj
    }

    fn check_budget(&self, limit: usize) -> Result<(), MilpError> {
        if self.iterations >= limit {
            return Err(MilpError::Numerical(
                "simplex iteration limit exceeded".into(),
            ));
        }
        Ok(())
    }

    /// Primal simplex from a primal-feasible basis (never `Infeasible`).
    fn optimize(&mut self, phase1: bool, limit: usize) -> Result<RawResult, MilpError> {
        let mut stall = 0usize;
        let mut last_obj = f64::INFINITY;
        loop {
            if self.updates_since_refactor >= REFACTOR_EVERY {
                self.refactorize()?;
            }
            let bland = stall >= STALL_LIMIT;
            let y = self.btran(phase1);

            // Pricing: pick the entering column.
            let mut entering: Option<(usize, f64, f64)> = None; // (col, d, dir)
            for q in 0..self.ncols {
                if self.basic_row[q].is_some() {
                    continue;
                }
                let (l, u) = self.bounds_of(q);
                if l == u {
                    continue; // fixed
                }
                let d = self.reduced_cost(q, &y, phase1);
                let (attractive, dir) = match self.nb_status[q] {
                    NbStatus::AtLower => (d < -TOL, 1.0),
                    NbStatus::AtUpper => (d > TOL, -1.0),
                    NbStatus::Free => (d.abs() > TOL, if d < 0.0 { 1.0 } else { -1.0 }),
                };
                if attractive {
                    if bland {
                        entering = Some((q, d, dir));
                        break;
                    }
                    match entering {
                        Some((_, dbest, _)) if d.abs() <= dbest.abs() => {}
                        _ => entering = Some((q, d, dir)),
                    }
                }
            }
            let Some((q, _dq, dir)) = entering else {
                return Ok(RawResult::Optimal);
            };
            self.check_budget(limit)?;

            // Ratio test: how far can the entering column move?
            let w = self.ftran(q);
            let (lq, uq) = self.bounds_of(q);
            // Candidate 1: the entering variable flips to its other bound.
            let mut t_limit = if lq.is_finite() && uq.is_finite() {
                uq - lq
            } else {
                f64::INFINITY
            };
            // Candidate 2: some basic variable hits one of its bounds.
            let mut leaving: Option<(usize, f64)> = None; // (basis pos, bound hit)
            for i in 0..self.m {
                let rate = -dir * w[i];
                if rate.abs() <= PIVOT_TOL {
                    continue;
                }
                let (lbi, ubi) = self.bounds_of(self.basis[i]);
                let xi = self.basic_value(i);
                let (t_i, hit) = if rate > 0.0 {
                    if !ubi.is_finite() {
                        continue;
                    }
                    (((ubi - xi) / rate).max(0.0), ubi)
                } else {
                    if !lbi.is_finite() {
                        continue;
                    }
                    (((lbi - xi) / rate).max(0.0), lbi)
                };
                if t_i < t_limit - 1e-12 {
                    t_limit = t_i;
                    leaving = Some((i, hit));
                } else if (t_i - t_limit).abs() <= 1e-12 {
                    // Tie: prefer the larger pivot magnitude for stability.
                    let take = match leaving {
                        Some((pos, _)) => w[i].abs() > w[pos].abs(),
                        None => true,
                    };
                    if take {
                        t_limit = t_limit.min(t_i);
                        leaving = Some((i, hit));
                    }
                }
            }

            if t_limit.is_infinite() {
                return if phase1 {
                    Err(MilpError::Numerical("phase-1 subproblem unbounded".into()))
                } else {
                    Ok(RawResult::Unbounded)
                };
            }
            let t = t_limit.max(0.0);

            // Apply the step to basic variables.
            for i in 0..self.m {
                if w[i].abs() > PIVOT_TOL && t > 0.0 {
                    let v = self.basic_value(i) - dir * t * w[i];
                    self.set_basic_value(i, v);
                }
            }

            match leaving {
                None => {
                    // Bound flip: q jumps to its other bound.
                    self.x[q] += dir * t;
                    self.nb_status[q] = match self.nb_status[q] {
                        NbStatus::AtLower => NbStatus::AtUpper,
                        NbStatus::AtUpper => NbStatus::AtLower,
                        NbStatus::Free => NbStatus::Free,
                    };
                    self.iterations += 1;
                }
                Some((r, hit)) => {
                    let new_q = self.x[q] + dir * t;
                    self.pivot(r, q, &w, hit, new_q)?;
                }
            }

            // Stall detection for Bland fallback.
            let obj = self.objective_now(phase1);
            if obj < last_obj - 1e-10 {
                stall = 0;
                last_obj = obj;
            } else {
                stall += 1;
            }
            if phase1 {
                // Early exit: all artificials at zero.
                let infeas: f64 = self
                    .basis
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| Self::is_artificial(**c))
                    .map(|(i, _)| self.basic_value(i))
                    .sum();
                if infeas <= TOL / 10.0 {
                    return Ok(RawResult::Optimal);
                }
            }
        }
    }

    /// Bounded dual simplex from a basis whose basic variables may violate
    /// their bounds: the row with the largest violation leaves at the bound
    /// it broke, the entering column comes from the dual ratio test. Returns
    /// `false` when a violated row cannot be moved, which proves the LP
    /// infeasible whatever the reduced costs are. Dual feasibility is not
    /// required of the start (a wrong-signed reduced cost counts as a zero
    /// ratio); it only makes the primal clean-up that follows a no-op.
    fn dual_repair(&mut self, limit: usize) -> Result<bool, MilpError> {
        let m = self.m;
        loop {
            if self.updates_since_refactor >= REFACTOR_EVERY {
                self.refactorize()?;
            }
            let mut leaving: Option<(usize, f64, f64)> = None; // (pos, violation, bound)
            for i in 0..m {
                let (l, u) = self.bounds_of(self.basis[i]);
                let v = self.basic_value(i);
                let (viol, bound) = if v < l { (l - v, l) } else { (v - u, u) };
                if viol > TOL && leaving.is_none_or(|(_, worst, _)| viol > worst) {
                    leaving = Some((i, viol, bound));
                }
            }
            let Some((r, _, bound)) = leaving else {
                return Ok(true);
            };
            self.check_budget(limit)?;
            // The leaving variable moves by −α_rq·Δx_q: `raise` it to its
            // lower bound or lower it to its upper bound.
            let raise = self.basic_value(r) < bound;
            let y = self.btran(false);
            let rho = &self.binv[r * m..(r + 1) * m];
            let mut best = f64::INFINITY;
            let mut entering: Option<(usize, f64)> = None; // (col, |α|)
            for q in 0..self.ncols {
                if self.basic_row[q].is_some() || self.lb[q] == self.ub[q] {
                    continue;
                }
                let alpha: f64 = self.prob.cols[q]
                    .iter()
                    .map(|&(i, a)| rho[i as usize] * a)
                    .sum();
                if alpha.abs() <= PIVOT_TOL {
                    continue;
                }
                let d = self.reduced_cost(q, &y, false);
                let slack = match self.nb_status[q] {
                    NbStatus::AtLower if (alpha < 0.0) == raise => d,
                    NbStatus::AtUpper if (alpha > 0.0) == raise => -d,
                    NbStatus::Free => d.abs(),
                    _ => continue,
                };
                let ratio = slack.max(0.0) / alpha.abs();
                // Tie: prefer the larger pivot magnitude for stability.
                if ratio < best - 1e-12
                    || ((ratio - best).abs() <= 1e-12
                        && entering.is_none_or(|(_, pivot)| alpha.abs() > pivot))
                {
                    best = best.min(ratio);
                    entering = Some((q, alpha.abs()));
                }
            }
            let Some((q, _)) = entering else {
                return Ok(false);
            };
            let w = self.ftran(q);
            if w[r].abs() <= PIVOT_TOL {
                return Err(MilpError::Numerical("zero pivot".into()));
            }
            let step = (self.basic_value(r) - bound) / w[r];
            for i in 0..m {
                if w[i].abs() > PIVOT_TOL {
                    let v = self.basic_value(i) - step * w[i];
                    self.set_basic_value(i, v);
                }
            }
            let new_q = self.x[q] + step;
            self.pivot(r, q, &w, bound, new_q)?;
        }
    }

    /// Exchange the column in basis position `r`, which leaves at `hit`,
    /// for column `q` entering at `new_q`; `w = B⁻¹·A_q`.
    fn pivot(
        &mut self,
        r: usize,
        q: usize,
        w: &[f64],
        hit: f64,
        new_q: f64,
    ) -> Result<(), MilpError> {
        let alpha = w[r];
        if alpha.abs() <= PIVOT_TOL {
            return Err(MilpError::Numerical("zero pivot".into()));
        }
        let out_col = self.basis[r];
        if Self::is_artificial(out_col) {
            self.art_value[out_col - ART_BASE] = hit;
        } else {
            self.x[out_col] = hit;
            let (lbo, ubo) = self.bounds_of(out_col);
            self.nb_status[out_col] = if (hit - lbo).abs() <= (hit - ubo).abs() {
                NbStatus::AtLower
            } else {
                NbStatus::AtUpper
            };
            self.basic_row[out_col] = None;
        }
        eta_update(&mut self.binv, self.m, r, w, &mut self.row_nz);
        self.basis[r] = q;
        self.basic_row[q] = Some(r as u32);
        self.x[q] = new_q;
        self.updates_since_refactor += 1;
        self.iterations += 1;
        Ok(())
    }

    /// Rebuild `binv` from scratch and recompute basic values.
    fn refactorize(&mut self) -> Result<(), MilpError> {
        self.factor()?;
        self.recompute_basics();
        Ok(())
    }

    /// Invert the current basis matrix into `binv`.
    fn factor(&mut self) -> Result<(), MilpError> {
        let m = self.m;
        // Assemble B column-wise into a dense row-major matrix.
        self.scratch.fill(0.0);
        for (pos, &col) in self.basis.iter().enumerate() {
            if Self::is_artificial(col) {
                let i = col - ART_BASE;
                self.scratch[i * m + pos] = self.art_sign[i];
            } else {
                for &(i, a) in &self.prob.cols[col] {
                    self.scratch[i as usize * m + pos] = a;
                }
            }
        }
        if !invert(
            &mut self.scratch,
            &mut self.binv,
            m,
            &mut self.scratch_row_nz,
            &mut self.row_nz,
        ) {
            return Err(MilpError::Numerical(
                "singular basis during refactorization".into(),
            ));
        }
        self.updates_since_refactor = 0;
        Ok(())
    }

    /// Basic values from the nonbasic ones: `x_B = B⁻¹ (b − N x_N)`.
    fn recompute_basics(&mut self) {
        let m = self.m;
        let mut rhs = self.prob.b.clone();
        for j in 0..self.ncols {
            if self.basic_row[j].is_none() && self.x[j] != 0.0 {
                for &(i, a) in &self.prob.cols[j] {
                    rhs[i as usize] -= a * self.x[j];
                }
            }
        }
        self.row_nz.clear();
        self.row_nz
            .extend(rhs.into_iter().enumerate().filter(|&(_, r)| r != 0.0));
        for pos in 0..m {
            let row = &self.binv[pos * m..(pos + 1) * m];
            let v = self.row_nz.iter().fold(0.0, |v, &(k, r)| v + row[k] * r);
            self.set_basic_value(pos, v);
        }
    }
}

/// Divide the nonzeros of `row` by `pivot` in place and list them, with
/// their indices, in `nz`.
fn scale_row(row: &mut [f64], pivot: f64, nz: &mut Vec<(usize, f64)>) {
    nz.clear();
    for (k, v) in row.iter_mut().enumerate() {
        if *v != 0.0 {
            *v /= pivot;
            nz.push((k, *v));
        }
    }
}

/// `row −= f · pivot_row`, over the pivot row's nonzeros `nz` only.
fn sub_scaled(row: &mut [f64], f: f64, nz: &[(usize, f64)]) {
    for &(k, p) in nz {
        row[k] -= f * p;
    }
}

/// Product-form update of the row-major `m×m` inverse `binv` when the
/// column with `w = B⁻¹·A_q` enters at basis position `r`: row `r` is
/// divided by the pivot `w[r]`, and `w[i]` times it is subtracted from
/// every other row `i` — over the nonzeros of row `r` only (see the module
/// doc), listed in the buffer `nz`.
fn eta_update(binv: &mut [f64], m: usize, r: usize, w: &[f64], nz: &mut Vec<(usize, f64)>) {
    scale_row(&mut binv[r * m..(r + 1) * m], w[r], nz);
    for (i, (row, &factor)) in binv.chunks_exact_mut(m).zip(w).enumerate() {
        if i != r && factor.abs() > 1e-300 {
            sub_scaled(row, factor, nz);
        }
    }
}

/// Gauss–Jordan inversion with partial pivoting of the `n×n` matrix `a`
/// (destroyed) into `inv`, skipping the exact zeros of each pivot row (see
/// the module doc); `a_nz`/`inv_nz` are buffers for those rows' nonzeros.
/// Returns `false` if the matrix is singular.
fn invert(
    a: &mut [f64],
    inv: &mut [f64],
    n: usize,
    a_nz: &mut Vec<(usize, f64)>,
    inv_nz: &mut Vec<(usize, f64)>,
) -> bool {
    inv.fill(0.0);
    for i in 0..n {
        inv[i * n + i] = 1.0;
    }
    for col in 0..n {
        // Partial pivot.
        let mut best = col;
        let mut best_val = a[col * n + col].abs();
        for r in col + 1..n {
            let v = a[r * n + col].abs();
            if v > best_val {
                best = r;
                best_val = v;
            }
        }
        if best_val < 1e-12 {
            return false;
        }
        if best != col {
            for k in 0..n {
                a.swap(col * n + k, best * n + k);
                inv.swap(col * n + k, best * n + k);
            }
        }
        let pivot = a[col * n + col];
        scale_row(&mut a[col * n..(col + 1) * n], pivot, a_nz);
        scale_row(&mut inv[col * n..(col + 1) * n], pivot, inv_nz);
        let rows = a.chunks_exact_mut(n).zip(inv.chunks_exact_mut(n));
        for (r, (a_row, inv_row)) in rows.enumerate() {
            let f = a_row[col];
            if r != col && f != 0.0 {
                sub_scaled(a_row, f, a_nz);
                sub_scaled(inv_row, f, inv_nz);
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Cmp, Model, Sense};
    use proptest::prelude::*;

    fn lp(model: &Model) -> LpResult {
        LpProblem::from_model(model)
            .solve(10_000)
            .expect("no numerical failure")
    }

    #[test]
    fn simple_2d_max() {
        // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, 0 <= x,y <= 10
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_continuous("x", 0.0, 10.0);
        let y = m.add_continuous("y", 0.0, 10.0);
        m.add_constraint(x + y, Cmp::Le, 4.0);
        m.add_constraint(x + 3.0 * y, Cmp::Le, 6.0);
        m.set_objective(3.0 * x + 2.0 * y);
        match lp(&m) {
            LpResult::Optimal(sol) => {
                // optimum at (4, 0) → minimize-form objective is -12
                assert!((sol.objective - (-12.0)).abs() < 1e-6, "{}", sol.objective);
                assert!((sol.x[0] - 4.0).abs() < 1e-6);
                assert!(sol.x[1].abs() < 1e-6);
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + 2y = 3, x - y = 0 → x = y = 1, obj 2
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous("x", 0.0, 100.0);
        let y = m.add_continuous("y", 0.0, 100.0);
        m.add_constraint(x + 2.0 * y, Cmp::Eq, 3.0);
        m.add_constraint(x - y, Cmp::Eq, 0.0);
        m.set_objective(x + y);
        match lp(&m) {
            LpResult::Optimal(sol) => {
                assert!((sol.objective - 2.0).abs() < 1e-6);
                assert!((sol.x[0] - 1.0).abs() < 1e-6);
                assert!((sol.x[1] - 1.0).abs() < 1e-6);
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn detects_infeasible() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous("x", 0.0, 1.0);
        m.add_constraint(crate::LinExpr::from(x), Cmp::Ge, 2.0);
        m.set_objective(crate::LinExpr::from(x));
        assert_eq!(lp(&m), LpResult::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        m.add_constraint(crate::LinExpr::from(x), Cmp::Ge, 0.0);
        m.set_objective(crate::LinExpr::from(x));
        assert_eq!(lp(&m), LpResult::Unbounded);
    }

    #[test]
    fn negative_lower_bounds() {
        // min x s.t. x >= -5 → x = -5.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous("x", -5.0, 5.0);
        m.add_constraint(LinExprOf(x), Cmp::Le, 5.0);
        m.set_objective(LinExprOf(x));
        match lp(&m) {
            LpResult::Optimal(sol) => assert!((sol.x[0] + 5.0).abs() < 1e-6),
            other => panic!("{other:?}"),
        }
    }

    #[allow(non_snake_case)]
    fn LinExprOf(v: crate::Var) -> crate::LinExpr {
        crate::LinExpr::from(v)
    }

    #[test]
    fn ge_constraints_work() {
        // min 2x + 3y s.t. x + y >= 10, x >= 2, y >= 1 → x=9? obj: prefer x
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous("x", 2.0, f64::INFINITY);
        let y = m.add_continuous("y", 1.0, f64::INFINITY);
        m.add_constraint(x + y, Cmp::Ge, 10.0);
        m.set_objective(2.0 * x + 3.0 * y);
        match lp(&m) {
            LpResult::Optimal(sol) => {
                assert!((sol.objective - (2.0 * 9.0 + 3.0 * 1.0)).abs() < 1e-6);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Klee-Minty-ish degenerate structure still terminates.
        let mut m = Model::new(Sense::Maximize);
        let n = 8;
        let xs: Vec<_> = (0..n)
            .map(|i| m.add_continuous(format!("x{i}"), 0.0, 1e6))
            .collect();
        for i in 0..n {
            let mut e = crate::LinExpr::new();
            for (j, xj) in xs.iter().enumerate().take(i) {
                e.add_term(*xj, 2.0 * f64::powi(2.0, (i - j) as i32));
                let _ = j;
            }
            e.add_term(xs[i], 1.0);
            m.add_constraint(e, Cmp::Le, f64::powi(5.0, i as i32 + 1));
        }
        let mut obj = crate::LinExpr::new();
        for (j, xj) in xs.iter().enumerate() {
            obj.add_term(*xj, f64::powi(2.0, (n - 1 - j) as i32));
        }
        m.set_objective(obj);
        match lp(&m) {
            LpResult::Optimal(sol) => {
                let expect = f64::powi(5.0, n as i32);
                assert!(
                    (sol.objective + expect).abs() / expect < 1e-6,
                    "{}",
                    sol.objective
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bound_flips_reach_optimum() {
        // max x + y with x,y in [1,3] and x + y <= 100: both at upper bound.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_continuous("x", 1.0, 3.0);
        let y = m.add_continuous("y", 1.0, 3.0);
        m.add_constraint(x + y, Cmp::Le, 100.0);
        m.set_objective(x + y);
        match lp(&m) {
            LpResult::Optimal(sol) => {
                assert!((sol.x[0] - 3.0).abs() < 1e-6);
                assert!((sol.x[1] - 3.0).abs() < 1e-6);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn solution_satisfies_model() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous("x", 0.0, 4.0);
        let y = m.add_continuous("y", 0.0, 4.0);
        let z = m.add_continuous("z", 0.0, 4.0);
        m.add_constraint(x + y + z, Cmp::Ge, 6.0);
        m.add_constraint(x - y, Cmp::Le, 1.0);
        m.add_constraint(2.0 * y + z, Cmp::Eq, 7.0);
        m.set_objective(x + 2.0 * y + 3.0 * z);
        match lp(&m) {
            LpResult::Optimal(sol) => {
                let mut vals = sol.x.clone();
                vals.resize(m.num_vars(), 0.0);
                assert!(
                    m.is_feasible(&vals, 1e-6),
                    "LP solution infeasible: {vals:?}"
                );
            }
            other => panic!("{other:?}"),
        }
    }

    /// Warm and cold solves of `model` under `lb`/`ub` must agree.
    fn assert_same(warm: &LpResult, cold: &LpResult, context: &str) {
        match (warm, cold) {
            (LpResult::Optimal(w), LpResult::Optimal(c)) => assert!(
                (w.objective - c.objective).abs() <= 1e-7 * c.objective.abs().max(1.0),
                "{context}: warm {} vs cold {}",
                w.objective,
                c.objective
            ),
            (LpResult::Infeasible, LpResult::Infeasible) => {}
            (w, c) => panic!("{context}: warm {w:?} vs cold {c:?}"),
        }
    }

    #[test]
    fn singular_snapshot_falls_back_to_the_cold_answer() {
        // min x + y s.t. x + y >= 3, x - y <= 1, x,y in [0,4].
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous("x", 0.0, 4.0);
        let y = m.add_continuous("y", 0.0, 4.0);
        m.add_constraint(x + y, Cmp::Ge, 3.0);
        m.add_constraint(x - y, Cmp::Le, 1.0);
        m.set_objective(x + 2.0 * y);
        let prob = LpProblem::from_model(&m);
        let cold = prob.solve(10_000).expect("cold solve");
        // The same column twice: no inverse exists, so the warm path
        // cannot even start.
        let singular = Basis {
            basis: vec![0, 0],
            nb_status: vec![NbStatus::AtLower; 4],
        };
        let mut ws = Workspace::new(&prob);
        let warm = ws
            .solve(Some(&singular), &[0.0, 0.0], &[4.0, 4.0], 10_000)
            .expect("falls back instead of failing");
        assert_same(&warm, &cold, "singular snapshot");
        // ... and the workspace is usable afterwards.
        let again = ws
            .solve(None, &[0.0, 0.0], &[4.0, 1.0], 10_000)
            .expect("warm solve");
        let cold = prob
            .solve_with_bounds(Some((&[0.0, 0.0], &[4.0, 1.0])), 10_000)
            .expect("cold solve");
        assert_same(&again, &cold, "after the fallback");
    }

    #[test]
    fn snapshot_that_is_not_dual_feasible_still_gives_the_cold_answer() {
        // min x + y s.t. x + y <= 4 (slack s), x,y in [1,3]. With the slack
        // basic and x, y resting at their *upper* bounds the start is primal
        // infeasible (s = -2) and dual infeasible (d = +1 at an upper bound).
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous("x", 1.0, 3.0);
        let y = m.add_continuous("y", 1.0, 3.0);
        m.add_constraint(x + y, Cmp::Le, 4.0);
        m.set_objective(x + y);
        let prob = LpProblem::from_model(&m);
        let cold = prob.solve(10_000).expect("cold solve");
        let wrong_side = Basis {
            basis: vec![2],
            nb_status: vec![NbStatus::AtUpper, NbStatus::AtUpper, NbStatus::AtLower],
        };
        let mut ws = Workspace::new(&prob);
        let warm = ws
            .solve(Some(&wrong_side), &[1.0, 1.0], &[3.0, 3.0], 10_000)
            .expect("no error");
        assert_same(&warm, &cold, "dual-infeasible snapshot");
        match warm {
            LpResult::Optimal(sol) => assert!((sol.objective - 2.0).abs() < 1e-9),
            other => panic!("{other:?}"),
        }
    }

    /// The dense Gauss–Jordan inversion the zero-skipping `invert` must
    /// reproduce: every operation on every entry, zeros included.
    fn invert_dense(a: &mut [f64], inv: &mut [f64], n: usize) -> bool {
        inv.fill(0.0);
        for i in 0..n {
            inv[i * n + i] = 1.0;
        }
        for col in 0..n {
            let mut best = col;
            let mut best_val = a[col * n + col].abs();
            for r in col + 1..n {
                let v = a[r * n + col].abs();
                if v > best_val {
                    best = r;
                    best_val = v;
                }
            }
            if best_val < 1e-12 {
                return false;
            }
            if best != col {
                for k in 0..n {
                    a.swap(col * n + k, best * n + k);
                    inv.swap(col * n + k, best * n + k);
                }
            }
            let pivot = a[col * n + col];
            for k in 0..n {
                a[col * n + k] /= pivot;
                inv[col * n + k] /= pivot;
            }
            for r in 0..n {
                if r != col {
                    let f = a[r * n + col];
                    if f != 0.0 {
                        for k in 0..n {
                            a[r * n + k] -= f * a[col * n + k];
                            inv[r * n + k] -= f * inv[col * n + k];
                        }
                    }
                }
            }
        }
        true
    }

    /// The dense eta update the zero-skipping `eta_update` must reproduce.
    fn eta_update_dense(binv: &mut [f64], m: usize, r: usize, w: &[f64]) {
        let pivot_row: Vec<f64> = binv[r * m..(r + 1) * m].iter().map(|v| v / w[r]).collect();
        for i in 0..m {
            if i != r && w[i].abs() > 1e-300 {
                for k in 0..m {
                    binv[i * m + k] -= w[i] * pivot_row[k];
                }
            }
        }
        binv[r * m..(r + 1) * m].copy_from_slice(&pivot_row);
    }

    /// A random basis column of height `m` with its own row `own`: two
    /// times in three a slack `±e_own`, otherwise an entry at `own` plus up
    /// to two more, from a pool of integers, fractions and logarithms of
    /// either sign (the integers cancel exactly).
    fn random_column(m: usize, own: usize, draw: &mut impl FnMut(u64) -> u64) -> Vec<f64> {
        const POOL: [f64; 10] = [
            1.0,
            -1.0,
            2.0,
            -3.0,
            0.5,
            1.0 / 3.0,
            -0.1,
            1.584962500721156,
            -2.321928094887362,
            1e-3,
        ];
        let mut col = vec![0.0; m];
        if draw(3) > 0 {
            col[own] = if draw(2) == 0 { 1.0 } else { -1.0 };
        } else {
            col[own] = POOL[draw(POOL.len() as u64) as usize];
            for _ in 0..draw(3) {
                col[draw(m as u64) as usize] = POOL[draw(POOL.len() as u64) as usize];
            }
        }
        col
    }

    /// Same entries under `==`, which equates `0.0` and `-0.0`: the only
    /// freedom the zero-skipping kernels have.
    fn assert_entries_eq(skip: &[f64], dense: &[f64], context: &str) {
        for (k, (s, d)) in skip.iter().zip(dense).enumerate() {
            assert!(s == d, "{context}: entry {k}: {s:e} vs dense {d:e}");
        }
    }

    /// The zero-skipping kernels against the dense ones on random
    /// slack-heavy bases — negative pivots, exact cancellations and
    /// singular bases included: the same singular verdict, and every entry
    /// of the inverse equal after the inversion and after each of a chain of
    /// eta updates (so signed zeros left by one update feed the next).
    #[test]
    fn zero_skipping_kernels_match_the_dense_ones() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut draw = move |n: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        let (mut singular, mut updates) = (0, 0);
        let (mut a_nz, mut nz) = (Vec::new(), Vec::new());
        for case in 0..3000 {
            let m = 1 + draw(16) as usize;
            // Each column owns a distinct row, in shuffled order.
            let mut own: Vec<usize> = (0..m).collect();
            for i in (1..m).rev() {
                own.swap(i, draw(i as u64 + 1) as usize);
            }
            let mut cols: Vec<Vec<f64>> = own
                .iter()
                .map(|&row| random_column(m, row, &mut draw))
                .collect();
            if m > 2 && draw(8) == 0 {
                // One column the sum of two others (or twice one): singular,
                // and found only through exact cancellation.
                let k = draw(m as u64) as usize;
                let mut other = || (k + 1 + draw(m as u64 - 1) as usize) % m;
                let (i, j) = (other(), other());
                cols[k] = cols[i].iter().zip(&cols[j]).map(|(x, y)| x + y).collect();
            }
            let mut a = vec![0.0; m * m];
            for (pos, col) in cols.iter().enumerate() {
                for (i, v) in col.iter().enumerate() {
                    a[i * m + pos] = *v;
                }
            }
            let mut a_dense = a.clone();
            let mut inv = vec![0.0; m * m];
            let mut inv_dense = vec![0.0; m * m];
            let ok = invert(&mut a, &mut inv, m, &mut a_nz, &mut nz);
            assert_eq!(
                ok,
                invert_dense(&mut a_dense, &mut inv_dense, m),
                "case {case}: singular verdict"
            );
            if !ok {
                singular += 1;
                continue;
            }
            assert_entries_eq(&inv, &inv_dense, &format!("case {case}: inverse"));
            for step in 0..8 {
                // w = B⁻¹·A_q for a random entering column, as `ftran`
                // computes it; any row with a usable pivot may leave.
                let entering = random_column(m, draw(m as u64) as usize, &mut draw);
                let w: Vec<f64> = (0..m)
                    .map(|i| (0..m).map(|k| inv[i * m + k] * entering[k]).sum())
                    .collect();
                let rows: Vec<usize> = (0..m).filter(|&i| w[i].abs() > PIVOT_TOL).collect();
                if rows.is_empty() {
                    continue;
                }
                let r = rows[draw(rows.len() as u64) as usize];
                eta_update(&mut inv, m, r, &w, &mut nz);
                eta_update_dense(&mut inv_dense, m, r, &w);
                assert_entries_eq(&inv, &inv_dense, &format!("case {case}: update {step}"));
                updates += 1;
            }
        }
        // Neither verdict may be vacuous.
        assert!(singular > 100, "only {singular} singular bases");
        assert!(updates > 10_000, "only {updates} eta updates");
    }

    /// A random bounded LP plus a sequence of single-bound edits.
    #[derive(Debug, Clone)]
    struct EditedLp {
        /// Per row: coefficients, comparison (0-1 `<=`, 2-3 `>=`, 4 `=`) and
        /// the row's slack at the anchor point (which makes the first LP
        /// feasible, so that there is a basis to warm-start from).
        rows: Vec<(Vec<i64>, u8, i64)>,
        costs: Vec<i64>,
        /// Initial `(lb, width, anchor offset)` per variable.
        bounds: Vec<(i64, i64, i64)>,
        /// `(variable, move the upper bound?, by how much, restart from the
        /// first optimal basis instead of the live one?)`; a bound stops at
        /// the opposite one instead of crossing it.
        edits: Vec<(usize, bool, i64, bool)>,
    }

    fn edited_lp() -> impl Strategy<Value = EditedLp> {
        (2usize..=12, 1usize..=10).prop_flat_map(|(n, m)| {
            let row = (prop::collection::vec(-4i64..=4, n), 0u8..=4, 0i64..=6);
            (
                prop::collection::vec(row, m),
                prop::collection::vec(-5i64..=5, n),
                prop::collection::vec((-3i64..=2, 0i64..=6, 0i64..=6), n),
                prop::collection::vec((0..n, any::<bool>(), -3i64..=3, any::<bool>()), 1..=12),
            )
                .prop_map(|(rows, costs, bounds, edits)| EditedLp {
                    rows,
                    costs,
                    bounds,
                    edits,
                })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Tightenings and relaxations, one bound at a time: the workspace
        /// that keeps re-optimizing agrees with a from-scratch solve on
        /// feasibility and on the optimal value after every one of them.
        #[test]
        fn warm_resolves_match_cold_solves(case in edited_lp()) {
            let mut m = Model::new(Sense::Minimize);
            let vars: Vec<_> = case
                .bounds
                .iter()
                .enumerate()
                .map(|(j, &(l, w, _))| m.add_continuous(format!("x{j}"), l as f64, (l + w) as f64))
                .collect();
            let anchor: Vec<i64> = case.bounds.iter().map(|&(l, w, t)| l + t % (w + 1)).collect();
            for (coeffs, cmp, slack) in &case.rows {
                let mut e = crate::LinExpr::new();
                for (v, a) in vars.iter().zip(coeffs) {
                    e.add_term(*v, *a as f64);
                }
                let at_anchor: i64 = coeffs.iter().zip(&anchor).map(|(a, x)| a * x).sum();
                let (cmp, rhs) = match cmp {
                    0 | 1 => (Cmp::Le, at_anchor + slack),
                    2 | 3 => (Cmp::Ge, at_anchor - slack),
                    _ => (Cmp::Eq, at_anchor),
                };
                m.add_constraint(e, cmp, rhs as f64);
            }
            let mut obj = crate::LinExpr::new();
            for (v, c) in vars.iter().zip(&case.costs) {
                obj.add_term(*v, *c as f64);
            }
            m.set_objective(obj);

            let prob = LpProblem::from_model(&m);
            let mut lb: Vec<f64> = case.bounds.iter().map(|&(l, _, _)| l as f64).collect();
            let mut ub: Vec<f64> = case.bounds.iter().map(|&(l, w, _)| (l + w) as f64).collect();
            let mut ws = Workspace::new(&prob);
            let mut first_basis: Option<Basis> = None;
            let first = ws.solve(None, &lb, &ub, 10_000).expect("first solve");
            if matches!(first, LpResult::Optimal(_)) {
                first_basis = Some(ws.snapshot());
            }
            for (step, &(j, upper, delta, restart)) in case.edits.iter().enumerate() {
                if upper {
                    ub[j] = (ub[j] + delta as f64).max(lb[j]);
                } else {
                    lb[j] = (lb[j] + delta as f64).min(ub[j]);
                }
                let from = if restart { first_basis.as_ref() } else { None };
                let warm = ws.solve(from, &lb, &ub, 10_000).expect("warm solve");
                let cold = prob
                    .solve_with_bounds(Some((&lb, &ub)), 10_000)
                    .expect("cold solve");
                match (&warm, &cold) {
                    (LpResult::Optimal(w), LpResult::Optimal(c)) => {
                        prop_assert!(
                            (w.objective - c.objective).abs() <= 1e-7 * c.objective.abs().max(1.0),
                            "step {step}: warm {} vs cold {}", w.objective, c.objective
                        );
                        // The warm vertex itself must satisfy the LP.
                        let mut point = m.clone();
                        for (v, (l, u)) in vars.iter().zip(lb.iter().zip(&ub)) {
                            point.set_bounds(*v, *l, *u);
                        }
                        prop_assert!(point.is_feasible(&w.x, 1e-6), "step {step}: {:?}", w.x);
                    }
                    (LpResult::Infeasible, LpResult::Infeasible) => {}
                    (w, c) => prop_assert!(false, "step {step}: warm {w:?} vs cold {c:?}"),
                }
            }
        }
    }
}
