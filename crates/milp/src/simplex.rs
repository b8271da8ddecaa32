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
//! refactorized (Gauss–Jordan with partial pivoting) every `REFACTOR_EVERY`
//! updates and on every basis install.
//!
//! **Zero skipping.** The inverse stays a dense row-major m×m array, but
//! the kernels that write it — the inversion, `eta_update` and
//! `recompute_basics` — skip the exact zeros of the row they apply (the
//! pivot row, the right-hand side), which are most of it: a basis is mostly
//! slack columns. Every nonzero entry still gets the same IEEE operations
//! in the same order, because `x − f·0 = x` for finite `x`; only the sign of
//! some zero entries of the inverse can differ from the dense loops, and no
//! decision, value or counter reads that sign. So the pivots, and with them
//! the whole branch-and-bound trajectory, are those of the dense kernels
//! bit for bit. The unit tests hold the dense kernels as the oracle.
//!
//! **Sparse factorization.** The inversion (`GaussJordan`) keeps row and
//! column occupancy bitsets beside the dense matrix, so it finds its pivot
//! candidates, the nonzeros of its pivot rows and the rows to eliminate
//! without scanning for them, and performs exactly the operations of the
//! zero-skipping loops, entry by entry and column by column.
//!
//! **Inverse cache.** A fresh inverse is a function of the basis vector
//! alone, and branch-and-bound installs the same few bases again and again
//! (its open nodes share their parents' snapshots). An install therefore
//! looks its basis up in a small least-recently-used cache of the
//! inverses earlier installs computed, stored sparsely and restored bit
//! for bit; only a miss factorizes. Every pivot, node and answer is the
//! same as with a fresh factorization on every install; only time drops.

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
    /// The sparse Gauss–Jordan kernel `factor` assembles and inverts the
    /// basis matrix in.
    gj: GaussJordan,
    /// Fresh inverses of recently factorized bases.
    inverses: InverseCache,
    /// `(index, value)` nonzeros of the row a kernel applies: the scaled
    /// pivot row of `binv`, or the right-hand side in `recompute_basics`.
    row_nz: Vec<(usize, f64)>,
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
            gj: GaussJordan::new(m),
            inverses: InverseCache::default(),
            row_nz: Vec::with_capacity(m),
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
        // A fresh inverse is a function of the basis vector alone (an
        // installed basis holds real columns only), so a cached one is the
        // very inverse `factor` would compute, bit for bit.
        debug_assert!(!self.basis.iter().any(|&col| Self::is_artificial(col)));
        if self.inverses.restore(&self.basis, &mut self.binv) {
            self.updates_since_refactor = 0;
        } else {
            self.factor()?;
            self.inverses.insert(&self.basis, &self.binv, &self.gj);
        }
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
        for (pos, &col) in self.basis.iter().enumerate() {
            if Self::is_artificial(col) {
                let i = col - ART_BASE;
                self.gj.set(i, pos, self.art_sign[i]);
            } else {
                for &(i, a) in &self.prob.cols[col] {
                    self.gj.set(i as usize, pos, a);
                }
            }
        }
        if !self.gj.invert(&mut self.binv) {
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

/// Calls `f` with the index of every set bit of the bitset `bits` at or
/// above `from`, in ascending order.
#[inline]
fn for_each_bit(bits: &[u64], from: usize, mut f: impl FnMut(usize)) {
    for (w, &word) in bits.iter().enumerate().skip(from / 64) {
        let mut word = if w == from / 64 {
            word & (!0u64 << (from % 64))
        } else {
            word
        };
        while word != 0 {
            f(w * 64 + word.trailing_zeros() as usize);
            word &= word - 1;
        }
    }
}

#[inline]
fn set_bit(bits: &mut [u64], i: usize) {
    bits[i / 64] |= 1 << (i % 64);
}

#[inline]
fn clear_bit(bits: &mut [u64], i: usize) {
    bits[i / 64] &= !(1 << (i % 64));
}

#[inline]
fn has_bit(bits: &[u64], i: usize) -> bool {
    bits[i / 64] >> (i % 64) & 1 == 1
}

/// Gauss–Jordan inversion with partial pivoting of an `n×n` matrix that
/// finds its work through occupancy bitsets instead of scanning for it.
///
/// The matrix stays dense (row-major) beside one bitset per row and one
/// per column of its entries that may be nonzero; the inverse being built
/// has one per row. The pivot search reads only the occupied rows of the
/// pivot column, a row swap moves only the occupied entries of its two
/// rows, the pivot rows are scaled over their occupied entries, and only
/// the occupied rows of the pivot column are eliminated, over the pivot
/// rows' nonzeros. So every entry gets exactly the IEEE operations of the
/// zero-skipping dense loops, in the same column order: the same pivots and
/// row swaps, `x / pivot` on each nonzero of a pivot row and `x − f·p` for
/// each nonzero `p` of a pivot row in each row whose entry `f` in the pivot
/// column is nonzero.
///
/// A clear bit of the inverse means `+0.0`, since the inverse is returned
/// bit for bit. A clear bit of the matrix means a zero of either sign: its
/// zeros never reach the inverse (a zero `f` or pivot-row entry is skipped
/// whatever its sign), so a column's bit is dropped from every row that
/// its elimination left zero, and a row swap or a scan never visits the
/// eliminated columns again.
#[derive(Debug, Clone)]
struct GaussJordan {
    n: usize,
    /// `u64` words per bitset.
    words: usize,
    /// The matrix to invert, zero between inversions.
    a: Vec<f64>,
    /// Per row of `a`, the columns that may be nonzero.
    a_rows: Vec<u64>,
    /// Per column of `a`, a superset of the rows whose bit for that column
    /// is set in `a_rows`.
    a_cols: Vec<u64>,
    /// Per row of the inverse, the columns that may be nonzero; valid until
    /// the next inversion.
    inv_rows: Vec<u64>,
    /// Bitsets of one pivot step: the rows of the pivot column, the
    /// nonzero columns of the two pivot rows, the rows eliminated.
    rows: Vec<u64>,
    a_mask: Vec<u64>,
    inv_mask: Vec<u64>,
    eliminated: Vec<u64>,
    /// `(column, value)` nonzeros of the scaled pivot rows of `a` and of
    /// the inverse.
    a_nz: Vec<(usize, f64)>,
    inv_nz: Vec<(usize, f64)>,
}

impl GaussJordan {
    fn new(n: usize) -> GaussJordan {
        let words = n.div_ceil(64);
        GaussJordan {
            n,
            words,
            a: vec![0.0; n * n],
            a_rows: vec![0; n * words],
            a_cols: vec![0; n * words],
            inv_rows: vec![0; n * words],
            rows: vec![0; words],
            a_mask: vec![0; words],
            inv_mask: vec![0; words],
            eliminated: vec![0; words],
            a_nz: Vec::with_capacity(n),
            inv_nz: Vec::with_capacity(n),
        }
    }

    /// Set entry `(i, j)` of the matrix to invert.
    #[inline]
    fn set(&mut self, i: usize, j: usize, v: f64) {
        let (n, w) = (self.n, self.words);
        self.a[i * n + j] = v;
        set_bit(&mut self.a_rows[i * w..(i + 1) * w], j);
        set_bit(&mut self.a_cols[j * w..(j + 1) * w], i);
    }

    /// Invert the matrix assembled by [`GaussJordan::set`] into `inv`,
    /// leaving it zero for the next one. Returns `false` if the matrix is
    /// singular (`inv` is then garbage).
    fn invert(&mut self, inv: &mut [f64]) -> bool {
        let (n, w) = (self.n, self.words);
        let GaussJordan {
            a,
            a_rows,
            a_cols,
            inv_rows,
            rows,
            a_mask,
            inv_mask,
            eliminated,
            a_nz,
            inv_nz,
            ..
        } = self;
        inv.fill(0.0);
        inv_rows.fill(0);
        for i in 0..n {
            inv[i * n + i] = 1.0;
            set_bit(&mut inv_rows[i * w..(i + 1) * w], i);
        }
        let mut nonsingular = true;
        for col in 0..n {
            // Partial pivot: the first row at or below `col` of largest
            // magnitude in column `col`.
            let mut best = col;
            let mut best_val = a[col * n + col].abs();
            for_each_bit(&a_cols[col * w..(col + 1) * w], col + 1, |r| {
                let v = a[r * n + col].abs();
                if v > best_val {
                    best = r;
                    best_val = v;
                }
            });
            if best_val < 1e-12 {
                nonsingular = false;
                break;
            }
            if best != col {
                let (c, b) = (col * w, best * w);
                for j in 0..w {
                    rows[j] = a_rows[c + j] | a_rows[b + j];
                }
                for_each_bit(rows, 0, |k| {
                    a.swap(col * n + k, best * n + k);
                    let column = &mut a_cols[k * w..(k + 1) * w];
                    if has_bit(column, col) != has_bit(column, best) {
                        column[col / 64] ^= 1 << (col % 64);
                        column[best / 64] ^= 1 << (best % 64);
                    }
                });
                for j in 0..w {
                    a_rows.swap(c + j, b + j);
                    rows[j] = inv_rows[c + j] | inv_rows[b + j];
                }
                for_each_bit(rows, 0, |k| inv.swap(col * n + k, best * n + k));
                for j in 0..w {
                    inv_rows.swap(c + j, b + j);
                }
            }
            let pivot = a[col * n + col];
            scale_occupied(a, n, col, &a_rows[col * w..(col + 1) * w], pivot, a_nz);
            scale_occupied(
                inv,
                n,
                col,
                &inv_rows[col * w..(col + 1) * w],
                pivot,
                inv_nz,
            );
            a_mask.fill(0);
            for &(k, _) in a_nz.iter() {
                set_bit(a_mask, k);
            }
            // Column `col` ends zero in every other row.
            clear_bit(a_mask, col);
            inv_mask.fill(0);
            for &(k, _) in inv_nz.iter() {
                set_bit(inv_mask, k);
            }
            rows.copy_from_slice(&a_cols[col * w..(col + 1) * w]);
            clear_bit(rows, col);
            eliminated.fill(0);
            for_each_bit(rows, 0, |r| {
                let f = a[r * n + col];
                if f != 0.0 {
                    sub_scaled(&mut a[r * n..(r + 1) * n], f, a_nz);
                    sub_scaled(&mut inv[r * n..(r + 1) * n], f, inv_nz);
                    for j in 0..w {
                        a_rows[r * w + j] |= a_mask[j];
                        inv_rows[r * w + j] |= inv_mask[j];
                    }
                    set_bit(eliminated, r);
                }
                if a[r * n + col] == 0.0 {
                    clear_bit(&mut a_rows[r * w..(r + 1) * w], col);
                }
            });
            for_each_bit(a_mask, 0, |k| {
                for j in 0..w {
                    a_cols[k * w + j] |= eliminated[j];
                }
            });
        }
        for r in 0..n {
            for_each_bit(&a_rows[r * w..(r + 1) * w], 0, |k| a[r * n + k] = 0.0);
        }
        a_rows.fill(0);
        a_cols.fill(0);
        nonsingular
    }
}

/// Divide the nonzeros of row `r` of the row-major `n`-column `mat`, which
/// lie in the columns set in `occupied`, by `pivot` and list them, with
/// their columns, in `nz`.
fn scale_occupied(
    mat: &mut [f64],
    n: usize,
    r: usize,
    occupied: &[u64],
    pivot: f64,
    nz: &mut Vec<(usize, f64)>,
) {
    nz.clear();
    let row = &mut mat[r * n..(r + 1) * n];
    for_each_bit(occupied, 0, |k| {
        let v = &mut row[k];
        if *v != 0.0 {
            *v /= pivot;
            nz.push((k, *v));
        }
    });
}

/// Byte budget of a workspace's [`InverseCache`]: 5 107 of the 8 755
/// installs of a 20 000-node `mm_64x192x32` search hit at 128 KiB; twice
/// that hit 6 % more for no measured end-to-end gain and more peak memory.
const INVERSE_CACHE_BYTES: usize = 128 << 10;

/// One cached inverse of an `m`-row basis, in a single allocation: the
/// basis (`m` words), then per row a bitset of the entries that are not
/// `+0.0` (`m·w` words), then those entries' bits in row-major order.
#[derive(Debug, Clone)]
struct CachedInverse {
    hash: u64,
    data: Box<[u64]>,
    last_use: u64,
}

impl CachedInverse {
    /// What an entry of `words` data words costs the budget.
    fn bytes(words: usize) -> usize {
        std::mem::size_of::<CachedInverse>() + 8 * words
    }
}

/// A least-recently-used cache of fresh basis inverses, keyed by the basis
/// vector, stored sparsely within [`INVERSE_CACHE_BYTES`]. Branch and bound
/// re-installs the bases its open nodes were snapshot at, and most of them
/// were installed before.
#[derive(Debug, Clone, Default)]
struct InverseCache {
    entries: Vec<CachedInverse>,
    bytes: usize,
    clock: u64,
    /// The nonzero pattern of the inverse being stored.
    pattern: Vec<u64>,
}

impl InverseCache {
    /// FNV-1a over the basis' column indices.
    fn hash(basis: &[usize]) -> u64 {
        basis.iter().fold(0xcbf2_9ce4_8422_2325, |h, &col| {
            (h ^ col as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Write the cached inverse of `basis` into `binv`, if there is one.
    fn restore(&mut self, basis: &[usize], binv: &mut [f64]) -> bool {
        let (m, hash) = (basis.len(), Self::hash(basis));
        let Some(entry) = self.entries.iter_mut().find(|e| {
            e.hash == hash && e.data[..m].iter().zip(basis).all(|(&a, &b)| a == b as u64)
        }) else {
            return false;
        };
        self.clock += 1;
        entry.last_use = self.clock;
        let w = m.div_ceil(64);
        let (pattern, values) = entry.data[m..].split_at(m * w);
        let mut values = values.iter();
        binv.fill(0.0);
        for (r, row) in pattern.chunks_exact(w).enumerate() {
            for_each_bit(row, 0, |k| {
                binv[r * m + k] = f64::from_bits(*values.next().expect("one value per bit"));
            });
        }
        true
    }

    /// Store `binv`, which `gj` has just inverted for `basis`, evicting the
    /// least recently used entries to stay within the budget.
    fn insert(&mut self, basis: &[usize], binv: &[f64], gj: &GaussJordan) {
        let (m, w) = (gj.n, gj.words);
        // Of the entries `gj` marks as possibly nonzero, those that are not
        // `+0.0`, found without a branch on which they are.
        self.pattern.clear();
        self.pattern.resize(m * w, 0);
        let mut count = 0;
        let rows = self
            .pattern
            .chunks_exact_mut(w)
            .zip(gj.inv_rows.chunks_exact(w));
        for (r, (row, marked)) in rows.enumerate() {
            for_each_bit(marked, 0, |k| {
                let kept = u64::from(binv[r * m + k].to_bits() != 0);
                row[k / 64] |= kept << (k % 64);
                count += kept as usize;
            });
        }
        let len = m + m * w + count;
        let bytes = CachedInverse::bytes(len);
        if bytes > INVERSE_CACHE_BYTES {
            return;
        }
        while self.bytes + bytes > INVERSE_CACHE_BYTES {
            let oldest = (0..self.entries.len())
                .min_by_key(|&i| self.entries[i].last_use)
                .expect("over budget with no entry");
            self.bytes -= CachedInverse::bytes(self.entries.swap_remove(oldest).data.len());
        }
        let mut data = Vec::with_capacity(len);
        data.extend(basis.iter().map(|&col| col as u64));
        data.extend_from_slice(&self.pattern);
        for (r, row) in self.pattern.chunks_exact(w).enumerate() {
            for_each_bit(row, 0, |k| data.push(binv[r * m + k].to_bits()));
        }
        self.clock += 1;
        self.bytes += bytes;
        self.entries.push(CachedInverse {
            hash: Self::hash(basis),
            data: data.into_boxed_slice(),
            last_use: self.clock,
        });
    }
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
    /// to `spread − 1` more, from a pool of integers, fractions and
    /// logarithms of either sign (the integers cancel exactly).
    fn random_column(
        m: usize,
        own: usize,
        spread: u64,
        draw: &mut impl FnMut(u64) -> u64,
    ) -> Vec<f64> {
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
            for _ in 0..draw(spread) {
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

    /// The sparse kernels against the dense ones on random slack-heavy
    /// bases — negative pivots, exact cancellations and singular bases
    /// included: the same singular verdict, and every entry of the inverse
    /// equal after the inversion and after each of a chain of eta updates
    /// (so signed zeros left by one update feed the next). Half the bases
    /// are as small as 1..=16, half as large as the solver's (64..=160 rows
    /// with denser structural columns), so the bitsets span several words.
    /// One `GaussJordan` per size serves every basis of that size, singular
    /// ones included, and must be left zero by each.
    #[test]
    fn zero_skipping_kernels_match_the_dense_ones() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut draw = move |n: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        let (mut singular, mut updates, mut large) = (0, 0, 0);
        let mut kernels: std::collections::BTreeMap<usize, GaussJordan> = Default::default();
        let mut nz = Vec::new();
        for case in 0..3400 {
            let (m, spread) = if case % 2 == 0 {
                (1 + draw(16) as usize, 3)
            } else {
                (64 + draw(97) as usize, 12)
            };
            // Each column owns a distinct row, in shuffled order.
            let mut own: Vec<usize> = (0..m).collect();
            for i in (1..m).rev() {
                own.swap(i, draw(i as u64 + 1) as usize);
            }
            let mut cols: Vec<Vec<f64>> = own
                .iter()
                .map(|&row| random_column(m, row, spread, &mut draw))
                .collect();
            if m > 2 && draw(8) == 0 {
                // One column the sum of two others (or twice one): singular,
                // and found only through exact cancellation.
                let k = draw(m as u64) as usize;
                let mut other = || (k + 1 + draw(m as u64 - 1) as usize) % m;
                let (i, j) = (other(), other());
                cols[k] = cols[i].iter().zip(&cols[j]).map(|(x, y)| x + y).collect();
            }
            let gj = kernels.entry(m).or_insert_with(|| GaussJordan::new(m));
            let mut a_dense = vec![0.0; m * m];
            for (pos, col) in cols.iter().enumerate() {
                for (i, &v) in col.iter().enumerate() {
                    a_dense[i * m + pos] = v;
                    if v != 0.0 {
                        gj.set(i, pos, v);
                    }
                }
            }
            let mut inv = vec![f64::NAN; m * m];
            let mut inv_dense = vec![0.0; m * m];
            let ok = gj.invert(&mut inv);
            assert!(gj.a.iter().all(|&v| v == 0.0), "case {case}: left dirty");
            assert_eq!(
                ok,
                invert_dense(&mut a_dense, &mut inv_dense, m),
                "case {case}: singular verdict"
            );
            if !ok {
                singular += 1;
                continue;
            }
            large += usize::from(m >= 64);
            assert_entries_eq(&inv, &inv_dense, &format!("case {case}: inverse"));
            for step in 0..8 {
                // w = B⁻¹·A_q for a random entering column, as `ftran`
                // computes it; any row with a usable pivot may leave.
                let entering = random_column(m, draw(m as u64) as usize, spread, &mut draw);
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
        // Neither verdict may be vacuous, nor the large sizes.
        assert!(singular > 100, "only {singular} singular bases");
        assert!(large > 1000, "only {large} large bases inverted");
        assert!(updates > 10_000, "only {updates} eta updates");
    }

    /// A random LP over `n` variables in `[0, 6]` and `m` rows, each `≤` or
    /// `≥` with slack at the anchor point it returns too.
    fn random_lp(n: usize, m: usize, draw: &mut impl FnMut(u64) -> u64) -> (Model, Vec<f64>) {
        let mut model = Model::new(Sense::Minimize);
        let vars: Vec<_> = (0..n)
            .map(|j| model.add_continuous(format!("x{j}"), 0.0, 6.0))
            .collect();
        let anchor: Vec<f64> = (0..n).map(|_| draw(7) as f64).collect();
        for _ in 0..m {
            let mut e = crate::LinExpr::new();
            let mut at_anchor = 0.0;
            for (v, x) in vars.iter().zip(&anchor) {
                if draw(4) == 0 {
                    let a = draw(9) as f64 - 4.0;
                    e.add_term(*v, a);
                    at_anchor += a * x;
                }
            }
            let slack = draw(5) as f64;
            if draw(2) == 0 {
                model.add_constraint(e, Cmp::Le, at_anchor + slack);
            } else {
                model.add_constraint(e, Cmp::Ge, at_anchor - slack);
            }
        }
        let mut obj = crate::LinExpr::new();
        for v in &vars {
            obj.add_term(*v, draw(11) as f64 - 5.0);
        }
        model.set_objective(obj);
        (model, anchor)
    }

    /// The inverse cache: a basis installed again after another one gets
    /// its inverse back bit for bit (`−0.0` included) as a fresh
    /// factorization computes it; and a workspace whose cache hits and
    /// evicts along a chain of warm solves from stored bases returns, bit
    /// for bit, the answers of one that factorizes every basis afresh.
    #[test]
    fn cached_inverses_are_fresh_ones_bit_for_bit() {
        let mut state = 0x5851_F42D_4C95_7F2Du64;
        let mut draw = move |n: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        let (n, m) = (60, 90);
        let (model, anchor) = random_lp(n, m, &mut draw);
        let prob = LpProblem::from_model(&model);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

        // A, then B, then A again.
        let (lb, mut ub) = (vec![0.0; n], vec![6.0; n]);
        let mut ws = Workspace::new(&prob);
        let r = ws.solve(None, &lb, &ub, 100_000);
        assert!(matches!(r, Ok(LpResult::Optimal(_))), "{r:?}");
        let a = ws.snapshot();
        ub[..n / 2].copy_from_slice(&anchor[..n / 2]);
        let r = ws.solve(None, &lb, &ub, 100_000);
        assert!(matches!(r, Ok(LpResult::Optimal(_))), "{r:?}");
        let b = ws.snapshot();
        assert_ne!(a.basis, b.basis);
        ws.install(&a).expect("A factorizes");
        let fresh_a = bits(&ws.binv);
        ws.install(&b).expect("B factorizes");
        let last_use = |ws: &Workspace, basis: &[usize]| {
            let key: Vec<u64> = basis.iter().map(|&col| col as u64).collect();
            let found = ws
                .inverses
                .entries
                .iter()
                .find(|e| e.data[..basis.len()] == key);
            found.map(|e| e.last_use)
        };
        assert!(last_use(&ws, &a.basis).is_some(), "A is not cached");
        ws.install(&a).expect("A restores");
        assert_eq!(
            last_use(&ws, &a.basis),
            Some(ws.inverses.clock),
            "A was not a hit"
        );
        let restored = bits(&ws.binv);
        ws.factor().expect("A factorizes");
        assert_eq!(restored, bits(&ws.binv), "restored vs fresh");
        assert_eq!(restored, fresh_a, "restored vs first");

        // A `−0.0` in an inverse (from a scaling that underflows) comes
        // back as `−0.0`.
        let mut gj = GaussJordan::new(2);
        for (i, j, v) in [(0, 0, 1e300), (1, 0, 1e-20), (1, 1, 1e10)] {
            gj.set(i, j, v);
        }
        let mut inv = vec![0.0; 4];
        assert!(gj.invert(&mut inv));
        assert_eq!(bits(&inv), bits(&[1e-300, 0.0, -0.0, 1e-10]));
        let mut cache = InverseCache::default();
        cache.insert(&[0, 1], &inv, &gj);
        let mut restored = vec![f64::NAN; 4];
        assert!(cache.restore(&[0, 1], &mut restored));
        assert_eq!(bits(&restored), bits(&inv));

        // A chain of warm solves from stored bases, against a twin whose
        // cache is emptied before every solve.
        let mut cached = Workspace::new(&prob);
        let mut fresh = Workspace::new(&prob);
        let (mut lb, mut ub) = (vec![0.0; n], vec![6.0; n]);
        let mut stored: Vec<Basis> = Vec::new();
        let (mut hits, mut evictions) = (0, 0);
        for step in 0..400 {
            let j = draw(n as u64) as usize;
            if draw(2) == 0 {
                ub[j] = (ub[j] + draw(5) as f64 - 3.0).clamp(lb[j], 6.0);
            } else {
                lb[j] = (lb[j] + draw(5) as f64 - 1.0).clamp(0.0, ub[j]);
            }
            let from = (!stored.is_empty() && draw(4) > 0)
                .then(|| stored[draw(stored.len() as u64) as usize].clone());
            let before: Vec<u64> = cached.inverses.entries.iter().map(|e| e.hash).collect();
            let cached_from = from
                .as_ref()
                .is_some_and(|b| last_use(&cached, &b.basis).is_some());
            let clock = cached.inverses.clock;
            fresh.inverses = InverseCache::default();
            let got = cached
                .solve(from.as_ref(), &lb, &ub, 100_000)
                .expect("cached");
            let want = fresh
                .solve(from.as_ref(), &lb, &ub, 100_000)
                .expect("fresh");
            match (&got, &want) {
                (LpResult::Optimal(g), LpResult::Optimal(w)) => {
                    assert_eq!(g.objective.to_bits(), w.objective.to_bits(), "step {step}");
                    assert_eq!(bits(&g.x), bits(&w.x), "step {step}");
                    assert_eq!(g.iterations, w.iterations, "step {step}");
                    stored.push(cached.snapshot());
                }
                (g, w) => assert_eq!(g, w, "step {step}"),
            }
            hits += usize::from(cached_from && cached.inverses.clock > clock);
            let after = &cached.inverses.entries;
            evictions += before
                .iter()
                .filter(|h| !after.iter().any(|e| e.hash == **h))
                .count();
            assert!(cached.inverses.bytes <= INVERSE_CACHE_BYTES);
        }
        assert!(hits > 20, "only {hits} hits");
        assert!(evictions > 20, "only {evictions} evictions");
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
