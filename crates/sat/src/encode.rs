//! Boolean lowering of the CoSA program (Sec. III-B/C).
//!
//! [`cosa_core::statement`] states the program once; this module lowers
//! it. Each slot's integer count becomes a **unary ladder** as long as the
//! slot's bound: bit `k` means "count ≥ k+1", with ladder clauses
//! `b[k+1] → b[k]`. The Eq. 3 rows become a cardinality pair over the
//! group's bits (pure one-hot clauses when the group has a single factor)
//! and the Eq. 1–2/4 rows pseudo-Boolean constraints with the rows' `log p`
//! coefficients, so the feasible set and optimum are the MILP's. The
//! permutation block (Table III) is one-hot per row and column; the reuse
//! indicators of Eq. 9–10 (`e`, `Y` and the rank-of-dimension products)
//! are Tseitin-defined in both directions so every model determines them.
//!
//! The Eq. 12 objective is linear in the ladder and product bits; it is
//! optimized by solve-then-tighten on a single reused pseudo-Boolean
//! bound (see [`SatProgram::optimize`]), with clause learning preserved
//! across iterations. The search closes on one of two proofs ([`Proof`]):
//! the exact optimum of the same program, computed once by the dynamic
//! program of [`cosa_core::exact`], which shows when the next tightening
//! step is certain to fail; or, on layers too large for it, the refutation
//! of the tightened bound.

// Ranged loops keep the permutation block's row/column indices visibly
// aligned with the paper's equations.
#![allow(clippy::needless_range_loop)]

use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use cosa_core::statement::{complete_ranks, FactorGroup, Slot, Statement, Terms};
use cosa_core::{exact, FactorAssignment, ObjectiveWeights};
use cosa_milp::SolveStats;
use cosa_spec::{Arch, DataTensor, Dim, Layer};

use crate::solver::{Lit, SatStats, SolveOutcome, Solver, Var};

/// How [`SatProgram::optimize`] proved its answer optimal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proof {
    /// The closing UNSAT: no assignment beats the answer by the tightening
    /// margin (or the objective has no literal terms at all).
    Refutation,
    /// The exact optimum of the program ([`cosa_core::exact`]) already
    /// exceeds the next tightened bound, so the refutation was certain and
    /// not run.
    ExactBound,
}

/// Result of [`SatProgram::optimize`].
#[derive(Debug, Clone)]
pub enum OptimizeOutcome {
    /// Optimality proven: the final incumbent, proved by either
    /// [`Proof`] ([`SatProgram::proof`] says which).
    Optimal(FactorAssignment),
    /// Budget exhausted with a feasible incumbent in hand (anytime answer).
    Feasible(FactorAssignment),
    /// The constraints admit no assignment at all.
    Infeasible,
    /// The budget ran out before the first model was found.
    NoSolution,
    /// The stop flag was raised mid-search.
    Canceled,
}

/// The assembled Boolean program for one `(layer, architecture)` pair.
#[derive(Debug)]
pub struct SatProgram {
    solver: Solver,
    /// What the program encodes, kept to compute its exact optimum.
    layer: Layer,
    arch: Arch,
    weights: ObjectiveWeights,
    /// The exact optimum, computed at the first model: `Some(None)` when
    /// the layer is over [`exact::MAX_STATES`].
    exact: Option<Option<f64>>,
    /// How the last `optimize` proved its answer, if it did.
    proof: Option<Proof>,
    groups: Vec<FactorGroup>,
    /// `bits[group][level][k]` — unary ladder variables, `k = 0` spatial /
    /// `1` temporal. Ladder length equals the MILP variable's upper bound.
    bits: Vec<Vec<[Vec<Var>; 2]>>,
    active_dims: Vec<Dim>,
    /// `perm[active dim][rank]` one-hot matrix.
    perm: Vec<Vec<Var>>,
    /// Linearized Eq. 12 objective over ladder/product literals.
    obj_terms: Vec<(f64, Lit)>,
    /// Constant part of the objective (precision and input-halo logs),
    /// kept so reported values share the MILP's scale.
    obj_constant: f64,
    /// Handle of the objective-bound constraint once installed.
    obj_pb: Option<usize>,
    /// Handle of the objective's implied-cardinality companion.
    obj_card: Option<usize>,
}

impl SatProgram {
    /// Encode the scheduling program for `layer` on `arch` with Eq. 12
    /// weights (the [`cosa_core::ObjectiveKind::Weighted`] shape).
    pub fn build(layer: &Layer, arch: &Arch, weights: ObjectiveWeights) -> SatProgram {
        let st = Statement::new(layer, arch);
        let noc = arch.noc_level();
        let mut solver = Solver::new();

        // One ladder per slot, as long as the slot's bound.
        let bits: Vec<Vec<[Vec<Var>; 2]>> = st
            .caps
            .iter()
            .map(|per_level| {
                per_level
                    .iter()
                    .map(|&[s, t]| [ladder(&mut solver, s), ladder(&mut solver, t)])
                    .collect()
            })
            .collect();
        // `(w·coefficient, bit)` per ladder bit of each term's slot.
        let lits = |terms: &Terms, w: f64| -> Vec<(f64, Lit)> {
            let slot_bits = |&(s, c): &(Slot, f64)| {
                let ladder: &[Var] = &bits[s.group][s.level][s.k];
                ladder.iter().map(move |&b| (w * c, Lit::pos(b)))
            };
            terms.iter().flat_map(slot_bits).collect()
        };

        // Eq. 3: every factor instance is placed exactly once. With a
        // single instance this is a literal one-hot over the group's bits;
        // otherwise a cardinality pair (≤ count and ≥ count).
        for (row, g) in st.assign.iter().zip(&st.groups) {
            let le = lits(&row.terms, 1.0);
            if g.count == 1 {
                let all: Vec<Var> = le.iter().map(|&(_, l)| l.variable()).collect();
                one_hot(&mut solver, &all);
            } else {
                solver.add_pb_le(&le, row.rhs);
                let ge: Vec<(f64, Lit)> = le.iter().map(|&(c, l)| (c, l.inverse())).collect();
                solver.add_pb_le(&ge, (le.len() - g.count as usize) as f64);
            }
        }
        // Eq. 4 and 1–2: fanout and capacity rows.
        for (_, row) in &st.fanout {
            solver.add_pb_le(&lits(&row.terms, 1.0), row.rhs);
        }
        for tile in &st.tiles {
            solver.add_pb_le(&lits(&tile.terms, 1.0), tile.capacity);
        }

        // --- permutation ranks at the NoC level (Table III) -------------
        let active_dims = st.active;
        let zslots = active_dims.len();
        let perm: Vec<Vec<Var>> = (0..zslots)
            .map(|_| (0..zslots).map(|_| solver.new_var()).collect())
            .collect();
        for row in &perm {
            one_hot(&mut solver, row);
        }
        for z in 0..zslots {
            let col: Vec<Var> = perm.iter().map(|row| row[z]).collect();
            one_hot(&mut solver, &col);
        }

        // e[j] ⇔ dim j has a temporal factor at the NoC level, i.e. the OR
        // of the first ladder bit (count ≥ 1) of its groups.
        let mut e_vars = Vec::with_capacity(zslots);
        for d in &active_dims {
            let e = solver.new_var();
            let firsts: Vec<Lit> = (0..st.groups.len())
                .filter(|&gi| st.groups[gi].dim == *d)
                .map(|gi| Lit::pos(bits[gi][noc][1][0]))
                .collect();
            define_or(&mut solver, e, &firsts);
            e_vars.push(e);
        }

        // a[j][z] ⇔ perm[j][z] ∧ e[j] (shared across tensors).
        let mut a_vars: Vec<Vec<Var>> = Vec::with_capacity(zslots);
        for j in 0..zslots {
            let mut row = Vec::with_capacity(zslots);
            for z in 0..zslots {
                let a = solver.new_var();
                define_and(&mut solver, a, Lit::pos(perm[j][z]), Lit::pos(e_vars[j]));
                row.push(a);
            }
            a_vars.push(row);
        }

        // Y[v][z] ⇔ Y[v][z−1] ∨ ⋁_{j relevant} a[j][z]  (Eq. 9).
        let mut y_vars: Vec<Vec<Var>> = Vec::with_capacity(DataTensor::COUNT);
        for v in DataTensor::ALL {
            let mut per_z: Vec<Var> = Vec::with_capacity(zslots);
            for z in 0..zslots {
                let y = solver.new_var();
                let mut disjuncts: Vec<Lit> = Vec::new();
                if z > 0 {
                    disjuncts.push(Lit::pos(per_z[z - 1]));
                }
                for (j, d) in active_dims.iter().enumerate() {
                    if v.relevant_to(*d) {
                        disjuncts.push(Lit::pos(a_vars[j][z]));
                    }
                }
                define_or(&mut solver, y, &disjuncts);
                per_z.push(y);
            }
            y_vars.push(per_z);
        }

        // s[v][j] ⇔ ⋁_z (perm[j][z] ∧ Y[v][z]): dim j sits at a rank whose
        // Y indicator is on, so its temporal NoC factors multiply tensor
        // v's traffic (the T_v term of Eq. 10).
        let mut s_vars: Vec<Vec<Var>> = Vec::with_capacity(DataTensor::COUNT);
        for vi in 0..DataTensor::COUNT {
            let mut row = Vec::with_capacity(zslots);
            for j in 0..zslots {
                let mut hs: Vec<Lit> = Vec::with_capacity(zslots);
                for z in 0..zslots {
                    let h = solver.new_var();
                    define_and(
                        &mut solver,
                        h,
                        Lit::pos(perm[j][z]),
                        Lit::pos(y_vars[vi][z]),
                    );
                    hs.push(Lit::pos(h));
                }
                let s = solver.new_var();
                define_or(&mut solver, s, &hs);
                row.push(s);
            }
            s_vars.push(row);
        }

        // --- objective (Eq. 5–8, 11, 12) --------------------------------
        let mut obj_terms: Vec<(f64, Lit)> = Vec::new();
        let mut obj_constant = 0.0;
        for tile in &st.tiles {
            obj_constant -= weights.w_util * tile.constant;
            obj_terms.extend(lits(&tile.terms, -weights.w_util));
        }
        obj_terms.extend(lits(&st.compute, weights.w_comp));
        // T̂ = Σ_v D_v + L_v + T_v.
        for (vi, traffic) in st.traffic.iter().enumerate() {
            obj_terms.extend(lits(traffic, weights.w_traf));
            // T_v: each temporal NoC bit of dim j, gated by s[v][j].
            for (gi, g) in st.groups.iter().enumerate() {
                let j = active_dims
                    .iter()
                    .position(|d| *d == g.dim)
                    .expect("groups only exist for active dims");
                for &b in &bits[gi][noc][1] {
                    let u = solver.new_var();
                    define_and(&mut solver, u, Lit::pos(b), Lit::pos(s_vars[vi][j]));
                    obj_terms.push((weights.w_traf * g.log_p, Lit::pos(u)));
                }
            }
        }

        SatProgram {
            solver,
            layer: layer.clone(),
            arch: arch.clone(),
            weights,
            exact: None,
            proof: None,
            groups: st.groups,
            bits,
            active_dims,
            perm,
            obj_terms,
            obj_constant,
            obj_pb: None,
            obj_card: None,
        }
    }

    /// The encoding as built, for the lowering pin: the clause/PB database
    /// and the objective, which reaches the solver at the first tightening.
    #[cfg(test)]
    pub(crate) fn encoding_dump(&self) -> String {
        let terms: Vec<_> = self
            .obj_terms
            .iter()
            .map(|&(c, l)| (c.to_bits(), l))
            .collect();
        let constant = self.obj_constant.to_bits();
        format!("{:?} {terms:?} {constant:#x}", self.solver)
    }

    /// Number of variables in the encoding.
    pub fn num_vars(&self) -> usize {
        self.solver.num_vars()
    }

    /// Optimize Eq. 12 by iterative bound-tightening: solve, evaluate the
    /// incumbent, constrain the objective strictly below it, repeat until
    /// a proof, budget exhaustion or cancellation. `conflict_budget` caps
    /// total conflicts across all iterations.
    ///
    /// Tightening below a model of objective `o` asks for `obj ≤ o − margin`
    /// with `margin = 1e-7·max(1,|o|)`; its UNSAT is the refutation proof.
    /// At the first model, [`exact::exact_optimum`] computes the optimum of
    /// the same layer, arch and weights once. A model with
    /// `bound − 1e-9·max(1,|o|) > o − margin` is returned as optimal without
    /// the tightening call, since that call could only be UNSAT. Every model
    /// up to the exit is the one the refutation-only loop finds, so the
    /// answer is unchanged; only the work counters drop. Layers over
    /// [`exact::MAX_STATES`] states have no bound and close on the
    /// refutation. A budget-stopped answer carries the bound as its
    /// `best_bound` when there is one, `-inf` otherwise.
    ///
    /// Every caller passes `stop: None` — [`SatScheduler`], the tests and
    /// the benchmark harness (`benchmark/src/workloads/cold.rs`). The
    /// parameter and [`OptimizeOutcome::Canceled`] are kept only because
    /// the harness calls this signature, and can go with its next revision.
    ///
    /// [`SatScheduler`]: crate::SatScheduler
    pub fn optimize(
        &mut self,
        conflict_budget: Option<u64>,
        stop: Option<Arc<AtomicBool>>,
    ) -> OptimizeOutcome {
        self.solver.set_stop(stop);
        self.proof = None;
        let budget_end = conflict_budget.map(|b| self.solver.stats.conflicts.saturating_add(b));
        let mut best: Option<FactorAssignment> = None;
        loop {
            let remaining = match budget_end {
                Some(end) => {
                    let r = end.saturating_sub(self.solver.stats.conflicts);
                    if r == 0 {
                        return self.stopped(best);
                    }
                    Some(r)
                }
                None => None,
            };
            match self.solver.solve(remaining) {
                SolveOutcome::Sat => {
                    let asg = self.decode();
                    let obj = asg.objective;
                    // Strict improvement: push the bound just below the
                    // incumbent. The margin also defines the optimality
                    // granularity of the proof.
                    let margin = 1e-7 * obj.abs().max(1.0);
                    if let Some(bound) = self.exact_bound() {
                        let slack = 1e-9 * obj.abs().max(1.0);
                        debug_assert!(
                            obj >= bound - slack,
                            "model objective {obj} below the exact optimum {bound}"
                        );
                        if bound - slack > obj - margin {
                            self.proof = Some(Proof::ExactBound);
                            return OptimizeOutcome::Optimal(proven(asg));
                        }
                    }
                    best = Some(asg);
                    let bound = obj - margin - self.obj_constant;
                    match self.obj_pb {
                        Some(idx) => self.solver.set_pb_bound(idx, bound),
                        None => self.obj_pb = self.solver.add_pb_le(&self.obj_terms, bound),
                    }
                    if let Some(idx) = self.obj_pb {
                        self.obj_card = self.solver.refresh_pb_cardinality(idx, self.obj_card);
                    }
                    if self.obj_pb.is_none() {
                        // Objective has no literal terms (degenerate layer):
                        // the first model is the optimum.
                        self.proof = Some(Proof::Refutation);
                        return OptimizeOutcome::Optimal(proven(best.expect("just set")));
                    }
                }
                SolveOutcome::Unsat => {
                    return match best {
                        Some(b) => {
                            self.proof = Some(Proof::Refutation);
                            OptimizeOutcome::Optimal(proven(b))
                        }
                        None => OptimizeOutcome::Infeasible,
                    };
                }
                SolveOutcome::Limit => return self.stopped(best),
                SolveOutcome::Canceled => return OptimizeOutcome::Canceled,
            }
        }
    }

    /// The same program searched without the exact bound: the
    /// refutation-only loop that layers over the state cap run.
    #[cfg(test)]
    fn without_bound(mut self) -> SatProgram {
        self.exact = Some(None);
        self
    }

    /// The exact optimum of the program, computed on the first call.
    fn exact_bound(&mut self) -> Option<f64> {
        *self
            .exact
            .get_or_insert_with(|| exact::exact_optimum(&self.layer, &self.arch, self.weights))
    }

    /// The budget ran out: the incumbent, bounded below by the exact
    /// optimum when the layer has one.
    fn stopped(&self, best: Option<FactorAssignment>) -> OptimizeOutcome {
        match best {
            Some(mut b) => {
                if let Some(bound) = self.bound() {
                    b.stats.best_bound = bound;
                }
                OptimizeOutcome::Feasible(b)
            }
            None => OptimizeOutcome::NoSolution,
        }
    }

    /// Search statistics accumulated so far.
    pub fn stats(&self) -> SatStats {
        self.solver.stats
    }

    /// How the last [`SatProgram::optimize`] proved its answer optimal;
    /// `None` when it stopped without a proof.
    pub fn proof(&self) -> Option<Proof> {
        self.proof
    }

    /// The exact optimum of the program (Eq. 12 scale), once a model has
    /// been found; `None` before that and on layers over
    /// [`exact::MAX_STATES`] states.
    pub fn bound(&self) -> Option<f64> {
        self.exact.flatten()
    }

    /// Read the current model back into the MILP-shaped
    /// [`FactorAssignment`] (counts per slot, permutation ranks, objective
    /// value on the Eq. 12 scale).
    fn decode(&self) -> FactorAssignment {
        let set =
            |ladder: &Vec<Var>| ladder.iter().filter(|&&b| self.solver.value(b)).count() as u32;
        let counts = self
            .bits
            .iter()
            .map(|per_level| {
                per_level
                    .iter()
                    .map(|slots| slots.each_ref().map(set))
                    .collect()
            })
            .collect();
        let mut ranks = [usize::MAX; Dim::COUNT];
        for (j, row) in self.perm.iter().enumerate() {
            for (z, &var) in row.iter().enumerate() {
                if self.solver.value(var) {
                    ranks[self.active_dims[j].index()] = z;
                }
            }
        }
        complete_ranks(&mut ranks, self.active_dims.len());
        let mut objective = self.obj_constant;
        for &(c, l) in &self.obj_terms {
            if self.solver.value(l.variable()) != l.is_neg() {
                objective += c;
            }
        }
        let stats = self.solver.stats;
        FactorAssignment {
            groups: self
                .groups
                .iter()
                .map(|g| (g.dim, g.prime, g.count))
                .collect(),
            counts,
            ranks,
            objective,
            stats: SolveStats {
                nodes: stats.conflicts as usize,
                simplex_iters: stats.propagations as usize,
                // No lower bound until a proof makes the incumbent its own
                // (see `proven`) or a budget stop hands it the exact bound.
                best_bound: f64::NEG_INFINITY,
            },
        }
    }
}

/// The incumbent a [`Proof`] showed optimal: its own objective is now a
/// valid lower bound.
fn proven(mut asg: FactorAssignment) -> FactorAssignment {
    asg.stats.best_bound = asg.objective;
    asg
}

/// A unary ladder of `len` bits with `b[k+1] → b[k]` ordering clauses.
fn ladder(solver: &mut Solver, len: u32) -> Vec<Var> {
    let vars: Vec<Var> = (0..len).map(|_| solver.new_var()).collect();
    for w in vars.windows(2) {
        solver.add_clause(&[Lit::neg(w[1]), Lit::pos(w[0])]);
    }
    vars
}

/// Exactly-one over `vars`: an at-least-one clause plus pairwise at-most-one.
fn one_hot(solver: &mut Solver, vars: &[Var]) {
    let lits: Vec<Lit> = vars.iter().map(|&v| Lit::pos(v)).collect();
    solver.add_clause(&lits);
    for (i, &a) in vars.iter().enumerate() {
        for &b in &vars[i + 1..] {
            solver.add_clause(&[Lit::neg(a), Lit::neg(b)]);
        }
    }
}

/// Tseitin definition `target ⇔ ⋁ disjuncts` (both directions).
fn define_or(solver: &mut Solver, target: Var, disjuncts: &[Lit]) {
    let mut clause = Vec::with_capacity(disjuncts.len() + 1);
    clause.push(Lit::neg(target));
    for &d in disjuncts {
        solver.add_clause(&[d.inverse(), Lit::pos(target)]);
        clause.push(d);
    }
    solver.add_clause(&clause);
}

/// Tseitin definition `target ⇔ a ∧ b` (both directions).
fn define_and(solver: &mut Solver, target: Var, a: Lit, b: Lit) {
    solver.add_clause(&[Lit::neg(target), a]);
    solver.add_clause(&[Lit::neg(target), b]);
    solver.add_clause(&[a.inverse(), b.inverse(), Lit::pos(target)]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosa_spec::Arch;

    fn optimal(layer: &Layer, arch: &Arch) -> FactorAssignment {
        let mut p = SatProgram::build(layer, arch, ObjectiveWeights::default());
        match p.optimize(None, None) {
            OptimizeOutcome::Optimal(a) => a,
            other => panic!("expected optimum, got {other:?}"),
        }
    }

    #[test]
    fn factor_counts_are_conserved() {
        // Eq. 3: every prime-factor group places exactly its multiplicity,
        // summed across levels and spatial/temporal slots.
        let arch = Arch::simba_baseline();
        let layer = Layer::matmul("t", 16, 16, 16);
        let asg = optimal(&layer, &arch);
        for (gi, &(_, _, count)) in asg.groups.iter().enumerate() {
            let placed: u32 = asg.counts[gi].iter().map(|lv| lv[0] + lv[1]).sum();
            assert_eq!(placed, count, "group {gi} placement count");
        }
    }

    #[test]
    fn permutation_ranks_are_a_permutation() {
        let arch = Arch::simba_baseline();
        let layer = Layer::conv("t", 1, 1, 8, 8, 8, 8, 1, 1, 1);
        let asg = optimal(&layer, &arch);
        let mut seen = [false; 7];
        for &r in &asg.ranks {
            assert!(r < 7, "rank in range");
            assert!(!seen[r], "rank {r} duplicated");
            seen[r] = true;
        }
    }

    #[test]
    fn spatial_factors_only_where_fanout_allows() {
        // Eq. 4: a level with fanout 1 admits no spatial placement at all.
        let arch = Arch::simba_baseline();
        let layer = Layer::matmul("t", 32, 32, 32);
        let asg = optimal(&layer, &arch);
        for (gi, per_level) in asg.counts.iter().enumerate() {
            for (li, lv) in per_level.iter().enumerate() {
                if arch.spatial_fanout(li) <= 1 {
                    assert_eq!(lv[0], 0, "group {gi} level {li} spatial count");
                }
            }
        }
    }

    #[test]
    fn objective_matches_milp_optimum() {
        // Both lower the same statement of the program, so the optima
        // must coincide (up to the bound-tightening granularity).
        let arch = Arch::simba_baseline();
        for layer in [
            Layer::matmul("m", 16, 16, 16),
            Layer::conv("c", 1, 1, 8, 8, 16, 16, 1, 1, 1),
        ] {
            let asg = optimal(&layer, &arch);
            let milp = cosa_core::CosaScheduler::new(&arch)
                .schedule(&layer)
                .expect("milp solves");
            let tol = 1e-6 * milp.milp_objective.abs().max(1.0);
            assert!(
                (asg.objective - milp.milp_objective).abs() < tol,
                "layer {}: sat {} vs milp {}",
                layer.name(),
                asg.objective,
                milp.milp_objective
            );
        }
    }

    #[test]
    fn best_bound_is_claimed_only_with_a_proof() {
        let arch = Arch::simba_baseline();
        let layer = Layer::matmul("t", 16, 16, 16);
        let proof = optimal(&layer, &arch);
        assert_eq!(proof.stats.best_bound.to_bits(), proof.objective.to_bits());
        let mut p = SatProgram::build(&layer, &arch, ObjectiveWeights::default());
        p.optimize(None, None);
        assert_eq!(p.proof(), Some(Proof::ExactBound));
        // A budget stop claims the exact optimum as its bound: a finite
        // gap, not a proof.
        let mut p = SatProgram::build(&layer, &arch, ObjectiveWeights::default());
        match p.optimize(Some(100), None) {
            OptimizeOutcome::Feasible(a) => {
                let bound = p.bound().expect("a model was found");
                assert_eq!(a.stats.best_bound.to_bits(), bound.to_bits());
                assert!(bound < a.objective, "{bound} vs {}", a.objective);
                assert!(
                    (bound - proof.objective).abs() <= 1e-9,
                    "{bound} vs the proved optimum {}",
                    proof.objective
                );
            }
            other => panic!("expected a budget-stopped incumbent, got {other:?}"),
        }
        assert_eq!(p.proof(), None);
        // Without the bound, a budget stop claims nothing.
        let mut p = SatProgram::build(&layer, &arch, ObjectiveWeights::default()).without_bound();
        match p.optimize(Some(100), None) {
            OptimizeOutcome::Feasible(a) => assert_eq!(a.stats.best_bound, f64::NEG_INFINITY),
            other => panic!("expected a budget-stopped incumbent, got {other:?}"),
        }
        assert_eq!(p.proof(), None);
    }

    /// Knuth's MMIX linear congruential generator; the high bits are the
    /// usable ones.
    struct Lcg(u64);

    impl Lcg {
        fn pick<T: Copy>(&mut self, from: &[T]) -> T {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            from[(self.0 >> 33) as usize % from.len()]
        }
    }

    #[test]
    fn exact_bound_equals_the_refutation_optimum() {
        // The refutation-only loop (the path of layers over the state cap)
        // against the dynamic program, on seeded random layers over three
        // archs, two weight sets, both strides and batches above 1.
        let weight_sets = [
            ObjectiveWeights::default(),
            ObjectiveWeights {
                w_util: 1.0,
                w_comp: 4.0,
                w_traf: 0.5,
            },
        ];
        let mut cases = Vec::new();
        let mut rng = Lcg(0x00c0_5a00_d9ee);
        for arch in [
            Arch::simba_baseline(),
            Arch::simba_8x8(),
            Arch::simba_big_buffers(),
        ] {
            for weights in weight_sets {
                for _ in 0..36 {
                    let r = rng.pick(&[1, 1, 3]);
                    let p = rng.pick(&[1, 2, 4, 7]);
                    let stride = rng.pick(&[1, 2]);
                    let layer = Layer::conv(
                        "random",
                        r,
                        r,
                        p,
                        p,
                        rng.pick(&[1, 2, 3, 4, 8, 16]),
                        rng.pick(&[2, 4, 6, 8, 16]),
                        rng.pick(&[1, 2, 3, 4]),
                        stride,
                        stride,
                    );
                    cases.push((arch.clone(), weights, layer));
                }
            }
        }
        // Few layers this small place temporal factors at the NoC level for
        // more than one tensor pair, where the best loop order matters; this
        // one does (its optimum is 0.08 below the dims' index order's).
        cases.push((
            Arch::simba_big_buffers(),
            weight_sets[1],
            Layer::conv("order", 3, 3, 14, 14, 16, 2, 4, 2, 2),
        ));
        for (arch, weights, layer) in &cases {
            let mut prog = SatProgram::build(layer, arch, *weights).without_bound();
            let refuted = match prog.optimize(None, None) {
                OptimizeOutcome::Optimal(a) => a.objective,
                other => panic!("{layer:?}: expected an optimum, got {other:?}"),
            };
            assert_eq!(prog.proof(), Some(Proof::Refutation));
            let exact = exact::exact_optimum(layer, arch, *weights).expect("under the cap");
            assert!(
                (exact - refuted).abs() <= 1e-9,
                "{layer:?} on {}: exact {exact} vs refuted {refuted}",
                arch.name()
            );
        }
        assert_eq!(cases.len(), 217);
    }

    #[test]
    fn two_fresh_programs_agree() {
        let arch = Arch::simba_baseline();
        let layer = Layer::matmul("t", 8, 8, 8);
        let a = optimal(&layer, &arch);
        let b = optimal(&layer, &arch);
        assert_eq!(a.objective.to_bits(), b.objective.to_bits());
        assert_eq!(a.counts, b.counts);
    }
}
