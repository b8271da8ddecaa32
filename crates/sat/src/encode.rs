//! Boolean encoding of the CoSA scheduling program (Sec. III-B/C).
//!
//! The encoding mirrors `cosa_core::CosaProgram` exactly — same factor
//! groups, same coefficients, same epsilon placement in every bound — so
//! the SAT backend's feasible set and optimum coincide with the MILP's.
//!
//! Integer allocation counts `n[group][level][mapping]` become **unary
//! ladders**: bit `k` means "count ≥ k+1", with ladder clauses
//! `b[k+1] → b[k]`. Ladder lengths reproduce the MILP variable bounds
//! (including the spatial presolve cap `⌊log_p fanout⌋`), Eq. 3's
//! exactly-`count` allocation becomes a cardinality pair over the group's
//! bits — pure one-hot clauses when the group has a single factor — and
//! Eq. 1–2/4 capacity and fanout bounds become pseudo-Boolean constraints
//! with `log p` coefficients. The permutation block (Table III) is one-hot
//! per row and column; the reuse indicators of Eq. 9–10 (`e`, `Y` and the
//! rank-of-dimension products) are Tseitin-defined in both directions so
//! every model determines them uniquely.
//!
//! The Eq. 12 objective is linear in the ladder and product bits; it is
//! optimized by solve-then-tighten on a single reused pseudo-Boolean
//! bound (see [`SatProgram::optimize`]), with clause learning preserved
//! across iterations. The search closes on one of two proofs ([`Proof`]):
//! the refutation of the tightened bound, or — once a search has run long
//! — the root LP bound of the `CosaProgram` it mirrors, which can show that
//! refutation is certain before it is run.

// Index-heavy constraint assembly mirrors the MILP formulation
// (`cosa_core::formulation`); ranged loops keep the row/column indices
// visibly aligned with the paper's equations.
#![allow(clippy::needless_range_loop)]

use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use cosa_core::{CosaProgram, FactorAssignment, ObjectiveWeights};
use cosa_milp::SolveStats;
use cosa_spec::{Arch, DataTensor, Dim, Layer};

use crate::solver::{Lit, SatStats, SolveOutcome, Solver, Var};

/// One aggregated factor group (mirrors the MILP's symmetry reduction).
#[derive(Debug, Clone, Copy)]
struct Group {
    dim: Dim,
    prime: u64,
    count: u32,
    log_p: f64,
}

/// Conflicts a layer's search must have spent before a model calls on the
/// root bound. The root LP of the mirrored `CosaProgram` costs about 1 ms
/// on a matmul and 20–32 ms on a 3×3 conv, a large share of a search that
/// finds its last model this early, so such searches never build it: five
/// of the six shapes of `tests/trajectory.rs`, and the four SAT shapes of
/// the benchmark's `portfolio_cold`.
const ROOT_BOUND_AFTER_CONFLICTS: u64 = 8_192;

/// How [`SatProgram::optimize`] proved its answer optimal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proof {
    /// The closing UNSAT: no assignment beats the answer by the tightening
    /// margin (or the objective has no literal terms at all).
    Refutation,
    /// The root LP bound of the mirrored `CosaProgram` already exceeds the
    /// next tightened bound, so the refutation was certain and not run.
    RootBound,
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

/// The MILP program a [`SatProgram`] mirrors, with its root LP bound.
#[derive(Debug)]
struct Twin {
    program: CosaProgram,
    root_bound: Option<f64>,
}

/// The assembled Boolean program for one `(layer, architecture)` pair.
#[derive(Debug)]
pub struct SatProgram {
    solver: Solver,
    /// What the program encodes, kept to build its MILP twin on demand.
    layer: Layer,
    arch: Arch,
    weights: ObjectiveWeights,
    /// Built at the first model after [`ROOT_BOUND_AFTER_CONFLICTS`].
    twin: Option<Twin>,
    /// How the last `optimize` proved its answer, if it did.
    proof: Option<Proof>,
    groups: Vec<Group>,
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
        let num_levels = arch.num_levels();
        let noc = arch.noc_level();
        let dram = arch.dram_level();
        let mut solver = Solver::new();

        // --- factor groups (identical construction to the MILP) ---------
        let mut groups = Vec::new();
        for d in Dim::ALL {
            for (prime, count) in cosa_spec::primes::factor_counts(layer.dim(d)) {
                groups.push(Group {
                    dim: d,
                    prime,
                    count,
                    log_p: (prime as f64).ln(),
                });
            }
        }

        // --- allocation ladders -----------------------------------------
        let mut bits: Vec<Vec<[Vec<Var>; 2]>> = Vec::with_capacity(groups.len());
        for g in &groups {
            let mut per_level = Vec::with_capacity(num_levels);
            for i in 0..num_levels {
                let fanout = arch.spatial_fanout(i);
                let max_spatial = ((fanout as f64).ln() / g.log_p + 1e-9).floor().max(0.0) as u32;
                let s_len = if fanout > 1 && max_spatial > 0 {
                    g.count.min(max_spatial)
                } else {
                    0
                };
                let spatial = ladder(&mut solver, s_len);
                let temporal = ladder(&mut solver, g.count);
                per_level.push([spatial, temporal]);
            }
            bits.push(per_level);
        }

        // Eq. 3: every factor instance is placed exactly once. With a
        // single instance this is a literal one-hot over the group's bits;
        // otherwise a cardinality pair (≤ count and ≥ count).
        for (gi, g) in groups.iter().enumerate() {
            let all: Vec<Var> = bits[gi].iter().flatten().flatten().copied().collect();
            if g.count == 1 {
                one_hot(&mut solver, &all);
            } else {
                let le: Vec<(f64, Lit)> = all.iter().map(|&b| (1.0, Lit::pos(b))).collect();
                solver.add_pb_le(&le, g.count as f64);
                let ge: Vec<(f64, Lit)> = all.iter().map(|&b| (1.0, Lit::neg(b))).collect();
                solver.add_pb_le(&ge, (all.len() - g.count as usize) as f64);
            }
        }

        // Eq. 4: spatial factors fit the fanout at each level.
        for i in 0..num_levels {
            let fanout = arch.spatial_fanout(i);
            if fanout <= 1 {
                continue;
            }
            let mut terms = Vec::new();
            for (gi, g) in groups.iter().enumerate() {
                for &b in &bits[gi][i][0] {
                    terms.push((g.log_p, Lit::pos(b)));
                }
            }
            solver.add_pb_le(&terms, (fanout as f64).ln() + 1e-9);
        }

        // Eq. 1–2: buffer capacities in the log domain; the occupying set
        // (all slots at levels ≤ I) and the input-halo/precision handling
        // match the MILP line for line.
        for (level_i, lvl) in arch.levels().iter().enumerate() {
            if level_i == dram {
                continue;
            }
            for v in DataTensor::ALL {
                let Some(cap) = lvl.capacity_for(v) else {
                    continue;
                };
                let mut terms = Vec::new();
                for (gi, g) in groups.iter().enumerate() {
                    if !v.relevant_to(g.dim) {
                        continue;
                    }
                    for slots in bits[gi].iter().take(level_i + 1) {
                        for &b in slots.iter().flatten() {
                            terms.push((g.log_p, Lit::pos(b)));
                        }
                    }
                }
                let halo = if v == DataTensor::Inputs {
                    (layer.stride_w() as f64).ln() + (layer.stride_h() as f64).ln()
                } else {
                    0.0
                };
                let rhs = (cap as f64 / arch.precision(v) as f64).ln() - halo + 1e-9;
                solver.add_pb_le(&terms, rhs);
            }
        }

        // --- permutation ranks at the NoC level (Table III) -------------
        let active_dims: Vec<Dim> = Dim::ALL.into_iter().filter(|d| layer.dim(*d) > 1).collect();
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
            let firsts: Vec<Var> = groups
                .iter()
                .enumerate()
                .filter(|(_, g)| g.dim == *d)
                .map(|(gi, _)| bits[gi][noc][1][0])
                .collect();
            define_or(
                &mut solver,
                e,
                &firsts.iter().map(|&b| Lit::pos(b)).collect::<Vec<_>>(),
            );
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
        for (vi, _v) in DataTensor::ALL.iter().enumerate() {
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

        // Û and its constants.
        for (level_i, lvl) in arch.levels().iter().enumerate() {
            if level_i == dram {
                continue;
            }
            for v in DataTensor::ALL {
                if !lvl.stores(v) {
                    continue;
                }
                let mut constant = (arch.precision(v) as f64).ln();
                if v == DataTensor::Inputs {
                    constant += (layer.stride_w() as f64).ln() + (layer.stride_h() as f64).ln();
                }
                obj_constant -= weights.w_util * constant;
                for (gi, g) in groups.iter().enumerate() {
                    if !v.relevant_to(g.dim) {
                        continue;
                    }
                    for slots in bits[gi].iter().take(level_i + 1) {
                        for &b in slots.iter().flatten() {
                            obj_terms.push((-weights.w_util * g.log_p, Lit::pos(b)));
                        }
                    }
                }
            }
        }

        // Ĉ: every temporal bit at every level.
        for (gi, g) in groups.iter().enumerate() {
            for slots in &bits[gi] {
                for &b in &slots[1] {
                    obj_terms.push((weights.w_comp * g.log_p, Lit::pos(b)));
                }
            }
        }

        // T̂ = Σ_v D_v + L_v + T_v.
        for (vi, v) in DataTensor::ALL.iter().enumerate() {
            for (gi, g) in groups.iter().enumerate() {
                if !v.relevant_to(g.dim) {
                    continue;
                }
                // D_v: all factors below the NoC level.
                for slots in bits[gi].iter().take(noc) {
                    for &b in slots.iter().flatten() {
                        obj_terms.push((weights.w_traf * g.log_p, Lit::pos(b)));
                    }
                }
                // L_v: spatial factors at the NoC level.
                for &b in &bits[gi][noc][0] {
                    obj_terms.push((weights.w_traf * g.log_p, Lit::pos(b)));
                }
            }
            // T_v: each temporal NoC bit of dim j, gated by s[v][j].
            for (gi, g) in groups.iter().enumerate() {
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
            twin: None,
            proof: None,
            groups,
            bits,
            active_dims,
            perm,
            obj_terms,
            obj_constant,
            obj_pb: None,
            obj_card: None,
        }
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
    /// At the first model after `ROOT_BOUND_AFTER_CONFLICTS` (8 192) conflicts
    /// the root LP of `CosaProgram::build` on the same layer, arch and
    /// weights is solved once. From then on, a model with
    /// `root − 1e-9·max(1,|o|) > o − margin` is returned as optimal without
    /// that call, since the call could only be UNSAT. Every model up to the
    /// exit is the one the refutation-only loop finds, so the answer is
    /// unchanged; only the counters of root-certified layers drop. A
    /// budget-stopped answer carries the root bound as its `best_bound`
    /// when one was computed, `-inf` otherwise.
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
                    if self.root_certifies(&asg, margin) {
                        self.proof = Some(Proof::RootBound);
                        return OptimizeOutcome::Optimal(proven(asg));
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

    /// Whether the root bound shows that no model scores `asg.objective −
    /// margin` or less, so tightening to it could only be UNSAT. Builds the
    /// MILP twin and solves its root LP at the first model after
    /// `ROOT_BOUND_AFTER_CONFLICTS` conflicts.
    fn root_certifies(&mut self, asg: &FactorAssignment, margin: f64) -> bool {
        if self.twin.is_none() && self.solver.stats.conflicts >= ROOT_BOUND_AFTER_CONFLICTS {
            let program = CosaProgram::build(&self.layer, &self.arch, self.weights);
            let root_bound = program.root_bound();
            self.twin = Some(Twin {
                program,
                root_bound,
            });
        }
        let Some(twin) = &self.twin else {
            return false;
        };
        let obj = asg.objective;
        let certified = twin
            .root_bound
            .is_some_and(|root| root - 1e-9 * obj.abs().max(1.0) > obj - margin);
        if certified {
            debug_assert_eq!(certificate_premise(&twin.program, asg), Ok(()));
        }
        certified
    }

    /// The budget ran out: the incumbent, bounded below by the root bound
    /// when this layer's search computed one.
    fn stopped(&self, best: Option<FactorAssignment>) -> OptimizeOutcome {
        match best {
            Some(mut b) => {
                if let Some(root) = self.root_bound() {
                    b.stats.best_bound = root;
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

    /// The root LP bound of the mirrored `CosaProgram` (Eq. 12 scale), once
    /// a long search has computed it.
    pub fn root_bound(&self) -> Option<f64> {
        self.twin.as_ref().and_then(|t| t.root_bound)
    }

    /// Read the current model back into the MILP-shaped
    /// [`FactorAssignment`] (counts per slot, permutation ranks, objective
    /// value on the Eq. 12 scale).
    fn decode(&self) -> FactorAssignment {
        let mut counts = Vec::with_capacity(self.groups.len());
        for per_level in &self.bits {
            let mut lv = Vec::with_capacity(per_level.len());
            for slots in per_level {
                lv.push([
                    slots[0].iter().filter(|&&b| self.solver.value(b)).count() as u32,
                    slots[1].iter().filter(|&&b| self.solver.value(b)).count() as u32,
                ]);
            }
            counts.push(lv);
        }
        let mut ranks = [usize::MAX; Dim::COUNT];
        for (j, row) in self.perm.iter().enumerate() {
            for (z, &var) in row.iter().enumerate() {
                if self.solver.value(var) {
                    ranks[self.active_dims[j].index()] = z;
                }
            }
        }
        let mut next = self.active_dims.len();
        for r in ranks.iter_mut() {
            if *r == usize::MAX {
                *r = next;
                next += 1;
            }
        }
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
                // (see `proven`) or a budget stop hands it the root bound.
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

/// The premise of a root-bound certificate: the answer is a feasible point
/// of the MILP whose bound certified it and scores the same Eq. 12
/// objective there. If the two transcriptions of Eq. 1–12 drift apart, the
/// bound certifies a different program, and this is what fails.
fn certificate_premise(twin: &CosaProgram, asg: &FactorAssignment) -> Result<(), String> {
    let point = twin
        .warm_start_from(asg)
        .ok_or("the SAT answer is infeasible in the MILP")?;
    let milp = twin.model().objective().eval(&point);
    if (milp - asg.objective).abs() <= 1e-9 {
        Ok(())
    } else {
        Err(format!(
            "MILP objective {milp} differs from the SAT objective {}",
            asg.objective
        ))
    }
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
        // The encoding mirrors the MILP constraint for constraint, so the
        // optima must coincide (up to the bound-tightening granularity).
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
        assert_eq!(p.proof(), Some(Proof::Refutation));
        let mut p = SatProgram::build(&layer, &arch, ObjectiveWeights::default());
        match p.optimize(Some(100), None) {
            OptimizeOutcome::Feasible(a) => assert_eq!(a.stats.best_bound, f64::NEG_INFINITY),
            other => panic!("expected a budget-stopped incumbent, got {other:?}"),
        }
        assert_eq!(p.proof(), None);
        // A budget stop after the search paid for the root bound claims it.
        // This shape's root gap is ≈ 0.69, so the bound certifies nothing.
        let layer = Layer::matmul("mm_64x64x64", 64, 64, 64);
        let mut p = SatProgram::build(&layer, &arch, ObjectiveWeights::default());
        match p.optimize(Some(20_000), None) {
            OptimizeOutcome::Feasible(a) => {
                let root = p.root_bound().expect("a model came after 8 192 conflicts");
                assert_eq!(a.stats.best_bound.to_bits(), root.to_bits());
                assert!(root < a.objective - 0.5, "{root} vs {}", a.objective);
            }
            other => panic!("expected a budget-stopped incumbent, got {other:?}"),
        }
        assert_eq!(p.proof(), None);
    }

    #[test]
    fn root_certificates_rest_on_the_same_program() {
        // The premise `optimize` debug-asserts on every root-bound exit,
        // checked here in every build on the shapes that take that exit.
        let arch = Arch::simba_baseline();
        for (p, q, c, k) in [(4, 4, 16, 32), (8, 8, 8, 16), (6, 6, 8, 8)] {
            let layer = Layer::conv("c", 3, 3, p, q, c, k, 1, 1, 1);
            let mut prog = SatProgram::build(&layer, &arch, ObjectiveWeights::default());
            let asg = match prog.optimize(None, None) {
                OptimizeOutcome::Optimal(a) => a,
                other => panic!("expected optimum, got {other:?}"),
            };
            assert_eq!(prog.proof(), Some(Proof::RootBound), "conv {p}x{q} {c} {k}");
            assert_eq!(asg.stats.best_bound.to_bits(), asg.objective.to_bits());
            let twin = &prog
                .twin
                .as_ref()
                .expect("built for the certificate")
                .program;
            assert_eq!(certificate_premise(twin, &asg), Ok(()));
        }
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
