//! The MILP lowering of the CoSA program (Sec. III-B and III-C).
//!
//! [`crate::statement`] states the shared part of Eq. 1–12 over aggregated
//! factor groups; this module makes one integer variable per slot, adds the
//! statement's rows and objective terms, and adds the permutation block the
//! MILP needs for the traffic term.
//!
//! Permutation ranks are assigned per *dimension* at the NoC level (a 7×7
//! permutation matrix): reordering same-dimension factors among themselves
//! never changes the traffic term (Eq. 9–10 only observe dimension–tensor
//! relevance and log-bound sums).

use cosa_milp::{Cmp, LinExpr, Model, Sense, SolveOptions, SolveStats, Var};
use cosa_spec::{Arch, DataTensor, Dim, Layer};

use crate::error::CosaError;
use crate::objective::ObjectiveWeights;
use crate::statement::{complete_ranks, FactorGroup, Statement, Terms};

/// Which overall objective shape to optimize (Sec. III-D.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ObjectiveKind {
    /// The weighted sum `Ô = −wU·Û + wC·Ĉ + wT·T̂` (Eq. 12).
    #[default]
    Weighted,
    /// The paper's alternative: balance memory against compute by
    /// minimizing `|wT·T̂ − wC·Ĉ|` (minus the utilization reward) — for
    /// double-buffered systems the slower pipeline sets the latency, so
    /// matching the two avoids stranded capacity.
    Balanced,
}

/// The solved prime-factor allocation: how many factors of each group go to
/// each `(level, mapping)` slot, plus the NoC-level permutation ranks.
#[derive(Debug, Clone)]
pub struct FactorAssignment {
    /// `(dim, prime, count)` per group, in build order.
    pub groups: Vec<(Dim, u64, u32)>,
    /// `counts[group][level][k]`, `k = 0` spatial / `1` temporal.
    pub counts: Vec<Vec<[u32; 2]>>,
    /// Permutation rank per dimension at the NoC level
    /// (rank 0 = innermost loop).
    pub ranks: [usize; Dim::COUNT],
    /// MILP objective value (Eq. 12).
    pub objective: f64,
    /// Solver statistics.
    pub stats: SolveStats,
}

/// The `(e, Y, w)` traffic-indicator variable handles of the full program.
type IndicatorVars = (Vec<Var>, Vec<Vec<Var>>, Vec<Vec<Var>>);

/// `n_vars[group][level][k]`; `None` where the slot does not exist.
type SlotVars = Vec<Vec<[Option<Var>; 2]>>;

/// The assembled CoSA MILP for one `(layer, architecture)` pair.
///
/// ```
/// use cosa_milp::SolveOptions;
/// use cosa_spec::{Arch, Layer};
/// use cosa_core::{CosaProgram, ObjectiveWeights};
///
/// let arch = Arch::simba_baseline();
/// let layer = Layer::parse_paper_name("3_13_256_256_1")?;
/// let program = CosaProgram::build(&layer, &arch, ObjectiveWeights::default());
/// // A node budget, not a clock: the same answer on every machine.
/// let opts = SolveOptions { node_limit: 300, time_limit: None, ..SolveOptions::default() };
/// let assignment = program.solve(&opts)?;
/// // Every prime factor is assigned exactly once.
/// let total: u32 = assignment.counts.iter().flatten().flatten().sum();
/// assert_eq!(total as usize, layer.factor_instances().len());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct CosaProgram {
    model: Model,
    groups: Vec<FactorGroup>,
    n_vars: SlotVars,
    /// Dimensions that actually have prime factors (rank slots exist only
    /// for these).
    active_dims: Vec<Dim>,
    /// `perm[active dim][rank]` binaries.
    perm: Vec<Vec<Var>>,
    /// `(e, Y, w)` handles for warm-start construction (full program only).
    indicator_vars: Option<IndicatorVars>,
    /// Index of the NoC memory level.
    noc_level: usize,
    /// The balance slack variable and the `(wT·T̂, wC·Ĉ)` expressions, for
    /// warm-start completion under [`ObjectiveKind::Balanced`].
    balance: Option<(Var, LinExpr, LinExpr)>,
    /// Always-feasible warm start: every factor temporal at DRAM.
    warm_start: Vec<f64>,
}

impl CosaProgram {
    /// Assemble the MILP: variables, constraints Eq. 1–4 and 9, and the
    /// Eq. 12 objective with the given weights.
    pub fn build(layer: &Layer, arch: &Arch, weights: ObjectiveWeights) -> CosaProgram {
        Self::build_inner(layer, arch, weights, true, ObjectiveKind::Weighted)
    }

    /// Assemble the MILP with an explicit objective shape (Sec. III-D.4).
    pub fn build_with_kind(
        layer: &Layer,
        arch: &Arch,
        weights: ObjectiveWeights,
        kind: ObjectiveKind,
    ) -> CosaProgram {
        Self::build_inner(layer, arch, weights, true, kind)
    }

    /// A reduced program without the permutation/reuse machinery (`p`,
    /// `e`, `Y`, `w` of Eq. 9–10). The traffic-iteration term is replaced
    /// by its permutation-independent proxy `2·Σ_j L_j` (every convolution
    /// dimension is relevant to exactly two tensors). Solves in
    /// milliseconds and seeds the full program's warm start.
    pub fn build_tiling_only(layer: &Layer, arch: &Arch, weights: ObjectiveWeights) -> CosaProgram {
        Self::build_inner(layer, arch, weights, false, ObjectiveKind::Weighted)
    }

    fn build_inner(
        layer: &Layer,
        arch: &Arch,
        weights: ObjectiveWeights,
        with_permutation: bool,
        kind: ObjectiveKind,
    ) -> CosaProgram {
        let st = Statement::new(layer, arch);
        let noc = arch.noc_level();
        let mut model = Model::new(Sense::Minimize);

        // --- allocation variables (the aggregated X matrix) ------------
        let mut n_vars: SlotVars = Vec::with_capacity(st.groups.len());
        for (gi, g) in st.groups.iter().enumerate() {
            let mut per_level = Vec::with_capacity(st.caps[gi].len());
            for (i, caps) in st.caps[gi].iter().enumerate() {
                let mut slot = |k: usize, tag: &str| {
                    let name = format!("n_{}{gi}_L{i}{tag}", g.dim);
                    (caps[k] > 0).then(|| model.add_integer(name, 0.0, caps[k] as f64))
                };
                per_level.push([slot(0, "s"), slot(1, "t")]);
            }
            n_vars.push(per_level);
        }
        // `e += Σ coefficient·n[slot]`, term by term.
        let add = |e: &mut LinExpr, terms: &Terms| {
            for &(s, c) in terms {
                e.add_term(n_vars[s.group][s.level][s.k].expect("stated slot"), c);
            }
        };
        let expr = |terms: &Terms| {
            let mut e = LinExpr::new();
            add(&mut e, terms);
            e
        };

        // Eq. 3, 4 and 1–2: assignment, fanout and capacity rows.
        for (gi, row) in st.assign.iter().enumerate() {
            let name = format!("assign_{}{gi}", st.groups[gi].dim);
            model.add_named_constraint(expr(&row.terms), Cmp::Eq, row.rhs, Some(name));
        }
        for (i, row) in &st.fanout {
            let name = format!("fanout_L{i}");
            model.add_named_constraint(expr(&row.terms), Cmp::Le, row.rhs, Some(name));
        }
        for tile in &st.tiles {
            let name = format!("cap_{}_{}", arch.levels()[tile.level].name, tile.tensor);
            model.add_named_constraint(expr(&tile.terms), Cmp::Le, tile.capacity, Some(name));
        }

        // --- permutation ranks at the NoC level (Table III, O0..OZ) ----
        // Rank slots exist only for dimensions that have prime factors;
        // bound-1 dimensions have no loops to order.
        let ranked: &[Dim] = if with_permutation { &st.active } else { &[] };
        let zslots = ranked.len();
        let perm: Vec<Vec<Var>> = ranked
            .iter()
            .map(|d| {
                (0..zslots)
                    .map(|z| model.add_binary(format!("perm_{d}_z{z}")))
                    .collect()
            })
            .collect();
        let mut one = |e: LinExpr, name| model.add_named_constraint(e, Cmp::Eq, 1.0, Some(name));
        for (j, row) in perm.iter().enumerate() {
            one(LinExpr::sum(row.iter().copied()), format!("perm_row_{j}"));
        }
        for z in 0..zslots {
            one(
                LinExpr::sum(perm.iter().map(|row| row[z])),
                format!("perm_col_{z}"),
            );
        }

        // The temporal NoC variables of each ranked dimension.
        let noc_t = |d: Dim| {
            st.groups
                .iter()
                .enumerate()
                .filter(move |(_, g)| g.dim == d)
                .filter_map(|(gi, g)| Some((n_vars[gi][noc][1]?, g)))
        };

        // Presence indicators: e[j] = 1 iff dim j has a temporal factor at
        // the NoC level.
        let mut e_vars = Vec::with_capacity(zslots);
        for &d in ranked {
            let e = model.add_binary(format!("e_{d}"));
            let total: u32 = noc_t(d).map(|(_, g)| g.count).sum();
            debug_assert!(total > 0, "active dims have factors");
            let sum_noc_t = LinExpr::sum(noc_t(d).map(|(var, _)| var));
            // Σn ≤ total·e forces e up; e ≤ Σn forces it back down.
            model.add_constraint(
                sum_noc_t.clone() - total as f64 * LinExpr::from(e),
                Cmp::Le,
                0.0,
            );
            model.add_constraint(LinExpr::from(e) - sum_noc_t, Cmp::Le, 0.0);
            e_vars.push(e);
        }

        // Y[v][z] (Eq. 9): 1 once any tensor-relevant dimension occupies a
        // rank ≤ z. Monotone in z; pushed to its lower bound by the
        // objective, so the linear relaxation is exact at integer points.
        let mut y_vars: Vec<Vec<Var>> = Vec::with_capacity(DataTensor::COUNT);
        for v in DataTensor::ALL {
            let mut per_z = Vec::with_capacity(zslots);
            for z in 0..zslots {
                let y = model.add_continuous(format!("y_{v}_z{z}"), 0.0, 1.0);
                for (j, d) in ranked.iter().enumerate() {
                    if v.relevant_to(*d) {
                        // y ≥ p[j][z] + e[j] − 1
                        model.add_constraint(
                            LinExpr::from(y) - perm[j][z] - e_vars[j] + 1.0,
                            Cmp::Ge,
                            0.0,
                        );
                    }
                }
                if z > 0 {
                    let prev = per_z[z - 1];
                    model.add_constraint(LinExpr::from(y) - prev, Cmp::Ge, 0.0);
                }
                per_z.push(y);
            }
            y_vars.push(per_z);
        }

        // T_v (Eq. 10), linearized with one variable per (tensor, rank):
        // w[v][z] ≥ L_j − M_j(2 − Y[v][z] − p[j][z]) for every dimension j,
        // where L_j is the log temporal NoC bound of dim j and M_j its
        // maximum. Exactly one dimension occupies rank z, so w[v][z] takes
        // that dimension's contribution; the other rows are slack.
        let bounds: Vec<(LinExpr, f64)> = ranked
            .iter()
            .map(|&d| {
                let mut l_j = LinExpr::new();
                for (var, g) in noc_t(d) {
                    l_j.add_term(var, g.log_p);
                }
                let m_j: f64 = noc_t(d).map(|(_, g)| g.log_p * g.count as f64).sum();
                (l_j, m_j)
            })
            .collect();
        let mut t_exprs: Vec<LinExpr> = Vec::with_capacity(DataTensor::COUNT);
        let mut w_vars: Vec<Vec<Var>> = Vec::with_capacity(DataTensor::COUNT);
        for (vi, y_row) in y_vars.iter().enumerate() {
            let mut t_v = LinExpr::new();
            let mut w_row = Vec::with_capacity(zslots);
            for z in 0..zslots {
                let w = model.add_continuous(format!("w_v{vi}_z{z}"), 0.0, f64::INFINITY);
                w_row.push(w);
                for (j, (l_j, m_j)) in bounds.iter().enumerate() {
                    // w − L_j + M_j·(2 − y − p) ≥ 0
                    let penalty = ((-1.0) * y_row[z] + (-1.0) * perm[j][z] + 2.0) * *m_j;
                    let expr = LinExpr::from(w) - l_j.clone() + penalty;
                    model.add_constraint(expr, Cmp::Ge, 0.0);
                }
                t_v.add_term(w, 1.0);
            }
            t_exprs.push(t_v);
            w_vars.push(w_row);
        }

        // --- objective (Eq. 5, 6, 7, 8, 11, 12) -------------------------
        let mut util_expr = LinExpr::new();
        for tile in &st.tiles {
            util_expr += LinExpr::constant_expr(tile.constant);
            add(&mut util_expr, &tile.terms);
        }
        let comp_expr = expr(&st.compute);
        // T̂ = Σ_v D_v + L_v + T_v.
        let mut traf_expr = LinExpr::new();
        for (vi, v) in DataTensor::ALL.iter().enumerate() {
            add(&mut traf_expr, &st.traffic[vi]);
            if with_permutation {
                traf_expr += t_exprs[vi].clone();
                continue;
            }
            // Permutation-free proxy for T_v: every relevant temporal NoC
            // factor multiplies the tensor's traffic.
            for &d in st.active.iter().filter(|d| v.relevant_to(**d)) {
                for (var, g) in noc_t(d) {
                    traf_expr.add_term(var, g.log_p);
                }
            }
        }

        let weighted_traf = traf_expr * weights.w_traf;
        let weighted_comp = comp_expr * weights.w_comp;
        let mut balance = None;
        match kind {
            ObjectiveKind::Weighted => {
                let objective =
                    weighted_traf.clone() + weighted_comp.clone() - util_expr * weights.w_util;
                model.set_objective(objective);
            }
            ObjectiveKind::Balanced => {
                // Minimize |wT·T̂ − wC·Ĉ| via a slack above both signs.
                let t = model.add_continuous("balance", 0.0, f64::INFINITY);
                model.add_constraint(
                    LinExpr::from(t) - weighted_traf.clone() + weighted_comp.clone(),
                    Cmp::Ge,
                    0.0,
                );
                model.add_constraint(
                    LinExpr::from(t) + weighted_traf.clone() - weighted_comp.clone(),
                    Cmp::Ge,
                    0.0,
                );
                model.set_objective(LinExpr::from(t) - util_expr * weights.w_util);
                balance = Some((t, weighted_traf.clone(), weighted_comp.clone()));
            }
        }

        // Always-feasible warm start: every factor temporal at DRAM with
        // the identity permutation; all indicators and traffic slacks zero.
        let mut warm_start = vec![0.0; model.num_vars()];
        for (gi, g) in st.groups.iter().enumerate() {
            let v = n_vars[gi][arch.dram_level()][1].expect("temporal slot always exists");
            warm_start[v.index()] = g.count as f64;
        }
        for (j, row) in perm.iter().enumerate() {
            warm_start[row[j].index()] = 1.0;
        }
        if let Some((t, wt, wc)) = &balance {
            warm_start[t.index()] = (wt.eval(&warm_start) - wc.eval(&warm_start)).abs();
        }
        debug_assert!(
            model.is_feasible(&warm_start, 1e-6),
            "DRAM-resident warm start must satisfy the program"
        );

        CosaProgram {
            model,
            groups: st.groups,
            n_vars,
            active_dims: st.active,
            perm,
            indicator_vars: with_permutation.then_some((e_vars, y_vars, w_vars)),
            noc_level: noc,
            balance,
            warm_start,
        }
    }

    /// Construct a feasible warm-start vector from a concrete assignment
    /// (e.g. the tiling-only program's solution plus enumerated ranks).
    /// Returns `None` if the assignment violates this program.
    pub fn warm_start_from(&self, asg: &FactorAssignment) -> Option<Vec<f64>> {
        let mut values = vec![0.0; self.model.num_vars()];
        for (gi, per_level) in asg.counts.iter().enumerate() {
            for (i, slots) in per_level.iter().enumerate() {
                for (k, count) in slots.iter().enumerate() {
                    if *count > 0 {
                        let var = self.n_vars[gi][i][k]?;
                        values[var.index()] = *count as f64;
                    }
                }
            }
        }
        if !self.perm.is_empty() {
            // Translate global ranks into active-dim slots, preserving
            // relative order.
            let mut order: Vec<usize> = (0..self.active_dims.len()).collect();
            order.sort_by_key(|&j| asg.ranks[self.active_dims[j].index()]);
            for (z, &j) in order.iter().enumerate() {
                values[self.perm[j][z].index()] = 1.0;
            }
            // Derive e, Y and w consistently with the chosen assignment.
            self.fill_indicator_values(&mut values, &order);
        }
        if let Some((t, wt, wc)) = &self.balance {
            values[t.index()] = (wt.eval(&values) - wc.eval(&values)).abs();
        }
        self.model.is_feasible(&values, 1e-6).then_some(values)
    }

    /// Fill `e`, `Y`, `w` warm values for a fixed tiling and permutation,
    /// through the handles captured at build time.
    fn fill_indicator_values(&self, values: &mut [f64], order: &[usize]) {
        let Some((e_vars, y_vars, w_vars)) = &self.indicator_vars else {
            return;
        };
        let zslots = self.active_dims.len();
        // L_j and presence per active dim.
        let mut l_of = vec![0.0f64; zslots];
        let mut present = vec![false; zslots];
        for (gi, g) in self.groups.iter().enumerate() {
            let j = self.active_dims.iter().position(|d| *d == g.dim);
            let var = self.n_vars[gi][self.noc_level][1];
            if let (Some(j), Some(var)) = (j, var) {
                let c = values[var.index()];
                if c > 0.0 {
                    l_of[j] += g.log_p * c;
                    present[j] = true;
                }
            }
        }
        for (j, &e) in e_vars.iter().enumerate() {
            values[e.index()] = if present[j] { 1.0 } else { 0.0 };
        }
        for (vi, v) in DataTensor::ALL.iter().enumerate() {
            let mut seen = false;
            for z in 0..zslots {
                let j = order[z];
                if present[j] && v.relevant_to(self.active_dims[j]) {
                    seen = true;
                }
                values[y_vars[vi][z].index()] = if seen { 1.0 } else { 0.0 };
                values[w_vars[vi][z].index()] = if seen { l_of[j] } else { 0.0 };
            }
        }
    }

    /// The underlying MILP (for inspection or statistics).
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// Solve with default options.
    ///
    /// # Errors
    ///
    /// Returns [`CosaError::Solver`] if the MILP solver fails; the program
    /// is feasible by construction (everything temporal at DRAM), so this
    /// indicates a resource limit or numerical problem.
    pub fn solve_default(&self) -> Result<FactorAssignment, CosaError> {
        self.solve(&SolveOptions::default())
    }

    /// Solve with explicit MILP options.
    ///
    /// # Errors
    ///
    /// See [`CosaProgram::solve_default`].
    pub fn solve(&self, opts: &SolveOptions) -> Result<FactorAssignment, CosaError> {
        let mut opts = opts.clone();
        if opts.warm_start.is_none() {
            opts.warm_start = Some(self.warm_start.clone());
        }
        let sol = self.model.solve_with(&opts)?;
        let value = |var: Option<Var>| var.map_or(0, |v| sol.value_round(v) as u32);
        let counts = self
            .n_vars
            .iter()
            .map(|per_level| per_level.iter().map(|slots| slots.map(value)).collect())
            .collect();
        // Ranks for active dimensions come from the permutation matrix.
        let mut ranks = [usize::MAX; Dim::COUNT];
        for (j, row) in self.perm.iter().enumerate() {
            for (z, var) in row.iter().enumerate() {
                if sol.value_round(*var) == 1 {
                    ranks[self.active_dims[j].index()] = z;
                }
            }
        }
        complete_ranks(&mut ranks, self.active_dims.len());
        Ok(FactorAssignment {
            groups: self
                .groups
                .iter()
                .map(|g| (g.dim, g.prime, g.count))
                .collect(),
            counts,
            ranks,
            objective: sol.objective(),
            stats: sol.stats(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The serving node budget instead of `solve_default`'s clock.
    fn solve_bounded(prog: &CosaProgram) -> FactorAssignment {
        let opts = SolveOptions {
            node_limit: 300,
            time_limit: None,
            ..SolveOptions::default()
        };
        prog.solve(&opts).unwrap()
    }

    #[test]
    fn assignment_covers_all_factors() {
        let arch = Arch::simba_baseline();
        let layer = Layer::conv("t", 3, 3, 8, 8, 16, 16, 1, 1, 1);
        let prog = CosaProgram::build(&layer, &arch, ObjectiveWeights::default());
        let asg = solve_bounded(&prog);
        for (g, per_level) in asg.groups.iter().zip(&asg.counts) {
            let total: u32 = per_level.iter().flatten().sum();
            assert_eq!(total, g.2, "group {g:?}");
        }
    }

    #[test]
    fn spatial_fanout_respected() {
        let arch = Arch::simba_baseline();
        let layer = Layer::conv("t", 1, 1, 8, 8, 64, 64, 1, 1, 1);
        let prog = CosaProgram::build(&layer, &arch, ObjectiveWeights::default());
        let asg = solve_bounded(&prog);
        for level in 0..arch.num_levels() {
            let mut spatial_product = 1u64;
            for (g, per_level) in asg.groups.iter().zip(&asg.counts) {
                spatial_product *= g.1.pow(per_level[level][0]);
            }
            assert!(
                spatial_product <= arch.spatial_fanout(level),
                "level {level}: {spatial_product} > {}",
                arch.spatial_fanout(level)
            );
        }
    }

    #[test]
    fn ranks_form_permutation() {
        let arch = Arch::simba_baseline();
        let layer = Layer::conv("t", 3, 3, 4, 4, 8, 8, 1, 1, 1);
        let prog = CosaProgram::build(&layer, &arch, ObjectiveWeights::default());
        let asg = prog.solve_default().unwrap();
        let mut seen = [false; 7];
        for &r in &asg.ranks {
            assert!(!seen[r], "duplicate rank {r}");
            seen[r] = true;
        }
    }

    #[test]
    fn solver_exploits_parallelism() {
        // A K=16 layer on 16 PEs: the compute objective should push K
        // into spatial mapping.
        let arch = Arch::simba_baseline();
        let layer = Layer::conv("t", 1, 1, 1, 1, 4, 16, 1, 1, 1);
        let weights = ObjectiveWeights {
            w_util: 1.0,
            w_comp: 2.0,
            w_traf: 1.0,
        };
        let prog = CosaProgram::build(&layer, &arch, weights);
        let asg = prog.solve_default().unwrap();
        let mut spatial_total = 1u64;
        for (g, per_level) in asg.groups.iter().zip(&asg.counts) {
            for lv in per_level {
                spatial_total *= g.1.pow(lv[0]);
            }
        }
        assert!(spatial_total > 1, "no spatial mapping chosen at all");
    }
}
