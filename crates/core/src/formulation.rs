//! The CoSA mixed-integer program (Sec. III-B and III-C).
//!
//! The paper's binary matrix `X` assigns each prime-factor *instance* a
//! memory level, spatial/temporal mapping and permutation rank. Factor
//! instances of the same `(dimension, prime)` are interchangeable in every
//! constraint and objective term, so this implementation aggregates them
//! into integer *counts* per `(dimension, prime, level, mapping)` — a pure
//! symmetry reduction that leaves the reachable schedule space (and all
//! costs) unchanged while shrinking the search tree dramatically.
//!
//! Permutation ranks are likewise assigned per *dimension* at the NoC level
//! (a 7×7 permutation matrix): reordering same-dimension factors among
//! themselves never changes the traffic term (Eq. 9–10 only observe
//! dimension–tensor relevance and log-bound sums).

use cosa_milp::{Cmp, LinExpr, Model, Sense, SolveOptions, SolveStats, Var};
use cosa_spec::{Arch, DataTensor, Dim, Layer};

use crate::error::CosaError;
use crate::objective::ObjectiveWeights;

/// One aggregated factor group: `count` prime-factor instances of `prime`
/// belonging to `dim`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct FactorGroup {
    dim: Dim,
    prime: u64,
    count: u32,
    log_p: f64,
}

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

/// The assembled CoSA MILP for one `(layer, architecture)` pair.
///
/// ```
/// use cosa_spec::{Arch, Layer};
/// use cosa_core::{CosaProgram, ObjectiveWeights};
///
/// let arch = Arch::simba_baseline();
/// let layer = Layer::parse_paper_name("3_13_256_256_1")?;
/// let program = CosaProgram::build(&layer, &arch, ObjectiveWeights::default());
/// let assignment = program.solve_default()?;
/// // Every prime factor is assigned exactly once.
/// let total: u32 = assignment.counts.iter().flatten().flatten().sum();
/// assert_eq!(total as usize, layer.factor_instances().len());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct CosaProgram {
    model: Model,
    groups: Vec<FactorGroup>,
    /// `n_vars[group][level][k]`; `None` where spatial mapping is not
    /// available.
    n_vars: Vec<Vec<[Option<Var>; 2]>>,
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
        let num_levels = arch.num_levels();
        let noc = arch.noc_level();
        let mut model = Model::new(Sense::Minimize);

        // --- factor groups --------------------------------------------
        let mut groups = Vec::new();
        for d in Dim::ALL {
            for (prime, count) in cosa_spec::primes::factor_counts(layer.dim(d)) {
                groups.push(FactorGroup {
                    dim: d,
                    prime,
                    count,
                    log_p: (prime as f64).ln(),
                });
            }
        }

        // --- allocation variables (the aggregated X matrix) ------------
        let mut n_vars: Vec<Vec<[Option<Var>; 2]>> = Vec::with_capacity(groups.len());
        for (gi, g) in groups.iter().enumerate() {
            let mut per_level = Vec::with_capacity(num_levels);
            for i in 0..num_levels {
                // Presolve: at most ⌊log_p(fanout)⌋ factors of prime p fit a
                // level's spatial resources; tighter bounds shrink the tree.
                let fanout = arch.spatial_fanout(i);
                let max_spatial = ((fanout as f64).ln() / g.log_p + 1e-9).floor().max(0.0) as u32;
                let spatial = if fanout > 1 && max_spatial > 0 {
                    Some(model.add_integer(
                        format!("n_{}{}_L{}s", g.dim, gi, i),
                        0.0,
                        g.count.min(max_spatial) as f64,
                    ))
                } else {
                    None
                };
                let temporal = Some(model.add_integer(
                    format!("n_{}{}_L{}t", g.dim, gi, i),
                    0.0,
                    g.count as f64,
                ));
                per_level.push([spatial, temporal]);
            }
            n_vars.push(per_level);
        }

        // Eq. 3: every factor instance gets exactly one configuration.
        for (gi, g) in groups.iter().enumerate() {
            let vars = n_vars[gi].iter().flatten().flatten().copied();
            model.add_named_constraint(
                LinExpr::sum(vars),
                Cmp::Eq,
                g.count as f64,
                Some(format!("assign_{}{}", g.dim, gi)),
            );
        }

        // Eq. 4: spatial factors fit the fanout at each level.
        #[allow(clippy::needless_range_loop)]
        for i in 0..num_levels {
            let fanout = arch.spatial_fanout(i);
            if fanout <= 1 {
                continue;
            }
            let mut e = LinExpr::new();
            for (gi, g) in groups.iter().enumerate() {
                if let Some(v) = n_vars[gi][i][0] {
                    e.add_term(v, g.log_p);
                }
            }
            model.add_named_constraint(
                e,
                Cmp::Le,
                (fanout as f64).ln() + 1e-9,
                Some(format!("fanout_L{i}")),
            );
        }

        // Eq. 1–2: buffer capacities in the log domain. The tile resident at
        // level I is the product of every factor below I plus the spatial
        // factors at I (the level serves all of its spatial children).
        for (level_i, lvl) in arch.levels().iter().enumerate() {
            if level_i == arch.dram_level() {
                continue;
            }
            for v in DataTensor::ALL {
                let Some(cap) = lvl.capacity_for(v) else {
                    continue;
                };
                let mut util = LinExpr::new();
                for (gi, g) in groups.iter().enumerate() {
                    if !v.relevant_to(g.dim) {
                        continue;
                    }
                    // Every factor at or below the level occupies it (the
                    // level's own loops sweep sub-tiles of its resident
                    // tile; its spatial loops distribute it).
                    for slots in n_vars[gi].iter().take(level_i + 1) {
                        for var in slots.iter().flatten() {
                            util.add_term(*var, g.log_p);
                        }
                    }
                }
                // Conservative input halo: w ≤ p·stride_w·r, h ≤ q·stride_h·s
                // (exact when stride = 1 and the kernel is 1×1).
                let halo = if v == DataTensor::Inputs {
                    (layer.stride_w() as f64).ln() + (layer.stride_h() as f64).ln()
                } else {
                    0.0
                };
                let rhs = (cap as f64 / arch.precision(v) as f64).ln() - halo + 1e-9;
                model.add_named_constraint(
                    util,
                    Cmp::Le,
                    rhs,
                    Some(format!("cap_{}_{}", lvl.name, v)),
                );
            }
        }

        // --- permutation ranks at the NoC level (Table III, O0..OZ) ----
        // Rank slots exist only for dimensions that have prime factors;
        // bound-1 dimensions have no loops to order.
        let active_dims: Vec<Dim> = Dim::ALL.into_iter().filter(|d| layer.dim(*d) > 1).collect();
        let zslots = if with_permutation {
            active_dims.len()
        } else {
            0
        };
        let perm: Vec<Vec<Var>> = if with_permutation {
            active_dims
                .iter()
                .map(|d| {
                    (0..zslots)
                        .map(|z| model.add_binary(format!("perm_{d}_z{z}")))
                        .collect()
                })
                .collect()
        } else {
            Vec::new()
        };
        for (j, row) in perm.iter().enumerate() {
            model.add_named_constraint(
                LinExpr::sum(row.iter().copied()),
                Cmp::Eq,
                1.0,
                Some(format!("perm_row_{j}")),
            );
        }
        for z in 0..zslots {
            model.add_named_constraint(
                LinExpr::sum(perm.iter().map(|row| row[z])),
                Cmp::Eq,
                1.0,
                Some(format!("perm_col_{z}")),
            );
        }

        // Presence indicators: e[j] = 1 iff dim j has a temporal factor at
        // the NoC level.
        let mut e_vars = Vec::with_capacity(zslots);
        for d in active_dims
            .iter()
            .take(if with_permutation { usize::MAX } else { 0 })
        {
            let e = model.add_binary(format!("e_{d}"));
            let total: u32 = groups.iter().filter(|g| g.dim == *d).map(|g| g.count).sum();
            debug_assert!(total > 0, "active dims have factors");
            let sum_noc_t = LinExpr::sum(
                groups
                    .iter()
                    .enumerate()
                    .filter(|(_, g)| g.dim == *d)
                    .filter_map(|(gi, _)| n_vars[gi][noc][1]),
            );
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
                // (no slots when the permutation machinery is disabled)
                let y = model.add_continuous(format!("y_{v}_z{z}"), 0.0, 1.0);
                for (j, d) in active_dims.iter().enumerate() {
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
        let mut t_exprs: Vec<LinExpr> = Vec::with_capacity(DataTensor::COUNT);
        let mut w_vars: Vec<Vec<Var>> = Vec::with_capacity(DataTensor::COUNT);
        for (vi, _v) in DataTensor::ALL.iter().enumerate() {
            let mut t_v = LinExpr::new();
            let mut w_row = Vec::with_capacity(zslots);
            for z in 0..zslots {
                let w = model.add_continuous(format!("w_v{vi}_z{z}"), 0.0, f64::INFINITY);
                w_row.push(w);
                for (j, d) in active_dims.iter().enumerate() {
                    let m_j: f64 = groups
                        .iter()
                        .filter(|g| g.dim == *d)
                        .map(|g| g.log_p * g.count as f64)
                        .sum();
                    let mut l_j = LinExpr::new();
                    for (gi, g) in groups.iter().enumerate() {
                        if g.dim == *d {
                            if let Some(var) = n_vars[gi][noc][1] {
                                l_j.add_term(var, g.log_p);
                            }
                        }
                    }
                    // w − L_j + M_j·(2 − y − p) ≥ 0
                    let penalty = ((-1.0) * y_vars[vi][z] + (-1.0) * perm[j][z] + 2.0) * m_j;
                    let expr = LinExpr::from(w) - l_j + penalty;
                    model.add_constraint(expr, Cmp::Ge, 0.0);
                }
                t_v.add_term(w, 1.0);
            }
            t_exprs.push(t_v);
            w_vars.push(w_row);
        }

        // --- objective (Eq. 5, 6, 7, 8, 11, 12) -------------------------
        // Û: summed log utilization over buffer levels and tensors. The
        // constant parts (datatype precision, input-halo stride bound) do
        // not steer the optimization but keep the reported objective on the
        // same scale as `objective::breakdown`.
        let mut util_expr = LinExpr::new();
        for (level_i, lvl) in arch.levels().iter().enumerate() {
            if level_i == arch.dram_level() {
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
                util_expr += LinExpr::constant_expr(constant);
                for (gi, g) in groups.iter().enumerate() {
                    if !v.relevant_to(g.dim) {
                        continue;
                    }
                    for slots in n_vars[gi].iter().take(level_i + 1) {
                        for var in slots.iter().flatten() {
                            util_expr.add_term(*var, g.log_p);
                        }
                    }
                }
            }
        }

        // Ĉ: every temporal factor at every level.
        let mut comp_expr = LinExpr::new();
        for (gi, g) in groups.iter().enumerate() {
            for slots in &n_vars[gi] {
                if let Some(t) = slots[1] {
                    comp_expr.add_term(t, g.log_p);
                }
            }
        }

        // T̂ = Σ_v D_v + L_v + T_v.
        let mut traf_expr = LinExpr::new();
        for (vi, v) in DataTensor::ALL.iter().enumerate() {
            for (gi, g) in groups.iter().enumerate() {
                if !v.relevant_to(g.dim) {
                    continue;
                }
                // D_v: all factors below the NoC level.
                for slots in n_vars[gi].iter().take(noc) {
                    for var in slots.iter().flatten() {
                        traf_expr.add_term(*var, g.log_p);
                    }
                }
                // L_v: relevant spatial factors at the NoC level.
                if let Some(s) = n_vars[gi][noc][0] {
                    traf_expr.add_term(s, g.log_p);
                }
                // Permutation-free proxy for T_v: every relevant temporal
                // NoC factor multiplies the tensor's traffic.
                if !with_permutation {
                    if let Some(t) = n_vars[gi][noc][1] {
                        traf_expr.add_term(t, g.log_p);
                    }
                }
            }
            if with_permutation {
                traf_expr += t_exprs[vi].clone();
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
        for (gi, g) in groups.iter().enumerate() {
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

        let indicator_vars = if with_permutation {
            Some((e_vars, y_vars, w_vars))
        } else {
            None
        };
        CosaProgram {
            model,
            groups,
            n_vars,
            active_dims,
            perm,
            indicator_vars,
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
        if self.model.is_feasible(&values, 1e-6) {
            Some(values)
        } else {
            None
        }
    }

    /// Fill `e`, `Y`, `w` warm values for a fixed tiling and permutation.
    /// Variable creation order is: perm rows, then e per active dim, then
    /// y per (tensor, z), then w per (tensor, z) — mirroring `build`.
    fn fill_indicator_values(&self, values: &mut [f64], order: &[usize]) {
        use cosa_spec::DataTensor;
        let zslots = self.active_dims.len();
        let noc = self.noc_level_of_n_vars();
        // L_j and presence per active dim.
        let mut l_of = vec![0.0f64; zslots];
        let mut present = vec![false; zslots];
        for (gi, g) in self.groups.iter().enumerate() {
            if let Some(pos) = self.active_dims.iter().position(|d| *d == g.dim) {
                if let Some(var) = self.n_vars[gi][noc][1] {
                    let c = values[var.index()];
                    if c > 0.0 {
                        l_of[pos] += g.log_p * c;
                        present[pos] = true;
                    }
                }
            }
        }
        // e variables follow the perm block in creation order; recover their
        // indices from the stored handles instead: e is not stored, so scan
        // by name is fragile — recompute via model var count arithmetic is
        // worse. Instead, exploit that e/Y/w values are *implied*: set them
        // through the stored Var handles captured at build time.
        let (e_vars, y_vars, w_vars) = match &self.indicator_vars {
            Some(t) => t.clone(),
            None => return,
        };
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

    fn noc_level_of_n_vars(&self) -> usize {
        self.noc_level
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
        let mut counts = Vec::with_capacity(self.groups.len());
        for per_level in &self.n_vars {
            let mut lv = Vec::with_capacity(per_level.len());
            for slots in per_level {
                lv.push([
                    slots[0].map(|v| sol.value_round(v) as u32).unwrap_or(0),
                    slots[1].map(|v| sol.value_round(v) as u32).unwrap_or(0),
                ]);
            }
            counts.push(lv);
        }
        // Ranks for active dimensions come from the permutation matrix;
        // bound-1 dimensions have no loops and get outermost leftovers.
        let mut ranks = [usize::MAX; Dim::COUNT];
        for (j, row) in self.perm.iter().enumerate() {
            for (z, var) in row.iter().enumerate() {
                if sol.value_round(*var) == 1 {
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

    #[test]
    fn assignment_covers_all_factors() {
        let arch = Arch::simba_baseline();
        let layer = Layer::conv("t", 3, 3, 8, 8, 16, 16, 1, 1, 1);
        let prog = CosaProgram::build(&layer, &arch, ObjectiveWeights::default());
        let asg = prog.solve_default().unwrap();
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
        let asg = prog.solve_default().unwrap();
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
