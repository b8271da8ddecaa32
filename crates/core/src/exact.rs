//! The exact optimum of the CoSA program (Eq. 1–12) by dynamic programming
//! over cumulative factor counts.
//!
//! Every term of the program is a function of how many factors of each
//! `(dimension, prime)` group sit at or below each memory level, plus the
//! permutation order of the active dimensions at the NoC level:
//!
//! * the capacity rows (Eq. 1–2) and the utilization term `Û` (Eq. 5) read
//!   the cumulative count `c_g` of every group after a level;
//! * the `D_v` part of the traffic term reads it after the level just
//!   below the NoC;
//! * the compute term `Ĉ` (Eq. 6) charges each temporal factor, the `L_v`
//!   part of the traffic term each spatial NoC factor, and `T_v` (Eq. 9–10)
//!   each temporal NoC factor of dimension `j` once per tensor that is
//!   relevant to some dimension at or inside `j`'s rank (`k_j` below);
//! * the fanout rows (Eq. 4) bound the spatial factors of one level.
//!
//! So the states after level `i` are the vectors `c` with `c_g ∈ [0, n_g]`,
//! `Π(n_g+1)` of them, and one level is a min-plus step from the states
//! after the level below. [`exact_optimum`] takes the minimum over the
//! distinct `k` vectors of all NoC orders. That minimum is the program's:
//! a dimension without a temporal NoC factor costs nothing wherever it
//! sits, so some optimal order puts those dimensions outermost, and there
//! every `k_j` counts exactly the tensors the reuse indicators of Eq. 9
//! switch on.
//!
//! It is the third lowering of [`crate::statement`], beside
//! [`crate::CosaProgram`] and the SAT encoding: the slot bounds, the rows'
//! right-hand sides and the objective's constants come from the statement,
//! and tests hold the optimum to both other lowerings.

use cosa_spec::{Arch, DataTensor, Dim, Layer};

use crate::objective::ObjectiveWeights;
use crate::statement::{factor_groups, FactorGroup, Statement};

/// Largest state space [`exact_optimum`] sweeps. Every unique layer of the
/// seven workload suites fits; the largest has 48 000 states.
pub const MAX_STATES: u64 = 65_536;

/// Number of DP states of `layer`: `Π(n_g+1)` over its factor groups
/// (saturating). [`exact_optimum`] runs when this is at most
/// [`MAX_STATES`].
pub fn state_count(layer: &Layer) -> u64 {
    factor_groups(layer)
        .iter()
        .fold(1u64, |s, g| s.saturating_mul(g.count as u64 + 1))
}

/// The mixed-radix state space: state `idx` holds `c_g = idx / stride[g] %
/// radix[g]` factors of group `g`.
struct Space {
    radix: Vec<usize>,
    stride: Vec<usize>,
    size: usize,
}

impl Space {
    fn new(groups: &[FactorGroup]) -> Space {
        let radix: Vec<usize> = groups.iter().map(|g| g.count as usize + 1).collect();
        let mut stride = Vec::with_capacity(radix.len());
        let mut size = 1;
        for &r in &radix {
            stride.push(size);
            size *= r;
        }
        Space {
            radix,
            stride,
            size,
        }
    }

    /// `a[c] ← min_{t ≤ c} a[c − t] + Σ_g alpha[g]·t_g`: one prefix-min
    /// sweep per group axis, in increasing state order.
    fn temporal(&self, a: &mut [f64], alpha: &[f64]) {
        for (g, &step) in alpha.iter().enumerate() {
            let (stride, block) = (self.stride[g], self.stride[g] * self.radix[g]);
            for base in (0..self.size).step_by(block) {
                for idx in base + stride..base + block {
                    let moved = a[idx - stride] + step;
                    if moved < a[idx] {
                        a[idx] = moved;
                    }
                }
            }
        }
    }

    /// `out[c] = min(a[c], min_s a[c − s] + cost_s)` over the nonzero
    /// spatial vectors `s` (offset, cost, counts), where `c ≥ s`.
    fn spatial(&self, a: &[f64], shifts: &[Shift]) -> Vec<f64> {
        let mut out = a.to_vec();
        for shift in shifts {
            self.for_each_at_least(&shift.counts, |idx| {
                let moved = a[idx - shift.offset] + shift.cost;
                if moved < out[idx] {
                    out[idx] = moved;
                }
            });
        }
        out
    }

    /// Calls `f` on every state whose counts are all at least `lo`, in
    /// increasing order.
    fn for_each_at_least(&self, lo: &[usize], mut f: impl FnMut(usize)) {
        let g = self.radix.len();
        if g == 0 {
            f(0);
            return;
        }
        let mut c = lo.to_vec();
        let mut base: usize = (1..g).map(|h| lo[h] * self.stride[h]).sum();
        loop {
            for idx in base + lo[0]..base + self.radix[0] {
                f(idx);
            }
            let mut h = 1;
            loop {
                if h == g {
                    return;
                }
                c[h] += 1;
                base += self.stride[h];
                if c[h] < self.radix[h] {
                    break;
                }
                base -= (c[h] - lo[h]) * self.stride[h];
                c[h] = lo[h];
                h += 1;
            }
        }
    }
}

/// A nonzero spatial vector of one level: its per-group counts, its state
/// offset and its cost.
struct Shift {
    counts: Vec<usize>,
    offset: usize,
    cost: f64,
}

/// The spatial vectors of `level` that fit its fanout row (Eq. 4) and the
/// slots' spatial bounds, each costing `unit[g]` per factor.
fn shifts(st: &Statement, level: usize, space: &Space, unit: &[f64]) -> Vec<Shift> {
    let Some((_, row)) = st.fanout.iter().find(|(i, _)| *i == level) else {
        return Vec::new();
    };
    let (groups, room) = (&st.groups, row.rhs);
    let caps: Vec<usize> = st.caps.iter().map(|c| c[level][0] as usize).collect();
    let mut out = Vec::new();
    let mut counts = vec![0; groups.len()];
    // Odometer over the capped counts, pruned by the fanout row.
    loop {
        let mut g = 0;
        loop {
            if g == groups.len() {
                return out;
            }
            counts[g] += 1;
            let used: f64 = groups
                .iter()
                .zip(&counts)
                .map(|(h, &s)| h.log_p * s as f64)
                .sum();
            if counts[g] <= caps[g] && used <= room {
                break;
            }
            counts[g] = 0;
            g += 1;
        }
        out.push(Shift {
            offset: counts.iter().zip(&space.stride).map(|(c, s)| c * s).sum(),
            cost: counts.iter().zip(unit).map(|(&s, u)| u * s as f64).sum(),
            counts: counts.clone(),
        });
    }
}

/// The distinct `k` vectors over all orders of `active` (rank 0 innermost):
/// `k[d]` counts the tensors relevant to some dimension at or inside `d`.
fn reuse_vectors(active: &[Dim]) -> Vec<[u8; Dim::COUNT]> {
    fn walk(
        rest: &mut Vec<Dim>,
        mask: u8,
        k: &mut [u8; Dim::COUNT],
        out: &mut Vec<[u8; Dim::COUNT]>,
    ) {
        if rest.is_empty() {
            out.push(*k);
            return;
        }
        for i in 0..rest.len() {
            let d = rest.remove(i);
            let mut seen = mask;
            for v in DataTensor::ALL {
                if v.relevant_to(d) {
                    seen |= 1 << v.index();
                }
            }
            k[d.index()] = seen.count_ones() as u8;
            walk(rest, seen, k, out);
            rest.insert(i, d);
        }
    }
    let mut out = Vec::new();
    walk(&mut active.to_vec(), 0, &mut [0; Dim::COUNT], &mut out);
    out.sort_unstable();
    out.dedup();
    out
}

/// The minimum of the Eq. 12 objective of [`crate::CosaProgram::build`]
/// (and of the SAT lowering of the same statement) for `layer` on `arch`,
/// on the same scale as their objectives; `+∞` when no schedule satisfies
/// the capacity rows. `None` when the layer has more than [`MAX_STATES`]
/// states.
///
/// Exact when `weights.w_traf ≥ 0`; otherwise a lower bound.
pub fn exact_optimum(layer: &Layer, arch: &Arch, weights: ObjectiveWeights) -> Option<f64> {
    if state_count(layer) > MAX_STATES {
        return None;
    }
    let st = Statement::new(layer, arch);
    let groups = &st.groups;
    let space = Space::new(groups);
    let noc = arch.noc_level();
    let dram = arch.dram_level();

    // lsum[v][c] = Σ_{g relevant to v} ln p_g·c_g, the log-size of v's
    // tile under a state.
    let mut lsum = vec![vec![0.0; space.size]; DataTensor::COUNT];
    for v in DataTensor::ALL {
        let row = &mut lsum[v.index()];
        for (g, grp) in groups.iter().enumerate() {
            if !v.relevant_to(grp.dim) {
                continue;
            }
            for (idx, x) in row.iter_mut().enumerate() {
                *x += grp.log_p * ((idx / space.stride[g]) % space.radix[g]) as f64;
            }
        }
    }

    // The objective's constant part: Û's precision and halo logs.
    let mut constant = 0.0;
    for tile in &st.tiles {
        constant -= weights.w_util * tile.constant;
    }

    // The state cost after level i (Û, D_v below the NoC), or +∞ where a
    // capacity row fails.
    let settle = |i: usize, a: &mut [f64]| {
        if i == dram {
            return;
        }
        let mut coef = [0.0; DataTensor::COUNT];
        let mut rows = Vec::new();
        for tile in st.tiles.iter().filter(|t| t.level == i) {
            coef[tile.tensor.index()] -= weights.w_util;
            rows.push((tile.tensor.index(), tile.capacity));
        }
        if i + 1 == noc {
            for c in &mut coef {
                *c += weights.w_traf;
            }
        }
        for (idx, x) in a.iter_mut().enumerate() {
            if rows.iter().any(|&(v, rhs)| lsum[v][idx] > rhs) {
                *x = f64::INFINITY;
            } else {
                *x += (0..DataTensor::COUNT)
                    .map(|v| coef[v] * lsum[v][idx])
                    .sum::<f64>();
            }
        }
    };
    // A temporal factor costs w_C·ln p everywhere; a spatial one costs
    // w_T·ln p per relevant tensor at the NoC level (L_v) and nothing
    // elsewhere.
    let compute: Vec<f64> = groups.iter().map(|g| weights.w_comp * g.log_p).collect();
    let unicast: Vec<f64> = groups
        .iter()
        .map(|g| {
            let tensors = DataTensor::ALL
                .iter()
                .filter(|v| v.relevant_to(g.dim))
                .count();
            weights.w_traf * g.log_p * tensors as f64
        })
        .collect();
    // Every level but the NoC, where spatial factors are free.
    let free = vec![0.0; groups.len()];
    let level = |i: usize, a: Vec<f64>| {
        let mut a = space.spatial(&a, &shifts(&st, i, &space, &free));
        space.temporal(&mut a, &compute);
        settle(i, &mut a);
        a
    };

    let mut below = vec![f64::INFINITY; space.size];
    below[0] = 0.0;
    for i in 0..noc {
        below = level(i, below);
    }
    // The NoC level's spatial part does not depend on the order, so it is
    // shared by every k vector; only the temporal part and the levels
    // above are rerun.
    let shared = space.spatial(&below, &shifts(&st, noc, &space, &unicast));
    let mut best = f64::INFINITY;
    for k in reuse_vectors(&st.active) {
        let alpha: Vec<f64> = groups
            .iter()
            .zip(&compute)
            .map(|(g, c)| c + weights.w_traf * g.log_p * f64::from(k[g.dim.index()]))
            .collect();
        let mut a = shared.clone();
        space.temporal(&mut a, &alpha);
        settle(noc, &mut a);
        for i in noc + 1..arch.num_levels() {
            a = level(i, a);
        }
        best = best.min(a[space.size - 1]);
    }
    Some(best + constant)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosa_spec::workloads;

    #[test]
    fn every_suite_layer_is_under_the_state_cap() {
        // Pure arithmetic on factor counts: no DP runs.
        let mut largest = 0;
        for suite in workloads::all_suites()
            .into_iter()
            .chain(workloads::modern_suites())
        {
            for layer in &suite.layers {
                let states = state_count(layer);
                assert!(
                    states <= MAX_STATES,
                    "{} / {}: {states} states",
                    suite.name,
                    layer.name()
                );
                largest = largest.max(states);
            }
        }
        assert_eq!(largest, 48_000, "the cap's documented headroom moved");
    }

    #[test]
    fn reuse_vectors_cover_the_three_tensor_pairs() {
        // Every dimension is relevant to exactly two tensors, so the dims
        // sharing the innermost dimension's pair see 2 and the rest 3: one
        // vector per nonempty subset of {R,S,C}, of {P,Q,N}, and {K}.
        let ks = reuse_vectors(&Dim::ALL);
        assert_eq!(ks.len(), 7 + 7 + 1);
        for k in &ks {
            assert!(k.iter().all(|&x| x == 2 || x == 3), "{k:?}");
        }
    }

    #[test]
    fn matches_the_milp_optimum() {
        let arch = Arch::simba_baseline();
        for layer in [
            Layer::matmul("m", 16, 16, 16),
            Layer::conv("c", 1, 1, 8, 8, 16, 16, 1, 1, 1),
            Layer::conv("s", 3, 3, 4, 4, 8, 8, 1, 2, 2),
        ] {
            let weights = ObjectiveWeights::default();
            let exact = exact_optimum(&layer, &arch, weights).expect("under the cap");
            let milp = crate::CosaProgram::build(&layer, &arch, weights)
                .solve_default()
                .expect("the MILP solves");
            assert!(
                (exact - milp.objective).abs() <= 1e-6 * exact.abs().max(1.0),
                "{}: exact {exact} vs milp {}",
                layer.name(),
                milp.objective
            );
        }
    }
}
