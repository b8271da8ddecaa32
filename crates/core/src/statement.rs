//! The CoSA program (Eq. 1–12, Sec. III-B/C), stated once and lowered
//! three ways: to the MILP of [`crate::CosaProgram`], to the Boolean
//! encoding of `cosa_sat::SatProgram` and to the dynamic program of
//! [`crate::exact`].
//!
//! Factor instances of one `(dimension, prime)` are interchangeable in
//! every row and term, so the paper's binary matrix `X` is aggregated into
//! integer counts per [`Slot`] `(group, level, mapping)`: a symmetry
//! reduction that keeps every reachable schedule and cost. Shared are the
//! slots' bounds, the Eq. 3, Eq. 4 and Eq. 1–2 rows, and the `Û` (Eq. 5),
//! `Ĉ` (Eq. 6) and `D_v + L_v` (Eq. 7–8) terms; each lowering keeps its own
//! NoC-level permutation block for `T_v` (Eq. 9–10). Terms are listed one
//! by one, in the order the lowerings add them, never pre-summed: a lowering
//! that accumulates them (the MILP's `LinExpr`) must add each on its own,
//! since `ln p + ln p + ln p` and `3·ln p` can differ in the last bit.

use cosa_spec::{Arch, DataTensor, Dim, Layer};

/// One aggregated factor group: `count` prime-factor instances of `prime`
/// belonging to `dim`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FactorGroup {
    /// The loop dimension the factors belong to.
    pub dim: Dim,
    /// The prime.
    pub prime: u64,
    /// How many instances of `prime` the dimension's bound has.
    pub count: u32,
    /// `ln prime`, the log-domain weight of one instance.
    pub log_p: f64,
}

/// The factor groups of `layer`, dimension by dimension in [`Dim::ALL`]
/// order and by increasing prime within a dimension.
pub fn factor_groups(layer: &Layer) -> Vec<FactorGroup> {
    let mut groups = Vec::new();
    for dim in Dim::ALL {
        for (prime, count) in cosa_spec::primes::factor_counts(layer.dim(dim)) {
            groups.push(FactorGroup {
                dim,
                prime,
                count,
                log_p: (prime as f64).ln(),
            });
        }
    }
    groups
}

/// An integer count `n[group][level][k]`, `k = 0` spatial / `1` temporal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// Index into [`Statement::groups`].
    pub group: usize,
    /// Memory level, 0 innermost.
    pub level: usize,
    /// `0` spatial, `1` temporal.
    pub k: usize,
}

/// Slot terms `coefficient·n[slot]`, in the order they are added; a list
/// names each slot at most once.
pub type Terms = Vec<(Slot, f64)>;

/// A row `Σ terms = rhs` (Eq. 3) or `Σ terms ≤ rhs` (Eq. 1, 2 and 4).
#[derive(Debug, Clone)]
pub struct Row {
    /// Left-hand side.
    pub terms: Terms,
    /// Right-hand side; a `≤` row's includes its `1e-9` slack.
    pub rhs: f64,
}

/// The tile of `tensor` a buffer level stores: every factor at or below
/// the level occupies it (its own loops sweep sub-tiles of it, its spatial
/// loops distribute it). It gives one capacity row (Eq. 1–2) and one `Û`
/// entry (Eq. 5).
#[derive(Debug, Clone)]
pub struct Tile {
    /// The buffer level.
    pub level: usize,
    /// The stored tensor.
    pub tensor: DataTensor,
    /// The tile's log-size: `ln p` per relevant slot at or below `level`.
    pub terms: Terms,
    /// The capacity row's right-hand side: the log of the capacity in
    /// elements, less the input halo, plus `1e-9`.
    pub capacity: f64,
    /// The `Û` entry's constant: the log precision plus the input halo.
    /// It does not steer the optimum but keeps objectives on the scale of
    /// `objective::breakdown`.
    pub constant: f64,
}

/// The shared part of Eq. 1–12 for one `(layer, architecture)` pair.
#[derive(Debug, Clone, Default)]
pub struct Statement {
    /// The factor groups, as [`factor_groups`] lists them.
    pub groups: Vec<FactorGroup>,
    /// `caps[group][level] = [spatial, temporal]` upper bounds; a slot
    /// with bound 0 does not exist. The spatial bound is presolved to
    /// `⌊log_p fanout⌋`, the most factors of `p` a level's fanout admits.
    pub caps: Vec<Vec<[u32; 2]>>,
    /// Dimensions with a bound above 1, the only ones with loops to order.
    pub active: Vec<Dim>,
    /// Eq. 3, one row per group: every factor instance gets exactly one
    /// slot.
    pub assign: Vec<Row>,
    /// Eq. 4, `(level, row)` per level with a fanout above 1: the spatial
    /// factors fit the level's fanout.
    pub fanout: Vec<(usize, Row)>,
    /// Every stored `(buffer level, tensor)`, level by level.
    pub tiles: Vec<Tile>,
    /// `Ĉ`: `ln p` per temporal slot at every level.
    pub compute: Terms,
    /// `D_v + L_v` per tensor: `ln p` per relevant slot below the NoC
    /// level, then per relevant spatial slot at it, group by group.
    pub traffic: Vec<Terms>,
}

impl Statement {
    /// State the program for `layer` on `arch`.
    pub fn new(layer: &Layer, arch: &Arch) -> Statement {
        let groups = factor_groups(layer);
        let levels = arch.num_levels();
        let caps = groups
            .iter()
            .map(|g| {
                (0..levels)
                    .map(|i| {
                        let fanout = arch.spatial_fanout(i);
                        let max = ((fanout as f64).ln() / g.log_p + 1e-9).floor().max(0.0) as u32;
                        [if fanout > 1 { g.count.min(max) } else { 0 }, g.count]
                    })
                    .collect()
            })
            .collect();
        let mut st = Statement {
            groups,
            caps,
            active: Dim::ALL.into_iter().filter(|d| layer.dim(*d) > 1).collect(),
            ..Statement::default()
        };
        st.assign = (0..st.groups.len())
            .map(|g| Row {
                terms: st
                    .terms(|h| h == g, |_, _| true)
                    .into_iter()
                    .map(|(s, _)| (s, 1.0))
                    .collect(),
                rhs: st.groups[g].count as f64,
            })
            .collect();
        for i in (0..levels).filter(|&i| arch.spatial_fanout(i) > 1) {
            let terms = st.terms(|_| true, |l, k| l == i && k == 0);
            let rhs = (arch.spatial_fanout(i) as f64).ln() + 1e-9;
            st.fanout.push((i, Row { terms, rhs }));
        }
        for (i, lvl) in arch.levels().iter().enumerate() {
            if i == arch.dram_level() {
                continue;
            }
            for v in DataTensor::ALL {
                let Some(cap) = lvl.capacity_for(v) else {
                    continue;
                };
                // Conservative input halo: w ≤ p·stride_w·r, h ≤ q·stride_h·s
                // (exact when stride = 1 and the kernel is 1×1).
                let halo = if v == DataTensor::Inputs {
                    (layer.stride_w() as f64).ln() + (layer.stride_h() as f64).ln()
                } else {
                    0.0
                };
                let precision = arch.precision(v) as f64;
                st.tiles.push(Tile {
                    level: i,
                    tensor: v,
                    terms: st.terms(|g| v.relevant_to(st.groups[g].dim), |l, _| l <= i),
                    capacity: (cap as f64 / precision).ln() - halo + 1e-9,
                    constant: precision.ln() + halo,
                });
            }
        }
        st.compute = st.terms(|_| true, |_, k| k == 1);
        let noc = arch.noc_level();
        let traffic = DataTensor::ALL.map(|v| {
            let relevant = |g: usize| v.relevant_to(st.groups[g].dim);
            st.terms(relevant, |l, k| l < noc || (l == noc && k == 0))
        });
        st.traffic = traffic.into();
        st
    }

    /// `(slot, ln p)` per existing slot `(group, level, k)` with `keep(group)`
    /// and `at(level, k)`: group by group, level by level, spatial before
    /// temporal.
    fn terms(&self, keep: impl Fn(usize) -> bool, at: impl Fn(usize, usize) -> bool) -> Terms {
        let mut out = Vec::new();
        for (group, caps) in self.caps.iter().enumerate().filter(|(g, _)| keep(*g)) {
            for (level, caps) in caps.iter().enumerate() {
                for k in (0..2).filter(|&k| caps[k] > 0 && at(level, k)) {
                    out.push((Slot { group, level, k }, self.groups[group].log_p));
                }
            }
        }
        out
    }
}

/// Gives every dimension still unranked (`usize::MAX`) the next leftover
/// outermost rank from `next` on, in [`Dim::ALL`] order. The permutation
/// ranks only active dimensions; the others have no loops to order.
pub fn complete_ranks(ranks: &mut [usize; Dim::COUNT], mut next: usize) {
    for r in ranks.iter_mut().filter(|r| **r == usize::MAX) {
        *r = next;
        next += 1;
    }
}
