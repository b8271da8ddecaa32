//! Schedule extraction and the top-level one-shot scheduler.

use std::time::{Duration, Instant};

use cosa_milp::{SolveOptions, SolveStats};
use cosa_model::CostModel;
use cosa_spec::{Arch, Dim, Layer, Loop, Schedule};

use crate::error::CosaError;
use crate::formulation::{CosaProgram, FactorAssignment};
use crate::objective::{breakdown, ObjectiveBreakdown, ObjectiveWeights};
use crate::statement::complete_ranks;

/// Output of one CoSA scheduling run.
#[derive(Debug, Clone)]
pub struct CosaResult {
    /// The extracted (and validated) schedule.
    pub schedule: Schedule,
    /// Objective term values of the final schedule (Fig. 8 breakdown).
    pub breakdown: ObjectiveBreakdown,
    /// Raw MILP objective value (Eq. 12) at the solver's optimum.
    pub milp_objective: f64,
    /// MILP search statistics.
    pub stats: SolveStats,
    /// Wall-clock time spent in `schedule()` (the paper's time-to-solution).
    pub solve_time: Duration,
}

/// The CoSA scheduler: builds the MILP for a layer, solves it in one shot
/// and extracts a loop-nest schedule.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct CosaScheduler {
    arch: Arch,
    weights: ObjectiveWeights,
    kind: crate::ObjectiveKind,
    opts: SolveOptions,
}

impl CosaScheduler {
    /// A scheduler for `arch` with default objective weights.
    pub fn new(arch: &Arch) -> CosaScheduler {
        CosaScheduler::with_weights(arch, ObjectiveWeights::default())
    }

    /// A scheduler with explicit objective weights (Eq. 12).
    pub fn with_weights(arch: &Arch, weights: ObjectiveWeights) -> CosaScheduler {
        // A small relative gap and a bounded solve time: the paper's solver
        // "takes at most seconds to return a schedule" (Sec. IV-C), and a
        // near-optimal incumbent yields an equivalent loop nest in practice.
        let opts = SolveOptions {
            gap_tol: 0.03,
            time_limit: Some(std::time::Duration::from_secs(6)),
            ..SolveOptions::default()
        };
        CosaScheduler {
            arch: arch.clone(),
            weights,
            kind: Default::default(),
            opts,
        }
    }

    /// Override the MILP solver options (node/time limits).
    pub fn with_solve_options(mut self, opts: SolveOptions) -> CosaScheduler {
        self.opts = opts;
        self
    }

    /// Bound the solve by branch-and-bound node count instead of
    /// wall-clock, making results bit-reproducible across runs and
    /// machines even when the budget binds. (The default configuration is
    /// time-limited, so two runs that hit the limit can return different
    /// — equally feasible — incumbents; caching and report-diffing
    /// workflows want the stronger guarantee.)
    pub fn with_deterministic_limits(mut self, node_limit: usize) -> CosaScheduler {
        self.opts.node_limit = node_limit;
        self.opts.time_limit = None;
        self
    }

    /// Select the overall objective shape (Eq. 12's weighted sum, or the
    /// balanced `|wT·T̂ − wC·Ĉ|` alternative of Sec. III-D.4).
    pub fn with_objective_kind(mut self, kind: crate::ObjectiveKind) -> CosaScheduler {
        self.kind = kind;
        self
    }

    /// The objective weights in use.
    pub fn weights(&self) -> ObjectiveWeights {
        self.weights
    }

    /// The architecture this scheduler was built for.
    pub fn arch(&self) -> &Arch {
        &self.arch
    }

    /// The MILP solver options in use.
    pub fn solve_options(&self) -> &SolveOptions {
        &self.opts
    }

    /// The objective shape in use.
    pub fn objective_kind(&self) -> crate::ObjectiveKind {
        self.kind
    }

    /// The same scheduler configuration retargeted at another architecture
    /// (weights, objective kind and solver options are preserved). Used by
    /// the umbrella crate's `Scheduler` trait, whose uniform signature
    /// passes the architecture per call.
    pub fn for_arch(&self, arch: &Arch) -> CosaScheduler {
        CosaScheduler {
            arch: arch.clone(),
            weights: self.weights,
            kind: self.kind,
            opts: self.opts.clone(),
        }
    }

    /// Produce a schedule for `layer` in one shot.
    ///
    /// # Errors
    ///
    /// Returns [`CosaError::Solver`] on MILP failure and
    /// [`CosaError::Extraction`] if the extracted schedule fails validation
    /// (which would indicate a formulation bug — the constraints are
    /// conservative with respect to the analytical model's checks).
    pub fn schedule(&self, layer: &Layer) -> Result<CosaResult, CosaError> {
        let start = Instant::now();
        let program = CosaProgram::build_with_kind(layer, &self.arch, self.weights, self.kind);

        // Stage A: solve the cheap tiling-only program and pick its exact
        // best permutation by enumeration; the result seeds the full joint
        // program as a high-quality incumbent, so branch-and-bound prunes
        // aggressively and the anytime answer is already strong.
        let tiling = CosaProgram::build_tiling_only(layer, &self.arch, self.weights);
        // Stage A inherits the configured budget style: time-limited configs
        // keep the historical 3-second cap, node-limited (deterministic)
        // configs stay free of wall-clock dependence entirely.
        let stage_a_opts = SolveOptions {
            gap_tol: 0.01,
            time_limit: self.opts.time_limit.map(|t| t.min(Duration::from_secs(3))),
            node_limit: self.opts.node_limit,
            ..SolveOptions::default()
        };
        let mut opts = self.opts.clone();
        if let Ok(mut seed) = tiling.solve(&stage_a_opts) {
            seed.ranks = best_ranks(layer, &self.arch, &seed);
            if let Some(warm) = program.warm_start_from(&seed) {
                opts.warm_start = Some(warm);
            }
        }

        let assignment = program.solve(&opts)?;
        let mut schedule = extract_schedule(&self.arch, &assignment);
        refine_intra_level_order(layer, &self.arch, &mut schedule);
        schedule.validate(layer, &self.arch)?;
        let bd = breakdown(layer, &self.arch, &schedule, self.weights);
        Ok(CosaResult {
            schedule,
            breakdown: bd,
            milp_objective: assignment.objective,
            stats: assignment.stats,
            solve_time: start.elapsed(),
        })
    }
}

/// Turn a solved factor assignment into a loop nest.
///
/// Within each level, spatial loops are placed outermost (their position is
/// cost-neutral); temporal loops at the NoC level follow the solved
/// permutation ranks (rank 0 innermost), other levels start in canonical
/// dimension order and are refined afterwards.
pub fn extract_schedule(arch: &Arch, asg: &FactorAssignment) -> Schedule {
    let noc = arch.noc_level();
    let mut schedule = Schedule::new(arch.num_levels());
    for level in 0..arch.num_levels() {
        // Spatial loops first (outermost within the level).
        for ((dim, prime, _), counts) in asg.groups.iter().zip(&asg.counts) {
            for _ in 0..counts[level][0] {
                schedule.push(level, Loop::spatial(*dim, *prime));
            }
        }
        // Temporal loops: at the NoC level ordered by permutation rank
        // (higher rank = outermore), elsewhere canonical.
        let mut dims: Vec<Dim> = Dim::ALL.to_vec();
        if level == noc {
            dims.sort_by_key(|d| std::cmp::Reverse(asg.ranks[d.index()]));
        }
        for d in dims {
            for ((dim, prime, _), counts) in asg.groups.iter().zip(&asg.counts) {
                if *dim == d {
                    for _ in 0..counts[level][1] {
                        schedule.push(level, Loop::temporal(*dim, *prime));
                    }
                }
            }
        }
    }
    schedule
}

/// Greedy refinement of the temporal loop order inside each non-NoC level.
///
/// The MILP only decides the permutation at the NoC level (that is the term
/// the traffic objective observes, Eq. 9–10); orders elsewhere are
/// cost-relevant to the analytical model's reuse counting but neutral to
/// the MILP, so we pick them greedily: level by level from the outermost,
/// trying every order of the distinct dimensions present (loops of one
/// dimension stay adjacent — separating them never helps reuse).
pub fn refine_intra_level_order(layer: &Layer, arch: &Arch, schedule: &mut Schedule) {
    let model = CostModel::new(arch);
    let noc = arch.noc_level();
    for level in (0..arch.num_levels()).rev() {
        if level == noc {
            continue;
        }
        let nest = &schedule.levels()[level];
        let spatial: Vec<Loop> = nest.loops.iter().copied().filter(|l| l.spatial).collect();
        let temporal: Vec<Loop> = nest.loops.iter().copied().filter(|l| !l.spatial).collect();
        let mut dims: Vec<Dim> = Vec::new();
        for l in &temporal {
            if !dims.contains(&l.dim) {
                dims.push(l.dim);
            }
        }
        if dims.len() < 2 {
            continue;
        }
        let mut best_order = dims.clone();
        let mut best_latency = f64::INFINITY;
        let mut best_energy = f64::INFINITY;
        for order in permutations(&dims) {
            let mut loops = spatial.clone();
            for d in &order {
                loops.extend(temporal.iter().copied().filter(|l| l.dim == *d));
            }
            schedule.level_mut(level).loops = loops;
            let eval = model.evaluate_unchecked(layer, schedule);
            if eval.latency_cycles < best_latency - 1e-9
                || ((eval.latency_cycles - best_latency).abs() <= 1e-9
                    && eval.energy_pj < best_energy)
            {
                best_latency = eval.latency_cycles;
                best_energy = eval.energy_pj;
                best_order = order;
            }
        }
        let mut loops = spatial;
        for d in &best_order {
            loops.extend(temporal.iter().copied().filter(|l| l.dim == *d));
        }
        schedule.level_mut(level).loops = loops;
    }
}

/// Exact best NoC-level permutation for a fixed tiling, by enumeration of
/// the active dimensions' rank orders (≤ 7! candidates; the traffic term
/// `T_v` of Eq. 10 is evaluated in closed form per order).
pub(crate) fn best_ranks(
    layer: &Layer,
    arch: &Arch,
    asg: &FactorAssignment,
) -> [usize; Dim::COUNT] {
    use cosa_spec::DataTensor;
    let noc = arch.noc_level();
    // Log temporal NoC bound per dimension.
    let mut l_of = [0.0f64; Dim::COUNT];
    for ((dim, prime, _), counts) in asg.groups.iter().zip(&asg.counts) {
        l_of[dim.index()] += (*prime as f64).ln() * counts[noc][1] as f64;
    }
    let active: Vec<Dim> = Dim::ALL.into_iter().filter(|d| layer.dim(*d) > 1).collect();

    let mut best_order: Vec<Dim> = active.clone();
    let mut best_t = f64::INFINITY;
    for order in permutations(&active) {
        // order[0] is the innermost rank.
        let mut total = 0.0;
        for v in DataTensor::ALL {
            let mut seen = false;
            for d in &order {
                if l_of[d.index()] > 0.0 && v.relevant_to(*d) {
                    seen = true;
                }
                if seen {
                    total += l_of[d.index()];
                }
            }
        }
        if total < best_t {
            best_t = total;
            best_order = order;
        }
    }
    let mut ranks = [usize::MAX; Dim::COUNT];
    for (z, d) in best_order.iter().enumerate() {
        ranks[d.index()] = z;
    }
    complete_ranks(&mut ranks, best_order.len());
    ranks
}

/// All permutations of `items` (Heap's algorithm, collected).
fn permutations(items: &[Dim]) -> Vec<Vec<Dim>> {
    let mut out = Vec::new();
    let mut work = items.to_vec();
    let n = work.len();
    let mut c = vec![0usize; n];
    out.push(work.clone());
    let mut i = 0;
    while i < n {
        if c[i] < i {
            if i % 2 == 0 {
                work.swap(0, i);
            } else {
                work.swap(c[i], i);
            }
            out.push(work.clone());
            c[i] += 1;
            i = 0;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosa_model::CostModel;

    #[test]
    fn permutations_count() {
        let dims = [Dim::R, Dim::P, Dim::C];
        assert_eq!(permutations(&dims).len(), 6);
        let unique: std::collections::HashSet<Vec<Dim>> = permutations(&dims).into_iter().collect();
        assert_eq!(unique.len(), 6);
    }

    /// A scheduler bounded by the serving node budget instead of a clock.
    fn bounded(arch: &Arch) -> CosaScheduler {
        CosaScheduler::new(arch).with_deterministic_limits(300)
    }

    #[test]
    fn schedules_small_layer_validly() {
        let arch = Arch::simba_baseline();
        let layer = Layer::conv("t", 3, 3, 8, 8, 16, 16, 1, 1, 1);
        let result = bounded(&arch).schedule(&layer).unwrap();
        assert!(result.schedule.is_valid(&layer, &arch));
    }

    #[test]
    fn beats_naive_dram_streaming() {
        let arch = Arch::simba_baseline();
        let layer = Layer::parse_paper_name("3_13_256_256_1").unwrap();
        let model = CostModel::new(&arch);

        let mut naive = Schedule::new(arch.num_levels());
        for d in Dim::ALL {
            for p in layer.prime_factors(d) {
                naive.push(arch.dram_level(), Loop::temporal(d, p));
            }
        }
        let naive_eval = model.evaluate(&layer, &naive).unwrap();

        let result = bounded(&arch).schedule(&layer).unwrap();
        let cosa_eval = model.evaluate(&layer, &result.schedule).unwrap();
        assert!(
            cosa_eval.latency_cycles * 4.0 < naive_eval.latency_cycles,
            "CoSA {} vs naive {}",
            cosa_eval.latency_cycles,
            naive_eval.latency_cycles
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let arch = Arch::simba_baseline();
        let layer = Layer::conv("t", 3, 3, 4, 4, 8, 8, 1, 1, 1);
        let s1 = CosaScheduler::new(&arch).schedule(&layer).unwrap().schedule;
        let s2 = CosaScheduler::new(&arch).schedule(&layer).unwrap().schedule;
        assert_eq!(s1, s2, "one-shot scheduling must be deterministic");
    }

    #[test]
    fn milp_objective_close_to_breakdown_total() {
        // The breakdown recomputed from the schedule should be no better
        // than the solver's optimum (the solver also optimizes over loop
        // orders we later refine, so allow slack in one direction).
        let arch = Arch::simba_baseline();
        let layer = Layer::conv("t", 3, 3, 4, 4, 16, 16, 1, 1, 1);
        let result = CosaScheduler::new(&arch).schedule(&layer).unwrap();
        let diff = result.breakdown.total() - result.milp_objective;
        assert!(
            diff.abs() < 1.0,
            "breakdown {} vs milp {}",
            result.breakdown.total(),
            result.milp_objective
        );
    }
}
