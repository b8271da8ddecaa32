//! Layer-latency composition: per-type flit simulations + exact counts.
//!
//! A layer's iteration classes share a handful of distinct transfer sets.
//! Each set is simulated once, and the sets run concurrently on up to
//! `available_parallelism` threads ([`cosa_spec::fanout`]) unless they step
//! too few cycles to pay for a thread; the per-class timings are then composed
//! in plan order, so the verdict does not depend on the thread count.

use std::cmp::Reverse;

use cosa_spec::{fanout, Arch, DataTensor, Layer, Schedule, SpecError};
use serde::{Deserialize, Serialize};

use crate::mesh::{MeshConfig, MeshSim, PacketSpec, JUMP_MIN_FLITS};
use crate::traffic::{IterationType, TrafficPlan};

/// Below this many stepped flits (see [`stepped_flits`]) outside a layer's
/// largest transfer set, its sets are simulated on the calling thread alone.
/// The work outside the largest set is the most a helper thread can take off
/// the caller. A helper costs 35–150 µs to start and join (2-core x86 VM).
/// Over the 398 transfer sets of a `baseline_eval_sweep` pass, stepped flits
/// predict a set's host time (Pearson r = 0.85; flit volume: r ≈ 0) at a
/// median 88 ns each, ≈ 60 ns for the layers near this threshold, so 1 024
/// of them are about a helper's cost. On the sweep (medians of 5
/// alternating runs) no helper at all (one core) is 5 % slower on seed 1
/// and 16 % on seed 3; thresholds of 2 048 and 4 096 are within the noise
/// of this one, and 8 192 is ≈ 20 % slower.
const MIN_FANOUT_FLITS: u64 = 1 << 10;

/// The flits of `packets` the mesh steps through, which is what predicts a
/// set's host time: a packet long enough to jump a steady state (see
/// [`MeshSim`]) costs about as many steps as one of [`JUMP_MIN_FLITS`] flits,
/// whatever its length.
fn stepped_flits(packets: &[PacketSpec]) -> u64 {
    packets.iter().map(|p| p.flits.min(JUMP_MIN_FLITS)).sum()
}

/// Threads for simulating transfer sets of `flits` stepped flits each: one
/// per set up to `available_parallelism`, or just the caller when the sets
/// other than the largest are too small to pay for a helper.
fn sim_threads(flits: &[u64]) -> usize {
    let largest = flits.iter().copied().max().unwrap_or(0);
    if flits.iter().sum::<u64>() - largest < MIN_FANOUT_FLITS {
        return 1;
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The packet groups an iteration class puts on the mesh: the resent
/// weights/inputs, the partial-sum readback and the output writeback.
/// Classes with equal sets take equal NoC time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TransferSet {
    resend: [bool; DataTensor::COUNT],
    oa_readback: bool,
    oa_writeback: bool,
}

impl TransferSet {
    fn of(t: &IterationType) -> TransferSet {
        TransferSet {
            resend: t.resend,
            oa_readback: t.oa_readback,
            oa_writeback: t.oa_writeback,
        }
    }

    /// The set's packets, in the order the mesh injects them.
    fn packets(self, plan: &TrafficPlan) -> Vec<PacketSpec> {
        let mut packets = Vec::new();
        for v in DataTensor::ALL {
            if self.resend[v.index()] && v != DataTensor::Outputs {
                packets.extend_from_slice(&plan.down_packets[v.index()]);
            }
        }
        if self.oa_readback {
            packets.extend_from_slice(&plan.down_packets[DataTensor::Outputs.index()]);
        }
        if self.oa_writeback {
            packets.extend_from_slice(&plan.up_packets);
        }
        packets
    }
}

/// Timing of one iteration class.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeTiming {
    /// Occurrences over the layer.
    pub count: f64,
    /// Cycle-accurate NoC transfer time of the class's packet set.
    pub noc_cycles: u64,
    /// DRAM service time for the class (bandwidth + first-access latency).
    pub dram_cycles: f64,
    /// Tensors re-sent downstream.
    pub resend: [bool; DataTensor::COUNT],
}

/// The NoC simulator's verdict on one schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct NocReport {
    /// End-to-end layer latency in cycles.
    pub total_cycles: f64,
    /// Total sequential compute cycles (product of temporal bounds).
    pub compute_cycles: u64,
    /// Σ per-iteration `max(compute, NoC)` — the PE/NoC pipeline bound.
    pub pipeline_cycles: f64,
    /// Total DRAM service cycles — the memory-stream bound.
    pub dram_cycles: f64,
    /// Per-class timings.
    pub types: Vec<TypeTiming>,
    /// PEs with work mapped to them.
    pub pes_used: usize,
}

impl NocReport {
    /// `true` when the layer is limited by communication rather than
    /// compute (the schedules Fig. 10 punishes).
    pub fn communication_bound(&self) -> bool {
        self.total_cycles > 1.05 * self.compute_cycles as f64
    }

    /// The serializable headline numbers (drops per-class timings), the
    /// shape the batch engine caches and persists alongside schedules.
    pub fn summary(&self) -> NocSummary {
        NocSummary {
            total_cycles: self.total_cycles,
            compute_cycles: self.compute_cycles,
            pipeline_cycles: self.pipeline_cycles,
            dram_cycles: self.dram_cycles,
            pes_used: self.pes_used,
        }
    }
}

/// The serializable headline of a [`NocReport`]: everything downstream
/// consumers (the batch engine's cache, Fig. 10 aggregation, persisted
/// reports) need, without the per-iteration-class breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NocSummary {
    /// End-to-end layer latency in cycles.
    pub total_cycles: f64,
    /// Total sequential compute cycles (product of temporal bounds).
    pub compute_cycles: u64,
    /// Σ per-iteration `max(compute, NoC)` — the PE/NoC pipeline bound.
    pub pipeline_cycles: f64,
    /// Total DRAM service cycles — the memory-stream bound.
    pub dram_cycles: f64,
    /// PEs with work mapped to them.
    pub pes_used: usize,
}

impl NocSummary {
    /// `true` when the layer is limited by communication rather than
    /// compute (mirrors [`NocReport::communication_bound`]).
    pub fn communication_bound(&self) -> bool {
        self.total_cycles > 1.05 * self.compute_cycles as f64
    }
}

/// Cycle-level NoC evaluation platform (Sec. IV-A).
///
/// See the [crate docs](crate) for an example.
#[derive(Debug, Clone)]
pub struct NocSimulator {
    arch: Arch,
}

impl NocSimulator {
    /// A simulator for `arch`.
    pub fn new(arch: &Arch) -> NocSimulator {
        NocSimulator { arch: arch.clone() }
    }

    /// Validate and simulate `schedule`, returning the latency report.
    ///
    /// The layer's distinct transfer sets are simulated concurrently on up
    /// to `available_parallelism` threads, the calling thread among them
    /// (on the caller alone when they are small); the report is the same
    /// on any number of threads.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::InvalidSchedule`] for schedules that do not fit
    /// the architecture.
    pub fn simulate(&self, layer: &Layer, schedule: &Schedule) -> Result<NocReport, SpecError> {
        schedule.validate(layer, &self.arch)?;
        Ok(self.simulate_unchecked(layer, schedule))
    }

    /// Validate, simulate and summarize in one call — the entry point the
    /// batch engine uses to evaluate (and cache) NoC latency per unique
    /// layer shape without holding the full per-class breakdown.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::InvalidSchedule`] for schedules that do not fit
    /// the architecture.
    pub fn evaluate(&self, layer: &Layer, schedule: &Schedule) -> Result<NocSummary, SpecError> {
        self.simulate(layer, schedule).map(|r| r.summary())
    }

    /// Simulate without validity checks.
    pub fn simulate_unchecked(&self, layer: &Layer, schedule: &Schedule) -> NocReport {
        let plan = TrafficPlan::build(layer, &self.arch, schedule);
        let cfg = MeshConfig::from_noc(self.arch.noc());
        let dram_bw = self.arch.noc().dram_bandwidth;
        let dram_lat = self.arch.noc().dram_latency as f64;

        // Distinct transfer sets in first-occurrence order; `set_of[i]` is
        // the set of `plan.types[i]`.
        let mut sets: Vec<TransferSet> = Vec::new();
        let set_of: Vec<usize> = plan
            .types
            .iter()
            .map(|t| {
                let set = TransferSet::of(t);
                sets.iter().position(|s| *s == set).unwrap_or_else(|| {
                    sets.push(set);
                    sets.len() - 1
                })
            })
            .collect();

        // One flit simulation per set, the sets run concurrently, most
        // stepped flits first so the longest run never starts last.
        let packets: Vec<Vec<PacketSpec>> = sets.iter().map(|s| s.packets(&plan)).collect();
        let flits: Vec<u64> = packets.iter().map(|p| stepped_flits(p)).collect();
        let mut order: Vec<usize> = (0..sets.len()).collect();
        order.sort_by_key(|&i| Reverse(flits[i]));
        let cycles_in_order = fanout::map(&order, sim_threads(&flits), |&i| {
            if packets[i].is_empty() {
                0
            } else {
                MeshSim::new(cfg).run(&packets[i])
            }
        });
        let mut set_cycles = vec![0u64; sets.len()];
        for (&i, cycles) in order.iter().zip(cycles_in_order) {
            set_cycles[i] = cycles;
        }

        let mut types = Vec::with_capacity(plan.types.len());
        let mut pipeline = 0.0f64;
        let mut dram_total = 0.0f64;
        for (t, &set) in plan.types.iter().zip(&set_of) {
            let noc_cycles = set_cycles[set];
            let dram_cycles = if t.dram_bytes > 0.0 {
                dram_lat + t.dram_bytes / dram_bw
            } else {
                0.0
            };
            pipeline += t.count * (plan.compute_per_iter as f64).max(noc_cycles as f64);
            dram_total += t.count * dram_cycles;
            types.push(TypeTiming {
                count: t.count,
                noc_cycles,
                dram_cycles,
                resend: t.resend,
            });
        }

        // Iterations without any transfer still take their compute time.
        let total_iters = plan.total_iterations();
        let counted: f64 = plan.types.iter().map(|t| t.count).sum();
        debug_assert!((total_iters - counted).abs() < 1e-6);

        // Double buffering overlaps the NoC stream of iteration t+1 with
        // the compute of iteration t, and the DRAM stream with both; the
        // layer is bound by the slowest of the two pipelines, plus one
        // final output drain.
        let drain = types
            .iter()
            .filter(|t| t.resend[DataTensor::Outputs.index()])
            .map(|t| t.noc_cycles as f64)
            .fold(0.0, f64::max);
        let total_cycles = pipeline.max(dram_total) + drain;

        NocReport {
            total_cycles,
            compute_cycles: schedule.temporal_product(),
            pipeline_cycles: pipeline,
            dram_cycles: dram_total,
            types,
            pes_used: plan.pes_used,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosa_spec::{Dim, Loop};

    fn arch() -> Arch {
        Arch::simba_baseline()
    }

    /// Sequential all-DRAM schedule.
    fn naive(layer: &Layer, arch: &Arch) -> Schedule {
        let mut s = Schedule::new(arch.num_levels());
        for d in Dim::ALL {
            for p in layer.prime_factors(d) {
                s.push(arch.dram_level(), Loop::temporal(d, p));
            }
        }
        s
    }

    #[test]
    fn latency_at_least_compute() {
        let arch = arch();
        let layer = Layer::conv("t", 3, 3, 8, 8, 8, 8, 1, 1, 1);
        let s = naive(&layer, &arch);
        let report = NocSimulator::new(&arch).simulate(&layer, &s).unwrap();
        assert!(report.total_cycles >= report.compute_cycles as f64 * 0.99);
        assert_eq!(report.compute_cycles, layer.macs());
    }

    #[test]
    fn spatial_schedule_is_faster() {
        let arch = arch();
        let layer = Layer::conv("t", 1, 1, 8, 8, 16, 16, 1, 1, 1);
        let sim = NocSimulator::new(&arch);

        let seq = naive(&layer, &arch);
        let report_seq = sim.simulate(&layer, &seq).unwrap();

        let mut par = Schedule::new(arch.num_levels());
        par.push(arch.noc_level(), Loop::spatial(Dim::K, 16));
        // Keep weight/input tiles inside PE buffers: C below the NoC.
        for d in [Dim::C] {
            for p in layer.prime_factors(d) {
                par.push(2, Loop::temporal(d, p));
            }
        }
        for d in [Dim::P, Dim::Q] {
            for p in layer.prime_factors(d) {
                par.push(arch.noc_level(), Loop::temporal(d, p));
            }
        }
        let report_par = sim.simulate(&layer, &par).unwrap();
        assert!(
            report_par.total_cycles * 4.0 < report_seq.total_cycles,
            "parallel {} vs sequential {}",
            report_par.total_cycles,
            report_seq.total_cycles
        );
    }

    #[test]
    fn permutation_affects_noc_latency() {
        // Two schedules differing only in the NoC-level loop order: the
        // weight-reusing order (irrelevant P innermost) must not be slower.
        let arch = arch();
        let layer = Layer::conv("t", 1, 1, 16, 1, 64, 16, 1, 1, 1);
        let sim = NocSimulator::new(&arch);
        let build = |p_inner: bool| {
            let mut s = Schedule::new(arch.num_levels());
            s.push(arch.noc_level(), Loop::spatial(Dim::K, 16));
            let loops = if p_inner {
                [(Dim::C, 64), (Dim::P, 16)]
            } else {
                [(Dim::P, 16), (Dim::C, 64)]
            };
            for (d, b) in loops {
                for f in cosa_spec::primes::factorize(b) {
                    s.push(arch.noc_level(), Loop::temporal(d, f));
                }
            }
            s
        };
        let p_inner = sim.simulate(&layer, &build(true)).unwrap();
        let c_inner = sim.simulate(&layer, &build(false)).unwrap();
        assert!(
            p_inner.total_cycles <= c_inner.total_cycles,
            "P-inner {} vs C-inner {}",
            p_inner.total_cycles,
            c_inner.total_cycles
        );
    }

    #[test]
    fn fc_layers_are_memory_bound() {
        // A fully-connected layer: huge weights, tiny activations — DRAM
        // streaming dominates any schedule (Sec. V-C's observation).
        let arch = arch();
        let layer = Layer::matmul("fc", 2048, 1000, 1);
        let mut s = Schedule::new(arch.num_levels());
        // Use the MAC vector (C across 64 lanes) and 8 PEs (K): compute
        // shrinks to 4000 cycles while 2 MB of weights stream from DRAM.
        for _ in 0..6 {
            s.push(0, Loop::spatial(Dim::C, 2));
        }
        for _ in 0..5 {
            s.push(1, Loop::temporal(Dim::C, 2));
        }
        s.push(arch.noc_level(), Loop::spatial(Dim::K, 8));
        for p in cosa_spec::primes::factorize(125) {
            s.push(arch.noc_level(), Loop::temporal(Dim::K, p));
        }
        let report = NocSimulator::new(&arch).simulate(&layer, &s).unwrap();
        assert!(report.dram_cycles > report.compute_cycles as f64);
        assert!(report.communication_bound());
    }

    /// Every prime factor of `lp.bound` as a loop like `lp` on `level`.
    fn push_factors(s: &mut Schedule, level: usize, lp: Loop) {
        for f in cosa_spec::primes::factorize(lp.bound) {
            s.push(level, Loop { bound: f, ..lp });
        }
    }

    #[test]
    fn concurrent_sets_match_direct_mesh_runs() {
        // P and Q across the 4×4 PEs, 8×8 input tiles and 32-lane MACs
        // inside each PE, K and C stepped above it: five transfer sets of
        // 0.4–4.9 k flits, enough for the sets to fan out.
        let arch = arch();
        let (noc, dram) = (arch.noc_level(), arch.dram_level());
        let layer = Layer::conv("t", 1, 1, 32, 32, 128, 64, 1, 1, 1);
        let mut s = Schedule::new(arch.num_levels());
        push_factors(&mut s, 0, Loop::spatial(Dim::C, 32));
        push_factors(&mut s, 3, Loop::temporal(Dim::P, 8));
        push_factors(&mut s, 3, Loop::temporal(Dim::Q, 8));
        push_factors(&mut s, noc, Loop::spatial(Dim::P, 4));
        push_factors(&mut s, noc, Loop::spatial(Dim::Q, 4));
        push_factors(&mut s, noc, Loop::temporal(Dim::K, 4));
        push_factors(&mut s, dram, Loop::temporal(Dim::C, 4));
        push_factors(&mut s, dram, Loop::temporal(Dim::K, 16));

        let plan = TrafficPlan::build(&layer, &arch, &s);
        let mut distinct: Vec<TransferSet> = Vec::new();
        for set in plan.types.iter().map(TransferSet::of) {
            if !distinct.contains(&set) {
                distinct.push(set);
            }
        }
        assert!(distinct.len() >= 3, "{} transfer sets", distinct.len());
        let flits: Vec<u64> = distinct
            .iter()
            .map(|set| set.packets(&plan).iter().map(|p| p.flits).sum())
            .collect();
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(sim_threads(&flits), cores, "flits {flits:?}");

        let sim = NocSimulator::new(&arch);
        let report = sim.simulate(&layer, &s).unwrap();
        assert_eq!(report.types.len(), plan.types.len());
        let cfg = MeshConfig::from_noc(arch.noc());
        for (t, timing) in plan.types.iter().zip(&report.types) {
            let mut packets = Vec::new();
            for v in [DataTensor::Weights, DataTensor::Inputs] {
                if t.resend[v.index()] {
                    packets.extend_from_slice(&plan.down_packets[v.index()]);
                }
            }
            if t.oa_readback {
                packets.extend_from_slice(&plan.down_packets[DataTensor::Outputs.index()]);
            }
            if t.oa_writeback {
                packets.extend_from_slice(&plan.up_packets);
            }
            let direct = if packets.is_empty() {
                0
            } else {
                MeshSim::new(cfg).run(&packets)
            };
            assert_eq!(timing.noc_cycles, direct, "class {t:?}");
        }
        assert_eq!(report, sim.simulate(&layer, &s).unwrap());
    }

    #[test]
    fn small_sets_stay_on_the_caller() {
        assert_eq!(sim_threads(&[]), 1);
        assert_eq!(sim_threads(&[1 << 20]), 1);
        assert_eq!(sim_threads(&[1 << 20, MIN_FANOUT_FLITS - 1]), 1);
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(sim_threads(&[1 << 20, MIN_FANOUT_FLITS]), cores);
    }

    #[test]
    fn report_types_cover_all_iterations() {
        let arch = arch();
        let layer = Layer::conv("t", 3, 3, 4, 4, 8, 8, 1, 1, 1);
        let mut s = naive(&layer, &arch);
        // Move some loops to the NoC level for a multi-type plan.
        let dram = arch.dram_level();
        let moved: Vec<Loop> = s.level_mut(dram).loops.drain(..4).collect();
        for lp in moved {
            s.push(arch.noc_level(), lp);
        }
        let report = NocSimulator::new(&arch).simulate(&layer, &s).unwrap();
        let sum: f64 = report.types.iter().map(|t| t.count).sum();
        let expect: u64 = s.levels()[arch.noc_level()]
            .loops
            .iter()
            .chain(&s.levels()[dram].loops)
            .filter(|l| !l.spatial)
            .map(|l| l.bound)
            .product();
        assert!((sum - expect as f64).abs() < 1e-6, "{sum} vs {expect}");
    }
}
