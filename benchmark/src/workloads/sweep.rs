//! `baseline_eval_sweep`: all seven suites through the seeded quick random
//! mapper on an engine with the NoC simulator and the inter-layer residency
//! pass switched on, one worker. No exact solver runs; the analytical
//! model (inside the mapper's search), the cycle-level simulator and the
//! residency pass do the work, and every quality number is an exact count.
//!
//! Each suite gets an engine of its own, so a suite's time does not depend
//! on which suites ran before it; the seed orders the suites.

use cosa_repro::prelude::*;
use cosa_repro::spec::canon::digest128_hex;

use super::{answers_of, quick_random, timed, trace_engine, trace_evaluators};
use crate::draw::Rng;
use crate::harness::{OpSample, Pass, PerLayer, Workload};
use crate::trace::Recorder;

/// `baseline_eval_sweep` after set-up.
pub struct EvalSweep {
    arch: Arch,
    random: RandomMapper,
    networks: Vec<Network>,
}

impl EvalSweep {
    /// Expand the suites, in seeded order.
    pub fn setup(seed: u64) -> EvalSweep {
        let mut suites = Suite::ALL.to_vec();
        Rng::new(seed).shuffle(&mut suites);
        let sweep = EvalSweep {
            arch: Arch::simba_baseline(),
            random: quick_random(),
            networks: suites.into_iter().map(Network::from_suite).collect(),
        };
        // Warm every layer the sweep touches (mapper, model, simulator,
        // residency pass) on a two-layer network before anything is timed.
        let warm_up = Network::new("warm-up")
            .with_layer(
                "a",
                Layer::conv("warm-up.a", 3, 3, 8, 8, 16, 16, 1, 1, 1),
                1,
            )
            .with_layer(
                "b",
                Layer::conv("warm-up.b", 1, 1, 8, 8, 16, 32, 1, 1, 1),
                2,
            );
        let run = sweep.engine(true).schedule_network(&warm_up, &sweep.random);
        std::hint::black_box(run.report.is_complete());
        sweep
    }

    fn engine(&self, interlayer: bool) -> Engine {
        let engine = Engine::new(self.arch.clone()).with_threads(1).with_noc();
        if interlayer {
            engine.with_interlayer(InterlayerOptions::enabled())
        } else {
            engine
        }
    }
}

impl Workload for EvalSweep {
    fn pass(&mut self) -> Pass {
        let mut pass = Pass::default();
        let mut canonical = String::new();
        let mut offchip = 0.0;
        let ((), wall_s) = timed(|| {
            for network in &self.networks {
                let run = self.engine(true).schedule_network(network, &self.random);
                pass.ops.push(OpSample {
                    class: network.name.clone(),
                    secs: run.elapsed.as_secs_f64(),
                });
                pass.failed += run.report.failed_layers as u64;
                answers_of(network, &run.report, &mut pass.answers);
                match &run.report.interlayer {
                    Some(section) => offchip += section.offchip_bytes,
                    None => pass.failed += 1,
                }
                canonical.push_str(
                    &serde_json::to_string(&run.report.without_timings())
                        .expect("report serializes"),
                );
            }
        });
        pass.wall_s = wall_s;
        pass.offchip_bytes = Some(offchip);
        pass.canonical = digest128_hex(canonical.as_bytes());
        pass
    }

    fn check(&mut self, pass: &Pass) -> Vec<String> {
        let entries: usize = self.networks.iter().map(|n| n.layers.len()).sum();
        if pass.answers.len() == entries {
            Vec::new()
        } else {
            vec![format!(
                "{} of {entries} entries were scheduled",
                pass.answers.len()
            )]
        }
    }

    /// The real engine call per suite inside one span, then each layer's
    /// share measured by calling the mapper, the simulator and the model
    /// directly on every answer (the engine's internals are private).
    fn traced(&mut self, rec: &mut Recorder, metrics: &mut PerLayer) {
        let mut answers = Vec::new();
        let (mut fresh, mut hits, mut overhead_s) = (0u64, 0u64, 0.0);
        let (mut resident, mut baseline_bytes, mut saved_bytes) = (0usize, 0.0, 0.0);
        let (mut noc_sims, mut noc_cycles) = (0u64, 0.0);
        let mut pass_s = 0.0;
        for (op, network) in self.networks.iter().enumerate() {
            let (on, off) = (self.engine(true), self.engine(false));
            rec.label(op as u64, &network.name);
            let (run, _) = rec.time("engine.schedule_network", op as u64, || {
                on.schedule_network(network, &self.random)
            });
            fresh += run.cache_misses;
            hits += run.cache_hits;
            noc_sims += run.noc_sims;
            noc_cycles += run.report.total_noc_cycles.unwrap_or(0.0);
            // Solver time of the layers this call solved itself: a shape
            // first met in this call carries its solve time in the report.
            let mut seen = std::collections::HashSet::new();
            let solved_s: f64 = run
                .report
                .layers
                .iter()
                .filter(|l| seen.insert(l.layer.clone()))
                .filter_map(|l| l.scheduled.as_ref())
                .map(|s| s.elapsed.as_secs_f64())
                .sum();
            overhead_s += run.elapsed.as_secs_f64() - solved_s;
            if let Some(section) = &run.report.interlayer {
                resident += section.resident_edges;
                baseline_bytes += section.baseline_offchip_bytes;
                saved_bytes += section.saved_offchip_bytes;
            }
            answers_of(network, &run.report, &mut answers);

            // The residency pass is private too: its cost is what a warm
            // call with the pass pays over a warm call without it.
            off.schedule_network(network, &self.random);
            let (_, warm_on) = timed(|| on.schedule_network(network, &self.random));
            let (_, warm_off) = timed(|| off.schedule_network(network, &self.random));
            pass_s += warm_on - warm_off;
        }
        metrics.insert("engine.fresh_solves", fresh as f64);
        metrics.insert("engine.dedup_hits", hits as f64);
        metrics.insert("engine.overhead_s", overhead_s);
        metrics.insert("interlayer.pass_s", pass_s);
        metrics.insert("interlayer.resident_edges", resident as f64);
        if baseline_bytes > 0.0 {
            metrics.insert(
                "interlayer.offchip_saved_share",
                saved_bytes / baseline_bytes,
            );
        }
        // One replay per shape, as the engine solves and simulates per
        // shape; the simulated cycles are the reports' exact totals.
        let mut shapes = std::collections::HashSet::new();
        answers.retain(|a| shapes.insert(a.layer.clone()));
        trace_engine(rec, metrics, &self.arch, &answers, usize::MAX);
        trace_evaluators(rec, metrics, &self.arch, &answers, usize::MAX);
        metrics.insert("noc.sims", noc_sims as f64);
        metrics.insert("noc.sim_cycles", noc_cycles);
    }
}
