//! The three cold-solve workloads: `milp_cnn_cold`, `sat_proof_cold` and
//! `portfolio_cold`. A pass schedules a fixed set of shapes through a fresh
//! memory-only `Engine` with one worker, so every layer is a cold solve and
//! each solve (or race) has the box to itself.
//!
//! The shapes are fixed and the seed only orders them: ten runs on ten
//! seeds have to agree within a third of each metric's bound, and a draw of
//! a handful of solver shapes, whose costs differ by 100x, cannot.

use std::collections::BTreeMap;

use cosa_repro::core::{extract_schedule, refine_intra_level_order, CosaProgram};
use cosa_repro::milp::simplex::LpProblem;
use cosa_repro::milp::SolveOptions;
use cosa_repro::prelude::*;
use cosa_repro::sat::encode::OptimizeOutcome;
use cosa_repro::sat::SatProgram;
use cosa_repro::serve::SERVE_COSA_NODE_LIMIT;
use cosa_repro::spec::canon::digest128_hex;
use cosa_repro::spec::workloads::GPT_MINI;
use serde::Value;

use super::{serving_cosa, timed, trace_engine, trace_evaluators, REPLAY_SAMPLE};
use crate::draw::Rng;
use crate::emit::get;
use crate::harness::{Answer, OpSample, Pass, PerLayer, Workload};
use crate::trace::Recorder;

/// Which exact backend a cold workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// `CosaScheduler` at the serving node limit.
    Milp,
    /// `SatScheduler` with a conflict budget that never binds.
    Sat,
    /// The MILP-vs-SAT race.
    Portfolio,
}

/// Conflict budget of `sat_proof_cold`: ten times what its hardest shape
/// needs, so every answer is a proof and the bound is still work, not time.
pub const SAT_CONFLICT_BUDGET: u64 = 3_000_000;

/// Node limit of the portfolio's MILP side (its default is a 6 s clock).
pub const PORTFOLIO_NODE_LIMIT: usize = 20_000;

/// The frozen optima of the SAT/portfolio shapes (see the README).
const EXPECTED: &str = include_str!("../../expected/objectives.json");

/// One shape per class the serving MILP meets: a 3x3 conv, a depthwise
/// conv, two pointwise convs, a classifier and two attention matmuls, all
/// taken from ResNet-50, MobileNetV2 and GPT-mini.
fn milp_shapes() -> Vec<Layer> {
    let paper = |name: &str| Layer::parse_paper_name(name).expect("suite layer name");
    vec![
        paper("3_7_512_512_1"),
        paper("3_14_1_192_2"),
        paper("1_7_1024_2048_2"),
        paper("1_14_576_96_1"),
        paper("1_1_2048_1000_1"),
        GPT_MINI.attn_score(),
        GPT_MINI.ffn_up(),
    ]
}

/// Mid-size shapes on which SAT proves optimality within seconds, chosen
/// so that in the race neither backend is within 2x of the other.
pub fn proof_shapes() -> Vec<Layer> {
    let conv = |r, p, c, k| {
        Layer::conv(
            format!("conv_{r}x{r}_{p}x{p}_{c}_{k}"),
            r,
            r,
            p,
            p,
            c,
            k,
            1,
            1,
            1,
        )
    };
    let mm = |c, k, n| Layer::matmul(format!("mm_{c}x{k}x{n}"), c, k, n);
    vec![
        mm(64, 64, 64),
        mm(127, 64, 31),
        conv(1, 7, 64, 64),
        mm(64, 192, 32),
        mm(32, 64, 64),
        mm(64, 256, 32),
        conv(3, 14, 1, 32),
        conv(1, 14, 4, 64),
        conv(3, 4, 16, 32),
        conv(3, 8, 8, 16),
    ]
}

/// The portfolio with both sides bounded by work.
pub fn portfolio(arch: &Arch) -> PortfolioScheduler {
    PortfolioScheduler::from_parts(
        CosaScheduler::new(arch).with_deterministic_limits(PORTFOLIO_NODE_LIMIT),
        SatScheduler::new(arch).with_conflict_budget(None),
    )
}

/// What the last plain pass's engine reported, for the traced run.
#[derive(Debug, Clone, Copy, Default)]
struct EngineCounts {
    fresh_solves: u64,
    dedup_hits: u64,
    overhead_s: f64,
}

/// A cold-solve workload after set-up.
pub struct ColdSolve {
    backend: Backend,
    arch: Arch,
    network: Network,
    scheduler: Box<dyn Scheduler>,
    /// Frozen optimum per layer name (empty for the MILP workload, whose
    /// answers are node-budget incumbents, not optima).
    expected: BTreeMap<String, f64>,
    last_engine: EngineCounts,
}

impl ColdSolve {
    /// Build the inputs: the backend's shapes in seeded order.
    pub fn setup(backend: Backend, seed: u64) -> ColdSolve {
        let arch = Arch::simba_baseline();
        let mut layers = match backend {
            Backend::Milp => milp_shapes(),
            Backend::Sat | Backend::Portfolio => proof_shapes(),
        };
        Rng::new(seed).shuffle(&mut layers);
        let mut network = Network::new(format!("{backend:?}-cold"));
        for layer in layers {
            network.push(layer.name(), layer.clone(), 1);
        }
        let scheduler: Box<dyn Scheduler> = match backend {
            Backend::Milp => Box::new(serving_cosa(&arch)),
            Backend::Sat => {
                Box::new(SatScheduler::new(&arch).with_conflict_budget(Some(SAT_CONFLICT_BUDGET)))
            }
            Backend::Portfolio => Box::new(portfolio(&arch)),
        };
        let expected = match backend {
            Backend::Milp => BTreeMap::new(),
            Backend::Sat | Backend::Portfolio => expected_objectives(),
        };
        // One small solve before anything is timed, so the first measured
        // layer does not pay for first-touch allocation and page-ins — and
        // so work a later change moves out of the solve and into start-up
        // shows in `setup_s`.
        let warm_up = match backend {
            Backend::Milp => Layer::parse_paper_name("1_1_2048_1000_1").expect("suite layer name"),
            Backend::Sat | Backend::Portfolio => {
                Layer::conv("warm-up", 1, 1, 14, 14, 4, 64, 1, 1, 1)
            }
        };
        std::hint::black_box(scheduler.schedule(&arch, &warm_up).is_ok());
        ColdSolve {
            backend,
            arch,
            network,
            scheduler,
            expected,
            last_engine: EngineCounts::default(),
        }
    }
}

/// Parse `expected/objectives.json`.
pub fn expected_objectives() -> BTreeMap<String, f64> {
    let doc: Value = serde_json::from_str(EXPECTED).expect("expected/objectives.json parses");
    get(&doc, "objectives")
        .and_then(Value::as_map)
        .expect("expected/objectives.json has an `objectives` object")
        .iter()
        .map(|(name, v)| (name.clone(), v.as_f64().expect("objective is a number")))
        .collect()
}

impl Workload for ColdSolve {
    fn pass(&mut self) -> Pass {
        let engine = Engine::new(self.arch.clone()).with_threads(1);
        let run = engine.schedule_network(&self.network, self.scheduler.as_ref());

        let mut pass = Pass {
            wall_s: run.elapsed.as_secs_f64(),
            ..Pass::default()
        };
        let mut solver_s = 0.0;
        for (entry, report) in self.network.layers.iter().zip(&run.report.layers) {
            match &report.scheduled {
                Some(scheduled) => {
                    solver_s += scheduled.elapsed.as_secs_f64();
                    pass.ops.push(OpSample {
                        class: report.layer.clone(),
                        secs: scheduled.elapsed.as_secs_f64(),
                    });
                    pass.answers.push(answer(entry, scheduled.clone()));
                }
                None => {
                    eprintln!(
                        "[{}] {}: {:?}",
                        self.network.name, report.layer, report.error
                    );
                    pass.ops.push(OpSample {
                        class: report.layer.clone(),
                        secs: 0.0,
                    });
                    pass.failed += 1;
                }
            }
        }
        // The race may be won by either side, and the two sides' schedules
        // differ in bytes while proving the same optimum: the portfolio's
        // canonical form is its objectives.
        pass.canonical = match self.backend {
            Backend::Portfolio => pass
                .answers
                .iter()
                .map(|a| format!("{}={:.6};", a.layer.name(), objective(a)))
                .collect(),
            _ => digest128_hex(
                serde_json::to_string(&run.report.without_timings())
                    .expect("report serializes")
                    .as_bytes(),
            ),
        };
        self.last_engine = EngineCounts {
            fresh_solves: run.cache_misses,
            dedup_hits: run.cache_hits,
            overhead_s: pass.wall_s - solver_s,
        };
        pass
    }

    fn check(&mut self, pass: &Pass) -> Vec<String> {
        let mut failures = Vec::new();
        for a in &pass.answers {
            let name = a.layer.name();
            let Some(&optimum) = self.expected.get(name) else {
                if self.backend != Backend::Milp {
                    failures.push(format!("{name}: no frozen objective"));
                }
                continue;
            };
            let got = objective(a);
            // A SAT answer is a proof and must hit the optimum; a MILP
            // answer stops at its 3 % gap tolerance.
            let slack = match a.scheduled.scheduler.as_str() {
                "sat" => 1e-6,
                _ => 0.03 * optimum.abs() + 1e-6,
            };
            if (got - optimum).abs() > slack {
                failures.push(format!(
                    "{name}: objective {got} but the optimum is {optimum}"
                ));
            }
            if self.backend == Backend::Sat && a.scheduled.stats.milp_nodes >= SAT_CONFLICT_BUDGET {
                failures.push(format!("{name}: the conflict budget bound, no proof"));
            }
        }
        failures
    }

    fn traced(&mut self, rec: &mut Recorder, metrics: &mut PerLayer) {
        let answers = match self.backend {
            Backend::Milp => self.traced_milp(rec, metrics),
            Backend::Sat => self.traced_sat(rec, metrics),
            Backend::Portfolio => self.traced_portfolio(rec, metrics),
        };
        metrics.insert("engine.fresh_solves", self.last_engine.fresh_solves as f64);
        metrics.insert("engine.dedup_hits", self.last_engine.dedup_hits as f64);
        metrics.insert("engine.overhead_s", self.last_engine.overhead_s);
        trace_engine(rec, metrics, &self.arch, &answers, REPLAY_SAMPLE);
        trace_evaluators(rec, metrics, &self.arch, &answers, REPLAY_SAMPLE);
    }
}

fn objective(a: &Answer) -> f64 {
    a.scheduled.stats.milp_objective.unwrap_or(f64::NAN)
}

fn answer(entry: &cosa_repro::spec::NetworkLayer, scheduled: Scheduled) -> Answer {
    Answer {
        layer: entry.layer.clone(),
        count: entry.count,
        scheduled,
    }
}

impl ColdSolve {
    /// The real `CosaScheduler::schedule` call, then replays of its stages
    /// through the public functions it is made of (`best_ranks` is private,
    /// so the stages cannot be chained into a second full solve).
    fn traced_milp(&self, rec: &mut Recorder, metrics: &mut PerLayer) -> Vec<Answer> {
        let arch = &self.arch;
        let cosa = serving_cosa(arch);
        let stage_a_opts = SolveOptions {
            gap_tol: 0.01,
            time_limit: None,
            node_limit: SERVE_COSA_NODE_LIMIT,
            ..SolveOptions::default()
        };
        let mut sum = PerLayer::new();
        let mut add = |name: &'static str, v: f64| *sum.entry(name).or_insert(0.0) += v;
        let mut answers = Vec::new();
        let mut budget_hits = 0u32;
        for (op, entry) in self.network.layers.iter().enumerate() {
            let (op, layer) = (op as u64, &entry.layer);
            rec.label(op, layer.name());
            let (result, schedule_s) = rec.time("milp.schedule", op, || cosa.schedule(layer));
            let Ok(result) = result else { continue };

            let ((program, tiling), build_s) = rec.time("core.build", op, || {
                (
                    CosaProgram::build_with_kind(
                        layer,
                        arch,
                        cosa.weights(),
                        cosa.objective_kind(),
                    ),
                    CosaProgram::build_tiling_only(layer, arch, cosa.weights()),
                )
            });
            let (seed, stage_a_s) = rec.time("milp.stage_a", op, || tiling.solve(&stage_a_opts));
            let (_, root_lp_s) = rec.time("milp.root_lp", op, || {
                LpProblem::from_model(program.model()).solve(cosa.solve_options().max_lp_iters)
            });
            let (_, refine_s) = rec.time("core.refine", op, || {
                let mut schedule = result.schedule.clone();
                refine_intra_level_order(layer, arch, &mut schedule);
                schedule
            });
            let (eval, _) = rec.time("model.evaluate", op, || {
                CostModel::new(arch).evaluate(layer, &result.schedule)
            });

            let stage_a = seed.map(|s| s.stats).unwrap_or_default();
            add("core.build_s", build_s);
            add("core.refine_s", refine_s);
            add("core.milp_vars", program.model().num_vars() as f64);
            add(
                "core.milp_constraints",
                program.model().num_constraints() as f64,
            );
            add("milp.nodes", (result.stats.nodes + stage_a.nodes) as f64);
            add(
                "milp.simplex_iters",
                (result.stats.simplex_iters + stage_a.simplex_iters) as f64,
            );
            add("milp.stage_a_s", stage_a_s);
            add("milp.root_lp_s", root_lp_s);
            add("milp.search_s", schedule_s - build_s - refine_s);
            budget_hits += u32::from(result.stats.nodes >= SERVE_COSA_NODE_LIMIT);
            if let Ok(eval) = eval {
                answers.push(answer(
                    entry,
                    Scheduled {
                        scheduler: "cosa".to_string(),
                        layer: layer.name().to_string(),
                        schedule: result.schedule,
                        latency_cycles: eval.latency_cycles,
                        energy_pj: eval.energy_pj,
                        elapsed: result.solve_time,
                        stats: ScheduleStats::default(),
                    },
                ));
            }
        }
        let (iters, nodes) = (sum["milp.simplex_iters"], sum["milp.nodes"]);
        metrics.insert(
            "milp.us_per_simplex_iter",
            sum["milp.search_s"] * 1e6 / iters,
        );
        metrics.insert("milp.iters_per_node", iters / nodes);
        metrics.insert(
            "milp.budget_hit_share",
            f64::from(budget_hits) / self.network.layers.len() as f64,
        );
        metrics.extend(sum);
        answers
    }

    /// `SatScheduler::schedule` is public stage by stage, so the traced
    /// pass is the solve itself with a span around each stage.
    fn traced_sat(&self, rec: &mut Recorder, metrics: &mut PerLayer) -> Vec<Answer> {
        let arch = &self.arch;
        let weights = SatScheduler::new(arch).weights();
        let mut sum = PerLayer::new();
        let mut add = |name: &'static str, v: f64| *sum.entry(name).or_insert(0.0) += v;
        let mut answers = Vec::new();
        let (mut proven, mut budget_hits) = (0u32, 0u32);
        for (op, entry) in self.network.layers.iter().enumerate() {
            let (op, layer) = (op as u64, &entry.layer);
            rec.label(op, layer.name());
            let (mut program, encode_s) =
                rec.time("sat.encode", op, || SatProgram::build(layer, arch, weights));
            let (outcome, search_s) = rec.time("sat.search", op, || {
                program.optimize(Some(SAT_CONFLICT_BUDGET), None)
            });
            let stats = program.stats();
            add("sat.encode_s", encode_s);
            add("sat.search_s", search_s);
            add("sat.vars", program.num_vars() as f64);
            add("sat.conflicts", stats.conflicts as f64);
            add("sat.decisions", stats.decisions as f64);
            add("sat.propagations", stats.propagations as f64);
            add("sat.restarts", stats.restarts as f64);
            let assignment = match outcome {
                OptimizeOutcome::Optimal(a) => {
                    proven += 1;
                    a
                }
                OptimizeOutcome::Feasible(a) => {
                    budget_hits += 1;
                    a
                }
                _ => {
                    budget_hits += 1;
                    continue;
                }
            };
            let (schedule, refine_s) = rec.time("core.refine", op, || {
                let mut schedule = extract_schedule(arch, &assignment);
                refine_intra_level_order(layer, arch, &mut schedule);
                schedule
            });
            add("core.refine_s", refine_s);
            let (eval, _) = rec.time("model.evaluate", op, || {
                CostModel::new(arch).evaluate(layer, &schedule)
            });
            if let Ok(eval) = eval {
                answers.push(answer(
                    entry,
                    Scheduled {
                        scheduler: "sat".to_string(),
                        layer: layer.name().to_string(),
                        schedule,
                        latency_cycles: eval.latency_cycles,
                        energy_pj: eval.energy_pj,
                        elapsed: std::time::Duration::from_secs_f64(encode_s + search_s),
                        stats: ScheduleStats::default(),
                    },
                ));
            }
        }
        let shapes = self.network.layers.len() as f64;
        metrics.insert(
            "sat.props_per_s",
            sum["sat.propagations"] / sum["sat.search_s"],
        );
        metrics.insert("sat.proven_optimal_share", f64::from(proven) / shapes);
        metrics.insert("sat.budget_hit_share", f64::from(budget_hits) / shapes);
        metrics.extend(sum);
        answers
    }

    /// Each race, then its winner alone: the ratio says what racing costs
    /// over a router that would have picked the winner up front.
    fn traced_portfolio(&self, rec: &mut Recorder, metrics: &mut PerLayer) -> Vec<Answer> {
        let arch = &self.arch;
        let racers = portfolio(arch);
        let (mut race_s, mut solo_s) = (0.0, 0.0);
        let (mut wins_cosa, mut wins_sat) = (0u32, 0u32);
        let (mut nodes, mut conflicts) = (0u64, 0u64);
        let mut answers = Vec::new();
        for (op, entry) in self.network.layers.iter().enumerate() {
            let (op, layer) = (op as u64, &entry.layer);
            rec.label(op, layer.name());
            let (won, secs) =
                rec.time("api.race", op, || Scheduler::schedule(&racers, arch, layer));
            let Ok(won) = won else { continue };
            race_s += secs;
            let (solo, secs) = if won.scheduler == "sat" {
                wins_sat += 1;
                rec.time("sat.schedule", op, || {
                    Scheduler::schedule(racers.sat(), arch, layer)
                })
            } else {
                wins_cosa += 1;
                rec.time("milp.schedule", op, || {
                    Scheduler::schedule(racers.milp(), arch, layer)
                })
            };
            solo_s += secs;
            if let Ok(solo) = solo {
                match solo.scheduler.as_str() {
                    "sat" => conflicts += solo.stats.milp_nodes,
                    _ => nodes += solo.stats.milp_nodes,
                }
            }
            answers.push(answer(entry, won));
        }
        metrics.insert("api.race_wall_s", race_s);
        metrics.insert("api.wins_cosa", f64::from(wins_cosa));
        metrics.insert("api.wins_sat", f64::from(wins_sat));
        metrics.insert("api.race_vs_winner_solo_ratio", race_s / solo_s);
        metrics.insert("milp.nodes", nodes as f64);
        metrics.insert("sat.conflicts", conflicts as f64);
        answers
    }
}

/// Print the frozen-objectives document: every proof shape solved by SAT
/// with no budget (a proof) and cross-checked against the MILP at the
/// portfolio's node limit. Run by hand when the shape list changes; no
/// benchmark run ever writes `expected/objectives.json`.
pub fn freeze_expected() -> Result<String, String> {
    let arch = Arch::simba_baseline();
    let sat = SatScheduler::new(&arch).with_conflict_budget(None);
    let milp = CosaScheduler::new(&arch).with_deterministic_limits(PORTFOLIO_NODE_LIMIT);
    let mut objectives = Vec::new();
    for layer in proof_shapes() {
        let (proof, secs) = timed(|| sat.schedule(&layer));
        let proof = proof.map_err(|e| format!("{}: {e}", layer.name()))?;
        if !proof.proven_optimal {
            return Err(format!("{}: SAT stopped without a proof", layer.name()));
        }
        let cross = milp
            .schedule(&layer)
            .map_err(|e| format!("{}: {e}", layer.name()))?;
        let gap = cross.milp_objective - proof.objective;
        if gap < -1e-6 || gap > 0.03 * proof.objective.abs() {
            return Err(format!(
                "{}: MILP objective {} disagrees with the SAT optimum {}",
                layer.name(),
                cross.milp_objective,
                proof.objective
            ));
        }
        eprintln!(
            "{}: optimum {} ({} conflicts, {secs:.2} s), MILP {}",
            layer.name(),
            proof.objective,
            proof.stats.conflicts,
            cross.milp_objective
        );
        objectives.push((layer.name().to_string(), Value::F64(proof.objective)));
    }
    let doc = crate::emit::obj(vec![
        (
            "note",
            crate::emit::text(
                "Eq. 12 optima from unbounded SAT proofs, cross-checked against the MILP at 20000 nodes; frozen, never regenerated by a run",
            ),
        ),
        ("objectives", Value::Map(objectives)),
    ]);
    serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())
}
