//! The six workloads. Each module owns its inputs, its pass, its output
//! checks and its traced pass; what they share lives here.

pub mod cold;
pub mod serve;
pub mod store;
pub mod sweep;

use std::time::Instant;

use cosa_repro::prelude::*;
use cosa_repro::serve::{SERVE_COSA_NODE_LIMIT, SERVE_RANDOM_SEED};

use crate::harness::{Answer, PerLayer, Workload};
use crate::trace::Recorder;

/// Set up `workload` for `seed`. The seed only shapes the inputs (orders,
/// request mix); the program under test never sees it.
pub fn setup(workload: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    match workload {
        "milp_cnn_cold" => Ok(Box::new(cold::ColdSolve::setup(cold::Backend::Milp, seed))),
        "sat_proof_cold" => Ok(Box::new(cold::ColdSolve::setup(cold::Backend::Sat, seed))),
        "portfolio_cold" => Ok(Box::new(cold::ColdSolve::setup(
            cold::Backend::Portfolio,
            seed,
        ))),
        "serve_warm" => serve::ServeWarm::setup(seed).map(|w| Box::new(w) as Box<dyn Workload>),
        "store_churn" => store::StoreChurn::setup(seed).map(|w| Box::new(w) as Box<dyn Workload>),
        "baseline_eval_sweep" => Ok(Box::new(sweep::EvalSweep::setup(seed))),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// The MILP backend exactly as the daemon serves it: bounded by nodes,
/// never by wall-clock (`CosaScheduler::new` alone carries a 6 s cap).
pub fn serving_cosa(arch: &Arch) -> CosaScheduler {
    CosaScheduler::new(arch).with_deterministic_limits(SERVE_COSA_NODE_LIMIT)
}

/// The seeded quick random mapper, as the daemon's `"random"` builds it.
pub fn quick_random() -> RandomMapper {
    RandomMapper::new(SERVE_RANDOM_SEED).with_limits(SearchLimits::quick())
}

/// How many answers the per-answer replays look at where the answers are
/// a by-product (solver, daemon and store workloads): enough for a steady
/// mean, few enough that the replays stay a small share of the traced pass.
pub const REPLAY_SAMPLE: usize = 32;

/// Spans and metrics for the engine's warm path on the first `limit`
/// answers: cache-key derivation, and a whole-network call that is all hits.
pub fn trace_engine(
    rec: &mut Recorder,
    metrics: &mut PerLayer,
    arch: &Arch,
    answers: &[Answer],
    limit: usize,
) {
    let sample = &answers[..answers.len().min(limit)];
    if sample.is_empty() {
        return;
    }
    let random = quick_random();
    let engine = Engine::new(arch.clone()).with_threads(1);
    let mut key_s = 0.0;
    for (op, a) in sample.iter().enumerate() {
        let key = rec.time("engine.cache_key", op as u64, || {
            engine.cache_key(&random, &a.layer)
        });
        key_s += key.1;
    }
    metrics.insert("engine.cache_key_us", key_s * 1e6 / sample.len() as f64);

    // One cold call fills the engine's LRU, the second is all hits: its
    // time is key derivation, lookup and report assembly.
    let mut network = Network::new("trace-sample");
    for a in sample {
        network.push(a.layer.name(), a.layer.clone(), a.count);
    }
    engine.schedule_network(&network, &random);
    let (warm, secs) = rec.time("engine.warm_network", 0, || {
        engine.schedule_network(&network, &random)
    });
    debug_assert_eq!(warm.cache_misses, 0);
    metrics.insert("engine.warm_network_us", secs * 1e6);
}

/// Spans and metrics for the layers that judge a schedule, on the first
/// `limit` answers: the analytical model, the NoC simulator, and the random
/// baseline the answers are compared with (the Fig. 6 ratio).
pub fn trace_evaluators(
    rec: &mut Recorder,
    metrics: &mut PerLayer,
    arch: &Arch,
    answers: &[Answer],
    limit: usize,
) {
    let sample = &answers[..answers.len().min(limit)];
    if sample.is_empty() {
        return;
    }
    let model = CostModel::new(arch);
    let (mut eval_s, mut evals) = (0.0, 0u64);
    while evals < 256 {
        for (op, a) in sample.iter().enumerate() {
            let (eval, secs) = rec.time("model.evaluate", op as u64, || {
                model.evaluate(&a.layer, &a.scheduled.schedule)
            });
            std::hint::black_box(eval.is_ok());
            eval_s += secs;
            evals += 1;
        }
    }
    metrics.insert("model.evaluate_us", eval_s * 1e6 / evals as f64);
    metrics.insert("model.evals_per_s", evals as f64 / eval_s);

    let noc = NocSimulator::new(arch);
    let (mut noc_s, mut noc_sims, mut noc_cycles) = (0.0, 0u64, 0.0);
    for (op, a) in sample.iter().enumerate() {
        let (summary, secs) = rec.time("noc.simulate", op as u64, || {
            noc.evaluate(&a.layer, &a.scheduled.schedule)
        });
        if let Ok(summary) = summary {
            noc_s += secs;
            noc_sims += 1;
            noc_cycles += a.count as f64 * summary.total_cycles;
        }
    }
    metrics.insert("noc.simulate_s", noc_s);
    metrics.insert("noc.sims", noc_sims as f64);
    metrics.insert("noc.sim_cycles", noc_cycles);
    if noc_cycles > 0.0 {
        metrics.insert("noc.host_us_per_kcycle", noc_s * 1e6 / (noc_cycles / 1e3));
    }

    let random = quick_random();
    let (mut random_s, mut log_speedup, mut compared) = (0.0, 0.0, 0u32);
    for (op, a) in sample.iter().enumerate() {
        let (baseline, secs) = rec.time("mappers.random", op as u64, || {
            Scheduler::schedule(&random, arch, &a.layer)
        });
        random_s += secs;
        if let Ok(baseline) = baseline {
            log_speedup += (baseline.latency_cycles / a.scheduled.latency_cycles).ln();
            compared += 1;
        }
    }
    metrics.insert("mappers.random_s", random_s);
    if compared > 0 {
        metrics.insert(
            "mappers.geomean_speedup_vs_random",
            (log_speedup / f64::from(compared)).exp(),
        );
    }
}

/// The scheduled entries of `report` (made from `network`) as answers.
pub fn answers_of(network: &Network, report: &NetworkReport, into: &mut Vec<Answer>) {
    for (entry, layer) in network.layers.iter().zip(&report.layers) {
        if let Some(scheduled) = &layer.scheduled {
            into.push(Answer {
                layer: entry.layer.clone(),
                count: entry.count,
                scheduled: scheduled.clone(),
            });
        }
    }
}

/// Time `f` outside any recorder.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}
