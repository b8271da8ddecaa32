//! The benchmark's contract in one place: workloads, end-to-end metrics
//! with their bounds, per-layer metrics. `BENCHMARK.json` at the repo root
//! is `cosa-benchmark manifest` printed once; a unit test keeps the two
//! from drifting.

use serde::Value;

use crate::emit::{num, obj, text};

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 12;

/// The layers (module names) metrics and spans are attributed to.
pub const LAYERS: [&str; 13] = [
    "core",
    "milp",
    "sat",
    "api",
    "model",
    "noc",
    "mappers",
    "interlayer",
    "engine",
    "store",
    "wire",
    "http",
    "front",
];

/// A workload and the reason it exists.
pub struct WorkloadInfo {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why it was chosen: which layers it stresses and which it bypasses.
    pub why: &'static str,
}

/// The six workloads, in run order.
pub const WORKLOADS: [WorkloadInfo; 6] = [
    WorkloadInfo {
        name: "milp_cnn_cold",
        why: "cold CoSA MILP at the serving node limit over conv/depthwise/pointwise/FC/matmul shapes: milp+core do the work, sat/store/front none",
    },
    WorkloadInfo {
        name: "sat_proof_cold",
        why: "cold SAT optimality proofs on mid-size shapes: sat (encode + CDCL) does the work and milp none, the mirror of milp_cnn_cold",
    },
    WorkloadInfo {
        name: "portfolio_cold",
        why: "the same shapes through the MILP-vs-SAT race: only here do api::race_schedulers, cancellation and the loser join show",
    },
    WorkloadInfo {
        name: "serve_warm",
        why: "closed loop, 2 clients, warm daemon, 90% layer and 10% suite requests: http/front/wire/engine LRU do the work, solvers none",
    },
    WorkloadInfo {
        name: "store_churn",
        why: "persist, reopen + read-through and GC of distinct shapes: the only workload where engine::store writes dominate",
    },
    WorkloadInfo {
        name: "baseline_eval_sweep",
        why: "seven suites through the seeded random mapper with NoC and inter-layer passes on: model/noc/mappers/interlayer work, no exact solver",
    },
];

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the contract.
pub struct MetricInfo {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end only: share of the baseline median by which the metric
    /// may get worse before it counts as a regression (0 for per-layer).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricInfo {
    MetricInfo {
        name,
        unit,
        better: Better::Lower,
        bound,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricInfo {
    MetricInfo {
        name,
        unit,
        better: Better::Lower,
        bound: 0.0,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricInfo {
    MetricInfo {
        name,
        unit,
        better: Better::Higher,
        bound: 0.0,
    }
}

/// What a user of the system sees, reported by every workload.
///
/// A pass is the workload's fixed, work-bounded unit (all its solves, all
/// its requests, one persist/read/GC cycle); an operation is one solve,
/// request, persist or read; a class is a layer shape, a request kind, a
/// store phase or a suite. The three exact sums are over the answers of
/// one pass.
pub const END_TO_END: [MetricInfo; 8] = [
    e2e("setup_s", "s", 0.25),
    e2e("pass_wall_s", "s", 0.25),
    e2e("op_p50_us", "us", 0.25),
    e2e("slow_class_p50_us", "us", 0.25),
    e2e("peak_rss_mb", "MB", 0.20),
    e2e("model_latency_cycles", "cycles", 0.02),
    e2e("model_energy_pj", "pJ", 0.02),
    e2e("offchip_bytes", "bytes", 0.02),
];

/// Single-layer metrics from the traced run; a workload reports 0 for a
/// layer it does not exercise, which is the "bypass" prediction.
pub const PER_LAYER: [MetricInfo; 83] = [
    lower("core.build_s", "s"),
    lower("core.refine_s", "s"),
    lower("core.milp_vars", "count"),
    lower("core.milp_constraints", "count"),
    lower("milp.nodes", "count"),
    lower("milp.simplex_iters", "count"),
    lower("milp.stage_a_s", "s"),
    lower("milp.root_lp_s", "s"),
    lower("milp.search_s", "s"),
    lower("milp.us_per_simplex_iter", "us"),
    lower("milp.iters_per_node", "count"),
    lower("milp.budget_hit_share", "share"),
    lower("sat.encode_s", "s"),
    lower("sat.search_s", "s"),
    lower("sat.vars", "count"),
    lower("sat.conflicts", "count"),
    lower("sat.decisions", "count"),
    lower("sat.propagations", "count"),
    lower("sat.restarts", "count"),
    higher("sat.props_per_s", "1/s"),
    higher("sat.proven_optimal_share", "share"),
    lower("sat.budget_hit_share", "share"),
    lower("api.race_wall_s", "s"),
    higher("api.wins_cosa", "count"),
    higher("api.wins_sat", "count"),
    lower("api.race_vs_winner_solo_ratio", "ratio"),
    lower("model.evaluate_us", "us"),
    higher("model.evals_per_s", "1/s"),
    lower("noc.simulate_s", "s"),
    lower("noc.sims", "count"),
    lower("noc.host_us_per_kcycle", "us"),
    lower("noc.sim_cycles", "cycles"),
    lower("mappers.random_s", "s"),
    higher("mappers.geomean_speedup_vs_random", "ratio"),
    lower("interlayer.pass_s", "s"),
    higher("interlayer.resident_edges", "count"),
    higher("interlayer.offchip_saved_share", "share"),
    lower("engine.fresh_solves", "count"),
    higher("engine.dedup_hits", "count"),
    lower("engine.overhead_s", "s"),
    lower("engine.warm_network_us", "us"),
    lower("engine.cache_key_us", "us"),
    lower("store.save_us_p50", "us"),
    lower("store.save_us_first_decile", "us"),
    lower("store.save_us_last_decile", "us"),
    lower("store.load_index_ms", "ms"),
    lower("store.load_entry_us", "us"),
    lower("store.gc_ms", "ms"),
    lower("store.segment_bytes", "bytes"),
    lower("store.bytes_per_entry", "bytes"),
    lower("store.store_errors", "count"),
    higher("store.persist_entries_per_s", "1/s"),
    higher("store.readthrough_entries_per_s", "1/s"),
    lower("wire.request_parse_us", "us"),
    lower("wire.routing_digest_us", "us"),
    lower("wire.serialize_layer_us", "us"),
    lower("wire.serialize_suite_us", "us"),
    lower("wire.bytes_layer", "bytes"),
    lower("wire.bytes_suite", "bytes"),
    lower("http.parse_us", "us"),
    lower("http.response_bytes_us", "us"),
    lower("front.connect_us", "us"),
    lower("front.service_p50_us", "us"),
    lower("front.client_overhead_p50_us", "us"),
    lower("front.layer_p99_us", "us"),
    lower("front.suite_p99_us", "us"),
    lower("front.rejected", "count"),
    lower("front.errors", "count"),
    higher("front.warm_rps", "1/s"),
    lower("trace_overhead_share", "share"),
    lower("core.self_s", "s"),
    lower("milp.self_s", "s"),
    lower("sat.self_s", "s"),
    lower("api.self_s", "s"),
    lower("model.self_s", "s"),
    lower("noc.self_s", "s"),
    lower("mappers.self_s", "s"),
    lower("interlayer.self_s", "s"),
    lower("engine.self_s", "s"),
    lower("store.self_s", "s"),
    lower("wire.self_s", "s"),
    lower("http.self_s", "s"),
    lower("front.self_s", "s"),
];

/// The end-to-end metric called `name`.
pub fn end_to_end(name: &str) -> Option<&'static MetricInfo> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The `BENCHMARK.json` document.
pub fn benchmark_json() -> Value {
    let workloads = WORKLOADS
        .iter()
        .map(|w| obj(vec![("name", text(w.name)), ("why", text(w.why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            obj(vec![
                ("name", text(m.name)),
                ("unit", text(m.unit)),
                ("better", text(m.better.word())),
                ("bound", num(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            obj(vec![
                ("name", text(m.name)),
                ("unit", text(m.unit)),
                ("better", text(m.better.word())),
            ])
        })
        .collect();
    obj(vec![
        (
            "command",
            Value::Seq(vec![text("bash"), text("benchmark/run.sh")]),
        ),
        ("paths", Value::Seq(vec![text("benchmark")])),
        ("run_seconds", Value::U64(RUN_SECONDS)),
        ("workloads", Value::Seq(workloads)),
        ("end_to_end", Value::Seq(end_to_end)),
        ("per_layer", Value::Seq(per_layer)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for name in &names {
            assert!(name.len() <= 64 && name.as_bytes()[0].is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before, "a name is used twice");
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!(end_to_end("setup_s").is_some_and(|m| m.unit == "s"));
    }

    #[test]
    fn every_layer_has_a_self_time_metric() {
        for layer in LAYERS {
            let name = format!("{layer}.self_s");
            assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        }
    }

    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let committed: Value = serde_json::from_str(&committed).expect("valid JSON");
        let ours: Value = serde_json::from_str(&crate::emit::line(&benchmark_json())).unwrap();
        assert_eq!(
            committed, ours,
            "regenerate with `benchmark/run.sh manifest > BENCHMARK.json`"
        );
    }
}
