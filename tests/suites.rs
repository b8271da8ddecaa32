//! Validation harness for the transformer-era and mobile-class suites
//! (BERT-base, GPT-mini, MobileNetV2): cross-backend differential checks
//! (MILP vs SAT vs portfolio) on every new layer class, golden-pinned
//! cache-key digests for every new suite entry, inter-layer residency on
//! an encoder chain, byte-identical cold→warm engine runs and a
//! randomized transformer-shape agreement property.
//!
//! Differential solves run on small *representative* shapes per class so
//! the file stays quick in debug; the full-size suites are exercised with
//! the fast `random` registry scheduler (cache/report semantics do not
//! depend on which scheduler filled the cache) and with the exact
//! solvers by `benchmark/run.sh` in release mode.

use cosa_repro::engine::{Engine, InterlayerOptions};
use cosa_repro::prelude::*;
use proptest::prelude::*;

/// One small representative layer per new layer class: the encoder-block
/// matmuls (QKV, attention score/context, FFN) and the MobileNet-style
/// depthwise/pointwise convolutions. Shapes are miniatures of the real
/// suite entries (same structure: `d_model → 3·d_model`, `seq`-batched,
/// per-group `C = 1`, ...) sized so an optimality-proving SAT solve is
/// cheap even in debug builds.
fn layer_classes() -> Vec<(&'static str, Layer)> {
    vec![
        ("qkv_projection", Layer::matmul("class_qkv", 16, 48, 6)),
        ("attention_score", Layer::matmul("class_score", 8, 12, 12)),
        (
            "attention_context",
            Layer::matmul("class_context", 12, 8, 12),
        ),
        ("ffn_matmul", Layer::matmul("class_ffn", 16, 64, 6)),
        (
            "depthwise_conv",
            Layer::conv("class_dw", 3, 3, 14, 14, 1, 32, 1, 1, 1),
        ),
        (
            "pointwise_conv",
            Layer::conv("class_pw", 1, 1, 14, 14, 4, 64, 1, 1, 1),
        ),
    ]
}

/// MILP, unbounded SAT and the portfolio must agree on the Eq. 12
/// objective for every new layer class, whichever backend the portfolio
/// picks for it.
#[test]
fn milp_sat_and_portfolio_agree_on_every_new_layer_class() {
    let arch = Arch::simba_baseline();
    let tol = |a: f64, b: f64| 1e-6 * a.abs().max(b.abs()).max(1.0);
    for (class, layer) in layer_classes() {
        let milp = cosa_core::CosaScheduler::new(&arch)
            .schedule(&layer)
            .unwrap_or_else(|e| panic!("MILP failed on {class}: {e}"));
        let sat = cosa_repro::sat::SatScheduler::new(&arch)
            .with_conflict_budget(None)
            .schedule(&layer)
            .unwrap_or_else(|e| panic!("SAT failed on {class}: {e:?}"));
        assert!(sat.proven_optimal, "unbounded SAT must prove {class}");
        assert!(
            (milp.milp_objective - sat.objective).abs() <= tol(milp.milp_objective, sat.objective),
            "{class}: MILP objective {} diverges from SAT {}",
            milp.milp_objective,
            sat.objective,
        );

        let portfolio = PortfolioScheduler::new(&arch);
        let picked = Scheduler::schedule(&portfolio, &arch, &layer)
            .unwrap_or_else(|e| panic!("portfolio failed on {class}: {e}"));
        let objective = picked
            .stats
            .milp_objective
            .expect("both backends report the shared objective");
        assert!(
            (objective - milp.milp_objective).abs() <= tol(objective, milp.milp_objective),
            "{class}: portfolio objective {objective} diverges from MILP {}",
            milp.milp_objective,
        );
    }
}

/// Golden cache-key digests for every entry of every new suite, under the
/// serving registry's `cosa` scheduler on the default arch. These are the
/// digests the daemon routes and caches by: any drift in layer
/// definitions, canonicalization, or fingerprinting shows up here as an
/// exact string diff.
const GOLDEN_SUITE_KEYS: &[(&str, &[(&str, &str)])] = &[
    (
        "BERT-base",
        &[
            ("bert.qkv", "33dc471112e8b95f8e1dfb84e1453bc8"),
            ("bert.attn_score", "c27bd337c5a266477502cfb3169a9bc6"),
            ("bert.attn_context", "443878fc4b915c0e2049a32d3a207c67"),
            ("bert.attn_out", "37b9b364aa065e6777dfe105b22facfc"),
            ("bert.ffn_up", "559d092703dec366726ff330d50d7493"),
            ("bert.ffn_down", "1fa1195fd442c5c15e3874d446220494"),
        ],
    ),
    (
        "GPT-mini",
        &[
            ("gpt.qkv", "618afd7f29fe28865a9732017613b3d1"),
            ("gpt.attn_score", "8090d2cdebfee508e5e5184187eefdab"),
            ("gpt.attn_context", "78ae795891ae8c439bd49b0e07d49d78"),
            ("gpt.attn_out", "1374d4ea6477428a00a66f0dfa559b23"),
            ("gpt.ffn_up", "8ecd7b82d50f456cd2b9ba6fae196adf"),
            ("gpt.ffn_down", "955867d523a805734790bba410f311c0"),
        ],
    ),
];

#[test]
fn golden_digests_for_new_suite_entries() {
    let arch = Arch::simba_baseline();
    let engine = Engine::new(arch.clone());
    let cosa = scheduler_from_name("cosa", &arch).expect("registry scheduler");
    let mut drift = Vec::new();
    for (suite_name, entries) in GOLDEN_SUITE_KEYS {
        let suite: Suite = suite_name.parse().expect("known suite");
        let workload = suite.workload();
        assert_eq!(
            workload.layers.len(),
            entries.len(),
            "{suite_name} entry count changed"
        );
        for (layer, (name, golden)) in workload.layers.iter().zip(*entries) {
            assert_eq!(layer.name(), *name, "{suite_name} entry order changed");
            let key = engine.cache_key(cosa.as_ref(), layer);
            if key != *golden {
                drift.push(format!("            (\"{name}\", \"{key}\"),"));
            }
        }
    }
    assert!(
        drift.is_empty(),
        "cache-key digests drifted; current values:\n{}",
        drift.join("\n")
    );
}

/// The MobileNetV2 table is pinned as one combined digest over the
/// per-entry cache keys (31 entries would dominate the table above), plus
/// the suite's entry count — the same drift sensitivity, one line.
#[test]
fn golden_combined_digest_for_mobilenet() {
    let arch = Arch::simba_baseline();
    let engine = Engine::new(arch.clone());
    let cosa = scheduler_from_name("cosa", &arch).expect("registry scheduler");
    let workload = Suite::MobileNetV2.workload();
    assert_eq!(workload.layers.len(), 31);
    let keys: Vec<String> = workload
        .layers
        .iter()
        .map(|l| engine.cache_key(cosa.as_ref(), l))
        .collect();
    let parts: Vec<&str> = keys.iter().map(String::as_str).collect();
    let combined = cosa_spec::canon::cache_digest(&parts);
    assert_eq!(
        combined, "108d924305f2576c61aca34cccf943df",
        "MobileNetV2 combined cache-key digest drifted"
    );
}

/// Cold→warm engine runs on every new suite must be byte-identical at
/// the canonical-report level, with the warm pass re-solving nothing.
#[test]
fn cold_warm_runs_are_byte_identical_for_new_suites() {
    let arch = Arch::simba_baseline();
    for suite in [Suite::BertBase, Suite::GptMini, Suite::MobileNetV2] {
        let network = Network::from_suite(suite);
        let scheduler = scheduler_from_name("random", &arch).expect("registry scheduler");
        let engine = Engine::new(arch.clone());
        let cold = engine.schedule_network(&network, scheduler.as_ref());
        assert!(
            cold.report.is_complete(),
            "{}: every layer must schedule",
            network.name
        );
        assert_eq!(
            cold.cache_misses,
            network.unique_shapes() as u64,
            "{}: one solve per unique shape",
            network.name
        );
        let warm = engine.schedule_network(&network, scheduler.as_ref());
        assert_eq!(warm.cache_misses, 0, "{}: warm pass all hits", network.name);
        let cold_json = serde_json::to_string(&cold.report.without_timings()).unwrap();
        let warm_json = serde_json::to_string(&warm.report.without_timings()).unwrap();
        assert_eq!(
            cold_json, warm_json,
            "{}: warm report must be byte-identical",
            network.name
        );
    }
}

/// Inter-layer residency on a transformer encoder chain: with a budget
/// that fits the inter-stage activations, the pass must keep at least one
/// hand-off resident and strictly reduce `offchip_bytes` vs the per-layer
/// baseline — byte-identically across independently constructed engines.
#[test]
fn interlayer_residency_reduces_offchip_on_encoder_chain() {
    let arch = Arch::simba_baseline();
    let scheduler = scheduler_from_name("random", &arch).expect("registry scheduler");
    // Two encoder blocks carry every edge class (score→context,
    // out→ffn_up, ffn_up→ffn_down, ffn_down→qkv across blocks).
    let mut network = Network::from_suite(Suite::GptMini);
    network.layers.truncate(12);

    let baseline = Engine::new(arch.clone()).schedule_network_with(
        &network,
        scheduler.as_ref(),
        &InterlayerOptions::disabled(),
    );
    assert!(baseline.report.is_complete());
    assert!(baseline.report.interlayer.is_none());

    // 1 MiB comfortably fits the largest GPT-mini hand-off (the 256×1024
    // ffn_up activation); the architecture default (the level below DRAM)
    // is smaller than transformer activations, so the budget is explicit.
    let options = InterlayerOptions::enabled().with_budget_bytes(1 << 20);
    let run = |options: &InterlayerOptions| {
        Engine::new(arch.clone()).schedule_network_with(&network, scheduler.as_ref(), options)
    };
    let first = run(&options);
    let report = first.report.interlayer.clone().expect("interlayer section");
    assert!(!report.edges.is_empty(), "encoder chain must have edges");
    assert!(report.resident_edges >= 1, "budget fits at least one edge");
    assert!(
        report.offchip_bytes < report.baseline_offchip_bytes,
        "residency must strictly lower off-chip bytes ({} !< {})",
        report.offchip_bytes,
        report.baseline_offchip_bytes,
    );
    // The pass only re-weights DRAM terms; per-layer totals are fixed.
    assert_eq!(
        first.report.total_latency_cycles,
        baseline.report.total_latency_cycles
    );

    // Determinism: an independently constructed engine reproduces the
    // canonical report byte-for-byte.
    let second = run(&options);
    assert_eq!(
        serde_json::to_string(&first.report.without_timings()).unwrap(),
        serde_json::to_string(&second.report.without_timings()).unwrap(),
        "residency pass must be byte-identical across re-runs"
    );
}

/// Random transformer-shaped matmuls (seq·heads·d_model style
/// factorizations, including primes and 1-sized dims): kept tiny so the
/// optimality-proving SAT solve stays fast per case.
fn transformer_layer_strategy() -> impl Strategy<Value = Layer> {
    (1u64..=20, 1u64..=16, 1u64..=13)
        .prop_map(|(c, k, seq)| Layer::matmul(format!("tx_{c}_{k}_{seq}"), c, k, seq))
}

/// The MILP side of the SAT/MILP agreement property: an exact solve (the
/// solver's default 1e-6 gap, not the scheduler's 3 %) bounded by
/// branch-and-bound nodes instead of the scheduler's 6 s clock, so a busy
/// machine cannot stop it early. 3 000 nodes reach the SAT-proven optimum
/// on each of the property's first 64 generated cases.
fn agreement_milp(arch: &Arch) -> cosa_core::CosaScheduler {
    cosa_core::CosaScheduler::new(arch).with_solve_options(cosa_milp::SolveOptions {
        node_limit: 3_000,
        time_limit: None,
        ..cosa_milp::SolveOptions::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Extends the PR 6 agreement property to the transformer shape
    /// distribution: MILP and SAT either both schedule (same objective)
    /// or agree the shape is infeasible — never a split verdict.
    #[test]
    fn milp_and_sat_agree_on_random_transformer_shapes(layer in transformer_layer_strategy()) {
        let arch = Arch::simba_baseline();
        let milp = agreement_milp(&arch).schedule(&layer);
        let sat = cosa_repro::sat::SatScheduler::new(&arch)
            .with_conflict_budget(None)
            .schedule(&layer);
        match (milp, sat) {
            (Ok(m), Ok(s)) => {
                let (mo, so) = (m.milp_objective, s.objective);
                prop_assert!(s.proven_optimal, "unbounded SAT must prove optimality");
                let weights = cosa_core::ObjectiveWeights::default();
                if let Some(exact) = cosa_core::exact::exact_optimum(&layer, &arch, weights) {
                    prop_assert!(
                        (so - exact).abs() <= 1e-6 * so.abs().max(exact.abs()).max(1.0),
                        "sat {so} misses the exact optimum {exact} on {}",
                        layer.name(),
                    );
                }
                prop_assert!(
                    (mo - so).abs() <= 1e-6 * mo.abs().max(so.abs()).max(1.0),
                    "objectives diverge on {}: milp {mo} vs sat {so}",
                    layer.name(),
                );
            }
            (Err(_), Err(cosa_repro::sat::SatError::Infeasible)) => {
                // Agreement on infeasibility.
            }
            (m, s) => {
                prop_assert!(
                    false,
                    "solvers disagree on feasibility of {}: milp ok={} sat {:?}",
                    layer.name(),
                    m.is_ok(),
                    s.err(),
                );
            }
        }
    }
}
