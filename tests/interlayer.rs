//! Integration tests for the inter-layer residency pass (PR 9): a
//! multi-stage network scheduled with residency must report strictly
//! lower off-chip traffic than the per-layer baseline, byte-identically
//! across runs; budgets bound the occupancy timeline; MILP selection
//! never loses to greedy; and the `interlayer` section is purely
//! additive — reports without it still deserialize.

use cosa_repro::prelude::*;

/// CoSA with a small node-count budget: fast and bit-reproducible.
fn quick_cosa(arch: &Arch) -> CosaScheduler {
    let opts = cosa_repro::milp::SolveOptions {
        gap_tol: 0.1,
        ..Default::default()
    };
    CosaScheduler::new(arch)
        .with_solve_options(opts)
        .with_deterministic_limits(200)
}

/// A three-stage chain where every hand-off is residency-eligible:
/// `stem → body`, two internal `body → body` hand-offs (count 3), and
/// `body → head`.
fn chain_network() -> Network {
    let stem = Layer::conv("chain_stem", 3, 3, 8, 8, 8, 16, 1, 1, 1);
    let body = Layer::conv("chain_body", 3, 3, 8, 8, 16, 16, 1, 1, 1);
    let head = Layer::conv("chain_head", 1, 1, 8, 8, 16, 32, 1, 1, 1);
    Network::new("chain")
        .with_layer("stem", stem, 1)
        .with_layer("body", body, 3)
        .with_layer("head", head, 1)
}

#[test]
fn residency_lowers_offchip_bytes_deterministically() {
    let arch = Arch::simba_baseline();
    let cosa = quick_cosa(&arch);
    let engine = Engine::new(arch);
    let network = chain_network();

    // Per-layer baseline: no `interlayer` section, and the serialized
    // report carries no trace of the key (wire bytes match pre-PR-9).
    let baseline = engine.schedule_network(&network, &cosa);
    assert!(baseline.report.is_complete());
    assert!(baseline.report.interlayer.is_none());
    let baseline_json = serde_json::to_string(&baseline.report.without_timings()).unwrap();
    assert!(
        !baseline_json.contains("interlayer"),
        "disabled runs must serialize byte-identically to pre-PR-9 reports"
    );

    // Memory-aware run: strictly lower off-chip traffic.
    let options = InterlayerOptions::enabled();
    let aware = engine.schedule_network_with(&network, &cosa, &options);
    assert!(aware.report.is_complete());
    let report = aware
        .report
        .interlayer
        .as_ref()
        .expect("interlayer section");
    assert_eq!(report.version, 1);
    assert_eq!(report.strategy, "greedy");
    assert_eq!(report.edges.len(), 3, "stem→body, body→body, body→head");
    assert!(report.resident_edges >= 1, "something must pin on chip");
    assert!(
        report.offchip_bytes < report.baseline_offchip_bytes,
        "residency must strictly lower off-chip bytes: {} !< {}",
        report.offchip_bytes,
        report.baseline_offchip_bytes
    );
    assert!(
        (report.saved_offchip_bytes - (report.baseline_offchip_bytes - report.offchip_bytes)).abs()
            < 1e-6
    );
    // Resident edges save, non-resident edges are reported but free.
    for edge in &report.edges {
        assert!(edge.tensor_bytes > 0);
        assert!(edge.multiplicity >= 1);
        if edge.resident {
            assert!(edge.saved_bytes > 0.0, "{:?} pinned for nothing", edge);
        }
    }
    // Headline per-layer totals are untouched by the pass.
    assert_eq!(
        aware.report.total_latency_cycles,
        baseline.report.total_latency_cycles
    );

    // Deterministic: a second run serializes byte-identically.
    let again = engine.schedule_network_with(&network, &cosa, &options);
    assert_eq!(
        serde_json::to_string(&aware.report.without_timings()).unwrap(),
        serde_json::to_string(&again.report.without_timings()).unwrap(),
        "memory-aware reports must be byte-identical across runs"
    );
}

#[test]
fn engine_default_options_apply_to_schedule_network() {
    let arch = Arch::simba_baseline();
    let cosa = quick_cosa(&arch);
    let engine = Engine::new(arch).with_interlayer(InterlayerOptions::enabled());
    assert!(engine.interlayer_options().enabled);
    let run = engine.schedule_network(&chain_network(), &cosa);
    assert!(run.report.interlayer.is_some(), "engine default applies");
}

#[test]
fn zero_budget_keeps_the_baseline() {
    let arch = Arch::simba_baseline();
    let cosa = quick_cosa(&arch);
    let engine = Engine::new(arch);
    let options = InterlayerOptions::enabled().with_budget_bytes(0);
    let run = engine.schedule_network_with(&chain_network(), &cosa, &options);
    let report = run.report.interlayer.as_ref().expect("interlayer section");
    assert_eq!(report.budget_bytes, 0);
    assert_eq!(report.resident_edges, 0);
    assert!(report.edges.iter().all(|e| !e.resident));
    assert_eq!(report.offchip_bytes, report.baseline_offchip_bytes);
    assert_eq!(report.saved_offchip_bytes, 0.0);
    assert!(report.occupancy.iter().all(|o| o.peak_bytes == 0));
}

#[test]
fn milp_matches_or_beats_greedy_under_any_budget() {
    let arch = Arch::simba_baseline();
    let cosa = quick_cosa(&arch);
    let engine = Engine::new(arch);
    let network = chain_network();

    // Probe tensor sizes with the default budget, then sweep budgets
    // from "fits nothing" to "fits everything".
    let probe = engine
        .schedule_network_with(&network, &cosa, &InterlayerOptions::enabled())
        .report
        .interlayer
        .expect("interlayer section");
    let max_tensor = probe.edges.iter().map(|e| e.tensor_bytes).max().unwrap();
    for budget in [
        max_tensor / 2,
        max_tensor,
        2 * max_tensor,
        probe.budget_bytes,
    ] {
        let greedy = engine
            .schedule_network_with(
                &network,
                &cosa,
                &InterlayerOptions::enabled().with_budget_bytes(budget),
            )
            .report
            .interlayer
            .expect("greedy section");
        let milp = engine
            .schedule_network_with(
                &network,
                &cosa,
                &InterlayerOptions::enabled()
                    .with_budget_bytes(budget)
                    .with_strategy(InterlayerStrategy::Milp),
            )
            .report
            .interlayer
            .expect("milp section");
        assert_eq!(milp.strategy, "milp");
        for section in [&greedy, &milp] {
            assert!(
                section.occupancy.iter().all(|o| o.peak_bytes <= budget),
                "occupancy must respect the {budget}-byte budget: {:?}",
                section.occupancy
            );
            assert!(section.offchip_bytes <= section.baseline_offchip_bytes);
        }
        assert!(
            milp.saved_offchip_bytes >= greedy.saved_offchip_bytes - 1e-6,
            "exact selection lost to greedy at budget {budget}: {} < {}",
            milp.saved_offchip_bytes,
            greedy.saved_offchip_bytes
        );
    }
}

#[test]
fn pre_pr9_network_reports_still_deserialize() {
    let arch = Arch::simba_baseline();
    let cosa = quick_cosa(&arch);
    let engine = Engine::new(arch);
    let run = engine.schedule_network(&chain_network(), &cosa);

    // A pre-PR-9 report is exactly today's disabled-run serialization:
    // no `interlayer` key at all. It must round-trip to `None`.
    let old_wire = serde_json::to_string(&run.report).unwrap();
    assert!(!old_wire.contains("interlayer"));
    let parsed: NetworkReport = serde_json::from_str(&old_wire).expect("old report parses");
    assert!(parsed.interlayer.is_none());
    assert_eq!(
        serde_json::to_string(&parsed).unwrap(),
        old_wire,
        "pre-PR-9 reports round-trip byte-identically"
    );

    // And a report with the section round-trips too.
    let aware =
        engine.schedule_network_with(&chain_network(), &cosa, &InterlayerOptions::enabled());
    let new_wire = serde_json::to_string(&aware.report).unwrap();
    let parsed: NetworkReport = serde_json::from_str(&new_wire).expect("new report parses");
    assert_eq!(parsed.interlayer, aware.report.interlayer);
}
