//! Reproducibility guarantees: one-shot scheduling is deterministic and
//! searches are seed-stable. (All spec types also derive serde
//! `Serialize`/`Deserialize` for downstream persistence; wire formats are
//! the consumer's choice.)

use cosa_repro::prelude::*;
use cosa_repro::spec::workloads;

#[test]
fn cosa_is_deterministic() {
    let arch = Arch::simba_baseline();
    let layer = workloads::find_layer("3_27_128_128_1").expect("layer");
    let a = CosaScheduler::new(&arch)
        .schedule(&layer)
        .expect("ok")
        .schedule;
    let b = CosaScheduler::new(&arch)
        .schedule(&layer)
        .expect("ok")
        .schedule;
    assert_eq!(a, b);
}

#[test]
fn random_search_is_seed_stable() {
    let arch = Arch::simba_baseline();
    let layer = workloads::find_layer("3_13_384_256_1").expect("layer");
    let limits = SearchLimits::quick();
    let a = RandomMapper::new(99).search(&arch, &layer, &limits);
    let b = RandomMapper::new(99).search(&arch, &layer, &limits);
    assert_eq!(a.best, b.best);
    assert_eq!(a.samples, b.samples);
}

#[test]
fn hybrid_best_is_always_valid() {
    let arch = Arch::simba_baseline();
    let layer = workloads::find_layer("3_120_32_64_1").expect("layer");
    let out = HybridMapper::new(HybridConfig::quick()).search(&arch, &layer);
    let best = out.best.expect("finds something");
    assert!(best.is_valid(&layer, &arch));
}

#[test]
fn rendered_schedules_are_stable() {
    // The Listing-1 rendering is part of the public API surface; it must
    // not change between identical runs.
    let arch = Arch::simba_baseline();
    let layer = workloads::find_layer("1_56_256_64_1").expect("layer");
    let a = CosaScheduler::new(&arch).schedule(&layer).expect("ok");
    let b = CosaScheduler::new(&arch).schedule(&layer).expect("ok");
    assert_eq!(a.schedule.render(&arch), b.schedule.render(&arch));
    assert!(a.schedule.render(&arch).contains("// DRAM level"));
}

#[test]
fn schedule_clone_evaluates_identically() {
    let arch = Arch::simba_baseline();
    let layer = workloads::find_layer("1_28_256_512_2").expect("layer");
    let schedule = CosaScheduler::new(&arch)
        .schedule(&layer)
        .expect("ok")
        .schedule;
    let clone = schedule.clone();
    let model = CostModel::new(&arch);
    assert_eq!(
        model.evaluate(&layer, &schedule).unwrap().latency_cycles,
        model.evaluate(&layer, &clone).unwrap().latency_cycles,
    );
}

/// The seven `milp_cnn_cold` shapes at the serving node limit: the Eq. 12
/// objective may not rise above what the cold-simplex search of PR 21
/// returned, every schedule validates, and a second solve returns the same
/// bytes.
///
/// The search itself is pinned too: `(nodes, simplex_iters, objective bits,
/// best_bound bits)` as of PR 25. A speed-only change to `crates/milp` must
/// leave them alone; a change that moves them has altered the search and
/// must update the literals on purpose.
#[test]
fn serving_milp_meets_the_quality_floor_and_repeats() {
    use cosa_repro::serve::SERVE_COSA_NODE_LIMIT;
    use cosa_repro::spec::workloads::GPT_MINI;

    let paper = |name: &str| Layer::parse_paper_name(name).expect("suite layer name");
    let floor = [
        (
            paper("3_7_512_512_1"),
            -1.2934707,
            (300, 16285, 0xc00267220d5107c0, 0xc0174fdc3dc29ac6),
        ),
        (
            paper("3_14_1_192_2"),
            -3.6879891,
            (300, 5261, 0xc0261a1a930b81c1, 0xc02b783e61be4f3c),
        ),
        (
            paper("1_7_1024_2048_2"),
            -5.2496212,
            (300, 3676, 0xc014ff9cb2baa288, 0xc01c7ede41e27e9e),
        ),
        (
            paper("1_14_576_96_1"),
            -6.1612493,
            (300, 2486, 0xc01a921d9bb390ca, 0xc02275732a28a7b3),
        ),
        (
            paper("1_1_2048_1000_1"),
            -2.5556564,
            (300, 1072, 0xc00471fbffb51314, 0xc013ed3b4f92f602),
        ),
        (
            GPT_MINI.attn_score(),
            -8.0889756,
            (77, 760, 0xc0202d8e36202f8a, 0xc0202d8e36202f8a),
        ),
        (
            GPT_MINI.ffn_up(),
            -4.9698133,
            (197, 1835, 0xc013e116bd0728a0, 0xc013e116bd0728a0),
        ),
    ];
    let arch = Arch::simba_baseline();
    let cosa = CosaScheduler::new(&arch).with_deterministic_limits(SERVE_COSA_NODE_LIMIT);
    let mut above_floor = Vec::new();
    let mut off_trajectory = Vec::new();
    for (layer, parent_objective, pinned) in &floor {
        let first = cosa.schedule(layer).expect("serving solve");
        if first.milp_objective > parent_objective + 1e-6 {
            above_floor.push((layer.name().to_string(), first.milp_objective));
        }
        let trajectory = (
            first.stats.nodes,
            first.stats.simplex_iters,
            first.milp_objective.to_bits(),
            first.stats.best_bound.to_bits(),
        );
        if trajectory != *pinned {
            off_trajectory.push(format!(
                "{}: ({}, {}, {:#x}, {:#x})",
                layer.name(),
                trajectory.0,
                trajectory.1,
                trajectory.2,
                trajectory.3
            ));
        }
        first
            .schedule
            .validate(layer, &arch)
            .expect("valid schedule");
        let second = cosa.schedule(layer).expect("serving solve");
        assert_eq!(
            serde_json::to_string(&first.schedule).expect("serializes"),
            serde_json::to_string(&second.schedule).expect("serializes"),
            "{}",
            layer.name()
        );
        assert_eq!(
            first.milp_objective.to_bits(),
            second.milp_objective.to_bits()
        );
        assert_eq!(first.stats, second.stats, "{}", layer.name());
        println!(
            "{:<18} objective {:>11.7} (floor {:>11.7})  nodes {:>3}  pivots {:>6}  best_bound {:>10.5}",
            layer.name(),
            first.milp_objective,
            parent_objective,
            first.stats.nodes,
            first.stats.simplex_iters,
            first.stats.best_bound
        );
    }
    assert!(above_floor.is_empty(), "above the floor: {above_floor:?}");
    assert!(
        off_trajectory.is_empty(),
        "search moved off the pinned trajectory: {off_trajectory:#?}"
    );
}

/// The NoC simulator's numbers on the smallest layer of every suite,
/// scheduled as the daemon's `"random"` schedules it: the layer latency's
/// bits and the flit-simulated cycles of every iteration class. A
/// speed-only change to `crates/noc` must leave them alone.
#[test]
fn noc_simulated_cycles_are_pinned() {
    use cosa_repro::serve::SERVE_RANDOM_SEED;

    let pinned: [(&str, u64, &[u64]); 7] = [
        (
            "1_1_4096_1000_1",
            0x412134d200000000,
            &[51727, 51209, 51209],
        ),
        (
            "1_1_2048_1000_1",
            0x4110939400000000,
            &[12881, 12881, 13024, 12948, 13024, 12948],
        ),
        (
            "1_1_2048_1000_1",
            0x4110939400000000,
            &[12881, 12881, 13024, 12948, 13024, 12948],
        ),
        (
            "3_108_3_64_2",
            0x41412e9380000000,
            &[2754, 11686, 12583, 12583, 12583, 12583],
        ),
        (
            "bert.attn_score",
            0x4114a81000000000,
            &[
                597, 1326, 841, 1846, 1070, 1846, 1070, 1846, 1070, 1846, 1070, 1846, 1070, 1846,
                1070, 1846, 1070,
            ],
        ),
        (
            "gpt.attn_score",
            0x4100608800000000,
            &[1080, 3089, 3089, 3089, 3089, 3089],
        ),
        (
            "3_7_1_576_2",
            0x40eb645555555555,
            &[65, 788, 408, 794, 414, 794, 414, 794, 414],
        ),
    ];
    let arch = Arch::simba_baseline();
    let random = RandomMapper::new(SERVE_RANDOM_SEED).with_limits(SearchLimits::quick());
    let noc = NocSimulator::new(&arch);
    let mut moved = Vec::new();
    for (suite, (name, total_bits, noc_cycles)) in Suite::ALL.into_iter().zip(pinned) {
        let layer = suite
            .workload()
            .layers
            .into_iter()
            .min_by_key(Layer::macs)
            .expect("suites are non-empty");
        let schedule = Scheduler::schedule(&random, &arch, &layer)
            .expect("random finds a schedule")
            .schedule;
        let report = noc.simulate(&layer, &schedule).expect("valid schedule");
        let got: Vec<u64> = report.types.iter().map(|t| t.noc_cycles).collect();
        let got = (layer.name(), report.total_cycles.to_bits(), got.as_slice());
        if got != (name, total_bits, noc_cycles) {
            moved.push(format!("(\"{}\", {:#x}, &{:?}),", got.0, got.1, got.2));
        }
    }
    assert!(
        moved.is_empty(),
        "simulated cycles moved:\n{}",
        moved.join("\n")
    );
}
