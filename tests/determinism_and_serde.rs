//! Reproducibility guarantees: one-shot scheduling is deterministic and
//! searches are seed-stable. (All spec types also derive serde
//! `Serialize`/`Deserialize` for downstream persistence; wire formats are
//! the consumer's choice.)

use std::time::Duration;

use cosa_repro::prelude::*;
use cosa_repro::serve::SERVE_COSA_NODE_LIMIT;
use cosa_repro::spec::canon::digest128_hex;
use cosa_repro::spec::workloads;
use serde::Value;

mod common;

#[test]
fn cosa_is_deterministic() {
    let arch = Arch::simba_baseline();
    let layer = workloads::find_layer("3_27_128_128_1").expect("layer");
    let a = CosaScheduler::new(&arch)
        .with_deterministic_limits(SERVE_COSA_NODE_LIMIT)
        .schedule(&layer)
        .expect("ok")
        .schedule;
    let b = CosaScheduler::new(&arch)
        .with_deterministic_limits(SERVE_COSA_NODE_LIMIT)
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
    let cosa = || CosaScheduler::new(&arch).with_deterministic_limits(SERVE_COSA_NODE_LIMIT);
    let a = cosa().schedule(&layer).expect("ok");
    let b = cosa().schedule(&layer).expect("ok");
    assert_eq!(a.schedule.render(&arch), b.schedule.render(&arch));
    assert!(a.schedule.render(&arch).contains("// DRAM level"));
}

#[test]
fn schedule_clone_evaluates_identically() {
    let arch = Arch::simba_baseline();
    let layer = workloads::find_layer("1_28_256_512_2").expect("layer");
    let schedule = CosaScheduler::new(&arch)
        .with_deterministic_limits(SERVE_COSA_NODE_LIMIT)
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

/// The six `portfolio_cold` shapes the portfolio sends to the MILP, solved
/// at the portfolio's node limit: `(nodes, simplex_iters, objective bits,
/// best_bound bits)` and a digest of the schedule's JSON, recorded while
/// every basis install still ran a fresh dense-scanning Gauss–Jordan.
/// These searches run up to 11 259 nodes against the serving pin's 300, so
/// they re-install far more bases. A speed-only change to `crates/milp`
/// must leave them alone; a change that moves them has altered the search.
#[test]
fn portfolio_milp_searches_are_pinned() {
    // The benchmark's `PORTFOLIO_NODE_LIMIT` (its MILP side's node budget).
    const NODE_LIMIT: usize = 20_000;
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
    let pinned = [
        (
            mm(64, 64, 64),
            (91, 1067, 0xc023a4c8adf74897, 0xc023a4c8adf74897),
            "1e7a3e910fd4163e73e99e1fc976b593",
        ),
        (
            mm(64, 192, 32),
            (11259, 39716, 0xc021724b5ebb6d47, 0xc021724b5ebb6d47),
            "8c114727d0f8f4ac42c099ac77459ead",
        ),
        (
            mm(32, 64, 64),
            (31, 360, 0xc024563ac5ef1a66, 0xc024563ac5ef1a66),
            "5e9f0e92872f345621cc3b0760a810cb",
        ),
        (
            mm(64, 256, 32),
            (525, 3125, 0xc020df004e31c66b, 0xc020df004e31c66b),
            "f3726a15926a442ecdcbc9c20b1f8185",
        ),
        (
            conv(3, 4, 16, 32),
            (1, 608, 0xc02386a1a6891da4, 0xc02386a1a6891da4),
            "46355ef22cb8ea9f986026d39f3e38b4",
        ),
        (
            conv(3, 8, 8, 16),
            (1, 589, 0xc0264c6a066864e1, 0xc0264c6a066864e1),
            "9e1b964b2fe7dcc8ea0268f1a16b2927",
        ),
    ];
    let arch = Arch::simba_baseline();
    let cosa = CosaScheduler::new(&arch).with_deterministic_limits(NODE_LIMIT);
    let mut off_trajectory = Vec::new();
    for (layer, trajectory, schedule_digest) in &pinned {
        let out = cosa.schedule(layer).expect("portfolio MILP solve");
        let got = (
            out.stats.nodes,
            out.stats.simplex_iters,
            out.milp_objective.to_bits(),
            out.stats.best_bound.to_bits(),
        );
        let json = serde_json::to_string(&out.schedule).expect("serializes");
        let digest = digest128_hex(json.as_bytes());
        if got != *trajectory || digest != *schedule_digest {
            off_trajectory.push(format!(
                "{}: ({}, {}, {:#x}, {:#x}), \"{digest}\"",
                layer.name(),
                got.0,
                got.1,
                got.2,
                got.3
            ));
        }
    }
    assert!(
        off_trajectory.is_empty(),
        "search moved off the pinned trajectory: {off_trajectory:#?}"
    );
}

/// The NoC simulator's numbers on the smallest layer of every suite and on
/// AlexNet fc6, scheduled as the daemon's `"random"` schedules them: the
/// layer latency's bits and the flit-simulated cycles of every iteration
/// class. fc6's sets are long enough for the mesh's steady-state jump; its
/// row was recorded with a simulator that stepped every cycle. A speed-only
/// change to `crates/noc` must leave them alone.
#[test]
fn noc_simulated_cycles_are_pinned() {
    use cosa_repro::serve::SERVE_RANDOM_SEED;

    let pinned: [(&str, u64, &[u64]); 8] = [
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
        (
            "1_1_9216_4096_1",
            0x4156845b80000000,
            &[1180238, 1180617, 1179845, 1181194, 1180422],
        ),
    ];
    let arch = Arch::simba_baseline();
    let random = RandomMapper::new(SERVE_RANDOM_SEED).with_limits(SearchLimits::quick());
    let noc = NocSimulator::new(&arch);
    let smallest = Suite::ALL.into_iter().map(|suite| {
        suite
            .workload()
            .layers
            .into_iter()
            .min_by_key(Layer::macs)
            .expect("suites are non-empty")
    });
    // One full-scale verdict: AlexNet fc6, whose transfer sets run to
    // ≈ 1.2 M flits each.
    let fc6 = workloads::find_layer("1_1_9216_4096_1").expect("layer");
    let mut moved = Vec::new();
    for (layer, (name, total_bits, noc_cycles)) in smallest.chain([fc6]).zip(pinned) {
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

/// The NoC simulator's numbers on every unique suite shape, scheduled as
/// the daemon's `"random"` (and `baseline_eval_sweep`) schedules them: one
/// digest over each shape's layer-latency bits and the flit-simulated
/// cycles of every iteration class, shapes in suite order. This is all the
/// traffic the sweep simulates; it was recorded with the simulator that
/// anchored its steady-state jumps on one snapshot. A speed-only change to
/// `crates/noc` must leave it alone.
#[test]
fn noc_suite_shapes_are_pinned() {
    use cosa_repro::serve::SERVE_RANDOM_SEED;

    let arch = Arch::simba_baseline();
    let random = RandomMapper::new(SERVE_RANDOM_SEED).with_limits(SearchLimits::quick());
    let noc = NocSimulator::new(&arch);
    let (mut simulated, mut bytes) = (0, Vec::new());
    for suite in Suite::ALL {
        // Per suite, as the sweep's fresh engine per suite simulates them.
        let mut shapes = std::collections::HashSet::new();
        for entry in Network::from_suite(suite).layers {
            if !shapes.insert(entry.layer.clone()) {
                continue;
            }
            simulated += 1;
            let schedule = Scheduler::schedule(&random, &arch, &entry.layer)
                .expect("random finds a schedule")
                .schedule;
            let report = noc
                .simulate(&entry.layer, &schedule)
                .expect("valid schedule");
            bytes.extend(report.total_cycles.to_bits().to_le_bytes());
            bytes.extend((report.types.len() as u64).to_le_bytes());
            for t in &report.types {
                bytes.extend(t.noc_cycles.to_le_bytes());
            }
        }
    }
    assert_eq!(
        (simulated, digest128_hex(&bytes).as_str()),
        (109, "5e3e4c803795caec85be8daaba88857f")
    );
}

/// A daemon-style `"random"` engine answer for a whole suite, volatile
/// parts zeroed.
fn suite_response(
    engine: &Engine,
    suite: Suite,
    interlayer: &InterlayerOptions,
) -> ScheduleResponse {
    let random = scheduler_from_name("random", engine.arch()).expect("registry scheduler");
    let run =
        engine.schedule_network_with(&Network::from_suite(suite), random.as_ref(), interlayer);
    ScheduleResponse::from_report(run.report).without_timings()
}

/// A `CacheEntry` exactly as the persistent store writes it (NoC verdict,
/// backend and DRAM profile filled in), wall-clock zeroed.
fn stored_entry(arch: &Arch) -> CacheEntry {
    let dir = common::scratch_dir("cosa-byte-pin", "store");
    let engine = Engine::new(arch.clone())
        .with_noc()
        .with_cache_dir(&dir)
        .expect("cache dir");
    let random = scheduler_from_name("random", arch).expect("registry scheduler");
    let layer = Layer::parse_paper_name("3_7_1_576_2").expect("paper name");
    engine
        .schedule_layer(random.as_ref(), &layer)
        .expect("random schedules");
    let key = engine.cache_key(random.as_ref(), &layer);
    let mut entry = engine
        .store()
        .expect("store attached")
        .load_entry(&key)
        .expect("entry persisted");
    entry.scheduled.elapsed = Duration::ZERO;
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
    entry
}

/// Every escaping and number-formatting case of the JSON writer in one
/// tree.
fn awkward_value() -> Value {
    let text = |s: &str| Value::Str(s.to_string());
    Value::Map(vec![
        (
            "strings".to_string(),
            Value::Seq(vec![
                text("quote \" and backslash \\"),
                text("control \u{1} \u{8} \u{c} \u{1f} \n \r \t end"),
                text("non-ASCII: é ß → 😀 日本"),
                text(""),
            ]),
        ),
        ("ke\"y\u{1}".to_string(), Value::Null),
        (
            "floats".to_string(),
            Value::Seq(
                [
                    3.0,
                    -2.0,
                    -0.0,
                    0.0,
                    0.1,
                    -1.5e-7,
                    1e-300,
                    5e-324,
                    1e300,
                    -1e300,
                    123_456_789_012_345.0,
                    999_999_999_999_999.0,
                    1e15,
                    -1e15,
                    2.5e16,
                    f64::MAX,
                    f64::MIN_POSITIVE,
                ]
                .into_iter()
                .map(Value::F64)
                .collect(),
            ),
        ),
        (
            "integers".to_string(),
            Value::Seq(vec![
                Value::U64(0),
                Value::U64(u64::MAX),
                Value::I64(-1),
                Value::I64(i64::MIN),
            ]),
        ),
        (
            "bools".to_string(),
            Value::Seq(vec![Value::Bool(true), Value::Bool(false)]),
        ),
        ("empty_map".to_string(), Value::Map(Vec::new())),
        ("empty_seq".to_string(), Value::Seq(Vec::new())),
        (
            "nested".to_string(),
            Value::Seq(vec![
                Value::Map(Vec::new()),
                Value::Seq(vec![Value::Seq(Vec::new())]),
                Value::Map(vec![("x".to_string(), Value::Map(Vec::new()))]),
            ]),
        ),
    ])
}

/// `value`'s compact and pretty JSON as a pin-table row: `(name, compact
/// length, compact digest, pretty length, pretty digest)`.
fn json_row<T: serde::Serialize>(name: &str, value: &T) -> String {
    let compact = serde_json::to_string(value).expect("serializes");
    let pretty = serde_json::to_string_pretty(value).expect("serializes");
    format!(
        "(\"{name}\", {}, \"{}\", {}, \"{}\"),",
        compact.len(),
        digest128_hex(compact.as_bytes()),
        pretty.len(),
        digest128_hex(pretty.as_bytes())
    )
}

/// The JSON writer's bytes, compact and pretty, for every type that reaches
/// the wire, the store or a cache key (rows as [`json_row`]). Recorded before the writer was
/// rewritten to stream without a `Value` tree; any change to field order,
/// escaping or number formatting moves a row.
#[test]
fn json_bytes_are_pinned() {
    let pinned: [(&str, usize, &str, usize, &str); 11] = [
        (
            "AlexNet",
            9765,
            "58c2f7dffce65322bc037fa1fbd648ab",
            32137,
            "9172d4cd520c041a15aca9a8c2150eb7",
        ),
        (
            "ResNet-50",
            37321,
            "8330a22c6bdf66b2d718a86d913b333b",
            126718,
            "67c52b4d94cd9f1602132b93ebe0ca21",
        ),
        (
            "MobileNetV2",
            39146,
            "bb48b05edde377d0339dcb54405c98ff",
            130878,
            "a9bb2887023c5d6658b2db919a3ec19d",
        ),
        (
            "GPT-mini",
            47113,
            "83a87e845d5ac9d963c59c59ef44adb4",
            161809,
            "8f4bc46bf2ee629d2d467c0f34048a2c",
        ),
        (
            "gpt_mini+noc+interlayer",
            56953,
            "f4664b4fe6f78b52e662a9c2b64bb3b7",
            178260,
            "3eee15fc915998c8c73d75093700a0f3",
        ),
        (
            "layer_response",
            1099,
            "218fa966b9e8f71ab6c664c54f0d0a23",
            2961,
            "d35dad0d3022d31c462302cba4472831",
        ),
        (
            "cache_entry",
            983,
            "00192fbac8c718ace1397c7c9c3b73f9",
            2311,
            "188ac9010251e0d2e4519f21086e484b",
        ),
        (
            "stats_response",
            509,
            "721c8574d53a51e95c730906d9b15548",
            716,
            "b313224697b33ac559d567b310f02ba2",
        ),
        (
            "request_with_interlayer",
            5631,
            "d20e34013c8b2ab3c5075ff26372ceca",
            13985,
            "1d2ee4d9f469b68783029ba5bf25e05e",
        ),
        (
            "simba_baseline",
            944,
            "40fd6bcb16760c4bca54c13ee11a370c",
            1555,
            "fc0014d8ecb97979a8a2a63dc910badc",
        ),
        (
            "awkward_value",
            2294,
            "ba6d7f3268db9a40956d5b3e3a7a04eb",
            2517,
            "7a2d0c73f29d0ffc612e45b2ba91662d",
        ),
    ];
    let arch = Arch::simba_baseline();
    let engine = Engine::new(arch.clone()).with_threads(1);
    let random = scheduler_from_name("random", &arch).expect("registry scheduler");
    let off = InterlayerOptions::disabled();

    let mut got: Vec<String> = [
        Suite::AlexNet,
        Suite::ResNet50,
        Suite::MobileNetV2,
        Suite::GptMini,
    ]
    .into_iter()
    .map(|suite| json_row(suite.name(), &suite_response(&engine, suite, &off)))
    .collect();
    // The hand-written `NetworkReport` writer with its optional sections
    // present: NoC totals and the inter-layer report.
    let noc_engine = Engine::new(arch.clone()).with_threads(1).with_noc();
    let interlayer = InterlayerOptions::enabled();
    got.push(json_row(
        "gpt_mini+noc+interlayer",
        &suite_response(&noc_engine, Suite::GptMini, &interlayer),
    ));
    let layer = workloads::find_layer("3_13_384_256_1").expect("layer");
    let scheduled = engine
        .schedule_layer(random.as_ref(), &layer)
        .expect("random schedules");
    got.push(json_row(
        "layer_response",
        &ScheduleResponse::from_scheduled(scheduled).without_timings(),
    ));
    got.push(json_row("cache_entry", &stored_entry(&arch)));
    let stats = StatsResponse {
        served: 12,
        errors: 1,
        queue_capacity: 64,
        workers: 2,
        engines: 1,
        p50_micros: 144,
        p99_micros: 1329,
        cache: CacheStats {
            hits: 7,
            misses: 3,
            entries: 3,
            bytes: 4096,
            backend_wins: vec![BackendWin {
                backend: "cosa".to_string(),
                wins: 3,
                win_micros: 123_456,
            }],
            ..CacheStats::default()
        },
        ..StatsResponse::default()
    };
    got.push(json_row("stats_response", &stats));
    let request = ScheduleRequest::for_network(Network::from_suite(Suite::GptMini))
        .with_scheduler("portfolio")
        .with_arch(arch.clone())
        .with_interlayer(InterlayerOptions::enabled().with_budget_bytes(65_536));
    got.push(json_row("request_with_interlayer", &request));
    got.push(json_row("simba_baseline", &arch));
    got.push(json_row("awkward_value", &awkward_value()));

    let want: Vec<String> = pinned
        .iter()
        .map(|(name, clen, cdig, plen, pdig)| {
            format!("(\"{name}\", {clen}, \"{cdig}\", {plen}, \"{pdig}\"),")
        })
        .collect();
    assert_eq!(
        want,
        got,
        "JSON bytes moved; current rows:\n{}",
        got.join("\n")
    );

    // JSON has no spelling for a non-finite number, at any depth.
    assert!(serde_json::to_string(&f64::NAN).is_err());
    assert!(serde_json::to_string_pretty(&f64::INFINITY).is_err());
    let nested = Value::Map(vec![(
        "x".to_string(),
        Value::Seq(vec![Value::F64(f64::NAN)]),
    )]);
    assert!(serde_json::to_string(&nested).is_err());
    assert!(serde_json::to_string_pretty(&nested).is_err());
}
