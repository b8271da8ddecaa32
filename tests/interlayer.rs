//! Integration tests for the inter-layer residency pass: a multi-stage
//! network scheduled with residency must report strictly lower off-chip
//! traffic than the per-layer baseline, byte-identically across runs;
//! budgets bound the occupancy timeline; the chain DP that selects the
//! resident set equals brute force over every edge subset (random chains,
//! AlexNet, ResNeXt-50), matches the saved bytes the replaced 0/1 MILP
//! selector recorded at 35 (suite, budget) points and never loses to the
//! replaced greedy one, and keeps the suites' default-budget resident sets;
//! and the `interlayer` section is purely additive — reports without it
//! still deserialize.

use cosa_repro::engine::{ResidencyChain, ResidencyEdge};
use cosa_repro::prelude::*;
use cosa_repro::serve::SERVE_RANDOM_SEED;
use cosa_repro::spec::InterlayerEdge;

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
    assert_eq!(report.version, 2);
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
    // Every entry's own schedule holds bytes in the buffer, and the
    // overbooking count is exactly the entries whose sum exceeds it.
    assert!(report.occupancy.iter().all(|o| o.schedule_bytes > 0));
    assert_eq!(
        report.overbooked_entries,
        report
            .occupancy
            .iter()
            .filter(|o| o.schedule_bytes + o.peak_bytes > report.budget_bytes)
            .count()
    );
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

/// SplitMix64: a seeded, dependency-free stream for the random chains.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// A random chain of up to `max_edges` candidate edges. Tensor sizes and
/// savings come partly from small sets so that equal-value sets (ties)
/// are common, and some savings are ≤ 0.
fn random_chain(rng: &mut Rng, max_edges: usize) -> (Vec<u64>, ResidencyChain) {
    let entries = 1 + rng.below(10) as usize;
    let counts: Vec<u64> = (0..entries)
        .map(|_| match rng.below(3) {
            0 => 1,
            1 => 2,
            _ => 3 + rng.below(3),
        })
        .collect();
    let mut edges = Vec::new();
    let mut push = |rng: &mut Rng, producer: usize, consumer: usize, multiplicity: u64| {
        if edges.len() == max_edges {
            return;
        }
        let bytes = if rng.chance(50) {
            [64, 128, 192, 256][rng.below(4) as usize]
        } else {
            1 + rng.below(512)
        };
        let saved = if rng.chance(50) {
            [-64.0, 0.0, 100.0, 200.0, 300.0][rng.below(5) as usize]
        } else {
            rng.below(1000) as f64 - 50.0
        };
        edges.push(ResidencyEdge {
            edge: InterlayerEdge {
                producer,
                consumer,
                multiplicity,
                elements: bytes,
            },
            bytes,
            saved,
        });
    };
    for (t, &count) in counts.iter().enumerate() {
        if count > 1 && rng.chance(80) {
            push(rng, t, t, count - 1);
        }
        if t + 1 < entries && rng.chance(80) {
            push(rng, t, t + 1, 1);
        }
    }
    (counts.clone(), ResidencyChain::new(counts, edges))
}

/// Resident bytes held by every instance of every entry, worst case:
/// instance `k` of an entry reads its input from the in-edge (`k = 0`) or
/// the internal edge, and writes its output to the out-edge (the last
/// instance) or the internal edge. Independent of the pass's own rule.
fn worst_instance_bytes(counts: &[u64], edges: &[ResidencyEdge], resident: &[bool]) -> u64 {
    let held = |producer: usize, consumer: usize| {
        edges
            .iter()
            .zip(resident)
            .find(|(e, _)| e.edge.producer == producer && e.edge.consumer == consumer)
            .map_or(0, |(e, &on)| if on { e.bytes } else { 0 })
    };
    let mut worst = 0;
    for (t, &count) in counts.iter().enumerate() {
        for k in 0..count {
            let input = if k == 0 {
                t.checked_sub(1).map_or(0, |p| held(p, t))
            } else {
                held(t, t)
            };
            let output = if k + 1 == count {
                held(t, t + 1)
            } else {
                held(t, t)
            };
            worst = worst.max(input + output);
        }
    }
    worst
}

/// Sum of `saved` over the resident edges, in edge order.
fn saved_by(edges: &[ResidencyEdge], resident: &[bool]) -> f64 {
    edges
        .iter()
        .zip(resident)
        .filter(|(_, &on)| on)
        .map(|(e, _)| e.saved)
        .sum()
}

/// Assert that the DP's set equals brute force over every edge subset at
/// each budget: the most saved bytes among subsets whose edges all save
/// something and whose worst instance fits, ties to the lexicographically
/// smallest resident vector.
fn assert_dp_is_brute_force(counts: &[u64], chain: &ResidencyChain, budgets: &[u64]) {
    let edges = chain.edges();
    assert!(edges.len() <= 16, "brute force over {} edges", edges.len());
    let subsets: Vec<(Vec<bool>, f64, u64)> = (0u32..1 << edges.len())
        .map(|mask| {
            let resident: Vec<bool> = (0..edges.len()).map(|i| mask >> i & 1 == 1).collect();
            let saved = saved_by(edges, &resident);
            (
                resident.clone(),
                saved,
                worst_instance_bytes(counts, edges, &resident),
            )
        })
        .filter(|(resident, _, _)| {
            edges
                .iter()
                .zip(resident)
                .all(|(e, &on)| !on || e.saved > 0.0)
        })
        .collect();
    for &budget in budgets {
        let (want, want_saved, _) = subsets
            .iter()
            .filter(|(_, _, need)| *need <= budget)
            .fold(None::<&(Vec<bool>, f64, u64)>, |best, cand| match best {
                Some(b) if b.1 > cand.1 || (b.1 == cand.1 && b.0 <= cand.0) => Some(b),
                _ => Some(cand),
            })
            .expect("the empty set always fits");
        let got = chain.select(budget);
        assert_eq!(
            saved_by(edges, &got),
            *want_saved,
            "budget {budget}, counts {counts:?}, edges {edges:?}"
        );
        assert_eq!(
            &got, want,
            "tie-break at budget {budget}, counts {counts:?}"
        );
        let occupancy = (0..counts.len())
            .map(|t| chain.peak_bytes(t, &got))
            .max()
            .unwrap_or(0);
        assert_eq!(occupancy, worst_instance_bytes(counts, edges, &got));
    }
}

#[test]
fn chain_dp_equals_brute_force_on_random_chains() {
    let mut rng = Rng(0x5eed_0051);
    let (mut seen_counts, mut widest) = ([false; 3], 0);
    for _ in 0..150 {
        let (counts, chain) = random_chain(&mut rng, 14);
        for &c in &counts {
            seen_counts[(c.min(3) - 1) as usize] = true;
        }
        widest = widest.max(chain.edges().len());
        let total: u64 = chain.edges().iter().map(|e| e.bytes).sum();
        let mut budgets = vec![0, total];
        budgets.extend(chain.edges().iter().map(|e| e.bytes));
        budgets.extend(chain.edges().iter().map(|e| 2 * e.bytes));
        budgets.extend((0..4).map(|_| rng.below(total + 1)));
        assert_dp_is_brute_force(&counts, &chain, &budgets);
    }
    assert_eq!(seen_counts, [true; 3], "counts 1, 2 and ≥ 3 all occur");
    assert_eq!(widest, 14, "some chain reaches 14 edges");
}

/// The benchmark sweep's mapper: seeded random search, quick limits.
fn sweep_mapper() -> RandomMapper {
    RandomMapper::new(SERVE_RANDOM_SEED).with_limits(SearchLimits::quick())
}

/// One suite through the sweep's mapper: a closure from a budget (`None`
/// for the default) to the run's `interlayer` section.
fn suite_sections(suite: Suite) -> (Network, impl Fn(Option<u64>) -> InterlayerReport) {
    let engine = Engine::new(Arch::simba_baseline()).with_threads(1);
    let mapper = sweep_mapper();
    let network = Network::from_suite(suite);
    let net = network.clone();
    let section = move |budget: Option<u64>| {
        let options = match budget {
            Some(bytes) => InterlayerOptions::enabled().with_budget_bytes(bytes),
            None => InterlayerOptions::enabled(),
        };
        let run = engine.schedule_network_with(&net, &mapper, &options);
        assert!(run.report.is_complete(), "{}", suite.name());
        run.report.interlayer.expect("interlayer section")
    };
    (network, section)
}

#[test]
fn chain_dp_equals_brute_force_on_alexnet_and_resnext50() {
    for suite in [Suite::AlexNet, Suite::ResNeXt50] {
        let (network, section) = suite_sections(suite);
        // Under 8 MiB every edge is resident, so each edge report carries
        // its saving.
        let all = section(Some(8 << 20));
        assert!(all.edges.iter().all(|e| e.resident && e.saved_bytes > 0.0));
        let edges: Vec<ResidencyEdge> = network
            .interlayer_edges()
            .into_iter()
            .zip(&all.edges)
            .map(|(edge, report)| ResidencyEdge {
                edge,
                bytes: report.tensor_bytes,
                saved: report.saved_bytes,
            })
            .collect();
        assert_eq!(edges.len(), all.edges.len());
        let counts: Vec<u64> = network.layers.iter().map(|e| e.count).collect();
        let chain = ResidencyChain::new(counts.clone(), edges);
        let total: u64 = chain.edges().iter().map(|e| e.bytes).sum();
        let mut budgets = vec![0, all.budget_bytes / 64, total];
        budgets.extend(chain.edges().iter().map(|e| e.bytes));
        budgets.extend(chain.edges().iter().map(|e| e.bytes / 2 * 3));
        budgets.sort_unstable();
        budgets.dedup();
        assert_dp_is_brute_force(&counts, &chain, &budgets);
        // The engine's pass selects exactly the DP's set.
        for budget in [total / 3, section(None).budget_bytes] {
            let resident: Vec<bool> = section(Some(budget))
                .edges
                .iter()
                .map(|e| e.resident)
                .collect();
            assert_eq!(
                resident,
                chain.select(budget),
                "{} at {budget}",
                suite.name()
            );
        }
    }
}

/// One suite's points: the budgets, the MILP's and greedy's saved bytes.
type Recorded = (Suite, [u64; 5], [f64; 5], [f64; 5]);

/// `saved_offchip_bytes` of the replaced exact 0/1 MILP selector and of
/// the replaced greedy (savings-per-byte) selector, recorded with the
/// sweep's mapper at five budgets per suite: ½ × the largest edge tensor,
/// 1 ×, 2 ×, the default (the GlobalBuf's capacity) and 8 MiB.
const RECORDED: [Recorded; 7] = [
    (
        Suite::AlexNet,
        [32448, 64896, 129792, 131072, 8388608],
        [81920.0, 838016.0, 1526912.0, 1526912.0, 1526912.0],
        [81920.0, 770816.0, 1526912.0, 1526912.0, 1526912.0],
    ),
    (
        Suite::ResNet50,
        [401408, 802816, 1605632, 131072, 8388608],
        [38093184.0, 46823808.0, 50837888.0, 18580480.0, 50837888.0],
        [36920320.0, 46823808.0, 50837888.0, 18580480.0, 50837888.0],
    ),
    (
        Suite::ResNeXt50,
        [401408, 802816, 1605632, 131072, 8388608],
        [24084480.0, 38535168.0, 38535168.0, 4014080.0, 38535168.0],
        [24084480.0, 38535168.0, 38535168.0, 4014080.0, 38535168.0],
    ),
    (
        Suite::DeepBench,
        [0, 0, 0, 131072, 8388608],
        [0.0; 5],
        [0.0; 5],
    ),
    (
        Suite::BertBase,
        [786432, 1572864, 3145728, 131072, 8388608],
        [341704704.0, 352321536.0, 549322752.0, 0.0, 549322752.0],
        [341704704.0, 341704704.0, 549322752.0, 0.0, 549322752.0],
    ),
    (
        Suite::GptMini,
        [131072, 262144, 524288, 131072, 8388608],
        [19464192.0, 19464192.0, 22609920.0, 19464192.0, 22609920.0],
        [19464192.0, 19464192.0, 22609920.0, 19464192.0, 22609920.0],
    ),
    (
        Suite::MobileNetV2,
        [225792, 451584, 903168, 131072, 8388608],
        [5428416.0, 6783168.0, 7736512.0, 4098752.0, 7736512.0],
        [5428416.0, 6783168.0, 7736512.0, 4098752.0, 7736512.0],
    ),
];

#[test]
fn chain_dp_matches_the_recorded_milp_answers() {
    for (suite, budgets, milp, greedy) in RECORDED {
        let (_, section) = suite_sections(suite);
        let probe = section(None);
        let max_tensor = probe
            .edges
            .iter()
            .map(|e| e.tensor_bytes)
            .max()
            .unwrap_or(0);
        assert_eq!(
            budgets,
            [
                max_tensor / 2,
                max_tensor,
                2 * max_tensor,
                probe.budget_bytes,
                8 << 20
            ],
            "{}: the recorded points",
            suite.name()
        );
        for ((budget, milp), greedy) in budgets.into_iter().zip(milp).zip(greedy) {
            let dp = section(Some(budget));
            assert!(
                (dp.saved_offchip_bytes - milp).abs() <= 1e-9 * milp.abs().max(1.0),
                "{} at {budget}: DP saves {}, the MILP saved {milp}",
                suite.name(),
                dp.saved_offchip_bytes
            );
            assert!(
                dp.saved_offchip_bytes >= greedy,
                "{} at {budget}: DP saves {}, greedy saved {greedy}",
                suite.name(),
                dp.saved_offchip_bytes
            );
            assert!(dp.occupancy.iter().all(|o| o.peak_bytes <= budget));
        }
    }
}

#[test]
fn default_budget_keeps_the_suites_resident_sets() {
    // Resident edge indices at the default budget before the DP replaced
    // the greedy and MILP selectors (both chose these sets).
    let recorded: [(Suite, &[usize]); 7] = [
        (Suite::AlexNet, &[0, 1, 2, 3]),
        (
            Suite::ResNet50,
            &[8, 10, 12, 15, 17, 18, 19, 21, 22, 23, 24, 25, 26],
        ),
        (Suite::ResNeXt50, &[8, 10, 12, 13, 14]),
        (Suite::DeepBench, &[]),
        (Suite::BertBase, &[]),
        (
            Suite::GptMini,
            &[0, 1, 3, 4, 5, 7, 8, 9, 11, 12, 13, 15, 16, 17, 19, 20, 21],
        ),
        (
            Suite::MobileNetV2,
            &[
                3, 5, 7, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23,
            ],
        ),
    ];
    let mut offchip = 0.0;
    for (suite, want) in recorded {
        let section = suite_sections(suite).1(None);
        let got: Vec<usize> = (0..section.edges.len())
            .filter(|&i| section.edges[i].resident)
            .collect();
        assert_eq!(got, want, "{}", suite.name());
        offchip += section.offchip_bytes;
    }
    // `baseline_eval_sweep`'s `offchip_bytes`.
    assert_eq!(offchip, 5_400_978_372.0);
}
