//! Integration tests for the unified `Scheduler` trait and the batch
//! `Engine`: trait-object usage, cache-hit determinism, single-flight
//! solve deduplication under a thread storm, and `NetworkReport` serde
//! round-trips.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use cosa_repro::prelude::*;

/// CoSA with a small node-count budget: fast enough for tests and — unlike
/// the default wall-clock budget — bit-reproducible even when it binds.
fn quick_cosa(arch: &Arch) -> CosaScheduler {
    let opts = cosa_repro::milp::SolveOptions {
        gap_tol: 0.1,
        ..Default::default()
    };
    CosaScheduler::new(arch)
        .with_solve_options(opts)
        .with_deterministic_limits(200)
}

/// A small network with repeated shapes (the cache-hit substrate).
fn tiny_network() -> Network {
    let a = Layer::conv("block_a", 3, 3, 8, 8, 16, 16, 1, 1, 1);
    let b = Layer::conv("block_b", 1, 1, 8, 8, 16, 32, 1, 1, 1);
    Network::new("tiny-resnet")
        .with_layer("stem", a.clone(), 1)
        .with_layer("stage1", b.clone(), 2)
        .with_layer("stage2", a, 1)
        .with_layer("stage3", b, 3)
}

#[test]
fn trait_objects_schedule_one_layer() {
    let arch = Arch::simba_baseline();
    let layer = Layer::conv("t", 3, 3, 8, 8, 16, 16, 1, 1, 1);
    let schedulers: Vec<Box<dyn Scheduler>> = vec![
        Box::new(RandomMapper::new(42).with_limits(SearchLimits::quick())),
        Box::new(HybridMapper::new(HybridConfig::quick())),
        Box::new(quick_cosa(&arch)),
    ];
    let mut names = Vec::new();
    for s in &schedulers {
        let out = s.schedule(&arch, &layer).expect("schedulable layer");
        assert_eq!(out.scheduler, s.name());
        assert_eq!(out.layer, layer.name());
        assert!(
            out.schedule.is_valid(&layer, &arch),
            "{} schedule invalid",
            s.name()
        );
        assert!(out.latency_cycles.is_finite() && out.latency_cycles > 0.0);
        assert!(out.energy_pj > 0.0);
        names.push(s.name().to_string());
    }
    names.sort();
    assert_eq!(names, ["cosa", "hybrid", "random"]);
}

#[test]
fn engine_runs_are_cached_and_byte_identical() {
    let arch = Arch::simba_baseline();
    let cosa = quick_cosa(&arch);
    let engine = Engine::new(arch);
    let network = tiny_network();

    let first = engine.schedule_network(&network, &cosa);
    assert!(first.report.is_complete());
    // Repeated shapes resolve without fresh solves even on a cold cache.
    assert!(first.cache_hits >= 1, "repeated shapes must hit");
    assert_eq!(first.cache_misses, 2, "two unique shapes");

    let second = engine.schedule_network(&network, &cosa);
    assert_eq!(second.cache_misses, 0, "warm run re-solves nothing");
    assert_eq!(second.cache_hits, network.layers.len() as u64);

    // Cached results are returned verbatim, so the per-layer reports match
    // exactly; the canonical form (cache counters stripped) is
    // byte-identical.
    assert_eq!(second.report.layers, first.report.layers);
    let a = serde_json::to_string(&first.report.without_timings()).expect("serializes");
    let b = serde_json::to_string(&second.report.without_timings()).expect("serializes");
    assert_eq!(a, b, "two engine runs must be canonically byte-identical");
}

#[test]
fn thread_count_does_not_change_results() {
    let arch = Arch::simba_baseline();
    let cosa = quick_cosa(&arch);
    let network = tiny_network();
    let single = Engine::new(arch.clone())
        .with_threads(1)
        .schedule_network(&network, &cosa);
    let multi = Engine::new(arch)
        .with_threads(8)
        .schedule_network(&network, &cosa);
    assert_eq!(
        serde_json::to_string(&single.report.without_timings()).unwrap(),
        serde_json::to_string(&multi.report.without_timings()).unwrap(),
        "fan-out must not change schedules or totals"
    );
}

#[test]
fn network_report_serde_round_trip() {
    let arch = Arch::simba_baseline();
    let mapper = RandomMapper::new(3).with_limits(SearchLimits::quick());
    let engine = Engine::new(arch);
    let run = engine.schedule_network(&tiny_network(), &mapper);

    let json = serde_json::to_string(&run.report).expect("serializes");
    let back: NetworkReport = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(back, run.report);
    // Canonical output: re-serialization is byte-identical.
    assert_eq!(serde_json::to_string(&back).unwrap(), json);

    let pretty = serde_json::to_string_pretty(&run.report).expect("serializes");
    let back_pretty: NetworkReport = serde_json::from_str(&pretty).expect("deserializes");
    assert_eq!(back_pretty, run.report);
}

#[test]
fn resnet50_stage_cosa_engine_acceptance() {
    // The acceptance probe in miniature: CoSA over the ResNet-50 network
    // (first residual stage for test speed — the full network runs in
    // `engine_probe`), with at least one cache hit, deterministic across
    // runs, and a valid schedule for every entry.
    let arch = Arch::simba_baseline();
    let cosa = quick_cosa(&arch);
    let mut network = Network::from_suite(Suite::ResNet50);
    network.layers.truncate(8); // conv1 + the full conv2 stage
    assert!(network.unique_shapes() < network.layers.len());

    let engine = Engine::new(arch.clone()).with_threads(4);
    let run = engine.schedule_network(&network, &cosa);
    assert!(run.report.is_complete(), "CoSA schedules every layer");
    assert!(run.cache_hits >= 1, "conv2 repeats shapes");
    for layer_report in &run.report.layers {
        let scheduled = layer_report.scheduled.as_ref().expect("complete");
        let layer = cosa_repro::spec::Layer::parse_paper_name(&layer_report.layer)
            .expect("paper-named layer");
        assert!(
            scheduled.schedule.is_valid(&layer, &arch),
            "{}",
            layer_report.name
        );
    }
    // Whole-network totals weight the repeated entries.
    assert!(run.report.total_latency_cycles > 0.0);
    assert_eq!(run.report.total_macs, network.total_macs());

    let again = engine.schedule_network(&network, &cosa);
    assert_eq!(
        serde_json::to_string(&run.report.without_timings()).unwrap(),
        serde_json::to_string(&again.report.without_timings()).unwrap(),
        "deterministic across runs"
    );
}

/// A scheduler whose solve blocks until the test releases it, so a solve
/// can be *held in flight* while follower threads pile up — the storm
/// below is deterministic instead of racing the solver's wall-clock.
struct GatedScheduler {
    inner: RandomMapper,
    gate: Arc<(Mutex<bool>, Condvar)>,
}

impl Scheduler for GatedScheduler {
    fn name(&self) -> &str {
        "gated"
    }

    fn fingerprint(&self) -> String {
        format!("gated:{}", Scheduler::fingerprint(&self.inner))
    }

    fn schedule(&self, arch: &Arch, layer: &Layer) -> Result<Scheduled, ScheduleError> {
        let (open, released) = &*self.gate;
        let mut open = open.lock().expect("gate lock");
        while !*open {
            open = released.wait(open).expect("gate lock");
        }
        drop(open);
        Scheduler::schedule(&self.inner, arch, layer)
    }
}

#[test]
fn thread_storm_single_flights_one_cold_solve() {
    // 16 threads request the same cold digest through one engine: exactly
    // one runs the solver (misses == 1), the other 15 wait on the flight
    // (dedup_waits == 15), and all 16 results are byte-identical.
    let engine = Engine::new(Arch::simba_baseline());
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let scheduler = GatedScheduler {
        inner: RandomMapper::new(17).with_limits(SearchLimits::quick()),
        gate: gate.clone(),
    };
    let layer = Layer::conv("storm", 3, 3, 8, 8, 16, 16, 1, 1, 1);

    let results: Vec<Scheduled> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..16)
            .map(|_| {
                let (engine, scheduler, layer) = (&engine, &scheduler, &layer);
                scope.spawn(move || engine.schedule_layer(scheduler, layer).expect("valid"))
            })
            .collect();
        // Hold the leader inside the solver until every follower has
        // parked on the flight, so the dedup count is exact by design.
        let deadline = Instant::now() + Duration::from_secs(60);
        while engine.cache_stats().dedup_waits < 15 {
            assert!(
                Instant::now() < deadline,
                "followers never parked on the in-flight solve: {:?}",
                engine.cache_stats()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let (open, released) = &*gate;
        *open.lock().expect("gate lock") = true;
        released.notify_all();
        workers
            .into_iter()
            .map(|w| w.join().expect("no panic"))
            .collect()
    });

    let stats = engine.cache_stats();
    assert_eq!(stats.misses, 1, "exactly one solver invocation");
    assert_eq!(stats.dedup_waits, 15, "every other thread deduplicated");
    assert_eq!(stats.in_flight_peak, 1, "one digest was in flight");
    assert_eq!(stats.entries, 1, "one cached schedule");
    let first = serde_json::to_string(&results[0]).expect("serializes");
    for (i, result) in results.iter().enumerate().skip(1) {
        assert_eq!(
            serde_json::to_string(result).expect("serializes"),
            first,
            "thread {i} answer diverged from the leader's"
        );
    }

    // The storm's entry is a normal cache entry afterwards.
    let warm = engine.schedule_layer(&scheduler, &layer).expect("valid");
    assert_eq!(serde_json::to_string(&warm).expect("serializes"), first);
    assert_eq!(engine.cache_stats().misses, 1, "warm lookup adds no solve");
}

#[test]
fn distinct_configs_do_not_share_cache_entries() {
    let arch = Arch::simba_baseline();
    let layer = Layer::conv("t", 3, 3, 8, 8, 16, 16, 1, 1, 1);
    let engine = Engine::new(arch);
    let a = RandomMapper::new(1).with_limits(SearchLimits::quick());
    let b = RandomMapper::new(2).with_limits(SearchLimits::quick());
    engine.schedule_layer(&a, &layer).expect("valid");
    engine.schedule_layer(&b, &layer).expect("valid");
    assert_eq!(
        engine.cache_stats().entries,
        2,
        "different fingerprints, different keys"
    );
}

#[test]
fn resident_suite_answers_match_solving_calls() {
    // The memory-tier path shares the cache's slots instead of copying
    // them, and copies only each answer's schedule: its canonical answer
    // must equal the solving call's for every suite, with NoC verdicts on
    // and the inter-layer pass off and on.
    use cosa_repro::engine::{Resident, Work};

    let engine = Engine::new(Arch::simba_baseline()).with_noc();
    let random = scheduler_from_name("random", engine.arch()).unwrap();
    let canonical = |report: &NetworkReport| serde_json::to_string(&report.without_timings());
    for suite in Suite::ALL {
        let network = Network::from_suite(suite);
        for interlayer in [InterlayerOptions::disabled(), InterlayerOptions::enabled()] {
            let what = format!("{} (inter-layer {})", suite.name(), interlayer.enabled);
            let solved = engine.schedule_network_with(&network, random.as_ref(), &interlayer);
            assert!(solved.report.is_complete(), "{what}");
            let Some(Resident::Network(resident)) =
                engine.schedule_resident(random.as_ref(), Work::Network(&network, &interlayer))
            else {
                panic!("{what}: every shape is resident after the solving call");
            };
            assert_eq!(resident.cache_misses, 0, "{what}");
            assert_eq!(
                canonical(&resident.report).unwrap(),
                canonical(&solved.report).unwrap(),
                "{what}"
            );
        }
        for entry in &network.layers {
            let Some(Resident::Layer(scheduled)) =
                engine.schedule_resident(random.as_ref(), Work::Layer(&entry.layer))
            else {
                panic!("{}: {} is resident", suite.name(), entry.name);
            };
            assert_eq!(
                Ok(scheduled),
                engine.schedule_layer(random.as_ref(), &entry.layer),
                "{}: {}",
                suite.name(),
                entry.name
            );
        }
    }
}
