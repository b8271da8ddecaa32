//! End-to-end integration: CoSA schedules real paper layers on real
//! architectures; both evaluation platforms agree on sanity invariants.

use cosa_repro::prelude::*;
use cosa_repro::serve::SERVE_COSA_NODE_LIMIT;
use cosa_repro::spec::workloads;

fn naive_schedule(layer: &Layer, arch: &Arch) -> Schedule {
    let mut s = Schedule::new(arch.num_levels());
    for d in cosa_repro::spec::Dim::ALL {
        for p in layer.prime_factors(d) {
            s.push(arch.dram_level(), Loop::temporal(d, p));
        }
    }
    s
}

#[test]
fn cosa_schedules_sample_paper_layers_validly() {
    let arch = Arch::simba_baseline();
    let scheduler = CosaScheduler::new(&arch).with_deterministic_limits(SERVE_COSA_NODE_LIMIT);
    // One layer from each suite, spanning convs, grouped convs and FCs.
    for name in [
        "5_27_64_192_1",
        "1_28_512_128_1",
        "3_28_8_256_1",
        "3_60_64_128_1",
    ] {
        let layer = workloads::find_layer(name).expect("paper layer");
        let result = scheduler.schedule(&layer).expect("schedules in one shot");
        result
            .schedule
            .validate(&layer, &arch)
            .expect("valid schedule");
    }
}

#[test]
fn cosa_beats_naive_on_both_platforms() {
    let arch = Arch::simba_baseline();
    let layer = workloads::find_layer("3_14_256_256_1").expect("resnet layer");
    let cosa = CosaScheduler::new(&arch)
        .with_deterministic_limits(SERVE_COSA_NODE_LIMIT)
        .schedule(&layer)
        .expect("schedules")
        .schedule;
    let naive = naive_schedule(&layer, &arch);

    let model = CostModel::new(&arch);
    let m_cosa = model.evaluate(&layer, &cosa).unwrap().latency_cycles;
    let m_naive = model.evaluate(&layer, &naive).unwrap().latency_cycles;
    assert!(
        m_cosa * 4.0 < m_naive,
        "model: cosa {m_cosa} vs naive {m_naive}"
    );

    let sim = NocSimulator::new(&arch);
    let n_cosa = sim.simulate(&layer, &cosa).unwrap().total_cycles;
    let n_naive = sim.simulate(&layer, &naive).unwrap().total_cycles;
    assert!(
        n_cosa * 4.0 < n_naive,
        "noc: cosa {n_cosa} vs naive {n_naive}"
    );
}

#[test]
fn platforms_agree_on_compute_bound() {
    // Both platforms must report latency >= the sequential compute bound
    // divided by available parallelism... at minimum, >= temporal product.
    let arch = Arch::simba_baseline();
    let layer = workloads::find_layer("3_54_64_64_1").expect("deepbench layer");
    let schedule = CosaScheduler::new(&arch)
        .with_deterministic_limits(SERVE_COSA_NODE_LIMIT)
        .schedule(&layer)
        .expect("ok")
        .schedule;
    let compute = schedule.temporal_product() as f64;
    let m = CostModel::new(&arch)
        .evaluate(&layer, &schedule)
        .unwrap()
        .latency_cycles;
    let n = NocSimulator::new(&arch)
        .simulate(&layer, &schedule)
        .unwrap()
        .total_cycles;
    assert!(m >= compute * 0.999, "model {m} < compute {compute}");
    assert!(n >= compute * 0.999, "noc {n} < compute {compute}");
}

#[test]
fn architecture_variants_scale_sensibly() {
    // Fig. 9 sanity: 4x the PEs with 2x bandwidth should not be slower.
    let layer = workloads::find_layer("3_13_192_384_1").expect("alexnet layer");
    let base = Arch::simba_baseline();
    let big = Arch::simba_8x8();
    let model_base = CostModel::new(&base);
    let model_big = CostModel::new(&big);
    let s_base = CosaScheduler::new(&base)
        .with_deterministic_limits(SERVE_COSA_NODE_LIMIT)
        .schedule(&layer)
        .expect("ok")
        .schedule;
    let s_big = CosaScheduler::new(&big)
        .with_deterministic_limits(SERVE_COSA_NODE_LIMIT)
        .schedule(&layer)
        .expect("ok")
        .schedule;
    let l_base = model_base.evaluate(&layer, &s_base).unwrap().latency_cycles;
    let l_big = model_big.evaluate(&layer, &s_big).unwrap().latency_cycles;
    assert!(
        l_big <= l_base * 1.05,
        "8x8 ({l_big}) should not lose to 4x4 ({l_base})"
    );
}

#[test]
fn gpu_pipeline_end_to_end() {
    use cosa_repro::gpu::{k80, TunerConfig, TvmTuner};
    let gpu = k80();
    let layer = workloads::find_layer("1_14_256_1024_1").expect("resnet layer");
    let cosa = CosaScheduler::new(&gpu)
        .with_deterministic_limits(SERVE_COSA_NODE_LIMIT)
        .schedule(&layer)
        .expect("cosa on gpu");
    assert!(cosa.schedule.is_valid(&layer, &gpu));
    let tvm = TvmTuner::new(TunerConfig {
        trials: 15,
        pool: 128,
        ..Default::default()
    })
    .tune(&gpu, &layer);
    assert!(tvm.best.is_some(), "tuner finds something");
}
