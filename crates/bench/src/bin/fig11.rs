//! **Fig. 11**: the GPU case study (Sec. V-D) — CoSA retargeted to a
//! K80-like GPU vs a TVM-style iterative tuner (50 trials/layer) on the
//! ResNet-50 layers, both evaluated on the same analytical GPU model.
//!
//! Paper headlines: 1.10× geomean speedup over TVM with a ~2500× shorter
//! time-to-solution (0.02 s vs 50 s per layer; our wall-clock ratio shifts
//! with the model's evaluation cost — see README.md, "Reproducing the
//! paper").

use cosa_bench::{geomean, parse_flags, write_csv};
use cosa_core::{CosaScheduler, ObjectiveWeights};
use cosa_gpu::{k80, TunerConfig, TvmTuner};
use cosa_model::CostModel;
use cosa_spec::workloads;

fn main() {
    let (quick, _) = parse_flags();
    let gpu = k80();
    let model = CostModel::new(&gpu);
    // Sec. V-D: on the GPU the compute objective is "discounted by the
    // total number of threads" and the remaining weights re-adjusted: the
    // K80's bandwidth is plentiful relative to its thread-parallel compute,
    // so compute dominates and traffic is discounted.
    let weights = ObjectiveWeights {
        w_util: 1.0,
        w_comp: 4.0,
        w_traf: 0.5,
    };
    let scheduler = CosaScheduler::with_weights(&gpu, weights);
    let tuner = TvmTuner::new(TunerConfig::default());

    let mut layers = workloads::resnet50().layers;
    if quick {
        layers.truncate(4);
    }

    println!("Fig. 11 — ResNet-50 on {gpu}: CoSA vs TVM-style tuner (50 trials)");
    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    let mut tvm_time = 0.0;
    let mut cosa_time = 0.0;
    for layer in &layers {
        let tvm = tuner.tune(&gpu, layer);
        let cosa = scheduler.schedule(layer);
        let cosa_lat = cosa
            .as_ref()
            .ok()
            .and_then(|r| model.evaluate(layer, &r.schedule).ok())
            .map(|e| e.latency_cycles)
            .unwrap_or(f64::INFINITY);
        let speedup = tvm.best_latency / cosa_lat;
        tvm_time += tvm.elapsed.as_secs_f64();
        cosa_time += cosa
            .as_ref()
            .map(|r| r.solve_time.as_secs_f64())
            .unwrap_or(0.0);
        println!(
            "  {:20} tvm {:>12.0} cyc  cosa {:>12.0} cyc  speedup {speedup:>5.2}x",
            layer.name(),
            tvm.best_latency,
            cosa_lat
        );
        rows.push(format!(
            "{},{:.0},{:.0},{speedup:.4}",
            layer.name(),
            tvm.best_latency,
            cosa_lat
        ));
        speedups.push(speedup);
    }
    let g = geomean(speedups.iter().copied());
    let n = layers.len() as f64;
    println!("\nGEOMEAN speedup vs TVM-style tuner: {g:.2}x (paper: 1.10x)");
    println!(
        "time-to-solution: cosa {:.2}s/layer vs tuner {:.3}s/layer",
        cosa_time / n,
        tvm_time / n
    );
    let path = write_csv(
        "fig11_gpu.csv",
        "layer,tvm_cycles,cosa_cycles,speedup",
        &rows,
    );
    println!("wrote {}", path.display());
}
