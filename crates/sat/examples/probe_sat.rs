use std::time::Instant;

fn run(name: &str, layer: &cosa_spec::Layer) {
    let arch = cosa_spec::Arch::simba_baseline();
    let weights = cosa_core::ObjectiveWeights::default();

    let t = Instant::now();
    let mut program = cosa_sat::SatProgram::build(layer, &arch, weights);
    let out = program.optimize(None, None);
    let sat_t = t.elapsed();
    let sat_obj = match out {
        cosa_sat::encode::OptimizeOutcome::Optimal(a) => a.objective,
        cosa_sat::encode::OptimizeOutcome::Feasible(a) => a.objective,
        _ => f64::NAN,
    };
    let st = program.stats();

    let t = Instant::now();
    let cs = cosa_core::CosaScheduler::new(&arch);
    let milp = cs.schedule(layer);
    let milp_t = t.elapsed();
    let milp_obj = milp.map(|r| r.milp_objective).unwrap_or(f64::NAN);

    println!(
        "{name:28} sat {:>9.3}s obj {sat_obj:>14.9} ({} confl) | milp {:>9.3}s obj {milp_obj:>14.9} | diff {:.2e}",
        sat_t.as_secs_f64(), st.conflicts, milp_t.as_secs_f64(), (sat_obj - milp_obj).abs()
    );
}

fn main() {
    use cosa_spec::Layer;
    let shapes: Vec<(&str, Layer)> = vec![
        ("matmul 16x16x16", Layer::matmul("m0", 16, 16, 16)),
        ("matmul 64x64x64", Layer::matmul("m1", 64, 64, 64)),
        ("matmul 256x128x64", Layer::matmul("m2", 256, 128, 64)),
        (
            "conv 1x1 c16 k16 8x8",
            Layer::conv("c0", 1, 1, 8, 8, 16, 16, 1, 1, 1),
        ),
        (
            "conv 3x3 c16 k16 8x8",
            Layer::conv("c1", 3, 3, 8, 8, 16, 16, 1, 1, 1),
        ),
        (
            "conv 3x3 c64 k64 14x14",
            Layer::conv("c2", 3, 3, 14, 14, 64, 64, 1, 1, 1),
        ),
        (
            "conv 7x7 c3 k64 112x112 s2",
            Layer::conv("c3", 7, 7, 112, 112, 3, 64, 1, 2, 2),
        ),
        (
            "conv 1x1 c256 k512 7x7",
            Layer::conv("c4", 1, 1, 7, 7, 256, 512, 1, 1, 1),
        ),
        ("matmul 128x2048 prime", Layer::matmul("m3", 127, 2048, 31)),
    ];
    let only: Option<usize> = std::env::var("SHAPE").ok().and_then(|s| s.parse().ok());
    for (i, (name, layer)) in shapes.iter().enumerate() {
        if only.is_some_and(|o| o != i) {
            continue;
        }
        run(name, layer);
    }
}
