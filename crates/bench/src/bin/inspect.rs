//! Print one layer's schedule and the analytical model's view of it
//! (development tool, not a paper experiment).
//!
//! Run with: `cargo run --release -p cosa-bench --bin inspect -- \
//!     <layer-name> [--scheduler cosa|sat|portfolio|random|hybrid]`
//!
//! `<layer-name>` is a suite layer or a paper-style shape name such as
//! `3_7_512_512_1`; schedulers are the serving registry's work-bounded
//! configurations, so a run is reproducible. For `sat` it also prints
//! which proof closed the search and the gap to the MILP root bound.
use cosa_bench::flag_value;
use cosa_model::CostModel;
use cosa_repro::serve::scheduler_from_name;
use cosa_sat::{Proof, SatOutcome, SatScheduler};
use cosa_spec::{workloads, Arch, Layer};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let name = args
        .get(1)
        .filter(|a| !a.starts_with("--"))
        .expect("usage: inspect <layer-name> [--scheduler NAME]");
    let scheduler_name = flag_value(&args, "--scheduler").unwrap_or_else(|| "cosa".into());
    let arch = Arch::simba_baseline();
    let layer = workloads::find_layer(name)
        .or_else(|| Layer::parse_paper_name(name).ok())
        .unwrap_or_else(|| panic!("unknown layer `{name}`"));
    let (backend, schedule, elapsed, proof) = if scheduler_name == "sat" {
        // The registry's `sat` entry, called directly for its proof.
        let out = SatScheduler::new(&arch)
            .schedule(&layer)
            .unwrap_or_else(|e| panic!("{scheduler_name} failed on {name}: {e}"));
        let proof = proof_summary(&out);
        ("sat".to_string(), out.schedule, out.solve_time, Some(proof))
    } else {
        let scheduler =
            scheduler_from_name(&scheduler_name, &arch).unwrap_or_else(|e| panic!("{e}"));
        let scheduled = scheduler
            .schedule(&arch, &layer)
            .unwrap_or_else(|e| panic!("{scheduler_name} failed on {name}: {e}"));
        (
            scheduled.scheduler,
            scheduled.schedule,
            scheduled.elapsed,
            None,
        )
    };
    println!("== {backend} schedule for {name}, solved in {elapsed:.2?}");
    if let Some(proof) = proof {
        println!("{proof}");
    }
    println!("{}", schedule.render(&arch));
    let eval = CostModel::new(&arch)
        .evaluate(&layer, &schedule)
        .expect("a returned schedule evaluates");
    println!(
        "latency {:.0} cycles  energy {:.1} uJ  pe_util {:.2}  mac_util {:.2}",
        eval.latency_cycles,
        eval.energy_pj / 1e6,
        eval.pe_utilization,
        eval.mac_utilization
    );
    for (i, lvl) in arch.levels().iter().enumerate() {
        let bytes = eval.level_traffic[i].total();
        println!(
            "  L{i} {:10} traffic {bytes:>14.0} B  energy {:>10.1} uJ  mem_cycles {:>14.0}",
            lvl.name,
            bytes * lvl.energy_per_byte / 1e6,
            eval.memory_cycles[i]
        );
    }
}

/// How a SAT search closed, and how far its answer sits above the root LP
/// bound of the mirrored MILP when the search computed one.
fn proof_summary(out: &SatOutcome) -> String {
    let proof = match out.proof {
        Some(Proof::Refutation) => "refutation (closing UNSAT)",
        Some(Proof::RootBound) => "MILP root bound",
        None => "none (conflict budget ran out)",
    };
    let root = match out.root_bound {
        Some(root) => format!("{root:.12}, gap {:.3e}", out.objective - root),
        None => "not computed (short search)".to_string(),
    };
    format!(
        "objective {:.12}  proof: {proof}  conflicts {}\nroot LP bound {root}",
        out.objective, out.stats.conflicts
    )
}
