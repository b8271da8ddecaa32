//! Dissect a schedule's on-chip traffic with the NoC simulator: iteration
//! classes, their transfer sets, and where the cycles go. Contrasts a
//! CoSA schedule against naive DRAM streaming. The CoSA solve is
//! node-bounded, so the output is the same on every machine.
//!
//! Run with: `cargo run --release --example noc_trace`

use cosa_repro::prelude::*;
use cosa_repro::serve::SERVE_COSA_NODE_LIMIT;
use cosa_repro::spec::Dim;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let arch = Arch::simba_baseline();
    let layer = Layer::parse_paper_name("3_14_256_256_1")?;
    let sim = NocSimulator::new(&arch);

    // Schedule A: everything streamed from DRAM, sequential.
    let mut naive = Schedule::new(arch.num_levels());
    for d in Dim::ALL {
        for p in layer.prime_factors(d) {
            naive.push(arch.dram_level(), Loop::temporal(d, p));
        }
    }
    // Schedule B: CoSA, at the serving node limit.
    let cosa = CosaScheduler::new(&arch)
        .with_deterministic_limits(SERVE_COSA_NODE_LIMIT)
        .schedule(&layer)?
        .schedule;

    for (name, schedule) in [("naive DRAM streaming", &naive), ("CoSA", &cosa)] {
        let report = sim.simulate(&layer, schedule)?;
        println!("== {name}");
        println!(
            "  total {:>13.0} cycles | compute {:>12} | dram stream {:>12.0} | PEs {}",
            report.total_cycles, report.compute_cycles, report.dram_cycles, report.pes_used
        );
        println!("  iteration classes (count x transfer set -> cycles):");
        for t in report.types.iter().take(8) {
            let tensors: Vec<&str> = cosa_repro::spec::DataTensor::ALL
                .iter()
                .filter(|v| t.resend[v.index()])
                .map(|v| v.short_name())
                .collect();
            println!(
                "    {:>12.0} x [{}] -> {} NoC cycles, {:.0} DRAM cycles",
                t.count,
                tensors.join("+"),
                t.noc_cycles,
                t.dram_cycles
            );
        }
        if report.types.len() > 8 {
            println!("    ... {} more classes", report.types.len() - 8);
        }
    }
    Ok(())
}
