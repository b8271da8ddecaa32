//! Aggregation + printing for the campaign-based figures (6, 7, 9, 10) and
//! Table VI.

use crate::campaign::SuiteOutcome;
use crate::report::{geomean, write_csv};

/// Per-layer speedups relative to Random on the analytical model — Fig. 6
/// (or Fig. 9 when run on a variant architecture). Returns
/// `(hybrid geomean, cosa geomean)` speedups.
pub fn fig6_report(suites: &[SuiteOutcome], csv_name: &str) -> (f64, f64) {
    println!("\nper-layer speedup over Random (analytical model):");
    let mut rows = Vec::new();
    let mut all_h = Vec::new();
    let mut all_c = Vec::new();
    for suite in suites {
        println!("== {}", suite.name);
        let mut sh = Vec::new();
        let mut sc = Vec::new();
        for lo in &suite.layers {
            let h = lo.random.model_latency / lo.hybrid.model_latency;
            let c = lo.random.model_latency / lo.cosa.model_latency;
            println!(
                "  {:20} random 1.00x  hybrid {h:>6.2}x  cosa {c:>6.2}x",
                lo.layer.name()
            );
            rows.push(format!("{},{},{h:.4},{c:.4}", suite.name, lo.layer.name()));
            sh.push(h);
            sc.push(c);
            all_h.push(h);
            all_c.push(c);
        }
        println!(
            "  GEOMEAN: hybrid {:.2}x  cosa {:.2}x",
            geomean(sh.iter().copied()),
            geomean(sc.iter().copied())
        );
    }
    let gh = geomean(all_h.iter().copied());
    let gc = geomean(all_c.iter().copied());
    println!("\nOVERALL geomean speedup vs Random: hybrid {gh:.2}x, cosa {gc:.2}x");
    println!("(paper Fig. 6: hybrid 3.5x, cosa 5.2x; cosa/hybrid 1.5x)");
    write_csv(csv_name, "suite,layer,hybrid_speedup,cosa_speedup", &rows);
    (gh, gc)
}

/// Energy improvement relative to Random — Fig. 7. Returns
/// `(hybrid geomean, cosa geomean)`.
pub fn fig7_report(suites: &[SuiteOutcome]) -> (f64, f64) {
    println!("\nenergy improvement over Random (analytical energy model):");
    let mut rows = Vec::new();
    let mut all_h = Vec::new();
    let mut all_c = Vec::new();
    for suite in suites {
        let h = geomean(
            suite
                .layers
                .iter()
                .map(|lo| lo.random.model_energy / lo.hybrid.model_energy),
        );
        let c = geomean(
            suite
                .layers
                .iter()
                .map(|lo| lo.random.model_energy / lo.cosa.model_energy),
        );
        println!("  {:12} hybrid {h:>5.2}x  cosa {c:>5.2}x", suite.name);
        rows.push(format!("{},{h:.4},{c:.4}", suite.name));
        for lo in &suite.layers {
            all_h.push(lo.random.model_energy / lo.hybrid.model_energy);
            all_c.push(lo.random.model_energy / lo.cosa.model_energy);
        }
    }
    let gh = geomean(all_h.iter().copied());
    let gc = geomean(all_c.iter().copied());
    println!("  GEOMEAN: hybrid {gh:.2}x, cosa {gc:.2}x (paper: 2.7x / 3.3x)");
    write_csv(
        "fig7_energy.csv",
        "suite,hybrid_improvement,cosa_improvement",
        &rows,
    );
    (gh, gc)
}

/// Per-layer speedups relative to Random on the NoC simulator — Fig. 10.
/// Returns `(hybrid geomean, cosa geomean)`.
pub fn fig10_report(suites: &[SuiteOutcome]) -> (f64, f64) {
    println!("\nper-layer speedup over Random (cycle-level NoC simulator):");
    let mut rows = Vec::new();
    let mut all_h = Vec::new();
    let mut all_c = Vec::new();
    for suite in suites {
        println!("== {}", suite.name);
        let mut sh = Vec::new();
        let mut sc = Vec::new();
        for lo in &suite.layers {
            let (Some(r), Some(h), Some(c)) = (
                lo.random.noc_latency,
                lo.hybrid.noc_latency,
                lo.cosa.noc_latency,
            ) else {
                continue;
            };
            let h = r / h;
            let c = r / c;
            println!(
                "  {:20} random 1.00x  hybrid {h:>6.2}x  cosa {c:>6.2}x",
                lo.layer.name()
            );
            rows.push(format!("{},{},{h:.4},{c:.4}", suite.name, lo.layer.name()));
            sh.push(h);
            sc.push(c);
            all_h.push(h);
            all_c.push(c);
        }
        println!(
            "  GEOMEAN: hybrid {:.2}x  cosa {:.2}x",
            geomean(sh.iter().copied()),
            geomean(sc.iter().copied())
        );
    }
    let gh = geomean(all_h.iter().copied());
    let gc = geomean(all_c.iter().copied());
    println!("\nOVERALL geomean speedup vs Random (NoC): hybrid {gh:.2}x, cosa {gc:.2}x");
    println!("(paper Fig. 10: hybrid 1.3x, cosa 3.3x; cosa/hybrid 2.5x)");
    write_csv(
        "fig10_noc_speedup.csv",
        "suite,layer,hybrid_speedup,cosa_speedup",
        &rows,
    );
    (gh, gc)
}

/// Time-to-solution comparison — Table VI.
pub fn table6_report(suites: &[SuiteOutcome]) {
    let mut n = 0usize;
    let mut t = [0.0f64; 3]; // random, hybrid, cosa seconds
    let mut samples = [0.0f64; 3];
    let mut evals = [0.0f64; 3];
    for suite in suites {
        for lo in &suite.layers {
            n += 1;
            for (i, s) in [&lo.random, &lo.hybrid, &lo.cosa].iter().enumerate() {
                t[i] += s.time.as_secs_f64();
                samples[i] += s.samples as f64;
                evals[i] += s.evaluations as f64;
            }
        }
    }
    let n = n.max(1) as f64;
    println!("\nTable VI — time-to-solution (averages per layer over {n} layers)");
    println!("{:28} {:>12} {:>12} {:>12}", "", "CoSA", "Random", "Hybrid");
    println!(
        "{:28} {:>11.2}s {:>11.2}s {:>11.2}s",
        "Avg. runtime / layer",
        t[2] / n,
        t[0] / n,
        t[1] / n
    );
    println!(
        "{:28} {:>12.0} {:>12.0} {:>12.0}",
        "Avg. samples / layer",
        samples[2] / n,
        samples[0] / n,
        samples[1] / n
    );
    println!(
        "{:28} {:>12.0} {:>12.0} {:>12.0}",
        "Avg. evaluations / layer",
        evals[2] / n,
        evals[0] / n,
        evals[1] / n
    );
    println!("(paper: CoSA 4.2s/1/1, Random 4.6s/20K/5, Hybrid 379.9s/67M/16K+;");
    println!(" wall-clock ratios shift because our analytical model evaluates in");
    println!(" microseconds where Timeloop takes milliseconds — see README.md)");
    let rows = vec![
        format!("runtime_s,{:.4},{:.4},{:.4}", t[2] / n, t[0] / n, t[1] / n),
        format!(
            "samples,{:.1},{:.1},{:.1}",
            samples[2] / n,
            samples[0] / n,
            samples[1] / n
        ),
        format!(
            "evaluations,{:.1},{:.1},{:.1}",
            evals[2] / n,
            evals[0] / n,
            evals[1] / n
        ),
    ];
    write_csv(
        "table6_time_to_solution.csv",
        "metric,cosa,random,hybrid",
        &rows,
    );
}
