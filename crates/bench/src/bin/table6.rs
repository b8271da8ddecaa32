//! **Table VI**: time-to-solution of CoSA vs the Random and Hybrid
//! baselines, averaged over the layers of the four DNN workloads.
//!
//! Paper: CoSA 4.2 s (1 sample, 1 evaluation) vs Random 4.6 s (20 K / 5)
//! vs Hybrid 379.9 s (67 M / 16 K+). Sample/evaluation counts reproduce
//! directly; wall-clock ratios shift with the cost of one model
//! evaluation (see README.md, "Reproducing the paper").

use cosa_bench::{campaign::CampaignConfig, figures, parse_flags, run_campaign, selected_suites};
use cosa_spec::Arch;

fn main() {
    let (quick, suite) = parse_flags();
    let arch = Arch::simba_baseline();
    let cfg = if quick {
        CampaignConfig::quick(&arch)
    } else {
        CampaignConfig::paper(&arch)
    };
    let suites = selected_suites(quick, &suite);
    println!("Table VI — timing campaign on {arch} ...");
    let outcome = run_campaign(&arch, &suites, &cfg);
    figures::table6_report(&outcome);
}
