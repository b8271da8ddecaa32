//! # cosa-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation (Sec. V). One binary per experiment:
//!
//! | binary | experiment |
//! |---|---|
//! | `fig1` | latency histogram of 40 K valid schedules |
//! | `fig3` | loop-permutation sweep (CKP … PKC) |
//! | `fig4` | spatial/temporal mapping sweep |
//! | `table6` | time-to-solution comparison |
//! | `fig6` | per-layer speedup on the analytical (Timeloop-like) model |
//! | `fig7` | energy improvement |
//! | `fig8` | objective breakdown |
//! | `fig9` | architecture sweeps (8×8 PEs, larger buffers) |
//! | `fig10` | per-layer speedup on the NoC simulator |
//! | `fig11` | GPU case study vs the TVM-style tuner |
//! | `all` | everything above, writing CSVs into `results/` |
//! | `ablation`, `weight_sweep` | formulation ablation and objective-weight sweep |
//! | `engine_probe`, `serve_probe` | acceptance probes for the batch engine and the serving daemon |
//! | `inspect` | one layer's schedule, per-level energy and solve time (dev tool) |
//!
//! Performance is measured by `benchmark/run.sh` (see `BENCHMARK.json`),
//! not by a binary here.
//!
//! The shared [`campaign`] runner schedules every layer of the four DNN
//! suites with all three schedulers (Random, Timeloop-Hybrid-style, CoSA),
//! evaluates them on both platforms and caches the outcome so that the
//! figure binaries only have to aggregate.

#![warn(missing_docs)]

pub mod campaign;
pub mod figures;
pub mod report;

pub use campaign::{run_campaign, CampaignConfig, LayerOutcome, SuiteOutcome};
pub use report::{geomean, write_csv};

/// Parse the common `--quick` / `--suite <name>` experiment flags.
pub fn parse_flags() -> (bool, Option<String>) {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let suite = flag_value(&args, "--suite");
    (quick, suite)
}

// The probe binaries share the daemon's `--flag value` CLI convention;
// one implementation lives in `cosa_serve::cli`.
pub use cosa_serve::cli::{flag_value, parse_flag};

/// The four paper suites, optionally filtered by `--suite` or truncated in
/// `--quick` mode (2 layers per suite).
pub fn selected_suites(quick: bool, suite: &Option<String>) -> Vec<cosa_spec::workloads::Workload> {
    let mut suites = cosa_spec::workloads::all_suites();
    if let Some(name) = suite {
        suites.retain(|w| w.name.eq_ignore_ascii_case(name));
    }
    if quick {
        for w in &mut suites {
            w.layers.truncate(2);
        }
    }
    suites
}
