//! `benchmark/run.sh` hands its arguments here. See `README.md`.

use std::path::PathBuf;
use std::process::ExitCode;

use cosa_benchmark::harness::{self, RunArgs};
use cosa_benchmark::report::{self, SuiteArgs};
use cosa_benchmark::{manifest, workloads};

const USAGE: &str = "\
usage: benchmark/run.sh [--seed N] [--repeats R] [--workload W] [--trace]
           every workload (or W), R measuring runs each in a fresh process,
           plus one traced run each with --trace; writes out/results.json
       benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
           one run, one result line (what BENCHMARK.json's command gets)
       benchmark/run.sh --compare A.json B.json
       benchmark/run.sh --self-check [--repeats R]
       benchmark/run.sh manifest | freeze-expected";

/// The value after `flag`, if `flag` is present and followed by one.
fn value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    let at = args.iter().position(|a| a == flag)?;
    args.get(at + 1).map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    match value(args, flag) {
        Some(raw) => raw
            .parse()
            .map(Some)
            .map_err(|_| format!("bad value `{raw}` for {flag}")),
        None if args.iter().any(|a| a == flag) => Err(format!("{flag} needs a value")),
        None => Ok(None),
    }
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    let has = |flag: &str| args.iter().any(|a| a == flag);
    if has("--help") || has("-h") {
        println!("{USAGE}");
        return Ok(true);
    }
    match args.first().map(String::as_str) {
        Some("manifest") => {
            let doc = serde_json::to_string_pretty(&manifest::benchmark_json());
            println!("{}", doc.map_err(|e| e.to_string())?);
            return Ok(true);
        }
        Some("freeze-expected") => {
            println!("{}", workloads::cold::freeze_expected()?);
            return Ok(true);
        }
        _ => {}
    }
    if let Some(at) = args.iter().position(|a| a == "--compare") {
        let (Some(base), Some(new)) = (args.get(at + 1), args.get(at + 2)) else {
            return Err("--compare needs two result files".to_string());
        };
        report::compare_files(&PathBuf::from(base), &PathBuf::from(new))?;
        return Ok(true);
    }

    let seed = parsed(args, "--seed")?.unwrap_or(1);
    // A bare `--trace` asks the one-command mode for traced runs; the
    // driver's form carries 0 or 1.
    let trace = match value(args, "--trace") {
        Some("0") => false,
        Some("1") => true,
        _ => has("--trace"),
    };
    if let Some(seconds) = parsed::<f64>(args, "--seconds")? {
        let workload = value(args, "--workload").ok_or("--seconds needs --workload")?;
        let line = harness::run(&RunArgs {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
        })?;
        println!("{line}");
        return Ok(true);
    }
    let suite = SuiteArgs {
        seed,
        repeats: parsed(args, "--repeats")?.unwrap_or(3),
        workload: value(args, "--workload").map(str::to_string),
        trace,
    };
    if has("--self-check") {
        report::self_check(&suite)
    } else {
        report::run_and_write(&suite)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark: a check failed");
            ExitCode::from(1)
        }
        Err(message) => {
            eprintln!("benchmark: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
