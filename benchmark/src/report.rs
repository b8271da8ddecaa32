//! The one-command mode: every workload, each run in a fresh child process
//! (so peak RSS is per workload), medians with min/max beside them,
//! `out/results.json`, and the comparisons built on it.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use serde::Value;

use crate::emit::{get, num, obj, text, write_pretty};
use crate::harness::benchmark_dir;
use crate::manifest::{Better, MetricInfo, END_TO_END, RUN_SECONDS, WORKLOADS};
use crate::stats::{median, sorted, spread};

/// What the one-command mode is asked to do.
#[derive(Debug, Clone)]
pub struct SuiteArgs {
    /// Input seed for every run.
    pub seed: u64,
    /// Measuring runs per workload.
    pub repeats: usize,
    /// Only this workload.
    pub workload: Option<String>,
    /// Also make one traced run per workload.
    pub trace: bool,
}

/// Every value one metric took over the repeats of one workload.
type Series = BTreeMap<String, Vec<f64>>;

/// One child run: the parsed result line.
fn run_child(workload: &str, seed: u64, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &RUN_SECONDS.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a run of {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!("{workload}: run exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    serde_json::from_str(last).map_err(|e| format!("{workload}: bad result line: {e}"))
}

fn metric_values(result: &Value, into: &mut Series) {
    let Some(metrics) = get(result, "metrics").and_then(Value::as_map) else {
        return;
    };
    for (name, m) in metrics {
        if let Some(v) = get(m, "value").and_then(Value::as_f64) {
            into.entry(name.clone()).or_default().push(v);
        }
    }
}

fn summary(values: &[f64], unit: &str) -> Value {
    let v = sorted(values);
    obj(vec![
        ("unit", text(unit)),
        ("median", num(median(&v))),
        ("min", num(v.first().copied().unwrap_or(0.0))),
        ("max", num(v.last().copied().unwrap_or(0.0))),
        (
            "values",
            Value::Seq(values.iter().copied().map(num).collect()),
        ),
    ])
}

/// Run the suite and return the `results.json` document and whether every
/// check passed.
pub fn run_suite(args: &SuiteArgs) -> Result<(Value, bool), String> {
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for info in WORKLOADS
        .iter()
        .filter(|w| args.workload.as_deref().is_none_or(|only| only == w.name))
    {
        let (mut attempted, mut failed) = (0u64, 0u64);
        let mut end_to_end = Series::new();
        for _ in 0..args.repeats {
            let result = run_child(info.name, args.seed, false)?;
            attempted += get(&result, "attempted")
                .and_then(Value::as_u64)
                .unwrap_or(0);
            failed += get(&result, "failed").and_then(Value::as_u64).unwrap_or(0);
            metric_values(&result, &mut end_to_end);
        }
        let mut per_layer = Series::new();
        if args.trace {
            let result = run_child(info.name, args.seed, true)?;
            failed += get(&result, "failed").and_then(Value::as_u64).unwrap_or(0);
            metric_values(&result, &mut per_layer);
        }
        all_correct &= failed == 0;

        println!("\n== {} — {}", info.name, info.why);
        println!(
            "   {failed} failed of {attempted} operations (failed_share {})",
            failed as f64 / attempted.max(1) as f64
        );
        let mut e2e_doc = Vec::new();
        for m in &END_TO_END {
            let values = end_to_end.get(m.name).cloned().unwrap_or_default();
            let v = sorted(&values);
            println!(
                "   {:<24} {:>16.6} {:<7} [{:.6} .. {:.6}]",
                m.name,
                median(&v),
                m.unit,
                v.first().copied().unwrap_or(0.0),
                v.last().copied().unwrap_or(0.0)
            );
            e2e_doc.push((m.name.to_string(), summary(&values, m.unit)));
        }
        let mut layer_doc = Vec::new();
        for m in crate::manifest::PER_LAYER.iter() {
            if let Some(value) = per_layer.get(m.name).and_then(|v| v.first()) {
                println!("   {:<36} {:>16.6} {}", m.name, value, m.unit);
                layer_doc.push((m.name.to_string(), summary(&[*value], m.unit)));
            }
        }
        workloads.push((
            info.name.to_string(),
            obj(vec![
                ("why", text(info.why)),
                ("correct", Value::Bool(failed == 0)),
                ("attempted", Value::U64(attempted)),
                ("failed", Value::U64(failed)),
                ("failed_share", num(failed as f64 / attempted.max(1) as f64)),
                ("end_to_end", Value::Map(e2e_doc)),
                ("per_layer", Value::Map(layer_doc)),
            ]),
        ));
    }
    if workloads.is_empty() {
        return Err("no such workload".to_string());
    }
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let doc = obj(vec![
        ("seed", Value::U64(args.seed)),
        ("repeats", Value::U64(args.repeats as u64)),
        ("run_seconds", Value::U64(RUN_SECONDS)),
        ("available_parallelism", Value::U64(threads as u64)),
        ("workloads", Value::Map(workloads)),
    ]);
    Ok((doc, all_correct))
}

/// Run the suite, write `out/results.json`, report whether checks passed.
pub fn run_and_write(args: &SuiteArgs) -> Result<bool, String> {
    let (doc, correct) = run_suite(args)?;
    let path = benchmark_dir().join("out/results.json");
    write_pretty(&path, &doc).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());
    Ok(correct)
}

/// How one metric of one workload moved between two result sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the bound.
    Better,
    /// Moved by no more than the bound.
    WithinBound,
    /// Got worse by more than the bound.
    Worse,
    /// The run-to-run spread is wider than the bound, and the two sets of
    /// runs overlap: nothing can be said.
    Unresolved,
}

/// Judge `new` against `base` for metric `m`.
pub fn judge(m: &MetricInfo, base: &[f64], new: &[f64]) -> (Verdict, f64) {
    let (b, n) = (median(base), median(new));
    let ratio = if b != 0.0 { n / b } else { 1.0 };
    // "Worse" as a positive share of the base, whichever way is better.
    let worse_by = match m.better {
        Better::Lower => ratio - 1.0,
        Better::Higher => 1.0 - ratio,
    };
    let all_better = match m.better {
        Better::Lower => fold_max(new) < fold_min(base),
        Better::Higher => fold_min(new) > fold_max(base),
    };
    let noisy = spread(base).max(spread(new)) > m.bound;
    let verdict = if noisy && !all_better {
        Verdict::Unresolved
    } else if worse_by > m.bound {
        Verdict::Worse
    } else if worse_by < -m.bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    };
    (verdict, ratio)
}

fn fold_min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

fn fold_max(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

fn values_of(doc: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let w = get(get(doc, "workloads")?, workload)?;
    let m = get(get(w, "end_to_end")?, metric)?;
    get(m, "values")?
        .as_seq()?
        .iter()
        .map(Value::as_f64)
        .collect()
}

/// Print one row per workload and end-to-end metric, each ratio with its
/// base; returns the rows whose medians disagree beyond the bound.
pub fn compare(base: &Value, new: &Value) -> Vec<String> {
    let mut disagreements = Vec::new();
    println!(
        "{:<20} {:<22} {:>16} {:>16} {:>8}  verdict",
        "workload", "metric", "base median", "new median", "new/base"
    );
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (Some(a), Some(b)) = (
                values_of(base, w.name, m.name),
                values_of(new, w.name, m.name),
            ) else {
                continue;
            };
            let (verdict, ratio) = judge(m, &a, &b);
            let word = match verdict {
                Verdict::Better => "better",
                Verdict::WithinBound => "within bound",
                Verdict::Worse => "worse",
                Verdict::Unresolved => "unresolved (spread > bound)",
            };
            println!(
                "{:<20} {:<22} {:>16.6} {:>16.6} {:>8.4}  {word} (bound {})",
                w.name,
                m.name,
                median(&a),
                median(&b),
                ratio,
                m.bound
            );
            if (ratio - 1.0).abs() > m.bound {
                disagreements.push(format!("{} {}: {ratio:.4}x its base", w.name, m.name));
            }
        }
    }
    disagreements
}

/// `--compare A.json B.json`.
pub fn compare_files(base: &Path, new: &Path) -> Result<(), String> {
    let read = |p: &Path| -> Result<Value, String> {
        let raw = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        serde_json::from_str(&raw).map_err(|e| format!("{}: {e}", p.display()))
    };
    compare(&read(base)?, &read(new)?);
    Ok(())
}

/// `--self-check`: two full sets of runs of the same build must agree
/// within every end-to-end bound. A timing that fails needs more repeats or
/// a demotion to per-layer, not a wider bound.
pub fn self_check(args: &SuiteArgs) -> Result<bool, String> {
    let (first, correct_a) = run_suite(args)?;
    let (second, correct_b) = run_suite(args)?;
    println!();
    let disagreements = compare(&first, &second);
    for d in &disagreements {
        println!("DISAGREES: {d}");
    }
    Ok(correct_a && correct_b && disagreements.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_names_each_case() {
        let m = &MetricInfo {
            name: "wall_s",
            unit: "s",
            better: Better::Lower,
            bound: 0.10,
        };
        let steady = [10.0, 10.1, 9.9];
        assert_eq!(
            judge(m, &steady, &[10.3, 10.4, 10.2]).0,
            Verdict::WithinBound
        );
        assert_eq!(judge(m, &steady, &[12.0, 12.1, 11.9]).0, Verdict::Worse);
        assert_eq!(judge(m, &steady, &[8.0, 8.1, 7.9]).0, Verdict::Better);
        // Spread wider than the bound and overlapping runs: no verdict.
        let noisy = [10.0, 14.0, 7.0];
        assert_eq!(judge(m, &noisy, &[9.0, 13.0, 6.5]).0, Verdict::Unresolved);
        // ... unless every new run beats every base run.
        assert_eq!(judge(m, &noisy, &[5.0, 6.0, 4.0]).0, Verdict::Better);
        let (_, ratio) = judge(m, &steady, &[12.0, 12.1, 11.9]);
        assert!((ratio - 1.2).abs() < 1e-12);
    }
}
