//! One run of one workload: set up, measure passes for `--seconds`, check
//! the outputs, print the result line. `--trace 1` swaps the measuring
//! loop for one plain and one traced pass and prints the per-layer metrics.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use cosa_repro::prelude::*;
use serde::Value;

use crate::emit::{line, num, obj, text, write_pretty};
use crate::manifest::{END_TO_END, LAYERS, PER_LAYER};
use crate::stats::median;
use crate::trace::Recorder;
use crate::workloads;

/// What one run is asked to do.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of a measuring run.
    pub trace: bool,
}

/// One timed operation of a pass.
#[derive(Debug, Clone)]
pub struct OpSample {
    /// Layer shape, request kind, store phase or suite.
    pub class: String,
    /// Duration in seconds.
    pub secs: f64,
}

/// One scheduled layer a pass produced, kept for the output checks and
/// the exact quality sums.
#[derive(Debug, Clone)]
pub struct Answer {
    /// The layer that was scheduled.
    pub layer: Layer,
    /// Back-to-back executions the sums weight it by.
    pub count: u64,
    /// What the program answered.
    pub scheduled: Scheduled,
}

/// The outcome of one pass over a workload's fixed unit of work.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Wall-clock of the pass.
    pub wall_s: f64,
    /// Every operation of the pass.
    pub ops: Vec<OpSample>,
    /// Operations that failed (errors, refusals, wrong bytes).
    pub failed: u64,
    /// The distinct answers of the pass.
    pub answers: Vec<Answer>,
    /// Digest of the answers' canonical bytes: equal between passes.
    pub canonical: String,
    /// Off-chip bytes when the workload reports its own (the inter-layer
    /// pass's headline) rather than the sum over `answers`.
    pub offchip_bytes: Option<f64>,
}

/// Per-layer metrics of a traced pass, by name.
pub type PerLayer = BTreeMap<&'static str, f64>;

/// A workload after set-up.
pub trait Workload {
    /// Run the fixed unit of work once, from cold.
    fn pass(&mut self) -> Pass;

    /// Workload-specific output checks on a pass; one message per failure.
    fn check(&mut self, pass: &Pass) -> Vec<String>;

    /// Run the unit once more with spans around each layer's calls and
    /// fill in this workload's per-layer metrics.
    fn traced(&mut self, rec: &mut Recorder, metrics: &mut PerLayer);

    /// Release what set-up acquired (daemon, directories).
    fn teardown(&mut self) {}
}

/// The benchmark's own directory (`run.sh` exports it).
pub fn benchmark_dir() -> PathBuf {
    std::env::var_os("COSA_BENCHMARK_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

/// A scratch directory under `benchmark/out/tmp`, removed on drop.
#[derive(Debug)]
pub struct Scratch(PathBuf);

impl Scratch {
    /// Create `benchmark/out/tmp/<pid>-<label>`.
    pub fn new(label: &str) -> std::io::Result<Scratch> {
        let dir = benchmark_dir()
            .join("out/tmp")
            .join(format!("{}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Peak resident set of this process so far (VmHWM) in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set up several times and keep the last instance: `setup_s` is the
/// median, so one slow start does not decide it.
fn timed_setup(args: &RunArgs) -> Result<(Box<dyn Workload>, f64), String> {
    const MIN_REPEATS: usize = 3;
    const MAX_REPEATS: usize = 25;
    const ENOUGH: Duration = Duration::from_millis(500);
    let began = Instant::now();
    let mut times = Vec::new();
    loop {
        let start = Instant::now();
        let mut workload = workloads::setup(&args.workload, args.seed)?;
        times.push(start.elapsed().as_secs_f64());
        let done =
            times.len() >= MAX_REPEATS || (times.len() >= MIN_REPEATS && began.elapsed() >= ENOUGH);
        if done {
            return Ok((workload, median(&times)));
        }
        workload.teardown();
    }
}

/// Checks every workload shares: each schedule is valid, the analytical
/// model reproduces the reported latency and energy, and every pass gave
/// the same canonical bytes as the first.
fn common_checks(arch: &Arch, passes: &[Pass]) -> Vec<String> {
    let mut failures = Vec::new();
    let model = CostModel::new(arch);
    let last = passes.last().expect("at least one pass");
    for a in &last.answers {
        let name = a.layer.name();
        if let Err(e) = a.scheduled.schedule.validate(&a.layer, arch) {
            failures.push(format!("{name}: schedule fails validation: {e}"));
            continue;
        }
        match model.evaluate(&a.layer, &a.scheduled.schedule) {
            Ok(eval) => {
                if !close(eval.latency_cycles, a.scheduled.latency_cycles)
                    || !close(eval.energy_pj, a.scheduled.energy_pj)
                {
                    failures.push(format!(
                        "{name}: model gives {} cycles / {} pJ, answer says {} / {}",
                        eval.latency_cycles,
                        eval.energy_pj,
                        a.scheduled.latency_cycles,
                        a.scheduled.energy_pj
                    ));
                }
            }
            Err(e) => failures.push(format!("{name}: model evaluation fails: {e}")),
        }
    }
    for (i, pass) in passes.iter().enumerate().skip(1) {
        if pass.canonical != passes[0].canonical {
            failures.push(format!("pass {i} is not byte-identical to pass 0"));
        }
    }
    failures
}

/// Equal to a relative 1e-9 (the model is deterministic; this only
/// forgives summation order).
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// The three exact sums over a pass's answers.
fn quality(arch: &Arch, pass: &Pass) -> (f64, f64, f64) {
    let model = CostModel::new(arch);
    let mut latency = 0.0;
    let mut energy = 0.0;
    let mut offchip = 0.0;
    for a in &pass.answers {
        let count = a.count as f64;
        latency += count * a.scheduled.latency_cycles;
        energy += count * a.scheduled.energy_pj;
        offchip += count
            * model
                .evaluate_unchecked(&a.layer, &a.scheduled.schedule)
                .dram_bytes();
    }
    (latency, energy, pass.offchip_bytes.unwrap_or(offchip))
}

/// Median duration per class, in seconds.
fn class_medians(passes: &[Pass]) -> BTreeMap<&str, f64> {
    let mut by_class: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for op in passes.iter().flat_map(|p| &p.ops) {
        by_class.entry(&op.class).or_default().push(op.secs);
    }
    by_class
        .into_iter()
        .map(|(class, secs)| (class, median(&secs)))
        .collect()
}

fn metric(value: f64, unit: &str) -> Value {
    obj(vec![("value", num(value)), ("unit", text(unit))])
}

fn result_line(failures: &[String], attempted: u64, failed: u64, metrics: Value) -> String {
    for failure in failures {
        eprintln!("[check] {failure}");
    }
    line(&obj(vec![
        ("correct", Value::Bool(failed == 0)),
        ("attempted", Value::U64(attempted.max(1))),
        ("failed", Value::U64(failed)),
        ("metrics", metrics),
    ]))
}

/// Run one workload as the driver asks and return the result line.
pub fn run(args: &RunArgs) -> Result<String, String> {
    let arch = Arch::simba_baseline();
    let (mut workload, setup_s) = timed_setup(args)?;
    let out = if args.trace {
        run_traced(args, &arch, workload.as_mut())
    } else {
        run_measured(args, &arch, workload.as_mut(), setup_s)
    };
    workload.teardown();
    Ok(out)
}

fn run_measured(args: &RunArgs, arch: &Arch, workload: &mut dyn Workload, setup_s: f64) -> String {
    let began = Instant::now();
    let mut passes = vec![workload.pass()];
    // Read after one pass, not at the end: glibc gives each pass's worker
    // thread whichever arena is free, so the high-water mark of several
    // passes moved by 30 % between identical runs; that of one does not.
    let peak_rss_mb = peak_rss_mb();
    while began.elapsed().as_secs_f64() < args.seconds {
        passes.push(workload.pass());
    }

    let mut failures = common_checks(arch, &passes);
    failures.extend(workload.check(passes.last().expect("one pass ran")));
    let attempted: u64 = passes.iter().map(|p| p.ops.len() as u64).sum();
    let failed = passes.iter().map(|p| p.failed).sum::<u64>() + failures.len() as u64;

    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let all_ops: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.ops.iter().map(|o| o.secs))
        .collect();
    let slow_class = class_medians(&passes).into_values().fold(0.0_f64, f64::max);
    let (latency, energy, offchip) = quality(arch, passes.last().expect("one pass ran"));
    let values = BTreeMap::from([
        ("setup_s", setup_s),
        ("pass_wall_s", median(&walls)),
        ("op_p50_us", median(&all_ops) * 1e6),
        ("slow_class_p50_us", slow_class * 1e6),
        ("peak_rss_mb", peak_rss_mb),
        ("model_latency_cycles", latency),
        ("model_energy_pj", energy),
        ("offchip_bytes", offchip),
    ]);
    let metrics = END_TO_END
        .iter()
        .map(|m| (m.name.to_string(), metric(values[m.name], m.unit)))
        .collect();
    eprintln!(
        "[{}] seed {} — {} ops in {:.2} s, pass walls {:.3?}",
        args.workload,
        args.seed,
        attempted,
        began.elapsed().as_secs_f64(),
        walls
    );
    result_line(&failures, attempted, failed, Value::Map(metrics))
}

fn run_traced(args: &RunArgs, arch: &Arch, workload: &mut dyn Workload) -> String {
    let plain = workload.pass();
    let mut rec = Recorder::new();
    let mut per_layer = PerLayer::new();
    let start = Instant::now();
    workload.traced(&mut rec, &mut per_layer);
    let traced_s = start.elapsed().as_secs_f64();

    per_layer.insert("trace_overhead_share", traced_s / plain.wall_s - 1.0);
    let own = rec.self_seconds_by_layer();
    for layer in LAYERS {
        let name = format!("{layer}.self_s");
        let info = PER_LAYER.iter().find(|m| m.name == name);
        let info = info.expect("every layer has a self-time metric");
        per_layer.insert(info.name, own.get(layer).copied().unwrap_or(0.0));
    }

    let trace_path = benchmark_dir().join(format!("out/trace-{}.json", args.workload));
    if let Err(e) = write_pretty(&trace_path, &rec.to_json(&args.workload)) {
        eprintln!("[trace] cannot write {}: {e}", trace_path.display());
    }

    let mut failures = common_checks(arch, std::slice::from_ref(&plain));
    failures.extend(workload.check(&plain));
    let attempted = plain.ops.len() as u64;
    let failed = plain.failed + failures.len() as u64;
    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            let value = per_layer.get(m.name).copied().unwrap_or(0.0);
            (m.name.to_string(), metric(value, m.unit))
        })
        .collect();
    result_line(&failures, attempted, failed, Value::Map(metrics))
}
