//! Probe the batch `Engine` on whole-network scheduling: cache-hit
//! behaviour, determinism, persistent warm starts and multi-threaded vs
//! single-threaded wall-clock on ResNet-50 (the acceptance probe for the
//! Engine and cache-store designs).
//!
//! Run with: `cargo run --release -p cosa-bench --bin engine_probe`
//!
//! Flags: `--quick` probes a network prefix; `--suite <name>` picks the
//! suite; `--scheduler cosa|sat|portfolio|random|hybrid` picks the
//! scheduler (default cosa); `--threads <n>` sets the fan-out width. With
//! `portfolio` (SAT up to 14 prime factors, the MILP above) the probe also
//! prints how many fresh solves each backend ran, from the engine's cache
//! stats.
//!
//! Persistent mode: `--cache-dir <path>` (or the `COSA_CACHE_DIR` env var)
//! runs one engine against an on-disk schedule cache (one packed
//! `segment.cosa`), `--noc` enables engine-level NoC evaluation, and
//! `--expect-warm` asserts the run was a 100% warm start — zero solver
//! calls, zero NoC re-simulations. The
//! canonical (`without_timings`) report is written to
//! `results/engine_probe_report.json`; CI runs the probe twice against one
//! cache dir and byte-compares the two artifacts.
//!
//! Offline GC: `--gc-max-bytes <n>` / `--gc-max-age-secs <n>` sweep the
//! cache dir's disk tier under that policy before scheduling (the same
//! [`cosa_repro::engine::GcPolicy`] the serving daemon enforces online),
//! then verify every surviving entry still loads cleanly. `--gc-only`
//! exits after the sweep — the CI `cache-gc` step uses it to keep
//! long-lived cache dirs bounded.

use std::io::Write as _;
use std::time::Duration;

use cosa_bench::{flag_value, parse_flags, write_csv};
use cosa_repro::api::Scheduler;
use cosa_repro::engine::{CacheStore, Engine, GcPolicy};
use cosa_repro::serve::{scheduler_from_name, CommonArgs};
use cosa_spec::{Arch, Network, Suite};

/// Print the fresh solves per backend, when any solver ran. One line per
/// backend with its share, so a portfolio run shows at a glance which
/// backend carried which share.
fn print_backend_wins(stats: &cosa_repro::engine::CacheStats) {
    let total: u64 = stats.backend_wins.iter().map(|w| w.wins).sum();
    if total == 0 {
        return;
    }
    for w in &stats.backend_wins {
        println!(
            "  backend {:<10} {:>4} solves ({:>5.1}%), {:.3}s solving wall-clock",
            w.backend,
            w.wins,
            100.0 * w.wins as f64 / total as f64,
            w.win_micros as f64 / 1e6,
        );
    }
}

/// Machine-readable per-suite summary, one line per probe run, matching
/// the `interlayer:`/`probe-throughput:` key=value convention so CI can
/// extract figures without parsing prose.
fn print_suite_summary(network: &Network, run: &cosa_repro::engine::NetworkRun) {
    println!(
        "suite-summary: suite={} instances={} unique_shapes={} solves={} hits={} failed={} \
         latency_cycles={:.6e} energy_pj={:.6e} elapsed_micros={}",
        network.name,
        network.num_instances(),
        network.unique_shapes(),
        run.cache_misses,
        run.cache_hits,
        run.report.failed_layers,
        run.report.total_latency_cycles,
        run.report.total_energy_pj,
        run.elapsed.as_micros(),
    );
}

/// Write the canonical (volatiles-stripped) report artifact that the CI
/// warm-cache job byte-compares across cold and warm runs.
fn write_report_artifact(report: &cosa_repro::engine::NetworkReport) -> std::path::PathBuf {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join("engine_probe_report.json");
    let json = serde_json::to_string_pretty(&report.without_timings()).expect("report serializes");
    let mut f = std::fs::File::create(&path).expect("create report artifact");
    f.write_all(json.as_bytes()).expect("write report artifact");
    path
}

fn main() {
    let (quick, suite) = parse_flags();
    let args: Vec<String> = std::env::args().collect();
    // The shared scheduler/cache flag set — the same parser the daemon
    // and `serve_probe` use, so the flags cannot drift.
    let common = CommonArgs::parse(&args);
    let scheduler_name = common.scheduler.clone();
    let cache_dir = common.cache_dir.as_ref().map(|p| p.display().to_string());
    let expect_warm = args.iter().any(|a| a == "--expect-warm");

    // Offline disk-tier GC: sweep before scheduling so the run below sees
    // exactly the surviving entries.
    let mut gc = GcPolicy::default();
    if let Some(max_bytes) = flag_value(&args, "--gc-max-bytes") {
        gc = gc.with_max_bytes(max_bytes.parse().expect("numeric --gc-max-bytes"));
    }
    if let Some(secs) = flag_value(&args, "--gc-max-age-secs") {
        gc = gc.with_max_age(Duration::from_secs(
            secs.parse().expect("numeric --gc-max-age-secs"),
        ));
    }
    // `--gc-only` without a bound still sweeps (stale temp files) and
    // must never fall through to a full scheduling run.
    let gc_only = args.iter().any(|a| a == "--gc-only");
    if !gc.is_unbounded() || gc_only {
        let dir = cache_dir
            .as_deref()
            .expect("GC flags need --cache-dir (or COSA_CACHE_DIR)");
        run_offline_gc(dir, &gc);
        if gc_only {
            return;
        }
    }

    let arch = Arch::simba_baseline();
    let suite: Suite =
        suite.as_deref().unwrap_or("resnet50").parse().expect(
            "known suite (alexnet|resnet50|resnext50|deepbench|bertbase|gptmini|mobilenetv2)",
        );
    let mut network = Network::from_suite(suite);
    if quick {
        network.layers.truncate(8);
    }

    // The shared serving registry: the same fixed configurations the
    // `cosa-serve` daemon uses (node-limited CoSA, so the cold-run
    // determinism check holds even when the budget binds), which means the
    // probe and the daemon share warm cache entries.
    let scheduler: Box<dyn Scheduler> =
        scheduler_from_name(&scheduler_name, &arch).unwrap_or_else(|e| panic!("{e}"));

    let threads = flag_value(&args, "--threads")
        .and_then(|t| t.parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        });

    println!(
        "engine probe — {} ({} instances, {} unique shapes) with `{}` on {arch}",
        network.name,
        network.num_instances(),
        network.unique_shapes(),
        scheduler.name(),
    );

    if let Some(dir) = cache_dir {
        run_persistent(
            &arch,
            &network,
            scheduler.as_ref(),
            threads,
            &dir,
            &common,
            expect_warm,
        );
    } else {
        run_in_memory(&arch, &network, scheduler.as_ref(), threads, &common);
    }
}

/// Sweep the cache dir's disk tier under `policy`, then prove the
/// survivors are intact: a full reload must skip zero entries and fit the
/// byte budget. Panics (failing CI) when the contract is violated.
fn run_offline_gc(dir: &str, policy: &GcPolicy) {
    let store = CacheStore::open(dir).expect("open cache dir");
    let before_bytes = store.disk_stats().live_bytes;
    // Damaged or version-mismatched entries may predate the sweep (a
    // crashed writer, an old STORE_VERSION); only corruption the sweep
    // itself would introduce is a failure.
    let skipped_before = store.load().skipped;
    let report = store.gc(policy).expect("gc sweep");
    println!(
        "  gc {dir}: {} -> {} entries ({} removed), {} -> {} bytes, {} delete errors, \
         {} compactions ({} bytes reclaimed)",
        report.examined,
        report.retained,
        report.removed,
        before_bytes,
        report.retained_bytes,
        report.delete_errors,
        report.compactions,
        report.compacted_bytes,
    );
    assert_eq!(report.delete_errors, 0, "gc must delete cleanly");
    if let Some(max_bytes) = policy.max_bytes {
        assert!(
            report.retained_bytes <= max_bytes || report.retained <= 1,
            "disk tier ({} bytes) must fit the budget ({max_bytes} bytes)",
            report.retained_bytes,
        );
    }
    // Survivors must still load cleanly — GC deletes whole entries, never
    // truncates or rewrites them — so the sweep must not have *added* any
    // skipped files beyond the pre-existing damage.
    let load = store.load();
    assert!(
        load.skipped <= skipped_before,
        "gc corrupted surviving entries ({} skipped before, {} after)",
        skipped_before,
        load.skipped,
    );
    assert_eq!(
        load.entries.len() + load.skipped,
        report.retained,
        "survivors all load"
    );
    println!(
        "  gc survivors verified: {} entries load cleanly ({} pre-existing damaged files)",
        load.entries.len(),
        load.skipped,
    );
}

/// One engine against a persistent cache directory: the warm-start path
/// the CI `warm-cache` job exercises twice. The cache-facing knobs
/// (NoC, inter-layer options) come from the shared [`CommonArgs`] set.
#[allow(clippy::too_many_arguments)]
fn run_persistent(
    arch: &Arch,
    network: &Network,
    scheduler: &dyn Scheduler,
    threads: usize,
    dir: &str,
    common: &CommonArgs,
    expect_warm: bool,
) {
    let mut engine = Engine::new(arch.clone())
        .with_threads(threads)
        .with_interlayer(common.interlayer);
    if common.noc {
        engine = engine.with_noc();
    }
    let engine = engine.with_cache_dir(dir).expect("open cache dir");
    let loaded = engine.cache_stats();
    println!(
        "  cache dir {dir}: {} entries loaded in {}µs ({} skipped as corrupt) — {} start",
        loaded.warm_entries,
        loaded.load_micros,
        loaded.store_errors,
        if loaded.warm_entries > 0 {
            "warm"
        } else {
            "cold"
        },
    );

    let run = engine.schedule_network(network, scheduler);
    let stats = engine.cache_stats();
    println!(
        "  {threads} threads: {:>10.2?}  ({} solves, {} cache hits, {} NoC sims, {} failed)",
        run.elapsed, run.cache_misses, run.cache_hits, run.noc_sims, run.report.failed_layers
    );
    println!(
        "  cache: {} entries / {} bytes resident, {} evictions, {} store errors",
        stats.entries, stats.bytes, stats.evictions, stats.store_errors
    );
    println!(
        "  disk tier: index={} segment={}B (live {}B, dead {}B), {} compactions",
        stats.disk_index_entries,
        stats.segment_bytes,
        stats.segment_live_bytes,
        stats.segment_dead_bytes,
        stats.compactions,
    );
    print_backend_wins(&stats);
    if let Some(noc) = run.report.total_noc_cycles {
        println!(
            "  whole-network latency {:.3e} cycles (model), {:.3e} cycles (NoC), energy {:.3e} pJ",
            run.report.total_latency_cycles, noc, run.report.total_energy_pj
        );
    } else {
        println!(
            "  whole-network latency {:.3e} cycles, energy {:.3e} pJ",
            run.report.total_latency_cycles, run.report.total_energy_pj
        );
    }

    if let Some(inter) = &run.report.interlayer {
        // Machine-readable residency line: CI extracts `offchip=` /
        // `baseline=` to assert the memory-aware run strictly reduces
        // off-chip traffic, and echoes `overbooked=` beside them.
        println!(
            "interlayer: budget={} resident={}/{} baseline={:.0} offchip={:.0} saved={:.0} \
             overbooked={}",
            inter.budget_bytes,
            inter.resident_edges,
            inter.edges.len(),
            inter.baseline_offchip_bytes,
            inter.offchip_bytes,
            inter.saved_offchip_bytes,
            inter.overbooked_entries,
        );
    }

    print_suite_summary(network, &run);

    if expect_warm {
        assert!(
            stats.warm_entries > 0,
            "--expect-warm needs a populated cache dir, found none in {dir}"
        );
        assert_eq!(
            run.cache_misses, 0,
            "warm run must be 100% cache hits (zero solver calls)"
        );
        assert_eq!(
            run.noc_sims, 0,
            "warm run must not re-simulate NoC for cached verdicts"
        );
        assert_eq!(run.cache_hits, network.layers.len() as u64);
        println!("  warm-start contract holds: all hits, zero solves, zero NoC sims");
    }

    let path = write_report_artifact(&run.report);
    println!("  wrote {}", path.display());
    let rows = vec![format!(
        "persistent,{},{},{},{},{},{:.6}",
        scheduler.name(),
        run.report.network,
        run.cache_misses,
        run.cache_hits,
        run.noc_sims,
        run.elapsed.as_secs_f64()
    )];
    let path = write_csv(
        "engine_probe.csv",
        "mode,scheduler,network,solves,cache_hits,noc_sims,seconds",
        &rows,
    );
    println!("  wrote {}", path.display());
}

/// The original three-engine comparison: single-threaded cold,
/// multi-threaded cold, then a warm re-run on the multi-threaded engine.
fn run_in_memory(
    arch: &Arch,
    network: &Network,
    scheduler: &dyn Scheduler,
    threads: usize,
    common: &CommonArgs,
) {
    let with_noc = common.noc;
    let maybe_noc = |e: Engine| {
        let e = e.with_interlayer(common.interlayer);
        if with_noc {
            e.with_noc()
        } else {
            e
        }
    };

    // Single-threaded, cold cache.
    let single = maybe_noc(Engine::new(arch.clone()).with_threads(1));
    let run1 = single.schedule_network(network, scheduler);
    println!(
        "  1 thread : {:>10.2?}  ({} solves, {} cache hits, {} failed)",
        run1.elapsed, run1.cache_misses, run1.cache_hits, run1.report.failed_layers
    );

    // Multi-threaded, cold cache.
    let multi = maybe_noc(Engine::new(arch.clone()).with_threads(threads));
    let run_n = multi.schedule_network(network, scheduler);
    println!(
        "  {threads} threads: {:>10.2?}  ({} solves, {} cache hits, {} failed)",
        run_n.elapsed, run_n.cache_misses, run_n.cache_hits, run_n.report.failed_layers
    );

    // Warm re-run: everything from cache, canonical-identical report.
    let run_warm = multi.schedule_network(network, scheduler);
    println!(
        "  warm     : {:>10.2?}  ({} solves, {} cache hits)",
        run_warm.elapsed, run_warm.cache_misses, run_warm.cache_hits
    );

    print_backend_wins(&multi.cache_stats());
    if let Some(inter) = &run_n.report.interlayer {
        println!(
            "interlayer: budget={} resident={}/{} baseline={:.0} offchip={:.0} saved={:.0} \
             overbooked={}",
            inter.budget_bytes,
            inter.resident_edges,
            inter.edges.len(),
            inter.baseline_offchip_bytes,
            inter.offchip_bytes,
            inter.saved_offchip_bytes,
            inter.overbooked_entries,
        );
    }

    // The hybrid mapper races its internal search threads on metric ties,
    // so cross-run content identity is only guaranteed for the others
    // (cosa/sat/portfolio/random).
    if scheduler.name() != "hybrid" {
        let json1 =
            serde_json::to_string(&run1.report.without_timings()).expect("report serializes");
        let json_n =
            serde_json::to_string(&run_n.report.without_timings()).expect("report serializes");
        assert_eq!(
            json1, json_n,
            "thread count must not change schedules or totals"
        );
    }
    let json_multi =
        serde_json::to_string(&run_n.report.without_timings()).expect("report serializes");
    let json_warm =
        serde_json::to_string(&run_warm.report.without_timings()).expect("report serializes");
    assert_eq!(
        json_multi, json_warm,
        "warm cache must reproduce the canonical report byte-for-byte"
    );
    assert!(run_n.cache_hits >= 1 || network.unique_shapes() == network.layers.len());
    // Errors are deliberately not cached, so a warm run only skips every
    // solve when the cold run scheduled everything.
    if run_n.report.is_complete() {
        assert_eq!(run_warm.cache_misses, 0, "warm run must be all cache hits");
        assert_eq!(run_warm.noc_sims, 0, "warm run must not re-simulate NoC");
    }

    print_suite_summary(network, &run_n);

    let speedup = run1.elapsed.as_secs_f64() / run_n.elapsed.as_secs_f64().max(1e-9);
    println!(
        "  whole-network latency {:.3e} cycles, energy {:.3e} pJ, speedup {speedup:.2}x",
        run_n.report.total_latency_cycles, run_n.report.total_energy_pj
    );
    // One `speedup-assert:` status line per run, machine-readable, so CI
    // can tell an *asserted* speedup apart from a silently skipped one
    // (1-core boxes and fully deduplicated networks cannot arm it).
    if threads > 1 && run_n.cache_misses > 1 {
        assert!(
            run_n.elapsed < run1.elapsed,
            "multi-threaded engine ({:?}) should beat single-threaded ({:?})",
            run_n.elapsed,
            run1.elapsed
        );
        println!(
            "speedup-assert: status=armed threads={threads} fresh_solves={} speedup={speedup:.2}",
            run_n.cache_misses
        );
    } else {
        println!(
            "speedup-assert: status=skipped threads={threads} fresh_solves={} \
             (needs threads > 1 and at least 2 fresh solves)",
            run_n.cache_misses
        );
    }

    let path = write_report_artifact(&run_n.report);
    println!("  wrote {}", path.display());
    let rows: Vec<String> = [("single", &run1), ("multi", &run_n), ("warm", &run_warm)]
        .iter()
        .map(|(mode, run)| {
            format!(
                "{mode},{},{},{},{},{},{:.6}",
                scheduler.name(),
                run.report.network,
                run.cache_misses,
                run.cache_hits,
                run.noc_sims,
                run.elapsed.as_secs_f64()
            )
        })
        .collect();
    let path = write_csv(
        "engine_probe.csv",
        "mode,scheduler,network,solves,cache_hits,noc_sims,seconds",
        &rows,
    );
    println!("  wrote {}", path.display());
}
