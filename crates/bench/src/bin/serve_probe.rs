//! Load generator for the `cosa-serve` scheduling daemon: fire M
//! concurrent `POST /v1/schedule` requests, assert every answer is 200 and
//! canonically byte-identical per payload, and summarize client-observed
//! latency.
//!
//! Run with: `cargo run --release -p cosa-bench --bin serve_probe -- \
//!     --addr 127.0.0.1:7878 --quick`
//!
//! Flags:
//!
//! * `--addr HOST:PORT` — daemon address (default `127.0.0.1:7878`).
//! * `--requests M` / `--concurrency C` — load shape (defaults 12 / 4).
//! * `--quick` / `--suite NAME` — request payload: the suite's network
//!   (`--quick` truncates to the first 8 instances), sent inline so the
//!   daemon needs no matching flags.
//! * `--suites A,B,C` — mixed-suite mode: one whole-network payload per
//!   listed suite (each `--quick`-truncated), requests cycling over the
//!   payloads — the CNN+transformer serving mix the `transformer-suites`
//!   CI job replays. Overrides `--suite`.
//! * `--scheduler cosa|sat|portfolio|random|hybrid` — serving scheduler
//!   (default cosa; part of the shared `CommonArgs` flag set). With
//!   `portfolio` the probe prints how many fresh solves went to the MILP
//!   and to SAT, from the daemon's `/v1/stats` delta.
//! * `--wait-secs N` — poll `/v1/healthz` until ready (default 60).
//! * `--expect-warm` — assert the whole run was served from cache: zero
//!   new solver calls and zero new NoC simulations in `/v1/stats`, p99
//!   client latency under `--max-warm-p99-millis` (default 2000).
//! * `--concurrency-storm` — single-flight acceptance mode: every request
//!   becomes the *same single layer* (the first of the selected network),
//!   fired concurrently at a cold daemon, and the probe asserts via
//!   `/v1/stats` deltas that the whole storm cost **exactly one** solver
//!   call — the engine's in-process wait map and the store's per-digest
//!   solve locks must deduplicate the rest (reported as `dedup_waits`).
//! * `--artifact PATH` — where to write the canonical (volatile-stripped)
//!   response bodies (default `results/serve_probe_response.json`; one
//!   line per distinct payload, so runs over the same workload must
//!   produce byte-identical artifacts); CI `cmp`s them across runs.
//! * `--latency-csv NAME` — per-request latency CSV file name under
//!   `results/` (default `serve_probe_latency.csv`; CI names the cold and
//!   warm passes differently so both ship as artifacts).
//! * `--shutdown` — `POST /v1/shutdown` after probing and wait for the
//!   daemon to exit (so CI needs no extra HTTP client).
//!
//! The run always prints a machine-readable
//! `probe-throughput: requests=.. elapsed_micros=.. rps=..` line.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use cosa_bench::{flag_value, parse_flag, write_csv};
use cosa_repro::serve::{
    CommonArgs, LatencyRecorder, ScheduleRequest, ScheduleResponse, StatsResponse,
};
use cosa_serve::http;
use cosa_spec::{fanout, Network, Suite};

/// Poll `/v1/healthz` until the daemon answers 200 or the deadline passes.
fn wait_ready(addr: SocketAddr, wait: Duration) {
    let deadline = Instant::now() + wait;
    loop {
        if let Ok(resp) = http::request(addr, "GET", "/v1/healthz", "") {
            if resp.is_ok() {
                return;
            }
        }
        assert!(
            Instant::now() < deadline,
            "daemon at {addr} not ready within {wait:?}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// The daemon's `/v1/stats`.
fn get_stats(addr: SocketAddr) -> StatsResponse {
    let resp = http::request(addr, "GET", "/v1/stats", "").expect("GET /v1/stats");
    assert!(resp.is_ok(), "/v1/stats at {addr} answered {}", resp.status);
    serde_json::from_str(&resp.body).expect("stats parse")
}

/// The canonical (volatile-stripped) serialization of a response body —
/// what byte-identity across cold/warm runs is asserted on.
fn canonicalize(body: &str) -> String {
    let response: ScheduleResponse = serde_json::from_str(body).expect("response parse");
    assert!(
        response.error.is_none(),
        "daemon answered an error: {:?}",
        response.error
    );
    serde_json::to_string(&response.without_timings()).expect("canonical form serializes")
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let addr: SocketAddr = flag_value(&args, "--addr")
        .unwrap_or_else(|| "127.0.0.1:7878".to_string())
        .parse()
        .expect("valid --addr HOST:PORT");
    let requests: usize = parse_flag(&args, "--requests").unwrap_or(12);
    let concurrency: usize = parse_flag(&args, "--concurrency").unwrap_or(4);
    let quick = args.iter().any(|a| a == "--quick");
    let suite: Suite = flag_value(&args, "--suite")
        .as_deref()
        .unwrap_or("resnet50")
        .parse()
        .expect("known suite (alexnet|resnet50|resnext50|deepbench|bertbase|gptmini|mobilenetv2)");
    let mixed: Vec<Suite> = flag_value(&args, "--suites")
        .map(|list| {
            list.split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(|s| s.parse().expect("known suite in --suites"))
                .collect()
        })
        .unwrap_or_default();
    let common = CommonArgs::parse(&args);
    let scheduler = common.scheduler.clone();
    let interlayer = common.interlayer;
    let wait = Duration::from_secs(parse_flag(&args, "--wait-secs").unwrap_or(60));
    let expect_warm = args.iter().any(|a| a == "--expect-warm");
    let max_warm_p99 =
        Duration::from_millis(parse_flag(&args, "--max-warm-p99-millis").unwrap_or(2000));
    let artifact = flag_value(&args, "--artifact")
        .unwrap_or_else(|| "results/serve_probe_response.json".to_string());
    let latency_csv =
        flag_value(&args, "--latency-csv").unwrap_or_else(|| "serve_probe_latency.csv".to_string());
    let shutdown = args.iter().any(|a| a == "--shutdown");
    let storm = args.iter().any(|a| a == "--concurrency-storm");

    // Mixed-suite mode serves one whole-network payload per listed suite;
    // otherwise everything derives from the single `--suite` network.
    let networks: Vec<Network> = if mixed.is_empty() {
        vec![Network::from_suite(suite)]
    } else {
        mixed.iter().map(|s| Network::from_suite(*s)).collect()
    }
    .into_iter()
    .map(|mut n| {
        if quick {
            n.layers.truncate(8);
        }
        n
    })
    .collect();

    // The payloads up front; request `i` sends payload `i % len`, and its
    // answer must be canonically identical to every other answer for that
    // payload. Storm mode fires M copies of one identical layer request (a
    // single unique digest), so "exactly one solve" is assertable on
    // /v1/stats; otherwise one whole-network payload per network repeats.
    let payloads: Vec<ScheduleRequest> = if storm {
        let layer = networks[0]
            .layers
            .first()
            .expect("non-empty network")
            .layer
            .clone();
        vec![ScheduleRequest::for_layer(layer).with_scheduler(&scheduler)]
    } else {
        networks
            .iter()
            .map(|n| {
                let mut request =
                    ScheduleRequest::for_network(n.clone()).with_scheduler(&scheduler);
                if interlayer.enabled {
                    request = request.with_interlayer(interlayer);
                }
                request
            })
            .collect()
    };
    let bodies: Vec<String> = payloads
        .iter()
        .map(|request| serde_json::to_string(request).expect("request serializes"))
        .collect();

    let workload_label = networks
        .iter()
        .map(|n| n.name.as_str())
        .collect::<Vec<_>>()
        .join("+");
    let total_instances: u64 = networks.iter().map(Network::num_instances).sum();
    println!(
        "serve probe — {requests} requests x{concurrency} to {addr} ({workload_label}, {total_instances} instances, `{scheduler}`{})",
        if storm { ", concurrency storm" } else { "" },
    );
    wait_ready(addr, wait);
    let before = get_stats(addr);

    // Fire the request set from a fixed-width client pool, this thread
    // being one of the clients.
    let order: Vec<usize> = (0..requests).collect();
    let started = Instant::now();
    let outcomes = fanout::map(&order, concurrency, |&i| {
        let body = &bodies[i % bodies.len()];
        // The daemon sheds load with 429 once its bounded queue
        // fills; back off and retry a few times so the probe
        // measures the serving path, not the shedding path.
        let mut attempt = 0;
        let (micros, resp) = loop {
            let sent = Instant::now();
            let resp =
                http::request(addr, "POST", "/v1/schedule", body).expect("POST /v1/schedule");
            if resp.status == 429 && attempt < 5 {
                attempt += 1;
                std::thread::sleep(Duration::from_millis(50 * attempt));
                continue;
            }
            break (sent.elapsed().as_micros() as u64, resp);
        };
        (i, micros, resp.status, resp.body)
    });
    let elapsed = started.elapsed();

    // Every answer must be 200 and canonically identical to the other
    // answers for its payload.
    let mut canonical: Vec<Option<String>> = vec![None; bodies.len()];
    for (i, _, status, resp_body) in &outcomes {
        assert_eq!(*status, 200, "request {i} answered {status}: {resp_body}");
        let c = canonicalize(resp_body);
        let group = i % bodies.len();
        match &canonical[group] {
            None => canonical[group] = Some(c),
            Some(first) => assert_eq!(
                first, &c,
                "request {i} answered a canonically different body"
            ),
        }
    }

    // The daemon's own /v1/stats percentiles come from this recorder
    // type, so client- and server-side numbers use the same definition.
    let mut recorder = LatencyRecorder::new();
    for (_, micros, ..) in &outcomes {
        recorder.record(*micros);
    }
    let (p50, p99, max) = (
        recorder.percentile(0.50),
        recorder.percentile(0.99),
        recorder.max(),
    );
    println!(
        "  {requests} ok in {elapsed:.2?} — client latency p50 {p50}µs, p99 {p99}µs, max {max}µs"
    );
    // Machine-readable throughput, for comparing runs.
    println!(
        "probe-throughput: requests={requests} elapsed_micros={} rps={:.2}",
        elapsed.as_micros(),
        requests as f64 / elapsed.as_secs_f64().max(1e-9),
    );

    // Every counter below is this run's delta, not the daemon's lifetime
    // total (only the daemon p99, a recent-window percentile, is not a
    // counter).
    let after = get_stats(addr);
    let solves = after.cache.misses - before.cache.misses;
    let noc_sims = after.cache.noc_sims - before.cache.noc_sims;
    let dedup_waits = after.cache.dedup_waits - before.cache.dedup_waits;
    println!(
        "  /v1/stats: +{} served, {solves} fresh solves, {dedup_waits} dedup waits, {noc_sims} NoC sims, {} rejected, daemon p99 {}µs, {} gc runs",
        after.served - before.served,
        after.rejected - before.rejected,
        after.p99_micros,
        after.gc_runs - before.gc_runs,
    );
    println!(
        "  disk tier: index={} segment={}B (live {}B, dead {}B), {} compactions",
        after.cache.disk_index_entries,
        after.cache.segment_bytes,
        after.cache.segment_live_bytes,
        after.cache.segment_dead_bytes,
        after.cache.compactions,
    );
    // Per-backend fresh-solve delta across this probe run. Backends
    // the daemon had never used before the probe simply start from zero.
    let win_delta: Vec<(String, u64, u64)> = after
        .cache
        .backend_wins
        .iter()
        .map(|w| {
            let prior = before
                .cache
                .backend_wins
                .iter()
                .find(|b| b.backend == w.backend);
            (
                w.backend.clone(),
                w.wins - prior.map_or(0, |b| b.wins),
                w.win_micros - prior.map_or(0, |b| b.win_micros),
            )
        })
        .filter(|(_, wins, _)| *wins > 0)
        .collect();
    let total_wins: u64 = win_delta.iter().map(|(_, wins, _)| wins).sum();
    for (backend, wins, micros) in &win_delta {
        println!(
            "  backend {backend:<10} {wins:>4} solves ({:>5.1}%), {:.3}s solving wall-clock",
            100.0 * *wins as f64 / total_wins as f64,
            *micros as f64 / 1e6,
        );
    }

    if storm {
        // The single-flight acceptance criterion: M identical cold
        // requests, one unique digest, exactly one solver call. (On a
        // box where the daemon drained the storm serially, the remaining
        // requests are plain cache hits — still exactly one solve.)
        assert_eq!(
            solves, 1,
            "concurrency storm: {requests} identical cold requests for one \
             unique digest must cost exactly 1 solve, /v1/stats shows {solves}"
        );
        println!(
            "  storm contract holds: 1 solve for 1 unique digest across {requests} requests, \
             {dedup_waits} dedup waits, in-flight peak {}",
            after.cache.in_flight_peak
        );
    }

    if expect_warm {
        assert_eq!(solves, 0, "warm pass must add zero solver calls");
        assert_eq!(noc_sims, 0, "warm pass must add zero NoC simulations");
        assert_eq!(
            after.served - before.served,
            requests as u64,
            "every probe request must be served"
        );
        let p99 = Duration::from_micros(p99);
        assert!(
            p99 <= max_warm_p99,
            "warm p99 {p99:?} exceeds bound {max_warm_p99:?}"
        );
        println!("  warm contract holds: all hits, zero solves, zero NoC sims, p99 {p99:?}");
    }

    if let Some(dir) = std::path::Path::new(&artifact).parent() {
        std::fs::create_dir_all(dir).expect("create artifact dir");
    }
    // One canonical body per payload, in payload order: identical
    // workloads produce byte-identical artifacts.
    let canonical: Vec<String> = canonical
        .into_iter()
        .map(|c| c.expect("every payload group was exercised"))
        .collect();
    std::fs::write(&artifact, canonical.join("\n")).expect("write response artifact");
    println!("  wrote {artifact}");

    let rows: Vec<String> = outcomes
        .iter()
        .map(|(i, micros, status, _)| format!("{i},{micros},{status}"))
        .collect();
    let path = write_csv(&latency_csv, "request,micros,status", &rows);
    println!("  wrote {}", path.display());

    if shutdown {
        let resp = http::request(addr, "POST", "/v1/shutdown", "").expect("POST /v1/shutdown");
        assert!(resp.is_ok(), "shutdown answered {}", resp.status);
        // The daemon drains and exits; wait until its port stops answering.
        let deadline = Instant::now() + Duration::from_secs(30);
        while http::request(addr, "GET", "/v1/healthz", "").is_ok() {
            assert!(
                Instant::now() < deadline,
                "daemon at {addr} did not exit after /v1/shutdown"
            );
            std::thread::sleep(Duration::from_millis(100));
        }
        println!("  daemon shut down cleanly");
    }
}
