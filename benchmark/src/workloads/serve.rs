//! `serve_warm`: a closed loop of two clients against the in-process daemon
//! after every answer is already in its engine's LRU. Each client sends its
//! next request only when the previous one is answered, one connection per
//! request; 90 % ask for one layer (~2 kB answers), 10 % for a whole suite
//! (~45 kB answers). No solver runs: the time goes to accept, HTTP parse,
//! dispatch, JSON parse, cache lookup, serialization and the socket write.

use std::net::SocketAddr;
use std::sync::Once;

use cosa_repro::prelude::*;
use cosa_repro::serve::routing_digest;
use cosa_repro::spec::canon::digest128_hex;
use cosa_serve::http::{response_bytes, RequestParser};

use super::{answers_of, quick_random, timed, trace_engine, REPLAY_SAMPLE};
use crate::daemon::{connect, exchange, port_exhaustion_warning, request_bytes, send, Daemon};
use crate::draw::{stratified_draw, Rng};
use crate::harness::{OpSample, Pass, PerLayer, Scratch, Workload};
use crate::stats::{median, percentile, sorted};
use crate::trace::Recorder;

/// Concurrent closed-loop clients (the box has two cores, and the daemon
/// two workers).
const CLIENTS: usize = 2;

/// Requests each client sends per pass: about 3 s of a pass at the
/// measured ~8k requests/s.
const REQUESTS_PER_CLIENT: usize = 12_000;

/// Share of requests asking for a whole suite.
const SUITE_SHARE: f64 = 0.10;

/// Requests of the traced single-client loop.
const TRACED_REQUESTS: usize = 2_000;

/// The suites the clients ask about.
const SUITES: [Suite; 4] = [
    Suite::AlexNet,
    Suite::ResNet50,
    Suite::MobileNetV2,
    Suite::GptMini,
];

const LAYER: usize = 0;
const SUITE: usize = 1;
const CLASS_NAMES: [&str; 2] = ["layer", "suite"];

/// One distinct request the clients can send.
struct Prepared {
    /// The request object (for the wire replays and the direct answer).
    request: ScheduleRequest,
    /// The bytes on the wire.
    bytes: Vec<u8>,
}

/// What the last plain pass saw, for the traced run's `front.*` metrics.
#[derive(Default)]
struct LastPass {
    latencies: [Vec<f64>; 2],
    rps: f64,
}

/// `serve_warm` after set-up: a warm daemon and the clients' scripts.
pub struct ServeWarm {
    arch: Arch,
    // Declared before `scratch`: the daemon must stop before its cache
    // directory goes away.
    daemon: Daemon,
    _scratch: Scratch,
    /// `[layer requests, suite requests]`.
    prepared: [Vec<Prepared>; 2],
    /// Per client, the `(class, index)` sequence it sends each pass.
    scripts: Vec<Vec<(usize, usize)>>,
    /// Solver invocations the daemon had counted once warm.
    warm_misses: u64,
    last: LastPass,
}

static PORT_PREFLIGHT: Once = Once::new();

impl ServeWarm {
    /// Start the daemon, warm it with every request once, and script the
    /// clients from `seed`.
    pub fn setup(seed: u64) -> Result<ServeWarm, String> {
        PORT_PREFLIGHT.call_once(|| {
            // A pass lasts ~3 s and TIME_WAIT holds a closed connection's
            // port for 60 s: twenty passes' worth can be held at once.
            let within_a_minute = (CLIENTS * REQUESTS_PER_CLIENT * 20) as u64;
            if let Some(warning) = port_exhaustion_warning(within_a_minute) {
                eprintln!("[serve_warm] warning: {warning}");
            }
        });
        let scratch = Scratch::new("serve").map_err(|e| format!("scratch dir: {e}"))?;
        let daemon = Daemon::start(scratch.path(), CLIENTS).map_err(|e| format!("daemon: {e}"))?;
        let addr = daemon.addr();

        let prepare = |request: ScheduleRequest| {
            let body = serde_json::to_string(&request).expect("request serializes");
            Prepared {
                bytes: request_bytes(addr, "POST", "/v1/schedule", &body),
                request,
            }
        };
        let mut layers: Vec<Layer> = Vec::new();
        for suite in SUITES {
            for entry in Network::from_suite(suite).layers {
                if !layers.contains(&entry.layer) {
                    layers.push(entry.layer);
                }
            }
        }
        let prepared = [
            layers
                .into_iter()
                .map(|l| prepare(ScheduleRequest::for_layer(l).with_scheduler("random")))
                .collect::<Vec<_>>(),
            SUITES
                .iter()
                .map(|s| prepare(ScheduleRequest::for_suite(*s).with_scheduler("random")))
                .collect::<Vec<_>>(),
        ];

        // Suites first: they solve every layer once, so the layer requests
        // below are already hits.
        for class in [SUITE, LAYER] {
            for p in &prepared[class] {
                let reply = send(addr, &p.bytes).map_err(|e| format!("prewarm: {e}"))?;
                if reply.status != 200 {
                    return Err(format!("prewarm answered {}: {}", reply.status, reply.body));
                }
            }
        }
        let warm_misses = daemon_stats(addr)?.cache.misses;

        let suite_picks = (REQUESTS_PER_CLIENT as f64 * SUITE_SHARE) as usize;
        let picks = [REQUESTS_PER_CLIENT - suite_picks, suite_picks];
        let sizes = [prepared[LAYER].len(), prepared[SUITE].len()];
        let mut rng = Rng::new(seed);
        let scripts = (0..CLIENTS)
            .map(|_| stratified_draw(&mut rng, &sizes, &picks))
            .collect();
        Ok(ServeWarm {
            arch: Arch::simba_baseline(),
            daemon,
            _scratch: scratch,
            prepared,
            scripts,
            warm_misses,
            last: LastPass::default(),
        })
    }
}

fn daemon_stats(addr: SocketAddr) -> Result<StatsResponse, String> {
    let reply = send(addr, &request_bytes(addr, "GET", "/v1/stats", ""))
        .map_err(|e| format!("stats: {e}"))?;
    serde_json::from_str(&reply.body).map_err(|e| format!("stats body: {e}"))
}

/// What one client brings back from a pass.
#[derive(Default)]
struct ClientLog {
    ops: Vec<(usize, f64)>,
    failed: u64,
    /// The last body seen per `(class, index)`.
    bodies: [Vec<Option<String>>; 2],
}

fn run_client(
    addr: SocketAddr,
    prepared: &[Vec<Prepared>; 2],
    script: &[(usize, usize)],
) -> ClientLog {
    let mut log = ClientLog {
        ops: Vec::with_capacity(script.len()),
        bodies: [
            vec![None; prepared[LAYER].len()],
            vec![None; prepared[SUITE].len()],
        ],
        ..ClientLog::default()
    };
    for &(class, index) in script {
        let (reply, secs) = timed(|| send(addr, &prepared[class][index].bytes));
        log.ops.push((class, secs));
        match reply {
            // Connect errors, 429 and 5xx alike: the user got no answer.
            Ok(reply) if reply.status == 200 => log.bodies[class][index] = Some(reply.body),
            _ => log.failed += 1,
        }
    }
    log
}

/// A daemon body with its volatile parts (wall-clock, cache counters) zeroed.
fn canonical_body(body: &str) -> Result<(ScheduleResponse, String), String> {
    let response: ScheduleResponse =
        serde_json::from_str(body).map_err(|e| format!("unparseable body: {e}"))?;
    let response = response.without_timings();
    let json = serde_json::to_string(&response).map_err(|e| e.to_string())?;
    Ok((response, json))
}

impl Workload for ServeWarm {
    fn pass(&mut self) -> Pass {
        let addr = self.daemon.addr();
        let prepared = &self.prepared;
        let (logs, wall_s) = timed(|| {
            std::thread::scope(|scope| {
                let clients: Vec<_> = self
                    .scripts
                    .iter()
                    .map(|script| scope.spawn(move || run_client(addr, prepared, script)))
                    .collect();
                clients
                    .into_iter()
                    .map(|c| c.join().expect("client thread panicked"))
                    .collect::<Vec<ClientLog>>()
            })
        });

        let mut pass = Pass {
            wall_s,
            ..Pass::default()
        };
        self.last = LastPass::default();
        let mut bodies: [Vec<Option<String>>; 2] = [
            vec![None; prepared[LAYER].len()],
            vec![None; prepared[SUITE].len()],
        ];
        for log in logs {
            pass.failed += log.failed;
            for (class, secs) in log.ops {
                self.last.latencies[class].push(secs);
                pass.ops.push(OpSample {
                    class: CLASS_NAMES[class].to_string(),
                    secs,
                });
            }
            for class in [LAYER, SUITE] {
                for (slot, body) in bodies[class].iter_mut().zip(&log.bodies[class]) {
                    if body.is_some() {
                        slot.clone_from(body);
                    }
                }
            }
        }
        self.last.rps = pass.ops.len() as f64 / wall_s;

        // The answers behind the exact sums: every entry of the four suite
        // reports. Canonical bytes: every distinct body, timings zeroed.
        let mut canonical = String::new();
        for class in [LAYER, SUITE] {
            for (index, body) in bodies[class].iter().enumerate() {
                let Some(body) = body else { continue };
                match canonical_body(body) {
                    Ok((response, json)) => {
                        canonical.push_str(&json);
                        if let (SUITE, Some(report)) = (class, &response.report) {
                            let network = Network::from_suite(SUITES[index]);
                            answers_of(&network, report, &mut pass.answers);
                        }
                    }
                    Err(e) => {
                        eprintln!("[serve_warm] {} #{index}: {e}", CLASS_NAMES[class]);
                        pass.failed += 1;
                    }
                }
            }
        }
        pass.canonical = digest128_hex(canonical.as_bytes());
        pass
    }

    fn check(&mut self, pass: &Pass) -> Vec<String> {
        let mut failures = Vec::new();
        let addr = self.daemon.addr();
        match daemon_stats(addr) {
            Ok(stats) => {
                if stats.cache.misses != self.warm_misses {
                    failures.push(format!(
                        "{} solver calls while warm",
                        stats.cache.misses - self.warm_misses
                    ));
                }
                if stats.cache.store_errors != 0 {
                    failures.push(format!("{} store errors", stats.cache.store_errors));
                }
            }
            Err(e) => failures.push(e),
        }
        if pass.answers.is_empty() {
            failures.push("no suite report came back".to_string());
        }
        // A sample of daemon bodies against the engine asked directly.
        let engine = Engine::new(self.arch.clone()).with_threads(1);
        let random = quick_random();
        let every = (self.prepared[LAYER].len() / 16).max(1);
        let sample = self.prepared[LAYER]
            .iter()
            .step_by(every)
            .chain(&self.prepared[SUITE]);
        for p in sample {
            let direct = match (&p.request.layer, &p.request.suite) {
                (Some(layer), _) => engine
                    .schedule_layer(&random, layer)
                    .map(ScheduleResponse::from_scheduled)
                    .map_err(|e| e.to_string()),
                (None, Some(suite)) => {
                    let suite: Suite = suite.parse().expect("suite name");
                    let run = engine.schedule_network(&Network::from_suite(suite), &random);
                    Ok(ScheduleResponse::from_report(run.report))
                }
                _ => unreachable!("requests name a layer or a suite"),
            };
            let what = p.request.suite.clone().unwrap_or_else(|| {
                p.request
                    .layer
                    .as_ref()
                    .map_or_else(String::new, |l| l.name().to_string())
            });
            let served = send(addr, &p.bytes)
                .map_err(|e| e.to_string())
                .and_then(|reply| canonical_body(&reply.body));
            match (direct, served) {
                (Ok(direct), Ok((_, served))) => {
                    let direct =
                        serde_json::to_string(&direct.without_timings()).unwrap_or_default();
                    if direct != served {
                        failures.push(format!(
                            "{what}: daemon body differs from the engine's answer"
                        ));
                    }
                }
                (Err(e), _) | (_, Err(e)) => failures.push(format!("{what}: {e}")),
            }
        }
        failures
    }

    fn traced(&mut self, rec: &mut Recorder, metrics: &mut PerLayer) {
        let addr = self.daemon.addr();
        let arch = &self.arch;
        let off = InterlayerOptions::disabled();

        // Stage replays on the real requests and answers: the daemon's
        // handler is private, its stages are these public calls.
        let mean_us = |secs: f64, n: usize| secs * 1e6 / n.max(1) as f64;
        let mut suite_answers = Vec::new();
        for (class, bytes_metric, serialize_metric) in [
            (LAYER, "wire.bytes_layer", "wire.serialize_layer_us"),
            (SUITE, "wire.bytes_suite", "wire.serialize_suite_us"),
        ] {
            let (mut bytes, mut serialize_s, mut http_out_s) = (0usize, 0.0, 0.0);
            let (mut parse_s, mut digest_s, mut http_in_s) = (0.0, 0.0, 0.0);
            let requests = &self.prepared[class];
            for (op, p) in requests.iter().enumerate() {
                let op = op as u64;
                let Ok(reply) = send(addr, &p.bytes) else {
                    continue;
                };
                let Ok(response) = serde_json::from_str::<ScheduleResponse>(&reply.body) else {
                    continue;
                };
                let body = serde_json::to_string(&p.request).expect("request serializes");
                http_in_s += rec
                    .time("http.parse", op, || RequestParser::new().feed(&p.bytes))
                    .1;
                parse_s += rec
                    .time("wire.request_parse", op, || {
                        serde_json::from_str::<ScheduleRequest>(&body)
                    })
                    .1;
                digest_s += rec
                    .time("wire.routing_digest", op, || {
                        routing_digest(&p.request, arch, &off)
                    })
                    .1;
                let (json, secs) =
                    rec.time("wire.serialize", op, || serde_json::to_string(&response));
                serialize_s += secs;
                let json = json.expect("response serializes");
                bytes += json.len();
                http_out_s += rec
                    .time("http.response_bytes", op, || {
                        response_bytes(200, &json, &[])
                    })
                    .1;
                if class == SUITE {
                    suite_answers.push(response);
                }
            }
            let n = requests.len();
            metrics.insert(bytes_metric, bytes as f64 / n.max(1) as f64);
            metrics.insert(serialize_metric, mean_us(serialize_s, n));
            if class == LAYER {
                metrics.insert("wire.request_parse_us", mean_us(parse_s, n));
                metrics.insert("wire.routing_digest_us", mean_us(digest_s, n));
                metrics.insert("http.parse_us", mean_us(http_in_s, n));
                metrics.insert("http.response_bytes_us", mean_us(http_out_s, n));
            }
        }

        // One client, so connect and exchange can be told apart per request.
        let (mut connects, mut totals) = (Vec::new(), Vec::new());
        for (op, &(class, index)) in self.scripts[0].iter().take(TRACED_REQUESTS).enumerate() {
            let request = rec.begin("front.request", op as u64);
            let (stream, connect_s) = rec.time("front.connect", op as u64, || connect(addr));
            if let Ok(mut stream) = stream {
                let _ = exchange(&mut stream, &self.prepared[class][index].bytes);
            }
            totals.push(rec.end(request));
            connects.push(connect_s);
        }
        let client_p50 = median(&totals) * 1e6;
        metrics.insert("front.connect_us", median(&connects) * 1e6);
        if let Ok(stats) = daemon_stats(addr) {
            metrics.insert("front.service_p50_us", stats.p50_micros as f64);
            metrics.insert(
                "front.client_overhead_p50_us",
                client_p50 - stats.p50_micros as f64,
            );
            metrics.insert("front.rejected", stats.rejected as f64);
            metrics.insert("front.errors", stats.errors as f64);
            metrics.insert("store.store_errors", stats.cache.store_errors as f64);
            metrics.insert("store.segment_bytes", stats.cache.segment_bytes as f64);
            metrics.insert("engine.dedup_hits", stats.cache.hits as f64);
            metrics.insert("engine.fresh_solves", stats.cache.misses as f64);
        }
        // p99s come from the plain two-client pass: they need its sample
        // count, and they are per-layer because they moved 13 % between
        // identical runs on this box.
        let p99 = |class: usize| {
            percentile(&sorted(&self.last.latencies[class]), 0.99).unwrap_or(0.0) * 1e6
        };
        metrics.insert("front.layer_p99_us", p99(LAYER));
        metrics.insert("front.suite_p99_us", p99(SUITE));
        metrics.insert("front.warm_rps", self.last.rps);

        let mut answers = Vec::new();
        for (suite, response) in SUITES.iter().zip(&suite_answers) {
            let Some(report) = &response.report else {
                continue;
            };
            answers_of(&Network::from_suite(*suite), report, &mut answers);
        }
        // The model, the simulator and the mappers take no part in a warm
        // answer: no replays of them here, their metrics stay 0.
        trace_engine(rec, metrics, arch, &answers, REPLAY_SAMPLE);
    }

    fn teardown(&mut self) {
        if let Err(e) = self.daemon.stop() {
            eprintln!("[serve_warm] daemon did not stop cleanly: {e}");
        }
    }
}
