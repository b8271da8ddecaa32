//! Integration tests for the `cosa-serve` daemon: `/v1` request/response
//! round-trips, the one-wire rule (no unversioned routes, no top-level
//! knobs), error handling (the daemon must survive bad input), warm
//! restarts against a shared cache dir, and disk-tier GC eviction
//! ordering. Load shedding and graceful drain are front behaviour and
//! live in `tests/async_front.rs`.
//!
//! Every server runs on `127.0.0.1:0` (a fresh ephemeral port), with the
//! fast `random` scheduler and tiny layers so the whole file stays quick.

use std::path::PathBuf;
use std::time::{Duration, SystemTime};

use cosa_repro::engine::{CacheEntry, CacheStore, GcPolicy};
use cosa_repro::prelude::*;
use cosa_serve::http;
use cosa_serve::{ServeConfig, Server, ServerHandle};

mod common;

/// A fresh, empty scratch directory unique to this test invocation.
fn scratch_dir(tag: &str) -> PathBuf {
    common::scratch_dir("cosa-serve-test", tag)
}

/// A small network with repeated shapes (two unique, four entries).
fn tiny_network() -> Network {
    let a = Layer::conv("block_a", 3, 3, 8, 8, 16, 16, 1, 1, 1);
    let b = Layer::conv("block_b", 1, 1, 8, 8, 16, 32, 1, 1, 1);
    Network::new("tiny-resnet")
        .with_layer("stem", a.clone(), 1)
        .with_layer("stage1", b.clone(), 2)
        .with_layer("stage2", a, 1)
        .with_layer("stage3", b, 3)
}

/// A quick daemon: two workers, no persistence.
fn quick_server() -> ServerHandle {
    Server::start(ServeConfig::builder().workers(2).build()).expect("start daemon")
}

fn post_schedule(handle: &ServerHandle, request: &ScheduleRequest) -> http::Response {
    let body = serde_json::to_string(request).expect("request serializes");
    http::request(handle.addr(), "POST", "/v1/schedule", &body).expect("POST /v1/schedule")
}

fn get_stats(handle: &ServerHandle) -> StatsResponse {
    let resp = http::request(handle.addr(), "GET", "/v1/stats", "").expect("GET /v1/stats");
    assert_eq!(resp.status, 200);
    serde_json::from_str(&resp.body).expect("stats parse")
}

fn parse_response(resp: &http::Response) -> ScheduleResponse {
    serde_json::from_str(&resp.body).expect("response parses")
}

#[test]
fn layer_and_network_requests_round_trip() {
    let handle = quick_server();

    // Readiness: the daemon answers /v1/healthz as soon as it listens.
    let health = http::request(handle.addr(), "GET", "/v1/healthz", "").expect("GET /v1/healthz");
    assert_eq!(health.status, 200);
    let health: HealthResponse = serde_json::from_str(&health.body).expect("health parses");
    assert_eq!(health.status, "ok");
    assert_eq!(health.warm_entries, 0, "memory-only daemon starts cold");

    // Single layer → a Scheduled answer matching a direct engine call.
    let layer = Layer::conv("t", 3, 3, 8, 8, 16, 16, 1, 1, 1);
    let resp = post_schedule(
        &handle,
        &ScheduleRequest::for_layer(layer.clone()).with_scheduler("random"),
    );
    assert_eq!(resp.status, 200, "{}", resp.body);
    let parsed = parse_response(&resp);
    let scheduled = parsed.scheduled.expect("layer answer");
    assert!(parsed.report.is_none() && parsed.error.is_none());
    assert_eq!(scheduled.scheduler, "random");
    assert!(scheduled.schedule.is_valid(&layer, &Arch::simba_baseline()));

    let direct_engine = Engine::new(Arch::simba_baseline());
    let direct_scheduler = scheduler_from_name("random", direct_engine.arch()).unwrap();
    let direct = direct_engine
        .schedule_layer(direct_scheduler.as_ref(), &layer)
        .expect("direct schedule");
    assert_eq!(
        scheduled.schedule, direct.schedule,
        "daemon and direct engine agree (same registry, same fingerprint)"
    );

    // Inline network → a NetworkReport answer; repeated requests hit the
    // daemon's cache and stay canonically byte-identical.
    let request = ScheduleRequest::for_network(tiny_network()).with_scheduler("random");
    let first = post_schedule(&handle, &request);
    assert_eq!(first.status, 200, "{}", first.body);
    let report = parse_response(&first).report.expect("network answer");
    assert!(report.is_complete());
    assert_eq!(report.layers.len(), 4);

    let stats_before = get_stats(&handle);
    let second = post_schedule(&handle, &request);
    let stats_after = get_stats(&handle);
    assert_eq!(
        serde_json::to_string(&parse_response(&first).without_timings()).unwrap(),
        serde_json::to_string(&parse_response(&second).without_timings()).unwrap(),
        "repeat request answers are canonically byte-identical"
    );
    assert_eq!(
        stats_after.cache.misses, stats_before.cache.misses,
        "repeat request adds zero solver calls"
    );
    assert!(stats_after.served >= 3);
    assert_eq!(stats_after.workers, 2);

    handle.shutdown().expect("clean shutdown");
}

#[test]
fn new_suites_round_trip_over_the_wire() {
    // Each transformer-era / mobile-class suite asked for *by name* over
    // the wire must answer exactly what a direct engine run on the same
    // registry scheduler produces — canonically byte-identical, with the
    // full expansion (every repeated encoder block / inverted residual).
    let handle = quick_server();
    let direct_engine = Engine::new(Arch::simba_baseline());
    let direct_scheduler = scheduler_from_name("random", direct_engine.arch()).unwrap();

    for suite in [Suite::BertBase, Suite::GptMini, Suite::MobileNetV2] {
        let network = Network::from_suite(suite);
        let resp = post_schedule(
            &handle,
            &ScheduleRequest::for_suite(suite).with_scheduler("random"),
        );
        assert_eq!(resp.status, 200, "{}: {}", suite.name(), resp.body);
        let report = parse_response(&resp).report.expect("network answer");
        assert!(report.is_complete(), "{}: every layer", suite.name());
        assert_eq!(
            report.layers.len(),
            network.layers.len(),
            "{}: daemon expands the full suite",
            suite.name()
        );

        let direct = direct_engine.schedule_network(&network, direct_scheduler.as_ref());
        assert_eq!(
            serde_json::to_string(&report.without_timings()).unwrap(),
            serde_json::to_string(&direct.report.without_timings()).unwrap(),
            "{}: wire answer matches a direct engine run byte-identically",
            suite.name()
        );
    }

    // The short aliases resolve to the same suites on the wire.
    for (alias, canonical) in [
        ("bert", Suite::BertBase),
        ("gpt", Suite::GptMini),
        ("mbv2", Suite::MobileNetV2),
    ] {
        let body = format!(r#"{{"suite": "{alias}", "options": {{"scheduler": "random"}}}}"#);
        let resp = http::request(handle.addr(), "POST", "/v1/schedule", &body).unwrap();
        assert_eq!(resp.status, 200, "alias {alias}: {}", resp.body);
        let aliased = parse_response(&resp).report.expect("network answer");
        let via_name = post_schedule(
            &handle,
            &ScheduleRequest::for_suite(canonical).with_scheduler("random"),
        );
        assert_eq!(
            serde_json::to_string(&aliased.without_timings()).unwrap(),
            serde_json::to_string(
                &parse_response(&via_name)
                    .report
                    .expect("network answer")
                    .without_timings()
            )
            .unwrap(),
            "alias {alias} answers identically to {}",
            canonical.name()
        );
    }

    // An unknown suite is a clean 400 whose error names the full menu —
    // including the transformer-era additions.
    let resp = http::request(
        handle.addr(),
        "POST",
        "/v1/schedule",
        r#"{"suite": "vgg19"}"#,
    )
    .unwrap();
    assert_eq!(resp.status, 400);
    let error = parse_response(&resp).error.expect("error body");
    assert!(
        error.contains("bertbase") && error.contains("mobilenetv2"),
        "400 body lists the new suites: {error}"
    );

    handle.shutdown().expect("clean shutdown");
}

#[test]
fn only_v1_routes_and_options_knobs_are_served() {
    let handle = quick_server();
    let request = ScheduleRequest::for_layer(Layer::conv("t", 3, 3, 8, 8, 16, 16, 1, 1, 1))
        .with_scheduler("random");
    let body = serde_json::to_string(&request).unwrap();
    let mut responses = Vec::new();

    // There is one spelling of every route: the unversioned paths are
    // plain 404s like any other unknown path.
    for (method, path, payload) in [
        ("POST", "/schedule", body.as_str()),
        ("GET", "/stats", ""),
        ("GET", "/healthz", ""),
        ("GET", "/v2/stats", ""),
    ] {
        let resp = http::request(handle.addr(), method, path, payload).expect("request");
        assert_eq!(resp.status, 404, "{method} {path}: {}", resp.body);
        responses.push(resp);
    }

    // And one spelling of every knob: `scheduler` beside `layer` (instead
    // of inside `options`) is an unknown request field, named in the 400.
    let top_level = body.replacen(r#"{"options":{"#, r#"{"scheduler":"random","options":{"#, 1);
    assert_ne!(top_level, body, "the request serializes `options` first");
    let resp = http::request(handle.addr(), "POST", "/v1/schedule", &top_level).unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);
    let error = parse_response(&resp).error.expect("error body");
    assert!(
        error.contains("unknown request field `scheduler`"),
        "{error}"
    );
    responses.push(resp);

    let v1 = post_schedule(&handle, &request);
    assert_eq!(v1.status, 200, "{}", v1.body);
    responses.push(v1);
    for resp in &responses {
        assert!(resp.header("deprecation").is_none(), "{}", resp.body);
    }

    handle.shutdown().expect("clean shutdown");
}

#[test]
fn interlayer_options_flow_end_to_end() {
    let handle = quick_server();

    // Default request: per-layer scheduling, no `interlayer` section —
    // and no trace of the key in the wire bytes.
    let plain = ScheduleRequest::for_network(tiny_network()).with_scheduler("random");
    let resp = post_schedule(&handle, &plain);
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(
        !resp.body.contains("interlayer"),
        "default answers match the pre-PR-9 wire format"
    );
    let report = parse_response(&resp).report.expect("network answer");
    assert!(report.interlayer.is_none());
    let solves_after_plain = get_stats(&handle).cache.misses;

    // Memory-aware request on the same daemon: the residency section
    // appears and off-chip traffic strictly drops.
    let aware = plain.clone().with_interlayer(InterlayerOptions::enabled());
    let resp = post_schedule(&handle, &aware);
    assert_eq!(resp.status, 200, "{}", resp.body);
    let report = parse_response(&resp).report.expect("network answer");
    let section = report.interlayer.expect("interlayer section");
    assert!(section.offchip_bytes < section.baseline_offchip_bytes);
    // Memory-aware schedules never collide with the per-layer cache:
    // the aware request solved its shapes under distinct digests.
    assert!(
        get_stats(&handle).cache.misses > solves_after_plain,
        "memory-aware run must not reuse per-layer cache entries"
    );

    handle.shutdown().expect("clean shutdown");

    // A daemon started with residency on applies it to requests that
    // don't mention it — the daemon-wide default.
    let resident = Server::start(
        ServeConfig::builder()
            .workers(2)
            .interlayer(InterlayerOptions::enabled())
            .build(),
    )
    .expect("start daemon");
    let resp = post_schedule(&resident, &plain);
    assert_eq!(resp.status, 200, "{}", resp.body);
    let report = parse_response(&resp).report.expect("network answer");
    assert!(
        report.interlayer.is_some(),
        "daemon default applies to requests without explicit options"
    );
    resident.shutdown().expect("clean shutdown");
}

#[test]
fn malformed_requests_get_4xx_and_daemon_stays_up() {
    let handle = quick_server();

    // Malformed JSON → 400 with an error body.
    let resp = http::request(handle.addr(), "POST", "/v1/schedule", "{not json").unwrap();
    assert_eq!(resp.status, 400);
    assert!(parse_response(&resp).error.is_some());

    // Well-formed JSON without a work item → 400.
    let resp = http::request(handle.addr(), "POST", "/v1/schedule", "{}").unwrap();
    assert_eq!(resp.status, 400);

    // Arrays nested 10 000 deep, as a field's value and under a key the
    // reader skips, → 400: nesting past the reader's limit is an error, not
    // a stack overflow that takes the daemon down.
    let deep = format!("{}{}", "[".repeat(10_000), "]".repeat(10_000));
    for body in [
        format!(r#"{{"layer": {deep}}}"#),
        format!(r#"{{"layer": {{"name": "deep", "skipped": {deep}}}}}"#),
    ] {
        let resp = http::request(handle.addr(), "POST", "/v1/schedule", &body).unwrap();
        assert_eq!(resp.status, 400, "{}", resp.body);
        assert!(parse_response(&resp).error.is_some());
    }

    // Unknown scheduler and unknown suite → 400.
    let resp = post_schedule(
        &handle,
        &ScheduleRequest::for_suite(Suite::AlexNet).with_scheduler("annealing"),
    );
    assert_eq!(resp.status, 400);
    let resp = http::request(
        handle.addr(),
        "POST",
        "/v1/schedule",
        r#"{"suite": "vgg19"}"#,
    )
    .unwrap();
    assert_eq!(resp.status, 400);

    // A network entry that never runs, and the removed residency
    // selector, → 400s that name the field.
    let mut never_runs = tiny_network();
    never_runs.layers[1].count = 0;
    let resp = post_schedule(
        &handle,
        &ScheduleRequest::for_network(never_runs).with_scheduler("random"),
    );
    assert_eq!(resp.status, 400, "{}", resp.body);
    let error = parse_response(&resp).error.expect("error body");
    assert!(
        error.contains("`stage1`") && error.contains("`count`"),
        "{error}"
    );
    let resp = http::request(
        handle.addr(),
        "POST",
        "/v1/schedule",
        r#"{"suite": "alexnet", "options": {"scheduler": "random",
            "interlayer": {"enabled": true, "strategy": "milp"}}}"#,
    )
    .unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);
    let error = parse_response(&resp).error.expect("error body");
    assert!(error.contains("`strategy`"), "{error}");
    assert_eq!(
        http::request(handle.addr(), "GET", "/v1/healthz", "")
            .unwrap()
            .status,
        200
    );

    // Unknown route → 404; bad method → 405; not even HTTP → 400.
    assert_eq!(
        http::request(handle.addr(), "GET", "/v1/nope", "")
            .unwrap()
            .status,
        404
    );
    assert_eq!(
        http::request(handle.addr(), "DELETE", "/v1/schedule", "")
            .unwrap()
            .status,
        405
    );

    // After all that abuse the daemon still serves valid requests.
    let resp = post_schedule(
        &handle,
        &ScheduleRequest::for_layer(Layer::conv("ok", 3, 3, 8, 8, 16, 16, 1, 1, 1))
            .with_scheduler("random"),
    );
    assert_eq!(resp.status, 200, "{}", resp.body);
    let stats = get_stats(&handle);
    assert!(stats.errors >= 7, "error responses are counted");
    assert_eq!(stats.served, 1);

    handle.shutdown().expect("clean shutdown");
}

#[test]
fn two_daemons_sharing_a_cache_dir_solve_each_digest_once() {
    // Two cold daemons on one cache dir take concurrent identical
    // traffic: the per-digest solve locks (plus disk read-through) must
    // keep the *combined* solve count at one per unique digest, every
    // answer canonically byte-identical, and a third daemon started
    // afterwards must serve the same traffic as a 100% warm start.
    let dir = scratch_dir("cross-process-dedup");
    let config = || {
        ServeConfig::builder()
            .workers(2)
            .cache_dir(dir.clone())
            .build()
    };
    let daemon_a = Server::start(config()).expect("start daemon a");
    let daemon_b = Server::start(config()).expect("start daemon b");
    let request = ScheduleRequest::for_network(tiny_network()).with_scheduler("random");
    let unique = tiny_network().unique_shapes() as u64;

    let bodies: Vec<String> = std::thread::scope(|scope| {
        let mut clients = Vec::new();
        for daemon in [&daemon_a, &daemon_b] {
            for _ in 0..2 {
                let request = &request;
                clients.push(scope.spawn(move || {
                    let resp = post_schedule(daemon, request);
                    assert_eq!(resp.status, 200, "{}", resp.body);
                    serde_json::to_string(&parse_response(&resp).without_timings())
                        .expect("canonical form serializes")
                }));
            }
        }
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect()
    });
    for (i, body) in bodies.iter().enumerate().skip(1) {
        assert_eq!(body, &bodies[0], "answer {i} canonically diverged");
    }

    let stats_a = get_stats(&daemon_a);
    let stats_b = get_stats(&daemon_b);
    assert_eq!(
        stats_a.cache.misses + stats_b.cache.misses,
        unique,
        "exactly one solve per unique digest across both daemons \
         (a={:?}, b={:?})",
        stats_a.cache,
        stats_b.cache,
    );
    daemon_a.shutdown().expect("clean shutdown");
    daemon_b.shutdown().expect("clean shutdown");

    // A third daemon on the shared dir is fully warm: zero solves.
    let warm = Server::start(config()).expect("start warm daemon");
    let resp = post_schedule(&warm, &request);
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(
        serde_json::to_string(&parse_response(&resp).without_timings()).unwrap(),
        bodies[0],
        "warm daemon answers the same canonical body"
    );
    let warm_stats = get_stats(&warm);
    assert_eq!(warm_stats.cache.warm_entries as u64, unique);
    assert_eq!(warm_stats.cache.misses, 0, "third daemon is 100% hits");
    warm.shutdown().expect("clean shutdown");
}

#[test]
fn warm_restart_serves_from_shared_cache_dir() {
    let dir = scratch_dir("daemon-warm");
    let config = || {
        ServeConfig::builder()
            .workers(2)
            .cache_dir(dir.clone())
            .build()
    };
    let request = ScheduleRequest::for_network(tiny_network()).with_scheduler("random");

    // Cold daemon: solves, writes through, answers.
    let cold = Server::start(config()).expect("start cold daemon");
    let cold_resp = post_schedule(&cold, &request);
    assert_eq!(cold_resp.status, 200, "{}", cold_resp.body);
    let cold_stats = get_stats(&cold);
    assert_eq!(cold_stats.cache.warm_entries, 0);
    assert!(cold_stats.cache.misses > 0, "cold run solves");
    cold.shutdown().expect("clean shutdown");

    // Warm daemon on the same dir: zero solves, byte-identical answer.
    let warm = Server::start(config()).expect("start warm daemon");
    let health: HealthResponse = serde_json::from_str(
        &http::request(warm.addr(), "GET", "/v1/healthz", "")
            .unwrap()
            .body,
    )
    .unwrap();
    assert_eq!(health.warm_entries, 2, "restart warm-loads both shapes");
    let warm_resp = post_schedule(&warm, &request);
    assert_eq!(warm_resp.status, 200, "{}", warm_resp.body);
    let warm_stats = get_stats(&warm);
    assert_eq!(warm_stats.cache.misses, 0, "warm restart re-solves nothing");
    assert_eq!(
        serde_json::to_string(&parse_response(&cold_resp).without_timings()).unwrap(),
        serde_json::to_string(&parse_response(&warm_resp).without_timings()).unwrap(),
        "cold and warm daemon answers are canonically byte-identical"
    );
    warm.shutdown().expect("clean shutdown");
}

/// Build distinct-mtime store entries for the GC ordering tests.
fn populate_store(dir: &std::path::Path, keys: &[&str]) -> CacheStore {
    let engine = Engine::new(Arch::simba_baseline());
    let mapper = RandomMapper::new(11).with_limits(SearchLimits::quick());
    let scheduled = engine
        .schedule_layer(&mapper, &Layer::conv("t", 3, 3, 8, 8, 16, 16, 1, 1, 1))
        .expect("valid schedule");
    let store = CacheStore::open(dir).expect("open store");
    for key in keys {
        store
            .save(key, &CacheEntry::new(scheduled.clone()))
            .expect("save entry");
        // Entry files are LRU-by-mtime; space the writes out beyond any
        // filesystem timestamp granularity.
        std::thread::sleep(Duration::from_millis(20));
    }
    store
}

#[test]
fn gc_byte_budget_evicts_oldest_first() {
    let dir = scratch_dir("gc-order");
    let store = populate_store(&dir, &["aaa1", "bbb2", "ccc3"]);
    let disk = store.disk_stats();
    let total = disk.live_bytes;
    assert_eq!(disk.index_entries, 3);
    let per_entry = total / 3;

    // Budget for two entries: exactly the oldest is deleted.
    let report = store
        .gc(&GcPolicy::default().with_max_bytes(2 * per_entry + per_entry / 2))
        .expect("gc sweep");
    assert_eq!(report.examined, 3);
    assert_eq!(report.removed, 1, "one entry over budget");
    assert_eq!(report.retained, 2);
    assert!(report.retained_bytes <= 2 * per_entry + per_entry / 2);
    let survivors: Vec<String> = store.load().entries.into_iter().map(|(k, _)| k).collect();
    assert_eq!(
        survivors,
        ["bbb2", "ccc3"],
        "the oldest-written entry is the victim"
    );

    // Survivors are intact (GC deletes whole files, never truncates).
    assert_eq!(store.load().skipped, 0);

    // A byte budget smaller than any single entry still keeps the newest,
    // mirroring the in-memory LRU's newest-survives contract.
    let report = store
        .gc(&GcPolicy::default().with_max_bytes(1))
        .expect("gc");
    assert_eq!(report.retained, 1);
    assert_eq!(store.load().entries[0].0, "ccc3");
}

#[test]
fn gc_max_age_expires_entries_deterministically() {
    let dir = scratch_dir("gc-age");
    let store = populate_store(&dir, &["aaa1", "bbb2"]);
    // A temp file orphaned by a killed writer rides along in the dir.
    std::fs::write(dir.join(".orphan.123.tmp"), b"half-written").unwrap();

    // Nothing is older than an hour (gc_at with a pinned "now" instead of
    // sleeping through real TTLs), and the just-written temp file is not
    // yet stale.
    let policy = GcPolicy::default().with_max_age(Duration::from_secs(3600));
    let report = store.gc_at(&policy, SystemTime::now()).expect("gc");
    assert_eq!(report.removed, 0);
    assert_eq!(report.stale_tmp_removed, 0, "fresh temp files are spared");

    // From two hours in the future, everything has expired — age eviction
    // is a TTL and spares nothing, not even the newest entry — and the
    // orphaned temp file is swept too.
    let future = SystemTime::now() + Duration::from_secs(2 * 3600);
    let report = store.gc_at(&policy, future).expect("gc");
    assert_eq!(report.removed, 2);
    assert_eq!(report.retained, 0);
    assert_eq!(report.stale_tmp_removed, 1, "orphaned temp file swept");
    assert_eq!(store.disk_stats().index_entries, 0);
    assert_eq!(report.retained_bytes, 0);
    assert!(!dir.join(".orphan.123.tmp").exists());
}

#[test]
fn daemon_periodic_gc_keeps_disk_tier_bounded() {
    let dir = scratch_dir("daemon-gc");
    // Tiny byte budget, GC after every served request: the disk tier can
    // never hold more than one entry past a request boundary.
    let handle = Server::start(
        ServeConfig::builder()
            .workers(1)
            .cache_dir(dir.clone())
            .gc(GcPolicy::default().with_max_bytes(1))
            .gc_every(1)
            .build(),
    )
    .expect("start daemon");

    for layer in [
        Layer::conv("a", 3, 3, 8, 8, 16, 16, 1, 1, 1),
        Layer::conv("b", 1, 1, 8, 8, 16, 32, 1, 1, 1),
    ] {
        let resp = post_schedule(
            &handle,
            &ScheduleRequest::for_layer(layer).with_scheduler("random"),
        );
        assert_eq!(resp.status, 200, "{}", resp.body);
    }
    let stats = get_stats(&handle);
    assert!(stats.gc_runs >= 2, "startup + per-request sweeps ran");
    assert!(stats.gc_removed >= 1, "the over-budget entry was deleted");
    handle.shutdown().expect("clean shutdown");

    let store = CacheStore::open(&dir).expect("open store");
    assert_eq!(
        store.disk_stats().index_entries,
        1,
        "disk tier bounded to the newest entry"
    );
    assert_eq!(store.load().skipped, 0, "survivor is intact");
}

#[test]
fn a_suite_with_one_cold_shape_counts_each_hit_and_miss_once() {
    // Every AlexNet shape but the last is made resident through layer
    // requests; the suite request then cannot be answered from memory and
    // goes to a worker. Its memory-only attempt on the event loop must
    // count nothing, so `/v1/stats` moves by one hit per resident shape,
    // one miss for the cold one and one served request.
    let handle = quick_server();
    let network = Network::from_suite(Suite::AlexNet);
    let mut shapes: Vec<Layer> = Vec::new();
    for entry in &network.layers {
        if !shapes.contains(&entry.layer) {
            shapes.push(entry.layer.clone());
        }
    }
    let (cold, warm) = shapes.split_last().expect("AlexNet has layers");
    for layer in warm {
        let resp = post_schedule(
            &handle,
            &ScheduleRequest::for_layer(layer.clone()).with_scheduler("random"),
        );
        assert_eq!(resp.status, 200, "{}", resp.body);
    }

    let suite = ScheduleRequest::for_suite(Suite::AlexNet).with_scheduler("random");
    let before = get_stats(&handle);
    let resp = post_schedule(&handle, &suite);
    assert_eq!(resp.status, 200, "{}", resp.body);
    let after = get_stats(&handle);
    assert_eq!(after.cache.hits - before.cache.hits, warm.len() as u64);
    assert_eq!(
        after.cache.misses - before.cache.misses,
        1,
        "{} solves once",
        cold.name()
    );
    assert_eq!(after.served - before.served, 1);

    // Now every shape is resident: the repeat is all hits, no miss.
    let resp = post_schedule(&handle, &suite);
    assert_eq!(resp.status, 200, "{}", resp.body);
    let again = get_stats(&handle);
    assert_eq!(again.cache.hits - after.cache.hits, shapes.len() as u64);
    assert_eq!(again.cache.misses, after.cache.misses);
    assert_eq!(again.served - after.served, 1);
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn a_named_suite_answers_like_the_same_network_sent_inline() {
    // The daemon builds each suite's network once and lends it to every
    // suite request; the answer must be the one the same network sent
    // inline gets, byte for byte once the volatile fields are stripped —
    // cold (on a worker) and warm (on the event loop).
    let handle = quick_server();
    let named = ScheduleRequest::for_suite(Suite::ResNet50).with_scheduler("random");
    let inline =
        ScheduleRequest::for_network(Network::from_suite(Suite::ResNet50)).with_scheduler("random");
    let canonical = |request: &ScheduleRequest| {
        let resp = post_schedule(&handle, request);
        assert_eq!(resp.status, 200, "{}", resp.body);
        let report = parse_response(&resp).report.expect("network answer");
        serde_json::to_string(&report.without_timings()).unwrap()
    };
    let cold = canonical(&named);
    assert_eq!(canonical(&inline), cold, "inline, warm");
    assert_eq!(canonical(&named), cold, "named, warm");
    handle.shutdown().expect("clean shutdown");
}
