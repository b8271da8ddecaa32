//! Tests for the sharded serving tier: a `cosa-router` over three shard
//! daemons must route every digest to exactly one owner (zero duplicate
//! solves fleet-wide, proven by summed `/v1/stats`), answer canonically
//! byte-identically to a single daemon, merge fleet health, and speak
//! only `/v1`.
//!
//! Each shard gets its **own** cache directory, so dedup here is the
//! hash ring doing its job — not the shared-dir solve locks.

use std::collections::HashSet;

use cosa_repro::prelude::*;
use cosa_repro::serve::routing_digest;
use cosa_serve::http;
use cosa_serve::router::{Router, RouterConfig};
use cosa_serve::shard::HashRing;
use cosa_serve::{ServeConfig, Server, ServerHandle};

mod common;

/// Eight distinct tiny layers: eight unique digests to spread over the
/// ring.
fn layers() -> Vec<Layer> {
    (0..8)
        .map(|i| Layer::conv(format!("l{i}"), 3, 3, 8, 8, 16, 16 + i, 1, 1, 1))
        .collect()
}

fn requests() -> Vec<ScheduleRequest> {
    layers()
        .into_iter()
        .map(|l| ScheduleRequest::for_layer(l).with_scheduler("random"))
        .collect()
}

/// Three shards on private cache dirs plus a router over them.
fn start_fleet(tag: &str, cascade: bool) -> (Vec<ServerHandle>, ServerHandle) {
    let shards: Vec<ServerHandle> = (0..3)
        .map(|i| {
            let dir = common::scratch_dir("cosa-shard-test", &format!("{tag}-{i}"));
            Server::start(ServeConfig::builder().workers(2).cache_dir(dir).build())
                .expect("start shard")
        })
        .collect();
    let router = Router::start(RouterConfig {
        serve: ServeConfig::builder().workers(2).build(),
        shards: shards.iter().map(|s| s.addr().to_string()).collect(),
        cascade_shutdown: cascade,
    })
    .expect("start router");
    (shards, router)
}

fn get_stats(handle: &ServerHandle) -> StatsResponse {
    let resp = http::request(handle.addr(), "GET", "/v1/stats", "").expect("GET /v1/stats");
    assert_eq!(resp.status, 200, "{}", resp.body);
    serde_json::from_str(&resp.body).expect("stats parse")
}

#[test]
fn three_shards_solve_each_digest_exactly_once() {
    let (shards, router) = start_fleet("dedup", false);

    // Fire every request twice through the router.
    let mut canonical: Vec<Vec<String>> = vec![Vec::new(); requests().len()];
    for _round in 0..2 {
        for (i, request) in requests().iter().enumerate() {
            let body = serde_json::to_string(request).unwrap();
            let resp =
                http::request(router.addr(), "POST", "/v1/schedule", &body).expect("schedule");
            assert_eq!(resp.status, 200, "request {i}: {}", resp.body);
            let parsed: ScheduleResponse = serde_json::from_str(&resp.body).unwrap();
            assert!(parsed.error.is_none());
            canonical[i].push(serde_json::to_string(&parsed.without_timings()).expect("canonical"));
        }
    }
    for (i, bodies) in canonical.iter().enumerate() {
        assert_eq!(
            bodies[0], bodies[1],
            "request {i}: rounds answered canonically different bodies"
        );
    }

    // Zero duplicate solves fleet-wide: the summed stats the router
    // serves show exactly one miss per unique routing digest.
    let unique: HashSet<String> = requests()
        .iter()
        .map(|r| routing_digest(r, &Arch::simba_baseline(), &Default::default()))
        .collect();
    assert_eq!(
        unique.len(),
        requests().len(),
        "distinct layers, distinct digests"
    );
    let fleet = get_stats(&router);
    assert_eq!(
        fleet.cache.misses,
        unique.len() as u64,
        "fleet-wide solves must equal unique digests"
    );
    assert_eq!(fleet.served as usize, 2 * requests().len());
    assert_eq!(fleet.workers, 3 * 2, "stats merge sums shard workers");

    // Per-shard stats agree: each digest was solved on exactly one shard,
    // and the ring's owner is where the solve landed.
    let ring = HashRing::new(shards.iter().map(|s| s.addr().to_string()).collect());
    let mut expected = vec![0u64; shards.len()];
    for request in &requests() {
        expected[ring.owner_index(&routing_digest(
            request,
            &Arch::simba_baseline(),
            &Default::default(),
        ))] += 1;
    }
    for (shard, want) in shards.iter().zip(&expected) {
        assert_eq!(
            get_stats(shard).cache.misses,
            *want,
            "shard {} solved exactly its slice of the ring",
            shard.addr()
        );
    }

    router.shutdown().expect("router shutdown");
    for shard in shards {
        shard.shutdown().expect("shard shutdown");
    }
}

#[test]
fn router_health_and_versioning() {
    let (shards, router) = start_fleet("health", false);

    // Healthy fleet → healthy router.
    let resp = http::request(router.addr(), "GET", "/v1/healthz", "").expect("healthz");
    assert_eq!(resp.status, 200, "{}", resp.body);
    let health: HealthResponse = serde_json::from_str(&resp.body).unwrap();
    assert_eq!(health.status, "ok");

    // The router speaks only /v1, like the daemons behind it.
    for (method, path) in [
        ("GET", "/stats"),
        ("GET", "/healthz"),
        ("POST", "/schedule"),
    ] {
        let resp = http::request(router.addr(), method, path, "").expect("unversioned");
        assert_eq!(resp.status, 404, "{method} {path} must 404 at the router");
        assert!(resp.header("deprecation").is_none());
    }

    // Malformed requests are rejected at the router, never forwarded.
    let resp = http::request(router.addr(), "POST", "/v1/schedule", "{nope").unwrap();
    assert_eq!(resp.status, 400);
    let fleet_errors: u64 = shards.iter().map(|s| get_stats(s).errors).sum();
    assert_eq!(fleet_errors, 0, "shards never saw the malformed request");

    // A dead shard turns the fleet unhealthy and stats into a 502.
    let (first, rest) = shards.split_first().expect("three shards");
    let dead_addr = first.addr();
    shards[0].begin_shutdown();
    let _ = rest; // remaining shards keep running
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while http::request(dead_addr, "GET", "/v1/healthz", "").is_ok() {
        assert!(std::time::Instant::now() < deadline, "shard did not exit");
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    let resp = http::request(router.addr(), "GET", "/v1/healthz", "").expect("healthz");
    assert_eq!(resp.status, 503, "one dead shard fails fleet health");
    let resp = http::request(router.addr(), "GET", "/v1/stats", "").expect("stats");
    assert_eq!(resp.status, 502, "fleet stats need every shard");

    router.shutdown().expect("router shutdown");
    for shard in shards {
        let _ = shard.shutdown();
    }
}

#[test]
fn router_shutdown_cascades_to_shards() {
    let (shards, router) = start_fleet("cascade", true);
    let shard_addrs: Vec<_> = shards.iter().map(|s| s.addr()).collect();

    let resp = http::request(router.addr(), "POST", "/v1/shutdown", "").expect("shutdown");
    assert_eq!(resp.status, 200, "{}", resp.body);
    router.join().expect("router drains");
    for shard in shards {
        shard.join().expect("shard drains");
    }
    for addr in shard_addrs {
        assert!(
            http::request(addr, "GET", "/v1/healthz", "").is_err(),
            "shard {addr} must be down after a cascaded shutdown"
        );
    }
}
