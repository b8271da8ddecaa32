//! The sharding router: a thin `/v1`-only daemon that owns no engine and
//! no cache, just a [`HashRing`] over N shard daemons.
//!
//! Each `POST /v1/schedule` is routed by [`routing_digest`] — the same
//! canonical cache-key digest the shards' stores are named by — to the
//! one shard that owns it, so a digest is solved exactly once
//! fleet-wide and every shard's memory LRU stays hot for its slice of
//! the keyspace. `GET /v1/stats` fans out and merges the fleet (flows
//! sum; each shard owns a private cache dir, so disk-tier sizes sum
//! too, unlike the same-directory engine merge inside one daemon);
//! `GET /v1/healthz` is healthy only when every shard is;
//! `POST /v1/shutdown` optionally cascades to the shards before the
//! router drains itself.
//!
//! The router reuses the whole readiness-driven [`front`](crate::front):
//! bounded queue, 429 shedding, latency ring and graceful drain apply to
//! forwarded traffic unchanged.

use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;

use cosa_repro::engine::InterlayerOptions;
use cosa_repro::serve::{routing_digest, HealthResponse, ScheduleRequest, StatsResponse};
use cosa_spec::Arch;

use crate::front::{self, FrontConfig, FrontView, Handler, Routed};
use crate::http::{self, Request};
use crate::shard::HashRing;
use crate::{error_body, ServeConfig, ServerHandle};

/// Router configuration: the transport half is a plain [`ServeConfig`]
/// (cache fields are ignored — the router owns no engine), plus the
/// shard fleet and the shutdown-cascade switch.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Transport configuration (addr/workers/queue/connections/logging)
    /// and the default architecture used to compute routing digests for
    /// requests that carry none. Build with [`ServeConfig::builder`].
    pub serve: ServeConfig,
    /// Shard daemon addresses (`host:port`). Ownership is decided by a
    /// [`HashRing`] over exactly these strings, so every router and
    /// `serve_probe --shards` client configured with the same fleet
    /// agrees.
    pub shards: Vec<String>,
    /// Forward `POST /v1/shutdown` to every shard before draining the
    /// router itself.
    pub cascade_shutdown: bool,
}

impl RouterConfig {
    /// A router over `shards` with default transport settings.
    pub fn new(shards: Vec<String>) -> RouterConfig {
        RouterConfig {
            serve: ServeConfig::builder().build(),
            shards,
            cascade_shutdown: false,
        }
    }
}

/// The shard-forwarding [`Handler`].
struct RouterHandler {
    ring: HashRing,
    default_arch: Arch,
    /// Fleet-default inter-layer options, pinned into routing digests so
    /// "absent" and "explicitly the fleet default" requests colocate.
    default_interlayer: InterlayerOptions,
    cascade_shutdown: bool,
}

impl RouterHandler {
    /// One blocking round trip to a shard. Any transport failure is a
    /// `502` naming the shard — the router's own queue/shedding already
    /// bounded how much traffic waits on it.
    fn forward(&self, shard: &str, method: &str, path: &str, body: &str) -> (u16, String) {
        match shard_addr(shard).and_then(|addr| http::request(addr, method, path, body)) {
            Ok(response) => (response.status, response.body),
            Err(e) => (502, error_body(&format!("shard {shard} unreachable: {e}"))),
        }
    }

    /// Route one schedule request to the shard owning its digest.
    fn handle_schedule(&self, body: &str) -> (u16, String) {
        // Validate before routing: malformed requests are answered here,
        // identically no matter which shard would have owned them.
        let request: ScheduleRequest = match serde_json::from_str(body) {
            Ok(r) => r,
            Err(e) => return (400, error_body(&format!("malformed request JSON: {e}"))),
        };
        if let Err(msg) = request.work_item() {
            return (400, error_body(&msg));
        }
        let digest = routing_digest(&request, &self.default_arch, &self.default_interlayer);
        let shard = self.ring.owner(&digest);
        self.forward(shard, "POST", "/v1/schedule", body)
    }

    fn handle_stats(&self, front: &FrontView<'_>) -> (u16, String) {
        let mut total = StatsResponse {
            queue_depth: front.queue_depth(),
            queue_capacity: front.queue_capacity(),
            rejected: front.rejected(),
            ..StatsResponse::default()
        };
        let (p50, p99, max) = front.latency_micros();
        total.p50_micros = p50;
        total.p99_micros = p99;
        total.max_micros = max;
        for shard in self.ring.shards() {
            let (status, body) = self.forward(shard, "GET", "/v1/stats", "");
            if status != 200 {
                return (
                    502,
                    error_body(&format!("shard {shard} stats failed: {body}")),
                );
            }
            let stats: StatsResponse = match serde_json::from_str(&body) {
                Ok(s) => s,
                Err(e) => {
                    return (
                        502,
                        error_body(&format!("shard {shard} stats unparsable: {e}")),
                    )
                }
            };
            merge_fleet_stats(&mut total, stats);
        }
        (200, serde_json::to_string(&total).expect("stats serialize"))
    }

    fn handle_healthz(&self) -> (u16, String) {
        let mut warm_entries = 0usize;
        let mut noc = false;
        for shard in self.ring.shards() {
            let (status, body) = self.forward(shard, "GET", "/v1/healthz", "");
            if status != 200 {
                return (503, error_body(&format!("shard {shard} unhealthy: {body}")));
            }
            if let Ok(health) = serde_json::from_str::<HealthResponse>(&body) {
                warm_entries += health.warm_entries;
                noc |= health.noc;
            }
        }
        let health = HealthResponse {
            status: "ok".to_string(),
            warm_entries,
            cache_dir: None,
            noc,
        };
        (
            200,
            serde_json::to_string(&health).expect("health serializes"),
        )
    }

    fn handle_shutdown(&self) -> (u16, String) {
        if self.cascade_shutdown {
            for shard in self.ring.shards() {
                // Best-effort: a shard that is already down must not keep
                // the rest of the fleet (or the router) running.
                let _ = self.forward(shard, "POST", "/v1/shutdown", "");
            }
        }
        (
            200,
            error_body("shutting down: draining in-flight requests"),
        )
    }
}

impl Handler for RouterHandler {
    fn handle(&self, request: &Request, front: FrontView<'_>) -> Routed {
        let (status, body, shutdown) = match (request.method.as_str(), request.path.as_str()) {
            ("POST", "/v1/schedule") => {
                let (status, body) = self.handle_schedule(&request.body);
                (status, body, false)
            }
            ("GET", "/v1/stats") => {
                let (status, body) = self.handle_stats(&front);
                (status, body, false)
            }
            ("GET", "/v1/healthz") => {
                let (status, body) = self.handle_healthz();
                (status, body, false)
            }
            ("POST", "/v1/shutdown") => {
                let (status, body) = self.handle_shutdown();
                (status, body, true)
            }
            ("POST" | "GET", path) => (404, error_body(&format!("no route {path}")), false),
            (method, _) => (
                405,
                error_body(&format!("method {method} not allowed")),
                false,
            ),
        };
        Routed {
            status,
            body,
            shutdown,
        }
    }
}

fn shard_addr(shard: &str) -> io::Result<SocketAddr> {
    shard
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::other(format!("shard address `{shard}` resolves to nothing")))
}

/// Merge one shard's stats into the fleet total. Counters and latency
/// totals are flows and sum; percentiles merge by max (a conservative
/// fleet-wide bound — exact fleet percentiles would need the raw
/// samples); every disk-tier size also **sums**, because each shard owns
/// a private cache directory — unlike the same-directory engine merge
/// inside one daemon, where sizes merge by max. Public so client-side
/// sharding (`serve_probe --shards`) aggregates fleets identically.
pub fn merge_fleet_stats(total: &mut StatsResponse, s: StatsResponse) {
    total.served += s.served;
    total.errors += s.errors;
    total.rejected += s.rejected;
    total.queue_depth += s.queue_depth;
    total.queue_capacity += s.queue_capacity;
    total.workers += s.workers;
    total.engines += s.engines;
    total.p50_micros = total.p50_micros.max(s.p50_micros);
    total.p99_micros = total.p99_micros.max(s.p99_micros);
    total.max_micros = total.max_micros.max(s.max_micros);
    total.gc_runs += s.gc_runs;
    total.gc_removed += s.gc_removed;

    let cache = s.cache;
    total.cache.hits += cache.hits;
    total.cache.misses += cache.misses;
    total.cache.evictions += cache.evictions;
    total.cache.entries += cache.entries;
    total.cache.bytes += cache.bytes;
    total.cache.noc_sims += cache.noc_sims;
    total.cache.warm_entries += cache.warm_entries;
    total.cache.load_micros += cache.load_micros;
    total.cache.store_errors += cache.store_errors;
    total.cache.dedup_waits += cache.dedup_waits;
    total.cache.in_flight_peak = total.cache.in_flight_peak.max(cache.in_flight_peak);
    total.cache.disk_index_entries += cache.disk_index_entries;
    total.cache.segment_bytes += cache.segment_bytes;
    total.cache.segment_live_bytes += cache.segment_live_bytes;
    total.cache.segment_dead_bytes += cache.segment_dead_bytes;
    total.cache.compactions += cache.compactions;
    for win in cache.backend_wins {
        match total
            .cache
            .backend_wins
            .iter_mut()
            .find(|t| t.backend == win.backend)
        {
            Some(t) => {
                t.wins += win.wins;
                t.win_micros += win.win_micros;
            }
            None => total.cache.backend_wins.push(win),
        }
    }
    total
        .cache
        .backend_wins
        .sort_by(|a, b| a.backend.cmp(&b.backend));
}

/// The router daemon.
pub struct Router;

impl Router {
    /// Start a router for `config`, returning the same handle type the
    /// shard daemons use (the router is just another front).
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the address cannot be bound, or
    /// `InvalidInput` for an empty shard list.
    pub fn start(config: RouterConfig) -> io::Result<ServerHandle> {
        if config.shards.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "router needs at least one shard",
            ));
        }
        let handler = Arc::new(RouterHandler {
            ring: HashRing::new(config.shards.clone()),
            default_arch: config.serve.default_arch.clone(),
            default_interlayer: config.serve.interlayer,
            cascade_shutdown: config.cascade_shutdown,
        });
        let front = front::start(
            FrontConfig {
                addr: config.serve.addr.clone(),
                workers: config.serve.workers,
                queue_capacity: config.serve.queue_capacity,
                max_connections: config.serve.max_connections,
                request_delay: config.serve.request_delay,
                log_requests: config.serve.log_requests,
            },
            handler,
        )?;
        if config.serve.log_requests {
            println!(
                "[router] listening on {} — {} shards: {}",
                front.addr(),
                config.shards.len(),
                config.shards.join(", "),
            );
        }
        Ok(ServerHandle { front })
    }
}
