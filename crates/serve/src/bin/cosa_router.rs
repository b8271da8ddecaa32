//! The `cosa-router` binary: a thin sharding tier in front of N
//! `cosa_serve` daemons.
//!
//! Run with: `cargo run --release -p cosa-serve --bin cosa_router -- \
//!     --addr 127.0.0.1:7800 \
//!     --shards 127.0.0.1:7801,127.0.0.1:7802,127.0.0.1:7803`
//!
//! Each `POST /v1/schedule` is forwarded to the shard that owns the
//! request's canonical cache-key digest on a consistent-hash ring, so a
//! digest is solved exactly once fleet-wide; `GET /v1/stats` answers the
//! merged fleet counters; `GET /v1/healthz` is healthy only when every
//! shard is.
//!
//! Flags (any other argument is an error and the router exits non-zero
//! naming it):
//!
//! * `--addr HOST:PORT` — bind address (default `127.0.0.1:7800`).
//! * `--shards A,B,C` — comma-separated shard addresses (required).
//! * `--workers N` / `--queue N` / `--max-connections N` — forwarding
//!   concurrency, queue bound and connection bound (same semantics as
//!   the daemon: a full queue sheds 429 without occupying a worker).
//! * `--no-cascade-shutdown` — drain only the router on
//!   `POST /v1/shutdown`, leaving the shards running (default is to
//!   forward the shutdown to every shard first).

use cosa_serve::cli::{config_from_args, flag_value};
use cosa_serve::router::{Router, RouterConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let shards: Vec<String> = flag_value(&args, "--shards")
        .map(|list| {
            list.split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect()
        })
        .unwrap_or_default();
    assert!(
        !shards.is_empty(),
        "--shards A,B,C is required (at least one shard address)"
    );
    let own_flags = [("--shards", true), ("--no-cascade-shutdown", false)];
    let config = RouterConfig {
        serve: config_from_args(&args, "127.0.0.1:7800", &own_flags)
            .unwrap_or_else(|msg| {
                eprintln!("cosa_router: {msg}");
                std::process::exit(2);
            })
            .log_requests(true)
            .build(),
        shards,
        cascade_shutdown: !args.iter().any(|a| a == "--no-cascade-shutdown"),
    };
    let handle = Router::start(config).expect("start router");
    println!(
        "[router] ready at http://{} — POST /v1/schedule, GET /v1/stats, GET /v1/healthz, \
         POST /v1/shutdown",
        handle.addr()
    );
    handle.join().expect("router threads exit cleanly");
    println!("[router] shut down cleanly");
}
