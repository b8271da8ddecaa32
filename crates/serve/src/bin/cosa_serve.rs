//! The `cosa-serve` daemon binary: a long-lived scheduling service over
//! the batch `Engine`.
//!
//! Run with: `cargo run --release -p cosa-serve --bin cosa_serve -- \
//!     --addr 127.0.0.1:7878 --cache-dir .cosa-cache --noc`
//!
//! Flags (all parsed by `cosa_serve::cli::config_from_args` onto
//! `ServeConfig::builder`; any other argument is an error and the daemon
//! exits non-zero naming it):
//!
//! * `--addr HOST:PORT` — bind address (default `127.0.0.1:7878`; port 0
//!   picks an ephemeral port, printed at startup).
//! * `--workers N` / `--queue N` — worker pool width and bounded-queue
//!   capacity.
//! * `--max-connections N` — bound on simultaneously open connections
//!   (the epoll front keeps idle/parsing connections off the workers).
//! * `--cache-dir PATH` (or `COSA_CACHE_DIR`) — shared persistent
//!   schedule cache (one packed `segment.cosa` file); restarts
//!   warm-start from it.
//! * `--noc` — engine-level NoC evaluation per unique shape.
//! * `--interlayer` (plus `--interlayer-budget-bytes N`) — default
//!   inter-layer residency options for network/suite requests that carry
//!   none. The resident set is always the exact one (a chain DP); there is
//!   no selector to choose, and a request's `"strategy"` option is a 400.
//!   Reports carry the v2 `interlayer` section (per-entry
//!   `schedule_bytes`, `overbooked_entries`). Memory-aware cache keys fold
//!   in the options fingerprint (`enabled`, `budget_bytes`); entries stored
//!   while it still named a selector are not found, and are re-solved once.
//! * `--gc-max-bytes N` / `--gc-max-age-secs N` — disk-tier GC policy,
//!   run at startup and every `--gc-every N` served requests (default 64).
//!
//! The daemon serves the versioned wire API (`POST /v1/schedule`,
//! `GET /v1/stats`, `GET /v1/healthz`, `POST /v1/shutdown`), logs one
//! line per request to stdout and exits cleanly on `POST /v1/shutdown`,
//! draining queued requests first.

use cosa_serve::cli::config_from_args;
use cosa_serve::Server;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let config = config_from_args(&args)
        .unwrap_or_else(|msg| {
            eprintln!("cosa_serve: {msg}");
            std::process::exit(2);
        })
        .log_requests(true)
        .build();
    let handle = Server::start(config).expect("start daemon");
    println!(
        "[serve] ready at http://{} — POST /v1/schedule, GET /v1/stats, GET /v1/healthz, \
         POST /v1/shutdown",
        handle.addr()
    );
    handle.join().expect("daemon threads exit cleanly");
    println!("[serve] shut down cleanly");
}
