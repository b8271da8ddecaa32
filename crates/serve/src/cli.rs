//! CLI → [`ServeConfig`] mapping for the `cosa_serve` binary.
//!
//! The `--flag value` helpers and the shared scheduler/cache flag set
//! ([`CommonArgs`]) live in `cosa_repro::serve` — one implementation for
//! `cosa_serve`, `serve_probe` and `engine_probe` — and are re-exported
//! here for the existing import paths. What remains in this module is the
//! thin translation from parsed flags onto [`ServeConfig::builder`], and
//! the check that every argument is a flag some parser actually reads.

pub use cosa_repro::serve::{flag_value, parse_flag, CommonArgs};

use std::time::Duration;

use cosa_repro::engine::GcPolicy;

use crate::{ServeConfig, ServeConfigBuilder};

/// The flags [`config_from_args`] reads itself (all take a value), on top
/// of [`CommonArgs::FLAGS`].
const DAEMON_FLAGS: [(&str, bool); 7] = [
    ("--addr", true),
    ("--workers", true),
    ("--queue", true),
    ("--max-connections", true),
    ("--gc-max-bytes", true),
    ("--gc-max-age-secs", true),
    ("--gc-every", true),
];

/// Map the daemon flag set onto a [`ServeConfig`] builder:
/// `--addr` (default `127.0.0.1:7878`)/`--workers`/`--queue`/
/// `--max-connections`, the [`CommonArgs`] set
/// (`--cache-dir`/`--noc`/`--interlayer*`) and
/// `--gc-max-bytes`/`--gc-max-age-secs`/`--gc-every`.
///
/// # Errors
///
/// An argument that is none of those flags (nor the value of one) is an
/// error naming it and listing the accepted set: a typo such as
/// `--cache-dri` must stop the daemon, not start it cache-less.
pub fn config_from_args(args: &[String]) -> Result<ServeConfigBuilder, String> {
    let accepted: Vec<(&str, bool)> = DAEMON_FLAGS
        .iter()
        .chain(&CommonArgs::FLAGS)
        .copied()
        .collect();
    let mut rest = args.iter().skip(1);
    while let Some(arg) = rest.next() {
        match accepted.iter().find(|(flag, _)| flag == arg) {
            Some((_, true)) => {
                rest.next();
            }
            Some((_, false)) => {}
            None => {
                let names: Vec<&str> = accepted.iter().map(|(flag, _)| *flag).collect();
                return Err(format!(
                    "unknown argument `{arg}` (accepted flags: {})",
                    names.join(" ")
                ));
            }
        }
    }
    let mut builder = ServeConfig::builder()
        .addr(flag_value(args, "--addr").unwrap_or_else(|| "127.0.0.1:7878".to_string()))
        .common(&CommonArgs::parse(args));
    if let Some(workers) = parse_flag(args, "--workers") {
        builder = builder.workers(workers);
    }
    if let Some(queue) = parse_flag(args, "--queue") {
        builder = builder.queue_capacity(queue);
    }
    if let Some(max) = parse_flag(args, "--max-connections") {
        builder = builder.max_connections(max);
    }
    let mut gc = GcPolicy::default();
    if let Some(max_bytes) = parse_flag(args, "--gc-max-bytes") {
        gc = gc.with_max_bytes(max_bytes);
    }
    if let Some(secs) = parse_flag::<u64>(args, "--gc-max-age-secs") {
        gc = gc.with_max_age(Duration::from_secs(secs));
    }
    builder = builder.gc(gc);
    if let Some(every) = parse_flag(args, "--gc-every") {
        builder = builder.gc_every(every);
    }
    Ok(builder)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_value_finds_pairs_and_tolerates_absence() {
        let args: Vec<String> = ["bin", "--addr", "1.2.3.4:80", "--noc"]
            .map(String::from)
            .to_vec();
        assert_eq!(flag_value(&args, "--addr").as_deref(), Some("1.2.3.4:80"));
        assert_eq!(flag_value(&args, "--workers"), None);
        assert_eq!(
            flag_value(&args, "--noc"),
            None,
            "trailing flag has no value"
        );
        assert_eq!(parse_flag::<u16>(&args, "--workers"), None);
    }

    #[test]
    fn config_from_args_maps_every_daemon_flag() {
        let args: Vec<String> = [
            "bin",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "3",
            "--queue",
            "9",
            "--max-connections",
            "111",
            "--noc",
            "--gc-every",
            "5",
            "--interlayer",
            "--interlayer-budget-bytes",
            "131072",
        ]
        .map(String::from)
        .to_vec();
        let config = config_from_args(&args)
            .expect("every flag is known")
            .build();
        assert_eq!(config.addr, "127.0.0.1:0");
        assert_eq!(config.workers, 3);
        assert_eq!(config.queue_capacity, 9);
        assert_eq!(config.max_connections, 111);
        assert!(config.noc);
        assert_eq!(config.gc_every, 5);
        assert_eq!(
            config.interlayer,
            cosa_repro::engine::InterlayerOptions::enabled().with_budget_bytes(131072)
        );

        let defaults = config_from_args(&["bin".to_string()])
            .expect("no flags is fine")
            .build();
        assert_eq!(defaults.addr, "127.0.0.1:7878");
        assert!(!defaults.interlayer.enabled);
    }

    #[test]
    fn unknown_flags_are_rejected_by_name() {
        let parse = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            config_from_args(&args).map(|b| b.build())
        };
        // A typo must not start a cache-less daemon.
        let err = parse(&["bin", "--cache-dri", "/tmp/c"]).unwrap_err();
        assert!(err.contains("`--cache-dri`"), "{err}");
        assert!(err.contains("--cache-dir"), "lists the accepted set: {err}");
        // Removed flags are unknown like any other: the cache format
        // switch, the injected service delay, the shard list and the
        // solve-lock staleness knob.
        for removed in [
            "--cache-format",
            "--request-delay-micros",
            "--shards",
            "--lock-staleness-secs",
        ] {
            let err = parse(&["bin", removed, "1"]).unwrap_err();
            assert!(err.contains(&format!("`{removed}`")), "{err}");
        }
        // A stray value (here after a flag that takes none) is named too.
        let err = parse(&["bin", "--noc", "true"]).unwrap_err();
        assert!(err.contains("`true`"), "{err}");
    }
}
