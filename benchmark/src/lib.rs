//! # cosa-benchmark
//!
//! The repo's one benchmark: six work-bounded workloads, eight end-to-end
//! metrics every workload reports, and per-layer metrics from a traced run.
//! `../BENCHMARK.json` is the contract, `README.md` the guide.
//!
//! This library is everything the workloads share — order statistics
//! ([`stats`]), the span recorder ([`trace`]), seeded draws ([`draw`]), the
//! in-process daemon and client ([`daemon`]), JSON emit ([`emit`]) — plus
//! the contract tables ([`manifest`]), the single-run harness
//! ([`harness`]), the workloads and the one-command report ([`report`]).

#![warn(missing_docs)]

pub mod daemon;
pub mod draw;
pub mod emit;
pub mod harness;
pub mod manifest;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
