//! Property-based integration tests over randomly generated layers and
//! schedules, checking cross-crate invariants — plus randomized
//! interleavings of the cache store's single-flight primitives (entry
//! writes, solve locks taken at once or waited for, and GC sweeps) run
//! from two concurrent "processes" under a deadlock watchdog.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::{Duration, Instant, SystemTime};

use cosa_repro::engine::{CacheEntry, CacheStore, GcPolicy};
use cosa_repro::prelude::*;
use cosa_repro::serve::SERVE_COSA_NODE_LIMIT;
use proptest::prelude::*;

mod common;

/// Random small-but-interesting layer shapes.
fn layer_strategy() -> impl Strategy<Value = Layer> {
    (
        1u64..=3,  // r = s
        1u64..=16, // p = q
        1u64..=64, // c
        1u64..=64, // k
        1u64..=2,  // stride
    )
        .prop_map(|(r, p, c, k, st)| {
            Layer::conv(
                format!("prop_{r}_{p}_{c}_{k}_{st}"),
                r,
                r,
                p,
                p,
                c,
                k,
                1,
                st,
                st,
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// CoSA always returns a schedule that passes full validation, for any
    /// layer shape.
    #[test]
    fn cosa_always_valid(layer in layer_strategy()) {
        let arch = Arch::simba_baseline();
        let result = CosaScheduler::new(&arch)
            .with_deterministic_limits(SERVE_COSA_NODE_LIMIT)
            .schedule(&layer);
        let result = result.expect("CoSA programs are feasible by construction");
        prop_assert!(result.schedule.is_valid(&layer, &arch));
    }

    /// The analytical model's latency can never undercut the sequential
    /// compute bound, and energy is positive.
    #[test]
    fn model_invariants(layer in layer_strategy()) {
        let arch = Arch::simba_baseline();
        let schedule = CosaScheduler::new(&arch)
            .with_deterministic_limits(SERVE_COSA_NODE_LIMIT)
            .schedule(&layer)
            .expect("feasible").schedule;
        let eval = CostModel::new(&arch).evaluate(&layer, &schedule).expect("valid");
        prop_assert!(eval.latency_cycles >= schedule.temporal_product() as f64 * 0.999);
        prop_assert!(eval.energy_pj > 0.0);
        prop_assert!(eval.pe_utilization <= 1.0 + 1e-9);
        prop_assert!(eval.mac_utilization <= 1.0 + 1e-9);
    }

    /// The NoC simulator and the analytical model must agree on the
    /// compute lower bound, and the NoC's extra communication modelling can
    /// only add latency relative to pure compute.
    #[test]
    fn noc_invariants(layer in layer_strategy()) {
        let arch = Arch::simba_baseline();
        let schedule = CosaScheduler::new(&arch)
            .with_deterministic_limits(SERVE_COSA_NODE_LIMIT)
            .schedule(&layer)
            .expect("feasible").schedule;
        let report = NocSimulator::new(&arch).simulate(&layer, &schedule).expect("valid");
        prop_assert!(report.total_cycles >= report.compute_cycles as f64 * 0.999);
        // Iteration classes cover the whole loop space.
        let covered: f64 = report.types.iter().map(|t| t.count).sum();
        prop_assert!(covered >= 1.0);
    }
}

/// A fresh, empty scratch directory unique to this test invocation.
fn scratch_dir(tag: &str) -> PathBuf {
    common::scratch_dir("cosa-prop-store", tag)
}

/// The digests the interleaved store ops contend on.
const STORE_KEYS: [&str; 4] = ["aaaa1111", "bbbb2222", "cccc3333", "dddd4444"];

/// One canonical entry every writer writes (solved once per process, so
/// the corruption check can also assert surviving *values* are intact).
fn canonical_entry() -> CacheEntry {
    static ENTRY: OnceLock<CacheEntry> = OnceLock::new();
    ENTRY
        .get_or_init(|| {
            let arch = Arch::simba_baseline();
            let layer = Layer::conv("prop_store", 1, 1, 4, 4, 8, 8, 1, 1, 1);
            let mapper = RandomMapper::new(5).with_limits(SearchLimits::quick());
            CacheEntry::new(Scheduler::schedule(&mapper, &arch, &layer).expect("valid"))
        })
        .clone()
}

/// Run one generated op list against its own `CacheStore` handle (its own
/// "process") on a shared directory.
fn run_store_ops(dir: &Path, ops: &[(u8, u8)]) {
    let store = CacheStore::open(dir).expect("open store");
    for (op, k) in ops {
        let key = STORE_KEYS[(*k as usize) % STORE_KEYS.len()];
        match op % 4 {
            // A single-flight write: the leader's persist.
            0 => store.save(key, &canonical_entry()).expect("save"),
            // The leader protocol without waiting: lock, write under the
            // lock, release; a busy lock is skipped.
            1 => {
                if let Some(lock) = store.try_lock(key).expect("try_lock") {
                    store.save(key, &canonical_entry()).expect("save");
                    lock.release();
                }
            }
            // The waiting leader: block until the other holder releases,
            // then write under the lock and release.
            2 => {
                let lock = store.lock(key).expect("lock");
                store.save(key, &canonical_entry()).expect("save");
                lock.release();
            }
            // A concurrent GC sweep under a tight byte budget.
            _ => {
                store
                    .gc_at(&GcPolicy::default().with_max_bytes(1024), SystemTime::now())
                    .expect("gc sweep");
            }
        }
    }
}

/// Run `work` on a helper thread, panicking when it overruns `timeout` —
/// the deadlock watchdog the lock-protocol interleavings run under.
fn with_watchdog(timeout: Duration, work: impl FnOnce() + Send + 'static) {
    let worker = std::thread::spawn(work);
    let deadline = Instant::now() + timeout;
    while !worker.is_finished() {
        assert!(
            Instant::now() < deadline,
            "watchdog expired after {timeout:?}: store interleaving deadlocked"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    worker.join().expect("store ops panicked");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Arbitrary two-process interleavings of single-flight writes, lock
    /// acquisitions (at once or waited for) and GC sweeps (1) never
    /// corrupt a surviving entry, (2) never deadlock (watchdog-bounded),
    /// and (3) leave every lock free once both are done.
    #[test]
    fn store_lock_interleavings_never_corrupt_or_deadlock(
        ops in prop::collection::vec((0u8..4, 0u8..4), 2..=24)
    ) {
        let dir = scratch_dir("interleave");
        let split = ops.len() / 2;
        let (left, right) = (ops[..split].to_vec(), ops[split..].to_vec());
        let dir_a = dir.clone();
        with_watchdog(Duration::from_secs(60), move || {
            std::thread::scope(|scope| {
                let a = scope.spawn(|| run_store_ops(&dir_a, &left));
                let b = scope.spawn(|| run_store_ops(&dir_a, &right));
                a.join().expect("process a");
                b.join().expect("process b");
            });
        });

        // Survivors parse cleanly and hold exactly the canonical value:
        // saves are atomic and GC deletes whole files, so no interleaving
        // may leave a torn or mixed entry behind.
        let store = CacheStore::open(&dir).expect("open store");
        let load = store.load();
        prop_assert_eq!(load.skipped, 0);
        let expected = canonical_entry();
        for (key, entry) in &load.entries {
            prop_assert!(
                STORE_KEYS.contains(&key.as_str()),
                "unexpected surviving key {}", key
            );
            prop_assert_eq!(entry, &expected);
        }

        // Every holder has released, so every digest is free now.
        for key in STORE_KEYS {
            let lock = store.try_lock(key).expect("io ok");
            prop_assert!(lock.is_some(), "lock on {} still held", key);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random valid schedules (from the baseline sampler) satisfy the same
    /// model invariants as CoSA's.
    #[test]
    fn sampled_schedules_model_invariants(seed in 0u64..1000) {
        let arch = Arch::simba_baseline();
        let layer = Layer::conv("fixed", 3, 3, 8, 8, 16, 32, 1, 1, 1);
        let samples = cosa_repro::mappers::sample_valid_schedules(&arch, &layer, 3, 20_000, seed);
        let model = CostModel::new(&arch);
        for s in samples {
            let eval = model.evaluate(&layer, &s.schedule).expect("sampler validated");
            prop_assert!(eval.latency_cycles >= s.schedule.temporal_product() as f64 * 0.999);
            prop_assert!((eval.latency_cycles - s.latency_cycles).abs() < 1e-6);
        }
    }
}

/// Packed-tier ops for the truncation interleavings: segment appends,
/// evictions and compacting GC sweeps (tight byte budget + zero dead-byte
/// threshold, so sweeps both evict and compact).
fn run_packed_ops(dir: &Path, ops: &[(u8, u8)]) {
    let store = CacheStore::open(dir).expect("open store");
    for (op, k) in ops {
        let key = STORE_KEYS[(*k as usize) % STORE_KEYS.len()];
        match op % 3 {
            0 => store.save(key, &canonical_entry()).expect("save"),
            1 => store.remove(key).expect("remove"),
            _ => {
                store
                    .gc_at(
                        &GcPolicy::default()
                            .with_max_bytes(4096)
                            .with_compact_min_dead(0),
                        SystemTime::now(),
                    )
                    .expect("gc sweep");
            }
        }
    }
}

/// Copy the flat store directory (the segment and any lock files).
fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create copy dir");
    for entry in std::fs::read_dir(from).expect("read dir").flatten() {
        let path = entry.path();
        if path.is_file() {
            std::fs::copy(&path, to.join(entry.file_name())).expect("copy file");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random two-handle interleavings of packed appends, evictions and
    /// compacting GC, then a crash cut: truncating a copy of
    /// `segment.cosa` at an arbitrary byte must leave a loadable store
    /// (the loader never panics) that recovers only entries live before
    /// the cut — an evicted digest never resurfaces, surviving values
    /// stay canonical, and a cut at EOF recovers the exact live set.
    #[test]
    fn segment_truncation_recovers_prefix_without_resurrection(
        case in (prop::collection::vec((0u8..3, 0u8..4), 2..=20), 0u32..=1000)
    ) {
        let (ops, cut_permille) = case;
        let cut = f64::from(cut_permille) / 1000.0;
        let dir = scratch_dir("truncate");
        let split = ops.len() / 2;
        let (left, right) = (ops[..split].to_vec(), ops[split..].to_vec());
        let dir_a = dir.clone();
        with_watchdog(Duration::from_secs(60), move || {
            std::thread::scope(|scope| {
                let a = scope.spawn(|| run_packed_ops(&dir_a, &left));
                let b = scope.spawn(|| run_packed_ops(&dir_a, &right));
                a.join().expect("process a");
                b.join().expect("process b");
            });
        });

        let live: Vec<String> = CacheStore::open(&dir)
            .expect("open store")
            .load()
            .entries
            .into_iter()
            .map(|(k, _)| k)
            .collect();

        // Crash cut on a copy of the dir (only the segment is truncated).
        let cut_dir = scratch_dir("truncate-cut");
        copy_dir(&dir, &cut_dir);
        let segment = cut_dir.join("segment.cosa");
        let expected = canonical_entry();
        if segment.is_file() {
            let bytes = std::fs::read(&segment).expect("read segment");
            let n = (((bytes.len() as f64) * cut) as usize).min(bytes.len());
            std::fs::write(&segment, &bytes[..n]).expect("truncate segment");

            let store = CacheStore::open(&cut_dir).expect("open truncated store");
            let load = store.load(); // must not panic, wherever the cut fell
            for (key, entry) in &load.entries {
                prop_assert!(
                    live.contains(key),
                    "cut at byte {} resurrected {}", n, key
                );
                prop_assert_eq!(entry, &expected);
                let lazy = store.load_entry(key);
                prop_assert_eq!(lazy.as_ref(), Some(entry));
            }
            if n == bytes.len() {
                let mut got: Vec<String> =
                    load.entries.iter().map(|(k, _)| k.clone()).collect();
                got.sort();
                let mut want = live.clone();
                want.sort();
                // A cut at EOF loses nothing: exact live set recovered.
                prop_assert_eq!(got, want);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&cut_dir);
    }
}
