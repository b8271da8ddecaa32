//! `store_churn`: the persistent tier on its own. A pass persists a fixed
//! set of distinct shapes through `Engine::with_cache_dir` (one fsynced
//! segment append each), drops the engine, reopens and reads everything
//! back several times, garbage-collects to half the bytes with compaction,
//! and verifies the survivors. The seeded quick random mapper produces the
//! entries, so solving is a few percent of a persist and nothing else.
//!
//! The seed orders the writes and each round of reads, which also decides
//! what GC (oldest first) keeps.

use std::path::Path;

use cosa_repro::engine::CacheEntry;
use cosa_repro::prelude::*;
use cosa_repro::spec::canon::digest128_hex;

use super::{quick_random, timed, trace_engine, trace_evaluators, REPLAY_SAMPLE};
use crate::draw::Rng;
use crate::harness::{Answer, OpSample, Pass, PerLayer, Scratch, Workload};
use crate::stats::median;
use crate::trace::Recorder;

/// Distinct shapes persisted per pass. A persist rewrites the segment's
/// index, so its cost grows with the entries already there; this many keep
/// a pass near 3 s.
const ENTRIES: usize = 800;

/// Reopen-and-read-everything rounds per pass.
const READ_ROUNDS: usize = 10;

/// What the last plain pass measured, for the traced run.
#[derive(Default)]
struct LastPass {
    /// Index-aligned with `layers` when every persist succeeded.
    answers: Vec<Answer>,
    persist_per_s: f64,
    read_per_s: f64,
    store_errors: u64,
}

/// `store_churn` after set-up.
pub struct StoreChurn {
    arch: Arch,
    scratch: Scratch,
    random: RandomMapper,
    layers: Vec<Layer>,
    /// Indices into `layers`: the write order, then one order per read round.
    write_order: Vec<usize>,
    read_orders: Vec<Vec<usize>>,
    passes: usize,
    last: LastPass,
}

/// A fixed grid of small distinct matmul and conv shapes.
fn shapes() -> Vec<Layer> {
    let mut out = Vec::new();
    for c in [16, 24, 32, 48, 64, 96, 128, 192, 256] {
        for k in [16, 32, 64, 128, 256, 512] {
            for n in [1, 2, 4, 8, 16, 32, 64] {
                out.push(Layer::matmul(format!("mm_{c}x{k}x{n}"), c, k, n));
            }
        }
    }
    for r in [1, 3, 5] {
        for p in [4, 7, 8, 14, 28] {
            for c in [4, 8, 16, 32, 64] {
                for k in [8, 16, 32, 64, 128, 256] {
                    out.push(Layer::conv(
                        format!("conv_{r}x{r}_{p}x{p}_{c}_{k}"),
                        r,
                        r,
                        p,
                        p,
                        c,
                        k,
                        1,
                        1,
                        1,
                    ));
                }
            }
        }
    }
    assert!(out.len() >= ENTRIES);
    out.truncate(ENTRIES);
    out
}

impl StoreChurn {
    /// Build the shapes and the seeded orders.
    pub fn setup(seed: u64) -> Result<StoreChurn, String> {
        let layers = shapes();
        let mut rng = Rng::new(seed);
        let order = |rng: &mut Rng| {
            let mut order: Vec<usize> = (0..layers.len()).collect();
            rng.shuffle(&mut order);
            order
        };
        let write_order = order(&mut rng);
        let read_orders = (0..READ_ROUNDS).map(|_| order(&mut rng)).collect();
        let churn = StoreChurn {
            arch: Arch::simba_baseline(),
            scratch: Scratch::new("store").map_err(|e| format!("scratch dir: {e}"))?,
            random: quick_random(),
            layers,
            write_order,
            read_orders,
            passes: 0,
            last: LastPass::default(),
        };
        // One persist and one read-through before anything is timed: the
        // first segment write and the first index load are set-up.
        let dir = churn.scratch.path().join("warm-up");
        for _ in 0..2 {
            churn
                .open(&dir)
                .schedule_layer(&churn.random, &churn.layers[0])
                .map_err(|e| format!("warm-up: {e}"))?;
        }
        Ok(churn)
    }

    fn open(&self, dir: &Path) -> Engine {
        Engine::new(self.arch.clone())
            .with_threads(1)
            .with_cache_dir(dir)
            .expect("cache dir under benchmark/out/tmp opens")
    }
}

impl Workload for StoreChurn {
    fn pass(&mut self) -> Pass {
        self.passes += 1;
        let dir = self.scratch.path().join(format!("pass-{}", self.passes));
        let mut pass = Pass::default();
        let mut persisted: Vec<Option<Scheduled>> = vec![None; self.layers.len()];
        let mut store_errors = 0;
        let op = |class: &str, secs: f64| OpSample {
            class: class.to_string(),
            secs,
        };

        let ((), wall_s) = timed(|| {
            // Cold: every shape is solved and written through.
            let engine = self.open(&dir);
            for &i in &self.write_order {
                let (out, secs) = timed(|| engine.schedule_layer(&self.random, &self.layers[i]));
                pass.ops.push(op("persist", secs));
                match out {
                    Ok(scheduled) => persisted[i] = Some(scheduled),
                    Err(_) => pass.failed += 1,
                }
            }
            store_errors += engine.cache_stats().store_errors;
            drop(engine);

            // Warm: a new engine per round indexes the segment and decodes
            // each entry on first use; nothing may be solved again.
            for order in &self.read_orders {
                let engine = self.open(&dir);
                for &i in order {
                    let (out, secs) =
                        timed(|| engine.schedule_layer(&self.random, &self.layers[i]));
                    pass.ops.push(op("read", secs));
                    if out.ok() != persisted[i] {
                        pass.failed += 1;
                    }
                }
                let stats = engine.cache_stats();
                store_errors += stats.store_errors;
                pass.failed += stats.misses;
            }

            // GC to half the live bytes, compacting; survivors must read
            // back exactly as persisted.
            let engine = self.open(&dir);
            let live = engine.cache_stats().segment_live_bytes;
            let policy = GcPolicy::default()
                .with_max_bytes(live / 2)
                .with_compact_min_dead(0);
            let report = engine.gc_store(&policy).expect("engine has a store");
            drop(engine);
            let engine = self.open(&dir);
            let store = engine.store().expect("engine has a store");
            let mut survivors = 0;
            for (layer, expected) in self.layers.iter().zip(&persisted) {
                if let Some(entry) = store.load_entry(&engine.cache_key(&self.random, layer)) {
                    survivors += 1;
                    if Some(&entry.scheduled) != expected.as_ref() {
                        pass.failed += 1;
                    }
                }
            }
            store_errors += engine.cache_stats().store_errors;
            match report {
                Ok(report) if report.retained == survivors && report.removed > 0 => {}
                other => {
                    eprintln!("[store_churn] gc {other:?}, {survivors} survivors");
                    pass.failed += 1;
                }
            }
        });
        let _ = std::fs::remove_dir_all(&dir);
        pass.wall_s = wall_s;
        pass.failed += store_errors;

        let class_secs = |class: &str| -> f64 {
            pass.ops
                .iter()
                .filter(|o| o.class == class)
                .map(|o| o.secs)
                .sum()
        };
        // Index-aligned with `layers` when every persist succeeded (any
        // gap has already failed the pass).
        pass.answers = self
            .layers
            .iter()
            .zip(persisted.into_iter().flatten())
            .map(|(layer, scheduled)| Answer {
                layer: layer.clone(),
                count: 1,
                scheduled,
            })
            .collect();
        let canonical: String = pass
            .answers
            .iter()
            .map(|a| {
                let mut s = a.scheduled.clone();
                s.elapsed = std::time::Duration::ZERO;
                serde_json::to_string(&s).expect("scheduled serializes")
            })
            .collect();
        pass.canonical = digest128_hex(canonical.as_bytes());
        self.last = LastPass {
            persist_per_s: pass.answers.len() as f64 / class_secs("persist"),
            read_per_s: (READ_ROUNDS * self.layers.len()) as f64 / class_secs("read"),
            store_errors,
            answers: pass.answers.clone(),
        };
        pass
    }

    fn check(&mut self, pass: &Pass) -> Vec<String> {
        if pass.answers.len() == self.layers.len() {
            Vec::new()
        } else {
            vec![format!(
                "{} of {} shapes were persisted",
                pass.answers.len(),
                self.layers.len()
            )]
        }
    }

    /// The store's public functions called directly, one span each, on the
    /// entries the last plain pass produced.
    fn traced(&mut self, rec: &mut Recorder, metrics: &mut PerLayer) {
        let dir = self.scratch.path().join("traced");
        let engine = Engine::new(self.arch.clone()).with_threads(1);
        let entries: Vec<(String, CacheEntry)> = self
            .write_order
            .iter()
            .filter_map(|&i| {
                let scheduled = self.last.answers.get(i)?.scheduled.clone();
                let key = engine.cache_key(&self.random, &self.layers[i]);
                Some((key, CacheEntry::new(scheduled)))
            })
            .collect();

        let store = CacheStore::open(&dir).expect("cache dir opens");
        let mut save_s = Vec::new();
        for (op, (key, entry)) in entries.iter().enumerate() {
            let (saved, secs) = rec.time("store.save", op as u64, || store.save(key, entry));
            if saved.is_ok() {
                save_s.push(secs);
            }
        }
        drop(store);
        let decile = (save_s.len() / 10).max(1);
        let mean_us = |secs: &[f64]| secs.iter().sum::<f64>() * 1e6 / secs.len().max(1) as f64;
        metrics.insert("store.save_us_p50", median(&save_s) * 1e6);
        metrics.insert(
            "store.save_us_first_decile",
            mean_us(&save_s[..decile.min(save_s.len())]),
        );
        metrics.insert(
            "store.save_us_last_decile",
            mean_us(&save_s[save_s.len().saturating_sub(decile)..]),
        );

        let store = CacheStore::open(&dir).expect("cache dir opens");
        let (index, secs) = rec.time("store.load_index", 0, || store.load_index());
        metrics.insert("store.load_index_ms", secs * 1e3);
        let mut load_s = Vec::new();
        for (op, (key, entry)) in entries.iter().enumerate() {
            let (loaded, secs) = rec.time("store.load_entry", op as u64, || store.load_entry(key));
            if loaded.as_ref() == Some(entry) {
                load_s.push(secs);
            }
        }
        metrics.insert("store.load_entry_us", mean_us(&load_s));
        let disk = store.disk_stats();
        metrics.insert("store.segment_bytes", disk.segment_bytes as f64);
        metrics.insert(
            "store.bytes_per_entry",
            disk.live_bytes as f64 / index.entries.max(1) as f64,
        );
        let policy = GcPolicy::default()
            .with_max_bytes(disk.live_bytes / 2)
            .with_compact_min_dead(0);
        let (_, secs) = rec.time("store.gc", 0, || store.gc(&policy));
        metrics.insert("store.gc_ms", secs * 1e3);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);

        let skipped = (entries.len() - save_s.len()) + (entries.len() - load_s.len());
        metrics.insert(
            "store.store_errors",
            (self.last.store_errors + skipped as u64) as f64,
        );
        metrics.insert("store.persist_entries_per_s", self.last.persist_per_s);
        metrics.insert("store.readthrough_entries_per_s", self.last.read_per_s);
        metrics.insert("engine.fresh_solves", self.last.answers.len() as f64);
        metrics.insert(
            "engine.dedup_hits",
            (READ_ROUNDS * self.layers.len()) as f64,
        );

        let answers = &self.last.answers;
        trace_engine(rec, metrics, &self.arch, answers, REPLAY_SAMPLE);
        trace_evaluators(rec, metrics, &self.arch, answers, REPLAY_SAMPLE);
    }
}
