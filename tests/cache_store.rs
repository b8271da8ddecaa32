//! Integration tests for the persistent schedule-cache store: round-trip
//! persistence and warm starts, corruption and version-skew tolerance,
//! LRU/byte interaction with the disk tier, digest stability across
//! save/load, the segment writer lock (a live holder waited out, a dead
//! one's file taken at once) and the cross-process solve-lock protocol
//! (exclusivity, a killed holder's lock freed, GC of unheld lock files,
//! and engine-level lock waiting / disk read-through).

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant, SystemTime};

use cosa_repro::engine::{CacheEntry, CacheStore, STORE_VERSION};
use cosa_repro::prelude::*;

mod common;

/// A fresh, empty scratch directory unique to this test invocation.
fn scratch_dir(tag: &str) -> PathBuf {
    common::scratch_dir("cosa-cache-test", tag)
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

fn quick_random() -> RandomMapper {
    RandomMapper::new(11).with_limits(SearchLimits::quick())
}

/// An in-place, same-length rewrite of a record's head bytes.
type Damage = fn(&mut [u8]);

/// Overwrite the head of `key`'s record (`{"version":N,"key":"<key>"`) in
/// `dir`'s segment, in place and at the same length, so framing and the
/// index stay intact.
fn damage_record(dir: &Path, key: &str, damage: Damage) {
    let path = dir.join("segment.cosa");
    let mut bytes = std::fs::read(&path).unwrap();
    let at = record_at(&bytes, key);
    let head_len = format!("{{\"version\":{STORE_VERSION},\"key\":\"{key}\"").len();
    damage(&mut bytes[at..at + head_len]);
    std::fs::write(&path, bytes).unwrap();
}

/// `n` distinct entries keyed `key000`, `key001`, …: one solve, told apart
/// by their backend tag.
fn tagged_entries(n: usize) -> Vec<(String, CacheEntry)> {
    let layer = Layer::conv("t", 3, 3, 8, 8, 16, 16, 1, 1, 1);
    let scheduled = Scheduler::schedule(&quick_random(), &Arch::simba_baseline(), &layer);
    let scheduled = scheduled.expect("valid");
    (0..n)
        .map(|i| {
            let mut entry = CacheEntry::new(scheduled.clone());
            entry.backend = Some(format!("tag{i}"));
            (format!("key{i:03}"), entry)
        })
        .collect()
}

/// Byte offset of `key`'s record in the segment bytes.
fn record_at(bytes: &[u8], key: &str) -> usize {
    let head = format!("{{\"version\":{STORE_VERSION},\"key\":\"{key}\"");
    bytes
        .windows(head.len())
        .position(|w| w == head.as_bytes())
        .expect("record present in the segment")
}

/// `*.json` files in `dir` — the segment is the only entry format, so
/// there must never be any.
fn json_files(dir: &Path) -> usize {
    std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .filter(|e| e.path().extension().and_then(|x| x.to_str()) == Some("json"))
        .count()
}

#[test]
fn warm_start_round_trips_schedules_and_noc_verdicts() {
    let dir = scratch_dir("roundtrip");
    let network = tiny_network();
    let mapper = quick_random();

    // Cold process: solve, simulate NoC, write through.
    let cold_engine = Engine::new(Arch::simba_baseline())
        .with_noc()
        .with_cache_dir(&dir)
        .expect("open cache dir");
    assert_eq!(
        cold_engine.cache_stats().warm_entries,
        0,
        "dir starts empty"
    );
    let cold = cold_engine.schedule_network(&network, &mapper);
    assert!(cold.report.is_complete());
    assert_eq!(cold.cache_misses, 2);
    assert_eq!(cold.noc_sims, 2, "one sim per unique shape");
    let disk = cold_engine.store().expect("store attached").disk_stats();
    assert_eq!(disk.index_entries, 2);
    drop(cold_engine);

    // "Next process": a fresh engine warm-starts from the same directory.
    let warm_engine = Engine::new(Arch::simba_baseline())
        .with_noc()
        .with_cache_dir(&dir)
        .expect("open cache dir");
    let stats = warm_engine.cache_stats();
    assert_eq!(stats.warm_entries, 2, "both unique shapes restored");
    let warm = warm_engine.schedule_network(&network, &mapper);
    assert_eq!(warm.cache_misses, 0, "zero solver calls on a warm start");
    assert_eq!(warm.noc_sims, 0, "zero NoC re-simulations on a warm start");
    assert_eq!(warm.cache_hits, network.layers.len() as u64);

    // Persisted entries come back verbatim: the raw per-layer reports
    // (including solve wall-clock and NoC verdicts) are identical, and the
    // canonical reports serialize to identical bytes.
    assert_eq!(warm.report.layers, cold.report.layers);
    assert_eq!(
        serde_json::to_string(&warm.report.without_timings()).unwrap(),
        serde_json::to_string(&cold.report.without_timings()).unwrap(),
        "cold and warm canonical reports must be byte-identical"
    );
    assert_eq!(warm.report.total_noc_cycles, cold.report.total_noc_cycles);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_entries_are_skipped_not_fatal() {
    let network = tiny_network();
    let mapper = quick_random();
    // `{"version":` is 11 bytes, so the version digit sits at index 11 of
    // the record head and the key's last character just before its
    // closing quote.
    let damages: [(&str, Damage); 3] = [
        ("garbage", |head| head.fill(b'#')),
        ("future-version", |head| head[11] += 1),
        ("other-key", |head| {
            let last = head.len() - 2;
            head[last] = if head[last] == b'0' { b'1' } else { b'0' };
        }),
    ];
    for (tag, damage) in damages {
        let dir = scratch_dir(&format!("corrupt-{tag}"));
        let engine = Engine::new(Arch::simba_baseline())
            .with_cache_dir(&dir)
            .expect("open cache dir");
        engine.schedule_network(&network, &mapper);
        drop(engine);

        let store = CacheStore::open(&dir).unwrap();
        let intact = store.load();
        assert_eq!((intact.entries.len(), intact.skipped), (2, 0), "{tag}");
        let (victim, spared) = (&intact.entries[0].0, &intact.entries[1].0);
        damage_record(&dir, victim, damage);

        let store = CacheStore::open(&dir).unwrap();
        let load = store.load();
        assert_eq!(load.entries.len(), 1, "{tag}: the untouched entry survives");
        assert_eq!(load.skipped, 1, "{tag}: the damaged record is counted");
        assert!(store.load_entry(victim).is_none(), "{tag}");
        assert!(store.load_entry(spared).is_some(), "{tag}");
        // The index load sees the damage only when the record is a frame
        // past the checkpoint (replay reads its head); behind an index row
        // it surfaces on the read.
        let at_index = store.load_index().skipped as u64;
        assert!(at_index <= 1, "{tag}");

        // An engine over the damaged dir still works: exactly the damaged
        // shape re-solves, and its fresh record supersedes the bad one.
        let engine = Engine::new(Arch::simba_baseline())
            .with_cache_dir(&dir)
            .expect("open cache dir");
        let run = engine.schedule_network(&network, &mapper);
        assert!(run.report.is_complete());
        assert_eq!(
            run.cache_misses, 1,
            "{tag}: only the damaged shape re-solves"
        );
        assert_eq!(engine.cache_stats().store_errors, at_index, "{tag}");
        drop(engine);
        let healed = CacheStore::open(&dir).unwrap().load();
        assert_eq!((healed.entries.len(), healed.skipped), (2, 0), "{tag}");

        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn other_version_records_are_skipped_and_superseded() {
    let dir = scratch_dir("version-skew");
    let network = tiny_network();
    let mapper = quick_random();
    let engine = Engine::new(Arch::simba_baseline())
        .with_cache_dir(&dir)
        .expect("open cache dir");
    engine.schedule_network(&network, &mapper);
    drop(engine);

    // Rewrite the segment as an older STORE_VERSION would have left it:
    // every record envelope and every index row says `"version":1`. (The
    // segment's own layout version is a binary preamble word.) Records
    // past the checkpoint have no index row yet, so there are two record
    // hits plus one per checkpointed record.
    let path = dir.join("segment.cosa");
    let current = format!("\"version\":{STORE_VERSION}");
    let mut bytes = std::fs::read(&path).unwrap();
    let hits: Vec<usize> = (0..bytes.len())
        .filter(|&at| bytes[at..].starts_with(current.as_bytes()))
        .collect();
    let records = format!("{{{current},\"key\":");
    let record_hits = hits
        .iter()
        .filter(|&&at| bytes[at - 1..].starts_with(records.as_bytes()))
        .count();
    assert_eq!(record_hits, 2, "two records");
    assert!(hits.len() <= 4, "plus at most one index row each");
    for at in hits {
        bytes[at + current.len() - 1] = b'1';
    }
    std::fs::write(&path, bytes).unwrap();

    // Skipped and counted, at the index and at the records.
    let store = CacheStore::open(&dir).unwrap();
    let index = store.load_index();
    assert_eq!((index.entries, index.skipped), (0, 2));
    assert!(store.load().entries.is_empty());

    // The engine counts them, re-solves each shape once and persists the
    // fresh records, which supersede the old ones (dead payload, or gone
    // when a superseding save took a checkpoint).
    let engine = Engine::new(Arch::simba_baseline())
        .with_cache_dir(&dir)
        .expect("open cache dir");
    let stats = engine.cache_stats();
    assert_eq!((stats.warm_entries, stats.store_errors), (0, 2));
    let run = engine.schedule_network(&network, &mapper);
    assert_eq!(run.cache_misses, 2, "each skipped shape re-solves once");
    assert_eq!(engine.cache_stats().disk_index_entries, 2);
    drop(engine);

    let warm = Engine::new(Arch::simba_baseline())
        .with_cache_dir(&dir)
        .expect("open cache dir");
    let stats = warm.cache_stats();
    assert_eq!((stats.warm_entries, stats.store_errors), (2, 0));
    assert_eq!(warm.schedule_network(&network, &mapper).cache_misses, 0);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn saves_between_checkpoints_only_append() {
    let dir = scratch_dir("append-only");
    let path = dir.join("segment.cosa");
    let store = CacheStore::open(&dir).unwrap();
    let entries = tagged_entries(32);
    // Distinct digests, then re-saves of eight of them (superseding
    // frames). A checkpoint is a rename with a fresh generation stamp
    // (preamble bytes 8..16); every other save must leave each byte
    // before the previous end of file alone.
    let mut before: Vec<u8> = Vec::new();
    let mut checkpoints = 0;
    for (key, entry) in entries.iter().chain(&entries[..8]) {
        store.save(key, entry).unwrap();
        let after = std::fs::read(&path).unwrap();
        if before.is_empty() || after[8..16] != before[8..16] {
            checkpoints += 1;
        } else {
            assert!(after.len() > before.len(), "{key}: a save appends");
            assert!(after.starts_with(&before), "{key}: and changes no old byte");
        }
        before = after;
    }
    // Checkpoints double the index each time, so 40 saves take a handful.
    assert!((2..=6).contains(&checkpoints), "{checkpoints} checkpoints");

    let load = CacheStore::open(&dir).unwrap().load();
    assert_eq!(load.skipped, 0);
    assert_eq!(load.entries, entries);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_tail_is_cut_before_the_next_append() {
    let dir = scratch_dir("torn-tail");
    let path = dir.join("segment.cosa");
    let mut entries = tagged_entries(6);
    // Longer than the entry saved after the crash, so what the cut
    // leaves of it outlasts an append written over it.
    entries[5].1.backend = Some("x".repeat(4096));
    let a = CacheStore::open(&dir).unwrap();
    for (key, entry) in &entries[..4] {
        a.save(key, entry).unwrap();
    }
    // The eviction is a checkpoint (rows key000, key002, key003); the next
    // save appends one frame past it, which a crash then cuts short.
    a.remove("key001").unwrap();
    a.save(&entries[5].0, &entries[5].1).unwrap();
    drop(a);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 100]).unwrap();

    let b = CacheStore::open(&dir).unwrap();
    let index = b.load_index();
    assert_eq!(
        (index.entries, index.skipped),
        (3, 1),
        "the torn frame counts"
    );
    assert_eq!(b.load_index().skipped, 1, "once, not per refresh");
    b.save(&entries[4].0, &entries[4].1).unwrap();
    assert_eq!(b.load_index().skipped, 0, "the writer cut it off");

    // The pre-cut live set plus the new entry: the evicted digest stays
    // gone and the torn one is not half-served.
    let reload = CacheStore::open(&dir).unwrap().load();
    assert_eq!(reload.skipped, 0);
    let want: Vec<(String, CacheEntry)> = [0, 2, 3, 4].map(|i| entries[i].clone()).into();
    assert_eq!(reload.entries, want);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_held_view_reads_exactly_across_another_handles_compactions() {
    let dir = scratch_dir("held-view");
    let mut latest = tagged_entries(10);
    let a = CacheStore::open(&dir).unwrap();
    for (key, entry) in &latest[..6] {
        a.save(key, entry).unwrap();
    }
    assert_eq!(a.load_index().entries, 6, "A's view is current");

    // Handle B supersedes records and compacts, twice, evicts one and
    // appends past the length A's view knew: every record A knew has
    // moved, in a file longer than A's.
    let b = CacheStore::open(&dir).unwrap();
    for round in 0..2 {
        for (key, entry) in &mut latest[..3] {
            entry.backend = Some(format!("{key}-round{round}"));
            b.save(key, entry).unwrap();
        }
        let report = b.gc(&GcPolicy::default().with_compact_min_dead(0)).unwrap();
        assert_eq!(report.compactions, 1, "round {round}");
    }
    b.remove("key005").unwrap();
    let evicted = latest.remove(5);
    for (key, entry) in &latest[5..] {
        b.save(key, entry).unwrap();
    }

    let load = a.load();
    assert_eq!((load.entries, load.skipped), (latest.clone(), 0));
    for (key, entry) in &latest {
        assert_eq!(a.load_entry(key).as_ref(), Some(entry), "{key}");
    }
    assert!(a.load_entry(&evicted.0).is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn frames_past_the_checkpoint_are_checked() {
    let entries = tagged_entries(2);
    // `key001` is a frame past the checkpoint: no index row vouches for
    // it. Rewrite the last byte of its key, or of its backend tag, in
    // place with framing intact.
    for needle in ["key001", "tag1"] {
        let dir = scratch_dir(&format!("frame-check-{needle}"));
        let path = dir.join("segment.cosa");
        let store = CacheStore::open(&dir).unwrap();
        for (key, entry) in &entries {
            store.save(key, entry).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let at = record_at(&bytes, "key001");
        let hit = bytes[at..]
            .windows(needle.len())
            .position(|w| w == needle.as_bytes());
        bytes[at + hit.unwrap() + needle.len() - 1] = b'7';
        std::fs::write(&path, bytes).unwrap();

        let store = CacheStore::open(&dir).unwrap();
        let load = store.load();
        let want = (entries[..1].to_vec(), 1);
        assert_eq!((load.entries, load.skipped), want, "{needle}");
        for key in ["key001", "key007"] {
            assert!(store.load_entry(key).is_none(), "{needle}: {key} served");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn version_1_segments_load_empty_and_are_replaced_by_the_first_save() {
    let dir = scratch_dir("segment-v1");
    let path = dir.join("segment.cosa");
    // The layout before the append-only log: a u64 header capacity, a
    // space-padded JSON index, then the frames it points at.
    let (key, entry) = tagged_entries(1).remove(0);
    let record = format!(
        "{{\"version\":{STORE_VERSION},\"key\":\"old1\",\"entry\":{}}}",
        serde_json::to_string(&entry).unwrap()
    );
    let index = format!(
        "{{\"version\":1,\"entries\":[{{\"key\":\"old1\",\"offset\":4112,\"len\":{},\
         \"version\":{STORE_VERSION},\"backend\":null,\"saved_at_millis\":1}}]}}",
        record.len()
    );
    let mut v1 = 4096u64.to_le_bytes().to_vec();
    v1.extend_from_slice(format!("{index:<4096}").as_bytes());
    v1.extend_from_slice(&(record.len() as u64).to_le_bytes());
    v1.extend_from_slice(record.as_bytes());
    let store = CacheStore::open(&dir).unwrap();
    std::fs::write(&path, &v1).unwrap();

    // Loads as empty, and the unreadable file is counted.
    let index = store.load_index();
    assert_eq!((index.entries, index.skipped), (0, 1));
    let engine = Engine::new(Arch::simba_baseline())
        .with_cache_dir(&dir)
        .expect("open cache dir");
    let stats = engine.cache_stats();
    assert_eq!((stats.warm_entries, stats.store_errors), (0, 1));

    // The first save does not append to it: it renames a fresh segment
    // over it.
    store.save(&key, &entry).unwrap();
    let after = std::fs::read(&path).unwrap();
    assert_ne!(after[..8], v1[..8]);
    assert!(!after.windows(6).any(|w| w == b"\"old1\""));
    let reload = CacheStore::open(&dir).unwrap().load();
    assert_eq!((reload.entries, reload.skipped), (vec![(key, entry)], 0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn segment_writer_lock_is_waited_out_or_taken_over() {
    let dir = scratch_dir("segment-lock");
    let store = CacheStore::open(&dir).unwrap();
    let layer = Layer::conv("t", 3, 3, 8, 8, 16, 16, 1, 1, 1);
    let scheduled = Scheduler::schedule(&quick_random(), &Arch::simba_baseline(), &layer);
    let entry = CacheEntry::new(scheduled.expect("valid"));
    let lock = dir.join("segment.cosa.lock");

    // A live holder (another handle mid-append holds the OS lock on this
    // file): the save waits — it neither fails nor writes anywhere else —
    // and completes once the holder releases, which unlinks the file.
    let holder = std::fs::File::create(&lock).unwrap();
    holder.lock().unwrap();
    std::thread::scope(|scope| {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let (store, entry) = (&store, &entry);
        scope.spawn(move || done_tx.send(store.save("aaa1", entry)).unwrap());
        assert!(
            done_rx.recv_timeout(Duration::from_millis(600)).is_err(),
            "the save is still waiting for the live holder"
        );
        assert_eq!(json_files(&dir), 0, "no fallback file while waiting");
        std::fs::remove_file(&lock).unwrap();
        drop(holder);
        done_rx
            .recv()
            .unwrap()
            .expect("save succeeds once released");
    });
    assert_eq!(store.load_entry("aaa1").as_ref(), Some(&entry));

    // A dead holder leaves its file behind, but nobody holds its lock:
    // the next writer takes it at once, however young the file is.
    std::fs::write(&lock, "").unwrap();
    store
        .save("bbb2", &entry)
        .expect("a dead holder's file is free");
    assert!(!lock.exists(), "the taker released its own lock");
    assert_eq!(store.load_entry("bbb2").as_ref(), Some(&entry));
    assert_eq!(json_files(&dir), 0);
    assert_eq!(CacheStore::open(&dir).unwrap().load_index().entries, 2);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn memory_eviction_keeps_disk_tier_for_warm_starts() {
    let dir = scratch_dir("evict");
    let network = tiny_network();
    let mapper = quick_random();

    // A 1-entry LRU front cannot hold both unique shapes...
    let engine = Engine::new(Arch::simba_baseline())
        .with_cache_bytes(1)
        .with_cache_dir(&dir)
        .expect("open cache dir");
    let run = engine.schedule_network(&network, &mapper);
    assert!(run.report.is_complete());
    let stats = engine.cache_stats();
    assert_eq!(stats.entries, 1, "memory front bounded");
    assert!(stats.evictions >= 1);
    // ...but the disk tier keeps everything the run produced.
    assert_eq!(engine.store().unwrap().disk_stats().index_entries, 2);
    drop(engine);

    // An unbounded engine over the same dir warm-starts fully.
    let warm = Engine::new(Arch::simba_baseline())
        .with_cache_dir(&dir)
        .expect("open cache dir");
    assert_eq!(warm.cache_stats().warm_entries, 2);
    let rerun = warm.schedule_network(&network, &mapper);
    assert_eq!(rerun.cache_misses, 0);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_bounds_after_cache_dir_keep_warm_entries() {
    let dir = scratch_dir("compose");
    let network = tiny_network();
    let mapper = quick_random();

    let engine = Engine::new(Arch::simba_baseline())
        .with_cache_dir(&dir)
        .expect("open cache dir");
    engine.schedule_network(&network, &mapper);
    drop(engine);

    // Bounding the cache *after* attaching the dir must not discard the
    // warm-loaded entries (both unique shapes fit a 1 MiB bound). The
    // segment warm start is lazy — the index is known but payloads decode
    // on first use — so the resident count grows from 0 to 2 across the
    // run while the run itself stays solver-free.
    let engine = Engine::new(Arch::simba_baseline())
        .with_cache_dir(&dir)
        .expect("open cache dir")
        .with_cache_bytes(1 << 20);
    assert_eq!(engine.cache_stats().warm_entries, 2);
    let run = engine.schedule_network(&network, &mapper);
    assert_eq!(run.cache_misses, 0, "warm start survives re-bounding");
    assert_eq!(run.cache_hits, network.layers.len() as u64);
    assert_eq!(
        engine.cache_stats().entries,
        2,
        "lazily decoded entries become resident"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn byte_budget_lru_prefers_recently_used_entries() {
    let engine = Engine::new(Arch::simba_baseline()).with_threads(1);
    let mapper = quick_random();
    let layers = [
        Layer::conv("s0", 3, 3, 8, 8, 16, 16, 1, 1, 1),
        Layer::conv("s1", 1, 1, 8, 8, 32, 16, 1, 1, 1),
        Layer::conv("s2", 1, 1, 4, 4, 16, 16, 1, 1, 1),
    ];
    let entries: Vec<(String, CacheEntry)> = layers
        .iter()
        .map(|l| {
            let s = engine.schedule_layer(&mapper, l).expect("valid");
            (engine.cache_key(&mapper, l), CacheEntry::new(s))
        })
        .collect();

    // Budget two entries' worth of canonical JSON.
    let budget: u64 = entries
        .iter()
        .take(2)
        .map(|(k, e)| k.len() as u64 + serde_json::to_string(e).unwrap().len() as u64)
        .sum::<u64>()
        + 64;
    let mut cache = ScheduleCache::bounded_bytes(budget);
    cache.insert(entries[0].0.clone(), entries[0].1.clone());
    cache.insert(entries[1].0.clone(), entries[1].1.clone());
    assert!(cache.bytes() <= budget);
    // Refresh entry 0, then force an eviction: entry 1 is the LRU victim.
    assert!(cache.peek(&entries[0].0).is_some());
    cache.insert(entries[2].0.clone(), entries[2].1.clone());
    assert!(cache.bytes() <= budget);
    assert!(cache.peek(&entries[1].0).is_none(), "LRU entry evicted");
    assert!(cache.peek(&entries[0].0).is_some(), "refreshed entry kept");
    assert!(cache.peek(&entries[2].0).is_some(), "newest entry kept");
}

#[test]
fn digests_are_stable_across_engines_and_save_load() {
    let dir = scratch_dir("digest");
    let layer = Layer::conv("t", 3, 3, 8, 8, 16, 16, 1, 1, 1);
    let mapper = quick_random();

    // The same (arch, layer, fingerprint) digests identically in any
    // engine instance.
    let a = Engine::new(Arch::simba_baseline());
    let b = Engine::new(Arch::simba_baseline());
    let key = a.cache_key(&mapper, &layer);
    assert_eq!(key, b.cache_key(&mapper, &layer));
    assert_eq!(key.len(), 32);
    assert!(key.bytes().all(|c| c.is_ascii_hexdigit()));

    // The store files are named by that digest, and a save/load round trip
    // preserves both key and value exactly.
    let engine = Engine::new(Arch::simba_baseline())
        .with_cache_dir(&dir)
        .expect("open cache dir");
    let scheduled = engine.schedule_layer(&mapper, &layer).expect("valid");
    assert!(
        dir.join("segment.cosa").is_file(),
        "packed segment holds the entry"
    );
    assert!(
        CacheStore::open(&dir).unwrap().load_entry(&key).is_some(),
        "entry indexed by the canonical digest"
    );
    let load = CacheStore::open(&dir).unwrap().load();
    assert_eq!(load.skipped, 0);
    assert_eq!(load.entries.len(), 1);
    assert_eq!(load.entries[0].0, key);
    assert_eq!(load.entries[0].1.scheduled, scheduled);

    // Saving again (same content) keeps the load stable — the atomic
    // write-then-rename replaces rather than duplicates.
    let store = CacheStore::open(&dir).unwrap();
    store.save(&key, &load.entries[0].1).expect("re-save");
    let reload = store.load();
    assert_eq!(reload.entries.len(), 1);
    assert_eq!(reload.entries[0], load.entries[0]);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_rejects_non_digest_keys() {
    let dir = scratch_dir("badkey");
    let store = CacheStore::open(&dir).unwrap();
    let engine = Engine::new(Arch::simba_baseline());
    let layer = Layer::conv("t", 3, 3, 8, 8, 16, 16, 1, 1, 1);
    let mapper = quick_random();
    let scheduled = engine.schedule_layer(&mapper, &layer).expect("valid");
    let entry = CacheEntry::new(scheduled);
    assert!(store.save("../escape", &entry).is_err());
    assert!(store.save("", &entry).is_err());
    assert_eq!(store.disk_stats().index_entries, 0);
    assert!(store.try_lock("../escape").is_err(), "locks validate keys");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn solve_locks_are_exclusive_until_released() {
    let dir = scratch_dir("lock-excl");
    // Two handles on one dir model two processes.
    let a = CacheStore::open(&dir).unwrap();
    let b = CacheStore::open(&dir).unwrap();

    let held = a.try_lock("aaa1").expect("io ok").expect("first acquire");
    assert!(dir.join("aaa1.lock").is_file());
    assert!(
        b.try_lock("aaa1").expect("io ok").is_none(),
        "second process sees the lock as held"
    );
    // Other digests stay independently lockable.
    let other = b.try_lock("bbb2").expect("io ok").expect("other digest");
    other.release();

    held.release();
    assert!(!dir.join("aaa1.lock").exists(), "release deletes the file");
    assert!(
        b.try_lock("aaa1").expect("io ok").is_some(),
        "released lock is re-acquirable"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Set in the child process of `a_killed_holder_frees_its_lock_at_once`
/// to the cache dir it takes its lock in.
const LOCK_HOLDER_DIR: &str = "COSA_TEST_LOCK_HOLDER_DIR";

/// The line that child prints once it holds its lock.
const LOCK_HELD: &str = "lock holder: holding aaa1";

/// The OS frees a lock when its holder dies: a child process (this test
/// binary re-run on this test alone) takes a solve lock and is killed,
/// and the parent's next `try_lock` succeeds at once — no sleep, no
/// pinned clock.
#[test]
fn a_killed_holder_frees_its_lock_at_once() {
    use std::io::{BufRead, BufReader};
    use std::process::{Command, Stdio};

    if let Some(dir) = std::env::var_os(LOCK_HOLDER_DIR) {
        let store = CacheStore::open(dir).unwrap();
        let _held = store.try_lock("aaa1").expect("io ok").expect("acquire");
        println!("{LOCK_HELD}");
        // Hold until killed; a parent that dies first closes the pipe.
        let _ = std::io::stdin().read_line(&mut String::new());
        return;
    }
    let dir = scratch_dir("lock-killed");
    let store = CacheStore::open(&dir).unwrap();
    let mut child = Command::new(std::env::current_exe().unwrap())
        .args([
            "--exact",
            "a_killed_holder_frees_its_lock_at_once",
            "--nocapture",
        ])
        .env(LOCK_HOLDER_DIR, &dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("re-run the test binary");
    let held = BufReader::new(child.stdout.take().unwrap())
        .lines()
        .any(|line| line.is_ok_and(|line| line.contains(LOCK_HELD)));
    assert!(held, "the child took the lock");
    assert!(
        store.try_lock("aaa1").expect("io ok").is_none(),
        "the live child holds the lock"
    );
    child.kill().unwrap();
    child.wait().unwrap();
    assert!(
        dir.join("aaa1.lock").is_file(),
        "the dead child's file stays"
    );
    assert!(
        store.try_lock("aaa1").expect("io ok").is_some(),
        "the child's death freed its lock"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gc_removes_only_unheld_lock_files() {
    let dir = scratch_dir("lock-gc");
    let store = CacheStore::open(&dir).unwrap();
    let held = store.try_lock("aaa1").expect("io ok").expect("acquire");
    // A dead holder's leftover file, which nobody holds.
    std::fs::write(dir.join("bbb2.lock"), "").unwrap();

    // However old the sweep judges them, it removes only the unheld file.
    let day_later = SystemTime::now() + Duration::from_secs(86_400);
    let report = store.gc_at(&GcPolicy::default(), day_later).expect("gc");
    assert_eq!(report.stale_locks_removed, 1, "the unheld file");
    assert!(!dir.join("bbb2.lock").exists());
    assert!(dir.join("aaa1.lock").is_file(), "the held file survives");
    let other = CacheStore::open(&dir).unwrap();
    assert!(
        other.try_lock("aaa1").expect("io ok").is_none(),
        "and is still held"
    );
    drop(held);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Entries saved bare (`CacheEntry::new`: no NoC verdict, no DRAM profile)
/// are completed by an engine that simulates the NoC and runs the
/// inter-layer pass, whichever way it reads them: a layer call through the
/// disk, a network call that reads one shape through and finds the other
/// resident, a network call on memory-resident entries, a layer hit, and a
/// second engine on the same dir. Every answer is a fresh solving engine's,
/// each shape is simulated once, and the verdicts and profiles are stored.
#[test]
fn bare_entries_are_completed_once_and_answer_like_fresh_solves() {
    let dir = scratch_dir("complete");
    let network = tiny_network();
    let mapper = quick_random();
    let arch = Arch::simba_baseline();
    let engine = || {
        Engine::new(arch.clone())
            .with_threads(1)
            .with_noc()
            .with_interlayer(InterlayerOptions::enabled())
    };
    let bare_layer = &network.layers[1].layer;
    let canonical = |s: Scheduled| {
        let s = Scheduled {
            elapsed: Duration::ZERO,
            ..s
        };
        serde_json::to_string(&s).unwrap()
    };
    let fresh = engine();
    let want_network = serde_json::to_string(
        &fresh
            .schedule_network(&network, &mapper)
            .report
            .without_timings(),
    )
    .unwrap();
    let want_layer = canonical(fresh.schedule_layer(&mapper, bare_layer).unwrap());

    let store = CacheStore::open(&dir).unwrap();
    for entry in &network.layers[..2] {
        let scheduled = Scheduler::schedule(&mapper, &arch, &entry.layer).expect("valid");
        let key = fresh.cache_key(&mapper, &entry.layer);
        store.save(&key, &CacheEntry::new(scheduled)).unwrap();
    }

    let first = engine().with_cache_dir(&dir).expect("open cache dir");
    let network_answer = |e: &Engine| {
        serde_json::to_string(
            &e.schedule_network(&network, &mapper)
                .report
                .without_timings(),
        )
        .unwrap()
    };
    // A layer read through from disk, then a network call that reads the
    // other shape through and finds this one resident, then one on
    // memory-resident entries, then a layer hit.
    assert_eq!(
        canonical(first.schedule_layer(&mapper, bare_layer).unwrap()),
        want_layer
    );
    assert_eq!(network_answer(&first), want_network);
    assert_eq!(network_answer(&first), want_network);
    assert_eq!(
        canonical(first.schedule_layer(&mapper, bare_layer).unwrap()),
        want_layer
    );
    let stats = first.cache_stats();
    assert_eq!(
        (stats.noc_sims, stats.misses, stats.store_errors),
        (2, 0, 0)
    );
    drop(first);

    let second = engine().with_cache_dir(&dir).expect("open cache dir");
    assert_eq!(network_answer(&second), want_network);
    assert_eq!(
        canonical(second.schedule_layer(&mapper, bare_layer).unwrap()),
        want_layer
    );
    let stats = second.cache_stats();
    assert_eq!(
        (stats.noc_sims, stats.misses, stats.store_errors),
        (0, 0, 0)
    );
    let stored = CacheStore::open(&dir).unwrap().load();
    assert_eq!(stored.entries.len(), 2);
    for (key, entry) in &stored.entries {
        assert!(entry.noc.is_some() && entry.dram.is_some(), "{key}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// On an engine whose default inter-layer pass is on, layer keys are the
/// keys network calls read, so a layer call completes a read-through entry
/// with everything a network call needs: each shape is persisted once, and
/// the network call that follows appends no frame.
#[test]
fn a_layer_read_through_persists_once_on_an_interlayer_engine() {
    let dir = scratch_dir("layer-then-network");
    let network = tiny_network();
    let mapper = quick_random();
    let arch = Arch::simba_baseline();
    let engine = Engine::new(arch.clone())
        .with_threads(1)
        .with_noc()
        .with_interlayer(InterlayerOptions::enabled());
    let store = CacheStore::open(&dir).unwrap();
    let shapes = [&network.layers[0].layer, &network.layers[1].layer];
    for layer in shapes {
        let scheduled = Scheduler::schedule(&mapper, &arch, layer).expect("valid");
        let key = engine.cache_key(&mapper, layer);
        store.save(&key, &CacheEntry::new(scheduled)).unwrap();
    }
    let engine = engine.with_cache_dir(&dir).expect("open cache dir");
    let segment_bytes = || engine.cache_stats().segment_bytes;

    let bare = segment_bytes();
    for layer in shapes {
        engine.schedule_layer(&mapper, layer).expect("valid");
    }
    assert!(
        segment_bytes() > bare,
        "the layer calls persist completions"
    );
    let stored = CacheStore::open(&dir).unwrap().load();
    for (key, entry) in &stored.entries {
        assert!(entry.noc.is_some() && entry.dram.is_some(), "{key}");
    }
    let after_layers = segment_bytes();
    let run = engine.schedule_network(&network, &mapper);
    assert!(run.report.is_complete());
    assert_eq!(
        segment_bytes(),
        after_layers,
        "the network call appends no frame"
    );
    let stats = engine.cache_stats();
    assert_eq!(
        (stats.misses, stats.noc_sims, stats.store_errors),
        (0, 2, 0)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cold_engine_reads_through_entries_persisted_by_another_process() {
    let dir = scratch_dir("read-through");
    let layer = Layer::conv("t", 3, 3, 8, 8, 16, 16, 1, 1, 1);
    let mapper = quick_random();

    // Both engines open the (empty) dir before any solve, so neither
    // warm-loads anything — the classic stale-warm-start gap.
    let a = Engine::new(Arch::simba_baseline())
        .with_cache_dir(&dir)
        .expect("open cache dir");
    let b = Engine::new(Arch::simba_baseline())
        .with_cache_dir(&dir)
        .expect("open cache dir");
    assert_eq!(b.cache_stats().warm_entries, 0);

    let from_a = a.schedule_layer(&mapper, &layer).expect("valid");
    assert_eq!(a.cache_stats().misses, 1, "process A solves");

    // Process B's cold request must read A's entry through from disk
    // instead of re-solving.
    let from_b = b.schedule_layer(&mapper, &layer).expect("valid");
    let stats_b = b.cache_stats();
    assert_eq!(stats_b.misses, 0, "process B never runs the solver");
    assert_eq!(stats_b.hits, 1, "the disk read-through counts as a hit");
    assert_eq!(
        serde_json::to_string(&from_b).unwrap(),
        serde_json::to_string(&from_a).unwrap(),
        "read-through serves A's entry verbatim"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn engine_waits_out_another_processes_solve_lock() {
    let dir = scratch_dir("lock-wait");
    let layer = Layer::conv("t", 3, 3, 8, 8, 16, 16, 1, 1, 1);
    let mapper = quick_random();
    let engine = Engine::new(Arch::simba_baseline())
        .with_cache_dir(&dir)
        .expect("open cache dir");
    let store = CacheStore::open(&dir).unwrap();
    let key = engine.cache_key(&mapper, &layer);

    // "Another process" holds the digest's solve lock.
    let held = store.try_lock(&key).expect("io ok").expect("acquire");

    std::thread::scope(|scope| {
        let worker = scope.spawn(|| engine.schedule_layer(&mapper, &layer).expect("valid"));
        // The engine must park on the lock rather than solve.
        let deadline = Instant::now() + Duration::from_secs(60);
        while engine.cache_stats().dedup_waits < 1 {
            assert!(
                Instant::now() < deadline,
                "engine never waited on the foreign solve lock"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(engine.cache_stats().misses, 0, "no solve while parked");

        // The foreign process finishes: persists its entry, releases.
        let foreign = CacheEntry::new(
            Scheduler::schedule(&mapper, &Arch::simba_baseline(), &layer).expect("valid"),
        );
        store.save(&key, &foreign).expect("persist");
        held.release();

        let scheduled = worker.join().expect("worker");
        assert_eq!(
            serde_json::to_string(&scheduled).unwrap(),
            serde_json::to_string(&foreign.scheduled).unwrap(),
            "the waiter serves the foreign entry verbatim"
        );
    });
    let stats = engine.cache_stats();
    assert_eq!(stats.misses, 0, "the whole wait cost zero solver calls");
    assert_eq!(stats.dedup_waits, 1);
    assert_eq!(stats.hits, 1, "the foreign entry lands as a hit");
    let _ = std::fs::remove_dir_all(&dir);
}
