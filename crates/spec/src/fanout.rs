//! Caller-inclusive fan-out: map a slice on up to `workers` threads, the
//! calling thread being one of them.
//!
//! The one place in the workspace that spreads independent work over
//! threads: the batch engine's solve and NoC-backfill passes, and the NoC
//! simulator's per-transfer-set mesh runs. The caller works through the
//! same shared index as its `workers − 1` scoped helpers, so a call with
//! at most one item (or one worker) runs inline and spawns nothing.
//!
//! # Example
//!
//! ```
//! use cosa_spec::fanout;
//!
//! let squares = fanout::map(&[1u64, 2, 3, 4], 2, |x| x * x);
//! assert_eq!(squares, [1, 4, 9, 16]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};

/// `f` applied to every item, results in item order, computed on
/// `min(workers, items.len())` threads including the caller.
///
/// Items are handed out one at a time from a shared index, so a worker
/// that draws a long item does not hold up the rest; put long items first
/// to keep the last one from running alone. A panic in `f` propagates to
/// the caller once every worker has stopped.
pub fn map<T: Sync, R: Send>(items: &[T], workers: usize, f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let workers = workers.min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let share = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return done;
            };
            done.push((i, f(item)));
        }
    };
    let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(share)).collect();
        let mine = share();
        for helper in helpers {
            let theirs = helper
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (i, r) in theirs {
                slots[i] = Some(r);
            }
        }
        for (i, r) in mine {
            slots[i] = Some(r);
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every item is drawn exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::sync::{Barrier, Mutex};
    use std::thread::{self, ThreadId};

    #[test]
    fn at_most_one_item_runs_on_the_calling_thread() {
        let caller = thread::current().id();
        for workers in [0, 1, 2, 8] {
            let none: Vec<ThreadId> = map(&[] as &[u8], workers, |_| thread::current().id());
            assert!(none.is_empty());
            let one = map(&[7u8], workers, |_| thread::current().id());
            assert_eq!(one, [caller], "{workers} workers");
        }
    }

    #[test]
    fn one_worker_runs_every_item_on_the_calling_thread() {
        let caller = thread::current().id();
        let ids = map(&[1, 2, 3, 4, 5], 1, |_| thread::current().id());
        assert!(ids.iter().all(|id| *id == caller));
    }

    #[test]
    fn every_item_is_visited_exactly_once_in_order() {
        for n in [2usize, 3, 5, 17, 64] {
            for workers in [2usize, 3, 4, 8, 100] {
                let items: Vec<usize> = (0..n).collect();
                let visits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
                let threads = Mutex::new(Vec::new());
                let out = map(&items, workers, |&i| {
                    visits[i].fetch_add(1, Ordering::Relaxed);
                    threads.lock().unwrap().push(thread::current().id());
                    i * 10
                });
                assert_eq!(out, items.iter().map(|i| i * 10).collect::<Vec<_>>());
                assert!(
                    visits.iter().all(|v| v.load(Ordering::Relaxed) == 1),
                    "{n} items, {workers} workers"
                );
                let mut threads = threads.into_inner().unwrap();
                threads.sort_unstable_by_key(|id| format!("{id:?}"));
                threads.dedup();
                assert!(threads.len() <= workers.min(n));
            }
        }
    }

    #[test]
    fn the_caller_is_one_of_the_workers() {
        // Each item waits for the other at a barrier, so the call finishes
        // only if the caller and its one helper each take one.
        let caller = thread::current().id();
        let both = Barrier::new(2);
        let ids = map(&[0, 1], 2, |_| {
            both.wait();
            thread::current().id()
        });
        assert_ne!(ids[0], ids[1]);
        assert!(ids.contains(&caller));
    }

    #[test]
    #[should_panic(expected = "item 3")]
    fn a_panicking_item_reaches_the_caller() {
        map(&[1, 2, 3, 4], 2, |&i| {
            assert_ne!(i, 3, "item 3");
            i
        });
    }
}
