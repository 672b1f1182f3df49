#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # parpool — a deterministic work-stealing scheduler for sweeps
//!
//! The workspace's parallelism is exclusively *sweep-shaped*: a fixed list
//! of independent, seeded, pure work items (one simulation run each) whose
//! results must come back **in input order** and **bit-for-bit identical at
//! every thread count**. This crate provides exactly that and nothing else:
//!
//! * [`run_ordered`] — the one entry point. Items are distributed over a
//!   scoped pool of `std::thread` workers, each owning a double-ended work
//!   queue seeded with a contiguous block of item indices. A worker drains
//!   its own deque from the front and, when empty, *steals the back half*
//!   of a victim's deque (the classic work-stealing discipline, with locks
//!   instead of lock-free Chase–Lev deques — sweep items are whole
//!   simulation runs, so queue operations are nowhere near the hot path).
//! * Determinism by construction: every result is written back under the
//!   index of the item that produced it, and the output vector is assembled
//!   in index order. Scheduling order, thread count and steal interleavings
//!   cannot affect the output, only the wall clock. There is no
//!   pool-injected randomness to leak into item functions: an item that
//!   needs randomness must carry its own seed.
//! * Nested calls run inline: a worker that re-enters [`run_ordered`]
//!   executes the nested sweep sequentially on the spot. The outer sweep is
//!   already keeping every core busy, and inline execution keeps the
//!   nested results on the caller's stack with zero coordination.
//!
//! ## Thread-count selection
//!
//! [`max_threads`] resolves, in order: the programmatic override set by
//! [`set_thread_override`] (used by determinism tests to pin both sides of
//! an equality check), the `LGG_THREADS` environment variable (used by CI
//! to run the same binary in 1-thread and N-thread configurations), and
//! finally [`std::thread::available_parallelism`].

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable overriding the worker count (`0` / unparseable
/// values are ignored).
pub const THREADS_ENV: &str = "LGG_THREADS";

/// Programmatic thread-count override; `0` means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

std::thread_local! {
    /// Set while the current thread is a pool worker; nested sweeps run
    /// inline instead of spawning a second pool.
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Pins the worker count for the current process, overriding both
/// `LGG_THREADS` and the detected core count. `None` clears the override.
///
/// Intended for determinism tests that compare a 1-thread run against an
/// N-thread run inside one process.
pub fn set_thread_override(n: Option<usize>) {
    THREAD_OVERRIDE.store(n.unwrap_or(0), Ordering::SeqCst);
}

/// The worker count [`run_ordered`] will use for a sufficiently large
/// sweep: the [`set_thread_override`] value if set, else `LGG_THREADS` if
/// set and positive, else the machine's available parallelism.
pub fn max_threads() -> usize {
    let o = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if o > 0 {
        return o;
    }
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `true` while called from inside a pool worker thread.
pub fn is_worker() -> bool {
    IN_WORKER.with(|w| w.get())
}

/// One worker's deque plus the shared steal protocol.
struct WorkQueues {
    deques: Vec<Mutex<VecDeque<usize>>>,
}

impl WorkQueues {
    /// Distributes `0..count` as contiguous blocks, one per worker, so the
    /// common balanced case never steals and neighbours work on
    /// cache-adjacent items.
    fn new(count: usize, workers: usize) -> Self {
        let mut deques: Vec<Mutex<VecDeque<usize>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        let base = count / workers;
        let extra = count % workers;
        let mut next = 0usize;
        for (w, dq) in deques.iter_mut().enumerate() {
            let take = base + usize::from(w < extra);
            dq.get_mut().unwrap().extend(next..next + take);
            next += take;
        }
        debug_assert_eq!(next, count);
        WorkQueues { deques }
    }

    /// Pops the next index for worker `w`: own deque front first, then
    /// steal the back half of the first non-empty victim.
    fn next(&self, w: usize) -> Option<usize> {
        if let Some(i) = self.deques[w].lock().unwrap().pop_front() {
            return Some(i);
        }
        let n = self.deques.len();
        for off in 1..n {
            let victim = (w + off) % n;
            let mut vq = self.deques[victim].lock().unwrap();
            let len = vq.len();
            if len == 0 {
                continue;
            }
            // Take the back half (at least one item); the victim keeps the
            // front of its own queue, preserving its locality.
            let stolen: VecDeque<usize> = vq.split_off(len - (len + 1) / 2);
            drop(vq);
            let mut own = self.deques[w].lock().unwrap();
            *own = stolen;
            return own.pop_front();
        }
        None
    }
}

/// Applies `f` to every item and returns the results **in input order**,
/// fanning the items across a work-stealing pool of scoped threads.
///
/// Guarantees, independent of thread count and scheduling:
/// * `out[i] == f(items[i])` for every `i` — results are written back by
///   item index and assembled in index order.
/// * `f` is called exactly once per item.
///
/// Runs sequentially (no threads spawned) when the sweep has fewer than
/// two items, when [`max_threads`] is 1, or when called from inside a
/// worker (nested sweeps).
///
/// # Panics
///
/// If `f` panics on any item the panic is propagated after the scope
/// joins, like `std::thread::scope`.
pub fn run_ordered<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let count = items.len();
    let workers = max_threads().min(count);
    if workers <= 1 || is_worker() {
        return items.into_iter().map(f).collect();
    }

    // Items are taken by index (each exactly once); results come back as
    // (index, result) pairs merged in index order afterwards. Per-item
    // mutexes are uncontended by construction — the queues hand each index
    // to exactly one worker.
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|x| Mutex::new(Some(x))).collect();
    let queues = WorkQueues::new(count, workers);
    let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(count));

    std::thread::scope(|scope| {
        for w in 0..workers {
            let slots = &slots;
            let queues = &queues;
            let results = &results;
            let f = &f;
            scope.spawn(move || {
                IN_WORKER.with(|g| g.set(true));
                let mut local: Vec<(usize, R)> = Vec::new();
                while let Some(i) = queues.next(w) {
                    let item = slots[i].lock().unwrap().take().expect("index taken once");
                    local.push((i, f(item)));
                }
                results.lock().unwrap().extend(local);
                IN_WORKER.with(|g| g.set(false));
            });
        }
    });

    let mut pairs = results.into_inner().unwrap();
    debug_assert_eq!(pairs.len(), count);
    pairs.sort_unstable_by_key(|&(i, _)| i);
    pairs.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Serializes tests that touch the global override.
    static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn results_come_back_in_input_order() {
        let _g = OVERRIDE_LOCK.lock().unwrap();
        set_thread_override(Some(4));
        let out = run_ordered((0..1000u64).collect(), |x| x * x);
        set_thread_override(None);
        assert_eq!(out, (0..1000u64).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn identical_across_thread_counts() {
        let _g = OVERRIDE_LOCK.lock().unwrap();
        let work = |x: u64| {
            // A pseudo-random amount of spinning makes schedules diverge.
            let mut h = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            for _ in 0..(h % 64) {
                h = h.rotate_left(7) ^ 0xABCD;
            }
            (x, h)
        };
        let mut reference = None;
        for threads in [1usize, 2, 3, 8] {
            set_thread_override(Some(threads));
            let out = run_ordered((0..257u64).collect(), work);
            set_thread_override(None);
            match &reference {
                None => reference = Some(out),
                Some(r) => assert_eq!(&out, r, "threads = {threads}"),
            }
        }
    }

    #[test]
    fn each_item_runs_exactly_once() {
        let _g = OVERRIDE_LOCK.lock().unwrap();
        set_thread_override(Some(3));
        let calls = AtomicUsize::new(0);
        let out = run_ordered((0..100usize).collect(), |i| {
            calls.fetch_add(1, Ordering::SeqCst);
            i
        });
        set_thread_override(None);
        assert_eq!(out.len(), 100);
        assert_eq!(calls.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn imbalanced_items_get_stolen() {
        let _g = OVERRIDE_LOCK.lock().unwrap();
        set_thread_override(Some(4));
        // Front-loaded cost: worker 0's block is ~all the work; the others
        // must steal to finish. Correctness (order + coverage) is what we
        // assert; the stealing path is exercised by construction.
        let out = run_ordered((0..64u64).collect(), |i| {
            if i < 16 {
                let mut acc = i;
                for k in 0..200_000u64 {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
                }
                (i, acc)
            } else {
                (i, 0)
            }
        });
        set_thread_override(None);
        assert_eq!(out.len(), 64);
        for (k, (i, _)) in out.iter().enumerate() {
            assert_eq!(*i, k as u64);
        }
    }

    #[test]
    fn nested_calls_run_inline() {
        let _g = OVERRIDE_LOCK.lock().unwrap();
        set_thread_override(Some(4));
        let out = run_ordered(vec![10u64, 20, 30], |base| {
            assert!(is_worker());
            // Nested sweep: must run inline and stay ordered.
            run_ordered((0..5u64).collect(), move |i| base + i)
        });
        set_thread_override(None);
        assert_eq!(
            out,
            vec![
                vec![10, 11, 12, 13, 14],
                vec![20, 21, 22, 23, 24],
                vec![30, 31, 32, 33, 34]
            ]
        );
        assert!(!is_worker());
    }

    #[test]
    fn empty_and_single_item_sweeps() {
        let _g = OVERRIDE_LOCK.lock().unwrap();
        let empty: Vec<u32> = run_ordered(Vec::<u32>::new(), |x| x);
        assert!(empty.is_empty());
        let one = run_ordered(vec![7u32], |x| x + 1);
        assert_eq!(one, vec![8]);
    }

    #[test]
    fn override_beats_env() {
        let _g = OVERRIDE_LOCK.lock().unwrap();
        set_thread_override(Some(2));
        assert_eq!(max_threads(), 2);
        set_thread_override(None);
        assert!(max_threads() >= 1);
    }

    #[test]
    fn block_distribution_covers_all_indices() {
        for (count, workers) in [(10, 3), (3, 8), (0, 2), (16, 4)] {
            let q = WorkQueues::new(count, workers);
            let mut seen: Vec<usize> = q
                .deques
                .iter()
                .flat_map(|d| d.lock().unwrap().iter().copied().collect::<Vec<_>>())
                .collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..count).collect::<Vec<_>>());
        }
    }
}
