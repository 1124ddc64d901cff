//! # gaudi-exec — deterministic parallel execution
//!
//! A std-only fan-out over scoped threads, built for one job: running the
//! simulator's embarrassingly-parallel loops (data-parallel serving
//! replicas, cluster boxes, per-device SPMD interpretation, sweep
//! configuration points) without perturbing a single bit of their output.
//!
//! The contract is the whole point:
//!
//! * [`ExecPool::par_map`] **always returns results in input order**, no
//!   matter which thread computed which item or in what order items
//!   finished. Callers that fold results index-by-index therefore produce
//!   output bit-identical to a serial loop — which is what lets CI keep
//!   gating on two-run (and serial-vs-parallel) reproducibility.
//! * [`ExecPool::try_par_map`] surfaces the **lowest-index** error, exactly
//!   the error a serial `collect::<Result<_, _>>()` would have returned.
//! * A panicking task is re-thrown on the caller's thread, payload
//!   unchanged, once every thread of its batch has stopped — never
//!   swallowed, never deadlocked.
//!
//! ## Design
//!
//! Each `par_map` call is one batch inside one [`std::thread::scope`]: the
//! caller and up to `min(concurrency, n) − 1` scoped threads claim indices
//! from one shared atomic counter until it runs past `n`, each keeping its
//! own `(index, result)` pairs, which the caller sorts by index once every
//! thread has joined. The scope is what lets the threads borrow the
//! caller's data. A thread that cannot be spawned is simply not there: the
//! ones that did start claim its share. A `par_map` called from inside a
//! batch runs inline on the thread that called it, so a batch never runs
//! on more than `min(concurrency, n)` threads, nesting included. The
//! traffic is coarse — a few dozen batches in a whole `sweeps` run, one
//! per node of a partitioned run — so spawning per batch (tens of µs)
//! costs nothing measurable.
//!
//! Concurrency comes from [`ExecPool::new`], or for the shared
//! [`ExecPool::global`] pool from the `GAUDI_EXEC_THREADS` environment
//! variable (defaulting to [`std::thread::available_parallelism`]).
//! The pool is the simulator's only source of threads — the tensor
//! kernels (matmul, reductions, element-wise maps) run on the calling
//! thread — so `GAUDI_EXEC_THREADS=1` runs a whole simulation on one
//! thread, as simbench's reps do. [`ExecPool::serial`] is the reference
//! that `sweeps`' second pass and `tests/exec_determinism.rs` compare
//! parallel runs against.

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// How many threads a `par_map` may run on. The pool owns no threads: each
/// batch spawns its own, scoped to the call.
///
/// Cloning is free. A pool of concurrency 1 ([`ExecPool::serial`]) never
/// spawns and runs every `par_map` inline — it is the reference against
/// which parallel runs are compared bit-for-bit.
#[derive(Clone, Debug)]
pub struct ExecPool {
    concurrency: usize,
}

thread_local! {
    /// Set while this thread runs items of a batch, so a nested `par_map`
    /// runs inline instead of spawning threads of its own.
    static IN_BATCH: Cell<bool> = const { Cell::new(false) };
}

impl ExecPool {
    /// A pool with `threads`-way concurrency: each batch runs on the
    /// calling thread plus up to `threads - 1` scoped threads. `threads <=
    /// 1` yields the inline serial pool.
    pub fn new(threads: usize) -> Self {
        ExecPool {
            concurrency: threads.max(1),
        }
    }

    /// The 1-way pool: no threads, `par_map` runs inline. The serial
    /// baseline every parallel run must match bit-for-bit.
    pub fn serial() -> Self {
        ExecPool::new(1)
    }

    /// The process-wide shared pool, created on first use. Sized by the
    /// `GAUDI_EXEC_THREADS` environment variable when set (min 1),
    /// otherwise by [`std::thread::available_parallelism`].
    pub fn global() -> &'static ExecPool {
        static GLOBAL: OnceLock<ExecPool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let threads = std::env::var("GAUDI_EXEC_THREADS")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n >= 1)
                .unwrap_or_else(|| {
                    std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1)
                });
            ExecPool::new(threads)
        })
    }

    /// Total concurrency: the participating caller plus the threads a
    /// batch may spawn.
    pub fn concurrency(&self) -> usize {
        self.concurrency
    }

    /// Map `f` over `0..n` in parallel, returning results **in index
    /// order**. `f` must be a pure function of its index for the ordering
    /// guarantee to mean determinism — which is true of everything this
    /// workspace simulates.
    ///
    /// Panics in `f` are re-raised on the calling thread once every thread
    /// of the batch has stopped.
    pub fn par_map_range<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if self.concurrency <= 1 || n == 0 || IN_BATCH.get() {
            return (0..n).map(f).collect();
        }
        run_batch(self.concurrency.min(n), n, &f)
    }

    /// Map `f` over a slice in parallel; results come back in input order.
    /// `f` receives `(index, &item)`.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.par_map_range(items.len(), |i| f(i, &items[i]))
    }

    /// Fallible [`par_map_range`](Self::par_map_range): returns the
    /// **lowest-index** error — exactly what a serial
    /// `collect::<Result<Vec<_>, _>>()` over the same closure would
    /// return, so error behavior is identical to the serial path. (Later
    /// items may still have been computed and discarded; `f` must be free
    /// of side effects that would make that observable.)
    pub fn try_par_map_range<R, E, F>(&self, n: usize, f: F) -> Result<Vec<R>, E>
    where
        R: Send,
        E: Send,
        F: Fn(usize) -> Result<R, E> + Sync,
    {
        self.par_map_range(n, f).into_iter().collect()
    }

    /// Fallible [`par_map`](Self::par_map) with the same lowest-index
    /// error guarantee.
    pub fn try_par_map<T, R, E, F>(&self, items: &[T], f: F) -> Result<Vec<R>, E>
    where
        T: Sync,
        R: Send,
        E: Send,
        F: Fn(usize, &T) -> Result<R, E> + Sync,
    {
        self.try_par_map_range(items.len(), |i| f(i, &items[i]))
    }
}

/// One batch on the caller plus up to `threads - 1` scoped threads. A batch
/// of one item spawns nothing but still marks the caller as in a batch.
fn run_batch<R, F>(threads: usize, n: usize, f: &F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    // Both atomics are Relaxed: neither publishes data, since results and
    // panic payloads come back through the joins. `panicked` stops the
    // claiming once an item panicked.
    let next = AtomicUsize::new(0);
    let panicked = AtomicBool::new(false);
    let participate = || {
        IN_BATCH.set(true);
        let mut done = Vec::new();
        let run = catch_unwind(AssertUnwindSafe(|| {
            while !panicked.load(Ordering::Relaxed) {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                done.push((i, f(i)));
            }
        }));
        IN_BATCH.set(false);
        if run.is_err() {
            panicked.store(true, Ordering::Relaxed);
        }
        (done, run.err())
    };
    let parts = std::thread::scope(|s| {
        let spawn = |_| {
            std::thread::Builder::new()
                .spawn_scoped(s, participate)
                .ok()
        };
        let helpers: Vec<_> = (1..threads).map_while(spawn).collect();
        let mut parts = vec![participate()];
        for h in helpers {
            parts.push(h.join().expect("a participant catches its own panics"));
        }
        parts
    });

    let mut pairs = Vec::with_capacity(n);
    let mut payload = None;
    for (done, p) in parts {
        pairs.extend(done);
        payload = payload.or(p);
    }
    if let Some(p) = payload {
        resume_unwind(p);
    }
    debug_assert_eq!(pairs.len(), n, "every index claimed exactly once");
    pairs.sort_unstable_by_key(|&(i, _)| i);
    pairs.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn results_come_back_in_input_order() {
        let pool = ExecPool::new(4);
        let items: Vec<usize> = (0..1000).collect();
        let out = pool.par_map(&items, |i, &x| {
            assert_eq!(i, x);
            x * x
        });
        let expect: Vec<usize> = items.iter().map(|&x| x * x).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let pool = ExecPool::new(8);
        let calls = AtomicUsize::new(0);
        let n = 10_000;
        let out = pool.par_map_range(n, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), n);
        assert_eq!(out, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        // f64 accumulation in a fixed order: the exact check the serving
        // engine relies on.
        let work = |i: usize| {
            let mut acc = 0.1f64;
            for k in 0..100 {
                acc += ((i * 31 + k) as f64).sin();
            }
            acc
        };
        let serial = ExecPool::serial().par_map_range(257, work);
        let parallel = ExecPool::new(5).par_map_range(257, work);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn serial_pool_runs_inline_without_threads() {
        let pool = ExecPool::serial();
        assert_eq!(pool.concurrency(), 1);
        // Non-Send closures state would fail to compile; runtime check: a
        // thread-local-ish marker survives because everything is inline.
        let here = std::thread::current().id();
        let ids = pool.par_map_range(4, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == here));
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let pool = ExecPool::new(4);
        let empty: Vec<u8> = Vec::new();
        assert!(pool.par_map(&empty, |_, &b| b).is_empty());
        assert_eq!(pool.par_map(&[41], |_, &x| x + 1), vec![42]);
    }

    #[test]
    fn try_par_map_returns_the_lowest_index_error() {
        let pool = ExecPool::new(4);
        let r: Result<Vec<usize>, usize> =
            pool.try_par_map_range(100, |i| if i % 7 == 3 { Err(i) } else { Ok(i) });
        assert_eq!(r.unwrap_err(), 3, "serial would fail at index 3 first");
        let ok: Result<Vec<usize>, ()> = pool.try_par_map_range(10, Ok);
        assert_eq!(ok.unwrap(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn nested_par_map_on_one_pool_makes_progress() {
        let pool = ExecPool::new(3);
        let out = pool.par_map_range(6, |i| {
            let inner: usize = pool.par_map_range(5, |j| i * 10 + j).into_iter().sum();
            inner
        });
        let expect: Vec<usize> = (0..6).map(|i| (0..5).map(|j| i * 10 + j).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn a_batch_runs_on_at_most_min_k_n_threads_and_nests_inline() {
        for k in [2, 3, 8] {
            let pool = ExecPool::new(k);
            for n in [1, 2, 5, 64] {
                let ids = pool.par_map_range(n, |_| {
                    let here = std::thread::current().id();
                    let inner = pool.par_map_range(4, |_| std::thread::current().id());
                    assert!(inner.iter().all(|&id| id == here), "k={k} n={n}");
                    here
                });
                let threads: HashSet<_> = ids.into_iter().collect();
                assert!(threads.len() <= k.min(n), "k={k} n={n}: {}", threads.len());
            }
        }
    }

    #[test]
    fn panics_propagate_to_the_caller() {
        let pool = ExecPool::new(4);
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.par_map_range(64, |i| {
                if i == 17 {
                    panic!("task 17 exploded");
                }
                i
            })
        }));
        let payload = r.unwrap_err();
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("exploded"), "got: {msg}");
        // The pool survives a panicked batch.
        assert_eq!(pool.par_map_range(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn many_small_batches_keep_input_order() {
        let pool = ExecPool::new(4);
        for round in 0..200 {
            let out = pool.par_map_range(8, |i| i + round);
            assert_eq!(out, (round..round + 8).collect::<Vec<_>>());
        }
    }

    #[test]
    fn borrows_non_static_data() {
        let pool = ExecPool::new(4);
        let data: Vec<String> = (0..64).map(|i| format!("item-{i}")).collect();
        let lens = pool.par_map(&data, |_, s| s.len());
        assert_eq!(lens[0], "item-0".len());
        assert_eq!(lens[63], "item-63".len());
        drop(data); // still exclusively ours
    }

    #[test]
    fn global_pool_is_shared_and_sized() {
        let a = ExecPool::global();
        let b = ExecPool::global();
        assert_eq!(a.concurrency(), b.concurrency());
        assert!(a.concurrency() >= 1);
        assert_eq!(a.par_map_range(5, |i| i * 2), vec![0, 2, 4, 6, 8]);
    }
}
