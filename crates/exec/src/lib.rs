//! # gaudi-exec — deterministic parallel execution
//!
//! A std-only scoped work-stealing thread pool built for one job: running
//! the simulator's embarrassingly-parallel loops (data-parallel serving
//! replicas, per-device SPMD interpretation, sweep configuration points)
//! without perturbing a single bit of their output.
//!
//! The contract is the whole point:
//!
//! * [`ExecPool::par_map`] **always returns results in input order**, no
//!   matter which worker computed which item or in what order items
//!   finished. Callers that fold results index-by-index therefore produce
//!   output bit-identical to a serial loop — which is what lets CI keep
//!   gating on two-run (and serial-vs-parallel) reproducibility.
//! * [`ExecPool::try_par_map`] surfaces the **lowest-index** error, exactly
//!   the error a serial `collect::<Result<_, _>>()` would have returned.
//! * A panicking task is re-thrown on the caller's thread after the batch
//!   quiesces — never swallowed, never deadlocked.
//!
//! ## Design
//!
//! Workers are long-lived threads parked on a condition variable. Each
//! `par_map` call builds a *batch* on the caller's stack: the input slice,
//! the closure, and one atomic `[start, end)` index range per participant.
//! A type-erased handle to the batch is announced to the pool; workers that
//! pick it up claim indices one at a time from their own range and, when it
//! runs dry, **steal from the back of the fullest remaining range** (plain
//! CAS on a packed `u64`, no locks on the claim path). The caller
//! participates too, so a busy pool can never deadlock a nested `par_map`:
//! every claimed index is actively being executed by some thread, and
//! unclaimed indices can always be claimed by the caller itself.
//!
//! Borrowing non-`'static` data from worker threads is made sound by a
//! close/drain protocol rather than by scoped-spawn: workers register
//! entry into a batch under a lock, the caller marks the batch closed and
//! waits until every registered participant has exited before its stack
//! frame is allowed to unwind. Stale announcements popped after the close
//! see the closed flag and never touch the (gone) batch.
//!
//! Thread count comes from [`ExecPool::new`], or for the shared
//! [`ExecPool::global`] pool from the `GAUDI_EXEC_THREADS` environment
//! variable (defaulting to [`std::thread::available_parallelism`]).
//! The pool is the simulator's only source of threads — the tensor
//! kernels (matmul, reductions, element-wise maps) run on the calling
//! thread — so `GAUDI_EXEC_THREADS=1` runs a whole simulation on one
//! thread, as simbench's reps do. [`ExecPool::serial`] is the reference
//! that `sweeps`' second pass and `tests/exec_determinism.rs` compare
//! parallel runs against.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// A handle to a (possibly shared) pool of worker threads.
///
/// Cloning is cheap and shares the underlying workers. A pool of
/// concurrency 1 ([`ExecPool::serial`]) owns no threads at all and runs
/// every `par_map` inline — it is the reference against which parallel
/// runs are compared bit-for-bit.
#[derive(Clone)]
pub struct ExecPool {
    shared: Option<Arc<PoolShared>>,
}

impl std::fmt::Debug for ExecPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecPool")
            .field("concurrency", &self.concurrency())
            .finish()
    }
}

impl ExecPool {
    /// A pool with `threads`-way concurrency: `threads - 1` worker threads
    /// plus the calling thread, which always participates in its own
    /// batches. `threads <= 1` yields the inline serial pool.
    pub fn new(threads: usize) -> Self {
        if threads <= 1 {
            return ExecPool { shared: None };
        }
        let inner = Arc::new(PoolInner {
            queue: Mutex::new(VecDeque::new()),
            work_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            workers: threads - 1,
        });
        let mut handles = Vec::with_capacity(threads - 1);
        for i in 0..threads - 1 {
            let inner = Arc::clone(&inner);
            let h = std::thread::Builder::new()
                .name(format!("gaudi-exec-{i}"))
                .spawn(move || worker_loop(&inner));
            match h {
                Ok(h) => handles.push(h),
                Err(_) => break, // run with however many threads we got
            }
        }
        if handles.is_empty() {
            return ExecPool { shared: None };
        }
        ExecPool {
            shared: Some(Arc::new(PoolShared {
                inner,
                handles: Mutex::new(handles),
            })),
        }
    }

    /// The 1-way pool: no threads, `par_map` runs inline. The serial
    /// baseline every parallel run must match bit-for-bit.
    pub fn serial() -> Self {
        ExecPool { shared: None }
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

    /// Total concurrency: worker threads plus the participating caller.
    pub fn concurrency(&self) -> usize {
        match &self.shared {
            None => 1,
            Some(s) => s.inner.workers + 1,
        }
    }

    /// Map `f` over `0..n` in parallel, returning results **in index
    /// order**. `f` must be a pure function of its index for the ordering
    /// guarantee to mean determinism — which is true of everything this
    /// workspace simulates.
    ///
    /// Panics in `f` are re-raised on the calling thread once the batch
    /// has quiesced.
    pub fn par_map_range<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let Some(shared) = &self.shared else {
            return (0..n).map(f).collect();
        };
        if n <= 1 {
            return (0..n).map(f).collect();
        }
        run_batch(&shared.inner, n, &f)
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
        let mut out = Vec::with_capacity(n);
        for r in self.par_map_range(n, f) {
            out.push(r?);
        }
        Ok(out)
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

/// What every clone of a parallel [`ExecPool`] shares. Dropping the last
/// clone shuts the workers down and joins them.
struct PoolShared {
    inner: Arc<PoolInner>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Drop for PoolShared {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        // Take the queue lock so the notify cannot race a worker between
        // its shutdown check and its wait.
        {
            let _q = self.inner.queue.lock().unwrap();
            self.inner.work_cv.notify_all();
        }
        for h in self.handles.lock().unwrap().drain(..) {
            let _ = h.join();
        }
    }
}

struct PoolInner {
    /// Announced batches. A batch may be announced multiple times (once
    /// per worker it could use); stale announcements are harmless — see
    /// [`BatchCore::participate`].
    queue: Mutex<VecDeque<Arc<BatchCore>>>,
    work_cv: Condvar,
    shutdown: AtomicBool,
    workers: usize,
}

fn worker_loop(inner: &PoolInner) {
    loop {
        let core = {
            let mut q = inner.queue.lock().unwrap();
            loop {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(c) = q.pop_front() {
                    break c;
                }
                q = inner.work_cv.wait(q).unwrap();
            }
        };
        core.participate();
    }
}

/// The `'static` announcement handle for one `par_map` batch. The batch
/// data itself lives on the caller's stack; this core carries a
/// type-erased pointer to it plus the entry/close bookkeeping that makes
/// the borrow sound.
struct BatchCore {
    state: Mutex<BatchState>,
    quiesced: Condvar,
    /// Monomorphized participant entry point for the erased batch.
    runner: unsafe fn(*const ()),
}

struct BatchState {
    /// Pointer to the stack-resident `BatchData`; nulled after close+drain.
    batch: *const (),
    /// Participants currently inside `runner`.
    active: usize,
    /// Set by the caller once all work is claimed; late poppers must not
    /// enter.
    closed: bool,
}

// SAFETY: `batch` is only dereferenced by participants registered under
// the state lock while `closed` is false; the owning stack frame does not
// exit (or unwind) until `closed` is set and `active` has drained to zero.
unsafe impl Send for BatchCore {}
unsafe impl Sync for BatchCore {}

impl BatchCore {
    fn participate(&self) {
        let ptr = {
            let mut st = self.state.lock().unwrap();
            if st.closed {
                return;
            }
            st.active += 1;
            st.batch
        };
        // SAFETY: entry was registered above, so the caller is blocked in
        // `drain` until we exit; `ptr` stays valid for the whole call.
        // `runner` catches panics internally and never unwinds.
        unsafe { (self.runner)(ptr) };
        let mut st = self.state.lock().unwrap();
        st.active -= 1;
        if st.active == 0 {
            self.quiesced.notify_all();
        }
    }

    /// Close the batch and wait until every registered participant has
    /// left. After this returns the caller's stack frame is the only
    /// referent of the batch data.
    fn drain(&self) {
        let mut st = self.state.lock().unwrap();
        st.closed = true;
        while st.active > 0 {
            st = self.quiesced.wait(st).unwrap();
        }
        st.batch = std::ptr::null();
    }
}

/// Pack a half-open index range `[start, end)` into one CAS-able word.
#[inline]
fn pack(start: u32, end: u32) -> u64 {
    ((start as u64) << 32) | end as u64
}

#[inline]
fn unpack(v: u64) -> (u32, u32) {
    ((v >> 32) as u32, v as u32)
}

/// The per-batch scratch living on the caller's stack for the duration of
/// one `par_map_range` call.
struct BatchData<'a, R, F> {
    f: &'a F,
    /// One claimable `[start, end)` range per potential participant.
    ranges: Vec<AtomicU64>,
    /// Hands each entering participant a distinct home range.
    next_slot: AtomicUsize,
    /// `(index, result)` pairs, flushed once per participant.
    results: Mutex<Vec<(usize, R)>>,
    /// A task panicked: stop claiming, propagate after the drain.
    panicked: AtomicBool,
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

impl<R, F: Fn(usize) -> R> BatchData<'_, R, F> {
    /// Claim the next index from `slot`'s own range front.
    fn claim_own(&self, slot: usize) -> Option<usize> {
        let r = self.ranges.get(slot)?;
        loop {
            let cur = r.load(Ordering::Acquire);
            let (s, e) = unpack(cur);
            if s >= e {
                return None;
            }
            if r.compare_exchange_weak(cur, pack(s + 1, e), Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return Some(s as usize);
            }
        }
    }

    /// Steal one index from the back of the fullest other range.
    fn steal(&self, slot: usize) -> Option<usize> {
        loop {
            let victim = self
                .ranges
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != slot)
                .map(|(i, r)| {
                    let (s, e) = unpack(r.load(Ordering::Acquire));
                    (i, e.saturating_sub(s))
                })
                .max_by_key(|&(_, remaining)| remaining)
                .filter(|&(_, remaining)| remaining > 0)?;
            let r = &self.ranges[victim.0];
            let cur = r.load(Ordering::Acquire);
            let (s, e) = unpack(cur);
            if s >= e {
                continue; // lost the race; rescan
            }
            if r.compare_exchange(cur, pack(s, e - 1), Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return Some((e - 1) as usize);
            }
        }
    }

    /// One participant's whole contribution: claim → run → repeat, then
    /// flush results. Never unwinds; a panicking task is recorded.
    fn participant(&self) {
        let slot = self.next_slot.fetch_add(1, Ordering::Relaxed);
        let mut local: Vec<(usize, R)> = Vec::new();
        let run = catch_unwind(AssertUnwindSafe(|| {
            while !self.panicked.load(Ordering::Relaxed) {
                let Some(i) = self.claim_own(slot).or_else(|| self.steal(slot)) else {
                    break;
                };
                local.push((i, (self.f)(i)));
            }
        }));
        if let Err(payload) = run {
            self.panicked.store(true, Ordering::Relaxed);
            let mut p = self.panic.lock().unwrap();
            p.get_or_insert(payload);
        }
        self.results.lock().unwrap().append(&mut local);
    }
}

/// Type-erased participant entry: `ptr` is a `*const BatchData<R, F>`.
///
/// # Safety
/// `ptr` must point to a live `BatchData<R, F>` of exactly this `R`/`F`
/// monomorphization — guaranteed by pairing the fn pointer with the data
/// in [`run_batch`].
unsafe fn batch_runner<R, F: Fn(usize) -> R>(ptr: *const ()) {
    let batch = unsafe { &*(ptr as *const BatchData<'_, R, F>) };
    batch.participant();
}

fn run_batch<R, F>(inner: &Arc<PoolInner>, n: usize, f: &F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    // One contiguous home range per potential participant; ranges are a
    // partition of 0..n, so every index is claimed exactly once.
    let participants = (inner.workers + 1).min(n);
    let per = n.div_ceil(participants);
    let ranges: Vec<AtomicU64> = (0..participants)
        .map(|p| {
            let start = (p * per).min(n) as u32;
            let end = ((p + 1) * per).min(n) as u32;
            AtomicU64::new(pack(start, end))
        })
        .collect();
    let batch = BatchData {
        f,
        ranges,
        next_slot: AtomicUsize::new(0),
        results: Mutex::new(Vec::with_capacity(n)),
        panicked: AtomicBool::new(false),
        panic: Mutex::new(None),
    };
    let core = Arc::new(BatchCore {
        state: Mutex::new(BatchState {
            batch: &batch as *const BatchData<'_, R, F> as *const (),
            active: 0,
            closed: false,
        }),
        quiesced: Condvar::new(),
        runner: batch_runner::<R, F>,
    });

    // Announce to as many workers as could usefully help, then pitch in.
    {
        let mut q = inner.queue.lock().unwrap();
        for _ in 0..inner.workers.min(n - 1) {
            q.push_back(Arc::clone(&core));
        }
        inner.work_cv.notify_all();
    }
    core.participate();
    core.drain();

    // The batch is exclusively ours again: settle panics, then order.
    if let Some(payload) = batch.panic.lock().unwrap().take() {
        resume_unwind(payload);
    }
    let mut pairs = std::mem::take(&mut *batch.results.lock().unwrap());
    debug_assert_eq!(pairs.len(), n, "every index claimed exactly once");
    pairs.sort_unstable_by_key(|&(i, _)| i);
    pairs.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

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
        assert!(pool.shared.is_none());
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
    fn many_small_batches_reuse_the_workers() {
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
