//! Host time measured against a fixed co-runner on the same CPU.
//!
//! Other tenants of a shared host slow it by up to half, for seconds to
//! minutes at a time, and a rep's wall time swings with them. A rep
//! therefore runs a small fixed workload — an ordered map used as an event
//! calendar, owned by this file and by no simulator crate — on a second
//! thread pinned to the same CPU as the rep's main thread. The kernel
//! time-slices the two every few milliseconds, so both see the core at the
//! same speed. Over any region, the co-runner's pace (units of its work
//! per CPU second) gives that speed, and the main thread's CPU time
//! rescaled by it no longer depends on it:
//!
//! `seconds = main-thread CPU s × co-runner pace / NOMINAL_PACE`.
//!
//! On a 2-core shared x86-64 host, the per-rep correlation between
//! main-thread CPU time and the co-runner's time per unit was 0.96–0.98,
//! and rescaling cut the spread of a run's median rep across runs from
//! 7–11% to 2–3%. Pinning leaves the main thread half the CPU, so a rep
//! takes about twice as long in wall time. A smaller share for the co-runner
//! (nice 5) would shorten reps, but its pace then depends more on what the
//! main thread leaves in the caches between its slices: paced `xl_sweep`
//! times read 17% lower.

use std::collections::BTreeMap;
use std::ffi::{c_int, c_long};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Co-runner units per CPU second at which [`Pace::seconds`] equals CPU
/// seconds: about the co-runner's pace on that 2-core host. It only sets
/// the scale; ratios between runs do not depend on it.
const NOMINAL_PACE: f64 = 29_000.0;
/// Live keys of the co-runner's calendar.
const CALENDAR_KEYS: u64 = 50_000;
/// Calendar events (pop the earliest, push it later) per unit of work.
const EVENTS_PER_UNIT: usize = 128;

/// A running co-runner; dropping it stops the co-runner and gives this
/// thread back every CPU it could run on before.
pub struct Pace {
    shared: Arc<Shared>,
    runner: Option<JoinHandle<()>>,
    old_mask: CpuMask,
}

/// What the co-runner publishes. It stores `cpu_ns` and then bumps
/// `units`, both with `Release`; a reader loads `units` and then `cpu_ns`
/// with `Acquire`, so the CPU time it reads covers at least the units it
/// read. `stop` carries no other data.
#[derive(Default)]
struct Shared {
    stop: AtomicBool,
    units: AtomicU64,
    /// The co-runner's CPU time after its last unit, ns.
    cpu_ns: AtomicU64,
}

/// Where the main thread and the co-runner stood at one moment.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    main_cpu_s: f64,
    units: u64,
    runner_cpu_s: f64,
}

impl Pace {
    /// Pin this thread to the first CPU it may run on, start the co-runner
    /// there, and wait until it is counting.
    pub fn start() -> Result<Pace, String> {
        let old_mask = CpuMask::current()?;
        let cpu = old_mask
            .first()
            .ok_or("pace: this thread may run on no CPU")?;
        let one = CpuMask::only(cpu);
        one.apply()?;
        let shared = Arc::new(Shared::default());
        let s = Arc::clone(&shared);
        let runner = std::thread::spawn(move || {
            if one.apply().is_ok() {
                co_run(&s);
            }
            // Unblock `start` whatever happened.
            s.units.fetch_add(1, Ordering::Release);
        });
        let pace = Pace {
            shared,
            runner: Some(runner),
            old_mask,
        };
        while pace.shared.units.load(Ordering::Acquire) == 0 {
            std::thread::yield_now();
        }
        if pace.shared.cpu_ns.load(Ordering::Acquire) == 0 {
            return Err("pace: the co-runner could not pin itself".into());
        }
        Ok(pace)
    }

    /// Both threads' progress now.
    pub fn mark(&self) -> Mark {
        let units = self.shared.units.load(Ordering::Acquire);
        let runner_cpu_s = self.shared.cpu_ns.load(Ordering::Acquire) as f64 * 1e-9;
        Mark {
            main_cpu_s: thread_cpu_seconds(),
            units,
            runner_cpu_s,
        }
    }

    /// This thread's CPU seconds since `since`, rescaled to the nominal
    /// pace by the co-runner's pace over the same span.
    pub fn seconds(&self, since: Mark) -> f64 {
        let now = self.mark();
        let units = (now.units - since.units) as f64;
        let runner_s = now.runner_cpu_s - since.runner_cpu_s;
        let main_s = now.main_cpu_s - since.main_cpu_s;
        if units == 0.0 || runner_s <= 0.0 {
            // Too short a span for the co-runner to finish a unit.
            return main_s;
        }
        main_s * (units / runner_s) / NOMINAL_PACE
    }
}

impl Drop for Pace {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        if let Some(runner) = self.runner.take() {
            let _ = runner.join();
        }
        let _ = self.old_mask.apply();
    }
}

/// The co-runner: a fixed calendar of [`CALENDAR_KEYS`] keys; each event
/// pops the earliest key and pushes it back a pseudo-random delay later.
fn co_run(s: &Shared) {
    let mut rng = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let mut calendar = BTreeMap::new();
    for seq in 0..CALENDAR_KEYS {
        calendar.insert((next() % 1_000_000, seq), seq);
    }
    let mut seq = CALENDAR_KEYS;
    while !s.stop.load(Ordering::Relaxed) {
        for _ in 0..EVENTS_PER_UNIT {
            let ((t, _), v) = calendar.pop_first().expect("the calendar never empties");
            calendar.insert((t + next() % 100_000, seq), black_box(v));
            seq += 1;
        }
        s.cpu_ns
            .store((thread_cpu_seconds() * 1e9) as u64, Ordering::Release);
        s.units.fetch_add(1, Ordering::Release);
    }
}

// --- the three libc calls this needs ------------------------------------------

/// `CLOCK_THREAD_CPUTIME_ID` in Linux's `<time.h>`.
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

/// `cpu_set_t`: a bit per CPU, 1024 CPUs.
#[derive(Clone, Copy)]
#[repr(C)]
struct CpuMask([u64; 16]);

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuMask) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuMask) -> c_int;
}

/// CPU seconds the calling thread has run.
fn thread_cpu_seconds() -> f64 {
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a valid, writable timespec.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    t.tv_sec as f64 + t.tv_nsec as f64 * 1e-9
}

impl CpuMask {
    /// The CPUs the calling thread may run on.
    fn current() -> Result<CpuMask, String> {
        let mut mask = CpuMask([0; 16]);
        // SAFETY: `mask` is a writable cpu_set_t of the size passed; pid 0
        // is the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), &mut mask) };
        if rc != 0 {
            return Err(format!(
                "pace: sched_getaffinity failed: {}",
                std::io::Error::last_os_error()
            ));
        }
        Ok(mask)
    }

    fn only(cpu: usize) -> CpuMask {
        let mut mask = CpuMask([0; 16]);
        mask.0[cpu / 64] = 1 << (cpu % 64);
        mask
    }

    fn first(&self) -> Option<usize> {
        (0..1024).find(|&c| self.0[c / 64] >> (c % 64) & 1 == 1)
    }

    /// Let the calling thread run only on these CPUs.
    fn apply(&self) -> Result<(), String> {
        // SAFETY: `self` is a cpu_set_t of the size passed; pid 0 is the
        // calling thread.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), self) };
        if rc != 0 {
            return Err(format!(
                "pace: sched_setaffinity failed: {}",
                std::io::Error::last_os_error()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_name_their_cpus() {
        assert_eq!(CpuMask::only(0).first(), Some(0));
        assert_eq!(CpuMask::only(70).first(), Some(70));
        assert_eq!(CpuMask([0; 16]).first(), None);
    }

    #[test]
    fn paced_seconds_track_work_and_restore_affinity() {
        let before = CpuMask::current().unwrap();
        {
            let pace = Pace::start().unwrap();
            assert_eq!(
                CpuMask::current().unwrap().0,
                CpuMask::only(before.first().unwrap()).0
            );
            let mark = pace.mark();
            let mut x = 0u64;
            for i in 0..30_000_000u64 {
                x = black_box(x.wrapping_mul(31).wrapping_add(i));
            }
            black_box(x);
            let s = pace.seconds(mark);
            assert!(s > 0.0 && s.is_finite(), "{s}");
        }
        assert_eq!(CpuMask::current().unwrap().0, before.0);
    }
}
