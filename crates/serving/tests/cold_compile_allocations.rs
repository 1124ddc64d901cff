//! Allocation gate for cold phase compiles: once a plan cache has compiled
//! one prefill and one decode shape of a model, each further cold shape of
//! that model makes as many allocations whatever the model's layer count,
//! and none of 128 KiB or more. Each cold shape is built into the cache's
//! one workspace graph, names included, and its schedule is folded into
//! the cost as it is placed, so no node vector, name or plan is allocated
//! per shape, per layer or per node. A freed block of 128 KiB or more at
//! the heap top goes back to the kernel under glibc's default trim
//! threshold, which a pinned mmap threshold keeps, and the next shape
//! would fault it back in.
//!
//! The counting allocator counts only on the thread that switches it on,
//! so the test harness's own threads do not count. This binary holds one
//! test, so no other test allocates meanwhile.

// A `#[global_allocator]` must be an `unsafe impl GlobalAlloc`.
#![allow(unsafe_code)]

use gaudi_models::LlmConfig;
use gaudi_serving::{CostContext, CostModel, Phase, PlanCache, ServingConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// The size from which an allocation counts as large, bytes.
const LARGE: usize = 128 << 10;

thread_local! {
    /// Whether this thread's allocations are counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Counted allocations and reallocations.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    /// Counted ones of at least [`LARGE`] bytes, and the largest.
    static LARGE_ALLOCS: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

/// Count an allocation of `size` bytes if this thread counts.
fn note(size: usize) {
    // `try_with`: a thread tearing down its locals still allocates.
    let _ = COUNTING.try_with(|on| {
        if !on.get() {
            return;
        }
        ALLOCS.with(|n| n.set(n.get() + 1));
        if size >= LARGE {
            LARGE_ALLOCS.with(|n| {
                let (count, largest) = n.get();
                n.set((count + 1, largest.max(size)));
            });
        }
    });
}

/// The system allocator, counting allocations and reallocations.
struct Counting;

// SAFETY: every method passes its arguments unchanged to `System`, which
// meets `GlobalAlloc`'s contract, and returns what `System` returns.
// Counting only reads and writes const-initialized thread-local cells,
// which neither allocate nor register destructors.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The allocations of each of 20 cold prefill and decode shapes of the
/// tiny model at `layers` layers, compiled on a fresh cache after one
/// shape of each phase.
fn cold_shape_allocations(layers: usize) -> Vec<usize> {
    let cfg = ServingConfig::builder()
        .model(LlmConfig {
            layers,
            ..LlmConfig::tiny(97)
        })
        .ctx_bucket(16)
        .build();
    let cache = Arc::new(PlanCache::new());
    let ctx = Arc::new(CostContext::new(&cfg, Arc::clone(&cache)));
    let mut model = CostModel::with_context(ctx);
    for phase in [Phase::Prefill, Phase::Decode] {
        let shape = model.shape(phase, 1, 16);
        model.compiled(shape).expect("the first shapes compile");
    }

    let shapes: Vec<_> = (2..=11)
        .flat_map(|i| {
            [
                model.shape(Phase::Prefill, 1, 16 * i),
                model.shape(Phase::Decode, i % 3 + 1, 16 * i),
            ]
        })
        .collect();
    let mut allocs = Vec::with_capacity(shapes.len());
    for &shape in &shapes {
        let before = ALLOCS.with(Cell::get);
        COUNTING.with(|on| on.set(true));
        model.compiled(shape).expect("every shape compiles");
        COUNTING.with(|on| on.set(false));
        allocs.push(ALLOCS.with(Cell::get) - before);
    }
    assert_eq!(cache.stats().misses, 22, "every shape was cold");
    allocs
}

#[test]
fn cold_shapes_after_the_first_allocate_alike_at_any_depth() {
    // At 24 layers each phase graph holds more than 128 KiB of nodes, so
    // a node vector grown per shape would count as large.
    let nodes = gaudi_models::build_decode_step(
        &LlmConfig {
            layers: 24,
            ..LlmConfig::tiny(97)
        },
        1,
        16,
    )
    .expect("builds")
    .0
    .len();
    assert!(
        nodes * std::mem::size_of::<gaudi_graph::Node>() > LARGE,
        "a decode graph of {nodes} nodes is too small to gate"
    );

    let shallow = cold_shape_allocations(12);
    let deep = cold_shape_allocations(24);
    assert_eq!(
        shallow, deep,
        "the 20 cold shapes' allocations at 12 layers, then at 24"
    );
    let (count, largest) = LARGE_ALLOCS.with(Cell::get);
    assert_eq!(
        count, 0,
        "40 cold shapes made {count} allocations of 128 KiB or more, the largest {largest} B"
    );
}
