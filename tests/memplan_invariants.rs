//! Property tests on the static memory planner: for randomized DAGs and
//! the real model graphs, the planned peak must equal what an
//! [`HbmTracker`] observes replaying the lifetime events, in-placing must
//! never alias two tensors that are live at the same time, and the packed
//! offsets must nest inside the reported arena without overlap.
//!
//! [`HbmTracker`]: gaudi_hw::memory::HbmTracker

use gaudi_compiler::{plan_memory, MemoryPlan};
use gaudi_graph::{Graph, NodeId};
use gaudi_hw::config::MemoryConfig;
use gaudi_hw::memory::HbmTracker;
use gaudi_models::{build_decode_step, build_prefill, BertConfig, LlmConfig};
use proptest::prelude::*;

/// Random DAG over small 2-D tensors mixing elementwise chains (in-place
/// candidates), fan-out (in-place blockers), reductions, and matmuls.
fn random_graph(ops: &[u8], fanin: &[u8]) -> Graph {
    let mut g = Graph::new();
    let a = g.input("a", &[8, 16]).unwrap();
    let w = g.parameter("w", &[16, 16]).unwrap();
    let mut pool: Vec<NodeId> = vec![a];

    for (i, (&op, &f)) in ops.iter().zip(fanin.iter()).enumerate() {
        let x = pool[f as usize % pool.len()];
        let node = match op % 8 {
            0 => g.exp(x).unwrap(),
            1 => g.neg(x).unwrap(),
            2 => g.scalar_mul(x, 1.0 + i as f32).unwrap(),
            3 => {
                let y = pool[(f as usize + 1) % pool.len()];
                g.add(x, y).unwrap()
            }
            4 => {
                let y = pool[(f as usize / 2) % pool.len()];
                g.mul(x, y).unwrap()
            }
            5 => g.softmax(x).unwrap(),
            6 => g.mul(x, x).unwrap(), // repeated operand
            _ => g.matmul(x, w).unwrap(),
        };
        pool.push(node);
    }
    g.mark_output(*pool.last().unwrap());
    g
}

/// Buffer-level lifetime events of a plan: `(bytes, start, end)` per
/// physical buffer (the union interval of every tensor in-placed onto it).
fn buffer_events(plan: &MemoryPlan) -> Vec<(u64, usize, usize, u64)> {
    let mut buffers: Vec<Option<(u64, usize, usize, u64)>> = Vec::new();
    for iv in &plan.intervals {
        if iv.buffer >= buffers.len() {
            buffers.resize(iv.buffer + 1, None);
        }
        match &mut buffers[iv.buffer] {
            Some((bytes, start, end, offset)) => {
                assert_eq!(*bytes, iv.bytes, "in-placing must preserve byte size");
                assert_eq!(*offset, iv.offset, "one buffer, one offset");
                *start = (*start).min(iv.start);
                *end = (*end).max(iv.end);
            }
            slot => *slot = Some((iv.bytes, iv.start, iv.end, iv.offset)),
        }
    }
    buffers.into_iter().flatten().collect()
}

/// Replay the plan's buffer lifetimes through an [`HbmTracker`] — allocs
/// at the top of a buffer's start step, frees at the bottom of its end
/// step — and return the tracker's high-water mark.
fn replay_peak(plan: &MemoryPlan) -> u64 {
    let buffers = buffer_events(plan);
    let mut alloc_at: Vec<Vec<u64>> = vec![Vec::new(); plan.steps];
    let mut free_at: Vec<Vec<u64>> = vec![Vec::new(); plan.steps];
    for &(bytes, start, end, _) in &buffers {
        alloc_at[start].push(bytes);
        free_at[end].push(bytes);
    }
    let mut tracker = HbmTracker::new(&MemoryConfig {
        hbm_capacity_bytes: u64::MAX,
        ..MemoryConfig::default()
    });
    for s in 0..plan.steps {
        for &bytes in &alloc_at[s] {
            tracker.allocate(bytes).expect("unbounded tracker");
        }
        for &bytes in &free_at[s] {
            tracker.free(bytes);
        }
    }
    tracker.peak()
}

/// Every invariant the planner promises, checked on one graph.
fn check_plan(g: &Graph, plan: &MemoryPlan) {
    // Numbers nest: live peak ≤ packed arena ≤ no-reuse baseline.
    assert!(plan.peak_bytes <= plan.arena_bytes);
    assert!(plan.arena_bytes <= plan.naive_bytes);
    assert_eq!(plan.steps, g.len());

    // The planner's peak is exactly what an event-by-event HbmTracker
    // replay of the buffer lifetimes observes.
    assert_eq!(replay_peak(plan), plan.peak_bytes, "replayed peak drifted");

    // Packed buffers stay inside the arena, and two buffers that are live
    // at the same time never overlap in space.
    let buffers = buffer_events(plan);
    for (i, &(bytes, start, end, offset)) in buffers.iter().enumerate() {
        assert!(offset + bytes <= plan.arena_bytes, "buffer escapes arena");
        for &(b_bytes, b_start, b_end, b_offset) in &buffers[i + 1..] {
            let time_overlap = start <= b_end && b_start <= end;
            let space_overlap = offset < b_offset + b_bytes && b_offset < offset + bytes;
            assert!(
                !(time_overlap && space_overlap),
                "live buffers share bytes: [{offset}, +{bytes}) over {start}..={end} \
                 vs [{b_offset}, +{b_bytes}) over {b_start}..={b_end}"
            );
        }
    }

    // In-placing never aliases live tensors: tensors chained onto one
    // buffer hand it off at exactly the consumer step — the next tensor
    // starts where the previous one dies, never earlier.
    let mut by_buffer: Vec<Vec<(usize, usize)>> = vec![Vec::new(); buffers.len()];
    for iv in &plan.intervals {
        by_buffer[iv.buffer].push((iv.start, iv.end));
    }
    for chain in &mut by_buffer {
        chain.sort_unstable();
        for pair in chain.windows(2) {
            assert!(
                pair[1].0 >= pair[0].1,
                "in-placed tensor goes live at step {} while its buffer's \
                 previous tensor survives to step {}",
                pair[1].0,
                pair[0].1
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_graphs_uphold_planner_invariants(
        ops in proptest::collection::vec(any::<u8>(), 1..24),
        fanin in proptest::collection::vec(any::<u8>(), 24),
    ) {
        let g = random_graph(&ops, &fanin);
        check_plan(&g, &plan_memory(&g));
    }
}

#[test]
fn model_graphs_uphold_planner_invariants() {
    let llm = LlmConfig::tiny(97);
    let (prefill, _) = build_prefill(&llm, 1, 64).unwrap();
    let (decode, _) = build_decode_step(&llm, 4, 128).unwrap();
    let (bert, _) = gaudi_models::bert::build_bert_mlm(&BertConfig::tiny()).unwrap();
    for g in [&prefill, &decode, &bert] {
        let plan = plan_memory(g);
        check_plan(g, &plan);
        // Transformer phases have elementwise chains: the planner must
        // actually reclaim memory on them, not just validate.
        assert!(plan.inplaced > 0, "no in-placing on a transformer graph");
        assert!(plan.arena_bytes < plan.naive_bytes);
    }
}

#[test]
fn planner_is_deterministic() {
    let llm = LlmConfig::tiny(97);
    let (g, _) = build_prefill(&llm, 2, 96).unwrap();
    let a = plan_memory(&g);
    let b = plan_memory(&g);
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}
