//! Static HBM memory planning: tensor lifetimes, in-placing, and arena
//! packing for the scheduled phase graph.
//!
//! The paper's §3.4 pins 32 GB of HBM as the binding resource for LLM
//! workloads on Gaudi, so a credible admission controller has to budget
//! activation/workspace memory, not just weights and KV cache. This pass
//! plans that budget statically, in the InfiniNN staging order:
//!
//! 1. **lifetime analysis** — every non-parameter node defines one tensor
//!    at its issue step; the tensor stays live through the step of its
//!    last consumer (graph outputs survive to the end of the plan);
//! 2. **in-placing** — an elementwise op whose operand *dies at that very
//!    consumer* (and matches its byte size) writes over the operand's
//!    buffer instead of allocating a fresh one;
//! 3. **arena packing** — the surviving buffers are packed into one
//!    activation arena by a greedy best-fit free-list sweep over the
//!    lifetime events, producing a concrete byte offset per tensor;
//! 4. **offset locking** — the packed extent ([`MemoryPlan::arena_bytes`])
//!    is the number admission reserves: a fixed region the executor could
//!    address without ever calling an allocator mid-phase.
//!
//! Both schedulers issue nodes in the graph's SSA order, so step indices
//! here are node indices; zero-cost metadata ops still occupy a step,
//! which only makes the plan conservative (their "tensor" is an alias the
//! packer treats as storage).
//!
//! The reported numbers nest as
//! `peak_bytes <= arena_bytes <= naive_bytes`, where
//! [`MemoryPlan::naive_bytes`] is the sum-of-all-tensors footprint a
//! planner-less runtime would have to provision (no lifetime reuse at
//! all) and [`MemoryPlan::peak_bytes`] is the live-byte high-water mark —
//! exactly what an [`HbmTracker`](gaudi_hw::memory::HbmTracker) replaying
//! the alloc/free events observes, which the property tests pin.

use gaudi_graph::{Graph, NodeId, OpKind};

/// One planned tensor: the closed lifetime interval `[start, end]` (in
/// issue steps) of the value a node defines, and where its bytes live in
/// the activation arena.
#[derive(Debug, Clone, Copy)]
pub struct TensorInterval {
    /// The defining node.
    pub node: NodeId,
    /// Tensor size in bytes (`numel * storage dtype size`).
    pub bytes: u64,
    /// Issue step at which the tensor is defined (== node index).
    pub start: usize,
    /// Issue step of the last consumer (inclusive); graph outputs extend
    /// to the final step.
    pub end: usize,
    /// Backing buffer id; in-placed tensors share their operand's buffer.
    pub buffer: usize,
    /// Byte offset of the backing buffer within the arena.
    pub offset: u64,
}

/// One physical allocation in the arena: the union of the lifetimes of
/// every tensor in-placed onto it.
#[derive(Debug, Clone, Copy)]
struct Buffer {
    bytes: u64,
    start: usize,
    end: usize,
    offset: u64,
}

/// The planner's output for one compiled phase graph.
#[derive(Debug, Clone, Default)]
pub struct MemoryPlan {
    /// Per-tensor lifetime intervals and locked offsets, in issue order.
    pub intervals: Vec<TensorInterval>,
    /// Live-byte high-water mark of the lifetime sweep — the peak an
    /// event-by-event allocator replay reaches.
    pub peak_bytes: u64,
    /// Extent of the packed arena (what admission reserves). Best-fit
    /// packing can fragment, so `arena_bytes >= peak_bytes`.
    pub arena_bytes: u64,
    /// Sum of every tensor's size: the no-reuse baseline a planner-less
    /// budget would have to reserve.
    pub naive_bytes: u64,
    /// Tensors that reuse a dying operand's buffer instead of a fresh one.
    pub inplaced: usize,
    /// Issue steps covered by the plan (== graph length).
    pub steps: usize,
    /// Bytes of fused-kernel tile scratch planned as single-step intervals
    /// (see [`fused_scratch_bytes`]). Already included in the peak/arena
    /// numbers; broken out for reporting.
    pub scratch_bytes: u64,
}

impl MemoryPlan {
    /// `naive_bytes / arena_bytes`: how many times over the arena is
    /// reused relative to a no-reuse budget (`1.0` for an empty plan).
    pub fn reuse_factor(&self) -> f64 {
        if self.arena_bytes == 0 {
            1.0
        } else {
            self.naive_bytes as f64 / self.arena_bytes as f64
        }
    }
}

/// Whether `kind` computes elementwise over same-shaped operands, making
/// it a legal in-place consumer of a dying input.
fn is_elementwise(kind: &OpKind) -> bool {
    kind.is_fusible_unary()
        || matches!(
            kind,
            OpKind::Add
                | OpKind::Sub
                | OpKind::Mul
                | OpKind::Div
                | OpKind::Maximum
                | OpKind::FusedElementwise(_)
        )
}

/// Cores per TPC cluster assumed for fused-kernel scratch sizing. Matches
/// `gaudi_hw::config::TpcConfig::default().num_cores` (the planner is
/// graph-only, so the constant is mirrored rather than imported).
const TPC_CORES: u64 = 8;

/// Per-phase HBM spill scratch of a fused kernel's tile buffers.
///
/// The fused attention kernels keep their working set (staged Q row,
/// output accumulator, one 64-wide score tile — or the staged probability
/// row for the softmax-matmul) in vector local memory, but the planner
/// charges one VLM-sized save area per core so a preempted phase can spill
/// its tiles — a *single-step* interval alive only while the fused node
/// executes, unlike the S×S score tensor the unfused graph keeps live
/// across five ops. Non-fused nodes need no scratch.
pub fn fused_scratch_bytes(g: &Graph, node: &gaudi_graph::Node) -> u64 {
    let elem = g.storage_dtype.size_of() as u64;
    match &node.kind {
        OpKind::FusedAttention { .. } => {
            let d = g.shape(node.inputs[0]).last_dim() as u64;
            let dv = g.shape(node.inputs[2]).last_dim() as u64;
            TPC_CORES * (d + dv + 64) * elem
        }
        OpKind::FusedSoftmaxMatMul => {
            let m = g.shape(node.inputs[0]).last_dim() as u64;
            TPC_CORES * m * elem
        }
        _ => 0,
    }
}

/// Plan the activation memory of a scheduled graph: lifetimes, in-placing,
/// and best-fit arena offsets. Parameters are excluded — they are resident
/// weights, budgeted separately by the serving stack.
pub fn plan_memory(g: &Graph) -> MemoryPlan {
    let steps = g.len();
    if steps == 0 {
        return MemoryPlan::default();
    }
    let elem = g.storage_dtype.size_of() as u64;
    let last_step = steps - 1;
    // The step each tensor dies at: its last consumer's (nodes are visited
    // in step order, so the last write wins), the final step for a graph
    // output, else its own step. One pass in place of `Graph::consumers`.
    let mut last_use: Vec<usize> = (0..steps).collect();
    for node in g.nodes() {
        for &input in &node.inputs {
            last_use[input.index()] = node.id.index();
        }
    }
    for &out in g.outputs() {
        last_use[out.index()] = last_step;
    }

    // 1. Lifetimes. `planned[i]` is Some(interval index) for nodes whose
    // output the arena must hold.
    let mut planned: Vec<Option<usize>> = vec![None; steps];
    let mut intervals: Vec<TensorInterval> = Vec::new();
    let mut naive_bytes = 0u64;
    let mut scratch_bytes = 0u64;
    for node in g.nodes() {
        if matches!(node.kind, OpKind::Parameter) {
            continue; // resident weights, not activation workspace
        }
        let bytes = g.shape(node.id).numel() as u64 * elem;
        let end = last_use[node.id.index()];
        naive_bytes += bytes;
        planned[node.id.index()] = Some(intervals.len());
        intervals.push(TensorInterval {
            node: node.id,
            bytes,
            start: node.id.index(),
            end,
            buffer: usize::MAX, // assigned below
            offset: 0,
        });
        // Fused-kernel tile scratch: a second, single-step interval that
        // dies the moment the kernel retires. Pushed after the output
        // interval so `planned` (used for in-placing) keeps pointing at
        // the real tensor.
        let scratch = fused_scratch_bytes(g, node);
        if scratch > 0 {
            naive_bytes += scratch;
            scratch_bytes += scratch;
            intervals.push(TensorInterval {
                node: node.id,
                bytes: scratch,
                start: node.id.index(),
                end: node.id.index(),
                buffer: usize::MAX,
                offset: 0,
            });
        }
    }

    // 2. In-placing: an elementwise node may adopt the buffer of an
    // operand that (a) is planned, (b) matches its byte size, and (c) has
    // its last use at this very node — so the buffer is dead the moment
    // the output is produced and overwriting it aliases nothing live.
    let mut buffers: Vec<Buffer> = Vec::new();
    let mut inplaced = 0usize;
    for idx in 0..intervals.len() {
        let iv = intervals[idx];
        let node = g.node(iv.node);
        let mut adopted = None;
        if is_elementwise(&node.kind) {
            for &input in &node.inputs {
                let Some(&Some(src)) = planned.get(input.index()) else {
                    continue;
                };
                let src_iv = intervals[src];
                let buf = buffers[src_iv.buffer];
                // The whole buffer (every tensor chained onto it) must die
                // exactly here, and byte sizes must match.
                if src_iv.bytes == iv.bytes && buf.end == iv.start && src_iv.end == iv.start {
                    adopted = Some(src_iv.buffer);
                    break;
                }
            }
        }
        let buffer = match adopted {
            Some(b) => {
                buffers[b].end = buffers[b].end.max(iv.end);
                inplaced += 1;
                b
            }
            None => {
                buffers.push(Buffer {
                    bytes: iv.bytes,
                    start: iv.start,
                    end: iv.end,
                    offset: 0,
                });
                buffers.len() - 1
            }
        };
        intervals[idx].buffer = buffer;
    }

    // 3. Live-byte peak: replay the buffer lifetimes step by step — a
    // buffer allocates at the top of its start step and frees at the
    // bottom of its end step, so a dying operand and the output consuming
    // it are both charged during the consumer's step.
    let mut alloc_at: Vec<Vec<usize>> = vec![Vec::new(); steps];
    let mut free_at: Vec<Vec<usize>> = vec![Vec::new(); steps];
    for (b, buf) in buffers.iter().enumerate() {
        alloc_at[buf.start].push(b);
        free_at[buf.end].push(b);
    }
    let mut live = 0u64;
    let mut peak_bytes = 0u64;
    for s in 0..steps {
        for &b in &alloc_at[s] {
            live += buffers[b].bytes;
        }
        peak_bytes = peak_bytes.max(live);
        for &b in &free_at[s] {
            live -= buffers[b].bytes;
        }
    }

    // 4. Greedy best-fit packing over the same event order: free gaps are
    // kept sorted by offset and coalesced; each new buffer takes the
    // smallest gap that fits (ties to the lowest offset), or extends the
    // arena top. Deterministic: events are processed in step order and
    // buffer-id order within a step.
    let mut gaps: Vec<(u64, u64)> = Vec::new(); // (offset, len), sorted by offset
    let mut top = 0u64; // high-water extent of the arena
    for s in 0..steps {
        for &b in &alloc_at[s] {
            let bytes = buffers[b].bytes;
            let best = gaps
                .iter()
                .enumerate()
                .filter(|(_, &(_, len))| len >= bytes)
                .min_by_key(|&(_, &(off, len))| (len, off))
                .map(|(i, _)| i);
            let offset = match best {
                Some(i) => {
                    let (off, len) = gaps[i];
                    if len == bytes {
                        gaps.remove(i);
                    } else {
                        gaps[i] = (off + bytes, len - bytes);
                    }
                    off
                }
                None => {
                    let off = top;
                    top += bytes;
                    off
                }
            };
            buffers[b].offset = offset;
        }
        for &b in &free_at[s] {
            let (off, len) = (buffers[b].offset, buffers[b].bytes);
            if len == 0 {
                continue;
            }
            let i = gaps.partition_point(|&(o, _)| o < off);
            gaps.insert(i, (off, len));
            // Coalesce with the right neighbor, then the left.
            if i + 1 < gaps.len() && gaps[i].0 + gaps[i].1 == gaps[i + 1].0 {
                gaps[i].1 += gaps[i + 1].1;
                gaps.remove(i + 1);
            }
            if i > 0 && gaps[i - 1].0 + gaps[i - 1].1 == gaps[i].0 {
                gaps[i - 1].1 += gaps[i].1;
                gaps.remove(i);
            }
        }
    }

    for iv in &mut intervals {
        iv.offset = buffers[iv.buffer].offset;
    }
    MemoryPlan {
        intervals,
        peak_bytes,
        arena_bytes: top,
        naive_bytes,
        inplaced,
        steps,
        scratch_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaudi_graph::Graph;

    /// A chain of elementwise ops: everything in-places onto one buffer.
    fn chain() -> Graph {
        let mut g = Graph::new();
        let x = g.input("x", &[64, 64]).unwrap();
        let a = g.exp(x).unwrap();
        let b = g.neg(a).unwrap();
        let c = g.sqrt(b).unwrap();
        g.mark_output(c);
        g
    }

    #[test]
    fn elementwise_chain_collapses_to_one_buffer() {
        let plan = plan_memory(&chain());
        let bytes = 64 * 64 * 4u64;
        assert_eq!(plan.naive_bytes, 4 * bytes);
        assert_eq!(plan.inplaced, 3);
        assert_eq!(plan.peak_bytes, bytes);
        assert_eq!(plan.arena_bytes, bytes);
        // All four tensors share buffer 0 at offset 0.
        assert!(plan.intervals.iter().all(|iv| iv.buffer == 0));
    }

    #[test]
    fn parameters_are_not_activation_workspace() {
        let mut g = Graph::new();
        let x = g.input("x", &[8, 16]).unwrap();
        let w = g.parameter("w", &[16, 16]).unwrap();
        let y = g.matmul(x, w).unwrap();
        g.mark_output(y);
        let plan = plan_memory(&g);
        let w_id = w;
        assert!(plan.intervals.iter().all(|iv| iv.node != w_id));
        assert_eq!(plan.naive_bytes, (8 * 16 + 8 * 16) * 4);
    }

    #[test]
    fn fanout_blocks_inplacing() {
        // x feeds two consumers: the first (exp) must NOT overwrite it.
        let mut g = Graph::new();
        let x = g.input("x", &[32]).unwrap();
        let a = g.exp(x).unwrap();
        let b = g.log(x).unwrap();
        let c = g.add(a, b).unwrap();
        g.mark_output(c);
        let plan = plan_memory(&g);
        let iv = |id: gaudi_graph::NodeId| {
            *plan
                .intervals
                .iter()
                .find(|iv| iv.node == id)
                .expect("planned")
        };
        assert_ne!(iv(a).buffer, iv(x).buffer, "x is still live at exp");
        // log is x's last consumer → it may take x's buffer; add reuses a
        // dying operand's buffer too.
        assert_eq!(plan.inplaced, 2);
    }

    #[test]
    fn outputs_survive_to_the_last_step() {
        let mut g = Graph::new();
        let x = g.input("x", &[16]).unwrap();
        let y = g.exp(x).unwrap();
        g.mark_output(y);
        let z = g.input("z", &[16]).unwrap();
        let w = g.neg(z).unwrap();
        g.mark_output(w);
        let plan = plan_memory(&g);
        let last = plan.steps - 1;
        for out in [y, w] {
            let iv = plan.intervals.iter().find(|iv| iv.node == out).unwrap();
            assert_eq!(iv.end, last);
        }
    }

    #[test]
    fn concurrently_live_buffers_never_overlap() {
        // Mixed graph with fan-out, reductions, and a matmul.
        let mut g = Graph::new();
        let x = g.input("x", &[16, 32]).unwrap();
        let w = g.parameter("w", &[32, 32]).unwrap();
        let h = g.matmul(x, w).unwrap();
        let s = g.softmax(h).unwrap();
        let r = g.reduce_sum(s, true).unwrap();
        let n = g.div(s, r).unwrap();
        g.mark_output(n);
        let plan = plan_memory(&g);
        for a in &plan.intervals {
            for b in &plan.intervals {
                if a.buffer == b.buffer {
                    continue;
                }
                let time_overlap = a.start <= b.end && b.start <= a.end;
                let space_overlap = a.offset < b.offset + b.bytes && b.offset < a.offset + a.bytes;
                assert!(
                    !(time_overlap && space_overlap),
                    "{:?} and {:?} overlap in time and space",
                    a,
                    b
                );
            }
        }
        assert!(plan.peak_bytes <= plan.arena_bytes);
        assert!(plan.arena_bytes <= plan.naive_bytes);
    }

    #[test]
    fn fused_attention_scratch_is_a_single_step_interval() {
        let mut g = Graph::new();
        let q = g.input("q", &[2, 64, 64]).unwrap();
        let k = g.input("k", &[2, 128, 64]).unwrap();
        let v = g.input("v", &[2, 128, 64]).unwrap();
        let a = g.fused_attention(q, k, v, None, 0.125).unwrap();
        let y = g.exp(a).unwrap();
        g.mark_output(y);
        let plan = plan_memory(&g);
        // Scratch = 8 cores * (d + dv + 64) elems * 4 B, alive one step.
        let expect = 8 * (64 + 64 + 64) * 4;
        assert_eq!(plan.scratch_bytes, expect);
        let scratch = plan
            .intervals
            .iter()
            .find(|iv| iv.node == a && iv.bytes == expect)
            .expect("scratch interval planned");
        assert_eq!(scratch.start, scratch.end, "scratch dies at its own step");
        assert!(plan.naive_bytes >= expect);

        // The fused phase's activation reserve beats the unfused one: the
        // unfused graph keeps the S×S scores (here 2*64*128 floats, three
        // tensors deep) live across the softmax pipeline.
        let mut u = Graph::new();
        let q = u.input("q", &[2, 64, 64]).unwrap();
        let k = u.input("k", &[2, 128, 64]).unwrap();
        let v = u.input("v", &[2, 128, 64]).unwrap();
        let kt = u.transpose(k).unwrap();
        let scores = u.matmul(q, kt).unwrap();
        let scaled = u.scalar_mul(scores, 0.125).unwrap();
        let probs = u.softmax(scaled).unwrap();
        let out = u.matmul(probs, v).unwrap();
        let y = u.exp(out).unwrap();
        u.mark_output(y);
        let unfused_plan = plan_memory(&u);
        assert!(
            plan.peak_bytes < unfused_plan.peak_bytes,
            "fused peak {} must undercut unfused peak {}",
            plan.peak_bytes,
            unfused_plan.peak_bytes
        );
        assert!(plan.arena_bytes < unfused_plan.arena_bytes);
    }

    #[test]
    fn empty_graph_plans_to_nothing() {
        let plan = plan_memory(&Graph::new());
        assert_eq!(plan.peak_bytes, 0);
        assert_eq!(plan.arena_bytes, 0);
        assert_eq!(plan.naive_bytes, 0);
        assert_eq!(plan.reuse_factor(), 1.0);
    }
}
