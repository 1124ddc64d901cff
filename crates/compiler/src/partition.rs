//! Graph partitioning for multi-card execution: data parallelism (batch
//! split across replica groups) and Megatron-style tensor parallelism
//! (column-split / row-split linear layers and attention-head split), with
//! collective ops inserted where partial sums must be combined.
//!
//! The pass is **SPMD**: it produces one per-device graph — every card runs
//! the same program on its own shard — plus shard metadata telling the
//! runtime how to slice inputs/parameters and how to reassemble outputs:
//!
//! * **column-parallel** linears (`.q_proj`, `.k_proj`, `.v_proj`, `.fc1`,
//!   `lm_head`): weight split on the output axis, bias split with it; the
//!   activation comes out sharded on its last axis (which `split_heads`
//!   turns into an attention-head shard),
//! * **row-parallel** linears (`.out_proj`, `.fc2`): weight split on the
//!   input axis, bias replicated; the matmul products are *partial* sums,
//!   combined with an [`AllReduce`](gaudi_graph::CollectiveKind::AllReduce) before the
//!   bias add — two all-reduces per transformer layer, exactly the
//!   Megatron-LM communication pattern.
//!
//! Parameters whose sharded dimension does not divide the tensor-parallel
//! degree (e.g. a 50257-token vocabulary on 4 cards) gracefully fall back
//! to replication.

use gaudi_graph::{Graph, GraphError, NodeId, OpKind};
use gaudi_tensor::Shape;
use std::collections::HashMap;

/// How many ways to split the work across the box.
///
/// `data` replica groups each hold a full model copy and `1/data` of the
/// batch; within a group, `tensor` cards each hold `1/tensor` of every
/// sharded weight. Total devices = `data * tensor`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    /// Data-parallel replica groups (batch split).
    pub data: usize,
    /// Tensor-parallel degree within each group (weight split).
    pub tensor: usize,
}

impl Parallelism {
    /// No parallelism: one device.
    pub fn single() -> Self {
        Parallelism { data: 1, tensor: 1 }
    }

    /// Pure data parallelism across `n` replicas.
    pub fn data(n: usize) -> Self {
        Parallelism { data: n, tensor: 1 }
    }

    /// Pure tensor parallelism across `n` cards.
    pub fn tensor(n: usize) -> Self {
        Parallelism { data: 1, tensor: n }
    }

    /// Total number of devices required.
    pub fn world(&self) -> usize {
        self.data * self.tensor
    }

    /// Tensor-parallel rank of a device (position within its replica group).
    pub fn tp_rank(&self, device: usize) -> usize {
        device % self.tensor
    }

    /// Data-parallel group of a device.
    pub fn dp_rank(&self, device: usize) -> usize {
        device / self.tensor
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::single()
    }
}

/// Which graph inputs carry shardable axes. Matched by exact name or
/// suffix, so `".k_cache"` covers `serve.layer3.k_cache`.
#[derive(Debug, Clone, Default)]
pub struct PartitionSpec {
    /// Inputs carrying the batch on axis 0 — split across data-parallel
    /// groups. Required non-empty when `parallel.data > 1`.
    pub batch_inputs: Vec<String>,
    /// Rank-≥2 inputs carrying attention heads on axis 1 — split across
    /// tensor-parallel ranks (the KV caches of a decode step).
    pub head_inputs: Vec<String>,
    /// Insert an [`AllGather`](gaudi_graph::CollectiveKind::AllGather) on every
    /// tensor-parallel-sharded output so each card ends with full tensors
    /// (e.g. full logits for sampling). When off, outputs stay sharded and
    /// [`PartitionedGraph::output_shards`] records how to reassemble them.
    pub gather_outputs: bool,
}

impl PartitionSpec {
    /// The naming convention of `gaudi-models`' LLM builders: `ids`,
    /// `labels`, and `targets` carry the batch, per-layer
    /// `.k_cache`/`.v_cache` inputs carry both the batch (axis 0) and
    /// attention heads (axis 1).
    pub fn llm() -> Self {
        PartitionSpec {
            batch_inputs: vec![
                "ids".into(),
                "labels".into(),
                "targets".into(),
                ".k_cache".into(),
                ".v_cache".into(),
            ],
            head_inputs: vec![".k_cache".into(), ".v_cache".into()],
            gather_outputs: false,
        }
    }

    fn matches(list: &[String], name: &str) -> bool {
        list.iter().any(|e| name == e || name.ends_with(e.as_str()))
    }
}

/// How one tensor is laid out across the device mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardInfo {
    /// Axis split across data-parallel groups (the batch axis), if any.
    pub dp_axis: Option<usize>,
    /// Axis split across tensor-parallel ranks, if any.
    pub tp_axis: Option<usize>,
}

impl ShardInfo {
    /// Fully replicated on every device.
    pub fn replicated() -> Self {
        ShardInfo::default()
    }
}

/// Output of [`partition`]: the SPMD per-device graph plus the shard
/// metadata the runtime needs to feed and reassemble it.
#[derive(Debug, Clone)]
pub struct PartitionedGraph {
    /// The per-device graph. Identical on every card; node shapes are the
    /// *local* (sharded) shapes.
    pub graph: Graph,
    /// The mesh this graph was partitioned for.
    pub parallel: Parallelism,
    /// Tensor-parallel shard axis per *sharded* parameter name (parameters
    /// absent here are replicated). The graph holds local shapes; the
    /// runtime slices the full parameter along this axis.
    pub param_shards: HashMap<String, usize>,
    /// Layout of every graph input, by name.
    pub input_shards: HashMap<String, ShardInfo>,
    /// Layout of each marked output, aligned with `graph.outputs()`.
    pub output_shards: Vec<ShardInfo>,
    /// Number of collective nodes inserted.
    pub collectives: usize,
}

/// Tensor-parallel state of a value during propagation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tp {
    Rep,
    Shard(usize),
    /// Per-device partial sums of the full value (a contraction whose
    /// reduced axis was sharded) — must be all-reduced before use.
    Partial,
}

#[derive(Debug, Clone, Copy)]
struct Place {
    dp: Option<usize>,
    tp: Tp,
}

impl Place {
    fn rep() -> Self {
        Place {
            dp: None,
            tp: Tp::Rep,
        }
    }
}

const ERR_DIVIDE: GraphError =
    GraphError::Partition("sharded dimension not divisible by mesh size");
const ERR_FORWARD: GraphError =
    GraphError::Partition("partitioning supports forward (inference) graphs only");

/// Partition `graph` for the given mesh. With `parallel.world() == 1` this
/// is a validated clone with fully-replicated metadata.
pub fn partition(
    graph: &Graph,
    parallel: Parallelism,
    spec: &PartitionSpec,
) -> Result<PartitionedGraph, GraphError> {
    graph.validate()?;
    if parallel.data == 0 || parallel.tensor == 0 {
        return Err(GraphError::Partition("parallelism degrees must be >= 1"));
    }
    if parallel.data > 1 && spec.batch_inputs.is_empty() {
        return Err(GraphError::Partition(
            "data parallelism needs batch_inputs naming the batch-carrying inputs",
        ));
    }
    let dp = parallel.data;
    let tp = parallel.tensor;

    let mut out = Graph::new();
    out.storage_dtype = graph.storage_dtype;
    let mut map: HashMap<NodeId, NodeId> = HashMap::new();
    let mut place: HashMap<NodeId, Place> = HashMap::new();
    let mut collectives = 0usize;
    let mut param_shards = HashMap::new();
    let mut input_shards = HashMap::new();

    for node in graph.nodes() {
        // Any consumed partial sum is first combined with an all-reduce
        // (memoized per producer: later consumers reuse the reduced value).
        for &input in &node.inputs {
            if place[&input].tp == Tp::Partial {
                let reduced = out.all_reduce(map[&input])?;
                collectives += 1;
                map.insert(input, reduced);
                place.get_mut(&input).unwrap().tp = Tp::Rep;
            }
        }

        // The loss head needs fully-replicated operands: gather a
        // vocab-parallel logits shard (Megatron's column-parallel `lm_head`
        // without its fused parallel cross-entropy) before computing it.
        if matches!(node.kind, OpKind::CrossEntropy) {
            for &input in &node.inputs {
                if let Tp::Shard(ax) = place[&input].tp {
                    let gathered = out.all_gather(map[&input], ax, tp)?;
                    collectives += 1;
                    map.insert(input, gathered);
                    place.get_mut(&input).unwrap().tp = Tp::Rep;
                }
            }
        }

        let p = propagate(graph, node, &place, parallel, spec)?;

        if let OpKind::Parameter = node.kind {
            if let Tp::Shard(ax) = p.tp {
                param_shards.insert(graph.name(node.id).to_string(), ax);
            }
        }
        if let OpKind::Input = node.kind {
            input_shards.insert(
                graph.name(node.id).to_string(),
                ShardInfo {
                    dp_axis: p.dp,
                    tp_axis: match p.tp {
                        Tp::Shard(ax) => Some(ax),
                        _ => None,
                    },
                },
            );
        }

        // Local (sharded) shape: divide the dp/tp axes of the full shape.
        let mut dims = graph.shape(node.id).dims().to_vec();
        if let Some(ax) = p.dp {
            if !dims[ax].is_multiple_of(dp) {
                return Err(ERR_DIVIDE);
            }
            dims[ax] /= dp;
        }
        if let Tp::Shard(ax) = p.tp {
            if !dims[ax].is_multiple_of(tp) {
                return Err(ERR_DIVIDE);
            }
            dims[ax] /= tp;
        }
        let shape = Shape::new(&dims)?;
        let inputs: Vec<NodeId> = node.inputs.iter().map(|i| map[i]).collect();
        let new_id = out.push_node(node.kind.clone(), &inputs, shape, graph.name(node.id))?;
        map.insert(node.id, new_id);
        place.insert(node.id, p);
    }

    // Reassembly metadata (and optional gathering) for the marked outputs.
    let mut output_shards = Vec::with_capacity(graph.outputs().len());
    for &o in graph.outputs() {
        let mut p = place[&o];
        let mut new_id = map[&o];
        if p.tp == Tp::Partial {
            new_id = out.all_reduce(new_id)?;
            collectives += 1;
            map.insert(o, new_id);
            place.get_mut(&o).unwrap().tp = Tp::Rep;
            p.tp = Tp::Rep;
        }
        if spec.gather_outputs {
            if let Tp::Shard(ax) = p.tp {
                new_id = out.all_gather(new_id, ax, tp)?;
                collectives += 1;
                map.insert(o, new_id);
                place.get_mut(&o).unwrap().tp = Tp::Rep;
                p.tp = Tp::Rep;
            }
        }
        output_shards.push(ShardInfo {
            dp_axis: p.dp,
            tp_axis: match p.tp {
                Tp::Shard(ax) => Some(ax),
                _ => None,
            },
        });
        out.mark_output(new_id);
    }

    Ok(PartitionedGraph {
        graph: out,
        parallel,
        param_shards,
        input_shards,
        output_shards,
        collectives,
    })
}

/// Tensor-parallel layout of one parameter under the Megatron naming rules,
/// or `None` for replication (including the divisibility fallback).
fn param_tp_axis(name: &str, dims: &[usize], tensor: usize) -> Option<usize> {
    if tensor <= 1 {
        return None;
    }
    let (base, is_weight) = if let Some(b) = name.strip_suffix(".w") {
        (b, true)
    } else if let Some(b) = name.strip_suffix(".b") {
        (b, false)
    } else {
        return None;
    };
    let column = [".q_proj", ".k_proj", ".v_proj", ".fc1"]
        .iter()
        .any(|s| base.ends_with(s))
        || base.ends_with("lm_head");
    let row = [".out_proj", ".fc2"].iter().any(|s| base.ends_with(s));
    let axis = if column {
        if is_weight {
            dims.len() - 1
        } else {
            0
        }
    } else if row && is_weight {
        0 // row-parallel bias stays replicated (added after the all-reduce)
    } else {
        return None;
    };
    if !dims[axis].is_multiple_of(tensor) {
        return None; // graceful fallback to replication
    }
    Some(axis)
}

/// Map a shard axis through a reshape by matching prefix element counts of
/// the *full* shapes: the output axis must start at the same flat offset
/// stride and stay divisible by the mesh degree `p`.
fn reshape_axis(in_dims: &[usize], out_dims: &[usize], ax: usize, p: usize) -> Option<usize> {
    let prefix: usize = in_dims[..ax].iter().product();
    let mut acc = 1usize;
    for (j, &d) in out_dims.iter().enumerate() {
        if acc == prefix && d % p == 0 {
            return Some(j);
        }
        acc *= d;
    }
    None
}

/// Combine the placements of a broadcasting binary elementwise op.
fn combine_binary(
    graph: &Graph,
    node: &gaudi_graph::Node,
    pa: Place,
    pb: Place,
) -> Result<Place, GraphError> {
    let out_rank = graph.shape(node.id).rank();
    let ra = graph.shape(node.inputs[0]).rank();
    let rb = graph.shape(node.inputs[1]).rank();

    // Map an axis of input `i` (rank `r`) into output coordinates
    // (broadcasting right-aligns shapes).
    let to_out = |ax: usize, r: usize| ax + out_rank - r;
    // Whether the *other* input broadcasts along output axis `ax_out`.
    let broadcasts = |ax_out: usize, other: usize, other_rank: usize| {
        let shifted = ax_out as isize - (out_rank - other_rank) as isize;
        shifted < 0 || graph.shape(node.inputs[other]).dim(shifted as usize) == 1
    };

    let merge = |a: Option<usize>, b: Option<usize>| -> Result<Option<usize>, GraphError> {
        match (a, b) {
            (None, None) => Ok(None),
            (Some(x), Some(y)) if x == y => Ok(Some(x)),
            (Some(x), None) => {
                if broadcasts(x, 1, rb) {
                    Ok(Some(x))
                } else {
                    Err(GraphError::Partition("inconsistent sharding of operands"))
                }
            }
            (None, Some(y)) => {
                if broadcasts(y, 0, ra) {
                    Ok(Some(y))
                } else {
                    Err(GraphError::Partition("inconsistent sharding of operands"))
                }
            }
            _ => Err(GraphError::Partition("inconsistent sharding of operands")),
        }
    };

    let tp_axis = |p: &Place, r: usize| match p.tp {
        Tp::Shard(ax) => Some(to_out(ax, r)),
        _ => None,
    };
    let dp = merge(pa.dp.map(|a| to_out(a, ra)), pb.dp.map(|a| to_out(a, rb)))?;
    let tp = match merge(tp_axis(&pa, ra), tp_axis(&pb, rb))? {
        Some(ax) => Tp::Shard(ax),
        None => Tp::Rep,
    };
    Ok(Place { dp, tp })
}

/// Placement of `node`'s output given its inputs' placements.
fn propagate(
    graph: &Graph,
    node: &gaudi_graph::Node,
    place: &HashMap<NodeId, Place>,
    parallel: Parallelism,
    spec: &PartitionSpec,
) -> Result<Place, GraphError> {
    let dp = parallel.data;
    let tp = parallel.tensor;
    let p_of = |i: usize| place[&node.inputs[i]];
    let rank_of = |i: usize| graph.shape(node.inputs[i]).rank();
    let dims = graph.shape(node.id);

    Ok(match &node.kind {
        OpKind::Input => {
            let mut p = Place::rep();
            if dp > 1 && PartitionSpec::matches(&spec.batch_inputs, graph.name(node.id)) {
                if !dims.dim(0).is_multiple_of(dp) {
                    return Err(ERR_DIVIDE);
                }
                p.dp = Some(0);
            }
            if tp > 1 && PartitionSpec::matches(&spec.head_inputs, graph.name(node.id)) {
                if dims.rank() < 2 || !dims.dim(1).is_multiple_of(tp) {
                    return Err(GraphError::Partition(
                        "head-sharded input needs rank >= 2 with heads divisible on axis 1",
                    ));
                }
                p.tp = Tp::Shard(1);
            }
            p
        }
        OpKind::Parameter => match param_tp_axis(graph.name(node.id), dims.dims(), tp) {
            Some(ax) => Place {
                dp: None,
                tp: Tp::Shard(ax),
            },
            None => Place::rep(),
        },
        OpKind::Fill(_) => Place::rep(),

        OpKind::MatMul | OpKind::Einsum(_) => {
            let (pa, pb) = (p_of(0), p_of(1));
            let (ra, rb) = (rank_of(0), rank_of(1));
            let is_einsum = matches!(node.kind, OpKind::Einsum(_));
            // Contraction axes: matmul contracts a's last with b's
            // second-to-last; both einsum specs contract the last axes or
            // behave head-batched — only Rep/head-shard supported there.
            let out_dp = match (pa.dp, pb.dp) {
                (None, None) => None,
                (Some(a), None) if a < ra - 1 => Some(a),
                (Some(a), Some(b)) if a == b && a < ra.min(rb).saturating_sub(2) => Some(a),
                _ => {
                    return Err(GraphError::Partition(
                        "unsupported batch sharding of a contraction",
                    ))
                }
            };
            let out_tp = match (pa.tp, pb.tp) {
                (Tp::Rep, Tp::Rep) => Tp::Rep,
                (Tp::Rep, Tp::Shard(bx)) if !is_einsum && bx == rb - 1 => {
                    Tp::Shard(dims.rank() - 1)
                }
                (Tp::Shard(ax), Tp::Shard(bx)) if !is_einsum && ax == ra - 1 && bx == rb - 2 => {
                    Tp::Partial
                }
                (Tp::Shard(ax), Tp::Shard(bx)) if ra == rb && ax == bx && ax + 2 < ra => {
                    Tp::Shard(ax)
                }
                (Tp::Shard(ax), Tp::Rep) if !is_einsum && rb == 2 && ax < ra - 1 => Tp::Shard(ax),
                _ => {
                    return Err(GraphError::Partition(
                        "unsupported tensor sharding of a contraction",
                    ))
                }
            };
            Place {
                dp: out_dp,
                tp: out_tp,
            }
        }

        OpKind::Add | OpKind::Sub | OpKind::Mul | OpKind::Div | OpKind::Maximum => {
            combine_binary(graph, node, p_of(0), p_of(1))?
        }

        OpKind::ScalarMul(_)
        | OpKind::ScalarAdd(_)
        | OpKind::Square
        | OpKind::Sqrt
        | OpKind::Exp
        | OpKind::Log
        | OpKind::Neg
        | OpKind::FusedElementwise(_) => p_of(0),

        OpKind::Activation(act) => {
            let p = p_of(0);
            // GLU halves the last axis; a shard there would straddle gates.
            if matches!(act, gaudi_graph::Activation::Glu)
                && matches!(p.tp, Tp::Shard(ax) if ax == rank_of(0) - 1)
            {
                return Err(GraphError::Partition("cannot shard the gated axis of GLU"));
            }
            p
        }

        OpKind::Softmax
        | OpKind::ReduceSum { .. }
        | OpKind::ReduceMax { .. }
        | OpKind::ReduceMean { .. } => {
            let p = p_of(0);
            let last = rank_of(0) - 1;
            if p.dp == Some(last) || matches!(p.tp, Tp::Shard(ax) if ax == last) {
                return Err(GraphError::Partition(
                    "cannot shard the reduced axis of a softmax/reduction",
                ));
            }
            p
        }

        OpKind::LayerNorm { .. } => {
            let p = p_of(0);
            let last = rank_of(0) - 1;
            if p.dp == Some(last) || matches!(p.tp, Tp::Shard(ax) if ax == last) {
                return Err(GraphError::Partition(
                    "cannot shard the normalized axis of layernorm",
                ));
            }
            for i in [1, 2] {
                let q = p_of(i);
                if q.dp.is_some() || q.tp != Tp::Rep {
                    return Err(GraphError::Partition(
                        "layernorm scale/shift must be replicated",
                    ));
                }
            }
            p
        }

        OpKind::Transpose => {
            let mut p = p_of(0);
            let r = rank_of(0);
            let swap = |ax: usize| {
                if ax == r - 1 {
                    r - 2
                } else if ax == r - 2 {
                    r - 1
                } else {
                    ax
                }
            };
            p.dp = p.dp.map(swap);
            if let Tp::Shard(ax) = p.tp {
                p.tp = Tp::Shard(swap(ax));
            }
            p
        }

        OpKind::Permute(order) => {
            let mut p = p_of(0);
            let remap = |ax: usize| {
                order
                    .iter()
                    .position(|&o| usize::from(o) == ax)
                    .unwrap_or(ax)
            };
            p.dp = p.dp.map(remap);
            if let Tp::Shard(ax) = p.tp {
                p.tp = Tp::Shard(remap(ax));
            }
            p
        }

        OpKind::Reshape => {
            let p = p_of(0);
            let in_dims = graph.shape(node.inputs[0]);
            let err = || GraphError::Partition("cannot map shard axis through reshape");
            let dp_axis = match p.dp {
                Some(ax) => {
                    Some(reshape_axis(in_dims.dims(), dims.dims(), ax, dp).ok_or_else(err)?)
                }
                None => None,
            };
            let tp_state = match p.tp {
                Tp::Shard(ax) => {
                    Tp::Shard(reshape_axis(in_dims.dims(), dims.dims(), ax, tp).ok_or_else(err)?)
                }
                other => other,
            };
            Place {
                dp: dp_axis,
                tp: tp_state,
            }
        }

        OpKind::Embedding => {
            let table = p_of(0);
            if table.dp.is_some() || table.tp != Tp::Rep {
                return Err(GraphError::Partition("embedding table must be replicated"));
            }
            let ids = p_of(1);
            if ids.tp != Tp::Rep {
                return Err(GraphError::Partition(
                    "embedding ids must not be tensor-sharded",
                ));
            }
            Place {
                dp: ids.dp,
                tp: Tp::Rep,
            }
        }

        OpKind::BroadcastTo | OpKind::ReduceTo => {
            let p = p_of(0);
            if p.dp.is_some() || p.tp != Tp::Rep {
                return Err(GraphError::Partition(
                    "broadcast/reduce-to supports replicated inputs only",
                ));
            }
            Place::rep()
        }

        OpKind::CrossEntropy
        | OpKind::CrossEntropyGrad
        | OpKind::SoftmaxGrad
        | OpKind::ActivationGrad(_)
        | OpKind::LayerNormGrad { .. }
        | OpKind::EmbeddingGrad => {
            for i in 0..node.inputs.len() {
                let q = p_of(i);
                if q.dp.is_some() || q.tp != Tp::Rep {
                    return Err(ERR_FORWARD);
                }
            }
            Place::rep()
        }

        // Fused attention propagates like the head-batched matmuls it
        // replaces: q/k/v must agree on batch/head sharding strictly above
        // the matrix dims, and the (broadcast) mask must be replicated.
        OpKind::FusedAttention { masked, .. } => {
            let pq = p_of(0);
            let r = rank_of(0);
            let above_matrix = |p: &Place| {
                p.dp.is_none_or(|ax| ax + 2 < r)
                    && match p.tp {
                        Tp::Shard(ax) => ax + 2 < r,
                        Tp::Rep => true,
                        Tp::Partial => false,
                    }
            };
            for i in 1..=2 {
                let q = p_of(i);
                if q.dp != pq.dp || q.tp != pq.tp {
                    return Err(GraphError::Partition(
                        "fused attention operands must share one batch/head sharding",
                    ));
                }
            }
            if !above_matrix(&pq) {
                return Err(GraphError::Partition(
                    "cannot shard the sequence/feature axes of fused attention",
                ));
            }
            if *masked {
                let pm = p_of(3);
                if pm.dp.is_some() || pm.tp != Tp::Rep {
                    return Err(GraphError::Partition(
                        "fused attention mask must be replicated",
                    ));
                }
            }
            pq
        }
        OpKind::FusedSoftmaxMatMul => {
            let (px, pv) = (p_of(0), p_of(1));
            let r = rank_of(0);
            if px.dp != pv.dp || px.tp != pv.tp {
                return Err(GraphError::Partition(
                    "fused softmax-matmul operands must share one batch sharding",
                ));
            }
            let ok = px.dp.is_none_or(|ax| ax + 2 < r)
                && match px.tp {
                    Tp::Shard(ax) => ax + 2 < r,
                    Tp::Rep => true,
                    Tp::Partial => false,
                };
            if !ok {
                return Err(GraphError::Partition(
                    "cannot shard the matrix axes of fused softmax-matmul",
                ));
            }
            px
        }
        OpKind::Collective(_) => return Err(GraphError::Partition("graph is already partitioned")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-layer Megatron pattern: x -> col-linear -> gelu -> row-linear.
    fn mlp_graph(d: usize, hidden: usize) -> Graph {
        let mut g = Graph::new();
        let x = g.input("x", &[4, 8, d]).unwrap();
        let w1 = g.parameter("mlp.fc1.w", &[d, hidden]).unwrap();
        let b1 = g.parameter("mlp.fc1.b", &[hidden]).unwrap();
        let h = g.matmul(x, w1).unwrap();
        let h = g.add(h, b1).unwrap();
        let h = g.activation(gaudi_graph::Activation::Gelu, h).unwrap();
        let w2 = g.parameter("mlp.fc2.w", &[hidden, d]).unwrap();
        let b2 = g.parameter("mlp.fc2.b", &[d]).unwrap();
        let y = g.matmul(h, w2).unwrap();
        let y = g.add(y, b2).unwrap();
        g.mark_output(y);
        g
    }

    #[test]
    fn single_device_partition_is_identity() {
        let g = mlp_graph(16, 32);
        let part = partition(&g, Parallelism::single(), &PartitionSpec::llm()).unwrap();
        assert_eq!(part.collectives, 0);
        assert_eq!(part.graph.len(), g.len());
        assert!(part.param_shards.is_empty());
        assert_eq!(part.output_shards[0], ShardInfo::replicated());
    }

    #[test]
    fn megatron_mlp_inserts_one_allreduce() {
        let g = mlp_graph(16, 32);
        let part = partition(&g, Parallelism::tensor(4), &PartitionSpec::llm()).unwrap();
        assert_eq!(
            part.collectives, 1,
            "one all-reduce after the row-parallel matmul"
        );
        // fc1 column-split (weight on out axis, bias with it); fc2 row-split.
        assert_eq!(part.param_shards["mlp.fc1.w"], 1);
        assert_eq!(part.param_shards["mlp.fc1.b"], 0);
        assert_eq!(part.param_shards["mlp.fc2.w"], 0);
        assert!(!part.param_shards.contains_key("mlp.fc2.b"));
        // Hidden activation is sharded 32/4 = 8 wide locally.
        assert!(part
            .graph
            .nodes()
            .iter()
            .any(|n| matches!(n.kind, OpKind::Activation(_)) && n.shape.dims() == [4, 8, 8]));
        // Output is full-width and replicated.
        let out = part.graph.outputs()[0];
        assert_eq!(part.graph.shape(out).dims(), &[4, 8, 16]);
        assert_eq!(part.output_shards[0], ShardInfo::replicated());
    }

    #[test]
    fn data_parallel_splits_the_batch() {
        let g = mlp_graph(16, 32);
        let spec = PartitionSpec {
            batch_inputs: vec!["x".into()],
            ..PartitionSpec::default()
        };
        let part = partition(&g, Parallelism::data(2), &spec).unwrap();
        assert_eq!(part.collectives, 0, "pure DP forward needs no collectives");
        let out = part.graph.outputs()[0];
        assert_eq!(part.graph.shape(out).dims(), &[2, 8, 16]);
        assert_eq!(part.output_shards[0].dp_axis, Some(0));
        assert_eq!(part.input_shards["x"].dp_axis, Some(0));
    }

    #[test]
    fn indivisible_vocab_falls_back_to_replication() {
        let mut g = Graph::new();
        let x = g.input("x", &[2, 1, 16]).unwrap();
        let w = g.parameter("serve.lm_head.w", &[16, 97]).unwrap();
        let b = g.parameter("serve.lm_head.b", &[97]).unwrap();
        let y = g.matmul(x, w).unwrap();
        let y = g.add(y, b).unwrap();
        g.mark_output(y);
        // 97 % 4 != 0 -> lm_head replicates instead of erroring.
        let part = partition(&g, Parallelism::tensor(4), &PartitionSpec::llm()).unwrap();
        assert!(part.param_shards.is_empty());
        assert_eq!(part.collectives, 0);
    }

    #[test]
    fn dp_without_batch_inputs_is_an_error() {
        let g = mlp_graph(16, 32);
        let err = partition(&g, Parallelism::data(2), &PartitionSpec::default()).unwrap_err();
        assert!(matches!(err, GraphError::Partition(_)));
    }

    #[test]
    fn gather_outputs_appends_allgather() {
        let mut g = Graph::new();
        let x = g.input("x", &[2, 1, 16]).unwrap();
        let w = g.parameter("serve.lm_head.w", &[16, 64]).unwrap();
        let b = g.parameter("serve.lm_head.b", &[64]).unwrap();
        let y = g.matmul(x, w).unwrap();
        let y = g.add(y, b).unwrap();
        g.mark_output(y);
        let sharded = partition(&g, Parallelism::tensor(2), &PartitionSpec::llm()).unwrap();
        assert_eq!(sharded.output_shards[0].tp_axis, Some(2));
        let spec = PartitionSpec {
            gather_outputs: true,
            ..PartitionSpec::llm()
        };
        let gathered = partition(&g, Parallelism::tensor(2), &spec).unwrap();
        assert_eq!(gathered.output_shards[0].tp_axis, None);
        assert_eq!(gathered.collectives, 1);
        let out = gathered.graph.outputs()[0];
        assert_eq!(gathered.graph.shape(out).dims(), &[2, 1, 64]);
    }
}
