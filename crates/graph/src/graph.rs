//! Graph container, builder API, and shape inference.

use crate::op::{Activation, CollectiveKind, EinsumSpec, OpKind};
use gaudi_tensor::shape::MAX_RANK;
use gaudi_tensor::{DType, Shape, TensorError};
use std::borrow::Cow;
use std::fmt;
use std::ops::{Deref, DerefMut};

/// Handle to a node within a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl NodeId {
    /// Index into the graph's node vector.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// Errors raised while building a graph.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// A shape rule was violated; wraps the tensor-level description.
    Shape(TensorError),
    /// An operand handle does not belong to this graph.
    UnknownNode(NodeId),
    /// The operator received the wrong number of operands.
    Arity {
        /// Operator label.
        op: String,
        /// Expected operand count.
        expected: usize,
        /// Received operand count.
        actual: usize,
    },
    /// Embedding/cross-entropy rank constraints violated.
    Rank {
        /// Human-readable constraint description.
        what: &'static str,
    },
    /// The operator has no gradient rule (e.g. `maximum`, `reduce_max`).
    Autograd(&'static str),
    /// The multi-device partitioning pass could not shard the graph.
    Partition(&'static str),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Shape(e) => write!(f, "shape error: {e}"),
            GraphError::UnknownNode(id) => write!(f, "unknown node {id}"),
            GraphError::Arity {
                op,
                expected,
                actual,
            } => {
                write!(f, "{op} expects {expected} operands, got {actual}")
            }
            GraphError::Rank { what } => write!(f, "rank constraint violated: {what}"),
            GraphError::Autograd(what) => write!(f, "no gradient rule for {what}"),
            GraphError::Partition(what) => write!(f, "cannot partition: {what}"),
        }
    }
}

impl std::error::Error for GraphError {}

impl From<TensorError> for GraphError {
    fn from(e: TensorError) -> Self {
        GraphError::Shape(e)
    }
}

/// A node's operand handles, held inline: no operator takes more than
/// [`Operands::CAPACITY`] (see [`OpKind::arity`]), so building a node
/// allocates nothing for them. Derefs to `[NodeId]`; its `Debug` output is
/// the slice's.
#[derive(Clone, Copy)]
pub struct Operands {
    ids: [NodeId; Operands::CAPACITY],
    len: u8,
}

impl Operands {
    /// The most operands any operator takes.
    pub const CAPACITY: usize = 4;

    /// Remove every operand.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Append `ids` in order.
    ///
    /// # Panics
    ///
    /// If the list would grow past [`CAPACITY`](Self::CAPACITY).
    pub fn extend(&mut self, ids: impl IntoIterator<Item = NodeId>) {
        for id in ids {
            let len = usize::from(self.len);
            assert!(
                len < Self::CAPACITY,
                "more than {} operands",
                Self::CAPACITY
            );
            self.ids[len] = id;
            self.len += 1;
        }
    }
}

impl Default for Operands {
    fn default() -> Self {
        Operands {
            ids: [NodeId(0); Operands::CAPACITY],
            len: 0,
        }
    }
}

impl Deref for Operands {
    type Target = [NodeId];

    fn deref(&self) -> &[NodeId] {
        &self.ids[..usize::from(self.len)]
    }
}

impl DerefMut for Operands {
    fn deref_mut(&mut self) -> &mut [NodeId] {
        &mut self.ids[..usize::from(self.len)]
    }
}

impl<'a> IntoIterator for &'a Operands {
    type Item = &'a NodeId;
    type IntoIter = std::slice::Iter<'a, NodeId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for Operands {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Operands {}

impl fmt::Debug for Operands {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// One operation (or source tensor) in the graph.
#[derive(Debug, Clone)]
pub struct Node {
    /// This node's handle.
    pub id: NodeId,
    /// Operator.
    pub kind: OpKind,
    /// Operand handles (empty for sources).
    pub inputs: Operands,
    /// Inferred output shape.
    pub shape: Shape,
    /// Human-readable name for traces.
    pub name: String,
}

/// A static compute graph in SSA form: nodes are appended in topological
/// order (operands always precede their consumers).
///
/// ```
/// use gaudi_graph::Graph;
///
/// let mut g = Graph::new();
/// let x = g.input("x", &[8, 16])?;
/// let w = g.parameter("w", &[16, 4])?;
/// let y = g.matmul(x, w)?;          // maps to the MME
/// let p = g.softmax(y)?;            // maps to the TPC cluster
/// g.mark_output(p);
/// g.validate()?;
/// assert_eq!(g.shape(p).dims(), &[8, 4]);
/// # Ok::<(), gaudi_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Graph {
    nodes: Vec<Node>,
    outputs: Vec<NodeId>,
    /// Storage dtype charged by the memory/DMA models for activations.
    pub storage_dtype: DType,
}

/// A graph for callees that take it owned or borrowed
/// (`impl Into<Cow<'_, Graph>>`): they rewrite an owned one in place and
/// clone a borrowed one only if they change it.
impl From<Graph> for Cow<'_, Graph> {
    fn from(graph: Graph) -> Self {
        Cow::Owned(graph)
    }
}

impl<'g> From<&'g Graph> for Cow<'g, Graph> {
    fn from(graph: &'g Graph) -> Self {
        Cow::Borrowed(graph)
    }
}

impl Graph {
    /// Empty graph with `f32` storage accounting.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Empty the graph back to [`Graph::new`]'s state, keeping the node and
    /// output vectors' capacity: a graph rebuilt into a cleared one grows
    /// neither vector up to the size it had.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.outputs.clear();
        self.storage_dtype = DType::default();
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All nodes in topological order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Access a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Shape of a node's output.
    pub fn shape(&self, id: NodeId) -> Shape {
        self.nodes[id.0].shape
    }

    /// Marked graph outputs.
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// Mark a node as a graph output (kept live by the executor).
    pub fn mark_output(&mut self, id: NodeId) {
        if !self.outputs.contains(&id) {
            self.outputs.push(id);
        }
    }

    /// Low-level node insertion with an explicit output shape. Validates
    /// operand handles and arity; shape correctness is the caller's
    /// responsibility (used by autograd for adjoint ops).
    pub fn push_node(
        &mut self,
        kind: OpKind,
        inputs: &[NodeId],
        shape: Shape,
        name: impl Into<String>,
    ) -> Result<NodeId, GraphError> {
        for &i in inputs {
            if i.0 >= self.nodes.len() {
                return Err(GraphError::UnknownNode(i));
            }
        }
        if let Some(expected) = kind.arity() {
            if inputs.len() != expected {
                return Err(GraphError::Arity {
                    op: kind.label(),
                    expected,
                    actual: inputs.len(),
                });
            }
        } else if !inputs.is_empty() {
            return Err(GraphError::Arity {
                op: kind.label(),
                expected: 0,
                actual: inputs.len(),
            });
        }
        // Every arity fits: no operator takes more than `Operands::CAPACITY`.
        let mut operands = Operands::default();
        operands.extend(inputs.iter().copied());
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            id,
            kind,
            inputs: operands,
            shape,
            name: name.into(),
        });
        Ok(id)
    }

    // ---- source nodes -------------------------------------------------

    /// External input tensor. A `String` name is moved into the node.
    pub fn input(&mut self, name: impl Into<String>, dims: &[usize]) -> Result<NodeId, GraphError> {
        let shape = Shape::new(dims)?;
        self.push_node(OpKind::Input, &[], shape, name)
    }

    /// Trainable parameter tensor. A `String` name is moved into the node.
    pub fn parameter(
        &mut self,
        name: impl Into<String>,
        dims: &[usize],
    ) -> Result<NodeId, GraphError> {
        let shape = Shape::new(dims)?;
        self.push_node(OpKind::Parameter, &[], shape, name)
    }

    /// Constant-filled tensor.
    pub fn fill(
        &mut self,
        name: impl Into<String>,
        dims: &[usize],
        value: f32,
    ) -> Result<NodeId, GraphError> {
        let shape = Shape::new(dims)?;
        self.push_node(OpKind::Fill(value), &[], shape, name)
    }

    /// `torch.ones_like` analog.
    pub fn ones_like(&mut self, of: NodeId, name: impl Into<String>) -> Result<NodeId, GraphError> {
        let shape = self.shape(of);
        self.push_node(OpKind::Fill(1.0), &[], shape, name)
    }

    // ---- MME ops -------------------------------------------------------

    /// Batched matrix product (`torch.matmul`); the only op mapped to MME.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> Result<NodeId, GraphError> {
        let shape = infer_matmul(self.shape(a), self.shape(b))?;
        self.push_node(OpKind::MatMul, &[a, b], shape, "")
    }

    /// High-level fused contraction — the Insight #2 anti-pattern.
    pub fn einsum(&mut self, spec: EinsumSpec, a: NodeId, b: NodeId) -> Result<NodeId, GraphError> {
        let shape = infer_einsum(spec, self.shape(a), self.shape(b))?;
        self.push_node(OpKind::Einsum(spec), &[a, b], shape, "")
    }

    // ---- element-wise binaries ------------------------------------------

    fn binary(&mut self, kind: OpKind, a: NodeId, b: NodeId) -> Result<NodeId, GraphError> {
        let shape = Shape::broadcast(&self.shape(a), &self.shape(b))?;
        self.push_node(kind, &[a, b], shape, "")
    }

    /// Element-wise sum with broadcasting.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> Result<NodeId, GraphError> {
        self.binary(OpKind::Add, a, b)
    }

    /// Element-wise difference.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> Result<NodeId, GraphError> {
        self.binary(OpKind::Sub, a, b)
    }

    /// Element-wise product (`torch.mul`).
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> Result<NodeId, GraphError> {
        self.binary(OpKind::Mul, a, b)
    }

    /// Element-wise quotient.
    pub fn div(&mut self, a: NodeId, b: NodeId) -> Result<NodeId, GraphError> {
        self.binary(OpKind::Div, a, b)
    }

    /// Element-wise maximum.
    pub fn maximum(&mut self, a: NodeId, b: NodeId) -> Result<NodeId, GraphError> {
        self.binary(OpKind::Maximum, a, b)
    }

    // ---- scalar and unary ops --------------------------------------------

    fn unary(&mut self, kind: OpKind, a: NodeId) -> Result<NodeId, GraphError> {
        let shape = self.shape(a);
        self.push_node(kind, &[a], shape, "")
    }

    /// `scalar * tensor`.
    pub fn scalar_mul(&mut self, a: NodeId, s: f32) -> Result<NodeId, GraphError> {
        self.unary(OpKind::ScalarMul(s), a)
    }

    /// `scalar + tensor`.
    pub fn scalar_add(&mut self, a: NodeId, s: f32) -> Result<NodeId, GraphError> {
        self.unary(OpKind::ScalarAdd(s), a)
    }

    /// `torch.square`.
    pub fn square(&mut self, a: NodeId) -> Result<NodeId, GraphError> {
        self.unary(OpKind::Square, a)
    }

    /// `torch.sqrt`.
    pub fn sqrt(&mut self, a: NodeId) -> Result<NodeId, GraphError> {
        self.unary(OpKind::Sqrt, a)
    }

    /// `torch.exp`.
    pub fn exp(&mut self, a: NodeId) -> Result<NodeId, GraphError> {
        self.unary(OpKind::Exp, a)
    }

    /// `torch.log`.
    pub fn log(&mut self, a: NodeId) -> Result<NodeId, GraphError> {
        self.unary(OpKind::Log, a)
    }

    /// Negation.
    pub fn neg(&mut self, a: NodeId) -> Result<NodeId, GraphError> {
        self.unary(OpKind::Neg, a)
    }

    /// Activation application (GLU halves the last dimension).
    pub fn activation(&mut self, act: Activation, a: NodeId) -> Result<NodeId, GraphError> {
        let in_shape = self.shape(a);
        let shape = if matches!(act, Activation::Glu) {
            let d = in_shape.last_dim();
            if !d.is_multiple_of(2) {
                return Err(TensorError::OddSplitDim { dim: d }.into());
            }
            let mut halved = in_shape;
            *halved.dims_mut().last_mut().unwrap() = d / 2;
            halved
        } else {
            in_shape
        };
        self.push_node(OpKind::Activation(act), &[a], shape, "")
    }

    // ---- structured ops ---------------------------------------------------

    /// Softmax over the last axis.
    pub fn softmax(&mut self, a: NodeId) -> Result<NodeId, GraphError> {
        self.unary(OpKind::Softmax, a)
    }

    /// Layer normalization over the last axis.
    pub fn layernorm(
        &mut self,
        x: NodeId,
        gamma: NodeId,
        beta: NodeId,
        eps: f32,
    ) -> Result<NodeId, GraphError> {
        let d = self.shape(x).last_dim();
        if self.shape(gamma).numel() != d || self.shape(beta).numel() != d {
            return Err(TensorError::LengthMismatch {
                expected: d,
                actual: self.shape(gamma).numel(),
            }
            .into());
        }
        let shape = self.shape(x);
        self.push_node(OpKind::LayerNorm { eps }, &[x, gamma, beta], shape, "")
    }

    /// Transpose of the last two axes.
    pub fn transpose(&mut self, a: NodeId) -> Result<NodeId, GraphError> {
        let s = self.shape(a);
        if s.rank() < 2 {
            return Err(TensorError::AxisOutOfRange {
                axis: 1,
                rank: s.rank(),
            }
            .into());
        }
        let mut shape = s;
        shape.dims_mut()[s.rank() - 2..].reverse();
        self.push_node(OpKind::Transpose, &[a], shape, "")
    }

    /// General axis permutation: output dim `i` is input dim `order[i]`.
    pub fn permute(&mut self, a: NodeId, order: &[usize]) -> Result<NodeId, GraphError> {
        let s = self.shape(a);
        let rank = s.rank();
        if order.len() != rank {
            return Err(GraphError::Rank {
                what: "permutation length must equal rank",
            });
        }
        let mut seen = [false; 5];
        for &o in order {
            if o >= rank || seen[o] {
                return Err(GraphError::Rank {
                    what: "order must be a permutation of axes",
                });
            }
            seen[o] = true;
        }
        let mut shape = s;
        for (d, &o) in shape.dims_mut().iter_mut().zip(order) {
            *d = s.dim(o);
        }
        self.push_node(OpKind::Permute(order.to_vec()), &[a], shape, "")
    }

    /// Reshape to a new shape with equal element count.
    pub fn reshape(&mut self, a: NodeId, dims: &[usize]) -> Result<NodeId, GraphError> {
        let shape = Shape::new(dims)?;
        if shape.numel() != self.shape(a).numel() {
            return Err(TensorError::ReshapeMismatch {
                from: self.shape(a),
                to: shape,
            }
            .into());
        }
        self.push_node(OpKind::Reshape, &[a], shape, "")
    }

    /// Broadcast up to a larger shape.
    pub fn broadcast_to(&mut self, a: NodeId, dims: &[usize]) -> Result<NodeId, GraphError> {
        let target = Shape::new(dims)?;
        let merged = Shape::broadcast(&self.shape(a), &target)?;
        if merged != target {
            return Err(TensorError::BroadcastMismatch {
                lhs: self.shape(a),
                rhs: target,
            }
            .into());
        }
        self.push_node(OpKind::BroadcastTo, &[a], target, "")
    }

    /// Sum-reduce down to a smaller (broadcast-compatible) shape.
    pub fn reduce_to(&mut self, a: NodeId, dims: &[usize]) -> Result<NodeId, GraphError> {
        let target = Shape::new(dims)?;
        let merged = Shape::broadcast(&self.shape(a), &target)?;
        if merged != self.shape(a) {
            return Err(TensorError::BroadcastMismatch {
                lhs: self.shape(a),
                rhs: target,
            }
            .into());
        }
        self.push_node(OpKind::ReduceTo, &[a], target, "")
    }

    fn reduce(&mut self, kind: OpKind, a: NodeId, keep_dim: bool) -> Result<NodeId, GraphError> {
        let s = self.shape(a);
        let shape = if keep_dim || s.rank() == 1 {
            let mut kept = s;
            *kept.dims_mut().last_mut().unwrap() = 1;
            kept
        } else {
            Shape::new(&s.dims()[..s.rank() - 1])?
        };
        self.push_node(kind, &[a], shape, "")
    }

    /// Sum over the last axis.
    pub fn reduce_sum(&mut self, a: NodeId, keep_dim: bool) -> Result<NodeId, GraphError> {
        self.reduce(OpKind::ReduceSum { keep_dim }, a, keep_dim)
    }

    /// Max over the last axis.
    pub fn reduce_max(&mut self, a: NodeId, keep_dim: bool) -> Result<NodeId, GraphError> {
        self.reduce(OpKind::ReduceMax { keep_dim }, a, keep_dim)
    }

    /// Mean over the last axis.
    pub fn reduce_mean(&mut self, a: NodeId, keep_dim: bool) -> Result<NodeId, GraphError> {
        self.reduce(OpKind::ReduceMean { keep_dim }, a, keep_dim)
    }

    /// Embedding lookup `(table [V, D], ids [...])` → `[..., D]`.
    pub fn embedding(&mut self, table: NodeId, ids: NodeId) -> Result<NodeId, GraphError> {
        let t = self.shape(table);
        let i = self.shape(ids);
        if t.rank() != 2 {
            return Err(GraphError::Rank {
                what: "embedding table must be rank 2",
            });
        }
        // One axis more than the ids: `Shape::new` rejects a rank past
        // `MAX_RANK`.
        let mut dims = [0; MAX_RANK + 1];
        dims[..i.rank()].copy_from_slice(i.dims());
        dims[i.rank()] = t.dim(1);
        let shape = Shape::new(&dims[..=i.rank()])?;
        self.push_node(OpKind::Embedding, &[table, ids], shape, "")
    }

    /// Token cross entropy `(logits [..., V], targets [...])` → scalar.
    pub fn cross_entropy(&mut self, logits: NodeId, targets: NodeId) -> Result<NodeId, GraphError> {
        let l = self.shape(logits);
        let t = self.shape(targets);
        if l.rank() != t.rank() + 1 || l.numel() / l.last_dim() != t.numel() {
            return Err(GraphError::Rank {
                what: "targets must match logits minus class axis",
            });
        }
        let shape = Shape::new(&[1])?;
        self.push_node(OpKind::CrossEntropy, &[logits, targets], shape, "")
    }

    /// An inter-device collective over `a` (see [`CollectiveKind`] for the
    /// per-kind shape semantics). Shape inference:
    ///
    /// * `AllReduce` / `Broadcast` preserve the shape,
    /// * `AllGather { axis, world }` multiplies `dims[axis]` by `world`,
    /// * `ReduceScatter { axis, world }` divides `dims[axis]` by `world`
    ///   (the dimension must be divisible).
    pub fn collective(&mut self, kind: CollectiveKind, a: NodeId) -> Result<NodeId, GraphError> {
        let s = self.shape(a);
        let shape = match kind {
            CollectiveKind::AllReduce | CollectiveKind::Broadcast => s,
            CollectiveKind::AllGather { axis, world } => {
                if axis >= s.rank() || world == 0 {
                    return Err(GraphError::Rank {
                        what: "all_gather axis out of range",
                    });
                }
                let mut gathered = s;
                gathered.dims_mut()[axis] *= world;
                gathered
            }
            CollectiveKind::ReduceScatter { axis, world } => {
                if axis >= s.rank() || world == 0 {
                    return Err(GraphError::Rank {
                        what: "reduce_scatter axis out of range",
                    });
                }
                if !s.dim(axis).is_multiple_of(world) {
                    return Err(GraphError::Rank {
                        what: "reduce_scatter axis not divisible by world size",
                    });
                }
                let mut scattered = s;
                scattered.dims_mut()[axis] /= world;
                scattered
            }
        };
        self.push_node(OpKind::Collective(kind), &[a], shape, "")
    }

    /// Element-wise sum across all devices (shape-preserving collective).
    pub fn all_reduce(&mut self, a: NodeId) -> Result<NodeId, GraphError> {
        self.collective(CollectiveKind::AllReduce, a)
    }

    /// Concatenate per-device shards of `a` along `axis` across `world`
    /// devices.
    pub fn all_gather(
        &mut self,
        a: NodeId,
        axis: usize,
        world: usize,
    ) -> Result<NodeId, GraphError> {
        self.collective(CollectiveKind::AllGather { axis, world }, a)
    }

    /// Sum across devices then keep one shard of `axis` per device.
    pub fn reduce_scatter(
        &mut self,
        a: NodeId,
        axis: usize,
        world: usize,
    ) -> Result<NodeId, GraphError> {
        self.collective(CollectiveKind::ReduceScatter { axis, world }, a)
    }

    /// Replicate the root device's value of `a` to all devices.
    pub fn broadcast(&mut self, a: NodeId) -> Result<NodeId, GraphError> {
        self.collective(CollectiveKind::Broadcast, a)
    }

    /// Fused scaled-dot-product attention over `(q, k, v[, mask])` with
    /// `k` *untransposed*: `q [..., n, d]`, `k/v [..., m, d]`, optional
    /// additive `mask` broadcastable to `[..., n, m]`. Output is
    /// `[..., n, dv]`. Normally inserted by the compiler's attention-fusion
    /// pass rather than built directly by models.
    pub fn fused_attention(
        &mut self,
        q: NodeId,
        k: NodeId,
        v: NodeId,
        mask: Option<NodeId>,
        scale: f32,
    ) -> Result<NodeId, GraphError> {
        let (qs, ks, vs) = (self.shape(q), self.shape(k), self.shape(v));
        let r = qs.rank();
        if ks.rank() != r || vs.rank() != r || r < 2 {
            return Err(GraphError::Rank {
                what: "fused attention operands must share rank >= 2",
            });
        }
        if qs.dims()[..r - 2] != ks.dims()[..r - 2] || ks.dims()[..r - 2] != vs.dims()[..r - 2] {
            return Err(TensorError::MatmulMismatch { lhs: qs, rhs: ks }.into());
        }
        // Scores contract q's head dim against k's; V rows match K rows.
        if qs.dim(r - 1) != ks.dim(r - 1) || ks.dim(r - 2) != vs.dim(r - 2) {
            return Err(TensorError::MatmulMismatch { lhs: qs, rhs: ks }.into());
        }
        let mut shape = qs;
        shape.dims_mut()[r - 1] = vs.dim(r - 1);
        if let Some(m) = mask {
            // The mask adds onto the [..., n, m] score tile.
            let mut scores = qs;
            scores.dims_mut()[r - 1] = ks.dim(r - 2);
            if Shape::broadcast(&self.shape(m), &scores)? != scores {
                return Err(TensorError::BroadcastMismatch {
                    lhs: self.shape(m),
                    rhs: scores,
                }
                .into());
            }
            self.push_node(
                OpKind::FusedAttention {
                    scale,
                    masked: true,
                },
                &[q, k, v, m],
                shape,
                "",
            )
        } else {
            self.push_node(
                OpKind::FusedAttention {
                    scale,
                    masked: false,
                },
                &[q, k, v],
                shape,
                "",
            )
        }
    }

    /// Fused `softmax(x) · v` over the last axis: `x [..., n, m]`,
    /// `v [..., m, d]` → `[..., n, d]`, with the row softmax streamed into
    /// the matmul instead of materializing. Inserted by the fusion pass.
    pub fn fused_softmax_matmul(&mut self, x: NodeId, v: NodeId) -> Result<NodeId, GraphError> {
        let shape = infer_matmul(self.shape(x), self.shape(v))?;
        self.push_node(OpKind::FusedSoftmaxMatMul, &[x, v], shape, "")
    }

    /// Attach a trace name to the most recently created node. A `String`
    /// name is moved into the node.
    pub fn name_last(&mut self, name: impl Into<String>) {
        if let Some(n) = self.nodes.last_mut() {
            n.name = name.into();
        }
    }

    /// Keep, in order, the nodes for which `keep` returns `true`, and
    /// renumber ids, operands and marked outputs to close the gaps. `keep`
    /// sees each node with its id and operands still in the old numbering,
    /// and may rewrite it in place (a pass swapping in a fused op sets the
    /// kind and operands of the node it replaces).
    ///
    /// # Panics
    ///
    /// If a kept node or a marked output refers to a dropped node.
    pub fn retain_nodes(&mut self, mut keep: impl FnMut(&mut Node) -> bool) {
        const DROPPED: usize = usize::MAX;
        let mut remap = vec![DROPPED; self.nodes.len()];
        let mut next = 0;
        let renumber = |remap: &[usize], id: &mut NodeId| {
            let new = remap[id.0];
            assert!(new != DROPPED, "a kept node refers to dropped node {id}");
            *id = NodeId(new);
        };
        self.nodes.retain_mut(|n| {
            if !keep(n) {
                return false;
            }
            for i in n.inputs.iter_mut() {
                renumber(&remap, i);
            }
            remap[n.id.0] = next;
            n.id = NodeId(next);
            next += 1;
            true
        });
        for o in &mut self.outputs {
            renumber(&remap, o);
        }
    }

    /// Consumers of each node (computed on demand).
    pub fn consumers(&self) -> Vec<Vec<NodeId>> {
        let mut c = vec![Vec::new(); self.nodes.len()];
        for n in &self.nodes {
            for &i in &n.inputs {
                c[i.0].push(n.id);
            }
        }
        c
    }

    /// Validate structural invariants (operands precede consumers; arity;
    /// every marked output names a node).
    pub fn validate(&self) -> Result<(), GraphError> {
        if let Some(&o) = self.outputs.iter().find(|o| o.0 >= self.nodes.len()) {
            return Err(GraphError::UnknownNode(o));
        }
        for n in &self.nodes {
            for &i in &n.inputs {
                if i.0 >= n.id.0 {
                    return Err(GraphError::UnknownNode(i));
                }
            }
            if let Some(a) = n.kind.arity() {
                if n.inputs.len() != a {
                    return Err(GraphError::Arity {
                        op: n.kind.label(),
                        expected: a,
                        actual: n.inputs.len(),
                    });
                }
            }
        }
        Ok(())
    }
}

fn infer_matmul(a: Shape, b: Shape) -> Result<Shape, GraphError> {
    let (ab, m, k) = a
        .as_batched_matrix()
        .ok_or(TensorError::MatmulMismatch { lhs: a, rhs: b })?;
    let (bb, k2, n) = b
        .as_batched_matrix()
        .ok_or(TensorError::MatmulMismatch { lhs: a, rhs: b })?;
    if k != k2 || (ab != bb && ab != 1 && bb != 1) {
        return Err(TensorError::MatmulMismatch { lhs: a, rhs: b }.into());
    }
    // The batch axes come from the operand with the larger batch.
    let mut out = if ab >= bb { a } else { b };
    let r = out.rank();
    out.dims_mut()[r - 2..].copy_from_slice(&[m, n]);
    Ok(out)
}

fn infer_einsum(spec: EinsumSpec, a: Shape, b: Shape) -> Result<Shape, GraphError> {
    if a.rank() != b.rank() || a.rank() < 2 {
        return Err(TensorError::MatmulMismatch { lhs: a, rhs: b }.into());
    }
    let r = a.rank();
    if a.dims()[..r - 2] != b.dims()[..r - 2] {
        return Err(TensorError::MatmulMismatch { lhs: a, rhs: b }.into());
    }
    let mut out = a;
    match spec {
        EinsumSpec::ScoresQKt => {
            // a: [..., n, d], b: [..., m, d] -> [..., n, m]
            if a.dim(r - 1) != b.dim(r - 1) {
                return Err(TensorError::MatmulMismatch { lhs: a, rhs: b }.into());
            }
            out.dims_mut()[r - 1] = b.dim(r - 2);
        }
        EinsumSpec::OutputAv => {
            // a: [..., n, m], b: [..., m, d] -> [..., n, d]
            if a.dim(r - 1) != b.dim(r - 2) {
                return Err(TensorError::MatmulMismatch { lhs: a, rhs: b }.into());
            }
            out.dims_mut()[r - 1] = b.dim(r - 1);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_infers_matmul_chain() {
        let mut g = Graph::new();
        let x = g.input("x", &[8, 16]).unwrap();
        let w = g.parameter("w", &[16, 32]).unwrap();
        let y = g.matmul(x, w).unwrap();
        assert_eq!(g.shape(y).dims(), &[8, 32]);
        let s = g.softmax(y).unwrap();
        assert_eq!(g.shape(s).dims(), &[8, 32]);
        g.mark_output(s);
        g.validate().unwrap();
        assert_eq!(g.outputs(), &[s]);
    }

    #[test]
    fn batched_matmul_shapes() {
        let mut g = Graph::new();
        let q = g.input("q", &[4, 6, 128, 64]).unwrap();
        let kt = g.input("kt", &[4, 6, 64, 128]).unwrap();
        let s = g.matmul(q, kt).unwrap();
        assert_eq!(g.shape(s).dims(), &[4, 6, 128, 128]);
    }

    #[test]
    fn matmul_mismatch_rejected() {
        let mut g = Graph::new();
        let a = g.input("a", &[2, 3]).unwrap();
        let b = g.input("b", &[4, 5]).unwrap();
        assert!(g.matmul(a, b).is_err());
    }

    #[test]
    fn broadcasting_add_bias() {
        let mut g = Graph::new();
        let x = g.input("x", &[8, 32]).unwrap();
        let b = g.parameter("b", &[32]).unwrap();
        let y = g.add(x, b).unwrap();
        assert_eq!(g.shape(y).dims(), &[8, 32]);
    }

    #[test]
    fn glu_halves_last_dim() {
        let mut g = Graph::new();
        let x = g.input("x", &[8, 64]).unwrap();
        let y = g.activation(Activation::Glu, x).unwrap();
        assert_eq!(g.shape(y).dims(), &[8, 32]);
        let odd = g.input("odd", &[8, 63]).unwrap();
        assert!(g.activation(Activation::Glu, odd).is_err());
    }

    #[test]
    fn transpose_and_reshape() {
        let mut g = Graph::new();
        let x = g.input("x", &[2, 3, 4]).unwrap();
        let t = g.transpose(x).unwrap();
        assert_eq!(g.shape(t).dims(), &[2, 4, 3]);
        let r = g.reshape(x, &[6, 4]).unwrap();
        assert_eq!(g.shape(r).dims(), &[6, 4]);
        assert!(g.reshape(x, &[5, 5]).is_err());
    }

    #[test]
    fn reduces() {
        let mut g = Graph::new();
        let x = g.input("x", &[2, 3, 4]).unwrap();
        let s = g.reduce_sum(x, false).unwrap();
        assert_eq!(g.shape(s).dims(), &[2, 3]);
        let k = g.reduce_max(x, true).unwrap();
        assert_eq!(g.shape(k).dims(), &[2, 3, 1]);
    }

    #[test]
    fn broadcast_and_reduce_to() {
        let mut g = Graph::new();
        let x = g.input("x", &[1, 4]).unwrap();
        let b = g.broadcast_to(x, &[3, 4]).unwrap();
        assert_eq!(g.shape(b).dims(), &[3, 4]);
        let r = g.reduce_to(b, &[1, 4]).unwrap();
        assert_eq!(g.shape(r).dims(), &[1, 4]);
        // cannot broadcast down
        assert!(g.broadcast_to(b, &[1, 4]).is_err());
    }

    #[test]
    fn embedding_and_cross_entropy() {
        let mut g = Graph::new();
        let table = g.parameter("emb", &[100, 16]).unwrap();
        let ids = g.input("ids", &[4, 10]).unwrap();
        let e = g.embedding(table, ids).unwrap();
        assert_eq!(g.shape(e).dims(), &[4, 10, 16]);

        let logits = g.input("logits", &[4, 10, 100]).unwrap();
        let loss = g.cross_entropy(logits, ids).unwrap();
        assert_eq!(g.shape(loss).dims(), &[1]);
    }

    #[test]
    fn einsum_shapes() {
        let mut g = Graph::new();
        let q = g.input("q", &[2, 4, 16, 8]).unwrap();
        let k = g.input("k", &[2, 4, 16, 8]).unwrap();
        let scores = g.einsum(EinsumSpec::ScoresQKt, q, k).unwrap();
        assert_eq!(g.shape(scores).dims(), &[2, 4, 16, 16]);
        let v = g.input("v", &[2, 4, 16, 8]).unwrap();
        let out = g.einsum(EinsumSpec::OutputAv, scores, v).unwrap();
        assert_eq!(g.shape(out).dims(), &[2, 4, 16, 8]);
    }

    #[test]
    fn layernorm_checks_param_size() {
        let mut g = Graph::new();
        let x = g.input("x", &[8, 32]).unwrap();
        let gamma = g.parameter("g", &[32]).unwrap();
        let beta = g.parameter("b", &[32]).unwrap();
        let y = g.layernorm(x, gamma, beta, 1e-5).unwrap();
        assert_eq!(g.shape(y).dims(), &[8, 32]);
        let bad = g.parameter("bad", &[16]).unwrap();
        assert!(g.layernorm(x, bad, beta, 1e-5).is_err());
    }

    #[test]
    fn push_node_rejects_unknown_operands_and_bad_arity() {
        let mut g = Graph::new();
        let x = g.input("x", &[4]).unwrap();
        let y = g.exp(x).unwrap();
        let err = g.push_node(OpKind::Exp, &[NodeId(99)], g.shape(y), "bad");
        assert!(matches!(err, Err(GraphError::UnknownNode(_))));
        let err = g.push_node(OpKind::Add, &[x], g.shape(x), "bad");
        assert!(matches!(err, Err(GraphError::Arity { .. })));
        let err = g.push_node(OpKind::Input, &[x], g.shape(x), "bad");
        assert!(matches!(err, Err(GraphError::Arity { .. })));
        g.validate().unwrap();
    }

    #[test]
    fn consumers_map() {
        let mut g = Graph::new();
        let x = g.input("x", &[4]).unwrap();
        let a = g.exp(x).unwrap();
        let b = g.log(x).unwrap();
        let c = g.add(a, b).unwrap();
        let cons = g.consumers();
        assert_eq!(cons[x.index()], vec![a, b]);
        assert_eq!(cons[a.index()], vec![c]);
        assert!(cons[c.index()].is_empty());
    }

    #[test]
    fn retain_nodes_renumbers_ids_inputs_and_outputs() {
        let mut g = Graph::new();
        let x = g.input("x", &[4]).unwrap(); // %0
        let dead = g.log(x).unwrap(); // %1, dropped
        let a = g.exp(x).unwrap(); // %2 -> %1
        let _ = g.neg(dead).unwrap(); // %3, dropped
        let b = g.add(a, x).unwrap(); // %4 -> %2
        g.name_last("sum");
        g.mark_output(b);
        g.mark_output(a);
        let mut seen = Vec::new();
        g.retain_nodes(|n| {
            seen.push((n.id, n.inputs.to_vec()));
            if n.id == b {
                // Rewrites see operands in the old numbering.
                n.inputs.swap(0, 1);
            }
            !matches!(n.kind, OpKind::Log | OpKind::Neg)
        });
        assert_eq!(seen[4], (b, vec![a, x]));
        assert_eq!(g.len(), 3);
        let ids: Vec<NodeId> = g.nodes().iter().map(|n| n.id).collect();
        assert_eq!(ids, [NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(*g.node(NodeId(1)).inputs, [NodeId(0)]);
        assert_eq!(*g.node(NodeId(2)).inputs, [NodeId(0), NodeId(1)]);
        assert_eq!(g.node(NodeId(2)).name, "sum");
        assert_eq!(g.outputs(), [NodeId(2), NodeId(1)]);
        g.validate().unwrap();
    }

    #[test]
    fn clear_leaves_a_new_graph_with_its_capacity() {
        let mut g = Graph::new();
        let x = g.input("x", &[4]).unwrap();
        let y = g.exp(x).unwrap();
        g.name_last("e");
        g.mark_output(y);
        g.storage_dtype = DType::BF16;
        let capacity = g.nodes.capacity();
        g.clear();
        assert_eq!(format!("{g:?}"), format!("{:?}", Graph::new()));
        assert_eq!(g.nodes.capacity(), capacity);
        // A cleared graph builds like a fresh one.
        let x = g.input("x", &[4]).unwrap();
        assert_eq!(x, NodeId(0));
        g.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "dropped node")]
    fn retain_nodes_rejects_a_dangling_operand() {
        let mut g = Graph::new();
        let x = g.input("x", &[4]).unwrap();
        let y = g.exp(x).unwrap();
        g.mark_output(y);
        g.retain_nodes(|n| n.id != x);
    }

    #[test]
    fn fused_attention_shapes() {
        let mut g = Graph::new();
        let q = g.input("q", &[2, 4, 16, 8]).unwrap();
        let k = g.input("k", &[2, 4, 32, 8]).unwrap();
        let v = g.input("v", &[2, 4, 32, 8]).unwrap();
        let o = g.fused_attention(q, k, v, None, 0.5).unwrap();
        assert_eq!(g.shape(o).dims(), &[2, 4, 16, 8]);
        let mask = g.input("mask", &[16, 32]).unwrap();
        let om = g.fused_attention(q, k, v, Some(mask), 0.5).unwrap();
        assert_eq!(g.shape(om).dims(), &[2, 4, 16, 8]);
        assert!(matches!(
            g.node(om).kind,
            OpKind::FusedAttention { masked: true, .. }
        ));
        // Head-dim mismatch is rejected.
        let bad = g.input("bad", &[2, 4, 32, 4]).unwrap();
        assert!(g.fused_attention(q, bad, v, None, 0.5).is_err());
        // A mask that cannot broadcast onto the score tile is rejected.
        let bad_mask = g.input("bad_mask", &[16, 31]).unwrap();
        assert!(g.fused_attention(q, k, v, Some(bad_mask), 0.5).is_err());
        g.validate().unwrap();
    }

    #[test]
    fn fused_softmax_matmul_shapes() {
        let mut g = Graph::new();
        let x = g.input("x", &[2, 4, 16, 32]).unwrap();
        let v = g.input("v", &[2, 4, 32, 8]).unwrap();
        let o = g.fused_softmax_matmul(x, v).unwrap();
        assert_eq!(g.shape(o).dims(), &[2, 4, 16, 8]);
    }

    #[test]
    fn ones_like_copies_shape() {
        let mut g = Graph::new();
        let v = g.input("v", &[2, 7]).unwrap();
        let o = g.ones_like(v, "ones").unwrap();
        assert_eq!(g.shape(o).dims(), &[2, 7]);
        assert!(matches!(g.node(o).kind, OpKind::Fill(v) if v == 1.0));
    }
}
