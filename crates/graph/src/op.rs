//! Operator vocabulary of the graph IR.

use gaudi_tensor::shape::MAX_RANK;
use std::fmt;
use std::ops::Deref;

/// Activation functions — the Figure 7 sweep plus the attention feature maps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// Leaky ReLU with the given negative slope.
    LeakyRelu(f32),
    /// Gaussian error linear unit (tanh approximation).
    Gelu,
    /// Exponential linear unit (alpha = 1).
    Elu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Gated linear unit: halves the last dimension.
    Glu,
    /// Linear Transformer feature map `elu(x) + 1`.
    EluPlusOne,
}

impl Activation {
    /// Short lower-case name used in trace labels.
    pub fn name(&self) -> &'static str {
        match self {
            Activation::Relu => "relu",
            Activation::LeakyRelu(_) => "leaky_relu",
            Activation::Gelu => "gelu",
            Activation::Elu => "elu",
            Activation::Sigmoid => "sigmoid",
            Activation::Tanh => "tanh",
            Activation::Glu => "glu",
            Activation::EluPlusOne => "elu_plus_one",
        }
    }

    /// Whether evaluation requires a TPC special-function sequence
    /// (exponential/tanh/erf) rather than plain compares and multiplies.
    pub fn uses_special_func(&self) -> bool {
        !matches!(self, Activation::Relu | Activation::LeakyRelu(_))
    }
}

/// The two einsum contractions attention kernels write in practice. Kept as
/// an opaque "high-level abstract" op so the compiler ablation (DESIGN.md A2)
/// can contrast naive TPC mapping against lowering to MME matmuls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EinsumSpec {
    /// `bhnd,bhmd->bhnm` — attention scores `Q Kᵀ`.
    ScoresQKt,
    /// `bhnm,bhmd->bhnd` — attention output `A V`.
    OutputAv,
}

/// Multi-device collective communication patterns, lowered onto the RoCE
/// scale-out fabric by the compiler's partitioning pass. In the IR they are
/// unary nodes: each device contributes its local shard as the single input
/// and receives the collective's result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveKind {
    /// Element-wise sum across all devices; every device receives the full
    /// reduction (shape-preserving).
    AllReduce,
    /// Concatenate per-device shards along `axis`; every device receives the
    /// gathered tensor (`dims[axis]` grows by `world`×).
    AllGather {
        /// Concatenation axis.
        axis: usize,
        /// Number of participating devices.
        world: usize,
    },
    /// Sum across devices, then split along `axis`; each device keeps one
    /// shard (`dims[axis]` shrinks by `world`×).
    ReduceScatter {
        /// Scatter axis.
        axis: usize,
        /// Number of participating devices.
        world: usize,
    },
    /// Replicate the root device's tensor to all devices (shape-preserving).
    Broadcast,
}

impl CollectiveKind {
    /// Short lower-case name used in trace labels.
    pub fn name(&self) -> &'static str {
        match self {
            CollectiveKind::AllReduce => "all_reduce",
            CollectiveKind::AllGather { .. } => "all_gather",
            CollectiveKind::ReduceScatter { .. } => "reduce_scatter",
            CollectiveKind::Broadcast => "broadcast",
        }
    }
}

/// A [`OpKind::Permute`] axis order, held inline: output dim `i` is input
/// dim `self[i]`. Derefs to its `[u8]` of axes; its `Debug` output is that
/// slice's.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct AxisOrder {
    axes: [u8; MAX_RANK],
    len: u8,
}

impl AxisOrder {
    /// `order` if it is a permutation of `0..order.len()` with at most
    /// [`MAX_RANK`] axes, else `None`.
    pub fn permutation(order: &[usize]) -> Option<Self> {
        if order.len() > MAX_RANK {
            return None;
        }
        let mut axes = [0; MAX_RANK];
        let mut seen = [false; MAX_RANK];
        for (a, &o) in axes.iter_mut().zip(order) {
            if o >= order.len() || seen[o] {
                return None;
            }
            seen[o] = true;
            *a = o as u8;
        }
        Some(AxisOrder {
            axes,
            len: order.len() as u8,
        })
    }
}

impl Deref for AxisOrder {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.axes[..usize::from(self.len)]
    }
}

impl fmt::Debug for AxisOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Graph operators.
///
/// Only [`OpKind::MatMul`] (and a *lowered* einsum) may map to the MME —
/// mirroring Table 1, where every non-matmul operator, including
/// `scalar * tensor`, runs on TPC.
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    /// Externally-supplied activation/input tensor.
    Input,
    /// Trainable parameter tensor.
    Parameter,
    /// Constant tensor filled with the given value (covers `torch.ones_like`
    /// from the paper's FAVOR listing).
    Fill(f32),
    /// (Batched) matrix product — the only Table 1 operator mapped to MME.
    MatMul,
    /// Element-wise addition (broadcasting).
    Add,
    /// Element-wise subtraction (broadcasting).
    Sub,
    /// Element-wise multiplication — `torch.mul`, a TPC op.
    Mul,
    /// Element-wise division.
    Div,
    /// Element-wise maximum.
    Maximum,
    /// `scalar * tensor` — runs on TPC despite being linear (Table 1).
    ScalarMul(f32),
    /// `scalar + tensor` — TPC.
    ScalarAdd(f32),
    /// `torch.square`.
    Square,
    /// `torch.sqrt`.
    Sqrt,
    /// `torch.exp` — TPC special function.
    Exp,
    /// `torch.log` — TPC special function.
    Log,
    /// Negation.
    Neg,
    /// Activation function application.
    Activation(Activation),
    /// Backward of an activation: inputs `(x, dy)`, output `dx`.
    ActivationGrad(Activation),
    /// Numerically-stable softmax over the last axis — the §3.3 bottleneck.
    Softmax,
    /// Backward of softmax: inputs `(y, dy)`, output `dx`.
    SoftmaxGrad,
    /// Layer normalization over the last axis: inputs `(x, gamma, beta)`.
    LayerNorm {
        /// Variance epsilon.
        eps: f32,
    },
    /// Backward of layernorm w.r.t. `x`: inputs `(x, gamma, dy)`.
    LayerNormGrad {
        /// Variance epsilon.
        eps: f32,
    },
    /// Transpose of the last two axes.
    Transpose,
    /// General axis permutation (`torch.permute`): output dim `i` is input
    /// dim `perm[i]`.
    Permute(AxisOrder),
    /// Reshape to this node's output shape.
    Reshape,
    /// Broadcast the input up to this node's output shape.
    BroadcastTo,
    /// Sum-reduce the input down to this node's output shape (the adjoint of
    /// broadcasting; used by autograd for bias gradients).
    ReduceTo,
    /// Sum over the last axis.
    ReduceSum {
        /// Keep a trailing axis of size 1.
        keep_dim: bool,
    },
    /// Max over the last axis.
    ReduceMax {
        /// Keep a trailing axis of size 1.
        keep_dim: bool,
    },
    /// Mean over the last axis.
    ReduceMean {
        /// Keep a trailing axis of size 1.
        keep_dim: bool,
    },
    /// Embedding lookup: inputs `(table [V, D], ids [..., N])`.
    Embedding,
    /// Embedding backward (scatter-add): inputs `(ids, dy)`, output shaped
    /// like the table.
    EmbeddingGrad,
    /// Token-level cross entropy: inputs `(logits [..., V], targets [...])`,
    /// scalar output. Contains a softmax, so it is TPC-heavy.
    CrossEntropy,
    /// Backward of cross entropy: inputs `(logits, targets)`, output `dlogits`.
    CrossEntropyGrad,
    /// High-level fused contraction (`torch.einsum`-like). The paper's
    /// Insight #2 warns against it; see [`EinsumSpec`].
    Einsum(EinsumSpec),
    /// A compiler-fused chain of unary element-wise operators, applied left
    /// to right in one TPC kernel launch. Produced only by the fusion pass;
    /// never built directly by models.
    FusedElementwise(Vec<OpKind>),
    /// A compiler-fused scaled-dot-product attention over inputs
    /// `(Q, K, V[, mask])` — K *untransposed*; the attention-fusion pass
    /// absorbs the `Transpose` feeding the score matmul together with the
    /// scale/mask/softmax chain. Executed as one tiled FlashAttention-style
    /// kernel with running max/sum rescaling, so the S×S score matrix never
    /// materializes in HBM. Produced only by the fusion pass.
    FusedAttention {
        /// Score scaling factor (`1/√head_dim`).
        scale: f32,
        /// Whether a fourth additive-mask operand is present.
        masked: bool,
    },
    /// A compiler-fused `softmax(X) · V`: inputs `(X, V)`, the row softmax
    /// feeds the matmul tile-by-tile without a round trip through HBM.
    /// Produced only by the fusion pass.
    FusedSoftmaxMatMul,
    /// An inter-device collective over the RoCE fabric. Inserted by the
    /// compiler's partitioning pass; single input = this device's shard.
    Collective(CollectiveKind),
}

impl OpKind {
    /// Trace/display label.
    pub fn label(&self) -> String {
        match self {
            OpKind::Input => "input".into(),
            OpKind::Parameter => "param".into(),
            OpKind::Fill(v) => format!("fill({v})"),
            OpKind::MatMul => "matmul".into(),
            OpKind::Add => "add".into(),
            OpKind::Sub => "sub".into(),
            OpKind::Mul => "mul".into(),
            OpKind::Div => "div".into(),
            OpKind::Maximum => "maximum".into(),
            OpKind::ScalarMul(s) => format!("scalar_mul({s})"),
            OpKind::ScalarAdd(s) => format!("scalar_add({s})"),
            OpKind::Square => "square".into(),
            OpKind::Sqrt => "sqrt".into(),
            OpKind::Exp => "exp".into(),
            OpKind::Log => "log".into(),
            OpKind::Neg => "neg".into(),
            OpKind::Activation(a) => a.name().into(),
            OpKind::ActivationGrad(a) => format!("{}_grad", a.name()),
            OpKind::Softmax => "softmax".into(),
            OpKind::SoftmaxGrad => "softmax_grad".into(),
            OpKind::LayerNorm { .. } => "layernorm".into(),
            OpKind::LayerNormGrad { .. } => "layernorm_grad".into(),
            OpKind::Transpose => "transpose".into(),
            OpKind::Permute(p) => format!("permute({p:?})"),
            OpKind::Reshape => "reshape".into(),
            OpKind::BroadcastTo => "broadcast_to".into(),
            OpKind::ReduceTo => "reduce_to".into(),
            OpKind::ReduceSum { .. } => "reduce_sum".into(),
            OpKind::ReduceMax { .. } => "reduce_max".into(),
            OpKind::ReduceMean { .. } => "reduce_mean".into(),
            OpKind::Embedding => "embedding".into(),
            OpKind::EmbeddingGrad => "embedding_grad".into(),
            OpKind::CrossEntropy => "cross_entropy".into(),
            OpKind::CrossEntropyGrad => "cross_entropy_grad".into(),
            OpKind::Einsum(EinsumSpec::ScoresQKt) => "einsum(bhnd,bhmd->bhnm)".into(),
            OpKind::Einsum(EinsumSpec::OutputAv) => "einsum(bhnm,bhmd->bhnd)".into(),
            OpKind::FusedElementwise(ops) => {
                let parts: Vec<String> = ops.iter().map(|o| o.label()).collect();
                format!("fused({})", parts.join("+"))
            }
            OpKind::FusedAttention { masked, .. } => {
                if *masked {
                    "fused_attention(masked)".into()
                } else {
                    "fused_attention".into()
                }
            }
            OpKind::FusedSoftmaxMatMul => "fused_softmax_matmul".into(),
            OpKind::Collective(c) => c.name().into(),
        }
    }

    /// Whether the operator is a shape-preserving unary element-wise op that
    /// the fusion pass may merge into a single TPC kernel launch. GLU is
    /// excluded (it changes shape).
    pub fn is_fusible_unary(&self) -> bool {
        matches!(
            self,
            OpKind::ScalarMul(_)
                | OpKind::ScalarAdd(_)
                | OpKind::Square
                | OpKind::Sqrt
                | OpKind::Exp
                | OpKind::Log
                | OpKind::Neg
        ) || matches!(self, OpKind::Activation(a) if !matches!(a, Activation::Glu))
    }

    /// Number of operand edges the operator expects (`None` = source node).
    pub fn arity(&self) -> Option<usize> {
        Some(match self {
            OpKind::Input | OpKind::Parameter | OpKind::Fill(_) => return None,
            OpKind::MatMul
            | OpKind::Add
            | OpKind::Sub
            | OpKind::Mul
            | OpKind::Div
            | OpKind::Maximum
            | OpKind::Embedding
            | OpKind::EmbeddingGrad
            | OpKind::CrossEntropy
            | OpKind::CrossEntropyGrad
            | OpKind::SoftmaxGrad
            | OpKind::ActivationGrad(_)
            | OpKind::Einsum(_) => 2,
            OpKind::LayerNorm { .. } | OpKind::LayerNormGrad { .. } => 3,
            OpKind::FusedAttention { masked, .. } => {
                if *masked {
                    4
                } else {
                    3
                }
            }
            OpKind::FusedSoftmaxMatMul => 2,
            _ => 1,
        })
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable() {
        assert_eq!(OpKind::MatMul.label(), "matmul");
        assert_eq!(OpKind::ScalarMul(2.0).label(), "scalar_mul(2)");
        assert_eq!(OpKind::Activation(Activation::Glu).label(), "glu");
        assert_eq!(OpKind::Softmax.to_string(), "softmax");
    }

    #[test]
    fn permute_orders_print_as_their_slice() {
        let order = AxisOrder::permutation(&[0, 2, 1, 3]).unwrap();
        assert_eq!(*order, [0, 2, 1, 3]);
        assert_eq!(AxisOrder::permutation(&[0, 2, 2, 3]), None);
        assert_eq!(AxisOrder::permutation(&[0, 4]), None);
        assert_eq!(AxisOrder::permutation(&[0, 1, 2, 3, 4, 5]), None);
        assert_eq!(OpKind::Permute(order).label(), "permute([0, 2, 1, 3])");
        let vec_kind = format!("{:#?}", ("Permute", vec![0usize, 2, 1, 3]));
        let inline_kind = format!("{:#?}", ("Permute", order));
        assert_eq!(inline_kind, vec_kind);
    }

    #[test]
    fn arity_matches_semantics() {
        assert_eq!(OpKind::Input.arity(), None);
        assert_eq!(OpKind::MatMul.arity(), Some(2));
        assert_eq!(OpKind::Softmax.arity(), Some(1));
        assert_eq!(OpKind::LayerNorm { eps: 1e-5 }.arity(), Some(3));
    }

    #[test]
    fn special_func_classification() {
        assert!(!Activation::Relu.uses_special_func());
        assert!(!Activation::LeakyRelu(0.01).uses_special_func());
        assert!(Activation::Gelu.uses_special_func());
        assert!(Activation::Glu.uses_special_func());
        assert!(Activation::EluPlusOne.uses_special_func());
    }
}
