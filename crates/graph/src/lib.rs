//! # gaudi-graph
//!
//! The compute-graph intermediate representation consumed by the
//! SynapseAI-like compiler (`gaudi-compiler`) and executed by the runtime.
//!
//! Design notes tied to the paper:
//!
//! * The operator set is deliberately restricted to the *basic* torch-like
//!   operators of Table 1 (plus the composite ops SynapseAI ships fused
//!   kernels for: softmax, layernorm, activations). The paper's Insight #2
//!   recommends exactly this: "use very basic operations provided by Torch
//!   and avoid high-level abstracts like `torch.einsum()`". An
//!   [`op::EinsumSpec`] operator exists *only* so the ablation benchmark can
//!   quantify that advice.
//! * Graphs carry full shape information (inferred at construction) because
//!   both engine mapping and the hardware cost models are shape-driven.
//! * [`autograd`] appends a backward graph, since the paper profiles
//!   *training* — the backward pass roughly doubles MME work and adds
//!   further TPC reductions.

pub mod autograd;
pub mod graph;
pub mod op;

pub use graph::{Graph, GraphError, Node, NodeId, NodeName, Operands};
pub use op::{Activation, AxisOrder, CollectiveKind, EinsumSpec, OpKind};
