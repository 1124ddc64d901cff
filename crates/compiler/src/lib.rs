//! # gaudi-compiler
//!
//! The SynapseAI graph-compiler stand-in: given a [`gaudi_graph::Graph`], it
//!
//! 1. **maps** each operator to a hardware engine (the paper's Table 1: only
//!    matrix products reach the MME; *everything* else — even
//!    `scalar * tensor` — lands on the TPC cluster),
//! 2. **lowers** high-level ops (optionally rewriting `einsum` contractions
//!    into transpose + matmul so they can reach the MME — the paper's
//!    Insight #2 ablation),
//! 3. **costs** every node with the shape-driven hardware models of
//!    `gaudi-hw`, and
//! 4. **schedules** the nodes onto engine timelines, producing an
//!    [`schedule::ExecutionPlan`] the runtime replays.
//!
//! Two scheduling policies are provided:
//!
//! * [`SchedulerKind::InOrder`] — issue strictly in program order and
//!   serialize across engine switches. This reproduces the SynapseAI
//!   behaviour the paper observes: "Graph Compiler does not detect this
//!   independence, so it does not schedule MME and TPC tasks well so that
//!   they can overlap" (Figure 6).
//! * [`SchedulerKind::Overlap`] — dependency-only list scheduling, the
//!   idealized compiler the paper's insights call for.

pub mod attention_fusion;
pub mod cost;
pub mod dce;
pub mod fusion;
pub mod lowering;
pub mod mapping;
pub mod memplan;
pub mod multi;
pub mod partition;
pub mod schedule;

pub use attention_fusion::{fuse_attention, AttentionFusionStats};
pub use cost::{op_cost, OpCost};
pub use dce::eliminate_dead_code;
pub use fusion::{fuse_elementwise, FusionStats};
pub use lowering::lower_einsum;
pub use mapping::{engine_for, table1, Table1Row};
pub use memplan::{plan_memory, plan_memory_with, MemPlanOptions, MemoryPlan, TensorInterval};
pub use multi::MultiDevicePlan;
pub use partition::{partition, Parallelism, PartitionSpec, PartitionedGraph, ShardInfo};
pub use schedule::{ExecutionPlan, GraphCompiler, PlannedOp, SchedulerKind, StepLabel};

/// Compiler configuration knobs (the ablation axes of DESIGN.md §6).
///
/// The struct is `#[non_exhaustive]`: construct it with
/// [`CompilerOptions::builder`] (or the `default()`/`idealized()` presets)
/// so future knobs — e.g. serving's decode-graph caching — are not
/// breaking changes. Fields stay `pub` for reading.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct CompilerOptions {
    /// Scheduling policy.
    pub scheduler: SchedulerKind,
    /// Rewrite `einsum` contractions into transpose + MME matmul. When off,
    /// the fused op falls back to a TPC matmul kernel — the "bad mapping"
    /// the paper warns about.
    pub lower_einsum: bool,
    /// Charge the one-time Graph-Compiler recompilation stall the first time
    /// an op without a pre-compiled recipe (GLU) executes (§3.3, Figure 7).
    pub glu_recompile_stall: bool,
    /// Model engine-to-engine tensor movement on the DMA lane.
    pub model_dma: bool,
    /// Fuse chains of unary element-wise ops into single TPC launches,
    /// eliminating intermediate global-memory round trips (Insight #1's
    /// "good mapping and schedule" — see `fusion`).
    pub fuse_elementwise: bool,
    /// Prune nodes unreachable from marked outputs before scheduling (e.g.
    /// the unused input-gradient chains autograd produces).
    pub dce: bool,
    /// Pattern-match the `MatMul(Q,Kᵀ) → Scale → [Mask] → Softmax →
    /// MatMul(·,V)` attention subgraph and swap in a single tiled
    /// FlashAttention-style fused kernel (GFormer-style, see
    /// `attention_fusion`). On by default — this is the custom-kernel fix
    /// the paper's Fig. 4–6 analysis calls for; the paper experiments turn
    /// it off (`gaudi_bench::experiments::layer_figs::paper_options()`) to
    /// reproduce the observed SynapseAI idle-gap behaviour.
    pub fuse_attention: bool,
}

impl Default for CompilerOptions {
    fn default() -> Self {
        // SynapseAI-like, except that fused attention is on: the paper's
        // observed traces predate it, so `paper_options()` in gaudi-bench
        // turns it off.
        CompilerOptions {
            scheduler: SchedulerKind::InOrder,
            lower_einsum: false,
            glu_recompile_stall: true,
            model_dma: true,
            fuse_elementwise: false,
            dce: true,
            fuse_attention: true,
        }
    }
}

impl CompilerOptions {
    /// The idealized configuration the paper's insights advocate.
    pub fn idealized() -> Self {
        CompilerOptions {
            scheduler: SchedulerKind::Overlap,
            lower_einsum: true,
            glu_recompile_stall: false,
            model_dma: true,
            fuse_elementwise: true,
            dce: true,
            fuse_attention: true,
        }
    }

    /// Start a builder from the SynapseAI-like defaults.
    pub fn builder() -> CompilerOptionsBuilder {
        CompilerOptionsBuilder {
            opts: CompilerOptions::default(),
        }
    }

    /// Turn this configuration back into a builder to tweak single knobs.
    pub fn to_builder(&self) -> CompilerOptionsBuilder {
        CompilerOptionsBuilder { opts: self.clone() }
    }
}

/// Builder for [`CompilerOptions`] — the only way to construct non-preset
/// options outside this crate now that the struct is `#[non_exhaustive]`.
///
/// ```
/// use gaudi_compiler::{CompilerOptions, SchedulerKind};
/// let opts = CompilerOptions::builder()
///     .scheduler(SchedulerKind::Overlap)
///     .fuse_elementwise(true)
///     .build();
/// assert_eq!(opts.scheduler, SchedulerKind::Overlap);
/// ```
#[derive(Debug, Clone)]
pub struct CompilerOptionsBuilder {
    opts: CompilerOptions,
}

impl CompilerOptionsBuilder {
    /// Select the scheduling policy.
    pub fn scheduler(mut self, kind: SchedulerKind) -> Self {
        self.opts.scheduler = kind;
        self
    }

    /// Toggle einsum-to-matmul lowering.
    pub fn lower_einsum(mut self, on: bool) -> Self {
        self.opts.lower_einsum = on;
        self
    }

    /// Toggle the GLU recompilation stall.
    pub fn glu_recompile_stall(mut self, on: bool) -> Self {
        self.opts.glu_recompile_stall = on;
        self
    }

    /// Toggle DMA transfer modelling.
    pub fn model_dma(mut self, on: bool) -> Self {
        self.opts.model_dma = on;
        self
    }

    /// Toggle element-wise fusion.
    pub fn fuse_elementwise(mut self, on: bool) -> Self {
        self.opts.fuse_elementwise = on;
        self
    }

    /// Toggle dead-code elimination.
    pub fn dce(mut self, on: bool) -> Self {
        self.opts.dce = on;
        self
    }

    /// Toggle the fused-attention pattern-match pass.
    pub fn fuse_attention(mut self, on: bool) -> Self {
        self.opts.fuse_attention = on;
        self
    }

    /// Finish, yielding the configured options.
    pub fn build(self) -> CompilerOptions {
        self.opts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_are_synapseai_like() {
        let o = CompilerOptions::default();
        assert_eq!(o.scheduler, SchedulerKind::InOrder);
        assert!(!o.lower_einsum);
        assert!(o.glu_recompile_stall);
    }

    #[test]
    fn idealized_options_flip_the_knobs() {
        let o = CompilerOptions::idealized();
        assert_eq!(o.scheduler, SchedulerKind::Overlap);
        assert!(o.lower_einsum);
        assert!(!o.glu_recompile_stall);
    }
}
