//! # habana-gaudi-study
//!
//! Umbrella crate re-exporting the whole workspace: a Rust reproduction of
//! *"Benchmarking and In-depth Performance Study of Large Language Models on
//! Habana Gaudi Processors"* (SC-W 2023).
//!
//! The paper characterizes Transformer and LLM workloads on the Habana Gaudi
//! accelerator. Since no Gaudi hardware or SDK bindings exist for Rust, this
//! workspace reproduces the study on a from-scratch **Gaudi-class simulator**:
//!
//! * [`tensor`] — CPU tensor numerics (the datapath reference),
//! * [`exec`] — deterministic parallel execution (an order-preserving
//!   fan-out over scoped threads shared by the runtime, serving engine,
//!   and sweeps),
//! * [`hw`] — the hardware model (MME, TPC cluster, DMA, HBM, RoCE),
//! * [`tpc`] — the TPC VLIW kernel programming model and cycle-counting VM,
//! * [`graph`] — compute-graph IR with shape inference and autograd,
//! * [`compiler`] — the SynapseAI-like graph compiler (mapping + scheduling),
//! * [`runtime`] — plan execution, producing numerics and hardware traces,
//! * [`profiler`] — trace analysis and rendering,
//! * [`models`] — attention variants, Transformer layers, BERT and GPT,
//! * [`workloads`] — synthetic BookCorpus generation and batching,
//! * [`serving`] — simulated multi-tenant inference serving with
//!   continuous batching and KV-cache HBM accounting.
//!
//! The usual entry point is [`GaudiSession`]: configure hardware and
//! compiler once, then run graphs or serving simulations without touching
//! the layers individually.
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every table and figure.

mod error;
mod session;

pub use error::GaudiError;
pub use session::{GaudiSession, GaudiSessionBuilder};

pub use gaudi_compiler as compiler;
pub use gaudi_exec as exec;
pub use gaudi_graph as graph;
pub use gaudi_hw as hw;
pub use gaudi_models as models;
pub use gaudi_profiler as profiler;
pub use gaudi_runtime as runtime;
pub use gaudi_serving as serving;
pub use gaudi_tensor as tensor;
pub use gaudi_tpc as tpc;
pub use gaudi_workloads as workloads;

/// A convenience prelude for examples and downstream users.
pub mod prelude {
    pub use crate::{GaudiError, GaudiSession, GaudiSessionBuilder};
    pub use gaudi_compiler::{
        plan_memory, CompilerOptions, GraphCompiler, MemoryPlan, MultiDevicePlan, Parallelism,
        PartitionSpec, SchedulerKind,
    };
    pub use gaudi_exec::ExecPool;
    pub use gaudi_graph::{CollectiveKind, Graph, NodeId, OpKind};
    pub use gaudi_hw::{DeviceId, FaultCampaign, FaultPlan, GaudiConfig, Topology};
    pub use gaudi_models::{ActivationKind, AttentionKind, TransformerLayerConfig};
    pub use gaudi_profiler::{Trace, TraceAnalysis};
    pub use gaudi_runtime::{Feeds, MultiRunReport, NumericsMode, RunReport, Runtime};
    pub use gaudi_serving::{
        ActivationBudget, CheckpointPolicy, DropKind, DroppedRequest, ExecPolicy,
        KvAdmissionConfig, PlanCache, PlanSharing, RecipeConfig, RobustnessConfig, ServingConfig,
        ServingConfigBuilder, ServingReport, TrafficConfig,
    };
    pub use gaudi_tensor::{DType, SeededRng, Shape, Tensor};
}
