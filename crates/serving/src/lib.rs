//! # gaudi-serving — simulated multi-tenant LLM inference serving
//!
//! An online-serving layer over the Gaudi performance model: a seeded
//! request stream (Poisson arrivals, Zipf prompt/output lengths) is pushed
//! through a continuous-batching scheduler whose every phase — prefill and
//! decode alike — is priced by compiling a real compute graph through
//! `gaudi-compiler` onto the calibrated `gaudi-hw` engine models.
//!
//! The paper benchmarks training; this crate asks what its §3.3/§3.4
//! calibration implies for *inference serving*:
//!
//! - **prefill** is a large-GEMM workload that runs near the Table 2 MME
//!   throughput plateau, while **decode** is a batched-GEMV workload stuck
//!   at the small-matmul launch-overhead floor, with softmax/normalization
//!   TPC work growing with context — so the MME:TPC balance shifts per
//!   phase exactly as Table 2's small-shape columns predict;
//! - the **32 GB HBM** bound (§3.4) becomes a KV-cache admission limit
//!   with two selectable strategies ([`KvAdmissionConfig`]): the legacy
//!   contiguous accountant reserves each request's worst-case footprint up
//!   front, while paged admission ([`paged`]) allocates fixed-size blocks
//!   as contexts actually grow — more concurrent sequences from the same
//!   HBM, with deterministic preemption when the pool runs dry;
//! - SynapseAI's **recipe cache** becomes each replica's recipe table
//!   ([`CostModel`]): one entry per phase shape — the phase, its batch
//!   padded to a recipe bucket, its length rounded up to a context bucket
//!   — holding the compiled phase cost, which is why phase shapes are
//!   bucketed at all. A quantitative warmup model ([`RecipeConfig`])
//!   charges a compile-latency penalty the first time a replica runs each
//!   shape, so cold or restarted replicas pay recipe compilation.
//!
//! ## Quick start
//!
//! ```
//! use gaudi_serving::{simulate, ServingConfig, TrafficConfig};
//!
//! let mut cfg = ServingConfig::paper_gpt();
//! cfg.traffic = TrafficConfig { num_requests: 10, ..TrafficConfig::default() };
//! let report = simulate(&cfg).unwrap();
//! assert_eq!(report.completed.len(), 10);
//! assert!(report.kv_peak_bytes <= report.kv_capacity_bytes);
//! println!("{}", report.render());
//! ```
//!
//! Identical configurations produce bit-identical reports: the simulation
//! is a pure function of its inputs (integer-microsecond arrival times, no
//! wall clock anywhere) — and that stays true under fault injection: a
//! [`FaultPlan`] in the config kills cards (permanently or with a restart
//! window) and degrades links deterministically, while
//! the scheduler re-dispatches the dead replica's work with exponential
//! backoff and readmits recovered replicas into the pool ([`fault`]).
//!
//! A [`RobustnessConfig`] adds overload protection on top: bounded
//! admission queues shed excess arrivals, TTFT/end-to-end deadlines expire
//! requests whose SLOs can no longer be met, and retry budgets bound how
//! long a victim of repeated failures is kept alive. Requests then
//! terminate as completed, rejected, timed-out, or failed ([`DropKind`]),
//! and the report separates goodput (SLO-met tokens) from raw throughput.

pub mod calendar;
pub mod cluster;
pub mod cost;
pub mod engine;
pub mod error;
pub mod fault;
mod idhash;
pub mod kv;
pub mod paged;
pub mod report;
pub mod request;
pub mod robustness;

pub use calendar::EventCalendar;
pub use cluster::{
    simulate_cluster, simulate_cluster_with, BoxSummary, ClusterConfig, ClusterReport, RouterPolicy,
};
pub use cost::{CostContext, CostModel, Phase, PhaseCost, PlanCache, PlanCacheStats, RecipeConfig};
pub use engine::{
    activation_estimate, simulate, simulate_trace, simulate_trace_with, simulate_with, ExecPolicy,
    PlanSharing, ServingConfig, ServingConfigBuilder,
};
pub use error::ServingError;
pub use fault::Job;
pub use gaudi_exec::ExecPool;
pub use gaudi_hw::fault::{FaultCampaign, FaultError, FaultPlan};
pub use kv::{ActivationBudget, ContiguousKv, KvAdmission, KvAdmissionConfig, KvLease, KvStrategy};
pub use paged::PagedKv;
pub use report::{DropKind, DroppedRequest, Percentiles, RequestOutcome, ServingReport};
pub use request::{generate_requests, Request, TrafficConfig};
pub use robustness::{CheckpointPolicy, RobustnessConfig};
