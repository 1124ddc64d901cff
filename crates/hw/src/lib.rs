//! # gaudi-hw
//!
//! An analytic + discrete-event model of the Habana Gaudi (HLS-1) training
//! processor, built to reproduce the performance study of Zhang et al.
//! (SC-W 2023) without access to the physical hardware.
//!
//! The model follows the architecture described in §2.1–2.2 of the paper:
//!
//! * a **Matrix Multiplication Engine (MME)** — the only unit the SynapseAI
//!   compiler maps matrix products to (Table 1),
//! * a cluster of **eight Tensor Processing Cores (TPC)** — VLIW SIMD
//!   processors with 2048-bit vectors that execute every non-GEMM operator,
//! * **DMA** engines moving data between the engines through shared memory,
//! * **HBM** (32 GB on-chip) and **RoCE v2** scale-out ports.
//!
//! Free constants are calibrated against the paper's own measurements
//! (Table 2 and Figures 4–7); see [`config::GaudiConfig`] and `DESIGN.md` §3.
//!
//! Times are expressed in nanoseconds (`f64`) throughout.

pub mod config;
pub mod des;
pub mod engine;
pub mod fault;
pub mod memory;
pub mod mme;
pub mod topology;
pub mod tpc_cost;

pub use config::GaudiConfig;
pub use engine::EngineId;
pub use fault::{CardFailure, FaultCampaign, FaultError, FaultPlan, LinkDegradation};
pub use mme::MmeModel;
pub use topology::{DeviceId, Link, SwitchTier, Topology};
pub use tpc_cost::{TpcCostModel, TpcOpClass};

/// TFLOPS achieved for `flops` floating-point operations in `ns` nanoseconds.
pub fn tflops(flops: f64, ns: f64) -> f64 {
    if ns <= 0.0 {
        0.0
    } else {
        flops / ns / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions() {
        // 1e12 flops in 1e6 ns = 1e6 flops/ns = 1e6 GFLOP/s = 1000 TFLOPS.
        assert_eq!(tflops(1.0e12, 1.0e6), 1000.0);
        assert_eq!(tflops(1.0e12, 0.0), 0.0);
    }
}
