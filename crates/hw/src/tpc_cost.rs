//! TPC cluster cost model.
//!
//! The TPC is a VLIW SIMD processor: 2048-bit vectors (64 f32 lanes), eight
//! cores, and global-memory tensor access points that sustain one 2048-bit
//! vector per four cycles per core (§2.2). From those datasheet facts this
//! model derives two aggregate rates:
//!
//! * a **compute rate** of `cores × lanes × clock` single-cycle vector
//!   element-operations per nanosecond, and
//! * a **global-memory rate** of `cores × 256 B / 4 cycles × clock` bytes per
//!   nanosecond.
//!
//! Each kernel launch costs `max(compute, memory) + launch_overhead`.
//! Two workload-dependent penalties are calibrated against the paper's §3.3
//! observations: a multi-cycle cost for special functions (exp/log/...) and a
//! serialization penalty for reductions, which together make softmax the TPC
//! bottleneck at long sequence lengths (Figure 4).

use crate::config::TpcConfig;

/// Classes of TPC work with distinct per-element costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TpcOpClass {
    /// Simple element-wise arithmetic (add, mul, scale, compare): the
    /// embedded factor is cycles per element (usually 1–2).
    Elementwise(f64),
    /// Special-function evaluation (exp, log, sqrt, tanh, sigmoid, erf).
    SpecialFunc,
    /// A reduction pass over elements (sum/max/mean); poorly suited to SIMD.
    Reduction,
    /// Numerically-stable softmax over rows: max-reduce, exp, sum-reduce,
    /// normalize.
    Softmax,
    /// Layer normalization over rows: two reduction passes plus scale/shift.
    LayerNorm,
    /// Dense matmul forced onto the TPC (the Table 2 comparison kernel).
    MatmulOnTpc,
}

/// Analytic TPC-cluster timing model.
#[derive(Debug, Clone)]
pub struct TpcCostModel {
    cfg: TpcConfig,
}

impl TpcCostModel {
    /// Build a model from a configuration.
    pub fn new(cfg: TpcConfig) -> Self {
        TpcCostModel { cfg }
    }

    /// Single-cycle vector element-operations per nanosecond, cluster-wide.
    pub fn compute_rate(&self) -> f64 {
        let lanes = self.cfg.simd_width_bits / 32;
        (self.cfg.num_cores * lanes) as f64 * self.cfg.clock_ghz
    }

    /// Global-memory bytes per nanosecond, cluster-wide.
    pub fn memory_rate(&self) -> f64 {
        let bytes_per_access = (self.cfg.simd_width_bits / 8) as f64;
        self.cfg.num_cores as f64 * bytes_per_access / self.cfg.global_access_cycles
            * self.cfg.clock_ghz
    }

    /// Core launch + roofline time for a kernel touching `elems` elements at
    /// `cycles_per_elem` compute cost and moving `bytes` through global
    /// memory.
    pub fn kernel_time_ns(&self, elems: f64, cycles_per_elem: f64, bytes: f64) -> f64 {
        let compute = elems * cycles_per_elem / self.compute_rate();
        let memory = bytes / self.memory_rate();
        compute.max(memory) + self.cfg.launch_overhead_ns
    }

    /// Cycles per element for an op class, given the row length for
    /// row-structured ops.
    pub fn cycles_per_elem(&self, class: TpcOpClass) -> f64 {
        match class {
            TpcOpClass::Elementwise(c) => c,
            TpcOpClass::SpecialFunc => self.cfg.special_func_cycles,
            TpcOpClass::Reduction => self.cfg.reduction_penalty,
            // max-pass + sum-pass (each a reduction) + exp (special) + scale.
            TpcOpClass::Softmax => {
                2.0 * self.cfg.reduction_penalty + self.cfg.special_func_cycles + 1.0
            }
            // mean + variance reductions + normalize/scale/shift (~4 cycles).
            TpcOpClass::LayerNorm => 2.0 * self.cfg.reduction_penalty + 4.0,
            TpcOpClass::MatmulOnTpc => {
                // handled by matmul_time_ns; nominal 1 to keep the API total.
                1.0
            }
        }
    }

    /// Execution time of a kernel of the given class over `elems` elements
    /// with `bytes` of global traffic.
    pub fn class_time_ns(&self, class: TpcOpClass, elems: f64, bytes: f64) -> f64 {
        self.kernel_time_ns(elems, self.cycles_per_elem(class), bytes)
    }

    /// Execution time of a dense matmul forced onto the TPC cluster (the
    /// custom bmm kernel of Table 2).
    pub fn matmul_time_ns(&self, flops: f64) -> f64 {
        let peak_flops_per_ns = self.cfg.matmul_peak_tflops * 1000.0;
        flops / peak_flops_per_ns + self.cfg.launch_overhead_ns
    }

    /// The configured launch overhead in nanoseconds.
    pub fn launch_overhead_ns(&self) -> f64 {
        self.cfg.launch_overhead_ns
    }

    /// The underlying configuration.
    pub fn config(&self) -> &TpcConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> TpcCostModel {
        TpcCostModel::new(TpcConfig::default())
    }

    #[test]
    fn datasheet_rates() {
        let m = model();
        assert!((m.compute_rate() - 691.2).abs() < 1e-9);
        assert!((m.memory_rate() - 691.2).abs() < 1e-9);
    }

    #[test]
    fn elementwise_is_memory_bound_for_f32() {
        // 1 cycle/elem compute but 8 bytes/elem traffic => memory bound.
        let m = model();
        let elems = 1.0e8;
        let t = m.kernel_time_ns(elems, 1.0, elems * 8.0);
        let compute_only = elems / m.compute_rate() + m.launch_overhead_ns();
        assert!(t > compute_only);
    }

    #[test]
    fn softmax_costs_more_than_elementwise() {
        let m = model();
        let e = m.class_time_ns(TpcOpClass::Elementwise(1.0), 1.0e9, 0.0);
        let s = m.class_time_ns(TpcOpClass::Softmax, 1.0e9, 0.0);
        assert!(
            s > 10.0 * (e - m.launch_overhead_ns()),
            "softmax must dominate"
        );
    }

    #[test]
    fn table2_tpc_throughput_plateau() {
        let m = model();
        // Effective TFLOPS of a 64-batch square GEMM forced onto the TPC.
        let tflops = |s: usize| {
            let flops = 2.0 * 64.0 * (s as f64).powi(3);
            crate::tflops(flops, m.matmul_time_ns(flops))
        };
        let (f128, f512, f2048) = (tflops(128), tflops(512), tflops(2048));
        // Paper: 1.86 -> 2.13 -> 2.19 TFLOPS.
        assert!((f128 - 1.86).abs() < 0.3, "{f128}");
        assert!((f512 - 2.13).abs() < 0.2, "{f512}");
        assert!((f2048 - 2.19).abs() < 0.1, "{f2048}");
        assert!(f128 < f512 && f512 <= f2048 + 1e-9);
    }

    #[test]
    fn mme_vs_tpc_gemm_gap_is_about_7x() {
        // §3.2: "computational performance of TPC is up to 7x lower than MME".
        let tpc = model();
        let mme = crate::mme::MmeModel::new(crate::config::MmeConfig::default());
        let flops = 2.0 * 64.0 * 1024f64.powi(3);
        let ratio = tpc.matmul_time_ns(flops) / mme.time_for_flops(flops);
        assert!(ratio > 5.5 && ratio < 8.0, "ratio={ratio}");
    }

    #[test]
    fn launch_overhead_floor() {
        let m = model();
        assert!(m.kernel_time_ns(0.0, 1.0, 0.0) >= m.launch_overhead_ns());
    }

    #[test]
    fn layernorm_cheaper_than_softmax() {
        let m = model();
        assert!(m.cycles_per_elem(TpcOpClass::LayerNorm) < m.cycles_per_elem(TpcOpClass::Softmax));
    }
}
