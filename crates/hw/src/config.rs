//! Hardware configuration and the HLS-1 calibration used by the paper.

/// Matrix Multiplication Engine parameters.
///
/// Rather than modelling the (undisclosed) systolic-array micro-architecture,
/// the MME is characterized by its *sustained* GEMM throughput plus two
/// launch-granularity constants. All three are calibrated directly against
/// the paper's Table 2 (see `DESIGN.md` §3).
#[derive(Debug, Clone)]
pub struct MmeConfig {
    /// Sustained large-GEMM throughput in TFLOPS (Table 2 F_MME plateau).
    pub peak_tflops: f64,
    /// Fixed per-launch software/descriptor overhead in nanoseconds.
    pub launch_overhead_ns: f64,
    /// Minimum wall time of any MME kernel, modelling pipeline fill/drain
    /// of the systolic array on small problems, in nanoseconds.
    pub min_kernel_ns: f64,
}

impl Default for MmeConfig {
    fn default() -> Self {
        // Calibrated so a batch-64 square bmm reproduces Table 2:
        //   size  128 -> ~2.35 TFLOPS (min-kernel bound)
        //   size  256 -> ~11.7 TFLOPS (overhead amortizing)
        //   size >=512 -> ~14.4-14.6 TFLOPS (plateau)
        MmeConfig {
            peak_tflops: 14.8,
            launch_overhead_ns: 36_000.0,
            min_kernel_ns: 114_000.0,
        }
    }
}

/// Tensor Processing Core cluster parameters (§2.2 of the paper).
#[derive(Debug, Clone)]
pub struct TpcConfig {
    /// Number of TPC cores on the die (eight on Gaudi 1).
    pub num_cores: usize,
    /// SIMD vector width in bits (2048 on Gaudi).
    pub simd_width_bits: usize,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Scalar local memory per core, bytes (1 KB).
    pub scalar_local_mem_bytes: usize,
    /// Vector local memory per core, bytes (80 KB).
    pub vector_local_mem_bytes: usize,
    /// Cycles for one 2048-bit global-memory vector access ("on average every
    /// four cycles can accommodate the loading or writing of a 2048-bit
    /// vector to the global memory").
    pub global_access_cycles: f64,
    /// Extra cycles per element for special functions (exp/log/sqrt/tanh),
    /// which expand to multi-instruction sequences on the VPU.
    pub special_func_cycles: f64,
    /// Multiplier charged to reduction passes: reductions serialize lanes and
    /// "are not well-suited for SIMD architectures like TPC" (§3.3).
    pub reduction_penalty: f64,
    /// Fixed per-kernel launch overhead in nanoseconds.
    pub launch_overhead_ns: f64,
    /// Sustained matmul throughput of the whole cluster in TFLOPS when
    /// running the custom bmm kernel of Table 2.
    pub matmul_peak_tflops: f64,
}

impl Default for TpcConfig {
    fn default() -> Self {
        TpcConfig {
            num_cores: 8,
            simd_width_bits: 2048,
            clock_ghz: 1.35,
            scalar_local_mem_bytes: 1 << 10,
            vector_local_mem_bytes: 80 << 10,
            global_access_cycles: 4.0,
            special_func_cycles: 20.0,
            reduction_penalty: 4.0,
            launch_overhead_ns: 24_000.0,
            // Table 2 F_TPC plateau (~2.2 TFLOPS).
            matmul_peak_tflops: 2.23,
        }
    }
}

/// Memory-system parameters.
#[derive(Debug, Clone)]
pub struct MemoryConfig {
    /// HBM capacity in bytes (32 GB per Gaudi, §3.1).
    pub hbm_capacity_bytes: u64,
    /// HBM bandwidth in GB/s.
    pub hbm_bandwidth_gbps: f64,
    /// Shared SRAM size in bytes (24 MB on Gaudi 1).
    pub sram_bytes: u64,
    /// DMA sustained bandwidth between engines through shared memory, GB/s.
    pub dma_bandwidth_gbps: f64,
    /// DMA programming latency per transfer in nanoseconds.
    pub dma_latency_ns: f64,
}

impl Default for MemoryConfig {
    fn default() -> Self {
        MemoryConfig {
            hbm_capacity_bytes: 32 << 30,
            hbm_bandwidth_gbps: 1000.0,
            sram_bytes: 24 << 20,
            dma_bandwidth_gbps: 1000.0,
            dma_latency_ns: 2_000.0,
        }
    }
}

/// Scale-out networking parameters (on-chip RoCE v2, §2.1).
#[derive(Debug, Clone)]
pub struct RoceConfig {
    /// Number of 100 GbE ports dedicated to scale-out (10 on Gaudi 1).
    pub num_ports: usize,
    /// Per-port bandwidth in Gbit/s.
    pub port_gbit_per_s: f64,
    /// Per-message latency in nanoseconds.
    pub message_latency_ns: f64,
}

impl Default for RoceConfig {
    fn default() -> Self {
        RoceConfig {
            num_ports: 10,
            port_gbit_per_s: 100.0,
            message_latency_ns: 3_000.0,
        }
    }
}

/// Full single-processor configuration.
///
/// `GaudiConfig::hls1()` is the configuration used throughout the
/// reproduction: one Gaudi of the HLS-1 system the paper benchmarks.
#[derive(Debug, Clone, Default)]
pub struct GaudiConfig {
    pub mme: MmeConfig,
    pub tpc: TpcConfig,
    pub memory: MemoryConfig,
    pub roce: RoceConfig,
    /// One-time Graph-Compiler recompilation stall charged when an operator
    /// without a pre-compiled SynapseAI recipe (e.g. GLU, §3.3) is first
    /// executed, in nanoseconds.
    pub recompile_stall_ns: f64,
}

impl GaudiConfig {
    /// The calibrated HLS-1 single-Gaudi configuration.
    pub fn hls1() -> Self {
        GaudiConfig {
            recompile_stall_ns: 5_500_000.0,
            ..Default::default()
        }
    }

    /// SIMD lanes per TPC core for 4-byte elements.
    pub fn tpc_f32_lanes(&self) -> usize {
        self.tpc.simd_width_bits / 32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hls1_matches_datasheet_facts() {
        let c = GaudiConfig::hls1();
        assert_eq!(c.tpc.num_cores, 8);
        assert_eq!(c.tpc.simd_width_bits, 2048);
        assert_eq!(c.memory.hbm_capacity_bytes, 32 << 30);
        assert_eq!(c.tpc.scalar_local_mem_bytes, 1024);
        assert_eq!(c.tpc.vector_local_mem_bytes, 80 * 1024);
        assert_eq!(c.tpc_f32_lanes(), 64);
    }

    #[test]
    fn tpc_cluster_rate() {
        let c = GaudiConfig::hls1();
        // 8 cores * 64 lanes * 1.35 GHz = 691.2 elements/ns
        let elems_per_ns = (c.tpc.num_cores * c.tpc_f32_lanes()) as f64 * c.tpc.clock_ghz;
        assert!((elems_per_ns - 691.2).abs() < 1e-6);
    }

    #[test]
    fn config_clones() {
        let c = GaudiConfig::hls1();
        let cloned = c.clone();
        assert!((cloned.mme.peak_tflops - c.mme.peak_tflops).abs() < f64::EPSILON);
    }
}
