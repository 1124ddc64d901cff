//! Figures 4–7: single Transformer-layer traces at the §3.3 configuration
//! (sequence 2048, batch 128, 6 heads, 64 hidden per head).

use gaudi_compiler::CompilerOptions;
use gaudi_hw::{EngineId, GaudiConfig};
use gaudi_models::attention::AttentionKind;
use gaudi_models::config::TransformerLayerConfig;
use gaudi_models::transformer::build_transformer_layer;
use gaudi_profiler::{Trace, TraceAnalysis};
use gaudi_runtime::{Feeds, NumericsMode, Runtime};
use gaudi_tensor::{Result as TensorResult, TensorError};

/// Number of FAVOR random features used for the Performer runs (m ≈ D ln D).
pub const FAVOR_FEATURES: usize = 256;

/// Key metrics read off a layer trace — the observations the paper makes
/// under each figure.
#[derive(Debug, Clone)]
pub struct LayerFigure {
    /// Human-readable experiment id (e.g. `fig4-softmax`).
    pub name: String,
    /// The configuration used.
    pub attention: AttentionKind,
    /// Total simulated time, ms.
    pub total_ms: f64,
    /// MME busy fraction of the span.
    pub mme_util: f64,
    /// TPC busy fraction of the span.
    pub tpc_util: f64,
    /// Longest idle gap on the MME lane, ms.
    pub longest_mme_gap_ms: f64,
    /// Softmax share of TPC busy time (Figure 4's ">80%").
    pub softmax_share_of_tpc: f64,
    /// MME/TPC overlap coefficient (1 = perfect overlap).
    pub overlap: f64,
    /// The full trace for rendering/export.
    pub trace: Trace,
}

/// Run one single-layer experiment at the paper configuration.
pub fn layer_experiment(
    name: &str,
    cfg: &TransformerLayerConfig,
    opts: CompilerOptions,
) -> TensorResult<LayerFigure> {
    let (graph, _built) = build_transformer_layer(cfg).map_err(|_| TensorError::EmptyTensor)?;
    let rt = Runtime::new(GaudiConfig::hls1(), opts);
    let report = rt
        .run(&graph, &Feeds::auto(0), NumericsMode::ShapeOnly)
        .map_err(|_| TensorError::EmptyTensor)?;
    let analysis = TraceAnalysis::of(&report.trace);
    let mme = analysis.engine(EngineId::Mme);
    let tpc = analysis.engine(EngineId::TpcCluster);
    Ok(LayerFigure {
        name: name.to_string(),
        attention: cfg.attention,
        total_ms: report.makespan_ms,
        mme_util: mme.map(|e| e.utilization).unwrap_or(0.0),
        tpc_util: tpc.map(|e| e.utilization).unwrap_or(0.0),
        longest_mme_gap_ms: mme
            .and_then(|e| e.gaps.first())
            .map(|gp| gp.dur_ns / 1e6)
            .unwrap_or(0.0),
        softmax_share_of_tpc: analysis.op_share_of_engine(
            &report.trace,
            EngineId::TpcCluster,
            "softmax",
        ),
        overlap: analysis.compute_overlap(&report.trace),
        trace: report.trace,
    })
}

/// Compiler options for every paper experiment: the paper traces were
/// taken on SynapseAI *without* fused attention kernels, so the tables,
/// figures and ablations pin the unfused pipeline explicitly, and an
/// ablation arm changes one knob from here. The fused-vs-unfused ablation
/// lives in the `kernel` experiment of the `sweeps` binary.
pub fn paper_options() -> CompilerOptions {
    CompilerOptions {
        fuse_attention: false,
        ..CompilerOptions::default()
    }
}

/// Figure 4: softmax attention.
pub fn fig4_softmax() -> TensorResult<LayerFigure> {
    let cfg = TransformerLayerConfig::paper_section_3_3();
    layer_experiment("fig4-softmax", &cfg, paper_options())
}

/// Figure 5: Linear-Transformer attention.
pub fn fig5_linear() -> TensorResult<LayerFigure> {
    let cfg = TransformerLayerConfig::paper_section_3_3().with_attention(AttentionKind::Linear);
    layer_experiment("fig5-linear", &cfg, paper_options())
}

/// Figure 6: Performer (FAVOR) attention.
pub fn fig6_performer() -> TensorResult<LayerFigure> {
    let cfg = TransformerLayerConfig::paper_section_3_3().with_attention(AttentionKind::Favor {
        features: FAVOR_FEATURES,
    });
    layer_experiment("fig6-performer", &cfg, paper_options())
}

/// Figure 7: the activation sweep over a linear-attention layer.
///
/// Returns `(activation name, figure)` pairs for ReLU, LeakyReLU, GELU, GLU.
pub fn activation_sweep() -> TensorResult<Vec<(String, LayerFigure)>> {
    use gaudi_graph::Activation::*;
    let mut out = Vec::new();
    for act in [Relu, LeakyRelu(0.01), Gelu, Glu] {
        let cfg = TransformerLayerConfig::paper_section_3_3()
            .with_attention(AttentionKind::Linear)
            .with_activation(act);
        let fig = layer_experiment(&format!("fig7-{}", act.name()), &cfg, paper_options())?;
        out.push((act.name().to_string(), fig));
    }
    Ok(out)
}

/// Paper reference times for the §3.3 figures, ms.
pub mod paper {
    /// Figure 5: linear Transformer total run time.
    pub const LINEAR_MS: f64 = 30.0;
    /// Figure 6: Performer total run time.
    pub const PERFORMER_MS: f64 = 80.0;
    /// Figure 5 text: linear vs softmax speedup.
    pub const LINEAR_SPEEDUP: f64 = 6.0;
    /// Figure 6 text: Performer vs softmax speedup.
    pub const PERFORMER_SPEEDUP: f64 = 2.0;
    /// Figure 7: (ReLU, LeakyReLU, GELU, GLU) totals.
    pub const ACTIVATIONS_MS: [f64; 4] = [30.1, 30.2, 29.7, 32.6];
    /// Figure 4 text: softmax exceeds this fraction of TPC time.
    pub const SOFTMAX_TPC_SHARE: f64 = 0.80;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_softmax_dominates_tpc_time() {
        let fig = fig4_softmax().unwrap();
        assert!(
            fig.softmax_share_of_tpc > paper::SOFTMAX_TPC_SHARE,
            "softmax share {}",
            fig.softmax_share_of_tpc
        );
        // "There are many blank areas in the MME operating area."
        assert!(fig.mme_util < 0.6, "MME util {}", fig.mme_util);
        assert!(fig.longest_mme_gap_ms > 1.0);
    }

    #[test]
    fn fig5_linear_is_about_6x_faster_with_busy_mme() {
        let softmax = fig4_softmax().unwrap();
        let linear = fig5_linear().unwrap();
        let speedup = softmax.total_ms / linear.total_ms;
        assert!(
            (4.0..9.0).contains(&speedup),
            "linear speedup {speedup} (paper: ~{})",
            paper::LINEAR_SPEEDUP
        );
        // "Not many blank areas in the MME operating area."
        assert!(linear.mme_util > softmax.mme_util + 0.2);
    }

    #[test]
    fn fig6_performer_sits_between() {
        let softmax = fig4_softmax().unwrap();
        let linear = fig5_linear().unwrap();
        let performer = fig6_performer().unwrap();
        let speedup = softmax.total_ms / performer.total_ms;
        assert!(
            (1.4..4.0).contains(&speedup),
            "performer speedup {speedup} (paper: ~{})",
            paper::PERFORMER_SPEEDUP
        );
        assert!(performer.total_ms > linear.total_ms);
        // The un-overlapped exponentials leave an MME gap.
        assert!(
            performer.longest_mme_gap_ms > 0.5,
            "{}",
            performer.longest_mme_gap_ms
        );
    }

    #[test]
    fn fig7_glu_is_slowest_with_mme_blank() {
        let sweep = activation_sweep().unwrap();
        assert_eq!(sweep.len(), 4);
        let by_name = |n: &str| sweep.iter().find(|(name, _)| name == n).unwrap().1.total_ms;
        let relu = by_name("relu");
        let leaky = by_name("leaky_relu");
        let gelu = by_name("gelu");
        let glu = by_name("glu");
        // ReLU/LeakyReLU/GELU within a few percent of each other.
        let base = relu.min(leaky).min(gelu);
        let top = relu.max(leaky).max(gelu);
        assert!(top / base < 1.10, "spread {relu} {leaky} {gelu}");
        // GLU strictly slower (recompile stall), by a modest margin.
        assert!(glu > top, "glu {glu} vs others {top}");
        assert!(glu / base < 1.35, "glu penalty too large: {glu} vs {base}");
    }

    #[test]
    fn traces_are_wellformed() {
        let fig = fig5_linear().unwrap();
        assert!(fig.trace.check_no_overlap().is_none());
        assert!(fig.trace.len() > 10);
        assert!((0.0..=1.0).contains(&fig.overlap));
    }
}
