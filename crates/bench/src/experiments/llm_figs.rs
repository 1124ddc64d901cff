//! Figures 8 and 9: end-to-end GPT and BERT training-step traces at the
//! §3.4 configuration (sequence 2048, batch 8, 2 layers, 8 heads, 64 hidden
//! per head, BookCorpus input).

use crate::experiments::layer_figs::paper_options;
use gaudi_hw::{EngineId, GaudiConfig};
use gaudi_models::bert::{build_bert_mlm, BertConfig};
use gaudi_models::gpt::{build_gpt_lm, GptConfig};
use gaudi_profiler::{Trace, TraceAnalysis};
use gaudi_runtime::{Feeds, NumericsMode, Runtime};
use gaudi_tensor::{Result as TensorResult, TensorError};

/// Which end-to-end model to profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LlmKind {
    /// `GPT2LMHeadModel` analog (Figure 8).
    Gpt,
    /// `BertForMaskedLM` analog (Figure 9).
    Bert,
}

/// Metrics of an end-to-end LLM training-step trace.
#[derive(Debug, Clone)]
pub struct LlmFigure {
    /// Experiment id (`fig8-gpt` / `fig9-bert`).
    pub name: String,
    /// Model kind.
    pub kind: LlmKind,
    /// Total simulated step time, ms.
    pub total_ms: f64,
    /// MME busy fraction.
    pub mme_util: f64,
    /// TPC busy fraction.
    pub tpc_util: f64,
    /// Number of idle gaps on the MME lane.
    pub mme_gaps: usize,
    /// MME/TPC overlap coefficient.
    pub overlap: f64,
    /// Estimated peak HBM, bytes.
    pub peak_hbm_bytes: u64,
    /// Whether the run fits the 32 GB device.
    pub fits_hbm: bool,
    /// The trace.
    pub trace: Trace,
}

/// Profile one end-to-end model (paper configuration, training step).
pub fn llm_experiment(kind: LlmKind) -> TensorResult<LlmFigure> {
    let (graph, name) = match kind {
        LlmKind::Gpt => (
            build_gpt_lm(&GptConfig::paper())
                .map_err(|_| TensorError::EmptyTensor)?
                .0,
            "fig8-gpt",
        ),
        LlmKind::Bert => (
            build_bert_mlm(&BertConfig::paper())
                .map_err(|_| TensorError::EmptyTensor)?
                .0,
            "fig9-bert",
        ),
    };
    let rt = Runtime::new(GaudiConfig::hls1(), paper_options());
    let report = rt
        .run(&graph, &Feeds::auto(0), NumericsMode::ShapeOnly)
        .map_err(|_| TensorError::EmptyTensor)?;
    let analysis = TraceAnalysis::of(&report.trace);
    let mme = analysis.engine(EngineId::Mme);
    let tpc = analysis.engine(EngineId::TpcCluster);
    let hbm = GaudiConfig::hls1().memory.hbm_capacity_bytes;
    Ok(LlmFigure {
        name: name.to_string(),
        kind,
        total_ms: report.makespan_ms,
        mme_util: mme.map(|e| e.utilization).unwrap_or(0.0),
        tpc_util: tpc.map(|e| e.utilization).unwrap_or(0.0),
        mme_gaps: mme.map(|e| e.gaps.len()).unwrap_or(0),
        overlap: analysis.compute_overlap(&report.trace),
        peak_hbm_bytes: report.peak_hbm_bytes,
        fits_hbm: report.peak_hbm_bytes <= hbm,
        trace: report.trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_gpt_shows_idle_mme_busy_tpc() {
        let fig = llm_experiment(LlmKind::Gpt).unwrap();
        // "There are many blank areas in the MME operating area ... however,
        // TPC is obviously busy."
        assert!(fig.mme_util < 0.75, "MME util {}", fig.mme_util);
        assert!(fig.tpc_util > 0.3, "TPC util {}", fig.tpc_util);
        assert!(fig.mme_gaps > 10);
        // "As a result, either MME or TPC is idle" — no good overlap.
        assert!(fig.overlap < 0.3, "overlap {}", fig.overlap);
        assert!(
            fig.mme_util + fig.tpc_util < 1.05,
            "engines mostly mutually exclusive"
        );
    }

    #[test]
    fn fig9_bert_shows_the_same_observations() {
        let fig = llm_experiment(LlmKind::Bert).unwrap();
        assert!(fig.mme_util < 0.75);
        assert!(fig.tpc_util > 0.3);
        assert!(fig.overlap < 0.3);
    }

    #[test]
    fn paper_batch_8_fits_the_32gb_device() {
        let fig = llm_experiment(LlmKind::Bert).unwrap();
        assert!(fig.fits_hbm, "peak {} GiB", fig.peak_hbm_bytes >> 30);
        // And it is no small fraction of the device: the paper had to shrink
        // the batch to 8 because memory is tight.
        assert!(
            fig.peak_hbm_bytes > 4 << 30,
            "peak {} GiB",
            fig.peak_hbm_bytes >> 30
        );
    }

    #[test]
    fn traces_are_wellformed() {
        let fig = llm_experiment(LlmKind::Gpt).unwrap();
        assert!(fig.trace.check_no_overlap().is_none());
        assert!(
            fig.trace.len() > 100,
            "a 2-layer training step has many ops"
        );
    }
}
