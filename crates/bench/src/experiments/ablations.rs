//! Ablations and extensions (DESIGN.md A1–A4): the quantified versions of
//! the paper's Insights, plus sequence-length and scale-out sweeps.

use crate::experiments::layer_figs::{
    layer_experiment, paper_options, LayerFigure, FAVOR_FEATURES,
};
use gaudi_compiler::{CompilerOptions, ExecutionPlan, GraphCompiler, SchedulerKind};
use gaudi_graph::{EinsumSpec, Graph};
use gaudi_hw::{GaudiConfig, Topology};
use gaudi_models::attention::AttentionKind;
use gaudi_models::config::TransformerLayerConfig;
use gaudi_tensor::{Result as TensorResult, TensorError};

/// A1 — scheduler ablation on the Performer layer: the Figure 6 MME gap,
/// then the same graph under the overlap-aware scheduler.
pub fn scheduler_ablation() -> TensorResult<(LayerFigure, LayerFigure)> {
    let cfg = TransformerLayerConfig::paper_section_3_3().with_attention(AttentionKind::Favor {
        features: FAVOR_FEATURES,
    });
    let inorder = layer_experiment("ablation-performer-inorder", &cfg, paper_options())?;
    let overlap = layer_experiment(
        "ablation-performer-overlap",
        &cfg,
        CompilerOptions {
            scheduler: SchedulerKind::Overlap,
            ..paper_options()
        },
    )?;
    Ok((inorder, overlap))
}

/// A2 — einsum ablation: an attention score+output block written with the
/// fused `einsum` op, compiled (a) naively (TPC fallback) and (b) with the
/// lowering pass (MME). Returns `(naive_ms, lowered_ms)`.
pub fn einsum_ablation() -> TensorResult<(f64, f64)> {
    let [(_, naive), (_, lowered)] = einsum_plans()?;
    Ok((naive.makespan_ms(), lowered.makespan_ms()))
}

/// The A2 block's scheduled graphs and plans without and with einsum
/// lowering.
fn einsum_plans() -> TensorResult<[(Graph, ExecutionPlan); 2]> {
    let cfg = TransformerLayerConfig::paper_section_3_3();
    let (b, h, n, d) = (cfg.batch, cfg.heads, cfg.seq_len, cfg.head_dim);

    let mut g = Graph::new();
    g.storage_dtype = gaudi_tensor::DType::BF16;
    let q = g
        .input("q", &[b, h, n, d])
        .map_err(|_| TensorError::EmptyTensor)?;
    let k = g
        .input("k", &[b, h, n, d])
        .map_err(|_| TensorError::EmptyTensor)?;
    let v = g
        .input("v", &[b, h, n, d])
        .map_err(|_| TensorError::EmptyTensor)?;
    let s = g
        .einsum(EinsumSpec::ScoresQKt, q, k)
        .map_err(|_| TensorError::EmptyTensor)?;
    let p = g.softmax(s).map_err(|_| TensorError::EmptyTensor)?;
    let o = g
        .einsum(EinsumSpec::OutputAv, p, v)
        .map_err(|_| TensorError::EmptyTensor)?;
    g.mark_output(o);

    let plan = |lower: bool| {
        let opts = CompilerOptions {
            lower_einsum: lower,
            ..paper_options()
        };
        let compiler = GraphCompiler::new(GaudiConfig::hls1(), opts);
        compiler.compile(&g).expect("valid graph")
    };
    Ok([plan(false), plan(true)])
}

/// A5 — element-wise fusion ablation on the Performer layer (whose
/// `scalar_add -> exp` feature-map chains are the fusion targets). Returns
/// `(unfused, fused)` figures.
pub fn fusion_ablation() -> TensorResult<(LayerFigure, LayerFigure)> {
    let cfg = TransformerLayerConfig::paper_section_3_3().with_attention(AttentionKind::Favor {
        features: FAVOR_FEATURES,
    });
    let unfused = layer_experiment("ablation-fusion-off", &cfg, paper_options())?;
    let fused = layer_experiment(
        "ablation-fusion-on",
        &cfg,
        CompilerOptions {
            fuse_elementwise: true,
            ..paper_options()
        },
    )?;
    Ok((unfused, fused))
}

/// One point of the A3 sequence-length sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Sequence length.
    pub seq_len: usize,
    /// Total layer time per attention kind, ms: (softmax, linear, performer).
    pub softmax_ms: f64,
    /// Linear attention, ms.
    pub linear_ms: f64,
    /// Performer, ms.
    pub performer_ms: f64,
}

/// A3 — sequence-length sweep of the three attention mechanisms at the
/// paper's layer configuration (batch is scaled down at very long sequences
/// would not change the *ratios*; we keep the paper batch).
pub fn seqlen_sweep(lengths: &[usize]) -> TensorResult<Vec<SweepPoint>> {
    lengths
        .iter()
        .map(|&n| {
            let [softmax, linear, performer] = seqlen_layers(n)?;
            Ok(SweepPoint {
                seq_len: n,
                softmax_ms: softmax.total_ms,
                linear_ms: linear.total_ms,
                performer_ms: performer.total_ms,
            })
        })
        .collect()
}

/// The softmax, linear and Performer layers of one A3 sequence length.
fn seqlen_layers(n: usize) -> TensorResult<[LayerFigure; 3]> {
    let base = TransformerLayerConfig::paper_section_3_3().with_seq_len(n);
    let performer = AttentionKind::Favor {
        features: FAVOR_FEATURES,
    };
    Ok([
        layer_experiment("sweep-softmax", &base, paper_options())?,
        layer_experiment(
            "sweep-linear",
            &base.clone().with_attention(AttentionKind::Linear),
            paper_options(),
        )?,
        layer_experiment(
            "sweep-performer",
            &base.with_attention(performer),
            paper_options(),
        )?,
    ])
}

/// One point of the A4 scale-out sweep.
#[derive(Debug, Clone)]
pub struct ScaleoutPoint {
    /// Number of Gaudi processors.
    pub world: usize,
    /// All-reduce time for the gradient volume, ms.
    pub allreduce_ms: f64,
    /// Data-parallel scaling efficiency (0..1).
    pub efficiency: f64,
}

/// A4 — data-parallel scaling of a BERT training step over the HLS-1's
/// RoCE fabric. `step_compute_ms` is the single-device step time (from
/// Figure 9's run); `grad_bytes` the gradient volume, ring-all-reduced
/// across an HLS-1 box of each size in `worlds` (each at least 1) with no
/// overlap: the efficiency is `step / (step + all-reduce)`.
pub fn scaleout_sweep(
    step_compute_ms: f64,
    grad_bytes: u64,
    worlds: &[usize],
) -> Vec<ScaleoutPoint> {
    let cfg = GaudiConfig::hls1();
    let step_ns = step_compute_ms * 1e6;
    worlds
        .iter()
        .map(|&world| {
            let allreduce_ns = Topology::hls1_box(&cfg, world).allreduce_time_ns(grad_bytes);
            ScaleoutPoint {
                world,
                allreduce_ms: allreduce_ns / 1e6,
                efficiency: step_ns / (step_ns + allreduce_ns),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduler_fix_speeds_up_performer_modestly() {
        // The independence fix recovers some time, but not the whole Figure 6
        // gap: both exponentials serialize on the *same* TPC cluster, so only
        // cross-engine slack (the k-branch MME work) is reclaimable.
        let (inorder, overlap) = scheduler_ablation().unwrap();
        assert!(
            overlap.total_ms < inorder.total_ms - 0.5,
            "overlap {} vs inorder {}",
            overlap.total_ms,
            inorder.total_ms
        );
        assert!(overlap.longest_mme_gap_ms <= inorder.longest_mme_gap_ms + 1e-9);
    }

    #[test]
    fn einsum_lowering_wins_severalfold() {
        let (naive, lowered) = einsum_ablation().unwrap();
        // The un-lowered graph pays the ~7x TPC-matmul penalty on both
        // contractions; the shared softmax bounds the end-to-end ratio.
        assert!(
            naive / lowered > 2.0,
            "naive {naive} ms vs lowered {lowered} ms — expected the engine gap to show"
        );
    }

    #[test]
    fn softmax_grows_quadratically_linear_linearly() {
        let sweep = seqlen_sweep(&[512, 1024, 2048, 4096]).unwrap();
        // Softmax 4096/512 should grow much faster than linear's.
        let s_ratio = sweep[3].softmax_ms / sweep[0].softmax_ms;
        let l_ratio = sweep[3].linear_ms / sweep[0].linear_ms;
        assert!(
            s_ratio > 2.0 * l_ratio,
            "softmax x{s_ratio} vs linear x{l_ratio}"
        );
        // Crossover: at short lengths the gap is small; at 4096 it is large.
        let short_gap = sweep[0].softmax_ms / sweep[0].linear_ms;
        let long_gap = sweep[3].softmax_ms / sweep[3].linear_ms;
        assert!(
            long_gap > 2.0 * short_gap,
            "short {short_gap} vs long {long_gap}"
        );
    }

    #[test]
    fn fusion_saves_time_on_performer() {
        let (unfused, fused) = fusion_ablation().unwrap();
        assert!(
            fused.total_ms < unfused.total_ms,
            "fused {} vs unfused {}",
            fused.total_ms,
            unfused.total_ms
        );
        // Fewer trace events: chains collapsed.
        assert!(fused.trace.len() < unfused.trace.len());
    }

    /// Every paper path compiles from `paper_options()`, so none of them
    /// schedules a kernel of the fused-attention pass.
    #[test]
    fn paper_paths_never_schedule_fused_attention() {
        use crate::experiments::layer_figs::{
            activation_sweep, fig4_softmax, fig5_linear, fig6_performer,
        };
        use crate::experiments::llm_figs::{llm_experiment, LlmKind};
        let mut layers = vec![
            fig4_softmax().unwrap(),
            fig5_linear().unwrap(),
            fig6_performer().unwrap(),
        ];
        layers.extend(activation_sweep().unwrap().into_iter().map(|(_, f)| f));
        let (inorder, overlap) = scheduler_ablation().unwrap();
        let (fusion_off, fusion_on) = fusion_ablation().unwrap();
        layers.extend([inorder, overlap, fusion_off, fusion_on]);
        layers.extend(seqlen_layers(512).unwrap());
        let labels =
            |t: &gaudi_profiler::Trace| t.events().iter().map(|e| e.name.clone()).collect();
        let mut runs: Vec<(String, Vec<String>)> = layers
            .iter()
            .map(|f| (f.name.clone(), labels(&f.trace)))
            .collect();
        for kind in [LlmKind::Gpt, LlmKind::Bert] {
            let f = llm_experiment(kind).unwrap();
            runs.push((f.name, labels(&f.trace)));
        }
        for (arm, (g, plan)) in ["einsum-naive", "einsum-lowered"]
            .into_iter()
            .zip(einsum_plans().unwrap())
        {
            runs.push((
                arm.into(),
                plan.steps.iter().map(|s| s.label.render(&g)).collect(),
            ));
        }
        for (run, labels) in &runs {
            let fused: Vec<_> = labels
                .iter()
                .filter(|l| l.contains("fused_attention") || l.contains("fused_softmax_matmul"))
                .collect();
            assert!(fused.is_empty(), "{run} schedules {fused:?}");
        }
    }

    #[test]
    fn scaleout_efficiency_decays_with_world_size() {
        let points = scaleout_sweep(100.0, 500 << 20, &[1, 2, 4, 8]);
        assert_eq!(points[0].allreduce_ms, 0.0);
        assert!((points[0].efficiency - 1.0).abs() < 1e-9);
        for w in points.windows(2) {
            assert!(w[1].efficiency <= w[0].efficiency);
        }
        assert!(
            points[3].efficiency > 0.5,
            "RoCE should keep BERT steps scalable"
        );
    }
}
