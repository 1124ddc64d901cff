//! The paper's evaluation: Tables 1–2, Figures 4–9, ablations A1–A8 and
//! the batch sweep, regenerated from the `gaudi_bench` experiment library.
//!
//! Each section of `results/paper.md` is one reproduction: its table, the
//! measured value next to the paper's, and the finding. The Figure 4, 5,
//! 6, 8 and 9 timelines are also written as Chrome traces (open them in
//! `chrome://tracing` or Perfetto). Every run compiles with
//! `paper_options()`, the unfused pipeline of the paper's observed
//! SynapseAI traces, and an ablation arm changes one knob from there.
//!
//! Gates: none of its own. `tests/paper_shapes.rs`, the `gaudi-bench` unit
//! tests and simbench hold the shape bands; this experiment's check is its
//! committed text and traces, which CI requires a fresh run to reproduce
//! byte for byte. The runs use neither the pool nor the plan cache. The
//! experiment returns no tables: `paper.md` is its text, and the two-pass
//! check compares it and the traces byte for byte.
//!
//! Artifacts: [`ARTIFACTS`].

use crate::Outcome;
use gaudi_bench::experiments::layer_figs::{
    fig4_softmax, fig5_linear, fig6_performer, layer_experiment, paper, paper_options,
    FAVOR_FEATURES,
};
use gaudi_bench::support::{ms, pct, ratio};
use gaudi_bench::{
    activation_sweep, einsum_ablation, fusion_ablation, llm_experiment, scaleout_sweep,
    scheduler_ablation, seqlen_sweep, table2, LayerFigure, LlmFigure, LlmKind,
};
use gaudi_compiler::table1;
use gaudi_exec::ExecPool;
use gaudi_hw::{EngineId, GaudiConfig};
use gaudi_models::attention::AttentionKind;
use gaudi_models::bert::{build_bert_mlm, BertConfig};
use gaudi_models::config::{LlmConfig, TransformerLayerConfig};
use gaudi_models::transformer::build_transformer_layer;
use gaudi_profiler::ascii::render_timeline;
use gaudi_profiler::chrome::to_chrome_json;
use gaudi_profiler::report::{trace_summary, TextTable};
use gaudi_profiler::roofline::{render_roofline, roofline, Roof};
use gaudi_profiler::Trace;
use gaudi_runtime::{Feeds, NumericsMode, Runtime};
use gaudi_serving::PlanCache;
use gaudi_tensor::DType;
use std::sync::Arc;

/// The files under `results/` this experiment writes, in the order [`run`]
/// returns them: the text, then the Figure 4, 5, 6, 8 and 9 traces.
pub const ARTIFACTS: &[&str] = &[
    "paper.md",
    "fig4_softmax.trace.json",
    "fig5_linear.trace.json",
    "fig6_performer.trace.json",
    "fig8_gpt.trace.json",
    "fig9_bert.trace.json",
];

pub fn run(_: &ExecPool, _: &Arc<PlanCache>) -> Outcome {
    let f4 = fig4_softmax().expect("Figure 4 runs");
    let f5 = fig5_linear().expect("Figure 5 runs");
    let f6 = fig6_performer().expect("Figure 6 runs");
    let gpt = llm_experiment(LlmKind::Gpt).expect("Figure 8 runs");
    let bert = llm_experiment(LlmKind::Bert).expect("Figure 9 runs");

    let mut md = String::from(
        "# Paper reproduction\n\n\
         Every table, figure and ablation of the paper, regenerated on the\n\
         calibrated simulator by the `paper` experiment of\n\
         `cargo run --release --bin sweeps`. EXPERIMENTS.md sets each section\n\
         against the paper.\n",
    );
    table_1(&mut md);
    table_2(&mut md);
    figures_4_to_6(&mut md, &f4, &f5, &f6);
    figure_7(&mut md);
    figures_8_9(&mut md, &gpt, &bert);
    a1(&mut md);
    a2(&mut md);
    a3(&mut md);
    a4(&mut md, &bert);
    a5(&mut md);
    a6(&mut md);
    a7(&mut md, &f4);
    a8(&mut md, &f4, &f5, &f6);
    batch_sweep(&mut md);

    let traces = [&f4.trace, &f5.trace, &f6.trace, &gpt.trace, &bert.trace].map(to_chrome_json);
    Outcome {
        text: md.clone(),
        artifacts: [md].into_iter().chain(traces).collect(),
        ..Outcome::default()
    }
}

/// Append one section: `title`, then `body` (a table or timeline) and the
/// `finding` under it in a text block.
fn section(md: &mut String, title: &str, body: &str, finding: std::fmt::Arguments) {
    outln!(md, "\n## {title}\n\n```text\n{body}\n{finding}\n```");
}

/// A figure's ASCII timeline and its per-engine summary.
fn timeline(trace: &Trace) -> String {
    format!("{}\n{}", render_timeline(trace, 100), trace_summary(trace))
}

fn table_1(md: &mut String) {
    let mut t = TextTable::new(&["Operation", "Explanation", "Mapping", "Paper"]);
    for row in table1() {
        let paper = if row.operation == "torch.matmul" {
            "MME"
        } else {
            "TPC"
        };
        t.row(&[
            row.operation.to_string(),
            row.explanation.to_string(),
            row.mapping.label(),
            paper.to_string(),
        ]);
    }
    section(
        md,
        "Table 1: Operation-Hardware Mapping via SynapseAI (reproduced)",
        &t.render(),
        format_args!(
            "Conclusion (matches §3.2): only matrix multiplication reaches the MME;\n\
             every other operation — even scalar * tensor — runs on the TPC cluster."
        ),
    );
}

fn table_2(md: &mut String) {
    let mut t = TextTable::new(&[
        "Size",
        "T_MME",
        "F_MME",
        "T_TPC",
        "F_TPC",
        "Speedup",
        "|",
        "paper T_MME",
        "F_MME",
        "T_TPC",
        "F_TPC",
        "Speedup",
    ]);
    let rows = table2();
    for r in &rows {
        let (pt_mme, pf_mme, pt_tpc, pf_tpc, pspeed) = r.paper;
        t.row(&[
            r.size.to_string(),
            ms(r.t_mme_ms),
            format!("{:.2}", r.f_mme),
            ms(r.t_tpc_ms),
            format!("{:.2}", r.f_tpc),
            ratio(r.speedup),
            "|".to_string(),
            ms(pt_mme),
            format!("{pf_mme:.2}"),
            ms(pt_tpc),
            format!("{pf_tpc:.2}"),
            ratio(pspeed),
        ]);
    }
    section(
        md,
        "Table 2: MME vs TPC batched matmul (batch 64), measured vs paper",
        &t.render(),
        format_args!(
            "Shape check: TPC is ~{} slower than MME at large sizes (paper: 'up to 7x');\n\
             MME efficiency ramps from launch-overhead-bound at size 128 to its plateau at 512+.",
            ratio(rows.last().expect("Table 2 has rows").speedup)
        ),
    );
}

fn figures_4_to_6(md: &mut String, f4: &LayerFigure, f5: &LayerFigure, f6: &LayerFigure) {
    section(
        md,
        "Figure 4: Transformer layer with softmax attention",
        &timeline(&f4.trace),
        format_args!(
            "Observations (paper §3.3):\n\
             (1) blank areas in the MME lane: MME utilization {} (longest gap {:.1} ms);\n\
             (2) softmax consumes {} of TPC busy time (paper: >{}).",
            pct(f4.mme_util),
            f4.longest_mme_gap_ms,
            pct(f4.softmax_share_of_tpc),
            pct(paper::SOFTMAX_TPC_SHARE),
        ),
    );
    section(
        md,
        "Figure 5: Transformer layer with linear attention (elu(x)+1)",
        &timeline(&f5.trace),
        format_args!(
            "total {} ms (paper: ~{} ms); speedup over softmax attention {} (paper: ~{});\n\
             MME utilization {} — 'not many blank areas in the MME operating area'.",
            ms(f5.total_ms),
            paper::LINEAR_MS,
            ratio(f4.total_ms / f5.total_ms),
            ratio(paper::LINEAR_SPEEDUP),
            pct(f5.mme_util),
        ),
    );
    section(
        md,
        "Figure 6: Transformer layer with Performer FAVOR attention",
        &timeline(&f6.trace),
        format_args!(
            "total {} ms (paper: ~{} ms); speedup over softmax attention {} (paper: ~{}).\n\
             Blank area on the MME lane: longest gap {} ms — the TPC is busy with the\n\
             q'/k' exponentials, which the in-order Graph Compiler does not overlap\n\
             with MME work (A1 below runs the fixed compiler).",
            ms(f6.total_ms),
            paper::PERFORMER_MS,
            ratio(f4.total_ms / f6.total_ms),
            ratio(paper::PERFORMER_SPEEDUP),
            ms(f6.longest_mme_gap_ms),
        ),
    );
}

fn figure_7(md: &mut String) {
    let sweep = activation_sweep().expect("Figure 7 runs");
    let mut t = TextTable::new(&["Activation", "Total (ms)", "MME util", "Paper (ms)"]);
    for ((name, fig), paper_ms) in sweep.iter().zip(paper::ACTIVATIONS_MS) {
        t.row(&[
            name.clone(),
            ms(fig.total_ms),
            pct(fig.mme_util),
            format!("{paper_ms}"),
        ]);
    }
    section(
        md,
        "Figure 7: activation functions in a Transformer layer",
        &t.render(),
        format_args!(
            "Shape check (paper §3.3): ReLU / LeakyReLU / GELU are within a few percent\n\
             of each other; GLU is the slowest and stalls the MME, because SynapseAI\n\
             lacks a pre-compiled GLU recipe and recompiles on first execution."
        ),
    );
}

fn figures_8_9(md: &mut String, gpt: &LlmFigure, bert: &LlmFigure) {
    for (fig, title, reading, hbm_note) in [
        (
            gpt,
            "Figure 8: hardware trace of the GPT model (seq 2048, batch 8, 2 layers)",
            " — 'workload between MME and TPC is unbalanced' and\n\
             'there is no good overlap between MME and TPC'.",
            " (why the paper's batch is 8)",
        ),
        (
            bert,
            "Figure 9: hardware trace of the BERT model (seq 2048, batch 8, 2 layers)",
            ". Same conclusions as the GPT trace: imbalanced\n\
             MME/TPC workload, no overlap, wasted compute resources.",
            "",
        ),
    ] {
        section(
            md,
            title,
            &timeline(&fig.trace),
            format_args!(
                "Observations (paper §3.4): {} MME idle gaps; MME utilization {}; TPC {};\n\
                 MME/TPC overlap {}{reading}\n\
                 Peak HBM estimate: {:.1} GiB of the 32 GiB device{hbm_note}.",
                fig.mme_gaps,
                pct(fig.mme_util),
                pct(fig.tpc_util),
                pct(fig.overlap),
                fig.peak_hbm_bytes as f64 / (1u64 << 30) as f64,
            ),
        );
    }
}

fn a1(md: &mut String) {
    let (inorder, overlap) = scheduler_ablation().expect("A1 runs");
    let mut t = TextTable::new(&[
        "Scheduler",
        "Total (ms)",
        "MME util",
        "Longest MME gap (ms)",
    ]);
    for (name, fig) in [
        ("in-order (SynapseAI-like)", &inorder),
        ("overlap-aware", &overlap),
    ] {
        t.row(&[
            name.into(),
            ms(fig.total_ms),
            pct(fig.mme_util),
            ms(fig.longest_mme_gap_ms),
        ]);
    }
    section(
        md,
        "Ablation A1: scheduler policy on the Performer layer",
        &t.render(),
        format_args!(
            "Finding: detecting the q'/k' independence recovers {:.1} ms ({:.1}%), but\n\
             NOT the whole Figure 6 gap — both exponentials execute on the same TPC\n\
             cluster, so only the cross-engine slack (the k-branch MME work) is\n\
             reclaimable. The bigger lever is reducing special-function work itself.",
            inorder.total_ms - overlap.total_ms,
            (inorder.total_ms - overlap.total_ms) / inorder.total_ms * 100.0,
        ),
    );
}

fn a2(md: &mut String) {
    let (naive, lowered) = einsum_ablation().expect("A2 runs");
    let mut t = TextTable::new(&["Compilation", "Total (ms)"]);
    t.row(&["einsum kept fused (TPC matmul fallback)".into(), ms(naive)]);
    t.row(&["lowered to transpose + matmul (MME)".into(), ms(lowered)]);
    section(
        md,
        "Ablation A2: fused einsum vs basic-op lowering (attention block)",
        &t.render(),
        format_args!(
            "Finding: lowering wins {} end-to-end. The fused contraction falls back\n\
             to a TPC matmul kernel, paying the ~7x engine gap of Table 2 on both\n\
             the QK^T and AV products; the softmax between them bounds the ratio.",
            ratio(naive / lowered)
        ),
    );
}

fn a3(md: &mut String) {
    let sweep = seqlen_sweep(&[256, 512, 1024, 2048, 4096, 8192]).expect("A3 runs");
    let mut t = TextTable::new(&[
        "Seq len",
        "Softmax (ms)",
        "Linear (ms)",
        "Performer (ms)",
        "Softmax/Linear",
    ]);
    for p in &sweep {
        t.row(&[
            p.seq_len.to_string(),
            ms(p.softmax_ms),
            ms(p.linear_ms),
            ms(p.performer_ms),
            ratio(p.softmax_ms / p.linear_ms),
        ]);
    }
    section(
        md,
        "Extension A3: attention mechanisms across sequence length",
        &t.render(),
        format_args!(
            "Shape: softmax attention grows quadratically (its softmax runs on the TPC),\n\
             linearized attention grows ~linearly; the gap widens with sequence length,\n\
             'especially when the sequence length exceeds 1024' (§3.3)."
        ),
    );
}

fn a4(md: &mut String, bert: &LlmFigure) {
    // Gradient volume = parameter bytes (fp32) of the BERT configuration:
    // embeddings, per-layer Q/K/V/output and FFN weights plus layer-norm and
    // bias vectors (approximated as 9·d), and the vocabulary head.
    let cfg = BertConfig::paper().base;
    let d = cfg.heads * cfg.head_dim;
    let per_layer = 4 * d * d + 2 * d * cfg.ffn_mult * d + 9 * d;
    let params = cfg.vocab * d + cfg.seq_len * d + cfg.layers * per_layer + d * cfg.vocab;
    let grad_bytes = (params * 4) as u64;

    let mut t = TextTable::new(&["Gaudis", "All-reduce (ms)", "Scaling efficiency"]);
    for p in scaleout_sweep(bert.total_ms, grad_bytes, &[1, 2, 4, 8]) {
        t.row(&[
            p.world.to_string(),
            ms(p.allreduce_ms),
            format!("{:.1}%", p.efficiency * 100.0),
        ]);
    }
    section(
        md,
        "Extension A4: data-parallel scaling of a BERT training step",
        &format!(
            "single-device step: {} ms; gradient volume: {:.1} MiB\n\n{}",
            ms(bert.total_ms),
            grad_bytes as f64 / (1u64 << 20) as f64,
            t.render()
        ),
        format_args!(
            "Shape: the ten 100 GbE RoCE ports keep ring all-reduce cheap relative to a\n\
             {} ms step, so data-parallel efficiency stays high across the full HLS-1 —\n\
             the scalability §2.1 advertises.",
            ms(bert.total_ms)
        ),
    );
}

fn a5(md: &mut String) {
    let (unfused, fused) = fusion_ablation().expect("A5 runs");
    let mut t = TextTable::new(&["Fusion", "Total (ms)", "Trace events", "MME util"]);
    for (name, fig) in [
        ("off (one launch per op)", &unfused),
        ("on (chains collapsed)", &fused),
    ] {
        t.row(&[
            name.into(),
            ms(fig.total_ms),
            fig.trace.len().to_string(),
            pct(fig.mme_util),
        ]);
    }
    section(
        md,
        "Ablation A5: element-wise fusion on the Performer layer",
        &t.render(),
        format_args!(
            "Finding: fusing the scalar_add->exp feature-map chains removes {} trace\n\
             events and {:.1} ms ({:.1}%): intermediate tensors stop round-tripping\n\
             through global memory and launch overheads collapse.",
            unfused.trace.len() - fused.trace.len(),
            unfused.total_ms - fused.total_ms,
            (unfused.total_ms - fused.total_ms) / unfused.total_ms * 100.0
        ),
    );
}

/// A6: one §3.3 layer's time with its activations stored as `dtype`.
fn layer_ms(kind: AttentionKind, dtype: DType) -> f64 {
    let cfg = TransformerLayerConfig::paper_section_3_3().with_attention(kind);
    let (mut graph, _) = build_transformer_layer(&cfg).expect("A6 layer builds");
    graph.storage_dtype = dtype;
    Runtime::new(GaudiConfig::hls1(), paper_options())
        .run(&graph, &Feeds::auto(0), NumericsMode::ShapeOnly)
        .expect("A6 layer runs")
        .makespan_ms
}

fn a6(md: &mut String) {
    let mut t = TextTable::new(&["Attention", "fp32 (ms)", "bf16 (ms)", "bf16 saves"]);
    for (name, kind) in [
        ("softmax", AttentionKind::Softmax),
        ("linear", AttentionKind::Linear),
        (
            "performer",
            AttentionKind::Favor {
                features: FAVOR_FEATURES,
            },
        ),
    ] {
        let f32_ms = layer_ms(kind, DType::F32);
        let bf16_ms = layer_ms(kind, DType::BF16);
        t.row(&[
            name.into(),
            ms(f32_ms),
            ms(bf16_ms),
            ratio(f32_ms / bf16_ms),
        ]);
    }
    section(
        md,
        "Extension A6: activation storage precision (paper layer config)",
        &t.render(),
        format_args!(
            "Reading: compute-bound work (MME GEMMs, softmax exponentials) is\n\
             precision-insensitive in this model; the bf16 win comes from halved\n\
             DMA transfers and memory-bound element-wise traffic."
        ),
    );
}

fn a7(md: &mut String, fig4: &LayerFigure) {
    let cfg = GaudiConfig::hls1();
    let roofs = vec![
        (
            EngineId::Mme,
            Roof {
                peak_gflops: cfg.mme.peak_tflops * 1000.0,
                peak_gbps: cfg.memory.hbm_bandwidth_gbps,
            },
        ),
        (
            EngineId::TpcCluster,
            Roof {
                peak_gflops: cfg.tpc.matmul_peak_tflops * 1000.0,
                peak_gbps: cfg.tpc.num_cores as f64 * 256.0 / cfg.tpc.global_access_cycles
                    * cfg.tpc.clock_ghz,
            },
        ),
    ];
    section(
        md,
        "Extension A7: roofline over the Figure 4 (softmax attention) trace",
        &render_roofline(&mut roofline(&fig4.trace, &roofs)),
        format_args!(
            "Reading: the attention GEMMs sit on the MME compute roof; the TPC's\n\
             element-wise ops are bandwidth-bound on the global-memory path, and\n\
             softmax burns compute cycles in its exponentials and reductions — the\n\
             imbalance behind the paper's idle-MME traces."
        ),
    );
}

/// A8 against the paper's three mechanisms: the global-softmax, linear and
/// Performer layers are the Figure 4–6 runs.
fn a8(md: &mut String, softmax: &LayerFigure, linear: &LayerFigure, performer: &LayerFigure) {
    let mut t = TextTable::new(&[
        "Mechanism",
        "Total (ms)",
        "vs softmax",
        "MME util",
        "softmax%TPC",
    ]);
    let mut row = |name: String, fig: &LayerFigure, share: String| {
        t.row(&[
            name,
            ms(fig.total_ms),
            ratio(softmax.total_ms / fig.total_ms),
            pct(fig.mme_util),
            share,
        ]);
    };
    row(
        "softmax (global)".into(),
        softmax,
        pct(softmax.softmax_share_of_tpc),
    );
    for window in [512usize, 256, 128, 64] {
        let cfg = TransformerLayerConfig::paper_section_3_3()
            .with_attention(AttentionKind::LocalWindow { window });
        let fig = layer_experiment(&format!("a8-local-{window}"), &cfg, paper_options())
            .expect("A8 runs");
        row(
            format!("local window W={window}"),
            &fig,
            pct(fig.softmax_share_of_tpc),
        );
    }
    row("linear (elu+1)".into(), linear, "-".into());
    row("performer".into(), performer, "-".into());
    section(
        md,
        "Future work A8: block-local windowed attention (seq 2048, batch 128)",
        &t.render(),
        format_args!(
            "Finding: shrinking the softmax from NxN to NxW attacks the Figure 4\n\
             bottleneck directly — the TPC softmax cost falls by N/W while every\n\
             matrix product stays on the MME, and unlike linearized attention the\n\
             within-window interactions remain exact."
        ),
    );
}

fn batch_sweep(md: &mut String) {
    let rt = Runtime::new(GaudiConfig::hls1(), paper_options());
    let capacity = GaudiConfig::hls1().memory.hbm_capacity_bytes;
    let mut t = TextTable::new(&[
        "Batch",
        "Step (ms)",
        "Tokens/s",
        "Peak HBM (GiB)",
        "Fits 32 GiB",
    ]);
    for batch in [1usize, 2, 4, 8, 16, 32, 64] {
        let cfg = BertConfig {
            base: LlmConfig {
                batch,
                ..LlmConfig::paper_section_3_4(30522)
            },
        };
        let (graph, _) = build_bert_mlm(&cfg).expect("BERT builds");
        let report = rt
            .run(&graph, &Feeds::auto(0), NumericsMode::ShapeOnly)
            .expect("BERT step runs");
        let tokens = (batch * cfg.base.seq_len) as f64;
        t.row(&[
            format!("{batch}{}", if batch == 8 { "  <- paper" } else { "" }),
            ms(report.makespan_ms),
            format!("{:.0}", tokens / (report.makespan_ms / 1e3)),
            format!("{:.1}", report.peak_hbm_bytes as f64 / (1u64 << 30) as f64),
            if report.fits_hbm(capacity) {
                "yes"
            } else {
                "NO"
            }
            .to_string(),
        ]);
    }
    section(
        md,
        "Extension: BERT training step vs batch size (seq 2048, 2 layers)",
        &t.render(),
        format_args!(
            "Reading: throughput keeps improving with batch (fixed per-launch\n\
             overheads amortize), but activation memory grows linearly and crosses\n\
             the 32 GiB device before batch 64 — even under this liveness-based\n\
             lower bound. A real allocator (optimizer states, workspace, no\n\
             perfect reuse) hits the wall earlier: at the paper's batch 8."
        ),
    );
}
