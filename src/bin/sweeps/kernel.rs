//! Fused-attention ablation: fused TPC/MME kernels vs the unfused pipeline.
//!
//! The Fig. 4 trace is the motivation: softmax attention leaves the MME
//! idle while the TPC grinds through memory-bound softmax passes, shipping
//! an `S×S` score matrix through HBM three times. The fused kernels
//! (`gaudi_tpc::kernels::attention`) keep every intermediate in vector
//! local memory, and the compiler's pattern-match pass
//! (`gaudi_compiler::attention_fusion`) swaps them into any graph that
//! emits the canonical `MatMul(Q,Kᵀ) → Scale → [Mask] → Softmax →
//! MatMul(·,V)` subgraph. This sweep runs the Fig. 4–6 layer workloads
//! and the §3.4 GPT serving phases fused-vs-unfused. The unfused arm is
//! `paper_options()`, the observed-SynapseAI pipeline the paper figures
//! pin; the serving goldens pin the flag-off engine separately.
//!
//! Gates:
//!
//! 1. the fused TPC-VM softmax·matmul kernel takes strictly fewer cycles
//!    than the unfused kernel pipeline;
//! 2. the pattern-match pass finds at least one attention layer in the
//!    GPT prefill graph;
//! 3. **fused GPT prefill latency strictly below unfused** at equal config,
//!    and decode no worse;
//! 4. **MME idle fraction strictly reduced** on the Fig. 4 softmax
//!    workload, and its fused layer faster outright — the recovered idle
//!    gaps are the point of the kernels;
//! 5. workloads without the softmax-attention pattern (Fig. 5 linear,
//!    Fig. 6 Performer) come out *unchanged* — the pass is surgical;
//! 6. **exact numerics equivalence**: fused and unfused graphs produce
//!    bit-identical outputs under full numerics (the fused node is
//!    *defined* as the composition of the unfused reference ops).
//!
//! Tables (`results/kernel.json`): `cells`, one row per layer workload
//! and serving phase, fused against unfused; `micro`, the TPC-VM cycle
//! counts of gate 1; `checks`, the pattern-match counts of gate 2 and the
//! numerics gap of gate 6.

use crate::table::{col, Table, Value};
use crate::Outcome;
use gaudi_bench::experiments::layer_figs::{layer_experiment, paper_options, FAVOR_FEATURES};
use gaudi_compiler::{fuse_attention, CompilerOptions};
use gaudi_exec::ExecPool;
use gaudi_hw::config::TpcConfig;
use gaudi_hw::GaudiConfig;
use gaudi_models::attention::AttentionKind;
use gaudi_models::config::TransformerLayerConfig;
use gaudi_models::{build_decode_step, build_prefill, LlmConfig};
use gaudi_runtime::{Feeds, NumericsMode, Runtime};
use gaudi_serving::PlanCache;
use gaudi_tensor::{SeededRng, Tensor};
use gaudi_tpc::kernels::{fused_attention_rows, fused_softmax_matmul_rows};
use std::sync::Arc;

/// One fused-vs-unfused cell of the sweep.
struct Cell {
    name: String,
    unfused_ms: f64,
    fused_ms: f64,
    /// MME idle fraction (1 − utilization) per arm.
    idle_unfused: f64,
    idle_fused: f64,
    /// Longest MME gap per arm, ms.
    gap_unfused_ms: f64,
    gap_fused_ms: f64,
}

impl Cell {
    fn speedup(&self) -> f64 {
        self.unfused_ms / self.fused_ms
    }
}

/// The three §3.3 layer workloads (Fig. 4–6).
fn layer_cells(pool: &ExecPool) -> Vec<Cell> {
    let variants = [
        ("fig4-softmax", AttentionKind::Softmax),
        ("fig5-linear", AttentionKind::Linear),
        (
            "fig6-performer",
            AttentionKind::Favor {
                features: FAVOR_FEATURES,
            },
        ),
    ];
    pool.par_map(&variants, |_, (name, kind)| {
        let cfg = TransformerLayerConfig::paper_section_3_3().with_attention(*kind);
        let unfused =
            layer_experiment(&format!("{name}-unfused"), &cfg, paper_options()).expect("runs");
        let fused = layer_experiment(&format!("{name}-fused"), &cfg, CompilerOptions::default())
            .expect("runs");
        Cell {
            name: (*name).to_string(),
            unfused_ms: unfused.total_ms,
            fused_ms: fused.total_ms,
            idle_unfused: 1.0 - unfused.mme_util,
            idle_fused: 1.0 - fused.mme_util,
            gap_unfused_ms: unfused.longest_mme_gap_ms,
            gap_fused_ms: fused.longest_mme_gap_ms,
        }
    })
}

/// The §3.4 GPT serving phases, simulated shape-only on the HLS-1 model.
fn phase_cells(pool: &ExecPool) -> Vec<Cell> {
    let mut gpt = LlmConfig::paper_section_3_4(50257);
    gpt.training = false;
    let (prefill, _) = build_prefill(&gpt, 1, 128).expect("GPT prefill builds");
    let (decode, _) = build_decode_step(&gpt, 8, 1024).expect("GPT decode builds");
    let phases = [
        ("gpt-prefill b1 s128", prefill),
        ("gpt-decode b8 ctx1024", decode),
    ];
    pool.par_map(&phases, |_, (name, g)| {
        let run = |opts: CompilerOptions| {
            let rt = Runtime::new(GaudiConfig::hls1(), opts);
            let report = rt
                .run(g, &Feeds::auto(0), NumericsMode::ShapeOnly)
                .expect("phase simulates");
            let analysis = gaudi_profiler::TraceAnalysis::of(&report.trace);
            let mme = analysis.engine(gaudi_hw::EngineId::Mme);
            (
                report.makespan_ms,
                1.0 - mme.map(|e| e.utilization).unwrap_or(0.0),
                mme.and_then(|e| e.gaps.first())
                    .map(|gp| gp.dur_ns / 1e6)
                    .unwrap_or(0.0),
            )
        };
        let (u_ms, u_idle, u_gap) = run(paper_options());
        let (f_ms, f_idle, f_gap) = run(CompilerOptions::default());
        Cell {
            name: name.to_string(),
            unfused_ms: u_ms,
            fused_ms: f_ms,
            idle_unfused: u_idle,
            idle_fused: f_idle,
            gap_unfused_ms: u_gap,
            gap_fused_ms: f_gap,
        }
    })
}

/// Deterministic feeds for every `Input` node of a serving-phase graph:
/// integer token ids, a causal mask, Gaussian KV caches.
fn phase_feeds(g: &gaudi_graph::Graph, vocab: usize, seed: u64) -> Feeds {
    let mut rng = SeededRng::new(seed);
    let mut feeds = Feeds::auto(seed);
    for node in g.nodes() {
        if !matches!(node.kind, gaudi_graph::OpKind::Input) {
            continue;
        }
        let (dims, name) = (node.shape.dims().to_vec(), g.name(node.id));
        let t = if name == "ids" {
            let n: usize = dims.iter().product();
            let vals: Vec<f32> = (0..n).map(|i| ((i * 31 + 7) % vocab) as f32).collect();
            Tensor::from_vec(&dims, vals).unwrap()
        } else if name == "causal_mask" {
            let (n, m) = (dims[0], dims[1]);
            let vals: Vec<f32> = (0..n)
                .flat_map(|i| (0..m).map(move |j| if j <= i { 0.0 } else { -1e9 }))
                .collect();
            Tensor::from_vec(&dims, vals).unwrap()
        } else {
            Tensor::randn(&dims, 0.5, &mut rng).unwrap()
        };
        feeds = feeds.with_input(name, t);
    }
    feeds
}

/// Exact-numerics check: fused and unfused compilations of the same tiny
/// GPT phases must produce bit-identical outputs (`max_abs_diff == 0`).
/// Returns the worst absolute difference seen (must be exactly 0.0).
fn numerics_gap() -> f64 {
    let tiny = {
        let mut c = LlmConfig::tiny(97);
        c.training = false;
        c
    };
    // Masked prefill at batch > 1, and a batched decode step over a cache.
    let (prefill, _) = build_prefill(&tiny, 2, 32).expect("tiny prefill builds");
    let (decode, _) = build_decode_step(&tiny, 3, 32).expect("tiny decode builds");
    let mut worst = 0.0f64;
    for g in [&prefill, &decode] {
        let feeds = phase_feeds(g, tiny.vocab, 11);
        let run = |opts: CompilerOptions| {
            Runtime::new(GaudiConfig::hls1(), opts)
                .run(g, &feeds, NumericsMode::Full)
                .expect("numerics run")
                .outputs
        };
        let unfused = run(paper_options());
        let fused = run(CompilerOptions::default());
        assert_eq!(unfused.len(), fused.len(), "output arity must match");
        for (a, b) in unfused.iter().zip(&fused) {
            worst = worst.max(a.max_abs_diff(b) as f64);
        }
    }
    worst
}

/// TPC-VM microbenchmark: the fused kernels' cycle counts against the
/// unfused softmax + matmul pipeline on a Fig. 4-shaped row block.
struct Micro {
    fused_softmax_matmul_cycles: f64,
    unfused_softmax_matmul_cycles: f64,
    fused_attention_cycles: f64,
    score_hbm_bytes_saved: u64,
}

fn micro() -> Micro {
    let cfg = TpcConfig::default();
    let mut rng = SeededRng::new(9);
    // Row softmax fused into the following matmul: x [1, 64, 1024] · v
    // [1, 1024, 64] — the P·V tail of one attention head.
    let x = Tensor::randn(&[1, 64, 1024], 1.0, &mut rng).unwrap();
    let v = Tensor::randn(&[1, 1024, 64], 0.5, &mut rng).unwrap();
    let fused_sm = fused_softmax_matmul_rows(&x, &v, &cfg).expect("fused softmax-matmul launches");
    let (_, unfused_cycles) =
        gaudi_tpc::kernels::unfused_softmax_matmul_cycles(&x, &v, &cfg).expect("reference runs");

    // Full fused attention over a 1024-token context.
    let q = Tensor::randn(&[1, 64, 64], 0.5, &mut rng).unwrap();
    let k = Tensor::randn(&[1, 1024, 64], 0.5, &mut rng).unwrap();
    let vv = Tensor::randn(&[1, 1024, 64], 0.5, &mut rng).unwrap();
    let fused_attn =
        fused_attention_rows(&q, &k, &vv, None, 0.125, &cfg).expect("fused attention launches");
    // The unfused pipeline ships the N×M score matrix through HBM three
    // times (scores out, softmax in/out, probabilities back in).
    let score_bytes = (64 * 1024 * 4) as u64;
    Micro {
        fused_softmax_matmul_cycles: fused_sm.critical_cycles,
        unfused_softmax_matmul_cycles: unfused_cycles,
        fused_attention_cycles: fused_attn.critical_cycles,
        score_hbm_bytes_saved: 3 * score_bytes,
    }
}

pub fn run(pool: &ExecPool, _: &Arc<PlanCache>) -> Outcome {
    let layers = layer_cells(pool);
    let phases = phase_cells(pool);
    let micro = micro();
    let numerics_gap = numerics_gap();

    // Pattern-match statistics on the raw prefill graph.
    let mut gpt = LlmConfig::paper_section_3_4(50257);
    gpt.training = false;
    let (prefill, _) = build_prefill(&gpt, 1, 128).expect("GPT prefill builds");
    let stats = fuse_attention(&prefill).expect("pass runs").1;

    let mut cells = Table::new(
        "cells",
        [
            col("kind", "", 0),
            col("workload", "", 0),
            col("unfused", "ms", 3),
            col("fused", "ms", 3),
            col("speedup", "x", 2),
            col("mme_idle_unfused", "frac", 2),
            col("mme_idle_fused", "frac", 2),
            col("longest_mme_gap_unfused", "ms", 3),
            col("longest_mme_gap_fused", "ms", 3),
        ],
    );
    let kinds = layers.iter().map(|c| ("layer", c));
    for (kind, c) in kinds.chain(phases.iter().map(|c| ("phase", c))) {
        cells.row([
            Value::from(kind),
            c.name.as_str().into(),
            c.unfused_ms.into(),
            c.fused_ms.into(),
            c.speedup().into(),
            c.idle_unfused.into(),
            c.idle_fused.into(),
            c.gap_unfused_ms.into(),
            c.gap_fused_ms.into(),
        ]);
    }
    let mut micro_table = Table::new(
        "micro",
        [
            col("fused_softmax_matmul", "cycles", 0),
            col("unfused_softmax_matmul", "cycles", 0),
            col("fused_attention", "cycles", 0),
            col("score_hbm_saved", "bytes", 0),
        ],
    );
    micro_table.row([
        micro.fused_softmax_matmul_cycles.into(),
        micro.unfused_softmax_matmul_cycles.into(),
        micro.fused_attention_cycles.into(),
        micro.score_hbm_bytes_saved.into(),
    ]);
    let mut checks = Table::new(
        "checks",
        [
            col("pattern_matched_layers", "", 0),
            col("pattern_ops_removed", "", 0),
            col("numerics_max_abs_diff", "", 1),
        ],
    );
    checks.row([
        stats.attention.into(),
        stats.ops_removed.into(),
        numerics_gap.into(),
    ]);

    let mut out = String::new();
    outln!(
        out,
        "Fused-attention TPC/MME kernels against the unfused pipeline. The TPC-VM\n\
         microbenchmark (micro) runs 64 query rows over a 1024-token context at d=64;\n\
         fused attention keeps the S*S score matrix in VLM.\n"
    );

    // ---- Kernel microbenchmark (TPC cycle-counting VM) -----------------
    outln!(
        out,
        "fused softmax+matmul: {:.2}x fewer cycles than the unfused pipeline",
        micro.unfused_softmax_matmul_cycles / micro.fused_softmax_matmul_cycles
    );
    assert!(
        micro.fused_softmax_matmul_cycles < micro.unfused_softmax_matmul_cycles,
        "fused softmax-matmul must beat the unfused kernel pipeline"
    );

    // ---- Pattern-match pass on the GPT prefill graph -------------------
    outln!(
        out,
        "pattern-match pass on GPT prefill: {} attention layers collapsed, \
         {} interior nodes removed\n",
        stats.attention,
        stats.ops_removed
    );
    assert!(
        stats.attention >= 1,
        "the prefill graph must contain the canonical attention pattern"
    );

    outln!(
        out,
        "Reading: the fused kernel folds the softmax into the MME-anchored\n\
         attention node, so the TPC round trips — and the MME idle gaps they\n\
         caused — disappear from the softmax workloads. Linear and Performer\n\
         layers have no softmax->matmul pair and must come out unchanged.\n"
    );

    let by_name = |name: &str| {
        layers
            .iter()
            .chain(&phases)
            .find(|c| c.name == name)
            .expect("cell exists")
    };

    // Fused GPT prefill strictly faster, decode no worse.
    let prefill = by_name("gpt-prefill b1 s128");
    outln!(
        out,
        "gate: fused GPT prefill {:.3} ms strictly below unfused {:.3} ms ({:.2}x)",
        prefill.fused_ms,
        prefill.unfused_ms,
        prefill.speedup()
    );
    assert!(
        prefill.fused_ms < prefill.unfused_ms,
        "fused prefill must be strictly faster: {} vs {}",
        prefill.fused_ms,
        prefill.unfused_ms
    );
    let decode = by_name("gpt-decode b8 ctx1024");
    assert!(
        decode.speedup() >= 1.0,
        "fused decode must not regress: {:.3}x",
        decode.speedup()
    );

    // MME idle fraction strictly reduced on Fig. 4.
    let fig4 = by_name("fig4-softmax");
    outln!(
        out,
        "gate: Fig. 4 MME idle fraction {:.1}% -> {:.1}% (strictly reduced)",
        fig4.idle_unfused * 100.0,
        fig4.idle_fused * 100.0
    );
    assert!(
        fig4.idle_fused < fig4.idle_unfused,
        "the fused kernel must recover MME idle time: {} vs {}",
        fig4.idle_fused,
        fig4.idle_unfused
    );
    assert!(
        fig4.fused_ms < fig4.unfused_ms,
        "Fig. 4 fused layer must be faster outright"
    );

    // Surgical-pass check: pattern-free workloads are untouched.
    for name in ["fig5-linear", "fig6-performer"] {
        let c = by_name(name);
        assert!(
            (c.fused_ms - c.unfused_ms).abs() < 1e-9,
            "{name} has no attention pattern and must be unchanged: {} vs {}",
            c.fused_ms,
            c.unfused_ms
        );
    }
    outln!(
        out,
        "gate: pattern-free workloads (linear, performer) bit-unchanged: true"
    );

    // Exact numerics equivalence.
    outln!(
        out,
        "gate: fused vs unfused numerics on tiny GPT prefill+decode: \
         max |delta| = {:.1} (exactly 0 required)",
        numerics_gap
    );
    assert_eq!(
        numerics_gap, 0.0,
        "fused attention must be bit-exact against the unfused reference"
    );

    Outcome {
        tables: vec![cells, micro_table, checks],
        text: out,
        artifacts: vec![],
    }
}
