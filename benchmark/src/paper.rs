//! Fidelity against the paper: the benchmark's own copy of the paper's
//! reference values, the simulator's error against them, and the shape
//! bands every reproduction must stay inside.
//!
//! The references are copied here on purpose: the simulator keeps its own
//! copies next to its experiments, and a change there must not move the
//! yardstick this benchmark measures against.

use crate::trace::timed;
use gaudi_bench::experiments::layer_figs::{fig4_softmax, fig5_linear, fig6_performer};
use gaudi_bench::{
    activation_sweep, einsum_ablation, fusion_ablation, llm_experiment, scheduler_ablation, table2,
    LlmKind,
};
use gaudi_hw::EngineId;
use std::time::Instant;

/// Table 2 of the paper: `(size, T_MME ms, F_MME TFLOPS, T_TPC ms, F_TPC
/// TFLOPS, speedup)`. The model was tuned on these values.
const TABLE2: [(usize, [f64; 5]); 5] = [
    (128, [7.31, 2.35, 9.21, 1.86, 1.3]),
    (256, [11.78, 11.67, 67.04, 2.05, 5.7]),
    (512, [76.51, 14.37, 516.60, 2.13, 6.7]),
    (1024, [151.03, 14.56, 1006.30, 2.18, 6.7]),
    (2048, [338.27, 14.59, 2247.80, 2.19, 6.6]),
];

/// Figure 5: linear-attention layer time, ms.
const FIG5_MS: f64 = 30.0;
/// Figure 6: Performer layer time, ms.
const FIG6_MS: f64 = 80.0;
/// Figure 5 text: linear attention's speedup over softmax.
const FIG5_SPEEDUP: f64 = 6.0;
/// Figure 6 text: Performer's speedup over softmax.
const FIG6_SPEEDUP: f64 = 2.0;
/// Figure 7: ReLU, LeakyReLU, GELU, GLU layer times, ms.
const FIG7_MS: [(&str, f64); 4] = [
    ("relu", 30.1),
    ("leaky_relu", 30.2),
    ("gelu", 29.7),
    ("glu", 32.6),
];
/// Figure 4 text: softmax takes over 80% of TPC time.
const FIG4_SOFTMAX_SHARE: f64 = 0.80;

/// The simulator's paper reproductions, scored.
#[derive(Debug, Clone, Default)]
pub struct Fidelity {
    /// Mean absolute relative error over all 25 Table 2 values, %.
    pub calib_err_pct: f64,
    /// Mean absolute relative error over the held-out figure values, %.
    pub paper_err_pct: f64,
    /// Per-engine observations of Figures 4 and 8.
    pub figs: Figs,
    /// Every compared value: `(name, simulated, paper)`.
    pub detail: Vec<(String, f64, f64)>,
}

/// What the paper reads off the Figure 4 and Figure 8 timelines.
#[derive(Debug, Clone, Default)]
pub struct Figs {
    pub fig4_ms: f64,
    pub fig4_mme_idle_frac: f64,
    pub fig4_longest_gap_frac: f64,
    pub fig4_softmax_tpc_share: f64,
    pub fig8_ms: f64,
    pub fig8_mme_util: f64,
    pub fig8_overlap: f64,
    pub fig8_peak_hbm_gib: f64,
}

fn mean_abs_rel_err_pct(rows: &[(String, f64, f64)]) -> f64 {
    100.0
        * rows
            .iter()
            .map(|(_, s, p)| ((s - p) / p).abs())
            .sum::<f64>()
        / rows.len() as f64
}

fn err(e: impl std::fmt::Display) -> String {
    format!("paper experiment failed: {e}")
}

fn band(ok: bool, what: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("paper_bands: {what}"))
    }
}

/// Run Tables 1–2, Figures 4–9 and ablations A1, A2, A5, check every
/// result against the paper's shape, and score the error. `done` gets each
/// experiment's name and start time as it ends, so a traced run can time it.
pub fn fidelity(done: &mut dyn FnMut(&'static str, Instant)) -> Result<Fidelity, String> {
    let rows1 = timed(done, "table1", gaudi_compiler::table1);
    band(rows1.len() == 9, "Table 1 has nine rows")?;
    band(
        rows1.iter().filter(|r| r.mapping == EngineId::Mme).count() == 1,
        "only matmul maps to the MME",
    )?;

    let t2 = timed(done, "table2", table2);
    band(t2.len() == TABLE2.len(), "Table 2 has five rows")?;
    let mut calib = Vec::new();
    for (r, (size, paper)) in t2.iter().zip(TABLE2) {
        band(r.size == size, "Table 2 sizes")?;
        let sim = [r.t_mme_ms, r.f_mme, r.t_tpc_ms, r.f_tpc, r.speedup];
        for ((name, s), p) in ["t_mme_ms", "f_mme", "t_tpc_ms", "f_tpc", "speedup"]
            .iter()
            .zip(sim)
            .zip(paper)
        {
            calib.push((format!("table2.{size}.{name}"), s, p));
        }
        band(
            ((r.f_mme - paper[1]) / paper[1]).abs() < 0.25,
            "MME TFLOPS within 25% of Table 2",
        )?;
        band((1.5..2.5).contains(&r.f_tpc), "TPC stays near 2 TFLOPS")?;
        band(
            (0.5..2.0).contains(&(r.t_mme_ms / paper[0]))
                && (0.5..2.0).contains(&(r.t_tpc_ms / paper[2])),
            "Table 2 times within 2x of the paper",
        )?;
    }
    band(t2[0].speedup < 2.0, "MME barely wins at size 128")?;
    band(
        t2[1..].iter().all(|r| (4.5..8.0).contains(&r.speedup)),
        "MME wins 4.5-8x from size 256",
    )?;
    band(
        t2[0].f_mme < t2[4].f_mme / 4.0 && t2[4].f_tpc / t2[0].f_tpc < 1.5,
        "MME ramps while TPC stays flat",
    )?;

    let mut layers = Vec::new();
    for (name, f) in [
        ("fig4_softmax", fig4_softmax as fn() -> _),
        ("fig5_linear", fig5_linear),
        ("fig6_performer", fig6_performer),
    ] {
        layers.push(timed(done, name, f).map_err(err)?);
    }
    let (f4, f5, f6) = (&layers[0], &layers[1], &layers[2]);
    band(
        f4.softmax_share_of_tpc > FIG4_SOFTMAX_SHARE && f4.mme_util < 0.6,
        "Fig. 4: softmax dominates TPC, MME mostly idle",
    )?;
    band(f4.longest_mme_gap_ms > 1.0, "Fig. 4: a long MME gap")?;
    let (s5, s6) = (f4.total_ms / f5.total_ms, f4.total_ms / f6.total_ms);
    band(
        (4.0..9.0).contains(&s5) && f5.mme_util > f4.mme_util + 0.2,
        "Fig. 5: linear attention ~6x faster with a busy MME",
    )?;
    band(
        (1.4..4.0).contains(&s6) && f6.total_ms > f5.total_ms,
        "Fig. 6: Performer sits between",
    )?;
    band(f6.longest_mme_gap_ms > 0.5, "Fig. 6: un-overlapped MME gap")?;

    let sweep = timed(done, "fig7_activations", activation_sweep).map_err(err)?;
    let time = |n: &str| {
        sweep
            .iter()
            .find(|(name, _)| name == n)
            .map(|(_, f)| f.total_ms)
            .ok_or_else(|| format!("paper_bands: Fig. 7 has no {n} run"))
    };
    let (relu, leaky, gelu, glu) = (
        time("relu")?,
        time("leaky_relu")?,
        time("gelu")?,
        time("glu")?,
    );
    let (base, top) = (relu.min(leaky).min(gelu), relu.max(leaky).max(gelu));
    band(
        top / base < 1.10 && glu > top && glu / base < 1.35,
        "Fig. 7: GLU modestly slowest, the rest clustered",
    )?;

    let mut llm = Vec::new();
    for (name, kind) in [("fig8_gpt", LlmKind::Gpt), ("fig9_bert", LlmKind::Bert)] {
        let fig = timed(done, name, || llm_experiment(kind)).map_err(err)?;
        band(
            fig.mme_util < 0.75 && fig.tpc_util > 0.3 && fig.overlap < 0.3,
            "Figs. 8-9: MME idle while TPC busy, little overlap",
        )?;
        band(
            fig.mme_gaps > 10 && fig.fits_hbm && fig.mme_util + fig.tpc_util < 1.05,
            "Figs. 8-9: many MME gaps, fits 32 GB",
        )?;
        llm.push(fig);
    }
    band(
        llm[0].total_ms > llm[1].total_ms,
        "GPT step slower than BERT",
    )?;

    let (inorder, overlap) =
        timed(done, "ablation_a1_scheduler", scheduler_ablation).map_err(err)?;
    band(
        overlap.total_ms < inorder.total_ms - 0.5,
        "A1: the overlap scheduler recovers time",
    )?;
    let (naive, lowered) = timed(done, "ablation_a2_einsum", einsum_ablation).map_err(err)?;
    band(
        naive / lowered > 2.0,
        "A2: einsum lowering wins severalfold",
    )?;
    let (unfused, fused) = timed(done, "ablation_a5_fusion", fusion_ablation).map_err(err)?;
    band(fused.total_ms < unfused.total_ms, "A5: fusion saves time")?;

    let mut held_out = vec![
        ("fig5.linear_ms".to_string(), f5.total_ms, FIG5_MS),
        ("fig6.performer_ms".to_string(), f6.total_ms, FIG6_MS),
        ("fig5.speedup".to_string(), s5, FIG5_SPEEDUP),
        ("fig6.speedup".to_string(), s6, FIG6_SPEEDUP),
        (
            "fig4.softmax_tpc_share".to_string(),
            f4.softmax_share_of_tpc,
            FIG4_SOFTMAX_SHARE,
        ),
    ];
    for (name, paper) in FIG7_MS {
        held_out.push((format!("fig7.{name}_ms"), time(name)?, paper));
    }
    let gpt = &llm[0];
    let figs = Figs {
        fig4_ms: f4.total_ms,
        fig4_mme_idle_frac: 1.0 - f4.mme_util,
        fig4_longest_gap_frac: f4.longest_mme_gap_ms / f4.total_ms,
        fig4_softmax_tpc_share: f4.softmax_share_of_tpc,
        fig8_ms: gpt.total_ms,
        fig8_mme_util: gpt.mme_util,
        fig8_overlap: gpt.overlap,
        fig8_peak_hbm_gib: gpt.peak_hbm_bytes as f64 / f64::from(1u32 << 30),
    };
    let calib_err_pct = mean_abs_rel_err_pct(&calib);
    let paper_err_pct = mean_abs_rel_err_pct(&held_out);
    calib.extend(held_out);
    Ok(Fidelity {
        calib_err_pct,
        paper_err_pct,
        figs,
        detail: calib,
    })
}
