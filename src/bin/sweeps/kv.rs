//! KV-admission sweep: paged block size × recipe bucket granularity
//! against contiguous worst-case reservation, at equal HBM.
//!
//! Serves the same saturating §3.4 GPT burst on a device shrunk to a
//! fixed KV token budget, once with the legacy contiguous accountant
//! (each request reserves its worst-case `prompt + output` footprint up
//! front) and once per paged operating point (fixed-size blocks allocated
//! as contexts actually grow, recompute-preemption when the pool runs
//! dry). Every cell pays the quantitative recipe-warmup penalty on each
//! first-use `(phase, ctx bucket, batch bucket)` shape.
//!
//! Gates:
//!
//! 1. **paged admission strictly raises max concurrent sequences** over
//!    contiguous at equal HBM, for every block size;
//! 2. **goodput at saturation is >= 1.0x contiguous** at the sweep's best
//!    block size (finding that operating point is what the sweep is for);
//! 3. **a cold-restarted replica recompiles recipes it already paid
//!    for** — the faulted run restarts once and its compile count strictly
//!    exceeds the clean run's.
//!
//! Tables (`results/kv.json`): `cells`, one row per admission, block size
//! and batch bucket (block 0 is contiguous); `restart`, the clean and
//! restarted runs of gate 3; `summary`, gate 2's best block and goodput
//! ratio.

use crate::cells::{report_values, run_cells, REPORT_COLUMNS};
use crate::table::{col, Table, Value};
use crate::Outcome;
use gaudi_exec::ExecPool;
use gaudi_hw::DeviceId;
use gaudi_serving::{
    FaultPlan, KvAdmissionConfig, PlanCache, RecipeConfig, ServingConfig, ServingReport,
    TrafficConfig,
};
use std::sync::Arc;

/// KV token budget past the weights: small enough that contiguous
/// worst-case reservation — not the decode batch bound — caps concurrency.
const HBM_TOKENS: u64 = 448;
const BLOCK_SIZES: [usize; 3] = [8, 16, 32];
const BATCH_BUCKETS: [usize; 2] = [1, 4];
/// The paged operating point the restart pair uses.
const DEFAULT_BLOCK: usize = 8;

/// The KV-sweep operating point: §3.4 GPT under a saturating burst on a
/// device shrunk to `hbm_tokens` of KV room past the weights, so admission
/// — not compute — caps concurrency. The same stream is then served with
/// contiguous (worst-case reservation) and paged (block-granular)
/// admission; `batch_bucket` sets the recipe-cache bucketing and every
/// cell pays a first-use compile penalty per `(phase, ctx, batch)` shape.
pub fn config(hbm_tokens: u64, batch_bucket: usize) -> ServingConfig {
    let mut cfg = ServingConfig::paper_gpt();
    cfg.traffic = TrafficConfig {
        arrival_rate_per_s: 2000.0,
        num_requests: 80,
        prompt_range: (16, 96),
        output_range: (8, 64),
        zipf_s: 1.1,
        seed: 42,
    };
    cfg.max_batch = 16;
    cfg.ctx_bucket = 32;
    cfg.recipes = RecipeConfig {
        compile_ms: 5.0,
        batch_bucket,
    };
    let worst = cfg.traffic.prompt_range.1 + cfg.traffic.output_range.1;
    let weights = cfg
        .kv_admission
        .weight_bytes(&cfg.model, worst, cfg.kv_dtype);
    let per_tok = cfg
        .kv_admission
        .kv_bytes_per_token(&cfg.model, cfg.kv_dtype);
    cfg.hw.memory.hbm_capacity_bytes = weights + per_tok * hbm_tokens;
    cfg
}

fn paged_cell(block_tokens: usize, batch_bucket: usize) -> ServingConfig {
    config(HBM_TOKENS, batch_bucket)
        .to_builder()
        .kv_admission(KvAdmissionConfig::Paged { block_tokens })
        .build()
}

pub fn run(pool: &ExecPool, cache: &Arc<PlanCache>) -> Outcome {
    // `(block_tokens, batch_bucket)` per cell, block-major; block 0 is the
    // contiguous baseline.
    let grid: Vec<(usize, usize)> = [0]
        .iter()
        .chain(&BLOCK_SIZES)
        .flat_map(|&block| BATCH_BUCKETS.iter().map(move |&bucket| (block, bucket)))
        .collect();
    let cells: Vec<ServingConfig> = grid
        .iter()
        .map(|&(block, bucket)| match block {
            0 => config(HBM_TOKENS, bucket),
            _ => paged_cell(block, bucket),
        })
        .collect();
    let reports = run_cells(pool, cache, &cells);
    let cell_reports = || grid.iter().zip(&reports);
    let admission = |block| if block == 0 { "contiguous" } else { "paged" };

    // Restart pair: pin all work to card 1 (card 0 dies at t=0) so the
    // recipe-compile comparison is not muddied by work moving between
    // replicas, then kill-and-restart card 1 halfway through.
    let mut clean_cfg = paged_cell(DEFAULT_BLOCK, 1);
    clean_cfg.devices = 2;
    clean_cfg.faults = FaultPlan::none().kill(DeviceId(0), 0.0);
    let clean = run_cells(pool, cache, &[clean_cfg.clone()])
        .pop()
        .expect("clean restart baseline ran");
    let mut faulted_cfg = clean_cfg;
    faulted_cfg.faults = FaultPlan::none().kill(DeviceId(0), 0.0).kill_for(
        DeviceId(1),
        clean.makespan_ms * 0.5,
        40.0,
    );
    let faulted = run_cells(pool, cache, &[faulted_cfg])
        .pop()
        .expect("faulted restart cell ran");

    let mut t = Table::new(
        "cells",
        [
            col("admission", "", 0),
            col("block", "tok", 0),
            col("batch_bucket", "", 0),
        ]
        .into_iter()
        .chain(REPORT_COLUMNS),
    );
    for (&(block, bucket), r) in cell_reports() {
        t.row(
            [Value::from(admission(block)), block.into(), bucket.into()]
                .into_iter()
                .chain(report_values(r)),
        );
    }
    let mut restart = Table::new(
        "restart",
        [col("cell", "", 0), col("restarts", "", 0)]
            .into_iter()
            .chain(REPORT_COLUMNS),
    );
    for (cell, r) in [("clean", &clean), ("restart", &faulted)] {
        restart.row(
            [Value::from(cell), r.restarts.into()]
                .into_iter()
                .chain(report_values(r)),
        );
    }

    let mut out = String::new();
    outln!(
        out,
        "KV admission, paged blocks vs contiguous reservation at equal HBM: paper GPT,\n\
         saturating 80-request burst, KV budget {HBM_TOKENS} tokens past the weights,\n\
         recipe warmup 5 ms/shape.\n"
    );
    outln!(
        out,
        "Reading: contiguous admission reserves every request's worst-case\n\
         footprint, so a handful of long requests starve the device; paged\n\
         admission charges only the blocks a context actually occupies,\n\
         packing more concurrent sequences into the same HBM. Coarser batch\n\
         buckets compile fewer recipes at the price of padding waste.\n"
    );

    // The gates compare each block size at the finest batch bucket.
    let base = &reports[0];
    let paged: Vec<(usize, &ServingReport)> = cell_reports()
        .filter(|((block, bucket), _)| *block > 0 && *bucket == BATCH_BUCKETS[0])
        .map(|(&(block, _), r)| (block, r))
        .collect();

    // 1. Paged strictly raises max concurrent sequences, every block size.
    for &(block, p) in &paged {
        assert!(
            p.peak_running > base.peak_running,
            "paged (block {block}) must beat contiguous concurrency: {} vs {}",
            p.peak_running,
            base.peak_running
        );
    }
    outln!(
        out,
        "peak concurrent sequences: contiguous {} -> paged {:?} (gate: strictly higher)",
        base.peak_running,
        paged
            .iter()
            .map(|(_, p)| p.peak_running)
            .collect::<Vec<_>>()
    );

    // 2. Goodput at saturation >= 1.0x contiguous at the best block size.
    let &(best_block, best_paged) = paged
        .iter()
        .max_by(|a, b| {
            a.1.goodput_tokens_per_s
                .total_cmp(&b.1.goodput_tokens_per_s)
        })
        .expect("the paged grid is non-empty");
    let goodput_ratio = best_paged.goodput_tokens_per_s / base.goodput_tokens_per_s;
    outln!(
        out,
        "goodput at saturation (best block {best_block}): paged {:.0} / contiguous {:.0} \
         = {goodput_ratio:.3}x (gate: >= 1.0x)",
        best_paged.goodput_tokens_per_s,
        base.goodput_tokens_per_s
    );
    assert!(
        goodput_ratio >= 1.0,
        "paged admission must not lose goodput at equal HBM, got {goodput_ratio:.3}x"
    );

    // 3. A cold-restarted replica pays recipe warmup again.
    assert_eq!(faulted.restarts, 1, "the killed card must come back");
    outln!(
        out,
        "recipe compiles: clean {} -> with restart {} (gate: strictly higher)",
        clean.recipe_compiles,
        faulted.recipe_compiles
    );
    assert!(
        faulted.recipe_compiles > clean.recipe_compiles,
        "a restarted replica must recompile shapes it already paid for \
         ({} vs {})",
        faulted.recipe_compiles,
        clean.recipe_compiles
    );

    let mut summary = Table::new(
        "summary",
        [col("best_block", "tok", 0), col("goodput_ratio", "x", 3)],
    );
    summary.row([best_block.into(), goodput_ratio.into()]);
    Outcome {
        tables: vec![t, restart, summary],
        text: out,
        artifacts: vec![],
    }
}
