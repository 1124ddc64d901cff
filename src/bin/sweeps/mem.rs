//! Static memory planning: packed activation arenas against the naive
//! sum-of-tensors budget, and what the reclaimed HBM buys at admission.
//!
//! Two halves. First, the planner table: the compiler's lifetime /
//! in-placing / best-fit packing pass runs over real phase graphs (§3.4
//! GPT prefill and decode, §3.3 BERT MLM) and reports the naive no-reuse
//! footprint, the live-byte peak, and the packed arena extent per graph.
//! Second, the serving sweep: the same saturating GPT burst is served at
//! *equal HBM* under the three [`ActivationBudget`]s — `Off` (legacy: no
//! activation charge), `Unplanned` (reserve the naive sum), and `Planned`
//! (reserve the packed arena) — so the gap between the last two is purely
//! the planner's reclaimed headroom, surfaced as extra paged-KV blocks.
//!
//! Gates:
//!
//! 1. **the packed arena is strictly below the naive baseline**, and the
//!    live-byte peak no larger than the arena, on every planned graph
//!    (GPT prefill, GPT decode, BERT);
//! 2. every budget completes every request (budgets stall, never drop);
//! 3. **the planned budget strictly raises max concurrent sequences**
//!    over the unplanned budget at equal HBM;
//! 4. **goodput at saturation is >= 1.0x unplanned** — reclaiming memory
//!    must never cost throughput.
//!
//! Tables (`results/mem.json`): `plans`, one row per planned graph;
//! `reserve`, the admission reserve under both budgets and the KV tokens
//! it reclaims; `cells`, one row per budget; `summary`, gate 4's goodput
//! ratio.

use crate::cells::{report_values, run_cells, REPORT_COLUMNS};
use crate::table::{col, Table, Value};
use crate::Outcome;
use gaudi_compiler::{plan_memory, MemoryPlan};
use gaudi_exec::ExecPool;
use gaudi_graph::Graph;
use gaudi_models::{build_decode_step, build_prefill, BertConfig, LlmConfig};
use gaudi_serving::{
    activation_estimate, ActivationBudget, KvAdmissionConfig, PlanCache, ServingConfig,
};
use std::sync::Arc;

/// KV token budget past weights + naive activation: small enough that the
/// Unplanned cell is admission-bound, so the planner's reclaimed headroom
/// is the only difference between the last two cells.
const HBM_TOKENS: u64 = 224;

const BUDGETS: [ActivationBudget; 3] = [
    ActivationBudget::Off,
    ActivationBudget::Unplanned,
    ActivationBudget::Planned,
];

fn budget_name(b: ActivationBudget) -> &'static str {
    match b {
        ActivationBudget::Off => "off",
        ActivationBudget::Unplanned => "unplanned",
        ActivationBudget::Planned => "planned",
    }
}

/// The memory-sweep operating point: the §3.4 GPT under the KV sweep's
/// saturating burst, paged admission, and a device sized to
/// `weights + naive-activation + hbm_tokens of KV`. Under the `Unplanned`
/// budget that leaves exactly `hbm_tokens` of KV blocks; under `Planned`
/// the packed arena is smaller than the naive sum and the reclaimed
/// difference becomes extra KV blocks at the *same* HBM capacity — the
/// sweep measures what that headroom buys in admission concurrency.
fn config(budget: ActivationBudget, hbm_tokens: u64) -> ServingConfig {
    let mut cfg = crate::kv::config(hbm_tokens, 1);
    cfg.kv_admission = KvAdmissionConfig::Paged { block_tokens: 8 };
    cfg.activation_budget = budget;
    let (_, naive) = activation_estimate(&cfg).expect("sweep phases compile");
    let worst = cfg.traffic.prompt_range.1 + cfg.traffic.output_range.1;
    let weights = cfg
        .kv_admission
        .weight_bytes(&cfg.model, worst, cfg.kv_dtype);
    let per_tok = cfg
        .kv_admission
        .kv_bytes_per_token(&cfg.model, cfg.kv_dtype);
    cfg.hw.memory.hbm_capacity_bytes = weights + naive + per_tok * hbm_tokens;
    cfg
}

/// The planned phase graphs: §3.4 GPT serving phases and the §3.3 BERT
/// MLM forward graph.
fn planner_graphs() -> Vec<(&'static str, Graph)> {
    let mut gpt = LlmConfig::paper_section_3_4(50257);
    gpt.training = false;
    let (prefill, _) = build_prefill(&gpt, 1, 128).expect("GPT prefill builds");
    let (decode, _) = build_decode_step(&gpt, 8, 1024).expect("GPT decode builds");
    let (bert, _) = gaudi_models::bert::build_bert_mlm(&BertConfig::paper()).expect("BERT builds");
    vec![
        ("gpt-prefill b1 s128", prefill),
        ("gpt-decode b8 ctx1024", decode),
        ("bert-mlm", bert),
    ]
}

pub fn run(pool: &ExecPool, cache: &Arc<PlanCache>) -> Outcome {
    // ---- Planner table -------------------------------------------------
    let plans: Vec<(&str, MemoryPlan)> = planner_graphs()
        .iter()
        .map(|(label, g)| (*label, plan_memory(g)))
        .collect();
    let mut t = Table::new(
        "plans",
        [
            col("graph", "", 0),
            col("naive", "bytes", 0),
            col("peak", "bytes", 0),
            col("arena", "bytes", 0),
            col("inplaced", "", 0),
            col("reuse", "x", 2),
        ],
    );
    for (label, plan) in &plans {
        t.row([
            Value::from(*label),
            plan.naive_bytes.into(),
            plan.peak_bytes.into(),
            plan.arena_bytes.into(),
            plan.inplaced.into(),
            plan.reuse_factor().into(),
        ]);
    }
    let mut out = String::new();
    outln!(
        out,
        "Static HBM memory planning, packed arenas feeding KV admission.\n"
    );
    outln!(
        out,
        "Reading (plans): the naive column is what a planner-less budget reserves\n\
         (every activation tensor, no reuse); the arena column is the packed\n\
         extent after lifetime analysis and in-placing — the number admission\n\
         charges under the Planned budget.\n"
    );

    // 1. The packed arena strictly beats the naive baseline per graph.
    for (label, plan) in &plans {
        assert!(
            plan.arena_bytes < plan.naive_bytes,
            "{label}: arena {} must be strictly below naive {}",
            plan.arena_bytes,
            plan.naive_bytes
        );
        assert!(plan.peak_bytes <= plan.arena_bytes);
    }
    outln!(
        out,
        "planned arena strictly below naive baseline on every graph: true"
    );

    // ---- Serving sweep at equal HBM ------------------------------------
    let probe = config(ActivationBudget::Off, HBM_TOKENS);
    let (planned_bytes, naive_bytes) = activation_estimate(&probe).expect("sweep phases compile");
    let per_tok = probe
        .kv_admission
        .kv_bytes_per_token(&probe.model, probe.kv_dtype);
    let reclaimed_tokens = (naive_bytes - planned_bytes) / per_tok;
    let mut reserve = Table::new(
        "reserve",
        [
            col("planned", "bytes", 0),
            col("naive", "bytes", 0),
            col("reclaimed", "tok", 0),
        ],
    );
    reserve.row([
        planned_bytes.into(),
        naive_bytes.into(),
        reclaimed_tokens.into(),
    ]);

    let cells: Vec<_> = BUDGETS.iter().map(|&b| config(b, HBM_TOKENS)).collect();
    let reports = run_cells(pool, cache, &cells);
    let mut budgets = Table::new(
        "cells",
        std::iter::once(col("budget", "", 0)).chain(REPORT_COLUMNS),
    );
    for (&budget, r) in BUDGETS.iter().zip(&reports) {
        budgets.row(std::iter::once(Value::from(budget_name(budget))).chain(report_values(r)));
    }
    outln!(
        out,
        "Reading (cells): all three cells run on the *same* device capacity. The\n\
         unplanned budget holds back the naive activation sum, starving the\n\
         block pool; the planned budget holds back only the packed arena and\n\
         turns the difference into concurrent sequences.\n"
    );

    let unplanned = &reports[1];
    let planned = &reports[2];
    for r in &reports {
        assert_eq!(
            r.completed.len(),
            r.offered,
            "activation budgets stall, never drop"
        );
    }

    // 2. Planned strictly raises max concurrent sequences over unplanned.
    outln!(
        out,
        "peak concurrent sequences: unplanned {} -> planned {} (gate: strictly higher)",
        unplanned.peak_running,
        planned.peak_running
    );
    assert!(
        planned.peak_running > unplanned.peak_running,
        "the reclaimed arena headroom must raise concurrency: {} vs {}",
        planned.peak_running,
        unplanned.peak_running
    );

    // 3. Goodput at saturation >= 1.0x unplanned at equal HBM.
    let goodput_ratio = planned.goodput_tokens_per_s / unplanned.goodput_tokens_per_s;
    outln!(
        out,
        "goodput at saturation: planned {:.0} / unplanned {:.0} = {goodput_ratio:.3}x \
         (gate: >= 1.0x)",
        planned.goodput_tokens_per_s,
        unplanned.goodput_tokens_per_s
    );
    assert!(
        goodput_ratio >= 1.0,
        "planning must not lose goodput at equal HBM, got {goodput_ratio:.3}x"
    );

    let mut summary = Table::new("summary", [col("goodput_ratio", "x", 3)]);
    summary.row([goodput_ratio.into()]);
    Outcome {
        tables: vec![t, reserve, budgets, summary],
        text: out,
        artifacts: vec![],
    }
}
