//! Golden pin: the dispatch-structure refactor (BTreeMap → event calendar,
//! ready-indexed replica stepping) must be invisible in the results.
//!
//! The FNV-1a hashes below were captured from the PR-6 engine (the
//! `BTreeMap<(u64, u64), Job>` dispatcher) on fixed configurations that
//! exercise the fault-free shard path, the event-driven faulted path with a
//! restart, and paged admission with recipe warmup. The refactored engine
//! must reproduce every report **bit-for-bit** — same floats, same order,
//! same trace — so these hashes are frozen and CI runs them on every push.
//!
//! The multi-card cells also pin a *schedule* digest (`schedule_digest`)
//! that leaves out the per-card gauges and up-times. A change to how
//! reports merge may re-pin a full digest, but only while every schedule
//! digest holds.

use habana_gaudi_study::prelude::*;
use habana_gaudi_study::serving::{simulate, simulate_cluster, ClusterConfig, ClusterReport};

/// FNV-1a over the full `Debug` rendering of a report: every field, every
/// per-request outcome, every trace event, bit-for-bit. Rust's float
/// `Debug` formatting is exact (shortest round-trip), so two reports hash
/// equal iff they are numerically identical.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn digest(r: &ServingReport) -> u64 {
    fnv1a(&format!("{r:?}"))
}

/// The report with the per-card gauges zeroed and the up-times cleared:
/// every record, counter, percentile and token rate, none of the figures
/// derived from summed busy time or per-card KV and up-time.
fn schedule_view(r: &ServingReport) -> ServingReport {
    ServingReport {
        mme_utilization: 0.0,
        tpc_utilization: 0.0,
        dma_utilization: 0.0,
        nic_utilization: 0.0,
        kv_block_utilization: 0.0,
        replica_uptime_ms: Vec::new(),
        ..r.clone()
    }
}

/// FNV-1a over the [`schedule_view`] of a report: what was simulated,
/// apart from how the gauges are associated. A change to the report
/// merge may move [`digest`] through a gauge's last ulp or a card's
/// up-time; it must never move this one.
fn schedule_digest(r: &ServingReport) -> u64 {
    digest(&schedule_view(r))
}

fn base_config(devices: usize) -> ServingConfig {
    let mut model = habana_gaudi_study::models::LlmConfig::tiny(97);
    model.training = false;
    ServingConfig::builder()
        .model(model)
        .traffic(TrafficConfig {
            arrival_rate_per_s: 400.0,
            num_requests: 40,
            prompt_range: (8, 64),
            output_range: (4, 16),
            zipf_s: 1.1,
            seed: 2024,
        })
        .max_batch(4)
        .ctx_bucket(32)
        .devices(devices)
        .build()
}

#[test]
fn single_box_fault_free_report_matches_the_pre_refactor_engine() {
    let r = simulate(&base_config(1)).unwrap();
    assert_eq!(r.completed.len(), 40);
    assert_eq!(
        digest(&r),
        GOLDEN_SINGLE,
        "fault-free single-card report drifted"
    );
}

#[test]
fn multi_replica_report_matches_the_pre_refactor_engine() {
    let r = simulate(&base_config(4)).unwrap();
    assert_eq!(r.completed.len(), 40);
    assert_eq!(
        digest(&r),
        GOLDEN_REPLICAS,
        "4-replica merged report drifted"
    );
    assert_eq!(schedule_digest(&r), SCHEDULE_REPLICAS);
}

#[test]
fn faulted_restart_report_matches_the_pre_refactor_engine() {
    let mut cfg = base_config(3);
    cfg.faults = FaultPlan::none().kill_for(DeviceId(2), 15.0, 30.0);
    cfg.robustness = RobustnessConfig::default()
        .queue_depth(16)
        .retries(4)
        .backoff(2.0, 0.5, 5);
    let r = simulate(&cfg).unwrap();
    assert_eq!(r.restarts, 1);
    assert_eq!(
        digest(&r),
        GOLDEN_RESTART,
        "faulted event-loop report drifted"
    );
    assert_eq!(schedule_digest(&r), SCHEDULE_RESTART);
}

#[test]
fn paged_warmup_report_matches_the_pre_refactor_engine() {
    let mut cfg = base_config(2);
    cfg.kv_admission = KvAdmissionConfig::Paged { block_tokens: 8 };
    cfg.recipes = RecipeConfig {
        compile_ms: 4.0,
        batch_bucket: 2,
    };
    let r = simulate(&cfg).unwrap();
    assert_eq!(r.completed.len(), 40);
    assert_eq!(digest(&r), GOLDEN_PAGED, "paged+warmup report drifted");
    assert_eq!(schedule_digest(&r), SCHEDULE_PAGED);
}

/// The one cell on the overload paths: a TTFT deadline that times queued
/// requests out and drops prefills it cannot meet, a queue bound that
/// sheds, a paged pool small enough to preempt, 1 ms checkpoints whose
/// snapshots restore, and a transient kill at 30% of the clean makespan
/// lasting 20% of it, on one box of three cards.
fn deadline_config() -> ServingConfig {
    let mut cfg = base_config(3);
    cfg.traffic = TrafficConfig {
        arrival_rate_per_s: 1_000.0,
        num_requests: 300,
        prompt_range: (8, 64),
        output_range: (4, 32),
        zipf_s: 1.1,
        seed: 2024,
    };
    cfg.kv_admission = KvAdmissionConfig::Paged { block_tokens: 8 };
    let worst = cfg.traffic.prompt_range.1 + cfg.traffic.output_range.1;
    let weights = cfg
        .kv_admission
        .weight_bytes(&cfg.model, worst, cfg.kv_dtype);
    let per_token = cfg
        .kv_admission
        .kv_bytes_per_token(&cfg.model, cfg.kv_dtype);
    cfg.hw.memory.hbm_capacity_bytes = weights + per_token * 104;
    cfg.robustness = RobustnessConfig::default()
        .queue_depth(8)
        .ttft_deadline(40.0)
        .retries(3)
        .backoff(2.0, 0.5, 2024)
        .checkpoint(1.0, 64e9);
    let clean_ms = simulate(&cfg).unwrap().makespan_ms;
    cfg.faults = FaultPlan::none().kill_for(DeviceId(1), 0.3 * clean_ms, 0.2 * clean_ms);
    cfg
}

#[test]
fn deadline_shed_and_restore_report_is_pinned() {
    let r = simulate(&deadline_config()).unwrap();
    assert_eq!(r.offered, 300);
    assert!(r.shed() > 0, "the queue bound must shed");
    assert!(
        r.timed_out() > 0,
        "the TTFT deadline must time requests out"
    );
    assert!(r.preemptions > 0, "the paged pool must run dry");
    assert_eq!(r.restarts, 1);
    assert!(r.recovered_tokens > 0, "a snapshot must restore");
    assert_eq!(digest(&r), GOLDEN_DEADLINE, "deadline cell report drifted");
    assert_eq!(schedule_digest(&r), SCHEDULE_DEADLINE);
}

/// Digest of a whole cluster run: the cluster report (every replica of
/// every box folded into one tally) plus routing telemetry and per-box
/// slices.
fn cluster_digest(c: &ClusterReport) -> u64 {
    fnv1a(&format!("{c:?}"))
}

/// [`schedule_digest`] of a cluster run: the merged report's schedule
/// view plus the routing telemetry and each box's own slice.
fn cluster_schedule_digest(c: &ClusterReport) -> u64 {
    let mut s = format!(
        "{:?} {} {:?}",
        schedule_view(&c.report),
        c.cross_box_requests,
        c.cross_box_delay_ms
    );
    for b in &c.per_box {
        s += &format!(
            " {} {} {} {:?} {:?}",
            b.offered, b.completed, b.routed_tokens, b.goodput_tokens_per_s, b.makespan_ms
        );
    }
    fnv1a(&s)
}

#[test]
fn round_robin_cluster_report_is_pinned() {
    let c = simulate_cluster(&ClusterConfig::new(base_config(2), 3, 2)).unwrap();
    assert_eq!(c.report.completed.len(), 40);
    assert_eq!(
        cluster_digest(&c),
        GOLDEN_CLUSTER,
        "3-box round-robin cluster report drifted"
    );
    assert_eq!(cluster_schedule_digest(&c), SCHEDULE_CLUSTER);
}

#[test]
fn faulted_checkpointed_cluster_report_is_pinned() {
    let mut cfg = ClusterConfig::new(base_config(2), 2, 2);
    cfg.box_config.faults = FaultPlan::none().kill_for(DeviceId(1), 15.0, 30.0);
    cfg.box_config.robustness = RobustnessConfig::unlimited().checkpoint(4.0, 64e9);
    let c = simulate_cluster(&cfg).unwrap();
    assert_eq!(c.report.restarts, 2);
    assert!(c.report.checkpoint_bytes > 0);
    assert_eq!(
        cluster_digest(&c),
        GOLDEN_CLUSTER_FAULTED,
        "faulted checkpointed cluster report drifted"
    );
    assert_eq!(cluster_schedule_digest(&c), SCHEDULE_CLUSTER_FAULTED);
}

#[test]
fn activation_budget_off_is_bit_identical_to_the_seed() {
    // The memory planner is opt-in: with the default `Off` budget the
    // admission math, the compile counts, and every float in the report
    // must match the pre-planner engine exactly.
    let mut cfg = base_config(1);
    cfg.activation_budget = ActivationBudget::Off;
    let r = simulate(&cfg).unwrap();
    assert_eq!(
        digest(&r),
        GOLDEN_SINGLE,
        "ActivationBudget::Off must not perturb the seed report"
    );
}

#[test]
fn fused_attention_off_is_bit_identical_to_the_seed() {
    // The fused-attention pass is the PR-9 semantic change that moved the
    // GOLDEN_* constants. With the pass disabled the whole serving stack —
    // cost model, recipe keys, dispatch — must reproduce the pre-fusion
    // (PR-8) reports bit-for-bit. This is the escape hatch's contract.
    let off = CompilerOptions {
        fuse_attention: false,
        ..CompilerOptions::default()
    };

    let mut cfg = base_config(1);
    cfg.opts = off.clone();
    assert_eq!(
        digest(&simulate(&cfg).unwrap()),
        PRE_FUSION_SINGLE,
        "fused-off single-card report drifted from the PR-8 engine"
    );

    let mut cfg = base_config(2);
    cfg.opts = off;
    cfg.kv_admission = KvAdmissionConfig::Paged { block_tokens: 8 };
    cfg.recipes = RecipeConfig {
        compile_ms: 4.0,
        batch_bucket: 2,
    };
    let r = simulate(&cfg).unwrap();
    assert_eq!(
        digest(&r),
        PRE_FUSION_PAGED,
        "fused-off paged+warmup report drifted from the PR-8 engine"
    );
    assert_eq!(schedule_digest(&r), SCHEDULE_PRE_FUSION_PAGED);
}

// Captured from the PR-10 engine; see module docs. Regenerate only for an
// *intentional* semantic change, never for a dispatch-plumbing refactor.
// PR-10 moved every digest deliberately: `ServingReport` grew the
// `checkpoint_bytes` / `restore_ms` / `recovered_tokens` recovery fields
// (all zero in these checkpoint-free cells — the simulated schedules are
// unchanged), and the hash covers the full `Debug` rendering.
// The fault-free availability fix re-pinned the three multi-card digests
// (and `PRE_FUSION_PAGED` below): in a merged box report, a replica that
// ended the run up now stays up through the box makespan. Only
// `replica_uptime_ms` moved; no schedule did.
// The one-fold report merge re-pinned `GOLDEN_RESTART` and `GOLDEN_PAGED`
// (and both cluster digests below): multi-card gauges are now summed busy
// time over `makespan × devices` instead of re-derived from per-replica
// utilizations, which moved a `*_utilization` or `kv_block_utilization`
// value in its last ulp. Every schedule digest held.
const GOLDEN_SINGLE: u64 = 16291629228079148197;
const GOLDEN_REPLICAS: u64 = 18410886921965118692;
const GOLDEN_RESTART: u64 = 2909279505147801605;
const GOLDEN_PAGED: u64 = 7435749641712333233;

// The PR-8 (pre-fused-attention) *schedules*, frozen: `fuse_attention(false)`
// must keep reproducing those simulated timings forever. The hashes were
// re-captured in PR-10 for the report-struct growth above.
const PRE_FUSION_SINGLE: u64 = 3821713689838433894;
// `PRE_FUSION_PAGED` was re-pinned by the availability fix above.
const PRE_FUSION_PAGED: u64 = 12180978981740129672;

// Cluster runs (`simulate_cluster` → per-box engines → one fold over every
// box), re-pinned by the one-fold merge: besides last-ulp gauge moves, the
// cluster report's up-times now extend to the cluster makespan, and
// `BoxSummary` dropped the recovery counters the report already carries.
const GOLDEN_CLUSTER: u64 = 642116501246283370;
const GOLDEN_CLUSTER_FAULTED: u64 = 14101634374267863;

// Schedule digests of the six multi-card cells (see `schedule_digest`),
// captured before the report merge became one fold. Unlike the full
// digests above they do not cover the per-card gauges, so a merge that
// only re-associates those gauges leaves them fixed.
const SCHEDULE_REPLICAS: u64 = 13722049715674713614;
const SCHEDULE_RESTART: u64 = 4712551508918085668;
const SCHEDULE_PAGED: u64 = 11209918636044970606;
const SCHEDULE_PRE_FUSION_PAGED: u64 = 17632205705705599822;
const SCHEDULE_CLUSTER: u64 = 13779150281944859215;
const SCHEDULE_CLUSTER_FAULTED: u64 = 7780170353598803550;

// The deadline cell, captured before the step loop skipped no-op steps
// and before the fold ordered records once: the first cell with a TTFT
// deadline, shedding, preemption and restores together.
const GOLDEN_DEADLINE: u64 = 15572212114265849425;
const SCHEDULE_DEADLINE: u64 = 4923053737532653310;
