//! Correlated fault campaigns × priced KV checkpointing.
//!
//! Serves one seeded request stream on a 2-box × 2-card fleet (flat
//! data-parallel engine, box structure supplied by the hierarchical
//! [`Topology`]) while seeded [`FaultCampaign`]s inject rack-level power
//! events — every card in a box sharing one down window — and, as a
//! control, the *same per-card down budget* scattered into independent,
//! non-overlapping single-card failures. Each campaign runs with KV
//! checkpointing off and on, giving availability-vs-fault-count curves
//! for all four combinations.
//!
//! "Availability" here is **service** availability: the faulted cell's
//! goodput over the fault-free, checkpoint-free baseline's — the fraction
//! of clean serving capacity the fleet delivered despite the campaign.
//! (The per-card up-time gauge [`ServingReport::availability`] is also
//! reported, but it cannot see recovery cost: re-run prefills and DMA
//! restores both happen on *up* cards.)
//!
//! Gates:
//!
//! 1. scattering a rack campaign preserves its down budget, and every
//!    faulted cell still completes 100% of its requests;
//! 2. rack-correlated campaigns cost strictly more service availability
//!    than the same down budget spread independently;
//! 3. checkpointing strictly beats recompute-from-scratch under the
//!    identical fault plan, and every checkpointed cell restores tokens
//!    (snapshot restores replace re-run prefills);
//! 4. at zero faults the checkpoint DMA tax stays within 2% of baseline
//!    goodput;
//! 5. the kill, restart, checkpoint, restore and flap lanes show up in the
//!    Chrome trace.
//!
//! Tables (`results/campaign.json`): `fleet`, the fleet shape and the
//! checkpoint pricing; `cells`, the two fault-free baselines (0 events)
//! then one row per event count, campaign and checkpoint setting.

use crate::cells::{report_values, run_cells, REPORT_COLUMNS};
use crate::table::{col, Table, Value};
use crate::Outcome;
use gaudi_exec::ExecPool;
use gaudi_hw::{DeviceId, Topology};
use gaudi_serving::{
    FaultCampaign, FaultPlan, PlanCache, RobustnessConfig, ServingConfig, ServingReport,
};
use std::sync::Arc;

/// Fleet shape: `BOXES` × `CARDS_PER_BOX` data-parallel cards.
const BOXES: usize = 2;
const CARDS_PER_BOX: usize = 2;
const DEVICES: usize = BOXES * CARDS_PER_BOX;

/// Host-link bandwidth snapshots and restores are priced against.
const DMA_BYTES_PER_S: f64 = 64e9;

/// Campaign sizes swept (rack events; each takes one whole box down).
const EVENT_COUNTS: [usize; 3] = [1, 2, 3];

/// Campaign RNG seed (mixed with the event count per cell).
const CAMPAIGN_SEED: u64 = 7;

fn cell(faults: FaultPlan, robustness: RobustnessConfig) -> ServingConfig {
    let mut cfg = crate::fault::config();
    cfg.devices = DEVICES;
    cfg.faults = faults;
    cfg.robustness = robustness;
    cfg
}

/// The same per-card down budget as `rack`, de-correlated: every kill
/// keeps its duration but moves to its own time slot (no two windows
/// overlap) and to round-robin devices (no box loses two cards at once).
fn scatter_independent(rack: &FaultPlan, horizon_ms: f64) -> FaultPlan {
    let mut kills = rack.card_failures.clone();
    kills.sort_by(|a, b| {
        a.at_ms
            .total_cmp(&b.at_ms)
            .then(a.device.index().cmp(&b.device.index()))
    });
    let sub = horizon_ms / kills.len() as f64;
    let mut plan = FaultPlan::none();
    for (i, k) in kills.iter().enumerate() {
        let down = k
            .restart_after_ms
            .expect("rack campaigns only emit restarting kills");
        // Rack slots are `horizon / events` wide and downs are clamped to
        // half a slot, so each down fits its `horizon / (2·events)` slot.
        plan = plan.kill_for(DeviceId(i % DEVICES), i as f64 * sub, down.min(sub));
    }
    plan
}

/// Total card-down milliseconds a plan schedules (the fault budget).
fn down_budget_ms(plan: &FaultPlan) -> f64 {
    plan.card_failures
        .iter()
        .map(|k| k.restart_after_ms.unwrap_or(0.0))
        .sum()
}

/// One traced cell per campaign flavor: the fault, checkpoint, and
/// restore lanes must be visible in the Chrome trace.
fn trace_lanes(
    pool: &ExecPool,
    cache: &Arc<PlanCache>,
    topo: &Topology,
    horizon: f64,
    ckpt: RobustnessConfig,
) {
    let rack = FaultCampaign::rack_power(2, (horizon * 0.08, horizon * 0.25))
        .seeded(CAMPAIGN_SEED ^ 2, topo, horizon)
        .expect("rack campaign lowers");
    let flaps = FaultCampaign::cascade_flaps(DeviceId(1), 2, 0.9, 0.6, 2)
        .seeded(CAMPAIGN_SEED, topo, horizon)
        .expect("cascade campaign lowers");
    let mut cells = [cell(rack, ckpt), cell(flaps, RobustnessConfig::unlimited())];
    for c in &mut cells {
        c.record_trace = true;
    }
    let traced = run_cells(pool, cache, &cells);
    for lane in ["kill", "restart", "kv_checkpoint", "kv_restore"] {
        assert!(
            traced[0].trace.events().iter().any(|e| e.name == lane),
            "expected a '{lane}' event in the rack-campaign trace"
        );
    }
    assert!(
        traced[1].trace.events().iter().any(|e| e.name == "flap"),
        "expected 'flap' events in the cascade-campaign trace"
    );
}

pub fn run(pool: &ExecPool, cache: &Arc<PlanCache>) -> Outcome {
    let cfg = crate::fault::config();
    let topo = Topology::cluster(&cfg.hw, BOXES, CARDS_PER_BOX, 1.0);
    let mut out = String::new();
    outln!(
        out,
        "Correlated fault campaigns x priced KV checkpointing: {} requests at {} req/s\n\
         (Poisson, Zipf lengths, seed {}), paper §3.4 GPT, {BOXES} boxes x {CARDS_PER_BOX} cards;\n\
         rack campaigns take a whole box down per event, independent controls\n\
         scatter the identical down budget.\n",
        cfg.traffic.num_requests,
        cfg.traffic.arrival_rate_per_s,
        cfg.traffic.seed
    );

    // Fault-free baseline, checkpointing off: the service-availability
    // denominator and the horizon the campaigns are laid out over.
    let clean_off = run_cells(
        pool,
        cache,
        &[cell(FaultPlan::none(), RobustnessConfig::unlimited())],
    )
    .pop()
    .expect("the clean cell ran");
    let clean_goodput = clean_off.goodput_tokens_per_s;
    let avail = |r: &ServingReport| r.goodput_tokens_per_s / clean_goodput;
    // Land every campaign before the stream drains: the last ~20% of the
    // clean makespan is tail, where a kill would find little to disrupt.
    let horizon = clean_off.makespan_ms * 0.8;
    let interval_ms = clean_off.makespan_ms / 24.0;
    let ckpt = RobustnessConfig::unlimited().checkpoint(interval_ms, DMA_BYTES_PER_S);

    // Fault-free baseline, checkpointing on: prices the pure DMA tax.
    let clean_on = run_cells(pool, cache, &[cell(FaultPlan::none(), ckpt.clone())])
        .pop()
        .expect("the checkpointed clean cell ran");

    // One rack campaign per event count; each independent control reuses
    // the rack plan's exact down windows, scattered.
    let mut specs: Vec<(usize, &'static str, bool, FaultPlan)> = Vec::new();
    for &events in &EVENT_COUNTS {
        let rack = FaultCampaign::rack_power(events, (horizon * 0.08, horizon * 0.25))
            .seeded(CAMPAIGN_SEED ^ events as u64, &topo, horizon)
            .expect("rack campaigns lower to valid plans");
        let indep = scatter_independent(&rack, horizon);
        assert!(
            (down_budget_ms(&rack) - down_budget_ms(&indep)).abs() < 1e-9,
            "scattering must preserve the fault budget"
        );
        for (campaign, plan) in [("rack", rack), ("independent", indep)] {
            specs.push((events, campaign, false, plan.clone()));
            specs.push((events, campaign, true, plan));
        }
    }
    let cfgs: Vec<ServingConfig> = specs
        .iter()
        .map(|(_, _, on, plan)| {
            cell(
                plan.clone(),
                if *on {
                    ckpt.clone()
                } else {
                    RobustnessConfig::unlimited()
                },
            )
        })
        .collect();
    let reports = run_cells(pool, cache, &cfgs);

    let mut t = Table::new(
        "cells",
        [
            col("events", "", 0),
            col("campaign", "", 0),
            col("checkpoint", "", 0),
            col("budget", "ms", 1),
            col("restarts", "", 0),
            col("recovered", "tok", 0),
            col("checkpoint_bytes", "bytes", 0),
            col("restore", "ms", 3),
            col("service_avail", "frac", 3),
        ]
        .into_iter()
        .chain(REPORT_COLUMNS),
    );
    let clean = [(false, &clean_off), (true, &clean_on)].map(|(on, r)| (0, "none", on, 0.0, r));
    let faulted = specs
        .iter()
        .zip(&reports)
        .map(|((events, campaign, on, plan), r)| {
            assert_eq!(
                r.completed.len(),
                cfg.traffic.num_requests,
                "{events} {campaign} events (checkpoint {on}): requests were dropped"
            );
            (*events, *campaign, *on, down_budget_ms(plan), r)
        });
    for (events, campaign, on, budget, r) in clean.into_iter().chain(faulted) {
        t.row(
            [
                Value::from(events),
                campaign.into(),
                on.into(),
                budget.into(),
                r.restarts.into(),
                r.recovered_tokens.into(),
                r.checkpoint_bytes.into(),
                r.restore_ms.into(),
                avail(r).into(),
            ]
            .into_iter()
            .chain(report_values(r)),
        );
    }

    // Rack-correlated campaigns cost strictly more service availability
    // than the same down budget spread independently (compared
    // checkpoint-off, mean over the event-count curve).
    let curve = |campaign: &str| -> f64 {
        let pts: Vec<f64> = specs
            .iter()
            .zip(&reports)
            .filter(|((_, c, on, _), _)| *c == campaign && !on)
            .map(|(_, r)| avail(r))
            .collect();
        pts.iter().sum::<f64>() / pts.len() as f64
    };
    let rack_off = curve("rack");
    let indep_off = curve("independent");
    outln!(
        out,
        "mean service availability (checkpoint off) — rack: {:.4}, independent: {:.4}",
        rack_off,
        indep_off
    );
    assert!(
        rack_off < indep_off,
        "correlated loss must cost more than independent loss at equal \
         budget: rack {rack_off:.4} < independent {indep_off:.4} violated"
    );
    outln!(
        out,
        "rack-correlated availability sits strictly below independent: true"
    );

    // Under the identical plan, checkpointing strictly beats
    // recompute-from-scratch. `specs` pairs each plan off, then on.
    for (pair, r) in specs.chunks_exact(2).zip(reports.chunks_exact(2)) {
        let (events, campaign) = (pair[0].0, pair[0].1);
        let (off, on) = (&r[0], &r[1]);
        assert!(
            on.recovered_tokens > 0,
            "{events} {campaign} events: checkpointed cell never restored"
        );
        assert!(
            avail(on) > avail(off),
            "{events} {campaign} events: checkpointing must strictly raise \
             availability ({:.4} vs {:.4})",
            avail(on),
            avail(off)
        );
    }
    outln!(
        out,
        "checkpointed availability strictly exceeds non-checkpointed per cell: true"
    );

    // The zero-fault checkpoint DMA tax stays within 2%.
    let tax = 1.0 - avail(&clean_on);
    outln!(
        out,
        "zero-fault checkpoint overhead: {:.3}% of baseline goodput",
        tax * 100.0
    );
    assert!(
        tax.abs() <= 0.02,
        "checkpoint overhead at zero faults must stay within 2%, got {:.3}%",
        tax * 100.0
    );

    trace_lanes(pool, cache, &topo, horizon, ckpt);
    outln!(
        out,
        "fault, checkpoint, and restore lanes present in the Chrome trace: true"
    );

    let mut fleet = Table::new(
        "fleet",
        [
            col("boxes", "", 0),
            col("cards_per_box", "", 0),
            col("checkpoint_interval", "ms", 3),
            col("dma_bandwidth", "bytes/s", 0),
        ],
    );
    fleet.row([
        BOXES.into(),
        CARDS_PER_BOX.into(),
        interval_ms.into(),
        DMA_BYTES_PER_S.into(),
    ]);
    Outcome {
        tables: vec![fleet, t],
        text: out,
        artifacts: vec![],
    }
}
