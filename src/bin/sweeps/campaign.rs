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
//! Artifact: `results/CAMPAIGN_10.json`.

use crate::cells::{report_digest, run_cells};
use crate::Outcome;
use gaudi_exec::ExecPool;
use gaudi_hw::{DeviceId, Topology};
use gaudi_profiler::report::TextTable;
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

/// [`report_digest`] extended with the checkpoint/restore counters.
fn recovery_digest(r: &ServingReport) -> String {
    format!(
        "{}|{}|{:.6}|{}",
        report_digest(r),
        r.checkpoint_bytes,
        r.restore_ms,
        r.recovered_tokens
    )
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
        "Extension: correlated fault campaigns x priced KV checkpointing\n"
    );
    outln!(
        out,
        "{} requests at {} req/s (Poisson, Zipf lengths, seed {}), paper §3.4 GPT,\n\
         {BOXES} boxes x {CARDS_PER_BOX} cards; rack campaigns take a whole box down per\n\
         event, independent controls scatter the identical down budget.\n",
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

    let mut digests = vec![recovery_digest(&clean_off), recovery_digest(&clean_on)];
    let mut t = TextTable::new(&[
        "Events",
        "Campaign",
        "Ckpt",
        "Budget (ms)",
        "Completed",
        "Restarts",
        "Requeued tok",
        "Recovered tok",
        "Goodput (tok/s)",
        "Service avail",
    ]);
    for (ckpt_on, r) in [("off", &clean_off), ("on", &clean_on)] {
        t.row(&[
            "0".into(),
            "—".into(),
            ckpt_on.into(),
            "0.0".into(),
            r.completed.len().to_string(),
            "0".into(),
            "0".into(),
            "0".into(),
            format!("{:.0}", r.goodput_tokens_per_s),
            format!("{:.3}", avail(r)),
        ]);
    }

    let mut json_rows: Vec<String> = Vec::new();
    for ((events, campaign, on, plan), r) in specs.iter().zip(&reports) {
        assert_eq!(
            r.completed.len(),
            cfg.traffic.num_requests,
            "{events} {campaign} events (checkpoint {on}): requests were dropped"
        );
        digests.push(recovery_digest(r));
        let budget = down_budget_ms(plan);
        t.row(&[
            events.to_string(),
            (*campaign).into(),
            if *on { "on" } else { "off" }.into(),
            format!("{budget:.1}"),
            r.completed.len().to_string(),
            r.restarts.to_string(),
            r.requeued_tokens.to_string(),
            r.recovered_tokens.to_string(),
            format!("{:.0}", r.goodput_tokens_per_s),
            format!("{:.3}", avail(r)),
        ]);
        json_rows.push(format!(
            "    {{\"events\": {events}, \"campaign\": \"{campaign}\", \"checkpoint\": {on}, \
             \"budget_ms\": {budget:.3}, \"restarts\": {}, \"requeued_tokens\": {}, \
             \"recovered_tokens\": {}, \"checkpoint_bytes\": {}, \"restore_ms\": {:.6}, \
             \"goodput_tok_s\": {:.6}, \"service_availability\": {:.6}}}",
            r.restarts,
            r.requeued_tokens,
            r.recovered_tokens,
            r.checkpoint_bytes,
            r.restore_ms,
            r.goodput_tokens_per_s,
            avail(r),
        ));
    }
    outln!(out, "{}", t.render());

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
        "\nmean service availability (checkpoint off) — rack: {:.4}, independent: {:.4}",
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

    Outcome {
        text: out,
        digest: digests.join("\n"),
        artifacts: vec![format!(
            "{{\n  \"sweep\": \"PR-10 correlated fault campaigns + KV checkpointing\",\n  \
             \"boxes\": {BOXES},\n  \"cards_per_box\": {CARDS_PER_BOX},\n  \
             \"clean_goodput_tok_s\": {:.6},\n  \"clean_checkpointed_goodput_tok_s\": {:.6},\n  \
             \"checkpoint_interval_ms\": {:.6},\n  \"dma_bytes_per_s\": {:.1},\n  \
             \"cells\": [\n{}\n  ]\n}}\n",
            clean_goodput,
            clean_on.goodput_tokens_per_s,
            interval_ms,
            DMA_BYTES_PER_S,
            json_rows.join(",\n"),
        )],
    }
}
