//! Graceful-degradation sweep: kill time × replica count.
//!
//! Serves one seeded request stream on 2–4 data-parallel replica cards
//! while the fault plan kills one card at a varying fraction of the
//! fault-free makespan, and reports goodput, retries, lost tokens, and
//! availability per cell. Fault-free baselines at 1–4 replicas bracket the
//! results, and a transient-fault cell restarts the killed card.
//!
//! Gates:
//!
//! 1. every faulted cell still completes 100% of its requests (graceful
//!    degradation re-queues, never drops), with exactly one failed replica;
//! 2. killing 1 of 4 replicas mid-run lands goodput strictly between the
//!    3-replica and 4-replica fault-free baselines (the box degrades into
//!    something better than never having had the card);
//! 3. the kill+restart cell completes every request with one restart, and
//!    its availability sits strictly between the permanent kill's and a
//!    clean run's.
//!
//! Faults are part of the deterministic simulation, not noise on top of
//! it: both passes of `sweeps` must agree on every cell.
//!
//! Tables (`results/fault.json`): `baselines`, the fault-free runs per
//! replica count; `kills`, the faulted cells, the kill+restart cell last.

use crate::cells::{report_values, run_cells, REPORT_COLUMNS};
use crate::table::{col, Table, Value};
use crate::Outcome;
use gaudi_exec::ExecPool;
use gaudi_hw::DeviceId;
use gaudi_serving::{FaultPlan, PlanCache, ServingConfig, TrafficConfig};
use std::sync::Arc;

/// The fault-sweep stream: §3.4 GPT under load heavy enough that goodput
/// is throughput-bound (adding replicas raises it), small enough that the
/// sweep runs in seconds.
pub fn config() -> ServingConfig {
    let mut cfg = ServingConfig::paper_gpt();
    cfg.traffic = TrafficConfig {
        arrival_rate_per_s: 1500.0,
        num_requests: 160,
        prompt_range: (16, 64),
        output_range: (4, 32),
        zipf_s: 1.1,
        seed: 42,
    };
    cfg.max_batch = 8;
    cfg
}

fn cell(devices: usize, faults: FaultPlan) -> ServingConfig {
    let mut cfg = config();
    cfg.devices = devices;
    cfg.faults = faults;
    cfg
}

pub fn run(pool: &ExecPool, cache: &Arc<PlanCache>) -> Outcome {
    let mut out = String::new();
    let cfg = config();
    outln!(
        out,
        "Fault injection with graceful degradation: {} requests at {} req/s\n\
         (Poisson, Zipf lengths, seed {}), paper §3.4 GPT, data-parallel\n\
         replicas; each faulted cell kills the last card at a fraction of that\n\
         replica count's fault-free makespan.\n",
        cfg.traffic.num_requests,
        cfg.traffic.arrival_rate_per_s,
        cfg.traffic.seed
    );

    // Fault-free baselines, 1..=4 replicas: one parallel wave.
    let baseline_cells: Vec<ServingConfig> = (1..=4).map(|d| cell(d, FaultPlan::none())).collect();
    let baselines = run_cells(pool, cache, &baseline_cells);
    let mut clean = Table::new(
        "baselines",
        std::iter::once(col("replicas", "", 0)).chain(REPORT_COLUMNS),
    );
    for (d, b) in baselines.iter().enumerate() {
        clean.row(std::iter::once(Value::from(d + 1)).chain(report_values(b)));
    }

    // Faulted cells derive their kill times from the baseline makespans,
    // so they form a second wave over the same pool.
    let mut faulted_cells: Vec<(usize, f64, f64)> = Vec::new();
    for devices in 2..=4usize {
        let clean_makespan = baselines[devices - 1].makespan_ms;
        for frac in [0.25, 0.5, 0.75] {
            faulted_cells.push((devices, frac, clean_makespan * frac));
        }
    }
    let faulted_cfgs: Vec<ServingConfig> = faulted_cells
        .iter()
        .map(|&(devices, _, kill_ms)| {
            cell(
                devices,
                FaultPlan::none().kill(DeviceId(devices - 1), kill_ms),
            )
        })
        .collect();
    let faulted = run_cells(pool, cache, &faulted_cfgs);

    let mut kills = Table::new(
        "kills",
        [
            col("replicas", "", 0),
            col("kill_frac", "", 2),
            col("kill_at", "ms", 1),
            col("restart", "", 0),
        ]
        .into_iter()
        .chain(REPORT_COLUMNS),
    );
    let mut mid_kill_4 = None;
    for (&(devices, frac, kill_ms), r) in faulted_cells.iter().zip(&faulted) {
        assert_eq!(
            r.completed.len(),
            cfg.traffic.num_requests,
            "{devices} replicas, kill at {kill_ms:.1} ms: requests were dropped"
        );
        assert_eq!(r.failed_replicas, 1);
        kills.row(
            [devices.into(), frac.into(), kill_ms.into(), false.into()]
                .into_iter()
                .chain(report_values(r)),
        );
        if devices == 4 && frac == 0.5 {
            mid_kill_4 = Some(r);
        }
    }
    let mid_kill_4 = mid_kill_4.expect("the 4-replica mid-run kill cell ran");

    // Transient-fault cell: the same 4-replica mid-run kill, but the card
    // restarts (cold recipe cache) after a quarter of the clean makespan.
    // Orphans back off past the restart, so the recovered card takes its
    // round-robin share of the retry wave instead of sitting idle.
    let clean_4 = baselines[3].makespan_ms;
    let mut restart_cfg = cell(
        4,
        FaultPlan::none().kill_for(DeviceId(3), clean_4 * 0.5, clean_4 * 0.25),
    );
    restart_cfg.robustness =
        gaudi_serving::RobustnessConfig::default().backoff(clean_4 * 0.3, 0.0, 42);
    let restart_4 = run_cells(pool, cache, std::slice::from_ref(&restart_cfg))
        .pop()
        .expect("the restart cell ran");
    assert_eq!(
        restart_4.completed.len(),
        cfg.traffic.num_requests,
        "a restarting replica must not drop requests"
    );
    assert_eq!(restart_4.restarts, 1);
    kills.row(
        [
            4usize.into(),
            0.5.into(),
            (clean_4 * 0.5).into(),
            true.into(),
        ]
        .into_iter()
        .chain(report_values(&restart_4)),
    );

    let g3 = baselines[2].goodput_tokens_per_s;
    let g4 = baselines[3].goodput_tokens_per_s;
    let degraded = mid_kill_4.goodput_tokens_per_s;
    outln!(
        out,
        "Reading: losing a card mid-run costs exactly the tokens it had\n\
         generated plus the capacity it would have contributed — goodput\n\
         degrades toward, but never below, the 3-replica baseline.\n"
    );
    outln!(out, "3-replica clean goodput : {g3:.1} tok/s");
    outln!(out, "4-replica clean goodput : {g4:.1} tok/s");
    outln!(out, "4-replica, 1 killed mid-run : {degraded:.1} tok/s");
    assert!(
        g3 < degraded && degraded < g4,
        "graceful degradation must land between the 3- and 4-replica \
         baselines: {g3:.1} < {degraded:.1} < {g4:.1} violated"
    );
    outln!(
        out,
        "degraded goodput sits strictly between the baselines: true"
    );

    // Transient-fault pin: a kill with a restart window loses less
    // availability than a permanent kill but still less than a clean run,
    // and recovery completes every request.
    let a_perm = mid_kill_4.availability();
    let a_restart = restart_4.availability();
    outln!(
        out,
        "\navailability — permanent kill: {:.1}%, kill+restart: {:.1}%, clean: 100.0%",
        a_perm * 100.0,
        a_restart * 100.0
    );
    assert!(
        a_perm < a_restart && a_restart < 1.0,
        "restart availability must sit strictly between the permanent-kill \
         and no-fault baselines: {a_perm:.4} < {a_restart:.4} < 1 violated"
    );
    outln!(
        out,
        "restart availability sits strictly between kill and clean: true"
    );

    Outcome {
        tables: vec![clean, kills],
        text: out,
        artifacts: vec![],
    }
}
