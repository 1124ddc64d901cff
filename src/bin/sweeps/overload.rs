//! Overload sweep: arrival rate across the saturation point, with and
//! without overload protection.
//!
//! Measures the single-replica saturation rate of the §3.4 GPT serving
//! configuration, then sweeps arrival rate from well below to 2× above it,
//! twice per point: once with a [`RobustnessConfig`] (bounded admission
//! queue + TTFT deadline) and once with the unlimited legacy policy.
//!
//! Gates:
//!
//! 1. **goodput plateaus** — with shedding, goodput at 2× saturation stays
//!    within 90% of the sweep's peak, and the p99 TTFT of *completed*
//!    requests stays within 3× of the unloaded p99 (the SLO filter keeps
//!    the served population healthy);
//! 2. **shed fraction rises monotonically** with offered load, and 2×
//!    saturation actually sheds;
//! 3. **without protection the queue grows without bound** — peak queue
//!    depth keeps climbing past saturation instead of plateauing, far
//!    beyond the bounded policy's cap, which the protected cells never
//!    exceed.
//!
//! Tables (`results/overload.json`): `summary`, the saturation probe, the
//! protected policy and the gate-1 goodput fraction; `cells`, one row per
//! load and policy.

use crate::cells::{report_values, run_cells, REPORT_COLUMNS};
use crate::table::{col, Table, Value};
use crate::Outcome;
use gaudi_exec::ExecPool;
use gaudi_serving::{PlanCache, RobustnessConfig, ServingConfig, ServingReport, TrafficConfig};
use std::sync::Arc;

const MULTIPLIERS: [f64; 5] = [0.25, 0.5, 1.0, 1.5, 2.0];
/// Admission-queue bound of the protected variant (2× the decode batch).
const QUEUE_DEPTH: usize = 6;

/// The overload-sweep operating point: §3.4 GPT on one replica, a seeded
/// 120-request burst at `rate` req/s. Robustness policy supplied by the
/// caller (the sweep contrasts shedding against the unbounded baseline).
fn config(rate: f64) -> ServingConfig {
    let mut cfg = ServingConfig::paper_gpt();
    cfg.traffic = TrafficConfig {
        arrival_rate_per_s: rate,
        num_requests: 120,
        prompt_range: (16, 64),
        output_range: (4, 32),
        zipf_s: 1.1,
        seed: 42,
    };
    cfg.max_batch = 8;
    cfg.devices = 1;
    cfg
}

pub fn run(pool: &ExecPool, cache: &Arc<PlanCache>) -> Outcome {
    // Saturation probe: an instantaneous burst makes the makespan pure
    // service time, so requests/makespan is the engine's capacity.
    let burst = run_cells(pool, cache, &[config(1e9)])
        .pop()
        .expect("burst cell ran");
    let n = config(1e9).traffic.num_requests;
    let saturation_rate = n as f64 / (burst.makespan_ms / 1e3);

    // Unloaded reference: 5% of saturation, TTFT is essentially prefill.
    let unloaded = run_cells(pool, cache, &[config(saturation_rate * 0.05)])
        .pop()
        .expect("unloaded cell ran");
    let unloaded_ttft_p99 = unloaded.ttft_ms.p99;
    // The protected variant's SLO: 2.5× the unloaded p99, which keeps every
    // *completed* request within the 3× acceptance bound by construction.
    let ttft_deadline = unloaded_ttft_p99 * 2.5;

    let robust = RobustnessConfig::default()
        .queue_depth(QUEUE_DEPTH)
        .ttft_deadline(ttft_deadline);
    let mut cells: Vec<ServingConfig> = Vec::new();
    for &m in &MULTIPLIERS {
        let mut shed = config(saturation_rate * m);
        shed.robustness = robust.clone();
        cells.push(shed);
        cells.push(config(saturation_rate * m));
    }
    let reports = run_cells(pool, cache, &cells);
    let (shed, noshed): (Vec<&ServingReport>, Vec<&ServingReport>) = reports
        .chunks_exact(2)
        .map(|pair| (&pair[0], &pair[1]))
        .unzip();

    let mut t = Table::new(
        "cells",
        [col("load", "x sat", 2), col("policy", "", 0)]
            .into_iter()
            .chain(REPORT_COLUMNS),
    );
    for (i, &m) in MULTIPLIERS.iter().enumerate() {
        for (name, r) in [("shed", shed[i]), ("unlimited", noshed[i])] {
            t.row(
                [Value::from(m), name.into()]
                    .into_iter()
                    .chain(report_values(r)),
            );
        }
    }

    let mut out = String::new();
    outln!(
        out,
        "Overload protection across the saturation point: paper GPT, 1 replica,\n\
         120-request bursts; saturation rate {:.0} req/s, unloaded TTFT p99 {:.2} ms;\n\
         protected policy: queue depth {QUEUE_DEPTH}, TTFT deadline {:.2} ms.\n",
        saturation_rate,
        unloaded_ttft_p99,
        ttft_deadline
    );
    outln!(
        out,
        "Reading: past saturation the unlimited policy keeps 'succeeding'\n\
         while its queue and TTFT tail explode; the protected policy sheds\n\
         the excess and keeps the served population inside its SLO at\n\
         near-peak goodput.\n"
    );

    // 1. Goodput plateau + completed-TTFT SLO at 2x saturation.
    let at_2x = shed.last().expect("2x cell ran");
    let peak_goodput = shed
        .iter()
        .map(|r| r.goodput_tokens_per_s)
        .fold(0.0, f64::max);
    let goodput_frac = at_2x.goodput_tokens_per_s / peak_goodput;
    outln!(
        out,
        "goodput at 2x saturation: {:.0} tok/s = {:.1}% of peak {:.0} (gate: >= 90%)",
        at_2x.goodput_tokens_per_s,
        goodput_frac * 100.0,
        peak_goodput
    );
    assert!(
        goodput_frac >= 0.9,
        "shedding must hold goodput at 2x saturation within 90% of peak, got {:.1}%",
        goodput_frac * 100.0
    );
    let ttft_ratio = at_2x.ttft_ms.p99 / unloaded_ttft_p99;
    outln!(
        out,
        "completed-request TTFT p99 at 2x: {:.2} ms = {ttft_ratio:.2}x unloaded (gate: <= 3x)",
        at_2x.ttft_ms.p99
    );
    assert!(
        ttft_ratio <= 3.0,
        "completed requests must stay within 3x the unloaded TTFT p99, got {ttft_ratio:.2}x"
    );

    // 2. Shed fraction rises monotonically with offered load.
    let shed_frac: Vec<f64> = shed
        .iter()
        .map(|r| r.shed() as f64 / r.offered as f64)
        .collect();
    assert!(
        shed_frac.windows(2).all(|w| w[0] <= w[1]),
        "shed fraction must be monotone in offered load: {shed_frac:?}"
    );
    assert!(
        *shed_frac.last().unwrap() > 0.0,
        "2x saturation must actually shed"
    );
    outln!(
        out,
        "shed fraction rises monotonically: {} (gate: monotone, > 0 at 2x)",
        shed_frac
            .iter()
            .map(|f| format!("{:.0}%", f * 100.0))
            .collect::<Vec<_>>()
            .join(" -> ")
    );

    // 3. Without protection the queue grows without bound past saturation.
    let depths: Vec<usize> = noshed.iter().map(|r| r.max_queue_depth).collect();
    let saturated = &depths[2..]; // multipliers 1.0, 1.5, 2.0
    assert!(
        saturated.windows(2).all(|w| w[0] < w[1]),
        "unprotected peak queue depth must keep growing past saturation: {depths:?}"
    );
    assert!(
        *depths.last().unwrap() > 2 * QUEUE_DEPTH,
        "unprotected queue at 2x must dwarf the bounded policy's cap"
    );
    assert!(shed.iter().all(|r| r.max_queue_depth <= QUEUE_DEPTH));
    outln!(
        out,
        "unprotected peak queue depth grows past saturation: {depths:?}"
    );

    let mut summary = Table::new(
        "summary",
        [
            col("saturation_rate", "req/s", 0),
            col("unloaded_ttft_p99", "ms", 2),
            col("ttft_deadline", "ms", 2),
            col("queue_depth", "", 0),
            col("goodput_2x_of_peak", "frac", 3),
        ],
    );
    summary.row([
        saturation_rate.into(),
        unloaded_ttft_p99.into(),
        ttft_deadline.into(),
        QUEUE_DEPTH.into(),
        goodput_frac.into(),
    ]);
    Outcome {
        tables: vec![summary, t],
        text: out,
        artifacts: vec![],
    }
}
