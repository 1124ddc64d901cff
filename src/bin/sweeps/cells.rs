//! Plumbing the serving experiments share: run a batch of sweep cells on a
//! pool against a shared plan cache, and lay a report out as table cells.

use crate::table::{col, Column, Value};
use gaudi_exec::ExecPool;
use gaudi_serving::{ExecPolicy, PlanCache, PlanSharing, ServingConfig, ServingReport};
use std::sync::Arc;

/// The report fields every serving experiment's tables carry, after their
/// own columns: latency tails, goodput, completion, outcome, retry and
/// availability counters, and the queue-pressure and KV gauges.
pub const REPORT_COLUMNS: [Column; 20] = [
    col("makespan", "ms", 1),
    col("goodput", "tok/s", 0),
    col("throughput", "tok/s", 0),
    col("ttft_p99", "ms", 2),
    col("tpot_p99", "ms", 2),
    col("completed", "", 0),
    col("offered", "", 0),
    col("shed", "", 0),
    col("timed_out", "", 0),
    col("failed", "", 0),
    col("max_queue_depth", "", 0),
    col("peak_queued", "tok", 0),
    col("retries", "", 0),
    col("requeued", "tok", 0),
    col("availability", "frac", 3),
    col("kv_block_util", "frac", 3),
    col("recipe_compiles", "", 0),
    col("preemptions", "", 0),
    col("peak_running", "", 0),
    col("padding_waste", "frac", 3),
];

/// `r`'s cells under [`REPORT_COLUMNS`].
pub fn report_values(r: &ServingReport) -> [Value; 20] {
    [
        r.makespan_ms.into(),
        r.goodput_tokens_per_s.into(),
        r.throughput_tokens_per_s.into(),
        r.ttft_ms.p99.into(),
        r.tpot_ms.p99.into(),
        r.completed.len().into(),
        r.offered.into(),
        r.shed().into(),
        r.timed_out().into(),
        r.failed().into(),
        r.max_queue_depth.into(),
        r.peak_queued_tokens.into(),
        r.retries.into(),
        r.requeued_tokens.into(),
        r.availability().into(),
        r.kv_block_utilization.into(),
        r.recipe_compiles.into(),
        r.preemptions.into(),
        r.peak_running.into(),
        r.padding_waste().into(),
    ]
}

/// Run one sweep cell per config on `pool`, memoizing compiled phase plans
/// into `cache` so cells sharing shapes compile each shape once, and
/// return the reports in input order (the pool's ordering guarantee — the
/// printed sweep is bit-identical to a serial run).
///
/// The cells themselves are the parallel grain: each cell's replicas run
/// inline on whichever thread picked the cell up, so an N-cell sweep never
/// oversubscribes the pool with nested fan-out.
pub fn run_cells(
    pool: &ExecPool,
    cache: &Arc<PlanCache>,
    cells: &[ServingConfig],
) -> Vec<ServingReport> {
    let policy = ExecPolicy {
        pool: ExecPool::serial(),
        plans: PlanSharing::Shared(Arc::clone(cache)),
    };
    pool.par_map(cells, |_, cfg| {
        gaudi_serving::simulate_with(cfg, &policy).expect("sweep cell simulates")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_configs_are_wellformed() {
        let s = crate::serving::config(4.0, 8, 2);
        assert_eq!(s.devices, 2);
        assert_eq!(s.max_batch, 8);
        assert_eq!(s.traffic.seed, 42);
        let f = crate::fault::config();
        assert_eq!(f.traffic.num_requests, 160);
        assert!(!f.model.training);
        let k = crate::kv::config(480, 4);
        assert_eq!(k.recipes.batch_bucket, 4);
        assert!(
            k.hw.memory.hbm_capacity_bytes
                < gaudi_hw::GaudiConfig::hls1().memory.hbm_capacity_bytes,
            "the KV sweep must shrink the device below 32 GB"
        );
    }

    #[test]
    fn run_cells_matches_serial_simulation_cell_for_cell() {
        let cells: Vec<ServingConfig> = [1, 2]
            .into_iter()
            .map(|d| {
                let mut c = crate::fault::config();
                c.traffic.num_requests = 12;
                c.devices = d;
                c
            })
            .collect();
        let cache = Arc::new(PlanCache::new());
        let pool = ExecPool::new(3);
        let pooled = run_cells(&pool, &cache, &cells);
        for (cfg, report) in cells.iter().zip(&pooled) {
            let serial_pool = ExecPolicy {
                pool: ExecPool::serial(),
                ..ExecPolicy::default()
            };
            let serial = gaudi_serving::simulate_with(cfg, &serial_pool).unwrap();
            // `{:?}` prints every float at round-trip precision: equal
            // text is equal bits, field by field and record by record.
            assert_eq!(format!("{report:?}"), format!("{serial:?}"));
        }
        assert!(cache.stats().entries > 0, "cells must memoize their plans");
    }
}
