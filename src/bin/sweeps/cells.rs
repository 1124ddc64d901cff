//! Plumbing the serving experiments share: run a batch of sweep cells on a
//! pool against a shared plan cache, and digest reports for the two-pass
//! comparison in `main`.

use gaudi_exec::ExecPool;
use gaudi_serving::{ExecPolicy, PlanCache, PlanSharing, ServingConfig, ServingReport};
use std::sync::Arc;

/// Everything a determinism check needs to compare, rendered to exact
/// text: latency tails, goodput, completion/outcome/retry/availability
/// counters, and the queue-pressure gauges.
pub fn report_digest(r: &ServingReport) -> String {
    format!(
        "{:.6}|{:.6}|{:.6}|{:.6}|{:.6}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{:.6}|{:.6}|{}|{}|{}|{:.6}",
        r.makespan_ms,
        r.goodput_tokens_per_s,
        r.throughput_tokens_per_s,
        r.ttft_ms.p99,
        r.tpot_ms.p99,
        r.completed.len(),
        r.offered,
        r.shed(),
        r.timed_out(),
        r.failed(),
        r.max_queue_depth,
        r.peak_queued_tokens,
        r.retries,
        r.requeued_tokens,
        r.availability(),
        r.kv_block_utilization,
        r.recipe_compiles,
        r.preemptions,
        r.peak_running,
        r.padding_waste()
    )
}

/// [`report_digest`] of each report, one line per report.
pub fn digest_all<'a>(reports: impl IntoIterator<Item = &'a ServingReport>) -> String {
    reports
        .into_iter()
        .map(report_digest)
        .collect::<Vec<_>>()
        .join("\n")
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
        let parallel = run_cells(&pool, &cache, &cells);
        for (cfg, report) in cells.iter().zip(&parallel) {
            let serial_pool = ExecPolicy::default().with_pool(ExecPool::serial());
            let serial = gaudi_serving::simulate_with(cfg, &serial_pool).unwrap();
            assert_eq!(report_digest(report), report_digest(&serial));
        }
        assert!(cache.stats().entries > 0, "cells must memoize their plans");
    }
}
