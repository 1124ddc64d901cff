//! Shared plumbing for the workspace's sweep/benchmark binaries.
//!
//! Every `src/bin/*` sweep used to hand-roll the same three things: a tiny
//! `--flag value` parser that exits with usage on bad input, the serving
//! configurations it sweeps over, and a report digest for determinism
//! checks. They live here once, together with the [`ExecPool`] wiring that
//! lets each binary fan its sweep cells out over threads
//! (`--threads N`, or the `GAUDI_EXEC_THREADS` environment variable for
//! the global pool) while printing bit-identical output in input order.

use gaudi_exec::ExecPool;
use gaudi_serving::{
    activation_estimate, ActivationBudget, ClusterConfig, ClusterReport, ExecPolicy,
    KvAdmissionConfig, PlanCache, PlanSharing, RecipeConfig, ServingConfig, ServingReport,
    TrafficConfig,
};
use std::sync::Arc;

/// Minimal `--flag value` / `--switch` command-line parser.
///
/// `value_flags` take one argument (`--devices 4`), `switches` take none
/// (`--quick`). Anything else prints `usage` and exits with status 2 — the
/// same contract every sweep binary implemented by hand before.
pub struct Flags {
    values: Vec<(String, String)>,
    switches: Vec<String>,
    usage: String,
}

impl Flags {
    /// Parse the process arguments against the allowed flag lists.
    pub fn parse(usage: &str, value_flags: &[&str], switches: &[&str]) -> Flags {
        let mut out = Flags {
            values: Vec::new(),
            switches: Vec::new(),
            usage: usage.to_string(),
        };
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            if switches.contains(&arg.as_str()) {
                out.switches.push(arg);
            } else if value_flags.contains(&arg.as_str()) {
                match args.next() {
                    Some(v) => out.values.push((arg, v)),
                    None => out.fail(&format!("{arg} expects a value")),
                }
            } else {
                out.fail(&format!("unknown argument '{arg}'"));
            }
        }
        out
    }

    fn fail(&self, why: &str) -> ! {
        eprintln!("{why}\nusage: {}", self.usage);
        std::process::exit(2);
    }

    /// Whether a no-argument switch was given.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// A `usize` flag constrained to `range`, or `default` when absent.
    pub fn usize_in(
        &self,
        name: &str,
        default: usize,
        range: std::ops::RangeInclusive<usize>,
    ) -> usize {
        match self.values.iter().rev().find(|(n, _)| n == name) {
            None => default,
            Some((_, v)) => match v.parse::<usize>() {
                Ok(n) if range.contains(&n) => n,
                _ => self.fail(&format!(
                    "{name} expects an integer in {}..={}, got '{v}'",
                    range.start(),
                    range.end()
                )),
            },
        }
    }

    /// An `f64` flag constrained to `range`, or `default` when absent.
    pub fn f64_in(&self, name: &str, default: f64, range: std::ops::RangeInclusive<f64>) -> f64 {
        match self.values.iter().rev().find(|(n, _)| n == name) {
            None => default,
            Some((_, v)) => match v.parse::<f64>() {
                Ok(x) if x.is_finite() && range.contains(&x) => x,
                _ => self.fail(&format!(
                    "{name} expects a number in {}..={}, got '{v}'",
                    range.start(),
                    range.end()
                )),
            },
        }
    }

    /// The pool selected by `--threads N`: an explicit pool of that size,
    /// or the process-global pool (honoring `GAUDI_EXEC_THREADS`) when the
    /// flag is absent. `--threads 1` forces fully serial execution.
    pub fn pool(&self) -> ExecPool {
        match self.values.iter().rev().find(|(n, _)| n == "--threads") {
            None => ExecPool::global().clone(),
            Some(_) => ExecPool::new(self.usize_in("--threads", 0, 1..=256)),
        }
    }
}

/// The serving-sweep operating point: GPT-2-XL-class model, 60-request
/// seeded Poisson/Zipf stream at `rate` req/s, continuous batching up to
/// `max_batch`, served on `devices` data-parallel replicas.
pub fn serving_sweep_config(rate: f64, max_batch: usize, devices: usize) -> ServingConfig {
    let mut cfg = ServingConfig::gpt2_xl();
    cfg.traffic = TrafficConfig {
        arrival_rate_per_s: rate,
        num_requests: 60,
        prompt_range: (16, 512),
        output_range: (8, 128),
        zipf_s: 1.1,
        seed: 42,
    };
    cfg.max_batch = max_batch;
    cfg.devices = devices;
    cfg
}

/// The fault-sweep stream: §3.4 GPT under load heavy enough that goodput
/// is throughput-bound (adding replicas raises it), small enough that the
/// sweep runs in seconds.
pub fn fault_sweep_config() -> ServingConfig {
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

/// The overload-sweep operating point: §3.4 GPT on one replica, a seeded
/// 120-request burst at `rate` req/s. Robustness policy supplied by the
/// caller (the sweep contrasts shedding against the unbounded baseline).
pub fn overload_sweep_config(rate: f64) -> ServingConfig {
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

/// The KV-sweep operating point: §3.4 GPT under a saturating burst on a
/// device shrunk to `hbm_tokens` of KV room past the weights, so admission
/// — not compute — caps concurrency. The same stream is then served with
/// contiguous (worst-case reservation) and paged (block-granular)
/// admission; `batch_bucket` sets the recipe-cache bucketing and every
/// cell pays a first-use compile penalty per `(phase, ctx, batch)` shape.
pub fn kv_sweep_config(hbm_tokens: u64, batch_bucket: usize) -> ServingConfig {
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

/// The memory-sweep operating point: the §3.4 GPT under the KV sweep's
/// saturating burst, paged admission, and a device sized to
/// `weights + naive-activation + hbm_tokens of KV`. Under the `Unplanned`
/// budget that leaves exactly `hbm_tokens` of KV blocks; under `Planned`
/// the packed arena is smaller than the naive sum and the reclaimed
/// difference becomes extra KV blocks at the *same* HBM capacity — the
/// sweep measures what that headroom buys in admission concurrency.
pub fn mem_sweep_config(budget: ActivationBudget, hbm_tokens: u64) -> ServingConfig {
    let mut cfg = kv_sweep_config(hbm_tokens, 1);
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

/// The cluster-sweep operating point: a tiny decoder-only model (the sweep
/// measures the *cluster* machinery — routing, sharding, merge — not model
/// compute) under a cluster-wide saturating stream of `num_requests`
/// requests at `rate` req/s, served by `boxes` × `cards_per_box` cards.
/// Traces are off: a million-request calendar must keep memory flat.
pub fn cluster_sweep_config(
    boxes: usize,
    cards_per_box: usize,
    num_requests: usize,
    rate: f64,
) -> ClusterConfig {
    let mut model = gaudi_models::LlmConfig::tiny(97);
    model.training = false;
    let base = ServingConfig::builder()
        .model(model)
        .traffic(TrafficConfig {
            arrival_rate_per_s: rate,
            num_requests,
            prompt_range: (8, 64),
            output_range: (4, 16),
            zipf_s: 1.1,
            seed: 2027,
        })
        .max_batch(16)
        .ctx_bucket(32)
        .record_trace(false)
        .build();
    ClusterConfig::new(base, boxes, cards_per_box)
}

/// [`report_digest`] extended with the routing telemetry a cluster run
/// adds on top of its merged report: fleet shape, router, cross-box
/// traffic, and the per-box request/token split.
pub fn cluster_digest(c: &ClusterReport) -> String {
    let per_box = c
        .per_box
        .iter()
        .map(|b| {
            format!(
                "{}:{}:{}:{}",
                b.box_id, b.offered, b.completed, b.routed_tokens
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{}|{}x{}|{}|{}|{:.6}|{:.6}|[{per_box}]",
        report_digest(&c.report),
        c.boxes,
        c.cards_per_box,
        c.router.name(),
        c.cross_box_requests,
        c.cross_box_delay_ms,
        c.imbalance(),
    )
}

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
        let s = serving_sweep_config(4.0, 8, 2);
        assert_eq!(s.devices, 2);
        assert_eq!(s.max_batch, 8);
        assert_eq!(s.traffic.seed, 42);
        let f = fault_sweep_config();
        assert_eq!(f.traffic.num_requests, 160);
        assert!(!f.model.training);
        let k = kv_sweep_config(480, 4);
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
                let mut c = fault_sweep_config();
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
