//! The benchmark's workloads: their definitions, set-up, the timed run,
//! the simulated metrics they report, and the checks their outputs pass.
//!
//! Every definition lives here, not in the simulator's sweep binaries, so
//! a later change to those binaries cannot move the yardstick. All traffic
//! is open-loop: seeded Poisson arrivals with Zipf lengths (s = 1.1), and
//! latency is measured in simulated time from each request's scheduled
//! arrival, so the generator is never late.

use crate::trace::timed;
use gaudi_exec::ExecPool;
use gaudi_hw::{fault::FaultCampaign, Topology};
use gaudi_models::LlmConfig;
use gaudi_serving::{
    generate_requests, simulate_cluster_with, simulate_trace_with, ClusterConfig, ClusterReport,
    DropKind, ExecPolicy, KvAdmissionConfig, PlanCache, PlanSharing, Request, RobustnessConfig,
    ServingConfig, ServingError, ServingReport, TrafficConfig,
};
use std::sync::Arc;
use std::time::Instant;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 1M requests over 512 cards of a tiny decoder: the engine event
    /// loop, calendar, routing and merge at scale; almost no compiling.
    Cluster1m,
    /// GPT-2-XL rate × batch sweep on one card: compile-bound.
    XlSweep,
    /// Paper GPT on 8 cards under a rack-power fault campaign with bounded
    /// queues, deadlines, retries, paged KV preemption and checkpointing.
    FaultStorm,
}

impl Workload {
    /// Every workload, in the order the benchmark reports them.
    pub const ALL: [Workload; 3] = [Workload::Cluster1m, Workload::XlSweep, Workload::FaultStorm];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Cluster1m => "cluster_1m",
            Workload::XlSweep => "xl_sweep",
            Workload::FaultStorm => "fault_storm",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed the workload's reference numbers are quoted at.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::Cluster1m => 2027,
            Workload::XlSweep => 42,
            Workload::FaultStorm => 7,
        }
    }

    /// The latency limits a completed request must meet to count as
    /// served: time to first token, and mean time per output token.
    pub fn slo(self) -> Slo {
        match self {
            Workload::Cluster1m => Slo {
                ttft_ms: 2_000.0,
                tpot_ms: 50.0,
            },
            Workload::XlSweep => Slo {
                ttft_ms: 2_000.0,
                tpot_ms: 150.0,
            },
            Workload::FaultStorm => Slo {
                ttft_ms: STORM_TTFT_DEADLINE_MS,
                tpot_ms: 50.0,
            },
        }
    }

    /// Build the workload's inputs for `seed`: configurations, request
    /// streams, and (for `fault_storm`) the fault campaign. `generated`
    /// gets the start time of each request stream's generation, as it
    /// ends, so a traced run can time it.
    pub fn setup(self, seed: u64, generated: &mut dyn FnMut(Instant)) -> Inputs {
        let mut generate = |traffic: &TrafficConfig| {
            let start = Instant::now();
            let requests = generate_requests(traffic);
            generated(start);
            requests
        };
        match self {
            Workload::Cluster1m => {
                let cfg = cluster_config(seed);
                let requests = generate(&cfg.box_config.traffic);
                Inputs::Cluster { cfg, requests }
            }
            Workload::XlSweep => {
                let mut cells = Vec::with_capacity(XL_RATES.len() * XL_BATCHES.len());
                for &rate in &XL_RATES {
                    for &max_batch in &XL_BATCHES {
                        let cfg = xl_cell(seed, rate, max_batch);
                        let requests = generate(&cfg.traffic);
                        cells.push(Cell { cfg, requests });
                    }
                }
                Inputs::Sweep { cells }
            }
            Workload::FaultStorm => {
                let cfg = storm_config(seed);
                let requests = generate(&cfg.traffic);
                let topo = Topology::cluster(&cfg.hw, STORM_BOXES, STORM_CARDS_PER_BOX, 1.0);
                Inputs::Storm {
                    campaign_seed: seed,
                    cfg,
                    requests,
                    topo,
                }
            }
        }
    }
}

/// Per-request latency limits (see [`Workload::slo`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slo {
    /// Time to first token, ms from scheduled arrival.
    pub ttft_ms: f64,
    /// Mean gap between output tokens, ms.
    pub tpot_ms: f64,
}

impl Slo {
    /// Completed requests of `r` that meet both limits. Dropped requests
    /// (shed, timed out, failed) never count.
    pub fn met(&self, r: &ServingReport) -> usize {
        r.completed
            .iter()
            .filter(|o| {
                let gaps = o.token_times_ms.len().saturating_sub(1);
                let tpot = if gaps == 0 {
                    0.0
                } else {
                    (o.token_times_ms[gaps] - o.token_times_ms[0]) / gaps as f64
                };
                o.ttft_ms <= self.ttft_ms && tpot <= self.tpot_ms
            })
            .count()
    }
}

// --- cluster_1m --------------------------------------------------------

/// Cluster-wide arrival rate, req/s: saturating, so queueing sets latency.
const CLUSTER_RATE: f64 = 250_000.0;

fn cluster_config(seed: u64) -> ClusterConfig {
    let mut model = LlmConfig::tiny(97);
    model.training = false;
    let base = ServingConfig::builder()
        .model(model)
        .traffic(TrafficConfig {
            arrival_rate_per_s: CLUSTER_RATE,
            num_requests: 1_000_000,
            prompt_range: (8, 64),
            output_range: (4, 16),
            zipf_s: 1.1,
            seed,
        })
        .max_batch(16)
        .ctx_bucket(32)
        .record_trace(false)
        .build();
    ClusterConfig::new(base, 64, 8).oversubscription(4.0)
}

// --- xl_sweep ----------------------------------------------------------

/// Offered rates of the sweep ladder, req/s.
pub const XL_RATES: [f64; 6] = [2.0, 3.0, 4.0, 5.0, 6.0, 8.0];
/// Continuous-batching slot counts swept at every rate.
pub const XL_BATCHES: [usize; 3] = [8, 16, 32];
/// The cell whose latency and goodput the sweep reports.
pub const XL_ANCHOR: (f64, usize) = (4.0, 32);
/// Requests per sweep cell.
const XL_REQUESTS: usize = 6_000;
/// Share of offered requests that must meet the SLO for a rate to count
/// as sustained.
pub const SLO_SHARE: f64 = 0.95;

fn xl_cell(seed: u64, rate: f64, max_batch: usize) -> ServingConfig {
    let mut cfg = ServingConfig::gpt2_xl();
    cfg.traffic = TrafficConfig {
        arrival_rate_per_s: rate,
        num_requests: XL_REQUESTS,
        prompt_range: (16, 512),
        output_range: (8, 128),
        zipf_s: 1.1,
        seed,
    };
    cfg.max_batch = max_batch;
    cfg.ctx_bucket = 32;
    cfg.record_trace = false;
    cfg
}

/// One point of the rate × batch sweep.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The cell's configuration.
    pub cfg: ServingConfig,
    /// The cell's request stream.
    pub requests: Vec<Request>,
}

/// Highest ladder rate at which some batch setting serves at least
/// [`SLO_SHARE`] of offered requests within the SLO; 0 if none does.
/// `cells` holds `(rate, share of offered requests that met the SLO)`.
pub fn slo_rate(cells: &[(f64, f64)]) -> f64 {
    cells
        .iter()
        .filter(|&&(_, share)| share >= SLO_SHARE)
        .map(|&(rate, _)| rate)
        .fold(0.0, f64::max)
}

// --- fault_storm -------------------------------------------------------

const STORM_BOXES: usize = 4;
const STORM_CARDS_PER_BOX: usize = 2;
/// Rack-power events in the campaign.
const STORM_EVENTS: usize = 6;
/// KV tokens of HBM each card keeps past the weights: small enough that
/// paged admission runs dry and preempts.
const STORM_KV_TOKENS: u64 = 256;
/// Engine-enforced time-to-first-token deadline, ms.
const STORM_TTFT_DEADLINE_MS: f64 = 100.0;
/// Snapshot cadence, ms of replica clock: shorter than a request's
/// decode, so live chains are snapshotted before a kill takes them.
const STORM_CHECKPOINT_MS: f64 = 20.0;
/// Host-link bandwidth snapshots and restores are priced against.
const STORM_DMA_BYTES_PER_S: f64 = 64e9;

fn storm_config(seed: u64) -> ServingConfig {
    let mut cfg = ServingConfig::paper_gpt();
    cfg.traffic = TrafficConfig {
        arrival_rate_per_s: 1_000.0,
        num_requests: 200_000,
        prompt_range: (16, 64),
        output_range: (4, 32),
        zipf_s: 1.1,
        seed,
    };
    cfg.devices = STORM_BOXES * STORM_CARDS_PER_BOX;
    cfg.max_batch = 16;
    cfg.ctx_bucket = 32;
    cfg.record_trace = false;
    cfg.kv_admission = KvAdmissionConfig::Paged { block_tokens: 16 };
    let worst = cfg.traffic.prompt_range.1 + cfg.traffic.output_range.1;
    let weights = cfg
        .kv_admission
        .weight_bytes(&cfg.model, worst, cfg.kv_dtype);
    let per_token = cfg
        .kv_admission
        .kv_bytes_per_token(&cfg.model, cfg.kv_dtype);
    cfg.hw.memory.hbm_capacity_bytes = weights + per_token * STORM_KV_TOKENS;
    cfg.robustness = RobustnessConfig::unlimited()
        .queue_depth(8)
        .ttft_deadline(STORM_TTFT_DEADLINE_MS)
        .retries(3)
        .backoff(2.0, 0.5, seed);
    cfg
}

// --- set-up inputs and the timed run ------------------------------------

/// Everything a workload needs before the timed region starts.
pub enum Inputs {
    Cluster {
        cfg: ClusterConfig,
        requests: Vec<Request>,
    },
    Sweep {
        cells: Vec<Cell>,
    },
    Storm {
        cfg: ServingConfig,
        requests: Vec<Request>,
        topo: Topology,
        campaign_seed: u64,
    },
}

/// A named simulator call the timed run makes, for the traced run's spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// `simulate_cluster_with` over the whole fleet.
    Cluster,
    /// `simulate_trace_with` of one sweep cell (index into the cells).
    Cell(usize),
    /// `simulate_trace_with` of the fault-free twin.
    Twin,
    /// `FaultCampaign::seeded` lowering the campaign over the twin horizon.
    Campaign,
    /// `simulate_trace_with` of the faulted stream.
    Faulted,
}

impl Call {
    /// Span name and the layer the call enters.
    pub fn label(self) -> (String, &'static str) {
        match self {
            Call::Cluster => ("simulate_cluster_with".into(), "serving.cluster"),
            Call::Cell(i) => (format!("simulate_trace_with cell {i}"), "serving.engine"),
            Call::Twin => ("simulate_trace_with twin".into(), "serving.engine"),
            Call::Campaign => ("FaultCampaign::seeded".into(), "hw.fault"),
            Call::Faulted => ("simulate_trace_with faulted".into(), "serving.engine"),
        }
    }
}

/// What the timed run produced (one per run, so its size does not matter).
#[allow(clippy::large_enum_variant)]
pub enum Outcome {
    Cluster {
        report: ClusterReport,
    },
    Sweep {
        /// One report per cell, in cell order.
        reports: Vec<ServingReport>,
    },
    Storm {
        twin: ServingReport,
        faulted: ServingReport,
        /// Card kills the lowered campaign scheduled.
        kills: usize,
    },
}

impl Inputs {
    /// The timed run: every simulator call the workload makes, on `pool`
    /// with compiled plans memoized into `cache`. `called` gets each call
    /// and its start time as the call returns, so a traced run can record
    /// a span for it.
    pub fn run(
        &self,
        pool: &ExecPool,
        cache: &Arc<PlanCache>,
        called: &mut dyn FnMut(Call, Instant),
    ) -> Result<Outcome, ServingError> {
        let policy = ExecPolicy {
            pool: pool.clone(),
            plans: PlanSharing::Shared(Arc::clone(cache)),
        };
        let outcome = match self {
            Inputs::Cluster { cfg, .. } => Outcome::Cluster {
                report: timed(called, Call::Cluster, || {
                    simulate_cluster_with(cfg, &policy)
                })?,
            },
            Inputs::Sweep { cells } => {
                // Cells fan out over the pool like a user's sweep would;
                // each cell's replicas run inline on the thread that took it.
                let inner = ExecPolicy {
                    pool: ExecPool::serial(),
                    plans: policy.plans.clone(),
                };
                let reports = if pool.concurrency() > 1 {
                    pool.try_par_map(cells, |_, c| {
                        simulate_trace_with(&c.cfg, c.requests.clone(), &inner)
                    })?
                } else {
                    let mut reports = Vec::with_capacity(cells.len());
                    for (i, c) in cells.iter().enumerate() {
                        reports.push(timed(called, Call::Cell(i), || {
                            simulate_trace_with(&c.cfg, c.requests.clone(), &inner)
                        })?);
                    }
                    reports
                };
                Outcome::Sweep { reports }
            }
            Inputs::Storm {
                cfg,
                requests,
                topo,
                campaign_seed,
            } => {
                let twin = timed(called, Call::Twin, || {
                    simulate_trace_with(cfg, requests.clone(), &policy)
                })?;
                // The campaign lands inside the first 80% of the clean
                // makespan; the tail has too little left to disrupt.
                let horizon = twin.makespan_ms * 0.8;
                let plan = timed(called, Call::Campaign, || {
                    FaultCampaign::rack_power(STORM_EVENTS, (horizon * 0.08, horizon * 0.25))
                        .seeded(*campaign_seed, topo, horizon)
                })?;
                let kills = plan.card_failures.len();
                let mut faulted_cfg = cfg.clone();
                faulted_cfg.faults = plan;
                faulted_cfg.robustness = faulted_cfg
                    .robustness
                    .checkpoint(STORM_CHECKPOINT_MS, STORM_DMA_BYTES_PER_S);
                let faulted = timed(called, Call::Faulted, || {
                    simulate_trace_with(&faulted_cfg, requests.clone(), &policy)
                })?;
                Outcome::Storm {
                    twin,
                    faulted,
                    kills,
                }
            }
        };
        Ok(outcome)
    }

    /// Every arrival key `(µs, id)` of the headline stream, in arrival
    /// order — what the engine's dispatch calendar sees.
    pub fn arrival_keys(&self) -> Vec<(u64, u64)> {
        let requests = match self {
            Inputs::Cluster { requests, .. } | Inputs::Storm { requests, .. } => requests,
            Inputs::Sweep { cells } => &cells[anchor_index()].requests,
        };
        requests.iter().map(|r| (r.arrival_us, r.id)).collect()
    }

    /// The model, context bucket, longest prompt, longest context and batch
    /// sizes whose phase graphs the traced run probes.
    pub fn probe_shape(&self) -> ProbeShape {
        let (cfg, batches) = match self {
            Inputs::Cluster { cfg, .. } => (&cfg.box_config, vec![1, 8, 16]),
            Inputs::Sweep { cells } => (&cells[0].cfg, XL_BATCHES.to_vec()),
            Inputs::Storm { cfg, .. } => (cfg, vec![1, 8, 16]),
        };
        ProbeShape {
            model: cfg.model.clone(),
            hw: cfg.hw.clone(),
            opts: cfg.opts.clone(),
            bucket: cfg.ctx_bucket,
            max_prompt: cfg.traffic.prompt_range.1,
            max_ctx: cfg.traffic.prompt_range.1 + cfg.traffic.output_range.1,
            batches,
        }
    }
}

/// The phase-graph grid a workload compiles, for the per-layer probes.
pub struct ProbeShape {
    pub model: LlmConfig,
    pub hw: gaudi_hw::GaudiConfig,
    pub opts: gaudi_compiler::CompilerOptions,
    pub bucket: usize,
    pub max_prompt: usize,
    pub max_ctx: usize,
    pub batches: Vec<usize>,
}

fn anchor_index() -> usize {
    let r = XL_RATES
        .iter()
        .position(|&x| x == XL_ANCHOR.0)
        .expect("anchor rate is on the ladder");
    let b = XL_BATCHES
        .iter()
        .position(|&x| x == XL_ANCHOR.1)
        .expect("anchor batch is swept");
    r * XL_BATCHES.len() + b
}

impl Outcome {
    /// Every serving report the run produced.
    pub fn reports(&self) -> Vec<&ServingReport> {
        match self {
            Outcome::Cluster { report } => vec![&report.report],
            Outcome::Sweep { reports } => reports.iter().collect(),
            Outcome::Storm { twin, faulted, .. } => vec![twin, faulted],
        }
    }

    /// The report whose latency and goodput the workload quotes.
    pub fn headline(&self) -> &ServingReport {
        match self {
            Outcome::Cluster { report } => &report.report,
            Outcome::Sweep { reports } => &reports[anchor_index()],
            Outcome::Storm { faulted, .. } => faulted,
        }
    }

    /// Share of offered requests that did not complete within the
    /// workload's SLO: every sweep cell pooled, the faulted run only (not
    /// its twin) on `fault_storm`.
    pub fn drop_frac(&self, slo: Slo) -> f64 {
        let reports: Vec<&ServingReport> = match self {
            Outcome::Storm { faulted, .. } => vec![faulted],
            _ => self.reports(),
        };
        let offered: usize = reports.iter().map(|r| r.offered).sum();
        let met: usize = reports.iter().map(|r| slo.met(r)).sum();
        (offered - met) as f64 / offered as f64
    }

    /// Faulted goodput over the fault-free twin's (1 when nothing faults).
    pub fn service_avail(&self) -> f64 {
        match self {
            Outcome::Storm { twin, faulted, .. } => {
                faulted.goodput_tokens_per_s / twin.goodput_tokens_per_s
            }
            _ => 1.0,
        }
    }

    /// The sweep's sustained rate under the SLO (0 off the sweep).
    pub fn slo_rate_rps(&self, slo: Slo) -> f64 {
        match self {
            Outcome::Sweep { reports } => {
                let cells: Vec<(f64, f64)> = reports
                    .iter()
                    .enumerate()
                    .map(|(i, r)| {
                        (
                            XL_RATES[i / XL_BATCHES.len()],
                            slo.met(r) as f64 / r.offered as f64,
                        )
                    })
                    .collect();
                slo_rate(&cells)
            }
            _ => 0.0,
        }
    }

    /// The end-to-end simulated metrics, by name.
    pub fn sim_metrics(&self, slo: Slo) -> Vec<(&'static str, f64)> {
        let h = self.headline();
        vec![
            ("goodput_tok_s", h.goodput_tokens_per_s),
            ("ttft_p50_ms", h.ttft_ms.p50),
            ("ttft_p99_ms", h.ttft_ms.p99),
            ("tpot_mean_ms", h.tpot_ms.mean),
            ("drop_frac", self.drop_frac(slo)),
            ("service_avail", self.service_avail()),
        ]
    }

    /// Check the outputs: conservation, HBM bounds, and the workload's
    /// own invariants. Returns the name of the first check that fails.
    pub fn check(&self, inputs: &Inputs) -> Result<(), String> {
        for r in self.reports() {
            if r.offered != r.completed.len() + r.dropped.len() {
                return Err(format!(
                    "conservation: offered {} != completed {} + dropped {}",
                    r.offered,
                    r.completed.len(),
                    r.dropped.len()
                ));
            }
            if r.kv_peak_bytes > r.kv_capacity_bytes {
                return Err(format!(
                    "kv_capacity: peak {} B > capacity {} B",
                    r.kv_peak_bytes, r.kv_capacity_bytes
                ));
            }
        }
        match (self, inputs) {
            (Outcome::Cluster { report }, Inputs::Cluster { requests, .. }) => {
                let offered: usize = report.per_box.iter().map(|b| b.offered).sum();
                let tokens: u64 = requests.iter().map(|r| r.total_tokens() as u64).sum();
                let routed: u64 = report.per_box.iter().map(|b| b.routed_tokens).sum();
                if report.report.offered != requests.len() || offered != requests.len() {
                    return Err("cluster_conservation: boxes did not see the whole stream".into());
                }
                if routed != tokens {
                    return Err(format!(
                        "cluster_tokens: routed {routed} tokens of {tokens} offered"
                    ));
                }
            }
            (Outcome::Sweep { reports }, Inputs::Sweep { cells }) => {
                for (r, c) in reports.iter().zip(cells) {
                    if r.offered != c.requests.len() {
                        return Err("sweep_conservation: a cell lost requests".into());
                    }
                }
            }
            (Outcome::Storm { faulted, kills, .. }, Inputs::Storm { .. }) => {
                let vacuous = [
                    ("kills", *kills as u64),
                    ("restarts", faulted.restarts as u64),
                    ("recovered_tokens", faulted.recovered_tokens),
                    ("shed", faulted.shed() as u64),
                    ("preemptions", faulted.preemptions as u64),
                ];
                if let Some((name, _)) = vacuous.iter().find(|(_, v)| *v == 0) {
                    return Err(format!("storm_not_vacuous: no {name} at this seed"));
                }
            }
            _ => return Err("outcome does not match its inputs".into()),
        }
        Ok(())
    }

    /// A digest of every simulated number the run produced: report
    /// scalars, every request's timings and every drop. Equal digests mean
    /// bit-identical simulations.
    pub fn digest(&self) -> u64 {
        let mut h = Digest::new();
        for r in self.reports() {
            h.report(r);
        }
        if let Outcome::Cluster { report } = self {
            h.word(report.cross_box_requests as u64);
            h.f(report.cross_box_delay_ms);
            for b in &report.per_box {
                h.word(b.offered as u64);
                h.word(b.completed as u64);
                h.word(b.routed_tokens);
            }
        }
        h.0
    }
}

/// Word-wise FNV-1a.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(0x0100_0000_01b3);
    }

    fn f(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn report(&mut self, r: &ServingReport) {
        for x in [
            r.makespan_ms,
            r.goodput_tokens_per_s,
            r.throughput_tokens_per_s,
            r.mme_utilization,
            r.tpc_utilization,
            r.dma_utilization,
            r.nic_utilization,
            r.kv_block_utilization,
            r.restore_ms,
        ] {
            self.f(x);
        }
        for p in [r.ttft_ms, r.tpot_ms, r.queue_ms, r.timed_out_latency_ms] {
            for x in [p.p50, p.p95, p.p99, p.mean] {
                self.f(x);
            }
        }
        for x in [
            r.offered,
            r.decode_steps,
            r.prefills,
            r.backpressure_stalls,
            r.max_queue_depth,
            r.peak_queued_tokens,
            r.compiled_graphs,
            r.preemptions,
            r.peak_running,
            r.scheduled_tokens,
            r.padded_tokens,
            r.devices,
            r.retries,
            r.requeued_tokens,
            r.failed_replicas,
            r.restarts,
        ] {
            self.word(x as u64);
        }
        for x in [
            r.kv_peak_bytes,
            r.kv_capacity_bytes,
            r.recipe_compiles,
            r.checkpoint_bytes,
            r.recovered_tokens,
        ] {
            self.word(x);
        }
        for o in &r.completed {
            self.word(o.id);
            self.word(o.output_len as u64);
            self.word(u64::from(o.retries));
            self.f(o.queue_ms);
            self.f(o.ttft_ms);
            self.f(o.finish_ms);
        }
        for d in &r.dropped {
            self.word(d.id);
            self.word(match d.kind {
                DropKind::Rejected => 1,
                DropKind::TimedOut => 2,
                DropKind::Failed => 3,
            });
            self.f(d.at_ms);
            self.word(d.tokens_generated as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaudi_serving::RequestOutcome;

    fn outcome(id: u64, ttft_ms: f64, token_times_ms: Vec<f64>) -> RequestOutcome {
        RequestOutcome {
            id,
            arrival_ms: 0.0,
            prompt_len: 8,
            output_len: token_times_ms.len(),
            queue_ms: 0.0,
            ttft_ms,
            retries: 0,
            finish_ms: *token_times_ms.last().expect("at least one token"),
            token_times_ms,
        }
    }

    #[test]
    fn slo_rate_is_the_highest_rate_some_batch_sustains() {
        // A synthetic report: four completions, one slow to first token,
        // one with slow tokens, plus one shed request.
        let mut cfg = ServingConfig::paper_gpt();
        cfg.traffic = TrafficConfig {
            num_requests: 2,
            prompt_range: (8, 8),
            output_range: (2, 2),
            ..TrafficConfig::default()
        };
        let mut r = gaudi_serving::simulate(&cfg).expect("a tiny stream simulates");
        r.completed = vec![
            outcome(0, 10.0, vec![10.0, 20.0, 30.0]),
            outcome(1, 2_600.0, vec![2_600.0, 2_610.0]),
            outcome(2, 10.0, vec![10.0, 400.0]),
            outcome(3, 1_999.0, vec![1_999.0]),
        ];
        r.offered = 5;
        let slo = Workload::XlSweep.slo();
        assert_eq!(
            slo.met(&r),
            2,
            "ids 0 and 3 meet TTFT <= 2 s and TPOT <= 150 ms"
        );

        let share = slo.met(&r) as f64 / r.offered as f64;
        assert_eq!(slo_rate(&[(2.0, 1.0), (3.0, share), (4.0, 0.2)]), 2.0);
        // Any one batch setting sustaining the rate is enough.
        assert_eq!(
            slo_rate(&[(2.0, 1.0), (3.0, 0.95), (3.0, 0.5), (4.0, 0.94)]),
            3.0
        );
        assert_eq!(slo_rate(&[(2.0, 0.5)]), 0.0);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("paper_figs"), None);
        assert_eq!(anchor_index(), 2 * XL_BATCHES.len() + 2);
    }
}
