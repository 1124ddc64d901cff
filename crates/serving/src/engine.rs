//! The serving engine: continuous batching at decode-step boundaries.
//!
//! The simulator advances each replica's clock through an iteration-level
//! (Orca-style) schedule:
//!
//! 1. ingest arrivals into a FIFO admission queue — re-checked after
//!    *every* phase, so requests landing during a long prefill or decode
//!    step become schedulable (and visible to `max_queue_depth`) at the
//!    phase boundary, not a full iteration later. Ingestion is where the
//!    [`RobustnessConfig`] sheds: an arrival that would push the queue
//!    past its depth bound terminates as rejected, and a queued
//!    request whose TTFT or end-to-end deadline has already lapsed
//!    terminates as timed-out before wasting a prefill;
//! 2. at every step boundary, admit queued requests while the decode
//!    batch has a slot *and* the KV admission strategy
//!    ([`KvAdmissionConfig`]) accepts the request — the legacy contiguous
//!    accountant wants the worst-case `prompt + output` reservation, the
//!    paged allocator only the blocks of the current context (otherwise:
//!    backpressure — the request waits, it is never silently dropped);
//! 3. admission runs the request's prefill as a dedicated phase (the
//!    engine is busy for its full duration). The prefill's last forward
//!    pass emits the request's **first output token**, so TTFT is
//!    queueing + prefill, and a request needs `output_len - 1` decode
//!    steps after admission;
//! 4. one decode step advances *every* running request by one token;
//!    requests that reach their output length retire at the boundary and
//!    free their KV reservation immediately, opening slots for the queue.
//!    A running request that can no longer meet its end-to-end deadline
//!    is cancelled at the boundary, returning its KV pages to the queue.
//!    Under paged admission a decode step that cannot take a KV block for
//!    every runner first preempts the newest admissions back to the head
//!    of the queue (generated tokens discarded, recomputed on
//!    re-admission) until the survivors fit — deterministic, and bounded
//!    because a lone runner always fits by the admission-time pre-scan.
//!
//! Every phase runs at one shape ([`CostModel::shape`]): its length
//! rounded up to the context bucket and, for a decode step, its batch
//! padded up to `RecipeConfig::batch_bucket` (never past the slot count),
//! trading padded compute for fewer distinct recipes. The shape's slots
//! feed the report's padded/scheduled token counters, which make the
//! waste side of that trade visible. The first time a replica runs a
//! shape, the configured [`RecipeConfig::compile_ms`] of recipe-compile
//! warmup lands on the clock (host compile — engine-busy counters are
//! untouched).
//!
//! Every phase is priced by the [`CostModel`], so the same §3.3/§3.4
//! hardware calibration that reproduces the paper's training figures also
//! sets TTFT and per-token latency here.
//!
//! Each replica steps through named sub-steps: `housekeep` (1) at every
//! boundary, then the first of `checkpoint`, `admit` (2–3, a prefill or a
//! snapshot restore), `decode` (4) and `idle` (jump to the next arrival)
//! that makes progress.
//!
//! A request's serving state travels with the request, so no replica keeps
//! a table keyed by request id: a runner holds its KV lease
//! ([`KvLease`]) and its host snapshot position, and a job carries that
//! position to its next attempt. Each card places its terminal records in
//! the call's id-ordered slots in bounded batches as it runs.
//!
//! ## Fault injection and recovery
//!
//! A [`FaultPlan`] in the configuration makes replicas mortal, and kills
//! turn the run into a single-pass event-driven simulation: replicas
//! advance to quiescence below the next fault or arrival event, then the
//! event is delivered. Fresh arrivals stream from the sorted trace; only
//! re-queued and parked jobs wait in an [`EventCalendar`]. A killed replica halts at the first phase boundary
//! at or after the failure time; its in-flight, queued, and
//! dispatched-but-unarrived requests are re-queued through the central
//! dispatcher with deterministic exponential backoff (retry count bumped,
//! generated tokens discarded) — or terminated as failed once the retry
//! budget is spent. A kill with a restart window brings the card back with
//! a **cold recipe table** (its compiled phase plans are fetched again on
//! demand, and with warmup enabled every shape pays its compile latency
//! again), and the recovered replica immediately rejoins the round-robin
//! dispatch pool. Everything stays a pure function of the configuration:
//! same seed, same plan, bit-identical report.

use crate::calendar::EventCalendar;
use crate::cost::{CostContext, CostModel, Phase, PhaseCost, PlanCache, RecipeConfig, Shape};
use crate::error::ServingError;
use crate::fault::Job;
use crate::kv::{
    kv_row_bytes, resident_weight_bytes, ActivationBudget, KvAdmission, KvAdmissionConfig, KvLease,
    KvStrategy,
};
use crate::report::{
    CardRecords, CardTime, DropKind, Ranks, Records, RequestOutcome, ServingReport, Tally,
};
use crate::request::{ceil_us, generate_requests, Request, TrafficConfig};
use crate::robustness::RobustnessConfig;
use gaudi_compiler::CompilerOptions;
use gaudi_exec::ExecPool;
use gaudi_hw::fault::FaultPlan;
use gaudi_hw::{DeviceId, EngineId, GaudiConfig};
use gaudi_models::LlmConfig;
use gaudi_profiler::trace::TraceEvent;
use gaudi_profiler::Trace;
use gaudi_tensor::DType;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, PoisonError};

/// Full configuration of a serving simulation.
///
/// Non-exhaustive: outside this crate, start from a preset
/// ([`paper_gpt`](Self::paper_gpt), [`gpt2_xl`](Self::gpt2_xl)) and
/// mutate fields, or go through [`ServingConfigBuilder`] — the same
/// treatment `CompilerOptions` got, so fields like `kv_admission` and
/// `recipes` can keep arriving without breaking downstream construction.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServingConfig {
    /// The model being served (its `batch`/`seq_len`/`training` fields are
    /// ignored; serving shapes phases itself).
    pub model: LlmConfig,
    /// Request-stream parameters.
    pub traffic: TrafficConfig,
    /// Maximum decode batch size (continuous-batching slot count).
    pub max_batch: usize,
    /// Context-length bucket for the decode-graph cache, tokens.
    pub ctx_bucket: usize,
    /// KV-cache element type.
    pub kv_dtype: DType,
    /// Hardware model.
    pub hw: GaudiConfig,
    /// Compiler options used to cost every phase.
    pub opts: CompilerOptions,
    /// Number of cards serving as independent data-parallel replicas, each
    /// holding a full model copy and taking a round-robin share of the
    /// request stream.
    pub devices: usize,
    /// Deterministic fault schedule: card failures (with optional restart
    /// windows) and degraded links. [`FaultPlan::none`] (the default) is
    /// steady state.
    pub faults: FaultPlan,
    /// Overload protection: admission bounds, SLO deadlines, retry budget,
    /// and backoff. The default ([`RobustnessConfig::unlimited`]) never
    /// sheds, expires, or fails a request.
    pub robustness: RobustnessConfig,
    /// How KV-cache HBM is reserved at admission: contiguous worst-case
    /// (the default, the legacy behavior) or block-granular paged
    /// allocation.
    pub kv_admission: KvAdmissionConfig,
    /// How activation/workspace memory of the compiled phase graphs is
    /// budgeted at admission. [`ActivationBudget::Off`] (the default)
    /// reserves nothing — the legacy `weights + KV` formula, bit-identical
    /// to earlier reports; `Unplanned`/`Planned` reserve the worst-case
    /// phase's naive or arena-packed footprint, so the admission formula
    /// becomes `weights + activations + KV`.
    pub activation_budget: ActivationBudget,
    /// Recipe-cache warmup model: per-replica first-use compile latency
    /// and decode batch bucketing. The default charges nothing and keeps
    /// exact batches — bit-identical to the pre-warmup engine.
    pub recipes: RecipeConfig,
    /// Whether replicas record per-phase [`Trace`] events. On (the
    /// default) for every analysis path; cluster-scale sweeps turn it off
    /// — a million requests would accumulate hundreds of megabytes of
    /// timeline nobody renders. Off changes no number in the report
    /// except the trace itself being empty.
    pub record_trace: bool,
}

impl ServingConfig {
    /// Serve the paper's §3.4 GPT configuration (2 layers, d=512). Tiny by
    /// modern standards — its KV cache almost never pressures 32 GB.
    pub fn paper_gpt() -> Self {
        let mut model = LlmConfig::paper_section_3_4(50257);
        model.training = false;
        ServingConfig {
            model,
            traffic: TrafficConfig::default(),
            max_batch: 8,
            ctx_bucket: 128,
            kv_dtype: DType::F32,
            hw: GaudiConfig::hls1(),
            opts: CompilerOptions::default(),
            devices: 1,
            faults: FaultPlan::none(),
            robustness: RobustnessConfig::default(),
            kv_admission: KvAdmissionConfig::default(),
            activation_budget: ActivationBudget::default(),
            recipes: RecipeConfig::default(),
            record_trace: true,
        }
    }

    /// [`paper_gpt`](Self::paper_gpt) serving a GPT-2-XL-class model (48
    /// layers, d=1600) with 16 decode slots: heavy enough that KV
    /// reservations contend for the 32 GB device and admission
    /// backpressure actually engages.
    pub fn gpt2_xl() -> Self {
        ServingConfig {
            model: LlmConfig {
                vocab: 50257,
                seq_len: 2048,
                batch: 1,
                layers: 48,
                heads: 25,
                head_dim: 64,
                ffn_mult: 4,
                training: false,
            },
            max_batch: 16,
            ..Self::paper_gpt()
        }
    }

    /// A builder seeded from [`paper_gpt`](Self::paper_gpt) — with the
    /// struct non-exhaustive, presets and this builder are the only ways
    /// to construct a config outside this crate.
    pub fn builder() -> ServingConfigBuilder {
        ServingConfigBuilder {
            cfg: ServingConfig::paper_gpt(),
        }
    }

    /// A builder seeded from this configuration, for derived variants.
    pub fn to_builder(&self) -> ServingConfigBuilder {
        ServingConfigBuilder { cfg: self.clone() }
    }

    /// Largest prompt+output the traffic model can emit, tokens.
    fn max_request_tokens(&self) -> usize {
        self.traffic.prompt_range.1 + self.traffic.output_range.1
    }
}

/// Builder for [`ServingConfig`]: every setter replaces one field of the
/// seed configuration (a preset, or an existing config via
/// [`ServingConfig::to_builder`]).
#[derive(Debug, Clone)]
pub struct ServingConfigBuilder {
    cfg: ServingConfig,
}

impl ServingConfigBuilder {
    /// The model being served.
    pub fn model(mut self, model: LlmConfig) -> Self {
        self.cfg.model = model;
        self
    }

    /// Request-stream parameters.
    pub fn traffic(mut self, traffic: TrafficConfig) -> Self {
        self.cfg.traffic = traffic;
        self
    }

    /// Maximum decode batch size.
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.cfg.max_batch = max_batch;
        self
    }

    /// Context-length bucket for the decode-graph cache, tokens.
    pub fn ctx_bucket(mut self, ctx_bucket: usize) -> Self {
        self.cfg.ctx_bucket = ctx_bucket;
        self
    }

    /// KV-cache element type.
    pub fn kv_dtype(mut self, kv_dtype: DType) -> Self {
        self.cfg.kv_dtype = kv_dtype;
        self
    }

    /// Hardware model.
    pub fn hw(mut self, hw: GaudiConfig) -> Self {
        self.cfg.hw = hw;
        self
    }

    /// Compiler options used to cost every phase.
    pub fn opts(mut self, opts: CompilerOptions) -> Self {
        self.cfg.opts = opts;
        self
    }

    /// Number of data-parallel replica cards.
    pub fn devices(mut self, devices: usize) -> Self {
        self.cfg.devices = devices;
        self
    }

    /// Deterministic fault schedule.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.cfg.faults = faults;
        self
    }

    /// Overload-protection policy.
    pub fn robustness(mut self, robustness: RobustnessConfig) -> Self {
        self.cfg.robustness = robustness;
        self
    }

    /// KV admission strategy (contiguous or paged).
    pub fn kv_admission(mut self, kv_admission: KvAdmissionConfig) -> Self {
        self.cfg.kv_admission = kv_admission;
        self
    }

    /// Activation-memory budget charged at admission (off by default).
    pub fn activation_budget(mut self, activation_budget: ActivationBudget) -> Self {
        self.cfg.activation_budget = activation_budget;
        self
    }

    /// Recipe-cache warmup model.
    pub fn recipes(mut self, recipes: RecipeConfig) -> Self {
        self.cfg.recipes = recipes;
        self
    }

    /// Whether replicas record per-phase trace events (on by default;
    /// cluster-scale sweeps turn it off to keep memory flat).
    pub fn record_trace(mut self, record_trace: bool) -> Self {
        self.cfg.record_trace = record_trace;
        self
    }

    /// Finish the build.
    pub fn build(self) -> ServingConfig {
        self.cfg
    }
}

/// How compiled phase plans are shared between the replicas of a
/// simulation (and possibly beyond it).
#[derive(Debug, Clone, Default)]
pub enum PlanSharing {
    /// One [`CostContext`] per `simulate` call: replicas share compiled
    /// plans and borrow one set of configs instead of cloning them apiece.
    #[default]
    PerCall,
    /// Memoize into a caller-provided [`PlanCache`], shared across calls —
    /// sweep points with overlapping phase shapes compile each shape once
    /// process-wide.
    Shared(Arc<PlanCache>),
}

/// Execution policy for a serving simulation: where replica simulations
/// run and how their compiled plans are shared. The result of a simulation
/// is bit-identical under every policy — replicas are independent, the
/// pool returns their results in input order, and plan sharing only
/// changes *when* a shape is compiled, never what it costs.
#[derive(Debug, Clone)]
pub struct ExecPolicy {
    /// Thread pool replica simulations fan out on ([`ExecPool::serial`]
    /// runs them inline on the caller).
    pub pool: ExecPool,
    /// Plan-compilation sharing between replicas / across calls.
    pub plans: PlanSharing,
}

impl Default for ExecPolicy {
    /// Global process pool (`GAUDI_EXEC_THREADS` sizes it), plans shared
    /// within the call.
    fn default() -> Self {
        ExecPolicy {
            pool: ExecPool::global().clone(),
            plans: PlanSharing::default(),
        }
    }
}

impl ExecPolicy {
    /// Global pool, memoizing compilations into `cache` (share one cache
    /// across a sweep to compile each distinct phase shape once).
    pub fn shared(cache: Arc<PlanCache>) -> Self {
        ExecPolicy {
            pool: ExecPool::global().clone(),
            plans: PlanSharing::Shared(cache),
        }
    }
}

/// A request currently holding a decode slot, with everything the replica
/// keeps about it: its KV lease and its host snapshot position.
#[derive(Debug)]
struct Active {
    job: Job,
    /// Its KV reservation, released exactly once when it leaves the card.
    lease: KvLease,
    /// Tokens visible to attention (prompt + generated so far).
    ctx: usize,
    generated: usize,
    /// Generated tokens its last host snapshot holds: the snapshot it was
    /// restored from (zero after a prefill) until a checkpoint takes a
    /// newer one. Host DRAM survives the card, so an eviction hands this
    /// position to the job's next attempt.
    snapshot: usize,
    outcome: RequestOutcome,
}

impl Active {
    /// A runner whose first `generated` tokens exist as of `clock_ms`: the
    /// prefill's one, or a restored snapshot's. TTFT is measured from the
    /// request's original arrival.
    fn new(
        job: Job,
        lease: KvLease,
        generated: usize,
        queue_ms: f64,
        ttft_ms: f64,
        clock_ms: f64,
    ) -> Self {
        let mut token_times_ms = Vec::with_capacity(job.req.output_len - generated + 1);
        token_times_ms.push(clock_ms);
        Active {
            lease,
            ctx: job.req.prompt_len + generated,
            generated,
            snapshot: job.checkpointed_tokens,
            outcome: RequestOutcome {
                id: job.req.id,
                arrival_ms: job.req.arrival_ms(),
                prompt_len: job.req.prompt_len,
                output_len: job.req.output_len,
                queue_ms,
                ttft_ms,
                retries: job.retries,
                finish_ms: 0.0,
                token_times_ms,
            },
            job,
        }
    }
}

/// A replica's FIFO admission queue, with the worst-case token footprint
/// of its jobs and a lower bound on their earliest arrival. Every push
/// lowers the bound to the job's arrival and a pop leaves it alone, so no
/// queued job arrived before it, and [`expire`](Self::expire) tests it
/// before it scans the queue.
struct AdmissionQueue {
    jobs: VecDeque<Job>,
    /// Worst-case token footprint of `jobs`.
    tokens: usize,
    /// At most the earliest `arrival_us` in `jobs` (`u64::MAX` when empty
    /// since the last reset).
    oldest_us: u64,
}

impl AdmissionQueue {
    fn new() -> Self {
        AdmissionQueue {
            jobs: VecDeque::new(),
            tokens: 0,
            oldest_us: u64::MAX,
        }
    }

    fn len(&self) -> usize {
        self.jobs.len()
    }

    fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Count `job` in the total and the bound.
    fn count(&mut self, job: &Job) {
        self.tokens += job.req.total_tokens();
        self.oldest_us = self.oldest_us.min(job.req.arrival_us);
    }

    fn push_back(&mut self, job: Job) {
        self.count(&job);
        self.jobs.push_back(job);
    }

    fn push_front(&mut self, job: Job) {
        self.count(&job);
        self.jobs.push_front(job);
    }

    fn pop_front(&mut self) -> Option<Job> {
        let job = self.jobs.pop_front()?;
        self.tokens -= job.req.total_tokens();
        Some(job)
    }

    /// Empty the queue in order, resetting the total and the bound.
    fn drain(&mut self) -> std::collections::vec_deque::Drain<'_, Job> {
        self.tokens = 0;
        self.oldest_us = u64::MAX;
        self.jobs.drain(..)
    }

    /// Hand every job whose arrival, µs, `lapsed` holds for to `expired`,
    /// in queue order, keeping the rest in order. `lapsed` must hold for
    /// every arrival earlier than one it holds for: then no job lapses
    /// unless the bound does, and only then is the queue scanned, the scan
    /// resetting the bound to the exact earliest arrival it keeps.
    fn expire(&mut self, lapsed: impl Fn(u64) -> bool, mut expired: impl FnMut(Job)) {
        if !lapsed(self.oldest_us) {
            return;
        }
        self.oldest_us = u64::MAX;
        // One turn of the ring: each job is popped once and the kept ones
        // go back in order, in the storage they came from.
        for _ in 0..self.jobs.len() {
            let Some(job) = self.jobs.pop_front() else {
                break;
            };
            if lapsed(job.req.arrival_us) {
                self.tokens -= job.req.total_tokens();
                expired(job);
            } else {
                self.oldest_us = self.oldest_us.min(job.req.arrival_us);
                self.jobs.push_back(job);
            }
        }
    }
}

/// One data-parallel replica as an incremental state machine.
///
/// [`Replica::step`] runs at most one timed phase and never *starts* a
/// phase at `clock_ms >= limit_ms`; a phase that started strictly before
/// the limit may straddle it (kills take effect at the next phase
/// boundary, exactly like the SynapseAI runtime draining a launched
/// recipe). Driving `step` with `limit_ms = ∞` runs the replica to
/// completion; the event loop in [`simulate_box`] instead advances every
/// replica to quiescence below the next fault or dispatch event.
struct Replica<'a> {
    cfg: &'a ServingConfig,
    /// The replica's recipe table; replaced cold on restart.
    cost: CostModel,
    kv: KvStrategy,
    /// Dispatched to this replica but not yet arrived, in submission order.
    pending: VecDeque<Job>,
    /// The FIFO admission queue.
    waiting: AdmissionQueue,
    running: Vec<Active>,
    /// Terminal records on their way to the call's slots.
    records: CardRecords<'a>,
    clock_ms: f64,
    up: bool,
    down_since: Option<f64>,
    down_ms: f64,
    /// KV row size, bytes — what checkpoint and restore copies are priced
    /// by.
    kv_bytes_per_token: u64,
    /// Replica clock of the next due KV snapshot (infinity: no policy).
    next_checkpoint_ms: f64,
    /// This card's counters and trace, in the report's own fields. The
    /// compile counts hold what restarts retired until
    /// [`finalize`](Self::finalize) adds the live table's and sets the
    /// fields it derives.
    report: ServingReport,
    /// MME, TPC, DMA and NIC busy time, ns.
    busy_ns: [f64; 4],
}

#[warn(clippy::too_many_lines)]
impl<'a> Replica<'a> {
    fn new(
        cfg: &'a ServingConfig,
        cost: CostModel,
        activation_reserve: u64,
        records: &'a Mutex<Records>,
    ) -> Result<Self, ServingError> {
        let kv = cfg
            .kv_admission
            .build(
                &cfg.hw.memory,
                &cfg.model,
                cfg.max_request_tokens(),
                cfg.kv_dtype,
                activation_reserve,
            )
            .map_err(ServingError::WeightsDontFit)?;
        let kv_bytes_per_token = cfg
            .kv_admission
            .kv_bytes_per_token(&cfg.model, cfg.kv_dtype);
        let next_checkpoint_ms = cfg
            .robustness
            .checkpoint
            .map_or(f64::INFINITY, |c| c.interval_ms);
        Ok(Replica {
            cfg,
            cost,
            kv,
            pending: VecDeque::new(),
            waiting: AdmissionQueue::new(),
            running: Vec::new(),
            records: CardRecords::new(records),
            clock_ms: 0.0,
            up: true,
            down_since: None,
            down_ms: 0.0,
            kv_bytes_per_token,
            next_checkpoint_ms,
            report: ServingReport::default(),
            busy_ns: [0.0; 4],
        })
    }

    /// Hand this replica a dispatched job (it arrives at its submission
    /// time; the replica ingests it at the next phase boundary past that).
    fn enqueue(&mut self, job: Job) {
        self.pending.push_back(job);
    }

    /// Whether this replica can still make progress on its own — up with
    /// work dispatched, queued, or running. A replica with no local work
    /// leaves the event loop's ready set until the coordinator touches it
    /// again (dispatch, halt, or restart); one *with* work must stay in
    /// the set even while quiescent, because `step` never starts a phase
    /// at the limit and the pending job may sit exactly on it.
    fn has_local_work(&self) -> bool {
        self.up && !(self.pending.is_empty() && self.waiting.is_empty() && self.running.is_empty())
    }

    /// Whether [`step`](Self::step) under `limit_ms` could change anything.
    /// At or past the limit `step` only housekeeps, and at an unchanged
    /// clock that repeats the ingest, gauge update and expiry its last call
    /// ran, unless a dispatched job has come due since: between steps the
    /// coordinator only appends to `pending`, and the one clock it moves (a
    /// restart's) belongs to a replica its halt emptied.
    fn may_progress(&self, limit_ms: f64) -> bool {
        self.up
            && (self.clock_ms < limit_ms
                || self
                    .pending
                    .front()
                    .is_some_and(|j| j.submitted_ms() <= self.clock_ms))
    }

    /// Execute one priced phase: advance the clock and the busy counters.
    fn record(&mut self, name: &str, c: &PhaseCost) {
        if self.cfg.record_trace {
            record_phase(&mut self.report.trace, name, self.clock_ms, c);
        }
        self.clock_ms += c.ms;
        let busy = [c.mme_busy_ns, c.tpc_busy_ns, c.dma_busy_ns, c.nic_busy_ns];
        for (sum, ns) in self.busy_ns.iter_mut().zip(busy) {
            *sum += ns;
        }
    }

    /// Ingest arrivals (shedding past the queue bounds), refresh the depth
    /// gauges, and expire queued requests whose deadlines already lapsed.
    /// Runs at every phase boundary so arrivals during long phases are
    /// never invisible to the bounds.
    fn housekeep(&mut self) {
        let rb = &self.cfg.robustness;
        while let Some(job) = self
            .pending
            .pop_front_if(|j| j.submitted_ms() <= self.clock_ms)
        {
            if rb.max_queue_depth.is_some_and(|d| self.waiting.len() >= d) {
                let rejected = job.dropped(DropKind::Rejected, self.clock_ms, 0);
                self.records.file_dropped(rejected);
            } else {
                self.waiting.push_back(job);
            }
        }
        let r = &mut self.report;
        r.max_queue_depth = r.max_queue_depth.max(self.waiting.len());
        r.peak_queued_tokens = r.peak_queued_tokens.max(self.waiting.tokens);

        if rb.ttft_deadline_ms.is_none() && rb.deadline_ms.is_none() {
            return;
        }
        let clock = self.clock_ms;
        // Monotone in the arrival: the µs-to-ms conversion (as
        // `Request::arrival_ms`) and the subtraction from the clock never
        // reorder two arrivals, so the oldest queued job lapses first.
        let lapsed = |arrival_us: u64| {
            let waited = clock - arrival_us as f64 / 1e3;
            rb.ttft_deadline_ms.is_some_and(|d| waited > d)
                || rb.deadline_ms.is_some_and(|d| waited > d)
        };
        // The closure borrows only the records, so the queue turns in place.
        self.waiting.expire(lapsed, |j| {
            self.records
                .file_dropped(j.dropped(DropKind::TimedOut, clock, 0));
        });
    }

    /// Free a finished request's KV lease and classify it: completed if
    /// every SLO held, a timed-out drop (throughput, not goodput) if it
    /// finished past its end-to-end deadline.
    fn retire(&mut self, a: Active) {
        let Active {
            job,
            lease,
            outcome,
            generated,
            ..
        } = a;
        self.kv.release(lease);
        let latency = outcome.finish_ms - outcome.arrival_ms;
        if self.cfg.robustness.deadline_ms.is_some_and(|d| latency > d) {
            let late = job.dropped(DropKind::TimedOut, outcome.finish_ms, generated);
            self.records.file_dropped(late);
        } else {
            self.records.file_completed(outcome);
        }
    }

    /// Take a runner off the card — a halt's in-flight work, or a paged
    /// preemption's victim — releasing its KV. The job carries the
    /// runner's host snapshot position (zero without one), so its next
    /// attempt restores instead of recomputing, and only the tokens
    /// generated past the snapshot count as lost.
    fn evict(&mut self, a: Active) -> Job {
        let Active {
            mut job,
            lease,
            generated,
            snapshot,
            ..
        } = a;
        self.kv.release(lease);
        job.checkpointed_tokens = snapshot;
        self.report.requeued_tokens += generated.saturating_sub(snapshot);
        job
    }

    /// Run at most one timed phase, never starting one at or past
    /// `limit_ms`. Returns `Ok(true)` if the replica made progress and
    /// should be stepped again, `Ok(false)` once it is quiescent below the
    /// limit (down, out of work, or waiting on an event past the limit).
    fn step(&mut self, limit_ms: f64) -> Result<bool, ServingError> {
        if !self.up {
            return Ok(false);
        }
        self.housekeep();
        if self.clock_ms >= limit_ms {
            return Ok(false);
        }
        Ok(self.checkpoint() || self.admit()? || self.decode()? || self.idle(limit_ms))
    }

    /// A copy of `tokens` KV rows between the card and host over DMA, as
    /// `(bytes, cost)` at the checkpoint policy's bandwidth.
    fn kv_copy(&self, tokens: usize) -> (u64, PhaseCost) {
        let ckpt = self
            .cfg
            .robustness
            .checkpoint
            .expect("a KV snapshot implies a checkpoint policy");
        let bytes = tokens as u64 * self.kv_bytes_per_token;
        let ms = bytes as f64 / ckpt.dma_bytes_per_s * 1e3;
        let c = PhaseCost {
            ms,
            dma_busy_ns: ms * 1e6,
            ..PhaseCost::default()
        };
        (bytes, c)
    }

    /// Periodic KV checkpoint: once due, snapshot every running chain to
    /// host, priced as a DMA phase against the replica clock. The snapshot
    /// captures each chain's generated-token count; a chain evicted later
    /// restores it instead of recomputing from scratch.
    fn checkpoint(&mut self) -> bool {
        let Some(ckpt) = self.cfg.robustness.checkpoint else {
            return false;
        };
        if self.clock_ms < self.next_checkpoint_ms {
            return false;
        }
        self.next_checkpoint_ms = self.clock_ms + ckpt.interval_ms;
        if self.running.is_empty() {
            return false;
        }
        let (bytes, c) = self.kv_copy(self.running.iter().map(|a| a.ctx).sum());
        self.record("kv_checkpoint", &c);
        self.report.checkpoint_bytes += bytes;
        for a in &mut self.running {
            a.snapshot = a.generated;
        }
        true
    }

    /// Admit the queue head if a decode slot is free and the KV strategy
    /// takes it, one admission per step so the caller's limit is
    /// re-checked between back-to-back admissions. A fresh job runs its
    /// prefill, whose last forward pass emits the first output token. A
    /// job carrying a host snapshot (an orphan of a killed card, or a
    /// preempted runner) is restored over DMA instead, and resumes
    /// mid-decode at its snapshot.
    fn admit(&mut self) -> Result<bool, ServingError> {
        if self.running.len() >= self.cfg.max_batch {
            return Ok(false);
        }
        let Some(job) = self.waiting.pop_front() else {
            return Ok(false);
        };
        let (r, snap) = (&job.req, job.checkpointed_tokens);
        let lease = if snap > 0 {
            self.kv.try_restore(r.prompt_len, r.output_len, snap)
        } else {
            self.kv.try_admit(r.prompt_len, r.output_len)
        };
        let Ok(lease) = lease else {
            // FIFO backpressure: wait for retirements, never starve or
            // reorder past the queue head.
            self.waiting.push_front(job);
            self.report.backpressure_stalls += 1;
            debug_assert!(
                !self.running.is_empty(),
                "an idle engine always admits a pre-validated request"
            );
            return Ok(false);
        };
        let queue_ms = self.clock_ms - job.submitted_ms();
        let (mut c, prefill) = self.price_admission(&job)?;
        // A cold prefill shape's recipe warmup is peeked here and charged
        // only once the prefill runs: a dropped request must not warm it.
        let warmup = match prefill {
            Some((_, false)) => self.cfg.recipes.compile_ms,
            _ => 0.0,
        };
        // Deadline-aware admission: a request whose first token could only
        // land past the TTFT SLO is dropped before wasting the engine time
        // — the load-shedding analogue of a server's "estimated wait
        // exceeds timeout" check.
        let ttft_ms = self.clock_ms + c.ms + warmup - job.req.arrival_ms();
        if self
            .cfg
            .robustness
            .ttft_deadline_ms
            .is_some_and(|d| ttft_ms > d)
        {
            self.kv.release(lease);
            let late = job.dropped(DropKind::TimedOut, self.clock_ms, 0);
            self.records.file_dropped(late);
            return Ok(true);
        }
        let generated = if let Some((shape, warm)) = prefill {
            // First use of this prefill shape on this replica: the host
            // compiles a recipe before launch. Wall time only — no engine
            // is busy during a host compile.
            if !warm {
                c.ms += self.cost.warm(shape);
            }
            self.report.scheduled_tokens += shape.slots();
            self.report.padded_tokens += shape.slots() - job.req.prompt_len;
            self.record("prefill", &c);
            self.report.prefills += 1;
            1
        } else {
            self.record("kv_restore", &c);
            self.report.restore_ms += c.ms;
            self.report.recovered_tokens += snap as u64;
            snap
        };
        let mut a = Active::new(job, lease, generated, queue_ms, ttft_ms, self.clock_ms);
        // Only a single-token request finishes here: a snapshot is always
        // strictly mid-decode (running never holds finished chains at a
        // boundary).
        if generated == a.job.req.output_len {
            a.outcome.finish_ms = self.clock_ms;
            self.retire(a);
        } else {
            self.running.push(a);
            let r = &mut self.report;
            r.peak_running = r.peak_running.max(self.running.len());
        }
        Ok(true)
    }

    /// Price admitting `job` at the clock: its cost and, for a prefill,
    /// its shape and whether the replica has run that shape, from one probe
    /// of the recipe table that leaves the shape as cold as it found it.
    /// A restore copies the whole checkpointed chain — prompt KV plus the
    /// snapshotted decode tokens — back from host: a copy, not a compiled
    /// graph, so it has no shape and no warmup, and the cold-cache
    /// recompiles still land on the first prefill/decode shapes.
    fn price_admission(
        &mut self,
        job: &Job,
    ) -> Result<(PhaseCost, Option<(Shape, bool)>), ServingError> {
        let (prompt, snap) = (job.req.prompt_len, job.checkpointed_tokens);
        if snap > 0 {
            return Ok((self.kv_copy(prompt + snap).1, None));
        }
        let shape = self.cost.shape(Phase::Prefill, 1, prompt);
        let (c, warm) = self.cost.compiled(shape)?;
        Ok((c, Some((shape, warm))))
    }

    /// One decode step advances every running request by one token;
    /// requests that reach their output length retire, and unfinished ones
    /// past their end-to-end deadline are cancelled.
    fn decode(&mut self) -> Result<bool, ServingError> {
        if self.running.is_empty() {
            return Ok(false);
        }
        let (max_ctx, live) = self.grow_or_preempt();
        // The step runs at the batch padded up to its recipe bucket (capped
        // at the slot count) and the longest context's bucket: coarser
        // buckets mean fewer distinct recipes but more dead slots per step.
        let shape = self.cost.shape(Phase::Decode, self.running.len(), max_ctx);
        let (mut c, warm) = self.cost.compiled(shape)?;
        if !warm {
            c.ms += self.cost.warm(shape);
        }
        self.report.scheduled_tokens += shape.slots();
        self.report.padded_tokens += shape.slots() - live;
        self.record("decode", &c);
        self.report.decode_steps += 1;

        let mut i = 0;
        while i < self.running.len() {
            let a = &mut self.running[i];
            a.generated += 1;
            a.ctx += 1;
            a.outcome.token_times_ms.push(self.clock_ms);
            if a.generated == a.job.req.output_len {
                let mut finished = self.running.swap_remove(i);
                finished.outcome.finish_ms = self.clock_ms;
                self.retire(finished);
            } else {
                i += 1;
            }
        }
        // Cancel unfinished requests that already blew their e2e deadline
        // — their KV pages back the queue instead of feeding tokens nobody
        // is waiting for.
        if let Some(d) = self.cfg.robustness.deadline_ms {
            let mut i = 0;
            while i < self.running.len() {
                if self.clock_ms - self.running[i].outcome.arrival_ms > d {
                    let Active {
                        job,
                        lease,
                        generated,
                        ..
                    } = self.running.swap_remove(i);
                    self.kv.release(lease);
                    let late = job.dropped(DropKind::TimedOut, self.clock_ms, generated);
                    self.records.file_dropped(late);
                } else {
                    i += 1;
                }
            }
        }
        Ok(true)
    }

    /// Give every runner the KV slot for the token this decode step
    /// produces. Contiguous admission pre-reserved it; the paged pool can
    /// run dry, in which case the newest admissions are evicted back to the
    /// head of the queue — tokens past their snapshot discarded and
    /// recomputed on re-admission (no KV migration is modeled), vLLM's
    /// recompute preemption. The loop terminates: every failure shrinks
    /// the batch by one, and the pre-scan guarantees a lone runner always
    /// fits to completion. Returns the survivors' longest context and
    /// their summed contexts, the two figures the step is shaped and
    /// counted by: a runner past the cursor is never evicted, so each
    /// survivor is counted once, as it grows.
    fn grow_or_preempt(&mut self) -> (usize, usize) {
        let (mut max_ctx, mut live) = (0, 0);
        let mut g = 0;
        while let Some(a) = self.running.get_mut(g) {
            if self.kv.grow(&mut a.lease).is_ok() {
                max_ctx = max_ctx.max(a.ctx);
                live += a.ctx;
                g += 1;
            } else if let Some(victim) = self.running.pop() {
                let job = self.evict(victim);
                self.report.preemptions += 1;
                self.waiting.push_front(job);
            }
        }
        debug_assert!(
            !self.running.is_empty(),
            "a lone runner can always grow (pre-scan bounds its total)"
        );
        (max_ctx, live)
    }

    /// With nothing running or queued, jump to the next dispatched arrival
    /// if it precedes the limit (the event loop owns anything past it).
    fn idle(&mut self, limit_ms: f64) -> bool {
        let idle = self.running.is_empty() && self.waiting.is_empty();
        let target = self.pending.front().filter(|_| idle);
        match target.map(|j| self.clock_ms.max(j.submitted_ms())) {
            Some(t) if t < limit_ms => {
                self.clock_ms = t;
                true
            }
            _ => false,
        }
    }

    /// Kill the replica at `at_ms`: every unfinished request — in-flight,
    /// queued, or dispatched-but-unarrived — is returned for the
    /// coordinator to re-dispatch. In-flight work is evicted: it loses the
    /// tokens generated since its last snapshot (the simulator models no
    /// KV-cache migration).
    fn halt(&mut self, at_ms: f64) -> Vec<Job> {
        self.up = false;
        self.down_since = Some(at_ms);
        self.report.failed_replicas += 1;
        let mut orphans: Vec<Job> = std::mem::take(&mut self.running)
            .into_iter()
            .map(|a| self.evict(a))
            .collect();
        orphans.extend(self.waiting.drain());
        orphans.extend(self.pending.drain(..));
        orphans
    }

    /// Bring the replica back at `at_ms` with a **cold** recipe table: a
    /// restarted SynapseAI process recompiles its recipes, so every shape
    /// pays warmup again. The warm table is retired, and the shapes it
    /// priced and the recipes it compiled stay in the report's totals.
    fn restart(&mut self, at_ms: f64, cost: CostModel) {
        let since = self.down_since.take().expect("restart of an up replica");
        self.down_ms += at_ms - since;
        self.up = true;
        self.clock_ms = self.clock_ms.max(at_ms);
        self.report.restarts += 1;
        self.report.compiled_graphs += self.cost.compiled_graphs();
        self.report.recipe_compiles += self.cost.recipe_compiles();
        self.cost = cost;
    }

    /// Consume the replica into its one-card [`Tally`], placing the
    /// records it still holds.
    fn finalize(mut self) -> Tally {
        let records = &mut self.records;
        records.flush();
        let mut report = self.report;
        report.offered = records.filed;
        report.retries = records.retries;
        report.makespan_ms = self.clock_ms;
        report.kv_peak_bytes = self.kv.peak();
        report.kv_capacity_bytes = self.kv.capacity();
        report.compiled_graphs += self.cost.compiled_graphs();
        report.recipe_compiles += self.cost.recipe_compiles();
        report.devices = 1;
        Tally {
            report,
            completed: records.completed_count,
            completed_tokens: records.completed_tokens,
            busy_ns: self.busy_ns,
            kv_block_utilization: self.kv.utilization_at_peak(),
            cards: vec![CardTime {
                down_ms: self.down_ms,
                died_at_ms: self.down_since,
            }],
        }
    }
}

/// Run a serving simulation to completion.
///
/// Identical configurations (including `traffic.seed`, the fault plan,
/// and the robustness policy) produce identical reports: the simulation
/// is a deterministic function of its inputs.
///
/// With `cfg.devices > 1` the request stream is dispatched round-robin
/// (in arrival order) across that many data-parallel replicas, each
/// running the full continuous-batching schedule on its own card; the
/// report carries per-card-averaged utilizations and a device-tagged
/// trace. A replica the fault plan kills re-queues its
/// unfinished work onto the live replicas with exponential backoff, and a
/// replica whose kill carries a restart window rejoins the dispatch pool
/// when it comes back (see the module docs). If the plan leaves *no*
/// replica alive — now or later — while requests need dispatching, the
/// simulation fails with [`ServingError::AllReplicasDead`].
pub fn simulate(cfg: &ServingConfig) -> Result<ServingReport, ServingError> {
    simulate_with(cfg, &ExecPolicy::default())
}

/// [`simulate`] under an explicit [`ExecPolicy`]. The policy affects wall
/// time only; the report is bit-identical across policies.
pub fn simulate_with(
    cfg: &ServingConfig,
    policy: &ExecPolicy,
) -> Result<ServingReport, ServingError> {
    cfg.traffic
        .validate()
        .map_err(ServingError::InvalidConfig)?;
    simulate_trace_with(cfg, generate_requests(&cfg.traffic), policy)
}

/// [`simulate`] over an explicit request trace instead of the seeded
/// generator — the hook for replaying recorded workloads and for tests
/// that need exact control over arrivals and lengths. Requests are
/// processed in `(arrival, id)` order regardless of input order.
pub fn simulate_trace(
    cfg: &ServingConfig,
    requests: Vec<Request>,
) -> Result<ServingReport, ServingError> {
    simulate_trace_with(cfg, requests, &ExecPolicy::default())
}

/// Worst-case activation workspace of `cfg`'s schedulable phase shapes, as
/// `(planned, naive)` bytes: the memory planner's packed-arena extent and
/// the sum-of-all-activation-tensors baseline it replaces. The shapes are
/// the largest ones a replica can run — a prefill of the longest
/// admissible prompt (prefill always runs at batch 1) and a decode of a
/// full slot set at the longest context — shaped by the same
/// [`CostModel::shape`] the engine runs them at.
pub fn activation_estimate(cfg: &ServingConfig) -> Result<(u64, u64), ServingError> {
    check_shapes(cfg)?;
    activation_estimate_with(&CostModel::new(cfg), cfg)
}

/// [`activation_estimate`] with `cost`'s compiler and shaping. Each call
/// compiles both shapes with the memory planner: plan caches keep costs
/// only.
fn activation_estimate_with(
    cost: &CostModel,
    cfg: &ServingConfig,
) -> Result<(u64, u64), ServingError> {
    let prefill =
        cost.activation_bytes(cost.shape(Phase::Prefill, 1, cfg.traffic.prompt_range.1))?;
    let decode =
        cost.activation_bytes(cost.shape(Phase::Decode, cfg.max_batch, cfg.max_request_tokens()))?;
    Ok((prefill.0.max(decode.0), prefill.1.max(decode.1)))
}

/// Phase shapes round lengths up to a multiple of `ctx_bucket` and pad
/// decode batches up to the recipe bucket, capped at `max_batch`, so all
/// three must be positive (and the recipe model well-formed) before any
/// phase is priced.
fn check_shapes(cfg: &ServingConfig) -> Result<(), ServingError> {
    if cfg.max_batch == 0 {
        return Err(ServingError::InvalidConfig(
            "max_batch must be at least 1".into(),
        ));
    }
    if cfg.ctx_bucket == 0 {
        return Err(ServingError::InvalidConfig(
            "ctx_bucket must be at least 1".into(),
        ));
    }
    cfg.recipes.validate().map_err(ServingError::InvalidConfig)
}

/// A request needs a prompt to prefill and an output of at least the one
/// token its prefill emits: admission starts it at one generated token,
/// so an empty output would never retire. Request ids break ties in the
/// dispatch order, and the report orders its records by them, so a trace
/// must not repeat one.
/// Checked by sorting, not hashing: ids can come from the caller, and a
/// generated trace lists them in order already. The sorted ids then rank
/// each request's record in the report.
fn check_requests(requests: &[Request]) -> Result<Ranks, ServingError> {
    if let Some(r) = requests
        .iter()
        .find(|r| r.prompt_len == 0 || r.output_len == 0)
    {
        return Err(ServingError::InvalidConfig(format!(
            "request {} needs a prompt and an output of at least one token, got {} and {}",
            r.id, r.prompt_len, r.output_len
        )));
    }
    let mut ids: Vec<u64> = requests.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    match ids.windows(2).find(|w| w[0] == w[1]) {
        Some(w) => Err(ServingError::InvalidConfig(format!(
            "request id {} appears more than once",
            w[0]
        ))),
        None => Ok(Ranks::of_sorted(ids)),
    }
}

/// Everything about `cfg` a simulation checks before it looks at the
/// requests, in the order its errors are reported.
pub(crate) fn check_config(cfg: &ServingConfig) -> Result<(), ServingError> {
    check_shapes(cfg)?;
    if cfg.devices == 0 {
        return Err(ServingError::InvalidConfig(
            "devices must be at least 1".into(),
        ));
    }
    cfg.faults.validate(cfg.devices)?;
    cfg.robustness
        .validate()
        .map_err(ServingError::InvalidConfig)?;
    let (model, dtype) = (&cfg.model, cfg.kv_dtype);
    if kv_row_bytes(model, dtype).is_none()
        || resident_weight_bytes(model, cfg.max_request_tokens(), dtype).is_none()
    {
        return Err(ServingError::InvalidConfig(
            "the model's KV row or resident weight size overflows u64".into(),
        ));
    }
    cfg.kv_admission
        .validate(model, dtype)
        .map_err(ServingError::InvalidConfig)
}

/// [`simulate_trace`] under an explicit [`ExecPolicy`].
pub fn simulate_trace_with(
    cfg: &ServingConfig,
    requests: Vec<Request>,
    policy: &ExecPolicy,
) -> Result<ServingReport, ServingError> {
    check_config(cfg)?;
    let records = Mutex::new(Records::new(check_requests(&requests)?));
    let tally = simulate_records(cfg, requests, policy, &records)?;
    Ok(tally.finish(into_inner(records)))
}

/// Move a value out of a slot that workers share: how each one takes the
/// shard it owns instead of copying it, and how a call takes its records
/// back once every card has flushed. A poisoned lock is taken anyway: the
/// pool re-raises the panic that poisoned it.
pub(crate) fn into_inner<T>(slot: Mutex<T>) -> T {
    slot.into_inner().unwrap_or_else(PoisonError::into_inner)
}

/// Take the value out of a shared slot, leaving its default (see
/// [`into_inner`]).
pub(crate) fn take<T: Default>(slot: &Mutex<T>) -> T {
    std::mem::take(&mut *slot.lock().unwrap_or_else(PoisonError::into_inner))
}

/// One box's run of `requests` as a [`Tally`] of its replicas, for a
/// `cfg` that [`check_config`] accepted. Every card places its records in
/// `records` as it runs, so the caller finishes the tally with them once:
/// [`simulate_trace_with`] for a box on its own, and
/// [`crate::simulate_cluster_with`] after folding every box.
pub(crate) fn simulate_records(
    cfg: &ServingConfig,
    mut requests: Vec<Request>,
    policy: &ExecPolicy,
    records: &Mutex<Records>,
) -> Result<Tally, ServingError> {
    requests.sort_by_key(|r| (r.arrival_us, r.id));

    // One compile context shared by every replica of this call.
    let cache = match &policy.plans {
        PlanSharing::PerCall => Arc::new(PlanCache::new()),
        PlanSharing::Shared(cache) => Arc::clone(cache),
    };
    let ctx = Arc::new(CostContext::new(cfg, cache));
    let make_cost = || CostModel::with_context(Arc::clone(&ctx));

    // Activation workspace charged against HBM at admission. Computed once
    // from the worst-case phase shapes this config can schedule: a prefill
    // at the longest admissible prompt (prefill always runs at batch 1) and
    // a decode of a full slot set at the longest context. `Off` (the
    // default) skips the compiles entirely; a budget compiles both shapes
    // with the memory planner, outside the plan cache and the recipe
    // tables, so neither's counts move.
    let activation_reserve = match cfg.activation_budget {
        ActivationBudget::Off => 0,
        budget => {
            let (planned, naive) = activation_estimate_with(&make_cost(), cfg)?;
            budget.reserve_bytes(planned, naive)
        }
    };

    // Reject outright only what can never fit; everything else queues.
    let probe = cfg
        .kv_admission
        .build(
            &cfg.hw.memory,
            &cfg.model,
            cfg.max_request_tokens(),
            cfg.kv_dtype,
            activation_reserve,
        )
        .map_err(ServingError::WeightsDontFit)?;
    for r in &requests {
        if r.total_tokens() as u64 > probe.max_admissible_tokens() {
            return Err(ServingError::RequestTooLarge {
                id: r.id,
                tokens: r.total_tokens(),
                max_tokens: probe.max_admissible_tokens(),
            });
        }
    }

    let parts: Vec<Tally> = if cfg.faults.card_failures.is_empty() {
        // Fault-free: replicas never interact, so shard the stream
        // round-robin up front and fan the independent single-card
        // simulations out on the policy's pool, each taking its shard as
        // its dispatched work. `try_par_map` returns results in input
        // order and surfaces the lowest-index error, matching the serial
        // semantics.
        // Each card's deque is allocated once, at its largest shard size.
        let per_card = requests.len().div_ceil(cfg.devices);
        let mut shards: Vec<VecDeque<Job>> = (0..cfg.devices)
            .map(|_| VecDeque::with_capacity(per_card))
            .collect();
        for (i, r) in requests.into_iter().enumerate() {
            shards[i % cfg.devices].push_back(Job::fresh(r));
        }
        let shards: Vec<Mutex<VecDeque<Job>>> = shards.into_iter().map(Mutex::new).collect();
        policy
            .pool
            .try_par_map(&shards, |_, shard| -> Result<_, ServingError> {
                let mut replica = Replica::new(cfg, make_cost(), activation_reserve, records)?;
                replica.pending = take(shard);
                while replica.step(f64::INFINITY)? {}
                Ok(replica.finalize())
            })?
    } else {
        // Kills couple the replicas (orphans migrate, restarts rejoin):
        // run the single-pass event-driven box simulation.
        simulate_box(cfg, requests, &make_cost, activation_reserve, records)?
    };

    let mut tally = Tally::default();
    for part in parts {
        tally.absorb(part);
    }
    // Fault-lane observability: overlay the plan's kill/restart/flap
    // windows as device-tagged trace lanes, so a Chrome-trace
    // export shows *why* a card's serving lanes go quiet. Appended after
    // the replicas are absorbed (absorbing re-tags their events by
    // device) so the lanes keep their own device tags.
    if cfg.record_trace && !cfg.faults.is_empty() {
        let r = &mut tally.report;
        record_fault_lanes(&mut r.trace, &cfg.faults, r.makespan_ms);
    }
    Ok(tally)
}

/// Append one trace lane per fault window, tagged with the device it hits:
/// `kill` (down window, with a zero-width `restart` marker for transient
/// kills) and `flap`/`degrade` on both endpoints of a degraded link.
/// Open-ended windows (permanent kills and degradations) extend to the
/// report's makespan.
fn record_fault_lanes(trace: &mut Trace, faults: &FaultPlan, makespan_ms: f64) {
    let event = |name: &'static str, engine: EngineId, s_ms: f64, e_ms: f64| {
        TraceEvent::basic(
            name,
            "fault",
            engine,
            s_ms * 1e6,
            (e_ms - s_ms).max(0.0) * 1e6,
        )
    };
    for c in &faults.card_failures {
        let end_ms = c
            .restart_after_ms
            .map_or(makespan_ms.max(c.at_ms), |d| c.at_ms + d);
        trace.push(event("kill", EngineId::Host, c.at_ms, end_ms).on_device(c.device));
        if c.restart_after_ms.is_some() {
            trace.push(event("restart", EngineId::Host, end_ms, end_ms).on_device(c.device));
        }
    }
    for l in &faults.link_degradations {
        let name = if l.window.is_some() {
            "flap"
        } else {
            "degrade"
        };
        let (s, e) = l.window.unwrap_or((0.0, makespan_ms));
        for d in [l.a, l.b] {
            trace.push(event(name, EngineId::Nic, s, e).on_device(d));
        }
    }
}

/// Event-driven multi-replica simulation under a fault plan with kills.
///
/// A single pass interleaves three deterministic streams: replica
/// execution (each advanced to quiescence below the next event), fault
/// transitions (kills halt and orphan; restarts rejoin the pool with a
/// cold recipe table), and live dispatch (arrivals and backoff-delayed
/// retries routed round-robin to a live replica). The loop is
/// single-threaded on purpose: every interleaving decision is a pure
/// function of the configuration, so the result is bit-identical across
/// [`ExecPolicy`]s.
fn simulate_box(
    cfg: &ServingConfig,
    requests: Vec<Request>,
    make_cost: &impl Fn() -> CostModel,
    activation_reserve: u64,
    records: &Mutex<Records>,
) -> Result<Vec<Tally>, ServingError> {
    let mut replicas: Vec<Replica> = (0..cfg.devices)
        .map(|_| Replica::new(cfg, make_cost(), activation_reserve, records))
        .collect::<Result<_, _>>()?;

    // Kill/restart transitions, time-ordered; a restart at the same
    // instant as another device's kill is delivered first so the pool
    // never looks emptier than it is.
    let mut transitions: Vec<(f64, usize, bool)> = Vec::new();
    for d in 0..cfg.devices {
        for (t, up) in cfg.faults.transitions(DeviceId(d)) {
            transitions.push((t, d, up));
        }
    }
    transitions.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .expect("fault times are finite")
            .then((!a.2).cmp(&!b.2))
            .then(a.1.cmp(&b.1))
    });
    let mut ti = 0;

    // Undispatched work: the sorted arrivals, streamed, and the calendar
    // of re-queued orphans and parked jobs, popped together in
    // `(submission µs, id)` order.
    let mut disp = Dispatch::new(requests);
    let mut rr_next = 0usize;

    // Per-replica ready-index: a replica leaves the ready set once it is
    // quiescent with nothing queued locally (its next event belongs to the
    // coordinator), and re-enters whenever the coordinator touches it. A
    // replica that *has* local work always stays ready, even if quiescent
    // below the current limit — `step` never starts a phase at the limit,
    // so its pending job at exactly `t_ext` must be revisited next round.
    let mut ready: Vec<bool> = vec![true; cfg.devices];

    loop {
        let next_disp = disp.first().map(|(us, _)| us as f64 / 1e3);
        let next_tr = transitions.get(ti).map(|t| t.0);
        let t_ext = [next_disp, next_tr]
            .into_iter()
            .flatten()
            .fold(f64::INFINITY, f64::min);

        // Run every ready replica to quiescence below the next event.
        for (d, r) in replicas.iter_mut().enumerate() {
            if !ready[d] {
                continue;
            }
            if r.may_progress(t_ext) {
                while r.step(t_ext)? {}
            }
            ready[d] = r.has_local_work();
        }
        if t_ext.is_infinite() {
            break;
        }

        // Deliver due fault transitions.
        while ti < transitions.len() && transitions[ti].0 <= t_ext {
            let (t, d, up) = transitions[ti];
            ti += 1;
            if up {
                replicas[d].restart(t, make_cost());
                ready[d] = true;
                continue;
            }
            for job in replicas[d].halt(t) {
                let attempt = job.retries + 1;
                if attempt > cfg.robustness.max_retries {
                    let failed = job.dropped(DropKind::Failed, t, 0);
                    replicas[d].records.file_dropped(failed);
                } else {
                    let id = job.req.id;
                    let at = t + cfg.robustness.backoff_delay_ms(id, attempt);
                    let Some(retry) = job.requeued(at) else {
                        return Err(ServingError::InvalidConfig(format!(
                            "request {id} would retry at {at:e} ms, past the µs clock"
                        )));
                    };
                    disp.push(retry);
                }
            }
            // A halt drains the replica, but its clock still owes the
            // catch-up to the halt instant on restart; keep it ready so
            // the next pass re-evaluates.
            ready[d] = true;
        }

        // Dispatch due arrivals onto live replicas.
        while let Some(job) = disp.pop_due(t_ext) {
            match pick_replica(&replicas, &mut rr_next) {
                Some(d) => {
                    replicas[d].enqueue(job);
                    ready[d] = true;
                }
                None => {
                    // Whole pool is down: park the job until the next
                    // restart, or fail the run if none is coming.
                    let Some(up_t) = transitions[ti..].iter().find(|t| t.2).map(|t| t.0) else {
                        return Err(ServingError::AllReplicasDead {
                            unserved: disp.len() + 1,
                        });
                    };
                    // Strictly later key than the one just removed, so the
                    // deferral always makes progress; a job already due at
                    // the end of the µs clock has no later key to wait for.
                    let Some(next_us) = job.submitted_us.checked_add(1) else {
                        return Err(ServingError::InvalidConfig(format!(
                            "request {} arrives at the last representable µs while every \
                             replica is down, so it cannot wait for a restart",
                            job.req.id
                        )));
                    };
                    let Some(up_us) = ceil_us(up_t * 1e3) else {
                        return Err(ServingError::InvalidConfig(format!(
                            "request {} would wait for a restart at {up_t:e} ms, past the \
                             µs clock",
                            job.req.id
                        )));
                    };
                    let up_us = up_us.max(next_us);
                    let mut j = job;
                    j.submitted_us = j.submitted_us.max(up_us);
                    disp.push(j);
                }
            }
        }
    }

    Ok(replicas.into_iter().map(Replica::finalize).collect())
}

/// The box dispatcher's undispatched work, popped in `(submission µs, id)`
/// order. Fresh arrivals stream from the trace, already sorted by that
/// key; only jobs re-queued after a kill or parked while every replica is
/// down go in an [`EventCalendar`]. Keys are unique (ids are unique, and a
/// job is popped before it can be pushed again), so taking the smaller of
/// the two heads pops exactly the order one calendar of every job would —
/// see `tests/golden_report.rs`.
struct Dispatch {
    fresh: std::vec::IntoIter<Request>,
    requeued: EventCalendar<Job>,
}

impl Dispatch {
    /// Dispatch over `requests`, sorted by `(arrival_us, id)`.
    fn new(requests: Vec<Request>) -> Self {
        Dispatch {
            fresh: requests.into_iter(),
            requeued: EventCalendar::new(),
        }
    }

    /// The earliest job's submission time, µs, and whether it is a fresh
    /// arrival.
    fn first(&self) -> Option<(u64, bool)> {
        let fresh = self.fresh.as_slice().first().map(|r| (r.arrival_us, r.id));
        match (fresh, self.requeued.peek_key()) {
            (Some(f), Some(q)) if q < f => Some((q.0, false)),
            (Some(f), _) => Some((f.0, true)),
            (None, q) => q.map(|q| (q.0, false)),
        }
    }

    /// Remove and return the earliest job if it is due by `t_ms`.
    fn pop_due(&mut self, t_ms: f64) -> Option<Job> {
        let (us, fresh) = self.first()?;
        if us as f64 / 1e3 > t_ms {
            None
        } else if fresh {
            self.fresh.next().map(Job::fresh)
        } else {
            self.requeued.pop().map(|(_, job)| job)
        }
    }

    /// Schedule a re-queued or parked job at its submission time.
    fn push(&mut self, job: Job) {
        self.requeued.push(job.submitted_us, job.req.id, job);
    }

    /// Jobs not yet dispatched.
    fn len(&self) -> usize {
        self.fresh.len() + self.requeued.len()
    }
}

/// Choose the next live replica round-robin, or `None` if the whole pool
/// is down. Fresh arrivals and orphans share one rotation, mirroring the
/// fault-free sharding.
fn pick_replica(replicas: &[Replica], rr_next: &mut usize) -> Option<usize> {
    let n = replicas.len();
    let d = (0..n)
        .map(|i| (*rr_next + i) % n)
        .find(|&d| replicas[d].up)?;
    *rr_next = (d + 1) % n;
    Some(d)
}

/// Append one trace event per busy engine for a phase, so the report's
/// timeline renders through the standard profiler tooling.
fn record_phase(trace: &mut Trace, name: &str, start_ms: f64, c: &PhaseCost) {
    let start_ns = start_ms * 1e6;
    for (engine, busy) in [
        (EngineId::Mme, c.mme_busy_ns),
        (EngineId::TpcCluster, c.tpc_busy_ns),
        (EngineId::Dma(0), c.dma_busy_ns),
        (EngineId::Nic, c.nic_busy_ns),
    ] {
        if busy > 0.0 {
            trace.push(TraceEvent::basic(name, "serving", engine, start_ns, busy));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::DroppedRequest;

    fn tiny_config() -> ServingConfig {
        let mut model = LlmConfig::tiny(97);
        model.training = false;
        ServingConfig {
            model,
            traffic: TrafficConfig {
                arrival_rate_per_s: 50.0,
                num_requests: 30,
                prompt_range: (8, 64),
                output_range: (4, 16),
                zipf_s: 1.1,
                seed: 7,
            },
            max_batch: 4,
            ctx_bucket: 32,
            kv_dtype: DType::F32,
            hw: GaudiConfig::hls1(),
            opts: CompilerOptions::default(),
            devices: 1,
            faults: FaultPlan::none(),
            robustness: RobustnessConfig::default(),
            kv_admission: KvAdmissionConfig::default(),
            activation_budget: ActivationBudget::default(),
            recipes: RecipeConfig::default(),
            record_trace: true,
        }
    }

    /// Wall time of one `phase` of `cfg` over `batch` sequences at `len`
    /// tokens, ms.
    fn phase_ms(cfg: &ServingConfig, phase: Phase, batch: usize, len: usize) -> f64 {
        let mut cost = CostModel::new(cfg);
        cost.compiled(cost.shape(phase, batch, len)).unwrap().0.ms
    }

    #[test]
    fn completes_every_request_exactly_once() {
        let r = simulate(&tiny_config()).unwrap();
        assert_eq!(r.completed.len(), 30);
        assert_eq!(r.offered, 30);
        assert!(r.dropped.is_empty());
        for (i, o) in r.completed.iter().enumerate() {
            assert_eq!(o.id, i as u64);
            assert_eq!(o.token_times_ms.len(), o.output_len);
            assert_eq!(o.retries, 0, "fault-free runs never retry");
        }
        assert_eq!(r.retries, 0);
        assert_eq!(r.failed_replicas, 0);
        assert_eq!(r.restarts, 0);
        assert_eq!(r.availability(), 1.0);
        assert_eq!(r.goodput_fraction(), 1.0);
        assert_eq!(r.goodput_tokens_per_s, r.throughput_tokens_per_s);
    }

    #[test]
    fn identical_seeds_identical_reports() {
        let a = simulate(&tiny_config()).unwrap();
        let b = simulate(&tiny_config()).unwrap();
        assert_eq!(a.makespan_ms, b.makespan_ms);
        assert_eq!(a.ttft_ms.p99, b.ttft_ms.p99);
        assert_eq!(a.goodput_tokens_per_s, b.goodput_tokens_per_s);
        assert_eq!(a.decode_steps, b.decode_steps);
    }

    #[test]
    fn token_times_are_strictly_increasing() {
        let r = simulate(&tiny_config()).unwrap();
        for o in &r.completed {
            for w in o.token_times_ms.windows(2) {
                assert!(w[0] < w[1], "token order violated for request {}", o.id);
            }
            assert!(o.ttft_ms > 0.0);
            assert!(o.finish_ms >= o.arrival_ms + o.ttft_ms);
        }
    }

    #[test]
    fn ttft_of_an_unloaded_request_is_exactly_its_prefill_cost() {
        // Regression for the off-by-one-decode-step TTFT bug: prefill's
        // last forward pass emits the first token, so a lone request on an
        // idle engine has TTFT == prefill(prompt) — no queueing, no decode
        // step folded in.
        let cfg = tiny_config();
        let req = Request {
            id: 0,
            arrival_us: 0,
            prompt_len: 48,
            output_len: 6,
        };
        let r = simulate_trace(&cfg, vec![req]).unwrap();
        let prefill_ms = phase_ms(&cfg, Phase::Prefill, 1, 48);
        let o = &r.completed[0];
        assert_eq!(o.queue_ms, 0.0);
        assert_eq!(o.ttft_ms, prefill_ms, "TTFT must equal the prefill cost");
        assert_eq!(o.token_times_ms[0], prefill_ms);
        // output_len - 1 decode steps finish the request.
        assert_eq!(r.decode_steps, 5);
        assert_eq!(o.token_times_ms.len(), 6);
    }

    #[test]
    fn arrivals_during_a_long_prefill_are_ingested_at_the_phase_boundary() {
        // Request 0's prefill is long; 1-4 arrive 1 µs into it. With
        // phase-boundary ingestion they are all queued (depth 4) and
        // admitted back-to-back before any decode step runs, so the whole
        // batch decodes together: output_len - 1 shared steps total.
        let cfg = ServingConfig {
            max_batch: 8,
            ..tiny_config()
        };
        let mut reqs = vec![Request {
            id: 0,
            arrival_us: 0,
            prompt_len: 256,
            output_len: 4,
        }];
        for id in 1..5 {
            reqs.push(Request {
                id,
                arrival_us: 1,
                prompt_len: 8,
                output_len: 4,
            });
        }
        let r = simulate_trace(&cfg, reqs).unwrap();
        assert_eq!(r.completed.len(), 5);
        assert_eq!(
            r.max_queue_depth, 4,
            "arrivals during the prefill must be visible to the depth gauge"
        );
        assert!(r.peak_queued_tokens >= 4 * 12);
        assert_eq!(
            r.decode_steps, 3,
            "all five requests decode as one batch after back-to-back prefills"
        );
        for o in &r.completed[1..] {
            assert!(
                o.queue_ms > 0.0,
                "requests 1-4 waited out request 0's prefill"
            );
        }
    }

    /// Slots for the records of a test stream with ids `0..n`.
    fn slots(n: usize) -> Mutex<Records> {
        Mutex::new(Records::new(Ranks::Range { first: 0, len: n }))
    }

    #[test]
    fn the_bounded_expiry_expires_exactly_what_a_full_scan_expires() {
        // Random pushes at both ends (a re-queued job arrived earlier than
        // the queue's tail), pops, halts and clock advances; after each,
        // the queue expires what scanning a plain copy of it expires.
        let mut rng = gaudi_tensor::SeededRng::new(11);
        let (mut queue, mut copy) = (AdmissionQueue::new(), VecDeque::new());
        let (mut clock_us, mut expired_total) = (10_000u64, 0);
        for id in 0..4_000 {
            let job = Job::fresh(Request {
                id,
                arrival_us: clock_us - rng.below(9_000) as u64,
                prompt_len: 1 + rng.below(64),
                output_len: 1 + rng.below(16),
            });
            match rng.below(10) {
                0..=3 => {
                    copy.push_back(job.clone());
                    queue.push_back(job);
                }
                4 | 5 => {
                    copy.push_front(job.clone());
                    queue.push_front(job);
                }
                6 => assert_eq!(queue.pop_front(), copy.pop_front()),
                7 if id % 50 == 0 => {
                    assert!(queue.drain().eq(copy.drain(..)));
                }
                _ => clock_us += rng.below(2_000) as u64,
            }
            let clock = clock_us as f64 / 1e3 + 0.25;
            let lapsed = |arrival_us: u64| clock - arrival_us as f64 / 1e3 > 6.0;
            let mut expired = Vec::new();
            queue.expire(lapsed, |j| expired.push(j));
            let mut scanned = Vec::new();
            copy.retain(|j: &Job| {
                let keep = !lapsed(j.req.arrival_us);
                if !keep {
                    scanned.push(j.clone());
                }
                keep
            });
            assert_eq!(expired, scanned);
            assert_eq!(queue.jobs, copy);
            let tokens: usize = copy.iter().map(|j| j.req.total_tokens()).sum();
            assert_eq!(queue.tokens, tokens);
            assert!(copy.iter().all(|j| queue.oldest_us <= j.req.arrival_us));
            expired_total += expired.len();
        }
        assert!(expired_total > 100, "only {expired_total} jobs expired");
    }

    /// Everything a `step` can change on a replica: its clock, queues,
    /// runners and their snapshots, terminal records, counters, trace and
    /// checkpoint schedule.
    fn observe(r: &Replica) -> String {
        let ids = |q: &VecDeque<Job>| q.iter().map(|j| j.req.id).collect::<Vec<_>>();
        format!(
            "{:?}",
            (
                (r.up, r.clock_ms, r.next_checkpoint_ms),
                (ids(&r.pending), ids(&r.waiting.jobs)),
                (r.waiting.tokens, r.waiting.oldest_us),
                r.running
                    .iter()
                    .map(|a| (a.job.req.id, a.generated, a.snapshot, a.lease.tokens()))
                    .collect::<Vec<_>>(),
                (r.records.filed, r.records.completed_count),
                (&r.report, r.busy_ns),
            )
        )
    }

    #[test]
    fn a_replica_that_may_not_progress_steps_as_a_no_op() {
        // One replica of three under a TTFT deadline, a queue bound and
        // checkpoints, driven the way `simulate_box` drives it: each round
        // the limit is the next arrival, only every third arrival is
        // dispatched here, and the card dies and restarts midway. Whenever
        // `may_progress` says no, one more `step` must change nothing.
        let mut cfg = tiny_config();
        cfg.traffic.arrival_rate_per_s = 2_000.0;
        cfg.robustness = RobustnessConfig::default()
            .queue_depth(4)
            .ttft_deadline(15.0)
            .checkpoint(2.0, 64e9);
        let records = slots(cfg.traffic.num_requests);
        let mut r = Replica::new(&cfg, CostModel::new(&cfg), 0, &records).unwrap();
        let reqs = generate_requests(&cfg.traffic);
        let limits: Vec<f64> = reqs
            .iter()
            .skip(1)
            .map(Request::arrival_ms)
            .chain([f64::INFINITY])
            .collect();
        let mut skipped = 0;
        for (i, (req, &limit)) in reqs.into_iter().zip(&limits).enumerate() {
            match i {
                12 => drop(r.halt(limit)),
                18 => r.restart(limit, CostModel::new(&cfg)),
                _ if i % 3 == 0 && r.up => r.enqueue(Job::fresh(req)),
                _ => {}
            }
            if !r.may_progress(limit) {
                skipped += 1;
                let before = observe(&r);
                assert!(!r.step(limit).unwrap());
                assert_eq!(observe(&r), before, "round {i}: a skipped step moved");
            }
            while r.step(limit).unwrap() {}
        }
        assert!(skipped > 0, "the fixture must exercise the skip");

        // A dispatched job due exactly at the clock is still ingested at
        // the limit, so the replica may not be skipped.
        let mut r = Replica::new(&cfg, CostModel::new(&cfg), 0, &records).unwrap();
        r.clock_ms = 5.0;
        r.enqueue(Job::fresh(Request {
            id: 0,
            arrival_us: 5_000,
            prompt_len: 8,
            output_len: 4,
        }));
        assert!(r.may_progress(5.0));
        assert!(!r.step(5.0).unwrap());
        assert_eq!(r.waiting.len(), 1);
    }

    #[test]
    fn a_snapshot_restore_is_a_dma_copy_that_the_ttft_deadline_can_drop() {
        // A checkpointed orphan re-admits by copying its prompt plus its k
        // snapshotted tokens back from host: no prefill, no recipe, and it
        // resumes mid-decode. It waited 1.5 ms on a replica at clock 2.
        let (prompt, k, dma) = (24, 5, 1e9);
        let mut cfg = tiny_config();
        cfg.robustness = RobustnessConfig::default().checkpoint(1e9, dma);
        let orphan = Job {
            submitted_us: 2_000,
            retries: 1,
            checkpointed_tokens: k,
            ..Job::fresh(Request {
                id: 0,
                arrival_us: 500,
                prompt_len: prompt,
                output_len: 12,
            })
        };
        let per_tok = cfg
            .kv_admission
            .kv_bytes_per_token(&cfg.model, cfg.kv_dtype);
        let restore_ms = ((prompt + k) as u64 * per_tok) as f64 / dma * 1e3;
        fn replica<'a>(
            cfg: &'a ServingConfig,
            orphan: &Job,
            records: &'a Mutex<Records>,
        ) -> Replica<'a> {
            let mut r = Replica::new(cfg, CostModel::new(cfg), 0, records).unwrap();
            r.clock_ms = 2.0;
            r.enqueue(orphan.clone());
            r
        }

        let records = slots(1);
        let mut r = replica(&cfg, &orphan, &records);
        assert!(r.step(f64::INFINITY).unwrap());
        assert_eq!(r.clock_ms, 2.0 + restore_ms, "one DMA copy");
        let a = &r.running[0];
        assert_eq!((a.ctx, a.generated), (prompt + k, k));
        assert_eq!(a.snapshot, k, "the runner holds the snapshot it resumed");
        assert_eq!(a.lease.tokens(), prompt + k);
        assert_eq!(a.outcome.queue_ms, 0.0);
        assert_eq!(a.outcome.ttft_ms, r.clock_ms - 0.5);
        let t = r.finalize().report;
        assert_eq!((t.restore_ms, t.recovered_tokens), (restore_ms, k as u64));
        assert_eq!((t.prefills, t.recipe_compiles), (0, 0));

        // A TTFT deadline the 1.5 ms wait meets but the copy would miss:
        // dropped at the admission clock, its restored KV released.
        cfg.robustness = cfg.robustness.ttft_deadline(1.5 + restore_ms / 2.0);
        let records = slots(1);
        let mut r = replica(&cfg, &orphan, &records);
        let allocated = r.kv.allocated();
        assert!(r.step(f64::INFINITY).unwrap());
        assert_eq!(r.clock_ms, 2.0);
        assert!(r.running.is_empty());
        assert_eq!(r.kv.allocated(), allocated);
        let t = r.finalize().finish(into_inner(records));
        let dropped = DroppedRequest {
            id: 0,
            arrival_ms: 0.5,
            kind: DropKind::TimedOut,
            at_ms: 2.0,
            retries: 1,
            tokens_generated: 0,
        };
        assert_eq!(t.dropped, [dropped]);
        assert_eq!((t.restore_ms, t.recovered_tokens), (0.0, 0));
    }

    #[test]
    fn a_request_dropped_at_admission_prices_its_shape_but_never_warms_it() {
        // The prefill alone meets a 20 ms TTFT deadline, its 50 ms recipe
        // compile does not: the admission check peeks at the warmup, drops
        // the request at the admission clock and runs nothing.
        let mut cfg = tiny_config();
        cfg.recipes = RecipeConfig {
            compile_ms: 50.0,
            batch_bucket: 1,
        };
        cfg.robustness = RobustnessConfig::default().ttft_deadline(20.0);
        assert!(phase_ms(&cfg, Phase::Prefill, 1, 8) < 20.0);
        let records = slots(1);
        let mut r = Replica::new(&cfg, CostModel::new(&cfg), 0, &records).unwrap();
        r.enqueue(Job::fresh(Request {
            id: 0,
            arrival_us: 0,
            prompt_len: 8,
            output_len: 4,
        }));
        assert!(r.step(f64::INFINITY).unwrap());
        assert_eq!(r.clock_ms, 0.0, "a drop at admission runs no phase");
        assert!(r.running.is_empty());
        let t = r.finalize().finish(into_inner(records));
        assert_eq!(t.dropped[0].kind, DropKind::TimedOut);
        assert_eq!(t.dropped[0].at_ms, 0.0);
        assert_eq!(t.prefills, 0);
        assert_eq!(t.compiled_graphs, 1, "the prefill shape was priced");
        assert_eq!(t.recipe_compiles, 0, "a dropped request warms nothing");
    }

    #[test]
    fn kv_peak_never_exceeds_capacity() {
        let r = simulate(&tiny_config()).unwrap();
        assert!(r.kv_peak_bytes <= r.kv_capacity_bytes);
    }

    #[test]
    fn impossible_request_is_rejected_up_front() {
        let mut cfg = tiny_config();
        // Leave KV room for 50 tokens; the worst-case request needs 64+16.
        let weights =
            cfg.kv_admission
                .weight_bytes(&cfg.model, cfg.max_request_tokens(), cfg.kv_dtype);
        let per_tok = cfg
            .kv_admission
            .kv_bytes_per_token(&cfg.model, cfg.kv_dtype);
        cfg.hw.memory.hbm_capacity_bytes = weights + per_tok * 50;
        let err = simulate(&cfg);
        assert!(matches!(err, Err(ServingError::RequestTooLarge { .. })));
    }

    #[test]
    fn tighter_memory_causes_backpressure_not_overflow() {
        let mut cfg = tiny_config();
        // Narrow the length ranges so the worst-case request (24 tokens)
        // fits, but two typical requests already crowd a 30-token device.
        cfg.traffic.prompt_range = (8, 16);
        cfg.traffic.output_range = (4, 8);
        let weights =
            cfg.kv_admission
                .weight_bytes(&cfg.model, cfg.max_request_tokens(), cfg.kv_dtype);
        let per_tok = cfg
            .kv_admission
            .kv_bytes_per_token(&cfg.model, cfg.kv_dtype);
        cfg.hw.memory.hbm_capacity_bytes = weights + per_tok * 30;
        let r = simulate(&cfg).unwrap();
        assert_eq!(r.completed.len(), 30, "backpressure must not drop requests");
        assert!(r.backpressure_stalls > 0, "expected KV admission stalls");
        assert!(r.kv_peak_bytes <= r.kv_capacity_bytes);
    }

    #[test]
    fn replicas_complete_everything_and_tag_the_trace() {
        let mut cfg = tiny_config();
        cfg.devices = 2;
        let r = simulate(&cfg).unwrap();
        assert_eq!(r.completed.len(), 30, "replicas must not drop requests");
        assert_eq!(r.offered, 30);
        assert_eq!(r.devices, 2);
        assert_eq!(r.trace.devices().len(), 2);
        assert_eq!(r.replica_uptime_ms.len(), 2);
        for (i, o) in r.completed.iter().enumerate() {
            assert_eq!(o.id, i as u64);
        }
        // A two-replica box should not serve the stream slower.
        let single = simulate(&tiny_config()).unwrap();
        assert!(r.makespan_ms <= single.makespan_ms * 1.01);
    }

    #[test]
    fn idle_cards_count_as_up_in_fault_free_runs() {
        // Two requests on four cards: two cards never serve, and the two
        // that do finish at different times. Nothing died, so every card
        // was up for the whole box makespan.
        let mut cfg = tiny_config();
        cfg.devices = 4;
        cfg.traffic.num_requests = 2;
        let r = simulate(&cfg).unwrap();
        assert_eq!(r.completed.len(), 2);
        assert_eq!(r.replica_uptime_ms, vec![r.makespan_ms; 4]);
        assert_eq!(r.availability(), 1.0);
    }

    #[test]
    fn larger_batch_does_not_hurt_goodput() {
        let mut small = tiny_config();
        small.max_batch = 1;
        let mut big = tiny_config();
        big.max_batch = 8;
        let rs = simulate(&small).unwrap();
        let rb = simulate(&big).unwrap();
        assert!(rb.goodput_tokens_per_s >= rs.goodput_tokens_per_s * 0.99);
        assert!(rb.makespan_ms <= rs.makespan_ms * 1.01);
    }

    #[test]
    fn killed_replica_requeues_onto_the_survivor() {
        let mut cfg = tiny_config();
        cfg.devices = 2;
        // Arrivals span ~600 ms; killing D1 at 20 ms strands most of its
        // round-robin share.
        cfg.faults = FaultPlan::none().kill(DeviceId(1), 20.0);
        let r = simulate(&cfg).unwrap();
        assert_eq!(r.completed.len(), 30, "failures must not drop requests");
        assert_eq!(r.offered, 30);
        assert_eq!(r.failed_replicas, 1);
        assert_eq!(r.restarts, 0);
        assert!(r.retries > 0, "orphans must be retried on the survivor");
        assert!(r.availability() < 1.0);
        assert_eq!(r.replica_uptime_ms[1], 20.0);
        assert!(r.replica_uptime_ms[0] > 20.0);
        // Retried requests carry their retry count into the outcome.
        assert!(r.completed.iter().any(|o| o.retries == 1));
        // Faulted runs are as deterministic as clean ones.
        let again = simulate(&cfg).unwrap();
        assert_eq!(r.makespan_ms, again.makespan_ms);
        assert_eq!(r.retries, again.retries);
        assert_eq!(r.requeued_tokens, again.requeued_tokens);
        assert_eq!(r.completed, again.completed);
    }

    #[test]
    fn orphans_round_robin_onto_the_survivors_and_complete() {
        // Saturate arrivals so every replica holds queued work when the
        // kill lands mid-run — otherwise the victim might die idle and
        // orphan nothing.
        let mut cfg = tiny_config();
        cfg.traffic.arrival_rate_per_s = 1e6;
        cfg.devices = 3;
        let kill_at = simulate(&cfg).unwrap().makespan_ms * 0.3;
        cfg.faults = FaultPlan::none().kill(DeviceId(2), kill_at);
        let r = simulate(&cfg).unwrap();
        assert_eq!(r.completed.len(), 30, "orphans must not be dropped");
        assert!(r.retries > 0);
    }

    #[test]
    fn killing_every_replica_is_an_error() {
        let mut cfg = tiny_config();
        cfg.faults = FaultPlan::none().kill(DeviceId(0), 0.0);
        match simulate(&cfg) {
            Err(ServingError::AllReplicasDead { unserved }) => assert_eq!(unserved, 30),
            other => panic!("expected AllReplicasDead, got {other:?}"),
        }
    }

    /// Pop `dispatch` and a calendar that was handed every fresh job up
    /// front, in lockstep, each pop bounded by `due_ms(step)`; after pop
    /// `step`, re-queue the popped job at `requeue_us(step, key)` into
    /// both. Returns the popped `(µs, id)` keys once both agree on them
    /// and on how many jobs are left.
    fn lockstep(
        requests: Vec<Request>,
        due_ms: impl Fn(usize) -> f64,
        requeue_us: impl Fn(usize, (u64, u64)) -> Option<u64>,
    ) -> Vec<(u64, u64)> {
        let mut one: EventCalendar<Job> = requests
            .iter()
            .map(|r| ((r.arrival_us, r.id), Job::fresh(r.clone())))
            .collect();
        let mut dispatch = Dispatch::new(requests);
        let mut popped = Vec::new();
        for step in 0.. {
            let t = due_ms(step);
            let want = one
                .peek_key()
                .filter(|k| k.0 as f64 / 1e3 <= t)
                .and_then(|_| one.pop());
            let got = dispatch.pop_due(t);
            let key = |j: &Job| (j.submitted_us, j.req.id);
            assert_eq!(got.as_ref().map(key), want.as_ref().map(|(k, _)| *k));
            let Some(job) = got else {
                if one.is_empty() {
                    break;
                }
                continue;
            };
            popped.push(key(&job));
            if let Some(at_us) = requeue_us(step, key(&job)) {
                let j = Job {
                    submitted_us: at_us,
                    ..job
                };
                one.push(at_us, j.req.id, j.clone());
                dispatch.push(j);
            }
            assert_eq!(dispatch.len(), one.len());
        }
        popped
    }

    #[test]
    fn the_streamed_dispatcher_pops_in_one_calendars_key_order() {
        let req = |id, arrival_us| Request {
            id,
            arrival_us,
            prompt_len: 8,
            output_len: 4,
        };
        // Fresh arrivals in `(µs, id)` order. Job 0 comes back keyed
        // before the next fresh arrival, then tied on time with fresh job
        // 2 (a lower id, so first); job 5 comes back tied with it too (a
        // higher id, so after it), and once more after the stream ends.
        let fresh = vec![req(0, 10), req(5, 20), req(2, 30), req(1, 40)];
        let again = [Some(15), Some(30), Some(30), None, None, Some(45)];
        assert_eq!(
            lockstep(
                fresh,
                |_| f64::INFINITY,
                |step, _| again.get(step).copied().flatten()
            ),
            [
                (10, 0),
                (15, 0),
                (20, 5),
                (30, 0),
                (30, 2),
                (30, 5),
                (40, 1),
                (45, 5)
            ]
        );

        // Seeded interleavings with bounded pops: sparse ids, tied
        // arrival times, and re-queues at or after the pop.
        let mut seed = 0u64;
        let mut next = || {
            seed += 1;
            crate::idhash::splitmix64(seed)
        };
        for _ in 0..20 {
            let mut fresh: Vec<Request> = (0..200).map(|i| req(3 * i + 1, next() % 400)).collect();
            fresh.sort_by_key(|r| (r.arrival_us, r.id));
            let salt = next();
            let due = |step: usize| (step as u64 * 3 + salt % 7) as f64 / 1e3;
            let requeue = |step: usize, (us, id): (u64, u64)| {
                let h = crate::idhash::splitmix64(salt ^ ((step as u64) << 20) ^ id);
                h.is_multiple_of(3).then_some(us + h % 40)
            };
            let popped = lockstep(fresh, due, requeue);
            assert!(popped.len() > 200);
        }
    }

    #[test]
    fn a_job_due_at_the_end_of_the_clock_with_the_pool_down_is_rejected() {
        // The only card is down over the request's arrival, the last
        // representable µs, so deferring it to the restart needs a key
        // past the end of the clock.
        let mut cfg = tiny_config();
        cfg.faults = FaultPlan::none().kill_for(DeviceId(0), 1.8e16, 1e16);
        let req = Request {
            id: 7,
            arrival_us: u64::MAX,
            prompt_len: 8,
            output_len: 4,
        };
        match simulate_trace(&cfg, vec![req]) {
            Err(ServingError::InvalidConfig(msg)) => {
                assert!(msg.contains("request 7"), "{msg}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn retries_and_restarts_past_the_us_clock_are_rejected() {
        // Both times lie past 2^64 µs (about 1.8447e16 ms), where a cast
        // would saturate and run the attempt early, at `u64::MAX` µs.
        let requests = (0..4)
            .map(|id| Request {
                id,
                arrival_us: id * 10,
                prompt_len: 8,
                output_len: 200,
            })
            .collect::<Vec<_>>();
        let mut cfg = tiny_config();
        cfg.ctx_bucket = 16;
        cfg.devices = 2;
        cfg.faults = FaultPlan::none().kill(DeviceId(0), 0.5);
        cfg.robustness = RobustnessConfig::unlimited().backoff(2e16, 0.0, 0);
        // The card dies under request 0, whose retry is due at 2e16 ms.
        match simulate_trace(&cfg, requests.clone()) {
            Err(ServingError::InvalidConfig(msg)) => {
                assert!(msg.contains("request 0 would retry at 2e16 ms"), "{msg}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        // The only card dies under request 0 and restarts at 1e300 ms.
        cfg.devices = 1;
        cfg.faults = FaultPlan::none().kill_for(DeviceId(0), 0.001, 1e300);
        cfg.robustness = RobustnessConfig::unlimited();
        match simulate_trace(&cfg, requests) {
            Err(ServingError::InvalidConfig(msg)) => {
                assert!(
                    msg.contains("request 0 would wait for a restart at 1e300 ms"),
                    "{msg}"
                );
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn fault_plan_referencing_a_missing_device_is_rejected() {
        let mut cfg = tiny_config();
        cfg.faults = FaultPlan::none().kill(DeviceId(5), 1.0);
        assert!(matches!(simulate(&cfg), Err(ServingError::Fault(_))));
    }

    #[test]
    fn malformed_robustness_config_is_rejected() {
        let mut cfg = tiny_config();
        cfg.robustness = RobustnessConfig::default().queue_depth(0);
        assert!(matches!(
            simulate(&cfg),
            Err(ServingError::InvalidConfig(_))
        ));
    }

    #[test]
    fn shedding_bounds_the_queue_and_conserves_requests() {
        // A ~30-request burst against a 4-deep admission queue: the
        // overflow is shed, the queue gauge respects the bound, and
        // completed + dropped still accounts for every arrival.
        let mut cfg = tiny_config();
        cfg.traffic.arrival_rate_per_s = 1e6;
        cfg.robustness = RobustnessConfig::default().queue_depth(4);
        let r = simulate(&cfg).unwrap();
        assert!(r.shed() > 0, "the burst must overflow a 4-deep queue");
        assert_eq!(r.completed.len() + r.dropped.len(), 30);
        assert_eq!(r.offered, 30);
        assert!(r.max_queue_depth <= 4);
        assert!(r
            .dropped
            .iter()
            .all(|d| d.kind == DropKind::Rejected && d.tokens_generated == 0));
        assert!(r.goodput_fraction() < 1.0);

        // The unbounded baseline absorbs the same burst without shedding —
        // visible as a deeper queue and a larger queued-token peak.
        let mut unbounded = tiny_config();
        unbounded.traffic.arrival_rate_per_s = 1e6;
        let ru = simulate(&unbounded).unwrap();
        assert_eq!(ru.completed.len(), 30);
        assert!(ru.max_queue_depth > 4);
        assert!(ru.peak_queued_tokens > r.peak_queued_tokens);
    }

    #[test]
    fn ttft_deadline_expires_queued_requests() {
        // A burst against a TTFT SLO of three worst-case prefills: the
        // head of the queue completes in time, the tail times out, and
        // every completion actually met the deadline.
        let mut cfg = tiny_config();
        cfg.traffic.arrival_rate_per_s = 1e6;
        let deadline = phase_ms(&cfg, Phase::Prefill, 1, 64) * 3.0;
        cfg.robustness = RobustnessConfig::default().ttft_deadline(deadline);
        let r = simulate(&cfg).unwrap();
        assert!(
            r.timed_out() > 0,
            "the burst tail must miss a {deadline} ms TTFT SLO"
        );
        assert!(!r.completed.is_empty(), "the burst head meets the SLO");
        assert_eq!(r.completed.len() + r.dropped.len(), 30);
        for o in &r.completed {
            assert!(o.ttft_ms <= deadline, "completed requests met the TTFT SLO");
        }
        assert!(r.timed_out_latency_ms.p50 > 0.0);
        assert!(r.throughput_tokens_per_s >= r.goodput_tokens_per_s);
    }

    #[test]
    fn e2e_deadline_cancels_mid_decode() {
        // Deadline admits the prefill plus a few decode steps, not all 15:
        // the request is cancelled at a decode boundary with its partial
        // tokens counted toward throughput only.
        let mut cfg = tiny_config();
        let prefill = phase_ms(&cfg, Phase::Prefill, 1, 32);
        let decode = phase_ms(&cfg, Phase::Decode, 1, 48);
        cfg.robustness = RobustnessConfig::default().deadline(prefill + 3.5 * decode);
        let req = Request {
            id: 0,
            arrival_us: 0,
            prompt_len: 32,
            output_len: 16,
        };
        let r = simulate_trace(&cfg, vec![req]).unwrap();
        assert!(r.completed.is_empty());
        assert_eq!(r.dropped.len(), 1);
        let d = &r.dropped[0];
        assert_eq!(d.kind, DropKind::TimedOut);
        assert!(
            d.tokens_generated >= 1 && d.tokens_generated < 16,
            "cancelled mid-decode, got {} tokens",
            d.tokens_generated
        );
        assert_eq!(r.goodput_tokens_per_s, 0.0);
        assert!(
            r.throughput_tokens_per_s > 0.0,
            "partial work is throughput"
        );
    }

    #[test]
    fn restarted_replica_rejoins_the_pool() {
        let mut cfg = tiny_config();
        cfg.devices = 2;
        // D1 dies at 20 ms and comes back at 120 ms — cold recipe cache,
        // same dispatch slot.
        cfg.faults = FaultPlan::none().kill_for(DeviceId(1), 20.0, 100.0);
        let r = simulate(&cfg).unwrap();
        assert_eq!(r.completed.len(), 30, "restart runs must not drop requests");
        assert!(r.dropped.is_empty());
        assert_eq!(r.failed_replicas, 1);
        assert_eq!(r.restarts, 1);
        assert!(r.retries > 0, "the kill still orphans in-flight work");
        // The restarted card served post-restart work: up-time beyond the
        // 20 ms it survived before dying.
        assert!(
            r.replica_uptime_ms[1] > 20.0,
            "D1 must accrue up-time after its restart, got {}",
            r.replica_uptime_ms[1]
        );
        // Availability sits strictly between a permanent kill and no fault.
        let mut perm = tiny_config();
        perm.devices = 2;
        perm.faults = FaultPlan::none().kill(DeviceId(1), 20.0);
        let rp = simulate(&perm).unwrap();
        assert!(r.availability() > rp.availability());
        assert!(r.availability() < 1.0);
        // Restart runs stay bit-deterministic.
        let again = simulate(&cfg).unwrap();
        assert_eq!(r.makespan_ms, again.makespan_ms);
        assert_eq!(r.completed, again.completed);
    }

    #[test]
    fn retry_budget_exhaustion_fails_requests() {
        let mut cfg = tiny_config();
        cfg.devices = 2;
        cfg.faults = FaultPlan::none().kill(DeviceId(1), 20.0);
        cfg.robustness = RobustnessConfig::default().retries(0);
        let r = simulate(&cfg).unwrap();
        assert!(r.failed() > 0, "a zero-retry budget fails every orphan");
        assert_eq!(r.completed.len() + r.dropped.len(), 30);
        assert_eq!(r.offered, 30);
        assert!(r.dropped.iter().all(|d| d.kind == DropKind::Failed));
        assert!(r.completed.iter().all(|o| o.retries == 0));
    }

    #[test]
    fn backoff_stretches_recovery_deterministically() {
        let mut instant = tiny_config();
        instant.devices = 2;
        instant.faults = FaultPlan::none().kill(DeviceId(1), 20.0);
        let ri = simulate(&instant).unwrap();
        let mut delayed = instant;
        delayed.robustness = RobustnessConfig::default().backoff(5_000.0, 0.25, 11);
        let rd = simulate(&delayed).unwrap();
        assert_eq!(rd.completed.len(), 30, "backoff delays, it never drops");
        assert!(
            rd.makespan_ms > ri.makespan_ms + 4_000.0,
            "a 5 s first-retry backoff must push orphans well past the \
             instant-requeue makespan ({} vs {})",
            rd.makespan_ms,
            ri.makespan_ms
        );
        let again = simulate(&delayed).unwrap();
        assert_eq!(rd.makespan_ms, again.makespan_ms);
        assert_eq!(rd.completed, again.completed);
    }

    /// A KV-tight variant of [`tiny_config`]: room for `tokens` of KV on
    /// top of the weights, saturating arrivals.
    fn kv_tight_config(tokens: u64) -> ServingConfig {
        let mut cfg = tiny_config();
        cfg.traffic.arrival_rate_per_s = 1e6;
        cfg.traffic.prompt_range = (8, 16);
        cfg.traffic.output_range = (16, 32);
        let weights =
            cfg.kv_admission
                .weight_bytes(&cfg.model, cfg.max_request_tokens(), cfg.kv_dtype);
        let per_tok = cfg
            .kv_admission
            .kv_bytes_per_token(&cfg.model, cfg.kv_dtype);
        cfg.hw.memory.hbm_capacity_bytes = weights + per_tok * tokens;
        cfg
    }

    #[test]
    fn paged_admission_raises_concurrency_at_equal_hbm() {
        // 96 KV tokens: contiguous admission fits at most two worst-case
        // (48-token) reservations, paged admission packs live contexts.
        let contiguous = simulate(&kv_tight_config(96)).unwrap();
        let mut cfg = kv_tight_config(96);
        cfg.kv_admission = KvAdmissionConfig::Paged { block_tokens: 8 };
        let paged = simulate(&cfg).unwrap();
        assert_eq!(paged.completed.len(), 30, "paged must not drop requests");
        assert!(
            paged.peak_running > contiguous.peak_running,
            "paged admission must raise max concurrent sequences \
             ({} vs {})",
            paged.peak_running,
            contiguous.peak_running
        );
        assert!(
            paged.kv_block_utilization > contiguous.kv_block_utilization,
            "block chains hold live tokens, worst-case reservations don't \
             ({} vs {})",
            paged.kv_block_utilization,
            contiguous.kv_block_utilization
        );
        assert!(paged.kv_peak_bytes <= paged.kv_capacity_bytes);
        // Deterministic, preemptions and all.
        let again = simulate(&cfg).unwrap();
        assert_eq!(paged.makespan_ms, again.makespan_ms);
        assert_eq!(paged.preemptions, again.preemptions);
        assert_eq!(paged.completed, again.completed);
    }

    /// An activation-aware variant of [`kv_tight_config`]: paged KV, and
    /// HBM sized as weights + the naive activation estimate + `tokens` of
    /// KV. Under `Unplanned` that leaves exactly `tokens` of KV headroom;
    /// under `Planned` the packed arena is smaller than the naive sum and
    /// the difference becomes extra KV blocks at the same capacity.
    fn mem_tight_config(budget: ActivationBudget, tokens: u64) -> ServingConfig {
        let mut cfg = kv_tight_config(0);
        cfg.kv_admission = KvAdmissionConfig::Paged { block_tokens: 8 };
        cfg.activation_budget = budget;
        let (_, naive) = activation_estimate(&cfg).unwrap();
        let weights =
            cfg.kv_admission
                .weight_bytes(&cfg.model, cfg.max_request_tokens(), cfg.kv_dtype);
        let per_tok = cfg
            .kv_admission
            .kv_bytes_per_token(&cfg.model, cfg.kv_dtype);
        cfg.hw.memory.hbm_capacity_bytes = weights + naive + per_tok * tokens;
        cfg
    }

    #[test]
    fn activation_estimate_prices_only_shapes_the_engine_runs() {
        // A decode bucket of 4 does not divide 10 slots. The engine caps
        // every decode at 10 sequences, so the estimate's worst decode is
        // a batch of 10, not the bucket's 12.
        let mut cfg = tiny_config();
        cfg.traffic.prompt_range = (4, 8);
        cfg.traffic.output_range = (4, 200);
        cfg.max_batch = 10;
        cfg.recipes.batch_bucket = 4;
        let compiler = gaudi_compiler::GraphCompiler::new(cfg.hw.clone(), cfg.opts.clone());
        let footprint = |graph| {
            let (_, _, mem) = compiler.compile_with_memplan(graph).unwrap();
            (mem.arena_bytes, mem.naive_bytes)
        };
        // Lengths round up to the 32-token bucket: the longest prompt, 8,
        // to 32, and the longest context, 8 + 200, to 224.
        let prefill = footprint(gaudi_models::build_prefill(&cfg.model, 1, 32).unwrap().0);
        let decode = footprint(
            gaudi_models::build_decode_step(&cfg.model, 10, 224)
                .unwrap()
                .0,
        );
        assert_eq!(
            activation_estimate(&cfg).unwrap(),
            (prefill.0.max(decode.0), prefill.1.max(decode.1))
        );
    }

    #[test]
    fn activation_budget_orders_admissible_kv() {
        // A bigger admission-time reserve leaves a smaller block pool at
        // the same HBM: Off > Planned > Unplanned admissible tokens,
        // strictly because the planner packs tighter than the naive sum
        // by more than a block on this model.
        let cfg = mem_tight_config(ActivationBudget::Off, 96);
        let (planned_bytes, naive_bytes) = activation_estimate(&cfg).unwrap();
        assert!(planned_bytes > 0);
        assert!(
            planned_bytes < naive_bytes,
            "the arena must beat the naive sum ({planned_bytes} vs {naive_bytes})"
        );
        let pool_of = |reserve: u64| {
            cfg.kv_admission
                .build(
                    &cfg.hw.memory,
                    &cfg.model,
                    cfg.max_request_tokens(),
                    cfg.kv_dtype,
                    reserve,
                )
                .unwrap()
                .max_admissible_tokens()
        };
        let off = pool_of(0);
        let planned = pool_of(planned_bytes);
        let unplanned = pool_of(naive_bytes);
        assert!(
            off > planned && planned > unplanned,
            "reserves must shrink the pool monotonically \
             ({off} vs {planned} vs {unplanned})"
        );
        for budget in [
            ActivationBudget::Off,
            ActivationBudget::Planned,
            ActivationBudget::Unplanned,
        ] {
            let r = simulate(&mem_tight_config(budget, 96)).unwrap();
            assert_eq!(r.completed.len(), 30, "{budget:?} stalls, never drops");
            assert!(r.kv_peak_bytes <= r.kv_capacity_bytes);
        }
    }

    #[test]
    fn planned_budget_reclaims_headroom_into_concurrency() {
        let unplanned = simulate(&mem_tight_config(ActivationBudget::Unplanned, 96)).unwrap();
        let planned = simulate(&mem_tight_config(ActivationBudget::Planned, 96)).unwrap();
        assert!(
            planned.peak_running >= unplanned.peak_running,
            "reclaimed activation headroom must not lower concurrency \
             ({} vs {})",
            planned.peak_running,
            unplanned.peak_running
        );
        assert!(planned.goodput_tokens_per_s >= unplanned.goodput_tokens_per_s);
        // Deterministic on both sides.
        let again = simulate(&mem_tight_config(ActivationBudget::Planned, 96)).unwrap();
        assert_eq!(planned.makespan_ms, again.makespan_ms);
        assert_eq!(planned.completed, again.completed);
    }

    #[test]
    fn activation_budget_off_is_the_default_and_reserves_nothing() {
        let cfg = kv_tight_config(96);
        assert_eq!(cfg.activation_budget, ActivationBudget::Off);
        let explicit = ServingConfig::builder()
            .activation_budget(ActivationBudget::Off)
            .build();
        assert_eq!(explicit.activation_budget, ActivationBudget::Off);
        // Off charges no activation reserve: same pool as the seed.
        let mut with_field = cfg.clone();
        with_field.activation_budget = ActivationBudget::Off;
        let a = simulate(&cfg).unwrap();
        let b = simulate(&with_field).unwrap();
        assert_eq!(a.kv_capacity_bytes, b.kv_capacity_bytes);
        assert_eq!(a.makespan_ms, b.makespan_ms);
        assert_eq!(a.completed, b.completed);
    }

    #[test]
    fn paged_preemption_discards_and_recomputes_not_drops() {
        // 40 KV tokens in 4-token blocks. Two requests of 8+30 = 38 total
        // tokens: paged admission takes both on their 9-token live
        // footprints, growth dries the 10-block pool mid-decode, and the
        // newest admission is preempted back to the queue — both still
        // complete.
        let mut cfg = kv_tight_config(40);
        cfg.kv_admission = KvAdmissionConfig::Paged { block_tokens: 4 };
        let reqs: Vec<Request> = (0..2)
            .map(|id| Request {
                id,
                arrival_us: 0,
                prompt_len: 8,
                output_len: 30,
            })
            .collect();
        let r = simulate_trace(&cfg, reqs).unwrap();
        assert_eq!(r.completed.len(), 2, "preemption must never drop");
        assert!(r.dropped.is_empty());
        assert!(
            r.preemptions > 0,
            "a 10-block pool cannot hold two 38-token chains"
        );
        assert!(
            r.requeued_tokens > 0,
            "the victim's generated tokens are recomputed"
        );
        assert_eq!(r.peak_running, 2, "both requests ran concurrently first");
        // Contiguous admission never preempts: it serializes instead.
        let base = kv_tight_config(40);
        let reqs: Vec<Request> = (0..2)
            .map(|id| Request {
                id,
                arrival_us: 0,
                prompt_len: 8,
                output_len: 30,
            })
            .collect();
        let rc = simulate_trace(&base, reqs).unwrap();
        assert_eq!(rc.preemptions, 0);
        assert_eq!(rc.peak_running, 1, "38 + 38 > 40 forces serial service");
    }

    #[test]
    fn recipe_warmup_stretches_the_clock_without_busying_engines() {
        // One request, so the schedule cannot reshuffle: prompt 48 (one
        // prefill shape) and 5 decode steps whose contexts 49..53 share
        // one ctx bucket — exactly two recipe compiles.
        let cfg = tiny_config();
        let req = Request {
            id: 0,
            arrival_us: 0,
            prompt_len: 48,
            output_len: 6,
        };
        let base = simulate_trace(&cfg, vec![req.clone()]).unwrap();
        let mut warm_cfg = tiny_config();
        warm_cfg.recipes = RecipeConfig {
            compile_ms: 25.0,
            batch_bucket: 1,
        };
        let warm = simulate_trace(&warm_cfg, vec![req]).unwrap();
        assert_eq!(warm.recipe_compiles, 2);
        assert!(
            (warm.makespan_ms - base.makespan_ms - 50.0).abs() < 1e-6,
            "two first-use compiles must stretch the clock by exactly 2 x \
             25 ms ({} vs {})",
            warm.makespan_ms,
            base.makespan_ms
        );
        // TTFT absorbs the prefill compile only.
        assert!((warm.ttft_ms.p50 - base.ttft_ms.p50 - 25.0).abs() < 1e-6);
        // Warmup is host time: engine-busy totals (utilization x makespan)
        // are unchanged, so utilization strictly dilutes.
        let base_busy = base.mme_utilization * base.makespan_ms;
        let warm_busy = warm.mme_utilization * warm.makespan_ms;
        assert!((base_busy - warm_busy).abs() < 1e-6);
        assert!(warm.mme_utilization < base.mme_utilization);
        // Even the no-penalty default counts distinct shapes.
        assert_eq!(base.recipe_compiles, 2);
        assert_eq!(base.padding_waste(), warm.padding_waste());
    }

    #[test]
    fn restart_pays_recipe_warmup_again() {
        // Pin all work to D1 (D0 dies at t=0) so the comparison is not
        // muddied by work moving between replicas: a mid-run kill_for on
        // D1 parks the stream until its restart, and the cold cache then
        // recompiles shapes D1 already paid for.
        let mut clean = tiny_config();
        clean.traffic.arrival_rate_per_s = 1e6;
        clean.devices = 2;
        clean.faults = FaultPlan::none().kill(DeviceId(0), 0.0);
        clean.recipes = RecipeConfig {
            compile_ms: 10.0,
            batch_bucket: 1,
        };
        let r_clean = simulate(&clean).unwrap();
        assert_eq!(r_clean.completed.len(), 30);
        let mut faulted = clean;
        let kill_at = r_clean.makespan_ms * 0.5;
        faulted.faults =
            FaultPlan::none()
                .kill(DeviceId(0), 0.0)
                .kill_for(DeviceId(1), kill_at, 50.0);
        let r = simulate(&faulted).unwrap();
        assert_eq!(r.restarts, 1);
        assert_eq!(r.completed.len() + r.dropped.len(), 30);
        assert!(
            r.recipe_compiles > r_clean.recipe_compiles,
            "a cold-restarted replica recompiles shapes it already paid for \
             ({} vs {})",
            r.recipe_compiles,
            r_clean.recipe_compiles
        );
        let again = simulate(&faulted).unwrap();
        assert_eq!(r.recipe_compiles, again.recipe_compiles);
        assert_eq!(r.makespan_ms, again.makespan_ms);
    }

    #[test]
    fn batch_bucketing_trades_padding_for_fewer_recipes() {
        let mut exact = tiny_config();
        exact.traffic.arrival_rate_per_s = 1e6;
        exact.recipes = RecipeConfig {
            compile_ms: 5.0,
            batch_bucket: 1,
        };
        let r_exact = simulate(&exact).unwrap();
        let mut coarse = exact;
        coarse.recipes = RecipeConfig {
            compile_ms: 5.0,
            batch_bucket: 4,
        };
        let r_coarse = simulate(&coarse).unwrap();
        assert_eq!(r_coarse.completed.len(), 30);
        assert!(
            r_coarse.recipe_compiles <= r_exact.recipe_compiles,
            "coarser batch buckets cannot need more recipes ({} vs {})",
            r_coarse.recipe_compiles,
            r_exact.recipe_compiles
        );
        assert!(
            r_coarse.padding_waste() > r_exact.padding_waste(),
            "padding is the price of coarse buckets ({} vs {})",
            r_coarse.padding_waste(),
            r_exact.padding_waste()
        );
    }

    #[test]
    fn builder_constructs_and_derives_configs() {
        let cfg = ServingConfig::builder()
            .max_batch(4)
            .devices(2)
            .kv_admission(KvAdmissionConfig::paged())
            .recipes(RecipeConfig {
                compile_ms: 1.0,
                batch_bucket: 2,
            })
            .build();
        assert_eq!(cfg.max_batch, 4);
        assert_eq!(cfg.devices, 2);
        assert_eq!(
            cfg.kv_admission,
            KvAdmissionConfig::Paged { block_tokens: 16 }
        );
        let derived = cfg.to_builder().devices(1).build();
        assert_eq!(derived.devices, 1);
        assert_eq!(derived.max_batch, 4, "unset fields carry over");
        assert_eq!(derived.recipes.batch_bucket, 2);
    }

    #[test]
    fn zero_shape_parameters_are_config_errors_at_every_entry_point() {
        // Every phase shape divides by the context and recipe batch
        // buckets and is capped at the slot count.
        let mut zero_batch_bucket = tiny_config();
        zero_batch_bucket.recipes.batch_bucket = 0;
        let invalid = |r: Result<_, ServingError>| matches!(r, Err(ServingError::InvalidConfig(_)));
        for cfg in [
            tiny_config().to_builder().ctx_bucket(0).build(),
            tiny_config().to_builder().max_batch(0).build(),
            zero_batch_bucket,
        ] {
            assert!(invalid(simulate(&cfg).map(drop)));
            assert!(invalid(activation_estimate(&cfg).map(drop)));
            let cluster = crate::cluster::ClusterConfig::new(cfg, 2, 1);
            assert!(invalid(
                crate::cluster::simulate_cluster(&cluster).map(drop)
            ));
        }
    }

    #[test]
    fn zero_token_requests_are_a_config_error_under_both_admissions() {
        for kv_admission in [KvAdmissionConfig::default(), KvAdmissionConfig::paged()] {
            let cfg = ServingConfig {
                kv_admission,
                ..tiny_config()
            };
            for (prompt_len, output_len) in [(0, 4), (8, 0)] {
                let req = Request {
                    id: 0,
                    arrival_us: 0,
                    prompt_len,
                    output_len,
                };
                assert!(
                    matches!(
                        simulate_trace(&cfg, vec![req]),
                        Err(ServingError::InvalidConfig(_))
                    ),
                    "{:?} prompt {prompt_len} output {output_len}",
                    cfg.kv_admission
                );
            }
        }
    }

    #[test]
    fn malformed_traffic_is_a_config_error_at_both_entry_points() {
        let ok = tiny_config().traffic;
        let cases = [
            TrafficConfig {
                num_requests: 0,
                ..ok.clone()
            },
            TrafficConfig {
                arrival_rate_per_s: 0.0,
                ..ok.clone()
            },
            TrafficConfig {
                arrival_rate_per_s: -5.0,
                ..ok.clone()
            },
            TrafficConfig {
                arrival_rate_per_s: f64::NAN,
                ..ok.clone()
            },
            TrafficConfig {
                prompt_range: (0, 64),
                ..ok.clone()
            },
            TrafficConfig {
                prompt_range: (64, 8),
                ..ok.clone()
            },
            TrafficConfig {
                output_range: (0, 16),
                ..ok.clone()
            },
            TrafficConfig {
                output_range: (16, 4),
                ..ok.clone()
            },
            TrafficConfig {
                zipf_s: f64::NAN,
                ..ok.clone()
            },
            TrafficConfig {
                zipf_s: f64::NEG_INFINITY,
                ..ok.clone()
            },
            // Positive, but its longest gaps overflow the µs arrival clock.
            TrafficConfig {
                arrival_rate_per_s: 1e-14,
                ..ok
            },
        ];
        let invalid = |r: Result<_, ServingError>| matches!(r, Err(ServingError::InvalidConfig(_)));
        for traffic in cases {
            let cfg = tiny_config().to_builder().traffic(traffic.clone()).build();
            assert!(invalid(simulate(&cfg).map(drop)), "simulate: {traffic:?}");
            let cluster = crate::cluster::ClusterConfig::new(cfg, 2, 1);
            assert!(
                invalid(crate::cluster::simulate_cluster(&cluster).map(drop)),
                "simulate_cluster: {traffic:?}"
            );
        }
    }

    #[test]
    fn malformed_kv_and_recipe_configs_are_rejected() {
        // An empty block, KV rows of zero bytes, and a block whose byte
        // size wraps u64 (2^56 tokens of this model's 256 B rows).
        let mut empty_block = tiny_config();
        empty_block.kv_admission = KvAdmissionConfig::Paged { block_tokens: 0 };
        let mut no_layers = tiny_config();
        no_layers.model.layers = 0;
        let mut no_head_dim = tiny_config();
        no_head_dim.model.head_dim = 0;
        let mut huge_block = tiny_config();
        huge_block.kv_admission = KvAdmissionConfig::Paged {
            block_tokens: 1 << 56,
        };
        assert_eq!(
            huge_block
                .kv_admission
                .kv_bytes_per_token(&huge_block.model, huge_block.kv_dtype),
            256
        );
        // Models whose KV row (2^61 layers) or resident weights (a 2^62
        // token vocabulary) overflow u64.
        let overflowing = |model| ServingConfig {
            model,
            ..ServingConfig::paper_gpt()
        };
        let huge_kv_row = overflowing(LlmConfig {
            layers: 1 << 61,
            heads: 4,
            head_dim: 16,
            ..LlmConfig::tiny(97)
        });
        let huge_weights = overflowing(LlmConfig {
            layers: 2,
            vocab: 1 << 62,
            heads: 4,
            head_dim: 16,
            ..LlmConfig::tiny(97)
        });
        for cfg in [
            empty_block,
            no_layers,
            no_head_dim,
            huge_block,
            huge_kv_row,
            huge_weights,
        ] {
            assert!(matches!(
                simulate(&cfg),
                Err(ServingError::InvalidConfig(_))
            ));
        }
        let mut cfg = tiny_config();
        cfg.recipes.batch_bucket = 0;
        assert!(matches!(
            simulate(&cfg),
            Err(ServingError::InvalidConfig(_))
        ));
    }
}
