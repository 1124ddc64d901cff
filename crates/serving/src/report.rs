//! Serving metrics: per-request outcomes and the aggregate report.

use gaudi_hw::DeviceId;
use gaudi_profiler::report::TextTable;
use gaudi_profiler::Trace;

/// p50/p95/p99 summary of a latency population, in milliseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Percentiles {
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl Percentiles {
    /// Summarize a population. Empty input yields all zeros.
    ///
    /// Uses the nearest-rank method (`ceil(p·n)`-th order statistic), which
    /// always returns an observed value — important for exact reproducibility
    /// assertions on identical seeds.
    pub fn of(values: impl IntoIterator<Item = f64>) -> Self {
        Self::of_in(&mut Vec::new(), values)
    }

    /// [`of`](Self::of), collecting the samples into `v` (cleared first)
    /// and sorting them there, so one buffer serves several populations.
    fn of_in(v: &mut Vec<f64>, values: impl IntoIterator<Item = f64>) -> Self {
        v.clear();
        v.extend(values);
        if v.is_empty() {
            return Percentiles::default();
        }
        // `total_cmp` would order a NaN past +inf instead of failing the
        // comparison; reject it up front, as the comparison sort did.
        assert!(!v.iter().any(|x| x.is_nan()), "latencies are finite");
        v.sort_unstable_by(f64::total_cmp);
        let rank = |p: f64| {
            let idx = (p * v.len() as f64).ceil() as usize;
            v[idx.clamp(1, v.len()) - 1]
        };
        Percentiles {
            p50: rank(0.50),
            p95: rank(0.95),
            p99: rank(0.99),
            mean: v.iter().sum::<f64>() / v.len() as f64,
        }
    }
}

/// Everything the engine observed about one completed request.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestOutcome {
    /// Request id (arrival order).
    pub id: u64,
    /// Arrival time, ms.
    pub arrival_ms: f64,
    /// Prompt tokens.
    pub prompt_len: usize,
    /// Generated tokens.
    pub output_len: usize,
    /// Time spent in the admission queue before prefill started, ms. For a
    /// retried request this counts waiting on the replica that finally
    /// served it (from its re-queue time, not its original arrival).
    pub queue_ms: f64,
    /// Time to first token: arrival → end of the prefill that produced
    /// token 0 (queueing + prefill; prefill's last forward pass emits the
    /// first output token), ms. Always measured from the request's
    /// original arrival, so replica failures and retries show up here.
    pub ttft_ms: f64,
    /// Scheduling attempts that were lost to replica failures before this
    /// one completed (0 in fault-free runs).
    pub retries: u32,
    /// Completion time, ms.
    pub finish_ms: f64,
    /// Absolute emission time of each generated token, ms. Strictly
    /// increasing — decode steps never reorder a request's tokens.
    pub token_times_ms: Vec<f64>,
}

/// Why a request terminated without (fully SLO-compliant) completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropKind {
    /// Shed at admission: the queue was at its depth or token bound when
    /// the request arrived (overload protection, never a silent drop).
    Rejected,
    /// An SLO deadline expired: either while queued (TTFT could no longer
    /// be met) or at completion (the finished request missed its deadline,
    /// so its tokens count toward throughput but not goodput).
    TimedOut,
    /// Replica failures exhausted the retry budget.
    Failed,
}

/// A request that terminated without completing inside its SLOs.
#[derive(Debug, Clone, PartialEq)]
pub struct DroppedRequest {
    /// Request id.
    pub id: u64,
    /// Arrival time, ms.
    pub arrival_ms: f64,
    /// Why it was dropped.
    pub kind: DropKind,
    /// When it was dropped, ms (shed/expiry/failure/late-finish time).
    pub at_ms: f64,
    /// Scheduling attempts lost to replica failures before the drop.
    pub retries: u32,
    /// Output tokens the engine generated for it anyway (non-zero only for
    /// late finishers — work done, SLO missed: throughput, not goodput).
    pub tokens_generated: usize,
}

/// Aggregate result of a serving simulation.
#[derive(Debug, Clone)]
pub struct ServingReport {
    /// Per-request outcomes of requests that completed within every
    /// configured SLO, sorted by id. With the default (unlimited)
    /// [`RobustnessConfig`] every generated request appears exactly once:
    /// admission backpressure delays, it never drops.
    ///
    /// [`RobustnessConfig`]: crate::RobustnessConfig
    pub completed: Vec<RequestOutcome>,
    /// Requests that terminated as shed, timed-out, or failed, sorted by
    /// id. Empty under the default unlimited robustness policy.
    pub dropped: Vec<DroppedRequest>,
    /// Requests offered to the engine. Conservation invariant:
    /// `offered == completed.len() + dropped.len()`.
    pub offered: usize,
    /// First arrival → last completion, ms.
    pub makespan_ms: f64,
    /// Time-to-first-token percentiles, ms.
    pub ttft_ms: Percentiles,
    /// Per-output-token latency percentiles (inter-token gaps), ms.
    pub tpot_ms: Percentiles,
    /// Admission-queue wait percentiles, ms.
    pub queue_ms: Percentiles,
    /// Arrival→drop latency percentiles of timed-out requests, ms. All
    /// zeros when nothing timed out.
    pub timed_out_latency_ms: Percentiles,
    /// Tokens of SLO-compliant completions per wall-clock second — the
    /// useful work rate. Under overload this plateaus at engine capacity
    /// while the shed fraction absorbs the excess.
    pub goodput_tokens_per_s: f64,
    /// All generated tokens per wall-clock second, including tokens of
    /// requests that finished past their deadline. `>= goodput`; the gap
    /// is work the engine did that no SLO-bound client waited for.
    pub throughput_tokens_per_s: f64,
    /// MME busy time / makespan.
    pub mme_utilization: f64,
    /// TPC-cluster busy time / makespan.
    pub tpc_utilization: f64,
    /// DMA busy time / makespan.
    pub dma_utilization: f64,
    /// NIC (collective/scale-out) busy time / makespan. Zero for purely
    /// data-parallel replicas, whose phase plans never touch the NIC.
    pub nic_utilization: f64,
    /// Decode iterations executed.
    pub decode_steps: usize,
    /// Prefill phases executed (= admissions).
    pub prefills: usize,
    /// Times the scheduler had a free slot but the KV accountant refused the
    /// queue head (HBM backpressure).
    pub backpressure_stalls: usize,
    /// Deepest the admission queue ever got, requests.
    pub max_queue_depth: usize,
    /// Largest worst-case token footprint the admission queue ever held —
    /// the saturation gauge that makes unbounded queue growth visible even
    /// with shedding disabled.
    pub peak_queued_tokens: usize,
    /// HBM high-water mark (weights + live KV), bytes.
    pub kv_peak_bytes: u64,
    /// Device HBM capacity, bytes.
    pub kv_capacity_bytes: u64,
    /// Fraction of the KV bytes reserved at the peak that held live
    /// tokens (mean over replicas). Contiguous admission wastes the
    /// not-yet-generated output tail of every reservation; paged
    /// admission wastes only each chain's last-block rounding — the gap
    /// between the two is the headroom paging reclaims.
    pub kv_block_utilization: f64,
    /// Distinct phase graphs compiled (the recipe-cache size).
    pub compiled_graphs: usize,
    /// Recipe compilations charged to the simulated devices: first use of
    /// each `(phase, batch bucket, ctx bucket)` shape per replica, summed
    /// over replicas, counting cold restarts again. With warmup enabled
    /// each compile stalls the replica for `RecipeConfig::compile_ms`.
    ///
    /// [`RecipeConfig::compile_ms`]: crate::RecipeConfig
    pub recipe_compiles: u64,
    /// Runners preempted mid-decode because the paged KV pool ran dry
    /// (their generated tokens were discarded and recomputed). Always zero
    /// under contiguous admission.
    pub preemptions: usize,
    /// Largest concurrent decode batch reached — per replica, summed over
    /// replicas (per-replica peaks need not be simultaneous). The
    /// max-concurrent-sequences gauge paged admission exists to raise.
    pub peak_running: usize,
    /// Token-slots scheduled across all phases at their bucket-padded
    /// shapes (prefill: bucketed prompt; decode: bucketed batch × bucketed
    /// context).
    pub scheduled_tokens: usize,
    /// The subset of `scheduled_tokens` that was padding: slots priced but
    /// holding no live token, from ctx- and batch-bucket rounding.
    pub padded_tokens: usize,
    /// Cards the simulation ran on (data-parallel serving replicas).
    pub devices: usize,
    /// Requests re-queued onto a surviving replica after a card failure
    /// (each counted once per lost attempt).
    pub retries: usize,
    /// Output tokens that had been generated on a card when it died and
    /// had to be regenerated elsewhere (lost work, excluded from goodput).
    /// With checkpointing, only tokens generated *past* the last snapshot
    /// count here — the snapshotted prefix restores instead.
    pub requeued_tokens: usize,
    /// KV bytes snapshotted to host across all periodic checkpoints (zero
    /// without a [`CheckpointPolicy`]).
    ///
    /// [`CheckpointPolicy`]: crate::CheckpointPolicy
    pub checkpoint_bytes: u64,
    /// Replica clock spent restoring host snapshots over DMA after
    /// failures and preemptions, ms.
    pub restore_ms: f64,
    /// Generated tokens resumed from host snapshots instead of being
    /// recomputed — the recomputation work checkpointing saved.
    pub recovered_tokens: u64,
    /// Replica kill events the fault plan delivered (a device that dies
    /// and restarts twice counts twice).
    pub failed_replicas: usize,
    /// Replica restart events: transient kills whose down window ended
    /// inside the run, returning the card to the dispatch pool with a cold
    /// compiled-plan cache.
    pub restarts: usize,
    /// Per-replica up-time, ms, indexed by device: the replica's own
    /// makespan minus the down windows it spent dead. Merged over a box, a
    /// replica that ended the run up stays up through the box makespan, so
    /// a card that merely went idle early is not counted as down.
    pub replica_uptime_ms: Vec<f64>,
    /// Engine-busy timeline of every phase, for the profiler tooling.
    pub trace: Trace,
}

impl ServingReport {
    /// Mean decode batch size: decode-generated tokens per decode step.
    /// (Each request's first token comes out of its prefill, so a request
    /// contributes `output_len - 1` decode tokens.)
    pub fn mean_decode_batch(&self) -> f64 {
        let tokens: usize = self
            .completed
            .iter()
            .map(|o| o.output_len.saturating_sub(1))
            .sum();
        if self.decode_steps == 0 {
            0.0
        } else {
            tokens as f64 / self.decode_steps as f64
        }
    }

    /// Requests shed at admission (queue depth or token bound hit).
    pub fn shed(&self) -> usize {
        self.dropped
            .iter()
            .filter(|d| d.kind == DropKind::Rejected)
            .count()
    }

    /// Requests that missed a TTFT or end-to-end deadline.
    pub fn timed_out(&self) -> usize {
        self.dropped
            .iter()
            .filter(|d| d.kind == DropKind::TimedOut)
            .count()
    }

    /// Requests that exhausted their retry budget after replica failures.
    pub fn failed(&self) -> usize {
        self.dropped
            .iter()
            .filter(|d| d.kind == DropKind::Failed)
            .count()
    }

    /// Fraction of all scheduled token-slots that was bucket padding —
    /// the waste side of the recipe-bucketing tradeoff (`0.0` when nothing
    /// was scheduled).
    pub fn padding_waste(&self) -> f64 {
        if self.scheduled_tokens == 0 {
            0.0
        } else {
            self.padded_tokens as f64 / self.scheduled_tokens as f64
        }
    }

    /// Fraction of offered requests that completed within their SLOs.
    pub fn goodput_fraction(&self) -> f64 {
        if self.offered == 0 {
            return 1.0;
        }
        self.completed.len() as f64 / self.offered as f64
    }

    /// Mean fraction of the box's makespan its replicas were alive:
    /// `1.0` in fault-free runs, lower when cards died mid-run. A replica
    /// that restarts accrues up-time on both sides of its down window.
    pub fn availability(&self) -> f64 {
        if self.replica_uptime_ms.is_empty() || self.makespan_ms <= 0.0 {
            return 1.0;
        }
        let up: f64 = self
            .replica_uptime_ms
            .iter()
            .map(|&u| u.min(self.makespan_ms))
            .sum();
        up / (self.makespan_ms * self.replica_uptime_ms.len() as f64)
    }

    /// Render the report as text tables through the profiler tooling.
    pub fn render(&self) -> String {
        let ms = |x: f64| format!("{x:.2}");
        let mut lat = TextTable::new(&["latency", "p50 ms", "p95 ms", "p99 ms", "mean ms"]);
        let mut rows = vec![
            ("ttft", &self.ttft_ms),
            ("per-token", &self.tpot_ms),
            ("queue wait", &self.queue_ms),
        ];
        if self.timed_out() > 0 {
            rows.push(("timed-out e2e", &self.timed_out_latency_ms));
        }
        for (name, p) in rows {
            lat.row(&[
                name.to_string(),
                ms(p.p50),
                ms(p.p95),
                ms(p.p99),
                ms(p.mean),
            ]);
        }

        let mut eng = TextTable::new(&["metric", "value"]);
        eng.row(&["devices".into(), self.devices.to_string()])
            .row(&["requests offered".into(), self.offered.to_string()])
            .row(&["requests served".into(), self.completed.len().to_string()])
            .row(&["makespan ms".into(), ms(self.makespan_ms)])
            .row(&[
                "goodput tok/s".into(),
                format!("{:.1}", self.goodput_tokens_per_s),
            ])
            .row(&[
                "throughput tok/s".into(),
                format!("{:.1}", self.throughput_tokens_per_s),
            ])
            .row(&[
                "mean decode batch".into(),
                format!("{:.2}", self.mean_decode_batch()),
            ])
            .row(&[
                "MME utilization".into(),
                format!("{:.1}%", self.mme_utilization * 100.0),
            ])
            .row(&[
                "TPC utilization".into(),
                format!("{:.1}%", self.tpc_utilization * 100.0),
            ])
            .row(&[
                "DMA utilization".into(),
                format!("{:.1}%", self.dma_utilization * 100.0),
            ])
            .row(&[
                "NIC utilization".into(),
                format!("{:.1}%", self.nic_utilization * 100.0),
            ])
            .row(&["decode steps".into(), self.decode_steps.to_string()])
            .row(&["prefills".into(), self.prefills.to_string()])
            .row(&[
                "KV backpressure stalls".into(),
                self.backpressure_stalls.to_string(),
            ])
            .row(&["max queue depth".into(), self.max_queue_depth.to_string()])
            .row(&[
                "peak queued tokens".into(),
                self.peak_queued_tokens.to_string(),
            ])
            .row(&[
                "HBM peak / capacity".into(),
                format!(
                    "{:.2} / {:.0} GiB",
                    self.kv_peak_bytes as f64 / (1u64 << 30) as f64,
                    self.kv_capacity_bytes as f64 / (1u64 << 30) as f64
                ),
            ])
            .row(&[
                "KV utilization at peak".into(),
                format!("{:.1}%", self.kv_block_utilization * 100.0),
            ])
            .row(&["peak decode batch".into(), self.peak_running.to_string()])
            .row(&["compiled graphs".into(), self.compiled_graphs.to_string()])
            .row(&["recipe compiles".into(), self.recipe_compiles.to_string()])
            .row(&[
                "padding waste".into(),
                format!("{:.1}%", self.padding_waste() * 100.0),
            ]);
        if self.preemptions > 0 {
            eng.row(&["KV preemptions".into(), self.preemptions.to_string()]);
        }
        if !self.dropped.is_empty() {
            eng.row(&["shed (rejected)".into(), self.shed().to_string()])
                .row(&["timed out".into(), self.timed_out().to_string()])
                .row(&["failed (retries)".into(), self.failed().to_string()])
                .row(&[
                    "goodput fraction".into(),
                    format!("{:.1}%", self.goodput_fraction() * 100.0),
                ]);
        }
        if self.failed_replicas > 0 || self.retries > 0 {
            eng.row(&["failed replicas".into(), self.failed_replicas.to_string()])
                .row(&["replica restarts".into(), self.restarts.to_string()])
                .row(&["request retries".into(), self.retries.to_string()])
                .row(&["requeued tokens".into(), self.requeued_tokens.to_string()])
                .row(&[
                    "availability".into(),
                    format!("{:.1}%", self.availability() * 100.0),
                ]);
        }
        if self.checkpoint_bytes > 0 {
            eng.row(&["checkpoint bytes".into(), self.checkpoint_bytes.to_string()])
                .row(&["restore ms".into(), ms(self.restore_ms)])
                .row(&["recovered tokens".into(), self.recovered_tokens.to_string()]);
        }

        format!("{}\n{}", lat.render(), eng.render())
    }
}

/// Two-level report merging: replicas → box, boxes → cluster.
impl ServingReport {
    /// Derive the latency summaries (TTFT, TPOT, queue wait, timed-out
    /// latency) from the per-request records. This is the one place they
    /// are computed, once per report a public call returns: replica
    /// reports, and the per-box reports a cluster merges, carry zeros
    /// there and hand up only their records.
    pub(crate) fn derived(mut self) -> Self {
        let gaps: usize = self
            .completed
            .iter()
            .map(|o| o.token_times_ms.len().saturating_sub(1))
            .sum();
        // One buffer sized for the largest population, refilled and sorted
        // in place for each summary.
        let mut buf = Vec::with_capacity(gaps.max(self.completed.len()).max(self.dropped.len()));
        let completed = &self.completed;
        self.ttft_ms = Percentiles::of_in(&mut buf, completed.iter().map(|o| o.ttft_ms));
        self.tpot_ms = Percentiles::of_in(
            &mut buf,
            completed
                .iter()
                .flat_map(|o| o.token_times_ms.windows(2).map(|w| w[1] - w[0])),
        );
        self.queue_ms = Percentiles::of_in(&mut buf, completed.iter().map(|o| o.queue_ms));
        self.timed_out_latency_ms = Percentiles::of_in(
            &mut buf,
            self.dropped
                .iter()
                .filter(|d| d.kind == DropKind::TimedOut)
                .map(|d| d.at_ms - d.arrival_ms),
        );
        self
    }

    /// Merge per-replica reports into one box-level report: latency percentiles
    /// recomputed over the union, throughput summed against the slowest
    /// replica's makespan, utilizations averaged per card (busy time
    /// reconstructed from each replica's utilization × its own makespan, NIC
    /// included), availability counters summed (a replica that ended the run
    /// up is up through the box makespan), and the trace re-tagged with each
    /// replica's [`DeviceId`].
    pub fn merge_replicas(devices: usize, replicas: Vec<ServingReport>) -> ServingReport {
        Self::pool_replicas(devices, replicas).derived()
    }

    /// [`merge_replicas`](Self::merge_replicas) without the latency
    /// derivation: the box's records and counters, for a caller that
    /// derives once at its own top level.
    pub(crate) fn pool_replicas(devices: usize, replicas: Vec<ServingReport>) -> ServingReport {
        let makespan_ms = replicas.iter().map(|r| r.makespan_ms).fold(0.0, f64::max);
        let span_ns = makespan_ms * 1e6;
        // Recover each replica's busy time from its own utilization x makespan.
        let busy = |f: fn(&ServingReport) -> f64| -> f64 {
            replicas.iter().map(|r| f(r) * r.makespan_ms * 1e6).sum()
        };
        let util = |f: fn(&ServingReport) -> f64| -> f64 {
            if span_ns > 0.0 {
                busy(f) / (span_ns * devices as f64)
            } else {
                0.0
            }
        };
        let mme_utilization = util(|r| r.mme_utilization);
        let tpc_utilization = util(|r| r.tpc_utilization);
        let dma_utilization = util(|r| r.dma_utilization);
        let nic_utilization = util(|r| r.nic_utilization);

        let mut completed: Vec<RequestOutcome> = Vec::new();
        let mut dropped: Vec<DroppedRequest> = Vec::new();
        let mut offered = 0;
        let mut trace = Trace::new();
        let mut decode_steps = 0;
        let mut prefills = 0;
        let mut backpressure_stalls = 0;
        let mut max_queue_depth = 0;
        let mut peak_queued_tokens = 0;
        let mut kv_peak_bytes = 0;
        let mut kv_capacity_bytes = 0;
        let mut kv_block_utilization = 0.0;
        let mut compiled_graphs = 0;
        let mut recipe_compiles = 0;
        let mut preemptions = 0;
        let mut peak_running = 0;
        let mut scheduled_tokens = 0;
        let mut padded_tokens = 0;
        let mut retries = 0;
        let mut requeued_tokens = 0;
        let mut checkpoint_bytes = 0;
        let mut restore_ms = 0.0;
        let mut recovered_tokens = 0;
        let mut failed_replicas = 0;
        let mut restarts = 0;
        let mut replica_uptime_ms = Vec::with_capacity(devices);
        for (d, r) in replicas.into_iter().enumerate() {
            completed.extend(r.completed);
            dropped.extend(r.dropped);
            offered += r.offered;
            for ev in r.trace.events() {
                trace.push(ev.clone().on_device(DeviceId(d)));
            }
            decode_steps += r.decode_steps;
            prefills += r.prefills;
            backpressure_stalls += r.backpressure_stalls;
            max_queue_depth = max_queue_depth.max(r.max_queue_depth);
            peak_queued_tokens = peak_queued_tokens.max(r.peak_queued_tokens);
            kv_peak_bytes = r.kv_peak_bytes.max(kv_peak_bytes);
            kv_capacity_bytes = r.kv_capacity_bytes;
            // Device-weighted like merge_boxes' gauges: a replica spanning
            // w cards (tensor parallelism) contributes w shares of the
            // box mean. Single-card replicas keep `r.devices == 1`, where
            // `x * 1.0 / d` is bit-identical to the old `x / d` — the
            // golden digests pin that. Dividing by `devices` without the
            // weight silently deflated the gauge whenever replicas !=
            // devices.
            kv_block_utilization += r.kv_block_utilization * r.devices as f64 / devices as f64;
            compiled_graphs += r.compiled_graphs;
            recipe_compiles += r.recipe_compiles;
            preemptions += r.preemptions;
            // Summed, not max'd: the box-level "max concurrent sequences" is
            // the aggregate decode capacity the stream actually reached
            // (per-replica peaks need not be simultaneous; each replica's own
            // peak is exact).
            peak_running += r.peak_running;
            scheduled_tokens += r.scheduled_tokens;
            padded_tokens += r.padded_tokens;
            retries += r.retries;
            requeued_tokens += r.requeued_tokens;
            checkpoint_bytes += r.checkpoint_bytes;
            restore_ms += r.restore_ms;
            recovered_tokens += r.recovered_tokens;
            // A replica that ended the run up (every kill followed by its
            // restart) idles, alive, until the box's last replica finishes:
            // its own down time is `r.makespan_ms - up`, the rest of the
            // box makespan is up-time.
            let ended_up = r.failed_replicas == r.restarts;
            failed_replicas += r.failed_replicas;
            restarts += r.restarts;
            replica_uptime_ms.extend(r.replica_uptime_ms.iter().map(|&up| {
                if ended_up {
                    makespan_ms - (r.makespan_ms - up)
                } else {
                    up
                }
            }));
        }
        completed.sort_by_key(|o| o.id);
        dropped.sort_by_key(|o| o.id);
        let goodput_tokens: usize = completed.iter().map(|o| o.output_len).sum();
        let wasted_tokens: usize = dropped.iter().map(|d| d.tokens_generated).sum();

        let per_s = |tokens: usize| {
            if makespan_ms > 0.0 {
                tokens as f64 / (makespan_ms / 1e3)
            } else {
                0.0
            }
        };

        ServingReport {
            completed,
            dropped,
            offered,
            makespan_ms,
            ttft_ms: Percentiles::default(),
            tpot_ms: Percentiles::default(),
            queue_ms: Percentiles::default(),
            timed_out_latency_ms: Percentiles::default(),
            goodput_tokens_per_s: per_s(goodput_tokens),
            throughput_tokens_per_s: per_s(goodput_tokens + wasted_tokens),
            mme_utilization,
            tpc_utilization,
            dma_utilization,
            nic_utilization,
            decode_steps,
            prefills,
            backpressure_stalls,
            max_queue_depth,
            peak_queued_tokens,
            kv_peak_bytes,
            kv_capacity_bytes,
            kv_block_utilization,
            compiled_graphs,
            recipe_compiles,
            preemptions,
            peak_running,
            scheduled_tokens,
            padded_tokens,
            devices,
            retries,
            requeued_tokens,
            checkpoint_bytes,
            restore_ms,
            recovered_tokens,
            failed_replicas,
            restarts,
            replica_uptime_ms,
            trace,
        }
    }

    /// Merge per-box reports into one cluster-level report — the second
    /// level of the two-level merge. Unlike [`merge_replicas`], whose
    /// float arithmetic is frozen (golden-pinned) to the single-box
    /// engine, this level weights every per-box gauge by that box's
    /// device count: busy time is reconstructed as
    /// `util × makespan × devices` per box, utilizations renormalize over
    /// the cluster's total device count and the slowest box's makespan,
    /// and latency percentiles are re-derived from the pooled per-request
    /// samples — never by averaging per-box percentiles (the p99 of a
    /// union is not the mean of the p99s). Trace events are re-tagged
    /// with cluster-global device ids (each box's devices offset by the
    /// devices of the boxes before it).
    ///
    /// [`merge_replicas`]: Self::merge_replicas
    pub fn merge_boxes(boxes: Vec<ServingReport>) -> ServingReport {
        let devices: usize = boxes.iter().map(|r| r.devices).sum();
        let makespan_ms = boxes.iter().map(|r| r.makespan_ms).fold(0.0, f64::max);
        let span_ns = makespan_ms * 1e6;
        let busy = |f: fn(&ServingReport) -> f64| -> f64 {
            boxes
                .iter()
                .map(|r| f(r) * r.makespan_ms * 1e6 * r.devices as f64)
                .sum()
        };
        let util = |f: fn(&ServingReport) -> f64| -> f64 {
            if span_ns > 0.0 && devices > 0 {
                busy(f) / (span_ns * devices as f64)
            } else {
                0.0
            }
        };
        let mme_utilization = util(|r| r.mme_utilization);
        let tpc_utilization = util(|r| r.tpc_utilization);
        let dma_utilization = util(|r| r.dma_utilization);
        let nic_utilization = util(|r| r.nic_utilization);
        let kv_block_utilization = if devices > 0 {
            boxes
                .iter()
                .map(|r| r.kv_block_utilization * r.devices as f64)
                .sum::<f64>()
                / devices as f64
        } else {
            0.0
        };

        let mut completed: Vec<RequestOutcome> = Vec::new();
        let mut dropped: Vec<DroppedRequest> = Vec::new();
        let mut offered = 0;
        let mut trace = Trace::new();
        let mut device_offset = 0;
        let mut decode_steps = 0;
        let mut prefills = 0;
        let mut backpressure_stalls = 0;
        let mut max_queue_depth = 0;
        let mut peak_queued_tokens = 0;
        let mut kv_peak_bytes = 0;
        let mut kv_capacity_bytes = 0;
        let mut compiled_graphs = 0;
        let mut recipe_compiles = 0;
        let mut preemptions = 0;
        let mut peak_running = 0;
        let mut scheduled_tokens = 0;
        let mut padded_tokens = 0;
        let mut retries = 0;
        let mut requeued_tokens = 0;
        let mut checkpoint_bytes = 0;
        let mut restore_ms = 0.0;
        let mut recovered_tokens = 0;
        let mut failed_replicas = 0;
        let mut restarts = 0;
        let mut replica_uptime_ms = Vec::with_capacity(devices);
        for r in boxes {
            completed.extend(r.completed);
            dropped.extend(r.dropped);
            offered += r.offered;
            for ev in r.trace.events() {
                let mut ev = ev.clone();
                ev.device = DeviceId(ev.device.0 + device_offset);
                trace.push(ev);
            }
            device_offset += r.devices;
            decode_steps += r.decode_steps;
            prefills += r.prefills;
            backpressure_stalls += r.backpressure_stalls;
            max_queue_depth = max_queue_depth.max(r.max_queue_depth);
            peak_queued_tokens = peak_queued_tokens.max(r.peak_queued_tokens);
            kv_peak_bytes = r.kv_peak_bytes.max(kv_peak_bytes);
            kv_capacity_bytes = r.kv_capacity_bytes.max(kv_capacity_bytes);
            compiled_graphs += r.compiled_graphs;
            recipe_compiles += r.recipe_compiles;
            preemptions += r.preemptions;
            peak_running += r.peak_running;
            scheduled_tokens += r.scheduled_tokens;
            padded_tokens += r.padded_tokens;
            retries += r.retries;
            requeued_tokens += r.requeued_tokens;
            checkpoint_bytes += r.checkpoint_bytes;
            restore_ms += r.restore_ms;
            recovered_tokens += r.recovered_tokens;
            failed_replicas += r.failed_replicas;
            restarts += r.restarts;
            replica_uptime_ms.extend(r.replica_uptime_ms);
        }
        completed.sort_by_key(|o| o.id);
        dropped.sort_by_key(|o| o.id);
        let goodput_tokens: usize = completed.iter().map(|o| o.output_len).sum();
        let wasted_tokens: usize = dropped.iter().map(|d| d.tokens_generated).sum();

        let per_s = |tokens: usize| {
            if makespan_ms > 0.0 {
                tokens as f64 / (makespan_ms / 1e3)
            } else {
                0.0
            }
        };

        ServingReport {
            completed,
            dropped,
            offered,
            makespan_ms,
            ttft_ms: Percentiles::default(),
            tpot_ms: Percentiles::default(),
            queue_ms: Percentiles::default(),
            timed_out_latency_ms: Percentiles::default(),
            goodput_tokens_per_s: per_s(goodput_tokens),
            throughput_tokens_per_s: per_s(goodput_tokens + wasted_tokens),
            mme_utilization,
            tpc_utilization,
            dma_utilization,
            nic_utilization,
            decode_steps,
            prefills,
            backpressure_stalls,
            max_queue_depth,
            peak_queued_tokens,
            kv_peak_bytes,
            kv_capacity_bytes,
            kv_block_utilization,
            compiled_graphs,
            recipe_compiles,
            preemptions,
            peak_running,
            scheduled_tokens,
            padded_tokens,
            devices,
            retries,
            requeued_tokens,
            checkpoint_bytes,
            restore_ms,
            recovered_tokens,
            failed_replicas,
            restarts,
            replica_uptime_ms,
            trace,
        }
        .derived()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal replica report spanning `devices` cards with the given
    /// block-utilization gauge; everything else is zero/empty.
    fn replica_report(devices: usize, kv_block_utilization: f64) -> ServingReport {
        ServingReport {
            completed: vec![],
            dropped: vec![],
            offered: 0,
            makespan_ms: 10.0,
            ttft_ms: Percentiles::default(),
            tpot_ms: Percentiles::default(),
            queue_ms: Percentiles::default(),
            timed_out_latency_ms: Percentiles::default(),
            goodput_tokens_per_s: 0.0,
            throughput_tokens_per_s: 0.0,
            mme_utilization: 0.0,
            tpc_utilization: 0.0,
            dma_utilization: 0.0,
            nic_utilization: 0.0,
            decode_steps: 0,
            prefills: 0,
            backpressure_stalls: 0,
            max_queue_depth: 0,
            peak_queued_tokens: 0,
            kv_peak_bytes: 0,
            kv_capacity_bytes: 0,
            kv_block_utilization,
            compiled_graphs: 0,
            recipe_compiles: 0,
            preemptions: 0,
            peak_running: 0,
            scheduled_tokens: 0,
            padded_tokens: 0,
            devices,
            retries: 0,
            requeued_tokens: 0,
            checkpoint_bytes: 0,
            restore_ms: 0.0,
            recovered_tokens: 0,
            failed_replicas: 0,
            restarts: 0,
            replica_uptime_ms: vec![10.0; devices],
            trace: Trace::new(),
        }
    }

    #[test]
    fn merge_replicas_weights_block_utilization_by_replica_width() {
        // Regression: two tp=2 replicas on a 4-card box. The old code
        // divided each replica's gauge by 4 *without* the 2-card weight,
        // reporting (0.9 + 0.6) / 4 = 0.375 for a box whose cards sit at
        // a true mean of (0.9*2 + 0.6*2) / 4 = 0.75.
        let merged =
            ServingReport::merge_replicas(4, vec![replica_report(2, 0.9), replica_report(2, 0.6)]);
        assert!(
            (merged.kv_block_utilization - 0.75).abs() < 1e-12,
            "device-weighted mean, got {}",
            merged.kv_block_utilization
        );
        // Data-parallel single-card replicas are the legacy path and must
        // stay bit-identical (x * 1.0 / d == x / d in IEEE f64).
        let dp =
            ServingReport::merge_replicas(2, vec![replica_report(1, 0.9), replica_report(1, 0.6)]);
        assert_eq!(dp.kv_block_utilization, 0.9 / 2.0 + 0.6 / 2.0);
    }

    #[test]
    fn percentiles_of_known_population() {
        let p = Percentiles::of((1..=100).map(|i| i as f64));
        assert_eq!(p.p50, 50.0);
        assert_eq!(p.p95, 95.0);
        assert_eq!(p.p99, 99.0);
        assert_eq!(p.mean, 50.5);
    }

    #[test]
    fn percentiles_of_singleton_and_empty() {
        let p = Percentiles::of([7.0]);
        assert_eq!((p.p50, p.p95, p.p99, p.mean), (7.0, 7.0, 7.0, 7.0));
        assert_eq!(Percentiles::of([]), Percentiles::default());
    }

    #[test]
    fn render_mentions_key_metrics() {
        let r = ServingReport {
            completed: vec![],
            dropped: vec![],
            offered: 0,
            makespan_ms: 12.5,
            ttft_ms: Percentiles::default(),
            tpot_ms: Percentiles::default(),
            queue_ms: Percentiles::default(),
            timed_out_latency_ms: Percentiles::default(),
            goodput_tokens_per_s: 42.0,
            throughput_tokens_per_s: 42.0,
            mme_utilization: 0.5,
            tpc_utilization: 0.25,
            dma_utilization: 0.1,
            nic_utilization: 0.05,
            decode_steps: 3,
            prefills: 2,
            backpressure_stalls: 1,
            max_queue_depth: 4,
            peak_queued_tokens: 96,
            kv_peak_bytes: 1 << 30,
            kv_capacity_bytes: 32 << 30,
            kv_block_utilization: 0.5,
            compiled_graphs: 5,
            recipe_compiles: 5,
            preemptions: 0,
            peak_running: 3,
            scheduled_tokens: 128,
            padded_tokens: 32,
            devices: 1,
            retries: 0,
            requeued_tokens: 0,
            checkpoint_bytes: 0,
            restore_ms: 0.0,
            recovered_tokens: 0,
            failed_replicas: 0,
            restarts: 0,
            replica_uptime_ms: vec![12.5],
            trace: Trace::new(),
        };
        let text = r.render();
        assert!(text.contains("ttft"));
        assert!(text.contains("42.0"));
        assert!(text.contains("32 GiB"));
        assert!(text.contains("NIC utilization"));
        assert!(text.contains("peak queued tokens"));
        assert!(text.contains("recipe compiles"));
        assert!(text.contains("peak decode batch"));
        assert!(text.contains("padding waste"));
        assert!((r.padding_waste() - 0.25).abs() < 1e-12);
        assert!(
            !text.contains("KV preemptions"),
            "preemption row hidden when contiguous admission never preempts"
        );
        assert!(
            !text.contains("failed replicas"),
            "fault rows hidden in fault-free reports"
        );
        assert!(
            !text.contains("shed (rejected)"),
            "overload rows hidden when nothing dropped"
        );

        let faulted = ServingReport {
            retries: 3,
            requeued_tokens: 17,
            failed_replicas: 1,
            replica_uptime_ms: vec![6.25, 12.5],
            devices: 2,
            ..r.clone()
        };
        let text = faulted.render();
        assert!(text.contains("failed replicas"));
        assert!(text.contains("requeued tokens"));
        assert_eq!(faulted.availability(), 0.75);
        assert!(
            !text.contains("checkpoint bytes"),
            "recovery rows hidden when nothing was checkpointed"
        );

        let checkpointed = ServingReport {
            checkpoint_bytes: 4096,
            restore_ms: 0.5,
            recovered_tokens: 12,
            ..r.clone()
        };
        let text = checkpointed.render();
        assert!(text.contains("checkpoint bytes"));
        assert!(text.contains("restore ms"));
        assert!(text.contains("recovered tokens"));

        let overloaded = ServingReport {
            offered: 3,
            completed: vec![RequestOutcome {
                id: 0,
                arrival_ms: 0.0,
                prompt_len: 8,
                output_len: 4,
                queue_ms: 0.0,
                ttft_ms: 1.0,
                retries: 0,
                finish_ms: 4.0,
                token_times_ms: vec![1.0, 2.0, 3.0, 4.0],
            }],
            dropped: vec![
                DroppedRequest {
                    id: 1,
                    arrival_ms: 0.0,
                    kind: DropKind::Rejected,
                    at_ms: 1.0,
                    retries: 0,
                    tokens_generated: 0,
                },
                DroppedRequest {
                    id: 2,
                    arrival_ms: 0.5,
                    kind: DropKind::TimedOut,
                    at_ms: 9.5,
                    retries: 0,
                    tokens_generated: 4,
                },
            ],
            ..r
        };
        assert_eq!(overloaded.shed(), 1);
        assert_eq!(overloaded.timed_out(), 1);
        assert_eq!(overloaded.failed(), 0);
        assert!((overloaded.goodput_fraction() - 1.0 / 3.0).abs() < 1e-12);
        let text = overloaded.render();
        assert!(text.contains("shed (rejected)"));
        assert!(text.contains("goodput fraction"));
        assert!(text.contains("timed-out e2e"));
    }
}
