//! Serving metrics: per-request outcomes and the aggregate report.

use crate::idhash::MixMap;
use gaudi_hw::DeviceId;
use gaudi_profiler::report::TextTable;
use gaudi_profiler::Trace;
use std::sync::{Mutex, PoisonError};

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

    /// Summarize a population given as `(value, count)` pairs in any
    /// order: bit for bit what [`of`](Self::of) returns for the samples
    /// spelled out, in memory that grows with the number of pairs, not of
    /// samples. Only the sort is per pair; the mean still adds every
    /// sample, in order. A value may appear in several pairs.
    pub fn of_counts(counts: impl IntoIterator<Item = (f64, usize)>) -> Self {
        let mut runs: Vec<(u64, usize)> =
            counts.into_iter().map(|(v, c)| (order_key(v), c)).collect();
        runs.sort_unstable();
        let n = runs.iter().map(|&(_, c)| c).sum();
        Self::of_runs(n, runs.into_iter())
    }

    /// [`of`](Self::of), collecting the samples' [`order_key`]s into
    /// `keys` (cleared first) and sorting them there, so one buffer serves
    /// several populations. Integers sort faster than `f64::total_cmp`
    /// compares, into the same order.
    fn of_in(keys: &mut Vec<u64>, values: impl IntoIterator<Item = f64>) -> Self {
        keys.clear();
        keys.extend(values.into_iter().map(order_key));
        keys.sort_unstable();
        Self::of_runs(keys.len(), keys.iter().map(|&k| (k, 1)))
    }

    /// Summarize `n` samples given as ascending `(order key, count)` runs.
    /// The mean is the in-order sum of the expanded samples, so equal
    /// samples are added one by one, exactly as a sorted sample vector
    /// would add them.
    fn of_runs(n: usize, runs: impl Iterator<Item = (u64, usize)>) -> Self {
        if n == 0 {
            return Percentiles::default();
        }
        let rank = |p: f64| ((p * n as f64).ceil() as usize).clamp(1, n) - 1;
        let ranks = [rank(0.50), rank(0.95), rank(0.99)];
        let mut picked = [0.0; 3];
        let mut seen = 0;
        let sum: f64 = runs
            .map(|(k, c)| (from_order_key(k), c))
            .inspect(|&(v, c)| {
                // The key order puts a NaN past ±inf instead of failing;
                // a NaN latency is a bug upstream.
                assert!(!v.is_nan(), "latencies are finite");
                for (slot, &r) in picked.iter_mut().zip(&ranks) {
                    if (seen..seen + c).contains(&r) {
                        *slot = v;
                    }
                }
                seen += c;
            })
            .flat_map(|(v, c)| std::iter::repeat_n(v, c))
            .sum();
        let [p50, p95, p99] = picked;
        Percentiles {
            p50,
            p95,
            p99,
            mean: sum / n as f64,
        }
    }
}

/// A `u64` whose unsigned order is `f64::total_cmp`'s order of `x`:
/// negative values have every bit flipped, the rest only the sign bit.
fn order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The inverse of [`order_key`].
fn from_order_key(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    })
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
    /// Shed at admission: the queue was at its depth bound when the
    /// request arrived (overload protection, never a silent drop).
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
#[derive(Debug, Clone, Default)]
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
    /// tokens (mean over cards). Contiguous admission wastes the
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
    /// recipe table.
    pub restarts: usize,
    /// Per-card up-time, ms, indexed by device: the time before the card
    /// last went down (the makespan, if it ended the run up) minus the
    /// down windows it came back from. A card that merely went idle early
    /// is not counted as down.
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

    /// Requests shed at admission (queue depth bound hit).
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

    /// Mean fraction of the makespan the cards were alive: `1.0` in
    /// fault-free runs, lower when cards died mid-run. A card that
    /// restarts accrues up-time on both sides of its down window.
    pub fn availability(&self) -> f64 {
        availability(&self.replica_uptime_ms, self.makespan_ms)
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

/// One card's down time: the raw input of its up-time.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CardTime {
    /// Down windows the card served and came back from, ms.
    pub(crate) down_ms: f64,
    /// When the card went down, if it ended the run dead, ms.
    pub(crate) died_at_ms: Option<f64>,
}

impl CardTime {
    /// Up-time against a run of `makespan_ms`: a card that ended the run
    /// up (or merely went idle early) stays up through the makespan.
    fn uptime_ms(&self, makespan_ms: f64) -> f64 {
        (self.died_at_ms.unwrap_or(makespan_ms) - self.down_ms).max(0.0)
    }
}

/// A run not yet summarized: a [`ServingReport`] holding only counters,
/// the counts its records give, and the raw inputs the gauges need. The
/// records themselves are already in the call's [`Records`], placed there
/// by each card's [`CardRecords`]. [`absorb`](Self::absorb) is the one
/// merge (replicas into a box, boxes into a cluster), and
/// [`finish`](Self::finish) the one derivation, run once where a public
/// call returns a report.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    /// Counters, `offered` and `retries` among them. The records, latency
    /// summaries, token rates, gauges and up-times stay empty or zero until
    /// [`finish`](Self::finish).
    pub(crate) report: ServingReport,
    /// Requests that completed within every SLO.
    pub(crate) completed: usize,
    /// Their output tokens: the goodput numerator.
    pub(crate) completed_tokens: usize,
    /// MME, TPC, DMA and NIC busy time summed over cards, ns.
    pub(crate) busy_ns: [f64; 4],
    /// Per-card `kv_block_utilization`, summed over cards.
    pub(crate) kv_block_utilization: f64,
    /// One entry per card, in device order.
    pub(crate) cards: Vec<CardTime>,
}

impl Tally {
    /// Fold `part` in after the parts already absorbed: counters summed,
    /// peaks maxed, cards appended, and `part`'s trace events moved past
    /// the devices already absorbed.
    pub(crate) fn absorb(&mut self, part: Tally) {
        let (r, p) = (&mut self.report, part.report);
        for ev in p.trace.events() {
            let mut ev = ev.clone();
            ev.device = DeviceId(ev.device.0 + r.devices);
            r.trace.push(ev);
        }
        r.offered += p.offered;
        r.makespan_ms = r.makespan_ms.max(p.makespan_ms);
        r.decode_steps += p.decode_steps;
        r.prefills += p.prefills;
        r.backpressure_stalls += p.backpressure_stalls;
        r.max_queue_depth = r.max_queue_depth.max(p.max_queue_depth);
        r.peak_queued_tokens = r.peak_queued_tokens.max(p.peak_queued_tokens);
        r.kv_peak_bytes = r.kv_peak_bytes.max(p.kv_peak_bytes);
        r.kv_capacity_bytes = r.kv_capacity_bytes.max(p.kv_capacity_bytes);
        r.compiled_graphs += p.compiled_graphs;
        r.recipe_compiles += p.recipe_compiles;
        r.preemptions += p.preemptions;
        // Summed, not max'd: the aggregate decode capacity the stream
        // reached (per-card peaks need not be simultaneous).
        r.peak_running += p.peak_running;
        r.scheduled_tokens += p.scheduled_tokens;
        r.padded_tokens += p.padded_tokens;
        r.devices += p.devices;
        r.retries += p.retries;
        r.requeued_tokens += p.requeued_tokens;
        r.checkpoint_bytes += p.checkpoint_bytes;
        r.restore_ms += p.restore_ms;
        r.recovered_tokens += p.recovered_tokens;
        r.failed_replicas += p.failed_replicas;
        r.restarts += p.restarts;
        self.completed += part.completed;
        self.completed_tokens += part.completed_tokens;
        for (sum, ns) in self.busy_ns.iter_mut().zip(part.busy_ns) {
            *sum += ns;
        }
        self.kv_block_utilization += part.kv_block_utilization;
        self.cards.extend(part.cards);
    }

    /// Tokens per second of this tally's makespan.
    fn per_s(&self, tokens: usize) -> f64 {
        let makespan_ms = self.report.makespan_ms;
        if makespan_ms > 0.0 {
            tokens as f64 / (makespan_ms / 1e3)
        } else {
            0.0
        }
    }

    /// Goodput against this tally's own makespan, tokens/s.
    pub(crate) fn goodput_tokens_per_s(&self) -> f64 {
        self.per_s(self.completed_tokens)
    }

    fn uptimes_ms(&self) -> Vec<f64> {
        let makespan_ms = self.report.makespan_ms;
        self.cards
            .iter()
            .map(|c| c.uptime_ms(makespan_ms))
            .collect()
    }

    /// Card availability against this tally's own makespan (see
    /// [`ServingReport::availability`]).
    pub(crate) fn availability(&self) -> f64 {
        availability(&self.uptimes_ms(), self.report.makespan_ms)
    }

    /// Summarize: the records `records` holds, in id order, latency
    /// percentiles over them, token rates over the makespan, each engine's
    /// utilization as its busy time over `makespan × devices`, the mean
    /// per-card KV gauge, and every card's up-time.
    pub(crate) fn finish(self, records: Records) -> ServingReport {
        let (completed, dropped) = records.into_lists();
        debug_assert_eq!(completed.len(), self.completed, "every card flushed");
        let wasted: usize = dropped.iter().map(|d| d.tokens_generated).sum();
        let goodput = self.completed_tokens;
        let rates = [goodput, goodput + wasted].map(|tokens| self.per_s(tokens));
        let uptimes_ms = self.uptimes_ms();
        let Tally {
            mut report,
            busy_ns,
            kv_block_utilization,
            ..
        } = self;
        let r = &mut report;
        r.completed = completed;
        r.dropped = dropped;
        let completed = &r.completed;
        // One key buffer sized for the largest sorted population.
        let mut keys = Vec::with_capacity(completed.len().max(r.dropped.len()));
        r.ttft_ms = Percentiles::of_in(&mut keys, completed.iter().map(|o| o.ttft_ms));
        r.queue_ms = Percentiles::of_in(&mut keys, completed.iter().map(|o| o.queue_ms));
        r.timed_out_latency_ms = Percentiles::of_in(
            &mut keys,
            r.dropped
                .iter()
                .filter(|d| d.kind == DropKind::TimedOut)
                .map(|d| d.at_ms - d.arrival_ms),
        );
        // Inter-token gaps sit on decode-step durations: thousands of
        // distinct values among millions of gaps, so they are counted, not
        // sorted.
        let mut gaps: MixMap<usize> = MixMap::default();
        for o in completed {
            for w in o.token_times_ms.windows(2) {
                *gaps.entry((w[1] - w[0]).to_bits()).or_default() += 1;
            }
        }
        r.tpot_ms = Percentiles::of_counts(gaps.into_iter().map(|(b, c)| (f64::from_bits(b), c)));
        [r.goodput_tokens_per_s, r.throughput_tokens_per_s] = rates;
        let devices = r.devices as f64;
        let span_ns = r.makespan_ms * 1e6 * devices;
        [
            r.mme_utilization,
            r.tpc_utilization,
            r.dma_utilization,
            r.nic_utilization,
        ] = busy_ns.map(|ns| if span_ns > 0.0 { ns / span_ns } else { 0.0 });
        r.kv_block_utilization = if devices > 0.0 {
            kv_block_utilization / devices
        } else {
            0.0
        };
        r.replica_uptime_ms = uptimes_ms;
        report
    }
}

/// Where a public call's records land: each request's rank in the id
/// order of the stream the call simulates.
#[derive(Debug)]
pub(crate) enum Ranks {
    /// `len` ids from `first` on, so the rank is `id - first`. Every
    /// [`generate_requests`](crate::generate_requests) stream is one.
    Range {
        /// The lowest id.
        first: u64,
        /// Requests in the stream.
        len: usize,
    },
    /// Any other distinct ids, ascending: the rank is the id's index.
    Sorted(Vec<u64>),
}

impl Ranks {
    /// The ranks of a stream's distinct ids, given in ascending order.
    pub(crate) fn of_sorted(ids: Vec<u64>) -> Ranks {
        let (first, len) = (ids.first().map_or(0, |&id| id), ids.len());
        if ids
            .last()
            .is_some_and(|&last| last - first != len as u64 - 1)
        {
            Ranks::Sorted(ids)
        } else {
            Ranks::Range { first, len }
        }
    }

    fn len(&self) -> usize {
        match self {
            Ranks::Range { len, .. } => *len,
            Ranks::Sorted(ids) => ids.len(),
        }
    }

    fn of(&self, id: u64) -> usize {
        match self {
            Ranks::Range { first, .. } => (id - first) as usize,
            Ranks::Sorted(ids) => ids.partition_point(|&x| x < id),
        }
    }
}

/// One request's record, whichever way it terminated. Niche filling keeps
/// `Option<Record>` at the size of a [`RequestOutcome`], so one slot
/// vector holds both kinds at no extra cost.
#[derive(Debug)]
enum Record {
    Completed(RequestOutcome),
    Dropped(DroppedRequest),
}

/// The records of one public call, each moved once, straight into the
/// slot of its request's [`Ranks`] rank: they end in id order with no sort
/// and no second copy of the record set. Allocated before the call
/// simulates; its cards place their records here in batches
/// ([`CardRecords`]) as they run.
#[derive(Debug)]
pub(crate) struct Records {
    ranks: Ranks,
    slots: Vec<Option<Record>>,
    /// Drop records placed so far, so their list is allocated once, at its
    /// final size.
    dropped: usize,
}

impl Records {
    /// One empty slot per request of the stream `ranks` orders.
    pub(crate) fn new(ranks: Ranks) -> Self {
        let mut slots = Vec::new();
        slots.resize_with(ranks.len(), || None);
        Records {
            ranks,
            slots,
            dropped: 0,
        }
    }

    /// Move every record of a batch into its slot, leaving the batch
    /// empty. Placement is order-free, so batches from any card in any
    /// order give the same slots.
    fn place(&mut self, completed: &mut Vec<RequestOutcome>, dropped: &mut Vec<DroppedRequest>) {
        for o in completed.drain(..) {
            self.put(o.id, Record::Completed(o));
        }
        self.dropped += dropped.len();
        for d in dropped.drain(..) {
            self.put(d.id, Record::Dropped(d));
        }
    }

    fn put(&mut self, id: u64, record: Record) {
        let slot = &mut self.slots[self.ranks.of(id)];
        debug_assert!(slot.is_none(), "request {id} has one record");
        *slot = Some(record);
    }

    /// The report's two record lists, each in id order. The completed list
    /// reuses the slot buffer in place.
    fn into_lists(self) -> (Vec<RequestOutcome>, Vec<DroppedRequest>) {
        let mut dropped = Vec::with_capacity(self.dropped);
        let completed = self
            .slots
            .into_iter()
            .filter_map(|slot| match slot? {
                Record::Completed(o) => Some(o),
                Record::Dropped(d) => {
                    dropped.push(d);
                    None
                }
            })
            .collect();
        (completed, dropped)
    }
}

/// Records a card files before it places them in the call's [`Records`].
/// Large enough that the lock is taken rarely, small enough that the
/// per-card runs never approach the slot array's own size.
const RECORD_BATCH: usize = 4096;

/// One card's terminal records on their way to the call's [`Records`]: it
/// holds at most one batch, places the batch under the lock once it is
/// full and when the card is done ([`flush`](Self::flush)), and counts
/// what the card's [`Tally`] keeps of them.
#[derive(Debug)]
pub(crate) struct CardRecords<'a> {
    records: &'a Mutex<Records>,
    completed: Vec<RequestOutcome>,
    dropped: Vec<DroppedRequest>,
    /// Records filed, of either kind.
    pub(crate) filed: usize,
    /// Retries of the filed requests, summed.
    pub(crate) retries: usize,
    /// Completed records filed, and their output tokens.
    pub(crate) completed_count: usize,
    pub(crate) completed_tokens: usize,
}

impl<'a> CardRecords<'a> {
    /// A card filing into `records`.
    pub(crate) fn new(records: &'a Mutex<Records>) -> Self {
        CardRecords {
            records,
            completed: Vec::new(),
            dropped: Vec::new(),
            filed: 0,
            retries: 0,
            completed_count: 0,
            completed_tokens: 0,
        }
    }

    /// File a request that completed within every SLO.
    pub(crate) fn file_completed(&mut self, o: RequestOutcome) {
        self.completed_count += 1;
        self.completed_tokens += o.output_len;
        self.retries += o.retries as usize;
        self.completed.push(o);
        self.filed();
    }

    /// File a request that terminated without completing.
    pub(crate) fn file_dropped(&mut self, d: DroppedRequest) {
        self.retries += d.retries as usize;
        self.dropped.push(d);
        self.filed();
    }

    fn filed(&mut self) {
        self.filed += 1;
        if self.completed.len() + self.dropped.len() >= RECORD_BATCH {
            self.flush();
        }
    }

    /// Place every record held so far. A lock a panicking card poisoned
    /// is taken anyway: the pool re-raises that panic, so no report is
    /// ever built from these slots.
    pub(crate) fn flush(&mut self) {
        self.records
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .place(&mut self.completed, &mut self.dropped);
    }
}

/// Mean over cards of the fraction of `makespan_ms` each was alive
/// (`1.0` for no cards or an empty run). Averaging per-card fractions
/// keeps a run in which every card stayed up at exactly `1.0`.
fn availability(uptime_ms: &[f64], makespan_ms: f64) -> f64 {
    if uptime_ms.is_empty() || makespan_ms <= 0.0 {
        return 1.0;
    }
    let up: f64 = uptime_ms
        .iter()
        .map(|&u| u.min(makespan_ms) / makespan_ms)
        .sum();
    up / uptime_ms.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate_records, simulate_trace_with, ExecPolicy, ServingConfig};
    use crate::request::{generate_requests, TrafficConfig};
    use gaudi_models::LlmConfig;
    use gaudi_tensor::DType;
    use proptest::prelude::*;

    /// A tally of `devices` cards, each at `kv_block_utilization`, over a
    /// 10 ms makespan; everything else is zero/empty.
    fn tally(devices: usize, kv_block_utilization: f64) -> Tally {
        Tally {
            report: ServingReport {
                makespan_ms: 10.0,
                devices,
                ..ServingReport::default()
            },
            kv_block_utilization: kv_block_utilization * devices as f64,
            cards: vec![CardTime::default(); devices],
            ..Tally::default()
        }
    }

    #[test]
    fn absorb_weights_block_utilization_by_part_width() {
        // Regression: two tp=2 replicas on a 4-card box. Dividing each
        // replica's gauge by 4 *without* its 2-card weight reported
        // (0.9 + 0.6) / 4 = 0.375 for a box whose cards sit at a true
        // mean of (0.9*2 + 0.6*2) / 4 = 0.75.
        let mut merged = tally(2, 0.9);
        merged.absorb(tally(2, 0.6));
        let merged = merged.finish(Records::new(Ranks::of_sorted(Vec::new())));
        assert_eq!(merged.devices, 4);
        assert!(
            (merged.kv_block_utilization - 0.75).abs() < 1e-12,
            "device-weighted mean, got {}",
            merged.kv_block_utilization
        );
        assert_eq!(merged.replica_uptime_ms, vec![10.0; 4]);
        assert_eq!(merged.availability(), 1.0);
    }

    fn outcome(id: u64) -> RequestOutcome {
        RequestOutcome {
            id,
            arrival_ms: 0.0,
            prompt_len: 1,
            output_len: 2,
            queue_ms: 0.0,
            ttft_ms: 1.0,
            retries: 0,
            finish_ms: 2.0,
            token_times_ms: vec![1.0, 2.0],
        }
    }

    fn drop_record(id: u64) -> DroppedRequest {
        DroppedRequest {
            id,
            arrival_ms: 0.0,
            kind: DropKind::Rejected,
            at_ms: 0.0,
            retries: 0,
            tokens_generated: 0,
        }
    }

    #[test]
    fn one_slot_holds_either_record_kind_at_the_size_of_an_outcome() {
        assert_eq!(
            std::mem::size_of::<Option<Record>>(),
            std::mem::size_of::<RequestOutcome>()
        );
    }

    #[test]
    fn records_land_in_id_order_at_their_rank() {
        // Two cards' batches in completion order, over ids that are a
        // range not starting at 0, and over sparse ids.
        for ids in [
            (100..110).collect::<Vec<u64>>(),
            (0..10).map(|k| 7 * k + 3).collect(),
        ] {
            let ranks = Ranks::of_sorted(ids.clone());
            assert_eq!(matches!(ranks, Ranks::Range { .. }), ids[0] == 100);
            let mut records = Records::new(ranks);
            let slots = records.slots.as_ptr() as usize;
            let cards = [([9, 1, 4], vec![7, 3]), ([6, 0, 8], vec![5, 2])];
            for (completed, dropped) in cards {
                let mut completed = completed.map(|i| outcome(ids[i])).to_vec();
                let mut dropped = dropped.iter().map(|&i| drop_record(ids[i])).collect();
                records.place(&mut completed, &mut dropped);
                assert!(completed.is_empty() && dropped.is_empty());
            }
            let (completed, dropped) = records.into_lists();
            let of = |idx: &[usize]| idx.iter().map(|&i| ids[i]).collect::<Vec<_>>();
            assert_eq!(
                completed.iter().map(|o| o.id).collect::<Vec<_>>(),
                of(&[0, 1, 4, 6, 8, 9])
            );
            assert_eq!(
                dropped.iter().map(|d| d.id).collect::<Vec<_>>(),
                of(&[2, 3, 5, 7])
            );
            assert_eq!(completed.as_ptr() as usize, slots, "compacted in place");
        }
    }

    #[test]
    fn a_card_holds_at_most_one_batch_and_counts_what_it_files() {
        // Two and a half batches of alternating kinds through one card:
        // the card never holds a full batch after filing, every record
        // reaches its slot, and the counts cover every record.
        let n = 2 * RECORD_BATCH + RECORD_BATCH / 2;
        let records = Mutex::new(Records::new(Ranks::Range { first: 0, len: n }));
        let mut card = CardRecords::new(&records);
        for id in 0..n as u64 {
            if id % 2 == 0 {
                card.file_completed(RequestOutcome {
                    retries: 1,
                    ..outcome(id)
                });
            } else {
                card.file_dropped(drop_record(id));
            }
            let held = card.completed.len() + card.dropped.len();
            assert!(held < RECORD_BATCH, "{held} records held after filing {id}");
            assert_eq!(held, (id as usize + 1) % RECORD_BATCH);
        }
        card.flush();
        assert!(card.completed.is_empty() && card.dropped.is_empty());
        assert_eq!((card.filed, card.retries), (n, n.div_ceil(2)));
        assert_eq!(
            (card.completed_count, card.completed_tokens),
            (n.div_ceil(2), 2 * n.div_ceil(2))
        );
        let (completed, dropped) = records.into_inner().unwrap().into_lists();
        assert_eq!((completed.len(), dropped.len()), (n.div_ceil(2), n / 2));
        assert!(completed.iter().all(|o| o.id % 2 == 0));
        assert!(completed.windows(2).all(|w| w[0].id < w[1].id));
    }

    /// One box of the fold proptest: one card, tiny decoder, light load.
    fn box_config(seed: u64, num_requests: usize) -> ServingConfig {
        let mut model = LlmConfig::tiny(97);
        model.training = false;
        ServingConfig::builder()
            .model(model)
            .traffic(TrafficConfig {
                arrival_rate_per_s: 200.0,
                num_requests,
                prompt_range: (4, 24),
                output_range: (2, 12),
                zipf_s: 1.1,
                seed,
            })
            .max_batch(4)
            .ctx_bucket(16)
            .kv_dtype(DType::F32)
            .build()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Folding boxes into a cluster conserves work, and the pooled
        /// latency percentiles are derived from the pooled per-request
        /// samples — not averaged from per-box percentiles.
        #[test]
        fn absorbed_boxes_conserve_work_and_pool_percentile_samples(
            seed in 0u64..1_000_000,
            num_requests in 4usize..40,
            boxes in 2usize..5,
        ) {
            let cfg = box_config(seed, num_requests);
            let policy = ExecPolicy::default();
            let mut requests = generate_requests(&cfg.traffic);
            requests.sort_by_key(|r| (r.arrival_us, r.id));
            let mut merged = Tally::default();
            let records = Mutex::new(Records::new(Ranks::Range { first: 0, len: num_requests }));
            let mut parts = Vec::new();
            for b in 0..boxes {
                let shard: Vec<_> = requests
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % boxes == b)
                    .map(|(_, r)| r.clone())
                    .collect();
                parts.push(simulate_trace_with(&cfg, shard.clone(), &policy).unwrap());
                merged.absorb(simulate_records(&cfg, shard, &policy, &records).unwrap());
            }
            let merged = merged.finish(records.into_inner().unwrap());

            prop_assert_eq!(merged.devices, boxes);
            prop_assert_eq!(merged.offered, num_requests);
            prop_assert_eq!(
                merged.completed.len(),
                parts.iter().map(|p| p.completed.len()).sum::<usize>());

            // Busy-time conservation, device-weighted.
            let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1e-12);
            let merged_busy = merged.mme_utilization * merged.makespan_ms * boxes as f64;
            let part_busy: f64 = parts
                .iter()
                .map(|p| p.mme_utilization * p.makespan_ms * p.devices as f64)
                .sum();
            prop_assert!(close(merged_busy, part_busy),
                "mme busy not conserved: merged {} vs parts {}", merged_busy, part_busy);

            // Percentiles come from the pooled samples, bit-for-bit.
            let pooled_ttft = Percentiles::of(merged.completed.iter().map(|o| o.ttft_ms));
            prop_assert_eq!(&merged.ttft_ms, &pooled_ttft);
            let pooled_tpot = Percentiles::of(merged.completed.iter().flat_map(|o| {
                o.token_times_ms.windows(2).map(|w| w[1] - w[0]).collect::<Vec<_>>()
            }));
            prop_assert_eq!(&merged.tpot_ms, &pooled_tpot);
            // And NOT from averaging per-box percentiles (they differ unless
            // every box saw identical latency tails).
            let averaged_p99: f64 =
                parts.iter().map(|p| p.ttft_ms.p99).sum::<f64>() / boxes as f64;
            let max_p99 = parts.iter().map(|p| p.ttft_ms.p99).fold(0.0, f64::max);
            prop_assert!(merged.ttft_ms.p99 >= averaged_p99 - 1e-9,
                "pooled p99 {} must dominate the per-box average {}",
                merged.ttft_ms.p99, averaged_p99);
            prop_assert!(merged.ttft_ms.p99 <= max_p99 + 1e-9);
        }
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
