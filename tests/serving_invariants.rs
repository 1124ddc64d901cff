//! Property tests on the serving simulator: for randomized traffic and
//! device sizes, the KV accountant must never exceed HBM capacity, the
//! continuous-batching scheduler must complete every request with its
//! tokens in order, and identical seeds must reproduce identical reports.

use gaudi_hw::DeviceId;
use gaudi_hw::GaudiConfig;
use gaudi_models::LlmConfig;
use gaudi_serving::{
    generate_requests, simulate, simulate_cluster, simulate_trace, ClusterConfig, DropKind,
    EventCalendar, FaultPlan, KvAdmissionConfig, Percentiles, Request, RobustnessConfig,
    ServingConfig, ServingError, TrafficConfig,
};
use gaudi_tensor::DType;
use proptest::prelude::*;

/// A small but non-degenerate serving config from fuzzed knobs.
fn config(
    seed: u64,
    rate_idx: u8,
    num_requests: usize,
    max_batch: usize,
    kv_head_room_tokens: u64,
) -> ServingConfig {
    let mut model = LlmConfig::tiny(97);
    model.training = false;
    let traffic = TrafficConfig {
        arrival_rate_per_s: [2.0, 20.0, 200.0][rate_idx as usize % 3],
        num_requests,
        prompt_range: (4, 24),
        output_range: (2, 12),
        zipf_s: 1.1,
        seed,
    };
    let mut hw = GaudiConfig::hls1();
    // Shrink the device so KV pressure is realistic: room for the weights
    // plus a fuzzed number of tokens (always >= one worst-case request).
    let max_request = 24 + 12;
    let admission = KvAdmissionConfig::default();
    let weights = admission.weight_bytes(&model, max_request, DType::F32);
    let per_tok = admission.kv_bytes_per_token(&model, DType::F32);
    hw.memory.hbm_capacity_bytes = weights + per_tok * (max_request as u64 + kv_head_room_tokens);
    ServingConfig::builder()
        .model(model)
        .traffic(traffic)
        .max_batch(max_batch)
        .ctx_bucket(16)
        .kv_dtype(DType::F32)
        .hw(hw)
        .devices(1)
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The KV accountant admits only what fits: the HBM high-water mark
    /// stays within capacity no matter how tight the device or bursty the
    /// traffic.
    #[test]
    fn kv_never_exceeds_hbm_capacity(
        seed in 0u64..1_000_000,
        rate_idx in 0u8..3,
        num_requests in 1usize..40,
        max_batch in 1usize..8,
        head_room in 0u64..200,
    ) {
        let cfg = config(seed, rate_idx, num_requests, max_batch, head_room);
        let report = simulate(&cfg).unwrap();
        prop_assert!(report.kv_peak_bytes <= report.kv_capacity_bytes,
            "peak {} exceeds capacity {}", report.kv_peak_bytes, report.kv_capacity_bytes);
    }

    /// Continuous batching completes every admitted request exactly once,
    /// with per-request token timestamps strictly increasing (admission and
    /// eviction at step boundaries never reorder a request's tokens).
    #[test]
    fn every_request_completes_with_tokens_in_order(
        seed in 0u64..1_000_000,
        rate_idx in 0u8..3,
        num_requests in 1usize..40,
        max_batch in 1usize..8,
        head_room in 0u64..200,
    ) {
        let cfg = config(seed, rate_idx, num_requests, max_batch, head_room);
        let report = simulate(&cfg).unwrap();
        prop_assert_eq!(report.completed.len(), num_requests);
        for (i, o) in report.completed.iter().enumerate() {
            prop_assert_eq!(o.id, i as u64);
            prop_assert_eq!(o.token_times_ms.len(), o.output_len);
            prop_assert!(o.ttft_ms > 0.0);
            for w in o.token_times_ms.windows(2) {
                prop_assert!(w[0] < w[1],
                    "request {} emitted tokens out of order", o.id);
            }
        }
    }

    /// Merging data-parallel replicas conserves the work: the merged report
    /// accounts for exactly the requests, generated tokens, and engine busy
    /// time of its per-replica parts — nothing double-counted, nothing
    /// dropped.
    #[test]
    fn merged_replicas_conserve_requests_tokens_and_busy_time(
        seed in 0u64..1_000_000,
        rate_idx in 0u8..3,
        num_requests in 2usize..30,
        max_batch in 1usize..8,
        devices in 2usize..5,
    ) {
        let mut cfg = config(seed, rate_idx, num_requests, max_batch, 500);
        cfg.devices = devices;
        let mut requests = generate_requests(&cfg.traffic);
        requests.sort_by_key(|r| (r.arrival_us, r.id));
        let merged = simulate_trace(&cfg, requests.clone()).unwrap();

        // Re-run each round-robin shard on its own single-card config.
        let mut single = cfg;
        single.devices = 1;
        let mut parts = Vec::new();
        for d in 0..devices {
            let shard: Vec<_> = requests
                .iter()
                .enumerate()
                .filter(|(i, _)| i % devices == d)
                .map(|(_, r)| r.clone())
                .collect();
            parts.push(simulate_trace(&single, shard).unwrap());
        }

        // Request and token conservation.
        let part_requests: usize = parts.iter().map(|p| p.completed.len()).sum();
        prop_assert_eq!(merged.completed.len(), part_requests);
        prop_assert_eq!(merged.completed.len(), num_requests);
        let tokens = |r: &gaudi_serving::ServingReport| -> usize {
            r.completed.iter().map(|o| o.output_len).sum()
        };
        let part_tokens: usize = parts.iter().map(tokens).sum();
        prop_assert_eq!(tokens(&merged), part_tokens);

        // Busy-time conservation per engine: utilization x span x devices on
        // the merged side must equal the sum of per-replica busy times.
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1e-12);
        for (name, get) in [
            ("mme", (|r| r.mme_utilization) as fn(&gaudi_serving::ServingReport) -> f64),
            ("tpc", |r| r.tpc_utilization),
            ("dma", |r| r.dma_utilization),
            ("nic", |r| r.nic_utilization),
        ] {
            let merged_busy = get(&merged) * merged.makespan_ms * devices as f64;
            let part_busy: f64 = parts.iter().map(|p| get(p) * p.makespan_ms).sum();
            prop_assert!(close(merged_busy, part_busy),
                "{} busy time not conserved: merged {} vs parts {}",
                name, merged_busy, part_busy);
        }

        // Counters the merge simply sums.
        prop_assert_eq!(merged.decode_steps, parts.iter().map(|p| p.decode_steps).sum::<usize>());
        prop_assert_eq!(merged.prefills, parts.iter().map(|p| p.prefills).sum::<usize>());
    }

    /// The simulation is a pure function of its configuration: identical
    /// seeds give bit-identical reports, different seeds give different
    /// traffic.
    #[test]
    fn identical_seeds_reproduce_identical_reports(
        seed in 0u64..1_000_000,
        rate_idx in 0u8..3,
        num_requests in 2usize..30,
        max_batch in 1usize..8,
    ) {
        let cfg = config(seed, rate_idx, num_requests, max_batch, 500);
        let a = simulate(&cfg).unwrap();
        let b = simulate(&cfg).unwrap();
        prop_assert_eq!(a.makespan_ms, b.makespan_ms);
        prop_assert_eq!(a.goodput_tokens_per_s, b.goodput_tokens_per_s);
        prop_assert_eq!(a.decode_steps, b.decode_steps);
        prop_assert_eq!(a.backpressure_stalls, b.backpressure_stalls);
        prop_assert_eq!(&a.ttft_ms, &b.ttft_ms);
        prop_assert_eq!(&a.tpot_ms, &b.tpot_ms);
        prop_assert_eq!(a.completed.len(), b.completed.len());
        for (x, y) in a.completed.iter().zip(b.completed.iter()) {
            prop_assert_eq!(x, y);
        }
    }

    /// Overload protection conserves requests: every offered request
    /// terminates exactly once, as completed, rejected, timed out, or
    /// failed — no matter how tight the queue bound, how short the
    /// deadlines, or how small the retry budget.
    #[test]
    fn outcomes_conserve_offered_requests(
        seed in 0u64..1_000_000,
        num_requests in 1usize..40,
        max_batch in 1usize..8,
        queue_depth in 1usize..6,
        ttft_deadline in 1.0f64..20.0,
        deadline in 5.0f64..100.0,
        retries in 0u32..4,
        kill_at in 1.0f64..40.0,
        down_for in 1.0f64..60.0,
    ) {
        // Burst arrivals (rate_idx 2 -> 200 req/s) against a killed-and-
        // restarted replica: shedding, SLO expiry, and retry exhaustion
        // all fire depending on the draw.
        let mut cfg = config(seed, 2, num_requests, max_batch, 500);
        cfg.devices = 2;
        cfg.faults = FaultPlan::none().kill_for(DeviceId(1), kill_at, down_for);
        cfg.robustness = RobustnessConfig::default()
            .queue_depth(queue_depth)
            .ttft_deadline(ttft_deadline)
            .deadline(deadline)
            .retries(retries)
            .backoff(1.0, 0.5, seed);
        let r = simulate(&cfg).unwrap();
        prop_assert_eq!(r.offered, num_requests);
        prop_assert_eq!(r.completed.len() + r.dropped.len(), r.offered,
            "every request must terminate exactly once");
        let by_kind = |k: DropKind| r.dropped.iter().filter(|d| d.kind == k).count();
        prop_assert_eq!(
            by_kind(DropKind::Rejected) + by_kind(DropKind::TimedOut) + by_kind(DropKind::Failed),
            r.dropped.len());
        prop_assert_eq!(r.shed(), by_kind(DropKind::Rejected));
        prop_assert_eq!(r.timed_out(), by_kind(DropKind::TimedOut));
        prop_assert_eq!(r.failed(), by_kind(DropKind::Failed));
        // Goodput counts completed tokens only; throughput adds the rest.
        prop_assert!(r.throughput_tokens_per_s >= r.goodput_tokens_per_s - 1e-9);
    }

    /// The backoff schedule is a pure function of (config, id, attempt):
    /// two independently built configs agree bit-for-bit, and each delay
    /// strictly exceeds the previous one (exponential growth dominates
    /// the bounded jitter stretch).
    #[test]
    fn backoff_schedule_is_deterministic_and_monotone(
        base in 0.1f64..10.0,
        jitter in 0.0f64..1.0,
        seed in 0u64..1_000_000,
        id in 0u64..1_000,
    ) {
        let a = RobustnessConfig::default().backoff(base, jitter, seed);
        let b = RobustnessConfig::default().backoff(base, jitter, seed);
        let mut prev = 0.0;
        for attempt in 1u32..10 {
            let d = a.backoff_delay_ms(id, attempt);
            prop_assert_eq!(d, b.backoff_delay_ms(id, attempt),
                "same (seed, id, attempt) must give the same delay");
            prop_assert!(d.is_finite() && d > prev,
                "attempt {} delay {} must exceed previous {}", attempt, d, prev);
            prev = d;
        }
    }

    /// Replica restarts never mint spare capacity: availability stays in
    /// [0, 1] however the kill and restart windows land, and with the
    /// unlimited retry policy recovery still completes every request.
    #[test]
    fn availability_stays_bounded_under_restarts(
        seed in 0u64..1_000_000,
        num_requests in 2usize..30,
        devices in 2usize..5,
        kill_at in 1.0f64..60.0,
        down_for in 1.0f64..80.0,
    ) {
        let mut cfg = config(seed, 2, num_requests, 4, 500);
        cfg.devices = devices;
        cfg.faults = FaultPlan::none().kill_for(DeviceId(devices - 1), kill_at, down_for);
        let r = simulate(&cfg).unwrap();
        let a = r.availability();
        prop_assert!((0.0..=1.0).contains(&a), "availability {} outside [0, 1]", a);
        prop_assert!(r.restarts <= 1);
        prop_assert_eq!(r.completed.len(), num_requests,
            "unlimited retries must complete everything despite the outage");
        prop_assert!(r.dropped.is_empty());
    }

    /// Paged-KV block conservation over leases: at every step of a random
    /// admit/restore/grow/release/drop interleaving, the free blocks plus
    /// the blocks every live lease holds equal the pool's capacity, no
    /// block outlives its lease, and the byte ledger stays within HBM. A
    /// restore that runs the pool dry midway gives back what it took.
    #[test]
    fn block_pool_conserves_blocks_under_random_ops(
        capacity_blocks in 1u32..48,
        block_tokens in 1usize..9,
        ops in proptest::collection::vec((0u8..5u8, 0usize..32), 1..200),
    ) {
        use gaudi_serving::{KvAdmission, KvLease, PagedKv};
        let weight_bytes = 7u64;
        let bytes_per_token = 3u64;
        let mut mem = GaudiConfig::hls1().memory;
        mem.hbm_capacity_bytes =
            weight_bytes + bytes_per_token * block_tokens as u64 * u64::from(capacity_blocks);
        let mut kv = PagedKv::new(&mem, weight_bytes, bytes_per_token, block_tokens).unwrap();
        let mut live: Vec<KvLease> = Vec::new();
        for (op, x) in ops {
            match op {
                0 => {
                    // Admit (prompt x): may legitimately fail on a dry pool.
                    if let Ok(lease) = kv.try_admit(x, 8) {
                        live.push(lease);
                    }
                }
                1 if !live.is_empty() => {
                    // Grow one live lease by a token; dry pools refuse and
                    // leave it as it was.
                    let n = live.len();
                    let lease = &mut live[x % n];
                    let before = (lease.tokens(), lease.held());
                    if kv.grow(lease).is_err() {
                        prop_assert_eq!((lease.tokens(), lease.held()), before);
                        prop_assert_eq!(kv.free_blocks(), 0);
                    }
                }
                2 | 3 if !live.is_empty() => {
                    // Release on completion (2) or drop mid-flight (3).
                    let n = live.len();
                    kv.release(live.swap_remove(x % n));
                }
                4 => {
                    // Restore prompt x at x generated tokens: all or
                    // nothing, whatever the pool has left.
                    let (free, allocated) = (kv.free_blocks(), kv.allocated());
                    match kv.try_restore(x, x + 2, x + 1) {
                        Ok(lease) => {
                            prop_assert_eq!(lease.tokens(), 2 * x + 1);
                            live.push(lease);
                        }
                        Err(_) => {
                            prop_assert_eq!(kv.free_blocks(), free, "a failed restore rolls back");
                            prop_assert_eq!(kv.allocated(), allocated);
                        }
                    }
                }
                _ => {}
            }
            let held: usize = live.iter().map(KvLease::held).sum();
            prop_assert_eq!(
                kv.free_blocks() + held,
                kv.capacity_blocks(),
                "block conservation violated");
            prop_assert!(kv.allocated() <= kv.capacity());
            prop_assert!(kv.peak() <= kv.capacity());
            if live.is_empty() {
                prop_assert_eq!(kv.free_blocks(), kv.capacity_blocks(),
                    "blocks must not outlive their leases");
                prop_assert_eq!(kv.allocated(), weight_bytes);
            }
        }
        for lease in live.drain(..) {
            kv.release(lease);
        }
        prop_assert_eq!(kv.free_blocks(), kv.capacity_blocks());
        prop_assert_eq!(kv.allocated(), weight_bytes);
    }

    /// Paged admission completes every request within capacity for random
    /// block sizes, and the run is bit-reproducible.
    #[test]
    fn paged_serving_completes_within_capacity(
        seed in 0u64..1_000_000,
        rate_idx in 0u8..3,
        num_requests in 1usize..30,
        max_batch in 1usize..8,
        head_room in 0u64..200,
        block_tokens in 1usize..33,
    ) {
        // One extra block of head room guarantees the worst-case request
        // (36 tokens) still fits after rounding up to block granularity.
        let cfg = config(seed, rate_idx, num_requests, max_batch,
                head_room + block_tokens as u64)
            .to_builder()
            .kv_admission(KvAdmissionConfig::Paged { block_tokens })
            .build();
        let a = simulate(&cfg).unwrap();
        prop_assert!(a.kv_peak_bytes <= a.kv_capacity_bytes,
            "peak {} exceeds capacity {}", a.kv_peak_bytes, a.kv_capacity_bytes);
        prop_assert_eq!(a.completed.len(), num_requests,
            "recompute-preemption must never drop a request");
        prop_assert!((0.0..=1.0 + 1e-12).contains(&a.kv_block_utilization));
        let b = simulate(&cfg).unwrap();
        prop_assert_eq!(a.makespan_ms, b.makespan_ms);
        prop_assert_eq!(a.preemptions, b.preemptions);
        prop_assert_eq!(a.kv_block_utilization, b.kv_block_utilization);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The heap calendar is a drop-in for the old `BTreeMap` dispatcher:
    /// on randomized workloads with interleaved pushes and pops (the
    /// engine's access pattern, including requeues at bumped times), the
    /// pop sequence is byte-identical to ascending `BTreeMap` iteration.
    #[test]
    fn event_calendar_pops_byte_identical_to_btreemap(
        ops in proptest::collection::vec((0u64..50_000, 0u8..4), 1..400),
    ) {
        use std::collections::BTreeMap;
        let mut cal: EventCalendar<u64> = EventCalendar::new();
        let mut tree: BTreeMap<(u64, u64), u64> = BTreeMap::new();
        let mut cal_log = String::new();
        let mut tree_log = String::new();
        let mut seq = 0u64;
        for (t, op) in ops {
            if op == 0 && !tree.is_empty() {
                // Pop from both; maybe requeue at a strictly later time,
                // like a parked retry.
                let key = *tree.keys().next().unwrap();
                let tv = tree.remove(&key).unwrap();
                let (ck, cv) = cal.pop().unwrap();
                tree_log.push_str(&format!("{key:?}={tv};"));
                cal_log.push_str(&format!("{ck:?}={cv};"));
                if tv.is_multiple_of(3) {
                    let bumped = key.0 + 1 + t % 97;
                    tree.insert((bumped, seq), seq);
                    cal.push(bumped, seq, seq);
                    seq += 1;
                }
            } else {
                tree.insert((t, seq), seq);
                cal.push(t, seq, seq);
                seq += 1;
            }
        }
        for (key, value) in tree {
            tree_log.push_str(&format!("{key:?}={value};"));
            let (ck, cv) = cal.pop().unwrap();
            cal_log.push_str(&format!("{ck:?}={cv};"));
        }
        prop_assert!(cal.is_empty());
        prop_assert_eq!(cal_log, tree_log);
    }

    /// Every public entry point returns latency summaries derived from
    /// that report's own records: a report that escapes with underived,
    /// all-zero percentiles, or with another level's, fails here. Its
    /// records are its offered stream, each request once, both lists in
    /// strictly ascending id order: through the single-box finish, over
    /// sparse shuffled ids, and through the cluster fold with drops.
    #[test]
    fn every_public_report_derives_percentiles_from_its_own_records(
        seed in 0u64..1_000_000,
        num_requests in 4usize..40,
        boxes in 2usize..4,
        kill_at in 1.0f64..40.0,
    ) {
        let cfg = |devices: usize| {
            let mut c = config(seed, 2, num_requests, 4, 500);
            c.devices = devices;
            c
        };
        let cluster = |box_config: &ServingConfig, boxes: usize, cards: usize| {
            simulate_cluster(&ClusterConfig::new(box_config.clone(), boxes, cards))
                .unwrap()
                .report
        };
        // A one-card burst against a TTFT deadline at its own unprotected
        // median: the queue tail times out, so every population has samples.
        // The same burst on one-card boxes, against the cluster's own
        // median, sends drop records through the cluster fold.
        let mut burst = cfg(1);
        burst.traffic.arrival_rate_per_s = 1e6;
        let mut cluster_burst = burst.clone();
        burst.robustness =
            RobustnessConfig::default().ttft_deadline(simulate(&burst).unwrap().ttft_ms.p50);
        cluster_burst.robustness = RobustnessConfig::default()
            .ttft_deadline(cluster(&cluster_burst, boxes, 1).ttft_ms.p50);
        let mut faulted = cfg(3);
        faulted.faults = FaultPlan::none().kill_for(DeviceId(2), kill_at, 20.0);
        // Sparse ids, 7k + 3, handed over in a seeded shuffle: records rank
        // by the sorted ids, not by the ids themselves.
        let generated = generate_requests(&cfg(1).traffic);
        let mut sparse = generated.clone();
        for r in &mut sparse {
            r.id = 7 * r.id + 3;
        }
        sparse.sort_by_key(|r| (r.id ^ seed).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let ids = |requests: &[Request]| requests.iter().map(|r| r.id).collect::<Vec<_>>();
        let (stream, sparse_ids) = (ids(&generated), ids(&sparse));
        let reports = [
            ("1 card", simulate(&cfg(1)).unwrap(), &stream),
            ("3 cards", simulate(&cfg(3)).unwrap(), &stream),
            ("1-card burst under a deadline", simulate(&burst).unwrap(), &stream),
            ("3 cards with a kill_for", simulate(&faulted).unwrap(), &stream),
            ("1-box cluster", cluster(&cfg(2), 1, 2), &stream),
            ("multi-box cluster", cluster(&cfg(2), boxes, 2), &stream),
            (
                "3 cards over sparse shuffled ids",
                simulate_trace(&cfg(3), sparse).unwrap(),
                &sparse_ids,
            ),
            ("multi-box burst under a deadline", cluster(&cluster_burst, boxes, 1), &stream),
        ];
        prop_assert!(reports[2].1.timed_out() > 0, "the burst tail must time out");
        prop_assert!(reports[7].1.timed_out() > 0, "the cluster burst tail must time out");
        for (name, r, offered) in &reports {
            records_and_percentiles_are_the_reports_own(name, r, offered)?;
        }
    }
}

/// One card whose stream is longer than two of the batches a card
/// places its records in, with a TTFT deadline so both kinds of record
/// flow: every record still reaches its slot once, in id order, and the
/// percentiles come from the placed records.
#[test]
fn a_card_that_flushes_several_batches_keeps_every_record() {
    let mut cfg = config(11, 2, 10_000, 4, 500);
    cfg.robustness = RobustnessConfig::default().ttft_deadline(20.0);
    let r = simulate(&cfg).unwrap();
    assert!(
        r.completed.len() > 4096 && r.timed_out() > 0,
        "{}",
        r.render()
    );
    let stream: Vec<u64> = (0..10_000).collect();
    records_and_percentiles_are_the_reports_own("one card, 10k requests", &r, &stream).unwrap();
}

/// `r`'s records are its `offered` stream, each request once, both lists
/// in strictly ascending id order, every latency summary equals the
/// sorting oracle over those records, and the goodput, throughput and
/// retry count are recomputed from them.
fn records_and_percentiles_are_the_reports_own(
    name: &str,
    r: &gaudi_serving::ServingReport,
    offered: &[u64],
) -> Result<(), String> {
    let completed: Vec<u64> = r.completed.iter().map(|o| o.id).collect();
    let dropped: Vec<u64> = r.dropped.iter().map(|d| d.id).collect();
    prop_assert!(
        completed.windows(2).all(|w| w[0] < w[1]),
        "{}: completed ids {:?}",
        name,
        completed
    );
    prop_assert!(
        dropped.windows(2).all(|w| w[0] < w[1]),
        "{}: dropped ids {:?}",
        name,
        dropped
    );
    let mut records = [completed, dropped].concat();
    records.sort_unstable();
    let mut offered = offered.to_vec();
    offered.sort_unstable();
    prop_assert_eq!(
        records,
        offered,
        "{}: records are not the offered stream",
        name
    );
    prop_assert_eq!(
        r.offered,
        r.completed.len() + r.dropped.len(),
        "{}: offered",
        name
    );
    prop_assert!(!r.completed.is_empty(), "{}: nothing completed", name);
    let ttft = oracle(r.completed.iter().map(|o| o.ttft_ms));
    let tpot = oracle(r.completed.iter().flat_map(|o| {
        o.token_times_ms
            .windows(2)
            .map(|w| w[1] - w[0])
            .collect::<Vec<_>>()
    }));
    let queue = oracle(r.completed.iter().map(|o| o.queue_ms));
    let timed_out = oracle(
        r.dropped
            .iter()
            .filter(|d| d.kind == DropKind::TimedOut)
            .map(|d| d.at_ms - d.arrival_ms),
    );
    prop_assert_eq!(bits(&r.ttft_ms), bits(&ttft), "{}: ttft", name);
    prop_assert_eq!(bits(&r.tpot_ms), bits(&tpot), "{}: tpot", name);
    prop_assert_eq!(bits(&r.queue_ms), bits(&queue), "{}: queue", name);
    prop_assert_eq!(
        bits(&r.timed_out_latency_ms),
        bits(&timed_out),
        "{}: timed out",
        name
    );
    // Token rates over the makespan and the retry count, from the records.
    prop_assert!(r.makespan_ms > 0.0, "{}: makespan", name);
    let per_s = |tokens: usize| tokens as f64 / (r.makespan_ms / 1e3);
    let good: usize = r.completed.iter().map(|o| o.output_len).sum();
    let wasted: usize = r.dropped.iter().map(|d| d.tokens_generated).sum();
    prop_assert_eq!(
        r.goodput_tokens_per_s.to_bits(),
        per_s(good).to_bits(),
        "{}: goodput",
        name
    );
    prop_assert_eq!(
        r.throughput_tokens_per_s.to_bits(),
        per_s(good + wasted).to_bits(),
        "{}: throughput",
        name
    );
    let retries: usize = r
        .completed
        .iter()
        .map(|o| o.retries as usize)
        .chain(r.dropped.iter().map(|d| d.retries as usize))
        .sum();
    prop_assert_eq!(r.retries, retries, "{}: retries", name);
    Ok(())
}

/// The reference every latency summary must match bit for bit: sort with
/// `f64::total_cmp`, take the `ceil(p·n)`-th order statistic, and sum in
/// sorted order. Written here, apart from `Percentiles`, so a change to
/// `Percentiles` cannot also change its reference.
fn oracle(values: impl IntoIterator<Item = f64>) -> Percentiles {
    let mut v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return Percentiles::default();
    }
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    let rank = |p: f64| v[((p * n as f64).ceil() as usize).clamp(1, n) - 1];
    Percentiles {
        p50: rank(0.50),
        p95: rank(0.95),
        p99: rank(0.99),
        mean: v.iter().sum::<f64>() / n as f64,
    }
}

/// A summary as bit patterns, so that `-0.0` and `+0.0` differ.
fn bits(p: &Percentiles) -> [u64; 4] {
    [p.p50, p.p95, p.p99, p.mean].map(f64::to_bits)
}

/// `values` as `(value, count)` pairs in bit-pattern order (not sorted
/// order), each count cut into `pieces` pairs where it allows.
fn counted(values: &[f64], pieces: usize) -> Vec<(f64, usize)> {
    let mut counts = std::collections::BTreeMap::new();
    for v in values {
        *counts.entry(v.to_bits()).or_insert(0usize) += 1;
    }
    let mut pairs = Vec::new();
    for (b, mut c) in counts {
        for _ in 1..pieces {
            pairs.push((f64::from_bits(b), c / 2));
            c -= c / 2;
        }
        pairs.push((f64::from_bits(b), c));
    }
    pairs
}

/// Samples that trip up a percentile routine: both zeros, subnormals,
/// the smallest normal, neighbours one ulp apart, and step-like values
/// whose mantissas end in zero bits.
const AWKWARD: [f64; 12] = [
    -0.0,
    0.0,
    5e-324,
    -5e-324,
    1e-310,
    f64::MIN_POSITIVE,
    4.25,
    4.250000000000001,
    -4.25,
    1.0,
    0.1,
    1e300,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Both summaries the engine uses, over sorted keys (`of`) and over a
    /// value → count multiset (`of_counts`), equal the oracle bit for bit,
    /// on a population mixing awkward values, arbitrary finite bit
    /// patterns, and one value repeated many times.
    #[test]
    fn percentile_summaries_match_the_sorting_oracle(
        picks in proptest::collection::vec((0usize..16, any::<u64>()), 1..200),
        repeated in (0usize..12, 1usize..3_000),
        pieces in 1usize..4,
    ) {
        let mut values: Vec<f64> = picks
            .iter()
            .map(|&(i, b)| match AWKWARD.get(i) {
                Some(&v) => v,
                None => Some(f64::from_bits(b)).filter(|v| v.is_finite()).unwrap_or(2.5),
            })
            .collect();
        let (i, n) = repeated;
        let run = vec![AWKWARD[i]; n];
        for population in [values.clone(), run.clone(), {
            values.extend(&run);
            values
        }] {
            let want = bits(&oracle(population.iter().copied()));
            prop_assert_eq!(bits(&Percentiles::of(population.iter().copied())), want);
            prop_assert_eq!(bits(&Percentiles::of_counts(counted(&population, pieces))), want);
        }
    }
}

/// Nearest ranks that land on the last sample of a run, and a population
/// of one.
#[test]
fn nearest_ranks_on_run_boundaries_and_single_samples() {
    // n = 100: ranks 50, 95 and 99 are each the last sample of a run.
    let mut v = vec![1.0; 50];
    v.extend([2.0; 45]);
    v.extend([3.0; 4]);
    v.push(4.0);
    for population in [v, vec![-0.0], vec![5e-324]] {
        let want = oracle(population.iter().copied());
        assert_eq!(
            bits(&Percentiles::of(population.iter().copied())),
            bits(&want)
        );
        assert_eq!(
            bits(&Percentiles::of_counts(counted(&population, 2))),
            bits(&want)
        );
    }
    let p = Percentiles::of_counts([(3.0, 4), (1.0, 50), (4.0, 1), (2.0, 45)]);
    assert_eq!((p.p50, p.p95, p.p99), (1.0, 2.0, 3.0));
}

#[test]
#[should_panic(expected = "latencies are finite")]
fn a_nan_sample_panics() {
    Percentiles::of([1.0, f64::NAN, 2.0]);
}

#[test]
#[should_panic(expected = "latencies are finite")]
fn a_nan_count_panics() {
    Percentiles::of_counts([(1.0, 3), (f64::NAN, 1)]);
}

/// Deterministic (non-fuzzed) regression: a device with room for barely
/// more than one request must stall admissions, never exceed capacity, and
/// still finish everything.
#[test]
fn backpressure_queues_rather_than_overflows() {
    // head_room 0: capacity = weights + one worst-case request (36 tokens),
    // so two concurrent typical requests already contend while max_batch
    // allows six — admission must stall on KV, not overflow.
    let cfg = config(9, 2, 25, 6, 0);
    let report = simulate(&cfg).unwrap();
    assert_eq!(report.completed.len(), 25);
    assert!(report.kv_peak_bytes <= report.kv_capacity_bytes);
    assert!(
        report.backpressure_stalls > 0,
        "a near-full device under burst traffic must stall admission"
    );
}

/// A request that can never fit is rejected up front with a typed error.
#[test]
fn oversized_request_is_rejected() {
    let mut cfg = config(3, 0, 5, 2, 0);
    // Leave KV room for fewer tokens than the smallest possible request
    // (prompt 4 + output 2), so the pre-scan must reject the trace.
    let per_tok = cfg
        .kv_admission
        .kv_bytes_per_token(&cfg.model, cfg.kv_dtype);
    let weights = cfg.kv_admission.weight_bytes(&cfg.model, 36, cfg.kv_dtype);
    cfg.hw.memory.hbm_capacity_bytes = weights + per_tok * 5;
    match simulate(&cfg) {
        Err(ServingError::RequestTooLarge { .. }) => {}
        other => panic!("expected RequestTooLarge, got {other:?}"),
    }
}

/// Request ids key the engine's KV reservations and the report's record
/// order, so a trace that repeats one is a config error on every path:
/// one card used to fail with a misleading KV accounting error, and two
/// cards used to report the id twice.
#[test]
fn duplicate_request_ids_are_rejected() {
    let mut requests = generate_requests(&config(5, 2, 12, 4, 0).traffic);
    requests[9].id = 7;
    for devices in [1, 2] {
        let mut cfg = config(5, 2, 12, 4, 0);
        cfg.devices = devices;
        match simulate_trace(&cfg, requests.clone()) {
            Err(ServingError::InvalidConfig(msg)) => {
                assert!(msg.contains("request id 7"), "{devices} cards: {msg}")
            }
            Err(e) => panic!("{devices} cards: expected InvalidConfig, got {e}"),
            Ok(r) => panic!(
                "{devices} cards: accepted, with {} completed records",
                r.completed.len()
            ),
        }
    }
}
