//! Parallel execution must be invisible in the results.
//!
//! The `gaudi-exec` pool promises order-preserving fan-out, and the layers
//! built on it (serving replicas, sweep cells, sharded interpretation)
//! promise that a parallel run is *bit-identical* to a serial one — that
//! is what lets CI gate on two-run reproducibility with and without
//! threads. These tests pin the promise end to end.

use habana_gaudi_study::exec::ExecPool;
use habana_gaudi_study::prelude::*;
use habana_gaudi_study::serving::{simulate_with, Request};
use habana_gaudi_study::tensor::Tensor;
use std::sync::Arc;

fn serving_config(devices: usize) -> ServingConfig {
    let mut cfg = ServingConfig::paper_gpt();
    cfg.traffic = TrafficConfig {
        arrival_rate_per_s: 800.0,
        num_requests: 48,
        prompt_range: (16, 64),
        output_range: (4, 24),
        zipf_s: 1.1,
        seed: 13,
    };
    cfg.max_batch = 6;
    cfg.ctx_bucket = 64;
    cfg.devices = devices;
    cfg
}

/// Every comparable field of a report, including the per-request outcomes
/// and the full trace, rendered to exact text (`ServingReport` itself has
/// no `PartialEq`; `Debug` covers every field bit-for-bit).
fn full_digest(r: &ServingReport) -> String {
    format!("{r:?}")
}

/// Everything inline on the caller, plans shared within the call: the
/// reference every other policy must reproduce.
fn serial() -> ExecPolicy {
    ExecPolicy {
        pool: ExecPool::serial(),
        ..ExecPolicy::default()
    }
}

fn policies(cache: &Arc<PlanCache>) -> Vec<(&'static str, ExecPolicy)> {
    vec![
        (
            "serial pool, per-call plans",
            ExecPolicy {
                pool: ExecPool::serial(),
                plans: PlanSharing::PerCall,
            },
        ),
        (
            "4 threads, per-call plans",
            ExecPolicy {
                pool: ExecPool::new(4),
                plans: PlanSharing::PerCall,
            },
        ),
        (
            "4 threads, shared cache",
            ExecPolicy {
                pool: ExecPool::new(4),
                plans: PlanSharing::Shared(Arc::clone(cache)),
            },
        ),
    ]
}

#[test]
fn serving_report_is_bit_identical_across_policies() {
    let cfg = serving_config(4);
    let cache = Arc::new(PlanCache::new());
    let reference = full_digest(&simulate_with(&cfg, &serial()).unwrap());
    for (name, policy) in policies(&cache) {
        let got = full_digest(&simulate_with(&cfg, &policy).unwrap());
        assert_eq!(got, reference, "policy '{name}' diverged from serial");
    }
    // The warm-cache second run must also be identical.
    let warm = ExecPolicy {
        pool: ExecPool::new(4),
        plans: PlanSharing::Shared(cache),
    };
    assert_eq!(full_digest(&simulate_with(&cfg, &warm).unwrap()), reference);
}

#[test]
fn faulted_serving_run_is_bit_identical_across_policies() {
    // Kill a replica mid-run: the orphan redistribution + re-simulation
    // pass is the trickiest parallel path, so pin it explicitly.
    let mut cfg = serving_config(3);
    cfg.faults = FaultPlan::none().kill(DeviceId(2), 15.0);
    let cache = Arc::new(PlanCache::new());
    let reference = simulate_with(&cfg, &serial()).unwrap();
    assert_eq!(reference.failed_replicas, 1);
    assert!(reference.retries > 0, "the kill must actually orphan work");
    for (name, policy) in policies(&cache) {
        let got = simulate_with(&cfg, &policy).unwrap();
        assert_eq!(
            full_digest(&got),
            full_digest(&reference),
            "policy '{name}' diverged from serial on the faulted run"
        );
    }
}

#[test]
fn restart_and_shed_run_is_bit_identical_across_policies() {
    // The full robustness machinery at once — a bounded queue shedding a
    // saturating burst, TTFT expiry, jittered retry backoff, and a replica
    // that dies and restarts with a cold recipe cache — must still be a
    // pure function of the config under every execution policy.
    let mut cfg = serving_config(3);
    cfg.traffic.arrival_rate_per_s = 5_000.0;
    cfg.faults = FaultPlan::none().kill_for(DeviceId(2), 10.0, 25.0);
    cfg.robustness = RobustnessConfig::default()
        .queue_depth(4)
        .ttft_deadline(60.0)
        .retries(5)
        .backoff(2.0, 0.5, 7);
    let cache = Arc::new(PlanCache::new());
    let reference = simulate_with(&cfg, &serial()).unwrap();
    assert_eq!(reference.restarts, 1, "the killed replica must come back");
    assert!(
        !reference.dropped.is_empty(),
        "the burst must overflow the bounded queue or miss the SLO"
    );
    assert!(!reference.completed.is_empty());
    assert_eq!(
        reference.completed.len() + reference.dropped.len(),
        reference.offered
    );
    for (name, policy) in policies(&cache) {
        let got = simulate_with(&cfg, &policy).unwrap();
        assert_eq!(
            full_digest(&got),
            full_digest(&reference),
            "policy '{name}' diverged from serial on the restart+shed run"
        );
    }
    // Warm shared cache: memoized plans must not perturb outcomes.
    let warm = ExecPolicy {
        pool: ExecPool::new(4),
        plans: PlanSharing::Shared(cache),
    };
    assert_eq!(
        full_digest(&simulate_with(&cfg, &warm).unwrap()),
        full_digest(&reference)
    );
}

#[test]
fn paged_warmup_restart_run_is_bit_identical_across_policies() {
    // Everything PR 6 added at once — paged KV admission tight enough to
    // preempt, quantitative recipe warmup with batch bucketing, and a
    // replica restart that resets a recipe cache mid-run — must remain a
    // pure function of the config under every execution policy.
    let mut cfg = serving_config(3);
    cfg.faults = FaultPlan::none().kill_for(DeviceId(2), 10.0, 25.0);
    cfg.kv_admission = KvAdmissionConfig::Paged { block_tokens: 16 };
    cfg.recipes = RecipeConfig {
        compile_ms: 8.0,
        batch_bucket: 2,
    };
    // Shrink HBM so the paged pool actually runs dry: room for the weights
    // plus ~3 worst-case requests (88 tokens each) across the stream.
    let weights = cfg
        .kv_admission
        .weight_bytes(&cfg.model, 64 + 24, cfg.kv_dtype);
    let per_tok = cfg
        .kv_admission
        .kv_bytes_per_token(&cfg.model, cfg.kv_dtype);
    cfg.hw.memory.hbm_capacity_bytes = weights + per_tok * 264;
    let cache = Arc::new(PlanCache::new());
    let reference = simulate_with(&cfg, &serial()).unwrap();
    assert_eq!(reference.restarts, 1, "the killed replica must come back");
    assert!(
        reference.recipe_compiles > 0,
        "warmup must compile at least one shape"
    );
    assert!(
        reference.completed.len() + reference.dropped.len() == reference.offered,
        "every request must terminate exactly once"
    );
    for (name, policy) in policies(&cache) {
        let got = simulate_with(&cfg, &policy).unwrap();
        assert_eq!(
            full_digest(&got),
            full_digest(&reference),
            "policy '{name}' diverged from serial on the paged+warmup run"
        );
    }
    // Warm shared cache: memoized plans must not perturb outcomes.
    let warm = ExecPolicy {
        pool: ExecPool::new(4),
        plans: PlanSharing::Shared(cache),
    };
    assert_eq!(
        full_digest(&simulate_with(&cfg, &warm).unwrap()),
        full_digest(&reference)
    );
}

#[test]
fn checkpointed_campaign_run_is_bit_identical_across_policies() {
    // Everything PR 10 added at once — a seeded rack-power campaign
    // lowered over the box topology, periodic KV checkpoints priced over
    // DMA, and snapshot restores replacing recompute after the correlated
    // kills — must remain a pure function of the config under every
    // execution policy.
    let mut cfg = serving_config(4);
    let topo = Topology::cluster(&cfg.hw, 2, 2, 1.0);
    cfg.faults = FaultCampaign::rack_power(2, (8.0, 20.0))
        .seeded(33, &topo, 120.0)
        .expect("the campaign lowers to a valid plan");
    cfg.robustness = RobustnessConfig::default().checkpoint(3.0, 64e9);
    let cache = Arc::new(PlanCache::new());
    let reference = simulate_with(&cfg, &serial()).unwrap();
    assert_eq!(
        reference.restarts, 4,
        "both rack events must hit whole boxes"
    );
    assert!(
        reference.checkpoint_bytes > 0,
        "running chains must snapshot"
    );
    assert!(
        reference.recovered_tokens > 0,
        "at least one orphan must restore instead of recomputing"
    );
    assert_eq!(
        reference.completed.len() + reference.dropped.len(),
        reference.offered
    );
    for (name, policy) in policies(&cache) {
        let got = simulate_with(&cfg, &policy).unwrap();
        assert_eq!(
            full_digest(&got),
            full_digest(&reference),
            "policy '{name}' diverged from serial on the checkpointed campaign run"
        );
    }
    // Warm shared cache: memoized plans must not perturb outcomes.
    let warm = ExecPolicy {
        pool: ExecPool::new(4),
        plans: PlanSharing::Shared(cache),
    };
    assert_eq!(
        full_digest(&simulate_with(&cfg, &warm).unwrap()),
        full_digest(&reference)
    );
}

#[test]
fn cluster_report_is_bit_identical_across_policies() {
    // The cluster layer fans boxes out over the pool; the merged report
    // (and every routing gauge) must be a pure function of the config.
    use habana_gaudi_study::serving::{
        simulate_cluster_with, ClusterConfig, RouterPolicy as ClusterRouter,
    };
    let mut base = serving_config(2);
    base.traffic.num_requests = 60;
    for router in [
        ClusterRouter::RoundRobin,
        ClusterRouter::LeastLoaded,
        ClusterRouter::Locality,
    ] {
        let cfg = ClusterConfig::new(base.clone(), 3, 2)
            .router(router)
            .oversubscription(4.0);
        let cache = Arc::new(PlanCache::new());
        let reference = simulate_cluster_with(&cfg, &serial()).unwrap();
        assert_eq!(reference.report.offered, 60);
        for (name, policy) in policies(&cache) {
            let got = simulate_cluster_with(&cfg, &policy).unwrap();
            assert_eq!(
                format!("{got:?}"),
                format!("{reference:?}"),
                "policy '{name}' diverged from serial on the {router:?} cluster run"
            );
        }
    }
}

#[test]
fn explicit_trace_replay_is_policy_independent() {
    let cfg = serving_config(2);
    let requests: Vec<Request> = (0..20)
        .map(|i| Request {
            id: i,
            arrival_us: i * 700,
            prompt_len: 16 + (i as usize % 5) * 8,
            output_len: 3 + (i as usize % 7),
        })
        .collect();
    let serial =
        habana_gaudi_study::serving::simulate_trace_with(&cfg, requests.clone(), &serial())
            .unwrap();
    let parallel = habana_gaudi_study::serving::simulate_trace_with(
        &cfg,
        requests,
        &ExecPolicy {
            pool: ExecPool::new(3),
            plans: PlanSharing::PerCall,
        },
    )
    .unwrap();
    assert_eq!(full_digest(&serial), full_digest(&parallel));
}

/// Megatron MLP used by the partitioned-run checks.
fn mlp(d: usize, hidden: usize) -> Graph {
    let mut g = Graph::new();
    let x = g.input("x", &[4, 8, d]).unwrap();
    let w1 = g.parameter("mlp.fc1.w", &[d, hidden]).unwrap();
    let h = g.matmul(x, w1).unwrap();
    let h = g
        .activation(habana_gaudi_study::graph::Activation::Gelu, h)
        .unwrap();
    let w2 = g.parameter("mlp.fc2.w", &[hidden, d]).unwrap();
    let y = g.matmul(h, w2).unwrap();
    g.mark_output(y);
    g
}

#[test]
fn partitioned_run_outputs_and_trace_are_bit_identical_across_pools() {
    let g = mlp(16, 32);
    let mut rng = habana_gaudi_study::tensor::SeededRng::new(11);
    let x = Tensor::randn(&[4, 8, 16], 1.0, &mut rng).unwrap();
    let feeds = Feeds::auto(3).with_input("x", x);

    let serial_rt = Runtime::hls1().with_exec(ExecPool::serial());
    let parallel_rt = Runtime::hls1().with_exec(ExecPool::new(4));
    for parallel in [Parallelism::tensor(4), Parallelism::data(2)] {
        let spec = PartitionSpec {
            batch_inputs: vec!["x".into()],
            ..PartitionSpec::llm()
        };
        let a = serial_rt
            .run_partitioned(&g, parallel, &spec, &feeds, NumericsMode::Full)
            .unwrap();
        let b = parallel_rt
            .run_partitioned(&g, parallel, &spec, &feeds, NumericsMode::Full)
            .unwrap();
        assert_eq!(a.outputs.len(), b.outputs.len());
        for (ta, tb) in a.outputs.iter().zip(&b.outputs) {
            assert_eq!(ta.dims(), tb.dims());
            assert_eq!(ta.data(), tb.data(), "numerics diverged under threads");
        }
        assert_eq!(a.makespan_ms, b.makespan_ms);
        assert_eq!(
            format!("{:?}", a.trace.events()),
            format!("{:?}", b.trace.events()),
            "trace diverged under threads"
        );
    }
}

#[test]
fn pool_surfaces_the_lowest_index_error_like_serial_collect() {
    // try_par_map's error selection must match a serial `collect::<Result>`:
    // the first (lowest-index) failing item wins, regardless of which
    // thread fails first.
    let pool = ExecPool::new(4);
    let items: Vec<usize> = (0..64).collect();
    let err = pool
        .try_par_map(&items, |_, &i| if i % 7 == 3 { Err(i) } else { Ok(i * 2) })
        .unwrap_err();
    assert_eq!(err, 3);
}
