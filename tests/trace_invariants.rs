//! Property tests on the compiler/runtime pipeline: for randomized graphs,
//! `compile` schedules exactly the graph its public passes produce and
//! streams exactly the steps its plan lists, schedules must respect engine
//! exclusivity and data dependencies, the overlap scheduler must never lose
//! to the in-order one, and numerics must be independent of the scheduling
//! policy.

use gaudi_compiler::{
    eliminate_dead_code, fuse_attention, CompilerOptions, ExecutionPlan, GraphCompiler, PlannedOp,
    SchedulerKind,
};
use gaudi_graph::{Graph, NodeId};
use gaudi_hw::GaudiConfig;
use gaudi_models::{build_decode_step, build_prefill, LlmConfig};
use gaudi_runtime::{Feeds, NumericsMode, Runtime};
use gaudi_tensor::{SeededRng, Tensor};
use proptest::prelude::*;

/// Build a random DAG of ops over small 2-D tensors.
fn random_graph(ops: &[u8], fanin: &[u8]) -> Graph {
    random_graph_with(ops, fanin, None)
}

/// [`random_graph`], plus an unmarked `neg` branch ahead of op `dead_at`:
/// a dead node mid-graph, so DCE renumbers everything after it.
fn random_graph_with(ops: &[u8], fanin: &[u8], dead_at: Option<usize>) -> Graph {
    let mut g = Graph::new();
    let a = g.input("a", &[8, 16]).unwrap();
    let b = g.input("b", &[16, 8]).unwrap();
    let mut pool: Vec<NodeId> = vec![a];
    let matpool: Vec<NodeId> = vec![b];

    for (i, (&op, &f)) in ops.iter().zip(fanin.iter()).enumerate() {
        let x = pool[f as usize % pool.len()];
        if dead_at == Some(i) {
            g.neg(x).unwrap();
        }
        let node = match op % 7 {
            0 => g.exp(x).unwrap(),
            1 => g.softmax(x).unwrap(),
            2 => g.scalar_mul(x, 1.0 + i as f32).unwrap(),
            3 => {
                let y = pool[(f as usize + 1) % pool.len()];
                g.add(x, y).unwrap()
            }
            4 => {
                // matmul against the [16, 8] pool to change shape family;
                // re-project back to [8, 16] to keep the pool homogeneous.
                let m = g.matmul(x, matpool[0]).unwrap(); // [8, 8]
                let w = g.input(format!("w{i}"), &[8, 16]).unwrap();
                g.matmul(m, w).unwrap()
            }
            5 => g.activation(gaudi_graph::Activation::Gelu, x).unwrap(),
            _ => g.square(x).unwrap(),
        };
        pool.push(node);
        let _ = &matpool;
    }
    let out = *pool.last().unwrap();
    g.mark_output(out);
    g
}

/// `g` with every node marked as an output: nothing is dead and nothing
/// can fuse, so no pass has anything to rewrite.
fn all_live(mut g: Graph) -> Graph {
    for i in 0..g.len() {
        g.mark_output(NodeId(i));
    }
    g
}

/// Whether two graphs agree node for node (kind, inputs, shape, name) and
/// in their marked outputs and storage dtype.
fn same_graph(a: &Graph, b: &Graph) -> bool {
    a.len() == b.len()
        && a.outputs() == b.outputs()
        && a.storage_dtype == b.storage_dtype
        && a.nodes().iter().zip(b.nodes()).all(|(x, y)| {
            x.id == y.id
                && x.kind == y.kind
                && x.inputs == y.inputs
                && x.shape == y.shape
                && x.name == y.name
        })
}

/// Whether two plans agree step for step in every field, `f64`s by bits.
fn same_plan(a: &ExecutionPlan, b: &ExecutionPlan) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    a.makespan_ns.to_bits() == b.makespan_ns.to_bits()
        && bits(&a.node_end_ns) == bits(&b.node_end_ns)
        && same_steps(&a.steps, &b.steps)
}

/// Whether two step lists agree in order and in every field, `f64`s by
/// bits.
fn same_steps(a: &[PlannedOp], b: &[PlannedOp]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.node == y.node
                && x.label == y.label
                && x.category == y.category
                && x.device == y.device
                && x.engine == y.engine
                && x.start_ns.to_bits() == y.start_ns.to_bits()
                && x.dur_ns.to_bits() == y.dur_ns.to_bits()
                && x.flops.to_bits() == y.flops.to_bits()
                && x.bytes == y.bytes
        })
}

fn compiler(kind: SchedulerKind) -> GraphCompiler {
    GraphCompiler::new(
        GaudiConfig::hls1(),
        CompilerOptions {
            scheduler: kind,
            ..CompilerOptions::default()
        },
    )
}

fn compile(g: &Graph, kind: SchedulerKind) -> (Graph, ExecutionPlan) {
    // The plan's node ids refer to the *compiled* graph (DCE renumbers).
    compiler(kind).compile(g).expect("compiles")
}

/// Whether compiling `g` with its schedule streamed, as serving's plan
/// cache does, hands the sink exactly `plan`'s steps in order and returns
/// `compiled` and `plan`'s makespan, where `compile` gave `compiled` and
/// `plan`.
fn streams_the_plan(c: &GraphCompiler, g: &Graph, compiled: &Graph, plan: &ExecutionPlan) -> bool {
    let mut steps = Vec::new();
    let (streamed, makespan_ns) = c
        .compile_streamed(g.clone(), |step| steps.push(step))
        .expect("compiles");
    same_graph(&streamed, compiled)
        && makespan_ns.to_bits() == plan.makespan_ns.to_bits()
        && same_steps(&steps, &plan.steps)
}

#[test]
fn streamed_serving_phases_receive_the_plans_steps() {
    // The tiny model and the paper's GPT, as serving prices them.
    let paper_gpt = LlmConfig {
        training: false,
        ..LlmConfig::paper_section_3_4(50257)
    };
    for model in [LlmConfig::tiny(97), paper_gpt] {
        for g in [
            build_prefill(&model, 2, 64).unwrap().0,
            build_decode_step(&model, 4, 128).unwrap().0,
        ] {
            for kind in [SchedulerKind::InOrder, SchedulerKind::Overlap] {
                let (compiled, plan) = compile(&g, kind);
                assert!(streams_the_plan(&compiler(kind), &g, &compiled, &plan));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn compile_schedules_exactly_the_public_pass_output(
        ops in proptest::collection::vec(any::<u8>(), 1..20),
        fanin in proptest::collection::vec(any::<u8>(), 20),
        dead_at in 0usize..20,
    ) {
        let base = random_graph(&ops, &fanin);
        let dead = random_graph_with(&ops, &fanin, Some(dead_at % ops.len()));
        let live = all_live(random_graph(&ops, &fanin));
        prop_assert!(eliminate_dead_code(&dead).unwrap().1 > 0);
        prop_assert_eq!(eliminate_dead_code(&live).unwrap().1, 0);
        for g in [base, dead, live] {
            let (pruned, _) = eliminate_dead_code(&g).unwrap();
            let (expected, _) = fuse_attention(&pruned).unwrap();
            for kind in [SchedulerKind::InOrder, SchedulerKind::Overlap] {
                let (compiled, plan) = compile(&g, kind);
                prop_assert!(same_graph(&compiled, &expected));
                prop_assert_eq!(plan.node_end_ns.len(), compiled.len());
                for step in plan.steps.iter().filter(|s| s.category == "op") {
                    let node = step.node.expect("op steps execute a node");
                    prop_assert_eq!(step.start_ns + step.dur_ns, plan.node_end_ns[node.index()]);
                }
                // Handing the graph over by value, as serving's plan cache
                // and its activation estimate do, rewrites it in place; the
                // result must not differ from compiling a borrowed copy.
                let (owned, owned_plan) = compiler(kind).compile(g.clone()).expect("compiles");
                prop_assert!(same_graph(&owned, &compiled));
                prop_assert!(same_plan(&owned_plan, &plan));
                let (planned, planned_plan, _) =
                    compiler(kind).compile_with_memplan(g.clone()).expect("compiles");
                prop_assert!(same_graph(&planned, &compiled));
                prop_assert!(same_plan(&planned_plan, &plan));
                prop_assert!(streams_the_plan(&compiler(kind), &g, &compiled, &plan));
            }
        }
    }

    #[test]
    fn schedules_respect_engine_exclusivity_and_deps(
        ops in proptest::collection::vec(any::<u8>(), 1..20),
        fanin in proptest::collection::vec(any::<u8>(), 20),
    ) {
        let g = random_graph(&ops, &fanin);
        for kind in [SchedulerKind::InOrder, SchedulerKind::Overlap] {
            let (compiled, plan) = compile(&g, kind);
            // Engine exclusivity.
            for engine in [gaudi_hw::EngineId::Mme, gaudi_hw::EngineId::TpcCluster] {
                let mut evs: Vec<_> = plan.steps.iter().filter(|s| s.engine == engine).collect();
                evs.sort_by(|x, y| x.start_ns.total_cmp(&y.start_ns));
                for w in evs.windows(2) {
                    prop_assert!(w[1].start_ns >= w[0].start_ns + w[0].dur_ns - 1e-6);
                }
            }
            // Data dependencies: a step never starts before its operands end.
            for step in &plan.steps {
                let Some(node) = step.node else { continue };
                for &input in &compiled.node(node).inputs {
                    if let Some(&end) = plan.node_end_ns.get(input.index()) {
                        prop_assert!(
                            step.start_ns >= end - 1e-6,
                            "node {:?} starts {} before input end {}",
                            node, step.start_ns, end
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn overlap_never_loses_to_inorder(
        ops in proptest::collection::vec(any::<u8>(), 1..20),
        fanin in proptest::collection::vec(any::<u8>(), 20),
    ) {
        let g = random_graph(&ops, &fanin);
        let (_, inorder) = compile(&g, SchedulerKind::InOrder);
        let (_, overlap) = compile(&g, SchedulerKind::Overlap);
        prop_assert!(overlap.makespan_ns <= inorder.makespan_ns + 1e-6);
        // Busy time per engine is identical — scheduling moves work, it does
        // not create or destroy it.
        for engine in [gaudi_hw::EngineId::Mme, gaudi_hw::EngineId::TpcCluster] {
            let a = inorder.engine_busy_ns(engine);
            let b = overlap.engine_busy_ns(engine);
            prop_assert!((a - b).abs() < 1e-6, "{engine:?}: {a} vs {b}");
        }
    }

    #[test]
    fn numerics_independent_of_scheduler(
        ops in proptest::collection::vec(any::<u8>(), 1..12),
        fanin in proptest::collection::vec(any::<u8>(), 20),
        seed in 0u64..1000,
    ) {
        let g = random_graph(&ops, &fanin);
        let mut rng = SeededRng::new(seed);
        let mut feeds_base: Vec<(String, Tensor)> = vec![
            ("a".into(), Tensor::randn(&[8, 16], 1.0, &mut rng).unwrap()),
            ("b".into(), Tensor::randn(&[16, 8], 1.0, &mut rng).unwrap()),
        ];
        for node in g.nodes() {
            if node.name.starts_with('w') {
                feeds_base.push((
                    node.name.clone(),
                    Tensor::randn(node.shape.dims(), 1.0, &mut rng).unwrap(),
                ));
            }
        }
        let run = |kind: SchedulerKind| {
            let rt = Runtime::new(
                GaudiConfig::hls1(),
                CompilerOptions {
                    scheduler: kind,
                    ..CompilerOptions::default()
                },
            );
            let mut feeds = Feeds::auto(0);
            for (k, v) in &feeds_base {
                feeds = feeds.with_input(k, v.clone());
            }
            rt.run(&g, &feeds, NumericsMode::Full).expect("runs").outputs
        };
        let o1 = run(SchedulerKind::InOrder);
        let o2 = run(SchedulerKind::Overlap);
        prop_assert_eq!(o1.len(), o2.len());
        for (x, y) in o1.iter().zip(o2.iter()) {
            prop_assert!(x.max_abs_diff(y) == 0.0);
        }
    }
}
