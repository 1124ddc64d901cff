//! Scheduling: place costed nodes on engine timelines.

use crate::cost::op_cost;
use crate::lowering::lower_einsum;
use crate::CompilerOptions;
use gaudi_graph::{Activation, CollectiveKind, Graph, GraphError, NodeId, OpKind};
use gaudi_hw::des::Timeline;
use gaudi_hw::memory::DmaModel;
use gaudi_hw::{DeviceId, EngineId, GaudiConfig, Topology};
use std::borrow::Cow;

/// Scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Issue in program order; an op on a different engine than its
    /// predecessor waits for the predecessor to finish. Models SynapseAI's
    /// missed cross-engine overlap (Figure 6).
    InOrder,
    /// Dependency-only list scheduling: independent MME and TPC work
    /// overlaps freely.
    Overlap,
}

/// What a plan step ran, kept as ids into the scheduled graph so that
/// scheduling formats no text; [`render`](Self::render) turns it into the
/// trace label where a trace is recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepLabel {
    /// A compute op: `name:kind`, or the bare kind if the node is unnamed.
    Op(NodeId),
    /// A collective on the NIC lane: the bare kind.
    Collective(NodeId),
    /// A transfer of this node's output to another engine: `dma(kind)`.
    Dma(NodeId),
    /// The one-time GLU recompilation stall: `recompile(glu)`.
    GluRecompile,
}

impl StepLabel {
    /// The trace label, against the graph the plan was scheduled from
    /// (the graph [`GraphCompiler::compile`] returns with it).
    pub fn render(&self, g: &Graph) -> String {
        match *self {
            StepLabel::Op(id) => {
                let (name, kind) = (g.name(id), &g.node(id).kind);
                if name.is_empty() {
                    kind.label()
                } else {
                    format!("{name}:{}", kind.label())
                }
            }
            StepLabel::Collective(id) => g.node(id).kind.label(),
            StepLabel::Dma(id) => format!("dma({})", g.node(id).kind.label()),
            StepLabel::GluRecompile => "recompile(glu)".to_string(),
        }
    }
}

/// One scheduled occupation of an engine lane.
#[derive(Debug, Clone, Copy)]
pub struct PlannedOp {
    /// Graph node this step executes (None for DMA transfers and stalls).
    pub node: Option<NodeId>,
    /// What the step ran; [`StepLabel::render`] gives its trace label.
    pub label: StepLabel,
    /// Trace category (`op`, `dma`, `stall`, `collective`).
    pub category: &'static str,
    /// Device the step runs on (`DeviceId(0)` for single-device plans).
    pub device: DeviceId,
    /// Engine lane.
    pub engine: EngineId,
    /// Start time, ns.
    pub start_ns: f64,
    /// Duration, ns.
    pub dur_ns: f64,
    /// Floating-point operations performed (0 for transfers/stalls).
    pub flops: f64,
    /// Global-memory bytes moved.
    pub bytes: u64,
}

/// The compiler's output: a (possibly lowered) graph plus a fully-timed
/// execution plan over the engine lanes.
#[derive(Debug, Clone)]
pub struct ExecutionPlan {
    /// Scheduled steps in issue order.
    pub steps: Vec<PlannedOp>,
    /// Completion time of each node, ns, indexed by [`NodeId::index`].
    pub node_end_ns: Vec<f64>,
    /// Overall makespan, ns.
    pub makespan_ns: f64,
}

/// The SynapseAI-like graph compiler.
#[derive(Debug, Clone)]
pub struct GraphCompiler {
    cfg: GaudiConfig,
    opts: CompilerOptions,
}

impl GraphCompiler {
    /// Compiler over a hardware configuration with the given options.
    pub fn new(cfg: GaudiConfig, opts: CompilerOptions) -> Self {
        GraphCompiler { cfg, opts }
    }

    /// The SynapseAI-like default compiler for HLS-1.
    pub fn synapse_like() -> Self {
        GraphCompiler::new(GaudiConfig::hls1(), CompilerOptions::default())
    }

    /// Hardware configuration in use.
    pub fn config(&self) -> &GaudiConfig {
        &self.cfg
    }

    /// Options in use.
    pub fn options(&self) -> &CompilerOptions {
        &self.opts
    }

    /// Compile a graph: lower (optionally), cost, and schedule.
    ///
    /// Returns the graph actually scheduled (lowered when `lower_einsum` is
    /// set) along with the plan, whose node ids refer to that graph. Pass
    /// `&graph` to keep the graph, or `graph` by value to hand it over: the
    /// passes then rewrite it in place instead of cloning it. Both run the
    /// same passes and return the same graph and plan.
    pub fn compile<'g>(
        &self,
        graph: impl Into<Cow<'g, Graph>>,
    ) -> Result<(Graph, ExecutionPlan), GraphError> {
        self.compile_on(graph.into(), None)
    }

    /// Like [`compile`](Self::compile) on a graph handed over by value,
    /// additionally running the static memory planner ([`crate::memplan`])
    /// over the scheduled graph: the returned
    /// [`MemoryPlan`](crate::memplan::MemoryPlan) carries tensor lifetimes,
    /// in-placing decisions, locked arena offsets, and the peak/arena/naive
    /// activation footprints the serving stack budgets admission with.
    pub fn compile_with_memplan(
        &self,
        graph: Graph,
    ) -> Result<(Graph, ExecutionPlan, crate::memplan::MemoryPlan), GraphError> {
        let (g, plan) = self.compile(graph)?;
        let mem = crate::memplan::plan_memory(&g);
        Ok((g, plan, mem))
    }

    /// Like [`compile`](Self::compile), pricing [`OpKind::Collective`] nodes
    /// on the NIC lane with the given collective-group topology. Used by the
    /// partitioning pipeline (`compile_partitioned`); with a single-device
    /// topology collectives are free metadata ops.
    pub fn compile_with_topology(
        &self,
        graph: &Graph,
        comm: &Topology,
    ) -> Result<(Graph, ExecutionPlan), GraphError> {
        self.compile_on(Cow::Borrowed(graph), Some(comm))
    }

    /// Like [`compile`](Self::compile) on a graph handed over by value,
    /// without collecting a plan: the scheduler hands each step to `sink`
    /// in issue order as it places it, the same steps `compile`'s plan
    /// lists, and the call returns the scheduled graph and the makespan,
    /// ns. A caller that reads only totals keeps nothing sized by the plan,
    /// and can build its next graph into the one returned.
    pub fn compile_streamed(
        &self,
        graph: Graph,
        sink: impl FnMut(PlannedOp),
    ) -> Result<(Graph, f64), GraphError> {
        let g = self.run_passes(Cow::Owned(graph))?;
        let (_, makespan_ns) = self.schedule(&g, None, sink);
        Ok((g.into_owned(), makespan_ns))
    }

    fn compile_on(
        &self,
        graph: Cow<'_, Graph>,
        comm: Option<&Topology>,
    ) -> Result<(Graph, ExecutionPlan), GraphError> {
        let g = self.run_passes(graph)?;
        let mut steps = Vec::new();
        let (node_end_ns, makespan_ns) = self.schedule(&g, comm, |step| steps.push(step));
        let plan = ExecutionPlan {
            steps,
            node_end_ns,
            makespan_ns,
        };
        Ok((g.into_owned(), plan))
    }

    /// The graph passes in order: lower, DCE, element-wise fusion,
    /// attention fusion. DCE and attention fusion rewrite an owned graph in
    /// place and clone a borrowed one only when they change it, so a graph
    /// no pass rewrites is never cloned.
    fn run_passes<'g>(&self, mut g: Cow<'g, Graph>) -> Result<Cow<'g, Graph>, GraphError> {
        g.validate()?;
        if self.opts.lower_einsum {
            g = Cow::Owned(lower_einsum(&g)?);
        }
        if self.opts.dce {
            crate::dce::prune(&mut g);
        }
        if self.opts.fuse_elementwise {
            g = Cow::Owned(crate::fusion::fuse_elementwise(&g)?.0);
        }
        if self.opts.fuse_attention {
            crate::attention_fusion::fuse(&mut g);
        }
        Ok(g)
    }

    /// Wire time of one collective node under `comm`, ns.
    fn collective_time_ns(g: &Graph, node: &gaudi_graph::Node, comm: &Topology) -> f64 {
        let elem = g.storage_dtype.size_of() as u64;
        let in_bytes = g.shape(node.inputs[0]).numel() as u64 * elem;
        let out_bytes = g.shape(node.id).numel() as u64 * elem;
        match node.kind {
            OpKind::Collective(CollectiveKind::AllReduce) => comm.allreduce_time_ns(in_bytes),
            OpKind::Collective(CollectiveKind::AllGather { .. }) => {
                comm.allgather_time_ns(out_bytes)
            }
            OpKind::Collective(CollectiveKind::ReduceScatter { .. }) => {
                comm.reducescatter_time_ns(in_bytes)
            }
            OpKind::Collective(CollectiveKind::Broadcast) => comm.broadcast_time_ns(in_bytes),
            _ => 0.0,
        }
    }

    /// Place every node of `g` on the engine lanes, handing each step to
    /// `sink` in issue order. Returns each node's completion time, ns
    /// (indexed by [`NodeId::index`]), and the makespan: the latest step
    /// end, folded in issue order.
    fn schedule(
        &self,
        g: &Graph,
        comm: Option<&Topology>,
        mut sink: impl FnMut(PlannedOp),
    ) -> (Vec<f64>, f64) {
        let dma = DmaModel::new(self.cfg.memory.clone());
        let mut timeline = Timeline::new();
        let mut makespan_ns = 0.0f64;
        let mut emit = |step: PlannedOp| {
            makespan_ns = makespan_ns.max(step.start_ns + step.dur_ns);
            sink(step);
        };
        // Per node: when it completes, which lane produced it, and the
        // lanes DMA already shipped it to (one `lane_bit` each).
        let mut node_end = vec![0.0f64; g.len()];
        let mut node_engine = vec![EngineId::Host; g.len()];
        let mut shipped = vec![0u8; g.len()];
        let mut last_issue: Option<(EngineId, f64)> = None;
        let mut issue_floor = 0.0f64; // raised by recompilation stalls
        let mut glu_compiled = false;

        for node in g.nodes() {
            let mut cost = op_cost(g, node, &self.cfg, self.opts.lower_einsum);
            let mut deps_end = node
                .inputs
                .iter()
                .map(|i| node_end[i.index()])
                .fold(0.0, f64::max);

            // Collectives occupy the NIC lane for the ring/tree wire time of
            // the collective group. Every device of the symmetric SPMD
            // program reaches this point at the same simulated time, so the
            // synchronization barrier is implicit.
            if matches!(node.kind, OpKind::Collective(_)) {
                if let Some(comm) = comm {
                    cost.time_ns = Self::collective_time_ns(g, node, comm);
                }
                if cost.time_ns > 0.0 {
                    let (start, end) = timeline.reserve(EngineId::Nic, deps_end, cost.time_ns);
                    emit(PlannedOp {
                        node: Some(node.id),
                        label: StepLabel::Collective(node.id),
                        category: "collective",
                        device: DeviceId(0),
                        engine: EngineId::Nic,
                        start_ns: start,
                        dur_ns: cost.time_ns,
                        flops: 0.0,
                        bytes: cost.bytes,
                    });
                    node_end[node.id.index()] = end;
                    node_engine[node.id.index()] = EngineId::Nic;
                    last_issue = Some((EngineId::Nic, end));
                } else {
                    // Single-device group: the collective is an identity op.
                    node_end[node.id.index()] = deps_end;
                }
                continue;
            }

            if cost.time_ns == 0.0 {
                // Metadata-only: completes with its dependencies.
                node_end[node.id.index()] = deps_end;
                continue;
            }

            // Engine-to-engine transfers ride the DMA lane.
            let bit = lane_bit(cost.engine);
            for &input in &node.inputs {
                let src = node_engine[input.index()];
                if src.is_compute() && src != cost.engine && shipped[input.index()] & bit == 0 {
                    shipped[input.index()] |= bit;
                    let bytes = g.shape(input).numel() as u64 * g.storage_dtype.size_of() as u64;
                    let dur = dma.transfer_time_ns(bytes);
                    let ready = node_end[input.index()];
                    let (s, e) = timeline.reserve(EngineId::Dma(0), ready, dur);
                    emit(PlannedOp {
                        node: None,
                        label: StepLabel::Dma(input),
                        category: "dma",
                        device: DeviceId(0),
                        engine: EngineId::Dma(0),
                        start_ns: s,
                        dur_ns: dur,
                        flops: 0.0,
                        bytes,
                    });
                    deps_end = deps_end.max(e);
                }
            }

            // One-time Graph-Compiler recompilation for recipe-less ops (GLU,
            // §3.3 and Figure 7).
            if !glu_compiled && matches!(node.kind, OpKind::Activation(Activation::Glu)) {
                glu_compiled = true;
                let stall = self.cfg.recompile_stall_ns;
                let (s, e) = timeline.reserve(EngineId::Host, deps_end, stall);
                emit(PlannedOp {
                    node: None,
                    label: StepLabel::GluRecompile,
                    category: "stall",
                    device: DeviceId(0),
                    engine: EngineId::Host,
                    start_ns: s,
                    dur_ns: stall,
                    flops: 0.0,
                    bytes: 0,
                });
                deps_end = deps_end.max(e);
                issue_floor = issue_floor.max(e);
            }

            let mut earliest = deps_end.max(issue_floor);
            if self.opts.scheduler == SchedulerKind::InOrder {
                if let Some((prev_engine, prev_end)) = last_issue {
                    if prev_engine != cost.engine {
                        earliest = earliest.max(prev_end);
                    }
                }
            }

            let (start, end) = timeline.reserve(cost.engine, earliest, cost.time_ns);
            emit(PlannedOp {
                node: Some(node.id),
                label: StepLabel::Op(node.id),
                category: "op",
                device: DeviceId(0),
                engine: cost.engine,
                start_ns: start,
                dur_ns: cost.time_ns,
                flops: cost.flops,
                bytes: cost.bytes,
            });
            node_end[node.id.index()] = end;
            node_engine[node.id.index()] = cost.engine;
            last_issue = Some((cost.engine, end));
        }

        (node_end, makespan_ns)
    }
}

/// Bit of `engine` in a node's mask of lanes DMA shipped it to. A transfer
/// targets the consuming op's engine, which is never a DMA lane, so the DMA
/// channels can share one bit.
fn lane_bit(engine: EngineId) -> u8 {
    match engine {
        EngineId::Mme => 1,
        EngineId::TpcCluster => 1 << 1,
        EngineId::Host => 1 << 2,
        EngineId::Nic => 1 << 3,
        EngineId::Dma(_) => 1 << 4,
    }
}

impl ExecutionPlan {
    /// Total busy time of an engine lane, ns.
    pub fn engine_busy_ns(&self, engine: EngineId) -> f64 {
        // fold, not sum: an empty f64 sum is -0.0, which renders as "-0.0%".
        self.steps
            .iter()
            .filter(|s| s.engine == engine)
            .fold(0.0, |acc, s| acc + s.dur_ns)
    }

    /// Makespan in milliseconds.
    pub fn makespan_ms(&self) -> f64 {
        self.makespan_ns / 1.0e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaudi_graph::EinsumSpec;

    /// Two independent chains: a matmul (MME) and a big exp (TPC).
    fn independent_graph() -> Graph {
        let mut g = Graph::new();
        let a = g.input("a", &[64, 512, 512]).unwrap();
        let b = g.input("b", &[64, 512, 512]).unwrap();
        let m = g.matmul(a, b).unwrap();
        let x = g.input("x", &[64, 1024, 1024]).unwrap();
        let e = g.exp(x).unwrap();
        g.mark_output(m);
        g.mark_output(e);
        g
    }

    #[test]
    fn overlap_scheduler_runs_independent_work_concurrently() {
        let g = independent_graph();
        let overlap = GraphCompiler::new(
            GaudiConfig::hls1(),
            CompilerOptions {
                scheduler: SchedulerKind::Overlap,
                ..Default::default()
            },
        );
        let inorder = GraphCompiler::synapse_like();
        let (_, p_overlap) = overlap.compile(&g).unwrap();
        let (_, p_inorder) = inorder.compile(&g).unwrap();
        // In-order serializes MME behind TPC (or vice versa).
        assert!(
            p_inorder.makespan_ns > 1.5 * p_overlap.makespan_ns,
            "inorder {} vs overlap {}",
            p_inorder.makespan_ms(),
            p_overlap.makespan_ms()
        );
    }

    #[test]
    fn dependencies_always_respected() {
        let mut g = Graph::new();
        let a = g.input("a", &[256, 256]).unwrap();
        let m = g.matmul(a, a).unwrap();
        let s = g.softmax(m).unwrap();
        g.mark_output(s);
        for kind in [SchedulerKind::InOrder, SchedulerKind::Overlap] {
            let c = GraphCompiler::new(
                GaudiConfig::hls1(),
                CompilerOptions {
                    scheduler: kind,
                    ..Default::default()
                },
            );
            let (g2, plan) = c.compile(&g).unwrap();
            let find = |id: NodeId| {
                plan.steps
                    .iter()
                    .find(|st| st.node == Some(id))
                    .expect("scheduled")
            };
            let sm_node = g2
                .nodes()
                .iter()
                .find(|n| matches!(n.kind, OpKind::Softmax))
                .unwrap();
            let mm_node = g2
                .nodes()
                .iter()
                .find(|n| matches!(n.kind, OpKind::MatMul))
                .unwrap();
            let mm = find(mm_node.id);
            let sm = find(sm_node.id);
            assert!(sm.start_ns >= mm.start_ns + mm.dur_ns - 1e-6);
        }
    }

    #[test]
    fn dma_inserted_between_engines() {
        let mut g = Graph::new();
        let a = g.input("a", &[512, 512]).unwrap();
        let m = g.matmul(a, a).unwrap(); // MME
        let s = g.softmax(m).unwrap(); // TPC, input crosses engines
        g.mark_output(s);
        let (_, plan) = GraphCompiler::synapse_like().compile(&g).unwrap();
        assert!(plan.steps.iter().any(|st| st.category == "dma"));
    }

    #[test]
    fn glu_triggers_one_recompile_stall() {
        let mut g = Graph::new();
        let x = g.input("x", &[128, 512]).unwrap();
        let g1 = g.activation(Activation::Glu, x).unwrap();
        let y = g.input("y", &[128, 512]).unwrap();
        let g2 = g.activation(Activation::Glu, y).unwrap();
        g.mark_output(g1);
        g.mark_output(g2);
        let (_, plan) = GraphCompiler::synapse_like().compile(&g).unwrap();
        let stalls: Vec<_> = plan
            .steps
            .iter()
            .filter(|s| s.category == "stall")
            .collect();
        assert_eq!(stalls.len(), 1);
        assert_eq!(stalls[0].engine, EngineId::Host);
        assert_eq!(stalls[0].dur_ns, GaudiConfig::hls1().recompile_stall_ns);
    }

    #[test]
    fn step_labels_render_the_trace_text() {
        let mut g = Graph::new();
        let a = g.input("a", &[64, 64]).unwrap();
        let m = g.matmul(a, a).unwrap(); // named, on the MME
        g.name_last("proj").unwrap();
        let s = g.softmax(m).unwrap(); // unnamed, on the TPC: its input ships
        let glu = g.activation(Activation::Glu, s).unwrap(); // stalls once
        g.mark_output(glu);
        let (scheduled, plan) = GraphCompiler::synapse_like().compile(&g).unwrap();
        let rendered: Vec<String> = plan
            .steps
            .iter()
            .map(|st| format!("{} {}", st.category, st.label.render(&scheduled)))
            .collect();
        assert_eq!(
            rendered,
            [
                "op proj:matmul",
                "dma dma(matmul)",
                "op softmax",
                "stall recompile(glu)",
                "op glu",
            ]
        );

        // A tensor-parallel MLP all-reduces its row-parallel output.
        let mut g = Graph::new();
        let x = g.input("x", &[8, 64]).unwrap();
        let w1 = g.parameter("l.fc1.w", &[64, 256]).unwrap();
        let h = g.matmul(x, w1).unwrap();
        let w2 = g.parameter("l.fc2.w", &[256, 64]).unwrap();
        let y = g.matmul(h, w2).unwrap();
        g.mark_output(y);
        let part = crate::partition(
            &g,
            crate::Parallelism::tensor(2),
            &crate::PartitionSpec::llm(),
        )
        .unwrap();
        let topo = Topology::hls1_box(&GaudiConfig::hls1(), 2);
        let (scheduled, plan) = GraphCompiler::synapse_like()
            .compile_partitioned(&part, &topo)
            .unwrap();
        for device_plan in &plan.device_plans {
            let collectives: Vec<String> = device_plan
                .steps
                .iter()
                .filter(|st| st.category == "collective")
                .map(|st| st.label.render(&scheduled))
                .collect();
            assert_eq!(collectives, ["all_reduce"]);
        }
    }

    #[test]
    fn lowering_changes_einsum_engine() {
        let mut g = Graph::new();
        let q = g.input("q", &[4, 8, 1024, 64]).unwrap();
        let k = g.input("k", &[4, 8, 1024, 64]).unwrap();
        let e = g.einsum(EinsumSpec::ScoresQKt, q, k).unwrap();
        g.mark_output(e);

        let naive = GraphCompiler::new(
            GaudiConfig::hls1(),
            CompilerOptions {
                lower_einsum: false,
                ..Default::default()
            },
        );
        let (_, p1) = naive.compile(&g).unwrap();
        assert!(p1.engine_busy_ns(EngineId::Mme) == 0.0);
        assert!(p1.engine_busy_ns(EngineId::TpcCluster) > 0.0);

        let good = GraphCompiler::new(
            GaudiConfig::hls1(),
            CompilerOptions {
                lower_einsum: true,
                ..Default::default()
            },
        );
        let (_, p2) = good.compile(&g).unwrap();
        assert!(p2.engine_busy_ns(EngineId::Mme) > 0.0);
        assert!(p2.makespan_ns < p1.makespan_ns);
    }

    #[test]
    fn a_marked_output_that_names_no_node_is_an_unknown_node_error() {
        let mut g = Graph::new();
        let x = g.input("x", &[4]).unwrap();
        g.exp(x).unwrap();
        g.mark_output(NodeId(99));
        let unknown = GraphError::UnknownNode(NodeId(99));
        assert_eq!(g.validate(), Err(unknown.clone()));
        let compiler = GraphCompiler::synapse_like();
        assert_eq!(compiler.compile(&g).unwrap_err(), unknown);
        assert_eq!(compiler.compile(g).unwrap_err(), unknown);
    }

    #[test]
    fn engines_never_double_booked() {
        let g = independent_graph();
        let (_, plan) = GraphCompiler::synapse_like().compile(&g).unwrap();
        for engine in [EngineId::Mme, EngineId::TpcCluster, EngineId::Dma(0)] {
            let mut evs: Vec<_> = plan.steps.iter().filter(|s| s.engine == engine).collect();
            evs.sort_by(|a, b| a.start_ns.total_cmp(&b.start_ns));
            for w in evs.windows(2) {
                assert!(w[1].start_ns >= w[0].start_ns + w[0].dur_ns - 1e-6);
            }
        }
    }
}
