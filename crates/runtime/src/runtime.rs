//! The top-level runtime: compile, simulate, (optionally) compute, trace.

use crate::interp::{eval_node, InterpError};
use crate::memory::estimate_peak_hbm;
use gaudi_compiler::{CompilerOptions, GraphCompiler};
use gaudi_exec::ExecPool;
use gaudi_graph::{Graph, GraphError, OpKind};
use gaudi_hw::GaudiConfig;
use gaudi_profiler::trace::TraceSink;
use gaudi_profiler::Trace;
use gaudi_tensor::{SeededRng, Tensor};
use std::collections::HashMap;

/// Whether to run the numeric interpreter alongside the timing simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NumericsMode {
    /// Compute every tensor (tests, examples, small configs).
    Full,
    /// Timing only — required for paper-scale configurations whose
    /// activations (tens of GB) exceed host memory. Timing is unaffected:
    /// the cost models are shape-driven.
    ShapeOnly,
}

/// Input bindings for a run.
#[derive(Debug, Default)]
pub struct Feeds {
    /// Tensors for `Input` nodes, keyed by node name.
    pub inputs: HashMap<String, Tensor>,
    /// Seed for auto-initialized `Parameter` tensors.
    pub seed: u64,
    /// Standard deviation for auto-initialized parameters.
    pub param_std: f32,
}

impl Feeds {
    /// No explicit inputs; parameters auto-initialized from `seed`.
    pub fn auto(seed: u64) -> Self {
        Feeds {
            inputs: HashMap::new(),
            seed,
            param_std: 0.02,
        }
    }

    /// Add a named input tensor.
    pub fn with_input(mut self, name: &str, t: Tensor) -> Self {
        self.inputs.insert(name.to_string(), t);
        self
    }
}

/// Runtime errors.
#[derive(Debug)]
pub enum RuntimeError {
    /// Graph construction/validation error.
    Graph(GraphError),
    /// Numeric interpretation error.
    Interp(InterpError),
    /// A named `Input` node had no feed in [`NumericsMode::Full`].
    MissingInput(String),
    /// An internal execution invariant was violated (a bug in the runtime,
    /// not in the caller's graph) — reported instead of panicking so library
    /// users can recover.
    Internal(String),
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Graph(e) => write!(f, "graph error: {e}"),
            RuntimeError::Interp(e) => write!(f, "interpreter error: {e}"),
            RuntimeError::MissingInput(n) => write!(f, "missing feed for input '{n}'"),
            RuntimeError::Internal(what) => {
                write!(f, "internal runtime invariant violated: {what}")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<GraphError> for RuntimeError {
    fn from(e: GraphError) -> Self {
        RuntimeError::Graph(e)
    }
}

impl From<InterpError> for RuntimeError {
    fn from(e: InterpError) -> Self {
        RuntimeError::Interp(e)
    }
}

/// Standard auto-initialization conventions, shared by the single-device
/// interpreter and the sharded executor (which must draw the *full* shapes
/// in the same node order for numerical parity): layernorm scales start at
/// 1, biases/shifts at 0, weights at `N(0, std)`.
pub(crate) fn init_param(
    name: &str,
    dims: &[usize],
    std: f32,
    rng: &mut SeededRng,
) -> Result<Tensor, RuntimeError> {
    let t = if name.ends_with(".gamma") {
        Tensor::ones(dims)
    } else if name.ends_with(".beta") || name.ends_with(".b") {
        Tensor::zeros(dims)
    } else {
        Tensor::randn(dims, std, rng)
    };
    t.map_err(|e| RuntimeError::Interp(InterpError::Tensor(e)))
}

/// Everything a simulated run produces.
#[derive(Debug)]
pub struct RunReport {
    /// Output tensors in `graph.outputs()` order (empty in shape-only mode).
    pub outputs: Vec<Tensor>,
    /// The hardware trace (the SynapseAI-profiler analog).
    pub trace: Trace,
    /// Simulated wall time in milliseconds.
    pub makespan_ms: f64,
    /// Estimated peak HBM usage in bytes.
    pub peak_hbm_bytes: u64,
    /// The compiled (possibly lowered) graph that was executed.
    pub compiled_graph: Graph,
}

impl RunReport {
    /// Whether the run fits the modelled device memory.
    pub fn fits_hbm(&self, capacity_bytes: u64) -> bool {
        self.peak_hbm_bytes <= capacity_bytes
    }
}

/// The simulated-device runtime.
///
/// ```
/// use gaudi_graph::Graph;
/// use gaudi_runtime::{Feeds, NumericsMode, Runtime};
/// use gaudi_tensor::Tensor;
///
/// let mut g = Graph::new();
/// let x = g.input("x", &[4, 4]).unwrap();
/// let y = g.softmax(x).unwrap();
/// g.mark_output(y);
///
/// let rt = Runtime::hls1();
/// let feeds = Feeds::auto(0).with_input("x", Tensor::ones(&[4, 4]).unwrap());
/// let report = rt.run(&g, &feeds, NumericsMode::Full).unwrap();
/// assert_eq!(report.outputs[0].dims(), &[4, 4]);
/// assert!(report.makespan_ms > 0.0);       // simulated device time
/// assert!(!report.trace.is_empty());       // SynapseAI-style trace
/// ```
pub struct Runtime {
    compiler: GraphCompiler,
    exec: ExecPool,
}

impl Runtime {
    /// Runtime over an explicit hardware configuration and compiler options.
    pub fn new(cfg: GaudiConfig, opts: CompilerOptions) -> Self {
        Runtime {
            compiler: GraphCompiler::new(cfg, opts),
            exec: ExecPool::global().clone(),
        }
    }

    /// The SynapseAI-like default runtime on HLS-1.
    pub fn hls1() -> Self {
        Runtime {
            compiler: GraphCompiler::synapse_like(),
            exec: ExecPool::global().clone(),
        }
    }

    /// The same runtime fanning per-device interpretation out on `pool`
    /// instead of the global one ([`ExecPool::serial`] forces the
    /// single-threaded path; results are bit-identical either way, because
    /// the simulated cards of a lockstep step are independent).
    pub fn with_exec(mut self, pool: ExecPool) -> Self {
        self.exec = pool;
        self
    }

    /// The compiler in use.
    pub fn compiler(&self) -> &GraphCompiler {
        &self.compiler
    }

    /// The execution pool multi-device interpretation runs on.
    pub fn exec(&self) -> &ExecPool {
        &self.exec
    }

    /// Compile and execute a graph.
    pub fn run(
        &self,
        graph: &Graph,
        feeds: &Feeds,
        mode: NumericsMode,
    ) -> Result<RunReport, RuntimeError> {
        let (compiled, plan) = self.compiler.compile(graph)?;

        // --- timing: replay the plan into a trace ---
        let sink = TraceSink::new();
        for step in &plan.steps {
            sink.record_full(
                step.label.render(&compiled),
                step.category,
                step.device,
                step.engine,
                step.start_ns,
                step.dur_ns,
                step.flops,
                step.bytes as f64,
            );
        }
        let trace = sink.finish();

        // --- numerics ---
        let outputs = match mode {
            NumericsMode::ShapeOnly => Vec::new(),
            NumericsMode::Full => self.interpret(&compiled, feeds)?,
        };

        Ok(RunReport {
            outputs,
            makespan_ms: plan.makespan_ns / 1.0e6,
            peak_hbm_bytes: estimate_peak_hbm(&compiled),
            trace,
            compiled_graph: compiled,
        })
    }

    fn interpret(&self, g: &Graph, feeds: &Feeds) -> Result<Vec<Tensor>, RuntimeError> {
        let mut rng = SeededRng::new(feeds.seed);
        let mut values: Vec<Option<Tensor>> = vec![None; g.len()];
        // Free tensors after their last consumer to bound host memory.
        let mut last_use = vec![usize::MAX; g.len()];
        for node in g.nodes() {
            for &i in &node.inputs {
                last_use[i.index()] = node.id.index();
            }
        }
        for &o in g.outputs() {
            last_use[o.index()] = usize::MAX;
        }

        for node in g.nodes() {
            let name = g.name(node.id);
            let value = match &node.kind {
                OpKind::Input => feeds
                    .inputs
                    .get(name)
                    .cloned()
                    .ok_or_else(|| RuntimeError::MissingInput(name.to_string()))?,
                OpKind::Parameter => match feeds.inputs.get(name) {
                    Some(t) => t.clone(),
                    None => init_param(name, node.shape.dims(), feeds.param_std, &mut rng)?,
                },
                _ => {
                    let inputs: Vec<&Tensor> = node
                        .inputs
                        .iter()
                        .map(|i| {
                            values[i.index()].as_ref().ok_or_else(|| {
                                RuntimeError::Internal(format!(
                                    "operand of '{}' freed before use",
                                    name
                                ))
                            })
                        })
                        .collect::<Result<_, _>>()?;
                    eval_node(g, node, &inputs)?
                }
            };
            debug_assert_eq!(
                value.dims(),
                node.shape.dims(),
                "shape mismatch at {}",
                node.kind
            );
            values[node.id.index()] = Some(value);
            for &i in &node.inputs {
                if last_use[i.index()] == node.id.index() {
                    values[i.index()] = None;
                }
            }
        }

        g.outputs()
            .iter()
            .map(|o| {
                values[o.index()].clone().ok_or_else(|| {
                    RuntimeError::Internal(format!(
                        "output '{}' not retained to the end of the run",
                        g.name(*o)
                    ))
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaudi_compiler::SchedulerKind;
    use gaudi_graph::Activation;
    use gaudi_hw::EngineId;
    use gaudi_profiler::TraceAnalysis;
    use gaudi_tensor::ops;

    fn tiny_attention() -> Graph {
        let mut g = Graph::new();
        let q = g.input("q", &[2, 16, 8]).unwrap();
        let k = g.input("k", &[2, 16, 8]).unwrap();
        let v = g.input("v", &[2, 16, 8]).unwrap();
        let kt = g.transpose(k).unwrap();
        let scores = g.matmul(q, kt).unwrap();
        let scaled = g.scalar_mul(scores, 1.0 / (8.0f32).sqrt()).unwrap();
        let probs = g.softmax(scaled).unwrap();
        let out = g.matmul(probs, v).unwrap();
        g.mark_output(out);
        g
    }

    fn feeds_for_attention(seed: u64) -> (Feeds, Tensor, Tensor, Tensor) {
        let mut rng = SeededRng::new(seed);
        let q = Tensor::randn(&[2, 16, 8], 1.0, &mut rng).unwrap();
        let k = Tensor::randn(&[2, 16, 8], 1.0, &mut rng).unwrap();
        let v = Tensor::randn(&[2, 16, 8], 1.0, &mut rng).unwrap();
        let feeds = Feeds::auto(0)
            .with_input("q", q.clone())
            .with_input("k", k.clone())
            .with_input("v", v.clone());
        (feeds, q, k, v)
    }

    #[test]
    fn full_mode_computes_reference_attention() {
        let g = tiny_attention();
        let (feeds, q, k, v) = feeds_for_attention(42);
        let rt = Runtime::hls1();
        let report = rt.run(&g, &feeds, NumericsMode::Full).unwrap();
        assert_eq!(report.outputs.len(), 1);

        // Reference computation.
        let kt = k.transpose_last2().unwrap();
        let scores = ops::scalar_mul(&ops::matmul(&q, &kt).unwrap(), 1.0 / (8.0f32).sqrt());
        let probs = ops::softmax_last_axis(&scores).unwrap();
        let expect = ops::matmul(&probs, &v).unwrap();
        assert!(report.outputs[0].max_abs_diff(&expect) < 1e-4);
    }

    #[test]
    fn shape_only_mode_skips_numerics_same_timing() {
        let g = tiny_attention();
        let (feeds, ..) = feeds_for_attention(42);
        let rt = Runtime::hls1();
        let full = rt.run(&g, &feeds, NumericsMode::Full).unwrap();
        let shape = rt
            .run(&g, &Feeds::auto(0), NumericsMode::ShapeOnly)
            .unwrap();
        assert!(shape.outputs.is_empty());
        assert_eq!(full.makespan_ms, shape.makespan_ms);
        assert_eq!(full.trace.len(), shape.trace.len());
    }

    #[test]
    fn trace_engines_match_table1_mapping() {
        let g = tiny_attention();
        let rt = Runtime::hls1();
        let report = rt
            .run(&g, &Feeds::auto(0), NumericsMode::ShapeOnly)
            .unwrap();
        for ev in report.trace.events() {
            if ev.category == "dma" {
                assert_eq!(ev.engine, EngineId::Dma(0));
                continue;
            }
            if ev.name.contains("matmul") {
                assert_eq!(ev.engine, EngineId::Mme, "{}", ev.name);
            }
            if ev.name.contains("softmax") || ev.name.contains("scalar_mul") {
                assert_eq!(ev.engine, EngineId::TpcCluster, "{}", ev.name);
            }
        }
        assert!(report.trace.check_no_overlap().is_none());
    }

    #[test]
    fn missing_input_is_reported() {
        let g = tiny_attention();
        let rt = Runtime::hls1();
        let err = rt.run(&g, &Feeds::auto(0), NumericsMode::Full).unwrap_err();
        assert!(matches!(err, RuntimeError::MissingInput(_)));
    }

    #[test]
    fn parameters_autoinitialize_deterministically() {
        let mut g = Graph::new();
        let x = g.parameter("w", &[4, 4]).unwrap();
        let y = g.exp(x).unwrap();
        g.mark_output(y);
        let rt = Runtime::hls1();
        let a = rt.run(&g, &Feeds::auto(7), NumericsMode::Full).unwrap();
        let b = rt.run(&g, &Feeds::auto(7), NumericsMode::Full).unwrap();
        let c = rt.run(&g, &Feeds::auto(8), NumericsMode::Full).unwrap();
        assert_eq!(a.outputs[0].max_abs_diff(&b.outputs[0]), 0.0);
        assert!(c.outputs[0].max_abs_diff(&a.outputs[0]) > 0.0);
    }

    #[test]
    fn glu_layer_produces_stall_in_trace() {
        let mut g = Graph::new();
        let x = g.input("x", &[8, 64]).unwrap();
        let y = g.activation(Activation::Glu, x).unwrap();
        g.mark_output(y);
        let rt = Runtime::hls1();
        let report = rt
            .run(&g, &Feeds::auto(0), NumericsMode::ShapeOnly)
            .unwrap();
        let a = TraceAnalysis::of(&report.trace);
        assert!(a.op_breakdown.contains_key("recompile(glu)"));
    }

    #[test]
    fn overlap_runtime_is_no_slower() {
        let g = tiny_attention();
        let inorder = Runtime::hls1();
        let overlap = Runtime::new(
            GaudiConfig::hls1(),
            CompilerOptions {
                scheduler: SchedulerKind::Overlap,
                lower_einsum: true,
                fuse_elementwise: true,
                ..CompilerOptions::default()
            },
        );
        let t1 = inorder
            .run(&g, &Feeds::auto(0), NumericsMode::ShapeOnly)
            .unwrap()
            .makespan_ms;
        let t2 = overlap
            .run(&g, &Feeds::auto(0), NumericsMode::ShapeOnly)
            .unwrap()
            .makespan_ms;
        assert!(t2 <= t1 + 1e-9);
    }

    #[test]
    fn fusion_preserves_numerics_and_saves_time() {
        let mut g = Graph::new();
        let x = g.input("x", &[64, 256]).unwrap();
        let a = g.scalar_mul(x, 0.5).unwrap();
        let b = g.scalar_add(a, 1.0).unwrap();
        let c = g.exp(b).unwrap();
        let d = g.activation(Activation::Gelu, c).unwrap();
        g.mark_output(d);

        let mut rng = gaudi_tensor::SeededRng::new(3);
        let input = Tensor::randn(&[64, 256], 0.5, &mut rng).unwrap();

        let run = |fuse: bool| {
            let rt = Runtime::new(
                GaudiConfig::hls1(),
                CompilerOptions {
                    fuse_elementwise: fuse,
                    ..CompilerOptions::default()
                },
            );
            let feeds = Feeds::auto(0).with_input("x", input.clone());
            rt.run(&g, &feeds, NumericsMode::Full).unwrap()
        };
        let plain = run(false);
        let fused = run(true);
        assert!(plain.outputs[0].max_abs_diff(&fused.outputs[0]) < 1e-6);
        assert!(
            fused.makespan_ms < plain.makespan_ms,
            "fusion must save launches: {} vs {}",
            fused.makespan_ms,
            plain.makespan_ms
        );
        // One op event instead of four.
        let fused_ops = fused
            .trace
            .events()
            .iter()
            .filter(|e| e.category == "op")
            .count();
        let plain_ops = plain
            .trace
            .events()
            .iter()
            .filter(|e| e.category == "op")
            .count();
        assert_eq!(plain_ops, 4);
        assert_eq!(fused_ops, 1);
    }

    #[test]
    fn peak_hbm_reported() {
        let g = tiny_attention();
        let rt = Runtime::hls1();
        let report = rt
            .run(&g, &Feeds::auto(0), NumericsMode::ShapeOnly)
            .unwrap();
        assert!(report.peak_hbm_bytes > 0);
        assert!(report.fits_hbm(32 << 30));
    }
}
