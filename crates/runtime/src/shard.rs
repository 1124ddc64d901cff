//! Sharded SPMD execution: run one partitioned graph across the simulated
//! cards of a box, in lockstep.
//!
//! The partitioning pass ([`gaudi_compiler::partition()`]) emits a *single*
//! per-device graph whose node shapes are the local shards. This executor
//! walks that graph once, holding one value per device per node, and
//! evaluates collectives with real group numerics (sum / concat / split /
//! rank-0 selection over the tensor-parallel group) — so multi-card runs can
//! be checked numerically against an unsharded single-device reference, not
//! just timed.
//!
//! Timing comes from [`gaudi_compiler::MultiDevicePlan`]: per-device engine
//! timelines with collectives priced on the NIC lanes, replayed into a
//! device-tagged [`Trace`].

use crate::interp::{eval_node, InterpError};
use crate::memory::estimate_peak_hbm;
use crate::runtime::{init_param, Feeds, NumericsMode, Runtime, RuntimeError};
use gaudi_compiler::{partition, MultiDevicePlan, Parallelism, PartitionSpec, PartitionedGraph};
use gaudi_exec::ExecPool;
use gaudi_graph::{CollectiveKind, Graph, OpKind};
use gaudi_hw::Topology;
use gaudi_profiler::trace::TraceSink;
use gaudi_profiler::Trace;
use gaudi_tensor::{ops, SeededRng, Tensor};

/// Everything a multi-device simulated run produces.
#[derive(Debug)]
pub struct MultiRunReport {
    /// Reassembled *full* output tensors in `graph.outputs()` order (shards
    /// gathered across the mesh; empty in shape-only mode).
    pub outputs: Vec<Tensor>,
    /// Device-tagged hardware trace: one lane group per card.
    pub trace: Trace,
    /// Simulated wall time in milliseconds.
    pub makespan_ms: f64,
    /// The per-device execution plans.
    pub plan: MultiDevicePlan,
    /// Estimated peak HBM usage *per card* in bytes.
    pub peak_hbm_bytes_per_device: u64,
    /// The compiled per-device graph the plans refer to.
    pub compiled_graph: Graph,
}

impl MultiRunReport {
    /// Collective (NIC) time as a fraction of the makespan.
    pub fn collective_share(&self) -> f64 {
        self.plan.collective_share()
    }
}

impl Runtime {
    /// Partition, compile, and execute a graph across `parallel.world()`
    /// simulated cards connected as an HLS-1-style box.
    ///
    /// The graph is the *unsharded* model; `spec` names its batch- and
    /// head-carrying inputs (see [`PartitionSpec::llm`]). Feeds bind **full**
    /// tensors — the executor slices them per device and reassembles the
    /// outputs, so callers see the same interface as [`Runtime::run`].
    pub fn run_partitioned(
        &self,
        graph: &Graph,
        parallel: Parallelism,
        spec: &PartitionSpec,
        feeds: &Feeds,
        mode: NumericsMode,
    ) -> Result<MultiRunReport, RuntimeError> {
        let topo = Topology::hls1_box(self.compiler().config(), parallel.world());
        self.run_partitioned_on(graph, parallel, spec, feeds, mode, &topo)
    }

    /// [`run_partitioned`](Self::run_partitioned) over an explicit
    /// interconnect instead of the default pristine HLS-1 box — the hook for
    /// fault injection: a [`Topology`] carrying link degradations reprices
    /// every collective against its bottleneck link, so a flaky cable shows
    /// up as longer NIC lanes and a larger collective share, not as a
    /// different numerical result.
    pub fn run_partitioned_on(
        &self,
        graph: &Graph,
        parallel: Parallelism,
        spec: &PartitionSpec,
        feeds: &Feeds,
        mode: NumericsMode,
        topo: &Topology,
    ) -> Result<MultiRunReport, RuntimeError> {
        let part = partition(graph, parallel, spec)?;
        let (compiled, plan) = self.compiler().compile_partitioned(&part, topo)?;

        // --- timing: replay every device's plan into one tagged trace ---
        let sink = TraceSink::new();
        for device_plan in &plan.device_plans {
            for step in &device_plan.steps {
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
        }
        let trace = sink.finish();

        // --- numerics ---
        let outputs = match mode {
            NumericsMode::ShapeOnly => Vec::new(),
            NumericsMode::Full => interpret_sharded(&compiled, &part, feeds, self.exec())?,
        };

        Ok(MultiRunReport {
            outputs,
            trace,
            makespan_ms: plan.makespan_ns / 1.0e6,
            peak_hbm_bytes_per_device: estimate_peak_hbm(&compiled),
            plan,
            compiled_graph: compiled,
        })
    }
}

/// Lockstep interpretation of the compiled per-device graph: one value per
/// device per node, collectives evaluated across the tensor-parallel group.
///
/// Compute ops fan the per-device evaluations of each step out on `pool`;
/// the cards of a lockstep step read only the previous steps' values, so
/// the parallel walk is bit-identical to the serial one. Input slicing,
/// parameter initialization (one shared RNG stream), and collectives stay
/// on the caller's thread — they are ordering-sensitive or memcpy-cheap.
fn interpret_sharded(
    g: &Graph,
    part: &PartitionedGraph,
    feeds: &Feeds,
    pool: &ExecPool,
) -> Result<Vec<Tensor>, RuntimeError> {
    let parallel = part.parallel;
    let world = parallel.world();
    let tp = parallel.tensor;
    let mut rng = SeededRng::new(feeds.seed);
    let mut values: Vec<Option<Vec<Tensor>>> = vec![None; g.len()];

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
        let per_device: Vec<Tensor> = match &node.kind {
            OpKind::Input => {
                let full = feeds
                    .inputs
                    .get(&node.name)
                    .ok_or_else(|| RuntimeError::MissingInput(node.name.clone()))?;
                let shard = part
                    .input_shards
                    .get(&node.name)
                    .copied()
                    .unwrap_or_default();
                (0..world)
                    .map(|d| {
                        let mut t = full.clone();
                        if let Some(ax) = shard.dp_axis {
                            t = slice_axis(&t, ax, parallel.data, parallel.dp_rank(d))?;
                        }
                        if let Some(ax) = shard.tp_axis {
                            t = slice_axis(&t, ax, tp, parallel.tp_rank(d))?;
                        }
                        Ok(t)
                    })
                    .collect::<Result<_, RuntimeError>>()?
            }
            OpKind::Parameter => {
                // Draw / fetch the FULL parameter (same RNG stream and node
                // order as the single-device interpreter), then shard it.
                let tp_axis = part.param_shards.get(&node.name).copied();
                let mut full_dims = node.shape.dims().to_vec();
                if let Some(ax) = tp_axis {
                    full_dims[ax] *= tp;
                }
                let full = match feeds.inputs.get(&node.name) {
                    Some(t) => t.clone(),
                    None => init_param(&node.name, &full_dims, feeds.param_std, &mut rng)?,
                };
                (0..world)
                    .map(|d| match tp_axis {
                        Some(ax) => slice_axis(&full, ax, tp, parallel.tp_rank(d)),
                        None => Ok(full.clone()),
                    })
                    .collect::<Result<_, RuntimeError>>()?
            }
            OpKind::Collective(kind) => {
                let src = values[node.inputs[0].index()].as_ref().ok_or_else(|| {
                    RuntimeError::Internal(format!(
                        "collective operand of '{}' freed before use",
                        node.name
                    ))
                })?;
                eval_collective(*kind, src, parallel)?
            }
            _ => pool.try_par_map_range(world, |d| {
                let inputs: Vec<&Tensor> = node
                    .inputs
                    .iter()
                    .map(|i| {
                        values[i.index()].as_ref().map(|v| &v[d]).ok_or_else(|| {
                            RuntimeError::Internal(format!(
                                "operand of '{}' freed before use",
                                node.name
                            ))
                        })
                    })
                    .collect::<Result<_, RuntimeError>>()?;
                eval_node(g, node, &inputs).map_err(RuntimeError::from)
            })?,
        };
        debug_assert!(
            per_device.iter().all(|t| t.dims() == node.shape.dims()),
            "local shard shape mismatch at {}",
            node.kind
        );
        values[node.id.index()] = Some(per_device);
        for &i in &node.inputs {
            if last_use[i.index()] == node.id.index() {
                values[i.index()] = None;
            }
        }
    }

    // Reassemble full outputs: gather tensor-parallel shards within each
    // replica group, then concatenate the batch across replica groups.
    g.outputs()
        .iter()
        .zip(&part.output_shards)
        .map(|(&o, shard)| {
            let vals = values[o.index()].as_ref().ok_or_else(|| {
                RuntimeError::Internal(format!(
                    "output '{}' not retained to the end of the run",
                    g.node(o).name
                ))
            })?;
            let mut groups = Vec::with_capacity(parallel.data);
            for dp in 0..parallel.data {
                let members = &vals[dp * tp..(dp + 1) * tp];
                groups.push(match shard.tp_axis {
                    Some(ax) => concat_axis(members, ax)?,
                    None => members[0].clone(),
                });
            }
            match shard.dp_axis {
                Some(ax) => concat_axis(&groups, ax),
                None => Ok(groups[0].clone()),
            }
        })
        .collect()
}

/// Evaluate one collective over every tensor-parallel group of the mesh.
/// `src[d]` is device `d`'s operand; the result vector is per-device too.
fn eval_collective(
    kind: CollectiveKind,
    src: &[Tensor],
    parallel: Parallelism,
) -> Result<Vec<Tensor>, RuntimeError> {
    let tp = parallel.tensor;
    let mut out: Vec<Tensor> = Vec::with_capacity(src.len());
    for dp in 0..parallel.data {
        let group = &src[dp * tp..(dp + 1) * tp];
        match kind {
            CollectiveKind::AllReduce => {
                let sum = group_sum(group)?;
                out.extend(std::iter::repeat_with(|| sum.clone()).take(tp));
            }
            CollectiveKind::AllGather { axis, .. } => {
                let gathered = concat_axis(group, axis)?;
                out.extend(std::iter::repeat_with(|| gathered.clone()).take(tp));
            }
            CollectiveKind::ReduceScatter { axis, .. } => {
                let sum = group_sum(group)?;
                for rank in 0..tp {
                    out.push(slice_axis(&sum, axis, tp, rank)?);
                }
            }
            CollectiveKind::Broadcast => {
                out.extend(std::iter::repeat_with(|| group[0].clone()).take(tp));
            }
        }
    }
    Ok(out)
}

fn group_sum(group: &[Tensor]) -> Result<Tensor, RuntimeError> {
    let mut sum = group[0].clone();
    for t in &group[1..] {
        sum = ops::add(&sum, t).map_err(|e| RuntimeError::Interp(InterpError::Tensor(e)))?;
    }
    Ok(sum)
}

/// Take the `idx`-th of `parts` equal slices of `t` along `axis`.
pub(crate) fn slice_axis(
    t: &Tensor,
    axis: usize,
    parts: usize,
    idx: usize,
) -> Result<Tensor, RuntimeError> {
    let dims = t.dims();
    if axis >= dims.len() || parts == 0 || idx >= parts || !dims[axis].is_multiple_of(parts) {
        return Err(RuntimeError::Internal(format!(
            "cannot take slice {idx}/{parts} of axis {axis} of a {dims:?} tensor"
        )));
    }
    let chunk = dims[axis] / parts;
    let inner: usize = dims[axis + 1..].iter().product();
    let outer: usize = dims[..axis].iter().product();
    let mut out_dims = dims.to_vec();
    out_dims[axis] = chunk;
    let mut out = Vec::with_capacity(outer * chunk * inner);
    for o in 0..outer {
        let base = o * dims[axis] * inner + idx * chunk * inner;
        out.extend_from_slice(&t.data()[base..base + chunk * inner]);
    }
    Tensor::from_vec(&out_dims, out).map_err(|e| RuntimeError::Interp(InterpError::Tensor(e)))
}

/// Concatenate equally-shaped tensors along `axis`.
pub(crate) fn concat_axis(parts: &[Tensor], axis: usize) -> Result<Tensor, RuntimeError> {
    let first = parts
        .first()
        .ok_or_else(|| RuntimeError::Internal("concat of zero shards".to_string()))?;
    let dims = first.dims();
    if axis >= dims.len() || parts.iter().any(|p| p.dims() != dims) {
        return Err(RuntimeError::Internal(format!(
            "cannot concatenate {} shards along axis {axis} of {dims:?}",
            parts.len()
        )));
    }
    let chunk = dims[axis];
    let inner: usize = dims[axis + 1..].iter().product();
    let outer: usize = dims[..axis].iter().product();
    let mut out_dims = dims.to_vec();
    out_dims[axis] = chunk * parts.len();
    let mut out = Vec::with_capacity(outer * chunk * inner * parts.len());
    for o in 0..outer {
        for p in parts {
            out.extend_from_slice(&p.data()[o * chunk * inner..(o + 1) * chunk * inner]);
        }
    }
    Tensor::from_vec(&out_dims, out).map_err(|e| RuntimeError::Interp(InterpError::Tensor(e)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaudi_graph::Activation;

    fn slice_concat_roundtrip(dims: &[usize], axis: usize, parts: usize) {
        let n: usize = dims.iter().product();
        let t = Tensor::from_vec(dims, (0..n).map(|i| i as f32).collect()).unwrap();
        let shards: Vec<Tensor> = (0..parts)
            .map(|i| slice_axis(&t, axis, parts, i).unwrap())
            .collect();
        let back = concat_axis(&shards, axis).unwrap();
        assert_eq!(back.dims(), t.dims());
        assert_eq!(back.data(), t.data());
    }

    #[test]
    fn slice_and_concat_are_inverses() {
        slice_concat_roundtrip(&[4, 6], 0, 2);
        slice_concat_roundtrip(&[4, 6], 1, 3);
        slice_concat_roundtrip(&[2, 4, 6], 1, 4);
        slice_concat_roundtrip(&[2, 4, 6], 2, 2);
    }

    #[test]
    fn slice_rejects_indivisible_axes() {
        let t = Tensor::ones(&[3, 5]).unwrap();
        assert!(slice_axis(&t, 1, 2, 0).is_err());
        assert!(slice_axis(&t, 2, 1, 0).is_err());
        assert!(slice_axis(&t, 0, 3, 3).is_err());
    }

    /// Megatron MLP: col-parallel fc1 + gelu + row-parallel fc2.
    fn mlp(d: usize, hidden: usize) -> Graph {
        let mut g = Graph::new();
        let x = g.input("x", &[4, 8, d]).unwrap();
        let w1 = g.parameter("mlp.fc1.w", &[d, hidden]).unwrap();
        let b1 = g.parameter("mlp.fc1.b", &[hidden]).unwrap();
        let h = g.matmul(x, w1).unwrap();
        let h = g.add(h, b1).unwrap();
        let h = g.activation(Activation::Gelu, h).unwrap();
        let w2 = g.parameter("mlp.fc2.w", &[hidden, d]).unwrap();
        let b2 = g.parameter("mlp.fc2.b", &[d]).unwrap();
        let y = g.matmul(h, w2).unwrap();
        let y = g.add(y, b2).unwrap();
        g.mark_output(y);
        g
    }

    fn mlp_feeds(d: usize) -> Feeds {
        let mut rng = SeededRng::new(11);
        let x = Tensor::randn(&[4, 8, d], 1.0, &mut rng).unwrap();
        Feeds::auto(3).with_input("x", x)
    }

    #[test]
    fn tensor_parallel_mlp_matches_single_device() {
        let g = mlp(16, 32);
        let feeds = mlp_feeds(16);
        let rt = Runtime::hls1();
        let reference = rt.run(&g, &feeds, NumericsMode::Full).unwrap();
        for tp in [2, 4] {
            let multi = rt
                .run_partitioned(
                    &g,
                    Parallelism::tensor(tp),
                    &PartitionSpec::llm(),
                    &feeds,
                    NumericsMode::Full,
                )
                .unwrap();
            let diff = multi.outputs[0].max_abs_diff(&reference.outputs[0]);
            assert!(diff < 1e-4, "tp={tp}: diff {diff}");
        }
    }

    #[test]
    fn data_parallel_mlp_matches_single_device() {
        let g = mlp(16, 32);
        let feeds = mlp_feeds(16);
        let rt = Runtime::hls1();
        let reference = rt.run(&g, &feeds, NumericsMode::Full).unwrap();
        let spec = PartitionSpec {
            batch_inputs: vec!["x".into()],
            ..PartitionSpec::default()
        };
        let multi = rt
            .run_partitioned(&g, Parallelism::data(2), &spec, &feeds, NumericsMode::Full)
            .unwrap();
        assert_eq!(multi.outputs[0].dims(), reference.outputs[0].dims());
        let diff = multi.outputs[0].max_abs_diff(&reference.outputs[0]);
        assert!(diff < 1e-5, "dp=2: diff {diff}");
    }

    #[test]
    fn degraded_links_stretch_collectives_not_numerics() {
        use gaudi_hw::fault::LinkDegradation;
        use gaudi_hw::DeviceId;

        let g = mlp(16, 32);
        let feeds = mlp_feeds(16);
        let rt = Runtime::hls1();
        let parallel = Parallelism::tensor(2);
        let clean = rt
            .run_partitioned(
                &g,
                parallel,
                &PartitionSpec::llm(),
                &feeds,
                NumericsMode::Full,
            )
            .unwrap();
        let topo = Topology::hls1_box(rt.compiler().config(), parallel.world()).degraded(&[
            LinkDegradation {
                a: DeviceId(0),
                b: DeviceId(1),
                factor: 0.25,
                window: None,
            },
        ]);
        let slow = rt
            .run_partitioned_on(
                &g,
                parallel,
                &PartitionSpec::llm(),
                &feeds,
                NumericsMode::Full,
                &topo,
            )
            .unwrap();
        assert!(
            slow.makespan_ms > clean.makespan_ms,
            "a 4x slower link must lengthen the run ({} vs {})",
            slow.makespan_ms,
            clean.makespan_ms
        );
        assert!(
            slow.collective_share() > clean.collective_share(),
            "the extra time is all NIC time"
        );
        // The fabric got slower, not wrong.
        let diff = slow.outputs[0].max_abs_diff(&clean.outputs[0]);
        assert_eq!(diff, 0.0, "degradation must not perturb numerics");
    }

    #[test]
    fn trace_has_one_lane_group_per_device() {
        let g = mlp(16, 32);
        let feeds = mlp_feeds(16);
        let rt = Runtime::hls1();
        let multi = rt
            .run_partitioned(
                &g,
                Parallelism::tensor(2),
                &PartitionSpec::llm(),
                &feeds,
                NumericsMode::ShapeOnly,
            )
            .unwrap();
        assert_eq!(multi.trace.devices().len(), 2);
        assert!(multi.trace.check_no_overlap().is_none());
        assert!(multi.collective_share() > 0.0);
    }
}
