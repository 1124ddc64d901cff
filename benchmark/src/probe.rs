//! Per-layer probes the traced run makes from outside the simulator: the
//! graph builders and compiler passes over a workload's phase-shape grid,
//! and the dispatch calendar under the workload's arrival keys.

use crate::stats::Summary;
use crate::trace::Recorder;
use crate::workloads::ProbeShape;
use gaudi_compiler::{eliminate_dead_code, fuse_attention, plan_memory, GraphCompiler};
use gaudi_models::{build_decode_step, build_prefill};
use gaudi_serving::EventCalendar;
use std::hint::black_box;

/// Median per-call host times over the shape grid, and node counts.
#[derive(Debug, Clone, Default)]
pub struct CompileProbe {
    pub build_ms: f64,
    /// Nodes built, summed over the grid.
    pub nodes: u64,
    pub dce_ms: f64,
    pub fuse_attention_ms: f64,
    /// `GraphCompiler::compile` self time: the call minus its DCE and
    /// attention-fusion passes (validation, lowering, scheduling).
    pub schedule_ms: f64,
    pub compile_ms: f64,
    pub memplan_ms: f64,
    /// Nodes DCE and attention fusion removed, summed over the grid.
    pub nodes_removed: u64,
}

/// Lengths `bucket, 2·bucket, …` up to `max` rounded up to the bucket.
fn buckets(bucket: usize, max: usize) -> impl Iterator<Item = usize> {
    (1..=max.div_ceil(bucket)).map(move |i| i * bucket)
}

/// Build and compile every prefill (batch 1, each prompt bucket) and
/// decode (each probed batch, each context bucket) graph of `shape`,
/// timing each builder and pass call inside its own span.
pub fn compile_probe(shape: &ProbeShape, rec: &mut Recorder) -> Result<CompileProbe, String> {
    let compiler = GraphCompiler::new(shape.hw.clone(), shape.opts.clone());
    let mut grid: Vec<(bool, usize, usize)> = buckets(shape.bucket, shape.max_prompt)
        .map(|len| (true, 1, len))
        .collect();
    for &b in &shape.batches {
        grid.extend(buckets(shape.bucket, shape.max_ctx).map(|ctx| (false, b, ctx)));
    }
    // Per-call ms: build, DCE, fusion, compile, memplan, compile self time.
    let mut t: [Vec<f64>; 6] = Default::default();
    let mut out = CompileProbe::default();
    for (prefill, batch, len) in grid {
        let (graph, build) = if prefill {
            rec.time(format!("build_prefill b{batch} len{len}"), "models", || {
                build_prefill(&shape.model, batch, len).map(|(g, _)| g)
            })
        } else {
            rec.time(
                format!("build_decode_step b{batch} ctx{len}"),
                "models",
                || build_decode_step(&shape.model, batch, len).map(|(g, _)| g),
            )
        };
        let graph = graph.map_err(|e| format!("probe: graph build failed: {e}"))?;
        out.nodes += graph.len() as u64;

        let (pruned, dce) = if shape.opts.dce {
            let (r, s) = rec.time("eliminate_dead_code", "compiler", || {
                eliminate_dead_code(&graph)
            });
            let (g, removed) = r.map_err(|e| format!("probe: DCE failed: {e}"))?;
            out.nodes_removed += removed as u64;
            (g, s)
        } else {
            (graph.clone(), 0.0)
        };
        let fuse = if shape.opts.fuse_attention {
            let (r, s) = rec.time("fuse_attention", "compiler", || fuse_attention(&pruned));
            let (_, stats) = r.map_err(|e| format!("probe: attention fusion failed: {e}"))?;
            out.nodes_removed += stats.ops_removed as u64;
            s
        } else {
            0.0
        };
        let (compiled, compile) = rec.time("GraphCompiler::compile", "compiler", || {
            compiler.compile(&graph)
        });
        let (scheduled, _) = compiled.map_err(|e| format!("probe: compile failed: {e}"))?;
        let (plan, memplan) = rec.time("plan_memory", "compiler", || plan_memory(&scheduled));
        black_box(plan);

        for (i, s) in [build, dce, fuse, compile, memplan, compile - dce - fuse]
            .into_iter()
            .enumerate()
        {
            t[i].push(s * 1e3);
        }
    }
    let median = |v: &[f64]| Summary::of(v).median;
    out.build_ms = median(&t[0]);
    out.dce_ms = median(&t[1]);
    out.fuse_attention_ms = median(&t[2]);
    out.compile_ms = median(&t[3]);
    out.memplan_ms = median(&t[4]);
    out.schedule_ms = median(&t[5]);
    Ok(out)
}

/// Events the calendar probe drives, at least: small streams are replayed.
const CALENDAR_EVENTS: usize = 1_000_000;
/// Next-deadline peeks per pop, the engine's steady-state ratio.
const PEEKS_PER_POP: usize = 4;

/// Host ns per calendar event (one push, [`PEEKS_PER_POP`] peeks, one
/// pop) over `keys` pushed in arrival order and drained, replayed until at
/// least [`CALENDAR_EVENTS`] events ran. Fails if the calendar ever pops
/// out of key order.
pub fn calendar_probe(keys: &[(u64, u64)], rec: &mut Recorder) -> Result<f64, String> {
    let rounds = CALENDAR_EVENTS.div_ceil(keys.len().max(1));
    let id = rec.open(format!("EventCalendar x{rounds}"), "serving.calendar");
    let mut in_order = true;
    for _ in 0..rounds {
        let mut cal: EventCalendar<u64> = EventCalendar::with_capacity(keys.len());
        for &(t, seq) in keys {
            cal.push(t, seq, seq);
        }
        let mut last = (0, 0);
        loop {
            for _ in 0..PEEKS_PER_POP {
                black_box(cal.peek_key());
            }
            match cal.pop() {
                Some((key, payload)) => {
                    in_order &= key >= last && payload == key.1;
                    last = key;
                }
                None => break,
            }
        }
    }
    let secs = rec.close(id);
    if !in_order {
        return Err("calendar_order: the calendar popped out of key order".into());
    }
    Ok(secs * 1e9 / (rounds * keys.len()) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_the_rounded_range() {
        assert_eq!(buckets(32, 64).collect::<Vec<_>>(), vec![32, 64]);
        assert_eq!(buckets(32, 65).collect::<Vec<_>>(), vec![32, 64, 96]);
    }

    #[test]
    fn calendar_probe_checks_order() {
        let keys: Vec<(u64, u64)> = (0..1000).map(|i| (i / 3, i)).collect();
        let mut rec = Recorder::new();
        assert!(calendar_probe(&keys, &mut rec).unwrap() > 0.0);
        assert_eq!(rec.spans().len(), 1);
    }
}
