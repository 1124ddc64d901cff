//! The metrics the benchmark emits: names, units, directions, and for each
//! per-layer metric the end-to-end metric and workload it should move.
//! `BENCHMARK.json` declares the same names (a test keeps the two equal)
//! and holds the regression bounds.

use crate::paper::Figs;
use crate::probe::CompileProbe;
use crate::workloads::{Call, Outcome, Slo};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End to end: what it measures. Per layer: the end-to-end metric (and
    /// workload) a change to this layer number should move.
    pub about: &'static str,
}

const fn spec(name: &'static str, unit: &'static str, better: Better, about: &'static str) -> Spec {
    Spec {
        name,
        unit,
        better,
        about,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, emitted by every workload's untraced run. Host
/// metrics come from fresh-process reps; the rest are simulated and must
/// repeat bit for bit across reps.
#[rustfmt::skip]
pub const E2E: [Spec; 11] = [
    spec("setup_s", "s", Lower, "host: set-up to inputs ready (configs, streams, campaign), in paced CPU s"),
    spec("host_s", "s", Lower, "host: inputs ready to the last simulator report, in paced CPU s"),
    spec("peak_rss_mb", "MB", Lower, "host: the rep's peak resident memory (VmHWM)"),
    spec("goodput_tok_s", "tok/s", Higher, "simulated: tokens of completed requests per second"),
    spec("ttft_p50_ms", "ms", Lower, "simulated: median time to first token"),
    spec("ttft_p99_ms", "ms", Lower, "simulated: 99th-percentile time to first token"),
    spec("tpot_mean_ms", "ms", Lower, "simulated: mean gap between output tokens"),
    spec("drop_frac", "frac", Lower, "simulated: share of offered requests not served within the SLO"),
    spec("service_avail", "frac", Higher, "simulated: faulted goodput over the fault-free twin's"),
    spec("calib_err_pct", "%", Lower, "paper: mean error over the 25 Table 2 values tuned on"),
    spec("paper_err_pct", "%", Lower, "paper: mean error over held-out Fig. 4-7 values"),
];

/// Per-layer metrics, emitted by every workload's traced run.
#[rustfmt::skip]
pub const PER_LAYER: [Spec; 49] = [
    spec("serving.request.generate_s", "s", Lower, "setup_s on cluster_1m"),
    spec("models.build_ms", "ms", Lower, "host_s on xl_sweep"),
    spec("models.nodes", "count", Lower, "host_s on xl_sweep"),
    spec("compiler.dce_ms", "ms", Lower, "host_s on xl_sweep"),
    spec("compiler.fuse_attention_ms", "ms", Lower, "host_s on xl_sweep"),
    spec("compiler.schedule_ms", "ms", Lower, "host_s on xl_sweep"),
    spec("compiler.compile_ms", "ms", Lower, "host_s on xl_sweep"),
    spec("compiler.memplan_ms", "ms", Lower, "host_s on xl_sweep"),
    spec("compiler.nodes_removed", "count", Higher, "host_s on xl_sweep"),
    spec("serving.cost.plan_misses", "count", Lower, "host_s on xl_sweep"),
    spec("serving.cost.plan_hits", "count", Higher, "host_s on xl_sweep"),
    spec("serving.cost.cold_share", "frac", Lower, "host_s on xl_sweep"),
    spec("serving.engine.warm_s", "s", Lower, "host_s on cluster_1m and fault_storm"),
    spec("serving.engine.ns_per_step", "ns", Lower, "host_s on cluster_1m and fault_storm"),
    spec("serving.engine.decode_steps", "count", Lower, "host_s on cluster_1m and fault_storm"),
    spec("serving.engine.prefills", "count", Lower, "host_s on cluster_1m and fault_storm"),
    spec("serving.engine.mean_batch", "count", Higher, "goodput_tok_s and tpot_mean_ms"),
    spec("serving.engine.padding_waste", "frac", Lower, "goodput_tok_s and tpot_mean_ms"),
    spec("serving.engine.queue_p50_ms", "ms", Lower, "ttft_p99_ms"),
    spec("serving.engine.max_queue_depth", "count", Lower, "ttft_p99_ms"),
    spec("serving.calendar.ns_per_op", "ns", Lower, "host_s on cluster_1m"),
    spec("serving.cluster.cross_box_frac", "frac", Lower, "ttft_p99_ms on cluster_1m"),
    spec("serving.cluster.imbalance", "ratio", Lower, "ttft_p99_ms on cluster_1m"),
    spec("serving.kv.peak_frac", "frac", Lower, "goodput_tok_s and ttft_p99_ms on fault_storm"),
    spec("serving.kv.block_util", "frac", Higher, "goodput_tok_s and ttft_p99_ms on fault_storm"),
    spec("serving.kv.preemptions", "count", Lower, "goodput_tok_s and ttft_p99_ms on fault_storm"),
    spec("serving.kv.backpressure_stalls", "count", Lower, "goodput_tok_s and ttft_p99_ms on fault_storm"),
    spec("serving.fault.restarts", "count", Lower, "service_avail on fault_storm"),
    spec("serving.fault.retries", "count", Lower, "service_avail on fault_storm"),
    spec("serving.fault.requeued_tokens", "count", Lower, "service_avail on fault_storm"),
    spec("serving.fault.recovered_tokens", "count", Higher, "service_avail on fault_storm"),
    spec("serving.fault.checkpoint_bytes", "bytes", Lower, "service_avail on fault_storm"),
    spec("serving.fault.restore_frac", "frac", Lower, "service_avail on fault_storm"),
    spec("serving.fault.card_avail", "frac", Higher, "service_avail on fault_storm"),
    spec("serving.fault.shed", "count", Lower, "drop_frac on fault_storm"),
    spec("serving.fault.timed_out", "count", Lower, "drop_frac on fault_storm"),
    spec("serving.fault.failed", "count", Lower, "drop_frac on fault_storm"),
    spec("serving.fault.host_ratio", "ratio", Lower, "host_s on fault_storm"),
    spec("serving.sweep.slo_rate_rps", "req/s", Higher, "drop_frac on xl_sweep"),
    spec("hw.mme_util", "frac", Higher, "goodput_tok_s"),
    spec("hw.tpc_util", "frac", Higher, "goodput_tok_s"),
    spec("hw.dma_util", "frac", Lower, "goodput_tok_s"),
    spec("hw.fig4_mme_idle_frac", "frac", Lower, "paper_err_pct"),
    spec("hw.fig4_longest_gap_frac", "frac", Lower, "paper_err_pct"),
    spec("hw.fig4_softmax_tpc_share", "frac", Lower, "paper_err_pct"),
    spec("hw.fig8_mme_util", "frac", Higher, "paper_err_pct"),
    spec("hw.fig8_overlap", "frac", Higher, "paper_err_pct"),
    spec("hw.fig8_peak_hbm_gib", "GiB", Lower, "paper_err_pct"),
    spec("bench.trace_overhead_frac", "frac", Lower, "none: the traced cold run over the untraced one before it, minus 1"),
];

/// The layer a per-layer metric belongs to: its name up to the last dot.
pub fn layer_of(name: &str) -> &str {
    name.rsplit_once('.').map_or("", |(layer, _)| layer)
}

/// Whether `name` is a well-formed metric or workload name: starts with a
/// letter or digit, at most 64 of `[A-Za-z0-9_.-]`.
#[cfg(test)]
fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Host timings a traced rep takes around its calls.
#[derive(Debug, Clone, Default)]
pub struct Timing {
    /// Request-stream generation, summed over the workload's streams.
    pub generate_s: f64,
    /// An untraced run on a cold plan cache, before the traced one.
    pub untraced_s: f64,
    /// The traced run, on another cold plan cache.
    pub cold_s: f64,
    /// The same calls again on the now-warm cache.
    pub warm_s: f64,
    /// Warm duration of each call.
    pub warm_calls: Vec<(Call, f64)>,
    /// Plan-cache misses and hits after the cold run.
    pub plan_misses: u64,
    pub plan_hits: u64,
    /// Host ns per dispatch-calendar event.
    pub calendar_ns: f64,
}

/// The per-layer values a traced rep measures: every [`PER_LAYER`] name.
/// A metric a workload does not exercise reads 0.
pub fn layer_values(
    outcome: &Outcome,
    slo: Slo,
    t: &Timing,
    probe: &CompileProbe,
    figs: &Figs,
) -> Vec<(&'static str, f64)> {
    let h = outcome.headline();
    let reports = outcome.reports();
    let decode_steps: usize = reports.iter().map(|r| r.decode_steps).sum();
    let prefills: usize = reports.iter().map(|r| r.prefills).sum();
    let steps = (decode_steps + prefills).max(1) as f64;
    let warm = |c: Call| t.warm_calls.iter().find(|(x, _)| *x == c).map(|(_, s)| *s);
    let host_ratio = match (warm(Call::Faulted), warm(Call::Twin)) {
        (Some(f), Some(c)) => f / c,
        _ => 0.0,
    };
    // A cluster weighs each box's card availability against that box's own
    // makespan; the merged report would measure every box against the
    // slowest one.
    let (cross_box_frac, imbalance, card_avail) = match outcome {
        Outcome::Cluster { report } => (
            report.cross_box_fraction(),
            report.imbalance(),
            report.availability(),
        ),
        _ => (0.0, 0.0, h.availability()),
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    vec![
        ("serving.request.generate_s", t.generate_s),
        ("models.build_ms", probe.build_ms),
        ("models.nodes", probe.nodes as f64),
        ("compiler.dce_ms", probe.dce_ms),
        ("compiler.fuse_attention_ms", probe.fuse_attention_ms),
        ("compiler.schedule_ms", probe.schedule_ms),
        ("compiler.compile_ms", probe.compile_ms),
        ("compiler.memplan_ms", probe.memplan_ms),
        ("compiler.nodes_removed", probe.nodes_removed as f64),
        ("serving.cost.plan_misses", t.plan_misses as f64),
        ("serving.cost.plan_hits", t.plan_hits as f64),
        (
            "serving.cost.cold_share",
            ratio(t.cold_s - t.warm_s, t.cold_s),
        ),
        ("serving.engine.warm_s", t.warm_s),
        ("serving.engine.ns_per_step", t.warm_s * 1e9 / steps),
        ("serving.engine.decode_steps", decode_steps as f64),
        ("serving.engine.prefills", prefills as f64),
        ("serving.engine.mean_batch", h.mean_decode_batch()),
        ("serving.engine.padding_waste", h.padding_waste()),
        ("serving.engine.queue_p50_ms", h.queue_ms.p50),
        ("serving.engine.max_queue_depth", h.max_queue_depth as f64),
        ("serving.calendar.ns_per_op", t.calendar_ns),
        ("serving.cluster.cross_box_frac", cross_box_frac),
        ("serving.cluster.imbalance", imbalance),
        (
            "serving.kv.peak_frac",
            ratio(h.kv_peak_bytes as f64, h.kv_capacity_bytes as f64),
        ),
        ("serving.kv.block_util", h.kv_block_utilization),
        ("serving.kv.preemptions", h.preemptions as f64),
        (
            "serving.kv.backpressure_stalls",
            h.backpressure_stalls as f64,
        ),
        ("serving.fault.restarts", h.restarts as f64),
        ("serving.fault.retries", h.retries as f64),
        ("serving.fault.requeued_tokens", h.requeued_tokens as f64),
        ("serving.fault.recovered_tokens", h.recovered_tokens as f64),
        ("serving.fault.checkpoint_bytes", h.checkpoint_bytes as f64),
        (
            "serving.fault.restore_frac",
            ratio(h.restore_ms, h.makespan_ms * h.devices as f64),
        ),
        ("serving.fault.card_avail", card_avail),
        ("serving.fault.shed", h.shed() as f64),
        ("serving.fault.timed_out", h.timed_out() as f64),
        ("serving.fault.failed", h.failed() as f64),
        ("serving.fault.host_ratio", host_ratio),
        ("serving.sweep.slo_rate_rps", outcome.slo_rate_rps(slo)),
        ("hw.mme_util", h.mme_utilization),
        ("hw.tpc_util", h.tpc_utilization),
        ("hw.dma_util", h.dma_utilization),
        ("hw.fig4_mme_idle_frac", figs.fig4_mme_idle_frac),
        ("hw.fig4_longest_gap_frac", figs.fig4_longest_gap_frac),
        ("hw.fig4_softmax_tpc_share", figs.fig4_softmax_tpc_share),
        ("hw.fig8_mme_util", figs.fig8_mme_util),
        ("hw.fig8_overlap", figs.fig8_overlap),
        ("hw.fig8_peak_hbm_gib", figs.fig8_peak_hbm_gib),
        (
            "bench.trace_overhead_frac",
            ratio(t.cold_s, t.untraced_s) - 1.0,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use crate::workloads::Workload;
    use gaudi_models::LlmConfig;
    use gaudi_serving::{ClusterConfig, ServingConfig, TrafficConfig};
    use std::collections::BTreeSet;

    #[test]
    fn name_rule_accepts_only_the_declared_alphabet() {
        for ok in ["host_s", "serving.kv.peak_frac", "a-b.c_9", "9lives"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/es",
            "ünï",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        let all: Vec<&str> = E2E
            .iter()
            .chain(&PER_LAYER)
            .map(|s| s.name)
            .chain(Workload::ALL.map(Workload::name))
            .collect();
        assert!(all.iter().all(|n| valid_name(n)));
        assert_eq!(
            all.iter().collect::<BTreeSet<_>>().len(),
            all.len(),
            "names are unique"
        );
    }

    fn declared(section: &str) -> Vec<(String, String, String)> {
        let decl = json::parse(crate::DECLARATION).expect("BENCHMARK.json parses");
        let field = |m: &Value, k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
        decl.get(section)
            .expect("section present")
            .items()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect()
    }

    fn specs(s: &[Spec]) -> Vec<(String, String, String)> {
        s.iter()
            .map(|s| (s.name.into(), s.unit.into(), s.better.as_str().into()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics_and_workloads() {
        assert_eq!(declared("end_to_end"), specs(&E2E));
        assert_eq!(declared("per_layer"), specs(&PER_LAYER));
        let workloads: Vec<String> = declared("workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
    }

    /// A small serving report, standing in for each workload's output.
    fn tiny() -> ServingConfig {
        let mut model = LlmConfig::tiny(97);
        model.training = false;
        ServingConfig::builder()
            .model(model)
            .traffic(TrafficConfig {
                arrival_rate_per_s: 200.0,
                num_requests: 12,
                prompt_range: (8, 16),
                output_range: (2, 4),
                zipf_s: 1.1,
                seed: 1,
            })
            .build()
    }

    #[test]
    fn every_workload_emits_every_declared_metric() {
        let r = gaudi_serving::simulate(&tiny()).expect("tiny stream simulates");
        let cluster = gaudi_serving::simulate_cluster(&ClusterConfig::new(tiny(), 2, 1))
            .expect("tiny cluster simulates");
        let outcomes = [
            Outcome::Cluster { report: cluster },
            Outcome::Sweep {
                reports: vec![r.clone(); 18],
            },
            Outcome::Storm {
                twin: r.clone(),
                faulted: r,
                kills: 1,
            },
        ];
        let want = |s: &[Spec]| s.iter().map(|s| s.name).collect::<BTreeSet<_>>();
        for (w, outcome) in Workload::ALL.iter().zip(&outcomes) {
            // What a rep prints: host timings, simulated metrics, fidelity.
            let mut e2e: BTreeSet<&str> = ["setup_s", "host_s", "peak_rss_mb"].into();
            e2e.extend(outcome.sim_metrics(w.slo()).iter().map(|m| m.0));
            e2e.extend(["calib_err_pct", "paper_err_pct"]);
            assert_eq!(e2e, want(&E2E), "{}", w.name());

            let layer: BTreeSet<&str> = layer_values(
                outcome,
                w.slo(),
                &Timing::default(),
                &CompileProbe::default(),
                &Figs::default(),
            )
            .iter()
            .map(|m| m.0)
            .collect();
            assert_eq!(layer, want(&PER_LAYER), "{}", w.name());
        }
    }
}
