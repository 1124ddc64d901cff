//! Timeline analysis: the quantities the paper reads off its trace figures.
//!
//! * per-engine busy/idle fractions and idle-gap lists — "there are many
//!   blank areas in the MME operating area" (Figures 4, 8, 9);
//! * per-operator time breakdowns — "the running time of softmax exceeds 80%
//!   of the total running time" (Figure 4);
//! * engine overlap — "there is no good overlap between MME and TPC" (§3.4).

use crate::trace::Trace;
use gaudi_hw::EngineId;
use std::collections::BTreeMap;

/// An idle interval on an engine lane.
#[derive(Debug, Clone, PartialEq)]
pub struct Gap {
    /// Gap start in nanoseconds.
    pub start_ns: f64,
    /// Gap duration in nanoseconds.
    pub dur_ns: f64,
}

/// Busy/idle statistics for one engine lane.
#[derive(Debug, Clone)]
pub struct EngineStats {
    /// The engine.
    pub engine: EngineId,
    /// Total busy time in nanoseconds.
    pub busy_ns: f64,
    /// Busy time divided by the trace span.
    pub utilization: f64,
    /// Idle gaps between the engine's first and last event, longest first.
    pub gaps: Vec<Gap>,
    /// Number of events on the lane.
    pub events: usize,
}

/// Aggregated analysis of a trace.
#[derive(Debug, Clone)]
pub struct TraceAnalysis {
    /// Trace span (makespan) in nanoseconds.
    pub span_ns: f64,
    /// Per-engine statistics.
    pub engines: Vec<EngineStats>,
    /// Total busy nanoseconds per operator name, across engines.
    pub op_breakdown: BTreeMap<String, f64>,
}

impl TraceAnalysis {
    /// Analyze a trace.
    pub fn of(trace: &Trace) -> Self {
        let span_ns = trace.span_ns();
        let mut engines = Vec::new();
        for engine in trace.engines() {
            let evs = trace.engine_events(engine);
            let busy_ns: f64 = evs.iter().map(|e| e.dur_ns).sum();
            let mut gaps = Vec::new();
            for w in evs.windows(2) {
                let gap = w[1].start_ns - w[0].end_ns();
                if gap > 1e-6 {
                    gaps.push(Gap {
                        start_ns: w[0].end_ns(),
                        dur_ns: gap,
                    });
                }
            }
            gaps.sort_by(|a, b| b.dur_ns.total_cmp(&a.dur_ns));
            engines.push(EngineStats {
                engine,
                busy_ns,
                utilization: if span_ns > 0.0 {
                    busy_ns / span_ns
                } else {
                    0.0
                },
                gaps,
                events: evs.len(),
            });
        }
        let mut op_breakdown: BTreeMap<String, f64> = BTreeMap::new();
        for e in trace.events() {
            *op_breakdown.entry(e.name.clone()).or_insert(0.0) += e.dur_ns;
        }
        TraceAnalysis {
            span_ns,
            engines,
            op_breakdown,
        }
    }

    /// Statistics for one engine, if present in the trace.
    pub fn engine(&self, engine: EngineId) -> Option<&EngineStats> {
        self.engines.iter().find(|e| e.engine == engine)
    }

    /// Fraction of an engine's *busy* time spent in operators whose name
    /// contains `needle` (e.g. softmax share of TPC time, Figure 4).
    pub fn op_share_of_engine(&self, trace: &Trace, engine: EngineId, needle: &str) -> f64 {
        let busy: f64 = trace
            .events()
            .iter()
            .filter(|e| e.engine == engine)
            .map(|e| e.dur_ns)
            .sum();
        if busy <= 0.0 {
            return 0.0;
        }
        // An empty `f64` sum is -0.0: fold from +0.0 so that no match is a
        // plain zero share.
        let matched = trace
            .events()
            .iter()
            .filter(|e| e.engine == engine && e.name.contains(needle))
            .fold(0.0, |sum, e| sum + e.dur_ns);
        matched / busy
    }

    /// Time both compute engines (MME and TPC) are simultaneously busy,
    /// normalized by the smaller engine busy time: 1.0 = perfect overlap.
    pub fn compute_overlap(&self, trace: &Trace) -> f64 {
        let mme = intervals(trace, EngineId::Mme);
        let tpc = intervals(trace, EngineId::TpcCluster);
        let both = intersect_len(&mme, &tpc);
        let min_busy = total_len(&mme).min(total_len(&tpc));
        if min_busy <= 0.0 {
            0.0
        } else {
            both / min_busy
        }
    }
}

fn intervals(trace: &Trace, engine: EngineId) -> Vec<(f64, f64)> {
    trace
        .engine_events(engine)
        .iter()
        .map(|e| (e.start_ns, e.end_ns()))
        .collect()
}

fn total_len(iv: &[(f64, f64)]) -> f64 {
    iv.iter().map(|(s, e)| e - s).sum()
}

fn intersect_len(a: &[(f64, f64)], b: &[(f64, f64)]) -> f64 {
    let mut total = 0.0;
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if hi > lo {
            total += hi - lo;
        }
        if a[i].1 < b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEvent;

    fn ev(name: &str, engine: EngineId, start: f64, dur: f64) -> TraceEvent {
        TraceEvent::basic(name, "t", engine, start, dur)
    }

    fn sample() -> Trace {
        let mut t = Trace::new();
        t.push(ev("matmul", EngineId::Mme, 0.0, 10.0));
        t.push(ev("matmul", EngineId::Mme, 30.0, 10.0));
        t.push(ev("softmax", EngineId::TpcCluster, 10.0, 20.0));
        t.push(ev("add", EngineId::TpcCluster, 30.0, 5.0));
        t
    }

    #[test]
    fn busy_utilization_and_gaps() {
        let t = sample();
        let a = TraceAnalysis::of(&t);
        assert_eq!(a.span_ns, 40.0);
        let mme = a.engine(EngineId::Mme).unwrap();
        assert_eq!(mme.busy_ns, 20.0);
        assert!((mme.utilization - 0.5).abs() < 1e-9);
        assert_eq!(mme.gaps.len(), 1);
        assert_eq!(mme.gaps[0].dur_ns, 20.0);
        assert_eq!(a.span_ns - mme.busy_ns, 20.0);
    }

    #[test]
    fn op_breakdown_sums_durations() {
        let a = TraceAnalysis::of(&sample());
        assert_eq!(a.op_breakdown["matmul"], 20.0);
        assert_eq!(a.op_breakdown["softmax"], 20.0);
    }

    #[test]
    fn softmax_share_of_tpc() {
        let t = sample();
        let a = TraceAnalysis::of(&t);
        let share = a.op_share_of_engine(&t, EngineId::TpcCluster, "softmax");
        assert!((share - 0.8).abs() < 1e-9);
    }

    #[test]
    fn no_matching_op_is_a_positive_zero_share() {
        let t = sample();
        let a = TraceAnalysis::of(&t);
        let share = a.op_share_of_engine(&t, EngineId::TpcCluster, "fused_attention");
        assert_eq!(share.to_bits(), 0.0f64.to_bits(), "share {share:?}");
    }

    #[test]
    fn overlap_zero_when_serialized() {
        let t = sample();
        let a = TraceAnalysis::of(&t);
        // MME busy [0,10] and [30,40]; TPC busy [10,30] and [30,35]:
        // intersection = [30,35] -> 5; min busy = 20 -> 0.25.
        assert!((a.compute_overlap(&t) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn overlap_full_when_parallel() {
        let mut t = Trace::new();
        t.push(ev("m", EngineId::Mme, 0.0, 10.0));
        t.push(ev("s", EngineId::TpcCluster, 0.0, 10.0));
        let a = TraceAnalysis::of(&t);
        assert!((a.compute_overlap(&t) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_trace_is_harmless() {
        let t = Trace::new();
        let a = TraceAnalysis::of(&t);
        assert_eq!(a.span_ns, 0.0);
        assert!(a.engines.is_empty());
        assert_eq!(a.compute_overlap(&t), 0.0);
    }
}
