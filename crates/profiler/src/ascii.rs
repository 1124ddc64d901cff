//! ASCII timeline rendering — terminal renditions of the paper's trace
//! figures (Figures 4–9), one row per engine, `#` for busy, `.` for idle.

use crate::trace::Trace;

/// Render the trace as a fixed-width ASCII timeline.
///
/// `width` is the number of character columns the span is quantized into.
/// A cell is drawn busy (`#`) if the engine is busy for more than half of
/// the cell's time window.
pub fn render_timeline(trace: &Trace, width: usize) -> String {
    let span = trace.span_ns();
    let mut out = String::new();
    if span <= 0.0 || width == 0 {
        return out;
    }
    let cell = span / width as f64;
    let devices = trace.devices();
    let multi = devices.len() > 1;
    for device in devices {
        for engine in trace.engines() {
            let evs = trace.device_engine_events(device, engine);
            if evs.is_empty() {
                continue;
            }
            let mut row = String::with_capacity(width);
            for c in 0..width {
                let lo = c as f64 * cell;
                let hi = lo + cell;
                let busy: f64 = evs
                    .iter()
                    .map(|e| (e.end_ns().min(hi) - e.start_ns.max(lo)).max(0.0))
                    .sum();
                row.push(if busy > cell * 0.5 { '#' } else { '.' });
            }
            let label = if multi {
                format!("{} {}", device, engine.label())
            } else {
                engine.label()
            };
            out.push_str(&format!("{label:>8} |{row}|\n"));
        }
    }
    out.push_str(&format!("{:>8} |{}|\n", "", time_axis(span, width)));
    out
}

fn time_axis(span_ns: f64, width: usize) -> String {
    let total_ms = span_ns / 1e6;
    let label = format!(
        "0 ms {:>width$.2} ms",
        total_ms,
        width = width.saturating_sub(9)
    );
    if label.len() > width {
        format!("{:.2} ms total", total_ms)
    } else {
        label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEvent;
    use gaudi_hw::EngineId;

    fn trace() -> Trace {
        let mut t = Trace::new();
        t.push(TraceEvent::basic("m", "f", EngineId::Mme, 0.0, 50.0));
        t.push(TraceEvent::basic(
            "s",
            "f",
            EngineId::TpcCluster,
            50.0,
            50.0,
        ));
        t
    }

    #[test]
    fn rows_reflect_busy_halves() {
        let s = render_timeline(&trace(), 10);
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].trim_start().starts_with("MME"));
        assert!(lines[0].contains("#####....."));
        assert!(lines[1].contains(".....#####"));
    }

    #[test]
    fn multi_device_traces_get_per_card_rows() {
        use gaudi_hw::DeviceId;
        let mut t = trace();
        t.push(TraceEvent::basic("m", "f", EngineId::Mme, 0.0, 100.0).on_device(DeviceId(1)));
        let s = render_timeline(&t, 10);
        assert!(s.contains("D0 MME"));
        assert!(s.contains("D1 MME"));
        // Device 1 never ran the TPC: no row for that lane.
        assert!(!s.contains("D1 TPC"));
    }

    #[test]
    fn empty_trace_renders_empty() {
        assert!(render_timeline(&Trace::new(), 20).is_empty());
        assert!(render_timeline(&trace(), 0).is_empty());
    }
}
