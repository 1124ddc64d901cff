//! Chrome-trace JSON export.
//!
//! Produces the `chrome://tracing` / Perfetto "trace event" array format so
//! the simulated hardware traces can be inspected with the same kind of
//! timeline viewer the paper's figures were produced with. Serialization is
//! hand-rolled (the approved dependency list has no JSON crate).

use crate::trace::Trace;

/// Render a trace as a Chrome trace-event JSON string.
///
/// Each device becomes a process (`pid = device + 1`, named `Gaudi-<n>`),
/// each engine a thread lane (`tid`) within it, each event a complete
/// (`"X"`) event; timestamps are microseconds per the format. Multi-card
/// traces thus show one collapsible lane group per card in the viewer.
pub fn to_chrome_json(trace: &Trace) -> String {
    let mut out = String::from("[\n");
    let mut first = true;
    let mut push = |line: String, first: &mut bool| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(&line);
    };

    // Process/thread-name metadata so lanes are labelled in the viewer.
    let engines = trace.engines();
    for device in trace.devices() {
        let pid = device.index() + 1;
        push(
            format!(
                "  {{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"args\":{{\"name\":{}}}}}",
                pid,
                json_string(&format!("Gaudi-{}", device.index()))
            ),
            &mut first,
        );
        for (tid, engine) in engines.iter().enumerate() {
            if trace
                .events()
                .iter()
                .any(|e| e.device == device && e.engine == *engine)
            {
                push(
                    format!(
                        "  {{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{},\"tid\":{},\"args\":{{\"name\":{}}}}}",
                        pid,
                        tid,
                        json_string(&engine.label())
                    ),
                    &mut first,
                );
            }
        }
    }

    for e in trace.events() {
        let tid = engines.iter().position(|&x| x == e.engine).unwrap_or(0);
        push(
            format!(
                "  {{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{:.3},\"dur\":{:.3}}}",
                json_string(&e.name),
                json_string(&e.category),
                e.device.index() + 1,
                tid,
                e.start_ns / 1000.0,
                e.dur_ns / 1000.0
            ),
            &mut first,
        );
    }
    out.push_str("\n]\n");
    out
}

/// `s` as a JSON string literal: quoted, with `"`, `\` and every control
/// character escaped.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEvent;
    use gaudi_hw::EngineId;

    fn sample() -> Trace {
        let mut t = Trace::new();
        t.push(TraceEvent::basic(
            "matmul",
            "fwd",
            EngineId::Mme,
            1000.0,
            2000.0,
        ));
        t.push(TraceEvent::basic(
            "softmax \"x\"",
            "fwd",
            EngineId::TpcCluster,
            3000.0,
            500.0,
        ));
        t
    }

    #[test]
    fn emits_one_complete_event_per_trace_event() {
        let json = to_chrome_json(&sample());
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        // One process_name + two thread_name metadata records.
        assert_eq!(json.matches("\"ph\":\"M\"").count(), 3);
        assert!(json.contains("Gaudi-0"));
        // Microsecond conversion: 1000 ns -> 1.000 us.
        assert!(json.contains("\"ts\":1.000"));
        assert!(json.contains("\"dur\":2.000"));
    }

    #[test]
    fn each_device_becomes_a_process() {
        use gaudi_hw::DeviceId;
        let mut t = sample();
        t.push(
            TraceEvent::basic("matmul", "fwd", EngineId::Mme, 1000.0, 2000.0)
                .on_device(DeviceId(1)),
        );
        let json = to_chrome_json(&t);
        assert!(json.contains("\"name\":\"Gaudi-0\""));
        assert!(json.contains("\"name\":\"Gaudi-1\""));
        assert!(json.contains("\"pid\":1"));
        assert!(json.contains("\"pid\":2"));
        // Device 1 only ran the MME: no TPC thread lane in its process.
        let d1_threads = json
            .lines()
            .filter(|l| l.contains("thread_name") && l.contains("\"pid\":2"))
            .count();
        assert_eq!(d1_threads, 1);
    }

    #[test]
    fn escapes_quotes() {
        let json = to_chrome_json(&sample());
        assert!(json.contains("softmax \\\"x\\\""));
    }

    #[test]
    fn is_well_formed_array() {
        let json = to_chrome_json(&sample());
        let trimmed = json.trim();
        assert!(trimmed.starts_with('['));
        assert!(trimmed.ends_with(']'));
        // Balanced braces (cheap well-formedness check without a parser).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn lane_assignment_is_stable() {
        // An event's `tid` is its engine's position in `Trace::engines`.
        let t = sample();
        let lane_of = |engine| t.engines().iter().position(|&x| x == engine);
        assert_eq!(lane_of(EngineId::Mme), Some(0));
        assert_eq!(lane_of(EngineId::TpcCluster), Some(1));
        assert_eq!(lane_of(EngineId::Host), None);
    }

    #[test]
    fn json_string_escapes_controls() {
        assert_eq!(json_string("a\tb"), "\"a\\tb\"");
        assert_eq!(json_string("x\u{1}"), "\"x\\u0001\"");
    }
}
