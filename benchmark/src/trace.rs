//! Spans for the traced run: one per call the benchmark makes into a
//! layer's public API, kept in memory and written out at the end as a
//! Chrome trace (`chrome://tracing`, Perfetto).

use crate::json::quote;
use std::time::Instant;

/// Run `f`, then hand `done` the key and the time `f` started: how the
/// workload and paper code report their calls without owning a recorder.
pub fn timed<K, T>(done: &mut dyn FnMut(K, Instant), key: K, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    done(key, start);
    out
}

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called.
    pub name: String,
    /// The layer the call enters.
    pub layer: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration, seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// An in-memory span recorder. Spans nest: a span opened while another is
/// open becomes its child.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its id for [`close`](Self::close).
    pub fn open(&mut self, name: impl Into<String>, layer: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            layer,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`; returns its
    /// duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].secs()
    }

    /// Record a span from `start` to now, inside the innermost open span;
    /// returns its duration in seconds.
    pub fn record(&mut self, name: impl Into<String>, layer: &'static str, start: Instant) -> f64 {
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name: name.into(),
            layer,
            start_ns,
            end_ns: self.now_ns(),
            parent: self.open.last().copied(),
        });
        self.spans.last().expect("just pushed").secs()
    }

    /// Run `f` inside a span; returns its result and duration in seconds.
    pub fn time<T>(
        &mut self,
        name: impl Into<String>,
        layer: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, layer);
        let out = f();
        (out, self.close(id))
    }

    /// Every span recorded, in opening order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as Chrome trace JSON: complete (`"ph":"X"`) events, one
    /// thread per layer, each carrying its parent's name.
    pub fn chrome_json(&self) -> String {
        let mut layers: Vec<&str> = Vec::new();
        let mut events = Vec::with_capacity(self.spans.len());
        for s in &self.spans {
            let tid = match layers.iter().position(|l| *l == s.layer) {
                Some(i) => i,
                None => {
                    layers.push(s.layer);
                    layers.len() - 1
                }
            };
            let parent = s.parent.map_or("", |p| self.spans[p].name.as_str());
            events.push(format!(
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"parent\":{}}}}}",
                quote(&s.name),
                quote(s.layer),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                quote(parent),
            ));
        }
        for (tid, layer) in layers.iter().enumerate() {
            events.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":{}}}}}",
                quote(layer)
            ));
        }
        format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_export() {
        let mut r = Recorder::new();
        let outer = r.open("rep", "bench");
        let ((), inner) = r.time("simulate", "serving.engine", || ());
        let total = r.close(outer);
        assert!(inner <= total);
        assert_eq!(r.spans()[1].parent, Some(0));
        let v = crate::json::parse(&r.chrome_json()).expect("valid JSON");
        let events = v.get("traceEvents").expect("events").items();
        assert_eq!(events.len(), 4, "two spans and two thread names");
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .as_str(),
            Some("rep")
        );
    }
}
