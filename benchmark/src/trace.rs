//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded from the benchmark's own code around its calls into
//! each layer: name, start, end and the enclosing span. They stay in memory
//! and are written once, at exit, as a Chrome trace through anton-obs's
//! `ChromeTraceBuilder` (nesting on one thread row shows the parent links in
//! Perfetto).

use anton_des::SimTime;
use anton_obs::ChromeTraceBuilder;
use std::time::Instant;

/// One closed span, in nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of the innermost open span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Duration of the most recently opened span named `name`, seconds.
    pub fn last_s(&self, name: &str) -> Option<f64> {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
    }

    /// `(depth, name, total s, self s)` per span in start order. Self time
    /// is the span's duration minus the time its direct children cover.
    pub fn self_times(&self) -> Vec<(usize, &str, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let depth = std::iter::successors(s.parent, |&p| self.spans[p].parent).count();
                let total = s.end_ns - s.start_ns;
                let own = total.saturating_sub(child_ns[i]);
                (
                    depth,
                    s.name.as_str(),
                    total as f64 * 1e-9,
                    own as f64 * 1e-9,
                )
            })
            .collect()
    }

    /// The spans as a Chrome `trace_event` document. The category is the
    /// layer, the span name's prefix before the first `.`.
    pub fn chrome_trace(&self, process: &str) -> String {
        let mut b = ChromeTraceBuilder::new();
        b.name_process(1, process);
        b.name_thread(1, 1, "benchmark");
        let ps = |ns: u64| SimTime::from_ps(ns * 1_000);
        for s in &self.spans {
            let layer = s.name.split('.').next().unwrap_or("");
            b.add_slice(1, 1, layer, &s.name, ps(s.start_ns), ps(s.end_ns));
        }
        b.finish()
    }
}
