//! Host-time spans the benchmark records around its own calls into each
//! crate. They stay in memory and are written out once, as a Chrome
//! trace, when the benchmark ends.

use std::fmt::Write;
use std::time::Instant;

/// One timed interval on the host clock.
#[derive(Clone, Debug)]
pub struct Span {
    /// Phase or probe name.
    pub name: &'static str,
    /// Workload instance (repetition) the span belongs to.
    pub rep: usize,
    /// Nanoseconds since the recorder started.
    pub start_ns: u64,
    /// Nanoseconds since the recorder started.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// In-memory span journal.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Spans::close`]. Returns its index.
    pub fn open(&mut self, name: &'static str, rep: usize, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            rep,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.spans.len() - 1
    }

    /// Close span `idx`, returning its duration in seconds.
    pub fn close(&mut self, idx: usize) -> f64 {
        let end = self.now_ns();
        let span = &mut self.spans[idx];
        span.end_ns = end;
        span.secs()
    }

    /// Run `f` inside a child span of `parent`, returning its result and
    /// duration in seconds.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        rep: usize,
        parent: usize,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let idx = self.open(name, rep, Some(parent));
        let r = f();
        (r, self.close(idx))
    }

    /// All spans recorded so far.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds of `parent` not covered by its direct children.
    pub fn unattributed_secs(&self, parent: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(Span::secs)
            .sum();
        self.spans[parent].secs() - children
    }

    /// Chrome trace-event JSON; `meta` is a JSON object stored as
    /// `otherData`.
    pub fn chrome_json(&self, meta: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}",
                s.name,
                s.rep,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                i,
                s.parent.map_or("null".to_string(), |p| p.to_string())
            );
        }
        let _ = write!(out, "],\"displayTimeUnit\":\"ms\",\"otherData\":{meta}}}");
        out
    }
}
