//! The benchmark's own tracer: spans around its calls into each crate's
//! public functions, plus counts taken at the same boundaries. Spans are
//! kept in memory and written out once, at the end of the run. With
//! tracing off nothing is recorded.

use std::collections::BTreeMap;
use std::time::Instant;

use isf_obs::Json;

/// One completed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer span name (`frontend.compile`, `exec.dispatch`, …) or a
    /// structural name (`pass`, `setup`).
    pub name: &'static str,
    /// Offset from the tracer's epoch, nanoseconds.
    pub start_ns: u64,
    /// Offset from the tracer's epoch, nanoseconds.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The pass the span belongs to (0 = set-up).
    pub pass: u32,
}

/// An open span, closed with [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

/// Span and counter recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    pass: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            pass: 0,
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Whether spans and counts are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off (untraced passes of a traced run).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Tags subsequent spans with pass id `pass`.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start_ns = self.now_ns();
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Closes `span` (and any span left open inside it).
    pub fn end(&mut self, span: Open) {
        let Some(idx) = span.0 else { return };
        let end_ns = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end_ns;
            if top == idx {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let span = self.begin(name);
        let r = f();
        self.end(span);
        r
    }

    /// Adds `delta` to the count `name`.
    pub fn count(&mut self, name: &'static str, delta: f64) {
        if self.enabled {
            *self.counts.entry(name).or_default() += delta;
        }
    }

    /// The accumulated count `name` (0 when never counted).
    pub fn counted(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Total seconds spent in spans named `name`.
    pub fn seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// Every span as JSON, in opening order.
    pub fn spans_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", s.name.into()),
                        ("start_ns", s.start_ns.into()),
                        ("end_ns", s.end_ns.into()),
                        ("parent", s.parent.map_or(Json::Null, Json::from)),
                        ("pass", u64::from(s.pass).into()),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("pass");
        t.count("frontend.modules", 1.0);
        t.end(s);
        assert_eq!(t.spans.len(), 0);
        assert_eq!(t.counted("frontend.modules"), 0.0);
    }

    #[test]
    fn spans_nest_and_carry_the_pass() {
        let mut t = Tracer::new(true);
        t.set_pass(3);
        let outer = t.begin("pass");
        t.time("exec.dispatch", || ());
        t.end(outer);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].pass, 3);
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
        assert!(t.seconds("exec.dispatch") >= 0.0);
    }
}
