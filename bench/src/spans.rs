//! The benchmark's own span recorder.
//!
//! Spans are recorded from *outside* the toolchain, around the calls into
//! each layer's public functions: `{name, start_ns, end_ns, parent}` kept in
//! memory and written out when the run ends. A disabled recorder (every
//! untraced run) only forwards the call.

use crate::json::Value;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span; `None` for a root.
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`, a child of the span open on
    /// entry.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of every span called `name`, ns.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum()
    }

    pub fn to_json(&self) -> Value {
        let self_ns = self_times(&self.spans);
        Value::Arr(
            self.spans
                .iter()
                .zip(self_ns)
                .map(|(s, self_ns)| {
                    Value::object([
                        ("name", Value::from(s.name)),
                        ("start_ns", Value::from(s.start_ns)),
                        ("end_ns", Value::from(s.end_ns)),
                        ("parent", s.parent.map_or(Value::Null, Value::from)),
                        ("self_ns", Value::from(self_ns)),
                    ])
                })
                .collect(),
        )
    }
}

/// Per span: its duration minus the part its direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut self_ns: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            self_ns[p] = self_ns[p].saturating_sub(s.dur_ns());
        }
    }
    self_ns
}

/// The largest share of any span called `name` that its direct children
/// leave uncovered: how far "the layer spans sum to the op's span" is off.
pub fn worst_residual(spans: &[Span], name: &str) -> f64 {
    let self_ns = self_times(spans);
    spans
        .iter()
        .zip(&self_ns)
        .filter(|(s, _)| s.name == name && s.dur_ns() > 0)
        .map(|(s, &own)| own as f64 / s.dur_ns() as f64)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_its_direct_children() {
        let spans = [
            span("op", 0, 100, None),
            span("lex", 0, 10, Some(0)),
            span("sizing", 10, 90, Some(0)),
            span("inner", 20, 50, Some(2)),
            span("op", 100, 150, None),
        ];
        assert_eq!(self_times(&spans), vec![10, 10, 50, 30, 50]);
        // The second root has no children at all: fully uncovered.
        assert_eq!(worst_residual(&spans, "op"), 1.0);
        assert_eq!(worst_residual(&spans[..4], "op"), 0.1);
        assert_eq!(worst_residual(&spans, "other"), 0.0);
    }

    #[test]
    fn recorder_nests_by_call_structure() {
        let mut rec = Recorder::new(true);
        let out = rec.span("op", |rec| {
            rec.span("a", |_| 1) + rec.span("b", |rec| rec.span("c", |_| 2))
        });
        assert_eq!(out, 3);
        let parents: Vec<_> = rec.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            parents,
            vec![("op", None), ("a", Some(0)), ("b", Some(0)), ("c", Some(2))]
        );
        assert!(rec.spans().iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(rec.total_ns("op"), rec.spans()[0].dur_ns());
        assert_eq!(rec.to_json().as_array().unwrap().len(), 4);
    }

    #[test]
    fn disabled_recorder_only_forwards_the_call() {
        let mut rec = Recorder::new(false);
        assert_eq!(rec.span("op", |rec| rec.span("a", |_| 7)), 7);
        assert!(rec.spans().is_empty());
    }
}
