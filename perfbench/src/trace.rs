//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the harness around each call into a layer's
//! public API; nothing inside the simulator is instrumented. Every span
//! lives on the harness thread and nests properly, so a span's self time
//! (its duration minus the time its children cover) summed over all spans
//! equals the root span's duration: the workload's wall time.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call name, e.g. `dvr_sim::simulate`.
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
    /// Index of the enclosing span (`None` only for the root).
    pub parent: Option<usize>,
    /// The cell the call works for, if any (an index into the plan's cells).
    pub cell: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Records spans when on; when off, [`Tracer::span`] only calls through.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`on`) or only calls through.
    pub fn new(on: bool) -> Self {
        Tracer { on, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Runs `f` inside one span named `name` with recording suspended
    /// within it, so `f`'s own calls leave no spans.
    pub fn opaque<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.span(name, None, |t| {
            let on = std::mem::replace(&mut t.on, false);
            let out = f(t);
            t.on = on;
            out
        })
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        cell: Option<usize>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            cell,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Recorded spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }
}

/// Self seconds per span name, summed over all spans of that name.
///
/// The rows sum to the total duration of the root spans.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut rows = BTreeMap::new();
    for (s, c) in spans.iter().zip(child_ns) {
        *rows.entry(s.name).or_insert(0.0) += (s.end_ns - s.start_ns - c) as f64 * 1e-9;
    }
    rows
}

/// Serializes spans as one JSON array (one object per span).
pub fn spans_json(spans: &[Span]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"cell\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.cell.map_or("null".to_string(), |c| c.to_string()),
            )
        })
        .collect();
    format!("[{}]", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_root_duration() {
        let mut t = Tracer::new(true);
        t.span("root", None, |t| {
            t.span("a", Some(0), |t| t.span("b", Some(0), |_| std::hint::black_box(1 + 1)));
            t.span("a", Some(1), |_| ());
        });
        let rows = self_times(t.spans());
        let root = t.spans()[0].secs();
        let sum: f64 = rows.values().sum();
        assert!((sum - root).abs() < 1e-9, "rows {sum} vs root {root}");
        assert_eq!(t.spans()[2].parent, Some(1));
        assert_eq!(t.named("a").count(), 2);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", None, |_| 7), 7);
        assert!(t.spans().is_empty());
    }
}
