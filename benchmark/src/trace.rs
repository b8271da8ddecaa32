//! In-memory span recorder for the traced pass.
//!
//! The benchmark records spans from its own code, around the calls into
//! each layer's public functions; nothing inside the program is touched. A
//! span's name starts with the layer it belongs to (`milp.stage_a`,
//! `store.save`), spans of one operation share an `op_id`, and a layer's
//! self time is its spans' duration minus the part their children cover.

use std::collections::BTreeMap;
use std::time::Instant;

use serde::Value;

use crate::emit::{num, obj, text};

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<what>`.
    pub name: String,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one operation (one layer solve, one request) share it.
    pub op_id: u64,
}

/// Records spans in memory; written out once, when the run ends.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last: a new span's parent is the top.
    open: Vec<usize>,
    /// What each `op_id` was (a layer shape, a suite), where that helps.
    labels: BTreeMap<u64, String>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            labels: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one; close it with
    /// [`Recorder::end`].
    pub fn begin(&mut self, name: &str, op_id: u64) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op_id,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (and any span opened inside it that was left open)
    /// and return its duration in seconds.
    pub fn end(&mut self, id: usize) -> f64 {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
        (now - self.spans[id].start_ns) as f64 / 1e9
    }

    /// Run `f` inside a span and return its result and duration (seconds).
    pub fn time<T>(&mut self, name: &str, op_id: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.begin(name, op_id);
        let out = f();
        (out, self.end(id))
    }

    /// Say what operation `op_id` is, for whoever reads the trace.
    pub fn label(&mut self, op_id: u64, what: &str) {
        self.labels.insert(op_id, what.to_string());
    }

    /// Add a span with given clock readings.
    #[cfg(test)]
    fn add(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time in seconds per layer (the span-name prefix before the
    /// first `.`): each span's duration minus the union of its direct
    /// children's intervals, clipped to the span.
    pub fn self_seconds_by_layer(&self) -> BTreeMap<String, f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        let mut by_layer = BTreeMap::new();
        for (span, kids) in self.spans.iter().zip(&mut children) {
            let covered = covered_ns(kids, span.start_ns, span.end_ns);
            let own = (span.end_ns - span.start_ns).saturating_sub(covered);
            let layer = span.name.split('.').next().unwrap_or(&span.name);
            *by_layer.entry(layer.to_string()).or_insert(0.0) += own as f64 / 1e9;
        }
        by_layer
    }

    /// The `trace-<workload>.json` document.
    pub fn to_json(&self, workload: &str) -> Value {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                obj(vec![
                    ("name", text(&s.name)),
                    ("start_ns", Value::U64(s.start_ns)),
                    ("end_ns", Value::U64(s.end_ns)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                    ),
                    ("op_id", Value::U64(s.op_id)),
                ])
            })
            .collect();
        let self_s = self
            .self_seconds_by_layer()
            .into_iter()
            .map(|(layer, s)| (layer, num(s)))
            .collect();
        let ops = self
            .labels
            .iter()
            .map(|(op_id, what)| (op_id.to_string(), text(what)))
            .collect();
        obj(vec![
            ("workload", text(workload)),
            ("self_seconds_by_layer", Value::Map(self_s)),
            ("ops", Value::Map(ops)),
            ("spans", Value::Seq(spans)),
        ])
    }
}

/// Length of the union of `intervals` inside `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let mut rec = Recorder::new();
        rec.add(span("engine.schedule", 0, 100, None));
        rec.add(span("milp.solve", 10, 70, Some(0)));
        rec.add(span("milp.root_lp", 20, 30, Some(1)));
        rec.add(span("model.evaluate", 80, 90, Some(0)));
        let own = rec.self_seconds_by_layer();
        assert!((own["engine"] - 30e-9).abs() < 1e-15, "100 - 60 - 10");
        assert!((own["milp"] - 60e-9).abs() < 1e-15, "(60 - 10) + 10");
        assert!((own["model"] - 10e-9).abs() < 1e-15);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        // Two racing backends overlap each other and one outlives the
        // parent: the parent's covered time is the union inside it.
        let mut rec = Recorder::new();
        rec.add(span("api.race", 0, 100, None));
        rec.add(span("milp.solve", 10, 60, Some(0)));
        rec.add(span("sat.search", 40, 130, Some(0)));
        let own = rec.self_seconds_by_layer();
        assert!(
            (own["api"] - 10e-9).abs() < 1e-15,
            "only 0..10 is uncovered"
        );
        assert!((own["milp"] - 50e-9).abs() < 1e-15);
        assert!((own["sat"] - 90e-9).abs() < 1e-15);
    }

    #[test]
    fn begin_end_nest_by_call_order() {
        let mut rec = Recorder::new();
        let outer = rec.begin("engine.call", 7);
        let (value, _) = rec.time("store.save", 7, || 42);
        assert_eq!(value, 42);
        rec.end(outer);
        let spans = rec.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert_eq!(spans[1].op_id, 7);
    }
}
