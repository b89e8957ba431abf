//! The benchmark's own span recorder: one in-memory span per call into a
//! layer, written out as a Chrome trace when the run ends.
//!
//! Spans are recorded from the harness's side of each call (the layers
//! themselves are not instrumented). A span's name starts with its
//! layer — the crate it calls into — followed by a dot; `bench.` spans
//! are the harness's own glue. Everything runs on one thread, so spans
//! nest strictly and a layer's self time is its span minus its children.

use std::collections::BTreeMap;
use std::ops::Range;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<what>`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Shared by all spans of one program's compile + run.
    pub op: u32,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        // Saturating: a span a panic cut short has no end.
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }

    /// The layer this span is charged to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans when on; when off, [`Recorder::span`] is a plain call,
/// which is how the end-to-end pass runs.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    epoch: Instant,
    open: Vec<usize>,
    op: u32,
    /// Every span recorded so far, in start order.
    pub spans: Vec<Span>,
}

impl Recorder {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Self::new(false)
    }

    /// A recording recorder.
    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(on: bool) -> Self {
        Recorder {
            on,
            epoch: Instant::now(),
            open: Vec::new(),
            op: 0,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Start a new op: later spans carry a fresh op id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Run `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        let depth = self.open.len();
        self.open.push(idx);
        let out = f(self);
        // Not `pop`: a panic caught inside `f` leaves deeper spans open.
        self.open.truncate(depth);
        self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }
}

/// Self time of every span, in seconds: its duration minus the part its
/// direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::secs).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.secs();
        }
    }
    own
}

/// Self time summed per layer over the spans in `range`; `own` is
/// [`self_times`] of all of `spans`.
pub fn layer_self_times(
    spans: &[Span],
    own: &[f64],
    range: Range<usize>,
) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for i in range {
        *out.entry(spans[i].layer()).or_insert(0.0) += own[i];
    }
    out
}

/// Total duration per span name over `spans`.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0.0) += s.secs();
    }
    out
}

/// The spans as a Chrome trace (`chrome://tracing`, Perfetto): one
/// complete ("X") event per span on a single track, timestamps in
/// microseconds, the layer as category, and the op id and parent index
/// as arguments.
pub fn chrome_trace(workload: &str, spans: &[Span]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 120);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"otherData\":{\"workload\":\"");
    out.push_str(&escape(workload));
    out.push_str("\"},\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or(-1, |p| p as i64);
        out.push_str(&format!(
            "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"parent\":{parent},\"index\":{i}}}}}",
            escape(s.name),
            escape(s.layer()),
            s.start_ns as f64 / 1e3,
            s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
            s.op,
        ));
    }
    out.push_str("\n]}\n");
    out
}

/// Escape `s` for use inside a JSON string.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::parse_json;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("bench.iteration", 0, 1_000, None),
            span("core.codegen", 100, 700, Some(0)),
            span("opt.o3", 200, 500, Some(1)),
            span("machine.sim.run", 700, 900, Some(0)),
        ];
        let own: Vec<u64> = self_times(&spans)
            .iter()
            .map(|s| (s * 1e9).round() as u64)
            .collect();
        assert_eq!(own, vec![200, 300, 300, 200]);
        // Self times of a tree add up to its root.
        assert_eq!(own.iter().sum::<u64>(), 1_000);
        let layers = layer_self_times(&spans, &self_times(&spans), 0..spans.len());
        assert_eq!(
            layers.keys().copied().collect::<Vec<_>>(),
            vec!["bench", "core", "machine", "opt"]
        );
        assert!((layers["core"] - 300e-9).abs() < 1e-15);
    }

    #[test]
    fn recorder_nests_spans_and_is_transparent_when_off() {
        let mut rec = Recorder::on();
        rec.next_op();
        let v = rec.span("bench.op", |r| r.span("lang.parse", |_| 7) + 1);
        assert_eq!(v, 8);
        assert_eq!(rec.spans.len(), 2);
        assert_eq!(rec.spans[1].parent, Some(0));
        assert_eq!(rec.spans[1].op, 1);
        assert!(rec.spans[0].end_ns >= rec.spans[1].end_ns);

        let mut off = Recorder::off();
        assert_eq!(off.span("bench.op", |r| r.span("lang.parse", |_| 7)), 7);
        assert!(off.spans.is_empty());
    }

    #[test]
    fn chrome_trace_round_trips_through_the_parser() {
        let spans = vec![
            span("bench.iteration", 0, 2_500, None),
            span("lang.parse", 500, 1_500, Some(0)),
        ];
        let doc = parse_json(&chrome_trace("quo\"te\\d\n", &spans)).expect("valid JSON");
        assert_eq!(
            doc.get("otherData")
                .and_then(|o| o.get("workload"))
                .and_then(|w| w.as_str()),
            Some("quo\"te\\d\n")
        );
        let events = doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(events.len(), 2);
        let e = &events[1];
        assert_eq!(e.get("name").and_then(|n| n.as_str()), Some("lang.parse"));
        assert_eq!(e.get("cat").and_then(|n| n.as_str()), Some("lang"));
        assert_eq!(e.get("ts").and_then(|n| n.as_num()), Some(0.5));
        assert_eq!(e.get("dur").and_then(|n| n.as_num()), Some(1.0));
        let args = e.get("args").unwrap();
        assert_eq!(args.get("parent").and_then(|n| n.as_num()), Some(0.0));
        assert_eq!(args.get("op").and_then(|n| n.as_num()), Some(1.0));
    }
}
