//! Compiler observability for the process-decomposition pipeline.
//!
//! Two halves:
//!
//! * **Remarks** — an LLVM-`-Rpass`-style stream of structured
//!   [`Remark`]s: every phase of the pipeline (§3.2 analysis,
//!   run-time/compile-time resolution, and the §4 optimization passes)
//!   reports what it *applied* and what it *missed* — and why — with a
//!   source span when one is known. The stream renders as human-readable
//!   text ([`render_text`]) and as deterministic JSON ([`remarks_json`])
//!   for CI diffing: two identical compiles produce byte-identical
//!   output.
//! * **Cost model** ([`cost`]) — a static abstract interpretation of the
//!   specialized SPMD program that predicts, per `(src, dst, tag)`
//!   channel, how many messages and payload words each processor will
//!   send. On programs whose control flow is independent of array data
//!   (the paper's wavefront variants) the prediction is *exact* and is
//!   verified against the machine's observed per-channel counts at run
//!   time.

pub mod cost;
pub mod interp;
pub mod makespan;

pub use cost::{predict, ChannelCost, CostSink, Prediction};
pub use makespan::{estimate, predict_and_estimate, MakespanEstimate, TimingSink};

use pdc_lang::Span;
use pdc_machine::metrics::json::Json;
use std::collections::BTreeMap;
use std::fmt;

/// Which pipeline phase produced a remark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// §3.2 evaluator/participant propagation over the AST.
    Analysis,
    /// §3.1 run-time resolution code generation.
    RuntimeRes,
    /// §3.2 compile-time resolution code generation.
    CompileTime,
    /// Appendix A.2 message vectorization (*Optimized I*).
    Vectorize,
    /// Appendix A.3 loop jamming (*Optimized II*).
    Jam,
    /// Appendix A.4 strip mining (*Optimized III*).
    Strip,
    /// §4 closing remark: source-level loop interchange.
    Interchange,
    /// Static message-cost prediction.
    CostModel,
    /// Static communication-safety analysis (`pdc-analyze`): send/recv
    /// matching, deadlock freedom, single assignment, lints.
    Analyze,
    /// Front-end static checks (single assignment, definition before
    /// use, call arity) collected in batch by `pdc_lang::check_all`.
    Check,
    /// Exact loop-dependence analysis (`pdc-depend`): per-nest
    /// distance/direction summaries and loop-carried cross-processor
    /// dependence lints.
    Depend,
    /// Automatic decomposition search (`pdc-tune`): per-candidate scores
    /// and rejection reasons, plus the selected winner.
    Tune,
}

impl Phase {
    /// Stable lower-case identifier used in JSON.
    pub fn slug(self) -> &'static str {
        match self {
            Phase::Analysis => "analysis",
            Phase::RuntimeRes => "runtime-res",
            Phase::CompileTime => "compile-time",
            Phase::Vectorize => "vectorize",
            Phase::Jam => "jam",
            Phase::Strip => "strip",
            Phase::Interchange => "interchange",
            Phase::CostModel => "cost-model",
            Phase::Analyze => "analyze",
            Phase::Check => "check",
            Phase::Depend => "depend",
            Phase::Tune => "tune",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.slug())
    }
}

/// Did the phase apply something, or report why it could not?
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RemarkKind {
    /// A transformation or static decision was made.
    Applied,
    /// A candidate was considered and rejected (the reason is the
    /// remark's message), or a run-time fallback had to be emitted.
    Missed,
}

impl RemarkKind {
    /// Stable lower-case identifier used in JSON.
    pub fn slug(self) -> &'static str {
        match self {
            RemarkKind::Applied => "applied",
            RemarkKind::Missed => "missed",
        }
    }
}

impl fmt::Display for RemarkKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.slug())
    }
}

/// One structured compiler remark.
#[derive(Debug, Clone, PartialEq)]
pub struct Remark {
    /// Producing phase.
    pub phase: Phase,
    /// Applied or missed.
    pub kind: RemarkKind,
    /// Source span, when known at emission time. Optimization passes run
    /// on the SPMD IR, which has no spans; they set [`Remark::tag`]
    /// instead and the driver resolves the span from its tag→span map.
    pub span: Option<Span>,
    /// Message tag the remark is about (communication-stream remarks).
    pub tag: Option<u32>,
    /// Human-readable, one-line message.
    pub message: String,
    /// Ordered key/value details (kept ordered for determinism).
    pub details: Vec<(String, String)>,
}

impl Remark {
    /// A new remark with no span, tag, or details.
    pub fn new(phase: Phase, kind: RemarkKind, message: impl Into<String>) -> Remark {
        Remark {
            phase,
            kind,
            span: None,
            tag: None,
            message: message.into(),
            details: Vec::new(),
        }
    }

    /// Attach a source span.
    #[must_use]
    pub fn with_span(mut self, span: Span) -> Remark {
        self.span = Some(span);
        self
    }

    /// Attach the message tag the remark concerns.
    #[must_use]
    pub fn with_tag(mut self, tag: u32) -> Remark {
        self.tag = Some(tag);
        self
    }

    /// Append a key/value detail.
    #[must_use]
    pub fn detail(mut self, key: impl Into<String>, value: impl fmt::Display) -> Remark {
        self.details.push((key.into(), value.to_string()));
        self
    }
}

/// Collects remarks in emission order.
#[derive(Debug, Clone, Default)]
pub struct RemarkSink {
    remarks: Vec<Remark>,
}

impl RemarkSink {
    /// An empty sink.
    pub fn new() -> RemarkSink {
        RemarkSink::default()
    }

    /// Record one remark.
    pub fn emit(&mut self, r: Remark) {
        self.remarks.push(r);
    }

    /// All remarks, in emission order.
    pub fn remarks(&self) -> &[Remark] {
        &self.remarks
    }

    /// Consume the sink, returning the remark stream.
    pub fn into_remarks(self) -> Vec<Remark> {
        self.remarks
    }

    /// Number of remarks collected so far.
    pub fn len(&self) -> usize {
        self.remarks.len()
    }

    /// No remarks yet?
    pub fn is_empty(&self) -> bool {
        self.remarks.is_empty()
    }
}

/// Render front-end batch diagnostics (`pdc_lang::check_all`) as
/// check-phase remarks, each anchored to its source span — the bridge
/// from the checker's error list into the remark stream tooling
/// ([`render_text`], [`remarks_json`]) the rest of the pipeline uses.
pub fn check_remarks(errors: &[pdc_lang::LangError]) -> Vec<Remark> {
    errors
        .iter()
        .map(|e| Remark::new(Phase::Check, RemarkKind::Missed, e.to_string()).with_span(e.span()))
        .collect()
}

/// Applied/Missed counts per phase, in a deterministic order.
pub fn counts(remarks: &[Remark]) -> BTreeMap<(Phase, RemarkKind), usize> {
    let mut out = BTreeMap::new();
    for r in remarks {
        *out.entry((r.phase, r.kind)).or_insert(0) += 1;
    }
    out
}

/// Render the stream as human-readable text, one remark per line:
///
/// ```text
/// [vectorize] applied 64..103: combined 14 element sends into one block send (tag=128, lo=2, hi=15)
/// ```
pub fn render_text(remarks: &[Remark]) -> String {
    let mut out = String::new();
    for r in remarks {
        out.push('[');
        out.push_str(r.phase.slug());
        out.push_str("] ");
        out.push_str(r.kind.slug());
        if let Some(s) = r.span {
            out.push_str(&format!(" {s}"));
        }
        out.push_str(": ");
        out.push_str(&r.message);
        let mut extras: Vec<String> = Vec::new();
        if let Some(t) = r.tag {
            extras.push(format!("tag={t}"));
        }
        extras.extend(r.details.iter().map(|(k, v)| format!("{k}={v}")));
        if !extras.is_empty() {
            out.push_str(" (");
            out.push_str(&extras.join(", "));
            out.push(')');
        }
        out.push('\n');
    }
    out
}

/// Render the stream as deterministic JSON: the schema is
///
/// ```json
/// { "remarks": [ { "phase": "...", "kind": "applied|missed",
///                  "span": [start, end] | null, "tag": N | null,
///                  "message": "...", "details": { "k": "v", ... } } ],
///   "counts": { "<phase>.<kind>": N, ... } }
/// ```
///
/// Emission order is preserved for `remarks`; the members of every
/// object (`details` and `counts` included) print sorted by key, one per
/// line. Two identical compiles produce byte-identical output.
pub fn remarks_json(remarks: &[Remark]) -> String {
    let stream = remarks.iter().map(|r| {
        let details = r
            .details
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str().into()));
        Json::obj([
            ("phase", r.phase.slug().into()),
            ("kind", r.kind.slug().into()),
            (
                "span",
                r.span.map(|s| Json::from_iter([s.start, s.end])).into(),
            ),
            ("tag", r.tag.into()),
            ("message", r.message.as_str().into()),
            ("details", Json::obj(details)),
        ])
    });
    let counts = counts(remarks)
        .into_iter()
        .map(|((phase, kind), n)| (format!("{}.{}", phase.slug(), kind.slug()), n.into()));
    let doc = Json::obj([("remarks", stream.collect()), ("counts", Json::obj(counts))]);
    format!("{doc:#}\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Remark> {
        vec![
            Remark::new(Phase::Vectorize, RemarkKind::Applied, "combined sends")
                .with_span(Span { start: 4, end: 9 })
                .with_tag(128)
                .detail("lo", 2)
                .detail("hi", 15),
            Remark::new(Phase::Jam, RemarkKind::Missed, "no matching producer").with_tag(130),
        ]
    }

    #[test]
    fn text_rendering_includes_phase_kind_span() {
        let t = render_text(&sample());
        assert!(t.contains("[vectorize] applied 4..9: combined sends"));
        assert!(t.contains("tag=128, lo=2, hi=15"));
        assert!(t.contains("[jam] missed: no matching producer"));
    }

    #[test]
    fn json_is_deterministic_and_escaped() {
        let mut r = sample();
        r[0].message = "a \"quoted\"\nline".into();
        let a = remarks_json(&r);
        let b = remarks_json(&r);
        assert_eq!(a, b);
        assert!(a.contains("a \\\"quoted\\\"\\nline"));
        assert!(a.contains("\"jam.missed\": 1"));
        assert!(a.contains("\"vectorize.applied\": 1"));
    }

    #[test]
    fn counts_group_by_phase_and_kind() {
        let c = counts(&sample());
        assert_eq!(c[&(Phase::Vectorize, RemarkKind::Applied)], 1);
        assert_eq!(c[&(Phase::Jam, RemarkKind::Missed)], 1);
    }

    #[test]
    fn check_remarks_bridges_front_end_diagnostics() {
        let src = "procedure main() { let a = 1; let a = b; return a; }";
        let program = pdc_lang::parse_unchecked(src).expect("parses");
        let errs = pdc_lang::check_all(&program);
        assert_eq!(errs.len(), 2, "redefinition of `a` and undefined `b`");
        let remarks = check_remarks(&errs);
        assert_eq!(remarks.len(), errs.len());
        assert!(remarks
            .iter()
            .all(|r| r.phase == Phase::Check && r.kind == RemarkKind::Missed && r.span.is_some()));
        assert!(render_text(&remarks).contains("[check] missed"));
    }
}
