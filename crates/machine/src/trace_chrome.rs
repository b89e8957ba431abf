//! Chrome trace-event JSON export of a [`Trace`], loadable in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`.
//!
//! The format is the "JSON Object Format" of the Trace Event spec: a
//! top-level object with a `traceEvents` array. We emit
//!
//! * one metadata (`"ph":"M"`) `thread_name` event per processor, so each
//!   processor gets its own named track;
//! * complete (`"ph":"X"`) slices for every busy or blocked interval —
//!   `compute`, `send`, `recv`, and a separate `blocked` slice covering
//!   the `waited` portion of a receive, plus `frame lost` under fault
//!   injection;
//! * flow events (`"ph":"s"` / `"ph":"f"`) connecting each send to the
//!   receive that consumed it, using the FIFO-per-(src,dst,tag)
//!   discipline the fabric guarantees: the k-th send on a triple matches
//!   the k-th receive. Unmatched sends (undelivered messages) get no
//!   flow arrow, so every flow-end always has a flow-begin;
//! * instant (`"ph":"i"`) marks for protocol events (retransmit, ack)
//!   and process completion;
//! * counter (`"ph":"C"`) tracks when a [`MetricsSnapshot`] is supplied
//!   to [`chrome_trace_with_metrics`]: a cumulative per-processor
//!   retransmit series (one sample per retransmission) and a
//!   ring-occupancy summary (mean/max words queued) per processor, so
//!   Perfetto shows protocol pressure alongside the slices.
//!
//! Timestamps are logical-clock *cycles* reported as microseconds (the
//! unit Perfetto assumes for `ts`/`dur`); absolute units are meaningless
//! for a logical clock, so the scale is irrelevant — only ratios matter.
//!
//! The workspace is dependency-free, so both the writer and the
//! validating reader ([`validate_chrome_trace`], used by tests and the
//! `trace_export` bench bin) are hand-rolled here rather than pulling in
//! serde.

use crate::message::ProcId;
use crate::trace::{Event, EventKind, Trace};
use pdc_metrics::{json_escape, MetricsSnapshot};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// One complete ("X") slice.
fn slice(out: &mut Vec<String>, name: &str, proc: ProcId, ts: u64, dur: u64, args: &str) {
    out.push(format!(
        "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{},\"dur\":{}{}}}",
        json_escape(name),
        proc.0,
        ts,
        dur,
        args
    ));
}

/// One instant ("i") mark, thread-scoped.
fn instant(out: &mut Vec<String>, name: &str, proc: ProcId, ts: u64, args: &str) {
    out.push(format!(
        "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":{},\"ts\":{}{}}}",
        json_escape(name),
        proc.0,
        ts,
        args
    ));
}

/// Serialize `trace` as Chrome trace-event JSON. `n_procs` names one
/// track per processor even if some recorded nothing.
///
/// The trace should be final (flushed) — [`RunReport`](crate::RunReport)
/// traces are. Events are emitted in interval-start order per track so
/// `ts` is non-decreasing within each `(pid, tid)`, which Perfetto's
/// importer expects. If events overflowed the trace cap, the drop count
/// is surfaced in the top-level `otherData` object.
pub fn chrome_trace(trace: &Trace, n_procs: usize) -> String {
    chrome_trace_with_metrics(trace, n_procs, None)
}

/// [`chrome_trace`] plus counter (`"ph":"C"`) tracks derived from a
/// [`MetricsSnapshot`]: a cumulative retransmit series per processor
/// (sampled at each `Retransmit` trace event, so the slope shows
/// retransmission bursts) and a per-processor ring-occupancy summary
/// (mean and max words queued, from the enqueue-time histogram —
/// individual samples carry no timestamps, so the summary is emitted as
/// one flat band across the run). With `metrics: None` the output is
/// identical to [`chrome_trace`].
pub fn chrome_trace_with_metrics(
    trace: &Trace,
    n_procs: usize,
    metrics: Option<&MetricsSnapshot>,
) -> String {
    let mut events: Vec<String> = Vec::with_capacity(trace.len() * 2 + n_procs);
    for p in 0..n_procs {
        events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{p},\
             \"args\":{{\"name\":\"P{p}\"}}}}"
        ));
    }

    // FIFO matching per (src, dst, tag): the k-th send on a triple pairs
    // with the k-th receive. Collect send completion times in record
    // order first — a blocked receiver's interval can *start* before its
    // matching send does, so matching cannot ride the start-sorted pass.
    let mut send_counter: HashMap<(usize, usize, u32), u64> = HashMap::new();
    let mut send_at: HashMap<(usize, usize, u32, u64), u64> = HashMap::new();
    for e in trace.events() {
        if let EventKind::Send { dst, tag, .. } = e.kind {
            let key = (e.proc.0, dst.0, tag.0);
            let k = send_counter.entry(key).or_insert(0);
            send_at.insert((key.0, key.1, key.2, *k), e.at.0);
            *k += 1;
        }
    }

    // Sort by interval start (stable on seq) so each track's X slices
    // come out with non-decreasing ts. Per-processor intervals tile the
    // timeline, so start order == record order per track; the global
    // interleave only affects cross-track ordering, which is free.
    let mut evs: Vec<&Event> = trace.events().collect();
    evs.sort_by_key(|e| (e.start().0, e.seq));

    let mut recv_counter: HashMap<(usize, usize, u32), u64> = HashMap::new();
    let mut flows: Vec<String> = Vec::new();
    let mut next_flow_id: u64 = 0;
    let mut retrans_cum: HashMap<usize, u64> = HashMap::new();
    let mut last_ts: u64 = 0;

    for e in &evs {
        let ts = e.start().0;
        last_ts = last_ts.max(e.at.0);
        match e.kind {
            EventKind::Compute { cycles } => {
                slice(&mut events, "compute", e.proc, ts, cycles, "");
            }
            EventKind::Send {
                dst,
                tag,
                words,
                cost,
            } => {
                let args = format!(
                    ",\"args\":{{\"dst\":{},\"tag\":{},\"words\":{}}}",
                    dst.0, tag.0, words
                );
                slice(&mut events, "send", e.proc, ts, cost, &args);
            }
            EventKind::Recv {
                src,
                tag,
                words,
                waited,
                cost,
            } => {
                let args = format!(
                    ",\"args\":{{\"src\":{},\"tag\":{},\"words\":{}}}",
                    src.0, tag.0, words
                );
                if waited > 0 {
                    slice(&mut events, "blocked", e.proc, ts, waited, &args);
                }
                let unpack_ts = e.at.0.saturating_sub(cost);
                slice(&mut events, "recv", e.proc, unpack_ts, cost, &args);
                // Flow arrow from the matching send's completion to the
                // start of this unpack. Skip if the send fell outside the
                // trace (bounded cap) — an end without a begin is invalid.
                let key = (src.0, e.proc.0, tag.0);
                let k = recv_counter.entry(key).or_insert(0);
                if let Some(&sent) = send_at.get(&(key.0, key.1, key.2, *k)) {
                    let id = next_flow_id;
                    next_flow_id += 1;
                    flows.push(format!(
                        "{{\"name\":\"msg\",\"ph\":\"s\",\"cat\":\"msg\",\"id\":{},\
                         \"pid\":0,\"tid\":{},\"ts\":{}}}",
                        id, src.0, sent
                    ));
                    flows.push(format!(
                        "{{\"name\":\"msg\",\"ph\":\"f\",\"bp\":\"e\",\"cat\":\"msg\",\
                         \"id\":{},\"pid\":0,\"tid\":{},\"ts\":{}}}",
                        id, e.proc.0, unpack_ts
                    ));
                }
                *k += 1;
            }
            EventKind::FrameLost {
                dst,
                tag,
                words,
                cost,
            } => {
                let args = format!(
                    ",\"args\":{{\"dst\":{},\"tag\":{},\"words\":{}}}",
                    dst.0, tag.0, words
                );
                slice(&mut events, "frame lost", e.proc, ts, cost, &args);
            }
            EventKind::Retransmit { dst, tag, seq } => {
                let args = format!(
                    ",\"args\":{{\"dst\":{},\"tag\":{},\"seq\":{}}}",
                    dst.0, tag.0, seq
                );
                instant(&mut events, "retransmit", e.proc, e.at.0, &args);
                if metrics.is_some() {
                    let cum = retrans_cum.entry(e.proc.0).or_insert(0);
                    *cum += 1;
                    events.push(format!(
                        "{{\"name\":\"retransmits\",\"ph\":\"C\",\"pid\":0,\"tid\":{},\
                         \"ts\":{},\"args\":{{\"cumulative\":{}}}}}",
                        e.proc.0, e.at.0, cum
                    ));
                }
            }
            EventKind::Ack { peer, tag, cum } => {
                let args = format!(
                    ",\"args\":{{\"peer\":{},\"tag\":{},\"cum\":{}}}",
                    peer.0, tag.0, cum
                );
                instant(&mut events, "ack", e.proc, e.at.0, &args);
            }
            EventKind::CheckpointTaken { at_op, bytes } => {
                let args = format!(",\"args\":{{\"at_op\":{at_op},\"bytes\":{bytes}}}");
                instant(&mut events, "checkpoint", e.proc, e.at.0, &args);
            }
            EventKind::Crash { at_op } => {
                let args = format!(",\"args\":{{\"at_op\":{at_op}}}");
                instant(&mut events, "crash", e.proc, e.at.0, &args);
            }
            EventKind::Restore { from_op, replayed } => {
                let args = format!(",\"args\":{{\"from_op\":{from_op},\"replayed\":{replayed}}}");
                instant(&mut events, "restore", e.proc, e.at.0, &args);
            }
            EventKind::ReplayedFrame { dst, tag, seq } => {
                let args = format!(
                    ",\"args\":{{\"dst\":{},\"tag\":{},\"seq\":{}}}",
                    dst.0, tag.0, seq
                );
                instant(&mut events, "replayed frame", e.proc, e.at.0, &args);
            }
            EventKind::Finish => {
                instant(&mut events, "finish", e.proc, e.at.0, "");
            }
        }
    }
    events.extend(flows);

    // Ring-occupancy summary band: the enqueue-time histogram has no
    // per-sample timestamps, so the per-processor mean and max are
    // emitted as one counter sample at the start and end of the run.
    if let Some(snap) = metrics {
        for (p, pm) in snap.procs.iter().enumerate().take(n_procs) {
            let h = &pm.ring_occupancy;
            if h.count == 0 {
                continue;
            }
            let mean = h.sum / h.count;
            for ts in [0, last_ts] {
                events.push(format!(
                    "{{\"name\":\"ring occupancy (words)\",\"ph\":\"C\",\"pid\":0,\
                     \"tid\":{p},\"ts\":{ts},\"args\":{{\"mean\":{mean},\"max\":{}}}}}",
                    h.max
                ));
            }
        }
    }

    let mut out = String::new();
    out.push_str("{\"traceEvents\":[\n");
    out.push_str(&events.join(",\n"));
    out.push_str("\n],\"displayTimeUnit\":\"ns\",\"otherData\":{");
    let _ = write!(
        out,
        "\"droppedEvents\":{},\"source\":\"pdc-machine\"}}}}",
        trace.dropped()
    );
    out
}

// ---------------------------------------------------------------------
// Minimal JSON reader — enough to validate our own exporter output in
// tests and CI without a serde dependency.
// ---------------------------------------------------------------------

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as f64 — fine for cycle counts < 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion order not preserved.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on an object; `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The f64 value of a number; `None` otherwise.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value; `None` otherwise.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements; `None` otherwise.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("JSON parse error at byte {}: {}", self.pos, msg)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\n' || b == b'\t' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(&format!("unexpected '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, val: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(val)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ascii");
        s.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(&format!("bad number '{s}'")))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte safe).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().expect("peeked non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(out));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut out = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            out.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(out));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Parse a JSON document.
pub fn parse_json(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage"));
    }
    Ok(v)
}

/// Summary of a validated Chrome trace.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChromeStats {
    /// Complete ("X") slices.
    pub slices: usize,
    /// Flow begin/end pairs.
    pub flows: usize,
    /// Instant marks.
    pub instants: usize,
    /// Counter samples.
    pub counters: usize,
    /// Named tracks (metadata events).
    pub tracks: usize,
    /// Dropped-event count from `otherData`.
    pub dropped: u64,
}

/// Structurally validate exporter output: the document parses, has a
/// `traceEvents` array, every `X` slice's `ts` is non-decreasing within
/// its `(pid, tid)` track, and every flow-end (`ph:"f"`) has a
/// flow-begin (`ph:"s"`) with the same id. Returns counts on success.
pub fn validate_chrome_trace(json: &str) -> Result<ChromeStats, String> {
    let doc = parse_json(json)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing traceEvents array")?;
    let mut stats = ChromeStats::default();
    if let Some(d) = doc
        .get("otherData")
        .and_then(|o| o.get("droppedEvents"))
        .and_then(Json::as_num)
    {
        stats.dropped = d as u64;
    }
    let mut last_ts: HashMap<(u64, u64), f64> = HashMap::new();
    let mut flow_begins: Vec<f64> = Vec::new();
    let mut flow_ends: Vec<f64> = Vec::new();
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        match ph {
            "X" => {
                let pid = e.get("pid").and_then(Json::as_num).unwrap_or(0.0) as u64;
                let tid = e
                    .get("tid")
                    .and_then(Json::as_num)
                    .ok_or_else(|| format!("event {i}: X slice missing tid"))?
                    as u64;
                let ts = e
                    .get("ts")
                    .and_then(Json::as_num)
                    .ok_or_else(|| format!("event {i}: X slice missing ts"))?;
                e.get("dur")
                    .and_then(Json::as_num)
                    .ok_or_else(|| format!("event {i}: X slice missing dur"))?;
                if let Some(&prev) = last_ts.get(&(pid, tid)) {
                    if ts < prev {
                        return Err(format!(
                            "event {i}: ts {ts} < {prev} on track ({pid},{tid}) — not monotonic"
                        ));
                    }
                }
                last_ts.insert((pid, tid), ts);
                stats.slices += 1;
            }
            "s" => {
                let id = e
                    .get("id")
                    .and_then(Json::as_num)
                    .ok_or_else(|| format!("event {i}: flow-begin missing id"))?;
                flow_begins.push(id);
            }
            "f" => {
                let id = e
                    .get("id")
                    .and_then(Json::as_num)
                    .ok_or_else(|| format!("event {i}: flow-end missing id"))?;
                flow_ends.push(id);
            }
            "i" => stats.instants += 1,
            "C" => {
                e.get("ts")
                    .and_then(Json::as_num)
                    .ok_or_else(|| format!("event {i}: counter missing ts"))?;
                match e.get("args") {
                    Some(Json::Obj(m)) if !m.is_empty() => {}
                    _ => return Err(format!("event {i}: counter needs non-empty args")),
                }
                stats.counters += 1;
            }
            "M" => stats.tracks += 1,
            other => return Err(format!("event {i}: unexpected ph {other:?}")),
        }
    }
    for id in &flow_ends {
        if !flow_begins.contains(id) {
            return Err(format!("flow-end id {id} has no flow-begin"));
        }
    }
    if flow_begins.len() != flow_ends.len() {
        return Err(format!(
            "{} flow-begins vs {} flow-ends",
            flow_begins.len(),
            flow_ends.len()
        ));
    }
    stats.flows = flow_ends.len();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{ProcId, Tag, Time};

    fn chain_trace() -> Trace {
        // P0: compute 500, send (cost 10) at 510.
        // P1: recv at 560 (waited 30, cost 20), compute 100 -> 660, finish.
        let mut t = Trace::bounded(64);
        t.record_compute(ProcId(0), Time(0), Time(500));
        t.record(
            ProcId(0),
            Time(510),
            EventKind::Send {
                dst: ProcId(1),
                tag: Tag(3),
                words: 4,
                cost: 10,
            },
        );
        t.record(ProcId(0), Time(510), EventKind::Finish);
        t.record(
            ProcId(1),
            Time(560),
            EventKind::Recv {
                src: ProcId(0),
                tag: Tag(3),
                words: 4,
                waited: 30,
                cost: 20,
            },
        );
        t.record_compute(ProcId(1), Time(560), Time(660));
        t.record(ProcId(1), Time(660), EventKind::Finish);
        t.flush();
        t
    }

    #[test]
    fn golden_chrome_trace_round_trips() {
        let t = chain_trace();
        let json = chrome_trace(&t, 2);
        let stats = validate_chrome_trace(&json).expect("exporter output validates");
        // compute, send / blocked, recv, compute = 5 slices.
        assert_eq!(stats.slices, 5);
        assert_eq!(stats.flows, 1, "one send→recv edge");
        assert_eq!(stats.instants, 2, "two finish marks");
        assert_eq!(stats.tracks, 2);
        assert_eq!(stats.dropped, 0);
    }

    #[test]
    fn metrics_counters_round_trip() {
        let mut t = Trace::bounded(64);
        for at in [100, 200] {
            t.record(
                ProcId(0),
                Time(at),
                EventKind::Retransmit {
                    dst: ProcId(1),
                    tag: Tag(0),
                    seq: 1,
                },
            );
        }
        t.flush();
        let reg = pdc_metrics::MetricsRegistry::new(2);
        reg.ring_depth(0, 8);
        reg.ring_depth(0, 16);
        let snap = reg.snapshot();
        let json = chrome_trace_with_metrics(&t, 2, Some(&snap));
        let stats = validate_chrome_trace(&json).expect("counter output validates");
        // Two retransmit samples + occupancy band (start + end) on P0.
        assert_eq!(stats.counters, 4);
        assert!(json.contains("\"cumulative\":2"), "{json}");
        assert!(json.contains("\"mean\":12,\"max\":16"), "{json}");
        // Without a snapshot the output is byte-identical to the plain
        // exporter.
        assert_eq!(chrome_trace(&t, 2), chrome_trace_with_metrics(&t, 2, None));
    }

    #[test]
    fn parser_handles_escapes_and_numbers() {
        let v =
            parse_json(r#"{"a":[1,2.5,-3],"s":"x\"\nA","b":true,"n":null}"#).expect("valid JSON");
        assert_eq!(
            v.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x\"\nA"));
        assert_eq!(v.get("b"), Some(&Json::Bool(true)));
        assert_eq!(v.get("n"), Some(&Json::Null));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("{} trailing").is_err());
    }

    #[test]
    fn monotonicity_violation_is_caught() {
        let bad = r#"{"traceEvents":[
            {"name":"a","ph":"X","pid":0,"tid":0,"ts":100,"dur":5},
            {"name":"b","ph":"X","pid":0,"tid":0,"ts":50,"dur":5}
        ]}"#;
        let err = validate_chrome_trace(bad).unwrap_err();
        assert!(err.contains("not monotonic"), "{err}");
    }

    #[test]
    fn dangling_flow_end_is_caught() {
        let bad = r#"{"traceEvents":[
            {"name":"msg","ph":"f","bp":"e","id":7,"pid":0,"tid":1,"ts":10}
        ]}"#;
        let err = validate_chrome_trace(bad).unwrap_err();
        assert!(err.contains("no flow-begin"), "{err}");
    }

    #[test]
    fn unmatched_send_emits_no_flow() {
        // A send whose receive fell off the trace: no flow arrow at all.
        let mut t = Trace::bounded(8);
        t.record(
            ProcId(0),
            Time(10),
            EventKind::Send {
                dst: ProcId(1),
                tag: Tag(0),
                words: 1,
                cost: 2,
            },
        );
        t.flush();
        let stats = validate_chrome_trace(&chrome_trace(&t, 2)).expect("validates");
        assert_eq!(stats.flows, 0);
        assert_eq!(stats.slices, 1);
    }

    #[test]
    fn dropped_events_surface_in_other_data() {
        let mut t = Trace::bounded(1);
        for i in 0..3 {
            t.record(ProcId(0), Time(i), EventKind::Finish);
        }
        let stats = validate_chrome_trace(&chrome_trace(&t, 1)).expect("validates");
        assert_eq!(stats.dropped, 2);
    }
}
