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
//! Events are built as [`Json`] values and printed by the workspace's
//! one JSON module, `pdc_metrics::json`, whose parser also backs the
//! validating reader ([`validate_chrome_trace`], used by tests and the
//! `trace_export` bench bin). `Json` and [`parse_json`] are re-exported
//! here, where their clients first found them.

use crate::message::{ProcId, Tag};
use crate::trace::{Event, EventKind, Trace};
pub use pdc_metrics::json::{parse_json, Json};
use pdc_metrics::MetricsSnapshot;
use std::collections::{HashMap, VecDeque};

/// One event of phase `ph` on processor `proc`'s track at `ts`, plus
/// the phase's own members.
fn event<const N: usize>(
    name: &str,
    ph: &str,
    proc: ProcId,
    ts: u64,
    extra: [(&str, Json); N],
) -> Json {
    let head = [
        ("name", name.into()),
        ("ph", ph.into()),
        ("pid", 0u64.into()),
        ("tid", proc.0.into()),
        ("ts", ts.into()),
    ];
    Json::obj(head.into_iter().chain(extra))
}

/// One complete ("X") slice.
fn slice(name: &str, proc: ProcId, ts: u64, dur: u64, args: Json) -> Json {
    event(name, "X", proc, ts, [("dur", dur.into()), ("args", args)])
}

/// One instant ("i") mark, thread-scoped.
fn instant(name: &str, proc: ProcId, ts: u64, args: Json) -> Json {
    event(name, "i", proc, ts, [("s", "t".into()), ("args", args)])
}

/// An `args` object of numeric members.
fn args<const N: usize>(members: [(&str, u64); N]) -> Json {
    Json::obj(members.map(|(k, v)| (k, v.into())))
}

/// The `args` of a message event: its peer, its tag and one more member.
fn link(peer: &str, other: ProcId, tag: Tag, third: (&str, u64)) -> Json {
    args([(peer, other.0 as u64), ("tag", tag.0.into()), third])
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
    let mut events: Vec<Json> = Vec::with_capacity(trace.len() * 2 + n_procs);
    for p in 0..n_procs {
        let name = Json::obj([("name", format!("P{p}").into())]);
        events.push(event("thread_name", "M", ProcId(p), 0, [("args", name)]));
    }

    // FIFO matching per (src, dst, tag): the k-th send on a triple pairs
    // with the k-th receive. Queue send completion times in record order
    // first — a blocked receiver's interval can *start* before its
    // matching send does, so matching cannot ride the start-sorted pass.
    let mut sends: HashMap<(usize, usize, u32), VecDeque<u64>> = HashMap::new();
    for e in trace.events() {
        if let EventKind::Send { dst, tag, .. } = e.kind {
            let key = (e.proc.0, dst.0, tag.0);
            sends.entry(key).or_default().push_back(e.at.0);
        }
    }

    // Sort by interval start (stable on seq) so each track's X slices
    // come out with non-decreasing ts. Per-processor intervals tile the
    // timeline, so start order == record order per track; the global
    // interleave only affects cross-track ordering, which is free.
    let mut evs: Vec<&Event> = trace.events().collect();
    evs.sort_by_key(|e| (e.start().0, e.seq));

    let mut flows: Vec<Json> = Vec::new();
    let mut retrans_cum: HashMap<usize, u64> = HashMap::new();
    let mut last_ts: u64 = 0;

    for e in &evs {
        let (p, ts, at) = (e.proc, e.start().0, e.at.0);
        last_ts = last_ts.max(at);
        match e.kind {
            EventKind::Compute { cycles } => events.push(slice("compute", p, ts, cycles, args([]))),
            EventKind::Send {
                dst,
                tag,
                words,
                cost,
            } => {
                let a = link("dst", dst, tag, ("words", words as u64));
                events.push(slice("send", p, ts, cost, a));
            }
            EventKind::Recv {
                src,
                tag,
                words,
                waited,
                cost,
            } => {
                let a = link("src", src, tag, ("words", words as u64));
                if waited > 0 {
                    events.push(slice("blocked", p, ts, waited, a.clone()));
                }
                let unpack_ts = at.saturating_sub(cost);
                events.push(slice("recv", p, unpack_ts, cost, a));
                // Flow arrow from the matching send's completion to the
                // start of this unpack. Skip if the send fell outside the
                // trace (bounded cap) — an end without a begin is invalid.
                let queue = sends.get_mut(&(src.0, p.0, tag.0));
                if let Some(sent) = queue.and_then(VecDeque::pop_front) {
                    let id = ("id", Json::from(flows.len() / 2));
                    let (cat, bp) = (("cat", Json::from("msg")), ("bp", Json::from("e")));
                    flows.push(event("msg", "s", src, sent, [cat.clone(), id.clone()]));
                    flows.push(event("msg", "f", p, unpack_ts, [bp, cat, id]));
                }
            }
            EventKind::FrameLost {
                dst,
                tag,
                words,
                cost,
            } => {
                let a = link("dst", dst, tag, ("words", words as u64));
                events.push(slice("frame lost", p, ts, cost, a));
            }
            EventKind::Retransmit { dst, tag, seq } => {
                let a = link("dst", dst, tag, ("seq", seq));
                events.push(instant("retransmit", p, at, a));
                if metrics.is_some() {
                    let cum = retrans_cum.entry(p.0).or_insert(0);
                    *cum += 1;
                    let a = args([("cumulative", *cum)]);
                    events.push(event("retransmits", "C", p, at, [("args", a)]));
                }
            }
            EventKind::Ack { peer, tag, cum } => {
                events.push(instant("ack", p, at, link("peer", peer, tag, ("cum", cum))));
            }
            EventKind::CheckpointTaken { at_op, bytes } => {
                let a = args([("at_op", at_op), ("bytes", bytes)]);
                events.push(instant("checkpoint", p, at, a));
            }
            EventKind::Crash { at_op } => {
                events.push(instant("crash", p, at, args([("at_op", at_op)])));
            }
            EventKind::Restore { from_op, replayed } => {
                let a = args([("from_op", from_op), ("replayed", replayed)]);
                events.push(instant("restore", p, at, a));
            }
            EventKind::ReplayedFrame { dst, tag, seq } => {
                let a = link("dst", dst, tag, ("seq", seq));
                events.push(instant("replayed frame", p, at, a));
            }
            EventKind::Finish => events.push(instant("finish", p, at, args([]))),
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
            let a = args([("mean", h.sum / h.count), ("max", h.max)]);
            for ts in [0, last_ts] {
                let name = "ring occupancy (words)";
                events.push(event(name, "C", ProcId(p), ts, [("args", a.clone())]));
            }
        }
    }

    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", "ns".into()),
        (
            "otherData",
            Json::obj([
                ("droppedEvents", trace.dropped().into()),
                ("source", "pdc-machine".into()),
            ]),
        ),
    ])
    .to_string()
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
    let dropped = doc.get("otherData").and_then(|o| o.get("droppedEvents"));
    stats.dropped = dropped.and_then(Json::as_num).unwrap_or(0.0) as u64;
    let mut last_ts: HashMap<(u64, u64), f64> = HashMap::new();
    let mut flow_begins: Vec<f64> = Vec::new();
    let mut flow_ends: Vec<f64> = Vec::new();
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        let num = |key: &str| {
            e.get(key)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("event {i}: {ph:?} event missing {key}"))
        };
        match ph {
            "X" => {
                let pid = num("pid").unwrap_or(0.0) as u64;
                let (tid, ts) = (num("tid")? as u64, num("ts")?);
                num("dur")?;
                match last_ts.insert((pid, tid), ts) {
                    Some(prev) if ts < prev => {
                        return Err(format!(
                            "event {i}: ts {ts} < {prev} on track ({pid},{tid}) — not monotonic"
                        ))
                    }
                    _ => stats.slices += 1,
                }
            }
            "s" => flow_begins.push(num("id")?),
            "f" => flow_ends.push(num("id")?),
            "i" => stats.instants += 1,
            "C" => {
                num("ts")?;
                if !matches!(e.get("args"), Some(Json::Obj(m)) if !m.is_empty()) {
                    return Err(format!("event {i}: counter needs non-empty args"));
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
        assert!(json.contains("\"max\":16,\"mean\":12"), "{json}");
        // Without a snapshot the output is byte-identical to the plain
        // exporter.
        assert_eq!(chrome_trace(&t, 2), chrome_trace_with_metrics(&t, 2, None));
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
