//! Critical-path extraction and per-run profiles from a [`Trace`].
//!
//! The paper's §4 argument — run-time and compile-time resolution stay
//! flat with processor count because blocking receives serialize the
//! wavefront — is an argument about the *critical path* of the
//! program-order + message-dependency DAG. This module walks that DAG
//! backwards from the processor that finished last and decomposes the
//! longest chain into compute, send/receive overhead, network flight,
//! and blocked time, so a single run quantifies what Figures 6/7 only
//! show as scaling curves: a serialized version spends its makespan in
//! blocked + overhead, an optimized one in compute.
//!
//! The walk relies on two invariants of the trace model:
//!
//! * per-processor busy/blocked intervals tile each processor's
//!   timeline (every event covers `[start(), at]`, and consecutive
//!   events abut or leave a gap that was genuine idleness);
//! * receives record `waited`, so a receive with `waited > 0` was the
//!   end of a blocked interval whose release was the matching send's
//!   arrival — the edge to hop to the sending processor. FIFO per
//!   (src, dst, tag) makes the k-th receive match the k-th send.

use crate::message::{ProcId, Tag, Time};
use crate::trace::{Event, EventKind, Trace};
use std::collections::BTreeMap;

/// One segment of the critical path, latest-first walk reversed into
/// chronological order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathSegment {
    /// Processor the segment ran on (for `Flight`, the *sender*).
    pub proc: ProcId,
    /// Segment start.
    pub from: Time,
    /// Segment end.
    pub to: Time,
    /// What the time went to.
    pub kind: SegmentKind,
}

/// Classification of critical-path time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    /// Local computation.
    Compute,
    /// Message packing on the sender.
    SendOverhead,
    /// Message unpacking on the receiver.
    RecvOverhead,
    /// Time in the network between send completion and arrival.
    Flight,
    /// Waiting with nothing attributable (true idleness on the path).
    Blocked,
}

/// The critical path, decomposed.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CriticalPath {
    /// Maximum final clock over all processors (end of the path).
    pub makespan: u64,
    /// Cycles of the path spent computing.
    pub compute: u64,
    /// Cycles spent packing messages.
    pub send_overhead: u64,
    /// Cycles spent unpacking messages.
    pub recv_overhead: u64,
    /// Cycles in network flight along followed message edges.
    pub flight: u64,
    /// Cycles blocked/idle on the path.
    pub blocked: u64,
    /// The path itself, in chronological order.
    pub segments: Vec<PathSegment>,
    /// True when the decomposition is provably complete: the walk
    /// reached time 0 with every cycle attributed and no events were
    /// dropped from the trace. On raw (fault-free) runs the five buckets
    /// then sum exactly to the makespan.
    pub exact: bool,
}

impl CriticalPath {
    /// Sum of the five buckets; equals [`makespan`](CriticalPath::makespan)
    /// whenever the walk covered the whole path.
    pub fn total(&self) -> u64 {
        self.compute + self.send_overhead + self.recv_overhead + self.flight + self.blocked
    }
}

/// Aggregate traffic on one (src, dst, tag) channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommEdge {
    /// Sender.
    pub src: ProcId,
    /// Receiver.
    pub dst: ProcId,
    /// Tag.
    pub tag: Tag,
    /// Messages sent.
    pub messages: u64,
    /// Total payload words sent.
    pub words: u64,
    /// Cycles receivers spent blocked on this channel.
    pub waited: u64,
    /// Frames the transport lost (fault injection).
    pub frames_lost: u64,
}

/// Where one processor's time went, over `[0, finish]`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProcProfile {
    /// Cycles computing.
    pub compute: u64,
    /// Cycles packing sends (incl. lost frames).
    pub send_overhead: u64,
    /// Cycles unpacking receives.
    pub recv_overhead: u64,
    /// Cycles blocked in receives.
    pub blocked: u64,
    /// The processor's final clock.
    pub finish: u64,
    /// `finish` minus everything attributed — untraced gaps.
    pub idle: u64,
}

/// Everything [`analyze`] computes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceAnalysis {
    /// The longest dependency chain, decomposed.
    pub critical_path: CriticalPath,
    /// Per-(src, dst, tag) communication matrix, sorted by key.
    pub comm: Vec<CommEdge>,
    /// Per-processor time profiles, indexed by processor.
    pub procs: Vec<ProcProfile>,
}

/// Index of per-processor events (record order) plus FIFO send matching.
struct Indexed<'a> {
    /// Events of each processor, in record order.
    by_proc: Vec<Vec<&'a Event>>,
    /// Send events per (src, dst, tag), in send order.
    sends: BTreeMap<(usize, usize, u32), Vec<&'a Event>>,
}

fn index(trace: &Trace, n_procs: usize) -> Indexed<'_> {
    let mut by_proc: Vec<Vec<&Event>> = vec![Vec::new(); n_procs];
    let mut sends: BTreeMap<(usize, usize, u32), Vec<&Event>> = BTreeMap::new();
    for e in trace.events() {
        if e.proc.0 < n_procs {
            by_proc[e.proc.0].push(e);
        }
        if let EventKind::Send { dst, tag, .. } = e.kind {
            sends.entry((e.proc.0, dst.0, tag.0)).or_default().push(e);
        }
    }
    Indexed { by_proc, sends }
}

/// Walk the critical path backwards from the processor that finished
/// last. At each step the walk sits at time `t` on processor `p` and
/// asks what `p` was doing in the interval ending at `t`:
///
/// * a compute/send/recv interval attributes its cycles and moves `t`
///   to the interval's start;
/// * a receive that `waited` hops the message edge: flight time back to
///   the matching send's completion on the sender, then continues there;
/// * a gap before the latest event (or no event at all) is blocked time.
fn critical_path(idx: &Indexed<'_>, trace: &Trace) -> CriticalPath {
    let mut cp = CriticalPath::default();
    let mut protocol_events = false;
    let mut lost_frames = false;
    for e in trace.events() {
        match e.kind {
            EventKind::Retransmit { .. }
            | EventKind::Ack { .. }
            | EventKind::CheckpointTaken { .. }
            | EventKind::Crash { .. }
            | EventKind::Restore { .. }
            | EventKind::ReplayedFrame { .. } => protocol_events = true,
            EventKind::FrameLost { .. } => lost_frames = true,
            _ => {}
        }
    }
    // Per-proc cursor: index *one past* the next candidate event,
    // scanning right-to-left.
    let mut cursor: Vec<usize> = idx.by_proc.iter().map(Vec::len).collect();
    let (mut p, makespan) = idx
        .by_proc
        .iter()
        .enumerate()
        .map(|(p, evs)| (p, evs.last().map_or(0, |e| e.at.0)))
        .max_by_key(|&(_, at)| at)
        .unwrap_or((0, 0));
    cp.makespan = makespan;
    let mut t = makespan;
    let mut fell_back = false;
    // Each iteration either consumes one event or ends the walk; the
    // flight hop adds at most one extra iteration per receive.
    let mut fuel = 2 * trace.len() + 16;
    let mut segments = Vec::new();

    while t > 0 {
        if fuel == 0 {
            fell_back = true;
            break;
        }
        fuel -= 1;
        // Latest event on p ending at or before t.
        while cursor[p] > 0 && idx.by_proc[p][cursor[p] - 1].at.0 > t {
            cursor[p] -= 1;
        }
        if cursor[p] == 0 {
            // Nothing traced this early: idle back to time zero.
            segments.push(PathSegment {
                proc: ProcId(p),
                from: Time(0),
                to: Time(t),
                kind: SegmentKind::Blocked,
            });
            cp.blocked += t;
            t = 0;
            break;
        }
        let e = idx.by_proc[p][cursor[p] - 1];
        if e.at.0 < t {
            // Gap between the event and t: unattributed idleness.
            segments.push(PathSegment {
                proc: ProcId(p),
                from: e.at,
                to: Time(t),
                kind: SegmentKind::Blocked,
            });
            cp.blocked += t - e.at.0;
            t = e.at.0;
            continue;
        }
        cursor[p] -= 1;
        let start = e.start().0;
        match e.kind {
            EventKind::Compute { cycles } => {
                segments.push(PathSegment {
                    proc: ProcId(p),
                    from: Time(start),
                    to: Time(t),
                    kind: SegmentKind::Compute,
                });
                cp.compute += cycles;
                t = start;
            }
            EventKind::Send { cost, .. } | EventKind::FrameLost { cost, .. } => {
                segments.push(PathSegment {
                    proc: ProcId(p),
                    from: Time(start),
                    to: Time(t),
                    kind: SegmentKind::SendOverhead,
                });
                cp.send_overhead += cost;
                t = start;
            }
            EventKind::Recv {
                src,
                tag,
                waited,
                cost,
                ..
            } => {
                let unpack_start = e.at.0.saturating_sub(cost);
                segments.push(PathSegment {
                    proc: ProcId(p),
                    from: Time(unpack_start),
                    to: Time(e.at.0),
                    kind: SegmentKind::RecvOverhead,
                });
                cp.recv_overhead += cost;
                t = unpack_start;
                if waited > 0 {
                    // The receiver resumed when the message arrived:
                    // follow the edge to the sender. FIFO: count how
                    // many receives on this triple precede this one.
                    let key = (src.0, p, tag.0);
                    let k = idx.by_proc[p][..cursor[p]]
                        .iter()
                        .filter(|prior| {
                            matches!(
                                prior.kind,
                                EventKind::Recv { src: s, tag: g, .. }
                                    if s == src && g == tag
                            )
                        })
                        .count();
                    match idx.sends.get(&key).and_then(|v| v.get(k)) {
                        Some(send) if send.at.0 <= t => {
                            // Arrival == unpack start (the receiver was
                            // blocked, so clock jumped to arrival).
                            segments.push(PathSegment {
                                proc: send.proc,
                                from: send.at,
                                to: Time(t),
                                kind: SegmentKind::Flight,
                            });
                            cp.flight += t - send.at.0;
                            p = send.proc.0;
                            t = send.at.0;
                        }
                        _ => {
                            // Matching send missing (dropped from a
                            // bounded trace) or inconsistent: attribute
                            // the wait as blocked and keep walking here.
                            segments.push(PathSegment {
                                proc: ProcId(p),
                                from: Time(t.saturating_sub(waited)),
                                to: Time(t),
                                kind: SegmentKind::Blocked,
                            });
                            cp.blocked += waited;
                            t = t.saturating_sub(waited);
                            fell_back = true;
                        }
                    }
                }
            }
            EventKind::Retransmit { .. }
            | EventKind::Ack { .. }
            | EventKind::CheckpointTaken { .. }
            | EventKind::Crash { .. }
            | EventKind::Restore { .. }
            | EventKind::ReplayedFrame { .. }
            | EventKind::Finish => {
                // Instantaneous: skip.
            }
        }
    }
    segments.reverse();
    cp.segments = segments;
    cp.exact = t == 0 && !fell_back && trace.dropped() == 0 && !protocol_events && !lost_frames;
    cp
}

/// Analyze a finished trace: critical path, communication matrix, and
/// per-processor profiles. `n_procs` sizes the profile table; events on
/// processors `>= n_procs` are ignored.
pub fn analyze(trace: &Trace, n_procs: usize) -> TraceAnalysis {
    let idx = index(trace, n_procs);
    let critical = critical_path(&idx, trace);

    let mut comm: BTreeMap<(usize, usize, u32), CommEdge> = BTreeMap::new();
    let mut procs: Vec<ProcProfile> = vec![ProcProfile::default(); n_procs];
    for e in trace.events() {
        if e.proc.0 >= n_procs {
            continue;
        }
        let prof = &mut procs[e.proc.0];
        prof.finish = prof.finish.max(e.at.0);
        match e.kind {
            EventKind::Compute { cycles } => prof.compute += cycles,
            EventKind::Send {
                dst,
                tag,
                words,
                cost,
            } => {
                prof.send_overhead += cost;
                let edge = comm.entry((e.proc.0, dst.0, tag.0)).or_insert(CommEdge {
                    src: e.proc,
                    dst,
                    tag,
                    messages: 0,
                    words: 0,
                    waited: 0,
                    frames_lost: 0,
                });
                edge.messages += 1;
                edge.words += words as u64;
            }
            EventKind::Recv {
                src,
                tag,
                waited,
                cost,
                ..
            } => {
                prof.recv_overhead += cost;
                prof.blocked += waited;
                let edge = comm.entry((src.0, e.proc.0, tag.0)).or_insert(CommEdge {
                    src,
                    dst: e.proc,
                    tag,
                    messages: 0,
                    words: 0,
                    waited: 0,
                    frames_lost: 0,
                });
                edge.waited += waited;
            }
            EventKind::FrameLost {
                dst,
                tag,
                words,
                cost,
            } => {
                prof.send_overhead += cost;
                let edge = comm.entry((e.proc.0, dst.0, tag.0)).or_insert(CommEdge {
                    src: e.proc,
                    dst,
                    tag,
                    messages: 0,
                    words: 0,
                    waited: 0,
                    frames_lost: 0,
                });
                edge.frames_lost += 1;
                edge.words += words as u64;
            }
            EventKind::Retransmit { .. }
            | EventKind::Ack { .. }
            | EventKind::CheckpointTaken { .. }
            | EventKind::Crash { .. }
            | EventKind::Restore { .. }
            | EventKind::ReplayedFrame { .. }
            | EventKind::Finish => {}
        }
    }
    for prof in &mut procs {
        let attributed = prof.compute + prof.send_overhead + prof.recv_overhead + prof.blocked;
        prof.idle = prof.finish.saturating_sub(attributed);
    }

    TraceAnalysis {
        critical_path: critical,
        comm: comm.into_values().collect(),
        procs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RunConfig;
    use crate::cost::CostModel;
    use crate::fabric::{Fabric, Machine};
    use crate::message::{ProcId, Tag, Time};
    use crate::report::Ledger;

    /// A bare machine tracing up to `cap` events.
    fn traced(cost: CostModel, cap: usize) -> Machine {
        let mut m = Machine::new(2, cost);
        m.configure(&RunConfig {
            trace_cap: Some(cap),
            ..RunConfig::default()
        });
        m
    }

    /// Hand-computed two-processor chain, driven through the real
    /// fabric so the trace is exactly what a run records:
    /// P0 computes 500 then sends one word; P1 receives (blocking from
    /// t=0) then computes 100. The critical path is
    /// compute(500) + send_cost + flight + recv_cost + compute(100),
    /// with zero blocked time — and its total is the makespan.
    #[test]
    fn two_proc_chain_decomposes_to_hand_computed_makespan() {
        let c = CostModel::ipsc2();
        let mut m = traced(c, 1024);
        m.tick(ProcId(0), 500);
        m.send_ref(ProcId(0), ProcId(1), Tag(0), &[7]);
        m.finish(ProcId(0));
        let mut got = Vec::new();
        assert!(m.try_recv_into(ProcId(1), ProcId(0), Tag(0), &mut got));
        assert_eq!(got, vec![7]);
        m.tick(ProcId(1), 100);
        m.finish(ProcId(1));

        let trace = m.report(0, Ledger::default()).trace;
        let a = analyze(&trace, 2);
        let cp = &a.critical_path;

        let send_cost = c.send_cost(1);
        let recv_cost = c.recv_cost(1);
        assert_eq!(cp.compute, 600);
        assert_eq!(cp.send_overhead, send_cost);
        assert_eq!(cp.recv_overhead, recv_cost);
        assert_eq!(cp.flight, c.flight);
        assert_eq!(
            cp.blocked, 0,
            "the receiver's wait is covered by P0's chain"
        );
        assert_eq!(
            cp.makespan,
            500 + send_cost + c.flight + recv_cost + 100,
            "hand-computed makespan"
        );
        assert_eq!(cp.total(), cp.makespan, "decomposition is exact");
        assert!(cp.exact);

        // Segments are chronological and start from t=0.
        assert_eq!(cp.segments.first().map(|s| s.from), Some(Time(0)));
        assert_eq!(cp.segments.last().map(|s| s.to.0), Some(cp.makespan));
        for w in cp.segments.windows(2) {
            assert!(w[0].to.0 <= w[1].from.0 || w[0].to.0 == w[1].from.0);
        }

        // The path hops processors exactly once, over the flight edge.
        assert!(cp
            .segments
            .iter()
            .any(|s| s.kind == SegmentKind::Flight && s.proc == ProcId(0)));

        // Communication matrix: one edge, one message, one word.
        assert_eq!(a.comm.len(), 1);
        assert_eq!(a.comm[0].messages, 1);
        assert_eq!(a.comm[0].words, 1);
        assert!(a.comm[0].waited > 0, "P1 blocked before the arrival");

        // P1's profile: blocked + overhead + compute == finish (no idle).
        let p1 = &a.procs[1];
        assert_eq!(p1.idle, 0);
        assert_eq!(p1.compute, 100);
        assert_eq!(p1.finish, cp.makespan);
    }

    /// A receiver that was *not* blocked (message already arrived) keeps
    /// the path on its own processor — no flight hop.
    #[test]
    fn unblocked_recv_stays_on_processor() {
        let c = CostModel::shared_memory();
        let mut m = traced(c, 64);
        m.send_ref(ProcId(0), ProcId(1), Tag(0), &[1]);
        // P1 computes past the arrival before receiving.
        m.tick(ProcId(1), 1000);
        assert!(m.try_recv_into(ProcId(1), ProcId(0), Tag(0), &mut Vec::new()));
        m.finish(ProcId(1));
        m.finish(ProcId(0));

        let a = analyze(&m.report(0, Ledger::default()).trace, 2);
        assert_eq!(a.critical_path.flight, 0, "no blocked recv, no hop");
        assert!(a.critical_path.total() == a.critical_path.makespan);
        assert!(a.critical_path.exact);
    }

    #[test]
    fn empty_trace_analyzes_to_zeroes() {
        let a = analyze(&crate::trace::Trace::disabled(), 2);
        assert_eq!(a.critical_path.makespan, 0);
        assert_eq!(a.critical_path.total(), 0);
        assert!(a.comm.is_empty());
    }
}
