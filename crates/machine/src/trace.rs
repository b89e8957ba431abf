//! Optional event tracing for debugging, visualization, and the
//! observability layer (Chrome export in [`trace_chrome`](crate::trace_chrome),
//! critical-path analysis in [`trace_analysis`](crate::trace_analysis)).
//!
//! Every event is recorded by the logical processor that charges for it
//! (DESIGN §5b, "The logical processor"): into the simulator's one trace,
//! or into a threaded endpoint's own, which [`Trace::merge`] combines by
//! timestamp at teardown. Logical clocks are backend-invariant, so the
//! merged trace is too (on the raw fabric; under fault injection the
//! retransmission *schedule* is wall-clock-dependent on threads).

use crate::message::{ProcId, Tag, Time};
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// What happened in a traced event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A contiguous run of local computation ending at the event's `at`.
    /// Individual instruction ticks are coalesced into one interval per
    /// run so tight loops do not explode the trace.
    Compute {
        /// Length of the interval in (slowdown-scaled) cycles.
        cycles: u64,
    },
    /// A message left `src` for `dst`. `at` is the send completion time;
    /// the sender was busy packing over `[at - cost, at]`.
    Send {
        /// Destination processor.
        dst: ProcId,
        /// Message tag.
        tag: Tag,
        /// Payload size in words.
        words: usize,
        /// Packing cost the sender paid (slowdown-scaled).
        cost: u64,
    },
    /// A message from `src` was consumed. `at` is the post-unpack clock;
    /// the receiver unpacked over `[at - cost, at]` and sat blocked over
    /// the `waited` cycles before that.
    Recv {
        /// Originating processor.
        src: ProcId,
        /// Message tag.
        tag: Tag,
        /// Payload size in words.
        words: usize,
        /// Cycles the receiver spent waiting for this message beyond its
        /// own clock (0 if it had already arrived).
        waited: u64,
        /// Unpacking cost the receiver paid (slowdown-scaled).
        cost: u64,
    },
    /// A send whose frame the transport lost (fault injection): the
    /// sender paid `cost` but nothing was delivered.
    FrameLost {
        /// Intended destination.
        dst: ProcId,
        /// Message tag.
        tag: Tag,
        /// Payload size in words.
        words: usize,
        /// Packing cost the sender paid anyway.
        cost: u64,
    },
    /// The reliable-delivery layer retransmitted frame `seq` of the
    /// `(dst, tag)` stream.
    Retransmit {
        /// Stream destination.
        dst: ProcId,
        /// Stream tag.
        tag: Tag,
        /// Sequence number of the retransmitted frame.
        seq: u64,
    },
    /// The reliable-delivery layer retired sends up to cumulative
    /// sequence `cum` on the `(peer, tag)` stream (an ack arrived), or —
    /// on the receive side — acknowledged a batch it ingested.
    Ack {
        /// The stream peer.
        peer: ProcId,
        /// Stream (data) tag.
        tag: Tag,
        /// Cumulative sequence number acknowledged.
        cum: u64,
    },
    /// A checkpoint of this processor's complete execution state was
    /// serialized (see [`checkpoint`](crate::checkpoint)).
    CheckpointTaken {
        /// Charged-op counter at the snapshot.
        at_op: u64,
        /// Serialized checkpoint size in bytes.
        bytes: u64,
    },
    /// The processor crashed (fault injection), losing all volatile state.
    Crash {
        /// Charged-op counter at the crash.
        at_op: u64,
    },
    /// The processor was restored from its last checkpoint.
    Restore {
        /// The op counter of the checkpoint restored to.
        from_op: u64,
        /// Charged ops that must be re-executed to reach the crash point.
        replayed: u64,
    },
    /// A frame out of a restored sender window was re-armed for
    /// retransmission — the reliable layer will replay it to the peer.
    ReplayedFrame {
        /// Stream destination.
        dst: ProcId,
        /// Stream tag.
        tag: Tag,
        /// Sequence number of the replayed frame.
        seq: u64,
    },
    /// The process on this processor finished.
    Finish,
}

/// One traced event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Global record order (per backend; reassigned after a threaded
    /// merge so it is again strictly increasing).
    pub seq: u64,
    /// Processor on which the event occurred.
    pub proc: ProcId,
    /// Local clock after the event.
    pub at: Time,
    /// The event itself.
    pub kind: EventKind,
}

impl Event {
    /// Length of the busy/blocked interval ending at [`at`](Event::at):
    /// compute cycles, packing/unpacking cost (plus blocked wait for a
    /// receive), zero for instantaneous protocol events.
    pub fn duration(&self) -> u64 {
        match self.kind {
            EventKind::Compute { cycles } => cycles,
            EventKind::Send { cost, .. } | EventKind::FrameLost { cost, .. } => cost,
            EventKind::Recv { waited, cost, .. } => waited + cost,
            EventKind::Retransmit { .. }
            | EventKind::Ack { .. }
            | EventKind::CheckpointTaken { .. }
            | EventKind::Crash { .. }
            | EventKind::Restore { .. }
            | EventKind::ReplayedFrame { .. }
            | EventKind::Finish => 0,
        }
    }

    /// Start of the interval ending at [`at`](Event::at).
    pub fn start(&self) -> Time {
        Time(self.at.0.saturating_sub(self.duration()))
    }
}

/// What a bounded trace drops when it overflows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DropPolicy {
    /// Keep the first `cap` events, drop everything after — the prologue
    /// of the run survives. The default.
    #[default]
    KeepOldest,
    /// Keep the last `cap` events, evicting from the front — the epilogue
    /// (where pipelining is visible) survives.
    KeepNewest,
}

/// An open (not yet emitted) compute interval for one processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OpenCompute {
    end: Time,
    cycles: u64,
}

/// A bounded in-memory event trace.
///
/// Tracing is off by default ([`Trace::disabled`]); the bench and example
/// binaries enable it with a cap so pathological programs cannot exhaust
/// memory. On overflow the [`DropPolicy`] decides which end of the run
/// survives, and [`dropped`](Trace::dropped) counts the evicted events —
/// surfaced by the Chrome exporter and the gantt renderer so a truncated
/// trace is never mistaken for a complete one.
#[derive(Debug, Clone)]
pub struct Trace {
    events: VecDeque<Event>,
    cap: usize,
    policy: DropPolicy,
    dropped: u64,
    next_seq: u64,
    enabled: bool,
    /// Per-processor compute interval still being extended; flushed when
    /// any other event lands on that processor (or explicitly).
    open: BTreeMap<usize, OpenCompute>,
}

impl Trace {
    /// A trace that records nothing.
    pub fn disabled() -> Self {
        Trace {
            events: VecDeque::new(),
            cap: 0,
            policy: DropPolicy::KeepOldest,
            dropped: 0,
            next_seq: 0,
            enabled: false,
            open: BTreeMap::new(),
        }
    }

    /// A trace that keeps at most the *oldest* `cap` events, counting
    /// overflow (see [`DropPolicy::KeepOldest`]).
    pub fn bounded(cap: usize) -> Self {
        Trace::with_policy(cap, DropPolicy::KeepOldest)
    }

    /// A bounded trace with an explicit overflow policy.
    pub fn with_policy(cap: usize, policy: DropPolicy) -> Self {
        Trace {
            events: VecDeque::new(),
            cap,
            policy,
            dropped: 0,
            next_seq: 0,
            enabled: true,
            open: BTreeMap::new(),
        }
    }

    /// Record an event (no-op when disabled). Flushes the processor's
    /// open compute interval first so per-processor order is preserved.
    pub fn record(&mut self, proc: ProcId, at: Time, kind: EventKind) {
        if !self.enabled {
            return;
        }
        self.flush_proc(proc);
        self.push(Event {
            seq: 0,
            proc,
            at,
            kind,
        });
    }

    /// Record `to - from` cycles of computation on `proc`, coalescing
    /// with an adjacent open interval. Zero-length intervals are ignored.
    pub fn record_compute(&mut self, proc: ProcId, from: Time, to: Time) {
        if !self.enabled || to <= from {
            return;
        }
        let cycles = to.0 - from.0;
        match self.open.get_mut(&proc.0) {
            Some(o) if o.end == from => {
                o.end = to;
                o.cycles += cycles;
            }
            _ => {
                self.flush_proc(proc);
                self.open.insert(proc.0, OpenCompute { end: to, cycles });
            }
        }
    }

    /// Emit `proc`'s open compute interval, if any.
    fn flush_proc(&mut self, proc: ProcId) {
        if let Some(o) = self.open.remove(&proc.0) {
            self.push(Event {
                seq: 0,
                proc,
                at: o.end,
                kind: EventKind::Compute { cycles: o.cycles },
            });
        }
    }

    /// Emit every open compute interval. Call before reading a final
    /// trace; a [`RunReport`](crate::RunReport)'s trace is already
    /// flushed.
    pub fn flush(&mut self) {
        let procs: Vec<usize> = self.open.keys().copied().collect();
        for p in procs {
            self.flush_proc(ProcId(p));
        }
    }

    fn push(&mut self, mut ev: Event) {
        ev.seq = self.next_seq;
        self.next_seq += 1;
        match self.policy {
            DropPolicy::KeepOldest => {
                if self.events.len() < self.cap {
                    self.events.push_back(ev);
                } else {
                    self.dropped += 1;
                }
            }
            DropPolicy::KeepNewest => {
                self.events.push_back(ev);
                while self.events.len() > self.cap {
                    self.events.pop_front();
                    self.dropped += 1;
                }
            }
        }
    }

    /// The recorded events, in record order (after a threaded merge: in
    /// timestamp order, per-processor record order preserved).
    pub fn events(&self) -> impl Iterator<Item = &Event> + '_ {
        self.events.iter()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Is the trace empty?
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events that overflowed the cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The configured cap.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// The configured overflow policy.
    pub fn policy(&self) -> DropPolicy {
        self.policy
    }

    /// Is recording enabled?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Merge per-processor traces (from the threaded backend) into one:
    /// events are stably sorted by timestamp, so each processor's own
    /// record order is preserved, and sequence numbers are reassigned in
    /// the merged order. Drop counts are summed; the merged cap is the
    /// sum of the parts' caps (each endpoint bounded its own memory).
    pub fn merge(parts: Vec<Trace>) -> Trace {
        let enabled = parts.iter().any(|t| t.enabled);
        let cap: usize = parts.iter().map(|t| t.cap).sum();
        let policy = parts.first().map_or(DropPolicy::KeepOldest, |t| t.policy);
        let dropped = parts.iter().map(|t| t.dropped).sum();
        let mut events: Vec<Event> = Vec::with_capacity(parts.iter().map(|t| t.len()).sum());
        for mut part in parts {
            part.flush();
            events.extend(part.events);
        }
        events.sort_by_key(|e| e.at.0);
        for (i, e) in events.iter_mut().enumerate() {
            e.seq = i as u64;
        }
        Trace {
            events: events.into(),
            cap,
            policy,
            dropped,
            next_seq: 0,
            enabled,
            open: BTreeMap::new(),
        }
    }
}

impl Default for Trace {
    fn default() -> Self {
        Trace::disabled()
    }
}

/// Render a textual Gantt chart of the trace: one row per processor, time
/// scaled to `width` columns, with `s` marking sends, `r` receives, `x`
/// lost/retransmitted frames, `a` acks, `|` completion, and `#` several in
/// the same column (compute intervals are not marked). Useful for
/// eyeballing pipelining — the wavefront of the paper's Figure 2 is
/// clearly visible in the staircase of send/receive marks.
///
/// A `width` below 2 cannot hold a time axis; the renderer returns a
/// one-line message instead of panicking. A trace whose events all share
/// one timestamp scales that instant to the final column.
pub fn render_gantt(trace: &Trace, n_procs: usize, width: usize) -> String {
    if width < 2 {
        return format!("(gantt needs a width of at least 2 columns, got {width})\n");
    }
    let mut out = String::new();
    let horizon = trace.events().map(|e| e.at.0).max().unwrap_or(0).max(1);
    let col = |t: Time| ((t.0 as u128 * (width as u128 - 1)) / horizon as u128) as usize;
    for p in 0..n_procs {
        let mut row = vec![b'.'; width];
        for e in trace.events().filter(|e| e.proc.0 == p) {
            let mark = match e.kind {
                EventKind::Send { .. } => b's',
                EventKind::Recv { .. } => b'r',
                EventKind::FrameLost { .. } | EventKind::Retransmit { .. } => b'x',
                EventKind::Ack { .. } => b'a',
                EventKind::CheckpointTaken { .. } => b'c',
                EventKind::Crash { .. } => b'!',
                EventKind::Restore { .. } | EventKind::ReplayedFrame { .. } => b'R',
                EventKind::Finish => b'|',
                EventKind::Compute { .. } => continue,
            };
            let c = col(e.at);
            row[c] = match (row[c], mark) {
                (b'.', m) => m,
                (a, m) if a == m => m,
                _ => b'#',
            };
        }
        out.push_str(&format!("P{p:<3} "));
        out.push_str(std::str::from_utf8(&row).expect("ascii"));
        out.push('\n');
    }
    out.push_str(&format!(
        "     0{:>width$}\n",
        format!("{horizon} cycles"),
        width = width - 1
    ));
    if trace.dropped() > 0 {
        out.push_str(&format!(
            "     ({} events beyond the cap)\n",
            trace.dropped()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Tag;

    fn ev(t: &mut Trace, p: usize, at: u64) {
        t.record(ProcId(p), Time(at), EventKind::Finish);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::disabled();
        ev(&mut t, 0, 1);
        t.record_compute(ProcId(0), Time(0), Time(5));
        t.flush();
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn bounded_trace_caps_and_counts() {
        let mut t = Trace::bounded(2);
        for i in 0..5 {
            ev(&mut t, i, i as u64);
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
        // Keep-oldest: the first two events survive.
        let ats: Vec<u64> = t.events().map(|e| e.at.0).collect();
        assert_eq!(ats, vec![0, 1]);
    }

    #[test]
    fn keep_newest_evicts_from_the_front() {
        let mut t = Trace::with_policy(2, DropPolicy::KeepNewest);
        for i in 0..5 {
            ev(&mut t, i, i as u64);
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
        let ats: Vec<u64> = t.events().map(|e| e.at.0).collect();
        assert_eq!(ats, vec![3, 4], "the tail of the run survives");
    }

    #[test]
    fn compute_intervals_coalesce() {
        let mut t = Trace::bounded(16);
        t.record_compute(ProcId(0), Time(0), Time(5));
        t.record_compute(ProcId(0), Time(5), Time(9));
        // A non-adjacent interval flushes the open one.
        t.record_compute(ProcId(0), Time(20), Time(22));
        t.flush();
        let evs: Vec<&Event> = t.events().collect();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].kind, EventKind::Compute { cycles: 9 });
        assert_eq!(evs[0].at, Time(9));
        assert_eq!(evs[1].kind, EventKind::Compute { cycles: 2 });
        assert_eq!(evs[1].at, Time(22));
    }

    #[test]
    fn other_events_flush_open_compute_in_order() {
        let mut t = Trace::bounded(16);
        t.record_compute(ProcId(0), Time(0), Time(5));
        t.record(
            ProcId(0),
            Time(10),
            EventKind::Send {
                dst: ProcId(1),
                tag: Tag(0),
                words: 1,
                cost: 5,
            },
        );
        let kinds: Vec<&EventKind> = t.events().map(|e| &e.kind).collect();
        assert!(matches!(kinds[0], EventKind::Compute { cycles: 5 }));
        assert!(matches!(kinds[1], EventKind::Send { .. }));
    }

    #[test]
    fn seq_numbers_are_strictly_increasing() {
        let mut t = Trace::bounded(16);
        for i in 0..5 {
            ev(&mut t, 0, i);
        }
        let seqs: Vec<u64> = t.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn merge_sorts_by_time_and_reseqs() {
        let mut a = Trace::bounded(16);
        ev(&mut a, 0, 10);
        ev(&mut a, 0, 30);
        let mut b = Trace::bounded(16);
        ev(&mut b, 1, 20);
        b.record_compute(ProcId(1), Time(30), Time(40));
        let m = Trace::merge(vec![a, b]);
        let ats: Vec<u64> = m.events().map(|e| e.at.0).collect();
        assert_eq!(ats, vec![10, 20, 30, 40], "flushed and time-sorted");
        let seqs: Vec<u64> = m.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
        assert!(m.is_enabled());
    }

    #[test]
    fn event_interval_accessors() {
        let e = Event {
            seq: 0,
            proc: ProcId(1),
            at: Time(100),
            kind: EventKind::Recv {
                src: ProcId(0),
                tag: Tag(0),
                words: 2,
                waited: 30,
                cost: 10,
            },
        };
        assert_eq!(e.duration(), 40);
        assert_eq!(e.start(), Time(60));
    }

    #[test]
    fn gantt_marks_events_per_processor() {
        let mut t = Trace::bounded(16);
        t.record(
            ProcId(0),
            Time(0),
            EventKind::Send {
                dst: ProcId(1),
                tag: Tag(0),
                words: 1,
                cost: 0,
            },
        );
        t.record(
            ProcId(1),
            Time(100),
            EventKind::Recv {
                src: ProcId(0),
                tag: Tag(0),
                words: 1,
                waited: 0,
                cost: 0,
            },
        );
        t.record(ProcId(1), Time(100), EventKind::Finish);
        let g = render_gantt(&t, 2, 40);
        let lines: Vec<&str> = g.lines().collect();
        assert!(lines[0].starts_with("P0"));
        assert!(lines[0].contains('s'));
        // The recv and finish share a column: squashed to '#'.
        assert!(lines[1].contains('#'));
        assert!(g.contains("100 cycles"));
    }

    #[test]
    fn gantt_of_empty_trace_is_blank_rows() {
        let g = render_gantt(&Trace::disabled(), 2, 10);
        assert_eq!(g.lines().count(), 3);
    }

    #[test]
    fn gantt_narrow_width_is_a_message_not_a_panic() {
        let mut t = Trace::bounded(4);
        ev(&mut t, 0, 5);
        for w in [0, 1] {
            let g = render_gantt(&t, 1, w);
            assert!(g.contains("width of at least 2"), "width {w}: {g}");
        }
    }

    #[test]
    fn gantt_single_timestamp_lands_in_final_column() {
        let mut t = Trace::bounded(4);
        ev(&mut t, 0, 42);
        let g = render_gantt(&t, 1, 10);
        let row = g.lines().next().unwrap();
        assert!(row.ends_with('|'), "mark at the right edge: {row:?}");
    }
}
