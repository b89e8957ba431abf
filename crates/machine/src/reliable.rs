//! Reliable delivery and checkpoint/restart over an unreliable fabric:
//! the one protocol core both backends drive.
//!
//! The raw fabric guarantees nothing once a [`FaultPlan`](crate::FaultPlan)
//! is in force: frames may be dropped, duplicated, delayed, or reordered
//! within a `(src, dst, tag)` triple, and a processor may crash. This
//! module supplies the remedy — per-stream sequence numbers, cumulative
//! two-component acknowledgements, go-back-N retransmission with
//! exponential backoff, and ack-lagging checkpoints — as one
//! per-processor state machine, `RelEndpoint<T>`. Every protocol
//! *decision* is made here; a backend is a shell that decides only when
//! to call the core and how frames move, and reaches it through the
//! `Wire` trait. `T` is the deadline clock: the simulator's
//! [`Scheduler`](crate::Scheduler) runs the core on logical time
//! ([`Time`]), the threaded backend on
//! `std::time::Instant`, and the tests below run it over an in-memory
//! wire under seeded adversarial schedules.
//!
//! # Wire format
//!
//! A *data frame* on `(src, dst, tag)` is the program payload prefixed
//! with one word: `[seq, w0, w1, …]`, where `seq` is the zero-based
//! position of the message in its stream. An *ack frame* travels on the
//! reversed pair under the companion tag [`ack_tag`]`(tag)` — the original
//! tag with bit 31 set — and carries `[stable, live]`: every sequence
//! number below `stable` is durable at the receiver (retire it), every
//! one below `live` has been received (stop retransmitting it). Without
//! checkpoints the two are equal. Acks are cumulative and idempotent, so
//! lost, duplicated, or reordered acks never corrupt the protocol; at
//! worst they cause a spurious retransmission, which the receive-side
//! dedup absorbs.
//!
//! Program tags must therefore stay below [`ACK_TAG_BIT`]; the compiler
//! allocates small dense tags, so the top bit is free by construction
//! (debug-asserted at the send site).

use crate::checkpoint::{Checkpoint, CheckpointCfg, RecoveryReport};
use crate::error::MachineError;
use crate::message::{ProcId, Tag, Time, Word};
use crate::sched::Process;
use crate::stats::FaultReport;
use crate::trace::EventKind;
use pdc_metrics::{Ctr, FlightKind, MetricsRegistry, NO_PEER};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

/// Tag-space bit reserved for acknowledgement streams: the ack channel
/// for `(src, dst, tag)` is `(dst, src, tag | ACK_TAG_BIT)`.
pub const ACK_TAG_BIT: u32 = 1 << 31;

/// The companion acknowledgement tag of a data tag.
pub fn ack_tag(t: Tag) -> Tag {
    Tag(t.0 | ACK_TAG_BIT)
}

/// Is this tag an acknowledgement stream?
pub(crate) fn is_ack_tag(t: Tag) -> bool {
    t.0 & ACK_TAG_BIT != 0
}

/// Prefix `payload` with its sequence number, as a shared immutable
/// slice. The retransmission window, checkpoints, and the wire path all
/// hold the *same* allocation — retransmitting or snapshotting a frame
/// is a reference-count bump, never a copy. The receive side never
/// undoes this: it keeps whole frames and reads `frame[0]` / `frame[1..]`.
pub(crate) fn frame_arc(seq: u64, payload: &[Word]) -> Arc<[Word]> {
    std::iter::once(seq as Word)
        .chain(payload.iter().copied())
        .collect()
}

/// Retransmission policy, shared by both backends. The two timeout bases
/// reflect the two notions of time: the simulator retries after
/// `rto_cycles` *logical* cycles of the sender's clock, the threaded
/// backend after `rto_wall` of real time. Both double per retry
/// (exponential backoff, capped at 2¹⁰×).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelConfig {
    /// Base retransmission timeout on the simulator, in logical cycles.
    /// The default is ~30× an iPSC/2 round trip, so a healthy ack always
    /// arrives first.
    pub rto_cycles: u64,
    /// Base retransmission timeout on the threaded backend, wall-clock.
    pub rto_wall: Duration,
    /// Retransmissions per frame before the sender gives up with
    /// [`MachineError::RetriesExhausted`](crate::MachineError).
    pub max_retries: u32,
}

impl Default for RelConfig {
    fn default() -> Self {
        RelConfig {
            rto_cycles: 50_000,
            rto_wall: Duration::from_millis(20),
            max_retries: 16,
        }
    }
}

impl RelConfig {
    /// The logical-clock timeout after `retries` retransmissions.
    pub fn backoff_cycles(&self, retries: u32) -> u64 {
        self.rto_cycles.saturating_mul(1u64 << retries.min(10))
    }

    /// The wall-clock timeout after `retries` retransmissions.
    pub fn backoff_wall(&self, retries: u32) -> Duration {
        self.rto_wall.saturating_mul(1u32 << retries.min(10))
    }
}

/// The clock retransmission deadlines are kept on: logical [`Time`] on
/// the simulator, `std::time::Instant` on the threaded backend.
pub(crate) trait Deadline: Copy + Ord {
    /// The deadline of a frame (re)transmitted at `self` after `retries`
    /// retransmissions: one base timeout, doubled per retry.
    fn after(self, cfg: &RelConfig, retries: u32) -> Self;
}

impl Deadline for Time {
    fn after(self, cfg: &RelConfig, retries: u32) -> Time {
        self.plus(cfg.backoff_cycles(retries))
    }
}

/// A frame awaiting acknowledgement. `T` is the deadline type: [`Time`]
/// on the simulator, `std::time::Instant` on the threaded backend.
#[derive(Debug, Clone)]
pub(crate) struct Pending<T> {
    /// Sequence number of the frame.
    pub(crate) seq: u64,
    /// The full wire frame (seq word included), kept for retransmission.
    /// Shared: retransmits and checkpoint snapshots bump the count
    /// instead of cloning the words.
    pub(crate) frame: Arc<[Word]>,
    /// Retransmissions so far.
    pub(crate) retries: u32,
    /// When the next retransmission fires.
    pub(crate) deadline: T,
}

/// Send side of one `(dst, tag)` stream: the next sequence number and the
/// window of unacknowledged frames, oldest first.
#[derive(Debug, Clone)]
pub(crate) struct SenderChan<T> {
    /// Sequence number the next send will use.
    pub(crate) next_seq: u64,
    /// Frames sent but not yet cumulatively acknowledged.
    pub(crate) unacked: VecDeque<Pending<T>>,
    /// Live-delivery floor: every sequence number below this has been
    /// *received* by the peer, even if its checkpoint-lagged stable ack
    /// hasn't caught up. Frames below the floor stay in the window (they
    /// are the crash-replay suffix) but are never retransmitted on
    /// timer, never accumulate retries, and never wake the timer — the
    /// peer has them. A restored peer rolls the floor back by acking
    /// with its rolled-back cumulative, which re-arms exactly the suffix
    /// it lost.
    pub(crate) delivered: u64,
    /// What is known about the earliest deadline among the *live* frames
    /// (`seq >= delivered`) without walking the window: the timer service
    /// runs before every program send and receive, and under checkpoints
    /// the window holds the whole replay suffix. A send lowers the bound;
    /// a rollback in [`set_live`](Self::set_live) and
    /// [`from_snapshot`](Self::from_snapshot) re-arm frames wholesale and
    /// forget it; the scan in `service_timers` recomputes it. Nothing
    /// else needs to touch it: [`mark_alive`](Self::mark_alive) changes
    /// retry counts, not deadlines, and [`ack`](Self::ack), a forward
    /// `set_live` and the retirement of a whole window only *remove*
    /// frames from the live set, which can raise its minimum but never
    /// lower it — a lower bound stays one.
    pub(crate) due: Due<T>,
}

/// See [`SenderChan::due`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Due<T> {
    /// Not known: the window has to be scanned.
    Unknown,
    /// No frame of the window is live.
    Never,
    /// No live frame is due before this.
    NotBefore(T),
}

// Manual impl: the derive would demand `T: Default`, but an empty window
// holds no deadlines (`Instant` has no default).
impl<T> Default for SenderChan<T> {
    fn default() -> Self {
        SenderChan::new()
    }
}

impl<T> SenderChan<T> {
    /// A fresh stream at sequence zero.
    pub(crate) fn new() -> Self {
        SenderChan {
            next_seq: 0,
            unacked: VecDeque::new(),
            delivered: 0,
            due: Due::Never,
        }
    }

    /// Append the frame just transmitted as `seq`, due at `deadline`.
    fn push(&mut self, seq: u64, frame: Arc<[Word]>, deadline: T)
    where
        T: Copy + Ord,
    {
        if seq >= self.delivered {
            self.due = match self.due {
                Due::Unknown => Due::Unknown,
                Due::Never => Due::NotBefore(deadline),
                Due::NotBefore(t) => Due::NotBefore(t.min(deadline)),
            };
        }
        self.unacked.push_back(Pending {
            seq,
            frame,
            retries: 0,
            deadline,
        });
    }

    /// Is no live frame due at `now`, going by the cached bound alone?
    fn idle_at(&self, now: T) -> bool
    where
        T: Copy + Ord,
    {
        match self.due {
            Due::Unknown => false,
            Due::Never => true,
            Due::NotBefore(t) => t > now,
        }
    }

    /// Apply a cumulative ack (`every seq < cum received`), retiring
    /// acknowledged frames. Returns how many frames were retired; stale
    /// acks retire nothing and are harmless.
    pub(crate) fn ack(&mut self, cum: u64) -> usize {
        let mut retired = 0;
        while self.unacked.front().is_some_and(|p| p.seq < cum) {
            self.unacked.pop_front();
            retired += 1;
        }
        retired
    }

    /// An acknowledgement arrived on this stream — whatever its value,
    /// the peer is alive and ingesting. Reset the retry counters so that
    /// retry exhaustion means "peer silent", not "cumulative ack lagging
    /// behind": a checkpointing peer deliberately advertises its stable
    /// floor instead of the live cumulative, which can hold the window
    /// open across many retransmission rounds.
    pub(crate) fn mark_alive(&mut self) {
        for p in &mut self.unacked {
            p.retries = 0;
        }
    }

    /// Apply the live-delivery component of an acknowledgement. Forward
    /// movement just raises the floor; a *rollback* (`live` below the
    /// current floor) is a restored peer soliciting replay of the suffix
    /// it lost in a crash — re-arm those frames to fire at `now` so the
    /// next timer service retransmits them immediately.
    pub(crate) fn set_live(&mut self, live: u64, now: T)
    where
        T: Clone,
    {
        if live < self.delivered {
            for p in &mut self.unacked {
                if p.seq >= live {
                    p.retries = 0;
                    p.deadline = now.clone();
                }
            }
            self.due = Due::Unknown;
        }
        self.delivered = live;
    }

    /// A deadline-free snapshot of this stream for a checkpoint. The two
    /// backends use different deadline types (logical [`Time`] vs
    /// `Instant`), and a deadline is meaningless across a crash anyway,
    /// so deadlines and retry counts are re-armed at restore time.
    pub(crate) fn snapshot(&self) -> SenderSnapshot {
        SenderSnapshot {
            next_seq: self.next_seq,
            unacked: self
                .unacked
                .iter()
                .map(|p| (p.seq, p.frame.clone()))
                .collect(),
        }
    }

    /// Rebuild a stream from a snapshot, arming every unacked frame with
    /// `deadline` (typically now + one RTO) and a fresh retry count. The
    /// delivered floor restarts at zero — "assume nothing got through" —
    /// so the whole restored window is eligible for replay; the first
    /// ack from the (never-crashed, fully caught-up) peer raises it back.
    pub(crate) fn from_snapshot(snap: &SenderSnapshot, deadline: T) -> Self
    where
        T: Clone,
    {
        SenderChan {
            next_seq: snap.next_seq,
            unacked: snap
                .unacked
                .iter()
                .map(|(seq, frame)| Pending {
                    seq: *seq,
                    frame: frame.clone(),
                    retries: 0,
                    deadline: deadline.clone(),
                })
                .collect(),
            delivered: 0,
            due: Due::Unknown,
        }
    }
}

/// Deadline-free checkpoint image of one [`SenderChan`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SenderSnapshot {
    /// Sequence number the next send will use.
    pub next_seq: u64,
    /// `(seq, wire frame)` pairs of the unacked window, oldest first.
    /// Frames are shared with the live window (and any other snapshots)
    /// — taking a checkpoint never copies payload words.
    pub unacked: Vec<(u64, Arc<[Word]>)>,
}

/// Checkpoint image of one [`RecvChan`]. Arrival stamps are preserved
/// verbatim: the simulator needs them bit-exact for deterministic replay,
/// and the threaded backend ignores them.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecvSnapshot {
    /// Next expected sequence number.
    pub expected: u64,
    /// Out-of-order stash: `(seq, arrival, payload)`.
    pub ooo: Vec<(u64, Time, Vec<Word>)>,
    /// In-order payloads not yet consumed by the program.
    pub ready: Vec<(Time, Vec<Word>)>,
    /// Duplicate frames discarded so far.
    pub dups: u64,
    /// Largest reordering gap observed so far.
    pub max_gap: u64,
}

/// Receive side of one `(src, tag)` stream: in-order reassembly with
/// duplicate suppression and gap tracking. Frames are kept whole
/// (`[seq, payload…]`, exactly as they came off the wire); the program
/// reads `frame[1..]` when it consumes one.
#[derive(Debug, Clone, Default)]
pub(crate) struct RecvChan {
    /// The next sequence number the program expects; everything below it
    /// has been delivered (or queued in `ready`).
    expected: u64,
    /// Frames that arrived ahead of a gap, keyed by sequence number.
    ooo: BTreeMap<u64, (Time, Vec<Word>)>,
    /// In-order frames ready for the program, with their arrival stamps.
    pub(crate) ready: VecDeque<(Time, Vec<Word>)>,
    /// Duplicate frames discarded.
    pub(crate) dups: u64,
    /// Largest gap observed between an out-of-order arrival and the
    /// expected sequence number.
    pub(crate) max_gap: u64,
}

impl RecvChan {
    /// Ingest one data frame. In-order frames (and any out-of-order
    /// successors they unlock) move to `ready`; early frames are stashed;
    /// old or already-stashed frames count as duplicates.
    pub(crate) fn on_frame(&mut self, arrives: Time, frame: Vec<Word>) {
        let seq = frame[0] as u64;
        if seq < self.expected {
            self.dups += 1;
        } else if seq == self.expected {
            self.ready.push_back((arrives, frame));
            self.expected += 1;
            while let Some(entry) = self.ooo.remove(&self.expected) {
                self.ready.push_back(entry);
                self.expected += 1;
            }
        } else {
            self.max_gap = self.max_gap.max(seq - self.expected);
            if self.ooo.insert(seq, (arrives, frame)).is_some() {
                self.dups += 1;
            }
        }
    }

    /// The cumulative acknowledgement to advertise: every sequence number
    /// below this has been received.
    pub(crate) fn cumulative(&self) -> u64 {
        self.expected
    }

    /// Checkpoint image of this stream. The image holds bare payloads:
    /// a frame's sequence number is implied by its position.
    pub(crate) fn snapshot(&self) -> RecvSnapshot {
        RecvSnapshot {
            expected: self.expected,
            ooo: self
                .ooo
                .iter()
                .map(|(seq, (t, f))| (*seq, *t, f[1..].to_vec()))
                .collect(),
            ready: self
                .ready
                .iter()
                .map(|(t, f)| (*t, f[1..].to_vec()))
                .collect(),
            dups: self.dups,
            max_gap: self.max_gap,
        }
    }

    /// Rebuild a stream from a checkpoint image. The ready queue is the
    /// run of sequence numbers ending just below `expected`.
    pub(crate) fn from_snapshot(snap: &RecvSnapshot) -> Self {
        let reframe = |seq: u64, p: &[Word]| -> Vec<Word> {
            std::iter::once(seq as Word)
                .chain(p.iter().copied())
                .collect()
        };
        let first_ready = snap.expected.saturating_sub(snap.ready.len() as u64);
        RecvChan {
            expected: snap.expected,
            ooo: snap
                .ooo
                .iter()
                .map(|(seq, t, p)| (*seq, (*t, reframe(*seq, p))))
                .collect(),
            ready: (first_ready..)
                .zip(&snap.ready)
                .map(|(seq, (t, p))| (*t, reframe(seq, p)))
                .collect(),
            dups: snap.dups,
            max_gap: snap.max_gap,
        }
    }
}

/// What the protocol core needs from the backend it runs on. One object
/// per call, supplied by `&mut`: the core never stores it and never
/// hands back a list of actions, so driving the protocol allocates
/// nothing per frame. The trait hides the backend (simulated machine or
/// ring endpoint) and lets the tests substitute an in-memory wire.
pub(crate) trait Wire<T> {
    /// Now, on the deadline clock.
    fn now(&self) -> T;
    /// This processor's logical clock (trace stamps, checkpoint pacing).
    fn clock(&self) -> Time;
    /// Send `frame` to `(dst, tag)` through the fault plan.
    fn transmit(&mut self, dst: ProcId, tag: Tag, frame: &[Word]);
    /// The oldest raw frame waiting on `(src → me, tag)`, if any.
    fn take(&mut self, src: ProcId, tag: Tag) -> Option<(Time, Vec<Word>)>;
    /// Append every data stream that has raw frames waiting for this
    /// processor — how streams it has never received on are discovered.
    fn incoming(&self, out: &mut Vec<(ProcId, Tag)>);
    /// Hand back the buffer of a consumed frame (pooled by the rings).
    fn recycle(&mut self, _buf: Vec<Word>) {}
    /// Charge `cycles` of interrupt-style protocol work to the logical
    /// clock: busy time, never idle waiting, no instruction counted.
    fn busy(&mut self, cycles: u64);
    /// Record a trace event at the current logical clock.
    fn record(&mut self, event: EventKind);
    /// The registry counters and flight entries go to.
    fn metrics(&self) -> &MetricsRegistry;
    /// Has `peer`'s *program* finished? Such a peer still serves the
    /// protocol but can neither crash nor consume anything more.
    fn peer_done(&self, peer: ProcId) -> bool;
}

/// Checkpoint bookkeeping of one processor: the policy, the pacing
/// state, the last serialized image (wire bytes, so every restore also
/// exercises the parse path), and the recovery tally.
#[derive(Debug)]
struct CkptState {
    cfg: CheckpointCfg,
    /// Charged-op counter at the last checkpoint or restore.
    last_op: u64,
    /// Logical clock and charged cost of the last checkpoint, for
    /// cost-amortized pacing ([`RelEndpoint::checkpoint_gap`]).
    last_at: Time,
    last_cost: u64,
    image: Vec<u8>,
    report: RecoveryReport,
}

/// The reliable-delivery and checkpoint/restart state machine of one
/// processor, generic over the deadline clock exactly as [`SenderChan`]
/// is. It owns both sides of every stream, the program-level traffic
/// ledgers, the stable ack floors, and the checkpoint image; it performs
/// no I/O and reads no clock of its own.
#[derive(Debug)]
pub(crate) struct RelEndpoint<T> {
    me: ProcId,
    cfg: RelConfig,
    /// Logical cycles charged for processing one incoming ack.
    ack_cost: u64,
    /// Send side, one stream per `(dst, tag)`.
    senders: BTreeMap<(ProcId, Tag), SenderChan<T>>,
    /// Receive side, one stream per `(src, tag)`.
    recvs: BTreeMap<(ProcId, Tag), RecvChan>,
    /// Program-level sends per `(dst, tag)` — with `recvd`, the
    /// backend-invariant counts reported as `pair_messages`.
    sent: BTreeMap<(ProcId, Tag), u64>,
    /// Program-level receives per `(src, tag)`.
    recvd: BTreeMap<(ProcId, Tag), u64>,
    /// Stable ack floors for independent-mode checkpointing: `Some(map)`
    /// means acks for `(src, tag)` advertise the stream position as of
    /// the last checkpoint (0 for streams it predates) instead of the
    /// live cumulative, so peers keep the replay suffix in their windows.
    /// `None` — no checkpointing, coordinated mode, or a finished
    /// program — advertises live.
    stable: Option<BTreeMap<(ProcId, Tag), u64>>,
    /// Keepalive pacing per starved receive stream: when the last
    /// keepalive went out and how often it has been asked for since.
    keepalive: BTreeMap<(ProcId, Tag), (T, u64)>,
    ckpt: Option<CkptState>,
    retransmits: u64,
    acks_sent: u64,
    /// Bumped by every protocol event (frame ingested, ack processed,
    /// retransmission, restore): the simulator's no-progress detector
    /// compares it across a scheduling round.
    activity: u64,
    /// Bumped only by *stream progress* — a data frame that advanced a
    /// cumulative sequence number, or an ack that retired a frame. It is
    /// bounded by the traffic the programs generate, so a wall-clock
    /// deadline re-armed on it cannot be extended by protocol chatter
    /// (keepalives, duplicate frames, acks that retire nothing).
    progress: u64,
    /// First fatal protocol error, surfaced by the shell after the step.
    fatal: Option<MachineError>,
    /// Reused key list for walking a stream map while mutating `self`.
    scratch: Vec<(ProcId, Tag)>,
}

impl<T: Deadline> RelEndpoint<T> {
    /// A fresh endpoint for processor `me`. With `ckpt` in independent
    /// mode, acknowledgements lag behind the last checkpoint from the
    /// very start.
    pub(crate) fn new(
        me: ProcId,
        cfg: RelConfig,
        ack_cost: u64,
        ckpt: Option<CheckpointCfg>,
    ) -> Self {
        RelEndpoint {
            me,
            cfg,
            ack_cost,
            senders: BTreeMap::new(),
            recvs: BTreeMap::new(),
            sent: BTreeMap::new(),
            recvd: BTreeMap::new(),
            stable: ckpt.filter(|c| !c.coordinated).map(|_| BTreeMap::new()),
            keepalive: BTreeMap::new(),
            ckpt: ckpt.map(|cfg| CkptState {
                cfg,
                last_op: 0,
                last_at: Time::ZERO,
                last_cost: 0,
                image: Vec::new(),
                report: RecoveryReport::default(),
            }),
            retransmits: 0,
            acks_sent: 0,
            activity: 0,
            progress: 0,
            fatal: None,
            scratch: Vec::new(),
        }
    }

    /// Program send: sequence-number the payload, transmit it, and keep
    /// the frame — one shared allocation — in the window until acked.
    pub(crate) fn send(
        &mut self,
        wire: &mut impl Wire<T>,
        dst: ProcId,
        tag: Tag,
        payload: &[Word],
    ) {
        debug_assert_eq!(
            tag.0 & ACK_TAG_BIT,
            0,
            "program tags must stay below the ack bit"
        );
        *self.sent.entry((dst, tag)).or_insert(0) += 1;
        // The program-level send is recorded here; every frame below —
        // data, retransmission, ack — is raw transport to the backend.
        wire.metrics().logical_send(
            self.me.0,
            dst.0 as u64,
            tag.0 as u64,
            payload.len() as u64,
            wire.clock().0,
        );
        let chan = self.senders.entry((dst, tag)).or_default();
        let seq = chan.next_seq;
        chan.next_seq += 1;
        let frame = frame_arc(seq, payload);
        wire.transmit(dst, tag, &frame);
        chan.push(seq, frame, wire.now().after(&self.cfg, 0));
    }

    /// Program receive: the next in-order frame of `(src, tag)` with its
    /// arrival stamp, if one is ready. The payload is `frame[1..]`.
    pub(crate) fn pop(&mut self, src: ProcId, tag: Tag) -> Option<(Time, Vec<Word>)> {
        let got = self.recvs.get_mut(&(src, tag))?.ready.pop_front()?;
        *self.recvd.entry((src, tag)).or_insert(0) += 1;
        Some(got)
    }

    /// Is an in-order frame ready for the program on `(src, tag)`?
    pub(crate) fn has_ready(&self, src: ProcId, tag: Tag) -> bool {
        self.recvs
            .get(&(src, tag))
            .is_some_and(|c| !c.ready.is_empty())
    }

    /// Consume every waiting ack frame, retiring acknowledged sends. Ack
    /// processing is interrupt-style: it charges the unpacking cost but
    /// never idles the processor waiting.
    pub(crate) fn pump_acks(&mut self, wire: &mut impl Wire<T>) {
        for (&(dst, tag), chan) in self.senders.iter_mut() {
            while let Some((_, ack)) = wire.take(dst, ack_tag(tag)) {
                let cum = ack[0] as u64;
                let live = ack.get(1).map_or(cum, |&w| w as u64);
                wire.recycle(ack);
                wire.busy(self.ack_cost);
                if chan.ack(cum) > 0 {
                    self.progress += 1;
                }
                chan.set_live(live, wire.now());
                chan.mark_alive();
                wire.record(EventKind::Ack {
                    peer: dst,
                    tag,
                    cum,
                });
                wire.metrics().count(self.me.0, Ctr::AcksRecvd, 1);
                self.activity += 1;
            }
        }
    }

    /// Ingest every raw data frame waiting on `(src, tag)` into the
    /// stream, then acknowledge the batch. Acks travel through the
    /// faulty fabric too — a lost ack is just another fault the
    /// retransmission path absorbs.
    pub(crate) fn pump_data(&mut self, wire: &mut impl Wire<T>, src: ProcId, tag: Tag) {
        let chan = self.recvs.entry((src, tag)).or_default();
        let (dups, cumulative) = (chan.dups, chan.cumulative());
        let mut drained = 0;
        while let Some((arrives, frame)) = wire.take(src, tag) {
            chan.on_frame(arrives, frame);
            drained += 1;
        }
        if drained == 0 {
            return;
        }
        self.activity += drained;
        if chan.cumulative() > cumulative {
            self.progress += 1;
        }
        let dup_delta = chan.dups - dups;
        self.ack(wire, src, tag);
        wire.metrics()
            .count(self.me.0, Ctr::DupFramesDropped, dup_delta);
    }

    /// [`pump_data`](Self::pump_data) over every stream with traffic —
    /// housekeeping for blocked and finished programs. Known streams are
    /// pumped unconditionally; streams this processor has never received
    /// on are discovered from the wire, so cross-traffic arriving while
    /// the program is blocked elsewhere still gets ingested and
    /// acknowledged instead of starving its sender's retries.
    pub(crate) fn pump_all_data(&mut self, wire: &mut impl Wire<T>) {
        let mut streams = self.recv_streams();
        let known = streams.len();
        wire.incoming(&mut streams);
        for (i, &(src, tag)) in streams.iter().enumerate() {
            if i < known || !self.recvs.contains_key(&(src, tag)) {
                self.pump_data(wire, src, tag);
            }
        }
        self.scratch = streams;
    }

    /// The one place an acknowledgement is built: `[adv, live]`, where
    /// `live` is the stream's cumulative position and `adv` the stable
    /// floor while checkpoints lag the acks (else `live` again). Batch
    /// acks, keepalives, rollback solicitations and final live acks all
    /// come through here.
    fn ack(&mut self, wire: &mut impl Wire<T>, src: ProcId, tag: Tag) {
        // A stream that does not exist yet still acks at zero: a receiver
        // restored from a pre-traffic checkpoint has no streams at all,
        // yet its peers' delivered floors may sit above everything it
        // lost — the zero advertisement is what rolls them back.
        let live = self.recvs.get(&(src, tag)).map_or(0, RecvChan::cumulative);
        let adv = match &self.stable {
            Some(floors) => floors.get(&(src, tag)).copied().unwrap_or(0),
            None => live,
        };
        wire.transmit(src, ack_tag(tag), &[adv as Word, live as Word]);
        self.acks_sent += 1;
        wire.metrics().count(self.me.0, Ctr::AcksSent, 1);
    }

    /// The keys of every receive stream, in the reused scratch list (the
    /// caller hands it back through `self.scratch`).
    fn recv_streams(&mut self) -> Vec<(ProcId, Tag)> {
        let mut streams = std::mem::take(&mut self.scratch);
        streams.clear();
        streams.extend(self.recvs.keys().copied());
        streams
    }

    /// [`ack`](Self::ack) on every receive stream.
    fn ack_all(&mut self, wire: &mut impl Wire<T>) {
        let streams = self.recv_streams();
        for &(src, tag) in &streams {
            self.ack(wire, src, tag);
        }
        self.scratch = streams;
    }

    /// Keepalive ack for the stream the program is blocked receiving on.
    /// This is the lost-rollback safety net: a restored processor's
    /// replay solicitation travels through the same faulty fabric as
    /// everything else, and if it is dropped the sender — whose delivered
    /// floor says we already have those frames — would never retransmit.
    /// Re-advertising our position while starved re-triggers the rollback
    /// until data flows again. Only checkpoint-lagged receivers solicit:
    /// without a stable floor in play the retransmission timers already
    /// cover every loss (and a black-holed stream must still starve into
    /// `RetriesExhausted`).
    ///
    /// Paced to one per base timeout, or per 256 requests: a starved
    /// simulated processor's clock freezes, so a pure clock gate would
    /// fire at most once — not enough when the fabric may drop several
    /// keepalives in a row. `force` skips the pacing: at simulator
    /// quiescence every timer may be suppressed by a delivered floor, the
    /// keepalive is the only move left, and waiting out its pacing would
    /// read as a deadlock. Returns whether an ack went out.
    pub(crate) fn keepalive(
        &mut self,
        wire: &mut impl Wire<T>,
        src: ProcId,
        tag: Tag,
        force: bool,
    ) -> bool {
        if self.stable.is_none() {
            return false;
        }
        let now = wire.now();
        let (last, asked) = self.keepalive.get(&(src, tag)).copied().unwrap_or((now, 0));
        if !force && asked < 256 && now < last.after(&self.cfg, 0) {
            self.keepalive.insert((src, tag), (last, asked + 1));
            return false;
        }
        self.keepalive.insert((src, tag), (now, 0));
        self.ack(wire, src, tag);
        true
    }

    /// Retransmit every unacknowledged frame whose deadline has passed,
    /// doubling its backoff; flag `RetriesExhausted` once the oldest
    /// *undelivered* frame of a stream runs out of retries. The whole
    /// expired undelivered suffix retransmits (go-back-N), not just the
    /// front: a checkpointing receiver acknowledges only its stable
    /// floor, so resending only the front would starve a restored
    /// receiver of everything past it. Frames below the live delivered
    /// floor are skipped entirely — the peer has them; they sit in the
    /// window purely as the crash-replay suffix.
    pub(crate) fn service_timers(&mut self, wire: &mut impl Wire<T>) {
        if self.fatal.is_some() {
            return;
        }
        let now = wire.now();
        for (&(dst, tag), chan) in self.senders.iter_mut() {
            // Both things done below need a live frame whose deadline
            // has passed; the cached bound says when there is none.
            if chan.idle_at(now) {
                continue;
            }
            let delivered = chan.delivered;
            if let Some(p) = chan.unacked.iter().find(|p| p.seq >= delivered) {
                if p.deadline <= now && p.retries >= self.cfg.max_retries {
                    self.fatal = Some(exhausted(self.me, dst, tag, p));
                    return;
                }
            }
            let mut earliest: Option<T> = None;
            for p in chan.unacked.iter_mut().filter(|p| p.seq >= delivered) {
                if p.deadline <= now {
                    p.retries += 1;
                    p.deadline = now.after(&self.cfg, p.retries);
                    let seq = p.seq;
                    wire.record(EventKind::Retransmit { dst, tag, seq });
                    let reg = wire.metrics();
                    reg.count(self.me.0, Ctr::Retransmits, 1);
                    reg.flight(
                        self.me.0,
                        FlightKind::Retransmit,
                        dst.0 as u64,
                        tag.0 as u64,
                        seq,
                        wire.clock().0,
                    );
                    wire.transmit(dst, tag, &p.frame);
                    self.retransmits += 1;
                    self.activity += 1;
                }
                earliest = Some(earliest.map_or(p.deadline, |e| e.min(p.deadline)));
            }
            chan.due = earliest.map_or(Due::Never, Due::NotBefore);
        }
    }

    /// Retire the window toward every peer whose program is done. Such a
    /// peer can no longer crash — its op-indexed faults are exhausted —
    /// nor consume anything more, so what we still hold for it (the
    /// delivered-but-unstable replay suffix, or frames whose acks were
    /// lost) is dead weight; and if the peer's final live ack was dropped
    /// nothing else would ever retire it: two finished processors would
    /// wait on each other's windows forever. Returns whether anything was
    /// retired.
    pub(crate) fn retire_done_peers(&mut self, wire: &impl Wire<T>) -> bool {
        let mut retired = false;
        for (&(dst, _), chan) in self.senders.iter_mut() {
            if !chan.unacked.is_empty() && wire.peer_done(dst) {
                chan.unacked.clear();
                retired = true;
            }
        }
        retired
    }

    /// Forget every window: this processor is gone for good (a crash with
    /// no checkpoint to restore), and termination must not wait on it.
    pub(crate) fn drop_windows(&mut self) {
        self.senders.clear();
    }

    /// Is an ops-triggered checkpoint due? Independent mode only
    /// (coordinated cuts are paced by the scheduler's barrier): nothing is
    /// missing from either half of [`checkpoint_gap`](Self::checkpoint_gap).
    pub(crate) fn checkpoint_due(&self, ops: u64, clock: Time) -> bool {
        self.checkpoint_gap(ops, clock) == Some((0, 0))
    }

    /// How far the next ops-triggered checkpoint is from `ops` charged
    /// instructions at logical time `clock`: the instructions still
    /// missing from the interval, and the cycles still missing from the
    /// amortization bound ([`CheckpointCfg::amortization`] × the last
    /// snapshot's cost since it was taken). The one pacing rule:
    /// [`checkpoint_due`](Self::checkpoint_due) is "both are zero". `None`
    /// when this endpoint takes no independent checkpoints.
    pub(crate) fn checkpoint_gap(&self, ops: u64, clock: Time) -> Option<(u64, u64)> {
        let ck = self.ckpt.as_ref().filter(|ck| !ck.cfg.coordinated)?;
        let wait = ck.cfg.amortization.saturating_mul(ck.last_cost);
        let waited = clock.0.saturating_sub(ck.last_at.0);
        Some((
            (ck.last_op + ck.cfg.interval_ops).saturating_sub(ops),
            wait.saturating_sub(waited),
        ))
    }

    /// Capture this processor's complete state — process image, both
    /// sides of every stream, the traffic ledgers — into a serialized
    /// [`Checkpoint`], then (independent mode) advance the stable ack
    /// floors to the just-snapshotted positions. The new floors are not
    /// proactively re-acked: each piggybacks on the next batch ack of its
    /// stream, and a stream that has gone quiet is drained by the final
    /// live acks at completion — an ack costs the peer real receive
    /// cycles, and its delivered floor already suppresses retransmission
    /// of everything the stale stable floor still covers.
    ///
    /// `charge` puts the snapshot cost on the logical clock. Mid-run
    /// checkpoints charge; the initial image is provisioned before the
    /// clocks start, and the final one is an off-critical-path flush.
    ///
    /// # Errors
    ///
    /// [`MachineError::CheckpointUnsupported`] when the process cannot
    /// snapshot itself.
    pub(crate) fn checkpoint(
        &mut self,
        wire: &mut impl Wire<T>,
        process: &dyn Process,
        at_op: u64,
        charge: bool,
    ) -> Result<(), MachineError> {
        let Some(process) = process.snapshot() else {
            return Err(MachineError::CheckpointUnsupported { proc: self.me });
        };
        let triples =
            |m: &BTreeMap<(ProcId, Tag), u64>| m.iter().map(|(&(p, t), &v)| (p, t, v)).collect();
        let image = Checkpoint {
            proc: self.me,
            at_op,
            taken_at: wire.clock(),
            process,
            senders: self
                .senders
                .iter()
                .map(|(&(d, t), c)| (d, t, c.snapshot()))
                .collect(),
            recvs: self
                .recvs
                .iter()
                .map(|(&(s, t), c)| (s, t, c.snapshot()))
                .collect(),
            sent: triples(&self.sent),
            recvd: triples(&self.recvd),
            stable: self
                .recvs
                .iter()
                .map(|(&(s, t), c)| (s, t, c.cumulative()))
                .collect(),
        };
        let bytes = image.to_bytes();
        let len = bytes.len() as u64;
        let ck = self.ckpt.as_mut().expect("checkpointing configured");
        let cost = ck.cfg.checkpoint_cost(bytes.len());
        if charge {
            wire.busy(cost);
        }
        wire.record(EventKind::CheckpointTaken { at_op, bytes: len });
        let reg = wire.metrics();
        reg.count(self.me.0, Ctr::CheckpointsTaken, 1);
        reg.count(self.me.0, Ctr::CheckpointBytes, len);
        reg.flight(
            self.me.0,
            FlightKind::Checkpoint,
            NO_PEER,
            at_op,
            len,
            wire.clock().0,
        );
        ck.report.checkpoints_taken += 1;
        ck.report.bytes_snapshotted += len;
        ck.last_op = at_op;
        ck.last_at = wire.clock();
        ck.last_cost = cost;
        ck.image = bytes;
        if let Some(floors) = &mut self.stable {
            *floors = image.stable.iter().map(|&(s, t, v)| ((s, t), v)).collect();
        }
        Ok(())
    }

    /// The program is done (independent mode): one final, free checkpoint
    /// makes the finished state durable — crashes are op-indexed, so none
    /// can land after the last op and this image is never a replay
    /// target — then the endpoint switches to live acknowledgements and
    /// re-acks every receive stream, so peers' windows drain and the run
    /// can terminate.
    ///
    /// # Errors
    ///
    /// As [`checkpoint`](Self::checkpoint).
    pub(crate) fn finish(
        &mut self,
        wire: &mut impl Wire<T>,
        process: &dyn Process,
        at_op: u64,
    ) -> Result<(), MachineError> {
        self.checkpoint(wire, process, at_op, false)?;
        self.stable = None;
        self.ack_all(wire);
        Ok(())
    }

    /// Roll this processor back to its last checkpoint: the process image
    /// and both sides of every stream are rebuilt from the serialized
    /// image, and the restored sender windows re-arm one base timeout out
    /// with their delivered floors at zero — "assume nothing got through"
    /// — so surviving peers' duplicate suppression absorbs the replay
    /// transparently. The shell has already discarded the dead
    /// incarnation's incoming traffic and charged the reboot; `ops` is
    /// the charged-op counter being rolled back from, and `victim` says
    /// this is the processor that crashed (coordinated mode also rolls
    /// back the survivors).
    ///
    /// In independent mode the restored endpoint then solicits replay:
    /// it re-advertises the rolled-back position on every receive
    /// stream, peers see the live component drop below their delivered
    /// floor and re-arm the suffix this incarnation lost. (If that ack is
    /// dropped, [`keepalive`](Self::keepalive) re-sends it once the
    /// program blocks starved.)
    ///
    /// # Errors
    ///
    /// [`MachineError::CheckpointUnsupported`] when the process rejects
    /// the image.
    pub(crate) fn restore(
        &mut self,
        wire: &mut impl Wire<T>,
        process: &mut dyn Process,
        ops: u64,
        victim: bool,
    ) -> Result<(), MachineError> {
        let ck = self.ckpt.as_mut().expect("checkpointing configured");
        let image =
            Checkpoint::from_bytes(&ck.image).expect("internally written checkpoint parses");
        if !process.restore(&image.process) {
            return Err(MachineError::CheckpointUnsupported { proc: self.me });
        }
        let rearm = wire.now().after(&self.cfg, 0);
        self.senders = image
            .senders
            .iter()
            .map(|(dst, tag, s)| ((*dst, *tag), SenderChan::from_snapshot(s, rearm)))
            .collect();
        self.recvs = image
            .recvs
            .iter()
            .map(|(src, tag, r)| ((*src, *tag), RecvChan::from_snapshot(r)))
            .collect();
        let pairs = |v: &[(ProcId, Tag, u64)]| v.iter().map(|&(p, t, n)| ((p, t), n)).collect();
        self.sent = pairs(&image.sent);
        self.recvd = pairs(&image.recvd);
        for (dst, tag, s) in &image.senders {
            for &(seq, _) in &s.unacked {
                wire.record(EventKind::ReplayedFrame {
                    dst: *dst,
                    tag: *tag,
                    seq,
                });
            }
        }
        let replayed = ops.saturating_sub(image.at_op);
        ck.report.replayed_ops += replayed;
        ck.report.replay_frames += image.window_frames();
        wire.metrics()
            .count(self.me.0, Ctr::ReplayFrames, image.window_frames());
        if victim {
            wire.record(EventKind::Restore {
                from_op: image.at_op,
                replayed,
            });
            let reg = wire.metrics();
            ck.report.crashes_survived += 1;
            ck.report.recovery_cycles += ck.cfg.reboot_cycles;
            reg.count(self.me.0, Ctr::CrashesSurvived, 1);
            reg.flight(
                self.me.0,
                FlightKind::Restore,
                NO_PEER,
                image.at_op,
                replayed,
                wire.clock().0,
            );
        }
        if self.stable.is_some() {
            self.stable = Some(pairs(&image.stable));
            self.keepalive.clear();
            self.ack_all(wire);
        }
        // Pacing restarts from the restore point; the restored image's
        // cost still amortizes the next snapshot.
        let ck = self.ckpt.as_mut().expect("checkpointing configured");
        ck.last_op = ops;
        ck.last_at = wire.clock();
        self.activity += 1;
        Ok(())
    }

    /// Has every sent frame been acknowledged (or retired)?
    pub(crate) fn all_acked(&self) -> bool {
        self.senders.values().all(|c| c.unacked.is_empty())
    }

    /// The peers this endpoint still holds an open window toward.
    pub(crate) fn open_peers(&self) -> impl Iterator<Item = ProcId> + '_ {
        self.senders
            .iter()
            .filter(|(_, c)| !c.unacked.is_empty())
            .map(|(&(dst, _), _)| dst)
    }

    /// The earliest retransmission deadline, if any. Backoff is
    /// per-frame, so the front (most-retried) frame can have a *later*
    /// deadline than the rest of the window: every pending frame counts.
    /// Delivered frames are excluded: they never retransmit, so waiting
    /// on their stale deadlines would spin without making progress.
    pub(crate) fn earliest_deadline(&self) -> Option<T> {
        self.senders
            .values()
            .flat_map(|c| {
                c.unacked
                    .iter()
                    .filter(|p| p.seq >= c.delivered)
                    .map(|p| p.deadline)
            })
            .min()
    }

    /// When a blocked receive on `(src, tag)` next needs the processor:
    /// the earliest retransmission deadline, or — while checkpoints lag
    /// the acks — the next keepalive, whichever is sooner. A receiver
    /// with nothing in its own windows would otherwise sleep its whole
    /// liveness window and never advertise its floors.
    pub(crate) fn next_wake(&self, src: ProcId, tag: Tag) -> Option<T> {
        let keepalive = self
            .keepalive
            .get(&(src, tag))
            .map(|&(last, _)| last.after(&self.cfg, 0));
        self.earliest_deadline().into_iter().chain(keepalive).min()
    }

    /// See the `activity` field.
    pub(crate) fn activity(&self) -> u64 {
        self.activity
    }

    /// See the `progress` field.
    pub(crate) fn progress(&self) -> u64 {
        self.progress
    }

    /// Take and clear the recorded fatal protocol error, if any.
    pub(crate) fn take_fatal(&mut self) -> Option<MachineError> {
        self.fatal.take()
    }

    /// Give up on a window that stayed open past the shell's patience:
    /// the same error retry exhaustion raises, naming the first stream
    /// whose window is still open. `None` when every window is empty.
    pub(crate) fn open_window_error(&self) -> Option<MachineError> {
        self.senders.iter().find_map(|(&(dst, tag), c)| {
            let p = c.unacked.iter().find(|p| p.seq >= c.delivered);
            Some(exhausted(self.me, dst, tag, p.or(c.unacked.front())?))
        })
    }

    /// Merge this endpoint's program-level ledgers and protocol tallies
    /// into a run's report.
    pub(crate) fn tally(
        &self,
        sent: &mut BTreeMap<(ProcId, ProcId, Tag), u64>,
        recvd: &mut BTreeMap<(ProcId, ProcId, Tag), u64>,
        report: &mut FaultReport,
    ) {
        // Reliable mode reports *program-level* traffic; raw frame counts
        // (retransmits, acks, seq overhead) stay visible in the
        // per-processor and network stats.
        for (&(dst, tag), &count) in &self.sent {
            sent.insert((self.me, dst, tag), count);
        }
        for (&(src, tag), &count) in &self.recvd {
            recvd.insert((src, self.me, tag), count);
        }
        report.retransmits += self.retransmits;
        report.acks_sent += self.acks_sent;
        for c in self.recvs.values() {
            report.dup_frames_dropped += c.dups;
            report.max_gap = report.max_gap.max(c.max_gap);
        }
    }

    /// Checkpoint/restart accounting, when checkpointing was configured.
    pub(crate) fn recovery(&self) -> Option<&RecoveryReport> {
        self.ckpt.as_ref().map(|ck| &ck.report)
    }
}

/// The one `RetriesExhausted` site. Cumulative acks retire the window
/// prefix, so the oldest undelivered seq *is* the delivery point the peer
/// last advanced us to.
fn exhausted<T>(me: ProcId, peer: ProcId, tag: Tag, oldest: &Pending<T>) -> MachineError {
    MachineError::RetriesExhausted {
        proc: me,
        peer,
        tag,
        retries: oldest.retries,
        last_acked: oldest.seq,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ack_tag_sets_top_bit() {
        assert_eq!(ack_tag(Tag(5)), Tag(5 | ACK_TAG_BIT));
        assert!(is_ack_tag(ack_tag(Tag(0))));
        assert!(!is_ack_tag(Tag(12)));
    }

    /// An endpoint whose last checkpoint, at op 0 and time 0, cost
    /// `last_cost` cycles.
    fn paced(cfg: CheckpointCfg, last_cost: u64) -> RelEndpoint<Time> {
        let mut ep = RelEndpoint::new(ProcId(0), RelConfig::default(), 1, Some(cfg));
        ep.ckpt.as_mut().expect("checkpointing").last_cost = last_cost;
        ep
    }

    #[test]
    fn amortized_pacing_bounds_the_snapshot_tax() {
        // With amortization 128, a checkpoint that cost 1_000 cycles
        // blocks the next one until 128_000 cycles have elapsed — so
        // snapshots can never eat more than ~1/128 of a processor's run.
        let cfg = CheckpointCfg::every(1);
        assert_eq!(cfg.amortization, 128);
        let ep = paced(cfg, 1_000);
        assert_eq!(ep.checkpoint_gap(1, Time(127_999)), Some((0, 1)));
        assert!(!ep.checkpoint_due(1, Time(127_999)));
        assert!(ep.checkpoint_due(1, Time(128_000)));
        // Opting out makes the op interval the only trigger.
        let free = paced(cfg.with_amortization(0), 1_000);
        assert!(free.checkpoint_due(1, Time(0)));
        assert_eq!(free.checkpoint_gap(0, Time(0)), Some((1, 0)));
        // Saturation: a huge cost just means "defer for a very long
        // time", never an overflow panic.
        assert!(!paced(cfg, u64::MAX).checkpoint_due(1, Time(u64::MAX - 1)));
    }

    #[test]
    fn frame_round_trips() {
        let shared = frame_arc(7, &[10, 20, 30]);
        assert_eq!(&shared[..], &[7, 10, 20, 30]);
        // The receive side keeps the frame whole and reads it in place.
        let mut r = RecvChan::default();
        r.on_frame(Time(1), frame_arc(0, &[10, 20, 30]).to_vec());
        let (_, f) = r.ready.pop_front().unwrap();
        assert_eq!((f[0], &f[1..]), (0, &[10, 20, 30][..]));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let c = RelConfig {
            rto_cycles: 100,
            ..RelConfig::default()
        };
        assert_eq!(c.backoff_cycles(0), 100);
        assert_eq!(c.backoff_cycles(1), 200);
        assert_eq!(c.backoff_cycles(3), 800);
        assert_eq!(c.backoff_cycles(10), 100 << 10);
        assert_eq!(c.backoff_cycles(40), 100 << 10, "cap at 2^10");
        assert_eq!(c.backoff_wall(2), c.rto_wall * 4);
    }

    #[test]
    fn cumulative_ack_retires_prefix() {
        let mut s: SenderChan<Time> = SenderChan::new();
        for seq in 0..4 {
            s.unacked.push_back(Pending {
                seq,
                frame: frame_arc(seq, &[0]),
                retries: 0,
                deadline: Time::ZERO,
            });
        }
        assert_eq!(s.ack(2), 2);
        assert_eq!(s.unacked.front().unwrap().seq, 2);
        // A stale (already-seen) ack is harmless.
        assert_eq!(s.ack(1), 0);
        assert_eq!(s.ack(4), 2);
        assert!(s.unacked.is_empty());
    }

    #[test]
    fn recv_chan_orders_and_dedups() {
        let mut r = RecvChan::default();
        r.on_frame(Time(10), vec![1, 11]); // early: gap of 1
        assert_eq!(r.cumulative(), 0);
        assert_eq!(r.max_gap, 1);
        r.on_frame(Time(20), vec![0, 10]); // fills the gap, unlocks 1
        assert_eq!(r.cumulative(), 2);
        let drained: Vec<_> = r.ready.drain(..).map(|(_, f)| f[1..].to_vec()).collect();
        assert_eq!(drained, vec![vec![10], vec![11]]);
        r.on_frame(Time(30), vec![0, 10]); // retransmitted duplicate
        assert_eq!(r.dups, 1);
        assert_eq!(r.cumulative(), 2);
        assert!(r.ready.is_empty());
    }

    #[test]
    fn channel_snapshots_round_trip() {
        let mut s: SenderChan<Time> = SenderChan::new();
        s.next_seq = 3;
        for seq in 1..3 {
            s.unacked.push_back(Pending {
                seq,
                frame: frame_arc(seq, &[seq as Word * 10]),
                retries: 2,
                deadline: Time(99),
            });
        }
        let snap = s.snapshot();
        let back: SenderChan<Time> = SenderChan::from_snapshot(&snap, Time(7));
        assert_eq!(back.next_seq, 3);
        assert_eq!(back.unacked.len(), 2);
        // Deadlines and retries are re-armed, frames preserved — and
        // shared: the snapshot holds the same allocation as the window.
        assert_eq!(back.unacked[0].deadline, Time(7));
        assert_eq!(back.unacked[0].retries, 0);
        assert_eq!(&back.unacked[1].frame[..], &[2, 20][..]);
        assert!(Arc::ptr_eq(&snap.unacked[0].1, &s.unacked[0].frame));

        let mut r = RecvChan::default();
        r.on_frame(Time(5), vec![0, 1]);
        r.on_frame(Time(6), vec![3, 4]); // stashed with a gap
        let rs = r.snapshot();
        // The image holds bare payloads; the seq word is re-derived.
        assert_eq!(rs.ready, vec![(Time(5), vec![1])]);
        assert_eq!(rs.ooo, vec![(3, Time(6), vec![4])]);
        let rb = RecvChan::from_snapshot(&rs);
        assert_eq!(rb.cumulative(), 1);
        assert_eq!(rb.ready, r.ready);
        assert_eq!(rb.max_gap, r.max_gap);
        // The restored stash still unlocks in order.
        let mut rb = rb;
        rb.on_frame(Time(7), vec![1, 2]);
        rb.on_frame(Time(8), vec![2, 3]);
        assert_eq!(rb.cumulative(), 4);
        let seqs: Vec<Word> = rb.ready.iter().map(|(_, f)| f[0]).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn recv_chan_counts_stashed_duplicates() {
        let mut r = RecvChan::default();
        r.on_frame(Time(0), vec![3, 1]);
        r.on_frame(Time(0), vec![3, 1]);
        assert_eq!(r.dups, 1);
        assert_eq!(r.max_gap, 3);
    }
}

/// The protocol core under seeded adversarial schedules: two to four
/// endpoints on logical time over an in-memory wire, with a seeded
/// adversary choosing every interleaving — which program steps, which
/// in-flight frame is delivered (in any order), dropped or duplicated,
/// which timer fires, who checkpoints, who crashes and restores, who
/// finishes. This is the concurrency testing the threaded backend
/// cannot give: the same state machine it runs, every schedule
/// reproducible from its seed.
#[cfg(test)]
mod schedules {
    use super::*;
    use pdc_testkit::Rng;

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Send(ProcId, Tag, Word),
        Recv(ProcId, Tag),
    }

    /// A scripted program: its counter and the log of what it received
    /// are its whole state, and both roll back with a checkpoint.
    #[derive(Debug, Default)]
    struct Prog {
        script: Vec<Op>,
        pc: usize,
        got: Vec<(ProcId, Tag, Word)>,
    }

    impl Process for Prog {
        fn step(
            &mut self,
            _: &mut dyn crate::Fabric,
            _: ProcId,
        ) -> Result<crate::Step, MachineError> {
            unreachable!("the schedule drives the script itself")
        }

        fn snapshot(&self) -> Option<Vec<u8>> {
            let words = std::iter::once(self.pc as u64).chain(
                self.got
                    .iter()
                    .flat_map(|&(p, t, w)| [p.0 as u64, t.0 as u64, w as u64]),
            );
            Some(words.flat_map(u64::to_le_bytes).collect())
        }

        fn restore(&mut self, state: &[u8]) -> bool {
            let words: Vec<u64> = state
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
                .collect();
            self.pc = words[0] as usize;
            self.got = words[1..]
                .chunks_exact(3)
                .map(|c| (ProcId(c[0] as usize), Tag(c[1] as u32), c[2] as Word))
                .collect();
            true
        }
    }

    #[derive(Debug, Clone)]
    struct Frame {
        src: ProcId,
        dst: ProcId,
        tag: Tag,
        words: Vec<Word>,
    }

    /// One endpoint's arrived-but-not-yet-taken frames, per stream.
    type Inbox = BTreeMap<(ProcId, Tag), VecDeque<Vec<Word>>>;

    /// Everything outside the endpoints: frames in flight, frames
    /// arrived but not yet taken, logical clocks, finished programs.
    struct Net {
        in_flight: Vec<Frame>,
        inbox: Vec<Inbox>,
        clocks: Vec<Time>,
        done: Vec<bool>,
        metrics: MetricsRegistry,
    }

    struct FakeWire<'a> {
        net: &'a mut Net,
        me: ProcId,
    }

    impl Wire<Time> for FakeWire<'_> {
        fn now(&self) -> Time {
            self.net.clocks[self.me.0]
        }
        fn clock(&self) -> Time {
            self.now()
        }
        fn transmit(&mut self, dst: ProcId, tag: Tag, frame: &[Word]) {
            self.net.in_flight.push(Frame {
                src: self.me,
                dst,
                tag,
                words: frame.to_vec(),
            });
        }
        fn take(&mut self, src: ProcId, tag: Tag) -> Option<(Time, Vec<Word>)> {
            let frame = self.net.inbox[self.me.0]
                .get_mut(&(src, tag))?
                .pop_front()?;
            Some((self.now(), frame))
        }
        fn incoming(&self, out: &mut Vec<(ProcId, Tag)>) {
            let waiting = self.net.inbox[self.me.0]
                .iter()
                .filter(|(_, q)| !q.is_empty());
            out.extend(
                waiting
                    .map(|(&k, _)| k)
                    .filter(|&(_, tag)| !is_ack_tag(tag)),
            );
        }
        fn busy(&mut self, cycles: u64) {
            self.net.clocks[self.me.0] = self.now().plus(cycles);
        }
        fn record(&mut self, _: EventKind) {}
        fn metrics(&self) -> &MetricsRegistry {
            &self.net.metrics
        }
        fn peer_done(&self, peer: ProcId) -> bool {
            self.net.done[peer.0]
        }
    }

    /// Faults the adversary may spend in one schedule. Each retry of a
    /// frame costs it a drop, so the budget stays under `max_retries`
    /// and a correct core must always converge.
    const DAMAGE_BUDGET: u32 = 10;
    const CRASH_BUDGET: u32 = 2;
    const CHECKPOINT_BUDGET: u32 = 8;
    const STEP_BOUND: usize = 20_000;

    struct World {
        net: Net,
        eps: Vec<RelEndpoint<Time>>,
        progs: Vec<Prog>,
        checkpointed: bool,
        damage: u32,
        crashes: u32,
        checkpoints: u32,
    }

    #[derive(Debug, Clone, Copy)]
    enum Move {
        Step(usize),
        Deliver(usize),
        Drop(usize),
        Duplicate(usize),
        Timer(usize),
        Checkpoint(usize),
        Crash(usize),
        Finish(usize),
        Retire(usize),
    }

    impl World {
        fn new(scripts: Vec<Vec<Op>>, checkpointed: bool) -> World {
            let n = scripts.len();
            let ckpt = checkpointed.then(|| CheckpointCfg::every(1).with_amortization(0));
            let mut w = World {
                net: Net {
                    in_flight: Vec::new(),
                    inbox: vec![BTreeMap::new(); n],
                    clocks: vec![Time::ZERO; n],
                    done: vec![false; n],
                    metrics: MetricsRegistry::flight_only(n),
                },
                eps: (0..n)
                    .map(|p| RelEndpoint::new(ProcId(p), RelConfig::default(), 1, ckpt))
                    .collect(),
                progs: scripts
                    .into_iter()
                    .map(|script| Prog {
                        script,
                        ..Prog::default()
                    })
                    .collect(),
                checkpointed,
                damage: 0,
                crashes: 0,
                checkpoints: 0,
            };
            if checkpointed {
                for p in 0..n {
                    w.checkpoint(p, false);
                }
            }
            w
        }

        /// Run `f` on endpoint `p`'s core, its wire, and its program.
        fn on<R>(
            &mut self,
            p: usize,
            f: impl FnOnce(&mut RelEndpoint<Time>, &mut FakeWire<'_>, &mut Prog) -> R,
        ) -> R {
            let mut wire = FakeWire {
                net: &mut self.net,
                me: ProcId(p),
            };
            let out = f(&mut self.eps[p], &mut wire, &mut self.progs[p]);
            assert_eq!(self.eps[p].take_fatal(), None, "P{p} gave up");
            self.check_due();
            out
        }

        /// What every sender channel caches about its earliest live
        /// deadline, against a scan of its window: a bound never lies
        /// above the scanned minimum, and "no live frame" means none.
        /// Every move that touches a core comes through [`on`](Self::on).
        fn check_due(&self) {
            for (p, ep) in self.eps.iter().enumerate() {
                for (&(dst, tag), chan) in &ep.senders {
                    let live = chan.unacked.iter().filter(|f| f.seq >= chan.delivered);
                    let scanned = live.map(|f| f.deadline).min();
                    let sound = match chan.due {
                        Due::Unknown => true,
                        Due::Never => scanned.is_none(),
                        Due::NotBefore(t) => scanned.is_none_or(|s| t <= s),
                    };
                    assert!(
                        sound,
                        "P{p}→P{} tag {}: cached {:?}, scanned {scanned:?}",
                        dst.0, tag.0, chan.due
                    );
                }
            }
        }

        fn checkpoint(&mut self, p: usize, charge: bool) {
            self.on(p, |ep, wire, prog| {
                ep.checkpoint(wire, prog, prog.pc as u64, charge)
            })
            .expect("scripts snapshot");
        }

        /// Can `p`'s program take its next step without blocking?
        fn runnable(&self, p: usize) -> bool {
            match self.progs[p].script.get(self.progs[p].pc) {
                Some(Op::Send(..)) => true,
                Some(&Op::Recv(src, tag)) => self.eps[p].has_ready(src, tag),
                None => false,
            }
        }

        /// One program operation, sequenced as both shells do it.
        fn step(&mut self, p: usize) {
            self.on(p, |ep, wire, prog| {
                ep.pump_acks(wire);
                ep.service_timers(wire);
                match prog.script[prog.pc] {
                    Op::Send(dst, tag, word) => ep.send(wire, dst, tag, &[word]),
                    Op::Recv(src, tag) => {
                        ep.pump_data(wire, src, tag);
                        let (_, frame) = ep.pop(src, tag).expect("runnable");
                        prog.got.push((src, tag, frame[1]));
                    }
                }
                prog.pc += 1;
            });
        }

        /// A frame arrives: the NIC ingests it at once, whatever the
        /// program is doing (blocked, running, or finished).
        fn deliver(&mut self, i: usize) {
            let f = self.net.in_flight.swap_remove(i);
            self.net.inbox[f.dst.0]
                .entry((f.src, f.tag))
                .or_default()
                .push_back(f.words);
            self.on(f.dst.0, |ep, wire, _| {
                ep.pump_acks(wire);
                ep.pump_all_data(wire);
            });
        }

        /// A timer may fire only once nothing of `p`'s is in flight:
        /// timeouts outlast flights, so each retry costs the adversary a
        /// dropped frame or a dropped ack.
        fn timer_armed(&self, p: usize) -> bool {
            let me = ProcId(p);
            self.eps[p].earliest_deadline().is_some()
                && !self.net.in_flight.iter().any(|f| {
                    if is_ack_tag(f.tag) {
                        f.dst == me
                    } else {
                        f.src == me
                    }
                })
        }

        fn fire_timer(&mut self, p: usize) {
            let t = self.eps[p].earliest_deadline().expect("armed");
            self.net.clocks[p] = self.net.clocks[p].max(t);
            self.on(p, |ep, wire, _| ep.service_timers(wire));
        }

        /// Crash `p` and bring it back from its last checkpoint. What
        /// had arrived is lost with the dead incarnation; what is still
        /// in flight reaches the restored one and must be absorbed.
        fn crash(&mut self, p: usize) {
            self.crashes += 1;
            self.net.inbox[p].clear();
            self.net.clocks[p] = self.net.clocks[p].plus(10);
            self.on(p, |ep, wire, prog| {
                let ops = prog.pc as u64;
                ep.restore(wire, prog, ops, true)
            })
            .expect("scripts restore");
        }

        fn finish(&mut self, p: usize) {
            self.net.done[p] = true;
            if self.checkpointed {
                self.on(p, |ep, wire, prog| ep.finish(wire, prog, prog.pc as u64))
                    .expect("scripts snapshot");
            }
        }

        fn retire(&mut self, p: usize) -> bool {
            self.on(p, |ep, wire, _| ep.retire_done_peers(wire))
        }

        fn finished(&self) -> bool {
            self.net.done.iter().all(|&d| d) && self.eps.iter().all(RelEndpoint::all_acked)
        }

        /// Every move the adversary may make now, keepalives excluded.
        /// Checkpoints and crashes are offered only alongside a move that
        /// makes progress: on their own they would mask a stuck state.
        fn moves(&self) -> Vec<Move> {
            let mut out = Vec::new();
            let mut faults = Vec::new();
            let can_damage = self.damage < DAMAGE_BUDGET;
            for i in 0..self.net.in_flight.len() {
                out.push(Move::Deliver(i));
                if can_damage {
                    out.extend([Move::Drop(i), Move::Duplicate(i)]);
                }
            }
            for p in 0..self.eps.len() {
                let running = !self.net.done[p];
                if self.runnable(p) {
                    out.push(Move::Step(p));
                }
                if self.timer_armed(p) {
                    out.push(Move::Timer(p));
                }
                if running && self.progs[p].pc == self.progs[p].script.len() {
                    out.push(Move::Finish(p));
                }
                if running && self.checkpointed {
                    if self.checkpoints < CHECKPOINT_BUDGET {
                        faults.push(Move::Checkpoint(p));
                    }
                    if self.crashes < CRASH_BUDGET {
                        faults.push(Move::Crash(p));
                    }
                }
                if self.eps[p].open_peers().any(|q| self.net.done[q.0]) {
                    out.push(Move::Retire(p));
                }
            }
            if !out.is_empty() {
                out.append(&mut faults);
            }
            out
        }

        fn apply(&mut self, m: Move) {
            match m {
                Move::Step(p) => self.step(p),
                Move::Deliver(i) => self.deliver(i),
                Move::Drop(i) => {
                    self.damage += 1;
                    self.net.in_flight.swap_remove(i);
                }
                Move::Duplicate(i) => {
                    self.damage += 1;
                    let copy = self.net.in_flight[i].clone();
                    self.net.in_flight.push(copy);
                }
                Move::Timer(p) => self.fire_timer(p),
                Move::Checkpoint(p) => {
                    self.checkpoints += 1;
                    self.checkpoint(p, true);
                }
                Move::Crash(p) => self.crash(p),
                Move::Finish(p) => self.finish(p),
                Move::Retire(p) => {
                    self.retire(p);
                }
            }
        }

        /// Nothing can move on its own. What is left is the quiescence
        /// ladder: every blocked program's forced keepalive, which must
        /// put a frame in flight, or the state is stuck for good.
        fn solicit(&mut self) {
            let mut fired = false;
            for p in 0..self.eps.len() {
                if let Some(&Op::Recv(src, tag)) = self.progs[p].script.get(self.progs[p].pc) {
                    fired |= self.on(p, |ep, wire, _| ep.keepalive(wire, src, tag, true));
                }
            }
            assert!(
                fired && !self.net.in_flight.is_empty(),
                "stuck: no enabled move and no keepalive that changes the state"
            );
        }

        /// Exactly-once, in-order delivery on every stream.
        fn check_delivery(&self) {
            for (p, prog) in self.progs.iter().enumerate() {
                assert_eq!(prog.pc, prog.script.len(), "P{p} ran to completion");
            }
            for (q, prog) in self.progs.iter().enumerate() {
                for op in &prog.script {
                    let &Op::Recv(src, tag) = op else { continue };
                    let sent: Vec<Word> = self.progs[src.0]
                        .script
                        .iter()
                        .filter_map(|op| match *op {
                            Op::Send(d, t, w) if d == ProcId(q) && t == tag => Some(w),
                            _ => None,
                        })
                        .collect();
                    let got: Vec<Word> = prog
                        .got
                        .iter()
                        .filter(|&&(s, t, _)| s == src && t == tag)
                        .map(|&(_, _, w)| w)
                        .collect();
                    assert_eq!(got, sent, "stream P{}→P{q} tag {}", src.0, tag.0);
                }
            }
        }

        /// Let the adversary play until the run terminates.
        fn play(&mut self, rng: &mut Rng) {
            for _ in 0..STEP_BOUND {
                if self.finished() {
                    return self.check_delivery();
                }
                let moves = self.moves();
                match moves.is_empty() {
                    false => self.apply(*rng.pick(&moves)),
                    true => self.solicit(),
                }
            }
            panic!("no termination within {STEP_BOUND} steps");
        }
    }

    /// Deadlock-free by construction: a random global sequence of
    /// messages, each endpoint's script its projection in that order.
    fn random_scripts(rng: &mut Rng) -> Vec<Vec<Op>> {
        let n = rng.range_usize(2, 5);
        let mut scripts = vec![Vec::new(); n];
        for word in 0..rng.range_i64(4, 24) {
            let src = rng.range_usize(0, n);
            let dst = (src + rng.range_usize(1, n)) % n;
            let tag = Tag(rng.range_usize(0, 2) as u32);
            scripts[src].push(Op::Send(ProcId(dst), tag, word));
            scripts[dst].push(Op::Recv(ProcId(src), tag));
        }
        scripts
    }

    #[test]
    fn adversarial_schedules_deliver_exactly_once_and_terminate() {
        for seed in pdc_testkit::fault::seeds(&[0xC0FFEE, 7]) {
            for schedule in 0..600u64 {
                let mut rng = Rng::from_seed(seed ^ schedule.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let scripts = random_scripts(&mut rng);
                let checkpointed = rng.chance(2, 3);
                let played = std::panic::catch_unwind(move || {
                    World::new(scripts, checkpointed).play(&mut rng);
                });
                if let Err(payload) = played {
                    eprintln!("schedule {schedule} of seed {seed} failed");
                    std::panic::resume_unwind(payload);
                }
            }
        }
    }

    /// Deliver the first frame in flight that `pick` accepts.
    fn deliver_where(w: &mut World, pick: impl Fn(&Frame) -> bool) {
        let i = w.net.in_flight.iter().position(pick).expect("in flight");
        w.deliver(i);
    }

    /// `n` sends P0 → P1 and the matching receives, under checkpoints;
    /// the first `sent` of them transmitted, ingested by P1 and
    /// batch-acked `[0, live]`, so P0's window lies entirely below its
    /// delivered floor and stays there (nothing is stable yet).
    fn delivered_but_unstable(n: Word, sent: usize) -> World {
        let (p0, p1, tag) = (ProcId(0), ProcId(1), Tag(1));
        let scripts = vec![
            (0..n).map(|w| Op::Send(p1, tag, w)).collect(),
            (0..n).map(|_| Op::Recv(p0, tag)).collect(),
        ];
        let mut w = World::new(scripts, true);
        for _ in 0..sent {
            w.step(0);
            deliver_where(&mut w, |f| !is_ack_tag(f.tag));
            deliver_where(&mut w, |f| is_ack_tag(f.tag));
        }
        let chan = &w.eps[0].senders[&(p1, tag)];
        assert_eq!((chan.unacked.len(), chan.delivered), (sent, sent as u64));
        w
    }

    /// A timer service on a channel whose window is entirely below its
    /// delivered floor does nothing, whatever the frames' deadlines say,
    /// and leaves the channel marked idle; the next send arms it again
    /// and only that frame ever retransmits.
    #[test]
    fn timer_on_a_window_entirely_below_the_delivered_floor_is_idle() {
        let key = (ProcId(1), Tag(1));
        let mut w = delivered_but_unstable(3, 2);
        let rto = RelConfig::default().rto_cycles;
        // Both deadlines pass. The bound the sends left says "look".
        w.net.clocks[0] = Time(2 * rto);
        assert!(!w.eps[0].senders[&key].idle_at(Time(2 * rto)));
        w.on(0, |ep, wire, _| ep.service_timers(wire));
        assert_eq!(w.eps[0].retransmits, 0);
        assert!(w.net.in_flight.is_empty());
        assert_eq!(w.eps[0].senders[&key].due, Due::Never);
        assert_eq!(w.eps[0].earliest_deadline(), None);
        // The third send lowers the bound from "never" to its deadline.
        w.step(0);
        assert_eq!(w.eps[0].senders[&key].due, Due::NotBefore(Time(3 * rto)));
        w.net.in_flight.clear();
        w.fire_timer(0);
        assert_eq!(w.eps[0].retransmits, 1, "only the live frame");
        assert_eq!(w.net.in_flight.len(), 1);
        w.play(&mut Rng::from_seed(1));
        assert!(w.finished());
    }

    /// A restored peer's rollback ack re-arms frames of a window the
    /// cache had marked idle: the mark must go, or the replay the peer
    /// is waiting for never leaves.
    #[test]
    fn rollback_ack_re_arms_frames_below_the_cached_bound() {
        let (p0, p1, tag) = (ProcId(0), ProcId(1), Tag(1));
        let mut w = delivered_but_unstable(3, 3);
        let rto = RelConfig::default().rto_cycles;
        w.net.clocks[0] = Time(2 * rto);
        w.on(0, |ep, wire, _| ep.service_timers(wire));
        assert_eq!(w.eps[0].senders[&(p1, tag)].due, Due::Never);
        // P1 loses everything it ingested and comes back from its launch
        // image, which predates the stream; blocked on its first receive,
        // it advertises where it is: `[0, 0]`.
        w.crash(1);
        assert!(w.on(1, |ep, wire, _| ep.keepalive(wire, p0, tag, true)));
        deliver_where(&mut w, |f| is_ack_tag(f.tag));
        let chan = &w.eps[0].senders[&(p1, tag)];
        assert_eq!((chan.delivered, chan.due), (0, Due::Unknown));
        assert_eq!(w.eps[0].earliest_deadline(), Some(w.net.clocks[0]));
        w.fire_timer(0);
        assert_eq!(w.eps[0].retransmits, 3, "the whole lost suffix replays");
        w.play(&mut Rng::from_seed(2));
        assert!(w.finished());
    }

    /// The tier-1 hang of the threaded backend, as a schedule: both
    /// programs done, each still holding the window its peer received
    /// but never stably acked, both final live acks dropped. No timer is
    /// armed and nothing is in flight; only the done-peer retirement
    /// rule can end the run.
    #[test]
    fn both_done_with_both_final_acks_dropped_still_terminates() {
        let (p0, p1, tag) = (ProcId(0), ProcId(1), Tag(3));
        let scripts = vec![
            vec![Op::Send(p1, tag, 10), Op::Recv(p1, tag)],
            vec![Op::Send(p0, tag, 20), Op::Recv(p0, tag)],
        ];
        let mut w = World::new(scripts, true);
        w.step(0);
        w.step(1);
        // Both data frames arrive, then both batch acks `[0, 1]`: each
        // window now lies entirely below its delivered floor.
        for _ in 0..4 {
            w.deliver(0);
        }
        w.step(0);
        w.step(1);
        w.finish(0);
        w.finish(1);
        assert_eq!(w.net.in_flight.len(), 2, "one final live ack each way");
        w.net.in_flight.clear();
        assert!(!w.finished(), "both windows are still open");
        assert!(w.eps.iter().all(|ep| ep.earliest_deadline().is_none()));
        w.play(&mut Rng::from_seed(0));
        assert!(w.finished());
    }
}
