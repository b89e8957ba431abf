//! The logical processor: the one place the clock, cost and counter
//! rules of the machine are written. DESIGN §5b ("The logical
//! processor") is the description; both backends hold [`Cpu`]s and move
//! only bytes themselves.

use crate::cost::CostModel;
use crate::message::{ProcId, Tag, Time};
use crate::stats::{MachineStats, NetworkStats, ProcStats};
use crate::trace::{EventKind, Trace};
use pdc_metrics::{Ctr, MetricsRegistry};
use std::sync::Arc;

/// Where a [`Cpu`] records what it does. The owner decides how many
/// processors share one: the simulator has a single pair for the whole
/// machine (one trace cap, one event sequence), a threaded endpoint has
/// its own trace and a handle to the run's registry.
#[derive(Debug)]
pub(crate) struct Observers {
    pub(crate) trace: Trace,
    pub(crate) metrics: Arc<MetricsRegistry>,
}

/// Logical cycles charged for processing one incoming acknowledgement
/// (the unpacking cost of a one-word frame).
pub(crate) fn ack_cost(cost: &CostModel) -> u64 {
    cost.recv_cost(1)
}

/// One processor's logical clock and counters, and every rule that
/// advances them. Operations return the stamps a frame carries; the
/// caller moves the payload.
#[derive(Debug)]
pub(crate) struct Cpu {
    me: ProcId,
    cost: CostModel,
    /// Cycles this processor takes per nominal cycle of local work —
    /// computing, packing, unpacking. Flight time is not scaled.
    slowdown: u64,
    clock: Time,
    stats: ProcStats,
    /// Frames and payload words handed to the transport: every charged
    /// send that was not lost, plus every injected frame.
    frames: u64,
    frame_words: u64,
    /// The reliable-delivery layer is interposed: frames sent from here
    /// are raw transport (data, retransmissions, acks), and the protocol
    /// core records the program-level send at its own boundary instead.
    raw_transport: bool,
    /// The process sent to itself — a code-generation bug the driver
    /// surfaces as [`MachineError::SelfSend`](crate::MachineError).
    self_send: bool,
}

impl Cpu {
    pub(crate) fn new(me: ProcId, cost: CostModel) -> Self {
        Cpu {
            me,
            cost,
            slowdown: 1,
            clock: Time::ZERO,
            stats: ProcStats::default(),
            frames: 0,
            frame_words: 0,
            raw_transport: false,
            self_send: false,
        }
    }

    /// Set the slowdown factor and whether the reliable-delivery layer
    /// is interposed, before the run starts.
    pub(crate) fn configure(&mut self, slowdown: u64, raw_transport: bool) {
        self.slowdown = slowdown;
        self.raw_transport = raw_transport;
    }

    pub(crate) fn me(&self) -> ProcId {
        self.me
    }

    pub(crate) fn cost(&self) -> &CostModel {
        &self.cost
    }

    pub(crate) fn clock(&self) -> Time {
        self.clock
    }

    /// Charge `cycles` of computation (slowdown-scaled) as `ops` executed
    /// instructions.
    #[inline]
    pub(crate) fn tick_n(&mut self, obs: &mut Observers, cycles: u64, ops: u64) {
        let before = self.clock;
        self.clock = before.plus(cycles * self.slowdown);
        self.stats.ops += ops;
        obs.metrics.count(self.me.0, Ctr::Ops, ops);
        obs.trace.record_compute(self.me, before, self.clock);
    }

    /// Charge `cycles` of protocol work (slowdown-scaled) without
    /// counting an instruction — ack processing, checkpoint
    /// serialization. Traced as compute: the processor is busy.
    pub(crate) fn busy(&mut self, obs: &mut Observers, cycles: u64) {
        let before = self.clock;
        self.clock = before.plus(cycles * self.slowdown);
        obs.trace.record_compute(self.me, before, self.clock);
    }

    /// Move the clock forward to `t` if it is behind — a retransmission
    /// timer firing while the processor had nothing to do. Nothing is
    /// charged or traced.
    pub(crate) fn advance_to(&mut self, t: Time) {
        self.clock = self.clock.max(t);
    }

    /// Sit out `cycles` of wall time, unscaled — the reboot delay of a
    /// crashed processor.
    pub(crate) fn reboot(&mut self, cycles: u64) {
        self.clock = self.clock.plus(cycles);
    }

    /// The packing charge shared by [`send`](Cpu::send) and
    /// [`send_lost`](Cpu::send_lost): the words left the CPU either way.
    #[inline]
    fn charge_send(&mut self, words: usize) -> u64 {
        let cost = self.cost.send_cost(words) * self.slowdown;
        self.clock = self.clock.plus(cost);
        self.stats.sends += 1;
        self.stats.words_sent += words as u64;
        cost
    }

    /// Count one frame handed to the transport.
    #[inline]
    fn count_frame(&mut self, obs: &Observers, words: usize) {
        self.frames += 1;
        self.frame_words += words as u64;
        obs.metrics.count(self.me.0, Ctr::WireFrames, 1);
        obs.metrics.count(self.me.0, Ctr::WireWords, words as u64);
    }

    /// A `words`-word send to `(dst, tag)`: charge start-up plus per-word
    /// packing, and return `(sent_at, arrives_at)` — the clock after
    /// packing, and that plus the flight time — for the frame the caller
    /// now hands to the transport. A send to itself charges nothing,
    /// returns `None` and is remembered for
    /// [`take_self_send`](Cpu::take_self_send).
    #[inline]
    pub(crate) fn send(
        &mut self,
        obs: &mut Observers,
        dst: ProcId,
        tag: Tag,
        words: usize,
    ) -> Option<(Time, Time)> {
        if dst == self.me {
            self.self_send = true;
            return None;
        }
        let cost = self.charge_send(words);
        let sent_at = self.clock;
        self.count_frame(obs, words);
        if !self.raw_transport {
            obs.metrics.logical_send(
                self.me.0,
                dst.0 as u64,
                tag.0 as u64,
                words as u64,
                sent_at.0,
            );
        }
        let event = EventKind::Send {
            dst,
            tag,
            words,
            cost,
        };
        obs.trace.record(self.me, sent_at, event);
        Some((sent_at, sent_at.plus(self.cost.flight)))
    }

    /// A send whose frame the transport loses: charged like
    /// [`send`](Cpu::send), nothing to deliver.
    pub(crate) fn send_lost(&mut self, obs: &mut Observers, dst: ProcId, tag: Tag, words: usize) {
        let cost = self.charge_send(words);
        obs.metrics.count(self.me.0, Ctr::FramesLost, 1);
        let event = EventKind::FrameLost {
            dst,
            tag,
            words,
            cost,
        };
        obs.trace.record(self.me, self.clock, event);
    }

    /// The stamps of a transport-manufactured `words`-word frame — a
    /// duplicate or a delayed copy: uncharged, sent now, arriving `extra`
    /// cycles after a regular send issued now would.
    pub(crate) fn inject_stamp(
        &mut self,
        obs: &Observers,
        words: usize,
        extra: u64,
    ) -> (Time, Time) {
        self.count_frame(obs, words);
        (self.clock, self.clock.plus(self.cost.flight).plus(extra))
    }

    /// Consume a `words`-word message from `(src, tag)` stamped
    /// `arrives_at`: idle until the arrival if it is still ahead, then
    /// pay the unpacking cost.
    #[inline]
    pub(crate) fn recv(
        &mut self,
        obs: &mut Observers,
        src: ProcId,
        tag: Tag,
        arrives_at: Time,
        words: usize,
    ) {
        let waited = arrives_at.0.saturating_sub(self.clock.0);
        self.stats.idle_cycles += waited;
        let cost = self.cost.recv_cost(words) * self.slowdown;
        self.clock = self.clock.max(arrives_at).plus(cost);
        self.stats.recvs += 1;
        obs.metrics.logical_recv(
            self.me.0,
            src.0 as u64,
            tag.0 as u64,
            words as u64,
            self.clock.0,
        );
        let event = EventKind::Recv {
            src,
            tag,
            words,
            waited,
            cost,
        };
        obs.trace.record(self.me, self.clock, event);
    }

    /// Record a trace event at the current clock.
    pub(crate) fn record(&self, obs: &mut Observers, event: EventKind) {
        obs.trace.record(self.me, self.clock, event);
    }

    /// Record that the process on this processor finished.
    pub(crate) fn finish(&self, obs: &mut Observers) {
        self.record(obs, EventKind::Finish);
    }

    /// Take and clear the self-send fault, if one was recorded.
    pub(crate) fn take_self_send(&mut self) -> bool {
        std::mem::take(&mut self.self_send)
    }
}

/// The statistics snapshot of a machine made of `cpus` whose transport
/// held at most `max_in_flight` messages at once.
pub(crate) fn machine_stats(cpus: &[Cpu], max_in_flight: u64) -> MachineStats {
    MachineStats {
        network: NetworkStats {
            messages: cpus.iter().map(|c| c.frames).sum(),
            words: cpus.iter().map(|c| c.frame_words).sum(),
            max_in_flight,
        },
        procs: cpus.iter().map(|c| c.stats).collect(),
        clocks: cpus.iter().map(|c| c.clock).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Event;
    use pdc_metrics::MetricsSnapshot;

    const P0: ProcId = ProcId(0);
    const P1: ProcId = ProcId(1);

    fn observers() -> Observers {
        Observers {
            trace: Trace::bounded(16),
            metrics: Arc::new(MetricsRegistry::new(2)),
        }
    }

    fn cpu(p: ProcId, cost: CostModel, slowdown: u64) -> Cpu {
        let mut cpu = Cpu::new(p, cost);
        cpu.configure(slowdown, false);
        cpu
    }

    fn events(obs: &mut Observers) -> Vec<Event> {
        obs.trace.flush();
        obs.trace.events().cloned().collect()
    }

    #[test]
    fn tick_n_equals_that_many_ticks() {
        let run = |batched: bool| -> (MachineStats, MetricsSnapshot, Vec<Event>) {
            let mut obs = observers();
            let mut cpu = cpu(P0, CostModel::ipsc2(), 3);
            if batched {
                cpu.tick_n(&mut obs, 7, 3);
                cpu.tick_n(&mut obs, 0, 0);
            } else {
                cpu.tick_n(&mut obs, 3, 1);
                cpu.tick_n(&mut obs, 0, 1);
                cpu.tick_n(&mut obs, 4, 1);
            }
            cpu.send(&mut obs, P1, Tag(0), 1);
            (
                machine_stats(&[cpu], 0),
                obs.metrics.snapshot(),
                events(&mut obs),
            )
        };
        let (stepped, batched) = (run(false), run(true));
        assert_eq!(stepped, batched);
        assert_eq!(stepped.0.procs[0].ops, 3);
        assert_eq!(
            stepped.2[0].kind,
            EventKind::Compute { cycles: 21 },
            "ticks coalesce into one slowdown-scaled interval, flushed by the send"
        );
    }

    #[test]
    fn send_charges_sender_and_stamps_arrival() {
        let c = CostModel::ipsc2();
        let mut obs = observers();
        let (mut tx, mut rx) = (cpu(P0, c, 1), cpu(P1, c, 1));
        tx.tick_n(&mut obs, 7, 2);
        let (sent_at, arrives_at) = tx.send(&mut obs, P1, Tag(0), 3).unwrap();
        assert_eq!(tx.clock(), Time(7 + c.send_cost(3)));
        assert_eq!(sent_at, tx.clock());
        assert_eq!(arrives_at, sent_at.plus(c.flight));
        // The receiver moves only when it consumes: to arrival + unpacking.
        assert_eq!(rx.clock(), Time(0));
        rx.recv(&mut obs, P0, Tag(0), arrives_at, 3);
        assert_eq!(rx.clock(), arrives_at.plus(c.recv_cost(3)));
        let stats = machine_stats(&[tx, rx], 1);
        assert_eq!(stats.procs[1].idle_cycles, arrives_at.0);
        assert_eq!((stats.procs[0].sends, stats.procs[0].words_sent), (1, 3));
        assert_eq!(stats.procs[1].recvs, 1);
        assert_eq!((stats.network.messages, stats.network.words), (1, 3));
        // The trace carries the costs, and intervals tile each timeline.
        let evs = events(&mut obs);
        assert_eq!(evs[0].kind, EventKind::Compute { cycles: 7 });
        assert_eq!(evs[0].at, Time(7));
        let send = EventKind::Send {
            dst: P1,
            tag: Tag(0),
            words: 3,
            cost: c.send_cost(3),
        };
        assert_eq!(evs[1].kind, send);
        let recv = EventKind::Recv {
            src: P0,
            tag: Tag(0),
            words: 3,
            waited: arrives_at.0,
            cost: c.recv_cost(3),
        };
        assert_eq!(evs[2].kind, recv);
        assert_eq!(evs[2].start(), Time(0));
        assert_eq!(evs[2].at, arrives_at.plus(c.recv_cost(3)));
    }

    #[test]
    fn busy_receiver_does_not_idle() {
        let c = CostModel::ipsc2();
        let mut obs = observers();
        let mut rx = cpu(P1, c, 1);
        rx.tick_n(&mut obs, 1_000_000, 1);
        rx.recv(&mut obs, P0, Tag(0), Time(c.send_cost(1) + c.flight), 1);
        assert_eq!(rx.clock(), Time(1_000_000 + c.recv_cost(1)));
        assert_eq!(machine_stats(&[rx], 0).procs[0].idle_cycles, 0);
    }

    #[test]
    fn slowdown_scales_local_work_but_not_flight() {
        let c = CostModel::ipsc2();
        let mut obs = observers();
        let (mut slow, mut nominal) = (cpu(P0, c, 2), cpu(P1, c, 1));
        slow.tick_n(&mut obs, 10, 1);
        nominal.tick_n(&mut obs, 10, 1);
        assert_eq!((slow.clock(), nominal.clock()), (Time(20), Time(10)));
        let (sent_at, arrives_at) = slow.send(&mut obs, P1, Tag(0), 1).unwrap();
        assert_eq!(sent_at, Time(20 + 2 * c.send_cost(1)), "packing doubles");
        assert_eq!(arrives_at, sent_at.plus(c.flight), "flight does not");
        nominal.recv(&mut obs, P0, Tag(0), arrives_at, 1);
        assert_eq!(nominal.clock(), arrives_at.plus(c.recv_cost(1)));
        slow.recv(&mut obs, P1, Tag(1), Time(0), 1);
        assert_eq!(slow.clock(), sent_at.plus(2 * c.recv_cost(1)));
    }

    #[test]
    fn lost_frames_are_charged_and_injected_ones_are_not() {
        let c = CostModel::ipsc2();
        let mut obs = observers();
        let mut tx = cpu(P0, c, 1);
        tx.send_lost(&mut obs, P1, Tag(3), 3);
        assert_eq!(tx.clock(), Time(c.send_cost(3)));
        let lost = EventKind::FrameLost {
            dst: P1,
            tag: Tag(3),
            words: 3,
            cost: c.send_cost(3),
        };
        assert_eq!(events(&mut obs)[0].kind, lost);
        // The copy the transport held arrives `extra` later than a send
        // issued now would, and costs the sender nothing.
        let (sent_at, arrives_at) = tx.inject_stamp(&obs, 3, 250);
        assert_eq!(sent_at, Time(c.send_cost(3)));
        assert_eq!(arrives_at, sent_at.plus(c.flight + 250));
        assert_eq!(tx.clock(), sent_at);
        let stats = machine_stats(&[tx], 0);
        assert_eq!((stats.procs[0].sends, stats.procs[0].words_sent), (1, 3));
        // The network saw the injected frame only.
        assert_eq!((stats.network.messages, stats.network.words), (1, 3));
        let snap = obs.metrics.snapshot();
        assert_eq!(snap.total(Ctr::FramesLost), 1);
        assert_eq!(snap.total(Ctr::WireFrames), 1);
        assert_eq!(snap.total(Ctr::WireWords), 3);
    }

    #[test]
    fn busy_and_advance_to() {
        let mut obs = observers();
        let mut cpu = cpu(P0, CostModel::zero(), 2);
        cpu.busy(&mut obs, 10);
        assert_eq!(cpu.clock(), Time(20), "busy is slowdown-scaled");
        cpu.advance_to(Time(15));
        assert_eq!(cpu.clock(), Time(20), "never moves backwards");
        cpu.advance_to(Time(120));
        assert_eq!(cpu.clock(), Time(120));
        cpu.reboot(5);
        assert_eq!(cpu.clock(), Time(125), "a reboot is not slowdown-scaled");
        assert_eq!(
            machine_stats(&[cpu], 0).procs[0].ops,
            0,
            "busy counts no instruction"
        );
    }

    #[test]
    fn self_send_is_remembered_not_charged() {
        let mut obs = observers();
        let mut cpu = cpu(P1, CostModel::ipsc2(), 1);
        assert_eq!(cpu.send(&mut obs, P1, Tag(0), 2), None);
        assert!(cpu.take_self_send());
        assert!(!cpu.take_self_send(), "take clears the fault");
        // A self-send is a bug, not a machine event.
        assert_eq!(cpu.clock(), Time(0));
        assert_eq!(machine_stats(&[cpu], 0).network.messages, 0);
        assert!(events(&mut obs).is_empty());
    }

    #[test]
    fn raw_transport_sends_record_no_logical_send() {
        for raw in [false, true] {
            let mut obs = observers();
            let mut cpu = Cpu::new(P0, CostModel::ipsc2());
            cpu.configure(1, raw);
            cpu.send(&mut obs, P1, Tag(0), 1);
            let snap = obs.metrics.snapshot();
            assert_eq!(snap.total(Ctr::WireFrames), 1);
            assert_eq!(snap.total(Ctr::FramesSent), u64::from(!raw));
        }
    }
}
