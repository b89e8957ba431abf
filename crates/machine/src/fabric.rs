//! The machine fabric: clocks + network + statistics.

use crate::config::{MetricsMode, RunConfig};
use crate::cost::CostModel;
use crate::error::MachineError;
use crate::message::{Message, ProcId, Tag, Time, Word};
use crate::network::Network;
use crate::stats::{MachineStats, ProcStats};
use crate::trace::{EventKind, Trace};
use pdc_metrics::{Ctr, MetricsRegistry, MetricsSnapshot};
use std::collections::BTreeMap;
use std::sync::Arc;

/// What a [`Process`](crate::Process) sees of the machine it runs on:
/// enough to charge instruction costs and exchange typed messages, and
/// nothing else.
///
/// Two implementations exist:
///
/// * [`Machine`] — the deterministic discrete-event simulator, where one
///   thread interleaves every processor and the whole network is a set of
///   in-memory queues;
/// * [`Endpoint`](crate::threaded::Endpoint) — one *per-thread* view of
///   the machine used by the threaded backend, where each processor runs
///   on its own OS thread and messages travel over preallocated lock-free
///   SPSC word rings ([`ring`](crate::ring)), one per ordered processor
///   pair.
///
/// Because message *content* visible to a process depends only on FIFO
/// order within `(src, dst, tag)` channels — never on global interleaving
/// (see [`Scheduler`](crate::Scheduler)) — and arrival stamps are computed
/// from sender-local state, a `Process` driven through this trait produces
/// identical results, logical clocks, and traffic counts on both
/// implementations.
pub trait Fabric {
    /// Number of processors.
    fn n_procs(&self) -> usize;

    /// The cost model in force.
    fn cost_model(&self) -> &CostModel;

    /// Charge `cycles` of computation to processor `p` (scaled by its
    /// slowdown factor) and count one executed instruction.
    fn tick(&mut self, p: ProcId, cycles: u64);

    /// Charge `cycles` of computation to `p` as `ops` executed
    /// instructions: the clock, the instruction count and the trace end up
    /// exactly as after `ops` calls of [`tick`](Fabric::tick) whose cycles
    /// sum to `cycles`. A process that executes a run of instructions
    /// between two fabric operations charges them in one call (see
    /// [`Process::step_batch`](crate::Process::step_batch)); cycles come
    /// with at least one op. The default makes those calls; [`Machine`]
    /// and the threaded endpoint do it in one.
    fn tick_n(&mut self, p: ProcId, cycles: u64, ops: u64) {
        if ops > 0 {
            self.tick(p, cycles);
        }
        for _ in 1..ops {
            self.tick(p, 0);
        }
    }

    /// Asynchronous typed send (`csend`): charge the sender and hand a
    /// copy of `payload` to the transport, stamped with its arrival time.
    /// The payload is borrowed so the fabric copies (or serializes) it
    /// into storage it recycles: steady-state sends never allocate.
    fn send_ref(&mut self, src: ProcId, dst: ProcId, tag: Tag, payload: &[Word]);

    /// Typed receive attempt (`crecv`): consume the oldest matching
    /// message if one is pending — the payload lands in the caller-owned
    /// `out` (cleared first), letting the fabric recycle its own buffer —
    /// and return whether one was consumed. `false` means the caller must
    /// block; `out` is then unspecified.
    fn try_recv_into(&mut self, dst: ProcId, src: ProcId, tag: Tag, out: &mut Vec<Word>) -> bool;

    /// A send whose frame the transport loses: charge the sender exactly
    /// as [`send_ref`](Fabric::send_ref) would (the words left the CPU)
    /// but deliver nothing. Fault-injection hook — the default
    /// implementation charges nobody and delivers nothing, which is
    /// correct for fabrics that do not model send cost.
    fn send_lost(&mut self, src: ProcId, dst: ProcId, tag: Tag, words: usize) {
        let _ = (src, dst, tag, words);
    }

    /// Deposit a transport-manufactured frame — a duplicate or a delayed
    /// copy — without charging the sender, arriving `extra` cycles later
    /// than a regular send issued now would. The default implementation
    /// falls back to a plain [`send_ref`](Fabric::send_ref).
    fn inject_ref(&mut self, src: ProcId, dst: ProcId, tag: Tag, payload: &[Word], extra: u64) {
        let _ = extra;
        self.send_ref(src, dst, tag, payload);
    }

    /// The metrics registry this fabric records into, when it has one.
    /// Clients above the fabric (the SPMD VM's scratch-reuse counters)
    /// record through this instead of threading a registry handle of
    /// their own. The default has none.
    fn metrics(&self) -> Option<&MetricsRegistry> {
        None
    }
}

/// The simulated multiprocessor: `n` logical clocks, a typed-channel
/// network, a [`CostModel`], and statistics.
///
/// A `Machine` is passive — it does not run anything by itself. A client
/// (normally the [`Scheduler`](crate::Scheduler) driving
/// [`Process`](crate::Process) implementations) charges instruction costs
/// with [`tick`](Machine::tick), moves data with
/// [`send_ref`](Machine::send_ref) /
/// [`try_recv_into`](Machine::try_recv_into), and reads the final clocks
/// from [`stats`](Machine::stats).
#[derive(Debug)]
pub struct Machine {
    n: usize,
    cost: CostModel,
    clocks: Vec<Time>,
    network: Network,
    procs: Vec<ProcStats>,
    trace: Trace,
    /// Per-processor slowdown factors (1 = nominal speed). Every cycle a
    /// processor spends computing, packing, or unpacking is multiplied by
    /// its factor — a heterogeneous machine for the §5.4 load-balancing
    /// experiments. Network flight time is unaffected.
    slowdown: Vec<u64>,
    /// Set when a process sends a message to itself — a code-generation
    /// bug the driver must surface as [`MachineError::SelfSend`]. The
    /// fabric records it rather than panicking so release builds fail
    /// loudly too (the frame is *not* delivered).
    self_send: Option<ProcId>,
    /// The metrics registry (always present; flight-recorder-only by
    /// default). `Arc` so a live sampler or the threaded driver can
    /// share the same registry.
    metrics: Arc<MetricsRegistry>,
    /// When the reliable-delivery layer is interposed, every frame the
    /// fabric itself moves is raw transport — data, retransmits, acks —
    /// and the *protocol* records logical metrics at its own send/recv
    /// points instead. Set by the scheduler's recoverable path.
    raw_transport: bool,
}

impl Machine {
    /// A machine with `n` processors, all clocks at zero.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, cost: CostModel) -> Self {
        assert!(n > 0, "a machine needs at least one processor");
        Machine {
            n,
            cost,
            clocks: vec![Time::ZERO; n],
            network: Network::new(n),
            procs: vec![ProcStats::default(); n],
            trace: Trace::disabled(),
            slowdown: vec![1; n],
            self_send: None,
            metrics: Arc::new(MetricsRegistry::flight_only(n)),
            raw_transport: false,
        }
    }

    /// Enable full metrics recording (counters, histograms, channel
    /// tables). The default records only the always-on flight recorder.
    pub fn with_metrics(mut self) -> Self {
        self.metrics = Arc::new(MetricsRegistry::new(self.n));
        self
    }

    /// The registry this machine records into.
    pub fn metrics_registry(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Snapshot the metrics registry — what a
    /// [`RunReport`](crate::RunReport) carries.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Mark every subsequent fabric-level frame as raw transport (the
    /// reliable layer is interposed and records logical metrics at its
    /// own boundary). See the `raw_transport` field.
    pub(crate) fn set_raw_transport(&mut self, raw: bool) {
        self.raw_transport = raw;
    }

    /// Enable bounded event tracing (keep-oldest overflow policy).
    pub fn with_trace(mut self, cap: usize) -> Self {
        self.trace = Trace::bounded(cap);
        self
    }

    /// Install a caller-configured trace (e.g. keep-newest policy).
    pub fn enable_trace(&mut self, trace: Trace) {
        self.trace = trace;
    }

    /// Make the machine heterogeneous: processor `p` takes
    /// `factors[p]` cycles for every nominal cycle of local work.
    ///
    /// # Panics
    ///
    /// Panics if `factors.len() != n` or any factor is zero.
    pub fn with_slowdowns(mut self, factors: Vec<u64>) -> Self {
        assert_eq!(factors.len(), self.n, "one factor per processor");
        assert!(factors.iter().all(|&f| f > 0), "factors must be positive");
        self.slowdown = factors;
        self
    }

    /// Install what `config` sets of the machine's own state — slowdown
    /// factors, a trace buffer, a metrics registry. The scheduler calls
    /// this at run entry, after validating `config` against the machine's
    /// size; whatever `config` leaves at its default stays as the machine
    /// was built.
    pub(crate) fn configure(&mut self, config: &RunConfig) {
        if !config.slowdowns.is_empty() {
            self.slowdown.clone_from(&config.slowdowns);
        }
        if let Some(cap) = config.trace_cap {
            self.trace = Trace::bounded(cap);
        }
        if !matches!(config.metrics, MetricsMode::FlightOnly) {
            self.metrics = config.metrics.registry(self.n);
        }
    }

    /// The slowdown factor of processor `p`.
    pub fn slowdown(&self, p: ProcId) -> u64 {
        self.slowdown[p.0]
    }

    /// Number of processors.
    pub fn n_procs(&self) -> usize {
        self.n
    }

    /// The cost model in force.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Current logical clock of `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn clock(&self, p: ProcId) -> Time {
        self.clocks[p.0]
    }

    /// Charge `cycles` of computation to processor `p` (scaled by its
    /// slowdown factor) and count one executed instruction.
    pub fn tick(&mut self, p: ProcId, cycles: u64) {
        self.tick_n(p, cycles, 1);
    }

    /// Charge `cycles` of computation to processor `p` (scaled by its
    /// slowdown factor) and count `ops` executed instructions.
    pub fn tick_n(&mut self, p: ProcId, cycles: u64, ops: u64) {
        let before = self.clocks[p.0];
        self.clocks[p.0] = before.plus(cycles * self.slowdown[p.0]);
        self.procs[p.0].ops += ops;
        self.metrics.count(p.0, Ctr::Ops, ops);
        self.trace.record_compute(p, before, self.clocks[p.0]);
    }

    /// Asynchronous typed send (`csend`): charges the sender the start-up
    /// plus per-word cost and deposits a copy of the payload (in a
    /// recycled buffer: no allocation in the steady state) with an
    /// arrival stamp of `sender clock + flight`.
    ///
    /// A self-send (`src == dst`) is a code-generation bug — the compiler
    /// must turn same-processor coercions into local reads (§3.1). The
    /// fabric records it (see [`take_self_send`](Machine::take_self_send))
    /// and delivers nothing; the scheduler surfaces it as
    /// [`MachineError::SelfSend`] in every build profile.
    pub fn send_ref(&mut self, src: ProcId, dst: ProcId, tag: Tag, payload: &[Word]) {
        if let Some(msg) = self.charge_send(src, dst, tag, payload.len()) {
            let payload = self.network.buffer(payload);
            self.network.deliver(Message { payload, ..msg });
        }
    }

    /// The accounting half of a send of `words` words: record a self-send
    /// and return `None`, or charge the sender, count and trace the send
    /// and return the stamped (still empty) message.
    fn charge_send(&mut self, src: ProcId, dst: ProcId, tag: Tag, words: usize) -> Option<Message> {
        if src == dst {
            self.self_send.get_or_insert(src);
            return None;
        }
        let send_cost = self.cost.send_cost(words) * self.slowdown[src.0];
        self.clocks[src.0] = self.clocks[src.0].plus(send_cost);
        let sent_at = self.clocks[src.0];
        self.procs[src.0].sends += 1;
        self.procs[src.0].words_sent += words as u64;
        self.metrics.count(src.0, Ctr::WireFrames, 1);
        self.metrics.count(src.0, Ctr::WireWords, words as u64);
        if !self.raw_transport {
            self.metrics
                .logical_send(src.0, dst.0 as u64, tag.0 as u64, words as u64, sent_at.0);
        }
        self.trace.record(
            src,
            sent_at,
            EventKind::Send {
                dst,
                tag,
                words,
                cost: send_cost,
            },
        );
        Some(Message {
            src,
            dst,
            tag,
            payload: Vec::new(),
            sent_at,
            arrives_at: sent_at.plus(self.cost.flight),
        })
    }

    /// Typed receive attempt (`crecv`): if a matching message is pending,
    /// consume it into the caller-owned `out` (cleared first; the
    /// message's own buffer is recycled), advance the receiver's clock
    /// past the arrival time plus the unpacking cost, and return `true`.
    /// `false` means the caller must block until the sender has
    /// progressed.
    pub fn try_recv_into(
        &mut self,
        dst: ProcId,
        src: ProcId,
        tag: Tag,
        out: &mut Vec<Word>,
    ) -> bool {
        let Some(msg) = self.network.take(src, dst, tag) else {
            return false;
        };
        out.clear();
        out.extend_from_slice(&msg.payload);
        self.charge_recv(dst, src, tag, msg.arrives_at, out.len());
        self.network.recycle(msg.payload);
        true
    }

    /// Is a message pending for `(src → dst, tag)`?
    pub fn has_pending(&self, dst: ProcId, src: ProcId, tag: Tag) -> bool {
        self.network.has_pending(src, dst, tag)
    }

    /// Take and clear the recorded self-send fault, if any. Drivers call
    /// this after every process step; `Some(p)` must become
    /// [`MachineError::SelfSend`].
    pub fn take_self_send(&mut self) -> Option<ProcId> {
        self.self_send.take()
    }

    /// A send whose frame the transport loses: the sender pays the full
    /// packing cost and the trace records the loss, but nothing enters
    /// the network. Fault-injection primitive.
    pub fn send_lost(&mut self, src: ProcId, dst: ProcId, tag: Tag, words: usize) {
        let send_cost = self.cost.send_cost(words) * self.slowdown[src.0];
        self.clocks[src.0] = self.clocks[src.0].plus(send_cost);
        self.procs[src.0].sends += 1;
        self.procs[src.0].words_sent += words as u64;
        self.metrics.count(src.0, Ctr::FramesLost, 1);
        self.trace.record(
            src,
            self.clocks[src.0],
            EventKind::FrameLost {
                dst,
                tag,
                words,
                cost: send_cost,
            },
        );
    }

    /// Deposit a transport-manufactured frame — a duplicate or a delayed
    /// copy — without charging the sender. It arrives at
    /// `sender clock + flight + extra`, as if the transport had been
    /// holding it since the matching [`send_lost`](Machine::send_lost).
    pub fn inject_ref(&mut self, src: ProcId, dst: ProcId, tag: Tag, payload: &[Word], extra: u64) {
        let sent_at = self.clocks[src.0];
        let arrives_at = sent_at.plus(self.cost.flight).plus(extra);
        self.metrics.count(src.0, Ctr::WireFrames, 1);
        self.metrics
            .count(src.0, Ctr::WireWords, payload.len() as u64);
        let payload = self.network.buffer(payload);
        self.network.deliver(Message {
            src,
            dst,
            tag,
            payload,
            sent_at,
            arrives_at,
        });
    }

    /// Hand back the payload buffer of a message consumed through
    /// [`take_raw`](Machine::take_raw), for reuse by later sends.
    pub fn recycle(&mut self, buf: Vec<Word>) {
        self.network.recycle(buf);
    }

    /// Consume the oldest pending message for `(src → dst, tag)` with **no**
    /// clock or statistics effect — the reliable-delivery layer's pump uses
    /// this to do sequence-number bookkeeping out of band, then charges the
    /// receiver in program order via [`charge_recv`](Machine::charge_recv).
    pub fn take_raw(&mut self, dst: ProcId, src: ProcId, tag: Tag) -> Option<Message> {
        self.network.take(src, dst, tag)
    }

    /// Charge `dst` for receiving a `words`-long payload that arrived at
    /// `arrives_at`: idle until the arrival if necessary, then pay the
    /// unpacking cost. The accounting half of
    /// [`try_recv_into`](Machine::try_recv_into), for payloads already
    /// pulled out via [`take_raw`](Machine::take_raw).
    pub fn charge_recv(
        &mut self,
        dst: ProcId,
        src: ProcId,
        tag: Tag,
        arrives_at: Time,
        words: usize,
    ) {
        let before = self.clocks[dst.0];
        let ready = if arrives_at > before {
            self.procs[dst.0].idle_cycles += arrives_at.0 - before.0;
            arrives_at
        } else {
            before
        };
        let recv_cost = self.cost.recv_cost(words) * self.slowdown[dst.0];
        self.clocks[dst.0] = ready.plus(recv_cost);
        self.procs[dst.0].recvs += 1;
        self.metrics.logical_recv(
            dst.0,
            src.0 as u64,
            tag.0 as u64,
            words as u64,
            self.clocks[dst.0].0,
        );
        self.trace.record(
            dst,
            self.clocks[dst.0],
            EventKind::Recv {
                src,
                tag,
                words,
                waited: arrives_at.0.saturating_sub(before.0),
                cost: recv_cost,
            },
        );
    }

    /// Advance `p`'s clock by `cycles` of protocol work (slowdown-scaled)
    /// without counting an executed instruction — ack processing, timer
    /// service, and similar bookkeeping the program never wrote. Traced
    /// as compute: the processor really is busy over the interval.
    pub fn busy(&mut self, p: ProcId, cycles: u64) {
        let before = self.clocks[p.0];
        self.clocks[p.0] = before.plus(cycles * self.slowdown[p.0]);
        self.trace.record_compute(p, before, self.clocks[p.0]);
    }

    /// Advance `p`'s clock to at least `t` — how a retransmission timer
    /// "fires" in simulated time when every processor is otherwise stuck.
    pub fn advance_clock_to(&mut self, p: ProcId, t: Time) {
        if t > self.clocks[p.0] {
            self.clocks[p.0] = t;
        }
    }

    /// Drop every in-flight message addressed to `p`, returning how many
    /// were discarded. Crash recovery calls this when restoring `p` from
    /// a checkpoint: frames en route to the dead incarnation must not
    /// reach the restored one out of sequence-window order. Cumulative
    /// pair counts are left untouched.
    pub fn discard_incoming(&mut self, p: ProcId) -> usize {
        self.network.discard_to(p)
    }

    /// Drop every in-flight message on the fabric (coordinated-rollback
    /// recovery: the whole machine returns to a consistent cut and
    /// re-execution regenerates the traffic). Returns how many were
    /// discarded.
    pub fn discard_all_in_flight(&mut self) -> usize {
        self.network.discard_all()
    }

    /// Record that the process on `p` finished (for the trace).
    pub fn finish(&mut self, p: ProcId) {
        let at = self.clocks[p.0];
        self.trace.record(p, at, EventKind::Finish);
    }

    /// Validate a processor id.
    ///
    /// # Errors
    ///
    /// [`MachineError::InvalidProcessor`] when out of range.
    pub fn check_proc(&self, p: ProcId) -> Result<(), MachineError> {
        if p.0 < self.n {
            Ok(())
        } else {
            Err(MachineError::InvalidProcessor { proc: p, n: self.n })
        }
    }

    /// Messages still queued (should be zero at the end of a clean run).
    pub fn undelivered(&self) -> usize {
        self.network.in_flight()
    }

    /// Triples with queued messages, for diagnostics.
    pub fn pending_triples(&self) -> Vec<(ProcId, ProcId, Tag, usize)> {
        self.network.pending_triples()
    }

    /// Snapshot all statistics.
    pub fn stats(&self) -> MachineStats {
        MachineStats {
            network: self.network.stats(),
            procs: self.procs.clone(),
            clocks: self.clocks.clone(),
        }
    }

    /// The event trace recorded so far. Open compute intervals are not
    /// yet flushed; prefer [`snapshot_trace`](Machine::snapshot_trace)
    /// for a finished run.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Flush open compute intervals and clone the trace — what a
    /// [`RunReport`](crate::RunReport) carries.
    pub fn snapshot_trace(&mut self) -> Trace {
        self.trace.flush();
        self.trace.clone()
    }

    /// Mutable trace access for the protocol layers (retransmit/ack
    /// events recorded by the scheduler's reliable-delivery state).
    pub(crate) fn trace_mut(&mut self) -> &mut Trace {
        &mut self.trace
    }

    /// Cumulative messages delivered per `(src, dst, tag)` triple.
    pub fn pair_counts(&self) -> BTreeMap<(ProcId, ProcId, Tag), u64> {
        self.network.pair_counts()
    }
}

impl Fabric for Machine {
    fn n_procs(&self) -> usize {
        Machine::n_procs(self)
    }

    fn cost_model(&self) -> &CostModel {
        Machine::cost_model(self)
    }

    fn tick(&mut self, p: ProcId, cycles: u64) {
        Machine::tick(self, p, cycles);
    }

    fn tick_n(&mut self, p: ProcId, cycles: u64, ops: u64) {
        Machine::tick_n(self, p, cycles, ops);
    }

    fn send_ref(&mut self, src: ProcId, dst: ProcId, tag: Tag, payload: &[Word]) {
        Machine::send_ref(self, src, dst, tag, payload);
    }

    fn try_recv_into(&mut self, dst: ProcId, src: ProcId, tag: Tag, out: &mut Vec<Word>) -> bool {
        Machine::try_recv_into(self, dst, src, tag, out)
    }

    fn send_lost(&mut self, src: ProcId, dst: ProcId, tag: Tag, words: usize) {
        Machine::send_lost(self, src, dst, tag, words);
    }

    fn inject_ref(&mut self, src: ProcId, dst: ProcId, tag: Tag, payload: &[Word], extra: u64) {
        Machine::inject_ref(self, src, dst, tag, payload, extra);
    }

    fn metrics(&self) -> Option<&MetricsRegistry> {
        Some(&self.metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Receive into a fresh buffer.
    fn recv(m: &mut Machine, dst: usize, src: usize, tag: u32) -> Option<Vec<Word>> {
        let mut out = Vec::new();
        m.try_recv_into(ProcId(dst), ProcId(src), Tag(tag), &mut out)
            .then_some(out)
    }

    #[test]
    fn tick_advances_one_clock() {
        let mut m = Machine::new(3, CostModel::ipsc2());
        m.tick(ProcId(1), 7);
        assert_eq!(m.clock(ProcId(0)), Time(0));
        assert_eq!(m.clock(ProcId(1)), Time(7));
    }

    #[test]
    fn send_charges_sender_and_stamps_arrival() {
        let c = CostModel::ipsc2();
        let mut m = Machine::new(2, c);
        m.send_ref(ProcId(0), ProcId(1), Tag(0), &[1, 2, 3]);
        assert_eq!(m.clock(ProcId(0)), Time(c.send_cost(3)));
        // Receiver has not moved yet.
        assert_eq!(m.clock(ProcId(1)), Time(0));
        let got = recv(&mut m, 1, 0, 0).unwrap();
        assert_eq!(got, vec![1, 2, 3]);
        // Receiver clock jumped to arrival + unpack cost.
        let expected = c.send_cost(3) + c.flight + c.recv_cost(3);
        assert_eq!(m.clock(ProcId(1)), Time(expected));
        assert_eq!(m.stats().procs[1].idle_cycles, c.send_cost(3) + c.flight);
    }

    #[test]
    fn recv_of_missing_message_returns_none() {
        let mut m = Machine::new(2, CostModel::zero());
        assert!(recv(&mut m, 1, 0, 9).is_none());
        // A miss does not touch the clock or stats.
        assert_eq!(m.clock(ProcId(1)), Time(0));
        assert_eq!(m.stats().procs[1].recvs, 0);
    }

    #[test]
    fn busy_receiver_does_not_idle() {
        let c = CostModel::ipsc2();
        let mut m = Machine::new(2, c);
        m.send_ref(ProcId(0), ProcId(1), Tag(0), &[5]);
        // Receiver is busy well past the arrival time.
        m.tick(ProcId(1), 1_000_000);
        recv(&mut m, 1, 0, 0).unwrap();
        assert_eq!(m.stats().procs[1].idle_cycles, 0);
        assert_eq!(m.clock(ProcId(1)), Time(1_000_000 + c.recv_cost(1)));
    }

    #[test]
    fn check_proc_bounds() {
        let m = Machine::new(2, CostModel::zero());
        assert!(m.check_proc(ProcId(1)).is_ok());
        assert!(matches!(
            m.check_proc(ProcId(2)),
            Err(MachineError::InvalidProcessor { .. })
        ));
    }

    #[test]
    fn trace_records_send_recv_finish() {
        let mut m = Machine::new(2, CostModel::zero()).with_trace(16);
        m.send_ref(ProcId(0), ProcId(1), Tag(1), &[1]);
        recv(&mut m, 1, 0, 1).unwrap();
        m.finish(ProcId(0));
        let kinds: Vec<_> = m.trace().events().map(|e| &e.kind).collect();
        assert!(matches!(kinds[0], EventKind::Send { .. }));
        assert!(matches!(kinds[1], EventKind::Recv { .. }));
        assert!(matches!(kinds[2], EventKind::Finish));
    }

    #[test]
    fn trace_coalesces_ticks_and_records_costs() {
        let c = CostModel::ipsc2();
        let mut m = Machine::new(2, c).with_trace(16);
        m.tick(ProcId(0), 3);
        m.tick(ProcId(0), 4);
        m.send_ref(ProcId(0), ProcId(1), Tag(0), &[1, 2]);
        recv(&mut m, 1, 0, 0).unwrap();
        let evs: Vec<_> = m.snapshot_trace().events().cloned().collect();
        // Two ticks coalesced into one compute interval, flushed by the send.
        assert_eq!(evs[0].kind, EventKind::Compute { cycles: 7 });
        assert_eq!(evs[0].at, Time(7));
        assert_eq!(
            evs[1].kind,
            EventKind::Send {
                dst: ProcId(1),
                tag: Tag(0),
                words: 2,
                cost: c.send_cost(2),
            }
        );
        match evs[2].kind {
            EventKind::Recv { waited, cost, .. } => {
                assert_eq!(cost, c.recv_cost(2));
                assert_eq!(waited, 7 + c.send_cost(2) + c.flight);
            }
            ref other => panic!("expected recv, got {other:?}"),
        }
        // Intervals tile the receiver's timeline: at - duration = start.
        assert_eq!(evs[2].start(), Time(0));
        assert_eq!(evs[2].at, m.clock(ProcId(1)));
    }

    #[test]
    fn tick_n_equals_that_many_ticks() {
        let machine = || {
            Machine::new(2, CostModel::ipsc2())
                .with_trace(16)
                .with_metrics()
                .with_slowdowns(vec![3, 1])
        };
        let (mut a, mut b) = (machine(), machine());
        a.tick(ProcId(0), 3);
        a.tick(ProcId(0), 0);
        a.tick(ProcId(0), 4);
        b.tick_n(ProcId(0), 7, 3);
        b.tick_n(ProcId(0), 0, 0);
        for m in [&mut a, &mut b] {
            m.send_ref(ProcId(0), ProcId(1), Tag(0), &[1]);
        }
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.stats().procs[0].ops, 3);
        assert_eq!(a.metrics_snapshot(), b.metrics_snapshot());
        let events = |m: &mut Machine| m.snapshot_trace().events().cloned().collect::<Vec<_>>();
        assert_eq!(events(&mut a), events(&mut b));
    }

    #[test]
    fn try_recv_into_reuses_the_callers_buffer() {
        let mut m = Machine::new(2, CostModel::ipsc2());
        let mut out = vec![99; 8];
        for round in 0..3 {
            m.send_ref(ProcId(0), ProcId(1), Tag(4), &[round, 7]);
            assert!(m.try_recv_into(ProcId(1), ProcId(0), Tag(4), &mut out));
            assert_eq!(out, [round, 7]);
        }
        assert!(!m.try_recv_into(ProcId(1), ProcId(0), Tag(4), &mut out));
        assert_eq!(out, [2, 7], "a miss leaves the buffer alone");
        assert_eq!(m.stats().procs[1].recvs, 3);
        // A self-send is recorded, not delivered.
        m.send_ref(ProcId(1), ProcId(1), Tag(0), &[1]);
        assert_eq!(m.take_self_send(), Some(ProcId(1)));
        assert_eq!(m.undelivered(), 0);
    }

    #[test]
    fn send_lost_traced_as_frame_lost() {
        let mut m = Machine::new(2, CostModel::ipsc2()).with_trace(16);
        m.send_lost(ProcId(0), ProcId(1), Tag(3), 2);
        let evs: Vec<_> = m.snapshot_trace().events().cloned().collect();
        assert!(matches!(
            evs[0].kind,
            EventKind::FrameLost { tag: Tag(3), .. }
        ));
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_processors_rejected() {
        let _ = Machine::new(0, CostModel::zero());
    }

    #[test]
    fn self_send_is_recorded_not_delivered() {
        let mut m = Machine::new(2, CostModel::ipsc2());
        m.send_ref(ProcId(1), ProcId(1), Tag(0), &[1, 2]);
        assert_eq!(m.take_self_send(), Some(ProcId(1)));
        assert_eq!(m.take_self_send(), None, "take clears the fault");
        assert!(recv(&mut m, 1, 1, 0).is_none());
        assert_eq!(m.undelivered(), 0);
        // No charge either: a self-send is a bug, not a machine event.
        assert_eq!(m.clock(ProcId(1)), Time(0));
    }

    #[test]
    fn send_lost_charges_sender_without_delivery() {
        let c = CostModel::ipsc2();
        let mut m = Machine::new(2, c);
        m.send_lost(ProcId(0), ProcId(1), Tag(0), 3);
        assert_eq!(m.clock(ProcId(0)), Time(c.send_cost(3)));
        assert_eq!(m.stats().procs[0].sends, 1);
        assert_eq!(m.stats().procs[0].words_sent, 3);
        assert!(recv(&mut m, 1, 0, 0).is_none());
        assert_eq!(m.undelivered(), 0);
    }

    #[test]
    fn inject_delivers_without_charging_sender() {
        let c = CostModel::ipsc2();
        let mut m = Machine::new(2, c);
        m.inject_ref(ProcId(0), ProcId(1), Tag(0), &[9], 250);
        assert_eq!(m.clock(ProcId(0)), Time(0));
        assert_eq!(m.stats().procs[0].sends, 0);
        assert_eq!(recv(&mut m, 1, 0, 0), Some(vec![9]));
        // Arrival = sender clock (0) + flight + extra.
        assert_eq!(m.clock(ProcId(1)), Time(c.flight + 250 + c.recv_cost(1)));
    }

    #[test]
    fn take_raw_plus_charge_recv_equals_try_recv() {
        let c = CostModel::ipsc2();
        let mut a = Machine::new(2, c);
        let mut b = Machine::new(2, c);
        a.send_ref(ProcId(0), ProcId(1), Tag(0), &[1, 2]);
        b.send_ref(ProcId(0), ProcId(1), Tag(0), &[1, 2]);
        recv(&mut a, 1, 0, 0).unwrap();
        let msg = b.take_raw(ProcId(1), ProcId(0), Tag(0)).unwrap();
        // take_raw alone moves nothing.
        assert_eq!(b.clock(ProcId(1)), Time(0));
        b.charge_recv(
            ProcId(1),
            ProcId(0),
            Tag(0),
            msg.arrives_at,
            msg.payload.len(),
        );
        assert_eq!(a.clock(ProcId(1)), b.clock(ProcId(1)));
        assert_eq!(
            a.stats().procs[1].idle_cycles,
            b.stats().procs[1].idle_cycles
        );
        assert_eq!(a.stats().procs[1].recvs, b.stats().procs[1].recvs);
    }

    #[test]
    fn busy_and_advance_clock_to() {
        let mut m = Machine::new(2, CostModel::zero()).with_slowdowns(vec![2, 1]);
        m.busy(ProcId(0), 10);
        assert_eq!(m.clock(ProcId(0)), Time(20), "busy is slowdown-scaled");
        assert_eq!(m.stats().procs[0].ops, 0, "busy counts no instruction");
        m.advance_clock_to(ProcId(0), Time(15));
        assert_eq!(m.clock(ProcId(0)), Time(20), "never moves backwards");
        m.advance_clock_to(ProcId(0), Time(120));
        assert_eq!(m.clock(ProcId(0)), Time(120));
    }
}

#[cfg(test)]
mod slowdown_tests {
    use super::*;

    /// Receive into a fresh buffer.
    fn recv(m: &mut Machine, dst: usize, src: usize, tag: u32) -> Option<Vec<Word>> {
        let mut out = Vec::new();
        m.try_recv_into(ProcId(dst), ProcId(src), Tag(tag), &mut out)
            .then_some(out)
    }

    #[test]
    fn slowdown_scales_local_work() {
        let mut m = Machine::new(2, CostModel::ipsc2()).with_slowdowns(vec![3, 1]);
        m.tick(ProcId(0), 10);
        m.tick(ProcId(1), 10);
        assert_eq!(m.clock(ProcId(0)), Time(30));
        assert_eq!(m.clock(ProcId(1)), Time(10));
        assert_eq!(m.slowdown(ProcId(0)), 3);
    }

    #[test]
    fn slowdown_scales_packing_but_not_flight() {
        let c = CostModel::ipsc2();
        let mut m = Machine::new(2, c).with_slowdowns(vec![2, 1]);
        m.send_ref(ProcId(0), ProcId(1), Tag(0), &[1]);
        // Sender pays doubled packing cost.
        assert_eq!(m.clock(ProcId(0)), Time(2 * c.send_cost(1)));
        recv(&mut m, 1, 0, 0).unwrap();
        // Arrival = send completion + unscaled flight; receiver unpacks
        // at nominal speed (factor 1).
        assert_eq!(
            m.clock(ProcId(1)),
            Time(2 * c.send_cost(1) + c.flight + c.recv_cost(1))
        );
    }

    #[test]
    #[should_panic(expected = "one factor per processor")]
    fn slowdown_length_checked() {
        let _ = Machine::new(2, CostModel::zero()).with_slowdowns(vec![1]);
    }
}
