//! The machine fabric: what a process sees of the machine, and the
//! simulator's implementation of it — logical processors (`Cpu`) plus a
//! network. The charging rules are the processor's (DESIGN §5b, "The
//! logical processor"); this file moves payloads.

use crate::config::{MetricsMode, RunConfig};
use crate::cost::CostModel;
use crate::cpu::{machine_stats, Cpu, Observers};
use crate::message::{ProcId, Tag, Time, Word};
use crate::network::Network;
use crate::report::{Ledger, RunReport};
use crate::stats::MachineStats;
use crate::trace::Trace;
use pdc_metrics::{MetricsRegistry, MetricsSnapshot};
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
/// * the threaded backend's per-thread endpoint
///   ([`threaded`](crate::threaded)), where each processor runs on its
///   own OS thread and messages travel over preallocated lock-free SPSC
///   word rings ([`ring`](crate::ring)), one per ordered processor pair.
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
    fn tick(&mut self, p: ProcId, cycles: u64) {
        self.tick_n(p, cycles, 1);
    }

    /// Charge `cycles` of computation to `p` as `ops` executed
    /// instructions: the clock, the instruction count and the trace end up
    /// exactly as after `ops` calls of [`tick`](Fabric::tick) whose cycles
    /// sum to `cycles`. A process that executes a run of instructions
    /// between two fabric operations charges them in one call (see
    /// [`Process::step_batch`](crate::Process::step_batch)); cycles come
    /// with at least one op.
    fn tick_n(&mut self, p: ProcId, cycles: u64, ops: u64);

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

/// The simulated multiprocessor: `n` logical processors, a
/// typed-channel network, and the observers they record into.
///
/// A `Machine` is passive — it does not run anything by itself. A client
/// (normally the [`Scheduler`](crate::Scheduler) driving
/// [`Process`](crate::Process) implementations) drives it through
/// [`Fabric`] and reads the final clocks from [`stats`](Machine::stats).
/// Every charge is the processor's (`Cpu`, DESIGN §5b); the machine
/// moves the payloads.
#[derive(Debug)]
pub struct Machine {
    pub(crate) cpus: Vec<Cpu>,
    pub(crate) network: Network,
    /// One trace (one cap, one event sequence) and one registry for the
    /// whole machine; the registry is always present, flight-recorder-only
    /// by default.
    pub(crate) obs: Observers,
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
            cpus: (0..n).map(|p| Cpu::new(ProcId(p), cost)).collect(),
            network: Network::new(n),
            obs: Observers {
                trace: Trace::disabled(),
                metrics: Arc::new(MetricsRegistry::flight_only(n)),
            },
        }
    }

    /// Install what `config` says of the machine's own state — slowdown
    /// factors, whether the reliable layer is interposed, a trace buffer,
    /// a metrics registry. The scheduler calls this at run entry, after
    /// validating `config` against the machine's size.
    pub(crate) fn configure(&mut self, config: &RunConfig) {
        let raw_transport = config.protocol().is_some();
        for (p, cpu) in self.cpus.iter_mut().enumerate() {
            cpu.configure(config.slowdown(p), raw_transport);
        }
        if let Some(cap) = config.trace_cap {
            self.obs.trace = Trace::bounded(cap);
        }
        if !matches!(config.metrics, MetricsMode::FlightOnly) {
            self.obs.metrics = config.metrics.registry(self.cpus.len());
        }
    }

    /// Processor `p` and the observers it records into.
    pub(crate) fn cpu(&mut self, p: ProcId) -> (&mut Cpu, &mut Observers) {
        (&mut self.cpus[p.0], &mut self.obs)
    }

    /// Current logical clock of `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn clock(&self, p: ProcId) -> Time {
        self.cpus[p.0].clock()
    }

    /// Record that the process on `p` finished (for the trace).
    pub fn finish(&mut self, p: ProcId) {
        self.cpus[p.0].finish(&mut self.obs);
    }

    /// Snapshot all statistics.
    pub fn stats(&self) -> MachineStats {
        machine_stats(&self.cpus, self.network.max_in_flight())
    }

    /// The event trace recorded so far. Compute intervals still open are
    /// not in it yet; a [`RunReport`]'s trace has them flushed.
    pub fn trace(&self) -> &Trace {
        &self.obs.trace
    }

    /// Snapshot the metrics registry — what a [`RunReport`] carries.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.obs.metrics.snapshot()
    }

    /// The report of a run of `steps` steps on this machine, whose
    /// traffic `ledger` describes.
    pub(crate) fn report(&mut self, steps: u64, ledger: Ledger) -> RunReport {
        self.obs.trace.flush();
        RunReport::assemble(
            &self.cpus,
            steps,
            self.obs.trace.clone(),
            self.obs.metrics.snapshot(),
            self.network.max_in_flight(),
            ledger,
        )
    }
}

impl Fabric for Machine {
    fn n_procs(&self) -> usize {
        self.cpus.len()
    }

    fn cost_model(&self) -> &CostModel {
        // One model for the whole machine; every processor has a copy.
        self.cpus[0].cost()
    }

    #[inline]
    fn tick_n(&mut self, p: ProcId, cycles: u64, ops: u64) {
        self.cpus[p.0].tick_n(&mut self.obs, cycles, ops);
    }

    /// A self-send (`src == dst`) is a code-generation bug — the compiler
    /// must turn same-processor coercions into local reads (§3.1). The
    /// processor remembers it and nothing is delivered; the scheduler
    /// surfaces it as [`MachineError::SelfSend`](crate::MachineError) in
    /// every build profile.
    fn send_ref(&mut self, src: ProcId, dst: ProcId, tag: Tag, payload: &[Word]) {
        let stamps = self.cpus[src.0].send(&mut self.obs, dst, tag, payload.len());
        if let Some((_, arrives_at)) = stamps {
            self.network.deliver(src, dst, tag, payload, arrives_at);
        }
    }

    fn try_recv_into(&mut self, dst: ProcId, src: ProcId, tag: Tag, out: &mut Vec<Word>) -> bool {
        let Some(msg) = self.network.take(src, dst, tag) else {
            return false;
        };
        out.clear();
        out.extend_from_slice(&msg.payload);
        self.cpus[dst.0].recv(&mut self.obs, src, tag, msg.arrives_at, out.len());
        self.network.recycle(msg.payload);
        true
    }

    fn send_lost(&mut self, src: ProcId, dst: ProcId, tag: Tag, words: usize) {
        self.cpus[src.0].send_lost(&mut self.obs, dst, tag, words);
    }

    fn inject_ref(&mut self, src: ProcId, dst: ProcId, tag: Tag, payload: &[Word], extra: u64) {
        let (_, arrives_at) = self.cpus[src.0].inject_stamp(&self.obs, payload.len(), extra);
        self.network.deliver(src, dst, tag, payload, arrives_at);
    }

    fn metrics(&self) -> Option<&MetricsRegistry> {
        Some(&self.obs.metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::EventKind;

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
    fn a_message_carries_its_payload_and_arrival_stamp() {
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
        assert_eq!(m.stats().network.messages, 1);
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
    fn configure_installs_slowdowns_and_the_one_trace() {
        let mut m = Machine::new(2, CostModel::zero());
        m.configure(&RunConfig {
            slowdowns: vec![3, 1],
            trace_cap: Some(16),
            ..RunConfig::default()
        });
        m.tick(ProcId(0), 10);
        m.tick(ProcId(1), 10);
        assert_eq!(m.clock(ProcId(0)), Time(30));
        assert_eq!(m.clock(ProcId(1)), Time(10));
        // Every processor records into the machine's one trace, in order.
        m.send_ref(ProcId(0), ProcId(1), Tag(1), &[1]);
        recv(&mut m, 1, 0, 1).unwrap();
        m.finish(ProcId(0));
        let kinds: Vec<_> = m.trace().events().map(|e| (e.proc.0, &e.kind)).collect();
        assert!(matches!(kinds[0], (0, EventKind::Compute { cycles: 30 })));
        assert!(matches!(kinds[1], (0, EventKind::Send { .. })));
        assert!(matches!(kinds[2], (1, EventKind::Compute { cycles: 10 })));
        assert!(matches!(kinds[3], (1, EventKind::Recv { .. })));
        assert!(matches!(kinds[4], (0, EventKind::Finish)));
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
        assert!(m.cpus[1].take_self_send());
        assert!(recv(&mut m, 1, 1, 0).is_none());
        assert_eq!(m.network.in_flight(), 0);
        assert_eq!(m.clock(ProcId(1)), Time(0));
    }

    #[test]
    fn send_lost_delivers_nothing() {
        let c = CostModel::ipsc2();
        let mut m = Machine::new(2, c);
        m.send_lost(ProcId(0), ProcId(1), Tag(0), 3);
        assert_eq!(m.clock(ProcId(0)), Time(c.send_cost(3)));
        assert_eq!(m.stats().procs[0].sends, 1);
        assert_eq!(m.stats().procs[0].words_sent, 3);
        assert!(recv(&mut m, 1, 0, 0).is_none());
        assert_eq!(m.network.in_flight(), 0);
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

    /// The protocol loop takes a frame off the network out of band and
    /// charges the receive later, in program order.
    #[test]
    fn take_then_charge_equals_try_recv() {
        let c = CostModel::ipsc2();
        let mut a = Machine::new(2, c);
        let mut b = Machine::new(2, c);
        a.send_ref(ProcId(0), ProcId(1), Tag(0), &[1, 2]);
        b.send_ref(ProcId(0), ProcId(1), Tag(0), &[1, 2]);
        recv(&mut a, 1, 0, 0).unwrap();
        let msg = b.network.take(ProcId(0), ProcId(1), Tag(0)).unwrap();
        // Taking alone moves nothing.
        assert_eq!(b.clock(ProcId(1)), Time(0));
        let (cpu, obs) = b.cpu(ProcId(1));
        cpu.recv(obs, ProcId(0), Tag(0), msg.arrives_at, msg.payload.len());
        assert_eq!(a.stats(), b.stats());
    }
}
