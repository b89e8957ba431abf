//! The deterministic scheduler.

use crate::config::{RunConfig, DEFAULT};
use crate::cost::CostModel;
use crate::cpu::ack_cost;
use crate::error::MachineError;
use crate::fabric::{Fabric, Machine};
use crate::fault::FaultState;
use crate::message::{ProcId, Tag, Time, Word};
use crate::reliable::{is_ack_tag, RelConfig, RelEndpoint, Wire};
use crate::report::{Ledger, RunReport};
use crate::trace::EventKind;
use pdc_metrics::MetricsRegistry;

/// What a process did on one scheduling step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// Made progress; schedule it again.
    Ran,
    /// Needs a message `(src, tag)` that is not yet available. The
    /// scheduler parks the process until the message exists.
    BlockedOnRecv {
        /// Source the process is waiting on.
        src: ProcId,
        /// Tag the process is waiting on.
        tag: Tag,
    },
    /// The process has terminated normally.
    Done,
}

/// A process that can be driven by the [`Scheduler`] (simulated backend)
/// or by [`ThreadedRunner`](crate::ThreadedRunner) (one OS thread per
/// processor).
///
/// The process is called with a view of the machine fabric and its own
/// processor id; it performs some bounded amount of work (typically one
/// instruction), charging costs via [`Fabric::tick`] /
/// [`Fabric::send_ref`] / [`Fabric::try_recv_into`], and reports a
/// [`Step`]. [`step`](Process::step) is the only required method.
///
/// # Errors
///
/// Implementations report internal faults (type errors, I-structure
/// violations, …) as [`MachineError::ProcessFault`]; the scheduler aborts
/// the run on the first fault.
pub trait Process {
    /// Execute one step on processor `me`.
    fn step(&mut self, fabric: &mut dyn Fabric, me: ProcId) -> Result<Step, MachineError>;

    /// Execute up to `max` steps (`max >= 1`) and return how many were
    /// executed and what the last one reported. The call must be
    /// indistinguishable from that many calls of [`step`](Process::step):
    /// every step but the last reported [`Step::Ran`], the batch ends at
    /// the first step that blocks, finishes or fails (a send to itself,
    /// which the fabric records for the driver, is a failure), and every
    /// charge is with the fabric before each of the batch's fabric
    /// operations and before the call returns (also with an error) — so
    /// logical clocks at every communication point, instruction counts
    /// and traces do not depend on how a run is cut into batches. What a
    /// batch may do is keep its compute charges to itself between those
    /// points and hand them over in one [`Fabric::tick_n`].
    ///
    /// The default is a batch of one `step`. The raw-fabric run loops
    /// (the [`Scheduler`]'s and the threaded backend's) call this with
    /// the rest of the quantum or step budget. The [`Scheduler`]'s
    /// reliable-delivery / checkpoint loop calls it too, with `max` cut
    /// down to the first step boundary at which it has something to do,
    /// or [`step_batch_until`](Process::step_batch_until) when that
    /// boundary depends on the clock (DESIGN §5c has the rules); the
    /// threaded backend's protocol shell still calls `step`.
    fn step_batch(
        &mut self,
        fabric: &mut dyn Fabric,
        me: ProcId,
        max: u64,
    ) -> Result<(u64, Step), MachineError> {
        let _ = max;
        Ok((1, self.step(fabric, me)?))
    }

    /// [`step_batch`](Process::step_batch) for a driver that watches the
    /// processor's clock between steps — checkpoint pacing waits for an
    /// op count *and* for logical time to pass. The same contract, and
    /// the batch also ends, reporting [`Step::Ran`],
    ///
    /// * right after a step that performed a fabric operation (a send,
    ///   a receive): what the clock reads after it is the fabric's to
    ///   know;
    /// * at the first step boundary where at least `min_ops` steps of
    ///   this call have run and the compute cycles they charge (as
    ///   handed to [`Fabric::tick_n`], before any slowdown) add up to at
    ///   least `min_cycles`.
    ///
    /// Ending sooner is always allowed; the default is a batch of one
    /// `step`.
    fn step_batch_until(
        &mut self,
        fabric: &mut dyn Fabric,
        me: ProcId,
        max: u64,
        min_ops: u64,
        min_cycles: u64,
    ) -> Result<(u64, Step), MachineError> {
        let _ = (max, min_ops, min_cycles);
        Ok((1, self.step(fabric, me)?))
    }

    /// Serialize the process's complete execution state — program
    /// counter, registers, memory, everything [`restore`](Process::restore)
    /// needs to resume as if nothing happened — for a
    /// [`Checkpoint`](crate::Checkpoint). `None` (the default) means the
    /// process cannot be checkpointed, and requesting crash recovery for
    /// it fails with [`MachineError::CheckpointUnsupported`].
    fn snapshot(&self) -> Option<Vec<u8>> {
        None
    }

    /// Reinstate state captured by [`snapshot`](Process::snapshot),
    /// returning `false` if the image is unusable. The default restores
    /// nothing.
    fn restore(&mut self, state: &[u8]) -> bool {
        let _ = state;
        false
    }
}

/// Drives a set of [`Process`]es over a [`Machine`] until all finish,
/// under a borrowed [`RunConfig`].
///
/// Scheduling is round-robin: each live process runs until it blocks on a
/// receive whose message has not been sent yet, terminates, or exhausts a
/// per-turn quantum. Because message *content* visible to a process depends
/// only on FIFO order within typed channels (never on global interleaving),
/// results and logical-clock times are independent of the quantum; the
/// quantum exists only to bound memory growth of in-flight traffic.
#[derive(Debug, Clone, Copy)]
pub struct Scheduler<'a> {
    config: &'a RunConfig,
}

impl Scheduler<'static> {
    /// A scheduler under the default [`RunConfig`]: raw fabric, a quantum
    /// of 4096 steps per turn, no step budget.
    pub fn new() -> Self {
        Scheduler { config: &DEFAULT }
    }
}

impl<'a> Scheduler<'a> {
    /// A scheduler under `config`. [`RunConfig::backend`] and
    /// [`RunConfig::ring_words`] mean nothing here.
    pub fn with_config(config: &'a RunConfig) -> Self {
        Scheduler { config }
    }

    /// Run `processes[p]` on processor `p` until every process is done.
    ///
    /// The configuration is validated against the machine, and what it
    /// sets of the machine's own state (slowdowns, trace cap, metrics
    /// mode) is installed on `machine`. Then
    /// [`RunConfig::protocol`] picks the loop. On the raw fabric
    /// processes talk to `machine` directly. Under the reliable-delivery
    /// protocol every program send is sequence-numbered and retransmitted
    /// on a logical-clock timeout until acknowledged, every program
    /// receive is deduplicated and reordered back into sequence, and
    /// [`RunConfig::faults`] decides which frames the transport
    /// mistreats (acks included — they travel through the same faulty
    /// fabric under [`ack_tag`](crate::ack_tag)).
    ///
    /// With [`RunConfig::checkpoints`] set, every processor's complete
    /// state (process image, reliable-delivery windows, logical counters)
    /// is checkpointed at the configured charged-op interval, and a
    /// processor the plan crashes is restarted from its last
    /// [`Checkpoint`](crate::Checkpoint) — the reliable layer's
    /// retransmissions replay the lost suffix and the peers' duplicate
    /// suppression makes the recovery transparent. In independent mode
    /// (the default) only the crashed processor rolls back: receivers
    /// advertise *lagged* acks (the position of their last checkpoint),
    /// so peers' retransmission windows always hold the replay suffix. In
    /// [`coordinated`](crate::CheckpointCfg::coordinated) mode all
    /// processors snapshot at one scheduler round boundary and all roll
    /// back together, with in-flight traffic discarded and regenerated by
    /// deterministic re-execution.
    ///
    /// Everything stays deterministic: fault decisions are pure functions
    /// of the plan, and retransmission timers and the reboot delay run in
    /// logical time, so identical inputs give identical outputs, clocks,
    /// and [`FaultReport`](crate::FaultReport)s run after run, crashes and
    /// all.
    ///
    /// # Errors
    ///
    /// * [`MachineError::InvalidConfig`] if the configuration does not
    ///   fit the machine;
    /// * [`MachineError::Deadlock`] if every unfinished process is blocked
    ///   on a receive that no pending message satisfies;
    /// * [`MachineError::StepBudgetExceeded`] if the budget runs out;
    /// * any [`MachineError::ProcessFault`] raised by a process;
    /// * under the protocol, [`MachineError::RetriesExhausted`] when a
    ///   frame is retransmitted `max_retries` times without an
    ///   acknowledgement, [`MachineError::CheckpointUnsupported`] when a
    ///   process cannot snapshot, and [`MachineError::Crashed`] when a
    ///   processor crashes with no checkpointing configured — whether
    ///   everyone else finishes or its peers then exhaust their retries,
    ///   deadlock or fail otherwise: the crash is the root cause, ranked
    ///   as on the threaded backend
    ///   ([`ThreadedRunner::run`](crate::ThreadedRunner::run)).
    ///
    /// # Panics
    ///
    /// Panics if `processes.len() != machine.n_procs()`.
    pub fn run(
        &self,
        machine: &mut Machine,
        processes: &mut [&mut dyn Process],
    ) -> Result<RunReport, MachineError> {
        assert_eq!(
            processes.len(),
            machine.n_procs(),
            "one process per processor"
        );
        self.config.validate(machine.n_procs(), false)?;
        machine.configure(self.config);
        match self.config.protocol() {
            None => self.run_raw(machine, processes),
            Some(rel) => self.run_protocol(machine, processes, rel),
        }
    }

    /// The raw-fabric loop.
    fn run_raw(
        &self,
        machine: &mut Machine,
        processes: &mut [&mut dyn Process],
    ) -> Result<RunReport, MachineError> {
        let (turn, step_budget) = (self.config.quantum, self.config.step_budget);
        let n = processes.len();
        let mut done = vec![false; n];
        let mut blocked: Vec<Option<(ProcId, Tag)>> = vec![None; n];
        let mut steps: u64 = 0;
        loop {
            let mut progressed = false;
            for p in 0..n {
                if done[p] {
                    continue;
                }
                let me = ProcId(p);
                // Skip a parked process whose message still has not arrived.
                if let Some((src, tag)) = blocked[p] {
                    if !machine.network.has_pending(src, me, tag) {
                        continue;
                    }
                    blocked[p] = None;
                }
                let mut quantum = turn;
                loop {
                    if steps >= step_budget {
                        return Err(MachineError::StepBudgetExceeded {
                            budget: step_budget,
                        });
                    }
                    let max = quantum.min(step_budget - steps);
                    let (ran, step) = processes[p].step_batch(&mut *machine, me, max)?;
                    steps += ran;
                    if machine.cpus[p].take_self_send() {
                        return Err(MachineError::SelfSend { proc: me });
                    }
                    // Only steps that ran use up the quantum: all of the
                    // batch, or all but a last one that blocked.
                    match step {
                        Step::Ran => {
                            progressed = true;
                            quantum -= ran;
                            if quantum == 0 {
                                break;
                            }
                        }
                        Step::BlockedOnRecv { src, tag } => {
                            progressed |= ran > 1;
                            quantum -= ran - 1;
                            if machine.network.has_pending(src, me, tag) {
                                // The message exists; let the process retry
                                // immediately (the recv will now succeed).
                                progressed = true;
                                continue;
                            }
                            blocked[p] = Some((src, tag));
                            break;
                        }
                        Step::Done => {
                            done[p] = true;
                            machine.finish(me);
                            progressed = true;
                            break;
                        }
                    }
                }
            }
            if done.iter().all(|&d| d) {
                break;
            }
            if !progressed {
                let waiting = blocked
                    .iter()
                    .enumerate()
                    .filter(|(p, _)| !done[*p])
                    .filter_map(|(p, b)| b.map(|(src, tag)| (ProcId(p), src, tag)))
                    .collect();
                return Err(MachineError::Deadlock { waiting });
            }
        }
        Ok(machine.report(steps, machine.network.ledger()))
    }

    /// The reliable-delivery / checkpoint loop, under retransmission
    /// policy `cfg`.
    fn run_protocol(
        &self,
        machine: &mut Machine,
        processes: &mut [&mut dyn Process],
        cfg: RelConfig,
    ) -> Result<RunReport, MachineError> {
        let (turn, step_budget) = (self.config.quantum, self.config.step_budget);
        let ckpt = self.config.checkpoints;
        let n = processes.len();
        let mut fault = FaultState::new(&self.config.faults);
        let ack_cost = ack_cost(machine.cost_model());
        let mut eps: Vec<RelEndpoint<Time>> = (0..n)
            .map(|p| RelEndpoint::new(ProcId(p), cfg, ack_cost, ckpt))
            .collect();
        let independent = ckpt.is_some_and(|c| !c.coordinated);
        let mut done = vec![false; n];
        let mut dead = vec![false; n];
        let mut first_crash: Option<(ProcId, u64)> = None;
        let mut last_block: Vec<Option<(ProcId, Tag)>> = vec![None; n];
        let mut steps: u64 = 0;
        let mut solicit_attempts: u32 = 0;
        // Minimum op counter at the last global snapshot (coordinated mode).
        let mut global_last_op: u64 = 0;
        if ckpt.is_some() {
            // Initial checkpoint of every processor, so a restore target
            // exists whatever the crash point. Free: the launch image
            // exists before the clocks start.
            for (p, ep) in eps.iter_mut().enumerate() {
                let mut w = SimWire::new(machine, &mut fault, &done, p);
                ep.checkpoint(&mut w, &*processes[p], 0, false)?;
            }
        }
        loop {
            // Coordinated snapshots happen between rounds: every
            // processor is at a step boundary, so the cut is barrier
            // aligned by construction.
            if let Some(c) = ckpt.filter(|c| c.coordinated) {
                let min_ops = (0..n).map(|q| fault.ops(ProcId(q))).min().unwrap_or(0);
                if min_ops >= global_last_op + c.interval_ops {
                    for (q, ep) in eps.iter_mut().enumerate() {
                        let at_op = fault.ops(ProcId(q));
                        let mut w = SimWire::new(machine, &mut fault, &done, q);
                        ep.checkpoint(&mut w, &*processes[q], at_op, true)?;
                    }
                    global_last_op = min_ops;
                }
            }
            let round_activity = activity(&eps);
            let mut progressed = false;
            let mut global_rollback: Option<(ProcId, u64)> = None;
            'round: for p in 0..n {
                let me = ProcId(p);
                if dead[p] {
                    continue;
                }
                if done[p] {
                    // A finished process still owes the protocol: ingest
                    // late frames, re-ack retransmissions, retire acks,
                    // and service its own retransmission timers.
                    let mut w = SimWire::new(machine, &mut fault, &done, p);
                    eps[p].pump_acks(&mut w);
                    eps[p].pump_all_data(&mut w);
                    eps[p].service_timers(&mut w);
                    if let Some(e) = eps[p].take_fatal() {
                        return Err(rooted(first_crash, e));
                    }
                    continue;
                }
                let mut quantum = turn;
                loop {
                    if steps >= step_budget {
                        let e = MachineError::StepBudgetExceeded {
                            budget: step_budget,
                        };
                        return Err(rooted(first_crash, e));
                    }
                    // Run to the first step boundary at which this loop
                    // acts: the end of the quantum or the budget, a crash
                    // that can fire, a checkpoint that falls due. The
                    // last waits on the clock as well as the op count, so
                    // the process is told both gaps and stops wherever
                    // the clock moves by more than its own instructions'
                    // costs — a fabric operation, a stall.
                    let gate = eps[p].checkpoint_gap(fault.ops(me), machine.clock(me));
                    let mut max = quantum
                        .min(step_budget - steps)
                        .min(fault.ops_until_crash(me));
                    if gate.is_some() {
                        max = max.min(fault.ops_until_stall(me));
                    }
                    let batch = {
                        let mut view = ReliableView {
                            m: &mut *machine,
                            fault: &mut fault,
                            eps: &mut eps,
                            done: &done,
                        };
                        match gate {
                            Some((ops, cycles)) => {
                                let cycles = cycles.div_ceil(self.config.slowdown(p));
                                processes[p].step_batch_until(&mut view, me, max, ops, cycles)
                            }
                            None => processes[p].step_batch(&mut view, me, max),
                        }
                    };
                    // A protocol failure was raised inside one of the
                    // batch's fabric operations: it came first.
                    if let Some(e) = eps[p].take_fatal() {
                        return Err(rooted(first_crash, e));
                    }
                    let (ran, step) = batch.map_err(|e| rooted(first_crash, e))?;
                    steps += ran;
                    if machine.cpus[p].take_self_send() {
                        return Err(rooted(first_crash, MachineError::SelfSend { proc: me }));
                    }
                    // Only steps that ran use up the quantum: all of the
                    // batch, or all but a last one that blocked.
                    match step {
                        Step::Ran => {
                            progressed = true;
                            last_block[p] = None;
                            // Step boundary: checkpoint first (so a crash
                            // landing on the same boundary restores with a
                            // zero-op replay), then roll the crash dice.
                            if independent {
                                let ops = fault.ops(me);
                                if eps[p].checkpoint_due(ops, machine.clock(me)) {
                                    let mut w = SimWire::new(machine, &mut fault, &done, p);
                                    eps[p].checkpoint(&mut w, &*processes[p], ops, true)?;
                                }
                            }
                            if let Some(crash_op) = fault.take_crash(me) {
                                let (cpu, obs) = machine.cpu(me);
                                cpu.record(obs, EventKind::Crash { at_op: crash_op });
                                match ckpt {
                                    Some(c) if c.coordinated => {
                                        global_rollback = Some((me, crash_op));
                                        break 'round;
                                    }
                                    Some(c) => {
                                        // Independent mode: roll `me` — and
                                        // only `me` — back. Frames in flight
                                        // toward the dead incarnation are
                                        // stale; the reliable layer
                                        // regenerates anything that matters.
                                        cpu.reboot(c.reboot_cycles);
                                        machine.network.discard_to(me);
                                        let mut w = SimWire::new(machine, &mut fault, &done, p);
                                        eps[p].restore(
                                            &mut w,
                                            &mut *processes[p],
                                            crash_op,
                                            true,
                                        )?;
                                        break;
                                    }
                                    None => {
                                        // No checkpoint to restore from: the
                                        // processor is simply gone. Its own
                                        // windows are dropped so termination
                                        // ignores it; peers retransmitting to
                                        // it exhaust their retries and name
                                        // it as the suspected-dead peer.
                                        dead[p] = true;
                                        first_crash.get_or_insert((me, crash_op));
                                        eps[p].drop_windows();
                                        break;
                                    }
                                }
                            }
                            quantum -= ran;
                            if quantum == 0 {
                                break;
                            }
                        }
                        Step::BlockedOnRecv { src, tag } => {
                            progressed |= ran > 1;
                            quantum -= ran - 1;
                            last_block[p] = Some((src, tag));
                            // A blocked processor's NIC still services every
                            // other stream — ingest and ack cross-traffic so
                            // peers sending to us don't exhaust their retries
                            // against a processor that is merely waiting.
                            let mut w = SimWire::new(machine, &mut fault, &done, p);
                            eps[p].pump_all_data(&mut w);
                            // The pump may have just completed the stream;
                            // retry immediately if so. No parking otherwise:
                            // the next frame may need a retransmission that
                            // only this round's timer service can trigger.
                            if eps[p].has_ready(src, tag) {
                                progressed = true;
                                continue;
                            }
                            eps[p].keepalive(&mut w, src, tag, false);
                            break;
                        }
                        Step::Done => {
                            done[p] = true;
                            machine.finish(me);
                            progressed = true;
                            if independent {
                                let ops = fault.ops(me);
                                let mut w = SimWire::new(machine, &mut fault, &done, p);
                                eps[p].finish(&mut w, &*processes[p], ops)?;
                            }
                            break;
                        }
                    }
                }
            }
            if let Some((victim, _)) = global_rollback {
                // Coordinated mode: roll *every* processor back to the
                // last barrier-aligned cut, discard all in-flight
                // traffic, and let deterministic re-execution regenerate
                // it bit-identically. Survivors' clocks are not rolled
                // back — the re-executed work is charged again, which is
                // the honest cost of coordinated recovery.
                let c = ckpt.expect("a rollback implies checkpointing");
                machine.network.discard_all();
                machine.cpus[victim.0].reboot(c.reboot_cycles);
                for (q, ep) in eps.iter_mut().enumerate() {
                    let ops = fault.ops(ProcId(q));
                    let mut w = SimWire::new(machine, &mut fault, &done, q);
                    ep.restore(&mut w, &mut *processes[q], ops, q == victim.0)?;
                }
                done.fill(false);
                continue;
            }
            if (0..n).all(|p| done[p] || dead[p]) && eps.iter().all(RelEndpoint::all_acked) {
                break;
            }
            if progressed {
                solicit_attempts = 0;
            }
            if !progressed && activity(&eps) == round_activity {
                // Nothing moved on its own. If a retransmission timer is
                // set, simulated time jumps to the earliest deadline — the
                // discrete-event "wait for the timer to fire".
                // (Of equal deadlines the lowest processor fires first.)
                let earliest = eps
                    .iter()
                    .enumerate()
                    .filter_map(|(p, ep)| Some((p, ep.earliest_deadline()?)))
                    .min_by_key(|&(_, t)| t);
                if let Some((p, t)) = earliest {
                    machine.cpus[p].advance_to(t);
                    eps[p].service_timers(&mut SimWire::new(machine, &mut fault, &done, p));
                    if let Some(e) = eps[p].take_fatal() {
                        return Err(rooted(first_crash, e));
                    }
                    if activity(&eps) != round_activity {
                        continue;
                    }
                }
                // With no timer armed, every window lies entirely below
                // its delivered floor; the ones held for finished peers
                // will never be acked if the final live ack was dropped.
                let mut retired = false;
                for (p, ep) in eps.iter_mut().enumerate() {
                    retired |= ep.retire_done_peers(&SimWire::new(machine, &mut fault, &done, p));
                }
                if retired {
                    continue;
                }
                // Replay solicitation of last resort: with every timer
                // suppressed by delivered floors, a blocked checkpoint-mode
                // receiver re-advertises its floors before we give up. The
                // attempt bound outlasts any bounded fault budget while a
                // genuine cycle still terminates as a deadlock.
                if solicit_attempts < 16 {
                    solicit_attempts += 1;
                    let mut fired = false;
                    for (p, b) in last_block.iter().enumerate() {
                        if let (false, false, Some((src, tag))) = (done[p], dead[p], b) {
                            let mut w = SimWire::new(machine, &mut fault, &done, p);
                            fired |= eps[p].keepalive(&mut w, *src, *tag, true);
                        }
                    }
                    if fired {
                        continue;
                    }
                }
                let waiting = last_block
                    .iter()
                    .enumerate()
                    .filter(|(p, _)| !done[*p] && !dead[*p])
                    .filter_map(|(p, b)| b.map(|(src, tag)| (ProcId(p), src, tag)))
                    .collect();
                return Err(rooted(first_crash, MachineError::Deadlock { waiting }));
            }
        }
        if let Some((proc, at_op)) = first_crash {
            // Everyone else finished cleanly, but a processor died
            // unrecoverably along the way — the run is not a success.
            return Err(MachineError::Crashed { proc, at_op });
        }
        let leftover = machine.network.in_flight();
        let ledger = Ledger::protocol(eps.iter(), fault.counts(), leftover, ckpt.is_some());
        Ok(machine.report(steps, ledger))
    }
}

/// The error a failed protocol run reports: a processor that crashed
/// with nothing to restore from is the root cause of whatever its peers
/// ran into after it ([`MachineError::or_root`], the threaded backend's
/// rule too).
fn rooted(first_crash: Option<(ProcId, u64)>, e: MachineError) -> MachineError {
    match first_crash {
        Some((proc, at_op)) => MachineError::Crashed { proc, at_op }.or_root(e),
        None => e,
    }
}

/// Protocol events so far, machine-wide: what the no-progress detector
/// compares across a scheduling round.
fn activity(eps: &[RelEndpoint<Time>]) -> u64 {
    eps.iter().map(RelEndpoint::activity).sum()
}

/// The simulator as the protocol core's [`Wire`]: processor `me`'s
/// logical clock is the deadline clock, frames move through the
/// machine's network under the run's one [`FaultState`], and a peer's
/// program is done when the scheduler has seen its `Step::Done`.
struct SimWire<'a, 'p> {
    m: &'a mut Machine,
    fault: &'a mut FaultState<'p>,
    done: &'a [bool],
    me: ProcId,
}

impl<'a, 'p> SimWire<'a, 'p> {
    fn new(m: &'a mut Machine, fault: &'a mut FaultState<'p>, done: &'a [bool], me: usize) -> Self {
        SimWire {
            m,
            fault,
            done,
            me: ProcId(me),
        }
    }
}

impl Wire<Time> for SimWire<'_, '_> {
    fn now(&self) -> Time {
        self.m.clock(self.me)
    }

    fn clock(&self) -> Time {
        self.m.clock(self.me)
    }

    fn transmit(&mut self, dst: ProcId, tag: Tag, frame: &[Word]) {
        self.fault.dispatch(self.m, self.me, dst, tag, frame);
    }

    fn take(&mut self, src: ProcId, tag: Tag) -> Option<(Time, Vec<Word>)> {
        let msg = self.m.network.take(src, self.me, tag)?;
        Some((msg.arrives_at, msg.payload))
    }

    fn incoming(&self, out: &mut Vec<(ProcId, Tag)>) {
        // Sorted, so the order streams are discovered in — and with it
        // every protocol clock — does not depend on channel-table order.
        let from = out.len();
        let waiting = self.m.network.waiting_for(self.me);
        out.extend(waiting.filter(|&(_, tag)| !is_ack_tag(tag)));
        out[from..].sort_unstable();
    }

    fn recycle(&mut self, buf: Vec<Word>) {
        self.m.network.recycle(buf);
    }

    fn busy(&mut self, cycles: u64) {
        let (cpu, obs) = self.m.cpu(self.me);
        cpu.busy(obs, cycles);
    }

    fn record(&mut self, event: EventKind) {
        let (cpu, obs) = self.m.cpu(self.me);
        cpu.record(obs, event);
    }

    fn metrics(&self) -> &MetricsRegistry {
        &self.m.obs.metrics
    }

    fn peer_done(&self, peer: ProcId) -> bool {
        self.done[peer.0]
    }
}

/// The fabric a process sees on the protocol loop: the shell around the
/// protocol core. Sends are framed, tracked, and
/// dispatched through the fault plan; receives pop reassembled in-order
/// payloads and charge the receiver exactly as a vanilla receive would.
/// Every program operation first lets the NIC catch up: pump acks, then
/// service timers, then (on a receive) pump the stream being read.
struct ReliableView<'a, 'p> {
    m: &'a mut Machine,
    fault: &'a mut FaultState<'p>,
    eps: &'a mut [RelEndpoint<Time>],
    done: &'a [bool],
}

impl<'p> ReliableView<'_, 'p> {
    /// Processor `p`'s protocol core and the wire it runs on.
    fn split(&mut self, p: ProcId) -> (&mut RelEndpoint<Time>, SimWire<'_, 'p>) {
        let wire = SimWire::new(self.m, self.fault, self.done, p.0);
        (&mut self.eps[p.0], wire)
    }
}

impl Fabric for ReliableView<'_, '_> {
    fn n_procs(&self) -> usize {
        self.m.n_procs()
    }

    fn cost_model(&self) -> &CostModel {
        self.m.cost_model()
    }

    fn tick_n(&mut self, p: ProcId, cycles: u64, ops: u64) {
        let extra = self.fault.stall_cycles(p, ops);
        self.m.tick_n(p, cycles + extra, ops);
    }

    fn send_ref(&mut self, src: ProcId, dst: ProcId, tag: Tag, payload: &[Word]) {
        if src == dst {
            // Delegate so the self-send fault is recorded uniformly.
            self.m.send_ref(src, dst, tag, payload);
            return;
        }
        let (ep, mut wire) = self.split(src);
        ep.pump_acks(&mut wire);
        ep.service_timers(&mut wire);
        ep.send(&mut wire, dst, tag, payload);
    }

    fn try_recv_into(&mut self, dst: ProcId, src: ProcId, tag: Tag, out: &mut Vec<Word>) -> bool {
        let (ep, mut wire) = self.split(dst);
        ep.pump_acks(&mut wire);
        ep.service_timers(&mut wire);
        ep.pump_data(&mut wire, src, tag);
        let Some((arrives, frame)) = ep.pop(src, tag) else {
            return false;
        };
        out.clear();
        out.extend_from_slice(&frame[1..]);
        let (cpu, obs) = self.m.cpu(dst);
        cpu.recv(obs, src, tag, arrives, out.len());
        self.m.network.recycle(frame);
        true
    }

    fn metrics(&self) -> Option<&MetricsRegistry> {
        self.m.metrics()
    }
}

impl Default for Scheduler<'static> {
    fn default() -> Self {
        Scheduler::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::scripted::{Action, Scripted};

    fn run2(a: Vec<Action>, b: Vec<Action>, cost: CostModel) -> (RunReport, Machine) {
        let mut m = Machine::new(2, cost);
        let mut pa = Scripted::new(a);
        let mut pb = Scripted::new(b);
        let mut ps: Vec<&mut dyn Process> = vec![&mut pa, &mut pb];
        let report = Scheduler::new().run(&mut m, &mut ps).expect("run ok");
        (report, m)
    }

    #[test]
    fn ping_pong_completes() {
        let (report, _) = run2(
            vec![Action::Send(1, 0, vec![1]), Action::Recv(1, 1)],
            vec![Action::Recv(0, 0), Action::Send(0, 1, vec![2])],
            CostModel::ipsc2(),
        );
        assert_eq!(report.stats.network.messages, 2);
        assert_eq!(report.undelivered, 0);
    }

    #[test]
    fn receiver_first_order_still_completes() {
        // P0 blocks on a recv whose send happens later on P1.
        let (report, _) = run2(
            vec![Action::Recv(1, 0)],
            vec![Action::Compute(50), Action::Send(0, 0, vec![9])],
            CostModel::ipsc2(),
        );
        assert_eq!(report.stats.network.messages, 1);
    }

    #[test]
    fn cross_deadlock_detected() {
        let mut m = Machine::new(2, CostModel::zero());
        let mut pa = Scripted::new(vec![Action::Recv(1, 0)]);
        let mut pb = Scripted::new(vec![Action::Recv(0, 0)]);
        let mut ps: Vec<&mut dyn Process> = vec![&mut pa, &mut pb];
        let err = Scheduler::new().run(&mut m, &mut ps).unwrap_err();
        match err {
            MachineError::Deadlock { waiting } => assert_eq!(waiting.len(), 2),
            other => panic!("expected deadlock, got {other}"),
        }
    }

    #[test]
    fn makespan_reflects_critical_path() {
        let c = CostModel::ipsc2();
        let (report, _) = run2(
            vec![Action::Compute(500), Action::Send(1, 0, vec![1])],
            vec![Action::Recv(0, 0), Action::Compute(100)],
            c,
        );
        // Critical path: 500 compute + send + flight + recv + 100 compute.
        let expected = 500 + c.send_cost(1) + c.flight + c.recv_cost(1) + 100;
        assert_eq!(report.stats.makespan().0, expected);
    }

    #[test]
    fn step_budget_guards_runaway() {
        struct Forever;
        impl Process for Forever {
            fn step(&mut self, machine: &mut dyn Fabric, me: ProcId) -> Result<Step, MachineError> {
                machine.tick(me, 1);
                Ok(Step::Ran)
            }
        }
        let mut m = Machine::new(1, CostModel::zero());
        let mut fv = Forever;
        let mut ps: Vec<&mut dyn Process> = vec![&mut fv];
        let config = RunConfig {
            step_budget: 1000,
            ..RunConfig::default()
        };
        let err = Scheduler::with_config(&config)
            .run(&mut m, &mut ps)
            .unwrap_err();
        assert!(matches!(err, MachineError::StepBudgetExceeded { .. }));
    }

    #[test]
    fn self_send_surfaces_as_error() {
        let mut m = Machine::new(2, CostModel::zero());
        let mut pa = Scripted::new(vec![Action::Send(0, 0, vec![1])]);
        let mut pb = Scripted::new(vec![]);
        let mut ps: Vec<&mut dyn Process> = vec![&mut pa, &mut pb];
        let err = Scheduler::new().run(&mut m, &mut ps).unwrap_err();
        assert_eq!(err, MachineError::SelfSend { proc: ProcId(0) });
    }

    #[test]
    fn quantum_does_not_change_results() {
        let build = || {
            (
                vec![
                    Action::Compute(10),
                    Action::Send(1, 0, vec![1, 2]),
                    Action::Recv(1, 1),
                    Action::Compute(5),
                ],
                vec![
                    Action::Recv(0, 0),
                    Action::Compute(7),
                    Action::Send(0, 1, vec![3]),
                ],
            )
        };
        let mut results = Vec::new();
        for quantum in [1, 2, 3, 1000] {
            let (a, b) = build();
            let mut m = Machine::new(2, CostModel::ipsc2());
            let mut pa = Scripted::new(a);
            let mut pb = Scripted::new(b);
            let mut ps: Vec<&mut dyn Process> = vec![&mut pa, &mut pb];
            let config = RunConfig {
                quantum,
                ..RunConfig::default()
            };
            let report = Scheduler::with_config(&config)
                .run(&mut m, &mut ps)
                .unwrap();
            results.push((report.stats.makespan(), report.stats.network));
        }
        for w in results.windows(2) {
            assert_eq!(w[0], w[1]);
        }
    }
}

/// The batch contract of [`Process::step_batch`], on toy processes: a
/// process that only implements `step` gets batches of one, and a process
/// that keeps its compute charges to itself between fabric operations is
/// indistinguishable from one that ticks at every step.
#[cfg(test)]
mod batch_tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::scripted::{Action, Scripted};
    use crate::stats::MachineStats;
    use crate::trace::Event;
    use std::collections::BTreeMap;

    /// [`Scripted`] with a real `step_batch`: compute actions are summed
    /// locally and handed to the fabric in one `tick_n` before the next
    /// send or receive and before the batch returns.
    struct Batching(Scripted);

    impl Process for Batching {
        fn step(&mut self, fabric: &mut dyn Fabric, me: ProcId) -> Result<Step, MachineError> {
            self.0.step(fabric, me)
        }

        fn step_batch(
            &mut self,
            fabric: &mut dyn Fabric,
            me: ProcId,
            max: u64,
        ) -> Result<(u64, Step), MachineError> {
            let (mut cycles, mut ops, mut ran) = (0, 0, 0);
            let last = loop {
                ran += 1;
                let step = match self.0.next_action() {
                    Some(Action::Compute(c)) => {
                        cycles += *c;
                        ops += 1;
                        self.0.skip_action();
                        Step::Ran
                    }
                    _ => {
                        fabric.tick_n(me, cycles, ops);
                        (cycles, ops) = (0, 0);
                        self.0.step(fabric, me)?
                    }
                };
                if step != Step::Ran || ran == max {
                    break step;
                }
            };
            fabric.tick_n(me, cycles, ops);
            Ok((ran, last))
        }
    }

    /// A three-stage pipeline with compute between the messages, so
    /// every quantum cuts it somewhere else.
    fn pipeline() -> Vec<Vec<Action>> {
        let mut stages = vec![Vec::new(), Vec::new(), Vec::new()];
        for i in 0..6 {
            stages[0].extend([
                Action::Compute(3),
                Action::Compute(0),
                Action::Compute(4),
                Action::Send(1, 0, vec![i]),
            ]);
            stages[1].extend([
                Action::Recv(0, 0),
                Action::Compute(5),
                Action::Send(2, 1, vec![i, i]),
                Action::Compute(2),
            ]);
            stages[2].extend([Action::Compute(1), Action::Recv(1, 1), Action::Compute(9)]);
        }
        stages
    }

    /// Everything a report says, comparable.
    type Said = (
        MachineStats,
        u64,
        usize,
        BTreeMap<(ProcId, ProcId, Tag), u64>,
        pdc_metrics::MetricsSnapshot,
        Vec<Event>,
    );

    /// Run the pipeline fully observed on a heterogeneous machine, under
    /// `config`'s quantum and step budget.
    fn run_pipeline(config: &RunConfig, batching: bool) -> Result<Said, MachineError> {
        let config = &RunConfig {
            trace_cap: Some(4096),
            metrics: crate::config::MetricsMode::Full,
            slowdowns: vec![1, 2, 1],
            ..config.clone()
        };
        let mut m = Machine::new(3, CostModel::ipsc2());
        let mut stepping: Vec<Scripted> = pipeline().into_iter().map(Scripted::new).collect();
        let mut batched: Vec<Batching> = pipeline()
            .into_iter()
            .map(|s| Batching(Scripted::new(s)))
            .collect();
        let mut ps: Vec<&mut dyn Process> = if batching {
            batched.iter_mut().map(|p| p as &mut dyn Process).collect()
        } else {
            stepping.iter_mut().map(|p| p as &mut dyn Process).collect()
        };
        let r = Scheduler::with_config(config).run(&mut m, &mut ps)?;
        assert_eq!(r.trace.dropped(), 0);
        Ok((
            r.stats,
            r.steps,
            r.undelivered,
            r.pair_messages,
            r.metrics,
            r.trace.events().cloned().collect(),
        ))
    }

    #[test]
    fn default_batch_is_one_step_whatever_the_limit() {
        let mut m = Machine::new(1, CostModel::ipsc2());
        let mut p = Scripted::new(vec![Action::Compute(2), Action::Compute(3)]);
        assert_eq!(p.step_batch(&mut m, ProcId(0), 100), Ok((1, Step::Ran)));
        assert_eq!(m.clock(ProcId(0)), Time(2));
        assert_eq!(p.step_batch(&mut m, ProcId(0), 100), Ok((1, Step::Ran)));
        assert_eq!(p.step_batch(&mut m, ProcId(0), 100), Ok((1, Step::Done)));
    }

    /// The protocol shell stalls a processor at given ops, wherever in a
    /// batch they fall.
    #[test]
    fn tick_n_charges_a_stall_at_its_op() {
        let plan = crate::fault::FaultPlan::seeded(0).with_stall(ProcId(0), 1, 50);
        let run = |batched: bool| {
            let mut m = Machine::new(2, CostModel::ipsc2());
            m.configure(&RunConfig {
                trace_cap: Some(16),
                metrics: crate::config::MetricsMode::Full,
                slowdowns: vec![3, 1],
                ..RunConfig::default()
            });
            let mut fault = FaultState::new(&plan);
            let mut eps: Vec<RelEndpoint<Time>> = (0..2)
                .map(|p| RelEndpoint::new(ProcId(p), RelConfig::default(), 1, None))
                .collect();
            let mut view = ReliableView {
                m: &mut m,
                fault: &mut fault,
                eps: &mut eps,
                done: &[false; 2],
            };
            if batched {
                view.tick_n(ProcId(0), 7, 3);
                view.tick_n(ProcId(0), 0, 0);
            } else {
                view.tick(ProcId(0), 3);
                view.tick(ProcId(0), 0);
                view.tick(ProcId(0), 4);
            }
            assert_eq!(fault.counts().stalls, 1);
            let report = m.report(0, Ledger::default());
            let events: Vec<Event> = report.trace.events().cloned().collect();
            (report.stats, report.metrics, events)
        };
        let (stepped, batched) = (run(false), run(true));
        assert_eq!(batched, stepped);
        assert_eq!(stepped.0.procs[0].ops, 3);
        assert_eq!(stepped.0.clocks[0], Time((7 + 50) * 3));
    }

    #[test]
    fn batches_are_indistinguishable_from_steps_at_any_quantum() {
        for quantum in [1, 7, 4096] {
            let config = RunConfig {
                quantum,
                ..RunConfig::default()
            };
            let stepped = run_pipeline(&config, false).unwrap();
            let batched = run_pipeline(&config, true).unwrap();
            assert_eq!(batched, stepped, "quantum {quantum}");
        }
    }

    #[test]
    fn step_budget_runs_out_at_the_same_step_either_way() {
        let total = run_pipeline(&RunConfig::default(), false).unwrap().1;
        for quantum in [1, 7, 4096] {
            for budget in [1, 2, total / 2, total - 1] {
                let config = RunConfig {
                    quantum,
                    step_budget: budget,
                    ..RunConfig::default()
                };
                for batching in [false, true] {
                    assert_eq!(
                        run_pipeline(&config, batching).unwrap_err(),
                        MachineError::StepBudgetExceeded { budget },
                        "quantum {quantum}, batching {batching}"
                    );
                }
            }
            // The whole budget is usable: not one step is lost to batching.
            let mut config = RunConfig {
                quantum,
                ..RunConfig::default()
            };
            let needed = run_pipeline(&config, true).unwrap().1;
            config.step_budget = needed;
            assert_eq!(run_pipeline(&config, true).unwrap().1, needed);
        }
    }
}

#[cfg(test)]
mod faulty_tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::fault::FaultPlan;
    use crate::scripted::{Action, Scripted};

    /// A 10-message stream 0 → 1 plus an unrelated reply, exercising
    /// FIFO recovery end to end.
    pub(super) fn stream_scripts() -> (Vec<Action>, Vec<Action>) {
        let mut a = Vec::new();
        let mut b = Vec::new();
        for i in 0..10 {
            a.push(Action::Send(1, 0, vec![i]));
            a.push(Action::Compute(10));
            b.push(Action::Recv(0, 0));
        }
        a.push(Action::Recv(1, 1));
        b.push(Action::Send(0, 1, vec![99]));
        (a, b)
    }

    fn run_reliable2(
        a: Vec<Action>,
        b: Vec<Action>,
        plan: &FaultPlan,
        cfg: RelConfig,
    ) -> Result<(RunReport, Vec<Vec<Word>>), MachineError> {
        let mut m = Machine::new(2, CostModel::ipsc2());
        let mut pa = Scripted::new(a);
        let mut pb = Scripted::new(b);
        let mut ps: Vec<&mut dyn Process> = vec![&mut pa, &mut pb];
        let config = RunConfig {
            faults: plan.clone(),
            reliable: Some(cfg),
            ..RunConfig::default()
        };
        let report = Scheduler::with_config(&config).run(&mut m, &mut ps)?;
        Ok((report, pb.received))
    }

    #[test]
    fn empty_plan_delivers_in_order_with_quiet_report() {
        let (a, b) = stream_scripts();
        let (report, received) =
            run_reliable2(a, b, &FaultPlan::none(), RelConfig::default()).unwrap();
        let expected: Vec<Vec<Word>> = (0..10).map(|i| vec![i]).collect();
        assert_eq!(received, expected);
        assert_eq!(report.undelivered, 0);
        assert!(report.pending.is_empty());
        let fr = report.fault.expect("reliable run carries a report");
        assert_eq!(fr.injected.total(), 0);
        assert_eq!(fr.retransmits, 0);
        assert_eq!(fr.dup_frames_dropped, 0);
        assert_eq!(fr.max_gap, 0);
        // Logical pair counts see the program's messages, not the acks.
        assert_eq!(
            report.pair_messages.get(&(ProcId(0), ProcId(1), Tag(0))),
            Some(&10)
        );
        assert_eq!(report.pair_messages.len(), 2);
    }

    #[test]
    fn lossy_plan_recovers_exactly_once_in_order() {
        let plan = FaultPlan::seeded(7)
            .with_drops(250)
            .with_dups(150)
            .with_delays(100, 5_000)
            .with_reorders(100)
            .with_fault_budget(6);
        let (a, b) = stream_scripts();
        let (report, received) = run_reliable2(a, b, &plan, RelConfig::default()).unwrap();
        let expected: Vec<Vec<Word>> = (0..10).map(|i| vec![i]).collect();
        assert_eq!(received, expected, "exactly-once, in-order delivery");
        assert_eq!(report.undelivered, 0);
        let fr = report.fault.expect("reliable run carries a report");
        assert!(fr.injected.total() > 0, "the plan actually injected faults");
        assert!(
            fr.retransmits > 0 || fr.injected.drops == 0,
            "drops force retransmissions"
        );
    }

    #[test]
    fn faulty_runs_are_reproducible() {
        let plan = FaultPlan::seeded(21)
            .with_drops(300)
            .with_dups(200)
            .with_fault_budget(8);
        let run = || {
            let (a, b) = stream_scripts();
            let (report, received) = run_reliable2(a, b, &plan, RelConfig::default()).unwrap();
            (
                received,
                report.stats.makespan(),
                report.fault.unwrap(),
                report.pair_messages,
            )
        };
        assert_eq!(run(), run(), "logical time makes faulty runs deterministic");
    }

    #[test]
    fn stalls_slow_one_processor() {
        let quiet = FaultPlan::none();
        let stalled = FaultPlan::seeded(0).with_stall(ProcId(0), 2, 1_000_000);
        let (a, b) = stream_scripts();
        let (base, _) = run_reliable2(a, b, &quiet, RelConfig::default()).unwrap();
        let (a, b) = stream_scripts();
        let (slow, received) = run_reliable2(a, b, &stalled, RelConfig::default()).unwrap();
        let expected: Vec<Vec<Word>> = (0..10).map(|i| vec![i]).collect();
        assert_eq!(received, expected);
        assert_eq!(slow.fault.unwrap().injected.stall_cycles, 1_000_000);
        assert!(
            slow.stats.makespan().0 >= base.stats.makespan().0 + 1_000_000,
            "the stall is on the critical path"
        );
    }

    #[test]
    fn black_hole_exhausts_retries_and_names_the_stream() {
        let plan = FaultPlan::seeded(0).with_black_hole(ProcId(0), ProcId(1), Tag(0));
        let cfg = RelConfig {
            rto_cycles: 500,
            max_retries: 3,
            ..RelConfig::default()
        };
        let err = run_reliable2(
            vec![Action::Send(1, 0, vec![1])],
            vec![Action::Recv(0, 0)],
            &plan,
            cfg,
        )
        .unwrap_err();
        assert_eq!(
            err,
            MachineError::RetriesExhausted {
                proc: ProcId(0),
                peer: ProcId(1),
                tag: Tag(0),
                retries: 3,
                last_acked: 0,
            }
        );
    }

    #[test]
    fn cyclic_deadlock_still_detected_under_reliability() {
        let err = run_reliable2(
            vec![Action::Recv(1, 0)],
            vec![Action::Recv(0, 0)],
            &FaultPlan::none(),
            RelConfig::default(),
        )
        .unwrap_err();
        match err {
            MachineError::Deadlock { waiting } => assert_eq!(waiting.len(), 2),
            other => panic!("expected deadlock, got {other}"),
        }
    }

    #[test]
    fn self_send_surfaces_under_reliability() {
        let err = run_reliable2(
            vec![Action::Send(0, 0, vec![1])],
            vec![],
            &FaultPlan::none(),
            RelConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err, MachineError::SelfSend { proc: ProcId(0) });
    }
}

#[cfg(test)]
mod recovery_tests {
    use super::faulty_tests::stream_scripts;
    use super::*;
    use crate::checkpoint::CheckpointCfg;
    use crate::cost::CostModel;
    use crate::fault::FaultPlan;
    use crate::scripted::{Action, Scripted};

    type Received = Vec<Vec<Word>>;

    fn run_rec2(
        a: Vec<Action>,
        b: Vec<Action>,
        plan: &FaultPlan,
        cfg: RelConfig,
        ckpt: Option<CheckpointCfg>,
    ) -> Result<(RunReport, Received, Received), MachineError> {
        let mut m = Machine::new(2, CostModel::ipsc2());
        let mut pa = Scripted::new(a);
        let mut pb = Scripted::new(b);
        let mut ps: Vec<&mut dyn Process> = vec![&mut pa, &mut pb];
        let config = RunConfig {
            faults: plan.clone(),
            reliable: Some(cfg),
            checkpoints: ckpt,
            ..RunConfig::default()
        };
        let report = Scheduler::with_config(&config).run(&mut m, &mut ps)?;
        Ok((report, pa.received, pb.received))
    }

    fn expected_stream() -> Vec<Vec<Word>> {
        (0..10).map(|i| vec![i]).collect()
    }

    #[test]
    fn sender_crash_recovery_is_transparent() {
        let (a, b) = stream_scripts();
        let (clean, _, clean_recv) =
            run_rec2(a, b, &FaultPlan::none(), RelConfig::default(), None).unwrap();
        let plan = FaultPlan::seeded(3).with_crash(ProcId(0), 5);
        // Amortized pacing off: this test pins exact checkpoint op
        // boundaries (crash at 5 must restore from the op-4 snapshot).
        let ckpt = CheckpointCfg::every(2)
            .with_amortization(0)
            .with_reboot(5_000, std::time::Duration::from_millis(1));
        let (a, b) = stream_scripts();
        let (report, reply, received) =
            run_rec2(a, b, &plan, RelConfig::default(), Some(ckpt)).unwrap();
        assert_eq!(
            received, clean_recv,
            "recovered output == fault-free output"
        );
        assert_eq!(reply, vec![vec![99]]);
        assert_eq!(report.pair_messages, clean.pair_messages);
        assert_eq!(report.undelivered, 0);
        let rec = report.recovery.expect("checkpointed run carries a report");
        assert_eq!(rec.crashes_survived, 1);
        assert!(rec.checkpoints_taken >= 3, "{rec:?}");
        assert_eq!(rec.replayed_ops, 1, "crash at op 5, checkpoint at op 4");
        assert!(rec.recovery_cycles >= 5_000);
        assert_eq!(report.fault.unwrap().injected.crashes, 1);
    }

    #[test]
    fn receiver_crash_replays_the_lost_suffix() {
        let plan = FaultPlan::seeded(0).with_crash(ProcId(1), 0);
        let ckpt = CheckpointCfg::every(4);
        let (a, b) = stream_scripts();
        let (report, reply, received) =
            run_rec2(a, b, &plan, RelConfig::default(), Some(ckpt)).unwrap();
        assert_eq!(received, expected_stream(), "exactly-once after replay");
        assert_eq!(reply, vec![vec![99]]);
        let rec = report.recovery.unwrap();
        assert_eq!(rec.crashes_survived, 1);
    }

    #[test]
    fn recovery_is_deterministic() {
        let run = || {
            let plan = FaultPlan::seeded(11)
                .with_crash(ProcId(0), 5)
                .with_drops(100)
                .with_fault_budget(2);
            let ckpt = CheckpointCfg::every(2);
            let (a, b) = stream_scripts();
            let (report, reply, received) =
                run_rec2(a, b, &plan, RelConfig::default(), Some(ckpt)).unwrap();
            (
                received,
                reply,
                report.stats.makespan(),
                report.pair_messages,
                report.fault.unwrap(),
                report.recovery.unwrap(),
            )
        };
        assert_eq!(run(), run(), "same seed, bit-identical recovery");
    }

    #[test]
    fn coordinated_rollback_recovers_whole_machine() {
        let plan = FaultPlan::seeded(5).with_crash(ProcId(0), 5);
        let ckpt = CheckpointCfg::every(2).coordinated();
        let (a, b) = stream_scripts();
        let (report, reply, received) =
            run_rec2(a, b, &plan, RelConfig::default(), Some(ckpt)).unwrap();
        assert_eq!(received, expected_stream());
        assert_eq!(reply, vec![vec![99]]);
        let rec = report.recovery.unwrap();
        assert_eq!(rec.crashes_survived, 1);
        assert!(rec.replayed_ops >= 1, "rollback re-executes work: {rec:?}");
        assert_eq!(report.undelivered, 0);
    }

    #[test]
    fn unrecovered_receiver_crash_names_the_dead_peer() {
        let plan = FaultPlan::seeded(0).with_crash(ProcId(1), 0);
        let cfg = RelConfig {
            rto_cycles: 500,
            max_retries: 3,
            ..RelConfig::default()
        };
        let (a, b) = stream_scripts();
        let mut m = Machine::new(2, CostModel::ipsc2());
        let mut pa = Scripted::new(a);
        let mut pb = Scripted::new(b);
        let mut ps: Vec<&mut dyn Process> = vec![&mut pa, &mut pb];
        // Quantum 1 interleaves the processors step by step, so P1 dies
        // after consuming (and acking) exactly one message. P0 then
        // exhausts its retries against it, a cascade: the run reports
        // its root cause, the crash, as the threaded backend does.
        let config = RunConfig {
            faults: plan,
            reliable: Some(cfg),
            quantum: 1,
            ..RunConfig::default()
        };
        let err = Scheduler::with_config(&config)
            .run(&mut m, &mut ps)
            .unwrap_err();
        assert_eq!(
            err,
            MachineError::Crashed {
                proc: ProcId(1),
                at_op: 0
            }
        );
    }

    #[test]
    fn unrecovered_crash_of_idle_processor_surfaces_as_crashed() {
        let plan = FaultPlan::seeded(0).with_crash(ProcId(2), 2);
        let mut m = Machine::new(3, CostModel::ipsc2());
        let mut pa = Scripted::new(vec![Action::Send(1, 0, vec![1])]);
        let mut pb = Scripted::new(vec![Action::Recv(0, 0)]);
        let mut pc = Scripted::new(vec![
            Action::Compute(5),
            Action::Compute(5),
            Action::Compute(5),
        ]);
        let mut ps: Vec<&mut dyn Process> = vec![&mut pa, &mut pb, &mut pc];
        let config = RunConfig {
            faults: plan,
            ..RunConfig::default()
        };
        let err = Scheduler::with_config(&config)
            .run(&mut m, &mut ps)
            .unwrap_err();
        assert_eq!(
            err,
            MachineError::Crashed {
                proc: ProcId(2),
                at_op: 2
            }
        );
    }

    #[test]
    fn checkpointing_alone_reports_overhead() {
        let (a, b) = stream_scripts();
        let (base, _, base_recv) =
            run_rec2(a, b, &FaultPlan::none(), RelConfig::default(), None).unwrap();
        let (a, b) = stream_scripts();
        let (report, _, received) = run_rec2(
            a,
            b,
            &FaultPlan::none(),
            RelConfig::default(),
            Some(CheckpointCfg::every(2)),
        )
        .unwrap();
        assert_eq!(received, base_recv);
        assert_eq!(report.pair_messages, base.pair_messages);
        let rec = report.recovery.expect("report present without any crash");
        assert_eq!(rec.crashes_survived, 0);
        assert!(rec.checkpoints_taken >= 4, "{rec:?}");
        assert!(rec.bytes_snapshotted > 0);
        assert!(
            report.stats.makespan() >= base.stats.makespan(),
            "checkpoint cost shows up in the makespan"
        );
    }

    #[test]
    fn probabilistic_crashes_recover_within_budget() {
        let plan = FaultPlan::seeded(77).with_crash_rate(400, 2);
        let ckpt = CheckpointCfg::every(3);
        let (a, b) = stream_scripts();
        let (report, reply, received) =
            run_rec2(a, b, &plan, RelConfig::default(), Some(ckpt)).unwrap();
        assert_eq!(received, expected_stream());
        assert_eq!(reply, vec![vec![99]]);
        let rec = report.recovery.unwrap();
        assert!(rec.crashes_survived <= 2, "budget bounds crashes: {rec:?}");
        assert_eq!(rec.crashes_survived, report.fault.unwrap().injected.crashes);
    }
}
