//! Deterministic fault injection for the machine fabric.
//!
//! The paper's generated code assumes the iPSC/2 interconnect never loses,
//! duplicates, or reorders a message — the §4 pipelining argument (send new
//! values as soon as they are produced) is only safe on a perfectly
//! reliable network. This module lets tests and experiments *break* that
//! assumption on purpose, reproducibly: a seeded [`FaultPlan`] decides, for
//! the `k`-th transmission on each `(src, dst, tag)` triple, whether the
//! transport delivers it intact, drops it, duplicates it, delays it, or
//! reorders it past its successor.
//!
//! # Determinism
//!
//! Every decision is a pure function of `(seed, src, dst, tag, k)` where
//! `k` is the per-triple transmission index. The index is counted on the
//! *sender*, and FIFO order within a typed channel is program order on the
//! sender (see [`Scheduler`](crate::Scheduler)), so the same program run on
//! the deterministic simulator always sees the exact same injected faults —
//! no `Math.random`-style ambient entropy, no OS entropy, just a private
//! xorshift64* stream re-derived per message. On the threaded backend the
//! per-transmission decisions are equally deterministic, but wall-clock
//! retransmission timing can change *how many* transmissions occur.
//!
//! # Composition
//!
//! A plan is applied where a frame meets the wire: both backends hand
//! every transmission to [`FaultState::dispatch`], which works over any
//! [`Fabric`] — the simulator's [`Machine`](crate::Machine), the threaded
//! backend's endpoint, or a test double.
//! A non-empty plan puts the run under the reliable-delivery protocol
//! (see [`RunConfig::protocol`](crate::RunConfig::protocol)); dispatching
//! through a plan without it simply loses data, exactly like a real
//! datagram network.

use crate::fabric::Fabric;
use crate::message::{ProcId, Tag, Word};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};
use std::sync::Arc;

/// Scale of the per-mille probability knobs: a knob value of
/// [`PM_SCALE`] means "always".
pub const PM_SCALE: u32 = 1000;

/// What the faulty transport does with one transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// Deliver intact.
    Deliver,
    /// Charge the sender, then lose the frame.
    Drop,
    /// Deliver intact, plus a transport-manufactured copy.
    Duplicate,
    /// Deliver with this many extra cycles of flight time.
    Delay(u64),
    /// Hold the frame back and release it after the next transmission on
    /// the same triple (a reorder-within-a-triple).
    Hold,
}

/// A processor stall event: at the `at_op`-th charged instruction on
/// `proc`, the processor loses `cycles` extra cycles (a page fault, an
/// interrupt storm — anything that delays one processor without touching
/// the network).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stall {
    /// The processor that stalls.
    pub proc: ProcId,
    /// The instruction index (per-processor `tick` count) at which it
    /// stalls. The first charged instruction is index 0.
    pub at_op: u64,
    /// Extra cycles charged at that instruction.
    pub cycles: u64,
}

/// A processor crash event: at the `at_op`-th charged instruction on
/// `proc` (or the first step boundary after it), the processor loses all
/// volatile state. With checkpointing enabled the scheduler restores it
/// from its last [`Checkpoint`](crate::checkpoint::Checkpoint); without,
/// the processor stays dead and its peers eventually observe
/// [`RetriesExhausted`](crate::MachineError::RetriesExhausted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crash {
    /// The processor that crashes.
    pub proc: ProcId,
    /// The instruction index (per-processor `tick` count) at which it
    /// crashes. The crash fires at the first step boundary where the
    /// processor's charged-op counter has reached `at_op`.
    pub at_op: u64,
}

/// A seeded, fully deterministic description of what the fabric does to
/// traffic. All probability knobs are per-mille (`0..=1000`).
///
/// `max_faults_per_triple` bounds how many faults the plan may inject on
/// one `(src, dst, tag)` stream; once the budget is spent, later
/// transmissions pass through untouched. Together with a retransmit cap
/// larger than the budget this guarantees that a reliable run over a lossy
/// plan always converges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of the per-message decision streams.
    pub seed: u64,
    /// Per-mille probability of dropping a transmission.
    pub drop_pm: u32,
    /// Per-mille probability of duplicating a transmission.
    pub dup_pm: u32,
    /// Per-mille probability of delaying a transmission.
    pub delay_pm: u32,
    /// Extra flight cycles for a delayed transmission.
    pub delay_cycles: u64,
    /// Per-mille probability of holding a transmission back past its
    /// successor on the same triple.
    pub reorder_pm: u32,
    /// Fault budget per `(src, dst, tag)` triple (`u32::MAX` = unlimited).
    pub max_faults_per_triple: u32,
    /// Triples whose every transmission is dropped, budget or not — the
    /// way to force a [`MachineError::RetriesExhausted`](crate::MachineError)
    /// outcome deterministically.
    pub black_holes: BTreeSet<(ProcId, ProcId, Tag)>,
    /// Processor stall events.
    pub stalls: Vec<Stall>,
    /// Scripted processor crash events.
    pub crashes: Vec<Crash>,
    /// Per-mille probability that a processor crashes at any given step
    /// boundary. Rolled once per step against the processor's charged-op
    /// counter, so the decision sequence is identical on both backends.
    pub crash_pm: u32,
    /// Budget for probabilistic crashes across the whole run (scripted
    /// crashes are exempt). Defaults to 0 — `crash_pm` alone injects
    /// nothing until a budget is granted.
    pub max_crashes: u32,
}

impl FaultPlan {
    /// The empty plan: a perfectly reliable fabric. Runs configured with
    /// it take the exact same code path as runs with no plan at all.
    pub const fn none() -> Self {
        FaultPlan {
            seed: 0,
            drop_pm: 0,
            dup_pm: 0,
            delay_pm: 0,
            delay_cycles: 0,
            reorder_pm: 0,
            max_faults_per_triple: u32::MAX,
            black_holes: BTreeSet::new(),
            stalls: Vec::new(),
            crashes: Vec::new(),
            crash_pm: 0,
            max_crashes: 0,
        }
    }

    /// An empty plan carrying only a seed (ready for builder calls).
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::none()
        }
    }

    /// Does this plan inject nothing at all?
    pub fn is_none(&self) -> bool {
        self.drop_pm == 0
            && self.dup_pm == 0
            && self.delay_pm == 0
            && self.reorder_pm == 0
            && self.black_holes.is_empty()
            && self.stalls.is_empty()
            && self.crashes.is_empty()
            && (self.crash_pm == 0 || self.max_crashes == 0)
    }

    /// Set the per-mille drop probability.
    ///
    /// # Panics
    ///
    /// Panics if the combined fault probabilities exceed 1000‰.
    pub fn with_drops(mut self, pm: u32) -> Self {
        self.drop_pm = pm;
        self.check();
        self
    }

    /// Set the per-mille duplication probability.
    ///
    /// # Panics
    ///
    /// Panics if the combined fault probabilities exceed 1000‰.
    pub fn with_dups(mut self, pm: u32) -> Self {
        self.dup_pm = pm;
        self.check();
        self
    }

    /// Set the per-mille delay probability and the extra flight cycles.
    ///
    /// # Panics
    ///
    /// Panics if the combined fault probabilities exceed 1000‰.
    pub fn with_delays(mut self, pm: u32, cycles: u64) -> Self {
        self.delay_pm = pm;
        self.delay_cycles = cycles;
        self.check();
        self
    }

    /// Set the per-mille reorder probability.
    ///
    /// # Panics
    ///
    /// Panics if the combined fault probabilities exceed 1000‰.
    pub fn with_reorders(mut self, pm: u32) -> Self {
        self.reorder_pm = pm;
        self.check();
        self
    }

    /// Bound the number of faults injected per `(src, dst, tag)` triple.
    pub fn with_fault_budget(mut self, max: u32) -> Self {
        self.max_faults_per_triple = max;
        self
    }

    /// Drop *every* transmission on the given triple, ignoring the budget.
    pub fn with_black_hole(mut self, src: ProcId, dst: ProcId, tag: Tag) -> Self {
        self.black_holes.insert((src, dst, tag));
        self
    }

    /// Add a processor stall event.
    pub fn with_stall(mut self, proc: ProcId, at_op: u64, cycles: u64) -> Self {
        self.stalls.push(Stall {
            proc,
            at_op,
            cycles,
        });
        self
    }

    /// Add a scripted processor crash event.
    pub fn with_crash(mut self, proc: ProcId, at_op: u64) -> Self {
        self.crashes.push(Crash { proc, at_op });
        self
    }

    /// Enable probabilistic crashes: per-mille probability `pm` rolled at
    /// every step boundary, capped at `budget` crashes across the run.
    ///
    /// # Panics
    ///
    /// Panics if `pm` exceeds 1000‰.
    pub fn with_crash_rate(mut self, pm: u32, budget: u32) -> Self {
        assert!(
            pm <= PM_SCALE,
            "crash probability exceeds {PM_SCALE} per mille"
        );
        self.crash_pm = pm;
        self.max_crashes = budget;
        self
    }

    /// The probabilistic crash decision for processor `p` at charged-op
    /// counter `op` — a pure function, independent of any mutable state.
    pub fn crash_roll(&self, p: ProcId, op: u64) -> bool {
        if self.crash_pm == 0 {
            return false;
        }
        let mut x = splitmix(
            self.seed
                ^ splitmix((p.0 as u64).rotate_left(41) ^ 0xC4A5_11ED)
                ^ op.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let roll = (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32) as u32 % PM_SCALE;
        roll < self.crash_pm
    }

    fn check(&self) {
        assert!(
            self.drop_pm + self.dup_pm + self.delay_pm + self.reorder_pm <= PM_SCALE,
            "combined fault probabilities exceed {PM_SCALE} per mille"
        );
    }

    /// The decision for the `k`-th transmission on `(src, dst, tag)` —
    /// a pure function, independent of any mutable state.
    pub fn decide(&self, src: ProcId, dst: ProcId, tag: Tag, k: u64) -> FaultDecision {
        if self.black_holes.contains(&(src, dst, tag)) {
            return FaultDecision::Drop;
        }
        let mut x = splitmix(
            self.seed
                ^ splitmix(src.0 as u64 ^ (dst.0 as u64).rotate_left(17) ^ ((tag.0 as u64) << 34))
                ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        // xorshift64*: one more scramble so adjacent k values decorrelate.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let roll = (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32) as u32 % PM_SCALE;
        if roll < self.drop_pm {
            FaultDecision::Drop
        } else if roll < self.drop_pm + self.dup_pm {
            FaultDecision::Duplicate
        } else if roll < self.drop_pm + self.dup_pm + self.delay_pm {
            FaultDecision::Delay(self.delay_cycles)
        } else if roll < self.drop_pm + self.dup_pm + self.delay_pm + self.reorder_pm {
            FaultDecision::Hold
        } else {
            FaultDecision::Deliver
        }
    }
}

/// SplitMix64 finalizer, used to derive per-message decision streams.
fn splitmix(v: u64) -> u64 {
    let mut z = v.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Tally of the faults a plan actually injected during one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Transmissions dropped.
    pub drops: u64,
    /// Transmissions duplicated.
    pub dups: u64,
    /// Transmissions delayed.
    pub delays: u64,
    /// Transmissions held back past a successor.
    pub reorders: u64,
    /// Stall events fired.
    pub stalls: u64,
    /// Total extra cycles charged by stalls.
    pub stall_cycles: u64,
    /// Crash events fired.
    pub crashes: u64,
}

impl FaultCounts {
    /// Total message-level faults injected (stalls excluded).
    pub fn total(&self) -> u64 {
        self.drops + self.dups + self.delays + self.reorders
    }

    /// Merge another tally into this one (threaded backend teardown).
    pub fn merge(&mut self, other: &FaultCounts) {
        self.drops += other.drops;
        self.dups += other.dups;
        self.delays += other.delays;
        self.reorders += other.reorders;
        self.stalls += other.stalls;
        self.stall_cycles += other.stall_cycles;
        self.crashes += other.crashes;
    }
}

/// The mutable run-time state of a plan: per-triple transmission indices
/// and fault budgets, held (reordered) frames, per-processor instruction
/// counters for stalls, and the injected-fault tally.
#[derive(Debug, Clone)]
pub struct FaultState<'p> {
    plan: &'p FaultPlan,
    xmit: HashMap<(ProcId, ProcId, Tag), u64>,
    spent: HashMap<(ProcId, ProcId, Tag), u32>,
    held: HashMap<(ProcId, ProcId, Tag), Vec<Word>>,
    /// Charged-op counters, indexed by processor: every flush of compute
    /// charges comes through here, so nothing on that path hashes. Grown
    /// on first use (a threaded endpoint only ever counts its own).
    ops: Vec<u64>,
    fired: Vec<bool>,
    crash_fired: Vec<bool>,
    /// Probabilistic crashes spent, shared by every `FaultState` of one
    /// run (and by clones): [`FaultPlan::max_crashes`] caps the run, not
    /// each endpoint. `Relaxed` suffices: the count publishes no other
    /// data.
    crashes_spent: Arc<AtomicU32>,
    counts: FaultCounts,
}

impl<'p> FaultState<'p> {
    /// Fresh state for `plan`.
    pub fn new(plan: &'p FaultPlan) -> Self {
        Self::sharing_crashes(plan, Arc::default())
    }

    /// Fresh state for `plan` that spends the probabilistic crash budget
    /// from `crashes_spent`, a counter shared with the run's other
    /// endpoints (threaded backend: one `FaultState` per endpoint).
    pub(crate) fn sharing_crashes(plan: &'p FaultPlan, crashes_spent: Arc<AtomicU32>) -> Self {
        let fired = vec![false; plan.stalls.len()];
        let crash_fired = vec![false; plan.crashes.len()];
        FaultState {
            plan,
            xmit: HashMap::new(),
            spent: HashMap::new(),
            held: HashMap::new(),
            ops: Vec::new(),
            fired,
            crash_fired,
            crashes_spent,
            counts: FaultCounts::default(),
        }
    }

    /// Faults injected so far.
    pub fn counts(&self) -> FaultCounts {
        self.counts
    }

    /// Frames currently held for reordering (should be zero after a
    /// reliable run converges — retransmits flush them).
    pub fn held_frames(&self) -> usize {
        self.held.len()
    }

    /// Account `ops` charged instructions on `p` and return the extra
    /// stall cycles (usually zero) to fold into the charge.
    pub fn stall_cycles(&mut self, p: ProcId, ops: u64) -> u64 {
        if p.0 >= self.ops.len() {
            self.ops.resize(p.0 + 1, 0);
        }
        let op = &mut self.ops[p.0];
        let at = *op..*op + ops;
        *op = at.end;
        let mut extra = 0;
        for (i, s) in self.plan.stalls.iter().enumerate() {
            if !self.fired[i] && s.proc == p && at.contains(&s.at_op) {
                self.fired[i] = true;
                extra += s.cycles;
                self.counts.stalls += 1;
                self.counts.stall_cycles += s.cycles;
            }
        }
        extra
    }

    /// The charged-op counter for `p` — how many instructions it has
    /// been billed for so far. Step boundaries consult this to place
    /// checkpoint intervals and crash points identically on both
    /// backends.
    pub fn ops(&self, p: ProcId) -> u64 {
        self.ops.get(p.0).copied().unwrap_or(0)
    }

    /// How many more charged instructions `p` runs up to and including
    /// its next unfired stall (at least 1), `u64::MAX` when none is left.
    /// Until then its clock moves by the instructions' own costs alone.
    pub fn ops_until_stall(&self, p: ProcId) -> u64 {
        let at = self.ops(p);
        let unfired = self.plan.stalls.iter().zip(&self.fired);
        unfired
            .filter(|(s, &fired)| !fired && s.proc == p && s.at_op >= at)
            .map(|(s, _)| s.at_op - at + 1)
            .min()
            .unwrap_or(u64::MAX)
    }

    /// How many more charged instructions `p` runs before
    /// [`take_crash`](Self::take_crash) can fire at a step boundary (at
    /// least 1: the next boundary is one instruction away), `u64::MAX`
    /// when nothing can. A scripted crash fires at the first boundary at
    /// or past its `at_op`; while the probabilistic budget lasts every
    /// boundary rolls, so the answer is 1.
    pub fn ops_until_crash(&self, p: ProcId) -> u64 {
        if self.plan.crash_pm > 0 && self.crash_budget_left() {
            return 1;
        }
        let at = self.ops(p);
        let unfired = self.plan.crashes.iter().zip(&self.crash_fired);
        unfired
            .filter(|(c, &fired)| !fired && c.proc == p)
            .map(|(c, _)| c.at_op.saturating_sub(at).max(1))
            .min()
            .unwrap_or(u64::MAX)
    }

    /// At a step boundary for `p`: does a crash fire now? Returns the
    /// charged-op counter at which it fired. Scripted crashes fire once
    /// each, at the first boundary where the counter has reached their
    /// `at_op`; probabilistic crashes roll [`FaultPlan::crash_roll`]
    /// against the counter and spend the crash budget.
    pub fn take_crash(&mut self, p: ProcId) -> Option<u64> {
        let at = self.ops(p);
        for (i, c) in self.plan.crashes.iter().enumerate() {
            if !self.crash_fired[i] && c.proc == p && at >= c.at_op {
                self.crash_fired[i] = true;
                self.counts.crashes += 1;
                return Some(at);
            }
        }
        let max = self.plan.max_crashes;
        if self.crash_budget_left()
            && self.plan.crash_roll(p, at)
            && self
                .crashes_spent
                .fetch_update(Relaxed, Relaxed, |spent| (spent < max).then_some(spent + 1))
                .is_ok()
        {
            self.counts.crashes += 1;
            return Some(at);
        }
        None
    }

    fn crash_budget_left(&self) -> bool {
        self.crashes_spent.load(Relaxed) < self.plan.max_crashes
    }

    /// Decide the fate of the next transmission on `(src, dst, tag)`,
    /// advancing the per-triple index and spending the fault budget.
    pub fn next_decision(&mut self, src: ProcId, dst: ProcId, tag: Tag) -> FaultDecision {
        let key = (src, dst, tag);
        let k = self.xmit.entry(key).or_insert(0);
        let index = *k;
        *k += 1;
        let mut d = self.plan.decide(src, dst, tag, index);
        let black_hole = self.plan.black_holes.contains(&key);
        if !black_hole {
            let spent = self.spent.entry(key).or_insert(0);
            if d != FaultDecision::Deliver {
                if *spent >= self.plan.max_faults_per_triple {
                    d = FaultDecision::Deliver;
                } else {
                    *spent += 1;
                }
            }
        }
        // Never stack two held frames on one triple: a second Hold would
        // only swap which frame waits, so deliver instead.
        if d == FaultDecision::Hold && self.held.contains_key(&key) {
            d = FaultDecision::Deliver;
        }
        d
    }

    /// Transmit `frame` over `fabric`, applying the plan. Dropped and
    /// delayed frames still charge the sender (the words left the CPU);
    /// duplicates and released held frames are transport-manufactured and
    /// charge nobody. The frame is borrowed so the reliable layer's
    /// retransmission window can dispatch straight out of its pending
    /// entries without cloning.
    pub fn dispatch<F: Fabric + ?Sized>(
        &mut self,
        fabric: &mut F,
        src: ProcId,
        dst: ProcId,
        tag: Tag,
        frame: &[Word],
    ) {
        let key = (src, dst, tag);
        let d = self.next_decision(src, dst, tag);
        match d {
            FaultDecision::Deliver => fabric.send_ref(src, dst, tag, frame),
            FaultDecision::Drop => {
                self.counts.drops += 1;
                fabric.send_lost(src, dst, tag, frame.len());
            }
            FaultDecision::Duplicate => {
                self.counts.dups += 1;
                fabric.send_ref(src, dst, tag, frame);
                fabric.inject_ref(src, dst, tag, frame, 0);
            }
            FaultDecision::Delay(extra) => {
                self.counts.delays += 1;
                fabric.send_lost(src, dst, tag, frame.len());
                fabric.inject_ref(src, dst, tag, frame, extra);
            }
            FaultDecision::Hold => {
                self.counts.reorders += 1;
                fabric.send_lost(src, dst, tag, frame.len());
                self.held.insert(key, frame.to_vec());
                return;
            }
        }
        // A transmission went out on this triple: release any held
        // predecessor *after* it, completing the reorder.
        if let Some(h) = self.held.remove(&key) {
            fabric.inject_ref(src, dst, tag, &h, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::fabric::Machine;
    use crate::message::Time;

    #[test]
    fn decisions_are_deterministic() {
        let plan = FaultPlan::seeded(42).with_drops(300).with_dups(100);
        for k in 0..64 {
            assert_eq!(
                plan.decide(ProcId(0), ProcId(1), Tag(3), k),
                plan.decide(ProcId(0), ProcId(1), Tag(3), k),
            );
        }
    }

    #[test]
    fn decisions_vary_with_seed_triple_and_index() {
        let a = FaultPlan::seeded(1).with_drops(500);
        let b = FaultPlan::seeded(2).with_drops(500);
        let decisions = |p: &FaultPlan, src: usize, tag: u32| -> Vec<FaultDecision> {
            (0..256)
                .map(|k| p.decide(ProcId(src), ProcId(1), Tag(tag), k))
                .collect()
        };
        assert_ne!(
            decisions(&a, 0, 0),
            decisions(&b, 0, 0),
            "seeds decorrelate"
        );
        assert_ne!(
            decisions(&a, 0, 0),
            decisions(&a, 2, 0),
            "triples decorrelate"
        );
        assert_ne!(decisions(&a, 0, 0), decisions(&a, 0, 7), "tags decorrelate");
    }

    #[test]
    fn drop_rate_is_roughly_calibrated() {
        let plan = FaultPlan::seeded(9).with_drops(250);
        let drops = (0..10_000)
            .filter(|&k| plan.decide(ProcId(0), ProcId(1), Tag(0), k) == FaultDecision::Drop)
            .count();
        assert!((2_000..3_000).contains(&drops), "drops = {drops}");
    }

    #[test]
    fn empty_plan_is_none_and_delivers_everything() {
        let plan = FaultPlan::none();
        assert!(plan.is_none());
        for k in 0..128 {
            assert_eq!(
                plan.decide(ProcId(0), ProcId(1), Tag(0), k),
                FaultDecision::Deliver
            );
        }
        assert!(!FaultPlan::seeded(0).with_drops(1).is_none());
    }

    #[test]
    fn budget_caps_faults_per_triple() {
        let plan = FaultPlan::seeded(3).with_drops(1000).with_fault_budget(2);
        let mut st = FaultState::new(&plan);
        let drops = (0..50)
            .filter(|_| st.next_decision(ProcId(0), ProcId(1), Tag(0)) == FaultDecision::Drop)
            .count();
        assert_eq!(drops, 2);
        // An independent triple has its own budget.
        assert_eq!(
            st.next_decision(ProcId(0), ProcId(1), Tag(1)),
            FaultDecision::Drop
        );
    }

    #[test]
    fn black_hole_ignores_budget() {
        let plan =
            FaultPlan::seeded(0)
                .with_fault_budget(1)
                .with_black_hole(ProcId(0), ProcId(1), Tag(5));
        let mut st = FaultState::new(&plan);
        for _ in 0..20 {
            assert_eq!(
                st.next_decision(ProcId(0), ProcId(1), Tag(5)),
                FaultDecision::Drop
            );
        }
        assert_eq!(
            st.next_decision(ProcId(0), ProcId(1), Tag(6)),
            FaultDecision::Deliver
        );
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn probability_overflow_rejected() {
        let _ = FaultPlan::seeded(0).with_drops(700).with_dups(400);
    }

    /// Send `frame` 0 → 1 on tag 0 through the plan.
    fn dispatch(st: &mut FaultState<'_>, m: &mut Machine, frame: &[Word]) {
        st.dispatch(m, ProcId(0), ProcId(1), Tag(0), frame);
    }

    /// What processor 1 can receive from 0 on tag 0 right now, in order.
    fn drain(m: &mut Machine) -> Vec<Vec<Word>> {
        let mut got = Vec::new();
        let mut out = Vec::new();
        while m.try_recv_into(ProcId(1), ProcId(0), Tag(0), &mut out) {
            got.push(out.clone());
        }
        got
    }

    #[test]
    fn dispatch_drops_on_machine() {
        let plan = FaultPlan::seeded(0).with_black_hole(ProcId(0), ProcId(1), Tag(0));
        let mut st = FaultState::new(&plan);
        let mut m = Machine::new(2, CostModel::ipsc2());
        dispatch(&mut st, &mut m, &[1, 2]);
        // Sender paid for the send...
        assert_eq!(m.clock(ProcId(0)), Time(CostModel::ipsc2().send_cost(2)));
        // ...but nothing was delivered.
        assert!(drain(&mut m).is_empty());
        assert_eq!(st.counts().drops, 1);
    }

    #[test]
    fn dispatch_duplicates_on_machine() {
        let plan = FaultPlan::seeded(0).with_dups(1000);
        let mut st = FaultState::new(&plan);
        let mut m = Machine::new(2, CostModel::zero());
        dispatch(&mut st, &mut m, &[7]);
        assert_eq!(drain(&mut m), [[7], [7]]);
        assert_eq!(st.counts().dups, 1);
    }

    #[test]
    fn dispatch_reorders_within_triple() {
        let plan = FaultPlan::seeded(11).with_reorders(1000);
        let mut st = FaultState::new(&plan);
        let mut m = Machine::new(2, CostModel::zero());
        dispatch(&mut st, &mut m, &[1]); // held
        assert_eq!(st.held_frames(), 1);
        dispatch(&mut st, &mut m, &[2]); // delivered, then releases [1]
        assert_eq!(drain(&mut m), [[2], [1]]);
        assert_eq!(st.held_frames(), 0);
        assert!(st.counts().reorders >= 1);
    }

    #[test]
    fn delay_shifts_arrival_stamp() {
        let plan = FaultPlan::seeded(0).with_delays(1000, 500);
        let mut st = FaultState::new(&plan);
        let cost = CostModel::ipsc2();
        let mut m = Machine::new(2, cost);
        dispatch(&mut st, &mut m, &[1]);
        assert_eq!(drain(&mut m), [[1]]);
        let expected = cost.send_cost(1) + cost.flight + 500 + cost.recv_cost(1);
        assert_eq!(m.clock(ProcId(1)), Time(expected));
        assert_eq!(st.counts().delays, 1);
    }

    #[test]
    fn scripted_crash_fires_once_at_first_boundary_past_at_op() {
        let plan = FaultPlan::seeded(0).with_crash(ProcId(1), 3);
        assert!(!plan.is_none());
        let mut st = FaultState::new(&plan);
        // Boundary before the op counter reaches 3: nothing.
        assert_eq!(st.take_crash(ProcId(1)), None);
        for _ in 0..5 {
            st.stall_cycles(ProcId(1), 1);
        }
        // Other processors never see it.
        assert_eq!(st.take_crash(ProcId(0)), None);
        // First boundary at or past op 3 fires, exactly once.
        assert_eq!(st.take_crash(ProcId(1)), Some(5));
        assert_eq!(st.take_crash(ProcId(1)), None);
        assert_eq!(st.counts().crashes, 1);
    }

    #[test]
    fn probabilistic_crashes_respect_budget_and_seed() {
        let plan = FaultPlan::seeded(77).with_crash_rate(1000, 2);
        assert!(!plan.is_none());
        let mut st = FaultState::new(&plan);
        let mut fired = 0;
        for op in 0..100 {
            if st.take_crash(ProcId(0)).is_some() {
                fired += 1;
            }
            let _ = op;
            st.stall_cycles(ProcId(0), 1);
        }
        assert_eq!(fired, 2, "budget caps probabilistic crashes");
        // Without a budget the rate knob alone injects nothing.
        assert!(FaultPlan::seeded(0).with_crash_rate(500, 0).is_none());
        // Pure function of (seed, proc, op).
        let p = FaultPlan::seeded(9).with_crash_rate(300, 1);
        for op in 0..64 {
            assert_eq!(p.crash_roll(ProcId(2), op), p.crash_roll(ProcId(2), op));
        }
    }

    #[test]
    fn gaps_count_the_ops_up_to_the_next_stall_and_crash() {
        let (p0, p1) = (ProcId(0), ProcId(1));
        let plan = FaultPlan::seeded(0)
            .with_stall(p0, 5, 10)
            .with_stall(p0, 2, 10)
            .with_crash(p0, 4)
            .with_crash(p0, 4);
        let mut st = FaultState::new(&plan);
        // The stall at op 2 fires inside the third instruction; the
        // boundary with the counter at 4 is four instructions away.
        assert_eq!((st.ops_until_stall(p0), st.ops_until_crash(p0)), (3, 4));
        assert_eq!(st.ops_until_stall(p1), u64::MAX);
        assert_eq!(st.ops_until_crash(p1), u64::MAX);
        assert_eq!(st.stall_cycles(p0, 3), 10);
        assert_eq!((st.ops_until_stall(p0), st.ops_until_crash(p0)), (3, 1));
        assert_eq!(st.stall_cycles(p0, 1), 0);
        // Two crashes at one op take two boundaries, each one away.
        assert_eq!(st.take_crash(p0), Some(4));
        assert_eq!(st.ops_until_crash(p0), 1);
        assert_eq!(st.take_crash(p0), Some(4));
        assert_eq!(st.ops_until_crash(p0), u64::MAX);
        assert_eq!(st.stall_cycles(p0, 2), 10);
        assert_eq!(st.ops_until_stall(p0), u64::MAX);
        // While the probabilistic budget lasts every boundary rolls.
        let dice = FaultPlan::seeded(7).with_crash_rate(1000, 1);
        let mut st = FaultState::new(&dice);
        assert_eq!(st.ops_until_crash(p1), 1);
        assert_eq!(st.take_crash(p1), Some(0));
        assert_eq!(st.ops_until_crash(p1), u64::MAX);
    }

    #[test]
    fn stalls_charge_extra_cycles_once() {
        let plan = FaultPlan::seeded(0).with_stall(ProcId(0), 1, 1_000);
        let mut st = FaultState::new(&plan);
        let mut m = Machine::new(2, CostModel::zero());
        // Op 0: no stall; op 1: the stall fires; op 2: it fired already.
        for _ in 0..3 {
            let extra = st.stall_cycles(ProcId(0), 1);
            m.tick(ProcId(0), 1 + extra);
        }
        assert_eq!(m.clock(ProcId(0)), Time(3 + 1_000));
        assert_eq!(st.counts().stalls, 1);
        assert_eq!(st.counts().stall_cycles, 1_000);
    }
}
