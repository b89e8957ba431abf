//! The threaded execution backend: one OS thread per processor, with a
//! preallocated lock-free SPSC word ring ([`ring`](crate::ring)) per
//! ordered processor pair as the interconnect.
//!
//! The simulator ([`Machine`](crate::Machine)) interleaves every processor
//! on one thread and keeps the whole network in one in-memory table. This
//! module executes the *same* [`Process`] implementations preemptively:
//! each processor's process runs on its own thread against an endpoint —
//! a per-thread [`Fabric`] holding that processor's logical processor and
//! ring ends. The logical processor is the same `Cpu` the simulator
//! charges (DESIGN §5b, "The logical processor"), so clocks, counters and
//! trace events cannot differ; the same section argues why what a process
//! *observes* cannot either. This file's part of that argument: a ring is
//! FIFO by construction, and the per-`(src, tag)` stash below preserves
//! that order per typed channel. Only `max_in_flight` (real concurrency)
//! and the step total (blocked-retry counts) are timing-dependent.
//!
//! # Topology
//!
//! Tags are created dynamically by the compiler, so a physical channel
//! per `(src, dst, tag)` triple is impossible to set up in advance.
//! Instead every ordered processor pair owns one word ring — `n(n-1)`
//! rings, preallocated before the clocks start — and each endpoint
//! demultiplexes its incoming frames into per-`(src, tag)` FIFO stashes.
//! Frames are flat `u64` words (see [`ring`](crate::ring) for the wire
//! layout); steady-state traffic allocates nothing: payload buffers come
//! from a per-endpoint [`BufPool`] and return to it on consume.
//!
//! # Wakeups, deadlock, and peer death
//!
//! Each endpoint owns a [`Doorbell`]; peers ring it after publishing
//! frames for it, so a blocked receive parks instead of polling and a
//! running receiver costs its peers no syscalls at all. Real threads
//! cannot take the global "nobody progressed" snapshot the
//! [`Scheduler`](crate::Scheduler) uses, so liveness is judged from a
//! shared status board instead: every thread posts `finished` on normal
//! completion and `dead` on panic or error (via a drop guard, so unwinds
//! post too), bumps a global epoch, and rings every bell. A receive
//! whose peer *finished* without sending fails immediately as
//! [`MachineError::Deadlock`]; one whose peer *died* fails immediately
//! as [`MachineError::PeerDied`] — no waiter ever burns its full
//! receive-timeout window discovering a terminated peer. If no traffic
//! at all arrives for the [`Backend::Threaded`] receive timeout while
//! peers are still running, the receive fails with
//! [`MachineError::RecvTimeout`] (a cyclic deadlock).

use crate::checkpoint::CheckpointCfg;
use crate::config::{RunConfig, DEFAULT};
use crate::cost::CostModel;
use crate::cpu::{ack_cost, Cpu, Observers};
use crate::error::MachineError;
use crate::fabric::Fabric;
use crate::fault::{FaultCounts, FaultState};
use crate::message::{ProcId, Tag, Time, Word};
use crate::reliable::{is_ack_tag, Deadline, RelConfig, RelEndpoint, Wire};
use crate::report::{Ledger, PairCounts, RunReport};
use crate::ring::{ring, BufPool, Doorbell, FrameRx, FrameTx};
use crate::sched::{Process, Step};
use crate::trace::{EventKind, Trace};
use pdc_metrics::{Ctr, FlightKind, MetricsRegistry, NO_PEER};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a compiled SPMD program is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// The deterministic discrete-event simulator: one thread, round-robin
    /// [`Scheduler`](crate::Scheduler), in-memory queues. The default.
    #[default]
    Simulated,
    /// One OS thread per processor over per-pair lock-free rings, with a
    /// wall-clock receive timeout standing in for deadlock detection.
    Threaded {
        /// Fail a blocked receive after this long without any arrival.
        recv_timeout: Duration,
    },
}

impl Backend {
    /// The threaded backend with the default receive timeout.
    pub fn threaded() -> Self {
        Backend::Threaded {
            recv_timeout: DEFAULT_RECV_TIMEOUT,
        }
    }
}

/// Default wall-clock window a blocked threaded receive waits before
/// reporting a timeout.
pub const DEFAULT_RECV_TIMEOUT: Duration = Duration::from_secs(5);

/// Peer is executing its program.
const PEER_RUNNING: u8 = 0;
/// Peer's *program* is done but its thread still serves the reliable
/// protocol (the post-completion linger): it drains its rings, re-acks,
/// and may still owe retransmissions — so a receive waiting on it is not
/// a deadlock — but it will never consume another message, which is what
/// lets peers retire the windows they hold for it.
const PEER_LINGERING: u8 = 1;
/// Peer's thread exited normally: nothing drains its rings any more.
const PEER_FINISHED: u8 = 2;
/// Peer's thread terminated abnormally (panic or error).
const PEER_DEAD: u8 = 3;

/// Has the peer's thread exited (nobody drains its rings)?
fn gone(status: u8) -> bool {
    status >= PEER_FINISHED
}

/// `base + d`, saturating at a far-future instant instead of panicking
/// when a pathological `Duration` (e.g. `Duration::MAX` standing in for
/// "never") overflows the platform clock. Halving converges on the
/// largest representable offset, which is as good as infinity for a
/// deadline.
fn saturating_deadline(base: Instant, d: Duration) -> Instant {
    if let Some(t) = base.checked_add(d) {
        return t;
    }
    let mut cap = d;
    while cap > Duration::ZERO {
        cap /= 2;
        if let Some(t) = base.checked_add(cap) {
            return t;
        }
    }
    base
}

impl Deadline for Instant {
    fn after(self, cfg: &RelConfig, retries: u32) -> Instant {
        saturating_deadline(self, cfg.backoff_wall(retries))
    }
}

/// Ring capacity in words for an `n`-processor machine when none was
/// configured: a ~32 MiB total budget split across the `n(n-1)` rings,
/// clamped to `[256, 16384]` words and rounded down to a power of two.
fn default_ring_words(n: usize) -> usize {
    let pairs = (n * n.saturating_sub(1)).max(1);
    let budget = ((1usize << 22) / pairs).clamp(256, 16_384);
    1 << (usize::BITS as usize - 1 - budget.leading_zeros() as usize)
}

/// Shared high-water mark of messages in flight (sent, not yet consumed).
/// Relaxed ordering throughout: the counts are diagnostics, read after
/// the joins (which synchronize), never used for control flow.
#[derive(Debug, Default)]
struct Gauge {
    cur: AtomicU64,
    max: AtomicU64,
}

impl Gauge {
    fn inc(&self) {
        let now = self.cur.fetch_add(1, Ordering::Relaxed) + 1;
        self.max.fetch_max(now, Ordering::Relaxed);
    }

    fn dec(&self) {
        self.cur.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Announces this thread's fate on the shared status board. Constructed
/// before the first step and finalized with [`finish`](StatusGuard::finish)
/// on success; the `Drop` impl catches every other exit — an `Err` return
/// or a panic unwind — and posts `dead`, so blocked peers always learn of
/// a terminated thread immediately instead of timing out against silence.
struct StatusGuard {
    status: Arc<Vec<AtomicU8>>,
    bells: Arc<Vec<Doorbell>>,
    epoch: Arc<AtomicU64>,
    me: usize,
    finished: bool,
}

/// Post processor `me`'s status `st`, bump the epoch, and wake every
/// parked peer. The status store is `SeqCst` and precedes the bells, so
/// a peer that either observes the new status or is woken by the ring
/// sees every frame this thread published beforehand.
fn announce(status: &[AtomicU8], epoch: &AtomicU64, bells: &[Doorbell], me: usize, st: u8) {
    status[me].store(st, Ordering::SeqCst);
    epoch.fetch_add(1, Ordering::SeqCst);
    for bell in bells {
        bell.ring();
    }
}

impl StatusGuard {
    fn finish(&mut self) {
        self.finished = true;
        announce(
            &self.status,
            &self.epoch,
            &self.bells,
            self.me,
            PEER_FINISHED,
        );
    }
}

impl Drop for StatusGuard {
    fn drop(&mut self) {
        if !self.finished {
            announce(&self.status, &self.epoch, &self.bells, self.me, PEER_DEAD);
        }
    }
}

/// The reliable-delivery state of one endpoint: the protocol core on
/// wall-clock deadlines, and the endpoint's own [`FaultState`] (each
/// endpoint only dispatches frames it sends, so per-triple decision
/// streams stay private; only the run's crash budget is shared).
#[derive(Debug)]
struct Reliable<'p> {
    core: RelEndpoint<Instant>,
    fault: FaultState<'p>,
}

/// Per-`(src, tag)` demultiplexing FIFOs of `(arrival stamp, payload)`.
type Stash = HashMap<(ProcId, Tag), VecDeque<(Time, Vec<Word>)>>;

/// One processor's thread-local view of the machine: its logical
/// processor, the producer end of a ring to every peer, the consumer end
/// of every peer's ring to it, and the per-`(src, tag)` demultiplexing
/// stash.
#[derive(Debug)]
struct Endpoint<'p> {
    n: usize,
    cpu: Cpu,
    /// This endpoint's own event trace — merged by timestamp into the run
    /// report at teardown — and the run's shared registry, of which this
    /// endpoint writes only shard `me`, so the record path never contends.
    obs: Observers,
    /// `tx[q]` produces into the ring read by processor `q`; `None` at
    /// `q == me`.
    tx: Vec<Option<FrameTx>>,
    /// `rx[q]` consumes the ring written by processor `q`.
    rx: Vec<Option<FrameRx>>,
    /// Typed-channel FIFOs, filled by draining the rings in arrival
    /// order: `(arrival stamp, payload)` per frame.
    stash: Stash,
    /// Payload-buffer recycler: consumed frames return their `Vec`s here
    /// and reassembly reuses them, so steady-state traffic allocates
    /// nothing.
    pool: BufPool,
    /// Frames sent per `(me, dst, tag)` and consumed per `(src, me, tag)`
    /// — the raw fabric's share of the run's traffic ledger.
    sent: PairCounts,
    recvd: PairCounts,
    /// Reliable-delivery state; `None` runs the raw fabric — or the
    /// protocol core is running right now with this endpoint as its
    /// wire (see [`with_core`](Endpoint::with_core)).
    rel: Option<Box<Reliable<'p>>>,
    /// One doorbell per processor; `bells[me]` is parked on, peers' are
    /// rung after publishing frames for them.
    bells: Arc<Vec<Doorbell>>,
    /// Shared liveness board: `status[q]` is `PEER_RUNNING`,
    /// `PEER_LINGERING`, `PEER_FINISHED`, or `PEER_DEAD`.
    status: Arc<Vec<AtomicU8>>,
    /// Bumped on every status transition; parks re-check it so no
    /// transition is ever slept through.
    epoch: Arc<AtomicU64>,
    /// Frames ever drained off the rings — what tells a park that fresh
    /// traffic arrived, and the liveness signal that resets a blocked
    /// *raw* receive's timeout window.
    ingested: u64,
    /// Spin briefly before parking. On when the host has ≥ 2 hardware
    /// threads: the peer may be publishing *right now*, and a short spin
    /// dodges the futex round-trip. On one core the peer cannot be
    /// running concurrently, so spinning only burns the time slice it
    /// needs — park immediately instead.
    spin: bool,
    gauge: Arc<Gauge>,
    recv_timeout: Duration,
    /// Checkpoint/restart policy; `None` runs without crash recovery.
    ckpt: Option<CheckpointCfg>,
    /// Steps the thread loop has taken.
    steps: u64,
}

impl<'p> Endpoint<'p> {
    /// Move every fully-arrived frame off the rings into the stash.
    fn drain(&mut self) {
        let Endpoint {
            rx,
            stash,
            pool,
            ingested,
            ..
        } = self;
        for (src, rx) in rx.iter_mut().enumerate() {
            if let Some(rx) = rx {
                *ingested += rx.drain(pool, |tag, arrives, payload| {
                    stash
                        .entry((ProcId(src), Tag(tag)))
                        .or_default()
                        .push_back((Time(arrives), payload));
                }) as u64;
            }
        }
    }

    /// Take and clear the recorded fatal protocol error, if any.
    fn take_fatal(&mut self) -> Option<MachineError> {
        self.rel.as_mut().and_then(|r| r.core.take_fatal())
    }

    /// Publish one frame onto the `me → dst` ring and ring the peer's
    /// doorbell. A frame to a peer that already finished or died stays
    /// undelivered, like a simulator queue nobody takes from. While the
    /// ring is full the stall hook keeps the system live: it wakes the
    /// consumer (chunks published so far are invisible to a parked peer
    /// otherwise), drains our own inboxes (two mutually-full endpoints
    /// would deadlock otherwise), and abandons the send if the peer
    /// dies — a half-written frame is harmless because nobody reads
    /// that ring again.
    fn ring_send(&mut self, dst: ProcId, tag: Tag, arrives_at: Time, payload: &[Word]) {
        if gone(self.status[dst.0].load(Ordering::SeqCst)) {
            return;
        }
        let (me, words) = (self.cpu.me().0, payload.len() as u64);
        let mut tx = self.tx[dst.0].take().expect("peer ring exists");
        let mut spins = 0u32;
        let mut stalled = false;
        let sent = tx.send(tag.0, arrives_at.0, payload, || {
            if !stalled {
                stalled = true;
                self.obs.metrics.count(me, Ctr::EnqueueStalls, 1);
                self.obs.metrics.flight(
                    me,
                    FlightKind::Stall,
                    dst.0 as u64,
                    tag.0 as u64,
                    words,
                    self.cpu.clock().0,
                );
            }
            self.bells[dst.0].ring();
            self.drain();
            if gone(self.status[dst.0].load(Ordering::SeqCst)) {
                return false;
            }
            spins += 1;
            if spins > 16 {
                std::thread::yield_now();
            }
            true
        });
        if sent {
            // Post-enqueue depth; the histogram max is the ring's
            // high-water mark in words.
            self.obs.metrics.ring_depth(me, tx.occupancy());
        }
        self.tx[dst.0] = Some(tx);
        if sent {
            self.bells[dst.0].ring();
        }
    }

    /// One doorbell-batched blocking cycle: arm the bell, re-check every
    /// wake source (fresh frames and status transitions since `epoch`),
    /// then park until `until`, a peer's ring, or a spurious wakeup.
    /// Callers loop and re-evaluate regardless of why the park returned.
    fn park(&mut self, until: Instant, epoch: u64) {
        let me = self.cpu.me().0;
        if self.spin {
            for _ in 0..64 {
                std::hint::spin_loop();
                let before = self.ingested;
                self.drain();
                if self.ingested != before || self.epoch.load(Ordering::SeqCst) != epoch {
                    self.obs.metrics.count(me, Ctr::SpinWakes, 1);
                    return;
                }
            }
        }
        self.bells[me].prepare();
        let before = self.ingested;
        self.drain();
        if self.ingested != before || self.epoch.load(Ordering::SeqCst) != epoch {
            self.bells[me].cancel();
            self.obs.metrics.count(me, Ctr::Wakes, 1);
            return;
        }
        self.obs.metrics.count(me, Ctr::Parks, 1);
        let now = self.cpu.clock().0;
        self.obs
            .metrics
            .flight(me, FlightKind::Park, NO_PEER, 0, 0, now);
        self.bells[me].park_until(until);
    }

    /// Run `f` on the protocol core with this endpoint as its wire. The
    /// reliable state is detached for the duration: that is how a frame
    /// the core transmits — dispatched through the fault plan back into
    /// [`send_ref`](Fabric::send_ref) — is told apart from a program
    /// send, and takes the raw path.
    fn with_core<R>(
        &mut self,
        f: impl FnOnce(&mut RelEndpoint<Instant>, &mut RingWire<'_, 'p>) -> R,
    ) -> R {
        let mut rel = self.rel.take().expect("reliable mode");
        let Reliable { core, fault } = &mut *rel;
        let out = f(core, &mut RingWire { ep: self, fault });
        self.rel = Some(rel);
        out
    }

    /// The protocol core, for reads that need no wire.
    fn core(&self) -> &RelEndpoint<Instant> {
        &self.rel.as_ref().expect("reliable mode").core
    }

    /// One NIC service pass, run before every program operation and every
    /// park: drain the rings, retire the windows held for peers whose
    /// programs are done, retire acknowledged sends, reassemble and
    /// acknowledge data on every stream, and retransmit what is overdue.
    fn rel_service(&mut self) {
        self.drain();
        self.with_core(|core, wire| {
            core.retire_done_peers(wire);
            core.pump_acks(wire);
            core.pump_all_data(wire);
            core.service_timers(wire);
        });
    }

    /// Reliable-mode block: wait until the `(src, tag)` stream has an
    /// in-order payload ready, retransmitting and (in checkpoint mode)
    /// keepaliving on schedule meanwhile. A peer that finished without
    /// satisfying the receive is an immediate deadlock, a peer that died
    /// an immediate [`MachineError::PeerDied`]; a *lingering* peer is
    /// neither — it may still owe the retransmission we are waiting for.
    ///
    /// The liveness window re-arms only on *stream progress* as the core
    /// counts it, never on raw arrivals: two starved endpoints trading
    /// keepalives or duplicate frames cannot keep each other "alive".
    fn rel_wait_for(&mut self, src: ProcId, tag: Tag) -> Result<(), MachineError> {
        let mut liveness = saturating_deadline(Instant::now(), self.recv_timeout);
        let mut last_progress = self.core().progress();
        loop {
            // Load the epoch and the peer's status *before* pumping: a
            // status observed before the drain can only under-report —
            // "finished and the stream is still not ready" is then a
            // sound deadlock verdict, because a finishing peer publishes
            // all its frames before announcing.
            let epoch = self.epoch.load(Ordering::SeqCst);
            let st = self.status[src.0].load(Ordering::SeqCst);
            self.rel_service();
            if let Some(e) = self.take_fatal() {
                return Err(e);
            }
            if self.core().has_ready(src, tag) {
                return Ok(());
            }
            match st {
                PEER_DEAD => {
                    return Err(MachineError::PeerDied {
                        proc: self.cpu.me(),
                        peer: src,
                    });
                }
                PEER_FINISHED => {
                    // A finished peer completed its linger: everything it
                    // ever sent is already in our streams. The awaited
                    // payload can never arrive.
                    return Err(MachineError::Deadlock {
                        waiting: vec![(self.cpu.me(), src, tag)],
                    });
                }
                _ => {}
            }
            let now = Instant::now();
            let progress = self.core().progress();
            if progress != last_progress {
                last_progress = progress;
                liveness = saturating_deadline(now, self.recv_timeout);
            }
            if now >= liveness {
                return Err(MachineError::RecvTimeout {
                    proc: self.cpu.me(),
                    src,
                    tag,
                    waited_ms: self.recv_timeout.as_millis() as u64,
                });
            }
            // Park until the liveness deadline, the next retransmission
            // timer, or the next keepalive, whichever is sooner. Arrivals
            // and status changes ring the doorbell, so the park never
            // oversleeps a real event.
            let wake = self.with_core(|core, wire| {
                core.keepalive(wire, src, tag, false);
                core.next_wake(src, tag)
            });
            self.park(wake.map_or(liveness, |t| t.min(liveness)), epoch);
        }
    }

    /// Post-completion linger: a finished process keeps answering the
    /// protocol — re-acking retransmitted data, retransmitting its own
    /// unacknowledged frames — until its send windows are empty. Without
    /// this, a dropped final ack would starve the peer's retransmissions
    /// against a dead thread.
    ///
    /// The linger *parks*: with every pending frame delivered but not
    /// yet stably acked (the checkpoint-mode steady state) there is no
    /// retransmission deadline to wait out; the peer's eventual ack — or
    /// its status transition — rings our doorbell.
    ///
    /// It is bounded like every other wait. While a peer we hold a
    /// window for is still executing its program, that peer's own
    /// bounded waits guarantee it a status transition, and the window is
    /// retired when it comes; once no such peer is left, `recv_timeout`
    /// without stream progress fails the linger with `RetriesExhausted`
    /// naming the stream whose window is still open.
    fn rel_linger(&mut self) -> Result<(), MachineError> {
        let mut backstop = saturating_deadline(Instant::now(), self.recv_timeout);
        let mut last_progress = self.core().progress();
        loop {
            let epoch = self.epoch.load(Ordering::SeqCst);
            self.rel_service();
            if let Some(e) = self.take_fatal() {
                return Err(e);
            }
            let Some(stalled) = self.core().open_window_error() else {
                return Ok(());
            };
            let now = Instant::now();
            let progress = self.core().progress();
            let status = &self.status;
            let peer_running = |p: ProcId| status[p.0].load(Ordering::SeqCst) == PEER_RUNNING;
            if progress != last_progress || self.core().open_peers().any(peer_running) {
                last_progress = progress;
                backstop = saturating_deadline(now, self.recv_timeout);
            }
            if now >= backstop {
                return Err(stalled);
            }
            let timer = self.core().earliest_deadline();
            self.park(timer.map_or(backstop, |t| t.min(backstop)), epoch);
        }
    }

    /// Step boundary housekeeping for crash faults: checkpoint first (so
    /// a crash landing on the same boundary restores with a zero-op
    /// replay), then roll the crash dice. A crash with checkpointing on
    /// rolls this processor — and only this processor — back to its last
    /// image; an unrecoverable one fails the thread with
    /// [`MachineError::Crashed`].
    fn crash_tick(&mut self, process: &mut dyn Process) -> Result<(), MachineError> {
        let me = self.cpu.me();
        let Some(rel) = self.rel.as_mut() else {
            return Ok(());
        };
        let ops = rel.fault.ops(me);
        if rel.core.checkpoint_due(ops, self.cpu.clock()) {
            self.with_core(|core, wire| core.checkpoint(wire, &*process, ops, true))?;
        }
        let rel = self.rel.as_mut().expect("reliable mode");
        let Some(at_op) = rel.fault.take_crash(me) else {
            return Ok(());
        };
        self.cpu.record(&mut self.obs, EventKind::Crash { at_op });
        let Some(cfg) = self.ckpt else {
            return Err(MachineError::Crashed { proc: me, at_op });
        };
        // Discard the dead incarnation's incoming traffic: everything
        // stashed plus everything fully arrived in the rings. A frame a
        // peer has only *partially* published stays in its reassembler —
        // clearing mid-frame state would misalign the word stream — and
        // any completed leftovers that land after this drain are absorbed
        // by sequence-number dedup like every other duplicate.
        self.drain();
        for (_, q) in self.stash.drain() {
            for (_, payload) in q {
                self.gauge.dec();
                self.pool.put(payload);
            }
        }
        self.cpu.reboot(cfg.reboot_cycles);
        std::thread::sleep(cfg.reboot_wall);
        self.with_core(|core, wire| core.restore(wire, process, at_op, true))
    }

    /// The program is done (reliable mode): a checkpointed run flushes
    /// its final image and switches to live acks; then the peers are told
    /// this program will consume nothing more, which lets them retire the
    /// windows they hold for it while it [lingers](Endpoint::rel_linger).
    fn rel_finish(&mut self, process: &dyn Process) -> Result<(), MachineError> {
        let me = self.cpu.me();
        if self.ckpt.is_some() {
            self.with_core(|core, wire| {
                let ops = wire.fault.ops(me);
                core.finish(wire, process, ops)
            })?;
        }
        announce(&self.status, &self.epoch, &self.bells, me.0, PEER_LINGERING);
        Ok(())
    }

    /// Block until a `(src, tag)` message is stashed, or fail after
    /// `recv_timeout` with no arrivals at all. Any arrival resets the
    /// window: as long as traffic flows the system is live and the
    /// awaited message may still be in someone's future. A peer that
    /// finished without sending is an immediate deadlock; one that died
    /// an immediate [`MachineError::PeerDied`].
    fn wait_for(&mut self, src: ProcId, tag: Tag) -> Result<(), MachineError> {
        let mut deadline = saturating_deadline(Instant::now(), self.recv_timeout);
        let mut last_ingested = self.ingested;
        loop {
            // Status before drain: "finished, and the frame still is not
            // here after draining" soundly means it never will be,
            // because a finishing peer publishes before announcing.
            let epoch = self.epoch.load(Ordering::SeqCst);
            let st = self.status[src.0].load(Ordering::SeqCst);
            self.drain();
            if self.stash.get(&(src, tag)).is_some_and(|q| !q.is_empty()) {
                return Ok(());
            }
            match st {
                PEER_DEAD => {
                    return Err(MachineError::PeerDied {
                        proc: self.cpu.me(),
                        peer: src,
                    });
                }
                PEER_FINISHED => {
                    return Err(MachineError::Deadlock {
                        waiting: vec![(self.cpu.me(), src, tag)],
                    });
                }
                _ => {}
            }
            if self.ingested != last_ingested {
                last_ingested = self.ingested;
                deadline = saturating_deadline(Instant::now(), self.recv_timeout);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(MachineError::RecvTimeout {
                    proc: self.cpu.me(),
                    src,
                    tag,
                    waited_ms: self.recv_timeout.as_millis() as u64,
                });
            }
            self.park(deadline, epoch);
        }
    }
}

impl Fabric for Endpoint<'_> {
    fn n_procs(&self) -> usize {
        self.n
    }

    fn cost_model(&self) -> &CostModel {
        self.cpu.cost()
    }

    fn tick_n(&mut self, p: ProcId, cycles: u64, ops: u64) {
        debug_assert_eq!(p, self.cpu.me(), "an endpoint only drives its own clock");
        let stalls = self.rel.as_mut().map(|r| r.fault.stall_cycles(p, ops));
        self.cpu
            .tick_n(&mut self.obs, cycles + stalls.unwrap_or(0), ops);
    }

    fn send_ref(&mut self, src: ProcId, dst: ProcId, tag: Tag, payload: &[Word]) {
        debug_assert_eq!(src, self.cpu.me(), "an endpoint only sends as itself");
        // Program sends route through the reliability layer when it is
        // on. Protocol frames (dispatched while `rel` is detached) take
        // the raw path below, and so does a send to itself, which the
        // processor remembers for the thread loop to surface.
        if self.rel.is_some() && src != dst {
            self.rel_service();
            self.with_core(|core, wire| core.send(wire, dst, tag, payload));
            return;
        }
        let stamps = self.cpu.send(&mut self.obs, dst, tag, payload.len());
        if let Some((_, arrives_at)) = stamps {
            *self.sent.entry((src, dst, tag)).or_insert(0) += 1;
            self.gauge.inc();
            self.ring_send(dst, tag, arrives_at, payload);
        }
    }

    fn try_recv_into(&mut self, dst: ProcId, src: ProcId, tag: Tag, out: &mut Vec<Word>) -> bool {
        debug_assert_eq!(dst, self.cpu.me(), "an endpoint only receives as itself");
        out.clear();
        if self.rel.is_some() {
            // The reliable stream hands over the whole frame; the
            // payload follows its sequence word.
            self.rel_service();
            let rel = self.rel.as_mut().expect("reliable mode");
            let Some((arrives, frame)) = rel.core.pop(src, tag) else {
                return false;
            };
            out.extend_from_slice(&frame[1..]);
            self.cpu.recv(&mut self.obs, src, tag, arrives, out.len());
            self.pool.put(frame);
            return true;
        }
        self.drain();
        let Some((arrives, payload)) = self
            .stash
            .get_mut(&(src, tag))
            .and_then(VecDeque::pop_front)
        else {
            return false;
        };
        out.extend_from_slice(&payload);
        *self.recvd.entry((src, dst, tag)).or_insert(0) += 1;
        self.cpu.recv(&mut self.obs, src, tag, arrives, out.len());
        self.gauge.dec();
        self.pool.put(payload);
        true
    }

    fn send_lost(&mut self, src: ProcId, dst: ProcId, tag: Tag, words: usize) {
        debug_assert_eq!(src, self.cpu.me(), "an endpoint only sends as itself");
        self.cpu.send_lost(&mut self.obs, dst, tag, words);
    }

    fn inject_ref(&mut self, src: ProcId, dst: ProcId, tag: Tag, payload: &[Word], extra: u64) {
        debug_assert_eq!(src, self.cpu.me(), "an endpoint only sends as itself");
        let (_, arrives_at) = self.cpu.inject_stamp(&self.obs, payload.len(), extra);
        self.gauge.inc();
        self.ring_send(dst, tag, arrives_at, payload);
    }

    fn metrics(&self) -> Option<&MetricsRegistry> {
        Some(&self.obs.metrics)
    }
}

/// A ring endpoint as the protocol core's [`Wire`]: wall-clock
/// deadlines, frames that move through the stash and the rings under the
/// endpoint's own fault plan, and the shared status board for peers'
/// fates.
struct RingWire<'a, 'p> {
    ep: &'a mut Endpoint<'p>,
    fault: &'a mut FaultState<'p>,
}

impl Wire<Instant> for RingWire<'_, '_> {
    fn now(&self) -> Instant {
        Instant::now()
    }

    fn clock(&self) -> Time {
        self.ep.cpu.clock()
    }

    fn transmit(&mut self, dst: ProcId, tag: Tag, frame: &[Word]) {
        let me = self.ep.cpu.me();
        self.fault.dispatch(&mut *self.ep, me, dst, tag, frame);
    }

    fn take(&mut self, src: ProcId, tag: Tag) -> Option<(Time, Vec<Word>)> {
        let frame = self.ep.stash.get_mut(&(src, tag))?.pop_front()?;
        self.ep.gauge.dec();
        Some(frame)
    }

    fn incoming(&self, out: &mut Vec<(ProcId, Tag)>) {
        let waiting = self.ep.stash.iter().filter(|(_, q)| !q.is_empty());
        out.extend(
            waiting
                .map(|(&k, _)| k)
                .filter(|&(_, tag)| !is_ack_tag(tag)),
        );
    }

    fn recycle(&mut self, buf: Vec<Word>) {
        self.ep.pool.put(buf);
    }

    fn busy(&mut self, cycles: u64) {
        self.ep.cpu.busy(&mut self.ep.obs, cycles);
    }

    fn record(&mut self, event: EventKind) {
        self.ep.cpu.record(&mut self.ep.obs, event);
    }

    fn metrics(&self) -> &MetricsRegistry {
        &self.ep.obs.metrics
    }

    fn peer_done(&self, peer: ProcId) -> bool {
        self.ep.status[peer.0].load(Ordering::SeqCst) != PEER_RUNNING
    }
}

/// Run one process against its endpoint: the per-thread step loop shared
/// by every configuration.
fn drive<P: Process>(
    process: &mut P,
    ep: &mut Endpoint<'_>,
    budget: u64,
) -> Result<(), MachineError> {
    let me = ep.cpu.me();
    if ep.ckpt.is_some() {
        // Initial checkpoint: a restore target exists whatever the crash
        // point. Free — the launch image exists before the clocks start.
        ep.with_core(|core, wire| core.checkpoint(wire, &*process, 0, false))?;
    }
    loop {
        if ep.steps >= budget {
            return Err(MachineError::StepBudgetExceeded { budget });
        }
        // The raw fabric runs in batches. The protocol shell goes step by
        // step: it checkpoints and rolls the crash dice at every op.
        let (ran, step) = if ep.rel.is_some() {
            (1, process.step(ep, me)?)
        } else {
            let left = budget - ep.steps;
            process.step_batch(ep, me, left)?
        };
        ep.steps += ran;
        if ep.cpu.take_self_send() {
            return Err(MachineError::SelfSend { proc: me });
        }
        if let Some(e) = ep.take_fatal() {
            return Err(e);
        }
        match step {
            Step::Ran => {
                ep.crash_tick(process)?;
            }
            Step::Done => {
                if ep.rel.is_some() {
                    ep.rel_finish(&*process)?;
                }
                ep.cpu.finish(&mut ep.obs);
                break;
            }
            Step::BlockedOnRecv { src, tag } => {
                if ep.rel.is_some() {
                    ep.rel_wait_for(src, tag)?;
                } else {
                    ep.wait_for(src, tag)?;
                }
            }
        }
    }
    if ep.rel.is_some() {
        ep.rel_linger()?;
    }
    Ok(())
}

/// Drives one [`Process`] per OS thread to completion, under a borrowed
/// [`RunConfig`], and merges the per-thread tallies into the same
/// [`RunReport`] the [`Scheduler`](crate::Scheduler) produces.
#[derive(Debug, Clone, Copy)]
pub struct ThreadedRunner<'a> {
    cost: CostModel,
    config: &'a RunConfig,
}

impl ThreadedRunner<'static> {
    /// A runner under the default [`RunConfig`]: raw fabric, the default
    /// receive timeout, no step budget.
    pub fn new(cost: CostModel) -> Self {
        ThreadedRunner {
            cost,
            config: &DEFAULT,
        }
    }
}

impl<'a> ThreadedRunner<'a> {
    /// A runner under `config`. Whatever [`RunConfig::backend`] says,
    /// this runs threads; [`RunConfig::quantum`] means nothing here.
    pub fn with_config(cost: CostModel, config: &'a RunConfig) -> Self {
        ThreadedRunner { cost, config }
    }

    /// Run `processes[p]` on its own thread as processor `p` until every
    /// process finishes — on the raw fabric or, when
    /// [`RunConfig::protocol`] says so, under the reliable-delivery
    /// protocol with wall-clock retransmission deadlines. Under a fault
    /// plan the per-transmission decisions stay deterministic, but *how
    /// many* transmissions occur depends on real-time retransmission
    /// races, so only program-visible results — outputs and logical pair
    /// counts — are reproducible, not the protocol tallies.
    ///
    /// # Errors
    ///
    /// The root-most error any thread hit, ranked
    /// [`MachineError::Crashed`] (unrecoverable crash) >
    /// [`MachineError::ProcessFault`] >
    /// [`MachineError::StepBudgetExceeded`] >
    /// [`MachineError::RetriesExhausted`] (starved sender) >
    /// [`MachineError::RecvTimeout`] (cyclic deadlock) >
    /// [`MachineError::Deadlock`] (awaiting a finished peer) >
    /// [`MachineError::PeerDied`] (awaiting a dead peer) — later ranks
    /// are usually cascades of earlier ones, and which *thread* fails
    /// first is a wall-clock race the ranking hides.
    ///
    /// A configuration that does not fit (see
    /// [`MachineError::InvalidConfig`]) fails before any thread starts.
    ///
    /// # Panics
    ///
    /// Panics if `processes` is empty.
    pub fn run<P: Process + Send>(&self, processes: &mut [P]) -> Result<RunReport, MachineError> {
        let (report, err) = self.run_with_report(processes);
        match err {
            Some(e) => Err(e),
            None => Ok(report),
        }
    }

    /// [`run`](Self::run), but the merged [`RunReport`] survives failure:
    /// whatever per-endpoint state exists — partial traffic counts,
    /// traces, the flight recorder — is harvested and merged *before* the
    /// ranked root error is reported, so an early `PeerDied`, exhausted
    /// retry, or deadlock still comes with its diagnostics. A processor
    /// whose thread panicked contributes empty per-processor slots (its
    /// endpoint died with the stack); everyone else's state is intact,
    /// and the shared metrics registry retains even the panicking
    /// processor's counters.
    pub fn run_with_report<P: Process + Send>(
        &self,
        processes: &mut [P],
    ) -> (RunReport, Option<MachineError>) {
        let n = processes.len();
        assert!(n > 0, "a machine needs at least one processor");
        let gauge = Arc::new(Gauge::default());
        let registry = self.config.metrics.registry(n);
        let results = match self.config.validate(n, true) {
            Ok(()) => self.run_threads(processes, &gauge, &registry),
            // Nothing ran: every processor holds an empty slot.
            Err(e) => (0..n)
                .map(|p| (None, (p == 0).then(|| e.clone())))
                .collect(),
        };

        // When one thread fails, its peers cascade into secondary errors:
        // report the root cause, not whichever thread failed first.
        let mut worst: Option<MachineError> = None;
        let mut done: Vec<Option<Endpoint>> = Vec::with_capacity(n);
        for (d, e) in results {
            done.push(d);
            if let Some(e) = e {
                worst = Some(match worst.take() {
                    Some(w) => w.or_root(e),
                    None => e,
                });
            }
        }

        let mut ledger = Ledger::default();
        let mut steps: u64 = 0;
        let mut cpus = Vec::with_capacity(n);
        let mut traces = Vec::with_capacity(n);
        let mut cores = Vec::new();
        let mut injected = FaultCounts::default();
        for (p, ep) in done.into_iter().enumerate() {
            let Some(ep) = ep else {
                // A panicked thread holds a fresh processor's slots, so
                // the per-processor vectors stay index-aligned with
                // processor ids.
                cpus.push(Cpu::new(ProcId(p), self.cost));
                traces.push(self.config.trace());
                continue;
            };
            if let Some(r) = ep.rel {
                // The endpoint's own maps counted wire frames; the
                // program-level ledger is the core's.
                injected.merge(&r.fault.counts());
                cores.push(r.core);
            } else {
                ledger.sent.extend(ep.sent);
                ledger.recvd.extend(ep.recvd);
            }
            steps += ep.steps;
            cpus.push(ep.cpu);
            traces.push(ep.obs.trace);
        }
        if self.config.protocol().is_some() {
            let leftover = gauge.cur.load(Ordering::Relaxed) as usize;
            let checkpointed = self.config.checkpoints.is_some();
            ledger = Ledger::protocol(cores.iter(), injected, leftover, checkpointed);
        }
        let report = RunReport::assemble(
            &cpus,
            steps,
            Trace::merge(traces),
            registry.snapshot(),
            gauge.max.load(Ordering::Relaxed),
            ledger,
        );
        (report, worst)
    }

    /// Wire up the rings and endpoints, run every process on its own
    /// scoped thread, and hand back each thread's endpoint with the error
    /// it ended on. A panicked thread's endpoint died with its stack.
    fn run_threads<P: Process + Send>(
        &self,
        processes: &mut [P],
        gauge: &Arc<Gauge>,
        registry: &Arc<MetricsRegistry>,
    ) -> Vec<(Option<Endpoint<'a>>, Option<MachineError>)> {
        let n = processes.len();
        let config = self.config;
        let bells: Arc<Vec<Doorbell>> = Arc::new((0..n).map(|_| Doorbell::new()).collect());
        let status: Arc<Vec<AtomicU8>> =
            Arc::new((0..n).map(|_| AtomicU8::new(PEER_RUNNING)).collect());
        let epoch = Arc::new(AtomicU64::new(0));
        // One preallocated SPSC ring per ordered pair: txs[s][d] produces
        // into the ring rxs[d][s] consumes.
        let ring_words = config.ring_words.unwrap_or_else(|| default_ring_words(n));
        let multicore = std::thread::available_parallelism().is_ok_and(|p| p.get() > 1);
        let mut txs: Vec<Vec<Option<FrameTx>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        let mut rxs: Vec<Vec<Option<FrameRx>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        for src in 0..n {
            for dst in 0..n {
                if src != dst {
                    let (tx, rx) = ring(ring_words);
                    txs[src][dst] = Some(FrameTx::new(tx));
                    rxs[dst][src] = Some(FrameRx::new(rx));
                }
            }
        }
        let protocol = config.protocol();
        let crashes_spent = Arc::new(AtomicU32::new(0));
        let mut endpoints: Vec<Endpoint<'a>> = txs
            .into_iter()
            .zip(rxs)
            .enumerate()
            .map(|(p, (tx, rx))| {
                let mut cpu = Cpu::new(ProcId(p), self.cost);
                cpu.configure(config.slowdown(p), protocol.is_some());
                Endpoint {
                    n,
                    cpu,
                    obs: Observers {
                        trace: config.trace(),
                        metrics: Arc::clone(registry),
                    },
                    tx,
                    rx,
                    stash: HashMap::new(),
                    pool: BufPool::new(),
                    sent: PairCounts::new(),
                    recvd: PairCounts::new(),
                    rel: protocol.map(|cfg| {
                        let ack_cost = ack_cost(&self.cost);
                        Box::new(Reliable {
                            core: RelEndpoint::new(ProcId(p), cfg, ack_cost, config.checkpoints),
                            fault: FaultState::sharing_crashes(
                                &config.faults,
                                Arc::clone(&crashes_spent),
                            ),
                        })
                    }),
                    bells: Arc::clone(&bells),
                    status: Arc::clone(&status),
                    epoch: Arc::clone(&epoch),
                    ingested: 0,
                    spin: multicore,
                    gauge: Arc::clone(gauge),
                    recv_timeout: config.recv_timeout(),
                    ckpt: config.checkpoints,
                    steps: 0,
                }
            })
            .collect();

        let budget = config.step_budget;
        std::thread::scope(|s| {
            let handles: Vec<_> = processes
                .iter_mut()
                .zip(endpoints.drain(..))
                .enumerate()
                .map(|(p, (process, mut ep))| {
                    s.spawn(move || {
                        ep.bells[p].register();
                        // The guard posts `finished` only on the success
                        // path; an error return or a panic unwind drops
                        // it unfinished and posts `dead`, waking every
                        // blocked peer immediately.
                        let mut guard = StatusGuard {
                            status: Arc::clone(&ep.status),
                            bells: Arc::clone(&ep.bells),
                            epoch: Arc::clone(&ep.epoch),
                            me: p,
                            finished: false,
                        };
                        let err = drive(process, &mut ep, budget).err();
                        if err.is_none() {
                            guard.finish();
                        }
                        // The endpoint goes back whole, also on an
                        // error: its partial tallies (clock, traffic
                        // counts, trace) are the diagnostics the failure
                        // report needs.
                        (ep, err)
                    })
                })
                .collect();
            handles
                .into_iter()
                .enumerate()
                .map(|(p, h)| {
                    // A panicked thread harvested nothing; everything it
                    // recorded into the shared registry survives.
                    h.join().map(|(d, e)| (Some(d), e)).unwrap_or_else(|_| {
                        (
                            None,
                            Some(MachineError::ProcessFault {
                                proc: ProcId(p),
                                message: "process thread panicked".into(),
                            }),
                        )
                    })
                })
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MetricsMode;
    use crate::fault::FaultPlan;
    use crate::reliable::RelConfig;
    use crate::scripted::{Action, Scripted};
    use pdc_testkit::{within, THREADS_DEADLINE};

    /// The default configuration with a receive timeout of `recv_timeout`.
    fn timeout(recv_timeout: Duration) -> RunConfig {
        RunConfig {
            backend: Backend::Threaded { recv_timeout },
            ..RunConfig::default()
        }
    }

    /// A short-RTO reliable run under `faults`, checkpointed as `checkpoints` says.
    fn faulty(faults: FaultPlan, checkpoints: Option<CheckpointCfg>) -> RunConfig {
        RunConfig {
            faults,
            reliable: Some(fast_rel()),
            checkpoints,
            ..RunConfig::default()
        }
    }

    #[test]
    fn ping_pong_matches_simulator_makespan() {
        let c = CostModel::ipsc2();
        let mut procs = vec![
            Scripted::new(vec![Action::Send(1, 0, vec![1]), Action::Recv(1, 1)]),
            Scripted::new(vec![Action::Recv(0, 0), Action::Send(0, 1, vec![2])]),
        ];
        let report = ThreadedRunner::new(c).run(&mut procs).unwrap();
        assert_eq!(report.stats.network.messages, 2);
        assert_eq!(report.undelivered, 0);
        // Same critical path the simulator computes: the logical clocks
        // are driven by arrival stamps, not wall time.
        let expected = 2 * (c.send_cost(1) + c.flight + c.recv_cost(1));
        assert_eq!(report.stats.makespan().0, expected);
        assert_eq!(procs[0].received, vec![vec![2]]);
    }

    #[test]
    fn pair_counts_recorded() {
        let mut procs = vec![
            Scripted::new(vec![
                Action::Send(1, 3, vec![1]),
                Action::Send(1, 3, vec![2]),
                Action::Send(1, 4, vec![3]),
            ]),
            Scripted::new(vec![
                Action::Recv(0, 3),
                Action::Recv(0, 3),
                Action::Recv(0, 4),
            ]),
        ];
        let report = ThreadedRunner::new(CostModel::zero())
            .run(&mut procs)
            .unwrap();
        assert_eq!(
            report.pair_messages.get(&(ProcId(0), ProcId(1), Tag(3))),
            Some(&2)
        );
        assert_eq!(
            report.pair_messages.get(&(ProcId(0), ProcId(1), Tag(4))),
            Some(&1)
        );
        // FIFO within the typed channel.
        assert_eq!(procs[1].received, vec![vec![1], vec![2], vec![3]]);
    }

    #[test]
    fn cyclic_deadlock_times_out() {
        let mut procs = vec![
            Scripted::new(vec![Action::Recv(1, 0)]),
            Scripted::new(vec![Action::Recv(0, 0)]),
        ];
        let err =
            ThreadedRunner::with_config(CostModel::zero(), &timeout(Duration::from_millis(50)))
                .run(&mut procs)
                .unwrap_err();
        assert!(
            matches!(err, MachineError::RecvTimeout { .. }),
            "expected timeout, got {err}"
        );
    }

    #[test]
    fn waiting_on_finished_peer_is_deadlock() {
        // P1 waits for a message P0 never sends; P0 finishes immediately,
        // so the status board detects the hang-up without burning the
        // timeout.
        let mut procs = vec![
            Scripted::new(vec![]),
            Scripted::new(vec![Action::Recv(0, 7)]),
        ];
        let err = ThreadedRunner::with_config(CostModel::zero(), &timeout(Duration::from_secs(30)))
            .run(&mut procs)
            .unwrap_err();
        match err {
            MachineError::Deadlock { waiting } => {
                assert_eq!(waiting, vec![(ProcId(1), ProcId(0), Tag(7))]);
            }
            other => panic!("expected deadlock, got {other}"),
        }
    }

    #[test]
    fn dying_peer_unblocks_receivers_immediately() {
        // P0 aborts with its own error; P1 blocks with a 60 s timeout.
        // The status board must fail P1's receive immediately (as the
        // internal PeerDied cascade), and the final report carries P0's
        // root fault — PeerDied ranks below every real error.
        let mut procs = vec![
            Scripted::new(vec![Action::Fail]),
            Scripted::new(vec![Action::Recv(0, 0)]),
        ];
        let t0 = Instant::now();
        let err = ThreadedRunner::with_config(CostModel::zero(), &timeout(Duration::from_secs(60)))
            .run(&mut procs)
            .unwrap_err();
        let elapsed = t0.elapsed();
        assert!(elapsed < Duration::from_secs(5), "took {elapsed:?}");
        assert!(
            matches!(
                err,
                MachineError::ProcessFault {
                    proc: ProcId(0),
                    ..
                }
            ),
            "expected the dead peer's root fault, got {err}"
        );
    }

    #[test]
    fn failed_run_report_retains_partial_diagnostics() {
        // Regression: early error paths (process fault, PeerDied
        // cascade, deadlock) used to drop every per-endpoint tally.
        // P0 delivers one message and then blocks forever; P1 consumes
        // it and faults. The merged report must still carry the
        // delivered traffic and the always-on flight history.
        let mut procs = vec![
            Scripted::new(vec![Action::Send(1, 3, vec![1, 2]), Action::Recv(1, 9)]),
            Scripted::new(vec![Action::Recv(0, 3), Action::Fail]),
        ];
        let (report, err) =
            ThreadedRunner::with_config(CostModel::ipsc2(), &timeout(Duration::from_secs(60)))
                .run_with_report(&mut procs);
        let err = err.expect("the run fails");
        assert!(
            matches!(
                err,
                MachineError::ProcessFault {
                    proc: ProcId(1),
                    ..
                }
            ),
            "expected P1's root fault, got {err}"
        );
        assert_eq!(
            report.pair_messages.get(&(ProcId(0), ProcId(1), Tag(3))),
            Some(&1),
            "delivered traffic survives the failure"
        );
        assert_eq!(report.stats.network.messages, 1);
        assert_eq!(report.stats.procs.len(), 2, "slots stay index-aligned");
        assert!(report.metrics.procs[0]
            .flight
            .iter()
            .any(|e| e.kind == FlightKind::Send));
        assert!(report.metrics.procs[1]
            .flight
            .iter()
            .any(|e| e.kind == FlightKind::Recv));
    }

    #[test]
    fn panicked_processor_holds_empty_slot_in_merged_report() {
        // A panicking thread can harvest nothing, but its peers' partial
        // tallies must survive and the per-processor vectors must keep
        // their processor-id alignment.
        let mut procs = vec![
            Scripted::new(vec![Action::Send(1, 3, vec![7]), Action::Recv(1, 9)]),
            Scripted::new(vec![Action::Panic]),
        ];
        let (report, err) =
            ThreadedRunner::with_config(CostModel::ipsc2(), &timeout(Duration::from_secs(60)))
                .run_with_report(&mut procs);
        assert!(err.is_some(), "the run fails");
        assert_eq!(
            report.pair_messages.get(&(ProcId(0), ProcId(1), Tag(3))),
            Some(&1),
            "the surviving processor's send is reported"
        );
        assert_eq!(report.stats.procs.len(), 2);
        assert_eq!(report.stats.clocks.len(), 2);
        assert!(report.metrics.procs[0]
            .flight
            .iter()
            .any(|e| e.kind == FlightKind::Send));
    }

    #[test]
    fn panicking_peer_unblocks_receivers_immediately() {
        // Same as above through the unwind path: the status guard's Drop
        // posts `dead` during the panic unwind.
        let mut procs = vec![
            Scripted::new(vec![Action::Panic]),
            Scripted::new(vec![Action::Recv(0, 0)]),
        ];
        let t0 = Instant::now();
        let err = ThreadedRunner::with_config(CostModel::zero(), &timeout(Duration::from_secs(60)))
            .run(&mut procs)
            .unwrap_err();
        let elapsed = t0.elapsed();
        assert!(elapsed < Duration::from_secs(5), "took {elapsed:?}");
        assert!(
            matches!(
                err,
                MachineError::ProcessFault {
                    proc: ProcId(0),
                    ..
                }
            ),
            "expected the panicked peer's fault, got {err}"
        );
    }

    #[test]
    fn unreceived_message_counts_as_undelivered() {
        let mut procs = vec![
            Scripted::new(vec![Action::Send(1, 0, vec![1, 2, 3])]),
            Scripted::new(vec![Action::Compute(1)]),
        ];
        let report = ThreadedRunner::new(CostModel::zero())
            .run(&mut procs)
            .unwrap();
        assert_eq!(report.undelivered, 1);
    }

    #[test]
    fn step_budget_guards_runaway() {
        struct Forever;
        impl Process for Forever {
            fn step(&mut self, fabric: &mut dyn Fabric, me: ProcId) -> Result<Step, MachineError> {
                fabric.tick(me, 1);
                Ok(Step::Ran)
            }
        }
        let mut procs = vec![Forever];
        let config = RunConfig {
            step_budget: 1000,
            ..RunConfig::default()
        };
        let err = ThreadedRunner::with_config(CostModel::zero(), &config)
            .run(&mut procs)
            .unwrap_err();
        assert!(matches!(err, MachineError::StepBudgetExceeded { .. }));
    }

    #[test]
    fn slowdowns_scale_local_work() {
        let mut procs = vec![
            Scripted::new(vec![Action::Compute(10)]),
            Scripted::new(vec![Action::Compute(10)]),
        ];
        let config = RunConfig {
            slowdowns: vec![3, 1],
            ..RunConfig::default()
        };
        let report = ThreadedRunner::with_config(CostModel::zero(), &config)
            .run(&mut procs)
            .unwrap();
        assert_eq!(report.stats.clocks[0], Time(30));
        assert_eq!(report.stats.clocks[1], Time(10));
    }

    #[test]
    fn pending_triples_reported_at_teardown() {
        let mut procs = vec![
            Scripted::new(vec![
                Action::Send(1, 0, vec![1]),
                Action::Send(1, 3, vec![2]),
            ]),
            Scripted::new(vec![Action::Recv(0, 0)]),
        ];
        let report = ThreadedRunner::new(CostModel::zero())
            .run(&mut procs)
            .unwrap();
        assert_eq!(report.undelivered, 1);
        assert_eq!(report.pending, vec![(ProcId(0), ProcId(1), Tag(3), 1)]);
    }

    #[test]
    fn self_send_surfaces_as_error() {
        let mut procs = vec![
            Scripted::new(vec![Action::Send(0, 0, vec![1])]),
            Scripted::new(vec![]),
        ];
        let err = ThreadedRunner::new(CostModel::zero())
            .run(&mut procs)
            .unwrap_err();
        assert_eq!(err, MachineError::SelfSend { proc: ProcId(0) });
    }

    #[test]
    fn tiny_rings_match_default_capacity_bit_for_bit() {
        // 8-word rings cannot hold one 22-word frame: every send runs the
        // chunked slow path and the consumer reassembles across hundreds
        // of wraparounds. Outputs and logical clocks must be identical to
        // the default-capacity run — capacity is invisible to the
        // program.
        let c = CostModel::ipsc2();
        let build = || {
            let mut a = Vec::new();
            let mut b = Vec::new();
            for i in 0..50i64 {
                a.push(Action::Send(1, 0, (0..20).map(|w| w + i).collect()));
                b.push(Action::Recv(0, 0));
            }
            vec![Scripted::new(a), Scripted::new(b)]
        };
        let mut tiny = build();
        let config = RunConfig {
            ring_words: Some(8),
            ..RunConfig::default()
        };
        let tiny_report = ThreadedRunner::with_config(c, &config)
            .run(&mut tiny)
            .unwrap();
        let mut dflt = build();
        let dflt_report = ThreadedRunner::new(c).run(&mut dflt).unwrap();
        assert_eq!(tiny[1].received, dflt[1].received);
        assert_eq!(
            tiny_report.stats.makespan().0,
            dflt_report.stats.makespan().0,
            "ring capacity is invisible to logical time"
        );
        assert_eq!(tiny_report.undelivered, 0);
    }

    /// A short RTO so lossy tests retransmit promptly.
    fn fast_rel() -> RelConfig {
        RelConfig {
            rto_wall: Duration::from_millis(2),
            ..RelConfig::default()
        }
    }

    fn stream_scripts() -> Vec<Scripted> {
        let mut a = Vec::new();
        let mut b = Vec::new();
        for i in 0..10 {
            a.push(Action::Send(1, 0, vec![i]));
            b.push(Action::Recv(0, 0));
        }
        a.push(Action::Recv(1, 1));
        b.push(Action::Send(0, 1, vec![99]));
        vec![Scripted::new(a), Scripted::new(b)]
    }

    #[test]
    fn reliable_empty_plan_delivers_in_order() {
        within(THREADS_DEADLINE, || {
            let mut procs = stream_scripts();
            let config = faulty(FaultPlan::none(), None);
            let report = ThreadedRunner::with_config(CostModel::ipsc2(), &config)
                .run(&mut procs)
                .unwrap();
            let expected: Vec<Vec<Word>> = (0..10).map(|i| vec![i]).collect();
            assert_eq!(procs[1].received, expected);
            assert_eq!(report.undelivered, 0);
            assert!(report.pending.is_empty());
            let fr = report.fault.expect("reliable run carries a report");
            assert_eq!(fr.injected.total(), 0);
            assert_eq!(
                report.pair_messages.get(&(ProcId(0), ProcId(1), Tag(0))),
                Some(&10),
                "logical pair counts see program messages, not protocol frames"
            );
        });
    }

    #[test]
    fn reliable_lossy_plan_recovers_exactly_once_in_order() {
        within(THREADS_DEADLINE, || {
            let plan = FaultPlan::seeded(7)
                .with_drops(250)
                .with_dups(150)
                .with_delays(100, 5_000)
                .with_reorders(100)
                .with_fault_budget(6);
            let mut procs = stream_scripts();
            let config = faulty(plan, None);
            let report = ThreadedRunner::with_config(CostModel::ipsc2(), &config)
                .run(&mut procs)
                .unwrap();
            let expected: Vec<Vec<Word>> = (0..10).map(|i| vec![i]).collect();
            assert_eq!(procs[1].received, expected, "exactly-once, in-order");
            assert_eq!(report.undelivered, 0);
            let fr = report.fault.expect("reliable run carries a report");
            assert!(fr.injected.total() > 0, "the plan injected faults");
        });
    }

    #[test]
    fn tiny_rings_survive_a_lossy_plan() {
        within(THREADS_DEADLINE, || {
            // Retransmissions, dups, and acks all squeezed through 16-word
            // rings: the reliable protocol must not care how the wire is
            // chunked.
            let plan = FaultPlan::seeded(11)
                .with_drops(250)
                .with_dups(150)
                .with_fault_budget(4);
            let mut procs = stream_scripts();
            let config = RunConfig {
                ring_words: Some(16),
                ..faulty(plan, None)
            };
            let report = ThreadedRunner::with_config(CostModel::ipsc2(), &config)
                .run(&mut procs)
                .unwrap();
            let expected: Vec<Vec<Word>> = (0..10).map(|i| vec![i]).collect();
            assert_eq!(procs[1].received, expected, "exactly-once, in-order");
            assert_eq!(report.undelivered, 0);
        });
    }

    #[test]
    fn reliable_black_hole_exhausts_retries() {
        within(THREADS_DEADLINE, || {
            let plan = FaultPlan::seeded(0).with_black_hole(ProcId(0), ProcId(1), Tag(0));
            let cfg = RelConfig {
                rto_wall: Duration::from_millis(2),
                max_retries: 3,
                ..RelConfig::default()
            };
            let mut procs = vec![
                Scripted::new(vec![Action::Send(1, 0, vec![1])]),
                Scripted::new(vec![Action::Recv(0, 0)]),
            ];
            let config = RunConfig {
                faults: plan,
                reliable: Some(cfg),
                ..timeout(Duration::from_secs(30))
            };
            let err = ThreadedRunner::with_config(CostModel::zero(), &config)
                .run(&mut procs)
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
        });
    }

    #[test]
    fn linger_deadline_saturates_instead_of_overflowing() {
        // `Instant + Duration::MAX` panics; the saturating helper must
        // instead land on a far-future deadline ("never"), not clamp to
        // now (which would busy-spin the linger loop).
        let base = Instant::now();
        let d = saturating_deadline(base, Duration::MAX);
        assert!(
            d >= base + Duration::from_secs(3600),
            "far future, got {d:?}"
        );
        assert_eq!(saturating_deadline(base, Duration::ZERO), base);
        assert_eq!(
            saturating_deadline(base, Duration::from_millis(1)),
            base + Duration::from_millis(1)
        );
    }

    #[test]
    fn linger_parks_instead_of_polling() {
        within(THREADS_DEADLINE, || {
            // P0 finishes instantly but must linger: in checkpoint mode its
            // one frame is delivered yet acked only at the stable floor (0),
            // so the window stays open — with no retransmission deadline —
            // until P1's final live acks, which P1 delays behind a 150 ms
            // sleep. The old linger polled that state at 1 ms (~150 wakes
            // here); the parked linger wakes only on real events.
            let mut procs = vec![
                Scripted::new(vec![Action::Send(1, 0, vec![1])]),
                Scripted::new(vec![
                    Action::Recv(0, 0),
                    Action::Sleep(Duration::from_millis(150)),
                ]),
            ];
            let config = RunConfig {
                checkpoints: Some(CheckpointCfg::every(1_000_000)),
                metrics: MetricsMode::Full,
                ..RunConfig::default()
            };
            let report = ThreadedRunner::with_config(CostModel::zero(), &config)
                .run(&mut procs)
                .unwrap();
            assert_eq!(report.undelivered, 0);
            assert_eq!(procs[1].received, vec![vec![1]]);
            let wakes = report.metrics.total(Ctr::Parks);
            assert!(
                wakes < 25,
                "linger should park, not poll: {wakes} wakes across both threads"
            );
        });
    }

    /// The sim recovery tests' stream pair, with computes interleaved on
    /// the sender so its charged-op counter (which crash and checkpoint
    /// points key on) advances.
    fn crash_scripts() -> Vec<Scripted> {
        let mut a = Vec::new();
        let mut b = Vec::new();
        for i in 0..10 {
            a.push(Action::Send(1, 0, vec![i]));
            a.push(Action::Compute(10));
            b.push(Action::Recv(0, 0));
        }
        a.push(Action::Recv(1, 1));
        b.push(Action::Send(0, 1, vec![99]));
        vec![Scripted::new(a), Scripted::new(b)]
    }

    #[test]
    fn sender_crash_recovery_is_transparent_on_threads() {
        within(THREADS_DEADLINE, || {
            let mut clean = crash_scripts();
            let config = faulty(FaultPlan::none(), None);
            let clean_report = ThreadedRunner::with_config(CostModel::ipsc2(), &config)
                .run(&mut clean)
                .unwrap();
            let plan = FaultPlan::seeded(3).with_crash(ProcId(0), 5);
            // Amortized pacing off: this test pins exact checkpoint op
            // boundaries (crash at 5 must restore from the op-4 snapshot).
            let ckpt = CheckpointCfg::every(2)
                .with_amortization(0)
                .with_reboot(5_000, Duration::from_millis(1));
            let mut procs = crash_scripts();
            let config = faulty(plan, Some(ckpt));
            let report = ThreadedRunner::with_config(CostModel::ipsc2(), &config)
                .run(&mut procs)
                .unwrap();
            assert_eq!(
                procs[1].received, clean[1].received,
                "recovered output == fault-free output"
            );
            assert_eq!(procs[0].received, vec![vec![99]]);
            assert_eq!(report.pair_messages, clean_report.pair_messages);
            assert_eq!(report.undelivered, 0);
            let rec = report.recovery.expect("checkpointed run carries a report");
            assert_eq!(rec.crashes_survived, 1);
            assert!(rec.checkpoints_taken >= 3, "{rec:?}");
            assert_eq!(rec.replayed_ops, 1, "crash at op 5, checkpoint at op 4");
            assert_eq!(report.fault.unwrap().injected.crashes, 1);
        });
    }

    #[test]
    fn receiver_crash_replays_the_lost_suffix_on_threads() {
        within(THREADS_DEADLINE, || {
            let plan = FaultPlan::seeded(0).with_crash(ProcId(1), 0);
            let mut procs = crash_scripts();
            let config = faulty(plan, Some(CheckpointCfg::every(4)));
            let report = ThreadedRunner::with_config(CostModel::ipsc2(), &config)
                .run(&mut procs)
                .unwrap();
            let expected: Vec<Vec<Word>> = (0..10).map(|i| vec![i]).collect();
            assert_eq!(procs[1].received, expected, "exactly-once after replay");
            assert_eq!(procs[0].received, vec![vec![99]]);
            assert_eq!(report.recovery.unwrap().crashes_survived, 1);
        });
    }

    #[test]
    fn unrecovered_crash_surfaces_as_crashed_on_threads() {
        within(THREADS_DEADLINE, || {
            let plan = FaultPlan::seeded(0).with_crash(ProcId(0), 2);
            let mut procs = vec![
                Scripted::new(vec![
                    Action::Send(1, 0, vec![1]),
                    Action::Compute(1),
                    Action::Compute(1),
                    Action::Compute(1),
                ]),
                Scripted::new(vec![Action::Recv(0, 0)]),
            ];
            let config = RunConfig {
                backend: Backend::Threaded {
                    recv_timeout: Duration::from_secs(30),
                },
                ..faulty(plan, None)
            };
            let err = ThreadedRunner::with_config(CostModel::zero(), &config)
                .run(&mut procs)
                .unwrap_err();
            assert_eq!(
                err,
                MachineError::Crashed {
                    proc: ProcId(0),
                    at_op: 2
                }
            );
        });
    }

    #[test]
    fn checkpoints_alone_enable_the_reliable_path() {
        within(THREADS_DEADLINE, || {
            let mut procs = crash_scripts();
            let config = RunConfig {
                checkpoints: Some(CheckpointCfg::every(2)),
                ..RunConfig::default()
            };
            let report = ThreadedRunner::with_config(CostModel::ipsc2(), &config)
                .run(&mut procs)
                .unwrap();
            let expected: Vec<Vec<Word>> = (0..10).map(|i| vec![i]).collect();
            assert_eq!(procs[1].received, expected);
            assert_eq!(report.undelivered, 0);
            let rec = report.recovery.expect("report present without any crash");
            assert_eq!(rec.crashes_survived, 0);
            assert!(rec.checkpoints_taken >= 4, "{rec:?}");
            assert!(rec.bytes_snapshotted > 0);
            assert!(report.fault.is_some(), "reliable protocol was interposed");
        });
    }

    #[test]
    fn default_ring_sizing_is_bounded_and_power_of_two() {
        for n in [1, 2, 4, 8, 64, 1024] {
            let w = default_ring_words(n);
            assert!(w.is_power_of_two(), "n={n}: {w}");
            assert!((256..=16_384).contains(&w), "n={n}: {w}");
        }
        assert_eq!(default_ring_words(2), 16_384);
        assert!(default_ring_words(64) < default_ring_words(8));
    }
}
