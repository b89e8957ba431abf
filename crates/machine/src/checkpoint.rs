//! Checkpoint/restart recovery for processor crash faults.
//!
//! A [`FaultPlan`](crate::FaultPlan) can now kill a processor outright
//! ([`Crash`](crate::fault::Crash)): at a chosen charged-op count the
//! processor loses every piece of volatile state — VM registers, arrays,
//! program counter, pending sends, reliable-delivery windows. This module
//! supplies the remedy: periodic [`Checkpoint`]s of that complete state,
//! and enough metadata for the scheduler (or a threaded endpoint) to
//! restart the crashed processor from its last checkpoint and let the
//! reliable layer's retransmission path replay everything in between.
//!
//! # Consistent cuts
//!
//! Two snapshot modes exist, both of which guarantee a globally
//! consistent cut to recover to:
//!
//! * **Independent mode** (the default, both backends): each processor
//!   checkpoints on its own schedule, and the receive side *lags its
//!   acknowledgements*: the cumulative ack it advertises is the stream
//!   position as of its *last checkpoint*, not its live position. Peers
//!   therefore keep every frame the checkpoint has not yet absorbed in
//!   their retransmission windows, so a crashed processor restored from
//!   its checkpoint re-receives exactly the suffix it lost — no surviving
//!   processor ever rolls back (no domino effect). Any message is thus
//!   either reflected in its receiver's checkpoint or replayable from its
//!   sender's window: a consistent cut by construction.
//! * **Coordinated mode** (simulator only): every processor snapshots at
//!   the same scheduler round boundary — a barrier-aligned global cut. On
//!   a crash *all* processors roll back to the cut and in-flight frames
//!   are discarded; because execution is deterministic, re-execution
//!   regenerates bit-identical frames and sequence numbers.
//!
//! # Determinism
//!
//! Checkpoint points and crash points are both expressed in the
//! processor's charged-op counter (see
//! [`FaultState::ops`](crate::FaultState::ops)), which advances
//! identically on the simulator and the threaded backend, so *which*
//! state is saved and *where* a crash lands never depends on wall-clock
//! timing. On the simulator the whole recovery — reboot delay included —
//! runs in logical time, making crashed-and-recovered runs bit-identical
//! run after run.

use crate::message::{ProcId, Tag, Time, Word};
use crate::reliable::{RecvSnapshot, SenderSnapshot};
use std::time::Duration;

/// Checkpointing policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointCfg {
    /// Charged-op interval between checkpoints of one processor. A
    /// checkpoint is taken at the first step boundary where the
    /// processor's op counter has advanced `interval_ops` past its last
    /// checkpoint.
    pub interval_ops: u64,
    /// Coordinated barrier-aligned snapshots (simulator only): all
    /// processors snapshot at one scheduler round boundary and all roll
    /// back together on a crash. Independent mode (the default) uses
    /// ack-lagging instead and rolls back only the crashed processor.
    pub coordinated: bool,
    /// Logical cycles a restored processor spends rebooting (simulator).
    pub reboot_cycles: u64,
    /// Wall-clock reboot delay on the threaded backend.
    pub reboot_wall: Duration,
    /// Fixed logical cost charged for taking one checkpoint.
    pub cost_fixed: u64,
    /// Logical cost per serialized word (8 bytes) of checkpoint state.
    pub cost_per_word: u64,
    /// Cost-amortized pacing: an ops-triggered checkpoint is deferred
    /// until at least `amortization ×` the cost of the *previous*
    /// checkpoint in logical cycles has elapsed since it was taken. This
    /// bounds the steady-state snapshot tax at roughly
    /// `1 / amortization` of the run regardless of how large the
    /// processor state is or how cheap its ops are — the op-count
    /// interval alone over-checkpoints short, message-light programs
    /// whose state is big relative to their runtime. `0` disables
    /// pacing. The crash-exposure trade-off is explicit: deferral never
    /// exceeds `amortization ×` one snapshot cost of extra replay.
    ///
    /// The default of 128 bounds the *per-processor* tax below 1%. That
    /// headroom matters because a snapshot stall does not stay local: in
    /// a pipelined decomposition each processor's stalls cascade into
    /// its downstream neighbours, so the makespan inflation approaches
    /// the sum of the staggered per-processor taxes — roughly
    /// `nprocs / amortization` — not their max. A program whose whole
    /// runtime is under `amortization ×` one snapshot cost takes no
    /// mid-run checkpoints at all: replaying it from the start is
    /// cheaper than snapshotting it, the classic short-job corollary of
    /// optimal-interval analysis.
    pub amortization: u64,
}

impl Default for CheckpointCfg {
    fn default() -> Self {
        CheckpointCfg {
            interval_ops: 2_048,
            coordinated: false,
            reboot_cycles: 10_000,
            reboot_wall: Duration::from_millis(1),
            cost_fixed: 100,
            cost_per_word: 1,
            amortization: 128,
        }
    }
}

impl CheckpointCfg {
    /// Independent-mode checkpoints every `interval_ops` charged ops.
    pub fn every(interval_ops: u64) -> Self {
        assert!(interval_ops > 0, "checkpoint interval must be positive");
        CheckpointCfg {
            interval_ops,
            ..CheckpointCfg::default()
        }
    }

    /// Switch to coordinated barrier-aligned snapshots.
    pub fn coordinated(mut self) -> Self {
        self.coordinated = true;
        self
    }

    /// Set the reboot delay charged to a restored processor.
    pub fn with_reboot(mut self, cycles: u64, wall: Duration) -> Self {
        self.reboot_cycles = cycles;
        self.reboot_wall = wall;
        self
    }

    /// The logical cycles one checkpoint of `bytes` serialized bytes
    /// costs the processor taking it.
    pub fn checkpoint_cost(&self, bytes: usize) -> u64 {
        self.cost_fixed + self.cost_per_word * (bytes as u64).div_ceil(8)
    }

    /// Set the cost-amortization factor (see [`CheckpointCfg::amortization`]).
    pub fn with_amortization(mut self, amortization: u64) -> Self {
        self.amortization = amortization;
        self
    }
}

/// Accounting for one run's checkpoint/restart activity, reported as
/// [`RunReport::recovery`](crate::RunReport) whenever checkpointing was
/// configured.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Checkpoints taken (initial snapshots included).
    pub checkpoints_taken: u64,
    /// Total serialized checkpoint bytes written.
    pub bytes_snapshotted: u64,
    /// Crashes detected and successfully recovered from.
    pub crashes_survived: u64,
    /// Charged ops re-executed between restored checkpoints and their
    /// crash points — the replay work recovery cost.
    pub replayed_ops: u64,
    /// Frames re-armed for retransmission out of restored sender windows.
    pub replay_frames: u64,
    /// Time spent crashed: from each crash to the completion of its
    /// restore (reboot included). Logical cycles on the simulator,
    /// microseconds on the threaded backend.
    pub recovery_cycles: u64,
}

impl RecoveryReport {
    /// Merge another tally into this one (threaded backend teardown).
    pub fn merge(&mut self, other: &RecoveryReport) {
        self.checkpoints_taken += other.checkpoints_taken;
        self.bytes_snapshotted += other.bytes_snapshotted;
        self.crashes_survived += other.crashes_survived;
        self.replayed_ops += other.replayed_ops;
        self.replay_frames += other.replay_frames;
        self.recovery_cycles += other.recovery_cycles;
    }
}

/// A complete, serializable snapshot of one processor's execution state:
/// the opaque process image (VM registers, locals, arrays, pc — whatever
/// [`Process::snapshot`](crate::Process::snapshot) encodes), both sides
/// of every reliable-delivery stream, the processor's program-level
/// send/receive counts, and the stable ack floors it had advertised.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// The processor this checkpoint belongs to.
    pub proc: ProcId,
    /// Charged-op counter when the checkpoint was taken.
    pub at_op: u64,
    /// Logical clock when the checkpoint was taken.
    pub taken_at: Time,
    /// Opaque process state from [`Process::snapshot`](crate::Process).
    pub process: Vec<u8>,
    /// Send side of every `(dst, tag)` stream.
    pub senders: Vec<(ProcId, Tag, SenderSnapshot)>,
    /// Receive side of every `(src, tag)` stream.
    pub recvs: Vec<(ProcId, Tag, RecvSnapshot)>,
    /// Program-level sends per `(dst, tag)`.
    pub sent: Vec<(ProcId, Tag, u64)>,
    /// Program-level receives per `(src, tag)`.
    pub recvd: Vec<(ProcId, Tag, u64)>,
    /// Stable ack floor per `(src, tag)` — the cumulative position this
    /// checkpoint makes durable, equal to each receive stream's
    /// cumulative at snapshot time.
    pub stable: Vec<(ProcId, Tag, u64)>,
}

const MAGIC: u64 = 0x5044_434B_0000_0001; // "PDCK" + version 1

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_words(buf: &mut Vec<u8>, ws: &[Word]) {
    put_u64(buf, ws.len() as u64);
    for w in ws {
        put_u64(buf, *w as u64);
    }
}

fn put_bytes(buf: &mut Vec<u8>, bs: &[u8]) {
    put_u64(buf, bs.len() as u64);
    buf.extend_from_slice(bs);
}

struct Reader<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn u64(&mut self) -> Option<u64> {
        let end = self.pos.checked_add(8)?;
        let v = u64::from_le_bytes(self.b.get(self.pos..end)?.try_into().ok()?);
        self.pos = end;
        Some(v)
    }

    fn words(&mut self) -> Option<Vec<Word>> {
        let n = self.u64()? as usize;
        let mut ws = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            ws.push(self.u64()? as Word);
        }
        Some(ws)
    }

    fn bytes(&mut self) -> Option<Vec<u8>> {
        let n = self.u64()? as usize;
        let end = self.pos.checked_add(n)?;
        let bs = self.b.get(self.pos..end)?.to_vec();
        self.pos = end;
        Some(bs)
    }
}

impl Checkpoint {
    /// Serialize to the stable little-endian wire format. The format is
    /// self-contained — a checkpoint can be written to disk and restored
    /// by a later run of the same program.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        put_u64(&mut buf, MAGIC);
        put_u64(&mut buf, self.proc.0 as u64);
        put_u64(&mut buf, self.at_op);
        put_u64(&mut buf, self.taken_at.0);
        put_bytes(&mut buf, &self.process);
        put_u64(&mut buf, self.senders.len() as u64);
        for (dst, tag, s) in &self.senders {
            put_u64(&mut buf, dst.0 as u64);
            put_u64(&mut buf, tag.0 as u64);
            put_u64(&mut buf, s.next_seq);
            put_u64(&mut buf, s.unacked.len() as u64);
            for (seq, fr) in &s.unacked {
                put_u64(&mut buf, *seq);
                put_words(&mut buf, fr);
            }
        }
        put_u64(&mut buf, self.recvs.len() as u64);
        for (src, tag, r) in &self.recvs {
            put_u64(&mut buf, src.0 as u64);
            put_u64(&mut buf, tag.0 as u64);
            put_u64(&mut buf, r.expected);
            put_u64(&mut buf, r.ooo.len() as u64);
            for (seq, t, p) in &r.ooo {
                put_u64(&mut buf, *seq);
                put_u64(&mut buf, t.0);
                put_words(&mut buf, p);
            }
            put_u64(&mut buf, r.ready.len() as u64);
            for (t, p) in &r.ready {
                put_u64(&mut buf, t.0);
                put_words(&mut buf, p);
            }
            put_u64(&mut buf, r.dups);
            put_u64(&mut buf, r.max_gap);
        }
        for map in [&self.sent, &self.recvd, &self.stable] {
            put_u64(&mut buf, map.len() as u64);
            for (p, tag, v) in map {
                put_u64(&mut buf, p.0 as u64);
                put_u64(&mut buf, tag.0 as u64);
                put_u64(&mut buf, *v);
            }
        }
        buf
    }

    /// Parse the wire format back; `None` on truncation or a bad magic.
    pub fn from_bytes(b: &[u8]) -> Option<Checkpoint> {
        let mut r = Reader { b, pos: 0 };
        if r.u64()? != MAGIC {
            return None;
        }
        let proc = ProcId(r.u64()? as usize);
        let at_op = r.u64()?;
        let taken_at = Time(r.u64()?);
        let process = r.bytes()?;
        let n_send = r.u64()? as usize;
        let mut senders = Vec::with_capacity(n_send.min(1 << 16));
        for _ in 0..n_send {
            let dst = ProcId(r.u64()? as usize);
            let tag = Tag(r.u64()? as u32);
            let next_seq = r.u64()?;
            let n_un = r.u64()? as usize;
            let mut unacked = Vec::with_capacity(n_un.min(1 << 16));
            for _ in 0..n_un {
                let seq = r.u64()?;
                unacked.push((seq, r.words()?.into()));
            }
            senders.push((dst, tag, SenderSnapshot { next_seq, unacked }));
        }
        let n_recv = r.u64()? as usize;
        let mut recvs = Vec::with_capacity(n_recv.min(1 << 16));
        for _ in 0..n_recv {
            let src = ProcId(r.u64()? as usize);
            let tag = Tag(r.u64()? as u32);
            let expected = r.u64()?;
            let n_ooo = r.u64()? as usize;
            let mut ooo = Vec::with_capacity(n_ooo.min(1 << 16));
            for _ in 0..n_ooo {
                let seq = r.u64()?;
                let t = Time(r.u64()?);
                ooo.push((seq, t, r.words()?));
            }
            let n_ready = r.u64()? as usize;
            let mut ready = Vec::with_capacity(n_ready.min(1 << 16));
            for _ in 0..n_ready {
                let t = Time(r.u64()?);
                ready.push((t, r.words()?));
            }
            let dups = r.u64()?;
            let max_gap = r.u64()?;
            recvs.push((
                src,
                tag,
                RecvSnapshot {
                    expected,
                    ooo,
                    ready,
                    dups,
                    max_gap,
                },
            ));
        }
        let mut maps: [Vec<(ProcId, Tag, u64)>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        for map in maps.iter_mut() {
            let n = r.u64()? as usize;
            for _ in 0..n {
                let p = ProcId(r.u64()? as usize);
                let tag = Tag(r.u64()? as u32);
                map.push((p, tag, r.u64()?));
            }
        }
        let [sent, recvd, stable] = maps;
        Some(Checkpoint {
            proc,
            at_op,
            taken_at,
            process,
            senders,
            recvs,
            sent,
            recvd,
            stable,
        })
    }

    /// Frames in this checkpoint's sender windows — the frames a restore
    /// re-arms for retransmission.
    pub fn window_frames(&self) -> u64 {
        self.senders
            .iter()
            .map(|(_, _, s)| s.unacked.len() as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            proc: ProcId(3),
            at_op: 4_200,
            taken_at: Time(99_000),
            process: vec![1, 2, 3, 4, 5],
            senders: vec![(
                ProcId(1),
                Tag(7),
                SenderSnapshot {
                    next_seq: 12,
                    unacked: vec![(10, vec![10, -5].into()), (11, vec![11, 42].into())],
                },
            )],
            recvs: vec![(
                ProcId(0),
                Tag(2),
                RecvSnapshot {
                    expected: 8,
                    ooo: vec![(10, Time(500), vec![-1])],
                    ready: vec![(Time(450), vec![7, 7])],
                    dups: 3,
                    max_gap: 2,
                },
            )],
            sent: vec![(ProcId(1), Tag(7), 12)],
            recvd: vec![(ProcId(0), Tag(2), 7)],
            stable: vec![(ProcId(0), Tag(2), 8)],
        }
    }

    #[test]
    fn checkpoint_round_trips_through_bytes() {
        let c = sample();
        let bytes = c.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).expect("parses");
        assert_eq!(back, c);
        assert_eq!(c.window_frames(), 2);
    }

    #[test]
    fn truncated_or_corrupt_bytes_rejected() {
        let bytes = sample().to_bytes();
        assert!(Checkpoint::from_bytes(&bytes[..bytes.len() - 1]).is_none());
        assert!(Checkpoint::from_bytes(&[]).is_none());
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF; // break the magic
        assert!(Checkpoint::from_bytes(&bad).is_none());
    }

    #[test]
    fn cfg_cost_scales_with_bytes() {
        let cfg = CheckpointCfg::default();
        assert_eq!(cfg.checkpoint_cost(0), cfg.cost_fixed);
        assert_eq!(cfg.checkpoint_cost(16), cfg.cost_fixed + 2);
        assert_eq!(cfg.checkpoint_cost(17), cfg.cost_fixed + 3);
        let c = CheckpointCfg::every(512);
        assert_eq!(c.interval_ops, 512);
        assert!(!c.coordinated);
        assert!(CheckpointCfg::every(1).coordinated().coordinated);
    }
}
