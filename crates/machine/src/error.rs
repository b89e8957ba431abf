//! Machine-level failures.

use crate::message::{ProcId, Tag};
use std::error::Error;
use std::fmt;

/// A failure detected by the machine fabric or scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineError {
    /// The [`RunConfig`](crate::RunConfig) cannot describe a run of this
    /// machine: a slowdown vector of the wrong length or with a zero
    /// factor, a ring capacity that is not a power of two ≥ 8,
    /// coordinated checkpoints on OS threads, … Reported by both run
    /// loops on entry, before anything executes.
    InvalidConfig {
        /// What is wrong.
        reason: String,
    },
    /// A processor attempted to send a message to itself. The compiler is
    /// expected to turn same-processor coercions into local reads (§3.1),
    /// so a self-send indicates a code-generation bug.
    SelfSend {
        /// The processor that sent to itself.
        proc: ProcId,
    },
    /// Every unfinished process is blocked on a receive that no pending or
    /// future message can satisfy.
    Deadlock {
        /// For each blocked processor: (receiver, awaited source, tag).
        waiting: Vec<(ProcId, ProcId, Tag)>,
    },
    /// A process reported an internal error (payload is its rendering).
    ProcessFault {
        /// The processor whose process faulted.
        proc: ProcId,
        /// Human-readable description.
        message: String,
    },
    /// The scheduler exceeded its step budget (runaway program guard).
    StepBudgetExceeded {
        /// The budget that was exhausted.
        budget: u64,
    },
    /// The reliable-delivery layer retransmitted a frame its configured
    /// maximum number of times without ever seeing an acknowledgement —
    /// the peer is suspected dead (crashed without recovery) or the link
    /// is black-holed. Names the starved stream and the last sequence
    /// number the peer ever acknowledged, so operators can distinguish "a
    /// peer that answered for a while and went silent" (crash) from "a
    /// stream that never delivered anything" (dead link).
    RetriesExhausted {
        /// The sending processor that gave up.
        proc: ProcId,
        /// The suspected-dead peer that never acknowledged.
        peer: ProcId,
        /// The tag of the starved stream.
        tag: Tag,
        /// How many retransmissions were attempted.
        retries: u32,
        /// Cumulative acknowledgement last received from the peer on this
        /// stream: every sequence number below it was confirmed. 0 means
        /// the peer never acknowledged anything.
        last_acked: u64,
    },
    /// A processor crashed (per the fault plan) with no checkpointing
    /// configured, so it cannot be restored. Both backends report it
    /// rather than the exhausted retries, timeouts or deadlocks its peers
    /// cascade into.
    Crashed {
        /// The processor that crashed.
        proc: ProcId,
        /// The charged-op counter at which it crashed.
        at_op: u64,
    },
    /// Checkpointing was requested but the process running on `proc`
    /// does not implement state snapshots
    /// ([`Process::snapshot`](crate::Process::snapshot) returned `None`).
    CheckpointUnsupported {
        /// The processor whose process cannot snapshot.
        proc: ProcId,
    },
    /// A threaded-backend receive was waiting on a peer whose thread
    /// died (panicked or aborted with its own error) before satisfying
    /// the receive. Detected *immediately* from the peer's liveness
    /// status — waiters do not burn the full receive-timeout window. A
    /// pure cascade: the dead peer's own root error always outranks it
    /// in the final report, but the variant names exactly who died so
    /// blocked receives can explain themselves.
    PeerDied {
        /// The processor whose receive was cut short.
        proc: ProcId,
        /// The peer whose thread died.
        peer: ProcId,
    },
    /// A threaded-backend receive saw no traffic at all for the configured
    /// wall-clock window. Real threads cannot take the global no-progress
    /// snapshot the simulator's deadlock detector uses, so a cyclic
    /// deadlock surfaces as this timeout instead of hanging the run.
    RecvTimeout {
        /// The processor whose receive starved.
        proc: ProcId,
        /// Source it was waiting on.
        src: ProcId,
        /// Tag it was waiting on.
        tag: Tag,
        /// The wall-clock window that elapsed, in milliseconds.
        waited_ms: u64,
    },
}

impl MachineError {
    /// For a [`MachineError::Deadlock`], the circular wait among the
    /// blocked processors, if one exists. Each entry is `(receiver,
    /// awaited source, tag)` and the awaited source of each entry is the
    /// receiver of the next (wrapping around). The cycle is rotated to
    /// start at its smallest-numbered processor, which makes it directly
    /// comparable with the cycle the static analyzer reports for the
    /// same program. `None` for other errors and for deadlocks without a
    /// cycle (e.g. a processor awaiting an already-finished peer).
    pub fn wait_cycle(&self) -> Option<Vec<(ProcId, ProcId, Tag)>> {
        let MachineError::Deadlock { waiting } = self else {
            return None;
        };
        // Each blocked processor waits on exactly one peer, so the
        // wait-for graph is functional: chase out-edges from each node
        // until we revisit one. A revisit inside the current chase is a
        // cycle; a node seen in an earlier chase leads out of one.
        let edges: std::collections::BTreeMap<ProcId, (ProcId, Tag)> = waiting
            .iter()
            .map(|&(p, src, tag)| (p, (src, tag)))
            .collect();
        let mut done: std::collections::BTreeSet<ProcId> = Default::default();
        for &start in edges.keys() {
            let mut path: Vec<ProcId> = Vec::new();
            let mut cur = start;
            while edges.contains_key(&cur) && !done.contains(&cur) {
                if let Some(at) = path.iter().position(|&p| p == cur) {
                    let cycle: Vec<ProcId> = path[at..].to_vec();
                    let min = cycle.iter().enumerate().min_by_key(|(_, p)| **p)?.0;
                    return Some(
                        (0..cycle.len())
                            .map(|i| {
                                let p = cycle[(min + i) % cycle.len()];
                                let (src, tag) = edges[&p];
                                (p, src, tag)
                            })
                            .collect(),
                    );
                }
                path.push(cur);
                cur = edges[&cur].0;
            }
            done.extend(path);
        }
        None
    }

    /// How close to a failed run's root cause this error is, 0 the
    /// closest: when one processor fails, its peers cascade into
    /// secondary errors. An unrecoverable crash is the root of all (its
    /// peers exhaust their retries, time out or hang up); a fault or an
    /// exhausted budget is always a root; a starved sender is the root of
    /// its peers' timeouts and hang-ups; a receive timeout is the root
    /// diagnosis of a cycle (which thread times out first is a
    /// wall-clock race); a finished-peer deadlock wins only when nothing
    /// else went wrong; and a dead-peer cascade loses to everything,
    /// because the dead processor contributes its own root error.
    fn rank(&self) -> u8 {
        match self {
            MachineError::Crashed { .. } => 0,
            MachineError::ProcessFault { .. } => 1,
            MachineError::StepBudgetExceeded { .. } => 2,
            MachineError::RetriesExhausted { .. } => 3,
            MachineError::RecvTimeout { .. } => 4,
            MachineError::PeerDied { .. } => 6,
            _ => 5,
        }
    }

    /// Of two errors one failed run raised, the one to report: the closer
    /// to the root cause ([`rank`](Self::rank)), `self` on a tie. The one
    /// rule both backends apply, so the same failure reports the same
    /// error whoever hit what first.
    pub(crate) fn or_root(self, other: MachineError) -> MachineError {
        if other.rank() < self.rank() {
            other
        } else {
            self
        }
    }
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::InvalidConfig { reason } => {
                write!(f, "invalid run configuration: {reason}")
            }
            MachineError::SelfSend { proc } => {
                write!(f, "processor {proc} sent a message to itself")
            }
            MachineError::Deadlock { waiting } => {
                write!(f, "deadlock: ")?;
                for (i, (p, src, tag)) in waiting.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{p} awaits {tag} from {src}")?;
                }
                if let Some(cycle) = self.wait_cycle() {
                    write!(f, "; circular wait: ")?;
                    for (p, _, tag) in &cycle {
                        write!(f, "{p} -{tag}-> ")?;
                    }
                    write!(f, "{}", cycle[0].0)?;
                    let extra = waiting.len() - cycle.len();
                    if extra > 0 {
                        write!(f, " ({extra} more blocked behind the cycle)")?;
                    }
                }
                Ok(())
            }
            MachineError::ProcessFault { proc, message } => {
                write!(f, "process fault on {proc}: {message}")
            }
            MachineError::StepBudgetExceeded { budget } => {
                write!(f, "step budget of {budget} exceeded")
            }
            MachineError::RetriesExhausted {
                proc,
                peer,
                tag,
                retries,
                last_acked,
            } => {
                write!(
                    f,
                    "retries exhausted: {proc} retransmitted {tag} to {peer} \
                     {retries} times without an ack; peer suspected dead "
                )?;
                if *last_acked == 0 {
                    write!(f, "(never acknowledged anything on this stream)")
                } else {
                    write!(f, "(last acknowledged seq {})", last_acked - 1)
                }
            }
            MachineError::Crashed { proc, at_op } => {
                write!(
                    f,
                    "processor {proc} crashed at op {at_op} with no checkpoint to restore from"
                )
            }
            MachineError::CheckpointUnsupported { proc } => {
                write!(
                    f,
                    "checkpointing requested but the process on {proc} does not \
                     support state snapshots"
                )
            }
            MachineError::PeerDied { proc, peer } => {
                write!(
                    f,
                    "peer died: {proc} was receiving from {peer} when {peer}'s \
                     thread terminated abnormally"
                )
            }
            MachineError::RecvTimeout {
                proc,
                src,
                tag,
                waited_ms,
            } => {
                write!(
                    f,
                    "receive timeout: {proc} waited {waited_ms} ms for {tag} from {src} \
                     with no traffic arriving (likely deadlock)"
                )
            }
        }
    }
}

impl Error for MachineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_deadlock_lists_waiters() {
        let e = MachineError::Deadlock {
            waiting: vec![
                (ProcId(0), ProcId(1), Tag(3)),
                (ProcId(1), ProcId(0), Tag(4)),
            ],
        };
        let s = e.to_string();
        assert!(s.contains("P0 awaits t3 from P1"));
        assert!(s.contains("P1 awaits t4 from P0"));
        assert!(s.contains("circular wait: P0 -t3-> P1 -t4-> P0"), "{s}");
    }

    #[test]
    fn wait_cycle_rotates_to_smallest_and_counts_the_tail() {
        // P3 -> P2 -> P1 -> P2 is a 2-cycle with P3 blocked behind it.
        let e = MachineError::Deadlock {
            waiting: vec![
                (ProcId(3), ProcId(2), Tag(7)),
                (ProcId(2), ProcId(1), Tag(5)),
                (ProcId(1), ProcId(2), Tag(6)),
            ],
        };
        let cycle = e.wait_cycle().expect("cycle");
        assert_eq!(
            cycle,
            vec![
                (ProcId(1), ProcId(2), Tag(6)),
                (ProcId(2), ProcId(1), Tag(5))
            ]
        );
        let s = e.to_string();
        assert!(s.contains("circular wait: P1 -t6-> P2 -t5-> P1"), "{s}");
        assert!(s.contains("(1 more blocked behind the cycle)"), "{s}");
    }

    #[test]
    fn no_cycle_when_awaiting_a_finished_peer() {
        // Both waiters block on P9, which is not itself blocked (it
        // finished without sending) — a starvation chain, not a cycle.
        let e = MachineError::Deadlock {
            waiting: vec![
                (ProcId(0), ProcId(9), Tag(1)),
                (ProcId(1), ProcId(0), Tag(2)),
            ],
        };
        assert_eq!(e.wait_cycle(), None);
        assert!(!e.to_string().contains("circular wait"));
    }

    #[test]
    fn display_retries_exhausted_names_the_stream() {
        let e = MachineError::RetriesExhausted {
            proc: ProcId(2),
            peer: ProcId(0),
            tag: Tag(9),
            retries: 16,
            last_acked: 0,
        };
        let s = e.to_string();
        assert!(s.contains("P2"));
        assert!(s.contains("P0"));
        assert!(s.contains("t9"));
        assert!(s.contains("16"));
        assert!(s.contains("suspected dead"), "{s}");
        assert!(s.contains("never acknowledged"), "{s}");
    }

    #[test]
    fn display_retries_exhausted_reports_last_acked_seq() {
        let e = MachineError::RetriesExhausted {
            proc: ProcId(1),
            peer: ProcId(3),
            tag: Tag(2),
            retries: 8,
            last_acked: 5,
        };
        let s = e.to_string();
        // Cumulative ack 5 means seqs 0..=4 were confirmed.
        assert!(s.contains("last acknowledged seq 4"), "{s}");
        assert!(s.contains("suspected dead"), "{s}");
    }

    #[test]
    fn display_crash_errors() {
        let e = MachineError::Crashed {
            proc: ProcId(3),
            at_op: 120,
        };
        let s = e.to_string();
        assert!(s.contains("P3"), "{s}");
        assert!(s.contains("120"), "{s}");
        assert!(s.contains("no checkpoint"), "{s}");
        let u = MachineError::CheckpointUnsupported { proc: ProcId(1) }.to_string();
        assert!(u.contains("P1"), "{u}");
        assert!(u.contains("snapshot"), "{u}");
    }

    #[test]
    fn display_peer_died_names_both_sides() {
        let e = MachineError::PeerDied {
            proc: ProcId(2),
            peer: ProcId(5),
        };
        let s = e.to_string();
        assert!(s.contains("P2"), "{s}");
        assert!(s.contains("P5"), "{s}");
        assert!(s.contains("died"), "{s}");
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MachineError>();
    }
}
