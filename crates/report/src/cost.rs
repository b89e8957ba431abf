//! Static message-cost model: abstract interpretation of a specialized
//! SPMD program that predicts, **per `(src, dst, tag)` channel**, the
//! number of messages and payload words each processor will send — the
//! accounting Rogers & Pingali use to argue the Optimized I–III curves
//! (footnote 3's 31,752 vs 2,142 messages).
//!
//! The prediction runs the shared walk of [`crate::interp`], which mirrors
//! the VM exactly where it matters (operators, loop bounds, ownership,
//! payload words; its module doc lists how).
//!
//! Array and buffer *contents* are opaque: `ARead`/`AReadGlobal`/
//! `BufRead` evaluate to ⊤ (unknown). When an unknown value reaches
//! control flow, a send destination, or a loop bound, the affected
//! communication cannot be counted and the prediction is marked inexact
//! (with a note saying why). On programs whose control flow is
//! independent of array data — all five of the paper's Fig. 6/7 wavefront
//! variants, at every optimization level — the prediction is **exact**.

use crate::interp::{self, Channels};
use pdc_mapping::DistInstance;
use pdc_spmd::ir::SpmdProgram;
use std::collections::BTreeMap;

/// Predicted traffic on one `(src, dst, tag)` channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChannelCost {
    /// Messages sent.
    pub messages: u64,
    /// Payload words (2 per scalar value, matching the VM's encoding).
    pub words: u64,
}

/// The result of statically interpreting one SPMD program.
#[derive(Debug, Clone, Default)]
pub struct Prediction {
    /// Predicted sends per `(src, dst, tag)`.
    pub sends: BTreeMap<(usize, usize, u32), ChannelCost>,
    /// Predicted receives per `(src, dst, tag)` — what each destination
    /// expects to consume. On a well-formed program this equals `sends`.
    pub recvs: BTreeMap<(usize, usize, u32), ChannelCost>,
    /// True when every send, receive, loop bound, and branch was
    /// statically evaluable: the counts are then equalities, not bounds.
    pub exact: bool,
    /// Why exactness was lost (empty when `exact`).
    pub notes: Vec<String>,
}

impl Prediction {
    /// Total predicted messages across all channels.
    pub fn total_messages(&self) -> u64 {
        self.sends.values().map(|c| c.messages).sum()
    }

    /// Total predicted payload words across all channels.
    pub fn total_words(&self) -> u64 {
        self.sends.values().map(|c| c.words).sum()
    }

    /// Does every channel's send side agree with its receive side? A
    /// mismatch means the compiled program would deadlock or orphan
    /// messages — a static protocol-consistency check.
    pub fn protocol_consistent(&self) -> bool {
        self.sends == self.recvs
    }
}

/// Counting sink over the shared abstract walk ([`crate::interp`]).
/// Nameable so a caller can ride it on one walk together with other
/// sinks (timing in [`crate::makespan`], the safety analyzer in
/// `pdc-analyze`) through an [`interp::Tee`]; [`CostSink::finish`] hands
/// back the [`Prediction`].
pub struct CostSink {
    sends: Channels<ChannelCost>,
    recvs: Channels<ChannelCost>,
    exact: bool,
    notes: Vec<String>,
}

impl CostSink {
    /// An empty count for a program of `nprocs` processors.
    pub fn new(nprocs: usize) -> Self {
        CostSink {
            sends: Channels::new(nprocs),
            recvs: Channels::new(nprocs),
            exact: true,
            notes: Vec::new(),
        }
    }

    /// The prediction counted so far.
    pub fn finish(self) -> Prediction {
        Prediction {
            sends: self.sends.into_sorted(),
            recvs: self.recvs.into_sorted(),
            exact: self.exact,
            notes: self.notes,
        }
    }
}

impl interp::Events for CostSink {
    fn send(&mut self, proc: usize, dst: usize, tag: u32, words: u64) {
        let c = self.sends.slot(proc, dst, tag);
        c.messages += 1;
        c.words += words;
    }

    fn recv(&mut self, proc: usize, src: usize, tag: u32, words: u64, _sink: interp::RecvSink<'_>) {
        let c = self.recvs.slot(src, proc, tag);
        c.messages += 1;
        c.words += words;
    }

    fn note(&mut self, _proc: usize, msg: String) {
        self.exact = false;
        interp::keep_note(&mut self.notes, msg);
    }
}

/// Statically predict the communication of `prog`.
///
/// `env` seeds every processor's scalar environment (the compile-time
/// constants, e.g. `n = 16`); `arrays` provides distribution instances
/// for arrays that are *preloaded* rather than allocated by the program
/// (an `AllocDist` in the program overrides the seed).
pub fn predict(
    prog: &SpmdProgram,
    env: &BTreeMap<String, i64>,
    arrays: &BTreeMap<String, DistInstance>,
) -> Prediction {
    let mut sink = CostSink::new(prog.n_procs());
    interp::resolve(prog, env, arrays).walk(&mut sink);
    sink.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_spmd::ir::{RecvTarget, SExpr, SStmt, SpmdProgram};

    /// P0 streams 1..=n to P1 element-wise.
    fn stream(n: i64) -> SpmdProgram {
        let p0 = vec![SStmt::For {
            var: "i".into(),
            lo: SExpr::int(1),
            hi: SExpr::var("n"),
            step: SExpr::int(1),
            body: vec![SStmt::Send {
                to: SExpr::int(1),
                tag: 7,
                values: vec![SExpr::var("i")],
            }],
        }];
        let p1 = vec![SStmt::For {
            var: "i".into(),
            lo: SExpr::int(1),
            hi: SExpr::var("n"),
            step: SExpr::int(1),
            body: vec![SStmt::Recv {
                from: SExpr::int(0),
                tag: 7,
                into: vec![RecvTarget::Var("x".into())],
            }],
        }];
        let _ = n;
        SpmdProgram::new(vec![p0, p1])
    }

    #[test]
    fn counts_element_stream_exactly() {
        let env: BTreeMap<String, i64> = [("n".to_string(), 10)].into();
        let p = predict(&stream(10), &env, &BTreeMap::new());
        assert!(p.exact, "{:?}", p.notes);
        assert_eq!(
            p.sends[&(0, 1, 7)],
            ChannelCost {
                messages: 10,
                words: 20
            }
        );
        assert_eq!(p.total_messages(), 10);
        assert!(p.protocol_consistent());
    }

    #[test]
    fn unknown_bound_degrades_gracefully() {
        // No binding for n: the loop cannot be counted.
        let p = predict(&stream(10), &BTreeMap::new(), &BTreeMap::new());
        assert!(!p.exact);
        assert!(p.sends.is_empty());
        assert!(!p.notes.is_empty());
    }

    #[test]
    fn data_dependent_branch_is_inexact() {
        let prog = SpmdProgram::new(vec![
            vec![
                SStmt::AllocBuf {
                    buf: "b".into(),
                    len: SExpr::int(1),
                },
                SStmt::If {
                    cond: SExpr::BufRead {
                        buf: "b".into(),
                        idx: Box::new(SExpr::int(0)),
                    }
                    .gt(SExpr::int(0)),
                    then: vec![SStmt::Send {
                        to: SExpr::int(1),
                        tag: 3,
                        values: vec![SExpr::int(1)],
                    }],
                    els: vec![],
                },
            ],
            vec![],
        ]);
        let p = predict(&prog, &BTreeMap::new(), &BTreeMap::new());
        assert!(!p.exact);
        assert!(p.notes.iter().any(|n| n.contains("tag 3")));
    }

    #[test]
    fn owner_of_mirrors_vm() {
        use pdc_mapping::Dist;
        // owner(column_cyclic, (1, j)) = (j - 1) mod nprocs; replicated
        // arrays are owned locally.
        let prog = SpmdProgram::new(vec![
            vec![
                SStmt::AllocDist {
                    array: "A".into(),
                    rows: SExpr::int(4),
                    cols: SExpr::int(4),
                    dist: Dist::ColumnCyclic,
                },
                SStmt::Let {
                    var: "o".into(),
                    value: SExpr::OwnerOf {
                        array: "A".into(),
                        idx: vec![SExpr::int(1), SExpr::int(2)],
                    },
                },
                SStmt::If {
                    cond: SExpr::var("o").eq(SExpr::int(1)),
                    then: vec![SStmt::Send {
                        to: SExpr::var("o"),
                        tag: 1,
                        values: vec![SExpr::int(0)],
                    }],
                    els: vec![],
                },
            ],
            vec![SStmt::Recv {
                from: SExpr::int(0),
                tag: 1,
                into: vec![RecvTarget::Var("x".into())],
            }],
        ]);
        let p = predict(&prog, &BTreeMap::new(), &BTreeMap::new());
        assert!(p.exact, "{:?}", p.notes);
        assert_eq!(p.sends[&(0, 1, 1)].messages, 1);
        assert!(p.protocol_consistent());
    }
}
