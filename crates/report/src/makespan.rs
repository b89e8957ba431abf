//! Exact static makespan model over the abstract walk.
//!
//! [`crate::cost::predict`] counts *what* a compiled program
//! communicates; this module additionally predicts *when* it finishes.
//! The simulator's timing is a pure max-plus recurrence over
//! per-processor clocks (see `crates/machine/src/fabric.rs`):
//!
//! * local compute advances the executing clock by the summed
//!   `instr_cost` of the instructions run;
//! * a send advances the sender by `send_cost(words)` and stamps the
//!   message's arrival at `sender clock + flight`;
//! * a receive sets the receiver to `max(receiver clock, arrival) +
//!   recv_cost(words)`, with FIFO order per `(src, dst, tag)` channel;
//! * the makespan is the maximum final clock.
//!
//! The abstract walk replays each processor's body in program order and
//! — through [`interp::Events::work`] — reports exactly the instruction
//! mix the lowering would execute. Collecting those streams and running
//! the same recurrence therefore reproduces the simulator's makespan
//! *cycle for cycle* on any program the walk handles exactly. The one
//! wrinkle is ordering: the walk finishes processor 0 before starting
//! processor 1, while arrival times flow between processors, so the
//! replay is two-phase — collect all streams first, then iterate
//! round-robin with per-channel FIFO arrival queues until every stream
//! is drained (a full round with no progress is a deadlock and the
//! estimate is marked inexact).
//!
//! This is the scoring function of the decomposition tuner (`pdc-tune`):
//! candidates are ranked by predicted makespan, and the prediction is
//! trusted only when `exact` — anything the walk could not count is
//! pruned rather than guessed at.

use crate::cost::{CostSink, Prediction};
use crate::interp::{self, Channels, Events, RecvSink, Work};
use pdc_machine::CostModel;
use pdc_mapping::DistInstance;
use pdc_spmd::ir::SpmdProgram;
use std::collections::{BTreeMap, VecDeque};

/// One event of a processor's program-order stream. `chan` is the id of
/// the `(src, dst, tag)` channel in the sink's [`Channels`] table.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Local compute, already converted to cycles.
    Work(u64),
    /// A send on channel `(self, dst, tag)`.
    Send { chan: u32, words: u64 },
    /// A receive on channel `(src, self, tag)`.
    Recv { chan: u32, words: u64 },
}

/// Statically predicted execution-time profile of one compiled program
/// under one [`CostModel`].
#[derive(Debug, Clone, Default)]
pub struct MakespanEstimate {
    /// Predicted final clock per processor (empty when the walk lost
    /// exactness before the replay could run).
    pub clocks: Vec<u64>,
    /// True when every loop bound, branch, and message endpoint was
    /// statically evaluable *and* the replay delivered every receive:
    /// the clocks are then equalities with the simulator, not bounds.
    pub exact: bool,
    /// Why exactness was lost (empty when `exact`).
    pub notes: Vec<String>,
}

impl MakespanEstimate {
    /// Predicted makespan: the maximum final clock.
    pub fn makespan(&self) -> u64 {
        self.clocks.iter().copied().max().unwrap_or(0)
    }
}

/// Stream-collecting sink: converts [`Work`] to cycles under the cost
/// model and records communication in program order per processor.
/// Nameable, like [`CostSink`], so it can share a walk;
/// [`TimingSink::finish`] replays the streams into the estimate.
pub struct TimingSink<'c> {
    cost: &'c CostModel,
    streams: Vec<Vec<Ev>>,
    channels: Channels<()>,
    exact: bool,
    notes: Vec<String>,
}

impl<'c> TimingSink<'c> {
    /// An empty sink for a program of `nprocs` processors, timed under
    /// `cost`.
    pub fn new(cost: &'c CostModel, nprocs: usize) -> Self {
        TimingSink {
            cost,
            streams: vec![Vec::new(); nprocs],
            channels: Channels::new(nprocs),
            exact: true,
            notes: Vec::new(),
        }
    }

    fn lose(&mut self, msg: String) {
        self.exact = false;
        interp::keep_note(&mut self.notes, msg);
    }
}

impl Events for TimingSink<'_> {
    fn work(&mut self, proc: usize, w: Work) {
        let c = self.cost;
        let cycles = w.alu * c.alu_op
            + w.mem * c.mem_op
            + w.istruct * c.istruct_op
            + w.branch * c.loop_overhead;
        if cycles == 0 {
            return;
        }
        // Merge with a preceding compute event so streams stay compact.
        if let Some(Ev::Work(prev)) = self.streams[proc].last_mut() {
            *prev = prev.saturating_add(cycles);
        } else {
            self.streams[proc].push(Ev::Work(cycles));
        }
    }

    fn send(&mut self, proc: usize, dst: usize, tag: u32, words: u64) {
        if dst == proc {
            // The VM treats a self-send as a process fault; there is no
            // makespan to predict.
            self.lose(format!("P{proc}: self-send on tag {tag}"));
            return;
        }
        let chan = self.channels.id(proc, dst, tag) as u32;
        self.streams[proc].push(Ev::Send { chan, words });
    }

    fn recv(&mut self, proc: usize, src: usize, tag: u32, words: u64, _sink: RecvSink<'_>) {
        let chan = self.channels.id(src, proc, tag) as u32;
        self.streams[proc].push(Ev::Recv { chan, words });
    }

    fn note(&mut self, _proc: usize, msg: String) {
        self.lose(msg);
    }
}

impl TimingSink<'_> {
    /// Replay the collected streams into the estimate.
    pub fn finish(self) -> MakespanEstimate {
        let TimingSink {
            cost,
            streams,
            channels,
            exact,
            mut notes,
        } = self;
        if !exact {
            return MakespanEstimate {
                clocks: Vec::new(),
                exact: false,
                notes,
            };
        }
        match replay(&streams, channels.len(), cost) {
            Some(clocks) => MakespanEstimate {
                clocks,
                exact: true,
                notes,
            },
            None => {
                notes.push(
                    "replay: a receive is never satisfied (deadlock or protocol mismatch)".into(),
                );
                MakespanEstimate {
                    clocks: Vec::new(),
                    exact: false,
                    notes,
                }
            }
        }
    }
}

/// Run the simulator's max-plus recurrence over the collected streams.
/// Returns `None` when a full round makes no progress (some receive can
/// never be satisfied).
fn replay(streams: &[Vec<Ev>], n_channels: usize, cost: &CostModel) -> Option<Vec<u64>> {
    let nprocs = streams.len();
    let mut clocks = vec![0u64; nprocs];
    let mut pcs = vec![0usize; nprocs];
    // Arrival stamps per channel, FIFO: within one typed channel delivery
    // order is send order (program order on the sender).
    let mut channels: Vec<VecDeque<u64>> = vec![VecDeque::new(); n_channels];
    loop {
        let mut progressed = false;
        let mut all_done = true;
        for p in 0..nprocs {
            let stream = &streams[p];
            while pcs[p] < stream.len() {
                match stream[pcs[p]] {
                    Ev::Work(c) => clocks[p] = clocks[p].saturating_add(c),
                    Ev::Send { chan, words } => {
                        clocks[p] = clocks[p].saturating_add(cost.send_cost(words as usize));
                        channels[chan as usize].push_back(clocks[p].saturating_add(cost.flight));
                    }
                    Ev::Recv { chan, words } => {
                        let Some(arrives) = channels[chan as usize].pop_front() else {
                            break; // blocked: the message is not sent yet
                        };
                        clocks[p] = clocks[p]
                            .max(arrives)
                            .saturating_add(cost.recv_cost(words as usize));
                    }
                }
                pcs[p] += 1;
                progressed = true;
            }
            if pcs[p] < stream.len() {
                all_done = false;
            }
        }
        if all_done {
            return Some(clocks);
        }
        if !progressed {
            return None;
        }
    }
}

/// Statically predict the per-processor finish times of `prog` under
/// `cost`. `env` and `arrays` seed the walk exactly as in
/// [`crate::cost::predict`].
pub fn estimate(
    prog: &SpmdProgram,
    env: &BTreeMap<String, i64>,
    arrays: &BTreeMap<String, DistInstance>,
    cost: &CostModel,
) -> MakespanEstimate {
    let mut sink = TimingSink::new(cost, prog.n_procs());
    interp::resolve(prog, env, arrays).walk(&mut sink);
    sink.finish()
}

/// Message counts and timing from a single walk — what the tuner runs
/// per candidate.
pub fn predict_and_estimate(
    prog: &SpmdProgram,
    env: &BTreeMap<String, i64>,
    arrays: &BTreeMap<String, DistInstance>,
    cost: &CostModel,
) -> (Prediction, MakespanEstimate) {
    let mut counts = CostSink::new(prog.n_procs());
    let mut timing = TimingSink::new(cost, prog.n_procs());
    interp::resolve(prog, env, arrays).walk(&mut interp::Tee {
        a: &mut counts,
        b: &mut timing,
    });
    (counts.finish(), timing.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_spmd::ir::{RecvTarget, SExpr, SStmt};
    use pdc_spmd::run::SpmdMachine;
    use pdc_spmd::Scalar;

    /// Measured simulator makespan of `prog` with `n` preset on every
    /// processor.
    fn measured(prog: &SpmdProgram, presets: &[(&str, i64)], cost: CostModel) -> u64 {
        let mut m = SpmdMachine::new(prog, cost).expect("lowers");
        for (k, v) in presets {
            m.preset_var(k, Scalar::Int(*v));
        }
        let out = m.run().expect("runs to completion");
        out.report.stats.makespan().0
    }

    fn env_of(presets: &[(&str, i64)]) -> BTreeMap<String, i64> {
        presets.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    fn assert_exactly_matches(prog: &SpmdProgram, presets: &[(&str, i64)]) {
        for cost in [
            CostModel::ipsc2(),
            CostModel::zero(),
            CostModel::shared_memory(),
        ] {
            let est = estimate(prog, &env_of(presets), &BTreeMap::new(), &cost);
            assert!(est.exact, "{:?}", est.notes);
            assert_eq!(
                est.makespan(),
                measured(prog, presets, cost),
                "estimate diverges from the simulator under {cost:?}"
            );
        }
    }

    /// P0 streams 1..=n to P1 element-wise.
    fn stream() -> SpmdProgram {
        let p0 = vec![SStmt::For {
            var: "i".into(),
            lo: SExpr::int(1),
            hi: SExpr::var("n"),
            step: SExpr::int(1),
            body: vec![SStmt::Send {
                to: SExpr::int(1),
                tag: 7,
                values: vec![SExpr::var("i").mul(SExpr::int(2))],
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
        SpmdProgram::new(vec![p0, p1])
    }

    #[test]
    fn element_stream_matches_simulator_exactly() {
        assert_exactly_matches(&stream(), &[("n", 10)]);
    }

    #[test]
    fn pipeline_chain_matches_simulator_exactly() {
        // P0 -> P1 -> P2 -> P3: each stage does local work, waits for its
        // predecessor, adds, and forwards — exercises the max() term.
        let nprocs = 4;
        let mut bodies = Vec::new();
        for p in 0..nprocs {
            let mut body = vec![SStmt::Let {
                var: "acc".into(),
                value: SExpr::int(p as i64),
            }];
            // Unequal local work per stage.
            body.push(SStmt::For {
                var: "i".into(),
                lo: SExpr::int(0),
                hi: SExpr::int(10 * (p as i64 + 1)),
                step: SExpr::int(1),
                body: vec![SStmt::Let {
                    var: "acc".into(),
                    value: SExpr::var("acc").add(SExpr::int(1)),
                }],
            });
            if p > 0 {
                body.push(SStmt::Recv {
                    from: SExpr::int(p as i64 - 1),
                    tag: 1,
                    into: vec![RecvTarget::Var("up".into())],
                });
                body.push(SStmt::Let {
                    var: "acc".into(),
                    value: SExpr::var("acc").add(SExpr::var("up")),
                });
            }
            if p + 1 < nprocs {
                body.push(SStmt::Send {
                    to: SExpr::int(p as i64 + 1),
                    tag: 1,
                    values: vec![SExpr::var("acc")],
                });
            }
            bodies.push(body);
        }
        assert_exactly_matches(&SpmdProgram::new(bodies), &[]);
    }

    #[test]
    fn buffer_blocks_and_branches_match_simulator_exactly() {
        // P0 fills a buffer and block-sends it; P1 block-receives and
        // reduces it under a branch; dynamic loop step on P1.
        let p0 = vec![
            SStmt::AllocBuf {
                buf: "b".into(),
                len: SExpr::int(8),
            },
            SStmt::For {
                var: "i".into(),
                lo: SExpr::int(0),
                hi: SExpr::int(7),
                step: SExpr::int(1),
                body: vec![SStmt::BufWrite {
                    buf: "b".into(),
                    idx: SExpr::var("i"),
                    value: SExpr::var("i").mul(SExpr::var("i")),
                }],
            },
            SStmt::SendBuf {
                to: SExpr::int(1),
                tag: 2,
                buf: "b".into(),
                lo: SExpr::int(0),
                hi: SExpr::int(7),
            },
        ];
        let p1 = vec![
            SStmt::AllocBuf {
                buf: "c".into(),
                len: SExpr::int(8),
            },
            SStmt::RecvBuf {
                from: SExpr::int(0),
                tag: 2,
                buf: "c".into(),
                lo: SExpr::int(0),
                hi: SExpr::int(7),
            },
            SStmt::Let {
                var: "s".into(),
                value: SExpr::int(2),
            },
            SStmt::For {
                var: "i".into(),
                lo: SExpr::int(0),
                hi: SExpr::int(7),
                step: SExpr::var("s"),
                body: vec![SStmt::If {
                    cond: SExpr::var("i").gt(SExpr::int(3)),
                    then: vec![SStmt::Let {
                        var: "acc".into(),
                        value: SExpr::BufRead {
                            buf: "c".into(),
                            idx: Box::new(SExpr::var("i")),
                        },
                    }],
                    els: vec![SStmt::Let {
                        var: "acc".into(),
                        value: SExpr::int(0),
                    }],
                }],
            },
        ];
        assert_exactly_matches(&SpmdProgram::new(vec![p0, p1]), &[]);
    }

    #[test]
    fn receive_that_overwrites_its_own_source_matches_simulator_exactly() {
        // `recv from x into x`, then a receive into `b[x]`: the VM loads
        // the source before the `Recv` instruction and the buffer index
        // after it, and so must the walk — exactly, with no "source not
        // statically known".
        let p0 = vec![
            SStmt::Send {
                to: SExpr::int(1),
                tag: 4,
                values: vec![SExpr::int(2)],
            },
            SStmt::Send {
                to: SExpr::int(1),
                tag: 5,
                values: vec![SExpr::int(9)],
            },
        ];
        let p1 = vec![
            SStmt::AllocBuf {
                buf: "b".into(),
                len: SExpr::int(4),
            },
            SStmt::Let {
                var: "x".into(),
                value: SExpr::int(0),
            },
            SStmt::Recv {
                from: SExpr::var("x"),
                tag: 4,
                into: vec![RecvTarget::Var("x".into())],
            },
            SStmt::Recv {
                from: SExpr::int(0),
                tag: 5,
                into: vec![RecvTarget::Buf {
                    buf: "b".into(),
                    idx: SExpr::var("x"),
                }],
            },
        ];
        assert_exactly_matches(&SpmdProgram::new(vec![p0, p1]), &[]);
    }

    #[test]
    fn inexact_walks_report_no_clocks() {
        // Data-dependent branch: prediction degrades, no makespan claim.
        let prog = SpmdProgram::new(vec![vec![
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
                then: vec![],
                els: vec![],
            },
        ]]);
        let est = estimate(
            &prog,
            &BTreeMap::new(),
            &BTreeMap::new(),
            &CostModel::ipsc2(),
        );
        assert!(!est.exact);
        assert!(est.clocks.is_empty());
        assert!(!est.notes.is_empty());
        assert_eq!(est.makespan(), 0);
    }

    #[test]
    fn protocol_mismatch_is_flagged_not_mispredicted() {
        // P1 expects a message nobody sends: the simulator deadlocks, and
        // the replay must refuse to claim a makespan.
        let prog = SpmdProgram::new(vec![
            vec![],
            vec![SStmt::Recv {
                from: SExpr::int(0),
                tag: 9,
                into: vec![RecvTarget::Var("x".into())],
            }],
        ]);
        let est = estimate(
            &prog,
            &BTreeMap::new(),
            &BTreeMap::new(),
            &CostModel::ipsc2(),
        );
        assert!(!est.exact);
        assert!(est.notes.iter().any(|n| n.contains("never satisfied")));
    }

    #[test]
    fn single_walk_pairing_agrees_with_separate_passes() {
        let env = env_of(&[("n", 6)]);
        let cost = CostModel::ipsc2();
        let prog = stream();
        let (pred, est) = predict_and_estimate(&prog, &env, &BTreeMap::new(), &cost);
        let solo_pred = crate::cost::predict(&prog, &env, &BTreeMap::new());
        let solo_est = estimate(&prog, &env, &BTreeMap::new(), &cost);
        assert_eq!(pred.sends, solo_pred.sends);
        assert_eq!(pred.exact, solo_pred.exact);
        assert_eq!(est.clocks, solo_est.clocks);
        assert_eq!(est.exact, solo_est.exact);
    }
}
