//! Running a whole SPMD program and gathering the distributed results.

use crate::ir::SpmdProgram;
use crate::lower::lower;
use crate::scalar::Scalar;
use crate::vm::{DistArray, ProcVm};
use crate::SpmdError;
use pdc_istructure::IMatrix;
use pdc_machine::{
    Backend, CheckpointCfg, CostModel, FaultPlan, Machine, MetricsMode, Process, RelConfig,
    RunConfig, RunReport, Scheduler, ThreadedRunner,
};
use pdc_mapping::OwnerSet;
use std::sync::Arc;

/// Result of a completed SPMD run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Scheduler/fabric report: per-processor clocks, traffic counters,
    /// total steps. `report.stats.makespan()` is the simulated execution
    /// time the paper's figures plot.
    pub report: RunReport,
}

/// An assembled SPMD execution: lowered per-processor code, how to run it
/// (a [`RunConfig`], see DESIGN §5b "Run configuration"), and (after
/// [`run`](SpmdMachine::run)) the final VM states for inspection and
/// gathering.
///
/// # Examples
///
/// See the crate-level example.
#[derive(Debug)]
pub struct SpmdMachine {
    cost: CostModel,
    vms: Vec<ProcVm>,
    config: RunConfig,
}

impl SpmdMachine {
    /// Lower `program`, one processor per body, to run under the default
    /// [`RunConfig`].
    ///
    /// # Errors
    ///
    /// [`SpmdError::Lower`] if any body fails to lower.
    pub fn new(program: &SpmdProgram, cost: CostModel) -> Result<Self, SpmdError> {
        let mut vms = Vec::with_capacity(program.n_procs());
        for p in 0..program.n_procs() {
            let code = Arc::new(lower(program.body(p))?);
            vms.push(ProcVm::new(code, &cost));
        }
        Ok(SpmdMachine {
            cost,
            vms,
            config: RunConfig::default(),
        })
    }

    /// Replace the whole run configuration. The setters below each write
    /// one field of it.
    pub fn with_config(mut self, config: RunConfig) -> Self {
        self.config = config;
        self
    }

    /// The configuration [`run`](Self::run) will execute under.
    pub fn config(&self) -> &RunConfig {
        &self.config
    }

    /// Select the execution backend ([`Backend::Simulated`] by default).
    /// The threaded backend produces identical outputs, logical clocks and
    /// per-pair message counts; only wall-clock-dependent counters (step
    /// totals, peak in-flight) may differ.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.config.backend = backend;
        self
    }

    /// Enable event tracing with a bounded buffer; the run's
    /// [`RunReport`] carries the (flushed, merged) trace.
    pub fn with_trace(mut self, cap: usize) -> Self {
        self.config.trace_cap = Some(cap);
        self
    }

    /// Inject faults from `plan` and run under the reliable-delivery
    /// protocol with retransmission policy `cfg`. A plan that injects
    /// nothing ([`FaultPlan::none`]) leaves the run on the raw fast path,
    /// bit-identical to a run without this call. Program outputs under a
    /// lossy plan are identical to a fault-free run; only timing and the
    /// [`FaultReport`](pdc_machine::FaultReport) differ.
    pub fn with_faults_cfg(mut self, plan: FaultPlan, cfg: RelConfig) -> Self {
        self.config.reliable = (!plan.is_none()).then_some(cfg);
        self.config.faults = plan;
        self
    }

    /// Force the reliable-delivery protocol even with no faults to inject.
    /// Useful for measuring protocol overhead: sequencing, acks, and
    /// timers all run, but nothing is ever dropped.
    pub fn with_reliable_delivery(mut self, cfg: RelConfig) -> Self {
        self.config.reliable = Some(cfg);
        self
    }

    /// Checkpoint every processor's complete state at `cfg`'s interval
    /// and restart any crashed processor from its last [`Checkpoint`].
    /// Implies the reliable-delivery protocol: recovery replays the lost
    /// suffix through the retransmit path, so a crashed-and-recovered run
    /// produces the same outputs as a fault-free one.
    ///
    /// [`Checkpoint`]: pdc_machine::Checkpoint
    pub fn with_checkpoints(mut self, cfg: CheckpointCfg) -> Self {
        self.config.checkpoints = Some(cfg);
        self
    }

    /// Record full runtime metrics (counters, histograms, per-channel
    /// tables) on whichever backend runs. The run's [`RunReport`] carries
    /// the final [`MetricsSnapshot`](pdc_machine::MetricsSnapshot), whose
    /// [`logical`](pdc_machine::MetricsSnapshot::logical) projection
    /// is backend-independent on fault-free runs.
    pub fn with_metrics(mut self) -> Self {
        self.config.metrics = MetricsMode::Full;
        self
    }

    /// Execute to completion on the configured backend.
    ///
    /// # Errors
    ///
    /// A configuration that does not fit the machine, deadlocks, process
    /// faults, and budget exhaustion surface as [`SpmdError::Machine`].
    /// Under [`Backend::Threaded`], a cyclic deadlock surfaces as a
    /// receive timeout rather than a global no-progress diagnosis.
    pub fn run(&mut self) -> Result<RunOutcome, SpmdError> {
        let report = match self.config.backend {
            Backend::Simulated => {
                let mut machine = Machine::new(self.vms.len(), self.cost);
                let mut refs: Vec<&mut dyn Process> =
                    self.vms.iter_mut().map(|v| v as &mut dyn Process).collect();
                Scheduler::with_config(&self.config).run(&mut machine, &mut refs)?
            }
            Backend::Threaded { .. } => {
                ThreadedRunner::with_config(self.cost, &self.config).run(&mut self.vms)?
            }
        };
        Ok(RunOutcome { report })
    }

    /// The VM state of processor `p` (for white-box assertions in tests).
    pub fn vm(&self, p: usize) -> &ProcVm {
        &self.vms[p]
    }

    /// Distribute an input matrix across the machine under `dist` before
    /// running: each processor receives its local segment with its owned
    /// cells filled in. Mirrors the paper's assumption that input data is
    /// already resident per the domain decomposition.
    ///
    /// Only written (full) cells of `data` are copied; empty cells stay
    /// empty in the segments.
    pub fn preload_array(&mut self, name: &str, dist: pdc_mapping::Dist, data: &IMatrix<Scalar>) {
        let n = self.vms.len();
        let mut segments: Vec<DistArray> = (0..n)
            .map(|_| DistArray::alloc(dist.clone(), data.rows(), data.cols(), n))
            .collect();
        let inst = segments[0].inst.clone();
        // One sweep of the grid, each full cell routed to its owner's
        // segment (a replicated cell to every segment).
        for i in 1..=data.rows() as i64 {
            for j in 1..=data.cols() as i64 {
                let Some(v) = data.peek(i, j) else { continue };
                let (li, lj) = inst.local(i, j);
                let owners = match inst.owner(i, j) {
                    OwnerSet::One(p) => p..p + 1,
                    OwnerSet::All => 0..n,
                };
                for seg in &mut segments[owners] {
                    seg.local
                        .write(li, lj, *v)
                        .expect("fresh segment accepts first writes");
                }
            }
        }
        for (vm, seg) in self.vms.iter_mut().zip(segments) {
            vm.preload_array(name, seg);
        }
    }

    /// Bind a scalar entry parameter on every processor before running.
    pub fn preset_var(&mut self, name: &str, value: Scalar) {
        for vm in &mut self.vms {
            vm.preset_var(name, value);
        }
    }

    /// Reassemble distributed array `name` into a global matrix by
    /// applying the inverse of the Map/Local functions to every owner's
    /// segment. Cells never written anywhere remain empty in the result.
    ///
    /// # Errors
    ///
    /// [`SpmdError::Gather`] if no processor allocated `name`, or if the
    /// owners' segments disagree on extents.
    pub fn gather(&self, name: &str) -> Result<IMatrix<Scalar>, SpmdError> {
        // Each processor's segment, resolved by name once.
        let segments: Vec<Option<&DistArray>> = self.vms.iter().map(|vm| vm.array(name)).collect();
        let mut allocated = segments.iter().flatten();
        let Some(first) = allocated.next() else {
            return Err(SpmdError::Gather {
                message: format!("array `{name}` was never allocated"),
            });
        };
        let (rows, cols) = first.inst.extents();
        if let Some(other) = allocated.find(|a| a.inst.extents() != (rows, cols)) {
            return Err(SpmdError::Gather {
                message: format!(
                    "array `{name}` has inconsistent extents {:?} vs {:?}",
                    (rows, cols),
                    other.inst.extents()
                ),
            });
        }
        let mut out = IMatrix::new(rows, cols);
        for i in 1..=rows as i64 {
            for j in 1..=cols as i64 {
                // The owner's segment (P0's copy of a replicated cell) —
                // taken only if that processor's own instance agrees it
                // is the owner.
                let p = match first.inst.owner(i, j) {
                    OwnerSet::One(p) => p,
                    OwnerSet::All => 0,
                };
                let Some(a) = segments.get(p).copied().flatten() else {
                    continue;
                };
                if !a.inst.owner(i, j).contains(p) {
                    continue;
                }
                let (li, lj) = a.inst.local(i, j);
                if let Some(v) = a.local.peek(li, lj) {
                    out.write(i, j, *v).expect("fresh gather target");
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{RecvTarget, SExpr, SStmt};
    use pdc_mapping::Dist;

    /// A two-processor program: each processor writes its own columns of a
    /// column-cyclic 4x4 array with i*10+j.
    fn owner_writes_program() -> SpmdProgram {
        let body = vec![
            SStmt::AllocDist {
                array: "A".into(),
                rows: SExpr::int(4),
                cols: SExpr::int(4),
                dist: Dist::ColumnCyclic,
            },
            SStmt::For {
                var: "j".into(),
                lo: SExpr::int(1),
                hi: SExpr::int(4),
                step: SExpr::int(1),
                body: vec![SStmt::If {
                    cond: SExpr::OwnerOf {
                        array: "A".into(),
                        idx: vec![SExpr::int(1), SExpr::var("j")],
                    }
                    .eq(SExpr::my_node()),
                    then: vec![SStmt::For {
                        var: "i".into(),
                        lo: SExpr::int(1),
                        hi: SExpr::int(4),
                        step: SExpr::int(1),
                        body: vec![SStmt::AWriteGlobal {
                            array: "A".into(),
                            idx: vec![SExpr::var("i"), SExpr::var("j")],
                            value: SExpr::var("i").mul(SExpr::int(10)).add(SExpr::var("j")),
                        }],
                    }],
                    els: vec![],
                }],
            },
        ];
        SpmdProgram::uniform(2, body)
    }

    #[test]
    fn gather_reassembles_column_cyclic() {
        let prog = owner_writes_program();
        let mut m = SpmdMachine::new(&prog, CostModel::zero()).unwrap();
        m.run().unwrap();
        let g = m.gather("A").unwrap();
        assert!(g.is_fully_defined());
        for i in 1..=4 {
            for j in 1..=4 {
                assert_eq!(g.peek(i, j), Some(&Scalar::Int(i * 10 + j)));
            }
        }
    }

    #[test]
    fn ping_pong_roundtrip_and_makespan() {
        let cost = CostModel::ipsc2();
        let p0 = vec![
            SStmt::Send {
                to: SExpr::int(1),
                tag: 1,
                values: vec![SExpr::int(21)],
            },
            SStmt::Recv {
                from: SExpr::int(1),
                tag: 2,
                into: vec![RecvTarget::Var("r".into())],
            },
        ];
        let p1 = vec![
            SStmt::Recv {
                from: SExpr::int(0),
                tag: 1,
                into: vec![RecvTarget::Var("x".into())],
            },
            SStmt::Send {
                to: SExpr::int(0),
                tag: 2,
                values: vec![SExpr::var("x").mul(SExpr::int(2))],
            },
        ];
        let prog = SpmdProgram::new(vec![p0, p1]);
        let mut m = SpmdMachine::new(&prog, cost).unwrap();
        let out = m.run().unwrap();
        assert_eq!(m.vm(0).var("r"), Some(Scalar::Int(42)));
        assert_eq!(out.report.stats.network.messages, 2);
        assert_eq!(out.report.undelivered, 0);
        // Round trip: two sends, two flights, two receives (one scalar
        // encodes as two wire words), one multiply, and three variable
        // accesses (store x, load x, store r).
        let expected = 2 * (cost.send_cost(2) + cost.flight + cost.recv_cost(2))
            + cost.alu_op
            + 3 * cost.mem_op;
        assert_eq!(out.report.stats.makespan().0, expected);
    }

    #[test]
    fn threaded_backend_matches_simulated_makespan() {
        // Same ping-pong as above, run on real threads: outputs, message
        // counts and logical makespan must be identical because arrival
        // stamps travel inside the messages.
        let cost = CostModel::ipsc2();
        let p0 = vec![
            SStmt::Send {
                to: SExpr::int(1),
                tag: 1,
                values: vec![SExpr::int(21)],
            },
            SStmt::Recv {
                from: SExpr::int(1),
                tag: 2,
                into: vec![RecvTarget::Var("r".into())],
            },
        ];
        let p1 = vec![
            SStmt::Recv {
                from: SExpr::int(0),
                tag: 1,
                into: vec![RecvTarget::Var("x".into())],
            },
            SStmt::Send {
                to: SExpr::int(0),
                tag: 2,
                values: vec![SExpr::var("x").mul(SExpr::int(2))],
            },
        ];
        let prog = SpmdProgram::new(vec![p0, p1]);

        let mut sim = SpmdMachine::new(&prog, cost).unwrap();
        let sim_out = sim.run().unwrap();
        let mut thr = SpmdMachine::new(&prog, cost)
            .unwrap()
            .with_backend(Backend::threaded());
        let thr_out = thr.run().unwrap();

        assert_eq!(thr.vm(0).var("r"), Some(Scalar::Int(42)));
        assert_eq!(
            thr_out.report.stats.makespan(),
            sim_out.report.stats.makespan()
        );
        assert_eq!(thr_out.report.pair_messages, sim_out.report.pair_messages);
        assert_eq!(thr_out.report.undelivered, 0);
    }

    #[test]
    fn metrics_agree_across_backends() {
        // The ping-pong with full metrics on: logical projections must be
        // identical, and the VM scratch arenas must register their first
        // (growing) use on both backends.
        let cost = CostModel::ipsc2();
        let p0 = vec![
            SStmt::Send {
                to: SExpr::int(1),
                tag: 1,
                values: vec![SExpr::int(21)],
            },
            SStmt::Recv {
                from: SExpr::int(1),
                tag: 2,
                into: vec![RecvTarget::Var("r".into())],
            },
        ];
        let p1 = vec![
            SStmt::Recv {
                from: SExpr::int(0),
                tag: 1,
                into: vec![RecvTarget::Var("x".into())],
            },
            SStmt::Send {
                to: SExpr::int(0),
                tag: 2,
                values: vec![SExpr::var("x").mul(SExpr::int(2))],
            },
        ];
        let prog = SpmdProgram::new(vec![p0, p1]);

        let mut sim = SpmdMachine::new(&prog, cost).unwrap().with_metrics();
        let sim_out = sim.run().unwrap();
        let mut thr = SpmdMachine::new(&prog, cost)
            .unwrap()
            .with_backend(Backend::threaded())
            .with_metrics();
        let thr_out = thr.run().unwrap();

        use pdc_machine::Ctr;
        let (sm, tm) = (&sim_out.report.metrics, &thr_out.report.metrics);
        assert!(sm.full && tm.full);
        assert_eq!(sm.logical(), tm.logical());
        assert_eq!(sm.total(Ctr::FramesSent), 2);
        assert_eq!(sm.total(Ctr::FramesRecvd), 2);
        // One scalar = two wire words on each of the two messages.
        assert_eq!(sm.total(Ctr::WordsSent), 4);
        // First use of each scratch arena grows it from empty — except
        // P1's send, whose wire buffer was already grown by the receive
        // that preceded it.
        assert_eq!(sm.total(Ctr::ScratchGrow), 3);
        assert_eq!(sm.total(Ctr::ScratchReuse), 1);
        assert_eq!(sm.out_by_triple(), tm.out_by_triple());
        // Per-channel frame counts from the metrics layer match the
        // scheduler's own accounting, triple for triple.
        let by_triple = sm.out_by_triple();
        assert_eq!(by_triple.len(), sim_out.report.pair_messages.len());
        for (&(src, dst, tag), &n) in &sim_out.report.pair_messages {
            let frames = by_triple
                .iter()
                .find(|&&((s, d, t), _)| (s, d, t) == (src.0 as u64, dst.0 as u64, tag.0 as u64))
                .map_or(0, |&(_, (frames, _))| frames);
            assert_eq!(frames, n, "channel ({src}, {dst}, {tag:?})");
        }
    }

    #[test]
    fn threaded_deadlock_times_out() {
        // Two processors each waiting on the other: the threaded backend
        // cannot diagnose the cycle globally, so it must surface a receive
        // timeout rather than hang.
        let body = vec![SStmt::Recv {
            from: SExpr::int(1).sub(SExpr::my_node()),
            tag: 0,
            into: vec![RecvTarget::Var("x".into())],
        }];
        let prog = SpmdProgram::uniform(2, body);
        let mut m = SpmdMachine::new(&prog, CostModel::zero())
            .unwrap()
            .with_backend(Backend::Threaded {
                recv_timeout: std::time::Duration::from_millis(50),
            });
        let err = m.run().unwrap_err();
        assert!(err.to_string().contains("timeout"), "got: {err}");
    }

    #[test]
    fn deadlock_surfaces_as_error() {
        let body = vec![SStmt::Recv {
            from: SExpr::int(1).sub(SExpr::my_node()),
            tag: 0,
            into: vec![RecvTarget::Var("x".into())],
        }];
        let prog = SpmdProgram::uniform(2, body);
        let mut m = SpmdMachine::new(&prog, CostModel::zero()).unwrap();
        let err = m.run().unwrap_err();
        assert!(err.to_string().contains("deadlock"));
    }

    #[test]
    fn lossy_faults_do_not_change_outputs() {
        // The ping-pong under a lossy plan: the reliability layer must
        // recover the exact program-level traffic on both backends.
        let cost = CostModel::ipsc2();
        let p0 = vec![
            SStmt::Send {
                to: SExpr::int(1),
                tag: 1,
                values: vec![SExpr::int(21)],
            },
            SStmt::Recv {
                from: SExpr::int(1),
                tag: 2,
                into: vec![RecvTarget::Var("r".into())],
            },
        ];
        let p1 = vec![
            SStmt::Recv {
                from: SExpr::int(0),
                tag: 1,
                into: vec![RecvTarget::Var("x".into())],
            },
            SStmt::Send {
                to: SExpr::int(0),
                tag: 2,
                values: vec![SExpr::var("x").mul(SExpr::int(2))],
            },
        ];
        let prog = SpmdProgram::new(vec![p0, p1]);
        let plan = pdc_machine::FaultPlan::seeded(11)
            .with_drops(300)
            .with_dups(150)
            .with_fault_budget(4);
        let cfg = pdc_machine::RelConfig {
            rto_wall: std::time::Duration::from_millis(2),
            ..Default::default()
        };

        for backend in [Backend::Simulated, Backend::threaded()] {
            let mut m = SpmdMachine::new(&prog, cost)
                .unwrap()
                .with_backend(backend)
                .with_faults_cfg(plan.clone(), cfg);
            let out = m.run().unwrap();
            assert_eq!(m.vm(0).var("r"), Some(Scalar::Int(42)), "{backend:?}");
            assert_eq!(out.report.undelivered, 0);
            assert!(out.report.fault.is_some(), "reliable run reports faults");
        }
    }

    #[test]
    fn empty_fault_plan_takes_vanilla_path() {
        // FaultPlan::none() must be bit-identical to not calling
        // with_faults_cfg at all: same makespan, same counters, no report.
        let prog = owner_writes_program();
        let mut plain = SpmdMachine::new(&prog, CostModel::ipsc2()).unwrap();
        let plain_out = plain.run().unwrap();
        let mut none = SpmdMachine::new(&prog, CostModel::ipsc2())
            .unwrap()
            .with_faults_cfg(FaultPlan::none(), RelConfig::default());
        assert_eq!(none.config().protocol(), None);
        let forced = SpmdMachine::new(&prog, CostModel::ipsc2())
            .unwrap()
            .with_reliable_delivery(RelConfig::default());
        assert_eq!(forced.config().protocol(), Some(RelConfig::default()));
        let none_out = none.run().unwrap();
        assert_eq!(none_out.report.stats, plain_out.report.stats);
        assert_eq!(none_out.report.fault, None, "no reliability layer ran");
    }

    #[test]
    fn gather_unknown_array_errors() {
        let prog = SpmdProgram::uniform(
            1,
            vec![SStmt::Let {
                var: "x".into(),
                value: SExpr::int(1),
            }],
        );
        let mut m = SpmdMachine::new(&prog, CostModel::zero()).unwrap();
        m.run().unwrap();
        assert!(m.gather("nope").is_err());
    }

    #[test]
    fn buffer_block_transfer() {
        // P0 fills a buffer and sends a 3-element block; P1 receives it
        // into the middle of its own buffer.
        let p0 = vec![
            SStmt::AllocBuf {
                buf: "b".into(),
                len: SExpr::int(5),
            },
            SStmt::For {
                var: "i".into(),
                lo: SExpr::int(0),
                hi: SExpr::int(4),
                step: SExpr::int(1),
                body: vec![SStmt::BufWrite {
                    buf: "b".into(),
                    idx: SExpr::var("i"),
                    value: SExpr::var("i").mul(SExpr::int(11)),
                }],
            },
            SStmt::SendBuf {
                to: SExpr::int(1),
                tag: 9,
                buf: "b".into(),
                lo: SExpr::int(1),
                hi: SExpr::int(3),
            },
        ];
        let p1 = vec![
            SStmt::AllocBuf {
                buf: "c".into(),
                len: SExpr::int(10),
            },
            SStmt::RecvBuf {
                from: SExpr::int(0),
                tag: 9,
                buf: "c".into(),
                lo: SExpr::int(4),
                hi: SExpr::int(6),
            },
        ];
        let prog = SpmdProgram::new(vec![p0, p1]);
        let mut m = SpmdMachine::new(&prog, CostModel::ipsc2()).unwrap();
        let out = m.run().unwrap();
        assert_eq!(out.report.stats.network.messages, 1);
        let c = m.vm(1).buf("c").unwrap();
        assert_eq!(
            &c[4..=6],
            &[Scalar::Int(11), Scalar::Int(22), Scalar::Int(33)]
        );
        assert_eq!(c[0], Scalar::Int(0));
    }

    #[test]
    fn replicated_array_gathers_from_p0() {
        let body = vec![
            SStmt::AllocDist {
                array: "R".into(),
                rows: SExpr::int(1),
                cols: SExpr::int(2),
                dist: Dist::Replicated,
            },
            SStmt::AWriteGlobal {
                array: "R".into(),
                idx: vec![SExpr::int(1), SExpr::int(1)],
                value: SExpr::my_node().add(SExpr::int(100)),
            },
        ];
        let prog = SpmdProgram::uniform(3, body);
        let mut m = SpmdMachine::new(&prog, CostModel::zero()).unwrap();
        m.run().unwrap();
        let g = m.gather("R").unwrap();
        // P0's copy wins for replicated arrays.
        assert_eq!(g.peek(1, 1), Some(&Scalar::Int(100)));
        assert_eq!(g.peek(1, 2), None);
    }
}
