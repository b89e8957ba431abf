//! The VM's batched dispatch is indistinguishable from single steps: the
//! compute charges a batch keeps to itself reach the fabric before every
//! send and receive, on a block, at the end of the program and at the end
//! of the quantum, so reports do not depend on how a run is cut.

use pdc_machine::{
    CostModel, Event, Fabric, Machine, MachineError, MetricsMode, ProcId, Process, RunConfig,
    RunReport, Scheduler, Step,
};
use pdc_mapping::Dist;
use pdc_spmd::ir::{RecvTarget, SExpr, SStmt, SpmdProgram};
use pdc_spmd::lower::lower;
use pdc_spmd::vm::ProcVm;
use std::sync::Arc;

const PROCS: usize = 3;

/// A pipeline along the processors: five rounds of receive-from-the-left,
/// compute, store, send-to-the-right — arithmetic, array, buffer and
/// branch instructions between the messages — then one block transfer.
fn pipeline() -> SpmdProgram {
    let me = SExpr::my_node;
    let has_left = || me().gt(SExpr::int(0));
    let has_right = || me().lt(SExpr::int(PROCS as i64 - 1));
    let when = |cond: SExpr, then: Vec<SStmt>, els: Vec<SStmt>| SStmt::If { cond, then, els };
    let round = vec![
        when(
            has_left(),
            vec![SStmt::Recv {
                from: me().sub(SExpr::int(1)),
                tag: 1,
                into: vec![RecvTarget::Var("x".into()), RecvTarget::Var("seen".into())],
            }],
            vec![SStmt::Let {
                var: "x".into(),
                value: SExpr::var("k").mul(SExpr::int(5)),
            }],
        ),
        SStmt::Let {
            var: "y".into(),
            value: SExpr::var("x").mul(SExpr::int(3)).add(SExpr::var("k")),
        },
        SStmt::AWriteGlobal {
            array: "A".into(),
            idx: vec![SExpr::var("k"), me().add(SExpr::int(1))],
            value: SExpr::var("y"),
        },
        SStmt::BufWrite {
            buf: "b".into(),
            idx: SExpr::var("k").imod(SExpr::int(4)),
            value: SExpr::var("y"),
        },
        when(
            has_right(),
            vec![SStmt::Send {
                to: me().add(SExpr::int(1)),
                tag: 1,
                values: vec![SExpr::var("y"), SExpr::var("k")],
            }],
            vec![],
        ),
    ];
    let body = vec![
        SStmt::AllocDist {
            array: "A".into(),
            rows: SExpr::int(5),
            cols: SExpr::int(PROCS as i64),
            dist: Dist::ColumnCyclic,
        },
        SStmt::AllocBuf {
            buf: "b".into(),
            len: SExpr::int(4),
        },
        SStmt::For {
            var: "k".into(),
            lo: SExpr::int(1),
            hi: SExpr::int(5),
            step: SExpr::int(1),
            body: round,
        },
        when(
            has_right(),
            vec![SStmt::SendBuf {
                to: me().add(SExpr::int(1)),
                tag: 2,
                buf: "b".into(),
                lo: SExpr::int(0),
                hi: SExpr::int(3),
            }],
            vec![],
        ),
        when(
            has_left(),
            vec![SStmt::RecvBuf {
                from: me().sub(SExpr::int(1)),
                tag: 2,
                buf: "b".into(),
                lo: SExpr::int(0),
                hi: SExpr::int(3),
            }],
            vec![],
        ),
    ];
    SpmdProgram::uniform(PROCS, body)
}

/// A VM that only offers `step`: the provided batch of one, which hands
/// every instruction's charge to the fabric as it executes.
struct Stepping(ProcVm);

impl Process for Stepping {
    fn step(&mut self, fabric: &mut dyn Fabric, me: ProcId) -> Result<Step, MachineError> {
        self.0.step(fabric, me)
    }
}

/// Traced, fully metered, on a heterogeneous machine, at `quantum`.
fn config(quantum: u64) -> RunConfig {
    RunConfig {
        quantum,
        trace_cap: Some(1 << 14),
        metrics: MetricsMode::Full,
        slowdowns: vec![1, 3, 2],
        ..RunConfig::default()
    }
}

fn run(config: &RunConfig, batched: bool) -> Result<RunReport, MachineError> {
    let cost = CostModel::ipsc2();
    let prog = pipeline();
    let vm = |p| ProcVm::new(Arc::new(lower(prog.body(p)).unwrap()), &cost);
    let mut machine = Machine::new(PROCS, cost);
    let sched = Scheduler::with_config(config);
    let report = if batched {
        let mut vms: Vec<ProcVm> = (0..PROCS).map(vm).collect();
        let mut refs: Vec<&mut dyn Process> = vms.iter_mut().map(|v| v as _).collect();
        sched.run(&mut machine, &mut refs)?
    } else {
        let mut vms: Vec<Stepping> = (0..PROCS).map(|p| Stepping(vm(p))).collect();
        let mut refs: Vec<&mut dyn Process> = vms.iter_mut().map(|v| v as _).collect();
        sched.run(&mut machine, &mut refs)?
    };
    assert_eq!(report.trace.dropped(), 0);
    assert_eq!(report.undelivered, 0);
    Ok(report)
}

fn events(r: &RunReport) -> Vec<Event> {
    r.trace.events().cloned().collect()
}

/// What does not depend on the interleaving of the processors: each
/// one's clock, counters, traffic and own sequence of trace events.
fn logical(r: &RunReport) -> impl PartialEq + std::fmt::Debug {
    let per_proc: Vec<Vec<_>> = (0..PROCS)
        .map(|p| {
            r.trace
                .events()
                .filter(|e| e.proc == ProcId(p))
                .map(|e| (e.at, e.kind.clone()))
                .collect()
        })
        .collect();
    (
        r.stats.clocks.clone(),
        r.stats.procs.clone(),
        r.stats.network.messages,
        r.stats.network.words,
        r.pair_messages.clone(),
        r.metrics.logical(),
        per_proc,
    )
}

fn quanta() -> [RunConfig; 3] {
    [1, 7, 4096].map(config)
}

#[test]
fn a_batched_run_reports_exactly_what_single_steps_report() {
    for sched in quanta() {
        let quantum = sched.quantum;
        let (stepped, batched) = (run(&sched, false).unwrap(), run(&sched, true).unwrap());
        assert_eq!(batched.stats, stepped.stats, "{quantum}");
        assert_eq!(batched.steps, stepped.steps, "{quantum}");
        assert_eq!(batched.pair_messages, stepped.pair_messages, "{quantum}");
        assert_eq!(batched.metrics, stepped.metrics, "{quantum}");
        assert_eq!(events(&batched), events(&stepped), "{quantum}");
    }
}

#[test]
fn the_quantum_changes_no_logical_result() {
    let [one, seven, default] = quanta().map(|sched| run(&sched, true).unwrap());
    assert!(default.stats.makespan().0 > 0);
    assert_eq!(logical(&one), logical(&default));
    assert_eq!(logical(&seven), logical(&default));
}

#[test]
fn the_step_budget_runs_out_at_the_same_step_as_before() {
    for quantum in [1, 7, 4096] {
        let sched = config(quantum);
        let total = run(&sched, false).unwrap().steps;
        for budget in [1, 2, total / 2, total - 1] {
            let sched = RunConfig {
                step_budget: budget,
                ..config(quantum)
            };
            for batched in [false, true] {
                assert_eq!(
                    run(&sched, batched).unwrap_err(),
                    MachineError::StepBudgetExceeded { budget },
                    "quantum {quantum}, batched {batched}"
                );
            }
        }
        let exact = RunConfig {
            step_budget: total,
            ..sched
        };
        assert_eq!(run(&exact, true).unwrap().steps, total);
    }
}
