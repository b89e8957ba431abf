//! Under reliable delivery and checkpoints the scheduler runs the VM in
//! batches that end exactly where a loop stepping one instruction at a
//! time would have acted — the end of the quantum or the step budget, a
//! crash that can fire, a checkpoint falling due. A process that only
//! offers `step` gets batches of one from both batch entry points, i.e.
//! the stepped loop; the real `ProcVm` must be indistinguishable from
//! it: same report, same trace, same metrics, same arrays, same error.

use pdc_istructure::IMatrix;
use pdc_machine::{
    CheckpointCfg, CostModel, Event, EventKind, Fabric, FaultPlan, FaultReport, Machine,
    MachineError, MachineStats, MetricsMode, MetricsSnapshot, ProcId, Process, RecoveryReport,
    RelConfig, RunConfig, RunReport, Scheduler, Step, Tag,
};
use pdc_mapping::Dist;
use pdc_spmd::ir::{RecvTarget, SExpr, SStmt, SpmdProgram};
use pdc_spmd::lower::lower;
use pdc_spmd::vm::ProcVm;
use pdc_spmd::Scalar;
use pdc_testkit::{fault, Rng};
use std::collections::BTreeMap;
use std::sync::Arc;

const PROCS: usize = 4;

fn when(cond: SExpr, then: Vec<SStmt>) -> SStmt {
    SStmt::If {
        cond,
        then,
        els: vec![],
    }
}

fn for_loop(var: &str, hi: i64, body: Vec<SStmt>) -> SStmt {
    SStmt::For {
        var: var.into(),
        lo: SExpr::int(1),
        hi: SExpr::int(hi),
        step: SExpr::int(1),
        body,
    }
}

fn set(var: &str, value: SExpr) -> SStmt {
    SStmt::Let {
        var: var.into(),
        value,
    }
}

/// `work` iterations of arithmetic: a stretch with no fabric operation.
fn compute(work: i64) -> SStmt {
    for_loop(
        "t",
        work,
        vec![set(
            "acc",
            SExpr::var("acc")
                .add(SExpr::var("t").mul(SExpr::var("x")))
                .imod(SExpr::int(1_000_003)),
        )],
    )
}

/// A pipeline down the processors — `rounds` of receive-from-the-left,
/// `work` iterations of arithmetic, array and buffer stores,
/// send-to-the-right — one block transfer, then `rounds / 2` one-word
/// messages back up, so every processor both sends and receives on
/// several streams and acks travel both ways.
fn pipeline(rounds: i64, work: i64) -> SpmdProgram {
    let me = SExpr::my_node;
    let has_left = || me().gt(SExpr::int(0));
    let has_right = || me().lt(SExpr::int(PROCS as i64 - 1));
    let down = vec![
        SStmt::If {
            cond: has_left(),
            then: vec![SStmt::Recv {
                from: me().sub(SExpr::int(1)),
                tag: 1,
                into: vec![RecvTarget::Var("x".into()), RecvTarget::Var("seen".into())],
            }],
            els: vec![set("x", SExpr::var("k").mul(SExpr::int(5)))],
        },
        set("acc", SExpr::int(0)),
        compute(work),
        set(
            "y",
            SExpr::var("x")
                .mul(SExpr::int(3))
                .add(SExpr::var("k"))
                .add(SExpr::var("acc"))
                .imod(SExpr::int(1_000_003)),
        ),
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
        ),
    ];
    let up = vec![
        SStmt::If {
            cond: has_right(),
            then: vec![SStmt::Recv {
                from: me().add(SExpr::int(1)),
                tag: 3,
                into: vec![RecvTarget::Var("z".into())],
            }],
            els: vec![set("z", SExpr::var("k"))],
        },
        when(
            has_left(),
            vec![SStmt::Send {
                to: me().sub(SExpr::int(1)),
                tag: 3,
                values: vec![SExpr::var("z").add(me())],
            }],
        ),
    ];
    let body = vec![
        SStmt::AllocDist {
            array: "A".into(),
            rows: SExpr::int(rounds),
            cols: SExpr::int(PROCS as i64),
            dist: Dist::ColumnCyclic,
        },
        SStmt::AllocBuf {
            buf: "b".into(),
            len: SExpr::int(4),
        },
        for_loop("k", rounds, down),
        when(
            has_right(),
            vec![SStmt::SendBuf {
                to: me().add(SExpr::int(1)),
                tag: 2,
                buf: "b".into(),
                lo: SExpr::int(0),
                hi: SExpr::int(3),
            }],
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
        ),
        for_loop("k", rounds / 2, up),
    ];
    SpmdProgram::uniform(PROCS, body)
}

/// Two processors: P0 does `lead` iterations of arithmetic, then sends
/// one word; P1 does `head` iterations, receives it, then does `tail`.
fn handoff(lead: i64, head: i64, tail: i64) -> SpmdProgram {
    let sender = vec![
        set("x", SExpr::int(7)),
        set("acc", SExpr::int(0)),
        compute(lead),
        SStmt::Send {
            to: SExpr::int(1),
            tag: 1,
            values: vec![SExpr::var("acc")],
        },
    ];
    let receiver = vec![
        set("x", SExpr::int(3)),
        set("acc", SExpr::int(0)),
        compute(head),
        SStmt::Recv {
            from: SExpr::int(0),
            tag: 1,
            into: vec![RecvTarget::Var("got".into())],
        },
        compute(tail),
    ];
    SpmdProgram::new(vec![sender, receiver])
}

/// A VM that only offers `step` (and its image): both batch entry points
/// fall back to the provided batch of one, so the scheduler's boundary
/// code runs after every instruction, as the stepped loop did.
struct Stepped<P>(P);

impl<P: Process> Process for Stepped<P> {
    fn step(&mut self, fabric: &mut dyn Fabric, me: ProcId) -> Result<Step, MachineError> {
        self.0.step(fabric, me)
    }

    fn snapshot(&self) -> Option<Vec<u8>> {
        self.0.snapshot()
    }

    fn restore(&mut self, state: &[u8]) -> bool {
        self.0.restore(state)
    }
}

/// Everything a run says, comparable: the whole report with the trace
/// event by event, and every processor's segment of `A` and its
/// variables (what a gather would read).
#[derive(Debug, PartialEq)]
struct Said {
    stats: MachineStats,
    steps: u64,
    undelivered: usize,
    pair_messages: BTreeMap<(ProcId, ProcId, Tag), u64>,
    pending: Vec<(ProcId, ProcId, Tag, usize)>,
    fault: Option<FaultReport>,
    recovery: Option<RecoveryReport>,
    metrics: MetricsSnapshot,
    events: Vec<Event>,
    arrays: Vec<Option<IMatrix<Scalar>>>,
    vars: Vec<[Option<Scalar>; 3]>,
}

fn said(r: RunReport, vms: &[&ProcVm]) -> Said {
    assert_eq!(r.trace.dropped(), 0, "the trace cap holds every event");
    Said {
        events: r.trace.events().cloned().collect(),
        stats: r.stats,
        steps: r.steps,
        undelivered: r.undelivered,
        pair_messages: r.pair_messages,
        pending: r.pending,
        fault: r.fault,
        recovery: r.recovery,
        metrics: r.metrics,
        arrays: vms
            .iter()
            .map(|vm| vm.array("A").map(|a| a.local.clone()))
            .collect(),
        vars: vms
            .iter()
            .map(|vm| [vm.var("acc"), vm.var("z"), vm.var("got")])
            .collect(),
    }
}

/// Traced and fully metered, so nothing a run does goes unobserved.
fn observed(config: RunConfig) -> RunConfig {
    RunConfig {
        trace_cap: Some(1 << 17),
        metrics: MetricsMode::Full,
        ..config
    }
}

fn run(prog: &SpmdProgram, config: &RunConfig, batched: bool) -> Result<Said, MachineError> {
    let cost = CostModel::ipsc2();
    let n = prog.n_procs();
    let vm = |p| ProcVm::new(Arc::new(lower(prog.body(p)).unwrap()), &cost);
    let mut machine = Machine::new(n, cost);
    let sched = Scheduler::with_config(config);
    if batched {
        let mut vms: Vec<ProcVm> = (0..n).map(vm).collect();
        let mut refs: Vec<&mut dyn Process> = vms.iter_mut().map(|v| v as _).collect();
        let report = sched.run(&mut machine, &mut refs)?;
        Ok(said(report, &vms.iter().collect::<Vec<_>>()))
    } else {
        let mut vms: Vec<Stepped<ProcVm>> = (0..n).map(|p| Stepped(vm(p))).collect();
        let mut refs: Vec<&mut dyn Process> = vms.iter_mut().map(|v| v as _).collect();
        let report = sched.run(&mut machine, &mut refs)?;
        Ok(said(report, &vms.iter().map(|v| &v.0).collect::<Vec<_>>()))
    }
}

/// Stepped == batched on `prog` under `config`; returns what both said.
fn agree(prog: &SpmdProgram, config: &RunConfig, label: &str) -> Result<Said, MachineError> {
    let stepped = run(prog, config, false);
    let batched = run(prog, config, true);
    match (&stepped, &batched) {
        (Ok(s), Ok(b)) => {
            // The small parts first: a whole-`Said` diff is unreadable.
            assert_eq!(b.stats, s.stats, "{label}: stats");
            assert_eq!(b.steps, s.steps, "{label}: steps");
            assert_eq!(b.fault, s.fault, "{label}: fault report");
            assert_eq!(b.recovery, s.recovery, "{label}: recovery report");
            assert_eq!(b.events, s.events, "{label}: trace");
            assert_eq!(b, s, "{label}");
        }
        _ => assert_eq!(batched, stepped, "{label}"),
    }
    batched
}

const PLANS: usize = 5;
const PROTOCOLS: usize = 4;

/// Plan family `family` of `pdc_testkit::fault`, or a lossy plan with a
/// probabilistic crash rate on top.
fn plan(family: usize, rng: &mut Rng) -> FaultPlan {
    match family {
        0 => fault::fault_plan(rng),
        1 => fault::fault_plan_with_stall(rng, PROCS),
        2 => fault::crash_plan(rng, PROCS),
        3 => fault::crash_plan_with_losses(rng, PROCS),
        _ => {
            let pm = rng.range_i64(1, 8) as u32;
            fault::fault_plan(rng).with_crash_rate(pm, 2)
        }
    }
}

/// Reliable delivery alone, independent checkpoints paced by ops only and
/// by ops and the amortization clock, coordinated checkpoints.
fn checkpoints(protocol: usize, rng: &mut Rng) -> Option<CheckpointCfg> {
    let every = CheckpointCfg::every(rng.range_i64(8, 400) as u64);
    match protocol {
        0 => None,
        1 => Some(every.with_amortization(0)),
        2 => Some(every),
        _ => Some(every.coordinated()),
    }
}

/// Every plan family × protocol × quantum × slowdowns, 120 cases drawn
/// from `seed`.
fn sweep(seed: u64) {
    // What the sweep exercised, so it cannot pass vacuously.
    let (mut finished, mut failed) = (0, 0);
    let (mut paced_checkpoints, mut survived, mut stalls, mut retransmits) = (0, 0, 0, 0);
    let mut case = 0;
    for family in 0..PLANS {
        for protocol in 0..PROTOCOLS {
            for quantum in [1, 7, 4096] {
                for slowdowns in [vec![], vec![3, 1, 2, 1]] {
                    case += 1;
                    let mut rng = Rng::from_seed(seed ^ (case as u64) << 20);
                    // At quantum 1 every blocked receive is retried every
                    // round: those cases get the shorter programs.
                    let (rounds, work) = if quantum == 1 { (9, 10) } else { (20, 20) };
                    let prog = pipeline(rng.range_i64(rounds / 2, rounds), rng.range_i64(0, work));
                    let config = observed(RunConfig {
                        faults: plan(family, &mut rng),
                        reliable: Some(RelConfig::default()),
                        checkpoints: checkpoints(protocol, &mut rng),
                        quantum,
                        slowdowns,
                        ..RunConfig::default()
                    });
                    let label = format!(
                        "seed {seed} case {case}: plan family {family}, protocol {protocol}, \
                         quantum {quantum}, slowdowns {:?}",
                        config.slowdowns
                    );
                    match agree(&prog, &config, &label) {
                        Ok(s) => {
                            finished += 1;
                            let (fault, recovery) = (s.fault.unwrap(), s.recovery);
                            stalls += fault.injected.stalls;
                            retransmits += fault.retransmits;
                            if let Some(r) = recovery {
                                survived += r.crashes_survived;
                                if protocol == 2 {
                                    // Beyond the initial and the final one.
                                    paced_checkpoints += r.checkpoints_taken - 2 * PROCS as u64;
                                }
                            }
                        }
                        // A crash with nothing to restore from.
                        Err(_) => failed += 1,
                    }
                }
            }
        }
    }
    eprintln!(
        "{finished} finished, {failed} failed; {paced_checkpoints} clock-paced checkpoints, \
         {survived} crashes survived, {stalls} stalls, {retransmits} retransmits"
    );
    assert_eq!(finished + failed, 120);
    assert!(finished >= 90, "{finished} finished, {failed} failed");
    assert!(failed > 0, "an unrecovered crash fails the same way too");
    assert!(paced_checkpoints > 0, "the amortization gate opened");
    assert!(survived > 0 && stalls > 0 && retransmits > 0);
}

// Two tests so the sweep uses both cores of a small host.

#[test]
fn batches_under_the_protocol_are_indistinguishable_from_single_steps() {
    sweep(0xBA7C4);
}

#[test]
fn batches_under_the_protocol_are_indistinguishable_on_another_seed() {
    sweep(11);
}

fn checkpoints_of(s: &Said, p: usize) -> Vec<u64> {
    let at_op = |e: &Event| match e.kind {
        EventKind::CheckpointTaken { at_op, .. } if e.proc == ProcId(p) => Some(at_op),
        _ => None,
    };
    s.events.iter().filter_map(at_op).collect()
}

/// Independent checkpoints whose op threshold is met at once, so only the
/// amortization clock (128 × the launch image's cost) paces them.
fn clock_paced(faults: FaultPlan) -> RunConfig {
    observed(RunConfig {
        faults,
        reliable: Some(RelConfig::default()),
        checkpoints: Some(CheckpointCfg::every(4)),
        ..RunConfig::default()
    })
}

#[test]
fn a_stall_inside_the_amortization_wait_ends_the_batch() {
    // P0 computes for a long while. Undisturbed, its clock reaches the
    // amortization gate somewhere in the thousands of ops.
    let prog = handoff(4_000, 1, 1);
    let quiet = agree(&prog, &clock_paced(FaultPlan::none()), "no stall").unwrap();
    let first = checkpoints_of(&quiet, 0)[1];
    assert!(first > 1_000, "first paced checkpoint at op {first}");
    // A stall at op 300 carries the clock across the gate: the checkpoint
    // is due at the very next boundary, mid-way through what would have
    // been one batch.
    let stall = FaultPlan::seeded(0).with_stall(ProcId(0), 300, 10_000_000);
    let stalled = agree(&prog, &clock_paced(stall), "stall at op 300").unwrap();
    assert_eq!(checkpoints_of(&stalled, 0)[1], 301);
}

#[test]
fn a_scripted_crash_ends_the_batch_before_the_ops_threshold() {
    // Ops-only pacing every 512 ops; the crash is due at op 200.
    let config = observed(RunConfig {
        faults: FaultPlan::seeded(0).with_crash(ProcId(0), 200),
        reliable: Some(RelConfig::default()),
        checkpoints: Some(CheckpointCfg::every(512).with_amortization(0)),
        ..RunConfig::default()
    });
    let s = agree(&handoff(400, 1, 1), &config, "crash at op 200").unwrap();
    let crashes: Vec<&Event> = s
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Crash { .. }))
        .collect();
    assert_eq!(crashes.len(), 1);
    assert_eq!(crashes[0].kind, EventKind::Crash { at_op: 200 });
    let recovery = s.recovery.unwrap();
    assert_eq!(recovery.crashes_survived, 1);
    assert_eq!(recovery.replayed_ops, 200, "back to the launch image");
    assert_eq!(checkpoints_of(&s, 0)[1], 200 + 512);
}

#[test]
fn an_idle_wait_that_crosses_the_amortization_gate_ends_the_batch() {
    // P1 is past its op threshold but far short of the clock gate when
    // it blocks; the message arrives after P0's long computation, and
    // the wait carries P1's clock across the gate inside the receive.
    let s = agree(
        &handoff(20_000, 20, 2_000),
        &clock_paced(FaultPlan::none()),
        "idle wait",
    )
    .unwrap();
    let p1: Vec<&EventKind> = s
        .events
        .iter()
        .filter(|e| e.proc == ProcId(1))
        .map(|e| &e.kind)
        .filter(|k| !matches!(k, EventKind::Compute { .. } | EventKind::Ack { .. }))
        .collect();
    let recv = p1
        .iter()
        .position(|k| matches!(k, EventKind::Recv { waited, .. } if *waited > 50_000))
        .expect("P1 waits for the message");
    assert!(
        matches!(p1[recv + 1], EventKind::CheckpointTaken { .. }),
        "the checkpoint is taken at the boundary right after the receive: {:?}",
        &p1[recv..]
    );
}

#[test]
fn the_step_budget_runs_out_at_the_same_step_mid_batch() {
    let prog = pipeline(12, 10);
    for checkpoints in [None, Some(CheckpointCfg::every(64))] {
        for quantum in [7, 4096] {
            let config = observed(RunConfig {
                reliable: Some(RelConfig::default()),
                checkpoints,
                quantum,
                ..RunConfig::default()
            });
            let total = agree(&prog, &config, "unbounded").unwrap().steps;
            for budget in [1, 2, total / 2, total - 1] {
                let config = RunConfig {
                    step_budget: budget,
                    ..config.clone()
                };
                let label = format!("quantum {quantum}, budget {budget}");
                assert_eq!(
                    agree(&prog, &config, &label).unwrap_err(),
                    MachineError::StepBudgetExceeded { budget },
                    "{label}"
                );
            }
            // The whole budget is usable: not one step is lost to batching.
            let exact = RunConfig {
                step_budget: total,
                ..config
            };
            assert_eq!(agree(&prog, &exact, "exact").unwrap().steps, total);
        }
    }
}
