//! Stepped == batched. The VM runs in batches that hand the fabric their
//! compute charges before every send and receive, on a block, at the end
//! of the program and of the quantum; under reliable delivery and
//! checkpoints the scheduler also ends a batch exactly where a loop
//! stepping one instruction at a time would have acted — the step budget,
//! a crash that can fire, a checkpoint falling due. A process that offers
//! only `step` gets batches of one from both batch entry points: the
//! stepped loop. The real `ProcVm` must be indistinguishable from it —
//! same report, trace, metrics, arrays and error — on the raw fabric and
//! under every protocol.

mod differential;

use differential::*;
use pdc_testkit::fault;

const PROCS: usize = 4;

fn when(cond: SExpr, then: Vec<SStmt>) -> SStmt {
    SStmt::If {
        cond,
        then,
        els: vec![],
    }
}

fn for_loop(var: &str, hi: i64, body: Vec<SStmt>) -> SStmt {
    let (lo, hi, step) = (SExpr::int(1), SExpr::int(hi), SExpr::int(1));
    SStmt::For {
        var: var.into(),
        lo,
        hi,
        step,
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
    let acc = SExpr::var("acc").add(SExpr::var("t").mul(SExpr::var("x")));
    for_loop("t", work, vec![set("acc", acc.imod(SExpr::int(1_000_003)))])
}

/// A pipeline down the processors — `rounds` of receive-from-the-left,
/// `work` iterations of arithmetic, array and buffer stores,
/// send-to-the-right — one block transfer, then `rounds / 2` one-word
/// messages back up, so every processor both sends and receives on
/// several streams and acks travel both ways.
fn pipeline(rounds: i64, work: i64) -> SpmdProgram {
    let (me, var) = (SExpr::my_node, SExpr::var);
    let (left, right) = (|| me().sub(SExpr::int(1)), || me().add(SExpr::int(1)));
    let has_left = || me().gt(SExpr::int(0));
    let has_right = || me().lt(SExpr::int(PROCS as i64 - 1));
    let y = var("x").mul(SExpr::int(3)).add(var("k")).add(var("acc"));
    let (row, slot) = (vec![var("k"), right()], var("k").imod(SExpr::int(4)));
    let down = vec![
        SStmt::If {
            cond: has_left(),
            then: vec![recv(left(), 1, &["x", "seen"])],
            els: vec![set("x", var("k").mul(SExpr::int(5)))],
        },
        set("acc", SExpr::int(0)),
        compute(work),
        set("y", y.imod(SExpr::int(1_000_003))),
        SStmt::AWriteGlobal {
            array: "A".into(),
            idx: row,
            value: var("y"),
        },
        SStmt::BufWrite {
            buf: "b".into(),
            idx: slot,
            value: var("y"),
        },
        when(
            has_right(),
            vec![send(right(), 1, vec![var("y"), var("k")])],
        ),
    ];
    let up = vec![
        SStmt::If {
            cond: has_right(),
            then: vec![recv(right(), 3, &["z"])],
            els: vec![set("z", var("k"))],
        },
        when(has_left(), vec![send(left(), 3, vec![var("z").add(me())])]),
    ];
    let (buf, lo, hi) = (|| "b".to_string(), || SExpr::int(0), || SExpr::int(3));
    let (rows, cols) = (SExpr::int(rounds), SExpr::int(PROCS as i64));
    let body = vec![
        SStmt::AllocDist {
            array: "A".into(),
            rows,
            cols,
            dist: Dist::ColumnCyclic,
        },
        SStmt::AllocBuf {
            buf: buf(),
            len: SExpr::int(4),
        },
        for_loop("k", rounds, down),
        when(
            has_right(),
            vec![SStmt::SendBuf {
                to: right(),
                tag: 2,
                buf: buf(),
                lo: lo(),
                hi: hi(),
            }],
        ),
        when(
            has_left(),
            vec![SStmt::RecvBuf {
                from: left(),
                tag: 2,
                buf: buf(),
                lo: lo(),
                hi: hi(),
            }],
        ),
        for_loop("k", rounds / 2, up),
    ];
    SpmdProgram::uniform(PROCS, body)
}

/// Two processors: P0 does `lead` iterations of arithmetic, then sends
/// one word; P1 does `head` iterations, receives it, then does `tail`.
fn handoff(lead: i64, head: i64, tail: i64) -> SpmdProgram {
    let start = |x| vec![set("x", SExpr::int(x)), set("acc", SExpr::int(0))];
    let (mut sender, mut receiver) = (start(7), start(3));
    sender.extend([
        compute(lead),
        send(SExpr::int(1), 1, vec![SExpr::var("acc")]),
    ]);
    receiver.extend([
        compute(head),
        recv(SExpr::int(0), 1, &["got"]),
        compute(tail),
    ]);
    SpmdProgram::new(vec![sender, receiver])
}

/// Stepped == batched on `prog` at `axes`, traced and fully metered so
/// that nothing a run does goes unobserved; what both said.
fn agree(prog: &SpmdProgram, axes: &[Axis], label: &str) -> Result<Run, MachineError> {
    let run = |stepped: Option<Axis>| {
        let point = at(axes.iter().cloned().chain([Axis::Observed]).chain(stepped));
        run_spmd(prog, &point, &["acc", "z", "got"])
    };
    let batched = run(None);
    match (run(Some(Axis::Stepped)), &batched) {
        (Ok(stepped), Ok(batched)) => {
            assert_observably_equal(&stepped, batched, Ignoring::Nothing, label)
        }
        (stepped, batched) => assert_eq!(batched.as_ref().err(), stepped.err().as_ref(), "{label}"),
    }
    batched
}

/// The loops a run can take: the raw fabric; reliable delivery alone;
/// independent checkpoints paced by ops only, and by ops and the
/// amortization clock; coordinated checkpoints.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Loop {
    Raw,
    Reliable,
    OpsPaced,
    ClockPaced,
    Coordinated,
}

const PROTOCOLS: [Loop; 4] = [
    Loop::Reliable,
    Loop::OpsPaced,
    Loop::ClockPaced,
    Loop::Coordinated,
];

impl Loop {
    /// Under this loop, with damage from plan family `family` of
    /// `pdc_testkit::fault` (family 4: a lossy plan with a probabilistic
    /// crash rate on top).
    fn axes(self, family: usize, rng: &mut Rng) -> Vec<Axis> {
        if self == Loop::Raw {
            return vec![];
        }
        let plan = match family {
            0 => fault::fault_plan(rng),
            1 => fault::fault_plan_with_stall(rng, PROCS),
            2 => fault::crash_plan(rng, PROCS),
            3 => fault::crash_plan_with_losses(rng, PROCS),
            _ => {
                let pm = rng.range_i64(1, 8) as u32;
                fault::fault_plan(rng).with_crash_rate(pm, 2)
            }
        };
        let every = CheckpointCfg::every(rng.range_i64(8, 400) as u64);
        let ckpt = match self {
            Loop::OpsPaced => Some(every.with_amortization(0)),
            Loop::ClockPaced => Some(every),
            Loop::Coordinated => Some(every.coordinated()),
            _ => None,
        };
        let protocol = [Axis::Faults(plan), Axis::Reliable(RelConfig::default())];
        protocol
            .into_iter()
            .chain(ckpt.map(Axis::Checkpoints))
            .collect()
    }
}

/// What a sweep exercised, so that it cannot pass vacuously.
#[derive(Debug, Default)]
struct Tally {
    finished: u64,
    failed: u64,
    paced_checkpoints: u64,
    survived: u64,
    stalls: u64,
    retransmits: u64,
}

/// Every plan family × loop × quantum × slowdowns, each case drawn from
/// `seed`.
fn sweep(seed: u64, loops: &[Loop]) -> Tally {
    let mut tally = Tally::default();
    let mut case = 0;
    for family in 0..5 {
        for &lp in loops {
            for quantum in [1, 7, 4096] {
                for slowdowns in [vec![], vec![3, 1, 2, 1]] {
                    case += 1;
                    let label = format!(
                        "seed {seed} case {case}: plan family {family}, {lp:?}, \
                         quantum {quantum}, slowdowns {slowdowns:?}"
                    );
                    let mut rng = Rng::from_seed(seed ^ (case as u64) << 20);
                    // At quantum 1 every blocked receive is retried every
                    // round: those cases get the shorter programs.
                    let (rounds, work) = if quantum == 1 { (9, 10) } else { (20, 20) };
                    let prog = pipeline(rng.range_i64(rounds / 2, rounds), rng.range_i64(0, work));
                    let mut axes = lp.axes(family, &mut rng);
                    axes.extend([Axis::Quantum(quantum), Axis::Slowdowns(slowdowns)]);
                    let Ok(run) = agree(&prog, &axes, &label) else {
                        // A crash with nothing to restore from.
                        tally.failed += 1;
                        continue;
                    };
                    tally.finished += 1;
                    assert_eq!(run.report.undelivered, 0, "{label}");
                    let Some(fault) = run.report.fault else {
                        assert_eq!(lp, Loop::Raw, "{label}: a protocol run reports");
                        continue;
                    };
                    tally.stalls += fault.injected.stalls;
                    tally.retransmits += fault.retransmits;
                    if let Some(r) = run.report.recovery {
                        tally.survived += r.crashes_survived;
                        if lp == Loop::ClockPaced {
                            // Beyond the initial and the final one.
                            tally.paced_checkpoints += r.checkpoints_taken - 2 * PROCS as u64;
                        }
                    }
                }
            }
        }
    }
    eprintln!("seed {seed}, {loops:?}: {tally:?}");
    tally
}

/// The 120 protocol cases of one seed; two tests so that the sweep uses
/// both cores of a small host.
fn protocol_sweep(seed: u64) {
    let t = sweep(seed, &PROTOCOLS);
    assert_eq!(t.finished + t.failed, 120);
    assert!(t.finished >= 90, "{t:?}");
    assert!(t.failed > 0, "an unrecovered crash fails the same way too");
    assert!(t.paced_checkpoints > 0, "the amortization gate opened");
    assert!(t.survived > 0 && t.stalls > 0 && t.retransmits > 0, "{t:?}");
}

#[test]
fn batches_under_the_protocol_are_indistinguishable_from_single_steps() {
    protocol_sweep(0xBA7C4);
}

#[test]
fn batches_under_the_protocol_are_indistinguishable_on_another_seed() {
    protocol_sweep(11);
}

/// The raw loop: every plan family's case shape, on both seeds.
#[test]
fn a_batched_run_reports_exactly_what_single_steps_report() {
    for seed in [0xBA7C4, 11] {
        let t = sweep(seed, &[Loop::Raw]);
        assert_eq!((t.finished, t.failed), (30, 0));
    }
}

/// Batched runs at quanta 1, 7 and 4096 differ only in how the simulator
/// interleaves the processors.
#[test]
fn the_quantum_changes_no_logical_result() {
    let prog = pipeline(9, 10);
    let run = |quantum| {
        let axes = [Axis::Quantum(quantum), Axis::Slowdowns(vec![3, 1, 2, 1])];
        agree(&prog, &axes, &format!("quantum {quantum}")).expect("runs")
    };
    let default = run(4096);
    assert!(default.report.stats.makespan().0 > 0);
    for quantum in [1, 7] {
        let label = format!("quantum {quantum}");
        assert_observably_equal(&run(quantum), &default, Ignoring::Schedule, &label);
    }
}

/// The step budget runs out at the same step stepped and batched, at
/// every quantum under each of `loops`, and all of it is usable: not one
/// step is lost to batching.
fn step_budget(loops: &[Vec<Axis>]) {
    let prog = pipeline(12, 10);
    for axes in loops {
        for quantum in [1, 7, 4096] {
            let axes: Vec<Axis> = axes
                .iter()
                .cloned()
                .chain([Axis::Quantum(quantum)])
                .collect();
            let total = agree(&prog, &axes, "unbounded").unwrap().report.steps;
            for budget in [1, 2, total / 2, total - 1, total] {
                let label = format!("{axes:?}, budget {budget}");
                let bounded: Vec<Axis> = axes
                    .iter()
                    .cloned()
                    .chain([Axis::StepBudget(budget)])
                    .collect();
                let steps = agree(&prog, &bounded, &label).map(|run| run.report.steps);
                let want = match budget == total {
                    true => Ok(total),
                    false => Err(MachineError::StepBudgetExceeded { budget }),
                };
                assert_eq!(steps, want, "{label}");
            }
        }
    }
}

#[test]
fn the_step_budget_runs_out_at_the_same_step_as_before() {
    step_budget(&[vec![]]);
}

#[test]
fn the_step_budget_runs_out_at_the_same_step_mid_batch() {
    let reliable = Axis::Reliable(RelConfig::default());
    let ckpt = Axis::Checkpoints(CheckpointCfg::every(64));
    step_budget(&[vec![reliable.clone()], vec![reliable, ckpt]]);
}

fn checkpoints_of(run: &Run, p: usize) -> Vec<u64> {
    let at_op = |e: &Event| match e.kind {
        EventKind::CheckpointTaken { at_op, .. } if e.proc == ProcId(p) => Some(at_op),
        _ => None,
    };
    run.events().into_iter().filter_map(at_op).collect()
}

/// Independent checkpoints whose op threshold is met at once, so only the
/// amortization clock (128 × the launch image's cost) paces them.
fn clock_paced(faults: FaultPlan) -> [Axis; 3] {
    let ckpt = Axis::Checkpoints(CheckpointCfg::every(4));
    [
        Axis::Faults(faults),
        Axis::Reliable(RelConfig::default()),
        ckpt,
    ]
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
    let axes = [
        Axis::Faults(FaultPlan::seeded(0).with_crash(ProcId(0), 200)),
        Axis::Reliable(RelConfig::default()),
        Axis::Checkpoints(CheckpointCfg::every(512).with_amortization(0)),
    ];
    let s = agree(&handoff(400, 1, 1), &axes, "crash at op 200").unwrap();
    let crashes: Vec<&EventKind> = s.events().into_iter().map(|e| &e.kind).collect();
    let crashes: Vec<_> = crashes
        .into_iter()
        .filter(|k| matches!(k, EventKind::Crash { .. }))
        .collect();
    assert_eq!(crashes, vec![&EventKind::Crash { at_op: 200 }]);
    let recovery = s.report.recovery.as_ref().unwrap();
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
        .events()
        .into_iter()
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
