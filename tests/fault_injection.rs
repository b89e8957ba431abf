//! Damaged or crashed == clean. A seeded `FaultPlan` drops, duplicates,
//! delays and reorders frames, stalls processors and crashes them; the
//! reliable-delivery protocol and checkpoint/restart must recover the
//! exact program semantics on both backends: the sequential result, the
//! fault-free run's logical per-(src, dst, tag) ledger, nothing left
//! undelivered. Only the `FaultReport`, the `RecoveryReport` and timing
//! may show the damage.

mod differential;

use differential::*;
use pdc_testkit::{fault, within, THREADS_DEADLINE};

fn seeds() -> Vec<u64> {
    fault::seeds(&[0xC0FFEE, 7])
}

/// Faulty at `plan`, recovered under `rel`, on `backend` if given.
fn faulty(plan: FaultPlan, rel: RelConfig, backend: Option<Axis>) -> Point {
    at([Axis::Faults(plan), Axis::Reliable(rel)]
        .into_iter()
        .chain(backend))
}

/// Threads that wait out a long recovery rather than time out.
fn patient_threads() -> Axis {
    let recv_timeout = Duration::from_secs(30);
    Axis::On(Backend::Threaded { recv_timeout })
}

/// Both backends under `plan` recover the sequential result and the
/// program's ledger; a multi-processor run says what it survived.
fn recovers(sc: &Scenario, plan: &FaultPlan) -> (Run, Run) {
    let (sim, thr) = sc.on_both(&faulty(plan.clone(), test_rel(), None), Ignoring::Damage);
    if sc.compiled().spmd.n_procs() > 1 && !plan.is_none() {
        assert!(
            sim.report.fault.is_some() && thr.report.fault.is_some(),
            "{sc}"
        );
    }
    (sim, thr)
}

#[test]
fn workloads_recover_under_seeded_fault_plans() {
    within(THREADS_DEADLINE, || {
        for seed in seeds() {
            let mut rng = Rng::from_seed(seed);
            for sc in paper_workloads(Strategy::Runtime) {
                recovers(&sc, &fault::fault_plan(&mut rng));
            }
        }
    });
}

#[test]
fn compile_time_strategy_recovers_too() {
    within(THREADS_DEADLINE, || {
        let mut rng = Rng::from_seed(seeds()[0]);
        for sc in paper_workloads(Strategy::CompileTime) {
            recovers(&sc, &fault::fault_plan(&mut rng));
        }
    });
}

/// A heavy plan on the chattiest workload: drops force retransmissions,
/// duplicates are discarded, and the output is still the interpreter's.
#[test]
fn heavy_losses_force_retransmissions() {
    within(THREADS_DEADLINE, || {
        let plan = FaultPlan::seeded(42)
            .with_drops(300)
            .with_dups(150)
            .with_delays(100, 10_000)
            .with_reorders(50)
            .with_fault_budget(4);
        let sc = paper_workload("jacobi/column-cyclic/p8", Strategy::Runtime);
        let (sim, _) = recovers(&sc, &plan);
        let fr = sim.report.fault.expect("fault report");
        assert!(fr.injected.drops > 0, "the plan dropped frames: {fr:?}");
        assert!(fr.retransmits > 0, "drops forced retransmits: {fr:?}");
        assert!(fr.acks_sent > 0, "receivers acked: {fr:?}");
        assert!(fr.dup_frames_dropped > 0, "dup suppression engaged: {fr:?}");
    });
}

/// Same seed, same damage, same run: the simulator replays a faulty run
/// exactly.
#[test]
fn faulty_simulator_runs_are_reproducible() {
    let plan = FaultPlan::seeded(9)
        .with_drops(250)
        .with_dups(100)
        .with_fault_budget(4);
    let sc = paper_workload("jacobi/column-cyclic/p3", Strategy::Runtime);
    let point = faulty(plan, test_rel(), None);
    assert_observably_equal(
        &sc.run(&point),
        &sc.run(&point),
        Ignoring::Nothing,
        "replay",
    );
}

/// A plan that injects nothing takes the raw fabric: bit-identical to a
/// run that never mentioned faults.
#[test]
fn empty_plan_is_bit_identical_to_vanilla() {
    let sc = paper_workload("jacobi/column-cyclic/p3", Strategy::Runtime);
    let none = sc.run(&at([Axis::Faults(FaultPlan::seeded(7))]));
    assert_eq!(none.report.fault, None, "no reliability layer");
    assert_observably_equal(
        &none,
        &sc.run(&Point::default()),
        Ignoring::Nothing,
        "empty plan",
    );
}

/// A black hole starves one stream forever: the sender gives up naming
/// exactly the starved (proc, peer, tag) stream, on both backends.
#[test]
fn black_hole_names_the_starved_stream() {
    within(THREADS_DEADLINE, || {
        // P0 sends to P1 on tag 1 and the fabric eats every copy.
        let p0 = vec![send(SExpr::int(1), 1, vec![SExpr::int(5)])];
        let prog = SpmdProgram::new(vec![p0, vec![recv(SExpr::int(0), 1, &["x"])]]);
        let plan = FaultPlan::seeded(0).with_black_hole(ProcId(0), ProcId(1), Tag(1));
        let rel = RelConfig {
            rto_cycles: 1_000,
            max_retries: 4,
            ..test_rel()
        };
        let stream = (ProcId(0), ProcId(1), Tag(1));
        match run_spmd(&prog, &faulty(plan.clone(), rel, None), &[]).expect_err("starved") {
            // Nothing ever got through: the cumulative ack floor is still
            // at the first sequence number.
            MachineError::RetriesExhausted {
                proc,
                peer,
                tag,
                retries,
                last_acked,
            } => {
                assert_eq!(((proc, peer, tag), retries, last_acked), (stream, 4, 0));
            }
            other => panic!("expected RetriesExhausted, got: {other}"),
        }
        let point = faulty(plan, rel, Some(patient_threads()));
        match run_spmd(&prog, &point, &[]).expect_err("starved") {
            MachineError::RetriesExhausted {
                proc, peer, tag, ..
            } => assert_eq!((proc, peer, tag), stream),
            other => panic!("expected RetriesExhausted, got: {other}"),
        }
    });
}

/// Stalling a processor changes timing, never outputs.
#[test]
fn stalls_preserve_outputs_and_slow_the_victim() {
    let sc = paper_workload("wavefront/p4", Strategy::Runtime);
    // A plan that injects one drop keeps both runs on the protocol.
    let plan = FaultPlan::seeded(1).with_fault_budget(0).with_drops(1);
    let baseline = sc.run(&faulty(plan.clone(), RelConfig::default(), None));
    let stall = plan.with_stall(ProcId(0), 5, 200_000);
    let stalled = sc.run(&faulty(stall, RelConfig::default(), None));
    sc.assert_correct(&baseline);
    assert_observably_equal(&baseline, &stalled, Ignoring::Damage, "stall");
    let (b, s) = (
        baseline.report.stats.makespan(),
        stalled.report.stats.makespan(),
    );
    assert!(
        s > b,
        "a 200k-cycle stall on the pipeline head shows: {s:?} vs {b:?}"
    );
}

/// Crash recovery under a seeded random decomposition: the crashed run,
/// restarted from checkpoints on both backends, equals the fault-free run
/// and survives every crash injected. Returns the crashes survived.
fn crash_case(sc: &Scenario, plan: FaultPlan, ckpt: CheckpointCfg) -> u64 {
    let clean = sc.run(&Point::default());
    sc.assert_correct(&clean);
    let recovering = [Axis::Checkpoints(ckpt), Axis::Reliable(test_rel())];
    let point = at([Axis::Faults(plan), patient_threads()]
        .into_iter()
        .chain(recovering));
    let (sim, thr) = sc.on_both(&point, Ignoring::Damage);
    for run in [&sim, &thr] {
        assert_observably_equal(&clean, run, Ignoring::Damage, &format!("{sc} recovered"));
        let rec = run.report.recovery.as_ref().expect("a recovery report");
        let injected = run.report.fault.as_ref().map_or(0, |f| f.injected.crashes);
        assert_eq!(
            rec.crashes_survived, injected,
            "{sc}: a crash was not recovered"
        );
        assert!(rec.checkpoints_taken > 0, "{sc}");
    }
    sim.report
        .recovery
        .expect("a recovery report")
        .crashes_survived
}

/// One processor crashes early: a random decomposition of Jacobi on 2–4
/// processors, checkpoints every 2–23 ops.
fn random_crash(rng: &mut Rng) -> (Scenario, FaultPlan, CheckpointCfg) {
    let nprocs = rng.range_usize(2, 5);
    let sc = Scenario::jacobi(random_dist(rng, nprocs), nprocs);
    let plan = fault::crash_plan(rng, nprocs);
    let ckpt = CheckpointCfg::every(rng.range_i64(2, 24) as u64);
    (sc, plan, ckpt.with_reboot(5_000, Duration::from_millis(1)))
}

#[test]
fn crashed_runs_match_fault_free_runs_on_both_backends() {
    within(THREADS_DEADLINE, || {
        let mut survived = 0;
        for seed in seeds() {
            let mut rng = Rng::from_seed(seed);
            for _ in 0..3 {
                let (sc, plan, ckpt) = random_crash(&mut rng);
                survived += crash_case(&sc, plan, ckpt);
            }
        }
        assert!(
            survived >= 1,
            "no crash was ever injected: the sweep tests nothing"
        );
    });
}

/// `max_crashes` caps the run, not each processor: a crash roll that
/// always fires (1000 ‰) under a budget of one crashes exactly once on
/// both backends, and the recovered run equals the fault-free one.
#[test]
fn crash_budget_is_spent_per_run_on_both_backends() {
    within(THREADS_DEADLINE, || {
        let budget = 1;
        let sc = Scenario::jacobi(Dist::ColumnCyclic, 2);
        let plan = FaultPlan::seeded(7).with_crash_rate(1000, budget);
        let ckpt = CheckpointCfg::every(2).with_reboot(5_000, Duration::from_millis(1));
        let clean = sc.run(&Point::default());
        let point = at([
            Axis::Faults(plan),
            patient_threads(),
            Axis::Checkpoints(ckpt),
            Axis::Reliable(test_rel()),
        ]);
        let (sim, thr) = sc.on_both(&point, Ignoring::Damage);
        for run in [&sim, &thr] {
            assert_observably_equal(&clean, run, Ignoring::Damage, &format!("{sc} recovered"));
            let injected = run.report.fault.as_ref().map(|f| f.injected.crashes);
            assert_eq!(injected, Some(u64::from(budget)), "{sc}: crashes injected");
        }
    });
}

/// Crashes layered on a lossy fabric: restart while frames are dropped
/// and duplicated, the hardest composite case.
#[test]
fn crashes_on_a_lossy_fabric_still_recover() {
    within(THREADS_DEADLINE, || {
        let mut rng = Rng::from_seed(seeds()[0] ^ 0x1055);
        let plan = fault::crash_plan_with_losses(&mut rng, 3);
        let ckpt = CheckpointCfg::every(8).with_reboot(5_000, Duration::from_millis(1));
        crash_case(&Scenario::jacobi(Dist::ColumnCyclic, 3), plan, ckpt);
    });
}

/// Same seed, same crash, same recovery, same run.
#[test]
fn simulator_recovery_is_deterministic() {
    let (sc, plan, ckpt) = random_crash(&mut Rng::from_seed(seeds()[0]));
    let point = at([
        Axis::Faults(plan),
        Axis::Checkpoints(ckpt),
        Axis::Reliable(test_rel()),
    ]);
    assert_observably_equal(
        &sc.run(&point),
        &sc.run(&point),
        Ignoring::Nothing,
        "replay",
    );
}

/// Coordinated snapshots: every processor rolls back together.
#[test]
fn coordinated_mode_recovers_on_the_simulator() {
    let sc = Scenario::jacobi(Dist::ColumnCyclic, 3);
    let plan = FaultPlan::seeded(5).with_crash(ProcId(1), 6);
    let run = sc.run(&at([
        Axis::Faults(plan),
        Axis::Checkpoints(CheckpointCfg::every(8).coordinated()),
    ]));
    sc.assert_correct(&run);
    assert_eq!(
        run.report
            .recovery
            .expect("recovery report")
            .crashes_survived,
        1
    );
}

/// Without checkpoints a crash is fatal, and both backends name the
/// crash — not the exhausted retries or deadlocks its peers cascade into.
#[test]
fn uncheckpointed_crash_fails_with_crashed_error() {
    within(THREADS_DEADLINE, || {
        let sc = Scenario::jacobi(Dist::ColumnCyclic, 2);
        let plan = FaultPlan::seeded(0).with_crash(ProcId(0), 4);
        let rel = RelConfig {
            rto_cycles: 1_000,
            max_retries: 4,
            ..RelConfig::default()
        };
        for backend in [Backend::Simulated, Backend::threaded()] {
            let point = faulty(plan.clone(), rel, Some(Axis::On(backend)));
            let err = sc
                .try_run(&point)
                .expect_err("a crash without checkpoints is fatal");
            let crashed = MachineError::Crashed {
                proc: ProcId(0),
                at_op: 4,
            };
            assert_eq!(err, SpmdError::Machine(crashed), "{backend:?}");
        }
    });
}
