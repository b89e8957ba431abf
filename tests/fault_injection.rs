//! Fault-injection suite: the paper's workloads under deterministic
//! network damage.
//!
//! Each workload is compiled once, then run on both backends under a
//! seeded [`FaultPlan`] that drops, duplicates, delays, and reorders
//! frames. The reliable-delivery layer must recover the exact program
//! semantics: gathered outputs equal the sequential interpreter's, the
//! *logical* per-(src, dst, tag) message counts match across backends,
//! and nothing is left undelivered — only the [`FaultReport`] and timing
//! are allowed to show the damage.
//!
//! Seeds come from the `PDC_FAULT_SEEDS` environment variable
//! (comma-separated integers, e.g. `PDC_FAULT_SEEDS=1,2,3`), with a baked
//! default so plain `cargo test` exercises the suite too. CI sweeps a
//! small seed matrix through this hook.

use pdc_core::driver::{self, Inputs, Job, Strategy};
use pdc_core::programs;
use pdc_istructure::IMatrix;
use pdc_machine::{Backend, CostModel, FaultPlan, MachineError, ProcId, RelConfig, RunConfig, Tag};
use pdc_mapping::{Decomposition, Dist};
use pdc_spmd::ir::{RecvTarget, SExpr, SStmt, SpmdProgram};
use pdc_spmd::run::SpmdMachine;
use pdc_spmd::Scalar;
use pdc_testkit::{within, Rng, THREADS_DEADLINE};
use std::time::Duration;

/// Fault seeds to sweep: `PDC_FAULT_SEEDS` if set, else a baked pair.
fn fault_seeds() -> Vec<u64> {
    match std::env::var("PDC_FAULT_SEEDS") {
        Ok(s) => s
            .split(',')
            .map(|t| {
                t.trim()
                    .parse()
                    .unwrap_or_else(|_| panic!("bad seed `{t}` in PDC_FAULT_SEEDS"))
            })
            .collect(),
        Err(_) => vec![0xC0FFEE, 7],
    }
}

/// Run under `faults`, recovered by the reliable-delivery protocol under
/// policy `rel`.
fn faulty(faults: FaultPlan, rel: RelConfig) -> RunConfig {
    RunConfig {
        faults,
        reliable: Some(rel),
        ..RunConfig::default()
    }
}

/// A retransmission policy tuned for tests: the threaded backend retries
/// after 2 ms instead of the production 20 ms so lossy runs stay fast.
fn test_rel() -> RelConfig {
    RelConfig {
        rto_wall: Duration::from_millis(2),
        ..RelConfig::default()
    }
}

struct Workload {
    name: &'static str,
    program: pdc_lang::Program,
    entry: &'static str,
    decomp: Decomposition,
    output: &'static str,
    n: usize,
    input: IMatrix<Scalar>,
}

/// Hot edges, cold interior (the heat-equation starting grid).
fn hot_edge_grid(n: usize) -> IMatrix<Scalar> {
    let mut grid = IMatrix::new(n, n);
    for i in 1..=n as i64 {
        for j in 1..=n as i64 {
            let edge = i == 1 || j == 1 || i == n as i64 || j == n as i64;
            grid.write(i, j, Scalar::Int(if edge { 1000 } else { 0 }))
                .expect("fresh matrix");
        }
    }
    grid
}

/// The paper's workloads across machine sizes from 1 to 8 processors.
fn workloads() -> Vec<Workload> {
    let n = 8usize;
    let mut out = Vec::new();
    for procs in [1usize, 3, 8] {
        out.push(Workload {
            name: match procs {
                1 => "jacobi/column-cyclic/p1",
                3 => "jacobi/column-cyclic/p3",
                _ => "jacobi/column-cyclic/p8",
            },
            program: programs::jacobi(),
            entry: "jacobi",
            decomp: Decomposition::new(procs)
                .array("New", Dist::ColumnCyclic)
                .array("Old", Dist::ColumnCyclic),
            output: "New",
            n,
            input: driver::standard_input(n, n),
        });
    }
    for s in [2usize, 4] {
        out.push(Workload {
            name: if s == 2 {
                "wavefront/gauss-seidel/p2"
            } else {
                "wavefront/gauss-seidel/p4"
            },
            program: programs::gauss_seidel(),
            entry: "gs_iteration",
            decomp: programs::wavefront_decomposition(s),
            output: "New",
            n,
            input: driver::standard_input(n, n),
        });
    }
    out.push(Workload {
        name: "block-jacobi/2x2-grid",
        program: programs::jacobi(),
        entry: "jacobi",
        decomp: Decomposition::new(4)
            .array("New", Dist::Block2d { prows: 2, pcols: 2 })
            .array("Old", Dist::Block2d { prows: 2, pcols: 2 }),
        output: "New",
        n,
        input: driver::standard_input(n, n),
    });
    out.push(Workload {
        name: "heat/hot-edge-sweep/p4",
        program: programs::gauss_seidel(),
        entry: "gs_iteration",
        decomp: programs::wavefront_decomposition(4),
        output: "New",
        n,
        input: hot_edge_grid(n),
    });
    out
}

/// Compile `w`, run it on both backends under `plan`, and assert the
/// recovery contract.
fn check_under_plan(w: &Workload, strategy: Strategy, plan: &FaultPlan, label_extra: &str) {
    let label = format!("{} under {strategy:?} {label_extra}", w.name);
    let mut job = Job::new(&w.program, w.entry, w.decomp.clone())
        .with_const("n", w.n as i64)
        .with_run(faulty(plan.clone(), test_rel()));
    job.extent_overrides.insert("Old".to_owned(), (w.n, w.n));
    let compiled = driver::compile(&job, strategy).unwrap_or_else(|e| panic!("{label}: {e}"));
    let inputs = Inputs::new()
        .scalar("n", Scalar::Int(w.n as i64))
        .array("Old", w.input.clone());

    let sim = driver::execute_on(&compiled, &inputs, CostModel::ipsc2(), Backend::Simulated)
        .unwrap_or_else(|e| panic!("{label} (simulated): {e}"));
    let thr = driver::execute_on(&compiled, &inputs, CostModel::ipsc2(), Backend::threaded())
        .unwrap_or_else(|e| panic!("{label} (threaded): {e}"));

    // Program-level delivery is complete on both backends.
    assert_eq!(sim.outcome.report.undelivered, 0, "{label}: sim");
    assert_eq!(thr.outcome.report.undelivered, 0, "{label}: threaded");
    assert!(sim.outcome.report.pending.is_empty(), "{label}: sim");
    assert!(thr.outcome.report.pending.is_empty(), "{label}: threaded");

    // Outputs: both backends == sequential interpreter, faults or not.
    let seq = driver::run_sequential(&w.program, w.entry, &inputs).expect("sequential");
    let g_sim = sim.gather(w.output).expect("sim gather");
    let g_thr = thr.gather(w.output).expect("threaded gather");
    assert_eq!(
        driver::first_mismatch(&g_sim, &seq),
        None,
        "{label}: simulator output corrupted by faults"
    );
    assert_eq!(
        driver::first_mismatch(&g_thr, &seq),
        None,
        "{label}: threaded output corrupted by faults"
    );

    // The *logical* communication pattern is fault-independent: the
    // program sent exactly the same messages it always does.
    assert_eq!(
        thr.outcome.report.pair_messages, sim.outcome.report.pair_messages,
        "{label}: logical per-(src, dst, tag) counts diverge"
    );

    // Multi-processor runs under the reliability layer carry a report.
    if w.decomp.nprocs() > 1 && !plan.is_none() {
        assert!(sim.outcome.report.fault.is_some(), "{label}: no sim report");
        assert!(
            thr.outcome.report.fault.is_some(),
            "{label}: no threaded report"
        );
    }
}

#[test]
fn workloads_recover_under_seeded_fault_plans() {
    within(THREADS_DEADLINE, || {
        for seed in fault_seeds() {
            let mut rng = Rng::from_seed(seed);
            for w in workloads() {
                let plan = pdc_testkit::fault::fault_plan(&mut rng);
                check_under_plan(&w, Strategy::Runtime, &plan, &format!("(seed {seed})"));
            }
        }
    });
}

#[test]
fn compile_time_strategy_recovers_too() {
    within(THREADS_DEADLINE, || {
        let mut rng = Rng::from_seed(fault_seeds()[0]);
        for w in workloads() {
            let plan = pdc_testkit::fault::fault_plan(&mut rng);
            check_under_plan(&w, Strategy::CompileTime, &plan, "(compile-time)");
        }
    });
}

/// A deliberately heavy plan on the chattiest workload: drops must force
/// actual retransmissions, duplicates must be discarded, and the run must
/// still produce interpreter-identical output.
#[test]
fn heavy_losses_force_retransmissions() {
    within(THREADS_DEADLINE, || {
        let plan = FaultPlan::seeded(42)
            .with_drops(300)
            .with_dups(150)
            .with_delays(100, 10_000)
            .with_reorders(50)
            .with_fault_budget(4);
        let w = &workloads()[2]; // jacobi on 8 processors: the most traffic
        check_under_plan(w, Strategy::Runtime, &plan, "(heavy)");

        // Re-run on the simulator alone to inspect the report.
        let mut job = Job::new(&w.program, w.entry, w.decomp.clone())
            .with_const("n", w.n as i64)
            .with_run(faulty(plan, test_rel()));
        job.extent_overrides.insert("Old".to_owned(), (w.n, w.n));
        let compiled = driver::compile(&job, Strategy::Runtime).unwrap();
        let inputs = Inputs::new()
            .scalar("n", Scalar::Int(w.n as i64))
            .array("Old", w.input.clone());
        let exec = driver::execute_on(&compiled, &inputs, CostModel::ipsc2(), Backend::Simulated)
            .expect("recovers");
        let fr = exec.outcome.report.fault.expect("fault report");
        assert!(fr.injected.drops > 0, "the plan dropped frames: {fr:?}");
        assert!(fr.retransmits > 0, "drops forced retransmits: {fr:?}");
        assert!(fr.acks_sent > 0, "receivers acked: {fr:?}");
        assert!(fr.dup_frames_dropped > 0, "dup suppression engaged: {fr:?}");
    });
}

/// Simulator runs under a fault plan are exactly reproducible: same
/// seed, same damage, same makespan, same report.
#[test]
fn faulty_simulator_runs_are_reproducible() {
    let plan = FaultPlan::seeded(9)
        .with_drops(250)
        .with_dups(100)
        .with_fault_budget(4);
    let w = &workloads()[1]; // jacobi on 3 processors
    let run = || {
        let mut job = Job::new(&w.program, w.entry, w.decomp.clone())
            .with_const("n", w.n as i64)
            .with_run(faulty(plan.clone(), test_rel()));
        job.extent_overrides.insert("Old".to_owned(), (w.n, w.n));
        let compiled = driver::compile(&job, Strategy::Runtime).unwrap();
        let inputs = Inputs::new()
            .scalar("n", Scalar::Int(w.n as i64))
            .array("Old", w.input.clone());
        driver::execute_on(&compiled, &inputs, CostModel::ipsc2(), Backend::Simulated)
            .expect("recovers")
    };
    let a = run();
    let b = run();
    assert_eq!(
        a.outcome.report.stats.makespan(),
        b.outcome.report.stats.makespan()
    );
    assert_eq!(a.outcome.report.fault, b.outcome.report.fault);
    assert_eq!(
        a.outcome.report.pair_messages,
        b.outcome.report.pair_messages
    );
}

/// A plan that injects nothing is free: the run takes the vanilla fast
/// path and is bit-identical to a run that never mentioned faults.
#[test]
fn empty_plan_is_bit_identical_to_vanilla() {
    let w = &workloads()[1];
    let run = |faulty: bool| {
        let mut job = Job::new(&w.program, w.entry, w.decomp.clone()).with_const("n", w.n as i64);
        if faulty {
            job = job.with_run(RunConfig {
                faults: FaultPlan::seeded(7),
                ..RunConfig::default()
            });
        }
        job.extent_overrides.insert("Old".to_owned(), (w.n, w.n));
        let compiled = driver::compile(&job, Strategy::Runtime).unwrap();
        let inputs = Inputs::new()
            .scalar("n", Scalar::Int(w.n as i64))
            .array("Old", w.input.clone());
        driver::execute_on(&compiled, &inputs, CostModel::ipsc2(), Backend::Simulated).unwrap()
    };
    let vanilla = run(false);
    let none_plan = run(true);
    assert_eq!(
        none_plan.outcome.report.stats, vanilla.outcome.report.stats,
        "stats (clocks, traffic, makespan) must be bit-identical"
    );
    assert_eq!(
        none_plan.outcome.report.pair_messages,
        vanilla.outcome.report.pair_messages
    );
    assert_eq!(none_plan.outcome.report.fault, None, "no reliability layer");
}

/// A black hole starves one stream forever; the sender must give up with
/// an error naming exactly the starved (proc, peer, tag) stream — on both
/// backends.
#[test]
fn black_hole_names_the_starved_stream() {
    within(THREADS_DEADLINE, || {
        // P0 sends to P1 on tag 1 and the fabric eats every copy.
        let p0 = vec![SStmt::Send {
            to: SExpr::int(1),
            tag: 1,
            values: vec![SExpr::int(5)],
        }];
        let p1 = vec![SStmt::Recv {
            from: SExpr::int(0),
            tag: 1,
            into: vec![RecvTarget::Var("x".into())],
        }];
        let prog = SpmdProgram::new(vec![p0, p1]);
        let plan = FaultPlan::seeded(0).with_black_hole(ProcId(0), ProcId(1), Tag(1));

        let sim_cfg = RelConfig {
            rto_cycles: 1_000,
            max_retries: 4,
            ..RelConfig::default()
        };
        let sim_err = SpmdMachine::new(&prog, CostModel::ipsc2())
            .expect("lowers")
            .with_faults_cfg(plan.clone(), sim_cfg)
            .run()
            .expect_err("the stream is starved");
        match sim_err {
            pdc_spmd::SpmdError::Machine(MachineError::RetriesExhausted {
                proc,
                peer,
                tag,
                retries,
                last_acked,
            }) => {
                assert_eq!((proc, peer, tag), (ProcId(0), ProcId(1), Tag(1)));
                assert_eq!(retries, 4);
                // Nothing ever got through: the suspect's cumulative ack
                // floor is still at the first sequence number.
                assert_eq!(last_acked, 0);
            }
            other => panic!("expected RetriesExhausted, got: {other}"),
        }

        let thr_cfg = RelConfig {
            rto_wall: Duration::from_millis(2),
            max_retries: 4,
            ..RelConfig::default()
        };
        let thr_err = SpmdMachine::new(&prog, CostModel::ipsc2())
            .expect("lowers")
            .with_backend(Backend::Threaded {
                recv_timeout: Duration::from_secs(30),
            })
            .with_faults_cfg(plan, thr_cfg)
            .run()
            .expect_err("the stream is starved");
        match thr_err {
            pdc_spmd::SpmdError::Machine(MachineError::RetriesExhausted {
                proc,
                peer,
                tag,
                ..
            }) => {
                assert_eq!((proc, peer, tag), (ProcId(0), ProcId(1), Tag(1)));
            }
            other => panic!("expected RetriesExhausted, got: {other}"),
        }
    });
}

/// Stalling a processor must never change outputs — only timing.
#[test]
fn stalls_preserve_outputs_and_slow_the_victim() {
    let w = &workloads()[4]; // wavefront on 4 processors: a pipeline
    let run = |plan: FaultPlan| {
        let mut job = Job::new(&w.program, w.entry, w.decomp.clone())
            .with_const("n", w.n as i64)
            .with_run(faulty(plan, RelConfig::default()));
        job.extent_overrides.insert("Old".to_owned(), (w.n, w.n));
        let compiled = driver::compile(&job, Strategy::Runtime).unwrap();
        let inputs = Inputs::new()
            .scalar("n", Scalar::Int(w.n as i64))
            .array("Old", w.input.clone());
        let exec = driver::execute_on(&compiled, &inputs, CostModel::ipsc2(), Backend::Simulated)
            .expect("recovers");
        let seq = driver::run_sequential(&w.program, w.entry, &inputs).expect("sequential");
        let g = exec.gather(w.output).expect("gather");
        assert_eq!(driver::first_mismatch(&g, &seq), None, "stall broke output");
        exec.makespan()
    };
    // Force the reliable path in both runs so the comparison is
    // apples-to-apples (an actually-empty plan takes the vanilla path).
    let baseline = run(FaultPlan::seeded(1).with_fault_budget(0).with_drops(1));
    let stalled = run(FaultPlan::seeded(1)
        .with_fault_budget(0)
        .with_drops(1)
        .with_stall(ProcId(0), 5, 200_000));
    assert!(
        stalled > baseline,
        "a 200k-cycle stall on the pipeline head must show in the makespan \
         (stalled {stalled} vs baseline {baseline})"
    );
}
