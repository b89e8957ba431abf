//! Crash-recovery suite: processor crashes with checkpoint/restart must
//! be semantically invisible.
//!
//! Each case compiles one of the paper's kernels under a seeded random
//! decomposition, runs it fault-free, then re-runs it with an injected
//! crash plan ([`pdc_testkit::fault::crash_plan`]) and periodic
//! checkpoints on *both* backends. The recovery contract:
//!
//! 1. outputs of the crashed-and-recovered run are bit-identical to the
//!    fault-free run (and to the sequential interpreter);
//! 2. every injected crash is actually survived
//!    (`RecoveryReport::crashes_survived == FaultReport::injected.crashes`,
//!    asserted ≥ 1 over the sweep so the suite can never pass vacuously);
//! 3. simulator recovery runs are fully deterministic: same seed → the
//!    same `RunReport`, makespan, `FaultReport`, and `RecoveryReport`.
//!
//! Seeds come from `PDC_FAULT_SEEDS` (comma-separated), with a baked
//! default, exactly like `fault_injection.rs` — CI sweeps a matrix
//! through the same hook.

use pdc_core::driver::{self, Inputs, Job, Strategy};
use pdc_core::programs;
use pdc_machine::{Backend, CheckpointCfg, CostModel, RelConfig, RunConfig};
use pdc_mapping::{Decomposition, Dist};
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

/// Fast retransmission policy so threaded replay does not wait out the
/// production 20 ms timer.
fn test_rel() -> RelConfig {
    RelConfig {
        rto_wall: Duration::from_millis(2),
        ..RelConfig::default()
    }
}

/// A random distribution for the kernel's arrays — every processor owns
/// work, so every processor both communicates and can be crashed.
fn random_dist(rng: &mut Rng) -> Dist {
    match rng.range_usize(0, 4) {
        0 => Dist::ColumnCyclic,
        1 => Dist::RowCyclic,
        2 => Dist::ColumnBlock,
        _ => Dist::ColumnBlockCyclic {
            block: rng.range_usize(1, 3),
        },
    }
}

struct Case {
    nprocs: usize,
    dist: Dist,
    plan: pdc_machine::FaultPlan,
    ckpt: CheckpointCfg,
}

fn random_case(rng: &mut Rng) -> Case {
    let nprocs = rng.range_usize(2, 5);
    Case {
        nprocs,
        dist: random_dist(rng),
        plan: pdc_testkit::fault::crash_plan(rng, nprocs),
        ckpt: CheckpointCfg::every(rng.range_i64(2, 24) as u64)
            .with_reboot(5_000, Duration::from_millis(1)),
    }
}

fn jacobi_job<'a>(program: &'a pdc_lang::Program, decomp: Decomposition, n: usize) -> Job<'a> {
    let mut job = Job::new(program, "jacobi", decomp).with_const("n", n as i64);
    job.extent_overrides.insert("Old".to_owned(), (n, n));
    job
}

/// Run one case through the whole contract; returns crashes survived.
fn check_case(case: &Case, seed: u64, idx: usize) -> u64 {
    let n = 8usize;
    let label = format!(
        "seed {seed} case {idx} ({:?} on {})",
        case.dist, case.nprocs
    );
    let program = programs::jacobi();
    let decomp = Decomposition::new(case.nprocs)
        .array("New", case.dist.clone())
        .array("Old", case.dist.clone());
    let inputs = Inputs::new()
        .scalar("n", Scalar::Int(n as i64))
        .array("Old", driver::standard_input(n, n));
    let seq = driver::run_sequential(&program, "jacobi", &inputs).expect("sequential");

    // Fault-free reference run.
    let clean_job = jacobi_job(&program, decomp.clone(), n);
    let clean = driver::compile(&clean_job, Strategy::Runtime).unwrap();
    let clean_exec =
        driver::execute_on(&clean, &inputs, CostModel::ipsc2(), Backend::Simulated).unwrap();
    let clean_out = clean_exec.gather("New").expect("clean gather");
    assert_eq!(
        driver::first_mismatch(&clean_out, &seq),
        None,
        "{label}: fault-free baseline is wrong"
    );

    // Crash + checkpoint/restart, exercising the Job-level surface:
    // crash plan, checkpoint config, retransmit policy, recv timeout.
    let job = jacobi_job(&program, decomp, n).with_run(RunConfig {
        faults: case.plan.clone(),
        checkpoints: Some(case.ckpt),
        reliable: Some(test_rel()),
        ..RunConfig::default()
    });
    let compiled = driver::compile(&job, Strategy::Runtime).unwrap();

    let mut survived = 0;
    let threaded = Backend::Threaded {
        recv_timeout: Duration::from_secs(30),
    };
    for backend in [Backend::Simulated, threaded] {
        let exec = driver::execute_on(&compiled, &inputs, CostModel::ipsc2(), backend)
            .unwrap_or_else(|e| panic!("{label} on {backend:?}: {e}"));
        let out = exec.gather("New").expect("gather");
        assert_eq!(
            driver::first_mismatch(&out, &seq),
            None,
            "{label} on {backend:?}: recovered output differs from fault-free"
        );
        assert_eq!(
            exec.outcome.report.pair_messages, clean_exec.outcome.report.pair_messages,
            "{label} on {backend:?}: recovery leaked into program-level traffic"
        );
        assert_eq!(exec.outcome.report.undelivered, 0, "{label} on {backend:?}");
        let rec = exec
            .outcome
            .report
            .recovery
            .unwrap_or_else(|| panic!("{label} on {backend:?}: no recovery report"));
        let injected = exec
            .outcome
            .report
            .fault
            .as_ref()
            .map_or(0, |f| f.injected.crashes);
        assert_eq!(
            rec.crashes_survived, injected,
            "{label} on {backend:?}: a crash was injected but not recovered"
        );
        assert!(rec.checkpoints_taken > 0, "{label} on {backend:?}");
        if matches!(backend, Backend::Simulated) {
            survived = rec.crashes_survived;
        }
    }
    survived
}

#[test]
fn crashed_runs_match_fault_free_runs_on_both_backends() {
    within(THREADS_DEADLINE, || {
        let mut total_survived = 0;
        for seed in fault_seeds() {
            let mut rng = Rng::from_seed(seed);
            for idx in 0..3 {
                let case = random_case(&mut rng);
                total_survived += check_case(&case, seed, idx);
            }
        }
        // Non-vacuity: the sweep must have actually crashed and recovered.
        assert!(
            total_survived >= 1,
            "no crash was ever injected — the suite is testing nothing"
        );
    });
}

/// Simulator recovery is bit-for-bit deterministic: same seed, same
/// crash, same recovery, same makespan.
#[test]
fn simulator_recovery_is_deterministic() {
    let mut rng = Rng::from_seed(fault_seeds()[0]);
    let case = random_case(&mut rng);
    let n = 8usize;
    let program = programs::jacobi();
    let inputs = Inputs::new()
        .scalar("n", Scalar::Int(n as i64))
        .array("Old", driver::standard_input(n, n));
    let run = || {
        let decomp = Decomposition::new(case.nprocs)
            .array("New", case.dist.clone())
            .array("Old", case.dist.clone());
        let job = jacobi_job(&program, decomp, n).with_run(RunConfig {
            faults: case.plan.clone(),
            checkpoints: Some(case.ckpt),
            reliable: Some(test_rel()),
            ..RunConfig::default()
        });
        let compiled = driver::compile(&job, Strategy::Runtime).unwrap();
        driver::execute_on(&compiled, &inputs, CostModel::ipsc2(), Backend::Simulated)
            .expect("recovers")
    };
    let a = run();
    let b = run();
    assert_eq!(
        a.outcome.report.stats.makespan(),
        b.outcome.report.stats.makespan()
    );
    assert_eq!(a.outcome.report.stats, b.outcome.report.stats);
    assert_eq!(a.outcome.report.fault, b.outcome.report.fault);
    assert_eq!(a.outcome.report.recovery, b.outcome.report.recovery);
    assert_eq!(
        a.outcome.report.pair_messages,
        b.outcome.report.pair_messages
    );
}

/// Coordinated (barrier-aligned) snapshots on the simulator: all
/// processors roll back together and the run still matches the
/// interpreter.
#[test]
fn coordinated_mode_recovers_on_the_simulator() {
    let n = 8usize;
    let program = programs::jacobi();
    let decomp = Decomposition::new(3)
        .array("New", Dist::ColumnCyclic)
        .array("Old", Dist::ColumnCyclic);
    let inputs = Inputs::new()
        .scalar("n", Scalar::Int(n as i64))
        .array("Old", driver::standard_input(n, n));
    let seq = driver::run_sequential(&program, "jacobi", &inputs).expect("sequential");
    let job = jacobi_job(&program, decomp, n).with_run(RunConfig {
        faults: pdc_machine::FaultPlan::seeded(5).with_crash(pdc_machine::ProcId(1), 6),
        checkpoints: Some(CheckpointCfg::every(8).coordinated()),
        ..RunConfig::default()
    });
    let compiled = driver::compile(&job, Strategy::Runtime).unwrap();
    let exec = driver::execute_on(&compiled, &inputs, CostModel::ipsc2(), Backend::Simulated)
        .expect("coordinated recovery");
    let out = exec.gather("New").expect("gather");
    assert_eq!(driver::first_mismatch(&out, &seq), None);
    let rec = exec.outcome.report.recovery.expect("recovery report");
    assert_eq!(rec.crashes_survived, 1);
}

/// Crashes layered on a lossy fabric: restart while frames are being
/// dropped and duplicated, the hardest composite fault case.
#[test]
fn crashes_on_a_lossy_fabric_still_recover() {
    within(THREADS_DEADLINE, || {
        let mut rng = Rng::from_seed(fault_seeds()[0] ^ 0x1055);
        let nprocs = 3;
        let case = Case {
            nprocs,
            dist: Dist::ColumnCyclic,
            plan: pdc_testkit::fault::crash_plan_with_losses(&mut rng, nprocs),
            ckpt: CheckpointCfg::every(8).with_reboot(5_000, Duration::from_millis(1)),
        };
        check_case(&case, 0x10, 99);
    });
}

/// Without checkpoints a crash is fatal and names the victim.
#[test]
fn uncheckpointed_crash_fails_with_crashed_error() {
    let n = 8usize;
    let program = programs::jacobi();
    let decomp = Decomposition::new(2)
        .array("New", Dist::ColumnCyclic)
        .array("Old", Dist::ColumnCyclic);
    let inputs = Inputs::new()
        .scalar("n", Scalar::Int(n as i64))
        .array("Old", driver::standard_input(n, n));
    let job = jacobi_job(&program, decomp, n).with_run(RunConfig {
        faults: pdc_machine::FaultPlan::seeded(0).with_crash(pdc_machine::ProcId(0), 4),
        reliable: Some(RelConfig {
            rto_cycles: 1_000,
            max_retries: 4,
            ..RelConfig::default()
        }),
        ..RunConfig::default()
    });
    let compiled = driver::compile(&job, Strategy::Runtime).unwrap();
    let err = driver::execute_on(&compiled, &inputs, CostModel::ipsc2(), Backend::Simulated)
        .expect_err("a crash without checkpoints is fatal");
    let msg = err.to_string();
    assert!(
        msg.contains("crash") || msg.contains("P0") || msg.contains("retries"),
        "error should name the crash or the starved stream: {msg}"
    );
}
