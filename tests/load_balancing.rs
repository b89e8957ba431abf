//! §5.4 load balancing end to end: a weighted column assignment on a
//! heterogeneous machine beats the uniform wrap, and the table-based
//! mapping (which forces the compiler's *inconclusive* run-time-guard
//! path) still computes exactly the sequential result.

use pdc_core::driver::{self, Inputs, Job, Strategy};
use pdc_core::programs;
use pdc_machine::{Backend, CostModel, RunConfig, RunReport};
use pdc_mapping::{Decomposition, Dist};
use pdc_spmd::run::SpmdMachine;
use pdc_spmd::Scalar;
use pdc_testkit::{within, THREADS_DEADLINE};

fn run(strategy: Strategy, dist: Dist, slowdowns: Vec<u64>, n: usize) -> (u64, bool) {
    let (report, ok) = run_on(Backend::Simulated, strategy, dist, slowdowns, n);
    (report.stats.makespan().0, ok)
}

/// Jacobi on a machine whose processor `p` is `slowdowns[p]` times slower
/// than nominal: the run's report, and whether the gathered result is the
/// sequential one with nothing left undelivered.
fn run_on(
    backend: Backend,
    strategy: Strategy,
    dist: Dist,
    slowdowns: Vec<u64>,
    n: usize,
) -> (RunReport, bool) {
    let s = slowdowns.len();
    let program = programs::jacobi();
    let decomp = Decomposition::new(s)
        .array("New", dist.clone())
        .array("Old", dist.clone());
    let mut job = Job::new(&program, "jacobi", decomp).with_const("n", n as i64);
    job.extent_overrides.insert("Old".into(), (n, n));
    let compiled = driver::compile(&job, strategy).expect("compiles");
    let mut m = SpmdMachine::new(&compiled.spmd, CostModel::ipsc2())
        .expect("lowers")
        .with_config(RunConfig {
            backend,
            slowdowns,
            ..RunConfig::default()
        });
    m.preset_var("n", Scalar::Int(n as i64));
    m.preload_array("Old", dist, &driver::standard_input(n, n));
    let out = m.run().expect("runs");
    let gathered = m.gather("New").expect("gathers");
    let inputs = Inputs::new()
        .scalar("n", Scalar::Int(n as i64))
        .array("Old", driver::standard_input(n, n));
    let seq = driver::run_sequential(&program, "jacobi", &inputs).expect("sequential");
    let ok = driver::first_mismatch(&gathered, &seq).is_none() && out.report.undelivered == 0;
    (out.report, ok)
}

/// Slowdowns are one `RunConfig` field both backends read: the §5.4
/// experiment measures the same heterogeneous machine on either.
#[test]
fn slowdowns_reach_both_backends() {
    within(THREADS_DEADLINE, || {
        let run = |backend, slowdowns| {
            let (report, ok) = run_on(
                backend,
                Strategy::CompileTime,
                Dist::ColumnCyclic,
                slowdowns,
                16,
            );
            assert!(ok, "{backend:?}");
            report
        };
        let sim = run(Backend::Simulated, vec![4, 1, 1, 1]);
        let thr = run(Backend::threaded(), vec![4, 1, 1, 1]);
        let nominal = run(Backend::Simulated, vec![1, 1, 1, 1]);
        assert!(
            sim.stats.makespan() > nominal.stats.makespan(),
            "the slow processor is on the critical path"
        );
        assert_eq!(thr.stats.makespan(), sim.stats.makespan());
        assert_eq!(thr.stats.clocks, sim.stats.clocks);
        assert_eq!(thr.pair_messages, sim.pair_messages);
    });
}

#[test]
fn weighted_assignment_beats_uniform_on_heterogeneous_machine() {
    let n = 16usize;
    let slow = vec![4u64, 1, 1, 1];
    let (t_equal, ok_equal) = run(Strategy::CompileTime, Dist::ColumnCyclic, slow.clone(), n);
    let (t_weighted, ok_weighted) = run(
        Strategy::CompileTime,
        Dist::column_weighted(&[1, 4, 4, 4]),
        slow,
        n,
    );
    assert!(ok_equal && ok_weighted);
    assert!(
        t_weighted < t_equal,
        "weighted ({t_weighted}) should beat equal ({t_equal})"
    );
}

#[test]
fn table_assignment_correct_under_both_strategies() {
    let n = 12usize;
    for strategy in [Strategy::Runtime, Strategy::CompileTime] {
        let (_, ok) = run(
            strategy,
            Dist::column_weighted(&[2, 1, 3]),
            vec![1, 1, 1],
            n,
        );
        assert!(ok, "{strategy:?} wrong under table assignment");
    }
}

#[test]
fn wavefront_also_runs_under_table_assignment() {
    // Gauss-Seidel's wavefront dependences must survive the fully
    // run-time-guarded ownership path too.
    let n = 10usize;
    let dist = Dist::column_weighted(&[1, 2, 1]);
    let program = programs::gauss_seidel();
    let decomp = Decomposition::new(3)
        .array("New", dist.clone())
        .array("Old", dist.clone());
    let job = Job::new(&program, "gs_iteration", decomp).with_const("n", n as i64);
    let compiled = driver::compile(&job, Strategy::CompileTime).expect("compiles");
    let mut m = SpmdMachine::new(&compiled.spmd, CostModel::ipsc2()).expect("lowers");
    m.preset_var("n", Scalar::Int(n as i64));
    m.preload_array("Old", dist, &driver::standard_input(n, n));
    let out = m.run().expect("runs");
    assert_eq!(out.report.undelivered, 0);
    let gathered = m.gather("New").expect("gathers");
    let inputs = Inputs::new()
        .scalar("n", Scalar::Int(n as i64))
        .array("Old", driver::standard_input(n, n));
    let seq = driver::run_sequential(&program, "gs_iteration", &inputs).expect("sequential");
    assert_eq!(driver::first_mismatch(&gathered, &seq), None);
}
