//! End-to-end reproduction checks of the paper's headline claims, at a
//! scale small enough for the debug-build test suite.

use pdc_core::driver::{self, Inputs, Job, Strategy};
use pdc_core::handwritten;
use pdc_core::inline::{ParamMapMode, ParamMaps};
use pdc_core::programs;
use pdc_machine::CostModel;
use pdc_mapping::{Decomposition, ScalarMap};
use pdc_opt::{interchange, optimize, OptLevel};
use pdc_spmd::run::SpmdMachine;
use pdc_spmd::Scalar;

/// Simulate one wavefront configuration; return (messages, makespan).
fn run_wavefront(prog: &pdc_spmd::ir::SpmdProgram, n: usize, verify: bool) -> (u64, u64) {
    let mut m = SpmdMachine::new(prog, CostModel::ipsc2()).expect("lowers");
    m.preset_var("n", Scalar::Int(n as i64));
    m.preload_array(
        "Old",
        pdc_mapping::Dist::ColumnCyclic,
        &driver::standard_input(n, n),
    );
    let out = m.run().expect("runs");
    assert_eq!(out.report.undelivered, 0);
    if verify {
        let gathered = m.gather("New").expect("gathers");
        let inputs = Inputs::new()
            .scalar("n", Scalar::Int(n as i64))
            .array("Old", driver::standard_input(n, n));
        let seq = driver::run_sequential(&programs::gauss_seidel(), "gs_iteration", &inputs)
            .expect("sequential");
        assert_eq!(driver::first_mismatch(&gathered, &seq), None);
    }
    (
        out.report.stats.network.messages,
        out.report.stats.makespan().0,
    )
}

/// Footnote 3 scaled down: run-time resolution exchanges exactly
/// `2 (n-2)²` messages and the handwritten program
/// `(n-2) + (n-2)·ceil((n-2)/b)`.
#[test]
fn message_count_formulas() {
    let n = 20usize;
    let s = 4usize;
    let b = 4usize;
    let program = programs::gauss_seidel();
    let job = Job::new(
        &program,
        "gs_iteration",
        programs::wavefront_decomposition(s),
    )
    .with_const("n", n as i64);
    let rt = driver::compile(&job, Strategy::Runtime).unwrap();
    let (msgs, _) = run_wavefront(&rt.spmd, n, true);
    assert_eq!(msgs, 2 * (n as u64 - 2).pow(2));

    let hw = handwritten::gauss_seidel(s, b);
    let (msgs, _) = run_wavefront(&hw, n, true);
    let interior = n as u64 - 2;
    assert_eq!(msgs, interior + interior * interior.div_ceil(b as u64));
}

/// The full optimization ladder strictly improves simulated time, and
/// every rung computes the sequential answer.
#[test]
fn optimization_ladder_ordering() {
    let n = 20usize;
    let s = 4usize;
    let program = programs::gauss_seidel();
    let job = Job::new(
        &program,
        "gs_iteration",
        programs::wavefront_decomposition(s),
    )
    .with_const("n", n as i64);
    let rt = driver::compile(&job, Strategy::Runtime).unwrap();
    let ct = driver::compile(&job, Strategy::CompileTime).unwrap();
    let (o1, _) = optimize(&ct.spmd, OptLevel::O1);
    let (o2, _) = optimize(&ct.spmd, OptLevel::O2);
    let (o3, _) = optimize(&ct.spmd, OptLevel::O3 { blksize: 4 });
    let hw = handwritten::gauss_seidel(s, 4);

    let (m_rt, t_rt) = run_wavefront(&rt.spmd, n, true);
    let (m_ct, t_ct) = run_wavefront(&ct.spmd, n, true);
    let (m_o1, t_o1) = run_wavefront(&o1, n, true);
    let (m_o2, t_o2) = run_wavefront(&o2, n, true);
    let (m_o3, t_o3) = run_wavefront(&o3, n, true);
    let (m_hw, t_hw) = run_wavefront(&hw, n, true);

    // §4: compile-time resolution "exchanges as many messages as the
    // run-time version".
    assert_eq!(m_rt, m_ct);
    // Vectorization removes the old-column element messages.
    assert!(m_o1 < m_ct);
    // Jamming preserves counts, blocking cuts them to handwritten level.
    assert_eq!(m_o2, m_o1);
    assert_eq!(m_o3, m_hw);
    // Times are strictly ordered down the ladder.
    assert!(t_ct < t_rt, "{t_ct} !< {t_rt}");
    assert!(t_o1 < t_ct, "{t_o1} !< {t_ct}");
    assert!(t_o2 < t_o1, "{t_o2} !< {t_o1}");
    assert!(t_o3 < t_o2, "{t_o3} !< {t_o2}");
    // Optimized III is within a factor of two of handwritten.
    assert!(t_o3 < 2 * t_hw, "{t_o3} vs handwritten {t_hw}");
}

/// Figure 4: three processors, two messages, c = 12 on P3 only.
#[test]
fn figure4_both_strategies() {
    let program = programs::figure4();
    for strategy in [Strategy::Runtime, Strategy::CompileTime] {
        let job = Job::new(&program, "main", programs::figure4_decomposition(4));
        let compiled = driver::compile(&job, strategy).unwrap();
        let exec = driver::execute(&compiled, &Inputs::new(), CostModel::ipsc2()).unwrap();
        assert_eq!(exec.messages(), 2);
        assert_eq!(exec.outcome.report.undelivered, 0);
        assert_eq!(exec.machine.vm(3).var("c"), Some(Scalar::Int(12)));
        assert_eq!(exec.machine.vm(0).var("c"), None);
    }
}

/// Figures 8/9: polymorphic parameter mappings erase four messages.
#[test]
fn mapping_polymorphism_saves_messages() {
    let mut results = Vec::new();
    for mode in [ParamMapMode::Monomorphic, ParamMapMode::Polymorphic] {
        let program = programs::identity_calls();
        let decomp = Decomposition::new(4)
            .scalar("b", ScalarMap::On(2))
            .scalar("k", ScalarMap::On(3))
            .scalar("u", ScalarMap::On(2))
            .scalar("v", ScalarMap::On(3));
        let mut param_maps = ParamMaps::new();
        param_maps.insert(("f".into(), "a".into()), ScalarMap::On(1));
        let mut job = Job::new(&program, "main", decomp);
        job.param_maps = param_maps;
        job.mode = mode;
        let compiled = driver::compile(&job, Strategy::CompileTime).unwrap();
        let inputs = Inputs::new()
            .scalar("b", Scalar::Int(5))
            .scalar("k", Scalar::Int(7));
        let exec = driver::execute(&compiled, &inputs, CostModel::ipsc2()).unwrap();
        // Both versions leave the right values in place.
        assert_eq!(exec.outcome.report.undelivered, 0);
        assert_eq!(exec.machine.vm(2).var("u"), Some(Scalar::Int(5)));
        assert_eq!(exec.machine.vm(3).var("v"), Some(Scalar::Int(7)));
        results.push(exec.messages());
    }
    assert_eq!(results[0], 4, "monomorphic: b->P1, P1->u, k->P1, P1->v");
    assert_eq!(results[1], 0, "polymorphic calls run where the data lives");
}

/// §4's loop-interchange story: the reversed program is slower under the
/// same decomposition; interchange recovers normal-order time.
#[test]
fn interchange_restores_parallelism() {
    let n = 16usize;
    let s = 4usize;
    let compile_o2 = |program: &pdc_lang::Program| {
        let job = Job::new(
            program,
            "gs_iteration",
            programs::wavefront_decomposition(s),
        )
        .with_const("n", n as i64);
        let ct = driver::compile(&job, Strategy::CompileTime).unwrap();
        optimize(&ct.spmd, OptLevel::O2).0
    };
    let reversed = programs::gauss_seidel_interchanged();
    let (fixed, swapped) = interchange(&reversed, &mut pdc_report::RemarkSink::new());
    assert_eq!(swapped, 1);
    let normal = programs::gauss_seidel();

    let (_, t_rev) = run_wavefront(&compile_o2(&reversed), n, true);
    let (_, t_fix) = run_wavefront(&compile_o2(&fixed), n, true);
    let (_, t_norm) = run_wavefront(&compile_o2(&normal), n, true);
    assert!(
        t_rev > t_norm,
        "reversed ({t_rev}) should be slower than normal ({t_norm})"
    );
    // Interchange recovers normal-order performance exactly (the fixed
    // AST is the normal program modulo inlining names).
    let ratio = t_fix as f64 / t_norm as f64;
    assert!(
        (0.9..=1.1).contains(&ratio),
        "fixed {t_fix} vs normal {t_norm}"
    );
}

/// Determinism: the same configuration simulates to identical statistics
/// run after run.
#[test]
fn simulation_is_deterministic() {
    let program = programs::gauss_seidel();
    let job = Job::new(
        &program,
        "gs_iteration",
        programs::wavefront_decomposition(3),
    )
    .with_const("n", 12);
    let compiled = driver::compile(&job, Strategy::CompileTime).unwrap();
    let inputs = Inputs::new()
        .scalar("n", Scalar::Int(12))
        .array("Old", driver::standard_input(12, 12));
    let a = driver::execute(&compiled, &inputs, CostModel::ipsc2()).unwrap();
    let b = driver::execute(&compiled, &inputs, CostModel::ipsc2()).unwrap();
    assert_eq!(a.messages(), b.messages());
    assert_eq!(a.makespan(), b.makespan());
    assert_eq!(a.outcome.report.steps, b.outcome.report.steps);
}
