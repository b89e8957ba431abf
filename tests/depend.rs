//! Golden tests for the exact loop-dependence framework (`pdc-depend`)
//! and its integration into the compiler driver.
//!
//! The distance/direction vectors of the paper's kernels are pinned
//! exactly: Gauss-Seidel carries its two flow dependences at levels 1
//! and 2 (the wavefront), the interchanged variant carries the same
//! dependences with the vector components swapped, and Jacobi carries
//! nothing. Non-affine subscripts must degrade to `exact = false` with
//! a reason rather than silently claiming independence. The driver
//! surfaces all of this as `Phase::Depend` remarks — one summary per
//! nest plus the cross-processor hotspot lint — and the tuner rejects
//! optimizer-on candidates before compiling or costing them when the
//! source analysis is inexact.

use pdc_core::driver::{self, Compiled, Inputs, Job, Strategy};
use pdc_core::programs;
use pdc_depend::ast::{analyze_for_env, nests};
use pdc_depend::{DepKind, DependenceInfo};
use pdc_machine::CostModel;
use pdc_mapping::{Decomposition, Dist};
use pdc_opt::OptLevel;
use pdc_report::{Phase, RemarkKind};
use std::collections::BTreeMap;

const N: usize = 16;
const S: usize = 4;

fn env_n(n: i64) -> BTreeMap<String, i64> {
    [("n".to_string(), n)].into()
}

/// Analyze every source nest of `prog` under `n` and return them keyed
/// by owning procedure, in program order.
fn analyzed(prog: &pdc_lang::Program, n: i64) -> Vec<(String, DependenceInfo)> {
    nests(prog)
        .into_iter()
        .map(|(proc, nest)| (proc.to_string(), analyze_for_env(nest, &env_n(n))))
        .collect()
}

/// The `(direction, distance, level)` triples of the loop-carried
/// dependences on `array`, sorted for a stable comparison.
fn carried_vectors(info: &DependenceInfo, array: &str) -> Vec<(String, String, usize)> {
    let mut v: Vec<_> = info
        .deps
        .iter()
        .filter(|d| d.array == array && d.is_loop_carried())
        .map(|d| {
            (
                d.direction_string(),
                d.distance_string(),
                d.level.expect("carried dependence has a level"),
            )
        })
        .collect();
    v.sort();
    v
}

#[test]
fn gauss_seidel_wavefront_vectors_are_exact() {
    let prog = programs::gauss_seidel();
    let infos = analyzed(&prog, N as i64);
    // Two boundary nests in init_boundary plus the interior nest.
    assert_eq!(infos.len(), 3);
    for (proc, info) in &infos {
        assert!(info.exact, "{proc}: {:?}", info.notes);
    }
    let (_, boundary_i) = &infos[0];
    let (_, boundary_j) = &infos[1];
    assert!(boundary_i.loop_carried().next().is_none());
    assert!(boundary_j.loop_carried().next().is_none());

    // The interior nest is `for j { for i { … } }`: the read of
    // New[i, j-1] is carried by the outer column loop with distance
    // (1,0), the read of New[i-1, j] by the inner row loop with
    // distance (0,1) — the paper's Figure 2 wavefront, exactly.
    let (proc, interior) = &infos[2];
    assert_eq!(proc, "gs_iteration");
    assert!(interior
        .deps
        .iter()
        .all(|d| d.array == "New" && d.kind == DepKind::Flow));
    assert_eq!(
        carried_vectors(interior, "New"),
        vec![
            ("(<,=)".to_string(), "(1,0)".to_string(), 1),
            ("(=,<)".to_string(), "(0,1)".to_string(), 2),
        ]
    );
    // Old is read-only: no dependence may mention it.
    assert!(interior.deps.iter().all(|d| d.array != "Old"));
}

#[test]
fn interchanged_variant_swaps_the_vector_components() {
    let prog = programs::gauss_seidel_interchanged();
    let infos = analyzed(&prog, N as i64);
    let (proc, interior) = &infos[2];
    assert_eq!(proc, "gs_iteration");
    assert!(interior.exact, "{:?}", interior.notes);
    // Same two flow dependences; under `for i { for j { … } }` the
    // carrying loops trade places and the vectors transpose.
    assert_eq!(
        carried_vectors(interior, "New"),
        vec![
            ("(<,=)".to_string(), "(1,0)".to_string(), 1),
            ("(=,<)".to_string(), "(0,1)".to_string(), 2),
        ]
    );
}

#[test]
fn jacobi_carries_nothing() {
    let prog = programs::jacobi();
    let infos = analyzed(&prog, N as i64);
    assert_eq!(infos.len(), 3);
    for (proc, info) in &infos {
        assert!(info.exact, "{proc}: {:?}", info.notes);
        assert!(
            info.loop_carried().next().is_none(),
            "{proc} unexpectedly carries a dependence"
        );
    }
}

/// Indirect subscripts cannot be analyzed exactly; the framework must
/// say so instead of claiming independence.
#[test]
fn indirect_subscripts_degrade_honestly() {
    let src = r#"
procedure scatter(Idx, n) {
    let A = matrix(n, n);
    for i = 1 to n do {
        for j = 1 to n do {
            A[Idx[i, 1], j] = i + j;
        }
    }
    return A;
}
"#;
    let prog = pdc_lang::parse(src).expect("scatter parses");
    let infos = analyzed(&prog, N as i64);
    assert_eq!(infos.len(), 1);
    let (_, info) = &infos[0];
    assert!(!info.exact, "indirect subscript must not analyze exactly");
    assert!(
        !info.notes.is_empty(),
        "inexactness must carry a reason for the report"
    );
}

fn compile_wavefront(level: Option<OptLevel>) -> Compiled {
    let program = programs::gauss_seidel();
    let mut job = Job::new(
        &program,
        "gs_iteration",
        programs::wavefront_decomposition(S),
    )
    .with_const("n", N as i64);
    if let Some(level) = level {
        job = job.with_opt_level(level);
    }
    driver::compile(&job, Strategy::CompileTime).expect("wavefront compiles")
}

/// The driver surfaces the framework's results as `Phase::Depend`
/// remarks: one exact summary per inlined nest, and exactly one
/// hotspot lint — the column-carried flow dependence on `New` crosses
/// the column-cyclic distribution; the row-carried one stays on its
/// owner and must not be flagged.
#[test]
fn depend_remarks_flag_the_wavefront_hotspot() {
    let c = compile_wavefront(Some(OptLevel::O0));
    let depend: Vec<_> = c
        .remarks
        .iter()
        .filter(|r| r.phase == Phase::Depend)
        .collect();
    let summaries: Vec<_> = depend
        .iter()
        .filter(|r| r.kind == RemarkKind::Applied)
        .collect();
    let lints: Vec<_> = depend
        .iter()
        .filter(|r| r.kind == RemarkKind::Missed)
        .collect();
    // init_boundary is inlined: its two nests plus the interior nest.
    assert_eq!(summaries.len(), 3);
    for s in &summaries {
        assert!(s.span.is_some(), "summary lacks a span: {}", s.message);
        assert!(
            s.details.iter().any(|(k, v)| k == "exact" && v == "true"),
            "nest not analyzed exactly: {:?}",
            s.details
        );
    }
    assert_eq!(lints.len(), 1, "{lints:#?}");
    let lint = lints[0];
    assert!(lint.message.contains("crosses its distributed dimension"));
    assert!(lint.span.is_some(), "hotspot lint must point at the source");
    assert!(
        lint.details
            .iter()
            .any(|(k, v)| k == "dependence" && v.contains("flow on `New`")),
        "{:?}",
        lint.details
    );
}

/// Jacobi under the same distribution communicates only at column
/// boundaries that carry no dependence — the lint must stay quiet.
#[test]
fn jacobi_raises_no_hotspot_lint() {
    let program = programs::jacobi();
    let job = Job::new(&program, "jacobi", programs::wavefront_decomposition(S))
        .with_const("n", N as i64);
    let c = driver::compile(&job, Strategy::CompileTime).expect("jacobi compiles");
    assert!(
        !c.remarks
            .iter()
            .any(|r| r.phase == Phase::Depend && r.kind == RemarkKind::Missed),
        "Jacobi has no loop-carried dependence to lint"
    );
}

/// Under a row distribution the *row*-carried dependence is the one
/// that crosses processors; the lint must follow the decomposition,
/// not the program text.
#[test]
fn hotspot_lint_follows_the_distribution() {
    let program = programs::gauss_seidel();
    let d = Decomposition::new(S)
        .array("New", Dist::RowCyclic)
        .array("Old", Dist::RowCyclic);
    let job = Job::new(&program, "gs_iteration", d).with_const("n", N as i64);
    let c = driver::compile(&job, Strategy::CompileTime).expect("compiles");
    let lints: Vec<_> = c
        .remarks
        .iter()
        .filter(|r| r.phase == Phase::Depend && r.kind == RemarkKind::Missed)
        .collect();
    assert_eq!(lints.len(), 1, "{lints:#?}");
    assert!(
        lints[0]
            .details
            .iter()
            .any(|(k, v)| k == "dependence" && v.contains("(=,<)")),
        "the row-carried dependence is the crossing one under rows: {:?}",
        lints[0].details
    );
}

/// The remark stream (now including `Phase::Depend`) stays byte-stable
/// across identical compiles.
#[test]
fn depend_remarks_are_deterministic() {
    let a = compile_wavefront(Some(OptLevel::O2));
    let b = compile_wavefront(Some(OptLevel::O2));
    assert_eq!(a.remarks_json(), b.remarks_json());
    assert!(a.remarks_json().contains("\"depend\""));
}

/// When the source nests cannot be analyzed exactly, the tuner must
/// reject every optimizer-on candidate *before* compiling and costing
/// it, with the analysis's reason as the rejection witness — and still
/// pick a working optimizer-off winner.
#[test]
fn tuner_prunes_unprovable_candidates_before_costing() {
    let src = r#"
procedure twist(Old, n) {
    let New = matrix(n, n);
    for i = 1 to n do {
        for j = 1 to n do {
            New[(i * i) div i, j] = Old[i, j] + 1;
        }
    }
    return New;
}
"#;
    let program = pdc_lang::parse(src).expect("twist parses");
    let d = Decomposition::new(S)
        .array("New", Dist::ColumnCyclic)
        .array("Old", Dist::ColumnCyclic);
    let job = Job::new(&program, "twist", d)
        .with_const("n", 8)
        .with_auto_decomposition();
    let c = driver::compile(&job, Strategy::Runtime).expect("auto compile succeeds");
    let tune = c.tune.as_ref().expect("auto job records the search");

    let mut rejected_illegal = 0usize;
    for e in &tune.evaluated {
        let optimizing = !matches!(e.candidate.opt_level, None | Some(OptLevel::O0));
        match &e.outcome {
            Err(reason) if optimizing => {
                assert!(
                    reason.contains("dependence analysis inexact"),
                    "{}: wrong rejection reason: {reason}",
                    e.candidate.label
                );
                rejected_illegal += 1;
            }
            Ok(_) => assert!(
                !optimizing,
                "{}: unprovable candidate was compiled and scored",
                e.candidate.label
            ),
            Err(_) => {}
        }
    }
    assert!(rejected_illegal > 0, "filter never fired");
    // The rejections surface as Tune remarks with the reason attached.
    assert!(c.remarks.iter().any(|r| {
        r.phase == Phase::Tune
            && r.kind == RemarkKind::Missed
            && r.details
                .iter()
                .any(|(k, v)| k == "rejected" && v.contains("dependence analysis inexact"))
    }));
    // The winner still runs: the framework prunes, it does not break.
    let winner = tune.winner();
    assert!(matches!(
        winner.candidate.opt_level,
        None | Some(OptLevel::O0)
    ));
    let exec = driver::execute(
        &c,
        &Inputs::new()
            .scalar("n", pdc_spmd::Scalar::Int(8))
            .array("Old", driver::standard_input(8, 8)),
        CostModel::ipsc2(),
    )
    .expect("winner executes");
    assert_eq!(exec.outcome.report.undelivered, 0);
}

/// Differential regression: every interchange the framework approves
/// preserves the simulator's output bit for bit. The interchanged
/// Gauss-Seidel source is the paper's own motivating case — the pass
/// swaps its `i`/`j` loops back into wavefront order — and both the
/// original and the swapped program, compiled and run on the
/// simulator, must gather the exact matrix the sequential interpreter
/// computes.
#[test]
fn applied_interchange_preserves_simulated_output() {
    let reversed = programs::gauss_seidel_interchanged();
    let mut sink = pdc_report::RemarkSink::new();
    let (swapped, count) = pdc_opt::interchange(&reversed, &mut sink);
    assert!(count > 0, "the motivating case must actually interchange");
    // Every applied swap names its legality witness from the framework.
    let applied: Vec<_> = sink
        .remarks()
        .iter()
        .filter(|r| r.phase == Phase::Interchange && r.kind == RemarkKind::Applied)
        .collect();
    assert_eq!(applied.len(), count);
    for r in &applied {
        assert!(
            r.details.iter().any(|(k, _)| k == "witness"),
            "applied interchange lacks a witness: {}",
            r.message
        );
    }

    let n = 10usize;
    let inputs = Inputs::new()
        .scalar("n", pdc_spmd::Scalar::Int(n as i64))
        .array("Old", driver::standard_input(n, n));
    let seq = driver::run_sequential(&reversed, "gs_iteration", &inputs).expect("sequential");
    for (label, program) in [("reversed", &reversed), ("interchanged", &swapped)] {
        for level in [OptLevel::O0, OptLevel::O2] {
            let job = Job::new(
                program,
                "gs_iteration",
                programs::wavefront_decomposition(S),
            )
            .with_const("n", n as i64)
            .with_opt_level(level);
            let c = driver::compile(&job, Strategy::CompileTime).expect("compiles");
            let exec = driver::execute(&c, &inputs, CostModel::ipsc2()).expect("runs");
            let gathered = exec.gather("New").expect("gathers");
            assert_eq!(
                driver::first_mismatch(&gathered, &seq),
                None,
                "{label} at {level}: output diverged from the interpreter"
            );
        }
    }
}
