//! Golden diagnostics for the static communication-safety analyzer.
//!
//! Each test compiles a correct paper program, *breaks* the compiled
//! per-processor IR the way a buggy optimization pass or code generator
//! would (dropping a send, swapping tags, duplicating a write, shrinking
//! a loop bound), re-analyzes the mutated program under the same static
//! environment, and asserts the analyzer reports the expected diagnostic
//! — anchored to a resolved source span, since a finding the user cannot
//! locate is barely a finding at all.

use pdc_analyze::{analyze, DiagKind, Severity};
use pdc_core::driver::{self, Compiled, Job, Strategy};
use pdc_core::{programs, CoreError};
use pdc_lang::BinOp;
use pdc_mapping::DistInstance;
use pdc_opt::OptLevel;
use pdc_spmd::ir::{SExpr, SStmt};
use std::collections::{BTreeMap, HashMap};

const N: i64 = 6;
const NPROCS: usize = 4;

/// A verified Jacobi compile at O1: vectorized sends/receives nested in
/// loops and guards — realistic prey for the mutations below.
fn jacobi_o1() -> (
    Compiled,
    BTreeMap<String, i64>,
    BTreeMap<String, DistInstance>,
) {
    let program = programs::jacobi();
    let job = Job::new(
        &program,
        "jacobi",
        programs::wavefront_decomposition(NPROCS),
    )
    .with_const("n", N)
    .with_opt_level(OptLevel::O1);
    let compiled = driver::compile(&job, Strategy::CompileTime).expect("jacobi compiles");
    let report = compiled
        .verification
        .as_ref()
        .expect("verification on at O1");
    assert!(report.verified(), "the unbroken program must verify");
    let consts: HashMap<String, i64> = [("n".to_string(), N)].into();
    let (env, arrays) = compiled.static_env(&consts);
    (compiled, env, arrays)
}

/// Remove the first vectorized send (recursing into loops and guards);
/// returns its tag.
fn drop_first_send(body: &mut Vec<SStmt>) -> Option<u32> {
    for i in 0..body.len() {
        match &mut body[i] {
            SStmt::Send { tag, .. } | SStmt::SendBuf { tag, .. } => {
                let tag = *tag;
                body.remove(i);
                return Some(tag);
            }
            SStmt::For { body: b, .. } => {
                if let Some(t) = drop_first_send(b) {
                    return Some(t);
                }
            }
            SStmt::If { then, els, .. } => {
                if let Some(t) = drop_first_send(then).or_else(|| drop_first_send(els)) {
                    return Some(t);
                }
            }
            _ => {}
        }
    }
    None
}

/// Swap two tags on every send in the body (receives keep theirs).
fn swap_send_tags(body: &mut Vec<SStmt>, a: u32, b: u32) {
    for s in body {
        match s {
            SStmt::Send { tag, .. } | SStmt::SendBuf { tag, .. } => {
                if *tag == a {
                    *tag = b;
                } else if *tag == b {
                    *tag = a;
                }
            }
            SStmt::For { body, .. } => swap_send_tags(body, a, b),
            SStmt::If { then, els, .. } => {
                swap_send_tags(then, a, b);
                swap_send_tags(els, a, b);
            }
            _ => {}
        }
    }
}

/// Duplicate the first I-structure write; returns the array written.
fn duplicate_first_awrite(body: &mut Vec<SStmt>) -> Option<String> {
    for i in 0..body.len() {
        match &mut body[i] {
            SStmt::AWrite { array, .. } | SStmt::AWriteGlobal { array, .. } => {
                let array = array.clone();
                let dup = body[i].clone();
                body.insert(i + 1, dup);
                return Some(array);
            }
            SStmt::For { body: b, .. } => {
                if let Some(a) = duplicate_first_awrite(b) {
                    return Some(a);
                }
            }
            SStmt::If { then, els, .. } => {
                if let Some(a) =
                    duplicate_first_awrite(then).or_else(|| duplicate_first_awrite(els))
                {
                    return Some(a);
                }
            }
            _ => {}
        }
    }
    None
}

/// Does this subtree contain a send?
fn has_send(body: &[SStmt]) -> bool {
    body.iter().any(|s| match s {
        SStmt::Send { .. } | SStmt::SendBuf { .. } => true,
        SStmt::For { body, .. } => has_send(body),
        SStmt::If { then, els, .. } => has_send(then) || has_send(els),
        _ => false,
    })
}

/// Shrink by one the upper bound of the first loop whose body sends.
fn shrink_first_send_loop(body: &mut Vec<SStmt>) -> bool {
    for s in body {
        if let SStmt::For { hi, body: b, .. } = s {
            if has_send(b) {
                *hi = SExpr::Bin(BinOp::Sub, Box::new(hi.clone()), Box::new(SExpr::Int(1)));
                return true;
            }
            if shrink_first_send_loop(b) {
                return true;
            }
        }
    }
    false
}

#[test]
fn dropped_send_is_reported_with_a_source_span() {
    let (mut compiled, env, arrays) = jacobi_o1();
    let tag = drop_first_send(compiled.spmd.body_mut(0)).expect("P0 sends");
    let report = analyze(&compiled.spmd, &env, &arrays);
    assert!(report.exact, "mutation must not cost precision");
    assert!(!report.verified());
    // The starved channel is both a count mismatch and, in the abstract
    // replay, a receive no remaining send can satisfy.
    let unmatched = report
        .diagnostics
        .iter()
        .find(|d| d.kind == DiagKind::UnmatchedChannel && d.tag == Some(tag))
        .expect("unmatched channel on the dropped tag");
    assert_eq!(unmatched.severity, Severity::Error);
    assert!(report
        .diagnostics
        .iter()
        .any(|d| d.kind == DiagKind::UnsatisfiedRecv && d.tag == Some(tag)));
    let span = compiled
        .resolve_tag_span(tag)
        .expect("tag resolves to source");
    let src = programs::JACOBI;
    assert!(span.start < src.len(), "span lands inside the source");
}

#[test]
fn swapped_send_tags_starve_one_channel_and_orphan_another() {
    let (mut compiled, env, arrays) = jacobi_o1();
    // P0's two boundary-exchange sends carry consecutive tags to
    // different neighbours; swapping them misroutes both streams.
    let tags: Vec<u32> = {
        let mut tags = Vec::new();
        fn collect(body: &[SStmt], tags: &mut Vec<u32>) {
            for s in body {
                match s {
                    SStmt::Send { tag, .. } | SStmt::SendBuf { tag, .. } => tags.push(*tag),
                    SStmt::For { body, .. } => collect(body, tags),
                    SStmt::If { then, els, .. } => {
                        collect(then, tags);
                        collect(els, tags);
                    }
                    _ => {}
                }
            }
        }
        collect(compiled.spmd.body(0), &mut tags);
        tags.sort_unstable();
        tags.dedup();
        tags
    };
    assert!(tags.len() >= 2, "need two send tags to swap, got {tags:?}");
    let (a, b) = (tags[0], tags[1]);
    swap_send_tags(compiled.spmd.body_mut(0), a, b);
    let report = analyze(&compiled.spmd, &env, &arrays);
    assert!(report.exact);
    assert!(!report.verified());
    // Receivers of the original streams starve (error) while the
    // misrouted messages land on channels nobody ever reads — the
    // dead-send lint (warning).
    let starved = report
        .diagnostics
        .iter()
        .find(|d| d.kind == DiagKind::UnsatisfiedRecv)
        .expect("some receive starves");
    assert_eq!(starved.severity, Severity::Error);
    assert!(report
        .diagnostics
        .iter()
        .any(|d| d.kind == DiagKind::DeadSend && d.severity == Severity::Warning));
    let tag = starved.tag.expect("starved receive names its tag");
    assert!(compiled.resolve_tag_span(tag).is_some());
}

#[test]
fn duplicated_write_breaks_single_assignment_with_a_source_span() {
    let (mut compiled, env, arrays) = jacobi_o1();
    let array = duplicate_first_awrite(compiled.spmd.body_mut(0)).expect("P0 writes");
    let report = analyze(&compiled.spmd, &env, &arrays);
    assert!(report.exact);
    assert!(!report.verified());
    let dw = report
        .diagnostics
        .iter()
        .find(|d| d.kind == DiagKind::DoubleWrite)
        .expect("double write reported");
    assert_eq!(dw.severity, Severity::Error);
    assert_eq!(dw.array.as_deref(), Some(array.as_str()));
    assert!(dw.message.contains("written 2 times"), "{}", dw.message);
    // Tag-less finding: anchored via the first source write of the array.
    assert!(compiled.resolve_array_span(&array).is_some());
}

#[test]
fn off_by_one_loop_bound_starves_the_last_receive() {
    let (mut compiled, env, arrays) = jacobi_o1();
    // P1's sweep loop both sends and receives; ending it one iteration
    // early drops its final send while the neighbour still waits.
    assert!(shrink_first_send_loop(compiled.spmd.body_mut(1)));
    let report = analyze(&compiled.spmd, &env, &arrays);
    assert!(report.exact);
    assert!(!report.verified());
    let starved = report
        .diagnostics
        .iter()
        .find(|d| d.kind == DiagKind::UnsatisfiedRecv && d.severity == Severity::Error)
        .expect("the dropped iteration's receiver starves");
    assert!(compiled
        .resolve_tag_span(starved.tag.expect("names its tag"))
        .is_some());
}

/// End-to-end: a source program with a genuine double write compiles,
/// but the driver's default-on verification at O1 turns what would be a
/// runtime I-structure fault into a typed compile-time error.
#[test]
fn driver_rejects_a_double_writing_program_at_compile_time() {
    let src = r#"
procedure main(Old, n) {
    let A = matrix(n, n);
    for i = 1 to n do {
        A[i, 1] = Old[i, 1];
    }
    for i = 1 to n do {
        A[i, 1] = Old[i, 1] + 1;
    }
    return A;
}
"#;
    let program = pdc_lang::parse(src).expect("parses");
    let d = pdc_mapping::Decomposition::new(2)
        .array("A", pdc_mapping::Dist::ColumnCyclic)
        .array("Old", pdc_mapping::Dist::ColumnCyclic);
    let mut job = Job::new(&program, "main", d)
        .with_const("n", 4)
        .with_opt_level(OptLevel::O1);
    job.extent_overrides.insert("Old".into(), (4, 4));
    let err = driver::compile(&job, Strategy::CompileTime).expect_err("analyzer rejects");
    match err {
        CoreError::StaticAnalysis { diagnostics } => {
            assert!(diagnostics
                .iter()
                .any(|d| d.kind == DiagKind::DoubleWrite && d.array.as_deref() == Some("A")));
        }
        other => panic!("expected StaticAnalysis, got {other}"),
    }
    // Opting out compiles the same program (it would fault at runtime).
    let job = {
        let d = pdc_mapping::Decomposition::new(2)
            .array("A", pdc_mapping::Dist::ColumnCyclic)
            .array("Old", pdc_mapping::Dist::ColumnCyclic);
        let mut job = Job::new(&program, "main", d)
            .with_const("n", 4)
            .with_opt_level(OptLevel::O1)
            .with_verify_static(false);
        job.extent_overrides.insert("Old".into(), (4, 4));
        job
    };
    assert!(driver::compile(&job, Strategy::CompileTime).is_ok());
}
