//! Property test: lowering is semantics-preserving. A random expression
//! evaluated directly over the tree IR gives the same value as running
//! the lowered bytecode on the VM. (Deterministic `pdc-testkit` cases;
//! a failing case prints its seed for replay.)

use pdc_machine::{CostModel, Machine, ProcId, Process, Step};
use pdc_spmd::ir::{SBinOp, SExpr, SStmt, SUnOp};
use pdc_spmd::lower::lower;
use pdc_spmd::vm::ProcVm;
use pdc_spmd::Scalar;
use pdc_testkit::{cases, Rng};
use std::sync::Arc;

fn leaf(rng: &mut Rng) -> SExpr {
    match rng.range_usize(0, 5) {
        0 => SExpr::Int(rng.range_i64(-50, 50)),
        1 => SExpr::var("x"),
        2 => SExpr::var("y"),
        3 => SExpr::MyNode,
        _ => SExpr::NProcs,
    }
}

fn arith(rng: &mut Rng) -> SBinOp {
    *rng.pick(&[
        SBinOp::Add,
        SBinOp::Sub,
        SBinOp::Mul,
        SBinOp::FloorDiv,
        SBinOp::Mod,
        SBinOp::Min,
        SBinOp::Max,
    ])
}

fn expr(rng: &mut Rng, depth: usize) -> SExpr {
    if depth == 0 || rng.chance(1, 3) {
        return leaf(rng);
    }
    if rng.chance(2, 3) {
        SExpr::Bin(
            arith(rng),
            Box::new(expr(rng, depth - 1)),
            Box::new(expr(rng, depth - 1)),
        )
    } else {
        SExpr::Un(SUnOp::Neg, Box::new(expr(rng, depth - 1)))
    }
}

/// Direct reference evaluation over the tree.
fn eval(e: &SExpr, x: i64, y: i64, me: i64, nprocs: i64) -> Option<i64> {
    Some(match e {
        SExpr::Int(v) => *v,
        SExpr::Var(v) if v == "x" => x,
        SExpr::Var(v) if v == "y" => y,
        SExpr::MyNode => me,
        SExpr::NProcs => nprocs,
        SExpr::Un(SUnOp::Neg, a) => -eval(a, x, y, me, nprocs)?,
        SExpr::Bin(op, a, b) => {
            let (l, r) = (eval(a, x, y, me, nprocs)?, eval(b, x, y, me, nprocs)?);
            match op {
                SBinOp::Add => l.checked_add(r)?,
                SBinOp::Sub => l.checked_sub(r)?,
                SBinOp::Mul => l.checked_mul(r)?,
                SBinOp::FloorDiv => {
                    if r == 0 {
                        return None;
                    }
                    l.div_euclid(r)
                }
                SBinOp::Mod => {
                    if r == 0 {
                        return None;
                    }
                    l.rem_euclid(r)
                }
                SBinOp::Min => l.min(r),
                SBinOp::Max => l.max(r),
                _ => return None,
            }
        }
        _ => return None,
    })
}

/// Run a single-processor program to completion; return `result`.
fn run_vm(body: Vec<SStmt>) -> Result<Option<Scalar>, String> {
    let code = Arc::new(lower(&body).map_err(|e| e.to_string())?);
    let mut vm = ProcVm::new(code, &CostModel::zero());
    let mut machine = Machine::new(3, CostModel::zero());
    for _ in 0..100_000 {
        match vm.step(&mut machine, ProcId(1)) {
            Ok(Step::Done) => return Ok(vm.var("result")),
            Ok(Step::Ran) => {}
            Ok(Step::BlockedOnRecv { .. }) => return Err("unexpected block".into()),
            Err(e) => return Err(e.to_string()),
        }
    }
    Err("did not terminate".into())
}

#[test]
fn lowered_expressions_match_reference_eval() {
    cases(256, "lowered_expressions_match_reference_eval", |rng| {
        let e = expr(rng, 4);
        let x = rng.range_i64(-20, 20);
        let y = rng.range_i64(-20, 20);
        let body = vec![
            SStmt::Let {
                var: "x".into(),
                value: SExpr::Int(x),
            },
            SStmt::Let {
                var: "y".into(),
                value: SExpr::Int(y),
            },
            SStmt::Let {
                var: "result".into(),
                value: e.clone(),
            },
        ];
        // me = 1, nprocs = 3 per run_vm.
        match (eval(&e, x, y, 1, 3), run_vm(body)) {
            (Some(want), Ok(Some(Scalar::Int(got)))) => assert_eq!(got, want),
            // Reference says the expression faults (division by zero or
            // overflow): the VM must fault too, not produce a value.
            (None, Err(_)) => {}
            (None, Ok(_)) => panic!("VM succeeded where reference faults"),
            (Some(_), Err(e)) => panic!("VM failed: {e}"),
            other => panic!("mismatch: {other:?}"),
        }
    });
}

/// Loops: summing f(i) via the VM equals direct summation.
#[test]
fn lowered_loops_accumulate_correctly() {
    cases(256, "lowered_loops_accumulate_correctly", |rng| {
        let lo = rng.range_i64(-5, 5);
        let len = rng.range_i64(0, 12);
        let step = rng.range_i64(1, 4);
        let k = rng.range_i64(-5, 6);
        let hi = lo + len;
        let body = vec![
            SStmt::Let {
                var: "result".into(),
                value: SExpr::Int(0),
            },
            SStmt::For {
                var: "i".into(),
                lo: SExpr::Int(lo),
                hi: SExpr::Int(hi),
                step: SExpr::Int(step),
                body: vec![SStmt::Let {
                    var: "result".into(),
                    value: SExpr::var("result").add(SExpr::var("i").mul(SExpr::Int(k))),
                }],
            },
        ];
        let mut want = 0i64;
        let mut i = lo;
        while i <= hi {
            want += i * k;
            i += step;
        }
        let got = run_vm(body).expect("runs");
        assert_eq!(got, Some(Scalar::Int(want)));
    });
}

/// Conditionals take the right branch.
#[test]
fn lowered_branches_select_correctly() {
    cases(256, "lowered_branches_select_correctly", |rng| {
        let a = rng.range_i64(-10, 10);
        let b = rng.range_i64(-10, 10);
        let body = vec![SStmt::If {
            cond: SExpr::Int(a).lt(SExpr::Int(b)),
            then: vec![SStmt::Let {
                var: "result".into(),
                value: SExpr::Int(1),
            }],
            els: vec![SStmt::Let {
                var: "result".into(),
                value: SExpr::Int(0),
            }],
        }];
        let got = run_vm(body).expect("runs");
        assert_eq!(got, Some(Scalar::Int(i64::from(a < b))));
    });
}
