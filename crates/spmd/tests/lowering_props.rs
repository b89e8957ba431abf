//! Property test: lowering is semantics-preserving. A random expression
//! evaluated directly over the tree IR gives the same value as running
//! the lowered bytecode on the VM. (Deterministic `pdc-testkit` cases;
//! a failing case prints its seed for replay.) The reference evaluator
//! here is written on `i64` alone, independently of `pdc_lang::binop`.

use pdc_lang::{BinOp, UnOp};
use pdc_machine::{CostModel, Machine, ProcId, Process, Step};
use pdc_spmd::ir::{SExpr, SStmt};
use pdc_spmd::lower::lower;
use pdc_spmd::vm::ProcVm;
use pdc_spmd::Scalar;
use pdc_testkit::{cases, Rng};
use std::sync::Arc;

/// Integers where `i64` and `f64` disagree, or where arithmetic
/// overflows: ±2^53, ±(2^53 + 1), `i64::MIN`, `i64::MAX`.
const EDGES: [i64; 6] = [
    9007199254740992,
    -9007199254740992,
    9007199254740993,
    -9007199254740993,
    i64::MIN,
    i64::MAX,
];

fn leaf(rng: &mut Rng) -> SExpr {
    match rng.range_usize(0, 7) {
        0 => SExpr::Int(rng.range_i64(-50, 50)),
        1 => SExpr::var("x"),
        2 => SExpr::var("y"),
        3 => SExpr::MyNode,
        4 => SExpr::NProcs,
        _ => SExpr::Int(*rng.pick(&EDGES)),
    }
}

fn arith(rng: &mut Rng) -> BinOp {
    *rng.pick(&[
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::FloorDiv,
        BinOp::Mod,
        BinOp::Min,
        BinOp::Max,
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
        SExpr::Un(UnOp::Neg, Box::new(expr(rng, depth - 1)))
    }
}

/// A comparison over two random expressions. Half the sides are `b + d`,
/// with one base `b` per comparison (2^53 or -(2^53 + 1)) and `d` 0 or 1:
/// distinct integers that round to one `f64`.
fn comparison(rng: &mut Rng, depth: usize) -> SExpr {
    let op = *rng.pick(&[
        BinOp::Eq,
        BinOp::Ne,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
    ]);
    let base = *rng.pick(&[9007199254740992, -9007199254740993]);
    let side = |rng: &mut Rng| match rng.range_usize(0, 4) {
        0 => leaf(rng),
        1 => expr(rng, depth),
        _ => SExpr::Int(base).add(SExpr::Int(rng.range_i64(0, 2))),
    };
    let l = side(rng);
    let r = side(rng);
    SExpr::Bin(op, Box::new(l), Box::new(r))
}

/// Reference evaluation of a whole expression: a comparison at the root
/// compares the two `i64`s; anything else is [`eval`].
fn eval_root(e: &SExpr, x: i64, y: i64, me: i64, nprocs: i64) -> Option<Scalar> {
    if let SExpr::Bin(op, a, b) = e {
        let cmp = match op {
            BinOp::Eq => i64::eq,
            BinOp::Ne => i64::ne,
            BinOp::Lt => i64::lt,
            BinOp::Le => i64::le,
            BinOp::Gt => i64::gt,
            BinOp::Ge => i64::ge,
            _ => return eval(e, x, y, me, nprocs).map(Scalar::Int),
        };
        let (l, r) = (eval(a, x, y, me, nprocs)?, eval(b, x, y, me, nprocs)?);
        return Some(Scalar::Bool(cmp(&l, &r)));
    }
    eval(e, x, y, me, nprocs).map(Scalar::Int)
}

/// Direct reference evaluation over the tree.
fn eval(e: &SExpr, x: i64, y: i64, me: i64, nprocs: i64) -> Option<i64> {
    Some(match e {
        SExpr::Int(v) => *v,
        SExpr::Var(v) if v == "x" => x,
        SExpr::Var(v) if v == "y" => y,
        SExpr::MyNode => me,
        SExpr::NProcs => nprocs,
        SExpr::Un(UnOp::Neg, a) => eval(a, x, y, me, nprocs)?.checked_neg()?,
        SExpr::Bin(op, a, b) => {
            let (l, r) = (eval(a, x, y, me, nprocs)?, eval(b, x, y, me, nprocs)?);
            match op {
                BinOp::Add => l.checked_add(r)?,
                BinOp::Sub => l.checked_sub(r)?,
                BinOp::Mul => l.checked_mul(r)?,
                BinOp::FloorDiv => l.checked_div_euclid(r)?,
                BinOp::Mod if r == 0 => return None,
                // `i64::MIN mod -1` is 0, though `i64::MIN div -1` overflows.
                BinOp::Mod if r == -1 => 0,
                BinOp::Mod => l.rem_euclid(r),
                BinOp::Min => l.min(r),
                BinOp::Max => l.max(r),
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
        let e = if rng.chance(1, 3) {
            comparison(rng, 3)
        } else {
            expr(rng, 4)
        };
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
        match (eval_root(&e, x, y, 1, 3), run_vm(body)) {
            (Some(want), Ok(Some(got))) => assert_eq!(got, want, "{e:?}"),
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
