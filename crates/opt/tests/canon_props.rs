//! Property tests of the canonicalization machinery the optimization
//! passes rely on: canonical equality is sound (equal canon ⇒ equal
//! values) and variable shifts mean what they say. (Deterministic
//! `pdc-testkit` cases; a failing case prints its seed for replay.)

use pdc_lang::{BinOp, UnOp};
use pdc_opt::canon::{canon, canon_eq, shift_sexpr, solve_shift, uncanon};
use pdc_spmd::ir::SExpr;
use pdc_testkit::{cases, Rng};

fn leaf(rng: &mut Rng) -> SExpr {
    match rng.range_usize(0, 3) {
        0 => SExpr::Int(rng.range_i64(-20, 20)),
        1 => SExpr::var("j"),
        _ => SExpr::var("k"),
    }
}

/// Index-shaped expressions: affine combinations with div/mod by
/// positive constants — what subscripts look like after codegen.
fn index_expr(rng: &mut Rng, depth: usize) -> SExpr {
    if depth == 0 || rng.chance(1, 4) {
        return leaf(rng);
    }
    match rng.range_usize(0, 6) {
        0 => SExpr::Bin(
            BinOp::Add,
            Box::new(index_expr(rng, depth - 1)),
            Box::new(index_expr(rng, depth - 1)),
        ),
        1 => SExpr::Bin(
            BinOp::Sub,
            Box::new(index_expr(rng, depth - 1)),
            Box::new(index_expr(rng, depth - 1)),
        ),
        2 => index_expr(rng, depth - 1).idiv(SExpr::Int(rng.range_i64(1, 6))),
        3 => index_expr(rng, depth - 1).imod(SExpr::Int(rng.range_i64(1, 6))),
        4 => SExpr::Int(rng.range_i64(-3, 4)).mul(index_expr(rng, depth - 1)),
        _ => SExpr::Un(UnOp::Neg, Box::new(index_expr(rng, depth - 1))),
    }
}

fn eval(e: &SExpr, j: i64, k: i64) -> i64 {
    match e {
        SExpr::Int(v) => *v,
        SExpr::Var(v) if v == "j" => j,
        SExpr::Var(v) if v == "k" => k,
        SExpr::Un(UnOp::Neg, a) => -eval(a, j, k),
        SExpr::Bin(op, a, b) => {
            let (l, r) = (eval(a, j, k), eval(b, j, k));
            match op {
                BinOp::Add => l + r,
                BinOp::Sub => l - r,
                BinOp::Mul => l * r,
                BinOp::FloorDiv => l.div_euclid(r),
                BinOp::Mod => l.rem_euclid(r),
                other => panic!("unexpected op {other:?}"),
            }
        }
        other => panic!("unexpected node {other:?}"),
    }
}

/// uncanon(canon(e)) preserves the value everywhere.
#[test]
fn canon_round_trip_preserves_value() {
    cases(256, "canon_round_trip_preserves_value", |rng| {
        let e = index_expr(rng, 3);
        let j = rng.range_i64(-10, 10);
        let k = rng.range_i64(-10, 10);
        if let Some(c) = canon(&e) {
            let back = uncanon(&c);
            assert_eq!(eval(&e, j, k), eval(&back, j, k));
        }
    });
}

/// canon_eq is sound: expressions it calls equal evaluate equal.
#[test]
fn canon_eq_is_sound() {
    cases(256, "canon_eq_is_sound", |rng| {
        let a = index_expr(rng, 3);
        let b = index_expr(rng, 3);
        let j = rng.range_i64(-10, 10);
        let k = rng.range_i64(-10, 10);
        if canon_eq(&a, &b) {
            assert_eq!(eval(&a, j, k), eval(&b, j, k));
        }
    });
}

/// shift_sexpr(e, j, d) evaluated at j equals e evaluated at j + d.
#[test]
fn shift_means_substitution() {
    cases(256, "shift_means_substitution", |rng| {
        let e = index_expr(rng, 3);
        let d = rng.range_i64(-4, 5);
        let j = rng.range_i64(-10, 10);
        let k = rng.range_i64(-10, 10);
        let shifted = shift_sexpr(&e, "j", d);
        assert_eq!(eval(&shifted, j, k), eval(&e, j + d, k));
    });
}

/// solve_shift really aligns the expressions it claims to align.
#[test]
fn solved_shifts_align() {
    cases(256, "solved_shifts_align", |rng| {
        let e = index_expr(rng, 3);
        let d = rng.range_i64(-4, 5);
        let j = rng.range_i64(-10, 10);
        let k = rng.range_i64(-10, 10);
        // Build b = e[j := j - d]; then solve_shift(canon e, canon b, j)
        // should recover d (or any d' that also aligns them).
        let b = shift_sexpr(&e, "j", -d);
        let (Some(ca), Some(cb)) = (canon(&e), canon(&b)) else {
            return;
        };
        if let Some(found) = solve_shift(&ca, &cb, "j") {
            let realigned = shift_sexpr(&b, "j", found);
            assert_eq!(
                eval(&realigned, j, k),
                eval(&e, j, k),
                "claimed shift {found} does not align"
            );
        }
    });
}
