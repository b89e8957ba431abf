//! Canonical forms and substitution for target expressions.
//!
//! The dependence solver and the optimization passes must decide
//! questions like *"is the column this block reads the column that
//! block writes, one outer iteration later?"*. They do it by
//! normalizing index expressions to a canonical tree whose leaves are
//! affine forms, comparing structurally, and solving for constant
//! shifts.
//!
//! A caution on [`solve_shift`]: a constant shift that aligns two
//! `div`/`mod` forms is *a* solution of the subscript equation, not
//! the only one (quotient equality admits whole residue blocks of
//! solutions), so it is **not** a dependence distance by itself. The
//! core solver therefore never treats it as exact; the jam pass may,
//! because it separately proves the residue guards agree under the
//! shift.

use pdc_lang::{BinOp, UnOp};
use pdc_mapping::Affine;
use pdc_spmd::ir::SExpr;

/// Canonicalized expression: affine leaves combined by `div`/`mod` (the
/// only non-affine operators the compiler emits in index positions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Canon {
    /// An affine combination of variables.
    Aff(Affine),
    /// `a div k`.
    Div(Box<Canon>, i64),
    /// `a mod k`.
    Mod(Box<Canon>, i64),
    /// `a + b` where at least one side is non-affine.
    Add(Box<Canon>, Box<Canon>),
    /// `k * a` where `a` is non-affine.
    Scale(i64, Box<Canon>),
}

/// Normalize an expression; `None` if it contains reads, communication,
/// or non-index arithmetic.
pub fn canon(e: &SExpr) -> Option<Canon> {
    match e {
        SExpr::Int(v) => Some(Canon::Aff(Affine::constant(*v))),
        SExpr::Var(v) => Some(Canon::Aff(Affine::var(v.clone()))),
        SExpr::Un(UnOp::Neg, a) => neg(canon(a)?),
        SExpr::Bin(op, a, b) => {
            let (ca, cb) = (canon(a)?, canon(b)?);
            match op {
                BinOp::Add => Some(add(ca, cb)),
                BinOp::Sub => Some(add(ca, neg(cb)?)),
                BinOp::Mul => match (ca, cb) {
                    (Canon::Aff(x), Canon::Aff(y)) => {
                        if let Some(k) = x.as_constant() {
                            Some(Canon::Aff(y.scale(k)))
                        } else {
                            y.as_constant().map(|k| Canon::Aff(x.scale(k)))
                        }
                    }
                    (Canon::Aff(x), other) | (other, Canon::Aff(x)) => {
                        x.as_constant().map(|k| scale(k, other))
                    }
                    _ => None,
                },
                BinOp::FloorDiv => match (cb, ca) {
                    (Canon::Aff(y), ca) => {
                        let k = y.as_constant()?;
                        if k <= 0 {
                            return None;
                        }
                        Some(Canon::Div(Box::new(ca), k))
                    }
                    _ => None,
                },
                BinOp::Mod => match (cb, ca) {
                    (Canon::Aff(y), ca) => {
                        let k = y.as_constant()?;
                        if k <= 0 {
                            return None;
                        }
                        Some(Canon::Mod(Box::new(ca), k))
                    }
                    _ => None,
                },
                _ => None,
            }
        }
        _ => None,
    }
}

fn neg(c: Canon) -> Option<Canon> {
    match c {
        Canon::Aff(a) => Some(Canon::Aff(a.scale(-1))),
        other => Some(scale(-1, other)),
    }
}

fn scale(k: i64, c: Canon) -> Canon {
    match c {
        Canon::Aff(a) => Canon::Aff(a.scale(k)),
        Canon::Scale(k2, inner) => Canon::Scale(k * k2, inner),
        other => Canon::Scale(k, Box::new(other)),
    }
}

fn add(a: Canon, b: Canon) -> Canon {
    match (a, b) {
        (Canon::Aff(x), Canon::Aff(y)) => Canon::Aff(x.add(&y)),
        // Keep affine accumulating on the left for canonical shape.
        (Canon::Add(l, r), y) => match (*l, y) {
            (Canon::Aff(x), Canon::Aff(y2)) => Canon::Add(Box::new(Canon::Aff(x.add(&y2))), r),
            (l2, y2) => Canon::Add(Box::new(Canon::Add(Box::new(l2), r)), Box::new(y2)),
        },
        (x, y) => Canon::Add(Box::new(x), Box::new(y)),
    }
}

/// Substitute `v := v + delta` throughout.
pub fn shift_var(c: &Canon, v: &str, delta: i64) -> Canon {
    match c {
        Canon::Aff(a) => Canon::Aff(a.substitute(v, &Affine::var(v).offset(delta))),
        Canon::Div(inner, k) => Canon::Div(Box::new(shift_var(inner, v, delta)), *k),
        Canon::Mod(inner, k) => Canon::Mod(Box::new(shift_var(inner, v, delta)), *k),
        Canon::Add(a, b) => Canon::Add(
            Box::new(shift_var(a, v, delta)),
            Box::new(shift_var(b, v, delta)),
        ),
        Canon::Scale(k, inner) => Canon::Scale(*k, Box::new(shift_var(inner, v, delta))),
    }
}

/// Solve `shift_var(b, v, delta) == a` for a constant `delta`; `None` if
/// no constant shift aligns them. Conservative: both trees must have the
/// same shape and the affine leaves must differ only in their constant
/// parts, consistently.
pub fn solve_shift(a: &Canon, b: &Canon, v: &str) -> Option<i64> {
    let mut delta: Option<i64> = None;
    fn walk(a: &Canon, b: &Canon, v: &str, delta: &mut Option<i64>) -> bool {
        match (a, b) {
            (Canon::Aff(x), Canon::Aff(y)) => {
                // Need y[v := v + d] == x. Coefficients must match.
                for var in x.vars().chain(y.vars()) {
                    if x.coeff(var) != y.coeff(var) {
                        return false;
                    }
                }
                let cv = y.coeff(v);
                let diff = x.constant_part() - y.constant_part();
                if cv == 0 {
                    return diff == 0;
                }
                if diff % cv != 0 {
                    return false;
                }
                let d = diff / cv;
                match delta {
                    None => {
                        *delta = Some(d);
                        true
                    }
                    Some(prev) => *prev == d,
                }
            }
            (Canon::Div(ia, ka), Canon::Div(ib, kb)) | (Canon::Mod(ia, ka), Canon::Mod(ib, kb)) => {
                ka == kb && walk(ia, ib, v, delta)
            }
            (Canon::Add(a1, a2), Canon::Add(b1, b2)) => {
                walk(a1, b1, v, delta) && walk(a2, b2, v, delta)
            }
            (Canon::Scale(ka, ia), Canon::Scale(kb, ib)) => ka == kb && walk(ia, ib, v, delta),
            _ => false,
        }
    }
    if walk(a, b, v, &mut delta) {
        delta.or(Some(0))
    } else {
        None
    }
}

/// Render a canonical form back to target IR.
pub fn uncanon(c: &Canon) -> SExpr {
    match c {
        Canon::Aff(a) => affine_to_sexpr(a),
        Canon::Div(inner, k) => uncanon(inner).idiv(SExpr::int(*k)),
        Canon::Mod(inner, k) => uncanon(inner).imod(SExpr::int(*k)),
        Canon::Add(a, b) => uncanon(a).add(uncanon(b)),
        Canon::Scale(k, inner) => SExpr::int(*k).mul(uncanon(inner)),
    }
}

fn affine_to_sexpr(a: &Affine) -> SExpr {
    let mut acc: Option<SExpr> = None;
    for v in a.vars().map(str::to_owned).collect::<Vec<_>>() {
        let c = a.coeff(&v);
        let term = if c == 1 {
            SExpr::var(v)
        } else {
            SExpr::int(c).mul(SExpr::var(v))
        };
        acc = Some(match acc {
            None => term,
            Some(e) => e.add(term),
        });
    }
    let c = a.constant_part();
    match acc {
        None => SExpr::int(c),
        Some(e) if c == 0 => e,
        Some(e) if c > 0 => e.add(SExpr::int(c)),
        Some(e) => e.sub(SExpr::int(-c)),
    }
}

/// Substitute `v := v + delta` in a target expression (via the canonical
/// form where possible; structurally otherwise).
pub fn shift_sexpr(e: &SExpr, v: &str, delta: i64) -> SExpr {
    if let Some(c) = canon(e) {
        return uncanon(&shift_var(&c, v, delta));
    }
    match e {
        SExpr::Var(w) if w == v => SExpr::var(v).add(SExpr::int(delta)),
        SExpr::Bin(op, a, b) => SExpr::Bin(
            *op,
            Box::new(shift_sexpr(a, v, delta)),
            Box::new(shift_sexpr(b, v, delta)),
        ),
        SExpr::Un(op, a) => SExpr::Un(*op, Box::new(shift_sexpr(a, v, delta))),
        SExpr::ARead { array, idx } => SExpr::ARead {
            array: array.clone(),
            idx: idx.iter().map(|i| shift_sexpr(i, v, delta)).collect(),
        },
        SExpr::AReadGlobal { array, idx } => SExpr::AReadGlobal {
            array: array.clone(),
            idx: idx.iter().map(|i| shift_sexpr(i, v, delta)).collect(),
        },
        SExpr::OwnerOf { array, idx } => SExpr::OwnerOf {
            array: array.clone(),
            idx: idx.iter().map(|i| shift_sexpr(i, v, delta)).collect(),
        },
        SExpr::LocalOf { array, idx, dim } => SExpr::LocalOf {
            array: array.clone(),
            idx: idx.iter().map(|i| shift_sexpr(i, v, delta)).collect(),
            dim: *dim,
        },
        SExpr::BufRead { buf, idx } => SExpr::BufRead {
            buf: buf.clone(),
            idx: Box::new(shift_sexpr(idx, v, delta)),
        },
        other => other.clone(),
    }
}

/// Structural equality modulo canonical form.
pub fn canon_eq(a: &SExpr, b: &SExpr) -> bool {
    match (canon(a), canon(b)) {
        (Some(ca), Some(cb)) => ca == cb,
        _ => a == b,
    }
}

/// Does the expression mention a variable?
pub fn mentions(e: &SExpr, v: &str) -> bool {
    match e {
        SExpr::Var(w) => w == v,
        SExpr::Int(_) | SExpr::Float(_) | SExpr::Bool(_) | SExpr::MyNode | SExpr::NProcs => false,
        SExpr::Bin(_, a, b) => mentions(a, v) || mentions(b, v),
        SExpr::Un(_, a) => mentions(a, v),
        SExpr::ARead { idx, .. }
        | SExpr::AReadGlobal { idx, .. }
        | SExpr::OwnerOf { idx, .. }
        | SExpr::LocalOf { idx, .. } => idx.iter().any(|e| mentions(e, v)),
        SExpr::BufRead { idx, .. } => mentions(idx, v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn j() -> SExpr {
        SExpr::var("j")
    }

    #[test]
    fn canon_folds_constants() {
        // (j + 1) - 2 == j - 1
        let a = j().add(SExpr::int(1)).sub(SExpr::int(2));
        let b = j().sub(SExpr::int(1));
        assert!(canon_eq(&a, &b));
    }

    #[test]
    fn canon_distinguishes_div_args() {
        let a = j().sub(SExpr::int(1)).idiv(SExpr::int(4));
        let b = j().sub(SExpr::int(2)).idiv(SExpr::int(4));
        assert!(!canon_eq(&a, &b));
    }

    #[test]
    fn solve_shift_finds_delta() {
        // a = 1 + (j-1) div 4 ; b = 1 + (j-2) div 4 : b[j := j+1] == a.
        let a = canon(&SExpr::int(1).add(j().sub(SExpr::int(1)).idiv(SExpr::int(4)))).unwrap();
        let b = canon(&SExpr::int(1).add(j().sub(SExpr::int(2)).idiv(SExpr::int(4)))).unwrap();
        assert_eq!(solve_shift(&a, &b, "j"), Some(1));
        // No shift aligns different divisors.
        let c = canon(&SExpr::int(1).add(j().sub(SExpr::int(2)).idiv(SExpr::int(8)))).unwrap();
        assert_eq!(solve_shift(&a, &c, "j"), None);
    }

    #[test]
    fn shift_sexpr_simplifies() {
        // ((j - 1) mod 4) with j := j+1 becomes (j mod 4).
        let e = j().sub(SExpr::int(1)).imod(SExpr::int(4));
        let shifted = shift_sexpr(&e, "j", 1);
        assert!(canon_eq(&shifted, &j().imod(SExpr::int(4))));
    }

    #[test]
    fn mentions_walks_reads() {
        let e = SExpr::ARead {
            array: "A".into(),
            idx: vec![SExpr::var("i"), j()],
        };
        assert!(mentions(&e, "i"));
        assert!(!mentions(&e, "k"));
    }

    #[test]
    fn solve_shift_requires_same_shape() {
        let a = canon(&j().idiv(SExpr::int(4))).unwrap();
        let b = canon(&j().imod(SExpr::int(4))).unwrap();
        assert_eq!(solve_shift(&a, &b, "j"), None);
    }

    #[test]
    fn uncanon_round_trips_value() {
        // Evaluate both the original and the canonical rendering at a
        // few points.
        let e = j()
            .sub(SExpr::int(1))
            .idiv(SExpr::int(4))
            .add(SExpr::int(1))
            .add(j().imod(SExpr::int(3)));
        let c = canon(&e).unwrap();
        let back = uncanon(&c);
        for jv in [1i64, 5, 9, 17] {
            assert_eq!(eval(&e, jv), eval(&back, jv), "at j = {jv}");
        }
    }

    fn eval(e: &SExpr, jv: i64) -> i64 {
        match e {
            SExpr::Int(v) => *v,
            SExpr::Var(v) if v == "j" => jv,
            SExpr::Bin(op, a, b) => {
                let (x, y) = (eval(a, jv), eval(b, jv));
                match op {
                    BinOp::Add => x + y,
                    BinOp::Sub => x - y,
                    BinOp::Mul => x * y,
                    BinOp::FloorDiv => x.div_euclid(y),
                    BinOp::Mod => x.rem_euclid(y),
                    _ => panic!("unexpected op"),
                }
            }
            SExpr::Un(UnOp::Neg, a) => -eval(a, jv),
            other => panic!("unexpected expr {other:?}"),
        }
    }
}
