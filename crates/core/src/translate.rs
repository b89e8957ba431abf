//! Bridges between the source AST, the mapping algebra, and the target IR:
//! affine subscript extraction (§3.2's "subscript analysis"), operand
//! collection for the coerce machinery, and expression translation.

use crate::CoreError;
use pdc_lang::ast::{BinOp, Expr, ExprKind, UnOp};
use pdc_mapping::{Affine, LocalIndex, OwnerExpr};
use pdc_spmd::ir::SExpr;

/// Extract the affine form of a subscript expression, if it has one
/// (variables may be loop variables or run-time scalars; constants fold).
/// `None` means the subscript is not affine and the statement must fall
/// back to run-time resolution.
pub fn extract_affine(e: &Expr) -> Option<Affine> {
    match &e.kind {
        ExprKind::Int(v) => Some(Affine::constant(*v)),
        ExprKind::Var(v) => Some(Affine::var(v.clone())),
        ExprKind::Unary {
            op: UnOp::Neg,
            operand,
        } => extract_affine(operand).map(|a| a.scale(-1)),
        ExprKind::Binary { op, lhs, rhs } => {
            let l = extract_affine(lhs);
            let r = extract_affine(rhs);
            match op {
                BinOp::Add => Some(l?.add(&r?)),
                BinOp::Sub => Some(l?.sub(&r?)),
                BinOp::Mul => {
                    let (a, b) = (l?, r?);
                    if let Some(k) = a.as_constant() {
                        Some(b.scale(k))
                    } else {
                        b.as_constant().map(|k| a.scale(k))
                    }
                }
                _ => None,
            }
        }
        _ => None,
    }
}

/// Render an affine expression as target arithmetic.
pub fn affine_to_sexpr(a: &Affine) -> SExpr {
    let mut acc: Option<SExpr> = None;
    for v in a.vars().map(str::to_owned).collect::<Vec<_>>() {
        let c = a.coeff(&v);
        let term = if c == 1 {
            SExpr::var(v)
        } else if c == -1 {
            SExpr::Un(UnOp::Neg, Box::new(SExpr::var(v)))
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

/// Render a symbolic owner as target arithmetic producing the owner's
/// processor id. Replicated owners become `mynode()` (a replicated datum
/// is always locally available, mirroring the VM's `OwnerOf`).
pub fn owner_to_sexpr(o: &OwnerExpr) -> SExpr {
    match o {
        OwnerExpr::Const(p) => SExpr::int(*p as i64),
        OwnerExpr::All => SExpr::my_node(),
        OwnerExpr::CyclicMod { expr, s } => affine_to_sexpr(expr).imod(SExpr::int(*s as i64)),
        OwnerExpr::BlockDiv {
            expr,
            block,
            nprocs,
        } => affine_to_sexpr(expr)
            .idiv(SExpr::int(*block as i64))
            .min(SExpr::int(*nprocs as i64 - 1)),
        OwnerExpr::BlockCyclicMod { expr, block, s } => affine_to_sexpr(expr)
            .idiv(SExpr::int(*block as i64))
            .imod(SExpr::int(*s as i64)),
        OwnerExpr::Grid { row, col, pcols } => owner_to_sexpr(row)
            .mul(SExpr::int(*pcols as i64))
            .add(owner_to_sexpr(col)),
    }
}

/// Render a Local-function component as target arithmetic.
pub fn local_index_to_sexpr(li: &LocalIndex) -> SExpr {
    use pdc_mapping::LocalTerm;
    let mut e = affine_to_sexpr(&li.base);
    for t in &li.terms {
        let term = match t {
            LocalTerm::Div { num, den, scale } => {
                let d = affine_to_sexpr(num).idiv(SExpr::int(*den));
                if *scale == 1 {
                    d
                } else {
                    SExpr::int(*scale).mul(d)
                }
            }
            LocalTerm::Mod { num, den, scale } => {
                let m = affine_to_sexpr(num).imod(SExpr::int(*den));
                if *scale == 1 {
                    m
                } else {
                    SExpr::int(*scale).mul(m)
                }
            }
        };
        e = e.add(term);
    }
    e
}

/// An operand of a statement's right-hand side that may need coercion:
/// either an I-structure read or a read of a processor-mapped scalar.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// `B[i…]`.
    ArrayRead {
        /// Array name.
        array: String,
        /// Source subscripts.
        indices: Vec<Expr>,
    },
    /// A scalar variable with a `One(p)` mapping.
    ScalarVar {
        /// Variable name.
        name: String,
    },
}

/// Collect the coercible operands of an expression in a fixed left-to-
/// right walk order. `is_mapped_scalar` decides which plain variables
/// count as operands (those mapped to a single processor).
pub fn collect_operands(e: &Expr, is_mapped_scalar: &dyn Fn(&str) -> bool) -> Vec<Operand> {
    let mut out = Vec::new();
    walk(e, is_mapped_scalar, &mut out);
    out
}

fn walk(e: &Expr, is_mapped: &dyn Fn(&str) -> bool, out: &mut Vec<Operand>) {
    match &e.kind {
        ExprKind::ArrayRead { array, indices } => {
            out.push(Operand::ArrayRead {
                array: array.clone(),
                indices: indices.clone(),
            });
        }
        ExprKind::Var(v) => {
            if is_mapped(v) {
                out.push(Operand::ScalarVar { name: v.clone() });
            }
        }
        ExprKind::Binary { lhs, rhs, .. } => {
            walk(lhs, is_mapped, out);
            walk(rhs, is_mapped, out);
        }
        ExprKind::Unary { operand, .. } => walk(operand, is_mapped, out),
        ExprKind::Alloc { dims } => {
            for d in dims {
                walk(d, is_mapped, out);
            }
        }
        ExprKind::Call { args, .. } => {
            for a in args {
                walk(a, is_mapped, out);
            }
        }
        ExprKind::Int(_) | ExprKind::Float(_) | ExprKind::Bool(_) => {}
    }
}

/// Translate an expression to target IR, replacing each operand (in the
/// same walk order as [`collect_operands`]) with the provided expression
/// (usually a coercion temporary).
///
/// # Errors
///
/// [`CoreError::Unsupported`] for calls or allocations in value position.
pub fn translate_with_operands(
    e: &Expr,
    is_mapped_scalar: &dyn Fn(&str) -> bool,
    replacements: &mut std::vec::IntoIter<SExpr>,
) -> Result<SExpr, CoreError> {
    match &e.kind {
        ExprKind::Int(v) => Ok(SExpr::Int(*v)),
        ExprKind::Float(v) => Ok(SExpr::Float(*v)),
        ExprKind::Bool(v) => Ok(SExpr::Bool(*v)),
        ExprKind::Var(v) => {
            if is_mapped_scalar(v) {
                replacements.next().ok_or_else(|| CoreError::Unsupported {
                    message: "operand replacement underflow".into(),
                    span: e.span,
                })
            } else {
                Ok(SExpr::var(v.clone()))
            }
        }
        ExprKind::ArrayRead { .. } => replacements.next().ok_or_else(|| CoreError::Unsupported {
            message: "operand replacement underflow".into(),
            span: e.span,
        }),
        ExprKind::Binary { op, lhs, rhs } => Ok(SExpr::Bin(
            *op,
            Box::new(translate_with_operands(
                lhs,
                is_mapped_scalar,
                replacements,
            )?),
            Box::new(translate_with_operands(
                rhs,
                is_mapped_scalar,
                replacements,
            )?),
        )),
        ExprKind::Unary { op, operand } => Ok(SExpr::Un(
            *op,
            Box::new(translate_with_operands(
                operand,
                is_mapped_scalar,
                replacements,
            )?),
        )),
        ExprKind::Call { name, .. } => Err(CoreError::Unsupported {
            message: format!("call to `{name}` survived inlining"),
            span: e.span,
        }),
        ExprKind::Alloc { .. } => Err(CoreError::Unsupported {
            message: "array allocation in value position".into(),
            span: e.span,
        }),
    }
}

/// Translate a *simple* expression: scalars, loop variables, literals,
/// arithmetic — no array reads, no mapped scalars, no calls. Used for
/// loop bounds and subscript arithmetic, which every participant
/// evaluates locally.
///
/// # Errors
///
/// [`CoreError::Unsupported`] if the expression reads arrays or calls.
pub fn translate_simple(e: &Expr) -> Result<SExpr, CoreError> {
    translate_with_operands(e, &|_| false, &mut Vec::new().into_iter()).map_err(|err| match err {
        CoreError::Unsupported { span, .. } => CoreError::Unsupported {
            message: "expression must be computable by every participant \
                          (no array reads here)"
                .into(),
            span,
        },
        other => other,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_lang::parse;
    use pdc_spmd::ir::expr_to_string;

    fn first_expr(src: &str) -> Expr {
        // Parse `procedure f(...) { return <expr>; }` and dig it out.
        let p = parse(src).unwrap();
        match &p.procs[0].body.stmts[0] {
            pdc_lang::ast::Stmt::Return { value, .. } => value.clone(),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn affine_extraction_handles_paper_subscripts() {
        let e = first_expr("procedure f(i, j) { return j + 1; }");
        let a = extract_affine(&e).unwrap();
        assert_eq!(a.coeff("j"), 1);
        assert_eq!(a.constant_part(), 1);

        let e = first_expr("procedure f(i, j) { return 2 * i - j; }");
        let a = extract_affine(&e).unwrap();
        assert_eq!(a.coeff("i"), 2);
        assert_eq!(a.coeff("j"), -1);
    }

    #[test]
    fn non_affine_subscripts_are_rejected() {
        let e = first_expr("procedure f(i, j) { return i * j; }");
        assert!(extract_affine(&e).is_none());
        let e = first_expr("procedure f(i, j) { return i mod 2; }");
        assert!(extract_affine(&e).is_none());
    }

    #[test]
    fn affine_to_sexpr_round_trip_rendering() {
        let a = Affine::var("j").offset(1);
        assert_eq!(expr_to_string(&affine_to_sexpr(&a)), "(j + 1)");
        let z = Affine::constant(-3);
        assert_eq!(expr_to_string(&affine_to_sexpr(&z)), "-3");
    }

    #[test]
    fn owner_to_sexpr_renders_cyclic() {
        let o = OwnerExpr::CyclicMod {
            expr: Affine::var("j").offset(-1),
            s: 8,
        };
        assert_eq!(expr_to_string(&owner_to_sexpr(&o)), "((j - 1) mod 8)");
    }

    #[test]
    fn collect_and_replace_operands() {
        let e = first_expr("procedure f(i, j, A, c) { return A[i, j] + c * A[i + 1, j]; }");
        let is_mapped = |v: &str| v == "c";
        let ops = collect_operands(&e, &is_mapped);
        assert_eq!(ops.len(), 3); // A[i,j], c, A[i+1,j]
        assert!(matches!(&ops[0], Operand::ArrayRead { array, .. } if array == "A"));
        assert!(matches!(&ops[1], Operand::ScalarVar { name } if name == "c"));
        let reps = vec![SExpr::var("t0"), SExpr::var("t1"), SExpr::var("t2")];
        let out = translate_with_operands(&e, &is_mapped, &mut reps.into_iter()).unwrap();
        assert_eq!(expr_to_string(&out), "(t0 + (t1 * t2))");
    }

    #[test]
    fn translate_simple_rejects_array_reads() {
        let e = first_expr("procedure f(A, i) { return A[i]; }");
        assert!(translate_simple(&e).is_err());
        let e = first_expr("procedure f(i) { return i * 2 + 1; }");
        assert_eq!(
            expr_to_string(&translate_simple(&e).unwrap()),
            "((i * 2) + 1)"
        );
    }
}
