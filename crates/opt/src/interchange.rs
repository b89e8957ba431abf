//! Loop interchange (§4, closing paragraph).
//!
//! *"If the sequential version of Gauss-Seidel had had the i and j-loops
//! reversed then generated code would not have shown any parallelism, so
//! loop interchange would be required."*
//!
//! This pass operates on the *source* AST, before process decomposition:
//! it swaps perfectly nested counted loops so the iteration order aligns
//! with the data distribution (outer loop over the distributed
//! dimension).
//!
//! Legality is decided by the dependence framework
//! ([`pdc_depend::ast::analyze_for`]): a pair may be swapped only when
//! the analysis is *exact* and every dependence's direction vector stays
//! lexicographically positive after exchanging its two components —
//! a `(<, >)` dependence (e.g. `a[i, j] = a[i+1, j-1]`) blocks the
//! swap, and the Missed remark names that witnessing dependence. Under
//! strict sequential evaluation an illegal swap would read an array cell
//! before it is written; under Id Nouveau's dataflow semantics it would
//! deadlock. Header independence (the inner bounds do not mention the
//! outer variable, and vice versa) is additionally required so the
//! bounds themselves can move.

use pdc_lang::ast::{Block, Expr, ExprKind, Program, Stmt};
use pdc_report::{Phase, Remark, RemarkKind, RemarkSink};

/// Swap every outermost perfectly nested loop pair whose headers are
/// independent and whose dependences permit the exchange. Returns the
/// transformed program and the number of pairs swapped, and emits one
/// Applied or Missed remark per perfectly nested loop pair considered.
/// This pass runs on the source AST, so its remarks carry source spans
/// directly.
pub fn interchange(program: &Program, sink: &mut RemarkSink) -> (Program, usize) {
    let mut count = 0;
    let mut out = program.clone();
    for proc in &mut out.procs {
        proc.body = interchange_block(std::mem::take(&mut proc.body), &mut count, sink);
    }
    (out, count)
}

fn expr_mentions(e: &Expr, v: &str) -> bool {
    match &e.kind {
        ExprKind::Var(w) => w == v,
        ExprKind::Int(_) | ExprKind::Float(_) | ExprKind::Bool(_) => false,
        ExprKind::ArrayRead { indices, .. } => indices.iter().any(|i| expr_mentions(i, v)),
        ExprKind::Binary { lhs, rhs, .. } => expr_mentions(lhs, v) || expr_mentions(rhs, v),
        ExprKind::Unary { operand, .. } => expr_mentions(operand, v),
        ExprKind::Call { args, .. } => args.iter().any(|a| expr_mentions(a, v)),
        ExprKind::Alloc { dims } => dims.iter().any(|d| expr_mentions(d, v)),
    }
}

fn interchange_block(block: Block, count: &mut usize, sink: &mut RemarkSink) -> Block {
    let stmts = block
        .stmts
        .into_iter()
        .map(|s| interchange_stmt(s, count, sink))
        .collect();
    Block { stmts }
}

fn interchange_stmt(s: Stmt, count: &mut usize, sink: &mut RemarkSink) -> Stmt {
    match s {
        Stmt::For {
            var: v1,
            lo: lo1,
            hi: hi1,
            step: st1,
            body: b1,
            span: sp1,
        } => {
            // Perfect nest with independent headers?
            if b1.stmts.len() == 1 {
                if let Stmt::For {
                    var: v2,
                    lo: lo2,
                    hi: hi2,
                    step: st2,
                    body: b2,
                    span: sp2,
                } = b1.stmts[0].clone()
                {
                    let inner_independent = !expr_mentions(&lo2, &v1)
                        && !expr_mentions(&hi2, &v1)
                        && st2.as_ref().is_none_or(|e| !expr_mentions(e, &v1))
                        && !expr_mentions(&lo1, &v2)
                        && !expr_mentions(&hi1, &v2)
                        && st1.as_ref().is_none_or(|e| !expr_mentions(e, &v2));
                    if inner_independent {
                        // Headers can move; now ask the dependence
                        // framework whether the iteration reorder is
                        // legal for the values computed.
                        let nest = Stmt::For {
                            var: v1.clone(),
                            lo: lo1.clone(),
                            hi: hi1.clone(),
                            step: st1.clone(),
                            body: b1.clone(),
                            span: sp1,
                        };
                        let info = pdc_depend::ast::analyze_for(&nest);
                        if !info.exact {
                            let why = info
                                .notes
                                .first()
                                .cloned()
                                .unwrap_or_else(|| "subscripts are not analyzable".into());
                            sink.emit(
                                Remark::new(
                                    Phase::Interchange,
                                    RemarkKind::Missed,
                                    format!(
                                        "interchange of `{v1}`/`{v2}` not proven legal: \
                                         dependence analysis inexact"
                                    ),
                                )
                                .with_span(sp1)
                                .detail("reason", why),
                            );
                        } else if let Err(dep) = info.interchange_legal(0, 1) {
                            sink.emit(
                                Remark::new(
                                    Phase::Interchange,
                                    RemarkKind::Missed,
                                    format!(
                                        "interchange of `{v1}`/`{v2}` is illegal: \
                                         a dependence would be reversed"
                                    ),
                                )
                                .with_span(sp1)
                                .detail("blocking", dep.describe()),
                            );
                        } else {
                            *count += 1;
                            let witness = if info.deps.is_empty() {
                                "the nest carries no dependence".to_string()
                            } else {
                                let dirs: Vec<String> =
                                    info.deps.iter().map(|d| d.describe()).collect();
                                format!(
                                    "all direction vectors stay lexicographically positive \
                                     after the swap: {}",
                                    dirs.join("; ")
                                )
                            };
                            sink.emit(
                                Remark::new(
                                    Phase::Interchange,
                                    RemarkKind::Applied,
                                    format!("interchanged perfectly nested loops `{v1}`/`{v2}`"),
                                )
                                .with_span(sp1)
                                .detail("witness", witness),
                            );
                            // Do not recurse into the swapped pair (that
                            // would swap it back); only transform the body.
                            let body = interchange_block(b2, count, sink);
                            return Stmt::For {
                                var: v2,
                                lo: lo2,
                                hi: hi2,
                                step: st2,
                                body: Block {
                                    stmts: vec![Stmt::For {
                                        var: v1,
                                        lo: lo1,
                                        hi: hi1,
                                        step: st1,
                                        body,
                                        span: sp1,
                                    }],
                                },
                                span: sp2,
                            };
                        }
                    } else {
                        sink.emit(
                            Remark::new(
                                Phase::Interchange,
                                RemarkKind::Missed,
                                format!("loop headers of `{v1}`/`{v2}` are interdependent"),
                            )
                            .with_span(sp1),
                        );
                    }
                }
            }
            Stmt::For {
                var: v1,
                lo: lo1,
                hi: hi1,
                step: st1,
                body: interchange_block(b1, count, sink),
                span: sp1,
            }
        }
        Stmt::If {
            cond,
            then_blk,
            else_blk,
            span,
        } => Stmt::If {
            cond,
            then_blk: interchange_block(then_blk, count, sink),
            else_blk: else_blk.map(|b| interchange_block(b, count, sink)),
            span,
        },
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_lang::interp::Interpreter;
    use pdc_lang::value::Value;
    use pdc_lang::{parse, pretty};

    #[test]
    fn swaps_perfect_nest() {
        let p = parse(
            "procedure f(n) {
                let a = matrix(n, n);
                for i = 2 to n do {
                    for j = 1 to n do { a[i, j] = i * 100 + j; }
                }
                return a[2, 1];
            }",
        )
        .unwrap();
        let (q, count) = interchange(&p, &mut RemarkSink::new());
        assert_eq!(count, 1);
        let printed = pretty::program(&q);
        let i_pos = printed.find("for j").unwrap();
        let j_pos = printed.find("for i").unwrap();
        assert!(i_pos < j_pos, "j loop should now be outermost:\n{printed}");
        // Same values either way.
        let a = Interpreter::new(&p).run("f", &[Value::Int(4)]).unwrap();
        let b = Interpreter::new(&q).run("f", &[Value::Int(4)]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn dependent_headers_are_left_alone() {
        let p = parse(
            "procedure f(n) {
                let a = matrix(n, n);
                for i = 1 to n do {
                    for j = i to n do { a[i, j] = 1; }
                }
                return a[1, 1];
            }",
        )
        .unwrap();
        let (_, count) = interchange(&p, &mut RemarkSink::new());
        assert_eq!(count, 0);
    }

    #[test]
    fn imperfect_nests_are_left_alone() {
        let p = parse(
            "procedure f(n) {
                let a = vector(n);
                for i = 1 to n do {
                    a[i] = i;
                    for j = 1 to 0 do { }
                }
                return a[1];
            }",
        )
        .unwrap();
        let (_, count) = interchange(&p, &mut RemarkSink::new());
        assert_eq!(count, 0);
    }

    #[test]
    fn carried_anti_dependence_blocks_interchange() {
        // The headers are independent, so the old syntactic test would
        // have swapped this nest — but a[i, j] = a[i+1, j-1] carries an
        // anti dependence with direction (<, >): after a swap the write
        // to a[i+1, j-1] would happen before the read of the original
        // value. The dependence gate must refuse and name the witness.
        let p = parse(
            "procedure f(a, n) {
                for i = 1 to n - 1 do {
                    for j = 2 to n do { a[i, j] = a[i + 1, j - 1] + 1; }
                }
                return a[1, 2];
            }",
        )
        .unwrap();
        let mut sink = RemarkSink::new();
        let (q, count) = interchange(&p, &mut sink);
        assert_eq!(count, 0);
        assert_eq!(pretty::program(&q), pretty::program(&p));
        let blocking = sink
            .remarks()
            .iter()
            .find_map(|r| {
                r.details
                    .iter()
                    .find(|(k, _)| k == "blocking")
                    .map(|(_, v)| v.clone())
            })
            .expect("a Missed remark carries the blocking dependence");
        assert!(
            blocking.contains("anti") && blocking.contains("(<,>)"),
            "witness should be the (<,>) anti dependence: {blocking}"
        );
    }

    #[test]
    fn refused_interchange_is_load_bearing_under_strict_evaluation() {
        // a[i, j] = a[i-1, j+1] carries a flow dependence (<, >). The
        // original order runs clean on the strict interpreter; the
        // manually swapped order reads cells not yet written. The pass
        // refusing the swap is therefore observable behaviour, not
        // conservatism.
        let src = |outer: &str, inner: &str| {
            format!(
                "procedure f(n) {{
                    let a = matrix(n, n);
                    for k = 1 to n do {{ a[1, k] = k; }}
                    for k = 2 to n do {{ a[k, n] = k * 7; }}
                    for {outer} do {{
                        for {inner} do {{ a[i, j] = a[i - 1, j + 1]; }}
                    }}
                    return a[n, 1];
                }}"
            )
        };
        let orig = parse(&src("i = 2 to n", "j = 1 to n - 1")).unwrap();
        let swapped = parse(&src("j = 1 to n - 1", "i = 2 to n")).unwrap();
        let (_, count) = interchange(&orig, &mut RemarkSink::new());
        assert_eq!(count, 0, "the (<,>) flow dependence must block the swap");
        assert!(Interpreter::new(&orig).run("f", &[Value::Int(6)]).is_ok());
        assert!(
            Interpreter::new(&swapped)
                .run("f", &[Value::Int(6)])
                .is_err(),
            "swapped order must read an unwritten cell"
        );
    }

    #[test]
    fn applied_interchange_carries_its_witness() {
        let p = parse(
            "procedure f(n) {
                let a = matrix(n, n);
                for i = 2 to n do {
                    for j = 1 to n do { a[i, j] = i * 100 + j; }
                }
                return a[2, 1];
            }",
        )
        .unwrap();
        let mut sink = RemarkSink::new();
        let (_, count) = interchange(&p, &mut sink);
        assert_eq!(count, 1);
        let applied = sink
            .remarks()
            .iter()
            .find(|r| r.kind == RemarkKind::Applied)
            .unwrap();
        assert!(
            applied.details.iter().any(|(k, _)| k == "witness"),
            "applied remark must carry the legality witness"
        );
    }

    #[test]
    fn reversed_gauss_seidel_becomes_normal_order() {
        let (fixed, count) = interchange(
            &pdc_core::programs::gauss_seidel_interchanged(),
            &mut RemarkSink::new(),
        );
        assert_eq!(count, 1);
        // Semantically identical to the original (both strict orders are
        // valid for this kernel).
        let inputs = |n: usize| {
            let m = Value::new_matrix(n, n);
            if let Value::Matrix(h) = &m {
                let mut h = h.borrow_mut();
                for i in 1..=n as i64 {
                    for j in 1..=n as i64 {
                        h.write(i, j, Value::Int(i + j)).unwrap();
                    }
                }
            }
            m
        };
        let a = Interpreter::new(&fixed)
            .run("gs_iteration", &[inputs(6), Value::Int(6)])
            .unwrap();
        let b = Interpreter::new(&pdc_core::programs::gauss_seidel())
            .run("gs_iteration", &[inputs(6), Value::Int(6)])
            .unwrap();
        assert_eq!(a, b);
    }
}
