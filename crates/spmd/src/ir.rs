//! The tree-structured SPMD intermediate representation.
//!
//! One [`SpmdProgram`] holds one statement list per processor (the paper's
//! compile-time resolution specializes code per processor; run-time
//! resolution gives every processor the same list). Unlike the source
//! language, the target is imperative: locals are mutable, buffers are
//! ordinary arrays, and communication is explicit.

use pdc_lang::{BinOp, UnOp};
use pdc_mapping::Dist;
use std::fmt;

/// Target expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum SExpr {
    /// Integer constant.
    Int(i64),
    /// Float constant.
    Float(f64),
    /// Boolean constant.
    Bool(bool),
    /// Local variable.
    Var(String),
    /// Binary operation.
    Bin(BinOp, Box<SExpr>, Box<SExpr>),
    /// Unary operation.
    Un(UnOp, Box<SExpr>),
    /// `mynode()` — the executing processor's id.
    MyNode,
    /// Number of processors.
    NProcs,
    /// `is_read` with **local** indices into this processor's segment.
    ARead {
        /// Array name.
        array: String,
        /// Local indices (1-based).
        idx: Vec<SExpr>,
    },
    /// `is_read` with **global** indices: the VM applies the array's Local
    /// function at run time. Run-time resolution emits these.
    AReadGlobal {
        /// Array name.
        array: String,
        /// Global indices (1-based).
        idx: Vec<SExpr>,
    },
    /// The Map function: owner processor of a global element.
    OwnerOf {
        /// Array name.
        array: String,
        /// Global indices (1-based).
        idx: Vec<SExpr>,
    },
    /// One component of the Local function applied to global indices
    /// (`dim` 0 = row, 1 = column).
    LocalOf {
        /// Array name.
        array: String,
        /// Global indices (1-based).
        idx: Vec<SExpr>,
        /// Which local coordinate to produce.
        dim: usize,
    },
    /// Read from a plain (non-I-structure) local buffer.
    BufRead {
        /// Buffer name.
        buf: String,
        /// Zero-based index.
        idx: Box<SExpr>,
    },
}

#[allow(clippy::should_implement_trait)]
impl SExpr {
    /// Integer literal.
    pub fn int(v: i64) -> SExpr {
        SExpr::Int(v)
    }

    /// Variable reference.
    pub fn var(name: impl Into<String>) -> SExpr {
        SExpr::Var(name.into())
    }

    /// `mynode()`.
    pub fn my_node() -> SExpr {
        SExpr::MyNode
    }

    /// `self + rhs`.
    pub fn add(self, rhs: SExpr) -> SExpr {
        SExpr::Bin(BinOp::Add, Box::new(self), Box::new(rhs))
    }

    /// `self - rhs`.
    pub fn sub(self, rhs: SExpr) -> SExpr {
        SExpr::Bin(BinOp::Sub, Box::new(self), Box::new(rhs))
    }

    /// `self * rhs`.
    pub fn mul(self, rhs: SExpr) -> SExpr {
        SExpr::Bin(BinOp::Mul, Box::new(self), Box::new(rhs))
    }

    /// `self mod rhs`.
    pub fn imod(self, rhs: SExpr) -> SExpr {
        SExpr::Bin(BinOp::Mod, Box::new(self), Box::new(rhs))
    }

    /// `self div rhs`.
    pub fn idiv(self, rhs: SExpr) -> SExpr {
        SExpr::Bin(BinOp::FloorDiv, Box::new(self), Box::new(rhs))
    }

    /// `self == rhs`.
    pub fn eq(self, rhs: SExpr) -> SExpr {
        SExpr::Bin(BinOp::Eq, Box::new(self), Box::new(rhs))
    }

    /// `self != rhs`.
    pub fn ne(self, rhs: SExpr) -> SExpr {
        SExpr::Bin(BinOp::Ne, Box::new(self), Box::new(rhs))
    }

    /// `self <= rhs`.
    pub fn le(self, rhs: SExpr) -> SExpr {
        SExpr::Bin(BinOp::Le, Box::new(self), Box::new(rhs))
    }

    /// `self < rhs`.
    pub fn lt(self, rhs: SExpr) -> SExpr {
        SExpr::Bin(BinOp::Lt, Box::new(self), Box::new(rhs))
    }

    /// `self >= rhs`.
    pub fn ge(self, rhs: SExpr) -> SExpr {
        SExpr::Bin(BinOp::Ge, Box::new(self), Box::new(rhs))
    }

    /// `self > rhs`.
    pub fn gt(self, rhs: SExpr) -> SExpr {
        SExpr::Bin(BinOp::Gt, Box::new(self), Box::new(rhs))
    }

    /// `self or rhs`.
    pub fn or(self, rhs: SExpr) -> SExpr {
        SExpr::Bin(BinOp::Or, Box::new(self), Box::new(rhs))
    }

    /// `min(self, rhs)`.
    pub fn min(self, rhs: SExpr) -> SExpr {
        SExpr::Bin(BinOp::Min, Box::new(self), Box::new(rhs))
    }

    /// `self and rhs`.
    pub fn and(self, rhs: SExpr) -> SExpr {
        SExpr::Bin(BinOp::And, Box::new(self), Box::new(rhs))
    }
}

/// Where a received value lands.
#[derive(Debug, Clone, PartialEq)]
pub enum RecvTarget {
    /// A local variable.
    Var(String),
    /// A slot of a plain buffer (zero-based index).
    Buf {
        /// Buffer name.
        buf: String,
        /// Zero-based index expression.
        idx: SExpr,
    },
}

/// Target statements.
#[derive(Debug, Clone, PartialEq)]
pub enum SStmt {
    /// Assign a local variable (created on first assignment; mutable —
    /// the target language is imperative like the appendix C code).
    Let {
        /// Variable name.
        var: String,
        /// Value.
        value: SExpr,
    },
    /// Allocate the local segment of a distributed I-structure with the
    /// given **global** extents. Every processor executes this (the
    /// paper's `column_alloc`).
    AllocDist {
        /// Array name (global; used for gather and owner queries).
        array: String,
        /// Global rows.
        rows: SExpr,
        /// Global cols.
        cols: SExpr,
        /// Distribution across the machine.
        dist: Dist,
    },
    /// Allocate a plain local buffer of the given length (the appendix's
    /// `calloc`). Contents start as `Int(0)` and may be overwritten freely.
    AllocBuf {
        /// Buffer name.
        buf: String,
        /// Length.
        len: SExpr,
    },
    /// `is_write` with **local** indices.
    AWrite {
        /// Array name.
        array: String,
        /// Local indices (1-based).
        idx: Vec<SExpr>,
        /// Value to define.
        value: SExpr,
    },
    /// `is_write` with **global** indices (run-time resolution).
    AWriteGlobal {
        /// Array name.
        array: String,
        /// Global indices (1-based).
        idx: Vec<SExpr>,
        /// Value to define.
        value: SExpr,
    },
    /// Store into a plain buffer.
    BufWrite {
        /// Buffer name.
        buf: String,
        /// Zero-based index.
        idx: SExpr,
        /// Value.
        value: SExpr,
    },
    /// Asynchronous typed send of scalar values (`csend`).
    Send {
        /// Destination processor.
        to: SExpr,
        /// Message tag.
        tag: u32,
        /// Values (evaluated left to right).
        values: Vec<SExpr>,
    },
    /// Blocking typed receive (`crecv`).
    Recv {
        /// Source processor.
        from: SExpr,
        /// Message tag.
        tag: u32,
        /// Destinations, one per value in the message.
        into: Vec<RecvTarget>,
    },
    /// Send a contiguous slice `buf[lo..=hi]` as one message (the
    /// vectorized send of Appendix A.2).
    SendBuf {
        /// Destination processor.
        to: SExpr,
        /// Message tag.
        tag: u32,
        /// Buffer name.
        buf: String,
        /// First index (zero-based, inclusive).
        lo: SExpr,
        /// Last index (zero-based, inclusive).
        hi: SExpr,
    },
    /// Receive one message into `buf[lo..]`; the message length must equal
    /// `hi - lo + 1`.
    RecvBuf {
        /// Source processor.
        from: SExpr,
        /// Message tag.
        tag: u32,
        /// Buffer name.
        buf: String,
        /// First index (zero-based, inclusive).
        lo: SExpr,
        /// Last index (zero-based, inclusive).
        hi: SExpr,
    },
    /// Counted loop, inclusive bounds.
    For {
        /// Loop variable.
        var: String,
        /// Lower bound.
        lo: SExpr,
        /// Upper bound (inclusive).
        hi: SExpr,
        /// Step (must evaluate non-zero).
        step: SExpr,
        /// Body.
        body: Vec<SStmt>,
    },
    /// Conditional.
    If {
        /// Condition.
        cond: SExpr,
        /// Then branch.
        then: Vec<SStmt>,
        /// Else branch.
        els: Vec<SStmt>,
    },
    /// No-op annotation preserved by lowering (for readable codegen).
    Comment(String),
}

/// A complete SPMD program: one statement list per processor.
#[derive(Debug, Clone, PartialEq)]
pub struct SpmdProgram {
    per_proc: Vec<Vec<SStmt>>,
}

impl SpmdProgram {
    /// A program with per-processor bodies.
    ///
    /// # Panics
    ///
    /// Panics if `per_proc` is empty.
    pub fn new(per_proc: Vec<Vec<SStmt>>) -> Self {
        assert!(!per_proc.is_empty(), "need at least one processor");
        SpmdProgram { per_proc }
    }

    /// The same body on every one of `n` processors (classic SPMD; the
    /// body dispatches on [`SExpr::MyNode`]).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn uniform(n: usize, body: Vec<SStmt>) -> Self {
        assert!(n > 0, "need at least one processor");
        SpmdProgram {
            per_proc: vec![body; n],
        }
    }

    /// Number of processors.
    pub fn n_procs(&self) -> usize {
        self.per_proc.len()
    }

    /// The body for processor `p`.
    pub fn body(&self, p: usize) -> &[SStmt] {
        &self.per_proc[p]
    }

    /// Mutable access for optimization passes.
    pub fn body_mut(&mut self, p: usize) -> &mut Vec<SStmt> {
        &mut self.per_proc[p]
    }

    /// Iterate over all bodies.
    pub fn bodies(&self) -> impl Iterator<Item = &Vec<SStmt>> {
        self.per_proc.iter()
    }

    /// Mutable iteration for optimization passes applied uniformly.
    pub fn bodies_mut(&mut self) -> impl Iterator<Item = &mut Vec<SStmt>> {
        self.per_proc.iter_mut()
    }

    /// Total statement count (all processors, nested included) — a rough
    /// code-size metric used in tests and reports.
    pub fn stmt_count(&self) -> usize {
        fn count(body: &[SStmt]) -> usize {
            body.iter()
                .map(|s| match s {
                    SStmt::For { body, .. } => 1 + count(body),
                    SStmt::If { then, els, .. } => 1 + count(then) + count(els),
                    _ => 1,
                })
                .sum()
        }
        self.per_proc.iter().map(|b| count(b)).sum()
    }
}

mod pretty {
    use super::*;
    use std::fmt::Write as _;

    pub(super) fn expr(e: &SExpr) -> String {
        match e {
            SExpr::Int(v) => v.to_string(),
            SExpr::Float(v) => format!("{v:?}"),
            SExpr::Bool(v) => v.to_string(),
            SExpr::Var(n) => n.clone(),
            SExpr::Bin(op, a, b) => match op {
                BinOp::Min | BinOp::Max => format!("{op}({}, {})", expr(a), expr(b)),
                _ => format!("({} {op} {})", expr(a), expr(b)),
            },
            SExpr::Un(UnOp::Neg, a) => format!("(-{})", expr(a)),
            SExpr::Un(UnOp::Not, a) => format!("(not {})", expr(a)),
            SExpr::MyNode => "mynode()".into(),
            SExpr::NProcs => "nprocs()".into(),
            SExpr::ARead { array, idx } => format!("is_read({array}, [{}])", idx_list(idx)),
            SExpr::AReadGlobal { array, idx } => {
                format!("is_read_global({array}, [{}])", idx_list(idx))
            }
            SExpr::OwnerOf { array, idx } => format!("owner({array}, [{}])", idx_list(idx)),
            SExpr::LocalOf { array, idx, dim } => {
                format!("local{dim}({array}, [{}])", idx_list(idx))
            }
            SExpr::BufRead { buf, idx } => format!("{buf}[{}]", expr(idx)),
        }
    }

    fn idx_list(idx: &[SExpr]) -> String {
        idx.iter().map(expr).collect::<Vec<_>>().join(", ")
    }

    pub(super) fn stmts(out: &mut String, body: &[SStmt], level: usize) {
        for s in body {
            stmt(out, s, level);
        }
    }

    fn indent(out: &mut String, level: usize) {
        for _ in 0..level {
            out.push_str("  ");
        }
    }

    fn stmt(out: &mut String, s: &SStmt, level: usize) {
        indent(out, level);
        match s {
            SStmt::Let { var, value } => {
                let _ = writeln!(out, "{var} = {};", expr(value));
            }
            SStmt::AllocDist {
                array,
                rows,
                cols,
                dist,
            } => {
                let _ = writeln!(
                    out,
                    "{array} = dist_alloc({}, {}) /* {dist} */;",
                    expr(rows),
                    expr(cols)
                );
            }
            SStmt::AllocBuf { buf, len } => {
                let _ = writeln!(out, "{buf} = calloc({});", expr(len));
            }
            SStmt::AWrite { array, idx, value } => {
                let _ = writeln!(
                    out,
                    "is_write({array}, [{}], {});",
                    idx_list(idx),
                    expr(value)
                );
            }
            SStmt::AWriteGlobal { array, idx, value } => {
                let _ = writeln!(
                    out,
                    "is_write_global({array}, [{}], {});",
                    idx_list(idx),
                    expr(value)
                );
            }
            SStmt::BufWrite { buf, idx, value } => {
                let _ = writeln!(out, "{buf}[{}] = {};", expr(idx), expr(value));
            }
            SStmt::Send { to, tag, values } => {
                let vals: Vec<_> = values.iter().map(expr).collect();
                let _ = writeln!(out, "csend(t{tag}, [{}], {});", vals.join(", "), expr(to));
            }
            SStmt::Recv { from, tag, into } => {
                let tgts: Vec<_> = into
                    .iter()
                    .map(|t| match t {
                        RecvTarget::Var(v) => v.clone(),
                        RecvTarget::Buf { buf, idx } => format!("{buf}[{}]", expr(idx)),
                    })
                    .collect();
                let _ = writeln!(
                    out,
                    "[{}] = crecv(t{tag}, {});",
                    tgts.join(", "),
                    expr(from)
                );
            }
            SStmt::SendBuf {
                to,
                tag,
                buf,
                lo,
                hi,
            } => {
                let _ = writeln!(
                    out,
                    "csend(t{tag}, {buf}[{}..{}], {});",
                    expr(lo),
                    expr(hi),
                    expr(to)
                );
            }
            SStmt::RecvBuf {
                from,
                tag,
                buf,
                lo,
                hi,
            } => {
                let _ = writeln!(
                    out,
                    "{buf}[{}..{}] = crecv(t{tag}, {});",
                    expr(lo),
                    expr(hi),
                    expr(from)
                );
            }
            SStmt::For {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                let _ = writeln!(
                    out,
                    "for ({var} = {}; {var} <= {}; {var} += {}) {{",
                    expr(lo),
                    expr(hi),
                    expr(step)
                );
                stmts(out, body, level + 1);
                indent(out, level);
                out.push_str("}\n");
            }
            SStmt::If { cond, then, els } => {
                let _ = writeln!(out, "if ({}) {{", expr(cond));
                stmts(out, then, level + 1);
                if !els.is_empty() {
                    indent(out, level);
                    out.push_str("} else {\n");
                    stmts(out, els, level + 1);
                }
                indent(out, level);
                out.push_str("}\n");
            }
            SStmt::Comment(c) => {
                let _ = writeln!(out, "/* {c} */");
            }
        }
    }
}

impl fmt::Display for SpmdProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Identical bodies collapse to one listing.
        let uniform = self.per_proc.windows(2).all(|w| w[0] == w[1]);
        if uniform {
            let mut out = String::new();
            pretty::stmts(&mut out, &self.per_proc[0], 1);
            writeln!(f, "all {} processors:", self.per_proc.len())?;
            write!(f, "{out}")
        } else {
            for (p, body) in self.per_proc.iter().enumerate() {
                let mut out = String::new();
                pretty::stmts(&mut out, body, 1);
                writeln!(f, "P{p}:")?;
                write!(f, "{out}")?;
            }
            Ok(())
        }
    }
}

/// Render a single expression (used by tests and debug output).
pub fn expr_to_string(e: &SExpr) -> String {
    pretty::expr(e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_helpers_compose() {
        let e = SExpr::var("j").add(SExpr::int(1)).imod(SExpr::NProcs);
        assert_eq!(expr_to_string(&e), "((j + 1) mod nprocs())");
    }

    #[test]
    fn uniform_program_display_collapses() {
        let p = SpmdProgram::uniform(
            3,
            vec![SStmt::Let {
                var: "x".into(),
                value: SExpr::int(1),
            }],
        );
        let s = p.to_string();
        assert!(s.contains("all 3 processors"));
        assert!(s.contains("x = 1;"));
    }

    #[test]
    fn per_proc_display_lists_each() {
        let p = SpmdProgram::new(vec![
            vec![SStmt::Comment("left".into())],
            vec![SStmt::Comment("right".into())],
        ]);
        let s = p.to_string();
        assert!(s.contains("P0:"));
        assert!(s.contains("P1:"));
        assert!(s.contains("/* left */"));
    }

    #[test]
    fn stmt_count_recurses() {
        let p = SpmdProgram::uniform(
            2,
            vec![SStmt::For {
                var: "i".into(),
                lo: SExpr::int(1),
                hi: SExpr::int(3),
                step: SExpr::int(1),
                body: vec![
                    SStmt::Comment("a".into()),
                    SStmt::If {
                        cond: SExpr::Bool(true),
                        then: vec![SStmt::Comment("b".into())],
                        els: vec![],
                    },
                ],
            }],
        );
        // per proc: for(1) + comment(1) + if(1) + comment(1) = 4; ×2 procs.
        assert_eq!(p.stmt_count(), 8);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn empty_program_rejected() {
        let _ = SpmdProgram::new(vec![]);
    }
}
