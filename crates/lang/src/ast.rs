//! Abstract syntax trees.
//!
//! The compiler (`pdc-core`) works directly on these trees: the paper's
//! §3.2 annotates "conventional abstract syntax trees" with *evaluators*
//! and *participants* attributes keyed by node; we key those side tables by
//! [`Span`], which uniquely identifies a node within one source file.

use crate::scalar::{binop, unop, Scalar};
use crate::span::Span;
use std::fmt;

/// A whole source file: optional mapping declarations plus procedures.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Domain-decomposition declarations from `map { … }` headers.
    pub map_decls: Vec<MapDecl>,
    /// Procedure definitions in source order.
    pub procs: Vec<Proc>,
}

impl Program {
    /// Look up a procedure by name.
    pub fn proc(&self, name: &str) -> Option<&Proc> {
        self.procs.iter().find(|p| p.name == name)
    }
}

/// A source-level mapping declaration: one line of a `map { … }` block,
/// e.g. `New : column_cyclic;` — the italicized decomposition of Figure 1.
#[derive(Debug, Clone, PartialEq)]
pub struct MapDecl {
    /// Variable or array being mapped.
    pub name: String,
    /// The distribution it is given.
    pub spec: DistSpec,
    /// Source location.
    pub span: Span,
}

/// Source-level distribution specifications. `pdc-core` lowers these to
/// `pdc_mapping::Dist` / scalar maps once the machine size is known.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistSpec {
    /// `all` — replicated scalar or array.
    All,
    /// `proc(k)` — pinned to processor `k`.
    Proc(usize),
    /// `column_cyclic`
    ColumnCyclic,
    /// `row_cyclic`
    RowCyclic,
    /// `column_block`
    ColumnBlock,
    /// `row_block`
    RowBlock,
    /// `column_block_cyclic(b)`
    ColumnBlockCyclic(usize),
    /// `row_block_cyclic(b)`
    RowBlockCyclic(usize),
    /// `block2d(pr, pc)`
    Block2d(usize, usize),
}

impl fmt::Display for DistSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistSpec::All => write!(f, "all"),
            DistSpec::Proc(p) => write!(f, "proc({p})"),
            DistSpec::ColumnCyclic => write!(f, "column_cyclic"),
            DistSpec::RowCyclic => write!(f, "row_cyclic"),
            DistSpec::ColumnBlock => write!(f, "column_block"),
            DistSpec::RowBlock => write!(f, "row_block"),
            DistSpec::ColumnBlockCyclic(b) => write!(f, "column_block_cyclic({b})"),
            DistSpec::RowBlockCyclic(b) => write!(f, "row_block_cyclic({b})"),
            DistSpec::Block2d(r, c) => write!(f, "block2d({r},{c})"),
        }
    }
}

/// A procedure definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Proc {
    /// Procedure name.
    pub name: String,
    /// Parameter names.
    pub params: Vec<String>,
    /// Body.
    pub body: Block,
    /// Source location of the header.
    pub span: Span,
}

/// A `{ … }` statement sequence.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `let x = e;` or `x = e;` — single-assignment scalar (or array
    /// handle) definition. Rebinding the same name in one scope is a
    /// static error; Id Nouveau scalars are single-assignment.
    Let {
        /// Bound name.
        name: String,
        /// Initializer.
        init: Expr,
        /// Source location.
        span: Span,
    },
    /// `A[i, j] = e;` — I-structure element definition.
    ArrayWrite {
        /// Array name.
        array: String,
        /// One (vector) or two (matrix) subscripts.
        indices: Vec<Expr>,
        /// The defined value.
        value: Expr,
        /// Source location.
        span: Span,
    },
    /// `for v = lo to hi [by s] do { … }` — counted loop, inclusive
    /// bounds, default step 1.
    For {
        /// Loop variable (scoped to the body).
        var: String,
        /// Lower bound.
        lo: Expr,
        /// Upper (inclusive) bound.
        hi: Expr,
        /// Step (defaults to 1).
        step: Option<Expr>,
        /// Body.
        body: Block,
        /// Source location of the header.
        span: Span,
    },
    /// `if c then { … } [else { … }]`.
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then_blk: Block,
        /// Optional else branch.
        else_blk: Option<Block>,
        /// Source location of the header.
        span: Span,
    },
    /// `return e;`
    Return {
        /// The returned value.
        value: Expr,
        /// Source location.
        span: Span,
    },
    /// An expression evaluated for effect — in this subset, a procedure
    /// call such as `init_boundary(New, n);`.
    ExprStmt {
        /// The expression (statically required to be a call).
        expr: Expr,
        /// Source location.
        span: Span,
    },
}

impl Stmt {
    /// The statement's source span.
    pub fn span(&self) -> Span {
        match self {
            Stmt::Let { span, .. }
            | Stmt::ArrayWrite { span, .. }
            | Stmt::For { span, .. }
            | Stmt::If { span, .. }
            | Stmt::Return { span, .. }
            | Stmt::ExprStmt { span, .. } => *span,
        }
    }
}

/// An expression with its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// The node kind.
    pub kind: ExprKind,
    /// Source location.
    pub span: Span,
}

impl Expr {
    /// Construct with an explicit span.
    pub fn new(kind: ExprKind, span: Span) -> Self {
        Expr { kind, span }
    }

    /// The integer this expression always evaluates to, if it mentions
    /// only integer literals, names that `known` maps to integers, and
    /// operators that do not fault on them.
    pub fn const_int(&self, known: &dyn Fn(&str) -> Option<i64>) -> Option<i64> {
        let v = match &self.kind {
            ExprKind::Int(v) => return Some(*v),
            ExprKind::Var(name) => return known(name),
            ExprKind::Binary { op, lhs, rhs } => {
                let (l, r) = (lhs.const_int(known)?, rhs.const_int(known)?);
                binop(*op, Scalar::Int(l), Scalar::Int(r))
            }
            ExprKind::Unary { op, operand } => unop(*op, Scalar::Int(operand.const_int(known)?)),
            _ => return None,
        };
        v.ok()?.as_int()
    }
}

/// Expression kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Boolean literal.
    Bool(bool),
    /// Variable reference.
    Var(String),
    /// `A[i]` or `A[i, j]` — I-structure read.
    ArrayRead {
        /// Array name.
        array: String,
        /// One or two subscripts.
        indices: Vec<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        operand: Box<Expr>,
    },
    /// Procedure call `f(a, b)`, or the builtins `min(a,b)` / `max(a,b)`.
    Call {
        /// Callee name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// `matrix(r, c)` or `vector(n)` — I-structure allocation.
    Alloc {
        /// Number of dimensions (1 for `vector`, 2 for `matrix`).
        dims: Vec<Expr>,
    },
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` — float division on floats, Euclidean on integers.
    Div,
    /// `div` — Euclidean integer division.
    FloorDiv,
    /// `mod` (or `%`) — Euclidean remainder.
    Mod,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `and`
    And,
    /// `or`
    Or,
    /// `min(a,b)`
    Min,
    /// `max(a,b)`
    Max,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::FloorDiv => "div",
            BinOp::Mod => "mod",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Min => "min",
            BinOp::Max => "max",
        };
        write!(f, "{s}")
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Boolean negation.
    Not,
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnOp::Neg => write!(f, "-"),
            UnOp::Not => write!(f, "not"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_proc_lookup() {
        let p = Program {
            map_decls: vec![],
            procs: vec![Proc {
                name: "main".into(),
                params: vec![],
                body: Block::default(),
                span: Span::default(),
            }],
        };
        assert!(p.proc("main").is_some());
        assert!(p.proc("other").is_none());
    }

    #[test]
    fn dist_spec_display() {
        assert_eq!(DistSpec::ColumnCyclic.to_string(), "column_cyclic");
        assert_eq!(DistSpec::Block2d(2, 3).to_string(), "block2d(2,3)");
        assert_eq!(DistSpec::Proc(1).to_string(), "proc(1)");
    }

    #[test]
    fn stmt_span_accessor() {
        let s = Stmt::Return {
            value: Expr::new(ExprKind::Int(0), Span::new(7, 8)),
            span: Span::new(0, 9),
        };
        assert_eq!(s.span(), Span::new(0, 9));
    }
}
