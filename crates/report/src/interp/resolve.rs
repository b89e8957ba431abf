//! Resolution: an [`SpmdProgram`] with names becomes a [`Resolved`] one
//! with slots, once, before any processor is walked.
//!
//! Besides interning, resolution decides everything that depends on the
//! syntax alone: `mynode`/`nprocs` and constant subtrees fold to their
//! value, each statement's [`Work`] is summed, and an expression that is
//! statically ⊤ (an array or buffer read, or anything computed from one)
//! or whose value the walk never uses (a payload, a stored value)
//! shrinks to the list of reads it makes.

use super::{binop, unop, Abs, ArrayId, BufId, Names, Target, VarId, Work};
use pdc_lang::Scalar::{Bool, Float, Int};
use pdc_lang::{BinOp, UnOp};
use pdc_mapping::{Dist, DistInstance};
use pdc_spmd::ir::{RecvTarget, SExpr, SStmt, SpmdProgram};
use std::collections::{BTreeMap, HashMap};

/// One scalar or buffer read, as [`Events`](super::Events) reports it.
#[derive(Debug, Clone, Copy)]
pub(super) enum Read {
    Var(VarId),
    Buf(BufId),
}

/// The reads an expression makes, in evaluation order — all that is left
/// of it when its value is not needed.
pub(super) type Reads = Box<[Read]>;

/// A resolved expression.
#[derive(Debug, Clone)]
pub(super) enum Expr {
    Const(Abs),
    Var(VarId),
    Bin(BinOp, Box<Expr>, Box<Expr>),
    Un(UnOp, Box<Expr>),
    /// Statically ⊤: array and buffer contents are opaque to the walk,
    /// and so is whatever is computed from them.
    Opaque(Reads),
    OwnerOf(ArrayId, Idx),
    LocalOf(ArrayId, Idx, usize),
}

/// An array subscript: a vector `[j]` addresses `(1, j)`; anything but
/// one or two indices addresses nothing the walk can place.
#[derive(Debug, Clone)]
pub(super) enum Idx {
    One(Box<Expr>),
    Two(Box<Expr>, Box<Expr>),
    Other,
}

/// A resolved statement with the [`Work`] its own instructions cost —
/// which depends on the syntax alone, so it is summed once here instead
/// of on every execution.
#[derive(Debug, Clone)]
pub(super) enum Stmt {
    Let {
        var: VarId,
        value: Expr,
        work: Work,
    },
    AllocDist {
        array: ArrayId,
        rows: Expr,
        cols: Expr,
        dist: Dist,
        work: Work,
    },
    /// `AllocBuf`, `BufWrite`: buffers have no state the walk tracks.
    Local {
        reads: Reads,
        work: Work,
    },
    AWrite {
        array: ArrayId,
        idx: Idx,
        value: Reads,
        global: bool,
        work: Work,
    },
    Send {
        to: Expr,
        tag: u32,
        payload: Reads,
        /// Payload size: two words per scalar, whatever the values.
        words: u64,
        work: Work,
    },
    SendBuf {
        to: Expr,
        tag: u32,
        buf: BufId,
        lo: Expr,
        hi: Expr,
        work: Work,
    },
    Recv {
        from: Expr,
        tag: u32,
        into: Vec<Target>,
        /// The buffer targets' index expressions.
        cells: Reads,
        /// Evaluating the source, before the message is consumed.
        before: Work,
        /// Storing into the targets, after it.
        after: Work,
    },
    RecvBuf {
        from: Expr,
        tag: u32,
        buf: BufId,
        lo: Expr,
        hi: Expr,
        work: Work,
    },
    For {
        var: VarId,
        lo: Expr,
        hi: Expr,
        step: Expr,
        body: Vec<Stmt>,
        /// Evaluating and storing the bounds, once.
        init: Work,
        /// The head test, once per iteration and once more to exit.
        head: Work,
        /// The increment, once per iteration.
        incr: Work,
    },
    If {
        cond: Expr,
        then: Vec<Stmt>,
        els: Vec<Stmt>,
        work: Work,
    },
}

/// A program ready to walk: see [`resolve`].
#[derive(Debug, Clone)]
pub struct Resolved<'a> {
    pub(super) names: Names,
    pub(super) bodies: Vec<Vec<Stmt>>,
    /// Every processor's initial scalar environment, by [`VarId`].
    pub(super) env: Vec<Abs>,
    /// The preloaded arrays' instances, by [`ArrayId`].
    pub(super) arrays: Vec<Option<&'a DistInstance>>,
}

impl Resolved<'_> {
    /// The name tables the event ids index.
    pub fn names(&self) -> &Names {
        &self.names
    }

    /// Number of processors.
    pub fn n_procs(&self) -> usize {
        self.bodies.len()
    }
}

/// Resolve `prog` for walking: intern its names, fold what is constant
/// per processor, precompute every statement's [`Work`].
///
/// `env` seeds every processor's scalar environment (the compile-time
/// constants, e.g. `n = 16`); `arrays` provides distribution instances
/// for arrays that are *preloaded* rather than allocated by the program
/// (an `AllocDist` in the program overrides the seed).
pub fn resolve<'a>(
    prog: &SpmdProgram,
    env: &BTreeMap<String, i64>,
    arrays: &'a BTreeMap<String, DistInstance>,
) -> Resolved<'a> {
    let nprocs = prog.n_procs();
    let mut r = Resolver {
        nprocs,
        ..Resolver::default()
    };
    let bodies = (0..nprocs)
        .map(|p| {
            r.p = p;
            r.block(prog.body(p))
        })
        .collect();
    let names = Names {
        vars: r.vars.names,
        arrays: r.arrays.names,
        bufs: r.bufs.names,
    };
    Resolved {
        env: names
            .vars
            .iter()
            .map(|v| env.get(v).map(|v| Int(*v)))
            .collect(),
        arrays: names.arrays.iter().map(|a| arrays.get(a)).collect(),
        names,
        bodies,
    }
}

/// One namespace being interned.
#[derive(Default)]
struct Interner<'s> {
    ids: HashMap<&'s str, u32>,
    names: Vec<String>,
}

impl<'s> Interner<'s> {
    fn id(&mut self, name: &'s str) -> u32 {
        *self.ids.entry(name).or_insert_with(|| {
            self.names.push(name.to_owned());
            (self.names.len() - 1) as u32
        })
    }
}

#[derive(Default)]
struct Resolver<'s> {
    vars: Interner<'s>,
    arrays: Interner<'s>,
    bufs: Interner<'s>,
    /// The processor whose body is being resolved.
    p: usize,
    nprocs: usize,
}

/// Instruction-cost classes of evaluating `e`, mirroring the lowering:
/// every expression compiles to pushes (free), loads, ALU operations,
/// and array/buffer accesses whose count depends only on the syntax,
/// never on the values.
fn expr_work(e: &SExpr, w: &mut Work) {
    match e {
        SExpr::Int(_) | SExpr::Float(_) | SExpr::Bool(_) | SExpr::MyNode | SExpr::NProcs => {}
        SExpr::Var(_) => w.mem += 1,
        SExpr::Bin(_, a, b) => {
            expr_work(a, w);
            expr_work(b, w);
            w.alu += 1;
        }
        SExpr::Un(_, a) => {
            expr_work(a, w);
            w.alu += 1;
        }
        SExpr::ARead { idx, .. } => {
            for i in idx {
                expr_work(i, w);
            }
            w.istruct += 1;
        }
        SExpr::AReadGlobal { idx, .. } => {
            for i in idx {
                expr_work(i, w);
            }
            w.istruct += 1;
            w.alu += 2;
        }
        SExpr::OwnerOf { idx, .. } | SExpr::LocalOf { idx, .. } => {
            for i in idx {
                expr_work(i, w);
            }
            w.alu += 2;
        }
        SExpr::BufRead { idx, .. } => {
            expr_work(idx, w);
            w.mem += 1;
        }
    }
}

fn work_of<'e>(exprs: impl IntoIterator<Item = &'e SExpr>) -> Work {
    let mut w = Work::default();
    for e in exprs {
        expr_work(e, &mut w);
    }
    w
}

/// Append the reads evaluating `e` makes, in evaluation order.
fn reads_of(e: &Expr, out: &mut Vec<Read>) {
    match e {
        Expr::Const(_) => {}
        Expr::Var(v) => out.push(Read::Var(*v)),
        Expr::Bin(_, a, b) => {
            reads_of(a, out);
            reads_of(b, out);
        }
        Expr::Un(_, a) => reads_of(a, out),
        Expr::Opaque(reads) => out.extend_from_slice(reads),
        Expr::OwnerOf(_, idx) | Expr::LocalOf(_, idx, _) => match idx {
            Idx::One(j) => reads_of(j, out),
            Idx::Two(i, j) => {
                reads_of(i, out);
                reads_of(j, out);
            }
            // Never evaluated: there is nothing to address.
            Idx::Other => {}
        },
    }
}

/// Does `e` evaluate to ⊤ whatever the environment?
fn is_top(e: &Expr) -> bool {
    matches!(e, Expr::Opaque(_) | Expr::Const(None))
}

impl<'s> Resolver<'s> {
    fn var(&mut self, name: &'s str) -> VarId {
        VarId(self.vars.id(name))
    }

    fn array(&mut self, name: &'s str) -> ArrayId {
        ArrayId(self.arrays.id(name))
    }

    fn buf(&mut self, name: &'s str) -> BufId {
        BufId(self.bufs.id(name))
    }

    fn block(&mut self, body: &'s [SStmt]) -> Vec<Stmt> {
        body.iter().filter_map(|s| self.stmt(s)).collect()
    }

    fn stmt(&mut self, s: &'s SStmt) -> Option<Stmt> {
        Some(match s {
            SStmt::Comment(_) => return None,
            SStmt::Let { var, value } => {
                let mut work = work_of([value]);
                work.mem += 1; // Store
                Stmt::Let {
                    var: self.var(var),
                    value: self.expr(value),
                    work,
                }
            }
            SStmt::AllocDist {
                array,
                rows,
                cols,
                dist,
            } => {
                let mut work = work_of([rows, cols]);
                work.mem += 1; // AllocDist
                Stmt::AllocDist {
                    array: self.array(array),
                    rows: self.expr(rows),
                    cols: self.expr(cols),
                    dist: dist.clone(),
                    work,
                }
            }
            SStmt::AllocBuf { len, .. } => {
                let mut work = work_of([len]);
                work.mem += 1; // AllocBuf
                Stmt::Local {
                    reads: self.reads([len]),
                    work,
                }
            }
            SStmt::AWrite { array, idx, value } => {
                let mut work = work_of(idx.iter().chain([value]));
                work.istruct += 1; // AWrite
                Stmt::AWrite {
                    array: self.array(array),
                    idx: self.idx(idx),
                    value: self.reads([value]),
                    global: false,
                    work,
                }
            }
            SStmt::AWriteGlobal { array, idx, value } => {
                let mut work = work_of(idx.iter().chain([value]));
                work.istruct += 1; // AWriteGlobal …
                work.alu += 2; // … plus its owner/local maps
                Stmt::AWrite {
                    array: self.array(array),
                    idx: self.idx(idx),
                    value: self.reads([value]),
                    global: true,
                    work,
                }
            }
            SStmt::BufWrite { idx, value, .. } => {
                let mut work = work_of([value, idx]);
                work.mem += 1; // BufWrite
                Stmt::Local {
                    reads: self.reads([idx, value]),
                    work,
                }
            }
            // The VM evaluates the destination and payload before the
            // zero-cost `Send` instruction itself.
            SStmt::Send { to, tag, values } => Stmt::Send {
                to: self.expr(to),
                tag: *tag,
                payload: self.reads(values),
                words: 2 * values.len() as u64,
                work: work_of([to].into_iter().chain(values)),
            },
            SStmt::SendBuf {
                to,
                tag,
                buf,
                lo,
                hi,
            } => Stmt::SendBuf {
                to: self.expr(to),
                tag: *tag,
                buf: self.buf(buf),
                lo: self.expr(lo),
                hi: self.expr(hi),
                work: work_of([to, lo, hi]),
            },
            SStmt::Recv { from, tag, into } => {
                let mut after = Work::default();
                let mut cells = Vec::new();
                let into = into
                    .iter()
                    .map(|t| match t {
                        RecvTarget::Var(v) => {
                            after.mem += 1; // Store
                            Target::Var(self.var(v))
                        }
                        RecvTarget::Buf { buf, idx } => {
                            expr_work(idx, &mut after);
                            after.mem += 1; // BufWrite
                            cells.push(idx);
                            Target::Buf(self.buf(buf))
                        }
                    })
                    .collect();
                Stmt::Recv {
                    from: self.expr(from),
                    tag: *tag,
                    into,
                    cells: self.reads(cells),
                    before: work_of([from]),
                    after,
                }
            }
            SStmt::RecvBuf {
                from,
                tag,
                buf,
                lo,
                hi,
            } => Stmt::RecvBuf {
                from: self.expr(from),
                tag: *tag,
                buf: self.buf(buf),
                lo: self.expr(lo),
                hi: self.expr(hi),
                work: work_of([from, lo, hi]),
            },
            SStmt::For {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                // Loop administration mirrors the lowering: init stores
                // `var` and `$hi` (and `$step` for a dynamic step); a
                // constant step's direction is picked at lowering time so
                // its head is a 2-load compare, while a dynamic step pays
                // the two-sided test on every iteration.
                let const_step = matches!(step, SExpr::Int(_));
                let mut init = work_of([lo, hi]);
                init.mem += 2; // Store var, Store $hi
                if !const_step {
                    expr_work(step, &mut init);
                    init.mem += 1; // Store $step
                }
                let (head, incr) = if const_step {
                    (
                        Work {
                            mem: 2,
                            alu: 1,
                            branch: 1,
                            ..Work::default()
                        },
                        Work {
                            mem: 2,
                            alu: 1,
                            ..Work::default()
                        },
                    )
                } else {
                    (
                        Work {
                            mem: 6,
                            alu: 7,
                            branch: 1,
                            ..Work::default()
                        },
                        Work {
                            mem: 3,
                            alu: 1,
                            ..Work::default()
                        },
                    )
                };
                Stmt::For {
                    var: self.var(var),
                    lo: self.expr(lo),
                    hi: self.expr(hi),
                    step: self.expr(step),
                    body: self.block(body),
                    init,
                    head,
                    incr,
                }
            }
            SStmt::If { cond, then, els } => {
                let mut work = work_of([cond]);
                work.branch += 1; // JumpIfFalse (the trailing Jump is free)
                Stmt::If {
                    cond: self.expr(cond),
                    then: self.block(then),
                    els: self.block(els),
                    work,
                }
            }
        })
    }

    /// Expressions whose values the walk does not use: their reads.
    fn reads(&mut self, exprs: impl IntoIterator<Item = &'s SExpr>) -> Reads {
        let mut out = Vec::new();
        for e in exprs {
            reads_of(&self.expr(e), &mut out);
        }
        out.into()
    }

    fn idx(&mut self, idx: &'s [SExpr]) -> Idx {
        match idx {
            [j] => Idx::One(Box::new(self.expr(j))),
            [i, j] => Idx::Two(Box::new(self.expr(i)), Box::new(self.expr(j))),
            _ => Idx::Other,
        }
    }

    fn expr(&mut self, e: &'s SExpr) -> Expr {
        let out = match e {
            SExpr::Int(v) => Expr::Const(Some(Int(*v))),
            SExpr::Float(v) => Expr::Const(Some(Float(*v))),
            SExpr::Bool(v) => Expr::Const(Some(Bool(*v))),
            SExpr::MyNode => Expr::Const(Some(Int(self.p as i64))),
            SExpr::NProcs => Expr::Const(Some(Int(self.nprocs as i64))),
            SExpr::Var(v) => Expr::Var(self.var(v)),
            SExpr::Bin(op, a, b) => match (self.expr(a), self.expr(b)) {
                (Expr::Const(a), Expr::Const(b)) => Expr::Const(binop(*op, a, b)),
                (a, b) => Expr::Bin(*op, Box::new(a), Box::new(b)),
            },
            SExpr::Un(op, a) => match self.expr(a) {
                Expr::Const(a) => Expr::Const(unop(*op, a)),
                a => Expr::Un(*op, Box::new(a)),
            },
            // The reads are observable (unused-receive lint) even though
            // the contents are not.
            SExpr::ARead { idx, .. } | SExpr::AReadGlobal { idx, .. } => {
                Expr::Opaque(self.reads(idx))
            }
            SExpr::BufRead { buf, idx } => {
                let mut reads = vec![Read::Buf(self.buf(buf))];
                reads_of(&self.expr(idx), &mut reads);
                Expr::Opaque(reads.into())
            }
            SExpr::OwnerOf { array, idx } => Expr::OwnerOf(self.array(array), self.idx(idx)),
            SExpr::LocalOf { array, idx, dim } => {
                Expr::LocalOf(self.array(array), self.idx(idx), *dim)
            }
        };
        // ⊤ in, ⊤ out: an operator or an owner query over an opaque
        // operand is itself opaque.
        let top = match &out {
            Expr::Bin(_, a, b) => is_top(a) || is_top(b),
            Expr::Un(_, a) => is_top(a),
            Expr::OwnerOf(_, idx) | Expr::LocalOf(_, idx, _) => match idx {
                Idx::One(j) => is_top(j),
                Idx::Two(i, j) => is_top(i) || is_top(j),
                Idx::Other => true,
            },
            Expr::Const(_) | Expr::Var(_) | Expr::Opaque(_) => false,
        };
        if top {
            let mut reads = Vec::new();
            reads_of(&out, &mut reads);
            Expr::Opaque(reads.into())
        } else {
            out
        }
    }
}
