//! The walk proper: one processor at a time over its resolved body.

use super::resolve::{Expr, Idx, Read, Resolved, Stmt};
use super::{binop, unop, Abs, ArrayId, Events, Names, RecvSink, Target, Work, FUEL};
use pdc_lang::BinOp;
use pdc_lang::Scalar::{Bool, Int};
use pdc_mapping::{DistInstance, OwnerSet};
use std::borrow::Cow;

impl Resolved<'_> {
    /// Run the abstract walk over every processor, reporting to `events`.
    pub fn walk<E: Events>(&self, events: &mut E) {
        for (p, body) in self.bodies.iter().enumerate() {
            events.proc_begin(p);
            let mut interp = Interp {
                p,
                nprocs: self.bodies.len(),
                names: &self.names,
                env: self.env.clone(),
                arrays: self.arrays.iter().map(|a| a.map(Cow::Borrowed)).collect(),
                fuel: FUEL,
                pending: Work::default(),
                events: &mut *events,
            };
            interp.block(body);
            interp.flush_work();
        }
    }
}

struct Interp<'a, E: Events> {
    p: usize,
    nprocs: usize,
    names: &'a Names,
    env: Vec<Abs>,
    /// Per-array distribution instances; `None` marks an array that was
    /// never allocated or whose extents could not be evaluated (owner
    /// queries go to ⊤).
    arrays: Vec<Option<Cow<'a, DistInstance>>>,
    fuel: u64,
    /// Compute accumulated since the last emitted event, mirroring the
    /// instruction stream the lowering would produce; flushed through
    /// [`Events::work`] before each communication event.
    pending: Work,
    events: &'a mut E,
}

impl<E: Events> Interp<'_, E> {
    fn note(&mut self, msg: String) {
        self.events.note(self.p, msg);
    }

    /// Report the reads of an expression that was not evaluated.
    fn replay(&mut self, reads: &[Read]) {
        for r in reads {
            match r {
                Read::Var(v) => self.events.var_read(self.p, *v),
                Read::Buf(b) => self.events.buf_read(self.p, *b),
            }
        }
    }

    fn flush_work(&mut self) {
        if !self.pending.is_zero() {
            let w = std::mem::take(&mut self.pending);
            self.events.work(self.p, w);
        }
    }

    /// A processor id the machine has?
    fn peer(&self, v: Abs) -> Option<usize> {
        match v {
            Some(Int(q)) if q >= 0 && (q as usize) < self.nprocs => Some(q as usize),
            _ => None,
        }
    }

    fn block(&mut self, body: &[Stmt]) {
        for s in body {
            if self.fuel == 0 {
                self.note(format!("P{}: fuel exhausted, prediction truncated", self.p));
                return;
            }
            self.fuel -= 1;
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Let { var, value, work } => {
                let v = self.eval(value);
                self.pending += *work;
                self.env[var.index()] = v;
            }
            Stmt::AllocDist {
                array,
                rows,
                cols,
                dist,
                work,
            } => {
                let inst = match (self.eval(rows), self.eval(cols)) {
                    (Some(Int(r)), Some(Int(c))) => Some(Cow::Owned(DistInstance::new(
                        dist.clone(),
                        r.max(0) as usize,
                        c.max(0) as usize,
                        self.nprocs,
                    ))),
                    _ => {
                        self.note(format!(
                            "P{}: extents of `{}` are not statically known",
                            self.p,
                            self.names.array(*array)
                        ));
                        None
                    }
                };
                self.pending += *work;
                self.arrays[array.index()] = inst;
            }
            Stmt::Local { reads, work } => {
                self.replay(reads);
                self.pending += *work;
            }
            Stmt::AWrite {
                array,
                idx,
                value,
                global,
                work,
            } => {
                let element = if *global {
                    self.global_element(*array, idx)
                } else {
                    self.indices(idx).map(|(li, lj)| (self.p, li, lj))
                };
                self.replay(value);
                self.pending += *work;
                self.events.array_write(self.p, *array, element);
            }
            Stmt::Send {
                to,
                tag,
                payload,
                words,
                work,
            } => {
                self.replay(payload);
                self.pending += *work;
                let dst = self.eval(to);
                match self.peer(dst) {
                    Some(dst) => {
                        self.flush_work();
                        self.events.send(self.p, dst, *tag, *words);
                    }
                    None => self.note(format!(
                        "P{}: destination of send tag {tag} is not statically known",
                        self.p
                    )),
                }
            }
            Stmt::SendBuf {
                to,
                tag,
                buf,
                lo,
                hi,
                work,
            } => {
                self.events.buf_read(self.p, *buf);
                self.pending += *work;
                let dst = self.eval(to);
                match (self.peer(dst), self.eval(lo), self.eval(hi)) {
                    (Some(dst), Some(Int(l)), Some(Int(h))) if h >= l => {
                        self.flush_work();
                        self.events.send(self.p, dst, *tag, 2 * (h - l + 1) as u64);
                    }
                    _ => self.note(format!(
                        "P{}: block send tag {tag} has unknown destination or slice",
                        self.p
                    )),
                }
            }
            Stmt::Recv {
                from,
                tag,
                into,
                cells,
                before,
                after,
            } => {
                // As in the VM: the source is evaluated before the
                // (zero-cost) `Recv` instruction, so it may name a
                // variable the receive overwrites; the stores into the
                // targets — and the loads their buffer indices make —
                // execute only after the message has been consumed.
                self.pending += *before;
                let src = self.eval(from);
                for t in into {
                    self.havoc_target(t);
                }
                match self.peer(src) {
                    Some(src) => {
                        self.flush_work();
                        self.events.recv(
                            self.p,
                            src,
                            *tag,
                            2 * into.len() as u64,
                            RecvSink::Targets(into),
                        );
                        self.pending += *after;
                        self.replay(cells);
                    }
                    None => self.note(format!(
                        "P{}: source of receive tag {tag} is not statically known",
                        self.p
                    )),
                }
            }
            Stmt::RecvBuf {
                from,
                tag,
                buf,
                lo,
                hi,
                work,
            } => {
                self.pending += *work;
                let src = self.eval(from);
                match (self.peer(src), self.eval(lo), self.eval(hi)) {
                    (Some(src), Some(Int(l)), Some(Int(h))) if h >= l => {
                        self.flush_work();
                        self.events.recv(
                            self.p,
                            src,
                            *tag,
                            2 * (h - l + 1) as u64,
                            RecvSink::Buffer(*buf),
                        );
                    }
                    _ => self.note(format!(
                        "P{}: block receive tag {tag} has unknown source or slice",
                        self.p
                    )),
                }
            }
            Stmt::For {
                var,
                lo,
                hi,
                step,
                body,
                init,
                head,
                incr,
            } => {
                // The VM evaluates lo/hi once, before the first test.
                let lo_v = self.eval(lo);
                let hi_v = self.eval(hi);
                let step_v = self.eval(step);
                let (Some(Int(lo_v)), Some(Int(hi_v)), Some(Int(step_v))) = (lo_v, hi_v, step_v)
                else {
                    self.note(format!(
                        "P{}: bounds of loop over `{}` are not statically known",
                        self.p,
                        self.names.var(*var)
                    ));
                    self.havoc_block(body);
                    self.env[var.index()] = None;
                    return;
                };
                if step_v == 0 {
                    // The VM faults here; nothing further executes.
                    self.note(format!(
                        "P{}: loop over `{}` has zero step",
                        self.p,
                        self.names.var(*var)
                    ));
                    return;
                }
                self.pending += *init;
                let mut v = lo_v;
                loop {
                    // The head test runs once per iteration *and* once
                    // more to fail and exit the loop.
                    self.pending += *head;
                    if !(if step_v > 0 { v <= hi_v } else { v >= hi_v }) {
                        break;
                    }
                    if self.fuel == 0 {
                        self.note(format!("P{}: fuel exhausted, prediction truncated", self.p));
                        return;
                    }
                    self.env[var.index()] = Some(Int(v));
                    self.block(body);
                    self.pending += *incr;
                    match binop(BinOp::Add, Some(Int(v)), Some(Int(step_v))) {
                        Some(Int(next)) => v = next,
                        _ => {
                            // The VM faults here; nothing further executes.
                            self.note(format!(
                                "P{}: step of loop over `{}` overflows",
                                self.p,
                                self.names.var(*var)
                            ));
                            return;
                        }
                    }
                }
                self.env[var.index()] = Some(Int(v));
            }
            Stmt::If {
                cond,
                then,
                els,
                work,
            } => {
                let c = self.eval(cond);
                self.pending += *work;
                match c {
                    Some(Bool(true)) => self.block(then),
                    Some(Bool(false)) => self.block(els),
                    _ => {
                        self.note(format!(
                            "P{}: branch condition is not statically known",
                            self.p
                        ));
                        self.havoc_block(then);
                        self.havoc_block(els);
                    }
                }
            }
        }
    }

    fn havoc_target(&mut self, t: &Target) {
        if let Target::Var(v) = t {
            self.env[v.index()] = None;
        }
    }

    /// A block skipped under unknown control: forget everything it could
    /// assign, and flag any communication it contains as uncounted.
    fn havoc_block(&mut self, body: &[Stmt]) {
        for s in body {
            match s {
                Stmt::Let { var, .. } => self.env[var.index()] = None,
                Stmt::AllocDist { array, .. } => self.arrays[array.index()] = None,
                // A write we cannot place: the sink loses single-
                // assignment coverage for this array.
                Stmt::AWrite { array, .. } => self.events.array_write(self.p, *array, None),
                Stmt::Send { tag, .. } | Stmt::SendBuf { tag, .. } => self.note(format!(
                    "P{}: send tag {tag} under unknown control cannot be counted",
                    self.p
                )),
                Stmt::Recv { tag, into, .. } => {
                    for t in into {
                        self.havoc_target(t);
                    }
                    self.note(format!(
                        "P{}: receive tag {tag} under unknown control cannot be counted",
                        self.p
                    ));
                }
                Stmt::RecvBuf { tag, .. } => self.note(format!(
                    "P{}: receive tag {tag} under unknown control cannot be counted",
                    self.p
                )),
                Stmt::For { var, body, .. } => {
                    self.env[var.index()] = None;
                    self.havoc_block(body);
                }
                Stmt::If { then, els, .. } => {
                    self.havoc_block(then);
                    self.havoc_block(els);
                }
                Stmt::Local { .. } => {}
            }
        }
    }

    /// Resolve a global array reference to its home `(owner, li, lj)`.
    fn global_element(&mut self, array: ArrayId, idx: &Idx) -> Option<(usize, i64, i64)> {
        let (i, j) = self.indices(idx)?;
        let inst = self.arrays[array.index()].as_deref()?;
        let home = match inst.owner(i, j) {
            OwnerSet::One(q) => q,
            // Replicated data is owned locally (VM rule).
            OwnerSet::All => self.p,
        };
        let (li, lj) = inst.local(i, j);
        Some((home, li, lj))
    }

    fn indices(&mut self, idx: &Idx) -> Option<(i64, i64)> {
        match idx {
            Idx::One(j) => match self.eval(j) {
                Some(Int(j)) => Some((1, j)),
                _ => None,
            },
            Idx::Two(i, j) => match (self.eval(i), self.eval(j)) {
                (Some(Int(i)), Some(Int(j))) => Some((i, j)),
                _ => None,
            },
            Idx::Other => None,
        }
    }

    fn eval(&mut self, e: &Expr) -> Abs {
        match e {
            Expr::Const(v) => *v,
            Expr::Var(v) => {
                self.events.var_read(self.p, *v);
                self.env[v.index()]
            }
            Expr::Bin(op, a, b) => {
                let a = self.eval(a);
                let b = self.eval(b);
                binop(*op, a, b)
            }
            Expr::Un(op, a) => {
                let a = self.eval(a);
                unop(*op, a)
            }
            Expr::Opaque(reads) => {
                self.replay(reads);
                None
            }
            Expr::OwnerOf(array, idx) => {
                let (i, j) = self.indices(idx)?;
                let inst = self.arrays[array.index()].as_deref()?;
                match inst.owner(i, j) {
                    OwnerSet::One(q) => Some(Int(q as i64)),
                    // Replicated data is owned locally (VM rule).
                    OwnerSet::All => Some(Int(self.p as i64)),
                }
            }
            Expr::LocalOf(array, idx, dim) => {
                let (i, j) = self.indices(idx)?;
                let (li, lj) = self.arrays[array.index()].as_deref()?.local(i, j);
                Some(Int(if *dim == 0 { li } else { lj }))
            }
        }
    }
}
