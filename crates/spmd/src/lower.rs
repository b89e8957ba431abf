//! Lowering the tree IR to flat stack bytecode.
//!
//! The virtual machine must be able to *suspend* at a blocking receive and
//! resume later (the scheduler interleaves processors). A flat instruction
//! array with an explicit program counter makes suspension trivial: a
//! receive that finds no message simply leaves the machine state untouched
//! and reports itself blocked; the next step retries the same instruction.

use crate::ir::{RecvTarget, SExpr, SStmt};
use crate::SpmdError;
use pdc_lang::{BinOp, UnOp};
use pdc_mapping::Dist;
use std::collections::HashMap;

/// One bytecode instruction. The operand stack holds [`crate::Scalar`]s.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// Push an integer constant.
    PushInt(i64),
    /// Push a float constant.
    PushFloat(f64),
    /// Push a boolean constant.
    PushBool(bool),
    /// Push the executing processor id.
    PushMyNode,
    /// Push the machine size.
    PushNProcs,
    /// Push the value of a local slot.
    Load(u32),
    /// Pop into a local slot.
    Store(u32),
    /// Pop two operands, push the result.
    Bin(BinOp),
    /// Pop one operand, push the result.
    Un(UnOp),
    /// Unconditional jump.
    Jump(usize),
    /// Pop a boolean; jump when false.
    JumpIfFalse(usize),
    /// Pop `cols`, `rows` (global extents); allocate the local segment.
    AllocDist {
        /// Array slot.
        arr: u32,
        /// Distribution.
        dist: Dist,
    },
    /// Pop `len`; allocate a plain buffer of that many `Int(0)` cells.
    AllocBuf {
        /// Buffer slot.
        buf: u32,
    },
    /// Pop `nd` local indices; push the element.
    ARead {
        /// Array slot.
        arr: u32,
        /// Number of indices.
        nd: u8,
    },
    /// Pop the value, then `nd` local indices; define the element.
    AWrite {
        /// Array slot.
        arr: u32,
        /// Number of indices.
        nd: u8,
    },
    /// Pop `nd` global indices; push the element (owner-checked).
    AReadGlobal {
        /// Array slot.
        arr: u32,
        /// Number of indices.
        nd: u8,
    },
    /// Pop the value, then `nd` global indices; define the element
    /// (owner-checked).
    AWriteGlobal {
        /// Array slot.
        arr: u32,
        /// Number of indices.
        nd: u8,
    },
    /// Pop `nd` global indices; push the owner processor id.
    OwnerOf {
        /// Array slot.
        arr: u32,
        /// Number of indices.
        nd: u8,
    },
    /// Pop `nd` global indices; push local coordinate `dim`.
    LocalOf {
        /// Array slot.
        arr: u32,
        /// Number of indices.
        nd: u8,
        /// Coordinate (0 = row, 1 = col).
        dim: u8,
    },
    /// Pop a zero-based index; push the buffer element.
    BufRead {
        /// Buffer slot.
        buf: u32,
    },
    /// Pop a zero-based index, then the value; store it.
    BufWrite {
        /// Buffer slot.
        buf: u32,
    },
    /// Pop `n` values (pushed left-to-right), then the destination below
    /// them; send one message.
    Send {
        /// Message tag.
        tag: u32,
        /// Number of scalars.
        n: u16,
    },
    /// Stack top must be the source id. If a matching message is pending:
    /// pop the source, push the `n` received values left-to-right.
    /// Otherwise leave the stack untouched and report blocked.
    Recv {
        /// Message tag.
        tag: u32,
        /// Expected number of scalars.
        n: u16,
    },
    /// Pop `hi`, `lo`, then the destination; send `buf[lo..=hi]`.
    SendBuf {
        /// Message tag.
        tag: u32,
        /// Buffer slot.
        buf: u32,
    },
    /// Stack holds `[…, src, lo, hi]`. If a message is pending: pop all
    /// three and scatter the payload into `buf[lo..=hi]`. Otherwise leave
    /// the stack untouched and report blocked.
    RecvBuf {
        /// Message tag.
        tag: u32,
        /// Buffer slot.
        buf: u32,
    },
    /// Raise a process fault with this message.
    Fault(String),
    /// Normal termination.
    Halt,
}

/// Symbol tables produced by lowering: slot-number ↔ name maps for
/// locals, distributed arrays, and plain buffers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Symbols {
    /// Local variable names by slot.
    pub vars: Vec<String>,
    /// Distributed array names by slot.
    pub arrays: Vec<String>,
    /// Buffer names by slot.
    pub bufs: Vec<String>,
}

impl Symbols {
    /// Slot of variable `name`, if any.
    pub fn var_slot(&self, name: &str) -> Option<u32> {
        self.vars.iter().position(|v| v == name).map(|i| i as u32)
    }

    /// Slot of array `name`, if any.
    pub fn array_slot(&self, name: &str) -> Option<u32> {
        self.arrays.iter().position(|v| v == name).map(|i| i as u32)
    }

    /// Slot of buffer `name`, if any.
    pub fn buf_slot(&self, name: &str) -> Option<u32> {
        self.bufs.iter().position(|v| v == name).map(|i| i as u32)
    }
}

/// A lowered program for one processor.
#[derive(Debug, Clone, PartialEq)]
pub struct Code {
    /// The instruction stream; ends with [`Instr::Halt`].
    pub instrs: Vec<Instr>,
    /// Name tables.
    pub syms: Symbols,
}

struct Lowerer {
    instrs: Vec<Instr>,
    vars: HashMap<String, u32>,
    arrays: HashMap<String, u32>,
    bufs: HashMap<String, u32>,
    var_names: Vec<String>,
    array_names: Vec<String>,
    buf_names: Vec<String>,
    temp_counter: u32,
}

/// Lower one processor's body.
///
/// # Errors
///
/// [`SpmdError::Lower`] when a statement is structurally invalid (e.g. a
/// receive with no targets).
pub fn lower(body: &[SStmt]) -> Result<Code, SpmdError> {
    let mut l = Lowerer {
        instrs: Vec::new(),
        vars: HashMap::new(),
        arrays: HashMap::new(),
        bufs: HashMap::new(),
        var_names: Vec::new(),
        array_names: Vec::new(),
        buf_names: Vec::new(),
        temp_counter: 0,
    };
    l.stmts(body)?;
    l.instrs.push(Instr::Halt);
    Ok(Code {
        instrs: l.instrs,
        syms: Symbols {
            vars: l.var_names,
            arrays: l.array_names,
            bufs: l.buf_names,
        },
    })
}

impl Lowerer {
    fn var(&mut self, name: &str) -> u32 {
        if let Some(&s) = self.vars.get(name) {
            return s;
        }
        let s = self.var_names.len() as u32;
        self.vars.insert(name.to_owned(), s);
        self.var_names.push(name.to_owned());
        s
    }

    fn array(&mut self, name: &str) -> u32 {
        if let Some(&s) = self.arrays.get(name) {
            return s;
        }
        let s = self.array_names.len() as u32;
        self.arrays.insert(name.to_owned(), s);
        self.array_names.push(name.to_owned());
        s
    }

    fn buf(&mut self, name: &str) -> u32 {
        if let Some(&s) = self.bufs.get(name) {
            return s;
        }
        let s = self.buf_names.len() as u32;
        self.bufs.insert(name.to_owned(), s);
        self.buf_names.push(name.to_owned());
        s
    }

    fn fresh_temp(&mut self) -> u32 {
        let name = format!("$t{}", self.temp_counter);
        self.temp_counter += 1;
        self.var(&name)
    }

    fn stmts(&mut self, body: &[SStmt]) -> Result<(), SpmdError> {
        for s in body {
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &SStmt) -> Result<(), SpmdError> {
        match s {
            SStmt::Let { var, value } => {
                self.expr(value)?;
                let slot = self.var(var);
                self.instrs.push(Instr::Store(slot));
            }
            SStmt::AllocDist {
                array,
                rows,
                cols,
                dist,
            } => {
                self.expr(rows)?;
                self.expr(cols)?;
                let arr = self.array(array);
                self.instrs.push(Instr::AllocDist {
                    arr,
                    dist: dist.clone(),
                });
            }
            SStmt::AllocBuf { buf, len } => {
                self.expr(len)?;
                let b = self.buf(buf);
                self.instrs.push(Instr::AllocBuf { buf: b });
            }
            SStmt::AWrite { array, idx, value } => {
                for e in idx {
                    self.expr(e)?;
                }
                self.expr(value)?;
                let arr = self.array(array);
                self.instrs.push(Instr::AWrite {
                    arr,
                    nd: idx.len() as u8,
                });
            }
            SStmt::AWriteGlobal { array, idx, value } => {
                for e in idx {
                    self.expr(e)?;
                }
                self.expr(value)?;
                let arr = self.array(array);
                self.instrs.push(Instr::AWriteGlobal {
                    arr,
                    nd: idx.len() as u8,
                });
            }
            SStmt::BufWrite { buf, idx, value } => {
                self.expr(value)?;
                self.expr(idx)?;
                let b = self.buf(buf);
                self.instrs.push(Instr::BufWrite { buf: b });
            }
            SStmt::Send { to, tag, values } => {
                if values.is_empty() {
                    return Err(SpmdError::Lower {
                        message: "send with no values".into(),
                    });
                }
                self.expr(to)?;
                for v in values {
                    self.expr(v)?;
                }
                self.instrs.push(Instr::Send {
                    tag: *tag,
                    n: values.len() as u16,
                });
            }
            SStmt::Recv { from, tag, into } => {
                if into.is_empty() {
                    return Err(SpmdError::Lower {
                        message: "receive with no targets".into(),
                    });
                }
                self.expr(from)?;
                self.instrs.push(Instr::Recv {
                    tag: *tag,
                    n: into.len() as u16,
                });
                // Values are on the stack left-to-right (last on top);
                // store them back-to-front.
                for t in into.iter().rev() {
                    match t {
                        RecvTarget::Var(v) => {
                            let slot = self.var(v);
                            self.instrs.push(Instr::Store(slot));
                        }
                        RecvTarget::Buf { buf, idx } => {
                            self.expr(idx)?;
                            let b = self.buf(buf);
                            self.instrs.push(Instr::BufWrite { buf: b });
                        }
                    }
                }
            }
            SStmt::SendBuf {
                to,
                tag,
                buf,
                lo,
                hi,
            } => {
                self.expr(to)?;
                self.expr(lo)?;
                self.expr(hi)?;
                let b = self.buf(buf);
                self.instrs.push(Instr::SendBuf { tag: *tag, buf: b });
            }
            SStmt::RecvBuf {
                from,
                tag,
                buf,
                lo,
                hi,
            } => {
                self.expr(from)?;
                self.expr(lo)?;
                self.expr(hi)?;
                let b = self.buf(buf);
                self.instrs.push(Instr::RecvBuf { tag: *tag, buf: b });
            }
            SStmt::For {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                self.lower_for(var, lo, hi, step, body)?;
            }
            SStmt::If { cond, then, els } => {
                self.expr(cond)?;
                let jmp_else = self.instrs.len();
                self.instrs.push(Instr::JumpIfFalse(usize::MAX));
                self.stmts(then)?;
                if els.is_empty() {
                    let end = self.instrs.len();
                    self.patch_jump(jmp_else, end);
                } else {
                    let jmp_end = self.instrs.len();
                    self.instrs.push(Instr::Jump(usize::MAX));
                    let else_start = self.instrs.len();
                    self.patch_jump(jmp_else, else_start);
                    self.stmts(els)?;
                    let end = self.instrs.len();
                    self.patch_jump(jmp_end, end);
                }
            }
            SStmt::Comment(_) => {}
        }
        Ok(())
    }

    fn lower_for(
        &mut self,
        var: &str,
        lo: &SExpr,
        hi: &SExpr,
        step: &SExpr,
        body: &[SStmt],
    ) -> Result<(), SpmdError> {
        let vslot = self.var(var);
        let hi_slot = self.fresh_temp();
        // init: var = lo; $hi = hi
        self.expr(lo)?;
        self.instrs.push(Instr::Store(vslot));
        self.expr(hi)?;
        self.instrs.push(Instr::Store(hi_slot));
        // The overwhelmingly common case is a constant step, which lets
        // us pick the comparison direction at lowering time.
        let const_step = match step {
            SExpr::Int(k) => Some(*k),
            _ => None,
        };
        if const_step == Some(0) {
            self.instrs
                .push(Instr::Fault("loop step must be non-zero".into()));
            return Ok(());
        }
        let step_slot = if const_step.is_none() {
            let s = self.fresh_temp();
            self.expr(step)?;
            self.instrs.push(Instr::Store(s));
            // A dynamic zero step faults at run time inside the head.
            Some(s)
        } else {
            None
        };
        let head = self.instrs.len();
        match const_step {
            Some(k) => {
                self.instrs.push(Instr::Load(vslot));
                self.instrs.push(Instr::Load(hi_slot));
                self.instrs
                    .push(Instr::Bin(if k > 0 { BinOp::Le } else { BinOp::Ge }));
            }
            None => {
                // (step > 0 and var <= hi) or (step < 0 and var >= hi)
                let s = step_slot.unwrap();
                self.instrs.push(Instr::Load(s));
                self.instrs.push(Instr::PushInt(0));
                self.instrs.push(Instr::Bin(BinOp::Gt));
                self.instrs.push(Instr::Load(vslot));
                self.instrs.push(Instr::Load(hi_slot));
                self.instrs.push(Instr::Bin(BinOp::Le));
                self.instrs.push(Instr::Bin(BinOp::And));
                self.instrs.push(Instr::Load(s));
                self.instrs.push(Instr::PushInt(0));
                self.instrs.push(Instr::Bin(BinOp::Lt));
                self.instrs.push(Instr::Load(vslot));
                self.instrs.push(Instr::Load(hi_slot));
                self.instrs.push(Instr::Bin(BinOp::Ge));
                self.instrs.push(Instr::Bin(BinOp::And));
                self.instrs.push(Instr::Bin(BinOp::Or));
            }
        }
        let exit_jump = self.instrs.len();
        self.instrs.push(Instr::JumpIfFalse(usize::MAX));
        self.stmts(body)?;
        // var += step
        self.instrs.push(Instr::Load(vslot));
        match const_step {
            Some(k) => self.instrs.push(Instr::PushInt(k)),
            None => self.instrs.push(Instr::Load(step_slot.unwrap())),
        }
        self.instrs.push(Instr::Bin(BinOp::Add));
        self.instrs.push(Instr::Store(vslot));
        self.instrs.push(Instr::Jump(head));
        let end = self.instrs.len();
        self.patch_jump(exit_jump, end);
        Ok(())
    }

    fn patch_jump(&mut self, at: usize, target: usize) {
        match &mut self.instrs[at] {
            Instr::Jump(t) | Instr::JumpIfFalse(t) => *t = target,
            other => unreachable!("patching non-jump {other:?}"),
        }
    }

    fn expr(&mut self, e: &SExpr) -> Result<(), SpmdError> {
        match e {
            SExpr::Int(v) => self.instrs.push(Instr::PushInt(*v)),
            SExpr::Float(v) => self.instrs.push(Instr::PushFloat(*v)),
            SExpr::Bool(v) => self.instrs.push(Instr::PushBool(*v)),
            SExpr::Var(name) => {
                let slot = self.var(name);
                self.instrs.push(Instr::Load(slot));
            }
            SExpr::Bin(op, a, b) => {
                self.expr(a)?;
                self.expr(b)?;
                self.instrs.push(Instr::Bin(*op));
            }
            SExpr::Un(op, a) => {
                self.expr(a)?;
                self.instrs.push(Instr::Un(*op));
            }
            SExpr::MyNode => self.instrs.push(Instr::PushMyNode),
            SExpr::NProcs => self.instrs.push(Instr::PushNProcs),
            SExpr::ARead { array, idx } => {
                for i in idx {
                    self.expr(i)?;
                }
                let arr = self.array(array);
                self.instrs.push(Instr::ARead {
                    arr,
                    nd: idx.len() as u8,
                });
            }
            SExpr::AReadGlobal { array, idx } => {
                for i in idx {
                    self.expr(i)?;
                }
                let arr = self.array(array);
                self.instrs.push(Instr::AReadGlobal {
                    arr,
                    nd: idx.len() as u8,
                });
            }
            SExpr::OwnerOf { array, idx } => {
                for i in idx {
                    self.expr(i)?;
                }
                let arr = self.array(array);
                self.instrs.push(Instr::OwnerOf {
                    arr,
                    nd: idx.len() as u8,
                });
            }
            SExpr::LocalOf { array, idx, dim } => {
                for i in idx {
                    self.expr(i)?;
                }
                let arr = self.array(array);
                self.instrs.push(Instr::LocalOf {
                    arr,
                    nd: idx.len() as u8,
                    dim: *dim as u8,
                });
            }
            SExpr::BufRead { buf, idx } => {
                self.expr(idx)?;
                let b = self.buf(buf);
                self.instrs.push(Instr::BufRead { buf: b });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowers_let_and_arith() {
        let code = lower(&[SStmt::Let {
            var: "x".into(),
            value: SExpr::int(2).add(SExpr::int(3)),
        }])
        .unwrap();
        assert_eq!(
            code.instrs,
            vec![
                Instr::PushInt(2),
                Instr::PushInt(3),
                Instr::Bin(BinOp::Add),
                Instr::Store(0),
                Instr::Halt
            ]
        );
        assert_eq!(code.syms.vars, vec!["x"]);
    }

    #[test]
    fn for_loop_with_const_step_uses_single_compare() {
        let code = lower(&[SStmt::For {
            var: "i".into(),
            lo: SExpr::int(1),
            hi: SExpr::int(3),
            step: SExpr::int(1),
            body: vec![],
        }])
        .unwrap();
        // Head compares Le once (positive step).
        assert!(code.instrs.contains(&Instr::Bin(BinOp::Le)));
        assert!(!code.instrs.contains(&Instr::Bin(BinOp::Or)));
    }

    #[test]
    fn for_loop_with_dynamic_step_handles_both_directions() {
        let code = lower(&[SStmt::For {
            var: "i".into(),
            lo: SExpr::int(1),
            hi: SExpr::int(3),
            step: SExpr::var("s"),
            body: vec![],
        }])
        .unwrap();
        assert!(code.instrs.contains(&Instr::Bin(BinOp::Or)));
    }

    #[test]
    fn zero_const_step_lowers_to_fault() {
        let code = lower(&[SStmt::For {
            var: "i".into(),
            lo: SExpr::int(1),
            hi: SExpr::int(3),
            step: SExpr::int(0),
            body: vec![],
        }])
        .unwrap();
        assert!(code.instrs.iter().any(|i| matches!(i, Instr::Fault(_))));
    }

    #[test]
    fn if_else_patches_jumps() {
        let code = lower(&[SStmt::If {
            cond: SExpr::Bool(true),
            then: vec![SStmt::Let {
                var: "a".into(),
                value: SExpr::int(1),
            }],
            els: vec![SStmt::Let {
                var: "a".into(),
                value: SExpr::int(2),
            }],
        }])
        .unwrap();
        // No unpatched jumps remain.
        for ins in &code.instrs {
            match ins {
                Instr::Jump(t) | Instr::JumpIfFalse(t) => {
                    assert!(*t <= code.instrs.len());
                }
                _ => {}
            }
        }
    }

    #[test]
    fn recv_targets_store_in_reverse() {
        let code = lower(&[SStmt::Recv {
            from: SExpr::int(0),
            tag: 5,
            into: vec![RecvTarget::Var("a".into()), RecvTarget::Var("b".into())],
        }])
        .unwrap();
        let a = code.syms.var_slot("a").unwrap();
        let b = code.syms.var_slot("b").unwrap();
        // After Recv pushes [a_val, b_val], we must store b then a.
        let stores: Vec<_> = code
            .instrs
            .iter()
            .filter_map(|i| match i {
                Instr::Store(s) => Some(*s),
                _ => None,
            })
            .collect();
        assert_eq!(stores, vec![b, a]);
    }

    #[test]
    fn empty_send_is_a_lower_error() {
        let err = lower(&[SStmt::Send {
            to: SExpr::int(1),
            tag: 0,
            values: vec![],
        }])
        .unwrap_err();
        assert!(err.to_string().contains("no values"));
    }

    #[test]
    fn comments_vanish() {
        let code = lower(&[SStmt::Comment("hello".into())]).unwrap();
        assert_eq!(code.instrs, vec![Instr::Halt]);
    }
}
