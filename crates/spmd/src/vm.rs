//! The per-processor virtual machine.

use crate::lower::{Code, Instr, Symbols};
use crate::scalar::{decode_into, encode_into, Scalar};
use pdc_istructure::IMatrix;
use pdc_lang::{binop, unop};
use pdc_machine::{CostModel, Ctr, Fabric, MachineError, ProcId, Process, Step, Tag, Word};
use pdc_mapping::{Dist, DistInstance, OwnerSet};
use std::sync::Arc;

/// The local segment of a distributed I-structure plus its distribution
/// metadata (the Map/Local/Alloc triple instantiated at allocation time).
#[derive(Debug, Clone)]
pub struct DistArray {
    /// The instantiated distribution.
    pub inst: DistInstance,
    /// This processor's local segment (shaped by Alloc).
    pub local: IMatrix<Scalar>,
}

impl DistArray {
    /// Allocate the local segment for an array of global extents
    /// `rows × cols` under `dist` on a machine of `nprocs`.
    pub fn alloc(dist: Dist, rows: usize, cols: usize, nprocs: usize) -> Self {
        let inst = DistInstance::new(dist, rows, cols, nprocs);
        let (lr, lc) = inst.alloc();
        DistArray {
            inst,
            local: IMatrix::new(lr, lc),
        }
    }
}

/// One processor's interpreter. Implements [`Process`] so the machine
/// scheduler can drive it one instruction at a time, or a batch of them
/// ([`Process::step_batch`]); a blocking receive leaves the state
/// untouched and reports itself blocked. The code is behind an [`Arc`]
/// (and the rest of the state is plain data) so a `ProcVm` is `Send` and
/// can run on its own OS thread under the threaded backend.
#[derive(Debug)]
pub struct ProcVm {
    code: Arc<Code>,
    /// The cost model of the machine this VM runs on (debug builds check
    /// every fabric it is stepped on against it), and the cycle cost of
    /// each instruction of `code` under it.
    cost: CostModel,
    costs: Box<[u64]>,
    st: State,
}

/// Everything that changes while the program runs, apart from the code
/// and its cost table, so an instruction can be decoded by reference
/// while it executes.
#[derive(Debug)]
struct State {
    pc: usize,
    stack: Vec<Scalar>,
    locals: Vec<Option<Scalar>>,
    arrays: Vec<Option<DistArray>>,
    bufs: Vec<Option<Vec<Scalar>>>,
    // Scratch arenas for message packing/unpacking: one wire buffer and
    // two scalar staging buffers reused across every send and receive,
    // so the steady state allocates nothing. Always empty between
    // steps, hence excluded from snapshots.
    msg_vals: Vec<Scalar>,
    recv_vals: Vec<Scalar>,
    wire: Vec<Word>,
}

impl ProcVm {
    /// A fresh interpreter for `code` on a machine charging by `cost`: the
    /// per-instruction cycle costs are tabulated here, once.
    pub fn new(code: Arc<Code>, cost: &CostModel) -> Self {
        let nv = code.syms.vars.len();
        let na = code.syms.arrays.len();
        let nb = code.syms.bufs.len();
        ProcVm {
            cost: *cost,
            costs: code.instrs.iter().map(|i| instr_cost(i, cost)).collect(),
            code,
            st: State {
                pc: 0,
                stack: Vec::with_capacity(16),
                locals: vec![None; nv],
                arrays: vec![None; na],
                bufs: vec![None; nb],
                msg_vals: Vec::new(),
                recv_vals: Vec::new(),
                wire: Vec::new(),
            },
        }
    }

    /// The value of local variable `name`, if assigned.
    pub fn var(&self, name: &str) -> Option<Scalar> {
        let slot = self.code.syms.var_slot(name)?;
        self.st.locals[slot as usize]
    }

    /// The distributed-array segment called `name`, if allocated.
    pub fn array(&self, name: &str) -> Option<&DistArray> {
        let slot = self.code.syms.array_slot(name)?;
        self.st.arrays[slot as usize].as_ref()
    }

    /// The buffer called `name`, if allocated.
    pub fn buf(&self, name: &str) -> Option<&[Scalar]> {
        let slot = self.code.syms.buf_slot(name)?;
        self.st.bufs[slot as usize].as_deref()
    }

    /// Has the program halted?
    pub fn is_done(&self) -> bool {
        matches!(self.code.instrs.get(self.st.pc), Some(Instr::Halt) | None)
    }

    /// Install a pre-distributed array segment before execution (input
    /// data that is already resident, as the paper assumes). Returns
    /// `false` when the program never references `name` (the preload is
    /// then irrelevant and skipped).
    pub fn preload_array(&mut self, name: &str, arr: DistArray) -> bool {
        match self.code.syms.array_slot(name) {
            Some(slot) => {
                self.st.arrays[slot as usize] = Some(arr);
                true
            }
            None => false,
        }
    }

    /// Bind a local variable before execution (entry parameters such as
    /// `n`). Returns `false` when the program never references `name`.
    pub fn preset_var(&mut self, name: &str, value: Scalar) -> bool {
        match self.code.syms.var_slot(name) {
            Some(slot) => {
                self.st.locals[slot as usize] = Some(value);
                true
            }
            None => false,
        }
    }
}

/// A fault of the process on `me` that names no program location.
fn fault_of(me: ProcId, message: String) -> MachineError {
    MachineError::ProcessFault { proc: me, message }
}

impl State {
    fn fault(&self, me: ProcId, message: impl Into<String>) -> MachineError {
        fault_of(me, format!("{} (pc {})", message.into(), self.pc))
    }

    fn pop(&mut self, me: ProcId) -> Result<Scalar, MachineError> {
        self.stack
            .pop()
            .ok_or_else(|| self.fault(me, "operand stack underflow"))
    }

    fn pop_int(&mut self, me: ProcId) -> Result<i64, MachineError> {
        let v = self.pop(me)?;
        v.as_int()
            .ok_or_else(|| self.fault(me, format!("expected int, got {}", v.type_name())))
    }

    fn pop_indices(&mut self, me: ProcId, nd: u8) -> Result<(i64, i64), MachineError> {
        match nd {
            1 => {
                let j = self.pop_int(me)?;
                Ok((1, j))
            }
            2 => {
                let j = self.pop_int(me)?;
                let i = self.pop_int(me)?;
                Ok((i, j))
            }
            _ => Err(self.fault(me, format!("unsupported dimensionality {nd}"))),
        }
    }

    fn array_at(
        &mut self,
        syms: &Symbols,
        me: ProcId,
        slot: u32,
    ) -> Result<&mut DistArray, MachineError> {
        self.arrays[slot as usize].as_mut().ok_or_else(|| {
            let name = syms.arrays.get(slot as usize).map_or("", String::as_str);
            fault_of(me, format!("array `{name}` used before allocation"))
        })
    }

    fn buf_at(
        &mut self,
        syms: &Symbols,
        me: ProcId,
        slot: u32,
    ) -> Result<&mut Vec<Scalar>, MachineError> {
        self.bufs[slot as usize].as_mut().ok_or_else(|| {
            let name = syms.bufs.get(slot as usize).map_or("", String::as_str);
            fault_of(me, format!("buffer `{name}` used before allocation"))
        })
    }
}

// ---------------------------------------------------------------------
// Checkpoint codec. A `ProcVm` snapshot is the interpreter's complete
// resumable state — pc, operand stack, locals, buffers, and each
// distributed-array segment (distribution + the set of full I-structure
// cells). Everything derivable from `code` (slot counts, symbol names)
// is *not* serialized; restore validates the image against the code the
// VM was constructed with.

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_scalar(out: &mut Vec<u8>, s: Scalar) {
    match s {
        Scalar::Int(x) => {
            out.push(0);
            put_u64(out, x as u64);
        }
        Scalar::Float(x) => {
            out.push(1);
            put_u64(out, x.to_bits());
        }
        Scalar::Bool(b) => {
            out.push(2);
            put_u64(out, b as u64);
        }
    }
}

fn put_dist(out: &mut Vec<u8>, d: &Dist) {
    match d {
        Dist::Replicated => out.push(0),
        Dist::OnProcessor(p) => {
            out.push(1);
            put_u64(out, *p as u64);
        }
        Dist::ColumnCyclic => out.push(2),
        Dist::RowCyclic => out.push(3),
        Dist::ColumnBlock => out.push(4),
        Dist::RowBlock => out.push(5),
        Dist::ColumnBlockCyclic { block } => {
            out.push(6);
            put_u64(out, *block as u64);
        }
        Dist::RowBlockCyclic { block } => {
            out.push(7);
            put_u64(out, *block as u64);
        }
        Dist::Block2d { prows, pcols } => {
            out.push(8);
            put_u64(out, *prows as u64);
            put_u64(out, *pcols as u64);
        }
        Dist::ColumnAssigned { table } => {
            out.push(9);
            put_u64(out, table.len() as u64);
            for p in table.iter() {
                put_u64(out, *p as u64);
            }
        }
    }
}

/// Bounds-checked little-endian reader over a snapshot image.
struct Rd<'a> {
    b: &'a [u8],
    at: usize,
}

impl<'a> Rd<'a> {
    fn u8(&mut self) -> Option<u8> {
        let v = *self.b.get(self.at)?;
        self.at += 1;
        Some(v)
    }

    fn u64(&mut self) -> Option<u64> {
        let bytes = self.b.get(self.at..self.at + 8)?;
        self.at += 8;
        Some(u64::from_le_bytes(bytes.try_into().ok()?))
    }

    fn usize(&mut self) -> Option<usize> {
        usize::try_from(self.u64()?).ok()
    }

    fn scalar(&mut self) -> Option<Scalar> {
        let tag = self.u8()?;
        let bits = self.u64()?;
        Some(match tag {
            0 => Scalar::Int(bits as i64),
            1 => Scalar::Float(f64::from_bits(bits)),
            2 => Scalar::Bool(bits != 0),
            _ => return None,
        })
    }

    fn dist(&mut self) -> Option<Dist> {
        Some(match self.u8()? {
            0 => Dist::Replicated,
            1 => Dist::OnProcessor(self.usize()?),
            2 => Dist::ColumnCyclic,
            3 => Dist::RowCyclic,
            4 => Dist::ColumnBlock,
            5 => Dist::RowBlock,
            6 => Dist::ColumnBlockCyclic {
                block: self.usize()?,
            },
            7 => Dist::RowBlockCyclic {
                block: self.usize()?,
            },
            8 => Dist::Block2d {
                prows: self.usize()?,
                pcols: self.usize()?,
            },
            9 => {
                let n = self.usize()?;
                if n > self.b.len() {
                    return None;
                }
                let mut table = Vec::with_capacity(n);
                for _ in 0..n {
                    table.push(self.usize()?);
                }
                Dist::ColumnAssigned {
                    table: Arc::new(table),
                }
            }
            _ => return None,
        })
    }
}

impl ProcVm {
    fn snapshot_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u64(&mut out, self.st.pc as u64);
        put_u64(&mut out, self.st.stack.len() as u64);
        for s in &self.st.stack {
            put_scalar(&mut out, *s);
        }
        put_u64(&mut out, self.st.locals.len() as u64);
        for slot in &self.st.locals {
            match slot {
                None => out.push(0),
                Some(v) => {
                    out.push(1);
                    put_scalar(&mut out, *v);
                }
            }
        }
        put_u64(&mut out, self.st.bufs.len() as u64);
        for slot in &self.st.bufs {
            match slot {
                None => out.push(0),
                Some(b) => {
                    out.push(1);
                    put_u64(&mut out, b.len() as u64);
                    for v in b {
                        put_scalar(&mut out, *v);
                    }
                }
            }
        }
        put_u64(&mut out, self.st.arrays.len() as u64);
        for slot in &self.st.arrays {
            match slot {
                None => out.push(0),
                Some(a) => {
                    out.push(1);
                    put_dist(&mut out, a.inst.dist());
                    let (rows, cols) = a.inst.extents();
                    put_u64(&mut out, rows as u64);
                    put_u64(&mut out, cols as u64);
                    put_u64(&mut out, a.inst.nprocs() as u64);
                    // Only the full cells; empties stay empty so the
                    // I-structure write-once discipline survives restart.
                    let full: Vec<(usize, Scalar)> = a
                        .local
                        .as_linear()
                        .iter_full()
                        .map(|(i, v)| (i, *v))
                        .collect();
                    put_u64(&mut out, full.len() as u64);
                    for (i, v) in full {
                        put_u64(&mut out, i as u64);
                        put_scalar(&mut out, v);
                    }
                }
            }
        }
        out
    }

    fn restore_bytes(&mut self, state: &[u8]) -> Option<()> {
        let mut r = Rd { b: state, at: 0 };
        let pc = r.usize()?;
        if pc > self.code.instrs.len() {
            return None;
        }
        let n_stack = r.usize()?;
        if n_stack > state.len() {
            return None;
        }
        let mut stack = Vec::with_capacity(n_stack);
        for _ in 0..n_stack {
            stack.push(r.scalar()?);
        }
        if r.usize()? != self.st.locals.len() {
            return None;
        }
        let mut locals = Vec::with_capacity(self.st.locals.len());
        for _ in 0..self.st.locals.len() {
            locals.push(match r.u8()? {
                0 => None,
                1 => Some(r.scalar()?),
                _ => return None,
            });
        }
        if r.usize()? != self.st.bufs.len() {
            return None;
        }
        let mut bufs = Vec::with_capacity(self.st.bufs.len());
        for _ in 0..self.st.bufs.len() {
            bufs.push(match r.u8()? {
                0 => None,
                1 => {
                    let n = r.usize()?;
                    if n > state.len() {
                        return None;
                    }
                    let mut b = Vec::with_capacity(n);
                    for _ in 0..n {
                        b.push(r.scalar()?);
                    }
                    Some(b)
                }
                _ => return None,
            });
        }
        if r.usize()? != self.st.arrays.len() {
            return None;
        }
        let mut arrays = Vec::with_capacity(self.st.arrays.len());
        for _ in 0..self.st.arrays.len() {
            arrays.push(match r.u8()? {
                0 => None,
                1 => {
                    let dist = r.dist()?;
                    let rows = r.usize()?;
                    let cols = r.usize()?;
                    let nprocs = r.usize()?;
                    if nprocs == 0 {
                        return None;
                    }
                    let mut arr = DistArray::alloc(dist, rows, cols, nprocs);
                    let lcols = arr.local.cols();
                    let n_full = r.usize()?;
                    if n_full > state.len() {
                        return None;
                    }
                    for _ in 0..n_full {
                        let idx = r.usize()?;
                        let v = r.scalar()?;
                        if lcols == 0 {
                            return None;
                        }
                        let (li, lj) = ((idx / lcols + 1) as i64, (idx % lcols + 1) as i64);
                        arr.local.write(li, lj, v).ok()?;
                    }
                    Some(arr)
                }
                _ => return None,
            });
        }
        if r.at != state.len() {
            return None;
        }
        self.st.pc = pc;
        self.st.stack = stack;
        self.st.locals = locals;
        self.st.bufs = bufs;
        self.st.arrays = arrays;
        Some(())
    }
}

/// Record whether a pack/unpack reused its scratch arena or had to
/// grow it. Capacity evolution is a deterministic function of the
/// per-processor message-size sequence, so these counters are logical:
/// fault-free runs must agree across backends.
#[inline]
fn note_scratch(machine: &mut dyn Fabric, me: ProcId, grew: bool) {
    if let Some(reg) = machine.metrics() {
        let c = if grew {
            Ctr::ScratchGrow
        } else {
            Ctr::ScratchReuse
        };
        reg.count(me.0, c, 1);
    }
}

/// Cycle cost of one instruction under the machine's cost model.
/// Communication instructions charge through `send`/`try_recv` instead.
fn instr_cost(instr: &Instr, c: &CostModel) -> u64 {
    match instr {
        Instr::PushInt(_) | Instr::PushFloat(_) | Instr::PushBool(_) => 0,
        Instr::PushMyNode | Instr::PushNProcs => 0,
        Instr::Load(_) | Instr::Store(_) => c.mem_op,
        Instr::Bin(_) | Instr::Un(_) => c.alu_op,
        Instr::Jump(_) => 0,
        Instr::JumpIfFalse(_) => c.loop_overhead,
        Instr::AllocDist { .. } | Instr::AllocBuf { .. } => c.mem_op,
        Instr::ARead { .. } | Instr::AWrite { .. } => c.istruct_op,
        // Global access evaluates the Map/Local functions at run time.
        Instr::AReadGlobal { .. } | Instr::AWriteGlobal { .. } => c.istruct_op + 2 * c.alu_op,
        Instr::OwnerOf { .. } | Instr::LocalOf { .. } => 2 * c.alu_op,
        Instr::BufRead { .. } | Instr::BufWrite { .. } => c.mem_op,
        // Charged by the fabric.
        Instr::Send { .. } | Instr::Recv { .. } | Instr::SendBuf { .. } | Instr::RecvBuf { .. } => {
            0
        }
        Instr::Fault(_) | Instr::Halt => 0,
    }
}

/// Compute charges a run of instructions has earned and not yet handed
/// to the fabric. They are handed over before every fabric operation and
/// before control returns to the driver, which is what keeps logical time
/// independent of how a run is cut into steps and batches.
#[derive(Default)]
struct Charges {
    cycles: u64,
    ops: u64,
}

impl Charges {
    #[inline]
    fn flush(&mut self, machine: &mut dyn Fabric, me: ProcId) {
        if self.ops > 0 {
            machine.tick_n(me, self.cycles, self.ops);
            *self = Charges::default();
        }
    }
}

impl State {
    /// Execute the instruction at `pc`, adding what it costs to `charges`.
    /// A blocked receive and a halt cost nothing and leave the state as it
    /// was, so they can be retried; a fault ends the program.
    #[inline(always)]
    fn exec(
        &mut self,
        code: &Code,
        costs: &[u64],
        machine: &mut dyn Fabric,
        me: ProcId,
        charges: &mut Charges,
    ) -> Result<Step, MachineError> {
        let (Some(instr), Some(&cost)) = (code.instrs.get(self.pc), costs.get(self.pc)) else {
            return Ok(Step::Done);
        };
        let syms = &code.syms;
        let mut next = self.pc + 1;
        match instr {
            Instr::Halt => return Ok(Step::Done),
            Instr::Fault(msg) => return Err(self.fault(me, msg.as_str())),
            Instr::PushInt(v) => self.stack.push(Scalar::Int(*v)),
            Instr::PushFloat(v) => self.stack.push(Scalar::Float(*v)),
            Instr::PushBool(v) => self.stack.push(Scalar::Bool(*v)),
            Instr::PushMyNode => self.stack.push(Scalar::Int(me.0 as i64)),
            Instr::PushNProcs => self.stack.push(Scalar::Int(machine.n_procs() as i64)),
            Instr::Load(slot) => {
                let v = self.locals[*slot as usize].ok_or_else(|| {
                    self.fault(
                        me,
                        format!(
                            "variable `{}` read before assignment",
                            syms.vars[*slot as usize]
                        ),
                    )
                })?;
                self.stack.push(v);
            }
            Instr::Store(slot) => {
                let v = self.pop(me)?;
                self.locals[*slot as usize] = Some(v);
            }
            Instr::Bin(op) => {
                let r = self.pop(me)?;
                let l = self.pop(me)?;
                let v = binop(*op, l, r).map_err(|e| self.fault(me, e.to_string()))?;
                self.stack.push(v);
            }
            Instr::Un(op) => {
                let v = self.pop(me)?;
                let v = unop(*op, v).map_err(|e| self.fault(me, e.to_string()))?;
                self.stack.push(v);
            }
            Instr::Jump(t) => next = *t,
            Instr::JumpIfFalse(t) => {
                let v = self.pop(me)?;
                let b = v
                    .as_bool()
                    .ok_or_else(|| self.fault(me, "branch on non-boolean"))?;
                if !b {
                    next = *t;
                }
            }
            Instr::AllocDist { arr, dist } => {
                let cols = self.pop_int(me)?;
                let rows = self.pop_int(me)?;
                if rows < 0 || cols < 0 {
                    return Err(self.fault(me, "negative array extent"));
                }
                self.arrays[*arr as usize] = Some(DistArray::alloc(
                    dist.clone(),
                    rows as usize,
                    cols as usize,
                    machine.n_procs(),
                ));
            }
            Instr::AllocBuf { buf } => {
                let len = self.pop_int(me)?;
                if len < 0 {
                    return Err(self.fault(me, "negative buffer length"));
                }
                self.bufs[*buf as usize] = Some(vec![Scalar::Int(0); len as usize]);
            }
            Instr::ARead { arr, nd } => {
                let (li, lj) = self.pop_indices(me, *nd)?;
                let a = self.array_at(syms, me, *arr)?;
                let v = a
                    .local
                    .read(li, lj)
                    .copied()
                    .map_err(|e| fault_of(me, e.to_string()))?;
                self.stack.push(v);
            }
            Instr::AWrite { arr, nd } => {
                let v = self.pop(me)?;
                let (li, lj) = self.pop_indices(me, *nd)?;
                let a = self.array_at(syms, me, *arr)?;
                a.local
                    .write(li, lj, v)
                    .map_err(|e| fault_of(me, e.to_string()))?;
            }
            Instr::AReadGlobal { arr, nd } => {
                let (i, j) = self.pop_indices(me, *nd)?;
                let a = self.array_at(syms, me, *arr)?;
                if !a.inst.owner(i, j).contains(me.0) {
                    return Err(fault_of(
                        me,
                        format!("global read of ({i},{j}) on non-owner {me}"),
                    ));
                }
                let (li, lj) = a.inst.local(i, j);
                let v = a
                    .local
                    .read(li, lj)
                    .copied()
                    .map_err(|e| fault_of(me, e.to_string()))?;
                self.stack.push(v);
            }
            Instr::AWriteGlobal { arr, nd } => {
                let v = self.pop(me)?;
                let (i, j) = self.pop_indices(me, *nd)?;
                let a = self.array_at(syms, me, *arr)?;
                if !a.inst.owner(i, j).contains(me.0) {
                    return Err(fault_of(
                        me,
                        format!("global write of ({i},{j}) on non-owner {me}"),
                    ));
                }
                let (li, lj) = a.inst.local(i, j);
                a.local
                    .write(li, lj, v)
                    .map_err(|e| fault_of(me, e.to_string()))?;
            }
            Instr::OwnerOf { arr, nd } => {
                let (i, j) = self.pop_indices(me, *nd)?;
                let a = self.array_at(syms, me, *arr)?;
                let owner = match a.inst.owner(i, j) {
                    OwnerSet::One(p) => p as i64,
                    // Replicated data is owned locally for coercion
                    // purposes: reading it never needs a message.
                    OwnerSet::All => me.0 as i64,
                };
                self.stack.push(Scalar::Int(owner));
            }
            Instr::LocalOf { arr, nd, dim } => {
                let (i, j) = self.pop_indices(me, *nd)?;
                let a = self.array_at(syms, me, *arr)?;
                let (li, lj) = a.inst.local(i, j);
                self.stack
                    .push(Scalar::Int(if *dim == 0 { li } else { lj }));
            }
            Instr::BufRead { buf } => {
                let idx = self.pop_int(me)?;
                let b = self.buf_at(syms, me, *buf)?;
                let v = *buf_cell(b, idx).map_err(|len| {
                    fault_of(me, format!("buffer index {idx} out of bounds ({len})"))
                })?;
                self.stack.push(v);
            }
            Instr::BufWrite { buf } => {
                let idx = self.pop_int(me)?;
                let v = self.pop(me)?;
                let b = self.buf_at(syms, me, *buf)?;
                *buf_cell(b, idx).map_err(|len| {
                    fault_of(me, format!("buffer index {idx} out of bounds ({len})"))
                })? = v;
            }
            Instr::Send { tag, n } => {
                let mut vals = std::mem::take(&mut self.msg_vals);
                vals.clear();
                for _ in 0..*n {
                    vals.push(self.pop(me)?);
                }
                vals.reverse();
                let dst = self.send_target(machine, me)?;
                let mut wire = std::mem::take(&mut self.wire);
                wire.clear();
                let cap = wire.capacity();
                encode_into(&vals, &mut wire);
                note_scratch(machine, me, wire.capacity() > cap);
                charges.flush(machine, me);
                machine.send_ref(me, dst, Tag(*tag), &wire);
                self.msg_vals = vals;
                self.wire = wire;
            }
            Instr::Recv { tag, n } => {
                // Peek (do not pop) the source so a blocked receive can
                // be retried verbatim.
                let Some(&src_v) = self.stack.last() else {
                    return Err(self.fault(me, "operand stack underflow"));
                };
                let src = self.recv_source(machine, me, src_v)?;
                let mut words = std::mem::take(&mut self.wire);
                charges.flush(machine, me);
                if !machine.try_recv_into(me, src, Tag(*tag), &mut words) {
                    self.wire = words;
                    return Ok(Step::BlockedOnRecv {
                        src,
                        tag: Tag(*tag),
                    });
                }
                self.stack.pop(); // consume the source
                let mut vals = std::mem::take(&mut self.recv_vals);
                vals.clear();
                let cap = vals.capacity();
                if !decode_into(&words, &mut vals) {
                    return Err(self.fault(me, "malformed message payload"));
                }
                note_scratch(machine, me, vals.capacity() > cap);
                if vals.len() != *n as usize {
                    return Err(self.fault(
                        me,
                        format!("expected {n} value(s), message has {}", vals.len()),
                    ));
                }
                self.stack.extend(vals.iter().copied());
                self.recv_vals = vals;
                self.wire = words;
            }
            Instr::SendBuf { tag, buf } => {
                let hi = self.pop_int(me)?;
                let lo = self.pop_int(me)?;
                let dst = self.send_target(machine, me)?;
                if lo < 0 || hi < lo {
                    return Err(self.fault(me, format!("bad buffer slice {lo}..={hi}")));
                }
                let mut wire = std::mem::take(&mut self.wire);
                wire.clear();
                let b = self.buf_at(syms, me, *buf)?;
                if hi as usize >= b.len() {
                    return Err(fault_of(
                        me,
                        format!("buffer slice {lo}..={hi} out of bounds"),
                    ));
                }
                let cap = wire.capacity();
                encode_into(&b[lo as usize..=hi as usize], &mut wire);
                note_scratch(machine, me, wire.capacity() > cap);
                charges.flush(machine, me);
                machine.send_ref(me, dst, Tag(*tag), &wire);
                self.wire = wire;
            }
            Instr::RecvBuf { tag, buf } => {
                let len = self.stack.len();
                if len < 3 {
                    return Err(self.fault(me, "operand stack underflow"));
                }
                let src = self.recv_source(machine, me, self.stack[len - 3])?;
                let mut words = std::mem::take(&mut self.wire);
                charges.flush(machine, me);
                if !machine.try_recv_into(me, src, Tag(*tag), &mut words) {
                    self.wire = words;
                    return Ok(Step::BlockedOnRecv {
                        src,
                        tag: Tag(*tag),
                    });
                }
                let hi = self.pop_int(me)?;
                let lo = self.pop_int(me)?;
                self.stack.pop(); // source
                if lo < 0 || hi < lo {
                    return Err(self.fault(me, format!("bad buffer slice {lo}..={hi}")));
                }
                let mut vals = std::mem::take(&mut self.recv_vals);
                vals.clear();
                let cap = vals.capacity();
                if !decode_into(&words, &mut vals) {
                    return Err(self.fault(me, "malformed message payload"));
                }
                note_scratch(machine, me, vals.capacity() > cap);
                let want = (hi - lo + 1) as usize;
                if vals.len() != want {
                    return Err(self.fault(
                        me,
                        format!("expected {want} value(s), message has {}", vals.len()),
                    ));
                }
                let b = self.buf_at(syms, me, *buf)?;
                if hi as usize >= b.len() {
                    return Err(fault_of(
                        me,
                        format!("buffer slice {lo}..={hi} out of bounds"),
                    ));
                }
                b[lo as usize..=hi as usize].copy_from_slice(&vals);
                self.recv_vals = vals;
                self.wire = words;
            }
        }
        charges.cycles += cost;
        charges.ops += 1;
        self.pc = next;
        Ok(Step::Ran)
    }

    /// Pop the destination of a send and validate it.
    fn send_target(&mut self, machine: &dyn Fabric, me: ProcId) -> Result<ProcId, MachineError> {
        let dst = self.pop_int(me)?;
        if dst == me.0 as i64 {
            return Err(self.fault(me, "send to self (coerce must be a local read)"));
        }
        if dst < 0 || dst as usize >= machine.n_procs() {
            return Err(self.fault(me, format!("send to invalid processor {dst}")));
        }
        Ok(ProcId(dst as usize))
    }

    /// Validate the (peeked) source operand of a receive.
    fn recv_source(
        &self,
        machine: &dyn Fabric,
        me: ProcId,
        operand: Scalar,
    ) -> Result<ProcId, MachineError> {
        let src = operand
            .as_int()
            .ok_or_else(|| self.fault(me, "receive source must be an int"))?;
        if src < 0 || src as usize >= machine.n_procs() {
            return Err(self.fault(me, format!("receive from invalid processor {src}")));
        }
        Ok(ProcId(src as usize))
    }
}

/// Cell `idx` of a buffer, or the buffer's length when `idx` is outside
/// it (below zero included: a negative index is a fault, not cell 0).
fn buf_cell(buf: &mut [Scalar], idx: i64) -> Result<&mut Scalar, usize> {
    let len = buf.len();
    usize::try_from(idx)
        .ok()
        .and_then(|i| buf.get_mut(i))
        .ok_or(len)
}

impl Process for ProcVm {
    fn snapshot(&self) -> Option<Vec<u8>> {
        Some(self.snapshot_bytes())
    }

    fn restore(&mut self, state: &[u8]) -> bool {
        self.restore_bytes(state).is_some()
    }

    fn step(&mut self, machine: &mut dyn Fabric, me: ProcId) -> Result<Step, MachineError> {
        debug_assert_eq!(
            machine.cost_model(),
            &self.cost,
            "built for another machine"
        );
        let mut charges = Charges::default();
        let step = self
            .st
            .exec(&self.code, &self.costs, machine, me, &mut charges);
        charges.flush(machine, me);
        step
    }

    fn step_batch(
        &mut self,
        machine: &mut dyn Fabric,
        me: ProcId,
        max: u64,
    ) -> Result<(u64, Step), MachineError> {
        debug_assert_eq!(
            machine.cost_model(),
            &self.cost,
            "built for another machine"
        );
        let mut charges = Charges::default();
        let mut ran = 0;
        let last = loop {
            ran += 1;
            match self
                .st
                .exec(&self.code, &self.costs, machine, me, &mut charges)
            {
                Ok(Step::Ran) if ran < max => {}
                last => break last,
            }
        };
        charges.flush(machine, me);
        Ok((ran, last?))
    }

    fn step_batch_until(
        &mut self,
        machine: &mut dyn Fabric,
        me: ProcId,
        max: u64,
        min_ops: u64,
        min_cycles: u64,
    ) -> Result<(u64, Step), MachineError> {
        debug_assert_eq!(
            machine.cost_model(),
            &self.cost,
            "built for another machine"
        );
        let mut charges = Charges::default();
        let mut ran = 0;
        let last = loop {
            let on_fabric = matches!(
                self.code.instrs.get(self.st.pc),
                Some(
                    Instr::Send { .. }
                        | Instr::Recv { .. }
                        | Instr::SendBuf { .. }
                        | Instr::RecvBuf { .. }
                )
            );
            ran += 1;
            match self
                .st
                .exec(&self.code, &self.costs, machine, me, &mut charges)
            {
                // Charges are only flushed ahead of a fabric operation,
                // and the batch ends right after one: up to here
                // `charges.cycles` is the whole batch's.
                Ok(Step::Ran)
                    if ran < max
                        && !on_fabric
                        && (ran < min_ops || charges.cycles < min_cycles) => {}
                last => break last,
            }
        };
        charges.flush(machine, me);
        Ok((ran, last?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{SExpr, SStmt};
    use crate::lower::lower;
    use crate::scalar::encode;
    use pdc_machine::Machine;

    fn run_single(body: Vec<SStmt>) -> (ProcVm, Machine) {
        let code = Arc::new(lower(&body).unwrap());
        let mut vm = ProcVm::new(code, &CostModel::zero());
        let mut machine = Machine::new(1, CostModel::zero());
        loop {
            match vm.step(&mut machine, ProcId(0)).unwrap() {
                Step::Done => break,
                Step::Ran => {}
                Step::BlockedOnRecv { .. } => panic!("unexpected block"),
            }
        }
        (vm, machine)
    }

    #[test]
    fn arithmetic_and_locals() {
        let (vm, _) = run_single(vec![
            SStmt::Let {
                var: "x".into(),
                value: SExpr::int(6).mul(SExpr::int(7)),
            },
            SStmt::Let {
                var: "y".into(),
                value: SExpr::var("x").imod(SExpr::int(10)),
            },
        ]);
        assert_eq!(vm.var("x"), Some(Scalar::Int(42)));
        assert_eq!(vm.var("y"), Some(Scalar::Int(2)));
    }

    #[test]
    fn loops_accumulate() {
        let (vm, _) = run_single(vec![
            SStmt::Let {
                var: "acc".into(),
                value: SExpr::int(0),
            },
            SStmt::For {
                var: "i".into(),
                lo: SExpr::int(1),
                hi: SExpr::int(10),
                step: SExpr::int(1),
                body: vec![SStmt::Let {
                    var: "acc".into(),
                    value: SExpr::var("acc").add(SExpr::var("i")),
                }],
            },
        ]);
        assert_eq!(vm.var("acc"), Some(Scalar::Int(55)));
    }

    #[test]
    fn buffers_read_write() {
        let (vm, _) = run_single(vec![
            SStmt::AllocBuf {
                buf: "b".into(),
                len: SExpr::int(4),
            },
            SStmt::BufWrite {
                buf: "b".into(),
                idx: SExpr::int(2),
                value: SExpr::int(9),
            },
            SStmt::Let {
                var: "x".into(),
                value: SExpr::BufRead {
                    buf: "b".into(),
                    idx: Box::new(SExpr::int(2)),
                },
            },
        ]);
        assert_eq!(vm.var("x"), Some(Scalar::Int(9)));
        assert_eq!(vm.buf("b").unwrap()[2], Scalar::Int(9));
    }

    /// Run `body` on one processor until it faults; the fault's message.
    fn fault_of_single(body: Vec<SStmt>) -> String {
        let code = Arc::new(lower(&body).unwrap());
        let mut vm = ProcVm::new(code, &CostModel::zero());
        let mut machine = Machine::new(1, CostModel::zero());
        loop {
            match vm.step(&mut machine, ProcId(0)) {
                Ok(Step::Ran) => {}
                Ok(other) => panic!("expected a fault, got {other:?}"),
                Err(e) => return e.to_string(),
            }
        }
    }

    #[test]
    fn buffer_index_outside_the_buffer_faults_on_either_side() {
        let alloc = SStmt::AllocBuf {
            buf: "b".into(),
            len: SExpr::int(4),
        };
        // -1 used to alias cell 0.
        for idx in [-1, 4] {
            let read = fault_of_single(vec![
                alloc.clone(),
                SStmt::Let {
                    var: "x".into(),
                    value: SExpr::BufRead {
                        buf: "b".into(),
                        idx: Box::new(SExpr::int(idx)),
                    },
                },
            ]);
            let write = fault_of_single(vec![
                alloc.clone(),
                SStmt::BufWrite {
                    buf: "b".into(),
                    idx: SExpr::int(idx),
                    value: SExpr::int(9),
                },
            ]);
            let expected = format!("buffer index {idx} out of bounds (4)");
            assert!(read.contains(&expected), "read at {idx}: {read}");
            assert!(write.contains(&expected), "write at {idx}: {write}");
        }
    }

    #[test]
    fn dist_array_local_access_on_single_proc() {
        let (vm, _) = run_single(vec![
            SStmt::AllocDist {
                array: "A".into(),
                rows: SExpr::int(2),
                cols: SExpr::int(2),
                dist: Dist::ColumnCyclic,
            },
            SStmt::AWriteGlobal {
                array: "A".into(),
                idx: vec![SExpr::int(2), SExpr::int(2)],
                value: SExpr::int(5),
            },
            SStmt::Let {
                var: "v".into(),
                value: SExpr::AReadGlobal {
                    array: "A".into(),
                    idx: vec![SExpr::int(2), SExpr::int(2)],
                },
            },
            SStmt::Let {
                var: "o".into(),
                value: SExpr::OwnerOf {
                    array: "A".into(),
                    idx: vec![SExpr::int(1), SExpr::int(2)],
                },
            },
        ]);
        assert_eq!(vm.var("v"), Some(Scalar::Int(5)));
        // One processor: everything is owned by P0.
        assert_eq!(vm.var("o"), Some(Scalar::Int(0)));
    }

    #[test]
    fn double_write_faults() {
        let code = Arc::new(
            lower(&[
                SStmt::AllocDist {
                    array: "A".into(),
                    rows: SExpr::int(1),
                    cols: SExpr::int(1),
                    dist: Dist::Replicated,
                },
                SStmt::AWrite {
                    array: "A".into(),
                    idx: vec![SExpr::int(1), SExpr::int(1)],
                    value: SExpr::int(1),
                },
                SStmt::AWrite {
                    array: "A".into(),
                    idx: vec![SExpr::int(1), SExpr::int(1)],
                    value: SExpr::int(2),
                },
            ])
            .unwrap(),
        );
        let mut vm = ProcVm::new(code, &CostModel::zero());
        let mut machine = Machine::new(1, CostModel::zero());
        let mut result = Ok(Step::Ran);
        for _ in 0..100 {
            result = vm.step(&mut machine, ProcId(0));
            if result.is_err() || result == Ok(Step::Done) {
                break;
            }
        }
        let err = result.unwrap_err();
        assert!(err.to_string().contains("written twice"));
    }

    #[test]
    fn read_before_assignment_faults() {
        let code = Arc::new(
            lower(&[SStmt::Let {
                var: "y".into(),
                value: SExpr::var("x"),
            }])
            .unwrap(),
        );
        let mut vm = ProcVm::new(code, &CostModel::zero());
        let mut machine = Machine::new(1, CostModel::zero());
        let err = vm.step(&mut machine, ProcId(0)).unwrap_err();
        assert!(err.to_string().contains("read before assignment"));
    }

    #[test]
    fn send_to_self_faults() {
        let code = Arc::new(
            lower(&[SStmt::Send {
                to: SExpr::my_node(),
                tag: 0,
                values: vec![SExpr::int(1)],
            }])
            .unwrap(),
        );
        let mut vm = ProcVm::new(code, &CostModel::zero());
        let mut machine = Machine::new(2, CostModel::zero());
        let mut last = Ok(Step::Ran);
        for _ in 0..10 {
            last = vm.step(&mut machine, ProcId(0));
            if last.is_err() {
                break;
            }
        }
        assert!(last.unwrap_err().to_string().contains("send to self"));
    }

    #[test]
    fn snapshot_restore_round_trips_mid_run() {
        // Build a VM with every state class populated — locals, a
        // buffer, a dist array with a partially-written segment, and a
        // non-empty operand stack (snapshot mid-receive) — snapshot it,
        // resume the original, then restore a fresh VM from the image
        // and resume that: both must produce identical final state.
        let body = vec![
            SStmt::Let {
                var: "x".into(),
                value: SExpr::int(41),
            },
            SStmt::AllocBuf {
                buf: "b".into(),
                len: SExpr::int(3),
            },
            SStmt::BufWrite {
                buf: "b".into(),
                idx: SExpr::int(1),
                value: SExpr::Float(2.5),
            },
            SStmt::AllocDist {
                array: "A".into(),
                rows: SExpr::int(2),
                cols: SExpr::int(3),
                dist: Dist::ColumnCyclic,
            },
            SStmt::AWriteGlobal {
                array: "A".into(),
                idx: vec![SExpr::int(2), SExpr::int(1)],
                value: SExpr::int(7),
            },
            SStmt::Recv {
                from: SExpr::int(1),
                tag: 0,
                into: vec![crate::ir::RecvTarget::Var("y".into())],
            },
            SStmt::Let {
                var: "z".into(),
                value: SExpr::var("x").add(SExpr::var("y")),
            },
        ];
        let code = Arc::new(lower(&body).unwrap());
        let mut vm = ProcVm::new(code.clone(), &CostModel::zero());
        let mut machine = Machine::new(2, CostModel::zero());
        // Run to the blocked receive; the pending source operand is on
        // the stack when we snapshot.
        loop {
            match vm.step(&mut machine, ProcId(0)).unwrap() {
                Step::BlockedOnRecv { .. } => break,
                Step::Ran => {}
                Step::Done => panic!("finished without blocking"),
            }
        }
        let image = vm.snapshot().expect("ProcVm is checkpointable");

        let finish = |vm: &mut ProcVm, machine: &mut Machine| {
            machine.send_ref(ProcId(1), ProcId(0), Tag(0), &encode(&[Scalar::Int(1)]));
            loop {
                if vm.step(machine, ProcId(0)).unwrap() == Step::Done {
                    break;
                }
            }
        };
        finish(&mut vm, &mut machine);

        let mut restored = ProcVm::new(code, &CostModel::zero());
        assert!(restored.restore(&image), "image must be accepted");
        let mut machine2 = Machine::new(2, CostModel::zero());
        finish(&mut restored, &mut machine2);

        for v in ["x", "y", "z"] {
            assert_eq!(restored.var(v), vm.var(v), "var {v}");
        }
        assert_eq!(restored.buf("b"), vm.buf("b"));
        let (a, b) = (restored.array("A").unwrap(), vm.array("A").unwrap());
        assert_eq!(a.inst, b.inst);
        assert_eq!(a.local.full_count(), b.local.full_count());
        assert_eq!(a.local.peek(1, 1).copied(), b.local.peek(1, 1).copied());

        // A truncated or corrupt image is rejected, not misparsed.
        let fresh = || ProcVm::new(Arc::new(lower(&body).unwrap()), &CostModel::zero());
        assert!(!fresh().restore(&image[..image.len() - 1]));
        assert!(!fresh().restore(b"garbage"));
    }

    #[test]
    fn recv_blocks_then_succeeds() {
        let code = Arc::new(
            lower(&[SStmt::Recv {
                from: SExpr::int(1),
                tag: 3,
                into: vec![crate::ir::RecvTarget::Var("x".into())],
            }])
            .unwrap(),
        );
        let mut vm = ProcVm::new(code, &CostModel::zero());
        let mut machine = Machine::new(2, CostModel::zero());
        // Source expression evaluates, then the receive blocks.
        loop {
            match vm.step(&mut machine, ProcId(0)).unwrap() {
                Step::BlockedOnRecv { src, tag } => {
                    assert_eq!(src, ProcId(1));
                    assert_eq!(tag, Tag(3));
                    break;
                }
                Step::Ran => {}
                Step::Done => panic!("finished without blocking"),
            }
        }
        // Deliver the message and let it finish.
        machine.send_ref(ProcId(1), ProcId(0), Tag(3), &encode(&[Scalar::Int(77)]));
        loop {
            if vm.step(&mut machine, ProcId(0)).unwrap() == Step::Done {
                break;
            }
        }
        assert_eq!(vm.var("x"), Some(Scalar::Int(77)));
    }
}
