//! **Compile-time resolution** (§3.2): specialize the generic
//! run-time-resolution program for each processor.
//!
//! For every assignment the compiler knows the symbolic owner of the
//! left-hand side (the *evaluators*) and of every operand. For a concrete
//! processor `p` it decides membership three-valuedly:
//!
//! * **True** — emit the code unconditionally;
//! * **False** — delete the code (the processor has no role);
//! * **Inconclusive** — emit a run-time ownership guard, exactly the
//!   paper's fallback.
//!
//! Constraints over loop variables are obtained by *solving the mapping
//! equations* (`owner(v) = p`, [`pdc_mapping::solve_for`]); the solutions
//! first appear as residue/range guards and two clean-up passes then
//! restore the shape of the paper's Figure 5:
//!
//! * [`hoist_guards`] — a guard independent of the enclosing loop variable
//!   moves out of the loop (splitting the loop body per role, which is the
//!   loop distribution visible in Figure 5);
//! * [`stride_loops`] — a loop whose body is a single residue-guarded
//!   block becomes a strided loop (`for j = first to N by S`).

use crate::analysis::{Analysis, EvalOwner, OperandInfo};
use crate::inline::Inlined;
use crate::translate::{
    extract_affine, local_index_to_sexpr, owner_to_sexpr, translate_simple,
    translate_with_operands, Operand,
};
use crate::CoreError;
use pdc_lang::ast::{Block, Expr, ExprKind, Stmt};
use pdc_lang::BinOp;
use pdc_mapping::{solve_for, Affine, IterSet, OwnerExpr, Solution};
use pdc_report::{Phase, Remark, RemarkKind, RemarkSink};
use pdc_spmd::ir::{expr_to_string, RecvTarget, SExpr, SStmt, SpmdProgram};
use std::collections::BTreeMap;

/// Maximum operands per statement (tag-space partitioning; must match
/// run-time resolution so the two strategies are comparable).
const MAX_OPERANDS: usize = 64;

/// The width of each statement's tag block: message tag `t` belongs to
/// statement `t / TAG_STRIDE`, operand `t % TAG_STRIDE`.
pub const TAG_STRIDE: u32 = MAX_OPERANDS as u32;

/// Compile the inlined program with compile-time resolution: one
/// specialized body per processor.
///
/// # Errors
///
/// [`CoreError::Unsupported`] for constructs outside the compilable
/// subset.
pub fn compile(inlined: &Inlined, analysis: &Analysis) -> Result<SpmdProgram, CoreError> {
    compile_with_remarks(inlined, analysis, &mut RemarkSink::new()).map(|(p, _)| p)
}

/// [`compile`], additionally emitting one remark per (statement,
/// specialization decision) — aggregated over processors, with a `procs`
/// detail counting how many made the same decision — and returning the
/// statement-id → source-span map (message tag `t` belongs to statement
/// `t / TAG_STRIDE`).
///
/// # Errors
///
/// [`CoreError::Unsupported`] for constructs outside the compilable
/// subset.
pub fn compile_with_remarks(
    inlined: &Inlined,
    analysis: &Analysis,
    sink: &mut RemarkSink,
) -> Result<(SpmdProgram, BTreeMap<u32, pdc_lang::Span>), CoreError> {
    let mut bodies = Vec::with_capacity(analysis.nprocs());
    let mut events: BTreeMap<(u32, Ev), usize> = BTreeMap::new();
    let mut spans: BTreeMap<u32, pdc_lang::Span> = BTreeMap::new();
    for p in 0..analysis.nprocs() {
        let mut cg = Codegen {
            analysis,
            p,
            next_sid: 0,
            loops: Vec::new(),
            events: Vec::new(),
            spans: BTreeMap::new(),
        };
        let mut body = cg.block(&inlined.body)?;
        body = cleanup(body);
        body = hoist_guards(body);
        body = cleanup(body);
        body = stride_loops(body);
        body = cleanup(body);
        bodies.push(body);
        for e in cg.events {
            *events.entry(e).or_insert(0) += 1;
        }
        if p == 0 {
            // Statement ids are assigned in AST walk order, identically
            // on every processor.
            spans = cg.spans;
        }
    }
    for ((sid, ev), procs) in &events {
        let mut r = ev.remark();
        if let Some(k) = ev.operand() {
            r = r.with_tag(sid * TAG_STRIDE + k as u32);
        }
        if let Some(span) = spans.get(sid) {
            r = r.with_span(*span);
        }
        sink.emit(r.detail("procs", procs));
    }
    Ok((SpmdProgram::new(bodies), spans))
}

/// One per-processor specialization decision, recorded during code
/// generation and aggregated across processors into remarks.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    /// The evaluator role is statically absent on this processor.
    EvalDeleted,
    /// Evaluator iterations of a loop variable restricted to a stride.
    EvalRestricted { var: String, modulus: i64 },
    /// A run-time ownership guard decides the evaluator role.
    EvalGuarded,
    /// Replicated target: every processor evaluates its own copy.
    EvalReplicated,
    /// The sender role for operand `k` is statically absent.
    SendDeleted { k: usize },
    /// No send for operand `k`: its owner is always the evaluator.
    SendElided { k: usize },
    /// The `dest != mynode` guard was statically deleted for operand `k`.
    SendGuardDeleted { k: usize },
    /// A run-time destination guard protects the send of operand `k`.
    SendGuarded { k: usize },
    /// The owner of a pinned operand broadcasts it to all processors.
    Broadcast { k: usize },
    /// Operand `k` is always remote here: an unconditional receive.
    RecvAlways { k: usize },
    /// Operand `k` is always local here: a direct read, no message.
    ReadLocal { k: usize },
    /// Local-or-receive for operand `k` is dispatched at run time.
    ReadRuntime { k: usize },
}

impl Ev {
    fn remark(&self) -> Remark {
        use RemarkKind::{Applied, Missed};
        let r = |kind, msg: &str| Remark::new(Phase::CompileTime, kind, msg);
        match self {
            Ev::EvalDeleted => r(Applied, "evaluator role statically deleted"),
            Ev::EvalRestricted { var, modulus } => r(
                Applied,
                "restricted evaluator iterations to a residue class",
            )
            .detail("var", var)
            .detail("stride", modulus),
            Ev::EvalGuarded => r(Missed, "runtime ownership guard decides the evaluator role"),
            Ev::EvalReplicated => r(
                Applied,
                "replicated target: every processor evaluates its own copy",
            ),
            Ev::SendDeleted { .. } => r(Applied, "sender role statically deleted"),
            Ev::SendElided { .. } => r(
                Applied,
                "send elided: operand owner is always the evaluator",
            ),
            Ev::SendGuardDeleted { .. } => r(
                Applied,
                "destination guard statically deleted (owner and evaluator never coincide)",
            ),
            Ev::SendGuarded { .. } => r(Missed, "runtime destination guard protects the send"),
            Ev::Broadcast { .. } => r(
                Applied,
                "pinned operand broadcast by its owner to all processors",
            ),
            Ev::RecvAlways { .. } => {
                r(Applied, "operand always remote here: unconditional receive")
            }
            Ev::ReadLocal { .. } => r(Applied, "operand always local here: direct read"),
            Ev::ReadRuntime { .. } => r(Missed, "local-or-receive dispatched at run time"),
        }
    }

    /// The operand index the event concerns, if any.
    fn operand(&self) -> Option<usize> {
        match self {
            Ev::SendDeleted { k }
            | Ev::SendElided { k }
            | Ev::SendGuardDeleted { k }
            | Ev::SendGuarded { k }
            | Ev::Broadcast { k }
            | Ev::RecvAlways { k }
            | Ev::ReadLocal { k }
            | Ev::ReadRuntime { k } => Some(*k),
            _ => None,
        }
    }
}

/// A static condition for processor membership: a conjunction of per-loop-
/// variable iteration sets and residual run-time guards.
#[derive(Debug, Clone)]
enum Cond {
    /// Statically false: the role never applies to this processor.
    Never,
    /// Conjunction of constraints (empty = statically true).
    Parts {
        per_var: Vec<(String, IterSet)>,
        guards: Vec<SExpr>,
    },
}

impl Cond {
    fn always() -> Cond {
        Cond::Parts {
            per_var: Vec::new(),
            guards: Vec::new(),
        }
    }

    fn guard(g: SExpr) -> Cond {
        Cond::Parts {
            per_var: Vec::new(),
            guards: vec![g],
        }
    }

    fn is_always(&self) -> bool {
        matches!(self, Cond::Parts { per_var, guards } if per_var.is_empty() && guards.is_empty())
    }

    fn and(self, other: Cond) -> Cond {
        match (self, other) {
            (Cond::Never, _) | (_, Cond::Never) => Cond::Never,
            (
                Cond::Parts {
                    mut per_var,
                    mut guards,
                },
                Cond::Parts {
                    per_var: pv2,
                    guards: g2,
                },
            ) => {
                for (v, s) in pv2 {
                    if let Some((_, existing)) = per_var.iter_mut().find(|(w, _)| *w == v) {
                        match existing.intersect(&s) {
                            Some(merged) => *existing = merged,
                            None => return Cond::Never,
                        }
                    } else {
                        per_var.push((v, s));
                    }
                }
                guards.extend(g2);
                Cond::Parts { per_var, guards }
            }
        }
    }

    fn push_guard(&mut self, g: SExpr) {
        if let Cond::Parts { guards, .. } = self {
            guards.push(g);
        }
    }

    /// Wrap `code` in the guards of this condition; per-variable guards
    /// are ordered outermost loop first so the hoisting pass can peel
    /// them from the outside.
    fn wrap(&self, code: Vec<SStmt>, loop_order: &[String]) -> Vec<SStmt> {
        let Cond::Parts { per_var, guards } = self else {
            return Vec::new();
        };
        let mut ordered: Vec<&(String, IterSet)> = per_var.iter().collect();
        ordered.sort_by_key(|(v, _)| loop_order.iter().position(|w| w == v));
        let mut out = code;
        // Innermost guard closest to the code: wrap guards in reverse.
        for g in guards.iter().rev() {
            out = vec![SStmt::If {
                cond: g.clone(),
                then: out,
                els: vec![],
            }];
        }
        for (v, s) in ordered.iter().rev() {
            if let Some(g) = iterset_guard(v, s) {
                out = vec![SStmt::If {
                    cond: g,
                    then: out,
                    els: vec![],
                }];
            }
        }
        out
    }
}

/// Render the guard for `v ∈ s`; `None` when the set is all integers.
fn iterset_guard(v: &str, s: &IterSet) -> Option<SExpr> {
    let mut conjuncts = Vec::new();
    if s.modulus > 1 {
        conjuncts.push(
            SExpr::var(v)
                .imod(SExpr::int(s.modulus))
                .eq(SExpr::int(s.residue)),
        );
    }
    if let Some(lo) = s.lo {
        conjuncts.push(SExpr::Bin(
            BinOp::Ge,
            Box::new(SExpr::var(v)),
            Box::new(SExpr::int(lo)),
        ));
    }
    if let Some(hi) = s.hi {
        conjuncts.push(SExpr::var(v).le(SExpr::int(hi)));
    }
    conjuncts.into_iter().reduce(|a, b| a.and(b))
}

/// `a` covers `b`: every member of `b` is in `a` (conservative).
fn covers(a: &IterSet, b: &IterSet) -> bool {
    let congruence_ok = b.modulus % a.modulus == 0 && b.residue.rem_euclid(a.modulus) == a.residue;
    let lo_ok = match (a.lo, b.lo) {
        (None, _) => true,
        (Some(al), Some(bl)) => al <= bl,
        (Some(_), None) => false,
    };
    let hi_ok = match (a.hi, b.hi) {
        (None, _) => true,
        (Some(ah), Some(bh)) => ah >= bh,
        (Some(_), None) => false,
    };
    congruence_ok && lo_ok && hi_ok
}

struct Codegen<'a> {
    analysis: &'a Analysis,
    p: usize,
    next_sid: u32,
    /// Enclosing loop variables, outermost first.
    loops: Vec<String>,
    /// Specialization decisions made on this processor, per statement.
    events: Vec<(u32, Ev)>,
    /// Source span of each statement id (identical on every processor).
    spans: BTreeMap<u32, pdc_lang::Span>,
}

impl Codegen<'_> {
    /// The membership condition `p ∈ owner` as static constraints.
    fn cond_for(&self, owner: &EvalOwner, op: Option<&Operand>) -> Result<Cond, CoreError> {
        match owner {
            EvalOwner::All => Ok(Cond::always()),
            EvalOwner::Expr(oe) => Ok(self.cond_from_expr(oe)),
            EvalOwner::Dynamic => match op {
                Some(Operand::ArrayRead { array, indices }) => Ok(Cond::guard(
                    SExpr::OwnerOf {
                        array: array.clone(),
                        idx: indices
                            .iter()
                            .map(translate_simple)
                            .collect::<Result<_, _>>()?,
                    }
                    .eq(SExpr::int(self.p as i64)),
                )),
                _ => Err(CoreError::Unsupported {
                    message: "dynamic owner without an array reference".into(),
                    span: pdc_lang::Span::default(),
                }),
            },
        }
    }

    fn cond_from_expr(&self, oe: &OwnerExpr) -> Cond {
        self.cond_from_expr_for(oe, self.p)
    }

    fn cond_from_expr_for(&self, oe: &OwnerExpr, p: usize) -> Cond {
        if let OwnerExpr::Grid { row, col, pcols } = oe {
            let prow = p / pcols;
            let pcol = p % pcols;
            return self
                .cond_from_expr_for(row, prow)
                .and(self.cond_from_expr_for(col, pcol));
        }
        let loop_vars: Vec<String> = oe
            .vars()
            .into_iter()
            .filter(|v| self.loops.contains(v))
            .collect();
        match loop_vars.as_slice() {
            [] => {
                // No loop variables: constant or run-time scalars.
                match oe.as_owner_set() {
                    Some(set) => {
                        if set.contains(p) {
                            Cond::always()
                        } else {
                            Cond::Never
                        }
                    }
                    None => Cond::guard(owner_to_sexpr(oe).eq(SExpr::int(p as i64))),
                }
            }
            [v] => match solve_for(oe, v, p) {
                Solution::Set(s) => Cond::Parts {
                    per_var: vec![(v.clone(), s)],
                    guards: Vec::new(),
                },
                Solution::Empty => Cond::Never,
                Solution::Guard => Cond::guard(owner_to_sexpr(oe).eq(SExpr::int(p as i64))),
            },
            _ => Cond::guard(owner_to_sexpr(oe).eq(SExpr::int(p as i64))),
        }
    }

    fn block(&mut self, b: &Block) -> Result<Vec<SStmt>, CoreError> {
        let mut out = Vec::new();
        for s in &b.stmts {
            self.stmt(s, &mut out)?;
        }
        Ok(out)
    }

    fn stmt(&mut self, s: &Stmt, out: &mut Vec<SStmt>) -> Result<(), CoreError> {
        match s {
            Stmt::Let { name, init, span } => {
                if let ExprKind::Alloc { dims } = &init.kind {
                    let info = self.analysis.array(name)?;
                    let (rows, cols) = match dims.as_slice() {
                        [n] => (SExpr::int(1), translate_simple(n)?),
                        [r, c] => (translate_simple(r)?, translate_simple(c)?),
                        _ => unreachable!("parser enforces 1 or 2 dims"),
                    };
                    out.push(SStmt::AllocDist {
                        array: name.clone(),
                        rows,
                        cols,
                        dist: info.dist.clone(),
                    });
                    return Ok(());
                }
                let roles = self.analysis.roles(s)?.expect("scalar let has roles");
                self.assignment(
                    Target::Scalar { name: name.clone() },
                    init,
                    &roles.eval,
                    &roles.operands,
                    *span,
                    out,
                )
            }
            Stmt::ArrayWrite {
                array,
                indices,
                value,
                span,
            } => {
                let roles = self.analysis.roles(s)?.expect("array write has roles");
                self.assignment(
                    Target::Array {
                        array: array.clone(),
                        indices: indices.clone(),
                    },
                    value,
                    &roles.eval,
                    &roles.operands,
                    *span,
                    out,
                )
            }
            Stmt::For {
                var,
                lo,
                hi,
                step,
                body,
                ..
            } => {
                self.loops.push(var.clone());
                let inner = self.block(body);
                self.loops.pop();
                let inner = inner?;
                if inner.is_empty() {
                    return Ok(());
                }
                out.push(SStmt::For {
                    var: var.clone(),
                    lo: translate_simple(lo)?,
                    hi: translate_simple(hi)?,
                    step: match step {
                        Some(e) => translate_simple(e)?,
                        None => SExpr::int(1),
                    },
                    body: inner,
                });
                Ok(())
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
                ..
            } => {
                let then = self.block(then_blk)?;
                let els = match else_blk {
                    Some(b) => self.block(b)?,
                    None => Vec::new(),
                };
                if then.is_empty() && els.is_empty() {
                    return Ok(());
                }
                out.push(SStmt::If {
                    cond: translate_simple(cond)?,
                    then,
                    els,
                });
                Ok(())
            }
            Stmt::Return { .. } => Ok(()),
            Stmt::ExprStmt { span, .. } => Err(CoreError::Unsupported {
                message: "call survived inlining".into(),
                span: *span,
            }),
        }
    }

    /// Local read of an operand on its owner.
    fn read_local(&self, op: &Operand) -> Result<SExpr, CoreError> {
        match op {
            Operand::ScalarVar { name } => Ok(SExpr::var(name.clone())),
            Operand::ArrayRead { array, indices } => self.read_array_local(array, indices),
        }
    }

    fn read_array_local(&self, array: &str, indices: &[Expr]) -> Result<SExpr, CoreError> {
        let affines: Option<Vec<Affine>> = if self.analysis.array(array)?.dist.is_analyzable() {
            indices.iter().map(extract_affine).collect()
        } else {
            None // table assignments: the VM applies Local at run time
        };
        match affines {
            Some(affs) => {
                let inst = self.analysis.inst(array)?;
                let (i_aff, j_aff) = match affs.as_slice() {
                    [j] => (Affine::constant(1), j.clone()),
                    [i, j] => (i.clone(), j.clone()),
                    _ => {
                        return Err(CoreError::Unsupported {
                            message: "arrays have one or two dimensions".into(),
                            span: pdc_lang::Span::default(),
                        })
                    }
                };
                match inst.local_expr(&i_aff, &j_aff) {
                    Ok((li, lj)) => {
                        let idx = if affs.len() == 1 {
                            vec![local_index_to_sexpr(&lj)]
                        } else {
                            vec![local_index_to_sexpr(&li), local_index_to_sexpr(&lj)]
                        };
                        Ok(SExpr::ARead {
                            array: array.to_owned(),
                            idx,
                        })
                    }
                    // No symbolic Local function: let the VM apply Local
                    // at run time, exactly like the table-assignment path.
                    Err(_) => Ok(SExpr::AReadGlobal {
                        array: array.to_owned(),
                        idx: indices
                            .iter()
                            .map(translate_simple)
                            .collect::<Result<_, _>>()?,
                    }),
                }
            }
            None => Ok(SExpr::AReadGlobal {
                array: array.to_owned(),
                idx: indices
                    .iter()
                    .map(translate_simple)
                    .collect::<Result<_, _>>()?,
            }),
        }
    }

    /// Local write of the assignment target on its owner.
    fn write_local(&self, target: &Target, value: SExpr) -> Result<SStmt, CoreError> {
        match target {
            Target::Scalar { name } => Ok(SStmt::Let {
                var: name.clone(),
                value,
            }),
            Target::Array { array, indices } => {
                let read = self.read_array_local(array, indices)?;
                match read {
                    SExpr::ARead { array, idx } => Ok(SStmt::AWrite { array, idx, value }),
                    SExpr::AReadGlobal { array, idx } => {
                        Ok(SStmt::AWriteGlobal { array, idx, value })
                    }
                    _ => unreachable!("read_array_local returns array reads"),
                }
            }
        }
    }

    /// The run-time expression for an owner (used as a send destination
    /// or receive source).
    fn owner_runtime_expr(
        &self,
        owner: &EvalOwner,
        op: Option<&Operand>,
        target: Option<&Target>,
    ) -> Result<SExpr, CoreError> {
        match owner {
            EvalOwner::All => Ok(SExpr::int(self.p as i64)),
            EvalOwner::Expr(oe) => Ok(owner_to_sexpr(oe)),
            EvalOwner::Dynamic => {
                let (array, indices) = match (op, target) {
                    (Some(Operand::ArrayRead { array, indices }), _) => {
                        (array.clone(), indices.clone())
                    }
                    (_, Some(Target::Array { array, indices })) => (array.clone(), indices.clone()),
                    _ => {
                        return Err(CoreError::Unsupported {
                            message: "dynamic owner without an array reference".into(),
                            span: pdc_lang::Span::default(),
                        })
                    }
                };
                Ok(SExpr::OwnerOf {
                    array,
                    idx: indices
                        .iter()
                        .map(translate_simple)
                        .collect::<Result<_, _>>()?,
                })
            }
        }
    }

    fn assignment(
        &mut self,
        target: Target,
        rhs: &Expr,
        eval: &EvalOwner,
        operands: &[OperandInfo],
        span: pdc_lang::Span,
        out: &mut Vec<SStmt>,
    ) -> Result<(), CoreError> {
        if operands.len() >= MAX_OPERANDS {
            return Err(CoreError::Unsupported {
                message: format!("statement has more than {MAX_OPERANDS} operands"),
                span,
            });
        }
        let sid = self.next_sid;
        self.next_sid += 1;
        self.spans.insert(sid, span);
        let tag = |k: usize| sid * MAX_OPERANDS as u32 + k as u32;

        if matches!(eval, EvalOwner::All) {
            self.events.push((sid, Ev::EvalReplicated));
            return self.assignment_replicated(target, rhs, operands, sid, tag, out);
        }

        let eval_cond = self.cond_for(eval, None).or_else(|_| match &target {
            Target::Array { array, indices } => Ok::<_, CoreError>(Cond::guard(
                SExpr::OwnerOf {
                    array: array.clone(),
                    idx: indices
                        .iter()
                        .map(translate_simple)
                        .collect::<Result<_, _>>()?,
                }
                .eq(SExpr::int(self.p as i64)),
            )),
            Target::Scalar { .. } => Err(CoreError::Unsupported {
                message: "dynamic evaluator for a scalar".into(),
                span,
            }),
        })?;
        match &eval_cond {
            Cond::Never => self.events.push((sid, Ev::EvalDeleted)),
            Cond::Parts { per_var, guards } => {
                for (v, s) in per_var {
                    if s.modulus > 1 {
                        self.events.push((
                            sid,
                            Ev::EvalRestricted {
                                var: v.clone(),
                                modulus: s.modulus,
                            },
                        ));
                    }
                }
                if !guards.is_empty() {
                    self.events.push((sid, Ev::EvalGuarded));
                }
            }
        }
        let eval_dest = self.owner_runtime_expr(eval, None, Some(&target))?;

        // ---- sender roles ----
        for (k, oi) in operands.iter().enumerate() {
            if matches!(oi.owner, EvalOwner::All) {
                continue; // replicated operands are read locally everywhere
            }
            if owner_equals(&oi.owner, eval) {
                self.events.push((sid, Ev::SendElided { k }));
                continue; // owner is always the evaluator: pure local read
            }
            let own_cond = self.cond_for(&oi.owner, Some(&oi.operand))?;
            if matches!(own_cond, Cond::Never) {
                self.events.push((sid, Ev::SendDeleted { k }));
                continue;
            }
            // (owner == p) ∧ ¬(eval == p):
            let mut send_cond = own_cond.clone();
            let negation_static = match (&own_cond, &eval_cond) {
                (_, Cond::Never) => true, // eval never here: always send
                (
                    Cond::Parts {
                        per_var: pv_own,
                        guards: g_own,
                    },
                    Cond::Parts {
                        per_var: pv_eval,
                        guards: g_eval,
                    },
                ) if g_own.is_empty() && g_eval.is_empty() => {
                    // Disjoint on some shared variable → never both.
                    let disjoint = pv_own.iter().any(|(v, a)| {
                        pv_eval
                            .iter()
                            .find(|(w, _)| w == v)
                            .is_some_and(|(_, b)| a.intersect(b).is_none())
                    });
                    if disjoint {
                        true
                    } else {
                        // own ⊆ eval on every axis → never send at all.
                        let own_subsets_eval = pv_eval.iter().all(|(v, b)| {
                            pv_own
                                .iter()
                                .find(|(w, _)| w == v)
                                .is_some_and(|(_, a)| covers(b, a))
                        }) && pv_eval.len() >= pv_own.len()
                            && pv_own
                                .iter()
                                .all(|(v, _)| pv_eval.iter().any(|(w, _)| w == v));
                        if own_subsets_eval && eval_cond.is_always() {
                            // owner implies evaluator: no send role.
                            self.events.push((sid, Ev::SendElided { k }));
                            continue;
                        }
                        false
                    }
                }
                _ => false,
            };
            if negation_static {
                self.events.push((sid, Ev::SendGuardDeleted { k }));
            } else {
                self.events.push((sid, Ev::SendGuarded { k }));
                send_cond.push_guard(eval_dest.clone().ne(SExpr::int(self.p as i64)));
            }
            let code = vec![
                SStmt::Let {
                    var: format!("$v{sid}_{k}"),
                    value: self.read_local(&oi.operand)?,
                },
                SStmt::Send {
                    to: eval_dest.clone(),
                    tag: tag(k),
                    values: vec![SExpr::var(format!("$v{sid}_{k}"))],
                },
            ];
            out.extend(send_cond.wrap(code, &self.loops));
        }

        // ---- evaluator role ----
        if matches!(eval_cond, Cond::Never) {
            return Ok(());
        }
        let mut body = Vec::new();
        let mut replacements = Vec::new();
        for (k, oi) in operands.iter().enumerate() {
            if matches!(oi.owner, EvalOwner::All) || owner_equals(&oi.owner, eval) {
                replacements.push(self.read_local(&oi.operand)?);
                continue;
            }
            let own_cond = self.cond_for(&oi.owner, Some(&oi.operand))?;
            let src = self.owner_runtime_expr(&oi.owner, Some(&oi.operand), None)?;
            let t_var = format!("$t{sid}_{k}");
            let relation = self.operand_relation(&own_cond, &eval_cond);
            match relation {
                Rel::AlwaysLocal => {
                    self.events.push((sid, Ev::ReadLocal { k }));
                    body.push(SStmt::Let {
                        var: t_var.clone(),
                        value: self.read_local(&oi.operand)?,
                    });
                }
                Rel::AlwaysRemote => {
                    self.events.push((sid, Ev::RecvAlways { k }));
                    body.push(SStmt::Recv {
                        from: src,
                        tag: tag(k),
                        into: vec![RecvTarget::Var(t_var.clone())],
                    });
                }
                Rel::Runtime => {
                    self.events.push((sid, Ev::ReadRuntime { k }));
                    body.push(SStmt::If {
                        cond: src.clone().eq(SExpr::int(self.p as i64)),
                        then: vec![SStmt::Let {
                            var: t_var.clone(),
                            value: self.read_local(&oi.operand)?,
                        }],
                        els: vec![SStmt::Recv {
                            from: src,
                            tag: tag(k),
                            into: vec![RecvTarget::Var(t_var.clone())],
                        }],
                    });
                }
            }
            replacements.push(SExpr::var(t_var));
        }
        let is_mapped = |v: &str| self.analysis.is_pinned_scalar(v);
        let value = translate_with_operands(rhs, &is_mapped, &mut replacements.into_iter())?;
        body.push(self.write_local(&target, value)?);
        out.extend(eval_cond.wrap(body, &self.loops));
        Ok(())
    }

    /// Whether, at iterations where the evaluator condition holds on this
    /// processor, the operand is local, remote, or undecidable.
    fn operand_relation(&self, own: &Cond, eval: &Cond) -> Rel {
        match (own, eval) {
            (Cond::Never, _) => Rel::AlwaysRemote,
            (o, _) if o.is_always() => Rel::AlwaysLocal,
            (
                Cond::Parts {
                    per_var: pv_own,
                    guards: g_own,
                },
                Cond::Parts {
                    per_var: pv_eval,
                    guards: g_eval,
                },
            ) if g_own.is_empty() && g_eval.is_empty() => {
                // Single shared variable with comparable sets?
                if let [(v, a)] = pv_own.as_slice() {
                    if let Some((_, b)) = pv_eval.iter().find(|(w, _)| w == v) {
                        if covers(a, b) {
                            return Rel::AlwaysLocal;
                        }
                        if a.intersect(b).is_none() {
                            return Rel::AlwaysRemote;
                        }
                    }
                }
                Rel::Runtime
            }
            _ => Rel::Runtime,
        }
    }

    /// Replicated left-hand side: every processor evaluates its own copy.
    /// Pinned operands are broadcast by their owner.
    fn assignment_replicated(
        &mut self,
        target: Target,
        rhs: &Expr,
        operands: &[OperandInfo],
        sid: u32,
        tag: impl Fn(usize) -> u32,
        out: &mut Vec<SStmt>,
    ) -> Result<(), CoreError> {
        let mut replacements = Vec::new();
        for (k, oi) in operands.iter().enumerate() {
            match &oi.owner {
                EvalOwner::All => replacements.push(self.read_local(&oi.operand)?),
                owner => {
                    let own_cond = self.cond_for(owner, Some(&oi.operand))?;
                    let src = self.owner_runtime_expr(owner, Some(&oi.operand), None)?;
                    let t_var = format!("$b{}_{k}", self.next_sid);
                    match own_cond {
                        c if c.is_always() => {
                            self.events.push((sid, Ev::Broadcast { k }));
                            // This processor owns it: read and broadcast.
                            out.push(SStmt::Let {
                                var: t_var.clone(),
                                value: self.read_local(&oi.operand)?,
                            });
                            for q in 0..self.analysis.nprocs() {
                                if q != self.p {
                                    out.push(SStmt::Send {
                                        to: SExpr::int(q as i64),
                                        tag: tag(k),
                                        values: vec![SExpr::var(t_var.clone())],
                                    });
                                }
                            }
                        }
                        Cond::Never => {
                            self.events.push((sid, Ev::RecvAlways { k }));
                            out.push(SStmt::Recv {
                                from: src,
                                tag: tag(k),
                                into: vec![RecvTarget::Var(t_var.clone())],
                            });
                        }
                        _ => {
                            self.events.push((sid, Ev::ReadRuntime { k }));
                            // Undecidable owner: guard at run time.
                            let q_var = format!("$q{}_{k}", self.next_sid);
                            let mut sends = vec![SStmt::Let {
                                var: t_var.clone(),
                                value: self.read_local(&oi.operand)?,
                            }];
                            sends.push(SStmt::For {
                                var: q_var.clone(),
                                lo: SExpr::int(0),
                                hi: SExpr::int(self.analysis.nprocs() as i64 - 1),
                                step: SExpr::int(1),
                                body: vec![SStmt::If {
                                    cond: SExpr::var(q_var.clone()).ne(SExpr::int(self.p as i64)),
                                    then: vec![SStmt::Send {
                                        to: SExpr::var(q_var.clone()),
                                        tag: tag(k),
                                        values: vec![SExpr::var(t_var.clone())],
                                    }],
                                    els: vec![],
                                }],
                            });
                            out.push(SStmt::If {
                                cond: src.clone().eq(SExpr::int(self.p as i64)),
                                then: sends,
                                els: vec![SStmt::Recv {
                                    from: src,
                                    tag: tag(k),
                                    into: vec![RecvTarget::Var(t_var.clone())],
                                }],
                            });
                        }
                    }
                    replacements.push(SExpr::var(t_var));
                }
            }
        }
        let is_mapped = |v: &str| self.analysis.is_pinned_scalar(v);
        let value = translate_with_operands(rhs, &is_mapped, &mut replacements.into_iter())?;
        out.push(self.write_local(&target, value)?);
        Ok(())
    }
}

fn owner_equals(a: &EvalOwner, b: &EvalOwner) -> bool {
    match (a, b) {
        (EvalOwner::Expr(x), EvalOwner::Expr(y)) => x == y,
        _ => false,
    }
}

/// Whether the operand is local/remote/undecidable at evaluation time.
enum Rel {
    AlwaysLocal,
    AlwaysRemote,
    Runtime,
}

/// Where an assignment's result goes (source-level view; local indices
/// are derived by the code generator).
enum Target {
    Scalar { name: String },
    Array { array: String, indices: Vec<Expr> },
}

// ---------------------------------------------------------------------
// Clean-up passes
// ---------------------------------------------------------------------

/// Does `e` mention variable `v`?
fn mentions(e: &SExpr, v: &str) -> bool {
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

/// Does this statement list perform anything but reads and sends?
fn sends_only(body: &[SStmt]) -> bool {
    body.iter().all(|s| match s {
        SStmt::Let { var, .. } => var.starts_with('$'),
        SStmt::Send { .. } | SStmt::SendBuf { .. } | SStmt::Comment(_) => true,
        SStmt::For { body, .. } => sends_only(body),
        SStmt::If { then, els, .. } => sends_only(then) && sends_only(els),
        _ => false,
    })
}

/// Split a conjunction into its conjuncts.
fn conjuncts(e: &SExpr) -> Vec<SExpr> {
    match e {
        SExpr::Bin(BinOp::And, a, b) => {
            let mut v = conjuncts(a);
            v.extend(conjuncts(b));
            v
        }
        other => vec![other.clone()],
    }
}

/// The `(expr, modulus, residue)` of a residue test `expr mod m == r`.
fn residue_test(e: &SExpr) -> Option<(String, i64, i64)> {
    if let SExpr::Bin(BinOp::Eq, lhs, rhs) = e {
        if let (SExpr::Bin(BinOp::Mod, base, m), SExpr::Int(r)) = (&**lhs, &**rhs) {
            if let SExpr::Int(m) = &**m {
                return Some((expr_to_string(base), *m, *r));
            }
        }
    }
    None
}

/// Hoist loop-invariant guards out of loops, splitting the loop per
/// guarded block (the loop distribution visible in Figure 5).
///
/// `for v { if g1 {A1} … if gk {Ak} }` becomes
/// `if g1 { for v {A1} } … if gk { for v {Ak} }` when every `g_i` is
/// independent of `v` and the blocks cannot interfere: each pair is
/// either mutually exclusive (distinct residues of one expression) or
/// both blocks only read and send.
pub fn hoist_guards(body: Vec<SStmt>) -> Vec<SStmt> {
    body.into_iter()
        .map(|s| match s {
            SStmt::For {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                let body = hoist_guards(body);
                let all_guarded = !body.is_empty()
                    && body.iter().all(|s| {
                        matches!(s, SStmt::If { cond, els, .. }
                             if els.is_empty() && !mentions(cond, &var))
                    });
                if !all_guarded {
                    return SStmt::For {
                        var,
                        lo,
                        hi,
                        step,
                        body,
                    };
                }
                // Check pairwise safety.
                let parts: Vec<(SExpr, Vec<SStmt>)> = body
                    .into_iter()
                    .map(|s| match s {
                        SStmt::If { cond, then, .. } => (cond, then),
                        _ => unreachable!("checked guarded"),
                    })
                    .collect();
                let safe = |a: &(SExpr, Vec<SStmt>), b: &(SExpr, Vec<SStmt>)| {
                    // Mutually exclusive residues of the same base?
                    if let (Some((ba, ma, ra)), Some((bb, mb, rb))) = (
                        residue_test(&conjuncts(&a.0)[0]),
                        residue_test(&conjuncts(&b.0)[0]),
                    ) {
                        if ba == bb && ma == mb && ra != rb {
                            return true;
                        }
                    }
                    sends_only(&a.1) && sends_only(&b.1)
                };
                let all_safe = parts.len() < 2
                    || parts
                        .iter()
                        .enumerate()
                        .all(|(i, a)| parts.iter().skip(i + 1).all(|b| safe(a, b)));
                if !all_safe {
                    return SStmt::For {
                        var,
                        lo,
                        hi,
                        step,
                        body: parts
                            .into_iter()
                            .map(|(cond, then)| SStmt::If {
                                cond,
                                then,
                                els: vec![],
                            })
                            .collect(),
                    };
                }
                // Hoist: one guarded loop per block. Wrap multiple blocks
                // in a sequence — the caller flattens via cleanup().
                let hoisted: Vec<SStmt> = parts
                    .into_iter()
                    .map(|(cond, then)| SStmt::If {
                        cond,
                        then: vec![SStmt::For {
                            var: var.clone(),
                            lo: lo.clone(),
                            hi: hi.clone(),
                            step: step.clone(),
                            body: then,
                        }],
                        els: vec![],
                    })
                    .collect();
                if hoisted.len() == 1 {
                    hoisted.into_iter().next().unwrap()
                } else {
                    // Temporary container; flattened by cleanup().
                    SStmt::If {
                        cond: SExpr::Bool(true),
                        then: hoisted,
                        els: vec![],
                    }
                }
            }
            SStmt::If { cond, then, els } => SStmt::If {
                cond,
                then: hoist_guards(then),
                els: hoist_guards(els),
            },
            other => other,
        })
        .collect()
}

/// Convert `for v = lo to hi by 1 { if (v mod m == r) ∧ rest { B } }`
/// into `for v = first to hi by m { if rest { B } }` — the strided loops
/// of Figure 5 (`for j = p to N by S`).
pub fn stride_loops(body: Vec<SStmt>) -> Vec<SStmt> {
    body.into_iter()
        .map(|s| match s {
            SStmt::For {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                let body = stride_loops(body);
                if step != SExpr::int(1) || body.len() != 1 {
                    return SStmt::For {
                        var,
                        lo,
                        hi,
                        step,
                        body,
                    };
                }
                let SStmt::If { cond, then, els } = body[0].clone() else {
                    return SStmt::For {
                        var,
                        lo,
                        hi,
                        step,
                        body,
                    };
                };
                if !els.is_empty() {
                    return SStmt::For {
                        var,
                        lo,
                        hi,
                        step,
                        body: vec![SStmt::If { cond, then, els }],
                    };
                }
                // Find a conjunct `(v + c) mod m == r`.
                let cs = conjuncts(&cond);
                let mut found: Option<(i64, i64, i64)> = None; // (c, m, r)
                let mut rest = Vec::new();
                for c in cs {
                    if found.is_none() {
                        if let Some((base, m, r)) = residue_test(&c) {
                            if let Some(off) = base_offset(&c, &var) {
                                let _ = base;
                                found = Some((off, m, r));
                                continue;
                            }
                        }
                    }
                    rest.push(c);
                }
                let Some((c, m, r)) = found else {
                    return SStmt::For {
                        var,
                        lo,
                        hi,
                        step,
                        body: vec![SStmt::If { cond, then, els }],
                    };
                };
                // first = lo + ((r - c - lo) mod m)
                let first = match &lo {
                    SExpr::Int(l) => SExpr::int(l + (r - c - l).rem_euclid(m)),
                    lo => lo
                        .clone()
                        .add(SExpr::int(r - c).sub(lo.clone()).imod(SExpr::int(m))),
                };
                let inner = match rest.into_iter().reduce(|a, b| a.and(b)) {
                    None => then,
                    Some(g) => vec![SStmt::If {
                        cond: g,
                        then,
                        els: vec![],
                    }],
                };
                SStmt::For {
                    var,
                    lo: first,
                    hi,
                    step: SExpr::int(m),
                    body: stride_loops(inner),
                }
            }
            SStmt::If { cond, then, els } => SStmt::If {
                cond,
                then: stride_loops(then),
                els: stride_loops(els),
            },
            other => other,
        })
        .collect()
}

/// If `cond` is `(v + c) mod m == r` (with `c` possibly 0 or negative),
/// return `c`.
fn base_offset(cond: &SExpr, v: &str) -> Option<i64> {
    let SExpr::Bin(BinOp::Eq, lhs, _) = cond else {
        return None;
    };
    let SExpr::Bin(BinOp::Mod, base, _) = &**lhs else {
        return None;
    };
    match &**base {
        SExpr::Var(w) if w == v => Some(0),
        SExpr::Bin(BinOp::Add, a, b) => match (&**a, &**b) {
            (SExpr::Var(w), SExpr::Int(c)) if w == v => Some(*c),
            _ => None,
        },
        SExpr::Bin(BinOp::Sub, a, b) => match (&**a, &**b) {
            (SExpr::Var(w), SExpr::Int(c)) if w == v => Some(-*c),
            _ => None,
        },
        _ => None,
    }
}

/// Remove empty loops/ifs, flatten `if (true) { … }` containers, and
/// merge adjacent guards with identical conditions (so that e.g. the two
/// boundary-row copies of a column share one residue test and the loop
/// can then be strided).
pub fn cleanup(body: Vec<SStmt>) -> Vec<SStmt> {
    let out = cleanup_inner(body);
    merge_adjacent_ifs(out)
}

fn merge_adjacent_ifs(body: Vec<SStmt>) -> Vec<SStmt> {
    let mut out: Vec<SStmt> = Vec::new();
    for s in body {
        let s = match s {
            SStmt::If { cond, then, els } => SStmt::If {
                cond,
                then: merge_adjacent_ifs(then),
                els: merge_adjacent_ifs(els),
            },
            SStmt::For {
                var,
                lo,
                hi,
                step,
                body,
            } => SStmt::For {
                var,
                lo,
                hi,
                step,
                body: merge_adjacent_ifs(body),
            },
            other => other,
        };
        match (out.last_mut(), s) {
            (
                Some(SStmt::If {
                    cond: c1,
                    then: t1,
                    els: e1,
                }),
                SStmt::If {
                    cond: c2,
                    then: t2,
                    els: e2,
                },
            ) if *c1 == c2 && e1.is_empty() && e2.is_empty() => {
                t1.extend(t2);
            }
            (_, s) => out.push(s),
        }
    }
    out
}

fn cleanup_inner(body: Vec<SStmt>) -> Vec<SStmt> {
    let mut out = Vec::new();
    for s in body {
        match s {
            SStmt::If { cond, then, els } => {
                let then = cleanup_inner(then);
                let els = cleanup_inner(els);
                if cond == SExpr::Bool(true) {
                    out.extend(then);
                } else if then.is_empty() && els.is_empty() {
                    // drop
                } else {
                    out.push(SStmt::If { cond, then, els });
                }
            }
            SStmt::For {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                let body = cleanup_inner(body);
                if !body.is_empty() {
                    out.push(SStmt::For {
                        var,
                        lo,
                        hi,
                        step,
                        body,
                    });
                }
            }
            other => out.push(other),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::driver::{self, Inputs, Job, Strategy};
    use crate::programs;
    use pdc_machine::CostModel;
    use pdc_mapping::{Decomposition, Dist, ScalarMap};
    use pdc_spmd::Scalar;

    #[test]
    fn figure4d_specialization() {
        // P1: a := 5; send. P2: b := 7; send. P3: recv, recv, add.
        // Other processors: nothing.
        let program = programs::figure4();
        let job = Job::new(&program, "main", programs::figure4_decomposition(4));
        let compiled = driver::compile(&job, Strategy::CompileTime).unwrap();
        let text = compiled.spmd.to_string();
        assert!(text.contains("P0:"), "specialized per processor:\n{text}");
        // P0 has no code at all (it participates in nothing).
        let p0: Vec<_> = compiled.spmd.body(0).to_vec();
        assert!(p0.is_empty(), "P0 should be empty, got {p0:?}");
        // P3 receives from both owners and computes.
        let p3 = compiled.spmd.body(3);
        let s = format!("{p3:?}");
        assert!(s.contains("Recv"));
        // And no ownership guards remain anywhere (all membership was
        // decided statically).
        assert!(!text.contains("mynode"));
    }

    #[test]
    fn figure4_compile_time_runs_with_two_messages() {
        let program = programs::figure4();
        let job = Job::new(&program, "main", programs::figure4_decomposition(4));
        let compiled = driver::compile(&job, Strategy::CompileTime).unwrap();
        let exec = driver::execute(&compiled, &Inputs::new(), CostModel::ipsc2()).unwrap();
        assert_eq!(exec.messages(), 2);
        assert_eq!(exec.machine.vm(3).var("c"), Some(Scalar::Int(12)));
    }

    #[test]
    fn gs_compile_time_matches_sequential() {
        let program = programs::gauss_seidel();
        for s in [1usize, 2, 3, 4] {
            let n = 9usize;
            let job = Job::new(
                &program,
                "gs_iteration",
                programs::wavefront_decomposition(s),
            )
            .with_const("n", n as i64);
            let compiled = driver::compile(&job, Strategy::CompileTime).unwrap();
            let inputs = Inputs::new()
                .scalar("n", Scalar::Int(n as i64))
                .array("Old", driver::standard_input(n, n));
            let exec = driver::execute(&compiled, &inputs, CostModel::zero())
                .unwrap_or_else(|e| panic!("s={s}: {e}"));
            let gathered = exec.gather("New").unwrap();
            let seq = driver::run_sequential(&program, "gs_iteration", &inputs).unwrap();
            assert_eq!(
                driver::first_mismatch(&gathered, &seq),
                None,
                "mismatch at s={s}"
            );
            assert_eq!(exec.outcome.report.undelivered, 0);
        }
    }

    #[test]
    fn gs_compile_time_same_messages_fewer_steps_than_runtime() {
        // §4: "It exchanges as many messages as the run-time version but
        // each processor only participates in those iterations for which
        // it has data."
        let program = programs::gauss_seidel();
        let n = 12usize;
        let s = 4usize;
        let job = Job::new(
            &program,
            "gs_iteration",
            programs::wavefront_decomposition(s),
        )
        .with_const("n", n as i64);
        let inputs = Inputs::new()
            .scalar("n", Scalar::Int(n as i64))
            .array("Old", driver::standard_input(n, n));
        let rt = driver::compile(&job, Strategy::Runtime).unwrap();
        let ct = driver::compile(&job, Strategy::CompileTime).unwrap();
        let rt_exec = driver::execute(&rt, &inputs, CostModel::ipsc2()).unwrap();
        let ct_exec = driver::execute(&ct, &inputs, CostModel::ipsc2()).unwrap();
        assert_eq!(rt_exec.messages(), ct_exec.messages());
        assert!(
            ct_exec.outcome.report.steps < rt_exec.outcome.report.steps,
            "compile-time should execute fewer instructions: {} vs {}",
            ct_exec.outcome.report.steps,
            rt_exec.outcome.report.steps
        );
        assert!(ct_exec.makespan() < rt_exec.makespan());
    }

    #[test]
    fn strided_loop_appears_in_gs_code() {
        let program = programs::gauss_seidel();
        let n = 16usize;
        let job = Job::new(
            &program,
            "gs_iteration",
            programs::wavefront_decomposition(4),
        )
        .with_const("n", n as i64);
        let compiled = driver::compile(&job, Strategy::CompileTime).unwrap();
        let text = compiled.spmd.to_string();
        // The boundary-copy loop over owned columns strides by S=4
        // somewhere in the specialized code.
        assert!(text.contains("+= 4"), "expected a strided loop:\n{text}");
    }

    #[test]
    fn scalar_pinned_broadcast_works() {
        // x:P1 is read by a replicated scalar: owner broadcasts.
        let src = "procedure main() { let x = 9; let y = x + 1; return y; }";
        let program = pdc_lang::parse(src).unwrap();
        let d = Decomposition::new(3).scalar("x", ScalarMap::On(1));
        let job = Job::new(&program, "main", d);
        let compiled = driver::compile(&job, Strategy::CompileTime).unwrap();
        let exec = driver::execute(&compiled, &Inputs::new(), CostModel::ipsc2()).unwrap();
        // Two messages: P1 -> P0 and P1 -> P2.
        assert_eq!(exec.messages(), 2);
        for p in 0..3 {
            assert_eq!(exec.machine.vm(p).var("y"), Some(Scalar::Int(10)));
        }
    }

    #[test]
    fn block_distribution_compile_time_matches_sequential() {
        let program = programs::jacobi();
        let n = 8usize;
        let s = 4usize;
        let d = Decomposition::new(s)
            .array("New", Dist::ColumnBlock)
            .array("Old", Dist::ColumnBlock);
        let job = Job::new(&program, "jacobi", d).with_const("n", n as i64);
        let mut job = job;
        job.extent_overrides.insert("Old".into(), (n, n));
        let compiled = driver::compile(&job, Strategy::CompileTime).unwrap();
        let inputs = Inputs::new()
            .scalar("n", Scalar::Int(n as i64))
            .array("Old", driver::standard_input(n, n));
        let exec = driver::execute(&compiled, &inputs, CostModel::zero()).unwrap();
        let gathered = exec.gather("New").unwrap();
        let seq = driver::run_sequential(&program, "jacobi", &inputs).unwrap();
        assert_eq!(driver::first_mismatch(&gathered, &seq), None);
    }
}
