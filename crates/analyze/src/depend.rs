//! Source-level dependence lints over the inlined program body.
//!
//! Runs the exact loop-dependence framework ([`pdc_depend`]) on every
//! outermost `for` nest of the (inlined) source program and turns the
//! results into [`Phase::Depend`] remarks:
//!
//! * one `applied` summary per nest — loop variables, access and
//!   dependence counts, and the full list of dependences with their
//!   direction/distance vectors — so a report reader can see exactly
//!   what the optimization passes were allowed to assume;
//! * one `missed` **hotspot lint** per loop-carried dependence that
//!   crosses a distributed dimension of the array's decomposition: the
//!   source and sink subscripts differ in a dimension the decomposition
//!   splits across processors, so every carried instance is a message
//!   and the carrying loop serializes into a wavefront;
//! * one `missed` remark per nest whose analysis is inexact, carrying
//!   the reason — the honest "I don't know" that also gates the passes.
//!
//! The lint is deliberately *about the source program*, not the
//! compiled communication: `pdc-analyze`'s replay checks what messages
//! the compiler emitted; this lint explains *why* they are forced, from
//! the dependence structure alone.

use pdc_depend::ast::analyze_for_env;
use pdc_depend::{Access, Dependence};
use pdc_lang::ast::{Block, Stmt};
use pdc_mapping::{Decomposition, Dist};
use pdc_report::{Phase, Remark, RemarkKind};
use std::collections::BTreeMap;

/// The array dimensions a distribution splits across processors.
///
/// A dependence whose subscripts agree in every distributed dimension
/// stays on one processor (the owner of both endpoints is the same);
/// only a difference in a distributed dimension can force a message.
fn distributed_dims(d: &Dist) -> &'static [usize] {
    match d {
        Dist::Replicated | Dist::OnProcessor(_) => &[],
        Dist::ColumnCyclic
        | Dist::ColumnBlock
        | Dist::ColumnBlockCyclic { .. }
        | Dist::ColumnAssigned { .. } => &[1],
        Dist::RowCyclic | Dist::RowBlock | Dist::RowBlockCyclic { .. } => &[0],
        Dist::Block2d { .. } => &[0, 1],
    }
}

/// Does `dep` connect two accesses whose subscripts differ in one of
/// the array's distributed dimensions?
///
/// Compares the canonical subscript forms dimension-wise; a dimension
/// the analysis could not canonicalize (`subs == None`) never reaches
/// here because such accesses make the analysis inexact and the caller
/// reports that separately.
fn crosses_distribution(dep: &Dependence, accesses: &[Access], dims: &[usize]) -> bool {
    let (Some(src), Some(dst)) = (accesses.get(dep.src), accesses.get(dep.dst)) else {
        return false;
    };
    let (Some(ss), Some(ds)) = (&src.subs, &dst.subs) else {
        return false;
    };
    dims.iter().any(|&k| ss.get(k) != ds.get(k))
}

/// Run the dependence framework over every outermost `for` nest in
/// `body` and render the results as [`Phase::Depend`] remarks.
///
/// `env` maps compile-time constants (problem sizes) to values so
/// symbolic bounds and subscripts canonicalize; `decomp` supplies the
/// distribution used by the cross-processor hotspot lint.
pub fn depend_remarks(
    body: &Block,
    decomp: &Decomposition,
    env: &BTreeMap<String, i64>,
) -> Vec<Remark> {
    let env = propagate_consts(body, env);
    let mut nests = Vec::new();
    collect_nests(body, &mut nests);
    let mut out = Vec::new();
    for nest in nests {
        let info = analyze_for_env(nest, &env);
        let vars: Vec<&str> = info.loops.iter().map(|l| l.var.as_str()).collect();
        let carried = info.loop_carried().count();
        let mut summary = Remark::new(
            Phase::Depend,
            RemarkKind::Applied,
            format!("analyzed dependences of the `{}` nest", vars.join("`/`")),
        )
        .with_span(nest.span())
        .detail("loops", info.loops.len())
        .detail("accesses", info.accesses.len())
        .detail("dependences", info.deps.len())
        .detail("carried", carried)
        .detail("exact", info.exact);
        for (k, d) in info.deps.iter().enumerate() {
            summary = summary.detail(format!("dep{k}"), d.describe());
        }
        out.push(summary);

        if !info.exact {
            let why = info
                .notes
                .first()
                .cloned()
                .unwrap_or_else(|| "subscripts or bounds are not affine".into());
            out.push(
                Remark::new(
                    Phase::Depend,
                    RemarkKind::Missed,
                    format!(
                        "dependence analysis of the `{}` nest is inexact; \
                         optimization passes treat the nest conservatively",
                        vars.join("`/`")
                    ),
                )
                .with_span(nest.span())
                .detail("reason", why),
            );
        }

        for d in info.deps.iter().filter(|d| d.is_loop_carried()) {
            let Some(dist) = decomp.array_dist(&d.array) else {
                continue;
            };
            let dims = distributed_dims(&dist);
            if dims.is_empty() || !crosses_distribution(d, &info.accesses, dims) {
                continue;
            }
            let span = info
                .accesses
                .get(d.dst)
                .and_then(|a| a.span)
                .or_else(|| info.accesses.get(d.src).and_then(|a| a.span))
                .unwrap_or_else(|| nest.span());
            out.push(
                Remark::new(
                    Phase::Depend,
                    RemarkKind::Missed,
                    format!(
                        "loop-carried dependence on `{}` crosses its distributed \
                         dimension: every carried instance is a message and the \
                         carrying loop serializes into a wavefront",
                        d.array
                    ),
                )
                .with_span(span)
                .detail("dependence", d.describe())
                .detail("distribution", dist),
            );
        }
    }
    out
}

/// Straight-line constant propagation over the body's top-level `let`
/// bindings: the inliner renames callee parameters (`n` becomes e.g.
/// `__i1_n = n`), so the caller's compile-time constants only reach the
/// inlined nests by following those copies.
fn propagate_consts(body: &Block, env: &BTreeMap<String, i64>) -> BTreeMap<String, i64> {
    let mut env = env.clone();
    for s in &body.stmts {
        if let Stmt::Let { name, init, .. } = s {
            if let Some(v) = init.const_int(&|n| env.get(n).copied()) {
                env.insert(name.clone(), v);
            }
        }
    }
    env
}

/// Outermost `for` statements of `body`, recursing through `if` arms
/// (both branches may run) but never into a `for` body — inner loops
/// belong to the enclosing nest's analysis.
fn collect_nests<'b>(body: &'b Block, out: &mut Vec<&'b Stmt>) {
    for s in &body.stmts {
        match s {
            Stmt::For { .. } => out.push(s),
            Stmt::If {
                then_blk, else_blk, ..
            } => {
                collect_nests(then_blk, out);
                if let Some(e) = else_blk {
                    collect_nests(e, out);
                }
            }
            _ => {}
        }
    }
}
