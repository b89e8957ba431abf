//! Strip mining (Appendix A.4, *Optimized III*): block element-wise value
//! streams.
//!
//! After jamming, new values travel one element per message — maximal
//! parallelism, maximal message count. Strip mining blocks every loop
//! that sends or receives a qualifying stream: the loop is split into an
//! outer block loop and an inner element loop; receives of a whole block
//! arrive before the inner loop, sends of a whole block leave after it.
//! Because the pass transforms *every* occurrence of a tag across all
//! processors with the same block size and the same element range, both
//! ends of every stream stay in protocol.
//!
//! Qualification per tag (conservative):
//!
//! * every `csend` of the tag is a single-value send at the top level of
//!   a unit-step loop — or directly under one `if` whose condition does
//!   not depend on the loop variable — with a destination independent of
//!   the loop variable;
//! * every `crecv` is a single-variable receive at the top level of such
//!   a loop with a source independent of the loop variable;
//! * all occurrences agree on the loop bounds;
//! * the element loop passes the dependence gate: blocking postpones the
//!   loop's sends to the end of each block and hoists its receives in
//!   front, so every dependence the loop carries must run strictly
//!   forward (direction `<`). A backward or unknown-direction carried
//!   dependence — or an inexact analysis — disqualifies every tag the
//!   loop communicates, with the blocking dependence in the Missed
//!   remark.

use crate::canon::{canon_eq, mentions};
use pdc_depend::spmd::analyze_for;
use pdc_depend::Direction;
use pdc_report::{Phase, Remark, RemarkKind, RemarkSink};
use pdc_spmd::ir::{RecvTarget, SExpr, SStmt, SpmdProgram};
use std::collections::{BTreeMap, HashSet};

#[derive(Debug, Clone)]
enum TagState {
    Ok { lo: SExpr, hi: SExpr },
    Bad(String),
}

/// Apply strip mining with the given block size. Returns the rewritten
/// program and the number of loops blocked, and emits one Applied or
/// Missed remark per message tag considered.
///
/// # Panics
///
/// Panics if `blksize == 0`.
pub fn strip_mine(
    prog: &SpmdProgram,
    blksize: usize,
    sink: &mut RemarkSink,
) -> (SpmdProgram, usize) {
    assert!(blksize > 0, "block size must be positive");
    let mut tags: BTreeMap<u32, TagState> = BTreeMap::new();
    let mut witnesses: BTreeMap<u32, String> = BTreeMap::new();
    for body in prog.bodies() {
        qualify(body, None, &mut tags, &mut witnesses);
    }
    let good: HashSet<u32> = tags
        .iter()
        .filter_map(|(t, s)| match s {
            TagState::Ok { .. } => Some(*t),
            TagState::Bad(_) => None,
        })
        .collect();
    for (tag, state) in &tags {
        match state {
            TagState::Ok { .. } => {
                let mut r = Remark::new(
                    Phase::Strip,
                    RemarkKind::Applied,
                    "blocked element stream into strip-mined block transfers",
                )
                .with_tag(*tag)
                .detail("blksize", blksize);
                if let Some(w) = witnesses.get(tag) {
                    r = r.detail("witness", w.clone());
                }
                sink.emit(r);
            }
            TagState::Bad(reason) => sink
                .emit(Remark::new(Phase::Strip, RemarkKind::Missed, reason.clone()).with_tag(*tag)),
        }
    }
    if good.is_empty() {
        return (prog.clone(), 0);
    }
    let mut out = prog.clone();
    let mut count = 0;
    for body in out.bodies_mut() {
        let (b, c) = rewrite(std::mem::take(body), &good, blksize as i64, &mut 0);
        *body = b;
        count += c;
    }
    (out, count)
}

struct LoopCtx<'a> {
    var: &'a str,
    lo: &'a SExpr,
    hi: &'a SExpr,
    unit_step: bool,
}

fn note(tags: &mut BTreeMap<u32, TagState>, tag: u32, ctx: Option<&LoopCtx<'_>>, dep: &SExpr) {
    let Some(ctx) = ctx else {
        tags.insert(
            tag,
            TagState::Bad("communication is not at the top level of an element loop".into()),
        );
        return;
    };
    if !ctx.unit_step {
        tags.insert(tag, TagState::Bad("enclosing loop step is not 1".into()));
        return;
    }
    if mentions(dep, ctx.var) {
        tags.insert(
            tag,
            TagState::Bad("peer processor depends on the loop variable".into()),
        );
        return;
    }
    match tags.get(&tag) {
        None => {
            tags.insert(
                tag,
                TagState::Ok {
                    lo: ctx.lo.clone(),
                    hi: ctx.hi.clone(),
                },
            );
        }
        Some(TagState::Ok { lo, hi }) => {
            if !canon_eq(lo, ctx.lo) || !canon_eq(hi, ctx.hi) {
                tags.insert(
                    tag,
                    TagState::Bad("occurrences disagree on the loop bounds".into()),
                );
            }
        }
        Some(TagState::Bad(_)) => {}
    }
}

/// Does the loop body communicate at one of the positions `qualify`
/// accepts (direct child, or send under one guard)?
fn has_direct_comm(inner: &[SStmt]) -> bool {
    inner.iter().any(|s| match s {
        SStmt::Send { .. } | SStmt::Recv { .. } => true,
        SStmt::If { then, els, .. } if els.is_empty() => {
            then.iter().any(|x| matches!(x, SStmt::Send { .. }))
        }
        _ => false,
    })
}

/// The tag of a direct communication statement.
fn comm_tag(s: &SStmt) -> Option<u32> {
    match s {
        SStmt::Send { tag, .. } | SStmt::Recv { tag, .. } => Some(*tag),
        _ => None,
    }
}

/// The dependence gate for one element loop. Blocking keeps the
/// iteration order of the loop but batches its communication into
/// whole-block transfers, so it is legal exactly when every dependence
/// the loop carries runs strictly forward (`<`): a backward or
/// unknown-direction dependence could need a value from a later
/// iteration before the block completes. Returns the legality witness,
/// or the blocking reason.
fn dependence_gate(element_loop: &SStmt) -> Result<String, String> {
    let info = analyze_for(element_loop);
    if !info.exact {
        let why = info
            .notes
            .first()
            .cloned()
            .unwrap_or_else(|| "subscripts outside the analyzable grammar".into());
        return Err(format!("dependence analysis inexact: {why}"));
    }
    if let Some(d) = info.deps.iter().find(|d| {
        d.is_loop_carried() && matches!(d.direction.first(), Some(Direction::Gt | Direction::Any))
    }) {
        return Err(format!(
            "loop-carried dependence blocks strip mining: {}",
            d.describe()
        ));
    }
    let carried: Vec<String> = info
        .deps
        .iter()
        .filter(|d| d.is_loop_carried())
        .map(|d| d.describe())
        .collect();
    if carried.is_empty() {
        Ok("element loop carries no dependence".into())
    } else {
        Ok(format!(
            "all carried dependences run forward (<): {}",
            carried.join("; ")
        ))
    }
}

fn qualify(
    body: &[SStmt],
    ctx: Option<&LoopCtx<'_>>,
    tags: &mut BTreeMap<u32, TagState>,
    witnesses: &mut BTreeMap<u32, String>,
) {
    for s in body {
        match s {
            SStmt::Send { to, tag, values } => {
                if values.len() == 1 {
                    note(tags, *tag, ctx, to);
                } else {
                    tags.insert(
                        *tag,
                        TagState::Bad("send carries more than one value".into()),
                    );
                }
            }
            SStmt::Recv { from, tag, into } => {
                if into.len() == 1 && matches!(into[0], RecvTarget::Var(_)) {
                    note(tags, *tag, ctx, from);
                } else {
                    tags.insert(
                        *tag,
                        TagState::Bad("receive does not target a single scalar variable".into()),
                    );
                }
            }
            SStmt::SendBuf { tag, .. } | SStmt::RecvBuf { tag, .. } => {
                tags.insert(
                    *tag,
                    TagState::Bad("stream is already a block transfer".into()),
                );
            }
            SStmt::For {
                var,
                lo,
                hi,
                step,
                body: inner,
            } => {
                let inner_ctx = LoopCtx {
                    var,
                    lo,
                    hi,
                    unit_step: *step == SExpr::int(1),
                };
                // A loop that communicates must pass the dependence gate
                // before any of its tags can qualify.
                let gate = has_direct_comm(inner).then(|| dependence_gate(s));
                for st in inner {
                    match st {
                        // Direct children qualify against this loop.
                        SStmt::Send { .. } | SStmt::Recv { .. } => match &gate {
                            Some(Err(reason)) => {
                                if let Some(t) = comm_tag(st) {
                                    tags.insert(t, TagState::Bad(reason.clone()));
                                }
                            }
                            _ => {
                                qualify(
                                    std::slice::from_ref(st),
                                    Some(&inner_ctx),
                                    tags,
                                    witnesses,
                                );
                                if let (Some(Ok(w)), Some(t)) = (&gate, comm_tag(st)) {
                                    witnesses.entry(t).or_insert_with(|| w.clone());
                                }
                            }
                        },
                        // One guard level is allowed for sends when the
                        // condition is loop-invariant.
                        SStmt::If { cond, then, els }
                            if els.is_empty()
                                && !mentions(cond, var)
                                && then.iter().all(|x| {
                                    matches!(x, SStmt::Send { .. } | SStmt::Let { .. })
                                }) =>
                        {
                            match &gate {
                                Some(Err(reason)) => {
                                    for x in then {
                                        if let Some(t) = comm_tag(x) {
                                            tags.insert(t, TagState::Bad(reason.clone()));
                                        }
                                    }
                                }
                                _ => {
                                    qualify(then, Some(&inner_ctx), tags, witnesses);
                                    if let Some(Ok(w)) = &gate {
                                        for x in then {
                                            if let Some(t) = comm_tag(x) {
                                                witnesses.entry(t).or_insert_with(|| w.clone());
                                            }
                                        }
                                    }
                                }
                            }
                        }
                        other => qualify(std::slice::from_ref(other), None, tags, witnesses),
                    }
                }
            }
            SStmt::If { then, els, .. } => {
                qualify(then, None, tags, witnesses);
                qualify(els, None, tags, witnesses);
            }
            _ => {}
        }
    }
}

/// Does a loop body contain (at the allowed positions) any comm op with a
/// qualifying tag?
fn loop_has_good_comm(inner: &[SStmt], var: &str, good: &HashSet<u32>) -> bool {
    inner.iter().any(|s| match s {
        SStmt::Send { tag, .. } | SStmt::Recv { tag, .. } => good.contains(tag),
        SStmt::If { cond, then, els } if els.is_empty() && !mentions(cond, var) => then
            .iter()
            .any(|x| matches!(x, SStmt::Send { tag, .. } if good.contains(tag))),
        _ => false,
    })
}

fn rewrite(
    body: Vec<SStmt>,
    good: &HashSet<u32>,
    blk: i64,
    fresh: &mut u32,
) -> (Vec<SStmt>, usize) {
    let mut out = Vec::new();
    let mut count = 0;
    for s in body {
        match s {
            SStmt::For {
                var,
                lo,
                hi,
                step,
                body: inner,
            } if step == SExpr::int(1) && loop_has_good_comm(&inner, &var, good) => {
                let (blocked, c) = block_loop(var, lo, hi, inner, good, blk, fresh);
                count += 1 + c;
                out.extend(blocked);
            }
            SStmt::For {
                var,
                lo,
                hi,
                step,
                body: inner,
            } => {
                let (b, c) = rewrite(inner, good, blk, fresh);
                count += c;
                out.push(SStmt::For {
                    var,
                    lo,
                    hi,
                    step,
                    body: b,
                });
            }
            SStmt::If { cond, then, els } => {
                let (t, c1) = rewrite(then, good, blk, fresh);
                let (e, c2) = rewrite(els, good, blk, fresh);
                count += c1 + c2;
                out.push(SStmt::If {
                    cond,
                    then: t,
                    els: e,
                });
            }
            other => out.push(other),
        }
    }
    (out, count)
}

/// The core transformation of one element loop into a block loop.
#[allow(clippy::too_many_arguments)]
fn block_loop(
    var: String,
    lo: SExpr,
    hi: SExpr,
    inner: Vec<SStmt>,
    good: &HashSet<u32>,
    blk: i64,
    fresh: &mut u32,
) -> (Vec<SStmt>, usize) {
    *fresh += 1;
    let id = *fresh;
    let k = format!("$k{id}");
    let klo = format!("$klo{id}");
    let khi = format!("$khi{id}");
    let blk_len = || SExpr::var(khi.clone()).sub(SExpr::var(klo.clone()));

    // Collect the tags this loop receives and sends (in order).
    let mut recv_tags: Vec<(u32, SExpr)> = Vec::new(); // (tag, from)
    let mut send_tags: Vec<(u32, SExpr, Option<SExpr>)> = Vec::new(); // (tag, to, guard)
    for s in &inner {
        match s {
            SStmt::Recv { from, tag, .. }
                if good.contains(tag) && !recv_tags.iter().any(|(t, _)| t == tag) =>
            {
                recv_tags.push((*tag, from.clone()));
            }
            SStmt::Send { to, tag, .. }
                if good.contains(tag) && !send_tags.iter().any(|(t, _, _)| t == tag) =>
            {
                send_tags.push((*tag, to.clone(), None));
            }
            SStmt::If { cond, then, els } if els.is_empty() => {
                for x in then {
                    if let SStmt::Send { to, tag, .. } = x {
                        if good.contains(tag) && !send_tags.iter().any(|(t, _, _)| t == tag) {
                            send_tags.push((*tag, to.clone(), Some(cond.clone())));
                        }
                    }
                }
            }
            _ => {}
        }
    }

    // Rewrite the element body: receives become buffer reads, sends
    // become buffer writes.
    let new_inner: Vec<SStmt> = inner
        .into_iter()
        .map(|s| rewrite_element(s, good, &var, &klo))
        .collect();

    let mut pre: Vec<SStmt> = Vec::new();
    for (tag, _) in &recv_tags {
        pre.push(SStmt::AllocBuf {
            buf: format!("$sb{tag}"),
            len: SExpr::int(blk),
        });
    }
    for (tag, _, _) in &send_tags {
        pre.push(SStmt::AllocBuf {
            buf: format!("$ss{tag}"),
            len: SExpr::int(blk),
        });
    }

    let mut kbody: Vec<SStmt> = vec![
        SStmt::Let {
            var: klo.clone(),
            value: lo.clone().add(SExpr::var(k.clone()).mul(SExpr::int(blk))),
        },
        SStmt::Let {
            var: khi.clone(),
            value: SExpr::var(klo.clone())
                .add(SExpr::int(blk - 1))
                .min(hi.clone()),
        },
    ];
    for (tag, from) in &recv_tags {
        kbody.push(SStmt::RecvBuf {
            from: from.clone(),
            tag: *tag,
            buf: format!("$sb{tag}"),
            lo: SExpr::int(0),
            hi: blk_len(),
        });
    }
    kbody.push(SStmt::For {
        var: var.clone(),
        lo: SExpr::var(klo.clone()),
        hi: SExpr::var(khi.clone()),
        step: SExpr::int(1),
        body: new_inner,
    });
    for (tag, to, guard) in &send_tags {
        let send = SStmt::SendBuf {
            to: to.clone(),
            tag: *tag,
            buf: format!("$ss{tag}"),
            lo: SExpr::int(0),
            hi: blk_len(),
        };
        kbody.push(match guard {
            Some(g) => SStmt::If {
                cond: g.clone(),
                then: vec![send],
                els: vec![],
            },
            None => send,
        });
    }

    pre.push(SStmt::For {
        var: k,
        lo: SExpr::int(0),
        hi: hi.clone().sub(lo.clone()).idiv(SExpr::int(blk)),
        step: SExpr::int(1),
        body: kbody,
    });
    (pre, 0)
}

fn rewrite_element(s: SStmt, good: &HashSet<u32>, var: &str, klo: &str) -> SStmt {
    match s {
        SStmt::Recv { from, tag, into } if good.contains(&tag) => {
            let RecvTarget::Var(t) = &into[0] else {
                unreachable!("qualified recv targets a var");
            };
            let _ = from;
            SStmt::Let {
                var: t.clone(),
                value: SExpr::BufRead {
                    buf: format!("$sb{tag}"),
                    idx: Box::new(SExpr::var(var).sub(SExpr::var(klo))),
                },
            }
        }
        SStmt::Send { to, tag, values } if good.contains(&tag) => {
            let _ = to;
            SStmt::BufWrite {
                buf: format!("$ss{tag}"),
                idx: SExpr::var(var).sub(SExpr::var(klo)),
                value: values.into_iter().next().expect("single-value send"),
            }
        }
        SStmt::If { cond, then, els } if els.is_empty() => SStmt::If {
            cond,
            then: then
                .into_iter()
                .map(|x| rewrite_element(x, good, var, klo))
                .collect(),
            els: vec![],
        },
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_machine::CostModel;
    use pdc_spmd::run::SpmdMachine;
    use pdc_spmd::Scalar;

    /// P0 streams f(i) to P1 element-wise; P1 folds the stream.
    fn stream_program(n: i64) -> SpmdProgram {
        let p0 = vec![SStmt::For {
            var: "i".into(),
            lo: SExpr::int(1),
            hi: SExpr::int(n),
            step: SExpr::int(1),
            body: vec![SStmt::Send {
                to: SExpr::int(1),
                tag: 9,
                values: vec![SExpr::var("i").mul(SExpr::var("i"))],
            }],
        }];
        let p1 = vec![
            SStmt::Let {
                var: "acc".into(),
                value: SExpr::int(0),
            },
            SStmt::For {
                var: "i".into(),
                lo: SExpr::int(1),
                hi: SExpr::int(n),
                step: SExpr::int(1),
                body: vec![
                    SStmt::Recv {
                        from: SExpr::int(0),
                        tag: 9,
                        into: vec![RecvTarget::Var("x".into())],
                    },
                    SStmt::Let {
                        var: "acc".into(),
                        value: SExpr::var("acc").add(SExpr::var("x")),
                    },
                ],
            },
        ];
        SpmdProgram::new(vec![p0, p1])
    }

    fn run(prog: &SpmdProgram) -> (u64, Scalar) {
        let mut m = SpmdMachine::new(prog, CostModel::ipsc2()).unwrap();
        let out = m.run().unwrap();
        (
            out.report.stats.network.messages,
            m.vm(1).var("acc").unwrap(),
        )
    }

    #[test]
    fn blocks_reduce_messages_and_preserve_results() {
        let n = 10i64;
        let prog = stream_program(n);
        let (msgs0, acc0) = run(&prog);
        assert_eq!(msgs0, n as u64);
        for blk in [1usize, 2, 3, 4, 10, 16] {
            let (opt, loops) = strip_mine(&prog, blk, &mut RemarkSink::new());
            assert_eq!(loops, 2, "blk={blk}");
            let (msgs, acc) = run(&opt);
            assert_eq!(acc, acc0, "blk={blk}");
            assert_eq!(msgs, (n as u64).div_ceil(blk as u64), "blk={blk}");
        }
    }

    #[test]
    fn mismatched_ranges_disqualify() {
        let mut prog = stream_program(8);
        if let SStmt::For { hi, .. } = &mut prog.body_mut(1)[1] {
            *hi = SExpr::int(7);
        }
        let (opt, loops) = strip_mine(&prog, 4, &mut RemarkSink::new());
        assert_eq!(loops, 0);
        assert_eq!(opt, prog);
    }

    #[test]
    fn carried_dependence_without_forward_direction_blocks_blocking() {
        // P0's element loop carries a dependence whose distance is not a
        // fixed forward shift (write a[2j] against read a[j]): the
        // dependence gate must refuse to block the loop even though the
        // stream shape itself qualifies.
        let p0 = vec![SStmt::For {
            var: "j".into(),
            lo: SExpr::int(1),
            hi: SExpr::int(8),
            step: SExpr::int(1),
            body: vec![
                SStmt::Let {
                    var: "w".into(),
                    value: SExpr::ARead {
                        array: "a".into(),
                        idx: vec![SExpr::var("j")],
                    },
                },
                SStmt::AWrite {
                    array: "a".into(),
                    idx: vec![SExpr::var("j").mul(SExpr::int(2))],
                    value: SExpr::var("w"),
                },
                SStmt::Send {
                    to: SExpr::int(1),
                    tag: 9,
                    values: vec![SExpr::var("w")],
                },
            ],
        }];
        let p1 = vec![SStmt::For {
            var: "j".into(),
            lo: SExpr::int(1),
            hi: SExpr::int(8),
            step: SExpr::int(1),
            body: vec![SStmt::Recv {
                from: SExpr::int(0),
                tag: 9,
                into: vec![RecvTarget::Var("x".into())],
            }],
        }];
        let prog = SpmdProgram::new(vec![p0, p1]);
        let mut sink = RemarkSink::new();
        let (opt, loops) = strip_mine(&prog, 4, &mut sink);
        assert_eq!(loops, 0);
        assert_eq!(opt, prog);
        let missed: Vec<_> = sink
            .remarks()
            .iter()
            .filter(|r| r.kind == RemarkKind::Missed)
            .collect();
        assert_eq!(missed.len(), 1);
        assert!(
            missed[0].message.contains("dependence"),
            "reason should name the blocking dependence: {}",
            missed[0].message
        );
    }

    #[test]
    fn multi_value_sends_disqualify() {
        let mut prog = stream_program(8);
        if let SStmt::For { body, .. } = &mut prog.body_mut(0)[0] {
            if let SStmt::Send { values, .. } = &mut body[0] {
                values.push(SExpr::int(0));
            }
        }
        // Receiver shape no longer matters; the tag is poisoned.
        let (_, loops) = strip_mine(&prog, 4, &mut RemarkSink::new());
        assert_eq!(loops, 0);
    }
}
