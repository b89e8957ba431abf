//! Message vectorization (Appendix A.2, *Optimized I*).
//!
//! An element-wise send loop of a **read-only** array — "it is
//! straightforward to recognize that these sends may be vectorized, since
//! the `Old` values do not change during the computation" — becomes a
//! buffer fill plus a single block send; every matching element receive
//! becomes one block receive before its loop plus buffer reads inside.
//!
//! Legality, checked per message tag across *all* processors:
//!
//! * every send of the tag has the shape
//!   `for w = lo to hi { t = is_read(B, idx); csend(tag, t, dst) }` with
//!   `B` never written anywhere in the program, unit step, and `dst`
//!   independent of `w`;
//! * every receive of the tag sits at the top level of a unit-step loop
//!   with the *same* `lo`/`hi` and a `w`-independent source;
//! * a tag that appears in any other position is left untouched.
//!
//! The read-only fact comes from the dependence framework
//! ([`pdc_depend::spmd::read_only_arrays`]): an array with no writes has
//! no dependences at all, so no ordering constraint can reach the
//! combined transfer. Applied remarks carry that witness.

use crate::canon::{canon_eq, mentions};
use pdc_depend::spmd::read_only_arrays;
use pdc_report::{Phase, Remark, RemarkKind, RemarkSink};
use pdc_spmd::ir::{RecvTarget, SExpr, SStmt, SpmdProgram};
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// Per-tag qualification state.
#[derive(Debug, Clone)]
enum TagState {
    /// All occurrences so far fit the pattern with these loop bounds;
    /// `array` is the read-only array the send side streams (filled in
    /// once a send of the tag is seen).
    Ok {
        lo: SExpr,
        hi: SExpr,
        array: Option<String>,
    },
    /// Some occurrence disqualifies the tag (the reason why).
    Bad(&'static str),
}

/// Apply vectorization to every body; returns the rewritten program and
/// the number of send loops combined. Emits one Applied or Missed remark
/// per message tag considered (remarks carry the tag; the driver resolves
/// tags to source spans).
pub fn vectorize(prog: &SpmdProgram, sink: &mut RemarkSink) -> (SpmdProgram, usize) {
    let read_only = read_only_arrays(prog);
    // Phase 1: qualify tags.
    let mut tags: BTreeMap<u32, TagState> = BTreeMap::new();
    for body in prog.bodies() {
        qualify(body, &read_only, &mut tags);
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
            TagState::Ok { array, .. } => {
                let mut r = Remark::new(
                    Phase::Vectorize,
                    RemarkKind::Applied,
                    "combined element-wise sends of a read-only array into one block transfer",
                )
                .with_tag(*tag);
                if let Some(a) = array {
                    r = r.detail("array", a.clone()).detail(
                        "witness",
                        format!("`{a}` is never written: no dependence reaches the stream"),
                    );
                }
                sink.emit(r);
            }
            TagState::Bad(reason) => {
                sink.emit(Remark::new(Phase::Vectorize, RemarkKind::Missed, *reason).with_tag(*tag))
            }
        }
    }
    if good.is_empty() {
        return (prog.clone(), 0);
    }
    // Phase 2: rewrite.
    let mut out = prog.clone();
    let mut count = 0;
    for body in out.bodies_mut() {
        let (new_body, c) = rewrite(std::mem::take(body), &read_only, &good);
        *body = new_body;
        count += c;
    }
    (out, count)
}

/// Positions `i` such that `body[i] = let t = is_read(B, …)` and
/// `body[i+1] = csend(tag, t, dst)` with `B` read-only and `dst`
/// independent of the loop variable. Returns `(position, tag, array)`
/// triples; the array name is the legality witness for the remark.
fn send_pairs(
    var: &str,
    body: &[SStmt],
    read_only: &BTreeSet<String>,
) -> Vec<(usize, u32, String)> {
    let mut out = Vec::new();
    for i in 0..body.len().saturating_sub(1) {
        let SStmt::Let { var: t, value } = &body[i] else {
            continue;
        };
        let SExpr::ARead { array, .. } = value else {
            continue;
        };
        if !read_only.contains(array) {
            continue;
        }
        let SStmt::Send { to, tag, values } = &body[i + 1] else {
            continue;
        };
        if values.len() != 1 || values[0] != SExpr::var(t.clone()) || mentions(to, var) {
            continue;
        }
        out.push((i, *tag, array.clone()));
    }
    out
}

fn note(tags: &mut BTreeMap<u32, TagState>, tag: u32, lo: &SExpr, hi: &SExpr, array: Option<&str>) {
    match tags.get_mut(&tag) {
        None => {
            tags.insert(
                tag,
                TagState::Ok {
                    lo: lo.clone(),
                    hi: hi.clone(),
                    array: array.map(str::to_owned),
                },
            );
        }
        Some(TagState::Ok {
            lo: l0,
            hi: h0,
            array: a0,
        }) => {
            if a0.is_none() {
                *a0 = array.map(str::to_owned);
            }
            let (l0, h0) = (l0.clone(), h0.clone());
            if !canon_eq(&l0, lo) || !canon_eq(&h0, hi) {
                poison(tags, tag, "send and receive loop bounds differ");
            }
        }
        Some(TagState::Bad(_)) => {}
    }
}

fn poison(tags: &mut BTreeMap<u32, TagState>, tag: u32, reason: &'static str) {
    tags.insert(tag, TagState::Bad(reason));
}

fn qualify(body: &[SStmt], read_only: &BTreeSet<String>, tags: &mut BTreeMap<u32, TagState>) {
    for s in body {
        match s {
            SStmt::Send { tag, .. } => {
                poison(tags, *tag, "send is not inside a unit-step element loop")
            }
            SStmt::SendBuf { tag, .. } | SStmt::RecvBuf { tag, .. } => {
                poison(tags, *tag, "stream is already a block transfer")
            }
            SStmt::Recv { tag, .. } => {
                // A receive outside any loop.
                poison(tags, *tag, "receive is not inside a unit-step element loop")
            }
            SStmt::For {
                var,
                lo,
                hi,
                step,
                body: inner,
            } => {
                // Qualifying (read; send) pairs of this loop.
                let pairs = if *step == SExpr::int(1) {
                    send_pairs(var, inner, read_only)
                } else {
                    Vec::new()
                };
                for (_, tag, array) in &pairs {
                    note(tags, *tag, lo, hi, Some(array));
                }
                let send_positions: HashSet<usize> = pairs.iter().map(|(i, _, _)| i + 1).collect();
                // Direct-child receives of this loop qualify.
                for (pos, st) in inner.iter().enumerate() {
                    match st {
                        SStmt::Recv { from, tag, into } => {
                            let shape_ok = *step == SExpr::int(1)
                                && into.len() == 1
                                && matches!(into[0], RecvTarget::Var(_))
                                && !mentions(from, var);
                            if shape_ok {
                                note(tags, *tag, lo, hi, None);
                            } else {
                                poison(
                                    tags,
                                    *tag,
                                    "receive shape not vectorizable (non-unit step, \
                                     multiple targets, or source depends on the loop variable)",
                                );
                            }
                        }
                        SStmt::Send { tag, .. } if !send_positions.contains(&pos) => poison(
                            tags,
                            *tag,
                            "send is not a (read-only array read; send) pair with a \
                             loop-independent destination",
                        ),
                        SStmt::Send { .. } => {}
                        other => qualify(std::slice::from_ref(other), read_only, tags),
                    }
                }
            }
            SStmt::If { then, els, .. } => {
                qualify(then, read_only, tags);
                qualify(els, read_only, tags);
            }
            _ => {}
        }
    }
}

fn rewrite(
    body: Vec<SStmt>,
    read_only: &BTreeSet<String>,
    good: &HashSet<u32>,
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
            } => {
                // Replace qualifying (read; send) pairs with buffer fills;
                // block sends follow the loop.
                let pairs: Vec<(usize, u32, String)> = if step == SExpr::int(1) {
                    send_pairs(&var, &inner, read_only)
                        .into_iter()
                        .filter(|(_, t, _)| good.contains(t))
                        .collect()
                } else {
                    Vec::new()
                };
                let mut inner = inner;
                let mut post = Vec::new();
                // Apply back to front so positions stay valid.
                for (i, tag, _) in pairs.into_iter().rev() {
                    let SStmt::Let { value, .. } = inner[i].clone() else {
                        unreachable!("pair shape");
                    };
                    let SStmt::Send { to, .. } = inner[i + 1].clone() else {
                        unreachable!("pair shape");
                    };
                    let buf = format!("$vb{tag}");
                    out.push(SStmt::AllocBuf {
                        buf: buf.clone(),
                        len: hi.clone().sub(lo.clone()).add(SExpr::int(1)),
                    });
                    inner.splice(
                        i..=i + 1,
                        [SStmt::BufWrite {
                            buf: buf.clone(),
                            idx: SExpr::var(var.clone()).sub(lo.clone()),
                            value,
                        }],
                    );
                    post.insert(
                        0,
                        SStmt::SendBuf {
                            to,
                            tag,
                            buf,
                            lo: SExpr::int(0),
                            hi: hi.clone().sub(lo.clone()),
                        },
                    );
                    count += 1;
                }
                // Pull qualifying direct-child receives out of the loop.
                let mut pre = Vec::new();
                let mut new_inner = Vec::new();
                for st in inner {
                    match st {
                        SStmt::Recv { from, tag, into } if good.contains(&tag) => {
                            let RecvTarget::Var(t) = &into[0] else {
                                unreachable!("qualified recv has a var target");
                            };
                            let buf = format!("$rb{tag}");
                            if !pre
                                .iter()
                                .any(|p| matches!(p, SStmt::AllocBuf { buf: b, .. } if *b == buf))
                            {
                                pre.push(SStmt::AllocBuf {
                                    buf: buf.clone(),
                                    len: hi.clone().sub(lo.clone()).add(SExpr::int(1)),
                                });
                                pre.push(SStmt::RecvBuf {
                                    from: from.clone(),
                                    tag,
                                    buf: buf.clone(),
                                    lo: SExpr::int(0),
                                    hi: hi.clone().sub(lo.clone()),
                                });
                            }
                            new_inner.push(SStmt::Let {
                                var: t.clone(),
                                value: SExpr::BufRead {
                                    buf,
                                    idx: Box::new(SExpr::var(var.clone()).sub(lo.clone())),
                                },
                            });
                        }
                        other => {
                            let (rewritten, c) = rewrite(vec![other], read_only, good);
                            count += c;
                            new_inner.extend(rewritten);
                        }
                    }
                }
                out.extend(pre);
                out.push(SStmt::For {
                    var,
                    lo,
                    hi,
                    step,
                    body: new_inner,
                });
                out.extend(post);
            }
            SStmt::If { cond, then, els } => {
                let (t, c1) = rewrite(then, read_only, good);
                let (e, c2) = rewrite(els, read_only, good);
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

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_machine::CostModel;
    use pdc_mapping::Dist;
    use pdc_spmd::run::SpmdMachine;
    use pdc_spmd::Scalar;

    /// P0 owns a read-only vector and sends 1..=n to P1 element-wise.
    fn element_program(n: i64) -> SpmdProgram {
        let p0 = vec![
            SStmt::AllocDist {
                array: "B".into(),
                rows: SExpr::int(1),
                cols: SExpr::int(n),
                dist: Dist::Replicated,
            },
            SStmt::For {
                var: "i".into(),
                lo: SExpr::int(1),
                hi: SExpr::int(n),
                step: SExpr::int(1),
                body: vec![SStmt::AWrite {
                    array: "B".into(),
                    idx: vec![SExpr::var("i")],
                    value: SExpr::var("i").mul(SExpr::int(3)),
                }],
            },
            SStmt::For {
                var: "i".into(),
                lo: SExpr::int(1),
                hi: SExpr::int(n),
                step: SExpr::int(1),
                body: vec![
                    SStmt::Let {
                        var: "t".into(),
                        value: SExpr::ARead {
                            array: "B".into(),
                            idx: vec![SExpr::var("i")],
                        },
                    },
                    SStmt::Send {
                        to: SExpr::int(1),
                        tag: 5,
                        values: vec![SExpr::var("t")],
                    },
                ],
            },
        ];
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
                        tag: 5,
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

    #[test]
    fn writer_array_blocks_vectorization() {
        // B is written in the same program (the fill loop) — but "read
        // only" means never the target of a write *after* we classify…
        // our conservative rule: any write anywhere disqualifies. So this
        // program must be left untouched.
        let prog = element_program(6);
        let (opt, n) = vectorize(&prog, &mut RemarkSink::new());
        assert_eq!(n, 0);
        assert_eq!(opt, prog);
    }

    /// Same as `element_program` but B is preloaded (never written in
    /// code) — the genuine `Old` situation.
    fn preloaded_program(n: i64) -> (SpmdProgram, pdc_istructure::IMatrix<Scalar>) {
        let mut prog = element_program(n);
        // Drop the alloc and fill from P0; B comes preloaded instead.
        let body0 = prog.body_mut(0);
        body0.drain(0..2);
        let mut data = pdc_istructure::IMatrix::new(1, n as usize);
        for j in 1..=n {
            data.write(1, j, Scalar::Int(j * 3)).unwrap();
        }
        (prog, data)
    }

    fn run_preloaded(prog: &SpmdProgram, data: &pdc_istructure::IMatrix<Scalar>) -> (u64, Scalar) {
        let mut m = SpmdMachine::new(prog, CostModel::ipsc2()).unwrap();
        m.preload_array("B", Dist::Replicated, data);
        let out = m.run().unwrap();
        (
            out.report.stats.network.messages,
            m.vm(1).var("acc").unwrap(),
        )
    }

    #[test]
    fn vectorize_combines_messages_and_preserves_result() {
        let n = 8i64;
        let (prog, data) = preloaded_program(n);
        let (base_msgs, base_acc) = run_preloaded(&prog, &data);
        assert_eq!(base_msgs, n as u64);
        let (opt, count) = vectorize(&prog, &mut RemarkSink::new());
        assert_eq!(count, 1);
        let (opt_msgs, opt_acc) = run_preloaded(&opt, &data);
        assert_eq!(opt_msgs, 1);
        assert_eq!(opt_acc, base_acc);
    }

    #[test]
    fn mismatched_bounds_disqualify() {
        let (mut prog, data) = preloaded_program(6);
        // Make the receiver loop run 1..=5 instead of 1..=6: tags no
        // longer align; the pass must leave everything alone.
        if let SStmt::For { hi, .. } = &mut prog.body_mut(1)[1] {
            *hi = SExpr::int(5);
        }
        let (opt, count) = vectorize(&prog, &mut RemarkSink::new());
        assert_eq!(count, 0);
        assert_eq!(opt, prog);
        let _ = data;
    }
}
