//! Loop jamming (Appendix A.3, *Optimized II*): fuse the send of freshly
//! computed values into the loop that computes them.
//!
//! Compile-time resolution leaves the producer and the sender of a value
//! stream in *different* residue classes of the outer loop: the owner of
//! column `c` computes it at iteration `j = c` and ships it to the right
//! neighbour only at iteration `j = c + 1`. Jamming recognizes the pair
//!
//! ```text
//! if (j mod S == r₁) { for i { …; is_write(X, [i, e₁(j)], …); } }   // producer
//! if (j mod S == r₂) { for i { t = is_read(X, [i, e₂(j)]); csend(t, d); } }
//! ```
//!
//! solves `e₂(j+δ) = e₁(j)` for the constant shift `δ` — the flow
//! dependence distance computed by [`pdc_depend::spmd::flow_shift`] —
//! (and checks the residues agree under the same shift), then moves the
//! send into the producer loop — "new values are sent off as soon as they are computed"
//! — keeping a *remainder* copy of the original sender for the iterations
//! (boundary columns) whose values were produced elsewhere.

use crate::canon::{canon, shift_sexpr};
use pdc_depend::spmd::flow_shift;
use pdc_lang::BinOp;
use pdc_mapping::Affine;
use pdc_report::{Phase, Remark, RemarkKind, RemarkSink};
use pdc_spmd::ir::{SExpr, SStmt, SpmdProgram};
use std::collections::BTreeSet;

/// One successful fusion: tag, iteration shift, residue modulus.
type Fused = (u32, i64, i64);

/// Apply jamming to every body; returns the rewritten program and the
/// number of streams fused. Emits an Applied remark per fused stream
/// (with the solved shift and residue modulus) and a Missed remark per
/// sender-shaped candidate that found no compatible producer.
pub fn jam(prog: &SpmdProgram, sink: &mut RemarkSink) -> (SpmdProgram, usize) {
    let mut out = prog.clone();
    let mut count = 0;
    let mut fused: Vec<Fused> = Vec::new();
    for body in out.bodies_mut() {
        let (b, c) = jam_body(std::mem::take(body), &mut fused);
        *body = b;
        count += c;
    }
    fused.sort_unstable();
    fused.dedup();
    let fused_tags: BTreeSet<u32> = fused.iter().map(|(t, _, _)| *t).collect();
    for (tag, delta, modulus) in &fused {
        sink.emit(
            Remark::new(
                Phase::Jam,
                RemarkKind::Applied,
                "fused value send into its producing loop (sent as soon as computed)",
            )
            .with_tag(*tag)
            .detail("shift", delta)
            .detail("modulus", modulus)
            .detail(
                "witness",
                format!(
                    "flow dependence with distance {delta} along the jammed loop \
                     links the producing write to the streamed read"
                ),
            ),
        );
    }
    // Sender-shaped candidates in the *input* that no fusion consumed.
    let mut missed: BTreeSet<(u32, &'static str)> = BTreeSet::new();
    for body in prog.bodies() {
        scan_missed(body, &fused_tags, &mut missed);
    }
    for (tag, reason) in missed {
        sink.emit(Remark::new(Phase::Jam, RemarkKind::Missed, reason).with_tag(tag));
    }
    (out, count)
}

/// Collect sender-shaped blocks (direct children of loop bodies, where
/// `jam_loop` looks) whose tags were never fused, with a diagnosis.
fn scan_missed(body: &[SStmt], fused: &BTreeSet<u32>, out: &mut BTreeSet<(u32, &'static str)>) {
    for s in body {
        match s {
            SStmt::For { body: inner, .. } => {
                for st in inner {
                    if let Some(sender) = as_sender(st) {
                        if !fused.contains(&sender.tag) {
                            let reason = if parse_residue(&sender.guard).is_none() {
                                "sender guard is not a residue test"
                            } else {
                                "no producer computes the sent values in the same loop \
                                 body with an agreeing guard and constant shift"
                            };
                            out.insert((sender.tag, reason));
                        }
                    }
                }
                scan_missed(inner, fused, out);
            }
            SStmt::If { then, els, .. } => {
                scan_missed(then, fused, out);
                scan_missed(els, fused, out);
            }
            _ => {}
        }
    }
}

fn jam_body(body: Vec<SStmt>, fused: &mut Vec<Fused>) -> (Vec<SStmt>, usize) {
    let mut count = 0;
    let body = body
        .into_iter()
        .map(|s| match s {
            SStmt::For {
                var,
                lo,
                hi,
                step,
                body: inner,
            } => {
                let (inner, c1) = jam_body(inner, fused);
                let (inner, c2) = jam_loop(&var, &lo, &hi, inner, fused);
                count += c1 + c2;
                SStmt::For {
                    var,
                    lo,
                    hi,
                    step,
                    body: inner,
                }
            }
            SStmt::If { cond, then, els } => {
                let (t, c1) = jam_body(then, fused);
                let (e, c2) = jam_body(els, fused);
                count += c1 + c2;
                SStmt::If {
                    cond,
                    then: t,
                    els: e,
                }
            }
            other => other,
        })
        .collect();
    (body, count)
}

/// A residue guard `base ≡ r (mod m)` in normalized form: the base affine
/// with its constant folded into the residue.
fn parse_residue(e: &SExpr) -> Option<(Affine, i64, i64)> {
    let SExpr::Bin(BinOp::Eq, lhs, rhs) = e else {
        return None;
    };
    let SExpr::Bin(BinOp::Mod, base, m) = &**lhs else {
        return None;
    };
    let SExpr::Int(m) = &**m else {
        return None;
    };
    let SExpr::Int(r) = &**rhs else {
        return None;
    };
    let crate::canon::Canon::Aff(a) = canon(base)? else {
        return None;
    };
    let c = a.constant_part();
    Some((a.offset(-c), *m, (r - c).rem_euclid(*m)))
}

/// Identify a producer block: `if g { for w { … is_write(X, idx, …) … } }`
/// with exactly one write. Returns (guard, inner loop index info).
struct Producer {
    guard: SExpr,
    inner_var: String,
    write_array: String,
    write_idx: Vec<SExpr>,
    /// Position of the write in the inner body.
    write_pos: usize,
    /// Position of the loop within the guarded block.
    for_pos: usize,
}

fn as_producer(s: &SStmt) -> Option<Producer> {
    let SStmt::If { cond, then, els } = s else {
        return None;
    };
    if !els.is_empty() {
        return None;
    }
    // The block may carry preludes inserted by vectorization (buffer
    // allocation, block receive); it must contain exactly one loop.
    let fors: Vec<(usize, &SStmt)> = then
        .iter()
        .enumerate()
        .filter(|(_, st)| matches!(st, SStmt::For { .. }))
        .collect();
    let [(
        for_pos,
        SStmt::For {
            var, body: inner, ..
        },
    )] = fors.as_slice()
    else {
        return None;
    };
    let for_pos = *for_pos;
    let writes: Vec<(usize, &SStmt)> = inner
        .iter()
        .enumerate()
        .filter(|(_, st)| matches!(st, SStmt::AWrite { .. }))
        .collect();
    let [(write_pos, SStmt::AWrite { array, idx, .. })] = writes.as_slice() else {
        return None;
    };
    Some(Producer {
        guard: cond.clone(),
        inner_var: var.clone(),
        write_array: array.clone(),
        write_idx: idx.clone(),
        write_pos: *write_pos,
        for_pos,
    })
}

/// Identify a sender block: `if g { … for w { …; t = is_read(X, idx);
/// csend(tag, t, to); … } … }` — the (read; send) pair may sit among
/// other statements (e.g. a vectorized buffer fill sharing the loop).
struct Sender {
    guard: SExpr,
    inner_var: String,
    inner_lo: SExpr,
    inner_hi: SExpr,
    array: String,
    idx: Vec<SExpr>,
    to: SExpr,
    tag: u32,
    /// Position of the loop within the guarded block.
    for_pos: usize,
    /// Position of the `let` within the loop body (the send follows).
    pair_pos: usize,
}

fn as_sender(s: &SStmt) -> Option<Sender> {
    let SStmt::If { cond, then, els } = s else {
        return None;
    };
    if !els.is_empty() {
        return None;
    }
    let fors: Vec<(usize, &SStmt)> = then
        .iter()
        .enumerate()
        .filter(|(_, st)| matches!(st, SStmt::For { .. }))
        .collect();
    let [(
        for_pos,
        SStmt::For {
            var,
            lo,
            hi,
            step,
            body: inner,
        },
    )] = fors.as_slice()
    else {
        return None;
    };
    if *step != SExpr::int(1) {
        return None;
    }
    for i in 0..inner.len().saturating_sub(1) {
        let SStmt::Let { var: t, value } = &inner[i] else {
            continue;
        };
        let SExpr::ARead { array, idx } = value else {
            continue;
        };
        let SStmt::Send { to, tag, values } = &inner[i + 1] else {
            continue;
        };
        if values.len() != 1 || values[0] != SExpr::var(t.clone()) {
            continue;
        }
        return Some(Sender {
            guard: cond.clone(),
            inner_var: var.clone(),
            inner_lo: lo.clone(),
            inner_hi: hi.clone(),
            array: array.clone(),
            idx: idx.clone(),
            to: to.clone(),
            tag: *tag,
            for_pos: *for_pos,
            pair_pos: i,
        });
    }
    None
}

/// Try to fuse producer/sender pairs among the top-level statements of
/// one outer loop body.
fn jam_loop(
    v: &str,
    olo: &SExpr,
    ohi: &SExpr,
    body: Vec<SStmt>,
    fused_info: &mut Vec<Fused>,
) -> (Vec<SStmt>, usize) {
    // Find one (producer, sender) pair; apply; repeat.
    let mut body = body;
    let mut fused = 0;
    'retry: loop {
        for si in 0..body.len() {
            let Some(sender) = as_sender(&body[si]) else {
                continue;
            };
            for pi in 0..body.len() {
                if pi == si {
                    continue;
                }
                let Some(prod) = as_producer(&body[pi]) else {
                    continue;
                };
                if prod.write_array != sender.array
                    || prod.inner_var != sender.inner_var
                    || prod.write_idx.len() != sender.idx.len()
                {
                    continue;
                }
                // Solve for the shift on every index dimension. The
                // dependence framework owns this computation: the shift
                // is the flow-dependence distance (in `v` iterations)
                // from the write feeding the stream to the read the
                // sender streams from.
                let Some(delta) = flow_shift(&prod.write_idx, &sender.idx, v) else {
                    continue;
                };
                if delta == 0 {
                    continue; // same iteration: nothing to pipeline
                }
                // Guards must agree under the shift.
                let (Some((ga, ma, ra)), Some((gb, mb, rb))) =
                    (parse_residue(&prod.guard), parse_residue(&sender.guard))
                else {
                    continue;
                };
                let shifted_base = gb.substitute(v, &Affine::var(v).offset(delta));
                let cb = shifted_base.constant_part();
                if ga != shifted_base.offset(-cb) || ma != mb || ra != (rb - cb).rem_euclid(ma) {
                    continue;
                }
                // All checks passed: fuse.
                apply_fusion(&mut body, pi, si, v, olo, ohi, delta, &prod, &sender);
                fused_info.push((sender.tag, delta, ma));
                fused += 1;
                continue 'retry;
            }
        }
        break;
    }
    (body, fused)
}

#[allow(clippy::too_many_arguments)]
fn apply_fusion(
    body: &mut [SStmt],
    pi: usize,
    si: usize,
    v: &str,
    olo: &SExpr,
    ohi: &SExpr,
    delta: i64,
    prod: &Producer,
    sender: &Sender,
) {
    // 1. Insert the send into the producer loop, right after the write,
    //    guarded so only iterations with an original counterpart send.
    let jam_var = format!("$jam{}", sender.tag);
    let send_now = vec![
        SStmt::Let {
            var: jam_var.clone(),
            value: SExpr::ARead {
                array: prod.write_array.clone(),
                idx: prod.write_idx.clone(),
            },
        },
        SStmt::Send {
            to: shift_sexpr(&sender.to, v, delta),
            tag: sender.tag,
            values: vec![SExpr::var(jam_var)],
        },
    ];
    // Original sender ran for v_s ∈ [olo, ohi]; producer iteration v
    // corresponds to v_s = v + delta.
    let validity = if delta > 0 {
        Some(SExpr::var(v).le(ohi.clone().sub(SExpr::int(delta))))
    } else {
        Some(SExpr::var(v).ge(olo.clone().sub(SExpr::int(delta))))
    };
    let send_now = match validity {
        Some(g) => vec![SStmt::If {
            cond: g,
            then: send_now,
            els: vec![],
        }],
        None => send_now,
    };
    if let SStmt::If { then, .. } = &mut body[pi] {
        if let SStmt::For { body: inner, .. } = &mut then[prod.for_pos] {
            let at = prod.write_pos + 1;
            for (k, stmt) in send_now.into_iter().enumerate() {
                inner.insert(at + k, stmt);
            }
        }
    }
    // 2. Restrict the original sender to the remainder iterations whose
    //    producing iteration v - delta falls outside the outer loop: the
    //    pair is removed from its loop and re-emitted in its own loop
    //    under a remainder guard (boundary columns produced elsewhere).
    let remainder_guard = if delta > 0 {
        SExpr::var(v).lt(olo.clone().add(SExpr::int(delta)))
    } else {
        SExpr::var(v).gt(ohi.clone().add(SExpr::int(delta)))
    };
    if let SStmt::If { then, .. } = &mut body[si] {
        let SStmt::For { body: inner, .. } = &mut then[sender.for_pos] else {
            unreachable!("sender loop position");
        };
        let pair: Vec<SStmt> = inner.drain(sender.pair_pos..=sender.pair_pos + 1).collect();
        let loop_now_empty = inner.is_empty();
        let remainder = SStmt::If {
            cond: remainder_guard,
            then: vec![SStmt::For {
                var: sender.inner_var.clone(),
                lo: sender.inner_lo.clone(),
                hi: sender.inner_hi.clone(),
                step: SExpr::int(1),
                body: pair,
            }],
            els: vec![],
        };
        if loop_now_empty {
            then[sender.for_pos] = remainder;
        } else {
            then.insert(sender.for_pos + 1, remainder);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn j() -> SExpr {
        SExpr::var("j")
    }

    #[test]
    fn parse_residue_normalizes_constants() {
        // (j - 1) mod 4 == 2  ≡  j mod 4 == 3
        let a =
            parse_residue(&j().sub(SExpr::int(1)).imod(SExpr::int(4)).eq(SExpr::int(2))).unwrap();
        let b = parse_residue(&j().imod(SExpr::int(4)).eq(SExpr::int(3))).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn non_residue_guards_are_rejected() {
        assert!(parse_residue(&j().le(SExpr::int(3))).is_none());
        assert!(parse_residue(&j().imod(SExpr::int(4)).le(SExpr::int(2))).is_none());
    }

    // End-to-end behaviour of jamming on real compiled programs is
    // covered by the integration tests and the pipeline tests, which
    // verify both result equality and strictly improved makespan.
}
