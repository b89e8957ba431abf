//! Static communication-safety analyzer for compiled SPMD programs.
//!
//! Runs after code generation and optimization, before execution, over
//! the same abstract iteration-space walk as the message-cost model
//! ([`pdc_report::interp`]). Where the cost model *counts* the
//! communication, this crate *checks* it:
//!
//! * **Send/recv matching** — for every `(src, dst, tag)` channel the
//!   multiset of messages sent must equal the multiset received;
//!   unmatched receives, orphaned sends, and per-message shape (arity)
//!   mismatches are flagged.
//! * **Deadlock freedom** — the per-processor event streams are replayed
//!   under the abstract semantics (sends are asynchronous, receives
//!   block on their per-channel FIFO). The replay is *confluent*: sends
//!   only ever add to a channel and each channel has a single consumer
//!   that drains it in program order, so the reachable stuck state is
//!   independent of interleaving. If the replay sticks, the wait-for
//!   graph over the blocked receives is reported — either a cycle (true
//!   deadlock, with the full blocking chain) or a receive with no
//!   matching send left anywhere (an unsatisfiable receive).
//! * **Single assignment** — two statically placed writes to the same
//!   I-structure element (same owner, same local slot) are the compiled
//!   form of an I-structure double write and are flagged before the
//!   run-time error can happen.
//! * **Lints** — dead sends (sent but never received), self-sends (the
//!   machine faults on them), and receives into variables that are never
//!   read.
//!
//! Everything is sound *relative to exactness*: when the walk loses
//! precision (data-dependent control flow, unknown extents), the event
//! streams are under-approximations, so the analyzer degrades honestly —
//! it reports `exact = false` with notes, suppresses the checks that
//! would be unsound, and never claims a program verified. On the paper's
//! wavefront and Jacobi programs the walk is exact at every optimization
//! level, and [`AnalysisReport::verified`] is a proof of deadlock
//! freedom and matched communication for the given problem size.

use pdc_mapping::DistInstance;
use pdc_report::interp::{self, ArrayId, BufId, Channels, Events, Names, RecvSink, Target, VarId};
use pdc_report::{Phase, Remark, RemarkKind};
use pdc_spmd::ir::SpmdProgram;
use std::collections::{BTreeMap, BTreeSet};

mod depend;
pub use depend::depend_remarks;

/// Diagnostic severity: errors predict a run-time fault or deadlock;
/// warnings flag suspicious-but-runnable communication.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The program will fault, deadlock, or corrupt an I-structure.
    Error,
    /// The program runs, but the communication is wasteful or dubious.
    Warning,
}

/// What kind of defect a diagnostic reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DiagKind {
    /// Send and receive counts disagree on a channel.
    UnmatchedChannel,
    /// Counts agree but the i-th message's size differs from what the
    /// i-th receive expects (a run-time arity fault).
    ShapeMismatch,
    /// A cycle in the wait-for graph: a true deadlock.
    DeadlockCycle,
    /// A blocked receive with no matching send remaining anywhere.
    UnsatisfiedRecv,
    /// Two statically placed writes to the same I-structure element.
    DoubleWrite,
    /// A processor sends to itself (the machine faults on delivery).
    SelfSend,
    /// Messages sent on a channel nobody ever receives from.
    DeadSend,
    /// A receive whose target variable or buffer is never read.
    UnusedRecv,
}

impl DiagKind {
    /// Stable lower-case identifier used in JSON and remark details.
    pub fn slug(self) -> &'static str {
        match self {
            DiagKind::UnmatchedChannel => "unmatched-channel",
            DiagKind::ShapeMismatch => "shape-mismatch",
            DiagKind::DeadlockCycle => "deadlock-cycle",
            DiagKind::UnsatisfiedRecv => "unsatisfied-recv",
            DiagKind::DoubleWrite => "double-write",
            DiagKind::SelfSend => "self-send",
            DiagKind::DeadSend => "dead-send",
            DiagKind::UnusedRecv => "unused-recv",
        }
    }
}

/// One analyzer finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// What kind of defect.
    pub kind: DiagKind,
    /// Error (faults/deadlocks) or warning (lint).
    pub severity: Severity,
    /// Human-readable, one-line message.
    pub message: String,
    /// Message tag the finding concerns, when it has one; the driver
    /// resolves this to a source span through its tag→span map.
    pub tag: Option<u32>,
    /// Array the finding concerns (double writes), for span resolution
    /// through the source program.
    pub array: Option<String>,
    /// Processor the finding is anchored to, when meaningful.
    pub proc: Option<usize>,
}

/// Observed traffic on one `(src, dst, tag)` channel — both sides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChannelFlow {
    /// Messages sent.
    pub sent: u64,
    /// Receives posted.
    pub received: u64,
    /// Payload words sent.
    pub sent_words: u64,
    /// Payload words the receives expect.
    pub recv_words: u64,
}

/// The result of statically analyzing one SPMD program.
#[derive(Debug, Clone, Default)]
pub struct AnalysisReport {
    /// All findings, errors first within each check, in deterministic
    /// order.
    pub diagnostics: Vec<Diagnostic>,
    /// Per-channel observed flow (self-send channels excluded — those
    /// messages are never delivered).
    pub channels: BTreeMap<(usize, usize, u32), ChannelFlow>,
    /// True when the abstract walk lost no precision: the event streams
    /// are then equalities and `verified()` is a proof.
    pub exact: bool,
    /// Why exactness was lost (empty when `exact`).
    pub notes: Vec<String>,
}

impl AnalysisReport {
    /// Did the analyzer *prove* the program safe? Requires an exact walk
    /// and no error-severity findings. Warnings do not block
    /// verification.
    pub fn verified(&self) -> bool {
        self.exact && !self.has_errors()
    }

    /// Any error-severity findings?
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// The error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Render the report as `analyze`-phase remarks: one `Applied`
    /// remark when the program verifies, one `Missed` remark per
    /// finding, and one `Missed` remark when exactness was lost.
    pub fn remarks(&self) -> Vec<Remark> {
        let mut out = Vec::new();
        if self.verified() {
            let mut r = Remark::new(
                Phase::Analyze,
                RemarkKind::Applied,
                "verified: deadlock-free, all channels matched, single assignment holds",
            )
            .detail("channels", self.channels.len());
            let msgs: u64 = self.channels.values().map(|c| c.sent).sum();
            r = r.detail("messages", msgs);
            out.push(r);
        }
        for d in &self.diagnostics {
            let mut r = Remark::new(Phase::Analyze, RemarkKind::Missed, d.message.clone())
                .detail("check", d.kind.slug())
                .detail(
                    "severity",
                    match d.severity {
                        Severity::Error => "error",
                        Severity::Warning => "warning",
                    },
                );
            if let Some(t) = d.tag {
                r = r.with_tag(t);
            }
            out.push(r);
        }
        if !self.exact {
            let mut r = Remark::new(
                Phase::Analyze,
                RemarkKind::Missed,
                "analysis inexact: communication-safety checks were suppressed",
            );
            for n in &self.notes {
                r = r.detail("note", n);
            }
            out.push(r);
        }
        out
    }
}

/// Upper bound on reported diagnostics; the rest are summarized in a
/// note so a degenerate program cannot flood the remark stream.
const MAX_DIAGS: usize = 64;

/// One communication event in a processor's abstract program order, on
/// the channel with this id in [`Analyzer::flows`].
#[derive(Debug, Clone, Copy)]
enum CommEv {
    Send(u32),
    Recv(u32),
}

/// Message sizes in channel order, run-length encoded: a channel carries
/// thousands of messages of one or two sizes.
#[derive(Debug, Clone, Default)]
struct Shapes(Vec<(u64, u64)>);

impl Shapes {
    fn push(&mut self, words: u64) {
        match self.0.last_mut() {
            Some((w, n)) if *w == words => *n += 1,
            _ => self.0.push((words, 1)),
        }
    }

    fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.0
            .iter()
            .flat_map(|&(w, n)| std::iter::repeat_n(w, n as usize))
    }
}

/// Both sides of one channel (self-sends excluded).
#[derive(Debug, Clone, Default)]
struct Flow {
    flow: ChannelFlow,
    /// Ordered per-message sizes, send side / receive side.
    sent_shapes: Shapes,
    recv_shapes: Shapes,
}

/// One statically placed write to an element of some array. Ordered
/// column-major within a home: generated code sweeps columns in its outer
/// loops, so a processor's writes arrive as a few long sorted runs and
/// sorting the log costs little more than checking it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Write {
    home: usize,
    lj: i64,
    li: i64,
    writer: usize,
}

/// The analyzer as a sink over the shared walk: record, then
/// [`finish`](Analyzer::finish) into the [`AnalysisReport`]. Nameable so
/// the driver can ride it on the cost model's walk through an
/// [`interp::Tee`]; [`analyze`] is the stand-alone form.
///
/// Everything the walk hits per event is indexed by slot: per-processor
/// pending-read flags by [`VarId`]/[`BufId`], channel flows by a dense
/// [`Channels`] table, element writes in one flat log per [`ArrayId`].
pub struct Analyzer<'n> {
    names: &'n Names,
    /// Per-processor communication streams, in abstract program order.
    streams: Vec<Vec<CommEv>>,
    flows: Channels<Flow>,
    /// Self-send message counts per (proc, tag).
    self_sends: BTreeMap<(usize, u32), u64>,
    /// Per array: every statically placed write, in walk order.
    writes: Vec<Vec<Write>>,
    /// Per array: did the walk meet a write it could not place?
    unplaced: Vec<bool>,
    /// For the processor being walked, per scalar and per buffer: tag of
    /// the last receive into it that has not been read since. Scalars
    /// and buffers are separate namespaces.
    pending_vars: Vec<Option<u32>>,
    pending_bufs: Vec<Option<u32>>,
    /// Receives never read — `(proc, target name, tag)` — per finished
    /// processor, ordered by name, a scalar before a buffer of its name.
    unused: Vec<(usize, String, u32)>,
    exact: bool,
    notes: Vec<String>,
}

impl<'n> Analyzer<'n> {
    /// An empty analyzer for the walk of `resolved`.
    pub fn new(resolved: &'n interp::Resolved<'_>) -> Self {
        let names = resolved.names();
        Analyzer {
            names,
            streams: Vec::with_capacity(resolved.n_procs()),
            flows: Channels::new(resolved.n_procs()),
            self_sends: BTreeMap::new(),
            writes: vec![Vec::new(); names.arrays().len()],
            unplaced: vec![false; names.arrays().len()],
            pending_vars: vec![None; names.vars().len()],
            pending_bufs: vec![None; names.bufs().len()],
            unused: Vec::new(),
            exact: true,
            notes: Vec::new(),
        }
    }

    fn lose(&mut self, msg: String) {
        self.exact = false;
        interp::keep_note(&mut self.notes, msg);
    }

    /// Move what is still pending on the processor just walked into
    /// `unused`, leaving the flags clear for the next one.
    fn close_proc(&mut self) {
        let Some(proc) = self.streams.len().checked_sub(1) else {
            return;
        };
        let names = self.names;
        let vars = self.pending_vars.iter_mut().zip(names.vars());
        let bufs = self.pending_bufs.iter_mut().zip(names.bufs());
        let mut left: Vec<(&String, bool, u32)> = vars
            .filter_map(|(tag, name)| Some((name, false, tag.take()?)))
            .chain(bufs.filter_map(|(tag, name)| Some((name, true, tag.take()?))))
            .collect();
        left.sort();
        self.unused.extend(
            left.into_iter()
                .map(|(name, _, tag)| (proc, name.clone(), tag)),
        );
    }
}

impl Events for Analyzer<'_> {
    fn proc_begin(&mut self, proc: usize) {
        debug_assert_eq!(proc, self.streams.len());
        self.close_proc();
        self.streams.push(Vec::new());
    }

    fn send(&mut self, proc: usize, dst: usize, tag: u32, words: u64) {
        if dst == proc {
            // Never delivered: the fabric records the fault instead.
            *self.self_sends.entry((proc, tag)).or_default() += 1;
            return;
        }
        let chan = self.flows.id(proc, dst, tag);
        self.streams[proc].push(CommEv::Send(chan as u32));
        let c = self.flows.get_mut(chan);
        c.flow.sent += 1;
        c.flow.sent_words += words;
        c.sent_shapes.push(words);
    }

    fn recv(&mut self, proc: usize, src: usize, tag: u32, words: u64, sink: RecvSink<'_>) {
        let chan = self.flows.id(src, proc, tag);
        self.streams[proc].push(CommEv::Recv(chan as u32));
        let c = self.flows.get_mut(chan);
        c.flow.received += 1;
        c.flow.recv_words += words;
        c.recv_shapes.push(words);
        match sink {
            RecvSink::Targets(targets) => {
                for t in targets {
                    match t {
                        Target::Var(v) => self.pending_vars[v.index()] = Some(tag),
                        Target::Buf(b) => self.pending_bufs[b.index()] = Some(tag),
                    }
                }
            }
            RecvSink::Buffer(b) => self.pending_bufs[b.index()] = Some(tag),
        }
    }

    fn array_write(&mut self, proc: usize, array: ArrayId, element: Option<(usize, i64, i64)>) {
        match element {
            Some((home, li, lj)) => self.writes[array.index()].push(Write {
                home,
                li,
                lj,
                writer: proc,
            }),
            None => {
                if !std::mem::replace(&mut self.unplaced[array.index()], true) {
                    self.lose(format!(
                        "P{proc}: write to `{}` at a statically unknown element",
                        self.names.array(array)
                    ));
                }
            }
        }
    }

    fn var_read(&mut self, _proc: usize, var: VarId) {
        self.pending_vars[var.index()] = None;
    }

    fn buf_read(&mut self, _proc: usize, buf: BufId) {
        self.pending_bufs[buf.index()] = None;
    }

    fn note(&mut self, _proc: usize, msg: String) {
        self.lose(msg);
    }
}

/// Statically analyze the communication safety of `prog`.
///
/// `env` seeds every processor's scalar environment (the compile-time
/// constants, e.g. `n = 16`); `arrays` provides distribution instances
/// for arrays that are *preloaded* rather than allocated by the program.
/// Same contract as [`pdc_report::predict`].
pub fn analyze(
    prog: &SpmdProgram,
    env: &BTreeMap<String, i64>,
    arrays: &BTreeMap<String, DistInstance>,
) -> AnalysisReport {
    let resolved = interp::resolve(prog, env, arrays);
    let mut analyzer = Analyzer::new(&resolved);
    resolved.walk(&mut analyzer);
    analyzer.finish()
}

impl Analyzer<'_> {
    /// Run the checks over what the walk recorded.
    pub fn finish(mut self) -> AnalysisReport {
        self.close_proc();
        let mut diags: Vec<Diagnostic> = Vec::new();

        // Self-sends are real faults whether or not the walk was exact:
        // each one was actually witnessed.
        for (&(p, tag), &n) in &self.self_sends {
            diags.push(Diagnostic {
                kind: DiagKind::SelfSend,
                severity: Severity::Error,
                message: format!(
                    "P{p} sends tag {tag} to itself ({n} message(s)); the machine faults on \
                     self-sends"
                ),
                tag: Some(tag),
                array: None,
                proc: Some(p),
            });
        }

        // Every other check is only sound on exact event streams.
        if self.exact {
            check_channels(&self.flows, &mut diags);
            check_deadlock(&self.streams, &self.flows, &mut diags);
            check_single_assignment(self.names, &mut self.writes, &mut diags);
            check_unused_recvs(&self.unused, &mut diags);
        }

        let mut notes = self.notes;
        if diags.len() > MAX_DIAGS {
            notes.push(format!(
                "{} further diagnostic(s) truncated",
                diags.len() - MAX_DIAGS
            ));
            diags.truncate(MAX_DIAGS);
        }
        AnalysisReport {
            diagnostics: diags,
            channels: self
                .flows
                .into_sorted()
                .into_iter()
                .map(|(k, f)| (k, f.flow))
                .collect(),
            exact: self.exact,
            notes,
        }
    }
}

/// Multiset send/recv matching plus per-message shape checking.
fn check_channels(flows: &Channels<Flow>, diags: &mut Vec<Diagnostic>) {
    let mut by_key: Vec<_> = flows.iter().collect();
    by_key.sort_by_key(|(key, _)| *key);
    for ((src, dst, tag), channel) in by_key {
        let flow = channel.flow;
        if flow.sent > flow.received && flow.received == 0 {
            diags.push(Diagnostic {
                kind: DiagKind::DeadSend,
                severity: Severity::Warning,
                message: format!(
                    "channel P{src}->P{dst} tag {tag}: {} message(s) sent but never received",
                    flow.sent
                ),
                tag: Some(tag),
                array: None,
                proc: Some(src),
            });
        } else if flow.sent > flow.received {
            diags.push(Diagnostic {
                kind: DiagKind::UnmatchedChannel,
                severity: Severity::Warning,
                message: format!(
                    "channel P{src}->P{dst} tag {tag}: {} message(s) sent but only {} received \
                     ({} orphaned)",
                    flow.sent,
                    flow.received,
                    flow.sent - flow.received
                ),
                tag: Some(tag),
                array: None,
                proc: Some(src),
            });
        } else if flow.received > flow.sent {
            diags.push(Diagnostic {
                kind: DiagKind::UnmatchedChannel,
                severity: Severity::Error,
                message: format!(
                    "channel P{src}->P{dst} tag {tag}: {} receive(s) posted but only {} \
                     message(s) sent",
                    flow.received, flow.sent
                ),
                tag: Some(tag),
                array: None,
                proc: Some(dst),
            });
        }
        // The i-th message on a channel is consumed by the i-th receive
        // (per-channel FIFO), so shapes compare positionally.
        if channel.sent_shapes.0 == channel.recv_shapes.0 {
            continue;
        }
        let mismatch = channel
            .sent_shapes
            .iter()
            .zip(channel.recv_shapes.iter())
            .enumerate()
            .find(|(_, (sw, rw))| sw != rw);
        // One shape report per channel is enough.
        if let Some((i, (sw, rw))) = mismatch {
            diags.push(Diagnostic {
                kind: DiagKind::ShapeMismatch,
                severity: Severity::Error,
                message: format!(
                    "channel P{src}->P{dst} tag {tag}: message {} carries {sw} word(s) \
                     but the receive expects {rw}",
                    i + 1
                ),
                tag: Some(tag),
                array: None,
                proc: Some(dst),
            });
        }
    }
}

/// Replay the event streams to a stuck state; report the wait-for graph.
fn check_deadlock(streams: &[Vec<CommEv>], flows: &Channels<Flow>, diags: &mut Vec<Diagnostic>) {
    let mut idx = vec![0usize; streams.len()];
    // Messages in flight per channel.
    let mut pending = vec![0u64; flows.len()];
    loop {
        let mut progressed = false;
        for (p, ix) in idx.iter_mut().enumerate() {
            while let Some(ev) = streams[p].get(*ix) {
                match *ev {
                    CommEv::Send(chan) => pending[chan as usize] += 1,
                    CommEv::Recv(chan) => match &mut pending[chan as usize] {
                        0 => break,
                        c => *c -= 1,
                    },
                }
                *ix += 1;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }

    // Wait-for edges: every stuck processor is blocked on exactly one
    // receive.
    let mut blocked: BTreeMap<usize, (usize, u32)> = BTreeMap::new();
    for (p, &ix) in idx.iter().enumerate() {
        if let Some(CommEv::Recv(chan)) = streams[p].get(ix) {
            let (src, _, tag) = flows.key(*chan as usize);
            blocked.insert(p, (src, tag));
        }
    }
    if blocked.is_empty() {
        return;
    }

    // A blocked receive whose source has no matching send left anywhere
    // in its remaining stream can never be satisfied, independent of
    // scheduling.
    let mut unsatisfied: BTreeSet<usize> = BTreeSet::new();
    for (&p, &(src, tag)) in &blocked {
        let chan = flows.find(src, p, tag);
        let has_future_send = streams[src][idx[src]..]
            .iter()
            .any(|ev| matches!(ev, CommEv::Send(c) if Some(*c as usize) == chan));
        if !has_future_send {
            unsatisfied.insert(p);
            diags.push(Diagnostic {
                kind: DiagKind::UnsatisfiedRecv,
                severity: Severity::Error,
                message: format!(
                    "P{p} blocks on its communication #{} (tag {tag} from P{src}) and P{src} \
                     has no matching send remaining",
                    idx[p] + 1
                ),
                tag: Some(tag),
                array: None,
                proc: Some(p),
            });
        }
    }

    // The remaining blocked processors form a functional wait-for graph
    // (one out-edge each). Chase it to find cycles; report each once,
    // starting from its smallest member, with the full blocking chain.
    let mut in_reported_cycle: BTreeSet<usize> = BTreeSet::new();
    for &start in blocked.keys() {
        if unsatisfied.contains(&start) || in_reported_cycle.contains(&start) {
            continue;
        }
        // Walk until we leave the blocked set, hit an unsatisfied root,
        // or revisit a node from this walk (a cycle).
        let mut seen: Vec<usize> = Vec::new();
        let mut cur = start;
        let cycle = loop {
            if let Some(pos) = seen.iter().position(|&q| q == cur) {
                break Some(seen[pos..].to_vec());
            }
            seen.push(cur);
            match blocked.get(&cur) {
                Some(&(next, _)) if !unsatisfied.contains(&next) && blocked.contains_key(&next) => {
                    cur = next;
                }
                _ => break None, // chain drains into a non-blocked or unsatisfied proc
            }
        };
        let Some(mut cycle) = cycle else { continue };
        if cycle.iter().any(|q| in_reported_cycle.contains(q)) {
            continue;
        }
        // Canonicalize: start the cycle at its smallest processor.
        let min_pos = cycle
            .iter()
            .enumerate()
            .min_by_key(|(_, &q)| q)
            .map(|(i, _)| i)
            .unwrap_or(0);
        cycle.rotate_left(min_pos);
        in_reported_cycle.extend(cycle.iter().copied());
        let chain = cycle
            .iter()
            .map(|&q| {
                let (src, tag) = blocked[&q];
                format!("P{q} awaits tag {tag} from P{src}")
            })
            .collect::<Vec<_>>()
            .join("; ");
        let upstream = blocked
            .keys()
            .filter(|q| !in_reported_cycle.contains(q) && !unsatisfied.contains(q))
            .count();
        let (_, first_tag) = blocked[&cycle[0]];
        let mut message = format!("deadlock cycle: {chain}");
        if upstream > 0 {
            message.push_str(&format!(
                " ({upstream} more processor(s) blocked behind it)"
            ));
        }
        diags.push(Diagnostic {
            kind: DiagKind::DeadlockCycle,
            severity: Severity::Error,
            message,
            tag: Some(first_tag),
            array: None,
            proc: Some(cycle[0]),
        });
    }
}

/// Two statically placed writes to one I-structure element. Sorts each
/// array's write log so the writes to one element sit together.
fn check_single_assignment(names: &Names, writes: &mut [Vec<Write>], diags: &mut Vec<Diagnostic>) {
    let mut by_name: Vec<usize> = (0..writes.len()).collect();
    by_name.sort_by_key(|&a| &names.arrays()[a]);
    for a in by_name {
        let array = &names.arrays()[a];
        writes[a].sort();
        let mut doubles: Vec<&[Write]> = writes[a]
            .chunk_by(|x, y| (x.home, x.li, x.lj) == (y.home, y.li, y.lj))
            .filter(|element| element.len() >= 2)
            .collect();
        // Reported row-major, whatever order found them.
        doubles.sort_by_key(|element| (element[0].home, element[0].li, element[0].lj));
        for element in doubles {
            let total = element.len();
            let Write { home, li, lj, .. } = element[0];
            let who = element
                .chunk_by(|x, y| x.writer == y.writer)
                .map(|by_writer| match (by_writer[0].writer, by_writer.len()) {
                    (p, 1) => format!("P{p}"),
                    (p, n) => format!("P{p} x{n}"),
                })
                .collect::<Vec<_>>()
                .join(", ");
            diags.push(Diagnostic {
                kind: DiagKind::DoubleWrite,
                severity: Severity::Error,
                message: format!(
                    "element ({li}, {lj}) of `{array}` on P{home} is written {total} times \
                     (writers: {who})"
                ),
                tag: None,
                array: Some(array.clone()),
                proc: Some(home),
            });
        }
    }
}

/// Receives whose target variable or buffer is never read afterwards.
fn check_unused_recvs(unused: &[(usize, String, u32)], diags: &mut Vec<Diagnostic>) {
    for (p, name, tag) in unused {
        diags.push(Diagnostic {
            kind: DiagKind::UnusedRecv,
            severity: Severity::Warning,
            message: format!("P{p} receives tag {tag} into `{name}` but never reads it"),
            tag: Some(*tag),
            array: None,
            proc: Some(*p),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_spmd::ir::{RecvTarget, SExpr, SStmt};

    fn send(to: i64, tag: u32, v: SExpr) -> SStmt {
        SStmt::Send {
            to: SExpr::int(to),
            tag,
            values: vec![v],
        }
    }

    fn recv(from: i64, tag: u32, var: &str) -> SStmt {
        SStmt::Recv {
            from: SExpr::int(from),
            tag,
            into: vec![RecvTarget::Var(var.into())],
        }
    }

    /// `let _use = x;` so the unused-receive lint stays quiet.
    fn use_var(var: &str) -> SStmt {
        SStmt::Let {
            var: format!("use_{var}"),
            value: SExpr::var(var),
        }
    }

    fn report(prog: SpmdProgram) -> AnalysisReport {
        analyze(&prog, &BTreeMap::new(), &BTreeMap::new())
    }

    #[test]
    fn matched_stream_verifies() {
        let prog = SpmdProgram::new(vec![
            vec![send(1, 7, SExpr::int(1)), send(1, 7, SExpr::int(2))],
            vec![recv(0, 7, "x"), use_var("x"), recv(0, 7, "y"), use_var("y")],
        ]);
        let r = report(prog);
        assert!(r.verified(), "{:?}", r.diagnostics);
        assert_eq!(r.channels[&(0, 1, 7)].sent, 2);
        assert_eq!(r.channels[&(0, 1, 7)].received, 2);
        let remarks = r.remarks();
        assert_eq!(remarks.len(), 1);
        assert!(remarks[0].message.contains("verified"));
    }

    #[test]
    fn dropped_send_is_an_unsatisfied_recv() {
        let prog = SpmdProgram::new(vec![
            vec![send(1, 7, SExpr::int(1))],
            vec![recv(0, 7, "x"), use_var("x"), recv(0, 7, "y"), use_var("y")],
        ]);
        let r = report(prog);
        assert!(!r.verified());
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.kind == DiagKind::UnmatchedChannel && d.severity == Severity::Error));
        let unsat = r
            .diagnostics
            .iter()
            .find(|d| d.kind == DiagKind::UnsatisfiedRecv)
            .expect("unsatisfied recv");
        assert_eq!(unsat.tag, Some(7));
        assert!(unsat.message.contains("P1 blocks"));
    }

    #[test]
    fn crossed_receives_form_a_cycle() {
        // P0 waits for P1's message before sending; P1 does the same.
        let prog = SpmdProgram::new(vec![
            vec![recv(1, 9, "a"), use_var("a"), send(1, 8, SExpr::int(0))],
            vec![recv(0, 8, "b"), use_var("b"), send(0, 9, SExpr::int(0))],
        ]);
        let r = report(prog);
        let cyc = r
            .diagnostics
            .iter()
            .find(|d| d.kind == DiagKind::DeadlockCycle)
            .expect("cycle");
        assert!(
            cyc.message.contains("P0 awaits tag 9 from P1"),
            "{}",
            cyc.message
        );
        assert!(
            cyc.message.contains("P1 awaits tag 8 from P0"),
            "{}",
            cyc.message
        );
    }

    #[test]
    fn swapped_tags_deadlock_even_with_matching_counts() {
        // P1 posts its receives in an order the FIFO cannot satisfy only
        // if tags are *different* and sends are ordered; with tag swap on
        // one side, each channel's totals disagree.
        let prog = SpmdProgram::new(vec![
            vec![send(1, 7, SExpr::int(1)), send(1, 8, SExpr::int(2))],
            vec![recv(0, 8, "x"), use_var("x"), recv(0, 9, "y"), use_var("y")],
        ]);
        let r = report(prog);
        assert!(!r.verified());
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.kind == DiagKind::UnsatisfiedRecv && d.tag == Some(9)));
        // tag 7 was sent and never received.
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.kind == DiagKind::DeadSend && d.tag == Some(7)));
    }

    #[test]
    fn self_send_is_flagged_even_when_inexact() {
        let prog = SpmdProgram::new(vec![vec![
            SStmt::AllocBuf {
                buf: "b".into(),
                len: SExpr::int(1),
            },
            SStmt::If {
                cond: SExpr::BufRead {
                    buf: "b".into(),
                    idx: Box::new(SExpr::int(0)),
                }
                .gt(SExpr::int(0)),
                then: vec![],
                els: vec![],
            },
            send(0, 3, SExpr::int(1)),
        ]]);
        let r = report(prog);
        assert!(!r.exact);
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.kind == DiagKind::SelfSend && d.severity == Severity::Error));
    }

    #[test]
    fn double_write_to_one_element_is_flagged() {
        let prog = SpmdProgram::new(vec![vec![
            SStmt::AWrite {
                array: "A".into(),
                idx: vec![SExpr::int(3)],
                value: SExpr::int(1),
            },
            SStmt::AWrite {
                array: "A".into(),
                idx: vec![SExpr::int(3)],
                value: SExpr::int(2),
            },
        ]]);
        let r = report(prog);
        let dw = r
            .diagnostics
            .iter()
            .find(|d| d.kind == DiagKind::DoubleWrite)
            .expect("double write");
        assert_eq!(dw.array.as_deref(), Some("A"));
        assert!(dw.message.contains("written 2 times"));
    }

    #[test]
    fn distinct_elements_do_not_collide() {
        let prog = SpmdProgram::new(vec![vec![
            SStmt::AWrite {
                array: "A".into(),
                idx: vec![SExpr::int(3)],
                value: SExpr::int(1),
            },
            SStmt::AWrite {
                array: "A".into(),
                idx: vec![SExpr::int(4)],
                value: SExpr::int(2),
            },
        ]]);
        let r = report(prog);
        assert!(r.verified(), "{:?}", r.diagnostics);
    }

    #[test]
    fn unread_receive_target_is_linted() {
        let prog = SpmdProgram::new(vec![vec![send(1, 7, SExpr::int(1))], vec![recv(0, 7, "x")]]);
        let r = report(prog);
        let lint = r
            .diagnostics
            .iter()
            .find(|d| d.kind == DiagKind::UnusedRecv)
            .expect("unused recv");
        assert_eq!(lint.severity, Severity::Warning);
        assert!(lint.message.contains("`x`"));
        // A warning alone does not block verification.
        assert!(r.verified());
    }

    #[test]
    fn scalar_used_only_as_a_receive_buffer_index_counts_as_read() {
        // P1 receives `k`, then receives into `b[k]`: the VM loads `k`
        // after the second `Recv`, so `k` is not an unused receive.
        let prog = SpmdProgram::new(vec![
            vec![send(1, 7, SExpr::int(2)), send(1, 8, SExpr::int(9))],
            vec![
                SStmt::AllocBuf {
                    buf: "b".into(),
                    len: SExpr::int(4),
                },
                recv(0, 7, "k"),
                SStmt::Recv {
                    from: SExpr::int(0),
                    tag: 8,
                    into: vec![RecvTarget::Buf {
                        buf: "b".into(),
                        idx: SExpr::var("k"),
                    }],
                },
                SStmt::Let {
                    var: "use_b".into(),
                    value: SExpr::BufRead {
                        buf: "b".into(),
                        idx: Box::new(SExpr::int(2)),
                    },
                },
            ],
        ]);
        let r = report(prog);
        assert!(r.verified());
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn a_scalar_and_a_buffer_of_one_name_are_tracked_apart() {
        // P1 receives into scalar `x` and into buffer `x`, then reads
        // only the buffer: they are different storage (the lowering keeps
        // separate symbol tables), so the scalar stays unread — and is
        // reported before the buffer would be.
        let both = |read: SStmt| {
            SpmdProgram::new(vec![
                vec![send(1, 7, SExpr::int(1)), send(1, 8, SExpr::int(2))],
                vec![
                    SStmt::AllocBuf {
                        buf: "x".into(),
                        len: SExpr::int(1),
                    },
                    recv(0, 7, "x"),
                    SStmt::Recv {
                        from: SExpr::int(0),
                        tag: 8,
                        into: vec![RecvTarget::Buf {
                            buf: "x".into(),
                            idx: SExpr::int(0),
                        }],
                    },
                    read,
                ],
            ])
        };
        let unused = |r: &AnalysisReport| -> Vec<Option<u32>> {
            r.diagnostics
                .iter()
                .filter(|d| d.kind == DiagKind::UnusedRecv)
                .map(|d| d.tag)
                .collect()
        };
        let read_buffer = SStmt::Let {
            var: "y".into(),
            value: SExpr::BufRead {
                buf: "x".into(),
                idx: Box::new(SExpr::int(0)),
            },
        };
        assert_eq!(unused(&report(both(read_buffer))), vec![Some(7)]);
        assert_eq!(unused(&report(both(use_var("x")))), vec![Some(8)]);
        let neither = report(both(SStmt::Comment("reads nothing".into())));
        assert_eq!(unused(&neither), vec![Some(7), Some(8)]);
    }

    #[test]
    fn shape_mismatch_is_flagged_positionally() {
        let prog = SpmdProgram::new(vec![
            vec![SStmt::Send {
                to: SExpr::int(1),
                tag: 7,
                values: vec![SExpr::int(1), SExpr::int(2)],
            }],
            vec![recv(0, 7, "x"), use_var("x")],
        ]);
        let r = report(prog);
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.kind == DiagKind::ShapeMismatch && d.severity == Severity::Error));
    }

    #[test]
    fn inexact_walk_suppresses_replay_checks() {
        // The receive is under data-dependent control: the analyzer must
        // not claim an unsatisfied receive it cannot see.
        let prog = SpmdProgram::new(vec![
            vec![],
            vec![
                SStmt::AllocBuf {
                    buf: "b".into(),
                    len: SExpr::int(1),
                },
                SStmt::If {
                    cond: SExpr::BufRead {
                        buf: "b".into(),
                        idx: Box::new(SExpr::int(0)),
                    }
                    .gt(SExpr::int(0)),
                    then: vec![recv(0, 7, "x")],
                    els: vec![],
                },
            ],
        ]);
        let r = report(prog);
        assert!(!r.exact);
        assert!(!r.verified());
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        let remarks = r.remarks();
        assert!(remarks.iter().any(|m| m.message.contains("inexact")));
    }

    #[test]
    fn pipelined_ring_verifies() {
        // P0 -> P1 -> P2 -> P0: a ring where every receive's message is
        // already in flight. Deadlock-free.
        let ring = |p: usize| -> Vec<SStmt> {
            let next = (p + 1) % 3;
            let prev = (p + 2) % 3;
            vec![
                send(next as i64, 20 + p as u32, SExpr::int(1)),
                recv(prev as i64, 20 + prev as u32, "x"),
                use_var("x"),
            ]
        };
        let r = report(SpmdProgram::new(vec![ring(0), ring(1), ring(2)]));
        assert!(r.verified(), "{:?}", r.diagnostics);
    }

    #[test]
    fn recv_before_send_ring_deadlocks() {
        // Everyone receives before sending: classic 3-cycle.
        let ring = |p: usize| -> Vec<SStmt> {
            let next = (p + 1) % 3;
            let prev = (p + 2) % 3;
            vec![
                recv(prev as i64, 20 + prev as u32, "x"),
                use_var("x"),
                send(next as i64, 20 + p as u32, SExpr::int(1)),
            ]
        };
        let r = report(SpmdProgram::new(vec![ring(0), ring(1), ring(2)]));
        let cyc = r
            .diagnostics
            .iter()
            .find(|d| d.kind == DiagKind::DeadlockCycle)
            .expect("cycle");
        assert!(cyc.message.contains("P0 awaits"), "{}", cyc.message);
        assert!(cyc.message.contains("P2 awaits"), "{}", cyc.message);
    }
}
