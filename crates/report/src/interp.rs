//! Shared symbolic interpreter over compiled SPMD programs.
//!
//! Both the message-cost model ([`crate::cost`]) and the static
//! communication-safety analyzer (`pdc-analyze`) need the same abstract
//! walk: run each processor's specialized program over the domain
//! `{Int, Float, Bool, ⊤}`, unrolling loops whose bounds are statically
//! known and havocking whatever unknown control flow could touch. This
//! module owns that walk; clients observe it through the [`Events`] sink
//! trait and never duplicate the iteration-space logic.
//!
//! The walk is *resolve once, run per processor*. [`resolve`] interns
//! every scalar, array and buffer name of the program to a dense slot
//! ([`VarId`], [`ArrayId`], [`BufId`]; the [`Names`] table maps them back
//! for messages), folds `mynode`/`nprocs` and constant subexpressions,
//! precomputes each statement's syntactic [`Work`], and shrinks every
//! expression whose value is statically ⊤ or unused to the reads it
//! makes. [`Resolved::walk`] then runs every processor over a `Vec<Abs>`
//! environment and borrowed `DistInstance`s — no name is hashed, cloned
//! or compared while walking — and the [`Events`] hooks carry the ids, so
//! sinks index their own tables by slot. DESIGN §8c places this module in
//! the static models' architecture (resolve → one walk → sinks → replay).
//!
//! The interpreter mirrors the VM exactly where it matters:
//!
//! * operators are the VM's own: [`pdc_lang::binop`]/[`pdc_lang::unop`],
//!   lifted so that ⊤ in, or a fault out, gives ⊤;
//! * `for` evaluates `lo`/`hi` once, then runs `v = lo; while (step > 0 ?
//!   v <= hi : v >= hi) { body; v += step }`, where a zero step or a
//!   step that overflows faults (the walk notes it and leaves the loop);
//! * `owner_of` resolves `OwnerSet::One(p)` to `p` and `OwnerSet::All` to
//!   the *executing* processor (replicated data is locally owned);
//! * a `csend` of `k` scalars carries `2k` payload words (the VM encodes
//!   each scalar as a type-tag word plus a value word); a `SendBuf` of
//!   `b[lo..=hi]` carries `2(hi-lo+1)` words;
//! * a `crecv` evaluates its source before the message is consumed and
//!   the buffer indices of its targets after it.
//!
//! Array and buffer *contents* are opaque: `ARead`/`AReadGlobal`/
//! `BufRead` evaluate to ⊤ (unknown). When an unknown value reaches
//! control flow, a send destination, or a loop bound, the affected
//! communication cannot be counted and the walk reports why through
//! [`Events::note`]; sinks treat any note as loss of exactness.

use pdc_lang::scalar::{self, Scalar};
use pdc_lang::{BinOp, UnOp};
use std::collections::BTreeMap;

mod resolve;
mod walk;

pub use resolve::{resolve, Resolved};

/// Per-statement fuel per processor: a backstop against runaway loop
/// bounds, far above anything the paper's programs execute at
/// analysis-relevant sizes. Comments execute nothing and burn none.
pub const FUEL: u64 = 50_000_000;

/// The abstract value domain: a statically known scalar, or ⊤ (`None`:
/// unknown, typically an array or buffer read).
pub type Abs = Option<Scalar>;

macro_rules! slot_id {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(u32);

        impl $name {
            /// The dense slot number — what a sink indexes its own
            /// per-name tables with.
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }
    };
}

slot_id!(
    /// A scalar variable of the resolved program.
    VarId
);
slot_id!(
    /// A distributed (I-structure) array of the resolved program.
    ArrayId
);
slot_id!(
    /// A plain local buffer of the resolved program. Buffers and scalars
    /// are separate namespaces, as in the lowering's symbol tables.
    BufId
);

/// The id → name tables of a resolved program, one per namespace, shared
/// by all processors. Sinks keep ids while the walk runs and come here
/// only to word a message.
#[derive(Debug, Clone, Default)]
pub struct Names {
    vars: Vec<String>,
    arrays: Vec<String>,
    bufs: Vec<String>,
}

impl Names {
    /// The scalar variable behind `id`.
    pub fn var(&self, id: VarId) -> &str {
        &self.vars[id.index()]
    }

    /// The array behind `id`.
    pub fn array(&self, id: ArrayId) -> &str {
        &self.arrays[id.index()]
    }

    /// The buffer behind `id`.
    pub fn buf(&self, id: BufId) -> &str {
        &self.bufs[id.index()]
    }

    /// Every scalar variable, indexed by [`VarId::index`].
    pub fn vars(&self) -> &[String] {
        &self.vars
    }

    /// Every array, indexed by [`ArrayId::index`].
    pub fn arrays(&self) -> &[String] {
        &self.arrays
    }

    /// Every buffer, indexed by [`BufId::index`].
    pub fn bufs(&self) -> &[String] {
        &self.bufs
    }
}

/// One target of a counted `crecv`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// The scalar is stored into a variable.
    Var(VarId),
    /// The scalar is stored into one cell of a buffer.
    Buf(BufId),
}

/// Where a counted receive lands: scalar/buffer-cell targets (`crecv`)
/// or a contiguous buffer slice (`brecv`).
#[derive(Debug, Clone, Copy)]
pub enum RecvSink<'a> {
    /// `Recv { into }` — one scalar per target.
    Targets(&'a [Target]),
    /// `RecvBuf { buf }` — a block received into `buf`.
    Buffer(BufId),
}

/// Local compute the VM would execute between two communication events,
/// counted by cost class. The walk mirrors the lowering instruction by
/// instruction — one `mem` per `Load`/`Store`/`Alloc*`/`Buf*`, one `alu`
/// per `Bin`/`Un` (global array accesses add two for the Map/Local
/// evaluation), one `istruct` per `ARead`/`AWrite`, one `branch` per
/// `JumpIfFalse` (loop tests and `if` guards) — so a timing sink can
/// charge exactly what `instr_cost` charges at run time. Stack pushes
/// and unconditional jumps cost zero cycles and are not counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// `Bin`/`Un` instructions (`alu_op` cycles each).
    pub alu: u64,
    /// `Load`/`Store`/`AllocDist`/`AllocBuf`/`BufRead`/`BufWrite`
    /// instructions (`mem_op` cycles each).
    pub mem: u64,
    /// `ARead`/`AWrite`/`AReadGlobal`/`AWriteGlobal` instructions
    /// (`istruct_op` cycles each; the global forms also count two `alu`).
    pub istruct: u64,
    /// `JumpIfFalse` instructions (`loop_overhead` cycles each).
    pub branch: u64,
}

impl Work {
    /// No work at all?
    pub fn is_zero(&self) -> bool {
        *self == Work::default()
    }
}

impl std::ops::AddAssign for Work {
    fn add_assign(&mut self, o: Work) {
        self.alu += o.alu;
        self.mem += o.mem;
        self.istruct += o.istruct;
        self.branch += o.branch;
    }
}

/// A table over `(src, dst, tag)` channels that the sinks hit once per
/// message: `(src, dst)` indexes a dense head array and the few tags a
/// processor pair uses chain off it, so a lookup is an index plus a
/// comparison or two. Entries get ids `0, 1, …` in first-use order;
/// streams store the id and replays index plain vectors with it.
#[derive(Debug, Clone)]
pub struct Channels<T> {
    nprocs: usize,
    /// `heads[src * nprocs + dst]`: first entry of the pair's chain.
    heads: Vec<u32>,
    entries: Vec<ChannelEntry<T>>,
}

#[derive(Debug, Clone)]
struct ChannelEntry<T> {
    key: (usize, usize, u32),
    next: u32,
    value: T,
}

const NO_ENTRY: u32 = u32::MAX;

impl<T: Default> Channels<T> {
    /// An empty table for `nprocs` processors.
    pub fn new(nprocs: usize) -> Self {
        Channels {
            nprocs,
            heads: vec![NO_ENTRY; nprocs * nprocs],
            entries: Vec::new(),
        }
    }

    /// The id of channel `(src, dst, tag)`, entered with a default value
    /// on first use.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is not below `nprocs` (the walk only
    /// emits in-range endpoints).
    pub fn id(&mut self, src: usize, dst: usize, tag: u32) -> usize {
        if let Some(id) = self.find(src, dst, tag) {
            return id;
        }
        let head = &mut self.heads[src * self.nprocs + dst];
        let id = self.entries.len();
        self.entries.push(ChannelEntry {
            key: (src, dst, tag),
            next: *head,
            value: T::default(),
        });
        *head = u32::try_from(id).expect("fewer than 2^32 channels");
        id
    }

    /// The value of channel `(src, dst, tag)`, entered on first use.
    pub fn slot(&mut self, src: usize, dst: usize, tag: u32) -> &mut T {
        let id = self.id(src, dst, tag);
        &mut self.entries[id].value
    }
}

impl<T> Channels<T> {
    /// The id of channel `(src, dst, tag)` if it was ever entered.
    pub fn find(&self, src: usize, dst: usize, tag: u32) -> Option<usize> {
        assert!(src < self.nprocs && dst < self.nprocs);
        let mut at = self.heads[src * self.nprocs + dst];
        while at != NO_ENTRY {
            let e = &self.entries[at as usize];
            if e.key.2 == tag {
                return Some(at as usize);
            }
            at = e.next;
        }
        None
    }

    /// Number of channels entered.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// No channel entered yet?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The `(src, dst, tag)` behind an id.
    pub fn key(&self, id: usize) -> (usize, usize, u32) {
        self.entries[id].key
    }

    /// The value behind an id.
    pub fn get(&self, id: usize) -> &T {
        &self.entries[id].value
    }

    /// The value behind an id, mutably.
    pub fn get_mut(&mut self, id: usize) -> &mut T {
        &mut self.entries[id].value
    }

    /// Every channel with its value, in id order.
    pub fn iter(&self) -> impl Iterator<Item = ((usize, usize, u32), &T)> {
        self.entries.iter().map(|e| (e.key, &e.value))
    }

    /// Every channel with its value, ordered by `(src, dst, tag)` — the
    /// order reports and diagnostics are rendered in.
    pub fn into_sorted(self) -> BTreeMap<(usize, usize, u32), T> {
        self.entries.into_iter().map(|e| (e.key, e.value)).collect()
    }
}

/// Observer of the abstract walk. All hooks default to no-ops so sinks
/// implement only what they consume; `()` is the sink that consumes
/// nothing.
///
/// Event order within one processor is program order under the abstract
/// semantics; processors are walked in increasing id.
pub trait Events {
    /// Walk of processor `proc`'s body is starting.
    fn proc_begin(&mut self, proc: usize) {
        let _ = proc;
    }

    /// Local compute executed since the previous event on `proc`.
    /// Emitted lazily — immediately before each send/recv and once at
    /// the end of the processor's walk — so consecutive local
    /// statements batch into a single call. Never called with zero
    /// work.
    fn work(&mut self, proc: usize, work: Work) {
        let _ = (proc, work);
    }

    /// A send whose destination (and slice, for block sends) was
    /// statically known. `words` is the payload size in machine words.
    fn send(&mut self, proc: usize, dst: usize, tag: u32, words: u64) {
        let _ = (proc, dst, tag, words);
    }

    /// A receive whose source (and slice, for block receives) was
    /// statically known.
    fn recv(&mut self, proc: usize, src: usize, tag: u32, words: u64, sink: RecvSink<'_>) {
        let _ = (proc, src, tag, words, sink);
    }

    /// A write to an I-structure element. `element` is the element's home
    /// — `(owning processor, local row, local col)` — or `None` when the
    /// indices or the distribution are not statically known.
    fn array_write(&mut self, proc: usize, array: ArrayId, element: Option<(usize, i64, i64)>) {
        let _ = (proc, array, element);
    }

    /// A scalar variable was read.
    fn var_read(&mut self, proc: usize, var: VarId) {
        let _ = (proc, var);
    }

    /// A buffer was read (element read or block send out of it).
    fn buf_read(&mut self, proc: usize, buf: BufId) {
        let _ = (proc, buf);
    }

    /// Exactness was lost; `msg` says why. Any note means the walk's
    /// event stream is an under-approximation.
    fn note(&mut self, proc: usize, msg: String) {
        let _ = (proc, msg);
    }
}

impl Events for () {}

/// What every sink does with a [`Events::note`] beyond dropping its
/// claim to exactness: keep the first 32 distinct reasons.
pub fn keep_note(notes: &mut Vec<String>, msg: String) {
    if notes.len() < 32 && !notes.contains(&msg) {
        notes.push(msg);
    }
}

/// Fan one walk out to two sinks — e.g. message counting and timing, or
/// message counting and safety analysis, in a single pass over the
/// program. Nests for three.
pub struct Tee<'a, A: Events, B: Events> {
    /// First sink; sees every event before `b`.
    pub a: &'a mut A,
    /// Second sink.
    pub b: &'a mut B,
}

impl<A: Events, B: Events> Events for Tee<'_, A, B> {
    fn proc_begin(&mut self, proc: usize) {
        self.a.proc_begin(proc);
        self.b.proc_begin(proc);
    }
    fn work(&mut self, proc: usize, work: Work) {
        self.a.work(proc, work);
        self.b.work(proc, work);
    }
    fn send(&mut self, proc: usize, dst: usize, tag: u32, words: u64) {
        self.a.send(proc, dst, tag, words);
        self.b.send(proc, dst, tag, words);
    }
    fn recv(&mut self, proc: usize, src: usize, tag: u32, words: u64, sink: RecvSink<'_>) {
        self.a.recv(proc, src, tag, words, sink);
        self.b.recv(proc, src, tag, words, sink);
    }
    fn array_write(&mut self, proc: usize, array: ArrayId, element: Option<(usize, i64, i64)>) {
        self.a.array_write(proc, array, element);
        self.b.array_write(proc, array, element);
    }
    fn var_read(&mut self, proc: usize, var: VarId) {
        self.a.var_read(proc, var);
        self.b.var_read(proc, var);
    }
    fn buf_read(&mut self, proc: usize, buf: BufId) {
        self.a.buf_read(proc, buf);
        self.b.buf_read(proc, buf);
    }
    fn note(&mut self, proc: usize, msg: String) {
        self.a.note(proc, msg.clone());
        self.b.note(proc, msg);
    }
}

/// [`pdc_lang::unop`] lifted to the abstract domain: ⊤ in, or a fault out
/// (the VM stops there; the walk does not model faults), gives ⊤.
#[inline]
fn unop(op: UnOp, v: Abs) -> Abs {
    scalar::unop(op, v?).ok()
}

/// [`pdc_lang::binop`] lifted the same way.
#[inline]
fn binop(op: BinOp, l: Abs, r: Abs) -> Abs {
    // Nearly everything the walk computes is index arithmetic: a direct
    // int–int call lets the optimizer drop the other operand types.
    if let (Some(Scalar::Int(a)), Some(Scalar::Int(b))) = (l, r) {
        return scalar::binop(op, Scalar::Int(a), Scalar::Int(b)).ok();
    }
    scalar::binop(op, l?, r?).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_mapping::Dist;
    use pdc_spmd::ir::{RecvTarget, SExpr, SStmt, SpmdProgram};

    type WriteEv = (usize, String, Option<(usize, i64, i64)>);

    /// What the walk reported, in order, with ids turned back into names.
    #[derive(Debug, Clone, PartialEq)]
    enum Ev {
        Send(usize, usize, u32, u64),
        Recv(usize, usize, u32, u64),
        VarRead(usize, String),
        BufRead(usize, String),
    }

    struct Recorder<'n> {
        names: &'n Names,
        evs: Vec<Ev>,
        writes: Vec<WriteEv>,
        notes: Vec<String>,
    }

    impl Events for Recorder<'_> {
        fn send(&mut self, proc: usize, dst: usize, tag: u32, words: u64) {
            self.evs.push(Ev::Send(proc, dst, tag, words));
        }
        fn recv(&mut self, proc: usize, src: usize, tag: u32, words: u64, _sink: RecvSink<'_>) {
            self.evs.push(Ev::Recv(proc, src, tag, words));
        }
        fn array_write(&mut self, proc: usize, array: ArrayId, element: Option<(usize, i64, i64)>) {
            self.writes
                .push((proc, self.names.array(array).to_owned(), element));
        }
        fn var_read(&mut self, proc: usize, var: VarId) {
            self.evs
                .push(Ev::VarRead(proc, self.names.var(var).to_owned()));
        }
        fn buf_read(&mut self, proc: usize, buf: BufId) {
            self.evs
                .push(Ev::BufRead(proc, self.names.buf(buf).to_owned()));
        }
        fn note(&mut self, _proc: usize, msg: String) {
            self.notes.push(msg);
        }
    }

    /// Walk `prog` with no seeds; hand back events, writes and notes.
    fn record(prog: &SpmdProgram) -> (Vec<Ev>, Vec<WriteEv>, Vec<String>) {
        let arrays = BTreeMap::new();
        let resolved = resolve(prog, &BTreeMap::new(), &arrays);
        let mut rec = Recorder {
            names: resolved.names(),
            evs: Vec::new(),
            writes: Vec::new(),
            notes: Vec::new(),
        };
        resolved.walk(&mut rec);
        (rec.evs, rec.writes, rec.notes)
    }

    fn var_read(p: usize, name: &str) -> Ev {
        Ev::VarRead(p, name.to_owned())
    }

    #[test]
    fn events_arrive_in_program_order() {
        let prog = SpmdProgram::new(vec![
            vec![SStmt::For {
                var: "i".into(),
                lo: SExpr::int(1),
                hi: SExpr::int(3),
                step: SExpr::int(1),
                body: vec![SStmt::Send {
                    to: SExpr::int(1),
                    tag: 5,
                    values: vec![SExpr::var("i")],
                }],
            }],
            vec![SStmt::Recv {
                from: SExpr::int(0),
                tag: 5,
                into: vec![RecvTarget::Var("x".into())],
            }],
        ]);
        let (evs, _, notes) = record(&prog);
        let mut want = vec![[var_read(0, "i"), Ev::Send(0, 1, 5, 2)]; 3].concat();
        want.push(Ev::Recv(1, 0, 5, 2));
        assert_eq!(evs, want, "three unrolled sends from P0, one receive on P1");
        assert!(notes.is_empty(), "{notes:?}");
    }

    /// The walk takes the branch and the trip count the VM takes: 2^53 + 1
    /// and 2^53 are one `f64` but two integers.
    #[test]
    fn integers_beyond_2_pow_53_compare_exactly() {
        let send = |tag| SStmt::Send {
            to: SExpr::int(1),
            tag,
            values: vec![],
        };
        let prog = SpmdProgram::new(vec![
            vec![
                SStmt::Let {
                    var: "big".into(),
                    value: SExpr::int(9007199254740993),
                },
                SStmt::Let {
                    var: "edge".into(),
                    value: SExpr::int(9007199254740992),
                },
                SStmt::If {
                    cond: SExpr::var("big").eq(SExpr::var("edge")),
                    then: vec![send(1)],
                    els: vec![send(2)],
                },
                SStmt::For {
                    var: "i".into(),
                    lo: SExpr::var("big"),
                    hi: SExpr::var("edge"),
                    step: SExpr::int(1),
                    body: vec![send(3)],
                },
            ],
            vec![],
        ]);
        let (evs, _, notes) = record(&prog);
        let sends: Vec<_> = evs.iter().filter(|e| matches!(e, Ev::Send(..))).collect();
        assert_eq!(
            sends,
            vec![&Ev::Send(0, 1, 2, 0)],
            "the else branch, no trip"
        );
        assert!(notes.is_empty(), "{notes:?}");
    }

    /// A loop whose step overflows faults in the VM after the body ran;
    /// the walk counts that iteration, then notes the loop and leaves it,
    /// as it does for a zero step (a note makes every sink inexact).
    #[test]
    fn step_overflow_is_noted() {
        let prog = SpmdProgram::new(vec![
            vec![
                SStmt::For {
                    var: "i".into(),
                    lo: SExpr::int(i64::MAX - 1),
                    hi: SExpr::int(i64::MAX),
                    step: SExpr::int(3),
                    body: vec![SStmt::Send {
                        to: SExpr::int(1),
                        tag: 1,
                        values: vec![],
                    }],
                },
                SStmt::Send {
                    to: SExpr::int(1),
                    tag: 2,
                    values: vec![],
                },
            ],
            vec![],
        ]);
        let (evs, _, notes) = record(&prog);
        assert_eq!(evs[0], Ev::Send(0, 1, 1, 0));
        assert!(!evs[1..].contains(&Ev::Send(0, 1, 1, 0)), "{evs:?}");
        assert_eq!(
            notes,
            vec!["P0: step of loop over `i` overflows".to_string()]
        );
    }

    #[test]
    fn array_writes_resolve_to_their_home() {
        // A 4x4 column-cyclic matrix on 2 procs: column 2 lives on P1.
        let prog = SpmdProgram::new(vec![
            vec![
                SStmt::AllocDist {
                    array: "A".into(),
                    rows: SExpr::int(4),
                    cols: SExpr::int(4),
                    dist: Dist::ColumnCyclic,
                },
                SStmt::AWriteGlobal {
                    array: "A".into(),
                    idx: vec![SExpr::int(1), SExpr::int(2)],
                    value: SExpr::int(9),
                },
            ],
            vec![],
        ]);
        let (_, writes, _) = record(&prog);
        assert_eq!(writes.len(), 1);
        let (proc, array, element) = &writes[0];
        assert_eq!((*proc, array.as_str()), (0, "A"));
        let (home, _li, _lj) = element.expect("statically resolvable");
        assert_eq!(home, 1, "column 2 is owned by P1 under column-cyclic");
    }

    #[test]
    fn havocked_writes_report_unknown_element() {
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
                then: vec![SStmt::AWrite {
                    array: "A".into(),
                    idx: vec![SExpr::int(1)],
                    value: SExpr::int(0),
                }],
                els: vec![],
            },
        ]]);
        let (_, writes, notes) = record(&prog);
        assert_eq!(writes, vec![(0, "A".to_string(), None)]);
        assert!(!notes.is_empty());
    }

    #[test]
    fn receive_reads_its_source_before_overwriting_it() {
        // `recv from x into x`: the VM loads `x` before the `Recv`
        // instruction, so the source is the old value and the walk stays
        // exact.
        let prog = SpmdProgram::new(vec![
            vec![SStmt::Send {
                to: SExpr::int(1),
                tag: 4,
                values: vec![SExpr::int(7)],
            }],
            vec![
                SStmt::Let {
                    var: "x".into(),
                    value: SExpr::int(0),
                },
                SStmt::Recv {
                    from: SExpr::var("x"),
                    tag: 4,
                    into: vec![RecvTarget::Var("x".into())],
                },
            ],
        ]);
        let (evs, _, notes) = record(&prog);
        assert!(notes.is_empty(), "{notes:?}");
        assert_eq!(
            evs,
            vec![Ev::Send(0, 1, 4, 2), var_read(1, "x"), Ev::Recv(1, 0, 4, 2)]
        );
    }

    #[test]
    fn buffer_target_index_is_read_after_the_receive() {
        // `recv into b[k]`: the VM emits the index's loads after the
        // `Recv` instruction.
        let prog = SpmdProgram::new(vec![vec![SStmt::Recv {
            from: SExpr::int(0),
            tag: 4,
            into: vec![RecvTarget::Buf {
                buf: "b".into(),
                idx: SExpr::var("k"),
            }],
        }]]);
        let (evs, _, _) = record(&prog);
        assert_eq!(evs, vec![Ev::Recv(0, 0, 4, 2), var_read(0, "k")]);
    }

    #[test]
    fn scalars_and_buffers_are_separate_namespaces() {
        let prog = SpmdProgram::new(vec![vec![SStmt::Let {
            var: "x".into(),
            value: SExpr::BufRead {
                buf: "x".into(),
                idx: Box::new(SExpr::var("x")),
            },
        }]]);
        let arrays = BTreeMap::new();
        let resolved = resolve(&prog, &BTreeMap::new(), &arrays);
        assert_eq!(resolved.names().vars(), ["x"]);
        assert_eq!(resolved.names().bufs(), ["x"]);
        let (evs, _, _) = record(&prog);
        assert_eq!(evs, vec![Ev::BufRead(0, "x".to_owned()), var_read(0, "x")]);
    }

    #[test]
    fn channel_ids_are_dense_and_stable() {
        let mut ch: Channels<u64> = Channels::new(3);
        assert!(ch.is_empty());
        let a = ch.id(0, 1, 7);
        let b = ch.id(0, 1, 9);
        let c = ch.id(2, 0, 7);
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(ch.id(0, 1, 7), a, "second use finds the first entry");
        *ch.slot(0, 1, 9) += 5;
        assert_eq!(*ch.get(b), 5);
        assert_eq!(ch.find(1, 0, 7), None, "direction matters");
        assert_eq!(ch.key(c), (2, 0, 7));
        assert_eq!(ch.len(), 3);
        let sorted: Vec<_> = ch.into_sorted().into_iter().collect();
        assert_eq!(sorted, vec![((0, 1, 7), 0), ((0, 1, 9), 5), ((2, 0, 7), 0)]);
    }
}
