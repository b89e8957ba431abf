//! Exact loop-dependence analysis for counted-loop nests.
//!
//! The optimization passes in `pdc-opt` (vectorize, jam, strip-mine,
//! interchange) and the decomposition tuner must decide whether a
//! transformation *reorders two accesses to the same I-structure
//! element*. This crate answers that question with the classical affine
//! machinery — per-array-pair **distance/direction vectors** computed by
//! ZIV/SIV subscripts tests, the GCD test, and Banerjee-style bound
//! checks over the nest's iteration space — and classifies every
//! dependence as flow, anti, or output, and as loop-carried (with its
//! carrying level) or loop-independent.
//!
//! Soundness is *relative to exactness*, mirroring `pdc_report::cost`:
//! when a subscript falls outside the affine theory (indirect
//! subscripts like `A[B[i]]`, `div`/`mod` arithmetic at the source
//! level, symbolic coefficients), the access is kept as an *opaque*
//! access, every pair it forms is reported as a dependence with
//! [`Direction::Any`] in every position, and the analysis degrades
//! honestly: [`DependenceInfo::exact`] turns false with a reason in
//! `notes`. Consumers must treat `Any` directions and inexact results
//! as blocking; they may only apply a transformation the framework
//! proves legal.
//!
//! Two front-ends share this core: [`ast`] analyzes `pdc-lang` source
//! nests (purely affine subscripts only — the honest source-level
//! contract), and [`spmd`] analyzes generated SPMD code, where the
//! compiler's own placement arithmetic (`div`/`mod` of constants) is
//! normalized through [`canon`] and compared structurally.

pub mod ast;
pub mod canon;
pub mod spmd;

use canon::Canon;
use pdc_lang::span::Span;
use std::fmt;

/// What a dependence means for the two accesses involved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DepKind {
    /// Write then read: the sink consumes the source's value.
    Flow,
    /// Read then write: the sink overwrites what the source read.
    Anti,
    /// Write then write to the same element.
    Output,
}

impl DepKind {
    /// Stable lower-case identifier used in JSON and remark details.
    pub fn slug(self) -> &'static str {
        match self {
            DepKind::Flow => "flow",
            DepKind::Anti => "anti",
            DepKind::Output => "output",
        }
    }
}

impl fmt::Display for DepKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.slug())
    }
}

/// Direction of a dependence at one loop level: the relation between
/// the source and sink iteration numbers of that loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Source iteration strictly before the sink's (`<`).
    Lt,
    /// Same iteration (`=`).
    Eq,
    /// Source iteration strictly after the sink's (`>`).
    Gt,
    /// Unknown — any relation is possible (`*`). Consumers must treat
    /// this as blocking; it subsumes the reversed dependence of the
    /// complementary kind.
    Any,
}

impl Direction {
    /// The conventional one-character symbol.
    pub fn symbol(self) -> &'static str {
        match self {
            Direction::Lt => "<",
            Direction::Eq => "=",
            Direction::Gt => ">",
            Direction::Any => "*",
        }
    }
}

/// One dependence between two accesses of the same array, over the
/// loops common to both accesses (outermost first).
#[derive(Debug, Clone, PartialEq)]
pub struct Dependence {
    /// Array both endpoints touch.
    pub array: String,
    /// Flow, anti, or output.
    pub kind: DepKind,
    /// Index of the source access in [`DependenceInfo::accesses`].
    pub src: usize,
    /// Index of the sink access in [`DependenceInfo::accesses`].
    pub dst: usize,
    /// Per-level iteration distance (sink minus source), `None` where
    /// the distance is not a single constant.
    pub distance: Vec<Option<i64>>,
    /// Per-level direction; always lexicographically non-negative
    /// (leading components are never `>`).
    pub direction: Vec<Direction>,
    /// Carrying level (1-based, outermost = 1); `None` for a
    /// loop-independent dependence.
    pub level: Option<usize>,
}

impl Dependence {
    /// Is the dependence carried by some loop (as opposed to staying
    /// within one iteration of the whole nest)?
    pub fn is_loop_carried(&self) -> bool {
        self.level.is_some()
    }

    /// `(<,=)`-style rendering of the direction vector.
    pub fn direction_string(&self) -> String {
        let parts: Vec<&str> = self.direction.iter().map(|d| d.symbol()).collect();
        format!("({})", parts.join(","))
    }

    /// `(1,0)`-style rendering of the distance vector; `*` marks a
    /// component that is not a single constant.
    pub fn distance_string(&self) -> String {
        let parts: Vec<String> = self
            .distance
            .iter()
            .map(|d| d.map_or_else(|| "*".to_string(), |v| v.to_string()))
            .collect();
        format!("({})", parts.join(","))
    }

    /// One-line human-readable summary, stable across runs.
    pub fn describe(&self) -> String {
        match self.level {
            Some(l) => format!(
                "{} on `{}` direction {} distance {} carried at level {l}",
                self.kind,
                self.array,
                self.direction_string(),
                self.distance_string()
            ),
            None => format!("{} on `{}` loop-independent", self.kind, self.array),
        }
    }
}

/// One array access inside a nest, as seen by a front-end.
#[derive(Debug, Clone)]
pub struct Access {
    /// Array name.
    pub array: String,
    /// Writes define an element; reads consume one.
    pub is_write: bool,
    /// Whether the access uses global (pre-placement) or local
    /// (post-placement) indices; accesses in different index spaces
    /// never pair.
    pub global: bool,
    /// Canonicalized subscripts, one per dimension; `None` when some
    /// subscript falls outside the supported theory (see `reason`).
    pub subs: Option<Vec<Canon>>,
    /// Why the access is opaque, when `subs` is `None`.
    pub reason: Option<String>,
    /// Ids (indices into [`DependenceInfo::loops`]) of the loops
    /// enclosing the access, outermost first.
    pub loops: Vec<usize>,
    /// Statement counter used to order accesses within one iteration;
    /// reads of a statement share the writing statement's position.
    pub pos: usize,
    /// Source span of the owning statement, when the front-end has one.
    pub span: Option<Span>,
}

/// One loop of the analyzed nest.
#[derive(Debug, Clone)]
pub struct LoopInfo {
    /// Loop variable name.
    pub var: String,
    /// Constant inclusive lower bound, when known.
    pub lo: Option<i64>,
    /// Constant inclusive upper bound, when known.
    pub hi: Option<i64>,
    /// Constant step, when known (`Some(1)` for the default).
    pub step: Option<i64>,
}

/// The result of analyzing one loop nest.
#[derive(Debug, Clone, Default)]
pub struct DependenceInfo {
    /// Loops of the nest in the order they were entered (a tree of
    /// loops is flattened; each access records its own loop stack).
    pub loops: Vec<LoopInfo>,
    /// Every array access found in the nest.
    pub accesses: Vec<Access>,
    /// All dependences, deterministic order (by access-pair index).
    pub deps: Vec<Dependence>,
    /// True when every access was affine and every subscript equation
    /// was solved within the theory; `verified`-grade answers require
    /// it. Inexact results still *over-approximate* (they never drop a
    /// dependence), so "no dependence" conclusions remain sound.
    pub exact: bool,
    /// Why exactness was lost (empty when `exact`).
    pub notes: Vec<String>,
}

impl DependenceInfo {
    /// Loop-carried dependences.
    pub fn loop_carried(&self) -> impl Iterator<Item = &Dependence> {
        self.deps.iter().filter(|d| d.is_loop_carried())
    }

    /// The first dependence blocking treatment of `array` as
    /// dependence-free, if any — either a real dependence on it or an
    /// opaque access that could alias one.
    pub fn blocking(&self, array: &str) -> Option<&Dependence> {
        self.deps.iter().find(|d| d.array == array)
    }

    /// Is interchanging the loops at (0-based) nest levels `a` and `b`
    /// legal for every dependence? Illegal iff some dependence's
    /// direction vector becomes lexicographically negative (or cannot
    /// be proven non-negative) after the swap.
    ///
    /// # Errors
    ///
    /// The first dependence that blocks the interchange.
    pub fn interchange_legal(&self, a: usize, b: usize) -> Result<(), &Dependence> {
        for dep in &self.deps {
            let get = |lvl: usize| -> Direction {
                // A vector too short to cover the swapped levels means
                // the pair is not enclosed by both loops; treat the
                // missing level as unknown.
                let swapped = if lvl == a {
                    b
                } else if lvl == b {
                    a
                } else {
                    lvl
                };
                dep.direction
                    .get(swapped)
                    .copied()
                    .unwrap_or(Direction::Any)
            };
            let len = dep.direction.len().max(a + 1).max(b + 1);
            let mut legal = true;
            for lvl in 0..len {
                match get(lvl) {
                    Direction::Lt => break,
                    Direction::Eq => continue,
                    Direction::Gt | Direction::Any => {
                        legal = false;
                        break;
                    }
                }
            }
            if !legal {
                return Err(dep);
            }
        }
        Ok(())
    }

    fn note(&mut self, msg: String) {
        self.exact = false;
        if self.notes.len() < 32 && !self.notes.contains(&msg) {
            self.notes.push(msg);
        }
    }

    /// Run the subscript tests over every access pair and fill
    /// [`DependenceInfo::deps`]. Front-ends call this once after
    /// collecting loops and accesses.
    pub fn solve(&mut self) {
        for n in self
            .accesses
            .iter()
            .filter_map(|a| a.reason.clone())
            .collect::<Vec<_>>()
        {
            self.note(n);
        }
        let mut deps = Vec::new();
        let mut pair_notes = Vec::new();
        for i in 0..self.accesses.len() {
            for j in i..self.accesses.len() {
                let (a, b) = (&self.accesses[i], &self.accesses[j]);
                if a.array != b.array || a.global != b.global {
                    continue;
                }
                if !a.is_write && !b.is_write {
                    continue;
                }
                if let Some(dep) = test_pair(&self.loops, a, b, i, j, &mut pair_notes) {
                    deps.push(dep);
                }
            }
        }
        self.deps = deps;
        for n in pair_notes {
            self.note(n);
        }
    }
}

/// Per-level constraint on `δ = sink iteration − source iteration`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Constraint {
    /// Unpinned: any value satisfies what we know.
    Free,
    /// Exactly this many iterations apart (iteration space, not value
    /// space).
    Exact(i64),
}

/// Outcome of testing one subscript dimension.
enum DimResult {
    /// The dimension's equation has no solution: the pair is
    /// independent.
    Independent,
    /// No information (trivially satisfiable or outside the theory
    /// without involving common loops).
    NoInfo,
    /// Per-level constraints to merge.
    Constrain(Vec<(usize, Constraint)>),
}

fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Longest common prefix of two loop stacks.
fn common_prefix(a: &[usize], b: &[usize]) -> usize {
    a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
}

/// Is the common loop at prefix position `l` shadowed by a deeper loop
/// of the same variable name within `stack`?
fn shadowed(loops: &[LoopInfo], stack: &[usize], l: usize) -> bool {
    let name = &loops[stack[l]].var;
    stack[l + 1..].iter().any(|&id| loops[id].var == *name)
}

/// Substitute every unshadowed common-loop variable with 0, leaving
/// symbols and deeper-loop variables.
fn residual(
    loops: &[LoopInfo],
    stack: &[usize],
    common: usize,
    aff: &pdc_mapping::Affine,
) -> pdc_mapping::Affine {
    let mut out = aff.clone();
    for l in 0..common {
        if !shadowed(loops, stack, l) {
            out = out.substitute(&loops[stack[l]].var, &pdc_mapping::Affine::constant(0));
        }
    }
    out
}

/// Does `aff` mention a variable bound by a loop deeper than the
/// common prefix (including shadowed common names)?
fn mentions_deeper(
    loops: &[LoopInfo],
    stack: &[usize],
    common: usize,
    aff: &pdc_mapping::Affine,
) -> bool {
    aff.vars().any(|v| {
        stack[common..].iter().any(|&id| loops[id].var == v)
            || (0..common).any(|l| shadowed(loops, stack, l) && loops[stack[l]].var == v)
    })
}

/// Interval of `c * x` for `x ∈ [lo, hi]`.
fn term_range(c: i64, lo: i64, hi: i64) -> (i64, i64) {
    let (a, b) = (c.saturating_mul(lo), c.saturating_mul(hi));
    (a.min(b), a.max(b))
}

/// Test one all-affine dimension: `fa(x) = fb(y)` over the common
/// loops, where `x` is the source iteration vector and `y` the sink's.
#[allow(clippy::too_many_arguments)]
fn test_affine_dim(
    loops: &[LoopInfo],
    sa: &[usize],
    sb: &[usize],
    common: usize,
    fa: &pdc_mapping::Affine,
    fb: &pdc_mapping::Affine,
    notes: &mut Vec<String>,
) -> DimResult {
    if mentions_deeper(loops, sa, common, fa) || mentions_deeper(loops, sb, common, fb) {
        // A deeper loop variable is existentially quantified; we
        // cannot pin anything, but we also cannot prove independence.
        let involved: Vec<(usize, Constraint)> = (0..common)
            .filter(|&l| {
                let v = &loops[sa[l]].var;
                fa.coeff(v) != 0 || fb.coeff(v) != 0
            })
            .map(|l| (l, Constraint::Free))
            .collect();
        return if involved.is_empty() {
            DimResult::NoInfo
        } else {
            DimResult::Constrain(involved)
        };
    }

    // Effective per-level coefficients (0 where shadowed — but the
    // shadowed case was already routed to `mentions_deeper` above).
    let ca: Vec<i64> = (0..common).map(|l| fa.coeff(&loops[sa[l]].var)).collect();
    let cb: Vec<i64> = (0..common).map(|l| fb.coeff(&loops[sb[l]].var)).collect();
    let diff = residual(loops, sa, common, fa).sub(&residual(loops, sb, common, fb));
    let involved: Vec<usize> = (0..common).filter(|&l| ca[l] != 0 || cb[l] != 0).collect();

    let Some(d0) = diff.as_constant() else {
        // The subscript difference depends on a symbol (e.g. `n`); we
        // cannot decide equality, so the involved levels stay free.
        // Front-ends substitute the static environment first, so this
        // only fires for genuinely unknown symbols.
        let sym = diff.vars().next().unwrap_or("?").to_string();
        notes.push(format!("subscript difference depends on symbol `{sym}`"));
        return if involved.is_empty() {
            // Constant-vs-symbol in a dimension without loop vars:
            // cannot prove the elements distinct.
            DimResult::NoInfo
        } else {
            DimResult::Constrain(
                involved
                    .into_iter()
                    .map(|l| (l, Constraint::Free))
                    .collect(),
            )
        };
    };

    if involved.is_empty() {
        // ZIV: both subscripts are (symbolically identical) constants.
        return if d0 == 0 {
            DimResult::NoInfo
        } else {
            DimResult::Independent
        };
    }

    let bounds = |l: usize| -> Option<(i64, i64)> {
        let info = &loops[sa[l]];
        match (info.lo, info.hi) {
            (Some(lo), Some(hi)) => Some((lo, hi)),
            _ => None,
        }
    };
    let step = |l: usize| loops[sa[l]].step;

    if involved.iter().all(|&l| ca[l] == cb[l]) {
        // Equation reduces to Σ c_l · δ_l = d0 with δ = y − x.
        if involved.len() == 1 {
            // Strong SIV: δ is a single constant in value space.
            let l = involved[0];
            let c = ca[l];
            if d0 % c != 0 {
                return DimResult::Independent;
            }
            let dv = d0 / c;
            return match step(l) {
                Some(s) if s != 0 => {
                    if dv % s != 0 {
                        // The two iterations are never both visited.
                        DimResult::Independent
                    } else {
                        let it = dv / s;
                        if let Some((lo, hi)) = bounds(l) {
                            let span = ((hi - lo) / s.abs()).max(0);
                            if it.abs() > span {
                                return DimResult::Independent;
                            }
                        }
                        DimResult::Constrain(vec![(l, Constraint::Exact(it))])
                    }
                }
                _ => {
                    notes.push(format!(
                        "loop `{}` has a non-constant step; distance not pinned",
                        loops[sa[l]].var
                    ));
                    DimResult::Constrain(vec![(l, Constraint::Free)])
                }
            };
        }
        // MIV with matching coefficients: GCD then a Banerjee-style
        // bound over the δ ranges.
        let g = involved.iter().fold(0, |g, &l| gcd(g, ca[l]));
        if g != 0 && d0 % g != 0 {
            return DimResult::Independent;
        }
        if involved.iter().all(|&l| bounds(l).is_some()) {
            let (mut lo_sum, mut hi_sum) = (0i64, 0i64);
            for &l in &involved {
                let (lo, hi) = bounds(l).expect("checked above");
                let span = (hi - lo).max(0);
                let (tl, th) = term_range(ca[l], -span, span);
                lo_sum = lo_sum.saturating_add(tl);
                hi_sum = hi_sum.saturating_add(th);
            }
            if d0 < lo_sum || d0 > hi_sum {
                return DimResult::Independent;
            }
        }
        return DimResult::Constrain(
            involved
                .into_iter()
                .map(|l| (l, Constraint::Free))
                .collect(),
        );
    }

    // Coefficients differ somewhere: Σ ca_l·x_l − Σ cb_l·y_l + d0 = 0.
    let g = involved.iter().fold(0, |g, &l| gcd(gcd(g, ca[l]), cb[l]));
    if g != 0 && d0 % g != 0 {
        return DimResult::Independent;
    }
    if involved.len() == 1 {
        let l = involved[0];
        let (a, b) = (ca[l], cb[l]);
        if b == 0 || a == 0 {
            // Weak-zero SIV: one side's iteration is pinned to a
            // constant; check it lies inside the loop at all.
            let c = if b == 0 { a } else { b };
            // a·x + d0 = 0  (resp. −b·y + d0 = 0)
            let num = if b == 0 { -d0 } else { d0 };
            if num % c != 0 {
                return DimResult::Independent;
            }
            let fixed = num / c;
            if let Some((lo, hi)) = bounds(l) {
                if fixed < lo.min(hi) || fixed > hi.max(lo) {
                    return DimResult::Independent;
                }
            }
            return DimResult::Constrain(vec![(l, Constraint::Free)]);
        }
        if a == -b {
            // Weak-crossing SIV: x + y pinned; δ unconstrained.
            if d0 % a != 0 {
                return DimResult::Independent;
            }
            return DimResult::Constrain(vec![(l, Constraint::Free)]);
        }
    }
    // General Banerjee bound when every involved loop has constant
    // bounds.
    if involved.iter().all(|&l| bounds(l).is_some()) {
        let (mut lo_sum, mut hi_sum) = (d0, d0);
        for &l in &involved {
            let (lo, hi) = bounds(l).expect("checked above");
            let (tl, th) = term_range(ca[l], lo, hi);
            let (ul, uh) = term_range(-cb[l], lo, hi);
            lo_sum = lo_sum.saturating_add(tl).saturating_add(ul);
            hi_sum = hi_sum.saturating_add(th).saturating_add(uh);
        }
        if 0 < lo_sum || 0 > hi_sum {
            return DimResult::Independent;
        }
    }
    DimResult::Constrain(
        involved
            .into_iter()
            .map(|l| (l, Constraint::Free))
            .collect(),
    )
}

/// Test one dimension whose canonical forms are not both affine
/// (placement arithmetic like `(j−1) div 4`). Structural equality means
/// the subscripts are identical functions of the iteration vector; any
/// other shape yields no information for the common loops it mentions.
fn test_canon_dim(
    loops: &[LoopInfo],
    sa: &[usize],
    sb: &[usize],
    common: usize,
    a: &Canon,
    b: &Canon,
) -> DimResult {
    fn canon_vars<'c>(c: &'c Canon, out: &mut Vec<&'c str>) {
        match c {
            Canon::Aff(aff) => out.extend(aff.vars()),
            Canon::Div(inner, _) | Canon::Mod(inner, _) | Canon::Scale(_, inner) => {
                canon_vars(inner, out)
            }
            Canon::Add(x, y) => {
                canon_vars(x, out);
                canon_vars(y, out);
            }
        }
    }
    let mut vars = Vec::new();
    canon_vars(a, &mut vars);
    canon_vars(b, &mut vars);
    let involved: Vec<(usize, Constraint)> = (0..common)
        .filter(|&l| {
            !shadowed(loops, sa, l)
                && !shadowed(loops, sb, l)
                && vars.contains(&loops[sa[l]].var.as_str())
        })
        .map(|l| (l, Constraint::Free))
        .collect();
    if involved.is_empty() {
        // Loop-invariant on both sides; equal forms touch the same
        // element, different forms cannot be proven distinct.
        return DimResult::NoInfo;
    }
    if a == b {
        // Identical functions of the iteration vector: the dimension
        // is satisfied exactly when the mentioned loops agree.
        return DimResult::Constrain(
            involved
                .into_iter()
                .map(|(l, _)| (l, Constraint::Exact(0)))
                .collect(),
        );
    }
    // Try a constant shift: b[v := v+d] == a pins δ_v = d — but only
    // when the form is injective in v, which `div`/`mod` forms are
    // not; stay conservative and leave the levels free.
    DimResult::Constrain(involved)
}

/// Run the subscript tests for one pair of accesses; `None` means
/// proven independent (or the identical-instance case).
fn test_pair(
    loops: &[LoopInfo],
    a: &Access,
    b: &Access,
    ia: usize,
    ib: usize,
    out_notes: &mut Vec<String>,
) -> Option<Dependence> {
    let common = common_prefix(&a.loops, &b.loops);
    let mut constraints = vec![Constraint::Free; common];
    let mut notes = Vec::new();

    match (&a.subs, &b.subs) {
        (Some(sa), Some(sb)) => {
            if sa.len() != sb.len() {
                // Mixed-rank access to one array: outside the theory.
                return Some(opaque_dep(a, b, ia, ib, common));
            }
            for (da, db) in sa.iter().zip(sb.iter()) {
                let r = match (da, db) {
                    (Canon::Aff(fa), Canon::Aff(fb)) => {
                        test_affine_dim(loops, &a.loops, &b.loops, common, fa, fb, &mut notes)
                    }
                    _ => test_canon_dim(loops, &a.loops, &b.loops, common, da, db),
                };
                match r {
                    DimResult::Independent => return None,
                    DimResult::NoInfo => {}
                    DimResult::Constrain(cs) => {
                        for (l, c) in cs {
                            match (constraints[l], c) {
                                (Constraint::Exact(x), Constraint::Exact(y)) if x != y => {
                                    // Two dimensions demand different
                                    // distances: unsatisfiable.
                                    return None;
                                }
                                (Constraint::Free, Constraint::Exact(_)) => {
                                    constraints[l] = c;
                                }
                                _ => {}
                            }
                        }
                    }
                }
            }
        }
        _ => return Some(opaque_dep(a, b, ia, ib, common)),
    }

    // Identical instance (same access, all-zero distance) is not a
    // dependence.
    let all_zero = constraints
        .iter()
        .all(|c| matches!(c, Constraint::Exact(0)));
    if ia == ib && all_zero {
        return None;
    }
    // The pair yields a dependence; only now do any solver caveats
    // (symbolic differences, unknown steps) matter for exactness.
    out_notes.append(&mut notes);
    if ia == ib {
        return Some(classify_self(a, ia, &constraints, common));
    }
    Some(classify_pair(a, b, ia, ib, &constraints, all_zero))
}

/// A fully unknown dependence for a pair involving an opaque access.
fn opaque_dep(a: &Access, b: &Access, ia: usize, ib: usize, common: usize) -> Dependence {
    let kind = match (a.is_write, b.is_write) {
        (true, true) => DepKind::Output,
        (true, false) => DepKind::Flow,
        _ => DepKind::Anti,
    };
    Dependence {
        array: a.array.clone(),
        kind,
        src: ia,
        dst: ib,
        distance: vec![None; common],
        direction: vec![Direction::Any; common],
        level: (common > 0).then_some(1),
    }
}

/// Classify a write access against itself: the solution set is
/// symmetric under negation, so the leading unknown level can be
/// canonicalized to `<` only when everything after it is pinned to 0.
fn classify_self(a: &Access, ia: usize, constraints: &[Constraint], common: usize) -> Dependence {
    let mut direction = vec![Direction::Eq; common];
    let mut distance: Vec<Option<i64>> = vec![Some(0); common];
    let mut level = None;
    for l in 0..common {
        match constraints[l] {
            Constraint::Exact(0) => continue,
            Constraint::Exact(d) => {
                // Symmetric: take the positive orientation.
                let d = d.abs();
                direction[l] = Direction::Lt;
                distance[l] = Some(d);
                level = Some(l + 1);
                for m in l + 1..common {
                    match constraints[m] {
                        Constraint::Exact(e) => {
                            direction[m] = match e.cmp(&0) {
                                std::cmp::Ordering::Less => Direction::Gt,
                                std::cmp::Ordering::Equal => Direction::Eq,
                                std::cmp::Ordering::Greater => Direction::Lt,
                            };
                            distance[m] = Some(e);
                        }
                        Constraint::Free => {
                            direction[m] = Direction::Any;
                            distance[m] = None;
                        }
                    }
                }
                break;
            }
            Constraint::Free => {
                let rest_zero = constraints[l + 1..]
                    .iter()
                    .all(|c| matches!(c, Constraint::Exact(0)));
                direction[l] = if rest_zero {
                    Direction::Lt
                } else {
                    Direction::Any
                };
                distance[l] = None;
                level = Some(l + 1);
                for m in l + 1..common {
                    match constraints[m] {
                        Constraint::Exact(0) => {}
                        Constraint::Exact(e) => {
                            direction[m] = Direction::Any;
                            distance[m] = Some(e);
                        }
                        Constraint::Free => {
                            direction[m] = Direction::Any;
                            distance[m] = None;
                        }
                    }
                }
                break;
            }
        }
    }
    Dependence {
        array: a.array.clone(),
        kind: DepKind::Output,
        src: ia,
        dst: ia,
        distance,
        direction,
        level,
    }
}

/// Classify a cross pair from its per-level constraints. `a` is the
/// access collected first (its reads precede its writes in one
/// statement).
fn classify_pair(
    a: &Access,
    b: &Access,
    ia: usize,
    ib: usize,
    constraints: &[Constraint],
    all_zero: bool,
) -> Dependence {
    let common = constraints.len();
    let kind_for = |src_w: bool, dst_w: bool| match (src_w, dst_w) {
        (true, true) => DepKind::Output,
        (true, false) => DepKind::Flow,
        _ => DepKind::Anti,
    };

    if all_zero {
        // Loop-independent: execution order within the iteration
        // decides source and sink. Reads of a statement execute before
        // its write, so at equal positions the read is the source.
        let a_first = match a.pos.cmp(&b.pos) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => !a.is_write,
        };
        let (src, dst, sw, dw) = if a_first {
            (ia, ib, a.is_write, b.is_write)
        } else {
            (ib, ia, b.is_write, a.is_write)
        };
        return Dependence {
            array: a.array.clone(),
            kind: kind_for(sw, dw),
            src,
            dst,
            distance: vec![Some(0); common],
            direction: vec![Direction::Eq; common],
            level: None,
        };
    }

    // Determine the lexicographic sign of δ = (b's iteration − a's).
    let mut sign = 0i64; // 0 = zero so far, 2 = unknown
    let mut deciding = common;
    for (l, c) in constraints.iter().enumerate() {
        match c {
            Constraint::Exact(0) => continue,
            Constraint::Exact(d) => {
                sign = d.signum();
                deciding = l;
                break;
            }
            Constraint::Free => {
                sign = 2;
                deciding = l;
                break;
            }
        }
    }

    let (flip, unknown) = match sign {
        1 => (false, false),
        -1 => (true, false),
        _ => (false, true),
    };
    let (src, dst, sw, dw) = if flip {
        (ib, ia, b.is_write, a.is_write)
    } else {
        (ia, ib, a.is_write, b.is_write)
    };
    let mut direction = vec![Direction::Eq; common];
    let mut distance: Vec<Option<i64>> = vec![Some(0); common];
    for (l, c) in constraints.iter().enumerate() {
        let d = match c {
            Constraint::Exact(d) => {
                if flip {
                    Some(-d)
                } else {
                    Some(*d)
                }
            }
            Constraint::Free => None,
        };
        if l < deciding {
            continue; // Exact(0): already =/0
        }
        if unknown {
            // Sign undecided: every level from the deciding one on is
            // reported conservatively.
            direction[l] = match d {
                Some(0) => Direction::Eq,
                _ => Direction::Any,
            };
            distance[l] = d;
            continue;
        }
        match d {
            Some(v) => {
                direction[l] = match v.cmp(&0) {
                    std::cmp::Ordering::Less => Direction::Gt,
                    std::cmp::Ordering::Equal => Direction::Eq,
                    std::cmp::Ordering::Greater => Direction::Lt,
                };
                distance[l] = Some(v);
            }
            None => {
                direction[l] = Direction::Any;
                distance[l] = None;
            }
        }
    }
    Dependence {
        array: a.array.clone(),
        kind: kind_for(sw, dw),
        src,
        dst,
        distance,
        direction,
        level: Some(deciding + 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_mapping::Affine;

    fn aff(c: &Canon) -> Canon {
        c.clone()
    }

    fn sub(v: &str, off: i64) -> Canon {
        Canon::Aff(Affine::var(v).offset(off))
    }

    fn nest2() -> Vec<LoopInfo> {
        vec![
            LoopInfo {
                var: "i".into(),
                lo: Some(2),
                hi: Some(7),
                step: Some(1),
            },
            LoopInfo {
                var: "j".into(),
                lo: Some(2),
                hi: Some(7),
                step: Some(1),
            },
        ]
    }

    fn access(array: &str, is_write: bool, subs: Vec<Canon>, pos: usize) -> Access {
        Access {
            array: array.into(),
            is_write,
            global: true,
            subs: Some(subs),
            reason: None,
            loops: vec![0, 1],
            pos,
            span: None,
        }
    }

    fn info(loops: Vec<LoopInfo>, accesses: Vec<Access>) -> DependenceInfo {
        let mut d = DependenceInfo {
            loops,
            accesses,
            exact: true,
            ..DependenceInfo::default()
        };
        d.solve();
        d
    }

    #[test]
    fn wavefront_flow_dependences() {
        // New[i,j] = … New[i-1,j] … New[i,j-1] …  under an (i,j) nest.
        let d = info(
            nest2(),
            vec![
                access("New", false, vec![sub("i", -1), sub("j", 0)], 0),
                access("New", false, vec![sub("i", 0), sub("j", -1)], 0),
                access("New", true, vec![sub("i", 0), sub("j", 0)], 0),
            ],
        );
        assert!(d.exact, "{:?}", d.notes);
        assert_eq!(d.deps.len(), 2);
        let row = d.deps.iter().find(|x| x.distance == [Some(1), Some(0)]);
        let col = d.deps.iter().find(|x| x.distance == [Some(0), Some(1)]);
        let row = row.expect("row-carried dep");
        let col = col.expect("column-carried dep");
        assert_eq!(row.kind, DepKind::Flow);
        assert_eq!(row.direction_string(), "(<,=)");
        assert_eq!(row.level, Some(1));
        assert_eq!(col.direction_string(), "(=,<)");
        assert_eq!(col.level, Some(2));
    }

    #[test]
    fn anti_dependence_is_normalized() {
        // a[i,j] = … a[i+1,j-1] …: the read at (i,j) touches the
        // element written at (i+1,j-1), which executes later — an anti
        // dependence with distance (1,-1), direction (<,>).
        let d = info(
            nest2(),
            vec![
                access("a", false, vec![sub("i", 1), sub("j", -1)], 0),
                access("a", true, vec![sub("i", 0), sub("j", 0)], 0),
            ],
        );
        assert_eq!(d.deps.len(), 1);
        let dep = &d.deps[0];
        assert_eq!(dep.kind, DepKind::Anti);
        assert_eq!(dep.distance, vec![Some(1), Some(-1)]);
        assert_eq!(dep.direction_string(), "(<,>)");
        // Interchanging the two loops is illegal.
        assert!(d.interchange_legal(0, 1).is_err());
    }

    #[test]
    fn wavefront_interchange_is_legal() {
        let d = info(
            nest2(),
            vec![
                access("New", false, vec![sub("i", -1), sub("j", 0)], 0),
                access("New", true, vec![sub("i", 0), sub("j", 0)], 0),
            ],
        );
        assert!(d.interchange_legal(0, 1).is_ok());
    }

    #[test]
    fn distinct_constant_columns_are_independent() {
        let w = Access {
            loops: vec![0],
            ..access(
                "a",
                true,
                vec![sub("i", 0), Canon::Aff(Affine::constant(1))],
                0,
            )
        };
        let r = Access {
            loops: vec![0],
            ..access(
                "a",
                false,
                vec![sub("i", 0), Canon::Aff(Affine::constant(2))],
                1,
            )
        };
        let d = info(nest2(), vec![w, r]);
        assert!(d.deps.is_empty(), "{:?}", d.deps);
    }

    #[test]
    fn loop_independent_dependence_orders_by_statement() {
        // a[i,j] written at pos 0, read at pos 1: loop-independent flow.
        let d = info(
            nest2(),
            vec![
                access("a", true, vec![sub("i", 0), sub("j", 0)], 0),
                access("a", false, vec![sub("i", 0), sub("j", 0)], 1),
            ],
        );
        assert_eq!(d.deps.len(), 1);
        let dep = &d.deps[0];
        assert_eq!(dep.kind, DepKind::Flow);
        assert_eq!(dep.level, None);
        assert!(!dep.is_loop_carried());
        assert_eq!(dep.direction_string(), "(=,=)");
    }

    #[test]
    fn same_statement_read_is_anti_source() {
        // a[i,j] = a[i,j] + 1 would double-write an I-structure, but
        // the dependence algebra still classifies it: read before
        // write in one instance is a loop-independent anti dep.
        let d = info(
            nest2(),
            vec![
                access("a", false, vec![sub("i", 0), sub("j", 0)], 0),
                access("a", true, vec![sub("i", 0), sub("j", 0)], 0),
            ],
        );
        assert_eq!(d.deps.len(), 1);
        assert_eq!(d.deps[0].kind, DepKind::Anti);
        assert_eq!(d.deps[0].level, None);
    }

    #[test]
    fn constant_subscript_self_output_dep() {
        // a[5] written every (i,j) iteration: output dependence on
        // itself, carried at the outermost level.
        let d = info(
            nest2(),
            vec![access("a", true, vec![Canon::Aff(Affine::constant(5))], 0)],
        );
        assert_eq!(d.deps.len(), 1);
        let dep = &d.deps[0];
        assert_eq!(dep.kind, DepKind::Output);
        assert_eq!(dep.level, Some(1));
        assert_eq!(dep.direction[0], Direction::Any);
    }

    #[test]
    fn row_only_self_write_is_carried_by_inner_loop() {
        // a[i] written under (i,j): same element at equal i, any j.
        let d = info(nest2(), vec![access("a", true, vec![sub("i", 0)], 0)]);
        assert_eq!(d.deps.len(), 1);
        let dep = &d.deps[0];
        assert_eq!(dep.direction_string(), "(=,<)");
        assert_eq!(dep.level, Some(2));
    }

    #[test]
    fn gcd_test_proves_independence() {
        // a[2i] vs a[2i+1]: even vs odd elements never meet.
        let w = Access {
            loops: vec![0],
            ..access("a", true, vec![Canon::Aff(Affine::var("i").scale(2))], 0)
        };
        let r = Access {
            loops: vec![0],
            ..access(
                "a",
                false,
                vec![Canon::Aff(Affine::var("i").scale(2).offset(1))],
                1,
            )
        };
        let d = info(nest2(), vec![w, r]);
        assert!(d.deps.is_empty(), "{:?}", d.deps);
    }

    #[test]
    fn banerjee_bounds_prove_independence() {
        // a[i] vs a[i+100] with i ∈ [2,7]: distance 100 exceeds the
        // iteration span.
        let w = Access {
            loops: vec![0],
            ..access("a", true, vec![sub("i", 0)], 0)
        };
        let r = Access {
            loops: vec![0],
            ..access("a", false, vec![sub("i", 100)], 1)
        };
        let d = info(nest2(), vec![w, r]);
        assert!(d.deps.is_empty(), "{:?}", d.deps);
    }

    #[test]
    fn opaque_access_degrades_honestly() {
        let mut acc = access("a", true, vec![], 0);
        acc.subs = None;
        acc.reason = Some("indirect subscript `b[i]` in `a`".into());
        let d = info(
            nest2(),
            vec![acc, access("a", false, vec![sub("i", 0), sub("j", 0)], 1)],
        );
        assert!(!d.exact);
        assert!(d.notes.iter().any(|n| n.contains("indirect")));
        assert_eq!(d.deps.len(), 2, "{:?}", d.deps); // self + pair
        assert!(d
            .deps
            .iter()
            .all(|dep| dep.direction.iter().all(|x| *x == Direction::Any)));
        assert!(d.interchange_legal(0, 1).is_err());
    }

    #[test]
    fn symbolic_difference_stays_conservative() {
        // a[i] vs a[i+n]: without knowing n, keep a dependence with an
        // unknown direction but remain honest about why.
        let d = info(
            nest2(),
            vec![
                access("a", true, vec![sub("i", 0)], 0),
                access(
                    "a",
                    false,
                    vec![Canon::Aff(Affine::var("i").add(&Affine::var("n")))],
                    1,
                ),
            ],
        );
        assert!(!d.exact);
        assert_eq!(d.deps.len(), 2); // the pair plus a[i]'s (=,<) self dep
        let pair = d.deps.iter().find(|p| p.src != p.dst).unwrap();
        assert_eq!(pair.direction[0], Direction::Any);
    }

    #[test]
    fn strided_loops_divide_distances() {
        // Under `for j = 0 by 4`, a write of a[j] and a read of a[j-8]
        // are two *iterations* apart; a read of a[j-2] never aligns.
        let loops = vec![LoopInfo {
            var: "j".into(),
            lo: Some(0),
            hi: Some(40),
            step: Some(4),
        }];
        let w = Access {
            loops: vec![0],
            ..access("a", true, vec![sub("j", 0)], 0)
        };
        let r8 = Access {
            loops: vec![0],
            ..access("a", false, vec![sub("j", -8)], 1)
        };
        let r2 = Access {
            loops: vec![0],
            ..access("a", false, vec![sub("j", -2)], 2)
        };
        let d = info(loops, vec![w, r8, r2]);
        assert_eq!(d.deps.len(), 1, "{:?}", d.deps);
        assert_eq!(d.deps[0].distance, vec![Some(2)]);
        assert_eq!(d.deps[0].kind, DepKind::Flow);
    }

    #[test]
    fn matching_div_forms_pin_mentioned_loops() {
        // is_write(New, [i, 1+(j-1) div 4]) vs is_read(New, [i-1,
        // 1+(j-1) div 4]): the second dimension is the same function of
        // j on both sides, so the row dimension decides: flow (<,=).
        let col = Canon::Add(
            Box::new(Canon::Aff(Affine::constant(1))),
            Box::new(Canon::Div(
                Box::new(Canon::Aff(Affine::var("j").offset(-1))),
                4,
            )),
        );
        let d = info(
            nest2(),
            vec![
                access("New", true, vec![sub("i", 0), aff(&col)], 0),
                access("New", false, vec![sub("i", -1), aff(&col)], 0),
            ],
        );
        assert!(d.exact, "{:?}", d.notes);
        assert_eq!(d.deps.len(), 1);
        assert_eq!(d.deps[0].distance, vec![Some(1), Some(0)]);
        assert_eq!(d.deps[0].direction_string(), "(<,=)");
    }

    #[test]
    fn differing_div_forms_stay_conservative() {
        let ca = Canon::Div(Box::new(Canon::Aff(Affine::var("j").offset(-1))), 4);
        let cb = Canon::Div(Box::new(Canon::Aff(Affine::var("j").offset(-2))), 4);
        let d = info(
            nest2(),
            vec![
                access("a", true, vec![sub("i", 0), aff(&ca)], 0),
                access("a", false, vec![sub("i", 0), aff(&cb)], 1),
            ],
        );
        assert_eq!(d.deps.len(), 1);
        assert_eq!(d.deps[0].direction[1], Direction::Any);
    }

    #[test]
    fn interchange_legality_matrix() {
        let mk = |dirs: Vec<Direction>| Dependence {
            array: "a".into(),
            kind: DepKind::Flow,
            src: 0,
            dst: 1,
            distance: vec![None; dirs.len()],
            direction: dirs,
            level: Some(1),
        };
        let mut d = DependenceInfo {
            deps: vec![mk(vec![Direction::Lt, Direction::Gt])],
            ..DependenceInfo::default()
        };
        assert!(d.interchange_legal(0, 1).is_err());
        d.deps = vec![mk(vec![Direction::Lt, Direction::Eq])];
        assert!(d.interchange_legal(0, 1).is_ok());
        d.deps = vec![mk(vec![Direction::Eq, Direction::Lt])];
        assert!(d.interchange_legal(0, 1).is_ok());
        d.deps = vec![mk(vec![Direction::Lt, Direction::Any])];
        assert!(d.interchange_legal(0, 1).is_err());
        d.deps = vec![mk(vec![Direction::Eq, Direction::Eq])];
        assert!(d.interchange_legal(0, 1).is_ok());
    }
}
