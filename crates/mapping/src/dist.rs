//! Distribution families and their Map/Local/Alloc functions.

use crate::affine::Affine;
use crate::error::MappingError;
use crate::owner::{OwnerExpr, OwnerSet};
use std::fmt;
use std::sync::Arc;

/// How an array is spread over the machine.
///
/// The paper's running example is [`Dist::ColumnCyclic`] ("wrap the columns
/// of the matrix around a ring like a dealer deals cards", §2.3); the other
/// families are the standard decompositions the introduction alludes to
/// ("mapping by columns, rows, blocks, etc.").
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Dist {
    /// Every processor holds a full copy.
    Replicated,
    /// The whole array lives on one processor.
    OnProcessor(usize),
    /// Column `j` on processor `(j-1) mod S`.
    ColumnCyclic,
    /// Row `i` on processor `(i-1) mod S`.
    RowCyclic,
    /// Contiguous column panels of width `ceil(cols/S)`.
    ColumnBlock,
    /// Contiguous row panels of height `ceil(rows/S)`.
    RowBlock,
    /// Column blocks of width `block` dealt cyclically.
    ColumnBlockCyclic {
        /// Columns per block.
        block: usize,
    },
    /// Row blocks of height `block` dealt cyclically.
    RowBlockCyclic {
        /// Rows per block.
        block: usize,
    },
    /// Two-dimensional blocks on a `prows × pcols` processor grid.
    Block2d {
        /// Processor-grid rows.
        prows: usize,
        /// Processor-grid columns.
        pcols: usize,
    },
    /// Arbitrary per-column assignment: column `c` lives on
    /// `table[(c-1) mod table.len()]`. This is the §5.4 load-balancing
    /// mapping — data moves with its process by *re-assigning* columns —
    /// and it is deliberately opaque to the solver: the compiler's
    /// *inconclusive* path (run-time ownership guards) handles it.
    ColumnAssigned {
        /// Owner of each column (cycled if shorter than the array).
        table: Arc<Vec<usize>>,
    },
}

impl Dist {
    /// Can the owner be expressed symbolically for the mapping-equation
    /// solver? Table-based assignments cannot; the compiler falls back to
    /// run-time resolution of ownership for them (§3.2's *inconclusive*
    /// outcome).
    pub fn is_analyzable(&self) -> bool {
        !matches!(self, Dist::ColumnAssigned { .. })
    }

    /// A [`Dist::ColumnAssigned`] that deals columns round-robin in
    /// proportion to per-processor `weights` — the §5.4 load-balancing
    /// move: a processor with weight 2 receives twice the columns of a
    /// processor with weight 1. The assignment pattern has length
    /// `sum(weights)` and cycles over the array.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn column_weighted(weights: &[u64]) -> Dist {
        assert!(!weights.is_empty(), "need at least one processor weight");
        assert!(
            weights.iter().any(|&w| w > 0),
            "weights must not all be zero"
        );
        let mut table = Vec::new();
        let mut remaining: Vec<u64> = weights.to_vec();
        // Deal one column at a time to the processor with the most
        // remaining weight, keeping the pattern interleaved.
        while remaining.iter().any(|&r| r > 0) {
            for (p, r) in remaining.iter_mut().enumerate() {
                if *r > 0 {
                    table.push(p);
                    *r -= 1;
                }
            }
        }
        Dist::ColumnAssigned {
            table: Arc::new(table),
        }
    }
}

impl fmt::Display for Dist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dist::Replicated => write!(f, "ALL"),
            Dist::OnProcessor(p) => write!(f, "P{p}"),
            Dist::ColumnCyclic => write!(f, "column-cyclic"),
            Dist::RowCyclic => write!(f, "row-cyclic"),
            Dist::ColumnBlock => write!(f, "column-block"),
            Dist::RowBlock => write!(f, "row-block"),
            Dist::ColumnBlockCyclic { block } => write!(f, "column-block-cyclic({block})"),
            Dist::RowBlockCyclic { block } => write!(f, "row-block-cyclic({block})"),
            Dist::Block2d { prows, pcols } => write!(f, "block2d({prows}x{pcols})"),
            Dist::ColumnAssigned { table } => {
                write!(f, "column-assigned(len {})", table.len())
            }
        }
    }
}

/// One additive term of a [`LocalIndex`]: `scale * (num div den)` or
/// `scale * (num mod den)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LocalTerm {
    /// `scale * (num div den)`.
    Div {
        /// Numerator (zero-based affine expression).
        num: Affine,
        /// Divisor (positive).
        den: i64,
        /// Multiplier applied to the quotient.
        scale: i64,
    },
    /// `scale * (num mod den)`.
    Mod {
        /// Numerator (zero-based affine expression).
        num: Affine,
        /// Divisor (positive).
        den: i64,
        /// Multiplier applied to the remainder.
        scale: i64,
    },
}

impl LocalTerm {
    fn eval(&self, env: &dyn Fn(&str) -> i64) -> i64 {
        match self {
            LocalTerm::Div { num, den, scale } => scale * num.eval(env).div_euclid(*den),
            LocalTerm::Mod { num, den, scale } => scale * num.eval(env).rem_euclid(*den),
        }
    }
}

/// A symbolic local-index expression: `base + Σ termᵢ`.
///
/// Every Local function of the supported distributions fits this shape —
/// e.g. the paper's `col-local(i,j) = (j div s)`-style expressions. The
/// compiler translates a `LocalIndex` directly into target-IR arithmetic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalIndex {
    /// Affine part.
    pub base: Affine,
    /// Divide/modulo terms.
    pub terms: Vec<LocalTerm>,
}

impl LocalIndex {
    /// A purely affine local index.
    pub fn affine(base: Affine) -> Self {
        LocalIndex {
            base,
            terms: Vec::new(),
        }
    }

    /// Evaluate under an environment.
    pub fn eval(&self, env: &dyn Fn(&str) -> i64) -> i64 {
        self.base.eval(env) + self.terms.iter().map(|t| t.eval(env)).sum::<i64>()
    }
}

/// How one (zero-based) dimension of an array is dealt over one
/// dimension of the processor grid: the closed form of that dimension's
/// share of Map and Local, with every divisor fixed at instantiation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Axis {
    /// Not distributed along this dimension.
    Whole,
    /// Index `z` on coordinate `z mod s`.
    Cyclic { s: i64 },
    /// Panels of `block` indices over `nprocs` coordinates.
    Block { block: usize, nprocs: usize },
    /// Blocks of `b` indices dealt cyclically over `s` coordinates.
    BlockCyclic { b: usize, s: usize },
}

impl Axis {
    /// Processor coordinate of zero-based index `z`, with the
    /// `rem_euclid`/`max(0)`/clamp semantics of [`OwnerExpr::eval`].
    #[inline]
    fn coord(self, z: i64) -> usize {
        match self {
            Axis::Whole => 0,
            Axis::Cyclic { s } => z.rem_euclid(s) as usize,
            Axis::Block { block, nprocs } => (z.max(0) as usize / block).min(nprocs - 1),
            Axis::BlockCyclic { b, s } => (z.max(0) as usize / b) % s,
        }
    }

    /// One-based local index of zero-based global index `z`, with the
    /// `div_euclid`/`rem_euclid` semantics of [`LocalIndex::eval`].
    #[inline]
    fn local(self, z: i64) -> i64 {
        1 + match self {
            Axis::Whole => z,
            Axis::Cyclic { s } => z.div_euclid(s),
            Axis::Block { block, .. } => z.rem_euclid(block as i64),
            Axis::BlockCyclic { b, s } => {
                let b = b as i64;
                b * z.div_euclid(b * s as i64) + z.rem_euclid(b)
            }
        }
    }
}

/// The evaluable Map/Local pair of a [`DistInstance`].
#[derive(Debug, Clone, PartialEq, Eq)]
enum Form {
    /// The same owner set for every element; Local is the identity.
    Fixed(OwnerSet),
    /// Owner `row.coord * pcols + col.coord`; Local per dimension.
    Grid { row: Axis, col: Axis, pcols: usize },
    /// [`Dist::ColumnAssigned`]: the owner table, and per table position
    /// the columns with the same owner earlier in the period (`before`)
    /// and in a whole period (`per_period`), which together rank a column
    /// among its owner's columns.
    Table {
        owners: Arc<Vec<usize>>,
        before: Vec<i64>,
        per_period: Vec<i64>,
    },
}

impl Form {
    fn new(dist: &Dist, rows: usize, cols: usize, nprocs: usize) -> Form {
        let one_dim = |row, col| Form::Grid { row, col, pcols: 1 };
        let s = nprocs as i64;
        match dist {
            Dist::Replicated => Form::Fixed(OwnerSet::All),
            Dist::OnProcessor(p) => Form::Fixed(OwnerSet::One(*p)),
            Dist::ColumnCyclic => one_dim(Axis::Whole, Axis::Cyclic { s }),
            Dist::RowCyclic => one_dim(Axis::Cyclic { s }, Axis::Whole),
            Dist::ColumnBlock => one_dim(
                Axis::Whole,
                Axis::Block {
                    block: ceil_div(cols, nprocs),
                    nprocs,
                },
            ),
            Dist::RowBlock => one_dim(
                Axis::Block {
                    block: ceil_div(rows, nprocs),
                    nprocs,
                },
                Axis::Whole,
            ),
            Dist::ColumnBlockCyclic { block } => one_dim(
                Axis::Whole,
                Axis::BlockCyclic {
                    b: *block,
                    s: nprocs,
                },
            ),
            Dist::RowBlockCyclic { block } => one_dim(
                Axis::BlockCyclic {
                    b: *block,
                    s: nprocs,
                },
                Axis::Whole,
            ),
            Dist::Block2d { prows, pcols } => Form::Grid {
                row: Axis::Block {
                    block: ceil_div(rows, *prows),
                    nprocs: *prows,
                },
                col: Axis::Block {
                    block: ceil_div(cols, *pcols),
                    nprocs: *pcols,
                },
                pcols: *pcols,
            },
            Dist::ColumnAssigned { table } => {
                let mut seen = vec![0i64; nprocs];
                let before = table
                    .iter()
                    .map(|&p| {
                        seen[p] += 1;
                        seen[p] - 1
                    })
                    .collect();
                Form::Table {
                    owners: Arc::clone(table),
                    before,
                    per_period: table.iter().map(|&p| seen[p]).collect(),
                }
            }
        }
    }
}

/// A [`Dist`] instantiated with concrete array extents and a concrete
/// machine size: the paper's `<map, local, alloc>` triple. [`owner`],
/// [`local`] and [`alloc`] are the evaluable triple — closed-form integer
/// arithmetic, what every run-time path calls; [`owner_expr`] and
/// [`local_expr`] are the symbolic one the compiler reasons about and
/// emits. The two agree on every index, inside the array bounds and
/// outside (`tests/distribution_laws.rs`).
///
/// [`owner`]: DistInstance::owner
/// [`local`]: DistInstance::local
/// [`alloc`]: DistInstance::alloc
/// [`owner_expr`]: DistInstance::owner_expr
/// [`local_expr`]: DistInstance::local_expr
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistInstance {
    dist: Dist,
    rows: usize,
    cols: usize,
    nprocs: usize,
    form: Form,
}

/// `ceil(a / b)` for positive operands.
fn ceil_div(a: usize, b: usize) -> usize {
    a.div_ceil(b)
}

impl DistInstance {
    /// Instantiate `dist` for a `rows × cols` array on `nprocs` processors.
    ///
    /// # Panics
    ///
    /// Panics if `nprocs == 0`, if a named processor is out of range, if a
    /// block size is zero, or if a 2-D grid does not have `prows*pcols ==
    /// nprocs`.
    pub fn new(dist: Dist, rows: usize, cols: usize, nprocs: usize) -> Self {
        assert!(nprocs > 0, "need at least one processor");
        match &dist {
            Dist::OnProcessor(p) => assert!(*p < nprocs, "processor P{p} out of range"),
            Dist::ColumnBlockCyclic { block } | Dist::RowBlockCyclic { block } => {
                assert!(*block > 0, "block size must be positive")
            }
            Dist::Block2d { prows, pcols } => {
                assert!(*prows > 0 && *pcols > 0, "grid dims must be positive");
                assert_eq!(prows * pcols, nprocs, "grid must cover the machine");
            }
            Dist::ColumnAssigned { table } => {
                assert!(!table.is_empty(), "assignment table must be non-empty");
                assert!(
                    table.iter().all(|p| *p < nprocs),
                    "assignment table names a processor outside the machine"
                );
            }
            _ => {}
        }
        let form = Form::new(&dist, rows, cols, nprocs);
        DistInstance {
            dist,
            rows,
            cols,
            nprocs,
            form,
        }
    }

    /// The distribution family.
    pub fn dist(&self) -> &Dist {
        &self.dist
    }

    /// Owner of (1-based) column `c` under a table assignment.
    fn assigned_owner(table: &[usize], c: i64) -> usize {
        table[(c - 1).rem_euclid(table.len() as i64) as usize]
    }

    /// Global extents `(rows, cols)`.
    pub fn extents(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of processors.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Column-panel width for block distributions.
    fn col_panel(&self) -> usize {
        ceil_div(self.cols, self.nprocs)
    }

    /// Row-panel height for block distributions.
    fn row_panel(&self) -> usize {
        ceil_div(self.rows, self.nprocs)
    }

    /// **Map**: the owner of element `(i, j)` (1-based global indices).
    #[inline]
    pub fn owner(&self, i: i64, j: i64) -> OwnerSet {
        match &self.form {
            Form::Fixed(set) => *set,
            Form::Grid { row, col, pcols } => {
                OwnerSet::One(row.coord(i - 1) * pcols + col.coord(j - 1))
            }
            Form::Table { owners, .. } => OwnerSet::One(Self::assigned_owner(owners, j)),
        }
    }

    /// Symbolic **Map**: owner of `(i_expr, j_expr)`.
    ///
    /// # Errors
    ///
    /// [`MappingError::NoSymbolicOwner`] for non-analyzable distributions
    /// ([`Dist::is_analyzable`] is false) — callers fall back to run-time
    /// ownership.
    pub fn owner_expr(&self, i_expr: &Affine, j_expr: &Affine) -> Result<OwnerExpr, MappingError> {
        let zi = i_expr.offset(-1); // zero-based
        let zj = j_expr.offset(-1);
        Ok(match &self.dist {
            Dist::Replicated => OwnerExpr::All,
            Dist::OnProcessor(p) => OwnerExpr::Const(*p),
            Dist::ColumnCyclic => OwnerExpr::CyclicMod {
                expr: zj,
                s: self.nprocs,
            },
            Dist::RowCyclic => OwnerExpr::CyclicMod {
                expr: zi,
                s: self.nprocs,
            },
            Dist::ColumnBlock => OwnerExpr::BlockDiv {
                expr: zj,
                block: self.col_panel(),
                nprocs: self.nprocs,
            },
            Dist::RowBlock => OwnerExpr::BlockDiv {
                expr: zi,
                block: self.row_panel(),
                nprocs: self.nprocs,
            },
            Dist::ColumnBlockCyclic { block } => OwnerExpr::BlockCyclicMod {
                expr: zj,
                block: *block,
                s: self.nprocs,
            },
            Dist::RowBlockCyclic { block } => OwnerExpr::BlockCyclicMod {
                expr: zi,
                block: *block,
                s: self.nprocs,
            },
            Dist::Block2d { prows, pcols } => OwnerExpr::Grid {
                row: Box::new(OwnerExpr::BlockDiv {
                    expr: zi,
                    block: ceil_div(self.rows, *prows),
                    nprocs: *prows,
                }),
                col: Box::new(OwnerExpr::BlockDiv {
                    expr: zj,
                    block: ceil_div(self.cols, *pcols),
                    nprocs: *pcols,
                }),
                pcols: *pcols,
            },
            Dist::ColumnAssigned { .. } => {
                return Err(MappingError::NoSymbolicOwner {
                    dist: self.dist.to_string(),
                })
            }
        })
    }

    /// **Local**: position of global `(i, j)` within its owner's local
    /// array (1-based local indices).
    #[inline]
    pub fn local(&self, i: i64, j: i64) -> (i64, i64) {
        match &self.form {
            Form::Fixed(_) => (i, j),
            Form::Grid { row, col, .. } => (row.local(i - 1), col.local(j - 1)),
            Form::Table {
                owners,
                before,
                per_period,
            } => {
                // Columns 1..j with j's owner: whole periods of the table,
                // then the part of the last one before j.
                let rank = if j < 1 {
                    0
                } else {
                    let len = owners.len() as i64;
                    let at = ((j - 1) % len) as usize;
                    (j - 1) / len * per_period[at] + before[at]
                };
                (i, rank + 1)
            }
        }
    }

    /// Symbolic **Local**.
    ///
    /// # Errors
    ///
    /// [`MappingError::NoSymbolicLocal`] for non-analyzable
    /// distributions, like [`DistInstance::owner_expr`].
    pub fn local_expr(
        &self,
        i_expr: &Affine,
        j_expr: &Affine,
    ) -> Result<(LocalIndex, LocalIndex), MappingError> {
        let id_i = LocalIndex::affine(i_expr.clone());
        let id_j = LocalIndex::affine(j_expr.clone());
        let s = self.nprocs as i64;
        Ok(match &self.dist {
            Dist::Replicated | Dist::OnProcessor(_) => (id_i, id_j),
            Dist::ColumnCyclic => (
                id_i,
                // (j-1) div S + 1
                LocalIndex {
                    base: Affine::constant(1),
                    terms: vec![LocalTerm::Div {
                        num: j_expr.offset(-1),
                        den: s,
                        scale: 1,
                    }],
                },
            ),
            Dist::RowCyclic => (
                LocalIndex {
                    base: Affine::constant(1),
                    terms: vec![LocalTerm::Div {
                        num: i_expr.offset(-1),
                        den: s,
                        scale: 1,
                    }],
                },
                id_j,
            ),
            Dist::ColumnBlock => (
                id_i,
                LocalIndex {
                    base: Affine::constant(1),
                    terms: vec![LocalTerm::Mod {
                        num: j_expr.offset(-1),
                        den: self.col_panel() as i64,
                        scale: 1,
                    }],
                },
            ),
            Dist::RowBlock => (
                LocalIndex {
                    base: Affine::constant(1),
                    terms: vec![LocalTerm::Mod {
                        num: i_expr.offset(-1),
                        den: self.row_panel() as i64,
                        scale: 1,
                    }],
                },
                id_j,
            ),
            Dist::ColumnBlockCyclic { block } => {
                let b = *block as i64;
                (
                    id_i,
                    // b*((j-1) div (b*S)) + (j-1) mod b + 1
                    LocalIndex {
                        base: Affine::constant(1),
                        terms: vec![
                            LocalTerm::Div {
                                num: j_expr.offset(-1),
                                den: b * s,
                                scale: b,
                            },
                            LocalTerm::Mod {
                                num: j_expr.offset(-1),
                                den: b,
                                scale: 1,
                            },
                        ],
                    },
                )
            }
            Dist::RowBlockCyclic { block } => {
                let b = *block as i64;
                (
                    LocalIndex {
                        base: Affine::constant(1),
                        terms: vec![
                            LocalTerm::Div {
                                num: i_expr.offset(-1),
                                den: b * s,
                                scale: b,
                            },
                            LocalTerm::Mod {
                                num: i_expr.offset(-1),
                                den: b,
                                scale: 1,
                            },
                        ],
                    },
                    id_j,
                )
            }
            Dist::Block2d { prows, pcols } => (
                LocalIndex {
                    base: Affine::constant(1),
                    terms: vec![LocalTerm::Mod {
                        num: i_expr.offset(-1),
                        den: ceil_div(self.rows, *prows) as i64,
                        scale: 1,
                    }],
                },
                LocalIndex {
                    base: Affine::constant(1),
                    terms: vec![LocalTerm::Mod {
                        num: j_expr.offset(-1),
                        den: ceil_div(self.cols, *pcols) as i64,
                        scale: 1,
                    }],
                },
            ),
            Dist::ColumnAssigned { .. } => {
                return Err(MappingError::NoSymbolicLocal {
                    dist: self.dist.to_string(),
                })
            }
        })
    }

    /// **Alloc**: the local array shape each processor allocates
    /// (uniform across processors; edge processors may leave cells empty).
    pub fn alloc(&self) -> (usize, usize) {
        match &self.dist {
            Dist::Replicated | Dist::OnProcessor(_) => (self.rows, self.cols),
            Dist::ColumnCyclic | Dist::ColumnBlock => (self.rows, ceil_div(self.cols, self.nprocs)),
            Dist::RowCyclic | Dist::RowBlock => (ceil_div(self.rows, self.nprocs), self.cols),
            Dist::ColumnBlockCyclic { block } => {
                let blocks = ceil_div(self.cols, *block);
                (self.rows, ceil_div(blocks, self.nprocs) * block)
            }
            Dist::RowBlockCyclic { block } => {
                let blocks = ceil_div(self.rows, *block);
                (ceil_div(blocks, self.nprocs) * block, self.cols)
            }
            Dist::Block2d { prows, pcols } => {
                (ceil_div(self.rows, *prows), ceil_div(self.cols, *pcols))
            }
            Dist::ColumnAssigned { table } => {
                let owned_cols = |p: usize| {
                    (1..=self.cols as i64)
                        .filter(|c| Self::assigned_owner(table, *c) == p)
                        .count()
                };
                let widest = (0..self.nprocs).map(owned_cols).max().unwrap_or(0);
                (self.rows, widest.max(1))
            }
        }
    }

    /// Iterate over the global elements owned by processor `p`, in
    /// row-major global order. For [`Dist::Replicated`] every element is
    /// reported for every processor.
    pub fn owned_cells(&self, p: usize) -> impl Iterator<Item = (i64, i64)> + '_ {
        let (rows, cols) = (self.rows as i64, self.cols as i64);
        (1..=rows).flat_map(move |i| {
            (1..=cols).filter_map(move |j| self.owner(i, j).contains(p).then_some((i, j)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_cyclic_matches_paper() {
        // "column j is assigned to processor j mod s" (zero-based procs,
        // so our column 1 lands on P0).
        let d = DistInstance::new(Dist::ColumnCyclic, 8, 8, 4);
        assert_eq!(d.owner(3, 1), OwnerSet::One(0));
        assert_eq!(d.owner(3, 2), OwnerSet::One(1));
        assert_eq!(d.owner(3, 5), OwnerSet::One(0));
        assert_eq!(d.local(3, 5), (3, 2));
        assert_eq!(d.alloc(), (8, 2));
    }

    #[test]
    fn column_block_panels() {
        let d = DistInstance::new(Dist::ColumnBlock, 4, 8, 4);
        assert_eq!(d.owner(1, 1), OwnerSet::One(0));
        assert_eq!(d.owner(1, 2), OwnerSet::One(0));
        assert_eq!(d.owner(1, 3), OwnerSet::One(1));
        assert_eq!(d.owner(1, 8), OwnerSet::One(3));
        assert_eq!(d.local(2, 4), (2, 2));
        assert_eq!(d.alloc(), (4, 2));
    }

    #[test]
    fn block_cyclic_deals_blocks() {
        let d = DistInstance::new(Dist::ColumnBlockCyclic { block: 2 }, 2, 8, 2);
        // blocks: {1,2}->P0, {3,4}->P1, {5,6}->P0, {7,8}->P1
        assert_eq!(d.owner(1, 2), OwnerSet::One(0));
        assert_eq!(d.owner(1, 3), OwnerSet::One(1));
        assert_eq!(d.owner(1, 6), OwnerSet::One(0));
        // local columns on P0: 1,2 (block one), 3,4 (block two: cols 5,6)
        assert_eq!(d.local(1, 5), (1, 3));
        assert_eq!(d.local(1, 6), (1, 4));
        assert_eq!(d.alloc(), (2, 4));
    }

    #[test]
    fn block2d_grid() {
        let d = DistInstance::new(Dist::Block2d { prows: 2, pcols: 2 }, 4, 4, 4);
        assert_eq!(d.owner(1, 1), OwnerSet::One(0));
        assert_eq!(d.owner(1, 3), OwnerSet::One(1));
        assert_eq!(d.owner(3, 1), OwnerSet::One(2));
        assert_eq!(d.owner(4, 4), OwnerSet::One(3));
        assert_eq!(d.local(3, 4), (1, 2));
        assert_eq!(d.alloc(), (2, 2));
    }

    #[test]
    fn replicated_owns_everywhere() {
        let d = DistInstance::new(Dist::Replicated, 2, 2, 3);
        assert_eq!(d.owner(1, 2), OwnerSet::All);
        assert_eq!(d.local(2, 2), (2, 2));
        assert_eq!(d.alloc(), (2, 2));
        assert_eq!(d.owned_cells(2).count(), 4);
    }

    #[test]
    fn on_processor_pins() {
        let d = DistInstance::new(Dist::OnProcessor(1), 3, 3, 2);
        assert_eq!(d.owner(2, 2), OwnerSet::One(1));
        assert_eq!(d.owned_cells(0).count(), 0);
        assert_eq!(d.owned_cells(1).count(), 9);
    }

    #[test]
    fn owned_cells_partition_for_non_replicated() {
        for dist in [
            Dist::ColumnCyclic,
            Dist::RowCyclic,
            Dist::ColumnBlock,
            Dist::RowBlock,
            Dist::ColumnBlockCyclic { block: 3 },
            Dist::Block2d { prows: 2, pcols: 2 },
        ] {
            let d = DistInstance::new(dist.clone(), 6, 7, 4);
            let total: usize = (0..4).map(|p| d.owned_cells(p).count()).sum();
            assert_eq!(total, 42, "partition failed for {dist}");
        }
    }

    #[test]
    fn local_fits_alloc() {
        for dist in [
            Dist::ColumnCyclic,
            Dist::RowCyclic,
            Dist::ColumnBlock,
            Dist::RowBlock,
            Dist::ColumnBlockCyclic { block: 2 },
            Dist::RowBlockCyclic { block: 3 },
            Dist::Block2d { prows: 2, pcols: 3 },
        ] {
            let d = DistInstance::new(dist.clone(), 7, 9, 6);
            let (lr, lc) = d.alloc();
            for i in 1..=7 {
                for j in 1..=9 {
                    let (li, lj) = d.local(i, j);
                    assert!(
                        li >= 1 && lj >= 1 && li as usize <= lr && lj as usize <= lc,
                        "{dist}: local({i},{j}) = ({li},{lj}) outside {lr}x{lc}"
                    );
                }
            }
        }
    }

    #[test]
    fn symbolic_owner_matches_concrete() {
        let d = DistInstance::new(Dist::ColumnCyclic, 8, 8, 4);
        // owner of A[i, j+1] at j = 5 equals direct owner(_, 6).
        let o = d
            .owner_expr(&Affine::var("i"), &Affine::var("j").offset(1))
            .expect("cyclic dists are analyzable");
        let got = o.eval(&|v| match v {
            "i" => 3,
            "j" => 5,
            _ => unreachable!(),
        });
        assert_eq!(got, d.owner(3, 6));
    }

    #[test]
    #[should_panic(expected = "grid must cover")]
    fn bad_grid_rejected() {
        let _ = DistInstance::new(Dist::Block2d { prows: 2, pcols: 2 }, 4, 4, 5);
    }
}

#[cfg(test)]
mod assigned_tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn assigned_owner_follows_table() {
        let d = DistInstance::new(
            Dist::ColumnAssigned {
                table: Arc::new(vec![0, 0, 1]),
            },
            2,
            6,
            2,
        );
        assert_eq!(d.owner(1, 1), OwnerSet::One(0));
        assert_eq!(d.owner(1, 2), OwnerSet::One(0));
        assert_eq!(d.owner(1, 3), OwnerSet::One(1));
        // Table cycles past its length.
        assert_eq!(d.owner(1, 4), OwnerSet::One(0));
        assert_eq!(d.owner(1, 6), OwnerSet::One(1));
    }

    #[test]
    fn assigned_local_ranks_owned_columns() {
        let d = DistInstance::new(
            Dist::ColumnAssigned {
                table: Arc::new(vec![0, 1, 0, 1]),
            },
            3,
            4,
            2,
        );
        assert_eq!(d.local(2, 1), (2, 1)); // P0's first column
        assert_eq!(d.local(2, 3), (2, 2)); // P0's second column
        assert_eq!(d.local(1, 2), (1, 1)); // P1's first column
        assert_eq!(d.local(1, 4), (1, 2)); // P1's second column
        let (lr, lc) = d.alloc();
        assert_eq!((lr, lc), (3, 2));
    }

    #[test]
    fn assigned_local_rank_equals_counting_earlier_columns() {
        // Local's column is the definition — 1 + the columns before `j`
        // with `j`'s owner — at every `j`, past the table's period and
        // outside the array.
        let table = vec![2, 0, 1, 0, 0, 2, 1];
        let d = DistInstance::new(
            Dist::ColumnAssigned {
                table: Arc::new(table.clone()),
            },
            2,
            17,
            3,
        );
        let owner = |c: i64| table[(c - 1).rem_euclid(table.len() as i64) as usize];
        for j in -3..=30 {
            let rank = (1..j).filter(|&c| owner(c) == owner(j)).count() as i64;
            assert_eq!(d.local(4, j), (4, rank + 1), "column {j}");
        }
    }

    #[test]
    fn assigned_partitions_all_columns() {
        let d = DistInstance::new(
            Dist::ColumnAssigned {
                table: Arc::new(vec![2, 0, 1, 0]),
            },
            4,
            9,
            3,
        );
        let total: usize = (0..3).map(|p| d.owned_cells(p).count()).sum();
        assert_eq!(total, 36);
    }

    #[test]
    fn weighted_table_is_proportional() {
        let Dist::ColumnAssigned { table } = Dist::column_weighted(&[1, 3]) else {
            panic!("expected table assignment");
        };
        assert_eq!(table.len(), 4);
        assert_eq!(table.iter().filter(|&&p| p == 0).count(), 1);
        assert_eq!(table.iter().filter(|&&p| p == 1).count(), 3);
    }

    #[test]
    fn assigned_is_not_analyzable() {
        assert!(!Dist::column_weighted(&[1, 1]).is_analyzable());
        assert!(Dist::ColumnCyclic.is_analyzable());
    }

    #[test]
    fn symbolic_queries_on_tables_return_typed_errors() {
        use crate::error::MappingError;
        let d = DistInstance::new(
            Dist::ColumnAssigned {
                table: Arc::new(vec![0, 1]),
            },
            2,
            4,
            2,
        );
        let i = Affine::var("i");
        let j = Affine::var("j");
        assert!(matches!(
            d.owner_expr(&i, &j),
            Err(MappingError::NoSymbolicOwner { .. })
        ));
        assert!(matches!(
            d.local_expr(&i, &j),
            Err(MappingError::NoSymbolicLocal { .. })
        ));
        // The concrete (non-symbolic) queries still work.
        assert_eq!(d.owner(1, 2), OwnerSet::One(1));
        assert_eq!(d.local(1, 3), (1, 2));
    }

    #[test]
    #[should_panic(expected = "outside the machine")]
    fn assigned_table_bounds_checked() {
        let _ = DistInstance::new(
            Dist::ColumnAssigned {
                table: Arc::new(vec![5]),
            },
            2,
            2,
            2,
        );
    }
}
