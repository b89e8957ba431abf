//! Mapping propagation: the *evaluators* and *participants* attributes of
//! §3.2.
//!
//! The compiler walks the (inlined) abstract syntax tree and computes, for
//! every assignment, **who evaluates it** (the owner of the left-hand
//! side, under rule 1 of §3.1) and **who owns each right-hand-side
//! operand** (rule 2). Owners are symbolic [`OwnerExpr`]s over the
//! enclosing loop variables — e.g. the owner of `New[i, j+1]` under
//! wrapped columns is `(j+1-1) mod S`, exactly the paper's example. The
//! *participants* of a node is the union of the evaluators in its subtree;
//! for code generation purposes that union is represented as the list of
//! role owners ([`StmtRoles::participants`]).

use crate::inline::Inlined;
use crate::translate::{collect_operands, extract_affine, Operand};
use crate::CoreError;
use pdc_lang::ast::{Block, Expr, ExprKind, Stmt};
use pdc_mapping::{Affine, Decomposition, Dist, DistInstance, OwnerExpr, ScalarMap};
use std::collections::HashMap;

/// What the compiler knows about one array.
#[derive(Debug, Clone)]
pub struct ArrayInfo {
    /// Its distribution.
    pub dist: Dist,
    /// Compile-time extents, when the allocation dimensions fold to
    /// constants (required for the block distribution families).
    pub extents: Option<(usize, usize)>,
    /// 1 for `vector`, 2 for `matrix`.
    pub ndims: usize,
}

/// The owner of a computation or operand, as the compiler sees it.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalOwner {
    /// Every processor (replicated scalars/arrays).
    All,
    /// A symbolic owner over loop variables (constants included, as
    /// [`OwnerExpr::Const`]).
    Expr(OwnerExpr),
    /// Statically unanalyzable (non-affine subscripts): only run-time
    /// resolution of this statement is possible.
    Dynamic,
}

/// One right-hand-side operand and its owner.
#[derive(Debug, Clone)]
pub struct OperandInfo {
    /// The operand (walk order matches
    /// [`crate::translate::collect_operands`]).
    pub operand: Operand,
    /// Who owns it.
    pub owner: EvalOwner,
}

/// The roles of one assignment statement.
#[derive(Debug, Clone)]
pub struct StmtRoles {
    /// Who performs the operation (the owner of the left-hand side).
    pub eval: EvalOwner,
    /// The coercible operands, in walk order.
    pub operands: Vec<OperandInfo>,
}

impl StmtRoles {
    /// The participants of the statement: its evaluators plus every
    /// operand owner (the union of evaluators in the subtree, §3.2).
    pub fn participants(&self) -> Vec<&EvalOwner> {
        let mut v = vec![&self.eval];
        v.extend(self.operands.iter().map(|o| &o.owner));
        v
    }
}

/// The analysis context for one compiled program.
#[derive(Debug, Clone)]
pub struct Analysis {
    nprocs: usize,
    scalars: HashMap<String, ScalarMap>,
    arrays: HashMap<String, ArrayInfo>,
}

impl Analysis {
    /// Build the context: combine the decomposition with the inliner's
    /// extra scalar maps, discover every array (allocations and
    /// subscripted parameters), and fold allocation extents under
    /// `const_params` (compile-time-known scalars such as `n = 128`).
    ///
    /// # Errors
    ///
    /// [`CoreError::MissingMapping`] for arrays without a distribution;
    /// [`CoreError::Unsupported`] for a block-family distribution whose
    /// extents do not fold to constants.
    pub fn build(
        inlined: &Inlined,
        decomp: &Decomposition,
        const_params: &HashMap<String, i64>,
        extent_overrides: &HashMap<String, (usize, usize)>,
    ) -> Result<Self, CoreError> {
        let mut scalars: HashMap<String, ScalarMap> =
            decomp.scalars().map(|(n, m)| (n.to_owned(), m)).collect();
        for (n, m) in &inlined.scalar_maps {
            scalars.insert(n.clone(), *m);
        }
        let mut arrays = HashMap::new();
        discover_arrays(
            &inlined.body,
            decomp,
            const_params,
            extent_overrides,
            &mut arrays,
        )?;
        // Subscripted entry parameters are arrays too.
        let mut subs = std::collections::HashSet::new();
        crate::inline::collect_subscripted(&inlined.body, &mut subs);
        for name in subs {
            if arrays.contains_key(&name) {
                continue;
            }
            // Only parameters (or aliases of discovered arrays) reach
            // here; locals were discovered at their allocation.
            let dist = decomp
                .array_dist(&name)
                .ok_or_else(|| CoreError::MissingMapping { name: name.clone() })?;
            let extents = extent_overrides.get(&name).copied();
            check_extents(&name, &dist, extents)?;
            arrays.insert(
                name.clone(),
                ArrayInfo {
                    dist,
                    extents,
                    // Dimensionality of parameters is refined at first
                    // use by the code generators; assume 2-D here.
                    ndims: 2,
                },
            );
        }
        Ok(Analysis {
            nprocs: decomp.nprocs(),
            scalars,
            arrays,
        })
    }

    /// Number of processors compiled for.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// The mapping of a scalar (default: replicated).
    pub fn scalar_map(&self, name: &str) -> ScalarMap {
        self.scalars.get(name).copied().unwrap_or(ScalarMap::All)
    }

    /// Is `name` a scalar pinned to one processor?
    pub fn is_pinned_scalar(&self, name: &str) -> bool {
        matches!(self.scalar_map(name), ScalarMap::On(_))
    }

    /// Known arrays.
    pub fn arrays(&self) -> &HashMap<String, ArrayInfo> {
        &self.arrays
    }

    /// Info for one array.
    ///
    /// # Errors
    ///
    /// [`CoreError::MissingMapping`] if unknown.
    pub fn array(&self, name: &str) -> Result<&ArrayInfo, CoreError> {
        self.arrays
            .get(name)
            .ok_or_else(|| CoreError::MissingMapping {
                name: name.to_owned(),
            })
    }

    /// The Map/Local/Alloc triple for an array. Extent-free distributions
    /// use placeholder extents (their owner and local functions do not
    /// depend on them); block families require folded extents.
    ///
    /// # Errors
    ///
    /// As [`Analysis::array`].
    pub fn inst(&self, name: &str) -> Result<DistInstance, CoreError> {
        let info = self.array(name)?;
        let (r, c) = info.extents.unwrap_or((1, 1));
        Ok(DistInstance::new(info.dist.clone(), r, c, self.nprocs))
    }

    /// The symbolic owner of an array element with the given source
    /// subscripts: [`EvalOwner::Dynamic`] when a subscript is not affine.
    ///
    /// # Errors
    ///
    /// As [`Analysis::array`].
    pub fn element_owner(&self, array: &str, indices: &[Expr]) -> Result<EvalOwner, CoreError> {
        if !self.array(array)?.dist.is_analyzable() {
            // Table-based assignments go through run-time ownership (the
            // inconclusive path).
            return Ok(EvalOwner::Dynamic);
        }
        let inst = self.inst(array)?;
        let affines: Option<Vec<Affine>> = indices.iter().map(extract_affine).collect();
        let Some(affines) = affines else {
            return Ok(EvalOwner::Dynamic);
        };
        let (i_aff, j_aff) = match affines.as_slice() {
            [j] => (Affine::constant(1), j.clone()),
            [i, j] => (i.clone(), j.clone()),
            _ => {
                return Ok(EvalOwner::Dynamic);
            }
        };
        // A distribution without a symbolic owner (table assignments)
        // degrades to the run-time ownership path instead of aborting.
        Ok(match inst.owner_expr(&i_aff, &j_aff) {
            Ok(expr) => EvalOwner::Expr(expr),
            Err(_) => EvalOwner::Dynamic,
        })
    }

    /// The roles of an assignment statement ([`Stmt::Let`] of a scalar or
    /// [`Stmt::ArrayWrite`]); `None` for other statement kinds.
    ///
    /// # Errors
    ///
    /// Mapping lookups may fail as in [`Analysis::array`].
    pub fn roles(&self, stmt: &Stmt) -> Result<Option<StmtRoles>, CoreError> {
        let (eval, rhs) = match stmt {
            Stmt::Let { name, init, .. } => {
                if matches!(init.kind, ExprKind::Alloc { .. }) {
                    // Allocations are executed by every processor (each
                    // allocates its local segment), not owner-computed.
                    return Ok(None);
                }
                let eval = match self.scalar_map(name) {
                    ScalarMap::All => EvalOwner::All,
                    ScalarMap::On(p) => EvalOwner::Expr(OwnerExpr::Const(p)),
                };
                (eval, init)
            }
            Stmt::ArrayWrite {
                array,
                indices,
                value,
                ..
            } => (self.element_owner(array, indices)?, value),
            _ => return Ok(None),
        };
        let is_mapped = |v: &str| self.is_pinned_scalar(v);
        let mut operands = Vec::new();
        for op in collect_operands(rhs, &is_mapped) {
            let owner = match &op {
                Operand::ArrayRead { array, indices } => self.element_owner(array, indices)?,
                Operand::ScalarVar { name } => match self.scalar_map(name) {
                    ScalarMap::On(p) => EvalOwner::Expr(OwnerExpr::Const(p)),
                    ScalarMap::All => EvalOwner::All,
                },
            };
            operands.push(OperandInfo { operand: op, owner });
        }
        Ok(Some(StmtRoles { eval, operands }))
    }
}

fn check_extents(
    name: &str,
    dist: &Dist,
    extents: Option<(usize, usize)>,
) -> Result<(), CoreError> {
    let needs = matches!(
        dist,
        Dist::ColumnBlock | Dist::RowBlock | Dist::Block2d { .. }
    );
    if needs && extents.is_none() {
        return Err(CoreError::Unsupported {
            message: format!(
                "array `{name}` uses a block distribution but its extents \
                 are not compile-time constants; pass them via const params \
                 or extent overrides"
            ),
            span: pdc_lang::Span::default(),
        });
    }
    Ok(())
}

fn discover_arrays(
    block: &Block,
    decomp: &Decomposition,
    const_params: &HashMap<String, i64>,
    extent_overrides: &HashMap<String, (usize, usize)>,
    out: &mut HashMap<String, ArrayInfo>,
) -> Result<(), CoreError> {
    for stmt in &block.stmts {
        match stmt {
            Stmt::Let { name, init, .. } => {
                if let ExprKind::Alloc { dims } = &init.kind {
                    let dist = decomp
                        .array_dist(name)
                        .ok_or_else(|| CoreError::MissingMapping { name: name.clone() })?;
                    let extents = extent_overrides.get(name).copied().or_else(|| {
                        let folded: Option<Vec<i64>> = dims
                            .iter()
                            .map(|d| d.const_int(&|v| const_params.get(v).copied()))
                            .collect();
                        folded.and_then(|v| match v.as_slice() {
                            [n] => Some((1, (*n).max(0) as usize)),
                            [r, c] => Some(((*r).max(0) as usize, (*c).max(0) as usize)),
                            _ => None,
                        })
                    });
                    check_extents(name, &dist, extents)?;
                    out.insert(
                        name.clone(),
                        ArrayInfo {
                            dist,
                            extents,
                            ndims: dims.len(),
                        },
                    );
                }
            }
            Stmt::For { body, .. } => {
                discover_arrays(body, decomp, const_params, extent_overrides, out)?
            }
            Stmt::If {
                then_blk, else_blk, ..
            } => {
                discover_arrays(then_blk, decomp, const_params, extent_overrides, out)?;
                if let Some(e) = else_blk {
                    discover_arrays(e, decomp, const_params, extent_overrides, out)?;
                }
            }
            _ => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inline::{inline_program, ParamMapMode, ParamMaps};
    use pdc_lang::parse;

    fn analyze(src: &str, decomp: Decomposition, n: Option<i64>) -> (Inlined, Analysis) {
        let p = parse(src).unwrap();
        let inl = inline_program(
            &p,
            "main",
            &decomp,
            &ParamMaps::new(),
            ParamMapMode::Monomorphic,
        )
        .unwrap();
        let mut params = HashMap::new();
        if let Some(n) = n {
            params.insert("n".to_owned(), n);
        }
        let a = Analysis::build(&inl, &decomp, &params, &HashMap::new()).unwrap();
        (inl, a)
    }

    #[test]
    fn discovers_allocated_arrays() {
        let (_, a) = analyze(
            "procedure main(n) { let A = matrix(n, n); return A[1,1]; }",
            Decomposition::new(4).array("A", Dist::ColumnCyclic),
            Some(8),
        );
        let info = a.array("A").unwrap();
        assert_eq!(info.dist, Dist::ColumnCyclic);
        assert_eq!(info.extents, Some((8, 8)));
        assert_eq!(info.ndims, 2);
    }

    #[test]
    fn missing_mapping_is_an_error() {
        let p = parse("procedure main(n) { let A = matrix(n, n); return A[1,1]; }").unwrap();
        let d = Decomposition::new(4);
        let inl =
            inline_program(&p, "main", &d, &ParamMaps::new(), ParamMapMode::Monomorphic).unwrap();
        let err = Analysis::build(&inl, &d, &HashMap::new(), &HashMap::new()).unwrap_err();
        assert!(matches!(err, CoreError::MissingMapping { .. }));
    }

    #[test]
    fn block_dist_requires_constant_extents() {
        let p = parse("procedure main(n) { let A = matrix(n, n); return A[1,1]; }").unwrap();
        let d = Decomposition::new(4).array("A", Dist::ColumnBlock);
        let inl =
            inline_program(&p, "main", &d, &ParamMaps::new(), ParamMapMode::Monomorphic).unwrap();
        let err = Analysis::build(&inl, &d, &HashMap::new(), &HashMap::new()).unwrap_err();
        assert!(err.to_string().contains("block distribution"));
    }

    #[test]
    fn element_owner_matches_paper_example() {
        // "the evaluators for the reference A[i, j+1] would include
        // (j+1) mod S" (§3.2) — zero-based: (j+1-1) mod S = j mod S.
        let (_, a) = analyze(
            "procedure main(A, n) { return A[1, 1]; }",
            Decomposition::new(8).array("A", Dist::ColumnCyclic),
            None,
        );
        let idx = [
            pdc_lang::ast::Expr::new(ExprKind::Var("i".into()), Default::default()),
            pdc_lang::ast::Expr::new(
                ExprKind::Binary {
                    op: pdc_lang::ast::BinOp::Add,
                    lhs: Box::new(pdc_lang::ast::Expr::new(
                        ExprKind::Var("j".into()),
                        Default::default(),
                    )),
                    rhs: Box::new(pdc_lang::ast::Expr::new(
                        ExprKind::Int(1),
                        Default::default(),
                    )),
                },
                Default::default(),
            ),
        ];
        match a.element_owner("A", &idx).unwrap() {
            EvalOwner::Expr(OwnerExpr::CyclicMod { expr, s }) => {
                assert_eq!(s, 8);
                assert_eq!(expr.coeff("j"), 1);
                assert_eq!(expr.constant_part(), 0); // j+1-1
            }
            other => panic!("unexpected owner {other:?}"),
        }
    }

    #[test]
    fn figure4_roles() {
        // a:P1, b:P2, c:P3 — c := a + b has evaluator {P3} and
        // participants <P1, P2, P3> (Figure 4c).
        let src = "procedure main() { let a = 5; let b = 7; let c = a + b; return c; }";
        let d = Decomposition::new(4)
            .scalar("a", ScalarMap::On(1))
            .scalar("b", ScalarMap::On(2))
            .scalar("c", ScalarMap::On(3));
        let (inl, a) = {
            let p = parse(src).unwrap();
            let inl = inline_program(&p, "main", &d, &ParamMaps::new(), ParamMapMode::Monomorphic)
                .unwrap();
            let an = Analysis::build(&inl, &d, &HashMap::new(), &HashMap::new()).unwrap();
            (inl, an)
        };
        let roles = a.roles(&inl.body.stmts[2]).unwrap().unwrap();
        assert_eq!(roles.eval, EvalOwner::Expr(OwnerExpr::Const(3)));
        assert_eq!(roles.operands.len(), 2);
        assert_eq!(
            roles.operands[0].owner,
            EvalOwner::Expr(OwnerExpr::Const(1))
        );
        assert_eq!(
            roles.operands[1].owner,
            EvalOwner::Expr(OwnerExpr::Const(2))
        );
        assert_eq!(roles.participants().len(), 3);
    }

    #[test]
    fn non_affine_subscript_is_dynamic() {
        let (inl, a) = analyze(
            "procedure main(A, n) {
                for i = 1 to n do { A[i * i] = 1; }
                return 0;
            }",
            Decomposition::new(4).array("A", Dist::ColumnCyclic),
            None,
        );
        let Stmt::For { body, .. } = &inl.body.stmts[0] else {
            panic!("expected for");
        };
        let roles = a.roles(&body.stmts[0]).unwrap().unwrap();
        assert_eq!(roles.eval, EvalOwner::Dynamic);
    }

    #[test]
    fn alloc_let_has_no_roles() {
        let (inl, a) = analyze(
            "procedure main(n) { let A = matrix(n, n); return A[1,1]; }",
            Decomposition::new(2).array("A", Dist::ColumnCyclic),
            None,
        );
        assert!(a.roles(&inl.body.stmts[0]).unwrap().is_none());
    }
}
