//! Property tests of the domain-decomposition algebra and its use by the
//! machine layer: owner totality, local/alloc consistency, and the
//! preload→gather round trip for every distribution family.
//! (Deterministic `pdc-testkit` cases; a failing case prints its seed
//! for replay.)

use pdc_istructure::IMatrix;
use pdc_mapping::{Dist, DistInstance, OwnerSet};
use pdc_spmd::ir::{SExpr, SStmt, SpmdProgram};
use pdc_spmd::run::SpmdMachine;
use pdc_spmd::Scalar;
use pdc_testkit::{cases, Rng};

fn random_dist(rng: &mut Rng) -> Dist {
    match rng.range_usize(0, 7) {
        0 => Dist::Replicated,
        1 => Dist::ColumnCyclic,
        2 => Dist::RowCyclic,
        3 => Dist::ColumnBlock,
        4 => Dist::RowBlock,
        5 => Dist::ColumnBlockCyclic {
            block: rng.range_usize(1, 4),
        },
        _ => Dist::RowBlockCyclic {
            block: rng.range_usize(1, 4),
        },
    }
}

/// Map is total: every element has an owner inside the machine, and
/// Local lands inside Alloc.
#[test]
fn owner_total_and_local_in_alloc() {
    cases(128, "owner_total_and_local_in_alloc", |rng| {
        let dist = random_dist(rng);
        let rows = rng.range_usize(1, 10);
        let cols = rng.range_usize(1, 10);
        let nprocs = rng.range_usize(1, 6);
        let inst = DistInstance::new(dist.clone(), rows, cols, nprocs);
        let (lr, lc) = inst.alloc();
        for i in 1..=rows as i64 {
            for j in 1..=cols as i64 {
                match inst.owner(i, j) {
                    OwnerSet::One(p) => assert!(p < nprocs),
                    OwnerSet::All => {}
                }
                let (li, lj) = inst.local(i, j);
                assert!(li >= 1 && lj >= 1);
                assert!(li as usize <= lr, "{dist}: local row {li} > {lr}");
                assert!(lj as usize <= lc, "{dist}: local col {lj} > {lc}");
            }
        }
    });
}

/// Local is injective per owner: two elements owned by the same
/// processor never collide in its segment.
#[test]
fn local_is_injective_per_owner() {
    cases(128, "local_is_injective_per_owner", |rng| {
        let dist = random_dist(rng);
        let rows = rng.range_usize(1, 9);
        let cols = rng.range_usize(1, 9);
        let nprocs = rng.range_usize(1, 5);
        let inst = DistInstance::new(dist.clone(), rows, cols, nprocs);
        for p in 0..nprocs {
            let mut seen = std::collections::HashSet::new();
            for (i, j) in inst.owned_cells(p) {
                let loc = inst.local(i, j);
                assert!(
                    seen.insert(loc),
                    "{dist}: P{p} collision at local {loc:?} from ({i},{j})"
                );
            }
        }
    });
}

/// A matrix preloaded under any distribution gathers back verbatim.
#[test]
fn preload_gather_round_trip() {
    cases(128, "preload_gather_round_trip", |rng| {
        let dist = random_dist(rng);
        let rows = rng.range_usize(1, 8);
        let cols = rng.range_usize(1, 8);
        let nprocs = rng.range_usize(1, 5);
        // Minimal program that only references the array so the slot
        // exists on every processor.
        let body = vec![SStmt::If {
            cond: SExpr::Bool(false),
            then: vec![SStmt::Let {
                var: "x".into(),
                value: SExpr::ARead {
                    array: "A".into(),
                    idx: vec![SExpr::int(1), SExpr::int(1)],
                },
            }],
            els: vec![],
        }];
        let prog = SpmdProgram::uniform(nprocs, body);
        let mut machine = SpmdMachine::new(&prog, pdc_machine::CostModel::zero()).unwrap();
        let mut data = IMatrix::new(rows, cols);
        for i in 1..=rows as i64 {
            for j in 1..=cols as i64 {
                data.write(i, j, Scalar::Int(i * 1000 + j)).unwrap();
            }
        }
        machine.preload_array("A", dist.clone(), &data);
        machine.run().unwrap();
        let gathered = machine.gather("A").unwrap();
        for i in 1..=rows as i64 {
            for j in 1..=cols as i64 {
                assert_eq!(gathered.peek(i, j), data.peek(i, j), "{dist} at ({i},{j})");
            }
        }
    });
}

/// 2-D grids partition correctly too (separate case because the grid
/// shape must match the machine size).
#[test]
fn block2d_round_trip() {
    cases(128, "block2d_round_trip", |rng| {
        let prows = rng.range_usize(1, 4);
        let pcols = rng.range_usize(1, 4);
        let rows = rng.range_usize(1, 8);
        let cols = rng.range_usize(1, 8);
        let nprocs = prows * pcols;
        let dist = Dist::Block2d { prows, pcols };
        let inst = DistInstance::new(dist.clone(), rows, cols, nprocs);
        let total: usize = (0..nprocs).map(|p| inst.owned_cells(p).count()).sum();
        assert_eq!(total, rows * cols);
    });
}

/// The evaluable triple equals the symbolic one: the compiler emits
/// `owner_expr`/`local_expr` into the target program and the VM, preload
/// and gather evaluate `owner`/`local`, so the two must agree on every
/// index — also outside the array bounds, where generated code can probe
/// ownership (halo references such as `A[i, j+1]` at `j = n`).
#[test]
fn closed_form_equals_symbolic_form() {
    use pdc_mapping::Affine;
    let (vi, vj) = (Affine::var("i"), Affine::var("j"));
    for nprocs in [1usize, 3, 4, 8] {
        let mut dists = vec![
            Dist::Replicated,
            Dist::OnProcessor(0),
            Dist::OnProcessor(nprocs - 1),
            Dist::ColumnCyclic,
            Dist::RowCyclic,
            Dist::ColumnBlock,
            Dist::RowBlock,
        ];
        for block in [2, 4] {
            dists.push(Dist::ColumnBlockCyclic { block });
            dists.push(Dist::RowBlockCyclic { block });
        }
        for prows in (1..=nprocs).filter(|p| nprocs % p == 0) {
            dists.push(Dist::Block2d {
                prows,
                pcols: nprocs / prows,
            });
        }
        for dist in dists {
            assert!(dist.is_analyzable());
            for (rows, cols) in [(5usize, 3usize), (7, 9), (16, 16), (128, 128)] {
                let inst = DistInstance::new(dist.clone(), rows, cols, nprocs);
                let owner = inst.owner_expr(&vi, &vj).unwrap();
                let (li, lj) = inst.local_expr(&vi, &vj).unwrap();
                for i in -2..=rows as i64 + 3 {
                    for j in -2..=cols as i64 + 3 {
                        let env = move |v: &str| match v {
                            "i" => i,
                            "j" => j,
                            other => panic!("unbound index variable {other}"),
                        };
                        let at = format!("{dist} {rows}x{cols} on {nprocs} at ({i},{j})");
                        assert_eq!(inst.owner(i, j), owner.eval(&env), "Map, {at}");
                        assert_eq!(
                            inst.local(i, j),
                            (li.eval(&env), lj.eval(&env)),
                            "Local, {at}"
                        );
                    }
                }
            }
        }
    }
}
