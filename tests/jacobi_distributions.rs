//! Every compiled variant == the sequential interpreter: Jacobi under
//! every distribution family the introduction motivates ("mapping by
//! columns, rows, blocks, etc."), §5.4's table-assigned columns (the
//! compiler's inconclusive run-time-guard path) and the wavefront at every
//! optimization level and by hand.

mod differential;

use differential::*;
use pdc_core::handwritten;
use pdc_opt::optimize;
use pdc_testkit::cases;

/// Run `sc` once: it must compute the interpreter's result; its messages.
fn messages(sc: &Scenario) -> u64 {
    let run = sc.run(&Point::default());
    sc.assert_correct(&run);
    run.report.stats.network.messages
}

fn jacobi(dist: Dist, s: usize, strategy: Strategy) -> u64 {
    messages(&Scenario::jacobi(dist, s).strategy(strategy))
}

#[test]
fn every_distribution_family_is_correct() {
    for strategy in [Strategy::Runtime, Strategy::CompileTime] {
        for (dist, s) in [
            (Dist::Replicated, 3),
            (Dist::OnProcessor(1), 3),
            (Dist::ColumnCyclic, 4),
            (Dist::RowCyclic, 4),
            (Dist::ColumnBlock, 4),
            (Dist::RowBlock, 4),
            (Dist::ColumnBlockCyclic { block: 2 }, 3),
            (Dist::RowBlockCyclic { block: 3 }, 2),
            (Dist::Block2d { prows: 2, pcols: 2 }, 4),
            (Dist::column_weighted(&[1, 2, 1]), 3),
        ] {
            jacobi(dist, s, strategy);
        }
    }
}

/// Jacobi's halo: blocks pay messages only at panel borders, cyclic
/// layouts for every interior element.
#[test]
fn locality_ranking_for_jacobi() {
    let ct = Strategy::CompileTime;
    let cyclic = jacobi(Dist::ColumnCyclic, 4, ct);
    let block = jacobi(Dist::ColumnBlock, 4, ct);
    let grid = jacobi(Dist::Block2d { prows: 2, pcols: 2 }, 4, ct);
    assert!(
        block < cyclic,
        "block panels ({block}) should beat cyclic ({cyclic})"
    );
    assert!(
        grid <= cyclic,
        "2-D blocks ({grid}) should not exceed cyclic ({cyclic})"
    );
}

#[test]
fn replicated_and_pinned_exchange_no_messages() {
    assert_eq!(jacobi(Dist::Replicated, 3, Strategy::CompileTime), 0);
    assert_eq!(jacobi(Dist::OnProcessor(2), 3, Strategy::CompileTime), 0);
}

#[test]
fn table_assignment_correct_under_both_strategies() {
    for strategy in [Strategy::Runtime, Strategy::CompileTime] {
        messages(
            &Scenario::jacobi(Dist::column_weighted(&[2, 1, 3]), 3)
                .n(12)
                .strategy(strategy),
        );
    }
}

/// The wavefront's dependences survive the run-time-guarded ownership
/// path too.
#[test]
fn wavefront_also_runs_under_table_assignment() {
    let dist = Dist::column_weighted(&[1, 2, 1]);
    let decomp = Decomposition::new(3)
        .array("New", dist.clone())
        .array("Old", dist);
    let sc = Scenario::new(
        "wavefront/table",
        programs::gauss_seidel(),
        "gs_iteration",
        decomp,
    );
    messages(&sc.n(10).strategy(Strategy::CompileTime));
}

/// §5.4: on a machine whose P0 is four times slower, giving it a quarter
/// of the others' columns beats the uniform wrap.
#[test]
fn weighted_assignment_beats_uniform_on_heterogeneous_machine() {
    let slow = at([Axis::Slowdowns(vec![4, 1, 1, 1])]);
    let makespan = |dist| {
        let sc = Scenario::jacobi(dist, 4)
            .n(16)
            .strategy(Strategy::CompileTime);
        let run = sc.run(&slow);
        sc.assert_correct(&run);
        run.report.stats.makespan()
    };
    let weighted = makespan(Dist::column_weighted(&[1, 4, 4, 4]));
    let equal = makespan(Dist::ColumnCyclic);
    assert!(
        weighted < equal,
        "weighted ({weighted:?}) should beat equal ({equal:?})"
    );
}

/// The wavefront on an `n × n` grid over `s` processors by compile-time
/// resolution, then optimized at O1, O2 and O3 with blocks of `blk` rows,
/// then written by hand: each computes the interpreter's matrix; their
/// messages in that order.
fn wavefront_levels(n: usize, s: usize, blk: usize) -> [u64; 5] {
    let ct = Scenario::wavefront(s).n(n).strategy(Strategy::CompileTime);
    let spmd = &ct.compiled().spmd;
    let messages = |prog: &SpmdProgram| {
        let run = ct.run_with(prog, &Point::default());
        ct.assert_correct(&run);
        run.report.stats.network.messages
    };
    let level = |level| messages(&optimize(spmd, level).0);
    [
        messages(spmd),
        level(OptLevel::O1),
        level(OptLevel::O2),
        level(OptLevel::O3 { blksize: blk }),
        messages(&handwritten::gauss_seidel(s, blk)),
    ]
}

/// Run-time resolution, compile-time resolution at every optimization
/// level and the hand-written program, over random grid, machine and
/// block sizes: always the interpreter's matrix.
#[test]
fn all_levels_match_sequential() {
    cases(24, "all_levels_match_sequential", |rng| {
        let (n, s, blk) = (
            rng.range_usize(5, 16),
            rng.range_usize(1, 6),
            rng.range_usize(1, 6),
        );
        messages(&Scenario::wavefront(s).n(n));
        wavefront_levels(n, s, blk);
    });
}

/// Optimizations never add messages.
#[test]
fn optimization_message_monotonicity() {
    cases(24, "optimization_message_monotonicity", |rng| {
        let (n, s, blk) = (
            rng.range_usize(8, 16),
            rng.range_usize(2, 5),
            rng.range_usize(1, 6),
        );
        let [base, o1, o2, o3, _] = wavefront_levels(n, s, blk);
        assert!(o1 <= base && o2 <= o1 && o3 <= o2, "{base} {o1} {o2} {o3}");
    });
}
