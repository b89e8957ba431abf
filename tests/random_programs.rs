//! Generated programs through every equality: random scalar programs
//! under random owner pinnings, random decompositions of Jacobi, random
//! communication patterns (deadlocks, orphans and starved receives
//! included) and random approved transformations of the wavefront.
//! Deterministic `pdc-testkit` cases; a failing case prints its seed.
//!
//! Regression policy: pin a failing seed forever as a plain `#[test]`
//! that calls `Rng::from_seed(0x...)` and re-runs the body. (No pinned
//! seeds yet.)

mod differential;

use differential::*;
use pdc_report::{Phase, RemarkKind};
use pdc_testkit::{cases, within, THREADS_DEADLINE};
use std::cell::Cell;
use std::collections::BTreeMap;

/// Both code generators compile a random scalar program so that every
/// variable holds its directly computed value on every processor that
/// defines it: the owner, or everyone for a replicated one.
#[test]
fn compiled_scalar_programs_match_direct_evaluation() {
    cases(
        64,
        "compiled_scalar_programs_match_direct_evaluation",
        |rng| {
            let nprocs = rng.range_usize(1, 5);
            let (program, src, values, maps) = random_scalar_program(rng, 4);
            for strategy in [Strategy::Runtime, Strategy::CompileTime] {
                let run = scalar_scenario(program.clone(), &maps, nprocs, strategy)
                    .run(&Point::default());
                assert_eq!(run.report.undelivered, 0, "{strategy:?} on\n{src}");
                for (i, (want, map)) in values.iter().zip(&maps).enumerate() {
                    let defined = |p: usize| map.is_none_or(|owner| owner % nprocs == p);
                    for (p, (vars, _)) in run.procs.iter().enumerate().filter(|(p, _)| defined(*p))
                    {
                        assert_eq!(
                            vars[i],
                            Some(Scalar::Int(*want)),
                            "{strategy:?}: x{i} on P{p} in\n{src}"
                        );
                    }
                }
            }
        },
    );
}

/// The two strategies exchange the same messages for scalar programs:
/// coercions are forced by the mapping, not the strategy.
#[test]
fn strategies_agree_on_message_counts() {
    cases(64, "strategies_agree_on_message_counts", |rng| {
        let nprocs = rng.range_usize(2, 4);
        let (program, src, _, maps) = random_scalar_program(rng, 3);
        let messages = [Strategy::Runtime, Strategy::CompileTime].map(|strategy| {
            let sc = scalar_scenario(program.clone(), &maps, nprocs, strategy);
            sc.run(&Point::default()).report.stats.network.messages
        });
        assert_eq!(messages[0], messages[1], "src:\n{src}");
    });
}

/// The threaded backend agrees with the interpreter and the simulator on
/// Jacobi under random decompositions from every family on 1–8
/// processors: real OS threads, real channels, every distribution.
#[test]
fn threaded_backend_matches_interpreter_on_random_decompositions() {
    within(THREADS_DEADLINE, || {
        cases(
            24,
            "threaded_backend_matches_interpreter_on_random_decompositions",
            |rng| {
                let nprocs = rng.range_usize(1, 9);
                let n = rng.range_usize(4, 10);
                let dist = random_dist(rng, nprocs);
                let strategy = if rng.bool() {
                    Strategy::Runtime
                } else {
                    Strategy::CompileTime
                };
                let sc = Scenario::jacobi(dist, nprocs).n(n).strategy(strategy);
                sc.on_both(&Point::default(), Ignoring::Schedule);
            },
        );
    });
}

/// The static analyzer against the simulator: a statically *verified*
/// program never deadlocks, and a program the simulator deadlocks on is
/// always flagged with an error. (Warnings — orphaned or dead sends — may
/// stand on verified programs: they waste messages but cannot block.)
#[test]
fn static_verification_agrees_with_simulated_deadlock_behaviour() {
    let (deadlocked, verified) = (Cell::new(0usize), Cell::new(0usize));
    cases(
        220,
        "static_verification_agrees_with_simulated_deadlock_behaviour",
        |rng| {
            let prog = random_comm_program(rng);
            let report = pdc_analyze::analyze(&prog, &BTreeMap::new(), &BTreeMap::new());
            assert!(report.exact, "straight-line constants must stay exact");
            let result = run_spmd(&prog, &Point::default(), &[]);
            match &result {
                Ok(_) => {}
                Err(MachineError::Deadlock { .. }) => {
                    deadlocked.set(deadlocked.get() + 1);
                    assert!(
                        report.has_errors(),
                        "runtime deadlock escaped the analyzer:\n{prog}"
                    );
                }
                Err(e) => panic!("unexpected machine error: {e}\n{prog}"),
            }
            if report.verified() {
                verified.set(verified.get() + 1);
                assert!(
                    result.is_ok(),
                    "statically verified program failed at runtime:\n{prog}"
                );
            }
        },
    );
    // Both directions of the implication must actually be exercised.
    assert!(
        deadlocked.get() > 10,
        "family too tame: {}",
        deadlocked.get()
    );
    assert!(verified.get() > 10, "family too broken: {}", verified.get());
}

/// The same agreement on threads, where a deadlock has no global
/// no-progress snapshot and surfaces as a receive timeout or an await on
/// a finished peer. Fewer cases: each deadlock costs a real timeout.
#[test]
fn static_verification_agrees_with_threaded_deadlock_behaviour() {
    within(THREADS_DEADLINE, || {
        cases(
            24,
            "static_verification_agrees_with_threaded_deadlock_behaviour",
            |rng| {
                let prog = random_comm_program(rng);
                let report = pdc_analyze::analyze(&prog, &BTreeMap::new(), &BTreeMap::new());
                let recv_timeout = Duration::from_millis(250);
                let result = run_spmd(
                    &prog,
                    &at([Axis::On(Backend::Threaded { recv_timeout })]),
                    &[],
                );
                match &result {
                    Ok(_) => {}
                    Err(MachineError::Deadlock { .. } | MachineError::RecvTimeout { .. }) => {
                        assert!(
                            report.has_errors(),
                            "threaded deadlock escaped the analyzer:\n{prog}"
                        );
                    }
                    Err(e) => panic!("unexpected machine error: {e}\n{prog}"),
                }
                if report.verified() {
                    assert!(
                        result.is_ok(),
                        "statically verified program failed on threads:\n{prog}"
                    );
                }
            },
        );
    });
}

/// Random verified (deadlock-free) communication programs over the ring
/// fabric, with a ring of 8, 16, 64 or 1024 words and a lossy plan,
/// checkpoints or neither: exactly the values and ledger the simulator
/// delivers, orphans included.
#[test]
fn ring_fabric_matches_simulator_on_random_programs() {
    within(THREADS_DEADLINE, || {
        cases(
            32,
            "ring_fabric_matches_simulator_on_random_programs",
            |rng| {
                let prog = random_comm_program(rng);
                let report = pdc_analyze::analyze(&prog, &BTreeMap::new(), &BTreeMap::new());
                // Only deadlock-free programs terminate on both backends; the
                // rest of the family is the two tests above.
                if !report.verified() {
                    return;
                }
                // Every variable a message can land in.
                let vars: Vec<_> = (0..8)
                    .flat_map(|m| [format!("v{m}"), format!("w{m}")])
                    .collect();
                let watch: Vec<&str> = vars.iter().map(String::as_str).collect();
                let sim = run_spmd(&prog, &Point::default(), &watch).expect("simulator");
                let cap = *rng.pick(&[8usize, 16, 64, 1024]);
                let config = match rng.range_usize(0, 3) {
                    0 => vec![],
                    1 => {
                        let plan = FaultPlan::seeded(rng.range_i64(0, 1 << 20) as u64);
                        vec![
                            Axis::Faults(plan.with_drops(200).with_dups(100).with_fault_budget(3)),
                            Axis::Reliable(test_rel()),
                        ]
                    }
                    _ => vec![Axis::Checkpoints(CheckpointCfg::every(4))],
                };
                let label = format!("ring {cap}, {config:?}\n{prog}");
                let point = at([threads(), Axis::RingWords(cap)].into_iter().chain(config));
                let thr =
                    run_spmd(&prog, &point, &watch).unwrap_or_else(|e| panic!("{label}: {e}"));
                assert_observably_equal(&sim, &thr, Ignoring::Damage, &label);
            },
        );
    });
}

/// Over random (kernel, distribution, optimization level, size)
/// configurations of the wavefront, every transformation the dependence
/// framework approves — source-level interchange and the SPMD passes it
/// gates (vectorize, jam, strip-mine) — leaves the output the
/// interpreter's. Across the family the passes must both apply and
/// refuse a healthy number of transformations, so the property neither
/// passes by never optimizing nor goes unchallenged.
#[test]
fn dependence_approved_transforms_preserve_output() {
    let (applied, refused) = (Cell::new(0usize), Cell::new(0usize));
    cases(
        24,
        "dependence_approved_transforms_preserve_output",
        |rng| {
            let n = rng.range_usize(6, 13);
            let nprocs = rng.range_usize(2, 5);
            let source = match rng.bool() {
                true => programs::gauss_seidel(),
                false => programs::gauss_seidel_interchanged(),
            };
            // The source-level pass first: its swaps are framework-approved
            // and must survive the whole pipeline.
            let (program, swaps) = match rng.bool() {
                true => pdc_opt::interchange(&source, &mut pdc_report::RemarkSink::new()),
                false => (source, 0),
            };
            applied.set(applied.get() + swaps);
            let dist = if rng.bool() {
                Dist::ColumnCyclic
            } else {
                Dist::RowCyclic
            };
            let level = match rng.range_usize(0, 4) {
                0 => OptLevel::O1,
                1 => OptLevel::O2,
                2 => OptLevel::O3 { blksize: 2 },
                _ => OptLevel::O3 { blksize: 4 },
            };
            let decomp = Decomposition::new(nprocs)
                .array("New", dist.clone())
                .array("Old", dist);
            let name = format!("{swaps} swap(s)");
            let sc = Scenario::new(name, program, "gs_iteration", decomp).n(n);
            let sc = sc.strategy(Strategy::CompileTime).opt(level);
            for r in &sc.compiled().remarks {
                if matches!(r.phase, Phase::Vectorize | Phase::Jam | Phase::Strip) {
                    let count = if matches!(r.kind, RemarkKind::Applied) {
                        &applied
                    } else {
                        &refused
                    };
                    count.set(count.get() + 1);
                }
            }
            sc.assert_correct(&sc.run(&Point::default()));
        },
    );
    assert!(applied.get() > 10, "family too tame: {}", applied.get());
    assert!(refused.get() > 10, "family unchallenged: {}", refused.get());
}

/// Walk `prog` once into the cost, safety and timing sinks together and
/// require, field by field, what three separate walks give.
fn assert_one_walk_equals_three(
    label: &str,
    prog: &SpmdProgram,
    env: &BTreeMap<String, i64>,
    arrays: &BTreeMap<String, pdc_mapping::DistInstance>,
) -> (pdc_report::Prediction, pdc_analyze::AnalysisReport) {
    use pdc_report::interp::{self, Tee};
    let cost = CostModel::ipsc2();
    let resolved = interp::resolve(prog, env, arrays);
    let mut counts = pdc_report::CostSink::new(prog.n_procs());
    let mut safety = pdc_analyze::Analyzer::new(&resolved);
    let mut timing = pdc_report::TimingSink::new(&cost, prog.n_procs());
    resolved.walk(&mut Tee {
        a: &mut counts,
        b: &mut Tee {
            a: &mut safety,
            b: &mut timing,
        },
    });
    let (pred, report, est) = (counts.finish(), safety.finish(), timing.finish());

    let solo = pdc_report::predict(prog, env, arrays);
    assert_eq!(
        (&pred.sends, &pred.recvs, pred.exact, &pred.notes),
        (&solo.sends, &solo.recvs, solo.exact, &solo.notes),
        "{label}: prediction"
    );
    let solo = pdc_analyze::analyze(prog, env, arrays);
    assert_eq!(
        (
            &report.diagnostics,
            &report.channels,
            report.exact,
            &report.notes
        ),
        (&solo.diagnostics, &solo.channels, solo.exact, &solo.notes),
        "{label}: analysis"
    );
    let solo = pdc_report::estimate(prog, env, arrays, &cost);
    assert_eq!(
        (&est.clocks, est.exact, &est.notes),
        (&solo.clocks, solo.exact, &solo.notes),
        "{label}: makespan"
    );
    (pred, report)
}

/// The static models share one walk wherever the pipeline runs them
/// (`driver::compile`: cost + safety; the tuner: cost + timing). Sharing
/// is invisible: on the five Fig. 6/7 versions at n = 16 and n = 128, on
/// random communication patterns and on compiled random scalar programs,
/// one walk into all three sinks reports exactly what three walks do —
/// and the driver's own fused walk reports the same again.
#[test]
fn one_walk_into_three_sinks_equals_three_separate_walks() {
    for n in [16, 128] {
        for sc in fig67(n, 4) {
            let job = sc.job().with_verify_static(true);
            let compiled = driver::compile(&job, sc.strategy).expect("wavefront compiles");
            let (env, arrays) = compiled.static_env(&job.const_params);
            let label = sc.to_string();
            let (pred, report) =
                assert_one_walk_equals_three(&label, &compiled.spmd, &env, &arrays);
            assert!(pred.exact && report.verified(), "{label}");
            let driver_report = compiled.verification.expect("verification forced on");
            let driver_pred = &compiled.prediction;
            assert_eq!(
                (&driver_pred.sends, &driver_pred.recvs),
                (&pred.sends, &pred.recvs),
                "{label}"
            );
            let driver_verdict = (&driver_report.diagnostics, &driver_report.channels);
            assert_eq!(
                driver_verdict,
                (&report.diagnostics, &report.channels),
                "{label}"
            );
        }
    }

    cases(
        64,
        "one_walk_into_three_sinks_equals_three_separate_walks/comm",
        |rng| {
            let prog = random_comm_program(rng);
            assert_one_walk_equals_three(
                &prog.to_string(),
                &prog,
                &BTreeMap::new(),
                &BTreeMap::new(),
            );
        },
    );

    cases(
        32,
        "one_walk_into_three_sinks_equals_three_separate_walks/scalar",
        |rng| {
            let nprocs = rng.range_usize(2, 4);
            let (program, src, _, maps) = random_scalar_program(rng, nprocs);
            for strategy in [Strategy::Runtime, Strategy::CompileTime] {
                let sc = scalar_scenario(program.clone(), &maps, nprocs, strategy);
                let (env, arrays) = sc.compiled().static_env(&sc.job().const_params);
                assert_one_walk_equals_three(&src, &sc.compiled().spmd, &env, &arrays);
            }
        },
    );
}
