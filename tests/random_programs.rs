//! Property test: for *random* straight-line scalar programs with random
//! domain decompositions, both code generators agree with a direct
//! evaluation of the program — the compiled machine program is
//! semantically transparent no matter where the data lives.
//! (Deterministic `pdc-testkit` cases; a failing case prints its seed
//! for replay.)
//!
//! Regression policy: when a `cases(...)` run fails, the harness prints
//! the case's seed. Pin it forever as a plain `#[test]` that calls
//! `Rng::from_seed(0x...)` and re-runs the body — these never rot the
//! way proptest-regressions files did, and they document the bug they
//! caught. (No pinned seeds yet.)

use pdc_core::driver::{self, Inputs, Job, Strategy as CodegenStrategy};
use pdc_core::programs;
use pdc_machine::{Backend, CostModel, MachineError};
use pdc_mapping::{Decomposition, Dist, ScalarMap};
use pdc_spmd::ir::{RecvTarget, SExpr, SStmt, SpmdProgram};
use pdc_spmd::run::SpmdMachine;
use pdc_spmd::{Scalar, SpmdError};
use pdc_testkit::{cases, within, Rng, THREADS_DEADLINE};
use std::collections::BTreeMap;
use std::time::Duration;

/// A recipe for one `let` statement: which earlier variables it reads and
/// how it combines them.
#[derive(Debug, Clone)]
struct StmtSpec {
    /// Index of the first operand among earlier variables (modulo count).
    a: usize,
    /// Index of the second operand.
    b: usize,
    /// Combination: 0 = a+b, 1 = a-b, 2 = min, 3 = max, 4 = 2a+const.
    op: u8,
    /// Constant folded into the statement.
    k: i64,
    /// Mapping choice: None = ALL, Some(p) = pinned.
    map: Option<usize>,
}

fn random_specs(rng: &mut Rng, nprocs: usize) -> Vec<StmtSpec> {
    let n = rng.range_usize(1, 12);
    (0..n)
        .map(|_| StmtSpec {
            a: rng.range_usize(0, 8),
            b: rng.range_usize(0, 8),
            op: rng.range_usize(0, 5) as u8,
            k: rng.range_i64(-50, 50),
            map: if rng.bool() {
                Some(rng.range_usize(0, nprocs))
            } else {
                None
            },
        })
        .collect()
}

/// Render the program source and compute the expected value of each
/// variable directly.
fn build(specs: &[StmtSpec]) -> (String, Vec<i64>) {
    let mut src = String::from("procedure main() {\n");
    let mut values: Vec<i64> = Vec::new();
    // Two seed variables so every statement has operands.
    src.push_str("    let x0 = 3;\n    let x1 = 10;\n");
    values.push(3);
    values.push(10);
    for (i, s) in specs.iter().enumerate() {
        let idx = i + 2;
        let a = s.a % values.len();
        let b = s.b % values.len();
        let (expr, val) = match s.op {
            0 => (format!("x{a} + x{b}"), values[a] + values[b]),
            1 => (format!("x{a} - x{b}"), values[a] - values[b]),
            2 => (format!("min(x{a}, x{b})"), values[a].min(values[b])),
            3 => (format!("max(x{a}, x{b})"), values[a].max(values[b])),
            _ => (format!("2 * x{a} + {k}", k = s.k), 2 * values[a] + s.k),
        };
        src.push_str(&format!("    let x{idx} = {expr};\n"));
        values.push(val);
    }
    src.push_str(&format!("    return x{};\n}}\n", values.len() - 1));
    (src, values)
}

fn decomposition_for(specs: &[StmtSpec], nprocs: usize) -> Decomposition {
    let mut d = Decomposition::new(nprocs);
    for (i, s) in specs.iter().enumerate() {
        if let Some(p) = s.map {
            d = d.scalar(format!("x{}", i + 2), ScalarMap::On(p % nprocs));
        }
    }
    d
}

#[test]
fn compiled_scalar_programs_match_direct_evaluation() {
    cases(
        64,
        "compiled_scalar_programs_match_direct_evaluation",
        |rng| {
            let nprocs = rng.range_usize(1, 5);
            let specs = random_specs(rng, 4);
            let (src, expected) = build(&specs);
            let program = pdc_lang::parse(&src).expect("generated source parses");
            let d = decomposition_for(&specs, nprocs);
            for strategy in [CodegenStrategy::Runtime, CodegenStrategy::CompileTime] {
                let job = Job::new(&program, "main", d.clone());
                let compiled = driver::compile(&job, strategy)
                    .unwrap_or_else(|e| panic!("{strategy:?} failed on:\n{src}\n{e}"));
                let exec = driver::execute(&compiled, &Inputs::new(), CostModel::ipsc2())
                    .unwrap_or_else(|e| panic!("{strategy:?} run failed on:\n{src}\n{e}"));
                assert_eq!(exec.outcome.report.undelivered, 0);
                // Every variable must hold its expected value on every
                // processor that defines it (the owner, or everyone for ALL).
                for (i, want) in expected.iter().enumerate() {
                    let name = format!("x{i}");
                    let map = if i < 2 {
                        ScalarMap::All
                    } else {
                        match specs[i - 2].map {
                            Some(p) => ScalarMap::On(p % nprocs),
                            None => ScalarMap::All,
                        }
                    };
                    match map {
                        ScalarMap::All => {
                            for p in 0..nprocs {
                                assert_eq!(
                                    exec.machine.vm(p).var(&name),
                                    Some(Scalar::Int(*want)),
                                    "{strategy:?}: {name} on P{p} in\n{src}"
                                );
                            }
                        }
                        ScalarMap::On(p) => {
                            assert_eq!(
                                exec.machine.vm(p).var(&name),
                                Some(Scalar::Int(*want)),
                                "{strategy:?}: {name} on owner P{p} in\n{src}"
                            );
                        }
                    }
                }
            }
        },
    );
}

/// A random distribution from the block / cyclic / block-cyclic
/// families the paper's introduction motivates, sized for `nprocs`.
fn random_array_dist(rng: &mut Rng, nprocs: usize) -> Dist {
    match rng.range_usize(0, 7) {
        0 => Dist::ColumnCyclic,
        1 => Dist::RowCyclic,
        2 => Dist::ColumnBlock,
        3 => Dist::RowBlock,
        4 => Dist::ColumnBlockCyclic {
            block: rng.range_usize(1, 4),
        },
        5 => Dist::RowBlockCyclic {
            block: rng.range_usize(1, 4),
        },
        _ => {
            // A 2-D grid needs prows * pcols == nprocs; pick a divisor.
            let divisors: Vec<usize> = (1..=nprocs).filter(|d| nprocs.is_multiple_of(*d)).collect();
            let prows = divisors[rng.range_usize(0, divisors.len())];
            Dist::Block2d {
                prows,
                pcols: nprocs / prows,
            }
        }
    }
}

/// The threaded backend agrees with the sequential interpreter (and the
/// simulator) for the Jacobi kernel under *random* decompositions from
/// the block / cyclic / block-cyclic families on 1–8 processors. This is
/// the same transparency property as above, but exercising real OS
/// threads, real channels, and every distribution family at once.
#[test]
fn threaded_backend_matches_interpreter_on_random_decompositions() {
    within(THREADS_DEADLINE, || {
        cases(
            24,
            "threaded_backend_matches_interpreter_on_random_decompositions",
            |rng| {
                let nprocs = rng.range_usize(1, 9);
                let n = rng.range_usize(4, 10);
                let dist = random_array_dist(rng, nprocs);
                let strategy = if rng.bool() {
                    CodegenStrategy::Runtime
                } else {
                    CodegenStrategy::CompileTime
                };
                let label = format!("{dist:?} on {nprocs} procs, n = {n}, {strategy:?}");

                let program = programs::jacobi();
                let d = Decomposition::new(nprocs)
                    .array("New", dist.clone())
                    .array("Old", dist);
                let mut job = Job::new(&program, "jacobi", d).with_const("n", n as i64);
                job.extent_overrides.insert("Old".into(), (n, n));
                let compiled = driver::compile(&job, strategy)
                    .unwrap_or_else(|e| panic!("{label}: compile: {e}"));
                let inputs = Inputs::new()
                    .scalar("n", Scalar::Int(n as i64))
                    .array("Old", driver::standard_input(n, n));

                let thr =
                    driver::execute_on(&compiled, &inputs, CostModel::ipsc2(), Backend::threaded())
                        .unwrap_or_else(|e| panic!("{label}: threaded run: {e}"));
                assert_eq!(thr.outcome.report.undelivered, 0, "{label}");
                let gathered = thr.gather("New").expect("gathers");
                let seq = driver::run_sequential(&program, "jacobi", &inputs).expect("sequential");
                assert_eq!(
                    driver::first_mismatch(&gathered, &seq),
                    None,
                    "{label}: threaded output disagrees with the interpreter"
                );

                // And the communication pattern matches the simulator's.
                let sim =
                    driver::execute_on(&compiled, &inputs, CostModel::ipsc2(), Backend::Simulated)
                        .unwrap_or_else(|e| panic!("{label}: simulated run: {e}"));
                assert_eq!(
                    thr.outcome.report.pair_messages, sim.outcome.report.pair_messages,
                    "{label}: per-pair message counts diverge"
                );
            },
        );
    });
}

/// A random straight-line communication pattern over 2–4 processors:
/// point-to-point messages with uniquely tagged sends and receives
/// spliced into each endpoint's statement list at random positions.
/// Random placement makes receives frequently precede the sends that
/// would unblock their peer, so the family naturally contains both
/// deadlock-free programs and genuine deadlock cycles; on top of that a
/// message sometimes loses its receive (orphan) and a processor
/// sometimes gains a receive nothing ever sends (starvation).
fn random_comm_program(rng: &mut Rng) -> SpmdProgram {
    let nprocs = rng.range_usize(2, 5);
    let mut bodies: Vec<Vec<SStmt>> = vec![Vec::new(); nprocs];
    let n_msgs = rng.range_usize(1, 8);
    for m in 0..n_msgs {
        let src = rng.range_usize(0, nprocs);
        let mut dst = rng.range_usize(0, nprocs);
        if dst == src {
            dst = (dst + 1) % nprocs;
        }
        let tag = 10 + m as u32;
        let at = rng.range_usize(0, bodies[src].len() + 1);
        bodies[src].insert(
            at,
            SStmt::Send {
                to: SExpr::int(dst as i64),
                tag,
                values: vec![SExpr::int(m as i64)],
            },
        );
        if rng.range_usize(0, 10) > 0 {
            let at = rng.range_usize(0, bodies[dst].len() + 1);
            bodies[dst].insert(
                at,
                SStmt::Recv {
                    from: SExpr::int(src as i64),
                    tag,
                    into: vec![RecvTarget::Var(format!("v{m}"))],
                },
            );
        }
        if rng.range_usize(0, 10) == 0 {
            let p = rng.range_usize(0, nprocs);
            let mut q = rng.range_usize(0, nprocs);
            if q == p {
                q = (q + 1) % nprocs;
            }
            let at = rng.range_usize(0, bodies[p].len() + 1);
            bodies[p].insert(
                at,
                SStmt::Recv {
                    from: SExpr::int(q as i64),
                    tag: 100 + m as u32,
                    into: vec![RecvTarget::Var(format!("w{m}"))],
                },
            );
        }
    }
    SpmdProgram::new(bodies)
}

/// Differential property tying the static analyzer to the machine: a
/// statically *verified* program never deadlocks at runtime, and a
/// program the simulator deadlocks on is always statically flagged with
/// an error-severity diagnostic. (Warnings — orphaned or dead sends —
/// are allowed on verified programs: they waste messages but cannot
/// block progress.)
#[test]
fn static_verification_agrees_with_simulated_deadlock_behaviour() {
    let deadlocked = std::cell::Cell::new(0usize);
    let verified = std::cell::Cell::new(0usize);
    cases(
        220,
        "static_verification_agrees_with_simulated_deadlock_behaviour",
        |rng| {
            let prog = random_comm_program(rng);
            let report = pdc_analyze::analyze(&prog, &BTreeMap::new(), &BTreeMap::new());
            assert!(report.exact, "straight-line constants must stay exact");
            let result = SpmdMachine::new(&prog, CostModel::zero())
                .expect("lowers")
                .run();
            match &result {
                Ok(_) => {}
                Err(SpmdError::Machine(MachineError::Deadlock { .. })) => {
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
                    "statically verified program failed at runtime: {}\n{prog}",
                    result.unwrap_err()
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

/// The same agreement on the threaded backend, where a deadlock has no
/// global no-progress snapshot and surfaces as a receive timeout or an
/// await on a finished peer instead. Fewer seeds: each deadlocking case
/// costs a real wall-clock timeout.
#[test]
fn static_verification_agrees_with_threaded_deadlock_behaviour() {
    within(THREADS_DEADLINE, || {
        cases(
            24,
            "static_verification_agrees_with_threaded_deadlock_behaviour",
            |rng| {
                let prog = random_comm_program(rng);
                let report = pdc_analyze::analyze(&prog, &BTreeMap::new(), &BTreeMap::new());
                let result = SpmdMachine::new(&prog, CostModel::zero())
                    .expect("lowers")
                    .with_backend(Backend::Threaded {
                        recv_timeout: Duration::from_millis(250),
                    })
                    .run();
                match &result {
                    Ok(_) => {}
                    Err(SpmdError::Machine(
                        MachineError::Deadlock { .. } | MachineError::RecvTimeout { .. },
                    )) => {
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
                        "statically verified program failed on threads: {}\n{prog}",
                        result.unwrap_err()
                    );
                }
            },
        );
    });
}

/// Random *verified* (statically deadlock-free) communication programs
/// replayed over the ring fabric with a randomized configuration —
/// ring capacity drawn from {8, 16, 64, 1024} words, and one of
/// {vanilla, lossy fault plan, checkpointing} — must deliver exactly
/// the values the simulator delivers, variable by variable, processor
/// by processor.
#[test]
fn ring_fabric_matches_simulator_on_random_programs() {
    within(THREADS_DEADLINE, || {
        use pdc_machine::{CheckpointCfg, FaultPlan, RelConfig};
        cases(
            32,
            "ring_fabric_matches_simulator_on_random_programs",
            |rng| {
                let prog = random_comm_program(rng);
                let report = pdc_analyze::analyze(&prog, &BTreeMap::new(), &BTreeMap::new());
                // Only deadlock-free programs terminate on both backends; the
                // deadlocking rest of the family is covered by the two
                // verification tests above.
                if !report.verified() {
                    return;
                }
                let mut sim = SpmdMachine::new(&prog, CostModel::ipsc2()).expect("lowers");
                let sim_out = sim.run().expect("simulator");

                let caps = [8usize, 16, 64, 1024];
                let cap = caps[rng.range_usize(0, caps.len())];
                let config = rng.range_usize(0, 3);
                let label = format!("ring {cap}, config {config}\n{prog}");
                let mut thr = SpmdMachine::new(&prog, CostModel::ipsc2())
                    .expect("lowers")
                    .with_config(pdc_machine::RunConfig {
                        backend: Backend::threaded(),
                        ring_words: Some(cap),
                        ..Default::default()
                    });
                match config {
                    0 => {}
                    1 => {
                        let plan = FaultPlan::seeded(rng.range_i64(0, 1 << 20) as u64)
                            .with_drops(200)
                            .with_dups(100)
                            .with_fault_budget(3);
                        let rel = RelConfig {
                            rto_wall: Duration::from_millis(2),
                            ..RelConfig::default()
                        };
                        thr = thr.with_faults_cfg(plan, rel);
                    }
                    _ => thr = thr.with_checkpoints(CheckpointCfg::every(4)),
                }
                let thr_out = thr
                    .run()
                    .unwrap_or_else(|e| panic!("{label}: threaded: {e}"));

                assert_eq!(
                    thr_out.report.pair_messages, sim_out.report.pair_messages,
                    "{label}: per-pair message counts"
                );
                assert_eq!(
                    thr_out.report.undelivered, sim_out.report.undelivered,
                    "{label}: undelivered (orphan) message counts"
                );
                for p in 0..prog.n_procs() {
                    for m in 0..8 {
                        for var in [format!("v{m}"), format!("w{m}")] {
                            assert_eq!(
                                thr.vm(p).var(&var),
                                sim.vm(p).var(&var),
                                "{label}: `{var}` on P{p}"
                            );
                        }
                    }
                }
            },
        );
    });
}

/// Property tying the dependence framework to the machine: over random
/// (kernel, distribution, optimization level, size) configurations of
/// the paper's wavefront programs, every transformation the framework
/// approves — source-level interchange plus the SPMD passes it gates
/// (vectorize, jam, strip-mine) — leaves the simulated output
/// bit-identical to the sequential interpreter's. Non-vacuity is
/// asserted both ways: across the family the passes must have applied
/// *and* refused a healthy number of transformations, so the property
/// can neither pass by never optimizing nor by never being challenged.
#[test]
fn dependence_approved_transforms_preserve_output() {
    use pdc_opt::OptLevel;
    use pdc_report::{Phase, RemarkKind};

    let applied = std::cell::Cell::new(0usize);
    let refused = std::cell::Cell::new(0usize);
    cases(
        24,
        "dependence_approved_transforms_preserve_output",
        |rng| {
            let n = rng.range_usize(6, 13);
            let nprocs = rng.range_usize(2, 5);
            let source = if rng.bool() {
                programs::gauss_seidel()
            } else {
                programs::gauss_seidel_interchanged()
            };
            // The source-level pass first: its swaps are framework-approved
            // and must be semantics-preserving through the whole pipeline.
            let (program, swaps) = if rng.bool() {
                let (p, c) = pdc_opt::interchange(&source, &mut pdc_report::RemarkSink::new());
                (p, c)
            } else {
                (source.clone(), 0)
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
            let label = format!("{dist:?} on {nprocs} procs, n = {n}, {level}, {swaps} swap(s)");

            let d = Decomposition::new(nprocs)
                .array("New", dist.clone())
                .array("Old", dist);
            let job = Job::new(&program, "gs_iteration", d)
                .with_const("n", n as i64)
                .with_opt_level(level);
            let compiled = driver::compile(&job, CodegenStrategy::CompileTime)
                .unwrap_or_else(|e| panic!("{label}: compile: {e}"));
            for r in &compiled.remarks {
                if matches!(r.phase, Phase::Vectorize | Phase::Jam | Phase::Strip) {
                    match r.kind {
                        RemarkKind::Applied => applied.set(applied.get() + 1),
                        RemarkKind::Missed => refused.set(refused.get() + 1),
                    }
                }
            }

            let inputs = Inputs::new()
                .scalar("n", Scalar::Int(n as i64))
                .array("Old", driver::standard_input(n, n));
            let exec = driver::execute(&compiled, &inputs, CostModel::ipsc2())
                .unwrap_or_else(|e| panic!("{label}: run: {e}"));
            assert_eq!(exec.outcome.report.undelivered, 0, "{label}");
            let gathered = exec.gather("New").expect("gathers");
            let seq =
                driver::run_sequential(&program, "gs_iteration", &inputs).expect("sequential");
            assert_eq!(
                driver::first_mismatch(&gathered, &seq),
                None,
                "{label}: approved transformations changed the output"
            );
        },
    );
    assert!(applied.get() > 10, "family too tame: {}", applied.get());
    assert!(refused.get() > 10, "family unchallenged: {}", refused.get());
}

/// The two strategies always exchange the same messages for scalar
/// programs (coercions are forced by the mapping, not the strategy).
#[test]
fn strategies_agree_on_message_counts() {
    cases(64, "strategies_agree_on_message_counts", |rng| {
        let nprocs = rng.range_usize(2, 4);
        let specs = random_specs(rng, 3);
        let (src, _) = build(&specs);
        let program = pdc_lang::parse(&src).expect("generated source parses");
        let d = decomposition_for(&specs, nprocs);
        let mut counts = Vec::new();
        for strategy in [CodegenStrategy::Runtime, CodegenStrategy::CompileTime] {
            let job = Job::new(&program, "main", d.clone());
            let compiled = driver::compile(&job, strategy).unwrap();
            let exec = driver::execute(&compiled, &Inputs::new(), CostModel::zero()).unwrap();
            counts.push(exec.messages());
        }
        assert_eq!(counts[0], counts[1], "src:\n{src}");
    });
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
/// must be invisible: on the five Fig. 6/7 versions at n = 16 and
/// n = 128, on random communication patterns (deadlocks, orphans and
/// starved receives included) and on compiled random scalar programs,
/// one walk into all three sinks reports exactly what three walks do —
/// and the driver's own fused walk reports the same again.
#[test]
fn one_walk_into_three_sinks_equals_three_separate_walks() {
    use pdc_opt::OptLevel;
    let program = programs::gauss_seidel();
    for n in [16i64, 128] {
        for (strategy, level) in [
            (CodegenStrategy::Runtime, None),
            (CodegenStrategy::CompileTime, Some(OptLevel::O0)),
            (CodegenStrategy::CompileTime, Some(OptLevel::O1)),
            (CodegenStrategy::CompileTime, Some(OptLevel::O2)),
            (
                CodegenStrategy::CompileTime,
                Some(OptLevel::O3 { blksize: 4 }),
            ),
        ] {
            let label = format!("wavefront {strategy:?} {level:?} n={n}");
            let mut job = Job::new(
                &program,
                "gs_iteration",
                programs::wavefront_decomposition(4),
            )
            .with_const("n", n)
            .with_verify_static(true);
            if let Some(level) = level {
                job = job.with_opt_level(level);
            }
            let compiled = driver::compile(&job, strategy).expect("wavefront compiles");
            let (env, arrays) = compiled.static_env(&job.const_params);
            let (pred, report) =
                assert_one_walk_equals_three(&label, &compiled.spmd, &env, &arrays);
            assert!(pred.exact && report.verified(), "{label}");
            let driver_report = compiled.verification.expect("verification forced on");
            assert_eq!(
                (&compiled.prediction.sends, &compiled.prediction.recvs),
                (&pred.sends, &pred.recvs),
                "{label}: driver prediction"
            );
            assert_eq!(
                (&driver_report.diagnostics, &driver_report.channels),
                (&report.diagnostics, &report.channels),
                "{label}: driver verification"
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
            let specs = random_specs(rng, nprocs);
            let (src, _) = build(&specs);
            let program = pdc_lang::parse(&src).expect("generated source parses");
            for strategy in [CodegenStrategy::Runtime, CodegenStrategy::CompileTime] {
                let job = Job::new(&program, "main", decomposition_for(&specs, nprocs));
                let compiled = driver::compile(&job, strategy).expect("compiles");
                let (env, arrays) = compiled.static_env(&job.const_params);
                assert_one_walk_equals_three(&src, &compiled.spmd, &env, &arrays);
            }
        },
    );
}
