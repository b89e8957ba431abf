//! Differential testing of the two execution backends.
//!
//! Every workload is compiled once per strategy and then run twice: on
//! the deterministic discrete-event simulator and on the threaded
//! backend (one OS thread per processor over lock-free word rings). The
//! gathered outputs must match each other *and* the sequential
//! reference interpreter, and the per-(src, dst, tag) message counts
//! must match **exactly**: as the scheduler documents (see
//! `crates/machine/src/sched.rs`), FIFO order within a typed channel is
//! program order on the sender, so the communication pattern of a
//! program is a backend-independent invariant — any divergence means
//! one of the backends delivered, dropped, or reordered a message.

use pdc_core::driver::{self, Inputs, Job, Strategy};
use pdc_core::programs;
use pdc_istructure::IMatrix;
use pdc_machine::{
    Backend, CheckpointCfg, CostModel, FaultPlan, MachineError, MetricsMode, RelConfig, RunConfig,
};
use pdc_mapping::{Decomposition, Dist};
use pdc_spmd::ir::{RecvTarget, SExpr, SStmt, SpmdProgram};
use pdc_spmd::run::SpmdMachine;
use pdc_spmd::Scalar;
use pdc_testkit::{within, THREADS_DEADLINE};
use std::time::Duration;

/// A named workload: program, entry point, decomposition, output array,
/// and input data.
struct Workload {
    name: &'static str,
    program: pdc_lang::Program,
    entry: &'static str,
    decomp: Decomposition,
    output: &'static str,
    n: usize,
    input_name: &'static str,
    input: IMatrix<Scalar>,
}

/// Hot edges, cold interior — the heat-equation starting grid from
/// `examples/heat.rs`.
fn hot_edge_grid(n: usize) -> IMatrix<Scalar> {
    let mut grid = IMatrix::new(n, n);
    for i in 1..=n as i64 {
        for j in 1..=n as i64 {
            let edge = i == 1 || j == 1 || i == n as i64 || j == n as i64;
            grid.write(i, j, Scalar::Int(if edge { 1000 } else { 0 }))
                .expect("fresh matrix");
        }
    }
    grid
}

fn workloads() -> Vec<Workload> {
    let n = 8usize;
    vec![
        Workload {
            name: "jacobi/column-cyclic",
            program: programs::jacobi(),
            entry: "jacobi",
            decomp: Decomposition::new(4)
                .array("New", Dist::ColumnCyclic)
                .array("Old", Dist::ColumnCyclic),
            output: "New",
            n,
            input_name: "Old",
            input: driver::standard_input(n, n),
        },
        Workload {
            name: "wavefront/gauss-seidel",
            program: programs::gauss_seidel(),
            entry: "gs_iteration",
            decomp: programs::wavefront_decomposition(4),
            output: "New",
            n,
            input_name: "Old",
            input: driver::standard_input(n, n),
        },
        Workload {
            name: "block-jacobi/2x2-grid",
            program: programs::jacobi(),
            entry: "jacobi",
            decomp: Decomposition::new(4)
                .array("New", Dist::Block2d { prows: 2, pcols: 2 })
                .array("Old", Dist::Block2d { prows: 2, pcols: 2 }),
            output: "New",
            n,
            input_name: "Old",
            input: driver::standard_input(n, n),
        },
        Workload {
            name: "heat/hot-edge-sweep",
            program: programs::gauss_seidel(),
            entry: "gs_iteration",
            decomp: programs::wavefront_decomposition(4),
            output: "New",
            n,
            input_name: "Old",
            input: hot_edge_grid(n),
        },
    ]
}

/// Compile `w` under `strategy` and run it on both backends, on a
/// nominal and on a heterogeneous machine; assert the full equivalence
/// contract.
fn check(w: &Workload, strategy: Strategy) {
    for slowdowns in [vec![], vec![3, 1, 2, 1]] {
        check_on(w, strategy, slowdowns);
    }
}

fn check_on(w: &Workload, strategy: Strategy, slowdowns: Vec<u64>) {
    let label = format!("{} under {strategy:?}, slowdowns {slowdowns:?}", w.name);
    let mut job = Job::new(&w.program, w.entry, w.decomp.clone())
        .with_const("n", w.n as i64)
        .with_run(RunConfig {
            slowdowns,
            ..RunConfig::default()
        });
    job.extent_overrides
        .insert(w.input_name.to_owned(), (w.n, w.n));
    let compiled = driver::compile(&job, strategy).unwrap_or_else(|e| panic!("{label}: {e}"));
    let inputs = Inputs::new()
        .scalar("n", Scalar::Int(w.n as i64))
        .array(w.input_name, w.input.clone());

    let sim = driver::execute_on(&compiled, &inputs, CostModel::ipsc2(), Backend::Simulated)
        .unwrap_or_else(|e| panic!("{label} (simulated): {e}"));
    let thr = driver::execute_on(&compiled, &inputs, CostModel::ipsc2(), Backend::threaded())
        .unwrap_or_else(|e| panic!("{label} (threaded): {e}"));

    // Both backends deliver every message they send, and both report the
    // same (empty) set of pending (src, dst, tag) triples — the threaded
    // backend's diagnostic parity with the simulator's `pending_triples`.
    assert_eq!(
        sim.outcome.report.undelivered, 0,
        "{label}: sim undelivered"
    );
    assert_eq!(
        thr.outcome.report.undelivered, 0,
        "{label}: threaded undelivered"
    );
    assert_eq!(
        sim.outcome.report.pending,
        Vec::new(),
        "{label}: sim pending triples"
    );
    assert_eq!(
        thr.outcome.report.pending,
        Vec::new(),
        "{label}: threaded pending triples"
    );

    // Outputs: threaded == simulated == sequential interpreter.
    let g_sim = sim.gather(w.output).expect("sim gather");
    let g_thr = thr.gather(w.output).expect("threaded gather");
    let seq = driver::run_sequential(&w.program, w.entry, &inputs).expect("sequential");
    assert_eq!(
        driver::first_mismatch(&g_sim, &seq),
        None,
        "{label}: simulator disagrees with sequential interpreter"
    );
    assert_eq!(
        driver::first_mismatch(&g_thr, &seq),
        None,
        "{label}: threaded backend disagrees with sequential interpreter"
    );

    // Per-pair message counts match exactly (the FIFO invariant above).
    assert_eq!(
        thr.outcome.report.pair_messages, sim.outcome.report.pair_messages,
        "{label}: per-(src, dst, tag) message counts diverge"
    );

    // Logical clocks are carried inside the messages, so even the
    // makespan is thread-schedule-independent.
    assert_eq!(
        thr.outcome.report.stats.makespan(),
        sim.outcome.report.stats.makespan(),
        "{label}: makespan diverges"
    );

    // Both count the frames handed to the transport.
    let (sim_net, thr_net) = (
        sim.outcome.report.stats.network,
        thr.outcome.report.stats.network,
    );
    assert_eq!(
        (thr_net.messages, thr_net.words),
        (sim_net.messages, sim_net.words),
        "{label}: network totals diverge"
    );
}

/// An automatically tuned decomposition is bit-identical across
/// backends too: the tuner picks a decomposition statically, so the
/// compiled program it selects must satisfy the same equivalence
/// contract — outputs equal to the sequential interpreter on both
/// backends, identical per-pair message counts, identical makespan.
#[test]
fn backends_agree_on_tuned_decompositions() {
    within(THREADS_DEADLINE, || {
        let n = 8usize;
        let program = programs::gauss_seidel();
        for strategy in [Strategy::Runtime, Strategy::CompileTime] {
            let label = format!("tuned wavefront under {strategy:?}");
            let mut job = Job::new(
                &program,
                "gs_iteration",
                programs::wavefront_decomposition(4),
            )
            .with_const("n", n as i64)
            .with_opt_level(pdc_opt::OptLevel::O2)
            .with_auto_decomposition();
            job.extent_overrides.insert("Old".into(), (n, n));
            let compiled =
                driver::compile(&job, strategy).unwrap_or_else(|e| panic!("{label}: {e}"));
            assert!(compiled.tune.is_some(), "{label}: missing search trace");
            let inputs = Inputs::new()
                .scalar("n", Scalar::Int(n as i64))
                .array("Old", driver::standard_input(n, n));

            let sim =
                driver::execute_on(&compiled, &inputs, CostModel::ipsc2(), Backend::Simulated)
                    .unwrap_or_else(|e| panic!("{label} (simulated): {e}"));
            let thr =
                driver::execute_on(&compiled, &inputs, CostModel::ipsc2(), Backend::threaded())
                    .unwrap_or_else(|e| panic!("{label} (threaded): {e}"));

            assert_eq!(
                sim.outcome.report.undelivered, 0,
                "{label}: sim undelivered"
            );
            assert_eq!(
                thr.outcome.report.undelivered, 0,
                "{label}: threaded undelivered"
            );
            assert_eq!(
                sim.outcome.report.pending,
                Vec::new(),
                "{label}: sim pending"
            );
            assert_eq!(
                thr.outcome.report.pending,
                Vec::new(),
                "{label}: threaded pending"
            );

            let g_sim = sim.gather("New").expect("sim gather");
            let g_thr = thr.gather("New").expect("threaded gather");
            let seq =
                driver::run_sequential(&program, "gs_iteration", &inputs).expect("sequential");
            assert_eq!(
                driver::first_mismatch(&g_sim, &seq),
                None,
                "{label}: simulator disagrees with sequential interpreter"
            );
            assert_eq!(
                driver::first_mismatch(&g_thr, &seq),
                None,
                "{label}: threaded backend disagrees with sequential interpreter"
            );
            assert_eq!(
                thr.outcome.report.pair_messages, sim.outcome.report.pair_messages,
                "{label}: per-(src, dst, tag) message counts diverge"
            );
            assert_eq!(
                thr.outcome.report.stats.makespan(),
                sim.outcome.report.stats.makespan(),
                "{label}: makespan diverges"
            );
            // And the tuner's predicted makespan is the one both backends agree on.
            assert_eq!(
                compiled.tune.as_ref().unwrap().winner_score().makespan,
                sim.outcome.report.stats.makespan().0,
                "{label}: tuner's predicted makespan diverges from execution"
            );
        }
    });
}

#[test]
fn backends_agree_under_runtime_resolution() {
    within(THREADS_DEADLINE, || {
        for w in workloads() {
            check(&w, Strategy::Runtime);
        }
    });
}

#[test]
fn backends_agree_under_compile_time_resolution() {
    within(THREADS_DEADLINE, || {
        for w in workloads() {
            check(&w, Strategy::CompileTime);
        }
    });
}

/// A two-processor pipeline streaming 40 four-scalar messages one way
/// and a checksum back — every frame (10 words) is bigger than an
/// 8-word ring, so tiny rings force the chunked send path and hundreds
/// of wraparounds.
fn stream_program() -> SpmdProgram {
    let mut p0 = Vec::new();
    let mut p1 = vec![SStmt::Let {
        var: "acc".into(),
        value: SExpr::int(0),
    }];
    for m in 0..40i64 {
        p0.push(SStmt::Send {
            to: SExpr::int(1),
            tag: 0,
            values: vec![
                SExpr::int(m),
                SExpr::int(3 * m + 1),
                SExpr::int(5 * m + 2),
                SExpr::int(7 * m + 3),
            ],
        });
        p1.push(SStmt::Recv {
            from: SExpr::int(0),
            tag: 0,
            into: vec![
                RecvTarget::Var("a".into()),
                RecvTarget::Var("b".into()),
                RecvTarget::Var("c".into()),
                RecvTarget::Var("d".into()),
            ],
        });
        p1.push(SStmt::Let {
            var: "acc".into(),
            value: SExpr::var("acc")
                .add(SExpr::var("a"))
                .add(SExpr::var("b"))
                .add(SExpr::var("c"))
                .add(SExpr::var("d")),
        });
    }
    p1.push(SStmt::Send {
        to: SExpr::int(0),
        tag: 1,
        values: vec![SExpr::var("acc")],
    });
    p0.push(SStmt::Recv {
        from: SExpr::int(1),
        tag: 1,
        into: vec![RecvTarget::Var("total".into())],
    });
    SpmdProgram::new(vec![p0, p1])
}

/// Ring capacity is invisible to programs: an 8-word ring (every frame
/// chunked), a 64-word ring, and the default all produce the checksum,
/// per-pair message counts, and logical makespan of the simulator.
#[test]
fn ring_capacity_is_invisible_to_programs() {
    within(THREADS_DEADLINE, || {
        let prog = stream_program();
        let expected_total: i64 = (0..40).map(|m| 16 * m + 6).sum();

        let mut sim = SpmdMachine::new(&prog, CostModel::ipsc2()).expect("lowers");
        let sim_out = sim.run().expect("simulator runs");
        assert_eq!(sim.vm(0).var("total"), Some(Scalar::Int(expected_total)));

        for words in [Some(8usize), Some(64), None] {
            let label = format!("ring capacity {words:?}");
            let mut m = SpmdMachine::new(&prog, CostModel::ipsc2())
                .expect("lowers")
                .with_config(RunConfig {
                    backend: Backend::threaded(),
                    ring_words: words,
                    ..RunConfig::default()
                });
            let out = m.run().unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(
                m.vm(0).var("total"),
                Some(Scalar::Int(expected_total)),
                "{label}: checksum"
            );
            assert_eq!(
                m.vm(1).var("acc"),
                Some(Scalar::Int(expected_total)),
                "{label}: receiver accumulator"
            );
            assert_eq!(out.report.undelivered, 0, "{label}: undelivered");
            assert_eq!(
                out.report.pair_messages, sim_out.report.pair_messages,
                "{label}: per-pair message counts"
            );
            assert_eq!(
                out.report.stats.makespan(),
                sim_out.report.stats.makespan(),
                "{label}: logical makespan"
            );
        }
    });
}

/// The equivalence contract holds over the ring fabric with the
/// reliable-delivery protocol and checkpointing interposed: a lossy
/// fault plan plus periodic snapshots on both backends still produces
/// the sequential interpreter's output and identical per-pair counts.
#[test]
fn backends_agree_on_faulty_checkpointed_wavefronts() {
    within(THREADS_DEADLINE, || {
        let n = 8usize;
        let program = programs::gauss_seidel();
        let plan = FaultPlan::seeded(9)
            .with_drops(200)
            .with_dups(120)
            .with_fault_budget(4);
        let rel = RelConfig {
            rto_wall: Duration::from_millis(2),
            ..RelConfig::default()
        };
        let mut job = Job::new(
            &program,
            "gs_iteration",
            programs::wavefront_decomposition(4),
        )
        .with_const("n", n as i64)
        .with_run(RunConfig {
            faults: plan,
            reliable: Some(rel),
            checkpoints: Some(CheckpointCfg::every(64)),
            ..RunConfig::default()
        });
        job.extent_overrides.insert("Old".into(), (n, n));
        let compiled = driver::compile(&job, Strategy::CompileTime).expect("compiles");
        let inputs = Inputs::new()
            .scalar("n", Scalar::Int(n as i64))
            .array("Old", driver::standard_input(n, n));
        let seq = driver::run_sequential(&program, "gs_iteration", &inputs).expect("sequential");

        let sim = driver::execute_on(&compiled, &inputs, CostModel::ipsc2(), Backend::Simulated)
            .expect("simulated faulty run");
        let thr = driver::execute_on(&compiled, &inputs, CostModel::ipsc2(), Backend::threaded())
            .expect("threaded faulty run");
        for (label, exec) in [("simulated", &sim), ("threaded", &thr)] {
            assert_eq!(exec.outcome.report.undelivered, 0, "{label}: undelivered");
            let gathered = exec.gather("New").expect("gathers");
            assert_eq!(
                driver::first_mismatch(&gathered, &seq),
                None,
                "{label}: faulty checkpointed run disagrees with the interpreter"
            );
            assert!(
                exec.outcome.report.recovery.is_some(),
                "{label}: checkpointed run carries a recovery report"
            );
        }
        assert_eq!(
            thr.outcome.report.pair_messages, sim.outcome.report.pair_messages,
            "per-pair logical message counts diverge under faults"
        );
    });
}

/// A cycle of receives that no execution can satisfy: the simulator
/// proves a global deadlock, while the threaded backend — which has no
/// global view — must surface a receive timeout instead of hanging.
#[test]
fn cyclic_deadlock_returns_timeout_on_threaded_backend() {
    within(THREADS_DEADLINE, || {
        // Each of the two processors waits for the other before sending.
        let body = vec![
            SStmt::Recv {
                from: SExpr::int(1).sub(SExpr::my_node()),
                tag: 7,
                into: vec![RecvTarget::Var("x".into())],
            },
            SStmt::Send {
                to: SExpr::int(1).sub(SExpr::my_node()),
                tag: 7,
                values: vec![SExpr::int(1)],
            },
        ];
        let prog = SpmdProgram::uniform(2, body);

        let sim_err = SpmdMachine::new(&prog, CostModel::zero())
            .expect("lowers")
            .run()
            .expect_err("simulator detects the cycle");
        assert!(
            matches!(
                sim_err,
                pdc_spmd::SpmdError::Machine(MachineError::Deadlock { .. })
            ),
            "simulator reports a deadlock, got: {sim_err}"
        );

        let thr_err = SpmdMachine::new(&prog, CostModel::zero())
            .expect("lowers")
            .with_backend(Backend::Threaded {
                recv_timeout: Duration::from_millis(50),
            })
            .run()
            .expect_err("threaded backend times out");
        assert!(
            matches!(
                thr_err,
                pdc_spmd::SpmdError::Machine(MachineError::RecvTimeout { .. })
            ),
            "threaded backend reports a receive timeout, got: {thr_err}"
        );
    });
}

/// One configuration, two ways to write it: the six `SpmdMachine` setters
/// and the equivalent `RunConfig` literal run the same run, on both
/// backends — stats, pair counts, trace and the metrics' logical
/// projection on the raw fabric; under the protocol the whole report on
/// the simulator, and what wall-clock retransmission races leave
/// reproducible on threads.
#[test]
fn setters_and_config_literal_describe_the_same_run() {
    within(THREADS_DEADLINE, || {
        let prog = stream_program();
        let rel = RelConfig {
            rto_wall: Duration::from_millis(2),
            ..RelConfig::default()
        };
        let plan = FaultPlan::seeded(3)
            .with_drops(150)
            .with_dups(100)
            .with_fault_budget(3);
        let ckpt = CheckpointCfg::every(128);
        let new = || SpmdMachine::new(&prog, CostModel::ipsc2()).expect("lowers");
        let events = |r: &pdc_machine::RunReport| {
            assert_eq!(r.trace.dropped(), 0);
            r.trace
                .events()
                .map(|e| (e.proc, e.at, e.kind.clone()))
                .collect::<Vec<_>>()
        };
        for backend in [Backend::Simulated, Backend::threaded()] {
            // Raw fabric: an empty plan leaves `with_faults_cfg` on it.
            let a = new()
                .with_backend(backend)
                .with_faults_cfg(FaultPlan::none(), rel)
                .with_metrics()
                .with_trace(1 << 16)
                .run()
                .expect("setters run")
                .report;
            let b = new()
                .with_config(RunConfig {
                    backend,
                    metrics: MetricsMode::Full,
                    trace_cap: Some(1 << 16),
                    ..RunConfig::default()
                })
                .run()
                .expect("literal run")
                .report;
            assert!(a.fault.is_none() && b.fault.is_none(), "{backend:?}");
            assert_eq!(a.stats.clocks, b.stats.clocks, "{backend:?}: clocks");
            assert_eq!(a.stats.procs, b.stats.procs, "{backend:?}: counters");
            assert_eq!(a.pair_messages, b.pair_messages, "{backend:?}");
            assert_eq!(a.metrics.logical(), b.metrics.logical(), "{backend:?}");
            assert_eq!(events(&a), events(&b), "{backend:?}: trace");

            // The protocol, through all six setters; the later
            // `with_faults_cfg` policy replaces the earlier one.
            let mut by_setters = new()
                .with_backend(backend)
                .with_reliable_delivery(RelConfig::default())
                .with_faults_cfg(plan.clone(), rel)
                .with_checkpoints(ckpt)
                .with_metrics()
                .with_trace(1 << 16);
            let mut by_literal = new().with_config(RunConfig {
                backend,
                faults: plan.clone(),
                reliable: Some(rel),
                checkpoints: Some(ckpt),
                metrics: MetricsMode::Full,
                trace_cap: Some(1 << 16),
                ..RunConfig::default()
            });
            let a = by_setters.run().expect("setters run").report;
            let b = by_literal.run().expect("literal run").report;
            assert_eq!(a.pair_messages, b.pair_messages, "{backend:?}");
            assert_eq!(by_setters.vm(0).var("total"), by_literal.vm(0).var("total"));
            assert!(a.fault.is_some() && b.fault.is_some(), "{backend:?}");
            assert!(a.recovery.is_some() && b.recovery.is_some(), "{backend:?}");
            assert!(a.metrics.full && b.metrics.full, "{backend:?}");
            if backend == Backend::Simulated {
                assert_eq!(a.stats, b.stats);
                assert_eq!(a.steps, b.steps);
                assert_eq!(a.fault, b.fault);
                assert_eq!(a.recovery, b.recovery);
                assert_eq!(a.metrics, b.metrics);
                assert_eq!(events(&a), events(&b));
            }
        }
    });
}

/// A configuration that cannot describe a run of the machine is a typed
/// error from the one validation point — through `SpmdMachine` and
/// through the driver — never a panic.
#[test]
fn invalid_configurations_are_typed_errors_on_both_backends() {
    within(THREADS_DEADLINE, || {
        let prog = stream_program();
        let both = [Backend::Simulated, Backend::threaded()];
        let threads = [Backend::threaded()];
        // (what, the configuration, where it is invalid, a word of the reason)
        let table: [(&str, RunConfig, &[Backend], &str); 4] = [
            (
                "coordinated checkpoints",
                RunConfig {
                    checkpoints: Some(CheckpointCfg::every(50).coordinated()),
                    ..RunConfig::default()
                },
                &threads,
                "coordinated",
            ),
            (
                "ring capacity",
                RunConfig {
                    ring_words: Some(12),
                    ..RunConfig::default()
                },
                &threads,
                "ring capacity 12",
            ),
            (
                "slowdown length",
                RunConfig {
                    slowdowns: vec![2, 1, 1],
                    ..RunConfig::default()
                },
                &both,
                "3 slowdown factors for 2 processors",
            ),
            (
                "zero slowdown",
                RunConfig {
                    slowdowns: vec![1, 0],
                    ..RunConfig::default()
                },
                &both,
                "positive",
            ),
        ];
        for (what, config, invalid_on, word) in table {
            for backend in both {
                let config = RunConfig {
                    backend,
                    ..config.clone()
                };
                let outcome = SpmdMachine::new(&prog, CostModel::ipsc2())
                    .expect("lowers")
                    .with_config(config)
                    .run();
                if invalid_on.contains(&backend) {
                    match outcome {
                        Err(pdc_spmd::SpmdError::Machine(MachineError::InvalidConfig {
                            reason,
                        })) => assert!(reason.contains(word), "{what} on {backend:?}: {reason}"),
                        other => {
                            panic!("{what} on {backend:?}: expected InvalidConfig, got {other:?}")
                        }
                    }
                } else {
                    outcome.unwrap_or_else(|e| panic!("{what} on {backend:?}: {e}"));
                }
            }
        }

        // The issue's reproducer, through the driver.
        let n = 8usize;
        let program = programs::gauss_seidel();
        let mut job = Job::new(
            &program,
            "gs_iteration",
            programs::wavefront_decomposition(4),
        )
        .with_const("n", n as i64)
        .with_run(RunConfig {
            backend: Backend::threaded(),
            checkpoints: Some(CheckpointCfg::every(50).coordinated()),
            ..RunConfig::default()
        });
        job.extent_overrides.insert("Old".into(), (n, n));
        let compiled = driver::compile(&job, Strategy::CompileTime).expect("compiles");
        let inputs = Inputs::new()
            .scalar("n", Scalar::Int(n as i64))
            .array("Old", driver::standard_input(n, n));
        let err = driver::execute(&compiled, &inputs, CostModel::ipsc2())
            .expect_err("coordinated checkpoints cannot run on threads");
        assert!(
            matches!(
                err,
                pdc_spmd::SpmdError::Machine(MachineError::InvalidConfig { .. })
            ),
            "got: {err}"
        );
    });
}
