//! Simulator == threads. The simulator is one thread stepping every
//! processor round-robin; the threaded backend runs one OS thread per
//! processor over lock-free word rings. FIFO order within a typed channel
//! is program order on the sender, and logical clocks travel inside the
//! messages, so outputs, the per-(src, dst, tag) ledger, every clock and
//! counter, each processor's events and the logical metrics are
//! backend-independent: a divergence means one backend delivered, dropped
//! or reordered a message.

mod differential;

use differential::*;
use pdc_spmd::run::SpmdMachine;
use pdc_testkit::{within, THREADS_DEADLINE};

/// Every paper workload on both backends, on a nominal and on a
/// heterogeneous machine.
fn backends_agree(strategy: Strategy) {
    within(THREADS_DEADLINE, move || {
        for sc in paper_workloads(strategy) {
            let s = sc.compiled().spmd.n_procs();
            for slowdowns in [vec![], (0..s).map(|p| [3, 1, 2, 1][p % 4]).collect()] {
                sc.on_both(&at([Axis::Slowdowns(slowdowns)]), Ignoring::Schedule);
            }
        }
    });
}

#[test]
fn backends_agree_under_runtime_resolution() {
    backends_agree(Strategy::Runtime);
}

#[test]
fn backends_agree_under_compile_time_resolution() {
    backends_agree(Strategy::CompileTime);
}

/// The tuner picks a decomposition statically, so the program it selects
/// meets the same contract — and its predicted makespan is the one both
/// backends measure.
#[test]
fn backends_agree_on_tuned_decompositions() {
    within(THREADS_DEADLINE, || {
        for strategy in [Strategy::Runtime, Strategy::CompileTime] {
            let sc = Scenario::wavefront(4)
                .strategy(strategy)
                .opt(OptLevel::O2)
                .tuned();
            let (sim, _) = sc.on_both(&Point::default(), Ignoring::Schedule);
            let tune = sc.compiled().tune.as_ref().expect("a search trace");
            assert_eq!(
                tune.winner_score().makespan,
                sim.report.stats.makespan().0,
                "{sc}"
            );
        }
    });
}

/// §5.4's heterogeneous machine is one `RunConfig` field both backends
/// read, and its slow processor shows in the makespan.
#[test]
fn slowdowns_reach_both_backends() {
    within(THREADS_DEADLINE, || {
        let sc = Scenario::jacobi(Dist::ColumnCyclic, 4)
            .n(16)
            .strategy(Strategy::CompileTime);
        let (sim, _) = sc.on_both(&at([Axis::Slowdowns(vec![4, 1, 1, 1])]), Ignoring::Schedule);
        let nominal = sc.run(&Point::default());
        assert!(sim.report.stats.makespan() > nominal.report.stats.makespan());
    });
}

/// Lossy delivery and periodic snapshots interposed on both backends.
#[test]
fn backends_agree_on_faulty_checkpointed_wavefronts() {
    within(THREADS_DEADLINE, || {
        let plan = FaultPlan::seeded(9).with_drops(200).with_dups(120);
        let ckpt = Axis::Checkpoints(CheckpointCfg::every(64));
        let point = at([
            Axis::Faults(plan.with_fault_budget(4)),
            Axis::Reliable(test_rel()),
            ckpt,
        ]);
        let sc = Scenario::wavefront(4).strategy(Strategy::CompileTime);
        let (sim, thr) = sc.on_both(&point, Ignoring::Damage);
        assert!(sim.report.recovery.is_some() && thr.report.recovery.is_some());
    });
}

/// Two processors streaming 40 four-scalar messages one way and a
/// checksum (`total` on P0) back. Every frame (10 words) is bigger than
/// an 8-word ring, so tiny rings force the chunked send path and
/// hundreds of wraparounds.
fn stream_program() -> SpmdProgram {
    let (acc, vars) = (|| SExpr::var("acc"), ["a", "b", "c", "d"]);
    let set_acc = |value| SStmt::Let {
        var: "acc".into(),
        value,
    };
    let (mut p0, mut p1) = (Vec::new(), vec![set_acc(SExpr::int(0))]);
    for m in 0..40i64 {
        let values = (0..4).map(|k| SExpr::int((2 * k + 1) * m + k)).collect();
        p0.push(send(SExpr::int(1), 0, values));
        p1.push(recv(SExpr::int(0), 0, &vars));
        p1.push(set_acc(
            vars.into_iter()
                .fold(acc(), |sum, v| sum.add(SExpr::var(v))),
        ));
    }
    p1.push(send(SExpr::int(0), 1, vec![acc()]));
    p0.push(recv(SExpr::int(1), 1, &["total"]));
    SpmdProgram::new(vec![p0, p1])
}

/// An 8-word ring (every frame chunked), a 64-word ring and the default
/// all compute the simulator's checksum with its ledger and clocks.
#[test]
fn ring_capacity_is_invisible_to_programs() {
    within(THREADS_DEADLINE, || {
        let (prog, watch) = (stream_program(), ["total", "acc"]);
        let sim = run_spmd(&prog, &Point::default(), &watch).expect("simulator runs");
        let total = Some(Scalar::Int((0..40).map(|m| 16 * m + 6).sum()));
        assert_eq!((sim.procs[0].0[0], sim.procs[1].0[1]), (total, total));
        assert_eq!(sim.report.undelivered, 0);
        for words in [Some(8), Some(64), None] {
            let label = format!("ring capacity {words:?}");
            let point = at([threads()].into_iter().chain(words.map(Axis::RingWords)));
            let thr = run_spmd(&prog, &point, &watch).unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_observably_equal(&sim, &thr, Ignoring::Schedule, &label);
        }
    });
}

/// A cycle of receives no execution can satisfy: the simulator proves a
/// global deadlock; threads, with no global view, time out instead of
/// hanging.
#[test]
fn cyclic_deadlock_returns_timeout_on_threaded_backend() {
    within(THREADS_DEADLINE, || {
        let other = || SExpr::int(1).sub(SExpr::my_node());
        let body = vec![
            recv(other(), 7, &["x"]),
            send(other(), 7, vec![SExpr::int(1)]),
        ];
        let prog = SpmdProgram::uniform(2, body);
        let sim = run_spmd(&prog, &Point::default(), &[]).expect_err("the cycle");
        assert!(matches!(sim, MachineError::Deadlock { .. }), "{sim}");
        let recv_timeout = Duration::from_millis(50);
        let point = at([Axis::On(Backend::Threaded { recv_timeout })]);
        let thr = run_spmd(&prog, &point, &[]).expect_err("threads time out");
        assert!(matches!(thr, MachineError::RecvTimeout { .. }), "{thr}");
    });
}

/// The six `SpmdMachine` setters and the equivalent `RunConfig` literal
/// describe the same run on both backends: everything the schedule cannot
/// change on the raw fabric; under the protocol, the whole report on the
/// simulator and what wall-clock retransmission races leave reproducible
/// on threads.
#[test]
fn setters_and_config_literal_describe_the_same_run() {
    within(THREADS_DEADLINE, || {
        let prog = stream_program();
        let plan = FaultPlan::seeded(3)
            .with_drops(150)
            .with_dups(100)
            .with_fault_budget(3);
        let ckpt = CheckpointCfg::every(128);
        let new = || SpmdMachine::new(&prog, CostModel::ipsc2()).expect("lowers");
        let run = |mut m: SpmdMachine| {
            let report = m.run().expect("runs").report;
            Run::read(report, None, &[m.vm(0), m.vm(1)], &["total"])
        };
        let merged = |r: &Run| {
            r.events()
                .into_iter()
                .map(|e| (e.proc, e.at, e.kind.clone()))
                .collect::<Vec<_>>()
        };
        for backend in [Backend::Simulated, Backend::threaded()] {
            let label = format!("{backend:?}");
            // Raw fabric: an empty plan leaves `with_faults_cfg` on it.
            let setters = new()
                .with_backend(backend)
                .with_faults_cfg(FaultPlan::none(), test_rel());
            let a = run(setters.with_metrics().with_trace(1 << 16));
            let config = RunConfig {
                backend,
                metrics: MetricsMode::Full,
                trace_cap: Some(1 << 16),
                ..RunConfig::default()
            };
            let b = run(new().with_config(config.clone()));
            assert!(
                a.report.fault.is_none() && b.report.fault.is_none(),
                "{label}"
            );
            assert_observably_equal(&a, &b, Ignoring::Schedule, &label);
            assert_eq!(merged(&a), merged(&b), "{label}: trace");

            // The protocol, through all six setters; the later
            // `with_faults_cfg` policy replaces the earlier one.
            let setters = new()
                .with_backend(backend)
                .with_reliable_delivery(RelConfig::default());
            let setters = setters
                .with_faults_cfg(plan.clone(), test_rel())
                .with_checkpoints(ckpt);
            let a = run(setters.with_metrics().with_trace(1 << 16));
            let b = run(new().with_config(RunConfig {
                faults: plan.clone(),
                reliable: Some(test_rel()),
                checkpoints: Some(ckpt),
                ..config
            }));
            let (ra, rb) = (&a.report, &b.report);
            assert!(ra.fault.is_some() && rb.fault.is_some(), "{label}");
            assert!(ra.recovery.is_some() && rb.recovery.is_some(), "{label}");
            assert!(ra.metrics.full && rb.metrics.full, "{label}");
            let ignoring = match backend {
                Backend::Simulated => Ignoring::Nothing,
                Backend::Threaded { .. } => Ignoring::Damage,
            };
            assert_observably_equal(&a, &b, ignoring, &label);
        }
    });
}

/// A configuration that cannot describe a run of the machine is a typed
/// error from the one validation point — from either run loop and through
/// the driver — never a panic.
#[test]
fn invalid_configurations_are_typed_errors_on_both_backends() {
    within(THREADS_DEADLINE, || {
        let prog = stream_program();
        let coordinated = || Axis::Checkpoints(CheckpointCfg::every(50).coordinated());
        let (threads_only, both) = (
            [Backend::threaded()],
            [Backend::Simulated, Backend::threaded()],
        );
        // (the configuration, where it is invalid, a word of the reason)
        let table: [(Axis, &[Backend], &str); 4] = [
            (coordinated(), &threads_only, "coordinated"),
            (Axis::RingWords(12), &threads_only, "ring capacity 12"),
            (
                Axis::Slowdowns(vec![2, 1, 1]),
                &both,
                "3 slowdown factors for 2 processors",
            ),
            (Axis::Slowdowns(vec![1, 0]), &both, "positive"),
        ];
        for (axis, invalid_on, word) in table {
            for backend in both {
                let label = format!("{axis:?} on {backend:?}");
                let outcome = run_spmd(&prog, &at([Axis::On(backend), axis.clone()]), &[]);
                match outcome {
                    _ if !invalid_on.contains(&backend) => {
                        outcome.unwrap_or_else(|e| panic!("{label}: {e}"));
                    }
                    Err(MachineError::InvalidConfig { reason }) => {
                        assert!(reason.contains(word), "{label}: {reason}");
                    }
                    other => panic!("{label}: expected InvalidConfig, got {other:?}"),
                }
            }
        }

        // Through the driver.
        let sc = Scenario::wavefront(4).strategy(Strategy::CompileTime);
        let err = sc
            .execute(&at([threads(), coordinated()]))
            .expect_err("not on threads");
        assert!(
            matches!(err, SpmdError::Machine(MachineError::InvalidConfig { .. })),
            "{err}"
        );
    });
}

/// Integers compare as integers. 2^53 + 1 and 2^53 are one `f64`, yet
/// `2^53 + 1 == 2^53` takes the `else` branch and `for i = 2^53 + 1 to
/// 2^53` runs no iteration, on the sequential interpreter and on both
/// backends, under both resolution strategies. (An iteration of that
/// loop would write `New[1, j]` twice.)
#[test]
fn integers_beyond_2_pow_53_compare_exactly_everywhere() {
    const SRC: &str = r#"
procedure main(Old, n) {
    let New = matrix(n, n);
    for j = 1 to n do {
        for i = 9007199254740993 to 9007199254740992 do { New[1, j] = 0; }
        for i = 1 to n do {
            if 9007199254740993 == 9007199254740992 then { New[i, j] = 1; }
            else { New[i, j] = 2 + 0 * Old[i, j]; }
        }
    }
    return New;
}
"#;
    within(THREADS_DEADLINE, || {
        for strategy in [Strategy::Runtime, Strategy::CompileTime] {
            let dist = Dist::ColumnCyclic;
            let decomp = Decomposition::new(2)
                .array("New", dist.clone())
                .array("Old", dist);
            let program = pdc_lang::parse(SRC).expect("parses");
            let sc = Scenario::new("beyond 2^53", program, "main", decomp)
                .n(4)
                .strategy(strategy);
            let Value::Matrix(oracle) = sc.oracle() else {
                panic!("{sc}: the oracle returns a matrix");
            };
            for i in 1..=4 {
                for j in 1..=4 {
                    let v = oracle.borrow_mut().read(i, j).cloned();
                    assert_eq!(v, Ok(Value::Int(2)), "{sc}: oracle at ({i}, {j})");
                }
            }
            // Both backends gather the oracle's matrix, and say so alone.
            let (sim, thr) = sc.on_both(&Point::default(), Ignoring::Schedule);
            for (backend, run) in [("simulator", sim), ("threads", thr)] {
                let gathered = run.gathered.expect("gathers `New`");
                for i in 1..=4 {
                    for j in 1..=4 {
                        let v = gathered.peek(i, j).copied();
                        assert_eq!(v, Some(Scalar::Int(2)), "{sc} on {backend} at ({i}, {j})");
                    }
                }
            }
        }
    });
}
