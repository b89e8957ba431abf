//! Predicted == ledger == metrics == trace. Four independent accounts of
//! one run's traffic: the compiler's static prediction, the run loop's
//! per-(src, dst, tag) ledger, the metrics registry's channel tables and
//! counters, and the event trace's communication matrix. They must agree
//! channel by channel on both backends, and the logical projection of the
//! metrics and the communication events of the trace must not depend on
//! the backend. Physical metrics (parks, stalls, ring occupancy) are
//! outside `MetricsSnapshot::logical()` by construction.

mod differential;

use differential::*;
use pdc_machine::{analyze, Ctr, FlightKind};
use pdc_testkit::{within, THREADS_DEADLINE};

/// The metrics registry's channel table equals the run loop's ledger,
/// triple by triple: two independent recording paths.
fn assert_triples_match(report: &RunReport, label: &str) {
    let by_triple = report.metrics.out_by_triple();
    assert_eq!(
        by_triple.len(),
        report.pair_messages.len(),
        "{label}: channels"
    );
    for ((src, dst, tag), (frames, _)) in &by_triple {
        let key = (
            ProcId(*src as usize),
            ProcId(*dst as usize),
            Tag(*tag as u32),
        );
        let ledger = report.pair_messages.get(&key);
        assert_eq!(
            ledger,
            Some(frames),
            "{label}: frames on {src}->{dst} tag {tag}"
        );
    }
}

/// The five Fig. 6/7 translations on `s` processors, traced and fully
/// metered on both backends, which agree on everything the schedule
/// cannot change: the ledger, every clock and counter, each processor's
/// events, the logical metrics.
fn observed_on_both(s: usize) -> Vec<(Scenario, Run, Run)> {
    let observe = |sc: Scenario| {
        let (sim, thr) = sc.on_both(&at([Axis::Observed]), Ignoring::Schedule);
        (sc, sim, thr)
    };
    fig67(16, s).into_iter().map(observe).collect()
}

/// The registry's counters and channel tables against the ledger and the
/// network totals, on both backends.
#[test]
fn wavefront_variants_logical_parity() {
    within(THREADS_DEADLINE, || {
        for (sc, sim, thr) in observed_on_both(4) {
            for (run, backend) in [(&sim, "simulator"), (&thr, "threads")] {
                let (r, label) = (&run.report, format!("{sc} on {backend}"));
                let total = |c| r.metrics.total(c);
                assert!(r.metrics.full, "{label}");
                assert!(total(Ctr::Ops) > 0, "{label}: the VM counts its ops");
                assert!(total(Ctr::FramesSent) > 0, "{label}: four processors talk");
                assert_eq!(total(Ctr::FramesSent), total(Ctr::FramesRecvd), "{label}");
                assert_eq!(total(Ctr::FramesSent), r.stats.network.messages, "{label}");
                assert_eq!(total(Ctr::WordsSent), r.stats.network.words, "{label}");
                assert_triples_match(r, &label);
            }
        }
    });
}

/// The threaded backend once returned an empty trace with no error; its
/// events are the simulator's, processor by processor.
#[test]
fn wavefront_traces_match_across_backends() {
    within(THREADS_DEADLINE, || {
        for s in [2, 4] {
            for (sc, _, thr) in observed_on_both(s) {
                assert!(!thr.events().is_empty(), "{sc}: threads recorded no events");
            }
        }
    });
}

/// The critical path decomposes a fault-free simulator makespan exactly.
#[test]
fn critical_path_sums_to_makespan_on_simulator() {
    for s in [2, 4] {
        for sc in fig67(16, s) {
            let run = sc.run(&at([Axis::Observed]));
            let cp = analyze(&run.report.trace, s).critical_path;
            assert_eq!(cp.makespan, run.report.stats.makespan().0, "{sc}");
            assert_eq!(cp.total(), cp.makespan, "{sc}: {cp:?}");
            assert!(cp.exact, "{sc}");
        }
    }
}

/// The static prediction, channel by channel, against the ledger, the
/// network totals and the trace's communication matrix.
#[test]
fn predictions_are_exact_for_every_variant() {
    for s in [1, 2, 4] {
        for sc in fig67(16, s) {
            let pred = &sc.compiled().prediction;
            assert!(pred.exact, "{sc}: the model degraded: {:?}", pred.notes);
            assert!(
                pred.protocol_consistent(),
                "{sc}: predicted sends and receives disagree"
            );
            let exec = sc.execute(&at([Axis::Observed])).expect("runs");
            assert_eq!(exec.outcome.report.undelivered, 0, "{sc}");
            let check = exec.verify_predictions();
            assert!(check.trace_checked, "{sc}: the trace was not checked");
            assert!(
                check.ok(),
                "{sc}: prediction diverged:\n  {}",
                check.mismatches.join("\n  ")
            );
            assert!(check.checked_channels > 0 || exec.messages() == 0, "{sc}");
        }
    }
}

#[test]
fn prediction_totals_match_observed_counters() {
    for s in [1, 2, 4] {
        for sc in fig67(16, s) {
            let (pred, net) = (
                &sc.compiled().prediction,
                sc.run(&Point::default()).report.stats.network,
            );
            assert_eq!(
                (pred.total_messages(), pred.total_words()),
                (net.messages, net.words),
                "{sc}"
            );
        }
    }
}

#[test]
fn single_processor_predicts_silence() {
    for sc in fig67(8, 1) {
        let pred = &sc.compiled().prediction;
        assert!(pred.exact && pred.total_messages() == 0, "{sc}: {pred:?}");
    }
}

/// An unobserved run's report carries an empty trace on both backends:
/// tracing is opt-in.
#[test]
fn untraced_runs_still_carry_an_empty_trace() {
    within(THREADS_DEADLINE, || {
        let sc = Scenario::wavefront(2)
            .strategy(Strategy::CompileTime)
            .opt(OptLevel::O0);
        let (sim, thr) = sc.on_both(&Point::default(), Ignoring::Schedule);
        assert!(sim.report.trace.is_empty() && thr.report.trace.is_empty());
    });
}

/// `stats.network` counts what the transport carried — duplicates in,
/// lost frames out — so it equals the registry's wire counters on both
/// backends, whatever the fault plan does.
#[test]
fn network_stats_count_wire_frames_under_any_plan() {
    within(THREADS_DEADLINE, || {
        let sc = Scenario::wavefront(4)
            .n(16)
            .strategy(Strategy::CompileTime)
            .opt(OptLevel::O0);
        let plans = [
            ("none", FaultPlan::none()),
            ("dups", FaultPlan::seeded(1).with_dups(1000)),
            ("drops", FaultPlan::seeded(1).with_drops(200)),
        ];
        for (name, plan) in plans {
            for backend in [Backend::Simulated, Backend::threaded()] {
                let point = at([
                    Axis::On(backend),
                    Axis::Faults(plan.clone()),
                    Axis::Observed,
                ]);
                let r = sc.run(&point).report;
                let label = format!("{name} on {backend:?}");
                let net = r.stats.network;
                assert!(net.messages > 0, "{label}");
                assert_eq!(net.messages, r.metrics.total(Ctr::WireFrames), "{label}");
                assert_eq!(net.words, r.metrics.total(Ctr::WireWords), "{label}");
                let lost = r.metrics.total(Ctr::FramesLost);
                let charged: u64 = r.stats.procs.iter().map(|p| p.sends).sum();
                assert_eq!(lost > 0, name == "drops", "{label}");
                assert!(net.messages + lost >= charged, "{label}: {net:?} {lost}");
            }
        }
    });
}

/// Random straight-line programs with random owner pinnings, through the
/// driver on both backends: logical metrics and ledgers agree.
#[test]
fn random_programs_metrics_parity() {
    within(THREADS_DEADLINE, || {
        pdc_testkit::cases(24, "random_programs_metrics_parity", |rng| {
            let nprocs = rng.range_usize(1, 6);
            let (program, src, _, maps) = random_scalar_program(rng, 16);
            let strategy = if rng.bool() {
                Strategy::Runtime
            } else {
                Strategy::CompileTime
            };
            let sc = scalar_scenario(program, &maps, nprocs, strategy);
            let (sim, thr) = sc.on_both(&at([Axis::Observed]), Ignoring::Schedule);
            assert!(sim.report.metrics.full && thr.report.metrics.full);
            assert_triples_match(&sim.report, &format!("simulator on\n{src}"));
            assert_triples_match(&thr.report, &format!("threads on\n{src}"));
        });
    });
}

/// Two processes that deadlock after one exchange: P0 sends, then both
/// block on receives no one will ever satisfy.
#[derive(Default)]
struct Cyclic {
    sent: bool,
    got: bool,
}

impl Process for Cyclic {
    fn step(&mut self, f: &mut dyn Fabric, me: ProcId) -> Result<Step, MachineError> {
        // What this processor waits for next: P0 sends first and then
        // waits on a tag nobody sends; P1 takes that message and then does
        // the same.
        let (src, tag) = if me.0 == 0 {
            if !self.sent {
                self.sent = true;
                f.send_ref(me, ProcId(1), Tag(1), &[7, 8]);
                return Ok(Step::Ran);
            }
            (ProcId(1), Tag(9))
        } else if !self.got {
            (ProcId(0), Tag(1))
        } else {
            (ProcId(0), Tag(9))
        };
        if !f.try_recv_into(me, src, tag, &mut Vec::new()) {
            return Ok(Step::BlockedOnRecv { src, tag });
        }
        if tag == Tag(9) {
            return Ok(Step::Done);
        }
        self.got = true;
        Ok(Step::Ran)
    }
}

/// The flight recorder is always on: even with full metrics off, a
/// forced deadlock's report carries every processor's recent history.
#[test]
fn deadlock_report_has_nonvacuous_flight_recorder() {
    within(THREADS_DEADLINE, || {
        let mut procs = vec![Cyclic::default(), Cyclic::default()];
        let recv_timeout = Duration::from_millis(50);
        let config = at([Axis::On(Backend::Threaded { recv_timeout })]).config;
        let (report, err) =
            ThreadedRunner::with_config(CostModel::ipsc2(), &config).run_with_report(&mut procs);
        let err = err.expect("the cyclic wait must fail");
        assert!(
            matches!(
                err,
                MachineError::RecvTimeout { .. } | MachineError::Deadlock { .. }
            ),
            "expected a deadlock-shaped error, got {err}"
        );
        // Full metrics were never requested: flight-only mode.
        assert!(!report.metrics.full);
        assert_eq!(report.metrics.total(Ctr::FramesSent), 0);
        // ...but the recorder captured the exchange that *did* happen.
        for (p, pm) in report.metrics.procs.iter().enumerate() {
            assert!(pm.flight_recorded > 0, "P{p}: empty flight recorder");
        }
        let recorded = |snap: &pdc_machine::MetricsSnapshot,
                        p: usize,
                        kind,
                        peer: Option<u64>,
                        words: Option<u64>| {
            snap.procs[p].flight.iter().any(|e| {
                e.kind == kind
                    && peer.is_none_or(|q| e.peer == Some(q))
                    && words.is_none_or(|w| e.value == w)
            })
        };
        assert!(
            recorded(&report.metrics, 0, FlightKind::Send, Some(1), Some(2)),
            "P0's 2-word send"
        );
        assert!(
            recorded(&report.metrics, 1, FlightKind::Recv, Some(0), None),
            "P1's receive"
        );
        // The same deadlock on the simulator: flight events survive there
        // too.
        let mut machine = Machine::new(2, CostModel::ipsc2());
        let (mut p0, mut p1) = (Cyclic::default(), Cyclic::default());
        let mut procs: Vec<&mut dyn Process> = vec![&mut p0, &mut p1];
        let err = Scheduler::new()
            .run(&mut machine, &mut procs)
            .expect_err("the simulator deadlocks");
        assert!(matches!(err, MachineError::Deadlock { .. }), "got {err}");
        let snap = machine.metrics_snapshot();
        assert!(recorded(&snap, 0, FlightKind::Send, None, None));
        assert!(recorded(&snap, 1, FlightKind::Recv, None, None));
    });
}
