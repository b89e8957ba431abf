//! Backend metrics parity: the *logical* projection of the runtime
//! metrics registry — frames, words, scratch-arena reuse, the frame-size
//! histogram, and the per-channel traffic tables — must be identical
//! across the deterministic simulator and the threaded backend, because
//! every logical counter is recorded by backend-independent code on a
//! deterministic event sequence. Physical metrics (parks, stalls, ring
//! occupancy) are excluded by `MetricsSnapshot::logical()` by
//! construction.
//!
//! Also pins down the always-on flight recorder: a forced deadlock must
//! still produce a report whose per-processor event rings are
//! non-vacuous, since that is the entire point of a flight recorder.

use pdc_bench::{build_wavefront, Variant};
use pdc_core::driver::{self, Inputs, Job, Strategy};
use pdc_machine::{
    Backend, CostModel, Ctr, Fabric, FaultPlan, FlightKind, MachineError, MetricsMode, ProcId,
    Process, RelConfig, RunConfig, RunReport, Step, Tag, ThreadedRunner,
};
use pdc_mapping::{Decomposition, ScalarMap};
use pdc_spmd::ir::SpmdProgram;
use pdc_spmd::run::SpmdMachine;
use pdc_spmd::Scalar;
use pdc_testkit::{cases, within, Rng, THREADS_DEADLINE};
use std::time::Duration;

/// Run a wavefront program with full metrics on the given backend.
fn run_wavefront_metrics(prog: &SpmdProgram, n: usize, backend: Backend) -> RunReport {
    run_wavefront_faulty(prog, n, backend, FaultPlan::none())
}

/// Run a wavefront program with full metrics on the given backend, under
/// `plan` (the raw fabric when it injects nothing).
fn run_wavefront_faulty(
    prog: &SpmdProgram,
    n: usize,
    backend: Backend,
    plan: FaultPlan,
) -> RunReport {
    let mut m = SpmdMachine::new(prog, CostModel::ipsc2())
        .expect("program lowers")
        .with_backend(backend)
        .with_faults_cfg(plan, RelConfig::default())
        .with_metrics();
    m.preset_var("n", Scalar::Int(n as i64));
    m.preload_array(
        "Old",
        pdc_mapping::Dist::ColumnCyclic,
        &driver::standard_input(n, n),
    );
    m.run()
        .unwrap_or_else(|e| panic!("{backend:?}: {e}"))
        .report
}

/// The metrics registry's per-channel table must agree triple-by-triple
/// with the scheduler's own `pair_messages` ledger — two fully
/// independent recording paths.
fn assert_triples_match(report: &RunReport, label: &str) {
    let by_triple = report.metrics.out_by_triple();
    assert_eq!(
        by_triple.len(),
        report.pair_messages.len(),
        "{label}: metric channels vs scheduler channels"
    );
    for ((src, dst, tag), (frames, _words)) in &by_triple {
        assert_eq!(
            report.pair_messages.get(&(
                ProcId(*src as usize),
                ProcId(*dst as usize),
                Tag(*tag as u32)
            )),
            Some(frames),
            "{label}: frame count for channel {src}->{dst} tag {tag}"
        );
    }
}

/// The five Fig. 6/7 compiler variants, simulator vs threads: identical
/// logical counters, histograms, and channel tables, and both agreeing
/// with the scheduler's message ledger and the network totals.
#[test]
fn wavefront_variants_logical_parity() {
    within(THREADS_DEADLINE, || {
        let (n, s) = (16, 4);
        for variant in [
            Variant::RuntimeRes,
            Variant::CompileTime,
            Variant::OptimizedI,
            Variant::OptimizedII,
            Variant::OptimizedIII { blksize: 4 },
        ] {
            let prog = build_wavefront(variant, n, s);
            let sim = run_wavefront_metrics(&prog, n, Backend::Simulated);
            let thr = run_wavefront_metrics(&prog, n, Backend::threaded());
            assert!(
                sim.metrics.full,
                "{variant}: simulator records full metrics"
            );
            assert!(thr.metrics.full, "{variant}: threads record full metrics");
            assert_eq!(
                sim.metrics.logical(),
                thr.metrics.logical(),
                "{variant}: logical metrics diverge across backends"
            );
            assert!(
                sim.metrics.total(Ctr::FramesSent) > 0,
                "{variant}: a 4-processor wavefront must communicate"
            );
            // Each send has a matching receive, and the registry agrees with
            // the machine's own traffic statistics.
            assert_eq!(
                sim.metrics.total(Ctr::FramesSent),
                sim.metrics.total(Ctr::FramesRecvd),
                "{variant}: frames sent vs received"
            );
            assert_eq!(
                sim.metrics.total(Ctr::FramesSent),
                sim.stats.network.messages,
                "{variant}: registry vs network message count"
            );
            assert_eq!(
                sim.metrics.total(Ctr::WordsSent),
                sim.stats.network.words,
                "{variant}: registry vs network word count"
            );
            assert_triples_match(&sim, &format!("{variant} (sim)"));
            assert_triples_match(&thr, &format!("{variant} (threaded)"));
            // The VM's ops counter is logical too: both backends execute the
            // same instruction sequence.
            assert!(sim.metrics.total(Ctr::Ops) > 0, "{variant}: ops recorded");
        }
    });
}

/// `stats.network` counts what was handed to the transport — every frame
/// the wire carried, duplicates included and lost frames excluded — so it
/// equals the registry's wire counters on both backends, whatever the
/// fault plan does.
#[test]
fn network_stats_count_wire_frames_under_any_plan() {
    within(THREADS_DEADLINE, || {
        let (n, s) = (16, 4);
        let prog = build_wavefront(Variant::CompileTime, n, s);
        let plans = [
            ("none", FaultPlan::none()),
            ("dups", FaultPlan::seeded(1).with_dups(1000)),
            ("drops", FaultPlan::seeded(1).with_drops(200)),
        ];
        for (name, plan) in plans {
            for backend in [Backend::Simulated, Backend::threaded()] {
                let r = run_wavefront_faulty(&prog, n, backend, plan.clone());
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

/// A recipe for one `let` statement of a random straight-line program
/// (the `random_programs.rs` generator, trimmed to what metrics parity
/// needs: random operand references and random owner pinning).
#[derive(Debug, Clone)]
struct StmtSpec {
    a: usize,
    b: usize,
    op: u8,
    map: Option<usize>,
}

fn random_specs(rng: &mut Rng) -> Vec<StmtSpec> {
    let n = rng.range_usize(1, 12);
    (0..n)
        .map(|_| StmtSpec {
            a: rng.range_usize(0, 8),
            b: rng.range_usize(0, 8),
            op: rng.range_usize(0, 4) as u8,
            map: if rng.bool() {
                Some(rng.range_usize(0, 16))
            } else {
                None
            },
        })
        .collect()
}

fn build_source(specs: &[StmtSpec]) -> String {
    let mut src = String::from("procedure main() {\n    let x0 = 3;\n    let x1 = 10;\n");
    let mut count = 2;
    for (i, s) in specs.iter().enumerate() {
        let idx = i + 2;
        let a = s.a % count;
        let b = s.b % count;
        let expr = match s.op {
            0 => format!("x{a} + x{b}"),
            1 => format!("x{a} - x{b}"),
            2 => format!("min(x{a}, x{b})"),
            _ => format!("max(x{a}, x{b})"),
        };
        src.push_str(&format!("    let x{idx} = {expr};\n"));
        count += 1;
    }
    src.push_str(&format!("    return x{};\n}}\n", count - 1));
    src
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

/// Random straight-line programs with random owner pinnings, run through
/// the full driver (`Job::with_run` → `execute_on`) on both
/// backends: the logical snapshots and the scheduler ledger must agree.
#[test]
fn random_programs_metrics_parity() {
    within(THREADS_DEADLINE, || {
        cases(24, "random_programs_metrics_parity", |rng| {
            let nprocs = rng.range_usize(1, 6);
            let specs = random_specs(rng);
            let src = build_source(&specs);
            let program = pdc_lang::parse(&src).expect("generated source parses");
            let d = decomposition_for(&specs, nprocs);
            let strategy = if rng.bool() {
                Strategy::Runtime
            } else {
                Strategy::CompileTime
            };
            let job = Job::new(&program, "main", d).with_run(RunConfig {
                metrics: MetricsMode::Full,
                ..RunConfig::default()
            });
            let compiled = driver::compile(&job, strategy)
                .unwrap_or_else(|e| panic!("{strategy:?} failed on:\n{src}\n{e}"));
            let sim = driver::execute_on(
                &compiled,
                &Inputs::new(),
                CostModel::ipsc2(),
                Backend::Simulated,
            )
            .unwrap_or_else(|e| panic!("sim run failed on:\n{src}\n{e}"));
            let thr = driver::execute_on(
                &compiled,
                &Inputs::new(),
                CostModel::ipsc2(),
                Backend::threaded(),
            )
            .unwrap_or_else(|e| panic!("threaded run failed on:\n{src}\n{e}"));
            assert!(sim.metrics().full && thr.metrics().full);
            assert_eq!(
                sim.metrics().logical(),
                thr.metrics().logical(),
                "logical metrics diverge on:\n{src}"
            );
            assert_triples_match(&sim.outcome.report, "sim");
            assert_triples_match(&thr.outcome.report, "threaded");
        });
    });
}

/// Two processes that deadlock after one successful exchange: P0 sends,
/// then both block on receives no one will ever satisfy.
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

/// The flight recorder is always on — even with full metrics off, a
/// forced deadlock's report carries the recent event history of every
/// processor, which is exactly the post-mortem a deadlock needs.
#[test]
fn deadlock_report_has_nonvacuous_flight_recorder() {
    within(THREADS_DEADLINE, || {
        let mut procs = vec![Cyclic::default(), Cyclic::default()];
        let config = RunConfig {
            backend: Backend::Threaded {
                recv_timeout: Duration::from_millis(50),
            },
            ..RunConfig::default()
        };
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
        assert!(
            report.metrics.procs[0]
                .flight
                .iter()
                .any(|e| e.kind == FlightKind::Send && e.peer == Some(1) && e.value == 2),
            "P0's send of 2 words is on record"
        );
        assert!(
            report.metrics.procs[1]
                .flight
                .iter()
                .any(|e| e.kind == FlightKind::Recv && e.peer == Some(0)),
            "P1's receive is on record"
        );
        // The same deadlock on the simulator, via the wavefront-independent
        // scheduler path: flight events survive there too.
        let mut machine = pdc_machine::Machine::new(2, CostModel::ipsc2());
        let (mut p0, mut p1) = (Cyclic::default(), Cyclic::default());
        let mut procs: Vec<&mut dyn Process> = vec![&mut p0, &mut p1];
        let err = pdc_machine::Scheduler::new()
            .run(&mut machine, &mut procs)
            .expect_err("the simulator deadlocks");
        assert!(matches!(err, MachineError::Deadlock { .. }), "got {err}");
        let snap = machine.metrics_snapshot();
        assert!(snap.procs[0]
            .flight
            .iter()
            .any(|e| e.kind == FlightKind::Send));
        assert!(snap.procs[1]
            .flight
            .iter()
            .any(|e| e.kind == FlightKind::Recv));
    });
}
