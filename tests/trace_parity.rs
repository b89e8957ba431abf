//! Trace parity between the two execution backends — the regression
//! test for the silently-empty-trace bug, where `SpmdMachine` on
//! `Backend::Threaded` dropped the trace configuration and returned an
//! empty trace with no error.
//!
//! Logical clocks are backend-invariant, so the *communication* events
//! of a traced run are too: the per-(src, dst, tag) multiset of send
//! and receive events (with payload sizes and timestamps) must be
//! identical across backends. Only the interleaving of independent
//! processors in the merged order may differ.

use pdc_bench::{run_wavefront_traced, Variant};
use pdc_machine::{analyze, Backend, CostModel, EventKind, RunReport, Trace};
use pdc_testkit::{within, THREADS_DEADLINE};
use std::collections::BTreeMap;

/// The backend-invariant fingerprint of a communication event:
/// (is_recv, src, dst, tag, words, completion time).
type CommKey = (bool, usize, usize, u32, usize, u64);

fn comm_multiset(trace: &Trace) -> BTreeMap<CommKey, u64> {
    let mut out = BTreeMap::new();
    for e in trace.events() {
        let key = match e.kind {
            EventKind::Send {
                dst, tag, words, ..
            } => (false, e.proc.0, dst.0, tag.0, words, e.at.0),
            EventKind::Recv {
                src, tag, words, ..
            } => (true, src.0, e.proc.0, tag.0, words, e.at.0),
            _ => continue,
        };
        *out.entry(key).or_insert(0) += 1;
    }
    out
}

fn traced(variant: Variant, n: usize, s: usize, backend: Backend) -> RunReport {
    run_wavefront_traced(variant, n, s, CostModel::ipsc2(), backend, 1 << 20)
}

#[test]
fn wavefront_traces_match_across_backends() {
    within(THREADS_DEADLINE, || {
        for s in [2usize, 4] {
            for variant in [Variant::CompileTime, Variant::OptimizedII] {
                let sim = traced(variant, 16, s, Backend::Simulated);
                let thr = traced(variant, 16, s, Backend::threaded());

                // The regression itself: the threaded backend used to return
                // an empty trace with no error.
                assert!(
                    !thr.trace.is_empty(),
                    "{variant} (s={s}): threaded backend recorded no events"
                );
                assert_eq!(thr.trace.dropped(), 0, "cap was large enough");
                assert_eq!(sim.trace.dropped(), 0, "cap was large enough");

                assert_eq!(
                    comm_multiset(&sim.trace),
                    comm_multiset(&thr.trace),
                    "{variant} (s={s}): send/recv event multisets diverge"
                );
            }
        }
    });
}

#[test]
fn critical_path_sums_to_makespan_on_simulator() {
    for s in [2usize, 4] {
        let report = traced(Variant::CompileTime, 16, s, Backend::Simulated);
        let cp = analyze(&report.trace, s).critical_path;
        assert_eq!(cp.makespan, report.stats.makespan().0);
        assert_eq!(
            cp.total(),
            cp.makespan,
            "s={s}: compute {} + send {} + recv {} + flight {} + blocked {} != makespan {}",
            cp.compute,
            cp.send_overhead,
            cp.recv_overhead,
            cp.flight,
            cp.blocked,
            cp.makespan
        );
        assert!(cp.exact, "fault-free simulator trace decomposes exactly");
    }
}

#[test]
fn untraced_runs_still_carry_an_empty_trace() {
    within(THREADS_DEADLINE, || {
        // No with_trace: the report's trace is present but disabled/empty on
        // both backends — tracing stays strictly opt-in.
        let prog = pdc_bench::build_wavefront(Variant::CompileTime, 8, 2);
        for backend in [Backend::Simulated, Backend::threaded()] {
            let mut m = pdc_spmd::run::SpmdMachine::new(&prog, CostModel::ipsc2())
                .expect("lowers")
                .with_backend(backend);
            m.preset_var("n", pdc_spmd::Scalar::Int(8));
            m.preload_array(
                "Old",
                pdc_mapping::Dist::ColumnCyclic,
                &pdc_core::driver::standard_input(8, 8),
            );
            let out = m.run().expect("runs");
            assert!(out.report.trace.is_empty(), "{backend:?}");
        }
    });
}
