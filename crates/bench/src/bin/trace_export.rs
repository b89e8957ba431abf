//! Export Chrome traces and critical-path breakdowns for the five
//! program versions of the paper's Figures 6/7, on both backends.
//!
//! For each (variant, backend) pair the bin runs the wavefront with
//! tracing on, writes a Perfetto-loadable `BENCH_trace_<variant>_<backend>.json`,
//! and analyzes the trace's critical path. The per-run breakdowns go to
//! `BENCH_critical_path.json` and a summary table goes to stdout.
//!
//! The bin validates its own output and exits non-zero on any failure —
//! the emitted JSON must parse with monotonic slice timestamps and
//! matched flow arrows, and on the simulator backend the critical-path
//! decomposition (compute + overheads + flight + blocked) must sum
//! exactly to the reported makespan. CI runs this at n=16, s=4.
//!
//! Usage: `cargo run --release -p pdc-bench --bin trace_export [n] [s]`
//! (defaults: n=16, s=4).

use pdc_bench::{print_table, run_wavefront_traced, Variant};
use pdc_machine::metrics::json::Json;
use pdc_machine::{analyze, chrome_trace, validate_chrome_trace, Backend, CostModel};

fn slug(v: Variant) -> &'static str {
    match v {
        Variant::RuntimeRes => "runtime_res",
        Variant::CompileTime => "compile_time",
        Variant::OptimizedI => "optimized_i",
        Variant::OptimizedII => "optimized_ii",
        Variant::OptimizedIII { .. } => "optimized_iii",
        Variant::Handwritten { .. } => "handwritten",
    }
}

fn backend_slug(b: Backend) -> &'static str {
    match b {
        Backend::Simulated => "sim",
        Backend::Threaded { .. } => "threaded",
    }
}

fn main() {
    let [n, s] = pdc_bench::args([("n", 16), ("s", 4)]);
    let cost = CostModel::ipsc2();
    let cap = 1 << 20;
    let variants = [
        Variant::RuntimeRes,
        Variant::CompileTime,
        Variant::OptimizedI,
        Variant::OptimizedII,
        Variant::OptimizedIII { blksize: 4 },
    ];

    let mut failures = 0usize;
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for v in variants {
        for backend in [Backend::Simulated, Backend::threaded()] {
            let report = run_wavefront_traced(v, n, s, cost, backend, cap);
            let makespan = report.stats.makespan().0;
            let trace = &report.trace;
            assert!(
                !trace.is_empty(),
                "{v} on {backend:?}: empty trace — the backend dropped the trace config"
            );

            let json = chrome_trace(trace, s);
            let path = format!("BENCH_trace_{}_{}.json", slug(v), backend_slug(backend));
            match validate_chrome_trace(&json) {
                Ok(st) => {
                    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
                    println!(
                        "wrote {path} ({} slices, {} flows, {} dropped)",
                        st.slices, st.flows, st.dropped
                    );
                }
                Err(e) => {
                    eprintln!("INVALID chrome trace for {v} on {backend:?}: {e}");
                    failures += 1;
                    continue;
                }
            }

            let a = analyze(trace, s);
            let cp = &a.critical_path;
            if backend == Backend::Simulated {
                if cp.total() != makespan {
                    eprintln!(
                        "{v}: critical path sums to {} but makespan is {makespan} \
                         (compute {} + send {} + recv {} + flight {} + blocked {})",
                        cp.total(),
                        cp.compute,
                        cp.send_overhead,
                        cp.recv_overhead,
                        cp.flight,
                        cp.blocked
                    );
                    failures += 1;
                }
                if !cp.exact {
                    eprintln!("{v}: critical path on the simulator should be exact");
                    failures += 1;
                }
            }

            let overhead = cp.send_overhead + cp.recv_overhead;
            rows.push((
                format!("{v} [{}]", backend_slug(backend)),
                vec![
                    makespan.to_string(),
                    cp.compute.to_string(),
                    overhead.to_string(),
                    cp.flight.to_string(),
                    cp.blocked.to_string(),
                    format!("{:.0}%", 100.0 * cp.blocked as f64 / makespan.max(1) as f64),
                ],
            ));

            records.push(Json::obj([
                ("variant", slug(v).into()),
                ("backend", backend_slug(backend).into()),
                ("n", n.into()),
                ("s", s.into()),
                ("makespan", makespan.into()),
                ("compute", cp.compute.into()),
                ("send_overhead", cp.send_overhead.into()),
                ("recv_overhead", cp.recv_overhead.into()),
                ("flight", cp.flight.into()),
                ("blocked", cp.blocked.into()),
                ("exact", cp.exact.into()),
                ("events", trace.len().into()),
                ("dropped", trace.dropped().into()),
            ]));
        }
    }
    let summary = Json::obj([("runs", Json::Arr(records))]);
    std::fs::write("BENCH_critical_path.json", format!("{summary:#}\n"))
        .expect("write BENCH_critical_path.json");
    println!("wrote BENCH_critical_path.json");

    print_table(
        &format!("critical path, {n}x{n} wavefront on {s} processors"),
        &[
            "makespan".into(),
            "compute".into(),
            "msg overhead".into(),
            "flight".into(),
            "blocked".into(),
            "blocked %".into(),
        ],
        &rows,
    );

    if failures > 0 {
        eprintln!("\n{failures} validation failure(s)");
        std::process::exit(1);
    }
}
