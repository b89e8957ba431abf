//! Figure 6: effect of compile-time and run-time resolution.
//!
//! Prints simulated execution time (cycles) against the number of
//! processors for the run-time resolution, compile-time resolution,
//! Optimized I, and handwritten versions of the 128×128 wavefront
//! program — the four curves of the paper's Figure 6.
//!
//! Usage: `cargo run --release -p pdc-bench --bin fig6 [n]`

use pdc_bench::{print_table, processor_sweep, run_wavefront, speedups, Variant};
use pdc_machine::CostModel;

fn main() {
    let [n] = pdc_bench::args([("n", 128)]);
    let cost = CostModel::ipsc2();
    let sweep = processor_sweep(n);
    let variants = [
        Variant::RuntimeRes,
        Variant::CompileTime,
        Variant::OptimizedI,
        Variant::Handwritten { blksize: 8 },
    ];
    let col_names: Vec<String> = sweep.iter().map(|s| format!("S={s}")).collect();
    let mut rows = Vec::new();
    let mut base = None;
    for v in variants {
        let times: Vec<u64> = sweep
            .iter()
            .map(|&s| run_wavefront(v, n, s, cost, false).makespan)
            .collect();
        if v == Variant::CompileTime {
            base = Some(times[0]);
        }
        rows.push((
            format!("{v} (cycles)"),
            times.iter().map(|t| t.to_string()).collect(),
        ));
        rows.push((format!("{v} (rel S=1)"), {
            let t0 = times[0];
            times
                .iter()
                .map(|t| format!("{:.2}", *t as f64 / t0 as f64))
                .collect()
        }));
    }
    if let Some(base) = base {
        rows.push(("speedup of handwritten vs 1-proc compile-time".into(), {
            let times: Vec<u64> = sweep
                .iter()
                .map(|&s| {
                    run_wavefront(Variant::Handwritten { blksize: 8 }, n, s, cost, false).makespan
                })
                .collect();
            speedups(base, &times)
        }));
    }
    print_table(
        &format!("Figure 6 — {n}x{n} integer grid, iPSC/2 cost model"),
        &col_names,
        &rows,
    );
    println!(
        "\nPaper shape check: run-time and compile-time curves are flat (no\n\
         parallelism); Optimized I improves but stays flat; the handwritten\n\
         program scales with S."
    );
}
