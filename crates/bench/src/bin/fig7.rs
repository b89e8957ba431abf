//! Figure 7: effect of the message-passing optimizations.
//!
//! Prints simulated execution time against the number of processors for
//! Optimized I (message combining), Optimized II (pipelining), Optimized
//! III (blocking), and the handwritten program.
//!
//! Usage: `cargo run --release -p pdc-bench --bin fig7 [n]`

use pdc_bench::{print_table, processor_sweep, run_wavefront, Variant};
use pdc_machine::CostModel;

fn main() {
    let [n] = pdc_bench::args([("n", 128)]);
    let cost = CostModel::ipsc2();
    let sweep = processor_sweep(n);
    let variants = [
        Variant::OptimizedI,
        Variant::OptimizedII,
        Variant::OptimizedIII { blksize: 8 },
        Variant::Handwritten { blksize: 8 },
    ];
    let col_names: Vec<String> = sweep.iter().map(|s| format!("S={s}")).collect();
    let mut rows = Vec::new();
    for v in variants {
        let ms: Vec<_> = sweep
            .iter()
            .map(|&s| run_wavefront(v, n, s, cost, false))
            .collect();
        rows.push((
            format!("{v} (cycles)"),
            ms.iter().map(|m| m.makespan.to_string()).collect(),
        ));
        rows.push((
            format!("{v} (messages)"),
            ms.iter().map(|m| m.messages.to_string()).collect(),
        ));
    }
    print_table(
        &format!("Figure 7 — {n}x{n} integer grid, iPSC/2 cost model"),
        &col_names,
        &rows,
    );
    println!(
        "\nPaper shape check: pipelining (II) buys parallelism over pure\n\
         combining (I); blocking (III) keeps the parallelism while cutting\n\
         messages and is the best compiled version, close to handwritten."
    );
}
