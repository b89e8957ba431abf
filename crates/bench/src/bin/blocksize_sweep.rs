//! §4's open question: "the determination of the block size to obtain
//! the best trade-off between minimizing message traffic and exploiting
//! parallelism" — and "the best block size depends on the size of the
//! matrix" (§2.3).
//!
//! Sweeps `blksize` for Optimized III at several grid sizes.
//!
//! Usage: `cargo run --release -p pdc-bench --bin blocksize_sweep [s]`

use pdc_bench::{print_table, run_wavefront, Variant};
use pdc_machine::CostModel;

fn main() {
    let [s] = pdc_bench::args([("s", 16)]);
    let cost = CostModel::ipsc2();
    let blocks = [1usize, 2, 4, 8, 16, 32, 64];
    let col_names: Vec<String> = blocks.iter().map(|b| format!("b={b}")).collect();
    let mut rows = Vec::new();
    for n in [64usize, 128, 256] {
        let times: Vec<String> = blocks
            .iter()
            .map(|&b| {
                run_wavefront(Variant::OptimizedIII { blksize: b }, n, s, cost, false)
                    .makespan
                    .to_string()
            })
            .collect();
        rows.push((format!("n={n} (cycles)"), times));
        let best = blocks
            .iter()
            .min_by_key(|&&b| {
                run_wavefront(Variant::OptimizedIII { blksize: b }, n, s, cost, false).makespan
            })
            .unwrap();
        rows.push((format!("n={n} best"), vec![format!("b={best}"); 1]));
    }
    print_table(
        &format!("Block size sweep — Optimized III on {s} processors"),
        &col_names,
        &rows,
    );
    println!(
        "\nPaper shape check: time is U-shaped in the block size (b=1 pays\n\
         message start-up per element; huge b serializes the wavefront),\n\
         and the optimum grows with the matrix."
    );
}
