//! Footnote 3: message counts of the run-time resolution and handwritten
//! programs — "31,752 messages for the run-time resolution code versus
//! 2142 messages for the handwritten code".
//!
//! Usage: `cargo run --release -p pdc-bench --bin msg_table [n] [s]`

use pdc_bench::{print_table, run_wavefront, Variant};
use pdc_machine::CostModel;

fn main() {
    let [n, s] = pdc_bench::args([("n", 128), ("s", 32)]);
    let cost = CostModel::zero(); // counts only
    let variants = [
        Variant::RuntimeRes,
        Variant::CompileTime,
        Variant::OptimizedI,
        Variant::OptimizedII,
        Variant::OptimizedIII { blksize: 8 },
        Variant::Handwritten { blksize: 8 },
    ];
    let col_names = vec!["messages".to_string(), "words".to_string()];
    let mut rows = Vec::new();
    for v in variants {
        let m = run_wavefront(v, n, s, cost, false);
        rows.push((
            v.to_string(),
            vec![m.messages.to_string(), m.words.to_string()],
        ));
    }
    print_table(
        &format!("Message counts — {n}x{n} grid on {s} processors"),
        &col_names,
        &rows,
    );
    println!(
        "\nPaper anchors (footnote 3, n=128): run-time resolution 31,752\n\
         (= 2 remote operands x 126^2 interior points); handwritten 2,142."
    );
}
