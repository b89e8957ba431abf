//! §4's closing remark: a source program whose loops run against the
//! distribution ("if the sequential version … had had the i and j-loops
//! reversed") shows no wavefront parallelism; loop interchange restores
//! it.
//!
//! Usage: `cargo run --release -p pdc-bench --bin interchange [n] [s]`

use pdc_core::driver::{self, Inputs, Job, Strategy};
use pdc_core::programs;
use pdc_machine::CostModel;
use pdc_opt::{interchange, optimize, OptLevel};
use pdc_spmd::run::SpmdMachine;
use pdc_spmd::Scalar;

fn run(program: &pdc_lang::Program, n: usize, s: usize) -> (u64, u64, bool) {
    let job = Job::new(
        program,
        "gs_iteration",
        programs::wavefront_decomposition(s),
    )
    .with_const("n", n as i64);
    let compiled = driver::compile(&job, Strategy::CompileTime).expect("compiles");
    let (opt, _) = optimize(&compiled.spmd, OptLevel::O2);
    let mut m = SpmdMachine::new(&opt, CostModel::ipsc2()).expect("lowers");
    m.preset_var("n", Scalar::Int(n as i64));
    m.preload_array(
        "Old",
        pdc_mapping::Dist::ColumnCyclic,
        &driver::standard_input(n, n),
    );
    let out = m.run().expect("runs");
    let gathered = m.gather("New").expect("New exists");
    let inputs = Inputs::new()
        .scalar("n", Scalar::Int(n as i64))
        .array("Old", driver::standard_input(n, n));
    let seq = driver::run_sequential(&programs::gauss_seidel(), "gs_iteration", &inputs)
        .expect("sequential");
    (
        out.report.stats.makespan().0,
        out.report.stats.network.messages,
        driver::first_mismatch(&gathered, &seq).is_none(),
    )
}

fn main() {
    let [n, s] = pdc_bench::args([("n", 64), ("s", 8)]);
    let reversed = programs::gauss_seidel_interchanged();
    let (fixed, swapped) = interchange(&reversed, &mut pdc_report::RemarkSink::new());
    let normal = programs::gauss_seidel();

    let (t_rev, m_rev, ok_rev) = run(&reversed, n, s);
    let (t_fix, m_fix, ok_fix) = run(&fixed, n, s);
    let (t_norm, m_norm, ok_norm) = run(&normal, n, s);

    println!("Loop interchange — {n}x{n} grid on {s} processors (Optimized II)");
    println!("----------------------------------------------------------------");
    println!("reversed loops        : {t_rev:>12} cycles  {m_rev:>8} msgs  verified={ok_rev}");
    println!(
        "after interchange ({swapped} swap): {t_fix:>6} cycles  {m_fix:>8} msgs  verified={ok_fix}"
    );
    println!("normal order          : {t_norm:>12} cycles  {m_norm:>8} msgs  verified={ok_norm}");
    println!(
        "\nPaper shape check: the reversed program runs far slower at the\n\
         same message count; interchange recovers the normal-order time."
    );
}
