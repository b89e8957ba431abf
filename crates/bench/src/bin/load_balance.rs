//! §5.4 load balancing: *"Processes may be shuffled from overloaded to
//! underloaded nodes without slowing their execution if the data
//! associated with a process is moved along with the code."*
//!
//! We simulate the situation that motivates the section — an imbalanced
//! machine — by making one processor several times slower than the rest,
//! and implement the remedy the paper proposes: move work *and its data*
//! by re-assigning columns with a weighted table
//! ([`Dist::column_weighted`]). The table mapping is opaque to the
//! mapping-equation solver, so this experiment also exercises the
//! compiler's *inconclusive* path end to end: all ownership tests appear
//! as run-time guards.
//!
//! Usage: `cargo run --release -p pdc-bench --bin load_balance [n]`

use pdc_core::driver::{self, Inputs, Job, Strategy};
use pdc_core::programs;
use pdc_machine::{CostModel, RunConfig};
use pdc_mapping::{Decomposition, Dist};
use pdc_spmd::run::SpmdMachine;
use pdc_spmd::Scalar;

fn run(label: &str, dist: Dist, slowdowns: Vec<u64>, n: usize) {
    let s = slowdowns.len();
    let program = programs::jacobi();
    let decomp = Decomposition::new(s)
        .array("New", dist.clone())
        .array("Old", dist.clone());
    let mut job = Job::new(&program, "jacobi", decomp).with_const("n", n as i64);
    job.extent_overrides.insert("Old".into(), (n, n));
    let compiled = driver::compile(&job, Strategy::CompileTime).expect("compiles");
    let mut m = SpmdMachine::new(&compiled.spmd, CostModel::ipsc2())
        .expect("lowers")
        .with_config(RunConfig {
            slowdowns,
            ..RunConfig::default()
        });
    m.preset_var("n", Scalar::Int(n as i64));
    m.preload_array("Old", dist, &driver::standard_input(n, n));
    let out = m.run().expect("runs");
    let gathered = m.gather("New").expect("gathers");
    let inputs = Inputs::new()
        .scalar("n", Scalar::Int(n as i64))
        .array("Old", driver::standard_input(n, n));
    let seq = driver::run_sequential(&program, "jacobi", &inputs).expect("sequential");
    let verified = driver::first_mismatch(&gathered, &seq).is_none();
    println!(
        "{label:<34} {:>12} cycles   imbalance {:>5.2}   verified: {verified}",
        out.report.stats.makespan().0,
        out.report.stats.imbalance(),
    );
    assert!(verified, "{label} computed a wrong answer");
}

fn main() {
    let [n] = pdc_bench::args([("n", 48)]);
    // P0 is 4x slower than its three peers.
    let slowdowns = vec![4u64, 1, 1, 1];
    println!(
        "Load balancing (§5.4) — Jacobi on a {n}x{n} grid, 4 processors,\n\
         P0 running 4x slower than the others\n"
    );
    run(
        "equal columns (column-cyclic)",
        Dist::ColumnCyclic,
        slowdowns.clone(),
        n,
    );
    run(
        "weighted columns (1:4:4:4)",
        Dist::column_weighted(&[1, 4, 4, 4]),
        slowdowns.clone(),
        n,
    );
    run(
        "balanced machine, equal columns",
        Dist::ColumnCyclic,
        vec![1, 1, 1, 1],
        n,
    );
    println!(
        "\nShape check: on the imbalanced machine the slow processor gates\n\
         the equal decomposition; re-assigning columns in proportion to\n\
         speed (data moving with its work) recovers most of the loss."
    );
}
