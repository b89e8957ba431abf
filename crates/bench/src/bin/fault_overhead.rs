//! The reliability tax: what sequence numbers, acks, and retransmission
//! timers cost on the Jacobi kernel.
//!
//! Three configurations of the same compiled program on the simulator:
//!
//! * **raw** — the vanilla fabric, no reliability layer at all;
//! * **reliable** — the full protocol (seq words, acks, timers) forced on
//!   with an empty fault plan, so every cycle of difference is pure
//!   protocol overhead;
//! * **lossy** — a seeded drop/dup/delay plan, showing what recovery
//!   costs on top of the protocol floor.
//!
//! Prints a table and writes `BENCH_fault_overhead.json` to the current
//! directory so overhead trajectories can be tracked across commits.
//!
//! Usage: `cargo run --release -p pdc-bench --bin fault_overhead [n]`

use pdc_bench::print_table;
use pdc_core::driver::{self, Inputs, Job, Strategy};
use pdc_core::programs;
use pdc_machine::{CostModel, FaultPlan, RelConfig};
use pdc_mapping::{Decomposition, Dist};
use pdc_spmd::run::SpmdMachine;
use pdc_spmd::Scalar;

struct Row {
    config: &'static str,
    makespan: u64,
    messages: u64,
    words: u64,
    retransmits: u64,
    acks: u64,
}

fn measure(
    n: usize,
    nprocs: usize,
    mode: impl Fn(SpmdMachine) -> SpmdMachine,
    config: &'static str,
) -> Row {
    let program = programs::jacobi();
    let decomp = Decomposition::new(nprocs)
        .array("New", Dist::ColumnCyclic)
        .array("Old", Dist::ColumnCyclic);
    let mut job = Job::new(&program, "jacobi", decomp).with_const("n", n as i64);
    job.extent_overrides.insert("Old".to_owned(), (n, n));
    let compiled = driver::compile(&job, Strategy::CompileTime).expect("jacobi compiles");
    let mut m = mode(SpmdMachine::new(&compiled.spmd, CostModel::ipsc2()).expect("lowers"));
    m.preset_var("n", Scalar::Int(n as i64));
    m.preload_array("Old", Dist::ColumnCyclic, &driver::standard_input(n, n));
    let out = m.run().unwrap_or_else(|e| panic!("{config}: {e}"));
    assert_eq!(out.report.undelivered, 0, "{config}: undelivered");

    // Verify outputs against the sequential interpreter: a bench that
    // computes the wrong answer measures nothing.
    let gathered = m.gather("New").expect("New exists");
    let inputs = Inputs::new()
        .scalar("n", Scalar::Int(n as i64))
        .array("Old", driver::standard_input(n, n));
    let seq = driver::run_sequential(&program, "jacobi", &inputs).expect("sequential");
    assert_eq!(
        driver::first_mismatch(&gathered, &seq),
        None,
        "{config}: wrong output"
    );

    let fr = out.report.fault.unwrap_or_default();
    Row {
        config,
        makespan: out.report.stats.makespan().0,
        messages: out.report.stats.network.messages,
        words: out.report.stats.network.words,
        retransmits: fr.retransmits,
        acks: fr.acks_sent,
    }
}

fn main() {
    let [n] = pdc_bench::args([("n", 24)]);
    let nprocs = 4usize;
    let cfg = RelConfig::default();
    let lossy = FaultPlan::seeded(0xBE2C)
        .with_drops(200)
        .with_dups(100)
        .with_delays(100, 10_000)
        .with_fault_budget(4);

    let rows = [
        measure(n, nprocs, |m| m, "raw"),
        measure(
            n,
            nprocs,
            move |m| m.with_reliable_delivery(cfg),
            "reliable",
        ),
        measure(
            n,
            nprocs,
            {
                let lossy = lossy.clone();
                move |m| m.with_faults_cfg(lossy.clone(), cfg)
            },
            "lossy",
        ),
    ];

    let base = rows[0].makespan;
    let col_names: Vec<String> = ["makespan", "vs raw", "messages", "words", "rexmit", "acks"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let table: Vec<(String, Vec<String>)> = rows
        .iter()
        .map(|r| {
            (
                r.config.to_string(),
                vec![
                    r.makespan.to_string(),
                    format!("{:.3}x", r.makespan as f64 / base as f64),
                    r.messages.to_string(),
                    r.words.to_string(),
                    r.retransmits.to_string(),
                    r.acks.to_string(),
                ],
            )
        })
        .collect();
    print_table(
        &format!("Reliability tax — {n}x{n} Jacobi on {nprocs} processors, iPSC/2 cost model"),
        &col_names,
        &table,
    );

    // Machine-readable trajectory point.
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"bench\": \"fault_overhead\",\n  \"n\": {n},\n  \"nprocs\": {nprocs},\n  \"configs\": [\n"
    ));
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"config\": \"{}\", \"makespan\": {}, \"messages\": {}, \"words\": {}, \
             \"retransmits\": {}, \"acks_sent\": {}, \"overhead_vs_raw\": {:.4}}}{}\n",
            r.config,
            r.makespan,
            r.messages,
            r.words,
            r.retransmits,
            r.acks,
            r.makespan as f64 / base as f64,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_fault_overhead.json", &json).expect("write BENCH_fault_overhead.json");
    println!("\nwrote BENCH_fault_overhead.json");
}
