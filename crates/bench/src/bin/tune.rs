//! Self-validating sweep of the automatic decomposition search.
//!
//! For each paper program the bin runs `Job::with_auto_decomposition()`
//! (no pinned optimization level, so the search also sweeps the
//! optimization ladder and strip-mine block sizes), then *re-executes
//! every viable candidate on the simulator* and checks the tuner's
//! central claim end to end:
//!
//! 1. every viable candidate's predicted makespan equals its measured
//!    simulator makespan, cycle for cycle;
//! 2. therefore the predicted-best candidate is the measured-best
//!    candidate (the winner's measured makespan is the minimum over all
//!    viable candidates);
//! 3. the search covered at least 50 candidates per program and took
//!    under one second per program.
//!
//! Results go to stdout and `BENCH_tune.json`; the bin exits non-zero on
//! any violation.
//!
//! Usage: `cargo run --release -p pdc-bench --bin tune`

use pdc_bench::print_table;
use pdc_core::driver::{self, Inputs, Job, Strategy};
use pdc_core::programs;
use pdc_machine::metrics::json::Json;
use pdc_machine::{Backend, CostModel};
use pdc_spmd::Scalar;
use std::time::Instant;

struct Sweep {
    name: &'static str,
    program: pdc_lang::Program,
    entry: &'static str,
    strategy: Strategy,
    n: usize,
    s: usize,
    cost: CostModel,
}

fn sweeps() -> Vec<Sweep> {
    vec![
        Sweep {
            name: "wavefront/compile_time",
            program: programs::gauss_seidel(),
            entry: "gs_iteration",
            strategy: Strategy::CompileTime,
            n: 16,
            s: 4,
            cost: CostModel::ipsc2(),
        },
        Sweep {
            name: "wavefront/runtime_res",
            program: programs::gauss_seidel(),
            entry: "gs_iteration",
            strategy: Strategy::Runtime,
            n: 16,
            s: 4,
            cost: CostModel::ipsc2(),
        },
        Sweep {
            name: "jacobi/compile_time",
            program: programs::jacobi(),
            entry: "jacobi",
            strategy: Strategy::CompileTime,
            n: 16,
            s: 4,
            cost: CostModel::ipsc2(),
        },
        // Cheap communication flips the trade-off: here the search must
        // abandon the serial fallback and rediscover the paper's
        // column-cyclic wavefront decomposition (strip-mined, b=8).
        Sweep {
            name: "wavefront/shared_memory",
            program: programs::gauss_seidel(),
            entry: "gs_iteration",
            strategy: Strategy::CompileTime,
            n: 32,
            s: 4,
            cost: CostModel::shared_memory(),
        },
    ]
}

struct Outcome {
    name: &'static str,
    n: usize,
    candidates: usize,
    viable: usize,
    search_secs: f64,
    winner: String,
    predicted: u64,
    measured: u64,
    best_measured: u64,
    failures: usize,
}

fn run_sweep(sw: &Sweep) -> Outcome {
    let mut failures = 0usize;
    let job = Job::new(
        &sw.program,
        sw.entry,
        programs::wavefront_decomposition(sw.s),
    )
    .with_const("n", sw.n as i64)
    .with_auto_decomposition_under(sw.cost);

    let t0 = Instant::now();
    let compiled =
        driver::compile(&job, sw.strategy).unwrap_or_else(|e| panic!("{}: {e}", sw.name));
    let search_secs = t0.elapsed().as_secs_f64();
    let tune = compiled.tune.as_ref().expect("auto compile records search");

    let inputs = Inputs::new()
        .scalar("n", Scalar::Int(sw.n as i64))
        .array("Old", driver::standard_input(sw.n, sw.n));

    // Re-execute every viable candidate and compare measured makespan
    // against the tuner's prediction.
    let mut best_measured = u64::MAX;
    let mut winner_measured = 0u64;
    for (i, e) in tune.evaluated.iter().enumerate() {
        let Ok(score) = &e.outcome else { continue };
        let mut cjob = Job::new(&sw.program, sw.entry, e.candidate.decomp.clone())
            .with_const("n", sw.n as i64)
            .with_verify_static(false);
        if let Some(o) = e.candidate.opt_level {
            cjob = cjob.with_opt_level(o);
        }
        let ccomp = driver::compile(&cjob, sw.strategy)
            .unwrap_or_else(|e2| panic!("{}: viable candidate fails to recompile: {e2}", sw.name));
        let exec = driver::execute_on(&ccomp, &inputs, sw.cost, Backend::Simulated)
            .unwrap_or_else(|e2| panic!("{}: viable candidate fails to run: {e2}", sw.name));
        let measured = exec.makespan();
        if measured != score.makespan {
            eprintln!(
                "{}: candidate `{}`: predicted {} != measured {}",
                sw.name, e.candidate.label, score.makespan, measured
            );
            failures += 1;
        }
        best_measured = best_measured.min(measured);
        if i == tune.winner {
            winner_measured = measured;
        }
    }

    let predicted = tune.winner_score().makespan;
    if winner_measured != best_measured {
        eprintln!(
            "{}: predicted-best is not measured-best: winner measured {}, best {}",
            sw.name, winner_measured, best_measured
        );
        failures += 1;
    }
    if tune.evaluated.len() < 50 {
        eprintln!(
            "{}: only {} candidates searched (need >= 50)",
            sw.name,
            tune.evaluated.len()
        );
        failures += 1;
    }
    if search_secs >= 1.0 {
        eprintln!("{}: search took {search_secs:.3}s (budget 1s)", sw.name);
        failures += 1;
    }

    Outcome {
        name: sw.name,
        n: sw.n,
        candidates: tune.evaluated.len(),
        viable: tune.viable(),
        search_secs,
        winner: tune.winner().candidate.label.clone(),
        predicted,
        measured: winner_measured,
        best_measured,
        failures,
    }
}

fn main() {
    let mut failures = 0usize;
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for o in sweeps().iter().map(run_sweep) {
        failures += o.failures;
        let predicted_best_is_measured_best =
            o.measured == o.best_measured && o.predicted == o.measured;
        if !predicted_best_is_measured_best {
            eprintln!("{}: predicted-best is not measured-best", o.name);
            failures += 1;
        }
        rows.push((
            format!("{} n={} s=4", o.name, o.n),
            vec![
                o.candidates.to_string(),
                o.viable.to_string(),
                format!("{:.3}", o.search_secs),
                o.predicted.to_string(),
                o.best_measured.to_string(),
                if o.predicted == o.best_measured && o.failures == 0 {
                    "yes".into()
                } else {
                    "NO".into()
                },
            ],
        ));
        records.push(Json::obj([
            ("program", o.name.into()),
            ("n", o.n.into()),
            ("s", 4u64.into()),
            ("candidates", o.candidates.into()),
            ("viable", o.viable.into()),
            ("search_secs", o.search_secs.into()),
            ("winner", o.winner.into()),
            ("predicted_makespan", o.predicted.into()),
            ("measured_makespan", o.measured.into()),
            ("best_measured_makespan", o.best_measured.into()),
            (
                "predicted_best_is_measured_best",
                predicted_best_is_measured_best.into(),
            ),
        ]));
    }
    let doc = Json::obj([("sweeps", Json::Arr(records))]);
    std::fs::write("BENCH_tune.json", format!("{doc:#}\n")).expect("write BENCH_tune.json");
    println!("wrote BENCH_tune.json");

    print_table(
        "automatic decomposition search",
        &[
            "cands".into(),
            "viable".into(),
            "secs".into(),
            "predicted".into(),
            "best".into(),
            "pred=best".into(),
        ],
        &rows,
    );

    if failures > 0 {
        eprintln!("\n{failures} tune failure(s)");
        std::process::exit(1);
    }
    println!("\npredicted-best == measured-best on every program");
}
