//! Wall-clock race between the two execution backends.
//!
//! The deterministic simulator and the threaded backend compute the same
//! logical results (same outputs, same logical makespan, same message
//! counts); what differs is *host* time. This bench runs the wavefront
//! program on both backends over a processor sweep, prints median
//! wall-clock per run, and writes a self-validated
//! `BENCH_backend_race.json` with the speedup curve, so CI can gate on
//! the threaded backend actually winning at scale.
//!
//! Usage: `cargo run --release -p pdc-bench --bin backend_race [n]`
//!
//! At `n < 512` the problem is too small for threads to amortize their
//! startup, so the win-at-scale assertion is skipped (the run still
//! validates logical agreement); that keeps a tiny `n` usable as a CI
//! smoke test. The assertion is likewise skipped on hosts without at
//! least two hardware threads: on one core there is no parallelism for
//! the threaded backend to exploit, so "threads win" is not a testable
//! claim — the JSON records the host parallelism so a reader can tell
//! the two situations apart.

use pdc_core::driver::{self, Inputs, Job, Strategy};
use pdc_core::programs;
use pdc_machine::metrics::json::Json;
use pdc_machine::{Backend, CostModel};
use pdc_spmd::Scalar;
use std::time::Instant;

const WARMUP: usize = 1;
const SAMPLES: usize = 3;

/// Proc counts raced; the JSON speedup curve has one point per entry.
const SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Median of `SAMPLES` timed runs, in milliseconds. Uses a total order
/// (NaN cannot poison the sort) and averages the two middle samples
/// when the count is even instead of biasing high.
fn median_ms(mut f: impl FnMut()) -> f64 {
    for _ in 0..WARMUP {
        f();
    }
    let mut times: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    let mid = times.len() / 2;
    if times.len().is_multiple_of(2) {
        (times[mid - 1] + times[mid]) / 2.0
    } else {
        times[mid]
    }
}

fn main() {
    let [n] = pdc_bench::args([("n", 1024)]);
    println!("Backend wall-clock race — {n}x{n} wavefront, median of {SAMPLES} runs\n");
    println!(
        "{:>6} {:>16} {:>16} {:>8}",
        "procs", "simulated (ms)", "threaded (ms)", "speedup"
    );

    let program = programs::gauss_seidel();
    let inputs = Inputs::new()
        .scalar("n", Scalar::Int(n as i64))
        .array("Old", driver::standard_input(n, n));
    let (mut curve, mut last) = (Vec::new(), (0, 0.0, 0.0));
    for s in SWEEP {
        let job = Job::new(
            &program,
            "gs_iteration",
            programs::wavefront_decomposition(s),
        )
        .with_const("n", n as i64);
        let compiled = driver::compile(&job, Strategy::CompileTime).expect("compiles");

        let mut makespans = Vec::new();
        let mut time_of = |backend: Backend| {
            median_ms(|| {
                let exec = driver::execute_on(&compiled, &inputs, CostModel::ipsc2(), backend)
                    .expect("runs");
                makespans.push(exec.makespan());
            })
        };
        let sim_ms = time_of(Backend::Simulated);
        let thr_ms = time_of(Backend::threaded());
        assert!(
            makespans.windows(2).all(|w| w[0] == w[1]),
            "backends disagree on logical makespan at s={s}"
        );
        println!(
            "{s:>6} {sim_ms:>16.2} {thr_ms:>16.2} {:>8.2}",
            sim_ms / thr_ms
        );
        curve.push(Json::obj([
            ("procs", s.into()),
            ("simulated_ms", sim_ms.into()),
            ("threaded_ms", thr_ms.into()),
            ("speedup", (sim_ms / thr_ms).into()),
        ]));
        last = (s, sim_ms, thr_ms);
    }

    // Self-validation: the ring interconnect must make real threads pay
    // off once the problem is big enough to amortize thread startup —
    // provided the host can actually run threads in parallel.
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let validated = n >= 512 && cores >= 2;
    if validated {
        let (s, sim_ms, thr_ms) = last;
        assert!(
            thr_ms < sim_ms,
            "threaded backend lost the race at n={n}, s={s}: {thr_ms:.2} ms vs {sim_ms:.2} ms simulated"
        );
    }

    let doc = Json::obj([
        ("bench", "backend_race".into()),
        ("n", n.into()),
        ("samples", SAMPLES.into()),
        ("host_parallelism", cores.into()),
        ("win_at_scale_checked", validated.into()),
        ("curve", Json::Arr(curve)),
    ]);
    std::fs::write("BENCH_backend_race.json", format!("{doc:#}\n"))
        .expect("write BENCH_backend_race.json");

    println!(
        "\nSame logical makespan on every run; speedup is simulated/threaded\n\
         wall time. Curve written to BENCH_backend_race.json{}.",
        if validated {
            " (threaded win at max s asserted)"
        } else if cores < 2 {
            " (single-core host: no parallelism to assert a win on)"
        } else {
            " (n too small to assert a threaded win)"
        }
    );
}
