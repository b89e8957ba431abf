//! Live metrics monitor and metrics self-validation bench.
//!
//! Runs the five compiler variants of the wavefront program on the
//! threaded backend while *live-sampling* a shared
//! [`MetricsRegistry`] from a monitor
//! thread — the registry is lock-free, so sampling never perturbs the
//! run — and refreshes a per-processor dashboard on a TTY. After each
//! run it cross-validates three fully independent accounts of the same
//! traffic:
//!
//! 1. the metrics registry's per-channel tables,
//! 2. the scheduler/fabric `pair_messages` ledger,
//! 3. the static cost-model prediction (on statically exact variants),
//!
//! plus logical-metrics equality between the threaded backend and the
//! deterministic simulator. It then measures the steady-state overhead
//! of full metrics against the metrics-off (flight-recorder-only)
//! default, and writes everything to a self-validated
//! `BENCH_metrics.json`.
//!
//! Usage: `cargo run --release -p pdc-bench --bin monitor [n]`
//!
//! The <2% overhead bound is asserted only when `n >= 512` (below that
//! the run is dominated by thread startup, not the record path) on a
//! host with at least two hardware threads; a smaller `n` remains
//! usable as a CI smoke test of the agreement checks.

use pdc_bench::{compile_wavefront, Variant};
use pdc_core::driver;
use pdc_machine::metrics::json::Json;
use pdc_machine::{
    Backend, CostModel, Ctr, MetricsMode, MetricsRegistry, MetricsSnapshot, ProcId, RunConfig,
    RunReport, Tag,
};
use pdc_spmd::ir::SpmdProgram;
use pdc_spmd::run::SpmdMachine;
use pdc_spmd::Scalar;
use std::io::{IsTerminal, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const WARMUP: usize = 1;
const SAMPLES: usize = 5;
const NPROCS: usize = 4;

/// Median of `SAMPLES` timed runs, in milliseconds.
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

/// One dashboard frame: a fixed-height per-processor table, so the
/// monitor thread can repaint it in place with a cursor-up escape.
fn render(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>4} {:>10} {:>10} {:>10} {:>10} {:>9} {:>7} {:>9}\n",
        "proc", "ops", "frames", "words", "recvd", "ring max", "parks", "stalls"
    ));
    for (p, pm) in snap.procs.iter().enumerate() {
        out.push_str(&format!(
            "{:>4} {:>10} {:>10} {:>10} {:>10} {:>9} {:>7} {:>9}\n",
            p,
            pm.get(Ctr::Ops),
            pm.get(Ctr::FramesSent),
            pm.get(Ctr::WordsSent),
            pm.get(Ctr::FramesRecvd),
            pm.ring_occupancy.max,
            pm.get(Ctr::Parks),
            pm.get(Ctr::EnqueueStalls),
        ));
    }
    out
}

/// Build a machine for `prog` with the wavefront inputs preloaded.
fn machine_for(prog: &SpmdProgram, n: usize, backend: Backend) -> SpmdMachine {
    let mut m = SpmdMachine::new(prog, CostModel::ipsc2())
        .expect("program lowers")
        .with_backend(backend);
    m.preset_var("n", Scalar::Int(n as i64));
    m.preload_array(
        "Old",
        pdc_mapping::Dist::ColumnCyclic,
        &driver::standard_input(n, n),
    );
    m
}

/// Run `prog` on the threaded backend with a shared registry, repainting
/// the dashboard from a monitor thread while the run executes (TTY
/// only — redirected output gets just the final frame).
fn live_run(prog: &SpmdProgram, n: usize) -> RunReport {
    let registry = Arc::new(MetricsRegistry::new(NPROCS));
    let stop = Arc::new(AtomicBool::new(false));
    let tty = std::io::stdout().is_terminal();
    let sampler = tty.then(|| {
        let (registry, stop) = (Arc::clone(&registry), Arc::clone(&stop));
        std::thread::spawn(move || {
            let mut painted = false;
            while !stop.load(Ordering::Acquire) {
                let frame = render(&registry.snapshot());
                let lines = frame.lines().count();
                if painted {
                    print!("\x1b[{lines}A");
                }
                for line in frame.lines() {
                    println!("\x1b[2K{line}");
                }
                std::io::stdout().flush().ok();
                painted = true;
                std::thread::sleep(Duration::from_millis(50));
            }
            if painted {
                print!("\x1b[{}A", NPROCS + 1);
            }
        })
    });
    let mut m = machine_for(prog, n, Backend::threaded()).with_config(RunConfig {
        backend: Backend::threaded(),
        metrics: MetricsMode::Shared(Arc::clone(&registry)),
        ..RunConfig::default()
    });
    let out = m.run().expect("threaded run succeeds");
    stop.store(true, Ordering::Release);
    if let Some(h) = sampler {
        h.join().expect("monitor thread exits cleanly");
    }
    print!("{}", render(&out.report.metrics));
    out.report
}

/// Check the metrics registry's channel table against the scheduler's
/// `pair_messages` ledger; both saw every frame independently.
fn check_scheduler_agreement(report: &RunReport, label: &str) {
    let by_triple = report.metrics.out_by_triple();
    assert_eq!(
        by_triple.len(),
        report.pair_messages.len(),
        "{label}: channel sets differ between metrics and scheduler"
    );
    for ((src, dst, tag), (frames, _)) in &by_triple {
        assert_eq!(
            report.pair_messages.get(&(
                ProcId(*src as usize),
                ProcId(*dst as usize),
                Tag(*tag as u32)
            )),
            Some(frames),
            "{label}: {src}->{dst} tag {tag}"
        );
    }
}

fn main() {
    let [n] = pdc_bench::args([("n", 1024)]);
    println!("Runtime metrics monitor — {n}x{n} wavefront on {NPROCS} processors\n");

    let mut variants = Vec::new();
    let mut any_exact = false;
    for variant in [
        Variant::RuntimeRes,
        Variant::CompileTime,
        Variant::OptimizedI,
        Variant::OptimizedII,
        Variant::OptimizedIII { blksize: 4 },
    ] {
        println!("== {variant} ==");
        let compiled = compile_wavefront(variant, n, NPROCS).expect("compiler variant");
        let thr = live_run(&compiled.spmd, n);

        // Account 1 vs account 2, on both backends.
        check_scheduler_agreement(&thr, &format!("{variant} (threaded)"));
        let sim = {
            let mut m = machine_for(&compiled.spmd, n, Backend::Simulated).with_metrics();
            m.run().expect("simulated run succeeds").report
        };
        check_scheduler_agreement(&sim, &format!("{variant} (sim)"));
        assert_eq!(
            sim.metrics.logical(),
            thr.metrics.logical(),
            "{variant}: logical metrics diverge across backends"
        );

        // Account 3: the static cost model, exact on compile-time
        // variants — the observed tables must equal the prediction.
        let pred = &compiled.prediction;
        if pred.exact {
            let by_triple = thr.metrics.out_by_triple();
            assert_eq!(
                by_triple.len(),
                pred.sends.len(),
                "{variant}: predicted channel set differs from observed"
            );
            for ((src, dst, tag), (frames, words)) in &by_triple {
                let cost = pred
                    .sends
                    .get(&(*src as usize, *dst as usize, *tag as u32))
                    .unwrap_or_else(|| panic!("{variant}: unpredicted channel {src}->{dst}"));
                assert_eq!(cost.messages, *frames, "{variant}: {src}->{dst} frames");
                assert_eq!(cost.words, *words, "{variant}: {src}->{dst} words");
            }
        }

        let frames = thr.metrics.total(Ctr::FramesSent);
        let words = thr.metrics.total(Ctr::WordsSent);
        println!(
            "   {} channels, {} frames, {} words — metrics == scheduler{}\n",
            thr.pair_messages.len(),
            frames,
            words,
            if pred.exact { " == prediction" } else { "" }
        );
        any_exact |= pred.exact;
        variants.push(Json::obj([
            ("variant", variant.to_string().into()),
            ("channels", thr.pair_messages.len().into()),
            ("frames", frames.into()),
            ("words", words.into()),
            ("prediction_exact", pred.exact.into()),
        ]));
    }

    // Steady-state overhead: full metrics vs the flight-recorder-only
    // default, threaded backend, compile-time variant.
    let compiled = compile_wavefront(Variant::CompileTime, n, NPROCS).expect("compiles");
    let off_ms = median_ms(|| {
        machine_for(&compiled.spmd, n, Backend::threaded())
            .run()
            .expect("runs");
    });
    let on_ms = median_ms(|| {
        machine_for(&compiled.spmd, n, Backend::threaded())
            .with_metrics()
            .run()
            .expect("runs");
    });
    let overhead_pct = (on_ms - off_ms) / off_ms * 100.0;
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let validated = n >= 512 && cores >= 2;
    println!(
        "metrics off {off_ms:.2} ms, on {on_ms:.2} ms — overhead {overhead_pct:+.2}%{}",
        if validated { " (bound asserted)" } else { "" }
    );
    if validated {
        assert!(
            overhead_pct < 2.0,
            "full metrics cost {overhead_pct:.2}% (> 2% bound) at n={n}"
        );
    }

    let doc = Json::obj([
        ("bench", "metrics".into()),
        ("n", n.into()),
        ("nprocs", NPROCS.into()),
        ("samples", SAMPLES.into()),
        ("host_parallelism", cores.into()),
        ("overhead_checked", validated.into()),
        ("metrics_off_ms", off_ms.into()),
        ("metrics_on_ms", on_ms.into()),
        ("overhead_pct", overhead_pct.into()),
        ("variants", Json::Arr(variants)),
    ]);
    std::fs::write("BENCH_metrics.json", format!("{doc:#}\n")).expect("write BENCH_metrics.json");
    println!(
        "\nEvery variant: metrics tables == scheduler ledger on both backends,\n\
         logical metrics identical across backends{}. Written to BENCH_metrics.json.",
        if any_exact {
            ", and == the exact static prediction"
        } else {
            ""
        }
    );
}
