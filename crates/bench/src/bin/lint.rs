//! Run the static communication-safety analyzer (`pdc-analyze`) over
//! every compiled variant of the paper's programs and prove them clean.
//!
//! For each (program, variant, size) the bin compiles, analyzes the
//! final SPMD code, and requires a *verified* result: the walk exact,
//! every `(src, dst, tag)` channel's sends equal to its receives, the
//! abstract replay deadlock-free, single assignment intact, and zero
//! lints. Any diagnostic is unexpected and fails the run.
//!
//! The sweep covers the five Figure 6/7 wavefront variants (run-time
//! resolution, compile-time resolution, Optimized I–III) at n=16/s=4 and
//! n=128/s=4, plus the Jacobi program at n=16/s=4 under both generators.
//! Results go to stdout and `BENCH_lint.json`; the bin exits non-zero on
//! any unverified program or unexpected diagnostic.
//!
//! It also gates walk sharing: `driver::compile` at O2 runs the cost
//! model and this analyzer as two sinks of *one* abstract walk, so its
//! wall time must stay within [`MAX_COMPILE_OVER_PREDICT`] of a bare
//! `pdc_report::predict` of the same program, measured in the same run
//! (median of five each, n=128, s=8). Both times and the ratio are
//! recorded under `walk_sharing`.
//!
//! Usage: `cargo run --release -p pdc-bench --bin lint`

use pdc_bench::{compile_wavefront, print_table, Variant};
use pdc_core::driver::{self, Compiled, Job, Strategy};
use pdc_core::programs;
use pdc_machine::metrics::json::Json;
use pdc_opt::OptLevel;
use std::collections::HashMap;
use std::time::Instant;

/// Ceiling on `driver::compile` (O2) over `pdc_report::predict`. One
/// shared walk measures 2.1–2.3 (the walk, plus the front half and the
/// analyzer's bookkeeping at about half a walk each); a second walk adds
/// a whole one (the three-walk pipeline this replaced measured 3.0). The
/// numerator's fixed part does not shrink with the walk, so a much
/// faster walk alone would push the ratio up: re-derive, don't relax.
const MAX_COMPILE_OVER_PREDICT: f64 = 2.8;

/// Median wall time of five runs of `f`, in milliseconds.
fn median_of_5_ms<T>(mut f: impl FnMut() -> T) -> f64 {
    let mut ms: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    ms[2]
}

fn slug(v: Variant) -> &'static str {
    match v {
        Variant::RuntimeRes => "runtime_res",
        Variant::CompileTime => "compile_time",
        Variant::OptimizedI => "optimized_i",
        Variant::OptimizedII => "optimized_ii",
        Variant::OptimizedIII { .. } => "optimized_iii",
        Variant::Handwritten { .. } => "handwritten",
    }
}

struct Run {
    program: &'static str,
    variant: String,
    n: usize,
    s: usize,
    compiled: Compiled,
}

fn jacobi_compiled(strategy: Strategy, level: Option<OptLevel>, n: usize, s: usize) -> Compiled {
    let program = programs::jacobi();
    let mut job = Job::new(&program, "jacobi", programs::wavefront_decomposition(s))
        .with_const("n", n as i64);
    if let Some(level) = level {
        job = job.with_opt_level(level);
    }
    driver::compile(&job, strategy).expect("jacobi compiles")
}

fn main() {
    let wavefront_variants = [
        Variant::RuntimeRes,
        Variant::CompileTime,
        Variant::OptimizedI,
        Variant::OptimizedII,
        Variant::OptimizedIII { blksize: 4 },
    ];

    let mut runs: Vec<Run> = Vec::new();
    for (n, s) in [(16usize, 4usize), (128, 4)] {
        for v in wavefront_variants {
            runs.push(Run {
                program: "wavefront",
                variant: slug(v).into(),
                n,
                s,
                compiled: compile_wavefront(v, n, s).expect("compiler variant"),
            });
        }
    }
    for (variant, strategy, level) in [
        ("runtime_res", Strategy::Runtime, None),
        ("compile_time", Strategy::CompileTime, Some(OptLevel::O0)),
        ("optimized_ii", Strategy::CompileTime, Some(OptLevel::O2)),
    ] {
        runs.push(Run {
            program: "jacobi",
            variant: variant.into(),
            n: 16,
            s: 4,
            compiled: jacobi_compiled(strategy, level, 16, 4),
        });
    }

    let mut failures = 0usize;
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for run in &runs {
        let consts: HashMap<String, i64> = [("n".to_string(), run.n as i64)].into();
        let (env, arrays) = run.compiled.static_env(&consts);
        let report = pdc_analyze::analyze(&run.compiled.spmd, &env, &arrays);
        let name = format!("{} {} n={} s={}", run.program, run.variant, run.n, run.s);

        let messages: u64 = report.channels.values().map(|c| c.sent).sum();
        if !report.verified() {
            eprintln!("{name}: NOT VERIFIED (exact={})", report.exact);
            failures += 1;
        }
        for d in &report.diagnostics {
            let span = d
                .tag
                .and_then(|t| run.compiled.resolve_tag_span(t))
                .map(|s| format!(" at {s}"))
                .unwrap_or_default();
            eprintln!("{name}: unexpected diagnostic{span}: {}", d.message);
            failures += 1;
        }
        for note in &report.notes {
            eprintln!("{name}: note: {note}");
        }

        rows.push((
            name,
            vec![
                report.channels.len().to_string(),
                messages.to_string(),
                report.diagnostics.len().to_string(),
                if report.verified() {
                    "yes".into()
                } else {
                    "NO".into()
                },
            ],
        ));
        records.push(Json::obj([
            ("program", run.program.into()),
            ("variant", run.variant.as_str().into()),
            ("n", run.n.into()),
            ("s", run.s.into()),
            ("exact", report.exact.into()),
            ("verified", report.verified().into()),
            ("channels", report.channels.len().into()),
            ("messages", messages.into()),
            ("diagnostics", report.diagnostics.len().into()),
        ]));
    }

    // Walk sharing: a verified compile against one bare prediction walk.
    let (n, s) = (128usize, 8usize);
    let program = programs::gauss_seidel();
    let job = Job::new(
        &program,
        "gs_iteration",
        programs::wavefront_decomposition(s),
    )
    .with_const("n", n as i64)
    .with_opt_level(OptLevel::O2);
    let compile = || driver::compile(&job, Strategy::CompileTime).expect("wavefront compiles");
    let compiled = compile(); // also the warm-up
    let compile_ms = median_of_5_ms(compile);
    let (env, arrays) = compiled.static_env(&job.const_params);
    let predict_ms = median_of_5_ms(|| pdc_report::predict(&compiled.spmd, &env, &arrays));
    let ratio = compile_ms / predict_ms;
    println!(
        "walk sharing (n={n}, s={s}): compile O2 {compile_ms:.2} ms / predict {predict_ms:.2} ms \
         = {ratio:.2} (gate {MAX_COMPILE_OVER_PREDICT})"
    );
    if ratio.is_nan() || ratio > MAX_COMPILE_OVER_PREDICT {
        eprintln!(
            "compile/predict = {ratio} exceeds {MAX_COMPILE_OVER_PREDICT}: \
             is the compile walking more than once?"
        );
        failures += 1;
    }
    let walk_sharing = Json::obj([
        ("n", n.into()),
        ("s", s.into()),
        ("compile_o2_ms", compile_ms.into()),
        ("predict_ms", predict_ms.into()),
        ("ratio", ratio.into()),
        ("max_ratio", MAX_COMPILE_OVER_PREDICT.into()),
    ]);
    let doc = Json::obj([("runs", Json::Arr(records)), ("walk_sharing", walk_sharing)]);
    std::fs::write("BENCH_lint.json", format!("{doc:#}\n")).expect("write BENCH_lint.json");
    println!("wrote BENCH_lint.json");

    print_table(
        "static communication-safety sweep",
        &[
            "channels".into(),
            "messages".into(),
            "diags".into(),
            "verified".into(),
        ],
        &rows,
    );

    if failures > 0 {
        eprintln!("\n{failures} lint failure(s)");
        std::process::exit(1);
    }
    println!("\nall programs statically verified");
}
