//! Explain the compilation of the paper's five program versions: print
//! each variant's remark stream (what every phase did and what it
//! declined to do, with source spans), then verify the static
//! message-cost prediction against a traced, fault-free simulator run.
//!
//! Output goes to stdout plus `BENCH_remarks.json`, which bundles the
//! remark streams with the predicted-vs-observed accounting. The bin
//! exits non-zero if a variant emits no remarks or any prediction misses
//! — CI runs this at n=16, s=4.
//!
//! Usage: `cargo run --release -p pdc-bench --bin explain [n] [s] [--metrics]`
//! (defaults: n=16, s=4). With `--metrics` each run also records the
//! runtime metrics registry and the table gains live metric columns —
//! frames and words as the registry counted them, plus the scratch-arena
//! reuse/grow split — cross-checked against the observed message counts.

use pdc_bench::{compile_wavefront, print_table, Variant};
use pdc_core::driver::{self, Inputs};
use pdc_machine::metrics::json::{parse_json, Json};
use pdc_machine::{CostModel, MetricsMode};
use pdc_spmd::Scalar;

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

fn main() {
    let metrics = std::env::args().any(|a| a == "--metrics");
    let [n, s] = pdc_bench::args([("n", 16), ("s", 4)]);
    let variants = [
        Variant::RuntimeRes,
        Variant::CompileTime,
        Variant::OptimizedI,
        Variant::OptimizedII,
        Variant::OptimizedIII { blksize: 4 },
    ];

    let mut failures = 0usize;
    let mut rows = Vec::new();
    let mut runs = Vec::new();
    for v in variants {
        let mut compiled = compile_wavefront(v, n, s).expect("compiler variant");
        compiled.run.trace_cap = Some(1 << 20);
        if metrics {
            compiled.run.metrics = MetricsMode::Full;
        }

        println!("==== {v} ====");
        println!("{}", compiled.remarks_text());

        let inputs = Inputs::new()
            .scalar("n", Scalar::Int(n as i64))
            .array("Old", driver::standard_input(n, n));
        let exec = driver::execute(&compiled, &inputs, CostModel::ipsc2())
            .unwrap_or_else(|e| panic!("{v}: {e}"));
        let report = exec.verify_predictions();
        let predicted_msgs = compiled.prediction.total_messages();
        let predicted_words = compiled.prediction.total_words();
        let observed_msgs = exec.messages();
        let observed_words = exec.outcome.report.stats.network.words;
        for m in &report.mismatches {
            eprintln!("{v}: PREDICTION MISS: {m}");
        }
        if !report.ok() || !report.statically_exact || !report.trace_checked {
            failures += 1;
        }
        if compiled.remarks.is_empty() {
            eprintln!("{v}: no remarks");
            failures += 1;
        }
        let mut cells = vec![
            predicted_msgs.to_string(),
            observed_msgs.to_string(),
            predicted_words.to_string(),
            observed_words.to_string(),
            report.checked_channels.to_string(),
            if report.ok() {
                "yes".into()
            } else {
                "NO".into()
            },
        ];
        if metrics {
            // Live metric columns, cross-checked: the registry must have
            // counted exactly the frames and words the network reported.
            use pdc_machine::Ctr;
            let snap = exec.metrics();
            let m_frames = snap.total(Ctr::FramesSent);
            let m_words = snap.total(Ctr::WordsSent);
            if m_frames != observed_msgs || m_words != observed_words {
                eprintln!(
                    "{v}: METRICS MISS: registry saw {m_frames} frames / {m_words} words, \
                     network reported {observed_msgs} / {observed_words}"
                );
                failures += 1;
            }
            cells.push(m_frames.to_string());
            cells.push(m_words.to_string());
            cells.push(format!(
                "{}/{}",
                snap.total(Ctr::ScratchReuse),
                snap.total(Ctr::ScratchGrow)
            ));
        }
        rows.push((v.to_string(), cells));

        let remarks = parse_json(&compiled.remarks_json()).expect("remarks_json prints JSON");
        runs.push(Json::obj([
            ("variant", slug(v).into()),
            ("predicted_messages", predicted_msgs.into()),
            ("observed_messages", observed_msgs.into()),
            ("predicted_words", predicted_words.into()),
            ("observed_words", observed_words.into()),
            ("channels", report.checked_channels.into()),
            ("exact", report.statically_exact.into()),
            ("verified", report.ok().into()),
            ("vectorized", compiled.opt_report.vectorized.into()),
            ("jammed", compiled.opt_report.jammed.into()),
            ("stripped", compiled.opt_report.stripped.into()),
            ("remarks", remarks),
        ]));
    }
    let doc = Json::obj([("n", n.into()), ("s", s.into()), ("runs", Json::Arr(runs))]);
    std::fs::write("BENCH_remarks.json", format!("{doc:#}\n")).expect("write BENCH_remarks.json");
    println!("wrote BENCH_remarks.json");

    let mut headers: Vec<String> = vec![
        "pred msgs".into(),
        "obs msgs".into(),
        "pred words".into(),
        "obs words".into(),
        "channels".into(),
        "match".into(),
    ];
    if metrics {
        headers.push("m frames".into());
        headers.push("m words".into());
        headers.push("reuse/grow".into());
    }
    print_table(
        &format!("predicted vs observed messages, {n}x{n} wavefront on {s} processors"),
        &headers,
        &rows,
    );

    if failures > 0 {
        eprintln!("\n{failures} verification failure(s)");
        std::process::exit(1);
    }
}
