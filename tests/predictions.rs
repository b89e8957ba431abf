//! Predicted-vs-observed verification of the static message-cost model.
//!
//! For every compiler-built wavefront variant, the driver's prediction
//! must match a fault-free simulator run *exactly*: per-`(src, dst, tag)`
//! message counts, total payload words, and (when traced) the event
//! trace's communication matrix.

use pdc_bench::{compile_wavefront, Variant};
use pdc_core::driver::{self, Inputs};
use pdc_machine::CostModel;
use pdc_spmd::Scalar;

const N: usize = 16;
const S: usize = 4;

fn variants() -> Vec<Variant> {
    vec![
        Variant::RuntimeRes,
        Variant::CompileTime,
        Variant::OptimizedI,
        Variant::OptimizedII,
        Variant::OptimizedIII { blksize: 4 },
    ]
}

#[test]
fn predictions_are_exact_for_every_variant() {
    for variant in variants() {
        let mut compiled = compile_wavefront(variant, N, S).expect("compiler variant");
        compiled.run.trace_cap = Some(1 << 20); // check the trace matrix too
        assert!(
            compiled.prediction.exact,
            "{variant}: the model degraded to approximate: {:?}",
            compiled.prediction.notes
        );
        assert!(
            compiled.prediction.protocol_consistent(),
            "{variant}: predicted sends and receives disagree"
        );
        let inputs = Inputs::new()
            .scalar("n", Scalar::Int(N as i64))
            .array("Old", driver::standard_input(N, N));
        let exec = driver::execute(&compiled, &inputs, CostModel::ipsc2()).expect("runs");
        assert_eq!(exec.outcome.report.undelivered, 0, "{variant}");
        let report = exec.verify_predictions();
        assert!(report.trace_checked, "{variant}: trace was not checked");
        assert!(
            report.ok(),
            "{variant}: prediction diverged from observation:\n  {}",
            report.mismatches.join("\n  ")
        );
        assert!(
            report.checked_channels > 0 || exec.messages() == 0,
            "{variant}"
        );
    }
}

#[test]
fn prediction_totals_match_observed_counters() {
    for variant in variants() {
        let compiled = compile_wavefront(variant, N, S).expect("compiler variant");
        let inputs = Inputs::new()
            .scalar("n", Scalar::Int(N as i64))
            .array("Old", driver::standard_input(N, N));
        let exec = driver::execute(&compiled, &inputs, CostModel::ipsc2()).expect("runs");
        assert_eq!(
            compiled.prediction.total_messages(),
            exec.messages(),
            "{variant}: message totals"
        );
        assert_eq!(
            compiled.prediction.total_words(),
            exec.outcome.report.stats.network.words,
            "{variant}: word totals"
        );
    }
}

#[test]
fn single_processor_predicts_silence() {
    let compiled = compile_wavefront(Variant::CompileTime, 8, 1).expect("compiler variant");
    assert_eq!(compiled.prediction.total_messages(), 0);
    assert!(compiled.prediction.exact);
}
