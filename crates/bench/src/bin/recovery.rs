//! Crash recovery: what checkpoints cost and how fast a crashed
//! processor comes back, for the five compiled wavefront versions of
//! Figures 6/7.
//!
//! Three sweeps on the simulator (deterministic, so every number is
//! reproducible bit-for-bit):
//!
//! * **baseline** — each version fault-free with no checkpoints;
//! * **overhead vs interval** — checkpoints every 512/2048/8192 charged
//!   ops with no crash: the pure snapshot tax (<5% at the default 2048
//!   interval is the target);
//! * **recovery vs crash point** — a scripted crash of P1 at an early,
//!   middle, and late op under the default interval: time-to-recover and
//!   the recovered makespan.
//!
//! Every run is self-validated: gathered outputs must match the
//! sequential interpreter, every injected crash must be survived, and
//! recovery runs must not leak protocol traffic into program-level
//! counts. Validation failures are listed in `BENCH_recovery.json`
//! (`"errors"`) and fail the process, so CI can gate on this binary.
//!
//! Usage: `cargo run --release -p pdc-bench --bin recovery [n]`

use pdc_bench::{build_wavefront, print_table, Variant};
use pdc_core::driver::{self, Inputs};
use pdc_core::programs;
use pdc_machine::metrics::json_escape;
use pdc_machine::{
    CheckpointCfg, CostModel, FaultPlan, ProcId, RecoveryReport, RelConfig, RunConfig,
};
use pdc_spmd::run::SpmdMachine;
use pdc_spmd::Scalar;

const NPROCS: usize = 4;
const INTERVALS: [u64; 3] = [512, 2_048, 8_192];
const DEFAULT_INTERVAL: u64 = 2_048;
const CRASH_POINTS: [u64; 3] = [10, 100, 1_000];

fn versions() -> [Variant; 5] {
    [
        Variant::RuntimeRes,
        Variant::CompileTime,
        Variant::OptimizedI,
        Variant::OptimizedII,
        Variant::OptimizedIII { blksize: 8 },
    ]
}

struct RunResult {
    makespan: u64,
    recovery: Option<RecoveryReport>,
}

/// One simulated run of `variant`, optionally checkpointed and crashed,
/// with output verification against the sequential interpreter.
fn run_one(
    variant: Variant,
    n: usize,
    reliable: bool,
    ckpt: Option<CheckpointCfg>,
    crash: Option<(ProcId, u64)>,
    errors: &mut Vec<String>,
) -> RunResult {
    let label = format!("{variant} ckpt={ckpt:?} crash={crash:?}");
    let prog = build_wavefront(variant, n, NPROCS);
    let mut m = SpmdMachine::new(&prog, CostModel::ipsc2())
        .expect("program lowers")
        .with_config(RunConfig {
            reliable: reliable.then(RelConfig::default),
            checkpoints: ckpt,
            faults: crash.map_or_else(FaultPlan::none, |(proc, at_op)| {
                FaultPlan::seeded(0xC2A5).with_crash(proc, at_op)
            }),
            ..RunConfig::default()
        });
    m.preset_var("n", Scalar::Int(n as i64));
    m.preload_array(
        "Old",
        pdc_mapping::Dist::ColumnCyclic,
        &driver::standard_input(n, n),
    );
    let out = m.run().unwrap_or_else(|e| panic!("{label}: {e}"));

    if out.report.undelivered != 0 {
        errors.push(format!("{label}: {} undelivered", out.report.undelivered));
    }
    let gathered = m.gather("New").expect("New exists");
    let inputs = Inputs::new()
        .scalar("n", Scalar::Int(n as i64))
        .array("Old", driver::standard_input(n, n));
    let seq = driver::run_sequential(&programs::gauss_seidel(), "gs_iteration", &inputs)
        .expect("sequential run");
    if driver::first_mismatch(&gathered, &seq).is_some() {
        errors.push(format!("{label}: output differs from sequential"));
    }
    match (&out.report.recovery, crash) {
        (Some(rec), Some(_)) if rec.crashes_survived != 1 => {
            errors.push(format!(
                "{label}: expected 1 survived crash, got {}",
                rec.crashes_survived
            ));
        }
        (None, _) if ckpt.is_some() => {
            errors.push(format!(
                "{label}: checkpointed run carries no RecoveryReport"
            ));
        }
        _ => {}
    }
    RunResult {
        makespan: out.report.stats.makespan().0,
        recovery: out.report.recovery,
    }
}

fn main() {
    let [n] = pdc_bench::args([("n", 32)]);
    let mut errors: Vec<String> = Vec::new();
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"bench\": \"recovery\",\n  \"n\": {n},\n  \"nprocs\": {NPROCS},\n  \
         \"default_interval\": {DEFAULT_INTERVAL},\n  \"versions\": [\n"
    ));

    let mut overhead_rows = Vec::new();
    let mut recovery_rows = Vec::new();
    let vs = versions();
    for (vi, &variant) in vs.iter().enumerate() {
        let base = run_one(variant, n, false, None, None, &mut errors);
        // Checkpoints require the reliable layer, so the fair baseline
        // for the *checkpoint* tax is a reliable run without them; the
        // plain run is still reported so the full protocol tax is visible.
        let rel_base = run_one(variant, n, true, None, None, &mut errors);

        // Checkpoint tax, no crash.
        let mut per_interval = Vec::new();
        for &interval in &INTERVALS {
            let r = run_one(
                variant,
                n,
                true,
                Some(CheckpointCfg::every(interval)),
                None,
                &mut errors,
            );
            let rec = r.recovery.unwrap_or_default();
            if rec.crashes_survived != 0 {
                errors.push(format!("{variant}: spurious crash in overhead sweep"));
            }
            let overhead = r.makespan as f64 / rel_base.makespan as f64 - 1.0;
            if interval == DEFAULT_INTERVAL && overhead >= 0.05 {
                errors.push(format!(
                    "{variant}: checkpoint overhead {:.2}% at default interval \
                     breaches the 5% target",
                    overhead * 100.0
                ));
            }
            per_interval.push((interval, r.makespan, overhead, rec));
        }
        overhead_rows.push((
            variant.to_string(),
            per_interval
                .iter()
                .map(|(_, _, ov, rec)| format!("{:.2}% ({}ck)", ov * 100.0, rec.checkpoints_taken))
                .collect::<Vec<_>>(),
        ));

        // Time-to-recover vs crash point, default interval. The recovered
        // makespan is compared against the fault-free *checkpointed* run at
        // the same interval — the extra time is what the crash itself cost.
        let ckpt_base = per_interval
            .iter()
            .find(|(i, ..)| *i == DEFAULT_INTERVAL)
            .map(|(_, mk, ..)| *mk)
            .unwrap_or(rel_base.makespan);
        let mut per_crash = Vec::new();
        for &at_op in &CRASH_POINTS {
            let r = run_one(
                variant,
                n,
                true,
                Some(CheckpointCfg::every(DEFAULT_INTERVAL)),
                Some((ProcId(1), at_op)),
                &mut errors,
            );
            let rec = r.recovery.unwrap_or_default();
            per_crash.push((at_op, r.makespan, rec));
        }
        recovery_rows.push((
            variant.to_string(),
            per_crash
                .iter()
                .map(|(_, mk, rec)| {
                    format!(
                        "{:.2}x +{}cy",
                        *mk as f64 / ckpt_base as f64,
                        rec.recovery_cycles
                    )
                })
                .collect::<Vec<_>>(),
        ));

        json.push_str(&format!(
            "    {{\"version\": \"{}\", \"baseline_makespan\": {}, \
             \"reliable_baseline_makespan\": {},\n      \"overhead\": [\n",
            json_escape(&variant.to_string()),
            base.makespan,
            rel_base.makespan
        ));
        for (i, (interval, mk, ov, rec)) in per_interval.iter().enumerate() {
            json.push_str(&format!(
                "        {{\"interval_ops\": {interval}, \"makespan\": {mk}, \
                 \"overhead\": {ov:.6}, \"checkpoints\": {}, \"bytes\": {}}}{}\n",
                rec.checkpoints_taken,
                rec.bytes_snapshotted,
                if i + 1 < per_interval.len() { "," } else { "" }
            ));
        }
        json.push_str("      ],\n      \"recovery\": [\n");
        for (i, (at_op, mk, rec)) in per_crash.iter().enumerate() {
            json.push_str(&format!(
                "        {{\"crash_at_op\": {at_op}, \"makespan\": {mk}, \
                 \"crashes_survived\": {}, \"replayed_ops\": {}, \"replay_frames\": {}, \
                 \"recovery_cycles\": {}}}{}\n",
                rec.crashes_survived,
                rec.replayed_ops,
                rec.replay_frames,
                rec.recovery_cycles,
                if i + 1 < per_crash.len() { "," } else { "" }
            ));
        }
        json.push_str(&format!(
            "      ]}}{}\n",
            if vi + 1 < vs.len() { "," } else { "" }
        ));
    }

    let col_names: Vec<String> = INTERVALS.iter().map(|i| format!("every {i}")).collect();
    print_table(
        &format!("Checkpoint overhead vs interval — {n}x{n} wavefront on {NPROCS} processors"),
        &col_names,
        &overhead_rows,
    );
    let col_names: Vec<String> = CRASH_POINTS.iter().map(|c| format!("crash@{c}")).collect();
    print_table(
        &format!(
            "Recovered makespan (vs fault-free) and recovery cycles, interval {DEFAULT_INTERVAL}"
        ),
        &col_names,
        &recovery_rows,
    );

    json.push_str(&format!(
        "  ],\n  \"self_validated\": {},\n  \"errors\": [",
        errors.is_empty()
    ));
    for (i, e) in errors.iter().enumerate() {
        json.push_str(&format!(
            "\n    \"{}\"{}",
            json_escape(e),
            if i + 1 < errors.len() { "," } else { "\n  " }
        ));
    }
    json.push_str("]\n}\n");
    std::fs::write("BENCH_recovery.json", &json).expect("write BENCH_recovery.json");
    println!("\nwrote BENCH_recovery.json");

    if !errors.is_empty() {
        eprintln!("\nself-validation FAILED:");
        for e in &errors {
            eprintln!("  - {e}");
        }
        std::process::exit(1);
    }
    println!("self-validation passed: outputs, crash survival, and the <5% overhead target hold");
}
