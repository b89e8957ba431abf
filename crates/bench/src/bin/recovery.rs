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
use pdc_machine::metrics::json::Json;
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
    let mut records = Vec::new();

    let mut overhead_rows = Vec::new();
    let mut recovery_rows = Vec::new();
    for variant in versions() {
        let base = run_one(variant, n, false, None, None, &mut errors);
        // Checkpoints require the reliable layer, so the fair baseline
        // for the *checkpoint* tax is a reliable run without them; the
        // plain run is still reported so the full protocol tax is visible.
        let rel_base = run_one(variant, n, true, None, None, &mut errors);

        // Checkpoint tax, no crash. The recovered makespans below are
        // compared against the fault-free *checkpointed* run at the default
        // interval — the extra time is what the crash itself cost.
        let mut ckpt_base = rel_base.makespan;
        let (mut cells, mut overhead) = (Vec::new(), Vec::new());
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
            let ov = r.makespan as f64 / rel_base.makespan as f64 - 1.0;
            if interval == DEFAULT_INTERVAL {
                ckpt_base = r.makespan;
                if ov >= 0.05 {
                    errors.push(format!(
                        "{variant}: checkpoint overhead {:.2}% at default interval \
                         breaches the 5% target",
                        ov * 100.0
                    ));
                }
            }
            cells.push(format!("{:.2}% ({}ck)", ov * 100.0, rec.checkpoints_taken));
            overhead.push(Json::obj([
                ("interval_ops", interval.into()),
                ("makespan", r.makespan.into()),
                ("overhead", ov.into()),
                ("checkpoints", rec.checkpoints_taken.into()),
                ("bytes", rec.bytes_snapshotted.into()),
            ]));
        }
        overhead_rows.push((variant.to_string(), cells));

        // Time-to-recover vs crash point, default interval.
        let (mut cells, mut recovery) = (Vec::new(), Vec::new());
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
            let slowdown = r.makespan as f64 / ckpt_base as f64;
            cells.push(format!("{slowdown:.2}x +{}cy", rec.recovery_cycles));
            recovery.push(Json::obj([
                ("crash_at_op", at_op.into()),
                ("makespan", r.makespan.into()),
                ("crashes_survived", rec.crashes_survived.into()),
                ("replayed_ops", rec.replayed_ops.into()),
                ("replay_frames", rec.replay_frames.into()),
                ("recovery_cycles", rec.recovery_cycles.into()),
            ]));
        }
        recovery_rows.push((variant.to_string(), cells));

        records.push(Json::obj([
            ("version", variant.to_string().into()),
            ("baseline_makespan", base.makespan.into()),
            ("reliable_baseline_makespan", rel_base.makespan.into()),
            ("overhead", Json::Arr(overhead)),
            ("recovery", Json::Arr(recovery)),
        ]));
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

    let doc = Json::obj([
        ("bench", "recovery".into()),
        ("n", n.into()),
        ("nprocs", NPROCS.into()),
        ("default_interval", DEFAULT_INTERVAL.into()),
        ("versions", Json::Arr(records)),
        ("self_validated", errors.is_empty().into()),
        ("errors", errors.iter().map(String::as_str).collect()),
    ]);
    std::fs::write("BENCH_recovery.json", format!("{doc:#}\n")).expect("write BENCH_recovery.json");
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
