//! The benchmark harness: one function per program variant the paper
//! measures, plus the sweeps that regenerate each figure and table.
//!
//! Binaries (run with `--release`; the simulations execute tens of
//! millions of instructions):
//!
//! * `fig6` — Figure 6: run-time resolution, compile-time resolution,
//!   Optimized I, and the handwritten program vs number of processors;
//! * `fig7` — Figure 7: Optimized II and Optimized III vs the handwritten
//!   program;
//! * `msg_table` — footnote 3: total message counts (31,752 vs 2,142 in
//!   the paper);
//! * `blocksize_sweep` — §4's open question: execution time vs `blksize`;
//! * `fig9_polymorphism` — §5.1: monomorphic vs polymorphic parameter
//!   mappings (Figures 8 and 9);
//! * `interchange` — §4's closing remark: the reversed-loop program
//!   before and after loop interchange;
//! * `ablation_cost` — the same programs under a shared-memory-like cost
//!   model (is message combining still worth it when messages are cheap?).

use pdc_core::driver::{self, Compiled, Inputs, Job, Strategy};
use pdc_core::handwritten;
use pdc_core::programs;
use pdc_machine::CostModel;
use pdc_opt::OptLevel;
use pdc_spmd::ir::SpmdProgram;
use pdc_spmd::run::SpmdMachine;
use pdc_spmd::Scalar;

/// A program variant of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// §3.1 run-time resolution.
    RuntimeRes,
    /// §3.2 compile-time resolution.
    CompileTime,
    /// Appendix A.2 (vectorized old columns).
    OptimizedI,
    /// Appendix A.3 (pipelined new values).
    OptimizedII,
    /// Appendix A.4 (blocked new values).
    OptimizedIII {
        /// Rows per block.
        blksize: usize,
    },
    /// Figure 3.
    Handwritten {
        /// Rows per block.
        blksize: usize,
    },
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Variant::RuntimeRes => write!(f, "run-time resolution"),
            Variant::CompileTime => write!(f, "compile-time resolution"),
            Variant::OptimizedI => write!(f, "optimized I (vectorized)"),
            Variant::OptimizedII => write!(f, "optimized II (pipelined)"),
            Variant::OptimizedIII { blksize } => write!(f, "optimized III (b={blksize})"),
            Variant::Handwritten { blksize } => write!(f, "handwritten (b={blksize})"),
        }
    }
}

/// One simulated execution's results.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Total messages (the footnote-3 metric).
    pub messages: u64,
    /// Total payload words.
    pub words: u64,
    /// Simulated execution time in cycles (the figures' y-axis).
    pub makespan: u64,
    /// Instructions executed across all processors.
    pub steps: u64,
    /// Did the gathered result match the sequential interpreter?
    pub verified: bool,
}

/// Drive the compiler for a wavefront variant, keeping the full
/// [`Compiled`] bundle — remark stream, optimization report, and static
/// cost prediction included. `None` for the handwritten program, which
/// never goes through the compiler.
///
/// # Panics
///
/// Panics on compilation failure (the canonical program always compiles).
pub fn compile_wavefront(variant: Variant, n: usize, nprocs: usize) -> Option<Compiled> {
    let (strategy, level) = match variant {
        Variant::Handwritten { .. } => return None,
        Variant::RuntimeRes => (Strategy::Runtime, None),
        Variant::CompileTime => (Strategy::CompileTime, Some(OptLevel::O0)),
        Variant::OptimizedI => (Strategy::CompileTime, Some(OptLevel::O1)),
        Variant::OptimizedII => (Strategy::CompileTime, Some(OptLevel::O2)),
        Variant::OptimizedIII { blksize } => {
            (Strategy::CompileTime, Some(OptLevel::O3 { blksize }))
        }
    };
    let program = programs::gauss_seidel();
    let mut job = Job::new(
        &program,
        "gs_iteration",
        programs::wavefront_decomposition(nprocs),
    )
    .with_const("n", n as i64);
    if let Some(level) = level {
        job = job.with_opt_level(level);
    }
    Some(driver::compile(&job, strategy).expect("wavefront compiles"))
}

/// Build the SPMD program for a variant of the wavefront benchmark.
///
/// # Panics
///
/// Panics on compilation failure (the canonical program always compiles).
pub fn build_wavefront(variant: Variant, n: usize, nprocs: usize) -> SpmdProgram {
    match variant {
        Variant::Handwritten { blksize } => handwritten::gauss_seidel(nprocs, blksize),
        _ => {
            compile_wavefront(variant, n, nprocs)
                .expect("compiler variant")
                .spmd
        }
    }
}

/// Simulate one wavefront variant on an `n × n` grid over `nprocs`
/// processors under `cost`, verifying the gathered result when `verify`.
///
/// # Panics
///
/// Panics on simulation errors (deadlock, fault) — the harness treats
/// those as bugs, not data points.
pub fn run_wavefront(
    variant: Variant,
    n: usize,
    nprocs: usize,
    cost: CostModel,
    verify: bool,
) -> Measurement {
    let prog = build_wavefront(variant, n, nprocs);
    let mut m = SpmdMachine::new(&prog, cost).expect("program lowers");
    m.preset_var("n", Scalar::Int(n as i64));
    m.preload_array(
        "Old",
        pdc_mapping::Dist::ColumnCyclic,
        &driver::standard_input(n, n),
    );
    let out = m
        .run()
        .unwrap_or_else(|e| panic!("{variant} (n={n}, s={nprocs}): {e}"));
    assert_eq!(
        out.report.undelivered, 0,
        "{variant}: orphaned messages in the network"
    );
    let verified = if verify {
        let gathered = m.gather("New").expect("New exists");
        let inputs = Inputs::new()
            .scalar("n", Scalar::Int(n as i64))
            .array("Old", driver::standard_input(n, n));
        let seq = driver::run_sequential(&programs::gauss_seidel(), "gs_iteration", &inputs)
            .expect("sequential run");
        driver::first_mismatch(&gathered, &seq).is_none()
    } else {
        true
    };
    Measurement {
        messages: out.report.stats.network.messages,
        words: out.report.stats.network.words,
        makespan: out.report.stats.makespan().0,
        steps: out.report.steps,
        verified,
    }
}

/// Like [`run_wavefront`] but with tracing enabled on an explicit
/// backend, returning the full [`RunReport`](pdc_machine::RunReport)
/// (whose `trace` feeds the Chrome exporter and critical-path analyzer).
///
/// # Panics
///
/// Panics on simulation errors — the harness treats those as bugs.
pub fn run_wavefront_traced(
    variant: Variant,
    n: usize,
    nprocs: usize,
    cost: CostModel,
    backend: pdc_machine::Backend,
    trace_cap: usize,
) -> pdc_machine::RunReport {
    let prog = build_wavefront(variant, n, nprocs);
    let mut m = SpmdMachine::new(&prog, cost)
        .expect("program lowers")
        .with_backend(backend)
        .with_trace(trace_cap);
    m.preset_var("n", Scalar::Int(n as i64));
    m.preload_array(
        "Old",
        pdc_mapping::Dist::ColumnCyclic,
        &driver::standard_input(n, n),
    );
    let out = m
        .run()
        .unwrap_or_else(|e| panic!("{variant} (n={n}, s={nprocs}, {backend:?}): {e}"));
    out.report
}

/// The binary's positional `usize` arguments, `spec`'s `(name, default)`
/// pairs in order (`--flags` do not count). A missing argument takes its
/// default; one that is not a non-negative integer prints a usage line
/// on stderr and exits with code 2.
pub fn args<const N: usize>(spec: [(&str, usize); N]) -> [usize; N] {
    let mut argv = std::env::args();
    let bin = argv.next().unwrap_or_default();
    let bin = bin.rsplit(['/', '\\']).next().unwrap_or_default();
    parse_args(spec, argv).unwrap_or_else(|bad| {
        let names: Vec<String> = spec.iter().map(|(name, _)| format!("[{name}]")).collect();
        eprintln!("usage: {bin} {}\n{bad}", names.join(" "));
        std::process::exit(2);
    })
}

/// [`args`] over an explicit argument list; the error says which
/// argument is not a number.
fn parse_args<const N: usize>(
    spec: [(&str, usize); N],
    argv: impl Iterator<Item = String>,
) -> Result<[usize; N], String> {
    let mut values = spec.map(|(_, default)| default);
    let positional = argv.filter(|a| !a.starts_with("--"));
    for ((value, (name, _)), arg) in values.iter_mut().zip(spec).zip(positional) {
        *value = arg
            .parse()
            .map_err(|_| format!("{name}: `{arg}` is not a non-negative integer"))?;
    }
    Ok(values)
}

/// Default processor counts swept by Figures 6 and 7.
pub fn processor_sweep(n: usize) -> Vec<usize> {
    [1usize, 2, 4, 8, 16, 32]
        .into_iter()
        .filter(|s| *s <= n / 4)
        .collect()
}

/// A formatted table: header plus rows of (label, values-by-column).
pub fn print_table(title: &str, col_names: &[String], rows: &[(String, Vec<String>)]) {
    println!("\n{title}");
    println!("{}", "-".repeat(title.len()));
    let label_w = rows
        .iter()
        .map(|(l, _)| l.len())
        .chain(std::iter::once(8))
        .max()
        .unwrap();
    let col_w = col_names
        .iter()
        .map(|c| c.len())
        .chain(rows.iter().flat_map(|(_, vs)| vs.iter().map(|v| v.len())))
        .max()
        .unwrap()
        + 2;
    print!("{:label_w$}", "");
    for c in col_names {
        print!("{c:>col_w$}");
    }
    println!();
    for (label, values) in rows {
        print!("{label:label_w$}");
        for v in values {
            print!("{v:>col_w$}");
        }
        println!();
    }
}

/// Speedup row helper: sequential (1-processor compile-time) time over
/// each measured time.
pub fn speedups(base: u64, times: &[u64]) -> Vec<String> {
    times
        .iter()
        .map(|t| format!("{:.2}", base as f64 / *t as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_runs_every_variant_small() {
        for variant in [
            Variant::RuntimeRes,
            Variant::CompileTime,
            Variant::OptimizedI,
            Variant::OptimizedII,
            Variant::OptimizedIII { blksize: 2 },
            Variant::Handwritten { blksize: 2 },
        ] {
            let m = run_wavefront(variant, 8, 2, CostModel::ipsc2(), true);
            assert!(m.verified, "{variant} produced a wrong answer");
            assert!(m.makespan > 0);
        }
    }

    #[test]
    fn paper_ordering_holds_at_moderate_size() {
        // Who wins: handwritten ≈ optimized III < optimized II
        // < optimized I < compile-time < run-time.
        let n = 24;
        let s = 4;
        let cost = CostModel::ipsc2();
        let rt = run_wavefront(Variant::RuntimeRes, n, s, cost, false).makespan;
        let ct = run_wavefront(Variant::CompileTime, n, s, cost, false).makespan;
        let o1 = run_wavefront(Variant::OptimizedI, n, s, cost, false).makespan;
        let o2 = run_wavefront(Variant::OptimizedII, n, s, cost, false).makespan;
        let o3 = run_wavefront(Variant::OptimizedIII { blksize: 4 }, n, s, cost, false).makespan;
        let hw = run_wavefront(Variant::Handwritten { blksize: 4 }, n, s, cost, false).makespan;
        assert!(ct < rt, "compile-time {ct} vs run-time {rt}");
        assert!(o1 < ct, "optimized I {o1} vs compile-time {ct}");
        assert!(o2 < o1, "optimized II {o2} vs optimized I {o1}");
        assert!(o3 < o2, "optimized III {o3} vs optimized II {o2}");
        // The handwritten program and optimized III are the same protocol;
        // allow either to edge out the other slightly.
        let ratio = o3 as f64 / hw as f64;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "optimized III ({o3}) should be close to handwritten ({hw})"
        );
    }

    #[test]
    fn arguments_default_when_missing_and_fail_when_unparsable() {
        let spec = [("n", 128), ("s", 8)];
        let argv = |a: &[&str]| {
            a.iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .into_iter()
        };
        assert_eq!(parse_args(spec, argv(&[])), Ok([128, 8]));
        assert_eq!(parse_args(spec, argv(&["16"])), Ok([16, 8]));
        assert_eq!(
            parse_args(spec, argv(&["--metrics", "16", "4"])),
            Ok([16, 4])
        );
        let err = parse_args(spec, argv(&["12x"])).unwrap_err();
        assert!(err.contains("n: `12x`"), "{err}");
        assert!(parse_args(spec, argv(&["16", "-4"])).is_err());
    }

    #[test]
    fn processor_sweep_respects_grid() {
        assert_eq!(processor_sweep(128), vec![1, 2, 4, 8, 16, 32]);
        assert_eq!(processor_sweep(16), vec![1, 2, 4]);
    }
}
