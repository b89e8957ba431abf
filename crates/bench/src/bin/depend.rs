//! Run the exact loop-dependence framework (`pdc-depend`) over every
//! compiler variant of the paper's wavefront, plus Jacobi and a
//! deliberately non-affine scatter kernel, and pin what it proves.
//!
//! For each of the five Figure 6/7 wavefront variants the bin compiles
//! at n=16/s=4 and collects the driver's `Phase::Depend` remarks: all
//! three inlined nests must analyze *exactly*, the interior nest must
//! carry the two paper flow dependences with their witnessing
//! direction/distance vectors — `(<,=)` at distance `(1,0)` on the
//! column loop and `(=,<)` at distance `(0,1)` on the row loop — and
//! the column-cyclic distribution must draw exactly one cross-processor
//! hotspot lint. Jacobi must carry nothing and lint nothing. The
//! scatter kernel's indirect subscript must degrade to `exact = false`
//! with a stated reason, never to a silent claim of independence.
//!
//! Results go to stdout and `BENCH_depend.json`; the bin exits non-zero
//! on any violated expectation.
//!
//! Usage: `cargo run --release -p pdc-bench --bin depend`

use pdc_bench::{compile_wavefront, print_table, Variant};
use pdc_core::programs;
use pdc_depend::ast::{analyze_for_env, nests};
use pdc_machine::metrics::json::Json;
use pdc_report::{Phase, Remark, RemarkKind};
use std::collections::BTreeMap;

const N: usize = 16;
const S: usize = 4;

/// The non-affine control: an indirect scatter whose write subscript
/// the framework must refuse to reason about.
const SCATTER: &str = r#"
procedure scatter(Idx, n) {
    let A = matrix(n, n);
    for i = 1 to n do {
        for j = 1 to n do {
            A[Idx[i, 1], j] = i + j;
        }
    }
    return A;
}
"#;

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

/// What one analyzed program contributes to the table and the JSON.
#[derive(Default)]
struct Row {
    program: &'static str,
    variant: String,
    nests: usize,
    exact_nests: usize,
    carried: usize,
    hotspots: usize,
    exact: bool,
    /// Witnessing `describe()` strings of the carried dependences.
    witnesses: Vec<String>,
    /// First inexactness reason, if any.
    reason: Option<String>,
}

/// Summarize a compiled program's `Phase::Depend` remark stream.
fn summarize(program: &'static str, variant: String, remarks: &[Remark]) -> Row {
    let mut row = Row {
        program,
        variant,
        exact: true,
        ..Row::default()
    };
    for r in remarks.iter().filter(|r| r.phase == Phase::Depend) {
        match r.kind {
            RemarkKind::Applied => {
                row.nests += 1;
                let exact = r.details.iter().any(|(k, v)| k == "exact" && v == "true");
                if exact {
                    row.exact_nests += 1;
                } else {
                    row.exact = false;
                }
                if let Some((_, c)) = r.details.iter().find(|(k, _)| k == "carried") {
                    row.carried += c.parse::<usize>().unwrap_or(0);
                }
                for (k, v) in &r.details {
                    if k.starts_with("dep") && v.contains("carried") {
                        row.witnesses.push(v.clone());
                    }
                }
            }
            RemarkKind::Missed => {
                if r.message.contains("inexact") {
                    if let Some((_, why)) = r.details.iter().find(|(k, _)| k == "reason") {
                        row.reason.get_or_insert_with(|| why.clone());
                    }
                } else {
                    row.hotspots += 1;
                }
            }
        }
    }
    row.witnesses.sort();
    row
}

fn main() {
    let mut rows: Vec<Row> = Vec::new();

    // The five wavefront variants: same source, every strategy/level.
    let variants = [
        Variant::RuntimeRes,
        Variant::CompileTime,
        Variant::OptimizedI,
        Variant::OptimizedII,
        Variant::OptimizedIII { blksize: 4 },
    ];
    for v in variants {
        let compiled = compile_wavefront(v, N, S).expect("compiler variant");
        rows.push(summarize("wavefront", slug(v).into(), &compiled.remarks));
    }

    // Jacobi: nothing carried, nothing linted.
    {
        use pdc_core::driver::{self, Job, Strategy};
        let program = programs::jacobi();
        let job = Job::new(&program, "jacobi", programs::wavefront_decomposition(S))
            .with_const("n", N as i64);
        let compiled = driver::compile(&job, Strategy::CompileTime).expect("jacobi compiles");
        rows.push(summarize(
            "jacobi",
            "compile_time".into(),
            &compiled.remarks,
        ));
    }

    // The non-affine control, analyzed at the source level.
    {
        let prog = pdc_lang::parse(SCATTER).expect("scatter parses");
        let env: BTreeMap<String, i64> = [("n".to_string(), N as i64)].into();
        let mut row = Row {
            program: "scatter",
            variant: "source".into(),
            exact: true,
            ..Row::default()
        };
        for (_, nest) in nests(&prog) {
            let info = analyze_for_env(nest, &env);
            row.nests += 1;
            if info.exact {
                row.exact_nests += 1;
            } else {
                row.exact = false;
                if let Some(note) = info.notes.first() {
                    row.reason.get_or_insert_with(|| note.clone());
                }
            }
            row.carried += info.loop_carried().count();
        }
        rows.push(row);
    }

    // The gate: every row must prove the paper's dependence structure.
    let mut failures = 0usize;
    for r in &rows {
        let name = format!("{}/{}", r.program, r.variant);
        match r.program {
            "wavefront" => {
                if !r.exact || r.carried != 2 || r.hotspots != 1 {
                    eprintln!(
                        "{name}: expected exact wavefront with 2 carried deps \
                         and 1 hotspot, got exact={} carried={} hotspots={}",
                        r.exact, r.carried, r.hotspots
                    );
                    failures += 1;
                }
                let has = |dir: &str, dist: &str| {
                    r.witnesses
                        .iter()
                        .any(|w| w.contains(dir) && w.contains(dist))
                };
                if !has("(<,=)", "(1,0)") || !has("(=,<)", "(0,1)") {
                    eprintln!("{name}: witnessing vectors missing: {:?}", r.witnesses);
                    failures += 1;
                }
            }
            "jacobi" => {
                if !r.exact || r.carried != 0 || r.hotspots != 0 {
                    eprintln!("{name}: Jacobi must carry and lint nothing");
                    failures += 1;
                }
            }
            "scatter" => {
                if r.exact {
                    eprintln!("{name}: non-affine program claimed exact analysis");
                    failures += 1;
                }
                if r.reason.as_deref().is_none_or(str::is_empty) {
                    eprintln!("{name}: inexactness must state its reason");
                    failures += 1;
                }
            }
            _ => {
                eprintln!("{name}: unexpected program");
                failures += 1;
            }
        }
    }

    let runs = rows.iter().map(|r| {
        Json::obj([
            ("program", r.program.into()),
            ("variant", r.variant.as_str().into()),
            ("n", N.into()),
            ("s", S.into()),
            ("nests", r.nests.into()),
            ("exact_nests", r.exact_nests.into()),
            ("exact", r.exact.into()),
            ("carried", r.carried.into()),
            ("hotspots", r.hotspots.into()),
            (
                "witnesses",
                r.witnesses.iter().map(String::as_str).collect(),
            ),
            ("reason", r.reason.as_deref().into()),
        ])
    });
    let doc = Json::obj([("runs", runs.collect())]);
    std::fs::write("BENCH_depend.json", format!("{doc:#}\n")).expect("write BENCH_depend.json");
    println!("wrote BENCH_depend.json");

    print_table(
        "exact loop-dependence analysis",
        &[
            "nests".into(),
            "exact".into(),
            "carried".into(),
            "hotspots".into(),
            "reason".into(),
        ],
        &rows
            .iter()
            .map(|r| {
                (
                    format!("{} {}", r.program, r.variant),
                    vec![
                        format!("{}/{}", r.exact_nests, r.nests),
                        r.exact.to_string(),
                        r.carried.to_string(),
                        r.hotspots.to_string(),
                        r.reason.clone().unwrap_or_else(|| "—".into()),
                    ],
                )
            })
            .collect::<Vec<_>>(),
    );

    if failures > 0 {
        eprintln!("\n{failures} dependence expectation(s) violated");
        std::process::exit(1);
    }
    println!("\nevery paper variant analyzed exactly; non-affine control degraded honestly");
}
