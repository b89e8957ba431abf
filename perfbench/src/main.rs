//! The pdc benchmark. See `README.md` beside this crate and
//! `BENCHMARK.json` at the repository root.
//!
//! ```text
//! pdc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! pdc-perfbench all [--seed <n>] [--seconds <s>] [--out <file.jsonl>]
//! pdc-perfbench compare <parent.jsonl> <change.jsonl>
//! ```
//!
//! The first form is what `BENCHMARK.json` names: one workload, one pass,
//! the result as the last line of standard output. `all` makes both
//! passes over every workload and appends one result line to a file that
//! `compare` reads. Either way each pass runs in a child process of its
//! own under a wall-clock cap, so a stalled run is a failure with a
//! number, never a hung benchmark. Exit code 0: every op correct; 1: an op
//! failed (the result says how many); 2: no result.

mod adapter;
mod compare;
mod probes;
mod runner;
mod spans;
mod spec;
mod stats;
mod workloads;

use adapter::{parse_json, Json};
use std::io::Read;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;
use workloads::WORKLOADS;

/// `run_seconds` of `BENCHMARK.json`, the default of `all`.
const DEFAULT_SECONDS: f64 = 20.0;
/// Wall-clock cap on one pass. The benchmark contract gives a run 180 s,
/// which is less than ten times what any pass takes, so the contract sets
/// the cap; this leaves time to report.
const CHILD_CAP: Duration = Duration::from_secs(165);

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn parse_flags(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot read `{value}`");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value.clone()),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 60.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => parsed.out = Some(value.clone()),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("child") => parse_flags(&args[1..]).and_then(|a| child(&a)),
        Some("all") => parse_flags(&args[1..]).and_then(|a| all(&a)),
        Some("compare") if args.len() == 3 => compare::run(&args[1], &args[2]),
        Some(f) if f.starts_with("--") => parse_flags(&args).and_then(|a| one(&a)),
        _ => Err(
            "usage: --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                  | all [--seed <n>] [--seconds <s>] [--out <file>] \
                  | compare <parent.jsonl> <change.jsonl>"
                .to_owned(),
        ),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("pdc-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// One pass over one workload in this process; prints the account and,
/// last, the result line. `Ok(false)` when an op failed.
fn child(args: &Args) -> Result<bool, String> {
    let name = args.workload.as_deref().ok_or("--workload is required")?;
    let w = workloads::workload(name, args.seed).ok_or_else(|| {
        format!(
            "no workload `{name}`; there are {:?}",
            WORKLOADS.map(|w| w.0)
        )
    })?;
    let report = if args.trace {
        runner::traced(&w, args.seed, args.seconds)?
    } else {
        runner::end_to_end(&w, args.seed, args.seconds)?
    };
    print!("{}", report.text);
    println!("{}", report.json_line());
    Ok(report.failures.is_empty())
}

/// What a supervised child left behind: its output, and whether every op
/// was correct (exit code 0) or some failed (exit code 1).
struct ChildRun {
    stdout: String,
    correct: bool,
}

/// Re-execute this program as `child …` and wait for it, killing it at
/// [`CHILD_CAP`]. A child that was killed, or that exited without a
/// result, is an error.
fn supervise(name: &str, args: &Args, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = Command::new(exe)
        .arg("child")
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| e.to_string())?;
    let mut pipe = child.stdout.take().expect("stdout was piped");
    // The reader returns at end of file, which is when the child exits, so
    // waiting on it with a deadline keeps this process asleep throughout.
    let (done, finished) = std::sync::mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        let read = pipe.read_to_string(&mut s).map(|_| s);
        let _ = done.send(());
        read
    });
    let in_time = finished.recv_timeout(CHILD_CAP).is_ok();
    if !in_time {
        let _ = child.kill();
    }
    let status = child.wait().map_err(|e| e.to_string())?;
    let stdout = reader
        .join()
        .map_err(|_| "reader thread panicked".to_owned())?
        .map_err(|e| e.to_string())?;
    let pass = format!("{name} (trace {})", u8::from(trace));
    if !in_time {
        return Err(format!(
            "{pass} did not finish within {} s and was killed",
            CHILD_CAP.as_secs()
        ));
    }
    match status.code() {
        Some(0) => Ok(ChildRun {
            stdout,
            correct: true,
        }),
        Some(1) => Ok(ChildRun {
            stdout,
            correct: false,
        }),
        _ => Err(format!("{pass} ended without a result: {status}")),
    }
}

/// The form `BENCHMARK.json` names: one supervised pass, its output
/// passed through.
fn one(args: &Args) -> Result<bool, String> {
    let name = args.workload.as_deref().ok_or("--workload is required")?;
    let run = supervise(name, args, args.trace)?;
    print!("{}", run.stdout);
    Ok(run.correct)
}

/// The result line of a child's output, parsed.
fn result_line(stdout: &str) -> Result<Json, String> {
    let line = stdout.lines().last().ok_or("the child printed nothing")?;
    parse_json(line)
}

/// Both passes over every workload; prints every metric by name with its
/// unit and appends one result line to `--out`.
fn all(args: &Args) -> Result<bool, String> {
    let mut clean = true;
    let mut workloads_json = Vec::new();
    for (name, why) in WORKLOADS {
        println!("\n# {name}: {why}");
        let mut attempted = 0.0;
        let mut failed = 0.0;
        let mut tables = Vec::new();
        for trace in [false, true] {
            let metrics = match supervise(name, args, trace) {
                Ok(run) => {
                    print!("{}", run.stdout);
                    let doc = result_line(&run.stdout)?;
                    let num = |k: &str| doc.get(k).and_then(Json::as_num).unwrap_or(0.0);
                    attempted += num("attempted");
                    failed += num("failed");
                    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
                        return Err(format!("{name}: result line has no metrics"));
                    };
                    metrics
                        .iter()
                        .filter_map(|(k, v)| {
                            Some(format!("\"{k}\": {}", v.get("value")?.as_num()?))
                        })
                        .collect::<Vec<_>>()
                        .join(", ")
                }
                Err(stalled) => {
                    // Every op of the iteration that never finished.
                    let ops = workloads::workload(name, args.seed).map_or(1, |w| w.ops.len());
                    println!("FAILED {stalled}");
                    attempted += ops as f64;
                    failed += ops as f64;
                    String::new()
                }
            };
            tables.push(metrics);
        }
        clean &= failed == 0.0;
        workloads_json.push(format!(
            "\"{name}\": {{\"attempted\": {attempted}, \"failed\": {failed}, \
             \"end_to_end\": {{{}}}, \"per_layer\": {{{}}}}}",
            tables[0], tables[1]
        ));
    }
    let line = format!(
        "{{\"seed\": {}, \"seconds\": {}, \"host_parallelism\": {}, \"workloads\": {{{}}}}}\n",
        args.seed,
        args.seconds,
        runner::host_parallelism(),
        workloads_json.join(", ")
    );
    parse_json(line.trim_end()).map_err(|e| format!("result line does not parse: {e}"))?;
    let path = match &args.out {
        Some(p) => std::path::PathBuf::from(p),
        None => {
            let dir = runner::out_dir();
            std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
            dir.join("results.jsonl")
        }
    };
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    std::io::Write::write_all(&mut file, line.as_bytes()).map_err(|e| e.to_string())?;
    println!(
        "\nresult line appended to {}; ops_failed {}",
        path.display(),
        if clean { "0" } else { "> 0" }
    );
    Ok(clean)
}
