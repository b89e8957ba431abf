//! One workload, one pass, in this process: set up, warm up, iterate for
//! the requested time, check every op, and turn the samples into the
//! metrics of `spec.rs`.

use crate::adapter::parse_json;
use crate::probes;
use crate::spans::{self, Recorder};
use crate::spec::{Metric, END_TO_END, PER_LAYER};
use crate::stats::{describe, median};
use crate::workloads::{self, Baseline, Setup, Workload};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Timed iterations a run makes however long one takes.
const MIN_ITERATIONS: usize = 3;
/// Traced/untraced iteration pairs a traced run makes at least.
const MIN_TRACED_PAIRS: usize = 2;

/// The outcome of one pass over one workload.
pub struct Report {
    /// Ops run and checked (probe checks included in a traced pass).
    pub attempted: u64,
    /// One line per op or check that failed.
    pub failures: Vec<String>,
    /// Every metric of the pass's table, in table order.
    pub metrics: Vec<(&'static Metric, f64)>,
    /// The human-readable account of the pass.
    pub text: String,
}

impl Report {
    /// The result line the benchmark contract asks for.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(m, v)| {
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted,
            // A failure that is no op's (an unmeasured metric) still fails
            // the run, but never counts more ops than were attempted.
            (self.failures.len() as u64).min(self.attempted),
            metrics.join(", ")
        )
    }
}

/// Directory the traces and result lines are written to.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Hardware threads the host offers; recorded with every result because
/// the threaded probes depend on it.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// The process's peak resident set (`VmHWM`) in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// Pair every metric of `table` with its value; a metric nothing measured
/// is a failure, never a silent zero.
fn tabulate(
    table: &'static [Metric],
    values: &BTreeMap<&'static str, f64>,
    failures: &mut Vec<String>,
) -> Vec<(&'static Metric, f64)> {
    table
        .iter()
        .map(|m| match values.get(m.name) {
            Some(v) if v.is_finite() => (m, *v),
            _ => {
                failures.push(format!("metric {} was not measured", m.name));
                (m, 0.0)
            }
        })
        .collect()
}

struct Warm {
    setup: Setup,
    baseline: Option<Baseline>,
    attempted: u64,
    failures: Vec<String>,
    warmup_s: f64,
}

impl Warm {
    /// Run and check one iteration; returns its wall seconds.
    fn iteration(&mut self, w: &Workload, rec: &mut Recorder) -> f64 {
        let it = workloads::iterate(w, &self.setup, rec);
        let secs = it.secs;
        self.attempted += w.ops.len() as u64;
        self.failures
            .extend(workloads::check(w, &self.setup, it, &mut self.baseline));
        secs
    }
}

/// The untimed warm-up iteration, which also establishes the baseline
/// every later iteration is compared with.
fn warm_up(w: &Workload, setup: Setup) -> Warm {
    let mut warm = Warm {
        setup,
        baseline: None,
        attempted: 0,
        failures: Vec::new(),
        warmup_s: 0.0,
    };
    warm.warmup_s = warm.iteration(w, &mut Recorder::off());
    warm
}

/// The end-to-end pass: span recorder off.
pub fn end_to_end(w: &Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut setup_secs = Vec::new();
    let mut setup: Option<Setup> = None;
    let mut nondeterministic = false;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let s = workloads::setup(w, seed)?;
        setup_secs.push(t.elapsed().as_secs_f64());
        if let Some(prev) = &setup {
            nondeterministic |= !workloads::same_builds(prev, &s);
        }
        setup = Some(s);
    }
    let mut warm = warm_up(w, setup.expect("SETUP_REPS > 0"));
    if nondeterministic {
        warm.failures
            .push("set-up compiled different code or remarks on a second try".to_owned());
    }

    let budget = Duration::from_secs_f64(seconds);
    let rec = &mut Recorder::off();
    let mut samples = Vec::new();
    let t_loop = Instant::now();
    while samples.len() < MIN_ITERATIONS || t_loop.elapsed() < budget {
        samples.push(warm.iteration(w, rec));
    }

    let e2e = median(&samples);
    let (makespan, messages) = warm
        .baseline
        .as_ref()
        .map_or((0, 0), |b| b.logical_totals(w));
    let values = BTreeMap::from([
        ("e2e_s", e2e),
        ("points_per_s", w.points_per_iteration() as f64 / e2e),
        ("logical_makespan_cycles", makespan as f64),
        ("logical_messages", messages as f64),
        ("peak_rss_mib", peak_rss_mib()?),
        ("setup_s", median(&setup_secs)),
    ]);
    let metrics = tabulate(&END_TO_END, &values, &mut warm.failures);

    let mut text = format!(
        "== {} · end-to-end pass · seed {seed} · {seconds} s · closed loop, 1 client ==\n",
        w.name
    );
    let _ = writeln!(text, "iteration: {} s", describe(&samples));
    let _ = writeln!(
        text,
        "set-up:    {} s; warm-up iteration {:.4} s",
        describe(&setup_secs),
        warm.warmup_s
    );
    write_table(&mut text, &metrics, true);
    write_failures(&mut text, warm.attempted, &warm.failures);
    Ok(Report {
        attempted: warm.attempted,
        failures: warm.failures,
        metrics,
        text,
    })
}

/// The traced pass: alternating untraced and traced iterations of the
/// workload, then the layer probes.
pub fn traced(w: &Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut warm = warm_up(w, workloads::setup(w, seed)?);
    let budget = Duration::from_secs_f64(seconds / 2.0);
    let mut rec = Recorder::on();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    // (first span, one past the last span, wall seconds) per traced iteration.
    let mut ranges: Vec<(usize, usize, f64)> = Vec::new();
    let t_loop = Instant::now();
    while ranges.len() < MIN_TRACED_PAIRS || t_loop.elapsed() < budget {
        // Alternate which kind goes first, so drift favours neither.
        let even = ranges.len().is_multiple_of(2);
        for traced_now in [!even, even] {
            if traced_now {
                let from = rec.spans.len();
                let secs = warm.iteration(w, &mut rec);
                ranges.push((from, rec.spans.len(), secs));
                traced.push(secs);
            } else {
                plain.push(warm.iteration(w, &mut Recorder::off()));
            }
        }
    }

    // Each layer's self time and each phase's time as a share of the
    // iteration that contains it; medians over the traced iterations.
    let own = spans::self_times(&rec.spans);
    let mut shares: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for &(from, to, secs) in &ranges {
        let layers = spans::layer_self_times(&rec.spans, &own, from..to);
        let phases = spans::totals_by_name(&rec.spans[from..to]);
        for m in &PER_LAYER {
            let part = if let Some(layer) = m.name.strip_prefix("share.") {
                layers.get(layer)
            } else if let Some(phase) = m.name.strip_prefix("phase.") {
                phases.get(format!("bench.{phase}").as_str())
            } else {
                continue;
            };
            shares
                .entry(m.name)
                .or_default()
                .push(part.copied().unwrap_or(0.0) / secs * 100.0);
        }
        shares
            .entry("bench.self_sum_ratio")
            .or_default()
            .push(layers.values().sum::<f64>() / secs);
    }
    let mut values: BTreeMap<&'static str, f64> =
        shares.iter().map(|(k, v)| (*k, median(v))).collect();
    values.insert(
        "bench.trace_overhead_ratio",
        median(&traced) / median(&plain),
    );
    values.insert(
        "bench.spans_per_iteration",
        (rec.spans.len() / ranges.len()) as f64,
    );
    values.insert("bench.warmup_s", warm.warmup_s);
    values.insert("bench.traced_iterations", ranges.len() as f64);
    values.insert("bench.traced_e2e_s", median(&traced));
    values.insert("bench.untraced_e2e_s", median(&plain));
    values.insert("bench.host_parallelism", host_parallelism() as f64);

    // The trace file, re-read to prove it is what a viewer will load.
    let dir = out_dir();
    let path = dir.join(format!("trace_{}.json", w.name));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    std::fs::write(&path, spans::chrome_trace(w.name, &rec.spans))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let reread = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
    let events = parse_json(&reread).ok().and_then(|d| {
        d.get("traceEvents")
            .and_then(|e| e.as_arr())
            .map(<[_]>::len)
    });
    warm.attempted += 1;
    if events != Some(rec.spans.len()) {
        warm.failures.push(format!(
            "{}: {events:?} events read back, {} spans written",
            path.display(),
            rec.spans.len()
        ));
    }

    let probed = probes::run(seed)?;
    warm.attempted += probed.attempted;
    warm.failures.extend(probed.failures);
    values.extend(probed.values);
    let metrics = tabulate(&PER_LAYER, &values, &mut warm.failures);

    let mut text = format!(
        "== {} · traced pass · seed {seed} · {} traced + {} untraced iterations, then the layer probes ==\n",
        w.name,
        traced.len(),
        plain.len()
    );
    let _ = writeln!(text, "traced iteration:   {} s", describe(&traced));
    let _ = writeln!(text, "untraced iteration: {} s", describe(&plain));
    let _ = writeln!(
        text,
        "trace: {} ({} spans)",
        path.display(),
        rec.spans.len()
    );
    write_table(&mut text, &metrics, false);
    write_failures(&mut text, warm.attempted, &warm.failures);
    Ok(Report {
        attempted: warm.attempted,
        failures: warm.failures,
        metrics,
        text,
    })
}

fn write_table(text: &mut String, metrics: &[(&'static Metric, f64)], bounds: bool) {
    for (m, v) in metrics {
        let better = if m.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        let _ = write!(
            text,
            "  {:<36} {v:>18.6} {:<9} {better} is better",
            m.name, m.unit
        );
        if bounds {
            let _ = write!(text, ", may worsen by {}%", m.bound * 100.0);
        }
        text.push('\n');
    }
}

fn write_failures(text: &mut String, attempted: u64, failures: &[String]) {
    let _ = writeln!(
        text,
        "  ops_attempted {attempted}, ops_failed {}",
        failures.len()
    );
    for f in failures {
        let _ = writeln!(text, "  FAILED {f}");
    }
}
