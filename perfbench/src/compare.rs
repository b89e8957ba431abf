//! `compare <a.jsonl> <b.jsonl>`: judge a change (b) against its parent
//! (a) per workload and end-to-end metric, from the result lines `all`
//! appends — one line per run, so a file holds as many runs as were made.

use crate::adapter::{parse_json, Json};
use crate::spec::{Metric, END_TO_END};
use crate::stats::{median, quartiles};
use crate::workloads::WORKLOADS;

/// Pairs below which no gain may be claimed (choosing-metrics §8).
const MIN_PAIRS_FOR_A_GAIN: usize = 10;

/// What the runs say about one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins nine tenths of at least ten pairs and the medians
    /// differ by more than the parent's quartile spread.
    Improved,
    /// The change's median is no worse than the parent's by more than the
    /// bound, and the parent's runs are steady enough to say so.
    Unchanged,
    /// The change's median is worse by more than the bound.
    Regressed,
    /// The parent's own runs spread wider than the bound, and not every
    /// run of the change beats every run of the parent.
    Unresolved,
}

/// Judge runs `b` of a change against runs `a` of its parent. Runs are
/// paired by position, so alternate the sides when making them.
pub fn classify(a: &[f64], b: &[f64], m: &Metric) -> Verdict {
    let better = |x: f64, than: f64| {
        if m.higher_is_better {
            x > than
        } else {
            x < than
        }
    };
    let (ma, mb) = (median(a), median(b));
    let (q1, q3) = quartiles(a);
    let iqr = q3 - q1;
    let worse_by = if m.higher_is_better { ma - mb } else { mb - ma } / ma.abs();
    let all_b_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    let all_b_worse = b.iter().all(|&y| a.iter().all(|&x| better(x, y)));
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|(&x, &y)| better(y, x)).count();
    if pairs >= MIN_PAIRS_FOR_A_GAIN
        && wins * 10 >= pairs * 9
        && better(mb, ma)
        && (mb - ma).abs() > iqr
    {
        return Verdict::Improved;
    }
    let steady = iqr / ma.abs() <= m.bound;
    if worse_by > m.bound && (steady || all_b_worse) {
        Verdict::Regressed
    } else if !steady && !all_b_better {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

/// One side's runs: per workload, the values of each end-to-end metric
/// and the failed and attempted ops.
struct Side {
    lines: Vec<Json>,
}

impl Side {
    fn read(path: &str) -> Result<Side, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let lines = text
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| parse_json(l).map_err(|e| format!("{path}: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        if lines.is_empty() {
            return Err(format!("{path}: no result lines"));
        }
        Ok(Side { lines })
    }

    fn workload<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Json> {
        self.lines
            .iter()
            .filter_map(move |l| l.get("workloads").and_then(|w| w.get(name)))
    }

    fn values(&self, workload: &str, metric: &str) -> Vec<f64> {
        self.workload(workload)
            .filter_map(|w| w.get("end_to_end")?.get(metric)?.as_num())
            .collect()
    }

    fn failed_share(&self, workload: &str) -> f64 {
        let sum = |key: &str| -> f64 {
            self.workload(workload)
                .filter_map(|w| w.get(key)?.as_num())
                .sum()
        };
        sum("failed") / sum("attempted").max(1.0)
    }
}

/// Print the verdict table; `Ok(true)` when nothing regressed.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (Side::read(path_a)?, Side::read(path_b)?);
    println!(
        "parent: {path_a} ({} runs)   change: {path_b} ({} runs)",
        a.lines.len(),
        b.lines.len()
    );
    if a.lines.len().min(b.lines.len()) < MIN_PAIRS_FOR_A_GAIN {
        println!("fewer than {MIN_PAIRS_FOR_A_GAIN} pairs: no gain can be claimed from these runs");
    }
    println!(
        "{:<16} {:<24} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "parent median", "change median", "change", "bound"
    );
    let mut clean = true;
    for (workload, _) in WORKLOADS {
        for m in &END_TO_END {
            let (va, vb) = (a.values(workload, m.name), b.values(workload, m.name));
            if va.is_empty() || vb.is_empty() {
                println!("{workload:<16} {:<24} missing on one side", m.name);
                clean = false;
                continue;
            }
            let verdict = classify(&va, &vb, m);
            clean &= verdict != Verdict::Regressed;
            let (ma, mb) = (median(&va), median(&vb));
            println!(
                "{workload:<16} {:<24} {ma:>14.6} {mb:>14.6} {:>+8.2}% {:>6.1}%  {verdict:?}",
                m.name,
                (mb - ma) / ma * 100.0,
                m.bound * 100.0
            );
        }
        let (fa, fb) = (a.failed_share(workload), b.failed_share(workload));
        if fb > fa {
            println!(
                "{workload:<16} failed ops rose from {fa:.4} to {fb:.4} of attempted: Regressed"
            );
            clean = false;
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Metric = Metric {
        name: "e2e_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.05,
    };
    const HIGHER: Metric = Metric {
        name: "points_per_s",
        unit: "points/s",
        higher_is_better: true,
        bound: 0.05,
    };

    fn steady(center: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| center * (1.0 + 0.002 * (i % 5) as f64))
            .collect()
    }

    #[test]
    fn a_change_within_the_bound_is_unchanged() {
        assert_eq!(
            classify(&steady(1.0, 10), &steady(1.03, 10), &LOWER),
            Verdict::Unchanged
        );
        assert_eq!(classify(&[1.0], &[1.0], &LOWER), Verdict::Unchanged);
    }

    #[test]
    fn a_median_worse_than_the_bound_regresses_in_the_metrics_direction() {
        assert_eq!(
            classify(&steady(1.0, 10), &steady(1.08, 10), &LOWER),
            Verdict::Regressed
        );
        assert_eq!(
            classify(&steady(100.0, 10), &steady(92.0, 10), &HIGHER),
            Verdict::Regressed
        );
        assert_eq!(classify(&[1.0], &[1.2], &LOWER), Verdict::Regressed);
    }

    #[test]
    fn a_gain_needs_ten_pairs_nine_wins_and_more_than_the_parents_spread() {
        assert_eq!(
            classify(&steady(1.0, 10), &steady(0.9, 10), &LOWER),
            Verdict::Improved
        );
        assert_eq!(
            classify(&steady(100.0, 10), &steady(110.0, 10), &HIGHER),
            Verdict::Improved
        );
        // Too few pairs.
        assert_eq!(
            classify(&steady(1.0, 5), &steady(0.9, 5), &LOWER),
            Verdict::Unchanged
        );
        // Medians closer than the parent's quartile spread.
        assert_eq!(
            classify(&steady(1.0, 10), &steady(0.9995, 10), &LOWER),
            Verdict::Unchanged
        );
        // Eight wins of ten.
        let mut b = steady(0.9, 10);
        b[0] = 1.2;
        b[1] = 1.2;
        assert_eq!(classify(&steady(1.0, 10), &b, &LOWER), Verdict::Unchanged);
    }

    #[test]
    fn a_noisy_parent_leaves_the_metric_unresolved() {
        let noisy: Vec<f64> = (0..10).map(|i| 1.0 + 0.03 * i as f64).collect();
        assert_eq!(
            classify(&noisy, &steady(1.1, 10), &LOWER),
            Verdict::Unresolved
        );
        // ... unless every run of the change beats every run of the parent
        assert_eq!(
            classify(&noisy, &steady(0.5, 10), &LOWER),
            Verdict::Improved
        );
        assert_eq!(
            classify(&noisy[..4], &steady(0.5, 4), &LOWER),
            Verdict::Unchanged
        );
        // ... or loses to every one of them.
        assert_eq!(
            classify(&noisy, &steady(2.0, 10), &LOWER),
            Verdict::Regressed
        );
    }
}
