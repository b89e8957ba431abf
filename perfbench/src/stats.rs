//! Order statistics over timing samples.

/// Median of `xs`, averaging the two middle values of an even count.
///
/// # Panics
///
/// Panics on an empty slice: every caller samples at least once.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// First and third quartile by the method of Python's
/// `statistics.quantiles(xs, n=4)` (exclusive), which is what the
/// benchmark's acceptance check computes; a single sample is its own
/// quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return (v[0], v[0]);
    }
    let at = |k: usize| {
        // Rank k·(n+1)/4, 1-based; like Python, a rank outside the data
        // extrapolates from the nearest pair.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// The highest of the usual percentiles that still has at least ten
/// samples beyond it, with its value; `None` below twenty samples, where
/// no tail estimate repeats.
pub fn tail_percentile(xs: &[f64]) -> Option<(f64, f64)> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    // Per mille, so that "ten beyond" is decided in whole numbers.
    [999usize, 990, 950, 900, 750, 500]
        .into_iter()
        .find(|pm| n * (1000 - pm) >= 10 * 1000)
        .map(|pm| {
            let rank = (n * pm).div_ceil(1000);
            (pm as f64 / 10.0, v[rank.clamp(1, n) - 1])
        })
}

/// One line describing a timing distribution: median, quartiles, sample
/// count, the informational tail percentile (or why there is none), and
/// the samples in the order taken.
pub fn describe(xs: &[f64]) -> String {
    let (q1, q3) = quartiles(xs);
    let tail = match tail_percentile(xs) {
        Some((p, v)) => format!("p{p} {v:.4}"),
        None => "no tail percentile: fewer than ten samples beyond any".to_owned(),
    };
    let all: Vec<String> = xs.iter().map(|x| format!("{x:.4}")).collect();
    format!(
        "median {:.4} q1 {q1:.4} q3 {q3:.4} n {} ({tail}) [{}]",
        median(xs),
        xs.len(),
        all.join(" ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let xs = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail_percentile(&xs(8)), None);
        assert_eq!(tail_percentile(&xs(19)), None);
        assert_eq!(tail_percentile(&xs(20)), Some((50.0, 10.0)));
        assert_eq!(tail_percentile(&xs(40)), Some((75.0, 30.0)));
        assert_eq!(tail_percentile(&xs(100)), Some((90.0, 90.0)));
        assert_eq!(tail_percentile(&xs(1000)), Some((99.0, 990.0)));
        assert!(describe(&xs(8)).contains("no tail percentile"));
    }
}
