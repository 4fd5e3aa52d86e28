//! Sample summaries: median, quartiles and the tail percentile.

/// Summary of one timing metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile (Python `statistics.quantiles(n=4)`, exclusive method).
    pub q1: f64,
    /// Third quartile (same method).
    pub q3: f64,
    /// The highest sample with at least [`TAIL_BEYOND`] samples above it,
    /// or the maximum when there are too few samples for that.
    pub tail: f64,
    /// Samples strictly above `tail` in rank (10, or fewer for short runs).
    pub tail_beyond: usize,
}

/// Samples that must lie beyond the reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// Summarize `samples` (any order; must be non-empty and finite).
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "summary of no samples");
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    let n = s.len();
    let median = if n % 2 == 1 { s[n / 2] } else { (s[n / 2 - 1] + s[n / 2]) / 2.0 };
    let (q1, q3) = quartiles(&s);
    let (tail, tail_beyond) =
        if n > TAIL_BEYOND { (s[n - 1 - TAIL_BEYOND], TAIL_BEYOND) } else { (s[n - 1], 0) };
    Summary { n, median, q1, q3, tail, tail_beyond }
}

/// First and third quartile of sorted data by the exclusive method that
/// Python's `statistics.quantiles(data, n=4)` uses by default.
fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n == 1 {
        return (sorted[0], sorted[0]);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Whether a run should set up once more: a traced run sets up once; an
/// untraced run repeats until it has at least 3 set-ups and 5 s of
/// set-up time, with at most 15 set-ups. `setup_s` is their median.
pub fn another_setup(trace: bool, done: &[f64]) -> bool {
    if trace {
        return done.is_empty();
    }
    done.len() < 3 || (done.len() < 15 && done.iter().sum::<f64>() < 5.0)
}

/// Median of `samples` (non-empty).
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (0..40).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.tail, s.tail_beyond), (29.0, 10));
        let short = summarize(&[1.0, 5.0, 2.0]);
        assert_eq!((short.tail, short.tail_beyond), (5.0, 0));
    }
}
