//! Order statistics for timing samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! exclusive method), because that is what the acceptance procedure in
//! `BENCHMARK.json`'s contract computes spreads with.

/// Median, quartiles, minimum and sample count of one timing series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub n: usize,
}

impl Summary {
    /// Interquartile range as a share of the median (0 when the median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `p`-quantile (0..=1) at exclusive position `p·(n+1)`, linearly
/// interpolated and clamped to the sample range.
fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    let pos = p * (n as f64 + 1.0);
    let lo = (pos.floor() as usize).clamp(1, n);
    let hi = (lo + 1).min(n);
    let frac = (pos - lo as f64).clamp(0.0, 1.0);
    sorted[lo - 1] + (sorted[hi - 1] - sorted[lo - 1]) * frac
}

pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// Summary of a non-empty series. A single sample is its own quartiles.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "no samples to summarize");
    let s = sorted(values);
    Summary {
        median: quantile_sorted(&s, 0.5),
        q1: quantile_sorted(&s, 0.25),
        q3: quantile_sorted(&s, 0.75),
        min: s[0],
        n: s.len(),
    }
}

/// The `p`-percentile by nearest rank: the smallest sample with at least
/// `p` of the series at or below it.
pub fn nearest_rank(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "no samples to rank");
    let s = sorted(values);
    s[(((s.len() as f64) * p).ceil() as usize).clamp(1, s.len()) - 1]
}

/// The highest percentile, at most `cap`, that still has at least ten
/// samples beyond it: returns `(percentile, value)`, or `None` with fewer
/// than eleven samples (no percentile has ten beyond it).
pub fn tail_percentile(values: &[f64], cap: f64) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 11 {
        return None;
    }
    let s = sorted(values);
    // The sample at 0-based rank r has n-1-r samples beyond it.
    let rank = (((n as f64) * cap).ceil() as usize)
        .saturating_sub(1)
        .min(n - 11);
    Some(((rank + 1) as f64 / n as f64, s[rank]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.min, s.n), (1.0, 10));
        assert!((s.spread() - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // Even count: the median averages the middle pair.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // One sample is its own summary.
        let s = summarize(&[7.0]);
        assert_eq!((s.q1, s.median, s.q3, s.spread()), (7.0, 7.0, 7.0, 0.0));
    }

    #[test]
    fn nearest_rank_picks_a_sample() {
        let v: Vec<f64> = (1..=64).rev().map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.99), 64.0);
        assert_eq!(nearest_rank(&v, 0.5), 32.0);
        assert_eq!(nearest_rank(&v, 0.0), 1.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 of 1000 has exactly ten beyond it.
        assert_eq!(tail_percentile(&v, 0.99), Some((0.99, 990.0)));
        // With 100 samples p99 would leave one beyond: fall back to p90.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.99), Some((0.9, 90.0)));
        // Eleven samples: only the minimum qualifies; ten: nothing does.
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.99), Some((1.0 / 11.0, 1.0)));
        assert_eq!(tail_percentile(&v[..10], 0.99), None);
    }
}
