//! Order statistics over latency samples.
//!
//! Every timing is summarised as a median plus the highest percentile
//! of a fixed ladder that still has at least [`MIN_BEYOND`] samples
//! beyond it, with the sample count alongside.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples, computed
/// in integer per-mille so `99.9 %` of 10 000 is exactly rank 9990.
fn rank(n: usize, p: f64) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank position of `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when even the lowest rung is unsupported.
pub fn supported_tail(n: usize) -> Option<f64> {
    LADDER.into_iter().find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Median of unsorted samples.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, 50.0)
}

/// A summarised set of timing samples.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The highest supported ladder percentile (see [`supported_tail`]).
    pub tail_p: Option<f64>,
    /// Value at `tail_p`.
    pub tail: Option<f64>,
    sorted: Vec<f64>,
}

impl Summary {
    /// Summarise `values` (any order). Panics on an empty set: a run
    /// that made no call has nothing to report.
    pub fn new(values: &[f64]) -> Summary {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail_p = supported_tail(sorted.len());
        Summary {
            n: sorted.len(),
            p50: percentile_sorted(&sorted, 50.0),
            tail_p,
            tail: tail_p.map(|p| percentile_sorted(&sorted, p)),
            sorted,
        }
    }

    /// A named percentile, with whether the sample supports it
    /// (at least [`MIN_BEYOND`] samples beyond).
    pub fn at(&self, p: f64) -> (f64, bool) {
        (
            percentile_sorted(&self.sorted, p),
            beyond(self.n, p) >= MIN_BEYOND,
        )
    }

    /// One-line rendering: `p50=… p99=… (n=…)`, where the tail is the
    /// highest supported percentile.
    pub fn describe(&self) -> String {
        match (self.tail_p, self.tail) {
            (Some(p), Some(t)) => format!("p50={} p{p}={} (n={})", sig(self.p50), sig(t), self.n),
            _ => format!("p50={} (n={}, no tail supported)", sig(self.p50), self.n),
        }
    }
}

/// Five significant digits, fixed or scientific.
fn sig(v: f64) -> String {
    if v.abs() >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.4e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        // 2000 samples: p99.9 leaves 2 beyond, p99 leaves 20.
        assert_eq!(supported_tail(2000), Some(99.0));
        // Exactly 1000: p99 rank 990 leaves 10 beyond — supported.
        assert_eq!(supported_tail(1000), Some(99.0));
        // 999: p99 rank 990 leaves 9; p95 rank 950 leaves 49.
        assert_eq!(supported_tail(999), Some(95.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(40), Some(75.0));
        assert_eq!(supported_tail(39), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn summary_reports_supported_tail_and_flags_unsupported_names() {
        let v: Vec<f64> = (0..500).rev().map(f64::from).collect();
        let s = Summary::new(&v);
        assert_eq!(s.n, 500);
        assert_eq!(s.p50, 249.0);
        assert_eq!(s.tail_p, Some(95.0));
        assert_eq!(s.tail, Some(474.0));
        assert_eq!(s.at(99.0), (494.0, false));
        assert_eq!(s.at(95.0), (474.0, true));
    }
}
