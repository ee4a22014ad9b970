//! Streaming statistics: scalar summaries, latency histograms and
//! throughput accounting for the measurement harnesses.

use std::fmt;

use crate::time::{SimDuration, SimTime};

/// Streaming scalar summary (count / min / max / mean / variance) using
/// Welford's online algorithm.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance, or 0 if fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observation, or 0 if empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Maximum observation, or 0 if empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.2} sd={:.2} min={:.2} max={:.2}",
            self.count,
            self.mean(),
            self.stddev(),
            self.min(),
            self.max()
        )
    }
}

/// Log-scaled latency histogram (nanoseconds).
///
/// Buckets are powers of two from 1 ns up; quantiles are answered to
/// bucket resolution, which is ample for reporting p50/p99 of simulated
/// paths.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum_ns: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram covering 1ns ..= ~18s.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; 64],
            count: 0,
            sum_ns: 0,
        }
    }

    /// Record one latency observation.
    pub fn record(&mut self, d: SimDuration) {
        let ns = d.as_nanos().max(1);
        let idx = (63 - ns.leading_zeros()) as usize;
        self.buckets[idx.min(63)] += 1;
        self.count += 1;
        self.sum_ns += ns as u128;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency.
    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_nanos((self.sum_ns / self.count as u128) as u64)
    }

    /// Quantile `q` in \[0, 1\], to bucket (power-of-two) resolution:
    /// returns an upper bound of the bucket containing the quantile.
    pub fn quantile(&self, q: f64) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return SimDuration::from_nanos(1u64 << (i + 1).min(63));
            }
        }
        SimDuration::from_nanos(u64::MAX)
    }
}

/// Byte/packet throughput accounting over a virtual-time window.
#[derive(Debug, Clone, Copy, Default)]
pub struct Throughput {
    bytes: u64,
    packets: u64,
    start: SimTime,
    end: SimTime,
}

impl Throughput {
    /// Start measuring at `start`.
    pub fn begin(start: SimTime) -> Self {
        Throughput {
            bytes: 0,
            packets: 0,
            start,
            end: start,
        }
    }

    /// Record a delivered packet of `len` bytes at instant `at`.
    pub fn record(&mut self, at: SimTime, len: usize) {
        self.bytes += len as u64;
        self.packets += 1;
        self.end = self.end.max(at);
    }

    /// Total bytes delivered.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Total packets delivered.
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// Measurement window.
    pub fn window(&self) -> SimDuration {
        self.end.duration_since(self.start)
    }

    /// Megabits per second over the window (0 if the window is empty).
    pub fn mbps(&self) -> f64 {
        let secs = self.window().as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        (self.bytes as f64 * 8.0) / 1e6 / secs
    }

    /// Packets per second over the window.
    pub fn pps(&self) -> f64 {
        let secs = self.window().as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.packets as f64 / secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_statistics() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-9);
        assert!((s.stddev() - 2.0).abs() < 1e-9);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn summary_empty_is_zeroed() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.stddev(), 0.0);
    }

    #[test]
    fn histogram_quantiles_bucketed() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(SimDuration::from_nanos(1_000)); // bucket ~2^9..2^10
        }
        h.record(SimDuration::from_nanos(1_000_000));
        let p50 = h.quantile(0.5).as_nanos();
        assert!((1_000..=2_048).contains(&p50), "p50={p50}");
        let p999 = h.quantile(0.999).as_nanos();
        assert!(p999 >= 1_000_000, "p999={p999}");
        assert_eq!(h.count(), 100);
        assert!(h.mean().as_nanos() > 1_000);
    }

    #[test]
    fn throughput_mbps() {
        let mut t = Throughput::begin(SimTime::ZERO);
        // 1250 bytes every microsecond for 1000 packets => 10 Gbps.
        for i in 1..=1000u64 {
            t.record(SimTime::from_micros(i), 1250);
        }
        let mbps = t.mbps();
        assert!((mbps - 10_000.0).abs() < 11.0, "mbps={mbps}");
        assert_eq!(t.packets(), 1000);
        assert_eq!(t.bytes(), 1_250_000);
    }

    #[test]
    fn throughput_empty_window() {
        let t = Throughput::begin(SimTime::from_secs(1));
        assert_eq!(t.mbps(), 0.0);
        assert_eq!(t.pps(), 0.0);
    }
}
