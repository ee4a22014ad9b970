//! Fault injection (smoltcp-style): exercise chains under packet drop
//! and corruption.
//!
//! A [`FaultInjector`] sits between the node's egress and the measuring
//! peer (or between any two components in a test) and randomly drops or
//! corrupts frames with configured probabilities, deterministically from
//! a seed. Robustness tests use it to show that the IPsec chain *fails
//! closed*: corrupted frames are rejected by the gateway's ICV check,
//! never delivered as wrong bytes.

use un_packet::Packet;
use un_sim::DetRng;

/// What happened to a frame passing through the injector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// Passed through untouched.
    Passed,
    /// Silently dropped.
    Dropped,
    /// One byte was flipped.
    Corrupted,
}

/// A deterministic drop/corrupt fault injector.
#[derive(Debug)]
pub struct FaultInjector {
    rng: DetRng,
    /// Probability a frame is dropped, in \[0, 1\].
    pub drop_chance: f64,
    /// Probability a surviving frame has one byte corrupted, in \[0, 1\].
    pub corrupt_chance: f64,
    /// Frames passed untouched.
    pub passed: u64,
    /// Frames dropped.
    pub dropped: u64,
    /// Frames corrupted.
    pub corrupted: u64,
}

impl FaultInjector {
    /// Create an injector with the given probabilities and seed.
    pub fn new(drop_chance: f64, corrupt_chance: f64, seed: u64) -> Self {
        FaultInjector {
            rng: DetRng::new(seed),
            drop_chance,
            corrupt_chance,
            passed: 0,
            dropped: 0,
            corrupted: 0,
        }
    }

    /// Apply faults to a frame. `None` = dropped.
    pub fn apply(&mut self, mut pkt: Packet) -> (Option<Packet>, FaultOutcome) {
        if self.rng.chance(self.drop_chance) {
            self.dropped += 1;
            return (None, FaultOutcome::Dropped);
        }
        if self.rng.chance(self.corrupt_chance) && !pkt.is_empty() {
            let idx = self.rng.index(pkt.len());
            let bit = 1u8 << self.rng.index(8);
            pkt.data_mut()[idx] ^= bit;
            self.corrupted += 1;
            return (Some(pkt), FaultOutcome::Corrupted);
        }
        self.passed += 1;
        (Some(pkt), FaultOutcome::Passed)
    }

    /// Total frames offered to the injector.
    pub fn total(&self) -> u64 {
        self.passed + self.dropped + self.corrupted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt() -> Packet {
        Packet::from_slice(&[0xAA; 100])
    }

    #[test]
    fn no_faults_passes_everything() {
        let mut f = FaultInjector::new(0.0, 0.0, 1);
        for _ in 0..100 {
            let (out, outcome) = f.apply(pkt());
            assert_eq!(outcome, FaultOutcome::Passed);
            assert_eq!(out.unwrap().data(), &[0xAA; 100][..]);
        }
        assert_eq!(f.passed, 100);
    }

    #[test]
    fn drop_all_drops_everything() {
        let mut f = FaultInjector::new(1.0, 0.0, 2);
        for _ in 0..50 {
            let (out, outcome) = f.apply(pkt());
            assert!(out.is_none());
            assert_eq!(outcome, FaultOutcome::Dropped);
        }
        assert_eq!(f.dropped, 50);
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let mut f = FaultInjector::new(0.0, 1.0, 3);
        for _ in 0..50 {
            let (out, outcome) = f.apply(pkt());
            assert_eq!(outcome, FaultOutcome::Corrupted);
            let out = out.unwrap();
            let diff: u32 = out
                .data()
                .iter()
                .zip([0xAAu8; 100].iter())
                .map(|(a, b)| (a ^ b).count_ones())
                .sum();
            assert_eq!(diff, 1, "exactly one bit flipped");
        }
    }

    #[test]
    fn rates_are_roughly_honored_and_deterministic() {
        let mut f1 = FaultInjector::new(0.2, 0.1, 42);
        let mut f2 = FaultInjector::new(0.2, 0.1, 42);
        let mut outcomes1 = Vec::new();
        for _ in 0..2000 {
            outcomes1.push(f1.apply(pkt()).1);
            f2.apply(pkt());
        }
        // Determinism: same seed, same counters.
        assert_eq!(f1.dropped, f2.dropped);
        assert_eq!(f1.corrupted, f2.corrupted);
        // Rough rates.
        let drop_rate = f1.dropped as f64 / f1.total() as f64;
        assert!((0.15..0.25).contains(&drop_rate), "{drop_rate}");
        assert_eq!(f1.total(), 2000);
    }
}
