//! Seeded input generation: frames and control-plane op plans.
//!
//! Everything the system under test receives is a pure function of the
//! workload seed, so the same seed gives the same frames and the same
//! op sequence on every host.

use std::net::Ipv4Addr;

use un_packet::ethernet::MacAddr;
use un_packet::{Packet, PacketBuilder};

/// SplitMix64: small, fast, and stable across platforms.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` in stream `stream` (independent streams
    /// keep the frame and op sequences from shifting each other).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(s) popularity over ranks `0..n` (rank 0 most popular), sampled
/// by inverse CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Ranks `0..n` with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// One UDP flow's frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowSpec {
    /// Source address (distinct per flow).
    pub src: Ipv4Addr,
    /// UDP source port.
    pub sport: u16,
    /// Optional 802.1Q tag (VLAN endpoints).
    pub vlan: Option<u16>,
    /// Inner payload bytes.
    pub payload: usize,
}

impl FlowSpec {
    /// Flow `rank` of population `group` (a node, a graph): source
    /// `10.group.rank/256.rank%256`, source port from the rank.
    pub fn new(group: u8, rank: usize, payload: usize, vlan: Option<u16>) -> FlowSpec {
        FlowSpec {
            src: Ipv4Addr::new(10, group, (rank >> 8) as u8, rank as u8),
            sport: 1024 + (rank % 50_000) as u16,
            vlan,
            payload,
        }
    }

    /// Build the frame.
    pub fn frame(&self) -> Packet {
        let mut b = PacketBuilder::new().ethernet(MacAddr::local(1), MacAddr::local(2));
        if let Some(v) = self.vlan {
            b = b.vlan(v);
        }
        b.ipv4(self.src, Ipv4Addr::new(192, 0, 2, 9))
            .udp(self.sport, 5001)
            .payload(&vec![0xAB; self.payload])
            .build()
    }
}

/// One round of the churn workload, drawn before the round runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnRound {
    /// Node hosting the first half of the new chain (and its ingress).
    pub head: usize,
    /// Node hosting the second half (and its egress), never `head`.
    pub tail: usize,
    /// Picks the failed node among the nodes hosting live parts.
    pub fail_pick: u64,
    /// Flow ranks of each injected burst, drawn per live graph.
    pub flow_seed: u64,
}

/// The churn op plan: round `k` is a pure function of (seed, k).
pub fn churn_round(seed: u64, k: u64, nodes: usize) -> ChurnRound {
    let mut r = Rng::new(seed, 0xC0_0000 + k);
    let head = r.below(nodes as u64) as usize;
    let tail = (head + 1 + r.below(nodes as u64 - 1) as usize) % nodes;
    ChurnRound {
        head,
        tail,
        fail_pick: r.next_u64(),
        flow_seed: r.next_u64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_frames() {
        let draw = |seed: u64| -> Vec<Vec<u8>> {
            let z = Zipf::new(16_384, 1.0);
            let mut r = Rng::new(seed, 1);
            (0..500)
                .map(|_| {
                    let rank = z.sample(&mut r);
                    let node = r.below(8) as u8;
                    FlowSpec::new(node, rank, 64, None).frame().data().to_vec()
                })
                .collect()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn same_seed_gives_identical_op_sequence() {
        let plan =
            |seed: u64| -> Vec<ChurnRound> { (0..64).map(|k| churn_round(seed, k, 8)).collect() };
        assert_eq!(plan(11), plan(11));
        assert_ne!(plan(11), plan(12));
        assert!(plan(11).iter().all(|r| r.head != r.tail && r.tail < 8));
    }

    #[test]
    fn zipf_favours_low_ranks_and_covers_the_tail() {
        let z = Zipf::new(1000, 1.0);
        let mut r = Rng::new(3, 0);
        let draws: Vec<usize> = (0..20_000).map(|_| z.sample(&mut r)).collect();
        let top = draws.iter().filter(|&&k| k < 10).count();
        let tail = draws.iter().filter(|&&k| k >= 500).count();
        assert!(top > tail, "top-10 {top} vs tail {tail}");
        assert!(tail > 0);
        assert!(draws.iter().all(|&k| k < 1000));
    }

    #[test]
    fn frames_have_the_requested_shape() {
        let f = FlowSpec::new(3, 300, 1400, Some(120)).frame();
        assert_eq!(f.vlan_id(), Some(120));
        // Ethernet 14 + tag 4 + IPv4 20 + UDP 8 + payload.
        assert_eq!(f.len(), 14 + 4 + 20 + 8 + 1400);
    }
}
