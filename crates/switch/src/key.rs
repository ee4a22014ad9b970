//! One-pass packet header extraction.
//!
//! [`PacketKey`] is the flattened set of header fields a flow table can
//! match on — extracted once per packet, then matched against any number
//! of flow entries (and used directly as the hash key of the microflow
//! cache). This mirrors Open vSwitch's miniflow design.
//!
//! Every microflow-cache, shape-table and megaflow probe hashes a key,
//! so [`PacketKey`] hashes as five packed `u64` words rather than one
//! small write per field. The maps keep std's keyed `RandomState`: the
//! microflow cache is filled with keys chosen by whoever sends the
//! frames, so an unkeyed hasher would invite collision flooding.

use un_packet::ethernet::{EtherType, EthernetFrame, MacAddr};
use un_packet::ipv4::Ipv4Packet;
use un_packet::tcp::TcpSegment;
use un_packet::udp::UdpDatagram;
use un_packet::vlan::VlanTag;
use un_packet::{IpProtocol, Packet};

use crate::lsi::PortNo;

/// Flattened header fields of one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketKey {
    /// Ingress port.
    pub in_port: PortNo,
    /// Ethernet source.
    pub eth_src: MacAddr,
    /// Ethernet destination.
    pub eth_dst: MacAddr,
    /// EtherType *after* any VLAN tag (the payload protocol).
    pub eth_type: u16,
    /// Outermost VLAN id, if tagged.
    pub vlan: Option<u16>,
    /// IPv4 source, if IPv4.
    pub ip_src: Option<std::net::Ipv4Addr>,
    /// IPv4 destination, if IPv4.
    pub ip_dst: Option<std::net::Ipv4Addr>,
    /// IPv4 protocol, if IPv4.
    pub ip_proto: Option<u8>,
    /// L4 source port (TCP/UDP), if present.
    pub l4_src: Option<u16>,
    /// L4 destination port (TCP/UDP), if present.
    pub l4_dst: Option<u16>,
    /// Firewall mark from packet metadata.
    pub fwmark: u32,
}

/// `v` widened to a `u64`, or 0 for `None` (the discriminant is
/// packed separately, so `None` and `Some(0)` still hash apart).
fn or_zero<T: Into<u64>>(v: Option<T>) -> u64 {
    v.map_or(0, Into::into)
}

/// The six bytes of a MAC address as the low 48 bits of a `u64`.
fn mac_bits(mac: MacAddr) -> u64 {
    let [a, b, c, d, e, f] = mac.octets();
    u64::from_be_bytes([0, 0, a, b, c, d, e, f])
}

impl std::hash::Hash for PacketKey {
    /// Packs every field, `Option` discriminants included, into five
    /// non-overlapping `u64` words: one `write_u64` each instead of
    /// about seventeen small writes under the derived impl. Equal keys
    /// pack equally, and no two distinct keys pack to the same words.
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Exhaustive destructuring (no `..`): a new field must be
        // packed here before this compiles again.
        let PacketKey {
            in_port,
            eth_src,
            eth_dst,
            eth_type,
            vlan,
            ip_src,
            ip_dst,
            ip_proto,
            l4_src,
            l4_dst,
            fwmark,
        } = *self;
        let present = u64::from(vlan.is_some())
            | u64::from(ip_src.is_some()) << 1
            | u64::from(ip_dst.is_some()) << 2
            | u64::from(ip_proto.is_some()) << 3
            | u64::from(l4_src.is_some()) << 4
            | u64::from(l4_dst.is_some()) << 5;
        state.write_u64(mac_bits(eth_src) | u64::from(eth_type) << 48);
        state.write_u64(mac_bits(eth_dst) | or_zero(vlan) << 48);
        state.write_u64(or_zero(ip_src.map(u32::from)) | or_zero(ip_dst.map(u32::from)) << 32);
        state.write_u64(u64::from(in_port.0) | u64::from(fwmark) << 32);
        state.write_u64(
            or_zero(l4_src) | or_zero(l4_dst) << 16 | or_zero(ip_proto) << 32 | present << 40,
        );
    }
}

impl PacketKey {
    /// Extract the key from a packet arriving on `in_port`.
    ///
    /// Unparseable layers simply leave their fields as `None`/defaults —
    /// a malformed packet still gets a key (and can be matched on the
    /// fields that did parse), it is never dropped at extraction time.
    pub fn extract(in_port: PortNo, pkt: &Packet) -> PacketKey {
        let mut key = PacketKey {
            in_port,
            eth_src: MacAddr::ZERO,
            eth_dst: MacAddr::ZERO,
            eth_type: 0,
            vlan: None,
            ip_src: None,
            ip_dst: None,
            ip_proto: None,
            l4_src: None,
            l4_dst: None,
            fwmark: pkt.meta.fwmark,
        };

        let Ok(eth) = EthernetFrame::new_checked(pkt.data()) else {
            return key;
        };
        key.eth_src = eth.src();
        key.eth_dst = eth.dst();

        let (l3_type, l3): (u16, &[u8]) = match eth.ethertype() {
            EtherType::Vlan => match VlanTag::new_checked(eth.payload()) {
                Ok(tag) => {
                    key.vlan = Some(tag.vid());
                    let inner = tag.inner_ethertype();
                    // Borrow payload after tag from original buffer.
                    let data = pkt.data();
                    (inner, &data[14 + 4..])
                }
                Err(_) => {
                    key.eth_type = u16::from(EtherType::Vlan);
                    return key;
                }
            },
            t => {
                let data = pkt.data();
                (u16::from(t), &data[14..])
            }
        };
        key.eth_type = l3_type;

        if l3_type == u16::from(EtherType::Ipv4) {
            if let Ok(ip) = Ipv4Packet::new_checked(l3) {
                key.ip_src = Some(ip.src());
                key.ip_dst = Some(ip.dst());
                let proto = ip.protocol();
                key.ip_proto = Some(u8::from(proto));
                match proto {
                    IpProtocol::Udp => {
                        if let Ok(u) = UdpDatagram::new_checked(ip.payload()) {
                            key.l4_src = Some(u.src_port());
                            key.l4_dst = Some(u.dst_port());
                        }
                    }
                    IpProtocol::Tcp => {
                        if let Ok(t) = TcpSegment::new_checked(ip.payload()) {
                            key.l4_src = Some(t.src_port());
                            key.l4_dst = Some(t.dst_port());
                        }
                    }
                    _ => {}
                }
            }
        }
        key
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
    use std::net::Ipv4Addr;
    use un_packet::PacketBuilder;

    /// Hash under a fixed-key SipHash, so results compare across calls.
    fn fixed_hash(key: &PacketKey) -> u64 {
        BuildHasherDefault::<DefaultHasher>::default().hash_one(key)
    }

    fn full_key() -> PacketKey {
        PacketKey {
            in_port: PortNo(7),
            eth_src: MacAddr::local(1),
            eth_dst: MacAddr::local(2),
            eth_type: 0x0800,
            vlan: Some(100),
            ip_src: Some(Ipv4Addr::new(10, 0, 0, 1)),
            ip_dst: Some(Ipv4Addr::new(10, 0, 0, 2)),
            ip_proto: Some(17),
            l4_src: Some(5001),
            l4_dst: Some(5201),
            fwmark: 9,
        }
    }

    fn mac(bits: u64) -> MacAddr {
        let [_, _, a, b, c, d, e, f] = bits.to_be_bytes();
        MacAddr([a, b, c, d, e, f])
    }

    fn key_strategy() -> impl Strategy<Value = PacketKey> {
        (
            (any::<u32>(), any::<u64>(), any::<u64>(), any::<u16>()),
            (
                prop::option::of(any::<u16>()),
                prop::option::of(any::<u32>()),
                prop::option::of(any::<u32>()),
                prop::option::of(any::<u8>()),
            ),
            (
                prop::option::of(any::<u16>()),
                prop::option::of(any::<u16>()),
                any::<u32>(),
            ),
        )
            .prop_map(
                |(
                    (in_port, src, dst, eth_type),
                    (vlan, ip_src, ip_dst, ip_proto),
                    (l4_src, l4_dst, fwmark),
                )| PacketKey {
                    in_port: PortNo(in_port),
                    eth_src: mac(src),
                    eth_dst: mac(dst),
                    eth_type,
                    vlan,
                    ip_src: ip_src.map(Ipv4Addr::from),
                    ip_dst: ip_dst.map(Ipv4Addr::from),
                    ip_proto,
                    l4_src,
                    l4_dst,
                    fwmark,
                },
            )
    }

    /// A hasher that records the words it is fed instead of mixing them.
    #[derive(Default)]
    struct Words(Vec<u64>);

    impl std::hash::Hasher for Words {
        fn finish(&self) -> u64 {
            0
        }
        fn write(&mut self, _: &[u8]) {
            panic!("PacketKey must hash through write_u64 only");
        }
        fn write_u64(&mut self, w: u64) {
            self.0.push(w);
        }
    }

    fn words(key: &PacketKey) -> Vec<u64> {
        let mut w = Words::default();
        std::hash::Hash::hash(key, &mut w);
        w.0
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn equal_keys_hash_equally(k in key_strategy(), other in key_strategy()) {
            let copy = k;
            prop_assert_eq!(fixed_hash(&k), fixed_hash(&copy));
            // The packing is injective: words are equal iff keys are.
            prop_assert_eq!(words(&k).len(), 5);
            prop_assert_eq!(k == other, words(&k) == words(&other));
        }
    }

    #[test]
    fn every_field_moves_the_hash() {
        // One single-field edit per variant, including None <-> Some(0)
        // for every optional field: a packing slip that dropped or
        // overlapped a field would make one of these collide.
        let base = full_key();
        let zeroed = PacketKey {
            vlan: Some(0),
            ip_src: Some(Ipv4Addr::from(0)),
            ip_dst: Some(Ipv4Addr::from(0)),
            ip_proto: Some(0),
            l4_src: Some(0),
            l4_dst: Some(0),
            ..base
        };
        type Edit = fn(&mut PacketKey);
        let edits: [(&str, PacketKey, Edit); 17] = [
            ("in_port", base, |k| k.in_port = PortNo(8)),
            ("eth_src", base, |k| k.eth_src = MacAddr::local(3)),
            ("eth_dst", base, |k| k.eth_dst = MacAddr::local(3)),
            ("eth_type", base, |k| k.eth_type = 0x86dd),
            ("vlan", base, |k| k.vlan = Some(101)),
            ("ip_src", base, |k| {
                k.ip_src = Some(Ipv4Addr::new(10, 0, 0, 3))
            }),
            ("ip_dst", base, |k| {
                k.ip_dst = Some(Ipv4Addr::new(10, 0, 0, 3))
            }),
            ("ip_proto", base, |k| k.ip_proto = Some(6)),
            ("l4_src", base, |k| k.l4_src = Some(5002)),
            ("l4_dst", base, |k| k.l4_dst = Some(5202)),
            ("fwmark", base, |k| k.fwmark = 10),
            ("vlan none/0", zeroed, |k| k.vlan = None),
            ("ip_src none/0", zeroed, |k| k.ip_src = None),
            ("ip_dst none/0", zeroed, |k| k.ip_dst = None),
            ("ip_proto none/0", zeroed, |k| k.ip_proto = None),
            ("l4_src none/0", zeroed, |k| k.l4_src = None),
            ("l4_dst none/0", zeroed, |k| k.l4_dst = None),
        ];
        for (field, a, edit) in edits {
            let mut b = a;
            edit(&mut b);
            assert_ne!(a, b, "{field}: edit must change the key");
            assert_ne!(
                words(&a),
                words(&b),
                "{field}: edit must change the packing"
            );
            assert_ne!(
                fixed_hash(&a),
                fixed_hash(&b),
                "{field}: edit must change the hash"
            );
        }
    }

    #[test]
    fn extracts_udp_frame() {
        let pkt = PacketBuilder::new()
            .ethernet(MacAddr::local(1), MacAddr::local(2))
            .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
            .udp(5001, 5201)
            .payload(b"x")
            .build();
        let key = PacketKey::extract(PortNo(3), &pkt);
        assert_eq!(key.in_port, PortNo(3));
        assert_eq!(key.eth_src, MacAddr::local(1));
        assert_eq!(key.eth_type, 0x0800);
        assert_eq!(key.vlan, None);
        assert_eq!(key.ip_src, Some(Ipv4Addr::new(10, 0, 0, 1)));
        assert_eq!(key.ip_proto, Some(17));
        assert_eq!(key.l4_dst, Some(5201));
    }

    #[test]
    fn extracts_vlan_tagged_frame() {
        let pkt = PacketBuilder::new()
            .ethernet(MacAddr::local(1), MacAddr::local(2))
            .vlan(77)
            .ipv4(Ipv4Addr::new(1, 1, 1, 1), Ipv4Addr::new(2, 2, 2, 2))
            .udp(1, 2)
            .build();
        let key = PacketKey::extract(PortNo(0), &pkt);
        assert_eq!(key.vlan, Some(77));
        assert_eq!(key.eth_type, 0x0800, "eth_type must see through the tag");
        assert_eq!(key.ip_dst, Some(Ipv4Addr::new(2, 2, 2, 2)));
    }

    #[test]
    fn malformed_packet_still_keyed() {
        let pkt = Packet::from_slice(&[0u8; 6]); // shorter than Ethernet
        let key = PacketKey::extract(PortNo(1), &pkt);
        assert_eq!(key.eth_type, 0);
        assert_eq!(key.ip_src, None);
    }

    #[test]
    fn fwmark_copied_from_meta() {
        let mut pkt = PacketBuilder::new()
            .ethernet(MacAddr::local(1), MacAddr::local(2))
            .ipv4(Ipv4Addr::new(1, 1, 1, 1), Ipv4Addr::new(2, 2, 2, 2))
            .udp(1, 2)
            .build();
        pkt.meta.fwmark = 1234;
        let key = PacketKey::extract(PortNo(0), &pkt);
        assert_eq!(key.fwmark, 1234);
    }

    #[test]
    fn tcp_ports_extracted() {
        let pkt = PacketBuilder::new()
            .ethernet(MacAddr::local(1), MacAddr::local(2))
            .ipv4(Ipv4Addr::new(1, 1, 1, 1), Ipv4Addr::new(2, 2, 2, 2))
            .tcp(80, 443, 0, 0, 0x10)
            .build();
        let key = PacketKey::extract(PortNo(0), &pkt);
        assert_eq!(key.ip_proto, Some(6));
        assert_eq!(key.l4_src, Some(80));
        assert_eq!(key.l4_dst, Some(443));
    }
}
