//! Interfaces: loopback, veth, bridge, VLAN sub-interface, external.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use un_packet::ethernet::MacAddr;
use un_packet::{Ipv4Cidr, Packet};

use crate::types::{ExternalTag, NsId};

/// An interface handle (index into the host's interface table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IfaceId(pub u32);

impl std::fmt::Display for IfaceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "if{}", self.0)
    }
}

/// What an interface is.
#[derive(Debug, Clone)]
pub enum IfaceKind {
    /// `lo`.
    Loopback,
    /// One end of a veth pair.
    Veth {
        /// The other end.
        peer: IfaceId,
    },
    /// A learning bridge (`brctl addbr`).
    Bridge {
        /// Enslaved member interfaces.
        members: Vec<IfaceId>,
        /// MAC → member forwarding database.
        fdb: HashMap<MacAddr, IfaceId>,
    },
    /// An 802.1Q sub-interface (`ip link add link eth0 name eth0.10 …`).
    VlanSub {
        /// The parent interface carrying tagged frames.
        parent: IfaceId,
        /// The VLAN id demuxed to this sub-interface.
        vid: u16,
    },
    /// Attachment to the node fabric (tap/LSI port/physical NIC).
    External {
        /// Opaque tag the fabric uses to route emissions.
        tag: ExternalTag,
    },
}

/// ARP neighbor entry state.
#[derive(Debug, Clone)]
pub enum NeighState {
    /// Resolved.
    Reachable(MacAddr),
    /// Resolution in flight; packets parked until the reply arrives.
    Incomplete {
        /// Queued IP packets (bounded, like the kernel's arp_queue).
        pending: Vec<(IfaceId, Packet)>,
    },
}

/// Maximum packets parked on an incomplete neighbor entry.
pub const NEIGH_QUEUE_MAX: usize = 3;

/// One interface.
#[derive(Debug, Clone)]
pub struct Iface {
    /// Handle.
    pub id: IfaceId,
    /// Owning namespace.
    pub ns: NsId,
    /// Name, unique within the namespace.
    pub name: String,
    /// MAC address.
    pub mac: MacAddr,
    /// Assigned IPv4 addresses.
    pub addrs: Vec<Ipv4Cidr>,
    /// Administrative state.
    pub up: bool,
    /// Kind-specific state.
    pub kind: IfaceKind,
    /// Conntrack zone stamped on ingress traffic (0 = default).
    pub ct_zone: u16,
    /// RX packet counter.
    pub rx_packets: u64,
    /// TX packet counter.
    pub tx_packets: u64,
    /// RX byte counter.
    pub rx_bytes: u64,
    /// TX byte counter.
    pub tx_bytes: u64,
}

impl Iface {
    /// A down interface with no addresses and zeroed counters.
    pub(crate) fn new(id: IfaceId, ns: NsId, name: &str, mac: MacAddr, kind: IfaceKind) -> Self {
        Iface {
            id,
            ns,
            name: name.to_string(),
            mac,
            addrs: Vec::new(),
            up: false,
            kind,
            ct_zone: 0,
            rx_packets: 0,
            tx_packets: 0,
            rx_bytes: 0,
            tx_bytes: 0,
        }
    }

    /// Does this interface own `ip`?
    pub fn has_addr(&self, ip: Ipv4Addr) -> bool {
        self.addrs.iter().any(|c| c.addr() == ip)
    }

    /// First address, if any (used as source for locally generated traffic).
    pub fn primary_addr(&self) -> Option<Ipv4Addr> {
        self.addrs.first().map(|c| c.addr())
    }

    /// Is `ip` on-link for this interface?
    pub fn on_link(&self, ip: Ipv4Addr) -> bool {
        self.addrs.iter().any(|c| c.contains(ip))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iface() -> Iface {
        Iface {
            id: IfaceId(1),
            ns: NsId(0),
            name: "eth0".into(),
            mac: MacAddr::local(1),
            addrs: vec!["10.0.0.1/24".parse().unwrap()],
            up: true,
            kind: IfaceKind::External { tag: 7 },
            ct_zone: 0,
            rx_packets: 0,
            tx_packets: 0,
            rx_bytes: 0,
            tx_bytes: 0,
        }
    }

    #[test]
    fn addr_predicates() {
        let i = iface();
        assert!(i.has_addr(Ipv4Addr::new(10, 0, 0, 1)));
        assert!(!i.has_addr(Ipv4Addr::new(10, 0, 0, 2)));
        assert!(i.on_link(Ipv4Addr::new(10, 0, 0, 200)));
        assert!(!i.on_link(Ipv4Addr::new(10, 0, 1, 1)));
        assert_eq!(i.primary_addr(), Some(Ipv4Addr::new(10, 0, 0, 1)));
    }
}
