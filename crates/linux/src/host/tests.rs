//! End-to-end tests of the simulated kernel pipeline.

use super::*;
use crate::netfilter::{NfRule, RuleMatch, Target};
use un_ipsec::sa::SecurityAssociation;
use un_ipsec::spd::{PolicyAction, PolicyDirection, SecurityPolicy, TrafficSelector};

fn cidr(s: &str) -> Ipv4Cidr {
    s.parse().unwrap()
}

/// Two namespaces joined by a veth: 10.0.0.1 (a) <-> 10.0.0.2 (b).
fn two_ns_host() -> (Host, NsId, NsId) {
    let mut h = Host::new("t", CostModel::default());
    let a = h.add_namespace("a");
    let b = h.add_namespace("b");
    let (va, vb) = h.add_veth(a, "veth-a", b, "veth-b").unwrap();
    h.addr_add(va, cidr("10.0.0.1/24")).unwrap();
    h.addr_add(vb, cidr("10.0.0.2/24")).unwrap();
    h.set_up(va, true).unwrap();
    h.set_up(vb, true).unwrap();
    (h, a, b)
}

#[test]
fn ping_across_veth_with_real_arp() {
    let (mut h, a, _b) = two_ns_host();
    let echo = un_packet::PacketBuilder::new()
        .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
        .icmp_echo(un_packet::icmp::IcmpKind::EchoRequest, 7, 1)
        .payload(b"abcdefgh")
        .build();
    let res = h.raw_send(a, echo.data().to_vec()).unwrap();
    // Everything stays inside the host (veth), nothing emitted externally.
    assert!(res.emitted.is_empty());
    assert!(res.cost.as_nanos() > 0);
    // ARP happened, echo was answered, reply delivered back to ns a.
    assert_eq!(h.trace.counter("arp_requests"), 1);
    assert_eq!(h.trace.counter("arp_replies"), 1);
    assert_eq!(h.trace.counter("icmp_echo_requests"), 1);
    assert_eq!(h.trace.counter("icmp_other"), 1, "echo reply delivered");
}

#[test]
fn second_packet_skips_arp() {
    let (mut h, a, _b) = two_ns_host();
    let echo = || {
        un_packet::PacketBuilder::new()
            .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
            .icmp_echo(un_packet::icmp::IcmpKind::EchoRequest, 7, 1)
            .build()
    };
    h.raw_send(a, echo().data().to_vec()).unwrap();
    h.raw_send(a, echo().data().to_vec()).unwrap();
    assert_eq!(h.trace.counter("arp_requests"), 1, "neighbor cached");
    assert_eq!(h.trace.counter("icmp_echo_requests"), 2);
}

#[test]
fn udp_send_recv_across_veth() {
    let (mut h, a, b) = two_ns_host();
    let server = h.udp_bind(b, Ipv4Addr::UNSPECIFIED, 5201).unwrap();
    let client = h.udp_bind(a, Ipv4Addr::UNSPECIFIED, 5001).unwrap();
    h.udp_send(client, Ipv4Addr::new(10, 0, 0, 2), 5201, b"measurement")
        .unwrap();
    let dg = h.udp_recv(server).expect("datagram delivered");
    assert_eq!(dg.payload, b"measurement");
    assert_eq!(dg.src, Ipv4Addr::new(10, 0, 0, 1));
    assert_eq!(dg.sport, 5001);
    // And the reverse direction.
    h.udp_send(server, dg.src, dg.sport, b"ack").unwrap();
    let back = h.udp_recv(client).expect("reply delivered");
    assert_eq!(back.payload, b"ack");
}

/// client ns -- veth -- router ns -- veth -- server ns, router forwards.
/// client: 192.168.1.10/24, router LAN 192.168.1.1, router WAN 203.0.113.1,
/// server: 203.0.113.9/24.
fn routed_host() -> (Host, NsId, NsId, NsId) {
    let mut h = Host::new("r", CostModel::default());
    let client = h.add_namespace("client");
    let router = h.add_namespace("router");
    let server = h.add_namespace("server");
    let (c0, r0) = h.add_veth(client, "eth0", router, "lan").unwrap();
    let (r1, s0) = h.add_veth(router, "wan", server, "eth0").unwrap();
    h.addr_add(c0, cidr("192.168.1.10/24")).unwrap();
    h.addr_add(r0, cidr("192.168.1.1/24")).unwrap();
    h.addr_add(r1, cidr("203.0.113.1/24")).unwrap();
    h.addr_add(s0, cidr("203.0.113.9/24")).unwrap();
    for i in [c0, r0, r1, s0] {
        h.set_up(i, true).unwrap();
    }
    h.sysctl_ip_forward(router, true).unwrap();
    // Default routes.
    h.route_add(
        client,
        crate::route::MAIN_TABLE,
        cidr("0.0.0.0/0"),
        Some(Ipv4Addr::new(192, 168, 1, 1)),
        c0,
        0,
    )
    .unwrap();
    h.route_add(
        server,
        crate::route::MAIN_TABLE,
        cidr("0.0.0.0/0"),
        Some(Ipv4Addr::new(203, 0, 113, 1)),
        s0,
        0,
    )
    .unwrap();
    (h, client, router, server)
}

#[test]
fn forwarding_with_masquerade_nat() {
    let (mut h, client, router, server) = routed_host();
    // Masquerade everything leaving the WAN side.
    let wan = h.iface_by_name(router, "wan").unwrap().id;
    h.nf_append(
        router,
        NfTable::Nat,
        Chain::Postrouting,
        NfRule::new(
            RuleMatch {
                out_iface: Some(wan),
                ..Default::default()
            },
            Target::Masquerade,
        ),
    )
    .unwrap();

    let srv = h.udp_bind(server, Ipv4Addr::UNSPECIFIED, 53).unwrap();
    let cli = h.udp_bind(client, Ipv4Addr::UNSPECIFIED, 5000).unwrap();
    h.udp_send(cli, Ipv4Addr::new(203, 0, 113, 9), 53, b"query")
        .unwrap();

    let dg = h.udp_recv(srv).expect("query forwarded");
    assert_eq!(
        dg.src,
        Ipv4Addr::new(203, 0, 113, 1),
        "source must be the router's WAN address after masquerade"
    );
    assert_eq!(dg.payload, b"query");

    // Reply to the translated source; NAT must reverse it.
    h.udp_send(srv, dg.src, dg.sport, b"answer").unwrap();
    let counters: Vec<_> = h.trace.counters().collect();
    let back = h
        .udp_recv(cli)
        .unwrap_or_else(|| panic!("reply de-NATed and delivered; counters: {counters:?}"));
    assert_eq!(back.payload, b"answer");
    assert_eq!(back.src, Ipv4Addr::new(203, 0, 113, 9));
    assert_eq!(h.namespace(router).unwrap().forwarded, 2);
}

#[test]
fn stateful_firewall_allows_replies_only() {
    let (mut h, client, router, server) = routed_host();
    // FORWARD policy DROP; allow LAN->WAN new, and only ESTABLISHED back.
    h.nf_policy(router, NfTable::Filter, Chain::Forward, false)
        .unwrap();
    let lan = h.iface_by_name(router, "lan").unwrap().id;
    h.nf_append(
        router,
        NfTable::Filter,
        Chain::Forward,
        NfRule::new(
            RuleMatch {
                in_iface: Some(lan),
                ..Default::default()
            },
            Target::Accept,
        ),
    )
    .unwrap();
    h.nf_append(
        router,
        NfTable::Filter,
        Chain::Forward,
        NfRule::new(
            RuleMatch {
                ct_state: Some(CtState::Established),
                ..Default::default()
            },
            Target::Accept,
        ),
    )
    .unwrap();

    let srv = h.udp_bind(server, Ipv4Addr::UNSPECIFIED, 53).unwrap();
    let cli = h.udp_bind(client, Ipv4Addr::UNSPECIFIED, 5000).unwrap();

    // Unsolicited WAN->LAN traffic must be dropped.
    h.udp_send(srv, Ipv4Addr::new(192, 168, 1, 10), 5000, b"unsolicited")
        .unwrap();
    assert!(h.udp_recv(cli).is_none(), "firewall must block unsolicited");

    // Client-initiated flow passes, and its reply passes (ESTABLISHED).
    h.udp_send(cli, Ipv4Addr::new(203, 0, 113, 9), 53, b"query")
        .unwrap();
    let dg = h.udp_recv(srv).expect("outbound allowed");
    h.udp_send(srv, dg.src, dg.sport, b"answer").unwrap();
    assert!(h.udp_recv(cli).is_some(), "reply must pass as ESTABLISHED");
}

#[test]
fn policy_routing_by_fwmark() {
    // Router with two WAN externals; mark decides which one.
    let mut h = Host::new("pr", CostModel::default());
    let r = h.add_namespace("router");
    let wan1 = h.add_external(r, "wan1", 101).unwrap();
    let wan2 = h.add_external(r, "wan2", 102).unwrap();
    let lan = h.add_external(r, "lan", 100).unwrap();
    h.addr_add(wan1, cidr("198.51.100.1/24")).unwrap();
    h.addr_add(wan2, cidr("203.0.113.1/24")).unwrap();
    h.addr_add(lan, cidr("192.168.1.1/24")).unwrap();
    for i in [wan1, wan2, lan] {
        h.set_up(i, true).unwrap();
    }
    h.sysctl_ip_forward(r, true).unwrap();
    h.route_add(
        r,
        crate::route::MAIN_TABLE,
        cidr("0.0.0.0/0"),
        Some(Ipv4Addr::new(198, 51, 100, 254)),
        wan1,
        0,
    )
    .unwrap();
    h.route_add(
        r,
        102,
        cidr("0.0.0.0/0"),
        Some(Ipv4Addr::new(203, 0, 113, 254)),
        wan2,
        0,
    )
    .unwrap();
    h.rule_add(
        r,
        IpRule {
            priority: 100,
            fwmark: Some(2),
            table: 102,
        },
    )
    .unwrap();
    h.neigh_add(r, Ipv4Addr::new(198, 51, 100, 254), MacAddr::local(900))
        .unwrap();
    h.neigh_add(r, Ipv4Addr::new(203, 0, 113, 254), MacAddr::local(901))
        .unwrap();
    // Mark traffic from 192.168.2.0/24 with 2 (mangle PREROUTING).
    h.nf_append(
        r,
        NfTable::Mangle,
        Chain::Prerouting,
        NfRule::new(
            RuleMatch {
                src: Some(cidr("192.168.2.0/24")),
                ..Default::default()
            },
            Target::SetMark(2),
        ),
    )
    .unwrap();

    let lan_mac = h.iface(lan).unwrap().mac;
    let mk_pkt = move |src: [u8; 4]| {
        let mut p = un_packet::PacketBuilder::new()
            .ethernet(MacAddr::local(50), lan_mac)
            .ipv4(Ipv4Addr::from(src), Ipv4Addr::new(8, 8, 8, 8))
            .udp(1234, 53)
            .payload(b"q")
            .build();
        p.meta = PacketMeta::default();
        p
    };

    let res1 = h.inject(lan, mk_pkt([192, 168, 1, 50]));
    assert_eq!(res1.emitted.len(), 1);
    assert_eq!(res1.emitted[0].0, 101, "unmarked goes out wan1");

    let res2 = h.inject(lan, mk_pkt([192, 168, 2, 50]));
    assert_eq!(res2.emitted.len(), 1);
    assert_eq!(res2.emitted[0].0, 102, "marked goes out wan2");
}

#[test]
fn bridge_learns_and_forwards() {
    let mut h = Host::new("br", CostModel::default());
    let r = h.add_namespace("bridge-ns");
    let br = h.add_bridge(r, "br0").unwrap();
    let p1 = h.add_external(r, "p1", 1).unwrap();
    let p2 = h.add_external(r, "p2", 2).unwrap();
    let p3 = h.add_external(r, "p3", 3).unwrap();
    for i in [br, p1, p2, p3] {
        h.set_up(i, true).unwrap();
    }
    for p in [p1, p2, p3] {
        h.bridge_attach(br, p).unwrap();
    }

    let ha = MacAddr::local(10);
    let hb = MacAddr::local(11);
    let frame = |src: MacAddr, dst: MacAddr| {
        un_packet::PacketBuilder::new()
            .ethernet(src, dst)
            .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
            .udp(1, 2)
            .build()
    };

    // Unknown dst: flood to the other two ports.
    let res = h.inject(p1, frame(ha, hb));
    let mut tags: Vec<u64> = res.emitted.iter().map(|(t, _)| *t).collect();
    tags.sort();
    assert_eq!(tags, vec![2, 3]);

    // Reply learns hb on p2; now traffic to ha is directed to p1 only.
    let res = h.inject(p2, frame(hb, ha));
    let tags: Vec<u64> = res.emitted.iter().map(|(t, _)| *t).collect();
    assert_eq!(tags, vec![1], "learned unicast must not flood");
}

#[test]
fn vlan_subinterface_demux_and_tagging() {
    let mut h = Host::new("vl", CostModel::default());
    let r = h.add_namespace("ns");
    let eth = h.add_external(r, "eth0", 9).unwrap();
    let sub = h.add_vlan_sub(eth, 100, "eth0.100").unwrap();
    h.addr_add(sub, cidr("10.10.0.1/24")).unwrap();
    h.set_up(eth, true).unwrap();
    h.set_up(sub, true).unwrap();
    // Duplicate VID rejected.
    assert!(matches!(
        h.add_vlan_sub(eth, 100, "dup"),
        Err(HostError::VlanInUse(100))
    ));

    // Tagged echo request arrives on eth0; sub-iface answers, reply
    // leaves tagged again.
    let sub_mac = h.iface(sub).unwrap().mac;
    let echo = un_packet::PacketBuilder::new()
        .ethernet(MacAddr::local(77), sub_mac)
        .vlan(100)
        .ipv4(Ipv4Addr::new(10, 10, 0, 2), Ipv4Addr::new(10, 10, 0, 1))
        .icmp_echo(un_packet::icmp::IcmpKind::EchoRequest, 1, 1)
        .build();
    // Static neighbor so the reply needs no ARP.
    h.neigh_add(r, Ipv4Addr::new(10, 10, 0, 2), MacAddr::local(77))
        .unwrap();
    let res = h.inject(eth, echo);
    assert_eq!(res.emitted.len(), 1);
    let (tag, reply) = &res.emitted[0];
    assert_eq!(*tag, 9);
    assert_eq!(reply.vlan_id(), Some(100), "reply must be re-tagged");
}

#[test]
fn xfrm_tunnel_between_two_hosts() {
    // Host A (CPE) and host B (gateway) joined by their external ifaces.
    let costs = CostModel::default();
    let key = [5u8; 32];
    let salt = [0, 1, 2, 3];

    let mk = |name: &str, my_ip: &str| {
        let mut h = Host::new(name, costs.clone());
        let ns = NsId(0);
        let ext = h.add_external(ns, "wan", 1).unwrap();
        h.addr_add(ext, cidr(my_ip)).unwrap();
        h.set_up(ext, true).unwrap();
        (h, ext)
    };
    let a_ip = Ipv4Addr::new(192, 0, 2, 1);
    let b_ip = Ipv4Addr::new(192, 0, 2, 2);
    let (mut ha, ext_a) = mk("a", "192.0.2.1/24");
    let (mut hb, ext_b) = mk("b", "192.0.2.2/24");
    // Static neighbors with each other's real MACs (the node fabric
    // normally lets ARP do this; here the wire is hand-carried).
    let mac_a = ha.iface(ext_a).unwrap().mac;
    let mac_b = hb.iface(ext_b).unwrap().mac;
    ha.neigh_add(NsId(0), b_ip, mac_b).unwrap();
    hb.neigh_add(NsId(0), a_ip, mac_a).unwrap();

    // A protects traffic to 172.16.0.0/16 via SPI 0x700.
    {
        let x = ha.xfrm_mut(NsId(0)).unwrap();
        x.sad
            .install(SecurityAssociation::outbound(0x700, a_ip, b_ip, key, salt));
        x.spd.install(SecurityPolicy {
            selector: TrafficSelector::between(cidr("0.0.0.0/0"), cidr("172.16.0.0/16")),
            direction: PolicyDirection::Out,
            action: PolicyAction::Protect(0x700),
            priority: 10,
        });
    }
    {
        let x = hb.xfrm_mut(NsId(0)).unwrap();
        x.sad
            .install(SecurityAssociation::inbound(0x700, a_ip, b_ip, key, salt));
    }
    // A routes the protected subnet toward the gateway (the SPD then
    // decides to encapsulate).
    ha.route_add(
        NsId(0),
        crate::route::MAIN_TABLE,
        cidr("172.16.0.0/16"),
        Some(b_ip),
        ext_a,
        0,
    )
    .unwrap();
    // B owns 172.16.0.1 locally (simulating the protected service) and a
    // UDP socket on it.
    let svc = hb.add_external(NsId(0), "svc", 2).unwrap();
    hb.addr_add(svc, cidr("172.16.0.1/16")).unwrap();
    hb.set_up(svc, true).unwrap();
    let sock = hb.udp_bind(NsId(0), Ipv4Addr::UNSPECIFIED, 4000).unwrap();

    // A sends a datagram to the protected subnet.
    let payload = vec![0xEE; 256];
    let inner = un_packet::PacketBuilder::new()
        .ipv4(a_ip, Ipv4Addr::new(172, 16, 0, 1))
        .udp(111, 4000)
        .payload(&payload)
        .build();
    let res = ha.raw_send(NsId(0), inner.data().to_vec()).unwrap();
    assert_eq!(res.emitted.len(), 1, "encapsulated packet leaves host A");
    let (_, wire) = &res.emitted[0];

    // The frame on the wire is ESP, not plaintext.
    let eth = wire.ethernet().unwrap();
    let outer = Ipv4Packet::new_checked(eth.payload()).unwrap();
    assert_eq!(outer.protocol(), IpProtocol::Esp);
    let wire_bytes = wire.data().to_vec();
    assert!(
        !wire_bytes.windows(payload.len()).any(|w| w == &payload[..]),
        "payload must not appear in cleartext on the wire"
    );

    // Deliver to host B: it decapsulates and the socket receives.
    hb.inject(ext_b, wire.clone());
    let dg = hb.udp_recv(sock).expect("decapsulated datagram delivered");
    assert_eq!(dg.payload, payload);
    assert_eq!(ha.trace.counter("xfrm_encap"), 1);
    assert_eq!(hb.trace.counter("xfrm_decap"), 1);
    let _ = ext_a;
}

#[test]
fn ttl_expiry_drops() {
    let (mut h, client, router, _server) = routed_host();
    let c0 = h.iface_by_name(client, "eth0").unwrap().id;
    let _ = c0;
    // Build a TTL=1 packet from the client; router decrements to 0.
    let sock = h.udp_bind(client, Ipv4Addr::UNSPECIFIED, 5000).unwrap();
    let _ = sock;
    let pkt = un_packet::PacketBuilder::new()
        .ipv4(
            Ipv4Addr::new(192, 168, 1, 10),
            Ipv4Addr::new(203, 0, 113, 9),
        )
        .ttl(1)
        .udp(5000, 53)
        .build();
    h.raw_send(client, pkt.data().to_vec()).unwrap();
    assert_eq!(h.trace.counter("ttl_expired"), 1);
    assert!(h.namespace(router).unwrap().dropped >= 1);
}

#[test]
fn forwarding_disabled_drops() {
    let (mut h, client, router, _server) = routed_host();
    h.sysctl_ip_forward(router, false).unwrap();
    let pkt = un_packet::PacketBuilder::new()
        .ipv4(
            Ipv4Addr::new(192, 168, 1, 10),
            Ipv4Addr::new(203, 0, 113, 9),
        )
        .udp(5000, 53)
        .build();
    h.raw_send(client, pkt.data().to_vec()).unwrap();
    assert_eq!(h.trace.counter("rx_not_for_us"), 1);
}

#[test]
fn arp_pending_queue_bounded() {
    let mut h = Host::new("q", CostModel::default());
    let ns = h.add_namespace("ns");
    let ext = h.add_external(ns, "eth0", 1).unwrap();
    h.addr_add(ext, cidr("10.0.0.1/24")).unwrap();
    h.set_up(ext, true).unwrap();
    // Send 5 packets to an unresolvable neighbor: 1 ARP request out,
    // NEIGH_QUEUE_MAX parked, rest dropped.
    for i in 0..5u16 {
        let p = un_packet::PacketBuilder::new()
            .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 99))
            .udp(1000 + i, 9)
            .build();
        h.raw_send(ns, p.data().to_vec()).unwrap();
    }
    assert_eq!(h.trace.counter("arp_requests"), 1);
    assert_eq!(
        h.trace.counter("neigh_queue_drops"),
        (5 - NEIGH_QUEUE_MAX) as u64 - 1 + 1
    );

    // The ARP reply arrives: parked packets flush out.
    let my_mac = h.iface(ext).unwrap().mac;
    let mut reply = Packet::zeroed(ETHERNET_HEADER_LEN + ARP_LEN);
    {
        let buf = reply.data_mut();
        let mut e = EthernetFrame::new_unchecked(&mut buf[..]);
        e.set_dst(my_mac);
        e.set_src(MacAddr::local(42));
        e.set_ethertype(EtherType::Arp);
        let mut a = ArpPacket::new_unchecked(&mut buf[ETHERNET_HEADER_LEN..]);
        a.init();
        a.set_op(ArpOp::Reply);
        a.set_sender_mac(MacAddr::local(42));
        a.set_sender_ip(Ipv4Addr::new(10, 0, 0, 99));
        a.set_target_mac(my_mac);
        a.set_target_ip(Ipv4Addr::new(10, 0, 0, 1));
    }
    let res = h.inject(ext, reply);
    assert_eq!(res.emitted.len(), NEIGH_QUEUE_MAX, "parked packets flushed");
}

#[test]
fn config_errors() {
    let mut h = Host::new("e", CostModel::default());
    let ns = h.add_namespace("ns");
    let ext = h.add_external(ns, "eth0", 1).unwrap();
    assert!(matches!(
        h.add_external(ns, "eth0", 2),
        Err(HostError::IfaceNameInUse(_))
    ));
    assert!(matches!(
        h.add_external(NsId(99), "x", 3),
        Err(HostError::NoSuchNamespace(99))
    ));
    assert!(matches!(
        h.bridge_attach(ext, ext),
        Err(HostError::WrongIfaceKind(_))
    ));
    h.udp_bind(ns, Ipv4Addr::UNSPECIFIED, 53).unwrap();
    assert!(matches!(
        h.udp_bind(ns, Ipv4Addr::UNSPECIFIED, 53),
        Err(HostError::AddrInUse(_))
    ));
}

#[test]
fn down_iface_refuses_traffic() {
    let (mut h, a, _b) = two_ns_host();
    let va = h.iface_by_name(a, "veth-a").unwrap().id;
    h.set_up(va, false).unwrap();
    let pkt = un_packet::PacketBuilder::new()
        .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
        .udp(1, 2)
        .build();
    h.raw_send(a, pkt.data().to_vec()).unwrap();
    assert_eq!(h.trace.counter("icmp_echo_requests"), 0);
    assert!(h.trace.counter("tx_down_iface") >= 1 || h.trace.counter("no_route") >= 1);
}

#[test]
fn costs_accumulate_along_path() {
    let (mut h, a, b) = two_ns_host();
    let srv = h.udp_bind(b, Ipv4Addr::UNSPECIFIED, 7).unwrap();
    let cli = h.udp_bind(a, Ipv4Addr::UNSPECIFIED, 8).unwrap();
    let res = h
        .udp_send(cli, Ipv4Addr::new(10, 0, 0, 2), 7, &[0u8; 1000])
        .unwrap();
    // user/kernel crossing + ip + veth + l4 at least.
    let floor =
        CostModel::default().user_kernel_crossing_ns + CostModel::default().veth_crossing_ns;
    assert!(
        res.cost.as_nanos() > floor,
        "cost {} too small",
        res.cost.as_nanos()
    );
    assert!(h.udp_recv(srv).is_some());
    let _ = cli;
}

#[test]
fn remove_namespace_frees_ifaces_peers_and_sockets() {
    let (mut h, a, b) = two_ns_host();
    let (c, d) = (h.add_namespace("c"), h.add_namespace("d"));
    let c_lo = h.iface_by_name(c, "lo").unwrap().id;
    let br = h.add_bridge(c, "br0").unwrap();
    let (vc, vd) = h.add_veth(c, "veth-c", d, "veth-d").unwrap();
    h.bridge_attach(br, vc).unwrap();
    let (vd2, vb) = h.add_veth(d, "veth-d2", b, "veth-b2").unwrap();
    h.route_add(b, 0, cidr("10.9.0.0/16"), None, vb, 0).unwrap();
    let vb_sub = h.add_vlan_sub(vb, 10, "veth-b2.10").unwrap();
    let sock = h.udp_bind(d, Ipv4Addr::UNSPECIFIED, 500).unwrap();
    let (namespaces, ifaces) = (h.namespace_count(), h.iface_count());

    h.remove_namespace(d).unwrap();
    assert_eq!(h.namespace_count(), namespaces - 1);
    // d's lo and both veth ends it held go, and so do their peers in c
    // and b, with the VLAN sub-interface on b's peer.
    assert_eq!(h.iface_count(), ifaces - 6);
    for gone in [vd, vd2, vc, vb, vb_sub] {
        assert!(h.iface(gone).is_none(), "{gone}");
    }
    assert!(h.namespace(d).is_none());
    assert!(h.iface_by_name(b, "veth-b2").is_none());
    assert!(h.iface_by_name(c, "veth-c").is_none());
    let main = &h.namespace(b).unwrap().routing.tables[&0];
    assert!(
        main.iter().all(|r| r.dev != vb),
        "no route through a gone peer"
    );
    match &h.iface(br).unwrap().kind {
        IfaceKind::Bridge { members, .. } => assert!(members.is_empty()),
        other => panic!("{other:?}"),
    }
    assert_eq!(h.udp_pending(sock), 0);
    assert!(matches!(
        h.remove_namespace(d),
        Err(HostError::NoSuchNamespace(_))
    ));
    assert!(h.remove_namespace(NsId(0)).is_err(), "root stays");

    // The next namespace reuses d's slot with clean state; live handles
    // keep their ids, and a bind on d's old port is free again.
    let e = h.add_namespace("e");
    assert_eq!(e, d);
    assert_eq!(h.namespace(e).unwrap().name, "e");
    assert_eq!(h.namespace(e).unwrap().ifaces.len(), 1, "only lo");
    assert!(h.udp_bind(e, Ipv4Addr::UNSPECIFIED, 500).is_ok());
    assert_eq!(h.iface_by_name(c, "lo").unwrap().id, c_lo);
    assert_eq!(h.iface_by_name(a, "veth-a").unwrap().ns, a);
    // The surviving veth between a and b still carries traffic.
    let echo = un_packet::PacketBuilder::new()
        .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
        .icmp_echo(un_packet::icmp::IcmpKind::EchoRequest, 7, 1)
        .build();
    h.raw_send(a, echo.data().to_vec()).unwrap();
    assert_eq!(h.trace.counter("icmp_echo_requests"), 1);
}

#[test]
fn namespace_churn_keeps_tables_bounded() {
    let mut h = Host::new("churn", CostModel::default());
    for i in 0..1000 {
        let ns = h.add_namespace(&format!("nf-{i}"));
        for p in 0..2u64 {
            h.add_external(ns, &format!("port{p}"), p).unwrap();
        }
        h.remove_namespace(ns).unwrap();
    }
    assert_eq!(h.namespace_count(), 1);
    assert_eq!(h.iface_count(), 1);
    assert_eq!(h.namespaces.len(), 2, "one slot, reused");
    assert_eq!(h.ifaces.len(), 4, "three slots, reused");
}
