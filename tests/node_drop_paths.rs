//! Node-level drop paths: every `DropReason::NODE_DROPS` cause that the
//! public API can reach, on each LSI kind where it applies.
//!
//! For each cause three things must hold:
//!
//! - a plain run moves the node's counter for that cause by exactly n;
//! - a traced run records n `Drop` hops with that reason (and moves the
//!   counter by the same n);
//! - a ghost run records the same n hops and moves no counter at all.
//!
//! Three causes have no public trigger and are left to their guards:
//! `fabric_dead_slot` (undeploy removes the LSI-0 vlink ports before it
//! clears the slot, and no call can interleave with a burst),
//! `l0_unmapped_port` and `graph_unmapped_port` (every LSI port is
//! added to, and removed from, its fabric port map together).

use std::collections::BTreeMap;

use un_core::{PortId, UniversalNode};
use un_domain::{Domain, DomainConfig};
use un_nffg::{NfFg, NfFgBuilder};
use un_obs::{DropReason, HopKind, PacketTrace, TraceSink};
use un_packet::ethernet::MacAddr;
use un_packet::{Packet, PacketBuilder};
use un_sim::mem::mb;

fn frame(i: u8) -> Packet {
    PacketBuilder::new()
        .ethernet(MacAddr::local(1), MacAddr::local(2))
        .ipv4([10, 0, 0, 1].into(), [10, 0, 0, i].into())
        .udp(1000, 2000)
        .payload(&[i; 48])
        .build()
}

fn node_with(graphs: &[NfFg]) -> UniversalNode {
    let mut n = UniversalNode::new("n1", mb(4096));
    n.add_physical_port("eth0");
    n.add_physical_port("eth1");
    for g in graphs {
        n.deploy(g).expect("graph deploys");
    }
    n
}

fn counters(n: &UniversalNode) -> BTreeMap<&'static str, u64> {
    n.trace.counters().collect()
}

fn batch(n: &UniversalNode, frames: u8) -> Vec<(PortId, Packet)> {
    let eth0 = n.port_id("eth0").expect("eth0 exists");
    (1..=frames).map(|i| (eth0, frame(i))).collect()
}

fn count_of(t: &PacketTrace, reason: DropReason) -> u64 {
    t.drops().iter().filter(|r| **r == reason).count() as u64
}

/// Run the same burst plain, traced and ghost on three fresh nodes and
/// check the three properties. Returns n, the traced walk and the node
/// of the plain run.
fn check_cause(
    build: impl Fn() -> UniversalNode,
    frames: u8,
    reason: DropReason,
) -> (u64, PacketTrace, UniversalNode) {
    let name = reason.as_str();

    // Plain: the counter moves by n, and n is what the frame ledger
    // leaves unexplained by egress and absorption.
    let mut plain = build();
    let before = plain.trace.counter(name);
    let b = batch(&plain, frames);
    let io = plain.inject_batch(b);
    let t = &plain.trace;
    let n = t.counter(name) - before;
    assert!(n > 0, "{name}: the scenario must drop");
    let produced = t.counter("fabric_frames_in") + t.counter("fabric_fanout_extra");
    let consumed = io.emitted.len() as u64 + t.counter("fabric_absorbed");
    let dropped: u64 = DropReason::NODE_DROPS
        .iter()
        .map(|r| t.counter(r.as_str()))
        .sum();
    assert_eq!(
        produced,
        consumed + dropped,
        "{name}: frame ledger balances"
    );

    // Traced: n Drop hops with that reason, and the counter moves too.
    let mut traced = build();
    let before = traced.trace.counter(name);
    let sink = TraceSink::new("n1", "eth0", false);
    let b = batch(&traced, frames);
    let _ = traced.inject_batch_flight(b, Some(&sink));
    let walk = sink.finish();
    assert_eq!(count_of(&walk, reason), n, "{name}: traced drop hops");
    assert_eq!(
        traced.trace.counter(name) - before,
        n,
        "{name}: traced count"
    );

    // Ghost: same hops, no counter moves at all.
    let mut ghost = build();
    let before = counters(&ghost);
    let sink = TraceSink::new("n1", "eth0", true);
    let b = batch(&ghost, frames);
    let _ = ghost.inject_batch_flight(b, Some(&sink));
    assert_eq!(
        count_of(&sink.finish(), reason),
        n,
        "{name}: ghost drop hops"
    );
    assert_eq!(counters(&ghost), before, "{name}: ghost froze counters");

    (n, walk, plain)
}

/// Frames a graph LSI sent over a virtual link that LSI-0 never
/// classified: the drops that happened on an LSI-0 step. (Port
/// counters move only on a classified frame.)
fn dropped_at_lsi0(n: &UniversalNode) -> u64 {
    let vlinks = |lsi: &un_switch::LogicalSwitch, tx: bool| -> u64 {
        lsi.ports()
            .filter(|(_, p)| p.name.starts_with("vlink-"))
            .map(|(_, p)| if tx { p.tx_packets } else { p.rx_packets })
            .sum()
    };
    let (mut sent, mut classified) = (0, 0);
    for (graph, lsi) in n.lsis() {
        match graph {
            Some(_) => sent += vlinks(lsi, true),
            None => classified += vlinks(lsi, false),
        }
    }
    sent - classified
}

/// `lan` feeds internal endpoint `a`; LSI-0 cross-connects `a` and `b`
/// (same internal group), and `b` leads back to `a`, optionally through
/// a bridge NF. Nothing ever leaves: each frame circles until its
/// fabric TTL runs out.
fn loop_graph(through_nf: bool) -> NfFg {
    let b = NfFgBuilder::new("loop", "ttl loop")
        .interface_endpoint("lan", "eth0")
        .internal_endpoint("a", "ring")
        .internal_endpoint("b", "ring")
        .rule_through("in", 10, "lan", "a");
    if through_nf {
        b.nf("br", "bridge", 2)
            .rule_through("to-nf", 10, "b", ("br", 0))
            .rule_through("from-nf", 10, ("br", 1), "a")
            .build()
    } else {
        b.rule_through("back", 10, "b", "a").build()
    }
}

#[test]
fn fabric_loop_dies_at_lsi0() {
    // The cycle LSI-0 → graph → LSI-0 is two crossings long, so a TTL
    // of 256 runs out on an LSI-0 step.
    let (n, _, node) = check_cause(
        || node_with(&[loop_graph(false)]),
        3,
        DropReason::FabricLoop,
    );
    assert_eq!(n, 3, "each looping frame dies alone");
    assert_eq!(dropped_at_lsi0(&node), 3);
}

#[test]
fn fabric_loop_dies_in_graph_lsi() {
    // With the bridge in it the cycle is three crossings long, and a
    // TTL of 256 runs out on a graph-LSI step.
    let (n, walk, node) = check_cause(|| node_with(&[loop_graph(true)]), 3, DropReason::FabricLoop);
    assert_eq!(n, 3, "each looping frame dies alone");
    assert_eq!(dropped_at_lsi0(&node), 0);
    assert!(walk
        .hops
        .iter()
        .any(|h| matches!(h.kind, HopKind::NfDeliver { .. })));
}

/// A three-port bridge floods every frame (its destination is never
/// learned) out of ports 1 and 2, and both lead back to port 0, so the
/// copies double on each pass until the per-batch work budget runs
/// dry. With `via_lsi0` both ports lead back through LSI-0 (`a` → `b`).
fn amplifier_graph(via_lsi0: bool) -> NfFg {
    let b = NfFgBuilder::new("amp", "flood loop")
        .interface_endpoint("lan", "eth0")
        .nf("br", "bridge", 3)
        .rule_through("in", 10, "lan", ("br", 0));
    if via_lsi0 {
        b.internal_endpoint("a", "ring")
            .internal_endpoint("b", "ring")
            .rule_through("p1", 10, ("br", 1), "a")
            .rule_through("p2", 10, ("br", 2), "a")
            .rule_through("back", 10, "b", ("br", 0))
            .build()
    } else {
        b.rule_through("p1", 10, ("br", 1), ("br", 0))
            .rule_through("p2", 10, ("br", 2), ("br", 0))
            .build()
    }
}

#[test]
fn fabric_work_exhausted_in_graph_lsi() {
    // No copy ever returns to LSI-0, so the valve trips on graph-LSI
    // steps only.
    let (n, _, node) = check_cause(
        || node_with(&[amplifier_graph(false)]),
        1,
        DropReason::FabricWorkExhausted,
    );
    assert!(n > 1, "the valve drops the amplified copies");
    assert_eq!(dropped_at_lsi0(&node), 0);
}

#[test]
fn fabric_work_exhausted_at_lsi0() {
    let (n, _, node) = check_cause(
        || node_with(&[amplifier_graph(true)]),
        1,
        DropReason::FabricWorkExhausted,
    );
    assert!(n > 1, "the valve drops the amplified copies");
    let at_lsi0 = dropped_at_lsi0(&node);
    assert!(at_lsi0 > 0, "some copies die on an LSI-0 step");
    assert!(at_lsi0 < n, "and some on a graph-LSI step");
}

#[test]
fn graph_unmapped_nf_port() {
    // The bridge is declared with ports 0 and 5, so its instance has
    // ports 0 and 1. It floods port 0's frame out of port 1, which no
    // graph-LSI port maps back.
    let mut g = NfFgBuilder::new("gap", "unmapped nf port")
        .interface_endpoint("lan", "eth0")
        .interface_endpoint("wan", "eth1")
        .nf("br", "bridge", 2)
        .rule_through("in", 10, "lan", ("br", 0))
        .rule_through("out", 10, ("br", 5), "wan")
        .build();
    g.nfs[0].ports[1].id = 5;
    let (n, walk, _) = check_cause(
        || node_with(&[g.clone()]),
        2,
        DropReason::GraphUnmappedNfPort,
    );
    assert_eq!(n, 2);
    let details: Vec<&str> = walk
        .hops
        .iter()
        .filter_map(|h| match &h.kind {
            HopKind::Drop { detail, .. } => Some(detail.as_str()),
            _ => None,
        })
        .collect();
    assert_eq!(details, vec!["nf port 1", "nf port 1"]);
}

#[test]
fn inject_unknown_port() {
    let name = DropReason::InjectUnknownPort.as_str();

    // Plain, node API: counted, nothing enters the fabric.
    let mut n = node_with(&[]);
    let io = n.inject("eth9", frame(1));
    assert!(io.emitted.is_empty());
    assert_eq!(n.trace.counter(name), 1);
    assert_eq!(n.trace.counter("fabric_frames_in"), 0);

    // Traced and ghost, through the domain shuttle: the node's counter
    // carries the drop, the walk records it with the port named.
    let mut d = Domain::new(DomainConfig::default());
    d.add_node(node_with(&[]));
    let (_, walk) = d.inject_traced("n1", "eth9", frame(1), 1);
    assert_eq!(count_of(&walk, DropReason::InjectUnknownPort), 1);
    assert!(walk.hops.iter().any(|h| matches!(&h.kind,
        HopKind::Drop { detail, .. } if detail == "no port 'eth9'")));
    assert_eq!(d.node("n1").unwrap().trace.counter(name), 1);

    let before = counters(d.node("n1").unwrap());
    let walk = d.trace_frame("n1", "eth9", frame(1));
    assert_eq!(count_of(&walk, DropReason::InjectUnknownPort), 1);
    assert_eq!(counters(d.node("n1").unwrap()), before);
}
