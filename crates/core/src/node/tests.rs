//! Orchestrator tests: deploy, steer, share, update, tear down.

use super::*;
use un_nffg::NfFgBuilder;
use un_sim::mem::mb;

fn node() -> UniversalNode {
    let mut n = UniversalNode::new("cpe-1", mb(2048));
    n.add_physical_port("eth0");
    n.add_physical_port("eth1");
    n
}

fn bridge_graph(id: &str) -> un_nffg::NfFg {
    NfFgBuilder::new(id, "l2")
        .interface_endpoint("lan", "eth0")
        .interface_endpoint("wan", "eth1")
        .nf("br", "bridge", 2)
        .chain("lan", &["br"], "wan")
        .build()
}

fn frame(payload: &[u8]) -> Packet {
    un_packet::PacketBuilder::new()
        .ethernet(MacAddr::local(1), MacAddr::local(2))
        .ipv4("10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap())
        .udp(1000, 2000)
        .payload(payload)
        .build()
}

#[test]
fn deploy_and_steer_through_native_bridge() {
    let mut n = node();
    let report = n.deploy(&bridge_graph("g1")).unwrap();
    assert_eq!(report.placements.len(), 1);
    assert_eq!(report.placements[0].1, Flavor::Native);
    assert!(report.flow_entries >= 6, "classification + chain rules");

    // LAN -> bridge NNF -> WAN.
    let io = n.inject("eth0", frame(b"hello"));
    assert_eq!(io.emitted.len(), 1, "exactly one egress");
    assert_eq!(io.emitted[0].0, "eth1");
    assert!(io.cost.as_nanos() > 0);

    // And back.
    let io = n.inject("eth1", frame(b"reply"));
    assert_eq!(io.emitted.len(), 1);
    assert_eq!(io.emitted[0].0, "eth0");
}

#[test]
fn undeploy_restores_clean_node() {
    let mut n = node();
    n.deploy(&bridge_graph("g1")).unwrap();
    assert_eq!(n.graph_ids(), vec!["g1".to_string()]);
    let flows_before = n.total_flows();
    assert!(flows_before > 0);
    assert!(n.memory_used() > 0);

    n.undeploy("g1").unwrap();
    assert!(n.graph_ids().is_empty());
    assert_eq!(n.total_flows(), 0);
    assert_eq!(n.memory_used(), 0);
    // Traffic now dies at LSI-0.
    let io = n.inject("eth0", frame(b"x"));
    assert!(io.emitted.is_empty());
    // Slot is reusable.
    n.deploy(&bridge_graph("g2")).unwrap();
    assert_eq!(n.inject("eth0", frame(b"y")).emitted.len(), 1);
}

#[test]
fn deploy_validation_failures() {
    let mut n = node();
    // Unknown interface.
    let g = NfFgBuilder::new("g", "x")
        .interface_endpoint("lan", "eth9")
        .build();
    assert!(matches!(n.deploy(&g), Err(DeployError::NoSuchInterface(_))));
    // Invalid graph (no endpoints).
    let g = NfFgBuilder::new("g", "x").build();
    assert!(matches!(n.deploy(&g), Err(DeployError::Invalid(_))));
    // Unknown functional type.
    let g = NfFgBuilder::new("g", "x")
        .interface_endpoint("lan", "eth0")
        .nf("mystery", "quantum-dpi", 2)
        .rule_through("r1", 1, "lan", ("mystery", 0))
        .rule_through("r2", 1, ("mystery", 1), "lan")
        .build();
    assert!(matches!(n.deploy(&g), Err(DeployError::NoTemplate(_))));
    // Duplicate deploy.
    n.deploy(&bridge_graph("dup")).unwrap();
    assert!(matches!(
        n.deploy(&bridge_graph("dup")),
        Err(DeployError::AlreadyDeployed(_))
    ));
}

#[test]
fn endpoint_conflict_detected() {
    let mut n = node();
    n.deploy(&bridge_graph("g1")).unwrap();
    // Second graph claiming eth0 untagged traffic must be refused.
    let g2 = NfFgBuilder::new("g2", "other")
        .interface_endpoint("lan", "eth0")
        .interface_endpoint("wan", "eth1")
        .nf("br", "bridge", 2)
        .chain("lan", &["br"], "wan")
        .build();
    assert!(matches!(
        n.deploy(&g2),
        Err(DeployError::EndpointConflict(_))
    ));
    // But VLAN endpoints on the same interface are fine.
    let g3 = NfFgBuilder::new("g3", "tagged")
        .vlan_endpoint("lan", "eth0", 42)
        .vlan_endpoint("wan", "eth1", 42)
        .nf("br", "bridge", 2)
        .chain("lan", &["br"], "wan")
        .build();
    n.deploy(&g3).unwrap();

    // Tagged traffic reaches g3 and comes out re-tagged on eth1.
    let mut f = frame(b"tagged");
    f.vlan_push(42).unwrap();
    let io = n.inject("eth0", f);
    assert_eq!(io.emitted.len(), 1);
    assert_eq!(io.emitted[0].0, "eth1");
    assert_eq!(io.emitted[0].1.vlan_id(), Some(42));
}

#[test]
fn vm_flavor_hint_is_honored() {
    let mut n = node();
    let g = NfFgBuilder::new("g-vm", "forced-vm")
        .interface_endpoint("lan", "eth0")
        .interface_endpoint("wan", "eth1")
        .nf("br", "bridge", 2)
        .with_flavor("vm")
        .chain("lan", &["br"], "wan")
        .build();
    let report = n.deploy(&g).unwrap();
    assert_eq!(report.placements[0].1, Flavor::Vm);
    // The VM path still forwards.
    let io = n.inject("eth0", frame(b"via-vm"));
    assert_eq!(io.emitted.len(), 1);
    assert_eq!(io.emitted[0].0, "eth1");
    // And costs more than the native path would (structural claim).
    let mut n2 = node();
    n2.deploy(&bridge_graph("g-native")).unwrap();
    let io_native = n2.inject("eth0", frame(b"via-nnf"));
    assert!(
        io.cost.as_nanos() > io_native.cost.as_nanos(),
        "VM {} vs native {}",
        io.cost.as_nanos(),
        io_native.cost.as_nanos()
    );
}

#[test]
fn admission_control_rolls_back() {
    let mut n = UniversalNode::new("tiny", mb(100)); // less than one VM
    n.add_physical_port("eth0");
    n.add_physical_port("eth1");
    let g = NfFgBuilder::new("g", "heavy")
        .interface_endpoint("lan", "eth0")
        .interface_endpoint("wan", "eth1")
        .nf("br", "bridge", 2)
        .with_flavor("vm")
        .chain("lan", &["br"], "wan")
        .build();
    assert!(matches!(
        n.deploy(&g),
        Err(DeployError::InsufficientMemory { .. })
    ));
    // Everything rolled back.
    assert_eq!(n.memory_used(), 0);
    assert!(n.graph_ids().is_empty());
    assert_eq!(n.compute.len(), 0);
    assert_eq!(n.total_flows(), 0);
}

#[test]
fn rule_only_update_in_place() {
    let mut n = node();
    n.deploy(&bridge_graph("g1")).unwrap();
    let before_instances = n.compute.len();

    // Change a rule's priority: must not touch instances.
    let mut g2 = bridge_graph("g1");
    g2.flow_rules[0].priority = 99;
    let report = n.update(&g2).unwrap();
    assert_eq!(report.graph, "g1");
    assert_eq!(n.compute.len(), before_instances);
    assert_eq!(n.trace.counter("graph_updates_rules"), 1);
    assert_eq!(n.trace.counter("graph_updates_structural"), 0);
    // Traffic still flows.
    assert_eq!(n.inject("eth0", frame(b"x")).emitted.len(), 1);
}

#[test]
fn structural_update_redeploys() {
    let mut n = node();
    n.deploy(&bridge_graph("g1")).unwrap();
    // Replace the bridge with a router-less chain of two bridges.
    let g2 = NfFgBuilder::new("g1", "two-bridges")
        .interface_endpoint("lan", "eth0")
        .interface_endpoint("wan", "eth1")
        .nf("br-a", "bridge", 2)
        .nf("br-b", "bridge", 2)
        .chain("lan", &["br-a", "br-b"], "wan")
        .build();
    let report = n.update(&g2).unwrap();
    assert_eq!(report.placements.len(), 2);
    assert_eq!(n.trace.counter("graph_updates_structural"), 1);
    let io = n.inject("eth0", frame(b"through-two"));
    assert_eq!(io.emitted.len(), 1);
    assert_eq!(io.emitted[0].0, "eth1");
}

#[test]
fn describe_and_diagram_reflect_architecture() {
    let mut n = node();
    n.deploy(&bridge_graph("g1")).unwrap();
    let desc = n.describe();
    assert_eq!(desc.name, "cpe-1");
    assert_eq!(desc.graphs, vec!["g1".to_string()]);
    assert_eq!(desc.instances.len(), 1);
    assert!(desc.flavors.contains(&"native".to_string()));
    assert!(desc.nnfs.iter().any(|(t, s, _)| t == "nat" && *s));
    assert!(desc.memory_used > 0);

    let diagram = n.architecture_diagram();
    assert!(diagram.contains("LSI-0"));
    assert!(diagram.contains("LSI-g1"));
    assert!(diagram.contains("Native driver"));
    assert!(diagram.contains("virtual link"));
    assert!(diagram.contains("Compute manager"));
}

#[test]
fn three_node_chain_firewall_router_bridge() {
    let mut n = node();
    let mut fw_cfg = un_nffg::NfConfig::default()
        .with_param("addr0", "10.0.0.1/24")
        .with_param("addr1", "10.0.1.1/24")
        .with_param("policy", "accept")
        .with_param("stateful", "false");
    fw_cfg.params.insert("gw".into(), "10.0.1.2".into());
    let g = NfFgBuilder::new("g-chain", "chain")
        .interface_endpoint("lan", "eth0")
        .interface_endpoint("wan", "eth1")
        .nf("br1", "bridge", 2)
        .nf("br2", "bridge", 2)
        .chain("lan", &["br1", "br2"], "wan")
        .build();
    let _ = fw_cfg;
    let report = n.deploy(&g).unwrap();
    assert_eq!(report.placements.len(), 2);
    let io = n.inject("eth0", frame(b"chained"));
    assert_eq!(io.emitted.len(), 1);
    assert_eq!(io.emitted[0].0, "eth1");
}

#[test]
fn inject_batch_equals_sequential_injects() {
    let mut seq = node();
    seq.deploy(&bridge_graph("g1")).unwrap();
    let mut seq_emitted: Vec<(Name, Packet)> = Vec::new();
    let mut seq_cost = un_sim::Cost::ZERO;
    for i in 0..10u8 {
        let io = seq.inject("eth0", frame(&[i]));
        seq_emitted.extend(io.emitted);
        seq_cost += io.cost;
    }

    let mut batched = node();
    batched.deploy(&bridge_graph("g1")).unwrap();
    let lan = batched.port_id("eth0").unwrap();
    let io = batched.inject_batch((0..10u8).map(|i| (lan, frame(&[i]))).collect());

    let flat = |v: &[(Name, Packet)]| -> Vec<(String, Vec<u8>)> {
        let mut out: Vec<(String, Vec<u8>)> = v
            .iter()
            .map(|(p, pkt)| (p.to_string(), pkt.data().to_vec()))
            .collect();
        out.sort();
        out
    };
    assert_eq!(flat(&io.emitted), flat(&seq_emitted));
    assert_eq!(io.cost, seq_cost, "batching must not change charged time");
}

#[test]
fn port_ids_resolve_physical_ports_only() {
    let n = node();
    assert!(n.port_id("eth0").is_some());
    assert!(n.port_id("eth1").is_some());
    assert!(n.port_id("ghost").is_none());
    assert_ne!(n.port_id("eth0"), n.port_id("eth1"));
}

#[test]
fn flow_cache_stats_surface_in_description() {
    let mut n = node();
    n.deploy(&bridge_graph("g1")).unwrap();
    for i in 0..4u8 {
        n.inject("eth0", frame(&[i]));
    }
    let stats = n.flow_cache_stats();
    assert!(stats.cache_hits > 0, "repeat flows must hit the cache");
    assert!(stats.cache_misses > 0, "first packet must miss");
    assert!(stats.hit_rate() > 0.0);
    let json = n.describe().to_json();
    assert!(json.contains("\"flow_cache_hits\""), "{json}");
    assert!(json.contains("\"flow_cache_misses\""), "{json}");
}

#[test]
fn linear_classifier_mode_forwards_identically() {
    let mut n = node();
    n.set_classifier_mode(un_switch::ClassifierMode::Linear);
    n.deploy(&bridge_graph("g1")).unwrap();
    let io = n.inject("eth0", frame(b"linear"));
    assert_eq!(io.emitted.len(), 1);
    assert_eq!(io.emitted[0].0, "eth1");
    let stats = n.flow_cache_stats();
    assert_eq!(stats.cache_hits, 0, "linear mode bypasses the cache");
}

#[test]
fn deploy_undeploy_cycles_release_host_state() {
    for flavor in ["native", "docker", "vm"] {
        let mut n = node();
        let g = NfFgBuilder::new("g", "churn")
            .interface_endpoint("lan", "eth0")
            .interface_endpoint("wan", "eth1")
            .nf("br", "bridge", 2)
            .with_flavor(flavor)
            .chain("lan", &["br"], "wan")
            .build();
        let namespaces = n.host.namespace_count();
        let ifaces = n.host.iface_count();
        for _ in 0..1000 {
            n.deploy(&g).unwrap();
            n.undeploy("g").unwrap();
        }
        assert_eq!(n.host.namespace_count(), namespaces, "{flavor}");
        assert_eq!(n.host.iface_count(), ifaces, "{flavor}");
        // The freed slots are reused: the node still forwards.
        n.deploy(&g).unwrap();
        let io = n.inject("eth0", frame(b"after-churn"));
        assert_eq!(io.emitted.len(), 1, "{flavor}");
        assert_eq!(io.emitted[0].0, "eth1", "{flavor}");
    }
}
