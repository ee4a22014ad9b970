//! The three workloads' fleets and graphs, built through the public
//! `un-domain` / `un-core` API exactly as an operator would.

use std::collections::BTreeMap;
use std::time::Instant;

use un_core::UniversalNode;
use un_domain::{DeployHints, Domain, DomainConfig, EdgeAttrs, Topology};
use un_nffg::{EndpointKind, NfFg, NfFgBuilder};
use un_sim::mem::mb;

/// Nodes in the `local_chain` and `control_churn` fleets.
pub const FLEET: usize = 8;
/// Bridges of one `local_chain` chain, with their forced flavors (the
/// paper's Figure 1 mixed-technology node).
pub const MIXED_CHAIN: [(&str, &str); 3] = [("br0", "native"), ("br1", "docker"), ("br2", "vm")];
/// The `overlay_esp` line fabric.
pub const LINE: [&str; 4] = ["n1", "n2", "n3", "n4"];

/// Name of fleet node `i`.
pub fn node_name(i: usize) -> String {
    format!("n{i}")
}

fn node(name: &str, ports: &[&str]) -> UniversalNode {
    let mut n = UniversalNode::new(name, mb(4096));
    for p in ports {
        n.add_physical_port(p);
    }
    n
}

/// Pin every NF and endpoint of a graph: `(id, node)` pairs.
pub fn hints(endpoints: &[(&str, &str)], nfs: &[(&str, &str)]) -> DeployHints {
    let own = |v: &[(&str, &str)]| -> BTreeMap<String, String> {
        v.iter()
            .map(|(k, n)| (k.to_string(), n.to_string()))
            .collect()
    };
    DeployHints {
        endpoint_node: own(endpoints),
        nf_node: own(nfs),
        strategy: None,
    }
}

/// A bridge chain `lan → nfs… → wan`. `nfs` are `(id, type, flavor)`;
/// `vlan` turns both endpoints into VLAN endpoints on that tag.
pub fn chain(id: &str, nfs: &[(&str, &str, Option<&str>)], vlan: Option<u16>) -> NfFg {
    let mut b = NfFgBuilder::new(id, "perfbench chain");
    b = match vlan {
        Some(v) => b
            .vlan_endpoint("lan", "eth0", v)
            .vlan_endpoint("wan", "eth1", v),
        None => b
            .interface_endpoint("lan", "eth0")
            .interface_endpoint("wan", "eth1"),
    };
    for (nf, ty, flavor) in nfs {
        b = b.nf(nf, ty, 2);
        if let Some(f) = flavor {
            b = b.with_flavor(f);
        }
    }
    let ids: Vec<&str> = nfs.iter().map(|(nf, _, _)| *nf).collect();
    b.chain("lan", &ids, "wan").build()
}

/// The same graph with every rule's priority moved by one: a
/// rules-only change (`Domain::update` applies it in place).
pub fn toggled(graph: &NfFg) -> NfFg {
    let mut g = graph.clone();
    for r in &mut g.flow_rules {
        r.priority = if r.priority == 10 { 11 } else { 10 };
    }
    g
}

/// A fleet with no graphs yet, and the deploys its set-up makes.
pub struct Plan {
    /// The empty fleet.
    pub domain: Domain,
    /// `(graph, pins)` in deploy order.
    pub deploys: Vec<(NfFg, DeployHints)>,
}

impl Plan {
    /// Make the deploys, timing each.
    pub fn deploy(self) -> Built {
        let Plan {
            mut domain,
            deploys,
        } = self;
        let mut deploy_us = Vec::new();
        let mut graphs = Vec::new();
        for (g, h) in deploys {
            let t = Instant::now();
            domain.deploy_with(&g, &h).expect("set-up deploy succeeds");
            deploy_us.push(t.elapsed().as_secs_f64() * 1e6);
            graphs.push(g);
        }
        Built {
            domain,
            graphs,
            deploy_us,
        }
    }
}

impl Plan {
    /// The same fleet and deploys with every NF taken out: each graph
    /// becomes a direct `lan → wan` chain with the same endpoints and
    /// pins, so its frames still cross the same nodes and overlay
    /// links.
    pub fn without_nfs(self) -> Plan {
        let deploys = self
            .deploys
            .into_iter()
            .map(|(g, h)| {
                let vlan = g.endpoints.iter().find_map(|e| match &e.kind {
                    EndpointKind::Vlan { vlan_id, .. } => Some(*vlan_id),
                    _ => None,
                });
                let hints = DeployHints {
                    nf_node: BTreeMap::new(),
                    ..h
                };
                (chain(&g.id, &[], vlan), hints)
            })
            .collect();
        Plan {
            domain: self.domain,
            deploys,
        }
    }
}

/// A deployed fleet plus what its set-up cost.
pub struct Built {
    /// The fleet.
    pub domain: Domain,
    /// Graphs deployed during set-up, in order.
    pub graphs: Vec<NfFg>,
    /// Wall time of each set-up deploy, µs.
    pub deploy_us: Vec<f64>,
}

/// `local_chain`: eight nodes, each running its own mixed-flavor chain
/// between its `eth0` and `eth1`; no overlay links.
pub fn local_chain(observability: bool) -> Plan {
    let domain = fleet(DomainConfig {
        observability,
        ..DomainConfig::default()
    });
    let deploys = (0..FLEET)
        .map(|i| {
            let n = node_name(i);
            let nfs: Vec<(&str, &str, Option<&str>)> = MIXED_CHAIN
                .iter()
                .map(|(id, flavor)| (*id, "bridge", Some(*flavor)))
                .collect();
            let pins: Vec<(&str, &str)> = MIXED_CHAIN
                .iter()
                .map(|(id, _)| (*id, n.as_str()))
                .collect();
            (
                chain(&format!("g-{n}"), &nfs, None),
                hints(&[("lan", &n), ("wan", &n)], &pins),
            )
        })
        .collect();
    Plan { domain, deploys }
}

/// `overlay_esp`: the line n1–n2–n3–n4, one chain br1@n1 → br2@n3
/// whose two cut edges transit n2; ESP and observability on.
pub fn overlay_esp() -> Plan {
    let mut domain = Domain::new(DomainConfig {
        topology: Topology::line(&LINE, EdgeAttrs::default()),
        protect_overlay: true,
        observability: true,
        ..DomainConfig::default()
    });
    for name in LINE {
        let ports: &[&str] = match name {
            "n1" => &["eth0"],
            "n3" => &["eth1"],
            _ => &[],
        };
        domain.add_node(node(name, ports));
    }
    let g = chain(
        "svc",
        &[("br1", "bridge", None), ("br2", "bridge", None)],
        None,
    );
    let h = hints(
        &[("lan", "n1"), ("wan", "n3")],
        &[("br1", "n1"), ("br2", "n3")],
    );
    Plan {
        domain,
        deploys: vec![(g, h)],
    }
}

/// Bridges of one churn chain; the first half sits on the head node.
pub const CHURN_NFS: [&str; 4] = ["br1", "br2", "br3", "br4"];

/// Graph id and VLAN tag of churn graph `k` (tags are unique among the
/// few graphs live at once).
pub fn churn_ids(k: u64) -> (String, u16) {
    (format!("c{k}"), 100 + (k % 3000) as u16)
}

/// Churn graph `k`, split across `head` and `tail`.
pub fn churn_graph(k: u64, head: &str, tail: &str) -> (NfFg, DeployHints) {
    let (id, vid) = churn_ids(k);
    let nfs: Vec<(&str, &str, Option<&str>)> =
        CHURN_NFS.iter().map(|nf| (*nf, "bridge", None)).collect();
    let g = chain(&id, &nfs, Some(vid));
    let h = hints(
        &[("lan", head), ("wan", tail)],
        &[("br1", head), ("br2", head), ("br3", tail), ("br4", tail)],
    );
    (g, h)
}

/// An empty full-mesh fleet of [`FLEET`] nodes, each with `eth0` and
/// `eth1` (`local_chain` and `control_churn`).
pub fn fleet(config: DomainConfig) -> Domain {
    let mut d = Domain::new(config);
    for i in 0..FLEET {
        d.add_node(node(&node_name(i), &["eth0", "eth1"]));
    }
    d
}

/// The node currently hosting a graph's `lan` endpoint (repairs may
/// move it).
pub fn ingress_node(d: &Domain, graph: &str) -> Option<String> {
    d.partition_of(graph)?
        .parts
        .iter()
        .find(|(_, part)| part.endpoints.iter().any(|e| e.id == "lan"))
        .map(|(n, _)| n.clone())
}
