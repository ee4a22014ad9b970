//! The traced run: the workload replayed layer by layer.
//!
//! Each traced burst is one closed-loop `Domain::inject_batch` on fleet
//! A (workers = 1, so the layers run one after another). That call is
//! the root span. Its work is then replayed one layer down, from this
//! benchmark and through public APIs only, and each replay is recorded
//! as a child span:
//!
//! * `domain.call` — an empty-ingress `Domain::inject_batch` (per-call
//!   set-up);
//! * `core.node.inject_batch` — the same frames through
//!   `UniversalNode::inject_batch` on a shadow fleet B built from the
//!   same seed, with this benchmark carrying fabric frames between
//!   nodes along `Domain::link_path`;
//! * `ipsec.seal` / `ipsec.open` — every frame crossing a protected
//!   overlay link, sealed and opened on standalone SAs;
//! * under each node call: `switch.lsi0.process` and
//!   `switch.graph_lsi.process` on standalone copies of that node's
//!   LSIs (loaded with `FlowEntry` copies from `UniversalNode::lsis`),
//!   and `compute.deliver.<flavor>` on the node's own NF instances.
//!
//! Self times then split the burst: the domain span's self time is the
//! shuttle, a node span's self time is fabric bookkeeping.
//!
//! The layer sum checked against untraced calls is built only from
//! spans timed apart from the root: the replayed empty calls, node
//! calls and ESP, plus a shuttle figure measured on a calibration fleet
//! (the workload with every NF and overlay protection taken out). The
//! root's own remainder is reported, and a remainder that goes negative
//! beyond the tolerance fails the run, since it means the replays
//! over-explain the call.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use un_compute::{Flavor, InstanceId, NodeEnv};
use un_core::UniversalNode;
use un_domain::{DeployHints, Domain, NodeView};
use un_ipsec::esp;
use un_ipsec::sa::SecurityAssociation;
use un_nffg::NfFg;
use un_packet::Packet;
use un_sim::cost::CostModel;
use un_switch::{LogicalSwitch, PortNo};

use crate::e2e::{self, Churn, Inject, Run};
use crate::fleet::{self, Built, Plan};
use crate::gen::{FlowSpec, Rng};
use crate::spans::{SpanId, Tracer};
use crate::stats::median;
use crate::{Metrics, Shape, Verdict, Workload};

/// The layer self times must add up to within this share of the
/// untraced per-frame time.
pub const LAYER_SUM_TOLERANCE: f64 = 0.25;

/// Whether a per-frame layer sum is within [`LAYER_SUM_TOLERANCE`] of
/// the untraced per-frame time.
fn within_tolerance(layer_sum: f64, untraced: f64) -> bool {
    untraced > 0.0 && (layer_sum / untraced - 1.0).abs() <= LAYER_SUM_TOLERANCE
}

/// Whether a remainder (a span minus the replays that explain it) is
/// no more negative than [`LAYER_SUM_TOLERANCE`] of `whole`.
fn remainder_ok(remainder: f64, whole: f64) -> bool {
    whole > 0.0 && remainder >= -LAYER_SUM_TOLERANCE * whole
}

/// Where traced spans are written (one JSON object per line).
const SPAN_DIR: &str = "perfbench/out";
/// Traced bursts per run at most: bounds the spans held in memory on
/// the per-frame workload (about twenty spans per frame).
const MAX_TRACED_BURSTS: u64 = 20_000;
/// Spans written out at most (the first ones recorded); every span
/// still counts toward the metrics.
const MAX_WRITTEN_SPANS: usize = 20_000;

/// Shares of `--seconds` given to each phase of the traced run.
const DATAPLANE_SHARE: f64 = 0.55;
const DELIVER_SHARE: f64 = 0.15;
const CONTROL_SHARE: f64 = 0.2;
const MICRO_SHARE: f64 = 0.02;

// ---------------------------------------------------------------------
// Standalone LSI copies and the in-node replay
// ---------------------------------------------------------------------

/// A standalone copy of one LSI plus its port-name maps.
struct LsiCopy {
    sw: LogicalSwitch,
    by_name: BTreeMap<String, u32>,
    names: BTreeMap<u32, String>,
}

impl LsiCopy {
    fn of(lsi: &LogicalSwitch) -> LsiCopy {
        let mut sw = LogicalSwitch::new(&lsi.name, lsi.dpid, lsi.backend());
        let mut by_name = BTreeMap::new();
        let mut names = BTreeMap::new();
        for (no, info) in lsi.ports() {
            sw.add_port(no, &info.name)
                .expect("fresh copy has no ports");
            by_name.insert(info.name.clone(), no.0);
            names.insert(no.0, info.name.clone());
        }
        for (t, table) in lsi.tables() {
            for e in table.entries() {
                sw.install(t, e.clone()).expect("copy has the same tables");
            }
        }
        LsiCopy { sw, by_name, names }
    }
}

/// Standalone copies of every LSI of one node.
struct NodeCopy {
    l0: LsiCopy,
    graphs: BTreeMap<String, LsiCopy>,
}

impl NodeCopy {
    fn of(node: &UniversalNode) -> NodeCopy {
        let mut l0 = None;
        let mut graphs = BTreeMap::new();
        for (gid, lsi) in node.lsis() {
            match gid {
                None => l0 = Some(LsiCopy::of(lsi)),
                Some(g) => {
                    graphs.insert(g.to_string(), LsiCopy::of(lsi));
                }
            }
        }
        NodeCopy {
            l0: l0.expect("every node has LSI-0"),
            graphs,
        }
    }

    /// `vlink-<graph>-<endpoint>` on LSI-0 → (graph, graph-LSI port).
    fn l0_to_graph(&self, port_name: &str) -> Option<(String, u32)> {
        let rest = port_name.strip_prefix("vlink-")?;
        let (gid, lsi) = self
            .graphs
            .iter()
            .filter(|(g, _)| rest.starts_with(&format!("{g}-")))
            .max_by_key(|(g, _)| g.len())?;
        let ep = &rest[gid.len() + 1..];
        let port = *lsi.by_name.get(&format!("vlink-{ep}"))?;
        Some((gid.clone(), port))
    }
}

/// Counts and model charges gathered while replaying.
#[derive(Debug, Default)]
struct Tally {
    lsi0_lookups: u64,
    graph_lookups: u64,
    lsi0_model_ns: u64,
    graph_model_ns: u64,
    /// Per flavor: model ns charged for the replayed deliveries.
    delivery_model_ns: BTreeMap<&'static str, u64>,
    /// Injected frames of the traced bursts.
    frames: u64,
    /// Frames that left fleet B at an egress port.
    egress: u64,
    /// Frames that crossed an overlay link in the replay.
    crossings: u64,
    /// Replay steps that found no port to continue on.
    unmapped: u64,
    /// Frames of node calls that passed a graph LSI, and of node calls
    /// that only crossed LSI-0 (transit).
    part_visits: u64,
    transit_visits: u64,
    /// `DomainIo.cost` of the traced calls, ns.
    model_ns: u64,
    overlay_hops: u64,
    protected_bytes: u64,
}

fn flavor_span(f: Flavor) -> &'static str {
    match f {
        Flavor::Native => "compute.deliver.native",
        Flavor::Docker => "compute.deliver.docker",
        Flavor::Vm => "compute.deliver.vm",
        Flavor::Dpdk => "compute.deliver.dpdk",
    }
}

/// Replay one node call's frames on the node's standalone LSI copies
/// and its own NF instances, recording spans under `parent`.
#[allow(clippy::too_many_arguments)]
fn replay_in_node(
    tr: &mut Tracer,
    parent: SpanId,
    run_id: u64,
    copy: &mut NodeCopy,
    node: &mut UniversalNode,
    costs: &CostModel,
    ingress: Vec<(String, Packet)>,
    tally: &mut Tally,
) {
    let mut at_l0: Vec<(u32, Packet)> = Vec::new();
    for (port, pkt) in ingress {
        match copy.l0.by_name.get(&port) {
            Some(&p) => at_l0.push((p, pkt)),
            None => tally.unmapped += 1,
        }
    }
    let mut at_graph: BTreeMap<String, Vec<(u32, Packet)>> = BTreeMap::new();
    loop {
        if !at_l0.is_empty() {
            let batch = std::mem::take(&mut at_l0);
            let n = batch.len() as u64;
            let l0 = &mut copy.l0.sw;
            let (_, (outs, model)) =
                tr.span("switch.lsi0.process", Some(parent), run_id, n, || {
                    let mut outs = Vec::new();
                    let mut model = 0;
                    for (p, pkt) in batch {
                        let r = l0.process(PortNo(p), pkt, costs);
                        model += r.cost.as_nanos();
                        outs.extend(r.outputs);
                    }
                    (outs, model)
                });
            tally.lsi0_lookups += n;
            tally.lsi0_model_ns += model;
            for (out, pkt) in outs {
                let name = &copy.l0.names[&out.0];
                if !name.starts_with("vlink-") {
                    continue; // a physical port: the frame leaves the node
                }
                match copy.l0_to_graph(name) {
                    Some((g, p)) => at_graph.entry(g).or_default().push((p, pkt)),
                    None => tally.unmapped += 1,
                }
            }
            continue;
        }
        let Some((gid, batch)) = at_graph.pop_first() else {
            break;
        };
        let n = batch.len() as u64;
        let lsi = copy.graphs.get_mut(&gid).expect("graph copied");
        let sw = &mut lsi.sw;
        let (_, (outs, model)) =
            tr.span("switch.graph_lsi.process", Some(parent), run_id, n, || {
                let mut outs = Vec::new();
                let mut model = 0;
                for (p, pkt) in batch {
                    let r = sw.process(PortNo(p), pkt, costs);
                    model += r.cost.as_nanos();
                    outs.extend(r.outputs);
                }
                (outs, model)
            });
        tally.graph_lookups += n;
        tally.graph_model_ns += model;
        // Consecutive frames for one NF cross the boundary as one
        // batch, as the node does.
        let mut to_nf: Vec<(String, Vec<(u32, Packet)>)> = Vec::new();
        for (out, pkt) in outs {
            let name = &lsi.names[&out.0];
            if let Some(ep) = name.strip_prefix("vlink-") {
                match copy.l0.by_name.get(&format!("vlink-{gid}-{ep}")) {
                    Some(&p) => at_l0.push((p, pkt)),
                    None => tally.unmapped += 1,
                }
            } else if let Some((nf, port)) = name
                .strip_prefix("to-")
                .and_then(|s| s.rsplit_once(':'))
                .and_then(|(nf, p)| Some((nf, p.parse::<u32>().ok()?)))
            {
                match to_nf.last_mut() {
                    Some((last, frames)) if last == nf => frames.push((port, pkt)),
                    _ => to_nf.push((nf.to_string(), vec![(port, pkt)])),
                }
            } else {
                tally.unmapped += 1;
            }
        }
        for (nf, frames) in to_nf {
            let Some((inst, flavor)) = node.instance_of(&gid, &nf) else {
                tally.unmapped += frames.len() as u64;
                continue;
            };
            let outcomes = deliver(tr, Some(parent), run_id, node, inst, flavor, frames);
            let model = tally
                .delivery_model_ns
                .entry(flavor_span(flavor))
                .or_default();
            for o in outcomes {
                *model += o.cost.as_nanos();
                for (p2, pkt) in o.outputs {
                    match lsi.by_name.get(&format!("to-{nf}:{p2}")) {
                        Some(&p) => at_graph.entry(gid.clone()).or_default().push((p, pkt)),
                        None => tally.unmapped += 1,
                    }
                }
            }
        }
    }
}

/// One `ComputeManager::deliver_batch` on a node's own instance.
fn deliver(
    tr: &mut Tracer,
    parent: Option<SpanId>,
    run_id: u64,
    node: &mut UniversalNode,
    inst: InstanceId,
    flavor: Flavor,
    frames: Vec<(u32, Packet)>,
) -> Vec<un_compute::IoOutcome> {
    let n = frames.len() as u64;
    let UniversalNode {
        host,
        ledger,
        costs,
        compute,
        ..
    } = node;
    let mut env = NodeEnv {
        host,
        ledger,
        costs,
    };
    tr.span(flavor_span(flavor), parent, run_id, n, || {
        compute.deliver_batch(&mut env, inst, frames)
    })
    .1
}

// ---------------------------------------------------------------------
// The domain replay on the shadow fleet
// ---------------------------------------------------------------------

/// Standalone SA pair per protected overlay link.
struct EspLinks(BTreeMap<u16, (SecurityAssociation, SecurityAssociation)>);

impl EspLinks {
    fn pair(&mut self, vid: u16) -> &mut (SecurityAssociation, SecurityAssociation) {
        self.0.entry(vid).or_insert_with(|| sa_pair(u32::from(vid)))
    }
}

fn sa_pair(spi: u32) -> (SecurityAssociation, SecurityAssociation) {
    let (src, dst) = ([192, 0, 2, 1].into(), [192, 0, 2, 2].into());
    let key = [0x42; 32];
    let salt = [7; 4];
    (
        SecurityAssociation::outbound(spi, src, dst, key, salt),
        SecurityAssociation::inbound(spi, src, dst, key, salt),
    )
}

/// The shadow fleet, its LSI copies and SAs.
struct Shadow {
    domain: Domain,
    copies: BTreeMap<String, NodeCopy>,
    esp: EspLinks,
    protect: bool,
    fabric: String,
}

impl Shadow {
    fn new(domain: Domain) -> Shadow {
        let copies = domain
            .node_names()
            .into_iter()
            .map(|n| {
                let copy = NodeCopy::of(domain.node(&n).expect("listed node"));
                (n, copy)
            })
            .collect();
        Shadow {
            protect: domain.config.protect_overlay,
            fabric: domain.config.fabric_port.clone(),
            domain,
            copies,
            esp: EspLinks(BTreeMap::new()),
        }
    }

    /// Replay one domain burst node by node under `root`: node calls
    /// in waves, fabric frames carried to the next node of their link
    /// path, protected crossings sealed and opened. With `in_node`,
    /// each node call is replayed again on its LSI copies and NFs.
    fn replay(
        &mut self,
        tr: &mut Tracer,
        root: SpanId,
        run_id: u64,
        ingress: Vec<(String, String, Packet)>,
        tally: &mut Tally,
        in_node: bool,
    ) {
        let mut wave: BTreeMap<String, Vec<(String, Packet)>> = BTreeMap::new();
        for (n, p, pkt) in ingress {
            wave.entry(n).or_default().push((p, pkt));
        }
        while !wave.is_empty() {
            let mut next: BTreeMap<String, Vec<(String, Packet)>> = BTreeMap::new();
            for (name, frames) in std::mem::take(&mut wave) {
                let node = self.domain.node_mut(&name).expect("shadow node");
                let batch: Vec<_> = frames
                    .iter()
                    .filter_map(|(p, pkt)| Some((node.port_id(p)?, pkt.clone())))
                    .collect();
                let n = batch.len() as u64;
                let (span, io) = tr.span("core.node.inject_batch", Some(root), run_id, n, || {
                    node.inject_batch(batch)
                });
                if in_node {
                    let costs = node.costs.clone();
                    let copy = self.copies.get_mut(&name).expect("copied node");
                    let graph_lookups = tally.graph_lookups;
                    replay_in_node(tr, span, run_id, copy, node, &costs, frames, tally);
                    if tally.graph_lookups > graph_lookups {
                        tally.part_visits += n;
                    } else {
                        tally.transit_visits += n;
                    }
                }

                let mut crossing = Vec::new();
                for (port, pkt) in io.emitted {
                    if port.as_str() != self.fabric {
                        tally.egress += 1;
                        continue;
                    }
                    let hop = pkt.vlan_id().and_then(|vid| {
                        let path = self.domain.link_path(vid)?;
                        let at = path.iter().position(|p| *p == name)?;
                        Some((vid, path.get(at + 1)?.clone()))
                    });
                    match hop {
                        Some((vid, to)) => crossing.push((vid, to, pkt)),
                        None => tally.unmapped += 1,
                    }
                }
                tally.crossings += crossing.len() as u64;
                if self.protect && !crossing.is_empty() {
                    let esp = &mut self.esp;
                    let n = crossing.len() as u64;
                    let (_, sealed) = tr.span("ipsec.seal", Some(root), run_id, n, || {
                        crossing
                            .iter()
                            .map(|(vid, _, pkt)| {
                                esp::encapsulate(&mut esp.pair(*vid).0, pkt.data()).expect("seal")
                            })
                            .collect::<Vec<_>>()
                    });
                    tr.span("ipsec.open", Some(root), run_id, n, || {
                        for ((vid, _, _), wire) in crossing.iter().zip(sealed) {
                            esp::decapsulate(&mut esp.pair(*vid).1, &wire).expect("open");
                        }
                    });
                }
                for (_, to, pkt) in crossing {
                    next.entry(to).or_default().push((self.fabric.clone(), pkt));
                }
            }
            wave = next;
        }
    }
}

// ---------------------------------------------------------------------
// Phases
// ---------------------------------------------------------------------

/// Per-frame results of the data-plane phase.
#[derive(Debug, Default)]
struct Dataplane {
    /// Untraced per-frame ns at workers = 1, and at workers = nproc,
    /// from calls interleaved with the traced ones.
    untraced_w1_ns: f64,
    untraced_wn_ns: f64,
    /// Untraced per-call µs at workers = 1 (median).
    untraced_call_us: f64,
    /// Traced root (domain call) per-frame ns.
    traced_ns: f64,
    frames_per_call: f64,
    cache_delta: un_switch::TableStats,
    failed: u64,
    attempted: u64,
}

/// A burst source for the data-plane phase: `(node, port, frame)`.
type Bursts<'a> = Box<dyn FnMut(&Domain) -> Vec<(String, String, Packet)> + 'a>;

fn cache_stats(d: &Domain) -> un_switch::TableStats {
    let mut s = un_switch::TableStats::default();
    for n in d.node_names() {
        s.merge(&d.node(&n).expect("listed").flow_cache_stats());
    }
    s
}

fn stats_delta(
    after: un_switch::TableStats,
    before: un_switch::TableStats,
) -> un_switch::TableStats {
    un_switch::TableStats {
        cache_hits: after.cache_hits - before.cache_hits,
        cache_misses: after.cache_misses - before.cache_misses,
        exact_hits: after.exact_hits - before.exact_hits,
        megaflow_hits: after.megaflow_hits - before.megaflow_hits,
        wildcard_hits: after.wildcard_hits - before.wildcard_hits,
        misses: after.misses - before.misses,
    }
}

fn borrowed(burst: &[(String, String, Packet)]) -> Vec<(&str, &str, Packet)> {
    burst
        .iter()
        .map(|(n, p, pkt)| (n.as_str(), p.as_str(), pkt.clone()))
        .collect()
}

/// The shuttle measured on its own: the workload's fleet and frames
/// with every NF and overlay protection taken out, so each domain call
/// carries the same kind of frames over the same nodes and overlay
/// links. Its traced call minus its replayed node calls and empty call
/// is the shuttle figure of the layer sum; the workload's own root is
/// never read. Neither the NF deliveries nor ESP can hide in it, so a
/// replay that misses either leaves the layer sum short.
struct Calibration<'a> {
    domain: Domain,
    shadow: Shadow,
    bursts: Bursts<'a>,
    tracer: Tracer,
    tally: Tally,
    /// Frames offered to and lost by the calibration fleet.
    attempted: u64,
    failed: u64,
}

impl<'a> Calibration<'a> {
    fn new(plan: impl Fn() -> Plan, bursts: Bursts<'a>) -> Calibration<'a> {
        let build = || {
            let mut bare = plan().without_nfs();
            bare.domain.config.protect_overlay = false;
            bare.deploy().domain
        };
        Calibration {
            domain: build(),
            shadow: Shadow::new(build()),
            bursts,
            tracer: Tracer::new(),
            tally: Tally::default(),
            attempted: 0,
            failed: 0,
        }
    }

    /// One traced calibration call and its node-call and ESP replays.
    fn step(&mut self, run_id: u64) {
        let burst = (self.bursts)(&self.domain);
        let n = burst.len();
        let ingress = borrowed(&burst);
        let d = &mut self.domain;
        let (root, io) = self
            .tracer
            .span("domain.inject_batch", None, run_id, n as u64, || {
                d.inject_batch(ingress, 1)
            });
        self.attempted += n as u64;
        self.failed += n.saturating_sub(io.emitted.len()) as u64;
        self.tally.frames += n as u64;
        self.tally.overlay_hops += u64::from(io.overlay_hops);
        self.tracer.span("domain.call", Some(root), run_id, 0, || {
            d.inject_batch(Vec::<(&str, &str, Packet)>::new(), 1)
        });
        self.shadow.replay(
            &mut self.tracer,
            root,
            run_id,
            burst,
            &mut self.tally,
            false,
        );
    }

    /// Shuttle ns per frame: the calibration roots' self time.
    fn shuttle_ns(&self) -> f64 {
        let by = self.tracer.self_time_by_name();
        let root = by.get("domain.inject_batch").map_or(0, |e| e.0);
        root as f64 / self.tally.frames.max(1) as f64
    }

    fn hops_per_frame(&self) -> f64 {
        self.tally.overlay_hops as f64 / self.tally.frames.max(1) as f64
    }

    /// Every calibration frame reached an egress port, on the fleet and
    /// in the replay.
    fn delivered_every_frame(&self) -> bool {
        self.failed == 0 && self.tally.egress == self.tally.frames && self.tally.unmapped == 0
    }
}

/// Interleave untraced calls (workers = 1 and workers = `workers`)
/// with traced calls, their layer replays and calibration calls until
/// `budget` elapses.
#[allow(clippy::too_many_arguments)]
fn dataplane(
    tr: &mut Tracer,
    a: &mut Domain,
    shadow: &mut Shadow,
    mut bursts: Bursts<'_>,
    cal: &mut Calibration<'_>,
    workers: usize,
    budget: Duration,
    tally: &mut Tally,
) -> Dataplane {
    let mut dp = Dataplane::default();
    let (mut w1_acc, mut wn_acc, mut traced) = ((0f64, 0u64), (0f64, 0u64), (0f64, 0u64));
    let mut calls_w1 = Vec::new();
    let before = cache_stats(a);
    let start = Instant::now();
    let mut i = 0u64;
    let tally_io = |io: &un_domain::DomainIo, n: usize, dp: &mut Dataplane| {
        dp.attempted += n as u64;
        dp.failed += n.saturating_sub(io.emitted.len()) as u64;
    };
    while (start.elapsed() < budget && i < MAX_TRACED_BURSTS) || i < 4 {
        // Untraced calls. Workers = 1 and the traced root below are each
        // preceded by a workers = n call, so both start from the same
        // cache state.
        for w1 in [false, true, false] {
            let burst = bursts(a);
            let n = burst.len();
            let t = Instant::now();
            let io = a.inject_batch(borrowed(&burst), if w1 { 1 } else { workers });
            let dt = t.elapsed();
            let acc = if w1 { &mut w1_acc } else { &mut wn_acc };
            acc.0 += dt.as_nanos() as f64;
            acc.1 += n as u64;
            if w1 {
                calls_w1.push(dt.as_secs_f64() * 1e6);
            }
            tally_io(&io, n, &mut dp);
        }
        // Traced: the root call, then its replays.
        let burst = bursts(a);
        let n = burst.len();
        let ingress = borrowed(&burst);
        let (root, io) = tr.span("domain.inject_batch", None, i, n as u64, || {
            a.inject_batch(ingress, 1)
        });
        traced.0 += tr.spans()[root].dur_ns() as f64;
        traced.1 += n as u64;
        tally_io(&io, n, &mut dp);
        tally.frames += n as u64;
        tally.model_ns += io.cost.as_nanos();
        tally.overlay_hops += u64::from(io.overlay_hops);
        tally.protected_bytes += io.protected_bytes;
        tr.span("domain.call", Some(root), i, 0, || {
            a.inject_batch(Vec::<(&str, &str, Packet)>::new(), 1)
        });
        shadow.replay(tr, root, i, burst, tally, true);
        cal.step(i);
        i += 1;
    }
    dp.cache_delta = stats_delta(cache_stats(a), before);
    dp.untraced_w1_ns = w1_acc.0 / w1_acc.1 as f64;
    dp.untraced_wn_ns = wn_acc.0 / wn_acc.1 as f64;
    dp.traced_ns = traced.0 / traced.1 as f64;
    dp.untraced_call_us = median(&calls_w1);
    dp.frames_per_call = traced.1 as f64 / i as f64;
    dp
}

/// `compute.deliver_ns.<flavor>` by difference: a one-NF chain minus a
/// zero-NF chain, both through `UniversalNode::inject_batch` on
/// standalone nodes, calls interleaved. Returns the zero-NF chain's
/// (measured ns, model ns) per frame, and the same per flavor for the
/// difference, which includes the one extra graph-LSI pass the NF
/// adds.
fn deliver_by_difference(shape: &Shape, budget: Duration) -> ((f64, f64), Deliveries) {
    let probes: [(&str, &str, Option<&str>); 5] = [
        ("compute.deliver.zero", "", None),
        ("compute.deliver.native", "bridge", Some("native")),
        ("compute.deliver.docker", "bridge", Some("docker")),
        ("compute.deliver.vm", "bridge", Some("vm")),
        ("compute.deliver.dpdk", "l2fwd-fast", None),
    ];
    let mut nodes: Vec<(&'static str, UniversalNode)> = probes
        .iter()
        .map(|(name, ty, flavor)| {
            let mut n = UniversalNode::new("probe", un_sim::mem::mb(4096));
            n.add_physical_port("eth0");
            n.add_physical_port("eth1");
            let nfs: Vec<(&str, &str, Option<&str>)> = if ty.is_empty() {
                vec![]
            } else {
                vec![("nf", ty, *flavor)]
            };
            n.deploy(&fleet::chain("probe", &nfs, None))
                .expect("probe chain deploys");
            (*name, n)
        })
        .collect();
    let mut rng = Rng::new(0x5EED, 9);
    let frames: Vec<Packet> = (0..shape.burst.max(64))
        .map(|_| {
            FlowSpec::new(
                1,
                rng.below(shape.flows.min(4096) as u64) as usize,
                shape.payload,
                None,
            )
            .frame()
        })
        .collect();
    let burst = shape.burst;
    let mut acc: BTreeMap<&'static str, (f64, f64, u64)> = BTreeMap::new();
    let start = Instant::now();
    let mut round = 0usize;
    while start.elapsed() < budget || round < 2 {
        for (name, node) in &mut nodes {
            let port = node.port_id("eth0").expect("probe port");
            let batch: Vec<_> = (0..burst)
                .map(|j| (port, frames[(round * burst + j) % frames.len()].clone()))
                .collect();
            let t = Instant::now();
            let io = node.inject_batch(batch);
            let dt = t.elapsed().as_nanos() as f64;
            let e = acc.entry(name).or_default();
            e.0 += dt;
            e.1 += io.cost.as_nanos() as f64;
            e.2 += burst as u64;
        }
        round += 1;
    }
    let per = |k: &str| {
        let (t, m, n) = acc[k];
        (t / n as f64, m / n as f64)
    };
    let zero = per("compute.deliver.zero");
    let diff = probes[1..]
        .iter()
        .map(|(name, _, _)| {
            let one = per(name);
            (*name, (one.0 - zero.0, one.1 - zero.1))
        })
        .collect();
    (zero, diff)
}

/// Per delivery span name: (measured ns, model ns) per frame.
type Deliveries = BTreeMap<&'static str, (f64, f64)>;

/// Replay the placement steps of a deploy just recorded as span
/// `deploy`, on the views it saw: `domain.assign` (endpoint and NF
/// assignment) and `domain.partition`. The deploy's self time is then
/// the install remainder.
pub fn replay_placement(
    tr: &mut Tracer,
    deploy: SpanId,
    d: &Domain,
    graph: &NfFg,
    hints: &DeployHints,
    views: &[NodeView],
) {
    let run_id = tr.spans()[deploy].run_id;
    let serving: BTreeSet<String> = views
        .iter()
        .filter(|v| v.alive)
        .map(|v| v.name.clone())
        .collect();
    let hops = d.config.topology.hop_matrix(&serving);
    let probe = views.iter().find(|v| v.alive).and_then(|v| d.node(&v.name));
    let estimates: BTreeMap<String, u64> = graph
        .nfs
        .iter()
        .map(|nf| {
            let est = probe
                .and_then(|n| n.estimate_nf_ram(&nf.functional_type, nf.flavor.as_deref()))
                .unwrap_or(64 << 20);
            (nf.id.clone(), est)
        })
        .collect();
    let (_, placed) = tr.span("domain.assign", Some(deploy), run_id, 1, || {
        let eps =
            un_domain::assign_endpoints(graph, views, &hints.endpoint_node, hops.as_ref()).ok()?;
        let nfs = un_domain::assign(
            graph,
            views,
            &estimates,
            &eps,
            &hints.nf_node,
            &BTreeMap::new(),
            hints.strategy.unwrap_or(d.config.strategy),
            hops.as_ref(),
        )
        .ok()?;
        Some((eps, nfs))
    });
    if let Some((eps, nfs)) = placed {
        let mut vid = d.config.overlay_vid_base;
        let (_, parted) = tr.span("domain.partition", Some(deploy), run_id, 1, || {
            un_domain::partition(graph, &nfs, &eps, &d.config.fabric_port, &mut |_, _, _| {
                vid += 1;
                Some(vid)
            })
        });
        if parted.is_err() {
            println!("info partition replay failed for {}", graph.id);
        }
    }
}

/// Median wall time of `f` over calls until `budget` elapses, µs.
fn micro<T>(budget: Duration, min_calls: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut v = Vec::new();
    let start = Instant::now();
    while start.elapsed() < budget || v.len() < min_calls {
        let t = Instant::now();
        std::hint::black_box(f());
        v.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&v)
}

/// `ipsec.seal_ns` / `ipsec.open_ns` on one frame of the workload's
/// size, median over batches of 64.
fn esp_micro(frame: &Packet, budget: Duration) -> (f64, f64) {
    let (mut out, mut inb) = sa_pair(1);
    let wires: Vec<Vec<u8>> = (0..64)
        .map(|_| esp::encapsulate(&mut out, frame.data()).expect("seal"))
        .collect();
    let seal = micro(budget / 2, 16, || {
        for _ in 0..64 {
            std::hint::black_box(esp::encapsulate(&mut out, frame.data()).expect("seal"));
        }
    });
    // Open needs fresh sequence numbers: re-seal a batch per call.
    let mut open_us = Vec::new();
    let start = Instant::now();
    let mut batch = wires;
    while start.elapsed() < budget / 2 || open_us.len() < 16 {
        let t = Instant::now();
        for w in &batch {
            std::hint::black_box(esp::decapsulate(&mut inb, w).expect("open"));
        }
        open_us.push(t.elapsed().as_secs_f64() * 1e6);
        batch = (0..64)
            .map(|_| esp::encapsulate(&mut out, frame.data()).expect("seal"))
            .collect();
    }
    (seal * 1e3 / 64.0, median(&open_us) * 1e3 / 64.0)
}

// ---------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------

fn plan(w: Workload, seed: u64, shape: &Shape) -> (Plan, Option<Churn>) {
    match w {
        Workload::LocalChain => (fleet::local_chain(shape.observability), None),
        Workload::OverlayEsp => (fleet::overlay_esp(), None),
        Workload::ControlChurn => {
            let mut c = Churn::new(seed, shape);
            (c.setup(), Some(c))
        }
    }
}

/// The workload's bursts for the data-plane phase, from `seed`.
fn bursts<'a>(w: Workload, seed: u64, shape: &Shape, churn: Option<&'a Churn>) -> Bursts<'a> {
    match w {
        Workload::LocalChain => {
            let mut t = e2e::LocalTraffic::new(seed, shape);
            Box::new(move |_: &Domain| {
                t.next_burst()
                    .into_iter()
                    .map(|(n, p)| (t.name(n).to_string(), "eth0".to_string(), p))
                    .collect()
            })
        }
        Workload::OverlayEsp => {
            let mut next = e2e::overlay_frames(seed, shape);
            Box::new(move |_: &Domain| vec![("n1".to_string(), "eth0".to_string(), next())])
        }
        Workload::ControlChurn => {
            let c = churn.expect("churn state");
            let mut k = 0u64;
            Box::new(move |d: &Domain| {
                k += 1;
                let live = c.live_bursts(d, k, 0);
                let (at, frames) = live[(k as usize) % live.len()]
                    .clone()
                    .expect("live graph has an ingress");
                frames
                    .into_iter()
                    .map(|p| (at.clone(), "eth0".to_string(), p))
                    .collect()
            })
        }
    }
}

/// The traced run of workload `w`.
pub fn run(w: Workload, seed: u64, seconds: f64, shape: &Shape, m: &mut Metrics) -> Verdict {
    let budget = |share: f64| Duration::from_secs_f64(seconds * share);
    let mut tr = Tracer::new();
    let mut tally = Tally::default();
    let (plan_a, churn) = plan(w, seed, shape);
    let Built {
        domain: mut a,
        mut graphs,
        ..
    } = plan_a.deploy();
    let b = plan(w, seed, shape).0.deploy().domain;
    let mut shadow = Shadow::new(b);

    // Data plane, with the workload's own frames, interleaved with the
    // shuttle calibration on the same frame stream.
    let (dp, cal) = {
        let mut cal = Calibration::new(
            || plan(w, seed, shape).0,
            bursts(w, seed, shape, churn.as_ref()),
        );
        let dp = dataplane(
            &mut tr,
            &mut a,
            &mut shadow,
            bursts(w, seed, shape, churn.as_ref()),
            &mut cal,
            shape.cpus,
            budget(DATAPLANE_SHARE),
            &mut tally,
        );
        let fig = CalFigures {
            shuttle_ns: cal.shuttle_ns(),
            hops_per_frame: cal.hops_per_frame(),
            delivered_every_frame: cal.delivered_every_frame(),
        };
        (dp, fig)
    };

    let (zero_chain, deliver_diff) = deliver_by_difference(shape, budget(DELIVER_SHARE));

    // Micro-measurements on fleet A.
    let sample = match w {
        Workload::ControlChurn => FlowSpec::new(1, 0, shape.payload, Some(100)).frame(),
        _ => FlowSpec::new(1, 0, shape.payload, None).frame(),
    };
    let (seal_ns, open_ns) = esp_micro(&sample, budget(MICRO_SHARE));
    let call_ns = micro(budget(MICRO_SHARE), 100, || {
        a.inject_batch(Vec::<(&str, &str, Packet)>::new(), 1)
    }) * 1e3;
    let scrape_us = micro(budget(MICRO_SHARE), 20, || a.metrics_prometheus());
    let (probe_node, probe_port) = match w {
        Workload::OverlayEsp => ("n1".to_string(), "eth0"),
        Workload::LocalChain => (fleet::node_name(0), "eth0"),
        Workload::ControlChurn => (
            fleet::ingress_node(&a, &a.graph_ids()[0]).expect("ingress"),
            "eth0",
        ),
    };
    let probe_frame = match w {
        Workload::ControlChurn => {
            let vid = a.graph(&a.graph_ids()[0]).and_then(|g| {
                g.endpoints.iter().find_map(|e| match &e.kind {
                    un_nffg::EndpointKind::Vlan { vlan_id, .. } => Some(*vlan_id),
                    _ => None,
                })
            });
            FlowSpec::new(1, 0, shape.payload, vid).frame()
        }
        _ => sample.clone(),
    };
    let trace_probe_us = micro(budget(MICRO_SHARE), 20, || {
        a.trace_frame(&probe_node, probe_port, probe_frame.clone())
    });

    // Verification: incremental after each rules-only update, and full.
    let mut verify_failed = 0u64;
    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed() < budget(MICRO_SHARE) || i < 8 {
        let n = graphs.len();
        let g = &mut graphs[i % n];
        *g = fleet::toggled(g);
        let updated = a.update(g).is_ok();
        let (_, inc) = tr.span("verify.incremental", None, i as u64, 1, || a.verify());
        if !updated || !inc.ok() {
            verify_failed += 1;
        }
        i += 1;
    }
    let full = a.verify_full();
    if !full.ok() {
        verify_failed += 1;
    }
    let verify_full_us = micro(budget(MICRO_SHARE), 5, || a.verify_full());

    // Control plane: churn rounds, or set-up deploys, each deploy with
    // its placement replays.
    let mut control = Run {
        tracer: Some(std::mem::take(&mut tr)),
        ..Run::default()
    };
    let control_budget = budget(CONTROL_SHARE);
    let start = Instant::now();
    let mut repairs = Vec::new();
    match churn {
        Some(mut c) => {
            let mut sink = Vec::new();
            let mut r = 0u64;
            while start.elapsed() < control_budget || r < 2 {
                let root =
                    control
                        .tracer
                        .as_mut()
                        .expect("tracing")
                        .open("churn.round", None, r, 1);
                control.parent = Some(root);
                c.round(
                    &mut a,
                    Inject::Burst(shape.workers),
                    &mut control,
                    &mut sink,
                    false,
                );
                control.tracer.as_mut().expect("tracing").close(root);
                r += 1;
            }
            repairs = c.repairs;
        }
        None => {
            let mut r = 0u64;
            while start.elapsed() < control_budget || r < 2 {
                let Plan {
                    domain: mut d,
                    deploys,
                } = plan(w, seed, shape).0;
                let tr = control.tracer.as_mut().expect("tracing");
                let root = tr.open("setup", None, r, 1);
                for (g, h) in &deploys {
                    let views = d.views();
                    let (span, res) =
                        tr.span("domain.deploy", Some(root), r, 1, || d.deploy_with(g, h));
                    control.ops += 1;
                    if res.is_err() {
                        control.ops_failed += 1;
                    }
                    replay_placement(tr, span, &d, g, h, &views);
                }
                tr.close(root);
                r += 1;
            }
        }
    }
    let tr = control.tracer.take().expect("tracing");
    let conservation_ok = a.conservation_report().balanced();

    let layer_checks = report(
        shape,
        m,
        &tr,
        &tally,
        &dp,
        &cal,
        zero_chain,
        &deliver_diff,
        Extras {
            seal_ns,
            open_ns,
            call_ns,
            scrape_us,
            trace_probe_us,
            verify_full_us,
            rules_checked: full.stats.rules_checked as f64,
            repairs: &repairs,
            overlay_link_ns: a.config.overlay_link_ns as f64,
            esp_fixed_ns: a.config.esp_fixed_ns as f64,
            esp_ns_per_byte: a.config.esp_ns_per_byte,
            frame_bytes: sample.len() as f64,
        },
    );

    let path = format!("{SPAN_DIR}/spans-{}-{seed}.jsonl", w.name());
    let written = std::fs::create_dir_all(SPAN_DIR)
        .and_then(|_| std::fs::write(&path, tr.to_jsonl(w.name(), MAX_WRITTEN_SPANS)));
    match written {
        Ok(()) => println!(
            "info spans written to {path} ({} of {} spans)",
            tr.spans().len().min(MAX_WRITTEN_SPANS),
            tr.spans().len()
        ),
        Err(e) => println!("info spans not written ({e})"),
    }

    let mut checks = vec![
        ("conservation_balanced", conservation_ok),
        (
            "replay_delivered_every_frame",
            tally.egress == tally.frames && tally.unmapped == 0,
        ),
        (
            "calibration_delivered_every_frame",
            cal.delivered_every_frame,
        ),
        ("verify_clean", verify_failed == 0),
    ];
    // The layer sum is required on the traffic workloads only.
    for (name, ok) in layer_checks {
        if w == Workload::ControlChurn {
            println!("info {name} = {ok}");
        } else {
            checks.push((name, ok));
        }
    }
    for (name, ok) in &checks {
        println!("check {name} = {ok}");
    }
    let failed_checks = checks.iter().filter(|(_, ok)| !ok).count() as u64;
    Verdict {
        attempted: dp.attempted + control.ops + checks.len() as u64,
        failed: dp.failed + control.ops_failed + failed_checks,
    }
}

/// What the shuttle calibration measured.
struct CalFigures {
    shuttle_ns: f64,
    hops_per_frame: f64,
    delivered_every_frame: bool,
}

/// The per-frame layer sum, built from spans timed apart from the
/// traced root, and the remainders the root and node spans leave.
#[derive(Debug, Clone, Copy)]
struct LayerSum {
    /// Replayed empty-ingress calls, ns per frame.
    call: f64,
    /// Shadow-fleet node calls, ns per frame.
    nodes: f64,
    /// Standalone-SA seal and open, ns per frame.
    esp: f64,
    /// The calibration fleet's shuttle, ns per frame.
    shuttle: f64,
    /// Untraced workers = 1 time, ns per frame.
    untraced: f64,
    /// Traced root minus its replays: the in-workload shuttle.
    shuttle_remainder: f64,
    /// Node calls minus their replayed lookups and deliveries.
    fabric_remainder: f64,
}

impl LayerSum {
    fn of(tr: &Tracer, frames: f64, shuttle: f64, untraced: f64) -> LayerSum {
        let by = tr.self_time_by_name();
        let self_ns = |name: &str| by.get(name).map_or(0.0, |e| e.0 as f64) / frames;
        let dur = |name: &str| {
            tr.spans()
                .iter()
                .filter(|s| s.name == name)
                .fold(0.0, |acc, s| acc + s.dur_ns() as f64)
                / frames
        };
        LayerSum {
            call: dur("domain.call"),
            nodes: dur("core.node.inject_batch"),
            esp: dur("ipsec.seal") + dur("ipsec.open"),
            shuttle,
            untraced,
            shuttle_remainder: self_ns("domain.inject_batch"),
            fabric_remainder: self_ns("core.node.inject_batch"),
        }
    }

    fn total(&self) -> f64 {
        self.call + self.nodes + self.esp + self.shuttle
    }

    fn checks(&self) -> [(&'static str, bool); 3] {
        [
            (
                "layer_sum_within_tolerance",
                within_tolerance(self.total(), self.untraced),
            ),
            (
                "shuttle_remainder_not_negative",
                remainder_ok(self.shuttle_remainder, self.untraced),
            ),
            (
                "fabric_remainder_not_negative",
                remainder_ok(self.fabric_remainder, self.nodes),
            ),
        ]
    }
}

struct Extras<'a> {
    seal_ns: f64,
    open_ns: f64,
    call_ns: f64,
    scrape_us: f64,
    trace_probe_us: f64,
    verify_full_us: f64,
    rules_checked: f64,
    repairs: &'a [(usize, bool)],
    overlay_link_ns: f64,
    esp_fixed_ns: f64,
    esp_ns_per_byte: f64,
    frame_bytes: f64,
}

#[allow(clippy::too_many_arguments)]
fn report(
    shape: &Shape,
    m: &mut Metrics,
    tr: &Tracer,
    tally: &Tally,
    dp: &Dataplane,
    cal: &CalFigures,
    zero_chain: (f64, f64),
    diff: &Deliveries,
    x: Extras<'_>,
) -> [(&'static str, bool); 3] {
    let by = tr.self_time_by_name();
    let self_ns = |name: &str| by.get(name).map_or(0.0, |e| e.0 as f64);
    let items = |name: &str| by.get(name).map_or(0.0, |e| e.1 as f64);
    let count = |name: &str| by.get(name).map_or(0.0, |e| e.2 as f64);
    let per = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let frames = tally.frames as f64;
    let dur_of = |name: &str| -> f64 {
        tr.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .sum()
    };

    // un-switch
    let lsi0_ns = per(self_ns("switch.lsi0.process"), items("switch.lsi0.process"));
    let graph_ns = per(
        self_ns("switch.graph_lsi.process"),
        items("switch.graph_lsi.process"),
    );
    m.put(
        "switch.lsi0_lookup_ns",
        lsi0_ns,
        "ns",
        &format!(
            "model {:.1} ns; {:.2} lookups/frame",
            per(tally.lsi0_model_ns as f64, tally.lsi0_lookups as f64),
            per(tally.lsi0_lookups as f64, frames)
        ),
    );
    m.put(
        "switch.graph_lsi_lookup_ns",
        graph_ns,
        "ns",
        &format!(
            "model {:.1} ns; {:.2} lookups/frame",
            per(tally.graph_model_ns as f64, tally.graph_lookups as f64),
            per(tally.graph_lookups as f64, frames)
        ),
    );
    let c = dp.cache_delta;
    let lookups = (c.cache_hits + c.cache_misses) as f64;
    m.put(
        "switch.microflow_hit_ratio",
        per(c.cache_hits as f64, lookups),
        "ratio",
        &format!("{lookups} lookups on fleet A"),
    );
    m.put(
        "switch.megaflow_hit_ratio",
        per(
            (c.exact_hits + c.megaflow_hits + c.wildcard_hits) as f64,
            lookups,
        ),
        "ratio",
        "exact + megaflow + wildcard fall-through hits",
    );
    m.put(
        "switch.miss_ratio",
        per(c.misses as f64, lookups),
        "ratio",
        "table misses",
    );

    // un-core
    let node_ns = per(dur_of("core.node.inject_batch"), frames);
    let fabric_ns = per(self_ns("core.node.inject_batch"), frames);
    m.put(
        "core.node_ns_per_frame",
        node_ns,
        "ns",
        "all node calls of one injected frame",
    );
    m.put(
        "core.fabric_ns_per_frame",
        fabric_ns,
        "ns",
        "node time minus replayed lookups and deliveries",
    );

    // un-compute
    for (name, metric) in [
        ("compute.deliver.native", "compute.deliver_ns.native"),
        ("compute.deliver.docker", "compute.deliver_ns.docker"),
        ("compute.deliver.vm", "compute.deliver_ns.vm"),
        ("compute.deliver.dpdk", "compute.deliver_ns.dpdk"),
    ] {
        let (t, model) = diff[name];
        let in_run = per(self_ns(name), items(name));
        let model_in_run = tally
            .delivery_model_ns
            .get(name)
            .copied()
            .unwrap_or_default();
        m.put(
            metric,
            t,
            "ns",
            &format!(
            "model {model:.1} ns (one-NF minus zero-NF chain: the NF plus one graph-LSI pass); \
             replayed in-workload delivery {in_run:.1} ns, model {:.1} ns",
            per(model_in_run as f64, items(name))),
        );
    }

    // un-domain shuttle and runtime
    let shuttle_ns = per(self_ns("domain.inject_batch"), frames);
    let esp_ns = per(self_ns("ipsec.seal") + self_ns("ipsec.open"), frames);
    m.put(
        "domain.call_ns",
        x.call_ns,
        "ns",
        &format!(
            "empty-ingress inject_batch; replayed in-run {:.0} ns",
            per(self_ns("domain.call"), count("domain.call"))
        ),
    );
    m.put(
        "domain.shuttle_ns_per_frame",
        shuttle_ns,
        "ns",
        &format!(
            "domain call minus node calls, ESP and per-call set-up; \
             calibration fleet (no NFs, no ESP, {:.2} hops/frame) {:.1} ns",
            cal.hops_per_frame, cal.shuttle_ns
        ),
    );
    let hops = per(tally.overlay_hops as f64, frames);
    m.put(
        "domain.overlay_hops_per_frame",
        hops,
        "hops",
        &format!("model overlay_link_ns {:.0} ns/hop", x.overlay_link_ns),
    );
    m.put(
        "domain.protected_bytes_per_frame",
        per(tally.protected_bytes as f64, frames),
        "B",
        "",
    );
    let speedup = per(dp.untraced_w1_ns, dp.untraced_wn_ns);
    m.put(
        "runtime.worker_speedup",
        speedup,
        "x",
        &format!("workers {} vs 1 on the same frames", shape.cpus),
    );

    // un-ipsec
    let esp_model = x.esp_fixed_ns + x.esp_ns_per_byte * x.frame_bytes;
    m.put(
        "ipsec.seal_ns",
        x.seal_ns,
        "ns",
        &format!(
            "{} B frame; model esp_fixed_ns + esp_ns_per_byte*len = {esp_model:.0} ns",
            x.frame_bytes
        ),
    );
    m.put(
        "ipsec.open_ns",
        x.open_ns,
        "ns",
        &format!("replayed in-run seal+open {esp_ns:.1} ns/frame"),
    );

    // un-obs
    m.put(
        "obs.scrape_us",
        x.scrape_us,
        "us",
        "Domain::metrics_prometheus",
    );
    m.put(
        "obs.trace_probe_us",
        x.trace_probe_us,
        "us",
        "Domain::trace_frame",
    );

    // un-domain control
    let deploys = count("domain.deploy");
    let place = per(dur_of("domain.assign"), deploys) / 1e3;
    let part = per(dur_of("domain.partition"), deploys) / 1e3;
    let install = per(self_ns("domain.deploy"), deploys) / 1e3;
    m.put(
        "domain.place_us",
        place,
        "us",
        &format!("{deploys} deploys"),
    );
    m.put("domain.partition_us", part, "us", "");
    m.put(
        "domain.install_us",
        install,
        "us",
        "deploy minus place and partition",
    );
    let promoted = x.repairs.iter().filter(|(_, p)| *p).count() as f64;
    let n_rep = x.repairs.len() as f64;
    m.put(
        "domain.standby_promoted_ratio",
        per(promoted, n_rep),
        "ratio",
        &format!("{n_rep} repaired graphs"),
    );
    m.put(
        "domain.repair_nfs_moved",
        per(x.repairs.iter().map(|(n, _)| *n as f64).sum(), n_rep),
        "NFs",
        "mean per repaired graph",
    );
    let fail_us = per(dur_of("domain.fail_node"), count("domain.fail_node")) / 1e3;
    m.put(
        "domain.repair_us",
        fail_us,
        "us",
        "mean fail_node wall time (make-before-break downtime)",
    );

    // un-verify
    let inc_us = per(dur_of("verify.incremental"), count("verify.incremental")) / 1e3;
    m.put(
        "verify.incremental_us",
        inc_us,
        "us",
        &format!("{} verifies", count("verify.incremental")),
    );
    m.put("verify.full_us", x.verify_full_us, "us", "");
    m.put(
        "verify.rules_checked",
        x.rules_checked,
        "rules",
        "full verify",
    );

    // un-sim: fidelity guard
    let model_ns = per(tally.model_ns as f64, frames);
    m.put(
        "sim.model_ns_per_frame",
        model_ns,
        "ns",
        "DomainIo.cost / frames",
    );
    m.put(
        "sim.model_to_wall",
        per(model_ns, dp.untraced_w1_ns),
        "ratio",
        "model over untraced wall per frame, workers 1",
    );

    // Layer sum and tracing overhead.
    let ls = LayerSum::of(tr, frames.max(1.0), cal.shuttle_ns, dp.untraced_w1_ns);
    let overhead = per(dp.traced_ns, dp.untraced_w1_ns) - 1.0;
    m.put(
        "trace.overhead_ratio",
        overhead,
        "ratio",
        &format!(
            "traced {:.1} vs untraced {:.1} ns/frame, workers 1",
            dp.traced_ns, dp.untraced_w1_ns
        ),
    );
    m.put(
        "trace.layer_sum_ratio",
        per(ls.total(), ls.untraced),
        "ratio",
        &format!(
            "call {:.1} + node calls {:.1} + ESP {:.1} + calibrated shuttle {:.1} = {:.1} ns/frame \
             vs untraced {:.1}; tolerance ±{LAYER_SUM_TOLERANCE}; remainders: shuttle {:.1}, \
             fabric {:.1}",
            ls.call,
            ls.nodes,
            ls.esp,
            ls.shuttle,
            ls.total(),
            ls.untraced,
            ls.shuttle_remainder,
            ls.fabric_remainder
        ),
    );

    // Model beside measurement.
    println!(
        "layer table (per injected frame unless noted): measured | CostModel/DomainConfig charge"
    );
    println!(
        "  lsi0 lookup        {lsi0_ns:>10.1} ns | {:>10.1} ns",
        per(tally.lsi0_model_ns as f64, tally.lsi0_lookups as f64)
    );
    println!(
        "  graph-LSI lookup   {graph_ns:>10.1} ns | {:>10.1} ns",
        per(tally.graph_model_ns as f64, tally.graph_lookups as f64)
    );
    println!(
        "  zero-NF chain      {:>10.1} ns | {:>10.1} ns (per frame, one node)",
        zero_chain.0, zero_chain.1
    );
    for (name, (t, model)) in diff {
        println!("  {name:<22} {t:>10.1} ns | {model:>10.1} ns (one-NF minus zero-NF chain)");
    }
    if hops > 0.0 {
        println!(
            "  shuttle per overlay hop {:>10.1} ns | {:>10.1} ns (overlay_link_ns)",
            cal.shuttle_ns / hops,
            x.overlay_link_ns
        );
    }
    println!(
        "  ESP seal+open      {:>10.1} ns | {:>10.1} ns (2 x (esp_fixed_ns + esp_ns_per_byte*len))",
        x.seal_ns + x.open_ns,
        2.0 * esp_model
    );
    println!(
        "  whole frame        {:>10.1} ns | {model_ns:>10.1} ns (DomainIo.cost)",
        dp.untraced_w1_ns
    );

    // The composed per-stage prediction (Prados-Garzon): stage service
    // times from the micro-measurements and the calibration fleet,
    // weighted by how often a frame meets each stage. No figure here
    // comes from the workload's traced calls.
    let deliveries: f64 = diff
        .iter()
        .map(|(name, (t, _))| t * per(items(name), frames))
        .sum();
    let stages = [
        ("call set-up", per(x.call_ns, dp.frames_per_call)),
        ("shuttle", cal.shuttle_ns),
        (
            "ESP",
            (x.seal_ns + x.open_ns) * per(items("ipsec.seal"), frames),
        ),
        (
            "zero-NF node passes",
            zero_chain.0 * per(tally.part_visits as f64, frames),
        ),
        (
            "transit lookups",
            lsi0_ns * per(tally.transit_visits as f64, frames),
        ),
        ("NF deliveries", deliveries),
    ];
    let predicted_frame: f64 = stages.iter().map(|(_, v)| v).sum();
    let predicted_call_us = predicted_frame * dp.frames_per_call / 1e3;
    println!(
        "composed per-stage prediction (Prados-Garzon), ns/frame: {} = {predicted_frame:.1}",
        stages
            .iter()
            .map(|(n, v)| format!("{n} {v:.1}"))
            .collect::<Vec<_>>()
            .join(" + ")
    );
    println!(
        "  predicted inject_p50_us {predicted_call_us:.2} vs measured untraced {:.2} \
         ({:.0} frames/call, workers 1)",
        dp.untraced_call_us, dp.frames_per_call
    );
    ls.checks()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_sum_check_uses_the_stated_tolerance() {
        assert!(within_tolerance(1000.0, 1000.0));
        assert!(within_tolerance(1249.0, 1000.0));
        assert!(within_tolerance(751.0, 1000.0));
        assert!(!within_tolerance(1251.0, 1000.0));
        assert!(!within_tolerance(749.0, 1000.0));
        assert!(!within_tolerance(1.0, 0.0));
    }

    #[test]
    fn layer_checks_catch_missing_and_over_explained_layers() {
        let ok = LayerSum {
            call: 100.0,
            nodes: 700.0,
            esp: 0.0,
            shuttle: 200.0,
            untraced: 1000.0,
            shuttle_remainder: 150.0,
            fabric_remainder: 50.0,
        };
        assert!(ok.checks().iter().all(|(_, pass)| *pass));
        // A layer the replays miss leaves the sum short.
        let short = LayerSum { nodes: 300.0, ..ok };
        assert!(!short.checks()[0].1);
        // Replays slower than the calls they explain.
        let over = LayerSum {
            shuttle_remainder: -300.0,
            ..ok
        };
        assert!(!over.checks()[1].1);
        let over = LayerSum {
            fabric_remainder: -200.0,
            ..ok
        };
        assert!(!over.checks()[2].1);
    }

    #[test]
    fn traced_layer_sum_is_within_tolerance_of_untraced_time() {
        // A short traced overlay_esp phase. The layer sum is built from
        // the replays and the calibration fleet, never from the traced
        // root, and still lands within the stated tolerance of the
        // interleaved untraced calls, with no remainder over-explained.
        let shape = Workload::OverlayEsp.shape(1);
        let mut a = fleet::overlay_esp().deploy().domain;
        let mut shadow = Shadow::new(fleet::overlay_esp().deploy().domain);
        let mut cal = Calibration::new(
            fleet::overlay_esp,
            bursts(Workload::OverlayEsp, 5, &shape, None),
        );
        let mut tr = Tracer::new();
        let mut tally = Tally::default();
        let dp = dataplane(
            &mut tr,
            &mut a,
            &mut shadow,
            bursts(Workload::OverlayEsp, 5, &shape, None),
            &mut cal,
            1,
            Duration::from_millis(1500),
            &mut tally,
        );
        assert_eq!(dp.failed, 0);
        assert_eq!(tally.egress, tally.frames);
        assert_eq!(tally.unmapped, 0);
        assert_eq!(tally.crossings, 2 * tally.frames);
        assert!(cal.delivered_every_frame());
        assert_eq!(cal.hops_per_frame(), 2.0);
        let ls = LayerSum::of(
            &tr,
            tally.frames as f64,
            cal.shuttle_ns(),
            dp.untraced_w1_ns,
        );
        for (name, pass) in ls.checks() {
            assert!(pass, "{name}: {ls:?}");
        }
    }
}
