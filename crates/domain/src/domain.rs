//! The domain orchestrator: a fleet of Universal Nodes behaving as one.
//!
//! [`Domain`] owns N [`UniversalNode`]s, accepts whole NF-FGs, splits
//! them with [`crate::placement`] + [`crate::partition`](mod@crate::partition), deploys the
//! parts, and stitches cut edges with **inter-node overlay links**:
//! VLAN-tagged virtual wires riding a dedicated fabric interface on
//! every node, optionally ESP-protected with `un-ipsec` (real
//! encrypt/verify per shuttled frame, so corruption on the inter-node
//! wire can never deliver wrong bytes).
//!
//! The data plane is a **batched shuttle**: [`Domain::inject_batch`]
//! drains a node's whole pending burst through the node's
//! run-to-completion batch path, buckets fabric-bound egress by VLAN
//! link, seals/verifies ESP per burst, and hands each peer node its
//! burst at once — optionally sharded across `std::thread` workers
//! (every node is an isolated state machine; per-link locks guard the
//! only shared state). [`Domain::inject`] is the single-frame wrapper.
//!
//! Failure handling is **incremental repair**: a stale heartbeat first
//! marks a node [`NodeHealth::Suspect`] (it keeps serving; a late
//! heartbeat cancels the pending repair), and only grace-window expiry
//! — or an explicit [`Domain::fail_node`] — fails it. The repair then
//! moves *only the lost sub-partition*: surviving NF/endpoint
//! assignments are pinned, cut edges with one surviving side inherit
//! their overlay VLAN id (so the survivor's part stays byte-identical
//! and its LSIs/NNFs are never touched), and each repair returns a
//! [`RepairOutcome`] measuring the blast radius (NFs moved vs
//! preserved, links rewired vs kept, nodes touched).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::net::Ipv4Addr;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use un_core::{DeployReport, Name, UniversalNode};
use un_ipsec::SecurityAssociation;
use un_nffg::{validate, NfFg, ValidationError};
use un_obs::{DropReason, PacketTrace, TraceRing, TraceSink};
use un_packet::Packet;
use un_sim::{Cost, DetRng, SimTime, TraceLog};

use crate::partition::{install_transit, partition, OverlayLink, Partition, PartitionError};
use crate::placement::{assign, assign_endpoints, NodeView, PlaceError, PlacementStrategy};
use crate::runtime::ShardRuntime;
use crate::sharing::{
    elect, ShareKey, SharedClaim, SharedInstance, SharedRegistry, SharingConfig, SharingError,
};
use crate::standby::{
    AvailabilityReport, GraphAvailability, GraphPrediction, GraphStandby, NodeStandby,
    RepairCalibration, RepairKind, StandbyRegistry,
};
use crate::topology::Topology;

/// Header spec of a synthetic flight-recorder probe frame
/// ([`Domain::trace_probe`], `POST /domain/trace`). Defaults give a
/// 64-byte-payload UDP frame on documentation addresses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeSpec {
    /// IPv4 source address.
    pub src_ip: Ipv4Addr,
    /// IPv4 destination address.
    pub dst_ip: Ipv4Addr,
    /// UDP source port.
    pub src_port: u16,
    /// UDP destination port.
    pub dst_port: u16,
    /// Payload length in bytes.
    pub payload_len: usize,
    /// Optional VLAN tag on the synthesized frame.
    pub vlan: Option<u16>,
}

impl Default for ProbeSpec {
    fn default() -> Self {
        ProbeSpec {
            src_ip: Ipv4Addr::new(10, 0, 0, 1),
            dst_ip: Ipv4Addr::new(192, 0, 2, 9),
            src_port: 5000,
            dst_port: 5001,
            payload_len: 64,
            vlan: None,
        }
    }
}

/// Default first VLAN id of the overlay pool (up to 4094 inclusive).
const OVERLAY_VID_BASE: u16 = 3000;
/// Last valid VLAN id usable by the overlay pool.
const OVERLAY_VID_MAX: u16 = 4094;

/// Domain-wide settings.
#[derive(Debug, Clone)]
pub struct DomainConfig {
    /// Physical interface reserved on every node for overlay traffic.
    pub fabric_port: String,
    /// Protect overlay frames with ESP (encrypt on egress, verify on
    /// ingress) while crossing between nodes.
    pub protect_overlay: bool,
    /// The fabric topology: which nodes are directly wired. The
    /// default full mesh keeps every overlay path single-hop; an
    /// explicit topology makes the path engine route cut edges over
    /// shortest paths, installing transit rules on intermediate
    /// nodes. Read at plan time — deployed graphs keep the paths they
    /// were routed with until the next update/repair re-plans them.
    pub topology: Topology,
    /// Propagation + switching cost of one overlay hop (explicit
    /// topology edges carry their own per-edge latency instead).
    pub overlay_link_ns: u64,
    /// First VLAN id of the overlay pool (pool runs to 4094
    /// inclusive). Lets operators reserve part of the VLAN space —
    /// and lets tests exhaust the pool cheaply.
    pub overlay_vid_base: u16,
    /// Fixed ESP cost per protected frame (each direction).
    pub esp_fixed_ns: u64,
    /// Per-byte ESP cost (each direction), in nanoseconds.
    pub esp_ns_per_byte: f64,
    /// Heartbeats older than this mark a node **suspect** at
    /// [`Domain::tick`] (slow, not yet dead: it keeps serving and no
    /// repair runs).
    pub heartbeat_timeout_ns: u64,
    /// Extra staleness beyond `heartbeat_timeout_ns` a suspect node is
    /// granted before [`Domain::tick`] declares it failed and repairs
    /// its partitions. A heartbeat arriving inside the window cancels
    /// the pending repair (the node returns to `Alive`).
    pub suspect_grace_ns: u64,
    /// How a node failure is repaired (incremental vs from-scratch).
    pub repair: RepairPolicy,
    /// Make-before-break: when a node turns **suspect**, pre-compute a
    /// standby repair plan per affected graph (placement with
    /// survivors pinned, overlay vids pre-reserved, transit routes
    /// pre-solved) so grace expiry or [`Domain::fail_node`] promotes
    /// the staged plan instead of planning from scratch. A late
    /// heartbeat or [`Domain::recover_node`] discards the standby and
    /// returns its vids. Only meaningful with
    /// [`RepairPolicy::Incremental`].
    pub standby: bool,
    /// Assumed mean time between failures of one node, feeding
    /// [`Domain::availability_report`]'s predicted availability
    /// (`A = 1 − exposed_nodes · predicted_repair_ns / node_mtbf_ns`).
    pub node_mtbf_ns: u64,
    /// Domain-wide sharable-NNF registry settings (disabled by
    /// default: sharing stays strictly per-node, the pre-registry
    /// behavior). See [`crate::sharing`].
    pub sharing: SharingConfig,
    /// Placement tie-break goal.
    pub strategy: PlacementStrategy,
    /// Seed for overlay SA key derivation.
    pub seed: u64,
    /// Per-injected-frame overlay hop budget: how many node-to-node
    /// crossings one frame may make before being dropped as a loop
    /// (`overlay_loop_drops`). Per frame, not per burst, so a large
    /// batch of well-behaved frames is never culled by a shared
    /// counter. A separate last-resort valve of `batch × overlay_ttl`
    /// total crossings bounds *amplifying* loops; once tripped it
    /// drops every further crossing in the call (counted as
    /// `overlay_work_exhausted`).
    pub overlay_ttl: u32,
    /// Record metrics and control-plane spans (see [`crate::Domain::
    /// metrics_prometheus`] and [`crate::Domain::recent_events`]). Off by
    /// default: the hot path then pays only an `Option`/bool check per
    /// batch, and `/metrics` serves scrape-derived series only.
    pub observability: bool,
}

impl Default for DomainConfig {
    fn default() -> Self {
        DomainConfig {
            fabric_port: "fab0".to_string(),
            protect_overlay: false,
            topology: Topology::full_mesh(),
            overlay_link_ns: 5_000,
            overlay_vid_base: OVERLAY_VID_BASE,
            esp_fixed_ns: 700,
            esp_ns_per_byte: 2.0,
            heartbeat_timeout_ns: 3_000_000_000, // 3 virtual seconds
            suspect_grace_ns: 1_000_000_000,     // 1 more before repair
            repair: RepairPolicy::Incremental,
            standby: true,
            node_mtbf_ns: 2_592_000_000_000_000, // 30 virtual days
            sharing: SharingConfig::default(),
            strategy: PlacementStrategy::Pack,
            seed: 0x5eed_d0ca_1000_0001,
            overlay_ttl: 64,
            observability: false,
        }
    }
}

/// Caller-supplied placement constraints for one graph.
#[derive(Debug, Clone, Default)]
pub struct DeployHints {
    /// Endpoint id → node name.
    pub endpoint_node: BTreeMap<String, String>,
    /// NF id → node name (pin).
    pub nf_node: BTreeMap<String, String>,
    /// Override the domain's default placement strategy.
    pub strategy: Option<PlacementStrategy>,
}

/// Why a domain operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DomainError {
    /// Static validation failed.
    Invalid(Vec<ValidationError>),
    /// A graph with this id is already deployed.
    AlreadyDeployed(String),
    /// No graph with this id.
    NoSuchGraph(String),
    /// No node with this name.
    NoSuchNode(String),
    /// Fleet-level placement failed.
    Place(PlaceError),
    /// The sharable-NNF registry rejected the plan (no usable host,
    /// pinned host dead, or the instance is at its tenant capacity).
    Sharing(SharingError),
    /// Graph partitioning failed.
    Partition(PartitionError),
    /// The overlay VLAN id pool (`overlay_vid_base..=4094`) has no
    /// free id left for a new cut edge.
    VidPoolExhausted,
    /// The fabric topology offers no usable path between two nodes
    /// that a cut edge must connect.
    NoRoute {
        /// Node hosting the sending side.
        from: String,
        /// Node hosting the receiving side.
        to: String,
    },
    /// A node rejected its part.
    Deploy {
        /// The node that failed.
        node: String,
        /// Its error, stringified.
        error: String,
    },
}

impl fmt::Display for DomainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DomainError::Invalid(errs) => {
                write!(f, "invalid NF-FG ({} problems): ", errs.len())?;
                for (i, e) in errs.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{e}")?;
                }
                Ok(())
            }
            DomainError::AlreadyDeployed(g) => write!(f, "graph '{g}' already deployed"),
            DomainError::NoSuchGraph(g) => write!(f, "no such graph '{g}'"),
            DomainError::NoSuchNode(n) => write!(f, "no such node '{n}'"),
            DomainError::Place(e) => write!(f, "placement: {e}"),
            DomainError::Sharing(e) => write!(f, "sharing: {e}"),
            DomainError::Partition(e) => write!(f, "partition: {e}"),
            DomainError::VidPoolExhausted => {
                write!(f, "overlay VLAN id pool exhausted (base..=4094 all in use)")
            }
            DomainError::NoRoute { from, to } => {
                write!(f, "no fabric path from '{from}' to '{to}'")
            }
            DomainError::Deploy { node, error } => write!(f, "deploy on '{node}': {error}"),
        }
    }
}

impl std::error::Error for DomainError {}

impl From<PlaceError> for DomainError {
    fn from(e: PlaceError) -> Self {
        DomainError::Place(e)
    }
}

impl From<PartitionError> for DomainError {
    fn from(e: PartitionError) -> Self {
        DomainError::Partition(e)
    }
}

impl From<SharingError> for DomainError {
    fn from(e: SharingError) -> Self {
        DomainError::Sharing(e)
    }
}

/// What a domain deploy reports back.
#[derive(Debug, Clone)]
pub struct DomainReport {
    /// Graph id.
    pub graph: String,
    /// Per-node deploy reports, in node-name order.
    pub per_node: Vec<(String, DeployReport)>,
    /// Overlay links stitched for this graph.
    pub overlay_links: usize,
}

/// Result of injecting frames at domain ingresses.
#[derive(Debug, Default)]
pub struct DomainIo {
    /// Frames leaving the domain: (node, physical port, packet).
    pub emitted: Vec<(Name, Name, Packet)>,
    /// Total virtual time consumed, across nodes and overlay hops.
    pub cost: Cost,
    /// Overlay link traversals.
    pub overlay_hops: u32,
    /// Bytes that crossed ESP-protected links (0 when unprotected).
    pub protected_bytes: u64,
}

/// Liveness view of one node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeHealth {
    /// Heartbeating normally.
    Alive,
    /// Heartbeat stale: slow or dead, undecided. The node keeps
    /// serving (traffic, existing partitions) and is still a pinning
    /// target, but a repair is pending — a heartbeat inside the grace
    /// window cancels it, expiry of the window fails the node.
    Suspect,
    /// Declared failed (by grace-window expiry or explicitly).
    Failed,
}

impl NodeHealth {
    /// True while the node can host partitions and carry traffic
    /// (`Alive` or `Suspect`).
    pub fn is_serving(&self) -> bool {
        !matches!(self, NodeHealth::Failed)
    }
}

/// How [`Domain`] repairs graphs when a node fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RepairPolicy {
    /// Move only the lost sub-partition: surviving NF assignments are
    /// pinned, surviving overlay links keep their VLAN ids (so
    /// untouched nodes' LSIs/NNFs are not redeployed), and only the
    /// cut edges into the dead node are rewired. Falls back to
    /// [`RepairPolicy::FromScratch`] when the pinned plan cannot be
    /// placed or installed.
    #[default]
    Incremental,
    /// Tear down every surviving part and re-plan the whole graph
    /// (the pre-incremental baseline, kept for A/B measurement).
    FromScratch,
}

/// Per-graph repair measurement: what one node failure actually cost.
#[derive(Debug, Clone)]
pub struct RepairOutcome {
    /// The repaired graph.
    pub graph: String,
    /// NFs whose node assignment changed (the repair blast radius).
    pub nfs_moved: usize,
    /// NFs left running exactly where they were.
    pub nfs_preserved: usize,
    /// Overlay links rewired: fresh VLAN id or a changed endpoint pair.
    pub links_rewired: usize,
    /// Overlay links whose VLAN id *and* node pair survived untouched.
    pub links_kept: usize,
    /// Nodes whose deployment changed (redeployed, updated, or newly
    /// hosting a part). Untouched survivors are not counted.
    pub nodes_touched: usize,
    /// True if the repair fell back to (or was configured as) a full
    /// from-scratch re-placement.
    pub full_replace: bool,
    /// Of `nfs_moved`, how many moved because the **shared instance**
    /// they ride was re-hosted — blast radius attributed to shared
    /// tenancy rather than to this graph's own placement.
    pub shared_nfs_moved: usize,
    /// Shared instances whose host changed for this graph:
    /// `(share key, new host)`.
    pub shared_migrated: Vec<(String, String)>,
    /// Wall-clock time this graph's repair took (plan + install),
    /// measured on the monotonic clock.
    pub repair_duration_ns: u64,
    /// Estimated wall-clock downtime of this graph's service: from the
    /// failure being declared until *this* graph's repair completed —
    /// graphs repaired later in the sweep wait behind earlier ones, so
    /// their estimate includes the queueing delay.
    pub downtime_estimate_ns: u64,
    /// True when a make-before-break standby plan (staged while the
    /// node was merely suspect) was promoted: the repair skipped the
    /// whole planning phase and installed the pre-staged parts.
    pub standby_promoted: bool,
    /// What the availability model predicted this repair's downtime
    /// would be, stamped *before* the repair ran (calibrated mean for
    /// the repair kind, plus the sweep's queueing delay). The chaos
    /// suites hold modeled-vs-measured within a bracket.
    pub modeled_downtime_ns: u64,
}

/// Frame-conservation ledger across the whole domain.
///
/// Every frame instance the data plane ever created is accounted for:
/// `ingress + fanout_extra == egress + absorbed + dropped()`. Fan-out
/// (flood rules, multi-output NFs) mints `fanout_extra` new instances;
/// `absorbed` counts instances consumed with no output (table miss, NF
/// sink); every other death increments exactly one named drop counter.
/// The chaos suite holds the balance as an invariant after every
/// operation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConservationReport {
    /// Frames handed to [`Domain::inject_batch`], pre-validation.
    pub ingress: u64,
    /// Frames that left the domain on a real egress port.
    pub egress: u64,
    /// Extra frame instances minted by fan-out.
    pub fanout_extra: u64,
    /// Frame instances consumed with no output.
    pub absorbed: u64,
    /// Every enumerated drop counter, by name (zero entries omitted).
    pub drops: BTreeMap<&'static str, u64>,
}

impl ConservationReport {
    /// Total frames that died to an enumerated drop cause.
    pub fn dropped(&self) -> u64 {
        self.drops.values().sum()
    }

    /// True when every frame instance is accounted for.
    pub fn balanced(&self) -> bool {
        self.ingress + self.fanout_extra == self.egress + self.absorbed + self.dropped()
    }
}

/// Node-level drop counter names of the conservation ledger, derived
/// from the shared [`DropReason`] enum so ledger terms, metric labels
/// and flight-recorder drop hops can never drift apart.
fn node_drop_counters() -> impl Iterator<Item = &'static str> {
    DropReason::NODE_DROPS.iter().map(|r| r.as_str())
}

/// Domain-level drop counter names of the conservation ledger (same
/// single source of truth: [`DropReason::DOMAIN_DROPS`]).
fn domain_drop_counters() -> impl Iterator<Item = &'static str> {
    DropReason::DOMAIN_DROPS.iter().map(|r| r.as_str())
}

/// Node-level counters that feed the conservation ledger. Folded into
/// the domain trace when a node carcass is replaced on rejoin, so the
/// ledger stays cumulative across the fleet's whole life. The first
/// two are the fan-out/absorption terms of the balance; the rest are
/// the drop causes.
fn node_ledger_counters() -> impl Iterator<Item = &'static str> {
    ["fabric_absorbed", "fabric_fanout_extra"]
        .into_iter()
        .chain(node_drop_counters())
}

/// Outcome of a node failure: which graphs were re-placed, and what
/// each repair cost.
#[derive(Debug, Clone, Default)]
pub struct ReplacementReport {
    /// Graphs successfully re-deployed on the surviving fleet.
    pub replaced: Vec<String>,
    /// Graphs that could not be re-placed (kept as pending specs).
    pub stranded: Vec<String>,
    /// Per-graph repair measurements (one entry per replaced graph).
    pub repairs: Vec<RepairOutcome>,
}

struct ManagedNode {
    node: UniversalNode,
    health: NodeHealth,
    last_heartbeat: SimTime,
}

struct LinkState {
    link: OverlayLink,
    graph: String,
    /// Pinned fabric path `[from_node, …, to_node]` this link rides;
    /// length two when the nodes are adjacent (every full-mesh link).
    path: Vec<String>,
    /// Cost of each path hop, in ns (`path.len() - 1` entries).
    hop_latency_ns: Vec<u64>,
    /// Outbound + inbound SA pair protecting this wire (ESP mode).
    sas: Option<Box<(SecurityAssociation, SecurityAssociation)>>,
    /// Logical frames carried, counted at **every** hop of the pinned
    /// path (`path.len() - 1` hop crossings per end-to-end frame).
    packets: u64,
    bytes: u64,
    /// Per-hop frame counts (`path.len() - 1` entries, hop i =
    /// `path[i] → path[i+1]`). Reset when a repair reroutes the wire.
    hop_packets: Vec<u64>,
    hop_bytes: Vec<u64>,
}

#[derive(Clone)]
struct DomainGraph {
    original: NfFg,
    hints: DeployHints,
    assignment: BTreeMap<String, String>,
    /// Endpoint id → node name (kept so a repair can pin surviving
    /// endpoints without re-deriving them from the partition).
    endpoints: BTreeMap<String, String>,
    partition: Partition,
    /// Leases this graph holds on domain-shared instances (mirrors the
    /// registry's lease table; the chaos suite balances the two).
    shared: BTreeMap<ShareKey, SharedClaim>,
}

/// A computed (but not yet installed) deployment of one graph.
/// `pub(crate)` so [`crate::standby`] can hold pre-computed plans.
pub(crate) struct Plan {
    pub(crate) assignment: BTreeMap<String, String>,
    pub(crate) endpoints: BTreeMap<String, String>,
    pub(crate) partition: Partition,
    /// Fabric path per overlay link vid (`[from, …, to]`).
    pub(crate) paths: BTreeMap<u16, Vec<String>>,
    /// Shared-instance claims this plan rides (committed as leases once
    /// the plan installs).
    pub(crate) shared: BTreeMap<ShareKey, SharedClaim>,
    /// Vids this plan allocated fresh from the pool (reused vids stay
    /// owned by the live deployment). While a standby plan is staged,
    /// these are neither free nor in use: they are reserved.
    pub(crate) taken: Vec<u16>,
}

/// VLAN-id reuse directives for re-planning a live graph. Keys are
/// cut-edge identities; a hit keeps the vid — and with it the
/// synthesized `ovl-<vid>` endpoint id — stable, which is what lets a
/// surviving part come out of re-partitioning byte-identical.
#[derive(Default)]
struct VidReuse {
    /// `(from, to, target)` → vid: both sides survive unchanged.
    exact: BTreeMap<(String, String, un_nffg::PortRef), u16>,
    /// `(from, target)` → vid: the sending side survives but the
    /// target's host died — the new receiver inherits the wire, so the
    /// sender's part (rules retargeted at `ovl-<vid>`) is untouched.
    from_side: BTreeMap<(String, un_nffg::PortRef), u16>,
    /// `(to, target)` → vid: the receiving side survives but the
    /// sender's host died — the receiver keeps its delivery rule and
    /// endpoint, the re-placed sender inherits the wire.
    to_side: BTreeMap<(String, un_nffg::PortRef), u16>,
}

impl VidReuse {
    /// Reuse map keeping only exactly-unchanged cut edges (the update
    /// path: no node died, so no side-inheritance applies).
    fn exact_only(exact: BTreeMap<(String, String, un_nffg::PortRef), u16>) -> Self {
        VidReuse {
            exact,
            ..VidReuse::default()
        }
    }

    /// The vid a new cut edge `(from, to, target)` should inherit.
    ///
    /// Side-map hits are **consumed**: two re-placed cut edges can
    /// legitimately share a surviving side (fan-in from two dead
    /// source nodes to one target), and handing the same vid to both
    /// would collide their synthesized endpoints — the second edge
    /// must take a fresh vid instead.
    fn lookup(&mut self, from: &str, to: &str, target: &un_nffg::PortRef) -> Option<u16> {
        if let Some(vid) = self
            .exact
            .get(&(from.to_string(), to.to_string(), target.clone()))
        {
            return Some(*vid);
        }
        self.from_side
            .remove(&(from.to_string(), target.clone()))
            .or_else(|| self.to_side.remove(&(to.to_string(), target.clone())))
    }
}

/// NFs whose assignment differs between two plans of the same graph.
fn moved_count(old: &BTreeMap<String, String>, new: &BTreeMap<String, String>) -> usize {
    new.iter()
        .filter(|(nf, node)| old.get(*nf) != Some(node))
        .count()
}

/// Shared-tenancy blast radius of a repair: how many of the moved NFs
/// moved because the shared instance they ride was re-hosted, and
/// which instances migrated (`(key, new host)`).
fn shared_blast(entry: &DomainGraph, plan: &Plan) -> (usize, Vec<(String, String)>) {
    let migrated: Vec<(String, String)> = plan
        .shared
        .iter()
        .filter(|(key, claim)| entry.shared.get(key).map(|old| &old.host) != Some(&claim.host))
        .map(|(key, claim)| (key.render(), claim.host.clone()))
        .collect();
    let moved = entry
        .original
        .nfs
        .iter()
        .filter(|nf| {
            plan.shared.contains_key(&ShareKey::of_nf(nf))
                && entry.assignment.get(&nf.id) != plan.assignment.get(&nf.id)
        })
        .count();
    (moved, migrated)
}

/// The domain orchestrator.
pub struct Domain {
    /// Settings.
    pub config: DomainConfig,
    nodes: BTreeMap<String, ManagedNode>,
    graphs: BTreeMap<String, DomainGraph>,
    /// Graphs lost in a failure that no surviving fleet could host.
    pending: BTreeMap<String, (NfFg, DeployHints)>,
    /// Overlay link state, each behind its own lock so the data-plane
    /// shuttle can share the map across workers without building
    /// per-call wrappers (the control plane goes through `get_mut`,
    /// which is lock-free on `&mut self`).
    links: BTreeMap<u16, Mutex<LinkState>>,
    /// The domain-wide sharable-NNF registry (instances, hosts,
    /// leases).
    sharing: SharedRegistry,
    /// Make-before-break standby plans, staged per suspect node.
    standby: StandbyRegistry,
    /// Per-graph measured/modeled downtime ledgers (survive undeploy).
    avail: BTreeMap<String, GraphAvailability>,
    /// Running repair-cost calibration feeding the availability model.
    calibration: RepairCalibration,
    /// When each currently-parked graph lost service (park→drain
    /// downtime is stamped when the graph is restored).
    parked_at: BTreeMap<String, Instant>,
    free_vids: Vec<u16>,
    next_vid: u16,
    clock: SimTime,
    /// Domain-level counters (`graphs_deployed`, `overlay_frames`, …).
    pub trace: TraceLog,
    /// Observability: metric registry + recent-event ring. Inert (one
    /// branch per record call) unless `config.observability` is set.
    obs: Arc<un_obs::Obs>,
    /// Flight recorder: bounded ring of recent real packet traces
    /// (filled by [`Domain::inject_traced`], served by
    /// `GET /domain/traces`). Ghost walks never land here.
    traces: TraceRing,
    /// Persistent shard workers for the data-plane shuttle. Built on
    /// the first multi-worker `inject_batch` call and reused (rebuilt
    /// only if the requested worker count changes); single-worker
    /// injects drain inline and never touch it.
    runtime: Option<ShardRuntime>,
    /// Dirty-set bookkeeping for incremental static verification
    /// ([`Domain::verify`]); behind a lock so read-only verification
    /// can update its caches through `&self`.
    verify_cache: Mutex<verify::VerifyCache>,
}

impl Domain {
    /// An empty domain with the given settings.
    pub fn new(config: DomainConfig) -> Self {
        let next_vid = config.overlay_vid_base;
        let obs = un_obs::Obs::from_flag(config.observability);
        Domain {
            config,
            nodes: BTreeMap::new(),
            graphs: BTreeMap::new(),
            pending: BTreeMap::new(),
            links: BTreeMap::new(),
            sharing: SharedRegistry::default(),
            standby: StandbyRegistry::default(),
            avail: BTreeMap::new(),
            calibration: RepairCalibration::default(),
            parked_at: BTreeMap::new(),
            free_vids: Vec::new(),
            next_vid,
            clock: SimTime::ZERO,
            trace: TraceLog::new(4096),
            obs,
            traces: TraceRing::new(un_obs::DEFAULT_TRACE_CAPACITY),
            runtime: None,
            verify_cache: Mutex::new(verify::VerifyCache::default()),
        }
    }

    /// The domain's observability handle (registry + event ring).
    pub fn obs(&self) -> &Arc<un_obs::Obs> {
        &self.obs
    }

    /// An empty domain with default settings.
    pub fn with_defaults() -> Self {
        Self::new(DomainConfig::default())
    }

    // ------------------------------------------------------------------
    // Fleet management
    // ------------------------------------------------------------------

    /// Adopt a node into the fleet. The fabric interface is created if
    /// the node does not already expose it.
    ///
    /// A node may *rejoin* under the name of a **failed** node (its
    /// partitions were already re-placed or parked by `fail_node`, so
    /// replacing the carcass is safe). Registering a second node under
    /// the name of an **alive** one would silently orphan every graph
    /// partition the original hosts, so that is a hard error.
    ///
    /// # Panics
    ///
    /// If a node with this name is already alive in the fleet.
    pub fn add_node(&mut self, mut node: UniversalNode) -> String {
        if !node.has_physical_port(&self.config.fabric_port) {
            node.add_physical_port(&self.config.fabric_port);
        }
        if self.obs.is_enabled() {
            node.set_obs(self.obs.clone());
        }
        let name = node.name.clone();
        match self.nodes.get(&name) {
            Some(m) if m.health.is_serving() => {
                panic!("node '{name}' is already registered and alive")
            }
            Some(old) => {
                // The carcass's ledger counters must survive the rejoin
                // or the cumulative conservation balance would break.
                for c in node_ledger_counters() {
                    let n = old.node.trace.counter(c);
                    if n > 0 {
                        self.trace.count(c, n);
                    }
                }
                self.trace.count("nodes_rejoined", 1);
            }
            None => self.trace.count("nodes_added", 1),
        }
        self.nodes.insert(
            name.clone(),
            ManagedNode {
                node,
                health: NodeHealth::Alive,
                last_heartbeat: self.clock,
            },
        );
        // Fleet membership changed (and a rejoin may have replaced a
        // carcass wholesale) — re-verify everything.
        self.verify_mark_all();
        name
    }

    /// Fleet size (including failed nodes).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Names of every registered node, including failed carcasses.
    pub fn node_names(&self) -> Vec<String> {
        self.nodes.keys().cloned().collect()
    }

    /// Names of alive nodes (excluding suspects).
    pub fn alive_nodes(&self) -> Vec<String> {
        self.nodes
            .iter()
            .filter(|(_, m)| m.health == NodeHealth::Alive)
            .map(|(n, _)| n.clone())
            .collect()
    }

    /// Names of nodes that can host partitions and carry traffic
    /// (`Alive` or `Suspect` — a suspect is slow, not dead).
    pub fn serving_nodes(&self) -> Vec<String> {
        self.nodes
            .iter()
            .filter(|(_, m)| m.health.is_serving())
            .map(|(n, _)| n.clone())
            .collect()
    }

    /// Names of nodes currently in the suspect grace window.
    pub fn suspect_nodes(&self) -> Vec<String> {
        self.nodes
            .iter()
            .filter(|(_, m)| m.health == NodeHealth::Suspect)
            .map(|(n, _)| n.clone())
            .collect()
    }

    /// Borrow a node.
    pub fn node(&self, name: &str) -> Option<&UniversalNode> {
        self.nodes.get(name).map(|m| &m.node)
    }

    /// Borrow a node mutably (tests / harnesses).
    pub fn node_mut(&mut self, name: &str) -> Option<&mut UniversalNode> {
        // The caller can rewrite arbitrary node state through this
        // handle; assume the worst for the verification caches.
        self.verify_mark_all();
        self.nodes.get_mut(name).map(|m| &mut m.node)
    }

    /// Health of one node.
    pub fn health(&self, name: &str) -> Option<NodeHealth> {
        self.nodes.get(name).map(|m| m.health.clone())
    }

    /// Advance the domain clock (propagates to serving nodes).
    pub fn set_time(&mut self, now: SimTime) {
        self.clock = now;
        for managed in self.nodes.values_mut() {
            if managed.health.is_serving() {
                managed.node.set_time(now);
            }
        }
    }

    /// Record a node heartbeat. A heartbeat from a **suspect** node
    /// clears the suspicion and cancels its pending repair; a
    /// heartbeat from a **failed** node is recorded but does not
    /// resurrect it — its partitions are already gone, so rejoining
    /// takes an explicit [`Domain::recover_node`] (or `add_node`).
    pub fn heartbeat(&mut self, name: &str, now: SimTime) -> Result<(), DomainError> {
        let managed = self
            .nodes
            .get_mut(name)
            .ok_or_else(|| DomainError::NoSuchNode(name.to_string()))?;
        managed.last_heartbeat = now;
        if managed.health == NodeHealth::Suspect {
            managed.health = NodeHealth::Alive;
            self.trace.count("suspects_cleared", 1);
            self.discard_standby(name, "heartbeat");
        }
        Ok(())
    }

    /// Explicitly mark an alive node **suspect** (operator signal or an
    /// external failure detector), staging make-before-break standby
    /// plans exactly as a stale heartbeat would. Idempotent no-op on
    /// already-suspect or failed nodes.
    pub fn suspect_node(&mut self, name: &str) -> Result<(), DomainError> {
        let managed = self
            .nodes
            .get_mut(name)
            .ok_or_else(|| DomainError::NoSuchNode(name.to_string()))?;
        if managed.health != NodeHealth::Alive {
            return Ok(());
        }
        managed.health = NodeHealth::Suspect;
        self.trace.count("nodes_suspected", 1);
        self.compute_standby(name);
        Ok(())
    }

    /// Advance time and run the failure detector:
    ///
    /// * alive nodes whose heartbeat is older than
    ///   `heartbeat_timeout_ns` become **suspect** — no repair yet;
    /// * suspect nodes (and alive nodes that skipped the window
    ///   entirely) staler than `heartbeat_timeout_ns +
    ///   suspect_grace_ns` become **failed** and their partitions are
    ///   repaired per [`DomainConfig::repair`].
    ///
    /// Already-failed nodes are ignored, so repeated ticks are
    /// idempotent: a node's failure is reported (and repaired) exactly
    /// once. Returns the repair outcome per newly failed node.
    pub fn tick(&mut self, now: SimTime) -> Vec<(String, ReplacementReport)> {
        self.set_time(now);
        let timeout = self.config.heartbeat_timeout_ns;
        let dead_after = timeout.saturating_add(self.config.suspect_grace_ns);
        // Mark the whole stale set failed *before* re-placing anything,
        // so a graph from the first dead node is never re-placed onto a
        // node that the same sweep is about to declare dead.
        let mut newly_failed: Vec<String> = Vec::new();
        let mut newly_suspected: Vec<String> = Vec::new();
        for (name, m) in self.nodes.iter_mut() {
            let stale_ns = now.duration_since(m.last_heartbeat).as_nanos();
            match m.health {
                NodeHealth::Alive | NodeHealth::Suspect if stale_ns > dead_after => {
                    m.health = NodeHealth::Failed;
                    self.trace.count("nodes_failed", 1);
                    newly_failed.push(name.clone());
                }
                NodeHealth::Alive if stale_ns > timeout => {
                    m.health = NodeHealth::Suspect;
                    self.trace.count("nodes_suspected", 1);
                    newly_suspected.push(name.clone());
                }
                _ => {}
            }
        }
        let reports: Vec<(String, ReplacementReport)> = newly_failed
            .into_iter()
            .map(|n| {
                let report = self.replace_lost_partitions(&n);
                (n, report)
            })
            .collect();
        if !reports.is_empty() {
            // Same blast radius as an explicit fail_node: bystander
            // graphs' overlay paths may have been rerouted.
            self.verify_mark_all();
        }
        // Stage standbys *after* the failure sweep: a plan computed
        // before it could pin parts onto a node the same sweep is
        // about to declare dead.
        for n in newly_suspected {
            self.compute_standby(&n);
        }
        reports
    }

    /// Bring a **failed** node back into service under its old name,
    /// reusing the node object that stayed registered as a carcass.
    ///
    /// Stale graph state still deployed on the node (partitions the
    /// domain re-placed elsewhere, or parked, while the node was dead)
    /// is purged first so its capacity is released and a later deploy
    /// of the same graph id cannot collide. Recovering a **suspect**
    /// node just clears the suspicion (its state is current). Returns
    /// the pending graphs the recovered capacity let
    /// [`Domain::retry_pending`] re-deploy.
    pub fn recover_node(&mut self, name: &str) -> Result<Vec<String>, DomainError> {
        let clock = self.clock;
        let managed = self
            .nodes
            .get_mut(name)
            .ok_or_else(|| DomainError::NoSuchNode(name.to_string()))?;
        match managed.health {
            NodeHealth::Alive => Ok(Vec::new()),
            NodeHealth::Suspect => {
                managed.health = NodeHealth::Alive;
                managed.last_heartbeat = clock;
                self.trace.count("suspects_cleared", 1);
                self.discard_standby(name, "recover");
                Ok(Vec::new())
            }
            NodeHealth::Failed => {
                managed.health = NodeHealth::Alive;
                managed.last_heartbeat = clock;
                managed.node.set_time(clock);
                // Defensive: a partition that still names this node
                // (impossible today — failure always moves them) must
                // not be purged.
                let keep: Vec<String> = self
                    .graphs
                    .iter()
                    .filter(|(_, g)| g.partition.parts.contains_key(name))
                    .map(|(id, _)| id.clone())
                    .collect();
                let dropped = managed.node.retain_graphs(&keep);
                self.trace
                    .count("recover_purged_graphs", dropped.len() as u64);
                self.trace.count("nodes_recovered", 1);
                // Defensive: a failed node's standby was consumed at
                // failure time; any leftover must return its vids.
                self.discard_standby(name, "recover");
                // The node re-enters the audited set with freshly
                // purged tables; cached results for it are stale.
                self.verify_mark_all();
                Ok(self.retry_pending())
            }
        }
    }

    /// The scheduler's view of the fleet. Suspect nodes still count as
    /// placeable (`alive`): suspicion is a short grace window, not a
    /// quarantine, and quarantining them would force every concurrent
    /// update to migrate off a node that is probably just slow.
    pub fn views(&self) -> Vec<NodeView> {
        self.nodes
            .values()
            .map(|m| NodeView {
                name: m.node.name.clone(),
                free_memory: m.node.free_memory(),
                capacity: m.node.mem_capacity(),
                native_types: m.node.native_nnf_types().into_iter().collect(),
                shared_running: m.node.shared_nnf_types().into_iter().collect(),
                sharable_types: m.node.sharable_nnf_types().into_iter().collect(),
                ports: m
                    .node
                    .physical_port_names()
                    .into_iter()
                    .filter(|p| *p != self.config.fabric_port)
                    .collect(),
                alive: m.health.is_serving(),
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Graph lifecycle
    // ------------------------------------------------------------------

    /// Deploy a graph with default hints.
    pub fn deploy(&mut self, graph: &NfFg) -> Result<DomainReport, DomainError> {
        self.deploy_with(graph, &DeployHints::default())
    }

    /// Deploy a graph across the fleet.
    pub fn deploy_with(
        &mut self,
        graph: &NfFg,
        hints: &DeployHints,
    ) -> Result<DomainReport, DomainError> {
        let errs = validate(graph);
        if !errs.is_empty() {
            return Err(DomainError::Invalid(errs));
        }
        if self.graphs.contains_key(&graph.id) {
            return Err(DomainError::AlreadyDeployed(graph.id.clone()));
        }
        let plan = self.plan(
            graph,
            hints,
            &BTreeMap::new(),
            &BTreeMap::new(),
            VidReuse::default(),
        )?;
        let report = self.install(graph, hints, plan)?;
        // An explicit deploy supersedes any copy parked by an earlier
        // failure; otherwise retry_pending could double-deploy it. The
        // redeploy ends the park window, so stamp its downtime.
        if self.pending.remove(&graph.id).is_some() {
            self.stamp_park_drain(&graph.id);
        }
        self.trace.count("graphs_deployed", 1);
        Ok(report)
    }

    /// Compute assignment + partition without touching any node.
    ///
    /// `nf_pins` / `ep_pins` force NFs and endpoints onto specific
    /// nodes (used to keep survivors in place across updates and
    /// repairs; they override the caller's hints). `reuse` maps
    /// cut-edge identities to the VLAN ids a live deployment of this
    /// graph already uses, so re-planning keeps unchanged overlay
    /// links (and their synthesized endpoint ids) stable — the
    /// property that lets rule-only updates apply in place, and that
    /// lets a repair leave surviving nodes' parts byte-identical.
    fn plan(
        &mut self,
        graph: &NfFg,
        hints: &DeployHints,
        nf_pins: &BTreeMap<String, String>,
        ep_pins: &BTreeMap<String, String>,
        reuse: VidReuse,
    ) -> Result<Plan, DomainError> {
        self.plan_ctx(graph, hints, nf_pins, ep_pins, reuse, None, None)
    }

    /// [`Domain::plan`] with standby-planning context: `exclude`
    /// pretends one (suspect) node is already dead, so the plan routes
    /// and places around it; `shared_standby` supplies pre-elected
    /// replacement hosts for shared replicas the excluded node carries.
    #[allow(clippy::too_many_arguments)]
    fn plan_ctx(
        &mut self,
        graph: &NfFg,
        hints: &DeployHints,
        nf_pins: &BTreeMap<String, String>,
        ep_pins: &BTreeMap<String, String>,
        mut reuse: VidReuse,
        exclude: Option<&str>,
        shared_standby: Option<&BTreeMap<ShareKey, String>>,
    ) -> Result<Plan, DomainError> {
        let plan_started = Instant::now();
        let mut views = self.views();
        if let Some(x) = exclude {
            for v in views.iter_mut() {
                if v.name == x {
                    v.alive = false;
                }
            }
        }
        let serving: BTreeSet<String> = views
            .iter()
            .filter(|v| v.alive)
            .map(|v| v.name.clone())
            .collect();
        // Hop distances feed the scorer's path-length term and the
        // topology-aware endpoint/host choices; `None` in full-mesh
        // mode (every pair is one hop — skip the O(n²) matrix on big
        // fleets).
        let fabric_hops = self.config.topology.hop_matrix(&serving);
        let mut merged_ep_pins = hints.endpoint_node.clone();
        merged_ep_pins.extend(ep_pins.clone());
        let endpoint_node = assign_endpoints(graph, &views, &merged_ep_pins, fabric_hops.as_ref())?;
        let estimates = self.estimates(graph);
        let mut merged_pins = hints.nf_node.clone();
        merged_pins.extend(nf_pins.clone());
        // Fleet-level sharable-NNF claims: every enabled-type NF is
        // pinned onto the registry's host for its share key — the host
        // a live instance already has, or a freshly elected one. The
        // partitioner then cuts the tenant's edges toward that node
        // and the path engine routes them (multi-hop included), so the
        // graph rides the shared instance instead of instantiating its
        // own. An explicit `hints.nf_node` pin opts the NF out of the
        // registry; survivor pins are overridden (tenants converge on
        // the elected host).
        let mut shared: BTreeMap<ShareKey, SharedClaim> = BTreeMap::new();
        if self.config.sharing.enabled {
            let demand: BTreeSet<String> = endpoint_node.values().cloned().collect();
            for nf in &graph.nfs {
                if !self.config.sharing.types.contains(&nf.functional_type)
                    || hints.nf_node.contains_key(&nf.id)
                {
                    continue;
                }
                let key = ShareKey::of_nf(nf);
                if let Some(claim) = shared.get_mut(&key) {
                    // Second NF of the same key: same host, same lease.
                    merged_pins.insert(nf.id.clone(), claim.host.clone());
                    claim.nfs += 1;
                    continue;
                }
                // Replica choice, in decreasing order of stability:
                // (a) the replica this graph already leases (if its
                // host serves) — re-planning never migrates a tenant
                // gratuitously; (b) the serving replica with the most
                // lease headroom (fewest leases, host-name tie-break);
                // (c) a standby host pre-elected at Suspect time;
                // (d) a fresh election — the first instance of the
                // pool, a failover, or (when `scale_out` is on and
                // every serving replica is full) a second instance
                // that splits the tenancy instead of erroring.
                let standby_host: Option<String> = shared_standby
                    .and_then(|m| m.get(&key))
                    .filter(|h| serving.contains(*h))
                    .cloned();
                let mut chosen: Option<String> = self
                    .sharing
                    .replicas(&key)
                    .iter()
                    .find(|i| i.leases.contains_key(&graph.id))
                    .map(|i| i.host.clone())
                    .filter(|h| serving.contains(h));
                let mut full_host: Option<String> = None;
                if chosen.is_none() {
                    let mut best: Option<(usize, String)> = None;
                    for inst in self.sharing.replicas(&key) {
                        if !serving.contains(&inst.host) {
                            continue;
                        }
                        let leases = inst.leases.len();
                        if self
                            .config
                            .sharing
                            .max_leases
                            .is_some_and(|max| leases >= max)
                        {
                            full_host = Some(inst.host.clone());
                            continue;
                        }
                        let better = best
                            .as_ref()
                            .is_none_or(|(l, h)| leases < *l || (leases == *l && inst.host < *h));
                        if better {
                            best = Some((leases, inst.host.clone()));
                        }
                    }
                    chosen = best.map(|(_, h)| h).or(standby_host);
                }
                let host = match chosen {
                    Some(h) => h,
                    None => {
                        let scale_out = full_host.is_some();
                        if scale_out && !self.config.sharing.scale_out {
                            return Err(DomainError::Sharing(SharingError::CapacityExhausted {
                                key: key.render(),
                                host: full_host.expect("checked above"),
                                max_leases: self.config.sharing.max_leases.unwrap_or(0),
                            }));
                        }
                        // Node-level NNF singletons cannot host two
                        // instances of one type, so every host already
                        // carrying this functional type is excluded —
                        // sibling capability pools, same-key replicas
                        // (a scale-out must land elsewhere), AND the
                        // hosts this very plan claimed a few NFs ago.
                        let occupied: BTreeSet<String> = self
                            .sharing
                            .instances()
                            .filter(|i| i.key.functional_type == key.functional_type)
                            .map(|i| i.host.clone())
                            .chain(
                                shared
                                    .iter()
                                    .filter(|(k, _)| k.functional_type == key.functional_type)
                                    .map(|(_, c)| c.host.clone()),
                            )
                            .collect();
                        let elected = elect(
                            &key,
                            &self.config.sharing.election,
                            &views,
                            fabric_hops.as_ref(),
                            &demand,
                            &occupied,
                        )?;
                        if scale_out {
                            self.trace.count("shared_scale_outs", 1);
                            self.obs.event(
                                "domain.shared.scale_out",
                                vec![
                                    ("key", key.render().into()),
                                    ("host", elected.clone().into()),
                                ],
                            );
                        }
                        elected
                    }
                };
                merged_pins.insert(nf.id.clone(), host.clone());
                shared.insert(key, SharedClaim { host, nfs: 1 });
            }
        }
        // Leases the graph already holds confine the scorer's per-node
        // shared-reuse bonus to the lease hosts (no double-counting;
        // one entry per capability pool).
        let mut held_leases: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for (key, claim) in self.sharing.leases_of(&graph.id) {
            held_leases
                .entry(key.functional_type)
                .or_default()
                .insert(claim.host);
        }
        let assignment = assign(
            graph,
            &views,
            &estimates,
            &endpoint_node,
            &merged_pins,
            &held_leases,
            hints.strategy.unwrap_or(self.config.strategy),
            fabric_hops.as_ref(),
        )?;
        // Reserve VLAN ids (fresh ones only; reused ids stay owned by
        // the live deployment); fresh ids return to the pool if
        // routing or installation fails.
        let fabric = self.config.fabric_port.clone();
        let mut taken: Vec<u16> = Vec::new();
        let partition_started = Instant::now();
        let part = {
            let free_vids = &mut self.free_vids;
            let next_vid = &mut self.next_vid;
            let mut alloc = |from: &str, to: &str, target: &un_nffg::PortRef| {
                if let Some(vid) = reuse.lookup(from, to, target) {
                    return Some(vid);
                }
                let vid = free_vids.pop().or_else(|| {
                    if *next_vid > OVERLAY_VID_MAX {
                        None
                    } else {
                        let v = *next_vid;
                        *next_vid += 1;
                        Some(v)
                    }
                })?;
                taken.push(vid);
                Some(vid)
            };
            partition(graph, &assignment, &endpoint_node, &fabric, &mut alloc)
        };
        let mut part = match part {
            Ok(part) => part,
            Err(e) => {
                self.free_vids.extend(taken);
                return Err(match e {
                    PartitionError::VidExhausted => DomainError::VidPoolExhausted,
                    other => other.into(),
                });
            }
        };
        self.obs.span(
            "domain.partition",
            partition_started,
            vec![
                ("graph", graph.id.clone().into()),
                ("parts", part.parts.len().into()),
                ("links", part.links.len().into()),
            ],
        );
        // Route every cut edge over the fabric: shortest usable path
        // per link (no path may touch a non-serving node). Multi-hop
        // paths get transit rules installed on intermediate nodes.
        // Routing is capacity-aware: edges already carrying pinned
        // overlay paths repel new ones in proportion to how thin they
        // are (see `Topology::shortest_path_loaded`). The graph's own
        // live links are excluded from the load map so re-planning
        // never repels a kept wire off the route it already rides.
        let usable = |n: &str| serving.contains(n);
        let edge_key = |a: &str, b: &str| {
            if a <= b {
                (a.to_string(), b.to_string())
            } else {
                (b.to_string(), a.to_string())
            }
        };
        let mut edge_paths: BTreeMap<(String, String), u64> = BTreeMap::new();
        for state in self.links.values() {
            let state = state.lock().expect("link lock poisoned");
            if state.graph == graph.id {
                continue;
            }
            for w in state.path.windows(2) {
                *edge_paths.entry(edge_key(&w[0], &w[1])).or_insert(0) += 1;
            }
        }
        let mut paths: BTreeMap<u16, Vec<String>> = BTreeMap::new();
        for link in &part.links {
            let routed = {
                let edge_load =
                    |a: &str, b: &str| edge_paths.get(&edge_key(a, b)).copied().unwrap_or(0);
                self.config.topology.shortest_path_loaded(
                    &link.from_node,
                    &link.to_node,
                    &usable,
                    &edge_load,
                )
            };
            match routed {
                Some(path) => {
                    // Only *other* graphs' pinned paths load the map:
                    // the links of one plan keep the old lexicographic
                    // tie-break among themselves, so a graph's wires
                    // stay co-routed (and re-plans stay stable).
                    paths.insert(link.vid, path);
                }
                None => {
                    self.free_vids.extend(taken);
                    return Err(DomainError::NoRoute {
                        from: link.from_node.clone(),
                        to: link.to_node.clone(),
                    });
                }
            }
        }
        let transit_started = Instant::now();
        install_transit(graph, &mut part.parts, &part.links, &paths, &fabric);
        if self.obs.is_enabled() {
            let multi_hop = paths.values().filter(|p| p.len() > 2).count();
            self.obs.span(
                "domain.install_transit",
                transit_started,
                vec![
                    ("graph", graph.id.clone().into()),
                    ("multi_hop_links", multi_hop.into()),
                ],
            );
            self.obs.span(
                "domain.plan",
                plan_started,
                vec![
                    ("graph", graph.id.clone().into()),
                    ("parts", part.parts.len().into()),
                    ("links", part.links.len().into()),
                    ("shared_claims", shared.len().into()),
                ],
            );
        }
        Ok(Plan {
            assignment,
            endpoints: endpoint_node,
            partition: part,
            paths,
            shared,
            taken,
        })
    }

    /// Commit a successfully installed plan's shared claims as leases,
    /// releasing leases the graph no longer claims (dropping instances
    /// whose last tenant left).
    fn commit_shared(&mut self, gid: &str, claims: &BTreeMap<ShareKey, SharedClaim>) {
        let keep: BTreeSet<ShareKey> = claims.keys().cloned().collect();
        let dropped = self.sharing.release_except(gid, &keep);
        self.trace
            .count("shared_instances_dropped", dropped.len() as u64);
        for (key, claim) in claims {
            let (instance_new, lease_new, replicas_dropped) =
                self.sharing.commit(gid, key, &claim.host, claim.nfs);
            if instance_new {
                self.trace.count("shared_instances_registered", 1);
            }
            if replicas_dropped > 0 {
                // A lease move emptied sibling replica(s) of the pool.
                self.trace
                    .count("shared_instances_dropped", replicas_dropped as u64);
            }
            if lease_new {
                self.trace.count("shared_leases_acquired", 1);
                self.obs.event(
                    "domain.lease.acquire",
                    vec![
                        ("graph", gid.into()),
                        ("key", key.render().into()),
                        ("host", claim.host.clone().into()),
                    ],
                );
            }
        }
    }

    /// Release every shared lease a graph holds (undeploy, park, or
    /// failed update), dropping instances whose last tenant left.
    fn release_shared(&mut self, gid: &str) {
        let dropped = self.sharing.release_graph(gid);
        // Only graphs that actually ride shared instances are worth an
        // event — every undeploy funnels through here.
        if self.config.sharing.enabled {
            self.obs.event(
                "domain.lease.release",
                vec![
                    ("graph", gid.into()),
                    ("instances_dropped", dropped.len().into()),
                ],
            );
        }
        self.trace
            .count("shared_instances_dropped", dropped.len() as u64);
    }

    /// Per-hop cost of one routed path: explicit edges carry their own
    /// latency, full-mesh (implicit) hops cost `overlay_link_ns`. (A
    /// routed path in explicit mode only ever walks explicit edges, so
    /// the default fires exactly for implicit full-mesh hops.)
    fn hop_latencies(&self, path: &[String]) -> Vec<u64> {
        path.windows(2)
            .map(|w| {
                self.config
                    .topology
                    .edge(&w[0], &w[1])
                    .map_or(self.config.overlay_link_ns, |e| e.latency_ns)
            })
            .collect()
    }

    /// Deploy the parts of a planned graph; rolls back on failure.
    fn install(
        &mut self,
        graph: &NfFg,
        hints: &DeployHints,
        plan: Plan,
    ) -> Result<DomainReport, DomainError> {
        let Plan {
            assignment,
            endpoints,
            partition: part,
            paths,
            shared,
            taken: _,
        } = plan;
        let mut per_node: Vec<(String, DeployReport)> = Vec::new();
        let mut deployed: Vec<String> = Vec::new();
        for (node_name, sub) in &part.parts {
            let managed = self
                .nodes
                .get_mut(node_name)
                .expect("assignment uses fleet");
            match managed.node.deploy(sub) {
                Ok(report) => {
                    per_node.push((node_name.clone(), report));
                    deployed.push(node_name.clone());
                }
                Err(e) => {
                    for prior in &deployed {
                        let m = self.nodes.get_mut(prior).expect("deployed above");
                        let _ = m.node.undeploy(&graph.id);
                    }
                    self.free_vids.extend(part.links.iter().map(|l| l.vid));
                    self.trace.count("deploys_rolled_back", 1);
                    return Err(DomainError::Deploy {
                        node: node_name.clone(),
                        error: e.to_string(),
                    });
                }
            }
        }
        // Stitch the overlay.
        self.register_links(&graph.id, &part.links, &paths);
        let report = DomainReport {
            graph: graph.id.clone(),
            per_node,
            overlay_links: part.links.len(),
        };
        self.commit_shared(&graph.id, &shared);
        self.graphs.insert(
            graph.id.clone(),
            DomainGraph {
                original: graph.clone(),
                hints: hints.clone(),
                assignment,
                endpoints,
                partition: part,
                shared,
            },
        );
        self.verify_mark_graph(&graph.id);
        Ok(report)
    }

    /// Register overlay link state (deriving SA pairs in ESP mode) for
    /// a graph's freshly partitioned links, pinning each to its routed
    /// fabric path.
    fn register_links(
        &mut self,
        graph_id: &str,
        links: &[OverlayLink],
        paths: &BTreeMap<u16, Vec<String>>,
    ) {
        for link in links {
            let sas = self
                .config
                .protect_overlay
                .then(|| Box::new(derive_link_sas(self.config.seed, link)));
            let path = paths
                .get(&link.vid)
                .cloned()
                .unwrap_or_else(|| vec![link.from_node.clone(), link.to_node.clone()]);
            let hop_latency_ns = self.hop_latencies(&path);
            let hops = path.len().saturating_sub(1);
            self.links.insert(
                link.vid,
                Mutex::new(LinkState {
                    link: link.clone(),
                    graph: graph_id.to_string(),
                    path,
                    hop_latency_ns,
                    sas,
                    packets: 0,
                    bytes: 0,
                    hop_packets: vec![0; hops],
                    hop_bytes: vec![0; hops],
                }),
            );
        }
        self.trace.count("overlay_links_up", links.len() as u64);
    }

    /// Scheduler RAM estimates for every NF of a graph (representative
    /// node; the fleet shares one repository).
    fn estimates(&self, graph: &NfFg) -> BTreeMap<String, u64> {
        let probe = self
            .nodes
            .values()
            .find(|m| m.health.is_serving())
            .map(|m| &m.node);
        graph
            .nfs
            .iter()
            .map(|nf| {
                let est = probe
                    .and_then(|n| n.estimate_nf_ram(&nf.functional_type, nf.flavor.as_deref()))
                    .unwrap_or(64 << 20);
                (nf.id.clone(), est)
            })
            .collect()
    }

    /// Update a deployed graph (rule-level changes update parts in
    /// place; structural changes re-plan, keeping surviving NFs on
    /// their nodes).
    pub fn update(&mut self, graph: &NfFg) -> Result<DomainReport, DomainError> {
        let errs = validate(graph);
        if !errs.is_empty() {
            return Err(DomainError::Invalid(errs));
        }
        let Some(existing) = self.graphs.get(&graph.id) else {
            return Err(DomainError::NoSuchGraph(graph.id.clone()));
        };
        let diff = un_nffg::diff(&existing.original, graph);
        if diff.is_empty() {
            return Ok(DomainReport {
                graph: graph.id.clone(),
                per_node: Vec::new(),
                overlay_links: existing.partition.links.len(),
            });
        }
        self.trace.count(
            if diff.is_structural() {
                "graph_updates_structural"
            } else {
                "graph_updates_rules"
            },
            1,
        );
        // Dirty the pre-update hosts now; the post-update hosts are
        // dirtied when the new partition commits.
        self.verify_mark_graph(&graph.id);

        let hints = existing.hints.clone();
        // Keep surviving NFs where they run today (suspect nodes are
        // still "today" — an unrelated update must not migrate them).
        let serving: Vec<String> = self.serving_nodes();
        let pins: BTreeMap<String, String> = existing
            .assignment
            .iter()
            .filter(|(nf, node)| graph.nf(nf).is_some() && serving.iter().any(|a| a == *node))
            .map(|(nf, node)| (nf.clone(), node.clone()))
            .collect();
        let old_parts: BTreeMap<String, NfFg> = existing.partition.parts.clone();
        let old_links: Vec<u16> = existing.partition.links.iter().map(|l| l.vid).collect();
        // Unchanged cut edges keep their VLAN id (and thus their
        // synthesized endpoint id), so a rules-only update leaves the
        // parts' endpoint sets intact and applies in place per node.
        let reuse = VidReuse::exact_only(
            existing
                .partition
                .links
                .iter()
                .map(|l| {
                    (
                        (l.from_node.clone(), l.to_node.clone(), l.dst_target.clone()),
                        l.vid,
                    )
                })
                .collect(),
        );

        // Any staged standby plan of this graph predates the update:
        // discard it (returning its reserved vids) before re-planning.
        self.discard_graph_standby(&graph.id);

        let plan = self.plan(graph, &hints, &pins, &BTreeMap::new(), reuse)?;
        let Plan {
            assignment,
            endpoints,
            partition: part,
            paths,
            shared,
            taken: _,
        } = plan;

        // Reconcile per node.
        let mut per_node: Vec<(String, DeployReport)> = Vec::new();
        let mut failure: Option<DomainError> = None;
        for (node_name, sub) in &part.parts {
            let managed = self
                .nodes
                .get_mut(node_name)
                .expect("assignment uses fleet");
            let result = if old_parts.contains_key(node_name) {
                managed.node.update(sub)
            } else {
                managed.node.deploy(sub)
            };
            match result {
                Ok(report) => per_node.push((node_name.clone(), report)),
                Err(e) => {
                    failure = Some(DomainError::Deploy {
                        node: node_name.clone(),
                        error: e.to_string(),
                    });
                    break;
                }
            }
        }
        if failure.is_none() {
            for node_name in old_parts.keys() {
                if !part.parts.contains_key(node_name) {
                    if let Some(m) = self.nodes.get_mut(node_name) {
                        let _ = m.node.undeploy(&graph.id);
                    }
                }
            }
        }
        if let Some(err) = failure {
            // Best-effort cleanup: drop the graph everywhere; the caller
            // holds the spec and can redeploy.
            for node_name in part.parts.keys().chain(old_parts.keys()) {
                if let Some(m) = self.nodes.get_mut(node_name) {
                    let _ = m.node.undeploy(&graph.id);
                }
            }
            // Reused vids appear in both link sets — free each once.
            let all: std::collections::BTreeSet<u16> = old_links
                .iter()
                .copied()
                .chain(part.links.iter().map(|l| l.vid))
                .collect();
            for vid in all {
                self.links.remove(&vid);
                self.free_vids.push(vid);
            }
            self.graphs.remove(&graph.id);
            self.release_shared(&graph.id);
            self.trace.count("updates_failed", 1);
            // The rollback touched the would-be hosts too, which were
            // never marked — re-verify everything.
            self.verify_mark_all();
            return Err(err);
        }

        // Swap overlay link state: free vids the new partition no
        // longer uses, then (re-)register the new link set (reused vids
        // get fresh LinkState; counters restart, SAs re-derive to the
        // same keys).
        let kept: std::collections::BTreeSet<u16> = part.links.iter().map(|l| l.vid).collect();
        for vid in old_links {
            self.links.remove(&vid);
            if !kept.contains(&vid) {
                self.free_vids.push(vid);
            }
        }
        self.register_links(&graph.id, &part.links, &paths);
        let overlay_links = part.links.len();
        self.commit_shared(&graph.id, &shared);
        self.graphs.insert(
            graph.id.clone(),
            DomainGraph {
                original: graph.clone(),
                hints,
                assignment,
                endpoints,
                partition: part,
                shared,
            },
        );
        self.verify_mark_graph(&graph.id);
        Ok(DomainReport {
            graph: graph.id.clone(),
            per_node,
            overlay_links,
        })
    }

    /// Undeploy a graph from every node that hosts a part of it (and
    /// drop any copy parked for re-placement — an undeployed graph
    /// must never resurrect through `retry_pending`).
    pub fn undeploy(&mut self, graph_id: &str) -> Result<(), DomainError> {
        // Capture the current hosts in the dirty set before the entry
        // is gone.
        self.verify_mark_graph(graph_id);
        let was_pending = self.pending.remove(graph_id).is_some();
        let Some(entry) = self.graphs.remove(graph_id) else {
            if was_pending {
                return Ok(());
            }
            return Err(DomainError::NoSuchGraph(graph_id.to_string()));
        };
        for node_name in entry.partition.parts.keys() {
            if let Some(m) = self.nodes.get_mut(node_name) {
                if m.health.is_serving() {
                    let _ = m.node.undeploy(graph_id);
                }
            }
        }
        for link in &entry.partition.links {
            self.links.remove(&link.vid);
            self.free_vids.push(link.vid);
        }
        // Standby plans staged for this graph are moot; their reserved
        // vids must return to the pool. The park window (if any) ends
        // without a drain: the operator gave the graph up.
        self.discard_graph_standby(graph_id);
        self.parked_at.remove(graph_id);
        self.release_shared(graph_id);
        self.trace.count("graphs_undeployed", 1);
        Ok(())
    }

    /// Deployed graph ids (pending re-placement excluded).
    pub fn graph_ids(&self) -> Vec<String> {
        self.graphs.keys().cloned().collect()
    }

    /// The original (whole) NF-FG of a deployed graph.
    pub fn graph(&self, id: &str) -> Option<&NfFg> {
        self.graphs.get(id).map(|g| &g.original)
    }

    /// The current partition of a deployed graph.
    pub fn partition_of(&self, id: &str) -> Option<&Partition> {
        self.graphs.get(id).map(|g| &g.partition)
    }

    /// Node assignment of a deployed graph's NFs.
    pub fn assignment_of(&self, id: &str) -> Option<&BTreeMap<String, String>> {
        self.graphs.get(id).map(|g| &g.assignment)
    }

    /// Graphs waiting for capacity after a failure.
    pub fn pending_graphs(&self) -> Vec<String> {
        self.pending.keys().cloned().collect()
    }

    // ------------------------------------------------------------------
    // Failure handling
    // ------------------------------------------------------------------

    /// Declare a node failed and repair every partition it hosted per
    /// [`DomainConfig::repair`] (incremental by default: only the lost
    /// sub-partition moves; survivors keep their placements, their
    /// overlay VLAN ids, and — where their part is byte-identical —
    /// their entire local deployment).
    pub fn fail_node(&mut self, name: &str) -> Result<ReplacementReport, DomainError> {
        let managed = self
            .nodes
            .get_mut(name)
            .ok_or_else(|| DomainError::NoSuchNode(name.to_string()))?;
        if managed.health == NodeHealth::Failed {
            // Idempotent: the partitions were already repaired when the
            // node first failed; there is nothing left to move.
            return Ok(ReplacementReport::default());
        }
        managed.health = NodeHealth::Failed;
        self.trace.count("nodes_failed", 1);
        // Repair reroutes overlay paths of *other* graphs riding the
        // casualty (transit rules on bystander nodes), so per-graph
        // dirty marks are not enough.
        self.verify_mark_all();
        Ok(self.replace_lost_partitions(name))
    }

    /// Repair every graph hosting a part on the (already marked
    /// failed) node `name`.
    fn replace_lost_partitions(&mut self, name: &str) -> ReplacementReport {
        // Downtime epoch: the failure is declared now; each graph's
        // estimated downtime runs from here to the end of its own
        // repair (so graphs later in the sweep include queueing delay).
        let failed_at = Instant::now();
        self.obs
            .event("domain.node.failed", vec![("node", name.into())]);
        // Standby plans staged while the node was merely suspect: the
        // make-before-break payload. Graph plans promote below; shared
        // standby hosts promote here.
        let mut node_sb = self.standby.take(name).unwrap_or_default();
        // Shared instances the casualty hosted are re-elected **once**
        // at registry level before any tenant is repaired, so every
        // tenant plan converges on the same new home (demand = the
        // surviving nodes its tenants occupy). A standby host elected
        // at Suspect time short-circuits the election to a promotion.
        // If no candidate exists, the host stays dead: each tenant
        // plan fails, the tenants park, and the last released lease
        // drops the instance.
        if self.config.sharing.enabled {
            let orphaned = self.sharing.hosted_on(name);
            if !orphaned.is_empty() {
                let views = self.views();
                let serving: BTreeSet<String> = self.serving_nodes().into_iter().collect();
                let fabric_hops = self.config.topology.hop_matrix(&serving);
                for key in orphaned {
                    if let Some(host) = node_sb.shared.remove(&key) {
                        // Promote the pre-elected standby host if it
                        // still serves and no sibling instance of the
                        // type landed there since.
                        let vacant = self
                            .sharing
                            .hosted_on(&host)
                            .iter()
                            .all(|k| k.functional_type != key.functional_type);
                        if serving.contains(&host) && vacant {
                            self.sharing.set_host(&key, name, &host);
                            self.trace.count("shared_hosts_reelected", 1);
                            self.trace.count("standby_shared_promoted", 1);
                            self.obs.event(
                                "domain.standby.promoted",
                                vec![
                                    ("kind", "shared".into()),
                                    ("key", key.render().into()),
                                    ("host", host.into()),
                                ],
                            );
                            continue;
                        }
                    }
                    let demand: BTreeSet<String> = self
                        .sharing
                        .replica_on(&key, name)
                        .map(|inst| inst.leases.keys())
                        .into_iter()
                        .flatten()
                        .filter_map(|gid| self.graphs.get(gid))
                        .flat_map(|g| g.assignment.values().chain(g.endpoints.values()))
                        .filter(|n| serving.contains(*n))
                        .cloned()
                        .collect();
                    let occupied: BTreeSet<String> = self
                        .sharing
                        .instances()
                        .filter(|i| i.key.functional_type == key.functional_type)
                        .map(|i| i.host.clone())
                        .collect();
                    if let Ok(host) = elect(
                        &key,
                        &self.config.sharing.election,
                        &views,
                        fabric_hops.as_ref(),
                        &demand,
                        &occupied,
                    ) {
                        self.sharing.set_host(&key, name, &host);
                        self.trace.count("shared_hosts_reelected", 1);
                        self.obs.event(
                            "domain.shared.elect",
                            vec![("key", key.render().into()), ("host", host.into())],
                        );
                    }
                }
            }
        }
        // Graphs with a part on the dead node.
        let affected: Vec<String> = self
            .graphs
            .iter()
            .filter(|(_, g)| g.partition.parts.contains_key(name))
            .map(|(id, _)| id.clone())
            .collect();

        let mut report = ReplacementReport::default();
        // The model's running clock through the sweep: graph i's
        // prediction includes the predicted queueing delay of the
        // i-1 repairs before it, mirroring how `downtime_estimate_ns`
        // accumulates on the measured side.
        let mut queue_model_ns: u64 = 0;
        for gid in affected {
            let repair_started = Instant::now();
            let entry = self.graphs.remove(&gid).expect("listed above");
            // A standby plan is only promotable under the incremental
            // policy, and only while still valid (same wires, every
            // planned node still serving). Invalid plans are discarded
            // explicitly — their reserved vids must return to the pool.
            let standby = if self.config.repair == RepairPolicy::Incremental {
                match node_sb.graphs.remove(&gid) {
                    Some(sb) if self.standby_valid(&sb, &entry) => Some(sb),
                    Some(sb) => {
                        self.discard_standby_plan(name, &gid, sb, "stale");
                        None
                    }
                    None => None,
                }
            } else {
                None
            };
            let predicted_kind = if standby.is_some() {
                RepairKind::StandbySwap
            } else {
                match self.config.repair {
                    RepairPolicy::Incremental => RepairKind::Reactive,
                    RepairPolicy::FromScratch => RepairKind::FromScratch,
                }
            };
            let modeled = queue_model_ns.saturating_add(self.calibration.predict(predicted_kind));
            let outcome = match standby {
                // A promotion failure falls straight to from-scratch:
                // the failed install already tore the survivors down,
                // so the incremental path's diff-skip assumption no
                // longer holds.
                Some(sb) => self
                    .promote_standby(&gid, &entry, sb)
                    .or_else(|_| self.replace_from_scratch(&gid, &entry)),
                // When incremental repair cannot hold the pinned plan,
                // tear everything down and re-plan with full freedom —
                // a repack may fit where the pinned increment could not.
                None => match self.config.repair {
                    RepairPolicy::Incremental => self
                        .repair_incremental(&gid, &entry)
                        .or_else(|_| self.replace_from_scratch(&gid, &entry)),
                    RepairPolicy::FromScratch => self.replace_from_scratch(&gid, &entry),
                },
            };
            match outcome {
                Ok(mut o) => {
                    o.repair_duration_ns = repair_started.elapsed().as_nanos() as u64;
                    o.downtime_estimate_ns = failed_at.elapsed().as_nanos() as u64;
                    o.modeled_downtime_ns = modeled;
                    queue_model_ns = modeled;
                    let actual_kind = if o.standby_promoted {
                        RepairKind::StandbySwap
                    } else if o.full_replace {
                        RepairKind::FromScratch
                    } else {
                        RepairKind::Reactive
                    };
                    self.calibration.record(actual_kind, o.repair_duration_ns);
                    let ledger = self
                        .avail
                        .entry(gid.clone())
                        .or_insert_with(|| GraphAvailability::new(&gid));
                    ledger.repairs += 1;
                    ledger.measured_downtime_ns += o.downtime_estimate_ns;
                    ledger.modeled_downtime_ns += modeled;
                    if o.standby_promoted {
                        ledger.standby_promotions += 1;
                    }
                    self.obs.span(
                        "domain.repair",
                        repair_started,
                        vec![
                            ("graph", o.graph.clone().into()),
                            ("nfs_moved", o.nfs_moved.into()),
                            ("nfs_preserved", o.nfs_preserved.into()),
                            ("links_rewired", o.links_rewired.into()),
                            ("nodes_touched", o.nodes_touched.into()),
                            ("full_replace", o.full_replace.into()),
                            ("standby_promoted", o.standby_promoted.into()),
                            ("downtime_estimate_ns", o.downtime_estimate_ns.into()),
                        ],
                    );
                    self.trace.count("graphs_replaced", 1);
                    self.trace.count("repair_nfs_moved", o.nfs_moved as u64);
                    self.trace
                        .count("repair_nfs_preserved", o.nfs_preserved as u64);
                    self.trace
                        .count("repair_links_rewired", o.links_rewired as u64);
                    self.trace.count("repair_links_kept", o.links_kept as u64);
                    if o.full_replace {
                        self.trace.count("repairs_full", 1);
                    } else {
                        self.trace.count("repairs_incremental", 1);
                    }
                    report.replaced.push(gid);
                    report.repairs.push(o);
                }
                Err(_) => {
                    // Park the spec with pins pruned to the surviving
                    // fleet so retry_pending can re-place it once
                    // capacity returns. A parked tenant is no live wire:
                    // its shared leases are released (the instance drops
                    // with its last tenant and re-registers on retry).
                    let serving = self.serving_nodes();
                    let mut hints = entry.hints.clone();
                    hints.endpoint_node.retain(|_, n| serving.contains(n));
                    hints.nf_node.retain(|_, n| serving.contains(n));
                    self.release_shared(&gid);
                    self.trace.count("graphs_stranded", 1);
                    // Park epoch: the downtime ledger stamps the park→
                    // drain window when the graph is restored.
                    self.parked_at.insert(gid.clone(), Instant::now());
                    self.avail
                        .entry(gid.clone())
                        .or_insert_with(|| GraphAvailability::new(&gid))
                        .park_events += 1;
                    self.pending.insert(gid.clone(), (entry.original, hints));
                    report.stranded.push(gid);
                }
            }
        }
        // Standby plans for graphs the failure no longer touches (the
        // graph was undeployed since, or the policy is from-scratch):
        // discard, returning their reserved vids.
        let leftover: Vec<(String, GraphStandby)> = node_sb.graphs.into_iter().collect();
        for (gid, sb) in leftover {
            self.discard_standby_plan(name, &gid, sb, "stale");
        }
        // Standbys staged for *other* suspect nodes may reference the
        // casualty (as part host, transit hop, or shared host) or a
        // graph this sweep re-planned: re-validate them all.
        self.prune_stale_standbys();
        self.update_standby_gauge();
        report
    }

    /// Incremental repair of one graph: pin everything that survives,
    /// inherit overlay VLAN ids across the cut, and touch only the
    /// nodes whose part actually changed.
    ///
    /// On success the graph is re-registered and the outcome returned.
    /// On failure the graph is fully undeployed from serving nodes and
    /// **old overlay link state is left registered** — the from-scratch
    /// fallback (which the caller always runs next) owns tearing it
    /// down, so each vid is freed exactly once.
    fn repair_incremental(
        &mut self,
        gid: &str,
        entry: &DomainGraph,
    ) -> Result<RepairOutcome, DomainError> {
        let serving = self.serving_nodes();
        let (nf_pins, ep_pins, hints, reuse) = Self::repair_inputs(entry, &serving);
        let plan = self.plan(&entry.original, &hints, &nf_pins, &ep_pins, reuse)?;
        self.install_repair_plan(gid, entry, plan, hints)
    }

    /// Survivor pins, pruned hints, and vid-inheritance directives for
    /// re-planning `entry` onto the `serving` fleet — the inputs of an
    /// incremental repair plan, shared between the reactive path and
    /// Suspect-time standby planning.
    #[allow(clippy::type_complexity)]
    fn repair_inputs(
        entry: &DomainGraph,
        serving: &[String],
    ) -> (
        BTreeMap<String, String>,
        BTreeMap<String, String>,
        DeployHints,
        VidReuse,
    ) {
        // Survivor pins: NFs and endpoints whose node still serves.
        let nf_pins: BTreeMap<String, String> = entry
            .assignment
            .iter()
            .filter(|(_, node)| serving.contains(node))
            .map(|(nf, node)| (nf.clone(), node.clone()))
            .collect();
        let ep_pins: BTreeMap<String, String> = entry
            .endpoints
            .iter()
            .filter(|(_, node)| serving.contains(node))
            .map(|(ep, node)| (ep.clone(), node.clone()))
            .collect();
        let mut hints = entry.hints.clone();
        hints.endpoint_node.retain(|_, n| serving.contains(n));
        hints.nf_node.retain(|_, n| serving.contains(n));
        // Overlay vid inheritance: a cut edge with one surviving side
        // keeps its vid, so the survivor's synthesized `ovl-<vid>`
        // endpoint (and every rule referencing it) stays identical.
        let mut reuse = VidReuse::default();
        for link in &entry.partition.links {
            let key_target = link.dst_target.clone();
            match (
                serving.contains(&link.from_node),
                serving.contains(&link.to_node),
            ) {
                (true, true) => {
                    reuse.exact.insert(
                        (link.from_node.clone(), link.to_node.clone(), key_target),
                        link.vid,
                    );
                }
                (true, false) => {
                    reuse
                        .from_side
                        .insert((link.from_node.clone(), key_target), link.vid);
                }
                (false, true) => {
                    reuse
                        .to_side
                        .insert((link.to_node.clone(), key_target), link.vid);
                }
                (false, false) => {}
            }
        }
        (nf_pins, ep_pins, hints, reuse)
    }

    /// Install an incremental repair plan over the live deployment of
    /// `entry`: reconcile per node (skipping byte-identical survivor
    /// parts), swap overlay link state, and re-register the graph.
    /// The plan may be freshly computed (reactive repair) or a standby
    /// staged at Suspect time (make-before-break promotion).
    ///
    /// On failure the graph is fully undeployed from serving nodes,
    /// the plan's fresh vids return to the pool, and **old overlay
    /// link state is left registered** — the from-scratch fallback
    /// (which the caller always runs next) owns tearing it down, so
    /// each vid is freed exactly once.
    fn install_repair_plan(
        &mut self,
        gid: &str,
        entry: &DomainGraph,
        plan: Plan,
        hints: DeployHints,
    ) -> Result<RepairOutcome, DomainError> {
        // Reconcile per node: untouched parts are skipped entirely.
        let mut nodes_touched = 0usize;
        let mut failure: Option<DomainError> = None;
        for (node_name, sub) in &plan.partition.parts {
            let old_part = entry.partition.parts.get(node_name);
            if let Some(old) = old_part {
                if un_nffg::diff(old, sub).is_empty() {
                    continue; // survivor untouched: no node call at all
                }
            }
            nodes_touched += 1;
            let managed = self
                .nodes
                .get_mut(node_name)
                .expect("assignment uses fleet");
            let result = if old_part.is_some() {
                managed.node.update(sub)
            } else {
                managed.node.deploy(sub)
            };
            if let Err(e) = result {
                failure = Some(DomainError::Deploy {
                    node: node_name.clone(),
                    error: e.to_string(),
                });
                break;
            }
        }
        if let Some(err) = failure {
            // Clean up for the from-scratch fallback: drop the graph
            // from every serving node involved and return *fresh* vids
            // to the pool. Old vids stay registered — the fallback's
            // teardown frees them (exactly once).
            for node_name in plan
                .partition
                .parts
                .keys()
                .chain(entry.partition.parts.keys())
            {
                if let Some(m) = self.nodes.get_mut(node_name) {
                    if m.health.is_serving() {
                        let _ = m.node.undeploy(gid);
                    }
                }
            }
            let old_vids: std::collections::BTreeSet<u16> =
                entry.partition.links.iter().map(|l| l.vid).collect();
            for link in &plan.partition.links {
                if !old_vids.contains(&link.vid) {
                    self.free_vids.push(link.vid);
                }
            }
            self.trace.count("repairs_rolled_back", 1);
            return Err(err);
        }
        // Serving nodes whose part disappeared from the plan: a
        // transit-only node loses its part when the rerouted (or
        // collapsed) path no longer crosses it. The undeploy is a node
        // call, so it counts toward the blast radius.
        for node_name in entry.partition.parts.keys() {
            if !plan.partition.parts.contains_key(node_name) {
                if let Some(m) = self.nodes.get_mut(node_name) {
                    if m.health.is_serving() {
                        let _ = m.node.undeploy(gid);
                        nodes_touched += 1;
                    }
                }
            }
        }

        // Swap overlay link state: free vids the new partition no
        // longer uses. Surviving vids keep their `LinkState` in place —
        // packet/byte counters and SA material (incl. replay windows)
        // carry across the repair, honoring the survivor-untouched
        // contract — with the peer routing and the pinned fabric path
        // updated (a kept wire may have been rerouted around the dead
        // node); genuinely new vids register fresh.
        let kept: std::collections::BTreeSet<u16> =
            plan.partition.links.iter().map(|l| l.vid).collect();
        for link in &entry.partition.links {
            if !kept.contains(&link.vid) {
                self.links.remove(&link.vid);
                self.free_vids.push(link.vid);
            }
        }
        let mut rerouted: Vec<(u16, Vec<String>)> = Vec::new();
        let fresh: Vec<OverlayLink> = plan
            .partition
            .links
            .iter()
            .filter(|link| match self.links.get_mut(&link.vid) {
                Some(state) => {
                    let state = state.get_mut().expect("link lock poisoned");
                    state.link = (*link).clone();
                    if let Some(path) = plan.paths.get(&link.vid) {
                        if state.path != *path {
                            rerouted.push((link.vid, path.clone()));
                        }
                    }
                    false
                }
                None => true,
            })
            .cloned()
            .collect();
        for (vid, path) in rerouted {
            let lats = self.hop_latencies(&path);
            let state = self
                .links
                .get_mut(&vid)
                .expect("kept above")
                .get_mut()
                .expect("link lock poisoned");
            let hops = path.len().saturating_sub(1);
            state.path = path;
            state.hop_latency_ns = lats;
            // The hop axis changed identity; totals survive, per-hop
            // counters restart on the new route.
            state.hop_packets = vec![0; hops];
            state.hop_bytes = vec![0; hops];
            self.trace.count("overlay_paths_rerouted", 1);
        }
        self.register_links(gid, &fresh, &plan.paths);

        let old_by_vid: BTreeMap<u16, &OverlayLink> =
            entry.partition.links.iter().map(|l| (l.vid, l)).collect();
        let (mut links_kept, mut links_rewired) = (0usize, 0usize);
        for link in &plan.partition.links {
            match old_by_vid.get(&link.vid) {
                Some(o) if o.from_node == link.from_node && o.to_node == link.to_node => {
                    links_kept += 1;
                }
                _ => links_rewired += 1,
            }
        }
        let nfs_moved = moved_count(&entry.assignment, &plan.assignment);
        let nfs_preserved = plan.assignment.len() - nfs_moved;
        let (shared_nfs_moved, shared_migrated) = shared_blast(entry, &plan);
        self.commit_shared(gid, &plan.shared);
        self.graphs.insert(
            gid.to_string(),
            DomainGraph {
                original: entry.original.clone(),
                hints,
                assignment: plan.assignment,
                endpoints: plan.endpoints,
                partition: plan.partition,
                shared: plan.shared,
            },
        );
        Ok(RepairOutcome {
            graph: gid.to_string(),
            nfs_moved,
            nfs_preserved,
            links_rewired,
            links_kept,
            nodes_touched,
            full_replace: false,
            shared_nfs_moved,
            shared_migrated,
            // Stamped by the repair sweep, which owns the clocks and
            // the model; `standby_promoted` by `promote_standby`.
            repair_duration_ns: 0,
            downtime_estimate_ns: 0,
            standby_promoted: false,
            modeled_downtime_ns: 0,
        })
    }

    /// From-scratch re-placement of one graph (the baseline, and the
    /// fallback when the incremental plan cannot be held): tear down
    /// every surviving part, free every overlay vid, re-plan with only
    /// the caller's (pruned) hints, and install.
    fn replace_from_scratch(
        &mut self,
        gid: &str,
        entry: &DomainGraph,
    ) -> Result<RepairOutcome, DomainError> {
        for node_name in entry.partition.parts.keys() {
            if let Some(m) = self.nodes.get_mut(node_name) {
                if m.health.is_serving() {
                    let _ = m.node.undeploy(gid);
                }
            }
        }
        for link in &entry.partition.links {
            self.links.remove(&link.vid);
            self.free_vids.push(link.vid);
        }
        // Drop pins that no longer point at a serving node (this one
        // or any other casualty of the same sweep) so the scheduler
        // may move them (interface availability decides).
        let serving = self.serving_nodes();
        let mut hints = entry.hints.clone();
        hints.endpoint_node.retain(|_, n| serving.contains(n));
        hints.nf_node.retain(|_, n| serving.contains(n));
        let plan = self.plan(
            &entry.original,
            &hints,
            &BTreeMap::new(),
            &BTreeMap::new(),
            VidReuse::default(),
        )?;
        let nfs_moved = moved_count(&entry.assignment, &plan.assignment);
        let nfs_preserved = plan.assignment.len() - nfs_moved;
        let nodes_touched = plan.partition.parts.len();
        let links_rewired = plan.partition.links.len();
        let (shared_nfs_moved, shared_migrated) = shared_blast(entry, &plan);
        self.install(&entry.original, &hints, plan)?;
        Ok(RepairOutcome {
            graph: gid.to_string(),
            nfs_moved,
            nfs_preserved,
            links_rewired,
            links_kept: 0,
            nodes_touched,
            full_replace: true,
            shared_nfs_moved,
            shared_migrated,
            // Stamped by the repair sweep, which owns the clocks.
            repair_duration_ns: 0,
            downtime_estimate_ns: 0,
            standby_promoted: false,
            modeled_downtime_ns: 0,
        })
    }

    /// Promote a standby plan staged at Suspect time: install the
    /// pre-computed parts directly, skipping the whole planning phase.
    /// On failure the plan's reserved vids have already returned to
    /// the pool (see [`Domain::install_repair_plan`]) and the caller
    /// falls back to a from-scratch replacement.
    fn promote_standby(
        &mut self,
        gid: &str,
        entry: &DomainGraph,
        sb: GraphStandby,
    ) -> Result<RepairOutcome, DomainError> {
        let serving = self.serving_nodes();
        let mut hints = entry.hints.clone();
        hints.endpoint_node.retain(|_, n| serving.contains(n));
        hints.nf_node.retain(|_, n| serving.contains(n));
        match self.install_repair_plan(gid, entry, sb.plan, hints) {
            Ok(mut o) => {
                o.standby_promoted = true;
                self.trace.count("standby_plans_promoted", 1);
                self.obs.event(
                    "domain.standby.promoted",
                    vec![("kind", "graph".into()), ("graph", gid.into())],
                );
                Ok(o)
            }
            Err(e) => {
                self.trace.count("standby_promotes_failed", 1);
                Err(e)
            }
        }
    }

    // ------------------------------------------------------------------
    // Make-before-break standby lifecycle
    // ------------------------------------------------------------------

    /// Pre-compute a standby repair plan per graph affected by the
    /// newly suspect node `name` (and pre-elect replacement hosts for
    /// shared replicas it carries), so a later failure is a swap
    /// instead of a plan. Gated on `config.standby` and the
    /// incremental repair policy; idempotent while the suspicion
    /// lasts.
    fn compute_standby(&mut self, name: &str) {
        if !self.config.standby
            || self.config.repair != RepairPolicy::Incremental
            || self.standby.contains(name)
        {
            return;
        }
        let serving: Vec<String> = self
            .serving_nodes()
            .into_iter()
            .filter(|n| n != name)
            .collect();
        let mut sb = NodeStandby::default();
        // Pre-elect a replacement host per shared replica the suspect
        // carries, so failure-time re-election is a promotion. The
        // election mirrors `replace_lost_partitions` with the suspect
        // counted dead.
        if self.config.sharing.enabled {
            let hosted = self.sharing.hosted_on(name);
            if !hosted.is_empty() {
                let mut views = self.views();
                for v in views.iter_mut() {
                    if v.name == name {
                        v.alive = false;
                    }
                }
                let serving_set: BTreeSet<String> = serving.iter().cloned().collect();
                let fabric_hops = self.config.topology.hop_matrix(&serving_set);
                for key in hosted {
                    let demand: BTreeSet<String> = self
                        .sharing
                        .replica_on(&key, name)
                        .map(|inst| inst.leases.keys())
                        .into_iter()
                        .flatten()
                        .filter_map(|gid| self.graphs.get(gid))
                        .flat_map(|g| g.assignment.values().chain(g.endpoints.values()))
                        .filter(|n| serving_set.contains(*n))
                        .cloned()
                        .collect();
                    let occupied: BTreeSet<String> = self
                        .sharing
                        .instances()
                        .filter(|i| i.key.functional_type == key.functional_type)
                        .map(|i| i.host.clone())
                        .collect();
                    if let Ok(host) = elect(
                        &key,
                        &self.config.sharing.election,
                        &views,
                        fabric_hops.as_ref(),
                        &demand,
                        &occupied,
                    ) {
                        sb.shared.insert(key, host);
                    }
                }
            }
        }
        // One pre-computed repair plan per graph with a part on the
        // suspect. The plan's fresh vids stay reserved (neither free
        // nor in use) until the standby promotes or is discarded.
        let affected: Vec<String> = self
            .graphs
            .iter()
            .filter(|(_, g)| g.partition.parts.contains_key(name))
            .map(|(id, _)| id.clone())
            .collect();
        for gid in affected {
            let entry = self.graphs.get(&gid).expect("listed above").clone();
            let (nf_pins, ep_pins, hints, reuse) = Self::repair_inputs(&entry, &serving);
            match self.plan_ctx(
                &entry.original,
                &hints,
                &nf_pins,
                &ep_pins,
                reuse,
                Some(name),
                Some(&sb.shared),
            ) {
                Ok(plan) => {
                    self.trace.count("standby_plans_computed", 1);
                    self.obs.event(
                        "domain.standby.computed",
                        vec![
                            ("graph", gid.clone().into()),
                            ("node", name.into()),
                            ("vids_reserved", plan.taken.len().into()),
                        ],
                    );
                    let old_vids: Vec<u16> = entry.partition.links.iter().map(|l| l.vid).collect();
                    sb.graphs.insert(gid, GraphStandby { plan, old_vids });
                }
                Err(_) => {
                    // The survivors cannot absorb this graph today; a
                    // failure will park it (or from-scratch may still
                    // find a repack the pinned plan could not).
                    self.trace.count("standby_plans_unplannable", 1);
                }
            }
        }
        if !sb.graphs.is_empty() || !sb.shared.is_empty() {
            self.standby.insert(name.to_string(), sb);
        }
        self.update_standby_gauge();
    }

    /// Is a staged standby plan still promotable over the live
    /// deployment of its graph? The graph's wires must be exactly the
    /// ones the plan was computed against, and every node the plan
    /// uses (part hosts, transit hops, shared hosts) must still serve.
    fn standby_valid(&self, sb: &GraphStandby, entry: &DomainGraph) -> bool {
        let mut cur: Vec<u16> = entry.partition.links.iter().map(|l| l.vid).collect();
        cur.sort_unstable();
        let mut old = sb.old_vids.clone();
        old.sort_unstable();
        if cur != old {
            return false;
        }
        let serving: BTreeSet<String> = self.serving_nodes().into_iter().collect();
        sb.plan.partition.parts.keys().all(|n| serving.contains(n))
            && sb
                .plan
                .paths
                .values()
                .flatten()
                .all(|n| serving.contains(n))
            && sb.plan.shared.values().all(|c| serving.contains(&c.host))
    }

    /// Return one standby plan's reserved vids to the pool.
    fn discard_standby_plan(
        &mut self,
        node: &str,
        gid: &str,
        sb: GraphStandby,
        reason: &'static str,
    ) {
        let vids = sb.plan.taken.len();
        self.free_vids.extend(sb.plan.taken);
        self.trace.count("standby_plans_discarded", 1);
        self.obs.event(
            "domain.standby.discarded",
            vec![
                ("graph", gid.into()),
                ("node", node.into()),
                ("reason", reason.into()),
                ("vids_returned", vids.into()),
            ],
        );
    }

    /// Discard everything staged for `node` (late heartbeat or
    /// explicit recovery ended the suspicion).
    fn discard_standby(&mut self, node: &str, reason: &'static str) {
        if let Some(sb) = self.standby.take(node) {
            for (gid, g) in sb.graphs {
                self.discard_standby_plan(node, &gid, g, reason);
            }
            self.update_standby_gauge();
        }
    }

    /// Discard `gid`'s standby plan on every suspect node (the graph
    /// was re-planned or undeployed, so those plans are stale).
    fn discard_graph_standby(&mut self, gid: &str) {
        let drained = self.standby.drain_graph(gid);
        if !drained.is_empty() {
            for (node, g) in drained {
                self.discard_standby_plan(&node, gid, g, "replanned");
            }
            self.update_standby_gauge();
        }
    }

    /// Re-validate every staged standby (after a repair sweep changed
    /// the fleet or re-planned graphs) and discard the stale ones.
    fn prune_stale_standbys(&mut self) {
        let mut stale: Vec<(String, String)> = Vec::new();
        for (node, sb) in self.standby.iter() {
            for (gid, g) in &sb.graphs {
                let valid = match self.graphs.get(gid) {
                    Some(entry) => self.standby_valid(g, entry),
                    None => false,
                };
                if !valid {
                    stale.push((node.clone(), gid.clone()));
                }
            }
        }
        for (node, gid) in stale {
            if let Some(g) = self.standby.remove_graph(&node, &gid) {
                self.discard_standby_plan(&node, &gid, g, "stale");
            }
        }
    }

    /// Export how many standby graph plans are staged right now.
    fn update_standby_gauge(&self) {
        if self.obs.is_enabled() {
            self.obs
                .registry()
                .gauge("un_standby_active", &[])
                .set(self.standby.graph_plans() as i64);
        }
    }

    /// Stamp the park→drain downtime of a just-restored graph into its
    /// availability ledger (closing the blind spot where parked graphs
    /// never stamped `downtime_estimate_ns`).
    fn stamp_park_drain(&mut self, gid: &str) {
        if let Some(at) = self.parked_at.remove(gid) {
            let downtime_ns = at.elapsed().as_nanos() as u64;
            let ledger = self
                .avail
                .entry(gid.to_string())
                .or_insert_with(|| GraphAvailability::new(gid));
            ledger.park_downtime_ns += downtime_ns;
            self.trace.count("park_drains", 1);
            self.obs.event(
                "domain.park.drained",
                vec![("graph", gid.into()), ("downtime_ns", downtime_ns.into())],
            );
        }
    }

    /// Try to deploy graphs stranded by earlier failures (call after
    /// adding capacity).
    pub fn retry_pending(&mut self) -> Vec<String> {
        let pending: Vec<(String, (NfFg, DeployHints))> =
            std::mem::take(&mut self.pending).into_iter().collect();
        let mut deployed = Vec::new();
        for (gid, (graph, hints)) in pending {
            if self.graphs.contains_key(&gid) {
                // A live deployment supersedes the parked copy (the
                // operator re-deployed it since the failure; the park
                // window was stamped then).
                self.parked_at.remove(&gid);
                continue;
            }
            match self
                .plan(
                    &graph,
                    &hints,
                    &BTreeMap::new(),
                    &BTreeMap::new(),
                    VidReuse::default(),
                )
                .and_then(|plan| self.install(&graph, &hints, plan))
            {
                Ok(_) => {
                    self.stamp_park_drain(&gid);
                    deployed.push(gid);
                }
                Err(_) => {
                    self.pending.insert(gid, (graph, hints));
                }
            }
        }
        deployed
    }

    // ------------------------------------------------------------------
    // Data plane
    // ------------------------------------------------------------------

    /// Inject a frame on a node's physical port and run it across the
    /// domain until every resulting frame left on a real egress.
    ///
    /// Thin wrapper over [`Domain::inject_batch`] with a one-frame
    /// burst and a single worker. The shuttle's per-call setup is
    /// O(touched nodes), not O(fleet): node state is claimed lazily
    /// from the fleet map and link locks live on the domain itself, so
    /// a single-frame inject on a large fleet costs a handful of map
    /// lookups — and no allocations: the borrowed names flow straight
    /// into the seeding loop. High-rate callers should still batch
    /// frames into `inject_batch`, which amortizes even that across
    /// the burst.
    pub fn inject(&mut self, node: &str, port: &str, pkt: Packet) -> DomainIo {
        self.inject_batch(std::iter::once((node, port, pkt)), 1)
    }

    /// Inject a burst of `(node, port, frame)` triples and drain the
    /// whole burst across the domain, optionally sharded over
    /// `workers` persistent OS threads.
    ///
    /// The shuttle is batched end to end: each node's pending frames
    /// are drained through [`UniversalNode::inject_batch`] in one call,
    /// fabric-bound egress is bucketed by VLAN link, ESP links
    /// seal/verify per burst under one lock, and the peer node receives
    /// its whole burst at once. With `workers > 1` the burst runs on
    /// the domain's persistent shard runtime — long-lived workers that
    /// park between calls, so a line-rate ingress path pays no thread
    /// spawn/join per burst. Each touched node hashes to a home shard
    /// whose ingress ring feeds that worker first; an idle worker
    /// steals from other rings, so the work-conserving any-worker-may-
    /// drive-any-node drain is preserved. Link counters and SAs are
    /// the only cross-shard state and sit behind per-link locks.
    ///
    /// Ingress keys are borrowed (`AsRef<str>`): callers can pass
    /// `&str`, `String`, or interned [`Name`] without allocating per
    /// frame.
    ///
    /// Every frame carries its own overlay-hop TTL
    /// ([`DomainConfig::overlay_ttl`]), so a large burst can never be
    /// spuriously dropped as a loop — only genuinely circulating frames
    /// die (counted as `overlay_loop_drops`).
    pub fn inject_batch<N, P>(
        &mut self,
        ingress: impl IntoIterator<Item = (N, P, Packet)>,
        workers: usize,
    ) -> DomainIo
    where
        N: AsRef<str>,
        P: AsRef<str>,
    {
        self.inject_batch_flight(ingress, workers, None)
    }

    /// Inject one frame with the flight recorder attached: the frame
    /// runs the **real** data plane (every counter moves exactly as
    /// under [`Domain::inject`]) while a [`TraceSink`] records one hop
    /// record per crossing — ingress, per-table classifier verdicts
    /// with matched-rule provenance, NF deliveries, overlay crossings,
    /// egress and typed drops. The finished trace lands in the
    /// domain's bounded recent-trace ring (`GET /domain/traces`) and
    /// is returned alongside the io report.
    pub fn inject_traced(
        &mut self,
        node: &str,
        port: &str,
        pkt: Packet,
        workers: usize,
    ) -> (DomainIo, PacketTrace) {
        let sink = Arc::new(TraceSink::new(node, port, false));
        let io = self.inject_batch_flight(
            std::iter::once((node, port, pkt)),
            workers,
            Some(Arc::clone(&sink)),
        );
        let trace = sink.snapshot();
        self.traces.push(trace.clone());
        (io, trace)
    }

    /// Walk a synthetic frame through the domain in **ghost mode**: the
    /// frame takes exactly the decisions the real data plane would take
    /// (classifier lookups, NF processing, overlay routing, real ESP
    /// seal/verify on cloned SAs) but moves **no counters** — node and
    /// domain trace counters, switch/port statistics, microflow caches,
    /// link wire counters and observability histograms are all left
    /// untouched, so a trace probe is invisible to the conservation
    /// ledger and to `/metrics`. Returns the recorded hop-by-hop trace
    /// (served by `POST /domain/trace`); ghost walks never enter the
    /// recent-trace ring.
    pub fn trace_frame(&mut self, node: &str, port: &str, pkt: Packet) -> PacketTrace {
        let sink = Arc::new(TraceSink::new(node, port, true));
        let _ = self.inject_batch_flight(
            std::iter::once((node, port, pkt)),
            1,
            Some(Arc::clone(&sink)),
        );
        sink.snapshot()
    }

    /// The bounded ring of recent real traces (newest last).
    pub fn recent_traces(&self) -> Vec<PacketTrace> {
        self.traces.snapshot()
    }

    /// Synthesize a probe frame from `spec` and ghost-walk it from
    /// `(node, port)` (see [`Domain::trace_frame`]): the backing for
    /// `POST /domain/trace`. The frame is built here — not by the REST
    /// layer — so every caller gets identical header synthesis.
    pub fn trace_probe(&mut self, node: &str, port: &str, spec: &ProbeSpec) -> PacketTrace {
        let mut b = un_packet::PacketBuilder::new().ethernet(
            un_packet::ethernet::MacAddr::local(1),
            un_packet::ethernet::MacAddr::local(2),
        );
        if let Some(vid) = spec.vlan {
            b = b.vlan(vid);
        }
        let payload = vec![0xA5u8; spec.payload_len];
        let pkt = b
            .ipv4(spec.src_ip, spec.dst_ip)
            .udp(spec.src_port, spec.dst_port)
            .payload(&payload)
            .build();
        self.trace_frame(node, port, pkt)
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Per-link counters: (vid, graph, from, to, packets, bytes).
    pub fn link_stats(&self) -> Vec<(u16, String, String, String, u64, u64)> {
        self.links
            .values()
            .map(|s| {
                let s = s.lock().expect("link lock poisoned");
                (
                    s.link.vid,
                    s.graph.clone(),
                    s.link.from_node.clone(),
                    s.link.to_node.clone(),
                    s.packets,
                    s.bytes,
                )
            })
            .collect()
    }

    /// Per-hop link counters: for each live overlay link, `(vid, graph,
    /// path, hop_packets, hop_bytes)` where hop `i` is the crossing
    /// `path[i] → path[i+1]`.
    #[allow(clippy::type_complexity)]
    pub fn link_hop_stats(&self) -> Vec<(u16, String, Vec<String>, Vec<u64>, Vec<u64>)> {
        self.links
            .values()
            .map(|s| {
                let s = s.lock().expect("link lock poisoned");
                (
                    s.link.vid,
                    s.graph.clone(),
                    s.path.clone(),
                    s.hop_packets.clone(),
                    s.hop_bytes.clone(),
                )
            })
            .collect()
    }

    /// The domain-wide frame-conservation ledger (see
    /// [`ConservationReport`]), summed from domain counters plus every
    /// node's fabric counters (including counters folded into the
    /// domain trace from replaced carcasses).
    pub fn conservation_report(&self) -> ConservationReport {
        let mut r = ConservationReport {
            ingress: self.trace.counter("domain_frames_ingress"),
            egress: self.trace.counter("domain_frames_egress"),
            fanout_extra: self.trace.counter("fabric_fanout_extra"),
            absorbed: self.trace.counter("fabric_absorbed"),
            drops: BTreeMap::new(),
        };
        // Node drop counters appear in the domain trace too: counters
        // folded in from replaced carcasses.
        for name in domain_drop_counters().chain(node_drop_counters()) {
            let n = self.trace.counter(name);
            if n > 0 {
                *r.drops.entry(name).or_insert(0) += n;
            }
        }
        for m in self.nodes.values() {
            r.fanout_extra += m.node.trace.counter("fabric_fanout_extra");
            r.absorbed += m.node.trace.counter("fabric_absorbed");
            for name in node_drop_counters() {
                let n = m.node.trace.counter(name);
                if n > 0 {
                    *r.drops.entry(name).or_insert(0) += n;
                }
            }
        }
        r
    }

    /// Render every metric — scraped live state (classifier counters,
    /// table occupancy, per-hop link counters, trace counters, the
    /// conservation ledger) plus the observability registry's hot-path
    /// histograms and span durations — in Prometheus text exposition
    /// format. Always available; the registry section is empty when
    /// `DomainConfig::observability` is off.
    pub fn metrics_prometheus(&self) -> String {
        use std::fmt::Write;
        let esc = un_obs::escape_label;
        let mut out = String::with_capacity(4096);

        // -- classifier stage outcomes + table occupancy + node health
        let _ = writeln!(out, "# TYPE un_classifier_lookups_total counter");
        for (name, m) in &self.nodes {
            let s = m.node.flow_cache_stats();
            for (path, v) in [
                ("cache_hit", s.cache_hits),
                ("cache_miss", s.cache_misses),
                ("exact_hit", s.exact_hits),
                ("megaflow_hit", s.megaflow_hits),
                ("wildcard_hit", s.wildcard_hits),
                ("miss", s.misses),
            ] {
                let _ = writeln!(
                    out,
                    "un_classifier_lookups_total{{node=\"{}\",path=\"{path}\"}} {v}",
                    esc(name)
                );
            }
        }
        let _ = writeln!(out, "# TYPE un_flow_table_entries gauge");
        for (name, m) in &self.nodes {
            let _ = writeln!(
                out,
                "un_flow_table_entries{{node=\"{}\"}} {}",
                esc(name),
                m.node.flow_table_occupancy()
            );
        }
        let _ = writeln!(out, "# TYPE un_node_serving gauge");
        for (name, m) in &self.nodes {
            let _ = writeln!(
                out,
                "un_node_serving{{node=\"{}\"}} {}",
                esc(name),
                u8::from(m.health.is_serving())
            );
        }

        // -- per-link wire counters, totals and per hop
        let _ = writeln!(out, "# TYPE un_link_frames_total counter");
        let _ = writeln!(out, "# TYPE un_link_bytes_total counter");
        for (vid, graph, _, _, packets, bytes) in self.link_stats() {
            let _ = writeln!(
                out,
                "un_link_frames_total{{vid=\"{vid}\",graph=\"{}\"}} {packets}",
                esc(&graph)
            );
            let _ = writeln!(
                out,
                "un_link_bytes_total{{vid=\"{vid}\",graph=\"{}\"}} {bytes}",
                esc(&graph)
            );
        }
        let _ = writeln!(out, "# TYPE un_link_hop_frames_total counter");
        let _ = writeln!(out, "# TYPE un_link_hop_bytes_total counter");
        for (vid, graph, path, hop_packets, hop_bytes) in self.link_hop_stats() {
            for (i, (hp, hb)) in hop_packets.iter().zip(&hop_bytes).enumerate() {
                let from = path.get(i).map(String::as_str).unwrap_or("?");
                let to = path.get(i + 1).map(String::as_str).unwrap_or("?");
                let _ = writeln!(
                    out,
                    "un_link_hop_frames_total{{vid=\"{vid}\",graph=\"{}\",hop=\"{i}\",\
                     from=\"{}\",to=\"{}\"}} {hp}",
                    esc(&graph),
                    esc(from),
                    esc(to)
                );
                let _ = writeln!(
                    out,
                    "un_link_hop_bytes_total{{vid=\"{vid}\",graph=\"{}\",hop=\"{i}\",\
                     from=\"{}\",to=\"{}\"}} {hb}",
                    esc(&graph),
                    esc(from),
                    esc(to)
                );
            }
        }

        // -- trace counters (drops, TTL expiries, control-plane events)
        let _ = writeln!(out, "# TYPE un_domain_events_total counter");
        for (event, n) in self.trace.counters() {
            let _ = writeln!(
                out,
                "un_domain_events_total{{event=\"{}\"}} {n}",
                esc(event)
            );
        }
        let _ = writeln!(out, "# TYPE un_node_events_total counter");
        for (name, m) in &self.nodes {
            for (event, n) in m.node.trace.counters() {
                let _ = writeln!(
                    out,
                    "un_node_events_total{{node=\"{}\",event=\"{}\"}} {n}",
                    esc(name),
                    esc(event)
                );
            }
        }

        // -- conservation ledger
        let ledger = self.conservation_report();
        let _ = writeln!(out, "# TYPE un_conservation_frames_total counter");
        for (term, v) in [
            ("ingress", ledger.ingress),
            ("egress", ledger.egress),
            ("fanout_extra", ledger.fanout_extra),
            ("absorbed", ledger.absorbed),
            ("dropped", ledger.dropped()),
        ] {
            let _ = writeln!(out, "un_conservation_frames_total{{term=\"{term}\"}} {v}");
        }
        let _ = writeln!(out, "# TYPE un_conservation_balanced gauge");
        let _ = writeln!(
            out,
            "un_conservation_balanced {}",
            u8::from(ledger.balanced())
        );

        // -- event-ring overflow: events evicted from the bounded
        //    recent-event ring since the domain came up
        let _ = writeln!(out, "# TYPE un_events_dropped_total counter");
        let _ = writeln!(
            out,
            "un_events_dropped_total {}",
            self.obs.events().dropped()
        );

        // -- hot-path histograms + span durations from the registry
        self.obs.registry().render_prometheus(&mut out);
        out
    }

    /// Recent control-plane events/spans (newest last). Empty unless
    /// `DomainConfig::observability` is on.
    pub fn recent_events(&self) -> Vec<un_obs::Event> {
        self.obs.events().snapshot()
    }

    /// The recent-event ring as a JSON document (for `GET
    /// /domain/events`).
    pub fn events_doc(&self) -> un_nffg::Json {
        self.events_doc_filtered(None, None, None)
    }

    /// [`Domain::events_doc`] with the `GET /domain/events` query
    /// filters applied: `since` keeps events strictly newer than the
    /// given epoch offset (ns), `kind` keeps one event kind
    /// (`"event"` / `"span"`), and `limit` bounds the page to the
    /// **newest** N matches. The `matched` field counts matches before
    /// pagination so a client can tell a short tail from a short ring.
    pub fn events_doc_filtered(
        &self,
        since: Option<u64>,
        kind: Option<&str>,
        limit: Option<usize>,
    ) -> un_nffg::Json {
        use un_nffg::Json;
        let mut matching: Vec<un_obs::Event> = self
            .recent_events()
            .into_iter()
            .filter(|ev| since.is_none_or(|s| ev.at_ns > s))
            .filter(|ev| kind.is_none_or(|k| ev.kind == k))
            .collect();
        let matched = matching.len();
        if let Some(n) = limit {
            // Newest N: the ring is oldest-first, so trim the front.
            if matching.len() > n {
                matching.drain(..matching.len() - n);
            }
        }
        let events: Vec<Json> = matching
            .into_iter()
            .map(|ev| {
                let mut attrs = Json::obj();
                for (k, v) in ev.attrs {
                    attrs = match v {
                        un_obs::AttrValue::Str(s) => attrs.set(k, s),
                        un_obs::AttrValue::U64(n) => attrs.set(k, n),
                        un_obs::AttrValue::I64(n) => attrs.set(k, n as f64),
                        un_obs::AttrValue::F64(f) => attrs.set(k, f),
                        un_obs::AttrValue::Bool(b) => attrs.set(k, b),
                    };
                }
                let mut doc = Json::obj()
                    .set("at-ns", ev.at_ns)
                    .set("kind", ev.kind)
                    .set("name", ev.name)
                    .set("attributes", attrs);
                if let Some(d) = ev.duration_ns {
                    doc = doc.set("duration-ns", d);
                }
                doc
            })
            .collect();
        un_nffg::Json::obj()
            .set("enabled", self.obs.is_enabled())
            .set("dropped", self.obs.events().dropped())
            .set("matched", matched as u64)
            .set("events", events)
    }

    /// The flight recorder's recent-trace ring as a JSON document (for
    /// `GET /domain/traces`): per trace the origin, hop count, drop
    /// reasons and the rendered walk.
    pub fn traces_doc(&self) -> un_nffg::Json {
        use un_nffg::Json;
        let traces: Vec<Json> = self
            .recent_traces()
            .into_iter()
            .map(|t| Self::trace_doc(&t))
            .collect();
        Json::obj()
            .set("capacity", un_obs::DEFAULT_TRACE_CAPACITY as u64)
            .set("traces", traces)
    }

    /// One packet trace as a JSON document (shared by `POST
    /// /domain/trace` and `GET /domain/traces`).
    pub fn trace_doc(trace: &PacketTrace) -> un_nffg::Json {
        use un_nffg::Json;
        let drops: Vec<Json> = trace
            .drops()
            .into_iter()
            .map(|r| Json::from(r.as_str()))
            .collect();
        Json::obj()
            .set("origin-node", trace.origin_node.clone())
            .set("origin-port", trace.origin_port.clone())
            .set("ghost", trace.ghost)
            .set("hops", trace.hops.len() as u64)
            .set("egress", trace.egress_count() as u64)
            .set("drops", drops)
            .set("rendered", trace.render())
    }

    /// The pinned fabric path of one overlay link (`[from, …, to]`).
    pub fn link_path(&self, vid: u16) -> Option<Vec<String>> {
        self.links
            .get(&vid)
            .map(|s| s.lock().expect("link lock poisoned").path.clone())
    }

    /// Overlay VLAN id accounting: `(base, next, free, in_use,
    /// standby_reserved)`. Every id in `base..next` is free, in use,
    /// or reserved by a staged standby plan — exactly once; the chaos
    /// suites hold that as an invariant after every operation.
    #[allow(clippy::type_complexity)]
    pub fn vid_accounting(&self) -> (u16, u16, Vec<u16>, Vec<u16>, Vec<u16>) {
        let mut free = self.free_vids.clone();
        free.sort_unstable();
        let in_use: Vec<u16> = self.links.keys().copied().collect();
        let mut standby_reserved = self.standby.reserved_vids();
        standby_reserved.sort_unstable();
        (
            self.config.overlay_vid_base,
            self.next_vid,
            free,
            in_use,
            standby_reserved,
        )
    }

    /// Graphs with a make-before-break standby plan staged right now.
    pub fn standby_graphs(&self) -> Vec<String> {
        self.standby.ready_graphs().into_iter().collect()
    }

    /// The measured/modeled downtime ledger of one graph (`None` if it
    /// was never repaired or parked).
    pub fn graph_availability(&self, id: &str) -> Option<GraphAvailability> {
        self.avail.get(id).cloned()
    }

    /// The modeled-vs-measured availability report: per deployed
    /// graph, predicted availability from exposure (nodes hosting
    /// parts), redundancy (standby staged or not), and repair policy —
    /// next to the measured downtime ledger the chaos suites validate
    /// the model against.
    pub fn availability_report(&self) -> AvailabilityReport {
        let ready = self.standby.ready_graphs();
        let reactive_kind = match self.config.repair {
            RepairPolicy::Incremental => RepairKind::Reactive,
            RepairPolicy::FromScratch => RepairKind::FromScratch,
        };
        let mtbf = self.config.node_mtbf_ns.max(1);
        let graphs: Vec<GraphPrediction> = self
            .graphs
            .iter()
            .map(|(gid, g)| {
                let exposed = g.partition.parts.len();
                let standby_ready = ready.contains(gid);
                let predicted_reactive_ns = self.calibration.predict(reactive_kind);
                let predicted_repair_ns = if standby_ready {
                    self.calibration.predict(RepairKind::StandbySwap)
                } else {
                    predicted_reactive_ns
                };
                // Each exposed node fails once per MTBF on average,
                // costing one predicted repair of downtime.
                let downtime_frac = exposed as f64 * predicted_repair_ns as f64 / mtbf as f64;
                GraphPrediction {
                    graph: gid.clone(),
                    exposed_nodes: exposed,
                    standby_ready,
                    predicted_repair_ns,
                    predicted_reactive_ns,
                    predicted_availability: (1.0 - downtime_frac).max(0.0),
                    ledger: self
                        .avail
                        .get(gid)
                        .cloned()
                        .unwrap_or_else(|| GraphAvailability::new(gid)),
                }
            })
            .collect();
        let (mut modeled, mut measured, mut events) = (0u64, 0u64, 0u64);
        for ledger in self.avail.values() {
            modeled += ledger.modeled_downtime_ns;
            measured += ledger.measured_downtime_ns;
            events += ledger.repairs;
        }
        AvailabilityReport {
            node_mtbf_ns: self.config.node_mtbf_ns,
            calibration: self.calibration.clone(),
            modeled_downtime_ns: modeled,
            measured_downtime_ns: measured,
            repair_events: events,
            graphs,
        }
    }

    /// [`Domain::availability_report`] as a JSON document (`GET
    /// /domain/availability`).
    pub fn availability_doc(&self) -> un_nffg::Json {
        use un_nffg::Json;
        let r = self.availability_report();
        Json::obj()
            .set("node-mtbf-ns", r.node_mtbf_ns)
            .set("repair-events", r.repair_events)
            .set("modeled-downtime-ns", r.modeled_downtime_ns)
            .set("measured-downtime-ns", r.measured_downtime_ns)
            .set(
                "calibration",
                Json::obj()
                    .set("swap-events", r.calibration.swap_events)
                    .set(
                        "swap-mean-ns",
                        r.calibration.predict(RepairKind::StandbySwap),
                    )
                    .set("reactive-events", r.calibration.reactive_events)
                    .set(
                        "reactive-mean-ns",
                        r.calibration.predict(RepairKind::Reactive),
                    )
                    .set("scratch-events", r.calibration.scratch_events)
                    .set(
                        "scratch-mean-ns",
                        r.calibration.predict(RepairKind::FromScratch),
                    ),
            )
            .set(
                "graphs",
                Json::Arr(
                    r.graphs
                        .into_iter()
                        .map(|g| {
                            Json::obj()
                                .set("id", g.graph.as_str())
                                .set("exposed-nodes", g.exposed_nodes)
                                .set("standby-ready", g.standby_ready)
                                .set("predicted-repair-ns", g.predicted_repair_ns)
                                .set("predicted-reactive-ns", g.predicted_reactive_ns)
                                .set("predicted-availability", g.predicted_availability)
                                .set("repairs", g.ledger.repairs)
                                .set("standby-promotions", g.ledger.standby_promotions)
                                .set("measured-downtime-ns", g.ledger.measured_downtime_ns)
                                .set("modeled-downtime-ns", g.ledger.modeled_downtime_ns)
                                .set("park-events", g.ledger.park_events)
                                .set("park-downtime-ns", g.ledger.park_downtime_ns)
                        })
                        .collect(),
                ),
            )
    }

    /// The fabric topology document: mode, explicit edges, and the
    /// pinned path of every live overlay link.
    pub fn topology_doc(&self) -> un_nffg::Json {
        use un_nffg::Json;
        let topo = &self.config.topology;
        Json::obj()
            .set(
                "mode",
                if topo.is_full_mesh() {
                    "full-mesh"
                } else {
                    "explicit"
                },
            )
            .set(
                "edges",
                Json::Arr(
                    topo.edge_list()
                        .into_iter()
                        .map(|(a, b, attrs)| {
                            Json::obj()
                                .set("a", a.as_str())
                                .set("b", b.as_str())
                                .set("latency-ns", attrs.latency_ns)
                                .set("capacity-bps", attrs.capacity_bps)
                        })
                        .collect(),
                ),
            )
            .set(
                "paths",
                Json::Arr(
                    self.links
                        .values()
                        .map(|s| {
                            let s = s.lock().expect("link lock poisoned");
                            Json::obj()
                                .set("vid", s.link.vid)
                                .set("graph", s.graph.as_str())
                                .set(
                                    "path",
                                    Json::Arr(
                                        s.path.iter().map(|n| Json::from(n.as_str())).collect(),
                                    ),
                                )
                                .set("hops", s.path.len().saturating_sub(1))
                        })
                        .collect(),
                ),
            )
    }

    /// Toggle the domain-wide sharable-NNF registry at runtime.
    /// Deployed graphs keep the leases they hold; new plans (deploys,
    /// updates, repairs) follow the switch.
    pub fn set_sharing_enabled(&mut self, enabled: bool) {
        if self.config.sharing.enabled != enabled {
            self.config.sharing.enabled = enabled;
            self.trace.count(
                if enabled {
                    "sharing_enabled"
                } else {
                    "sharing_disabled"
                },
                1,
            );
        }
    }

    /// Is the fleet-level sharing registry currently consulted?
    pub fn sharing_enabled(&self) -> bool {
        self.config.sharing.enabled
    }

    /// Snapshot of every live shared instance (key, host, leases).
    pub fn shared_instances(&self) -> Vec<SharedInstance> {
        self.sharing.instances().cloned().collect()
    }

    /// The shared leases a deployed graph holds (`None` for unknown
    /// graphs; an empty map for tenants of nothing).
    pub fn graph_shared_leases(&self, id: &str) -> Option<BTreeMap<ShareKey, SharedClaim>> {
        self.graphs.get(id).map(|g| g.shared.clone())
    }

    /// The shared-NNF registry document (`GET /domain/shared`):
    /// settings plus every instance with its host and tenant leases.
    pub fn shared_doc(&self) -> un_nffg::Json {
        use un_nffg::Json;
        Json::obj()
            .set("enabled", self.config.sharing.enabled)
            .set("election", self.config.sharing.election.name())
            .set(
                "types",
                Json::Arr(
                    self.config
                        .sharing
                        .types
                        .iter()
                        .map(|t| Json::from(t.as_str()))
                        .collect(),
                ),
            )
            .set(
                "max-leases",
                match self.config.sharing.max_leases {
                    Some(max) => Json::from(max),
                    None => Json::Null,
                },
            )
            .set(
                "instances",
                Json::Arr(
                    self.sharing
                        .instances()
                        .map(|inst| {
                            Json::obj()
                                .set("type", inst.key.functional_type.as_str())
                                .set("capability", inst.key.capability.as_str())
                                .set("host", inst.host.as_str())
                                .set("tenants", inst.tenant_count())
                                .set("wires", inst.wires())
                                .set(
                                    "leases",
                                    Json::Arr(
                                        inst.leases
                                            .iter()
                                            .map(|(graph, nfs)| {
                                                Json::obj()
                                                    .set("graph", graph.as_str())
                                                    .set("nfs", *nfs)
                                            })
                                            .collect(),
                                    ),
                                )
                        })
                        .collect(),
                ),
            )
    }

    /// The domain's self-description as a JSON document.
    pub fn describe(&self) -> un_nffg::Json {
        use un_nffg::Json;
        Json::obj()
            .set(
                "nodes",
                Json::Arr(
                    self.nodes
                        .values()
                        .map(|m| {
                            let cache = m.node.flow_cache_stats();
                            let health = match m.health {
                                NodeHealth::Alive => "alive",
                                NodeHealth::Suspect => "suspect",
                                NodeHealth::Failed => "failed",
                            };
                            Json::obj()
                                .set("name", m.node.name.as_str())
                                .set("alive", m.health.is_serving())
                                .set("health", health)
                                .set("memory_used", m.node.memory_used())
                                .set("memory_capacity", m.node.mem_capacity())
                                .set("flow_cache_hits", cache.cache_hits)
                                .set("flow_cache_misses", cache.cache_misses)
                                .set(
                                    "graphs",
                                    Json::Arr(
                                        m.node
                                            .graph_ids()
                                            .iter()
                                            .map(|g| Json::from(g.as_str()))
                                            .collect(),
                                    ),
                                )
                        })
                        .collect(),
                ),
            )
            .set(
                "graphs",
                Json::Arr(
                    self.graphs
                        .iter()
                        .map(|(id, g)| {
                            Json::obj()
                                .set("id", id.as_str())
                                .set(
                                    "nodes",
                                    Json::Arr(
                                        g.partition
                                            .parts
                                            .keys()
                                            .map(|n| Json::from(n.as_str()))
                                            .collect(),
                                    ),
                                )
                                .set("overlay_links", g.partition.links.len())
                                .set(
                                    "shared-leases",
                                    Json::Arr(
                                        g.shared
                                            .iter()
                                            .map(|(key, claim)| {
                                                Json::obj()
                                                    .set("type", key.functional_type.as_str())
                                                    .set("capability", key.capability.as_str())
                                                    .set("host", claim.host.as_str())
                                                    .set("nfs", claim.nfs)
                                            })
                                            .collect(),
                                    ),
                                )
                        })
                        .collect(),
                ),
            )
            .set(
                "links",
                Json::Arr(
                    self.links
                        .values()
                        .map(|s| {
                            let s = s.lock().expect("link lock poisoned");
                            Json::obj()
                                .set("vid", s.link.vid)
                                .set("graph", s.graph.as_str())
                                .set("from", s.link.from_node.as_str())
                                .set("to", s.link.to_node.as_str())
                                .set(
                                    "path",
                                    Json::Arr(
                                        s.path.iter().map(|n| Json::from(n.as_str())).collect(),
                                    ),
                                )
                                .set("protected", s.sas.is_some())
                                .set("packets", s.packets)
                                .set("bytes", s.bytes)
                        })
                        .collect(),
                ),
            )
            .set(
                "pending",
                Json::Arr(
                    self.pending
                        .keys()
                        .map(|g| Json::from(g.as_str()))
                        .collect(),
                ),
            )
    }
}

/// Derive a deterministic SA pair for one overlay link.
fn derive_link_sas(seed: u64, link: &OverlayLink) -> (SecurityAssociation, SecurityAssociation) {
    let mut rng = DetRng::new(seed ^ (u64::from(link.vid) << 16));
    let mut key = [0u8; 32];
    let mut salt = [0u8; 4];
    rng.fill(&mut key);
    rng.fill(&mut salt);
    let spi = 0x4f56_0000 | u32::from(link.vid); // 'OV' + vid
    let src = Ipv4Addr::new(10, 255, 255, 1);
    let dst = Ipv4Addr::new(10, 255, 255, 2);
    (
        SecurityAssociation::outbound(spi, src, dst, key, salt),
        SecurityAssociation::inbound(spi, src, dst, key, salt),
    )
}

mod shuttle;
mod verify;

#[cfg(test)]
mod tests;
