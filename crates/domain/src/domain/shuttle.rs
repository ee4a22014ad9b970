//! The domain shuttle: [`Domain`]'s batched, sharded data plane.
//!
//! One call seeds the ingress frames into per-node cells, then shard
//! workers claim ready nodes, run each node's pending burst through
//! [`un_core::UniversalNode::inject_batch_flight`], and carry the
//! fabric-bound egress over the overlay links (ESP per burst) into the
//! peers' queues until no frame is in flight.

use std::cmp::Reverse;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use un_core::{record_drop, Name, PortId};
use un_ipsec::esp;
use un_obs::{DropReason, HopKind, TraceSink};
use un_packet::Packet;
use un_sim::{Cost, TraceLog};

use super::{Domain, DomainIo, LinkState, ManagedNode, NodeHealth};
use crate::runtime::ShardRuntime;

/// One cell per *touched* node; the cell owns the node state
/// while no worker is driving it. Untouched nodes stay in the
/// fleet map itself — a single-frame inject pays O(log fleet)
/// lookups for the nodes it crosses, nothing per-fleet-member.
struct NodeCell {
    managed: Option<ManagedNode>,
    fabric_id: Option<PortId>,
    name: Name,
    /// Pending bursts keyed by remaining TTL, freshest first.
    pending: BTreeMap<Reverse<u32>, Vec<(PortId, Packet)>>,
    queued: usize,
    /// Home shard: whose ingress ring this node's work lands on.
    home: usize,
    /// The node currently sits in a ready ring (dedup flag).
    enqueued: bool,
}

/// Stable node→shard assignment (deterministic across calls).
fn shard_of(node: &str, shards: usize) -> usize {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    node.hash(&mut h);
    (h.finish() % shards.max(1) as u64) as usize
}

struct Pool {
    cells: BTreeMap<String, NodeCell>,
    /// The fleet map, moved out of the domain for the call so
    /// persistent workers need no borrowed lifetimes.
    nodes: BTreeMap<String, ManagedNode>,
    /// Per-shard ingress rings of ready nodes. A worker pops
    /// its own ring first, then steals from the others.
    rings: Vec<VecDeque<Name>>,
}

impl Pool {
    /// The cell for `node`, claiming it out of the fleet map on
    /// first touch. Suspect nodes keep forwarding: they are
    /// slow, not dead.
    fn cell(&mut self, node: &str, fabric: &str) -> Result<&mut NodeCell, DropReason> {
        if !self.cells.contains_key(node) {
            match self.nodes.get(node) {
                None => return Err(DropReason::InjectUnknownNode),
                Some(m) if m.health == NodeHealth::Failed => {
                    return Err(DropReason::InjectDeadNode)
                }
                Some(_) => {}
            }
            let (key, managed) = self.nodes.remove_entry(node).expect("checked above");
            let cell = NodeCell {
                fabric_id: managed.node.port_id(fabric),
                name: Name::new(&managed.node.name),
                home: shard_of(node, self.rings.len()),
                managed: Some(managed),
                pending: BTreeMap::new(),
                queued: 0,
                enqueued: false,
            };
            self.cells.insert(key, cell);
        }
        Ok(self.cells.get_mut(node).expect("inserted above"))
    }

    /// Put `node` on its home shard's ring if it has claimable
    /// work (pending frames + free node state) and is not
    /// already enqueued. Every path that adds work or hands a
    /// node back calls this, so a ready node is always in some
    /// ring.
    fn mark_ready(&mut self, node: &str) {
        let Some(cell) = self.cells.get_mut(node) else {
            return;
        };
        debug_assert_eq!(
            cell.queued,
            cell.pending.values().map(Vec::len).sum::<usize>(),
            "ingress ring bookkeeping diverged for {node}: queued \
             count disagrees with pending bursts"
        );
        if !cell.enqueued && cell.queued > 0 && cell.managed.is_some() {
            cell.enqueued = true;
            let home = cell.home;
            let name = cell.name.clone();
            debug_assert!(
                !self.rings.iter().any(|r| r.contains(&name)),
                "{node} enqueued twice: the dedup flag was clear but \
                 the node already sits in a ready ring"
            );
            self.rings[home].push_back(name);
        }
    }

    /// Claim a ready node: pop the worker's own ring first,
    /// then steal round-robin from the others. Ring entries go
    /// stale when another worker drains or claims the node
    /// first — they are skipped (flag cleared); `mark_ready`
    /// re-enqueues when work lands again. Returns the claimed
    /// node, its freshest pending burst, and whether the claim
    /// was stolen from a foreign ring.
    #[allow(clippy::type_complexity)]
    fn claim(
        &mut self,
        shard: usize,
    ) -> Option<(Name, ManagedNode, u32, Vec<(PortId, Packet)>, bool)> {
        let shards = self.rings.len();
        for d in 0..shards {
            let ring = (shard + d) % shards;
            while let Some(name) = self.rings[ring].pop_front() {
                let Some(cell) = self.cells.get_mut(name.as_str()) else {
                    continue;
                };
                cell.enqueued = false;
                if cell.queued == 0 || cell.managed.is_none() {
                    continue;
                }
                let (&Reverse(t), _) = cell.pending.iter().next().expect("queued > 0");
                let burst = cell.pending.remove(&Reverse(t)).expect("present");
                debug_assert!(
                    cell.queued >= burst.len(),
                    "claim of {} frames exceeds the {} queued on {}",
                    burst.len(),
                    cell.queued,
                    name.as_str()
                );
                cell.queued -= burst.len();
                debug_assert_eq!(
                    cell.queued,
                    cell.pending.values().map(Vec::len).sum::<usize>(),
                    "claim left stale queued count on {}",
                    name.as_str()
                );
                return Some((
                    cell.name.clone(),
                    cell.managed.take().expect("checked above"),
                    t,
                    burst,
                    d != 0,
                ));
            }
        }
        None
    }
}

#[derive(Default)]
struct WorkerOut {
    emitted: Vec<(Name, Name, Packet)>,
    cost: Cost,
    overlay_hops: u32,
    protected_bytes: u64,
    counters: TraceLog,
    /// The shard index this worker drained as.
    shard: usize,
    /// Claims served from the worker's own ring / stolen from
    /// foreign rings (utilization signal).
    claims_home: u64,
    claims_stolen: u64,
}

/// The cross-worker shuttle state. It *owns* the fleet cells
/// and the link-lock map (moved out of the domain for the call) so
/// the drain job is `'static` and can run on persistent workers;
/// everything moves back into the domain after the round — even
/// a fully mis-addressed burst, so the restore always runs.
struct Shuttle {
    pool: Mutex<Pool>,
    links: BTreeMap<u16, Mutex<LinkState>>,
    work_ready: std::sync::Condvar,
    in_flight: AtomicUsize,
    crossings: AtomicU64,
    crossing_cap: u64,
    aborted: std::sync::atomic::AtomicBool,
    outs: Mutex<Vec<WorkerOut>>,
    fabric: String,
    esp_fixed_ns: u64,
    esp_ns_per_byte: f64,
    flight: Option<Arc<TraceSink>>,
    ghost: bool,
}

/// A worker that panics can never decrement `in_flight`; this
/// flag (set by the unwinding worker's drop guard) releases its
/// peers from the idle spin so the panic propagates through
/// `join` instead of hanging the scope.
struct AbortGuard<'a>(&'a std::sync::atomic::AtomicBool);
impl Drop for AbortGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Release);
        }
    }
}

impl Domain {
    /// The shuttle behind [`Domain::inject_batch`],
    /// [`Domain::inject_traced`] and [`Domain::trace_frame`].
    pub(super) fn inject_batch_flight<N, P>(
        &mut self,
        ingress: impl IntoIterator<Item = (N, P, Packet)>,
        workers: usize,
        flight: Option<Arc<TraceSink>>,
    ) -> DomainIo
    where
        N: AsRef<str>,
        P: AsRef<str>,
    {
        let ghost = flight.as_ref().is_some_and(|f| f.ghost());
        let mut io = DomainIo::default();
        let ttl = self.config.overlay_ttl.max(1);
        let fabric = self.config.fabric_port.clone();
        let shards = workers.max(1);
        // Build (or resize) the persistent worker pool up front;
        // single-worker calls drain inline and never touch it.
        if workers > 1 && self.runtime.as_ref().is_none_or(|r| r.workers() != workers) {
            self.runtime = Some(ShardRuntime::new(workers));
        }
        let obs = Arc::clone(&self.obs);
        let trace = &mut self.trace;

        let mut state = Pool {
            cells: BTreeMap::new(),
            nodes: std::mem::take(&mut self.nodes),
            rings: (0..shards).map(|_| VecDeque::new()).collect(),
        };

        // Seed the ingress queues, resolving each port name once.
        let mut seeded = 0usize;
        let mut ingressed = 0u64;
        for (node, port, pkt) in ingress {
            ingressed += 1;
            let node = node.as_ref();
            {
                let cell = match state.cell(node, &fabric) {
                    Ok(cell) => cell,
                    Err(reason) => {
                        record_drop(trace, flight.as_deref(), node, reason, 1, format_args!(""));
                        continue;
                    }
                };
                let managed = cell.managed.as_mut().expect("no worker running yet");
                let Some(pid) = managed.node.port_id(port.as_ref()) else {
                    record_drop(
                        &mut managed.node.trace,
                        flight.as_deref(),
                        node,
                        DropReason::InjectUnknownPort,
                        1,
                        format_args!("no port '{}'", port.as_ref()),
                    );
                    continue;
                };
                if let Some(f) = &flight {
                    f.hop(
                        node,
                        HopKind::Ingress {
                            port: port.as_ref().to_string(),
                        },
                    );
                }
                cell.pending
                    .entry(Reverse(ttl))
                    .or_default()
                    .push((pid, pkt));
                cell.queued += 1;
                seeded += 1;
            }
            state.mark_ready(node);
        }
        if !ghost {
            trace.count("domain_frames_ingress", ingressed);
        }

        // Ring-depth gauges: how the seeded burst spread across shard
        // ingress rings (refreshed per call; inert unless obs is on).
        if !ghost && obs.is_enabled() {
            let reg = obs.registry();
            reg.gauge("un_shuttle_workers", &[]).set(shards as i64);
            for (i, ring) in state.rings.iter().enumerate() {
                reg.gauge("un_shuttle_ring_depth", &[("shard", &i.to_string())])
                    .set(ring.len() as i64);
            }
        }

        let in_flight = AtomicUsize::new(seeded);
        // Last-resort bound on total overlay crossings per call:
        // single-path traffic needs at most `seeded × ttl` (each frame
        // crosses at most `ttl` times). Workloads that multiply frames
        // — a flood rule around an overlay cycle, or extreme loop-free
        // fan-out past `seeded × ttl` copies — trip it, and everything
        // still crossing is dropped (`overlay_work_exhausted`). The
        // per-frame TTL alone would let amplification grow
        // exponentially; this valve trades completeness under
        // amplification for a hard bound.
        let crossing_cap: u64 = (seeded as u64).saturating_mul(u64::from(ttl));
        let crossings = AtomicU64::new(0);
        let shuttle = Arc::new(Shuttle {
            pool: Mutex::new(state),
            links: std::mem::take(&mut self.links),
            work_ready: std::sync::Condvar::new(),
            in_flight,
            crossings,
            crossing_cap,
            aborted: std::sync::atomic::AtomicBool::new(false),
            outs: Mutex::new(Vec::with_capacity(shards)),
            fabric,
            esp_fixed_ns: self.config.esp_fixed_ns,
            esp_ns_per_byte: self.config.esp_ns_per_byte,
            flight,
            ghost,
        });

        let worker = {
            let shuttle = Arc::clone(&shuttle);
            move |shard: usize| drain(&shuttle, shard)
        };

        // Dispatch: inline for one worker (no runtime, no allocation),
        // one round on the persistent shard pool otherwise. A worker
        // panic is caught so claimed state is still restored to the
        // fleet map below, then re-raised.
        let round = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if workers <= 1 {
                worker(0);
            } else {
                self.runtime
                    .as_mut()
                    .expect("runtime built above")
                    .run(worker);
            }
        }));

        // Move the shuttle state back into the domain. The runtime
        // round is over (even on panic `run` waits out the stragglers),
        // so ours is the last reference.
        let shuttle = Arc::try_unwrap(shuttle)
            .ok()
            .expect("all shard workers released the shuttle");
        let state = shuttle
            .pool
            .into_inner()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        self.nodes = state.nodes;
        for (name, cell) in state.cells {
            if let Some(managed) = cell.managed {
                self.nodes.insert(name, managed);
            }
        }
        self.links = shuttle.links;
        if let Err(panic) = round {
            // State is restored (minus any node in flight at that
            // instant — lost with the call, as under the old scoped-
            // thread shuttle); now the panic propagates.
            std::panic::resume_unwind(panic);
        }
        let outs = shuttle
            .outs
            .into_inner()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let mut claims_home = 0u64;
        let mut claims_stolen = 0u64;
        for mut worker in outs {
            io.emitted.append(&mut worker.emitted);
            io.cost += worker.cost;
            io.overlay_hops += worker.overlay_hops;
            io.protected_bytes += worker.protected_bytes;
            claims_home += worker.claims_home;
            claims_stolen += worker.claims_stolen;
            // Per-worker utilization gauge: how many node-bursts this
            // shard drove last round (home + stolen).
            if !ghost && obs.is_enabled() {
                obs.registry()
                    .gauge(
                        "un_shuttle_worker_claims",
                        &[("shard", &worker.shard.to_string())],
                    )
                    .set((worker.claims_home + worker.claims_stolen) as i64);
            }
            for (name, n) in worker.counters.counters() {
                self.trace.count(name, n);
            }
        }
        if !ghost {
            if claims_home > 0 {
                self.trace.count("shuttle_claims_home", claims_home);
            }
            if claims_stolen > 0 {
                self.trace.count("shuttle_claims_stolen", claims_stolen);
            }
            self.trace
                .count("domain_frames_egress", io.emitted.len() as u64);
        }
        io
    }
}

/// One shard worker's round: claim ready nodes (own ring first, then
/// steal), run each claimed burst through the node, and shuttle its
/// fabric-bound egress over the overlay links to the peers' queues,
/// until no frame is in flight.
fn drain(sh: &Shuttle, shard: usize) {
    let fabric = &sh.fabric;
    let flight = sh.flight.as_deref();
    let ghost = sh.ghost;
    let pool = &sh.pool;
    let work_ready = &sh.work_ready;
    let in_flight = &sh.in_flight;
    let _abort_guard = AbortGuard(&sh.aborted);
    let mut out = WorkerOut {
        shard,
        ..WorkerOut::default()
    };
    loop {
        // Claim a ready node — own ring first, steal
        // otherwise; any worker may drive any node. Idle
        // workers park on the condvar instead of spinning
        // on the pool lock; the short timeout is a safety
        // net against a missed wakeup, not a poll interval.
        let job = {
            let mut pool = pool.lock().expect("shuttle pool poisoned");
            'claim: loop {
                if let Some(claim) = pool.claim(shard) {
                    break 'claim Some(claim);
                }
                if in_flight.load(Ordering::Acquire) == 0 || sh.aborted.load(Ordering::Acquire) {
                    break 'claim None;
                }
                pool = work_ready
                    .wait_timeout(pool, std::time::Duration::from_millis(1))
                    .expect("shuttle pool poisoned")
                    .0;
            }
        };
        let Some((name, mut managed, ttl_left, burst, stolen)) = job else {
            break;
        };
        if stolen {
            out.claims_stolen += 1;
        } else {
            out.claims_home += 1;
        }
        let consumed = burst.len();
        let node_io = managed.node.inject_batch_flight(burst, flight);
        out.cost += node_io.cost;
        // Hand the node back before shuttling so another worker
        // can claim it for frames already heading its way.
        {
            let mut pool = pool.lock().expect("shuttle pool poisoned");
            pool.cells
                .get_mut(name.as_str())
                .expect("cell exists")
                .managed = Some(managed);
            pool.mark_ready(name.as_str());
        }
        work_ready.notify_all();
        // Split node egress: real egress vs fabric-bound,
        // bucketed by VLAN link identity.
        let mut fabric_bursts: BTreeMap<u16, Vec<Packet>> = BTreeMap::new();
        for (port, pkt) in node_io.emitted {
            if port.as_str() != fabric.as_str() {
                out.emitted.push((name.clone(), port, pkt));
                continue;
            }
            match pkt.vlan_id() {
                Some(vid) => fabric_bursts.entry(vid).or_default().push(pkt),
                None => {
                    record_drop(
                        &mut out.counters,
                        flight,
                        name.as_str(),
                        DropReason::OverlayUntagged,
                        1,
                        format_args!(""),
                    );
                }
            }
        }
        for (vid, frames) in fabric_bursts {
            let n = frames.len() as u64;
            let Some(link_mx) = sh.links.get(&vid) else {
                record_drop(
                    &mut out.counters,
                    flight,
                    name.as_str(),
                    DropReason::OverlayUnroutable,
                    n,
                    format_args!("no overlay link for vid {vid}"),
                );
                continue;
            };
            let mut survivors: Vec<Packet> = Vec::with_capacity(frames.len());
            let peer: String;
            {
                let mut state = link_mx.lock().expect("link lock poisoned");
                // Advance along the pinned path: the emitting
                // node's successor is the next hop. On a
                // two-node path a frame emitted by the tail
                // walks back to the head (the old peer
                // semantics, defensive — links deliver at the
                // tail, they don't send from it); on a longer
                // path a tail emission has no forward hop and
                // would ping-pong against the last transit
                // node, so it drops as foreign instead.
                let pos = state.path.iter().position(|p| p == name.as_str());
                let (next_idx, hop_idx) = match pos {
                    Some(i) if i + 1 < state.path.len() => (i + 1, i),
                    Some(1) if state.path.len() == 2 => (0, 0),
                    _ => {
                        record_drop(
                            &mut out.counters,
                            flight,
                            name.as_str(),
                            DropReason::OverlayForeign,
                            n,
                            format_args!("not on the pinned path of vid {vid}"),
                        );
                        continue;
                    }
                };
                peer = state.path[next_idx].clone();
                let hop_ns = state
                    .hop_latency_ns
                    .get(hop_idx)
                    .copied()
                    .unwrap_or_default();
                let esp_on = state.sas.is_some();
                // Ghost walks exercise the real ESP path on
                // **cloned** SAs: seal/verify mutate sequence
                // numbers and replay windows, and a probe must
                // not advance the live wire's state.
                let mut ghost_sas = if ghost { state.sas.clone() } else { None };
                for pkt in frames {
                    let len = pkt.len();
                    // Wire counters count logical frames at
                    // every hop of the pinned path: a frame
                    // riding an n-hop wire adds n to `packets`
                    // and one to each `hop_packets[i]` it is
                    // presented to.
                    if !ghost {
                        state.packets += 1;
                        state.bytes += len as u64;
                        if let Some(hp) = state.hop_packets.get_mut(hop_idx) {
                            *hp += 1;
                        }
                        if let Some(hb) = state.hop_bytes.get_mut(hop_idx) {
                            *hb += len as u64;
                        }
                    }
                    out.overlay_hops += 1;
                    out.cost += Cost::from_nanos(hop_ns);
                    let sas = if ghost {
                        ghost_sas.as_deref_mut()
                    } else {
                        state.sas.as_deref_mut()
                    };
                    if let Some(sas) = sas {
                        // Protect the wire: real ESP seal on
                        // egress, real verify+open on ingress. A
                        // frame that fails to verify never
                        // reaches the peer.
                        let (sa_out, sa_in) = sas;
                        let per_dir = sh.esp_fixed_ns as f64 + sh.esp_ns_per_byte * len as f64;
                        out.cost += Cost::from_nanos((2.0 * per_dir) as u64);
                        let sealed = match esp::encapsulate(sa_out, pkt.data()) {
                            Ok(s) => s,
                            Err(_) => {
                                record_drop(
                                    &mut out.counters,
                                    flight,
                                    name.as_str(),
                                    DropReason::OverlayEspSealFail,
                                    1,
                                    format_args!("vid {vid}"),
                                );
                                continue;
                            }
                        };
                        match esp::decapsulate(sa_in, &sealed) {
                            Ok(inner) if inner == pkt.data() => {
                                out.protected_bytes += len as u64;
                            }
                            _ => {
                                record_drop(
                                    &mut out.counters,
                                    flight,
                                    name.as_str(),
                                    DropReason::OverlayEspVerifyFail,
                                    1,
                                    format_args!("vid {vid}"),
                                );
                                continue;
                            }
                        }
                    }
                    if !ghost {
                        out.counters.count("overlay_frames", 1);
                    }
                    if let Some(f) = flight {
                        f.hop(
                            name.as_str(),
                            HopKind::OverlayHop {
                                vid,
                                from: name.to_string(),
                                to: peer.clone(),
                                hop: hop_idx,
                                esp: esp_on,
                                ttl_left,
                            },
                        );
                    }
                    survivors.push(pkt);
                }
            }
            if survivors.is_empty() {
                continue;
            }
            let k = survivors.len();
            // ttl_left counts remaining crossings: a frame
            // seeded with overlay_ttl may cross exactly that
            // many times.
            if ttl_left == 0 {
                record_drop(
                    &mut out.counters,
                    flight,
                    name.as_str(),
                    DropReason::OverlayLoop,
                    k as u64,
                    format_args!("overlay TTL expired on vid {vid}"),
                );
                continue;
            }
            if sh.crossings.fetch_add(k as u64, Ordering::AcqRel) >= sh.crossing_cap {
                record_drop(
                    &mut out.counters,
                    flight,
                    name.as_str(),
                    DropReason::OverlayWorkExhausted,
                    k as u64,
                    format_args!(""),
                );
                continue;
            }
            let mut pool = pool.lock().expect("shuttle pool poisoned");
            let cell = match pool.cell(peer.as_str(), fabric) {
                Ok(cell) => cell,
                Err(reason) => {
                    record_drop(
                        &mut out.counters,
                        flight,
                        peer.as_str(),
                        reason,
                        k as u64,
                        format_args!(""),
                    );
                    continue;
                }
            };
            let Some(fid) = cell.fabric_id else {
                record_drop(
                    &mut out.counters,
                    flight,
                    peer.as_str(),
                    DropReason::OverlayUnroutable,
                    k as u64,
                    format_args!("peer has no fabric port"),
                );
                continue;
            };
            in_flight.fetch_add(k, Ordering::Release);
            cell.pending
                .entry(Reverse(ttl_left - 1))
                .or_default()
                .extend(survivors.into_iter().map(|p| (fid, p)));
            cell.queued += k;
            pool.mark_ready(peer.as_str());
            drop(pool);
            work_ready.notify_all();
        }
        in_flight.fetch_sub(consumed, Ordering::Release);
        work_ready.notify_all();
    }
    sh.outs.lock().expect("shuttle outs poisoned").push(out);
}
