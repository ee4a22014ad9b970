//! The untraced run: each workload driven closed-loop for the measured
//! window, plus the correctness checks every run makes.
//!
//! One caller thread waits for each `Domain` call to return before it
//! makes the next; the data plane itself may shard a burst over
//! `workers` threads. Inputs are drawn before a call's clock starts.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use un_core::Name;
use un_domain::Domain;
use un_packet::Packet;

use crate::fleet::{self, node_name, Built, FLEET};
use crate::gen::{self, FlowSpec, Rng, Zipf};
use crate::spans::{SpanId, Tracer};
use crate::stats::median;
use crate::Shape;

/// Unrecorded warm-up before the measured window.
const WARMUP: Duration = Duration::from_millis(1000);
/// During the measured window, one control cycle runs this often: a
/// fresh set-up on a fleet of its own (never the measured one), then,
/// on the traffic workloads, rules-only updates each followed by a
/// verify. Spread over the whole window, these short calls see the
/// same host as the traffic they sit beside.
const CONTROL_EVERY: Duration = Duration::from_millis(50);
/// Rules-only updates (each followed by a verify) per control cycle of
/// the traffic workloads.
const UPDATES_PER_SETUP: usize = 4;
/// After a control cycle, calls go unrecorded until at least one has
/// run and this much time has passed, so no recorded call starts on
/// caches the control cycle has just evicted.
const SETTLE: Duration = Duration::from_millis(2);
/// Frames of the `overlay_esp` prefix compared with the reference.
const OVERLAY_PREFIX: usize = 256;
/// Latency samples reserved up front, so the sample buffer grows
/// without reallocating and `peak_rss_mb` sees it only as it fills.
const SAMPLE_CAPACITY: usize = 1 << 21;
/// Reference-kernel timings made when a measured run starts.
const REF_WARM: usize = 5;
/// The latest reference-kernel timings whose median is the host's
/// current speed.
const REF_WINDOW: usize = 3;
/// Kernel time, µs, of the reference host that timings are scaled to.
pub const REF_NOMINAL_US: f64 = 800.0;
/// Dependent multiply-rotate steps in the kernel's arithmetic half.
const REF_ALU_STEPS: u64 = 200_000;
/// Churn graphs deployed during set-up; each round adds one and
/// retires the oldest, so three to four stay live.
pub const CHURN_INITIAL: u64 = 3;

/// One egress frame: (node, port, bytes).
pub type Egress = (String, String, Vec<u8>);

/// Sorted egress multiset of a `Domain` call.
pub fn multiset(emitted: &[(Name, Name, Packet)]) -> Vec<Egress> {
    let mut v: Vec<Egress> = emitted
        .iter()
        .map(|(n, p, pkt)| {
            (
                n.as_str().to_string(),
                p.as_str().to_string(),
                pkt.data().to_vec(),
            )
        })
        .collect();
    v.sort();
    v
}

/// Timing samples, each also scaled to the reference host speed that
/// held when it was taken.
#[derive(Debug, Default)]
pub struct Series {
    /// Wall times as measured.
    pub raw: Vec<f64>,
    /// Each time multiplied by the [`HostRef`] scale when it was taken.
    pub scaled: Vec<f64>,
}

impl Series {
    fn with_capacity(n: usize) -> Series {
        Series {
            raw: Vec::with_capacity(n),
            scaled: Vec::with_capacity(n),
        }
    }

    fn push(&mut self, raw: f64, scale: f64) {
        self.raw.push(raw);
        self.scaled.push(raw * scale);
    }

    /// Whether no sample was taken.
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }
}

/// One reference kernel: a memory half (random reads and writes over
/// `buf`) and an arithmetic half (a chain of dependent multiply-rotate
/// steps). It uses no code of the benchmarked crates, so a change to
/// them cannot move it.
fn kernel(buf: &mut [u64]) -> u64 {
    let mask = buf.len() - 1;
    let mut acc = 0u64;
    for pass in 0..4u64 {
        for i in 0..buf.len() {
            let j = (buf[i].wrapping_mul(0x9E37_79B1).wrapping_add(pass) as usize) & mask;
            acc = acc.wrapping_add(buf[j]);
            buf[i] = buf[i].wrapping_add(acc & 7);
        }
    }
    let mut x = acc;
    for i in 0..REF_ALU_STEPS {
        x = (x.rotate_left(13) ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (x >> 7);
    }
    x
}

/// The host's current speed, from [`kernel`] timed on the measuring
/// thread once per control cycle, where the settle period after it
/// absorbs the kernel's cache footprint. Wall times are scaled by
/// [`REF_NOMINAL_US`] over the median of the latest [`REF_WINDOW`]
/// kernel times.
#[derive(Debug)]
pub struct HostRef {
    buf: Vec<u64>,
    recent: VecDeque<f64>,
    scale: f64,
    /// Every kernel time of the run, µs.
    pub times: Vec<f64>,
}

impl Default for HostRef {
    /// A reference that has not timed the kernel yet (scale 1).
    fn default() -> HostRef {
        HostRef {
            buf: Vec::new(),
            recent: VecDeque::new(),
            scale: 1.0,
            times: Vec::new(),
        }
    }
}

impl HostRef {
    /// A reference warmed by [`REF_WARM`] kernel timings.
    fn warmed() -> HostRef {
        let mut h = HostRef {
            buf: (0..1 << 15).collect(),
            ..HostRef::default()
        };
        for _ in 0..REF_WARM {
            h.tick();
        }
        h
    }

    /// Time the kernel once and update the scale.
    fn tick(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let t = Instant::now();
        std::hint::black_box(kernel(&mut self.buf));
        let us = t.elapsed().as_secs_f64() * 1e6;
        self.times.push(us);
        self.recent.push_back(us);
        if self.recent.len() > REF_WINDOW {
            self.recent.pop_front();
        }
        let recent: Vec<f64> = self.recent.iter().copied().collect();
        self.scale = REF_NOMINAL_US / median(&recent);
    }

    /// Factor from a wall time taken now to the reference host's.
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

/// Everything one untraced run measured and checked.
#[derive(Debug, Default)]
pub struct Run {
    /// Frames offered in the measured window.
    pub offered: u64,
    /// Frames delivered at an egress port in the measured window.
    pub delivered: u64,
    /// Frames lost anywhere in the run (warm-up and prefix included).
    pub lost: u64,
    /// Frames offered anywhere in the run.
    pub offered_total: u64,
    /// Wall time of each measured inject call, µs.
    pub inject_us: Series,
    /// Wall time of every `deploy_with` the run made, µs.
    pub deploy_us: Series,
    /// Wall time of every rules-only `update`, µs.
    pub update_us: Series,
    /// Wall time of every `verify` after a rules-only update, µs.
    pub verify_us: Series,
    /// Wall time of every `fail_node`, µs.
    pub repair_us: Series,
    /// Wall time of each set-up, s.
    pub setup_s: Series,
    /// The host speed the samples are scaled by.
    pub host: HostRef,
    /// Control-plane ops attempted / failed (an op fails when it
    /// returns `Err`, strands a graph, or is followed by an unclean
    /// verify).
    pub ops: u64,
    /// See `ops`.
    pub ops_failed: u64,
    /// Named correctness checks and whether each held.
    pub checks: Vec<(&'static str, bool)>,
    /// Measured churn rounds.
    pub rounds: u64,
    /// Set in the traced run: every timed op is also recorded as a
    /// span under `parent`.
    pub tracer: Option<Tracer>,
    /// Parent of the spans `timed` records (the current round).
    pub parent: Option<SpanId>,
}

/// A timed `Domain` call of the churn round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `inject_batch` / `inject`.
    Inject,
    /// `deploy_with`.
    Deploy,
    /// Rules-only `update`.
    Update,
    /// `verify` after a rules-only update (recorded).
    Verify,
    /// `verify` after any other op (checked, not recorded).
    Recheck,
    /// `suspect_node`.
    Suspect,
    /// `fail_node` (the repair).
    Repair,
    /// `recover_node`.
    Recover,
    /// `undeploy`.
    Undeploy,
}

impl Op {
    /// Span name of the op.
    pub fn span_name(self) -> &'static str {
        match self {
            Op::Inject => "churn.inject_batch",
            Op::Deploy => "domain.deploy",
            Op::Update => "domain.update",
            Op::Verify | Op::Recheck => "verify.incremental",
            Op::Suspect => "domain.suspect_node",
            Op::Repair => "domain.fail_node",
            Op::Recover => "domain.recover_node",
            Op::Undeploy => "domain.undeploy",
        }
    }
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

impl Run {
    /// A run whose inject samples have [`SAMPLE_CAPACITY`] reserved,
    /// with a warmed host reference.
    fn measured() -> Run {
        Run {
            inject_us: Series::with_capacity(SAMPLE_CAPACITY),
            host: HostRef::warmed(),
            ..Run::default()
        }
    }

    fn op(&mut self, ok: bool) {
        self.ops += 1;
        if !ok {
            self.ops_failed += 1;
        }
    }

    fn check(&mut self, name: &'static str, ok: bool) {
        self.checks.push((name, ok));
    }

    fn series(&mut self, op: Op) -> Option<&mut Series> {
        match op {
            Op::Inject => Some(&mut self.inject_us),
            Op::Deploy => Some(&mut self.deploy_us),
            Op::Update => Some(&mut self.update_us),
            Op::Verify => Some(&mut self.verify_us),
            Op::Repair => Some(&mut self.repair_us),
            Op::Recheck | Op::Suspect | Op::Recover | Op::Undeploy => None,
        }
    }

    /// Time one call, file its wall time under `op` and, when tracing,
    /// record it as a span of the current round.
    fn timed<T>(&mut self, op: Op, items: u64, f: impl FnOnce() -> T) -> (Option<SpanId>, T) {
        let (span, dt_us, out) = match &mut self.tracer {
            None => {
                let t = Instant::now();
                let out = f();
                (None, us(t), out)
            }
            Some(tr) => {
                let (id, out) = tr.span(
                    op.span_name(),
                    self.parent,
                    self.parent.unwrap_or(0) as u64,
                    items,
                    f,
                );
                (Some(id), tr.spans()[id].dur_ns() as f64 / 1e3, out)
            }
        };
        let scale = self.host.scale();
        if let Some(series) = self.series(op) {
            series.push(dt_us, scale);
        }
        (span, out)
    }

    /// Verify after control op `after`; an unclean report fails the op.
    /// Only verifies after a rules-only update go into `verify_us`: the
    /// verifies after different ops cost different amounts, and a
    /// median over all of them falls in the gap between two of those
    /// clusters, where it jumps from run to run.
    fn verify(&mut self, d: &Domain, after: Op) {
        let op = if after == Op::Update {
            Op::Verify
        } else {
            Op::Recheck
        };
        let (_, report) = self.timed(op, 1, || d.verify());
        self.op(report.ok());
    }

    fn account(&mut self, offered: usize, delivered: usize, measured: bool) {
        self.offered_total += offered as u64;
        self.lost += offered.saturating_sub(delivered) as u64;
        if measured {
            self.offered += offered as u64;
            self.delivered += delivered as u64;
        }
    }

    /// Time one set-up.
    fn setup(&mut self, build: impl FnOnce() -> Built, record_deploys: bool) -> Built {
        let t = Instant::now();
        let b = build();
        let scale = self.host.scale();
        self.setup_s.push(t.elapsed().as_secs_f64(), scale);
        if record_deploys {
            for &us in &b.deploy_us {
                self.deploy_us.push(us, scale);
            }
        }
        b
    }

    /// One control cycle: a fresh set-up, then `updates` rules-only
    /// updates, each followed by a verify, then one host-reference
    /// timing. Churn records its deploys in its rounds instead.
    fn control_cycle(
        &mut self,
        build: impl FnOnce() -> Built,
        updates: usize,
        record_deploys: bool,
    ) {
        let Built {
            domain: mut d,
            mut graphs,
            ..
        } = self.setup(build, record_deploys);
        for i in 0..updates {
            let n = graphs.len();
            let g = &mut graphs[i % n];
            *g = fleet::toggled(g);
            let (_, r) = self.timed(Op::Update, 1, || d.update(g));
            self.op(r.is_ok());
            self.verify(&d, Op::Update);
        }
        self.host.tick();
    }

    /// Fold in the failures of calls made outside the measured window.
    fn absorb_unmeasured(&mut self, other: &Run) {
        self.ops += other.ops;
        self.ops_failed += other.ops_failed;
        self.lost += other.lost;
        self.offered_total += other.offered_total;
    }

    fn conservation(&mut self, d: &Domain) {
        self.check("conservation_balanced", d.conservation_report().balanced());
    }
}

/// What [`drive`] asks of a workload's step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// One unrecorded call (warm-up).
    Warm,
    /// One recorded call.
    Measure,
    /// One control cycle.
    Control,
}

/// Closed-loop runner: warm up, then make recorded calls for
/// `seconds`, with a control cycle every [`CONTROL_EVERY`], each
/// followed by unrecorded calls for [`SETTLE`]. Returns the recorded
/// calls.
fn drive(seconds: f64, mut step: impl FnMut(Step)) -> u64 {
    let t = Instant::now();
    while t.elapsed() < WARMUP {
        step(Step::Warm);
    }
    let t = Instant::now();
    let window = Duration::from_secs_f64(seconds);
    let mut next_control = t;
    let mut calls = 0;
    while t.elapsed() < window {
        step(Step::Measure);
        calls += 1;
        if Instant::now() >= next_control {
            step(Step::Control);
            let settle = Instant::now();
            step(Step::Warm);
            while settle.elapsed() < SETTLE {
                step(Step::Warm);
            }
            next_control = Instant::now() + CONTROL_EVERY;
        }
    }
    calls
}

/// Seeded `local_chain` traffic: per-node Zipf-popular flows over a
/// population twice the microflow cache, in fixed-size bursts.
pub struct LocalTraffic {
    templates: Vec<Vec<Packet>>,
    zipf: Zipf,
    rng: Rng,
    names: Vec<String>,
    burst: usize,
}

impl LocalTraffic {
    /// Traffic for `seed` shaped by `shape`.
    pub fn new(seed: u64, shape: &Shape) -> LocalTraffic {
        LocalTraffic {
            templates: (0..FLEET)
                .map(|n| {
                    (0..shape.flows)
                        .map(|r| FlowSpec::new(n as u8, r, shape.payload, None).frame())
                        .collect()
                })
                .collect(),
            zipf: Zipf::new(shape.flows, 1.0),
            rng: Rng::new(seed, 1),
            names: (0..FLEET).map(node_name).collect(),
            burst: shape.burst,
        }
    }

    /// The next burst: `(node, frame)` pairs.
    pub fn next_burst(&mut self) -> Vec<(usize, Packet)> {
        (0..self.burst)
            .map(|_| {
                let n = self.rng.below(FLEET as u64) as usize;
                let r = self.zipf.sample(&mut self.rng);
                (n, self.templates[n][r].clone())
            })
            .collect()
    }

    /// Name of node `n`.
    pub fn name(&self, n: usize) -> &str {
        &self.names[n]
    }
}

/// Egress of `burst` injected one frame per call on a fresh
/// `local_chain` fleet: the workers=1 sequential reference.
fn local_reference(traffic: &LocalTraffic, burst: &[(usize, Packet)]) -> Vec<Egress> {
    let mut d = fleet::local_chain(false).deploy().domain;
    let mut out = Vec::new();
    for (n, pkt) in burst {
        out.extend(multiset(
            &d.inject(traffic.name(*n), "eth0", pkt.clone()).emitted,
        ));
    }
    out.sort();
    out
}

/// `local_chain`, untraced.
pub fn local_chain(seed: u64, seconds: f64, shape: &Shape) -> Run {
    let mut run = Run::measured();
    let build = || fleet::local_chain(shape.observability).deploy();
    let mut d = run.setup(build, true).domain;
    run.verify(&d, Op::Deploy);
    let mut traffic = LocalTraffic::new(seed, shape);

    let first = traffic.next_burst();
    let reference = local_reference(&traffic, &first);
    let ingress: Vec<_> = first
        .into_iter()
        .map(|(n, p)| (traffic.name(n), "eth0", p))
        .collect();
    let io = d.inject_batch(ingress, shape.workers);
    run.account(shape.burst, io.emitted.len(), false);
    run.check(
        "prefix_equals_sequential_reference",
        multiset(&io.emitted) == reference,
    );

    drive(seconds, |step| {
        if step == Step::Control {
            return run.control_cycle(build, UPDATES_PER_SETUP, true);
        }
        let burst = traffic.next_burst();
        let ingress: Vec<_> = burst
            .into_iter()
            .map(|(n, p)| (traffic.names[n].as_str(), "eth0", p))
            .collect();
        let t = Instant::now();
        let io = d.inject_batch(ingress, shape.workers);
        let dt = us(t);
        let record = step == Step::Measure;
        if record {
            run.inject_us.push(dt, run.host.scale());
        }
        run.account(shape.burst, io.emitted.len(), record);
    });
    run.conservation(&d);
    run
}

/// `overlay_esp` frames: a few cache-resident flows, drawn uniformly.
pub fn overlay_frames(seed: u64, shape: &Shape) -> impl FnMut() -> Packet {
    let templates: Vec<Packet> = (0..shape.flows)
        .map(|r| FlowSpec::new(1, r, shape.payload, None).frame())
        .collect();
    let mut rng = Rng::new(seed, 2);
    move || templates[rng.below(templates.len() as u64) as usize].clone()
}

/// `overlay_esp`, untraced.
pub fn overlay_esp(seed: u64, seconds: f64, shape: &Shape) -> Run {
    let mut run = Run::measured();
    let build = || fleet::overlay_esp().deploy();
    let mut d = run.setup(build, true).domain;
    run.verify(&d, Op::Deploy);
    let mut next = overlay_frames(seed, shape);

    let prefix: Vec<Packet> = (0..OVERLAY_PREFIX).map(|_| next()).collect();
    let mut reference_fleet = fleet::overlay_esp().deploy().domain;
    let mut reference = Vec::new();
    let mut got = Vec::new();
    for pkt in prefix {
        reference.extend(multiset(
            &reference_fleet.inject("n1", "eth0", pkt.clone()).emitted,
        ));
        let io = d.inject("n1", "eth0", pkt);
        run.account(1, io.emitted.len(), false);
        got.extend(multiset(&io.emitted));
    }
    reference.sort();
    got.sort();
    run.check("prefix_equals_sequential_reference", got == reference);

    drive(seconds, |step| {
        if step == Step::Control {
            return run.control_cycle(build, UPDATES_PER_SETUP, true);
        }
        let pkt = next();
        let t = Instant::now();
        let io = d.inject("n1", "eth0", pkt);
        let dt = us(t);
        let record = step == Step::Measure;
        if record {
            run.inject_us.push(dt, run.host.scale());
        }
        run.account(1, io.emitted.len(), record);
    });
    run.conservation(&d);
    run
}

/// How a churn round injects its bursts.
#[derive(Debug, Clone, Copy)]
pub enum Inject {
    /// One `inject_batch` call per graph burst.
    Burst(usize),
    /// One `inject` call per frame (the sequential reference).
    PerFrame,
}

/// State carried across churn rounds.
pub struct Churn {
    seed: u64,
    next_k: u64,
    live: VecDeque<u64>,
    burst: usize,
    flows: usize,
    payload: usize,
    /// NFs moved and whether the standby plan was promoted, per repair.
    pub repairs: Vec<(usize, bool)>,
}

impl Churn {
    /// Fresh churn state for `seed`.
    pub fn new(seed: u64, shape: &Shape) -> Churn {
        Churn {
            seed,
            next_k: 0,
            live: VecDeque::new(),
            burst: shape.burst,
            flows: shape.flows,
            payload: shape.payload,
            repairs: Vec::new(),
        }
    }

    fn plan(&self, k: u64) -> (un_nffg::NfFg, un_domain::DeployHints, gen::ChurnRound) {
        let r = gen::churn_round(self.seed, k, FLEET);
        let (g, h) = fleet::churn_graph(k, &node_name(r.head), &node_name(r.tail));
        (g, h, r)
    }

    /// Set-up: an empty fleet plus the initial graphs.
    pub fn setup(&mut self) -> fleet::Plan {
        let mut deploys = Vec::new();
        for _ in 0..CHURN_INITIAL {
            let k = self.next_k;
            self.next_k += 1;
            let (g, h, _) = self.plan(k);
            self.live.push_back(k);
            deploys.push((g, h));
        }
        fleet::Plan {
            domain: fleet::fleet(un_domain::DomainConfig::default()),
            deploys,
        }
    }

    /// One burst per live graph: its current ingress node and frames
    /// (`None` when a graph has no ingress left).
    pub fn live_bursts(
        &self,
        d: &Domain,
        flow_seed: u64,
        phase: u64,
    ) -> Vec<Option<(String, Vec<Packet>)>> {
        self.live
            .iter()
            .enumerate()
            .map(|(i, &k)| {
                let (id, vid) = fleet::churn_ids(k);
                let at = fleet::ingress_node(d, &id)?;
                let mut rng = Rng::new(flow_seed, phase * 64 + i as u64);
                let frames = (0..self.burst)
                    .map(|_| {
                        let rank = rng.below(self.flows as u64) as usize;
                        FlowSpec::new((k % 250) as u8, rank, self.payload, Some(vid)).frame()
                    })
                    .collect();
                Some((at, frames))
            })
            .collect()
    }

    /// A 256-frame burst through every live graph, all in one
    /// `inject_batch` call: one call per phase keeps each sample the
    /// same mix of split, transit-free and repaired graphs, so the
    /// median does not jump between graph shapes.
    #[allow(clippy::too_many_arguments)]
    fn inject_all(
        &self,
        d: &mut Domain,
        flow_seed: u64,
        phase: u64,
        inject: Inject,
        run: &mut Run,
        egress: &mut Vec<Vec<Egress>>,
        collect: bool,
    ) {
        let mut ingress: Vec<(String, Packet)> = Vec::new();
        for burst in self.live_bursts(d, flow_seed, phase) {
            match burst {
                Some((at, frames)) => ingress.extend(frames.into_iter().map(|p| (at.clone(), p))),
                None => run.op(false),
            }
        }
        let n = ingress.len();
        let got = match inject {
            Inject::Burst(workers) => {
                let batch: Vec<_> = ingress.into_iter().map(|(at, p)| (at, "eth0", p)).collect();
                let (_, io) = run.timed(Op::Inject, n as u64, || d.inject_batch(batch, workers));
                run.account(n, io.emitted.len(), true);
                multiset(&io.emitted)
            }
            Inject::PerFrame => {
                let mut got = Vec::new();
                for (at, p) in ingress {
                    let io = d.inject(&at, "eth0", p);
                    run.account(1, io.emitted.len(), true);
                    got.extend(multiset(&io.emitted));
                }
                got.sort();
                got
            }
        };
        if collect {
            egress.push(got);
        }
    }

    /// One round: deploy, inject, update, suspect → fail, inject,
    /// recover, retire the oldest graph; verify after every op.
    /// With `collect`, every burst's egress multiset is appended to
    /// `egress`.
    pub fn round(
        &mut self,
        d: &mut Domain,
        inject: Inject,
        run: &mut Run,
        egress: &mut Vec<Vec<Egress>>,
        collect: bool,
    ) {
        let k = self.next_k;
        self.next_k += 1;
        let (g, h, plan) = self.plan(k);

        let views = run.tracer.is_some().then(|| d.views());
        let (span, r) = run.timed(Op::Deploy, 1, || d.deploy_with(&g, &h));
        if let (Some(tr), Some(span), Some(views)) = (run.tracer.as_mut(), span, views) {
            crate::layers::replay_placement(tr, span, d, &g, &h, &views);
        }
        run.op(r.is_ok());
        if r.is_ok() {
            self.live.push_back(k);
        }
        run.verify(d, Op::Deploy);
        self.inject_all(d, plan.flow_seed, 0, inject, run, egress, collect);

        let (_, r) = run.timed(Op::Update, 1, || d.update(&fleet::toggled(&g)));
        run.op(r.is_ok());
        run.verify(d, Op::Update);

        let mut hosts: Vec<String> = self
            .live
            .iter()
            .filter_map(|&k| d.partition_of(&fleet::churn_ids(k).0))
            .flat_map(|p| p.parts.keys().cloned())
            .collect();
        hosts.sort();
        hosts.dedup();
        let host = hosts[(plan.fail_pick % hosts.len() as u64) as usize].clone();
        let (_, r) = run.timed(Op::Suspect, 1, || d.suspect_node(&host));
        run.op(r.is_ok());
        run.verify(d, Op::Suspect);
        let (_, r) = run.timed(Op::Repair, 1, || d.fail_node(&host));
        match r {
            Ok(report) => {
                run.op(report.stranded.is_empty());
                self.repairs.extend(
                    report
                        .repairs
                        .iter()
                        .map(|o| (o.nfs_moved, o.standby_promoted)),
                );
            }
            Err(_) => run.op(false),
        }
        run.verify(d, Op::Repair);
        self.inject_all(d, plan.flow_seed, 1, inject, run, egress, collect);
        let (_, r) = run.timed(Op::Recover, 1, || d.recover_node(&host));
        run.op(r.is_ok());
        run.verify(d, Op::Recover);

        while self.live.len() > CHURN_INITIAL as usize {
            let old = self.live.pop_front().expect("non-empty");
            let (_, r) = run.timed(Op::Undeploy, 1, || d.undeploy(&fleet::churn_ids(old).0));
            run.op(r.is_ok());
            run.verify(d, Op::Undeploy);
        }
    }
}

/// `control_churn`, untraced.
pub fn control_churn(seed: u64, seconds: f64, shape: &Shape) -> Run {
    let mut run = Run::measured();
    let mut churn = Churn::new(seed, shape);
    let mut d = run.setup(|| churn.setup().deploy(), true).domain;
    run.verify(&d, Op::Deploy);

    // First round against the sequential reference on a twin fleet.
    let mut twin = Churn::new(seed, shape);
    let mut twin_d = twin.setup().deploy().domain;
    let mut reference_run = Run::default();
    let mut reference = Vec::new();
    twin.round(
        &mut twin_d,
        Inject::PerFrame,
        &mut reference_run,
        &mut reference,
        true,
    );
    let mut got = Vec::new();
    let mut first = Run::default();
    churn.round(
        &mut d,
        Inject::Burst(shape.workers),
        &mut first,
        &mut got,
        true,
    );
    run.check(
        "prefix_equals_sequential_reference",
        got == reference && reference_run.ops_failed == 0,
    );
    run.absorb_unmeasured(&first);

    let mut sink = Vec::new();
    let fresh_setup = || Churn::new(seed, shape).setup().deploy();
    run.rounds = drive(seconds, |step| match step {
        Step::Control => run.control_cycle(fresh_setup, 0, false),
        Step::Measure => churn.round(
            &mut d,
            Inject::Burst(shape.workers),
            &mut run,
            &mut sink,
            false,
        ),
        Step::Warm => {
            let mut warm = Run::default();
            churn.round(
                &mut d,
                Inject::Burst(shape.workers),
                &mut warm,
                &mut sink,
                false,
            );
            run.absorb_unmeasured(&warm);
        }
    });
    run.conservation(&d);
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_scaled_by_the_host_speed_when_taken() {
        assert_eq!(HostRef::default().scale(), 1.0);
        let host = HostRef::warmed();
        assert_eq!(host.times.len(), REF_WARM);
        let mut last = host.times[REF_WARM - REF_WINDOW..].to_vec();
        last.sort_by(f64::total_cmp);
        assert!((host.scale() - REF_NOMINAL_US / last[1]).abs() < 1e-9);
        let mut s = Series::default();
        s.push(10.0, 2.0);
        s.push(30.0, 0.5);
        assert_eq!(s.raw, vec![10.0, 30.0]);
        assert_eq!(s.scaled, vec![20.0, 15.0]);
    }
}
