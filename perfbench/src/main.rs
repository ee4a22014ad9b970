//! The repository benchmark.
//!
//! ```sh
//! python3 perfbench/run.py --workload local_chain --seed 1 --seconds 12 --trace 0
//! ```
//!
//! `--trace 0` drives one workload closed-loop for `--seconds` and
//! prints every end-to-end metric; `--trace 1` replays the same
//! workload layer by layer and prints the per-layer metrics. The last
//! stdout line is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. See `perfbench/README.md` for the workloads and metrics.

mod e2e;
mod fleet;
mod gen;
mod layers;
mod spans;
mod stats;

use std::process::ExitCode;

use un_nffg::Json;

use crate::stats::Summary;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Eight nodes, mixed-flavor chain per node, 64-B bursts.
    LocalChain,
    /// Line fabric, split chain, ESP + observability, 1400-B per frame.
    OverlayEsp,
    /// Deploy / update / fail / recover / undeploy rounds with traffic.
    ControlChurn,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "local_chain" => Some(Workload::LocalChain),
            "overlay_esp" => Some(Workload::OverlayEsp),
            "control_churn" => Some(Workload::ControlChurn),
            _ => None,
        }
    }

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LocalChain => "local_chain",
            Workload::OverlayEsp => "overlay_esp",
            Workload::ControlChurn => "control_churn",
        }
    }

    /// The workload's fixed shape on a host with `cpus` CPUs.
    pub fn shape(self, cpus: usize) -> Shape {
        match self {
            Workload::LocalChain => Shape {
                mode: "burst",
                // With one worker per CPU, every call also waits on the
                // other CPU, and on this shared host the tail of those
                // calls spread past any bound from run to run; the
                // traced run still measures workers = nproc against 1.
                workers: 1,
                burst: 2048,
                payload: 64,
                flows: 2 * 8192,
                observability: false,
                cpus,
            },
            Workload::OverlayEsp => Shape {
                mode: "per-frame",
                workers: 1,
                burst: 1,
                payload: 1400,
                flows: 4,
                observability: true,
                cpus,
            },
            Workload::ControlChurn => Shape {
                mode: "burst",
                // 256-frame bursts gain nothing from a second worker on
                // a 2-cpu host; one worker keeps the rounds steadier.
                workers: 1,
                burst: 256,
                payload: 64,
                flows: 64,
                observability: false,
                cpus,
            },
        }
    }
}

/// Run metadata, printed with every record.
#[derive(Debug, Clone)]
pub struct Shape {
    /// `burst` (one `inject_batch` per burst) or `per-frame`.
    pub mode: &'static str,
    /// Data-plane workers per call.
    pub workers: usize,
    /// Frames per inject call.
    pub burst: usize,
    /// Inner UDP payload bytes per frame.
    pub payload: usize,
    /// Flow population (per node, per graph, or in all).
    pub flows: usize,
    /// `DomainConfig::observability`.
    pub observability: bool,
    /// CPUs the host offers.
    pub cpus: usize,
}

impl Shape {
    fn meta(&self, workload: Workload, seed: u64, seconds: f64, trace: bool) -> Json {
        Json::obj()
            .set("workload", workload.name())
            .set("seed", seed)
            .set("seconds", seconds)
            .set("trace", trace)
            .set("cpus", self.cpus)
            .set("mode", self.mode)
            .set("workers", self.workers)
            .set("burst", self.burst)
            .set("payload_bytes", self.payload)
            .set("flow_population", self.flows)
            .set("observability", self.observability)
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = get("--workload")?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
    })
}

/// Peak resident set (VmHWM) in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Metrics collected for the final line, printed as they are added.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Record and print one metric.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str, note: &str) {
        println!("metric {name:<34} {value:>14.4} {unit:<6} {note}");
        self.0.push((name, value, unit));
    }

    fn json(&self) -> Json {
        self.0.iter().fold(Json::obj(), |acc, (name, value, unit)| {
            acc.set(name, Json::obj().set("value", *value).set("unit", *unit))
        })
    }
}

/// The verdict every run ends with.
pub struct Verdict {
    /// Operations attempted (frames offered, control ops, checks).
    pub attempted: u64,
    /// Of those, failed (frames lost, failed or unclean ops, failed
    /// checks).
    pub failed: u64,
}

/// The end-to-end metrics of an untraced run. Every timing is scaled
/// to the reference host speed (see `e2e::HostRef`); each note gives
/// the raw figure beside it.
fn e2e_metrics(run: &e2e::Run, shape: &Shape, peak_rss_mb: f64, m: &mut Metrics) {
    let busy_s = run.inject_us.scaled.iter().sum::<f64>() / 1e6;
    let raw_busy_s = run.inject_us.raw.iter().sum::<f64>() / 1e6;
    let kpps = run.delivered as f64 / busy_s / 1e3;
    m.put(
        "fwd_kpps",
        kpps,
        "kpps",
        &format!(
            "delivered {} of {} offered in {busy_s:.3} s of calls at reference speed; \
             raw {} kpps",
            run.delivered,
            run.offered,
            run.delivered as f64 / raw_busy_s / 1e3
        ),
    );
    m.put(
        "goodput_mbps",
        kpps * 1e3 * (shape.payload * 8) as f64 / 1e6,
        "Mbps",
        &format!("{} B inner payload per frame", shape.payload),
    );
    let rows: [(&'static str, &'static str, &e2e::Series, f64); 7] = [
        ("inject_p50_us", "us", &run.inject_us, 50.0),
        ("inject_p99_us", "us", &run.inject_us, 99.0),
        ("deploy_p50_us", "us", &run.deploy_us, 50.0),
        ("deploy_p95_us", "us", &run.deploy_us, 95.0),
        ("update_p50_us", "us", &run.update_us, 50.0),
        ("verify_p50_us", "us", &run.verify_us, 50.0),
        ("setup_s", "s", &run.setup_s, 50.0),
    ];
    for (name, unit, series, p) in rows {
        let summary = Summary::new(&series.scaled);
        let (v, supported) = summary.at(p);
        m.put(
            name,
            v,
            unit,
            &format!(
                "n={}; p{p} has >=10 samples beyond: {supported}; {}; raw {}",
                summary.n,
                summary.describe(),
                Summary::new(&series.raw).at(p).0
            ),
        );
    }
    m.put(
        "peak_rss_mb",
        peak_rss_mb,
        "MB",
        "VmHWM when the workload ended, before summaries",
    );
}

fn run_e2e(args: &Args, shape: &Shape, m: &mut Metrics) -> Verdict {
    let run = match args.workload {
        Workload::LocalChain => e2e::local_chain(args.seed, args.seconds, shape),
        Workload::OverlayEsp => e2e::overlay_esp(args.seed, args.seconds, shape),
        Workload::ControlChurn => e2e::control_churn(args.seed, args.seconds, shape),
    };
    e2e_metrics(&run, shape, peak_rss_mb(), m);
    let loss = run.lost as f64 / run.offered_total.max(1) as f64;
    println!(
        "info loss_ratio = {loss} ({} of {} frames offered in the run)",
        run.lost, run.offered_total
    );
    if !run.repair_us.is_empty() {
        println!(
            "info repair_p50_us = {}",
            Summary::new(&run.repair_us.scaled).describe()
        );
    }
    println!(
        "info host reference kernel = {} µs (scaled to {} µs)",
        Summary::new(&run.host.times).describe(),
        e2e::REF_NOMINAL_US
    );
    if run.rounds > 0 {
        println!("info churn rounds measured = {}", run.rounds);
    }
    for (name, ok) in &run.checks {
        println!("check {name} = {ok}");
    }
    println!("info control ops = {} ({} failed)", run.ops, run.ops_failed);
    let failed_checks = run.checks.iter().filter(|(_, ok)| !ok).count() as u64;
    Verdict {
        attempted: run.offered_total + run.ops + run.checks.len() as u64,
        failed: run.lost + run.ops_failed + failed_checks,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: un-perfbench --workload <local_chain|overlay_esp|control_churn> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let shape = args.workload.shape(cpus);
    println!(
        "meta {}",
        shape
            .meta(args.workload, args.seed, args.seconds, args.trace)
            .render()
    );
    let mut metrics = Metrics::default();
    let verdict = if args.trace {
        layers::run(args.workload, args.seed, args.seconds, &shape, &mut metrics)
    } else {
        run_e2e(&args, &shape, &mut metrics)
    };
    let out = Json::obj()
        .set("correct", verdict.failed == 0)
        .set("attempted", verdict.attempted)
        .set("failed", verdict.failed)
        .set("metrics", metrics.json());
    println!("{}", out.render());
    ExitCode::SUCCESS
}
