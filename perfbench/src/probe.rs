//! Reaching the layers from outside: timed calls into public functions,
//! a forwarding MAC wrapper installed through the public `MacFactory`,
//! and a timing `TraceSink` wrapped around a monitor's sink.
//!
//! Plain runs ([`plain_run`], [`monitored_run`]) carry no instrumentation
//! at all; [`probe_run`] is the traced counterpart of both and must leave
//! the run's report bit-identical (the workloads check that).

use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use uasn_audit::monitor::{MonitorReport, StreamingMonitor};
use uasn_bench::protocols::Protocol;
use uasn_net::config::SimConfig;
use uasn_net::mac::{MacContext, MacProtocol, MaintenanceProfile, Reception, TimerToken};
use uasn_net::metrics::MetricsReport;
use uasn_net::node::NodeId;
use uasn_net::packet::{Frame, Sdu};
use uasn_net::slots::SlotIndex;
use uasn_net::topology::stranded_sensors;
use uasn_net::world::{MacFactory, RunOutput, Simulation};
use uasn_sim::rng::SeedFactory;
use uasn_sim::time::SimDuration;
use uasn_sim::trace::{TraceLevel, TraceRecord, TraceSink, Tracer};

use crate::report::Metrics;
use crate::stats::{finalize_s, fnv1a, hit_rate};

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The pinned digest of a run's report: FNV-1a over its `Debug` form,
/// which prints every field (floats as shortest round-trip lexemes).
pub fn report_digest(report: &MetricsReport) -> u64 {
    fnv1a(format!("{report:?}").as_bytes())
}

/// One uninstrumented run, with `Simulation::new` and `run_full` timed.
#[derive(Debug)]
pub struct Timed {
    /// Host seconds in `Simulation::new`.
    pub new_s: f64,
    /// Host seconds in `run_full`.
    pub run_s: f64,
    /// What the run produced.
    pub out: RunOutput,
    /// The monitor report, for monitored runs.
    pub monitor: Option<MonitorReport>,
}

impl Timed {
    /// `new_s + run_s`.
    pub fn wall_s(&self) -> f64 {
        self.new_s + self.run_s
    }
}

/// Builds `cfg` with MACs from `factory`, attaches `monitor` (through
/// `wrap`, which may instrument its sink), and runs it, timing
/// `Simulation::new` and `run_full` apart.
fn run_timed(
    cfg: &SimConfig,
    factory: &MacFactory<'_>,
    monitor: Option<StreamingMonitor>,
    wrap: impl FnOnce(Box<dyn TraceSink + Send>) -> Box<dyn TraceSink + Send>,
) -> Timed {
    let t = Instant::now();
    let mut sim =
        Simulation::new(cfg.clone(), factory).unwrap_or_else(|e| panic!("config rejected: {e}"));
    let new_s = secs(t);
    if let Some(m) = &monitor {
        sim = sim.with_tracer(Tracer::new(TraceLevel::Debug).with_sink(wrap(m.sink())));
    }
    let t = Instant::now();
    let out = sim.run_full();
    Timed {
        new_s,
        run_s: secs(t),
        out,
        monitor: monitor.map(|m| m.report()),
    }
}

/// Runs `cfg` under `protocol` with nothing attached.
pub fn plain_run(cfg: &SimConfig, protocol: Protocol) -> Timed {
    run_timed(cfg, &|id| protocol.build(id), None, |sink| sink)
}

/// Runs `cfg` with its trace streamed through the online invariant
/// monitors — the composition `uasn_bench::runner::run_once_monitored`
/// uses, with construction and run timed apart.
pub fn monitored_run(cfg: &SimConfig, protocol: Protocol) -> Timed {
    let monitor = Some(StreamingMonitor::new());
    run_timed(cfg, &|id| protocol.build(id), monitor, |sink| sink)
}

/// Which crate implements a protocol.
fn crate_slot(name: &str) -> usize {
    if name.starts_with("EW-MAC") {
        0 // uasn-ewmac (crates/core)
    } else {
        1 // uasn-baselines
    }
}

/// Per-crate MAC cost, shared by every wrapper of one simulation (which
/// runs on one thread).
#[derive(Debug, Default)]
struct MacClock {
    handler_ns: [Cell<u64>; 2],
    calls: [Cell<u64>; 2],
    install_ns: [Cell<u64>; 2],
    /// Time from a node's `install_neighbors` returning to its
    /// `install_two_hop` starting: the world assembling the two-hop tables.
    two_hop_gap_ns: Cell<u64>,
}

fn bump(cell: &Cell<u64>, by: u64) {
    cell.set(cell.get() + by);
}

/// A forwarding [`MacProtocol`] that times every handler and install call
/// of the protocol it wraps.
#[derive(Debug)]
struct TimedMac {
    inner: Box<dyn MacProtocol>,
    slot: usize,
    clock: Rc<MacClock>,
    /// When this node's `install_neighbors` returned.
    neighbors_done: Option<Instant>,
}

impl TimedMac {
    fn handler<T>(&mut self, f: impl FnOnce(&mut dyn MacProtocol) -> T) -> T {
        let t = Instant::now();
        let r = f(self.inner.as_mut());
        bump(
            &self.clock.handler_ns[self.slot],
            t.elapsed().as_nanos() as u64,
        );
        bump(&self.clock.calls[self.slot], 1);
        r
    }

    fn install(&mut self, f: impl FnOnce(&mut dyn MacProtocol)) {
        let t = Instant::now();
        f(self.inner.as_mut());
        bump(
            &self.clock.install_ns[self.slot],
            t.elapsed().as_nanos() as u64,
        );
    }
}

impl MacProtocol for TimedMac {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn maintenance(&self) -> MaintenanceProfile {
        self.inner.maintenance()
    }
    fn on_start(&mut self, ctx: &mut MacContext<'_>) {
        self.handler(|m| m.on_start(ctx));
    }
    fn install_neighbors(&mut self, neighbors: &[(NodeId, SimDuration)]) {
        self.install(|m| m.install_neighbors(neighbors));
        self.neighbors_done = Some(Instant::now());
    }
    fn install_two_hop(&mut self, tables: &[(NodeId, Vec<(NodeId, SimDuration)>)]) {
        if let Some(done) = self.neighbors_done.take() {
            bump(&self.clock.two_hop_gap_ns, done.elapsed().as_nanos() as u64);
        }
        self.install(|m| m.install_two_hop(tables));
    }
    fn install_clock_error(&mut self, bound: SimDuration) {
        self.install(|m| m.install_clock_error(bound));
    }
    fn on_slot_start(&mut self, ctx: &mut MacContext<'_>, slot: SlotIndex) {
        self.handler(|m| m.on_slot_start(ctx, slot));
    }
    fn on_enqueue(&mut self, ctx: &mut MacContext<'_>, sdu: Sdu) {
        self.handler(|m| m.on_enqueue(ctx, sdu));
    }
    fn on_frame_received(&mut self, ctx: &mut MacContext<'_>, rx: &Reception<'_>) {
        self.handler(|m| m.on_frame_received(ctx, rx));
    }
    fn on_frame_sent(&mut self, ctx: &mut MacContext<'_>, frame: &Frame) {
        self.handler(|m| m.on_frame_sent(ctx, frame));
    }
    fn on_timer(&mut self, ctx: &mut MacContext<'_>, token: TimerToken) {
        self.handler(|m| m.on_timer(ctx, token));
    }
    fn queue_len(&self) -> usize {
        self.inner.queue_len()
    }
    fn state_label(&self) -> &'static str {
        self.inner.state_label()
    }
}

/// A [`TraceSink`] that times every `accept` of the sink it wraps.
struct TimedSink {
    inner: Box<dyn TraceSink + Send>,
    accept_ns: Arc<AtomicU64>,
}

impl TraceSink for TimedSink {
    fn accept(&mut self, record: &TraceRecord) {
        let t = Instant::now();
        self.inner.accept(record);
        // Relaxed: a statistic read after the run, publishing nothing.
        self.accept_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// One instrumented run and what it attributes to each layer.
#[derive(Debug)]
pub struct Probe {
    /// The run itself (profiled).
    pub run: Timed,
    /// A separate, timed `Deployment::generate` of the same topology.
    pub deploy_s: f64,
    /// A separate, timed `stranded_sensors` over that topology.
    pub stranded_s: f64,
    /// Seconds the monitor sink spent in `accept` (monitored probes).
    pub accept_s: f64,
    /// MAC handler seconds per crate (`[core, baselines]`).
    pub handler_s: [f64; 2],
    /// MAC handler calls per crate.
    pub calls: [u64; 2],
    /// MAC install seconds per crate.
    pub install_s: [f64; 2],
    /// Seconds the world spent assembling two-hop tables between each
    /// node's one-hop and two-hop installs.
    pub two_hop_s: f64,
}

/// Per-layer figures summed over the probes of one traced iteration.
#[derive(Debug, Default)]
pub struct Layers {
    metrics: Metrics,
    fanout_sum: u64,
    fanout_count: u64,
}

impl Layers {
    /// Adds one probe's `sim`, `net`, `phy`, `core`, `baselines`, `route`
    /// and `audit` figures.
    pub fn add(&mut self, p: &Probe) {
        let m = &mut self.metrics;
        let run = &p.run;
        let stats = &run.out.stats;
        let profile = run.out.profile.as_ref().expect("probe runs are profiled");
        let loop_s = stats.wall.as_secs_f64();
        m.add("sim.events", stats.events_processed as f64);
        m.add(
            "sim.events_scheduled",
            profile.engine.events_scheduled as f64,
        );
        m.max("sim.peak_queue_depth", stats.peak_queue_depth as f64);
        m.add("sim.loop_s", loop_s);
        // Pops are timed on a sample of events; scale to all of them.
        if profile.engine.sampled_events > 0 {
            let per_event = profile.engine.pop_ns as f64 / profile.engine.sampled_events as f64;
            m.add("sim.pop_s", per_event * stats.events_processed as f64 / 1e9);
        }
        let install_s = p.install_s[0] + p.install_s[1];
        m.add("net.deploy_s", p.deploy_s);
        m.add("net.stranded_s", p.stranded_s);
        m.add("net.two_hop_s", p.two_hop_s);
        m.add(
            "net.build_other_s",
            run.new_s - p.deploy_s - p.stranded_s - p.two_hop_s - install_s,
        );
        m.add("net.finalize_s", finalize_s(run.run_s, loop_s));
        if let Some(h) = profile.metrics.hist("net.fanout") {
            self.fanout_sum += h.sum();
            self.fanout_count += h.count();
        }
        for name in [
            "phy.cache.hits",
            "phy.cache.misses",
            "phy.cache.invalidations",
            "phy.cache.cull_rejects",
            "phy.cache.audibility_rejects",
        ] {
            m.add(name, profile.metrics.counter(name) as f64);
        }
        let names = [
            ["core.handler_s", "core.calls", "core.install_s"],
            [
                "baselines.handler_s",
                "baselines.calls",
                "baselines.install_s",
            ],
        ];
        for (slot, [handler, calls, install]) in names.into_iter().enumerate() {
            m.add(handler, p.handler_s[slot]);
            m.add(calls, p.calls[slot] as f64);
            m.add(install, p.install_s[slot]);
        }
        m.add("route.sdus", run.out.report.e2e_delivered as f64);
        m.add("route.retx_bits", run.out.report.retx_bits as f64);
        if let Some(rep) = &run.monitor {
            m.add("audit.accept_s", p.accept_s);
            m.add("audit.records", rep.records_seen as f64);
            m.max("audit.peak_tracked", rep.peak_tracked as f64);
        }
    }

    /// The summed figures, with the fan-out mean and cache hit rate
    /// computed over every probe.
    pub fn finish(self) -> Metrics {
        let mut m = self.metrics;
        if self.fanout_count > 0 {
            m.set(
                "net.fanout_mean",
                self.fanout_sum as f64 / self.fanout_count as f64,
            );
        }
        let rate = hit_rate(
            m.get("phy.cache.hits") as u64,
            m.get("phy.cache.misses") as u64,
        );
        m.set("phy.cache.hit_rate", rate);
        m
    }
}

/// Runs `cfg` under `protocol` with profiling on, every MAC wrapped in a
/// timer, and — with `monitor` — the trace streamed through the online
/// monitors behind a timing sink.
pub fn probe_run(cfg: &SimConfig, protocol: Protocol, monitor: bool) -> Probe {
    let cfg = cfg.clone().with_profiling(true);

    let seeds = SeedFactory::new(cfg.seed);
    let range = cfg.channel.max_range_m();
    let t = Instant::now();
    let nodes = cfg
        .deployment
        .generate(
            &mut seeds.stream("topology", 0),
            cfg.sensors,
            cfg.sinks,
            range,
        )
        .unwrap_or_else(|e| panic!("deployment rejected: {e}"));
    let deploy_s = secs(t);
    let t = Instant::now();
    let stranded = std::hint::black_box(stranded_sensors(&nodes, range));
    let stranded_s = secs(t);
    drop(stranded);

    let clock = Rc::new(MacClock::default());
    let factory = |id| -> Box<dyn MacProtocol> {
        let inner = protocol.build(id);
        Box::new(TimedMac {
            slot: crate_slot(inner.name()),
            inner,
            clock: Rc::clone(&clock),
            neighbors_done: None,
        })
    };
    let accept_ns = Arc::new(AtomicU64::new(0));
    let timing_sink = |inner| -> Box<dyn TraceSink + Send> {
        Box::new(TimedSink {
            inner,
            accept_ns: Arc::clone(&accept_ns),
        })
    };
    let run = run_timed(
        &cfg,
        &factory,
        monitor.then(StreamingMonitor::new),
        timing_sink,
    );

    let ns = |c: &[Cell<u64>; 2]| [c[0].get() as f64 / 1e9, c[1].get() as f64 / 1e9];
    Probe {
        run,
        deploy_s,
        stranded_s,
        accept_s: accept_ns.load(Ordering::Relaxed) as f64 / 1e9,
        handler_s: ns(&clock.handler_ns),
        calls: [clock.calls[0].get(), clock.calls[1].get()],
        install_s: ns(&clock.install_ns),
        two_hop_s: clock.two_hop_gap_ns.get() as f64 / 1e9,
    }
}
