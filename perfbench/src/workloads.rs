//! The four workloads. Each one times whole iterations with nothing
//! attached ([`Workload::plain`]) and, for the traced run, the same
//! iteration instrumented ([`Workload::traced`]); both check every output
//! they produce and count failures into a [`Tally`].

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use uasn_bench::cell::CellOutput;
use uasn_bench::figures::{by_id, FigureSpec};
use uasn_bench::grid::{expand, run_sweep, SweepOptions};
use uasn_bench::perf::PerfScenario;
use uasn_bench::protocols::Protocol;
use uasn_bench::runner::master_seed;
use uasn_lab::client::{Client, ClientError, JobRequest};
use uasn_lab::journal::{CellStatus, LoadedJournal};
use uasn_labd::server::{Server, ServerConfig};
use uasn_net::config::SimConfig;
use uasn_sim::json::JsonValue;

use crate::pins;
use crate::probe::{monitored_run, plain_run, probe_run, report_digest, secs, Layers, Probe};
use crate::report::Metrics;
use crate::stats::{fnv1a, median, tail_percentile, trace_emit_s, worker_idle_frac, Tally};

/// One untraced iteration's end-to-end figures.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Host seconds for the iteration.
    pub wall_s: f64,
    /// Host seconds of set-up (see each workload).
    pub setup_s: f64,
    /// Simulated events the iteration processed.
    pub events: f64,
}

/// A benchmark workload.
pub trait Workload {
    /// One untraced iteration.
    fn plain(&mut self, tally: &mut Tally) -> Sample;
    /// One traced iteration: its wall time and per-layer figures. Always
    /// preceded by at least one [`Workload::plain`] iteration.
    fn traced(&mut self, tally: &mut Tally) -> (f64, Metrics);
    /// Per-layer figures pooled over every iteration of the run.
    fn finish(&self, _m: &mut Metrics) {}
}

/// Builds the workload `name` for `seed`, working inside `work`.
pub fn by_name(name: &str, seed: u64, work: &Path) -> Option<Box<dyn Workload>> {
    Some(match name {
        "paper-sweep" => Box::new(PaperSweep::new(work)),
        "swarm-build" => Box::new(SwarmBuild::new(seed)),
        "route-audit" => Box::new(RouteAudit::new(seed)),
        "labd-serve" => Box::new(LabdServe::new(work)),
        _ => return None,
    })
}

/// The workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = ["paper-sweep", "swarm-build", "route-audit", "labd-serve"];

/// Runs `f`, turning a panic into `None` (a failed operation).
fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// The pinned replications a workload seed walks through: iteration `i`
/// of a run with seed `seed` uses replication `(seed + i) % SEEDS`, so a
/// run's medians cover several worlds.
#[derive(Debug)]
struct Worlds {
    seed: u64,
    iterations: u64,
    /// The replication of the latest plain iteration.
    current: usize,
}

impl Worlds {
    fn new(seed: u64) -> Worlds {
        Worlds {
            seed,
            iterations: 0,
            current: 0,
        }
    }

    /// Moves to the next iteration's replication and returns it.
    fn advance(&mut self) -> usize {
        self.current = (self.seed.wrapping_add(self.iterations) % pins::SEEDS as u64) as usize;
        self.iterations += 1;
        self.current
    }
}

// ---------------------------------------------------------------- paper-sweep

/// Figures the paper sweep runs.
pub const PAPER_FIGURES: [&str; 3] = ["F6", "F7", "route-load"];
/// Replications per cell (fixed `SEED_SCHEME` seeds 0..4).
pub const PAPER_SEEDS: u64 = 4;
const PAPER_WORKERS: usize = 2;

fn paper_specs() -> Vec<&'static FigureSpec> {
    PAPER_FIGURES
        .iter()
        .map(|id| by_id(id).expect("figure is registered"))
        .collect()
}

/// Every cell's configuration and protocol, in job-table order.
fn paper_cells() -> Vec<(String, SimConfig, Protocol)> {
    let (table, refs) = expand(&paper_specs(), PAPER_SEEDS);
    table
        .jobs
        .iter()
        .zip(refs)
        .map(|(job, r)| {
            let cfg = (r.spec.configure)(r.spec.xs[r.point]).with_seed(master_seed(r.seed));
            (job.id(), cfg, r.protocol)
        })
        .collect()
}

/// Runs the sweep into a fresh journal at `path`, returning its wall time.
pub fn paper_sweep_once(path: &Path) -> std::io::Result<(f64, uasn_bench::SweepOutcome)> {
    let _ = std::fs::remove_file(path);
    let t = Instant::now();
    let outcome = run_sweep(
        &paper_specs(),
        &SweepOptions {
            seeds: PAPER_SEEDS,
            workers: PAPER_WORKERS,
            journal: Some(path.to_path_buf()),
            ..SweepOptions::default()
        },
    )?;
    Ok((secs(t), outcome))
}

/// The paper's own reproduction path: `run_sweep` over F6, F7 and
/// route-load × the four paper protocols × 4 seeds, 2 workers, journal on.
struct PaperSweep {
    journal: PathBuf,
    cells: Vec<(String, SimConfig, Protocol)>,
    /// The last plain sweep's cells, by job ID (for the traced check).
    last: HashMap<String, CellOutput>,
    cell_walls: Vec<f64>,
    busy_s: Vec<f64>,
    idle: Vec<f64>,
    journal_bytes: Vec<f64>,
}

impl PaperSweep {
    fn new(work: &Path) -> PaperSweep {
        PaperSweep {
            journal: work.join("paper-sweep.jsonl"),
            cells: paper_cells(),
            last: HashMap::new(),
            cell_walls: Vec::new(),
            busy_s: Vec::new(),
            idle: Vec::new(),
            journal_bytes: Vec::new(),
        }
    }

    /// Set-up: every first-replication cell's `Simulation::new`, built
    /// once outside the sweep and dropped.
    fn setup_s(&self) -> f64 {
        let t = Instant::now();
        for (_, cfg, protocol) in self.cells.iter().step_by(PAPER_SEEDS as usize) {
            let protocol = *protocol;
            let sim = uasn_net::world::Simulation::new(cfg.clone(), &|id| protocol.build(id));
            std::hint::black_box(sim.is_ok());
        }
        secs(t)
    }
}

fn same_cell(c: &CellOutput, p: &Probe) -> bool {
    let r = &p.run.out.report;
    c.throughput_kbps == r.throughput_kbps
        && c.power_mw == r.avg_power_mw
        && c.collisions == r.collisions as f64
        && c.latency_s == r.mean_latency_s
        && c.extra_bits == r.extra_bits_received as f64
        && c.fairness == r.fairness_index
        && c.utilization == r.channel_utilization
        && c.delivery_hist == r.delivery_latency_us
        && c.e2e_hist == r.e2e_latency_us
        && c.path_hops == r.path_hops
        && c.stats.events_processed == p.run.out.stats.events_processed
}

impl Workload for PaperSweep {
    fn plain(&mut self, tally: &mut Tally) -> Sample {
        let setup_s = self.setup_s();
        let Ok((wall_s, outcome)) = paper_sweep_once(&self.journal) else {
            tally.record(false);
            return Sample {
                wall_s: 0.0,
                setup_s,
                events: 0.0,
            };
        };
        let loaded = LoadedJournal::load(&self.journal).ok();
        let canonical_ok = loaded
            .as_ref()
            .is_some_and(|j| fnv1a(&j.canonical_bytes()) == pins::PAPER_SWEEP_JOURNAL);
        tally.record(outcome.complete && canonical_ok);
        let mut events = 0.0;
        let mut busy = 0.0;
        self.last.clear();
        for (id, status) in loaded.iter().flat_map(|j| &j.cells) {
            let decoded = match status {
                CellStatus::Done { wall_us, payload } => {
                    busy += *wall_us as f64 / 1e6;
                    self.cell_walls.push(*wall_us as f64 / 1e6);
                    CellOutput::from_json(payload)
                }
                CellStatus::Failed { .. } => None,
            };
            tally.record(decoded.is_some());
            if let Some(cell) = decoded {
                events += cell.stats.events_processed as f64;
                self.last.insert(id.clone(), cell);
            }
        }
        // Cells the sweep never journaled count as failed too.
        for _ in loaded.map_or(0, |j| j.cells.len())..outcome.total {
            tally.record(false);
        }
        self.busy_s.push(busy);
        self.idle
            .push(worker_idle_frac(busy, PAPER_WORKERS, wall_s));
        let bytes = std::fs::metadata(&self.journal).map_or(0, |m| m.len());
        self.journal_bytes.push(bytes as f64);
        Sample {
            wall_s,
            setup_s,
            events,
        }
    }

    fn traced(&mut self, tally: &mut Tally) -> (f64, Metrics) {
        // The same cells on the same worker count, each through the MAC
        // wrapper with profiling on, checked against the plain sweep.
        let next = AtomicUsize::new(0);
        let done: Mutex<Vec<(usize, Option<Probe>)>> = Mutex::new(Vec::new());
        let t = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..PAPER_WORKERS {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some((_, cfg, protocol)) = self.cells.get(i) else {
                        break;
                    };
                    let probe = guarded(|| probe_run(cfg, *protocol, false));
                    done.lock()
                        .expect("no worker panics holding the lock")
                        .push((i, probe));
                });
            }
        });
        let wall_s = secs(t);
        let mut layers = Layers::default();
        let done = done.into_inner().expect("workers joined");
        for (i, probe) in &done {
            let id = &self.cells[*i].0;
            let ok = probe
                .as_ref()
                .is_some_and(|p| self.last.get(id).is_some_and(|c| same_cell(c, p)));
            tally.record(ok);
            if let Some(p) = probe {
                layers.add(p);
            }
        }
        (wall_s, layers.finish())
    }

    fn finish(&self, m: &mut Metrics) {
        println!("  cell percentiles over {} cells", self.cell_walls.len());
        m.set("lab.cell_busy_s", median(&self.busy_s));
        m.set("lab.worker_idle_frac", median(&self.idle));
        m.set("lab.journal_bytes", median(&self.journal_bytes));
        m.set(
            "cell_p50_s",
            tail_percentile(&self.cell_walls, 0.5).unwrap_or(0.0),
        );
        m.set(
            "cell_p90_s",
            tail_percentile(&self.cell_walls, 0.9).unwrap_or(0.0),
        );
    }
}

// ---------------------------------------------------------------- swarm-build

/// The swarm-build runs for pinned replication `k`: EW-MAC at 10k nodes
/// and ROPA at 1k nodes on the `swarm*` perf geometry.
pub fn swarm_runs(k: usize) -> [(SimConfig, Protocol); 2] {
    let scenario = |protocol, sensors, sim_time_s| {
        let s = PerfScenario {
            name: "perfbench-swarm",
            protocol,
            sensors,
            sim_time_s,
            routed: false,
            swarm: true,
        };
        (s.config().with_seed(master_seed(k as u64)), protocol)
    };
    [
        scenario(Protocol::EwMac, 10_000, 10),
        scenario(Protocol::Ropa, 1_000, 20),
    ]
}

/// Construction-heavy swarm runs, one pinned world per iteration.
struct SwarmBuild {
    worlds: Worlds,
    /// Report digests of the last plain iteration.
    last: Vec<u64>,
}

impl SwarmBuild {
    fn new(seed: u64) -> SwarmBuild {
        SwarmBuild {
            worlds: Worlds::new(seed),
            last: Vec::new(),
        }
    }
}

impl Workload for SwarmBuild {
    fn plain(&mut self, tally: &mut Tally) -> Sample {
        let mut s = Sample {
            wall_s: 0.0,
            setup_s: 0.0,
            events: 0.0,
        };
        self.last.clear();
        let k = self.worlds.advance();
        for (j, (cfg, protocol)) in swarm_runs(k).iter().enumerate() {
            let Some(run) = guarded(|| plain_run(cfg, *protocol)) else {
                tally.record(false);
                continue;
            };
            let digest = report_digest(&run.out.report);
            tally.record(digest == pins::SWARM[k][j]);
            self.last.push(digest);
            s.wall_s += run.wall_s();
            s.setup_s += run.new_s;
            s.events += run.out.stats.events_processed as f64;
        }
        s
    }

    fn traced(&mut self, tally: &mut Tally) -> (f64, Metrics) {
        let mut layers = Layers::default();
        let mut wall_s = 0.0;
        let k = self.worlds.current;
        for (j, (cfg, protocol)) in swarm_runs(k).iter().enumerate() {
            let Some(p) = guarded(|| probe_run(cfg, *protocol, false)) else {
                tally.record(false);
                continue;
            };
            let digest = report_digest(&p.run.out.report);
            tally.record(self.last.get(j) == Some(&digest) && digest == pins::SWARM[k][j]);
            println!(
                "  {}: new {:.3} s (two-hop tables {:.3} s, MAC install {:.3} s), run_full {:.3} s, loop {:.3} s",
                p.run.out.report.protocol,
                p.run.new_s,
                p.two_hop_s,
                p.install_s[0] + p.install_s[1],
                p.run.run_s,
                p.run.out.stats.wall.as_secs_f64()
            );
            wall_s += p.run.wall_s();
            layers.add(&p);
        }
        (wall_s, layers.finish())
    }
}

// ---------------------------------------------------------------- route-audit

/// Observation window of the route-audit run, simulated seconds: short
/// enough (about a second per iteration) that one run walks every pinned
/// world, so the spread between seeds is not one world's cost.
pub const ROUTE_WINDOW_S: u64 = 500;

/// The route-audit world for pinned replication `k`: the `route-ewmac`
/// perf cell (40 sensors, 4 layers, 80 kbps Poisson, reliable transport)
/// over a shorter window.
pub fn route_cfg(k: usize) -> SimConfig {
    PerfScenario {
        name: "perfbench-route",
        protocol: Protocol::EwMac,
        sensors: 40,
        sim_time_s: ROUTE_WINDOW_S,
        routed: true,
        swarm: false,
    }
    .config()
    .with_seed(master_seed(k as u64))
}

/// A routed, saturated column run with the streaming monitors on, plus
/// the same run plain (the monitored report must equal it).
struct RouteAudit {
    worlds: Worlds,
    last: Option<u64>,
}

impl RouteAudit {
    fn new(seed: u64) -> RouteAudit {
        RouteAudit {
            worlds: Worlds::new(seed),
            last: None,
        }
    }
}

impl Workload for RouteAudit {
    fn plain(&mut self, tally: &mut Tally) -> Sample {
        let k = self.worlds.advance();
        let cfg = route_cfg(k);
        let (digest, findings) = pins::ROUTE[k];
        let plain = guarded(|| plain_run(&cfg, Protocol::EwMac));
        tally.record(
            plain
                .as_ref()
                .is_some_and(|r| report_digest(&r.out.report) == digest),
        );
        let monitored =
            guarded(|| monitored_run(&cfg.clone().with_monitoring(true), Protocol::EwMac));
        tally.record(monitored.as_ref().is_some_and(|m| {
            report_digest(&m.out.report) == digest
                && plain.as_ref().is_some_and(|p| p.out.report == m.out.report)
                && m.monitor
                    .as_ref()
                    .is_some_and(|r| r.findings.len() == findings)
        }));
        self.last = monitored.as_ref().map(|m| report_digest(&m.out.report));
        let runs = [plain, monitored];
        let runs = runs.iter().flatten();
        Sample {
            wall_s: runs.clone().map(|r| r.wall_s()).sum(),
            setup_s: runs.clone().map(|r| r.new_s).sum(),
            events: runs.map(|r| r.out.stats.events_processed as f64).sum(),
        }
    }

    fn traced(&mut self, tally: &mut Tally) -> (f64, Metrics) {
        let k = self.worlds.current;
        let cfg = route_cfg(k);
        let mut layers = Layers::default();
        let plain = guarded(|| probe_run(&cfg, Protocol::EwMac, false));
        let monitored =
            guarded(|| probe_run(&cfg.clone().with_monitoring(true), Protocol::EwMac, true));
        let mut wall_s = 0.0;
        for p in [&plain, &monitored] {
            let ok = p.as_ref().is_some_and(|p| {
                Some(report_digest(&p.run.out.report)) == self.last
                    && report_digest(&p.run.out.report) == pins::ROUTE[k].0
            });
            tally.record(ok);
            if let Some(p) = p {
                wall_s += p.run.wall_s();
                layers.add(p);
            }
        }
        let mut m = layers.finish();
        if let (Some(p), Some(mon)) = (&plain, &monitored) {
            m.set(
                "sim.trace_emit_s",
                trace_emit_s(mon.run.wall_s(), mon.accept_s, p.run.wall_s()),
            );
        }
        (wall_s, m)
    }
}

// ----------------------------------------------------------------- labd-serve

/// Closed-loop clients against the server.
pub const LABD_CLIENTS: usize = 2;
/// Jobs each client runs per iteration (one fresh server per iteration).
pub const LABD_JOBS_PER_CLIENT: usize = 10;
/// Replications per SMOKE job.
pub const LABD_SEEDS: u64 = 2;

fn smoke_request() -> JobRequest {
    let mut r = JobRequest::new(vec!["SMOKE".to_string()], LABD_SEEDS);
    r.workers = Some(1);
    r
}

/// The canonical journal and simulated events of a SMOKE sweep run
/// in-process, the reference every served job must equal.
pub fn smoke_reference(work: &Path) -> std::io::Result<(Vec<u8>, u64)> {
    let path = work.join("smoke-reference.jsonl");
    let _ = std::fs::remove_file(&path);
    let outcome = run_sweep(
        &[by_id("SMOKE").expect("SMOKE is registered")],
        &SweepOptions {
            seeds: LABD_SEEDS,
            workers: 1,
            journal: Some(path.clone()),
            ..SweepOptions::default()
        },
    )?;
    let journal = LoadedJournal::load(&path).map_err(|e| std::io::Error::other(e.to_string()))?;
    let _ = std::fs::remove_file(&path);
    let events = journal
        .cells
        .iter()
        .filter_map(|(_, s)| match s {
            CellStatus::Done { payload, .. } => CellOutput::from_json(payload),
            CellStatus::Failed { .. } => None,
        })
        .map(|c| c.stats.events_processed)
        .sum();
    if !outcome.complete {
        return Err(std::io::Error::other("reference SMOKE sweep incomplete"));
    }
    Ok((journal.canonical_bytes(), events))
}

/// An HTTP status for the tally: the status of a structured API error,
/// 200 for success, `None` for transport or protocol failures.
fn http_status<T>(r: &Result<T, ClientError>) -> Option<u16> {
    match r {
        Ok(_) => Some(200),
        Err(ClientError::Api { status, .. }) => Some(*status),
        Err(_) => None,
    }
}

/// What one client saw of one job.
#[derive(Debug, Default)]
struct JobTrace {
    id: Option<String>,
    ok: bool,
    submit_s: f64,
    first_line_s: Option<f64>,
    summary_s: f64,
    job_s: f64,
    lines: usize,
}

/// One closed-loop job: submit, stream to the last line, fetch the
/// summary, read the results index.
fn client_job(client: &Client, tally: &Mutex<Tally>) -> JobTrace {
    let mut jt = JobTrace::default();
    let record = |status| {
        tally
            .lock()
            .expect("tally lock is never poisoned")
            .record_http(status)
    };
    let t = Instant::now();
    let submitted = client.submit(&smoke_request());
    jt.submit_s = secs(t);
    record(http_status(&submitted));
    let Ok(id) = submitted else { return jt };
    let streamed = client.stream(&id, |_| {
        if jt.first_line_s.is_none() {
            jt.first_line_s = Some(secs(t));
        }
    });
    record(http_status(&streamed));
    jt.lines = *streamed.as_ref().unwrap_or(&0);
    let ts = Instant::now();
    let summary = client.summary(&id);
    jt.summary_s = secs(ts);
    jt.job_s = secs(t);
    record(http_status(&summary));
    let complete = summary
        .as_ref()
        .ok()
        .and_then(|s| s.get("complete"))
        .and_then(JsonValue::as_bool)
        == Some(true);
    let results = client.get("/v1/results");
    record(http_status(&results));
    jt.ok = streamed.is_ok() && complete && results.is_ok();
    jt.id = Some(id);
    jt
}

/// An in-process labd on loopback with one runner; two closed-loop
/// clients submit SMOKE jobs and read results.
struct LabdServe {
    work: PathBuf,
    reference: Option<(Vec<u8>, u64)>,
    iteration: usize,
    submit: Vec<f64>,
    summary: Vec<f64>,
    job: Vec<f64>,
    first_line: Vec<f64>,
    lines: Vec<f64>,
    requests: Vec<f64>,
}

impl LabdServe {
    fn new(work: &Path) -> LabdServe {
        LabdServe {
            work: work.to_path_buf(),
            reference: smoke_reference(work).ok(),
            iteration: 0,
            submit: Vec::new(),
            summary: Vec::new(),
            job: Vec::new(),
            first_line: Vec::new(),
            lines: Vec::new(),
            requests: Vec::new(),
        }
    }
}

impl Workload for LabdServe {
    fn plain(&mut self, tally: &mut Tally) -> Sample {
        self.iteration += 1;
        let state = self.work.join(format!("labd-{}", self.iteration));
        let _ = std::fs::remove_dir_all(&state);
        let t = Instant::now();
        let server = Server::start(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            state_dir: state.clone(),
            runners: 1,
            queue_capacity: 4,
            workers: 1,
        });
        let setup_s = secs(t);
        let Ok(server) = server else {
            tally.record(false);
            return Sample {
                wall_s: secs(t),
                setup_s,
                events: 0.0,
            };
        };
        let client = Client::new(server.addr().to_string());
        let shared = Mutex::new(Tally::default());
        let jobs: Vec<JobTrace> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..LABD_CLIENTS)
                .map(|_| {
                    scope.spawn(|| {
                        (0..LABD_JOBS_PER_CLIENT)
                            .map(|_| client_job(&client, &shared))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_default())
                .collect()
        });
        let mut http = shared.into_inner().expect("clients joined");
        http.record_http(http_status(&client.shutdown()));
        server.wait();
        let wall_s = secs(t);

        // Output check, untimed: every served journal equals the reference.
        let mut done = 0u64;
        for jt in &jobs {
            let canonical = jt.id.as_ref().and_then(|id| {
                let path = state.join("jobs").join(format!("{id}.journal.jsonl"));
                LoadedJournal::load(&path).ok().map(|j| j.canonical_bytes())
            });
            let ok = jt.ok
                && canonical.is_some()
                && canonical.as_ref() == self.reference.as_ref().map(|r| &r.0);
            tally.record(ok);
            done += ok as u64;
            self.submit.push(jt.submit_s);
            self.summary.push(jt.summary_s);
            self.job.push(jt.job_s);
            self.first_line.extend(jt.first_line_s);
            self.lines.push(jt.lines as f64);
        }
        // Jobs a client never got to count as failed.
        for _ in jobs.len()..LABD_CLIENTS * LABD_JOBS_PER_CLIENT {
            tally.record(false);
        }
        self.requests.push(http.attempted as f64);
        tally.merge(http);
        let _ = std::fs::remove_dir_all(&state);
        let per_job = self.reference.as_ref().map_or(0, |r| r.1);
        Sample {
            wall_s,
            setup_s,
            events: (done * per_job) as f64,
        }
    }

    fn traced(&mut self, tally: &mut Tally) -> (f64, Metrics) {
        // labd is reached only through its client: the client-side
        // timings are taken on every iteration, so the traced iteration
        // is a plain one.
        let s = self.plain(tally);
        (s.wall_s, Metrics::default())
    }

    fn finish(&self, m: &mut Metrics) {
        println!(
            "  job percentiles over {} jobs, first-line over {} streams",
            self.job.len(),
            self.first_line.len()
        );
        m.set("labd.submit_s", median(&self.submit));
        m.set("labd.summary_s", median(&self.summary));
        m.set("labd.stream_lines", median(&self.lines));
        m.set("labd.requests", median(&self.requests));
        m.set("job_p50_s", tail_percentile(&self.job, 0.5).unwrap_or(0.0));
        m.set("job_p90_s", tail_percentile(&self.job, 0.9).unwrap_or(0.0));
        m.set(
            "first_line_p50_s",
            tail_percentile(&self.first_line, 0.5).unwrap_or(0.0),
        );
        m.set(
            "first_line_p90_s",
            tail_percentile(&self.first_line, 0.9).unwrap_or(0.0),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refused_requests_count_as_failed() {
        let api = |status| -> Result<(), ClientError> {
            Err(ClientError::Api {
                status,
                code: "queue-full".to_string(),
                message: String::new(),
            })
        };
        let mut t = Tally::default();
        t.record_http(http_status(&Ok::<(), ClientError>(())));
        t.record_http(http_status(&api(429)));
        t.record_http(http_status(&api(503)));
        t.record_http(http_status(&Err::<(), _>(ClientError::Protocol(
            "bad".to_string(),
        ))));
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 3
            }
        );
    }

    #[test]
    fn worlds_walk_the_pinned_replications_from_the_seed() {
        let mut w = Worlds::new(pins::SEEDS as u64 - 1);
        assert_eq!(w.advance(), pins::SEEDS - 1);
        assert_eq!(w.current, pins::SEEDS - 1);
        assert_eq!(w.advance(), 0);
        assert_eq!(Worlds::new(3).advance(), 3);
    }
}
