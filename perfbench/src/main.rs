//! The uasn benchmark: one command per workload, printing every metric by
//! name and unit as the last line of standard output.
//!
//! ```text
//! uasn-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! uasn-perfbench pin
//! ```
//!
//! See `README.md` beside this package for the workloads and metrics.

mod host;
mod pins;
mod probe;
mod report;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use uasn_bench::protocols::Protocol;
use uasn_lab::journal::LoadedJournal;
use uasn_sim::json::JsonValue;

use crate::probe::{monitored_run, plain_run, report_digest};
use crate::report::{result_line, Metrics, PER_LAYER};
use crate::stats::{another_fits, fnv1a, median, overhead_pct, Tally};

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
            },
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Working directory for journals and server state, removed on exit.
fn work_dir(workload: &str) -> PathBuf {
    Path::new(".bench_work").join(format!("{workload}-{}", std::process::id()))
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("pin") {
        return pin();
    }
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("uasn-perfbench: {e}");
            eprintln!(
                "usage: uasn-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let work = work_dir(&args.workload);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("uasn-perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(1);
    }
    let code = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    code
}

fn run(args: &Args, work: &Path) -> ExitCode {
    let started = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let Some(mut workload) = workloads::by_name(&args.workload, args.seed, work) else {
        eprintln!(
            "uasn-perfbench: unknown workload {:?} (one of {})",
            args.workload,
            workloads::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    println!(
        "{}",
        JsonValue::Object(vec![
            ("host".to_string(), host::fingerprint()),
            (
                "workload".to_string(),
                JsonValue::from_string(&args.workload)
            ),
            ("seed".to_string(), JsonValue::from_u64(args.seed)),
            ("trace".to_string(), JsonValue::Bool(args.trace)),
        ])
        .to_json()
    );

    let mut tally = Tally::default();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut durations = Vec::new();
    let min = if args.trace { 2 } else { 1 };
    while another_fits(started.elapsed(), &durations, budget, min) {
        let t = Instant::now();
        if args.trace && durations.len() % 2 == 1 {
            traced.push(workload.traced(&mut tally));
        } else {
            plain.push(workload.plain(&mut tally));
        }
        durations.push(t.elapsed());
    }

    let walls: Vec<f64> = plain.iter().map(|s| s.wall_s).collect();
    let mut metrics = Metrics::default();
    if args.trace {
        for &(name, _) in PER_LAYER {
            let values: Vec<f64> = traced.iter().map(|(_, m)| m.get(name)).collect();
            metrics.set(name, median(&values));
        }
        workload.finish(&mut metrics);
        let traced_walls: Vec<f64> = traced.iter().map(|(w, _)| *w).collect();
        metrics.set(
            "trace_overhead_pct",
            overhead_pct(median(&traced_walls), median(&walls)),
        );
    } else {
        let rates: Vec<f64> = plain
            .iter()
            .map(|s| {
                if s.wall_s > 0.0 {
                    s.events / s.wall_s
                } else {
                    0.0
                }
            })
            .collect();
        let setups: Vec<f64> = plain.iter().map(|s| s.setup_s).collect();
        metrics.set("wall_s", median(&walls));
        metrics.set("setup_s", median(&setups));
        metrics.set("events_per_s", median(&rates));
        metrics.set("peak_rss_mb", host::peak_rss_mb());
    }
    println!(
        "{}: {} plain and {} traced iterations in {:.1} s; failed_frac {} ({} of {}); plain walls {:?}",
        args.workload,
        plain.len(),
        traced.len(),
        started.elapsed().as_secs_f64(),
        tally.failed_frac(),
        tally.failed,
        tally.attempted,
        walls
    );
    let correct = tally.failed == 0 && tally.attempted > 0;
    println!("{}", result_line(correct, tally, &metrics, args.trace));
    ExitCode::SUCCESS
}

/// Prints `pins.rs` for the current code: the digests every output check
/// compares against.
fn pin() -> ExitCode {
    let work = work_dir("pin");
    std::fs::create_dir_all(&work).expect("work directory");
    let journal = work.join("paper-sweep.jsonl");
    workloads::paper_sweep_once(&journal).expect("paper sweep runs");
    let loaded = LoadedJournal::load(&journal).expect("paper sweep journal loads");
    let paper = fnv1a(&loaded.canonical_bytes());
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");

    let mut swarm = Vec::new();
    let mut route = Vec::new();
    for k in 0..pins::SEEDS {
        let runs = workloads::swarm_runs(k);
        let d: Vec<u64> = runs
            .iter()
            .map(|(cfg, p)| report_digest(&plain_run(cfg, *p).out.report))
            .collect();
        swarm.push(format!("    [{:#018x}, {:#018x}],", d[0], d[1]));
        let cfg = workloads::route_cfg(k);
        let plain = plain_run(&cfg, Protocol::EwMac);
        let mon = monitored_run(&cfg.clone().with_monitoring(true), Protocol::EwMac);
        assert_eq!(
            plain.out.report, mon.out.report,
            "monitoring changed the report"
        );
        let findings = mon.monitor.expect("monitored").findings.len();
        route.push(format!(
            "    ({:#018x}, {findings}),",
            report_digest(&mon.out.report)
        ));
        eprintln!("pinned replication {k}");
    }
    println!("/// FNV-1a of the paper sweep's canonical journal bytes.");
    println!("pub const PAPER_SWEEP_JOURNAL: u64 = {paper:#018x};");
    println!();
    println!("/// Report digests of the swarm-build runs `[EW-MAC 10k, ROPA 1k]`.");
    println!(
        "pub const SWARM: [[u64; 2]; SEEDS] = [\n{}\n];",
        swarm.join("\n")
    );
    println!();
    println!("/// Report digest and monitor finding count of the route-audit run.");
    println!(
        "pub const ROUTE: [(u64, usize); SEEDS] = [\n{}\n];",
        route.join("\n")
    );
    ExitCode::SUCCESS
}
