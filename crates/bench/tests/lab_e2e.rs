//! End-to-end tests for the `uasn-lab` orchestration subsystem: the
//! determinism contract (worker count and interrupt/resume splits are
//! invisible in the results), journal damage tolerance, panicked-cell
//! recovery, and the rejection of a zero-seed sweep before anything is
//! written.

use std::path::PathBuf;

use uasn_bench::figures::{FigureSpec, Metric};
use uasn_bench::grid::{run_sweep, status, SweepOptions};
use uasn_bench::{ExperimentRun, Protocol};
use uasn_lab::journal::{JournalWriter, LoadedJournal};
use uasn_lab::spec::SweepSpec;
use uasn_net::config::SimConfig;
use uasn_sim::json::JsonValue;
use uasn_sim::time::SimDuration;

static TINY_PROTOCOLS: [Protocol; 2] = [Protocol::SFama, Protocol::EwMac];

fn tiny_configure(load: f64) -> SimConfig {
    SimConfig::paper_default()
        .with_sensors(8)
        .with_offered_load_kbps(load)
        .with_sim_time(SimDuration::from_secs(30))
}

/// A miniature two-point figure: 2 points x 2 protocols x 2 seeds = 8
/// cells, each milliseconds long.
static TINY: FigureSpec = FigureSpec {
    id: "TINY",
    title: "tiny e2e sweep",
    x_label: "load kbps",
    y_label: "throughput (kbps)",
    xs: &[0.2, 0.4],
    protocols: &TINY_PROTOCOLS,
    configure: tiny_configure,
    metric: Metric::ThroughputKbps,
    normalized: false,
};

const SEEDS: u64 = 2;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("uasn-lab-e2e-{name}-{}.jsonl", std::process::id()))
}

fn sweep(opts: SweepOptions) -> Vec<ExperimentRun> {
    let outcome = run_sweep(&[&TINY], &opts).expect("sweep runs");
    assert!(outcome.complete, "sweep completed: {}", outcome.summary);
    assert!(outcome.failed.is_empty());
    outcome.runs
}

/// The determinism contract across every result layer: CSV bytes, the
/// merged latency histograms, and the non-wall engine stats.
fn assert_identical(a: &ExperimentRun, b: &ExperimentRun) {
    assert_eq!(a.figure, b.figure, "figure data diverged");
    assert_eq!(a.figure.to_csv(), b.figure.to_csv(), "CSV bytes diverged");
    assert_eq!(
        a.manifest.delivery_latency_us, b.manifest.delivery_latency_us,
        "merged delivery histograms diverged"
    );
    assert_eq!(
        a.manifest.e2e_latency_us, b.manifest.e2e_latency_us,
        "merged e2e histograms diverged"
    );
    assert_eq!(a.manifest.stats.runs, b.manifest.stats.runs);
    assert_eq!(
        a.manifest.stats.events_processed,
        b.manifest.stats.events_processed
    );
    assert_eq!(a.manifest.stats.kind_counts, b.manifest.stats.kind_counts);
    // (stats.wall is the one legitimately schedule-dependent field.)
}

#[test]
fn results_are_identical_for_any_worker_count() {
    let serial = sweep(SweepOptions {
        seeds: SEEDS,
        workers: 1,
        ..SweepOptions::default()
    });
    let parallel = sweep(SweepOptions {
        seeds: SEEDS,
        workers: 8,
        ..SweepOptions::default()
    });
    assert_identical(&serial[0], &parallel[0]);
}

#[test]
fn kill_and_resume_is_invisible_in_the_results() {
    let journal = tmp("resume");
    let _ = std::fs::remove_file(&journal);

    // "Kill" the sweep after 3 fresh cells (the journal keeps them) ...
    let first = run_sweep(
        &[&TINY],
        &SweepOptions {
            seeds: SEEDS,
            workers: 2,
            journal: Some(journal.clone()),
            max_cells: Some(3),
            ..SweepOptions::default()
        },
    )
    .expect("interrupted sweep");
    assert!(first.hit_max_cells);
    assert!(!first.complete);
    assert!(first.runs.is_empty(), "partial grids are never aggregated");
    assert_eq!(first.completed, 3, "exactly max_cells fresh cells ran");

    // ... then resume: journaled cells are skipped, not re-run.
    let second = run_sweep(
        &[&TINY],
        &SweepOptions {
            seeds: SEEDS,
            workers: 2,
            journal: Some(journal.clone()),
            ..SweepOptions::default()
        },
    )
    .expect("resumed sweep");
    assert!(second.complete);
    assert_eq!(
        second.resumed, first.completed,
        "resume skipped the journal"
    );
    assert_eq!(
        second.resumed + second.completed,
        TINY.cells(SEEDS),
        "every cell ran exactly once across the two runs"
    );

    // The split is invisible: same bytes as one uninterrupted serial run.
    let reference = sweep(SweepOptions {
        seeds: SEEDS,
        workers: 1,
        ..SweepOptions::default()
    });
    assert_identical(&reference[0], &second.runs[0]);
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn truncated_trailing_journal_line_is_tolerated_on_resume() {
    let journal = tmp("truncated");
    let _ = std::fs::remove_file(&journal);
    let interrupted = run_sweep(
        &[&TINY],
        &SweepOptions {
            seeds: SEEDS,
            workers: 1,
            journal: Some(journal.clone()),
            max_cells: Some(2),
            ..SweepOptions::default()
        },
    )
    .expect("interrupted sweep");
    assert_eq!(interrupted.completed, 2);

    // Simulate a kill mid-write: chop bytes off the final record.
    let text = std::fs::read_to_string(&journal).expect("journal readable");
    std::fs::write(&journal, &text[..text.len() - 25]).expect("truncate");
    let loaded = LoadedJournal::load(&journal).expect("trailing damage tolerated");
    assert!(loaded.dropped_partial);
    assert_eq!(loaded.done_count(), 1, "the damaged record was dropped");

    // Resume re-runs the damaged cell and still converges to the same bytes.
    let resumed = run_sweep(
        &[&TINY],
        &SweepOptions {
            seeds: SEEDS,
            workers: 2,
            journal: Some(journal.clone()),
            ..SweepOptions::default()
        },
    )
    .expect("resumed sweep");
    assert!(resumed.complete);
    assert_eq!(resumed.resumed, 1);
    let reference = sweep(SweepOptions {
        seeds: SEEDS,
        workers: 1,
        ..SweepOptions::default()
    });
    assert_identical(&reference[0], &resumed.runs[0]);
    let _ = std::fs::remove_file(&journal);
}

static POISON_PROTOCOL: [Protocol; 1] = [Protocol::SFama];

/// Env var the poisoned spec checks; set = the cell's config is invalid,
/// so the cell panics inside the worker.
const POISON_ENV: &str = "UASN_LAB_E2E_POISON";

fn poison_configure(load: f64) -> SimConfig {
    let sensors = if std::env::var_os(POISON_ENV).is_some() {
        0 // invalid: rejected by validate(), so the cell panics
    } else {
        8
    };
    SimConfig::paper_default()
        .with_sensors(sensors)
        .with_offered_load_kbps(load)
        .with_sim_time(SimDuration::from_secs(30))
}

static POISON: FigureSpec = FigureSpec {
    id: "POISON",
    title: "poisoned cell",
    x_label: "load kbps",
    y_label: "throughput (kbps)",
    xs: &[0.2],
    protocols: &POISON_PROTOCOL,
    configure: poison_configure,
    metric: Metric::ThroughputKbps,
    normalized: false,
};

#[test]
fn panicked_cell_is_journaled_as_failed_and_retried_on_resume() {
    let journal = tmp("poison");
    let _ = std::fs::remove_file(&journal);

    std::env::set_var(POISON_ENV, "1");
    let first = run_sweep(
        &[&POISON],
        &SweepOptions {
            seeds: 1,
            workers: 1,
            journal: Some(journal.clone()),
            ..SweepOptions::default()
        },
    )
    .expect("a panicking cell is not a sweep error");
    std::env::remove_var(POISON_ENV);
    assert!(!first.complete);
    assert_eq!(first.failed.len(), 1);
    let (job, error) = &first.failed[0];
    assert_eq!(job, "POISON/p00/s-fama/s000");
    assert!(
        error.contains("rejected"),
        "panic message recorded: {error}"
    );

    // The failure is durable in the journal ...
    let loaded = LoadedJournal::load(&journal).expect("load");
    assert_eq!(loaded.failed().len(), 1);
    assert_eq!(loaded.done_count(), 0);

    // ... and a resume retries it (the poison is gone, so it succeeds).
    let second = run_sweep(
        &[&POISON],
        &SweepOptions {
            seeds: 1,
            workers: 1,
            journal: Some(journal.clone()),
            ..SweepOptions::default()
        },
    )
    .expect("resume");
    assert!(second.complete, "retried cell succeeded");
    assert!(second.failed.is_empty());
    assert_eq!(second.resumed, 0, "failed cells are re-run, not skipped");
    assert_eq!(second.completed, 1);
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn status_reports_progress_failures_and_damage() {
    // Build a journal by hand against a real registry figure so `status`
    // can re-expand the job table without running any cells.
    let journal = tmp("status");
    let spec = SweepSpec {
        figures: vec!["F6".to_string()],
        seeds: 1,
    };
    let mut writer = JournalWriter::create(&journal, &spec.to_json()).expect("create");
    writer
        .record_done("F6/p00/s-fama/s000", 0, 1_000, &JsonValue::from_u64(0))
        .expect("done record");
    writer
        .record_failed("F6/p01/ew-mac/s000", "boom")
        .expect("failed record");
    drop(writer);

    let report = status(&journal).expect("status");
    assert_eq!(report.figures, vec!["F6".to_string()]);
    assert_eq!(report.seeds, 1);
    let f6 = uasn_bench::figures::by_id("F6").unwrap();
    assert_eq!(report.total, f6.cells(1));
    assert_eq!(report.done, 1);
    assert_eq!(report.pending(), f6.cells(1) - 1);
    assert_eq!(
        report.failed,
        vec![("F6/p01/ew-mac/s000".to_string(), "boom".to_string())]
    );
    let rendered = report.render();
    assert!(
        rendered.contains("failed: F6/p01/ew-mac/s000: boom"),
        "{rendered}"
    );
    assert!(!report.dropped_partial);

    // Chop the trailing record: status flags the damage.
    let text = std::fs::read_to_string(&journal).expect("read");
    std::fs::write(&journal, &text[..text.len() - 10]).expect("truncate");
    let report = status(&journal).expect("status after damage");
    assert!(report.dropped_partial);
    assert!(report.render().contains("truncated trailing record"));
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn zero_seed_sweep_is_rejected_before_writing_anything() {
    let journal = tmp("zero-seeds");
    let out = std::env::temp_dir().join(format!("uasn-lab-e2e-zero-out-{}", std::process::id()));
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_dir_all(&out);
    let err = run_sweep(
        &[&TINY],
        &SweepOptions {
            seeds: 0,
            journal: Some(journal.clone()),
            quiet: true,
            ..SweepOptions::default()
        },
    )
    .map(|_| ())
    .expect_err("a zero-seed sweep has no cells to report");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert!(!journal.exists(), "no journal for a rejected sweep");

    // The same through the CLI: a nonzero exit, and no journal, CSV or
    // manifest that could pass for a real result.
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_lab"))
        .args(["run", "--figures", "fig6", "--seeds", "0", "--quiet"])
        .arg("--journal")
        .arg(&journal)
        .arg("--out")
        .arg(&out)
        .status()
        .expect("lab runs");
    assert!(!status.success(), "lab run --seeds 0 must fail");
    assert!(!journal.exists(), "no journal for a rejected sweep");
    assert!(!out.join("F6.csv").exists(), "no figure CSV");
    assert!(!out.join("F6.manifest.json").exists(), "no manifest");
    let _ = std::fs::remove_dir_all(&out);
}
