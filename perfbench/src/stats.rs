//! The benchmark's own arithmetic: medians, the tail-percentile rule,
//! failure counting, the iteration window, and the derived per-layer
//! figures. Everything here is pure so the unit tests pin it exactly.

use std::time::Duration;

/// Fewest samples that must lie beyond a reported high percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Median of `samples` (mean of the middle two for even counts; 0 for an
/// empty slice).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The nearest-rank `q` quantile of `samples` (`0 < q < 1`), reported only
/// when at least [`TAIL_SAMPLES`] samples lie beyond its rank; `None`
/// otherwise.
pub fn tail_percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < TAIL_SAMPLES {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// Attempted and failed operations (cells, runs, jobs, HTTP requests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that panicked, errored, failed their output check or
    /// were refused (HTTP 429/503).
    pub failed: u64,
}

impl Tally {
    /// Counts one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts one HTTP request by its outcome: a transport error or any
    /// non-2xx status fails it, refusals (429, 503) included.
    pub fn record_http(&mut self, status: Option<u16>) {
        self.record(status.is_some_and(|s| (200..300).contains(&s)));
    }

    /// Folds another tally in.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Whether another iteration fits in `budget`: always until `min` have
/// run, then only if the elapsed time plus the longest iteration so far
/// stays within the budget.
pub fn another_fits(elapsed: Duration, done: &[Duration], budget: Duration, min: usize) -> bool {
    if done.len() < min {
        return true;
    }
    let longest = done.iter().max().copied().unwrap_or_default();
    elapsed + longest <= budget
}

/// `lab.worker_idle_frac`: 1 − busy / (workers × wall).
pub fn worker_idle_frac(busy_s: f64, workers: usize, wall_s: f64) -> f64 {
    let capacity = workers as f64 * wall_s;
    if capacity > 0.0 {
        1.0 - busy_s / capacity
    } else {
        0.0
    }
}

/// `net.finalize_s`: the part of `run_full` outside the event loop.
pub fn finalize_s(run_full_s: f64, loop_s: f64) -> f64 {
    run_full_s - loop_s
}

/// `sim.trace_emit_s`: a monitored run's wall, minus what the monitor
/// sink spent accepting records, minus the same run with no sink.
pub fn trace_emit_s(monitored_s: f64, accept_s: f64, plain_s: f64) -> f64 {
    monitored_s - accept_s - plain_s
}

/// `trace_overhead_pct`: how much longer the traced iteration ran than
/// the untraced one, in percent.
pub fn overhead_pct(traced_s: f64, untraced_s: f64) -> f64 {
    if untraced_s > 0.0 {
        (traced_s / untraced_s - 1.0) * 100.0
    } else {
        0.0
    }
}

/// `phy.cache.hit_rate`: hits over lookups (0 with no lookups).
pub fn hit_rate(hits: u64, misses: u64) -> f64 {
    let lookups = hits + misses;
    if lookups == 0 {
        0.0
    } else {
        hits as f64 / lookups as f64
    }
}

/// 64-bit FNV-1a: the digest the output checks pin.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: the helpers must sort.
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        // 100 samples: rank 90, ten beyond — reported.
        assert_eq!(tail_percentile(&ramp(100), 0.9), Some(90.0));
        // 99 samples: rank ceil(89.1) = 90, nine beyond — withheld.
        assert_eq!(tail_percentile(&ramp(99), 0.9), None);
        // 200 samples: rank 180, twenty beyond.
        assert_eq!(tail_percentile(&ramp(200), 0.9), Some(180.0));
        assert_eq!(tail_percentile(&[], 0.9), None);
    }

    #[test]
    fn p50_is_nearest_rank_and_needs_twenty_samples() {
        assert_eq!(tail_percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(tail_percentile(&ramp(19), 0.5), None);
        assert_eq!(tail_percentile(&ramp(21), 0.5), Some(11.0));
    }

    #[test]
    fn tally_counts_errors_and_refusals_as_failed() {
        let mut t = Tally::default();
        t.record(true);
        t.record(false); // a panic or a failed output check
        t.record_http(Some(200));
        t.record_http(Some(204));
        t.record_http(Some(429)); // admission queue full
        t.record_http(Some(503)); // draining
        t.record_http(Some(404));
        t.record_http(None); // transport error
        assert_eq!(
            t,
            Tally {
                attempted: 8,
                failed: 5
            }
        );
        assert_eq!(t.failed_frac(), 5.0 / 8.0);
        let mut sum = Tally::default();
        sum.merge(t);
        sum.merge(Tally {
            attempted: 2,
            failed: 0,
        });
        assert_eq!(sum.failed_frac(), 0.5);
        assert_eq!(Tally::default().failed_frac(), 0.0);
    }

    #[test]
    fn window_runs_the_minimum_then_stops_before_overrunning() {
        let s = Duration::from_secs;
        assert!(another_fits(s(50), &[], s(10), 1));
        assert!(another_fits(s(50), &[s(50)], s(10), 2));
        assert!(!another_fits(s(8), &[s(3), s(5)], s(10), 1));
        assert!(another_fits(s(5), &[s(3), s(2)], s(10), 1));
    }

    #[test]
    fn derived_layer_figures() {
        // Two workers over 10 s with 15 s of cell time: a quarter idle.
        assert_eq!(worker_idle_frac(15.0, 2, 10.0), 0.25);
        assert_eq!(worker_idle_frac(0.0, 2, 0.0), 0.0);
        assert_eq!(finalize_s(2.5, 2.0), 0.5);
        assert_eq!(trace_emit_s(4.5, 3.5, 0.25), 0.75);
        assert_eq!(overhead_pct(1.5, 1.0), 50.0);
        assert_eq!(overhead_pct(1.0, 0.0), 0.0);
        assert_eq!(hit_rate(3, 1), 0.75);
        assert_eq!(hit_rate(0, 0), 0.0);
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
