//! Metric catalogs and the result line.
//!
//! The two catalogs are the benchmark's public vocabulary: every name here
//! is listed in `BENCHMARK.json` with the same unit (a unit test checks
//! it), and later performance claims cite them.

use std::collections::BTreeMap;

use uasn_sim::json::JsonValue;

use crate::stats::Tally;

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload in the traced run; a
/// metric that does not apply to the workload reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.events", "count"),
    ("sim.events_scheduled", "count"),
    ("sim.peak_queue_depth", "count"),
    ("sim.loop_s", "s"),
    ("sim.pop_s", "s"),
    ("sim.trace_emit_s", "s"),
    ("net.deploy_s", "s"),
    ("net.stranded_s", "s"),
    ("net.two_hop_s", "s"),
    ("net.build_other_s", "s"),
    ("net.finalize_s", "s"),
    ("net.fanout_mean", "count"),
    ("phy.cache.hits", "count"),
    ("phy.cache.misses", "count"),
    ("phy.cache.invalidations", "count"),
    ("phy.cache.cull_rejects", "count"),
    ("phy.cache.audibility_rejects", "count"),
    ("phy.cache.hit_rate", "ratio"),
    ("core.handler_s", "s"),
    ("core.calls", "count"),
    ("core.install_s", "s"),
    ("baselines.handler_s", "s"),
    ("baselines.calls", "count"),
    ("baselines.install_s", "s"),
    ("route.sdus", "count"),
    ("route.retx_bits", "bit"),
    ("audit.accept_s", "s"),
    ("audit.records", "count"),
    ("audit.peak_tracked", "count"),
    ("lab.cell_busy_s", "s"),
    ("lab.worker_idle_frac", "ratio"),
    ("lab.journal_bytes", "B"),
    ("labd.submit_s", "s"),
    ("labd.summary_s", "s"),
    ("labd.stream_lines", "count"),
    ("labd.requests", "count"),
    ("cell_p50_s", "s"),
    ("cell_p90_s", "s"),
    ("job_p50_s", "s"),
    ("job_p90_s", "s"),
    ("first_line_p50_s", "s"),
    ("first_line_p90_s", "s"),
    ("trace_overhead_pct", "%"),
];

/// Metric values collected by a workload, by name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Sets `name` (which must be in one of the catalogs).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(unit_of(name).is_some(), "{name} is not in a metric catalog");
        self.values.insert(name, value);
    }

    /// Adds to `name`, starting from 0.
    pub fn add(&mut self, name: &'static str, value: f64) {
        debug_assert!(unit_of(name).is_some(), "{name} is not in a metric catalog");
        *self.values.entry(name).or_insert(0.0) += value;
    }

    /// Raises `name` to at least `value`.
    pub fn max(&mut self, name: &'static str, value: f64) {
        let slot = self.values.entry(name).or_insert(0.0);
        *slot = slot.max(value);
    }

    /// The value of `name`, 0 if unset.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Whether `name` was set.
    pub fn has(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

/// Renders the result line: exactly the end-to-end metrics, or with
/// `traced` exactly the per-layer ones, each with its unit. Unset
/// per-layer metrics read 0; an unset end-to-end metric or a non-finite
/// value is a harness bug and panics.
pub fn result_line(correct: bool, tally: Tally, metrics: &Metrics, traced: bool) -> String {
    let catalog = if traced { PER_LAYER } else { END_TO_END };
    let fields = catalog
        .iter()
        .map(|&(name, unit)| {
            assert!(
                traced || metrics.has(name),
                "end-to-end metric {name} was not measured"
            );
            let value = metrics.get(name);
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            (
                name.to_string(),
                JsonValue::Object(vec![
                    ("value".to_string(), JsonValue::from_f64(value)),
                    ("unit".to_string(), JsonValue::from_string(unit)),
                ]),
            )
        })
        .collect();
    JsonValue::Object(vec![
        ("correct".to_string(), JsonValue::Bool(correct)),
        (
            "attempted".to_string(),
            JsonValue::from_u64(tally.attempted),
        ),
        ("failed".to_string(), JsonValue::from_u64(tally.failed)),
        ("metrics".to_string(), JsonValue::Object(fields)),
    ])
    .to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalogs and `BENCHMARK.json` must name the same metrics with
    /// the same units, in the same order.
    #[test]
    fn catalogs_match_benchmark_json() {
        let doc = JsonValue::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        for (key, catalog) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(JsonValue::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |k| m.get(k).and_then(JsonValue::as_str).expect(k).to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = catalog
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }

    #[test]
    fn result_line_fills_unset_layer_metrics_with_zero() {
        let mut m = Metrics::default();
        m.add("sim.events", 2.0);
        m.add("sim.events", 3.0);
        m.max("audit.peak_tracked", 7.0);
        m.max("audit.peak_tracked", 4.0);
        let line = result_line(
            true,
            Tally {
                attempted: 3,
                failed: 0,
            },
            &m,
            true,
        );
        let doc = JsonValue::parse(&line).expect("valid JSON");
        let metrics = doc.get("metrics").expect("metrics");
        let value = |n: &str| {
            metrics
                .get(n)
                .and_then(|v| v.get("value"))
                .and_then(JsonValue::as_f64)
                .expect(n)
        };
        assert_eq!(value("sim.events"), 5.0);
        assert_eq!(value("audit.peak_tracked"), 7.0);
        assert_eq!(value("labd.requests"), 0.0);
        assert_eq!(doc.get("attempted").and_then(JsonValue::as_u64), Some(3));
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn result_line_refuses_a_missing_end_to_end_metric() {
        result_line(true, Tally::default(), &Metrics::default(), false);
    }
}
