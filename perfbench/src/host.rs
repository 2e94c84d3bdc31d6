//! The host fingerprint printed beside every result, and the process's
//! peak resident set. Wall times compare only between runs with the same
//! fingerprint.

use uasn_sim::json::JsonValue;

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// CPU model, available parallelism, compiler and build profile.
pub fn fingerprint() -> JsonValue {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    JsonValue::Object(vec![
        ("cpu".to_string(), JsonValue::from_string(cpu_model())),
        ("nproc".to_string(), JsonValue::from_u64(nproc as u64)),
        (
            "rustc".to_string(),
            JsonValue::from_string(env!("PERFBENCH_RUSTC")),
        ),
        ("profile".to_string(), JsonValue::from_string(profile)),
    ])
}

/// The process's peak resident set (`VmHWM`), MB; 0 where unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
