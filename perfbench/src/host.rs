//! Host and configuration facts every result records.
//!
//! Machine facts are read from `/proc`; the git revision and the compiler
//! version come from `run.py` through the environment.

use std::fs;

use pp_engine::json::Json;

/// Peak resident set size of this process (`VmHWM`), in MB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

fn status_kb(key: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// A fact the wrapper script passes in the environment.
fn env_or_unknown(key: &str) -> String {
    std::env::var(key).unwrap_or_else(|_| "unknown".into())
}

/// The host record: cores, CPU, worker pin, and the revision and compiler
/// that `run.py` reports.
#[must_use]
pub fn record() -> Json {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let threads = std::env::var("PP_THREADS").unwrap_or_else(|_| "unset".into());
    Json::obj([
        ("host_cores", Json::from(cores)),
        ("cpu_model", Json::from(cpu_model())),
        ("pp_threads", Json::from(threads)),
        ("git_rev", Json::from(env_or_unknown("PERFBENCH_GIT_REV"))),
        ("rustc", Json::from(env_or_unknown("PERFBENCH_RUSTC"))),
    ])
}
