//! End-to-end telemetry check on the `ppsim` binary: `--metrics` and
//! `--trace` outputs must round-trip through the in-repo JSON readers.
//!
//! This is the same validation the CI smoke job performs, kept as a test so
//! it runs under plain `cargo test` too.

use population_protocols::core::engine::json::{parse_jsonl, Json};
use population_protocols::core::engine::metrics::MetricsReport;
use std::path::PathBuf;
use std::process::Command;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ppsim-telemetry-{}-{name}", std::process::id()))
}

/// Runs `ppsim` with the given args plus `--metrics`/`--trace`, and returns
/// the parsed metrics report and trace records.
fn run_with_telemetry(label: &str, args: &[&str]) -> (MetricsReport, Vec<Json>) {
    let metrics_path = tmp(&format!("{label}.json"));
    let trace_path = tmp(&format!("{label}.jsonl"));
    let status = Command::new(env!("CARGO_BIN_EXE_ppsim"))
        .args(args)
        .arg("--metrics")
        .arg(&metrics_path)
        .arg("--trace")
        .arg(&trace_path)
        .status()
        .expect("spawn ppsim");
    assert!(status.success(), "{label}: ppsim exited with {status}");

    let mtext = std::fs::read_to_string(&metrics_path).expect("read metrics file");
    let report = MetricsReport::parse(&mtext).expect("metrics file parses");
    let ttext = std::fs::read_to_string(&trace_path).expect("read trace file");
    let records = parse_jsonl(&ttext).expect("trace file parses as JSONL");
    let _ = std::fs::remove_file(&metrics_path);
    let _ = std::fs::remove_file(&trace_path);
    (report, records)
}

/// Every trace must contain the root `run` span with the command name and a
/// recorded exit code; all records carry the mandatory kind/name/t_s keys.
fn assert_trace_shape(records: &[Json], command: &str) {
    assert!(!records.is_empty(), "trace has records");
    for rec in records {
        let kind = rec.get("kind").and_then(Json::as_str).expect("kind");
        assert!(kind == "span" || kind == "event", "kind {kind:?}");
        assert!(rec.get("name").and_then(Json::as_str).is_some());
        assert!(rec.get("t_s").and_then(Json::as_f64).is_some());
    }
    let root = records
        .iter()
        .find(|r| r.get("name").and_then(Json::as_str) == Some("run"))
        .expect("root `run` span present");
    assert_eq!(root.get("command").and_then(Json::as_str), Some(command));
    assert_eq!(root.get("exit_code").and_then(Json::as_u64), Some(0));
    assert!(root.get("dur_s").and_then(Json::as_f64).is_some());
}

#[test]
fn leader_telemetry_round_trips() {
    // The CI smoke configuration. The w.h.p. leader program is resolved
    // entirely by the language executor (no engine backend), so engine
    // counters may legitimately all be zero — the check is that both files
    // exist and parse, and the trace records convergence.
    let (report, records) = run_with_telemetry("leader", &["leader", "--n", "2000"]);
    assert!(report.counter("interactions_executed") < u64::MAX);
    assert_trace_shape(&records, "leader");
    assert!(
        records
            .iter()
            .any(|r| r.get("name").and_then(Json::as_str) == Some("converged")),
        "leader trace records a converged event"
    );
}

#[test]
fn oscillator_telemetry_round_trips() {
    let (report, records) = run_with_telemetry(
        "oscillator",
        &["oscillator", "--n", "2000", "--rounds", "10", "--seed", "3"],
    );
    // The oscillator runs on CountPopulation, so the hot-path counters must
    // be live: 10 rounds at n = 2000 executes 20000 interactions.
    assert_eq!(report.counter("interactions_executed"), 20_000);
    assert!(report.counter("batches") > 0);
    assert!(report.hist_count("batch_size") > 0);
    assert_trace_shape(&records, "oscillator");
    assert!(
        records
            .iter()
            .any(|r| r.get("name").and_then(Json::as_str) == Some("batch")),
        "oscillator trace records per-batch events"
    );
}

#[test]
fn unknown_flag_is_a_hard_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_ppsim"))
        .args(["leader", "--n", "100", "--bogus", "1"])
        .output()
        .expect("spawn ppsim");
    assert!(!out.status.success(), "unknown flag must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag --bogus"), "stderr: {stderr}");

    // Runs are single-threaded and exact; there is no thread knob.
    let out = Command::new(env!("CARGO_BIN_EXE_ppsim"))
        .args(["oscillator", "--threads", "2"])
        .output()
        .expect("spawn ppsim");
    assert!(!out.status.success(), "--threads must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag --threads"), "stderr: {stderr}");
}
