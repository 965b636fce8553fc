//! Perf-trajectory history: append-only `BENCH_history.jsonl` records.
//!
//! Every bench measurement (the engine bench, e10, e11) is one
//! `{"kind":"bench_run",...}` JSON line carrying the bench id, scenario,
//! population size, metric name and rate, stamped with the git revision
//! the harness ran at, a unix timestamp and the host's core count. There
//! are no snapshot files: a regression shows as the difference between two
//! such files. `ppsim bench-diff` compares them (each file's rate for a
//! `bench/scenario/n/metric` key is the median of its records of that
//! key), and the CI `bench-regression` job, which appends five alternating
//! engine smoke runs of the parent and of the change to one file each,
//! fails when a shared rate of the change drops below the parent's by more
//! than the tolerance.
//!
//! Records are appended only where the `BENCH_HISTORY` environment
//! variable points; without it nothing is written, so a verification run
//! (`e10 --quick`, the engine bench) never adds rows to the committed
//! `BENCH_history.jsonl`. CI diffs the parent against the change: it runs
//! both revisions' smoke benches on one runner, each into a fresh file of
//! its own, and `bench-diff`s the two. The committed file is historical —
//! records from other hosts — and no build, test or CI step reads it.

use pp_engine::json::Json;
use std::path::PathBuf;

/// One bench measurement bound for the history file.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryRecord {
    /// Bench id (e.g. `"engine_dense"`).
    pub bench: &'static str,
    /// Workload within the bench (e.g. `"dense_cycle3"`).
    pub scenario: &'static str,
    /// Population size the rate was measured at.
    pub n: u64,
    /// Metric name (e.g. `"batch_per_sec"`).
    pub metric: &'static str,
    /// Measured rate, in the metric's natural unit (per second).
    pub rate: f64,
}

/// Where history records go: `$BENCH_HISTORY`, or nowhere when it is
/// unset or empty.
#[must_use]
pub fn history_path() -> Option<PathBuf> {
    std::env::var_os("BENCH_HISTORY")
        .filter(|p| !p.is_empty())
        .map(PathBuf::from)
}

/// Short git revision of the working tree, or `"unknown"` outside a
/// checkout (e.g. a source tarball).
#[must_use]
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Cores visible to this process; every record states them, since a rate
/// only compares against one measured on the same host.
#[must_use]
pub fn host_cores() -> u64 {
    std::thread::available_parallelism().map_or(1, |c| c.get() as u64)
}

/// Renders one record as its `bench_run` JSON document.
#[must_use]
pub fn record_json(rec: &HistoryRecord, rev: &str, unix_ts: u64, host_cores: u64) -> Json {
    Json::obj([
        ("kind", Json::from("bench_run")),
        ("bench", Json::from(rec.bench)),
        ("scenario", Json::from(rec.scenario)),
        ("n", Json::from(rec.n)),
        ("metric", Json::from(rec.metric)),
        ("rate", Json::from(rec.rate)),
        ("git_rev", Json::from(rev)),
        ("unix_ts", Json::from(unix_ts)),
        ("host_cores", Json::from(host_cores)),
    ])
}

/// Appends `records` to [`history_path`] as JSON Lines, stamping all of
/// them with the current git revision, wall-clock timestamp and
/// [`host_cores`]; without a path it does nothing. Creates the file (and
/// parent directories) on first use; errors are reported to stderr but
/// never fail the bench — losing a history line must not turn a successful
/// measurement run red.
pub fn append(records: &[HistoryRecord]) {
    let Some(path) = history_path() else {
        return;
    };
    if records.is_empty() {
        return;
    }
    let rev = git_rev();
    let cores = host_cores();
    let unix_ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    use std::io::Write as _;
    // One O_APPEND write per record line: a crash mid-append tears at most
    // the record being written — always the file's final line, which
    // `ppsim bench-diff` skips with a warning — and every earlier record
    // in the batch is already durable on its own line.
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| {
            for rec in records {
                let mut line = record_json(rec, &rev, unix_ts, cores).render();
                line.push('\n');
                f.write_all(line.as_bytes())?;
            }
            Ok(())
        });
    match appended {
        Ok(()) => println!(
            "appended {} bench_run record(s) to {}",
            records.len(),
            path.display()
        ),
        Err(e) => eprintln!(
            "warning: cannot append bench history {}: {e}",
            path.display()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_json_has_the_bench_diff_key_fields() {
        let rec = HistoryRecord {
            bench: "engine_dense",
            scenario: "dense_cycle3",
            n: 1_000_000,
            metric: "batch_per_sec",
            rate: 5.7e8,
        };
        let doc = record_json(&rec, "abc1234", 1_754_000_000, 2);
        assert_eq!(doc.get("kind").and_then(Json::as_str), Some("bench_run"));
        assert_eq!(
            doc.get("bench").and_then(Json::as_str),
            Some("engine_dense")
        );
        assert_eq!(
            doc.get("scenario").and_then(Json::as_str),
            Some("dense_cycle3")
        );
        assert_eq!(doc.get("n").and_then(Json::as_u64), Some(1_000_000));
        assert_eq!(
            doc.get("metric").and_then(Json::as_str),
            Some("batch_per_sec")
        );
        assert_eq!(doc.get("rate").and_then(Json::as_f64), Some(5.7e8));
        assert_eq!(doc.get("git_rev").and_then(Json::as_str), Some("abc1234"));
        assert_eq!(
            doc.get("unix_ts").and_then(Json::as_u64),
            Some(1_754_000_000)
        );
        assert_eq!(doc.get("host_cores").and_then(Json::as_u64), Some(2));
        // The rendered line parses back — bench-diff reads these verbatim.
        let back = Json::parse(&doc.render()).expect("bench_run line parses");
        assert_eq!(back, doc);
    }
}
