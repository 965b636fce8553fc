//! End-to-end check on the `ppsim` run record: `--record` writes one JSON
//! Lines file (a `run` header, the run's event lines, and the engine's
//! metrics report as the footer) that round-trips through the in-repo JSON
//! readers, and two runs with the same arguments write the same bytes. The
//! footer's counters are the one record of the engine's batches and regime
//! decisions: no line is written per batch.
//!
//! This is the same validation the CI smoke job performs, kept as a test so
//! it runs under plain `cargo test` too.

use population_protocols::engine::json::{parse_jsonl, Json};
use population_protocols::engine::metrics::MetricsReport;
use std::path::PathBuf;
use std::process::Command;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ppsim-telemetry-{}-{name}", std::process::id()))
}

/// Runs `ppsim` with `args` plus `--record`; returns its stdout and the
/// record's bytes.
fn run_recorded(label: &str, args: &[&str]) -> (String, Vec<u8>) {
    let path = tmp(&format!("{label}.jsonl"));
    let out = Command::new(env!("CARGO_BIN_EXE_ppsim"))
        .args(args)
        .arg("--record")
        .arg(&path)
        .output()
        .expect("spawn ppsim");
    assert!(
        out.status.success(),
        "{label}: ppsim exited with {}",
        out.status
    );
    let bytes = std::fs::read(&path).expect("read the record");
    let _ = std::fs::remove_file(&path);
    (String::from_utf8(out.stdout).expect("utf8 stdout"), bytes)
}

/// A parsed run record: the header, the event lines, and the footer.
struct Record {
    header: Json,
    events: Vec<Json>,
    footer: MetricsReport,
}

impl Record {
    /// Parses a record, checking that the header comes first and names
    /// `command`, and that the footer is a metrics report.
    fn parse(bytes: &[u8], command: &str) -> Self {
        let text = std::str::from_utf8(bytes).expect("utf8 record");
        let mut lines = parse_jsonl(text).expect("the record is JSONL");
        let last = text.lines().last().expect("the record has lines");
        let footer = MetricsReport::parse(last).expect("the footer is a metrics report");
        lines.pop();
        let header = lines.remove(0);
        assert_eq!(header.get("kind").and_then(Json::as_str), Some("run"));
        assert_eq!(header.get("command").and_then(Json::as_str), Some(command));
        for key in ["n", "seed", "host_cores"] {
            assert!(header.get(key).and_then(Json::as_u64).is_some(), "{key}");
        }
        assert!(header.get("backend").and_then(Json::as_str).is_some());
        for line in &lines {
            let kind = line.get("kind").and_then(Json::as_str).expect("kind");
            assert!(
                kind != "run" && kind != "metrics_report",
                "{kind} mid-record"
            );
            for clock in ["t_s", "dur_s"] {
                assert!(line.get(clock).is_none(), "{kind} line carries {clock}");
            }
        }
        Self {
            header,
            events: lines,
            footer,
        }
    }

    fn run_id(&self) -> &str {
        self.header
            .get("run")
            .and_then(Json::as_str)
            .expect("the header names the run id")
    }

    /// The event lines of `kind`.
    fn of(&self, kind: &str) -> Vec<&Json> {
        self.events
            .iter()
            .filter(|l| l.get("kind").and_then(Json::as_str) == Some(kind))
            .collect()
    }

    /// The observable lines of `kind`, each checked to name the run id.
    fn observables(&self, kind: &str) -> Vec<&Json> {
        let lines = self.of(kind);
        for line in &lines {
            assert_eq!(line.get("run").and_then(Json::as_str), Some(self.run_id()));
        }
        lines
    }

    /// The engine's batches are counted in the footer, not logged one line
    /// each.
    fn assert_no_dispatch_line(&self) {
        assert!(self.of("dispatch").is_empty(), "a per-batch dispatch line");
    }
}

#[test]
fn leader_telemetry_round_trips() {
    // The CI smoke configuration. The w.h.p. leader program runs no engine
    // batch (its sites hold no rules), so its footer counts none; the
    // always-correct program runs sparse sites.
    for command in ["leader", "leader-exact"] {
        let (_, bytes) = run_recorded(command, &[command, "--n", "2000"]);
        let record = Record::parse(&bytes, command);
        assert_eq!(record.header.get("n").and_then(Json::as_u64), Some(2000));
        let leaders = record.observables("leaders");
        assert!(
            leaders.len() > 1,
            "{command}: one leader count per iteration"
        );
        let counts: Vec<u64> = leaders
            .iter()
            .map(|l| l.get("count").and_then(Json::as_u64).expect("count"))
            .collect();
        assert_eq!(
            counts.first(),
            Some(&2000),
            "{command}: everyone starts a leader"
        );
        assert_eq!(counts.last(), Some(&1), "{command}: one leader at the end");
        record.assert_no_dispatch_line();
        let batches = record.footer.counter("batches");
        assert_eq!(
            batches > 0,
            command == "leader-exact",
            "{command}: {batches} batches"
        );
    }
}

#[test]
fn oscillator_telemetry_round_trips() {
    let args = ["oscillator", "--n", "2000", "--rounds", "10", "--seed", "3"];
    let (_, bytes) = run_recorded("oscillator", &args);
    let record = Record::parse(&bytes, "oscillator");
    // The oscillator runs on CountPopulation, so the hot-path counters must
    // be live: 10 rounds at n = 2000 executes 20000 interactions.
    assert_eq!(record.footer.counter("interactions_executed"), 20_000);
    assert!(record.footer.counter("batches") > 0);
    assert!(record.footer.hist_count("batch_size") > 0);
    record.assert_no_dispatch_line();
    assert_eq!(
        record.observables("species").len(),
        10,
        "one species row per round"
    );

    // Long enough to rotate: the period lines are the periods the stdout
    // summary averages.
    let args = [
        "oscillator",
        "--n",
        "2000",
        "--rounds",
        "200",
        "--seed",
        "3",
    ];
    let (stdout, bytes) = run_recorded("oscillator-long", &args);
    let record = Record::parse(&bytes, "oscillator");
    record.assert_no_dispatch_line();
    let periods: Vec<f64> = record
        .observables("period")
        .iter()
        .map(|l| l.get("rounds").and_then(Json::as_f64).expect("rounds"))
        .collect();
    assert!(!periods.is_empty(), "200 rounds complete a rotation");
    let mean = periods.iter().sum::<f64>() / periods.len() as f64;
    assert!(
        stdout.contains(&format!("mean period {mean:.1} rounds")),
        "record mean {mean:.1} vs {stdout}"
    );
}

/// An exact program runs one engine batch per site of every iteration,
/// and polynomially many iterations: its record is still the header and the
/// footer alone, the footer counting every batch.
#[test]
fn exact_program_record_is_header_and_footer() {
    let (_, bytes) = run_recorded("parity", &["parity", "--n", "200", "--seed", "9"]);
    let text = std::str::from_utf8(&bytes).expect("utf8 record");
    assert_eq!(text.lines().count(), 2, "header and footer only");
    let record = Record::parse(&bytes, "parity");
    assert!(record.events.is_empty());
    assert!(record.footer.counter("batches") > 1, "every batch counted");
}

#[test]
fn same_seed_runs_write_identical_records() {
    for args in [
        &["leader", "--n", "2000"][..],
        &["faults", "--n", "4000", "--seed", "7"][..],
    ] {
        let (_, first) = run_recorded("same-a", args);
        let (_, second) = run_recorded("same-b", args);
        assert!(first == second, "{args:?}: records differ");
        let record = Record::parse(&first, args[0]);
        if args[0] == "faults" {
            assert_eq!(record.header.get("n").and_then(Json::as_u64), Some(4000));
            let faults = record.of("fault_event");
            assert!(!faults.is_empty(), "the default spec injects");
            assert_eq!(
                faults.len() as u64,
                record.footer.counter("fault_injections")
            );
        }
    }
}

/// An experiment run through `ppsim` with `--record` writes a header that
/// names it, one `row` line per row of its table, and the metrics footer of
/// its sweeps. Its stdout is the unrecorded
/// run's, and two runs write the same bytes, footer included: no line
/// carries a wall time.
#[test]
fn experiment_record_holds_its_table_rows() {
    let args = ["e3_x_elimination", "--quick"];
    let (stdout, bytes) = run_recorded("e3", &args);
    let (_, again) = run_recorded("e3-again", &args);
    assert!(bytes == again, "e3 records differ");
    let plain = Command::new(env!("CARGO_BIN_EXE_ppsim"))
        .args(args)
        .output()
        .expect("spawn ppsim");
    assert_eq!(String::from_utf8_lossy(&plain.stdout), stdout);
    let text = String::from_utf8(bytes).expect("utf8 record");
    let mut lines = parse_jsonl(&text).expect("the record is JSONL");
    let footer = MetricsReport::parse(text.lines().last().expect("a footer"))
        .expect("the footer is a metrics report");
    assert!(footer.counter("interactions_executed") > 0, "sweeps count");
    lines.pop();
    let header = lines.remove(0);
    assert_eq!(header.get("kind").and_then(Json::as_str), Some("run"));
    assert_eq!(
        header.get("command").and_then(Json::as_str),
        Some("e3_x_elimination")
    );
    let run = header.get("run").and_then(Json::as_str).expect("run id");
    // Two values of eps over the three --quick population sizes.
    assert_eq!(lines.len(), 6, "{text}");
    for row in &lines {
        assert_eq!(row.get("kind").and_then(Json::as_str), Some("row"));
        assert_eq!(row.get("run").and_then(Json::as_str), Some(run));
        assert_eq!(
            row.get("table").and_then(Json::as_str),
            Some("e3_x_elimination")
        );
        let cells = row.get("cells").expect("cells");
        assert!(cells.get("n").and_then(Json::as_str).is_some(), "{row:?}");
    }
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

    // Each command takes only the flags its row of the command table
    // declares, experiments (run through `ppsim`) included.
    for args in [
        &["leader", "--n", "100", "--builtin", "nope", "--spec", "x"][..],
        &["majority", "--n", "100", "--checkpoint-every", "10"],
        &["oscillator", "--iters", "5", "--a", "3"],
        &["e3_x_elimination", "--quick", "--bogus"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_ppsim"))
            .args(args)
            .output()
            .expect("spawn ppsim");
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let flag = args
            .iter()
            .find(|a| a.starts_with("--") && **a != "--n" && **a != "--quick");
        let flag = flag.expect("a foreign flag");
        assert!(
            stderr.contains(&format!("unknown flag {flag} ")),
            "{args:?}: {stderr}"
        );
    }

    // Runs are single-threaded and exact; there is no thread knob. The
    // output flags `--record` replaced are gone too.
    for (command, flag) in [
        ("oscillator", "--threads"),
        ("oscillator", "--metrics"),
        ("leader", "--trace"),
        ("faults", "--faults-log"),
        ("e3_x_elimination", "--no-metrics"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_ppsim"))
            .args([command, flag, "2"])
            .output()
            .expect("spawn ppsim");
        assert!(!out.status.success(), "{flag} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag {flag}")),
            "stderr: {stderr}"
        );
    }
    let out = Command::new(env!("CARGO_BIN_EXE_ppsim"))
        .args(["profile", "--dispatch", "/dev/null"])
        .output()
        .expect("spawn ppsim");
    assert!(!out.status.success(), "profile --dispatch must fail");
}
