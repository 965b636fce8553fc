//! End-to-end checks on `ppsim lint`: each diagnostic the analyzer promises
//! is pinned against a small fixture protocol, with its code, severity,
//! source line, and the process exit code. Also asserts the shipped
//! protocol files and every builtin stay warnings-only (exit 0) — the same
//! gate CI applies.

use population_protocols::engine::json::{parse_jsonl, Json};
use std::path::{Path, PathBuf};
use std::process::Command;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ppsim-lint-{}-{name}.pp", std::process::id()))
}

/// Writes `source` to a temp `.pp` file, lints it with `--json`, and
/// returns the exit code plus the parsed JSONL records.
fn lint_json(label: &str, source: &str) -> (i32, Vec<Json>) {
    let path = tmp(label);
    std::fs::write(&path, source).expect("write fixture");
    let out = Command::new(env!("CARGO_BIN_EXE_ppsim"))
        .arg("lint")
        .arg(&path)
        .arg("--json")
        .output()
        .expect("spawn ppsim lint");
    let _ = std::fs::remove_file(&path);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let records = parse_jsonl(&stdout).expect("lint --json output parses as JSONL");
    (out.status.code().expect("exit code"), records)
}

/// The first record with the given code, or a panic listing what was found.
fn find<'a>(records: &'a [Json], code: &str) -> &'a Json {
    records
        .iter()
        .find(|r| r.get("code").and_then(Json::as_str) == Some(code))
        .unwrap_or_else(|| {
            let codes: Vec<_> = records
                .iter()
                .map(|r| r.get("code").and_then(Json::as_str).unwrap_or("?"))
                .collect();
            panic!("no {code} record; found {codes:?}")
        })
}

fn severity(record: &Json) -> &str {
    record
        .get("severity")
        .and_then(Json::as_str)
        .expect("severity")
}

fn line(record: &Json) -> u64 {
    record.get("line").and_then(Json::as_u64).expect("line")
}

#[test]
fn unsatisfiable_guard_is_an_error_with_span() {
    let (code, records) = lint_json(
        "dead-rule",
        "\
def protocol DeadRule
  var A as input, Y as output:
  thread Main:
    execute ruleset:
      > (A & !A) + (.) -> (Y) + (.)
      > (A) + (.) -> (Y) + (.)
",
    );
    let d = find(&records, "PP101");
    assert_eq!(severity(d), "error");
    assert_eq!(line(d), 5, "{d:?}");
    assert_eq!(code, 1, "errors make lint exit nonzero");
}

#[test]
fn non_conjunctive_post_condition_is_an_error_with_span() {
    let (code, records) = lint_json(
        "disjunctive-post",
        "\
def protocol BadPost
  var A as input, B, Y as output:
  thread Main:
    execute ruleset:
      > (A) + (.) -> (A | B) + (.)
",
    );
    let d = find(&records, "PP002");
    assert_eq!(severity(d), "error");
    assert_eq!(line(d), 5, "{d:?}");
    assert_eq!(code, 1);
}

#[test]
fn unreachable_rule_under_initial_support_is_flagged() {
    // B has no init, is not an input, and nothing ever sets it: the second
    // rule can never fire from any declared initial configuration.
    let (code, records) = lint_json(
        "unreachable",
        "\
def protocol Unreachable
  var A as input, B, Y as output:
  thread Main:
    execute ruleset:
      > (A) + (.) -> (Y) + (.)
      > (B) + (.) -> (!Y) + (.)
",
    );
    let d = find(&records, "PP105");
    assert_eq!(severity(d), "warning");
    assert_eq!(line(d), 6, "{d:?}");
    assert_eq!(code, 0);
}

#[test]
fn use_before_assign_is_flagged_at_the_read() {
    let (code, records) = lint_json(
        "use-before-assign",
        "\
def protocol UseBeforeAssign
  var A as input, X, Y as output:
  thread Main:
    repeat:
      Y := X
",
    );
    let d = find(&records, "PP201");
    assert_eq!(severity(d), "warning");
    assert_eq!(line(d), 5, "{d:?}");
    assert_eq!(code, 0);
}

#[test]
fn never_written_output_is_an_error_at_the_declaration() {
    let (code, records) = lint_json(
        "never-written",
        "\
def protocol NeverWritten
  var A as input, Y as output:
  thread Main:
    execute ruleset:
      > (A) + (!A) -> (A) + (A)
",
    );
    let d = find(&records, "PP202");
    assert_eq!(severity(d), "error");
    assert_eq!(line(d), 2, "span points at the declaration: {d:?}");
    assert_eq!(code, 1);
}

#[test]
fn human_rendering_includes_carets_and_summary() {
    let path = tmp("human");
    std::fs::write(
        &path,
        "\
def protocol DeadRule
  var A as input, Y as output:
  thread Main:
    execute ruleset:
      > (A & !A) + (.) -> (Y) + (.)
      > (A) + (.) -> (Y) + (.)
",
    )
    .expect("write fixture");
    let out = Command::new(env!("CARGO_BIN_EXE_ppsim"))
        .arg("lint")
        .arg(&path)
        .output()
        .expect("spawn ppsim lint");
    let _ = std::fs::remove_file(&path);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(stdout.contains("error[PP101]"), "{stdout}");
    assert!(stdout.contains("--> line 5"), "{stdout}");
    assert!(stdout.contains('^'), "caret rendering present: {stdout}");
    assert!(
        stdout.contains("error(s)"),
        "summary line present: {stdout}"
    );
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn json_records_carry_target_and_message() {
    let (_, records) = lint_json(
        "fields",
        "\
def protocol Fields
  var A as input, Y as output:
  thread Main:
    execute ruleset:
      > (A & !A) + (.) -> (Y) + (.)
      > (A) + (.) -> (Y) + (.)
",
    );
    assert!(!records.is_empty());
    for r in &records {
        assert!(r.get("target").and_then(Json::as_str).is_some(), "{r:?}");
        assert!(r.get("code").and_then(Json::as_str).is_some(), "{r:?}");
        assert!(r.get("message").and_then(Json::as_str).is_some(), "{r:?}");
    }
}

#[test]
fn shipped_protocol_files_are_warnings_only() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("protocols");
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).expect("protocols dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("pp") {
            continue;
        }
        checked += 1;
        let out = Command::new(env!("CARGO_BIN_EXE_ppsim"))
            .arg("lint")
            .arg(&path)
            .output()
            .expect("spawn ppsim lint");
        assert_eq!(
            out.status.code(),
            Some(0),
            "{} must lint without errors:\n{}",
            path.display(),
            String::from_utf8_lossy(&out.stdout)
        );
    }
    assert!(checked >= 2, "expected shipped .pp files, found {checked}");
}

#[test]
fn builtins_are_warnings_only() {
    let out = Command::new(env!("CARGO_BIN_EXE_ppsim"))
        .args(["lint", "--builtin", "all"])
        .output()
        .expect("spawn ppsim lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "builtins must lint without errors:\n{stdout}"
    );
    assert!(stdout.contains("builtin:leader"), "{stdout}");
}

#[test]
fn builtin_corpus_is_pp207_free_and_pins_pp191() {
    let out = Command::new(env!("CARGO_BIN_EXE_ppsim"))
        .args(["lint", "--builtin", "all", "--json"])
        .output()
        .expect("spawn ppsim lint");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let records = parse_jsonl(&stdout).expect("lint --json output parses as JSONL");

    // The enumeration backend lifts the packed-variable budget: nothing in
    // the builtin corpus may report PP207 any more.
    let pp207: Vec<_> = records
        .iter()
        .filter(|r| r.get("code").and_then(Json::as_str) == Some("PP207"))
        .map(|r| r.get("target").and_then(Json::as_str).unwrap_or("?"))
        .collect();
    assert!(pp207.is_empty(), "PP207 still fires for {pp207:?}");

    // Every over-budget builtin instead carries the PP191 info diagnostic,
    // with the live-state count pinned for plurality (496 of 2^9).
    let pp191_target = |target: &str| {
        records
            .iter()
            .find(|r| {
                r.get("code").and_then(Json::as_str) == Some("PP191")
                    && r.get("target").and_then(Json::as_str) == Some(target)
            })
            .unwrap_or_else(|| panic!("no PP191 record for {target}"))
    };
    let plur = pp191_target("builtin:plurality");
    assert_eq!(severity(plur), "info");
    let msg = plur.get("message").and_then(Json::as_str).expect("message");
    assert!(msg.contains("496 live states"), "{msg}");
    for target in [
        "builtin:plurality-exact-three",
        "builtin:semilinear-comparison",
    ] {
        assert_eq!(severity(pp191_target(target)), "info");
    }
}

#[test]
fn shipped_protocol_files_are_pp207_free() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("protocols");
    for entry in std::fs::read_dir(&dir).expect("protocols dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("pp") {
            continue;
        }
        let out = Command::new(env!("CARGO_BIN_EXE_ppsim"))
            .arg("lint")
            .arg(&path)
            .arg("--json")
            .output()
            .expect("spawn ppsim lint");
        let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
        let records = parse_jsonl(&stdout).expect("lint --json output parses as JSONL");
        assert!(
            records
                .iter()
                .all(|r| r.get("code").and_then(Json::as_str) != Some("PP207")),
            "{} reports PP207:\n{stdout}",
            path.display()
        );
    }
}

#[test]
fn unknown_builtin_fails() {
    let out = Command::new(env!("CARGO_BIN_EXE_ppsim"))
        .args(["lint", "--builtin", "nonsense"])
        .output()
        .expect("spawn ppsim lint");
    assert_eq!(out.status.code(), Some(1));
}
