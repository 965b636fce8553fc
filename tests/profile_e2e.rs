//! End-to-end checks on `ppsim profile <command>`: the run record of a
//! profiled run is the unprofiled record plus one `profile_report` line
//! before the metrics footer. That report must attribute nearly all
//! dense-run wall time to named sections, keep the pmf-inversion chain
//! separately visible and name the sparse leap's parts, and the footer's
//! regime counters carry the regime-dispatch evidence.

use population_protocols::engine::json::{parse_jsonl, Json};
use population_protocols::engine::metrics::MetricsReport;
use std::path::PathBuf;
use std::process::Command;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ppsim-profile-{}-{name}", std::process::id()))
}

/// The profiled plurality-exact-three workload: colours split 30/33/37%,
/// two iterations.
const PLURALITY_EXACT: [&str; 13] = [
    "run-file",
    "--builtin",
    "plurality-exact-three",
    "--n",
    "2000",
    "--in-C1",
    "600",
    "--in-C2",
    "660",
    "--in-C3",
    "740",
    "--iters",
    "2",
];

/// Runs `ppsim <args> --record <tmp>`; returns its stdout and the record's
/// bytes.
fn run_recorded(name: &str, args: &[&str]) -> (String, String) {
    let path = tmp(name);
    let out = Command::new(env!("CARGO_BIN_EXE_ppsim"))
        .args(args)
        .arg("--record")
        .arg(&path)
        .output()
        .expect("spawn ppsim");
    assert!(
        out.status.success(),
        "ppsim {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let record = std::fs::read_to_string(&path).expect("run record written");
    let _ = std::fs::remove_file(&path);
    (String::from_utf8(out.stdout).expect("utf8 stdout"), record)
}

/// A profiled run's record: its header (naming `command`), the event lines
/// between header and report, and the `profile_report` line, after checking
/// that the report sits just before the metrics footer.
struct Profiled {
    events: Vec<Json>,
    report: Json,
    metrics: MetricsReport,
}

fn profile(name: &str, args: &[&str]) -> Profiled {
    let profiled: Vec<&str> = std::iter::once("profile")
        .chain(args.iter().copied())
        .collect();
    let (_, text) = run_recorded(name, &profiled);
    let mut lines = parse_jsonl(&text).expect("the run record parses as JSONL");
    let header = lines.remove(0);
    assert_eq!(header.get("kind").and_then(Json::as_str), Some("run"));
    assert_eq!(header.get("command").and_then(Json::as_str), Some(args[0]));
    let footer = text.lines().last().expect("a footer line");
    let metrics = MetricsReport::parse(footer).expect("the footer is a metrics report");
    lines.pop();
    let report = lines.pop().expect("a profile_report line");
    assert_eq!(
        report.get("kind").and_then(Json::as_str),
        Some("profile_report")
    );
    Profiled {
        events: lines,
        report,
        metrics,
    }
}

impl Profiled {
    fn sections(&self) -> &[Json] {
        self.report
            .get("sections")
            .and_then(Json::as_arr)
            .expect("profile report carries sections")
    }

    /// The first section edge named `name`.
    fn section(&self, name: &str) -> &Json {
        self.sections()
            .iter()
            .find(|s| s.get("name").and_then(Json::as_str) == Some(name))
            .unwrap_or_else(|| panic!("section {name} missing from the report"))
    }

    /// The calls of `name` under exactly the enclosing sections `path`
    /// (outermost first), or 0 when the report has no such node.
    fn calls_at(&self, path: &[&str], name: &str) -> u64 {
        self.sections()
            .iter()
            .find(|s| {
                let at: Option<Vec<&str>> = s
                    .get("path")
                    .and_then(Json::as_arr)
                    .map(|p| p.iter().filter_map(Json::as_str).collect());
                s.get("name").and_then(Json::as_str) == Some(name) && at.as_deref() == Some(path)
            })
            .map_or(0, calls)
    }

    fn of_kind(&self, kind: &str) -> Vec<&Json> {
        self.events
            .iter()
            .filter(|e| e.get("kind").and_then(Json::as_str) == Some(kind))
            .collect()
    }
}

fn parent_of(section: &Json) -> Option<&str> {
    section.get("parent").and_then(Json::as_str)
}

fn calls(section: &Json) -> u64 {
    section.get("calls").and_then(Json::as_u64).unwrap_or(0)
}

#[test]
fn oscillator_profile_attributes_dense_wall_time() {
    let run = profile(
        "oscillator.jsonl",
        &["oscillator", "--n", "50000", "--rounds", "200"],
    );

    // Acceptance bar: ≥ 90% of the run's wall time lands in named
    // sections. (In practice the top-level batch section alone covers it.)
    let frac = run
        .report
        .get("attributed_frac")
        .and_then(Json::as_f64)
        .expect("attributed_frac present");
    assert!(
        frac >= 0.9,
        "profile attributed only {:.1}% of wall time",
        frac * 100.0
    );

    // The pmf-inversion chain is separately visible, attributed under the
    // collision-epoch stages rather than folded into them.
    let pmf: Vec<&Json> = run
        .sections()
        .iter()
        .filter(|s| s.get("name").and_then(Json::as_str) == Some("pmf_inversion"))
        .collect();
    assert!(
        pmf.iter().map(|s| calls(s)).sum::<u64>() > 0,
        "pmf_inversion sections never fired"
    );
    let pmf_parents: Vec<&str> = pmf.iter().filter_map(|s| parent_of(s)).collect();
    assert!(
        pmf_parents
            .iter()
            .any(|p| ["epoch_margins", "epoch_rows", "epoch_settle"].contains(p)),
        "pmf_inversion not attributed under the epoch chain: {pmf_parents:?}"
    );
    for name in ["count_step_batch", "collision_epoch", "epoch_len_sample"] {
        run.section(name);
    }
    // In-batch collisions are settled under their batch.
    let collisions = run.section("epoch_collisions");
    assert_eq!(parent_of(collisions), Some("collision_epoch"));
    assert!(calls(collisions) > 0);
    // The species-row sampling is timed apart from the engine.
    assert_eq!(calls(run.section("observer")), 200);

    // Dense oscillator at this size runs in the collision regime: every
    // batch runs collision epochs, and they settle most interactions.
    let counter = |name| run.metrics.counter(name);
    assert_eq!(counter("batches"), 200, "one batch per round");
    assert!(counter("collision_epochs") >= counter("batches"));
    assert!(
        counter("collision_batched_steps") * 10 > counter("interactions_executed") * 9,
        "collision epochs settle under 90% of the run"
    );
    // The dominance periods the summary is made of came out of the run.
    let periods = run.of_kind("period");
    assert!(!periods.is_empty(), "no completed rotation period");
    assert!(periods
        .iter()
        .all(|p| p.get("rounds").and_then(Json::as_f64) > Some(0.0)));
}

/// A program's sites run on the sparse backend, and the
/// profile names what it ran: each site run a `program_site`, its
/// factored components' `sparse_step_batch` sections and its
/// `site_relabel` under it, `sparse_leap` sections under
/// `sparse_step_batch`, with `leap_pick` and `leap_upkeep` under them,
/// and the leap in the regime counters: leaps skip most interactions and
/// no collision epoch runs. The named sections hold nearly all of the
/// run's wall time.
#[test]
fn plurality_exact_profile_names_the_sparse_leap() {
    let run = profile("sparse.jsonl", &PLURALITY_EXACT);
    let frac = run
        .report
        .get("attributed_frac")
        .and_then(Json::as_f64)
        .expect("attributed_frac present");
    assert!(
        frac >= 0.9,
        "profile attributed only {:.1}% of wall time",
        frac * 100.0
    );
    let site = run.section("program_site");
    assert_eq!(parent_of(site), None);
    for name in ["sparse_step_batch", "site_relabel"] {
        let section = run.section(name);
        assert_eq!(parent_of(section), Some("program_site"), "{name}");
        assert!(calls(section) > 0, "{name}");
    }
    let leap = run.section("sparse_leap");
    assert_eq!(parent_of(leap), Some("sparse_step_batch"));
    assert!(calls(leap) > 0);
    // Under each leap, the pick of the effective step, then the upkeep of
    // a change: every upkeep follows a pick, and every pick a leap.
    let (pick, upkeep) = (run.section("leap_pick"), run.section("leap_upkeep"));
    for section in [pick, upkeep] {
        assert_eq!(parent_of(section), Some("sparse_leap"));
    }
    assert!(0 < calls(upkeep) && calls(upkeep) <= calls(pick) && calls(pick) <= calls(leap));
    let counter = |name| run.metrics.counter(name);
    assert!(counter("batches") > 0 && counter("noop_leaps") > 0);
    assert_eq!(
        counter("collision_epochs"),
        0,
        "a sparse site has no epochs"
    );
    assert!(
        counter("noop_steps_leaped") * 10 > counter("interactions_executed") * 9,
        "leaps skip under 90% of the run"
    );
}

/// E12 settles its asynchronous runs' collision batches and its matching
/// rounds through the same epoch chain, so `epoch_margins` and the
/// `pmf_inversion` under it are reached by two paths. Each path keeps its
/// own calls: one margins chain per matching round, one per collision
/// batch, never the two merged.
#[test]
fn a_section_reached_by_two_paths_counts_each_path_apart() {
    let run = profile("e12.jsonl", &["e12_schedulers", "--quick"]);
    let rounds = run.calls_at(&[], "matching_round");
    assert_eq!(rounds, run.metrics.counter("matching_rounds"));
    assert!(rounds > 0);
    let matching = ["matching_round", "epoch_margins"];
    assert_eq!(run.calls_at(&matching[..1], "epoch_margins"), rounds);
    assert_eq!(run.calls_at(&matching, "pmf_inversion"), rounds);
    let epochs = run.calls_at(&["count_step_batch"], "collision_epoch");
    assert_eq!(epochs, run.metrics.counter("collision_epochs"));
    let collision = ["count_step_batch", "collision_epoch", "epoch_margins"];
    assert_eq!(run.calls_at(&collision[..2], "epoch_margins"), epochs);
    assert_eq!(run.calls_at(&collision, "pmf_inversion"), epochs);
    assert_ne!(epochs, rounds, "the two paths must be told apart");
}

/// Profiling changes what a run prints and records only by appending: the
/// profiled stdout starts with the unprofiled stdout, and the profiled
/// record without its `profile_report` line is the unprofiled record,
/// byte for byte.
#[test]
fn profiled_run_appends_to_the_unprofiled_output() {
    let oscillator: &[&str] = &["oscillator", "--n", "3000", "--rounds", "100"];
    for args in [oscillator, &PLURALITY_EXACT] {
        let (plain_out, plain_record) = run_recorded("plain.jsonl", args);
        let profiled: Vec<&str> = std::iter::once("profile")
            .chain(args.iter().copied())
            .collect();
        let (out, record) = run_recorded("profiled.jsonl", &profiled);
        let tree = out
            .strip_prefix(plain_out.as_str())
            .unwrap_or_else(|| panic!("ppsim profile {args:?} changed the command's output"));
        assert!(tree.starts_with("section"), "{tree}");
        assert!(
            tree.lines().last().unwrap().starts_with("regimes: "),
            "{tree}"
        );
        let without_report: String = record
            .lines()
            .filter(|l| !l.contains("\"profile_report\""))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(record.lines().count(), plain_record.lines().count() + 1);
        assert!(
            without_report == plain_record,
            "ppsim profile {args:?} changed the run record"
        );
    }
}
