//! End-to-end checks on `ppsim profile`: the JSON report must attribute
//! nearly all dense-run wall time to named sections, keep the pmf-inversion
//! chain separately visible, and carry the regime-dispatch evidence.

use population_protocols::core::engine::json::{parse_jsonl, Json};
use std::path::PathBuf;
use std::process::Command;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ppsim-profile-{}-{name}", std::process::id()))
}

fn profile_json(args: &[&str]) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_ppsim"))
        .arg("profile")
        .args(args)
        .arg("--json")
        .output()
        .expect("spawn ppsim profile");
    assert!(
        out.status.success(),
        "ppsim profile failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("utf8 stdout");
    Json::parse(text.trim()).expect("profile --json emits one JSON document")
}

fn sections(doc: &Json) -> Vec<&Json> {
    doc.get("sections")
        .and_then(Json::as_arr)
        .expect("profile report carries sections")
        .iter()
        .collect()
}

#[test]
fn oscillator_profile_attributes_dense_wall_time() {
    let doc = profile_json(&["--builtin", "oscillator", "--n", "50000", "--rounds", "200"]);
    assert_eq!(
        doc.get("kind").and_then(Json::as_str),
        Some("profile_report")
    );

    // Acceptance bar: ≥ 90% of the dense-run wall time lands in named
    // sections. (In practice the top-level batch section alone covers it.)
    let frac = doc
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
    let secs = sections(&doc);
    let pmf_calls: u64 = secs
        .iter()
        .filter(|s| s.get("name").and_then(Json::as_str) == Some("pmf_inversion"))
        .filter_map(|s| s.get("calls").and_then(Json::as_u64))
        .sum();
    assert!(pmf_calls > 0, "pmf_inversion sections never fired");
    let pmf_parents: Vec<&str> = secs
        .iter()
        .filter(|s| s.get("name").and_then(Json::as_str) == Some("pmf_inversion"))
        .filter_map(|s| s.get("parent").and_then(Json::as_str))
        .collect();
    assert!(
        pmf_parents
            .iter()
            .any(|p| ["epoch_margins", "epoch_rows", "epoch_settle"].contains(p)),
        "pmf_inversion not attributed under the epoch chain: {pmf_parents:?}"
    );
    for name in ["count_step_batch", "collision_epoch", "epoch_len_sample"] {
        assert!(
            secs.iter()
                .any(|s| s.get("name").and_then(Json::as_str) == Some(name)),
            "section {name} missing from the report"
        );
    }
    // In-batch collisions are settled under their batch.
    let collisions = secs
        .iter()
        .find(|s| s.get("name").and_then(Json::as_str) == Some("epoch_collisions"))
        .expect("section epoch_collisions missing from the report");
    assert_eq!(
        collisions.get("parent").and_then(Json::as_str),
        Some("collision_epoch")
    );
    assert!(collisions.get("calls").and_then(Json::as_u64) > Some(0));

    // Dense oscillator at this size runs in the collision regime, and the
    // dispatch records agree with the regime counters.
    let regimes = doc.get("regimes").expect("regimes present");
    assert!(regimes.get("collision").and_then(Json::as_u64) > Some(0));
    assert!(doc.get("dispatch_records").and_then(Json::as_u64) > Some(0));
    assert_eq!(
        doc.get("first_regime").and_then(Json::as_str),
        Some("collision")
    );

    // The exact percentiles of the oscillator period came out of the run.
    let q = doc.get("quantiles").expect("quantiles present");
    assert_eq!(
        q.get("label").and_then(Json::as_str),
        Some("oscillator period (rounds)")
    );
    assert!(q.get("count").and_then(Json::as_u64) > Some(0));
    let p50 = q.get("p50").and_then(Json::as_f64).expect("p50 present");
    let p99 = q.get("p99").and_then(Json::as_f64).expect("p99 present");
    assert!(
        p50 > 0.0 && p99 >= p50,
        "percentiles disordered: {p50} {p99}"
    );
}

#[test]
fn profile_dispatch_log_is_valid_jsonl() {
    let path = tmp("dispatch.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_ppsim"))
        .args([
            "profile",
            "--builtin",
            "epidemic",
            "--n",
            "20000",
            "--rounds",
            "80",
        ])
        .arg("--dispatch")
        .arg(&path)
        .output()
        .expect("spawn ppsim profile");
    assert!(
        out.status.success(),
        "ppsim profile failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("dispatch log written");
    let _ = std::fs::remove_file(&path);
    let records = parse_jsonl(&text).expect("dispatch log parses as JSONL");
    assert!(!records.is_empty(), "no dispatch records for a dense run");
    for rec in &records {
        assert_eq!(rec.get("kind").and_then(Json::as_str), Some("dispatch"));
        assert_eq!(
            rec.get("backend").and_then(Json::as_str),
            Some("CountPopulation")
        );
        let regime = rec.get("regime").and_then(Json::as_str).expect("regime");
        assert!(
            ["collision", "leap", "per_step", "dense_fallback", "silent"].contains(&regime),
            "unexpected regime {regime:?}"
        );
        let executed = rec
            .get("executed")
            .and_then(Json::as_u64)
            .expect("executed");
        let parts = rec.get("collision_epochs").and_then(Json::as_u64).unwrap()
            + rec.get("leaps").and_then(Json::as_u64).unwrap()
            + rec.get("per_steps").and_then(Json::as_u64).unwrap();
        // Every non-silent batch decomposes into at least one regime event.
        assert!(
            executed == 0 || parts > 0,
            "batch executed {executed} steps with no regime tallies"
        );
    }
    // The epidemic run crosses from the leap regime into collision epochs
    // as the infection spreads — the decision inputs must show p rising.
    // The log concatenates 10 trials, each starting at p = 2/n (one
    // infected agent) and ending near S = 1 at the same p, so the first
    // trial is the prefix up to the first record that falls back to the
    // starting p after rising above it.
    let ps: Vec<f64> = records
        .iter()
        .map(|r| r.get("p").and_then(Json::as_f64).expect("p"))
        .collect();
    let start = ps[0];
    let rise = ps
        .iter()
        .position(|&p| p > start)
        .unwrap_or_else(|| panic!("reactive probability never rose: {ps:?}"));
    let end = ps[rise..]
        .iter()
        .position(|&p| p <= start)
        .map_or(ps.len(), |i| rise + i);
    let peak = ps[..end].iter().copied().fold(start, f64::max);
    assert!(
        peak > start,
        "reactive probability did not rise in the first trial: {:?}",
        &ps[..end]
    );
    let first_of = |regime: &str| {
        records[..end]
            .iter()
            .position(|r| r.get("regime").and_then(Json::as_str) == Some(regime))
    };
    match (first_of("leap"), first_of("collision")) {
        (Some(leap), Some(collision)) => assert!(
            leap < collision,
            "the first trial reached collision epochs before leaping"
        ),
        other => panic!("the first trial lacks a leap or collision record: {other:?}"),
    }
}

/// A program's sites run on the sparse backend, and the
/// profile names what it ran: `sparse_leap` sections under
/// `sparse_step_batch`, with `leap_pick` and `leap_upkeep` under them,
/// the leap in the regime counters, and dispatch
/// records from `SparseCountPopulation` carrying `p`, the occupancy and
/// the rule-weighted pair count `W` over its scale.
#[test]
fn plurality_exact_profile_names_the_sparse_leap() {
    let log = tmp("sparse-dispatch.jsonl");
    let log_arg = log.to_str().expect("utf8 temp path");
    let doc = profile_json(&[
        "--builtin",
        "plurality-exact",
        "--n",
        "2000",
        "--dispatch",
        log_arg,
    ]);
    let leap = sections(&doc)
        .into_iter()
        .find(|s| s.get("name").and_then(Json::as_str) == Some("sparse_leap"))
        .expect("sparse_leap section present");
    assert_eq!(
        leap.get("parent").and_then(Json::as_str),
        Some("sparse_step_batch")
    );
    let calls = |s: &Json| s.get("calls").and_then(Json::as_u64).unwrap_or(0);
    assert!(calls(leap) > 0);
    // Under each leap, the pick of the effective step, then the upkeep of
    // a change: every upkeep follows a pick, and every pick a leap.
    let child = |name: &str| {
        sections(&doc)
            .into_iter()
            .find(|s| s.get("name").and_then(Json::as_str) == Some(name))
            .unwrap_or_else(|| panic!("{name} section present"))
    };
    let (pick, upkeep) = (child("leap_pick"), child("leap_upkeep"));
    for section in [pick, upkeep] {
        assert_eq!(
            section.get("parent").and_then(Json::as_str),
            Some("sparse_leap")
        );
    }
    assert!(0 < calls(upkeep) && calls(upkeep) <= calls(pick) && calls(pick) <= calls(leap));
    let regimes = doc.get("regimes").expect("regimes present");
    assert!(regimes.get("leap").and_then(Json::as_u64) > Some(0));
    assert_eq!(doc.get("first_regime").and_then(Json::as_str), Some("leap"));
    let text = std::fs::read_to_string(&log).expect("dispatch log written");
    let _ = std::fs::remove_file(&log);
    let records = parse_jsonl(&text).expect("dispatch log is JSONL");
    assert!(!records.is_empty(), "one record per batch");
    for r in &records {
        assert_eq!(
            r.get("backend").and_then(Json::as_str),
            Some("SparseCountPopulation")
        );
        assert_eq!(r.get("scale").and_then(Json::as_u64), Some(33));
        assert!(r.get("occupied").and_then(Json::as_u64) > Some(0));
        if r.get("regime").and_then(Json::as_str) == Some("leap") {
            let p = r
                .get("p")
                .and_then(Json::as_f64)
                .expect("a leaping batch knows p");
            let pairs = r.get("pairs").and_then(Json::as_u64).expect("W present") as f64;
            assert!(
                (p - pairs / (2000.0 * 1999.0 * 33.0)).abs() < 1e-12,
                "p = W/(n(n-1)·scale)"
            );
        }
    }
}
