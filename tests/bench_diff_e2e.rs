//! End-to-end checks on `ppsim bench-diff`: exit 0 when current rates hold,
//! exit 1 on a regression beyond tolerance (the CI gate's red path), exit 2
//! on unusable input. Fixtures use the same record schema that
//! `pp_bench::history` appends to `BENCH_history.jsonl`.

use std::path::PathBuf;
use std::process::Command;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ppsim-benchdiff-{}-{name}", std::process::id()))
}

fn history_line(n: u64, metric: &str, rate: f64) -> String {
    format!(
        "{{\"kind\":\"bench_run\",\"bench\":\"engine_dense\",\"scenario\":\"dense_cycle3\",\
         \"n\":{n},\"metric\":\"{metric}\",\"rate\":{rate},\"git_rev\":\"abc1234\",\
         \"unix_ts\":1754600000}}\n"
    )
}

fn write_history(name: &str, rows: &[(u64, &str, f64)]) -> PathBuf {
    let path = tmp(name);
    let text: String = rows
        .iter()
        .map(|&(n, metric, rate)| history_line(n, metric, rate))
        .collect();
    std::fs::write(&path, text).expect("write fixture");
    path
}

fn bench_diff(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ppsim"))
        .arg("bench-diff")
        .args(args)
        .output()
        .expect("spawn ppsim bench-diff");
    let code = out.status.code().expect("exit code");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (code, text)
}

#[test]
fn unchanged_rates_pass() {
    let base = write_history(
        "same-base.jsonl",
        &[
            (10_000, "batch_per_sec", 2.0e8),
            (1_000_000, "batch_per_sec", 3.0e8),
        ],
    );
    let cur = write_history(
        "same-cur.jsonl",
        &[
            (10_000, "batch_per_sec", 2.0e8),
            (1_000_000, "batch_per_sec", 3.0e8),
        ],
    );
    let (code, text) = bench_diff(&[base.to_str().unwrap(), cur.to_str().unwrap()]);
    let _ = std::fs::remove_file(&base);
    let _ = std::fs::remove_file(&cur);
    assert_eq!(code, 0, "identical snapshots must pass: {text}");
    assert!(
        !text.contains("REGRESSION"),
        "no key should regress: {text}"
    );
}

#[test]
fn thirty_percent_slowdown_fails() {
    // The CI acceptance scenario: an injected 30% slowdown must turn the
    // default 25%-tolerance gate red.
    let base = write_history("slow-base.jsonl", &[(1_000_000, "batch_per_sec", 3.0e8)]);
    let cur = write_history("slow-cur.jsonl", &[(1_000_000, "batch_per_sec", 2.1e8)]);
    let (code, text) = bench_diff(&[base.to_str().unwrap(), cur.to_str().unwrap()]);
    assert_eq!(code, 1, "30% slowdown must fail the default gate: {text}");
    assert!(
        text.contains("REGRESSION"),
        "regression not reported: {text}"
    );

    // The same drop passes when the caller widens the tolerance.
    let (code, text) = bench_diff(&[
        base.to_str().unwrap(),
        cur.to_str().unwrap(),
        "--tolerance-pct",
        "50",
    ]);
    let _ = std::fs::remove_file(&base);
    let _ = std::fs::remove_file(&cur);
    assert_eq!(code, 0, "50% tolerance must absorb a 30% drop: {text}");
}

#[test]
fn speedups_and_new_keys_pass() {
    let base = write_history("up-base.jsonl", &[(1_000_000, "batch_per_sec", 3.0e8)]);
    let cur = write_history(
        "up-cur.jsonl",
        &[
            (1_000_000, "batch_per_sec", 4.5e8),
            (1_000_000, "step_per_sec", 1.0e6), // new key: no baseline, ignored
        ],
    );
    let (code, text) = bench_diff(&[base.to_str().unwrap(), cur.to_str().unwrap()]);
    let _ = std::fs::remove_file(&base);
    let _ = std::fs::remove_file(&cur);
    assert_eq!(code, 0, "a speedup is never a regression: {text}");
}

#[test]
fn falling_ratios_are_reported_not_gated() {
    // A ratio of two rates (e10/e11's enumerated ÷ interpreted
    // `compiled_speedup`) falls when its denominator speeds up; only the
    // rates themselves are gated.
    let base = write_history(
        "ratio-base.jsonl",
        &[(90, "iter_per_sec", 100.0), (90, "ratio", 4.2)],
    );
    let faster = write_history(
        "ratio-faster.jsonl",
        &[(90, "iter_per_sec", 2_000.0), (90, "ratio", 0.32)],
    );
    let (code, text) = bench_diff(&[
        base.to_str().unwrap(),
        faster.to_str().unwrap(),
        "--tolerance-pct",
        "50",
    ]);
    assert_eq!(code, 0, "a falling ratio must not fail the gate: {text}");
    assert!(text.contains("reported"), "ratio not reported: {text}");
    assert!(!text.contains("REGRESSION"), "no rate fell: {text}");

    let slower = write_history(
        "ratio-slower.jsonl",
        &[(90, "iter_per_sec", 40.0), (90, "ratio", 10.0)],
    );
    let (code, text) = bench_diff(&[
        base.to_str().unwrap(),
        slower.to_str().unwrap(),
        "--tolerance-pct",
        "50",
    ]);
    for path in [&base, &faster, &slower] {
        let _ = std::fs::remove_file(path);
    }
    assert_eq!(code, 1, "a falling rate must still fail the gate: {text}");
    assert!(
        text.contains("REGRESSION"),
        "regression not reported: {text}"
    );
}

#[test]
fn last_record_per_key_wins() {
    // History files are append-only; only the newest record per key counts.
    let base = write_history(
        "dup-base.jsonl",
        &[
            (1_000_000, "batch_per_sec", 9.0e8), // stale entry, superseded below
            (1_000_000, "batch_per_sec", 3.0e8),
        ],
    );
    let cur = write_history("dup-cur.jsonl", &[(1_000_000, "batch_per_sec", 2.9e8)]);
    let (code, text) = bench_diff(&[base.to_str().unwrap(), cur.to_str().unwrap()]);
    let _ = std::fs::remove_file(&base);
    let _ = std::fs::remove_file(&cur);
    assert_eq!(
        code, 0,
        "diff must compare against the latest baseline record, not a stale one: {text}"
    );
}

#[test]
fn unusable_input_exits_two() {
    // Disjoint keys: an empty comparison must not silently pass CI.
    let base = write_history("disjoint-base.jsonl", &[(10_000, "batch_per_sec", 3.0e8)]);
    let cur = write_history("disjoint-cur.jsonl", &[(99_999, "batch_per_sec", 3.0e8)]);
    let (code, text) = bench_diff(&[base.to_str().unwrap(), cur.to_str().unwrap()]);
    let _ = std::fs::remove_file(&base);
    let _ = std::fs::remove_file(&cur);
    assert_eq!(code, 2, "zero shared keys must be an error: {text}");

    // Missing file.
    let missing = tmp("no-such-file.jsonl");
    let (code, _) = bench_diff(&[missing.to_str().unwrap(), missing.to_str().unwrap()]);
    assert_eq!(code, 2, "missing input must be a usage error");

    // Malformed JSONL.
    let garbage = tmp("garbage.jsonl");
    std::fs::write(&garbage, "this is not json\n").expect("write fixture");
    let (code, _) = bench_diff(&[garbage.to_str().unwrap(), garbage.to_str().unwrap()]);
    let _ = std::fs::remove_file(&garbage);
    assert_eq!(code, 2, "malformed history must be an error");

    // Bad tolerance.
    let base = write_history("tol-base.jsonl", &[(10_000, "batch_per_sec", 3.0e8)]);
    let (code, _) = bench_diff(&[
        base.to_str().unwrap(),
        base.to_str().unwrap(),
        "--tolerance-pct",
        "100",
    ]);
    let _ = std::fs::remove_file(&base);
    assert_eq!(code, 2, "tolerance must lie in [0, 100)");
}

#[test]
fn host_cores_stamp_leaves_key_and_verdict_alone() {
    // `pp_bench::history::append` stamps every line with `host_cores`;
    // the committed history's older lines carry none. Both diff under the
    // same `bench/scenario/n/metric` key with the same verdict.
    let base = write_history("cores-base.jsonl", &[(1_000_000, "batch_per_sec", 3.0e8)]);
    for (rate, want) in [(2.9e8, 0), (2.1e8, 1)] {
        let plain = write_history("cores-plain.jsonl", &[(1_000_000, "batch_per_sec", rate)]);
        let stamped = tmp("cores-stamped.jsonl");
        let line =
            history_line(1_000_000, "batch_per_sec", rate).replace("}\n", ",\"host_cores\":2}\n");
        std::fs::write(&stamped, line).expect("write fixture");
        let (plain_code, plain_text) =
            bench_diff(&[base.to_str().unwrap(), plain.to_str().unwrap()]);
        let (code, text) = bench_diff(&[base.to_str().unwrap(), stamped.to_str().unwrap()]);
        let _ = std::fs::remove_file(&plain);
        let _ = std::fs::remove_file(&stamped);
        assert_eq!(code, want, "{text}");
        assert_eq!((code, &text), (plain_code, &plain_text));
        assert!(
            text.contains("engine_dense/dense_cycle3/n=1000000/batch_per_sec: 3.000e8 ->"),
            "the key is shared: {text}"
        );
    }
    let _ = std::fs::remove_file(&base);
}
