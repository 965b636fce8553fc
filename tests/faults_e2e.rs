//! End-to-end fault injection: a seeded run corrupts ≥10% of all agents
//! mid-run and the oscillator's dominance rotation, measured through
//! [`RecoveryProbe`], returns to its pre-fault period statistics; and a
//! checkpointed `ppsim faults` run resumed from a mid-run generation
//! reports what the uninterrupted run reports, its run record after the
//! header being the killed run's, line for line, and resuming twice from
//! older generations of one directory works; and an injection with no
//! window of rows after it, or that moved nobody, is reported as not
//! judged rather than failed.

use population_protocols::clocks::detect::{completed_periods, dominance_events};
use population_protocols::clocks::diag::RecoveryProbe;
use population_protocols::clocks::oscillator::{central_init, Dk18Oscillator, Oscillator};
use population_protocols::engine::counts::CountPopulation;
use population_protocols::engine::faults::{CorruptMode, FaultSpec, FaultyPopulation};
use population_protocols::engine::json::Json;
use population_protocols::engine::rng::SimRng;
use population_protocols::engine::sim::Simulator;
use std::path::Path;
use std::process::Command;

#[test]
fn corrupting_15_percent_of_agents_recovers_rotation_periods() {
    let n = 4_000u64;
    let fault_time = 120.0;
    let osc = Dk18Oscillator::new();
    let inner = CountPopulation::from_counts(&osc, &central_init(&osc, n, 12));
    let spec = FaultSpec::new(0xe2e).corrupt(fault_time, 0.15, CorruptMode::Randomize);
    let mut pop = FaultyPopulation::new(inner, &spec).expect("valid spec");
    let mut rng = SimRng::seed_from(9);
    let mut rows = Vec::new();
    while pop.time() < 420.0 {
        pop.step_batch(&mut rng, n);
        rows.push((pop.time(), osc.species_counts(&pop.counts())));
    }

    let injected = pop.events();
    assert_eq!(injected.len(), 1, "exactly one corruption fired");
    assert!(
        injected[0].hit >= n / 10,
        "must corrupt ≥10% of agents, hit {}",
        injected[0].hit
    );
    assert!((injected[0].time - fault_time).abs() < 1.0);

    // Pre-fault period statistics form the probe's band; post-fault
    // completed periods are sampled at their completion times. Recovery is
    // a streak of cycles whose period matches the pre-fault baseline.
    let events = dominance_events(&rows, 0.8);
    let all_periods = completed_periods(&events);
    let pre: Vec<f64> = all_periods
        .iter()
        .filter(|(t, _)| *t <= fault_time)
        .map(|(_, p)| *p)
        .collect();
    assert!(
        pre.len() >= 2,
        "baseline needs completed pre-fault cycles, got {}",
        pre.len()
    );
    let mut probe = RecoveryProbe::from_baseline(&pre, 0.35, 2);
    probe.mark_fault(fault_time);
    for &(t, p) in &all_periods {
        probe.sample(t, p);
    }
    let recovery = probe
        .recovered_at()
        .expect("rotation returns to pre-fault period statistics");
    assert!(recovery > fault_time);
    let rt = probe.recovery_time().expect("recovered_at implies a time");
    assert!(
        rt < 250.0,
        "recovery should happen well inside the run, took {rt}"
    );
}

/// Runs `ppsim` with `args` plus `--record <record>`, returning its
/// stdout; the run must exit 0.
fn ppsim(args: &[&str], record: &Path) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_ppsim"))
        .args(args)
        .arg("--record")
        .arg(record)
        .output()
        .expect("spawn ppsim");
    assert!(
        out.status.success(),
        "ppsim {args:?} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

#[test]
fn faults_resume_from_a_middle_generation_is_byte_identical() {
    // 2000 agents for 300 rounds with byzantine dents at rounds 120 and
    // 240; checkpoints every 75 rounds keep generations 1-3 (rounds 150,
    // 225 and 300). Generation 2 lies between the two dents, so the
    // resumed run replays the second one.
    let dir = std::env::temp_dir().join(format!("ppsim-faults-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let run = ["faults", "--n", "2000", "--rounds", "300", "--seed", "5"];
    let reference = ppsim(&run, &dir.join("ref.jsonl"));
    let ck_dir = dir.join("ck");
    let ck_dir_arg = ck_dir.to_str().expect("utf-8 temp path");
    let checkpointed = ppsim(
        &[
            &run[..],
            &[
                "--checkpoint-every",
                "150000",
                "--checkpoint-dir",
                ck_dir_arg,
            ],
        ]
        .concat(),
        &dir.join("ck.jsonl"),
    );
    let mut generations: Vec<_> = std::fs::read_dir(&ck_dir)
        .expect("checkpoint dir exists")
        .map(|e| e.expect("dir entry").path())
        .collect();
    generations.sort();
    assert_eq!(generations.len(), 3, "the store keeps three generations");
    let middle = generations[1].to_str().expect("utf-8 temp path");
    assert!(middle.ends_with("gen-0000000002.snap"), "{middle}");
    let resumed = ppsim(&["resume", middle], &dir.join("resumed.jsonl"));

    let text = String::from_utf8_lossy(&reference);
    assert!(text.contains("2 injections over 300 rounds"), "{text}");
    assert_eq!(checkpointed, reference, "checkpointing changes no verdict");
    assert_eq!(resumed, reference, "resumed verdict lines differ");
    let record = |name: &str| std::fs::read_to_string(dir.join(name)).expect("run record");
    let footer = |name: &str| record(name).lines().last().expect("footer").to_string();
    let header = |name: &str| {
        let text = record(name);
        Json::parse(text.lines().next().expect("header")).expect("header parses")
    };
    assert_eq!(footer("ck.jsonl"), footer("ref.jsonl"));
    // Under the killed run's id, the resumed record after the header is
    // the checkpointed run's: every fault event and the footer.
    let (ck, resumed) = (record("ck.jsonl"), record("resumed.jsonl"));
    assert_eq!(
        resumed.lines().count(),
        ck.lines().count(),
        "resumed record length"
    );
    for (i, (a, b)) in resumed.lines().zip(ck.lines()).enumerate().skip(1) {
        assert_eq!(a, b, "line {} of the resumed record differs", i + 1);
    }
    let (killed, continued) = (header("ck.jsonl"), header("resumed.jsonl"));
    assert_eq!(
        continued.get("run"),
        killed.get("run"),
        "the run id carries over"
    );
    let from = continued.get("resumed_from").expect("names its snapshot");
    assert_eq!(from.get("generation").and_then(Json::as_u64), Some(2));
    assert_eq!(from.get("command").and_then(Json::as_str), Some("faults"));
    // Every fault event of the run, the two before the snapshot included.
    assert_eq!(
        record("resumed.jsonl").matches("\"fault_event\"").count(),
        2
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpointed run keeps counting into its checkpoints without
/// `--record`: resumed with `--record` from an early generation, its record
/// after the header is the uninterrupted run's, byte for byte once the run
/// ids (which name each run's own arguments) are taken out — the species
/// rows from before the snapshot and the footer included.
#[test]
fn resumed_footer_counts_the_whole_run() {
    let dir = std::env::temp_dir().join(format!("ppsim-resume-footer-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let run = [
        "oscillator",
        "--n",
        "3000",
        "--rounds",
        "200",
        "--seed",
        "3",
    ];
    let reference = ppsim(&run, &dir.join("ref.jsonl"));
    let ck_dir = dir.join("ck");
    let out = Command::new(env!("CARGO_BIN_EXE_ppsim"))
        .args(run)
        .args(["--checkpoint-every", "100000", "--checkpoint-dir"])
        .arg(&ck_dir)
        .output()
        .expect("spawn ppsim");
    assert!(out.status.success(), "{}", out.status);
    let mut generations: Vec<_> = std::fs::read_dir(&ck_dir)
        .expect("checkpoint dir exists")
        .map(|e| e.expect("dir entry").path())
        .collect();
    generations.sort();
    let oldest = generations[0].to_str().expect("utf-8 temp path");
    let resumed = ppsim(&["resume", oldest], &dir.join("resumed.jsonl"));
    assert_eq!(resumed, reference, "resumed summary differs");
    let body = |name: &str| {
        let text = std::fs::read_to_string(dir.join(name)).expect("run record");
        let header = Json::parse(text.lines().next().expect("header")).expect("header parses");
        let run = header.get("run").and_then(Json::as_str).expect("run id");
        text.lines()
            .skip(1)
            .map(|l| l.replace(&format!(r#""run":"{run}","#), ""))
            .collect::<Vec<_>>()
    };
    let (resumed, reference) = (body("resumed.jsonl"), body("ref.jsonl"));
    assert!(resumed.len() > 200, "one species row per round");
    assert_eq!(resumed, reference);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A run resumed from an older generation numbers its checkpoints after
/// that generation, replacing the later ones in place, so the directory
/// stays resumable from each of them: resuming from generation 0 and then
/// from generation 1 both continue the uninterrupted run, and a named
/// generation that does not exist is reported as missing.
#[test]
fn resumes_from_generation_0_then_1_of_one_directory_succeed() {
    let dir = std::env::temp_dir().join(format!("ppsim-resume-twice-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let run = [
        "oscillator",
        "--n",
        "3000",
        "--rounds",
        "200",
        "--seed",
        "3",
    ];
    let reference = ppsim(&run, &dir.join("ref.jsonl"));
    let ck_dir = dir.join("ck");
    let out = Command::new(env!("CARGO_BIN_EXE_ppsim"))
        .args(run)
        .args(["--checkpoint-every", "200000", "--checkpoint-dir"])
        .arg(&ck_dir)
        .output()
        .expect("spawn ppsim");
    assert!(out.status.success(), "{}", out.status);
    let generation = |g: u64| ck_dir.join(format!("gen-{g:010}.snap"));
    let listing = || {
        let mut names: Vec<String> = std::fs::read_dir(&ck_dir)
            .expect("checkpoint dir exists")
            .map(|e| {
                e.expect("dir entry")
                    .file_name()
                    .to_string_lossy()
                    .into_owned()
            })
            .collect();
        names.sort();
        names
    };
    let written = listing();
    let body = |name: &str| {
        let text = std::fs::read_to_string(dir.join(name)).expect("run record");
        let header = Json::parse(text.lines().next().expect("header")).expect("header parses");
        let run = header.get("run").and_then(Json::as_str).expect("run id");
        text.lines()
            .skip(1)
            .map(|l| l.replace(&format!(r#""run":"{run}","#), ""))
            .collect::<Vec<_>>()
    };
    for g in [0u64, 1] {
        let path = generation(g);
        let record = format!("resumed-{g}.jsonl");
        let resumed = ppsim(
            &["resume", path.to_str().expect("utf-8 temp path")],
            &dir.join(&record),
        );
        assert_eq!(resumed, reference, "summary resumed from generation {g}");
        assert_eq!(body(&record), body("ref.jsonl"), "record resumed from {g}");
        assert_eq!(listing(), written, "generations replaced in place");
    }
    let missing = generation(7);
    let out = Command::new(env!("CARGO_BIN_EXE_ppsim"))
        .args(["resume", missing.to_str().expect("utf-8 temp path")])
        .output()
        .expect("spawn ppsim");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success());
    assert!(stderr.contains("is missing"), "{stderr}");
    assert!(!stderr.contains("snapshot_corrupt"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `faults` report line of the injection at round `t`.
fn injection_line(stdout: &[u8], t: &str) -> String {
    let text = String::from_utf8_lossy(stdout);
    let prefix = format!("t={t:>7} ");
    text.lines()
        .find(|l| l.trim_start().starts_with(&prefix))
        .unwrap_or_else(|| panic!("no injection at t = {t}:\n{text}"))
        .to_string()
}

#[test]
fn faults_that_cannot_be_judged_fail_nothing() {
    let dir = std::env::temp_dir().join(format!("ppsim-faults-unjudged-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    // The second dent fires on the last batch: no rows follow it, while the
    // first one, 120 rounds earlier, has a whole window to recover in.
    let out = ppsim(
        &["faults", "--n", "2000", "--rounds", "240", "--seed", "5"],
        &dir.join("end.jsonl"),
    );
    let first = injection_line(&out, "120.0");
    assert!(first.contains("recovered in"), "{first}");
    let last = injection_line(&out, "240.0");
    assert!(
        last.contains("not judged: 0.0 of 110 rounds remain"),
        "{last}"
    );
    // The byzantine top-up at round 120 finds its pinned state already
    // full and moves nobody: ordinary rotation is no recovery.
    let out = ppsim(
        &[
            "faults",
            "--n",
            "1000",
            "--rounds",
            "300",
            "--seed",
            "4",
            "--byz-every",
            "60",
        ],
        &dir.join("idle.jsonl"),
    );
    let idle = injection_line(&out, "120.0");
    assert!(idle.contains("moved=0 "), "{idle}");
    assert!(idle.contains("not judged: no agent moved"), "{idle}");
    assert!(!idle.contains("recovered"), "{idle}");
    let _ = std::fs::remove_dir_all(&dir);
}
