//! End-to-end fault injection: a seeded run corrupts ≥10% of all agents
//! mid-run and the oscillator's dominance rotation, measured through
//! [`RecoveryProbe`], returns to its pre-fault period statistics; and a
//! checkpointed `ppsim faults` run resumed from a mid-run generation
//! reports what the uninterrupted run reports.

use population_protocols::core::clocks::detect::{completed_periods, dominance_events};
use population_protocols::core::clocks::diag::RecoveryProbe;
use population_protocols::core::clocks::oscillator::{central_init, Dk18Oscillator, Oscillator};
use population_protocols::core::engine::counts::CountPopulation;
use population_protocols::core::engine::faults::{CorruptMode, FaultSpec, FaultyPopulation};
use population_protocols::core::engine::rng::SimRng;
use population_protocols::core::engine::sim::Simulator;
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

/// Runs `ppsim` with `args` plus `--metrics <metrics>`, returning its
/// stdout; the run must exit 0.
fn ppsim(args: &[&str], metrics: &Path) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_ppsim"))
        .args(args)
        .arg("--metrics")
        .arg(metrics)
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
    let reference = ppsim(&run, &dir.join("ref.json"));
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
        &dir.join("ck.json"),
    );
    let mut generations: Vec<_> = std::fs::read_dir(&ck_dir)
        .expect("checkpoint dir exists")
        .map(|e| e.expect("dir entry").path())
        .collect();
    generations.sort();
    assert_eq!(generations.len(), 3, "the store keeps three generations");
    let middle = generations[1].to_str().expect("utf-8 temp path");
    assert!(middle.ends_with("gen-0000000002.snap"), "{middle}");
    let resumed = ppsim(&["resume", middle], &dir.join("resumed.json"));

    let text = String::from_utf8_lossy(&reference);
    assert!(text.contains("2 injections over 300 rounds"), "{text}");
    assert_eq!(checkpointed, reference, "checkpointing changes no verdict");
    assert_eq!(resumed, reference, "resumed verdict lines differ");
    let metrics = |name: &str| std::fs::read(dir.join(name)).expect("metrics file");
    assert_eq!(metrics("ck.json"), metrics("ref.json"));
    assert_eq!(
        metrics("resumed.json"),
        metrics("ref.json"),
        "resumed metrics differ"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
