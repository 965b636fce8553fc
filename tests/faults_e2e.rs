//! End-to-end fault injection: a seeded run corrupts ≥10% of all agents
//! mid-run and the oscillator's dominance rotation, measured through
//! [`RecoveryProbe`], returns to its pre-fault period statistics.

use population_protocols::core::clocks::detect::{dominance_events, Dominance};
use population_protocols::core::clocks::diag::RecoveryProbe;
use population_protocols::core::clocks::oscillator::{
    central_init, Dk18Oscillator, Oscillator, NUM_SPECIES,
};
use population_protocols::core::engine::counts::CountPopulation;
use population_protocols::core::engine::faults::{CorruptMode, FaultSpec, FaultyPopulation};
use population_protocols::core::engine::rng::SimRng;
use population_protocols::core::engine::sim::Simulator;

/// Completed rotation periods as `(completion_time, period)` pairs: the
/// time between successive dominance events of the same species.
fn completed_periods(events: &[Dominance]) -> Vec<(f64, f64)> {
    let mut last_seen: [Option<f64>; NUM_SPECIES] = [None; NUM_SPECIES];
    let mut out = Vec::new();
    for e in events {
        if let Some(prev) = last_seen[e.species] {
            out.push((e.time, e.time - prev));
        }
        last_seen[e.species] = Some(e.time);
    }
    out
}

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
