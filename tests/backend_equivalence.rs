//! Cross-backend equivalence tests: the agent-array, count-based, sparse,
//! accelerated, and matching simulators must realize the same stochastic
//! process, per-step `step()` and batched `step_batch()` must induce the
//! same run distribution, and the rules formalism must agree with
//! hand-coded protocols. The count backends must also ask the protocol
//! about reactivity only for pairs of states that have been occupied.
//!
//! Random cases are drawn from seeded [`SimRng`] streams, so every failure
//! reproduces from the printed case index.

use population_protocols::core::engine::accel::AcceleratedPopulation;
use population_protocols::core::engine::counts::{CountPopulation, SparseCountPopulation};
use population_protocols::core::engine::matching::MatchingPopulation;
use population_protocols::core::engine::metrics;
use population_protocols::core::engine::population::Population;
use population_protocols::core::engine::protocol::{Protocol, TableProtocol};
use population_protocols::core::engine::rng::SimRng;
use population_protocols::core::engine::sim::{run_until, Simulator, StepOutcome};
use population_protocols::core::engine::stats::{
    chi_square_p_value, chi_square_two_sample, Summary,
};
use population_protocols::core::rules::{parse::parse_ruleset, FlagProtocol, VarSet};
use std::cell::RefCell;
use std::collections::HashMap;

/// Mean fratricide completion time for each backend over several seeds.
fn fratricide_mean(backend: &str, leaders: u64, followers: u64, runs: u64) -> f64 {
    let protocol = TableProtocol::new(2, "fratricide").rule(1, 1, 1, 0);
    let times: Vec<f64> = (0..runs)
        .map(|seed| {
            let mut rng = SimRng::seed_from(seed * 31 + 5);
            match backend {
                "agents" => {
                    let mut pop = Population::from_counts(&protocol, &[followers, leaders]);
                    run_until(&mut pop, &mut rng, 1e7, 1, |s| s.count(1) == 1).unwrap()
                }
                "counts" => {
                    let mut pop = CountPopulation::from_counts(&protocol, &[followers, leaders]);
                    run_until(&mut pop, &mut rng, 1e7, 1, |s| s.count(1) == 1).unwrap()
                }
                "sparse" => {
                    let mut pop =
                        SparseCountPopulation::from_dense(&protocol, &[followers, leaders]);
                    run_until(&mut pop, &mut rng, 1e7, 1, |s| s.count(1) == 1).unwrap()
                }
                "accel" => {
                    let mut pop =
                        AcceleratedPopulation::from_counts(&protocol, &[followers, leaders]);
                    run_until(&mut pop, &mut rng, 1e7, 1, |s| s.count(1) == 1).unwrap()
                }
                _ => unreachable!(),
            }
        })
        .collect();
    Summary::of(&times).mean
}

#[test]
fn all_backends_agree_on_fratricide_time() {
    let agents = fratricide_mean("agents", 16, 112, 40);
    let counts = fratricide_mean("counts", 16, 112, 40);
    let sparse = fratricide_mean("sparse", 16, 112, 40);
    let accel = fratricide_mean("accel", 16, 112, 40);
    let reference = agents;
    for (name, value) in [("counts", counts), ("sparse", sparse), ("accel", accel)] {
        let rel = (value - reference).abs() / reference;
        assert!(
            rel < 0.25,
            "{name} backend mean {value} deviates from agent backend {reference}"
        );
    }
}

/// The 3-state cyclic protocol used by the statistical equivalence tests:
/// it keeps all three states populated at moderate times, giving the
/// chi-square tests nontrivial categories.
fn cycle() -> TableProtocol {
    TableProtocol::new(3, "cycle")
        .rule(0, 1, 1, 1)
        .rule(1, 2, 2, 2)
        .rule(2, 0, 0, 0)
}

const EQUIV_N: [u64; 3] = [80, 80, 80];
const EQUIV_RUNS: u64 = 120;
const EQUIV_TARGET_STEPS: u64 = 240 * 4; // 4 parallel rounds at n = 240

/// Advances `sim` to at least `target` steps using per-interaction `step()`.
fn drive_stepwise(sim: &mut dyn Simulator, rng: &mut SimRng, target: u64) {
    while sim.steps() < target {
        if sim.step(rng) == StepOutcome::Silent {
            break;
        }
    }
}

/// Advances `sim` to at least `target` steps using `step_batch` in chunks
/// of `chunk` (exercising batch-boundary truncation when the chunk does not
/// divide the target).
fn drive_batched(sim: &mut dyn Simulator, rng: &mut SimRng, target: u64, chunk: u64) {
    while sim.steps() < target {
        let out = sim.step_batch(rng, (target - sim.steps()).min(chunk));
        if out.silent || out.executed == 0 {
            break;
        }
    }
}

/// One independent observation per run: the count of state 0 at the fixed
/// parallel time. (Pooling all state counts across runs would violate the
/// chi-square independence assumption — within a run the counts sum to n,
/// so pooled cells carry run-to-run variance the test doesn't model.)
fn per_run_observations<S: Simulator>(
    make: impl Fn() -> S,
    seed_base: u64,
    batched: bool,
) -> Vec<f64> {
    (0..EQUIV_RUNS)
        .map(|run| {
            let mut sim = make();
            let mut rng = SimRng::seed_from(seed_base + run);
            if batched {
                drive_batched(&mut sim, &mut rng, EQUIV_TARGET_STEPS, 97);
            } else {
                drive_stepwise(&mut sim, &mut rng, EQUIV_TARGET_STEPS);
            }
            sim.count(0) as f64
        })
        .collect()
}

/// Bins two samples on a shared equal-width grid spanning their pooled
/// range and chi-squares the histograms. Each sample element must be an
/// independent observation. The grid starts at the pooled minimum, not at
/// zero: dense-suite observables sit far from zero, and a zero-based grid
/// would put them all in one or two bins.
fn binned_chi_square(a: &[f64], b: &[f64], bins: usize) -> (f64, usize, f64) {
    let lo = a.iter().chain(b).fold(f64::INFINITY, |m, &v| m.min(v));
    let hi = a.iter().chain(b).fold(f64::NEG_INFINITY, |m, &v| m.max(v));
    let width = (hi - lo + 1e-9) / bins as f64;
    let hist = |data: &[f64]| {
        let mut h = vec![0u64; bins];
        for &v in data {
            h[(((v - lo) / width) as usize).min(bins - 1)] += 1;
        }
        h
    };
    let (stat, dof) = chi_square_two_sample(&hist(a), &hist(b));
    let p = chi_square_p_value(stat, dof);
    (stat, dof, p)
}

/// Chi-square homogeneity of the per-run state-0 count under step vs
/// step_batch driving; the null hypothesis (same distribution) must not be
/// rejected at α = 0.001.
fn assert_step_batch_equivalent<S: Simulator>(name: &str, make: impl Fn() -> S, seed: u64) {
    let stepwise = per_run_observations(&make, seed, false);
    let batched = per_run_observations(&make, seed + 50_000, true);
    let (stat, dof, p) = binned_chi_square(&stepwise, &batched, 6);
    assert!(
        p > 0.001,
        "{name}: step vs step_batch distributions differ \
         (chi² = {stat:.2}, dof = {dof}, p = {p:.5})"
    );
}

#[test]
fn step_batch_matches_step_on_population() {
    assert_step_batch_equivalent(
        "Population",
        || Population::from_counts(cycle(), &EQUIV_N),
        100,
    );
}

#[test]
fn step_batch_matches_step_on_count_population() {
    assert_step_batch_equivalent(
        "CountPopulation",
        || CountPopulation::from_counts(cycle(), &EQUIV_N),
        200,
    );
}

#[test]
fn step_batch_matches_step_on_sparse_count_population() {
    assert_step_batch_equivalent(
        "SparseCountPopulation",
        || SparseCountPopulation::from_dense(cycle(), &EQUIV_N),
        300,
    );
}

#[test]
fn step_batch_matches_step_on_accelerated_population() {
    assert_step_batch_equivalent(
        "AcceleratedPopulation",
        || AcceleratedPopulation::from_counts(cycle(), &EQUIV_N),
        400,
    );
}

#[test]
fn step_batch_matches_step_on_matching_population() {
    assert_step_batch_equivalent(
        "MatchingPopulation",
        || MatchingPopulation::from_counts(cycle(), &EQUIV_N),
        500,
    );
}

/// One input of the reactive-dense equivalence suite: initial counts, runs,
/// the step target each run is driven to, the `step_batch` chunk, and the
/// state whose count each run reports at the target.
struct DenseInput {
    counts: &'static [u64],
    runs: u64,
    target: u64,
    chunk: u64,
    observed: usize,
}

/// At n = 3000 a collision-free epoch covers ≈ 34 interactions of which
/// ≈ 11 are reactive, so `CountPopulation` and `AcceleratedPopulation`
/// route their batches through the contingency-table collision path (the
/// per-step and agent-array backends provide the reference distribution).
/// Two parallel rounds.
const DENSE: DenseInput = DenseInput {
    counts: &[1_000, 1_000, 1_000],
    runs: 100,
    target: 3_000 * 2,
    chunk: 97,
    observed: 0,
};

/// The large-n input of the dense suite: one parallel round at n = 48 000,
/// where each batch chains about twenty collision epochs (≈ 137
/// interactions each). The chunk of 2 971 does not divide the target, so the last epoch
/// of every batch is truncated at the boundary. Runs are costly at this
/// size; 60 runs over 6 bins keep expected bin counts ≈ 10.
const DENSE_LARGE: DenseInput = DenseInput {
    counts: &[20_000, 14_000, 14_000],
    runs: 60,
    target: 48_000,
    chunk: 2_971,
    observed: 0,
};

/// As [`per_run_observations`] but for a dense-suite input, reporting the
/// count of its `observed` state.
fn dense_observations<S: Simulator>(
    make: impl Fn() -> S,
    input: &DenseInput,
    seed_base: u64,
    batched: bool,
) -> Vec<f64> {
    (0..input.runs)
        .map(|run| {
            let mut sim = make();
            let mut rng = SimRng::seed_from(seed_base + run);
            if batched {
                drive_batched(&mut sim, &mut rng, input.target, input.chunk);
            } else {
                drive_stepwise(&mut sim, &mut rng, input.target);
            }
            sim.count(input.observed) as f64
        })
        .collect()
}

/// Chi-square homogeneity of step vs step_batch driving on a dense-suite
/// input (collision-batch regime for the count backends).
fn assert_dense_step_batch_equivalent<S: Simulator>(
    name: &str,
    make: impl Fn() -> S,
    input: &DenseInput,
    seed: u64,
) {
    let stepwise = dense_observations(&make, input, seed, false);
    let batched = dense_observations(&make, input, seed + 50_000, true);
    let (stat, dof, p) = binned_chi_square(&stepwise, &batched, 6);
    let n: u64 = input.counts.iter().sum();
    assert!(
        p > 0.001,
        "{name} (dense, n = {n}): step vs step_batch distributions differ \
         (chi² = {stat:.2}, dof = {dof}, p = {p:.5})"
    );
}

#[test]
fn dense_step_batch_matches_step_on_population() {
    assert_dense_step_batch_equivalent(
        "Population",
        || Population::from_counts(cycle(), DENSE.counts),
        &DENSE,
        1_100,
    );
}

#[test]
fn dense_step_batch_matches_step_on_count_population() {
    assert_dense_step_batch_equivalent(
        "CountPopulation",
        || CountPopulation::from_counts(cycle(), DENSE.counts),
        &DENSE,
        1_200,
    );
}

#[test]
fn dense_step_batch_matches_step_on_sparse_count_population() {
    assert_dense_step_batch_equivalent(
        "SparseCountPopulation",
        || SparseCountPopulation::from_dense(cycle(), DENSE.counts),
        &DENSE,
        1_300,
    );
}

#[test]
fn dense_step_batch_matches_step_on_accelerated_population() {
    assert_dense_step_batch_equivalent(
        "AcceleratedPopulation",
        || AcceleratedPopulation::from_counts(cycle(), DENSE.counts),
        &DENSE,
        1_400,
    );
}

/// The large-n input on both dense count backends: every batch chains many
/// collision epochs and truncates its last one at the chunk boundary.
#[test]
fn dense_step_batch_matches_stepwise_distribution_at_large_n() {
    assert_dense_step_batch_equivalent(
        "CountPopulation",
        || CountPopulation::from_counts(cycle(), DENSE_LARGE.counts),
        &DENSE_LARGE,
        9_000,
    );
    assert_dense_step_batch_equivalent(
        "AcceleratedPopulation",
        || AcceleratedPopulation::from_counts(cycle(), DENSE_LARGE.counts),
        &DENSE_LARGE,
        19_000,
    );
}

/// States on the occupancy-churn ring counter.
const RING_STATES: usize = 128;

/// A ring counter over [`RING_STATES`] states: two agents sharing a state
/// both advance to the next one. From a common start the agents spread
/// along the ring, vacating states and entering new ones throughout, so
/// the count backends' reactivity index keeps filling memo cells for newly
/// occupied states and dropping vacated ones from its occupied list.
fn ring() -> TableProtocol {
    (0..RING_STATES).fold(TableProtocol::new(RING_STATES, "ring"), |p, s| {
        let next = (s + 1) % RING_STATES;
        p.rule(s, s, next, next)
    })
}

/// The churn input: 200 agents in state 0, five parallel rounds. Every pair
/// is reactive at the start, so the first batches run collision epochs;
/// per-step and leap batches take over as the agents spread out. The
/// observed state 2 is entered and vacated throughout the run (≈ 37
/// agents at the target).
const RING: DenseInput = DenseInput {
    counts: &[200],
    runs: 100,
    target: 200 * 5,
    chunk: 97,
    observed: 2,
};

#[test]
fn churn_step_batch_matches_step_on_count_backends() {
    assert_dense_step_batch_equivalent(
        "CountPopulation",
        || CountPopulation::from_counts(ring(), RING.counts),
        &RING,
        2_100,
    );
    assert_dense_step_batch_equivalent(
        "AcceleratedPopulation",
        || AcceleratedPopulation::from_counts(ring(), RING.counts),
        &RING,
        2_200,
    );
}

#[test]
fn dense_step_batch_matches_step_on_matching_population() {
    assert_dense_step_batch_equivalent(
        "MatchingPopulation",
        || MatchingPopulation::from_counts(cycle(), DENSE.counts),
        &DENSE,
        1_500,
    );
}

/// The dense scenario must actually route through the collision-batch
/// regime (otherwise the dense equivalence tests above silently degrade to
/// re-testing the leap path). Counter deltas are lower bounds because the
/// metrics registry is process-global and other tests may record
/// concurrently.
#[test]
fn dense_scenario_uses_collision_epochs() {
    metrics::enable();
    let before = metrics::snapshot();
    let mut count_pop = CountPopulation::from_counts(cycle(), DENSE.counts);
    let mut accel_pop = AcceleratedPopulation::from_counts(cycle(), DENSE.counts);
    let mut rng = SimRng::seed_from(77);
    count_pop.step_batch(&mut rng, DENSE.target);
    accel_pop.step_batch(&mut rng, DENSE.target);
    let after = metrics::snapshot();
    metrics::disable();
    let epochs = after.counter("collision_epochs") - before.counter("collision_epochs");
    let steps =
        after.counter("collision_batched_steps") - before.counter("collision_batched_steps");
    // Two backends × 6000 steps ÷ ≈ 35 steps/epoch ⇒ ≳ 300 epochs.
    assert!(epochs >= 100, "only {epochs} collision epochs recorded");
    assert!(
        steps >= 2 * DENSE.target - 200,
        "only {steps} steps settled via collision batches"
    );
}

/// Natural-log factorial table over a large range, for exact pmf
/// evaluation in the marginal tests (`ln x!` via cumulative sums — no
/// approximation beyond f64 rounding).
struct LnFact(Vec<f64>);

impl LnFact {
    fn new(limit: usize) -> Self {
        let mut t = vec![0.0f64; limit + 1];
        for x in 2..=limit {
            t[x] = t[x - 1] + (x as f64).ln();
        }
        Self(t)
    }

    fn get(&self, x: u64) -> f64 {
        self.0[x as usize]
    }
}

/// One-sample chi-square of integer samples against an exact pmf: bins a
/// ±5σ window around the mean, folds the tails into the edge bins, merges
/// cells until each expects ≥ 5 observations, and tests at α = 0.001.
fn assert_matches_exact_pmf(
    name: &str,
    samples: &[u64],
    mean: f64,
    sd: f64,
    ln_pmf: impl Fn(u64) -> f64,
) {
    let lo = (mean - 5.0 * sd).floor().max(0.0) as u64;
    let hi = (mean + 5.0 * sd).ceil() as u64;
    let bins = 24usize;
    let width = ((hi - lo) / bins as u64).max(1);
    let bin_of = |x: u64| -> usize {
        if x < lo {
            0
        } else {
            (((x - lo) / width) as usize).min(bins - 1)
        }
    };
    let mut probs = vec![0.0f64; bins];
    for x in lo..=hi {
        probs[bin_of(x)] += ln_pmf(x).exp();
    }
    // The mass outside ±5σ (≈ 6·10⁻⁷) goes to the edge bins; splitting it
    // evenly misattributes at most half of that, far below bin resolution.
    let leftover = (1.0 - probs.iter().sum::<f64>()).max(0.0);
    probs[0] += leftover / 2.0;
    probs[bins - 1] += leftover / 2.0;
    let mut obs = vec![0u64; bins];
    for &s in samples {
        obs[bin_of(s)] += 1;
    }
    // Merge adjacent cells until each expects ≥ 5 observations.
    let total = samples.len() as f64;
    let mut cells: Vec<(f64, f64)> = Vec::new();
    let mut acc = (0.0f64, 0.0f64);
    for (&o, &p) in obs.iter().zip(&probs) {
        acc.0 += o as f64;
        acc.1 += total * p;
        if acc.1 >= 5.0 {
            cells.push(acc);
            acc = (0.0, 0.0);
        }
    }
    if acc.1 > 0.0 {
        if let Some(last) = cells.last_mut() {
            last.0 += acc.0;
            last.1 += acc.1;
        }
    }
    let stat: f64 = cells.iter().map(|&(o, e)| (o - e) * (o - e) / e).sum();
    let dof = cells.len() - 1;
    let p = chi_square_p_value(stat, dof);
    assert!(
        p > 0.001,
        "{name}: samples deviate from the exact pmf \
         (chi² = {stat:.2}, dof = {dof}, p = {p:.5})"
    );
}

/// `rng.binomial` at count = 10⁶ against the exact binomial pmf — the
/// regime the removed normal-approximation path used to cover (it was
/// *not* exact; the mode-inversion sampler must be).
#[test]
fn binomial_marginal_matches_exact_pmf_at_large_count() {
    let count = 1_000_000u64;
    let p = 0.3f64;
    let lf = LnFact::new(count as usize);
    let ln_pmf = |x: u64| {
        lf.get(count) - lf.get(x) - lf.get(count - x)
            + x as f64 * p.ln()
            + (count - x) as f64 * (1.0 - p).ln()
    };
    let mut rng = SimRng::seed_from(314);
    let samples: Vec<u64> = (0..20_000).map(|_| rng.binomial(count, p)).collect();
    let mean = count as f64 * p;
    let sd = (count as f64 * p * (1.0 - p)).sqrt();
    assert_matches_exact_pmf("binomial(1e6, 0.3)", &samples, mean, sd, ln_pmf);
}

/// `rng.hypergeometric` with a 10⁶-agent urn against the exact pmf — the
/// marginal that anchors the collision-batch contingency-table chain.
#[test]
fn hypergeometric_marginal_matches_exact_pmf_at_large_count() {
    let total = 1_000_000u64;
    let tagged = 333_333u64;
    let draws = 1_254u64; // ≈ 2ℓ for an epoch at n = 10⁶
    let lf = LnFact::new(total as usize);
    let ln_pmf = |x: u64| {
        lf.get(tagged) - lf.get(x) - lf.get(tagged - x) + lf.get(total - tagged)
            - lf.get(draws - x)
            - lf.get(total - tagged - (draws - x))
            - (lf.get(total) - lf.get(draws) - lf.get(total - draws))
    };
    let mut rng = SimRng::seed_from(2_718);
    let samples: Vec<u64> = (0..20_000)
        .map(|_| rng.hypergeometric(total, tagged, draws))
        .collect();
    let frac = tagged as f64 / total as f64;
    let mean = draws as f64 * frac;
    let fpc = (total - draws) as f64 / (total - 1) as f64;
    let sd = (draws as f64 * frac * (1.0 - frac) * fpc).sqrt();
    assert_matches_exact_pmf("hypergeometric(1e6, 1/3, 1254)", &samples, mean, sd, ln_pmf);
}

/// The leaping batch path must also agree: fratricide on the count backend
/// is reactive-sparse, so `step_batch` spends most of its time in the
/// geometric-skip branch. Compare hitting-time distributions coarsely
/// (binned) between stepwise and batched driving.
#[test]
fn count_population_leaping_batch_matches_step_distribution() {
    let protocol = TableProtocol::new(2, "fratricide").rule(1, 1, 1, 0);
    let runs = 150u64;
    let mut times = [Vec::new(), Vec::new()];
    for (which, batched) in [(0usize, false), (1, true)] {
        for run in 0..runs {
            let mut pop = CountPopulation::from_counts(&protocol, &[112, 16]);
            let mut rng = SimRng::seed_from(7_000 + which as u64 * 100_000 + run);
            let t = if batched {
                // Large batches: the whole run is a handful of step_batch
                // calls dominated by geometric leaps.
                loop {
                    let out = pop.step_batch(&mut rng, 1 << 14);
                    if pop.count(1) == 1 || out.silent {
                        break pop.time();
                    }
                }
            } else {
                run_until(&mut pop, &mut rng, 1e7, 1, |s| s.count(1) == 1).unwrap()
            };
            times[which].push(t);
        }
    }
    // Bin the hitting times on a common grid and chi-square the histograms.
    let (stat, dof, p) = binned_chi_square(&times[0], &times[1], 6);
    assert!(
        p > 0.001,
        "leaping batch hitting times diverge (chi² = {stat:.2}, dof = {dof}, p = {p:.5})"
    );
}

/// `BatchOutcome::executed` accounting: the reported count must equal the
/// change in `steps()` exactly, on every backend, for random batch sizes.
#[test]
fn batch_executed_matches_steps_delta_exactly() {
    for case in 0..60u64 {
        let mut rng = SimRng::seed_from(10_000 + case);
        let max_steps = 1 + rng.below(2_000);
        let seed = rng.next_u64();

        let mut checks: Vec<(&str, Box<dyn Simulator>)> = vec![
            (
                "agents",
                Box::new(Population::from_counts(cycle(), &EQUIV_N)),
            ),
            (
                "counts",
                Box::new(CountPopulation::from_counts(cycle(), &EQUIV_N)),
            ),
            (
                "sparse",
                Box::new(SparseCountPopulation::from_dense(cycle(), &EQUIV_N)),
            ),
            (
                "accel",
                Box::new(AcceleratedPopulation::from_counts(cycle(), &EQUIV_N)),
            ),
            (
                "matching",
                Box::new(MatchingPopulation::from_counts(cycle(), &EQUIV_N)),
            ),
        ];
        for (name, sim) in checks.iter_mut() {
            let mut rng = SimRng::seed_from(seed);
            let before = sim.steps();
            let out = sim.step_batch(&mut rng, max_steps);
            let delta = sim.steps() - before;
            assert_eq!(
                out.executed, delta,
                "case {case} {name}: executed {} but steps moved {delta}",
                out.executed
            );
            assert!(
                out.changed <= out.executed,
                "case {case} {name}: more changes than steps"
            );
            if *name == "matching" {
                // Whole rounds only: may overshoot by < ⌊n/2⌋.
                let n = sim.n();
                assert!(
                    out.executed >= max_steps && out.executed < max_steps + n / 2,
                    "case {case} matching: executed {} for request {max_steps}",
                    out.executed
                );
            } else {
                assert_eq!(
                    out.executed, max_steps,
                    "case {case} {name}: non-silent batch must execute exactly"
                );
            }
        }
    }
}

/// A silent configuration yields `executed == 0`, `silent == true`, and no
/// `steps()` movement on the reactivity-tracking backends.
#[test]
fn silent_batches_consume_nothing() {
    let protocol = TableProtocol::new(2, "fratricide").rule(1, 1, 1, 0);
    let mut rng = SimRng::seed_from(42);
    // One leader: no reactive pair exists.
    let mut accel = AcceleratedPopulation::from_counts(&protocol, &[9, 1]);
    let out = accel.step_batch(&mut rng, 1_000);
    assert!(out.silent);
    assert_eq!(out.executed, 0);
    assert_eq!(accel.steps(), 0);

    let mut counts = CountPopulation::from_counts(&protocol, &[9, 1]);
    let out = counts.step_batch(&mut rng, 1_000);
    assert!(out.silent);
    assert_eq!(out.executed, 0);
    assert_eq!(counts.steps(), 0);
}

/// Population size is conserved by every backend on a random cyclic
/// protocol, under batched stepping.
#[test]
fn conservation_on_random_protocols() {
    for case in 0..16u64 {
        let mut rng = SimRng::seed_from(20_000 + case);
        let c0 = 1 + rng.below(49);
        let c1 = 1 + rng.below(49);
        let c2 = 1 + rng.below(49);
        let n = c0 + c1 + c2;
        let mut pop = CountPopulation::from_counts(cycle(), &[c0, c1, c2]);
        for chunk in 0..10 {
            pop.step_batch(&mut rng, 50);
            assert_eq!(
                pop.counts().iter().sum::<u64>(),
                n,
                "case {case} chunk {chunk}"
            );
        }
    }
}

/// A FlagProtocol epidemic behaves like the equivalent TableProtocol
/// epidemic (same state space, same dynamics, loose per-seed envelope).
#[test]
fn dsl_epidemic_matches_table_epidemic() {
    for case in 0..16u64 {
        let seed = 30_000 + case * 17;
        let mut vars = VarSet::new();
        let rules = parse_ruleset(
            "(I) + (!I) -> (I) + (I)\n(!I) + (I) -> (I) + (I)",
            &mut vars,
        )
        .unwrap();
        let dsl = FlagProtocol::new(vars, rules, "epidemic");
        let mut pop_dsl = CountPopulation::from_counts(&dsl, &[127, 1]);
        let mut rng = SimRng::seed_from(seed);
        let t_dsl = run_until(&mut pop_dsl, &mut rng, 1e4, 1, |s| s.count(0) == 0).unwrap();

        let table = TableProtocol::new(2, "epidemic")
            .rule(1, 0, 1, 1)
            .rule(0, 1, 1, 1);
        let mut pop_tab = CountPopulation::from_counts(&table, &[127, 1]);
        let mut rng = SimRng::seed_from(seed + 1);
        let t_tab = run_until(&mut pop_tab, &mut rng, 1e4, 1, |s| s.count(0) == 0).unwrap();
        assert!(
            t_dsl / t_tab < 8.0 && t_tab / t_dsl < 8.0,
            "case {case}: epidemic times diverge wildly: dsl {t_dsl} vs table {t_tab}"
        );
    }
}

/// The accelerated backend never reports Silent while a reactive pair
/// exists, and vice versa.
#[test]
fn accel_silence_is_sound() {
    let protocol = TableProtocol::new(2, "fratricide").rule(1, 1, 1, 0);
    for leaders in 0u64..6 {
        for followers in 2u64..40 {
            let mut pop = AcceleratedPopulation::from_counts(&protocol, &[followers, leaders]);
            let mut rng = SimRng::seed_from(leaders * 100 + followers);
            let outcome = pop.step(&mut rng);
            if leaders >= 2 {
                assert_ne!(outcome, StepOutcome::Silent, "{leaders} leaders");
            } else {
                assert_eq!(outcome, StepOutcome::Silent, "{leaders} leaders");
            }
        }
    }
}

/// A protocol wrapper that records every [`Protocol::is_reactive`] query.
struct AskCounter {
    inner: TableProtocol,
    asked: RefCell<HashMap<(usize, usize), u64>>,
}

impl Protocol for AskCounter {
    fn num_states(&self) -> usize {
        self.inner.num_states()
    }
    fn interact(&self, a: usize, b: usize, rng: &mut SimRng) -> (usize, usize) {
        self.inner.interact(a, b, rng)
    }
    fn is_reactive(&self, a: usize, b: usize) -> bool {
        *self.asked.borrow_mut().entry((a, b)).or_default() += 1;
        self.inner.is_reactive(a, b)
    }
    fn outcome_table(&self, a: usize, b: usize) -> Option<Vec<((usize, usize), f64)>> {
        self.inner.outcome_table(a, b)
    }
}

/// With 1 024 declared states (the batching limit) and only states 0–2
/// ever occupied, the count backends ask `is_reactive` about at most
/// 3² = 9 pairs; an eager `k × k` table would ask 1 048 576 times. Debug
/// builds also recount every occupied pair through the protocol in their
/// consistency assertions, so the total number of calls is pinned in
/// release builds only; the pairs asked about are pinned in both.
#[test]
fn count_backends_ask_only_about_occupied_pairs() {
    let counts = [9_000u64, 10, 10];
    let check = |p: &AskCounter, what: &str| {
        let asked = p.asked.borrow();
        let outside = asked.keys().filter(|&&(a, b)| a >= 3 || b >= 3).count();
        assert_eq!(outside, 0, "{what} asked about {outside} unoccupied pairs");
        let calls: u64 = asked.values().sum();
        if cfg!(not(debug_assertions)) {
            assert!(calls <= 9, "{what} made {calls} is_reactive calls");
        }
    };
    let protocol = || AskCounter {
        inner: TableProtocol::new(1_024, "cycle")
            .rule(0, 1, 1, 1)
            .rule(1, 2, 2, 2)
            .rule(2, 0, 0, 0),
        asked: RefCell::new(HashMap::new()),
    };
    let mut rng = SimRng::seed_from(61);
    let p = protocol();
    let mut pop = CountPopulation::from_counts(&p, &counts);
    pop.step_batch(&mut rng, 9_020);
    check(&p, "CountPopulation::step_batch");
    let p = protocol();
    let mut pop = AcceleratedPopulation::from_counts(&p, &counts);
    for _ in 0..50 {
        pop.step(&mut rng);
    }
    check(&p, "AcceleratedPopulation");
}
