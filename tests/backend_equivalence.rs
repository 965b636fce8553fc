//! Cross-backend equivalence tests: the count-based and sparse simulators
//! must realize the same stochastic process, per-step `step()` and batched
//! `step_batch()` must induce the same run distribution on every backend, and the rules formalism must agree with hand-coded
//! protocols. The count backend must also ask the protocol
//! about reactivity only for pairs of states that have been occupied.
//!
//! Random cases are drawn from seeded [`SimRng`] streams, so every failure
//! reproduces from the printed case index.

use population_protocols::engine::collision::batch_len;
use population_protocols::engine::counts::{CountPopulation, SparseCountPopulation};
use population_protocols::engine::faults::{FaultSpec, FaultyPopulation};
use population_protocols::engine::protocol::{Protocol, RuleMasks, TableProtocol};
use population_protocols::engine::recorder::Recorder;
use population_protocols::engine::rng::SimRng;
use population_protocols::engine::sim::{run_until, Simulator};
use population_protocols::engine::stats::{chi_square_p_value, chi_square_two_sample, Summary};
use population_protocols::rules::{parse::parse_ruleset, FlagProtocol, VarSet};
use std::cell::RefCell;
use std::collections::HashMap;

/// Mean fratricide completion time for each backend over several seeds.
fn fratricide_mean(backend: &str, leaders: u64, followers: u64, runs: u64) -> f64 {
    let protocol = TableProtocol::new(2, "fratricide").rule(1, 1, 1, 0);
    let times: Vec<f64> = (0..runs)
        .map(|seed| {
            let mut rng = SimRng::seed_from(seed * 31 + 5);
            match backend {
                "counts" => {
                    let mut pop = CountPopulation::from_counts(&protocol, &[followers, leaders]);
                    run_until(&mut pop, &mut rng, 1e7, 1, |s| s.count(1) == 1).unwrap()
                }
                "sparse" => {
                    let mut pop =
                        SparseCountPopulation::from_dense(&protocol, &[followers, leaders]);
                    run_until(&mut pop, &mut rng, 1e7, 1, |s| s.count(1) == 1).unwrap()
                }
                _ => unreachable!(),
            }
        })
        .collect();
    Summary::of(&times).mean
}

/// The asynchronous count backends agree on the mean fratricide time; the
/// exact law of both at n ≤ 8 is `tests/exact_transient.rs`'s.
#[test]
fn all_backends_agree_on_fratricide_time() {
    let counts = fratricide_mean("counts", 16, 112, 40);
    let sparse = fratricide_mean("sparse", 16, 112, 40);
    let rel = (sparse - counts).abs() / counts;
    assert!(
        rel < 0.25,
        "sparse backend mean {sparse} deviates from count backend {counts}"
    );
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

/// Advances `sim` to `target` steps using per-interaction `step()`.
fn drive_stepwise(sim: &mut dyn Simulator, rng: &mut SimRng, target: u64) {
    while sim.steps() < target {
        sim.step(rng);
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

/// Runs per side of each sparse-leap scenario, one seed each.
const LEAP_RUNS: u64 = 120;

/// Per-scenario α of the sparse-leap suite: its four scenarios share a
/// family-wise α of 0.004 (Bonferroni).
const LEAP_ALPHA: f64 = 0.001;

/// The sparse-leap suite's flag protocol: an epidemic thread (2 rules,
/// replicated 3×) composed with a 3-rule mixing thread (replicated 2×)
/// whose rules fire with probability ½ or ¼, one of them on a disjunctive
/// guard. Eight states, 12 rule slots.
fn leap_ruleset() -> (VarSet, population_protocols::rules::Ruleset) {
    let mut vars = VarSet::new();
    let epidemic = parse_ruleset(
        "(I) + (!I) -> (.) + (I)\n(!I) + (I) -> (I) + (.)",
        &mut vars,
    )
    .unwrap();
    let mixer = parse_ruleset(
        "(A & !B) + (B) -> (.) + (!B) @ 0.5\n\
         (!A | I) + (A) -> (A) + (.) @ 0.25\n\
         (B) + (!B) -> (!B) + (B)",
        &mut vars,
    )
    .unwrap();
    let composed = population_protocols::rules::Ruleset::compose(&[epidemic, mixer]);
    (vars, composed)
}

/// The flag scenario's start over its 8 states (bit 0 = I, 1 = A, 2 = B):
/// three infected among 300 agents, A and B mixed.
const LEAP_FLAG_COUNTS: [u64; 8] = [100, 3, 80, 0, 60, 0, 57, 0];

/// Agents with I set (odd states).
fn infected<S: Simulator>(sim: &S) -> f64 {
    (1..8).step_by(2).map(|s| sim.count(s)).sum::<u64>() as f64
}

/// Chi-square homogeneity of an observable at `target` steps under
/// `step` vs `step_batch` driving of a sparse population, at α =
/// [`LEAP_ALPHA`]. Returns the leaps and per-step steps of one batched run.
fn assert_sparse_leap_equivalent<P: Protocol>(
    name: &str,
    make: impl Fn() -> SparseCountPopulation<P>,
    observe: impl Fn(&SparseCountPopulation<P>) -> f64,
    target: u64,
    seed: u64,
) -> (u64, u64) {
    let observations = |batched: bool, base: u64| -> Vec<f64> {
        (0..LEAP_RUNS)
            .map(|run| {
                let mut sim = make();
                let mut rng = SimRng::seed_from(base + run);
                if batched {
                    drive_batched(&mut sim, &mut rng, target, 97);
                } else {
                    drive_stepwise(&mut sim, &mut rng, target);
                }
                observe(&sim)
            })
            .collect()
    };
    let stepwise = observations(false, seed);
    let batched = observations(true, seed + 50_000);
    let (stat, dof, p) = binned_chi_square(&stepwise, &batched, 6);
    assert!(
        p > LEAP_ALPHA,
        "{name}: step vs leaping step_batch distributions differ \
         (chi² = {stat:.2}, dof = {dof}, p = {p:.5})"
    );
    let mut recorder = Recorder::new();
    {
        let _installed = recorder.install();
        drive_batched(&mut make(), &mut SimRng::seed_from(seed), target, 97);
    }
    let report = recorder.metrics();
    (
        report.counter("noop_leaps"),
        report.counter("reactive_dense_steps"),
    )
}

/// A [`TableProtocol`] given rule masks, one slot per table rule `(a, b) →
/// (a', b')` on distinct pairs, so the sparse backend leaps on it. Its
/// masks have more slots than its scale of 1, but no pair has more than
/// one effective slot, so the leap weighs each reactive pair as one
/// interaction, and the slot's interaction is the table's own (rule
/// probabilities included).
struct Slotted {
    table: TableProtocol,
    rules: Vec<[usize; 4]>,
}

impl Slotted {
    fn new(states: usize, name: &str, rules: &[([usize; 4], f64)]) -> Self {
        let table = rules.iter().fold(
            TableProtocol::new(states, name),
            |t, &([a, b, a2, b2], p)| t.rule_p(a, b, a2, b2, p),
        );
        let rules = rules.iter().map(|&(r, _)| r).collect();
        Self { table, rules }
    }
}

impl Protocol for Slotted {
    fn num_states(&self) -> usize {
        self.table.num_states()
    }
    fn interact(&self, a: usize, b: usize, rng: &mut SimRng) -> (usize, usize) {
        self.table.interact(a, b, rng)
    }
    fn is_reactive(&self, a: usize, b: usize) -> bool {
        self.table.is_reactive(a, b)
    }
    fn rule_masks(&self, state: usize) -> Option<RuleMasks> {
        let mut masks = RuleMasks::new(self.rules.len());
        for (r, &[a, b, a2, b2]) in self.rules.iter().enumerate() {
            masks.set(r, state == a, a2 != a, state == b, b2 != b);
        }
        Some(masks)
    }
}

/// The sparse backend's rule-weighted leap realizes the stepped chain, on
/// the rule masks of a [`FlagProtocol`] (LCM replicas, probabilistic
/// rules, a disjunctive guard), of the same ruleset lowered to a
/// `RuleTableProtocol` (its draw slots), and of two [`TableProtocol`]s
/// with one slot per rule ([`Slotted`]). Between them the runs cross the
/// regime boundary both ways: the epidemic's `p` climbs out of the leap
/// into per-step sampling, the fratricide's falls from per-step sampling
/// into the leap.
#[test]
fn sparse_leap_matches_stepwise_distribution() {
    let (vars, rules) = leap_ruleset();
    let flag = FlagProtocol::new(vars.clone(), rules.clone(), "leap-flag");
    let (leaps, _) = assert_sparse_leap_equivalent(
        "FlagProtocol",
        || SparseCountPopulation::from_dense(&flag, &LEAP_FLAG_COUNTS),
        infected,
        300 * 7,
        700,
    );
    assert!(leaps > 0, "FlagProtocol: the batched run never leapt");
    let live: Vec<u32> = (0..8).collect();
    let tables =
        population_protocols::lang::enumerate::lower_ruleset(&vars, &rules, &live, "leap-tables")
            .unwrap();
    let (leaps, _) = assert_sparse_leap_equivalent(
        "RuleTableProtocol",
        || SparseCountPopulation::from_dense(&tables, &LEAP_FLAG_COUNTS),
        infected,
        300 * 7,
        800,
    );
    assert!(leaps > 0, "RuleTableProtocol: the batched run never leapt");
    let epidemic = Slotted::new(2, "epidemic", &[([1, 0, 1, 1], 0.5), ([0, 1, 1, 1], 1.0)]);
    let (leaps, steps) = assert_sparse_leap_equivalent(
        "TableProtocol epidemic",
        || SparseCountPopulation::from_dense(&epidemic, &[236, 4]),
        |sim| sim.count(1) as f64,
        240 * 3,
        900,
    );
    assert!(
        leaps > 0 && steps > 0,
        "epidemic: {leaps} leaps, {steps} steps"
    );
    let fratricide = Slotted::new(2, "fratricide", &[([1, 1, 1, 0], 1.0)]);
    let (leaps, steps) = assert_sparse_leap_equivalent(
        "TableProtocol fratricide",
        || SparseCountPopulation::from_dense(&fratricide, &[0, 240]),
        |sim| sim.count(1) as f64,
        240 * 6,
        1_000,
    );
    assert!(
        leaps > 0 && steps > 0,
        "fratricide: {leaps} leaps, {steps} steps"
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
/// ≈ 11 are reactive, so `CountPopulation` routes its batches through the
/// contingency-table collision path (the per-step and agent-array backends
/// provide the reference distribution).
/// Two parallel rounds.
const DENSE: DenseInput = DenseInput {
    counts: &[1_000, 1_000, 1_000],
    runs: 100,
    target: 3_000 * 2,
    chunk: 97,
    observed: 0,
};

/// The large-n input of the dense suite: one parallel round at n = 48 000,
/// where each batch chains about eight collision batches (at most
/// `batch_len(48 000, 3)` = 380 interactions each). The chunk of 2 971 does
/// not divide the target, so the last collision batch of every chunk is
/// truncated at the boundary. Runs are costly at this
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
/// input (collision-batch regime for the count backend).
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

/// The large-n input on the dense count backend: every batch chains many
/// collision epochs and truncates its last one at the chunk boundary.
#[test]
fn dense_step_batch_matches_stepwise_distribution_at_large_n() {
    assert_dense_step_batch_equivalent(
        "CountPopulation",
        || CountPopulation::from_counts(cycle(), DENSE_LARGE.counts),
        &DENSE_LARGE,
        9_000,
    );
}

/// States on the occupancy-churn ring counter.
const RING_STATES: usize = 128;

/// A ring counter over [`RING_STATES`] states: two agents sharing a state
/// both advance to the next one. From a common start the agents spread
/// along the ring, vacating states and entering new ones throughout, so
/// the count backend's reactivity index keeps filling memo cells for newly
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
}

/// The dense scenario must actually route through the collision-batch
/// regime (otherwise the dense equivalence tests above silently degrade to
/// re-testing the leap path).
#[test]
fn dense_scenario_uses_collision_epochs() {
    let mut pop = CountPopulation::from_counts(cycle(), DENSE.counts);
    let mut rng = SimRng::seed_from(77);
    let mut recorder = Recorder::new();
    {
        let _installed = recorder.install();
        pop.step_batch(&mut rng, DENSE.target);
    }
    let report = recorder.metrics();
    let epochs = report.counter("collision_epochs");
    let steps = report.counter("collision_batched_steps");
    assert_eq!(report.counter("interactions_executed"), DENSE.target);
    assert_eq!(report.counter("batches"), 1);
    assert!(
        steps >= DENSE.target - 100,
        "only {steps} steps settled via collision batches"
    );
    // A batch over the three states settles at most batch_len(3000, 3) = 95
    // steps, so ≥ 5 900 batched steps take ≥ 63 batches.
    let n: u64 = DENSE.counts.iter().sum();
    let floor = (DENSE.target - 100).div_ceil(batch_len(n, 3));
    assert!(
        epochs >= floor,
        "only {epochs} collision epochs recorded, need {floor}"
    );
}

/// An epidemic from one infected agent starts sparse and fills up, so,
/// batch by batch, the dense backend's changed interactions rise and its
/// first leap comes before its first collision epoch; every non-silent
/// batch decomposes into regime events. Each batch records into a
/// recorder of its own.
#[test]
fn epidemic_batches_leap_before_collision_epochs() {
    let p = TableProtocol::new(2, "epidemic")
        .rule(1, 0, 1, 1)
        .rule(0, 1, 1, 1);
    let n = 20_000u64;
    for trial in 0..10 {
        let mut pop = CountPopulation::from_counts(&p, &[n - 1, 1]);
        let mut rng = SimRng::seed_from(42 + trial);
        let mut batches = Vec::new();
        while pop.count(0) > 0 && pop.time() < 80.0 {
            let mut recorder = Recorder::new();
            {
                let _installed = recorder.install();
                pop.step_batch(&mut rng, n);
            }
            batches.push(recorder.metrics());
        }
        for (i, m) in batches.iter().enumerate() {
            let regimes =
                ["collision_epochs", "noop_leaps", "reactive_dense_steps"].map(|c| m.counter(c));
            assert!(
                m.counter("silence_detections") == 1 || regimes.iter().sum::<u64>() > 0,
                "trial {trial}: batch {i} ran no regime: {regimes:?}"
            );
        }
        let changed: Vec<u64> = batches
            .iter()
            .map(|m| m.counter("interactions_changed"))
            .collect();
        assert!(
            changed.iter().any(|&c| c > changed[0]),
            "trial {trial}: changed interactions did not rise: {changed:?}"
        );
        let first = |counter| batches.iter().position(|m| m.counter(counter) > 0);
        match (first("noop_leaps"), first("collision_epochs")) {
            (Some(leap), Some(epoch)) => assert!(
                leap < epoch,
                "trial {trial}: collision epochs at batch {epoch} before leaps at {leap}"
            ),
            other => panic!("trial {trial} lacks a leap or a collision epoch: {other:?}"),
        }
    }
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

/// One-sample chi-square of integer samples against an exact pmf on the
/// support `min..=max`, at significance `alpha`.
///
/// Every value within `8σ + 8` of the mean (clipped to the support) gets
/// its exact mass, so both tails are tested, not folded away; samples past
/// that window (mass below 10⁻¹² for these families) count in the edge
/// cells.
/// Values are grouped into cells of width `⌈σ/4⌉`, and adjacent cells merge
/// until each expects ≥ 5 observations.
fn assert_matches_exact_pmf(
    name: &str,
    samples: &[u64],
    (min, max): (u64, u64),
    mean: f64,
    sd: f64,
    alpha: f64,
    ln_pmf: impl Fn(u64) -> f64,
) {
    let reach = 8.0 * sd + 8.0;
    let lo = ((mean - reach).floor().max(0.0) as u64).max(min);
    let hi = ((mean + reach).ceil() as u64).min(max);
    let width = (sd / 4.0).ceil().max(1.0) as u64;
    let cells_in_window = ((hi - lo) / width + 1) as usize;
    let cell_of = |x: u64| (x.clamp(lo, hi) - lo) as usize / width as usize;
    let mut probs = vec![0.0f64; cells_in_window];
    for x in lo..=hi {
        probs[cell_of(x)] += ln_pmf(x).exp();
    }
    let mut obs = vec![0u64; cells_in_window];
    for &s in samples {
        assert!(
            (min..=max).contains(&s),
            "{name}: sample {s} outside the support"
        );
        obs[cell_of(s)] += 1;
    }
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
    if let Some(last) = cells.last_mut() {
        last.0 += acc.0;
        last.1 += acc.1;
    }
    // The window holds all but the far tails' mass; the rest of the gap is
    // the f64 rounding of `ln x!` sums near 10⁷, about 10⁻⁸ relative.
    let window_mass: f64 = probs.iter().sum();
    assert!(
        (window_mass - 1.0).abs() < 1e-6,
        "{name}: window mass {window_mass}"
    );
    assert!(cells.len() >= 2, "{name}: too few cells for a test");
    let stat: f64 = cells.iter().map(|&(o, e)| (o - e) * (o - e) / e).sum();
    let dof = cells.len() - 1;
    let p = chi_square_p_value(stat, dof);
    assert!(
        p > alpha,
        "{name}: samples deviate from the exact pmf \
         (chi² = {stat:.2}, dof = {dof}, p = {p:.6}, alpha = {alpha:.1e})"
    );
}

/// `ln P(Binomial(count, p) = x)` against an exact factorial table.
fn binomial_ln_pmf(lf: &LnFact, count: u64, p: f64) -> impl Fn(u64) -> f64 + '_ {
    move |x| {
        lf.get(count) - lf.get(x) - lf.get(count - x)
            + x as f64 * p.ln()
            + (count - x) as f64 * (-p).ln_1p()
    }
}

/// `ln P(X = x)` for `X` the tagged count among `draws` drawn without
/// replacement from `total` items of which `tagged` are tagged.
fn hypergeometric_ln_pmf(
    lf: &LnFact,
    total: u64,
    tagged: u64,
    draws: u64,
) -> impl Fn(u64) -> f64 + '_ {
    move |x| {
        lf.get(tagged) - lf.get(x) - lf.get(tagged - x) + lf.get(total - tagged)
            - lf.get(draws - x)
            - lf.get(total - tagged - (draws - x))
            - (lf.get(total) - lf.get(draws) - lf.get(total - draws))
    }
}

/// `samples` draws of `Binomial(count, p)` against the exact pmf.
fn check_binomial(lf: &LnFact, count: u64, p: f64, samples: usize, seed: u64, alpha: f64) {
    let mut rng = SimRng::seed_from(seed);
    let xs: Vec<u64> = (0..samples).map(|_| rng.binomial(count, p)).collect();
    let mean = count as f64 * p;
    let sd = (mean * (1.0 - p)).sqrt();
    assert_matches_exact_pmf(
        &format!("binomial({count}, {p})"),
        &xs,
        (0, count),
        mean,
        sd,
        alpha,
        binomial_ln_pmf(lf, count, p),
    );
}

/// `samples` draws of the hypergeometric against the exact pmf.
fn check_hypergeometric(
    lf: &LnFact,
    (total, tagged, draws): (u64, u64, u64),
    samples: usize,
    seed: u64,
    alpha: f64,
) {
    let mut rng = SimRng::seed_from(seed);
    let xs: Vec<u64> = (0..samples)
        .map(|_| rng.hypergeometric(total, tagged, draws))
        .collect();
    let frac = tagged as f64 / total as f64;
    let mean = draws as f64 * frac;
    let fpc = (total - draws) as f64 / (total - 1) as f64;
    let sd = (draws as f64 * frac * (1.0 - frac) * fpc).sqrt();
    let support = (draws.saturating_sub(total - tagged), tagged.min(draws));
    assert_matches_exact_pmf(
        &format!("hypergeometric({total}, {tagged}, {draws})"),
        &xs,
        support,
        mean,
        sd,
        alpha,
        hypergeometric_ln_pmf(lf, total, tagged, draws),
    );
}

/// `rng.binomial` at count = 10⁶ against the exact binomial pmf — the
/// regime the removed normal-approximation path used to cover (it was
/// *not* exact; the ratio-of-uniforms sampler must be). α = 0.001.
#[test]
fn binomial_marginal_matches_exact_pmf_at_large_count() {
    let lf = LnFact::new(1_000_000);
    check_binomial(&lf, 1_000_000, 0.3, 20_000, 314, 0.001);
}

/// `rng.hypergeometric` with a 10⁶-agent urn against the exact pmf — the
/// marginal that anchors the collision-batch contingency-table chain.
/// α = 0.001.
#[test]
fn hypergeometric_marginal_matches_exact_pmf_at_large_count() {
    let lf = LnFact::new(1_000_000);
    // 1 254 draws ≈ 2ℓ for an epoch at n = 10⁶.
    check_hypergeometric(&lf, (1_000_000, 333_333, 1_254), 20_000, 2_718, 0.001);
}

/// Binomial shapes across all three sampler paths: bit-parallel lanes
/// (counts 1–64, dyadic and non-dyadic `p`, both sides of ½), then
/// inversion and ratio-of-uniforms on either side of the variance switch
/// at 4, with `p` reflected above ½ and skewed down to 10⁻⁵ at count 10⁶.
const BINOMIAL_GRID: &[(u64, f64)] = &[
    (1, 0.3),
    (2, 0.75),
    (7, 0.125),
    (26, 0.25),
    (33, 1.0 / 3.0),
    (40, 1.0 / 1024.0),
    (63, 0.9),
    (64, 0.01),
    (64, 0.1),
    (64, 0.6),
    (100, 0.04),
    (100, 0.0425),
    (200, 0.985),
    (200, 0.97),
    (10_000, 0.001),
    (1_000_000, 0.000_003),
    (1_000_000, 0.000_01),
    (5_000, 0.5),
];

/// Hypergeometric `(total, tagged, draws)` shapes on either side of the
/// variance switch at 4, in urns of 60 to 10⁶, including reflected
/// (`tagged` or `draws` above half the urn) and Poisson-skewed shapes.
const HYPERGEOMETRIC_GRID: &[(u64, u64, u64)] = &[
    (60, 30, 20),
    (60, 30, 30),
    (200, 100, 20),
    (1_254, 16, 600),
    (1_254, 17, 600),
    (10_000, 9_990, 5_000),
    (1_000_000, 3_100, 1_254),
    (1_000_000, 3_300, 1_254),
    (1_000_000, 50, 400_000),
    (1_000_000, 700_000, 500_000),
];

/// Family-wise error rate of the two grid tests below, each: Bonferroni
/// over its grid, so each shape is tested at `FAMILY_ALPHA / grid size`.
const FAMILY_ALPHA: f64 = 0.001;

/// `rng.binomial` matches the exact pmf on every [`BINOMIAL_GRID`] shape
/// (100 000 samples each). Family-wise error rate ≤ 0.001 (Bonferroni).
#[test]
fn binomial_marginals_match_exact_pmf_across_sampler_paths() {
    let lf = LnFact::new(1_000_000);
    let alpha = FAMILY_ALPHA / BINOMIAL_GRID.len() as f64;
    for (i, &(count, p)) in BINOMIAL_GRID.iter().enumerate() {
        check_binomial(&lf, count, p, 100_000, 40_000 + i as u64, alpha);
    }
}

/// `rng.hypergeometric` matches the exact pmf on every
/// [`HYPERGEOMETRIC_GRID`] shape (100 000 samples each). Family-wise error
/// rate ≤ 0.001 (Bonferroni).
#[test]
fn hypergeometric_marginals_match_exact_pmf_across_sampler_paths() {
    let lf = LnFact::new(1_000_000);
    let alpha = FAMILY_ALPHA / HYPERGEOMETRIC_GRID.len() as f64;
    for (i, &shape) in HYPERGEOMETRIC_GRID.iter().enumerate() {
        check_hypergeometric(&lf, shape, 100_000, 50_000 + i as u64, alpha);
    }
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

/// `BatchOutcome::executed` accounting: on every `Simulator` — the count
/// and sparse backends, and the fault wrapper under an empty plan and
/// under a churn plan whose triggers split the batch — the reported count
/// equals the change in `steps()` and the request, for random batch sizes.
/// The cyclic protocol is never silent.
#[test]
fn batch_executed_matches_steps_delta_exactly() {
    let faulty = |spec: &FaultSpec| {
        FaultyPopulation::new(CountPopulation::from_counts(cycle(), &EQUIV_N), spec)
            .expect("valid spec")
    };
    for case in 0..60u64 {
        let mut rng = SimRng::seed_from(10_000 + case);
        let max_steps = 1 + rng.below(2_000);
        let seed = rng.next_u64();

        let mut checks: Vec<(&str, Box<dyn Simulator>)> = vec![
            (
                "counts",
                Box::new(CountPopulation::from_counts(cycle(), &EQUIV_N)),
            ),
            (
                "sparse",
                Box::new(SparseCountPopulation::from_dense(cycle(), &EQUIV_N)),
            ),
            (
                "faulty, empty plan",
                Box::new(faulty(&FaultSpec::new(case))),
            ),
            (
                "faulty, churn plan",
                Box::new(faulty(&FaultSpec::new(case).churn(0.5, 0.2, 0))),
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
            assert_eq!(
                out.executed, max_steps,
                "case {case} {name}: non-silent batch must execute exactly"
            );
        }
    }
}

/// A silent configuration yields `executed == 0`, `silent == true`, and no
/// `steps()` movement on the reactivity-tracking count backend.
#[test]
fn silent_batches_consume_nothing() {
    let protocol = TableProtocol::new(2, "fratricide").rule(1, 1, 1, 0);
    let mut rng = SimRng::seed_from(42);
    // One leader: no reactive pair exists.
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

/// The count backend never reports a silent batch while a reactive pair
/// exists, and vice versa: a one-step batch is silent and executes nothing
/// exactly when fewer than two leaders remain.
#[test]
fn count_silence_is_sound() {
    let protocol = TableProtocol::new(2, "fratricide").rule(1, 1, 1, 0);
    for leaders in 0u64..6 {
        for followers in 2u64..40 {
            let mut pop = CountPopulation::from_counts(&protocol, &[followers, leaders]);
            let mut rng = SimRng::seed_from(leaders * 100 + followers);
            let out = pop.step_batch(&mut rng, 1);
            assert_eq!(
                out.silent,
                leaders < 2,
                "{leaders} leaders, {followers} followers"
            );
            assert_eq!(
                out.executed,
                u64::from(leaders >= 2),
                "{leaders} leaders, {followers} followers"
            );
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
/// ever occupied, the count backend asks `is_reactive` about at most
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
}
