//! The dense count backend's samplers against the exact transient law.
//!
//! At n = 8 the count vector's law after `t` interactions is computed
//! exactly by `analyze::exact::transient_counts`. Collision batches
//! (`collision::run_epoch`, chained until `t` interactions), per-step
//! sampling (`CountPopulation::step`) and the sparse backend, stepped
//! (`SparseCountPopulation::step`) and batched
//! (`SparseCountPopulation::step_batch`), must all reproduce it. A batch at
//! n = 8 holds `batch_len(8, q) = 4` interactions, so with 8 agents nearly
//! every batch meets collisions of all three kinds, including the one whose
//! two touched agents come from the same deferred pair; `t = 12` chains
//! three batches. Each comparison is a chi-square goodness-of-fit test over
//! 40 000 independent seeds.
//!
//! Seven protocols: cycle3; DK18, whose reseeding and weak-predation cells
//! are randomized; an age counter whose counts are the histogram of how
//! often each agent was picked, so any error in which agents a batch picks
//! shows up directly; and the 3-state approximate majority, the k = 1
//! ladder decay, the pairwise elimination of `X` and the 4-state exact
//! majority, whose listed outcomes make their collision-batch cells
//! enumerated (checked on batches and on steps).
//!
//! Each protocol type with outcome tables also has every cell plan checked
//! against the per-draw settle law it replaces
//! (`collision::check_cell_plans`).

use population_protocols::analyze::exact::transient_counts;
use population_protocols::clocks::junta::{KLevelDecay, PairwiseElimination};
use population_protocols::clocks::oscillator::Dk18Oscillator;
use population_protocols::clocks::oscillator::RpsOscillator;
use population_protocols::engine::collision::{
    batch_len, check_cell_plans, run_epoch, BirthdayCdf, CollisionScratch,
};
use population_protocols::engine::counts::{CountPopulation, SparseCountPopulation};
use population_protocols::engine::protocol::{Protocol, TableProtocol};
use population_protocols::engine::rng::SimRng;
use population_protocols::engine::sim::Simulator;
use population_protocols::lang::enumerate::lower_ruleset;
use population_protocols::protocols::baselines::{ApproxMajority, FourStateMajority};
use population_protocols::rules::{FlagProtocol, Guard, Rule, Ruleset, VarSet};
use std::collections::HashMap;

mod common;

/// Independent runs per side.
const SEEDS: u64 = 40_000;

/// Interactions per run: three collision batches at n = 8.
const T: u64 = 12;

/// Family-wise false-alarm rate of the [`COMPARISONS`] comparisons in this
/// file; each is held to `ALPHA / COMPARISONS` (Bonferroni).
const ALPHA: f64 = 1e-3;

/// Three protocols on four samplers, four on batches and steps.
const COMPARISONS: f64 = 20.0;

fn cycle3() -> TableProtocol {
    TableProtocol::new(3, "cycle3")
        .rule(0, 1, 1, 1)
        .rule(1, 2, 2, 2)
        .rule(2, 0, 0, 0)
}

/// States of [`ages`].
const AGES: usize = 4;

/// Every interaction ages both agents by one, up to `AGES − 1`.
fn ages() -> TableProtocol {
    let older = |s: usize| (s + 1).min(AGES - 1);
    (0..AGES)
        .flat_map(|a| (0..AGES).map(move |b| (a, b)))
        .filter(|&(a, b)| (older(a), older(b)) != (a, b))
        .fold(TableProtocol::new(AGES, "ages"), |p, (a, b)| {
            p.rule(a, b, older(a), older(b))
        })
}

/// DK18 at n = 8 with the source, charged and uncharged agents of every
/// species occupied but one: its reseeding and weak-predation cells are
/// randomized.
const DK18_INIT: [u64; 7] = [1, 2, 1, 1, 1, 2, 0];

/// Approximate majority at n = 8: blanks, `A`s and `B`s all present.
const APPROX_INIT: [u64; 3] = [2, 3, 3];

/// The k = 1 ladder decay at n = 8: every `(Z, X)` rung occupied, most
/// agents in the initial state.
const DECAY_INIT: [u64; 6] = [1, 1, 1, 3, 1, 1];

/// Pairwise elimination at n = 8: six `X` agents and two `¬X`.
const ELIMINATION_INIT: [u64; 2] = [2, 6];

/// The 4-state exact majority at n = 8: strong `A`, strong `B`, weak `a`
/// and weak `b` all present.
const FOUR_STATE_INIT: [u64; 4] = [3, 2, 1, 2];

/// [`common::assert_matches_exact`] at this file's level,
/// `ALPHA / COMPARISONS`.
fn assert_matches_exact(name: &str, exact: &[(Vec<u64>, f64)], observed: &HashMap<Vec<u64>, u64>) {
    let name = format!("{name} after {T} interactions");
    common::assert_matches_exact(&name, exact, observed, ALPHA / COMPARISONS);
}

/// Final counts of `SEEDS` runs of collision batches chained to `T`
/// interactions.
fn batched<P: Protocol>(protocol: &P, initial: &[u64], seed: u64) -> HashMap<Vec<u64>, u64> {
    let n: u64 = initial.iter().sum();
    let cdf = BirthdayCdf::new(n);
    let mut scratch = CollisionScratch::new();
    let mut seen = HashMap::new();
    for run in 0..SEEDS {
        let mut rng = SimRng::seed_from(seed + run);
        let mut counts = initial.to_vec();
        counts.resize(protocol.num_states(), 0);
        let mut done = 0;
        while done < T {
            let q = counts.iter().filter(|&&c| c > 0).count();
            let out = run_epoch(
                protocol,
                &mut counts,
                &cdf,
                &mut scratch,
                &mut rng,
                T - done,
            );
            assert_eq!(out.executed, batch_len(n, q).min(T - done));
            done += out.executed;
        }
        *seen.entry(counts).or_insert(0) += 1;
    }
    seen
}

/// Final counts of `SEEDS` runs of `T` per-step interactions.
fn stepped<P: Protocol>(protocol: &P, initial: &[u64], seed: u64) -> HashMap<Vec<u64>, u64> {
    let mut seen = HashMap::new();
    for run in 0..SEEDS {
        let mut rng = SimRng::seed_from(seed + run);
        let mut pop = CountPopulation::from_counts(protocol, initial);
        for _ in 0..T {
            pop.step(&mut rng);
        }
        *seen.entry(pop.counts()).or_insert(0) += 1;
    }
    seen
}

/// Final counts of `SEEDS` runs of `T` interactions on the sparse backend,
/// by `T` calls of `step` or by `step_batch` calls until `T` interactions
/// ran or the configuration fell silent.
fn sparse<P: Protocol>(
    protocol: &P,
    initial: &[u64],
    seed: u64,
    batched: bool,
) -> HashMap<Vec<u64>, u64> {
    let mut seen = HashMap::new();
    for run in 0..SEEDS {
        let mut rng = SimRng::seed_from(seed + run);
        let mut pop = SparseCountPopulation::from_dense(protocol, initial);
        if batched {
            while pop.steps() < T && !pop.step_batch(&mut rng, T - pop.steps()).silent {}
        } else {
            for _ in 0..T {
                pop.step(&mut rng);
            }
        }
        *seen.entry(pop.counts()).or_insert(0) += 1;
    }
    seen
}

#[test]
fn batches_at_n8_hold_several_interactions() {
    assert_eq!(batch_len(8, 3), 4);
    assert_eq!(batch_len(8, 6), 4);
    assert!(T >= 3 * batch_len(8, 1));
}

#[test]
fn cycle3_collision_batches_match_the_exact_law() {
    let initial = [3, 3, 2];
    let exact = transient_counts(&cycle3(), &initial, T);
    assert_matches_exact(
        "cycle3 batches",
        &exact,
        &batched(&cycle3(), &initial, 1 << 20),
    );
}

#[test]
fn cycle3_steps_match_the_exact_law() {
    let initial = [3, 3, 2];
    let exact = transient_counts(&cycle3(), &initial, T);
    assert_matches_exact(
        "cycle3 steps",
        &exact,
        &stepped(&cycle3(), &initial, 2 << 20),
    );
}

#[test]
fn dk18_collision_batches_match_the_exact_law() {
    let osc = Dk18Oscillator::new();
    let exact = transient_counts(&osc, &DK18_INIT, T);
    assert_matches_exact("DK18 batches", &exact, &batched(&osc, &DK18_INIT, 3 << 20));
}

#[test]
fn dk18_steps_match_the_exact_law() {
    let osc = Dk18Oscillator::new();
    let exact = transient_counts(&osc, &DK18_INIT, T);
    assert_matches_exact("DK18 steps", &exact, &stepped(&osc, &DK18_INIT, 4 << 20));
}

#[test]
fn ages_collision_batches_match_the_exact_law() {
    let exact = transient_counts(&ages(), &[8], T);
    assert_matches_exact("ages batches", &exact, &batched(&ages(), &[8], 5 << 20));
}

#[test]
fn ages_steps_match_the_exact_law() {
    let exact = transient_counts(&ages(), &[8], T);
    assert_matches_exact("ages steps", &exact, &stepped(&ages(), &[8], 6 << 20));
}

#[test]
fn cycle3_sparse_backend_matches_the_exact_law() {
    let initial = [3, 3, 2];
    let exact = transient_counts(&cycle3(), &initial, T);
    let steps = sparse(&cycle3(), &initial, 7 << 20, false);
    assert_matches_exact("cycle3 sparse steps", &exact, &steps);
    let batches = sparse(&cycle3(), &initial, 8 << 20, true);
    assert_matches_exact("cycle3 sparse batches", &exact, &batches);
}

#[test]
fn dk18_sparse_backend_matches_the_exact_law() {
    let osc = Dk18Oscillator::new();
    let exact = transient_counts(&osc, &DK18_INIT, T);
    let steps = sparse(&osc, &DK18_INIT, 9 << 20, false);
    assert_matches_exact("DK18 sparse steps", &exact, &steps);
    let batches = sparse(&osc, &DK18_INIT, 10 << 20, true);
    assert_matches_exact("DK18 sparse batches", &exact, &batches);
}

#[test]
fn ages_sparse_backend_matches_the_exact_law() {
    let exact = transient_counts(&ages(), &[8], T);
    let steps = sparse(&ages(), &[8], 11 << 20, false);
    assert_matches_exact("ages sparse steps", &exact, &steps);
    let batches = sparse(&ages(), &[8], 12 << 20, true);
    assert_matches_exact("ages sparse batches", &exact, &batches);
}

#[test]
fn approx_majority_collision_batches_match_the_exact_law() {
    let p = ApproxMajority::new();
    let exact = transient_counts(&p, &APPROX_INIT, T);
    let batches = batched(&p, &APPROX_INIT, 13 << 20);
    assert_matches_exact("approx-majority batches", &exact, &batches);
}

#[test]
fn approx_majority_steps_match_the_exact_law() {
    let p = ApproxMajority::new();
    let exact = transient_counts(&p, &APPROX_INIT, T);
    let steps = stepped(&p, &APPROX_INIT, 14 << 20);
    assert_matches_exact("approx-majority steps", &exact, &steps);
}

#[test]
fn klevel_decay_collision_batches_match_the_exact_law() {
    let p = KLevelDecay::new(1);
    let exact = transient_counts(&p, &DECAY_INIT, T);
    let batches = batched(&p, &DECAY_INIT, 15 << 20);
    assert_matches_exact("k-level decay batches", &exact, &batches);
}

#[test]
fn klevel_decay_steps_match_the_exact_law() {
    let p = KLevelDecay::new(1);
    let exact = transient_counts(&p, &DECAY_INIT, T);
    let steps = stepped(&p, &DECAY_INIT, 16 << 20);
    assert_matches_exact("k-level decay steps", &exact, &steps);
}

#[test]
fn pairwise_elimination_collision_batches_match_the_exact_law() {
    let p = PairwiseElimination::new();
    let exact = transient_counts(&p, &ELIMINATION_INIT, T);
    let batches = batched(&p, &ELIMINATION_INIT, 17 << 20);
    assert_matches_exact("pairwise-elimination batches", &exact, &batches);
}

#[test]
fn pairwise_elimination_steps_match_the_exact_law() {
    let p = PairwiseElimination::new();
    let exact = transient_counts(&p, &ELIMINATION_INIT, T);
    let steps = stepped(&p, &ELIMINATION_INIT, 18 << 20);
    assert_matches_exact("pairwise-elimination steps", &exact, &steps);
}

#[test]
fn four_state_majority_collision_batches_match_the_exact_law() {
    let p = FourStateMajority::new();
    let exact = transient_counts(&p, &FOUR_STATE_INIT, T);
    let batches = batched(&p, &FOUR_STATE_INIT, 19 << 20);
    assert_matches_exact("4-state majority batches", &exact, &batches);
}

#[test]
fn four_state_majority_steps_match_the_exact_law() {
    let p = FourStateMajority::new();
    let exact = transient_counts(&p, &FOUR_STATE_INIT, T);
    let steps = stepped(&p, &FOUR_STATE_INIT, 20 << 20);
    assert_matches_exact("4-state majority steps", &exact, &steps);
}

/// The deterministic tables: on every pair of the pairwise elimination
/// and the 4-state majority, the table lists one outcome of probability 1,
/// and `interact` returns it.
#[test]
fn deterministic_tables_list_what_interact_returns() {
    fn check<P: Protocol>(p: &P) {
        let k = p.num_states();
        let mut rng = SimRng::seed_from(21);
        let mut moving = 0;
        for a in 0..k {
            for b in 0..k {
                let table = p.outcome_table(a, b).expect("a listed table");
                let [(out, prob)] = table[..] else {
                    panic!("{}: ({a}, {b}) lists {table:?}", p.name());
                };
                assert_eq!(prob, 1.0, "{}: ({a}, {b})", p.name());
                assert_eq!(p.interact(a, b, &mut rng), out, "{}: ({a}, {b})", p.name());
                moving += usize::from(out != (a, b));
            }
        }
        assert!(moving > 0, "{}: no pair moves", p.name());
    }
    check(&PairwiseElimination::new());
    check(&FourStateMajority::new());
}

/// Every protocol type that lists its outcome tables, on every cell: the
/// identity plans, the precomputed conditionals bit for bit and the settled
/// counts against the per-draw loop. The flag ruleset mixes a certain
/// rule, a probabilistic one and a rule that matches but never moves, and
/// is checked both as a `FlagProtocol` and lowered to a rule table.
#[test]
fn cell_plans_equal_the_per_draw_law_for_every_protocol() {
    check_cell_plans(&cycle3()).unwrap();
    check_cell_plans(&ages()).unwrap();
    check_cell_plans(&Dk18Oscillator::new()).unwrap();
    check_cell_plans(&RpsOscillator::new()).unwrap();
    check_cell_plans(&ApproxMajority::new()).unwrap();
    check_cell_plans(&PairwiseElimination::new()).unwrap();
    check_cell_plans(&FourStateMajority::new()).unwrap();
    for k in 1..=3 {
        check_cell_plans(&KLevelDecay::new(k)).unwrap();
    }

    let mut vars = VarSet::new();
    let (a, b) = (vars.add("A"), vars.add("B"));
    let rules = Ruleset::from_rules(vec![
        Rule::new(
            Guard::var(a),
            Guard::not_var(a),
            &Guard::True,
            &Guard::var(a),
        )
        .unwrap(),
        Rule::new(
            Guard::True,
            Guard::var(b),
            &Guard::var(b),
            &Guard::not_var(b),
        )
        .unwrap()
        .with_probability(0.3),
        Rule::new(Guard::var(a), Guard::var(a), &Guard::var(a), &Guard::True).unwrap(),
    ]);
    let live: Vec<u32> = (0..4).collect();
    let table = lower_ruleset(&vars, &rules, &live, "mixed").unwrap();
    check_cell_plans(&table).unwrap();
    check_cell_plans(&FlagProtocol::new(vars, rules, "mixed")).unwrap();
}
