//! The random-matching round against its exact law.
//!
//! `MatchingPopulation::round` runs on counts: it is the collision batch's
//! settle step with all `⌊n/2⌋` pairs deferred. The oracle here knows
//! nothing of that: at n = 6 and 7 it enumerates every perfect matching of
//! the agents (at odd n, every idle agent times every perfect matching of
//! the rest) and both orientations of every matched pair, pushes the
//! counts through each ordered cell's `outcome_table`, and iterates the
//! one-round law. Each comparison is a chi-square goodness-of-fit test over
//! 40 000 independent seeds, after rounds 1 and 3 of the same runs.
//!
//! Three protocols: an age counter, whose counts are the histogram of how
//! often each agent interacted, so a round that skips or repeats agents
//! shows up directly; DK18, whose reseeding and weak-predation cells are
//! randomized; and a one-way rule (`1, 0 → 1, 1`), which fires in one
//! orientation only.

use population_protocols::clocks::oscillator::Dk18Oscillator;
use population_protocols::engine::matching::MatchingPopulation;
use population_protocols::engine::protocol::{Protocol, TableProtocol};
use population_protocols::engine::rng::SimRng;
use std::collections::HashMap;

mod common;

/// Independent runs per case.
const SEEDS: u64 = 40_000;

/// The rounds after which the counts are compared.
const CHECKED: [u64; 2] = [1, 3];

/// Family-wise false-alarm rate of the twelve comparisons in this file
/// (three protocols, two population sizes, two round counts); each is held
/// to `ALPHA / 12` (Bonferroni).
const ALPHA: f64 = 1e-3;

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

/// The initiator in state 1 converts a responder in state 0; the reverse
/// orientation does nothing.
fn one_way() -> TableProtocol {
    TableProtocol::new(2, "one-way").rule(1, 0, 1, 1)
}

/// The law of one ordered cell `(a, b)`: its outcome table, with the mass
/// the table leaves out on the identity.
fn cell(protocol: &dyn Protocol, a: usize, b: usize) -> Vec<((usize, usize), f64)> {
    let mut outcomes = protocol
        .outcome_table(a, b)
        .unwrap_or_else(|| panic!("pair ({a}, {b}) has no outcome table"));
    let identity = 1.0 - outcomes.iter().map(|o| o.1).sum::<f64>();
    if identity > 0.0 {
        outcomes.push(((a, b), identity));
    }
    outcomes
}

/// One way of matching the agents: the idle agent's state (odd n) and the
/// matched pairs' states, each pair sorted and the list sorted.
type Matching = (Option<usize>, Vec<(usize, usize)>);

/// Every perfect matching of the agents in `agents` (their states) whose
/// first agent is `agents[0]`, extending `pairs`; counted into `out`.
fn perfect(agents: &[usize], pairs: &mut Vec<(usize, usize)>, out: &mut Vec<Vec<(usize, usize)>>) {
    let Some((&first, rest)) = agents.split_first() else {
        out.push(pairs.clone());
        return;
    };
    for j in 0..rest.len() {
        let partner = rest[j];
        let others: Vec<usize> = rest[..j].iter().chain(&rest[j + 1..]).copied().collect();
        pairs.push((first.min(partner), first.max(partner)));
        perfect(&others, pairs, out);
        pairs.pop();
    }
}

/// Every way to match the agents of `config`, grouped by [`Matching`] with
/// its multiplicity: at odd n, each agent idles against every perfect
/// matching of the others.
fn matchings(config: &[u64]) -> HashMap<Matching, u64> {
    let agents: Vec<usize> = config
        .iter()
        .enumerate()
        .flat_map(|(s, &c)| std::iter::repeat_n(s, c as usize))
        .collect();
    let idles: Vec<Option<usize>> = if agents.len() % 2 == 1 {
        (0..agents.len()).map(Some).collect()
    } else {
        vec![None]
    };
    let mut ways = HashMap::new();
    for idle in idles {
        let matched: Vec<usize> = (0..agents.len())
            .filter(|&i| Some(i) != idle)
            .map(|i| agents[i])
            .collect();
        let mut all = Vec::new();
        perfect(&matched, &mut Vec::new(), &mut all);
        for mut pairs in all {
            pairs.sort_unstable();
            *ways.entry((idle.map(|i| agents[i]), pairs)).or_insert(0) += 1;
        }
    }
    ways
}

/// The exact law of the counts after one matching round from `config`.
fn round_law(protocol: &dyn Protocol, config: &[u64]) -> Vec<(Vec<u64>, f64)> {
    let ways = matchings(config);
    let total = ways.values().sum::<u64>() as f64;
    let mut law: HashMap<Vec<u64>, f64> = HashMap::new();
    for ((idle, pairs), mult) in ways {
        let mut start = vec![0u64; config.len()];
        if let Some(s) = idle {
            start[s] += 1;
        }
        let mut dist = vec![(start, 1.0f64)];
        for &(x, y) in &pairs {
            // Either agent of the pair initiates, with probability ½ each.
            let both: Vec<((usize, usize), f64)> = cell(protocol, x, y)
                .into_iter()
                .chain(cell(protocol, y, x))
                .map(|(o, p)| (o, p / 2.0))
                .collect();
            let mut next = Vec::with_capacity(dist.len() * both.len());
            for (counts, p) in &dist {
                for &((a2, b2), q) in &both {
                    let mut c = counts.clone();
                    c[a2] += 1;
                    c[b2] += 1;
                    next.push((c, p * q));
                }
            }
            dist = next;
        }
        for (counts, p) in dist {
            *law.entry(counts).or_insert(0.0) += p * mult as f64 / total;
        }
    }
    law.into_iter().collect()
}

/// The exact law of the counts after each of [`CHECKED`]'s round counts
/// from `initial`, sorted by counts.
fn exact_laws(protocol: &dyn Protocol, initial: &[u64]) -> Vec<Vec<(Vec<u64>, f64)>> {
    let mut rows: HashMap<Vec<u64>, Vec<(Vec<u64>, f64)>> = HashMap::new();
    let mut start = initial.to_vec();
    start.resize(protocol.num_states(), 0);
    let mut dist: HashMap<Vec<u64>, f64> = HashMap::from([(start, 1.0)]);
    let mut laws = Vec::new();
    for round in 1..=*CHECKED.last().expect("rounds to check") {
        let mut next = HashMap::new();
        for (config, p) in dist {
            let row = rows
                .entry(config.clone())
                .or_insert_with(|| round_law(protocol, &config));
            for (to, q) in row.iter() {
                *next.entry(to.clone()).or_insert(0.0) += p * q;
            }
        }
        dist = next;
        if CHECKED.contains(&round) {
            let mut law: Vec<(Vec<u64>, f64)> = dist.iter().map(|(c, &p)| (c.clone(), p)).collect();
            law.sort_by(|x, y| x.0.cmp(&y.0));
            laws.push(law);
        }
    }
    laws
}

/// The counts of `SEEDS` runs of `MatchingPopulation::round` from
/// `initial`, after each of [`CHECKED`]'s round counts.
fn sampled<P: Protocol>(protocol: &P, initial: &[u64], seed: u64) -> Vec<HashMap<Vec<u64>, u64>> {
    let mut seen = vec![HashMap::new(); CHECKED.len()];
    for run in 0..SEEDS {
        let mut rng = SimRng::seed_from(seed + run);
        let mut pop = MatchingPopulation::from_counts(protocol, initial);
        for (slot, &rounds) in CHECKED.iter().enumerate() {
            while pop.rounds() < rounds {
                pop.round(&mut rng);
            }
            *seen[slot].entry(pop.counts().to_vec()).or_insert(0) += 1;
        }
    }
    seen
}

/// Checks `protocol` from `initial` after every round count of
/// [`CHECKED`], at this file's level `ALPHA / 12`.
fn assert_rounds_match_the_exact_law<P: Protocol>(
    name: &str,
    protocol: &P,
    initial: &[u64],
    seed: u64,
) {
    let n: u64 = initial.iter().sum();
    let laws = exact_laws(protocol, initial);
    let observed = sampled(protocol, initial, seed);
    for ((rounds, law), seen) in CHECKED.iter().zip(&laws).zip(&observed) {
        let name = format!("{name} at n = {n} after {rounds} rounds");
        common::assert_matches_exact(&name, law, seen, ALPHA / 12.0);
    }
}

#[test]
fn ages_rounds_match_the_exact_law() {
    assert_rounds_match_the_exact_law("ages", &ages(), &[6], 1 << 20);
    assert_rounds_match_the_exact_law("ages", &ages(), &[7], 2 << 20);
}

#[test]
fn dk18_rounds_match_the_exact_law() {
    let osc = Dk18Oscillator::new();
    assert_rounds_match_the_exact_law("DK18", &osc, &[1, 1, 1, 1, 1, 1, 0], 3 << 20);
    assert_rounds_match_the_exact_law("DK18", &osc, &[1, 2, 1, 1, 1, 1, 0], 4 << 20);
}

#[test]
fn one_way_rounds_match_the_exact_law() {
    assert_rounds_match_the_exact_law("one-way", &one_way(), &[4, 2], 5 << 20);
    assert_rounds_match_the_exact_law("one-way", &one_way(), &[5, 2], 6 << 20);
}

/// Every agent takes part in exactly one interaction of a round at even n,
/// and all but one at odd n: one round of the age counter from all-new
/// agents ages every agent once (odd n: all but the idle one).
#[test]
fn one_round_ages_every_agent_once() {
    for (n, want) in [(6u64, [0, 6, 0, 0]), (7, [1, 6, 0, 0])] {
        for seed in 0..1_000 {
            let mut pop = MatchingPopulation::from_counts(ages(), &[n]);
            let mut rng = SimRng::seed_from(seed);
            pop.round(&mut rng);
            assert_eq!(pop.counts(), want, "n = {n}, seed {seed}");
            assert_eq!(pop.steps(), n / 2);
        }
    }
}
