//! Random-matching synchronous scheduler.
//!
//! Section 5.3 of the paper slows protocols down by emulating a scheduler
//! that "activates a random matching in the population in every step". This
//! module provides that scheduler directly: each round draws a uniformly
//! random (near-)perfect matching on the agents and applies one interaction
//! per matched pair, with a uniformly random orientation.
//!
//! Agents are indistinguishable, so a round runs on the count vector: it is
//! the settle step of a collision batch whose every agent is deferred
//! ([`collision::run_matching_round`]), `O(q²)` draws for `q` occupied
//! states, whatever `n`.
//!
//! Theorem 5.1's oscillator analysis, and consequently the whole clock
//! hierarchy, is claimed to hold under both the asynchronous and the
//! random-matching scheduler; experiment E12 checks this empirically.

use crate::collision::{self, CollisionScratch};
use crate::counts::BATCH_STATE_LIMIT;
use crate::metrics::Counter;
use crate::prof::{self, Section};
use crate::protocol::Protocol;
use crate::recorder;
use crate::rng::SimRng;
use crate::sim::{BatchOutcome, Simulator, StepOutcome};

/// A population driven by the random-matching synchronous scheduler.
///
/// Each [`MatchingPopulation::round`] performs `⌊n/2⌋` pairwise interactions
/// along a fresh uniformly random matching. With odd `n`, one agent idles per
/// round. Parallel time advances by 1 per round (each agent participates in
/// ≤ 1 interaction per round, matching the paper's convention).
///
/// # Examples
///
/// ```
/// use pp_engine::matching::MatchingPopulation;
/// use pp_engine::protocol::TableProtocol;
/// use pp_engine::rng::SimRng;
/// use pp_engine::sim::Simulator;
///
/// let p = TableProtocol::new(2, "epidemic").rule(1, 0, 1, 1).rule(0, 1, 1, 1);
/// let mut pop = MatchingPopulation::from_counts(&p, &[127, 1]);
/// let mut rng = SimRng::seed_from(0);
/// while pop.count(0) > 0 {
///     pop.round(&mut rng);
/// }
/// // One-way epidemic over matchings completes in Θ(log n) rounds.
/// assert!(pop.rounds() < 64);
/// ```
#[derive(Debug, Clone)]
pub struct MatchingPopulation<P> {
    protocol: P,
    /// Agents per state: the configuration.
    counts: Vec<u64>,
    /// Working memory of the round's settle step (urns + cell-plan cache).
    scratch: CollisionScratch,
    n: u64,
    steps: u64,
    rounds: u64,
}

impl<P: Protocol> MatchingPopulation<P> {
    /// Creates a population with `counts[s]` agents in state `s`.
    ///
    /// # Panics
    ///
    /// Panics if `counts` is longer than the state space, if the population
    /// has fewer than 2 agents, or if the protocol has more states than
    /// `CountPopulation` batches (1 024): the round's cell-plan index is
    /// `k × k`.
    #[must_use]
    pub fn from_counts(protocol: P, counts: &[u64]) -> Self {
        let k = protocol.num_states();
        assert!(
            k <= BATCH_STATE_LIMIT,
            "the matching scheduler runs protocols of at most {BATCH_STATE_LIMIT} states, \
             this one has {k}"
        );
        assert!(counts.len() <= k, "more initial counts than states");
        let n: u64 = counts.iter().sum();
        assert!(n >= 2, "population must have at least 2 agents");
        let mut full = vec![0u64; k];
        full[..counts.len()].copy_from_slice(counts);
        Self {
            protocol,
            counts: full,
            scratch: CollisionScratch::new(),
            n,
            steps: 0,
            rounds: 0,
        }
    }

    /// Number of matching rounds executed.
    #[must_use]
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Executes one round: a fresh uniform random matching, one interaction
    /// per matched pair with random orientation. Returns how many of the
    /// round's interactions changed at least one agent's state.
    pub fn round(&mut self, rng: &mut SimRng) -> u64 {
        let _batch_span = prof::section(Section::BatchMatching);
        self.settle_round(rng)
    }

    /// One round, without a section of its own.
    fn settle_round(&mut self, rng: &mut SimRng) -> u64 {
        let out = collision::run_matching_round(
            &self.protocol,
            &mut self.counts,
            self.n,
            &mut self.scratch,
            rng,
        );
        self.steps += out.executed;
        self.rounds += 1;
        out.changed
    }

    /// Runs until `stop` holds (checked once per round) or `max_rounds`
    /// pass; returns the round count at which `stop` first held.
    pub fn run_until<F>(&mut self, rng: &mut SimRng, max_rounds: u64, mut stop: F) -> Option<u64>
    where
        F: FnMut(&Self) -> bool,
    {
        if stop(self) {
            return Some(self.rounds);
        }
        for _ in 0..max_rounds {
            self.round(rng);
            if stop(self) {
                return Some(self.rounds);
            }
        }
        None
    }
}

impl<P: Protocol> Simulator for MatchingPopulation<P> {
    fn n(&self) -> u64 {
        self.n
    }

    fn num_states(&self) -> usize {
        self.protocol.num_states()
    }

    fn steps(&self) -> u64 {
        self.steps
    }

    /// Parallel time under the matching scheduler is the round count.
    fn time(&self) -> f64 {
        self.rounds as f64
    }

    fn count(&self, state: usize) -> u64 {
        self.counts[state]
    }

    fn counts(&self) -> Vec<u64> {
        self.counts.clone()
    }

    /// Moves up to `k` agents between states; migrated agents take part in
    /// the next matching round under their new state.
    fn migrate(&mut self, from: usize, to: usize, k: u64) -> u64 {
        let states = self.protocol.num_states();
        assert!(from < states, "migrate source state out of range");
        assert!(to < states, "migrate target state out of range");
        let moved = k.min(self.counts[from]);
        if from == to {
            return 0;
        }
        self.counts[from] -= moved;
        self.counts[to] += moved;
        moved
    }

    /// A single scheduler activation is a whole matching round.
    fn step(&mut self, rng: &mut SimRng) -> StepOutcome {
        if self.round(rng) > 0 {
            StepOutcome::Changed
        } else {
            StepOutcome::Unchanged
        }
    }

    /// Runs whole matching rounds until at least `max_steps` interactions
    /// (`⌊n/2⌋` per round) have been executed. The matching scheduler has no
    /// sub-round granularity, so a batch may overshoot `max_steps` by up to
    /// one round minus one interaction; `executed` reports the true step
    /// delta. Never reports silence.
    fn step_batch(&mut self, rng: &mut SimRng, max_steps: u64) -> BatchOutcome {
        let _batch_span = prof::section(Section::BatchMatching);
        let start = self.steps;
        let start_rounds = self.rounds;
        let mut changed = 0u64;
        while self.steps - start < max_steps {
            changed += self.settle_round(rng);
        }
        let out = BatchOutcome {
            executed: self.steps - start,
            changed,
            silent: false,
        };
        recorder::with(|r| {
            r.add(Counter::MatchingRounds, self.rounds - start_rounds);
            r.record_batch(&out);
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::TableProtocol;

    fn epidemic() -> TableProtocol {
        TableProtocol::new(2, "epidemic")
            .rule(1, 0, 1, 1)
            .rule(0, 1, 1, 1)
    }

    #[test]
    fn odd_population_idles_one_agent() {
        let p = epidemic();
        let mut pop = MatchingPopulation::from_counts(p, &[4, 3]);
        let mut rng = SimRng::seed_from(2);
        pop.round(&mut rng);
        assert_eq!(pop.steps(), 3, "⌊7/2⌋ interactions per round");
    }

    #[test]
    fn epidemic_completes_in_logarithmic_rounds() {
        let mut pop = MatchingPopulation::from_counts(epidemic(), &[1023, 1]);
        let mut rng = SimRng::seed_from(3);
        let r = pop
            .run_until(&mut rng, 10_000, |p| p.count(0) == 0)
            .expect("epidemic completes");
        // log2(1024) = 10; epidemic over matchings needs ≈ log2 n + O(log n).
        assert!((10..80).contains(&r), "rounds {r}");
    }

    #[test]
    fn orientation_is_randomized() {
        // One-directional rule (initiator infects responder) spreads even
        // though matching orientation is random.
        let oneway = TableProtocol::new(2, "oneway").rule(1, 0, 1, 1);
        let mut pop = MatchingPopulation::from_counts(oneway, &[63, 1]);
        let mut rng = SimRng::seed_from(4);
        let r = pop.run_until(&mut rng, 10_000, |p| p.count(0) == 0);
        assert!(r.is_some(), "one-way epidemic still completes");
    }

    #[test]
    fn run_rounds_overshoot_is_below_half_n() {
        // `run_rounds` asks for a step budget, but this backend only runs
        // whole matching rounds, so it may overshoot — by strictly less than
        // one round, i.e. < ⌊n/2⌋ interactions. Use a count-invariant swap
        // protocol (never silent) and fractional round targets so the step
        // target never aligns with a round boundary.
        let swap = TableProtocol::new(2, "swap")
            .rule(0, 1, 1, 0)
            .rule(1, 0, 0, 1);
        let n: u64 = 101;
        for (seed, rounds) in [(7u64, 0.3f64), (8, 1.7), (9, 5.5), (10, 12.9)] {
            let mut pop = MatchingPopulation::from_counts(swap.clone(), &[n - 1, 1]);
            let mut rng = SimRng::seed_from(seed);
            crate::sim::run_rounds(&mut pop, rounds, &mut rng);
            let target = (rounds * n as f64).ceil() as u64;
            assert!(
                pop.steps() >= target,
                "undershoot: {} < {target}",
                pop.steps()
            );
            assert!(
                pop.steps() - target < n / 2,
                "overshoot {} must be < ⌊n/2⌋ = {} (target {target})",
                pop.steps() - target,
                n / 2
            );
        }
    }

    #[test]
    fn migrate_moves_counts_without_steps() {
        let mut pop = MatchingPopulation::from_counts(epidemic(), &[6, 2]);
        assert_eq!(pop.migrate(1, 0, 5), 2, "capped at the source count");
        assert_eq!(pop.count(0), 8);
        assert_eq!(pop.count(1), 0);
        assert_eq!(pop.migrate(0, 0, 3), 0, "self-moves are no-ops");
        assert_eq!(pop.steps(), 0);
    }

    #[test]
    #[should_panic(expected = "at most 1024 states")]
    fn protocols_above_the_batch_limit_are_refused() {
        let wide = TableProtocol::new(BATCH_STATE_LIMIT + 1, "wide").rule(0, 1, 1, 1);
        let _ = MatchingPopulation::from_counts(wide, &[5, 5]);
    }

    #[test]
    fn simulator_time_counts_rounds() {
        let mut pop = MatchingPopulation::from_counts(epidemic(), &[10, 10]);
        let mut rng = SimRng::seed_from(5);
        pop.round(&mut rng);
        pop.round(&mut rng);
        assert_eq!(pop.time(), 2.0);
        assert_eq!(pop.rounds(), 2);
    }
}
