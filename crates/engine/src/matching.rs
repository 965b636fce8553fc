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
//! random-matching scheduler; experiments E5 and E12 check this
//! empirically, round by round.
//!
//! The scheduler is not a [`crate::sim::Simulator`]: its unit is the round,
//! which no step budget divides, so it keeps its own round API
//! ([`MatchingPopulation::round`], [`MatchingPopulation::rounds`],
//! [`MatchingPopulation::run_until`]). Each round feeds the run's
//! recorder: `matching_rounds`, and the batch counters (`batches`,
//! `interactions_executed`, `interactions_changed`, the `batch_size`
//! histogram) with the round as the batch.

use crate::collision::{self, CollisionScratch};
use crate::counts::BATCH_STATE_LIMIT;
use crate::metrics::Counter;
use crate::prof::{self, Section};
use crate::protocol::Protocol;
use crate::recorder;
use crate::rng::SimRng;
use crate::sim::BatchOutcome;

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

    /// Population size `n`.
    #[must_use]
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Interactions executed so far: `⌊n/2⌋` per round.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Number of agents currently in `state`.
    #[must_use]
    pub fn count(&self, state: usize) -> u64 {
        self.counts[state]
    }

    /// The count of every state, indexed by state.
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of matching rounds executed: the parallel time, one unit per
    /// round.
    #[must_use]
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Executes one round: a fresh uniform random matching, one interaction
    /// per matched pair with random orientation. Returns how many of the
    /// round's interactions changed at least one agent's state.
    pub fn round(&mut self, rng: &mut SimRng) -> u64 {
        let _round_span = prof::section(Section::MatchingRound);
        let out = collision::run_matching_round(
            &self.protocol,
            &mut self.counts,
            self.n,
            &mut self.scratch,
            rng,
        );
        self.steps += out.executed;
        self.rounds += 1;
        recorder::with(|r| {
            r.add(Counter::MatchingRounds, 1);
            r.record_batch(&BatchOutcome {
                executed: out.executed,
                changed: out.changed,
                silent: false,
            });
        });
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
    #[should_panic(expected = "at most 1024 states")]
    fn protocols_above_the_batch_limit_are_refused() {
        let wide = TableProtocol::new(BATCH_STATE_LIMIT + 1, "wide").rule(0, 1, 1, 1);
        let _ = MatchingPopulation::from_counts(wide, &[5, 5]);
    }

    /// Each round is one batch of the run's recorder, so the footer of a
    /// run that drives rounds counts them.
    #[test]
    fn rounds_feed_the_recorder() {
        let mut pop = MatchingPopulation::from_counts(epidemic(), &[10, 11]);
        let mut rng = SimRng::seed_from(5);
        let mut rec = recorder::Recorder::new();
        let mut changed = 0;
        {
            let _installed = rec.install();
            for _ in 0..3 {
                changed += pop.round(&mut rng);
            }
        }
        let metrics = rec.metrics();
        assert_eq!(pop.rounds(), 3);
        assert_eq!(metrics.counter("matching_rounds"), pop.rounds());
        assert_eq!(metrics.counter("batches"), pop.rounds());
        assert_eq!(metrics.counter("interactions_executed"), pop.steps());
        assert_eq!(pop.steps(), 3 * 10, "⌊21/2⌋ interactions per round");
        assert_eq!(metrics.counter("interactions_changed"), changed);
    }
}
