//! Agent-array simulation backend: every agent's state is stored explicitly.
//!
//! This is the reference backend — the most direct transcription of the
//! asynchronous scheduler ("pick an ordered pair of distinct agents uniformly
//! at random, apply the transition"). It also supports per-agent inspection,
//! which the count-based backends cannot, and is the backend the
//! random-matching scheduler ([`crate::matching`]) builds on.

use crate::json::Json;
use crate::protocol::Protocol;
use crate::recorder;
use crate::rng::SimRng;
use crate::sim::{BatchOutcome, Simulator, StepOutcome};
use crate::snapshot::{hex_u64, parse_hex_u64};

/// A population of `n` explicitly stored agents running protocol `P`.
///
/// # Examples
///
/// ```
/// use pp_engine::population::Population;
/// use pp_engine::protocol::TableProtocol;
/// use pp_engine::rng::SimRng;
/// use pp_engine::sim::Simulator;
///
/// let p = TableProtocol::new(2, "epidemic").rule(1, 0, 1, 1).rule(0, 1, 1, 1);
/// let mut pop = Population::from_counts(&p, &[9, 1]);
/// let mut rng = SimRng::seed_from(0);
/// while pop.count(0) > 0 {
///     pop.step(&mut rng);
/// }
/// assert_eq!(pop.count(1), 10);
/// ```
#[derive(Debug, Clone)]
pub struct Population<P> {
    protocol: P,
    agents: Vec<u32>,
    counts: Vec<u64>,
    steps: u64,
}

impl<P: Protocol> Population<P> {
    /// Creates a population with `counts[s]` agents initially in state `s`.
    ///
    /// # Panics
    ///
    /// Panics if `counts` is longer than the protocol's state space, if the
    /// population is smaller than 2 agents, or if the state space exceeds
    /// `u32::MAX` states.
    #[must_use]
    pub fn from_counts(protocol: P, counts: &[u64]) -> Self {
        let k = protocol.num_states();
        assert!(counts.len() <= k, "more initial counts than states");
        assert!(
            k <= u32::MAX as usize,
            "state space too large for agent array"
        );
        let n: u64 = counts.iter().sum();
        assert!(n >= 2, "population must have at least 2 agents");
        let mut agents = Vec::with_capacity(n as usize);
        for (s, &c) in counts.iter().enumerate() {
            agents.extend(std::iter::repeat_n(s as u32, c as usize));
        }
        let mut full = vec![0u64; k];
        full[..counts.len()].copy_from_slice(counts);
        Self {
            protocol,
            agents,
            counts: full,
            steps: 0,
        }
    }

    /// Creates a population of `n` agents all in state `init`.
    ///
    /// # Panics
    ///
    /// Panics if `init` is out of range or `n < 2`.
    #[must_use]
    pub fn uniform(protocol: P, n: u64, init: usize) -> Self {
        let k = protocol.num_states();
        assert!(init < k, "initial state out of range");
        let mut counts = vec![0u64; k];
        counts[init] = n;
        Self::from_counts(protocol, &counts)
    }

    /// The protocol being simulated.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Current state of agent `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[must_use]
    pub fn agent(&self, i: usize) -> usize {
        self.agents[i] as usize
    }

    /// Iterates over all agent states.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.agents.iter().map(|&s| s as usize)
    }

    /// Applies one interaction to the explicit agent pair `(i, j)`,
    /// counting it as a step. Used by the random-matching scheduler.
    ///
    /// # Panics
    ///
    /// Panics if `i == j` or either index is out of bounds.
    pub fn interact_pair(&mut self, i: usize, j: usize, rng: &mut SimRng) -> StepOutcome {
        assert_ne!(i, j, "an agent cannot interact with itself");
        let a = self.agents[i] as usize;
        let b = self.agents[j] as usize;
        self.steps += 1;
        let (a2, b2) = self.protocol.interact(a, b, rng);
        if (a2, b2) == (a, b) {
            return StepOutcome::Unchanged;
        }
        self.counts[a] -= 1;
        self.counts[b] -= 1;
        self.counts[a2] += 1;
        self.counts[b2] += 1;
        self.agents[i] = a2 as u32;
        self.agents[j] = b2 as u32;
        StepOutcome::Changed
    }
}

impl<P: Protocol> Simulator for Population<P> {
    fn n(&self) -> u64 {
        self.agents.len() as u64
    }

    fn num_states(&self) -> usize {
        self.protocol.num_states()
    }

    fn steps(&self) -> u64 {
        self.steps
    }

    fn count(&self, state: usize) -> u64 {
        self.counts[state]
    }

    fn counts(&self) -> Vec<u64> {
        self.counts.clone()
    }

    /// Moves the first `k` agents found in state `from` (agents are
    /// exchangeable, so the choice does not bias count dynamics). `O(n)`.
    fn migrate(&mut self, from: usize, to: usize, k: u64) -> u64 {
        let states = self.protocol.num_states();
        assert!(from < states, "migrate source state out of range");
        assert!(to < states, "migrate target state out of range");
        if from == to || k == 0 {
            return 0;
        }
        let mut moved = 0u64;
        for a in &mut self.agents {
            if moved >= k {
                break;
            }
            if *a as usize == from {
                *a = to as u32;
                moved += 1;
            }
        }
        self.counts[from] -= moved;
        self.counts[to] += moved;
        moved
    }

    fn step(&mut self, rng: &mut SimRng) -> StepOutcome {
        let n = self.agents.len();
        let i = rng.index(n);
        let mut j = rng.index(n - 1);
        if j >= i {
            j += 1;
        }
        self.interact_pair(i, j, rng)
    }

    /// Tight inner loop over `max_steps` activations: pair sampling, the
    /// transition, and count maintenance are inlined with the population
    /// size hoisted out of the loop, avoiding per-step dispatch. Never
    /// reports silence (this backend has no reactivity information).
    fn step_batch(&mut self, rng: &mut SimRng, max_steps: u64) -> BatchOutcome {
        let _batch_span = crate::prof::section(crate::prof::Section::BatchAgents);
        let n = self.agents.len();
        let mut changed = 0u64;
        for _ in 0..max_steps {
            let i = rng.index(n);
            let mut j = rng.index(n - 1);
            if j >= i {
                j += 1;
            }
            let a = self.agents[i] as usize;
            let b = self.agents[j] as usize;
            let (a2, b2) = self.protocol.interact(a, b, rng);
            if (a2, b2) != (a, b) {
                self.counts[a] -= 1;
                self.counts[b] -= 1;
                self.counts[a2] += 1;
                self.counts[b2] += 1;
                self.agents[i] = a2 as u32;
                self.agents[j] = b2 as u32;
                changed += 1;
            }
        }
        self.steps += max_steps;
        let out = BatchOutcome {
            executed: max_steps,
            changed,
            silent: false,
        };
        recorder::record_batch(&out);
        out
    }

    fn backend_tag(&self) -> &'static str {
        "agents"
    }

    /// Serializes the full agent array (the per-agent layout is part of the
    /// RNG-visible state: `step` samples indices) plus the step counter; the
    /// count vector is derived and rebuilt on restore.
    fn snapshot(&self) -> Result<Json, String> {
        Ok(Json::obj([
            (
                "agents",
                Json::Arr(
                    self.agents
                        .iter()
                        .map(|&a| Json::from(u64::from(a)))
                        .collect(),
                ),
            ),
            ("steps", hex_u64(self.steps)),
        ]))
    }

    fn restore(&mut self, state: &Json) -> Result<(), String> {
        let arr = state
            .get("agents")
            .and_then(Json::as_arr)
            .ok_or("agents snapshot missing agent array")?;
        if arr.len() != self.agents.len() {
            return Err(format!(
                "snapshot population {} does not match simulator population {}",
                arr.len(),
                self.agents.len()
            ));
        }
        let steps = parse_hex_u64(state.get("steps").unwrap_or(&Json::Null))?;
        let k = self.protocol.num_states();
        let mut agents = Vec::with_capacity(arr.len());
        let mut counts = vec![0u64; k];
        for j in arr {
            let s = j.as_u64().ok_or("agent state is not an integer")? as usize;
            if s >= k {
                return Err(format!("agent state {s} out of range (k = {k})"));
            }
            counts[s] += 1;
            agents.push(s as u32);
        }
        self.agents = agents;
        self.counts = counts;
        self.steps = steps;
        Ok(())
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
    fn from_counts_lays_out_agents() {
        let pop = Population::from_counts(epidemic(), &[3, 2]);
        assert_eq!(pop.n(), 5);
        assert_eq!(pop.count(0), 3);
        assert_eq!(pop.count(1), 2);
        let ones = pop.iter().filter(|&s| s == 1).count();
        assert_eq!(ones, 2);
    }

    #[test]
    fn uniform_initializes_single_state() {
        let pop = Population::uniform(epidemic(), 10, 1);
        assert_eq!(pop.count(1), 10);
        assert_eq!(pop.count(0), 0);
    }

    #[test]
    #[should_panic(expected = "at least 2 agents")]
    fn tiny_population_rejected() {
        let _ = Population::from_counts(epidemic(), &[1, 0]);
    }

    #[test]
    fn counts_track_transitions() {
        let mut pop = Population::from_counts(epidemic(), &[50, 50]);
        let mut rng = SimRng::seed_from(9);
        for _ in 0..2_000 {
            pop.step(&mut rng);
            let c: u64 = pop.counts().iter().sum();
            assert_eq!(c, 100, "population size must be conserved");
        }
        assert_eq!(pop.count(0), 0, "epidemic should have spread");
        // Recount from scratch and compare with incremental counts.
        let mut recount = vec![0u64; 2];
        for s in pop.iter() {
            recount[s] += 1;
        }
        assert_eq!(recount, pop.counts());
    }

    #[test]
    fn step_selects_distinct_agents() {
        // A 2-agent population must always pick the pair (0, 1) in one order.
        let swap = TableProtocol::new(2, "swap")
            .rule(0, 1, 1, 0)
            .rule(1, 0, 0, 1);
        let mut pop = Population::from_counts(swap, &[1, 1]);
        let mut rng = SimRng::seed_from(4);
        for _ in 0..50 {
            pop.step(&mut rng);
            assert_eq!(pop.count(0), 1);
            assert_eq!(pop.count(1), 1);
        }
    }

    #[test]
    fn interact_pair_reports_outcome() {
        let mut pop = Population::from_counts(epidemic(), &[1, 1]);
        let mut rng = SimRng::seed_from(5);
        // agent 0 is state 0, agent 1 is state 1.
        assert_eq!(pop.interact_pair(1, 0, &mut rng), StepOutcome::Changed);
        assert_eq!(pop.interact_pair(1, 0, &mut rng), StepOutcome::Unchanged);
        assert_eq!(pop.steps(), 2);
    }

    #[test]
    #[should_panic(expected = "cannot interact with itself")]
    fn self_interaction_rejected() {
        let mut pop = Population::from_counts(epidemic(), &[2, 0]);
        let mut rng = SimRng::seed_from(6);
        let _ = pop.interact_pair(1, 1, &mut rng);
    }

    #[test]
    fn migrate_moves_first_k_agents() {
        let mut pop = Population::from_counts(epidemic(), &[5, 3]);
        assert_eq!(pop.migrate(0, 1, 2), 2);
        assert_eq!(pop.count(0), 3);
        assert_eq!(pop.count(1), 5);
        assert_eq!(pop.migrate(0, 1, 100), 3, "capped at the source count");
        assert_eq!(pop.migrate(1, 1, 4), 0, "self-moves are no-ops");
        assert_eq!(pop.steps(), 0, "migrate consumes no steps");
        let mut recount = vec![0u64; 2];
        for s in pop.iter() {
            recount[s] += 1;
        }
        assert_eq!(recount, pop.counts());
    }

    #[test]
    fn time_is_steps_over_n() {
        let mut pop = Population::from_counts(epidemic(), &[10, 10]);
        let mut rng = SimRng::seed_from(7);
        for _ in 0..40 {
            pop.step(&mut rng);
        }
        assert!((pop.time() - 2.0).abs() < 1e-12);
    }
}
