//! Agent-array simulation over arbitrary structured states.
//!
//! The dense-index [`crate::protocol::Protocol`] interface is ideal for
//! small state spaces, but compositions such as the paper's clock hierarchy
//! (oscillator × detector × counter × current/new copies × triggers, per
//! level) have product state spaces far too large to enumerate, while any
//! *reachable* configuration only ever touches a tiny fraction. This backend
//! stores each agent's state as a plain Rust value and never enumerates the
//! space.

use crate::recorder;
use crate::rng::SimRng;
use crate::sim::BatchOutcome;

/// A population protocol over structured states.
///
/// Like [`crate::protocol::Protocol`], an implementation must be a
/// deterministic function of the input pair and the RNG stream.
///
/// The idle contract: `interact(a, b)` has the law "with probability
/// [`ObjProtocol::idle`] return `(a, b)`, else
/// [`ObjProtocol::interact_active`]`(a, b)`", for every pair. The idle
/// share must not depend on the pair; [`ObjPopulation::step_batch`] skips
/// it without drawing the pairs. The defaults (`idle` 0, `interact_active`
/// = `interact`) satisfy the contract for every protocol.
pub trait ObjProtocol {
    /// Per-agent state.
    type State: Clone + PartialEq + std::fmt::Debug;

    /// Applies one interaction to the ordered pair, returning successors.
    fn interact(
        &self,
        a: &Self::State,
        b: &Self::State,
        rng: &mut SimRng,
    ) -> (Self::State, Self::State);

    /// The probability, the same for every pair, that an interaction
    /// returns the pair unchanged before looking at it. Default 0.
    fn idle(&self) -> f64 {
        0.0
    }

    /// The interaction conditioned on not being idle (see the idle
    /// contract above). Default [`ObjProtocol::interact`].
    fn interact_active(
        &self,
        a: &Self::State,
        b: &Self::State,
        rng: &mut SimRng,
    ) -> (Self::State, Self::State) {
        self.interact(a, b, rng)
    }
}

impl<P: ObjProtocol + ?Sized> ObjProtocol for &P {
    type State = P::State;

    fn interact(
        &self,
        a: &Self::State,
        b: &Self::State,
        rng: &mut SimRng,
    ) -> (Self::State, Self::State) {
        (**self).interact(a, b, rng)
    }

    fn idle(&self) -> f64 {
        (**self).idle()
    }

    fn interact_active(
        &self,
        a: &Self::State,
        b: &Self::State,
        rng: &mut SimRng,
    ) -> (Self::State, Self::State) {
        (**self).interact_active(a, b, rng)
    }
}

/// An agent-array population over structured states.
///
/// # Examples
///
/// ```
/// use pp_engine::obj::{ObjPopulation, ObjProtocol};
/// use pp_engine::rng::SimRng;
///
/// struct MaxProto;
/// impl ObjProtocol for MaxProto {
///     type State = u64;
///     fn interact(&self, a: &u64, b: &u64, _rng: &mut SimRng) -> (u64, u64) {
///         let m = (*a).max(*b);
///         (m, m)
///     }
/// }
///
/// let mut pop = ObjPopulation::new(MaxProto, (0..16u64).collect());
/// let mut rng = SimRng::seed_from(0);
/// pop.run_rounds(50.0, &mut rng);
/// assert!(pop.iter().all(|s| *s == 15), "max spreads to everyone");
/// ```
#[derive(Debug, Clone)]
pub struct ObjPopulation<P: ObjProtocol> {
    protocol: P,
    agents: Vec<P::State>,
    steps: u64,
}

impl<P: ObjProtocol> ObjPopulation<P> {
    /// Creates a population from explicit initial agent states.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 2 agents are given.
    #[must_use]
    pub fn new(protocol: P, agents: Vec<P::State>) -> Self {
        assert!(agents.len() >= 2, "population must have at least 2 agents");
        Self {
            protocol,
            agents,
            steps: 0,
        }
    }

    /// Creates a population of `n` agents, each initialized by `init(i)`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    #[must_use]
    pub fn from_fn(protocol: P, n: usize, init: impl FnMut(usize) -> P::State) -> Self {
        Self::new(protocol, (0..n).map(init).collect())
    }

    /// Population size.
    #[must_use]
    pub fn n(&self) -> usize {
        self.agents.len()
    }

    /// Interactions executed so far.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Parallel time elapsed (`steps / n`).
    #[must_use]
    pub fn time(&self) -> f64 {
        self.steps as f64 / self.agents.len() as f64
    }

    /// The protocol.
    #[must_use]
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// State of agent `i`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[must_use]
    pub fn agent(&self, i: usize) -> &P::State {
        &self.agents[i]
    }

    /// Iterates over agent states.
    pub fn iter(&self) -> impl Iterator<Item = &P::State> + '_ {
        self.agents.iter()
    }

    /// Counts agents satisfying a predicate.
    pub fn count_where(&self, mut pred: impl FnMut(&P::State) -> bool) -> u64 {
        self.agents.iter().filter(|s| pred(s)).count() as u64
    }

    /// Performs one asynchronous-scheduler interaction.
    pub fn step(&mut self, rng: &mut SimRng) {
        self.step_batch(rng, 1);
    }

    /// Executes `max_steps` asynchronous-scheduler interactions as one
    /// batch with the population size and agent buffer access hoisted out
    /// of the per-step path. The run's recorder counts the batch and its
    /// interactions, but adds 0 to `interactions_changed`: telling a
    /// changed interaction apart would cost a compare of both agents'
    /// states after every step, and no agent-object run reads that count.
    ///
    /// Idle thinning: with a protocol whose [`ObjProtocol::idle`] share
    /// `q` is positive, the batch draws `K ~ Binomial(max_steps, 1 − q)`
    /// once and runs `K` interactions through
    /// [`ObjProtocol::interact_active`]. This is exact: an idle step
    /// leaves every agent unchanged, so only the number of active steps
    /// matters, and those are iid draws of a uniform pair followed by the
    /// conditioned interaction. `steps` still advances by `max_steps`.
    /// With `q = 0` no binomial is drawn and every step runs, as before.
    pub fn step_batch(&mut self, rng: &mut SimRng, max_steps: u64) {
        let idle = self.protocol.idle();
        let active = if idle > 0.0 {
            rng.binomial(max_steps, 1.0 - idle)
        } else {
            max_steps
        };
        let n = self.agents.len();
        for _ in 0..active {
            let i = rng.index(n);
            let mut j = rng.index(n - 1);
            if j >= i {
                j += 1;
            }
            let (a2, b2) = self
                .protocol
                .interact_active(&self.agents[i], &self.agents[j], rng);
            self.agents[i] = a2;
            self.agents[j] = b2;
        }
        self.steps += max_steps;
        recorder::record_batch(&BatchOutcome {
            executed: max_steps,
            changed: 0,
            silent: false,
        });
    }

    /// Runs for `rounds` parallel rounds (batched internally).
    pub fn run_rounds(&mut self, rounds: f64, rng: &mut SimRng) {
        let target = self.steps + (rounds * self.agents.len() as f64).ceil() as u64;
        if target > self.steps {
            self.step_batch(rng, target - self.steps);
        }
    }

    /// Runs until `stop` holds (checked every `check_every` steps) or
    /// `max_rounds` elapse; returns the time `stop` first held. Advances
    /// `check_every` steps per batch, so the predicate is evaluated at
    /// checkpoint granularity.
    pub fn run_until(
        &mut self,
        rng: &mut SimRng,
        max_rounds: f64,
        check_every: u64,
        mut stop: impl FnMut(&Self) -> bool,
    ) -> Option<f64> {
        let check_every = check_every.max(1);
        if stop(self) {
            return Some(self.time());
        }
        let limit = self.steps + (max_rounds * self.agents.len() as f64).ceil() as u64;
        while self.steps < limit {
            let batch = check_every.min(limit - self.steps);
            self.step_batch(rng, batch);
            if stop(self) {
                return Some(self.time());
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Annihilate;
    impl ObjProtocol for Annihilate {
        type State = bool;
        fn interact(&self, a: &bool, b: &bool, _rng: &mut SimRng) -> (bool, bool) {
            if *a && *b {
                (true, false)
            } else {
                (*a, *b)
            }
        }
    }

    #[test]
    fn fratricide_over_structs() {
        let mut pop = ObjPopulation::from_fn(Annihilate, 64, |_| true);
        let mut rng = SimRng::seed_from(1);
        let t = pop.run_until(&mut rng, 1e5, 4, |p| p.count_where(|&s| s) == 1);
        assert!(t.is_some());
        assert_eq!(pop.count_where(|&s| s), 1);
    }

    #[test]
    fn a_recorder_counts_the_batch_but_not_the_changed_interactions() {
        // Two leaders: the first interaction changes a state, but agent
        // objects add 0 to `interactions_changed`.
        let mut pop = ObjPopulation::from_fn(Annihilate, 2, |_| true);
        let mut rec = crate::recorder::Recorder::new();
        {
            let _installed = rec.install();
            pop.step_batch(&mut SimRng::seed_from(3), 10);
        }
        let m = rec.metrics();
        let counts = ["interactions_executed", "interactions_changed", "batches"];
        assert_eq!(counts.map(|c| m.counter(c)), [10, 0, 1]);
    }

    #[test]
    fn steps_and_time_track() {
        let mut pop = ObjPopulation::from_fn(Annihilate, 10, |_| false);
        let mut rng = SimRng::seed_from(2);
        pop.run_rounds(3.0, &mut rng);
        assert_eq!(pop.steps(), 30);
        assert!((pop.time() - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least 2 agents")]
    fn rejects_tiny_population() {
        let _ = ObjPopulation::new(Annihilate, vec![true]);
    }

    #[test]
    fn from_fn_passes_index() {
        let pop = ObjPopulation::from_fn(Annihilate, 4, |i| i % 2 == 0);
        assert_eq!(pop.count_where(|&s| s), 2);
        assert!(*pop.agent(0));
        assert!(!*pop.agent(1));
    }
}
