//! Common simulator interface of the asynchronous-scheduler backends, plus
//! generic run loops.
//!
//! A *step* is one interaction of an ordered agent pair under the standard
//! asynchronous scheduler (uniform over the `n(n−1)` ordered pairs). The
//! standard *parallel time* measure is `steps / n`, reported by
//! [`Simulator::time`]; one unit is called a *round*. The random-matching
//! scheduler ([`crate::matching::MatchingPopulation`]) is not a
//! [`Simulator`]: it runs whole rounds through its own round API.
//!
//! ## Batched stepping
//!
//! The hot path of every experiment is "advance the scheduler by many
//! activations, look at the counts, repeat". Driving that through
//! [`Simulator::step`] pays per-activation dispatch and outcome matching
//! on *every* interaction — at `n ≥ 10⁶` that dominates wall-clock.
//! [`Simulator::step_batch`] advances exactly `max_steps` activations in
//! one call, fewer only once the run is silent, and reports an aggregate
//! [`BatchOutcome`]; backends run it with count-vector no-op leaping and
//! collision epochs. [`run_rounds`] runs its whole budget as one batch;
//! [`run_until`] cuts batches at its predicate's check stride. Callers that
//! measure a run sample the counts between their own `step_batch` calls.

use crate::rng::SimRng;

/// Result of advancing a simulator by one scheduler activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The interaction changed at least one agent's state.
    Changed,
    /// The interaction was a no-op (identity transition).
    Unchanged,
}

/// Aggregate result of advancing a simulator by a batch of activations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchOutcome {
    /// Scheduler activations consumed by this batch — exactly the change in
    /// [`Simulator::steps`] across the call.
    pub executed: u64,
    /// How many of those activations changed at least one agent's state.
    pub changed: u64,
    /// The configuration is silent: no reachable interaction can ever change
    /// any state again.
    pub silent: bool,
}

/// Common interface over the asynchronous-scheduler simulation backends.
///
/// Implementations: [`crate::counts::CountPopulation`] (state-count vector
/// with Fenwick sampling), [`crate::counts::SparseCountPopulation`]
/// (occupied states only) and the fault wrapper
/// [`crate::faults::FaultyPopulation`] over the former. The two
/// checkpointed ones also implement [`crate::snapshot::Checkpoint`].
///
/// A simulator runs on the calling thread, so its trajectory is a function
/// of the initial configuration and the RNG alone. Parallelism belongs
/// across independent runs ([`crate::sweep`]).
pub trait Simulator {
    /// Population size `n`.
    fn n(&self) -> u64;

    /// Number of protocol states.
    fn num_states(&self) -> usize;

    /// Interactions executed so far. Backends that leap over provably
    /// silent interactions still count them here.
    fn steps(&self) -> u64;

    /// Parallel time elapsed: `steps / n` rounds.
    fn time(&self) -> f64 {
        self.steps() as f64 / self.n() as f64
    }

    /// Number of agents currently in `state`.
    fn count(&self, state: usize) -> u64;

    /// Snapshot of all state counts.
    fn counts(&self) -> Vec<u64> {
        (0..self.num_states()).map(|s| self.count(s)).collect()
    }

    /// Executes one scheduler activation.
    fn step(&mut self, rng: &mut SimRng) -> StepOutcome;

    /// Executes `max_steps` scheduler activations as one batch.
    ///
    /// Returns the number of activations consumed (`executed`, equal to the
    /// change in [`Simulator::steps`]), how many changed state, and whether
    /// the configuration is now known to be silent. `executed == max_steps`
    /// unless the batch ended early on silence.
    ///
    /// The sampled process is identical in distribution to calling
    /// [`Simulator::step`] `max_steps` times — batching is an execution
    /// strategy, not an approximation, at every `n`. Backends run it with
    /// tight inner loops, no-op leaping and collision batches (an order of
    /// magnitude faster than per-step driving at large `n`).
    fn step_batch(&mut self, rng: &mut SimRng, max_steps: u64) -> BatchOutcome;
}

/// The interactions in `rounds` parallel rounds of `n` agents:
/// `⌈rounds · n⌉`, the budget [`run_rounds`] gives [`run_steps`].
#[must_use]
pub fn round_steps(rounds: f64, n: u64) -> u64 {
    (rounds * n as f64).ceil() as u64
}

/// Runs `sim` for `steps` interactions in as few `step_batch` calls as the
/// backend allows. Returns early if the simulation becomes silent,
/// returning the number of interactions actually simulated.
pub fn run_steps<S: Simulator>(sim: &mut S, steps: u64, rng: &mut SimRng) -> u64 {
    let start = sim.steps();
    let target = start + steps;
    while sim.steps() < target {
        let outcome = sim.step_batch(rng, target - sim.steps());
        if outcome.silent || outcome.executed == 0 {
            break;
        }
    }
    sim.steps() - start
}

/// Runs `sim` for a given number of parallel rounds, i.e.
/// [`round_steps`] interactions through [`run_steps`]. Returns the number
/// of rounds actually simulated, which is short if the simulation becomes
/// silent.
pub fn run_rounds<S: Simulator>(sim: &mut S, rounds: f64, rng: &mut SimRng) -> f64 {
    run_steps(sim, round_steps(rounds, sim.n()), rng) as f64 / sim.n() as f64
}

/// Runs `sim` until `stop` returns true (checked every `check_every` steps)
/// or `max_rounds` elapse. Returns the parallel time at which `stop` first
/// held, or `None` on timeout.
///
/// The predicate is evaluated on the simulator state, so it can inspect any
/// counts. `check_every = 0` is treated as 1. Internally the loop advances
/// `check_every` steps at a time through [`Simulator::step_batch`], so large
/// check strides make the predicate — not per-step dispatch — the dominant
/// cost.
pub fn run_until<S, F>(
    sim: &mut S,
    rng: &mut SimRng,
    max_rounds: f64,
    check_every: u64,
    mut stop: F,
) -> Option<f64>
where
    S: Simulator + ?Sized,
    F: FnMut(&S) -> bool,
{
    let check_every = check_every.max(1);
    let limit = sim.steps() + (max_rounds * sim.n() as f64).ceil() as u64;
    if stop(sim) {
        return Some(sim.time());
    }
    while sim.steps() < limit {
        let batch = check_every.min(limit - sim.steps());
        let outcome = sim.step_batch(rng, batch);
        if stop(sim) {
            return Some(sim.time());
        }
        if outcome.silent || outcome.executed == 0 {
            return None;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counts::CountPopulation;
    use crate::protocol::TableProtocol;

    fn epidemic() -> TableProtocol {
        TableProtocol::new(2, "epidemic")
            .rule(1, 0, 1, 1)
            .rule(0, 1, 1, 1)
    }

    #[test]
    fn run_rounds_advances_time() {
        let p = epidemic();
        let mut pop = CountPopulation::from_counts(&p, &[99, 1]);
        let mut rng = SimRng::seed_from(1);
        let ran = run_rounds(&mut pop, 3.0, &mut rng);
        assert!((ran - 3.0).abs() < 0.02);
        assert_eq!(pop.steps(), 300);
    }

    #[test]
    fn run_until_detects_epidemic_completion() {
        let p = epidemic();
        let mut pop = CountPopulation::from_counts(&p, &[999, 1]);
        let mut rng = SimRng::seed_from(2);
        let t = run_until(&mut pop, &mut rng, 200.0, 16, |s| s.count(0) == 0)
            .expect("epidemic should finish");
        // One-way epidemic completes in Θ(log n) rounds; generous envelope.
        assert!(t > 1.0 && t < 100.0, "completion time {t}");
    }

    #[test]
    fn run_until_times_out() {
        let p = TableProtocol::new(2, "noop");
        let mut pop = CountPopulation::from_counts(&p, &[5, 5]);
        let mut rng = SimRng::seed_from(3);
        let t = run_until(&mut pop, &mut rng, 1.0, 1, |s| s.count(0) == 0);
        assert_eq!(t, None);
    }

    #[test]
    fn run_until_immediate_hit_costs_no_steps() {
        let p = epidemic();
        let mut pop = CountPopulation::from_counts(&p, &[0, 10]);
        let mut rng = SimRng::seed_from(4);
        let t = run_until(&mut pop, &mut rng, 10.0, 1, |s| s.count(0) == 0);
        assert_eq!(t, Some(0.0));
        assert_eq!(pop.steps(), 0);
    }

    #[test]
    fn step_batch_accounts_exactly() {
        let p = TableProtocol::new(2, "swap")
            .rule(0, 1, 1, 0)
            .rule(1, 0, 0, 1);
        let mut pop = CountPopulation::from_counts(&p, &[63, 1]);
        let mut rng = SimRng::seed_from(5);
        let before = pop.steps();
        let out = pop.step_batch(&mut rng, 1000);
        assert_eq!(out.executed, 1000);
        assert_eq!(pop.steps() - before, out.executed);
        assert!(out.changed <= out.executed);
        assert!(!out.silent);
    }

    #[test]
    fn run_until_checks_on_batch_boundaries() {
        // With check_every = 7, the predicate must still fire even though
        // completion can happen mid-batch; the run loop only guarantees
        // detection within one stride of the true hitting time.
        let p = epidemic();
        let mut pop = CountPopulation::from_counts(&p, &[127, 1]);
        let mut rng = SimRng::seed_from(6);
        let t = run_until(&mut pop, &mut rng, 500.0, 7, |s| s.count(0) == 0)
            .expect("epidemic completes");
        assert!(t > 0.0);
        assert_eq!(pop.count(0), 0);
    }
}
