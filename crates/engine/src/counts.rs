//! Count-based simulation backend: agents are indistinguishable, so the
//! configuration is fully described by the vector of per-state counts.
//!
//! Sampling an ordered pair of distinct agents uniformly at random is
//! equivalent to sampling the initiator's state with probability `c_a / n`
//! and then the responder's state with probability `c'_b / (n − 1)`, where
//! `c'` is the count vector with one agent of the initiator's state removed.
//! Both draws map a uniform rank to a state by a scan of the reactivity
//! index's ascending occupied list (`engine::reactivity`), `O(occupied)`,
//! so memory and cache traffic are independent of `n` — this backend
//! simulates populations of 10⁸ agents as cheaply as 10³.
//!
//! The count vector is the only copy of the configuration. The reactivity
//! index is derived from it, and `counts()` copies it. One step body serves
//! [`Simulator::step`] and the per-step regime of `step_batch`.
//!
//! Per-step sampling and every batch regime are checked against the exact
//! count law at `n ≤ 8` (`tests/exact_transient.rs`).

use crate::collision::{self, BirthdayCdf, CollisionScratch};
use crate::json::Json;
use crate::metrics::Counter;
use crate::prof::{self, Section};
use crate::protocol::Protocol;
use crate::reactivity::ReactivityIndex;
use crate::recorder::{self, BatchTally};
use crate::rng::SimRng;
use crate::sim::{BatchOutcome, Simulator, StepOutcome};
use crate::snapshot::{hex_u64, parse_hex_u64, Checkpoint};

pub use crate::sparse::SparseCountPopulation;

/// Largest state space [`CountPopulation`] runs: its reactivity index, from
/// which every draw samples, reads a `k × k` table of cell plans (4 bytes
/// per cell, 4 MB at the limit). A population above it refuses its first
/// draw; protocols with wide state spaces (E6, E9's `SyncMajority`, E15)
/// run on [`SparseCountPopulation`], which keeps only occupied states.
pub(crate) const BATCH_STATE_LIMIT: usize = 1024;

/// Minimum expected number of *reactive* interactions per collision-free
/// epoch for the contingency-table path to engage. An epoch costs a fixed
/// handful of distribution draws; below this threshold the geometric no-op
/// leap settles the same work with less overhead.
pub(crate) const COLLISION_MIN_REACTIVE: f64 = 8.0;

/// Expected interactions before the first collision, `E[T]/2 ≈ 0.6267 √n`,
/// the regime dispatch's yardstick for how much a collision batch
/// amortizes (batches themselves run [`collision::batch_len`]).
pub(crate) fn estimated_epoch_len(n: u64) -> f64 {
    (std::f64::consts::PI * n as f64 / 8.0).sqrt()
}

/// A population represented by per-state agent counts.
///
/// # Examples
///
/// ```
/// use pp_engine::counts::CountPopulation;
/// use pp_engine::protocol::TableProtocol;
/// use pp_engine::rng::SimRng;
/// use pp_engine::sim::{run_until, Simulator};
///
/// let p = TableProtocol::new(2, "epidemic").rule(1, 0, 1, 1).rule(0, 1, 1, 1);
/// let mut pop = CountPopulation::from_counts(&p, &[999_999, 1]);
/// let mut rng = SimRng::seed_from(0);
/// let t = run_until(&mut pop, &mut rng, 100.0, 1024, |s| s.count(0) == 0);
/// assert!(t.is_some(), "epidemic completes in O(log n) rounds");
/// ```
#[derive(Debug, Clone)]
pub struct CountPopulation<P> {
    protocol: P,
    /// Agents per state: the configuration. Everything else is derived.
    counts: Vec<u64>,
    n: u64,
    steps: u64,
    /// Occupancy and reactive-pair count of `counts`. Built at the first
    /// draw (`step` or `step_batch`); dropped by out-of-band count edits
    /// ([`CountPopulation::migrate`]).
    index: Option<ReactivityIndex>,
    /// Birthday-process table for the collision-batch regime. Keyed only on
    /// `n`, which never changes, so it survives index invalidations.
    birthday: Option<BirthdayCdf>,
    /// Working memory for collision epochs: the urns, and the cell-plan
    /// table, the population's one per-pair table, from which the index
    /// reads reactivity. It lives as long as the population.
    scratch: CollisionScratch,
}

impl<P: Protocol> CountPopulation<P> {
    /// Creates a population with `counts[s]` agents in state `s`. The
    /// protocol may declare more than 1 024 states, but then the
    /// population refuses its first draw: run it on
    /// [`SparseCountPopulation`].
    ///
    /// # Panics
    ///
    /// Panics if `counts` is longer than the state space or the population
    /// has fewer than 2 agents.
    #[must_use]
    pub fn from_counts(protocol: P, counts: &[u64]) -> Self {
        let k = protocol.num_states();
        assert!(counts.len() <= k, "more initial counts than states");
        let n: u64 = counts.iter().sum();
        assert!(n >= 2, "population must have at least 2 agents");
        let mut full = vec![0u64; k];
        full[..counts.len()].copy_from_slice(counts);
        Self {
            protocol,
            counts: full,
            n,
            steps: 0,
            index: None,
            birthday: None,
            scratch: CollisionScratch::new(),
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

    /// Moves up to `k` agents from state `from` to state `to` *out of band*
    /// — no scheduler steps are consumed and no transition is applied.
    ///
    /// Returns how many agents actually moved, which is `min(k, count(from))`
    /// (`from == to` moves nothing). This is the count surgery the fault
    /// wrapper ([`crate::faults`]) composes corruption, churn, and
    /// Byzantine pinning from. Drops the reactivity index (its
    /// reactive-pair count goes stale); the next `step_batch` rebuilds it
    /// from the cell-plan table, asking the protocol only about pairs it
    /// never met.
    ///
    /// # Panics
    ///
    /// Panics if `from` or `to` is out of range.
    pub fn migrate(&mut self, from: usize, to: usize, k: u64) -> u64 {
        let states = self.protocol.num_states();
        assert!(from < states, "migrate source state out of range");
        assert!(to < states, "migrate target state out of range");
        let moved = k.min(self.counts[from]);
        if from == to || moved == 0 {
            return 0;
        }
        self.counts[from] -= moved;
        self.counts[to] += moved;
        self.index = None;
        moved
    }

    /// Runs one interaction, without counting the step: samples the
    /// states of a uniformly random ordered pair of distinct agents by rank
    /// over the index's occupied list and applies the protocol's outcome.
    /// Returns whether it changed the counts.
    fn step_once(&mut self, rng: &mut SimRng) -> bool {
        let index = self.index.as_ref().expect("index built before a draw");
        let a = index.state_at(&self.counts, rng.below(self.n), None);
        let b = index.state_at(&self.counts, rng.below(self.n - 1), Some(a));
        let (a2, b2) = self.protocol.interact(a, b, rng);
        if (a2, b2) == (a, b) {
            return false;
        }
        self.apply_change(a, b, a2, b2);
        true
    }

    /// Applies one interaction's count changes to the counts and the
    /// reactivity index.
    fn apply_change(&mut self, a: usize, b: usize, a2: usize, b2: usize) {
        let index = self.index.as_mut().expect("index built before a draw");
        let plans = self.scratch.plans(self.counts.len());
        for (s, d) in [(a, -1i64), (b, -1), (a2, 1), (b2, 1)] {
            self.counts[s] = self.counts[s].wrapping_add_signed(d);
            index.add(&self.protocol, plans, &self.counts, s, d);
        }
        debug_assert!(index.is_consistent(plans, &self.counts));
    }

    /// Builds the reactivity index if it is missing: at the first draw, and
    /// after an out-of-band count edit.
    ///
    /// # Panics
    ///
    /// Panics above [`BATCH_STATE_LIMIT`] states.
    fn ensure_index(&mut self) {
        let k = self.protocol.num_states();
        assert!(
            k <= BATCH_STATE_LIMIT,
            "CountPopulation runs protocols of at most {BATCH_STATE_LIMIT} states, \
             and {} has {k}: run it on SparseCountPopulation",
            self.protocol.name()
        );
        if self.index.is_none() {
            recorder::add(Counter::BatchCacheRebuilds, 1);
            let plans = self.scratch.plans(k);
            self.index = Some(ReactivityIndex::new(&self.protocol, plans, &self.counts));
        }
    }
}

impl<P: Protocol> Simulator for CountPopulation<P> {
    fn n(&self) -> u64 {
        self.n
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

    fn step(&mut self, rng: &mut SimRng) -> StepOutcome {
        self.ensure_index();
        self.steps += 1;
        if self.step_once(rng) {
            StepOutcome::Changed
        } else {
            StepOutcome::Unchanged
        }
    }

    /// Count-vector batching with three regimes, selected per iteration off
    /// the reactive-pair count `R` (`p = R / (n(n−1))`):
    ///
    /// 1. **Collision batches** (reactive-dense, `p · E[T]/2 ≥ 8`): settle
    ///    `L = c·√(n·q)` activations per [`collision::run_epoch`] batch —
    ///    one `O(q²)` contingency-table sample plus `O(q)` per in-batch
    ///    collision.
    /// 2. **No-op leaping** (sparse): between reactive interactions, the
    ///    number of consecutive no-op activations is geometric with success
    ///    probability `p`, so the loop draws the skip length in `O(1)`
    ///    instead of executing the no-ops. When the skip overshoots the
    ///    batch budget, the rest of the batch is consumed as no-ops — exact
    ///    by memorylessness of the geometric.
    /// 3. **Per-step** (dense but `n` too small for epochs to pay): plain
    ///    steps, each two `O(occupied)` rank draws.
    ///
    /// All three sample the same per-step distribution (chi-square
    /// equivalence is pinned in `tests/backend_equivalence.rs`). Reports
    /// silence when no reactive pair remains.
    fn step_batch(&mut self, rng: &mut SimRng, max_steps: u64) -> BatchOutcome {
        // One recorder-slot load per batch; inner loops branch on the cached
        // bools and tally into a local struct handed over once at batch end.
        let cap = recorder::capture();
        let pf = cap.sections;
        let _batch_span = prof::section_if(pf, Section::BatchCount);
        let mut out = BatchOutcome::default();
        self.ensure_index();
        let n = self.n;
        let k = self.counts.len();
        let total_pairs = n * (n - 1);
        let epoch_len = estimated_epoch_len(n);
        let mut tally = cap.on.then(BatchTally::new);
        while out.executed < max_steps {
            let index = self.index.as_mut().expect("index built above");
            let pairs = index.pairs();
            if pairs == 0 {
                out.silent = true;
                break;
            }
            let remaining = max_steps - out.executed;
            let p = pairs as f64 / total_pairs as f64;
            if p * epoch_len >= COLLISION_MIN_REACTIVE {
                // Collision-batch regime: one multibatch.
                let birthday = self.birthday.get_or_insert_with(|| BirthdayCdf::new(n));
                let ep = collision::run_epoch(
                    &self.protocol,
                    &mut self.counts,
                    birthday,
                    &mut self.scratch,
                    rng,
                    remaining,
                );
                // Sync occupancy and the reactive-pair count from the
                // batch's net movement.
                let (plans, delta) = self.scratch.plans_and_delta();
                index.sync_epoch(&self.protocol, plans, &self.counts, delta);
                debug_assert!(index.is_consistent(plans, &self.counts));
                out.executed += ep.executed;
                out.changed += ep.changed;
                if let Some(t) = &mut tally {
                    t.epoch(ep.executed);
                }
                continue;
            }
            if pairs.saturating_mul(2) >= total_pairs {
                // Reactive-dense but small n: a geometric draw per step
                // would cost more than it skips, and epochs don't pay yet.
                let _step_span = prof::section_if(pf, Section::PerStep);
                out.executed += 1;
                out.changed += u64::from(self.step_once(rng));
                if let Some(t) = &mut tally {
                    t.per_step();
                }
                continue;
            }
            let _leap_span = prof::section_if(pf, Section::Leap);
            let skip = rng.geometric(p);
            if skip >= remaining {
                // The whole rest of the batch is provably no-ops; truncating
                // the geometric at the boundary is exact by memorylessness.
                if let Some(t) = &mut tally {
                    t.leap(remaining);
                }
                out.executed = max_steps;
                break;
            }
            if let Some(t) = &mut tally {
                t.leap(skip);
            }
            out.executed += skip + 1;
            let (a, b) = self
                .index
                .as_ref()
                .expect("index built above")
                .sample_reactive_pair(self.scratch.plans(k), &self.counts, rng);
            let (a2, b2) = self.protocol.interact(a, b, rng);
            if (a2, b2) != (a, b) {
                out.changed += 1;
                self.apply_change(a, b, a2, b2);
            }
        }
        self.steps += out.executed;
        if let Some(t) = tally {
            recorder::with(|r| r.record_tallied_batch(&out, &t));
        }
        out
    }
}

impl<P: Protocol> Checkpoint for CountPopulation<P> {
    fn backend_tag(&self) -> &'static str {
        "counts"
    }

    /// Serializes the count vector and step counter. The reactivity index,
    /// birthday table, and collision scratch are all derived
    /// deterministically (and RNG-free) from the counts, so they are
    /// rebuilt on restore rather than stored — only the *presence* of the
    /// index is recorded, so that a resumed run rebuilds it at exactly the
    /// same point in its metrics stream as the uninterrupted run.
    fn snapshot(&self) -> Json {
        Json::obj([
            (
                "counts",
                Json::Arr(self.counts.iter().map(|&c| hex_u64(c)).collect()),
            ),
            ("steps", hex_u64(self.steps)),
            ("cached", Json::Bool(self.index.is_some())),
        ])
    }

    fn restore(&mut self, state: &Json) -> Result<(), String> {
        let k = self.protocol.num_states();
        let arr = state
            .get("counts")
            .and_then(Json::as_arr)
            .ok_or("counts snapshot missing count array")?;
        if arr.len() != k {
            return Err(format!(
                "snapshot has {} states, simulator protocol has {k}",
                arr.len()
            ));
        }
        let steps = parse_hex_u64(state.get("steps").unwrap_or(&Json::Null))?;
        let weights = arr
            .iter()
            .map(parse_hex_u64)
            .collect::<Result<Vec<_>, _>>()?;
        let total: u64 = weights.iter().sum();
        if total != self.n {
            return Err(format!(
                "snapshot population {total} does not match simulator population {}",
                self.n
            ));
        }
        self.counts = weights;
        self.steps = steps;
        self.index = None;
        self.birthday = None;
        if state.get("cached").and_then(Json::as_bool) == Some(true) {
            // Rebuild eagerly, during restore, so the next batch does not
            // count a rebuild the uninterrupted run never made: that run
            // had the index live at this point. The run's restored
            // recorder is installed only after this returns.
            self.ensure_index();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::run_until;

    fn epidemic() -> TableProtocol {
        TableProtocol::new(2, "epidemic")
            .rule(1, 0, 1, 1)
            .rule(0, 1, 1, 1)
    }

    use crate::protocol::TableProtocol;

    #[test]
    fn conservation_of_population() {
        let mut pop = CountPopulation::from_counts(epidemic(), &[500, 500]);
        let mut rng = SimRng::seed_from(1);
        for _ in 0..5_000 {
            pop.step(&mut rng);
            assert_eq!(pop.counts().iter().sum::<u64>(), 1000);
        }
    }

    #[test]
    fn epidemic_completes() {
        let mut pop = CountPopulation::from_counts(epidemic(), &[9_999, 1]);
        let mut rng = SimRng::seed_from(2);
        let t = run_until(&mut pop, &mut rng, 200.0, 64, |s| s.count(0) == 0)
            .expect("epidemic completes");
        assert!(t < 60.0, "epidemic took {t} rounds");
    }

    #[test]
    fn pair_sampling_excludes_self_pair() {
        // With exactly one agent in state 1, the ordered pair (1, 1) is
        // impossible. Use a rule that only fires on (1, 1) and check it
        // never fires.
        let p = TableProtocol::new(2, "selfpair").rule(1, 1, 0, 0);
        let mut pop = CountPopulation::from_counts(p, &[99, 1]);
        let mut rng = SimRng::seed_from(3);
        for _ in 0..20_000 {
            pop.step(&mut rng);
            assert_eq!(pop.count(1), 1);
        }
    }

    #[test]
    fn pair_sampling_allows_same_state_distinct_agents() {
        let p = TableProtocol::new(2, "annihilate").rule(1, 1, 0, 0);
        let mut pop = CountPopulation::from_counts(p, &[0, 11]);
        let mut rng = SimRng::seed_from(4);
        let t = run_until(&mut pop, &mut rng, 1000.0, 8, |s| s.count(1) <= 1);
        assert!(t.is_some(), "pairwise annihilation should reduce to one");
        assert_eq!(pop.count(1), 1, "odd survivor remains");
    }

    /// The reactivity index is built at the first draw, not at
    /// construction, and only once across steps and collision batches.
    #[test]
    fn the_index_is_built_once_at_the_first_draw() {
        let cycle3 = TableProtocol::new(3, "cycle3")
            .rule(0, 1, 1, 1)
            .rule(1, 2, 2, 2)
            .rule(2, 0, 0, 0);
        let mut pop = CountPopulation::from_counts(cycle3, &[1_000, 1_000, 1_000]);
        assert!(pop.index.is_none());
        let mut rng = SimRng::seed_from(6);
        let mut rec = recorder::Recorder::new();
        {
            let _installed = rec.install();
            pop.step_batch(&mut rng, 3_000);
            pop.step(&mut rng);
            pop.step(&mut rng);
        }
        let metrics = rec.metrics();
        assert!(metrics.counter("collision_epochs") > 0);
        assert_eq!(metrics.counter("batch_cache_rebuilds"), 1);
        assert_eq!(pop.counts().iter().sum::<u64>(), 3_000);
    }

    /// Snapshots written while a Fenwick tree served the plain steps carry
    /// its `tree_stale` flag beside `cached`; they restore, flag ignored.
    #[test]
    fn restores_snapshots_that_carry_the_retired_tree_flag() {
        let mut pop = CountPopulation::from_counts(epidemic(), &[7, 3]);
        let old = Json::obj([
            ("counts", Json::arr([hex_u64(4), hex_u64(6)])),
            ("steps", hex_u64(12)),
            ("cached", Json::Bool(true)),
            ("tree_stale", Json::Bool(true)),
        ]);
        pop.restore(&old)
            .expect("a snapshot with tree_stale restores");
        assert_eq!((pop.counts(), pop.steps()), (vec![4, 6], 12));
        assert!(pop.index.is_some(), "cached: the index is rebuilt eagerly");
    }

    #[test]
    fn migrate_caps_at_source_count() {
        let mut pop = CountPopulation::from_counts(epidemic(), &[7, 3]);
        assert_eq!(pop.migrate(0, 1, 4), 4);
        assert_eq!((pop.count(0), pop.count(1)), (3, 7));
        assert_eq!(pop.migrate(0, 1, 100), 3);
        assert_eq!(pop.count(0), 0);
        assert_eq!(pop.count(1), 10);
        assert_eq!(pop.migrate(1, 1, 5), 0, "self-moves are no-ops");
        assert_eq!(pop.migrate(0, 1, 5), 0, "empty source moves nothing");
        assert_eq!(pop.steps(), 0, "migrate consumes no steps");
    }
}
