//! Count-based simulation backend: agents are indistinguishable, so the
//! configuration is fully described by the vector of per-state counts.
//!
//! Sampling an ordered pair of distinct agents uniformly at random is
//! equivalent to sampling the initiator's state with probability `c_a / n`
//! and then the responder's state with probability `c'_b / (n − 1)`, where
//! `c'` is the count vector with one agent of the initiator's state removed.
//! Both draws are `O(log k)` with a Fenwick tree over the counts, so memory
//! and cache traffic are independent of `n` — this backend simulates
//! populations of 10⁸ agents as cheaply as 10³.
//!
//! The per-step distribution is *identical* to the agent-array backend
//! ([`crate::population::Population`]); a property test asserts the
//! statistical equivalence.

use crate::collision::{self, BirthdayCdf, CollisionScratch};
use crate::fenwick::Fenwick;
use crate::json::Json;
use crate::metrics::Counter;
use crate::prof::{self, Section};
use crate::protocol::Protocol;
use crate::reactivity::ReactivityIndex;
use crate::recorder::{self, BatchTally};
use crate::rng::SimRng;
use crate::sim::{run_rounds, BatchOutcome, Simulator, StepOutcome};
use crate::snapshot::{hex_u64, parse_hex_u64};

/// Largest state space for which [`CountPopulation`] builds the reactivity
/// index that powers batched no-op leaping and collision epochs; above it,
/// `step_batch` runs a tight Fenwick-sampled loop. The index costs
/// `O(k + occupied²)` to build, which does not need the limit; it stays
/// because lifting it would change which regime runs above 1 024 states,
/// and with it the trajectories of those protocols.
const BATCH_STATE_LIMIT: usize = 1024;

/// Minimum expected number of *reactive* interactions per collision-free
/// epoch for the contingency-table path to engage. An epoch costs a fixed
/// handful of distribution draws; below this threshold the geometric no-op
/// leap settles the same work with less overhead.
pub(crate) const COLLISION_MIN_REACTIVE: f64 = 8.0;

/// Expected collision-free interactions per epoch, `E[T]/2 ≈ 0.6267 √n`,
/// estimated without building the birthday table (used only for regime
/// dispatch; the exact table is built lazily on first collision use).
pub(crate) fn estimated_epoch_len(n: u64) -> f64 {
    (std::f64::consts::PI * n as f64 / 8.0).sqrt()
}

/// Parses the `counts` array and step counter of a dense count backend's
/// snapshot, checking them against the simulator's `k` states and `n`
/// agents.
pub(crate) fn parse_count_snapshot(
    state: &Json,
    k: usize,
    n: u64,
    backend: &str,
) -> Result<(Vec<u64>, u64), String> {
    let arr = state
        .get("counts")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{backend} snapshot missing count array"))?;
    if arr.len() != k {
        return Err(format!(
            "snapshot has {} states, simulator protocol has {k}",
            arr.len()
        ));
    }
    let steps = parse_hex_u64(state.get("steps").unwrap_or(&Json::Null))?;
    let counts = arr
        .iter()
        .map(parse_hex_u64)
        .collect::<Result<Vec<_>, _>>()?;
    let total: u64 = counts.iter().sum();
    if total != n {
        return Err(format!(
            "snapshot population {total} does not match simulator population {n}"
        ));
    }
    Ok((counts, steps))
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
    counts: Fenwick,
    n: u64,
    steps: u64,
    /// Reactivity index over a dense mirror of the Fenwick counts. Built on
    /// the first `step_batch` call (for `k ≤ BATCH_STATE_LIMIT`);
    /// invalidated by out-of-band count edits ([`CountPopulation::reassign`]).
    index: Option<ReactivityIndex>,
    /// Birthday-process table for the collision-batch regime. Keyed only on
    /// `n`, which never changes, so it survives index invalidations.
    birthday: Option<BirthdayCdf>,
    /// Working memory for collision epochs (urns + cell-plan cache).
    scratch: CollisionScratch,
}

impl<P: Protocol> CountPopulation<P> {
    /// Creates a population with `counts[s]` agents in state `s`.
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
            counts: Fenwick::from_weights(&full),
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

    /// Moves `how_many` agents from state `from` to state `to` without
    /// consuming scheduler steps (test setups, external perturbations).
    ///
    /// # Panics
    ///
    /// Panics if fewer than `how_many` agents are in `from` or states are
    /// out of range.
    pub fn reassign(&mut self, from: usize, to: usize, how_many: u64) {
        assert!(
            self.counts.get(from) >= how_many,
            "not enough agents in source state"
        );
        assert!(to < self.protocol.num_states());
        self.counts.add(from, -(how_many as i64));
        self.counts.add(to, how_many as i64);
        // Out-of-band edit: the index's dense mirror and reactive-pair count
        // are stale; rebuild lazily on the next step_batch.
        self.index = None;
    }

    /// Samples the states of a uniformly random ordered pair of distinct
    /// agents without consuming a step.
    fn sample_pair(&mut self, rng: &mut SimRng) -> (usize, usize) {
        let a = self.counts.find(rng.below(self.n));
        // Remove one agent of state `a`, sample the responder, restore.
        self.counts.add(a, -1);
        let b = self.counts.find(rng.below(self.n - 1));
        self.counts.add(a, 1);
        (a, b)
    }

    /// Applies one interaction's count changes to the Fenwick tree and, if
    /// present, the reactivity index.
    fn apply_change(&mut self, a: usize, b: usize, a2: usize, b2: usize) {
        for (s, d) in [(a, -1i64), (b, -1), (a2, 1), (b2, 1)] {
            self.counts.add(s, d);
        }
        if let Some(index) = &mut self.index {
            index.apply(&self.protocol, a, b, a2, b2);
        }
        debug_assert!(self.index_is_consistent());
    }

    /// Debug check: the index agrees with a direct recount and its dense
    /// mirror with the Fenwick weights.
    fn index_is_consistent(&self) -> bool {
        self.index.as_ref().is_none_or(|index| {
            index.is_consistent(&self.protocol) && index.counts() == self.counts.to_weights()
        })
    }

    /// Ensures the reactivity index exists; returns false above
    /// `BATCH_STATE_LIMIT`.
    fn ensure_index(&mut self) -> bool {
        if self.protocol.num_states() > BATCH_STATE_LIMIT {
            return false;
        }
        if self.index.is_none() {
            recorder::add(Counter::BatchCacheRebuilds, 1);
            let dense = self.counts.to_weights();
            self.index = Some(ReactivityIndex::new(&self.protocol, dense));
        }
        true
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
        self.counts.get(state)
    }

    fn counts(&self) -> Vec<u64> {
        self.counts.to_weights()
    }

    /// Delegates to [`CountPopulation::reassign`], which invalidates the
    /// reactivity index (its dense mirror and reactive-pair count go stale).
    fn migrate(&mut self, from: usize, to: usize, k: u64) -> u64 {
        let states = self.protocol.num_states();
        assert!(from < states, "migrate source state out of range");
        assert!(to < states, "migrate target state out of range");
        let moved = k.min(self.counts.get(from));
        if from == to || moved == 0 {
            return 0;
        }
        self.reassign(from, to, moved);
        moved
    }

    fn step(&mut self, rng: &mut SimRng) -> StepOutcome {
        let (a, b) = self.sample_pair(rng);
        self.steps += 1;
        let (a2, b2) = self.protocol.interact(a, b, rng);
        if (a2, b2) == (a, b) {
            return StepOutcome::Unchanged;
        }
        self.apply_change(a, b, a2, b2);
        StepOutcome::Changed
    }

    /// Count-vector batching with three regimes, selected per iteration off
    /// the reactive-pair count `R` (`p = R / (n(n−1))`):
    ///
    /// 1. **Collision batches** (reactive-dense, `p · E[T]/2 ≥ 8`): settle
    ///    ≈ √n activations per [`collision::run_epoch`] contingency-table
    ///    sample — `O(q²)` distribution draws per epoch.
    /// 2. **No-op leaping** (sparse): between reactive interactions, the
    ///    number of consecutive no-op activations is geometric with success
    ///    probability `p`, so the loop draws the skip length in `O(1)`
    ///    instead of executing the no-ops. When the skip overshoots the
    ///    batch budget, the rest of the batch is consumed as no-ops — exact
    ///    by memorylessness of the geometric.
    /// 3. **Per-step** (dense but `n` too small for epochs to pay): plain
    ///    `O(log k)` Fenwick-sampled steps.
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
        if !self.ensure_index() {
            // Huge state space: no reactivity index, just a tight loop.
            let _fallback_span = prof::section_if(pf, Section::DenseFallback);
            while out.executed < max_steps {
                let (a, b) = self.sample_pair(rng);
                out.executed += 1;
                let (a2, b2) = self.protocol.interact(a, b, rng);
                if (a2, b2) != (a, b) {
                    out.changed += 1;
                    self.apply_change(a, b, a2, b2);
                }
            }
            self.steps += out.executed;
            if cap.on {
                let tally = BatchTally::dense_fallback(self.n);
                recorder::with(|r| r.record_tallied_batch(&out, tally));
            }
            return out;
        }
        let n = self.n;
        let total_pairs = n * (n - 1);
        let epoch_len = estimated_epoch_len(n);
        let entry_pairs = self.index.as_ref().expect("index built above").pairs();
        let mut tally = cap.on.then(|| BatchTally::new(n, entry_pairs));
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
                // Collision-batch regime: one contingency-table epoch.
                let birthday = self.birthday.get_or_insert_with(|| BirthdayCdf::new(n));
                let ep = collision::run_epoch(
                    &self.protocol,
                    index.counts_mut(),
                    birthday,
                    &mut self.scratch,
                    rng,
                    remaining,
                );
                // Sync the Fenwick tree, occupancy and reactive-pair count
                // from the epoch's net movement.
                let sync_span = prof::section_if(pf, Section::FenwickSync);
                for (s, &d) in self.scratch.delta().iter().enumerate() {
                    if d != 0 {
                        self.counts.add(s, d);
                    }
                }
                index.sync_epoch(&self.protocol, self.scratch.delta());
                drop(sync_span);
                debug_assert!(self.index_is_consistent());
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
                let (a, b) = self.sample_pair(rng);
                out.executed += 1;
                let (a2, b2) = self.protocol.interact(a, b, rng);
                if (a2, b2) != (a, b) {
                    out.changed += 1;
                    self.apply_change(a, b, a2, b2);
                }
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
                .sample_reactive_pair(rng);
            let (a2, b2) = self.protocol.interact(a, b, rng);
            if (a2, b2) != (a, b) {
                out.changed += 1;
                self.apply_change(a, b, a2, b2);
            }
        }
        self.steps += out.executed;
        if let Some(t) = tally {
            recorder::with(|r| r.record_tallied_batch(&out, t));
        }
        out
    }

    fn backend_tag(&self) -> &'static str {
        "counts"
    }

    /// Serializes the count vector and step counter. The Fenwick tree,
    /// reactivity index, birthday table, and collision scratch are all derived
    /// deterministically (and RNG-free) from the counts, so they are
    /// rebuilt on restore rather than stored — only the *presence* of the
    /// index is recorded, so that a resumed run rebuilds it at exactly
    /// the same point in its metrics stream as the uninterrupted run.
    fn snapshot(&self) -> Result<Json, String> {
        Ok(Json::obj([
            (
                "counts",
                Json::Arr(
                    self.counts
                        .to_weights()
                        .iter()
                        .map(|&c| hex_u64(c))
                        .collect(),
                ),
            ),
            ("steps", hex_u64(self.steps)),
            ("cached", Json::Bool(self.index.is_some())),
        ]))
    }

    fn restore(&mut self, state: &Json) -> Result<(), String> {
        let (weights, steps) =
            parse_count_snapshot(state, self.protocol.num_states(), self.n, "counts")?;
        let cached = state.get("cached").and_then(Json::as_bool).unwrap_or(false);
        self.counts = Fenwick::from_weights(&weights);
        self.steps = steps;
        self.index = None;
        self.birthday = None;
        if cached {
            // Rebuild eagerly, during restore, so the next batch does not
            // count a rebuild the uninterrupted run never made: that run
            // had the index live at this point. The run's restored
            // recorder is installed only after this returns.
            let _ = self.ensure_index();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::Population;
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

    #[test]
    fn matches_agent_array_statistics() {
        // Two-way epidemic completion time distribution should agree between
        // backends: compare means over repeated runs.
        let runs = 30;
        let mut t_counts = 0.0;
        let mut t_agents = 0.0;
        for seed in 0..runs {
            let p = epidemic();
            let mut a = CountPopulation::from_counts(&p, &[499, 1]);
            let mut rng = SimRng::seed_from(1000 + seed);
            t_counts += run_until(&mut a, &mut rng, 500.0, 1, |s| s.count(0) == 0).unwrap();

            let p = epidemic();
            let mut b = Population::from_counts(&p, &[499, 1]);
            let mut rng = SimRng::seed_from(2000 + seed);
            t_agents += run_until(&mut b, &mut rng, 500.0, 1, |s| s.count(0) == 0).unwrap();
        }
        let mean_c = t_counts / runs as f64;
        let mean_a = t_agents / runs as f64;
        let rel = (mean_c - mean_a).abs() / mean_a;
        assert!(rel < 0.15, "backend means diverge: {mean_c} vs {mean_a}");
    }

    #[test]
    fn reassign_moves_agents() {
        let mut pop = CountPopulation::from_counts(epidemic(), &[10, 0]);
        pop.reassign(0, 1, 4);
        assert_eq!(pop.count(0), 6);
        assert_eq!(pop.count(1), 4);
        assert_eq!(pop.steps(), 0);
    }

    #[test]
    #[should_panic(expected = "not enough agents")]
    fn reassign_checks_source() {
        let mut pop = CountPopulation::from_counts(epidemic(), &[2, 0]);
        pop.reassign(0, 1, 3);
    }

    #[test]
    fn migrate_caps_at_source_count() {
        let mut pop = CountPopulation::from_counts(epidemic(), &[7, 3]);
        assert_eq!(pop.migrate(0, 1, 100), 7);
        assert_eq!(pop.count(0), 0);
        assert_eq!(pop.count(1), 10);
        assert_eq!(pop.migrate(1, 1, 5), 0, "self-moves are no-ops");
        assert_eq!(pop.migrate(0, 1, 5), 0, "empty source moves nothing");
        assert_eq!(pop.steps(), 0, "migrate consumes no steps");
    }
}

/// Above this many nominal states [`run_counts`] switches to the sparse
/// backend: reachable configurations of wide flag spaces occupy only a
/// handful of states, so dense Fenwick construction would dominate.
const SPARSE_THRESHOLD: usize = 4096;

/// Runs `protocol` for `rounds` parallel rounds on the count vector
/// `counts`, in place: on [`CountPopulation`], or on
/// [`SparseCountPopulation`] when `counts` spans more than 4 096 states.
/// The one dispatch point of the program executors' scheduler runs.
pub fn run_counts<P: Protocol>(protocol: P, counts: &mut Vec<u64>, rounds: f64, rng: &mut SimRng) {
    if counts.len() > SPARSE_THRESHOLD {
        let mut pop = SparseCountPopulation::from_dense(protocol, counts);
        // Write back by occupied state, not by rebuilding all k counts.
        for (state, _) in pop.iter_counts() {
            counts[state] = 0;
        }
        run_rounds(&mut pop, rounds, rng, &mut []);
        for (state, count) in pop.iter_counts() {
            counts[state] = count;
        }
    } else {
        let mut pop = CountPopulation::from_counts(protocol, counts);
        run_rounds(&mut pop, rounds, rng, &mut []);
        *counts = pop.counts();
    }
}

/// Occupied slots per block of [`SparseCountPopulation`]'s second sampling
/// level. With at most this many occupied states there is one block, and a
/// draw is the plain linear scan plus one compare.
const SLOT_BLOCK: usize = 32;

/// Per-block count sums of an occupied list.
fn block_sums(occupied: &[(usize, u64)]) -> Vec<u64> {
    occupied
        .chunks(SLOT_BLOCK)
        .map(|block| block.iter().map(|&(_, c)| c).sum())
        .collect()
}

/// A population represented by a *sparse* map of per-state agent counts.
///
/// Protocol compositions over boolean flag spaces can have huge nominal
/// state spaces (`2^18` and beyond) of which any reachable configuration
/// occupies only a handful of states. The dense [`CountPopulation`] pays
/// `O(k)` to build and `O(log k)` per step regardless; this backend stores
/// only the occupied states, so construction is `O(occupied)` and each step
/// is `O(occupied/B + B)` with `B = 32` — orders of magnitude faster when
/// `occupied ≪ k`.
///
/// Sampling scans per-block count sums over runs of `B` consecutive
/// occupied slots, then the one block holding the rank. The rank → state
/// map is that of a linear scan in insertion order, so the block level
/// changes speed only, never trajectories.
///
/// The sampled process is identical in distribution to the dense backends.
///
/// # Examples
///
/// ```
/// use pp_engine::counts::SparseCountPopulation;
/// use pp_engine::protocol::TableProtocol;
/// use pp_engine::rng::SimRng;
/// use pp_engine::sim::{run_until, Simulator};
///
/// let p = TableProtocol::new(2, "epidemic").rule(1, 0, 1, 1).rule(0, 1, 1, 1);
/// let mut pop = SparseCountPopulation::from_pairs(&p, &[(0, 999), (1, 1)]);
/// let mut rng = SimRng::seed_from(0);
/// let t = run_until(&mut pop, &mut rng, 200.0, 64, |s| s.count(0) == 0);
/// assert!(t.is_some());
/// ```
#[derive(Debug, Clone)]
pub struct SparseCountPopulation<P> {
    protocol: P,
    /// Occupied states and their counts, in insertion order.
    occupied: Vec<(usize, u64)>,
    /// `blocks[j]` = count sum of `occupied[j·B .. (j+1)·B]`, `B` =
    /// `SLOT_BLOCK`. Derived from `occupied`, so never serialized.
    blocks: Vec<u64>,
    /// State → index into `occupied`.
    index: std::collections::HashMap<usize, usize>,
    n: u64,
    steps: u64,
}

impl<P: Protocol> SparseCountPopulation<P> {
    /// Creates a population from `(state, count)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if a state is out of range, a state repeats, or the total
    /// population is smaller than 2.
    #[must_use]
    pub fn from_pairs(protocol: P, pairs: &[(usize, u64)]) -> Self {
        let k = protocol.num_states();
        let mut occupied = Vec::new();
        let mut index = std::collections::HashMap::new();
        let mut n = 0u64;
        for &(state, count) in pairs {
            assert!(state < k, "state {state} out of range");
            if count == 0 {
                continue;
            }
            assert!(!index.contains_key(&state), "state {state} listed twice");
            index.insert(state, occupied.len());
            occupied.push((state, count));
            n += count;
        }
        assert!(n >= 2, "population must have at least 2 agents");
        Self {
            protocol,
            blocks: block_sums(&occupied),
            occupied,
            index,
            n,
            steps: 0,
        }
    }

    /// Creates a population from a dense count vector (skipping zeros).
    ///
    /// # Panics
    ///
    /// As [`SparseCountPopulation::from_pairs`].
    #[must_use]
    pub fn from_dense(protocol: P, counts: &[u64]) -> Self {
        // Wide flag spaces are mostly zeros: one OR over a chunk skips it
        // before any single count is looked at.
        const CHUNK: usize = 16;
        let mut pairs = Vec::new();
        for (j, chunk) in counts.chunks(CHUNK).enumerate() {
            if chunk.iter().fold(0, |acc, &c| acc | c) == 0 {
                continue;
            }
            let occupied = chunk.iter().enumerate().filter(|&(_, &c)| c > 0);
            pairs.extend(occupied.map(|(i, &c)| (j * CHUNK + i, c)));
        }
        Self::from_pairs(protocol, &pairs)
    }

    /// Number of distinct occupied states.
    #[must_use]
    pub fn occupied_states(&self) -> usize {
        self.occupied.len()
    }

    /// Iterates over `(state, count)` pairs of occupied states.
    pub fn iter_counts(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.occupied.iter().copied()
    }

    /// The dense count vector (mostly zeros; allocates `num_states`).
    #[must_use]
    pub fn to_dense(&self) -> Vec<u64> {
        let mut out = vec![0u64; self.protocol.num_states()];
        for &(s, c) in &self.occupied {
            out[s] = c;
        }
        out
    }

    fn add(&mut self, state: usize, delta: i64) {
        match self.index.get(&state) {
            Some(&slot) => {
                self.add_at(slot, delta);
            }
            None => {
                assert!(delta > 0, "removing from empty state {state}");
                let slot = self.occupied.len();
                self.index.insert(state, slot);
                self.occupied.push((state, delta as u64));
                if slot.is_multiple_of(SLOT_BLOCK) {
                    self.blocks.push(delta as u64);
                } else {
                    *self.blocks.last_mut().expect("open trailing block") += delta as u64;
                }
            }
        }
    }

    /// Adds `delta` to the count at `slot`. A slot that empties is
    /// swap-removed; the return value is then the former slot of the entry
    /// moved into it, if one moved.
    fn add_at(&mut self, slot: usize, delta: i64) -> Option<usize> {
        let entry = &mut self.occupied[slot];
        entry.1 = entry.1.wrapping_add_signed(delta);
        let (state, count) = *entry;
        let block = &mut self.blocks[slot / SLOT_BLOCK];
        *block = block.wrapping_add_signed(delta);
        if count != 0 {
            return None;
        }
        // Swap-remove, fixing the moved entry's index and moving its count
        // to its new block; a trailing block left empty is dropped.
        let last = self.occupied.len() - 1;
        self.occupied.swap_remove(slot);
        self.index.remove(&state);
        let moved_from = (slot < last).then(|| {
            let (moved_state, moved) = self.occupied[slot];
            self.index.insert(moved_state, slot);
            self.blocks[last / SLOT_BLOCK] -= moved;
            self.blocks[slot / SLOT_BLOCK] += moved;
            last
        });
        if last.is_multiple_of(SLOT_BLOCK) {
            self.blocks.pop();
        }
        moved_from
    }

    /// Samples an agent by `rank` in insertion order and returns its slot
    /// in `occupied`, with one agent of slot `exclude` left out (pass
    /// `usize::MAX` to exclude nothing). Scans block sums, then the one
    /// block that holds the rank: `O(occupied/B + B)`. A single block is
    /// scanned slot by slot straight away.
    #[inline]
    fn sample(&self, mut rank: u64, exclude: usize) -> usize {
        let mut start = 0;
        if self.blocks.len() > 1 {
            let exclude_block = exclude / SLOT_BLOCK;
            for (j, &sum) in self.blocks.iter().enumerate() {
                let sum = sum - u64::from(j == exclude_block);
                if rank < sum {
                    start = j * SLOT_BLOCK;
                    break;
                }
                rank -= sum;
            }
        }
        for (slot, &(_, count)) in self.occupied.iter().enumerate().skip(start) {
            let c = count - u64::from(slot == exclude);
            if rank < c {
                return slot;
            }
            rank -= c;
        }
        unreachable!("rank exceeded population");
    }

    /// Moves the initiator at slot `sa` to state `a2` and the responder at
    /// slot `sb` to `b2`. The slots are known from sampling, so the two
    /// removals skip the state → slot lookup.
    fn apply(&mut self, sa: usize, sb: usize, a2: usize, b2: usize) {
        let moved_from = self.add_at(sa, -1);
        self.add_at(if moved_from == Some(sb) { sa } else { sb }, -1);
        self.add(a2, 1);
        self.add(b2, 1);
    }
}

impl<P: Protocol> Simulator for SparseCountPopulation<P> {
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
        self.index.get(&state).map_or(0, |&i| self.occupied[i].1)
    }

    fn counts(&self) -> Vec<u64> {
        self.to_dense()
    }

    /// Adjusts the occupied-state list directly; vacated states are
    /// swap-removed and new states appended, as for interactions.
    fn migrate(&mut self, from: usize, to: usize, k: u64) -> u64 {
        let states = self.protocol.num_states();
        assert!(from < states, "migrate source state out of range");
        assert!(to < states, "migrate target state out of range");
        let moved = k.min(self.count(from));
        if from == to || moved == 0 {
            return 0;
        }
        self.add(from, -(moved as i64));
        self.add(to, moved as i64);
        moved
    }

    fn step(&mut self, rng: &mut SimRng) -> StepOutcome {
        let sa = self.sample(rng.below(self.n), usize::MAX);
        let sb = self.sample(rng.below(self.n - 1), sa);
        self.steps += 1;
        let (a, b) = (self.occupied[sa].0, self.occupied[sb].0);
        let (a2, b2) = self.protocol.interact(a, b, rng);
        if (a2, b2) == (a, b) {
            return StepOutcome::Unchanged;
        }
        self.apply(sa, sb, a2, b2);
        StepOutcome::Changed
    }

    /// Tight inner loop: the block scans already make each step
    /// `O(occupied/B + B)`, so batching here only removes per-step dispatch
    /// and outcome plumbing. Never reports silence.
    fn step_batch(&mut self, rng: &mut SimRng, max_steps: u64) -> BatchOutcome {
        let _batch_span = prof::section(Section::BatchSparse);
        let n = self.n;
        let mut changed = 0u64;
        for _ in 0..max_steps {
            let sa = self.sample(rng.below(n), usize::MAX);
            let sb = self.sample(rng.below(n - 1), sa);
            let (a, b) = (self.occupied[sa].0, self.occupied[sb].0);
            let (a2, b2) = self.protocol.interact(a, b, rng);
            if (a2, b2) != (a, b) {
                self.apply(sa, sb, a2, b2);
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
        "sparse"
    }

    /// Serializes the occupied list *in insertion order* plus the step
    /// counter. The order is RNG-visible — `sample` maps ranks in it and
    /// `add` swap-removes vacated entries — so a dense round-trip would
    /// change which agents later draws land on; the state → slot index map
    /// and the block sums are derived and rebuilt on restore.
    fn snapshot(&self) -> Result<Json, String> {
        Ok(Json::obj([
            (
                "occupied",
                Json::Arr(
                    self.occupied
                        .iter()
                        .map(|&(s, c)| Json::Arr(vec![Json::from(s as u64), hex_u64(c)]))
                        .collect(),
                ),
            ),
            ("steps", hex_u64(self.steps)),
        ]))
    }

    fn restore(&mut self, state: &Json) -> Result<(), String> {
        let arr = state
            .get("occupied")
            .and_then(Json::as_arr)
            .ok_or("sparse snapshot missing occupied list")?;
        let steps = parse_hex_u64(state.get("steps").unwrap_or(&Json::Null))?;
        let k = self.protocol.num_states();
        let mut occupied = Vec::with_capacity(arr.len());
        let mut index = std::collections::HashMap::new();
        let mut n = 0u64;
        for j in arr {
            let pair = j
                .as_arr()
                .filter(|p| p.len() == 2)
                .ok_or("bad occupied entry")?;
            let s = pair[0].as_u64().ok_or("occupied state is not an integer")? as usize;
            let c = parse_hex_u64(&pair[1])?;
            if s >= k {
                return Err(format!("occupied state {s} out of range (k = {k})"));
            }
            if c == 0 || index.contains_key(&s) {
                return Err(format!("occupied state {s} empty or repeated"));
            }
            index.insert(s, occupied.len());
            occupied.push((s, c));
            n += c;
        }
        if n != self.n {
            return Err(format!(
                "snapshot population {n} does not match simulator population {}",
                self.n
            ));
        }
        self.blocks = block_sums(&occupied);
        self.occupied = occupied;
        self.index = index;
        self.steps = steps;
        Ok(())
    }
}

#[cfg(test)]
mod sparse_tests {
    use super::*;
    use crate::protocol::TableProtocol;
    use crate::sim::run_until;

    fn epidemic() -> TableProtocol {
        TableProtocol::new(2, "epidemic")
            .rule(1, 0, 1, 1)
            .rule(0, 1, 1, 1)
    }

    #[test]
    fn conservation_and_occupancy() {
        let p = TableProtocol::new(3, "cycle")
            .rule(0, 1, 1, 1)
            .rule(1, 2, 2, 2)
            .rule(2, 0, 0, 0);
        let mut pop = SparseCountPopulation::from_pairs(&p, &[(0, 40), (1, 30), (2, 30)]);
        let mut rng = SimRng::seed_from(1);
        for _ in 0..5_000 {
            pop.step(&mut rng);
            assert_eq!(pop.counts().iter().sum::<u64>(), 100);
            assert!(pop.occupied_states() <= 3);
        }
    }

    #[test]
    fn matches_dense_backend_statistics() {
        let runs = 25;
        let mut t_sparse = 0.0;
        let mut t_dense = 0.0;
        for seed in 0..runs {
            let p = epidemic();
            let mut a = SparseCountPopulation::from_pairs(&p, &[(0, 499), (1, 1)]);
            let mut rng = SimRng::seed_from(4_000 + seed);
            t_sparse += run_until(&mut a, &mut rng, 500.0, 1, |s| s.count(0) == 0).unwrap();

            let p = epidemic();
            let mut b = CountPopulation::from_counts(&p, &[499, 1]);
            let mut rng = SimRng::seed_from(8_000 + seed);
            t_dense += run_until(&mut b, &mut rng, 500.0, 1, |s| s.count(0) == 0).unwrap();
        }
        let ms = t_sparse / runs as f64;
        let md = t_dense / runs as f64;
        assert!(
            (ms - md).abs() / md < 0.15,
            "sparse {ms} vs dense {md} completion times"
        );
    }

    #[test]
    fn empty_states_are_dropped_and_revived() {
        let p = TableProtocol::new(3, "move")
            .rule(0, 0, 1, 1)
            .rule(1, 1, 2, 2)
            .rule(2, 2, 0, 0);
        let mut pop = SparseCountPopulation::from_pairs(&p, &[(0, 4)]);
        let mut rng = SimRng::seed_from(3);
        for _ in 0..200 {
            pop.step(&mut rng);
        }
        assert_eq!(pop.counts().iter().sum::<u64>(), 4);
    }

    #[test]
    fn from_dense_skips_zeros() {
        let p = epidemic();
        let pop = SparseCountPopulation::from_dense(&p, &[0, 5]);
        assert_eq!(pop.occupied_states(), 1);
        assert_eq!(pop.count(1), 5);
        assert_eq!(pop.count(0), 0);
    }

    #[test]
    #[should_panic(expected = "listed twice")]
    fn duplicate_states_rejected() {
        let p = epidemic();
        let _ = SparseCountPopulation::from_pairs(&p, &[(1, 2), (1, 3)]);
    }

    #[test]
    fn pair_sampling_excludes_self() {
        let p = TableProtocol::new(2, "selfpair").rule(1, 1, 0, 0);
        let mut pop = SparseCountPopulation::from_pairs(&p, &[(0, 50), (1, 1)]);
        let mut rng = SimRng::seed_from(5);
        for _ in 0..5_000 {
            pop.step(&mut rng);
            assert_eq!(pop.count(1), 1);
        }
    }

    impl<P: Protocol> SparseCountPopulation<P> {
        /// The single-level sampler the block sampler replaced: a linear
        /// scan in insertion order, returning a state and excluding one
        /// agent of state `exclude`.
        fn sample_linear(&self, mut rank: u64, exclude: usize) -> usize {
            for &(state, count) in &self.occupied {
                let c = if state == exclude { count - 1 } else { count };
                if rank < c {
                    return state;
                }
                rank -= c;
            }
            unreachable!("rank exceeded population");
        }
    }

    /// Block sums equal a recount, and the block sampler lands on the
    /// reference's state at every rank, with no exclusion and with each
    /// occupied slot excluded in turn.
    fn assert_sampler_matches_reference<P: Protocol>(pop: &SparseCountPopulation<P>) {
        assert_eq!(pop.blocks, block_sums(&pop.occupied), "block sums drifted");
        for rank in 0..pop.n {
            let slot = pop.sample(rank, usize::MAX);
            assert_eq!(pop.occupied[slot].0, pop.sample_linear(rank, usize::MAX));
        }
        for (excluded, &(state, _)) in pop.occupied.iter().enumerate() {
            for rank in 0..pop.n - 1 {
                let slot = pop.sample(rank, excluded);
                assert_ne!((slot, pop.occupied[slot].1), (excluded, 1));
                assert_eq!(pop.occupied[slot].0, pop.sample_linear(rank, state));
            }
        }
    }

    #[test]
    fn block_sampler_matches_linear_reference_through_growth_and_shrinkage() {
        let k = 4096;
        let n = 140;
        let p = TableProtocol::new(k, "inert");
        let mut pop = SparseCountPopulation::from_pairs(&p, &[(0, n)]);
        let mut rng = SimRng::seed_from(0xb10c);
        let random_slot = |pop: &SparseCountPopulation<_>, rng: &mut SimRng| {
            pop.occupied[rng.index(pop.occupied.len())]
        };
        // Grow to five blocks: mostly split one agent off a random state
        // onto a fresh one (appends, opening blocks); sometimes vacate a
        // random state into another (swap-removes).
        while pop.blocks.len() < 5 {
            if rng.chance(0.8) {
                let from = loop {
                    let (s, count) = random_slot(&pop, &mut rng);
                    if count >= 2 {
                        break s;
                    }
                };
                let fresh = loop {
                    let s = rng.index(k);
                    if pop.count(s) == 0 {
                        break s;
                    }
                };
                assert_eq!(pop.migrate(from, fresh, 1), 1);
            } else {
                let (from, count) = random_slot(&pop, &mut rng);
                let (to, _) = random_slot(&pop, &mut rng);
                pop.migrate(from, to, count);
            }
            assert_sampler_matches_reference(&pop);
        }
        // Shrink to one state: merge random states, wholly or in part,
        // into others, so swap-removes cross block boundaries and emptied
        // trailing blocks pop.
        while pop.occupied_states() > 1 {
            let (from, count) = random_slot(&pop, &mut rng);
            let (to, _) = random_slot(&pop, &mut rng);
            let amount = if rng.chance(0.2) { 1 } else { count };
            pop.migrate(from, to, amount);
            assert_sampler_matches_reference(&pop);
        }
        assert_eq!(pop.blocks, vec![n]);
    }

    /// `apply`'s removals by sampled slot leave the occupied list,
    /// block sums and index exactly as removals by state lookup would, for
    /// every slot pair: swap-removes that move the responder's entry,
    /// same-state pairs, and emptied trailing blocks included.
    #[test]
    fn slot_removals_match_state_removals() {
        let k = 64;
        let p = TableProtocol::new(k, "inert");
        let pairs: Vec<(usize, u64)> = (0..SLOT_BLOCK + 1).map(|s| (s, 1 + s as u64 % 2)).collect();
        let pop = SparseCountPopulation::from_pairs(&p, &pairs);
        for sa in 0..pop.occupied.len() {
            for sb in 0..pop.occupied.len() {
                if sa == sb && pop.occupied[sa].1 < 2 {
                    continue;
                }
                let (a, b) = (pop.occupied[sa].0, pop.occupied[sb].0);
                let mut by_slot = pop.clone();
                by_slot.apply(sa, sb, (a + 1) % k, b);
                let mut by_state = pop.clone();
                by_state.add(a, -1);
                by_state.add(b, -1);
                by_state.add((a + 1) % k, 1);
                by_state.add(b, 1);
                assert_eq!(by_slot.occupied, by_state.occupied);
                assert_eq!(by_slot.blocks, by_state.blocks);
                assert_eq!(by_slot.index, by_state.index);
            }
        }
    }

    /// `run_counts` above the sparse threshold leaves exactly the counts of
    /// a sparse run from the same start and seed, in place.
    #[test]
    fn run_counts_writes_back_the_sparse_run() {
        /// The initiator steps forward around a cycle of `k` states.
        struct Drift(usize);
        impl Protocol for Drift {
            fn num_states(&self) -> usize {
                self.0
            }
            fn interact(&self, a: usize, b: usize, _rng: &mut SimRng) -> (usize, usize) {
                ((a + 1) % self.0, b)
            }
        }
        let k = SPARSE_THRESHOLD + 1;
        let mut counts = vec![0u64; k];
        for s in (0..k).step_by(97) {
            counts[s] = 1 + s as u64 % 3;
        }
        let mut reference = SparseCountPopulation::from_dense(Drift(k), &counts);
        run_rounds(&mut reference, 3.0, &mut SimRng::seed_from(11), &mut []);
        run_counts(Drift(k), &mut counts, 3.0, &mut SimRng::seed_from(11));
        assert_eq!(counts, reference.to_dense());
    }

    #[test]
    fn migrate_updates_occupied_list() {
        let p = epidemic();
        let mut pop = SparseCountPopulation::from_pairs(&p, &[(0, 6), (1, 2)]);
        assert_eq!(pop.migrate(0, 1, 6), 6, "vacating a state is allowed");
        assert_eq!(pop.occupied_states(), 1);
        assert_eq!(pop.count(1), 8);
        assert_eq!(pop.migrate(1, 0, 3), 3, "repopulating a state re-adds it");
        assert_eq!(pop.occupied_states(), 2);
        assert_eq!(pop.migrate(0, 0, 2), 0);
        assert_eq!(pop.steps(), 0);
    }
}
