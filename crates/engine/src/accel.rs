//! Exact no-op leaping: fast-forward through interaction stretches that
//! provably cannot change any state.
//!
//! Many population protocols spend most of their wall-clock interactions on
//! pairs with identity transitions (e.g. two followers meeting after a leader
//! has been elected). Let `R` be the number of ordered pairs of distinct
//! agents whose state pair is *reactive* (per [`Protocol::is_reactive`]).
//! Each scheduler activation hits a reactive pair with probability
//! `p = R / (n(n−1))` independently, so the number of consecutive non-reactive
//! activations is geometric. The accelerated backend samples that geometric
//! skip in `O(1)` and then samples one interaction *conditioned on the pair
//! being reactive* — the resulting process is equal in distribution to the
//! naive one, step for step, provided `is_reactive` is sound.
//!
//! Note the conditioned interaction may still be an *effective* no-op (a
//! probabilistic rule may resolve to identity); only pairs that can never
//! react are skipped, which is what keeps the acceleration exact.

use crate::collision::{self, BirthdayCdf, CollisionScratch};
use crate::counts::{estimated_epoch_len, parse_count_snapshot, COLLISION_MIN_REACTIVE};
use crate::json::Json;
use crate::metrics::{self, record_batch, BatchScratch};
use crate::prof::{self, Section};
use crate::protocol::Protocol;
use crate::reactivity::ReactivityIndex;
use crate::rng::SimRng;
use crate::sim::{BatchOutcome, Simulator, StepOutcome};
use crate::snapshot::hex_u64;
use crate::trace::{self, DispatchRecord};

/// Count-based backend with exact geometric leaping over non-reactive pairs.
///
/// Per-change cost is `O(occupied)` in the number of occupied states (to
/// maintain reactive pair counts), so this backend pays off when the
/// protocol is sparse in reactive pairs — precisely the regime of converged
/// or slow-moving finite-state protocols.
///
/// # Examples
///
/// ```
/// use pp_engine::accel::AcceleratedPopulation;
/// use pp_engine::protocol::TableProtocol;
/// use pp_engine::rng::SimRng;
/// use pp_engine::sim::{Simulator, StepOutcome};
///
/// // Leader fratricide: two leaders meet, one survives.
/// let p = TableProtocol::new(2, "fratricide").rule(1, 1, 1, 0);
/// let mut pop = AcceleratedPopulation::from_counts(&p, &[0, 1000]);
/// let mut rng = SimRng::seed_from(0);
/// loop {
///     if pop.step(&mut rng) == StepOutcome::Silent { break; }
/// }
/// assert_eq!(pop.count(1), 1);
/// ```
#[derive(Debug, Clone)]
pub struct AcceleratedPopulation<P> {
    protocol: P,
    /// Counts, occupancy, and the reactive-pair count `R`.
    index: ReactivityIndex,
    n: u64,
    steps: u64,
    /// Birthday-process table for the collision-batch regime, built lazily
    /// (keyed only on `n`, which never changes).
    birthday: Option<BirthdayCdf>,
    /// Working memory for collision epochs (urns + cell-plan cache).
    scratch: CollisionScratch,
}

impl<P: Protocol> AcceleratedPopulation<P> {
    /// Creates a population with `counts[s]` agents in state `s`.
    ///
    /// Asks [`Protocol::is_reactive`] only about pairs of occupied states,
    /// so construction is `O(k + occupied²)`.
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
        let index = ReactivityIndex::new(&protocol, full);
        Self {
            protocol,
            index,
            n,
            steps: 0,
            birthday: None,
            scratch: CollisionScratch::new(),
        }
    }
}

impl<P: Protocol> Simulator for AcceleratedPopulation<P> {
    fn n(&self) -> u64 {
        self.n
    }

    fn num_states(&self) -> usize {
        self.index.counts().len()
    }

    fn steps(&self) -> u64 {
        self.steps
    }

    fn count(&self, state: usize) -> u64 {
        self.index.counts()[state]
    }

    fn counts(&self) -> Vec<u64> {
        self.index.counts().to_vec()
    }

    /// Applies both count deltas through the incremental reactive-pair
    /// maintenance, so silence detection stays exact after the edit.
    /// `O(occupied)`.
    fn migrate(&mut self, from: usize, to: usize, k: u64) -> u64 {
        let states = self.num_states();
        assert!(from < states, "migrate source state out of range");
        assert!(to < states, "migrate target state out of range");
        let moved = k.min(self.count(from));
        if from == to || moved == 0 {
            return 0;
        }
        self.index.add(&self.protocol, from, -(moved as i64));
        self.index.add(&self.protocol, to, moved as i64);
        debug_assert!(self.index.is_consistent(&self.protocol));
        moved
    }

    /// One *logical* activation: leaps over the geometric number of
    /// non-reactive activations (adding them to `steps`), then performs one
    /// reactive interaction. Returns [`StepOutcome::Silent`] if no reactive
    /// pair exists.
    fn step(&mut self, rng: &mut SimRng) -> StepOutcome {
        let pairs = self.index.pairs();
        if pairs == 0 {
            return StepOutcome::Silent;
        }
        let total_pairs = self.n * (self.n - 1);
        let p = pairs as f64 / total_pairs as f64;
        if p < 1.0 {
            self.steps += rng.geometric(p);
        }
        self.steps += 1;
        let (a, b) = self.index.sample_reactive_pair(rng);
        let (a2, b2) = self.protocol.interact(a, b, rng);
        if (a2, b2) == (a, b) {
            return StepOutcome::Unchanged;
        }
        self.index.apply(&self.protocol, a, b, a2, b2);
        debug_assert!(self.index.is_consistent(&self.protocol));
        StepOutcome::Changed
    }

    /// The no-op leaping of [`AcceleratedPopulation::step`] folded into one
    /// loop, composed with collision-batch epochs: while the configuration
    /// is reactive-dense enough that an epoch settles ≥ 8 reactive
    /// interactions in expectation, each iteration runs one exact
    /// contingency-table epoch ([`collision::run_epoch`], ≈ √n activations
    /// in O(q²) draws); otherwise it draws the geometric skip and performs
    /// one reactive interaction, stopping when the skip overshoots the
    /// batch budget (exact by memorylessness — the leftover activations are
    /// provably no-ops) or the configuration goes silent. The reactive-pair
    /// consistency recount runs once per batch instead of per change.
    fn step_batch(&mut self, rng: &mut SimRng, max_steps: u64) -> BatchOutcome {
        // One relaxed load per batch (metrics, prof, dispatch); the loop
        // branches on the bools and accumulates into local scratch flushed
        // once at batch end.
        let rec = metrics::enabled();
        let pf = prof::enabled();
        let disp = trace::dispatch_enabled();
        let _batch_span = prof::section_if(pf, Section::BatchAccel);
        let mut stats = BatchScratch::new();
        let mut out = BatchOutcome::default();
        let n = self.n;
        let total_pairs = n * (n - 1);
        let epoch_len = estimated_epoch_len(n);
        let entry_pairs = self.index.pairs();
        let mut first_regime: Option<&'static str> = None;
        let (mut d_epochs, mut d_leaps) = (0u64, 0u64);
        while out.executed < max_steps {
            let pairs = self.index.pairs();
            if pairs == 0 {
                out.silent = true;
                break;
            }
            let remaining = max_steps - out.executed;
            let p = pairs as f64 / total_pairs as f64;
            if p * epoch_len >= COLLISION_MIN_REACTIVE {
                let birthday = self.birthday.get_or_insert_with(|| BirthdayCdf::new(n));
                let ep = collision::run_epoch(
                    &self.protocol,
                    self.index.counts_mut(),
                    birthday,
                    &mut self.scratch,
                    rng,
                    remaining,
                );
                self.index.sync_epoch(&self.protocol, self.scratch.delta());
                out.executed += ep.executed;
                out.changed += ep.changed;
                if rec {
                    stats.record_epoch(ep.executed);
                }
                if disp {
                    first_regime.get_or_insert("collision");
                    d_epochs += 1;
                }
                continue;
            }
            let _leap_span = prof::section_if(pf, Section::Leap);
            if disp {
                first_regime.get_or_insert("leap");
                d_leaps += 1;
            }
            let skip = if p < 1.0 { rng.geometric(p) } else { 0 };
            if skip >= remaining {
                if rec {
                    stats.record_leap(remaining);
                }
                out.executed = max_steps;
                break;
            }
            if rec {
                stats.record_leap(skip);
            }
            out.executed += skip + 1;
            let (a, b) = self.index.sample_reactive_pair(rng);
            let (a2, b2) = self.protocol.interact(a, b, rng);
            if (a2, b2) != (a, b) {
                out.changed += 1;
                self.index.apply(&self.protocol, a, b, a2, b2);
            }
        }
        debug_assert!(self.index.is_consistent(&self.protocol));
        self.steps += out.executed;
        if rec {
            stats.flush();
            record_batch(&out);
        }
        if disp {
            trace::record_dispatch(DispatchRecord {
                backend: "AcceleratedPopulation",
                n,
                pairs: entry_pairs,
                p: entry_pairs as f64 / total_pairs as f64,
                expected_epoch: epoch_len,
                regime: first_regime.unwrap_or("silent"),
                executed: out.executed,
                collision_epochs: d_epochs,
                leaps: d_leaps,
                per_steps: 0,
            });
        }
        out
    }

    fn backend_tag(&self) -> &'static str {
        "accel"
    }

    /// Serializes the count vector and step counter. The reactivity index,
    /// birthday table, and collision scratch derive RNG-free from the counts
    /// and the protocol, so all are rebuilt on restore.
    fn snapshot(&self) -> Result<Json, String> {
        Ok(Json::obj([
            (
                "counts",
                Json::Arr(self.index.counts().iter().map(|&c| hex_u64(c)).collect()),
            ),
            ("steps", hex_u64(self.steps)),
        ]))
    }

    fn restore(&mut self, state: &Json) -> Result<(), String> {
        let (counts, steps) = parse_count_snapshot(state, self.num_states(), self.n, "accel")?;
        self.index = ReactivityIndex::new(&self.protocol, counts);
        self.steps = steps;
        self.birthday = None;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counts::CountPopulation;
    use crate::protocol::TableProtocol;
    use crate::sim::run_until;

    fn fratricide() -> TableProtocol {
        TableProtocol::new(2, "fratricide").rule(1, 1, 1, 0)
    }

    #[test]
    fn detects_silence() {
        let mut pop = AcceleratedPopulation::from_counts(fratricide(), &[9, 1]);
        let mut rng = SimRng::seed_from(1);
        assert_eq!(pop.step(&mut rng), StepOutcome::Silent);
        assert_eq!(pop.steps(), 0);
    }

    #[test]
    fn reduces_to_single_leader() {
        let mut pop = AcceleratedPopulation::from_counts(fratricide(), &[0, 100]);
        let mut rng = SimRng::seed_from(2);
        let mut guard = 0;
        loop {
            guard += 1;
            assert!(guard < 10_000);
            if pop.step(&mut rng) == StepOutcome::Silent {
                break;
            }
        }
        assert_eq!(pop.count(1), 1);
        assert_eq!(pop.count(0), 99);
    }

    #[test]
    fn migrate_keeps_reactive_pairs_consistent() {
        let mut pop = AcceleratedPopulation::from_counts(fratricide(), &[9, 1]);
        let mut rng = SimRng::seed_from(7);
        // One leader: silent. Migrating a second agent into state 1 must
        // revive reactivity through the incremental pair maintenance.
        assert_eq!(pop.step(&mut rng), StepOutcome::Silent);
        assert_eq!(pop.migrate(0, 1, 1), 1);
        assert_eq!(pop.step(&mut rng), StepOutcome::Changed);
        assert_eq!(pop.count(1), 1);
        assert_eq!(pop.migrate(1, 0, 100), 1, "capped at the source count");
    }

    #[test]
    fn skipped_steps_are_counted() {
        // With 2 leaders among 1000 agents, reactive probability is tiny;
        // the accelerated backend must attribute the skipped activations.
        let mut pop = AcceleratedPopulation::from_counts(fratricide(), &[998, 2]);
        let mut rng = SimRng::seed_from(3);
        assert_eq!(pop.step(&mut rng), StepOutcome::Changed);
        // Expected skip ≈ total_pairs / reactive_pairs = (1000·999)/2 ≈ 5·10⁵.
        assert!(pop.steps() > 1_000, "steps {} too small", pop.steps());
    }

    #[test]
    fn hitting_time_matches_unaccelerated_mean() {
        // Fratricide from 10 leaders among 100 agents: compare mean
        // completion time against the exact count backend.
        let runs = 40;
        let mut t_fast = 0.0;
        let mut t_exact = 0.0;
        for seed in 0..runs {
            let mut a = AcceleratedPopulation::from_counts(fratricide(), &[90, 10]);
            let mut rng = SimRng::seed_from(500 + seed);
            t_fast += run_until(&mut a, &mut rng, 1e6, 1, |s| s.count(1) == 1).unwrap();

            let mut b = CountPopulation::from_counts(fratricide(), &[90, 10]);
            let mut rng = SimRng::seed_from(9000 + seed);
            t_exact += run_until(&mut b, &mut rng, 1e6, 1, |s| s.count(1) == 1).unwrap();
        }
        let mf = t_fast / runs as f64;
        let me = t_exact / runs as f64;
        let rel = (mf - me).abs() / me;
        assert!(rel < 0.2, "accelerated mean {mf} vs exact mean {me}");
    }

    #[test]
    fn probabilistic_noop_rules_are_not_skipped() {
        // Rule fires with probability 0.5; the pair is still reactive, so
        // the accelerated backend must sample it and may see identity.
        let p = TableProtocol::new(2, "half").rule_p(1, 0, 0, 0, 0.5);
        let mut pop = AcceleratedPopulation::from_counts(p, &[5, 5]);
        let mut rng = SimRng::seed_from(4);
        let mut unchanged = 0;
        let mut changed = 0;
        for _ in 0..500 {
            match pop.step(&mut rng) {
                StepOutcome::Unchanged => unchanged += 1,
                StepOutcome::Changed => changed += 1,
                StepOutcome::Silent => break,
            }
        }
        assert!(changed > 0 && unchanged > 0, "both outcomes should occur");
    }

    #[test]
    fn conservation_holds() {
        let p = TableProtocol::new(3, "cycle")
            .rule(0, 1, 1, 1)
            .rule(1, 2, 2, 2)
            .rule(2, 0, 0, 0);
        let mut pop = AcceleratedPopulation::from_counts(p, &[30, 30, 40]);
        let mut rng = SimRng::seed_from(5);
        for _ in 0..3_000 {
            if pop.step(&mut rng) == StepOutcome::Silent {
                break;
            }
            assert_eq!(pop.counts().iter().sum::<u64>(), 100);
        }
    }
}
