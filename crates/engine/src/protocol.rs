//! The core [`Protocol`] abstraction: a population protocol as a randomized
//! pairwise transition function over a dense, finite state space.
//!
//! States are represented as `usize` indices in `0..num_states()`. Each
//! concrete protocol defines its own packing of semantic content (boolean
//! flags, counters, species tags, …) into that index; the simulators in this
//! crate only need the index view. This densification is what enables the
//! count-based simulator ([`crate::counts`]) and the mean-field integrator
//! ([`crate::meanfield`]).
//!
//! # Examples
//!
//! A one-way epidemic: state `1` infects state `0`.
//!
//! ```
//! use pp_engine::protocol::Protocol;
//! use pp_engine::rng::SimRng;
//!
//! struct Epidemic;
//!
//! impl Protocol for Epidemic {
//!     fn num_states(&self) -> usize { 2 }
//!     fn interact(&self, a: usize, b: usize, _rng: &mut SimRng) -> (usize, usize) {
//!         if a == 1 || b == 1 { (1, 1) } else { (a, b) }
//!     }
//! }
//!
//! let mut rng = SimRng::seed_from(0);
//! assert_eq!(Epidemic.interact(1, 0, &mut rng), (1, 1));
//! ```

use crate::rng::SimRng;

/// A population protocol over a dense finite state space.
///
/// An *interaction* takes an ordered pair (initiator, responder) of agent
/// states and produces their successor states, possibly consuming
/// randomness. Under the standard asynchronous scheduler the pair is chosen
/// uniformly at random among all `n(n−1)` ordered pairs; see
/// [`crate::counts::CountPopulation`].
///
/// Implementations must be deterministic functions of `(a, b)` and the RNG
/// stream: given the same RNG state they must return the same result. This is
/// what makes whole simulations replayable from a seed.
pub trait Protocol {
    /// Number of states; all state indices lie in `0..num_states()`.
    fn num_states(&self) -> usize;

    /// Applies one interaction to the ordered pair `(a, b)`.
    ///
    /// Returns the successor states `(a', b')`. A pair on which the protocol
    /// has no applicable rule must be returned unchanged.
    fn interact(&self, a: usize, b: usize, rng: &mut SimRng) -> (usize, usize);

    /// Whether an interaction between states `a` and `b` can possibly change
    /// either state.
    ///
    /// This is a *conservative* hint consumed by the no-op leaping of
    /// [`crate::counts::CountPopulation`]: returning `false` asserts that
    /// `interact(a, b, _) == (a, b)` always. Returning `true` is always safe.
    /// The default claims every pair is reactive, which disables leaping.
    fn is_reactive(&self, a: usize, b: usize) -> bool {
        let _ = (a, b);
        true
    }

    /// The number of equally likely rule slots an interaction draws from,
    /// the denominator of the slot contract ([`Protocol::interact_slot`]).
    /// At least 1.
    fn weight_scale(&self) -> u32 {
        1
    }

    /// Fires rule slot `slot` on the ordered pair `(a, b)`, its probability
    /// coin included: the interaction conditioned on drawing that slot.
    ///
    /// The slot contract, for a protocol with [`Protocol::rule_masks`]:
    /// `interact(a, b)` draws `r` uniformly among the `weight_scale()` rule
    /// slots; if `r` is effective on `(a, b)` ([`RuleMasks`]) it runs
    /// `interact_slot(a, b, r)`, else it returns `(a, b)`.
    /// [`crate::counts::SparseCountPopulation`] leaps over the draws that
    /// miss and calls this only with a slot effective on the pair. The
    /// default is [`Protocol::interact`].
    fn interact_slot(&self, a: usize, b: usize, slot: usize, rng: &mut SimRng) -> (usize, usize) {
        let _ = slot;
        self.interact(a, b, rng)
    }

    /// Per-state rule masks for protocols that draw one of
    /// [`Protocol::weight_scale`] rule slots: for each slot, whether each
    /// guard holds in `state` and whether each update moves it. Slot `r` is
    /// *effective* on `(a, b)` when both guards hold and at least one update
    /// moves its agent; see [`Protocol::interact_slot`] for the contract
    /// that ties the slots to [`Protocol::interact`].
    ///
    /// The hook [`crate::counts::SparseCountPopulation`] leaps through: it
    /// asks for the masks of every state it reaches once, and keeps per
    /// rule slot the number of agents in each guard class. With `None`
    /// (the default) it runs every step.
    fn rule_masks(&self, state: usize) -> Option<RuleMasks> {
        let _ = state;
        None
    }

    /// The full outcome distribution of an interaction `(a, b)`, if the
    /// protocol can enumerate it: `((a', b'), probability)` entries summing
    /// to 1.
    ///
    /// The one way to ask a protocol for its transition law. Its readers:
    ///
    /// * the exact collision-batch stepper ([`crate::collision`]): when a
    ///   contingency table says an ordered state pair interacted `t` times
    ///   inside a batch, an enumerated cell splits the `t` interactions
    ///   across outcomes with `O(outcomes)` binomial draws instead of `t`
    ///   calls to [`Protocol::interact`]; with `None` (the default) it
    ///   falls back to per-interaction `interact` calls;
    /// * the mean-field integrator ([`crate::meanfield`]), which needs it
    ///   and panics without it;
    /// * `pp-analyze`'s exact small-`n` checkers.
    ///
    /// A `Some` answer must agree exactly with `interact`: sampling the
    /// listed distribution must be equivalent to calling it.
    fn outcome_table(&self, a: usize, b: usize) -> Option<Vec<((usize, usize), f64)>> {
        let _ = (a, b);
        None
    }

    /// Short protocol name for reports.
    fn name(&self) -> &str {
        "protocol"
    }
}

// Allow `&P` wherever a protocol is expected.
impl<P: Protocol + ?Sized> Protocol for &P {
    fn num_states(&self) -> usize {
        (**self).num_states()
    }
    fn interact(&self, a: usize, b: usize, rng: &mut SimRng) -> (usize, usize) {
        (**self).interact(a, b, rng)
    }
    fn is_reactive(&self, a: usize, b: usize) -> bool {
        (**self).is_reactive(a, b)
    }
    fn weight_scale(&self) -> u32 {
        (**self).weight_scale()
    }
    fn interact_slot(&self, a: usize, b: usize, slot: usize, rng: &mut SimRng) -> (usize, usize) {
        (**self).interact_slot(a, b, slot, rng)
    }
    fn rule_masks(&self, state: usize) -> Option<RuleMasks> {
        (**self).rule_masks(state)
    }
    fn outcome_table(&self, a: usize, b: usize) -> Option<Vec<((usize, usize), f64)>> {
        (**self).outcome_table(a, b)
    }
    fn name(&self) -> &str {
        (**self).name()
    }
}

/// One state's rule-slot bitmasks ([`Protocol::rule_masks`]): bit `r % 64`
/// of word `r / 64` of each field describes rule slot `r`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RuleMasks {
    /// The slot's initiator guard holds in this state.
    pub init: Vec<u64>,
    /// The slot's initiator update changes this state.
    pub init_moves: Vec<u64>,
    /// The slot's responder guard holds in this state.
    pub resp: Vec<u64>,
    /// The slot's responder update changes this state.
    pub resp_moves: Vec<u64>,
}

impl RuleMasks {
    /// Empty masks for `slots` rule slots.
    #[must_use]
    pub fn new(slots: usize) -> Self {
        let words = slots.div_ceil(64);
        Self {
            init: vec![0; words],
            init_moves: vec![0; words],
            resp: vec![0; words],
            resp_moves: vec![0; words],
        }
    }

    /// Sets slot `r`'s four bits.
    pub fn set(&mut self, r: usize, init: bool, init_moves: bool, resp: bool, resp_moves: bool) {
        let (w, bit) = (r / 64, 1u64 << (r % 64));
        for (field, on) in [
            (&mut self.init, init),
            (&mut self.init_moves, init_moves),
            (&mut self.resp, resp),
            (&mut self.resp_moves, resp_moves),
        ] {
            if on {
                field[w] |= bit;
            }
        }
    }

    /// Whether rule slot `r` is effective on the ordered pair (initiator in
    /// `a`'s state, responder in `b`'s): both guards hold and at least one
    /// update moves its agent.
    #[must_use]
    pub fn effective(a: &RuleMasks, b: &RuleMasks, r: usize) -> bool {
        let (w, bit) = (r / 64, 1u64 << (r % 64));
        a.init[w] & b.resp[w] & (a.init_moves[w] | b.resp_moves[w]) & bit != 0
    }
}

/// A protocol defined by an explicit outcome table, convenient for tests and
/// for small hand-written dynamics.
///
/// Unlisted pairs are identity (no-op). Listed pairs carry a probability
/// distribution over outcomes; any residual probability mass is identity.
#[derive(Debug, Clone, Default)]
pub struct TableProtocol {
    states: usize,
    name: String,
    /// `rules[a * states + b]` = list of `((a', b'), prob)`.
    rules: Vec<Vec<((usize, usize), f64)>>,
}

impl TableProtocol {
    /// Creates an empty (all no-op) table protocol with `states` states.
    ///
    /// # Panics
    ///
    /// Panics if `states == 0`.
    #[must_use]
    pub fn new(states: usize, name: impl Into<String>) -> Self {
        assert!(states > 0);
        Self {
            states,
            name: name.into(),
            rules: vec![Vec::new(); states * states],
        }
    }

    /// Adds a deterministic rule `(a, b) → (a', b')`.
    ///
    /// # Panics
    ///
    /// Panics if any state is out of range or the pair already has total
    /// probability exceeding 1.
    #[must_use]
    pub fn rule(self, a: usize, b: usize, a2: usize, b2: usize) -> Self {
        self.rule_p(a, b, a2, b2, 1.0)
    }

    /// Adds a probabilistic rule `(a, b) → (a', b')` firing with probability
    /// `p` (the residual mass stays identity).
    ///
    /// # Panics
    ///
    /// Panics if states are out of range, `p` is not in `(0, 1]`, or the
    /// accumulated probability for `(a, b)` would exceed 1 (beyond a small
    /// tolerance).
    #[must_use]
    pub fn rule_p(mut self, a: usize, b: usize, a2: usize, b2: usize, p: f64) -> Self {
        assert!(a < self.states && b < self.states && a2 < self.states && b2 < self.states);
        assert!(p > 0.0 && p <= 1.0, "rule probability must be in (0, 1]");
        let cell = &mut self.rules[a * self.states + b];
        let total: f64 = cell.iter().map(|&(_, q)| q).sum();
        assert!(
            total + p <= 1.0 + 1e-9,
            "outcome probabilities for ({a}, {b}) exceed 1"
        );
        cell.push(((a2, b2), p));
        self
    }
}

impl Protocol for TableProtocol {
    fn num_states(&self) -> usize {
        self.states
    }

    fn interact(&self, a: usize, b: usize, rng: &mut SimRng) -> (usize, usize) {
        let cell = &self.rules[a * self.states + b];
        if cell.is_empty() {
            return (a, b);
        }
        let mut u = rng.f64();
        for &(out, p) in cell {
            if u < p {
                return out;
            }
            u -= p;
        }
        (a, b)
    }

    fn is_reactive(&self, a: usize, b: usize) -> bool {
        self.rules[a * self.states + b]
            .iter()
            .any(|&((a2, b2), _)| (a2, b2) != (a, b))
    }

    fn outcome_table(&self, a: usize, b: usize) -> Option<Vec<((usize, usize), f64)>> {
        let cell = &self.rules[a * self.states + b];
        let mut out = cell.clone();
        let listed: f64 = cell.iter().map(|&(_, p)| p).sum();
        if listed < 1.0 - 1e-12 {
            out.push(((a, b), 1.0 - listed));
        }
        Some(out)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_protocol_identity_by_default() {
        let p = TableProtocol::new(3, "t");
        let mut rng = SimRng::seed_from(0);
        assert_eq!(p.interact(1, 2, &mut rng), (1, 2));
        assert!(!p.is_reactive(1, 2));
    }

    #[test]
    fn table_protocol_deterministic_rule_fires() {
        let p = TableProtocol::new(2, "epidemic")
            .rule(1, 0, 1, 1)
            .rule(0, 1, 1, 1);
        let mut rng = SimRng::seed_from(0);
        assert_eq!(p.interact(1, 0, &mut rng), (1, 1));
        assert_eq!(p.interact(0, 1, &mut rng), (1, 1));
        assert_eq!(p.interact(0, 0, &mut rng), (0, 0));
        assert!(p.is_reactive(1, 0));
        assert!(!p.is_reactive(0, 0));
    }

    #[test]
    fn table_protocol_probabilistic_rule_rate() {
        let p = TableProtocol::new(2, "half").rule_p(0, 0, 1, 1, 0.25);
        let mut rng = SimRng::seed_from(4);
        let trials = 40_000;
        let fired = (0..trials)
            .filter(|_| p.interact(0, 0, &mut rng) == (1, 1))
            .count();
        let rate = fired as f64 / trials as f64;
        assert!((rate - 0.25).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn table_protocol_outcomes_sum_to_one() {
        let p = TableProtocol::new(3, "x")
            .rule_p(0, 1, 2, 2, 0.5)
            .rule_p(0, 1, 1, 0, 0.25);
        let outs = p.outcome_table(0, 1).unwrap();
        let total: f64 = outs.iter().map(|&(_, q)| q).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!(outs.contains(&((0, 1), 0.25)));
    }

    #[test]
    #[should_panic(expected = "exceed 1")]
    fn table_protocol_rejects_overfull_distribution() {
        let _ = TableProtocol::new(2, "bad")
            .rule_p(0, 0, 1, 1, 0.7)
            .rule_p(0, 0, 1, 0, 0.7);
    }

    #[test]
    fn reference_through_protocols_work() {
        let p = TableProtocol::new(2, "e").rule(1, 0, 1, 1);
        let r = &p;
        assert_eq!(r.num_states(), 2);
    }
}
