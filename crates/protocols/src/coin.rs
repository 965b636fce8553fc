//! The synthetic-coin technique of Alistarh et al. \[AAE+17\]
//! (Section 1.1, "Extensions of results").
//!
//! The paper's protocols assume agents can flip a constant number of fair
//! coins per interaction. In the *deterministic-transition* model this is
//! simulated from scheduler randomness: every agent carries one extra bit
//! that it flips at every interaction; when an agent needs a coin, it reads
//! its *partner's* bit. After a short burn-in the bits are nearly
//! independent, nearly unbiased coins — formally, within `O(2^{−Ω(k)})`
//! total-variation distance of uniform after `k` rounds.
//!
//! [`SyntheticCoin`] wraps any [`Protocol`] whose transition consumes at
//! most one coin per interaction, replacing RNG-driven coin flips with the
//! partner-bit extraction, making the composite protocol's transitions
//! deterministic (all randomness comes from the scheduler).

use pp_engine::protocol::Protocol;
use pp_engine::rng::SimRng;

/// A protocol whose single per-interaction coin is made explicit, so that
/// it can be driven either by the RNG or by a synthetic coin.
pub trait CoinProtocol {
    /// Number of states of the underlying protocol.
    fn num_states(&self) -> usize;

    /// Applies one interaction given the (single) coin value.
    fn interact_with_coin(&self, a: usize, b: usize, coin: bool) -> (usize, usize);

    /// Protocol name for reports.
    fn name(&self) -> &str {
        "coin-protocol"
    }
}

/// Wraps a [`CoinProtocol`], pairing every agent with a flip bit and
/// drawing the protocol's coin from the partner's bit — the synthetic-coin
/// construction. The resulting [`Protocol`] has **deterministic**
/// transitions.
///
/// State packing: `inner · 2 + bit`.
///
/// # Examples
///
/// ```
/// use pp_protocols::coin::{CoinProtocol, SyntheticCoin};
/// use pp_engine::Protocol;
///
/// struct Halver;
/// impl CoinProtocol for Halver {
///     fn num_states(&self) -> usize { 2 }
///     fn interact_with_coin(&self, a: usize, b: usize, coin: bool) -> (usize, usize) {
///         // A leader survives a duel only on heads.
///         if a == 1 && b == 1 && !coin { (1, 0) } else { (a, b) }
///     }
/// }
///
/// let wrapped = SyntheticCoin::new(Halver);
/// assert_eq!(wrapped.num_states(), 4);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SyntheticCoin<P> {
    inner: P,
}

impl<P: CoinProtocol> SyntheticCoin<P> {
    /// Wraps the protocol.
    #[must_use]
    pub fn new(inner: P) -> Self {
        Self { inner }
    }

    /// The wrapped protocol.
    #[must_use]
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Packs an inner state with a flip bit.
    #[must_use]
    pub fn pack(&self, inner: usize, bit: bool) -> usize {
        inner * 2 + usize::from(bit)
    }

    /// Unpacks into `(inner state, flip bit)`.
    #[must_use]
    pub fn unpack(&self, state: usize) -> (usize, bool) {
        (state / 2, state % 2 == 1)
    }

    /// The inner-state counts from a full count vector.
    #[must_use]
    pub fn inner_counts(&self, counts: &[u64]) -> Vec<u64> {
        let mut out = vec![0u64; self.inner.num_states()];
        for (s, &c) in counts.iter().enumerate() {
            out[s / 2] += c;
        }
        out
    }
}

impl<P: CoinProtocol> Protocol for SyntheticCoin<P> {
    fn num_states(&self) -> usize {
        self.inner.num_states() * 2
    }

    fn interact(&self, a: usize, b: usize, _rng: &mut SimRng) -> (usize, usize) {
        let (ia, bit_a) = self.unpack(a);
        let (ib, bit_b) = self.unpack(b);
        // The initiator's coin is the responder's current bit; both agents
        // flip their bits in every interaction.
        let (ia2, ib2) = self.inner.interact_with_coin(ia, ib, bit_b);
        (self.pack(ia2, !bit_a), self.pack(ib2, !bit_b))
    }

    fn state_label(&self, state: usize) -> String {
        let (inner, bit) = self.unpack(state);
        format!("(s{inner},{})", u8::from(bit))
    }

    fn name(&self) -> &str {
        "synthetic-coin"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_engine::counts::CountPopulation;
    use pp_engine::population::Population;
    use pp_engine::sim::{run_rounds, run_until, Simulator};

    /// A trivial inner protocol that records the observed coin in the
    /// initiator's state.
    struct Recorder;
    impl CoinProtocol for Recorder {
        fn num_states(&self) -> usize {
            3 // 0 = fresh, 1 = saw heads, 2 = saw tails
        }
        fn interact_with_coin(&self, _a: usize, b: usize, coin: bool) -> (usize, usize) {
            (if coin { 1 } else { 2 }, b)
        }
    }

    #[test]
    fn transitions_are_deterministic() {
        let p = SyntheticCoin::new(Recorder);
        let mut rng1 = SimRng::seed_from(1);
        let mut rng2 = SimRng::seed_from(999);
        for a in 0..p.num_states() {
            for b in 0..p.num_states() {
                assert_eq!(
                    p.interact(a, b, &mut rng1),
                    p.interact(a, b, &mut rng2),
                    "transition must not consume randomness"
                );
            }
        }
    }

    #[test]
    fn bits_flip_every_interaction() {
        let p = SyntheticCoin::new(Recorder);
        let mut rng = SimRng::seed_from(2);
        let a = p.pack(0, false);
        let b = p.pack(0, true);
        let (a2, b2) = p.interact(a, b, &mut rng);
        assert!(p.unpack(a2).1, "initiator bit flipped");
        assert!(!p.unpack(b2).1, "responder bit flipped");
    }

    #[test]
    fn extracted_coins_are_nearly_unbiased() {
        // Start everyone with bit = 0 (worst case); after a burn-in, the
        // coins observed by initiators should be close to fair.
        let p = SyntheticCoin::new(Recorder);
        let mut pop = Population::from_counts(&p, &[1000, 0, 0, 0, 0, 0]);
        let mut rng = SimRng::seed_from(3);
        run_rounds(&mut pop, 20.0, &mut rng);
        let heads: u64 = [1usize]
            .iter()
            .map(|&inner| pop.count(p.pack(inner, false)) + pop.count(p.pack(inner, true)))
            .sum();
        let tails: u64 = [2usize]
            .iter()
            .map(|&inner| pop.count(p.pack(inner, false)) + pop.count(p.pack(inner, true)))
            .sum();
        let total = heads + tails;
        let rate = heads as f64 / total as f64;
        assert!((rate - 0.5).abs() < 0.05, "head rate {rate}");
    }

    /// Leader duel driven by synthetic coins: survivor keeps leadership on
    /// heads, responder survives on tails. Exercises a real protocol using
    /// the wrapper.
    struct Duel;
    impl CoinProtocol for Duel {
        fn num_states(&self) -> usize {
            2
        }
        fn interact_with_coin(&self, a: usize, b: usize, coin: bool) -> (usize, usize) {
            if a == 1 && b == 1 {
                if coin {
                    (1, 0)
                } else {
                    (0, 1)
                }
            } else {
                (a, b)
            }
        }
    }

    #[test]
    fn duel_with_synthetic_coins_elects_leader() {
        let p = SyntheticCoin::new(Duel);
        let mut counts = vec![0u64; 4];
        counts[p.pack(1, false)] = 100;
        counts[p.pack(1, true)] = 100;
        let mut pop = CountPopulation::from_counts(&p, &counts);
        let mut rng = SimRng::seed_from(4);
        let leaders = |s: &CountPopulation<&SyntheticCoin<Duel>>| {
            s.count(s.protocol().pack(1, false)) + s.count(s.protocol().pack(1, true))
        };
        let t = run_until(&mut pop, &mut rng, 1e6, 16, |s| leaders(s) == 1);
        assert!(t.is_some(), "duel converges to one leader");
    }

    #[test]
    fn inner_counts_aggregates_bits() {
        let p = SyntheticCoin::new(Recorder);
        let mut counts = vec![0u64; 6];
        counts[p.pack(1, false)] = 3;
        counts[p.pack(1, true)] = 4;
        counts[p.pack(2, true)] = 5;
        assert_eq!(p.inner_counts(&counts), vec![0, 7, 5]);
    }
}
