//! Self-organizing oscillators: the base dynamic underneath every phase
//! clock in the paper.
//!
//! The paper builds its clocks on the 7-state oscillator protocol `P_o` of
//! \[DK18\], a refinement of rock–paper–scissors (RPS) predator–prey dynamics
//! over three species `A₁, A₂, A₃` plus an optional *source* state `X`:
//!
//! * **predation** — species `i` converts encountered agents of species
//!   `i−1` (cyclically) to species `i`;
//! * **source** — an `X` agent converts any encountered species agent to a
//!   uniformly random species, preventing extinction and (re-)seeding the
//!   rotation.
//!
//! When `1 ≤ #X ≤ n^{1−ε}`, the dominant species rotates
//! `A₁ → A₂ → A₃ → A₁ …` with period `Θ(log n)` (Theorem 5.1). Two variants
//! are provided:
//!
//! * [`RpsOscillator`] — the plain 3-species + source dynamic (4 states).
//!   Its mean-field center is *neutrally* stable, so escape from the uniform
//!   configuration relies on diffusive noise and is slow.
//! * [`Dk18Oscillator`] — a 7-state variant in the spirit of \[DK18\], whose
//!   per-species charge mechanism (`A_i⁺` / `A_i⁺⁺`) makes effective
//!   predation *superlinear* in the predator's abundance, destabilizing the
//!   central fixed point so the system self-organizes into large
//!   oscillations in `O(log n)` rounds from any configuration. The exact
//!   \[DK18\] transition table is not reproduced in the paper; this
//!   reconstruction preserves the interface properties the paper uses
//!   (escape in `O(log n)`, rotation with period `Θ(log n)`), which
//!   experiment E5 validates empirically.
//!
//! Both implement [`Oscillator`], the interface consumed by the phase-clock
//! detector: a map from protocol state to species.

use pp_engine::protocol::Protocol;
use pp_engine::rng::SimRng;

/// Number of species in the rock–paper–scissors cycle.
pub const NUM_SPECIES: usize = 3;

/// Common interface of oscillator protocols: a dense protocol plus the
/// species/source structure of its states.
pub trait Oscillator: Protocol {
    /// The species (0, 1, or 2) an agent in `state` belongs to, or `None`
    /// for the source state `X`.
    fn species_of(&self, state: usize) -> Option<usize>;

    /// The source state `X`.
    fn x_state(&self) -> usize;

    /// A canonical state belonging to `species` (used for initialization).
    fn species_state(&self, species: usize) -> usize;

    /// Counts agents per species given a full count vector, returning
    /// `[#A₁, #A₂, #A₃]`.
    fn species_counts(&self, counts: &[u64]) -> [u64; NUM_SPECIES] {
        let mut out = [0u64; NUM_SPECIES];
        for (state, &c) in counts.iter().enumerate() {
            if let Some(s) = self.species_of(state) {
                out[s] += c;
            }
        }
        out
    }
}

/// The species that preys on `prey`: `prey + 1` cyclically.
#[must_use]
pub fn predator_of(prey: usize) -> usize {
    (prey + 1) % NUM_SPECIES
}

/// The species that `predator` preys on: `predator − 1` cyclically.
#[must_use]
pub fn prey_of(predator: usize) -> usize {
    (predator + NUM_SPECIES - 1) % NUM_SPECIES
}

/// Plain rock–paper–scissors oscillator with a source state.
///
/// States: `0 = X`, `1 + i = A_{i+1}` for `i ∈ {0, 1, 2}`.
///
/// # Examples
///
/// ```
/// use pp_clocks::oscillator::{Oscillator, RpsOscillator};
/// use pp_engine::Protocol;
///
/// let osc = RpsOscillator::new();
/// assert_eq!(osc.num_states(), 4);
/// assert_eq!(osc.species_of(osc.x_state()), None);
/// assert_eq!(osc.species_of(osc.species_state(2)), Some(2));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct RpsOscillator;

impl RpsOscillator {
    /// Creates the oscillator.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl Protocol for RpsOscillator {
    fn num_states(&self) -> usize {
        1 + NUM_SPECIES
    }

    fn interact(&self, a: usize, b: usize, rng: &mut SimRng) -> (usize, usize) {
        match (self.species_of(a), self.species_of(b)) {
            // Source converts the other agent to a uniform random species.
            (None, Some(_)) => (a, 1 + rng.index(NUM_SPECIES)),
            (Some(_), None) => (1 + rng.index(NUM_SPECIES), b),
            (Some(sa), Some(sb)) => {
                if sb == prey_of(sa) {
                    (a, 1 + sa)
                } else if sa == prey_of(sb) {
                    (1 + sb, b)
                } else {
                    (a, b)
                }
            }
            (None, None) => (a, b),
        }
    }

    fn outcome_table(&self, a: usize, b: usize) -> Option<Vec<((usize, usize), f64)>> {
        Some(match (self.species_of(a), self.species_of(b)) {
            (None, Some(_)) => {
                let p = 1.0 / NUM_SPECIES as f64;
                (0..NUM_SPECIES).map(|s| ((a, 1 + s), p)).collect()
            }
            (Some(_), None) => {
                let p = 1.0 / NUM_SPECIES as f64;
                (0..NUM_SPECIES).map(|s| ((1 + s, b), p)).collect()
            }
            (Some(sa), Some(sb)) => {
                if sb == prey_of(sa) {
                    vec![((a, 1 + sa), 1.0)]
                } else if sa == prey_of(sb) {
                    vec![((1 + sb, b), 1.0)]
                } else {
                    vec![((a, b), 1.0)]
                }
            }
            (None, None) => vec![((a, b), 1.0)],
        })
    }

    fn name(&self) -> &str {
        "rps-oscillator"
    }
}

impl Oscillator for RpsOscillator {
    fn species_of(&self, state: usize) -> Option<usize> {
        if state == 0 {
            None
        } else {
            Some(state - 1)
        }
    }

    fn x_state(&self) -> usize {
        0
    }

    fn species_state(&self, species: usize) -> usize {
        assert!(species < NUM_SPECIES);
        1 + species
    }
}

/// DK18-style 7-state oscillator with a charge mechanism.
///
/// States: `0 = X`; `1 + 2·i + c` for species `i ∈ {0,1,2}` and charge
/// `c ∈ {0 = lo (A⁺), 1 = hi (A⁺⁺)}`.
///
/// Rules (symmetrized over the ordered pair):
///
/// * `X + A_j^* → X + A_r^lo` for `r` uniform — source reseeding;
/// * `A_i^lo + A_i^lo → A_i^hi + A_i^lo` — charging within a species
///   (effective rate ∝ fraction², the superlinearity that destabilizes the
///   center);
/// * `A_i^hi + A_{i−1}^* → A_i^lo + A_i^lo` — a charged predator converts
///   prey, spending its charge;
/// * `A_i^lo + A_{i−1}^* → A_i^lo + A_i^lo` with probability
///   [`WEAK_PREDATION`] — residual predation keeping the dynamic close to
///   plain RPS.
#[derive(Debug, Clone, Copy, Default)]
pub struct Dk18Oscillator;

/// Probability that an uncharged [`Dk18Oscillator`] predator still
/// converts prey.
pub const WEAK_PREDATION: f64 = 0.25;

impl Dk18Oscillator {
    /// Creates the oscillator.
    #[must_use]
    pub fn new() -> Self {
        Self
    }

    fn charge_of(state: usize) -> bool {
        debug_assert!(state >= 1);
        (state - 1) % 2 == 1
    }

    fn make_state(species: usize, hi: bool) -> usize {
        1 + 2 * species + usize::from(hi)
    }
}

impl Protocol for Dk18Oscillator {
    fn num_states(&self) -> usize {
        1 + 2 * NUM_SPECIES
    }

    fn interact(&self, a: usize, b: usize, rng: &mut SimRng) -> (usize, usize) {
        match (self.species_of(a), self.species_of(b)) {
            (None, None) => (a, b),
            (None, Some(_)) => (a, Self::make_state(rng.index(NUM_SPECIES), false)),
            (Some(_), None) => (Self::make_state(rng.index(NUM_SPECIES), false), b),
            (Some(sa), Some(sb)) => {
                if sa == sb {
                    // Charging: lo + lo → hi + lo.
                    if !Self::charge_of(a) && !Self::charge_of(b) {
                        (Self::make_state(sa, true), b)
                    } else {
                        (a, b)
                    }
                } else if sb == prey_of(sa) {
                    self.predate(a, b, sa, rng, true)
                } else if sa == prey_of(sb) {
                    self.predate(b, a, sb, rng, false)
                } else {
                    (a, b)
                }
            }
        }
    }

    fn outcome_table(&self, a: usize, b: usize) -> Option<Vec<((usize, usize), f64)>> {
        Some(match (self.species_of(a), self.species_of(b)) {
            (None, None) => vec![((a, b), 1.0)],
            (None, Some(_)) => {
                let p = 1.0 / NUM_SPECIES as f64;
                (0..NUM_SPECIES)
                    .map(|s| ((a, Self::make_state(s, false)), p))
                    .collect()
            }
            (Some(_), None) => {
                let p = 1.0 / NUM_SPECIES as f64;
                (0..NUM_SPECIES)
                    .map(|s| ((Self::make_state(s, false), b), p))
                    .collect()
            }
            (Some(sa), Some(sb)) => {
                if sa == sb {
                    if !Self::charge_of(a) && !Self::charge_of(b) {
                        vec![((Self::make_state(sa, true), b), 1.0)]
                    } else {
                        vec![((a, b), 1.0)]
                    }
                } else if sb == prey_of(sa) {
                    self.predation_outcomes(a, b, sa, true)
                } else if sa == prey_of(sb) {
                    self.predation_outcomes(b, a, sb, false)
                } else {
                    vec![((a, b), 1.0)]
                }
            }
        })
    }

    fn name(&self) -> &str {
        "dk18-oscillator"
    }
}

impl Dk18Oscillator {
    /// Resolves predation of `pred_state` (species `pred_species`) on
    /// `prey_state`. `pred_first` says whether the predator was the
    /// initiator, to put results back in order.
    fn predate(
        &self,
        pred_state: usize,
        prey_state: usize,
        pred_species: usize,
        rng: &mut SimRng,
        pred_first: bool,
    ) -> (usize, usize) {
        let charged = Self::charge_of(pred_state);
        let converts = charged || rng.chance(WEAK_PREDATION);
        if !converts {
            return if pred_first {
                (pred_state, prey_state)
            } else {
                (prey_state, pred_state)
            };
        }
        let new_pred = Self::make_state(pred_species, false);
        let new_prey = Self::make_state(pred_species, false);
        if pred_first {
            (new_pred, new_prey)
        } else {
            (new_prey, new_pred)
        }
    }

    fn predation_outcomes(
        &self,
        pred_state: usize,
        prey_state: usize,
        pred_species: usize,
        pred_first: bool,
    ) -> Vec<((usize, usize), f64)> {
        let charged = Self::charge_of(pred_state);
        let p_convert = if charged { 1.0 } else { WEAK_PREDATION };
        let new_pred = Self::make_state(pred_species, false);
        let converted = (new_pred, new_pred);
        let unchanged = if pred_first {
            (pred_state, prey_state)
        } else {
            (prey_state, pred_state)
        };
        let mut out = Vec::new();
        if p_convert > 0.0 {
            out.push((converted, p_convert));
        }
        if p_convert < 1.0 {
            out.push((unchanged, 1.0 - p_convert));
        }
        out
    }
}

impl Oscillator for Dk18Oscillator {
    fn species_of(&self, state: usize) -> Option<usize> {
        if state == 0 {
            None
        } else {
            Some((state - 1) / 2)
        }
    }

    fn x_state(&self) -> usize {
        0
    }

    fn species_state(&self, species: usize) -> usize {
        assert!(species < NUM_SPECIES);
        Self::make_state(species, false)
    }
}

/// Builds an initial count vector with `x` source agents and the remaining
/// `n − x` agents split as evenly as possible across the three species
/// (the "central region" configuration).
///
/// # Panics
///
/// Panics if `x > n`.
#[must_use]
pub fn central_init<O: Oscillator>(osc: &O, n: u64, x: u64) -> Vec<u64> {
    assert!(x <= n);
    let mut counts = vec![0u64; osc.num_states()];
    counts[osc.x_state()] = x;
    let rest = n - x;
    for s in 0..NUM_SPECIES {
        counts[osc.species_state(s)] = rest / 3 + u64::from((rest % 3) as usize > s);
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_engine::counts::CountPopulation;
    use pp_engine::sim::Simulator;

    #[test]
    fn cyclic_predation_structure() {
        assert_eq!(predator_of(0), 1);
        assert_eq!(predator_of(2), 0);
        assert_eq!(prey_of(0), 2);
        assert_eq!(prey_of(predator_of(1)), 1);
    }

    #[test]
    fn rps_predation_converts_prey() {
        let osc = RpsOscillator::new();
        let mut rng = SimRng::seed_from(1);
        // A2 (state 2, species 1) preys on A1 (state 1, species 0).
        let (a2, b2) = osc.interact(2, 1, &mut rng);
        assert_eq!((a2, b2), (2, 2));
        // Reverse order as well.
        let (a2, b2) = osc.interact(1, 2, &mut rng);
        assert_eq!((a2, b2), (2, 2));
    }

    #[test]
    fn rps_non_adjacent_species_ignore() {
        let osc = RpsOscillator::new();
        let mut rng = SimRng::seed_from(2);
        // A1 (species 0) vs A1: no predation.
        assert_eq!(osc.interact(1, 1, &mut rng), (1, 1));
        assert_eq!(osc.outcome_table(1, 1), Some(vec![((1, 1), 1.0)]));
    }

    #[test]
    fn rps_source_reseeds_uniformly() {
        let osc = RpsOscillator::new();
        let mut rng = SimRng::seed_from(3);
        let mut hits = [0u32; NUM_SPECIES];
        for _ in 0..30_000 {
            let (_, b) = osc.interact(0, 1, &mut rng);
            hits[osc.species_of(b).unwrap()] += 1;
        }
        for &h in &hits {
            let rate = h as f64 / 30_000.0;
            assert!((rate - 1.0 / 3.0).abs() < 0.02, "rate {rate}");
        }
    }

    #[test]
    fn rps_outcomes_match_interact() {
        let osc = RpsOscillator::new();
        for a in 0..4 {
            for b in 0..4 {
                let outs = osc.outcome_table(a, b).unwrap();
                let total: f64 = outs.iter().map(|&(_, p)| p).sum();
                assert!((total - 1.0).abs() < 1e-12, "({a},{b})");
            }
        }
    }

    #[test]
    fn dk18_state_packing_roundtrip() {
        let osc = Dk18Oscillator::new();
        assert_eq!(osc.num_states(), 7);
        for s in 1..7 {
            let species = osc.species_of(s).unwrap();
            assert!(species < 3);
        }
        assert_eq!(osc.species_of(0), None);
        for sp in 0..3 {
            assert_eq!(osc.species_of(osc.species_state(sp)), Some(sp));
        }
    }

    #[test]
    fn dk18_charging_within_species() {
        let osc = Dk18Oscillator::new();
        let mut rng = SimRng::seed_from(4);
        let lo = Dk18Oscillator::make_state(0, false);
        let hi = Dk18Oscillator::make_state(0, true);
        assert_eq!(osc.interact(lo, lo, &mut rng), (hi, lo));
        assert_eq!(osc.interact(hi, lo, &mut rng), (hi, lo), "already charged");
    }

    #[test]
    fn dk18_charged_predation_always_converts() {
        let osc = Dk18Oscillator::new();
        let mut rng = SimRng::seed_from(5);
        let pred_hi = Dk18Oscillator::make_state(1, true);
        let prey = Dk18Oscillator::make_state(0, false);
        let pred_lo = Dk18Oscillator::make_state(1, false);
        assert_eq!(osc.interact(pred_hi, prey, &mut rng), (pred_lo, pred_lo));
        assert_eq!(osc.interact(prey, pred_hi, &mut rng), (pred_lo, pred_lo));
    }

    #[test]
    fn dk18_weak_predation_rate() {
        let osc = Dk18Oscillator::new();
        let mut rng = SimRng::seed_from(6);
        let pred_lo = Dk18Oscillator::make_state(1, false);
        let prey = Dk18Oscillator::make_state(0, false);
        let converted = (0..40_000)
            .filter(|_| osc.interact(pred_lo, prey, &mut rng).1 != prey)
            .count();
        let rate = converted as f64 / 40_000.0;
        assert!((rate - WEAK_PREDATION).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn dk18_outcomes_sum_to_one() {
        let osc = Dk18Oscillator::new();
        for a in 0..7 {
            for b in 0..7 {
                let outs = osc.outcome_table(a, b).unwrap();
                let total: f64 = outs.iter().map(|&(_, p)| p).sum();
                assert!((total - 1.0).abs() < 1e-12, "({a},{b}) -> {outs:?}");
            }
        }
    }

    #[test]
    fn central_init_preserves_population() {
        let osc = Dk18Oscillator::new();
        let c = central_init(&osc, 1000, 5);
        assert_eq!(c.iter().sum::<u64>(), 1000);
        assert_eq!(c[osc.x_state()], 5);
    }

    #[test]
    fn species_counts_aggregates_charges() {
        let osc = Dk18Oscillator::new();
        let mut counts = vec![0u64; 7];
        counts[Dk18Oscillator::make_state(1, false)] = 3;
        counts[Dk18Oscillator::make_state(1, true)] = 4;
        counts[0] = 2;
        assert_eq!(osc.species_counts(&counts), [0, 7, 0]);
    }

    #[test]
    fn source_keeps_every_species_alive() {
        // With a source present, no species can stay extinct long.
        let osc = Dk18Oscillator::new();
        let mut init = vec![0u64; osc.num_states()];
        init[osc.x_state()] = 2;
        init[osc.species_state(0)] = 498;
        let mut pop = CountPopulation::from_counts(&osc, &init);
        let mut rng = SimRng::seed_from(7);
        let mut seen = [false; NUM_SPECIES];
        for _ in 0..500 * 60 {
            pop.step(&mut rng);
            let sc = osc.species_counts(&pop.counts());
            for (s, &c) in sc.iter().enumerate() {
                if c > 0 {
                    seen[s] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "all species appear: {seen:?}");
    }
}
