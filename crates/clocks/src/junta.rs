//! Control of the source-state count `#X` (Section 5.2, "Controlling |X|").
//!
//! The oscillator (and hence the whole clock stack) operates correctly when
//! `1 ≤ #X ≤ n^{1−ε}`. The paper provides three processes to establish that
//! regime from the all-`X` initial configuration:
//!
//! * [`PairwiseElimination`] (Proposition 5.3) — the rule
//!   `▷ (X) + (X) → (X) + (¬X)`. `#X` is non-increasing, never reaches 0,
//!   and drops below `n^{1−ε}` within `O(n^ε)` rounds. Used by the
//!   *always-correct* protocol family.
//! * [`KLevelDecay`] (Proposition 5.5) — a `k`-level ladder process whose
//!   signal decays as `|X| ≈ n·exp(−t^{1/(k+1)})`, reaching `n^{1−ε}` within
//!   `O(log^{k+1} n)` rounds but eventually hitting `#X = 0`. Used by the
//!   *w.h.p.* protocol family, which completes before the signal dies.
//! * [`GsJunta`] (Proposition 5.4, after Gąsieniec & Stachowiak) — junta
//!   election with `O(log log n)` states reaching `#X ≤ n^{1−ε}` in
//!   `O(log n)` rounds while keeping `#X ≥ 1`. Implemented as the standard
//!   level-tournament process; included as the comparison point.
//!
//! All three implement [`XControl`], the interface by which
//! [`crate::controlled::ControlledClock`] composes them under the clock.

use pp_engine::protocol::Protocol;
use pp_engine::rng::SimRng;

/// A protocol that additionally designates which of its states carry the
/// control flag `X`.
pub trait XControl: Protocol {
    /// Whether agents in `state` are members of the control set `X`.
    fn is_x(&self, state: usize) -> bool;

    /// The initial state for all agents at protocol start.
    fn initial_state(&self) -> usize;

    /// Total `#X` given a state-count vector.
    fn count_x(&self, counts: &[u64]) -> u64 {
        counts
            .iter()
            .enumerate()
            .filter(|&(s, _)| self.is_x(s))
            .map(|(_, &c)| c)
            .sum()
    }
}

/// Proposition 5.3: `▷ (X) + (X) → (X) + (¬X)`.
///
/// States: `0 = ¬X`, `1 = X`. Monotone, guarantees `#X ≥ 1` forever.
#[derive(Debug, Clone, Copy, Default)]
pub struct PairwiseElimination;

impl PairwiseElimination {
    /// Creates the protocol.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl Protocol for PairwiseElimination {
    fn num_states(&self) -> usize {
        2
    }

    fn interact(&self, a: usize, b: usize, _rng: &mut SimRng) -> (usize, usize) {
        if a == 1 && b == 1 {
            (1, 0)
        } else {
            (a, b)
        }
    }

    fn is_reactive(&self, a: usize, b: usize) -> bool {
        a == 1 && b == 1
    }

    fn name(&self) -> &str {
        "pairwise-elimination"
    }
}

impl XControl for PairwiseElimination {
    fn is_x(&self, state: usize) -> bool {
        state == 1
    }

    fn initial_state(&self) -> usize {
        1
    }
}

/// Proposition 5.5: the `k`-level decay process.
///
/// Every agent carries two ladders:
///
/// * a `Z`-ladder with positions `0..=k`; meeting a `Z`-agent climbs one
///   rung, meeting a `¬Z`-agent resets to rung 0, and climbing past rung
///   `k` clears `Z`. Losing `Z` thus requires `k+1` consecutive `Z`
///   meetings, so `d|Z|/dt ≈ −|Z|·(|Z|/n)^{k+1}`, i.e.
///   `|Z| = Θ(n·t^{−1/(k+1)})`;
/// * an `X`-ladder with positions `0..k`, climbed on `Z` meetings the same
///   way; climbing past rung `k−1` clears `X` (permanently). This yields
///   `d|X|/dt ≈ −|X|·(|Z|/n)^k`, solving to `|X| ≈ n·exp(−c·t^{1/(k+1)})` —
///   a signal that stays positive for polylogarithmic time and then dies.
///
/// State packing: `z · (k + 1) + x` where `z ∈ 0..=(k+1)` encodes `¬Z` (0)
/// or `Z` at rung `z−1`, and `x ∈ 0..=k` encodes `¬X` (0) or `X` at rung
/// `x−1`.
#[derive(Debug, Clone, Copy)]
pub struct KLevelDecay {
    k: u8,
}

impl KLevelDecay {
    /// Creates the process with ladder parameter `k ≥ 1`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn new(k: u8) -> Self {
        assert!(k >= 1, "k must be at least 1");
        Self { k }
    }

    /// The ladder parameter.
    #[must_use]
    pub fn k(&self) -> u8 {
        self.k
    }

    fn z_states(&self) -> usize {
        self.k as usize + 2
    }

    fn x_states(&self) -> usize {
        self.k as usize + 1
    }

    /// Packs `(z, x)` sub-states.
    #[must_use]
    pub fn pack(&self, z: usize, x: usize) -> usize {
        debug_assert!(z < self.z_states() && x < self.x_states());
        z * self.x_states() + x
    }

    /// Unpacks into `(z, x)` sub-states.
    #[must_use]
    pub fn unpack(&self, state: usize) -> (usize, usize) {
        (state / self.x_states(), state % self.x_states())
    }

    /// Whether agents in `state` hold the auxiliary signal `Z`.
    #[must_use]
    pub fn has_z(&self, state: usize) -> bool {
        self.unpack(state).0 > 0
    }
}

impl Protocol for KLevelDecay {
    fn num_states(&self) -> usize {
        self.z_states() * self.x_states()
    }

    fn interact(&self, a: usize, b: usize, _rng: &mut SimRng) -> (usize, usize) {
        let (za, xa) = self.unpack(a);
        let responder_has_z = self.has_z(b);
        let k = self.k as usize;
        let (za2, xa2) = if responder_has_z {
            // Climb both ladders (if the respective flag is held).
            let za2 = match za {
                0 => 0,
                z if z == k + 1 => 0, // top rung: lose Z
                z => z + 1,
            };
            let xa2 = match xa {
                0 => 0,
                x if x == k => 0, // top rung: lose X
                x => x + 1,
            };
            (za2, xa2)
        } else {
            // Reset ladder progress (keep the flags themselves).
            let za2 = if za > 0 { 1 } else { 0 };
            let xa2 = if xa > 0 { 1 } else { 0 };
            (za2, xa2)
        };
        (self.pack(za2, xa2), b)
    }

    fn is_reactive(&self, a: usize, b: usize) -> bool {
        self.interact_deterministic(a, b) != a
    }

    /// The transition is deterministic: one outcome per pair.
    fn outcome_table(&self, a: usize, b: usize) -> Option<Vec<((usize, usize), f64)>> {
        Some(vec![((self.interact_deterministic(a, b), b), 1.0)])
    }

    fn name(&self) -> &str {
        "k-level-decay"
    }
}

impl KLevelDecay {
    /// The (deterministic) initiator successor — used for reactivity.
    fn interact_deterministic(&self, a: usize, b: usize) -> usize {
        let mut rng = SimRng::seed_from(0); // transition is RNG-free
        self.interact(a, b, &mut rng).0
    }
}

impl XControl for KLevelDecay {
    fn is_x(&self, state: usize) -> bool {
        self.unpack(state).1 > 0
    }

    fn initial_state(&self) -> usize {
        // Z held at rung 0, X held at rung 0.
        self.pack(1, 1)
    }
}

/// Proposition 5.4 (after \[GS18\]): level-race junta election with a level
/// cap `L = Θ(log log n)`.
///
/// Every agent carries `(level, settled, max_seen)`:
///
/// * meeting an agent of *strictly higher* level settles an agent forever
///   (it keeps its level but stops advancing);
/// * when two *unsettled* agents of equal level `ℓ < L` meet, both advance
///   to `ℓ+1`;
/// * `max_seen` spreads by epidemic max over observed levels.
///
/// The race between advancing (requires meeting an equal before a superior)
/// and settling thins each level quadratically — `n_{ℓ+1} ≈ n_ℓ²/n` — so
/// after `Θ(log log n)` levels only `n^{1−ε}` agents remain unsurpassed.
/// The control set is `X = {level ≥ max_seen}`: initially the whole
/// population, eventually exactly the agents at the globally maximal level;
/// `#X ≥ 1` always holds.
///
/// State packing: `(level · 2 + settled) · (L+1) + max_seen`.
#[derive(Debug, Clone, Copy)]
pub struct GsJunta {
    cap: u8,
}

impl GsJunta {
    /// Creates the process with level cap `cap ≥ 1`.
    ///
    /// For a population of size `n`, `cap = ⌈log₂ log₂ n⌉ + 2` matches the
    /// `O(log log n)` state bound of \[GS18\].
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    #[must_use]
    pub fn new(cap: u8) -> Self {
        assert!(cap >= 1);
        Self { cap }
    }

    /// The recommended cap for population size `n`.
    #[must_use]
    pub fn cap_for(n: u64) -> u8 {
        let loglog = (n.max(4) as f64).log2().log2().ceil() as u8;
        loglog + 2
    }

    /// The level cap.
    #[must_use]
    pub fn cap(&self) -> u8 {
        self.cap
    }

    fn width(&self) -> usize {
        self.cap as usize + 1
    }

    /// Packs `(level, settled, max_seen)`.
    #[must_use]
    pub fn pack(&self, level: usize, settled: bool, max_seen: usize) -> usize {
        debug_assert!(level < self.width() && max_seen < self.width());
        (level * 2 + usize::from(settled)) * self.width() + max_seen
    }

    /// Unpacks into `(level, settled, max_seen)`.
    #[must_use]
    pub fn unpack(&self, state: usize) -> (usize, bool, usize) {
        let max_seen = state % self.width();
        let rest = state / self.width();
        (rest / 2, rest % 2 == 1, max_seen)
    }
}

impl Protocol for GsJunta {
    fn num_states(&self) -> usize {
        self.width() * 2 * self.width()
    }

    fn interact(&self, a: usize, b: usize, _rng: &mut SimRng) -> (usize, usize) {
        let (mut la, mut sa, ma) = self.unpack(a);
        let (mut lb, mut sb, mb) = self.unpack(b);
        if la < lb {
            sa = true;
        } else if lb < la {
            sb = true;
        } else if !sa && !sb && la < self.cap as usize {
            la += 1;
            lb += 1;
        }
        let max = la.max(lb).max(ma).max(mb);
        (self.pack(la, sa, max), self.pack(lb, sb, max))
    }

    fn name(&self) -> &str {
        "gs-junta"
    }
}

impl XControl for GsJunta {
    fn is_x(&self, state: usize) -> bool {
        let (l, _, m) = self.unpack(state);
        l >= m
    }

    fn initial_state(&self) -> usize {
        self.pack(0, false, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_engine::counts::CountPopulation;
    use pp_engine::sim::{run_until, Simulator};

    #[test]
    fn pairwise_elimination_preserves_at_least_one_x() {
        let p = PairwiseElimination::new();
        let mut pop = CountPopulation::from_counts(p, &[0, 256]);
        let mut rng = SimRng::seed_from(1);
        for _ in 0..256 * 200 {
            pop.step(&mut rng);
            assert!(pop.count(1) >= 1, "#X must never reach 0");
        }
        assert!(pop.count(1) < 256, "#X must shrink");
    }

    #[test]
    fn pairwise_elimination_reaches_sublinear_x() {
        // T = O(n^ε): for ε = 0.5 and n = 1024, #X < 32 within ~O(32) rounds.
        let p = PairwiseElimination::new();
        let mut pop = CountPopulation::from_counts(p, &[0, 1024]);
        let mut rng = SimRng::seed_from(2);
        let t = run_until(&mut pop, &mut rng, 10_000.0, 16, |s| s.count(1) < 32)
            .expect("reaches n^{1/2}");
        assert!(t < 500.0, "took {t} rounds");
    }

    #[test]
    fn klevel_packing_roundtrip() {
        let p = KLevelDecay::new(3);
        for s in 0..p.num_states() {
            let (z, x) = p.unpack(s);
            assert_eq!(p.pack(z, x), s);
        }
    }

    #[test]
    fn klevel_ladder_climbs_and_resets() {
        let p = KLevelDecay::new(2);
        let mut rng = SimRng::seed_from(3);
        let start = p.initial_state(); // (Z rung 0, X rung 0)
        let z_agent = p.initial_state();
        let nz_agent = p.pack(0, 0);
        // Climb on Z meeting.
        let (s1, _) = p.interact(start, z_agent, &mut rng);
        assert_eq!(p.unpack(s1), (2, 2));
        // Reset on ¬Z meeting.
        let (s2, _) = p.interact(s1, nz_agent, &mut rng);
        assert_eq!(p.unpack(s2), (1, 1));
    }

    #[test]
    fn klevel_loses_flags_at_ladder_top() {
        let p = KLevelDecay::new(2);
        let mut rng = SimRng::seed_from(4);
        let z_agent = p.initial_state();
        // X-ladder has rungs 0..=1 for k=2: from rung 1 (x=2), climbing clears X.
        let near_top = p.pack(3, 2);
        let (s, _) = p.interact(near_top, z_agent, &mut rng);
        let (z, x) = p.unpack(s);
        assert_eq!(z, 0, "Z cleared past top rung");
        assert_eq!(x, 0, "X cleared past top rung");
    }

    #[test]
    fn klevel_x_decays_but_outlives_polylog_window() {
        let p = KLevelDecay::new(2);
        let n = 4096u64;
        let mut counts = vec![0u64; p.num_states()];
        counts[p.initial_state()] = n;
        let mut pop = CountPopulation::from_counts(p, &counts);
        let mut rng = SimRng::seed_from(5);
        // After a polylog time, #X should have decayed below n^{3/4} but
        // remain positive.
        let target = (n as f64).powf(0.75) as u64;
        let t = run_until(&mut pop, &mut rng, 50_000.0, 64, |s| {
            p.count_x(&s.counts()) < target
        })
        .expect("X decays below n^{3/4}");
        assert!(t > 1.0, "decay is not instant: {t}");
        assert!(
            p.count_x(&pop.counts()) > 0,
            "X still alive right after crossing the threshold"
        );
    }

    #[test]
    fn gs_junta_levels_advance_and_settle() {
        let p = GsJunta::new(3);
        let mut rng = SimRng::seed_from(6);
        // Two unsettled equals advance together.
        let (a2, b2) = p.interact(p.pack(2, false, 2), p.pack(2, false, 2), &mut rng);
        assert_eq!(p.unpack(a2), (3, false, 3));
        assert_eq!(p.unpack(b2), (3, false, 3));
        // Meeting a superior settles the lower agent.
        let (a3, b3) = p.interact(p.pack(1, false, 1), p.pack(2, false, 2), &mut rng);
        assert_eq!(p.unpack(a3), (1, true, 2));
        assert_eq!(p.unpack(b3), (2, false, 2));
        // Settled agents never advance.
        let (a4, _) = p.interact(p.pack(1, true, 2), p.pack(1, false, 2), &mut rng);
        assert_eq!(p.unpack(a4), (1, true, 2));
        // At the cap, no further advance.
        let (a5, _) = p.interact(p.pack(3, false, 3), p.pack(3, false, 3), &mut rng);
        assert_eq!(p.unpack(a5).0, 3);
    }

    #[test]
    fn gs_junta_elects_small_nonempty_junta() {
        let n = 2048u64;
        let p = GsJunta::new(GsJunta::cap_for(n));
        let mut counts = vec![0u64; p.num_states()];
        counts[p.initial_state()] = n;
        let mut pop = CountPopulation::from_counts(p, &counts);
        let mut rng = SimRng::seed_from(7);
        // Junta election runs for O(log n) rounds; give it plenty.
        for _ in 0..(n as usize) * 200 {
            pop.step(&mut rng);
        }
        let x = p.count_x(&pop.counts());
        assert!(x >= 1, "junta must be non-empty");
        assert!(x < n / 4, "junta must be small, got {x}");
    }

    #[test]
    fn cap_for_is_loglog_sized() {
        assert!(GsJunta::cap_for(1u64 << 16) <= 7);
        assert!(GsJunta::cap_for(1u64 << 32) <= 8);
        assert!(GsJunta::cap_for(4) >= 2);
    }

    #[test]
    fn count_x_counts_only_x_states() {
        let p = PairwiseElimination::new();
        assert_eq!(p.count_x(&[5, 3]), 3);
    }
}
