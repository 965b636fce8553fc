//! The self-contained phase clock: an [`XControl`] process composed under
//! the oscillator, detector, and phase counter.
//!
//! The paper *derives* membership of `X` from a control process
//! (Propositions 5.3–5.5) running as a separate thread, rather than fixing
//! `#X` in the initial configuration: an agent acts as an oscillator
//! source exactly while the control process keeps its `X` flag set. When an
//! agent leaves `X` it re-enters the oscillator as a uniformly random
//! species; when (never, for the provided processes) it joins `X`, its
//! species state is replaced by the source state.
//!
//! This composite realizes the paper's startup story: all agents begin in
//! `X`, the control process thins `#X` into `[1, n^{1−ε}]` (or
//! polylogarithmically close to 0 for the w.h.p. variant), and the clock
//! self-organizes and starts ticking.

use crate::junta::XControl;
use crate::oscillator::{Oscillator, NUM_SPECIES};
use crate::phase_clock::{ClockKernel, ClockLevel};
use pp_engine::protocol::Protocol;
use pp_engine::rng::SimRng;

/// A fixed (non-dynamic) control process: agents are in `X` iff initialized
/// there. Used to pin `#X` in controlled experiments.
#[derive(Debug, Clone, Copy, Default)]
pub struct FixedX;

impl FixedX {
    /// Creates the trivial control process.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl Protocol for FixedX {
    fn num_states(&self) -> usize {
        2
    }

    fn interact(&self, a: usize, b: usize, _rng: &mut SimRng) -> (usize, usize) {
        (a, b)
    }

    fn name(&self) -> &str {
        "fixed-x"
    }
}

impl XControl for FixedX {
    fn is_x(&self, state: usize) -> bool {
        state == 1
    }

    fn initial_state(&self) -> usize {
        1
    }
}

/// A phase clock whose source membership is driven by a control process.
///
/// State packing:
/// `ctrl + ctrl_states · (osc + osc_states · (det + 3k · (phase + m · doubt)))`.
///
/// Invariant: the oscillator component is the source state iff the control
/// component is in `X`. The composition maintains this by resampling the
/// species of an agent whose control state leaves `X` (and forcing the
/// source state on entry).
#[derive(Debug, Clone)]
pub struct ControlledClock<O, C> {
    oscillator: O,
    control: C,
    k: u8,
    m: u8,
    /// The clock thread, with the doubt-gated consensus depth
    /// ([`ClockKernel`]; 0 disables consensus).
    kernel: ClockKernel,
    osc_states: usize,
    ctrl_states: usize,
}

impl<O: Oscillator, C: XControl> ControlledClock<O, C> {
    /// Creates the composite clock with confirmation depth `k` and phase
    /// modulus `m`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `m == 0`, or `3k ≥ 256`.
    #[must_use]
    pub fn new(oscillator: O, control: C, k: u8, m: u8) -> Self {
        let kernel = ClockKernel::new(k, m);
        let osc_states = oscillator.num_states();
        let ctrl_states = control.num_states();
        Self {
            oscillator,
            control,
            k,
            m,
            kernel,
            osc_states,
            ctrl_states,
        }
    }

    /// Sets the doubt-gated consensus depth (0 disables; default
    /// [`crate::phase_clock::DEFAULT_CONSENSUS_DEPTH`]).
    #[must_use]
    pub fn with_consensus_depth(mut self, depth: u8) -> Self {
        self.kernel = self.kernel.with_consensus_depth(depth);
        self
    }

    /// The doubt dimension size (at least 1 even when consensus is off).
    fn doubt_states(&self) -> usize {
        (self.kernel.consensus_depth() as usize).max(1)
    }

    /// The oscillator component.
    #[must_use]
    pub fn oscillator(&self) -> &O {
        &self.oscillator
    }

    /// The control component.
    #[must_use]
    pub fn control(&self) -> &C {
        &self.control
    }

    /// Phase modulus `m`.
    #[must_use]
    pub fn modulus(&self) -> u8 {
        self.m
    }

    /// Packs components into a dense state.
    #[must_use]
    pub fn pack(&self, ctrl: usize, osc: usize, det: u8, phase: u8, doubt: u8) -> usize {
        debug_assert!(ctrl < self.ctrl_states && osc < self.osc_states);
        debug_assert!((doubt as usize) < self.doubt_states());
        ctrl + self.ctrl_states
            * (osc
                + self.osc_states
                    * (det as usize
                        + 3 * self.k as usize
                            * (phase as usize + self.m as usize * doubt as usize)))
    }

    /// Unpacks a dense state into `(ctrl, osc, det, phase, doubt)`.
    #[must_use]
    pub fn unpack(&self, state: usize) -> (usize, usize, u8, u8, u8) {
        let ctrl = state % self.ctrl_states;
        let rest = state / self.ctrl_states;
        let osc = rest % self.osc_states;
        let rest = rest / self.osc_states;
        let det = (rest % (3 * self.k as usize)) as u8;
        let rest = rest / (3 * self.k as usize);
        let phase = (rest % self.m as usize) as u8;
        let doubt = (rest / self.m as usize) as u8;
        (ctrl, osc, det, phase, doubt)
    }

    /// The phase of a packed state.
    #[must_use]
    pub fn phase_of(&self, state: usize) -> u8 {
        self.unpack(state).3
    }

    /// The all-agents initial state: control at its initial state, species
    /// consistent with the control's `X` flag (species 0 if not in `X`).
    #[must_use]
    pub fn initial_state(&self) -> usize {
        let ctrl = self.control.initial_state();
        let osc = if self.control.is_x(ctrl) {
            self.oscillator.x_state()
        } else {
            self.oscillator.species_state(0)
        };
        self.pack(ctrl, osc, 0, 0, 0)
    }

    /// Initial count vector: all `n` agents at [`Self::initial_state`].
    #[must_use]
    pub fn initial_counts(&self, n: u64) -> Vec<u64> {
        let mut counts = vec![0u64; self.num_states()];
        counts[self.initial_state()] = n;
        counts
    }

    /// Current `#X` from occupied `(state, count)` pairs.
    #[must_use]
    pub fn count_x(&self, occupied: &[(usize, u64)]) -> u64 {
        occupied
            .iter()
            .filter(|&&(s, _)| self.control.is_x(self.unpack(s).0))
            .map(|&(_, c)| c)
            .sum()
    }

    /// Histogram of phases from occupied `(state, count)` pairs.
    #[must_use]
    pub fn phase_histogram(&self, occupied: &[(usize, u64)]) -> Vec<u64> {
        let mut hist = vec![0u64; self.m as usize];
        for &(state, c) in occupied {
            hist[self.phase_of(state) as usize] += c;
        }
        hist
    }

    /// Majority phase and its population share, from occupied
    /// `(state, count)` pairs.
    #[must_use]
    pub fn majority_phase(&self, occupied: &[(usize, u64)]) -> (u8, f64) {
        let hist = self.phase_histogram(occupied);
        let total: u64 = hist.iter().sum();
        let (phase, &max) = hist
            .iter()
            .enumerate()
            .max_by_key(|&(_, c)| *c)
            .expect("non-empty");
        (phase as u8, max as f64 / total.max(1) as f64)
    }

    /// Species counts (from the oscillator components), from occupied
    /// `(state, count)` pairs.
    #[must_use]
    pub fn species_counts(&self, occupied: &[(usize, u64)]) -> [u64; NUM_SPECIES] {
        let mut out = [0u64; NUM_SPECIES];
        for &(state, c) in occupied {
            if let Some(sp) = self.oscillator.species_of(self.unpack(state).1) {
                out[sp] += c;
            }
        }
        out
    }

    /// Restores the `X`-flag/species invariant after a control transition.
    fn reconcile(
        &self,
        ctrl_before: usize,
        ctrl_after: usize,
        osc: usize,
        rng: &mut SimRng,
    ) -> usize {
        let was_x = self.control.is_x(ctrl_before);
        let is_x = self.control.is_x(ctrl_after);
        match (was_x, is_x) {
            (true, false) => self.oscillator.species_state(rng.index(NUM_SPECIES)),
            (false, true) => self.oscillator.x_state(),
            _ => osc,
        }
    }
}

impl<O: Oscillator, C: XControl> Protocol for ControlledClock<O, C> {
    fn num_states(&self) -> usize {
        self.ctrl_states
            * self.osc_states
            * 3
            * self.k as usize
            * self.m as usize
            * self.doubt_states()
    }

    fn interact(&self, a: usize, b: usize, rng: &mut SimRng) -> (usize, usize) {
        let (ctrl_a, osc_a, det_a, ph_a, db_a) = self.unpack(a);
        let (ctrl_b, osc_b, det_b, ph_b, db_b) = self.unpack(b);
        // Thread shares: control 1/6, oscillator 1/3, clock 1/2. The clock
        // thread gets the largest share because detector confirmation
        // streaks need many observations per oscillator plateau; the
        // control process only needs a trickle of activations.
        match rng.index(6) {
            0 => {
                // Control thread.
                let (ca2, cb2) = self.control.interact(ctrl_a, ctrl_b, rng);
                let osc_a2 = self.reconcile(ctrl_a, ca2, osc_a, rng);
                let osc_b2 = self.reconcile(ctrl_b, cb2, osc_b, rng);
                (
                    self.pack(ca2, osc_a2, det_a, ph_a, db_a),
                    self.pack(cb2, osc_b2, det_b, ph_b, db_b),
                )
            }
            1 | 2 => {
                // Oscillator thread.
                let (osc_a2, osc_b2) = self.oscillator.interact(osc_a, osc_b, rng);
                (
                    self.pack(ctrl_a, osc_a2, det_a, ph_a, db_a),
                    self.pack(ctrl_b, osc_b2, det_b, ph_b, db_b),
                )
            }
            _ => {
                // Clock thread: detector observation + doubt-gated consensus.
                let mut la = ClockLevel {
                    osc: 0,
                    det: det_a,
                    phase: ph_a,
                    doubt: db_a,
                };
                let mut lb = ClockLevel {
                    det: det_b,
                    phase: ph_b,
                    doubt: db_b,
                    ..la
                };
                self.kernel.step(
                    &mut la,
                    &mut lb,
                    self.oscillator.species_of(osc_a),
                    self.oscillator.species_of(osc_b),
                );
                (
                    self.pack(ctrl_a, osc_a, la.det, la.phase, la.doubt),
                    self.pack(ctrl_b, osc_b, lb.det, lb.phase, lb.doubt),
                )
            }
        }
    }

    fn name(&self) -> &str {
        "controlled-clock"
    }
}

/// Builds a mixed initial count vector for a [`ControlledClock`] over
/// [`FixedX`]: `x` agents pinned in the source state and `n − x` agents
/// spread evenly over the three species, all at detector 0 / phase 0.
///
/// # Panics
///
/// Panics if `x > n`.
#[must_use]
pub fn fixed_x_init<O: Oscillator>(clock: &ControlledClock<O, FixedX>, n: u64, x: u64) -> Vec<u64> {
    assert!(x <= n);
    let mut counts = vec![0u64; clock.num_states()];
    let osc = clock.oscillator();
    counts[clock.pack(1, osc.x_state(), 0, 0, 0)] = x;
    let rest = n - x;
    for s in 0..NUM_SPECIES {
        let share = rest / 3 + u64::from((rest % 3) as usize > s);
        counts[clock.pack(0, osc.species_state(s), 0, 0, 0)] += share;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::junta::PairwiseElimination;
    use crate::oscillator::Dk18Oscillator;
    use pp_engine::counts::SparseCountPopulation;
    use pp_engine::sim::Simulator;

    fn clock() -> ControlledClock<Dk18Oscillator, PairwiseElimination> {
        ControlledClock::new(Dk18Oscillator::new(), PairwiseElimination::new(), 4, 12)
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let c = clock();
        for state in (0..c.num_states()).step_by(7) {
            let (ctrl, osc, det, ph, db) = c.unpack(state);
            assert_eq!(c.pack(ctrl, osc, det, ph, db), state);
        }
    }

    #[test]
    fn initial_state_is_x_with_source_species() {
        let c = clock();
        let (ctrl, osc, det, ph, db) = c.unpack(c.initial_state());
        assert!(c.control().is_x(ctrl));
        assert_eq!(osc, c.oscillator().x_state());
        assert_eq!((det, ph, db), (0, 0, 0));
    }

    #[test]
    fn invariant_x_flag_matches_source_state() {
        let c = clock();
        let mut pop = SparseCountPopulation::from_dense(&c, &c.initial_counts(128));
        let mut rng = SimRng::seed_from(1);
        for _ in 0..128 * 100 {
            pop.step(&mut rng);
        }
        for &(state, _) in pop.occupied() {
            let (ctrl, osc, _, _, _) = c.unpack(state);
            assert_eq!(
                c.control().is_x(ctrl),
                osc == c.oscillator().x_state(),
                "invariant broken in state {state}"
            );
        }
    }

    #[test]
    fn x_count_shrinks_but_stays_positive() {
        let c = clock();
        let mut pop = SparseCountPopulation::from_dense(&c, &c.initial_counts(256));
        let mut rng = SimRng::seed_from(2);
        for _ in 0..256 * 300 {
            pop.step(&mut rng);
        }
        let x = c.count_x(pop.occupied());
        assert!(x >= 1);
        assert!(x < 64, "#X should have shrunk, got {x}");
    }

    #[test]
    fn fixed_x_init_layout() {
        let c = ControlledClock::new(Dk18Oscillator::new(), FixedX::new(), 4, 12);
        let counts = fixed_x_init(&c, 100, 7);
        assert_eq!(counts.iter().sum::<u64>(), 100);
        let pop = SparseCountPopulation::from_dense(&c, &counts);
        assert_eq!(c.count_x(pop.occupied()), 7);
        let sc = c.species_counts(pop.occupied());
        assert_eq!(sc.iter().sum::<u64>(), 93);
        assert!(sc.iter().all(|&s| s == 31) || sc.contains(&31));
    }

    #[test]
    fn fixed_x_membership_is_static() {
        let c = ControlledClock::new(Dk18Oscillator::new(), FixedX::new(), 4, 12);
        let mut pop = SparseCountPopulation::from_dense(&c, &fixed_x_init(&c, 200, 5));
        let mut rng = SimRng::seed_from(3);
        for _ in 0..200 * 50 {
            pop.step(&mut rng);
        }
        assert_eq!(c.count_x(pop.occupied()), 5);
    }

    #[test]
    fn phase_histogram_sums_to_population() {
        let c = clock();
        let mut pop = SparseCountPopulation::from_dense(&c, &c.initial_counts(64));
        let mut rng = SimRng::seed_from(4);
        for _ in 0..64 * 20 {
            pop.step(&mut rng);
        }
        let hist = c.phase_histogram(pop.occupied());
        assert_eq!(hist.iter().sum::<u64>(), 64);
    }
}
