//! The hierarchy of phase clocks with logarithmically separated rates
//! (Section 5.3).
//!
//! Clock `C⁽⁰⁾` is the base [`crate::controlled::ControlledClock`] dynamic,
//! ticking every `Θ(log n)` rounds. Each higher clock `C⁽ʲ⁺¹⁾` is *a copy of
//! the same clock protocol*, but executed under a slowed scheduler emulated
//! by clock `C⁽ʲ⁾`:
//!
//! 1. when two agents meet while both their level-`j` phases equal the same
//!    value `≡ 0 (mod 4)` and both carry an armed trigger `S`, they simulate
//!    **one** interaction of the level-`j+1` protocol on their *current*
//!    copies, store the results in their *new* copies, and disarm `S`;
//! 2. when two agents meet while both their level-`j` phases equal the same
//!    value `≡ 2 (mod 4)`, each commits its new copy to current and rearms
//!    `S`.
//!
//! Because every agent performs at most one level-`j+1` interaction per
//! gating window and windows recur every 4 ticks of `C⁽ʲ⁾`, the level-`j+1`
//! protocol advances like a random-matching scheduler at a rate of `Θ(1)`
//! activation per `Θ(log n)` rounds of the level below — the required
//! `Θ(log n)` slowdown per level, giving tick rate `r⁽ʲ⁾ = Θ((α log n)^{j+1})`
//! rounds. The same control set `X` (from the shared [`XControl`] process)
//! drives the oscillator at *every* level.
//!
//! The composite per-agent state is structured (oscillator × detector ×
//! phase × doubt per level, plus current/new copies and triggers), so this
//! protocol uses the structured-state backend
//! ([`pp_engine::obj::ObjPopulation`]) rather than a dense index space.

use crate::junta::XControl;
use crate::oscillator::{Oscillator, NUM_SPECIES};
use crate::phase_clock::ClockKernel;
pub use crate::phase_clock::ClockLevel;
use pp_engine::obj::ObjProtocol;
use pp_engine::rng::SimRng;

/// Maximum number of clock levels supported (fixed so agent states stay
/// `Copy` and allocation-free).
pub const MAX_LEVELS: usize = 4;

/// Per-agent state of the full hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierAgent {
    /// Control-process state (shared across levels).
    pub ctrl: u16,
    /// Current copies of each level's clock state.
    pub cur: [ClockLevel; MAX_LEVELS],
    /// New (pending) copies for levels ≥ 1.
    pub pending: [ClockLevel; MAX_LEVELS],
    /// Trigger bits `S` per level ≥ 1 (bit `j` = level `j` armed).
    pub trig: u8,
}

impl HierAgent {
    /// Whether level `j`'s trigger is armed.
    #[must_use]
    pub fn armed(&self, level: usize) -> bool {
        self.trig & (1 << level) != 0
    }

    fn set_armed(&mut self, level: usize, value: bool) {
        if value {
            self.trig |= 1 << level;
        } else {
            self.trig &= !(1 << level);
        }
    }
}

/// The clock-hierarchy protocol.
///
/// # Examples
///
/// ```
/// use pp_clocks::hierarchy::ClockHierarchy;
/// use pp_clocks::junta::PairwiseElimination;
/// use pp_clocks::oscillator::Dk18Oscillator;
/// use pp_engine::obj::ObjPopulation;
/// use pp_engine::rng::SimRng;
///
/// let hier = ClockHierarchy::new(Dk18Oscillator::new(), PairwiseElimination::new(), 2, 6, 12);
/// let mut pop = ObjPopulation::from_fn(&hier, 64, |_| hier.initial_agent());
/// let mut rng = SimRng::seed_from(0);
/// pop.run_rounds(5.0, &mut rng);
/// ```
#[derive(Debug, Clone)]
pub struct ClockHierarchy<O, C> {
    oscillator: O,
    control: C,
    levels: usize,
    /// Detector, phase tick and consensus of every level's clock thread.
    kernel: ClockKernel,
    /// Oscillator tempo divisor: oscillator rules execute with probability
    /// `1/tempo`, stretching the base period (and hence every leaf window
    /// of a compiled program) by ≈ `tempo`. This realizes the paper's
    /// "large constant α depending on the sequential code": programs whose
    /// per-leaf work needs more rounds per window compile with a larger
    /// tempo.
    tempo: u8,
}

impl<O: Oscillator, C: XControl> ClockHierarchy<O, C> {
    /// Creates a hierarchy of `levels` clocks with detector depth `k` and
    /// phase modulus `m`.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is 0 or exceeds [`MAX_LEVELS`], if `k` or `m` is
    /// 0, if `m` is not divisible by 4 (required by the gating scheme), or
    /// if the oscillator has more than 255 states.
    #[must_use]
    pub fn new(oscillator: O, control: C, levels: usize, k: u8, m: u8) -> Self {
        assert!((1..=MAX_LEVELS).contains(&levels), "levels out of range");
        assert!(k > 0 && m > 0, "k and m must be positive");
        assert!(m.is_multiple_of(4), "the gating scheme requires 4 | m");
        assert!(oscillator.num_states() <= u8::MAX as usize);
        assert!(control.num_states() <= u16::MAX as usize);
        Self {
            oscillator,
            control,
            levels,
            kernel: ClockKernel::new(k, m),
            tempo: 1,
        }
    }

    /// Sets the oscillator tempo divisor (≥ 1; see the field docs).
    ///
    /// # Panics
    ///
    /// Panics if `tempo == 0`.
    #[must_use]
    pub fn with_tempo(mut self, tempo: u8) -> Self {
        assert!(tempo >= 1);
        self.tempo = tempo;
        self
    }

    /// The oscillator tempo divisor.
    #[must_use]
    pub fn tempo(&self) -> u8 {
        self.tempo
    }

    /// Sets the doubt-gated consensus depth (0 disables).
    #[must_use]
    pub fn with_consensus_depth(mut self, depth: u8) -> Self {
        self.kernel = self.kernel.with_consensus_depth(depth);
        self
    }

    /// Number of clock levels.
    #[must_use]
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Phase modulus `m`.
    #[must_use]
    pub fn modulus(&self) -> u8 {
        self.kernel.modulus()
    }

    /// The control component.
    #[must_use]
    pub fn control(&self) -> &C {
        &self.control
    }

    /// The oscillator component.
    #[must_use]
    pub fn oscillator(&self) -> &O {
        &self.oscillator
    }

    /// The all-agents initial state: control initial, all levels at
    /// detector 0 / phase 0 with species consistent with the `X` flag, all
    /// triggers armed, pending copies equal to current.
    #[must_use]
    pub fn initial_agent(&self) -> HierAgent {
        let ctrl = self.control.initial_state() as u16;
        let osc = if self.control.is_x(ctrl as usize) {
            self.oscillator.x_state() as u8
        } else {
            self.oscillator.species_state(0) as u8
        };
        let level = ClockLevel {
            osc,
            det: 0,
            phase: 0,
            doubt: 0,
        };
        HierAgent {
            ctrl,
            cur: [level; MAX_LEVELS],
            pending: [level; MAX_LEVELS],
            trig: u8::MAX,
        }
    }

    /// Whether an agent is currently in the control set `X`.
    #[must_use]
    pub fn is_x(&self, agent: &HierAgent) -> bool {
        self.control.is_x(agent.ctrl as usize)
    }

    /// The phase of `agent`'s level-`level` clock.
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    #[must_use]
    pub fn phase(&self, agent: &HierAgent, level: usize) -> u8 {
        assert!(level < self.levels);
        agent.cur[level].phase
    }

    /// One oscillator interaction on a level's pair of states. `X` agents
    /// stay pinned to the source state whatever the rule returns (their
    /// component *is* the source state by invariant).
    fn oscillator_step(
        &self,
        a: &mut ClockLevel,
        b: &mut ClockLevel,
        a_is_x: bool,
        b_is_x: bool,
        rng: &mut SimRng,
    ) {
        let (oa, ob) = self
            .oscillator
            .interact(a.osc as usize, b.osc as usize, rng);
        let x = self.oscillator.x_state() as u8;
        a.osc = if a_is_x { x } else { oa as u8 };
        b.osc = if b_is_x { x } else { ob as u8 };
    }

    /// One detector-plus-consensus interaction on a level's pair of states.
    fn clock_step(&self, a: &mut ClockLevel, b: &mut ClockLevel) {
        let sp_a = self.oscillator.species_of(a.osc as usize);
        let sp_b = self.oscillator.species_of(b.osc as usize);
        self.kernel.step(a, b, sp_a, sp_b);
    }

    /// One interaction of a gated level's clock protocol (inner thread
    /// choice: oscillator 1/2 behind the tempo gate, detector+consensus
    /// 1/2).
    fn clock_interact(
        &self,
        mut a: ClockLevel,
        mut b: ClockLevel,
        a_is_x: bool,
        b_is_x: bool,
        rng: &mut SimRng,
    ) -> (ClockLevel, ClockLevel) {
        if rng.chance(0.5) {
            if self.tempo > 1 && rng.index(self.tempo as usize) != 0 {
                return (a, b);
            }
            self.oscillator_step(&mut a, &mut b, a_is_x, b_is_x, rng);
        } else {
            self.clock_step(&mut a, &mut b);
        }
        (a, b)
    }

    /// Total weight of the base threads that can act, in units of
    /// `1/(6·tempo)` of an interaction: control `tempo` (share 1/6),
    /// level-0 oscillator past its tempo gate 2 (share 1/3 · 1/tempo),
    /// level-0 clock `3·tempo` (share 1/2). The remaining `2·tempo − 2`
    /// units are the oscillator's tempo rejections, which leave the pair
    /// unchanged.
    #[must_use]
    pub fn active_weight(&self) -> u64 {
        4 * u64::from(self.tempo) + 2
    }

    /// The interaction for base-thread draw `u < active_weight()` (control
    /// for `u < tempo`, the level-0 oscillator for the next 2, the level-0
    /// clock for the rest), followed by the gated levels' rules.
    /// [`ObjProtocol::interact`] is this with `u` uniform below
    /// `6·tempo`, draws of `active_weight()` or more leaving the pair
    /// unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `u ≥ active_weight()`.
    #[must_use]
    pub fn interact_drawn(
        &self,
        a: &HierAgent,
        b: &HierAgent,
        u: u64,
        rng: &mut SimRng,
    ) -> (HierAgent, HierAgent) {
        assert!(u < self.active_weight(), "base-thread draw out of range");
        let mut a = *a;
        let mut b = *b;
        let tempo = u64::from(self.tempo);
        if u < tempo {
            let (ca, cb) = self.control.interact(a.ctrl as usize, b.ctrl as usize, rng);
            let was_xa = self.control.is_x(a.ctrl as usize);
            let was_xb = self.control.is_x(b.ctrl as usize);
            a.ctrl = ca as u16;
            b.ctrl = cb as u16;
            self.reconcile(&mut a, was_xa, rng);
            self.reconcile(&mut b, was_xb, rng);
        } else if u < tempo + 2 {
            let (a_is_x, b_is_x) = (self.is_x(&a), self.is_x(&b));
            self.oscillator_step(&mut a.cur[0], &mut b.cur[0], a_is_x, b_is_x, rng);
        } else {
            self.clock_step(&mut a.cur[0], &mut b.cur[0]);
        }

        // Hierarchy rules, composed on top: level j is gated by the phases
        // of level j−1.
        let a_is_x = self.is_x(&a);
        let b_is_x = self.is_x(&b);
        for j in 1..self.levels {
            let pa = a.cur[j - 1].phase;
            let pb = b.cur[j - 1].phase;
            if pa != pb {
                continue;
            }
            if pa.is_multiple_of(4) && a.armed(j) && b.armed(j) {
                // Rule 1: simulate one inner interaction on current copies,
                // store into pending, disarm.
                let (na, nb) = self.clock_interact(a.cur[j], b.cur[j], a_is_x, b_is_x, rng);
                a.pending[j] = na;
                b.pending[j] = nb;
                a.set_armed(j, false);
                b.set_armed(j, false);
            } else if pa % 4 == 2 {
                // Rule 2: commit pending to current, rearm.
                if !a.armed(j) {
                    a.cur[j] = a.pending[j];
                    a.set_armed(j, true);
                }
                if !b.armed(j) {
                    b.cur[j] = b.pending[j];
                    b.set_armed(j, true);
                }
            }
        }
        (a, b)
    }

    /// Resamples every level's oscillator component after a control
    /// transition changed the agent's `X` membership.
    fn reconcile(&self, agent: &mut HierAgent, was_x: bool, rng: &mut SimRng) {
        let is_x = self.control.is_x(agent.ctrl as usize);
        if was_x == is_x {
            return;
        }
        for j in 0..self.levels {
            let osc = if is_x {
                self.oscillator.x_state() as u8
            } else {
                self.oscillator.species_state(rng.index(NUM_SPECIES)) as u8
            };
            agent.cur[j].osc = osc;
            agent.pending[j].osc = osc;
        }
    }
}

/// The base threads run with shares control 1/6, level-0 oscillator 1/3
/// (then its tempo gate passes with probability `1/tempo`) and level-0
/// clock 1/2, drawn as one `u` below `6·tempo` ([`ClockHierarchy::interact_drawn`]).
/// The oscillator's tempo rejections, a share `idle = ⅓·(1 − 1/tempo)`,
/// leave every pair unchanged, which is what lets
/// [`pp_engine::obj::ObjPopulation`] skip them.
impl<O: Oscillator, C: XControl> ObjProtocol for ClockHierarchy<O, C> {
    type State = HierAgent;

    fn interact(&self, a: &HierAgent, b: &HierAgent, rng: &mut SimRng) -> (HierAgent, HierAgent) {
        let u = rng.below(6 * u64::from(self.tempo));
        if u < self.active_weight() {
            self.interact_drawn(a, b, u, rng)
        } else {
            (*a, *b)
        }
    }

    fn idle(&self) -> f64 {
        let t = f64::from(self.tempo);
        (t - 1.0) / (3.0 * t)
    }

    fn interact_active(
        &self,
        a: &HierAgent,
        b: &HierAgent,
        rng: &mut SimRng,
    ) -> (HierAgent, HierAgent) {
        let u = rng.below(self.active_weight());
        self.interact_drawn(a, b, u, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controlled::FixedX;
    use crate::junta::PairwiseElimination;
    use crate::oscillator::Dk18Oscillator;
    use pp_engine::obj::ObjPopulation;

    fn hier(levels: usize) -> ClockHierarchy<Dk18Oscillator, PairwiseElimination> {
        ClockHierarchy::new(
            Dk18Oscillator::new(),
            PairwiseElimination::new(),
            levels,
            6,
            12,
        )
    }

    #[test]
    fn initial_agent_is_consistent() {
        let h = hier(3);
        let a = h.initial_agent();
        assert!(h.is_x(&a));
        assert_eq!(a.cur[0].osc as usize, h.oscillator().x_state());
        assert!(a.armed(1) && a.armed(2));
        assert!((0..3).all(|level| h.phase(&a, level) == 0));
    }

    #[test]
    #[should_panic(expected = "4 | m")]
    fn modulus_must_be_divisible_by_four() {
        let _ = ClockHierarchy::new(Dk18Oscillator::new(), PairwiseElimination::new(), 2, 6, 10);
    }

    #[test]
    fn x_invariant_holds_across_levels() {
        let h = hier(2);
        let mut pop = ObjPopulation::from_fn(&h, 64, |_| h.initial_agent());
        let mut rng = SimRng::seed_from(1);
        pop.run_rounds(50.0, &mut rng);
        for agent in pop.iter() {
            let is_x = h.is_x(agent);
            for j in 0..2 {
                assert_eq!(
                    agent.cur[j].osc as usize == h.oscillator().x_state(),
                    is_x,
                    "level {j} source invariant"
                );
            }
        }
    }

    #[test]
    fn x_count_shrinks_but_stays_positive() {
        let h = hier(2);
        let mut pop = ObjPopulation::from_fn(&h, 128, |_| h.initial_agent());
        let mut rng = SimRng::seed_from(2);
        pop.run_rounds(200.0, &mut rng);
        let x = pop.count_where(|a| h.is_x(a));
        assert!(x >= 1);
        assert!(x < 40, "#X should have shrunk, got {x}");
    }

    #[test]
    fn gating_requires_matching_phases() {
        let h = hier(2);
        let mut rng = SimRng::seed_from(3);
        let mut a = h.initial_agent();
        let mut b = h.initial_agent();
        // Different level-0 phases: level-1 state must never change.
        a.cur[0].phase = 1;
        b.cur[0].phase = 2;
        let before_a = a.cur[1];
        for _ in 0..100 {
            let (na, nb) = h.interact(&a, &b, &mut rng);
            assert_eq!(na.cur[1], before_a, "gated level must not advance");
            // Keep phases pinned for the test (base threads may tick them).
            a = na;
            b = nb;
            a.cur[0].phase = 1;
            b.cur[0].phase = 2;
        }
    }

    #[test]
    fn trigger_disarms_after_inner_interaction_and_rearms_on_commit() {
        let h = hier(2);
        let mut rng = SimRng::seed_from(4);
        let mut a = h.initial_agent();
        let mut b = h.initial_agent();
        a.cur[0].phase = 0;
        b.cur[0].phase = 0;
        // Interact until the gating branch fires (phases stay 0 unless a
        // tick happens, which cannot happen from the all-X start).
        let mut fired = false;
        for _ in 0..200 {
            let (na, nb) = h.interact(&a, &b, &mut rng);
            a = na;
            b = nb;
            if !a.armed(1) {
                fired = true;
                break;
            }
        }
        assert!(fired, "rule 1 fires when both at phase 0 and armed");
        // Now move both to a commit phase.
        a.cur[0].phase = 2;
        b.cur[0].phase = 2;
        let mut committed = false;
        for _ in 0..200 {
            let (na, nb) = h.interact(&a, &b, &mut rng);
            a = na;
            b = nb;
            a.cur[0].phase = 2;
            b.cur[0].phase = 2;
            if a.armed(1) {
                committed = true;
                break;
            }
        }
        assert!(committed, "rule 2 rearms the trigger");
    }

    #[test]
    fn tempo_slows_tick_rate() {
        // Measure majority-phase changes over a fixed horizon with tempo 1
        // vs tempo 4: the slowed clock must tick substantially less often.
        let ticks_with_tempo = |tempo: u8| -> usize {
            let h =
                ClockHierarchy::new(Dk18Oscillator::new(), PairwiseElimination::new(), 1, 6, 12)
                    .with_tempo(tempo);
            let n = 400usize;
            let mut pop = ObjPopulation::from_fn(&h, n, |_| h.initial_agent());
            let mut rng = SimRng::seed_from(42);
            let mut last = None;
            let mut ticks = 0;
            while pop.time() < 800.0 {
                pop.run_rounds(5.0, &mut rng);
                let mut hist = [0u64; 12];
                for a in pop.iter() {
                    hist[a.cur[0].phase as usize] += 1;
                }
                let maj = (0..12).max_by_key(|&p| hist[p]).unwrap() as u8;
                if last != Some(maj) {
                    ticks += 1;
                    last = Some(maj);
                }
            }
            ticks
        };
        let fast = ticks_with_tempo(1);
        let slow = ticks_with_tempo(4);
        assert!(
            slow * 2 < fast,
            "tempo 4 should at least halve the tick count: fast={fast} slow={slow}"
        );
    }

    #[test]
    fn hierarchy_composes_with_klevel_decay() {
        use crate::junta::KLevelDecay;
        let h = ClockHierarchy::new(Dk18Oscillator::new(), KLevelDecay::new(2), 1, 6, 12);
        let mut pop = ObjPopulation::from_fn(&h, 256, |_| h.initial_agent());
        let mut rng = SimRng::seed_from(7);
        pop.run_rounds(100.0, &mut rng);
        // The k-level signal decays fast; X eventually vanishes entirely,
        // which the hierarchy must tolerate (clocks freeze, no panic).
        let x = pop.count_where(|a| h.is_x(a));
        assert!(x < 128, "k-level decay thinned X: {x}");
        // Invariant: species state consistent with X membership everywhere.
        for agent in pop.iter() {
            assert_eq!(
                agent.cur[0].osc as usize == h.oscillator().x_state(),
                h.is_x(agent)
            );
        }
    }

    #[test]
    fn hierarchy_composes_with_gs_junta() {
        use crate::junta::GsJunta;
        let h = ClockHierarchy::new(
            Dk18Oscillator::new(),
            GsJunta::new(GsJunta::cap_for(256)),
            1,
            6,
            12,
        );
        let mut pop = ObjPopulation::from_fn(&h, 256, |_| h.initial_agent());
        let mut rng = SimRng::seed_from(8);
        pop.run_rounds(300.0, &mut rng);
        let x = pop.count_where(|a| h.is_x(a));
        assert!(x >= 1, "junta never empties");
        assert!(x < 128, "junta thinned X: {x}");
    }

    #[test]
    fn single_level_hierarchy_matches_controlled_clock_shape() {
        // Smoke test: with 1 level, the hierarchy is just the base clock.
        let h = hier(1);
        let mut pop = ObjPopulation::from_fn(&h, 64, |_| h.initial_agent());
        let mut rng = SimRng::seed_from(5);
        pop.run_rounds(100.0, &mut rng);
        // Phases stay in range.
        for agent in pop.iter() {
            assert!(agent.cur[0].phase < 12);
            assert!(agent.cur[0].det < 18);
        }
        let _ = FixedX::new();
    }
}
