//! The clock thread of the modulo-`m` phase clock (Section 5.2), shared by
//! [`crate::controlled::ControlledClock`] and
//! [`crate::hierarchy::ClockHierarchy`].
//!
//! Each agent composes three components:
//!
//! * an **oscillator** state (species + source, from [`crate::oscillator`]),
//! * a **detector** position `s ∈ {0, …, 3k−1}` arranged in three blocks of
//!   `k`: in block `i`, the agent waits to meet agents of species
//!   `(i+1) mod 3` in `k` consecutive clock-thread interactions. A meeting
//!   with a different species resets progress to the block start; completing
//!   the block confirms that species `(i+1)` has taken over and moves the
//!   agent to block `i+1` — a **tick**;
//! * a **phase counter** `c ∈ {0, …, m−1}` incremented on every tick,
//!   plus a **doubt counter** implementing fluke-robust consensus
//!   ([`doubt_consensus`]) that heals phase clusters left over from the
//!   chaotic startup; afterwards, ticks are synchronized by the globally
//!   visible species takeovers, keeping all agents within ±1 phase, w.h.p.
//!
//! Since the oscillator rotates species with period `Θ(log n)`, ticks are
//! `Θ(log n)` rounds apart, and a full phase cycle takes `Θ(m log n)`
//! rounds. Experiment E6 measures phase agreement and tick spacing.

use crate::oscillator::NUM_SPECIES;

/// Default doubt-gated consensus depth (empirically tuned: deep enough to
/// suppress fluke cascades, shallow enough to absorb tick waves quickly).
pub const DEFAULT_CONSENSUS_DEPTH: u8 = 3;

/// Outcome of a detector observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectorStep {
    /// New detector position.
    pub position: u8,
    /// Whether the observation completed a block (a clock tick).
    pub ticked: bool,
}

/// Pure detector transition: from position `s` (with confirmation depth
/// `k`), observing a partner of `species` (`None` = source agent, which is
/// ignored).
///
/// # Panics
///
/// Panics if `s ≥ 3k`.
#[must_use]
pub fn detector_observe(s: u8, k: u8, species: Option<usize>) -> DetectorStep {
    let s_us = s as usize;
    let k_us = k as usize;
    assert!(s_us < 3 * k_us, "detector position out of range");
    let block = s_us / k_us;
    let Some(sp) = species else {
        // Source agents carry no species information.
        return DetectorStep {
            position: s,
            ticked: false,
        };
    };
    let awaited = (block + 1) % NUM_SPECIES;
    if sp == awaited {
        let next = s_us + 1;
        if next.is_multiple_of(k_us) {
            // Completed the block: enter the next block (tick).
            DetectorStep {
                position: ((next / k_us) % NUM_SPECIES * k_us) as u8,
                ticked: true,
            }
        } else {
            DetectorStep {
                position: next as u8,
                ticked: false,
            }
        }
    } else {
        // Reset within-block progress.
        DetectorStep {
            position: (block * k_us) as u8,
            ticked: false,
        }
    }
}

/// Fluke-robust ("doubt-gated") phase consensus.
///
/// Phase disagreement has two benign shapes that must *not* trigger
/// adoption — agreement (`diff = 0`) and a partner lagging the current tick
/// wave by one (`diff = −1`) — and two shapes that must converge:
///
/// * a partner *ahead by one* (`diff = +1`): the ongoing tick wave; the
///   laggard should catch up;
/// * a partner *far away* (`|diff| ≥ 2` circularly): a stale cluster left
///   over from the chaotic startup (typically offset by a multiple of 3,
///   one whole oscillator rotation per offset unit). A pairwise rule cannot
///   tell which side is "correct", so adoption is majority-biased: the
///   minority cluster meets the majority far more often than vice versa.
///
/// Both converging shapes are gated by a shared doubt counter: the agent
/// adopts the partner's phase only after `depth` *consecutive* meetings in
/// a converging shape, and any agreeing or lagging meeting resets the
/// counter. This mirrors the paper's `k`-consecutive-meeting confirmation
/// idiom: isolated false ticks (a fraction `ε` of the population) propagate
/// with probability `O(ε^depth)`, while genuine tick waves and stale
/// clusters are absorbed within `O(depth)` meetings. Returns the new
/// `(phase, doubt)` pair.
#[must_use]
pub fn doubt_consensus(phase: u8, doubt: u8, partner_phase: u8, depth: u8, m: u8) -> (u8, u8) {
    let diff = (partner_phase as i32 - phase as i32).rem_euclid(m as i32);
    if diff == 0 || diff == m as i32 - 1 {
        // Agreement, or a partner lagging the tick wave by one: benign.
        (phase, 0)
    } else {
        let doubt = doubt + 1;
        if doubt >= depth {
            (partner_phase, 0)
        } else {
            (phase, doubt)
        }
    }
}

/// One clock level's per-agent state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClockLevel {
    /// Oscillator state (dense index into the oscillator protocol).
    pub osc: u8,
    /// Detector position in `0..3k`.
    pub det: u8,
    /// Phase counter in `0..m`.
    pub phase: u8,
    /// Doubt counter for phase consensus.
    pub doubt: u8,
}

/// The clock thread of a phase clock — detector observation, phase tick
/// and doubt-gated consensus — without integer division.
///
/// [`detector_observe`] and [`doubt_consensus`] are the specification.
/// The kernel reads the detector step from a `3k × 4` table built once
/// (one row per position, one column for a source partner and one per
/// species), advances the phase with a compare instead of `% m`, and
/// tests the two benign consensus shapes (agreement, partner one behind)
/// as `partner == phase` or `tick(partner) == phase` instead of a
/// `rem_euclid` difference.
///
/// # Examples
///
/// ```
/// use pp_clocks::phase_clock::{detector_observe, ClockKernel};
///
/// let kernel = ClockKernel::new(4, 12);
/// assert_eq!(kernel.observe(3, Some(1)), detector_observe(3, 4, Some(1)));
/// assert_eq!(kernel.tick(11), 0);
/// ```
#[derive(Debug, Clone)]
pub struct ClockKernel {
    /// `detector[4·s + c]`: the step from position `s` on observing class
    /// `c` (0 = source, `1 + i` = species `i`).
    detector: Box<[DetectorStep]>,
    m: u8,
    /// Depth of the doubt-gated phase consensus ([`doubt_consensus`]);
    /// 0 disables consensus entirely.
    ///
    /// Plain adopt-ahead consensus (depth 1) turns a *single* agent's false
    /// tick into a global phase cascade, while no consensus at all (depth
    /// 0) lets phase clusters formed during the chaotic startup persist
    /// forever. The doubt gate requires `depth` consecutive ahead-meetings
    /// before adopting, which suppresses fluke cascades yet still lets
    /// genuine tick waves and large stale clusters converge. Experiment E6
    /// ablates this parameter.
    consensus_depth: u8,
}

impl ClockKernel {
    /// The kernel for confirmation depth `k` and modulus `m`, with the
    /// default consensus depth [`DEFAULT_CONSENSUS_DEPTH`].
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `m == 0`, or `3k ≥ 256`.
    #[must_use]
    pub fn new(k: u8, m: u8) -> Self {
        assert!(k > 0, "confirmation depth must be positive");
        assert!(m > 0, "modulus must be positive");
        assert!(3 * (k as usize) < 256, "detector space must fit in u8");
        // Row s of block b awaits species (b + 1) mod 3: it advances on
        // that species (ticking into the next block at the block's end),
        // resets to the block start on another one, and ignores a source.
        let mut detector = Vec::with_capacity(12 * k as usize);
        for block in 0..3u8 {
            let start = block * k;
            let awaited = (block as usize + 1) % NUM_SPECIES;
            for s in start..start + k {
                detector.push(DetectorStep {
                    position: s,
                    ticked: false,
                });
                for species in 0..NUM_SPECIES {
                    detector.push(if species != awaited {
                        DetectorStep {
                            position: start,
                            ticked: false,
                        }
                    } else if s + 1 < start + k {
                        DetectorStep {
                            position: s + 1,
                            ticked: false,
                        }
                    } else {
                        DetectorStep {
                            position: awaited as u8 * k,
                            ticked: true,
                        }
                    });
                }
            }
        }
        let detector = detector.into_boxed_slice();
        Self {
            detector,
            m,
            consensus_depth: DEFAULT_CONSENSUS_DEPTH,
        }
    }

    /// Sets the doubt-gated consensus depth (0 disables consensus).
    #[must_use]
    pub fn with_consensus_depth(mut self, depth: u8) -> Self {
        self.consensus_depth = depth;
        self
    }

    /// Phase modulus `m`.
    #[must_use]
    pub fn modulus(&self) -> u8 {
        self.m
    }

    /// Doubt-gated consensus depth (0 = consensus off).
    #[must_use]
    pub fn consensus_depth(&self) -> u8 {
        self.consensus_depth
    }

    /// [`detector_observe`]`(s, k, species)`, read from the table.
    ///
    /// `species` must be below 3 (checked in debug builds).
    ///
    /// # Panics
    ///
    /// Panics if `s ≥ 3k`.
    #[inline]
    #[must_use]
    pub fn observe(&self, s: u8, species: Option<usize>) -> DetectorStep {
        let class = species.map_or(0, |sp| sp + 1);
        debug_assert!(class <= NUM_SPECIES, "species out of range");
        self.detector[4 * s as usize + class]
    }

    /// `(phase + 1) % m` for `phase < m`.
    #[inline]
    #[must_use]
    pub fn tick(&self, phase: u8) -> u8 {
        let next = phase + 1;
        if next == self.m {
            0
        } else {
            next
        }
    }

    /// [`doubt_consensus`]`(phase, doubt, partner, depth, m)` for phases
    /// below `m`.
    #[inline]
    #[must_use]
    pub fn consensus(&self, phase: u8, doubt: u8, partner: u8) -> (u8, u8) {
        if partner == phase || self.tick(partner) == phase {
            (phase, 0)
        } else {
            let doubt = doubt + 1;
            if doubt >= self.consensus_depth {
                (partner, 0)
            } else {
                (phase, doubt)
            }
        }
    }

    /// One clock-thread interaction: each agent's detector observes the
    /// partner's species (`sp_a` is `a`'s, `sp_b` is `b`'s), a completed
    /// block ticks its phase, then both run doubt-gated consensus against
    /// the partner's ticked phase (unless the depth is 0).
    #[inline]
    pub fn step(
        &self,
        a: &mut ClockLevel,
        b: &mut ClockLevel,
        sp_a: Option<usize>,
        sp_b: Option<usize>,
    ) {
        let step_a = self.observe(a.det, sp_b);
        let step_b = self.observe(b.det, sp_a);
        a.det = step_a.position;
        b.det = step_b.position;
        if step_a.ticked {
            a.phase = self.tick(a.phase);
        }
        if step_b.ticked {
            b.phase = self.tick(b.phase);
        }
        if self.consensus_depth > 0 {
            let (pa, da) = self.consensus(a.phase, a.doubt, b.phase);
            let (pb, db) = self.consensus(b.phase, b.doubt, a.phase);
            a.phase = pa;
            a.doubt = da;
            b.phase = pb;
            b.doubt = db;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detector_advances_on_awaited_species() {
        // Block 0 awaits species 1.
        let step = detector_observe(0, 4, Some(1));
        assert_eq!(step.position, 1);
        assert!(!step.ticked);
    }

    #[test]
    fn detector_resets_on_wrong_species() {
        let step = detector_observe(2, 4, Some(0));
        assert_eq!(step.position, 0);
        assert!(!step.ticked);
        // In block 1 (positions 4..8), awaiting species 2; seeing 1 resets to 4.
        let step = detector_observe(6, 4, Some(1));
        assert_eq!(step.position, 4);
    }

    #[test]
    fn detector_ignores_source_agents() {
        let step = detector_observe(3, 4, None);
        assert_eq!(step.position, 3);
        assert!(!step.ticked);
    }

    #[test]
    fn detector_ticks_on_block_completion() {
        // Position 3 with k=4 in block 0: one more species-1 meeting ticks.
        let step = detector_observe(3, 4, Some(1));
        assert!(step.ticked);
        assert_eq!(step.position, 4, "enters block 1");
        // Completing block 2 wraps to block 0.
        let step = detector_observe(11, 4, Some(0));
        assert!(step.ticked);
        assert_eq!(step.position, 0);
    }

    #[test]
    fn full_detector_cycle_produces_three_ticks() {
        let k = 3u8;
        let mut pos = 0u8;
        let mut ticks = 0;
        // Feed the detector the rotating dominant species long enough.
        for species in [1usize, 2, 0] {
            for _ in 0..k {
                let step = detector_observe(pos, k, Some(species));
                pos = step.position;
                if step.ticked {
                    ticks += 1;
                }
            }
        }
        assert_eq!(ticks, 3);
        assert_eq!(pos, 0, "back to block 0");
    }

    #[test]
    fn doubt_consensus_requires_consecutive_evidence() {
        let m = 12;
        let depth = 3;
        // Ahead-by-1 partners accumulate doubt, then adopt.
        let (p1, d1) = doubt_consensus(5, 0, 6, depth, m);
        assert_eq!((p1, d1), (5, 1));
        let (p2, d2) = doubt_consensus(p1, d1, 6, depth, m);
        assert_eq!((p2, d2), (5, 2));
        let (p3, d3) = doubt_consensus(p2, d2, 6, depth, m);
        assert_eq!((p3, d3), (6, 0), "adopts at depth");
    }

    #[test]
    fn doubt_consensus_resets_on_agreement_or_lag() {
        let m = 12;
        // Agreement resets.
        assert_eq!(doubt_consensus(5, 2, 5, 3, m), (5, 0));
        // Partner lagging by one (tick wave) resets, no adoption.
        assert_eq!(doubt_consensus(5, 2, 4, 3, m), (5, 0));
    }

    #[test]
    fn doubt_consensus_heals_far_clusters_in_both_directions() {
        let m = 12;
        // A stale agent 3 ahead of the majority (majority is "behind" it
        // circularly by 3, i.e. diff = 9): still converges to the majority.
        let (p, d) = doubt_consensus(5, 2, 2, 3, m);
        assert_eq!((p, d), (2, 0));
        // And an agent behind a far cluster adopts forward too.
        let (p, d) = doubt_consensus(2, 2, 5, 3, m);
        assert_eq!((p, d), (5, 0));
    }
}
