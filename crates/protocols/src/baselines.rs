//! Literature baselines for the comparison experiment (E9): the prior
//! protocols the paper's introduction positions itself against.
//!
//! | Protocol | States | Expected time | Caveat |
//! |---|---|---|---|
//! | [`ApproxMajority`] \[AAE08a\] | 3 | `O(log n)` | needs gap `Ω(√(n log n))` |
//! | [`FourStateMajority`] [DV12, MNRS14] | 4 | `O(n log n)` (worse for small gaps) | exact but slow |
//! | [`LotteryLeader`] (folklore) | 4 | `Θ(n)` | exact but linear |
//! | [`SyncMajority`] (AAG18-style) | `O(log n)` phases × counter | `O(log² n)` | super-constant states |
//!
//! The paper's contribution is beating all of these trade-offs at once:
//! `O(1)` states *and* polylogarithmic time (w.h.p.), which experiment E9
//! verifies by measuring all rows on the same workloads.

use pp_engine::protocol::{Protocol, ProtocolSpec};
use pp_engine::rng::SimRng;

/// The 3-state approximate-majority protocol of Angluin, Aspnes, and
/// Eisenstat \[AAE08a\].
///
/// States: `0 = blank`, `1 = A`, `2 = B`. Rules (both orientations):
/// `A + B → A + blank` (initiator wins), `A + blank → A + A`,
/// `B + blank → B + B`. Converges in `O(log n)` rounds, but when the
/// initial gap is `o(√(n log n))` the *wrong* side can win with constant
/// probability — exactly the weakness the paper's exact protocols remove.
#[derive(Debug, Clone, Copy, Default)]
pub struct ApproxMajority;

impl ApproxMajority {
    /// Blank state index.
    pub const BLANK: usize = 0;
    /// `A` state index.
    pub const A: usize = 1;
    /// `B` state index.
    pub const B: usize = 2;

    /// Creates the protocol.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl Protocol for ApproxMajority {
    fn num_states(&self) -> usize {
        3
    }

    fn interact(&self, a: usize, b: usize, _rng: &mut SimRng) -> (usize, usize) {
        match (a, b) {
            (Self::A, Self::B) | (Self::B, Self::A) => (a, Self::BLANK),
            (Self::A, Self::BLANK) => (a, Self::A),
            (Self::B, Self::BLANK) => (a, Self::B),
            (Self::BLANK, Self::A) => (Self::A, b),
            (Self::BLANK, Self::B) => (Self::B, b),
            _ => (a, b),
        }
    }

    fn is_reactive(&self, a: usize, b: usize) -> bool {
        a != b
    }

    fn state_label(&self, state: usize) -> String {
        ["blank", "A", "B"][state].to_string()
    }

    fn name(&self) -> &str {
        "approx-majority-3"
    }
}

impl ProtocolSpec for ApproxMajority {
    fn outcomes(&self, a: usize, b: usize) -> Vec<((usize, usize), f64)> {
        let mut rng = SimRng::seed_from(0); // transition is deterministic
        vec![((self.interact(a, b, &mut rng)), 1.0)]
    }
}

/// The 4-state exact-majority protocol of Draief & Vojnović / Mertzios et
/// al. [DV12, MNRS14].
///
/// States: strong `A` / `B` and weak `a` / `b`. Strong opposites cancel to
/// weak; strong agents convert opposing weak agents. Always correct (for
/// non-tied inputs), but converges in `Θ(n log n)` expected rounds when the
/// gap is constant — the "prohibitive polynomial time" the paper cites.
#[derive(Debug, Clone, Copy, Default)]
pub struct FourStateMajority;

impl FourStateMajority {
    /// Strong `A`.
    pub const SA: usize = 0;
    /// Strong `B`.
    pub const SB: usize = 1;
    /// Weak `a`.
    pub const WA: usize = 2;
    /// Weak `b`.
    pub const WB: usize = 3;

    /// Creates the protocol.
    #[must_use]
    pub fn new() -> Self {
        Self
    }

    /// Whether a state currently votes `A`.
    #[must_use]
    pub fn votes_a(state: usize) -> bool {
        state == Self::SA || state == Self::WA
    }
}

impl Protocol for FourStateMajority {
    fn num_states(&self) -> usize {
        4
    }

    fn interact(&self, a: usize, b: usize, _rng: &mut SimRng) -> (usize, usize) {
        use FourStateMajority as M;
        match (a, b) {
            // Strong opposites annihilate into weak states.
            (M::SA, M::SB) => (M::WA, M::WB),
            (M::SB, M::SA) => (M::WB, M::WA),
            // Strong converts opposing weak.
            (M::SA, M::WB) => (M::SA, M::WA),
            (M::WB, M::SA) => (M::WA, M::SA),
            (M::SB, M::WA) => (M::SB, M::WB),
            (M::WA, M::SB) => (M::WB, M::SB),
            _ => (a, b),
        }
    }

    fn is_reactive(&self, a: usize, b: usize) -> bool {
        let mut rng = SimRng::seed_from(0);
        self.interact(a, b, &mut rng) != (a, b)
    }

    fn state_label(&self, state: usize) -> String {
        ["A", "B", "a", "b"][state].to_string()
    }

    fn name(&self) -> &str {
        "exact-majority-4"
    }
}

/// Folklore exact leader election: pairwise fratricide
/// `L + L → L + follower`, converging in `Θ(n)` rounds — the baseline the
/// paper's `O(log² n)`-round protocol improves exponentially.
#[derive(Debug, Clone, Copy, Default)]
pub struct LotteryLeader;

impl LotteryLeader {
    /// Follower state.
    pub const FOLLOWER: usize = 0;
    /// Leader state.
    pub const LEADER: usize = 1;

    /// Creates the protocol.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl Protocol for LotteryLeader {
    fn num_states(&self) -> usize {
        2
    }

    fn interact(&self, a: usize, b: usize, _rng: &mut SimRng) -> (usize, usize) {
        if a == Self::LEADER && b == Self::LEADER {
            (Self::LEADER, Self::FOLLOWER)
        } else {
            (a, b)
        }
    }

    fn is_reactive(&self, a: usize, b: usize) -> bool {
        a == Self::LEADER && b == Self::LEADER
    }

    fn state_label(&self, state: usize) -> String {
        ["F", "L"][state].to_string()
    }

    fn name(&self) -> &str {
        "lottery-leader"
    }
}

/// An AAG18-style synchronized cancel/double exact-majority baseline with a
/// super-constant state space.
///
/// Every agent carries `(phase, stage, opinion)` where `phase ∈ 0..phases`
/// tracks the cancel/double schedule and `stage` is a per-agent interaction
/// counter emulating the leaderless phase clock of \[AAG18\] (an agent
/// advances its phase after `ticks_per_phase` of its own interactions,
/// adopting the maximum phase it sees). Opinions are
/// `blank / A / B / marked-A / marked-B` (marked = already doubled this
/// phase). Even phases cancel, odd phases double. States:
/// `phases × ticks_per_phase × 5 = O(log² n)` for the recommended
/// parameters — the super-constant footprint the paper's `O(1)`-state
/// protocol eliminates.
#[derive(Debug, Clone, Copy)]
pub struct SyncMajority {
    phases: u16,
    ticks_per_phase: u16,
}

impl SyncMajority {
    const BLANK: usize = 0;
    const OP_A: usize = 1;
    const OP_B: usize = 2;
    const OP_A_MARKED: usize = 3;
    const OP_B_MARKED: usize = 4;

    /// Creates the baseline with explicit schedule parameters.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is 0.
    #[must_use]
    pub fn new(phases: u16, ticks_per_phase: u16) -> Self {
        assert!(phases > 0 && ticks_per_phase > 0);
        Self {
            phases,
            ticks_per_phase,
        }
    }

    /// Recommended parameters for population size `n`: `2⌈log₂ n⌉ + 2`
    /// phases, `4⌈log₂ n⌉` ticks per phase.
    #[must_use]
    pub fn for_population(n: u64) -> Self {
        let log = (n.max(2) as f64).log2().ceil() as u16;
        Self::new(2 * log + 2, 4 * log)
    }

    /// Packs `(phase, tick, opinion)`.
    #[must_use]
    pub fn pack(&self, phase: u16, tick: u16, opinion: usize) -> usize {
        debug_assert!(phase < self.phases && tick < self.ticks_per_phase && opinion < 5);
        (phase as usize * self.ticks_per_phase as usize + tick as usize) * 5 + opinion
    }

    /// Unpacks into `(phase, tick, opinion)`.
    #[must_use]
    pub fn unpack(&self, state: usize) -> (u16, u16, usize) {
        let opinion = state % 5;
        let rest = state / 5;
        let tick = (rest % self.ticks_per_phase as usize) as u16;
        let phase = (rest / self.ticks_per_phase as usize) as u16;
        (phase, tick, opinion)
    }

    /// Initial state for an `A`-agent, `B`-agent, or blank agent.
    #[must_use]
    pub fn initial(&self, side: Option<bool>) -> usize {
        let opinion = match side {
            Some(true) => Self::OP_A,
            Some(false) => Self::OP_B,
            None => Self::BLANK,
        };
        self.pack(0, 0, opinion)
    }

    /// Counts `(A-votes, B-votes)` from a state-count vector (marked and
    /// unmarked both count).
    #[must_use]
    pub fn votes(&self, counts: &[u64]) -> (u64, u64) {
        let mut a = 0;
        let mut b = 0;
        for (s, &c) in counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            match self.unpack(s).2 {
                Self::OP_A | Self::OP_A_MARKED => a += c,
                Self::OP_B | Self::OP_B_MARKED => b += c,
                _ => {}
            }
        }
        (a, b)
    }

    fn advance_clock(&self, phase: u16, tick: u16, seen_phase: u16) -> (u16, u16, bool) {
        // Adopt the max phase seen (mod-free: phases are absolute and capped).
        if seen_phase > phase {
            return (seen_phase, 0, true);
        }
        let tick = tick + 1;
        if tick >= self.ticks_per_phase {
            let next = (phase + 1).min(self.phases - 1);
            (next, 0, next != phase)
        } else {
            (phase, tick, false)
        }
    }
}

impl Protocol for SyncMajority {
    fn num_states(&self) -> usize {
        self.phases as usize * self.ticks_per_phase as usize * 5
    }

    fn interact(&self, a: usize, b: usize, _rng: &mut SimRng) -> (usize, usize) {
        use SyncMajority as S;
        let (pa, ta, oa) = self.unpack(a);
        let (pb, tb, ob) = self.unpack(b);
        let (pa2, ta2, phased_a) = self.advance_clock(pa, ta, pb);
        let (pb2, tb2, phased_b) = self.advance_clock(pb, tb, pa);
        // Entering a new phase clears the doubling mark.
        let mut oa2 = if phased_a {
            match oa {
                S::OP_A_MARKED => S::OP_A,
                S::OP_B_MARKED => S::OP_B,
                o => o,
            }
        } else {
            oa
        };
        let mut ob2 = if phased_b {
            match ob {
                S::OP_A_MARKED => S::OP_A,
                S::OP_B_MARKED => S::OP_B,
                o => o,
            }
        } else {
            ob
        };
        // Opinion dynamics only between phase-agreeing agents.
        if pa2 == pb2 {
            if pa2 % 2 == 0 {
                // Cancellation phase.
                if (oa2 == S::OP_A && ob2 == S::OP_B) || (oa2 == S::OP_B && ob2 == S::OP_A) {
                    oa2 = S::BLANK;
                    ob2 = S::BLANK;
                }
            } else {
                // Doubling phase: unmarked survivor recruits a blank.
                if oa2 == S::OP_A && ob2 == S::BLANK {
                    oa2 = S::OP_A_MARKED;
                    ob2 = S::OP_A_MARKED;
                } else if oa2 == S::OP_B && ob2 == S::BLANK {
                    oa2 = S::OP_B_MARKED;
                    ob2 = S::OP_B_MARKED;
                } else if ob2 == S::OP_A && oa2 == S::BLANK {
                    oa2 = S::OP_A_MARKED;
                    ob2 = S::OP_A_MARKED;
                } else if ob2 == S::OP_B && oa2 == S::BLANK {
                    oa2 = S::OP_B_MARKED;
                    ob2 = S::OP_B_MARKED;
                }
            }
        }
        (self.pack(pa2, ta2, oa2), self.pack(pb2, tb2, ob2))
    }

    fn state_label(&self, state: usize) -> String {
        let (p, t, o) = self.unpack(state);
        let op = ["·", "A", "B", "A*", "B*"][o];
        format!("(p{p},t{t},{op})")
    }

    fn name(&self) -> &str {
        "sync-majority-aag18"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_engine::counts::{CountPopulation, SparseCountPopulation};
    use pp_engine::sim::{run_until, Simulator};

    #[test]
    fn approx_majority_fast_with_large_gap() {
        let p = ApproxMajority::new();
        let mut pop = CountPopulation::from_counts(p, &[0, 700, 300]);
        let mut rng = SimRng::seed_from(1);
        let t = run_until(&mut pop, &mut rng, 500.0, 16, |s| {
            s.count(ApproxMajority::B) == 0 && s.count(ApproxMajority::BLANK) == 0
        })
        .expect("A wins");
        assert!(t < 100.0, "approximate majority is fast: {t}");
        assert_eq!(pop.count(ApproxMajority::A), 1000);
    }

    #[test]
    fn approx_majority_errs_on_tiny_gaps() {
        // With gap 2 out of 600, the wrong side should win in a
        // non-negligible fraction of runs.
        let mut wrong = 0;
        let runs = 40;
        for seed in 0..runs {
            let p = ApproxMajority::new();
            let mut pop = CountPopulation::from_counts(p, &[0, 301, 299]);
            let mut rng = SimRng::seed_from(1000 + seed);
            run_until(&mut pop, &mut rng, 10_000.0, 16, |s| {
                s.count(ApproxMajority::A) == 0 || s.count(ApproxMajority::B) == 0
            })
            .expect("consensus reached");
            if pop.count(ApproxMajority::A) == 0 {
                wrong += 1;
            }
        }
        assert!(
            wrong >= 5,
            "approximate majority should fail regularly at gap 2; wrong = {wrong}/{runs}"
        );
    }

    #[test]
    fn four_state_majority_is_always_correct() {
        for seed in 0..10 {
            let p = FourStateMajority::new();
            // Gap 1: 51 A vs 50 B.
            let mut pop = CountPopulation::from_counts(p, &[51, 50, 0, 0]);
            let mut rng = SimRng::seed_from(seed);
            let consensus = |s: &CountPopulation<FourStateMajority>| {
                let a_votes: u64 = (0..4)
                    .filter(|&st| FourStateMajority::votes_a(st))
                    .map(|st| s.count(st))
                    .sum();
                a_votes == s.n() || a_votes == 0
            };
            run_until(&mut pop, &mut rng, 1e6, 64, consensus).expect("consensus");
            let a_votes: u64 = (0..4)
                .filter(|&st| FourStateMajority::votes_a(st))
                .map(|st| pop.count(st))
                .sum();
            assert_eq!(a_votes, pop.n(), "A must win every run (seed {seed})");
        }
    }

    #[test]
    fn four_state_majority_is_slow_at_small_gaps() {
        // Θ(n log n) scaling: time at n=400 should far exceed polylog.
        let p = FourStateMajority::new();
        let n = 400u64;
        let mut pop = CountPopulation::from_counts(p, &[(n / 2) + 1, (n / 2) - 1, 0, 0]);
        let mut rng = SimRng::seed_from(3);
        let t = run_until(&mut pop, &mut rng, 1e6, 64, |s| {
            let a: u64 = [0usize, 2].iter().map(|&st| s.count(st)).sum();
            a == s.n() || a == 0
        })
        .expect("consensus");
        assert!(
            t > 50.0,
            "4-state majority at gap 2 should be much slower than polylog: {t}"
        );
    }

    #[test]
    fn lottery_leader_linear_time() {
        let p = LotteryLeader::new();
        let mut pop = CountPopulation::from_counts(p, &[0, 500]);
        let mut rng = SimRng::seed_from(4);
        let t = run_until(&mut pop, &mut rng, 1e6, 16, |s| {
            s.count(LotteryLeader::LEADER) == 1
        })
        .expect("unique leader");
        // Coupon-collector-like Θ(n): at n=500 expect hundreds of rounds.
        assert!(t > 50.0, "fratricide is linear-time: {t}");
    }

    #[test]
    fn sync_majority_pack_roundtrip() {
        let p = SyncMajority::new(6, 5);
        for s in 0..p.num_states() {
            let (ph, t, o) = p.unpack(s);
            assert_eq!(p.pack(ph, t, o), s);
        }
    }

    #[test]
    fn sync_majority_decides_small_gap_quickly() {
        let n = 512u64;
        let p = SyncMajority::for_population(n);
        let mut counts = vec![0u64; p.num_states()];
        counts[p.initial(Some(true))] = n / 2 + 1;
        counts[p.initial(Some(false))] = n / 2 - 1;
        let mut pop = SparseCountPopulation::from_dense(p, &counts);
        let mut rng = SimRng::seed_from(5);
        let t = run_until(&mut pop, &mut rng, 5_000.0, 64, |s| {
            let (a, b) = p.votes(&s.counts());
            b == 0 && a > 0
        });
        assert!(t.is_some(), "synchronized cancel/double decides gap 2");
        let t = t.unwrap();
        assert!(t < 2_000.0, "polylog-ish time, got {t}");
    }

    #[test]
    fn sync_majority_state_count_is_superconstant() {
        let small = SyncMajority::for_population(1 << 8);
        let large = SyncMajority::for_population(1 << 16);
        assert!(large.num_states() > small.num_states());
    }
}
