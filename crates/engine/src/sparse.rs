//! The sparse count backend, [`SparseCountPopulation`]: occupied states
//! only, for protocols whose nominal state space is far larger than the set
//! of states a run reaches.
//!
//! It has two regimes, chosen by one rule ([`leaps`]) from the probability
//! `p` that a step is effective and the number of occupied states:
//!
//! * **Per step.** Each step samples its pair through per-block count sums
//!   over the occupied list and calls [`Protocol::interact`]; the rank →
//!   state map is that of a linear scan in insertion order. Nothing else is
//!   maintained, so a change costs `O(1)` upkeep.
//! * **Leap.** Every state the population reaches is interned into a dense
//!   id that never changes, and a memo over ids keeps each state's guard
//!   classes per rule slot, from its
//!   [`RuleMasks`](crate::protocol::RuleMasks) ([`Protocol::rule_masks`]).
//!   For each rule slot `r` the leap counts the agents whose initiator
//!   guard holds and who move (`IM_r`) or do not (`I0_r`), whose
//!   responder guard holds (`B_r`) and who move (`BM_r`), and the two
//!   overlaps `IM_r ∩ B_r` and `I0_r ∩ BM_r`; then
//!   `W_r = |IM_r|·|B_r| − |IM_r ∩ B_r| + |I0_r|·|BM_r| − |I0_r ∩ BM_r|`
//!   is exactly the number of ordered pairs of distinct agents on which
//!   slot `r` is effective, and `W = Σ_r W_r`. A step is effective with
//!   probability `p = W / (n(n−1)·scale)`, so the number of ineffective
//!   steps before the next effective one is geometric; the leap draws it,
//!   picks `(r, a, b)` with probability `c_a c'_b / W` among the effective
//!   triples (`c'` without one agent of `a`) — the slot by `W_r`, the
//!   initiator and the responder by walks of the slot's class members —
//!   and calls [`Protocol::interact_slot`]. By the slot contract this is
//!   the law of the stepped chain (thinning; DESIGN.md §9). A change costs
//!   `O(set bits)` upkeep: an agent's move shifts only the counts of the
//!   rule slots whose class bits differ between its two states.
//!
//! The class members are per-rule-slot bitsets over the occupied list,
//! one per class, built for a slot at its first pick after the slot
//! counts are (re)built and kept up by appends and swap-removes of
//! occupied slots only; a count change touches none. A walk visits the
//! set bits in ascending slot order, which are exactly the rows a scan of
//! the occupied list filtered by the class bit visits, in the same order,
//! so the rank → `(r, a, b)` map is that of the filtered scans.
//!
//! Only a protocol with rule masks leaps; any other stays per step. A
//! state's masks are asked for at most once over the population's life,
//! which [`SparseCountPopulation::run_on`] preserves across the runs of a
//! program site.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::prof::{self, Section};
use crate::protocol::Protocol;
use crate::recorder::{self, BatchTally};
use crate::rng::SimRng;
use crate::sim::{run_steps, BatchOutcome, Simulator, StepOutcome};

/// Occupied slots per block of the per-step sampler's second level. With
/// at most this many occupied states there is one block, and a draw is the
/// plain linear scan plus one compare.
const SLOT_BLOCK: usize = 32;

/// `slot_of` entry of an interned state that is not occupied.
const NO_SLOT: u32 = u32::MAX;

/// Occupied-slot visits one leap event costs beyond its two walks, which
/// [`leaps`] counts as one visit per occupied slot each, as when they were
/// filtered scans of the occupied list; walking the picked slot's class
/// members visits fewer, and the overstatement is left in place because
/// these constants decide which regime runs, and with it trajectories.
/// The rest is the geometric draw, the rule-slot pick, the slot's
/// interaction and the write-back with its slot-count upkeep, for rule
/// masks of one word.
const LEAP_EVENT_SLOTS: f64 = 80.0;

/// Occupied-slot visits each further mask word adds to a leap event: the
/// slot-count upkeep visits every word of the moved states.
const LEAP_WORD_SLOTS: f64 = 100.0;

/// Occupied-slot visits per step the leap may spend and still beat the
/// per-step sampler, whose step costs about this many visits' time.
const LEAP_SLOT_BUDGET: f64 = 25.0;

/// The sparse backend's one dispatch rule: leap while the expected cost of
/// a step, `p · (occupied + LEAP_EVENT_SLOTS + LEAP_WORD_SLOTS · (words −
/// 1))` occupied-slot visits, stays below the per-step sampler's. `words`
/// is the rule masks' length in 64-slot words. A per-step population
/// enters the leap only under three quarters of the budget, so a `p` near
/// the boundary does not rebuild the slot counts over and over.
fn leaps(p: f64, occupied: usize, words: usize, leaping: bool) -> bool {
    let budget = if leaping {
        LEAP_SLOT_BUDGET
    } else {
        0.75 * LEAP_SLOT_BUDGET
    };
    let extra_words = words.saturating_sub(1) as f64;
    p * (occupied as f64 + LEAP_EVENT_SLOTS + LEAP_WORD_SLOTS * extra_words) < budget
}

/// Steps a per-step window observes before the changed fraction is checked
/// against [`leaps`]: `n`, but at least this many.
const MIN_WINDOW: u64 = 256;

/// A failed leap attempt doubles the window, up to this many base windows.
const MAX_WINDOW_GROWTH: u64 = 64;

/// Multiplicative hasher for state keys: states are dense integers, so the
/// SipHash default buys nothing and costs a lookup per changed agent.
#[derive(Debug, Default, Clone, Copy)]
struct StateHasher(u64);

impl Hasher for StateHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

type StateIds = HashMap<usize, u32, BuildHasherDefault<StateHasher>>;

/// Per-block count sums of an occupied list.
fn block_sums(occupied: &[(usize, u64)]) -> Vec<u64> {
    occupied
        .chunks(SLOT_BLOCK)
        .map(|block| block.iter().map(|&(_, c)| c).sum())
        .collect()
}

/// The guard classes of one state over one mask word's 64 rule slots,
/// `[IM, I0, B, BM]` from its [`RuleMasks`](crate::protocol::RuleMasks):
/// the initiator guard holds and the initiator moves (`IM`) or does not
/// (`I0`); the responder guard holds (`B`) and the responder moves
/// (`BM`). Slot `r` is effective on `(a, b)` exactly when `a ∈ IM_r` and
/// `b ∈ B_r`, or `a ∈ I0_r` and `b ∈ BM_r`, and never both.
fn guard_classes(init: u64, init_moves: u64, resp: u64, resp_moves: u64) -> [u64; 4] {
    [
        init & init_moves,
        init & !init_moves,
        resp,
        resp & resp_moves,
    ]
}

/// [`guard_classes`] plus the two overlaps the self-pair correction needs:
/// `[IM, I0, B, BM, IM ∩ B, I0 ∩ BM]`.
#[inline]
fn with_overlaps(m: [u64; 4]) -> [u64; 6] {
    [m[0], m[1], m[2], m[3], m[0] & m[2], m[1] & m[3]]
}

/// `W_r`, the ordered pairs of distinct agents on which rule slot `r` is
/// effective, from its class counts `[IM, I0, B, BM, IM ∩ B, I0 ∩ BM]`:
/// `|IM|·|B| − |IM ∩ B| + |I0|·|BM| − |I0 ∩ BM|`. The products may exceed
/// `u64` only when the result does too, which `pair_draws` rules out, so
/// wrapping arithmetic gives it exactly.
#[inline]
fn slot_weight(c: &[u64; 6]) -> u64 {
    c[0].wrapping_mul(c[2])
        .wrapping_sub(c[4])
        .wrapping_add(c[1].wrapping_mul(c[3]))
        .wrapping_sub(c[5])
}

/// The set bits of `bits`, lowest first.
#[inline]
fn bit_positions(mut bits: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (bits != 0).then(|| {
            let r = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            r
        })
    })
}

/// The guard-class memo over interned ids: each id's [`guard_classes`],
/// one entry per 64 rule slots at `classes[id · words ..]`, `known[id]`
/// once filled.
#[derive(Debug, Clone)]
struct Memo {
    words: usize,
    classes: Vec<[u64; 4]>,
    known: Vec<bool>,
}

impl Memo {
    /// The guard classes of id `id`, one entry per mask word.
    fn of(&self, id: u32) -> &[[u64; 4]] {
        let i = id as usize * self.words;
        &self.classes[i..i + self.words]
    }
}

/// The leap regime's per-rule-slot agent counts and class members, valid
/// while `live`. Sized by the rule slots (`64 · words`) and, for the
/// members, by the occupied list. A stale one keeps its buffers, which the
/// next build refills in place.
#[derive(Debug, Clone, Default)]
struct SlotCounts {
    /// Whether the counts describe the occupied list.
    live: bool,
    /// Per rule slot: the agents in `[IM, I0, B, BM, IM ∩ B, I0 ∩ BM]`.
    counts: Vec<[u64; 6]>,
    /// `W_r` per rule slot.
    weights: Vec<u64>,
    /// `Σ W_r` per mask word.
    word_totals: Vec<u64>,
    /// `W = Σ_r W_r`.
    total: u64,
    /// Per rule slot `r`, the occupied slots in each of its classes
    /// `[IM_r, I0_r, B_r, BM_r]`: bit `s % 64` of `members[r][s / 64][k]`
    /// is set when occupied slot `s` is in class `k`. Built on `r`'s first
    /// pick, and meaningful only where `built` has `r`'s bit; words past
    /// the occupied list are zero.
    members: Vec<Vec<[u64; 4]>>,
    /// Per mask word, the rule slots whose members are built.
    built: Vec<u64>,
    /// The occupied slots the members cover.
    covered: usize,
}

impl SlotCounts {
    /// Counts the occupied states from scratch, `O(occupied · words)` plus
    /// one visit per set class bit, and marks every slot's members unbuilt.
    fn rebuild(&mut self, memo: &Memo, occupied: &[(usize, u64)], ids: &[u32]) {
        let words = memo.words;
        fn fresh<T: Clone>(v: &mut Vec<T>, len: usize, zero: T) {
            v.clear();
            v.resize(len, zero);
        }
        fresh(&mut self.counts, words * 64, [0; 6]);
        fresh(&mut self.weights, words * 64, 0);
        fresh(&mut self.word_totals, words, 0);
        fresh(&mut self.built, words, 0);
        self.members.resize_with(words * 64, Vec::new);
        self.total = 0;
        self.covered = ids.len();
        for w in 0..words {
            let mut touched = 0;
            for (&id, &(_, c)) in ids.iter().zip(occupied) {
                touched |= self.add_state(w, memo.of(id)[w], c);
            }
            self.reweigh(w, touched);
        }
        self.live = true;
    }

    /// Adds `delta` agents (modulo 2⁶⁴, so a wrapped negative removes) of a
    /// state with word-`w` classes `classes`. Returns the rule slots of
    /// word `w` whose counts changed.
    fn add_state(&mut self, w: usize, classes: [u64; 4], delta: u64) -> u64 {
        let counts = &mut self.counts[w * 64..(w + 1) * 64];
        for (k, bits) in with_overlaps(classes).into_iter().enumerate() {
            for r in bit_positions(bits) {
                counts[r][k] = counts[r][k].wrapping_add(delta);
            }
        }
        classes[0] | classes[1] | classes[2]
    }

    /// Moves one agent from a state with word-`w` classes `from` to one
    /// with `to`: only the class bits that differ change a count. Returns
    /// the rule slots of word `w` whose counts changed.
    #[inline]
    fn shift(&mut self, w: usize, from: [u64; 4], to: [u64; 4]) -> u64 {
        let (from, to) = (with_overlaps(from), with_overlaps(to));
        let counts = &mut self.counts[w * 64..(w + 1) * 64];
        let mut touched = 0;
        for k in 0..6 {
            let (gone, came) = (from[k] & !to[k], to[k] & !from[k]);
            touched |= gone | came;
            for r in bit_positions(gone) {
                counts[r][k] -= 1;
            }
            for r in bit_positions(came) {
                counts[r][k] += 1;
            }
        }
        touched
    }

    /// Recomputes `W_r` for the rule slots `touched` of word `w`, and with
    /// them the word's total and `W`.
    #[inline]
    fn reweigh(&mut self, w: usize, touched: u64) {
        for r in bit_positions(touched).map(|r| w * 64 + r) {
            let new = slot_weight(&self.counts[r]);
            let old = std::mem::replace(&mut self.weights[r], new);
            self.word_totals[w] = self.word_totals[w].wrapping_sub(old).wrapping_add(new);
            self.total = self.total.wrapping_sub(old).wrapping_add(new);
        }
    }

    /// Builds rule slot `r`'s members from the memo: one pass over the
    /// occupied ids.
    fn build_members(&mut self, memo: &Memo, ids: &[u32], r: usize) {
        let (w, bit) = (r / 64, r % 64);
        let rows = &mut self.members[r];
        rows.clear();
        rows.resize(ids.len().div_ceil(64), [0; 4]);
        for (s, &id) in ids.iter().enumerate() {
            let classes = memo.of(id)[w];
            let row = &mut rows[s / 64];
            for k in 0..4 {
                row[k] |= (classes[k] >> bit & 1) << (s % 64);
            }
        }
        self.built[w] |= 1 << bit;
    }

    /// Sets or clears occupied slot `s`'s bit in class `k` of every built
    /// rule slot of word `w` among `rules`.
    #[inline]
    fn mark(&mut self, w: usize, k: usize, rules: u64, s: usize, on: bool) {
        for r in bit_positions(rules & self.built[w]) {
            let rows = &mut self.members[w * 64 + r];
            if rows.len() <= s / 64 {
                rows.resize(s / 64 + 1, [0; 4]);
            }
            let word = &mut rows[s / 64][k];
            if on {
                *word |= 1 << (s % 64);
            } else {
                *word &= !(1 << (s % 64));
            }
        }
    }

    /// Appends an occupied slot, whose guard classes per mask word are
    /// `classes`, to the built members.
    fn push_row(&mut self, classes: &[[u64; 4]]) {
        let s = self.covered;
        self.covered += 1;
        for (w, c) in classes.iter().enumerate() {
            for (k, &rules) in c.iter().enumerate() {
                self.mark(w, k, rules, s, true);
            }
        }
    }

    /// Swap-removes occupied slot `slot`, whose classes were `gone`, from
    /// the built members: the last slot, with classes `moved`, takes its
    /// place unless it was the last.
    fn swap_remove_row(&mut self, slot: usize, gone: &[[u64; 4]], moved: &[[u64; 4]]) {
        self.covered -= 1;
        let last = self.covered;
        for (w, (g, m)) in gone.iter().zip(moved).enumerate() {
            for k in 0..4 {
                self.mark(w, k, g[k], slot, false);
                if slot < last {
                    self.mark(w, k, m[k], last, false);
                    self.mark(w, k, m[k], slot, true);
                }
            }
        }
    }

    /// The effective step of rank `u < W`: its rule slot, initiator slot
    /// and responder slot, each `(r, a, b)` of weight `c_a c'_b` taking
    /// that many ranks (`c'` without one agent of the initiator's state).
    /// The rank picks `r` under `W_r` and one of its two terms, then the
    /// initiator under `c_a · (|Y| − [a ∈ Y])` among the term's initiator
    /// class, `Y` its responder class; what is left of the rank, modulo
    /// `|Y| − [a ∈ Y]`, picks the responder among `Y`. Each walks its
    /// class's members in ascending slot order, the rows a scan of the
    /// occupied list filtered by the class bit would visit; `r`'s members
    /// are built first if they are not yet.
    fn pick(
        &mut self,
        memo: &Memo,
        occupied: &[(usize, u64)],
        ids: &[u32],
        mut u: u64,
    ) -> (usize, usize, usize) {
        let mut w = 0;
        while u >= self.word_totals[w] {
            u -= self.word_totals[w];
            w += 1;
        }
        let mut r = w * 64;
        while u >= self.weights[r] {
            u -= self.weights[r];
            r += 1;
        }
        let c = &self.counts[r];
        let first = c[0].wrapping_mul(c[2]).wrapping_sub(c[4]);
        let (init, resp, size) = if u < first {
            (0, 2, c[2])
        } else {
            u -= first;
            (1, 3, c[3])
        };
        if self.built[w] >> (r % 64) & 1 == 0 {
            self.build_members(memo, ids, r);
        }
        let rows = &self.members[r];
        let others = |s: usize| size - (rows[s / 64][resp] >> (s % 64) & 1);
        let (sa, u) = walk(rows, init, u, |s| occupied[s].1 * others(s)).expect("rank exceeded W");
        let v = u % others(sa);
        let (sb, _) = walk(rows, resp, v, |s| occupied[s].1 - u64::from(s == sa))
            .expect("rank exceeded the responder class");
        (r, sa, sb)
    }
}

/// Walks the members of class `k` in `rows` in ascending slot order,
/// taking `weight(s)` off `u` at each, and returns the member at which
/// `u` falls below its weight, with what is left of `u` there.
#[inline]
fn walk(
    rows: &[[u64; 4]],
    k: usize,
    mut u: u64,
    weight: impl Fn(usize) -> u64,
) -> Option<(usize, u64)> {
    for (j, row) in rows.iter().enumerate() {
        for b in bit_positions(row[k]) {
            let s = j * 64 + b;
            let m = weight(s);
            if u < m {
                return Some((s, u));
            }
            u -= m;
        }
    }
    None
}

/// Which regime the population is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Regime {
    /// Not decided yet: the next batch works out `p` exactly.
    Undecided,
    /// Per-step sampling, re-checking [`leaps`] every window.
    PerStep,
    /// Geometric leaps; the slot counts are rebuilt when missing.
    Leap,
}

/// A population represented by a *sparse* map of per-state agent counts.
///
/// Protocol compositions over boolean flag spaces can have huge nominal
/// state spaces (`2^18` and beyond) of which any reachable configuration
/// occupies only a few hundred states. The dense
/// [`crate::counts::CountPopulation`] pays `O(k)` to build and `O(log k)`
/// per step regardless; this backend stores only the occupied states, so
/// construction is `O(occupied)`. A per-step step costs
/// `O(occupied/B + B)` with `B = 32`; where few steps change anything, it
/// leaps over the ineffective ones at two walks of the picked rule slot's
/// class members, `O(occupied/64 + members)`, and `O(set bits)` upkeep per
/// effective step (see the module documentation).
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
    /// Interned id of each occupied slot.
    slot_ids: Vec<u32>,
    /// `blocks[j]` = count sum of `occupied[j·B .. (j+1)·B]`, `B` =
    /// `SLOT_BLOCK`. Derived from `occupied`, so never serialized.
    blocks: Vec<u64>,
    /// State → interned id, for every state ever reached.
    ids: StateIds,
    /// Interned id → state.
    states: Vec<usize>,
    /// Interned id → slot in `occupied`, or [`NO_SLOT`].
    slot_of: Vec<u32>,
    n: u64,
    steps: u64,
    /// Built on the first leap; stays `None` for a protocol without rule
    /// masks, which never leaps.
    memo: Option<Memo>,
    /// Live while leaping; out-of-band edits and reloads leave it stale.
    leap: SlotCounts,
    regime: Regime,
    /// Per-step window: length, steps seen, changes seen.
    window: [u64; 3],
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
        let mut pop = Self {
            protocol,
            occupied: Vec::new(),
            slot_ids: Vec::new(),
            blocks: Vec::new(),
            ids: StateIds::default(),
            states: Vec::new(),
            slot_of: Vec::new(),
            n: 0,
            steps: 0,
            memo: None,
            leap: SlotCounts::default(),
            regime: Regime::Undecided,
            window: [0; 3],
        };
        pop.fill(pairs);
        pop.window[0] = pop.base_window();
        pop
    }

    /// Creates a population from a dense count vector (skipping zeros).
    ///
    /// # Panics
    ///
    /// As [`SparseCountPopulation::from_pairs`].
    #[must_use]
    pub fn from_dense(protocol: P, counts: &[u64]) -> Self {
        let pairs: Vec<_> = counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(s, &c)| (s, c))
            .collect();
        Self::from_pairs(protocol, &pairs)
    }

    /// Runs exactly `steps` interactions of the protocol (fewer if it falls
    /// silent, which has the same law) on the configuration `pairs`, in
    /// place: the run of a program site, which keeps one population across
    /// runs on configurations changed in between. The
    /// population takes over `pairs` (distinct `(state, count)` pairs in
    /// ascending state order; zero counts are skipped), occupied in that
    /// order as [`SparseCountPopulation::from_pairs`] would, but keeps its
    /// interned states, their guard-class memo, the regime and the step
    /// count, so set-up and write-back cost `O(occupied)`. On return
    /// `pairs` holds the configuration after the run: its occupied states,
    /// ascending, each with a nonzero count.
    ///
    /// # Panics
    ///
    /// Panics if `pairs` holds fewer than 2 agents, repeats a state or
    /// occupies a state the protocol does not have.
    pub fn run_on(&mut self, pairs: &mut Vec<(usize, u64)>, steps: u64, rng: &mut SimRng) {
        for &id in &self.slot_ids {
            self.slot_of[id as usize] = NO_SLOT;
        }
        self.occupied.clear();
        self.slot_ids.clear();
        self.leap.live = false;
        self.fill(pairs);
        run_steps(self, steps, rng);
        pairs.clone_from(&self.occupied);
        pairs.sort_unstable_by_key(|&(state, _)| state);
    }

    /// Occupies `pairs` in order on an empty occupied list and sets `n`.
    ///
    /// # Panics
    ///
    /// As [`SparseCountPopulation::from_pairs`].
    fn fill(&mut self, pairs: &[(usize, u64)]) {
        let k = self.protocol.num_states();
        let mut n = 0u64;
        for &(state, count) in pairs {
            assert!(state < k, "state {state} out of range (k = {k})");
            if count == 0 {
                continue;
            }
            let id = self.intern(state);
            assert!(
                self.slot_of[id as usize] == NO_SLOT,
                "state {state} listed twice"
            );
            self.slot_of[id as usize] = self.occupied.len() as u32;
            self.occupied.push((state, count));
            self.slot_ids.push(id);
            n += count;
        }
        assert!(n >= 2, "population must have at least 2 agents");
        self.blocks = block_sums(&self.occupied);
        self.n = n;
    }

    /// The per-step window length a fresh window starts with.
    fn base_window(&self) -> u64 {
        self.n.max(MIN_WINDOW)
    }

    /// Number of distinct occupied states.
    #[must_use]
    pub fn occupied_states(&self) -> usize {
        self.occupied.len()
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

    /// The interned id of `state`, interning it if new.
    #[inline]
    fn intern(&mut self, state: usize) -> u32 {
        let next = self.states.len() as u32;
        let id = *self.ids.entry(state).or_insert(next);
        if id == next {
            self.states.push(state);
            self.slot_of.push(NO_SLOT);
        }
        id
    }

    /// Adds `delta` agents to `state`, appending a slot if it was empty;
    /// returns the state's interned id. An appended slot's class members
    /// are the leap's to fill ([`Self::apply_leap`]).
    fn add(&mut self, state: usize, delta: i64) -> u32 {
        let id = self.intern(state);
        let slot = self.slot_of[id as usize];
        if slot != NO_SLOT {
            self.add_at(slot as usize, delta);
            return id;
        }
        assert!(delta > 0, "removing from empty state {state}");
        let slot = self.occupied.len();
        self.slot_of[id as usize] = slot as u32;
        self.occupied.push((state, delta as u64));
        self.slot_ids.push(id);
        if slot.is_multiple_of(SLOT_BLOCK) {
            self.blocks.push(delta as u64);
        } else {
            *self.blocks.last_mut().expect("open trailing block") += delta as u64;
        }
        id
    }

    /// Adds `delta` to the count at `slot`. A slot that empties is
    /// swap-removed; the return value is then the former slot of the entry
    /// moved into it, if one moved.
    fn add_at(&mut self, slot: usize, delta: i64) -> Option<usize> {
        let entry = &mut self.occupied[slot];
        entry.1 = entry.1.wrapping_add_signed(delta);
        let count = entry.1;
        let block = &mut self.blocks[slot / SLOT_BLOCK];
        *block = block.wrapping_add_signed(delta);
        if count != 0 {
            return None;
        }
        // Swap-remove, fixing the moved entry's slot and moving its count
        // to its new block; a trailing block left empty is dropped.
        let last = self.occupied.len() - 1;
        self.occupied.swap_remove(slot);
        let id = self.slot_ids.swap_remove(slot);
        self.slot_of[id as usize] = NO_SLOT;
        if self.leap.live {
            let memo = self.memo.as_ref().expect("memo covers the occupied states");
            let moved = self.slot_ids.get(slot).copied().unwrap_or(id);
            self.leap.swap_remove_row(slot, memo.of(id), memo.of(moved));
        }
        let moved_from = (slot < last).then(|| {
            let moved = self.occupied[slot].1;
            self.slot_of[self.slot_ids[slot] as usize] = slot as u32;
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
    /// removals skip the state → slot lookup. Returns the interned ids of
    /// `a2` and `b2`. Slots the additions append come last.
    fn apply(&mut self, sa: usize, sb: usize, a2: usize, b2: usize) -> (u32, u32) {
        let moved_from = self.add_at(sa, -1);
        self.add_at(if moved_from == Some(sb) { sa } else { sb }, -1);
        (self.add(a2, 1), self.add(b2, 1))
    }

    /// One per-step step: sample a pair, interact, apply. Returns whether
    /// it changed anything.
    #[inline]
    fn step_once(&mut self, rng: &mut SimRng) -> bool {
        let sa = self.sample(rng.below(self.n), usize::MAX);
        let sb = self.sample(rng.below(self.n - 1), sa);
        let (a, b) = (self.occupied[sa].0, self.occupied[sb].0);
        let (a2, b2) = self.protocol.interact(a, b, rng);
        if (a2, b2) == (a, b) {
            return false;
        }
        self.apply(sa, sb, a2, b2);
        true
    }

    /// Fills the memo's guard classes of id `id` if they are not known
    /// yet: the state's one call to [`Protocol::rule_masks`].
    fn cover(&mut self, id: u32) {
        let memo = self.memo.as_mut().expect("the leap built the memo");
        let ids = self.states.len();
        if memo.known.len() < ids {
            memo.known.resize(ids, false);
            memo.classes.resize(ids * memo.words, [0; 4]);
        }
        let i = id as usize;
        if memo.known[i] {
            return;
        }
        let m = self
            .protocol
            .rule_masks(self.states[i])
            .expect("a protocol with rule masks has them for every state");
        for k in 0..memo.words {
            let word = |f: &[u64]| f.get(k).copied().unwrap_or(0);
            memo.classes[i * memo.words + k] = guard_classes(
                word(&m.init),
                word(&m.init_moves),
                word(&m.resp),
                word(&m.resp_moves),
            );
        }
        memo.known[i] = true;
    }

    /// `n(n−1)·scale`, the denominator of `p`, if `W` cannot overflow.
    fn pair_draws(&self) -> Option<u64> {
        let draws = u128::from(self.n)
            * u128::from(self.n - 1)
            * u128::from(self.protocol.weight_scale().max(1));
        u64::try_from(draws).ok()
    }

    /// Builds the slot counts from scratch ([`SlotCounts::build`]).
    /// Returns `W`, or `None` when the protocol has no rule masks or `u64`
    /// cannot hold `n(n−1)·scale`.
    fn build_leap(&mut self) -> Option<u64> {
        self.pair_draws()?;
        if self.memo.is_none() {
            let words = self.protocol.rule_masks(self.occupied[0].0)?.init.len();
            self.memo = Some(Memo {
                words: words.max(1),
                classes: Vec::new(),
                known: Vec::new(),
            });
        }
        for slot in 0..self.slot_ids.len() {
            self.cover(self.slot_ids[slot]);
        }
        let memo = self.memo.as_ref().expect("memo covers the occupied states");
        self.leap.rebuild(memo, &self.occupied, &self.slot_ids);
        Some(self.leap.total)
    }

    /// Builds the slot counts and enters the leap if [`leaps`] says so at
    /// the exact `p` (or the population is silent); otherwise drops them
    /// and stays per step.
    fn try_leap(&mut self) -> bool {
        let entered = match (self.build_leap(), self.pair_draws()) {
            (Some(total), Some(draws)) => {
                let p = total as f64 / draws as f64;
                total == 0 || leaps(p, self.occupied.len(), self.mask_words(), false)
            }
            _ => false,
        };
        if entered {
            self.regime = Regime::Leap;
        } else {
            self.leap.live = false;
            self.regime = Regime::PerStep;
        }
        entered
    }

    /// The rule masks' length in words, 1 before the first leap.
    fn mask_words(&self) -> usize {
        self.memo.as_ref().map_or(1, |m| m.words)
    }

    /// Leaves the leap for the per-step regime with a fresh window.
    fn leave_leap(&mut self) {
        self.leap.live = false;
        self.regime = Regime::PerStep;
        self.window = [self.base_window(), 0, 0];
    }

    /// [`SparseCountPopulation::apply`] plus the slot-count upkeep: the
    /// removals swap their slots out of the built members and the appended
    /// slots join them, then each of the two moves shifts the counts of the
    /// rule slots whose class bits differ between its two states, and those
    /// slots' `W_r` are recomputed. `O(set bits)` per move, whatever the
    /// occupancy; a count that changes touches no member bit.
    fn apply_leap(&mut self, sa: usize, sb: usize, a2: usize, b2: usize) {
        let (ia, ib) = (self.slot_ids[sa], self.slot_ids[sb]);
        let (ia2, ib2) = self.apply(sa, sb, a2, b2);
        for slot in self.leap.covered..self.occupied.len() {
            let id = self.slot_ids[slot];
            self.cover(id);
            let memo = self.memo.as_ref().expect("memo covers the occupied states");
            self.leap.push_row(memo.of(id));
        }
        let memo = self.memo.as_ref().expect("memo covers the occupied states");
        let leap = &mut self.leap;
        for w in 0..memo.words {
            let classes = |id: u32| memo.classes[id as usize * memo.words + w];
            let mut touched = 0;
            for (from, to) in [(ia, ia2), (ib, ib2)] {
                let (from, to) = (classes(from), classes(to));
                if from != to {
                    touched |= leap.shift(w, from, to);
                }
            }
            if touched != 0 {
                leap.reweigh(w, touched);
            }
        }
        debug_assert!(self.leap_is_consistent());
    }

    /// Debug check: the slot counts and their weights equal a recount from
    /// scratch, the members cover the occupied list, and every built rule
    /// slot's members are those the memo gives.
    fn leap_is_consistent(&self) -> bool {
        let leap = &self.leap;
        if !leap.live {
            return true;
        }
        let memo = self.memo.as_ref().expect("memo covers the occupied states");
        let mut recount = SlotCounts::default();
        recount.rebuild(memo, &self.occupied, &self.slot_ids);
        let counted = (&leap.counts, &leap.weights, &leap.word_totals, leap.total)
            == (
                &recount.counts,
                &recount.weights,
                &recount.word_totals,
                recount.total,
            );
        let built = (0..leap.counts.len()).filter(|&r| leap.built[r / 64] >> (r % 64) & 1 == 1);
        counted
            && leap.covered == self.occupied.len()
            && built.into_iter().all(|r| {
                recount.build_members(memo, &self.slot_ids, r);
                let (got, want) = (&leap.members[r], &recount.members[r]);
                let zero = |rows: &[[u64; 4]]| rows.iter().all(|row| *row == [0; 4]);
                let common = got.len().min(want.len());
                got[..common] == want[..common] && zero(&got[common..]) && zero(&want[common..])
            })
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
        self.ids
            .get(&state)
            .map(|&id| self.slot_of[id as usize])
            .filter(|&slot| slot != NO_SLOT)
            .map_or(0, |slot| self.occupied[slot as usize].1)
    }

    fn counts(&self) -> Vec<u64> {
        self.to_dense()
    }

    fn step(&mut self, rng: &mut SimRng) -> StepOutcome {
        // A lone step keeps no slot counts; the next batch rebuilds them.
        self.leap.live = false;
        self.steps += 1;
        if self.step_once(rng) {
            StepOutcome::Changed
        } else {
            StepOutcome::Unchanged
        }
    }

    /// Runs the regime the dispatch rule picks (`leaps`; DESIGN.md §9),
    /// switching as `p` moves: geometric leaps over ineffective steps
    /// where changes are rare, block-sampled steps where they are dense.
    /// A per-step population checks the changed fraction of each window
    /// against the rule, and enters the leap if the exact `p` agrees.
    /// Reports silence when no pair has a positive weight.
    fn step_batch(&mut self, rng: &mut SimRng, max_steps: u64) -> BatchOutcome {
        let cap = recorder::capture();
        let pf = cap.sections;
        let _batch_span = prof::section_if(pf, Section::BatchSparse);
        let mut out = BatchOutcome::default();
        if self.regime == Regime::Undecided || (self.regime == Regime::Leap && !self.leap.live) {
            self.try_leap();
        }
        let draws = self.pair_draws().unwrap_or(u64::MAX);
        let mut tally = cap.on.then(BatchTally::new);
        while out.executed < max_steps {
            let remaining = max_steps - out.executed;
            if self.regime == Regime::Leap {
                if !self.leap.live && !self.try_leap() {
                    continue;
                }
                let total = self.leap.total;
                if total == 0 {
                    out.silent = true;
                    break;
                }
                let p = total as f64 / draws as f64;
                if !leaps(p, self.occupied.len(), self.mask_words(), true) {
                    self.leave_leap();
                    continue;
                }
                let _leap_span = prof::section_if(pf, Section::SparseLeap);
                let skip = rng.geometric(p);
                if skip >= remaining {
                    // The rest of the batch is ineffective; truncating the
                    // geometric at the boundary is exact by memorylessness.
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
                let (r, sa, sb) = {
                    let _pick_span = prof::section_if(pf, Section::LeapPick);
                    let memo = self.memo.as_ref().expect("leaping");
                    let u = rng.below(total);
                    self.leap.pick(memo, &self.occupied, &self.slot_ids, u)
                };
                let (a, b) = (self.occupied[sa].0, self.occupied[sb].0);
                let (a2, b2) = self.protocol.interact_slot(a, b, r, rng);
                if (a2, b2) != (a, b) {
                    let _upkeep_span = prof::section_if(pf, Section::LeapUpkeep);
                    out.changed += 1;
                    self.apply_leap(sa, sb, a2, b2);
                }
                continue;
            }
            let _step_span = prof::section_if(pf, Section::PerStep);
            let [len, seen, _] = self.window;
            let chunk = remaining.min(len - seen);
            let mut changed = 0;
            for _ in 0..chunk {
                changed += u64::from(self.step_once(rng));
            }
            out.executed += chunk;
            out.changed += changed;
            if let Some(t) = &mut tally {
                t.per_steps(chunk);
            }
            self.window[1] += chunk;
            self.window[2] += changed;
            if self.window[1] == len {
                let f = self.window[2] as f64 / len as f64;
                self.window[1] = 0;
                self.window[2] = 0;
                if leaps(f, self.occupied.len(), self.mask_words(), false) {
                    if self.try_leap() {
                        self.window[0] = self.base_window();
                    } else {
                        self.window[0] = (2 * len).min(MAX_WINDOW_GROWTH * self.base_window());
                    }
                }
            }
        }
        self.steps += out.executed;
        if let Some(t) = tally {
            recorder::with(|r| r.record_tallied_batch(&out, &t));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counts::CountPopulation;
    use crate::protocol::{RuleMasks, TableProtocol};
    use crate::sim::{run_rounds, run_until};

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
        // The leap never draws the lone agent against itself either: the
        // one rule slot fires on (1, 1) only, so the population is silent.
        let p = Masked::new(1, vec![[0; 4], [1; 4]]);
        let mut pop = SparseCountPopulation::from_pairs(&p, &[(0, 50), (1, 1)]);
        let out = pop.step_batch(&mut rng, 1_000);
        assert!(out.silent && out.executed == 0, "{out:?}");
    }

    impl<P: Protocol> SparseCountPopulation<P> {
        /// Moves `k` of the agents in `from` to `to` outside the
        /// scheduler (nothing when `from == to`): vacated states are
        /// swap-removed and new states appended, as for interactions.
        fn move_agents(&mut self, from: usize, to: usize, k: u64) {
            assert!(k <= self.count(from));
            if from != to {
                self.add(from, -(k as i64));
                self.add(to, k as i64);
            }
        }

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

        /// The leap's pick at rank `u`.
        fn pick_rank(&mut self, u: u64) -> (usize, usize, usize) {
            let memo = self.memo.as_ref().expect("leaping");
            self.leap.pick(memo, &self.occupied, &self.slot_ids, u)
        }

        /// The slot of each occupied state, by state.
        fn slot_map(&self) -> Vec<(usize, u32)> {
            let mut map: Vec<(usize, u32)> = self
                .occupied
                .iter()
                .map(|&(s, _)| (s, self.slot_of[self.ids[&s] as usize]))
                .collect();
            map.sort_unstable();
            map
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
                pop.move_agents(from, fresh, 1);
            } else {
                let (from, count) = random_slot(&pop, &mut rng);
                let (to, _) = random_slot(&pop, &mut rng);
                pop.move_agents(from, to, count);
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
            pop.move_agents(from, to, amount);
            assert_sampler_matches_reference(&pop);
        }
        assert_eq!(pop.blocks, vec![n]);
    }

    /// `apply`'s removals by sampled slot leave the occupied list,
    /// block sums and slot map exactly as removals by state lookup would,
    /// for every slot pair: swap-removes that move the responder's entry,
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
                assert_eq!(by_slot.slot_map(), by_state.slot_map());
            }
        }
    }

    /// A protocol whose `64 · words` rule slots are given per state as
    /// masks, `[init, init_moves, resp, resp_moves]` per word at
    /// `masks[state · words ..]`; `interact` leaves every pair as it is.
    #[derive(Clone)]
    struct Masked {
        words: usize,
        masks: Vec<[u64; 4]>,
    }

    impl Masked {
        fn new(words: usize, masks: Vec<[u64; 4]>) -> Self {
            assert!(masks.len().is_multiple_of(words));
            Self { words, masks }
        }

        fn of(&self, state: usize) -> &[[u64; 4]] {
            &self.masks[state * self.words..(state + 1) * self.words]
        }
    }

    impl Protocol for Masked {
        fn num_states(&self) -> usize {
            self.masks.len() / self.words
        }
        fn interact(&self, a: usize, b: usize, _rng: &mut SimRng) -> (usize, usize) {
            (a, b)
        }
        fn weight_scale(&self) -> u32 {
            64 * self.words as u32
        }
        fn rule_masks(&self, state: usize) -> Option<RuleMasks> {
            let field = |f: usize| self.of(state).iter().map(|m| m[f]).collect();
            Some(RuleMasks {
                init: field(0),
                init_moves: field(1),
                resp: field(2),
                resp_moves: field(3),
            })
        }
    }

    /// Over every rank `u < W`, the leap's pick lands on each rule slot
    /// `r`, initiator state `a` and responder state `b` exactly
    /// `c_a c'_b [r effective on (a, b)]` times (`c'` without one agent of
    /// `a`), effectiveness read from the protocol's own masks, so each
    /// triple has probability `c_a c'_b / W`; and the slot counts and every
    /// built rule slot's members equal a recount. With one-word and
    /// three-word masks over a few states, and one-word masks over more
    /// than two member words of occupied states; from the first build and
    /// after leap-mode moves that empty, refill and append slots, reach
    /// states not interned before and swap the last slot across member
    /// words, with some rule slots' members built before the moves and
    /// others first built after them.
    #[test]
    fn leap_sampler_draws_pairs_by_exact_weight() {
        /// Sweeps every rank on a copy, which builds the members of every
        /// rule slot with a positive weight.
        fn check<P: Protocol + Clone>(pop: &SparseCountPopulation<P>) {
            assert!(pop.leap_is_consistent(), "slot counts drifted");
            let mut pop = pop.clone();
            let slots = 64 * pop.memo.as_ref().expect("memo").words;
            let masks: Vec<_> = pop
                .occupied
                .iter()
                .map(|&(s, _)| pop.protocol.rule_masks(s).expect("masks"))
                .collect();
            let mut want = std::collections::BTreeMap::new();
            for (a, &(sa, ca)) in pop.occupied.iter().enumerate() {
                for (b, &(sb, cb)) in pop.occupied.iter().enumerate() {
                    let pairs = ca * (cb - u64::from(a == b));
                    for r in 0..slots {
                        if pairs > 0 && RuleMasks::effective(&masks[a], &masks[b], r) {
                            want.insert((r, sa, sb), pairs);
                        }
                    }
                }
            }
            assert_eq!(pop.leap.total, want.values().sum::<u64>(), "W");
            let mut got = std::collections::BTreeMap::new();
            for u in 0..pop.leap.total {
                let (r, a, b) = pop.pick_rank(u);
                *got.entry((r, pop.occupied[a].0, pop.occupied[b].0))
                    .or_insert(0u64) += 1;
            }
            assert_eq!(got, want, "ranks per (slot, initiator, responder)");
            assert!(pop.leap_is_consistent(), "members built by the sweep");
        }
        /// Occupies the first `start` even states with 1 to `max_count`
        /// agents each (odd states start empty, so the moves intern them
        /// mid-leap), then makes `moves` leap-mode moves, checking every
        /// `every` of them.
        fn run<P: Protocol + Clone>(
            p: P,
            start: usize,
            max_count: u64,
            moves: usize,
            every: usize,
        ) {
            let k = p.num_states();
            let pairs: Vec<(usize, u64)> = (0..k)
                .step_by(2)
                .take(start)
                .map(|s| (s, 1 + (s as u64 * 7) % max_count))
                .collect();
            let mut pop = SparseCountPopulation::from_pairs(p, &pairs);
            pop.build_leap().expect("the protocol has rule masks");
            let mut rng = SimRng::seed_from(0x1ea9);
            // Some rule slots' members are built before any move.
            for _ in 0..3 {
                pop.pick_rank(rng.below(pop.leap.total));
            }
            check(&pop);
            let mut crossings = 0;
            for step in 0..moves {
                let len = pop.occupied.len();
                // Every other move empties a one-agent slot of the first
                // member word when it can: the last slot then moves into
                // it, from another member word once more than 64 are
                // occupied.
                let lone = (step % 2 == 0)
                    .then(|| (0..len.min(64)).find(|&s| pop.occupied[s].1 == 1))
                    .flatten();
                let sa = lone.unwrap_or_else(|| rng.index(len));
                crossings += usize::from(lone.is_some() && len > 64);
                let sb = loop {
                    let sb = rng.index(len);
                    if sb != sa || pop.occupied[sa].1 > 1 {
                        break sb;
                    }
                };
                let (a2, b2) = (rng.index(k), rng.index(k));
                pop.apply_leap(sa, sb, a2, b2);
                // A random pick builds members after the moves so far.
                if pop.leap.total > 0 {
                    pop.pick_rank(rng.below(pop.leap.total));
                }
                if (step + 1) % every == 0 {
                    assert!(start <= 128 || pop.occupied.len() > 128, "fewer words");
                    check(&pop);
                }
            }
            assert!(start <= 64 || crossings > 0, "no swap crossed a word");
        }
        let mut rng = SimRng::seed_from(0x3a5c);
        let mut random_masks = |states: usize, words: usize, sparse: bool| {
            let mut mask = || {
                if sparse {
                    rng.next_u64() & rng.next_u64()
                } else {
                    rng.next_u64()
                }
            };
            let masks = (0..states * words)
                .map(|_| [0; 4].map(|_: u64| mask()))
                .collect();
            Masked::new(words, masks)
        };
        for words in [1, 3] {
            run(random_masks(6, words, false), 3, 4, 60, 1);
        }
        let wide = random_masks(400, 1, true);
        run(&wide, 150, 3, 30, 10);
    }

    /// At n = 2 one effective step can empty every occupied slot before
    /// the step's additions refill any; the built members must still
    /// follow the occupied list, whether the two agents leave two states
    /// or one.
    #[test]
    fn leap_at_two_agents_survives_emptying_every_slot() {
        let p = Masked::new(1, vec![[1; 4]; 4]);
        for (start, (a2, b2)) in [(vec![(0, 1), (1, 1)], (2, 3)), (vec![(0, 2)], (1, 1))] {
            let mut pop = SparseCountPopulation::from_pairs(&p, &start);
            pop.build_leap().expect("the protocol has rule masks");
            pop.pick_rank(0);
            assert_ne!(pop.leap.built, [0], "the pick built its slot's members");
            pop.apply_leap(0, start.len() - 1, a2, b2);
            assert_eq!(pop.leap.covered, pop.occupied.len());
            assert!(pop.leap_is_consistent());
        }
    }

    /// The initiator steps forward around a cycle of `k` states.
    #[derive(Clone)]
    struct Drift(usize);

    impl Protocol for Drift {
        fn num_states(&self) -> usize {
            self.0
        }
        fn interact(&self, a: usize, b: usize, _rng: &mut SimRng) -> (usize, usize) {
            ((a + 1) % self.0, b)
        }
    }

    /// `run_on` hands back the configuration of a fresh run from the same
    /// start and seed: the occupied states in ascending order, each with a
    /// nonzero count, those that emptied dropped and those first reached
    /// added; and its next run continues from a configuration edited in
    /// between.
    #[test]
    fn run_on_hands_back_a_fresh_run() {
        let k = 600;
        let start: Vec<(usize, u64)> = (0..k).step_by(97).map(|s| (s, 1 + s as u64 % 3)).collect();
        let n: u64 = start.iter().map(|&(_, c)| c).sum();
        let fresh_run = |pairs: &[(usize, u64)], rounds: f64, rng: &mut SimRng| {
            let mut fresh = SparseCountPopulation::from_pairs(Drift(k), pairs);
            run_rounds(&mut fresh, rounds, rng);
            fresh.occupied.sort_unstable();
            fresh.occupied
        };
        let assert_well_formed = |pairs: &[(usize, u64)]| {
            assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0), "ascending");
            assert!(pairs.iter().all(|&(_, c)| c > 0), "nonzero");
            assert_eq!(pairs.iter().map(|&(_, c)| c).sum::<u64>(), n);
        };
        let mut site = SparseCountPopulation::from_pairs(Drift(k), &start);
        let mut pairs = start.clone();
        let mut rng = SimRng::seed_from(11);
        site.run_on(&mut pairs, 3 * n, &mut rng);
        assert_well_formed(&pairs);
        assert_eq!(pairs, fresh_run(&start, 3.0, &mut SimRng::seed_from(11)));
        let held = |pairs: &[(usize, u64)], s: usize| pairs.iter().any(|&(t, _)| t == s);
        assert!(
            start.iter().any(|&(s, _)| !held(&pairs, s)),
            "a state emptied"
        );
        assert!(
            pairs.iter().any(|&(s, _)| !held(&start, s)),
            "a state was reached"
        );
        // Move everyone to state 0; the next run starts from there, and a
        // zero count names no occupied state.
        let edited = [(0, n), (1, 0)];
        let expected = fresh_run(&edited, 1.0, &mut rng.clone());
        pairs = edited.to_vec();
        site.run_on(&mut pairs, n, &mut rng);
        assert_well_formed(&pairs);
        assert_eq!(pairs, expected);
    }

    /// A protocol without rule masks never leaps, however rarely its steps
    /// change anything.
    #[test]
    fn maskless_protocol_stays_per_step() {
        let p = TableProtocol::new(3, "rare").rule(1, 2, 2, 2);
        let mut pop = SparseCountPopulation::from_pairs(&p, &[(0, 500), (1, 1), (2, 1)]);
        let mut rng = SimRng::seed_from(7);
        for _ in 0..20 {
            pop.step_batch(&mut rng, 1_000);
            assert!(pop.memo.is_none() && !pop.leap.live);
            assert_ne!(pop.regime, Regime::Leap);
        }
    }
}
