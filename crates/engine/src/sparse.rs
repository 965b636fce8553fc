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
//!   initiator and the responder by bit-filtered scans of the occupied
//!   list — and calls [`Protocol::interact_slot`]. By the slot contract
//!   this is the law of the stepped chain (thinning; DESIGN.md §9). A
//!   change costs `O(set bits)` upkeep: an agent's move shifts only the
//!   counts of the rule slots whose class bits differ between its two
//!   states.
//!
//! Only a protocol with rule masks leaps; any other stays per step. A
//! state's masks are asked for at most once over the population's life,
//! which [`SparseCountPopulation::run_on`] preserves across the runs of a
//! program site.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::json::Json;
use crate::prof::{self, Section};
use crate::protocol::Protocol;
use crate::recorder::{self, BatchTally};
use crate::rng::SimRng;
use crate::sim::{run_rounds, BatchOutcome, Simulator, StepOutcome};
use crate::snapshot::{hex_u64, parse_hex_u64};

/// Occupied slots per block of the per-step sampler's second level. With
/// at most this many occupied states there is one block, and a draw is the
/// plain linear scan plus one compare.
const SLOT_BLOCK: usize = 32;

/// `slot_of` entry of an interned state that is not occupied.
const NO_SLOT: u32 = u32::MAX;

/// Occupied-slot visits one leap event costs beyond its two bit-filtered
/// scans of the occupied list: the geometric draw, the rule-slot pick,
/// the slot's interaction and the write-back with its slot-count upkeep,
/// for rule masks of one word.
const LEAP_EVENT_SLOTS: f64 = 80.0;

/// Occupied-slot visits each further mask word adds to a leap event: the
/// slot-count upkeep and the guard-class columns visit every word of the
/// moved states.
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

/// The `(state, count)` pairs of a dense count vector's nonzero entries,
/// in ascending state order.
fn dense_pairs(counts: &[u64]) -> Vec<(usize, u64)> {
    // Wide flag spaces are mostly zeros: one OR over a chunk skips it
    // before any single count is looked at.
    const CHUNK: usize = 16;
    let mut pairs = Vec::new();
    for (j, chunk) in counts.chunks(CHUNK).enumerate() {
        if chunk.iter().fold(0, |acc, &c| acc | c) == 0 {
            continue;
        }
        let occupied = chunk.iter().enumerate().filter(|&(_, &c)| c > 0);
        pairs.extend(occupied.map(|(i, &c)| (j * CHUNK + i, c)));
    }
    pairs
}

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

/// The leap regime's per-rule-slot agent counts, valid while leaping.
/// Sized by the rule slots (`64 · words`), not by the occupied states.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SlotCounts {
    /// Per rule slot: the agents in `[IM, I0, B, BM, IM ∩ B, I0 ∩ BM]`.
    counts: Vec<[u64; 6]>,
    /// `W_r` per rule slot.
    weights: Vec<u64>,
    /// `Σ W_r` per mask word.
    word_totals: Vec<u64>,
    /// Per mask word, each occupied slot's guard classes, parallel to the
    /// occupied list: the scans' contiguous rows.
    columns: Vec<Vec<[u64; 4]>>,
    /// `W = Σ_r W_r`.
    total: u64,
}

impl SlotCounts {
    /// Counts the occupied states from scratch, `O(occupied · words)` plus
    /// one visit per set class bit.
    fn build(memo: &Memo, occupied: &[(usize, u64)], ids: &[u32]) -> Self {
        let words = memo.words;
        let columns: Vec<Vec<[u64; 4]>> = (0..words)
            .map(|w| {
                ids.iter()
                    .map(|&id| memo.classes[id as usize * words + w])
                    .collect()
            })
            .collect();
        let mut leap = Self {
            counts: vec![[0; 6]; words * 64],
            weights: vec![0; words * 64],
            word_totals: vec![0; words],
            columns: Vec::new(),
            total: 0,
        };
        for (w, column) in columns.iter().enumerate() {
            let mut touched = 0;
            for (&classes, &(_, c)) in column.iter().zip(occupied) {
                touched |= leap.add_state(w, classes, c);
            }
            leap.reweigh(w, touched);
        }
        leap.columns = columns;
        leap
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

    /// The effective step of rank `u < W`: its rule slot, initiator slot
    /// and responder slot, each `(r, a, b)` of weight `c_a c'_b` taking
    /// that many ranks (`c'` without one agent of the initiator's state).
    /// The rank picks `r` under `W_r` and one of its two terms, then the
    /// initiator under `c_a · (|Y| − [a ∈ Y])` among the term's initiator
    /// class, `Y` its responder class; what is left of the rank, modulo
    /// `|Y| − [a ∈ Y]`, picks the responder among `Y`. One bit-filtered
    /// scan of the occupied list each.
    fn pick(&self, occupied: &[(usize, u64)], mut u: u64) -> (usize, usize, usize) {
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
        let bit = 1u64 << (r % 64);
        let column = &self.columns[w];
        let rows = column.iter().zip(occupied).enumerate();
        let (sa, others) = rows
            .clone()
            .filter(|(_, (classes, _))| classes[init] & bit != 0)
            .find_map(|(slot, (classes, &(_, count)))| {
                let others = size - u64::from(classes[resp] & bit != 0);
                let m = count * others;
                if u < m {
                    return Some((slot, others));
                }
                u -= m;
                None
            })
            .expect("rank exceeded W");
        let mut v = u % others;
        let sb = rows
            .filter(|(_, (classes, _))| classes[resp] & bit != 0)
            .find_map(|(slot, (_, &(_, count)))| {
                let m = count - u64::from(slot == sa);
                if v < m {
                    return Some(slot);
                }
                v -= m;
                None
            })
            .expect("rank exceeded the responder class");
        (r, sa, sb)
    }
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

impl Regime {
    fn name(self) -> &'static str {
        match self {
            Regime::Undecided => "undecided",
            Regime::PerStep => "per_step",
            Regime::Leap => "leap",
        }
    }

    fn parse(name: &str) -> Option<Self> {
        [Regime::Undecided, Regime::PerStep, Regime::Leap]
            .into_iter()
            .find(|r| r.name() == name)
    }
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
/// leaps over the ineffective ones at two bit-filtered `O(occupied)` scans
/// and `O(set bits)` upkeep per effective step (see the module
/// documentation).
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
    /// Present while leaping; dropped by out-of-band edits.
    leap: Option<SlotCounts>,
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
            leap: None,
            regime: Regime::Undecided,
            window: [0; 3],
        };
        if let Err(e) = pop.fill(pairs) {
            panic!("{e}");
        }
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
        Self::from_pairs(protocol, &dense_pairs(counts))
    }

    /// Runs the protocol for `rounds` parallel rounds on the dense count
    /// vector `counts`, in place: the run of a program site, which keeps
    /// one population across runs on counts changed in between. The
    /// population takes over `counts`, occupied in ascending state order
    /// as [`SparseCountPopulation::from_dense`] would, but keeps its
    /// interned states, their guard-class memo, the regime and the step
    /// count, so set-up and write-back cost `O(occupied)`. A caller that
    /// tracks its occupied states passes them as `occupied`, in ascending
    /// order, and gets them back updated; without them the run finds them
    /// with one scan of `counts`.
    ///
    /// # Panics
    ///
    /// Panics if `counts` holds fewer than 2 agents or occupies a state
    /// the protocol does not have.
    pub fn run_on(
        &mut self,
        counts: &mut [u64],
        occupied: Option<&mut Vec<usize>>,
        rounds: f64,
        rng: &mut SimRng,
    ) {
        let pairs = match &occupied {
            Some(occupied) => occupied.iter().map(|&s| (s, counts[s])).collect(),
            None => dense_pairs(counts),
        };
        for &id in &self.slot_ids {
            self.slot_of[id as usize] = NO_SLOT;
        }
        self.occupied.clear();
        self.slot_ids.clear();
        self.leap = None;
        if let Err(e) = self.fill(&pairs) {
            panic!("{e}");
        }
        for &(s, _) in &pairs {
            counts[s] = 0;
        }
        run_rounds(self, rounds, rng);
        for &(state, count) in &self.occupied {
            counts[state] = count;
        }
        if let Some(occupied) = occupied {
            occupied.clear();
            occupied.extend(self.occupied.iter().map(|&(s, _)| s));
            occupied.sort_unstable();
        }
    }

    /// Occupies `pairs` in order on an empty occupied list and sets `n`.
    fn fill(&mut self, pairs: &[(usize, u64)]) -> Result<(), String> {
        let k = self.protocol.num_states();
        let mut n = 0u64;
        for &(state, count) in pairs {
            if state >= k {
                return Err(format!("state {state} out of range (k = {k})"));
            }
            if count == 0 {
                continue;
            }
            let id = self.intern(state);
            if self.slot_of[id as usize] != NO_SLOT {
                return Err(format!("state {state} listed twice"));
            }
            self.slot_of[id as usize] = self.occupied.len() as u32;
            self.occupied.push((state, count));
            self.slot_ids.push(id);
            n += count;
        }
        if n < 2 {
            return Err("population must have at least 2 agents".to_string());
        }
        self.blocks = block_sums(&self.occupied);
        self.n = n;
        Ok(())
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
    /// returns the state's interned id. An appended slot's guard-class
    /// columns are the leap's to fill ([`Self::apply_leap`]).
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
        if let Some(leap) = &mut self.leap {
            for column in &mut leap.columns {
                column.swap_remove(slot);
            }
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
        let leap = SlotCounts::build(memo, &self.occupied, &self.slot_ids);
        let total = leap.total;
        self.leap = Some(leap);
        Some(total)
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
            self.leap = None;
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
        self.leap = None;
        self.regime = Regime::PerStep;
        self.window = [self.base_window(), 0, 0];
    }

    /// [`SparseCountPopulation::apply`] plus the slot-count upkeep: the
    /// appended slots' guard classes join the columns, then each of the
    /// two moves shifts the counts of the rule slots whose class bits
    /// differ between its two states, and those slots' `W_r` are
    /// recomputed. `O(set bits)` per move, whatever the occupancy.
    fn apply_leap(&mut self, sa: usize, sb: usize, a2: usize, b2: usize) {
        let (ia, ib) = (self.slot_ids[sa], self.slot_ids[sb]);
        let (ia2, ib2) = self.apply(sa, sb, a2, b2);
        let kept = self.leap.as_ref().expect("leaping").columns[0].len();
        for slot in kept..self.occupied.len() {
            let id = self.slot_ids[slot];
            self.cover(id);
            let memo = self.memo.as_ref().expect("memo covers the occupied states");
            let leap = self.leap.as_mut().expect("leaping");
            let classes = &memo.classes[id as usize * memo.words..];
            for (column, &c) in leap.columns.iter_mut().zip(classes) {
                column.push(c);
            }
        }
        let memo = self.memo.as_ref().expect("memo covers the occupied states");
        let leap = self.leap.as_mut().expect("leaping");
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

    /// Debug check: the slot counts, their weights and columns equal a
    /// recount from scratch.
    fn leap_is_consistent(&self) -> bool {
        self.leap.as_ref().is_none_or(|leap| {
            let memo = self.memo.as_ref().expect("memo covers the occupied states");
            *leap == SlotCounts::build(memo, &self.occupied, &self.slot_ids)
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

    /// Adjusts the occupied-state list directly; vacated states are
    /// swap-removed and new states appended, as for interactions. Drops
    /// the leap's slot counts, which the next batch rebuilds.
    fn migrate(&mut self, from: usize, to: usize, k: u64) -> u64 {
        let states = self.protocol.num_states();
        assert!(from < states, "migrate source state out of range");
        assert!(to < states, "migrate target state out of range");
        let moved = k.min(self.count(from));
        if from == to || moved == 0 {
            return 0;
        }
        self.leap = None;
        self.add(from, -(moved as i64));
        self.add(to, moved as i64);
        moved
    }

    fn step(&mut self, rng: &mut SimRng) -> StepOutcome {
        // A lone step keeps no slot counts; the next batch rebuilds them.
        self.leap = None;
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
        if self.regime == Regime::Undecided || (self.regime == Regime::Leap && self.leap.is_none())
        {
            self.try_leap();
        }
        let draws = self.pair_draws().unwrap_or(u64::MAX);
        let mut tally = cap.on.then(|| {
            BatchTally::sparse(
                self.n,
                self.occupied.len() as u64,
                self.leap.as_ref().map(|l| l.total),
                u64::from(self.protocol.weight_scale().max(1)),
            )
        });
        while out.executed < max_steps {
            let remaining = max_steps - out.executed;
            if self.regime == Regime::Leap {
                if self.leap.is_none() && !self.try_leap() {
                    continue;
                }
                let total = self.leap.as_ref().expect("leaping").total;
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
                    let leap = self.leap.as_ref().expect("leaping");
                    leap.pick(&self.occupied, rng.below(total))
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
        match tally {
            Some(t) => {
                recorder::with(|r| r.record_tallied_batch(&out, &t));
            }
            None => recorder::record_batch(&out),
        }
        out
    }

    fn backend_tag(&self) -> &'static str {
        "sparse"
    }

    /// Serializes the occupied list *in insertion order*, the step counter,
    /// the regime and the per-step window. The order is RNG-visible —
    /// both samplers map ranks in it and `add` swap-removes vacated
    /// entries — and so are the regime and window, which decide when the
    /// population leaps. The interned ids, the guard-class memo, the slot
    /// counts and the block sums are derived and RNG-free, so they are
    /// rebuilt.
    fn snapshot(&self) -> Result<Json, String> {
        Ok(Json::obj([
            (
                "occupied",
                Json::Arr(
                    self.occupied
                        .iter()
                        .map(|&(s, c)| Json::Arr(vec![Json::from(s as u64), hex_u64(c)]))
                        .collect(),
                ),
            ),
            ("steps", hex_u64(self.steps)),
            ("regime", Json::from(self.regime.name())),
            (
                "window",
                Json::Arr(self.window.iter().map(|&w| hex_u64(w)).collect()),
            ),
        ]))
    }

    fn restore(&mut self, state: &Json) -> Result<(), String> {
        let arr = state
            .get("occupied")
            .and_then(Json::as_arr)
            .ok_or("sparse snapshot missing occupied list")?;
        let steps = parse_hex_u64(state.get("steps").unwrap_or(&Json::Null))?;
        let regime = state
            .get("regime")
            .and_then(Json::as_str)
            .and_then(Regime::parse)
            .ok_or("sparse snapshot missing its regime")?;
        let window = state
            .get("window")
            .and_then(Json::as_arr)
            .filter(|w| w.len() == 3)
            .ok_or("sparse snapshot window needs 3 entries")?;
        let window = [
            parse_hex_u64(&window[0])?,
            parse_hex_u64(&window[1])?,
            parse_hex_u64(&window[2])?,
        ];
        if window[0] == 0 || window[1] >= window[0] || window[2] > window[1] {
            return Err("sparse snapshot window is inconsistent".to_string());
        }
        let mut pairs = Vec::with_capacity(arr.len());
        for j in arr {
            let pair = j
                .as_arr()
                .filter(|p| p.len() == 2)
                .ok_or("bad occupied entry")?;
            let s = pair[0].as_u64().ok_or("occupied state is not an integer")? as usize;
            let c = parse_hex_u64(&pair[1])?;
            if c == 0 {
                return Err(format!("occupied state {s} empty"));
            }
            pairs.push((s, c));
        }
        let total: u64 = pairs.iter().map(|&(_, c)| c).sum();
        if total != self.n {
            return Err(format!(
                "snapshot population {total} does not match simulator population {}",
                self.n
            ));
        }
        // Fill a scratch copy so a bad list leaves the simulator untouched.
        let mut restored = SparseCountPopulation {
            protocol: &self.protocol,
            occupied: Vec::new(),
            slot_ids: Vec::new(),
            blocks: Vec::new(),
            ids: self.ids.clone(),
            states: self.states.clone(),
            slot_of: vec![NO_SLOT; self.states.len()],
            n: 0,
            steps: 0,
            memo: None,
            leap: None,
            regime,
            window,
        };
        restored.fill(&pairs)?;
        let SparseCountPopulation {
            occupied,
            slot_ids,
            blocks,
            ids,
            states,
            slot_of,
            ..
        } = restored;
        self.occupied = occupied;
        self.slot_ids = slot_ids;
        self.blocks = blocks;
        self.ids = ids;
        self.states = states;
        self.slot_of = slot_of;
        self.leap = None;
        self.steps = steps;
        self.regime = regime;
        self.window = window;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counts::CountPopulation;
    use crate::protocol::{RuleMasks, TableProtocol};
    use crate::sim::run_until;

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
                assert_eq!(pop.migrate(from, fresh, 1), 1);
            } else {
                let (from, count) = random_slot(&pop, &mut rng);
                let (to, _) = random_slot(&pop, &mut rng);
                pop.migrate(from, to, count);
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
            pop.migrate(from, to, amount);
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
    /// triple has probability `c_a c'_b / W`; and the slot counts equal a
    /// recount. With one-word and three-word masks, from the first build
    /// and after leap-mode moves that empty, refill and append slots and
    /// reach states not interned before.
    #[test]
    fn leap_sampler_draws_pairs_by_exact_weight() {
        fn check<P: Protocol>(pop: &SparseCountPopulation<P>) {
            assert!(pop.leap_is_consistent(), "slot counts drifted");
            let leap = pop.leap.as_ref().expect("leaping");
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
            assert_eq!(leap.total, want.values().sum::<u64>(), "W");
            let mut got = std::collections::BTreeMap::new();
            for u in 0..leap.total {
                let (r, a, b) = leap.pick(&pop.occupied, u);
                *got.entry((r, pop.occupied[a].0, pop.occupied[b].0))
                    .or_insert(0u64) += 1;
            }
            assert_eq!(got, want, "ranks per (slot, initiator, responder)");
        }
        fn run<P: Protocol>(p: P) {
            let k = p.num_states();
            // Odd states start empty, so the moves intern them mid-leap.
            let pairs: Vec<(usize, u64)> = (0..k)
                .step_by(2)
                .map(|s| (s, 2 + (s as u64 * 7) % 4))
                .collect();
            let mut pop = SparseCountPopulation::from_pairs(p, &pairs);
            pop.build_leap().expect("the protocol has rule masks");
            check(&pop);
            let mut rng = SimRng::seed_from(0x1ea9);
            for _ in 0..60 {
                let sa = rng.index(pop.occupied.len());
                let sb = loop {
                    let sb = rng.index(pop.occupied.len());
                    if sb != sa || pop.occupied[sa].1 > 1 {
                        break sb;
                    }
                };
                let (a2, b2) = (rng.index(k), rng.index(k));
                pop.apply_leap(sa, sb, a2, b2);
                check(&pop);
            }
        }
        let mut rng = SimRng::seed_from(0x3a5c);
        for words in [1, 3] {
            let masks = (0..6 * words)
                .map(|_| [0; 4].map(|_: u64| rng.next_u64()))
                .collect();
            run(Masked::new(words, masks));
        }
    }

    /// At n = 2 one effective step can empty every occupied slot before
    /// the step's additions refill any; the guard-class columns must still
    /// follow the occupied list, whether the two agents leave two states
    /// or one.
    #[test]
    fn leap_at_two_agents_survives_emptying_every_slot() {
        let p = Masked::new(1, vec![[1; 4]; 4]);
        for (start, (a2, b2)) in [(vec![(0, 1), (1, 1)], (2, 3)), (vec![(0, 2)], (1, 1))] {
            let mut pop = SparseCountPopulation::from_pairs(&p, &start);
            pop.build_leap().expect("the protocol has rule masks");
            pop.apply_leap(0, start.len() - 1, a2, b2);
            let leap = pop.leap.as_ref().expect("leaping");
            assert_eq!(leap.columns[0].len(), pop.occupied.len());
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

    /// `run_on` leaves exactly the counts of a fresh run from the same
    /// start and seed, in place, with its occupied states tracked or not,
    /// and its next run continues from counts edited in between.
    #[test]
    fn run_on_writes_back_a_fresh_run() {
        let k = 600;
        let occupied = |counts: &[u64]| (0..k).filter(|&s| counts[s] > 0).collect::<Vec<_>>();
        let mut counts = vec![0u64; k];
        for s in (0..k).step_by(97) {
            counts[s] = 1 + s as u64 % 3;
        }
        let mut reference = SparseCountPopulation::from_dense(Drift(k), &counts);
        run_rounds(&mut reference, 3.0, &mut SimRng::seed_from(11));
        let mut site = SparseCountPopulation::from_dense(Drift(k), &counts);
        let mut occ = occupied(&counts);
        let mut rng = SimRng::seed_from(11);
        site.run_on(&mut counts, Some(&mut occ), 3.0, &mut rng);
        assert_eq!(counts, reference.to_dense());
        assert_eq!(occ, occupied(&counts));
        // Move everyone to state 0; the next run starts from there.
        let n: u64 = counts.iter().sum();
        counts.iter_mut().for_each(|c| *c = 0);
        counts[0] = n;
        let mut fresh = SparseCountPopulation::from_dense(Drift(k), &counts);
        let mut fresh_rng = rng.clone();
        run_rounds(&mut fresh, 1.0, &mut fresh_rng);
        occ = vec![0];
        site.run_on(&mut counts, Some(&mut occ), 1.0, &mut rng);
        assert_eq!(counts, fresh.to_dense());
        assert_eq!(occ, occupied(&counts));
        // A caller that does not track its occupied states gets the same
        // run from the same start.
        let before = counts.clone();
        let mut untracked = site.clone();
        let mut untracked_counts = counts.clone();
        let mut untracked_rng = rng.clone();
        site.run_on(&mut counts, Some(&mut occ), 1.0, &mut rng);
        untracked.run_on(&mut untracked_counts, None, 1.0, &mut untracked_rng);
        assert_ne!(counts, before);
        assert_eq!(untracked_counts, counts);
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
            assert!(pop.memo.is_none() && pop.leap.is_none());
            assert_ne!(pop.regime, Regime::Leap);
        }
    }

    #[test]
    fn migrate_updates_occupied_list() {
        let p = epidemic();
        let mut pop = SparseCountPopulation::from_pairs(&p, &[(0, 6), (1, 2)]);
        assert_eq!(pop.migrate(0, 1, 6), 6, "vacating a state is allowed");
        assert_eq!(pop.occupied_states(), 1);
        assert_eq!(pop.count(1), 8);
        assert_eq!(pop.migrate(1, 0, 3), 3, "repopulating a state re-adds it");
        assert_eq!(pop.occupied_states(), 2);
        assert_eq!(pop.migrate(0, 0, 2), 0);
        assert_eq!(pop.steps(), 0);
    }
}
