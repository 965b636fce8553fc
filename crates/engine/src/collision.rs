//! Exact multibatch stepping for reactive-dense regimes.
//!
//! The uniform scheduler picks an ordered pair of distinct agents per
//! interaction. Within a batch of `L` interactions, call an agent *touched*
//! once some interaction of the batch has picked it. An interaction between
//! two untouched agents cannot observe any earlier interaction of the batch,
//! so [`run_epoch`] does not look at its states: it only counts it as a
//! *deferred* pair. The runs of such interactions have an exact law that
//! depends only on the number `r` of touched agents, and [`BirthdayCdf`]
//! inverts it from one prefix table per `n`. An interaction that picks a
//! touched agent (a collision) is settled on the spot: a touched agent that
//! sits in a deferred pair first reveals that pair, whose two agents are
//! drawn without replacement from the urn of unrevealed batch-start states.
//! At the end of the batch the pairs still deferred are a uniform
//! without-replacement sample of that urn, paired off uniformly, so their
//! aggregate is the `q×q` contingency table the margins/rows/settle chain
//! samples. The post-batch counts have exactly the sequential law;
//! DESIGN.md §12 gives the argument. A round of the random-matching
//! scheduler is that settle step alone, with every agent in a deferred
//! pair ([`run_matching_round`]).
//!
//! A batch holds `L = min(c·√(n·q), n/2)` interactions ([`batch_len`]): its
//! table costs `O(q²)` draws once, and its `≈ 2L²/n` collisions `O(q)`
//! each. `CountPopulation` routes through this module when the
//! configuration is reactive-dense enough that no-op leaping stops paying
//! (see its three-regime dispatch); the chi-square suite in
//! `tests/backend_equivalence.rs` and the exact transient oracle in
//! `tests/exact_transient.rs` pin the step-vs-batch equivalence.

use crate::prof::{self, Section};
use crate::protocol::Protocol;
use crate::rng::SimRng;

/// The constant `c` of the batch length `L = c·√(n·q)`. Measured on the
/// oscillator and `dense_cycle3` rows (DESIGN.md §12).
const BATCH_LEN_FACTOR: f64 = 1.0;

/// Occupied-state count above which [`batch_len`] stops growing with `q`,
/// which bounds the free-run table at `2c·√(64n)` entries per `n`.
const BATCH_MAX_STATES: usize = 64;

/// Interactions per batch for `n` agents in `occupied` states at batch
/// start: `⌈c·√(n·q)⌉` with `q` clamped to `1..=64`, and at most `n/2`, so
/// a batch never draws more agents than the population holds.
#[must_use]
pub fn batch_len(n: u64, occupied: usize) -> u64 {
    let q = occupied.clamp(1, BATCH_MAX_STATES) as f64;
    let l = (BATCH_LEN_FACTOR * (n as f64 * q).sqrt()).ceil() as u64;
    l.min(n / 2).max(1)
}

/// The exact law of collision-free runs for a fixed population size `n`.
///
/// With `r` agents touched, an interaction picks two untouched agents with
/// probability `f(r) = (n−r)(n−r−1)/(n(n−1))`, after which `r + 2` are
/// touched, so a run of such interactions is at least `m` long with
/// probability `∏_{t<m} f(r+2t)`. The table holds, for every `r`, the
/// prefix sum of `ln f` over the indices below `r` of `r`'s parity (even
/// and odd `r` interleave), so one uniform and a short search over the
/// entries `r, r+2, …` invert the run length from any `r`. It is keyed only
/// on `n`, covers every batch [`batch_len`] allows, and serves a
/// population for its whole lifetime.
#[derive(Debug, Clone)]
pub struct BirthdayCdf {
    n: u64,
    /// `ln_run[r] = Σ ln f(j)` over `j < r`, `j ≡ r (mod 2)`; `−∞` once
    /// fewer than two untouched agents remain.
    ln_run: Vec<f64>,
}

impl BirthdayCdf {
    /// Builds the table for population size `n`: `2·batch_len(n, 64) + 1`
    /// entries, `O(√n)` time and memory.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` (the scheduler needs two distinct agents).
    #[must_use]
    pub fn new(n: u64) -> Self {
        assert!(n >= 2, "birthday process needs at least two agents");
        let len = 2 * batch_len(n, BATCH_MAX_STATES) as usize + 1;
        let pairs = (n as f64) * (n - 1) as f64;
        // f(j) − 1 = −j(2n − j − 1)/(n(n − 1)), to f64 rounding.
        let ln_f = |j: u64| {
            if j + 1 >= n {
                f64::NEG_INFINITY
            } else {
                (-(j as f64) * (2 * n - j - 1) as f64 / pairs).ln_1p()
            }
        };
        let mut ln_run = vec![0.0f64; len];
        for r in 2..len {
            ln_run[r] = ln_run[r - 2] + ln_f(r as u64 - 2);
        }
        Self { n, ln_run }
    }

    /// The population size this table was built for.
    #[must_use]
    pub fn n(&self) -> u64 {
        self.n
    }

    /// `E[T]/2`, the expected number of interactions before the first one
    /// that picks an agent picked before (see [`BirthdayCdf::sample_t`]).
    #[must_use]
    pub fn expected_interactions(&self) -> f64 {
        self.expected_t() / 2.0
    }

    /// `E[T] = Σ_{t ≥ 1} P(T ≥ t)`: `T ≥ 2m` iff the first `m` interactions
    /// pick fresh pairs, and `T ≥ 2m + 1` iff the next initiator is fresh
    /// too, with probability `(n − 2m)/n`.
    fn expected_t(&self) -> f64 {
        let nf = self.n as f64;
        let mut expected_t = 0.0f64;
        for m in 0..=self.ln_run.len() / 2 {
            let survive = self.ln_run[2 * m].exp();
            if m > 0 {
                expected_t += survive;
            }
            expected_t += survive * (nf - 2.0 * m as f64).max(0.0) / nf;
        }
        expected_t
    }

    /// Draws `T`, the number of fresh single-agent draws (initiator,
    /// responder, initiator, …) the scheduler makes before its first
    /// repeat (always ≥ 2): a free run from `r = 0`, plus one when the
    /// colliding interaction's initiator is fresh. Runs longer than the
    /// table are cut at its end, a tail of mass `e^{−128c²}` at large `n`
    /// and none at `n ≤ 256c²`.
    #[must_use]
    pub fn sample_t(&self, rng: &mut SimRng) -> u64 {
        let m = self.free_run(0, self.ln_run.len() as u64 / 2, rng);
        let r = 2 * m;
        let n = self.n;
        // Given a collision at r touched, the initiator is fresh (and the
        // responder touched) with weight (n−r)·r out of r(2n−r−1).
        r + u64::from(rng.below(2 * n - r - 1) < n.saturating_sub(r))
    }

    /// Draws the number of consecutive interactions, capped at `cap ≥ 1`,
    /// that pick two untouched agents when `r` agents are touched.
    fn free_run(&self, r: u64, cap: u64, rng: &mut SimRng) -> u64 {
        let r = r as usize;
        let cap = cap as usize;
        debug_assert!(r + 2 * cap < self.ln_run.len(), "batch exceeds the table");
        // The run is ≥ m iff u < ∏ f, i.e. ln_run[r + 2m] > ln_run[r] + ln u.
        let tail = -rng.f64().ln();
        let target = self.ln_run[r] - tail;
        let longer = |m: usize| self.ln_run[r + 2 * m] > target;
        // Start at the root of ln ∏ f ≈ −2(r·m + m(m−1))/n = ln u and walk
        // to the largest m that is still longer: a step or two at large n.
        let b = r as f64 - 1.0;
        let guess = (b * b + 2.0 * self.n as f64 * tail).sqrt() - b;
        let mut m = ((guess / 2.0) as usize).min(cap);
        while !longer(m) {
            m -= 1;
        }
        while m < cap && longer(m + 1) {
            m += 1;
        }
        m as u64
    }
}

/// How to settle all interactions of one contingency-table cell `(a, b)`.
#[derive(Debug, Clone)]
enum CellPlan {
    /// `interact(a, b)` is the identity: no rng.
    NonReactive,
    /// The protocol enumerated its outcome distribution: split the cell
    /// count across outcomes by conditional binomials (an exact multinomial
    /// decomposition).
    Enumerated(Vec<((usize, usize), f64)>),
    /// Opaque randomized cell: call `interact` once per interaction (still
    /// exact, still skips all agent sampling).
    Fallback,
}

/// Reusable working memory for [`run_epoch`], owned by a backend alongside
/// its count vector.
///
/// Holds the per-batch urns (unrevealed states, margins, rows, post-state
/// urn, revealed agents, net deltas) and a cell-plan cache keyed on
/// `(initiator, responder)` state pairs. The plans depend only on the
/// protocol, which is fixed for a population's lifetime, so the cache never
/// needs invalidating.
#[derive(Debug, Default, Clone)]
pub struct CollisionScratch {
    /// States with nonzero count at batch start.
    occupied: Vec<usize>,
    /// The unrevealed urn: batch-start states of the agents no collision
    /// has revealed yet (untouched agents and deferred pairs), over
    /// `occupied`.
    urn: Vec<u64>,
    /// Agents in `urn`.
    urn_total: u64,
    /// Revealed agents' current states, as a short `(state, count)` list.
    revealed: Vec<(usize, u64)>,
    /// Agents in `revealed`.
    revealed_total: u64,
    /// Interactions between two untouched agents not revealed yet.
    deferred: u64,
    /// Drawn agents per occupied state (`W`, margins of the table).
    w: Vec<u64>,
    /// Initiator-position margin (`M | W`); responders get `W − M`.
    m: Vec<u64>,
    /// Responder margin not yet consumed by sampled rows.
    rem_r: Vec<u64>,
    /// Current row of the contingency table.
    row: Vec<u64>,
    /// Post-interaction states of the table's agents (dense over all
    /// states: rule outcomes may enter states unoccupied at batch start).
    v: Vec<u64>,
    /// Net count movement of the batch, dense over all states.
    delta: Vec<i64>,
    /// Cell-plan cache, filled lazily per cell.
    plans: CellPlans,
}

/// The cell-plan cache: a row-major k×k index (0 = not planned yet, else
/// one more than the plan's position in `list`) over the plans made so
/// far. Four zeroed bytes per cell, so a 512-state protocol's table costs
/// 1 MB, not the 6 MB of an `Option<CellPlan>` per cell, and only the
/// cells a batch meets ever hold a plan.
#[derive(Debug, Default, Clone)]
struct CellPlans {
    index: Vec<u32>,
    list: Vec<CellPlan>,
}

impl CellPlans {
    /// The plan of cell `(a, b)`, made on first use.
    fn get<P: Protocol + ?Sized>(
        &mut self,
        protocol: &P,
        a: usize,
        b: usize,
        k: usize,
    ) -> &CellPlan {
        let slot = &mut self.index[a * k + b];
        if *slot == 0 {
            self.list.push(if !protocol.is_reactive(a, b) {
                CellPlan::NonReactive
            } else if let Some(outcomes) = protocol.outcome_table(a, b) {
                CellPlan::Enumerated(outcomes)
            } else {
                CellPlan::Fallback
            });
            *slot = u32::try_from(self.list.len()).expect("fewer than 2³² planned cells");
        }
        &self.list[*slot as usize - 1]
    }
}

impl CollisionScratch {
    /// An empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Net per-state count movement of the last [`run_epoch`] call, for
    /// callers that mirror the dense counts into other structures (the
    /// reactivity index's occupancy and reactive-pair count).
    #[must_use]
    pub fn delta(&self) -> &[i64] {
        &self.delta
    }

    fn ensure(&mut self, k: usize) {
        if self.v.len() != k {
            self.v.resize(k, 0);
            self.delta.resize(k, 0);
            self.plans = CellPlans {
                index: vec![0; k * k],
                list: Vec::new(),
            };
        }
    }

    /// Draws one agent from the unrevealed urn and returns its state.
    fn draw_unrevealed(&mut self, rng: &mut SimRng) -> usize {
        let mut x = rng.below(self.urn_total);
        self.urn_total -= 1;
        for (i, c) in self.urn.iter_mut().enumerate() {
            if x < *c {
                *c -= 1;
                return self.occupied[i];
            }
            x -= *c;
        }
        unreachable!("rank draw exceeded the unrevealed urn")
    }

    /// Adds one revealed agent in state `s`.
    fn reveal(&mut self, s: usize) {
        self.revealed_total += 1;
        match self.revealed.iter_mut().find(|(t, _)| *t == s) {
            Some((_, c)) => *c += 1,
            None => self.revealed.push((s, 1)),
        }
    }

    /// Takes a uniformly random touched agent out of the batch's touched
    /// set and returns its current state. A deferred pair it belongs to is
    /// revealed first: its states are drawn from the unrevealed urn and its
    /// interaction is settled, and its other agent joins the revealed ones.
    fn take_touched<P: Protocol + ?Sized>(
        &mut self,
        protocol: &P,
        rng: &mut SimRng,
        changed: &mut u64,
    ) -> usize {
        let mut x = rng.below(self.revealed_total + 2 * self.deferred);
        if x >= self.revealed_total {
            self.deferred -= 1;
            let (a, b) = (self.draw_unrevealed(rng), self.draw_unrevealed(rng));
            let (a2, b2) = protocol.interact(a, b, rng);
            *changed += u64::from((a2, b2) != (a, b));
            // The rank's parity picks the pair's initiator or responder.
            return if (x - self.revealed_total).is_multiple_of(2) {
                self.reveal(b2);
                a2
            } else {
                self.reveal(a2);
                b2
            };
        }
        self.revealed_total -= 1;
        for i in 0..self.revealed.len() {
            let (s, c) = &mut self.revealed[i];
            if x < *c {
                let s = *s;
                *c -= 1;
                if *c == 0 {
                    self.revealed.swap_remove(i);
                }
                return s;
            }
            x -= *c;
        }
        unreachable!("rank draw exceeded the revealed agents")
    }
}

/// What one batch settled.
#[derive(Debug, Clone, Copy)]
pub struct EpochOutcome {
    /// Interactions executed.
    pub executed: u64,
    /// Interactions that changed at least one agent's state.
    pub changed: u64,
}

/// Runs one multibatch of `min(batch_len(n, q), remaining)` interactions,
/// `q` the states occupied at batch start, and updates `counts` in place:
/// collision-free runs are deferred without looking at their states,
/// collisions are settled one at a time (revealing the deferred pairs they
/// touch), and the pairs still deferred at the end are settled through one
/// contingency-table sample over the unrevealed urn.
///
/// `remaining` caps the interactions executed (≥ 1). Stopping a batch at
/// any fixed length is exact: the batch is the sequential process itself,
/// with the states of its deferred pairs sampled late.
///
/// After the call, [`CollisionScratch::delta`] holds the batch's net
/// per-state movement.
///
/// # Panics
///
/// Panics (in debug builds) if `counts` does not sum to `cdf.n()` or if
/// `remaining == 0`.
pub fn run_epoch<P: Protocol + ?Sized>(
    protocol: &P,
    counts: &mut [u64],
    cdf: &BirthdayCdf,
    scratch: &mut CollisionScratch,
    rng: &mut SimRng,
    remaining: u64,
) -> EpochOutcome {
    let pf = crate::recorder::capture().sections;
    let _epoch_span = prof::section_if(pf, Section::CollisionEpoch);
    let n = cdf.n();
    debug_assert_eq!(counts.iter().sum::<u64>(), n);
    debug_assert!(remaining >= 1);
    let k = counts.len();
    load_urn(counts, n, scratch);
    let l = batch_len(n, scratch.occupied.len()).min(remaining);

    // The sequential process, with the pairs of collision-free runs kept
    // unrevealed: r = revealed + 2·deferred agents are touched.
    let mut done = 0u64;
    let mut changed = 0u64;
    while done < l {
        let r = scratch.revealed_total + 2 * scratch.deferred;
        let run = {
            let _len_span = prof::section_if(pf, Section::EpochLenSample);
            cdf.free_run(r, l - done, rng)
        };
        scratch.deferred += run;
        done += run;
        if done == l {
            break;
        }
        let _collision_span = prof::section_if(pf, Section::EpochCollisions);
        // The interaction picks a touched agent: both (weight r(r−1)), the
        // initiator only (r(n−r)) or the responder only ((n−r)r).
        let r = r + 2 * run;
        let x = rng.below(r * (2 * n - r - 1));
        let (a, b) = if x < r * (r - 1) {
            let a = scratch.take_touched(protocol, rng, &mut changed);
            (a, scratch.take_touched(protocol, rng, &mut changed))
        } else if x < r * (n - 1) {
            let a = scratch.take_touched(protocol, rng, &mut changed);
            (a, scratch.draw_unrevealed(rng))
        } else {
            let a = scratch.draw_unrevealed(rng);
            (a, scratch.take_touched(protocol, rng, &mut changed))
        };
        let (a2, b2) = protocol.interact(a, b, rng);
        changed += u64::from((a2, b2) != (a, b));
        scratch.reveal(a2);
        scratch.reveal(b2);
        done += 1;
    }

    changed += settle_deferred(protocol, k, scratch, rng, pf);
    fold_back(counts, scratch);
    debug_assert_eq!(counts.iter().sum::<u64>(), n);
    EpochOutcome {
        executed: l,
        changed,
    }
}

/// Runs one round of the random-matching scheduler on `counts`, `n`
/// agents: `⌊n/2⌋` interactions along a uniformly random matching, each
/// pair oriented uniformly at random, and with odd `n` one uniformly
/// random agent idle. Updates `counts` in place.
///
/// The round is the settle step of a batch whose every agent is still
/// unrevealed and whose `⌊n/2⌋` pairs are all deferred: the `2⌊n/2⌋`
/// agents drawn for the margins are a uniform subset (so the one left out
/// is a uniform idle agent), and a uniform initiator half with a uniform
/// initiator-to-responder bijection is a uniform matching with a uniform
/// orientation per pair (DESIGN.md §12). Orientation needs no draw of its
/// own.
///
/// After the call, [`CollisionScratch::delta`] holds the round's net
/// per-state movement.
///
/// # Panics
///
/// Panics (in debug builds) if `counts` does not sum to `n`.
pub fn run_matching_round<P: Protocol + ?Sized>(
    protocol: &P,
    counts: &mut [u64],
    n: u64,
    scratch: &mut CollisionScratch,
    rng: &mut SimRng,
) -> EpochOutcome {
    let pf = crate::recorder::capture().sections;
    debug_assert_eq!(counts.iter().sum::<u64>(), n);
    load_urn(counts, n, scratch);
    scratch.deferred = n / 2;
    let changed = settle_deferred(protocol, counts.len(), scratch, rng, pf);
    fold_back(counts, scratch);
    debug_assert_eq!(counts.iter().sum::<u64>(), n);
    EpochOutcome {
        executed: n / 2,
        changed,
    }
}

/// A batch's prologue: every one of the `n` agents of `counts` sits in the
/// unrevealed urn, over the occupied states; no agent is revealed and no
/// pair deferred.
fn load_urn(counts: &[u64], n: u64, scratch: &mut CollisionScratch) {
    scratch.ensure(counts.len());
    scratch.occupied.clear();
    scratch.urn.clear();
    for (s, &c) in counts.iter().enumerate() {
        if c > 0 {
            scratch.occupied.push(s);
            scratch.urn.push(c);
        }
    }
    scratch.urn_total = n;
    scratch.revealed.clear();
    scratch.revealed_total = 0;
    scratch.deferred = 0;
}

/// A batch's epilogue, after [`settle_deferred`]: the batch-start agents
/// (`counts` is untouched so far) that left the unrevealed urn become the
/// revealed agents and the table's post-states `v`. Leaves the net
/// movement in `delta`.
fn fold_back(counts: &mut [u64], scratch: &mut CollisionScratch) {
    for i in 0..scratch.occupied.len() {
        let s = scratch.occupied[i];
        let left = counts[s] - (scratch.urn[i] - scratch.w[i]);
        scratch.delta[s] -= left as i64;
    }
    for &(s, c) in &scratch.revealed {
        scratch.delta[s] += c as i64;
    }
    for (s, count) in counts.iter_mut().enumerate() {
        let d = scratch.delta[s] + scratch.v[s] as i64;
        scratch.delta[s] = d;
        if d != 0 {
            *count = (*count as i64 + d) as u64;
        }
    }
}

/// Settles the batch's still-deferred pairs: their `2d` agents are a
/// uniform without-replacement sample of the unrevealed urn, paired off
/// uniformly, so the margins `W`, the initiator split `M | W` and the rows
/// of their contingency table follow by multivariate-hypergeometric
/// conditionals, and each cell's outcomes land in `v`. Leaves `W` in
/// `scratch.w` and `delta` zeroed; returns how many pairs changed a state.
fn settle_deferred<P: Protocol + ?Sized>(
    protocol: &P,
    k: usize,
    scratch: &mut CollisionScratch,
    rng: &mut SimRng,
    pf: bool,
) -> u64 {
    let kq = scratch.occupied.len();
    let pairs = scratch.deferred;
    scratch.v.iter_mut().for_each(|x| *x = 0);
    scratch.delta.iter_mut().for_each(|x| *x = 0);
    scratch.w.clear();
    scratch.w.resize(kq, 0);
    if pairs == 0 {
        return 0;
    }

    let margin_span = prof::section_if(pf, Section::EpochMargins);
    scratch.m.resize(kq, 0);
    {
        // One span per conditional chain, not per univariate draw: the
        // per-draw guard was 2.6× enabled overhead on the dense path.
        let _pmf_span = prof::section_if(pf, Section::PmfInversion);
        rng.multivariate_hypergeometric_into(&scratch.urn, 2 * pairs, &mut scratch.w);
        rng.multivariate_hypergeometric_into(&scratch.w, pairs, &mut scratch.m);
    }
    scratch.rem_r.clear();
    for i in 0..kq {
        scratch.rem_r.push(scratch.w[i] - scratch.m[i]);
    }
    drop(margin_span);

    // Rows: conditioned on both margins, initiator↔responder pairing is a
    // uniform bijection of the two margin multisets, so row a is a
    // multivariate-hypergeometric draw from the responders not yet claimed
    // by earlier rows.
    let mut changed = 0u64;
    scratch.row.resize(kq, 0);
    for i in 0..kq {
        let mi = scratch.m[i];
        if mi == 0 {
            continue;
        }
        let a = scratch.occupied[i];
        let row_span = prof::section_if(pf, Section::EpochRows);
        {
            let _pmf_span = prof::section_if(pf, Section::PmfInversion);
            rng.multivariate_hypergeometric_into(&scratch.rem_r, mi, &mut scratch.row);
        }
        drop(row_span);
        let _settle_span = prof::section_if(pf, Section::EpochSettle);
        for j in 0..kq {
            let t_ab = scratch.row[j];
            if t_ab == 0 {
                continue;
            }
            scratch.rem_r[j] -= t_ab;
            let b = scratch.occupied[j];
            let plan = scratch.plans.get(protocol, a, b, k);
            changed += apply_cell(protocol, plan, a, b, t_ab, &mut scratch.v, rng, pf);
        }
    }
    debug_assert_eq!(scratch.rem_r.iter().sum::<u64>(), 0);
    debug_assert_eq!(scratch.v.iter().sum::<u64>(), 2 * pairs);
    changed
}

/// Settles all `t_ab` interactions of cell `(a, b)` by its `plan`, adding
/// their post-states to the urn `v`. Returns how many of them changed a
/// state.
#[allow(clippy::too_many_arguments)]
fn apply_cell<P: Protocol + ?Sized>(
    protocol: &P,
    plan: &CellPlan,
    a: usize,
    b: usize,
    t_ab: u64,
    v: &mut [u64],
    rng: &mut SimRng,
    pf: bool,
) -> u64 {
    match plan {
        CellPlan::NonReactive => {
            v[a] += t_ab;
            v[b] += t_ab;
            0
        }
        CellPlan::Enumerated(outcomes) => {
            // Multinomial split via sequential conditional binomials: each
            // of the t_ab interactions independently picks an outcome. One
            // span per cell's whole conditional chain (see the margins note).
            let _pmf_span = prof::section_if(pf, Section::PmfInversion);
            let mut rem_t = t_ab;
            let mut rem_p = 1.0f64;
            let mut changed = 0u64;
            for &((a2, b2), p) in outcomes {
                if rem_t == 0 || rem_p <= 0.0 {
                    break;
                }
                let q = (p / rem_p).clamp(0.0, 1.0);
                let cnt = rng.binomial(rem_t, q);
                rem_p -= p;
                if cnt == 0 {
                    continue;
                }
                rem_t -= cnt;
                v[a2] += cnt;
                v[b2] += cnt;
                if (a2, b2) != (a, b) {
                    changed += cnt;
                }
            }
            // Residual mass the table did not cover is the identity.
            v[a] += rem_t;
            v[b] += rem_t;
            changed
        }
        CellPlan::Fallback => {
            let mut changed = 0u64;
            for _ in 0..t_ab {
                let (a2, b2) = protocol.interact(a, b, rng);
                v[a2] += 1;
                v[b2] += 1;
                changed += u64::from((a2, b2) != (a, b));
            }
            changed
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::TableProtocol;

    fn cycle3() -> TableProtocol {
        TableProtocol::new(3, "cycle3")
            .rule(0, 1, 1, 1)
            .rule(1, 2, 2, 2)
            .rule(2, 0, 0, 0)
    }

    #[test]
    fn birthday_cdf_n2_is_degenerate() {
        let cdf = BirthdayCdf::new(2);
        let mut rng = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(cdf.sample_t(&mut rng), 2);
        }
        assert!((cdf.expected_interactions() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn birthday_cdf_matches_sqrt_asymptotics() {
        // E[T] → √(πn/2) for the classic birthday process; the alternating
        // n / n−1 hazards only perturb it at O(1).
        let n = 10_000u64;
        let cdf = BirthdayCdf::new(n);
        let expect = (std::f64::consts::PI * n as f64 / 2.0).sqrt();
        let rel = (cdf.expected_t() / expect - 1.0).abs();
        assert!(rel < 0.05, "E[T]={} vs {expect}", cdf.expected_t());
        for parity in [0, 1] {
            let entries = cdf.ln_run.iter().skip(parity).step_by(2);
            let pairs: Vec<f64> = entries.copied().collect();
            assert!(pairs.windows(2).all(|w| w[1] <= w[0]), "runs shorten");
        }
    }

    /// The run law near the end of a small population: with `r = n − 4`
    /// touched a run is ≥ 1 long with probability `f(n−4) = 12/(n(n−1))`
    /// and ≥ 2 long with `f(n−4)·f(n−2)`, after which no fresh pair is
    /// left.
    #[test]
    fn free_runs_follow_the_product_law_near_exhaustion() {
        let n = 10u64;
        let cdf = BirthdayCdf::new(n);
        let mut rng = SimRng::seed_from(5);
        let trials = 400_000u64;
        let mut at_least = [0u64; 3];
        for _ in 0..trials {
            let m = cdf.free_run(n - 4, 2, &mut rng);
            for (j, c) in at_least.iter_mut().enumerate() {
                *c += u64::from(m >= j as u64);
            }
        }
        let nn = (n * (n - 1)) as f64;
        let want = [1.0, 12.0 / nn, 12.0 / nn * 2.0 / nn];
        for (j, (&got, &p)) in at_least.iter().zip(&want).enumerate() {
            let got = got as f64 / trials as f64;
            let sd = (p * (1.0 - p) / trials as f64).sqrt();
            assert!(
                (got - p).abs() <= 5.0 * sd,
                "P(run ≥ {j}) = {got}, want {p}"
            );
        }
    }

    #[test]
    fn birthday_cdf_matches_direct_simulation() {
        // Simulate the actual draw process (agent ids, repeat detection)
        // and compare the mean of T against the tabulated law.
        let n = 500u64;
        let cdf = BirthdayCdf::new(n);
        let mut rng = SimRng::seed_from(42);
        let trials = 20_000;
        let mut direct_sum = 0u64;
        let mut seen = vec![false; n as usize];
        for _ in 0..trials {
            seen.iter_mut().for_each(|s| *s = false);
            let mut drawn: Vec<u64> = Vec::new();
            let t = loop {
                // Initiator draw.
                let a = rng.below(n);
                if seen[a as usize] {
                    break drawn.len() as u64;
                }
                seen[a as usize] = true;
                drawn.push(a);
                // Responder draw: uniform over the n−1 agents ≠ a.
                let mut b = rng.below(n - 1);
                if b >= a {
                    b += 1;
                }
                if seen[b as usize] {
                    break drawn.len() as u64;
                }
                seen[b as usize] = true;
                drawn.push(b);
            };
            direct_sum += t;
        }
        let mut table_sum = 0u64;
        for _ in 0..trials {
            table_sum += cdf.sample_t(&mut rng);
        }
        let direct_mean = direct_sum as f64 / trials as f64;
        let table_mean = table_sum as f64 / trials as f64;
        let rel = (direct_mean / table_mean - 1.0).abs();
        assert!(rel < 0.03, "direct {direct_mean} vs table {table_mean}");
        let rel = (table_mean / cdf.expected_t() - 1.0).abs();
        assert!(
            rel < 0.03,
            "sampled {table_mean} vs E[T] {}",
            cdf.expected_t()
        );
    }

    #[test]
    fn run_epoch_conserves_population_and_syncs_delta() {
        let p = cycle3();
        let n = 3_000u64;
        let mut counts = vec![1_200u64, 900, 900];
        let cdf = BirthdayCdf::new(n);
        let mut scratch = CollisionScratch::new();
        let mut rng = SimRng::seed_from(9);
        let mut mirror = counts.clone();
        let mut total_exec = 0u64;
        while total_exec < 50_000 {
            let q = counts.iter().filter(|&&c| c > 0).count();
            let out = run_epoch(&p, &mut counts, &cdf, &mut scratch, &mut rng, u64::MAX);
            assert_eq!(
                out.executed,
                batch_len(n, q),
                "a batch runs its full length"
            );
            assert_eq!(counts.iter().sum::<u64>(), n);
            for (s, m) in mirror.iter_mut().enumerate() {
                *m = (*m as i64 + scratch.delta()[s]) as u64;
            }
            assert_eq!(mirror, counts, "delta mirrors the in-place update");
            total_exec += out.executed;
        }
    }

    #[test]
    fn run_epoch_truncates_exactly_at_remaining() {
        let p = cycle3();
        let n = 3_000u64;
        let mut counts = vec![1_200u64, 900, 900];
        let cdf = BirthdayCdf::new(n);
        let mut scratch = CollisionScratch::new();
        let mut rng = SimRng::seed_from(11);
        for remaining in [1u64, 2, 3, 7] {
            let out = run_epoch(&p, &mut counts, &cdf, &mut scratch, &mut rng, remaining);
            assert_eq!(out.executed, remaining);
            assert_eq!(counts.iter().sum::<u64>(), n);
        }
    }

    #[test]
    fn batch_len_grows_with_occupancy_and_stays_below_n() {
        assert_eq!(batch_len(8, 3), 4, "tiny populations cap at n/2");
        assert_eq!(batch_len(2, 1), 1);
        let n = 1_000_000;
        assert!(batch_len(n, 7) > batch_len(n, 3));
        assert_eq!(batch_len(n, 64), batch_len(n, 1_000), "q clamps at 64");
        assert!(batch_len(n, 1_000) * 50 < n);
    }
}
