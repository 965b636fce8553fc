//! Exact collision-partitioned batch stepping for reactive-dense regimes.
//!
//! The uniform scheduler picks an ordered agent pair per activation. Viewed
//! as a stream of single-agent draws (initiator, responder, initiator, …),
//! the stream stays pairwise distinct for `T ≈ √(πn/2)` draws before the
//! first repeat — a birthday process whose law [`BirthdayCdf`] tabulates
//! exactly. Conditioned on distinctness, every distinct draw sequence is
//! equiprobable, so the drawn agents are a uniform without-replacement
//! sample from the population and the ordered (initiator, responder) state
//! pairs of the `⌊T/2⌋` collision-free interactions form a q×q contingency
//! table whose law depends only on the count vector. [`run_epoch`] samples
//! that table by a chain of multivariate-hypergeometric conditionals
//! (margins first, then rows), applies all rule deltas cell-by-cell in
//! O(q²) distribution draws, then settles the one colliding interaction
//! individually — Θ(√n) activations for O(q²) work, with the post-epoch
//! configuration distributed *exactly* as sequential stepping. DESIGN.md
//! §12 gives the full exactness argument.
//!
//! `CountPopulation` routes through this module when the configuration is
//! reactive-dense enough that no-op leaping stops paying (see its
//! three-regime dispatch); the chi-square suite in
//! `tests/backend_equivalence.rs` pins the step-vs-epoch equivalence.

use crate::prof::{self, Section};
use crate::protocol::Protocol;
use crate::rng::SimRng;

/// Below this tail mass the birthday table stops extending and folds the
/// remainder into its last entry — the same magnitude as the rounding error
/// already incurred by accumulating the CDF in `f64`.
const TAIL_EPSILON: f64 = 1e-18;

/// The exact distribution of `T`, the number of fresh single-agent draws
/// the scheduler makes before the first repeat, for a fixed population
/// size `n`.
///
/// Draw `d` (1-based) is an initiator when odd and a responder when even.
/// An initiator is uniform over all `n` agents, so it repeats with hazard
/// `(d−1)/n`; a responder is uniform over the `n−1` agents other than its
/// initiator, so it repeats with hazard `(d−2)/(n−1)`. The table stores the
/// CDF of `T` (support starts at 2 — the first interaction never collides)
/// and is keyed only on `n`, so one instance serves a population for its
/// whole lifetime regardless of count-vector churn.
#[derive(Debug, Clone)]
pub struct BirthdayCdf {
    n: u64,
    /// `cdf[i] = P(T ≤ i + 2)`; last entry forced to exactly 1.0.
    cdf: Vec<f64>,
    /// Inversion guide: `guide[g]` is the first index whose cdf exceeds
    /// `g / guide.len()`, so a draw starts its scan almost at the answer.
    guide: Vec<u32>,
    /// `E[T]`, accumulated during the build (`≈ √(πn/2) ≈ 1.2533 √n`).
    expected_t: f64,
}

/// Guide-table resolution for [`BirthdayCdf::sample_t`]; at 4096 buckets
/// the expected linear scan past the guide entry is ~2 cells.
const GUIDE_BUCKETS: usize = 4096;

impl BirthdayCdf {
    /// Builds the table for population size `n`.
    ///
    /// Cost is O(√n) time and memory (the support is exhausted once the
    /// survival probability drops below f64 resolution, after ≈ 9.1 √n
    /// entries).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` (the scheduler needs two distinct agents).
    #[must_use]
    pub fn new(n: u64) -> Self {
        assert!(n >= 2, "birthday process needs at least two agents");
        let nf = n as f64;
        let n1 = (n - 1) as f64;
        let hazard = |d: u64| -> f64 {
            if d % 2 == 1 {
                (d - 1) as f64 / nf
            } else {
                (d - 2) as f64 / n1
            }
        };
        let mut cdf = Vec::new();
        let mut survival = 1.0f64;
        let mut acc = 0.0f64;
        let mut expected_t = 0.0f64;
        let mut t = 2u64;
        loop {
            let h = hazard(t + 1);
            if h >= 1.0 || survival < TAIL_EPSILON {
                // Collision certain at draw t+1, or the tail is below f64
                // resolution: fold all remaining mass into P(T = t).
                expected_t += t as f64 * (1.0 - acc);
                cdf.push(1.0);
                break;
            }
            let pmf = survival * h;
            acc += pmf;
            expected_t += t as f64 * pmf;
            cdf.push(acc);
            survival *= 1.0 - h;
            t += 1;
        }
        let mut guide = vec![0u32; GUIDE_BUCKETS];
        let mut idx = 0usize;
        for (g, slot) in guide.iter_mut().enumerate() {
            let threshold = g as f64 / GUIDE_BUCKETS as f64;
            while idx < cdf.len() && cdf[idx] <= threshold {
                idx += 1;
            }
            *slot = idx.min(cdf.len() - 1) as u32;
        }
        Self {
            n,
            cdf,
            guide,
            expected_t,
        }
    }

    /// The population size this table was built for.
    #[must_use]
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Expected number of collision-free interactions per epoch, `E[T]/2`.
    #[must_use]
    pub fn expected_interactions(&self) -> f64 {
        self.expected_t / 2.0
    }

    /// Draws one epoch length `T` (always ≥ 2) by guided CDF inversion:
    /// the guide table pins the start index, then a short linear scan
    /// finds the first entry exceeding the uniform draw.
    #[must_use]
    pub fn sample_t(&self, rng: &mut SimRng) -> u64 {
        let u = rng.f64();
        let g = ((u * GUIDE_BUCKETS as f64) as usize).min(GUIDE_BUCKETS - 1);
        let mut idx = self.guide[g] as usize;
        while self.cdf[idx] <= u && idx + 1 < self.cdf.len() {
            idx += 1;
        }
        2 + idx as u64
    }
}

/// How to settle all interactions of one contingency-table cell `(a, b)`.
#[derive(Debug, Clone)]
enum CellPlan {
    /// `interact(a, b)` is the identity: no deltas, no rng.
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
/// Holds the per-epoch urns (margins, rows, post-state urn, net deltas) and
/// a cell-plan cache keyed on `(initiator, responder)` state pairs. The
/// plans depend only on the protocol, which is fixed for a population's
/// lifetime, so the cache never needs invalidating.
#[derive(Debug, Default, Clone)]
pub struct CollisionScratch {
    /// States with nonzero count at epoch start.
    occupied: Vec<usize>,
    /// Epoch-start counts of `occupied` (the urn the margins draw from).
    c_start: Vec<u64>,
    /// Total drawn agents per occupied state (`W`, margins of the table).
    w: Vec<u64>,
    /// Initiator-position margin (`M | W`); responders get `W − M`.
    m: Vec<u64>,
    /// Responder margin not yet consumed by sampled rows.
    rem_r: Vec<u64>,
    /// Current row of the contingency table.
    row: Vec<u64>,
    /// Post-interaction states of the 2ℓ touched agents (dense over all
    /// states: rule outcomes may enter states unoccupied at epoch start).
    v: Vec<u64>,
    /// Net count movement of the epoch's table, dense over all states.
    delta: Vec<i64>,
    /// Row-major k×k cell-plan cache, filled lazily per cell.
    plans: Vec<Option<CellPlan>>,
}

impl CollisionScratch {
    /// An empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Net per-state count movement of the last [`run_epoch`] call, for
    /// callers that mirror the dense counts into other structures (the
    /// reactivity index's occupancy, `CountPopulation`'s Fenwick tree).
    #[must_use]
    pub fn delta(&self) -> &[i64] {
        &self.delta
    }

    fn ensure(&mut self, k: usize) {
        if self.v.len() != k {
            self.v.resize(k, 0);
            self.delta.resize(k, 0);
            self.plans.clear();
            self.plans.resize(k * k, None);
        }
    }
}

/// What one epoch settled.
#[derive(Debug, Clone, Copy)]
pub struct EpochOutcome {
    /// Interactions executed (table cells plus the boundary interaction).
    pub executed: u64,
    /// Interactions that changed at least one agent's state.
    pub changed: u64,
}

/// Runs one collision-free epoch: samples the epoch length, settles the
/// collision-free interactions through a contingency-table sample, applies
/// the colliding boundary interaction individually, and updates `counts`
/// in place.
///
/// `remaining` caps the interactions executed (≥ 1): when the sampled epoch
/// is longer than the cap, only the first `remaining` collision-free
/// interactions are applied and the rest of the epoch is discarded — exact,
/// because the epoch length was drawn from its true law and the scheduler
/// is memoryless, so the discarded suffix has the same law as a fresh
/// epoch's prefix. The boundary interaction is only executed when it fits
/// inside the cap.
///
/// After the call, [`CollisionScratch::delta`] holds the epoch's net
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
    scratch.ensure(k);

    scratch.occupied.clear();
    scratch.c_start.clear();
    for (s, &c) in counts.iter().enumerate() {
        if c > 0 {
            scratch.occupied.push(s);
            scratch.c_start.push(c);
        }
    }
    let kq = scratch.occupied.len();

    let len_span = prof::section_if(pf, Section::EpochLenSample);
    let t = cdf.sample_t(rng);
    drop(len_span);
    let full_l = t / 2;
    let (l, boundary) = if full_l >= remaining {
        (remaining, false)
    } else {
        (full_l, true)
    };
    let draws = 2 * l;

    // Margins: W = state counts of all 2ℓ distinct drawn agents, then the
    // initiator split M | W (any fixed ℓ positions of an exchangeable
    // without-replacement sample are again a uniform subsample).
    let margin_span = prof::section_if(pf, Section::EpochMargins);
    scratch.w.resize(kq, 0);
    scratch.m.resize(kq, 0);
    {
        // One span per conditional chain, not per univariate draw: the
        // per-draw guard was 2.6× enabled overhead on the dense path.
        let _pmf_span = prof::section_if(pf, Section::PmfInversion);
        rng.multivariate_hypergeometric_into(&scratch.c_start, draws, &mut scratch.w);
        rng.multivariate_hypergeometric_into(&scratch.w, l, &mut scratch.m);
    }
    scratch.rem_r.clear();
    for i in 0..kq {
        scratch.rem_r.push(scratch.w[i] - scratch.m[i]);
    }
    drop(margin_span);

    for x in &mut scratch.v {
        *x = 0;
    }
    for x in &mut scratch.delta {
        *x = 0;
    }

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
        let settle_span = prof::section_if(pf, Section::EpochSettle);
        for j in 0..kq {
            let t_ab = scratch.row[j];
            if t_ab == 0 {
                continue;
            }
            scratch.rem_r[j] -= t_ab;
            let b = scratch.occupied[j];
            changed += apply_cell(
                protocol,
                a,
                b,
                t_ab,
                k,
                &mut scratch.plans,
                &mut scratch.v,
                &mut scratch.delta,
                rng,
                pf,
            );
        }
        drop(settle_span);
    }
    debug_assert_eq!(scratch.rem_r.iter().sum::<u64>(), 0);
    debug_assert_eq!(scratch.v.iter().sum::<u64>(), draws);

    for (s, c) in counts.iter_mut().enumerate() {
        let d = scratch.delta[s];
        if d != 0 {
            *c = (*c as i64 + d) as u64;
        }
    }

    let mut executed = l;
    if boundary {
        let _boundary_span = prof::section_if(pf, Section::EpochBoundary);
        // The (ℓ+1)-th interaction contains the colliding draw. Touched
        // agents are exchangeable, so the repeated agent's state is ∝ v;
        // untouched agents still hold their epoch-start states.
        let (si, sr) = if t.is_multiple_of(2) {
            // T even: the colliding draw is the initiator; the responder is
            // an unconditioned draw from the other n−1 agents under the
            // *current* (post-table) counts.
            let si = sample_dense(&scratch.v, draws, rng);
            let sr = sample_counts_minus_one(counts, n, si, rng);
            (si, sr)
        } else {
            // T odd: the initiator was the last fresh draw (uniform over
            // the untouched pool); the colliding responder is touched.
            let mut x = rng.below(n - draws);
            let mut si = usize::MAX;
            for i in 0..kq {
                let wgt = scratch.c_start[i] - scratch.w[i];
                if x < wgt {
                    si = scratch.occupied[i];
                    break;
                }
                x -= wgt;
            }
            debug_assert_ne!(si, usize::MAX);
            let sr = sample_dense(&scratch.v, draws, rng);
            (si, sr)
        };
        let (a2, b2) = protocol.interact(si, sr, rng);
        if (a2, b2) != (si, sr) {
            counts[si] -= 1;
            counts[sr] -= 1;
            counts[a2] += 1;
            counts[b2] += 1;
            // Mirror into delta so callers syncing from it stay exact.
            scratch.delta[si] -= 1;
            scratch.delta[sr] -= 1;
            scratch.delta[a2] += 1;
            scratch.delta[b2] += 1;
            changed += 1;
        }
        executed += 1;
    }

    debug_assert_eq!(counts.iter().sum::<u64>(), n);
    EpochOutcome { executed, changed }
}

/// Settles all `t_ab` interactions of cell `(a, b)`, accumulating the
/// post-state urn `v` and net movement `delta`. Returns how many of them
/// changed a state.
#[allow(clippy::too_many_arguments)]
fn apply_cell<P: Protocol + ?Sized>(
    protocol: &P,
    a: usize,
    b: usize,
    t_ab: u64,
    k: usize,
    plans: &mut [Option<CellPlan>],
    v: &mut [u64],
    delta: &mut [i64],
    rng: &mut SimRng,
    pf: bool,
) -> u64 {
    let plan = plans[a * k + b].get_or_insert_with(|| {
        if !protocol.is_reactive(a, b) {
            CellPlan::NonReactive
        } else if let Some(outcomes) = protocol.outcome_table(a, b) {
            CellPlan::Enumerated(outcomes)
        } else {
            CellPlan::Fallback
        }
    });
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
            for &((a2, b2), p) in outcomes.iter() {
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
                    delta[a] -= cnt as i64;
                    delta[b] -= cnt as i64;
                    delta[a2] += cnt as i64;
                    delta[b2] += cnt as i64;
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
                if (a2, b2) != (a, b) {
                    delta[a] -= 1;
                    delta[b] -= 1;
                    delta[a2] += 1;
                    delta[b2] += 1;
                    changed += 1;
                }
            }
            changed
        }
    }
}

/// Rank-draws one state from a dense weight vector with known `total`.
fn sample_dense(weights: &[u64], total: u64, rng: &mut SimRng) -> usize {
    debug_assert!(total > 0);
    let mut x = rng.below(total);
    for (s, &w) in weights.iter().enumerate() {
        if x < w {
            return s;
        }
        x -= w;
    }
    unreachable!("rank draw exceeded total weight")
}

/// Rank-draws one state from `counts` with one agent of state `skip`
/// removed (the responder draw excludes the current initiator).
fn sample_counts_minus_one(counts: &[u64], n: u64, skip: usize, rng: &mut SimRng) -> usize {
    let mut x = rng.below(n - 1);
    for (s, &c) in counts.iter().enumerate() {
        let w = c - u64::from(s == skip);
        if x < w {
            return s;
        }
        x -= w;
    }
    unreachable!("rank draw exceeded total weight")
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
        let rel = (cdf.expected_t / expect - 1.0).abs();
        assert!(rel < 0.05, "E[T]={} vs {expect}", cdf.expected_t);
        assert!(cdf.cdf.windows(2).all(|w| w[0] <= w[1]), "CDF monotone");
        assert_eq!(*cdf.cdf.last().unwrap(), 1.0);
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
            let out = run_epoch(&p, &mut counts, &cdf, &mut scratch, &mut rng, u64::MAX);
            assert!(out.executed >= 2, "epoch covers at least one interaction");
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
            // Either the cap truncated the epoch (executed == remaining) or
            // the whole epoch incl. boundary fit under it; never over.
            assert!(out.executed <= remaining);
            assert_eq!(counts.iter().sum::<u64>(), n);
        }
    }
}
