//! Deterministic, fast random number generation for simulations.
//!
//! Simulation results must be reproducible across runs and platforms, and the
//! inner interaction loop samples the generator several times per event. We
//! therefore ship a small, well-known generator — xoshiro256\*\* seeded via
//! SplitMix64 — rather than depending on the platform entropy source or an
//! external crate. All sampling primitives the simulators need (uniform
//! integers, Bernoulli, binomial, hypergeometric, multivariate
//! hypergeometric, geometric) are inherent methods.
//!
//! The binomial and hypergeometric samplers are *exact* — no normal
//! approximation anywhere — and pick one of three paths per draw:
//!
//! * **Bit-parallel lanes** (`binomial` with `count ≤ 64`): lane `i`
//!   succeeds iff its uniform is below `p`. All lanes' uniforms are
//!   revealed together, one `next_u64` per bit of `p`'s exact binary
//!   expansion, until no lane is undecided; the outcome is exact for the
//!   f64 `p`, at about `log₂ count + 2` words.
//! * **Mode-centred inversion** (variance below `ROU_MIN_VARIANCE` = 4): one
//!   uniform, one `ln_fact`-based pmf evaluation at the mode, then exact
//!   ratio recurrences walked outward, `O(σ)` expected steps.
//! * **Ratio of uniforms** (variance at or above the threshold):
//!   Stadlober's table-mountain hat (HRUA for the hypergeometric, BRUA for
//!   the binomial; Stadlober, *J. Comput. Appl. Math.* 31, 1990), constant
//!   expected work at every scale. A pair `(u, v)` proposes
//!   `k = ⌊a + h(v − ½)/u⌋` and is accepted iff `u² ≤ f(k)/f(m)`, i.e.
//!   `2 ln u ≤ t` with `t` the exact `ln_fact` log-pmf ratio to the mode
//!   `m`. This is exact provided the hat covers the pmf:
//!   `√(f(k)/f(m))·max(|k−a|, |k+1−a|) ≤ h/2` for every `k` in the
//!   support (the unit tests check it over a grid reaching `N = 10⁸`).
//!   The two squeezes only shortcut that final test — they bound `2 ln u`
//!   from above and below on `(0, 1]` — and the support is not truncated.
//!
//! # Examples
//!
//! ```
//! use pp_engine::rng::SimRng;
//!
//! let mut rng = SimRng::seed_from(42);
//! let x = rng.f64();
//! assert!((0.0..1.0).contains(&x));
//! ```

use std::sync::OnceLock;

/// Cutoff below which `ln_fact` uses the precomputed table; above it the
/// Stirling series is already exact to f64 resolution. Sized to cover the
/// √n-scale arguments the collision-batch stepper produces for populations
/// up to ~10⁷ agents.
const LN_FACT_TABLE_LEN: usize = 4096;

/// Natural logs of factorials `0! … 4095!`, built once on first use.
static LN_FACT_TABLE: OnceLock<Vec<f64>> = OnceLock::new();

/// The cumulative-sum factorial table, initializing it on first call.
/// Samplers on the hot path fetch this once per draw so the `OnceLock`
/// acquire is paid once instead of once per `ln_fact` term.
#[inline]
fn ln_fact_table() -> &'static [f64] {
    LN_FACT_TABLE.get_or_init(|| {
        let mut t = vec![0.0f64; LN_FACT_TABLE_LEN];
        let mut acc = 0.0f64;
        for (i, slot) in t.iter_mut().enumerate().skip(1) {
            acc += (i as f64).ln();
            *slot = acc;
        }
        t
    })
}

/// Stirling series for `ln Γ(x+1)`; truncation error at `x ≥ 4096` is far
/// below the f64 resolution of the result.
#[inline]
fn stirling_ln_fact(x: u64) -> f64 {
    let z = x as f64 + 1.0;
    let zi = 1.0 / z;
    let zi2 = zi * zi;
    (z - 0.5) * z.ln() - z
        + 0.5 * (2.0 * std::f64::consts::PI).ln()
        + zi * (1.0 / 12.0 - zi2 * (1.0 / 360.0 - zi2 / 1260.0))
}

/// `ln(x!)` against an already-fetched table reference.
#[inline]
fn ln_fact_in(table: &[f64], x: u64) -> f64 {
    if let Some(&v) = table.get(x as usize) {
        v
    } else {
        stirling_ln_fact(x)
    }
}

/// `ln(x!)`, exact to f64 rounding for every `u64` argument.
///
/// Small arguments come from a cumulative-sum table; larger ones use the
/// Stirling series for `ln Γ(x+1)`. This is the backbone of the exact
/// large-count samplers ([`SimRng::binomial`],
/// [`SimRng::hypergeometric`]): they need one pmf evaluation at the mode,
/// and everything else is ratio recurrences.
/// The samplers themselves fetch the table once per call and go through
/// [`ln_fact_in`] directly; this convenience wrapper serves the moment and
/// distribution tests.
#[inline]
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) fn ln_fact(x: u64) -> f64 {
    ln_fact_in(ln_fact_table(), x)
}

/// Candidates evaluated per frontier advance in [`SimRng::invert_from_mode`].
///
/// Eight keeps the ratio scratch array in registers / L1 and gives the
/// compiler a straight-line, unrolled fill loop whose divisions are
/// mutually independent — the serial divide-after-divide dependency of a
/// scalar scan becomes a batch the hardware can pipeline (or vectorize as
/// packed `fdiv`), while the dependent multiply/compare chain stays as
/// short as the scalar code's.
const PMF_BLOCK: usize = 8;

/// Evaluates one block of `b ≤ PMF_BLOCK` pmf candidates outward from a
/// frontier and tests them against the remaining inversion mass `u`.
///
/// `ratio(x)` returns the pmf step ratio from `x` to its successor in scan
/// direction as a `(numerator, denominator)` pair. The block first fills
/// all `b` ratios in one tight loop — the divisions carry no loop-to-loop
/// dependency, so they overlap in the divider pipeline instead of
/// serializing behind the running-probability chain — then walks the short
/// dependent multiply/compare chain exactly as a scalar scan would.
/// Returns the sampled value on a hit; on a miss, subtracts the block mass
/// from `u` and advances `p_frontier` to the block's last pmf value.
#[inline]
fn pmf_scan_block(
    b: usize,
    start: u64,
    dir_up: bool,
    p_frontier: &mut f64,
    u: &mut f64,
    ratio: &impl Fn(u64) -> (f64, f64),
) -> Option<u64> {
    debug_assert!(0 < b && b <= PMF_BLOCK);
    let mut r = [0.0f64; PMF_BLOCK];
    for (j, rj) in r[..b].iter_mut().enumerate() {
        let x = if dir_up {
            start + j as u64
        } else {
            start - j as u64
        };
        let (num, den) = ratio(x);
        *rj = num / den;
    }
    let mut p = *p_frontier;
    for (j, &rj) in r[..b].iter().enumerate() {
        p *= rj;
        if *u < p {
            return Some(if dir_up {
                start + 1 + j as u64
            } else {
                start - 1 - j as u64
            });
        }
        *u -= p;
    }
    *p_frontier = p;
    None
}

/// Variance at and above which [`SimRng::binomial`] and
/// [`SimRng::hypergeometric`] take the ratio-of-uniforms path instead of
/// mode-centred inversion. Chosen by measurement (DESIGN.md §12): below
/// it inversion's short scan beats the rejection loop's set-up, above it
/// the loop's flat cost wins.
const ROU_MIN_VARIANCE: f64 = 4.0;

/// Widest binomial the bit-parallel lane path takes: one lane per bit of
/// a `next_u64` word.
const LANES: u64 = 64;

/// `2√(2/e)`: the scale of Stadlober's hat width in `√(σ² + ½)`.
const ROU_H_SCALE: f64 = 1.715_527_769_921_413_5;

/// `3 − 2√(3/e)`: the constant part of Stadlober's hat width.
const ROU_H_OFFSET: f64 = 0.898_916_162_058_898_8;

/// One ratio-of-uniforms draw target (Stadlober 1990): the table-mountain
/// hat centred at `a = μ + ½` with width `h = 2√(2/e)·√(σ²+½) + 3 − 2√(3/e)`
/// over the support `0..=max`, and `ln_ratio(k) = ln f(k) − ln f(m)`, the
/// exact `ln_fact` log-pmf ratio to the mode `m`. The two families differ
/// only in `ln_ratio`.
struct RouTarget<F> {
    a: f64,
    h: f64,
    max: u64,
    ln_ratio: F,
}

impl<F: Fn(u64) -> f64> RouTarget<F> {
    fn new(mean: f64, variance: f64, max: u64, ln_ratio: F) -> Self {
        Self {
            a: mean + 0.5,
            h: ROU_H_SCALE * (variance + 0.5).sqrt() + ROU_H_OFFSET,
            max,
            ln_ratio,
        }
    }
}

/// The binomial target for `Binomial(count, q)` with `q ≤ ½` (BRUA):
/// `t(k) = ln m! + ln(count−m)! − ln k! − ln(count−k)! + (k − m)·ln(q/(1−q))`.
fn binomial_target(count: u64, q: f64) -> RouTarget<impl Fn(u64) -> f64> {
    let lf = ln_fact_table();
    let mode = ((((count + 1) as f64) * q) as u64).min(count);
    let at_mode = ln_fact_in(lf, mode) + ln_fact_in(lf, count - mode);
    let ln_odds = (q / (1.0 - q)).ln();
    let mean = count as f64 * q;
    RouTarget::new(mean, mean * (1.0 - q), count, move |k| {
        at_mode - ln_fact_in(lf, k) - ln_fact_in(lf, count - k) + (k as f64 - mode as f64) * ln_odds
    })
}

/// The hypergeometric target (HRUA) for `tagged, draws ≤ total/2`, whose
/// support is `0..=min(tagged, draws)`; `variance` is the caller's.
fn hypergeometric_target(
    total: u64,
    tagged: u64,
    draws: u64,
    variance: f64,
) -> RouTarget<impl Fn(u64) -> f64> {
    let lf = ln_fact_table();
    let nt = total - tagged;
    let mode = hypergeometric_mode(total, tagged, draws);
    let ln_den = move |k: u64| {
        ln_fact_in(lf, k)
            + ln_fact_in(lf, tagged - k)
            + ln_fact_in(lf, draws - k)
            + ln_fact_in(lf, nt + k - draws)
    };
    let at_mode = ln_den(mode);
    let mean = draws as f64 * (tagged as f64 / total as f64);
    RouTarget::new(mean, variance, tagged.min(draws), move |k| {
        at_mode - ln_den(k)
    })
}

/// The mode `⌊(draws+1)(tagged+1)/(total+2)⌋` of the hypergeometric with
/// `tagged + draws ≤ total`.
#[inline]
fn hypergeometric_mode(total: u64, tagged: u64, draws: u64) -> u64 {
    // u64 division suffices whenever the numerator cannot overflow (both
    // factors below 2³²) — the u128 path costs a libcall.
    let mode = if total < (1 << 32) {
        (draws + 1) * (tagged + 1) / (total + 2)
    } else {
        (((draws + 1) as u128 * (tagged + 1) as u128) / (total + 2) as u128) as u64
    };
    mode.min(tagged.min(draws))
}

/// SplitMix64 stepper, used to expand a 64-bit seed into xoshiro state.
///
/// This is the seeding procedure recommended by the xoshiro authors: it
/// guarantees that even adjacent integer seeds produce well-separated,
/// non-degenerate initial states.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The simulation RNG: xoshiro256\*\* (Blackman & Vigna).
///
/// Passes BigCrush, has a 2²⁵⁶−1 period, and needs only four 64-bit words of
/// state, so cloning one per sweep worker is free. Not cryptographically
/// secure — fine for Monte-Carlo simulation, wrong for secrets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a 64-bit seed via SplitMix64 expansion.
    ///
    /// Two different seeds yield statistically independent streams for
    /// simulation purposes.
    #[must_use]
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        // All-zero state is the one forbidden fixed point; SplitMix64 cannot
        // produce four consecutive zeros, but guard anyway.
        debug_assert!(s.iter().any(|&w| w != 0));
        Self { s }
    }

    /// The four xoshiro256\*\* state words, exactly as they are now.
    ///
    /// This is the *complete* generator state: reconstructing via
    /// [`SimRng::from_state`] continues the identical output stream
    /// word-for-word. Used by the snapshot layer ([`crate::snapshot`]) for
    /// exact resume.
    #[must_use]
    pub fn state_words(&self) -> [u64; 4] {
        self.s
    }

    /// Reconstructs a generator from state previously read with
    /// [`SimRng::state_words`].
    ///
    /// Returns `None` for the all-zero word vector: that is the one
    /// forbidden xoshiro fixed point and can never arise from a genuine
    /// running generator, so it only appears in corrupted input.
    #[must_use]
    pub fn from_state(words: [u64; 4]) -> Option<Self> {
        if words.iter().all(|&w| w == 0) {
            return None;
        }
        Some(Self { s: words })
    }

    /// Returns a uniformly random value in `0..bound`.
    ///
    /// Uses Lemire's multiply-shift rejection method, which is branch-light
    /// and unbiased.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below() requires a positive bound");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            // Rejection zone for exact uniformity.
            let t = bound.wrapping_neg() % bound;
            while lo < t {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns a uniformly random `usize` in `0..bound`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn index(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Returns `true` with probability `p`.
    ///
    /// `p` outside `[0, 1]` is clamped.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Returns a uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Consumes one uniform and inverts a unimodal discrete distribution by
    /// scanning outward from its mode in blocks, alternating between the
    /// two frontiers. The enumeration order is irrelevant to correctness
    /// (any order of the exact masses inverts the same distribution); the
    /// mode-out order makes the expected scan length `O(sd)`, and the
    /// blocked layout ([`pmf_scan_block`]) batches the per-candidate
    /// divisions into independent groups the divider can pipeline. Blocks
    /// grow geometrically (2 → 4 → [`PMF_BLOCK`]) per frontier so the
    /// common short scans — most mass sits within a couple of candidates
    /// of the mode — do not pay for divisions past the hit.
    ///
    /// `ratio_up(x)` must return `pmf(x+1)/pmf(x)` and `ratio_down(x)` must
    /// return `pmf(x−1)/pmf(x)`, each as an exact `(numerator, denominator)`
    /// f64 pair with a strictly positive denominator.
    fn invert_from_mode(
        &mut self,
        mode: u64,
        lo_min: u64,
        hi_max: u64,
        ln_pmf_mode: f64,
        ratio_up: impl Fn(u64) -> (f64, f64),
        ratio_down: impl Fn(u64) -> (f64, f64),
    ) -> u64 {
        let pm = ln_pmf_mode.exp();
        let mut u = self.f64();
        if u < pm {
            return mode;
        }
        u -= pm;
        let (mut lo, mut hi) = (mode, mode);
        let (mut pl, mut ph) = (pm, pm);
        let (mut bu, mut bd) = (2usize, 2usize);
        // Alternate one up-block and one down-block per round; a closed
        // frontier simply drops out, so the drain phase needs no separate
        // loops. Every round advances at least one frontier.
        while lo > lo_min || hi < hi_max {
            if hi < hi_max {
                let b = ((hi_max - hi) as usize).min(bu);
                if let Some(x) = pmf_scan_block(b, hi, true, &mut ph, &mut u, &ratio_up) {
                    return x;
                }
                hi += b as u64;
                bu = (bu * 2).min(PMF_BLOCK);
            }
            if lo > lo_min {
                let b = ((lo - lo_min) as usize).min(bd);
                if let Some(x) = pmf_scan_block(b, lo, false, &mut pl, &mut u, &ratio_down) {
                    return x;
                }
                lo -= b as u64;
                bd = (bd * 2).min(PMF_BLOCK);
            }
        }
        // The support is exhausted and the accumulated mass fell short of
        // u by float dust (< 1e-15); settle on the heavier frontier.
        if ph >= pl {
            hi
        } else {
            lo
        }
    }

    /// Stadlober's ratio-of-uniforms loop over one [`RouTarget`].
    ///
    /// Each round draws `u ∈ (0, 1]` and `v ∈ [0, 1)` and proposes
    /// `k = ⌊a + h(v − ½)/u⌋`, rejected outright outside `0..=max`. The
    /// exact test is `2 ln u ≤ t` with `t = ln f(k) − ln f(m) ≤ 0`; the two
    /// squeezes only decide it early, because on `(0, 1]`
    /// `u − 1/u ≤ 2 ln u ≤ u(4 − u) − 3`: `u(4−u)−3 ≤ t` implies acceptance
    /// and `u(u−t) ≥ 1` implies rejection.
    fn ratio_of_uniforms(&mut self, target: &RouTarget<impl Fn(u64) -> f64>) -> u64 {
        loop {
            let u = ((self.next_u64() >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64);
            let v = self.f64();
            let x = target.a + target.h * (v - 0.5) / u;
            if x < 0.0 {
                continue;
            }
            let k = x as u64;
            if k > target.max {
                continue;
            }
            let t = (target.ln_ratio)(k);
            if u * (4.0 - u) - 3.0 <= t {
                return k;
            }
            if u * (u - t) >= 1.0 {
                continue;
            }
            if 2.0 * u.ln() <= t {
                return k;
            }
        }
    }

    /// `Binomial(count ≤ 64, p)` as 64 bit-parallel Bernoulli lanes.
    ///
    /// Lane `i` succeeds iff its uniform `U_i` is below `p`. Word `j`
    /// reveals bit `j` of every lane's `U_i` at once and compares it with
    /// bit `j` of `p`: where `p`'s bit is 1 a 0-bit decides success, where
    /// it is 0 a 1-bit decides failure, and equal bits leave the lane
    /// undecided. `frac *= 2` and `frac -= 1` are exact in f64, so the walk
    /// follows `p`'s exact binary expansion; once it runs out, an undecided
    /// lane has `U_i ≥ p` and fails.
    fn binomial_lanes(&mut self, count: u64, p: f64) -> u64 {
        debug_assert!(0 < count && count <= LANES);
        let mut undecided = u64::MAX >> (LANES - count);
        let mut success = 0u64;
        let mut frac = p;
        while undecided != 0 && frac != 0.0 {
            let w = self.next_u64();
            frac *= 2.0;
            if frac >= 1.0 {
                frac -= 1.0;
                success |= undecided & !w;
                undecided &= w;
            } else {
                undecided &= !w;
            }
        }
        u64::from(success.count_ones())
    }

    /// Samples a binomial random variable `Binomial(count, p)` — exact for
    /// every count.
    ///
    /// Three paths (module docs): `p = 1/2` with `count ≤ 4096` counts the
    /// bits of raw words; `count ≤ 64` runs bit-parallel lanes; everything
    /// else works on `q = min(p, 1−p)` and either inverts the exact pmf
    /// from its mode (variance below 4) or runs the ratio-of-uniforms loop,
    /// whose expected cost is flat in the count.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn binomial(&mut self, count: u64, p: f64) -> u64 {
        assert!((0.0..=1.0).contains(&p), "binomial p out of [0, 1]");
        if count == 0 || p == 0.0 {
            return 0;
        }
        if p == 1.0 {
            return count;
        }
        #[allow(clippy::float_cmp)]
        if p == 0.5 && count <= 4096 {
            let mut total = 0u64;
            let mut remaining = count;
            while remaining >= 64 {
                total += u64::from(self.next_u64().count_ones());
                remaining -= 64;
            }
            if remaining > 0 {
                let mask = (1u64 << remaining) - 1;
                total += u64::from((self.next_u64() & mask).count_ones());
            }
            return total;
        }
        if count <= LANES {
            return self.binomial_lanes(count, p);
        }
        // Work on q = min(p, 1−p) so the mode stays in the lower half, and
        // reflect the sample back at the end.
        let flipped = p > 0.5;
        let q = if flipped { 1.0 - p } else { p };
        let x = if count as f64 * q * (1.0 - q) >= ROU_MIN_VARIANCE {
            self.ratio_of_uniforms(&binomial_target(count, q))
        } else {
            self.binomial_inversion(count, q)
        };
        if flipped {
            count - x
        } else {
            x
        }
    }

    /// Mode-centred inversion of `Binomial(count, q)` for `q ≤ ½`.
    fn binomial_inversion(&mut self, count: u64, q: f64) -> u64 {
        let mode = (((count + 1) as f64) * q) as u64;
        let mode = mode.min(count);
        let lf = ln_fact_table();
        let ln_pmf_mode =
            ln_fact_in(lf, count) - ln_fact_in(lf, mode) - ln_fact_in(lf, count - mode)
                + mode as f64 * q.ln()
                + (count - mode) as f64 * (-q).ln_1p();
        let odds = q / (1.0 - q);
        self.invert_from_mode(
            mode,
            0,
            count,
            ln_pmf_mode,
            |x| ((count - x) as f64 * odds, (x + 1) as f64),
            |x| (x as f64, (count - x + 1) as f64 * odds),
        )
    }

    /// Samples a hypergeometric random variable: the number of tagged items
    /// among `draws` drawn without replacement from a pool of `total` items
    /// of which `tagged` are tagged. Exact: after the symmetry reductions
    /// (`tagged, draws ≤ total/2`, so the support starts at 0) it inverts
    /// the true pmf from its mode when the variance is below 4, in `O(σ)`
    /// expected work after one `ln_fact`-based pmf evaluation, and
    /// otherwise runs the ratio-of-uniforms loop (HRUA), whose expected
    /// cost is flat in `σ`.
    ///
    /// This is the workhorse of the collision-batch stepper
    /// ([`crate::collision`]): contingency tables over the count vector are
    /// sampled as chains of these conditionals.
    ///
    /// # Panics
    ///
    /// Panics if `tagged > total` or `draws > total`.
    pub fn hypergeometric(&mut self, total: u64, tagged: u64, draws: u64) -> u64 {
        assert!(tagged <= total, "hypergeometric tagged > total");
        assert!(draws <= total, "hypergeometric draws > total");
        if draws == 0 || tagged == 0 {
            return 0;
        }
        if tagged == total {
            return draws;
        }
        if draws == total {
            return tagged;
        }
        // Symmetry reductions keep the working support in the small corner
        // (at most two levels of recursion).
        if tagged * 2 > total {
            return draws - self.hypergeometric(total, total - tagged, draws);
        }
        if draws * 2 > total {
            return tagged - self.hypergeometric(total, tagged, total - draws);
        }
        // The variance is `draws·K(N−K)(N−draws) / (N²(N−1))`; the switch
        // compares it without dividing, since most draws stay below it.
        let (nf, kf, df) = (total as f64, tagged as f64, draws as f64);
        let spread = df * kf * (nf - kf) * (nf - df);
        let scale = nf * nf * (nf - 1.0);
        if spread >= ROU_MIN_VARIANCE * scale {
            let target = hypergeometric_target(total, tagged, draws, spread / scale);
            return self.ratio_of_uniforms(&target);
        }
        let hi_max = tagged.min(draws);
        let mode = hypergeometric_mode(total, tagged, draws);
        let nt = total - tagged;
        let lf = ln_fact_table();
        let ln_pmf_mode =
            ln_fact_in(lf, tagged) - ln_fact_in(lf, mode) - ln_fact_in(lf, tagged - mode)
                + ln_fact_in(lf, nt)
                - ln_fact_in(lf, draws - mode)
                - ln_fact_in(lf, nt + mode - draws)
                - ln_fact_in(lf, total)
                + ln_fact_in(lf, draws)
                + ln_fact_in(lf, total - draws);
        self.invert_from_mode(
            mode,
            0,
            hi_max,
            ln_pmf_mode,
            |x| {
                (
                    (tagged - x) as f64 * (draws - x) as f64,
                    (x + 1) as f64 * (nt + x + 1 - draws) as f64,
                )
            },
            |x| {
                (
                    x as f64 * (nt + x - draws) as f64,
                    (tagged - x + 1) as f64 * (draws - x + 1) as f64,
                )
            },
        )
    }

    /// Splits `draws` items drawn without replacement from the urn described
    /// by `weights` into per-category counts (a multivariate hypergeometric
    /// sample), via the chain of univariate conditionals.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != weights.len()` or `draws` exceeds the urn.
    pub fn multivariate_hypergeometric_into(
        &mut self,
        weights: &[u64],
        draws: u64,
        out: &mut [u64],
    ) {
        assert_eq!(out.len(), weights.len(), "output length mismatch");
        let mut rem_total: u64 = weights.iter().sum();
        assert!(draws <= rem_total, "drawing more than the urn holds");
        let mut rem_draws = draws;
        for (o, &w) in out.iter_mut().zip(weights) {
            if rem_draws == 0 {
                *o = 0;
                continue;
            }
            let x = self.hypergeometric(rem_total, w, rem_draws);
            *o = x;
            rem_total -= w;
            rem_draws -= x;
        }
        debug_assert_eq!(rem_draws, 0);
    }

    /// Samples a geometric random variable: the number of independent
    /// Bernoulli(`p`) failures before the first success (support `0, 1, …`).
    ///
    /// Used by the count backend's no-op leaping to jump over silent
    /// interaction stretches in one step. For very small `p` this uses the inversion
    /// formula `⌊ln U / ln(1−p)⌋`, which is exact in distribution.
    ///
    /// # Panics
    ///
    /// Panics if `p <= 0` or `p > 1`.
    #[inline]
    pub fn geometric(&mut self, p: f64) -> u64 {
        assert!(p > 0.0 && p <= 1.0, "geometric() requires p in (0, 1]");
        if p >= 1.0 {
            return 0;
        }
        // Inversion: P(X >= k) = (1-p)^k.
        let u = loop {
            let u = self.f64();
            if u > 0.0 {
                break u;
            }
        };
        let k = (u.ln() / (1.0 - p).ln()).floor();
        if k >= u64::MAX as f64 {
            u64::MAX
        } else {
            k as u64
        }
    }
}

impl SimRng {
    /// Returns the next raw 64-bit output of the generator.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        // xoshiro256** scrambler.
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

impl Default for SimRng {
    fn default() -> Self {
        Self::seed_from(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn below_is_in_range_and_roughly_uniform() {
        let mut rng = SimRng::seed_from(99);
        let mut buckets = [0u32; 10];
        for _ in 0..10_000 {
            let v = rng.below(10);
            assert!(v < 10);
            buckets[v as usize] += 1;
        }
        for &b in &buckets {
            // Expected 1000 per bucket; 5 sigma ≈ 150.
            assert!((850..1150).contains(&b), "bucket count {b} out of range");
        }
    }

    #[test]
    fn below_handles_bound_one() {
        let mut rng = SimRng::seed_from(3);
        for _ in 0..100 {
            assert_eq!(rng.below(1), 0);
        }
    }

    #[test]
    #[should_panic(expected = "positive bound")]
    fn below_zero_panics() {
        SimRng::seed_from(0).below(0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SimRng::seed_from(5);
        for _ in 0..10_000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn chance_matches_probability() {
        let mut rng = SimRng::seed_from(11);
        let hits = (0..100_000).filter(|_| rng.chance(0.3)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.3).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn geometric_mean_matches_theory() {
        let mut rng = SimRng::seed_from(13);
        let p = 0.01;
        let n = 20_000;
        let total: u64 = (0..n).map(|_| rng.geometric(p)).sum();
        let mean = total as f64 / n as f64;
        let expected = (1.0 - p) / p; // 99
        assert!(
            (mean - expected).abs() < expected * 0.1,
            "mean {mean}, expected {expected}"
        );
    }

    #[test]
    fn geometric_with_p_one_is_zero() {
        let mut rng = SimRng::seed_from(17);
        assert_eq!(rng.geometric(1.0), 0);
    }

    #[test]
    fn binomial_edge_cases() {
        let mut rng = SimRng::seed_from(19);
        assert_eq!(rng.binomial(0, 0.5), 0);
        assert_eq!(rng.binomial(100, 0.0), 0);
        assert_eq!(rng.binomial(100, 1.0), 100);
        for _ in 0..100 {
            assert!(rng.binomial(10, 0.5) <= 10);
        }
    }

    #[test]
    fn binomial_mean_and_variance_small() {
        let mut rng = SimRng::seed_from(21);
        let trials = 20_000;
        let total: u64 = (0..trials).map(|_| rng.binomial(100, 0.5)).sum();
        let mean = total as f64 / trials as f64;
        assert!((mean - 50.0).abs() < 0.5, "mean {mean}");
    }

    #[test]
    fn binomial_mean_and_variance_large_count() {
        let mut rng = SimRng::seed_from(23);
        let trials = 4_000;
        let samples: Vec<u64> = (0..trials).map(|_| rng.binomial(1_000_000, 0.3)).collect();
        let mean = samples.iter().sum::<u64>() as f64 / trials as f64;
        let expect = 300_000.0;
        let var = samples
            .iter()
            .map(|&x| (x as f64 - mean) * (x as f64 - mean))
            .sum::<f64>()
            / trials as f64;
        let expect_var = 1_000_000.0 * 0.3 * 0.7;
        assert!(
            (mean - expect).abs() < expect * 0.001,
            "mean {mean} vs {expect}"
        );
        assert!(
            (var - expect_var).abs() < expect_var * 0.1,
            "variance {var} vs {expect_var}"
        );
    }

    /// Largest `√(f(k)/f(m))·max(|k−a|, |k+1−a|) / (h/2)` over the
    /// support, asserting on the way that no `k` beats the mode `m` by
    /// more than the f64 rounding of the `ln_fact` sums (`ln_fact(scale)`
    /// bounds their magnitude). Values within `64σ + 64` of the centre
    /// are checked one by one; past that the pmfs, being log-concave, have
    /// `t(k) ≤ t(edge)·(k−m)/(edge−m)`, and with `t(edge) ≤ −500` the
    /// product stays below `(k−a+1)·e^{−250(k−m)/(edge−m)}`, which is
    /// negligible and falling.
    fn hat_cover_ratio(target: &RouTarget<impl Fn(u64) -> f64>, sd: f64, scale: u64) -> f64 {
        let tol = 1e-15 * ln_fact(scale).max(1.0);
        let lo = (target.a - 64.0 * sd - 64.0).max(0.0) as u64;
        let hi = ((target.a + 64.0 * sd + 64.0) as u64).min(target.max);
        for edge in [lo, hi] {
            if edge != 0 && edge != target.max {
                assert!(
                    (target.ln_ratio)(edge) <= -500.0,
                    "window edge {edge} too close"
                );
            }
        }
        let mut worst = 0.0f64;
        for k in lo..=hi {
            let t = (target.ln_ratio)(k);
            assert!(t <= tol, "k = {k} beats the mode: t = {t:e}");
            let reach = (k as f64 - target.a)
                .abs()
                .max((k as f64 + 1.0 - target.a).abs());
            worst = worst.max((t / 2.0).exp() * reach / (target.h / 2.0));
        }
        worst
    }

    /// The ratio-of-uniforms hat covers the pmf at every support point —
    /// the condition that makes the rejection loop exact — over a grid of
    /// shapes whose variances straddle [`ROU_MIN_VARIANCE`] (from 2 up to
    /// 2.5·10⁷), with skewed `p`/`K/N` and urns up to `N = 10⁸`.
    #[test]
    fn rou_hat_covers_the_pmf_over_a_grid() {
        let mut shapes = 0;
        let mut worst = 0.0f64;
        let mut note = |ratio: f64, what: String| {
            assert!(ratio <= 1.0, "{what}: hat misses the pmf (ratio {ratio})");
            shapes += 1;
            worst = worst.max(ratio);
        };
        for &total in &[60u64, 1_254, 10_000, 1_000_000, 100_000_000] {
            for &kf in &[0.5f64, 0.3, 0.1, 0.01, 0.001] {
                for &df in &[0.5f64, 0.2, 0.05, 0.01, 0.001, 0.000_1] {
                    let tagged = (total as f64 * kf) as u64;
                    let draws = (total as f64 * df) as u64;
                    if tagged == 0 || draws == 0 {
                        continue;
                    }
                    let frac = tagged as f64 / total as f64;
                    let variance = draws as f64 * frac * (1.0 - frac) * (total - draws) as f64
                        / (total - 1) as f64;
                    if variance < 2.0 {
                        continue;
                    }
                    let target = hypergeometric_target(total, tagged, draws, variance);
                    let ratio = hat_cover_ratio(&target, variance.sqrt(), total);
                    note(ratio, format!("hypergeometric({total}, {tagged}, {draws})"));
                }
            }
        }
        for &count in &[65u64, 200, 1_254, 100_000, 100_000_000] {
            for &p in &[0.5f64, 0.3, 0.1, 0.03, 0.01, 1e-4, 1e-6] {
                let variance = count as f64 * p * (1.0 - p);
                if variance < 2.0 {
                    continue;
                }
                let ratio = hat_cover_ratio(&binomial_target(count, p), variance.sqrt(), count);
                note(ratio, format!("binomial({count}, {p})"));
            }
        }
        assert!(shapes >= 100, "grid too small: {shapes} shapes");
        // The hat approaches the pmf only as σ → ∞; a worst ratio far
        // below 1 would mean the grid never reached that regime.
        assert!(worst > 0.999, "worst ratio {worst}");
    }

    #[test]
    fn ln_fact_matches_direct_summation() {
        // Straddle the table/Stirling cutoff.
        for x in [0u64, 1, 5, 120, 1023, 1024, 5000, 100_000] {
            let direct: f64 = (2..=x).map(|i| (i as f64).ln()).sum();
            let got = ln_fact(x);
            assert!(
                (got - direct).abs() < 1e-9 * direct.max(1.0),
                "ln_fact({x}) = {got}, direct {direct}"
            );
        }
    }

    #[test]
    fn hypergeometric_edge_cases() {
        let mut rng = SimRng::seed_from(31);
        assert_eq!(rng.hypergeometric(10, 0, 5), 0);
        assert_eq!(rng.hypergeometric(10, 10, 5), 5);
        assert_eq!(rng.hypergeometric(10, 3, 0), 0);
        assert_eq!(rng.hypergeometric(10, 3, 10), 3);
        // Degenerate support: 9 tagged of 10, draw 5 ⇒ at least 4 tagged.
        for _ in 0..200 {
            let x = rng.hypergeometric(10, 9, 5);
            assert!((4..=5).contains(&x), "x = {x} outside support");
        }
    }

    #[test]
    fn hypergeometric_mean_and_variance() {
        // Collision-batch-shaped parameters: draw ~√n from a third of 10⁶.
        let (total, tagged, draws) = (1_000_000u64, 333_333u64, 1_254u64);
        let mut rng = SimRng::seed_from(37);
        let trials = 4_000;
        let samples: Vec<u64> = (0..trials)
            .map(|_| rng.hypergeometric(total, tagged, draws))
            .collect();
        let mean = samples.iter().sum::<u64>() as f64 / trials as f64;
        let expect = draws as f64 * tagged as f64 / total as f64;
        let var = samples
            .iter()
            .map(|&x| (x as f64 - mean) * (x as f64 - mean))
            .sum::<f64>()
            / trials as f64;
        let p = tagged as f64 / total as f64;
        let fpc = (total - draws) as f64 / (total - 1) as f64;
        let expect_var = draws as f64 * p * (1.0 - p) * fpc;
        assert!((mean - expect).abs() < expect * 0.01, "mean {mean}");
        assert!(
            (var - expect_var).abs() < expect_var * 0.1,
            "variance {var} vs {expect_var}"
        );
    }

    #[test]
    fn multivariate_hypergeometric_sums_and_bounds() {
        let mut rng = SimRng::seed_from(41);
        let weights = [400u64, 0, 350, 250];
        let mut out = [0u64; 4];
        for _ in 0..500 {
            rng.multivariate_hypergeometric_into(&weights, 120, &mut out);
            assert_eq!(out.iter().sum::<u64>(), 120);
            assert_eq!(out[1], 0, "empty category must stay empty");
            for (o, w) in out.iter().zip(&weights) {
                assert!(o <= w);
            }
        }
        // Drawing the whole urn returns it exactly.
        rng.multivariate_hypergeometric_into(&weights, 1000, &mut out);
        assert_eq!(out, weights);
    }
}
