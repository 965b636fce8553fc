//! Summary statistics and regression fits for experiment harnesses.
//!
//! The reproduction verifies *scaling claims* ("convergence in `O(log² n)`
//! rounds"), so the primary tools are quantile summaries over repeated runs
//! and least-squares fits of measured times against powers of `log n` (or
//! `n^ε`) on transformed axes.

/// Summary of a sample: mean, standard deviation, and quantiles.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n < 2).
    pub std_dev: f64,
    /// Minimum observation.
    pub min: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// 90th percentile.
    pub p90: f64,
    /// Maximum observation.
    pub max: f64,
}

impl Summary {
    /// Summarizes a sample.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or contains NaN.
    #[must_use]
    pub fn of(data: &[f64]) -> Self {
        assert!(!data.is_empty(), "cannot summarize an empty sample");
        assert!(data.iter().all(|x| !x.is_nan()), "sample contains NaN");
        let count = data.len();
        let mean = data.iter().sum::<f64>() / count as f64;
        let var = if count > 1 {
            data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (count - 1) as f64
        } else {
            0.0
        };
        let mut sorted = data.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("summary inputs must be NaN-free"));
        Self {
            count,
            mean,
            std_dev: var.sqrt(),
            min: sorted[0],
            median: quantile_sorted(&sorted, 0.5),
            p90: quantile_sorted(&sorted, 0.9),
            max: sorted[count - 1],
        }
    }
}

/// Returns the `q`-quantile of pre-sorted data by linear interpolation.
///
/// # Panics
///
/// Panics if `data` is empty or `q` outside `[0, 1]`.
#[must_use]
pub fn quantile_sorted(data: &[f64], q: f64) -> f64 {
    assert!(!data.is_empty());
    assert!((0.0..=1.0).contains(&q));
    if data.len() == 1 {
        return data[0];
    }
    let pos = q * (data.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    data[lo] * (1.0 - frac) + data[hi] * frac
}

/// Result of an ordinary least-squares line fit `y ≈ slope·x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LineFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination in `[0, 1]` (1 = perfect fit).
    pub r_squared: f64,
}

/// Fits a least-squares line through `(x, y)` pairs.
///
/// # Panics
///
/// Panics if fewer than 2 points are given or all `x` are identical.
#[must_use]
pub fn fit_line(points: &[(f64, f64)]) -> LineFit {
    assert!(points.len() >= 2, "line fit needs at least 2 points");
    let n = points.len() as f64;
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = points.iter().map(|p| (p.0 - mx).powi(2)).sum();
    assert!(sxx > 0.0, "all x values identical");
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let ss_res: f64 = points
        .iter()
        .map(|p| (p.1 - (slope * p.0 + intercept)).powi(2))
        .sum();
    let ss_tot: f64 = points.iter().map(|p| (p.1 - my).powi(2)).sum();
    let r_squared = if ss_tot == 0.0 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };
    LineFit {
        slope,
        intercept,
        r_squared,
    }
}

/// Estimates the exponent `β` in `y ≈ C·(log₂ x)^β` by fitting a line on
/// `(ln ln x, ln y)`.
///
/// This is the workhorse for verifying polylogarithmic-time claims:
/// `O(log² n)` convergence should produce `β ≈ 2` over a wide range of `n`.
///
/// # Panics
///
/// Panics if any `x ≤ 2` or `y ≤ 0`, or fewer than 2 points.
#[must_use]
pub fn fit_polylog_exponent(points: &[(f64, f64)]) -> LineFit {
    let transformed: Vec<(f64, f64)> = points
        .iter()
        .map(|&(x, y)| {
            assert!(x > 2.0, "polylog fit requires x > 2");
            assert!(y > 0.0, "polylog fit requires y > 0");
            (x.log2().ln(), y.ln())
        })
        .collect();
    fit_line(&transformed)
}

/// Estimates the exponent `β` in `y ≈ C·x^β` by fitting a line on
/// `(ln x, ln y)` — for polynomial-time claims such as `T = O(n^ε)`.
///
/// # Panics
///
/// Panics if any coordinate is non-positive, or fewer than 2 points.
#[must_use]
pub fn fit_power_exponent(points: &[(f64, f64)]) -> LineFit {
    let transformed: Vec<(f64, f64)> = points
        .iter()
        .map(|&(x, y)| {
            assert!(x > 0.0 && y > 0.0, "power fit requires positive data");
            (x.ln(), y.ln())
        })
        .collect();
    fit_line(&transformed)
}

/// Two-sided binomial confidence check: is observing `successes` out of
/// `trials` consistent with success probability at least `p_min`?
///
/// Uses the normal approximation with continuity correction at the given
/// number of standard deviations `z` (e.g. 3.0 ≈ 99.7%). Used to verify
/// "w.h.p. correct" claims with bounded sample sizes.
#[must_use]
pub fn consistent_with_rate(successes: u64, trials: u64, p_min: f64, z: f64) -> bool {
    if trials == 0 {
        return true;
    }
    let n = trials as f64;
    let expect = p_min * n;
    let sd = (n * p_min * (1.0 - p_min)).sqrt();
    successes as f64 + 0.5 >= expect - z * sd
}

/// Pearson chi-square statistic for the homogeneity of two count samples
/// over the same categories, e.g. pooled state counts produced by two
/// simulation strategies that should induce the same distribution.
///
/// Categories empty in *both* samples are dropped; the returned degrees of
/// freedom are `(non-empty categories) − 1`. Returns `(0.0, 0)` when fewer
/// than two categories carry mass.
///
/// # Panics
///
/// Panics if the slices have different lengths or either sample is empty.
#[must_use]
pub fn chi_square_two_sample(a: &[u64], b: &[u64]) -> (f64, usize) {
    assert_eq!(a.len(), b.len(), "samples must share categories");
    let ta: u64 = a.iter().sum();
    let tb: u64 = b.iter().sum();
    assert!(ta > 0 && tb > 0, "empty sample");
    let grand = (ta + tb) as f64;
    let mut stat = 0.0;
    let mut cats = 0usize;
    for (&ca, &cb) in a.iter().zip(b) {
        let pooled = ca + cb;
        if pooled == 0 {
            continue;
        }
        cats += 1;
        let ea = ta as f64 * pooled as f64 / grand;
        let eb = tb as f64 * pooled as f64 / grand;
        stat += (ca as f64 - ea).powi(2) / ea + (cb as f64 - eb).powi(2) / eb;
    }
    (stat, cats.saturating_sub(1))
}

/// Upper-tail p-value of the chi-square distribution: `P(X² ≥ stat)` with
/// `dof` degrees of freedom, via the regularized incomplete gamma function.
///
/// Accurate to ~1e-10 over the ranges used in tests. `dof = 0` returns 1.
#[must_use]
pub fn chi_square_p_value(stat: f64, dof: usize) -> f64 {
    if dof == 0 || stat <= 0.0 {
        return 1.0;
    }
    1.0 - gamma_p(dof as f64 / 2.0, stat / 2.0)
}

/// Regularized lower incomplete gamma `P(a, x)` (series for `x < a + 1`,
/// continued fraction otherwise — Numerical Recipes `gammp`).
fn gamma_p(a: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    let ln_ga = ln_gamma(a);
    if x < a + 1.0 {
        // Series representation.
        let mut ap = a;
        let mut sum = 1.0 / a;
        let mut del = sum;
        for _ in 0..500 {
            ap += 1.0;
            del *= x / ap;
            sum += del;
            if del.abs() < sum.abs() * 1e-15 {
                break;
            }
        }
        sum * (-x + a * x.ln() - ln_ga).exp()
    } else {
        // Continued fraction for Q(a, x) = 1 − P(a, x).
        let tiny = 1e-300;
        let mut b = x + 1.0 - a;
        let mut c = 1.0 / tiny;
        let mut d = 1.0 / b;
        let mut h = d;
        for i in 1..500 {
            let an = -(i as f64) * (i as f64 - a);
            b += 2.0;
            d = an * d + b;
            if d.abs() < tiny {
                d = tiny;
            }
            c = b + an / c;
            if c.abs() < tiny {
                c = tiny;
            }
            d = 1.0 / d;
            let del = d * c;
            h *= del;
            if (del - 1.0).abs() < 1e-15 {
                break;
            }
        }
        1.0 - (-x + a * x.ln() - ln_ga).exp() * h
    }
}

/// Lanczos approximation of `ln Γ(x)` for `x > 0`.
fn ln_gamma(x: f64) -> f64 {
    const COEF: [f64; 6] = [
        76.180_091_729_471_46,
        -86.505_320_329_416_77,
        24.014_098_240_830_91,
        -1.231_739_572_450_155,
        0.120_865_097_386_617_5e-2,
        -0.539_523_938_495_3e-5,
    ];
    let mut y = x;
    let tmp = x + 5.5;
    let tmp = tmp - (x + 0.5) * tmp.ln();
    let mut ser = 1.000_000_000_190_015;
    for c in COEF {
        y += 1.0;
        ser += c / y;
    }
    -tmp + (2.506_628_274_631_000_5 * ser / x).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.count, 5);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert!((s.median - 3.0).abs() < 1e-12);
        assert!((s.std_dev - (2.5f64).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let data = [0.0, 10.0];
        assert!((quantile_sorted(&data, 0.25) - 2.5).abs() < 1e-12);
        assert_eq!(quantile_sorted(&data, 0.0), 0.0);
        assert_eq!(quantile_sorted(&data, 1.0), 10.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn summary_rejects_empty() {
        let _ = Summary::of(&[]);
    }

    #[test]
    fn line_fit_recovers_exact_line() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 * i as f64 - 1.0)).collect();
        let fit = fit_line(&pts);
        assert!((fit.slope - 3.0).abs() < 1e-12);
        assert!((fit.intercept + 1.0).abs() < 1e-12);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
    }

    #[test]
    fn polylog_fit_recovers_exponent() {
        // y = 5 (log2 x)^2.
        let pts: Vec<(f64, f64)> = (4..14)
            .map(|e| {
                let x = (1u64 << e) as f64;
                (x, 5.0 * x.log2().powi(2))
            })
            .collect();
        let fit = fit_polylog_exponent(&pts);
        assert!((fit.slope - 2.0).abs() < 1e-9, "slope {}", fit.slope);
    }

    #[test]
    fn power_fit_recovers_exponent() {
        // y = 2 x^0.5.
        let pts: Vec<(f64, f64)> = (1..20)
            .map(|i| {
                let x = 100.0 * i as f64;
                (x, 2.0 * x.sqrt())
            })
            .collect();
        let fit = fit_power_exponent(&pts);
        assert!((fit.slope - 0.5).abs() < 1e-9, "slope {}", fit.slope);
    }

    #[test]
    fn rate_consistency_accepts_good_rates() {
        assert!(consistent_with_rate(97, 100, 0.95, 3.0));
        assert!(consistent_with_rate(100, 100, 0.99, 3.0));
    }

    #[test]
    fn rate_consistency_rejects_bad_rates() {
        assert!(!consistent_with_rate(50, 100, 0.95, 3.0));
        assert!(!consistent_with_rate(0, 100, 0.5, 3.0));
    }

    #[test]
    fn rate_consistency_trivial_cases() {
        assert!(consistent_with_rate(0, 0, 0.99, 3.0));
        // Tiny samples are almost always consistent.
        assert!(consistent_with_rate(1, 1, 0.9, 3.0));
    }

    #[test]
    fn chi_square_identical_samples_have_zero_stat() {
        let (stat, dof) = chi_square_two_sample(&[100, 200, 300], &[100, 200, 300]);
        assert!(stat.abs() < 1e-12);
        assert_eq!(dof, 2);
        assert!((chi_square_p_value(stat, dof) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn chi_square_detects_gross_mismatch() {
        let (stat, dof) = chi_square_two_sample(&[1000, 10], &[10, 1000]);
        assert_eq!(dof, 1);
        assert!(chi_square_p_value(stat, dof) < 1e-6, "stat {stat}");
    }

    #[test]
    fn chi_square_drops_empty_categories() {
        let (_, dof) = chi_square_two_sample(&[50, 0, 50], &[40, 0, 60]);
        assert_eq!(dof, 1);
    }

    #[test]
    fn chi_square_p_values_match_known_quantiles() {
        // Standard table: P(X² ≥ 3.841 | dof 1) = 0.05,
        // P(X² ≥ 5.991 | dof 2) = 0.05, P(X² ≥ 11.345 | dof 3) = 0.01.
        assert!((chi_square_p_value(3.841, 1) - 0.05).abs() < 1e-3);
        assert!((chi_square_p_value(5.991, 2) - 0.05).abs() < 1e-3);
        assert!((chi_square_p_value(11.345, 3) - 0.01).abs() < 1e-3);
    }
}
