//! Shared by the tests that check a sampler against an exact law.

use population_protocols::engine::stats::chi_square_p_value;
use std::collections::HashMap;

/// Chi-square goodness of fit of `observed` configuration counts against
/// the exact law `exact`, failing `name` below the level `alpha`.
/// Configurations expected at least 5 times get a bin each; the rest share
/// one bin, folded into the smallest bin when it would be expected fewer
/// than 5 times.
pub fn assert_matches_exact(
    name: &str,
    exact: &[(Vec<u64>, f64)],
    observed: &HashMap<Vec<u64>, u64>,
    alpha: f64,
) {
    let samples = observed.values().sum::<u64>() as f64;
    for config in observed.keys() {
        assert!(
            exact.iter().any(|(c, _)| c == config),
            "{name}: configuration {config:?} has probability 0"
        );
    }
    let mut bins: Vec<(f64, f64)> = Vec::new();
    let mut pooled = (0.0, 0.0);
    for (config, p) in exact {
        let expected = p * samples;
        let got = observed.get(config).copied().unwrap_or(0) as f64;
        if expected >= 5.0 {
            bins.push((expected, got));
        } else {
            pooled.0 += expected;
            pooled.1 += got;
        }
    }
    if pooled.0 >= 5.0 {
        bins.push(pooled);
    } else {
        let smallest = bins
            .iter_mut()
            .min_by(|x, y| x.0.total_cmp(&y.0))
            .expect("some configuration is expected 5 times");
        smallest.0 += pooled.0;
        smallest.1 += pooled.1;
    }
    let stat: f64 = bins.iter().map(|(e, o)| (o - e) * (o - e) / e).sum();
    let dof = bins.len() - 1;
    let p = chi_square_p_value(stat, dof);
    assert!(
        p > alpha,
        "{name}: the counts differ from the exact law \
         (chi² = {stat:.1}, dof = {dof}, p = {p:.2e})"
    );
}
