//! Property-based tests for the engine's probabilistic and data-structure
//! invariants, driven by seeded random case generation (no external
//! property-testing dependency: cases are drawn from [`SimRng`], so every
//! failure is reproducible from the printed case index).

use pp_engine::meanfield;
use pp_engine::protocol::{Protocol, ProtocolSpec, TableProtocol};
use pp_engine::rng::SimRng;
use pp_engine::stats::{fit_line, quantile_sorted, Summary};

const CASES: u64 = 256;

/// Binomial samples stay in range for arbitrary parameters.
#[test]
fn binomial_in_range() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(400 + case);
        let count = rng.below(2_000_000);
        let p = rng.f64();
        let x = rng.binomial(count, p);
        assert!(x <= count, "case {case}: {x} > {count}");
    }
}

/// Geometric samples are finite and non-negative for valid p.
#[test]
fn geometric_is_finite() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(500 + case);
        let p = 0.001 + 0.999 * rng.f64();
        let _ = rng.geometric(p);
    }
}

/// below(k) is always < k.
#[test]
fn below_in_range() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(600 + case);
        let bound = 1 + (rng.next_u64() >> 1);
        assert!(rng.below(bound) < bound, "case {case}");
    }
}

/// The mean-field drift conserves total mass for conservative protocols
/// (population protocols never create or destroy agents).
#[test]
fn drift_conserves_mass() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(700 + case);
        let x0 = rng.f64();
        let x1 = rng.f64();
        let total = x0 + x1;
        if total <= 0.0 {
            continue;
        }
        let p = TableProtocol::new(2, "e").rule(1, 0, 1, 1).rule(0, 1, 1, 1);
        let d = meanfield::drift(&p, &[x0 / total, x1 / total]);
        assert!(d.iter().sum::<f64>().abs() < 1e-12, "case {case}");
    }
}

/// TableProtocol outcome distributions always sum to 1.
#[test]
fn outcomes_normalized() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(800 + case);
        let a = rng.index(3);
        let b = rng.index(3);
        let p1 = 0.01 + 0.49 * rng.f64();
        let p2 = 0.01 + 0.49 * rng.f64();
        let proto = TableProtocol::new(3, "t")
            .rule_p(0, 1, 2, 2, p1)
            .rule_p(0, 1, 1, 0, p2)
            .rule(2, 2, 0, 0);
        let outs = proto.outcomes(a, b);
        let total: f64 = outs.iter().map(|&(_, q)| q).sum();
        assert!((total - 1.0).abs() < 1e-9, "case {case}: total {total}");
    }
}

/// interact() only returns states the outcome distribution supports.
#[test]
fn interact_supported_by_outcomes() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(900 + case);
        let a = rng.index(3);
        let b = rng.index(3);
        let proto = TableProtocol::new(3, "t")
            .rule_p(0, 1, 2, 2, 0.5)
            .rule(1, 2, 0, 0);
        let result = proto.interact(a, b, &mut rng);
        let outs = proto.outcomes(a, b);
        assert!(
            outs.iter().any(|&(o, q)| o == result && q > 0.0),
            "case {case}: result {result:?} not in {outs:?}"
        );
    }
}

/// Summary quantiles are ordered and bounded by min/max.
#[test]
fn summary_is_ordered() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(1000 + case);
        let len = 1 + rng.index(99);
        let data: Vec<f64> = (0..len).map(|_| (rng.f64() - 0.5) * 2e6).collect();
        let s = Summary::of(&data);
        assert!(
            s.min <= s.median && s.median <= s.p90 && s.p90 <= s.max,
            "case {case}"
        );
        assert!(s.min <= s.mean && s.mean <= s.max, "case {case}");
    }
}

/// quantile_sorted is monotone in q.
#[test]
fn quantiles_monotone() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(1100 + case);
        let len = 2 + rng.index(48);
        let mut data: Vec<f64> = (0..len).map(|_| (rng.f64() - 0.5) * 2e3).collect();
        data.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let q1 = rng.f64();
        let q2 = rng.f64();
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        assert!(
            quantile_sorted(&data, lo) <= quantile_sorted(&data, hi) + 1e-9,
            "case {case}"
        );
    }
}

/// Line fits recover exact affine relationships.
#[test]
fn fit_line_exact() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(1200 + case);
        let slope = (rng.f64() - 0.5) * 200.0;
        let intercept = (rng.f64() - 0.5) * 200.0;
        let pts: Vec<(f64, f64)> = (0..10)
            .map(|i| {
                let x = i as f64;
                (x, slope * x + intercept)
            })
            .collect();
        let fit = fit_line(&pts);
        assert!((fit.slope - slope).abs() < 1e-6, "case {case}");
        assert!((fit.intercept - intercept).abs() < 1e-6, "case {case}");
    }
}
