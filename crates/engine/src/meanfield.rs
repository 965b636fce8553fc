//! Mean-field (continuous-limit) integration of population protocols.
//!
//! The paper's proofs repeatedly use the continuous approximation: identify
//! the population configuration with the point `x ∈ [0,1]^k` of state
//! fractions, and approximate the stochastic evolution by the ODE system
//! obtained in the `n → ∞` limit. For a protocol with outcome distribution
//! `P[(a,b) → (a',b')]`, one parallel time unit corresponds to `n`
//! interactions, and the drift of state `s` is
//!
//! ```text
//! dx_s/dt = Σ_{a,b} x_a x_b Σ_{(a',b')} P[(a,b)→(a',b')] · (Δ_s(a,b→a',b'))
//! ```
//!
//! where `Δ_s` counts the net change of state-`s` agents in the transition
//! (−2, −1, 0, 1, or 2). This module computes that vector field from any
//! protocol that lists its outcomes ([`Protocol::outcome_table`]) and
//! integrates it with classic fixed-step RK4.
//!
//! The experiments use this to overlay stochastic trajectories on their
//! deterministic limits (e.g. the `|X| ≈ n·e^{−t^{1/k}}` decay of
//! Proposition 5.5) and to locate fixed points of the oscillator dynamics.

use crate::protocol::Protocol;

/// Computes the mean-field drift `dx/dt` at fractions `x`.
///
/// `x` must have one entry per protocol state; entries should be
/// non-negative and sum to ≈ 1, but the drift is well-defined for any `x`.
///
/// # Panics
///
/// Panics if `x.len() != protocol.num_states()`, or if the protocol lists
/// no outcomes for a pair of occupied states.
#[must_use]
pub fn drift<P: Protocol + ?Sized>(protocol: &P, x: &[f64]) -> Vec<f64> {
    let k = protocol.num_states();
    assert_eq!(x.len(), k, "fraction vector has wrong length");
    let mut dx = vec![0.0; k];
    for a in 0..k {
        if x[a] == 0.0 {
            continue;
        }
        for b in 0..k {
            if x[b] == 0.0 {
                continue;
            }
            let rate = x[a] * x[b];
            let outcomes = protocol.outcome_table(a, b).unwrap_or_else(|| {
                panic!(
                    "mean-field drift needs the outcome table of `{}`",
                    protocol.name()
                )
            });
            for ((a2, b2), p) in outcomes {
                if (a2, b2) == (a, b) || p == 0.0 {
                    continue;
                }
                let w = rate * p;
                dx[a] -= w;
                dx[b] -= w;
                dx[a2] += w;
                dx[b2] += w;
            }
        }
    }
    dx
}

/// A recorded mean-field trajectory: state fractions sampled on a time grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    /// Sample times, in parallel-time units.
    pub times: Vec<f64>,
    /// `states[i]` is the fraction vector at `times[i]`.
    pub states: Vec<Vec<f64>>,
}

impl Trajectory {
    /// Fraction of state `s` over time as `(t, x_s)` pairs.
    #[must_use]
    pub fn series(&self, s: usize) -> Vec<(f64, f64)> {
        self.times
            .iter()
            .zip(&self.states)
            .map(|(&t, x)| (t, x[s]))
            .collect()
    }

    /// The final fraction vector.
    ///
    /// # Panics
    ///
    /// Panics if the trajectory is empty.
    #[must_use]
    pub fn last(&self) -> &[f64] {
        self.states
            .last()
            .expect("integrate always records the initial state")
    }
}

/// Integrates the mean-field ODE with fixed-step RK4 from `x0` for
/// `duration` parallel-time units, recording every `record_every`-th step.
///
/// `dt` is the integration step; `record_every = 0` records only the first
/// and last points.
///
/// # Panics
///
/// Panics if `dt <= 0`, `duration < 0`, `x0` has the wrong length, or the
/// protocol lists no outcomes ([`drift`]).
#[must_use]
pub fn integrate<P: Protocol + ?Sized>(
    protocol: &P,
    x0: &[f64],
    duration: f64,
    dt: f64,
    record_every: usize,
) -> Trajectory {
    assert!(dt > 0.0, "dt must be positive");
    assert!(duration >= 0.0, "duration must be non-negative");
    assert_eq!(x0.len(), protocol.num_states());
    let steps = (duration / dt).ceil() as usize;
    let mut x = x0.to_vec();
    let mut times = vec![0.0];
    let mut states = vec![x.clone()];
    let k = x.len();

    let axpy = |x: &[f64], h: f64, d: &[f64]| -> Vec<f64> {
        x.iter().zip(d).map(|(&xi, &di)| xi + h * di).collect()
    };

    for step in 1..=steps {
        let k1 = drift(protocol, &x);
        let k2 = drift(protocol, &axpy(&x, dt / 2.0, &k1));
        let k3 = drift(protocol, &axpy(&x, dt / 2.0, &k2));
        let k4 = drift(protocol, &axpy(&x, dt, &k3));
        for i in 0..k {
            x[i] += dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
            // Clamp tiny negative drift from floating point error.
            if x[i] < 0.0 && x[i] > -1e-12 {
                x[i] = 0.0;
            }
        }
        if (record_every > 0 && step % record_every == 0) || step == steps {
            times.push(step as f64 * dt);
            states.push(x.clone());
        }
    }
    Trajectory { times, states }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::TableProtocol;

    /// One-way epidemic: infected fraction y obeys dy/dt = 2·y(1−y)
    /// (both orientations of the pair fire).
    fn epidemic() -> TableProtocol {
        TableProtocol::new(2, "epidemic")
            .rule(1, 0, 1, 1)
            .rule(0, 1, 1, 1)
    }

    #[test]
    fn drift_of_epidemic_is_logistic() {
        let p = epidemic();
        let d = drift(&p, &[0.7, 0.3]);
        // dy/dt = 2·x·y = 2·0.7·0.3 = 0.42 (each reactive interaction converts one).
        assert!((d[1] - 0.42).abs() < 1e-12, "drift {d:?}");
        assert!((d[0] + 0.42).abs() < 1e-12);
    }

    #[test]
    fn drift_conserves_total_mass() {
        let p = TableProtocol::new(3, "cycle")
            .rule(0, 1, 1, 1)
            .rule(1, 2, 2, 2)
            .rule(2, 0, 0, 0);
        let d = drift(&p, &[0.2, 0.3, 0.5]);
        let total: f64 = d.iter().sum();
        assert!(total.abs() < 1e-12, "mass leak {total}");
    }

    #[test]
    fn epidemic_integrates_to_closed_form() {
        // dy/dt = 2 y (1−y), y(0)=y0 ⇒ y(t) = y0 e^{2t} / (1 − y0 + y0 e^{2t}).
        let p = epidemic();
        let y0 = 0.01_f64;
        let traj = integrate(&p, &[1.0 - y0, y0], 2.0, 1e-3, 0);
        let y = traj.last()[1];
        let t = 2.0_f64;
        let expect = y0 * (2.0 * t).exp() / (1.0 - y0 + y0 * (2.0 * t).exp());
        assert!((y - expect).abs() < 1e-6, "y {y} vs closed form {expect}");
    }

    #[test]
    fn probabilistic_rules_scale_drift() {
        let p = TableProtocol::new(2, "slow")
            .rule_p(1, 0, 1, 1, 0.5)
            .rule_p(0, 1, 1, 1, 0.5);
        let d = drift(&p, &[0.5, 0.5]);
        // Half the rate of the deterministic epidemic at the same point.
        assert!((d[1] - 0.25).abs() < 1e-12, "drift {d:?}");
    }

    #[test]
    fn trajectory_series_extracts_component() {
        let p = epidemic();
        let traj = integrate(&p, &[0.9, 0.1], 1.0, 0.1, 2);
        let series = traj.series(1);
        assert_eq!(series.len(), traj.times.len());
        assert!(
            series.windows(2).all(|w| w[1].1 >= w[0].1),
            "monotone growth"
        );
    }

    #[test]
    fn fixed_point_is_stationary() {
        let p = epidemic();
        let traj = integrate(&p, &[0.0, 1.0], 5.0, 0.01, 0);
        assert!((traj.last()[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "outcome table of `no-table`")]
    fn protocols_without_an_outcome_table_are_named() {
        struct NoTable;
        impl Protocol for NoTable {
            fn num_states(&self) -> usize {
                2
            }
            fn interact(&self, a: usize, b: usize, _: &mut crate::rng::SimRng) -> (usize, usize) {
                (a, b)
            }
            fn name(&self) -> &str {
                "no-table"
            }
        }
        let _ = drift(&NoTable, &[0.5, 0.5]);
    }

    #[test]
    #[should_panic(expected = "dt must be positive")]
    fn zero_dt_rejected() {
        let p = epidemic();
        let _ = integrate(&p, &[0.5, 0.5], 1.0, 0.0, 1);
    }
}
