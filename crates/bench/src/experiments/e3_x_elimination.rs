//! E3 — Proposition 5.3: the pairwise-elimination process
//! `▷ (X)+(X) → (X)+(¬X)` keeps `#X ≥ 1` forever and reaches
//! `#X < n^{1−ε}` within `O(n^ε)` rounds.
//!
//! Measures the hitting time of `#X < n^{1−ε}` for ε ∈ {0.25, 0.5} across
//! a ladder of `n`, and fits `T ~ n^ε` on log–log axes.

use super::per_seed;
use crate::n_ladder;
use pp_clocks::junta::PairwiseElimination;
use pp_engine::counts::CountPopulation;
use pp_engine::report::{fmt_f64, Table};
use pp_engine::rng::SimRng;
use pp_engine::sim::{run_until, Simulator};
use pp_engine::stats::{fit_power_exponent, Summary};

pub(crate) fn run(ctx: &mut crate::run::Ctx) -> u8 {
    let scale = ctx.scale();
    let ns = n_ladder(1 << 10, 4, scale.pick(3, 5, 6));
    let seeds = scale.pick(8u64, 20, 40);

    let mut table = Table::new(vec!["n", "eps", "target #X", "T_med", "T_p90", "n^eps"]);
    for &eps in &[0.25f64, 0.5] {
        let mut points = Vec::new();
        for &n in &ns {
            let target = (n as f64).powf(1.0 - eps) as u64;
            let times = per_seed(seeds, |seed| {
                let p = PairwiseElimination::new();
                let mut pop = CountPopulation::from_counts(p, &[0, n]);
                let mut rng = SimRng::seed_from(0xE3_0000 + seed * 13 + n);
                run_until(&mut pop, &mut rng, 1e9, 64, |s| s.count(1) < target)
                    .expect("elimination always reaches the target")
            });
            let summary = Summary::of(&times);
            points.push((n as f64, summary.median));
            table.row(vec![
                n.to_string(),
                fmt_f64(eps),
                target.to_string(),
                fmt_f64(summary.median),
                fmt_f64(summary.p90),
                fmt_f64((n as f64).powf(eps)),
            ]);
        }
        let fit = fit_power_exponent(&points);
        println!(
            "eps = {eps}: hitting time ~ n^{:.3} (R²={:.3}; theory {eps})",
            fit.slope, fit.r_squared
        );
    }
    println!("\nE3 — Proposition 5.3: #X elimination in O(n^eps) rounds\n");
    ctx.emit("e3_x_elimination", &table);
    0
}
