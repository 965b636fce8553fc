//! E5 — Theorem 5.1: the oscillator escapes the central region in
//! `O(log n)` rounds and rotates `A₁ → A₂ → A₃` with period `Θ(log n)`,
//! under both the asynchronous and random-matching schedulers.
//!
//! Also ablates the DK18-style charge mechanism against plain
//! rock–paper–scissors, demonstrating why the paper builds on \[DK18\]: the
//! plain dynamic never leaves the central fixed point at scale.

use super::per_seed;
use crate::n_ladder;
use pp_clocks::detect::{dominance_events, escape_time, periods, rotation_violations};
use pp_clocks::oscillator::{central_init, Dk18Oscillator, Oscillator, RpsOscillator};
use pp_engine::counts::CountPopulation;
use pp_engine::matching::MatchingPopulation;
use pp_engine::report::{fmt_f64, Table};
use pp_engine::rng::SimRng;
use pp_engine::sim::Simulator;
use pp_engine::stats::{fit_polylog_exponent, Summary};

/// Species rows of the oscillator from its central configuration under
/// the asynchronous scheduler, one per n/4 interactions up to `rounds`.
pub(crate) fn run_async<O: Oscillator + Clone + Send + Sync>(
    osc: &O,
    n: u64,
    x: u64,
    rounds: f64,
    seed: u64,
) -> Vec<(f64, [u64; 3])> {
    let init = central_init(osc, n, x);
    let mut pop = CountPopulation::from_counts(osc.clone(), &init);
    let mut rng = SimRng::seed_from(seed);
    let mut trace = Vec::new();
    while pop.time() < rounds {
        let out = pop.step_batch(&mut rng, (n / 4).max(1));
        trace.push((pop.time(), osc.species_counts(&pop.counts())));
        if out.silent && out.executed == 0 {
            break;
        }
    }
    trace
}

/// Species rows under the random-matching scheduler, one per round.
pub(crate) fn run_matching<O: Oscillator + Clone + Send + Sync>(
    osc: &O,
    n: u64,
    x: u64,
    rounds: u64,
    seed: u64,
) -> Vec<(f64, [u64; 3])> {
    let init = central_init(osc, n, x);
    let mut pop = MatchingPopulation::from_counts(osc.clone(), &init);
    let mut rng = SimRng::seed_from(seed);
    let mut trace = Vec::new();
    for _ in 0..rounds {
        pop.round(&mut rng);
        trace.push((pop.rounds() as f64, osc.species_counts(&pop.counts())));
    }
    trace
}

/// One run's escape time (if it escaped), dominance periods and rotation
/// violations.
type RotationStats = (Option<f64>, Vec<f64>, usize);

fn rotation_stats(trace: &[(f64, [u64; 3])], bound: u64) -> RotationStats {
    let ev = dominance_events(trace, 0.8);
    (
        escape_time(trace, bound),
        periods(&ev),
        rotation_violations(&ev),
    )
}

/// Every run's escape times and periods, and the violations summed.
fn pool(stats: &[RotationStats]) -> (Vec<f64>, Vec<f64>, usize) {
    let escapes = stats.iter().filter_map(|s| s.0).collect();
    let all_periods = stats.iter().flat_map(|s| s.1.clone()).collect();
    (escapes, all_periods, stats.iter().map(|s| s.2).sum())
}

pub(crate) fn run(ctx: &mut crate::run::Ctx) -> u8 {
    let scale = ctx.scale();
    let ns = n_ladder(1_000, 10, scale.pick(2, 3, 4));
    let seeds = scale.pick(5u64, 10, 20);
    let horizon = scale.pick(300.0, 500.0, 800.0);

    let mut table = Table::new(vec![
        "oscillator",
        "scheduler",
        "n",
        "#X",
        "escape_med",
        "period_med",
        "rot_viol",
        "log2 n",
    ]);
    let mut escape_pts = Vec::new();
    let mut period_pts = Vec::new();

    for &n in &ns {
        let x = ((n as f64).powf(0.3) as u64).max(1);
        let bound = (n as f64).powf(0.75) as u64;
        // DK18, asynchronous.
        let stats = per_seed(seeds, |seed| {
            let osc = Dk18Oscillator::new();
            let trace = run_async(&osc, n, x, horizon, 0xE5_0000 + seed * 7 + n);
            rotation_stats(&trace, bound)
        });
        let (escapes, all_periods, viols) = pool(&stats);
        let esc = Summary::of(&escapes);
        let per = Summary::of(&all_periods);
        escape_pts.push((n as f64, esc.median));
        period_pts.push((n as f64, per.median));
        table.row(vec![
            "dk18".into(),
            "async".into(),
            n.to_string(),
            x.to_string(),
            fmt_f64(esc.median),
            fmt_f64(per.median),
            viols.to_string(),
            fmt_f64((n as f64).log2()),
        ]);

        // DK18, random-matching scheduler, on the same number of seeds.
        let stats = per_seed(seeds, |seed| {
            let osc = Dk18Oscillator::new();
            let trace = run_matching(&osc, n, x, horizon as u64, 0xE5_1111 + seed * 7 + n);
            rotation_stats(&trace, bound)
        });
        let (escapes, all_periods, viols) = pool(&stats);
        let median_or_dash = |data: &[f64]| {
            if data.is_empty() {
                "-".into()
            } else {
                fmt_f64(Summary::of(data).median)
            }
        };
        table.row(vec![
            "dk18".into(),
            "matching".into(),
            n.to_string(),
            x.to_string(),
            median_or_dash(&escapes),
            median_or_dash(&all_periods),
            viols.to_string(),
            fmt_f64((n as f64).log2()),
        ]);

        // Plain RPS ablation (single seed per n).
        let osc = RpsOscillator::new();
        let trace = run_async(&osc, n, x, horizon, 0xE5_2222 + n);
        let ev = dominance_events(&trace, 0.8);
        table.row(vec![
            "plain-rps".into(),
            "async".into(),
            n.to_string(),
            x.to_string(),
            escape_time(&trace, bound).map_or("-".into(), fmt_f64),
            if ev.len() < 4 {
                "- (stuck)".into()
            } else {
                fmt_f64(Summary::of(&periods(&ev)).median)
            },
            rotation_violations(&ev).to_string(),
            fmt_f64((n as f64).log2()),
        ]);
    }

    println!("E5 — Theorem 5.1: oscillator escape and rotation\n");
    ctx.emit("e5_oscillator", &table);
    if escape_pts.len() >= 2 {
        let fe = fit_polylog_exponent(&escape_pts);
        let fp = fit_polylog_exponent(&period_pts);
        println!(
            "\nfits (dk18/async): escape ~ (log n)^{:.2} (R²={:.3}), period ~ (log n)^{:.2} (R²={:.3}); theory: both Θ(log n)",
            fe.slope, fe.r_squared, fp.slope, fp.r_squared
        );
    }
    0
}
