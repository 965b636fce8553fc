//! E5 — Theorem 5.1: the oscillator escapes the central region in
//! `O(log n)` rounds and rotates `A₁ → A₂ → A₃` with period `Θ(log n)`,
//! under both the asynchronous and random-matching schedulers.
//!
//! Also ablates the DK18-style charge mechanism against plain
//! rock–paper–scissors, demonstrating why the paper builds on \[DK18\]: the
//! plain dynamic never leaves the central fixed point at scale. Each DK18
//! row gives the median escape time over seeds and the median period over
//! every seed's periods, each with its quartiles.

use super::{median_quartiles, per_seed};
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
        trace.push((pop.rounds() as f64, osc.species_counts(pop.counts())));
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

/// A DK18 row: the escape and period medians with their quartiles.
fn dk18_row(
    scheduler: &str,
    n: u64,
    x: u64,
    escapes: &[f64],
    all_periods: &[f64],
    viols: usize,
) -> Vec<String> {
    let mut cells = vec![
        "dk18".into(),
        scheduler.into(),
        n.to_string(),
        x.to_string(),
    ];
    cells.extend(median_quartiles(escapes));
    cells.extend(median_quartiles(all_periods));
    cells.extend([viols.to_string(), fmt_f64((n as f64).log2())]);
    cells
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
        "escape_q1",
        "escape_q3",
        "period_med",
        "period_q1",
        "period_q3",
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
        escape_pts.push((n as f64, Summary::of(&escapes).median));
        period_pts.push((n as f64, Summary::of(&all_periods).median));
        table.row(dk18_row("async", n, x, &escapes, &all_periods, viols));

        // DK18, random-matching scheduler, on the same number of seeds.
        let stats = per_seed(seeds, |seed| {
            let osc = Dk18Oscillator::new();
            let trace = run_matching(&osc, n, x, horizon as u64, 0xE5_1111 + seed * 7 + n);
            rotation_stats(&trace, bound)
        });
        let (escapes, all_periods, viols) = pool(&stats);
        table.row(dk18_row("matching", n, x, &escapes, &all_periods, viols));

        // Plain RPS ablation (single seed per n, so its escape time has no
        // quartiles).
        let osc = RpsOscillator::new();
        let trace = run_async(&osc, n, x, horizon, 0xE5_2222 + n);
        let ev = dominance_events(&trace, 0.8);
        let mut cells = vec![
            "plain-rps".into(),
            "async".into(),
            n.to_string(),
            x.to_string(),
            escape_time(&trace, bound).map_or("-".into(), fmt_f64),
            "-".into(),
            "-".into(),
        ];
        if ev.len() < 4 {
            cells.extend(["- (stuck)".into(), "-".into(), "-".into()]);
        } else {
            cells.extend(median_quartiles(&periods(&ev)));
        }
        cells.extend([
            rotation_violations(&ev).to_string(),
            fmt_f64((n as f64).log2()),
        ]);
        table.row(cells);
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
