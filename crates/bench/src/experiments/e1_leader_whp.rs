//! E1 — Theorem 3.1: `LeaderElection` elects a unique leader within
//! `O(log n)` good iterations, i.e. `O(log² n)` parallel rounds, w.h.p.
//!
//! Sweeps `n` over a geometric ladder, measures good iterations and
//! parallel rounds to `#L = 1`, reports quantiles, the success rate, and
//! the fitted polylog exponents (iterations should fit `(log n)^1`, rounds
//! `(log n)^2`).

use super::per_seed;
use crate::n_ladder;
use pp_engine::report::{fmt_f64, Table};
use pp_engine::stats::{fit_polylog_exponent, Summary};
use pp_lang::interp::Executor;
use pp_protocols::leader::leader_election;
use pp_rules::Guard;

pub(crate) fn run(ctx: &mut crate::run::Ctx) -> u8 {
    let scale = ctx.scale();
    let ns = n_ladder(256, 4, scale.pick(3, 5, 6));
    let seeds = scale.pick(10u64, 30, 60);
    let program = leader_election();
    let l = program.vars.get("L").expect("L");

    let mut table = Table::new(vec![
        "n",
        "runs",
        "ok",
        "iter_med",
        "iter_p90",
        "rounds_med",
        "rounds_p90",
    ]);
    let mut iter_points = Vec::new();
    let mut round_points = Vec::new();
    for &n in &ns {
        let results = per_seed(seeds, |seed| {
            let mut exec = Executor::new(&program, &[(vec![], n)], 0xE1_0000 + seed);
            let it = exec.run_until(2_000, |e| e.count_where(&Guard::var(l)) == 1);
            it.map(|i| (i as f64, exec.rounds()))
        });
        let ok: Vec<(f64, f64)> = results.into_iter().flatten().collect();
        let iters = Summary::of(&ok.iter().map(|r| r.0).collect::<Vec<_>>());
        let rounds = Summary::of(&ok.iter().map(|r| r.1).collect::<Vec<_>>());
        iter_points.push((n as f64, iters.median));
        round_points.push((n as f64, rounds.median));
        table.row(vec![
            n.to_string(),
            seeds.to_string(),
            ok.len().to_string(),
            fmt_f64(iters.median),
            fmt_f64(iters.p90),
            fmt_f64(rounds.median),
            fmt_f64(rounds.p90),
        ]);
    }
    println!("E1 — LeaderElection (w.h.p.), Theorem 3.1\n");
    ctx.emit("e1_leader_whp", &table);
    let fi = fit_polylog_exponent(&iter_points);
    let fr = fit_polylog_exponent(&round_points);
    println!(
        "\npolylog fits: iterations ~ (log n)^{:.2} (R²={:.3}, theory 1), \
         rounds ~ (log n)^{:.2} (R²={:.3}, theory 2)",
        fi.slope, fi.r_squared, fr.slope, fr.r_squared
    );
    0
}
