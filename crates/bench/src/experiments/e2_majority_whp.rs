//! E2 — Theorem 3.2: `Majority` answers correctly w.h.p. *for any gap*
//! (including gap 1), within one good iteration of `O(log² n)` rounds
//! (`O(log³ n)` with the framework's iteration loop).
//!
//! Sweeps `n × gap`, measures the error rate and the parallel rounds of
//! one iteration, and fits the rounds against `(log n)^2` (a single
//! iteration has one nested loop level).

use super::{count_and_median, per_seed};
use crate::n_ladder;
use pp_engine::report::{fmt_f64, Table};
use pp_engine::stats::{consistent_with_rate, fit_polylog_exponent};
use pp_lang::interp::Executor;
use pp_protocols::majority::majority;
use pp_rules::Guard;

pub(crate) fn run(ctx: &mut crate::run::Ctx) -> u8 {
    let scale = ctx.scale();
    let ns = n_ladder(256, 4, scale.pick(3, 4, 5));
    let seeds = scale.pick(10u64, 30, 60);
    let program = majority(3);
    let a = program.vars.get("A").expect("A");
    let b = program.vars.get("B").expect("B");
    let y = program.vars.get("Y_A").expect("Y_A");

    let mut table = Table::new(vec!["n", "gap", "runs", "correct", "rounds_med"]);
    let mut round_points = Vec::new();
    for &n in &ns {
        let gaps = [1u64, (n as f64).sqrt() as u64, n / 3];
        for &gap in &gaps {
            let na = n / 2;
            let nb = n / 2 - gap.min(n / 2 - 1);
            let blank = n - na - nb;
            let results = per_seed(seeds, |seed| {
                let mut exec = Executor::new(
                    &program,
                    &[(vec![a], na), (vec![b], nb), (vec![], blank)],
                    0xE2_0000 + seed * 17 + n,
                );
                exec.run_iteration();
                let on = exec.count_where(&Guard::var(y));
                (on == exec.n(), exec.rounds())
            });
            let (correct, rounds) = count_and_median(&results);
            if gap == 1 {
                round_points.push((n as f64, rounds));
            }
            table.row(vec![
                n.to_string(),
                gap.to_string(),
                seeds.to_string(),
                correct.to_string(),
                fmt_f64(rounds),
            ]);
            assert!(
                consistent_with_rate(correct, seeds, 0.9, 4.0),
                "correctness rate too low at n={n} gap={gap}: {correct}/{seeds}"
            );
        }
    }
    // Loop-constant ablation (DESIGN §6): smaller c shrinks every window
    // and phase count; correctness should degrade gracefully, cost should
    // drop linearly in c³ (three nested factors of c).
    let mut ctable = Table::new(vec!["c", "n", "runs", "correct", "rounds"]);
    let n0 = ns[0];
    for c in [1u32, 2, 3, 4] {
        let prog = majority(c);
        let a = prog.vars.get("A").expect("A");
        let b = prog.vars.get("B").expect("B");
        let y = prog.vars.get("Y_A").expect("Y_A");
        let results = per_seed(seeds, |seed| {
            let mut exec = Executor::new(
                &prog,
                &[(vec![a], n0 / 2), (vec![b], n0 / 2 - 1), (vec![], 1)],
                0xE2_8000 + seed * 5 + u64::from(c),
            );
            exec.run_iteration();
            (exec.count_where(&Guard::var(y)) == exec.n(), exec.rounds())
        });
        let (correct, rounds) = count_and_median(&results);
        ctable.row(vec![
            c.to_string(),
            n0.to_string(),
            seeds.to_string(),
            correct.to_string(),
            fmt_f64(rounds),
        ]);
    }
    println!("E2 — Majority (w.h.p.), Theorem 3.2: correct for ANY gap\n");
    ctx.emit("e2_majority_whp", &table);
    println!("\nloop-constant ablation at gap 1 (n = {n0}):\n");
    ctx.emit("e2_loop_constant", &ctable);
    let fr = fit_polylog_exponent(&round_points);
    println!(
        "\nrounds-per-iteration fit at gap 1: (log n)^{:.2} (R²={:.3}; theory 2 per iteration)",
        fr.slope, fr.r_squared
    );
    0
}
