//! E12 — scheduler robustness (Section 5.3's discussion): the oscillator's
//! qualitative behavior — and a representative protocol's convergence —
//! carry over between the asynchronous and random-matching schedulers.
//!
//! Compares escape time, period, and epidemic/majority convergence under
//! both schedulers at matched population sizes.

use super::e5_oscillator::{run_async, run_matching};
use pp_clocks::detect::{dominance_events, escape_time, periods};
use pp_clocks::oscillator::Dk18Oscillator;
use pp_engine::matching::MatchingPopulation;
use pp_engine::population::Population;
use pp_engine::protocol::TableProtocol;
use pp_engine::report::{fmt_f64, Table};
use pp_engine::rng::SimRng;
use pp_engine::sim::{run_until, Simulator};
use pp_engine::stats::Summary;

fn epidemic() -> TableProtocol {
    TableProtocol::new(2, "epidemic")
        .rule(1, 0, 1, 1)
        .rule(0, 1, 1, 1)
}

pub(crate) fn run(ctx: &mut crate::run::Ctx) -> u8 {
    let scale = ctx.scale();
    let n = scale.pick(4_000u64, 10_000, 40_000);
    let seeds = scale.pick(5u64, 10, 20);
    let horizon = scale.pick(300.0, 400.0, 600.0);

    let mut table = Table::new(vec!["measurement", "scheduler", "n", "value_med"]);
    println!("E12 — scheduler robustness (n = {n})\n");

    // Oscillator under both schedulers.
    let x = ((n as f64).powf(0.3) as u64).max(1);
    let bound = (n as f64).powf(0.75) as u64;
    let mut esc_async = Vec::new();
    let mut per_async = Vec::new();
    let mut esc_match = Vec::new();
    let mut per_match = Vec::new();
    let osc = Dk18Oscillator::new();
    for seed in 0..seeds {
        let trace = run_async(&osc, n, x, horizon, 0xEC_0000 + seed);
        if let Some(t) = escape_time(&trace, bound) {
            esc_async.push(t);
        }
        per_async.extend(periods(&dominance_events(&trace, 0.8)));
        let trace = run_matching(&osc, n, x, horizon as u64, 0xEC_1000 + seed);
        if let Some(t) = escape_time(&trace, bound) {
            esc_match.push(t);
        }
        per_match.extend(periods(&dominance_events(&trace, 0.8)));
    }
    for (what, sched, data) in [
        ("oscillator escape", "async", &esc_async),
        ("oscillator escape", "matching", &esc_match),
        ("oscillator period", "async", &per_async),
        ("oscillator period", "matching", &per_match),
    ] {
        let v = if data.is_empty() {
            f64::NAN
        } else {
            Summary::of(data).median
        };
        table.row(vec![what.into(), sched.into(), n.to_string(), fmt_f64(v)]);
    }

    // Epidemic completion under both schedulers.
    let mut t_async = Vec::new();
    let mut t_match = Vec::new();
    for seed in 0..seeds {
        let p = epidemic();
        let mut pop = Population::from_counts(&p, &[n - 1, 1]);
        let mut rng = SimRng::seed_from(0xEC_2000 + seed);
        t_async.push(
            run_until(&mut pop, &mut rng, 1e5, 64, |s| s.count(0) == 0)
                .expect("the epidemic completes"),
        );

        let p = epidemic();
        let mut pop = MatchingPopulation::from_counts(&p, &[n - 1, 1]);
        let mut rng = SimRng::seed_from(0xEC_3000 + seed);
        let r = pop
            .run_until(&mut rng, 100_000, |pp| pp.count(0) == 0)
            .expect("the epidemic completes");
        t_match.push(r as f64);
    }
    table.row(vec![
        "epidemic completion".into(),
        "async".into(),
        n.to_string(),
        fmt_f64(Summary::of(&t_async).median),
    ]);
    table.row(vec![
        "epidemic completion".into(),
        "matching".into(),
        n.to_string(),
        fmt_f64(Summary::of(&t_match).median),
    ]);

    ctx.emit("e12_schedulers", &table);
    println!(
        "\n(theory: all quantities agree between schedulers up to small constants — \
         the matching scheduler is 'one round = one matching', so absolute constants \
         differ by ≈2× interaction density)"
    );
    0
}
