//! E7 — Section 5.3: the clock hierarchy separates adjacent levels' tick
//! rates by a factor `Θ(log n)`: `r^{(j)} = Θ((α log n)^{j+1})`.
//!
//! Runs a 2-level hierarchy, measures both levels' majority-phase tick
//! gaps, and reports the separation ratio at two population sizes.

use crate::Scale;
use pp_clocks::diag::TickTracer;
use pp_clocks::hierarchy::ClockHierarchy;
use pp_clocks::junta::PairwiseElimination;
use pp_clocks::oscillator::Dk18Oscillator;
use pp_engine::obj::ObjPopulation;
use pp_engine::report::{fmt_f64, Table};
use pp_engine::rng::SimRng;

struct LevelStats {
    ticks: usize,
    mean_gap: f64,
    bad_seq: usize,
}

fn measure(n: usize, horizon: f64, seed: u64) -> (Vec<LevelStats>, u64) {
    let h = ClockHierarchy::new(Dk18Oscillator::new(), PairwiseElimination::new(), 2, 6, 12);
    let mut pop = ObjPopulation::from_fn(&h, n, |_| h.initial_agent());
    let mut rng = SimRng::seed_from(seed);
    let warmup = 150.0;
    let mut tracer = TickTracer::new(2, 12);
    while pop.time() < horizon {
        pop.step_batch(&mut rng, n as u64);
        if pop.time() >= warmup {
            tracer.observe(&pop);
        }
    }
    let x = pop.count_where(|a| h.is_x(a));
    let stats = (0..2)
        .map(|level| {
            let t = tracer.ticks(level);
            let gaps: Vec<f64> = t.windows(2).map(|w| w[1].time - w[0].time).collect();
            LevelStats {
                ticks: t.len(),
                mean_gap: gaps.iter().sum::<f64>() / gaps.len().max(1) as f64,
                bad_seq: t
                    .windows(2)
                    .filter(|w| (w[1].phase + 12 - w[0].phase) % 12 != 1)
                    .count(),
            }
        })
        .collect();
    (stats, x)
}

pub(crate) fn run(ctx: &mut crate::run::Ctx) -> u8 {
    let scale = ctx.scale();
    let configs: &[(usize, f64)] = match scale {
        Scale::Quick => &[(1_000, 15_000.0)],
        Scale::Normal => &[(1_000, 30_000.0), (4_000, 45_000.0)],
        Scale::Full => &[(1_000, 40_000.0), (4_000, 60_000.0), (16_000, 90_000.0)],
    };

    let mut table = Table::new(vec![
        "n", "level", "ticks", "gap_mean", "bad_seq", "ratio", "log2 n",
    ]);
    println!("E7 — Section 5.3: hierarchy rate separation (this takes a while)\n");
    for &(n, horizon) in configs {
        let (stats, x) = measure(n, horizon, 0xE7_0000 + n as u64);
        let ratio = stats[1].mean_gap / stats[0].mean_gap;
        for (lvl, s) in stats.iter().enumerate() {
            table.row(vec![
                n.to_string(),
                lvl.to_string(),
                s.ticks.to_string(),
                fmt_f64(s.mean_gap),
                s.bad_seq.to_string(),
                if lvl == 1 { fmt_f64(ratio) } else { "-".into() },
                fmt_f64((n as f64).log2()),
            ]);
        }
        println!("n={n}: separation ratio {:.0} (#X ended at {x})", ratio);
    }
    println!();
    ctx.emit("e7_hierarchy", &table);
    println!(
        "\n(theory: gap(level j+1)/gap(level j) = Θ(log n) — the measured ratio \
         carries the construction's constant ≈ 4 ticks/window × 2 interactions/round)"
    );
    0
}
