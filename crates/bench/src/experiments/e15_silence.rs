//! E14 — silence of the w.h.p. stack ("Extensions of results", Section 1.1).
//!
//! The paper notes that its w.h.p. schemes become *silent* (no agent ever
//! changes state again) in `O(poly log n)` time: the `k`-level decay signal
//! dies, the oscillator fixates, detectors freeze. This experiment runs the
//! full self-contained w.h.p. clock (`ControlledClock` over
//! [`KLevelDecay`]) and measures:
//!
//! * how many clock ticks the system delivers before the signal dies
//!   (the "good oscillations" budget available to a compiled protocol);
//! * when `#X` hits zero;
//! * how fast the configuration quiesces (state-change rate early vs
//!   late; true silence waits for the last stray `Z` tokens, whose
//!   pairwise meetings are polynomially rare).

use super::{median_quartiles, per_seed};
use pp_clocks::controlled::ControlledClock;
use pp_clocks::junta::KLevelDecay;
use pp_clocks::oscillator::Dk18Oscillator;
use pp_engine::counts::SparseCountPopulation;
use pp_engine::report::Table;
use pp_engine::rng::SimRng;
use pp_engine::sim::Simulator;

/// What one seed's run of the stack measured.
struct Quiescence {
    ticks_before_death: usize,
    x_death: Option<f64>,
    early_rate: f64,
    late_rate: f64,
}

/// Runs the w.h.p. clock at decay depth `k` on `n` agents up to `horizon`
/// rounds, checking `#X` and the majority phase every `n/2` steps.
fn quiescence(k: u8, n: u64, horizon: f64, seed: u64) -> Quiescence {
    let clock = ControlledClock::new(Dk18Oscillator::new(), KLevelDecay::new(k), 6, 12);
    let mut pop = SparseCountPopulation::from_dense(&clock, &clock.initial_counts(n));
    let mut rng = SimRng::seed_from(seed);
    let mut x_death: Option<f64> = None;
    let mut ticks_before_death = 0usize;
    let mut last_phase = None;
    let mut early_changes = 0u64;
    let mut late_changes = 0u64;
    let early_window = horizon * 0.1;
    let late_start = horizon * 0.9;
    while pop.time() < horizon {
        let t = pop.time();
        let out = pop.step_batch(&mut rng, (n / 2).max(1));
        if t < early_window {
            early_changes += out.changed;
        } else if t >= late_start {
            late_changes += out.changed;
        }
        if out.silent && out.executed == 0 {
            break;
        }
        if x_death.is_none() {
            if clock.count_x(pop.occupied()) == 0 {
                x_death = Some(pop.time());
            } else {
                let (phase, _) = clock.majority_phase(pop.occupied());
                if last_phase != Some(phase) {
                    ticks_before_death += 1;
                    last_phase = Some(phase);
                }
            }
        }
    }
    Quiescence {
        ticks_before_death,
        x_death,
        early_rate: early_changes as f64 / early_window,
        late_rate: late_changes as f64 / (horizon - late_start),
    }
}

pub(crate) fn run(ctx: &mut crate::run::Ctx) -> u8 {
    let scale = ctx.scale();
    let n: u64 = scale.pick(1_000, 4_000, 16_000);
    let horizon = scale.pick(3_000.0, 6_000.0, 12_000.0);
    let seeds = scale.pick(5u64, 9, 15);

    let mut table = Table::new(vec![
        "k",
        "n",
        "X died",
        "ticks_med",
        "ticks_q1",
        "ticks_q3",
        "t(#X=0)_med",
        "changes/round (early)",
        "changes/round (late)",
        "quiescence_med",
        "quiescence_q1",
        "quiescence_q3",
    ]);
    println!("E15 — quiescence of the w.h.p. clock stack (n = {n}, {seeds} seeds per k)\n");
    // Both depths' runs in one sweep, so no worker idles between them;
    // the slower depth-3 runs are handed out first.
    let depths = [3u8, 2];
    let all = per_seed(depths.len() as u64 * seeds, |i| {
        let (k, seed) = (depths[(i / seeds) as usize], i % seeds);
        quiescence(k, n, horizon, 0xEE_0000 + (u64::from(k) << 8) + seed)
    });
    for (&k, runs) in depths.iter().zip(all.chunks(seeds as usize)).rev() {
        let column = |f: fn(&Quiescence) -> f64| runs.iter().map(f).collect::<Vec<_>>();
        let deaths: Vec<f64> = runs.iter().filter_map(|r| r.x_death).collect();
        let died = format!("{}/{seeds}", deaths.len());
        let [ticks, ticks_q1, ticks_q3] =
            median_quartiles(&column(|r| r.ticks_before_death as f64));
        let [death, ..] = median_quartiles(&deaths);
        let [early, ..] = median_quartiles(&column(|r| r.early_rate));
        let [late, ..] = median_quartiles(&column(|r| r.late_rate));
        let [ratio, ratio_q1, ratio_q3] =
            median_quartiles(&column(|r| r.late_rate / r.early_rate.max(1e-9)));
        println!(
            "k={k}: {ticks} ticks before X death (q1 {ticks_q1}, q3 {ticks_q3}); #X = 0 in \
             {died} runs (median t = {death}); change rate {early}/round → {late}/round"
        );
        table.row(vec![
            k.to_string(),
            n.to_string(),
            died,
            ticks,
            ticks_q1,
            ticks_q3,
            death,
            early,
            late,
            ratio,
            ratio_q1,
            ratio_q3,
        ]);
    }
    println!();
    ctx.emit("e15_silence", &table);
    println!(
        "\n(theory: the k-level signal sustains polylog-scale clock operation, then the \
         stack quiesces — the measured change rate collapses by orders of magnitude. \
         True silence waits for the last stray Z-tokens, whose pairwise meetings are \
         polynomially rare: consistent with the paper's remark that w.h.p. schemes go \
         silent while exact schemes never do.)"
    );
    0
}
