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

use pp_clocks::controlled::ControlledClock;
use pp_clocks::junta::KLevelDecay;
use pp_clocks::oscillator::Dk18Oscillator;
use pp_engine::counts::CountPopulation;
use pp_engine::report::{fmt_f64, Table};
use pp_engine::rng::SimRng;
use pp_engine::sim::Simulator;

pub(crate) fn run(ctx: &mut crate::run::Ctx) -> u8 {
    let scale = ctx.scale();
    let n: u64 = scale.pick(1_000, 4_000, 16_000);
    let horizon = scale.pick(3_000.0, 6_000.0, 12_000.0);

    let mut table = Table::new(vec![
        "k",
        "n",
        "ticks before X death",
        "t(#X=0)",
        "changes/round (early)",
        "changes/round (late)",
        "quiescence ratio",
    ]);
    println!("E15 — quiescence of the w.h.p. clock stack (n = {n})\n");
    for k in 2u8..=3 {
        let clock = ControlledClock::new(Dk18Oscillator::new(), KLevelDecay::new(k), 6, 12);
        let mut pop = CountPopulation::from_counts(&clock, &clock.initial_counts(n));
        let mut rng = SimRng::seed_from(0xEE_0000 + u64::from(k));
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
            let counts = pop.counts();
            if x_death.is_none() {
                if clock.count_x(&counts) == 0 {
                    x_death = Some(pop.time());
                } else {
                    let (phase, _) = clock.majority_phase(&counts);
                    if last_phase != Some(phase) {
                        ticks_before_death += 1;
                        last_phase = Some(phase);
                    }
                }
            }
        }
        let early_rate = early_changes as f64 / early_window;
        let late_rate = late_changes as f64 / (horizon - late_start);
        let ratio = late_rate / early_rate.max(1e-9);
        table.row(vec![
            k.to_string(),
            n.to_string(),
            ticks_before_death.to_string(),
            x_death.map_or("-".into(), fmt_f64),
            fmt_f64(early_rate),
            fmt_f64(late_rate),
            fmt_f64(ratio),
        ]);
        println!(
            "k={k}: {ticks_before_death} ticks before X death ({x_death:?}); \
             change rate {early_rate:.1}/round → {late_rate:.3}/round"
        );
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
