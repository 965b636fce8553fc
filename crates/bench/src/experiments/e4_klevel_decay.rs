//! E4 — Proposition 5.5: the `k`-level decay process reaches
//! `#X < n^{1−ε}` within polylogarithmic time, with the signal following
//! `|X| ≈ n·exp(−c·t^{1/(k+1)})` and `|Z| ≈ Θ(n·t^{−1/(k+1)})`.
//!
//! Records `#X` and `#Z` trajectories for k ∈ {1, 2, 3}, reports the
//! hitting times of `#X < n^{3/4}`, and checks the functional form by
//! regressing `ln(n/|X|)` against `t^{1/(k+1)}`.

use pp_clocks::junta::{KLevelDecay, XControl};
use pp_engine::counts::CountPopulation;
use pp_engine::protocol::Protocol;
use pp_engine::report::{fmt_f64, Table};
use pp_engine::rng::SimRng;
use pp_engine::sim::Simulator;
use pp_engine::stats::fit_line;

pub(crate) fn run(ctx: &mut crate::run::Ctx) -> u8 {
    let scale = ctx.scale();
    let n: u64 = scale.pick(1 << 12, 1 << 14, 1 << 16);
    let horizon = scale.pick(2_000.0, 6_000.0, 20_000.0);

    let mut table = Table::new(vec!["k", "n", "T(#X<n^0.75)", "#X alive at T", "form R²"]);
    println!("E4 — Proposition 5.5: k-level decay, n = {n}\n");
    for k in 1u8..=3 {
        let proc = KLevelDecay::new(k);
        let mut counts = vec![0u64; proc.num_states()];
        counts[proc.initial_state()] = n;
        let mut pop = CountPopulation::from_counts(proc, &counts);
        let mut rng = SimRng::seed_from(0xE4_0000 + u64::from(k));
        let target = (n as f64).powf(0.75) as u64;
        let mut hit: Option<f64> = None;
        let mut samples: Vec<(f64, f64)> = Vec::new(); // (t^{1/(k+1)}, ln(n/#X))
        while pop.time() < horizon {
            let out = pop.step_batch(&mut rng, n);
            if out.silent && out.executed == 0 {
                break;
            }
            let x = proc.count_x(&pop.counts());
            if x == 0 {
                break;
            }
            if hit.is_none() && x < target {
                hit = Some(pop.time());
            }
            if pop.time() > 5.0 {
                samples.push((
                    pop.time().powf(1.0 / f64::from(k + 1)),
                    (n as f64 / x as f64).ln(),
                ));
            }
        }
        let x_at_end = proc.count_x(&pop.counts());
        let form = if samples.len() > 4 {
            fit_line(&samples).r_squared
        } else {
            f64::NAN
        };
        table.row(vec![
            k.to_string(),
            n.to_string(),
            hit.map_or("-".into(), fmt_f64),
            x_at_end.to_string(),
            fmt_f64(form),
        ]);
        println!(
            "k={k}: ln(n/|X|) vs t^(1/{}) linearity R² = {}",
            k + 1,
            fmt_f64(form)
        );
    }
    println!();
    ctx.emit("e4_klevel_decay", &table);

    // Mean-field overlay: integrate the deterministic n → ∞ limit of the
    // k = 2 process and compare the |X| fraction against a stochastic run.
    let k = 2u8;
    let proc = KLevelDecay::new(k);
    let mut x0 = vec![0.0; proc.num_states()];
    x0[proc.initial_state()] = 1.0;
    let horizon_ode = 60.0;
    let traj = pp_engine::meanfield::integrate(&proc, &x0, horizon_ode, 0.01, 100);
    let mut counts = vec![0u64; proc.num_states()];
    counts[proc.initial_state()] = n;
    let mut pop = CountPopulation::from_counts(proc, &counts);
    let mut rng = SimRng::seed_from(0xE4_9999);
    println!("\nmean-field vs stochastic |X|/n (k = {k}):");
    println!("{:>6}  {:>10}  {:>10}", "t", "ODE", "simulated");
    let mut max_gap = 0.0f64;
    for (t, state) in traj.times.iter().zip(&traj.states) {
        let target = (*t * n as f64).ceil() as u64;
        if target > pop.steps() {
            pop.step_batch(&mut rng, target - pop.steps());
        }
        let ode_x: f64 = state
            .iter()
            .enumerate()
            .filter(|&(s, _)| proc.is_x(s))
            .map(|(_, &v)| v)
            .sum();
        let sim_x = proc.count_x(&pop.counts()) as f64 / n as f64;
        max_gap = max_gap.max((ode_x - sim_x).abs());
        if (*t as u64).is_multiple_of(10) {
            println!("{t:>6.0}  {:>10.5}  {:>10.5}", ode_x, sim_x);
        }
    }
    println!(
        "max |ODE − simulation| gap: {max_gap:.4} \
         (theory: O(n^{{-1/2}}) concentration around the continuous limit)"
    );
    println!(
        "\n(theory: the higher k, the slower the decay exponent but still polylog; \
         R² near 1 confirms |X| ≈ n·exp(−c·t^(1/(k+1))))"
    );
    0
}
