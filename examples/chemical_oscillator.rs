//! The self-organizing oscillator as a chemical reaction network.
//!
//! Population protocols are equivalent to fixed-volume CRNs, and the
//! paper's clock machinery is directly programmable as chemistry. This
//! example runs the DK18-style oscillator (Section 5.2) from the uniform
//! "well-mixed" state, prints an ASCII trace of the three species'
//! concentrations, measures the oscillation period, and compares the
//! stochastic run against the deterministic mean-field ODE limit.
//!
//! Run with: `cargo run --release --example chemical_oscillator [n]`

use population_protocols::clocks::detect::{dominance_events, periods, rotation_violations};
use population_protocols::clocks::oscillator::{central_init, Dk18Oscillator, Oscillator};
use population_protocols::engine::counts::CountPopulation;
use population_protocols::engine::meanfield;
use population_protocols::engine::rng::SimRng;
use population_protocols::engine::sim::Simulator;

fn bar(fraction: f64, width: usize) -> String {
    "#".repeat((fraction * width as f64).round() as usize)
}

fn main() {
    let n: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_000);
    let x = ((n as f64).powf(0.3) as u64).max(1);

    let osc = Dk18Oscillator::new();
    let init = central_init(&osc, n, x);
    let mut pop = CountPopulation::from_counts(&osc, &init);
    let mut rng = SimRng::seed_from(7);

    println!("n = {n}, #X = {x} source molecules");
    println!("time   [A1 | A2 | A3] concentration bars");
    let mut trace = Vec::new();
    while pop.time() < 300.0 {
        let out = pop.step_batch(&mut rng, n);
        if out.silent && out.executed == 0 {
            break;
        }
        let counts = osc.species_counts(&pop.counts());
        trace.push((pop.time(), counts));
        if (pop.time() as u64).is_multiple_of(5) {
            let total: u64 = counts.iter().sum();
            println!(
                "{:>5.0}  {:<12} {:<12} {:<12}",
                pop.time(),
                bar(counts[0] as f64 / total as f64, 12),
                bar(counts[1] as f64 / total as f64, 12),
                bar(counts[2] as f64 / total as f64, 12),
            );
        }
    }

    let events = dominance_events(&trace, 0.8);
    let period_list = periods(&events);
    let mean_period = period_list.iter().sum::<f64>() / period_list.len().max(1) as f64;
    println!(
        "\ndominance events: {}, rotation violations: {}, mean period: {:.1} rounds \
         (log2 n = {:.1}; theory: Θ(log n))",
        events.len(),
        rotation_violations(&events),
        mean_period,
        (n as f64).log2()
    );

    // Mean-field comparison: the deterministic limit from the same start.
    let fractions: Vec<f64> = init.iter().map(|&c| c as f64 / n as f64).collect();
    let traj = meanfield::integrate(&osc, &fractions, 50.0, 0.01, 500);
    println!("\nmean-field ODE limit (first 50 time units):");
    for (t, state) in traj.times.iter().zip(&traj.states) {
        let species: Vec<f64> = (0..3)
            .map(|s| state[osc.species_state(s)] + state[osc.species_state(s) + 1])
            .collect();
        println!(
            "{t:>5.0}  A1={:.3} A2={:.3} A3={:.3}",
            species[0], species[1], species[2]
        );
    }
    println!(
        "\nnote: the deterministic limit from the exactly-uniform start stays near the \
         central fixed point; the stochastic system escapes it in O(log n) rounds — \
         this gap is exactly why the paper's analysis tracks fluctuations (Theorem 5.1)."
    );
}
