//! Define your own population protocol in the paper's rule notation and
//! simulate it at scale.
//!
//! This example builds a rumor-spreading protocol with retraction from
//! plain text, runs it on one million agents via the count-based backend,
//! and reports the spreading timeline.
//!
//! Run with: `cargo run --release --example custom_protocol_dsl`

use population_protocols::engine::counts::CountPopulation;
use population_protocols::engine::rng::SimRng;
use population_protocols::engine::sim::{run_until, Simulator};
use population_protocols::rules::{parse::parse_ruleset, FlagProtocol, VarSet};

fn main() {
    // R = has heard the rumor, S = skeptic (retracts once).
    let text = "\
        # rumor spreads on contact\n\
        (R) + (!R & !S) -> (R) + (R)\n\
        (!R & !S) + (R) -> (R) + (R)\n\
        # skeptics silence one spreader, then believe\n\
        (S) + (R) -> (!S & R) + (!R)\n\
    ";
    let mut vars = VarSet::new();
    let ruleset = parse_ruleset(text, &mut vars).expect("ruleset parses");
    let protocol = FlagProtocol::new(vars, ruleset, "rumor");
    println!("protocol rules:\n{}\n", protocol.render());

    let r = protocol.vars().get("R").expect("R");
    let s = protocol.vars().get("S").expect("S");

    let n: u64 = 1_000_000;
    let skeptics = 1_000;
    let sources = 10;
    let mut counts = vec![0u64; protocol.vars().num_states()];
    counts[r.mask() as usize] = sources;
    counts[s.mask() as usize] = skeptics;
    counts[0] = n - sources - skeptics;

    let mut pop = CountPopulation::from_counts(&protocol, &counts);
    let mut rng = SimRng::seed_from(123);

    let informed = |sim: &CountPopulation<&FlagProtocol>| -> u64 {
        sim.counts()
            .iter()
            .enumerate()
            .filter(|&(state, _)| r.is_set(state as u32))
            .map(|(_, &c)| c)
            .sum()
    };

    println!("spreading a rumor among {n} agents ({sources} sources, {skeptics} skeptics)");
    for target_pct in [1u64, 10, 50, 90, 99] {
        let target = n * target_pct / 100;
        let t = run_until(&mut pop, &mut rng, 500.0, 4096, |sim| {
            informed(sim) >= target
        });
        match t {
            Some(t) => println!("{target_pct:>3}% informed after {t:>6.1} rounds"),
            None => println!("{target_pct:>3}% not reached within budget"),
        }
    }
    println!(
        "final: {} informed, {} skeptics remaining (epidemic completes in Θ(log n) rounds)",
        informed(&pop),
        pop.counts()
            .iter()
            .enumerate()
            .filter(|&(state, _)| s.is_set(state as u32))
            .map(|(_, &c)| c)
            .sum::<u64>()
    );
}
