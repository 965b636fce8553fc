//! Quickstart: elect a unique leader among `n` anonymous agents with the
//! paper's constant-state w.h.p. protocol (Section 3.1), and watch the
//! leader set halve iteration by iteration.
//!
//! Run with: `cargo run --release --example quickstart [n] [seed]`

use population_protocols::lang::interp::Executor;
use population_protocols::protocols::leader::leader_election;
use population_protocols::rules::Guard;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(10_000);
    let seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(42);

    let program = leader_election();
    println!("{}", program.render());

    let leader_flag = program.vars.get("L").expect("output variable");
    let mut exec = Executor::new(&program, &[(vec![], n)], seed);

    println!("n = {n}, seed = {seed}");
    println!("{:>9}  {:>12}  {:>14}", "iteration", "leaders", "rounds");
    loop {
        let leaders = exec.count_where(&Guard::var(leader_flag));
        println!(
            "{:>9}  {:>12}  {:>14.1}",
            exec.iterations(),
            leaders,
            exec.rounds()
        );
        if leaders == 1 {
            break;
        }
        if exec.iterations() > 500 {
            eprintln!("did not converge within 500 iterations");
            std::process::exit(1);
        }
        exec.run_iteration();
    }
    println!(
        "unique leader elected after {} good iterations ≈ {:.0} parallel rounds \
         (log2 n = {:.1}; expected O(log² n))",
        exec.iterations(),
        exec.rounds(),
        (n as f64).log2()
    );
}
