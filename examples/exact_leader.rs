//! Always-correct leader election (Section 6.1): the fast coin-driven path
//! converges in `O(log² n)` rounds w.h.p., while the `ReduceSets` backstop
//! guarantees eventual correctness with certainty.
//!
//! The example shows both time scales: the fast path pins a unique leader
//! within tens of iterations, and the backstop set `R` keeps shrinking (it
//! can never die) until `#R = 1`, after which the answer is *provably*
//! locked forever.
//!
//! Run with: `cargo run --release --example exact_leader [n]`

use population_protocols::lang::interp::Executor;
use population_protocols::protocols::leader::leader_election_exact;
use population_protocols::rules::Guard;

fn main() {
    let n: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(500);
    let program = leader_election_exact();
    let l = program.vars.get("L").expect("L");
    let r = program.vars.get("R").expect("R");
    let f = program.vars.get("F").expect("F");

    let mut exec = Executor::new(&program, &[(vec![], n)], 2024);
    println!("n = {n}");
    println!(
        "{:>9}  {:>8}  {:>8}  {:>8}  {:>12}",
        "iteration", "#L", "#R", "#F", "rounds"
    );
    let mut fast_converged_at = None;
    let mut locked_at = None;
    for _ in 0..100_000 {
        let leaders = exec.count_where(&Guard::var(l));
        let backstop = exec.count_where(&Guard::var(r));
        let coin = exec.count_where(&Guard::var(f));
        if exec.iterations() % 25 == 0 || (leaders == 1 && fast_converged_at.is_none()) {
            println!(
                "{:>9}  {:>8}  {:>8}  {:>8}  {:>12.0}",
                exec.iterations(),
                leaders,
                backstop,
                coin,
                exec.rounds()
            );
        }
        if leaders == 1 && fast_converged_at.is_none() {
            fast_converged_at = Some((exec.iterations(), exec.rounds()));
        }
        if backstop == 1 && leaders == 1 {
            locked_at = Some((exec.iterations(), exec.rounds()));
            break;
        }
        exec.run_iteration();
    }
    if let Some((it, rounds)) = fast_converged_at {
        println!("\nfast path: unique leader after {it} iterations ≈ {rounds:.0} rounds (w.h.p. correct)");
    }
    if let Some((it, rounds)) = locked_at {
        println!(
            "certainty: #R = 1 after {it} iterations ≈ {rounds:.0} rounds — leader locked forever"
        );
    } else {
        println!("backstop still converging (expected within polynomial time)");
    }
}
