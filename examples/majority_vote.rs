//! A referendum among anonymous sensors: exact majority with a paper-thin
//! margin (Section 3.2).
//!
//! A population of `n` sensor nodes votes A or B (some abstain). The
//! constant-state `Majority` protocol must report the true winner even when
//! the margin is a single vote — the regime where the classic 3-state
//! approximate-majority protocol flips a coin and the 4-state exact
//! protocol needs polynomial time.
//!
//! Run with: `cargo run --release --example majority_vote [n] [margin]`

use population_protocols::lang::interp::Executor;
use population_protocols::protocols::majority::majority;
use population_protocols::rules::Guard;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(3_000);
    let margin: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(1);

    let votes_a = n / 3 + margin;
    let votes_b = n / 3;
    let abstain = n - votes_a - votes_b;

    let program = majority(3);
    let a = program.vars.get("A").expect("input A");
    let b = program.vars.get("B").expect("input B");
    let y = program.vars.get("Y_A").expect("output");

    println!(
        "referendum: {votes_a} for A, {votes_b} for B, {abstain} abstaining (margin {margin})"
    );

    let mut correct = 0;
    let runs = 5;
    for seed in 0..runs {
        let mut exec = Executor::new(
            &program,
            &[(vec![a], votes_a), (vec![b], votes_b), (vec![], abstain)],
            seed,
        );
        exec.run_iteration();
        let answer_a = exec.count_where(&Guard::var(y));
        let unanimous = answer_a == n || answer_a == 0;
        let right = answer_a == n; // A really is the majority
        if unanimous && right {
            correct += 1;
        }
        println!(
            "seed {seed}: answer {} ({} agents say A), {:.0} rounds",
            if right { "A" } else { "B" },
            answer_a,
            exec.rounds()
        );
    }
    println!("{correct}/{runs} runs correct (expected: all, w.h.p., for any margin)");
}
