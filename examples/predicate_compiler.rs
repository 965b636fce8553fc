//! Computing semi-linear predicates (Section 6.3): the comparison
//! predicate `#A − #B ≥ 1` via the full fast+slow `SemilinearPredicateExact`
//! composition, and the parity predicate `#A ≡ 1 (mod 2)` via the stable
//! slow blackbox.
//!
//! Run with: `cargo run --release --example predicate_compiler`

use population_protocols::lang::interp::Executor;
use population_protocols::protocols::semilinear::{
    parity_exact, semilinear_comparison_exact, Predicate,
};
use population_protocols::rules::Guard;

fn main() {
    // --- Comparison predicate, full composition -------------------------
    let program = semilinear_comparison_exact(2);
    let a = program.vars.get("A").expect("A");
    let b = program.vars.get("B").expect("B");
    let p = program.vars.get("P").expect("P");

    println!("Π = [#A − #B ≥ 1], full fast+slow composition");
    for (na, nb) in [(60u64, 30u64), (30, 60), (46, 45)] {
        let truth = Predicate::Comparison { t: 1 }.eval(na, nb);
        let mut exec = Executor::new(
            &program,
            &[(vec![a], na), (vec![b], nb), (vec![], 120 - na - nb)],
            na * 31 + nb,
        );
        let converged = exec.run_until(60, |e| {
            let on = e.count_where(&Guard::var(p));
            (on == e.n()) == truth && (on == 0) != truth
        });
        println!(
            "  #A={na:>3} #B={nb:>3}: truth={truth}, protocol answered {} after {:?} iterations",
            match converged {
                Some(_) => "correctly",
                None => "NOT yet",
            },
            converged
        );
    }

    // --- Parity predicate, slow blackbox --------------------------------
    println!("\nΠ = [#A odd], stable slow blackbox (exact, polynomial time)");
    let program = parity_exact(1);
    let a = program.vars.get("A").expect("A");
    let p = program.vars.get("P").expect("P");
    for na in [7u64, 8, 15] {
        let truth = na % 2 == 1;
        let mut exec = Executor::new(&program, &[(vec![a], na), (vec![], 60 - na)], na);
        let converged = exec.run_until(800, |e| {
            let on = e.count_where(&Guard::var(p));
            (on == e.n()) == truth && (on == 0) != truth
        });
        println!(
            "  #A={na:>3}: truth={truth}, protocol answered {} after {:?} iterations",
            match converged {
                Some(_) => "correctly",
                None => "NOT yet",
            },
            converged
        );
    }
}
