//! The whole paper in one binary: compile a framework program down to a
//! single finite-state protocol running on the real phase-clock hierarchy —
//! oscillator, detector, phase counters, `#X` control, time-path-filtered
//! program rules — with **no global coordination at all**, and watch it
//! execute.
//!
//! The program is `Y := X` (copy the input flag to the output flag), whose
//! compiled form exercises triggers, leaf scheduling, and the full clock
//! stack. Every agent is a finite-state machine; the only driver is the
//! uniform random scheduler.
//!
//! Run with: `cargo run --release --example full_stack_clock [n]`

use population_protocols::clocks::junta::PairwiseElimination;
use population_protocols::clocks::oscillator::Dk18Oscillator;
use population_protocols::engine::obj::ObjPopulation;
use population_protocols::engine::rng::SimRng;
use population_protocols::lang::ast::{build, Program, Thread};
use population_protocols::lang::compile::CompiledProtocol;
use population_protocols::rules::{Guard, VarSet};

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(500);

    let mut vars = VarSet::new();
    let x = vars.add("X");
    let y = vars.add("Y");
    let program = Program {
        name: "CopyXtoY".into(),
        vars,
        inputs: vec![x],
        outputs: vec![y],
        init: vec![],
        derived_init: vec![],
        threads: vec![Thread::Structured {
            name: "Main".into(),
            body: vec![build::assign(y, Guard::var(x))],
        }],
    };
    println!("{}", program.render());

    let compiled = CompiledProtocol::new(
        &program,
        Dk18Oscillator::new(),
        PairwiseElimination::new(),
        6,
    );
    println!(
        "compiled: l_max = {}, w_max = {}, clock modulus m = {}",
        compiled.tree().l_max,
        compiled.tree().w_max,
        compiled.modulus()
    );

    let mut pop = ObjPopulation::from_fn(&compiled, n, |i| {
        if i % 3 == 0 {
            compiled.initial_agent(&[x])
        } else {
            compiled.initial_agent(&[])
        }
    });
    let mut rng = SimRng::seed_from(99);

    let want = pop.count_where(|ag| x.is_set(ag.flags));
    println!("\n{n} agents, {want} with X set; waiting for Y to mirror X everywhere…");
    println!(
        "{:>8}  {:>10}  {:>6}  {:>14}",
        "rounds", "correct", "#X", "level-0 phase"
    );
    loop {
        pop.run_rounds(250.0, &mut rng);
        let correct = pop.count_where(|ag| y.is_set(ag.flags) == x.is_set(ag.flags));
        let sources = pop.count_where(|ag| compiled.hierarchy().is_x(&ag.clock));
        // Majority phase of the base clock.
        let mut hist = [0u64; 64];
        for ag in pop.iter() {
            hist[ag.clock.cur[0].phase as usize] += 1;
        }
        let phase = (0..64).max_by_key(|&p| hist[p]).unwrap();
        println!(
            "{:>8.0}  {:>7}/{n}  {:>6}  {:>14}",
            pop.time(),
            correct,
            sources,
            phase
        );
        if correct == n as u64 {
            println!(
                "\ndone: the compiled program completed on the self-organized clock stack \
                 after {:.0} parallel rounds",
                pop.time()
            );
            break;
        }
        if pop.time() > 60_000.0 {
            println!("\nbudget exhausted before completion (correct = {correct}/{n})");
            break;
        }
    }
}
