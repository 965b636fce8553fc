//! E13 — Theorem 2.4 end-to-end: a framework program compiled onto the
//! *real* phase-clock hierarchy (no global coordination of any kind)
//! executes correctly.
//!
//! Compiles the `LeaderElection` program (Section 3.1) and a simple
//! assignment program, runs them as pure population protocols — every agent
//! a finite-state machine driven only by the uniform random scheduler — and
//! reports completion.

use pp_clocks::junta::PairwiseElimination;
use pp_clocks::oscillator::Dk18Oscillator;
use pp_engine::obj::ObjPopulation;
use pp_engine::report::{fmt_f64, Table};
use pp_engine::rng::SimRng;
use pp_lang::ast::{build, Program, Thread};
use pp_lang::compile::CompiledProtocol;
use pp_protocols::leader::leader_election;
use pp_rules::{Guard, VarSet};

fn copy_program() -> Program {
    let mut vars = VarSet::new();
    let x = vars.add("X");
    let y = vars.add("Y");
    Program {
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
    }
}

pub(crate) fn run(ctx: &mut crate::run::Ctx) -> u8 {
    let scale = ctx.scale();
    let n = scale.pick(300usize, 600, 2_000);
    let budget = scale.pick(40_000.0, 60_000.0, 120_000.0);
    // The compiled LeaderElection's iteration costs ~m·gap ≈ 4–6k rounds
    // (w_max = 12 leaves), and it needs Θ(log n) iterations.
    let leader_budget = scale.pick(200_000.0, 300_000.0, 500_000.0);

    let mut table = Table::new(vec![
        "program", "n", "l_max", "w_max", "m", "outcome", "rounds",
    ]);
    println!("E13 — compiled programs on the real clock hierarchy (n = {n}; slow!)\n");

    // --- CopyXtoY ---------------------------------------------------------
    let program = copy_program();
    let x = program.vars.get("X").expect("X");
    let y = program.vars.get("Y").expect("Y");
    let compiled = CompiledProtocol::new(
        &program,
        Dk18Oscillator::new(),
        PairwiseElimination::new(),
        6,
    );
    let mut pop = ObjPopulation::from_fn(&compiled, n, |i| {
        if i % 3 == 0 {
            compiled.initial_agent(&[x])
        } else {
            compiled.initial_agent(&[])
        }
    });
    let mut rng = SimRng::seed_from(0xED_0001);
    let done = pop.run_until(&mut rng, budget, 256 * n as u64, |p| {
        p.count_where(|ag| y.is_set(ag.flags) == x.is_set(ag.flags)) == n as u64
    });
    table.row(vec![
        "CopyXtoY".into(),
        n.to_string(),
        compiled.tree().l_max.to_string(),
        compiled.tree().w_max.to_string(),
        compiled.modulus().to_string(),
        done.map_or("timeout".into(), |_| "completed".into()),
        done.map_or("-".into(), fmt_f64),
    ]);
    println!(
        "CopyXtoY: {} (correct flags: {}/{n})",
        done.map_or("timeout".to_string(), |t| format!(
            "completed at {t:.0} rounds"
        )),
        pop.count_where(|ag| y.is_set(ag.flags) == x.is_set(ag.flags)),
    );

    // --- LeaderElection ----------------------------------------------------
    let program = leader_election();
    let l = program.vars.get("L").expect("L");
    let compiled = CompiledProtocol::new(
        &program,
        Dk18Oscillator::new(),
        PairwiseElimination::new(),
        6,
    );
    let mut pop = ObjPopulation::from_fn(&compiled, n, |_| compiled.initial_agent(&[]));
    let mut rng = SimRng::seed_from(0xED_0002);
    let mut outcome = None;
    let mut last_report = 0.0;
    while pop.time() < leader_budget {
        pop.run_rounds(500.0, &mut rng);
        let leaders = pop.count_where(|ag| l.is_set(ag.flags));
        if pop.time() - last_report >= 5_000.0 {
            println!(
                "LeaderElection: t={:>7.0} leaders={leaders} #X={}",
                pop.time(),
                pop.count_where(|ag| compiled.hierarchy().is_x(&ag.clock))
            );
            last_report = pop.time();
        }
        if leaders == 1 {
            outcome = Some(pop.time());
            break;
        }
    }
    let leaders = pop.count_where(|ag| l.is_set(ag.flags));
    table.row(vec![
        "LeaderElection".into(),
        n.to_string(),
        compiled.tree().l_max.to_string(),
        compiled.tree().w_max.to_string(),
        compiled.modulus().to_string(),
        outcome.map_or(format!("timeout (#L={leaders})"), |_| {
            "unique leader".into()
        }),
        outcome.map_or("-".into(), fmt_f64),
    ]);
    println!(
        "LeaderElection: {}",
        outcome.map_or(format!("timeout with {leaders} leaders"), |t| format!(
            "unique leader at {t:.0} rounds"
        ))
    );

    println!();
    ctx.emit("e13_full_stack", &table);
    0
}
