//! E10 — Theorem 6.4: semi-linear predicates. The comparison fragment
//! converges fast (w.h.p.) through the full fast+slow composition; modulo
//! predicates converge exactly via the stable blackbox. Measures
//! correctness against ground truth over input sweeps: a run is correct
//! when its answer is right at the end of `settle_budget_rounds(n)` and
//! stays right for as many rounds again (`run_settled`), and `iters_med`
//! is the median iteration from which its answer stayed right.

use super::{compiled_vs_interpreted, per_seed};
use pp_engine::report::{fmt_f64, Table};
use pp_engine::stats::Summary;
use pp_lang::ast::Program;
use pp_lang::interp::Executor;
use pp_protocols::semilinear::{
    parity_exact, run_settled, semilinear_comparison_exact, settle_budget_rounds, Predicate,
};
use pp_rules::{Guard, Var};

/// Runs `program` from `groups` once per seed until its answer `P` has
/// settled on `truth` (`run_settled`); returns the `correct` and
/// `iters_med` cells of its table row.
fn settled_cells(
    program: &Program,
    groups: &[(Vec<Var>, u64)],
    seeds: u64,
    seed: impl Fn(u64) -> u64 + Sync,
    truth: bool,
) -> [String; 2] {
    let p = program.vars.get("P").expect("P");
    let settled = per_seed(seeds, |s| {
        let mut exec = Executor::new(program, groups, seed(s));
        let it = run_settled(&mut exec, |e| {
            let on = e.count_where(&Guard::var(p));
            (on == e.n()) == truth && (on == 0) != truth
        });
        it.map(|i| i as f64)
    });
    let ok: Vec<f64> = settled.into_iter().flatten().collect();
    let med = if ok.is_empty() {
        f64::NAN
    } else {
        Summary::of(&ok).median
    };
    [format!("{}/{seeds}", ok.len()), fmt_f64(med)]
}

pub(crate) fn run(ctx: &mut crate::run::Ctx) -> u8 {
    let scale = ctx.scale();
    let n = scale.pick(90u64, 150, 300);
    let seeds = scale.pick(4u64, 8, 16);

    let mut table = Table::new(vec![
        "predicate",
        "#A",
        "#B",
        "truth",
        "correct",
        "iters_med",
    ]);

    // --- Comparison: #A − #B ≥ 1 via the full composition ----------------
    let program = semilinear_comparison_exact(2);
    let a = program.vars.get("A").expect("A");
    let b = program.vars.get("B").expect("B");
    let pred = Predicate::Comparison { t: 1 };
    for &(na, nb) in &[
        (n / 2, n / 4),
        (n / 4, n / 2),
        (n / 3 + 1, n / 3),
        (n / 3, n / 3),
    ] {
        let truth = pred.eval(na, nb);
        let groups = [(vec![a], na), (vec![b], nb), (vec![], n - na - nb)];
        let seed = |seed| 0xEA_0000 + seed * 7 + na * 131 + nb;
        let [correct, med] = settled_cells(&program, &groups, seeds, seed, truth);
        let (na, nb, truth) = (na.to_string(), nb.to_string(), truth.to_string());
        table.row(vec!["#A-#B>=1".into(), na, nb, truth, correct, med]);
    }

    // --- Parity: #A odd (mod-2 slow blackbox) ----------------------------
    let program = parity_exact(1);
    let a = program.vars.get("A").expect("A");
    let pn = scale.pick(40u64, 60, 100);
    for na in [0u64, 1, 7, 8, pn / 2, pn / 2 + 1] {
        let truth = na % 2 == 1;
        let groups = [(vec![a], na), (vec![], pn - na)];
        let seed = |seed| 0xEA_9000 + seed * 3 + na;
        let [correct, med] = settled_cells(&program, &groups, seeds, seed, truth);
        let (na, truth) = (na.to_string(), truth.to_string());
        table.row(vec!["#A odd".into(), na, "-".into(), truth, correct, med]);
    }

    println!(
        "E10 — Theorem 6.4: semi-linear predicates (n = {n}, parity n = {pn}; \
         answers read from {:.0} / {:.0} rounds on, through twice that)\n",
        settle_budget_rounds(n),
        settle_budget_rounds(pn)
    );
    ctx.emit("e10_semilinear", &table);
    println!(
        "\n(clear comparisons settle in the first iteration — the fast blackbox; \
         close margins and parity wait for the stable slow blackbox: exact but \
         polynomially slower, per the documented reproduction scope)"
    );

    // --- Compiled vs interpreted path ------------------------------------
    // The exact comparison projects to 21 packed bits on its main thread;
    // the enumeration backend compiles it over its live states. Record
    // both rates, which `bench-diff` gates, plus their ratio, which it
    // only reports.
    let program = semilinear_comparison_exact(1);
    let a = program.vars.get("A").expect("A");
    let b = program.vars.get("B").expect("B");
    let groups = [
        (vec![a], n / 2),
        (vec![b], n / 3),
        (vec![], n - n / 2 - n / 3),
    ];
    compiled_vs_interpreted("e10_semilinear", &program, &groups, 0xEA_F00D, n);
    0
}
