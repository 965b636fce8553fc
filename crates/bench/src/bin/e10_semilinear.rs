//! E10 — Theorem 6.4: semi-linear predicates. The comparison fragment
//! converges fast (w.h.p.) through the full fast+slow composition; modulo
//! predicates converge exactly via the stable blackbox. Measures
//! correctness against ground truth over input sweeps: a run is correct
//! when its answer is right at the end of `settle_budget_rounds(n)` and
//! stays right for as many rounds again (`run_settled`), and `iters_med`
//! is the median iteration from which its answer stayed right.

use pp_bench::history::{self, HistoryRecord};
use pp_bench::timing::throughput;
use pp_bench::{emit, Scale};
use pp_engine::report::{fmt_f64, Table};
use pp_engine::stats::Summary;
use pp_engine::sweep::map_configs;
use pp_lang::enumerate::EnumExecutor;
use pp_lang::interp::Executor;
use pp_protocols::semilinear::{
    parity_exact, run_settled, semilinear_comparison_exact, settle_budget_rounds, Predicate,
};
use pp_rules::Guard;

fn main() {
    let scale = Scale::from_args();
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
    let p = program.vars.get("P").expect("P");
    let pred = Predicate::Comparison { t: 1 };
    for &(na, nb) in &[
        (n / 2, n / 4),
        (n / 4, n / 2),
        (n / 3 + 1, n / 3),
        (n / 3, n / 3),
    ] {
        let truth = pred.eval(na, nb);
        let configs: Vec<u64> = (0..seeds).collect();
        let results = map_configs(&configs, 0, |&seed| {
            let mut exec = Executor::new(
                &program,
                &[(vec![a], na), (vec![b], nb), (vec![], n - na - nb)],
                0xEA_0000 + seed * 7 + na * 131 + nb,
            );
            let it = run_settled(&mut exec, |e| {
                let on = e.count_where(&Guard::var(p));
                (on == e.n()) == truth && (on == 0) != truth
            });
            it.map(|i| i as f64)
        });
        let ok: Vec<f64> = results.into_iter().flatten().collect();
        let med = if ok.is_empty() {
            f64::NAN
        } else {
            Summary::of(&ok).median
        };
        table.row(vec![
            "#A-#B>=1".into(),
            na.to_string(),
            nb.to_string(),
            truth.to_string(),
            format!("{}/{seeds}", ok.len()),
            fmt_f64(med),
        ]);
    }

    // --- Parity: #A odd (mod-2 slow blackbox) ----------------------------
    let program = parity_exact(1);
    let a = program.vars.get("A").expect("A");
    let p = program.vars.get("P").expect("P");
    let pn = scale.pick(40u64, 60, 100);
    for na in [0u64, 1, 7, 8, pn / 2, pn / 2 + 1] {
        let truth = na % 2 == 1;
        let configs: Vec<u64> = (0..seeds).collect();
        let results = map_configs(&configs, 0, |&seed| {
            let mut exec = Executor::new(
                &program,
                &[(vec![a], na), (vec![], pn - na)],
                0xEA_9000 + seed * 3 + na,
            );
            let it = run_settled(&mut exec, |e| {
                let on = e.count_where(&Guard::var(p));
                (on == e.n()) == truth && (on == 0) != truth
            });
            it.map(|i| i as f64)
        });
        let ok: Vec<f64> = results.into_iter().flatten().collect();
        let med = if ok.is_empty() {
            f64::NAN
        } else {
            Summary::of(&ok).median
        };
        table.row(vec![
            "#A odd".into(),
            na.to_string(),
            "-".into(),
            truth.to_string(),
            format!("{}/{seeds}", ok.len()),
            fmt_f64(med),
        ]);
    }

    println!(
        "E10 — Theorem 6.4: semi-linear predicates (n = {n}, parity n = {pn}; \
         answers read from {:.0} / {:.0} rounds on, through twice that)\n",
        settle_budget_rounds(n),
        settle_budget_rounds(pn)
    );
    emit("e10_semilinear", &table);
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
    let mut interp = Executor::new(&program, &groups, 0xEA_F00D);
    let interp_rate = throughput(|| {
        interp.run_iteration();
        1
    });
    let mut compiled = EnumExecutor::new(&program, &groups, 0xEA_F00D)
        .expect("enumeration compiles the exact comparison");
    let compiled_rate = throughput(|| {
        compiled.run_iteration();
        1
    });
    println!(
        "\ncompiled path (enumeration, {} live states): {compiled_rate:.1} iter/s \
         vs interpreted {interp_rate:.1} iter/s ({:.2}x)",
        compiled.live_states().len(),
        compiled_rate / interp_rate
    );
    history::append(&[
        HistoryRecord {
            bench: "e10_semilinear",
            scenario: "interpreted",
            n,
            metric: "iter_per_sec",
            rate: interp_rate,
        },
        HistoryRecord {
            bench: "e10_semilinear",
            scenario: "enumerated",
            n,
            metric: "iter_per_sec",
            rate: compiled_rate,
        },
        HistoryRecord {
            bench: "e10_semilinear",
            scenario: "compiled_speedup",
            n,
            metric: "ratio",
            rate: compiled_rate / interp_rate,
        },
    ]);
}
