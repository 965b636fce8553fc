//! Compiled-vs-interpreted equivalence for the enumeration backend: the
//! `EnumExecutor` (dense live-state ids + `RuleTableProtocol` tables on
//! `SparseCountPopulation`) must realize the same stochastic process as the
//! reference interpreter (`Executor` over the full packed state space) on
//! the three protocols that exceed the precompile flag budget — plurality,
//! exact-three plurality, and the exact semilinear comparison.
//!
//! Per protocol, one independent observation per seeded run (the count of
//! a stochastic flag at a fixed iteration count), binned chi-square
//! between the two backends' samples at α = 0.001 — the pattern of
//! `tests/backend_equivalence.rs`.

use population_protocols::engine::stats::{chi_square_p_value, chi_square_two_sample};
use population_protocols::lang::ast::Program;
use population_protocols::lang::enumerate::EnumExecutor;
use population_protocols::lang::interp::Executor;
use population_protocols::protocols::plurality::{plurality, plurality_exact_three};
use population_protocols::protocols::semilinear::semilinear_comparison_exact;
use population_protocols::rules::{Guard, Var};

const RUNS: u64 = 40;

/// Bins two samples on a shared equal-width grid and chi-squares the
/// histograms. Each sample element must be an independent observation.
fn binned_chi_square(a: &[f64], b: &[f64], bins: usize) -> (f64, usize, f64) {
    let max = a.iter().chain(b).fold(0.0f64, |m, &v| m.max(v));
    let width = (max + 1e-9) / bins as f64;
    let hist = |data: &[f64]| {
        let mut h = vec![0u64; bins];
        for &v in data {
            h[((v / width) as usize).min(bins - 1)] += 1;
        }
        h
    };
    let (stat, dof) = chi_square_two_sample(&hist(a), &hist(b));
    let p = chi_square_p_value(stat, dof);
    (stat, dof, p)
}

/// One observation per seeded run from each backend, then the chi-square
/// homogeneity check. The observable must be genuinely stochastic at the
/// chosen iteration count, otherwise both histograms collapse into one
/// bin and the test passes vacuously — guarded by a spread assertion.
fn assert_backends_equivalent(
    name: &str,
    program: &Program,
    groups: &[(Vec<Var>, u64)],
    iterations: u64,
    observe: &Guard,
    seed_base: u64,
) {
    let interpreted: Vec<f64> = (0..RUNS)
        .map(|run| {
            let mut exec = Executor::new(program, groups, seed_base + run);
            for _ in 0..iterations {
                exec.run_iteration();
            }
            exec.count_where(observe) as f64
        })
        .collect();
    let enumerated: Vec<f64> = (0..RUNS)
        .map(|run| {
            let mut exec = EnumExecutor::new(program, groups, seed_base + 50_000 + run)
                .expect("enumeration compiles this protocol");
            for _ in 0..iterations {
                exec.run_iteration();
            }
            exec.count_where(observe) as f64
        })
        .collect();

    let spread = |s: &[f64]| {
        let min = s.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = s.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        max - min
    };
    assert!(
        spread(&interpreted) > 0.0 || spread(&enumerated) > 0.0,
        "{name}: observable is degenerate on both backends — pick another flag"
    );

    let (stat, dof, p) = binned_chi_square(&interpreted, &enumerated, 5);
    assert!(
        p > 0.001,
        "{name}: interpreted vs enumerated distributions differ \
         (chi² = {stat:.2}, dof = {dof}, p = {p:.5})"
    );
}

/// Plurality over 3 colors (26 projected bits — beyond the flag budget):
/// at an exact tie between colors 1 and 2 the crowned winner is a fair
/// coin of the duel scheduler, so the `W2` count after one iteration is a
/// genuinely stochastic (≈ Bernoulli · n) observable.
#[test]
fn plurality_compiled_matches_interpreter() {
    let program = plurality(3, 2);
    let c: Vec<Var> = (1..=3)
        .map(|i| program.vars.get(&format!("C{i}")).unwrap())
        .collect();
    let w2 = program.vars.get("W2").unwrap();
    let groups = vec![(vec![c[0]], 31u64), (vec![c[1]], 31), (vec![c[2]], 28)];
    assert_backends_equivalent(
        "plurality(3,2)",
        &program,
        &groups,
        1,
        &Guard::var(w2),
        9_000,
    );
}

/// Exact-three plurality (33 projected bits): the slow-threshold
/// oscillator flag `T12O` keeps flipping, so its per-agent count at a
/// fixed iteration is a stochastic snapshot.
#[test]
fn plurality_exact_three_compiled_matches_interpreter() {
    let program = plurality_exact_three();
    let c: Vec<Var> = (1..=3)
        .map(|i| program.vars.get(&format!("C{i}")).unwrap())
        .collect();
    let t12o = program.vars.get("T12O").unwrap();
    let groups = vec![(vec![c[0]], 22u64), (vec![c[1]], 20), (vec![c[2]], 18)];
    assert_backends_equivalent(
        "plurality_exact_three",
        &program,
        &groups,
        1,
        &Guard::var(t12o),
        19_000,
    );
}

/// Exact semilinear comparison `[#A − #B ≥ 1]` (21 projected bits on the
/// main thread): at `#A = #B` the cancellation/doubling survivors `A'`
/// after one iteration are scheduler-random.
#[test]
fn semilinear_comparison_compiled_matches_interpreter() {
    let program = semilinear_comparison_exact(1);
    let a = program.vars.get("A").unwrap();
    let b = program.vars.get("B").unwrap();
    let a_star = program.vars.get("A'").unwrap();
    let groups = vec![(vec![a], 26u64), (vec![b], 26), (vec![], 8)];
    assert_backends_equivalent(
        "semilinear_comparison_exact",
        &program,
        &groups,
        1,
        &Guard::var(a_star),
        29_000,
    );
}

/// The compiled path must also agree on the *answer*, not just on
/// intermediate distributions: plurality crowns the true plurality color
/// on every seed once the duels have run.
#[test]
fn plurality_compiled_answers_correctly() {
    let program = plurality(3, 2);
    let c: Vec<Var> = (1..=3)
        .map(|i| program.vars.get(&format!("C{i}")).unwrap())
        .collect();
    let w2 = program.vars.get("W2").unwrap();
    for seed in 0..5u64 {
        let mut exec = EnumExecutor::new(
            &program,
            &[(vec![c[0]], 20), (vec![c[1]], 50), (vec![c[2]], 30)],
            seed * 13 + 1,
        )
        .expect("enumeration compiles plurality");
        exec.run_iteration();
        assert_eq!(
            exec.count_where(&Guard::var(w2)),
            100,
            "seed {seed}: color 2 must win"
        );
    }
}
