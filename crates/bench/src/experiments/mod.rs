//! The E1–E15 experiments, one module each, as EXPERIMENTS.md lists them.
//! Each regenerates one experiment's rows: `run` prints an aligned table
//! and writes the same rows as CSV under `target/experiments/` (and, under
//! `--record`, as `row` lines of the run record). `--quick` shrinks
//! population sizes and seed counts for smoke runs; `--full` enlarges them.

use crate::history::{self, HistoryRecord};
use crate::timing::throughput;
use pp_lang::ast::Program;
use pp_lang::enumerate::EnumExecutor;
use pp_lang::interp::Executor;
use pp_rules::Var;

pub(crate) mod e10_semilinear;
pub(crate) mod e11_plurality;
pub(crate) mod e12_schedulers;
pub(crate) mod e13_full_stack;
pub(crate) mod e15_silence;
pub(crate) mod e1_leader_whp;
pub(crate) mod e2_majority_whp;
pub(crate) mod e3_x_elimination;
pub(crate) mod e4_klevel_decay;
pub(crate) mod e5_oscillator;
pub(crate) mod e6_phase_clock;
pub(crate) mod e7_hierarchy;
pub(crate) mod e8_exact;
pub(crate) mod e9_comparison;

/// Runs `f` once per seed in `0..seeds` as one sweep, so a recorder
/// installed on the caller counts every run; results come in seed order.
pub(crate) fn per_seed<T: Send>(seeds: u64, f: impl Fn(u64) -> T + Sync) -> Vec<T> {
    let configs: Vec<u64> = (0..seeds).collect();
    pp_engine::sweep::map_configs(&configs, 0, |&seed| f(seed))
}

/// How many of `runs` hold `true`, and the median of their values.
pub(crate) fn count_and_median(runs: &[(bool, f64)]) -> (u64, f64) {
    let values: Vec<f64> = runs.iter().map(|r| r.1).collect();
    let count = runs.iter().filter(|r| r.0).count() as u64;
    (count, pp_engine::stats::Summary::of(&values).median)
}

/// Times `program` from `groups` on the interpreter and on the enumeration
/// backend, prints both iteration rates, and appends them and their ratio
/// to the perf history as `bench` at `n`: `bench-diff` gates the two rates
/// and only reports the ratio, which falls whenever the interpreter speeds
/// up.
pub(crate) fn compiled_vs_interpreted(
    bench: &'static str,
    program: &Program,
    groups: &[(Vec<Var>, u64)],
    seed: u64,
    n: u64,
) {
    let mut interp = Executor::new(program, groups, seed);
    let interp_rate = throughput(|| {
        interp.run_iteration();
        1
    });
    let mut compiled =
        EnumExecutor::new(program, groups, seed).expect("enumeration compiles the program");
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
    let record = |scenario, metric, rate| HistoryRecord {
        bench,
        scenario,
        n,
        metric,
        rate,
    };
    history::append(&[
        record("interpreted", "iter_per_sec", interp_rate),
        record("enumerated", "iter_per_sec", compiled_rate),
        record("compiled_speedup", "ratio", compiled_rate / interp_rate),
    ]);
}
