//! E11 — plurality consensus over `l` colors (Section 1.1): same
//! convergence behavior as majority, `l−1` tournament duels per iteration.
//!
//! Sweeps the number of colors and the skew between the top two colors.

use pp_bench::history::{self, HistoryRecord};
use pp_bench::timing::throughput;
use pp_bench::{emit, Scale};
use pp_engine::report::{fmt_f64, Table};
use pp_engine::stats::Summary;
use pp_engine::sweep::map_configs;
use pp_lang::enumerate::EnumExecutor;
use pp_lang::interp::Executor;
use pp_protocols::plurality::plurality;
use pp_rules::Guard;

fn main() {
    let scale = Scale::from_args();
    let n = scale.pick(150u64, 300, 600);
    let seeds = scale.pick(5u64, 10, 20);

    let mut table = Table::new(vec![
        "l",
        "n",
        "winner share",
        "runner-up share",
        "correct",
        "rounds_med",
    ]);
    println!("E11 — plurality consensus (n = {n})\n");

    for &l in &[3usize, 4, 5] {
        for &(win_pct, second_pct) in &[(40u64, 35u64), (30, 28), (26, 25)] {
            let program = plurality(l, 2);
            let colors: Vec<_> = (1..=l)
                .map(|i| program.vars.get(&format!("C{i}")).unwrap())
                .collect();
            // Winner is color 2 (arbitrary, not first, to catch bias).
            let winner_idx = 1usize;
            let mut shares = vec![0u64; l];
            shares[winner_idx] = n * win_pct / 100;
            shares[0] = n * second_pct / 100;
            let rest = n - shares[winner_idx] - shares[0];
            // Remaining colors stay strictly below the runner-up so the
            // intended winner really is the plurality.
            let other = (rest / (l as u64 - 2)).min(shares[0].saturating_sub(2));
            for (i, s) in shares.iter_mut().enumerate() {
                if i != 0 && i != winner_idx {
                    *s = other;
                }
            }
            let used: u64 = shares.iter().sum();
            let blank = n - used;

            let configs: Vec<u64> = (0..seeds).collect();
            let results = map_configs(&configs, 0, |&seed| {
                let mut groups: Vec<(Vec<pp_rules::Var>, u64)> = colors
                    .iter()
                    .zip(&shares)
                    .map(|(&c, &s)| (vec![c], s))
                    .collect();
                groups.push((vec![], blank));
                let mut exec = Executor::new(
                    &program,
                    &groups,
                    0xEB_0000 + seed * 37 + l as u64 * 1000 + win_pct,
                );
                exec.run_iteration();
                let w = program.vars.get(&format!("W{}", winner_idx + 1)).unwrap();
                let got = exec.count_where(&Guard::var(w));
                (got == exec.n(), exec.rounds())
            });
            let correct = results.iter().filter(|r| r.0).count();
            let rounds = Summary::of(&results.iter().map(|r| r.1).collect::<Vec<_>>());
            table.row(vec![
                l.to_string(),
                n.to_string(),
                format!("{win_pct}%"),
                format!("{second_pct}%"),
                format!("{correct}/{seeds}"),
                fmt_f64(rounds.median),
            ]);
        }
    }
    emit("e11_plurality", &table);
    println!(
        "\n(theory: correct w.h.p. even at 1-point skew; rounds grow with l as \
         (l−1) duels run per iteration)"
    );

    // --- Compiled vs interpreted path ------------------------------------
    // Plurality projects to 26 packed bits and cannot precompile through
    // the flag budget; the enumeration backend compiles it over its live
    // support-reachable states instead. Measure full protocol iterations
    // per second on both paths and record the trajectory so `bench-diff`
    // gates both rates (their ratio is only reported).
    let program = plurality(3, 2);
    let colors: Vec<_> = (1..=3)
        .map(|i| program.vars.get(&format!("C{i}")).unwrap())
        .collect();
    let groups = [
        (vec![colors[0]], n * 3 / 10),
        (vec![colors[1]], n * 4 / 10),
        (vec![colors[2]], n - n * 3 / 10 - n * 4 / 10),
    ];
    let mut interp = Executor::new(&program, &groups, 0xEB_F00D);
    let interp_rate = throughput(|| {
        interp.run_iteration();
        1
    });
    let mut compiled =
        EnumExecutor::new(&program, &groups, 0xEB_F00D).expect("enumeration compiles plurality");
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
            bench: "e11_plurality",
            scenario: "interpreted",
            n,
            metric: "iter_per_sec",
            rate: interp_rate,
        },
        HistoryRecord {
            bench: "e11_plurality",
            scenario: "enumerated",
            n,
            metric: "iter_per_sec",
            rate: compiled_rate,
        },
        HistoryRecord {
            bench: "e11_plurality",
            scenario: "compiled_speedup",
            n,
            metric: "ratio",
            rate: compiled_rate / interp_rate,
        },
    ]);
}
