//! Pins the stdout of every program command of `ppsim` at fixed seeds,
//! and the enumerated executor's trajectory on the programs beyond the
//! precompile flag budget: a change to the executors or the sparse backend
//! that moves any program trajectory shows here as a diff.
//!
//! Each `.stdout` golden file is the stdout of one command below. A change
//! that means to move a trajectory regenerates it with
//! `ppsim <arguments> > tests/golden/<name>.stdout` (or copies the "now"
//! block of the enumerated test's failure into `enumerated.txt`) and says
//! why.

/// `(golden file name, ppsim arguments)`.
const GOLDENS: &[(&str, &str)] = &[
    ("leader", "leader --n 2000 --seed 3"),
    ("leader_exact", "leader-exact --n 2000 --seed 4"),
    ("majority", "majority --n 2000 --seed 5"),
    ("plurality", "plurality --n 2000 --seed 6"),
    ("parity", "parity --n 300 --seed 9"),
    (
        "plurality_exact_three",
        "run-file --builtin plurality-exact-three --n 2000 \
         --in-C1 600 --in-C2 650 --in-C3 750 --iters 1 --seed 7",
    ),
    (
        "semilinear_comparison",
        "run-file --builtin semilinear-comparison --n 2000 \
         --in-A 1100 --in-B 900 --iters 2 --seed 8",
    ),
];

#[test]
fn program_commands_print_their_golden_stdout() {
    for (name, args) in GOLDENS {
        let path = format!("{}/tests/golden/{name}.stdout", env!("CARGO_MANIFEST_DIR"));
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_ppsim"))
            .args(args.split_whitespace())
            .output()
            .expect("spawn ppsim");
        assert!(
            out.status.success(),
            "ppsim {args:?}: {}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
        assert!(
            stdout == golden,
            "ppsim {args:?} left its golden {path}:\n--- golden\n{golden}\n--- now\n{stdout}"
        );
    }
}

/// Renders `EnumExecutor`'s trajectory for one program, input and seed:
/// after iterations 1 and 3, the completed iterations, the rounds (as
/// `f64` bits, so the comparison is exact) and the live-id `counts()` (its
/// length, then every nonzero `id:count`).
fn enumerated_trace(
    name: &str,
    program: &population_protocols::lang::ast::Program,
    groups: &[(Vec<population_protocols::rules::Var>, u64)],
    seed: u64,
) -> String {
    use population_protocols::lang::enumerate::EnumExecutor;
    use std::fmt::Write;

    let mut exec = EnumExecutor::new(program, groups, seed).expect("the program enumerates");
    let mut out = String::new();
    for after in [1, 3] {
        while exec.iterations() < after {
            exec.run_iteration();
        }
        let counts = exec.counts();
        let _ = write!(
            out,
            "{name} seed={seed} iterations={} rounds_bits={:#x} q={}",
            exec.iterations(),
            exec.rounds().to_bits(),
            counts.len()
        );
        for (id, &c) in counts.iter().enumerate().filter(|&(_, &c)| c > 0) {
            let _ = write!(out, " {id}:{c}");
        }
        out.push('\n');
    }
    out
}

/// Pins the enumerated backend's trajectory on the three programs beyond
/// the precompile flag budget, each with raw threads (so the overhead
/// site runs), at two seeds each. A change to `EnumExecutor`, the
/// good-iteration walk or the sparse backend that moves any of them shows
/// here as a diff of `tests/golden/enumerated.txt`.
#[test]
fn enumerated_programs_replay_their_golden_trajectories() {
    use population_protocols::protocols::plurality::{plurality, plurality_exact_three};
    use population_protocols::protocols::semilinear::semilinear_comparison_exact;

    let colors = |p: &population_protocols::lang::ast::Program| {
        (1..=3)
            .map(|i| p.vars.get(&format!("C{i}")).unwrap())
            .collect::<Vec<_>>()
    };
    let mut now = String::new();
    let p = plurality(3, 2);
    let c = colors(&p);
    let groups = [(vec![c[0]], 31u64), (vec![c[1]], 31), (vec![c[2]], 28)];
    for seed in [1, 2] {
        now += &enumerated_trace("plurality(3,2)", &p, &groups, seed);
    }
    let p = plurality_exact_three();
    let c = colors(&p);
    let groups = [(vec![c[0]], 22u64), (vec![c[1]], 20), (vec![c[2]], 18)];
    for seed in [3, 4] {
        now += &enumerated_trace("plurality_exact_three", &p, &groups, seed);
    }
    let p = semilinear_comparison_exact(1);
    let (a, b) = (p.vars.get("A").unwrap(), p.vars.get("B").unwrap());
    let groups = [(vec![a], 27u64), (vec![b], 25), (vec![], 8)];
    for seed in [5, 6] {
        now += &enumerated_trace("semilinear_comparison_exact(1)", &p, &groups, seed);
    }
    let path = format!("{}/tests/golden/enumerated.txt", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert!(
        now == golden,
        "the enumerated trajectories left their golden {path}:\n--- golden\n{golden}\n--- now\n{now}"
    );
}
