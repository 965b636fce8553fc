//! Pins the stdout of every program command of `ppsim` at fixed seeds: a
//! change to the executors or the sparse backend that moves any program
//! trajectory shows here as a diff of the printed outcome.
//!
//! Each golden file is the stdout of one command below. A change that
//! means to move a trajectory regenerates it with
//! `ppsim <arguments> > tests/golden/<name>.stdout` and says why.

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
