//! Cross-crate integration tests: whole-pipeline behavior at moderate
//! population sizes with fixed seeds.

use population_protocols::core::clocks::junta::PairwiseElimination;
use population_protocols::core::clocks::oscillator::Dk18Oscillator;
use population_protocols::core::engine::obj::ObjPopulation;
use population_protocols::core::engine::rng::SimRng;
use population_protocols::core::lang::ast::{build, Program, Thread};
use population_protocols::core::lang::compile::CompiledProtocol;
use population_protocols::core::lang::interp::Executor;
use population_protocols::core::protocols::leader::{leader_election, leader_election_exact};
use population_protocols::core::protocols::majority::{majority, majority_exact};
use population_protocols::core::protocols::plurality::plurality;
use population_protocols::core::rules::{Guard, VarSet};

#[test]
fn leader_election_scales_polylogarithmically() {
    // Iterations to a unique leader should grow like log n: going from
    // n = 64 to n = 4096 (64×) should far less than double the iteration
    // count on average.
    let program = leader_election();
    let l = program.vars.get("L").unwrap();
    let mean_iters = |n: u64| -> f64 {
        let runs = 5;
        let total: u64 = (0..runs)
            .map(|seed| {
                let mut exec = Executor::new(&program, &[(vec![], n)], 1000 + seed);
                exec.run_until(500, |e| e.count_where(&Guard::var(l)) == 1)
                    .expect("converges")
            })
            .sum();
        total as f64 / runs as f64
    };
    let small = mean_iters(64);
    let large = mean_iters(4096);
    assert!(
        large < small * 3.0,
        "64× population growth must not triple iterations: {small} -> {large}"
    );
}

#[test]
fn majority_correct_across_gaps_and_sizes() {
    let program = majority(3);
    let a = program.vars.get("A").unwrap();
    let b = program.vars.get("B").unwrap();
    let y = program.vars.get("Y_A").unwrap();
    for &(n, gap) in &[(200u64, 2u64), (200, 20), (1000, 2)] {
        let na = n / 2;
        let nb = n / 2 - gap;
        let blank = n - na - nb;
        let mut exec = Executor::new(
            &program,
            &[(vec![a], na), (vec![b], nb), (vec![], blank)],
            n * 7 + gap,
        );
        exec.run_iteration();
        assert_eq!(
            exec.count_where(&Guard::var(y)),
            n,
            "n={n} gap={gap}: unanimous A answer expected"
        );
    }
}

#[test]
fn exact_protocols_reach_certainty() {
    // LeaderElectionExact: run until the backstop pins the answer.
    let program = leader_election_exact();
    let l = program.vars.get("L").unwrap();
    let r = program.vars.get("R").unwrap();
    let mut exec = Executor::new(&program, &[(vec![], 48)], 9);
    exec.run_until(3_000, |e| {
        e.count_where(&Guard::var(r)) == 1 && e.count_where(&Guard::var(l)) == 1
    })
    .expect("exact leader election reaches the locked state");

    // MajorityExact: the slow thread empties the minority input.
    let program = majority_exact(2);
    let a = program.vars.get("A").unwrap();
    let b = program.vars.get("B").unwrap();
    let y = program.vars.get("Y_A").unwrap();
    let mut exec = Executor::new(&program, &[(vec![a], 26), (vec![b], 22)], 10);
    exec.run_until(500, |e| e.count_where(&Guard::var(b)) == 0)
        .expect("minority input exhausted");
    exec.run_iteration();
    assert_eq!(exec.count_where(&Guard::var(y)), 48, "output pinned to A");
}

#[test]
fn plurality_and_majority_agree_on_two_colors() {
    // With two colors, plurality must reduce to majority.
    let p2 = plurality(2, 2);
    let c1 = p2.vars.get("C1").unwrap();
    let c2 = p2.vars.get("C2").unwrap();
    let w1 = p2.vars.get("W1").unwrap();
    let mut exec = Executor::new(&p2, &[(vec![c1], 55), (vec![c2], 45)], 11);
    exec.run_iteration();
    assert_eq!(exec.count_where(&Guard::var(w1)), 100);
}

#[test]
fn compiled_program_runs_on_real_clocks() {
    // Small full-stack run: Y := X compiled onto the hierarchy.
    let mut vars = VarSet::new();
    let x = vars.add("X");
    let y = vars.add("Y");
    let program = Program {
        name: "copy".into(),
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
    let compiled = CompiledProtocol::new(
        &program,
        Dk18Oscillator::new(),
        PairwiseElimination::new(),
        6,
    );
    let n = 200usize;
    let mut pop = ObjPopulation::from_fn(&compiled, n, |i| {
        if i % 4 == 0 {
            compiled.initial_agent(&[x])
        } else {
            compiled.initial_agent(&[])
        }
    });
    let mut rng = SimRng::seed_from(12);
    let done = pop.run_until(&mut rng, 40_000.0, 512 * n as u64, |p| {
        p.count_where(|ag| y.is_set(ag.flags) == x.is_set(ag.flags)) == n as u64
    });
    assert!(
        done.is_some(),
        "compiled program completed under real clocks"
    );
}

#[test]
fn deterministic_given_seed() {
    // The whole stack is replayable: same seed, same trajectory.
    let program = leader_election();
    let l = program.vars.get("L").unwrap();
    let run = |seed: u64| -> (u64, f64) {
        let mut exec = Executor::new(&program, &[(vec![], 256)], seed);
        let it = exec
            .run_until(500, |e| e.count_where(&Guard::var(l)) == 1)
            .unwrap();
        (it, exec.rounds())
    };
    assert_eq!(run(77), run(77));
    assert_ne!(run(77), run(78), "different seeds should differ");
}

/// Every program command of the `ppsim` binary, the oscillator and its
/// fault-injected run included, finishes at n = 2 and n = 3 with its
/// answer's exit code (0 or 1), never a panic: one step there can empty
/// every occupied state at once, and a protocol can fall silent in its
/// first batch. Plurality at n = 3 must also answer right. At n = 0 and
/// n = 1 no pair can interact: each command refuses the run, naming `--n`.
#[test]
fn program_commands_survive_tiny_populations() {
    let protocol_file = concat!(env!("CARGO_MANIFEST_DIR"), "/protocols/leader_election.pp");
    let commands: [&[&str]; 10] = [
        &["leader"],
        &["leader-exact"],
        &["majority"],
        &["plurality"],
        &["parity", "--a", "1"],
        &["run-file", protocol_file],
        &["run-file", "--builtin", "plurality-exact-three"],
        &["profile", "parity", "--a", "1"],
        &["oscillator", "--rounds", "60"],
        &["faults", "--rounds", "60"],
    ];
    for n in ["0", "1", "2", "3"] {
        for args in commands {
            for seed in ["1", "2"] {
                let out = std::process::Command::new(env!("CARGO_BIN_EXE_ppsim"))
                    .args(args)
                    .args(["--n", n, "--seed", seed])
                    .output()
                    .expect("spawn ppsim");
                let stderr = String::from_utf8_lossy(&out.stderr);
                assert!(
                    !stderr.contains("panicked"),
                    "ppsim {args:?} --n {n} --seed {seed}: {}\n{stderr}",
                    out.status
                );
                if n == "0" || n == "1" {
                    assert!(
                        !out.status.success() && stderr.contains("flag --n "),
                        "ppsim {args:?} --n {n} ran: {}\n{stderr}",
                        out.status
                    );
                    continue;
                }
                assert!(
                    matches!(out.status.code(), Some(0 | 1)),
                    "ppsim {args:?} --n {n} --seed {seed}: {}\n{stderr}",
                    out.status
                );
                // At n = 3 colours 2 and 3 hold one agent each: a tie, so
                // either winner is right.
                if args == ["plurality"] && n == "3" {
                    assert_eq!(
                        out.status.code(),
                        Some(0),
                        "ppsim plurality --n 3 --seed {seed}: {}{stderr}",
                        String::from_utf8_lossy(&out.stdout)
                    );
                }
            }
        }
    }
}

/// `run-file --in-NAME` sets an input variable; naming any other variable
/// (or none) is refused, naming the flag, instead of panicking.
#[test]
fn run_file_refuses_groups_on_non_inputs() {
    let protocol_file = concat!(env!("CARGO_MANIFEST_DIR"), "/protocols/leader_election.pp");
    for flag in ["--in-L", "--in-NOPE"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_ppsim"))
            .args(["run-file", protocol_file, "--n", "100", flag, "5"])
            .output()
            .expect("spawn ppsim");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            out.status.code() == Some(2) && stderr.contains(&format!("flag {flag}:")),
            "ppsim run-file {flag} 5: {}\n{stderr}",
            out.status
        );
    }
}

/// A run whose species never rotate completes no period: the oscillator
/// summary then prints its mean period as it prints its quantiles, `NaN`,
/// not the `-0.0` of an empty sum.
#[test]
fn oscillator_without_a_period_prints_nan_means() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_ppsim"))
        .args(["oscillator", "--n", "100", "--rounds", "5"])
        .output()
        .expect("spawn ppsim");
    assert!(out.status.success(), "{}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("0 dominance events")
            && stdout.contains("mean period NaN rounds, p50 NaN, p90 NaN"),
        "{stdout}"
    );
}

/// `ppsim list` names the commands of the usage text but itself;
/// `ppsim profile` runs every run command the usage text names for it but
/// `resume` (which needs a checkpoint), and one experiment at `--quick`
/// (experiments take no `--n`), and refuses anything else, naming them.
#[test]
fn ppsim_list_and_usage_name_what_the_binary_accepts() {
    let ppsim = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_ppsim"))
            .args(args)
            .output()
            .expect("spawn ppsim")
    };
    let listed = String::from_utf8(ppsim(&["list"]).stdout).expect("utf-8 list");
    let mut listed: Vec<&str> = listed.split_whitespace().collect();
    let usage = String::from_utf8(ppsim(&[]).stderr).expect("utf-8 usage");
    let mut commands: Vec<&str> = usage
        .lines()
        .skip_while(|l| !l.starts_with("commands:"))
        .take_while(|l| !l.starts_with("flags:"))
        .filter_map(|l| l.strip_prefix('\t'))
        .filter(|l| !l.starts_with(' '))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    commands.retain(|&c| c != "list");
    commands.sort_unstable();
    listed.sort_unstable();
    assert_eq!(listed, commands, "`ppsim list` against the usage text");
    let run_commands: Vec<&str> = usage
        .lines()
        .find(|l| l.starts_with("\tprofile"))
        .and_then(|l| l.split(['<', '>']).nth(1))
        .expect("usage names the run commands profile takes")
        .split('|')
        .collect();
    for named in ["resume", "e3_x_elimination", "e15_silence"] {
        assert!(run_commands.contains(&named), "{run_commands:?}");
    }
    let protocol_file = concat!(env!("CARGO_MANIFEST_DIR"), "/protocols/leader_election.pp");
    for &command in &run_commands {
        let mut args = vec!["profile", command];
        match command {
            "resume" => continue,
            "e3_x_elimination" => args.push("--quick"),
            experiment if experiment.starts_with('e') => continue,
            "run-file" => args.extend([protocol_file, "--n", "200"]),
            _ => args.extend(["--n", "200"]),
        }
        let out = ppsim(&args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        // The command's own exit code: a wrong answer at n = 200 is 1.
        assert!(
            matches!(out.status.code(), Some(0 | 1)) && !stderr.contains("panicked"),
            "ppsim {args:?}: {}\n{stderr}",
            out.status
        );
        assert!(
            stdout.contains("\nsection ")
                && stdout
                    .lines()
                    .last()
                    .is_some_and(|l| l.starts_with("regimes: ")),
            "ppsim {args:?} printed no profile:\n{stdout}"
        );
    }
    for refused in [
        &["profile", "--builtin", "oscillator"][..],
        &["profile", "lint"],
    ] {
        let out = ppsim(refused);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "ppsim {refused:?} ran");
        assert!(
            run_commands.iter().all(|c| stderr.contains(c)),
            "ppsim {refused:?} does not name the run commands: {stderr}"
        );
    }
}
