//! Semantic validation of the precompiler: executing the lowered ruleset
//! tree leaf-by-leaf under an idealized fair scheduler must implement the
//! source program.
//!
//! This test bridges the two halves of the compilation story: the
//! good-iteration executor (`interp`) runs the *source* AST; here we run
//! the *precompiled* tree (trigger flags, Z-epidemics, gated merged
//! rulesets) the way the clock hierarchy would schedule it — each leaf in
//! time-path order for `c ln n` rounds, inner loops repeated `Θ(log n)`
//! times — and check the protocols still work.

use pp_engine::counts::SparseCountPopulation;
use pp_engine::rng::SimRng;
use pp_engine::sim::{run_rounds, Simulator};
use pp_lang::ast::{build, Program, Thread};
use pp_lang::precompile::{precompile, CompiledTree, TreeNode};
use pp_rules::{FlagProtocol, Guard, VarSet};

/// Executes one pass of the tree (the outermost repeat's body) on a dense
/// count vector: leaves run for `max(c, 16)·ln n` rounds each; loops repeat
/// `⌈c ln n⌉` times.
///
/// The floor of 16 realizes the paper's "high probability may be made
/// arbitrarily high through a careful choice of c": merged leaves dilute
/// each rule by the leaf's rule count (uniform selection), and an epidemic
/// needs ≈ 2·#rules·ln n rounds to both grow and collect stragglers, so
/// the window constant must dominate that product.
fn run_tree_pass(tree: &CompiledTree, counts: &mut Vec<u64>, rng: &mut SimRng) {
    let n: u64 = counts.iter().sum();
    let ln_n = (n as f64).ln();
    fn run_nodes(
        nodes: &[TreeNode],
        vars: &VarSet,
        counts: &mut Vec<u64>,
        rng: &mut SimRng,
        ln_n: f64,
    ) {
        for node in nodes {
            match node {
                TreeNode::Leaf { c, ruleset } => {
                    if ruleset.is_empty() {
                        continue;
                    }
                    let protocol = FlagProtocol::new(vars.clone(), ruleset.clone(), "leaf");
                    let mut pop = SparseCountPopulation::from_dense(&protocol, counts);
                    run_rounds(&mut pop, f64::from(*c).max(16.0) * ln_n, rng);
                    *counts = pop.counts();
                }
                TreeNode::Loop { c, children } => {
                    let times = (f64::from(*c) * ln_n).ceil().max(1.0) as u64;
                    for _ in 0..times {
                        run_nodes(children, vars, counts, rng, ln_n);
                    }
                }
            }
        }
    }
    run_nodes(&tree.root, &tree.vars, counts, rng, ln_n);
}

fn count_where(counts: &[u64], guard: &Guard) -> u64 {
    counts
        .iter()
        .enumerate()
        .filter(|&(s, &c)| c > 0 && guard.eval(s as u32))
        .map(|(_, &c)| c)
        .sum()
}

#[test]
fn precompiled_assignment_tree_copies_flags() {
    // Y := X, lowered to trigger leaves, must copy X to Y for every agent.
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
    let tree = precompile(&program);
    let mut counts = vec![0u64; tree.vars.num_states()];
    counts[x.mask() as usize] = 100;
    counts[0] = 200;
    let mut rng = SimRng::seed_from(1);
    run_tree_pass(&tree, &mut counts, &mut rng);
    let correct = count_where(
        &counts,
        &Guard::var(x)
            .and(Guard::var(y))
            .or(Guard::not_var(x).and(Guard::not_var(y))),
    );
    assert_eq!(correct, 300, "every agent's Y mirrors its X");
}

#[test]
fn precompiled_branch_tree_respects_existence() {
    // if exists (A): Y := on else: Z := on — run the lowered tree in both
    // worlds and check the right flag fires.
    let mut vars = VarSet::new();
    let a = vars.add("A");
    let y = vars.add("Y");
    let z = vars.add("Z");
    let program = Program {
        name: "branch".into(),
        vars,
        inputs: vec![a],
        outputs: vec![y, z],
        init: vec![],
        derived_init: vec![],
        threads: vec![Thread::Structured {
            name: "Main".into(),
            body: vec![build::if_else(
                Guard::var(a),
                vec![build::assign(y, Guard::any())],
                vec![build::assign(z, Guard::any())],
            )],
        }],
    };
    let tree = precompile(&program);

    // World 1: A present.
    let mut counts = vec![0u64; tree.vars.num_states()];
    counts[a.mask() as usize] = 3;
    counts[0] = 197;
    let mut rng = SimRng::seed_from(2);
    run_tree_pass(&tree, &mut counts, &mut rng);
    assert_eq!(count_where(&counts, &Guard::var(y)), 200, "then-branch ran");
    assert_eq!(count_where(&counts, &Guard::var(z)), 0, "else did not");

    // World 2: A absent.
    let mut counts = vec![0u64; tree.vars.num_states()];
    counts[0] = 200;
    let mut rng = SimRng::seed_from(3);
    run_tree_pass(&tree, &mut counts, &mut rng);
    assert_eq!(count_where(&counts, &Guard::var(y)), 0, "then did not run");
    assert_eq!(count_where(&counts, &Guard::var(z)), 200, "else-branch ran");
}

#[test]
fn precompiled_leader_election_tree_halves_and_converges() {
    // The full lowered LeaderElection tree, scheduled ideally, must elect a
    // unique leader within O(log n) passes — same as the AST executor.
    let mut vars = VarSet::new();
    let l = vars.add("L");
    let d = vars.add("D");
    let f = vars.add("F");
    let body = vec![
        build::if_exists(
            Guard::var(l),
            vec![
                build::assign_coin(f),
                build::assign(d, Guard::var(l).and(Guard::var(f))),
            ],
        ),
        build::if_else(
            Guard::var(d),
            vec![build::assign(l, Guard::var(d))],
            vec![build::if_else(
                Guard::var(l),
                vec![],
                vec![build::assign(l, Guard::any())],
            )],
        ),
    ];
    let program = Program {
        name: "LeaderElection".into(),
        vars,
        inputs: vec![],
        outputs: vec![l],
        init: vec![(l, true)],
        derived_init: vec![],
        threads: vec![Thread::Structured {
            name: "Main".into(),
            body,
        }],
    };
    let tree = precompile(&program);
    let mut counts = vec![0u64; tree.vars.num_states()];
    counts[l.mask() as usize] = 300;
    let mut rng = SimRng::seed_from(4);
    let mut converged_at = None;
    for pass in 1..=200 {
        run_tree_pass(&tree, &mut counts, &mut rng);
        let leaders = count_where(&counts, &Guard::var(l));
        assert!(leaders >= 1, "leaders must never vanish (pass {pass})");
        if leaders == 1 {
            converged_at = Some(pass);
            break;
        }
    }
    let pass = converged_at.expect("unique leader within 200 passes");
    assert!(pass < 80, "O(log n) passes expected, got {pass}");
    // Stability under continued execution.
    for _ in 0..10 {
        run_tree_pass(&tree, &mut counts, &mut rng);
        assert_eq!(count_where(&counts, &Guard::var(l)), 1);
    }
}
