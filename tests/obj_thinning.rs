//! Idle thinning on the agent-object backend, and the division-free clock
//! kernel under it.
//!
//! The idle contract of `ObjProtocol` is that `interact(a, b)` has the law
//! "with probability `idle()` return `(a, b)`, else
//! `interact_active(a, b)`", with `idle()` the same for every pair.
//! `ObjPopulation::step_batch` relies on it to skip the idle steps
//! without drawing their pairs. The tests check:
//!
//! * the contract on fixed agent pairs, for `CompiledProtocol` with and
//!   without a raw thread at tempo 1 and tempo 4 (and a copy program at
//!   tempo 2), and for `ClockHierarchy`
//!   at tempo 4: a two-sample chi-square between `interact` and the
//!   mixture sampler, Bonferroni-corrected over every pair tested;
//! * that a thinned batch has the law of the unthinned one, on a small
//!   protocol with an idle share;
//! * that `ClockKernel` equals `detector_observe`, `(phase + 1) % m` and
//!   `doubt_consensus` on every input with `k ≤ 85` and `m ≤ 252`;
//! * byte-identical trajectories, pinned by hash from the code before
//!   thinning: an `ObjPopulation` on the default hooks, `ClockHierarchy`
//!   at tempo 1 (the E7 configuration) and the dense `ControlledClock` on
//!   the kernel, the last on the sparse backend.

use std::collections::BTreeMap;

use population_protocols::core::clocks::controlled::{fixed_x_init, ControlledClock, FixedX};
use population_protocols::core::clocks::hierarchy::{ClockHierarchy, ClockLevel, HierAgent};
use population_protocols::core::clocks::junta::PairwiseElimination;
use population_protocols::core::clocks::oscillator::Dk18Oscillator;
use population_protocols::core::clocks::phase_clock::{
    detector_observe, doubt_consensus, ClockKernel,
};
use population_protocols::core::engine::counts::SparseCountPopulation;
use population_protocols::core::engine::obj::{ObjPopulation, ObjProtocol};
use population_protocols::core::engine::rng::SimRng;
use population_protocols::core::engine::sim::Simulator;
use population_protocols::core::engine::stats::{chi_square_p_value, chi_square_two_sample};
use population_protocols::core::lang::ast::{build, Program, Thread};
use population_protocols::core::lang::compile::{CompiledAgent, CompiledProtocol};
use population_protocols::core::protocols::leader::{leader_election, leader_election_exact};
use population_protocols::core::rules::parse::parse_ruleset;
use population_protocols::core::rules::{Guard, VarSet};

/// Family-wise error rate of the contract tests, split evenly (Bonferroni)
/// over every agent pair they test.
const FAMILY_ALPHA: f64 = 1e-3;

/// Agent pairs tested per protocol.
const PAIRS: usize = 3;

/// Protocols whose contract is tested: five compiled programs and one
/// hierarchy.
const PROTOCOLS: usize = 6;

/// Draws per sampler per pair.
const DRAWS: u64 = 100_000;

type Key = (u32, u16, u8, [u32; 4], [u32; 4]);

fn level_word(l: &ClockLevel) -> u32 {
    u32::from_le_bytes([l.osc, l.det, l.phase, l.doubt])
}

fn hier_key(flags: u32, h: &HierAgent) -> Key {
    (
        flags,
        h.ctrl,
        h.trig,
        h.cur.map(|l| level_word(&l)),
        h.pending.map(|l| level_word(&l)),
    )
}

fn compiled_key(a: &CompiledAgent) -> Key {
    hier_key(a.flags, &a.clock)
}

/// Two-sample chi-square between `interact` and the contract's mixture
/// sampler on one pair; asserts at the per-pair Bonferroni level.
fn assert_contract<P: ObjProtocol>(
    protocol: &P,
    a: &P::State,
    b: &P::State,
    key: impl Fn(&P::State) -> Key,
    seed: u64,
    what: &str,
) {
    let idle = protocol.idle();
    let mut direct = SimRng::seed_from(seed);
    let mut mixed = SimRng::seed_from(seed ^ 0x5eed_0fa1);
    let mut hist: BTreeMap<(Key, Key), [u64; 2]> = BTreeMap::new();
    for _ in 0..DRAWS {
        let (a2, b2) = protocol.interact(a, b, &mut direct);
        hist.entry((key(&a2), key(&b2))).or_default()[0] += 1;
        let (a2, b2) = if mixed.chance(idle) {
            (a.clone(), b.clone())
        } else {
            protocol.interact_active(a, b, &mut mixed)
        };
        hist.entry((key(&a2), key(&b2))).or_default()[1] += 1;
    }
    let left: Vec<u64> = hist.values().map(|c| c[0]).collect();
    let right: Vec<u64> = hist.values().map(|c| c[1]).collect();
    let (stat, dof) = chi_square_two_sample(&left, &right);
    let p = chi_square_p_value(stat, dof);
    let alpha = FAMILY_ALPHA / (PAIRS * PROTOCOLS) as f64;
    assert!(
        p > alpha,
        "{what}: interact and the idle mixture differ \
         (chi² = {stat:.2}, dof = {dof}, p = {p:.2e}, alpha = {alpha:.1e})"
    );
}

fn compile(program: &Program) -> CompiledProtocol<Dk18Oscillator, PairwiseElimination> {
    CompiledProtocol::new(
        program,
        Dk18Oscillator::new(),
        PairwiseElimination::new(),
        6,
    )
}

/// `Y := X` on one structured thread, or an empty structured thread when
/// `copy` is false, optionally with a raw thread beside it. An assignment
/// lowers to two rules per leaf, which compiles at tempo 2; the empty
/// thread compiles at tempo 1.
fn toy_program(copy: bool, with_raw: bool) -> Program {
    let mut vars = VarSet::new();
    let x = vars.add("X");
    let y = vars.add("Y");
    let body = if copy {
        vec![build::assign(y, Guard::var(x))]
    } else {
        Vec::new()
    };
    let mut threads = vec![Thread::Structured {
        name: "Main".into(),
        body,
    }];
    if with_raw {
        let ruleset = parse_ruleset("(X) + (!X) -> (.) + (X)", &mut vars).expect("raw parses");
        threads.push(Thread::Raw {
            name: "Spread".into(),
            ruleset,
        });
    }
    Program {
        name: if copy { "copy" } else { "empty" }.into(),
        vars,
        inputs: vec![x],
        outputs: vec![y],
        init: vec![],
        derived_init: vec![],
        threads,
    }
}

/// Checks the contract of a compiled program on pairs drawn from a short
/// run, plus one pair pinned inside the first leaf window so the program
/// thread can fire.
fn check_compiled(program: &Program, tempo: u8, raw: bool, seed: u64) {
    let c = compile(program);
    assert_eq!(c.hierarchy().tempo(), tempo, "{}: tempo", program.name);
    assert_eq!(program.raw_threads().count() > 0, raw);
    let inputs = program.inputs.clone();
    let mut pop = ObjPopulation::from_fn(&c, 40, |i| {
        if i % 3 == 0 {
            c.initial_agent(&inputs)
        } else {
            c.initial_agent(&[])
        }
    });
    pop.run_rounds(300.0, &mut SimRng::seed_from(seed));
    let mut pairs = vec![
        (*pop.agent(0), *pop.agent(1)),
        (*pop.agent(2), *pop.agent(3)),
    ];
    let (mut a, mut b) = (*pop.agent(0), *pop.agent(3));
    a.clock.cur[0].phase = 4;
    b.clock.cur[0].phase = 4;
    pairs.push((a, b));
    assert_eq!(pairs.len(), PAIRS);
    for (i, (a, b)) in pairs.iter().enumerate() {
        let what = format!("{} (tempo {tempo}) pair {i}", program.name);
        assert_contract(&c, a, b, compiled_key, seed + i as u64, &what);
    }
}

#[test]
fn compiled_protocol_keeps_the_idle_contract() {
    check_compiled(&leader_election(), 4, false, 0x1d1e_0001);
    check_compiled(&leader_election_exact(), 4, true, 0x1d1e_0002);
    check_compiled(&toy_program(true, true), 2, true, 0x1d1e_0003);
    check_compiled(&toy_program(false, false), 1, false, 0x1d1e_0004);
    check_compiled(&toy_program(false, true), 1, true, 0x1d1e_0005);
}

#[test]
fn clock_hierarchy_keeps_the_idle_contract() {
    let h = ClockHierarchy::new(Dk18Oscillator::new(), PairwiseElimination::new(), 2, 6, 12)
        .with_tempo(4);
    assert!((h.idle() - 0.25).abs() < 1e-15, "⅓·(1 − 1/4)");
    let mut pop = ObjPopulation::from_fn(&h, 40, |_| h.initial_agent());
    pop.run_rounds(300.0, &mut SimRng::seed_from(0x41e));
    let mut pairs = vec![
        (*pop.agent(0), *pop.agent(1)),
        (*pop.agent(2), *pop.agent(3)),
    ];
    // Level-0 phases equal and ≡ 0 (mod 4), triggers armed: the gated
    // level's rule 1 fires on top of every base thread.
    let (mut a, mut b) = (*pop.agent(4), *pop.agent(5));
    a.cur[0].phase = 4;
    b.cur[0].phase = 4;
    a.trig = u8::MAX;
    b.trig = u8::MAX;
    pairs.push((a, b));
    for (i, (a, b)) in pairs.iter().enumerate() {
        let what = format!("hierarchy (tempo 4) pair {i}");
        assert_contract(&h, a, b, |s| hier_key(0, s), 0x41e0 + i as u64, &what);
    }
}

/// A protocol with an idle share of 1/3: otherwise the pair either swaps
/// or the initiator copies a random step of the responder's value.
struct Churn;

impl Churn {
    fn active(a: u8, b: u8, rng: &mut SimRng) -> (u8, u8) {
        if rng.chance(0.5) {
            (b, a)
        } else {
            ((b + 1 + rng.index(2) as u8) % 4, b)
        }
    }
}

impl ObjProtocol for Churn {
    type State = u8;
    fn interact(&self, a: &u8, b: &u8, rng: &mut SimRng) -> (u8, u8) {
        if rng.index(3) == 0 {
            (*a, *b)
        } else {
            Self::active(*a, *b, rng)
        }
    }
    fn idle(&self) -> f64 {
        1.0 / 3.0
    }
    fn interact_active(&self, a: &u8, b: &u8, rng: &mut SimRng) -> (u8, u8) {
        Self::active(*a, *b, rng)
    }
}

/// [`Churn`] on the default hooks: every step runs `interact`.
struct Unthinned;

impl ObjProtocol for Unthinned {
    type State = u8;
    fn interact(&self, a: &u8, b: &u8, rng: &mut SimRng) -> (u8, u8) {
        Churn.interact(a, b, rng)
    }
}

#[test]
fn thinned_batches_match_unthinned_batches() {
    let init = |i: usize| u8::from(i < 4);
    let runs = 600u64;
    let mut hist = [[0u64; 21]; 2];
    for r in 0..runs {
        let mut thinned = ObjPopulation::from_fn(Churn, 20, init);
        let mut rng = SimRng::seed_from(0x7000 + r);
        thinned.step_batch(&mut rng, 15);
        thinned.step_batch(&mut rng, 1);
        thinned.step_batch(&mut rng, 24);
        assert_eq!(thinned.steps(), 40, "steps count idle steps too");
        hist[0][thinned.count_where(|&s| s == 0) as usize] += 1;

        let mut plain = ObjPopulation::from_fn(Unthinned, 20, init);
        plain.step_batch(&mut SimRng::seed_from(0x9000 + r), 40);
        hist[1][plain.count_where(|&s| s == 0) as usize] += 1;
    }
    let (stat, dof) = chi_square_two_sample(&hist[0], &hist[1]);
    let p = chi_square_p_value(stat, dof);
    assert!(
        p > FAMILY_ALPHA,
        "#state-0 after 40 steps: thinned vs unthinned (chi² = {stat:.2}, dof = {dof}, p = {p:.2e})"
    );
}

#[test]
fn clock_kernel_equals_the_reference_functions_on_every_input() {
    for k in 1..=85u8 {
        let kernel = ClockKernel::new(k, 4);
        for s in 0..3 * k {
            for species in [None, Some(0), Some(1), Some(2)] {
                assert_eq!(
                    kernel.observe(s, species),
                    detector_observe(s, k, species),
                    "k = {k}, s = {s}, species {species:?}"
                );
            }
        }
    }
    for m in 1..=252u8 {
        for depth in 1..=4u8 {
            let kernel = ClockKernel::new(1, m).with_consensus_depth(depth);
            for phase in 0..m {
                assert_eq!(kernel.tick(phase), ((phase as u16 + 1) % m as u16) as u8);
                for partner in 0..m {
                    for doubt in 0..depth {
                        assert_eq!(
                            kernel.consensus(phase, doubt, partner),
                            doubt_consensus(phase, doubt, partner, depth, m),
                            "m = {m}, depth = {depth}, phase {phase}, partner {partner}, doubt {doubt}"
                        );
                    }
                }
            }
        }
    }
}

/// FNV-1a over the little-endian bytes of `words`.
fn fnv1a(words: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// A protocol on the default hooks that draws from the stream on every
/// interaction.
struct Noisy;

impl ObjProtocol for Noisy {
    type State = u32;
    fn interact(&self, a: &u32, b: &u32, rng: &mut SimRng) -> (u32, u32) {
        if rng.chance(0.25) {
            (a.wrapping_add(*b) % 97, b ^ (rng.index(7) as u32))
        } else {
            (*b, *a)
        }
    }
}

#[test]
fn default_hook_population_replays_the_pinned_trajectory() {
    let mut pop = ObjPopulation::from_fn(Noisy, 50, |i| i as u32);
    let mut rng = SimRng::seed_from(0x0b1);
    pop.run_rounds(40.0, &mut rng);
    pop.step(&mut rng);
    pop.step_batch(&mut rng, 333);
    let mut words: Vec<u64> = pop.iter().map(|&s| u64::from(s)).collect();
    words.push(pop.steps());
    words.extend(rng.state_words());
    assert_eq!(fnv1a(&words), 0xfb70_c46b_a042_a512);
}

#[test]
fn tempo_one_hierarchy_replays_the_pinned_trajectory() {
    // E7's hierarchy: two levels, k = 6, m = 12, tempo 1.
    let h = ClockHierarchy::new(Dk18Oscillator::new(), PairwiseElimination::new(), 2, 6, 12);
    let n = 120;
    let mut pop = ObjPopulation::from_fn(&h, n, |_| h.initial_agent());
    let mut rng = SimRng::seed_from(0xe7);
    while pop.time() < 1500.0 {
        pop.step_batch(&mut rng, n as u64);
    }
    let mut words: Vec<u64> = Vec::new();
    for a in pop.iter() {
        words.push(u64::from(a.ctrl) | u64::from(a.trig) << 16);
        for l in a.cur.iter().chain(a.pending.iter()) {
            words.push(u64::from(level_word(l)));
        }
    }
    words.extend(rng.state_words());
    assert!(
        pop.iter().any(|a| a.cur[1] != ClockLevel::default()),
        "the gated level ran"
    );
    assert_eq!(fnv1a(&words), 0x7530_e538_7dca_6455);
}

/// The dense-packed `ControlledClock` (9 072 declared states) runs on the
/// sparse backend; its golden was recorded there before the count
/// backend's above-limit loop went.
#[test]
fn dense_clocks_on_the_kernel_replay_the_pinned_trajectories() {
    let clock = ControlledClock::new(Dk18Oscillator::new(), FixedX::new(), 6, 12);
    let mut pop = SparseCountPopulation::from_dense(&clock, &fixed_x_init(&clock, 3000, 20));
    let mut rng = SimRng::seed_from(0xcc);
    for _ in 0..200 {
        pop.step_batch(&mut rng, 3000);
    }
    let mut words = pop.counts();
    words.extend(rng.state_words());
    assert_eq!(fnv1a(&words), 0x8380_5fd7_8d17_5f95, "ControlledClock");
}
