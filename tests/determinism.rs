//! Replay determinism: the same `(seed, backend, protocol)` triple must
//! yield byte-identical trace, fault-event, and metrics output across two
//! runs, on every backend: the count backend under fault injection, the
//! sparse backend and the random-matching rounds without it; and a run of
//! the checkpointed backend, the count backend inside the fault wrapper,
//! interrupted and resumed from its snapshot must yield the same bytes as
//! the uninterrupted run.
//!
//! This is what makes injected-fault debugging workable: any incident from
//! a sweep or CI run replays exactly from its seed, fault RNG included.
//! Every run records into its own recorder, so the tests run in parallel.

use population_protocols::core::clocks::oscillator::{central_init, Dk18Oscillator};
use population_protocols::core::engine::collision::batch_len;
use population_protocols::core::engine::counts::{CountPopulation, SparseCountPopulation};
use population_protocols::core::engine::faults::{CorruptMode, FaultSpec, FaultyPopulation};
use population_protocols::core::engine::json::{to_jsonl, Json};
use population_protocols::core::engine::matching::MatchingPopulation;
use population_protocols::core::engine::metrics::MetricsReport;
use population_protocols::core::engine::protocol::{Protocol, RuleMasks, TableProtocol};
use population_protocols::core::engine::recorder::Recorder;
use population_protocols::core::engine::rng::SimRng;
use population_protocols::core::engine::sim::Simulator;
use population_protocols::core::engine::snapshot::RunSnapshot;

/// A run's deterministic artifacts: a JSONL trace of `(steps, counts)`
/// rows, the fault-event JSONL (empty without the fault wrapper), and the
/// rendered metrics snapshot.
type Artifacts = (String, String, String);

/// Rock-paper-scissors cycling: never silent, touches every state.
fn rps() -> TableProtocol {
    TableProtocol::new(3, "rps")
        .rule(0, 1, 0, 0)
        .rule(1, 2, 1, 1)
        .rule(2, 0, 2, 2)
}

/// [`rps`] with one rule slot per rule, so the sparse backend leaps on it:
/// slot `r` fires when an initiator in `r` meets a responder in `r + 1`
/// and converts the responder.
struct SlottedRps(TableProtocol);

impl Protocol for SlottedRps {
    fn num_states(&self) -> usize {
        3
    }
    fn interact(&self, a: usize, b: usize, rng: &mut SimRng) -> (usize, usize) {
        self.0.interact(a, b, rng)
    }
    fn is_reactive(&self, a: usize, b: usize) -> bool {
        self.0.is_reactive(a, b)
    }
    fn rule_masks(&self, state: usize) -> Option<RuleMasks> {
        let mut masks = RuleMasks::new(3);
        for r in 0..3 {
            let prey = state == (r + 1) % 3;
            masks.set(r, state == r, false, prey, prey);
        }
        Some(masks)
    }
}

/// Every interaction advances the initiator one step around a cycle of `k`
/// states: never silent, and once agents spread out nearly every state
/// stays occupied.
fn drift(k: usize) -> TableProtocol {
    let mut p = TableProtocol::new(k, "drift");
    for a in 0..k {
        for b in 0..k {
            p = p.rule(a, b, (a + 1) % k, b);
        }
    }
    p
}

/// States of the wide scenario: with 1–7 agents on each, the sparse backend
/// samples through ⌈300/32⌉ = 10 slot blocks.
const WIDE_STATES: usize = 300;

/// The wide scenario's start: state `s` holds `1 + s mod 7` agents
/// (n = 1 197).
fn wide_counts() -> Vec<u64> {
    (0..WIDE_STATES as u64).map(|s| 1 + s % 7).collect()
}

/// States the above-limit scenario declares: more than `CountPopulation`'s
/// limit of 1 024, which it refuses, so the scenario runs on the sparse
/// backend. Only three of them take part in rules.
const ABOVE_LIMIT_STATES: usize = 1_100;

/// [`rps`] declared over [`ABOVE_LIMIT_STATES`] states.
fn rps_above_limit() -> TableProtocol {
    TableProtocol::new(ABOVE_LIMIT_STATES, "rps-above-limit")
        .rule(0, 1, 0, 0)
        .rule(1, 2, 1, 1)
        .rule(2, 0, 2, 2)
}

/// A plan mixing all three injector kinds, compiled fresh per run.
fn spec() -> FaultSpec {
    FaultSpec::new(0xdead)
        .corrupt(4.0, 0.1, CorruptMode::Randomize)
        .churn(2.0, 0.05, 1)
        .byzantine(100, 0, 3.0)
}

/// One `(steps, counts)` trace row.
fn row_json(steps: u64, counts: &[u64]) -> Json {
    Json::obj([
        ("steps", Json::from(steps)),
        ("counts", Json::arr(counts.iter().copied().map(Json::from))),
    ])
}

/// Runs `pop` for `rounds` batches of `n` steps under a recorder of its
/// own, stopping at silence; the fault-event artifact is empty.
fn run_plain<S: Simulator>(pop: &mut S, seed: u64, n: u64, rounds: u64) -> Artifacts {
    let mut recorder = Recorder::new();
    let installed = recorder.install();
    let mut rng = SimRng::seed_from(seed);
    let mut rows = Vec::new();
    for _ in 0..rounds {
        let out = pop.step_batch(&mut rng, n);
        rows.push(row_json(pop.steps(), &pop.counts()));
        if out.silent && out.executed == 0 {
            break;
        }
    }
    drop(installed);
    let report = recorder.metrics().to_json().render();
    (to_jsonl(&rows), String::new(), report)
}

/// Runs `rounds` random-matching rounds under a recorder of their own;
/// the fault-event artifact is empty.
fn run_matching<P: Protocol>(mut pop: MatchingPopulation<P>, seed: u64, rounds: u64) -> Artifacts {
    let mut recorder = Recorder::new();
    let installed = recorder.install();
    let mut rng = SimRng::seed_from(seed);
    let mut rows = Vec::new();
    for _ in 0..rounds {
        pop.round(&mut rng);
        rows.push(row_json(pop.steps(), pop.counts()));
    }
    drop(installed);
    let report = recorder.metrics().to_json().render();
    (to_jsonl(&rows), String::new(), report)
}

/// Runs the count backend under the mixed fault plan for `rounds` rounds
/// and returns every deterministic artifact.
fn run_once<P: Protocol>(inner: CountPopulation<P>, seed: u64, n: u64, rounds: u64) -> Artifacts {
    let mut pop = FaultyPopulation::new(inner, &spec()).expect("valid spec");
    let (trace, _, report) = run_plain(&mut pop, seed, n, rounds);
    (trace, pop.events_jsonl(), report)
}

/// Runs the same scenario but "crashes" at round `cut`: checkpoints there
/// (counters attached, via the full on-disk text encoding), discards the
/// simulator and the recorder, then restores both into fresh ones —
/// exactly what `ppsim resume` does after a SIGKILL — and finishes the run.
/// The returned artifacts must be byte-identical to [`run_once`]'s.
fn run_interrupted<P: Protocol>(
    make: impl Fn() -> CountPopulation<P>,
    seed: u64,
    n: u64,
    rounds: u64,
    cut: u64,
) -> Artifacts {
    // Build before installing the recorder, matching `run_once`'s
    // call-site argument evaluation — construction-time counter bumps are
    // not part of the recorded run in either flow.
    let inner = make();
    let mut recorder = Recorder::new();
    let installed = recorder.install();
    let mut pop = FaultyPopulation::new(inner, &spec()).expect("valid spec");
    let mut rng = SimRng::seed_from(seed);
    let mut rows = Vec::new();
    for _ in 0..cut {
        let out = pop.step_batch(&mut rng, n);
        rows.push(row_json(pop.steps(), &pop.counts()));
        assert!(
            !(out.silent && out.executed == 0),
            "the scenarios never go silent"
        );
    }
    let text = RunSnapshot::capture(&pop, &rng).encode();
    // The "process" dies here: simulator and recorder both start over.
    drop(pop);
    drop(installed);
    let snap = RunSnapshot::decode(&text).expect("snapshot survives the disk round-trip");
    assert!(snap.metrics.is_some(), "capture attached the counters");
    let mut pop = FaultyPopulation::new(make(), &spec()).expect("valid spec");
    let mut recorder = Recorder::new();
    // The recorder is installed only after the restore, so restore-time
    // counter bumps (cache rebuilds) cannot reach it.
    let mut rng = snap
        .resume(&mut pop, &mut recorder)
        .expect("resume into a fresh simulator");
    let installed = recorder.install();
    for _ in cut..rounds {
        let out = pop.step_batch(&mut rng, n);
        rows.push(row_json(pop.steps(), &pop.counts()));
        if out.silent && out.executed == 0 {
            break;
        }
    }
    drop(installed);
    let report = recorder.metrics().to_json().render();
    (to_jsonl(&rows), pop.events_jsonl(), report)
}

/// The backends every scenario within the matching scheduler's state limit
/// replays: the count backend under the fault plan, the sparse backend and
/// the matching rounds without it.
const ALL_BACKENDS: &[&str] = &["counts", "sparse", "matching"];

/// Replays each of `backends` twice on one scenario and asserts byte
/// equality of trace, fault events, and metrics; `rounds` counts batches
/// of `n` steps, or matching rounds.
fn assert_replay_byte_identical(
    scenario: &str,
    backends: &[&str],
    p: &TableProtocol,
    counts: &[u64],
    seed: u64,
    rounds: u64,
) {
    let n: u64 = counts.iter().sum();
    for &backend in backends {
        let run = || match backend {
            "counts" => run_once(CountPopulation::from_counts(p, counts), seed, n, rounds),
            "sparse" => run_plain(
                &mut SparseCountPopulation::from_dense(p, counts),
                seed,
                n,
                rounds,
            ),
            "matching" => run_matching(MatchingPopulation::from_counts(p, counts), seed, rounds),
            _ => unreachable!("unknown backend"),
        };
        let (trace_a, events_a, metrics_a) = run();
        let (trace_b, events_b, metrics_b) = run();
        assert!(
            !trace_a.is_empty(),
            "{scenario}/{backend}: trace is non-trivial"
        );
        assert_eq!(
            events_a.is_empty(),
            backend != "counts",
            "{scenario}/{backend}: fault events fire on the count backend only"
        );
        assert_eq!(
            trace_a, trace_b,
            "{scenario}/{backend}: trace must replay exactly"
        );
        assert_eq!(
            events_a, events_b,
            "{scenario}/{backend}: fault events must replay exactly"
        );
        assert_eq!(
            metrics_a, metrics_b,
            "{scenario}/{backend}: metrics must replay exactly"
        );
    }
}

/// Interrupts the count backend at round `cut`, resumes from the
/// checkpoint, and asserts the continued run's trace, fault events, and
/// metrics are byte-identical to the uninterrupted run's.
fn assert_interrupt_resume_byte_identical(
    scenario: &str,
    p: &TableProtocol,
    counts: &[u64],
    seed: u64,
    rounds: u64,
    cut: u64,
) {
    let n: u64 = counts.iter().sum();
    let make = || CountPopulation::from_counts(p, counts);
    let full = run_once(make(), seed, n, rounds);
    let resumed = run_interrupted(make, seed, n, rounds, cut);
    assert_eq!(
        full.0, resumed.0,
        "{scenario}: resumed trace must be byte-identical"
    );
    assert_eq!(
        full.1, resumed.1,
        "{scenario}: resumed fault events must be byte-identical"
    );
    assert_eq!(
        full.2, resumed.2,
        "{scenario}: resumed metrics must be byte-identical"
    );
}

/// Runs the enumeration-compiled executor (dense live-state ids +
/// `RuleTableProtocol` tables on `SparseCountPopulation`) twice with the
/// same seed and asserts the full artifact — per-state counts, rounds, and
/// iterations — replays byte-identically once rendered.
fn assert_enumerated_replay_byte_identical(seed: u64) {
    use population_protocols::core::lang::enumerate::EnumExecutor;
    use population_protocols::core::protocols::plurality::plurality;

    let program = plurality(3, 2);
    let c: Vec<_> = (1..=3)
        .map(|i| program.vars.get(&format!("C{i}")).unwrap())
        .collect();
    let groups = [(vec![c[0]], 30u64), (vec![c[1]], 40), (vec![c[2]], 30)];
    let run = || {
        let mut exec =
            EnumExecutor::new(&program, &groups, seed).expect("enumeration compiles plurality");
        exec.run_iteration();
        exec.run_iteration();
        let rows = [Json::obj([
            ("rounds", Json::from(exec.rounds())),
            ("iterations", Json::from(exec.iterations())),
            (
                "counts",
                Json::arr(exec.counts().iter().copied().map(Json::from)),
            ),
        ])];
        to_jsonl(&rows)
    };
    let a = run();
    let b = run();
    assert!(!a.is_empty(), "enumerated: trace is non-trivial");
    assert_eq!(a, b, "enumerated: compiled run must replay exactly");
}

// Sparse-ish scenario: n = 1000 keeps the count backends on the
// geometric-leap path.
const LEAP: &[u64] = &[400, 300, 300];
// Reactive-dense scenario: at n = 4000 the count backends route their
// batches through the collision-epoch path, so this pins that fault
// triggers split contingency-table batches deterministically (epoch
// truncation at the trigger boundary included).
const DENSE: &[u64] = &[1_600, 1_200, 1_200];

#[test]
fn leap_replay_is_byte_identical() {
    assert_replay_byte_identical("leap", ALL_BACKENDS, &rps(), LEAP, 2718, 12);
}

#[test]
fn dense_replay_is_byte_identical() {
    assert_replay_byte_identical("dense", ALL_BACKENDS, &rps(), DENSE, 3141, 12);
}

// Wide scenario: hundreds of occupied states, so the sparse backend's
// block sums are maintained through swap-removes across blocks.
#[test]
fn wide_replay_is_byte_identical() {
    assert_replay_byte_identical(
        "wide",
        ALL_BACKENDS,
        &drift(WIDE_STATES),
        &wide_counts(),
        1414,
        12,
    );
}

// Above-limit scenario: rock-paper-scissors declared over 1 100 states.
// The count backend refuses protocols above the limit at its first draw
// and the matching scheduler at construction, so the sparse backend runs
// it alone.
const ABOVE_LIMIT: &[u64] = &[400, 300, 300];

#[test]
fn above_limit_replay_is_byte_identical() {
    assert_replay_byte_identical(
        "above-limit",
        &["sparse"],
        &rps_above_limit(),
        ABOVE_LIMIT,
        1732,
        12,
    );
}

// Crash-and-resume at a mid-run checkpoint of the count backend must be
// invisible in every artifact, on every dispatch regime. The cut lands
// after fault triggers have partially fired, so trigger progress, the
// event log, and the recorder's counters all ride through the snapshot.

#[test]
fn leap_resume_is_byte_identical() {
    assert_interrupt_resume_byte_identical("leap", &rps(), LEAP, 2718, 12, 7);
}

#[test]
fn dense_resume_is_byte_identical() {
    assert_interrupt_resume_byte_identical("dense", &rps(), DENSE, 3141, 12, 5);
}

#[test]
fn wide_resume_is_byte_identical() {
    let p = drift(WIDE_STATES);
    assert_interrupt_resume_byte_identical("wide", &p, &wide_counts(), 1414, 12, 6);
}

/// Replay while the sparse backend switches regime: rock-paper-scissors
/// (with rule masks) from an uneven start (n = 1 000, about 23% of pairs
/// reactive) leaps, and steps while the rotation evens the species out
/// past the dispatch threshold. Two runs must agree byte for byte across
/// those switches.
#[test]
fn sparse_leap_replay_is_byte_identical() {
    let p = SlottedRps(rps());
    let counts = [700, 200, 100];
    let run = || {
        run_plain(
            &mut SparseCountPopulation::from_dense(&p, &counts),
            2024,
            1_000,
            12,
        )
    };
    let (trace_a, _, metrics_a) = run();
    let (trace_b, _, metrics_b) = run();
    assert_eq!(trace_a, trace_b, "sparse leap: trace must replay exactly");
    assert_eq!(
        metrics_a, metrics_b,
        "sparse leap: metrics must replay exactly"
    );
    let report = MetricsReport::parse(&metrics_a).expect("metrics parse");
    assert!(report.counter("noop_leaps") > 0, "the run leapt");
    assert!(
        report.counter("reactive_dense_steps") > 0,
        "the run stepped"
    );
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

/// FNV-1a of the wide run's final dense counts under the linear-scan sampler.
const GOLDEN_HASH: u64 = 0xbcbf_df55_fafd_fea0;

/// The generator's state words at the end of that run.
const GOLDEN_RNG: [u64; 4] = [
    0xa5ad_6655_a2c2_5eb1,
    0x0db5_9047_db20_0226,
    0xdb04_fb23_d5c2_746a,
    0x4d44_e596_16a8_ec7f,
];

/// Pins the sparse backend's trajectory at wide occupancy: the final
/// counts and generator state after four rounds must equal those of the
/// single-level linear-scan sampler, recorded from it. Replay tests only
/// compare a sampler with itself; this one fails for any sampler whose
/// rank → state map or RNG consumption differs.
#[test]
fn sparse_wide_trajectory_matches_pinned_golden() {
    let p = drift(WIDE_STATES);
    let counts = wide_counts();
    let n: u64 = counts.iter().sum();
    let mut pop = SparseCountPopulation::from_dense(&p, &counts);
    let mut rng = SimRng::seed_from(0x60_1de2);
    for _ in 0..4 {
        pop.step_batch(&mut rng, n);
    }
    assert!(pop.occupied_states() >= 200, "occupancy stays wide");
    assert_eq!(fnv1a(&pop.counts()), GOLDEN_HASH);
    assert_eq!(rng.state_words(), GOLDEN_RNG);
}

/// FNV-1a of the dense DK18 run's final counts under multibatch collision
/// epochs and the ratio-of-uniforms and bit-parallel samplers.
const DENSE_GOLDEN_HASH: u64 = 0xa23a_7309_3172_b974;

/// The generator's state words at the end of that run.
const DENSE_GOLDEN_RNG: [u64; 4] = [
    0x834e_1e13_6f40_6756,
    0x162e_72b6_9b65_b839,
    0x10a0_e069_55eb_2075,
    0x5f9b_0097_1ff8_2687,
];

/// Pins the dense count backend's trajectory: DK18 at n = 10⁵ settles its
/// rounds in multibatch collision epochs, whose free runs invert the run
/// table, whose margin and row hypergeometrics take the ratio-of-uniforms
/// path and whose per-cell binomial splits take the bit-parallel lanes.
/// The final counts and generator state after three rounds must equal
/// those recorded with this engine, so any change to a batch's or a
/// sampler's draw order or RNG consumption fails here, while the replay
/// tests above only compare a run with itself. The values were re-recorded
/// when batches began to run past their collisions, after the exact
/// transient oracle (`tests/exact_transient.rs`) passed.
#[test]
fn dense_oscillator_trajectory_matches_pinned_golden() {
    let n = 100_000u64;
    let osc = Dk18Oscillator::new();
    let mut pop = CountPopulation::from_counts(&osc, &central_init(&osc, n, 31));
    let mut rng = SimRng::seed_from(0xd18);
    let mut recorder = Recorder::new();
    {
        let _installed = recorder.install();
        for _ in 0..3 {
            pop.step_batch(&mut rng, n);
        }
    }
    // Every interaction of the three rounds is settled by collision
    // batches, each at most batch_len(n, 7) = 837 long: ≥ 359 batches.
    let metrics = recorder.metrics();
    let epochs = metrics.counter("collision_epochs");
    assert_eq!(metrics.counter("collision_batched_steps"), 3 * n);
    let floor = (3 * n).div_ceil(batch_len(n, osc.num_states()));
    assert!(
        epochs >= floor,
        "only {epochs} collision epochs, need {floor}"
    );
    assert_eq!(pop.steps(), 3 * n);
    assert_eq!(fnv1a(&pop.counts()), DENSE_GOLDEN_HASH);
    assert_eq!(rng.state_words(), DENSE_GOLDEN_RNG);
}

/// `CountPopulation` builds above its state limit, but refuses its first
/// draw, `step` or `step_batch`, and names the sparse backend.
#[test]
fn above_limit_count_backend_refuses_its_first_draw() {
    let p = rps_above_limit();
    let draws: [fn(&mut CountPopulation<&TableProtocol>, &mut SimRng); 2] = [
        |pop, rng| {
            pop.step(rng);
        },
        |pop, rng| {
            pop.step_batch(rng, 1_000);
        },
    ];
    for draw in draws {
        let mut pop = CountPopulation::from_counts(&p, ABOVE_LIMIT);
        let mut rng = SimRng::seed_from(1);
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            draw(&mut pop, &mut rng);
        }))
        .expect_err("a draw above the limit must panic");
        let message = refused.downcast_ref::<String>().map_or("", String::as_str);
        assert!(message.contains("SparseCountPopulation"), "{message}");
        assert!(message.contains("1100"), "{message}");
        assert_eq!(pop.steps(), 0);
    }
}

/// The enumeration backend (analyzer-guided live-state compilation) must
/// replay exactly too: same seed, same compiled tables, same artifact.
#[test]
fn enumerated_replay_is_byte_identical() {
    assert_enumerated_replay_byte_identical(1618);
}

/// Runs the interpreter on `program` for `iterations` good iterations
/// and returns the FNV-1a of its final dense counts and its rounds.
fn interpreted_run(
    program: &population_protocols::core::lang::ast::Program,
    groups: &[(Vec<population_protocols::core::rules::Var>, u64)],
    seed: u64,
    iterations: u64,
) -> (u64, f64) {
    use population_protocols::core::lang::interp::Executor;
    let mut exec = Executor::new(program, groups, seed);
    for _ in 0..iterations {
        exec.run_iteration();
    }
    (fnv1a(exec.counts()), exec.rounds())
}

/// Pins the interpreter's trajectories on two programs whose nominal
/// state spaces exceed 4 096 states (exact-three plurality, the exact
/// semilinear comparison): their `execute` sites ran on the sparse
/// backend before the dense site path was removed, and must still end on
/// the same counts after the same rounds. The exact-three counts were
/// re-recorded when the leap began to draw its rule slot, initiator and
/// responder from one rank (slot-sampled leaps); both were re-recorded
/// when their sites began to run one population per independent thread
/// component (factored sites), which draws differently from the same law.
#[test]
fn wide_program_sites_match_pinned_golden() {
    use population_protocols::core::protocols::plurality::plurality_exact_three;
    use population_protocols::core::protocols::semilinear::semilinear_comparison_exact;

    let program = plurality_exact_three();
    let c: Vec<_> = (1..=3)
        .map(|i| program.vars.get(&format!("C{i}")).unwrap())
        .collect();
    let groups = [(vec![c[0]], 22u64), (vec![c[1]], 20), (vec![c[2]], 18)];
    assert_eq!(
        interpreted_run(&program, &groups, 0x5eed_0003, 2),
        (0xbe64_94c2_3731_8665, 147.396_404_239_995_6)
    );

    let program = semilinear_comparison_exact(1);
    let a = program.vars.get("A").unwrap();
    let b = program.vars.get("B").unwrap();
    let groups = [(vec![a], 26u64), (vec![b], 26), (vec![], 8)];
    assert_eq!(
        interpreted_run(&program, &groups, 0x5eed_0021, 1),
        (0xdfc4_cd4c_2140_9d25, 171.962_471_613_328_26)
    );
}
