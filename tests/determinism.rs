//! Replay determinism: the same `(seed, backend, protocol)` triple must
//! yield byte-identical trace, fault-event, and metrics output across two
//! runs, for all four backends under fault injection.
//!
//! This is what makes injected-fault debugging workable: any incident from
//! a sweep or CI run replays exactly from its seed, fault RNG included.
//! Every run records into its own recorder, so the tests run in parallel.

use population_protocols::core::engine::counts::{CountPopulation, SparseCountPopulation};
use population_protocols::core::engine::faults::{CorruptMode, FaultSpec, FaultyPopulation};
use population_protocols::core::engine::json::{to_jsonl, Json};
use population_protocols::core::engine::matching::MatchingPopulation;
use population_protocols::core::engine::population::Population;
use population_protocols::core::engine::protocol::TableProtocol;
use population_protocols::core::engine::recorder::Recorder;
use population_protocols::core::engine::rng::SimRng;
use population_protocols::core::engine::sim::Simulator;
use population_protocols::core::engine::snapshot::RunSnapshot;

/// Rock-paper-scissors cycling: never silent, touches every state.
fn rps() -> TableProtocol {
    TableProtocol::new(3, "rps")
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
fn row_json<S: Simulator + ?Sized>(pop: &S) -> Json {
    Json::obj([
        ("steps", Json::from(pop.steps())),
        (
            "counts",
            Json::arr(pop.counts().into_iter().map(Json::from)),
        ),
    ])
}

/// Runs a faulty population for `rounds` rounds and returns every
/// deterministic artifact: a JSONL trace of `(steps, counts)` rows, the
/// fault-event JSONL, and the rendered metrics snapshot.
fn run_once<S: Simulator>(inner: S, seed: u64, n: u64, rounds: u64) -> (String, String, String) {
    let mut recorder = Recorder::new();
    let installed = recorder.install();
    let mut pop = FaultyPopulation::new(inner, &spec()).expect("valid spec");
    let mut rng = SimRng::seed_from(seed);
    let mut rows = Vec::new();
    for _ in 0..rounds {
        let out = pop.step_batch(&mut rng, n);
        rows.push(row_json(&pop));
        if out.silent && out.executed == 0 {
            break;
        }
    }
    drop(installed);
    let report = recorder.metrics().to_json().render();
    (to_jsonl(&rows), pop.events_jsonl(), report)
}

/// Runs the same scenario but "crashes" at round `cut`: checkpoints there
/// (counters attached, via the full on-disk text encoding), discards the
/// simulator and the recorder, then restores both into fresh ones —
/// exactly what `ppsim resume` does after a SIGKILL — and finishes the run.
/// The returned artifacts must be byte-identical to [`run_once`]'s.
fn run_interrupted<S: Simulator>(
    make: impl Fn() -> S,
    seed: u64,
    n: u64,
    rounds: u64,
    cut: u64,
) -> (String, String, String) {
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
        rows.push(row_json(&pop));
        assert!(!(out.silent && out.executed == 0), "rps never goes silent");
    }
    let text = RunSnapshot::capture(&pop, &rng)
        .expect("faulty wrapper snapshots")
        .encode();
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
        rows.push(row_json(&pop));
        if out.silent && out.executed == 0 {
            break;
        }
    }
    drop(installed);
    let report = recorder.metrics().to_json().render();
    (to_jsonl(&rows), pop.events_jsonl(), report)
}

/// Replays every backend twice on one scenario and asserts byte equality
/// of trace, fault events, and metrics.
fn assert_replay_byte_identical(scenario: &str, counts: &[u64], seed: u64, rounds: u64) {
    let n: u64 = counts.iter().sum();
    let backends: &[&str] = &["agents", "counts", "sparse", "matching"];
    for &backend in backends {
        let run = || {
            let p = rps();
            match backend {
                "agents" => run_once(Population::from_counts(&p, counts), seed, n, rounds),
                "counts" => run_once(CountPopulation::from_counts(&p, counts), seed, n, rounds),
                "sparse" => run_once(
                    SparseCountPopulation::from_dense(&p, counts),
                    seed,
                    n,
                    rounds,
                ),
                "matching" => {
                    run_once(MatchingPopulation::from_counts(&p, counts), seed, n, rounds)
                }
                _ => unreachable!("unknown backend"),
            }
        };
        let (trace_a, events_a, metrics_a) = run();
        let (trace_b, events_b, metrics_b) = run();
        assert!(
            !trace_a.is_empty(),
            "{scenario}/{backend}: trace is non-trivial"
        );
        assert!(
            !events_a.is_empty(),
            "{scenario}/{backend}: fault events actually fired"
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

/// Interrupts every backend at round `cut`, resumes from the checkpoint,
/// and asserts the continued run's trace, fault events, and metrics are
/// byte-identical to the uninterrupted run's.
fn assert_interrupt_resume_byte_identical(
    scenario: &str,
    counts: &[u64],
    seed: u64,
    rounds: u64,
    cut: u64,
) {
    let n: u64 = counts.iter().sum();
    let backends: &[&str] = &["agents", "counts", "sparse", "matching"];
    for &backend in backends {
        let p = rps();
        let full = match backend {
            "agents" => run_once(Population::from_counts(&p, counts), seed, n, rounds),
            "counts" => run_once(CountPopulation::from_counts(&p, counts), seed, n, rounds),
            "sparse" => run_once(
                SparseCountPopulation::from_dense(&p, counts),
                seed,
                n,
                rounds,
            ),
            "matching" => run_once(MatchingPopulation::from_counts(&p, counts), seed, n, rounds),
            _ => unreachable!("unknown backend"),
        };
        let resumed = match backend {
            "agents" => {
                run_interrupted(|| Population::from_counts(&p, counts), seed, n, rounds, cut)
            }
            "counts" => run_interrupted(
                || CountPopulation::from_counts(&p, counts),
                seed,
                n,
                rounds,
                cut,
            ),
            "sparse" => run_interrupted(
                || SparseCountPopulation::from_dense(&p, counts),
                seed,
                n,
                rounds,
                cut,
            ),
            "matching" => run_interrupted(
                || MatchingPopulation::from_counts(&p, counts),
                seed,
                n,
                rounds,
                cut,
            ),
            _ => unreachable!("unknown backend"),
        };
        assert_eq!(
            full.0, resumed.0,
            "{scenario}/{backend}: resumed trace must be byte-identical"
        );
        assert_eq!(
            full.1, resumed.1,
            "{scenario}/{backend}: resumed fault events must be byte-identical"
        );
        assert_eq!(
            full.2, resumed.2,
            "{scenario}/{backend}: resumed metrics must be byte-identical"
        );
    }
}

/// Runs the enumeration-compiled executor (dense live-state ids +
/// `RuleTableProtocol` tables batched on `CountPopulation`) twice with the
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
    assert_replay_byte_identical("leap", LEAP, 2718, 12);
}

#[test]
fn dense_replay_is_byte_identical() {
    assert_replay_byte_identical("dense", DENSE, 3141, 12);
}

// Crash-and-resume at a mid-run checkpoint must be invisible in every
// artifact, on both dispatch regimes. The cut lands after fault triggers
// have partially fired, so trigger progress, the event log, and the
// recorder's counters all ride through the snapshot.

#[test]
fn leap_resume_is_byte_identical() {
    assert_interrupt_resume_byte_identical("leap", LEAP, 2718, 12, 7);
}

#[test]
fn dense_resume_is_byte_identical() {
    assert_interrupt_resume_byte_identical("dense", DENSE, 3141, 12, 5);
}

/// The enumeration backend (analyzer-guided live-state compilation) must
/// replay exactly too: same seed, same compiled tables, same artifact.
#[test]
fn enumerated_replay_is_byte_identical() {
    assert_enumerated_replay_byte_identical(1618);
}
