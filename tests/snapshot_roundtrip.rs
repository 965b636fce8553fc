//! Snapshot/restore round-trips: every backend checkpointed at arbitrary
//! batch boundaries must continue exactly as if never interrupted, the
//! on-disk format must reject any corruption, and a resilient-sweep task
//! must resume from its per-task checkpoint store after a crash.
//!
//! These tests install no recorder: metrics-stream equality across an
//! interrupt is pinned by `tests/determinism.rs`.

use population_protocols::core::engine::counts::{CountPopulation, SparseCountPopulation};
use population_protocols::core::engine::faults::{CorruptMode, FaultSpec, FaultyPopulation};
use population_protocols::core::engine::json::Json;
use population_protocols::core::engine::matching::MatchingPopulation;
use population_protocols::core::engine::population::Population;
use population_protocols::core::engine::protocol::TableProtocol;
use population_protocols::core::engine::rng::SimRng;
use population_protocols::core::engine::sim::Simulator;
use population_protocols::core::engine::snapshot::{hex_u64, parse_hex_u64, RunSnapshot};
use population_protocols::core::engine::sweep::{
    run_indexed_resilient, ResiliencePolicy, TaskCtx, TaskResult,
};
use std::time::Duration;

/// Rock-paper-scissors cycling: never silent, touches every state.
fn rps() -> TableProtocol {
    TableProtocol::new(3, "rps")
        .rule(0, 1, 0, 0)
        .rule(1, 2, 1, 1)
        .rule(2, 0, 2, 2)
}

/// Drives `original` to a cut point, snapshots it through the full on-disk
/// text encoding, restores into `fresh`, then runs both simulators side by
/// side to the horizon asserting identical counts and step counters after
/// every batch — the observable definition of "resume is exact".
fn assert_roundtrip_exact<S: Simulator>(
    backend: &str,
    mut original: S,
    mut fresh: S,
    seed: u64,
    n: u64,
    cut_batches: u64,
    tail_batches: u64,
) {
    let mut rng = SimRng::seed_from(seed);
    for _ in 0..cut_batches {
        original.step_batch(&mut rng, n);
    }
    let snap = RunSnapshot::capture(&original, &rng)
        .unwrap_or_else(|e| panic!("{backend}: snapshot at a batch boundary: {e}"));
    let decoded = RunSnapshot::decode(&snap.encode())
        .unwrap_or_else(|e| panic!("{backend}: encode/decode round-trip: {e}"));
    assert_eq!(decoded.backend, backend, "snapshot records its backend tag");
    let mut resumed_rng = decoded
        .resume_into(&mut fresh)
        .unwrap_or_else(|e| panic!("{backend}: restore into a fresh simulator: {e}"));
    assert_eq!(
        fresh.counts(),
        original.counts(),
        "{backend}: restored counts match at the cut"
    );
    assert_eq!(
        fresh.steps(),
        original.steps(),
        "{backend}: restored step counter matches at the cut"
    );
    for batch in 0..tail_batches {
        original.step_batch(&mut rng, n);
        fresh.step_batch(&mut resumed_rng, n);
        assert_eq!(
            fresh.counts(),
            original.counts(),
            "{backend}: counts diverge {batch} batches after resume"
        );
        assert_eq!(
            fresh.steps(),
            original.steps(),
            "{backend}: step counters diverge {batch} batches after resume"
        );
    }
}

#[test]
fn every_backend_roundtrips_at_random_batch_boundaries() {
    let counts = [500u64, 300, 200];
    let n: u64 = counts.iter().sum();
    // Deterministically "random" cut points, different per backend and per
    // repetition, covering cut-at-zero as well as deep cuts.
    let mut picker = SimRng::seed_from(0x5eed_cafe);
    for rep in 0..4u64 {
        let cut = picker.below(9);
        let tail = 1 + picker.below(6);
        let seed = 0x1000 + rep;
        let p = rps();
        assert_roundtrip_exact(
            "agents",
            Population::from_counts(&p, &counts),
            Population::from_counts(&p, &counts),
            seed,
            n,
            cut,
            tail,
        );
        assert_roundtrip_exact(
            "counts",
            CountPopulation::from_counts(&p, &counts),
            CountPopulation::from_counts(&p, &counts),
            seed,
            n,
            cut,
            tail,
        );
        assert_roundtrip_exact(
            "sparse",
            SparseCountPopulation::from_dense(&p, &counts),
            SparseCountPopulation::from_dense(&p, &counts),
            seed,
            n,
            cut,
            tail,
        );
        assert_roundtrip_exact(
            "matching",
            MatchingPopulation::from_counts(&p, &counts),
            MatchingPopulation::from_counts(&p, &counts),
            seed,
            n,
            cut,
            tail,
        );
    }
}

/// A plan mixing all three injector kinds.
fn mixed_spec() -> FaultSpec {
    FaultSpec::new(0xfa11)
        .corrupt(3.0, 0.1, CorruptMode::Randomize)
        .churn(2.0, 0.05, 1)
        .byzantine(80, 0, 4.0)
}

#[test]
fn faulty_wrapper_roundtrips_with_a_mixed_fault_plan() {
    let counts = [500u64, 300, 200];
    let n: u64 = counts.iter().sum();
    let spec = mixed_spec();
    let p = rps();
    let make = || {
        FaultyPopulation::new(CountPopulation::from_counts(&p, &counts), &spec)
            .expect("valid mixed spec")
    };
    // Cut deep enough that corrupt/churn/byzantine triggers have partially
    // fired, so trigger progress and the fault event log must round-trip.
    assert_roundtrip_exact("faulty", make(), make(), 0xfee1, n, 7, 5);

    // The restored event log itself must match, not just future behavior.
    let mut original = make();
    let mut rng = SimRng::seed_from(0xfee1);
    for _ in 0..7 {
        original.step_batch(&mut rng, n);
    }
    assert!(
        !original.events().is_empty(),
        "the cut must land after injections fired"
    );
    let snap = RunSnapshot::capture(&original, &rng).expect("snapshot");
    let mut fresh = make();
    snap.resume_into(&mut fresh).expect("restore");
    assert_eq!(
        fresh.events_jsonl(),
        original.events_jsonl(),
        "restored fault-event log is byte-identical"
    );
}

#[test]
fn truncated_snapshots_are_rejected_at_every_length() {
    let p = rps();
    let mut pop = CountPopulation::from_counts(&p, &[400, 300, 300]);
    let mut rng = SimRng::seed_from(9);
    pop.step_batch(&mut rng, 1_000);
    let text = RunSnapshot::capture(&pop, &rng)
        .expect("snapshot")
        .with_meta(Json::obj([("round", hex_u64(1))]))
        .encode();
    assert!(RunSnapshot::decode(&text).is_ok());
    for len in 0..text.len() {
        assert!(
            RunSnapshot::decode(&text[..len]).is_err(),
            "truncation to {len} bytes must be rejected"
        );
    }
}

#[test]
fn bit_flipped_snapshots_are_rejected_by_the_checksum() {
    let p = rps();
    let mut pop = SparseCountPopulation::from_dense(&p, &[400, 300, 300]);
    let mut rng = SimRng::seed_from(10);
    pop.step_batch(&mut rng, 1_000);
    let text = RunSnapshot::capture(&pop, &rng).expect("snapshot").encode();
    let bytes = text.as_bytes();
    let mut fuzz = SimRng::seed_from(0xb17_f11b);
    for _ in 0..200 {
        let pos = fuzz.below(bytes.len() as u64) as usize;
        let bit = 1u8 << fuzz.below(8);
        let mut flipped = bytes.to_vec();
        flipped[pos] ^= bit;
        if flipped == bytes {
            continue;
        }
        // A flip may break UTF-8, JSON syntax, a validity check, or only
        // the payload bytes — the checksum backstops that last case; all
        // of them must surface as a decode error, never a wrong resume.
        let decoded = String::from_utf8(flipped)
            .map_err(|e| e.to_string())
            .and_then(|s| RunSnapshot::decode(&s));
        assert!(
            decoded.is_err(),
            "bit flip at byte {pos} (mask {bit:#04x}) must be rejected"
        );
    }
}

/// Epidemic protocol for the sweep test: short, always progressing.
fn epidemic() -> TableProtocol {
    TableProtocol::new(2, "epidemic")
        .rule(1, 0, 1, 1)
        .rule(0, 1, 1, 1)
}

#[test]
fn sweep_task_resumes_from_its_checkpoint_store_after_a_crash() {
    let root = std::env::temp_dir().join(format!(
        "pp_sweep_resume_{}_{:x}",
        std::process::id(),
        0x51eeu64
    ));
    let _ = std::fs::remove_dir_all(&root);
    let policy = ResiliencePolicy {
        deadline: Duration::from_secs(30),
        retries: 1,
        backoff: Duration::from_millis(1),
        checkpoint_dir: Some(root.clone()),
        checkpoint_keep: 2,
    };
    let total_rounds = 6u64;
    let run_task = move |index: usize, attempt: u32, store_ctx: Option<&TaskCtx>| -> Vec<u64> {
        let p = epidemic();
        let mut pop = CountPopulation::from_counts(&p, &[900, 100]);
        let mut rng = SimRng::seed_from(7 + index as u64);
        let mut round = 0u64;
        if let Some(ctx) = store_ctx {
            let store = ctx
                .checkpoint_store()
                .expect("store opens")
                .expect("policy configured a checkpoint dir");
            if attempt > 0 {
                // Retry: resume from the last good snapshot instead of
                // restarting from round 0.
                let (found, incidents) = store.load_latest();
                assert!(
                    incidents.is_empty(),
                    "no corruption expected: {incidents:?}"
                );
                let (_gen, _path, snap) = found.expect("attempt 0 left snapshots behind");
                rng = snap.resume_into(&mut pop).expect("resume");
                round = parse_hex_u64(snap.meta.get("round").expect("round in meta"))
                    .expect("valid round");
                assert!(round >= 3, "the crash happened at round 3");
            }
            let mut store = store;
            while round < total_rounds {
                pop.step_batch(&mut rng, 1_000);
                round += 1;
                let snap = RunSnapshot::capture(&pop, &rng)
                    .expect("snapshot")
                    .with_meta(Json::obj([("round", hex_u64(round))]));
                store.save(&snap).expect("checkpoint save");
                if index == 1 && attempt == 0 && round == 3 {
                    panic!("injected mid-run crash after the round-3 checkpoint");
                }
            }
        } else {
            // Reference path (no sweep context): uninterrupted run.
            while round < total_rounds {
                pop.step_batch(&mut rng, 1_000);
                round += 1;
            }
        }
        pop.counts()
    };

    let reference = run_task(1, 0, None);
    let task = run_task;
    let (results, incidents) = run_indexed_resilient(3, 2, policy, move |ctx| {
        task(ctx.index, ctx.attempt, Some(ctx))
    });

    assert_eq!(results.len(), 3);
    match &results[1] {
        TaskResult::Ok(counts) => assert_eq!(
            counts, &reference,
            "the resumed task finishes with the exact uninterrupted result"
        ),
        other => panic!("task 1 must complete on retry, got {other:?}"),
    }
    for (i, r) in results.iter().enumerate() {
        assert!(matches!(r, TaskResult::Ok(_)), "slot {i} completes: {r:?}");
    }
    let panics: Vec<_> = incidents.iter().filter(|i| i.cause == "panic").collect();
    assert_eq!(panics.len(), 1, "exactly one crash incident: {incidents:?}");
    assert_eq!(panics[0].index, 1);
    assert_eq!(panics[0].attempt, 0);
    assert!(
        panics[0].backoff_s > 0.0,
        "a retry is pending, so the incident records its backoff"
    );
    let _ = std::fs::remove_dir_all(&root);
}
