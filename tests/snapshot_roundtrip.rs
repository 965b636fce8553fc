//! Snapshot/restore round-trips: the checkpointed backends (the count
//! backend, alone and inside the fault wrapper) snapshotted at arbitrary
//! batch boundaries must continue exactly as if never interrupted, and the
//! on-disk format must reject any corruption. No other backend implements
//! `Checkpoint`, so none can be captured (a `compile_fail` doctest of
//! `RunSnapshot::capture` shows it for the sparse backend).
//!
//! These tests install no recorder: metrics-stream equality across an
//! interrupt is pinned by `tests/determinism.rs`.

use population_protocols::engine::counts::CountPopulation;
use population_protocols::engine::faults::{CorruptMode, FaultSpec, FaultyPopulation};
use population_protocols::engine::json::Json;
use population_protocols::engine::protocol::TableProtocol;
use population_protocols::engine::rng::SimRng;
use population_protocols::engine::sim::Simulator;
use population_protocols::engine::snapshot::{hex_u64, Checkpoint, RunSnapshot};

/// Rock-paper-scissors cycling: never silent, touches every state.
fn rps() -> TableProtocol {
    TableProtocol::new(3, "rps")
        .rule(0, 1, 0, 0)
        .rule(1, 2, 1, 1)
        .rule(2, 0, 2, 2)
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

/// Drives `original` to a cut point, snapshots it through the full on-disk
/// text encoding, restores into `fresh`, then runs both simulators side by
/// side to the horizon asserting identical counts and step counters after
/// every batch — the observable definition of "resume is exact".
fn assert_roundtrip_exact<S: Checkpoint>(
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
    let snap = RunSnapshot::capture(&original, &rng);
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

/// Both checkpointed backends, at deterministically "random" cut points
/// that differ per repetition and cover cut-at-zero as well as deep cuts.
#[test]
fn every_backend_roundtrips_at_random_batch_boundaries() {
    let counts = [500u64, 300, 200];
    let n: u64 = counts.iter().sum();
    // Wide input: 300 occupied states of 1–7 agents.
    let wide_p = drift(300);
    let wide: Vec<u64> = (0..300).map(|s| 1 + s % 7).collect();
    let wide_n: u64 = wide.iter().sum();
    let spec = mixed_spec();
    let mut picker = SimRng::seed_from(0x5eed_cafe);
    for rep in 0..4u64 {
        let cut = picker.below(9);
        let tail = 1 + picker.below(6);
        let seed = 0x1000 + rep;
        let p = rps();
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
            "counts",
            CountPopulation::from_counts(&wide_p, &wide),
            CountPopulation::from_counts(&wide_p, &wide),
            seed,
            wide_n,
            cut,
            tail,
        );
        let faulty = || {
            FaultyPopulation::new(CountPopulation::from_counts(&p, &counts), &spec)
                .expect("valid mixed spec")
        };
        assert_roundtrip_exact("faulty", faulty(), faulty(), seed, n, cut, tail);
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
    let snap = RunSnapshot::capture(&original, &rng);
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
    let mut pop = FaultyPopulation::new(
        CountPopulation::from_counts(&p, &[400, 300, 300]),
        &mixed_spec(),
    )
    .expect("valid mixed spec");
    let mut rng = SimRng::seed_from(10);
    pop.step_batch(&mut rng, 4_000);
    assert!(!pop.events().is_empty(), "the payload holds fault events");
    let text = RunSnapshot::capture(&pop, &rng).encode();
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
