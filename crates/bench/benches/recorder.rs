//! Recorder overhead gate: with no recorder installed, telemetry must be
//! noise on the dense hot path.
//!
//! Backends read the thread's recorder slot once per batch (DESIGN.md §10,
//! §14), so a run without a recorder pays one thread-local load per
//! `step_batch` call. This bench measures the dense `cycle3` collision-batch
//! rate at `n = 10⁶` — the `BENCH_dense.json` workload — three ways: with
//! no recorder, with a counters-only recorder, and with a recorder that
//! also times sections. The last is expected to be substantially slower
//! (two monotonic-clock reads per scope), which is why sections are opt-in.
//!
//! Run with: `cargo bench -p pp-bench --bench recorder`
//!
//! Exits nonzero when the no-recorder rate falls below 75% of the committed
//! baseline — loose enough for cross-machine CI noise, tight enough to
//! catch an accidentally hot disabled path (the acceptance bar on the
//! machine that wrote the baseline is within 3%).

use pp_bench::timing::throughput;
use pp_engine::counts::CountPopulation;
use pp_engine::json::Json;
use pp_engine::protocol::TableProtocol;
use pp_engine::recorder::Recorder;
use pp_engine::rng::SimRng;
use pp_engine::sim::Simulator;
use std::path::PathBuf;

const N: u64 = 1_000_000;

fn cycle3() -> TableProtocol {
    TableProtocol::new(3, "cycle")
        .rule(0, 1, 1, 1)
        .rule(1, 2, 2, 2)
        .rule(2, 0, 0, 0)
}

/// Dense collision-batch throughput at `N` under `recorder` (none when
/// `None`), same workload and seed as the `BENCH_dense.json` rows in
/// `benches/engine.rs`.
fn dense_batch_rate(recorder: Option<&mut Recorder>) -> f64 {
    let _installed = recorder.map(Recorder::install);
    let mut pop = CountPopulation::from_counts(cycle3(), &[N / 3, N / 3, N - 2 * (N / 3)]);
    let mut rng = SimRng::seed_from(22);
    throughput(|| pop.step_batch(&mut rng, 1 << 20).executed)
}

fn workspace_root() -> PathBuf {
    std::env::var("CARGO_MANIFEST_DIR")
        .map(|d| PathBuf::from(d).join("../.."))
        .unwrap_or_else(|_| PathBuf::from("."))
}

/// The committed `batch_per_sec` baseline at `n`, if the snapshot exists.
fn baseline_batch_rate(n: u64) -> Option<f64> {
    let text = std::fs::read_to_string(workspace_root().join("BENCH_dense.json")).ok()?;
    let doc = Json::parse(&text).ok()?;
    doc.get("rows")?
        .as_arr()?
        .iter()
        .find(|r| r.get("n").and_then(Json::as_u64) == Some(n))?
        .get("batch_per_sec")?
        .as_f64()
}

fn main() {
    println!("recorder overhead bench (dense cycle3, n = {N})");
    let none = dense_batch_rate(None);
    let mut counters = Recorder::new();
    let counted = dense_batch_rate(Some(&mut counters));
    let mut sections = Recorder::new().with_sections();
    let timed = dense_batch_rate(Some(&mut sections));

    println!("  no recorder:          {none:>12.3e} interactions/s");
    println!(
        "  counters:             {counted:>12.3e} interactions/s ({:.1}% overhead)",
        (none - counted) / none * 100.0
    );
    println!(
        "  counters + sections:  {timed:>12.3e} interactions/s ({:.2}x slower)",
        none / timed
    );
    assert!(
        counters.metrics().counter("collision_epochs") > 0,
        "counters-only run recorded no epochs — instrumentation is dead"
    );
    assert!(
        sections.profile().attributed_ns() > 0,
        "sections run recorded no sections — instrumentation is dead"
    );

    match baseline_batch_rate(N) {
        Some(base) => {
            let frac = none / base;
            println!(
                "  baseline (BENCH_dense.json): {base:>12.3e} interactions/s — no-recorder path \
                 at {:.1}% of baseline",
                frac * 100.0
            );
            assert!(
                frac > 0.75,
                "no-recorder dense rate {none:.3e}/s fell below 75% of the committed baseline \
                 {base:.3e}/s — the disabled path is not free"
            );
        }
        None => println!("  no BENCH_dense.json baseline found; skipping the gate"),
    }
    println!("recorder overhead bench OK");
}
