//! Micro-benchmarks for the simulation substrate: per-interaction
//! throughput of every backend, Fenwick vs linear sampling, geometric
//! no-op leaping (E14 / design-ablation benches from DESIGN.md §6),
//! and the headline `step` vs `step_batch` comparison on
//! `CountPopulation`, whose results are written to `BENCH_batch.json` at
//! the workspace root. The reactive-dense rows (collision-batch regime,
//! DESIGN.md §12) are additionally written to `BENCH_dense.json` together
//! with the per-epoch batch-size distribution.
//!
//! Run with: `cargo bench --bench engine`
//!
//! CI smoke mode: `cargo bench --bench engine -- --smoke` runs only the
//! dense rows at reduced n, writes `BENCH_dense.json`, and exits nonzero
//! unless the collision-batch speedup at the largest smoke size exceeds
//! 10×.

use pp_bench::history::{self, HistoryRecord};
use pp_bench::timing::{bench, throughput};
use pp_engine::counts::CountPopulation;
use pp_engine::fenwick::Fenwick;
use pp_engine::json::Json;
use pp_engine::population::Population;
use pp_engine::protocol::TableProtocol;
use pp_engine::recorder::Recorder;
use pp_engine::rng::SimRng;
use pp_engine::sim::Simulator;
use std::path::PathBuf;

fn epidemic() -> TableProtocol {
    TableProtocol::new(2, "epidemic")
        .rule(1, 0, 1, 1)
        .rule(0, 1, 1, 1)
}

fn cycle3() -> TableProtocol {
    TableProtocol::new(3, "cycle")
        .rule(0, 1, 1, 1)
        .rule(1, 2, 2, 2)
        .rule(2, 0, 0, 0)
}

/// Token passing: a token hops from initiator to responder. The count
/// vector is invariant, so reactivity stays fixed at `2·t·(n−t)` ordered
/// pairs forever — a stationary, reactive-sparse workload that isolates
/// the cost of leaping over no-op interactions.
fn token() -> TableProtocol {
    TableProtocol::new(2, "token").rule(1, 0, 0, 1)
}

fn bench_backends() {
    println!("\n== backend_step (per-interaction cost) ==");
    for n in [1_000u64, 100_000] {
        {
            let mut pop = Population::from_counts(cycle3(), &[n / 3, n / 3, n - 2 * (n / 3)]);
            let mut rng = SimRng::seed_from(1);
            bench(&format!("agent_array/step n={n}"), || pop.step(&mut rng));
        }
        {
            let mut pop = CountPopulation::from_counts(cycle3(), &[n / 3, n / 3, n - 2 * (n / 3)]);
            let mut rng = SimRng::seed_from(1);
            bench(&format!("count_fenwick/step n={n}"), || pop.step(&mut rng));
        }
    }
}

fn bench_noop_leap() {
    // E14: sparse dynamics — 4 leaders among n agents. Batched stepping
    // leaps the dead time until the configuration is silent; per-step
    // driving slogs through it (so the naive side only runs at the
    // smaller n).
    println!("\n== leap_sparse_fratricide (full run to 1 leader) ==");
    let p = TableProtocol::new(2, "frat").rule(1, 1, 1, 0);
    for n in [1_000u64, 10_000] {
        bench(&format!("count_step_batch n={n}"), || {
            let mut pop = CountPopulation::from_counts(&p, &[n - 4, 4]);
            let mut rng = SimRng::seed_from(7);
            while !pop.step_batch(&mut rng, u64::MAX).silent {}
            pop.steps()
        });
    }
    bench("naive_count n=1000", || {
        let mut pop = CountPopulation::from_counts(&p, &[996, 4]);
        let mut rng = SimRng::seed_from(7);
        while pop.count(1) > 1 {
            pop.step(&mut rng);
        }
        pop.steps()
    });
}

fn bench_fenwick() {
    println!("\n== fenwick_sampling ==");
    for k in [16usize, 256, 4096] {
        let weights: Vec<u64> = (0..k as u64).map(|i| i % 17 + 1).collect();
        {
            let f = Fenwick::from_weights(&weights);
            let mut rng = SimRng::seed_from(3);
            bench(&format!("fenwick_find k={k}"), || {
                f.find(rng.below(f.total()))
            });
        }
        {
            let total: u64 = weights.iter().sum();
            let mut rng = SimRng::seed_from(3);
            bench(&format!("linear_scan k={k}"), || {
                let mut r = rng.below(total);
                let mut idx = 0;
                for (i, &w) in weights.iter().enumerate() {
                    if r < w {
                        idx = i;
                        break;
                    }
                    r -= w;
                }
                idx
            });
        }
    }
}

fn bench_epidemic_completion() {
    println!("\n== epidemic_completion (count backend, batched) ==");
    for n in [10_000u64, 1_000_000] {
        bench(&format!("count_backend n={n}"), || {
            let mut pop = CountPopulation::from_counts(epidemic(), &[n - 1, 1]);
            let mut rng = SimRng::seed_from(5);
            while pop.count(0) > 0 {
                pop.step_batch(&mut rng, n);
            }
            pop.time()
        });
    }
}

/// Interactions per second when driving `pop` with per-interaction
/// `step()`.
fn step_rate(mut pop: CountPopulation<TableProtocol>, seed: u64) -> f64 {
    let mut rng = SimRng::seed_from(seed);
    throughput(|| {
        for _ in 0..4096 {
            pop.step(&mut rng);
        }
        4096
    })
}

/// Interactions per second when driving `pop` with `step_batch(chunk)`.
fn batch_rate(mut pop: CountPopulation<TableProtocol>, seed: u64, chunk: u64) -> f64 {
    let mut rng = SimRng::seed_from(seed);
    throughput(|| pop.step_batch(&mut rng, chunk).executed)
}

/// Cores visible to this bench run, recorded alongside the rates so the
/// numbers are interpretable. Each run is single-threaded.
fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

struct BatchRow {
    scenario: &'static str,
    n: u64,
    step_per_sec: f64,
    batch_per_sec: f64,
}

fn bench_step_vs_batch() -> Vec<BatchRow> {
    println!("\n== step vs step_batch on CountPopulation ==");
    let mut rows = Vec::new();
    for n in [10_000u64, 1_000_000, 100_000_000] {
        // Sparse regime: 10 tokens — the batch path leaps over the
        // overwhelmingly non-reactive schedule. Chunk sized so one call
        // stays well under a millisecond even at small n.
        let sparse = || CountPopulation::from_counts(token(), &[n - 10, 10]);
        let s_step = step_rate(sparse(), 11);
        let s_batch = batch_rate(sparse(), 12, 1 << 26);
        println!(
            "sparse_token   n={n:<11} step {:>14.3e}/s   batch {:>14.3e}/s   ({:.1}x)",
            s_step,
            s_batch,
            s_batch / s_step
        );
        rows.push(BatchRow {
            scenario: "sparse_token",
            n,
            step_per_sec: s_step,
            batch_per_sec: s_batch,
        });

        // Dense regime: uniform 3-cycle, about a third of ordered pairs
        // reactive — the batch path runs √(n·q)-sized collision batches
        // (DESIGN.md §12).
        let dense = || CountPopulation::from_counts(cycle3(), &[n / 3, n / 3, n - 2 * (n / 3)]);
        let d_step = step_rate(dense(), 21);
        let d_batch = batch_rate(dense(), 22, 1 << 20);
        println!(
            "dense_cycle3   n={n:<11} step {:>14.3e}/s   batch {:>14.3e}/s   ({:.1}x)",
            d_step,
            d_batch,
            d_batch / d_step
        );
        rows.push(BatchRow {
            scenario: "dense_cycle3",
            n,
            step_per_sec: d_step,
            batch_per_sec: d_batch,
        });
    }
    rows
}

struct DenseRow {
    n: u64,
    step_per_sec: f64,
    batch_per_sec: f64,
    collision_epochs: u64,
    collision_batched_steps: u64,
    mean_epoch_len: f64,
    epoch_len_log2_buckets: Vec<u64>,
}

/// Dense `cycle3` rows for `BENCH_dense.json`: step vs collision-batch
/// throughput at each n, plus the observed per-epoch batch-size
/// distribution (log2-bucketed `epoch_len` histogram) captured from a
/// separate recorded run so the instrumentation never taxes
/// the timed loops.
fn bench_dense(ns: &[u64]) -> Vec<DenseRow> {
    println!("\n== dense collision-batch rows (cycle3) ==");
    let mut rows = Vec::new();
    for &n in ns {
        let dense = || CountPopulation::from_counts(cycle3(), &[n / 3, n / 3, n - 2 * (n / 3)]);
        let step_per_sec = step_rate(dense(), 21);
        let batch_per_sec = batch_rate(dense(), 22, 1 << 20);

        // Distribution capture: enough steps for thousands of epochs at
        // every n without dominating wall-clock at n = 1e8.
        let capture_steps = (4 * n).min((2_000_000u64).max(n / 4));
        let mut recorder = Recorder::new();
        {
            let _installed = recorder.install();
            let mut pop = dense();
            let mut rng = SimRng::seed_from(23);
            pop.step_batch(&mut rng, capture_steps);
        }
        let snap = recorder.metrics();
        let collision_epochs = snap.counter("collision_epochs");
        let collision_batched_steps = snap.counter("collision_batched_steps");
        let mean_epoch_len = if collision_epochs > 0 {
            collision_batched_steps as f64 / collision_epochs as f64
        } else {
            0.0
        };
        let epoch_len_log2_buckets = snap.hist("epoch_len").unwrap_or(&[]).to_vec();

        println!(
            "dense_cycle3   n={n:<11} step {:>14.3e}/s   batch {:>14.3e}/s   ({:.1}x)   mean epoch {:.1}",
            step_per_sec,
            batch_per_sec,
            batch_per_sec / step_per_sec,
            mean_epoch_len
        );
        rows.push(DenseRow {
            n,
            step_per_sec,
            batch_per_sec,
            collision_epochs,
            collision_batched_steps,
            mean_epoch_len,
            epoch_len_log2_buckets,
        });
    }
    rows
}

fn workspace_root() -> PathBuf {
    std::env::var("CARGO_MANIFEST_DIR")
        .map(|d| PathBuf::from(d).join("../.."))
        .unwrap_or_else(|_| PathBuf::from("."))
}

fn write_dense_json(rows: &[DenseRow]) {
    let doc = Json::obj([
        ("bench", Json::from("dense_collision_batch")),
        ("backend", Json::from("CountPopulation")),
        ("scenario", Json::from("dense_cycle3")),
        ("unit", Json::from("interactions_per_second")),
        ("host_cores", Json::from(host_cores() as u64)),
        (
            "rows",
            Json::arr(rows.iter().map(|r| {
                Json::obj([
                    ("n", Json::from(r.n)),
                    ("step_per_sec", Json::from(r.step_per_sec)),
                    ("batch_per_sec", Json::from(r.batch_per_sec)),
                    ("speedup", Json::from(r.batch_per_sec / r.step_per_sec)),
                    ("collision_epochs", Json::from(r.collision_epochs)),
                    (
                        "collision_batched_steps",
                        Json::from(r.collision_batched_steps),
                    ),
                    ("mean_epoch_len", Json::from(r.mean_epoch_len)),
                    (
                        "epoch_len_log2_buckets",
                        Json::arr(r.epoch_len_log2_buckets.iter().copied().map(Json::from)),
                    ),
                ])
            })),
        ),
    ]);
    let path = workspace_root().join("BENCH_dense.json");
    std::fs::write(&path, format!("{}\n", doc.render())).expect("write BENCH_dense.json");
    println!("wrote {}", path.display());
}

fn write_batch_json(rows: &[BatchRow]) {
    let root = workspace_root();
    let mut out = String::from(
        "{\n  \"bench\": \"step_vs_step_batch\",\n  \"backend\": \"CountPopulation\",\n  \"unit\": \"interactions_per_second\",\n  \"rows\": [\n",
    );
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"n\": {}, \"step_per_sec\": {:.4e}, \"batch_per_sec\": {:.4e}, \"speedup\": {:.2}}}{sep}\n",
            r.scenario,
            r.n,
            r.step_per_sec,
            r.batch_per_sec,
            r.batch_per_sec / r.step_per_sec
        ));
    }
    out.push_str("  ]\n}\n");
    let path = root.join("BENCH_batch.json");
    std::fs::write(&path, out).expect("write BENCH_batch.json");
    println!("\nwrote {}", path.display());
}

/// Appends the dense rows to the perf-trajectory history (the file
/// `$BENCH_HISTORY` names; nothing without it) so `ppsim bench-diff` and
/// the CI `bench-regression` job can compare runs over time.
fn append_dense_history(rows: &[DenseRow]) {
    let records: Vec<HistoryRecord> = rows
        .iter()
        .flat_map(|r| {
            [
                HistoryRecord {
                    bench: "engine_dense",
                    scenario: "dense_cycle3",
                    n: r.n,
                    metric: "step_per_sec",
                    rate: r.step_per_sec,
                },
                HistoryRecord {
                    bench: "engine_dense",
                    scenario: "dense_cycle3",
                    n: r.n,
                    metric: "batch_per_sec",
                    rate: r.batch_per_sec,
                },
            ]
        })
        .collect();
    history::append(&records);
}

/// Reduced-n CI gate: dense rows only, written to `BENCH_dense.json`, and
/// the collision-batch speedup at the largest smoke size must clear 10×.
fn run_smoke() {
    println!("engine bench smoke (dense collision-batch gate)");
    let rows = bench_dense(&[10_000, 1_000_000]);
    write_dense_json(&rows);
    append_dense_history(&rows);
    let last = rows.last().expect("smoke rows");
    let speedup = last.batch_per_sec / last.step_per_sec;
    assert!(
        last.collision_epochs > 0,
        "smoke: dense run at n={} never took the collision-epoch path",
        last.n
    );
    assert!(
        speedup > 10.0,
        "smoke: dense collision-batch speedup at n={} is {speedup:.1}x, need > 10x",
        last.n
    );
    println!("smoke OK: dense speedup {speedup:.1}x at n={}", last.n);
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        run_smoke();
        return;
    }
    println!("engine micro-benchmarks (median of 5 samples per line)");
    bench_backends();
    bench_fenwick();
    bench_noop_leap();
    bench_epidemic_completion();
    let rows = bench_step_vs_batch();
    write_batch_json(&rows);
    let dense_rows = bench_dense(&[10_000, 1_000_000, 100_000_000]);
    write_dense_json(&dense_rows);
    append_dense_history(&dense_rows);
}
