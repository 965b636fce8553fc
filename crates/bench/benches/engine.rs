//! The engine's micro-benchmarks: `step` vs `step_batch` throughput on
//! `CountPopulation` in the reactive-sparse (`sparse_token`, leaps) and
//! reactive-dense (`dense_cycle3` and `dk18_oscillator`, collision batches,
//! DESIGN.md §12) regimes, the same batch loop under an empty-plan
//! `FaultyPopulation` and under an installed recorder, and the print-only
//! ablation rows of DESIGN.md §6 / E14 (per-interaction cost, geometric
//! no-op leaping, epidemic completion).
//!
//! Each workload is timed once per run. Its rates go to the perf-trajectory
//! history (`pp_bench::history`): appended to the file `BENCH_HISTORY`
//! names, nothing without it, so a run never writes into the checkout.
//!
//! Run with: `cargo bench -p pp-bench --bench engine`
//!
//! CI smoke mode: `cargo bench -p pp-bench --bench engine -- --smoke` times
//! only the dense rows (cycle3 at n = 10⁴ and 10⁶, DK18 at n = 10⁶) and the
//! recorder rows, and exits nonzero unless the dense run at n = 10⁶ took
//! collision epochs with a step → batch speedup above 10×, a counters-only
//! recorder counted the epochs and a sections recorder attributed time.

use pp_bench::history::{self, HistoryRecord};
use pp_bench::timing::{bench, throughput};
use pp_clocks::oscillator::{central_init, Dk18Oscillator};
use pp_engine::counts::CountPopulation;
use pp_engine::faults::{FaultSpec, FaultyPopulation};
use pp_engine::protocol::{Protocol, TableProtocol};
use pp_engine::recorder::Recorder;
use pp_engine::rng::SimRng;
use pp_engine::sim::Simulator;

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
        let mut pop = dense_cycle3(n);
        let mut rng = SimRng::seed_from(1);
        bench(&format!("count_step n={n}"), || pop.step(&mut rng));
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

/// Ten tokens among `n` agents.
fn sparse_token(n: u64) -> CountPopulation<TableProtocol> {
    CountPopulation::from_counts(token(), &[n - 10, 10])
}

/// The uniform 3-cycle, with about a third of ordered pairs reactive.
fn dense_cycle3(n: u64) -> CountPopulation<TableProtocol> {
    CountPopulation::from_counts(cycle3(), &[n / 3, n / 3, n - 2 * (n / 3)])
}

/// The DK18 oscillator from its central configuration, `x = ⌊n^0.3⌋`
/// sources: seven occupied states, enumerated reseeding and
/// weak-predation cells beside deterministic ones.
fn dense_dk18(n: u64) -> CountPopulation<Dk18Oscillator> {
    let osc = Dk18Oscillator::new();
    let x = ((n as f64).powf(0.3) as u64).max(1);
    CountPopulation::from_counts(osc, &central_init(&osc, n, x))
}

/// Interactions per second when driving `pop` with `step_batch(chunk)`.
fn batch_rate(mut pop: impl Simulator, seed: u64, chunk: u64) -> f64 {
    let mut rng = SimRng::seed_from(seed);
    throughput(|| pop.step_batch(&mut rng, chunk).executed)
}

/// A `CountPopulation` workload, timed per interaction (`step`) and per
/// batch (`step_batch(chunk)`).
struct Workload<P> {
    bench: &'static str,
    scenario: &'static str,
    make: fn(u64) -> CountPopulation<P>,
    step_seed: u64,
    batch_seed: u64,
    chunk: u64,
}

/// The batch path leaps over the overwhelmingly non-reactive schedule. The
/// chunk keeps one call well under a millisecond even at small n.
const SPARSE: Workload<TableProtocol> = Workload {
    bench: "engine_batch",
    scenario: "sparse_token",
    make: sparse_token,
    step_seed: 11,
    batch_seed: 12,
    chunk: 1 << 26,
};

/// The batch path runs √(n·q)-sized collision batches.
const DENSE: Workload<TableProtocol> = Workload {
    bench: "engine_dense",
    scenario: "dense_cycle3",
    make: dense_cycle3,
    step_seed: 21,
    batch_seed: 22,
    chunk: 1 << 20,
};

/// Collision batches over seven states whose enumerated cells draw.
const DK18: Workload<Dk18Oscillator> = Workload {
    bench: "engine_dense",
    scenario: "dk18_oscillator",
    make: dense_dk18,
    step_seed: 31,
    batch_seed: 32,
    chunk: 1 << 20,
};

impl<P: Protocol> Workload<P> {
    fn record(&self, n: u64, metric: &'static str, rate: f64) -> HistoryRecord {
        HistoryRecord {
            bench: self.bench,
            scenario: self.scenario,
            n,
            metric,
            rate,
        }
    }

    /// Times `step` and `step_batch` at `n`, and with `wrapped` also
    /// `step_batch` under an empty fault plan (same seed and chunk as the
    /// raw batch, so the gap is the wrapper's per-batch trigger check);
    /// prints one line, pushes the rates onto `records` and returns the
    /// step and batch rates.
    fn rates(&self, n: u64, wrapped: bool, records: &mut Vec<HistoryRecord>) -> (f64, f64) {
        let mut step_pop = (self.make)(n);
        let mut rng = SimRng::seed_from(self.step_seed);
        let step = throughput(|| {
            for _ in 0..4096 {
                step_pop.step(&mut rng);
            }
            4096
        });
        let batch = batch_rate((self.make)(n), self.batch_seed, self.chunk);
        records.push(self.record(n, "step_per_sec", step));
        records.push(self.record(n, "batch_per_sec", batch));
        let mut line = format!(
            "{:<15} n={n:<11} step {step:>12.3e}/s   batch {batch:>12.3e}/s   ({:.1}x)",
            self.scenario,
            batch / step
        );
        if wrapped {
            let faulty = FaultyPopulation::new((self.make)(n), &FaultSpec::new(0))
                .expect("an empty spec is valid");
            let rate = batch_rate(faulty, self.batch_seed, self.chunk);
            records.push(self.record(n, "empty_plan_batch_per_sec", rate));
            line.push_str(&format!(
                "   empty plan {rate:>12.3e}/s ({:+.1}%)",
                (rate - batch) / batch * 100.0
            ));
        }
        println!("{line}");
        (step, batch)
    }

    /// Collision epochs of a recorded batch run at `n`, separate from the
    /// timed loops so the instrumentation never taxes them; prints the
    /// mean epoch length.
    fn collision_epochs(&self, n: u64) -> u64 {
        // Enough steps for thousands of epochs at every n without
        // dominating wall-clock at n = 1e8.
        let capture_steps = (4 * n).min((2_000_000u64).max(n / 4));
        let mut recorder = Recorder::new();
        {
            let _installed = recorder.install();
            let mut rng = SimRng::seed_from(23);
            (self.make)(n).step_batch(&mut rng, capture_steps);
        }
        let snap = recorder.metrics();
        let epochs = snap.counter("collision_epochs");
        let mean = snap.counter("collision_batched_steps") as f64 / epochs.max(1) as f64;
        println!(
            "{:<15} n={n:<11} {epochs} collision epochs, mean length {mean:.1}",
            ""
        );
        epochs
    }
}

/// The dense batch rate at `n` under a counters-only recorder and under
/// one that also times sections, against `none`, the rate without one.
/// Backends read the thread's recorder slot once per batch (DESIGN.md §10,
/// §14); sections cost two monotonic-clock reads per scope, which is why
/// they are opt-in. Panics if either recorder saw nothing.
fn recorder_overhead(n: u64, none: f64, records: &mut Vec<HistoryRecord>) {
    let under = |mut rec: Recorder| {
        let rate = {
            let _installed = rec.install();
            batch_rate(dense_cycle3(n), DENSE.batch_seed, DENSE.chunk)
        };
        (rate, rec)
    };
    let (counted, counters) = under(Recorder::new());
    let (timed, sections) = under(Recorder::new().with_sections());
    println!(
        "{:<15} n={n:<11} counters {counted:>12.3e}/s ({:.1}% overhead)   \
         sections {timed:>12.3e}/s ({:.2}x slower)",
        "recorder",
        (none - counted) / none * 100.0,
        none / timed
    );
    records.push(DENSE.record(n, "counters_batch_per_sec", counted));
    records.push(DENSE.record(n, "sections_batch_per_sec", timed));
    assert!(
        counters.metrics().counter("collision_epochs") > 0,
        "counters-only run recorded no epochs — instrumentation is dead"
    );
    assert!(
        sections.profile().attributed_ns() > 0,
        "sections run recorded no sections — instrumentation is dead"
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut records = Vec::new();
    let dense_ns: &[u64] = if smoke {
        println!("engine bench smoke (dense collision-batch and recorder gates)");
        &[10_000, 1_000_000]
    } else {
        println!("engine micro-benchmarks (median of 5 samples per line)");
        bench_backends();
        bench_noop_leap();
        bench_epidemic_completion();
        println!("\n== step vs step_batch on CountPopulation ==");
        for n in [10_000u64, 1_000_000, 100_000_000] {
            SPARSE.rates(n, n <= 1_000_000, &mut records);
        }
        &[10_000, 1_000_000, 100_000_000]
    };
    let mut gate = None;
    for &n in dense_ns {
        let (step, batch) = DENSE.rates(n, !smoke && n <= 1_000_000, &mut records);
        let epochs = DENSE.collision_epochs(n);
        if n == 1_000_000 {
            recorder_overhead(n, batch, &mut records);
            gate = Some((batch / step, epochs));
            DK18.rates(n, false, &mut records);
            DK18.collision_epochs(n);
        }
    }
    history::append(&records);

    let (speedup, epochs) = gate.expect("the dense rows include n = 10⁶");
    assert!(
        epochs > 0,
        "dense run at n = 10⁶ never took the collision-epoch path"
    );
    assert!(
        speedup > 10.0,
        "dense collision-batch speedup at n = 10⁶ is {speedup:.1}x, need > 10x"
    );
    println!("OK: dense speedup {speedup:.1}x at n = 10⁶");
}
