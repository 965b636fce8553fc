//! End-to-end and per-layer benchmark of the population-protocol simulator.
//!
//! A run executes one workload as a fixed number of trials, each with
//! inputs derived from the run's seed, and checks every trial's answer.
//! The untraced run reports the end-to-end metrics; the traced run records
//! a span around every call into the simulator's layers, runs probes of
//! deeper public functions after the trials, and reports per-layer
//! metrics. See `README.md` for the workloads and the metric map.

pub mod hierarchy;
pub mod host;
pub mod oscillator;
pub mod programs;
pub mod trace;
pub mod util;

use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::time::Instant;

use pp_engine::json::Json;
use trace::Tracer;
use util::{derive, median};

/// Problem size of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The size the benchmark measures.
    Full,
    /// A small size for the benchmark's tests and for reference trials.
    Smoke,
}

/// Names of the workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "oscillator_dense",
    "interp_programs",
    "enum_programs",
    "hierarchy_leader",
];

/// What one trial measured.
#[derive(Debug, Clone, Copy)]
pub struct Trial {
    /// Seconds per set-up of the trial's simulator objects.
    pub setup_s: f64,
    /// Seconds of the trial's timed work, set-up excluded.
    pub run_s: f64,
    /// Simulated parallel rounds.
    pub rounds: f64,
}

/// Collects a trial's checks. A corrupted checker turns its first check's
/// answer wrong, which is how the tests inject a wrong answer.
#[derive(Debug)]
pub struct Checker {
    corrupt: bool,
    ok: bool,
}

impl Checker {
    fn new(corrupt: bool) -> Self {
        Self { corrupt, ok: true }
    }

    /// Records one check.
    pub fn expect(&mut self, passed: bool) {
        let passed = passed != std::mem::take(&mut self.corrupt);
        self.ok &= passed;
    }

    /// Whether every check so far passed.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.ok
    }
}

/// Per-layer values other than span self times: counts, derived ratios and
/// probe medians, keyed by metric name.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<String, (f64, &'static str)>,
}

impl Layers {
    /// Sets metric `name`.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.values.insert(name.into(), (value, unit));
    }
}

/// One workload: a trial generator with its checks and its layer probes.
pub trait Workload {
    /// Problem parameters for the run record.
    fn config(&self) -> Json;

    /// Estimated seconds per trial on the reference host; sets how many
    /// trials a run of a given length holds.
    fn trial_cost_s(&self) -> f64;

    /// Runs one trial from `seed`.
    fn trial(&mut self, seed: u64, tracer: &mut Tracer, check: &mut Checker) -> Trial;

    /// Per-trial outcomes beyond pass or fail, for the run record.
    fn answers(&self) -> Json {
        Json::Null
    }

    /// Traced runs only, after the trials: derives per-layer metrics from
    /// the span self times and the trials' counts, and runs the probes.
    fn layer_metrics(&mut self, self_s: &BTreeMap<String, f64>, out: &mut Layers);
}

/// Builds workload `name` at `size`.
#[must_use]
pub fn workload(name: &str, size: Size) -> Option<Box<dyn Workload>> {
    Some(match name {
        "oscillator_dense" => Box::new(oscillator::OscillatorDense::new(size)),
        "interp_programs" => Box::new(programs::Programs::new(programs::Backend::Interp, size)),
        "enum_programs" => Box::new(programs::Programs::new(programs::Backend::Enum, size)),
        "hierarchy_leader" => Box::new(hierarchy::HierarchyLeader::new(size)),
        _ => return None,
    })
}

/// Settings of one run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload name.
    pub workload: String,
    /// Seed every trial's inputs derive from.
    pub seed: u64,
    /// Run length in seconds; fixes the trial count.
    pub seconds: u64,
    /// Traced run: report per-layer instead of end-to-end metrics.
    pub trace: bool,
    /// Problem size.
    pub size: Size,
    /// Trial whose first check is given a wrong answer (tests only).
    pub corrupt_trial: Option<usize>,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Result of a run.
#[derive(Debug)]
pub struct Report {
    /// Trials attempted.
    pub attempted: usize,
    /// Trials whose checks failed or that panicked.
    pub failed: usize,
    /// Whether every checked output was correct, reference trials included.
    pub correct: bool,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// The traced run's spans (empty when untraced).
    pub spans: Vec<trace::Span>,
    /// Self-describing record of the run, as a JSON object.
    pub record: String,
}

/// Trials in a run of `seconds` for a workload costing `cost_s` per trial.
fn trial_count(seconds: u64, cost_s: f64) -> usize {
    ((seconds as f64 / cost_s).round() as usize).max(3)
}

/// Runs every trial, catching panics so that a failing trial counts
/// against `ok_rate` instead of ending the run. Returns each trial with
/// whether its checks passed, and times the reference kernel before each
/// trial into `kernel_s`.
fn run_trials(
    w: &mut dyn Workload,
    seeds: &[u64],
    tracer: &mut Tracer,
    corrupt: Option<usize>,
    kernel_s: &mut Vec<f64>,
) -> Vec<(Trial, bool)> {
    seeds
        .iter()
        .enumerate()
        .map(|(i, &seed)| {
            tracer.set_trial(u32::try_from(i).expect("fewer than 2^32 trials"));
            let mut check = Checker::new(corrupt == Some(i));
            kernel_s.push(util::reference_kernel_s());
            let start = Instant::now();
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                tracer.span("bench.trial", |tr| w.trial(seed, tr, &mut check))
            }));
            match outcome {
                Ok(t) => (t, check.ok()),
                Err(_) => {
                    tracer.close_open();
                    let t = Trial {
                        setup_s: 0.0,
                        run_s: start.elapsed().as_secs_f64(),
                        rounds: 0.0,
                    };
                    (t, false)
                }
            }
        })
        .collect()
}

/// Runs one workload as `cfg` says.
///
/// # Errors
///
/// An unknown workload name.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let mut w = workload(&cfg.workload, cfg.size)
        .ok_or_else(|| format!("unknown workload {:?}", cfg.workload))?;
    let trials = trial_count(cfg.seconds, w.trial_cost_s());
    let seeds: Vec<u64> = (0..trials as u64).map(|i| derive(cfg.seed, i)).collect();
    let mut tracer = Tracer::new(cfg.trace);
    let mut kernel_s = Vec::new();
    let results = run_trials(
        w.as_mut(),
        &seeds,
        &mut tracer,
        cfg.corrupt_trial,
        &mut kernel_s,
    );
    kernel_s.push(util::reference_kernel_s());

    // The host's speed drifts by tens of percent over seconds to minutes as
    // other tenants load the machine. Times are reported at the reference
    // speed: each trial's times are divided by the slowdown the reference
    // kernel showed just before and just after it (see
    // `util::SPEED_EXPONENT`).
    let slowdowns: Vec<f64> = kernel_s
        .windows(2)
        .map(|k| ((k[0] + k[1]) / 2.0 / util::REFERENCE_KERNEL_S).powf(util::SPEED_EXPONENT))
        .collect();
    let failed = results.iter().filter(|(_, ok)| !ok).count();
    let run_times: Vec<f64> = results.iter().map(|(t, _)| t.run_s).collect();
    let setup_times: Vec<f64> = results.iter().map(|(t, _)| t.setup_s).collect();
    let corrected =
        |times: &[f64]| -> Vec<f64> { times.iter().zip(&slowdowns).map(|(t, s)| t / s).collect() };
    let (run_corrected, setup_corrected) = (corrected(&run_times), corrected(&setup_times));
    let rounds: f64 = results.iter().map(|(t, _)| t.rounds).sum();
    let wall_s: f64 = run_corrected.iter().sum();
    let mut correct = failed == 0;
    let nums = |v: &mut dyn Iterator<Item = f64>| Json::arr(v.map(Json::from));
    let mut record = vec![
        ("workload", Json::from(cfg.workload.as_str())),
        ("seed", Json::from(cfg.seed)),
        ("seconds", Json::from(cfg.seconds)),
        ("trace", Json::from(cfg.trace)),
        ("trials", Json::from(trials)),
        ("failed", Json::from(failed)),
        ("config", w.config()),
        ("answers", w.answers()),
        ("host", host::record()),
        ("trial_slowdown", nums(&mut slowdowns.iter().copied())),
        ("reference_kernel_s", nums(&mut kernel_s.iter().copied())),
        ("trial_run_s", nums(&mut run_times.iter().copied())),
        ("trial_setup_s", nums(&mut setup_times.iter().copied())),
        (
            "trial_rounds",
            nums(&mut results.iter().map(|(t, _)| t.rounds)),
        ),
    ];

    let metrics = if cfg.trace {
        let mut layers = Layers::default();
        let own_self_s = tracer.self_seconds_by_name();
        w.layer_metrics(&own_self_s, &mut layers);
        layers.set("bench.span_coverage", span_coverage(&tracer), "fraction");

        // Tracing overhead: the first trials again, untraced and traced
        // back to back on the same seeds, so host drift hits both alike.
        let (mut traced_s, mut untraced_s) = (0.0, 0.0);
        for &seed in &seeds[..trials.min(3)] {
            for (traced, sum) in [(false, &mut untraced_s), (true, &mut traced_s)] {
                let mut tr = Tracer::new(traced);
                let (t, ok) = run_trials(w.as_mut(), &[seed], &mut tr, None, &mut Vec::new())[0];
                *sum += t.run_s;
                correct &= ok;
            }
        }
        layers.set("bench.trace_overhead", traced_s / untraced_s, "ratio");

        let mut metrics = span_metrics(&own_self_s);
        // Layers this workload's trials never reach are measured on one
        // smoke-size reference trial of the workload that reaches them, so
        // every traced run reports every layer metric.
        let mut reference = Vec::new();
        for &name in WORKLOADS.iter().filter(|&&n| n != cfg.workload) {
            let mut other = workload(name, Size::Smoke).expect("listed workload");
            let mut tr = Tracer::new(true);
            let seed = derive(cfg.seed, 1 << 32);
            let ok = run_trials(other.as_mut(), &[seed], &mut tr, None, &mut Vec::new())[0].1;
            correct &= ok;
            let self_s = tr.self_seconds_by_name();
            other.layer_metrics(&self_s, &mut layers);
            metrics.extend(span_metrics(&self_s));
            reference.push(Json::obj([
                ("workload", Json::from(name)),
                ("ok", Json::from(ok)),
            ]));
        }
        record.push(("reference_trials", Json::arr(reference)));
        record.push(("spans", Json::from(tracer.spans().len())));
        metrics.extend(
            layers
                .values
                .into_iter()
                .map(|(name, (value, unit))| Metric { name, value, unit }),
        );
        metrics
    } else {
        vec![
            metric("wall_s", wall_s, "s"),
            metric("trial_s_p50", median(&run_corrected), "s"),
            metric("sim_rounds_per_s", rounds / wall_s, "rounds/s"),
            metric("setup_s", median(&setup_corrected), "s"),
            metric("peak_rss_mb", host::peak_rss_mb(), "MB"),
            metric(
                "ok_rate",
                (trials - failed) as f64 / trials as f64,
                "fraction",
            ),
        ]
    };
    record.push(("metrics", metrics_json(&metrics)));
    Ok(Report {
        attempted: trials,
        failed,
        correct,
        record: Json::obj(record).render(),
        spans: tracer.into_spans(),
        metrics,
    })
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Span self times as per-layer metrics; the benchmark's own `bench.*`
/// spans are bookkeeping, not layers.
fn span_metrics(self_s: &BTreeMap<String, f64>) -> Vec<Metric> {
    self_s
        .iter()
        .filter(|(name, _)| !name.starts_with("bench."))
        .map(|(name, &v)| metric(name, v, "s"))
        .collect()
}

/// Share of the trials' wall time that layer spans cover: one minus the
/// self time of the benchmark's own trial spans over their total.
fn span_coverage(tracer: &Tracer) -> f64 {
    let own = tracer.self_times_ns();
    let (mut total, mut bench) = (0u64, 0u64);
    for (span, self_ns) in tracer.spans().iter().zip(own) {
        if span.name == "bench.trial" {
            total += span.duration_ns();
            bench += self_ns;
        }
    }
    1.0 - bench as f64 / total.max(1) as f64
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
#[must_use]
pub fn result_line(report: &Report) -> String {
    Json::obj([
        ("correct", Json::from(report.correct)),
        ("attempted", Json::from(report.attempted)),
        ("failed", Json::from(report.failed)),
        ("metrics", metrics_json(&report.metrics)),
    ])
    .render()
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|m| {
        let value = Json::obj([("value", Json::from(m.value)), ("unit", Json::from(m.unit))]);
        (m.name.clone(), value)
    }))
}
