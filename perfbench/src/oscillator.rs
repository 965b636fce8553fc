//! `oscillator_dense`: the DK18 oscillator on the dense count engine.
//!
//! Each trial starts from the central configuration (`x = ⌊n^0.3⌋` source
//! agents, the rest split evenly over the three species) and is driven by
//! one-round `step_batch` calls for a fixed number of rounds, recording the
//! species counts after every batch, as `ppsim oscillator` and E5 do. At
//! `n = 10⁶` the engine runs collision epochs, so the epoch chain and pmf
//! inversion dominate.

use std::collections::BTreeMap;
use std::hint::black_box;

use pp_clocks::detect::{dominance_events, periods, rotation_violations};
use pp_clocks::oscillator::{central_init, Dk18Oscillator, Oscillator, NUM_SPECIES};
use pp_engine::collision::{run_epoch, BirthdayCdf, CollisionScratch};
use pp_engine::counts::CountPopulation;
use pp_engine::json::Json;
use pp_engine::rng::SimRng;
use pp_engine::sim::Simulator;

use crate::trace::Tracer;
use crate::util::{derive, probe_ns, timed};
use crate::{Checker, Layers, Size, Trial, Workload};

/// Accepted band for the median oscillator period divided by `ln n`.
/// The paper's period is `Θ(log n)`; at `n = 10⁶` the measured ratio sits
/// near 4, and a broken rotation lands far outside.
const PERIOD_BAND: (f64, f64) = (2.0, 8.0);

/// Share of the population a species must hold to count as dominant.
const DOMINANCE: f64 = 0.8;

/// Set-ups per trial: one `from_counts` takes well under a microsecond, so
/// a trial times many and reports the mean.
const SETUP_REPS: u32 = 2_000;

/// The workload.
#[derive(Debug)]
pub struct OscillatorDense {
    n: u64,
    rounds: f64,
    batches: u64,
    steps: u64,
    changed: u64,
    /// Counts at the end of the last trial, for the probes.
    last_counts: Vec<u64>,
}

impl OscillatorDense {
    /// The workload at `size`.
    #[must_use]
    pub fn new(size: Size) -> Self {
        let (n, rounds) = match size {
            Size::Full => (1_000_000, 150.0),
            Size::Smoke => (20_000, 90.0),
        };
        Self {
            n,
            rounds,
            batches: 0,
            steps: 0,
            changed: 0,
            last_counts: Vec::new(),
        }
    }

    fn x(&self) -> u64 {
        ((self.n as f64).powf(0.3) as u64).max(1)
    }
}

impl Workload for OscillatorDense {
    fn config(&self) -> Json {
        Json::obj([
            ("n", Json::from(self.n)),
            ("x", Json::from(self.x())),
            ("rounds_per_trial", Json::from(self.rounds)),
            ("setup_reps", Json::from(u64::from(SETUP_REPS))),
            (
                "period_band_over_ln_n",
                Json::arr([Json::from(PERIOD_BAND.0), Json::from(PERIOD_BAND.1)]),
            ),
        ])
    }

    fn trial_cost_s(&self) -> f64 {
        0.85
    }

    fn trial(&mut self, seed: u64, tr: &mut Tracer, check: &mut Checker) -> Trial {
        let (n, x) = (self.n, self.x());
        let osc = Dk18Oscillator::new();
        let (pop, setup_all) = timed(|| {
            let mut pop = None;
            for _ in 0..SETUP_REPS {
                pop = Some(CountPopulation::from_counts(
                    &osc,
                    &central_init(&osc, n, x),
                ));
            }
            pop.expect("at least one set-up")
        });
        let mut pop = pop;
        let mut rng = SimRng::seed_from(seed);
        let mut rows: Vec<(f64, [u64; NUM_SPECIES])> = Vec::new();
        let ((), run_s) = timed(|| {
            while pop.time() < self.rounds {
                let out = tr.span("engine.counts.step_batch_s", |_| {
                    pop.step_batch(&mut rng, n)
                });
                self.batches += 1;
                self.steps += out.executed;
                self.changed += out.changed;
                rows.push((pop.time(), osc.species_counts(&pop.counts())));
                if out.silent && out.executed == 0 {
                    break;
                }
            }
        });
        let events = dominance_events(&rows, DOMINANCE);
        check.expect(rotation_violations(&events) == 0);
        let mut per = periods(&events);
        per.sort_by(f64::total_cmp);
        let ratio = per
            .get(per.len() / 2)
            .map_or(f64::NAN, |p| p / (n as f64).ln());
        check.expect((PERIOD_BAND.0..=PERIOD_BAND.1).contains(&ratio));
        self.last_counts = pop.counts();
        Trial {
            setup_s: setup_all / f64::from(SETUP_REPS),
            run_s,
            rounds: pop.time(),
        }
    }

    fn layer_metrics(&mut self, self_s: &BTreeMap<String, f64>, out: &mut Layers) {
        let batch_s = self_s
            .get("engine.counts.step_batch_s")
            .copied()
            .unwrap_or(0.0);
        out.set(
            "engine.counts.ns_per_step",
            batch_s * 1e9 / self.steps as f64,
            "ns",
        );
        out.set("engine.counts.batches", self.batches as f64, "count");
        out.set(
            "engine.counts.changed_per_step",
            self.changed as f64 / self.steps as f64,
            "fraction",
        );

        // Probes on the last trial's configuration.
        let osc = Dk18Oscillator::new();
        let cdf = BirthdayCdf::new(self.n);
        let mut rng = SimRng::seed_from(derive(self.n, 7));
        let mut counts = self.last_counts.clone();
        let mut scratch = CollisionScratch::new();
        let epoch_ns = probe_ns(21, 200, || {
            black_box(run_epoch(
                &osc,
                &mut counts,
                &cdf,
                &mut scratch,
                &mut rng,
                u64::MAX,
            ));
        });
        out.set("engine.collision.epoch_us", epoch_ns / 1e3, "us");
        out.set(
            "engine.collision.steps_per_epoch",
            cdf.expected_interactions(),
            "steps",
        );
        let sample_ns = probe_ns(21, 2_000, || {
            black_box(cdf.sample_t(&mut rng));
        });
        out.set("engine.collision.sample_t_ns", sample_ns, "ns");

        // The samplers at the workload's scale: an epoch draws about E[T]
        // agents out of n, split over species holding about n/3 each.
        let draws = cdf.expected_interactions().round() as u64 * 2;
        let tagged = self.last_counts.iter().copied().max().unwrap_or(1);
        let hyper_ns = probe_ns(21, 2_000, || {
            black_box(rng.hypergeometric(self.n, tagged, draws));
        });
        out.set("engine.rng.hypergeometric_ns", hyper_ns, "ns");
        let p = draws as f64 / self.n as f64;
        let binom_ns = probe_ns(21, 2_000, || {
            black_box(rng.binomial(tagged, p));
        });
        out.set("engine.rng.binomial_ns", binom_ns, "ns");
    }
}
