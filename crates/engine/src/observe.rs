//! Observers: measurement instrumentation attached to simulation runs.
//!
//! Observers are invoked at *checkpoints*, not after every scheduler
//! activation: each observer declares via [`Observer::stride`] how many steps
//! may elapse before it next needs to look at the simulator, and the run loop
//! ([`crate::sim::run_rounds`]) sizes its `step_batch` calls to the smallest
//! pending stride. This keeps measurement granularity an observer-local
//! decision while letting the backends run tight batched inner loops between
//! callbacks. Observers deliberately receive the simulator as `&dyn` so one
//! observer implementation serves every backend.
//!
//! Because batches are bounded by the *minimum* stride across all attached
//! observers (and backends may overshoot a batch slightly, e.g. the matching
//! scheduler completes whole rounds), `observe` can be called earlier or
//! later than the declared stride; implementations must re-check their own
//! schedule, as all the built-in observers do.

use crate::json::Json;
use crate::sim::Simulator;
use crate::snapshot::{hex_u64, parse_hex_u64};

/// Receives checkpoint callbacks during a simulation run.
pub trait Observer {
    /// Called at each batch boundary with the current step count and
    /// simulator. May be called more often than [`Observer::stride`]
    /// requests (another observer's stride can be smaller), so
    /// implementations guard with their own schedule.
    fn observe(&mut self, steps: u64, sim: &dyn Simulator);

    /// Maximum number of further steps the run loop may execute before this
    /// observer needs its next [`Observer::observe`] call.
    ///
    /// Defaults to one parallel round (`n` steps). Return `u64::MAX` when
    /// the observer no longer needs callbacks (the run loop clamps to the
    /// remaining budget).
    fn stride(&self, steps: u64, sim: &dyn Simulator) -> u64 {
        let _ = steps;
        sim.n().max(1)
    }
}

/// Records the counts of selected states on a fixed parallel-time grid.
///
/// # Examples
///
/// ```
/// use pp_engine::observe::{Observer, TraceRecorder};
/// use pp_engine::population::Population;
/// use pp_engine::protocol::TableProtocol;
/// use pp_engine::rng::SimRng;
/// use pp_engine::sim::{run_rounds, Simulator};
///
/// let p = TableProtocol::new(2, "epidemic").rule(1, 0, 1, 1).rule(0, 1, 1, 1);
/// let mut pop = Population::from_counts(&p, &[99, 1]);
/// let mut trace = TraceRecorder::new(vec![1], 1.0);
/// let mut rng = SimRng::seed_from(0);
/// run_rounds(&mut pop, 20.0, &mut rng, &mut [&mut trace]);
/// assert!(trace.rows().len() >= 20);
/// ```
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    states: Vec<usize>,
    /// Sampling interval in rounds.
    every_rounds: f64,
    next_step: u64,
    rows: Vec<(f64, Vec<u64>)>,
}

impl TraceRecorder {
    /// Records the counts of `states` every `every_rounds` rounds.
    ///
    /// # Panics
    ///
    /// Panics if `every_rounds <= 0`.
    #[must_use]
    pub fn new(states: Vec<usize>, every_rounds: f64) -> Self {
        assert!(every_rounds > 0.0);
        Self {
            states,
            every_rounds,
            next_step: 0,
            rows: Vec::new(),
        }
    }

    /// The recorded rows as `(parallel_time, counts)` pairs.
    #[must_use]
    pub fn rows(&self) -> &[(f64, Vec<u64>)] {
        &self.rows
    }

    /// Extracts the time series of the `i`-th tracked state.
    #[must_use]
    pub fn series(&self, i: usize) -> Vec<(f64, u64)> {
        self.rows.iter().map(|(t, c)| (*t, c[i])).collect()
    }

    /// Serializes the recorder's resumable position: the next sampling step
    /// and the rows recorded so far. Together with the same constructor
    /// arguments, [`TraceRecorder::restore_position`] reproduces the exact
    /// sampling grid of an uninterrupted run.
    #[must_use]
    pub fn position_json(&self) -> Json {
        Json::obj([
            ("next_step", hex_u64(self.next_step)),
            (
                "rows",
                Json::Arr(
                    self.rows
                        .iter()
                        .map(|(t, c)| {
                            Json::Arr(vec![
                                Json::from(*t),
                                Json::Arr(c.iter().map(|&v| hex_u64(v)).collect()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Restores a position captured by [`TraceRecorder::position_json`] into
    /// a recorder built with the same constructor arguments.
    ///
    /// # Errors
    ///
    /// Returns a message when the position payload is malformed.
    pub fn restore_position(&mut self, position: &Json) -> Result<(), String> {
        let next_step = parse_hex_u64(position.get("next_step").unwrap_or(&Json::Null))?;
        let rows_arr = position
            .get("rows")
            .and_then(Json::as_arr)
            .ok_or("trace position missing rows")?;
        let mut rows = Vec::with_capacity(rows_arr.len());
        for r in rows_arr {
            let pair = r.as_arr().filter(|p| p.len() == 2).ok_or("bad trace row")?;
            let t = pair[0].as_f64().ok_or("trace row time is not a number")?;
            let counts_arr = pair[1].as_arr().ok_or("trace row missing counts")?;
            let mut counts = Vec::with_capacity(counts_arr.len());
            for c in counts_arr {
                counts.push(parse_hex_u64(c)?);
            }
            rows.push((t, counts));
        }
        self.next_step = next_step;
        self.rows = rows;
        Ok(())
    }
}

impl Observer for TraceRecorder {
    fn observe(&mut self, steps: u64, sim: &dyn Simulator) {
        if steps < self.next_step {
            return;
        }
        let counts = self.states.iter().map(|&s| sim.count(s)).collect();
        self.rows.push((sim.time(), counts));
        let stride = (self.every_rounds * sim.n() as f64).max(1.0) as u64;
        self.next_step = steps + stride;
    }

    fn stride(&self, steps: u64, _sim: &dyn Simulator) -> u64 {
        self.next_step.saturating_sub(steps).max(1)
    }
}

/// Detects when a predicate over the counts has held continuously for a
/// window of parallel time, and records the time it *first started* holding.
///
/// This is the practical proxy for "convergence" in population protocols:
/// the output condition holds and keeps holding. (As the paper notes,
/// convergence is not locally detectable by the agents themselves; the
/// detector is an omniscient-observer construct.)
pub struct ConvergenceDetector<F> {
    predicate: F,
    window_rounds: f64,
    /// Step at which the predicate most recently started to hold.
    hold_start: Option<(u64, f64)>,
    converged_at: Option<f64>,
    check_stride: u64,
    next_check: u64,
}

impl<F: FnMut(&dyn Simulator) -> bool> ConvergenceDetector<F> {
    /// Creates a detector requiring `predicate` to hold for `window_rounds`
    /// consecutive rounds; the predicate is evaluated every `check_stride`
    /// steps (0 means every step).
    #[must_use]
    pub fn new(predicate: F, window_rounds: f64, check_stride: u64) -> Self {
        Self {
            predicate,
            window_rounds,
            hold_start: None,
            converged_at: None,
            check_stride: check_stride.max(1),
            next_check: 0,
        }
    }

    /// The parallel time at which the currently-holding streak began, if the
    /// predicate has held for at least the window.
    #[must_use]
    pub fn converged_at(&self) -> Option<f64> {
        self.converged_at
    }

    /// Whether convergence (predicate holding for the full window) has been
    /// confirmed.
    #[must_use]
    pub fn is_converged(&self) -> bool {
        self.converged_at.is_some()
    }
}

impl<F: FnMut(&dyn Simulator) -> bool> Observer for ConvergenceDetector<F> {
    fn observe(&mut self, steps: u64, sim: &dyn Simulator) {
        if steps < self.next_check || self.converged_at.is_some() {
            return;
        }
        self.next_check = steps + self.check_stride;
        if (self.predicate)(sim) {
            let (start_step, start_time) = *self.hold_start.get_or_insert((steps, sim.time()));
            let held_rounds = (steps - start_step) as f64 / sim.n() as f64;
            if held_rounds >= self.window_rounds {
                self.converged_at = Some(start_time);
            }
        } else {
            self.hold_start = None;
        }
    }

    fn stride(&self, steps: u64, _sim: &dyn Simulator) -> u64 {
        if self.converged_at.is_some() {
            u64::MAX
        } else {
            self.next_check.saturating_sub(steps).max(1)
        }
    }
}

/// Tracks how long the configuration has been unchanged (*silence* proxy).
///
/// A protocol is silent when no agent will ever change state again. True
/// silence is only decidable with reactivity information (see
/// [`crate::counts::CountPopulation`]); this observer instead reports
/// the last time the count vector changed, a useful empirical proxy.
#[derive(Debug, Clone, Default)]
pub struct LastChangeTracker {
    last_counts: Option<Vec<u64>>,
    last_change_time: f64,
    /// Steps between count snapshots; 0 means one parallel round.
    check_stride: u64,
}

impl LastChangeTracker {
    /// Creates a tracker that snapshots the counts once per parallel round.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a tracker that snapshots the counts every `check_stride`
    /// steps (0 means once per parallel round). Finer strides sharpen the
    /// last-change estimate at the cost of more `counts()` snapshots.
    #[must_use]
    pub fn with_stride(check_stride: u64) -> Self {
        Self {
            check_stride,
            ..Self::default()
        }
    }

    /// Parallel time of the most recent observed count change.
    #[must_use]
    pub fn last_change_time(&self) -> f64 {
        self.last_change_time
    }
}

impl Observer for LastChangeTracker {
    /// Compares the current counts against the previous snapshot in place,
    /// reusing the snapshot buffer — no allocation after the first call, so
    /// fine strides stay cheap even with large state spaces.
    fn observe(&mut self, _steps: u64, sim: &dyn Simulator) {
        let k = sim.num_states();
        match &mut self.last_counts {
            Some(prev) if prev.len() == k => {
                let mut changed = false;
                for (s, slot) in prev.iter_mut().enumerate() {
                    let c = sim.count(s);
                    if *slot != c {
                        *slot = c;
                        changed = true;
                    }
                }
                if changed {
                    self.last_change_time = sim.time();
                }
            }
            _ => {
                let prev = self.last_counts.get_or_insert_with(Vec::new);
                prev.clear();
                prev.extend((0..k).map(|s| sim.count(s)));
                self.last_change_time = sim.time();
            }
        }
    }

    fn stride(&self, _steps: u64, sim: &dyn Simulator) -> u64 {
        if self.check_stride == 0 {
            sim.n().max(1)
        } else {
            self.check_stride
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::Population;
    use crate::protocol::TableProtocol;
    use crate::rng::SimRng;
    use crate::sim::run_rounds;

    fn epidemic() -> TableProtocol {
        TableProtocol::new(2, "epidemic")
            .rule(1, 0, 1, 1)
            .rule(0, 1, 1, 1)
    }

    #[test]
    fn trace_recorder_samples_on_grid() {
        let mut pop = Population::from_counts(epidemic(), &[63, 1]);
        let mut trace = TraceRecorder::new(vec![0, 1], 2.0);
        let mut rng = SimRng::seed_from(1);
        run_rounds(&mut pop, 10.0, &mut rng, &mut [&mut trace]);
        let rows = trace.rows();
        assert!(rows.len() >= 5, "rows {}", rows.len());
        for w in rows.windows(2) {
            assert!(w[1].0 > w[0].0, "times increase");
        }
        // Total count per row equals n.
        for (_, c) in rows {
            assert_eq!(c.iter().sum::<u64>(), 64);
        }
    }

    #[test]
    fn convergence_detector_reports_onset_time() {
        let mut pop = Population::from_counts(epidemic(), &[255, 1]);
        let mut det = ConvergenceDetector::new(|s: &dyn Simulator| s.count(0) == 0, 3.0, 1);
        let mut rng = SimRng::seed_from(2);
        run_rounds(&mut pop, 100.0, &mut rng, &mut [&mut det]);
        let t = det.converged_at().expect("epidemic converged");
        assert!(t > 0.0 && t < 60.0, "onset {t}");
    }

    #[test]
    fn convergence_detector_resets_on_violation() {
        // Predicate which can never hold for the window because it keeps
        // being violated: count(0) is even.
        let mut pop = Population::from_counts(epidemic(), &[100, 1]);
        let mut det =
            ConvergenceDetector::new(|s: &dyn Simulator| s.count(0).is_multiple_of(2), 1000.0, 1);
        let mut rng = SimRng::seed_from(3);
        run_rounds(&mut pop, 5.0, &mut rng, &mut [&mut det]);
        assert!(!det.is_converged());
    }

    #[test]
    fn last_change_tracker_freezes_after_epidemic() {
        let mut pop = Population::from_counts(epidemic(), &[31, 1]);
        let mut tracker = LastChangeTracker::new();
        let mut rng = SimRng::seed_from(4);
        run_rounds(&mut pop, 200.0, &mut rng, &mut [&mut tracker]);
        assert_eq!(pop.count(0), 0);
        assert!(
            tracker.last_change_time() < 100.0,
            "no changes after completion: {}",
            tracker.last_change_time()
        );
    }
}
