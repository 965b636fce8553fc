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
//! schedule.

use crate::sim::Simulator;

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
