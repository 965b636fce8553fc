//! Run-scoped telemetry: one [`Recorder`] owns everything a run measures.
//!
//! A recorder holds the run's counters and log₂ histograms
//! ([`crate::metrics`]) and, when built with them, its path-keyed section
//! times ([`crate::prof`]). The regime counters (`collision_epochs`,
//! `noop_leaps`, `reactive_dense_steps`) are the record of every regime
//! decision. Nothing is process-global: a run builds a
//! recorder, [`Recorder::install`]s it on its thread for the duration of
//! the run, and reads the reports off it afterwards. Runs on other threads
//! — concurrent tests, sweep tasks, abandoned sweep attempts — record into
//! their own recorders and cannot disturb it.
//!
//! The backends reach the installed recorder through one `const`,
//! destructor-free thread-local slot. They read it once per batch and
//! branch on the cached result, so with no recorder installed telemetry
//! costs that single load plus never-taken branches.
//!
//! [`crate::sweep`] gives each task a fresh recorder configured like the
//! caller's and merges them back in task-index order after the join, so a
//! sweep's report does not depend on its worker count.
//! [`crate::snapshot::RunSnapshot`] captures the installed recorder's
//! counters, and restores them into a recorder that the caller installs
//! only once the simulator is restored.
//!
//! # Examples
//!
//! ```
//! use pp_engine::counts::CountPopulation;
//! use pp_engine::protocol::TableProtocol;
//! use pp_engine::recorder::Recorder;
//! use pp_engine::rng::SimRng;
//! use pp_engine::sim::Simulator;
//!
//! let p = TableProtocol::new(2, "token").rule(1, 0, 0, 1);
//! let mut pop = CountPopulation::from_counts(&p, &[9_990, 10]);
//! let mut recorder = Recorder::new();
//! {
//!     let _installed = recorder.install();
//!     pop.step_batch(&mut SimRng::seed_from(1), 100_000);
//! }
//! let report = recorder.metrics();
//! assert_eq!(report.counter("interactions_executed"), 100_000);
//! assert!(report.counter("noop_leaps") > 0, "sparse run must leap");
//! ```

use crate::metrics::{bucket_of, Counter, Hist, MetricsReport, HIST_BUCKETS};
use crate::prof::{ProfReport, SectionTable};
use crate::sim::BatchOutcome;
use std::cell::Cell;
use std::ptr;

const NUM_COUNTERS: usize = Counter::ALL.len();
const NUM_HISTS: usize = Hist::ALL.len();

thread_local! {
    /// The recorder installed on this thread, or null.
    static CURRENT: Cell<*mut Recorder> = const { Cell::new(ptr::null_mut()) };
}

/// Everything one run measures: counters and histograms always, section
/// times when built with them.
#[derive(Debug)]
pub struct Recorder {
    counters: [u64; NUM_COUNTERS],
    hists: [[u64; HIST_BUCKETS]; NUM_HISTS],
    pub(crate) sections: Option<Box<SectionTable>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A recorder of counters and histograms only.
    #[must_use]
    pub fn new() -> Self {
        Self {
            counters: [0; NUM_COUNTERS],
            hists: [[0; HIST_BUCKETS]; NUM_HISTS],
            sections: None,
        }
    }

    /// Also times the engine's sections ([`crate::prof`]; two clock reads
    /// per scope).
    #[must_use]
    pub fn with_sections(mut self) -> Self {
        self.sections = Some(Box::default());
        self
    }

    /// An empty recorder that captures what this one captures.
    #[must_use]
    pub fn like(&self) -> Self {
        Self {
            sections: self.sections.as_ref().map(|_| Box::default()),
            ..Self::new()
        }
    }

    /// Installs this recorder on the current thread until the guard drops;
    /// the recorder installed before it, if any, comes back then.
    ///
    /// While installed, the recorder's contents live on the heap, owned by
    /// the guard, and the slot points there; the drop moves them back. A
    /// guard that is leaked (`mem::forget`) leaks that copy with it, so the
    /// slot never points at freed memory — the recorder is then left empty.
    pub fn install(&mut self) -> Installed<'_> {
        let this = Box::into_raw(Box::new(std::mem::take(self)));
        Installed {
            this,
            prev: CURRENT.replace(this),
            home: self,
        }
    }

    /// Adds `delta` to a counter.
    pub(crate) fn add(&mut self, counter: Counter, delta: u64) {
        self.counters[counter as usize] += delta;
    }

    /// Records `value` into a histogram.
    pub(crate) fn observe(&mut self, hist: Hist, value: u64) {
        self.hists[hist as usize][bucket_of(value).min(HIST_BUCKETS - 1)] += 1;
    }

    /// Records the aggregate of one `step_batch` call: executed and changed
    /// interactions, the batch counter, the batch-size histogram, and
    /// silence detection.
    pub(crate) fn record_batch(&mut self, out: &BatchOutcome) {
        self.add(Counter::InteractionsExecuted, out.executed);
        self.add(Counter::InteractionsChanged, out.changed);
        self.add(Counter::Batches, 1);
        self.observe(Hist::BatchSize, out.executed);
        self.add(Counter::SilenceDetections, u64::from(out.silent));
    }

    /// Records one count batch: its outcome and its regime tallies.
    pub(crate) fn record_tallied_batch(&mut self, out: &BatchOutcome, tally: &BatchTally) {
        self.record_batch(out);
        for (counter, value) in [
            (Counter::CollisionEpochs, tally.epochs),
            (Counter::CollisionBatchedSteps, tally.epoch_steps),
            (Counter::ReactiveDenseSteps, tally.per_steps),
            (Counter::NoopLeaps, tally.leaps),
            (Counter::NoopStepsLeaped, tally.leaped),
        ] {
            self.add(counter, value);
        }
        // No leap or batch of this call settled more than it executed, so
        // the buckets above `out.executed`'s are empty.
        let top = bucket_of(out.executed).min(HIST_BUCKETS - 1);
        for (hist, buckets) in [
            (Hist::LeapLen, &tally.leap_len),
            (Hist::EpochLen, &tally.epoch_len),
        ] {
            debug_assert!(buckets[top + 1..].iter().all(|&c| c == 0));
            let mine = &mut self.hists[hist as usize][..=top];
            for (a, b) in mine.iter_mut().zip(buckets) {
                *a += b;
            }
        }
    }

    /// Adds everything `other` recorded into this recorder. Section times
    /// merge only when both recorders time sections.
    pub fn merge(&mut self, other: Recorder) {
        for (a, b) in self.counters.iter_mut().zip(&other.counters) {
            *a += b;
        }
        for (a, b) in self
            .hists
            .iter_mut()
            .flatten()
            .zip(other.hists.iter().flatten())
        {
            *a += b;
        }
        if let (Some(mine), Some(theirs)) = (&mut self.sections, &other.sections) {
            mine.merge(theirs);
        }
    }

    /// Replaces the counters and histograms with a previously captured
    /// report's; counters and buckets absent from it become zero.
    pub(crate) fn load(&mut self, report: &MetricsReport) {
        for c in Counter::ALL {
            self.counters[c as usize] = report.counter(c.name());
        }
        for h in Hist::ALL {
            let buckets = report.hist(h.name()).unwrap_or(&[]);
            for (i, slot) in self.hists[h as usize].iter_mut().enumerate() {
                *slot = buckets.get(i).copied().unwrap_or(0);
            }
        }
    }

    /// The counters and histograms as a report.
    #[must_use]
    pub fn metrics(&self) -> MetricsReport {
        MetricsReport::from_raw(&self.counters, &self.hists)
    }

    /// The section tree (empty unless built [`Recorder::with_sections`]).
    #[must_use]
    pub fn profile(&self) -> ProfReport {
        self.sections
            .as_ref()
            .map_or_else(ProfReport::default, |t| t.report())
    }
}

/// A recorder installed on the current thread; uninstalls on drop.
///
/// Holds the recorder's unique borrow, so the recorder cannot be read,
/// moved or installed again while the run records into it. Guards should
/// drop in reverse order of installation; one dropped out of order leaves
/// the thread with no recorder rather than a stale one.
#[must_use = "the recorder is installed only until the guard drops"]
#[derive(Debug)]
pub struct Installed<'a> {
    /// The installed contents, from `Box::into_raw`; freed only by `drop`.
    this: *mut Recorder,
    prev: *mut Recorder,
    home: &'a mut Recorder,
}

impl Drop for Installed<'_> {
    fn drop(&mut self) {
        let top = CURRENT.get() == self.this;
        CURRENT.set(if top { self.prev } else { ptr::null_mut() });
        // SAFETY: `this` came from `Box::into_raw` in `install` and is freed
        // only here. The slot no longer points at it, and no guard can put
        // it back: only a guard installed on top of this one holds it as
        // `prev`, and such a guard restores `prev` only while it is the top
        // of the slot, which the line above has ended.
        *self.home = *unsafe { Box::from_raw(self.this) };
    }
}

/// Runs `f` on the current thread's recorder, if one is installed. The
/// slot is empty while `f` runs, so capture points reached from `f` record
/// nothing instead of aliasing the recorder.
#[inline]
pub(crate) fn with<R>(f: impl FnOnce(&mut Recorder) -> R) -> Option<R> {
    let p = CURRENT.get();
    if p.is_null() {
        return None;
    }
    CURRENT.set(ptr::null_mut());
    // SAFETY: the slot holds a non-null pointer only while the `Installed`
    // guard that stored it is alive (or leaked), and the guard keeps no
    // reference to the pointee; the slot is empty while `f` runs, so this
    // is the only reference derived from it.
    let out = f(unsafe { &mut *p });
    CURRENT.set(p);
    Some(out)
}

/// What the current thread's recorder captures, read once per batch so hot
/// loops branch on plain bools: `on` when one is installed, `sections` when
/// it also times sections.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Capture {
    pub on: bool,
    pub sections: bool,
}

#[inline]
pub(crate) fn capture() -> Capture {
    with(|r| Capture {
        on: true,
        sections: r.sections.is_some(),
    })
    .unwrap_or_default()
}

/// Adds `delta` to a counter of the installed recorder, if any.
#[inline]
pub(crate) fn add(counter: Counter, delta: u64) {
    with(|r| r.add(counter, delta));
}

/// Records one batch outcome into the installed recorder, if any. Kept
/// out of line: it runs once per batch, and inlined it would grow every
/// backend's batch loop.
#[inline(never)]
pub(crate) fn record_batch(out: &BatchOutcome) {
    with(|r| r.record_batch(out));
}

/// A frozen copy of the installed recorder's counters and histograms.
#[must_use]
pub fn installed_metrics() -> Option<MetricsReport> {
    with(|r| r.metrics())
}

/// One count-backend `step_batch` call's regime tallies.
///
/// Leap- and epoch-heavy batches fire thousands of capture points each;
/// the batch loop counts them into this local tally, which holds only the
/// regime counters and the two histograms those points touch, and hands
/// it to the run's recorder once at batch end, where it feeds the
/// counters.
#[derive(Debug)]
pub(crate) struct BatchTally {
    /// Collision batches and the activations they settled, per-step steps,
    /// no-op leaps and the activations they skipped.
    epochs: u64,
    epoch_steps: u64,
    per_steps: u64,
    leaps: u64,
    leaped: u64,
    /// `Hist::LeapLen` and `Hist::EpochLen` buckets.
    leap_len: [u64; HIST_BUCKETS],
    epoch_len: [u64; HIST_BUCKETS],
}

impl BatchTally {
    /// An empty tally.
    pub(crate) fn new() -> Self {
        Self {
            epochs: 0,
            epoch_steps: 0,
            per_steps: 0,
            leaps: 0,
            leaped: 0,
            leap_len: [0; HIST_BUCKETS],
            epoch_len: [0; HIST_BUCKETS],
        }
    }

    /// One collision batch that settled `steps` activations.
    #[inline]
    pub(crate) fn epoch(&mut self, steps: u64) {
        self.epochs += 1;
        self.epoch_steps += steps;
        self.epoch_len[bucket_of(steps).min(HIST_BUCKETS - 1)] += 1;
    }

    /// One individually sampled step in the per-step regime.
    #[inline]
    pub(crate) fn per_step(&mut self) {
        self.per_steps(1);
    }

    /// `steps` individually sampled steps in the per-step regime.
    #[inline]
    pub(crate) fn per_steps(&mut self, steps: u64) {
        self.per_steps += steps;
    }

    /// One geometric no-op leap that skipped `skip` activations.
    #[inline]
    pub(crate) fn leap(&mut self, skip: u64) {
        self.leaps += 1;
        self.leaped += skip;
        self.leap_len[bucket_of(skip).min(HIST_BUCKETS - 1)] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_feeds_the_counters() {
        let out = BatchOutcome {
            executed: 520,
            changed: 9,
            silent: true,
        };
        let mut tally = BatchTally::new();
        tally.leap(5);
        tally.leap(9);
        tally.per_step();
        tally.epoch(500);
        let mut tallied = Recorder::new();
        tallied.record_tallied_batch(&out, &tally);
        let mut direct = Recorder::new();
        direct.record_batch(&out);
        direct.add(Counter::NoopLeaps, 2);
        direct.add(Counter::NoopStepsLeaped, 14);
        direct.observe(Hist::LeapLen, 5);
        direct.observe(Hist::LeapLen, 9);
        direct.add(Counter::ReactiveDenseSteps, 1);
        direct.add(Counter::CollisionEpochs, 1);
        direct.add(Counter::CollisionBatchedSteps, 500);
        direct.observe(Hist::EpochLen, 500);
        assert_eq!(tallied.metrics(), direct.metrics());
        // An empty tally adds only the batch.
        tallied.record_tallied_batch(&out, &BatchTally::new());
        let mut stepping = BatchTally::new();
        stepping.per_steps(520);
        tallied.record_tallied_batch(&out, &stepping);
        let m = tallied.metrics();
        assert_eq!(m.counter("batches"), 3);
        assert_eq!(m.counter("reactive_dense_steps"), 1 + 520);
        assert_eq!(m.counter("noop_leaps"), 2);
    }

    #[test]
    fn load_replaces_counters_and_histograms() {
        let mut saved = Recorder::new();
        saved.add(Counter::CollisionEpochs, 4);
        saved.observe(Hist::EpochLen, 3);
        let report = saved.metrics();
        let mut rec = Recorder::new();
        rec.add(Counter::BatchCacheRebuilds, 9);
        rec.observe(Hist::EpochLen, 1 << 40);
        rec.load(&report);
        assert_eq!(rec.metrics(), report);
    }
}
