//! Run-scoped telemetry: one [`Recorder`] owns everything a run measures.
//!
//! A recorder holds the run's counters and log₂ histograms
//! ([`crate::metrics`]) and, when built with them, its edge-keyed section
//! times ([`crate::prof`]) and its per-batch regime-dispatch log
//! ([`DispatchRecord`]). Nothing is process-global: a run builds a
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

use crate::collision::batch_len;
use crate::json::Json;
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
/// times and the dispatch log when built with them.
#[derive(Debug)]
pub struct Recorder {
    counters: [u64; NUM_COUNTERS],
    hists: [[u64; HIST_BUCKETS]; NUM_HISTS],
    pub(crate) sections: Option<Box<SectionTable>>,
    dispatch: Option<Vec<DispatchRecord>>,
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
            dispatch: None,
        }
    }

    /// Also times the engine's sections ([`crate::prof`]; two clock reads
    /// per scope).
    #[must_use]
    pub fn with_sections(mut self) -> Self {
        self.sections = Some(Box::default());
        self
    }

    /// Also keeps one [`DispatchRecord`] per dense `step_batch` call.
    #[must_use]
    pub fn with_dispatch_log(mut self) -> Self {
        self.dispatch = Some(Vec::new());
        self
    }

    /// An empty recorder that captures what this one captures.
    #[must_use]
    pub fn like(&self) -> Self {
        Self {
            sections: self.sections.as_ref().map(|_| Box::default()),
            dispatch: self.dispatch.as_ref().map(|_| Vec::new()),
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

    /// Records one count batch: its outcome, its regime tallies, and —
    /// when this recorder keeps a dispatch log — its dispatch record.
    pub(crate) fn record_tallied_batch(&mut self, out: &BatchOutcome, tally: &BatchTally) {
        self.record_batch(out);
        if let Some(log) = &mut self.dispatch {
            log.push(tally.dispatch_record(out.executed));
        }
        for (counter, value) in [
            (Counter::CollisionEpochs, tally.epochs),
            (Counter::CollisionBatchedSteps, tally.epoch_steps),
            (Counter::ReactiveDenseSteps, tally.per_steps),
            (Counter::NoopLeaps, tally.leaps),
            (Counter::NoopStepsLeaped, tally.leaped),
            (
                Counter::DenseFallbackEntries,
                u64::from(tally.dense_fallback),
            ),
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

    /// Adds everything `other` recorded into this recorder; its dispatch
    /// records follow this one's. Section times merge only when both
    /// recorders time sections.
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
        if let (Some(mine), Some(theirs)) = (&mut self.dispatch, other.dispatch) {
            mine.extend(theirs);
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

    /// The dispatch records in arrival order (empty unless built
    /// [`Recorder::with_dispatch_log`]).
    #[must_use]
    pub fn dispatch(&self) -> &[DispatchRecord] {
        self.dispatch.as_deref().unwrap_or(&[])
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

/// One regime-dispatch decision: why a dense backend's `step_batch` picked
/// the regime it did, and what then actually ran.
///
/// `regime` is the first regime chosen at batch entry; a long batch may
/// cross regime boundaries as counts evolve, so the per-regime tallies
/// (`collision_epochs`, `leaps`, `per_steps`) describe the whole batch.
/// Serialized as a `{"kind":"dispatch",...}` line of a `ppsim --record`
/// run record (`DESIGN.md` §14).
#[derive(Debug, Clone, PartialEq)]
pub struct DispatchRecord {
    /// Backend type name (e.g. `"CountPopulation"`).
    pub backend: &'static str,
    /// Population size `n`.
    pub n: u64,
    /// Occupied states at batch entry, where the backend tracks them.
    pub occupied: Option<u64>,
    /// Reactive ordered agent pairs at batch entry, each counted with its
    /// rule weight (`W` of the sparse leap; plain pairs on
    /// `CountPopulation`, whose scale is 1); 0 where unknown.
    pub pairs: u64,
    /// The weight scale: rule draws per interaction.
    pub scale: u64,
    /// Probability `p = pairs / (n(n−1)·scale)` that one interaction is
    /// effective; NaN where `pairs` is unknown.
    pub p: f64,
    /// Interactions per collision batch at batch entry,
    /// `collision::batch_len(n, occupied)`; NaN on backends without
    /// collision batches.
    pub expected_epoch: f64,
    /// First regime chosen at batch entry: `"collision"`, `"per_step"`,
    /// `"leap"`, `"dense_fallback"`, or `"silent"`.
    pub regime: &'static str,
    /// Interactions executed by the batch.
    pub executed: u64,
    /// Collision epochs run during the batch.
    pub collision_epochs: u64,
    /// Geometric no-op leaps taken during the batch.
    pub leaps: u64,
    /// Individually sampled (per-step / dense-fallback) interactions.
    pub per_steps: u64,
}

impl DispatchRecord {
    /// Renders the record as a `{"kind":"dispatch",...}` JSON document.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("kind", Json::from("dispatch")),
            ("backend", Json::from(self.backend)),
            ("n", Json::from(self.n)),
            ("occupied", self.occupied.map_or(Json::Null, Json::from)),
            ("pairs", Json::from(self.pairs)),
            ("scale", Json::from(self.scale)),
            ("p", Json::from(self.p)),
            ("expected_epoch", Json::from(self.expected_epoch)),
            ("regime", Json::from(self.regime)),
            ("executed", Json::from(self.executed)),
            ("collision_epochs", Json::from(self.collision_epochs)),
            ("leaps", Json::from(self.leaps)),
            ("per_steps", Json::from(self.per_steps)),
        ])
    }
}

/// One count-backend `step_batch` call's regime tallies.
///
/// Leap- and epoch-heavy batches fire thousands of capture points each;
/// the batch loop counts them into this local tally, which holds only the
/// regime counters and the two histograms those points touch, and hands
/// it to the run's recorder once at batch end, where it feeds the
/// counters and forms the batch's [`DispatchRecord`].
#[derive(Debug)]
pub(crate) struct BatchTally {
    backend: &'static str,
    /// Population size, occupied states (when tracked) and weighted
    /// reactive ordered pairs (when known) at batch entry, and the weight
    /// scale: `p = pairs / (n(n−1)·scale)`.
    n: u64,
    occupied: Option<u64>,
    pairs: Option<u64>,
    scale: u64,
    /// First regime chosen; `None` when the batch entered silent.
    first: Option<&'static str>,
    /// Collision batches and the activations they settled, per-step steps,
    /// no-op leaps and the activations they skipped.
    epochs: u64,
    epoch_steps: u64,
    per_steps: u64,
    leaps: u64,
    leaped: u64,
    /// Whether the batch ran the dense loop above the batch state limit.
    dense_fallback: bool,
    /// `Hist::LeapLen` and `Hist::EpochLen` buckets.
    leap_len: [u64; HIST_BUCKETS],
    epoch_len: [u64; HIST_BUCKETS],
}

impl BatchTally {
    /// An empty tally of a `backend` batch entering with `pairs` among `n`
    /// agents in `occupied` states, over a weight scale of `scale`.
    fn empty(
        backend: &'static str,
        n: u64,
        occupied: Option<u64>,
        pairs: Option<u64>,
        scale: u64,
    ) -> Self {
        Self {
            backend,
            n,
            occupied,
            pairs,
            scale,
            first: None,
            epochs: 0,
            epoch_steps: 0,
            per_steps: 0,
            leaps: 0,
            leaped: 0,
            dense_fallback: false,
            leap_len: [0; HIST_BUCKETS],
            epoch_len: [0; HIST_BUCKETS],
        }
    }

    /// An empty `CountPopulation` tally for a batch entering with `pairs`
    /// reactive ordered pairs among `n` agents in `occupied` states.
    pub(crate) fn new(n: u64, occupied: u64, pairs: u64) -> Self {
        Self::empty("CountPopulation", n, Some(occupied), Some(pairs), 1)
    }

    /// A `CountPopulation` batch that ran the uncached dense loop: no
    /// reactivity index, so its occupancy and reactive pairs are unknown.
    pub(crate) fn dense_fallback(n: u64) -> Self {
        Self {
            first: Some("dense_fallback"),
            dense_fallback: true,
            ..Self::empty("CountPopulation", n, None, None, 1)
        }
    }

    /// An empty `SparseCountPopulation` tally: `weight` is `W`, the
    /// rule-weighted reactive pairs over a weight scale of `scale`, known
    /// when the batch enters leaping.
    pub(crate) fn sparse(n: u64, occupied: u64, weight: Option<u64>, scale: u64) -> Self {
        Self::empty("SparseCountPopulation", n, Some(occupied), weight, scale)
    }

    /// One collision batch that settled `steps` activations.
    #[inline]
    pub(crate) fn epoch(&mut self, steps: u64) {
        self.first.get_or_insert("collision");
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
        self.first.get_or_insert("per_step");
        self.per_steps += steps;
    }

    /// One geometric no-op leap that skipped `skip` activations.
    #[inline]
    pub(crate) fn leap(&mut self, skip: u64) {
        self.first.get_or_insert("leap");
        self.leaps += 1;
        self.leaped += skip;
        self.leap_len[bucket_of(skip).min(HIST_BUCKETS - 1)] += 1;
    }

    /// The batch's dispatch record. Unknown inputs (a dense-fallback
    /// batch's pairs, a per-step sparse batch's `W`) give a NaN `p`,
    /// rendered as JSON null; a dense-fallback batch counts every executed
    /// interaction as a per-step one.
    fn dispatch_record(&self, executed: u64) -> DispatchRecord {
        let per_steps = if self.dense_fallback {
            executed
        } else {
            self.per_steps
        };
        let p = self.pairs.map_or(f64::NAN, |pairs| {
            pairs as f64 / (self.n * (self.n - 1)) as f64 / self.scale as f64
        });
        DispatchRecord {
            backend: self.backend,
            n: self.n,
            occupied: self.occupied,
            pairs: self.pairs.unwrap_or(0),
            scale: self.scale,
            p,
            // The collision batch length at batch entry, for the one
            // backend with collision batches; worked out here, not per
            // batch, since only dispatch logs read it.
            expected_epoch: match (self.backend, self.occupied) {
                ("CountPopulation", Some(q)) => batch_len(self.n, q as usize) as f64,
                _ => f64::NAN,
            },
            regime: self.first.unwrap_or("silent"),
            executed,
            collision_epochs: self.epochs,
            leaps: self.leaps,
            per_steps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_feeds_the_counters_and_forms_the_dispatch_record() {
        let out = BatchOutcome {
            executed: 520,
            changed: 9,
            silent: true,
        };
        let mut tally = BatchTally::new(1000, 3, 9_990);
        tally.leap(5);
        tally.leap(9);
        tally.per_step();
        tally.epoch(500);
        let mut tallied = Recorder::new().with_dispatch_log();
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
        let [d] = tallied.dispatch() else {
            panic!("one batch, one record")
        };
        assert_eq!(d.regime, "leap", "first regime chosen wins");
        assert_eq!((d.collision_epochs, d.leaps, d.per_steps), (1, 2, 1));
        assert_eq!((d.n, d.pairs, d.executed), (1000, 9_990, 520));
        assert_eq!(
            (d.backend, d.occupied, d.scale),
            ("CountPopulation", Some(3), 1)
        );
        assert_eq!(d.p, 0.01);
        assert_eq!(
            d.expected_epoch,
            batch_len(1000, d.occupied.unwrap() as usize) as f64
        );
        // A batch that entered silent, and one on the uncached dense loop,
        // which counts every executed interaction as a per-step one.
        tallied.record_tallied_batch(&out, &BatchTally::new(1000, 1, 0));
        tallied.record_tallied_batch(&out, &BatchTally::dense_fallback(100));
        // A sparse batch that entered leaping with W = 66 over a scale of
        // 33, and one that entered per step, with W unknown.
        let mut leaping = BatchTally::sparse(100, 7, Some(66), 33);
        leaping.leap(3);
        leaping.per_steps(4);
        tallied.record_tallied_batch(&out, &leaping);
        let mut stepping = BatchTally::sparse(100, 7, None, 33);
        stepping.per_steps(520);
        tallied.record_tallied_batch(&out, &stepping);
        let [_, silent, fallback, leaping, stepping] = tallied.dispatch() else {
            panic!("five batches, five records")
        };
        assert_eq!(leaping.backend, "SparseCountPopulation");
        assert_eq!(
            (leaping.regime, leaping.leaps, leaping.per_steps),
            ("leap", 1, 4)
        );
        assert_eq!(
            (leaping.pairs, leaping.scale, leaping.occupied),
            (66, 33, Some(7))
        );
        assert_eq!(leaping.p, 66.0 / 9_900.0 / 33.0);
        assert!(leaping.expected_epoch.is_nan());
        assert_eq!((stepping.regime, stepping.per_steps), ("per_step", 520));
        assert!(stepping.p.is_nan());
        assert_eq!(silent.regime, "silent");
        assert_eq!(
            (fallback.regime, fallback.per_steps),
            ("dense_fallback", 520)
        );
        assert!(fallback.p.is_nan() && fallback.expected_epoch.is_nan());
        assert_eq!(tallied.metrics().counter("dense_fallback_entries"), 1);
        assert_eq!(
            tallied.metrics().counter("reactive_dense_steps"),
            1 + 4 + 520
        );
    }

    #[test]
    fn dispatch_record_renders_as_jsonl_object() {
        let rec = DispatchRecord {
            backend: "CountPopulation",
            n: 1_000_000,
            occupied: Some(3),
            pairs: 999_999_000_000,
            scale: 1,
            p: 0.999_999,
            expected_epoch: 626.657,
            regime: "collision",
            executed: 1_000_000,
            collision_epochs: 1595,
            leaps: 0,
            per_steps: 0,
        };
        let doc = rec.to_json();
        assert_eq!(doc.get("kind").and_then(Json::as_str), Some("dispatch"));
        assert_eq!(doc.get("n").and_then(Json::as_u64), Some(1_000_000));
        let back = Json::parse(&doc.render()).unwrap();
        assert_eq!(back.get("regime").and_then(Json::as_str), Some("collision"));
        assert_eq!(
            back.get("collision_epochs").and_then(Json::as_u64),
            Some(1595)
        );
    }

    #[test]
    fn load_replaces_counters_and_histograms() {
        let mut saved = Recorder::new();
        saved.add(Counter::FenwickRebuilds, 4);
        saved.observe(Hist::EpochLen, 3);
        let report = saved.metrics();
        let mut rec = Recorder::new();
        rec.add(Counter::BatchCacheRebuilds, 9);
        rec.observe(Hist::EpochLen, 1 << 40);
        rec.load(&report);
        assert_eq!(rec.metrics(), report);
    }
}
