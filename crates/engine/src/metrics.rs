//! Engine-wide telemetry: hot-path counters and log₂-bucketed histograms.
//!
//! The simulation backends are fast because they do almost nothing per
//! interaction; a measurement layer must not change that. This module keeps
//! one process-global registry of relaxed atomic counters behind a single
//! `enabled` flag:
//!
//! * **Disabled (default):** every capture point is one relaxed atomic load
//!   and a predicted-not-taken branch, hoisted out of inner loops — each
//!   `step_batch` call pays the check once, not per step. No allocation, no
//!   locks, no timestamps.
//! * **Enabled:** capture points add to shared atomics with relaxed
//!   ordering. Sweep worker threads aggregate into the same registry, so a
//!   snapshot reflects the whole process.
//!
//! Capture points live on the hot paths of all four backends: interactions
//! executed/changed, no-op leap counts and leap-length distribution
//! ([`Hist::LeapLen`]), `CountPopulation` dense-fallback entries, Fenwick
//! (re)builds, batch-cache rebuilds, batch sizes, observer callbacks,
//! matching rounds, silence detections, and sweep task timings.
//!
//! [`snapshot`] freezes the registry into a [`MetricsReport`] that renders
//! to JSON via [`crate::json`]; `ppsim --metrics <path>` and the bench
//! binaries write these reports next to their other outputs.
//!
//! # Examples
//!
//! ```
//! use pp_engine::counts::CountPopulation;
//! use pp_engine::metrics;
//! use pp_engine::protocol::TableProtocol;
//! use pp_engine::rng::SimRng;
//! use pp_engine::sim::Simulator;
//!
//! metrics::reset();
//! metrics::enable();
//! let p = TableProtocol::new(2, "token").rule(1, 0, 0, 1);
//! let mut pop = CountPopulation::from_counts(&p, &[9_990, 10]);
//! pop.step_batch(&mut SimRng::seed_from(1), 100_000);
//! let report = metrics::snapshot();
//! metrics::disable();
//! assert_eq!(report.counter("interactions_executed"), 100_000);
//! assert!(report.counter("noop_leaps") > 0, "sparse run must leap");
//! ```

use crate::json::Json;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Number of log₂ buckets per histogram: bucket `i` holds values in
/// `[2^(i−1), 2^i)` (bucket 0 holds the value 0).
pub const HIST_BUCKETS: usize = 64;

/// Plain event counters maintained by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Scheduler activations executed (including leaped-over no-ops).
    InteractionsExecuted,
    /// Activations that changed at least one agent's state.
    InteractionsChanged,
    /// Geometric no-op leaps taken (each skips ≥ 0 activations in `O(1)`).
    NoopLeaps,
    /// Total activations skipped by no-op leaps.
    NoopStepsLeaped,
    /// `step_batch` calls that ran without a reactivity index because the
    /// state space exceeds `CountPopulation`'s `BATCH_STATE_LIMIT`.
    DenseFallbackEntries,
    /// Plain Fenwick-sampled steps taken in the reactive-dense regime,
    /// where a geometric draw would cost more than it skips.
    ReactiveDenseSteps,
    /// Fenwick trees built from a full weight vector.
    FenwickRebuilds,
    /// `CountPopulation` reactivity indexes built (first batch, or after an
    /// out-of-band count edit invalidated the index).
    BatchCacheRebuilds,
    /// `step_batch` calls across all backends.
    Batches,
    /// Observer checkpoint callbacks delivered by the run loops.
    ObserverCallbacks,
    /// Batches that ended with the configuration known silent.
    SilenceDetections,
    /// Random-matching rounds executed.
    MatchingRounds,
    /// Sweep tasks completed.
    SweepTasks,
    /// Fault injections applied by [`crate::faults::FaultyPopulation`].
    FaultInjections,
    /// Agents whose state a fault injection actually changed.
    FaultAgentsMoved,
    /// Resilient-sweep task attempts retried after a panic or timeout.
    SweepRetries,
    /// Resilient-sweep task attempts that panicked.
    SweepPanics,
    /// Resilient-sweep task attempts that exceeded their deadline.
    SweepTimeouts,
    /// Collision-free epochs executed by the contingency-table batch path.
    CollisionEpochs,
    /// Activations settled in bulk via contingency-table epochs (includes
    /// the per-epoch boundary interaction processed individually).
    CollisionBatchedSteps,
    /// Dispatch decisions that chose the collision-epoch regime (one per
    /// epoch run by the dense batch loops).
    RegimeCollision,
    /// Dispatch decisions that chose the geometric no-op-leap regime.
    RegimeLeap,
    /// Dispatch decisions that chose the per-step Fenwick-sampled regime.
    RegimePerStep,
    /// Dispatch decisions that fell back to the uncached dense loop (one
    /// per `step_batch` call with `k` over the batch-cache limit).
    RegimeDenseFallback,
}

impl Counter {
    /// All counters, in report order.
    pub const ALL: [Counter; 24] = [
        Counter::InteractionsExecuted,
        Counter::InteractionsChanged,
        Counter::NoopLeaps,
        Counter::NoopStepsLeaped,
        Counter::DenseFallbackEntries,
        Counter::ReactiveDenseSteps,
        Counter::FenwickRebuilds,
        Counter::BatchCacheRebuilds,
        Counter::Batches,
        Counter::ObserverCallbacks,
        Counter::SilenceDetections,
        Counter::MatchingRounds,
        Counter::SweepTasks,
        Counter::FaultInjections,
        Counter::FaultAgentsMoved,
        Counter::SweepRetries,
        Counter::SweepPanics,
        Counter::SweepTimeouts,
        Counter::CollisionEpochs,
        Counter::CollisionBatchedSteps,
        Counter::RegimeCollision,
        Counter::RegimeLeap,
        Counter::RegimePerStep,
        Counter::RegimeDenseFallback,
    ];

    /// Stable snake_case name used in reports.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Counter::InteractionsExecuted => "interactions_executed",
            Counter::InteractionsChanged => "interactions_changed",
            Counter::NoopLeaps => "noop_leaps",
            Counter::NoopStepsLeaped => "noop_steps_leaped",
            Counter::DenseFallbackEntries => "dense_fallback_entries",
            Counter::ReactiveDenseSteps => "reactive_dense_steps",
            Counter::FenwickRebuilds => "fenwick_rebuilds",
            Counter::BatchCacheRebuilds => "batch_cache_rebuilds",
            Counter::Batches => "batches",
            Counter::ObserverCallbacks => "observer_callbacks",
            Counter::SilenceDetections => "silence_detections",
            Counter::MatchingRounds => "matching_rounds",
            Counter::SweepTasks => "sweep_tasks",
            Counter::FaultInjections => "fault_injections",
            Counter::FaultAgentsMoved => "fault_agents_moved",
            Counter::SweepRetries => "sweep_retries",
            Counter::SweepPanics => "sweep_panics",
            Counter::SweepTimeouts => "sweep_timeouts",
            Counter::CollisionEpochs => "collision_epochs",
            Counter::CollisionBatchedSteps => "collision_batched_steps",
            Counter::RegimeCollision => "regime_collision",
            Counter::RegimeLeap => "regime_leap",
            Counter::RegimePerStep => "regime_per_step",
            Counter::RegimeDenseFallback => "regime_dense_fallback",
        }
    }
}

/// Log₂-bucketed histograms maintained by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Hist {
    /// Lengths of geometric no-op leaps (skipped activations per leap).
    LeapLen,
    /// Activations executed per `step_batch` call.
    BatchSize,
    /// Wall-clock microseconds per sweep task.
    SweepTaskMicros,
    /// Activations settled per collision-free epoch (the batch-size
    /// distribution of the contingency-table path, ≈ √n/2 in expectation).
    EpochLen,
}

impl Hist {
    /// All histograms, in report order.
    pub const ALL: [Hist; 4] = [
        Hist::LeapLen,
        Hist::BatchSize,
        Hist::SweepTaskMicros,
        Hist::EpochLen,
    ];

    /// Stable snake_case name used in reports.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Hist::LeapLen => "leap_len",
            Hist::BatchSize => "batch_size",
            Hist::SweepTaskMicros => "sweep_task_micros",
            Hist::EpochLen => "epoch_len",
        }
    }
}

const NUM_COUNTERS: usize = Counter::ALL.len();
const NUM_HISTS: usize = Hist::ALL.len();

static ENABLED: AtomicBool = AtomicBool::new(false);
static COUNTERS: [AtomicU64; NUM_COUNTERS] = [const { AtomicU64::new(0) }; NUM_COUNTERS];
static HISTS: [AtomicU64; NUM_HISTS * HIST_BUCKETS] =
    [const { AtomicU64::new(0) }; NUM_HISTS * HIST_BUCKETS];

/// Whether the registry is currently recording. Hot loops load this once
/// per batch and branch on the cached result.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on (all capture points start counting).
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns recording off. Counts accumulated so far are kept.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Zeroes every counter and histogram (recording state is unchanged).
pub fn reset() {
    for c in &COUNTERS {
        c.store(0, Ordering::Relaxed);
    }
    for b in &HISTS {
        b.store(0, Ordering::Relaxed);
    }
}

/// Adds `delta` to a counter. No-op while disabled; callers on per-step
/// paths should hoist [`enabled`] out of their loop instead of relying on
/// this check.
#[inline]
pub fn add(counter: Counter, delta: u64) {
    if enabled() {
        COUNTERS[counter as usize].fetch_add(delta, Ordering::Relaxed);
    }
}

/// The log₂ bucket index for `value` (0 → bucket 0, else `⌊log₂ v⌋ + 1`).
#[inline]
#[must_use]
pub fn bucket_of(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Records `value` into a histogram. No-op while disabled.
#[inline]
pub fn observe(hist: Hist, value: u64) {
    if enabled() {
        let idx = hist as usize * HIST_BUCKETS + bucket_of(value);
        HISTS[idx].fetch_add(1, Ordering::Relaxed);
    }
}

/// Records the aggregate of one `step_batch` call: executed/changed
/// interactions, the batch counter, the batch-size histogram, and silence
/// detection. Backends call this once per batch after checking [`enabled`].
#[inline]
pub fn record_batch(out: &crate::sim::BatchOutcome) {
    add(Counter::InteractionsExecuted, out.executed);
    add(Counter::InteractionsChanged, out.changed);
    add(Counter::Batches, 1);
    observe(Hist::BatchSize, out.executed);
    if out.silent {
        add(Counter::SilenceDetections, 1);
    }
}

/// Records one geometric no-op leap that skipped `skip` activations.
#[inline]
pub fn record_leap(skip: u64) {
    add(Counter::NoopLeaps, 1);
    add(Counter::NoopStepsLeaped, skip);
    observe(Hist::LeapLen, skip);
}

/// Adds `delta` observations to one bucket of a histogram. No-op while
/// disabled. Used by [`BatchScratch::flush`] to merge locally accumulated
/// bucket counts in one atomic add per non-empty bucket.
#[inline]
pub fn observe_bucket(hist: Hist, bucket: usize, delta: u64) {
    if enabled() {
        let idx = hist as usize * HIST_BUCKETS + bucket.min(HIST_BUCKETS - 1);
        HISTS[idx].fetch_add(delta, Ordering::Relaxed);
    }
}

/// Local accumulator for hot-loop capture points, flushed to the global
/// registry once per `step_batch` call.
///
/// Leap-heavy and epoch-heavy batches fire thousands of capture points per
/// batch; paying a shared atomic RMW for each one costs 15–22% of enabled
/// throughput. Backends instead stack-allocate a `BatchScratch`, record into
/// plain fields inside the loop, and call [`BatchScratch::flush`] once at
/// batch end — turning per-event atomics into at most a few dozen per batch
/// (one per counter plus one per non-empty histogram bucket).
#[derive(Debug)]
pub struct BatchScratch {
    leaps: u64,
    leaped_steps: u64,
    leap_hist: [u64; HIST_BUCKETS],
    dense_steps: u64,
    collision_epochs: u64,
    collision_steps: u64,
    epoch_hist: [u64; HIST_BUCKETS],
}

impl Default for BatchScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl BatchScratch {
    /// A zeroed scratch accumulator.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            leaps: 0,
            leaped_steps: 0,
            leap_hist: [0; HIST_BUCKETS],
            dense_steps: 0,
            collision_epochs: 0,
            collision_steps: 0,
            epoch_hist: [0; HIST_BUCKETS],
        }
    }

    /// Records one geometric no-op leap that skipped `skip` activations.
    #[inline]
    pub fn record_leap(&mut self, skip: u64) {
        self.leaps += 1;
        self.leaped_steps += skip;
        self.leap_hist[bucket_of(skip)] += 1;
    }

    /// Records one Fenwick-sampled step in the reactive-dense regime.
    #[inline]
    pub fn record_dense_step(&mut self) {
        self.dense_steps += 1;
    }

    /// Records one collision-free epoch that settled `steps` activations.
    #[inline]
    pub fn record_epoch(&mut self, steps: u64) {
        self.collision_epochs += 1;
        self.collision_steps += steps;
        self.epoch_hist[bucket_of(steps)] += 1;
    }

    /// Merges the accumulated events into the global registry. No-op while
    /// recording is disabled; callers may flush unconditionally.
    pub fn flush(&mut self) {
        if self.leaps > 0 {
            add(Counter::NoopLeaps, self.leaps);
            add(Counter::RegimeLeap, self.leaps);
            add(Counter::NoopStepsLeaped, self.leaped_steps);
            for (bucket, &count) in self.leap_hist.iter().enumerate() {
                if count > 0 {
                    observe_bucket(Hist::LeapLen, bucket, count);
                }
            }
        }
        if self.dense_steps > 0 {
            add(Counter::ReactiveDenseSteps, self.dense_steps);
            add(Counter::RegimePerStep, self.dense_steps);
        }
        if self.collision_epochs > 0 {
            add(Counter::CollisionEpochs, self.collision_epochs);
            add(Counter::RegimeCollision, self.collision_epochs);
            add(Counter::CollisionBatchedSteps, self.collision_steps);
            for (bucket, &count) in self.epoch_hist.iter().enumerate() {
                if count > 0 {
                    observe_bucket(Hist::EpochLen, bucket, count);
                }
            }
        }
        *self = Self::new();
    }
}

/// A frozen snapshot of the registry, suitable for reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsReport {
    counters: Vec<(&'static str, u64)>,
    hists: Vec<(&'static str, Vec<u64>)>,
    /// Free-form header describing the run that produced the snapshot
    /// (backend name, command, …) — set by the harness via
    /// [`MetricsReport::set_meta`], round-tripped through the JSON form.
    meta: Vec<(String, String)>,
}

/// Freezes the current registry contents into a [`MetricsReport`].
///
/// Individual counters are read with relaxed ordering, so a snapshot taken
/// while workers are recording is approximate (each counter is internally
/// consistent).
#[must_use]
pub fn snapshot() -> MetricsReport {
    let counters = Counter::ALL
        .iter()
        .map(|&c| (c.name(), COUNTERS[c as usize].load(Ordering::Relaxed)))
        .collect();
    let hists = Hist::ALL
        .iter()
        .map(|&h| {
            let base = h as usize * HIST_BUCKETS;
            let mut buckets: Vec<u64> = (0..HIST_BUCKETS)
                .map(|i| HISTS[base + i].load(Ordering::Relaxed))
                .collect();
            while buckets.last() == Some(&0) && buckets.len() > 1 {
                buckets.pop();
            }
            (h.name(), buckets)
        })
        .collect();
    MetricsReport {
        counters,
        hists,
        meta: Vec::new(),
    }
}

/// Overwrites the registry with the contents of a previously captured
/// report, so a resumed process continues counting exactly where the
/// interrupted one stopped ([`crate::snapshot`] stores a report alongside
/// the simulator state). Counters and histogram buckets absent from the
/// report are zeroed; the `enabled` flag and the report's meta entries are
/// untouched (meta describes a run, not the registry).
pub fn load(report: &MetricsReport) {
    for &c in &Counter::ALL {
        COUNTERS[c as usize].store(report.counter(c.name()), Ordering::Relaxed);
    }
    for &h in &Hist::ALL {
        let base = h as usize * HIST_BUCKETS;
        let buckets = report.hist(h.name()).unwrap_or(&[]);
        for i in 0..HIST_BUCKETS {
            let v = buckets.get(i).copied().unwrap_or(0);
            HISTS[base + i].store(v, Ordering::Relaxed);
        }
    }
}

/// Upper-exclusive value bound of log₂ bucket `i`: bucket 0 holds only the
/// value 0 (bound 1 = 2⁰), bucket `i ≥ 1` holds `[2^(i−1), 2^i)` (bound
/// `2^i`, saturating at `u64::MAX` for the last bucket).
#[must_use]
pub fn bucket_bound(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        1u64 << i
    }
}

impl MetricsReport {
    /// The value of a counter by report name (0 if unknown).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The bucket vector of a histogram by report name (trailing zero
    /// buckets trimmed), if present.
    #[must_use]
    pub fn hist(&self, name: &str) -> Option<&[u64]> {
        self.hists
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, b)| b.as_slice())
    }

    /// Total number of observations in a histogram.
    #[must_use]
    pub fn hist_count(&self, name: &str) -> u64 {
        self.hist(name).map_or(0, |b| b.iter().sum())
    }

    /// Attaches (or overwrites) a header entry describing the run — e.g.
    /// which backend executed it. Meta entries render under `"meta"` in the
    /// JSON form and survive [`MetricsReport::parse`].
    pub fn set_meta(&mut self, key: &str, value: &str) {
        if let Some(slot) = self.meta.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value.to_string();
        } else {
            self.meta.push((key.to_string(), value.to_string()));
        }
    }

    /// A header entry by key, if set.
    #[must_use]
    pub fn meta(&self, key: &str) -> Option<&str> {
        self.meta
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Renders the report as a JSON document.
    ///
    /// Each histogram carries its `log2_buckets` counts alongside
    /// `bucket_bounds`, the explicit upper-exclusive value bound of every
    /// bucket ([`bucket_bound`]) — the bucketing scheme is part of the
    /// document, not an implicit convention of the reader.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let meta = Json::obj(
            self.meta
                .iter()
                .map(|(k, v)| (k.clone(), Json::from(v.clone()))),
        );
        let counters = Json::obj(self.counters.iter().map(|&(name, v)| (name, Json::from(v))));
        let hists = Json::obj(self.hists.iter().map(|(name, buckets)| {
            (
                *name,
                Json::obj([
                    ("count", Json::from(buckets.iter().sum::<u64>())),
                    (
                        "log2_buckets",
                        Json::arr(buckets.iter().map(|&b| Json::from(b))),
                    ),
                    (
                        "bucket_bounds",
                        Json::arr((0..buckets.len()).map(|i| Json::from(bucket_bound(i)))),
                    ),
                ]),
            )
        }));
        Json::obj([
            ("kind", Json::from("metrics_report")),
            ("meta", meta),
            ("counters", counters),
            ("histograms", hists),
        ])
    }

    /// Writes the JSON rendering to `path`, creating parent directories.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from directory creation or the write.
    pub fn write_json(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut text = self.to_json().render();
        text.push('\n');
        std::fs::write(path, text)
    }

    /// Parses a report previously written by [`MetricsReport::write_json`].
    ///
    /// # Errors
    ///
    /// Returns a [`crate::json::JsonError`] on malformed input or a
    /// document that is not a metrics report.
    pub fn parse(text: &str) -> Result<Self, crate::json::JsonError> {
        let doc = Json::parse(text)?;
        let bad = |msg: &str| crate::json::JsonError {
            pos: 0,
            msg: msg.to_string(),
        };
        if doc.get("kind").and_then(Json::as_str) != Some("metrics_report") {
            return Err(bad("not a metrics_report document"));
        }
        let mut counters = Vec::new();
        for &known in &Counter::ALL {
            let v = doc
                .get("counters")
                .and_then(|c| c.get(known.name()))
                .and_then(Json::as_u64)
                .ok_or_else(|| bad("missing counter"))?;
            counters.push((known.name(), v));
        }
        let mut hists = Vec::new();
        for &known in &Hist::ALL {
            let buckets = doc
                .get("histograms")
                .and_then(|h| h.get(known.name()))
                .and_then(|h| h.get("log2_buckets"))
                .and_then(Json::as_arr)
                .ok_or_else(|| bad("missing histogram"))?
                .iter()
                .map(|b| b.as_u64().ok_or_else(|| bad("non-integer bucket")))
                .collect::<Result<Vec<u64>, _>>()?;
            // Bucket bounds are explicit in the document (when present, as
            // every writer since they were added emits them): verify they
            // describe the log₂ scheme this reader assumes.
            if let Some(bounds) = doc
                .get("histograms")
                .and_then(|h| h.get(known.name()))
                .and_then(|h| h.get("bucket_bounds"))
                .and_then(Json::as_arr)
            {
                if bounds.len() != buckets.len() {
                    return Err(bad("bucket_bounds length mismatch"));
                }
                // Compare as f64: JSON numbers are f64, and every bound is a
                // power of two ≤ 2⁶³, all of which f64 represents exactly —
                // whereas `as_u64` refuses integers above 2⁵³.
                #[allow(clippy::cast_precision_loss)]
                for (i, b) in bounds.iter().enumerate() {
                    if b.as_f64() != Some(bucket_bound(i) as f64) {
                        return Err(bad("bucket_bounds disagree with the log2 scheme"));
                    }
                }
            }
            hists.push((known.name(), buckets));
        }
        let mut meta = Vec::new();
        if let Some(pairs) = doc.get("meta").and_then(Json::as_obj) {
            for (k, v) in pairs {
                let v = v.as_str().ok_or_else(|| bad("non-string meta value"))?;
                meta.push((k.clone(), v.to_string()));
            }
        }
        Ok(MetricsReport {
            counters,
            hists,
            meta,
        })
    }
}

/// Serializes tests (across modules of this crate) that flip the global
/// `enabled` flag, so concurrently running tests don't observe each other's
/// recording windows.
#[cfg(test)]
pub(crate) static TEST_MUTEX: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global, so tests that enable/disable it hold
    // TEST_MUTEX for their whole recording window.

    #[test]
    fn bucket_of_is_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn disabled_capture_points_do_not_record() {
        let _guard = TEST_MUTEX.lock().unwrap_or_else(|e| e.into_inner());
        disable();
        let before = snapshot().counter("matching_rounds");
        add(Counter::MatchingRounds, 17);
        observe(Hist::SweepTaskMicros, 5);
        assert_eq!(snapshot().counter("matching_rounds"), before);
    }

    #[test]
    fn report_roundtrips_through_json() {
        let mut report = MetricsReport {
            counters: Counter::ALL
                .iter()
                .enumerate()
                .map(|(i, &c)| (c.name(), i as u64 * 1000))
                .collect(),
            hists: Hist::ALL
                .iter()
                .map(|&h| (h.name(), vec![1, 0, 3]))
                .collect(),
            meta: Vec::new(),
        };
        report.set_meta("backend", "CountPopulation");
        let text = report.to_json().render();
        let back = MetricsReport::parse(&text).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.hist_count("leap_len"), 4);
        assert_eq!(back.meta("backend"), Some("CountPopulation"));
    }

    #[test]
    fn report_roundtrip_property_seeded() {
        // Randomized round-trip: any report the writer can produce must
        // parse back bit-identically — counters, every histogram shape the
        // snapshot trimmer can emit, and meta headers included.
        let mut rng = crate::rng::SimRng::seed_from(0x5eed_4e7a);
        for case in 0..200 {
            let counters: Vec<(&'static str, u64)> = Counter::ALL
                .iter()
                .map(|&c| {
                    // JSON numbers are f64, so counters are exact only up to
                    // 2⁵³ — the writer/reader contract covers that range.
                    let v = match rng.below(4) {
                        0 => 0,
                        1 => rng.below(1 << 20),
                        2 => (1u64 << 53) - 1 - rng.below(5),
                        _ => rng.below(1 << 53),
                    };
                    (c.name(), v)
                })
                .collect();
            let hists: Vec<(&'static str, Vec<u64>)> = Hist::ALL
                .iter()
                .map(|&h| {
                    // Snapshot trims trailing zeros but never below length
                    // 1; mirror that shape family.
                    let len = 1 + rng.below(HIST_BUCKETS as u64) as usize;
                    let mut buckets: Vec<u64> = (0..len).map(|_| rng.below(1 << 30)).collect();
                    if len > 1 && *buckets.last().unwrap() == 0 {
                        *buckets.last_mut().unwrap() = 1;
                    }
                    (h.name(), buckets)
                })
                .collect();
            let mut report = MetricsReport {
                counters,
                hists,
                meta: Vec::new(),
            };
            for m in 0..rng.below(4) {
                report.set_meta(
                    &format!("key{m}"),
                    &format!("value {} #{case}", rng.below(99)),
                );
            }
            let text = report.to_json().render();
            let back = MetricsReport::parse(&text)
                .unwrap_or_else(|e| panic!("case {case} failed to parse: {e:?}"));
            assert_eq!(back, report, "case {case} did not round-trip");
        }
    }

    #[test]
    fn parse_rejects_wrong_bucket_bounds() {
        let report = snapshot();
        let text = report.to_json().render();
        assert!(MetricsReport::parse(&text).is_ok());
        // Corrupt one bound: the reader must notice the scheme mismatch.
        let corrupt = text.replacen("\"bucket_bounds\":[1", "\"bucket_bounds\":[3", 1);
        if corrupt != text {
            assert!(MetricsReport::parse(&corrupt).is_err());
        }
    }

    #[test]
    fn parse_rejects_foreign_documents() {
        assert!(MetricsReport::parse("{\"kind\":\"other\"}").is_err());
        assert!(MetricsReport::parse("[1,2]").is_err());
    }

    #[test]
    fn batch_scratch_flush_matches_direct_recording() {
        let _guard = TEST_MUTEX.lock().unwrap_or_else(|e| e.into_inner());
        let before = snapshot();
        enable();
        let mut scratch = BatchScratch::new();
        scratch.record_leap(5);
        scratch.record_leap(9);
        scratch.record_dense_step();
        scratch.record_epoch(500);
        scratch.flush();
        disable();
        let after = snapshot();
        assert!(after.counter("noop_leaps") >= before.counter("noop_leaps") + 2);
        assert!(after.counter("noop_steps_leaped") >= before.counter("noop_steps_leaped") + 14);
        assert!(after.counter("reactive_dense_steps") > before.counter("reactive_dense_steps"));
        assert!(after.counter("collision_epochs") > before.counter("collision_epochs"));
        assert!(
            after.counter("collision_batched_steps")
                >= before.counter("collision_batched_steps") + 500
        );
        assert!(after.hist_count("epoch_len") > before.hist_count("epoch_len"));
        // Flushing resets the scratch: a second flush adds nothing.
        enable();
        let mid = snapshot();
        scratch.flush();
        disable();
        assert_eq!(
            snapshot().counter("collision_epochs"),
            mid.counter("collision_epochs")
        );
    }

    #[test]
    fn enabled_capture_points_record() {
        let _guard = TEST_MUTEX.lock().unwrap_or_else(|e| e.into_inner());
        let before = snapshot();
        enable();
        add(Counter::SweepTasks, 3);
        observe(Hist::LeapLen, 6);
        disable();
        // Other tests may record concurrently inside our window, so the
        // deltas are lower bounds.
        let after = snapshot();
        assert!(after.counter("sweep_tasks") >= before.counter("sweep_tasks") + 3);
        assert!(after.hist_count("leap_len") > before.hist_count("leap_len"));
    }
}
