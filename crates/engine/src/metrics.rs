//! Telemetry vocabulary: hot-path counters, log₂-bucketed histograms, and
//! the frozen [`MetricsReport`] they render into.
//!
//! The counts themselves live on the run's [`crate::recorder::Recorder`];
//! this module names them. Capture points sit on the hot paths of every
//! backend: interactions executed/changed, no-op leap counts and
//! leap-length distribution ([`Hist::LeapLen`]), collision epochs and their
//! lengths, `CountPopulation` dense-fallback entries, Fenwick (re)builds,
//! batch-cache rebuilds, batch sizes, matching rounds, silence detections,
//! fault injections, and sweep task timings.
//!
//! [`crate::recorder::Recorder::metrics`] freezes a recorder into a
//! [`MetricsReport`] that renders to JSON via [`crate::json`]; it is the
//! footer line of a `ppsim --record` run record, and the experiment
//! binaries write it next to their other outputs.

use crate::json::Json;

/// Number of log₂ buckets per histogram: bucket `i` holds values in
/// `[2^(i−1), 2^i)` (bucket 0 holds the value 0).
pub const HIST_BUCKETS: usize = 64;

/// Plain event counters maintained by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Scheduler activations executed (including leaped-over no-ops).
    InteractionsExecuted,
    /// Activations that changed at least one agent's state. Agent-object
    /// batches ([`crate::obj::ObjPopulation`]) add 0: counting them would
    /// compare both agents' states after every interaction.
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
    /// `step_batch` calls across all backends, and matching rounds (one
    /// batch each).
    Batches,
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
    /// Collision batches executed ([`crate::collision::run_epoch`]).
    CollisionEpochs,
    /// Activations settled by collision batches (deferred pairs and
    /// in-batch collisions alike).
    CollisionBatchedSteps,
}

impl Counter {
    /// All counters, in report order.
    pub const ALL: [Counter; 16] = [
        Counter::InteractionsExecuted,
        Counter::InteractionsChanged,
        Counter::NoopLeaps,
        Counter::NoopStepsLeaped,
        Counter::DenseFallbackEntries,
        Counter::ReactiveDenseSteps,
        Counter::FenwickRebuilds,
        Counter::BatchCacheRebuilds,
        Counter::Batches,
        Counter::SilenceDetections,
        Counter::MatchingRounds,
        Counter::SweepTasks,
        Counter::FaultInjections,
        Counter::FaultAgentsMoved,
        Counter::CollisionEpochs,
        Counter::CollisionBatchedSteps,
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
            Counter::SilenceDetections => "silence_detections",
            Counter::MatchingRounds => "matching_rounds",
            Counter::SweepTasks => "sweep_tasks",
            Counter::FaultInjections => "fault_injections",
            Counter::FaultAgentsMoved => "fault_agents_moved",
            Counter::CollisionEpochs => "collision_epochs",
            Counter::CollisionBatchedSteps => "collision_batched_steps",
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
    /// Activations settled per collision batch (`batch_len(n, q)` unless
    /// the `step_batch` budget cuts it).
    EpochLen,
}

impl Hist {
    /// All histograms, in report order.
    pub const ALL: [Hist; 3] = [Hist::LeapLen, Hist::BatchSize, Hist::EpochLen];

    /// Stable snake_case name used in reports.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Hist::LeapLen => "leap_len",
            Hist::BatchSize => "batch_size",
            Hist::EpochLen => "epoch_len",
        }
    }
}

/// The log₂ bucket index for `value` (0 → bucket 0, else `⌊log₂ v⌋ + 1`).
#[inline]
#[must_use]
pub fn bucket_of(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// A frozen copy of a recorder's counters and histograms, suitable for
/// reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsReport {
    counters: Vec<(&'static str, u64)>,
    hists: Vec<(&'static str, Vec<u64>)>,
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
    /// Freezes raw counter and histogram arrays (indexed as
    /// [`Counter::ALL`] and [`Hist::ALL`]), trimming each histogram's
    /// trailing zero buckets.
    pub(crate) fn from_raw(counters: &[u64], hists: &[[u64; HIST_BUCKETS]]) -> Self {
        let counters = Counter::ALL
            .iter()
            .map(|&c| (c.name(), counters[c as usize]))
            .collect();
        let hists = Hist::ALL
            .iter()
            .map(|&h| {
                let mut buckets = hists[h as usize].to_vec();
                while buckets.last() == Some(&0) && buckets.len() > 1 {
                    buckets.pop();
                }
                (h.name(), buckets)
            })
            .collect();
        MetricsReport { counters, hists }
    }

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

    /// Renders the report as a JSON document.
    ///
    /// Each histogram carries its `log2_buckets` counts alongside
    /// `bucket_bounds`, the explicit upper-exclusive value bound of every
    /// bucket ([`bucket_bound`]) — the bucketing scheme is part of the
    /// document, not an implicit convention of the reader.
    #[must_use]
    pub fn to_json(&self) -> Json {
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
            ("counters", counters),
            ("histograms", hists),
        ])
    }

    /// Parses a report rendered by [`MetricsReport::to_json`].
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
        Ok(MetricsReport { counters, hists })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{self, Recorder};
    use crate::sim::BatchOutcome;

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
        // No recorder installed: capture points are no-ops...
        recorder::add(Counter::MatchingRounds, 17);
        assert!(recorder::installed_metrics().is_none());
        // ...and a recorder installed afterwards starts from zero.
        let mut rec = Recorder::new();
        {
            let _installed = rec.install();
        }
        recorder::add(Counter::MatchingRounds, 17);
        assert_eq!(rec.metrics(), Recorder::new().metrics());
    }

    #[test]
    fn report_roundtrips_through_json() {
        let report = MetricsReport {
            counters: Counter::ALL
                .iter()
                .enumerate()
                .map(|(i, &c)| (c.name(), i as u64 * 1000))
                .collect(),
            hists: Hist::ALL
                .iter()
                .map(|&h| (h.name(), vec![1, 0, 3]))
                .collect(),
        };
        let text = report.to_json().render();
        let back = MetricsReport::parse(&text).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.hist_count("leap_len"), 4);
    }

    #[test]
    fn report_roundtrip_property_seeded() {
        // Randomized round-trip: any report the writer can produce must
        // parse back bit-identically — counters, every histogram shape the
        // snapshot trimmer can emit.
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
            let report = MetricsReport { counters, hists };
            let text = report.to_json().render();
            let back = MetricsReport::parse(&text)
                .unwrap_or_else(|e| panic!("case {case} failed to parse: {e:?}"));
            assert_eq!(back, report, "case {case} did not round-trip");
        }
    }

    #[test]
    fn parse_rejects_wrong_bucket_bounds() {
        let report = Recorder::new().metrics();
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
    fn parse_reads_documents_with_the_retired_regime_counters() {
        // Reports written before the four `regime_*` counters were dropped
        // carry 24 counters; the extra four duplicate kept ones and are
        // ignored on read. So are `sweep_retries`, `sweep_panics` and
        // `sweep_timeouts`, retired with the resilient sweep that bumped
        // them, and `observer_callbacks`, retired with the observer stride
        // hook: older reports and snapshot-frozen counters still load. Their
        // `meta` header, retired when the run record's header took over
        // command and backend, is ignored too, and so is the
        // `sweep_task_micros` histogram, retired because it held wall
        // times.
        // `ppsim oscillator --n 20000 --rounds 600 --seed 7 --metrics` as
        // written before the drops.
        let text = concat!(
            r#"{"kind":"metrics_report","meta":{"command":"oscillator","#,
            r#""backend":"CountPopulation"},"counters":{"interactions_executed":12000000,"#,
            r#""interactions_changed":2395543,"noop_leaps":110654,"#,
            r#""noop_steps_leaped":1223506,"dense_fallback_entries":0,"#,
            r#""reactive_dense_steps":0,"fenwick_rebuilds":1,"batch_cache_rebuilds":1,"#,
            r#""batches":600,"observer_callbacks":0,"silence_detections":0,"#,
            r#""matching_rounds":0,"sweep_tasks":0,"fault_injections":0,"#,
            r#""fault_agents_moved":0,"sweep_retries":0,"sweep_panics":0,"#,
            r#""sweep_timeouts":0,"collision_epochs":119541,"#,
            r#""collision_batched_steps":10665898,"regime_collision":119541,"#,
            r#""regime_leap":110654,"regime_per_step":0,"regime_dense_fallback":0},"#,
            r#""histograms":{"leap_len":{"count":110654,"log2_buckets":[9215,8539,14832,"#,
            r#"22941,27448,20756,6439,480,4],"bucket_bounds":[1,2,4,8,16,32,64,128,256]},"#,
            r#""batch_size":{"count":600,"log2_buckets":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,"#,
            r#"600],"bucket_bounds":[1,2,4,8,16,32,64,128,256,512,1024,2048,4096,8192,"#,
            r#"16384,32768]},"sweep_task_micros":{"count":0,"log2_buckets":[0],"#,
            r#""bucket_bounds":[1]},"epoch_len":{"count":119541,"log2_buckets":[0,6,88,"#,
            r#"464,2079,8106,28287,56595,23723,193],"bucket_bounds":[1,2,4,8,16,32,64,"#,
            r#"128,256,512]}}}"#,
        );
        let report = MetricsReport::parse(text).expect("a 24-counter report parses");
        assert_eq!(report.counter("collision_epochs"), 119_541);
        assert_eq!(report.counter("noop_leaps"), 110_654);
        assert_eq!(report.counter("regime_collision"), 0, "no longer a counter");
        assert_eq!(report.counter("sweep_retries"), 0, "no longer a counter");
        assert_eq!(
            report.counter("observer_callbacks"),
            0,
            "no longer a counter"
        );
        assert_eq!(report.hist_count("epoch_len"), 119_541);
        let rendered = report.to_json().render();
        assert!(!rendered.contains("regime_"), "{rendered}");
        assert!(!rendered.contains("meta"), "{rendered}");
        assert!(!rendered.contains("sweep_task_micros"), "{rendered}");
        assert_eq!(MetricsReport::parse(&rendered).unwrap(), report);
    }

    #[test]
    fn enabled_capture_points_record() {
        let mut rec = Recorder::new();
        {
            let _installed = rec.install();
            recorder::add(Counter::SweepTasks, 3);
            recorder::record_batch(&BatchOutcome {
                executed: 6,
                changed: 2,
                silent: false,
            });
        }
        let m = rec.metrics();
        assert_eq!(m.counter("sweep_tasks"), 3);
        assert_eq!(m.counter("interactions_executed"), 6);
        assert_eq!(m.counter("interactions_changed"), 2);
        assert_eq!(m.counter("batches"), 1);
        assert_eq!(m.hist("batch_size"), Some(&[0, 0, 0, 1][..]));
    }
}
