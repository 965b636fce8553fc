//! Structured run traces: nested `Span`s and point `Event`s with wall-clock
//! timings, serialized as JSON Lines.
//!
//! Where [`crate::metrics`] aggregates *how much* happened, a trace records
//! *when*: a sweep opens a span, each run opens a child span, and batch
//! boundaries drop events inside it. Records carry seconds-since-trace-start
//! timestamps (`t_s`, and `dur_s` for spans) plus arbitrary JSON fields, and
//! serialize one record per line via [`crate::json`], so traces stream to
//! disk and parse back with [`crate::json::parse_jsonl`].
//!
//! The tracer is explicit and local — no global state, no background
//! thread. Code that wants tracing takes a `&mut Tracer` (or an
//! `Option<&mut Tracer>`); code that doesn't pays nothing.
//!
//! The *regime-dispatch log* cannot ride on a `Tracer`: the dense backends
//! cannot take one through `Simulator::step_batch`. It lives on the run's
//! [`crate::recorder::Recorder`] instead: one built
//! [`with_dispatch_log`](crate::recorder::Recorder::with_dispatch_log)
//! keeps one [`DispatchRecord`] per batch, carrying the inputs that drove
//! the three-regime dispatch decision — `n`, the reactive-pair probability
//! `p`, the expected collision-epoch length — and the regime(s) actually
//! executed. Emit them as JSONL via [`DispatchRecord::to_json`]. The schema
//! is documented in `DESIGN.md` §14.
//!
//! # Examples
//!
//! ```
//! use pp_engine::json::Json;
//! use pp_engine::trace::Tracer;
//!
//! let mut tr = Tracer::new();
//! let run = tr.begin_span("run", &[("n", Json::from(100u64))]);
//! tr.event("batch", &[("executed", Json::from(50u64))]);
//! tr.end_span(run, &[]);
//! let records = pp_engine::json::parse_jsonl(&tr.to_jsonl()).unwrap();
//! assert_eq!(records.len(), 2);
//! assert_eq!(records[0].get("name").and_then(Json::as_str), Some("batch"));
//! ```

use crate::json::{to_jsonl, Json};
use std::time::Instant;

/// One regime-dispatch decision: why a dense backend's `step_batch` picked
/// the regime it did, and what then actually ran.
///
/// `regime` is the first regime chosen at batch entry; a long batch may
/// cross regime boundaries as counts evolve, so the per-regime tallies
/// (`collision_epochs`, `leaps`, `per_steps`) describe the whole batch.
/// Serialized as a `{"kind":"dispatch",...}` JSONL record.
#[derive(Debug, Clone, PartialEq)]
pub struct DispatchRecord {
    /// Backend type name (e.g. `"CountPopulation"`).
    pub backend: &'static str,
    /// Population size `n`.
    pub n: u64,
    /// Reactive (non-null) ordered agent pairs at batch entry.
    pub pairs: u64,
    /// Probability `p = pairs / (n(n−1))` that one interaction is reactive.
    pub p: f64,
    /// Expected collision-epoch length `√(πn/8)` (birthday bound).
    pub expected_epoch: f64,
    /// First regime chosen at batch entry: `"collision"`, `"per_step"`,
    /// `"leap"`, or `"dense_fallback"`.
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
            ("pairs", Json::from(self.pairs)),
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

/// Handle to an open span, returned by [`Tracer::begin_span`] and consumed
/// by [`Tracer::end_span`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u64);

struct OpenSpan {
    id: u64,
    name: &'static str,
    start_s: f64,
    fields: Vec<(String, Json)>,
}

/// Collects span and event records for one traced activity.
///
/// Records are buffered in memory in *completion* order (events when they
/// fire, spans when they end) and written out once via
/// [`Tracer::write_jsonl`] — simulation hot loops never touch the
/// filesystem.
pub struct Tracer {
    epoch: Instant,
    next_id: u64,
    open: Vec<OpenSpan>,
    records: Vec<Json>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// Creates an empty tracer; timestamps are relative to this call.
    #[must_use]
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: 1,
            open: Vec::new(),
            records: Vec::new(),
        }
    }

    fn now_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn parent_id(&self) -> Json {
        self.open.last().map_or(Json::Null, |s| Json::from(s.id))
    }

    /// Opens a span named `name` nested under the innermost open span.
    /// The record is emitted when the span ends.
    pub fn begin_span(&mut self, name: &'static str, fields: &[(&str, Json)]) -> SpanId {
        let id = self.next_id;
        self.next_id += 1;
        self.open.push(OpenSpan {
            id,
            name,
            start_s: self.now_s(),
            fields: fields
                .iter()
                .map(|(k, v)| ((*k).to_string(), v.clone()))
                .collect(),
        });
        SpanId(id)
    }

    /// Closes a span, emitting its record with `t_s` (start), `dur_s`, the
    /// fields given at open time, and `extra` fields gathered during the
    /// span. Inner spans still open are closed first (stack discipline).
    ///
    /// # Panics
    ///
    /// Panics if `span` is not open (already ended, or from another tracer).
    pub fn end_span(&mut self, span: SpanId, extra: &[(&str, Json)]) {
        assert!(
            self.open.iter().any(|s| s.id == span.0),
            "span {} is not open",
            span.0
        );
        while let Some(top) = self.open.last() {
            let is_target = top.id == span.0;
            let top = self.open.pop().expect("while-let guard saw an open span");
            let end_s = self.now_s();
            let mut pairs = vec![
                ("kind".to_string(), Json::from("span")),
                ("id".to_string(), Json::from(top.id)),
                ("parent".to_string(), self.parent_id()),
                ("name".to_string(), Json::from(top.name)),
                ("t_s".to_string(), Json::from(top.start_s)),
                ("dur_s".to_string(), Json::from(end_s - top.start_s)),
            ];
            pairs.extend(top.fields);
            if is_target {
                pairs.extend(extra.iter().map(|(k, v)| ((*k).to_string(), v.clone())));
                self.records.push(Json::Obj(pairs));
                return;
            }
            self.records.push(Json::Obj(pairs));
        }
        unreachable!("target span checked open above");
    }

    /// Emits a point event under the innermost open span.
    pub fn event(&mut self, name: &'static str, fields: &[(&str, Json)]) {
        let mut pairs = vec![
            ("kind".to_string(), Json::from("event")),
            ("parent".to_string(), self.parent_id()),
            ("name".to_string(), Json::from(name)),
            ("t_s".to_string(), Json::from(self.now_s())),
        ];
        pairs.extend(fields.iter().map(|(k, v)| ((*k).to_string(), v.clone())));
        self.records.push(Json::Obj(pairs));
    }

    /// Number of completed records buffered so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no records have completed yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The completed records (events and ended spans, in completion order).
    #[must_use]
    pub fn records(&self) -> &[Json] {
        &self.records
    }

    /// Closes any still-open spans, then renders all records as JSONL.
    #[must_use]
    pub fn to_jsonl(&mut self) -> String {
        while let Some(top) = self.open.last() {
            let id = SpanId(top.id);
            self.end_span(id, &[]);
        }
        to_jsonl(&self.records)
    }

    /// Writes the JSONL rendering to `path` (closing open spans first),
    /// creating parent directories.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from directory creation or the write.
    pub fn write_jsonl(&mut self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_jsonl())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_jsonl;

    #[test]
    fn spans_nest_and_parent_links_hold() {
        let mut tr = Tracer::new();
        let sweep = tr.begin_span("sweep", &[("tasks", Json::from(2u64))]);
        let run = tr.begin_span("run", &[("n", Json::from(64u64))]);
        tr.event("batch", &[("executed", Json::from(64u64))]);
        tr.end_span(run, &[("rounds", Json::from(1.0))]);
        tr.end_span(sweep, &[]);

        let records = parse_jsonl(&tr.to_jsonl()).unwrap();
        assert_eq!(records.len(), 3);
        let batch = &records[0];
        let run_rec = &records[1];
        let sweep_rec = &records[2];
        assert_eq!(batch.get("kind").and_then(Json::as_str), Some("event"));
        assert_eq!(
            batch.get("parent").and_then(Json::as_u64),
            run_rec.get("id").and_then(Json::as_u64)
        );
        assert_eq!(
            run_rec.get("parent").and_then(Json::as_u64),
            sweep_rec.get("id").and_then(Json::as_u64)
        );
        assert_eq!(sweep_rec.get("parent"), Some(&Json::Null));
        assert_eq!(run_rec.get("rounds").and_then(Json::as_f64), Some(1.0));
        let t = run_rec.get("t_s").and_then(Json::as_f64).unwrap();
        let d = run_rec.get("dur_s").and_then(Json::as_f64).unwrap();
        assert!(t >= 0.0 && d >= 0.0);
    }

    #[test]
    fn ending_outer_span_closes_inner_spans() {
        let mut tr = Tracer::new();
        let outer = tr.begin_span("outer", &[("x", Json::from(1u64))]);
        let _inner = tr.begin_span("inner", &[("y", Json::from(2u64))]);
        tr.end_span(outer, &[]);
        assert_eq!(tr.len(), 2);
        let names: Vec<&str> = tr
            .records()
            .iter()
            .map(|r| r.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(names, ["inner", "outer"]);
    }

    #[test]
    #[should_panic(expected = "not open")]
    fn ending_a_closed_span_panics() {
        let mut tr = Tracer::new();
        let s = tr.begin_span("s", &[("a", Json::Null)]);
        tr.end_span(s, &[]);
        tr.end_span(s, &[]);
    }

    #[test]
    fn to_jsonl_closes_dangling_spans() {
        let mut tr = Tracer::new();
        tr.begin_span("dangling", &[("k", Json::from("v"))]);
        let text = tr.to_jsonl();
        let records = parse_jsonl(&text).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(
            records[0].get("name").and_then(Json::as_str),
            Some("dangling")
        );
    }

    #[test]
    fn dispatch_record_renders_as_jsonl_object() {
        let rec = DispatchRecord {
            backend: "CountPopulation",
            n: 1_000_000,
            pairs: 999_999_000_000,
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
    fn write_jsonl_roundtrips_via_reader() {
        let dir = std::env::temp_dir().join("pp_engine_trace_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("t.jsonl");
        let mut tr = Tracer::new();
        let s = tr.begin_span("run", &[("n", Json::from(10u64))]);
        tr.event("batch", &[("executed", Json::from(10u64))]);
        tr.end_span(s, &[]);
        tr.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let records = parse_jsonl(&text).unwrap();
        assert_eq!(records.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
