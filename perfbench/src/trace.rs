//! In-memory span recorder for the traced run.
//!
//! A span brackets one call from the benchmark into a layer of the
//! simulator. Spans nest through a stack, carry the id of the trial that
//! made them, and stay in memory until the run ends. A layer's self time is
//! its span's duration minus the time covered by its direct children.
//!
//! When tracing is off, [`Tracer::span`] calls its closure directly and
//! records nothing.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer metric the span's self time is charged to.
    pub name: Cow<'static, str>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Trial that made the span.
    pub trial: u32,
}

impl Span {
    /// Wall time of the span in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; a pass-through otherwise.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    trial: u32,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            trial: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Sets the trial id stamped on subsequent spans.
    pub fn set_trial(&mut self, trial: u32) {
        self.trial = trial;
    }

    /// All recorded spans, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The recorded spans, consuming the tracer.
    #[must_use]
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Runs `f` inside a span called `name`. Spans opened inside `f`
    /// become its children.
    pub fn span<T>(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            trial: self.trial,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Closes the spans a panic left open, at the current time.
    pub fn close_open(&mut self) {
        let now = self.now_ns();
        while let Some(idx) = self.stack.pop() {
            self.spans[idx].end_ns = now;
        }
    }

    /// Self time of every span, in nanoseconds, indexed like [`Self::spans`].
    #[must_use]
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] = own[p].saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// Total self time per span name, in seconds.
    #[must_use]
    pub fn self_seconds_by_name(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for (span, ns) in self.spans.iter().zip(self.self_times_ns()) {
            *out.entry(span.name.to_string()).or_insert(0.0) += ns as f64 * 1e-9;
        }
        out
    }
}
