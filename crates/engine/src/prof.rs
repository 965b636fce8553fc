//! Hierarchical section profiler for the engine's hot paths.
//!
//! Where [`crate::metrics`] counts *how often* things happen, this module
//! measures *where the time goes*: monotonic-clock scoped timers attached to
//! a fixed set of named [`Section`]s, stacked per thread so nested sections
//! attribute self-time vs child-time correctly. Aggregation is keyed on
//! (parent, child) edges, so the same section (say
//! [`Section::PmfInversion`]) shows up separately under each caller in the
//! rendered tree.
//!
//! The cost model mirrors `metrics`:
//!
//! * **Disabled (default):** every capture point is one relaxed atomic load
//!   and a predicted-not-taken branch. Backends hoist the flag out of their
//!   batch loops with [`enabled`] + [`section_if`], so a disabled profiler
//!   adds one load per `step_batch` call plus one per pmf draw — nothing
//!   per interaction. No timestamps are taken, no thread-local is touched.
//! * **Enabled:** opening a scope pushes a frame on a thread-local stack
//!   and reads the monotonic clock; closing it reads the clock again,
//!   subtracts accumulated child time, and adds (calls, total, self) to
//!   shared relaxed atomics keyed by the (parent, child) edge.
//!
//! Sections were chosen over sampling deliberately: the hot paths are a few
//! microseconds per epoch and heavily regime-dependent, so a statistical
//! profiler needs long runs and symbol infrastructure to resolve the same
//! attribution that four scoped timers give exactly — see DESIGN.md §14.
//!
//! # Examples
//!
//! ```
//! use pp_engine::prof::{self, Section};
//!
//! prof::reset();
//! prof::enable();
//! {
//!     let _outer = prof::section(Section::BatchCount);
//!     let _inner = prof::section(Section::CollisionEpoch);
//! } // guards drop here, attributing elapsed time
//! prof::disable();
//! let report = prof::snapshot();
//! assert_eq!(report.calls_of("count_step_batch"), 1);
//! assert_eq!(report.calls_of("collision_epoch"), 1);
//! ```

use crate::json::Json;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Named timed sections of the engine's hot paths.
///
/// The set is fixed at compile time so capture points cost an enum constant
/// rather than a string hash, and so the report renderer can lay out the
/// whole tree without allocation on the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Section {
    /// One `CountPopulation::step_batch` call (the three-regime dispatcher).
    BatchCount,
    /// One agent-array `Population::step_batch` call.
    BatchAgents,
    /// One `SparseCountPopulation::step_batch` call.
    BatchSparse,
    /// One `MatchingPopulation::step_batch` call.
    BatchMatching,
    /// The no-reactivity-index tight loop (`k > BATCH_STATE_LIMIT`).
    DenseFallback,
    /// One Fenwick-sampled step in the reactive-dense per-step regime.
    PerStep,
    /// One geometric no-op leap plus its reactive interaction.
    Leap,
    /// One collision-free contingency-table epoch ([`crate::collision`]).
    CollisionEpoch,
    /// Epoch-length draw: guided CDF inversion of the birthday law.
    EpochLenSample,
    /// Epoch margins: the `W` and `M | W` multivariate-hypergeometric
    /// conditional chains.
    EpochMargins,
    /// Epoch row draws: per-row multivariate-hypergeometric conditionals.
    EpochRows,
    /// Table settling: applying one cell's rule deltas (`apply_cell`).
    EpochSettle,
    /// The per-epoch boundary (colliding) interaction.
    EpochBoundary,
    /// Fenwick tree sync from a collision epoch's per-state deltas.
    FenwickSync,
    /// Fenwick tree construction from a full weight vector.
    FenwickRebuild,
    /// Exact mode-centered pmf inversion in `SimRng` (binomial and
    /// hypergeometric draws — the collision chain's conditionals).
    PmfInversion,
    /// Fault-plan trigger splitting and due-injection application in
    /// `FaultyPopulation::step_batch`.
    FaultSplit,
    /// Caller-side observation work (species counts, dominance tracking)
    /// recorded by `ppsim profile` so run-loop analysis is attributed too.
    Observer,
}

impl Section {
    /// All sections, in report order.
    pub const ALL: [Section; 18] = [
        Section::BatchCount,
        Section::BatchAgents,
        Section::BatchSparse,
        Section::BatchMatching,
        Section::DenseFallback,
        Section::PerStep,
        Section::Leap,
        Section::CollisionEpoch,
        Section::EpochLenSample,
        Section::EpochMargins,
        Section::EpochRows,
        Section::EpochSettle,
        Section::EpochBoundary,
        Section::FenwickSync,
        Section::FenwickRebuild,
        Section::PmfInversion,
        Section::FaultSplit,
        Section::Observer,
    ];

    /// Stable snake_case name used in reports.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Section::BatchCount => "count_step_batch",
            Section::BatchAgents => "agents_step_batch",
            Section::BatchSparse => "sparse_step_batch",
            Section::BatchMatching => "matching_step_batch",
            Section::DenseFallback => "dense_fallback",
            Section::PerStep => "per_step",
            Section::Leap => "noop_leap",
            Section::CollisionEpoch => "collision_epoch",
            Section::EpochLenSample => "epoch_len_sample",
            Section::EpochMargins => "epoch_margins",
            Section::EpochRows => "epoch_rows",
            Section::EpochSettle => "epoch_settle",
            Section::EpochBoundary => "epoch_boundary",
            Section::FenwickSync => "fenwick_sync",
            Section::FenwickRebuild => "fenwick_rebuild",
            Section::PmfInversion => "pmf_inversion",
            Section::FaultSplit => "fault_split",
            Section::Observer => "observer",
        }
    }
}

const NUM_SECTIONS: usize = Section::ALL.len();
/// Parent slots: index 0 is "root" (no enclosing section), `s + 1` is
/// section `s`.
const NUM_PARENTS: usize = NUM_SECTIONS + 1;
const NUM_EDGES: usize = NUM_PARENTS * NUM_SECTIONS;

static ENABLED: AtomicBool = AtomicBool::new(false);
static EDGE_CALLS: [AtomicU64; NUM_EDGES] = [const { AtomicU64::new(0) }; NUM_EDGES];
static EDGE_TOTAL_NS: [AtomicU64; NUM_EDGES] = [const { AtomicU64::new(0) }; NUM_EDGES];
static EDGE_SELF_NS: [AtomicU64; NUM_EDGES] = [const { AtomicU64::new(0) }; NUM_EDGES];

struct Frame {
    section: usize,
    start: Instant,
    child_ns: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// Whether the profiler is currently recording. Hot loops load this once
/// per batch and pass the cached result to [`section_if`].
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on (all capture points start timing).
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns recording off. Edges accumulated so far are kept; sections already
/// open still attribute on drop.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Zeroes every accumulated edge (recording state is unchanged).
pub fn reset() {
    for c in &EDGE_CALLS {
        c.store(0, Ordering::Relaxed);
    }
    for t in &EDGE_TOTAL_NS {
        t.store(0, Ordering::Relaxed);
    }
    for s in &EDGE_SELF_NS {
        s.store(0, Ordering::Relaxed);
    }
}

/// An open scoped timer; attributes its elapsed time on drop.
///
/// Obtained from [`section`] / [`section_if`]; hold it in a `let _guard`
/// binding for the region being timed. Guards nest: time spent in an inner
/// guard is subtracted from the outer section's self-time.
#[must_use = "the section is timed until the guard drops"]
#[derive(Debug)]
pub struct SectionGuard {
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Opens a scoped timer for `s` under the innermost open section of this
/// thread. Returns `None` (and does nothing else) while disabled.
#[inline]
pub fn section(s: Section) -> Option<SectionGuard> {
    section_if(enabled(), s)
}

/// [`section`] with the enabled flag hoisted by the caller: batch loops
/// load [`enabled`] once and pass it here per iteration, skipping even the
/// relaxed atomic load while disabled.
#[inline]
pub fn section_if(on: bool, s: Section) -> Option<SectionGuard> {
    if !on {
        return None;
    }
    STACK.with(|stack| {
        stack.borrow_mut().push(Frame {
            section: s as usize,
            start: Instant::now(),
            child_ns: 0,
        });
    });
    Some(SectionGuard {
        _not_send: std::marker::PhantomData,
    })
}

impl Drop for SectionGuard {
    fn drop(&mut self) {
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let frame = stack.pop().expect("section guard with empty stack");
            let elapsed = u64::try_from(frame.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let self_ns = elapsed.saturating_sub(frame.child_ns);
            let parent = match stack.last_mut() {
                Some(p) => {
                    p.child_ns = p.child_ns.saturating_add(elapsed);
                    p.section + 1
                }
                None => 0,
            };
            let edge = parent * NUM_SECTIONS + frame.section;
            EDGE_CALLS[edge].fetch_add(1, Ordering::Relaxed);
            EDGE_TOTAL_NS[edge].fetch_add(elapsed, Ordering::Relaxed);
            EDGE_SELF_NS[edge].fetch_add(self_ns, Ordering::Relaxed);
        });
    }
}

/// One aggregated (parent, child) edge of the section tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfEdge {
    /// Enclosing section name, or `None` for sections opened at top level.
    pub parent: Option<&'static str>,
    /// Section name.
    pub name: &'static str,
    /// Times this section was entered under this parent.
    pub calls: u64,
    /// Total wall nanoseconds inside this section under this parent
    /// (children included).
    pub total_ns: u64,
    /// Nanoseconds not attributed to any child section.
    pub self_ns: u64,
}

/// A frozen snapshot of the profiler registry.
///
/// Edges are read with relaxed ordering, so a snapshot taken while other
/// threads are recording is approximate; take it after the timed region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfReport {
    /// Non-empty edges, in section-enum order grouped by parent.
    pub edges: Vec<ProfEdge>,
}

/// Freezes the current profiler contents into a [`ProfReport`].
#[must_use]
pub fn snapshot() -> ProfReport {
    let mut edges = Vec::new();
    for parent in 0..NUM_PARENTS {
        for child in 0..NUM_SECTIONS {
            let edge = parent * NUM_SECTIONS + child;
            let calls = EDGE_CALLS[edge].load(Ordering::Relaxed);
            if calls == 0 {
                continue;
            }
            edges.push(ProfEdge {
                parent: if parent == 0 {
                    None
                } else {
                    Some(Section::ALL[parent - 1].name())
                },
                name: Section::ALL[child].name(),
                calls,
                total_ns: EDGE_TOTAL_NS[edge].load(Ordering::Relaxed),
                self_ns: EDGE_SELF_NS[edge].load(Ordering::Relaxed),
            });
        }
    }
    ProfReport { edges }
}

/// Formats nanoseconds for the human-readable tree.
fn fmt_ns(ns: u64) -> String {
    let ns = ns as f64;
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

impl ProfReport {
    /// Total nanoseconds attributed to sections opened at top level (the
    /// roots of the tree) — the profiler's coverage of the timed run.
    #[must_use]
    pub fn attributed_ns(&self) -> u64 {
        self.edges
            .iter()
            .filter(|e| e.parent.is_none())
            .map(|e| e.total_ns)
            .sum()
    }

    /// Total calls of a section summed across all parents.
    #[must_use]
    pub fn calls_of(&self, name: &str) -> u64 {
        self.edges
            .iter()
            .filter(|e| e.name == name)
            .map(|e| e.calls)
            .sum()
    }

    /// Total nanoseconds of a section summed across all parents. Nested
    /// occurrences of the same section double-count here; use the edge list
    /// for exact accounting.
    #[must_use]
    pub fn total_ns_of(&self, name: &str) -> u64 {
        self.edges
            .iter()
            .filter(|e| e.name == name)
            .map(|e| e.total_ns)
            .sum()
    }

    /// The edge for `name` directly under `parent` (`None` = top level).
    #[must_use]
    pub fn edge(&self, parent: Option<&str>, name: &str) -> Option<&ProfEdge> {
        self.edges
            .iter()
            .find(|e| e.name == name && e.parent == parent)
    }

    fn render_children(&self, parent: Option<&'static str>, depth: usize, out: &mut String) {
        for e in self.edges.iter().filter(|e| e.parent == parent) {
            out.push_str(&format!(
                "{:indent$}{:<width$} {:>12} {:>12} {:>12}\n",
                "",
                e.name,
                e.calls,
                fmt_ns(e.total_ns),
                fmt_ns(e.self_ns),
                indent = 2 * depth,
                width = 28usize.saturating_sub(2 * depth),
            ));
            // Recurse only when the child actually encloses something, and
            // guard against self-edges (a section nested in itself) so the
            // renderer cannot loop.
            if e.parent != Some(e.name) {
                self.render_children(Some(e.name), depth + 1, out);
            }
        }
    }

    /// Renders the section tree as aligned text: calls, total time, and
    /// self time per (parent, child) edge, children indented.
    #[must_use]
    pub fn render_tree(&self) -> String {
        let mut out = format!(
            "{:<28} {:>12} {:>12} {:>12}\n",
            "section", "calls", "total", "self"
        );
        self.render_children(None, 0, &mut out);
        out
    }

    /// Renders the report as a JSON document. When `wall_ns` is given (the
    /// caller's own measurement of the profiled region), the document also
    /// carries the attributed fraction `attributed_ns / wall_ns`.
    #[must_use]
    pub fn to_json(&self, wall_ns: Option<u64>) -> Json {
        let mut pairs = vec![
            ("kind", Json::from("profile_report")),
            ("attributed_ns", Json::from(self.attributed_ns())),
        ];
        if let Some(wall) = wall_ns {
            pairs.push(("wall_ns", Json::from(wall)));
            let frac = if wall > 0 {
                self.attributed_ns() as f64 / wall as f64
            } else {
                0.0
            };
            pairs.push(("attributed_frac", Json::from(frac)));
        }
        pairs.push((
            "sections",
            Json::arr(self.edges.iter().map(|e| {
                Json::obj([
                    (
                        "parent",
                        e.parent.map_or(Json::Null, |p| Json::from(p.to_string())),
                    ),
                    ("name", Json::from(e.name)),
                    ("calls", Json::from(e.calls)),
                    ("total_ns", Json::from(e.total_ns)),
                    ("self_ns", Json::from(e.self_ns)),
                ])
            })),
        ));
        Json::obj(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    // The registry is process-global and other engine tests run
    // concurrently, so these tests only assert on edges whose parent chain
    // they alone can produce (rooted at Section::Observer, which no backend
    // opens), and they serialize behind the shared metrics test mutex so
    // reset() cannot clobber a sibling's recording window.

    #[test]
    fn disabled_sections_record_nothing() {
        let _guard = crate::metrics::TEST_MUTEX
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        disable();
        reset();
        {
            let g = section(Section::Observer);
            assert!(g.is_none(), "disabled profiler must not open sections");
        }
        assert_eq!(snapshot().calls_of("observer"), 0);
    }

    #[test]
    fn nested_scopes_split_self_and_child_time() {
        let _guard = crate::metrics::TEST_MUTEX
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        reset();
        enable();
        {
            let _outer = section(Section::Observer);
            std::thread::sleep(Duration::from_millis(15));
            {
                let _inner = section(Section::FaultSplit);
                std::thread::sleep(Duration::from_millis(30));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        disable();
        let report = snapshot();
        let outer = report.edge(None, "observer").expect("outer edge").clone();
        let inner = report
            .edge(Some("observer"), "fault_split")
            .expect("inner edge")
            .clone();
        assert_eq!(outer.calls, 1);
        assert_eq!(inner.calls, 1);
        // Child total is the sleep inside it; outer self is its own sleeps.
        assert!(inner.total_ns >= 30_000_000, "inner {}", inner.total_ns);
        assert!(outer.total_ns >= 50_000_000, "outer {}", outer.total_ns);
        // Self-time is exactly total minus the children's elapsed time.
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(outer.self_ns >= 20_000_000, "self {}", outer.self_ns);
        assert_eq!(inner.self_ns, inner.total_ns, "leaf self == total");
    }

    #[test]
    fn report_renders_tree_and_json() {
        let _guard = crate::metrics::TEST_MUTEX
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        reset();
        enable();
        {
            let _outer = section(Section::Observer);
            let _inner = section(Section::PmfInversion);
        }
        disable();
        let report = snapshot();
        let tree = report.render_tree();
        assert!(tree.contains("observer"));
        assert!(tree.contains("  pmf_inversion"), "child indented:\n{tree}");
        let doc = report.to_json(Some(report.attributed_ns().max(1)));
        assert_eq!(
            doc.get("kind").and_then(Json::as_str),
            Some("profile_report")
        );
        let frac = doc.get("attributed_frac").and_then(Json::as_f64).unwrap();
        assert!(frac > 0.9, "attribution {frac}");
    }

    #[test]
    fn attribution_sums_children_into_parent_total() {
        let _guard = crate::metrics::TEST_MUTEX
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        reset();
        enable();
        for _ in 0..100 {
            let _outer = section(Section::Observer);
            for _ in 0..3 {
                let _inner = section(Section::EpochLenSample);
            }
        }
        disable();
        let report = snapshot();
        let outer = report.edge(None, "observer").expect("outer").clone();
        let inner = report
            .edge(Some("observer"), "epoch_len_sample")
            .expect("inner")
            .clone();
        assert_eq!(outer.calls, 100);
        assert_eq!(inner.calls, 300);
        assert!(outer.total_ns >= inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
    }
}
