//! Hierarchical section profiler for the engine's hot paths.
//!
//! Where [`crate::metrics`] counts *how often* things happen, this module
//! measures *where the time goes*: monotonic-clock scoped timers attached to
//! a fixed set of named [`Section`]s, stacked so nested sections attribute
//! self-time vs child-time correctly. Aggregation is keyed on a section's
//! full path of enclosing sections, so the same section (say
//! [`Section::PmfInversion`]) shows up separately under each caller in the
//! rendered tree, and a section reached by two paths counts each path's
//! own calls.
//!
//! Section times belong to the run's [`crate::recorder::Recorder`], and
//! only to one built [`with_sections`](crate::recorder::Recorder::with_sections):
//!
//! * **Not timing (default):** a capture point is one load of the
//!   thread's recorder slot and a predicted-not-taken branch. Backends read
//!   the slot once per batch and pass the cached answer to [`section_if`],
//!   so nothing is paid per interaction. No timestamps are taken.
//! * **Timing:** opening a scope pushes a frame on the recorder's stack and
//!   reads the monotonic clock; closing it reads the clock again, subtracts
//!   accumulated child time, and adds (calls, total, self) to the
//!   recorder's node for the section's path.
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
//! use pp_engine::recorder::Recorder;
//!
//! let mut recorder = Recorder::new().with_sections();
//! {
//!     let _installed = recorder.install();
//!     let _outer = prof::section(Section::BatchCount);
//!     let _inner = prof::section(Section::CollisionEpoch);
//! } // guards drop here, attributing elapsed time
//! let report = recorder.profile();
//! assert_eq!(report.calls_of("count_step_batch"), 1);
//! assert_eq!(report.calls_of("collision_epoch"), 1);
//! ```

use crate::json::Json;
use crate::recorder;
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
    /// One `SparseCountPopulation::step_batch` call: the leap/per-step
    /// dispatcher, whose regimes open [`Section::SparseLeap`] and
    /// [`Section::PerStep`].
    BatchSparse,
    /// One `MatchingPopulation::round`: the settle step's
    /// [`Section::EpochMargins`], [`Section::EpochRows`] and
    /// [`Section::EpochSettle`] nest under it.
    MatchingRound,
    /// The per-step regime: one step of `CountPopulation`, or one run of
    /// block-sampled steps of `SparseCountPopulation` up to its next window
    /// check.
    PerStep,
    /// One geometric no-op leap plus its reactive interaction.
    Leap,
    /// One sparse leap of `SparseCountPopulation`: the geometric skip over
    /// ineffective steps and the rule slot's interaction, with the pick and
    /// the upkeep as child sections ([`Section::LeapPick`],
    /// [`Section::LeapUpkeep`]).
    SparseLeap,
    /// A sparse leap's pick of the effective step: the rule slot, then
    /// the initiator and the responder by walks of the slot's class
    /// members (built here on the slot's first pick).
    LeapPick,
    /// A sparse leap's write-back of a change: the occupied-list update,
    /// the per-rule-slot agent counts and the built class members.
    LeapUpkeep,
    /// One collision batch ([`crate::collision`]).
    CollisionEpoch,
    /// A collision batch's free-run draw: the length of a run of
    /// interactions between untouched agents, by inversion of its prefix
    /// table.
    EpochLenSample,
    /// A collision batch's settling of one interaction that picks a
    /// touched agent, revealing the deferred pair it touches.
    EpochCollisions,
    /// Epoch margins: the `W` and `M | W` multivariate-hypergeometric
    /// conditional chains.
    EpochMargins,
    /// Epoch row draws: per-row multivariate-hypergeometric conditionals.
    EpochRows,
    /// Table settling: applying one cell's rule deltas (`apply_cell`).
    EpochSettle,
    /// Every exact discrete draw in `SimRng` — binomial and
    /// hypergeometric, by bit-parallel lanes, mode-centred inversion or
    /// ratio of uniforms — that is, the collision chain's conditionals.
    /// The name predates the rejection paths and is kept so recorded
    /// profiles stay comparable.
    PmfInversion,
    /// Fault-plan trigger splitting and due-injection application in
    /// `FaultyPopulation::step_batch`.
    FaultSplit,
    /// Caller-side observation work: the species-row sampling of the
    /// `ppsim oscillator` and `faults` run loop, so that a profiled run
    /// loop is attributed too.
    Observer,
    /// One run of a program's scheduler site (`pp_lang::interp::Site`),
    /// composed or factored: the site's engine batches run under it.
    ProgramSite,
    /// A factored site's relabelling of the joint configuration after one
    /// component ran: the origin classes' multivariate-hypergeometric
    /// splits.
    SiteRelabel,
}

impl Section {
    /// All sections, in report order.
    pub const ALL: [Section; 19] = [
        Section::BatchCount,
        Section::BatchSparse,
        Section::MatchingRound,
        Section::PerStep,
        Section::Leap,
        Section::SparseLeap,
        Section::LeapPick,
        Section::LeapUpkeep,
        Section::CollisionEpoch,
        Section::EpochLenSample,
        Section::EpochCollisions,
        Section::EpochMargins,
        Section::EpochRows,
        Section::EpochSettle,
        Section::PmfInversion,
        Section::FaultSplit,
        Section::Observer,
        Section::ProgramSite,
        Section::SiteRelabel,
    ];

    /// Stable snake_case name used in reports.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Section::BatchCount => "count_step_batch",
            Section::BatchSparse => "sparse_step_batch",
            Section::MatchingRound => "matching_round",
            Section::PerStep => "per_step",
            Section::Leap => "noop_leap",
            Section::SparseLeap => "sparse_leap",
            Section::LeapPick => "leap_pick",
            Section::LeapUpkeep => "leap_upkeep",
            Section::CollisionEpoch => "collision_epoch",
            Section::EpochLenSample => "epoch_len_sample",
            Section::EpochCollisions => "epoch_collisions",
            Section::EpochMargins => "epoch_margins",
            Section::EpochRows => "epoch_rows",
            Section::EpochSettle => "epoch_settle",
            Section::PmfInversion => "pmf_inversion",
            Section::FaultSplit => "fault_split",
            Section::Observer => "observer",
            Section::ProgramSite => "program_site",
            Section::SiteRelabel => "site_relabel",
        }
    }
}

const NUM_SECTIONS: usize = Section::ALL.len();
/// A node index of the section tree; [`ROOT`] encloses the top level.
type NodeId = u32;
const ROOT: NodeId = 0;
/// "No such child" in [`Node::children`].
const NO_NODE: NodeId = NodeId::MAX;

/// One section under one full path of enclosing sections.
#[derive(Debug, Clone)]
struct Node {
    /// The section, or `NUM_SECTIONS` for the root.
    section: usize,
    /// The node of each child section opened directly inside this one.
    children: [NodeId; NUM_SECTIONS],
    calls: u64,
    total_ns: u64,
    self_ns: u64,
}

impl Node {
    fn new(section: usize) -> Self {
        Self {
            section,
            children: [NO_NODE; NUM_SECTIONS],
            calls: 0,
            total_ns: 0,
            self_ns: 0,
        }
    }
}

#[derive(Debug)]
struct Frame {
    node: NodeId,
    start: Instant,
    child_ns: u64,
}

/// A recorder's section times: (calls, total, self) per path of the
/// section tree, plus the stack of open sections.
#[derive(Debug)]
pub(crate) struct SectionTable {
    /// The tree's nodes; `nodes[ROOT]` is the root, never timed.
    nodes: Vec<Node>,
    stack: Vec<Frame>,
}

impl Default for SectionTable {
    fn default() -> Self {
        Self {
            nodes: vec![Node::new(NUM_SECTIONS)],
            stack: Vec::new(),
        }
    }
}

impl SectionTable {
    /// The node of section `s` directly inside `parent`, made on first use.
    fn child(&mut self, parent: NodeId, s: usize) -> NodeId {
        let id = self.nodes[parent as usize].children[s];
        if id != NO_NODE {
            return id;
        }
        let id = self.nodes.len() as NodeId;
        self.nodes.push(Node::new(s));
        self.nodes[parent as usize].children[s] = id;
        id
    }

    pub(crate) fn open(&mut self, s: Section) {
        let parent = self.stack.last().map_or(ROOT, |f| f.node);
        let node = self.child(parent, s as usize);
        self.stack.push(Frame {
            node,
            start: Instant::now(),
            child_ns: 0,
        });
    }

    /// Closes the innermost open section. A guard that outlives the
    /// recorder it was opened on finds nothing to close here.
    pub(crate) fn close(&mut self) {
        let Some(frame) = self.stack.pop() else {
            return;
        };
        let elapsed = u64::try_from(frame.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if let Some(p) = self.stack.last_mut() {
            p.child_ns = p.child_ns.saturating_add(elapsed);
        }
        let node = &mut self.nodes[frame.node as usize];
        node.calls += 1;
        node.total_ns += elapsed;
        node.self_ns += elapsed.saturating_sub(frame.child_ns);
    }

    /// Adds `other`'s times path by path.
    pub(crate) fn merge(&mut self, other: &SectionTable) {
        self.merge_below(ROOT, other, ROOT);
    }

    fn merge_below(&mut self, mine: NodeId, other: &SectionTable, theirs: NodeId) {
        for (s, &child) in other.nodes[theirs as usize].children.iter().enumerate() {
            if child == NO_NODE {
                continue;
            }
            let id = self.child(mine, s);
            let (from, to) = (&other.nodes[child as usize], &mut self.nodes[id as usize]);
            to.calls += from.calls;
            to.total_ns += from.total_ns;
            to.self_ns += from.self_ns;
            self.merge_below(id, other, child);
        }
    }

    pub(crate) fn report(&self) -> ProfReport {
        let mut edges = Vec::new();
        self.report_below(ROOT, &mut Vec::new(), &mut edges);
        ProfReport { edges }
    }

    /// Appends the nodes below `node` depth first, children in section-enum
    /// order; `path` holds the names of `node` and its enclosing sections.
    fn report_below(&self, node: NodeId, path: &mut Vec<&'static str>, edges: &mut Vec<ProfEdge>) {
        for &child in &self.nodes[node as usize].children {
            if child == NO_NODE {
                continue;
            }
            let n = &self.nodes[child as usize];
            let name = Section::ALL[n.section].name();
            if n.calls > 0 {
                edges.push(ProfEdge {
                    path: path.clone(),
                    name,
                    calls: n.calls,
                    total_ns: n.total_ns,
                    self_ns: n.self_ns,
                });
            }
            path.push(name);
            self.report_below(child, path, edges);
            path.pop();
        }
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

/// Opens a scoped timer for `s` under the innermost open section of the
/// current thread's recorder. Returns `None` (and does nothing else) unless
/// that recorder times sections.
#[inline]
pub fn section(s: Section) -> Option<SectionGuard> {
    recorder::with(|r| r.sections.as_mut().map(|t| t.open(s)))
        .flatten()
        .map(|()| SectionGuard {
            _not_send: std::marker::PhantomData,
        })
}

/// [`section`] with the slot read hoisted by the caller: batch loops read
/// once whether the recorder times sections and pass the answer here per
/// iteration, skipping even the slot load when it does not.
#[inline]
pub fn section_if(on: bool, s: Section) -> Option<SectionGuard> {
    if on {
        section(s)
    } else {
        None
    }
}

impl Drop for SectionGuard {
    fn drop(&mut self) {
        recorder::with(|r| r.sections.as_mut().map(|t| t.close()));
    }
}

/// One aggregated node of the section tree: a section under one full path
/// of enclosing sections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfEdge {
    /// The enclosing sections' names, outermost first; empty for sections
    /// opened at top level.
    pub path: Vec<&'static str>,
    /// Section name.
    pub name: &'static str,
    /// Times this section was entered under this path.
    pub calls: u64,
    /// Total wall nanoseconds inside this section under this path
    /// (children included).
    pub total_ns: u64,
    /// Nanoseconds not attributed to any child section.
    pub self_ns: u64,
}

/// A frozen copy of a recorder's section times.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfReport {
    /// Non-empty nodes, depth first, siblings in section-enum order.
    pub edges: Vec<ProfEdge>,
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
            .filter(|e| e.path.is_empty())
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

    /// The node for `name` under exactly the enclosing sections `path`
    /// (outermost first; empty = top level).
    #[must_use]
    pub fn edge(&self, path: &[&str], name: &str) -> Option<&ProfEdge> {
        self.edges.iter().find(|e| e.name == name && e.path == path)
    }

    /// Renders the section tree as aligned text: calls, total time, and
    /// self time per path, children indented under their parent.
    #[must_use]
    pub fn render_tree(&self) -> String {
        let mut out = format!(
            "{:<28} {:>12} {:>12} {:>12}\n",
            "section", "calls", "total", "self"
        );
        for e in &self.edges {
            let depth = e.path.len();
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
        }
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
                        e.path.last().map_or(Json::Null, |&p| Json::from(p)),
                    ),
                    ("path", Json::arr(e.path.iter().map(|&p| Json::from(p)))),
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
    use crate::recorder::Recorder;
    use std::time::Duration;

    #[test]
    fn disabled_sections_record_nothing() {
        assert!(section(Section::Observer).is_none(), "no recorder");
        let mut rec = Recorder::new();
        {
            let _installed = rec.install();
            let g = section(Section::Observer);
            assert!(
                g.is_none(),
                "a recorder without sections must not open them"
            );
        }
        assert_eq!(rec.profile(), ProfReport::default());
    }

    #[test]
    fn nested_scopes_split_self_and_child_time() {
        let mut rec = Recorder::new().with_sections();
        {
            let _installed = rec.install();
            let _outer = section(Section::Observer);
            std::thread::sleep(Duration::from_millis(15));
            {
                let _inner = section(Section::FaultSplit);
                std::thread::sleep(Duration::from_millis(30));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let report = rec.profile();
        assert_eq!(report.edges.len(), 2, "{report:?}");
        let outer = report.edge(&[], "observer").expect("outer edge").clone();
        let inner = report
            .edge(&["observer"], "fault_split")
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
        assert_eq!(report.attributed_ns(), outer.total_ns);
    }

    #[test]
    fn report_renders_tree_and_json() {
        let mut rec = Recorder::new().with_sections();
        {
            let _installed = rec.install();
            let _outer = section(Section::Observer);
            let _inner = section(Section::PmfInversion);
        }
        let report = rec.profile();
        let tree = report.render_tree();
        assert_eq!(tree.lines().count(), 3, "header + two edges:\n{tree}");
        assert!(tree.contains("observer"));
        assert!(tree.contains("  pmf_inversion"), "child indented:\n{tree}");
        let doc = report.to_json(Some(report.attributed_ns().max(1)));
        assert_eq!(
            doc.get("kind").and_then(Json::as_str),
            Some("profile_report")
        );
        assert_eq!(
            doc.get("sections")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(2)
        );
        let frac = doc.get("attributed_frac").and_then(Json::as_f64).unwrap();
        assert!(frac > 0.9, "attribution {frac}");
    }

    #[test]
    fn attribution_sums_children_into_parent_total() {
        let mut rec = Recorder::new().with_sections();
        {
            let _installed = rec.install();
            for _ in 0..100 {
                let _outer = section(Section::Observer);
                for _ in 0..3 {
                    let _inner = section(Section::EpochLenSample);
                }
            }
        }
        let report = rec.profile();
        assert_eq!(report.edges.len(), 2);
        let outer = report.edge(&[], "observer").expect("outer").clone();
        let inner = report
            .edge(&["observer"], "epoch_len_sample")
            .expect("inner")
            .clone();
        assert_eq!(outer.calls, 100);
        assert_eq!(inner.calls, 300);
        assert!(outer.total_ns >= inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
    }

    /// A section reached by two paths counts each path's own calls: with
    /// A → C → D run twice and B → C → D three times, each D node holds
    /// its own path's calls, and merging keeps the paths apart.
    #[test]
    fn sections_are_keyed_on_their_full_path() {
        let (a, b, c, d) = (
            Section::Observer,
            Section::FaultSplit,
            Section::BatchSparse,
            Section::SparseLeap,
        );
        let run = |outer: Section, times: usize, rec: &mut Recorder| {
            let _installed = rec.install();
            for _ in 0..times {
                let _outer = section(outer);
                let _c = section(c);
                let _d = section(d);
            }
        };
        let mut rec = Recorder::new().with_sections();
        run(a, 2, &mut rec);
        run(b, 3, &mut rec);
        let report = rec.profile();
        let calls = |path: &[&str]| {
            let (name, path) = path.split_last().unwrap();
            report.edge(path, name).map(|e| e.calls)
        };
        assert_eq!(
            calls(&["observer", "sparse_step_batch", "sparse_leap"]),
            Some(2)
        );
        assert_eq!(
            calls(&["fault_split", "sparse_step_batch", "sparse_leap"]),
            Some(3)
        );
        assert_eq!(calls(&["observer", "sparse_step_batch"]), Some(2));
        assert_eq!(calls(&["fault_split", "sparse_step_batch"]), Some(3));
        assert_eq!(report.calls_of("sparse_leap"), 5);
        assert_eq!(report.edges.len(), 6, "{report:?}");
        // The tree prints each path once, under its own parent (siblings in
        // section-enum order: fault_split before observer).
        let tree = report.render_tree();
        let leaps: Vec<(usize, &str)> = tree
            .lines()
            .filter(|l| l.trim_start().starts_with("sparse_leap"))
            .map(|l| {
                (
                    l.len() - l.trim_start().len(),
                    l.split_whitespace().nth(1).unwrap(),
                )
            })
            .collect();
        assert_eq!(leaps, vec![(4, "3"), (4, "2")], "{tree}");

        let mut other = Recorder::new().with_sections();
        run(b, 1, &mut other);
        rec.merge(other);
        let report = rec.profile();
        let leap = |outer| {
            report
                .edge(&[outer, "sparse_step_batch"], "sparse_leap")
                .map(|e| e.calls)
        };
        assert_eq!((leap("observer"), leap("fault_split")), (Some(2), Some(4)));
    }
}
