//! # pp-engine — simulation substrate for population protocols
//!
//! This crate provides everything needed to *run* population protocols, the
//! model of Angluin et al. in which `n` indistinguishable finite-state agents
//! interact in randomly scheduled pairs. It is the foundation of the
//! reproduction of *Population Protocols Are Fast* (Kosowski & Uznański,
//! PODC 2018): the protocol crates define transition functions, and this
//! crate supplies exact schedulers, fast simulation backends, the mean-field
//! (continuous-limit) integrator, statistics, and a parallel sweep harness.
//!
//! ## Backends
//!
//! Every backend implements [`sim::Simulator`], including the batched
//! stepping entry point [`sim::Simulator::step_batch`] that the run loops
//! ([`sim::run_rounds`], [`sim::run_until`]) drive; per-interaction
//! [`sim::Simulator::step`] remains for fine-grained control. Batch cost is
//! what matters on hot paths: it is paid once per *reactive* interaction (or
//! per executed step where no reactivity information exists), with no-op
//! stretches leaped over in `O(1)`.
//!
//! | Backend | Representation | Per-step cost | Batch cost (per `step_batch` of `m` steps) | Use case |
//! |---|---|---|---|---|
//! | [`population::Population`] | explicit agent array | `O(1)` | `O(m)` tight loop | per-agent inspection, matching scheduler |
//! | [`counts::CountPopulation`] | state-count vector + Fenwick | `O(log k)` | `O(occupied)` per reactive interaction, `O(1)` per no-op stretch (`k ≤ 1024`); `O(m log k)` otherwise | very large `n`, sparse dynamics, silence detection |
//! | [`counts::SparseCountPopulation`] | occupied states + per-block count sums; interned ids with a guard-class memo; per-rule-slot agent counts while leaping | `O(occupied/B + B)`, `B = 32` | two bit-filtered `O(occupied)` scans plus `O(set bits)` upkeep per effective step and `O(1)` per stretch of ineffective rule draws where `p · (occupied + 80 + 100 · (words − 1)) < 25`; `O(m · (occupied/B + B))` otherwise | huge nominal `k`, few occupied states; every program executor site ([`counts::SparseCountPopulation::run_on`]) |
//! | [`matching::MatchingPopulation`] | agent array | `O(n)` per round | whole rounds, `O(1)` amortized per step | random-matching scheduler (§5.3) |
//! | [`meanfield`] | fraction vector | `O(k²)` per ODE step | — (deterministic) | `n → ∞` limit |
//!
//! All stochastic backends implement the same distribution over runs, and
//! `step_batch` induces the same run distribution as iterated `step` — the
//! leaping backends are exact because they only skip interactions that
//! provably cannot change state, or, on the sparse backend, rule draws
//! that thin out by the protocol's weight contract (see `DESIGN.md` §9 for
//! the arguments).
//!
//! ## Telemetry
//!
//! Every backend hot path carries capture points for the run's
//! [`recorder::Recorder`]: [`metrics`] counters and log₂ histograms, scoped
//! timers for the hierarchical [`prof`] section profiler, and per-batch
//! regime-dispatch records ([`trace::DispatchRecord`]). A run installs its
//! recorder on its thread; with none installed, a backend pays one
//! thread-local load per batch. Sweeps give each task its own recorder and
//! merge them in task order. [`trace`] records span/event timelines as JSON
//! Lines via the in-repo [`json`] writer/reader. See `DESIGN.md` §10 and
//! §14.
//!
//! ## Example
//!
//! ```
//! use pp_engine::counts::CountPopulation;
//! use pp_engine::protocol::TableProtocol;
//! use pp_engine::rng::SimRng;
//! use pp_engine::sim::{run_until, Simulator};
//!
//! // Two-way epidemic: one informed agent informs everyone in O(log n) rounds.
//! let p = TableProtocol::new(2, "epidemic").rule(1, 0, 1, 1).rule(0, 1, 1, 1);
//! let mut pop = CountPopulation::from_counts(&p, &[99_999, 1]);
//! let mut rng = SimRng::seed_from(7);
//! let t = run_until(&mut pop, &mut rng, 100.0, 256, |s| s.count(0) == 0)
//!     .expect("epidemic completes");
//! assert!(t < 60.0);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod collision;
pub mod counts;
pub mod faults;
pub mod fenwick;
pub mod json;
pub mod matching;
pub mod meanfield;
pub mod metrics;
pub mod obj;
pub mod population;
pub mod prof;
pub mod protocol;
pub(crate) mod reactivity;
pub mod recorder;
pub mod report;
pub mod rng;
pub mod ruletable;
pub mod sim;
pub mod snapshot;
mod sparse;
pub mod stats;
pub mod sweep;
pub mod trace;

pub use protocol::{Protocol, ProtocolSpec};
pub use rng::SimRng;
pub use sim::{run_rounds, run_until, BatchOutcome, Simulator, StepOutcome};
