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
//! The asynchronous-scheduler backends implement [`sim::Simulator`],
//! including the batched stepping entry point
//! [`sim::Simulator::step_batch`] that the run loops ([`sim::run_steps`],
//! [`sim::run_rounds`], [`sim::run_until`]) drive; per-interaction
//! [`sim::Simulator::step`] remains for fine-grained control. The
//! random-matching scheduler runs by rounds
//! ([`matching::MatchingPopulation::round`]) and is not a `Simulator`.
//! Fault injection ([`faults::FaultyPopulation`]) and checkpoints
//! ([`snapshot::Checkpoint`]) belong to [`counts::CountPopulation`]. Batch
//! cost is
//! what matters on hot paths: it is paid once per *reactive* interaction (or
//! per executed step where no reactivity information exists), with no-op
//! stretches leaped over in `O(1)`.
//!
//! | Backend | Representation | Per-step cost | Batch cost (per `step_batch` of `m` steps) | Use case |
//! |---|---|---|---|---|
//! | [`counts::CountPopulation`] (`k ≤ 1024`) | state-count vector + reactivity index (ascending occupied list, `k × k` reactivity memo) | `O(occupied)` | `O(q²)` draws plus `O(q)` per in-batch collision per collision batch of `≈ √(n·q)` steps; `O(occupied)` per reactive interaction and `O(1)` per no-op stretch; `O(occupied)` per plain step | very large `n`, dense and sparse dynamics, silence detection, faults and checkpoints |
//! | [`counts::SparseCountPopulation`] | occupied states + per-block count sums; interned ids with a guard-class memo; per-rule-slot agent counts and lazily built class-member bitsets while leaping | `O(occupied/B + B)`, `B = 32` | two walks of the picked rule slot's class members, `O(occupied/64 + members)`, plus `O(set bits)` upkeep per effective step and `O(1)` per stretch of ineffective rule draws where `p · (occupied + 80 + 100 · (words − 1)) < 25`; `O(m · (occupied/B + B))` otherwise | every protocol above 1 024 declared states (E6, E9's `SyncMajority`, E15), which `CountPopulation` refuses; every program executor site ([`counts::SparseCountPopulation::run_on`]) |
//! | [`matching::MatchingPopulation`] | state-count vector | — (not a `Simulator`) | `O(q²)` draws per round, `q` occupied states (`k ≤ 1024`): one collision-batch settle step with all `⌊n/2⌋` pairs deferred | random-matching scheduler (§5.3), E5 and E12 |
//! | [`meanfield`] | fraction vector | `O(k²)` per ODE step | — (deterministic) | `n → ∞` limit |
//!
//! The asynchronous backends implement the same distribution over runs, and
//! `step_batch` induces the same run distribution as iterated `step` — the
//! leaping backends are exact because they only skip interactions that
//! provably cannot change state, or, on the sparse backend, rule draws
//! that thin out by the protocol's weight contract (see `DESIGN.md` §9 for
//! the arguments).
//!
//! ## Telemetry
//!
//! Every backend hot path carries capture points for the run's
//! [`recorder::Recorder`]: [`metrics`] counters and log₂ histograms (the
//! regime counters among them count every regime decision) and scoped
//! timers for the hierarchical [`prof`] section profiler. A run installs
//! its recorder on its thread; with none installed, a backend pays one
//! thread-local load per batch. Sweeps give each task its own recorder and
//! merge them in task order. Reports render through the in-repo [`json`]
//! writer/reader. See `DESIGN.md` §10 and §14.
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
pub mod json;
pub mod matching;
pub mod meanfield;
pub mod metrics;
pub mod obj;
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

pub use protocol::{Protocol, ProtocolSpec};
pub use rng::SimRng;
pub use sim::{
    round_steps, run_rounds, run_steps, run_until, BatchOutcome, Simulator, StepOutcome,
};
