//! # pp-clocks — the synchronization machinery of *Population Protocols Are Fast*
//!
//! Section 5 of the paper constructs, out of nothing but pairwise random
//! interactions, a hierarchy of "phase clocks" that tick at rates separated
//! by `Θ(log n)` per level. This crate implements that construction
//! bottom-up:
//!
//! * [`oscillator`] — the self-organizing rock–paper–scissors dynamic
//!   (after \[DK18\]): three species plus a small *source* set `X`; the
//!   dominant species rotates with period `Θ(log n)` whenever
//!   `1 ≤ #X ≤ n^{1−ε}`. Includes the plain-RPS ablation, which never
//!   self-organizes — the reason the paper builds on \[DK18\].
//! * [`phase_clock`] — the modulo-`m` clock (Theorem 5.2): a detector that
//!   confirms species takeovers via `k` consecutive meetings, a phase
//!   counter ticking once per takeover, and fluke-robust doubt-gated
//!   consensus.
//! * [`junta`] — control of `#X`: pairwise elimination (Proposition 5.3,
//!   for always-correct protocols), the `k`-level decay signal
//!   (Proposition 5.5, for w.h.p. protocols), and a GS18-style junta
//!   election (Proposition 5.4, comparison point).
//! * [`controlled`] — the self-contained clock: an `X`-control process
//!   composed under the oscillator/detector/counter, realizing the paper's
//!   all-agents-start-identical startup story.
//! * [`hierarchy`] — clocks driving slowed copies of themselves
//!   (Section 5.3): gated simulation windows emulate a random-matching
//!   scheduler one activation per outer period, separating adjacent
//!   levels' tick rates by `Θ(log n)`.
//! * [`detect`] — measurement utilities: dominance events, rotation order,
//!   completed cycles and periods, escape times.
//! * [`diag`] — live diagnostic recorders built on the engine's telemetry:
//!   per-level tick rates, good-iteration fractions, fault recovery.
//!
//! # Examples
//!
//! Measure the oscillator's rotation period:
//!
//! ```
//! use pp_clocks::detect::{dominance_events, periods};
//! use pp_clocks::oscillator::{central_init, Dk18Oscillator, Oscillator};
//! use pp_engine::counts::CountPopulation;
//! use pp_engine::rng::SimRng;
//! use pp_engine::sim::Simulator;
//!
//! let osc = Dk18Oscillator::new();
//! let mut pop = CountPopulation::from_counts(&osc, &central_init(&osc, 2000, 5));
//! let mut rng = SimRng::seed_from(1);
//! let mut trace = Vec::new();
//! while pop.time() < 150.0 {
//!     pop.step_batch(&mut rng, 2000);
//!     trace.push((pop.time(), osc.species_counts(&pop.counts())));
//! }
//! let events = dominance_events(&trace, 0.8);
//! assert!(events.len() > 3, "the oscillator rotates");
//! let _ = periods(&events);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod controlled;
pub mod detect;
pub mod diag;
pub mod hierarchy;
pub mod junta;
pub mod oscillator;
pub mod phase_clock;

pub use controlled::{ControlledClock, FixedX};
pub use diag::{GoodIterationEstimator, TickTracer};
pub use hierarchy::{ClockHierarchy, HierAgent};
pub use junta::{GsJunta, KLevelDecay, PairwiseElimination, XControl};
pub use oscillator::{Dk18Oscillator, Oscillator, RpsOscillator};
pub use phase_clock::PhaseClock;
