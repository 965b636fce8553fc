//! # pp-rules — the paper's boolean-flag rule formalism, executable
//!
//! Section 1.3 of *Population Protocols Are Fast* describes `O(1)`-state
//! protocols whose agent state is a tuple of boolean *state variables*, with
//! transition rules written as bit-mask formulas:
//!
//! ```text
//! ▷ (Σ₁) + (Σ₂) → (Σ₃) + (Σ₄)
//! ```
//!
//! A rule applies when the initiator satisfies `Σ₁` and the responder `Σ₂`;
//! executing it performs a *minimal update* so that `Σ₃`/`Σ₄` hold
//! afterwards. This crate implements that formalism on top of `pp-engine`:
//!
//! * [`var`] — named boolean variables packed into bitmask states,
//! * [`guard`] — boolean formulas with evaluation and literal extraction,
//! * [`rule`] — rules, minimal updates, rulesets, and the paper's
//!   LCM-padding thread composition,
//! * [`protocol`] — the [`FlagProtocol`] adapter to the simulation engine,
//!   under the paper's uniform-random-rule scheduling convention,
//! * [`parse`] — a text parser for the paper notation (ASCII and Unicode),
//! * [`reach`] — the `{0, ≥1}`-support reachability closure over packed
//!   states, shared by the analyzer's lint checks and the enumeration
//!   compiler.
//!
//! # Examples
//!
//! The one-way epidemic, parsed from text and simulated:
//!
//! ```
//! use pp_rules::{parse::parse_ruleset, FlagProtocol, VarSet};
//! use pp_engine::counts::CountPopulation;
//! use pp_engine::rng::SimRng;
//! use pp_engine::sim::{run_until, Simulator};
//! use pp_engine::Protocol;
//!
//! let mut vars = VarSet::new();
//! let rules = parse_ruleset("(I) + (!I) -> (I) + (I)", &mut vars).unwrap();
//! let protocol = FlagProtocol::new(vars, rules, "epidemic");
//!
//! let informed = protocol.vars().get("I").unwrap();
//! let mut counts = vec![0u64; protocol.num_states()];
//! counts[0] = 1023;
//! counts[informed.mask() as usize] = 1;
//!
//! let mut pop = CountPopulation::from_counts(&protocol, &counts);
//! let mut rng = SimRng::seed_from(1);
//! let t = run_until(&mut pop, &mut rng, 1000.0, 32, |s| s.count(0) == 0);
//! assert!(t.is_some());
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod guard;
pub mod parse;
pub mod protocol;
pub mod reach;
pub mod rule;
pub mod var;

pub use guard::Guard;
pub use protocol::FlagProtocol;
pub use rule::{Rule, RuleError, Ruleset, Update};
pub use var::{Var, VarSet, MAX_VARS};
