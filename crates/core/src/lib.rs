//! # pp-core — the *Population Protocols Are Fast* reproduction, one import
//!
//! This facade re-exports the whole workspace:
//!
//! * [`analyze`] — static analysis: ruleset and program lints, support
//!   reachability, exact small-`n` stabilization checking;
//! * [`engine`] — simulation substrate: schedulers, fast backends,
//!   mean-field ODEs, statistics, parallel sweeps;
//! * [`rules`] — the boolean-flag rule formalism of Section 1.3;
//! * [`clocks`] — oscillators, phase clocks, `#X` control, and the clock
//!   hierarchy of Section 5;
//! * [`lang`] — the programming framework of Sections 2–4: AST,
//!   good-iteration executor, precompiler, and compiler;
//! * [`protocols`] — leader election, majority, plurality, and semi-linear
//!   predicates (w.h.p. and always-correct variants), plus baselines.
//!
//! # Examples
//!
//! Elect a leader with the paper's constant-state w.h.p. protocol:
//!
//! ```
//! use pp_core::lang::interp::Executor;
//! use pp_core::protocols::leader::leader_election;
//! use pp_core::rules::Guard;
//!
//! let program = leader_election();
//! let l = program.vars.get("L").unwrap();
//! let mut exec = Executor::new(&program, &[(vec![], 1000)], 7);
//! let iterations = exec
//!     .run_until(200, |e| e.count_where(&Guard::var(l)) == 1)
//!     .expect("unique leader, w.h.p.");
//! // O(log n) good iterations, O(log² n) parallel rounds.
//! assert!(iterations < 100);
//! ```

#![deny(missing_docs)]

pub use pp_analyze as analyze;
pub use pp_clocks as clocks;
pub use pp_engine as engine;
pub use pp_lang as lang;
pub use pp_protocols as protocols;
pub use pp_rules as rules;
