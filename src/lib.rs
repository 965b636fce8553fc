//! # population-protocols
//!
//! A comprehensive Rust reproduction of *Population Protocols Are Fast*
//! (Adrian Kosowski & Przemysław Uznański, PODC 2018): constant-state
//! population protocols solving leader election, majority, plurality
//! consensus, and all semi-linear predicates in polylogarithmic parallel
//! time (w.h.p.), or always-correctly in `O(n^ε)` time — built on a
//! self-organizing oscillator, a hierarchy of phase clocks, and a compiled
//! imperative programming framework.
//!
//! It re-exports the whole workspace, one module per crate:
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
//! The workspace README has the full API tour.
//!
//! # Examples
//!
//! Elect a leader with the paper's constant-state w.h.p. protocol:
//!
//! ```
//! use population_protocols::lang::interp::Executor;
//! use population_protocols::protocols::leader::leader_election;
//! use population_protocols::rules::Guard;
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
//!
//! Decide majority against an adversarial gap:
//!
//! ```
//! use population_protocols::protocols::majority::majority;
//! use population_protocols::lang::interp::Executor;
//! use population_protocols::rules::Guard;
//!
//! let program = majority(2);
//! let a = program.vars.get("A").unwrap();
//! let b = program.vars.get("B").unwrap();
//! let y = program.vars.get("Y_A").unwrap();
//!
//! // 501 vs 499 — an adversarial gap of 2 out of 1000 agents.
//! let mut exec = Executor::new(&program, &[(vec![a], 501), (vec![b], 499)], 1);
//! exec.run_iteration();
//! assert_eq!(exec.count_where(&Guard::var(y)), 1000, "everyone answers A");
//! ```

#![deny(missing_docs)]

pub use pp_analyze as analyze;
pub use pp_clocks as clocks;
pub use pp_engine as engine;
pub use pp_lang as lang;
pub use pp_protocols as protocols;
pub use pp_rules as rules;
