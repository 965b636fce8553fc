//! # pp-lang — the programming framework of *Population Protocols Are Fast*
//!
//! Sections 2–4 of the paper define a small imperative language for
//! formulating population protocols — `repeat` loops bounded by `c ln n`,
//! `if exists (Σ)` branching on population-wide conditions, `X := Σ`
//! assignments, and embedded rulesets — together with a compilation scheme
//! that turns any such program into a plain `O(1)`-state protocol whose
//! agents stay synchronized through the phase-clock hierarchy.
//!
//! This crate implements all of it:
//!
//! * [`ast`] — the language (programs, threads, instructions) with a
//!   builder API and paper-style pretty-printing;
//! * [`interp`] — the *good-iteration executor*: runs programs under the
//!   synchronization semantics Theorem 2.4 guarantees, with exact time
//!   accounting and optional fault injection. This is how the paper itself
//!   analyzes its protocols (Sections 3 and 6) — separately from the
//!   clocks that realize the semantics;
//! * [`parse`] — a parser for the paper-style pseudocode, round-tripping
//!   with [`ast::Program::render`], so protocols can live in `.pp` files;
//! * [`precompile`](mod@precompile) — Section 4's lowering: assignments to trigger-flag
//!   rulesets, branches to epidemic-evaluated `Z`-flags with leaf-wise
//!   ruleset compaction, and padding to a complete `w_max`-ary tree;
//! * [`compile`] — Section 5.4's deployment: the tree's leaves become
//!   time-path-filtered rules (`Π_τ ∧ Σ`) over the clock hierarchy,
//!   yielding one self-contained population protocol with **no global
//!   coordination whatsoever** (validated end-to-end in experiment E13);
//! * [`enumerate`] — the analyzer-guided backend for programs beyond the
//!   precompile flag budget: enumerates the reachable-support states,
//!   interns them into dense ids, and lowers rulesets to count-backend
//!   tables ([`pp_engine::ruletable::RuleTableProtocol`]).
//!   [`enumerate::EnumExecutor`] runs them through the interpreter's own
//!   walk ([`interp::ProgramExecutor`]) on the enumerated state space, so
//!   the good-iteration semantics are the same code, not a copy.
//!
//! # Examples
//!
//! ```
//! use pp_lang::ast::{build, Program, Thread};
//! use pp_lang::interp::Executor;
//! use pp_rules::{Guard, VarSet};
//!
//! let mut vars = VarSet::new();
//! let x = vars.add("X");
//! let y = vars.add("Y");
//! let program = Program {
//!     name: "copy".into(),
//!     vars,
//!     inputs: vec![x],
//!     outputs: vec![y],
//!     init: vec![],
//!     derived_init: vec![],
//!     threads: vec![Thread::Structured {
//!         name: "Main".into(),
//!         body: vec![build::assign(y, Guard::var(x))],
//!     }],
//! };
//! let mut exec = Executor::new(&program, &[(vec![x], 30), (vec![], 70)], 1);
//! exec.run_iteration();
//! assert_eq!(exec.count_where(&Guard::var(y)), 30);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod ast;
pub mod compile;
pub mod enumerate;
pub mod interp;
pub mod parse;
pub mod precompile;

pub use ast::{AssignValue, Instr, Program, Thread};
pub use compile::{BackendChoice, CompiledAgent, CompiledProtocol};
pub use enumerate::{EnumExecutor, EnumPlan};
pub use interp::{ExecOptions, Executor};
pub use precompile::{precompile, CompiledTree, TreeNode};
