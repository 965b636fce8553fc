//! `pp-analyze`: static analysis for population-protocol rulesets and
//! framework programs.
//!
//! The analyzer inspects protocols *without running them*: it decides
//! guard satisfiability exactly over the packed state space, detects rules
//! that can never fire or never change anything, flags uniform-mode
//! outcome conflicts, over-approximates
//! reachable agent states from the declared initial supports (`PP105`,
//! `PP106`), and checks framework programs for data-flow hygiene and
//! substrate budgets (`PP2xx`). A separate exact checker
//! ([`exact::check_stabilization`]) explores the full configuration graph
//! for tiny populations and verifies claimed stabilization outright, and
//! [`exact::transient_counts`] gives the exact count law after `t`
//! interactions, an oracle for the simulator's samplers.
//!
//! Diagnostic codes are stable:
//!
//! | Range   | Meaning                          | Severity        |
//! |---------|----------------------------------|-----------------|
//! | `PP001` | syntax error                     | error           |
//! | `PP002` | post-condition not literals      | error           |
//! | `PP003` | contradictory post-condition     | error           |
//! | `PP101` | dead rule (unsatisfiable guard)  | error           |
//! | `PP102` | no-op rule                       | warning         |
//! | `PP104` | uniform-mode outcome conflict    | warning         |
//! | `PP105` | unreachable rule                 | warning         |
//! | `PP106` | possible non-silent execution    | warning         |
//! | `PP190` | a check was skipped              | info            |
//! | `PP191` | enumeration compiles past the flag budget | info   |
//! | `PP201` | use before assign                | warning         |
//! | `PP202` | never-written output             | error / warning |
//! | `PP203` | write to an input variable       | warning         |
//! | `PP204` | empty `if exists` then-branch    | warning         |
//! | `PP205` | inert loop or thread body        | warning         |
//! | `PP206` | compiled tree exceeds clock/width budget | warning |
//! | `PP207` | packed-variable budget exceeded  | warning         |
//!
//! Entry points: [`lint::lint_source`] for `.pp` files,
//! [`lint::lint_builtin`] for programs constructed in code, and the
//! individual passes in [`ruleset`], [`reach`], and [`program`] for
//! embedding.

#![deny(missing_docs)]

pub mod diag;
pub mod exact;
pub mod lint;
pub mod program;
pub mod reach;
pub mod ruleset;

pub use diag::{Diagnostic, Report, Severity};
pub use exact::{check_stabilization, transient_counts, StabilizationReport};
pub use lint::{lint_builtin, lint_program, lint_source};
