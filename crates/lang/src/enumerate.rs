//! Reachable-state enumeration: the compiler backend that lifts the
//! precompile flag budget (PP207).
//!
//! `precompile` packs every declared variable *plus* one lowering flag per
//! assignment / `if exists` into a single `u32` bitmask — a budget of
//! [`pp_rules::MAX_VARS`] bits that the paper's richer constructions (plurality over
//! `l` colors, semilinear predicates) blow through. But those protocols
//! live in *few reachable states*: starting from the declared initial
//! supports, the analyzer's sound `{0, ≥1}`-support closure
//! ([`pp_rules::reach`]) bounds which packed states can ever occur, and the
//! bound is typically orders of magnitude below `2^bits`.
//!
//! This backend enumerates exactly those live states, interns them into
//! dense `u32` ids (ascending packed order, so ids are deterministic), and
//! lowers every scheduler-visible ruleset into per-rule dense tables
//! ([`RuleTableProtocol`]) that run on the sparse count backend's
//! rule-weighted leap. Program structure (assignments, branches,
//! loops) is executed by [`EnumExecutor`], which is the interpreter's own
//! walk ([`crate::interp::ProgramExecutor`]) on the [`Enumerated`] state
//! space: the good-iteration semantics and time accounting are the same
//! code, and only the state space is id-compressed, never the dynamics.
//! Scheduler runs use the same LCM-composed rulesets and the same
//! uniform-rule draw distribution (dead rules are stripped from the
//! tables but keep their draw share as no-ops).
//!
//! Soundness: the closure *over-approximates* support, so every state any
//! real run can produce has an id — enumeration can mark extra states live
//! (wasting a table row) but can never miss one. After enumeration,
//! [`verify_enumeration`] re-runs the analyzer's ruleset checks (PP101
//! guard satisfiability, PP105 rule liveness, closure closedness) against
//! the *enumerated* state set, so compiler and analyzer certify each
//! other; any disagreement aborts compilation with
//! [`EnumError::Verification`] instead of silently miscompiling. When
//! enumeration itself is infeasible (too many inputs to enumerate supports,
//! or a live set beyond [`ENUM_STATE_CAP`]) the caller falls back to the
//! interpreter.

use crate::ast::{AssignValue, Instr, Program, Thread};
use crate::interp::{initial_config, ProgramExecutor, StateSpace};
use pp_engine::counts::SparseCountPopulation;
use pp_engine::rng::SimRng;
use pp_engine::ruletable::{RuleTable, RuleTableProtocol, NO_RULE};
use pp_rules::reach::{support_closure, AbstractAssign, SupportModel};
use pp_rules::{Ruleset, Var, VarSet};
use std::collections::HashMap;
use std::fmt;

/// Maximum declared-input count for enumerating initial supports (each
/// subset of inputs is one initial state; `2^k` subsets).
pub const INPUT_ENUM_CAP: usize = 12;

/// Maximum live-state count the enumeration backend will compile. Beyond
/// this the per-rule tables (and the dense count backend underneath) stop
/// paying for themselves and the interpreter takes over.
pub const ENUM_STATE_CAP: usize = 1 << 16;

/// Why enumeration was not (or could not be) performed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnumError {
    /// More than [`INPUT_ENUM_CAP`] declared inputs: the initial supports
    /// cannot be enumerated.
    TooManyInputs(usize),
    /// The support closure declined the state space (defensive; cannot
    /// happen for programs within the [`pp_rules::MAX_VARS`] packing budget).
    ClosureSkipped,
    /// The live-state count exceeds [`ENUM_STATE_CAP`].
    TooManyStates(usize),
    /// Post-enumeration verification found the enumerated set and the
    /// ruleset checks in disagreement (a compiler bug, never a user error).
    Verification(String),
}

impl fmt::Display for EnumError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::TooManyInputs(n) => write!(
                f,
                "{n} declared inputs exceed the {INPUT_ENUM_CAP}-input support-enumeration cap"
            ),
            Self::ClosureSkipped => write!(
                f,
                "the support closure was skipped (state space beyond the reachability cap)"
            ),
            Self::TooManyStates(n) => write!(
                f,
                "{n} live states exceed the {ENUM_STATE_CAP}-state enumeration cap"
            ),
            Self::Verification(msg) => write!(f, "enumeration verification failed: {msg}"),
        }
    }
}

/// The declared initial supports: one packed state per subset of the input
/// variables (every agent carries some subset of the inputs), with `init`
/// and `derived_init` applied. `None` when there are too many inputs to
/// enumerate.
#[must_use]
pub fn initial_supports(program: &Program) -> Option<Vec<u32>> {
    if program.inputs.len() > INPUT_ENUM_CAP {
        return None;
    }
    let mut supports = Vec::with_capacity(1 << program.inputs.len());
    for bits in 0u32..(1 << program.inputs.len()) {
        let on: Vec<Var> = program
            .inputs
            .iter()
            .enumerate()
            .filter(|&(i, _)| bits & (1 << i) != 0)
            .map(|(_, &v)| v)
            .collect();
        supports.push(program.initial_state(&on));
    }
    Some(supports)
}

/// Every population-wide assignment in the program, for the support
/// abstraction (both branches of every `if exists` are included — the
/// abstraction must cover all control paths).
#[must_use]
pub fn collect_assigns(program: &Program) -> Vec<AbstractAssign> {
    fn walk(instrs: &[Instr], out: &mut Vec<AbstractAssign>) {
        for instr in instrs {
            match instr {
                Instr::Assign { var, value } => out.push(match value {
                    AssignValue::Formula(g) => AbstractAssign::Formula(*var, g.clone()),
                    AssignValue::RandomBit => AbstractAssign::Coin(*var),
                }),
                Instr::IfExists {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    walk(then_branch, out);
                    walk(else_branch, out);
                }
                Instr::RepeatLog { body, .. } => walk(body, out),
                Instr::Execute { .. } => {}
            }
        }
    }
    let mut out = Vec::new();
    for (_, body) in program.structured_threads() {
        walk(body, &mut out);
    }
    out
}

/// Every ruleset the scheduler can ever run: raw threads plus `execute`
/// sites of every structured thread, in pre-order.
#[must_use]
pub fn collect_rulesets(program: &Program) -> Vec<&Ruleset> {
    fn walk<'a>(instrs: &'a [Instr], out: &mut Vec<&'a Ruleset>) {
        for instr in instrs {
            match instr {
                Instr::Execute { ruleset, .. } => out.push(ruleset),
                Instr::IfExists {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    walk(then_branch, out);
                    walk(else_branch, out);
                }
                Instr::RepeatLog { body, .. } => walk(body, out),
                Instr::Assign { .. } => {}
            }
        }
    }
    let mut out = Vec::new();
    for thread in &program.threads {
        match thread {
            Thread::Raw { ruleset, .. } => out.push(ruleset),
            Thread::Structured { body, .. } => walk(body, &mut out),
        }
    }
    out
}

/// The full support model for a program: every ruleset, every assignment,
/// and the enumerated initial supports. `None` when the inputs exceed
/// [`INPUT_ENUM_CAP`]. This is the single model both the lint reachability
/// checks and the enumeration compiler run on.
#[must_use]
pub fn support_model(program: &Program) -> Option<SupportModel<'_>> {
    Some(SupportModel {
        rulesets: collect_rulesets(program),
        assigns: collect_assigns(program),
        initial: initial_supports(program)?,
    })
}

/// Enumeration statistics, computed without building the full tables.
#[derive(Debug, Clone)]
pub struct EnumPlan {
    /// The live packed states, ascending (dense id `i` ↦ `live[i]`).
    pub live: Vec<u32>,
    /// Source-level rules that can never fire (the analyzer's PP105 set).
    pub dead_rules: usize,
    /// Source-level rule count across all rulesets.
    pub total_rules: usize,
}

impl EnumPlan {
    /// Compression ratio `2^bits / live`.
    #[must_use]
    pub fn compression(&self, program: &Program) -> f64 {
        (1u64 << program.vars.len()) as f64 / self.live.len().max(1) as f64
    }
}

/// Computes the enumeration plan for a program: runs the support closure
/// and counts dead rules. Errs when enumeration is infeasible.
///
/// # Errors
///
/// [`EnumError::TooManyInputs`], [`EnumError::ClosureSkipped`], or
/// [`EnumError::TooManyStates`].
pub fn plan(program: &Program) -> Result<EnumPlan, EnumError> {
    let model = support_model(program).ok_or(EnumError::TooManyInputs(program.inputs.len()))?;
    let closure = support_closure(&program.vars, &model);
    if closure.skipped {
        return Err(EnumError::ClosureSkipped);
    }
    if closure.live.len() > ENUM_STATE_CAP {
        return Err(EnumError::TooManyStates(closure.live.len()));
    }
    let mut dead_rules = 0usize;
    let mut total_rules = 0usize;
    for ruleset in &model.rulesets {
        for rule in ruleset.rules() {
            total_rules += 1;
            if !(closure.any_satisfies(&rule.guard_a) && closure.any_satisfies(&rule.guard_b)) {
                dead_rules += 1;
            }
        }
    }
    Ok(EnumPlan {
        live: closure.live,
        dead_rules,
        total_rules,
    })
}

/// The closed-loop verification hook: re-runs the analyzer's ruleset
/// checks against the *enumerated* state set.
///
/// For every rule of every ruleset, evaluated state-by-state over `live`
/// (independently of the closure's internal bookkeeping):
///
/// * **PP101 / PP105 re-check** — a rule is live iff both its guards have
///   a witness in the enumerated set; a live rule must then have *every*
///   update target inside the set (closure closedness). A live rule whose
///   update escapes the set means the compiler would drop probability
///   mass — the exact miscompilation this hook exists to catch.
/// * **assignment closedness** — every assignment maps every enumerated
///   state (both coin outcomes) back into the set.
///
/// # Errors
///
/// A human-readable description of the first disagreement found.
pub fn verify_enumeration(
    vars: &VarSet,
    live: &[u32],
    rulesets: &[&Ruleset],
    assigns: &[AbstractAssign],
) -> Result<(), String> {
    let contains = |t: u32| live.binary_search(&t).is_ok();
    for ruleset in rulesets {
        for rule in ruleset.rules() {
            let any_a = live.iter().any(|&s| rule.guard_a.eval(s));
            let any_b = live.iter().any(|&s| rule.guard_b.eval(s));
            if !(any_a && any_b) {
                // Dead over the enumerated set (PP105): firing requires a
                // witness on each side, so there is nothing to close over.
                continue;
            }
            for &s in live {
                if rule.guard_a.eval(s) && !contains(rule.update_a.apply(s)) {
                    return Err(format!(
                        "live rule `{}` maps enumerated state {} outside the enumerated set \
                         (initiator side)",
                        rule.render(vars),
                        vars.render_state(s)
                    ));
                }
                if rule.guard_b.eval(s) && !contains(rule.update_b.apply(s)) {
                    return Err(format!(
                        "live rule `{}` maps enumerated state {} outside the enumerated set \
                         (responder side)",
                        rule.render(vars),
                        vars.render_state(s)
                    ));
                }
            }
        }
    }
    for assign in assigns {
        for &s in live {
            let targets = match assign {
                AbstractAssign::Formula(v, g) => vec![v.assign(s, g.eval(s))],
                AbstractAssign::Coin(v) => vec![v.assign(s, true), v.assign(s, false)],
            };
            for t in targets {
                if !contains(t) {
                    return Err(format!(
                        "assignment maps enumerated state {} to {} outside the enumerated set",
                        vars.render_state(s),
                        vars.render_state(t)
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Lowers a (composed) ruleset into a [`RuleTableProtocol`] over the
/// enumerated states, stripping dead rules into no-op draw shares.
///
/// # Errors
///
/// [`EnumError::Verification`] when a live rule's update maps an
/// enumerated state outside the set (the set is not closed — a compiler
/// bug, caught rather than miscompiled).
pub fn lower_ruleset(
    vars: &VarSet,
    composed: &Ruleset,
    live: &[u32],
    name: &str,
) -> Result<RuleTableProtocol, EnumError> {
    let q = live.len();
    let id_of = |t: u32| live.binary_search(&t).ok();
    // LCM composition replicates each thread's rules up to the thread-size
    // LCM, so a composed ruleset is mostly copies. Lower each distinct rule
    // once and point every copy's draw slot at the shared table — the draw
    // distribution is unchanged while lowering work and table memory drop
    // by the replication factor.
    let mut distinct: Vec<&pp_rules::Rule> = Vec::new();
    let mut slot_of_rule: Vec<usize> = Vec::with_capacity(composed.len());
    for rule in composed.rules() {
        let idx = distinct.iter().position(|d| *d == rule).unwrap_or_else(|| {
            distinct.push(rule);
            distinct.len() - 1
        });
        slot_of_rule.push(idx);
    }
    let mut tables = Vec::new();
    // Table id for each distinct rule, or NO_RULE once proven dead.
    let mut table_of: Vec<u32> = Vec::with_capacity(distinct.len());
    for rule in &distinct {
        let match_a: Vec<bool> = live.iter().map(|&s| rule.guard_a.eval(s)).collect();
        let match_b: Vec<bool> = live.iter().map(|&s| rule.guard_b.eval(s)).collect();
        if !(match_a.iter().any(|&m| m) && match_b.iter().any(|&m| m)) {
            // Dead rule: no witness on one side, so it can never fire on
            // any configuration supported inside the enumerated set. Strip
            // the table; its draw slots stay behind as no-ops.
            table_of.push(NO_RULE);
            continue;
        }
        let mut apply_a = vec![0u32; q];
        let mut apply_b = vec![0u32; q];
        for (i, &s) in live.iter().enumerate() {
            apply_a[i] = if match_a[i] {
                let t = rule.update_a.apply(s);
                id_of(t).ok_or_else(|| escaped(vars, rule, s, t))? as u32
            } else {
                i as u32
            };
            apply_b[i] = if match_b[i] {
                let t = rule.update_b.apply(s);
                id_of(t).ok_or_else(|| escaped(vars, rule, s, t))? as u32
            } else {
                i as u32
            };
        }
        table_of.push(tables.len() as u32);
        tables.push(RuleTable {
            match_a,
            match_b,
            apply_a,
            apply_b,
            probability: rule.probability,
        });
    }
    let draw: Vec<u32> = slot_of_rule.iter().map(|&d| table_of[d]).collect();
    Ok(RuleTableProtocol::with_draw(name, q, tables, draw))
}

fn escaped(vars: &VarSet, rule: &pp_rules::Rule, s: u32, t: u32) -> EnumError {
    EnumError::Verification(format!(
        "rule `{}` maps live state {} to {} outside the enumerated set",
        rule.render(vars),
        vars.render_state(s),
        vars.render_state(t)
    ))
}

/// The enumerated state space: the live states of [`plan`], as dense ids
/// ascending with their packed masks, and one [`SparseCountPopulation`]
/// per scheduler site over the lowered [`RuleTableProtocol`] tables, built
/// from the initial configuration when the executor is.
pub struct Enumerated {
    live: Vec<u32>,
    dead_rules: usize,
    total_rules: usize,
    /// Raw threads composed, lowered once (runs during overhead charging).
    overhead: Option<SparseCountPopulation<RuleTableProtocol>>,
    /// Per-`execute`-site lowered protocols (site ruleset LCM-composed
    /// with the raw threads), keyed by the ruleset's address inside the
    /// borrowed program — stable for the executor's lifetime.
    sites: HashMap<usize, SparseCountPopulation<RuleTableProtocol>>,
}

impl StateSpace for Enumerated {
    fn num_states(&self) -> usize {
        self.live.len()
    }

    fn packed(&self, state: usize) -> u32 {
        self.live[state]
    }

    fn state(&self, packed: u32) -> usize {
        self.live
            .binary_search(&packed)
            .expect("verified: every reachable state is enumerated")
    }

    fn schedule(
        &mut self,
        ruleset: Option<&Ruleset>,
        config: &mut Vec<(usize, u64)>,
        steps: u64,
        rng: &mut SimRng,
    ) {
        let site = match ruleset {
            Some(rs) => self.sites.get_mut(&(std::ptr::from_ref(rs) as usize)),
            None => self.overhead.as_mut(),
        };
        if let Some(site) = site {
            site.run_on(config, steps, rng);
        }
    }
}

/// Executes a [`Program`] under good-iteration semantics on the enumerated
/// state space — the drop-in compiled counterpart of
/// [`crate::interp::Executor`], walking the same
/// [`crate::interp::ProgramExecutor`] code.
///
/// States are dense live-state ids ([`EnumExecutor::live_states`] maps
/// them to packed masks); scheduler runs go through one
/// [`SparseCountPopulation`] per site over the `q = live` states of the
/// tabulated [`RuleTableProtocol`] instead of the interpreter's `2^bits`
/// nominal space.
///
/// # Examples
///
/// ```
/// use pp_lang::ast::{build, Program, Thread};
/// use pp_lang::enumerate::EnumExecutor;
/// use pp_rules::{Guard, VarSet};
///
/// // A one-instruction program: everyone sets Y := on.
/// let mut vars = VarSet::new();
/// let y = vars.add("Y");
/// let program = Program {
///     name: "set-y".into(),
///     vars,
///     inputs: vec![],
///     outputs: vec![y],
///     init: vec![],
///     derived_init: vec![],
///     threads: vec![Thread::Structured {
///         name: "Main".into(),
///         body: vec![build::assign(y, Guard::any())],
///     }],
/// };
/// let mut exec = EnumExecutor::new(&program, &[(vec![], 100)], 42).unwrap();
/// exec.run_iteration();
/// assert_eq!(exec.count_where(&Guard::var(y)), 100);
/// ```
pub type EnumExecutor<'p> = ProgramExecutor<'p, Enumerated>;

impl<'p> EnumExecutor<'p> {
    /// Creates an enumeration-compiled executor. `groups` lists `(input
    /// variables on, agent count)` pairs describing the initial population.
    ///
    /// # Errors
    ///
    /// Any [`EnumError`]: enumeration infeasible, or post-enumeration
    /// verification failed.
    ///
    /// # Panics
    ///
    /// Panics if the total population is smaller than 2 or an input group
    /// names a non-input variable (as [`crate::interp::Executor::new`]).
    pub fn new(
        program: &'p Program,
        groups: &[(Vec<Var>, u64)],
        seed: u64,
    ) -> Result<Self, EnumError> {
        let plan = plan(program)?;
        // Closed-loop verification: the compiler and analyzer certify each
        // other before any table is trusted.
        let model = support_model(program).ok_or(EnumError::TooManyInputs(program.inputs.len()))?;
        verify_enumeration(&program.vars, &plan.live, &model.rulesets, &model.assigns)
            .map_err(EnumError::Verification)?;

        let live = plan.live;
        let config = initial_config(program, groups, |packed| {
            live.binary_search(&packed)
                .expect("initial states are enumerated by construction")
        });
        let site = |ruleset: &Ruleset, name: &str| {
            let lowered = lower_ruleset(&program.vars, ruleset, &live, name)?;
            Ok::<_, EnumError>(SparseCountPopulation::from_pairs(lowered, &config))
        };

        let raws: Vec<&Ruleset> = program.raw_threads().map(|(_, rs)| rs).collect();
        let raw = (!raws.is_empty()).then(|| Ruleset::compose(raws));
        let overhead = match &raw {
            Some(r) if !r.is_empty() => Some(site(r, &format!("{}/raw", program.name))?),
            _ => None,
        };
        let mut sites = HashMap::new();
        for ruleset in collect_rulesets(program) {
            // Raw threads reappear here; only `execute` sites need a
            // composed protocol, keyed by site address.
            if program
                .raw_threads()
                .any(|(_, rs)| std::ptr::eq(rs, ruleset))
            {
                continue;
            }
            let composed = match &raw {
                Some(r) => Ruleset::compose([ruleset, r]),
                None => ruleset.clone(),
            };
            if composed.is_empty() {
                continue; // nothing to run; overhead-only site
            }
            sites.insert(
                std::ptr::from_ref(ruleset) as usize,
                site(&composed, &format!("{}/enum", program.name))?,
            );
        }
        let space = Enumerated {
            live,
            dead_rules: plan.dead_rules,
            total_rules: plan.total_rules,
            overhead,
            sites,
        };
        Ok(Self::start(program, config, seed, space))
    }

    /// The enumerated packed states (dense id `i` ↦ `live_states()[i]`).
    #[must_use]
    pub fn live_states(&self) -> &[u32] {
        &self.space.live
    }

    /// Source-level rules proved dead (stripped from the lowered tables).
    #[must_use]
    pub fn dead_rules(&self) -> usize {
        self.space.dead_rules
    }

    /// Source-level rule count across all rulesets.
    #[must_use]
    pub fn total_rules(&self) -> usize {
        self.space.total_rules
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::build;
    use crate::interp::Executor;
    use pp_rules::parse::parse_ruleset;
    use pp_rules::Guard;

    fn program_with(vars: VarSet, inputs: Vec<Var>, threads: Vec<Thread>) -> Program {
        Program {
            name: "test".into(),
            vars,
            inputs,
            outputs: vec![],
            init: vec![],
            derived_init: vec![],
            threads,
        }
    }

    #[test]
    fn enumeration_interns_only_live_states() {
        let mut vars = VarSet::new();
        let rs = parse_ruleset("(I) + (!I) -> (I) + (I)", &mut vars).unwrap();
        let i = vars.get("I").unwrap();
        // Pad with unused variables: nominal space 2^6, live space 2.
        for k in 0..4 {
            vars.add(&format!("U{k}"));
        }
        let p = program_with(
            vars,
            vec![i],
            vec![Thread::Structured {
                name: "Main".into(),
                body: vec![build::execute(8, rs)],
            }],
        );
        let plan = plan(&p).unwrap();
        assert_eq!(plan.live, vec![0, i.mask()]);
        assert_eq!(plan.dead_rules, 0);
        let exec = EnumExecutor::new(&p, &[(vec![i], 1), (vec![], 99)], 1).unwrap();
        assert_eq!(exec.counts().len(), 2);
        assert_eq!(exec.live_states(), &[0, i.mask()]);
    }

    #[test]
    fn compiled_epidemic_matches_interpreter_outcome() {
        let mut vars = VarSet::new();
        let rs = parse_ruleset("(I) + (!I) -> (I) + (I)", &mut vars).unwrap();
        let i = vars.get("I").unwrap();
        let p = program_with(
            vars,
            vec![i],
            vec![Thread::Structured {
                name: "Main".into(),
                body: vec![build::execute(8, rs)],
            }],
        );
        let groups = [(vec![i], 1u64), (vec![], 999)];
        let mut compiled = EnumExecutor::new(&p, &groups, 5).unwrap();
        compiled.run_iteration();
        // 8 ln 1000 ≈ 55 rounds: the epidemic completes w.h.p.
        assert_eq!(compiled.count_where(&Guard::var(i)), 1000);
        let mut interp = Executor::new(&p, &groups, 5);
        interp.run_iteration();
        assert_eq!(
            compiled.rounds(),
            interp.rounds(),
            "identical time accounting"
        );
    }

    #[test]
    fn deterministic_assignments_match_interpreter_exactly() {
        let mut vars = VarSet::new();
        let a = vars.add("A");
        let y = vars.add("Y");
        let z = vars.add("Z");
        let body = vec![
            build::assign(y, Guard::var(a)),
            build::if_else(Guard::var(y), vec![build::assign(z, Guard::any())], vec![]),
        ];
        let p = program_with(
            vars,
            vec![a],
            vec![Thread::Structured {
                name: "Main".into(),
                body,
            }],
        );
        let groups = [(vec![a], 30u64), (vec![], 70)];
        let mut compiled = EnumExecutor::new(&p, &groups, 9).unwrap();
        compiled.run_iteration();
        let mut interp = Executor::new(&p, &groups, 9);
        interp.run_iteration();
        for g in [Guard::var(a), Guard::var(y), Guard::var(z)] {
            assert_eq!(compiled.count_where(&g), interp.count_where(&g));
        }
    }

    #[test]
    fn coin_assignment_splits_population() {
        let mut vars = VarSet::new();
        let f = vars.add("F");
        let p = program_with(
            vars,
            vec![],
            vec![Thread::Structured {
                name: "Main".into(),
                body: vec![build::assign_coin(f)],
            }],
        );
        let mut exec = EnumExecutor::new(&p, &[(vec![], 10_000)], 2).unwrap();
        exec.run_iteration();
        let ones = exec.count_where(&Guard::var(f));
        assert!((4_500..5_500).contains(&ones), "coin split {ones}");
    }

    #[test]
    fn dead_rules_are_counted_and_stripped() {
        let mut vars = VarSet::new();
        let rs =
            parse_ruleset("(A) + (.) -> (Y) + (.)\n(B) + (.) -> (!Y) + (.)", &mut vars).unwrap();
        let a = vars.get("A").unwrap();
        // B never occurs: the second rule is dead.
        let p = program_with(
            vars,
            vec![a],
            vec![Thread::Structured {
                name: "Main".into(),
                body: vec![build::execute(4, rs)],
            }],
        );
        let plan = plan(&p).unwrap();
        assert_eq!(plan.dead_rules, 1);
        assert_eq!(plan.total_rules, 2);
        let exec = EnumExecutor::new(&p, &[(vec![a], 10), (vec![], 10)], 3).unwrap();
        assert_eq!(exec.dead_rules(), 1);
    }

    #[test]
    fn verification_catches_a_truncated_state_set() {
        let mut vars = VarSet::new();
        let rs = parse_ruleset("(I) + (!I) -> (I) + (I)", &mut vars).unwrap();
        let i = vars.get("I").unwrap();
        let full = vec![0u32, i.mask()];
        let rulesets = vec![&rs];
        assert!(verify_enumeration(&vars, &full, &rulesets, &[]).is_ok());
        // Drop the {I} state: the epidemic rule's update now escapes.
        let truncated = vec![0u32];
        let err = verify_enumeration(&vars, &truncated, &rulesets, &[]);
        // With only {} live, neither guard side has an I-witness, so the
        // rule is dead over the truncated set — but add an I-witness back
        // without its successor and the escape is caught.
        assert!(err.is_ok(), "rule is dead over {{}} alone");
        let mut vars2 = VarSet::new();
        let rs2 = parse_ruleset("(A) + (.) -> (B) + (.)", &mut vars2).unwrap();
        let a2 = vars2.get("A").unwrap();
        let missing_target = vec![0u32, a2.mask()];
        let err2 = verify_enumeration(&vars2, &missing_target, &[&rs2], &[]).unwrap_err();
        assert!(err2.contains("outside the enumerated set"), "{err2}");
    }

    #[test]
    fn infeasible_inputs_are_reported() {
        let mut vars = VarSet::new();
        let inputs: Vec<Var> = (0..(INPUT_ENUM_CAP + 1))
            .map(|k| vars.add(&format!("I{k}")))
            .collect();
        let p = program_with(
            vars,
            inputs,
            vec![Thread::Structured {
                name: "Main".into(),
                body: vec![],
            }],
        );
        assert_eq!(
            plan(&p).unwrap_err(),
            EnumError::TooManyInputs(INPUT_ENUM_CAP + 1)
        );
    }

    #[test]
    fn raw_threads_run_during_overhead() {
        let mut vars = VarSet::new();
        let rs = parse_ruleset("(R) + (R) -> (R) + (!R)", &mut vars).unwrap();
        let r = vars.get("R").unwrap();
        let a = vars.add("A");
        let p = Program {
            name: "t".into(),
            inputs: vec![r],
            outputs: vec![],
            init: vec![],
            derived_init: vec![],
            threads: vec![
                Thread::Structured {
                    name: "Main".into(),
                    body: vec![
                        build::assign(a, Guard::any()),
                        build::assign(a, Guard::any()),
                    ],
                },
                Thread::Raw {
                    name: "ReduceSets".into(),
                    ruleset: rs,
                },
            ],
            vars,
        };
        let mut exec = EnumExecutor::new(&p, &[(vec![r], 200)], 7).unwrap();
        for _ in 0..30 {
            exec.run_iteration();
        }
        let remaining = exec.count_where(&Guard::var(r));
        assert!(remaining < 200, "raw thread reduced R: {remaining}");
        assert!(remaining >= 1, "raw fratricide keeps one R");
    }
}
