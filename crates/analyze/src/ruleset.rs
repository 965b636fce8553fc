//! Ruleset analyses: guard satisfiability and dead rules (PP101), no-op
//! rules (PP102), and uniform-mode outcome conflicts (PP104).
//!
//! All checks are *exact* over the packed state space: guards mention a
//! handful of variables, so enumerating every assignment of the mentioned
//! variables decides satisfiability precisely, and the conflict check
//! needs no pair enumeration because `matches(a, b)` factors per side.

use crate::diag::{Diagnostic, Severity};
use crate::reach::SupportClosure;
use pp_rules::parse::Span;
use pp_rules::{Guard, Rule, Ruleset, Var, VarSet};

/// Attaches rule locations (spans + snippets) to ruleset diagnostics.
#[derive(Debug, Clone, Copy, Default)]
pub struct RuleLocator<'a> {
    /// Span of each rule, parallel to the ruleset (empty when unknown).
    pub spans: &'a [Span],
    /// The full source text, for snippet extraction.
    pub source: Option<&'a str>,
}

impl<'a> RuleLocator<'a> {
    /// Decorates a diagnostic with the location of rule `idx`, when known.
    #[must_use]
    pub fn attach(&self, mut d: Diagnostic, idx: usize) -> Diagnostic {
        if let Some(&span) = self.spans.get(idx) {
            d = d.with_span(span);
            if let Some(line) = self
                .source
                .and_then(|s| s.lines().nth(span.line.saturating_sub(1)))
            {
                d = d.with_snippet(line.trim_end());
            }
        }
        d
    }
}

/// Enumerates every assignment of `vars`, calling `f` with the packed
/// state (all unmentioned variables off).
fn for_each_assignment(vars: &[Var], mut f: impl FnMut(u32)) {
    debug_assert!(vars.len() < 32);
    for bits in 0u32..(1 << vars.len()) {
        let mut state = 0u32;
        for (i, v) in vars.iter().enumerate() {
            if bits & (1 << i) != 0 {
                state |= v.mask();
            }
        }
        f(state);
    }
}

/// Whether some assignment of the guard's mentioned variables satisfies it
/// (exact: unmentioned variables cannot influence the result).
#[must_use]
pub fn satisfiable(guard: &Guard) -> bool {
    let vars = guard.vars();
    let mut sat = false;
    for_each_assignment(&vars, |state| sat |= guard.eval(state));
    sat
}

/// Variables mentioned by a rule's side: guard variables plus update bits.
fn side_vars(guard: &Guard, set: u32, clear: u32) -> Vec<Var> {
    let mut vars = guard.vars();
    let touched = set | clear;
    for i in 0..32 {
        if touched & (1 << i) != 0 {
            vars.push(Var::new(i));
        }
    }
    vars.sort();
    vars.dedup();
    vars
}

/// Whether the rule changes at least one matching state pair.
fn is_noop(rule: &Rule) -> bool {
    let mut changes = false;
    let a_vars = side_vars(&rule.guard_a, rule.update_a.set, rule.update_a.clear);
    for_each_assignment(&a_vars, |a| {
        changes |= rule.guard_a.eval(a) && rule.update_a.changes(a);
    });
    let b_vars = side_vars(&rule.guard_b, rule.update_b.set, rule.update_b.clear);
    for_each_assignment(&b_vars, |b| {
        changes |= rule.guard_b.eval(b) && rule.update_b.changes(b);
    });
    !changes
}

/// Runs the per-ruleset checks (PP101, PP102, PP104), decorating findings via
/// `locator`. `label` names the ruleset in messages (e.g. a thread name);
/// empty for standalone rulesets.
#[must_use]
pub fn analyze_ruleset(
    vars: &VarSet,
    ruleset: &Ruleset,
    locator: RuleLocator<'_>,
    label: &str,
) -> Vec<Diagnostic> {
    analyze_ruleset_with(vars, ruleset, locator, label, None)
}

/// [`analyze_ruleset`] with an optional support closure: when present, the
/// PP104 overlap check only considers pairs of *reachable* states, which
/// silences conflicts on states the protocol's invariants rule out (e.g. a
/// token carrying both the `+1` and `-1` value bit).
#[must_use]
pub fn analyze_ruleset_with(
    vars: &VarSet,
    ruleset: &Ruleset,
    locator: RuleLocator<'_>,
    label: &str,
    closure: Option<&SupportClosure>,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let rules = ruleset.rules();
    let ctx = if label.is_empty() {
        String::new()
    } else {
        format!(" in {label}")
    };

    // PP101: dead rules — a side's guard has no satisfying assignment.
    let mut dead = vec![false; rules.len()];
    for (i, rule) in rules.iter().enumerate() {
        let side = if !satisfiable(&rule.guard_a) {
            Some("initiator")
        } else if !satisfiable(&rule.guard_b) {
            Some("responder")
        } else {
            None
        };
        if let Some(side) = side {
            dead[i] = true;
            out.push(locator.attach(
                Diagnostic::new(
                    "PP101",
                    Severity::Error,
                    format!(
                        "rule{ctx} is dead: {side} guard is unsatisfiable in `{}`",
                        rule.render(vars)
                    ),
                ),
                i,
            ));
        }
    }

    // PP102: live rules that can never change any matching state.
    for (i, rule) in rules.iter().enumerate() {
        if !dead[i] && is_noop(rule) {
            out.push(locator.attach(
                Diagnostic::new(
                    "PP102",
                    Severity::Warning,
                    format!(
                        "rule{ctx} is a no-op: `{}` never changes a matching pair",
                        rule.render(vars)
                    ),
                ),
                i,
            ));
        }
    }

    // PP104: uniform-mode conflicts — two deterministic rules that match a
    // common pair and drive some shared variable in *opposite* directions
    // (one sets what the other clears), so the scheduler's uniform rule
    // pick decides that variable's value. Rules with disjoint or agreeing
    // updates are not flagged: both eventually apply and the order does
    // not matter.
    for i in 0..rules.len() {
        for j in (i + 1)..rules.len() {
            if dead[i] || dead[j] {
                continue;
            }
            let (ri, rj) = (&rules[i], &rules[j]);
            if ri.probability < 1.0 || rj.probability < 1.0 {
                // Sub-unit probabilities signal deliberate randomization.
                continue;
            }
            let opposed_a =
                (ri.update_a.set & rj.update_a.clear) | (ri.update_a.clear & rj.update_a.set);
            let opposed_b =
                (ri.update_b.set & rj.update_b.clear) | (ri.update_b.clear & rj.update_b.set);
            if opposed_a == 0 && opposed_b == 0 {
                continue;
            }
            // `matches(a, b)` factors per side, so joint matchability is
            // per-side joint satisfiability — no pair enumeration needed.
            let joint_a = ri.guard_a.clone().and(rj.guard_a.clone());
            let joint_b = ri.guard_b.clone().and(rj.guard_b.clone());
            let conflict = match closure {
                Some(c) => c.any_satisfies(&joint_a) && c.any_satisfies(&joint_b),
                None => satisfiable(&joint_a) && satisfiable(&joint_b),
            };
            if conflict {
                out.push(locator.attach(
                    Diagnostic::new(
                        "PP104",
                        Severity::Warning,
                        format!(
                            "rules{ctx} overlap with conflicting outcomes under uniform-rule \
                             scheduling: `{}` vs `{}`",
                            ri.render(vars),
                            rj.render(vars)
                        ),
                    ),
                    j,
                ));
            }
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_rules::parse::parse_ruleset_spanned;

    fn analyzed(text: &str) -> (Vec<Diagnostic>, VarSet) {
        let mut vars = VarSet::new();
        let (ruleset, spans) = parse_ruleset_spanned(text, &mut vars).unwrap();
        let locator = RuleLocator {
            spans: &spans,
            source: Some(text),
        };
        let diags = analyze_ruleset(&vars, &ruleset, locator, "");
        (diags, vars)
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_ruleset_has_no_findings() {
        let (diags, _) = analyzed("(L) + (L) -> (L) + (!L)");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn unsatisfiable_guard_is_dead_rule() {
        let (diags, _) = analyzed("(A & !A) + (.) -> (B) + (.)");
        assert_eq!(codes(&diags), vec!["PP101"]);
        assert_eq!(diags[0].severity, Severity::Error);
        assert_eq!(diags[0].span.unwrap().line, 1);
        assert!(diags[0].message.contains("initiator"), "{diags:?}");
    }

    #[test]
    fn unsatisfiable_responder_guard_detected() {
        let (diags, _) = analyzed("(.) + (B & !B) -> (A) + (.)");
        assert_eq!(codes(&diags), vec!["PP101"]);
        assert!(diags[0].message.contains("responder"), "{diags:?}");
    }

    #[test]
    fn noop_rule_detected() {
        // Sets A on agents that already have A.
        let (diags, _) = analyzed("(A) + (.) -> (A) + (.)");
        assert_eq!(codes(&diags), vec!["PP102"]);
        assert_eq!(diags[0].severity, Severity::Warning);
    }

    #[test]
    fn effective_rule_is_not_noop() {
        let (diags, _) = analyzed("(A) + (.) -> (!A) + (.)");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn rules_that_agree_on_shared_variables_pass() {
        // Both rules match (A & B, anything); each clears its own flag.
        let text = "(A) + (.) -> (!A) + (.)\n(A & B) + (.) -> (!B) + (.)";
        let (diags, _) = analyzed(text);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn uniform_conflict_detected() {
        // Both rules match (A, anything) but disagree on the rewrite.
        let text = "(A) + (.) -> (B) + (.)\n(A) + (.) -> (!B) + (.)";
        let (diags, _) = analyzed(text);
        assert!(codes(&diags).contains(&"PP104"), "{diags:?}");
    }

    #[test]
    fn probabilistic_overlap_not_flagged() {
        // Deliberate randomization: equiprobable coin rules.
        let text = "(K) + (.) -> (X & !K) + (.) @ 0.5\n(K) + (.) -> (!X & !K) + (.) @ 0.5";
        let (diags, _) = analyzed(text);
        assert!(!codes(&diags).contains(&"PP104"), "{diags:?}");
    }

    #[test]
    fn satisfiable_helper_is_exact() {
        let mut vars = VarSet::new();
        let a = vars.add("A");
        let b = vars.add("B");
        assert!(satisfiable(&Guard::var(a).and(Guard::var(b))));
        assert!(!satisfiable(&Guard::var(a).and(Guard::not_var(a))));
        // (A | B) & !A & !B is unsatisfiable; needs joint enumeration.
        let g = Guard::var(a)
            .or(Guard::var(b))
            .and(Guard::not_var(a))
            .and(Guard::not_var(b));
        assert!(!satisfiable(&g));
    }
}
