//! Reachability-based diagnostics on top of the `{0, ≥1}`-support closure.
//!
//! The closure itself lives in [`pp_rules::reach`] (re-exported here), so
//! the enumeration compiler in `pp-lang` and these lint checks run on the
//! *same* abstraction — what the analyzer proves unreachable is exactly
//! what the compiler strips, and the compiler's post-enumeration
//! verification re-checks the analyzer's claims against the enumerated
//! state set (see `pp_lang::enumerate`).
//!
//! Soundness of the diagnostics:
//!
//! * [`unreachable_rules`] (PP105) — the closure over-approximates
//!   support, so a rule with no reachable witness for one of its guards
//!   can never fire in any real run. The converse does not hold, hence a
//!   warning.
//! * [`non_silent_cycles`] (PP106) — if the per-agent rewrite graph over
//!   reachable states is acyclic, every agent changes state finitely often
//!   and all executions become silent; a closed cycle only indicates
//!   *possible* perpetual activity.

use crate::diag::{Diagnostic, Severity};
use crate::ruleset::RuleLocator;
pub use pp_rules::reach::{
    support_closure, AbstractAssign, SupportClosure, SupportModel, REACH_VAR_CAP,
};
use pp_rules::{Ruleset, VarSet};

/// PP105: rules that can never fire from the declared initial supports.
///
/// A rule fires only when some reachable state satisfies its initiator
/// guard *and* some reachable state satisfies its responder guard; the
/// closure over-approximates reachability, so "never" here is sound.
#[must_use]
pub fn unreachable_rules(
    vars: &VarSet,
    ruleset: &Ruleset,
    closure: &SupportClosure,
    locator: RuleLocator<'_>,
    label: &str,
) -> Vec<Diagnostic> {
    if closure.skipped {
        return Vec::new();
    }
    let ctx = if label.is_empty() {
        String::new()
    } else {
        format!(" in {label}")
    };
    let mut out = Vec::new();
    for (i, rule) in ruleset.rules().iter().enumerate() {
        let a_ok = closure.any_satisfies(&rule.guard_a);
        let b_ok = closure.any_satisfies(&rule.guard_b);
        if !(a_ok && b_ok) {
            let side = if a_ok { "responder" } else { "initiator" };
            out.push(locator.attach(
                Diagnostic::new(
                    "PP105",
                    Severity::Warning,
                    format!(
                        "rule{ctx} can never fire: no state reachable from the declared \
                         initial support satisfies the {side} guard of `{}`",
                        rule.render(vars)
                    ),
                ),
                i,
            ));
        }
    }
    out
}

/// PP106: possible non-silent executions — the per-agent rewrite graph,
/// restricted to reachable states, has a cycle that no edge leaves.
///
/// Soundness runs the other way from PP105: if the rewrite graph is
/// acyclic, every agent changes state finitely often, so all executions
/// become silent. A cycle therefore only indicates *possible* perpetual
/// activity (the abstraction cannot tell whether real counts sustain it) —
/// hence a warning. Only cycles confined to a bottom strongly connected
/// component are reported: a cycle with an escape edge may be a normal
/// transient.
#[must_use]
pub fn non_silent_cycles(
    vars: &VarSet,
    rulesets: &[&Ruleset],
    closure: &SupportClosure,
) -> Vec<Diagnostic> {
    if closure.skipped {
        return Vec::new();
    }
    // The rewrite graph is built over dense live-state indices (the closure
    // is closed under enabled rewrites, so every target is itself live);
    // work scales with the live count, not the 2^k space.
    let live = &closure.live;
    let idx_of = |t: u32| -> usize {
        live.binary_search(&t)
            .expect("closure is closed under enabled rewrites")
    };
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); live.len()];
    for ruleset in rulesets {
        for rule in ruleset.rules() {
            let partner_a = closure.any_satisfies(&rule.guard_b);
            let partner_b = closure.any_satisfies(&rule.guard_a);
            if !partner_a && !partner_b {
                continue;
            }
            for (i, &s) in live.iter().enumerate() {
                if partner_a && rule.guard_a.eval(s) {
                    let t = rule.update_a.apply(s);
                    if t != s {
                        edges[i].push(idx_of(t));
                    }
                }
                if partner_b && rule.guard_b.eval(s) {
                    let t = rule.update_b.apply(s);
                    if t != s {
                        edges[i].push(idx_of(t));
                    }
                }
            }
        }
    }
    for e in &mut edges {
        e.sort_unstable();
        e.dedup();
    }

    let scc = strongly_connected_components(&edges);
    // A cycle over the varying bits recurs once per combination of the
    // untouched bits, so group components by their shape — the set of
    // varying bits plus the states projected onto them — and report each
    // shape once (from its simplest representative). Components hold live
    // indices; shapes are computed over the packed states behind them.
    struct CycleShape {
        varying: u32,
        projected: Vec<u32>,
        representative: Vec<usize>,
        contexts: usize,
    }
    let mut shapes: Vec<CycleShape> = Vec::new();
    for component in &scc {
        if component.len() < 2 {
            continue; // single state, no self-edges possible (t != s)
        }
        let escapes = component
            .iter()
            .any(|&s| edges[s].iter().any(|t| !component.contains(t)));
        if escapes {
            continue;
        }
        let or = component.iter().fold(0u32, |m, &s| m | live[s]);
        let and = component.iter().fold(u32::MAX, |m, &s| m & live[s]);
        let varying = or & !and;
        let mut projected: Vec<u32> = component.iter().map(|&s| live[s] & varying).collect();
        projected.sort_unstable();
        let packed_sum = |c: &[usize]| c.iter().map(|&s| live[s] as u64).sum::<u64>();
        match shapes
            .iter_mut()
            .find(|sh| sh.varying == varying && sh.projected == projected)
        {
            Some(shape) => {
                shape.contexts += 1;
                if packed_sum(component) < packed_sum(&shape.representative) {
                    shape.representative = component.clone();
                }
            }
            None => shapes.push(CycleShape {
                varying,
                projected,
                representative: component.clone(),
                contexts: 1,
            }),
        }
    }
    let mut out = Vec::new();
    for shape in &shapes {
        let mut names: Vec<String> = shape
            .representative
            .iter()
            .take(4)
            .map(|&s| vars.render_state(live[s]))
            .collect();
        names.sort();
        let more = if shape.representative.len() > 4 {
            ", …"
        } else {
            ""
        };
        let recurs = match shape.contexts {
            0 | 1 => String::new(),
            2 => "; the same cycle recurs in 1 other variable context".to_string(),
            n => format!(
                "; the same cycle recurs in {} other variable contexts",
                n - 1
            ),
        };
        out.push(Diagnostic::new(
            "PP106",
            Severity::Warning,
            format!(
                "possible non-silent execution: reachable states can cycle forever \
                 ({}{more}) with no rewrite leaving the cycle{recurs}",
                names.join(" ⇄ ")
            ),
        ));
    }
    out
}

/// Iterative Tarjan SCC over an adjacency list; returns components as
/// sorted vertex lists. Serves both the support graph here and the
/// exact chain's configuration graph (`crate::exact`).
pub(crate) fn strongly_connected_components(edges: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = edges.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack = Vec::new();
    let mut next_index = 0usize;
    let mut components = Vec::new();

    // Explicit DFS stack: (vertex, next child offset).
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        let mut dfs: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&(v, child)) = dfs.last() {
            if child == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if child < edges[v].len() {
                dfs.last_mut().expect("nonempty").1 += 1;
                let w = edges[v][child];
                if index[w] == usize::MAX {
                    dfs.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
                    let mut component = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        component.push(w);
                        if w == v {
                            break;
                        }
                    }
                    component.sort_unstable();
                    components.push(component);
                }
                dfs.pop();
                if let Some(&(parent, _)) = dfs.last() {
                    low[parent] = low[parent].min(low[v]);
                }
            }
        }
    }
    components
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_rules::parse::parse_ruleset;
    use pp_rules::{Guard, Var, MAX_VARS};

    fn closure_of(text: &str, initial_names: &[&[&str]]) -> (VarSet, Ruleset, SupportClosure) {
        let mut vars = VarSet::new();
        let ruleset = parse_ruleset(text, &mut vars).unwrap();
        let initial: Vec<u32> = initial_names
            .iter()
            .map(|names| {
                let on: Vec<Var> = names.iter().map(|n| vars.get(n).unwrap()).collect();
                vars.state_with(&on)
            })
            .collect();
        let model = SupportModel {
            rulesets: vec![&ruleset],
            assigns: Vec::new(),
            initial,
        };
        let closure = support_closure(&vars, &model);
        (vars, ruleset, closure)
    }

    #[test]
    fn epidemic_reaches_all_infected() {
        let (vars, _, closure) = closure_of("(I) + (!I) -> (I) + (I)", &[&["I"], &[]]);
        let i = vars.get("I").unwrap();
        assert!(closure.may_occur(i.mask()));
        assert!(closure.may_occur(0));
        assert_eq!(closure.count(), 2);
    }

    #[test]
    fn unreachable_state_stays_unreachable() {
        // Nothing ever sets B.
        let (vars, _, closure) = closure_of("(A) + (.) -> (!A) + (.)", &[&["A"]]);
        let b = vars.get("B");
        assert!(b.is_none(), "B is never declared");
        let a = vars.get("A").unwrap();
        assert!(closure.may_occur(a.mask()));
        assert!(closure.may_occur(0));
    }

    #[test]
    fn rule_needing_partner_state_fires_only_when_present() {
        // (B) responder is required but B never occurs.
        let text = "(A) + (B) -> (!A) + (B)\n(A) + (.) -> (A) + (.)";
        let (vars, ruleset, closure) = closure_of(text, &[&["A"]]);
        let diags = unreachable_rules(&vars, &ruleset, &closure, RuleLocator::default(), "");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "PP105");
        assert!(diags[0].message.contains("responder"), "{diags:?}");
        // And !A must not be considered reachable via the dead rule.
        let a = vars.get("A").unwrap();
        assert_eq!(closure.count(), 1, "only the initial A state");
        assert!(closure.may_occur(a.mask()));
    }

    #[test]
    fn assignments_extend_the_support() {
        let mut vars = VarSet::new();
        let a = vars.add("A");
        let b = vars.add("B");
        let model = SupportModel {
            rulesets: Vec::new(),
            assigns: vec![AbstractAssign::Formula(b, Guard::var(a))],
            initial: vec![a.mask()],
        };
        let closure = support_closure(&vars, &model);
        assert!(closure.may_occur(a.mask() | b.mask()));
        assert!(!closure.may_occur(b.mask()), "B alone requires A off");
    }

    #[test]
    fn closed_cycle_reports_non_silence() {
        // {} -> {R} (spread) and {R} -> {} (skeptic clears): a closed
        // two-state cycle, nothing escapes.
        let text = "(R) + (!R & !S) -> (R) + (R)\n(S) + (R) -> (S) + (!R)";
        let (vars, ruleset, closure) = closure_of(text, &[&["R"], &["S"], &[]]);
        let diags = non_silent_cycles(&vars, &[&ruleset], &closure);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "PP106");
    }

    #[test]
    fn one_way_rewrites_are_silent() {
        // Fratricide only ever clears L: acyclic, hence silent.
        let (vars, ruleset, closure) = closure_of("(L) + (L) -> (L) + (!L)", &[&["L"]]);
        let diags = non_silent_cycles(&vars, &[&ruleset], &closure);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn escaping_cycle_not_reported() {
        // A <-> B cycle, but C escapes it for good once taken.
        let text = "(A) + (.) -> (!A & B) + (.)\n\
                    (B & !C) + (.) -> (A & !B) + (.)\n\
                    (B) + (.) -> (C & !B & !A) + (.)";
        let (vars, ruleset, closure) = closure_of(text, &[&["A"]]);
        let diags = non_silent_cycles(&vars, &[&ruleset], &closure);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn full_variable_budget_gets_a_closure() {
        // The cap now equals the packing budget: a MAX_VARS-variable space
        // (previously skipped above 16) computes a real closure, so
        // reachability checks cover every representable protocol.
        assert_eq!(REACH_VAR_CAP, MAX_VARS);
        let mut vars = VarSet::new();
        for i in 0..MAX_VARS {
            vars.add(&format!("V{i}"));
        }
        let model = SupportModel {
            rulesets: Vec::new(),
            assigns: Vec::new(),
            initial: vec![0],
        };
        let closure = support_closure(&vars, &model);
        assert!(!closure.skipped);
        assert_eq!(closure.count(), 1);
        assert!(!closure.may_occur(12345));
    }

    #[test]
    fn tarjan_finds_components() {
        // 0 -> 1 -> 2 -> 0 (cycle), 3 -> 0 (feeder), 4 isolated.
        let edges = vec![vec![1], vec![2], vec![0], vec![0], vec![]];
        let mut sccs = strongly_connected_components(&edges);
        sccs.sort();
        assert!(sccs.contains(&vec![0, 1, 2]));
        assert!(sccs.contains(&vec![3]));
        assert!(sccs.contains(&vec![4]));
    }
}
