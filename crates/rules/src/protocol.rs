//! Adapter from rulesets to the engine's [`Protocol`] trait.
//!
//! The paper's scheduling convention (Section 1.3) is: "the scheduler picks
//! exactly one rule uniformly at random from the set of rules of the
//! protocol, and executes it for the interacting agent pair if it is
//! matching." [`FlagProtocol`] runs every ruleset that way.

use crate::rule::Ruleset;
use crate::var::VarSet;
use pp_engine::protocol::{Protocol, RuleMasks};
use pp_engine::rng::SimRng;

/// A population protocol defined by a [`Ruleset`] over a [`VarSet`].
///
/// The packed state space has `2^v` states for `v` variables.
///
/// # Examples
///
/// ```
/// use pp_rules::{FlagProtocol, Ruleset, Rule, Guard, VarSet};
/// use pp_engine::counts::CountPopulation;
/// use pp_engine::rng::SimRng;
/// use pp_engine::sim::{run_until, Simulator};
///
/// // Leader fratricide: (L) + (L) -> (L) + (!L).
/// let mut vars = VarSet::new();
/// let l = vars.add("L");
/// let rule = Rule::new(
///     Guard::var(l), Guard::var(l),
///     &Guard::var(l), &Guard::not_var(l),
/// ).unwrap();
/// let protocol = FlagProtocol::new(vars, Ruleset::from_rules(vec![rule]), "fratricide");
/// let leader_state = protocol.vars().state_with(&[l]) as usize;
///
/// let mut counts = vec![0u64; protocol.vars().num_states()];
/// counts[leader_state] = 50;
/// let mut pop = CountPopulation::from_counts(&protocol, &counts);
/// let mut rng = SimRng::seed_from(1);
/// run_until(&mut pop, &mut rng, 1e6, 1, |s| s.count(leader_state) == 1).unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct FlagProtocol {
    vars: VarSet,
    ruleset: Ruleset,
    name: String,
}

impl FlagProtocol {
    /// Creates the protocol.
    ///
    /// # Panics
    ///
    /// Panics if the ruleset is empty.
    #[must_use]
    pub fn new(vars: VarSet, ruleset: Ruleset, name: impl Into<String>) -> Self {
        assert!(!ruleset.is_empty(), "protocol needs at least one rule");
        Self {
            vars,
            ruleset,
            name: name.into(),
        }
    }

    /// The variable registry.
    #[must_use]
    pub fn vars(&self) -> &VarSet {
        &self.vars
    }

    /// The ruleset.
    #[must_use]
    pub fn ruleset(&self) -> &Ruleset {
        &self.ruleset
    }

    /// Renders all rules in the paper's notation, one per line.
    #[must_use]
    pub fn render(&self) -> String {
        self.ruleset
            .rules()
            .iter()
            .map(|r| format!("> {}", r.render(&self.vars)))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

impl Protocol for FlagProtocol {
    fn num_states(&self) -> usize {
        self.vars.num_states()
    }

    fn interact(&self, a: usize, b: usize, rng: &mut SimRng) -> (usize, usize) {
        let (a, b) = (a as u32, b as u32);
        let rule = &self.ruleset.rules()[rng.index(self.ruleset.len())];
        if rule.matches(a, b) && (rule.probability >= 1.0 || rng.chance(rule.probability)) {
            let (a2, b2) = rule.apply(a, b);
            (a2 as usize, b2 as usize)
        } else {
            (a as usize, b as usize)
        }
    }

    /// The ruleset length (replicas included): one slot per rule.
    fn weight_scale(&self) -> u32 {
        self.ruleset.len() as u32
    }

    /// Fires rule `slot` with its probability: [`Protocol::interact`] after
    /// drawing that rule.
    fn interact_slot(&self, a: usize, b: usize, slot: usize, rng: &mut SimRng) -> (usize, usize) {
        let rule = &self.ruleset.rules()[slot];
        debug_assert!(rule.is_effective_on(a as u32, b as u32));
        if rule.probability >= 1.0 || rng.chance(rule.probability) {
            let (a2, b2) = rule.apply(a as u32, b as u32);
            (a2 as usize, b2 as usize)
        } else {
            (a, b)
        }
    }

    fn rule_masks(&self, state: usize) -> Option<RuleMasks> {
        let s = state as u32;
        let mut masks = RuleMasks::new(self.ruleset.len());
        for (r, rule) in self.ruleset.rules().iter().enumerate() {
            masks.set(
                r,
                rule.guard_a.eval(s),
                rule.update_a.changes(s),
                rule.guard_b.eval(s),
                rule.update_b.changes(s),
            );
        }
        Some(masks)
    }

    fn outcome_table(&self, a: usize, b: usize) -> Option<Vec<((usize, usize), f64)>> {
        let (a32, b32) = (a as u32, b as u32);
        let mut out: Vec<((usize, usize), f64)> = Vec::new();
        let mut identity = 0.0;
        let per_rule = 1.0 / self.ruleset.len() as f64;
        for rule in self.ruleset.rules() {
            if rule.matches(a32, b32) {
                let (a2, b2) = rule.apply(a32, b32);
                let p = per_rule * rule.probability;
                push_outcome(&mut out, (a2 as usize, b2 as usize), p);
                identity += per_rule * (1.0 - rule.probability);
            } else {
                identity += per_rule;
            }
        }
        if identity > 0.0 {
            push_outcome(&mut out, (a, b), identity);
        }
        Some(out)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

fn push_outcome(out: &mut Vec<((usize, usize), f64)>, key: (usize, usize), p: f64) {
    if p <= 0.0 {
        return;
    }
    if let Some(entry) = out.iter_mut().find(|(k, _)| *k == key) {
        entry.1 += p;
    } else {
        out.push((key, p));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard::Guard;
    use crate::rule::Rule;
    use pp_engine::counts::CountPopulation;
    use pp_engine::sim::{run_until, Simulator};

    /// (L) + (L) -> (L) + (!L) plus an unrelated flag M that must never move.
    fn fratricide() -> (FlagProtocol, u32, u32) {
        let mut vars = VarSet::new();
        let l = vars.add("L");
        let m = vars.add("M");
        let rule = Rule::new(
            Guard::var(l),
            Guard::var(l),
            &Guard::var(l),
            &Guard::not_var(l),
        )
        .unwrap();
        let p = FlagProtocol::new(vars, Ruleset::from_rules(vec![rule]), "fratricide");
        (p, l.mask(), m.mask())
    }

    #[test]
    fn uniform_rule_mode_applies_matching_rule() {
        let (p, l, _) = fratricide();
        let mut rng = SimRng::seed_from(1);
        let (a2, b2) = p.interact(l as usize, l as usize, &mut rng);
        assert_eq!(a2 as u32, l);
        assert_eq!(b2, 0);
    }

    #[test]
    fn untouched_variables_survive() {
        let (p, l, m) = fratricide();
        let mut rng = SimRng::seed_from(2);
        let s = (l | m) as usize;
        let (a2, b2) = p.interact(s, s, &mut rng);
        // Responder loses L but keeps M (minimal update).
        assert_eq!(a2 as u32, l | m);
        assert_eq!(b2 as u32, m);
    }

    #[test]
    fn non_matching_pairs_are_noops() {
        let (p, l, _) = fratricide();
        let mut rng = SimRng::seed_from(3);
        assert_eq!(p.interact(0, l as usize, &mut rng), (0, l as usize));
        let l = l as usize;
        assert_eq!(p.outcome_table(0, l), Some(vec![((0, l), 1.0)]));
        let moves = p.outcome_table(l, l).unwrap();
        assert!(moves.iter().any(|&(out, q)| out != (l, l) && q > 0.0));
    }

    #[test]
    fn uniform_mode_rule_dilution() {
        // Two rules, only one matches (0,0): it should fire ~half the time.
        let mut vars = VarSet::new();
        let a = vars.add("A");
        let r1 = Rule::new(
            Guard::not_var(a),
            Guard::not_var(a),
            &Guard::var(a),
            &Guard::True,
        )
        .unwrap();
        let r2 = Rule::new(Guard::var(a), Guard::var(a), &Guard::True, &Guard::True).unwrap();
        let p = FlagProtocol::new(vars, Ruleset::from_rules(vec![r1, r2]), "dilute");
        let mut rng = SimRng::seed_from(4);
        let fired = (0..20_000)
            .filter(|_| p.interact(0, 0, &mut rng) != (0, 0))
            .count();
        let rate = fired as f64 / 20_000.0;
        assert!((rate - 0.5).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn outcomes_sum_to_one() {
        let (p, l, m) = fratricide();
        for &(a, b) in &[(l, l), (0, l), (l | m, l), (0, 0)] {
            let outs = p.outcome_table(a as usize, b as usize).unwrap();
            let total: f64 = outs.iter().map(|&(_, q)| q).sum();
            assert!((total - 1.0).abs() < 1e-12, "pair ({a},{b}) total {total}");
        }
    }

    #[test]
    fn probabilistic_rule_outcomes() {
        let mut vars = VarSet::new();
        let a = vars.add("A");
        let r = Rule::new(Guard::not_var(a), Guard::True, &Guard::var(a), &Guard::True)
            .unwrap()
            .with_probability(0.25);
        let p = FlagProtocol::new(vars, Ruleset::from_rules(vec![r]), "prob");
        let outs = p.outcome_table(0, 0).unwrap();
        let fire = outs.iter().find(|(k, _)| *k == (1, 0)).unwrap().1;
        let stay = outs.iter().find(|(k, _)| *k == (0, 0)).unwrap().1;
        assert!((fire - 0.25).abs() < 1e-12);
        assert!((stay - 0.75).abs() < 1e-12);
    }

    #[test]
    fn end_to_end_fratricide_converges() {
        let (p, l, _) = fratricide();
        let leader = l as usize;
        let mut counts = vec![0u64; p.num_states()];
        counts[leader] = 64;
        let mut pop = CountPopulation::from_counts(&p, &counts);
        let mut rng = SimRng::seed_from(6);
        let t = run_until(&mut pop, &mut rng, 1e6, 4, |s| s.count(leader) == 1);
        assert!(t.is_some(), "fratricide converges to a single leader");
    }
}
