//! Transition rules `▷ (Σ₁) + (Σ₂) → (Σ₃) + (Σ₄)` with the paper's
//! minimal-update semantics, and rulesets with thread composition.
//!
//! A rule is applicable to an ordered agent pair when the initiator
//! satisfies `Σ₁` and the responder satisfies `Σ₂`. Executing it performs a
//! *minimal update*: each post-condition is a conjunction of literals, and
//! exactly those variables are forced to the stated polarity — all other
//! variables keep their values.

use crate::guard::Guard;
use crate::var::VarSet;
use std::fmt;

/// A minimal update: force the `set` bits on and the `clear` bits off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Update {
    /// Bits forced on.
    pub set: u32,
    /// Bits forced off.
    pub clear: u32,
}

impl Update {
    /// The identity update (post-condition `(.)`).
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Builds an update from a post-condition guard, which must be a pure
    /// conjunction of literals (or `(.)`).
    ///
    /// # Errors
    ///
    /// Returns an error if the guard is not a conjunction of literals or
    /// contains contradictory literals (`X ∧ ¬X`).
    pub fn from_guard(guard: &Guard) -> Result<Self, RuleError> {
        let lits = guard
            .literals()
            .ok_or(RuleError::PostConditionNotLiterals)?;
        let mut update = Update::none();
        for (v, pos) in lits {
            if pos {
                update.set |= v.mask();
            } else {
                update.clear |= v.mask();
            }
        }
        if update.set & update.clear != 0 {
            return Err(RuleError::ContradictoryPostCondition);
        }
        Ok(update)
    }

    /// Applies the update to a packed state.
    #[must_use]
    pub fn apply(self, state: u32) -> u32 {
        (state | self.set) & !self.clear
    }

    /// Whether the update can ever change a state.
    #[must_use]
    pub fn is_identity(self) -> bool {
        self.set == 0 && self.clear == 0
    }

    /// Whether applying the update to `state` would change it.
    #[must_use]
    pub fn changes(self, state: u32) -> bool {
        self.apply(state) != state
    }
}

/// Errors arising when constructing rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleError {
    /// A post-condition was not a conjunction of literals.
    PostConditionNotLiterals,
    /// A post-condition contained `X ∧ ¬X`.
    ContradictoryPostCondition,
}

impl fmt::Display for RuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuleError::PostConditionNotLiterals => {
                write!(f, "post-condition must be a conjunction of literals")
            }
            RuleError::ContradictoryPostCondition => {
                write!(f, "post-condition contains a contradictory literal pair")
            }
        }
    }
}

impl std::error::Error for RuleError {}

/// A transition rule `▷ (Σ₁) + (Σ₂) → (Σ₃) + (Σ₄)`, optionally probabilistic.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Guard on the initiator.
    pub guard_a: Guard,
    /// Guard on the responder.
    pub guard_b: Guard,
    /// Minimal update applied to the initiator.
    pub update_a: Update,
    /// Minimal update applied to the responder.
    pub update_b: Update,
    /// Probability that the rule fires when selected and matching (the
    /// *randomized* model gives agents a constant number of coin flips per
    /// interaction). Must lie in `(0, 1]`.
    pub probability: f64,
}

impl Rule {
    /// Creates a deterministic rule from guards and post-condition guards.
    ///
    /// # Errors
    ///
    /// Returns an error if a post-condition is not a conjunction of
    /// literals.
    pub fn new(
        guard_a: Guard,
        guard_b: Guard,
        post_a: &Guard,
        post_b: &Guard,
    ) -> Result<Self, RuleError> {
        Ok(Self {
            guard_a,
            guard_b,
            update_a: Update::from_guard(post_a)?,
            update_b: Update::from_guard(post_b)?,
            probability: 1.0,
        })
    }

    /// Sets the firing probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `(0, 1]`.
    #[must_use]
    pub fn with_probability(mut self, p: f64) -> Self {
        assert!(p > 0.0 && p <= 1.0, "rule probability must be in (0, 1]");
        self.probability = p;
        self
    }

    /// Whether the rule matches the ordered state pair.
    #[must_use]
    pub fn matches(&self, a: u32, b: u32) -> bool {
        self.guard_a.eval(a) && self.guard_b.eval(b)
    }

    /// Applies the rule's updates to the matched pair.
    #[must_use]
    pub fn apply(&self, a: u32, b: u32) -> (u32, u32) {
        (self.update_a.apply(a), self.update_b.apply(b))
    }

    /// Whether the rule, if selected for this pair, could change any state.
    #[must_use]
    pub fn is_effective_on(&self, a: u32, b: u32) -> bool {
        self.matches(a, b) && (self.update_a.changes(a) || self.update_b.changes(b))
    }

    /// Renders the rule in the paper's notation.
    #[must_use]
    pub fn render(&self, vars: &VarSet) -> String {
        let post = |u: Update| -> String {
            if u.is_identity() {
                return ".".to_string();
            }
            let mut parts = Vec::new();
            for (v, name) in vars.iter() {
                if u.set & v.mask() != 0 {
                    parts.push(name.to_string());
                } else if u.clear & v.mask() != 0 {
                    parts.push(format!("!{name}"));
                }
            }
            parts.join(" & ")
        };
        let prob = if (self.probability - 1.0).abs() < f64::EPSILON {
            String::new()
        } else {
            format!(" @ {}", self.probability)
        };
        format!(
            "({}) + ({}) -> ({}) + ({}){}",
            self.guard_a.render(vars),
            self.guard_b.render(vars),
            post(self.update_a),
            post(self.update_b),
            prob
        )
    }
}

/// An ordered collection of rules forming one protocol (or one thread).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Ruleset {
    rules: Vec<Rule>,
}

impl Ruleset {
    /// Creates an empty ruleset.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a ruleset from rules.
    #[must_use]
    pub fn from_rules(rules: Vec<Rule>) -> Self {
        Self { rules }
    }

    /// Appends a rule.
    pub fn push(&mut self, rule: Rule) {
        self.rules.push(rule);
    }

    /// The rules in order.
    #[must_use]
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Number of rules.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the ruleset has no rules.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Composes threads into a single ruleset such that selecting a rule
    /// uniformly at random is equivalent to selecting a thread uniformly and
    /// then one of its rules uniformly.
    ///
    /// Following the paper's convention, each thread's rules are replicated
    /// up to the least common multiple of the thread sizes ("creating a
    /// constant number of copies of the respective rules up to the least
    /// common multiple of the number of rules of respective threads").
    /// Threads that are empty contribute a single identity no-op rule so
    /// they still consume their fair share of the schedule. The threads are
    /// borrowed, so each rule is cloned once, into the composition.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is empty.
    #[must_use]
    pub fn compose<'a>(threads: impl IntoIterator<Item = &'a Ruleset>) -> Ruleset {
        let threads: Vec<&Ruleset> = threads.into_iter().collect();
        assert!(!threads.is_empty(), "compose requires at least one thread");
        let noop = Rule {
            guard_a: Guard::True,
            guard_b: Guard::True,
            update_a: Update::none(),
            update_b: Update::none(),
            probability: 1.0,
        };
        let sizes: Vec<usize> = threads.iter().map(|t| t.len().max(1)).collect();
        let lcm = sizes.iter().copied().fold(1usize, lcm);
        let mut out = Ruleset::new();
        for (thread, &size) in threads.iter().zip(&sizes) {
            let copies = lcm / size;
            for _ in 0..copies {
                if thread.is_empty() {
                    out.push(noop.clone());
                } else {
                    for r in &thread.rules {
                        out.push(r.clone());
                    }
                }
            }
        }
        out
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn lcm(a: usize, b: usize) -> usize {
    a / gcd(a, b) * b
}

impl FromIterator<Rule> for Ruleset {
    fn from_iter<I: IntoIterator<Item = Rule>>(iter: I) -> Self {
        Self {
            rules: iter.into_iter().collect(),
        }
    }
}

impl Extend<Rule> for Ruleset {
    fn extend<I: IntoIterator<Item = Rule>>(&mut self, iter: I) {
        self.rules.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::var::VarSet;

    fn setup() -> (VarSet, Guard, Guard) {
        let vs = VarSet::from_names(&["A", "B"]);
        let a = Guard::var(vs.get("A").unwrap());
        let b = Guard::var(vs.get("B").unwrap());
        (vs, a, b)
    }

    #[test]
    fn update_applies_minimally() {
        let (vs, _, _) = setup();
        let b = vs.get("B").unwrap();
        // Post-condition (B): set B, leave A untouched.
        let u = Update::from_guard(&Guard::var(b)).unwrap();
        assert_eq!(u.apply(0b01), 0b11);
        assert_eq!(u.apply(0b00), 0b10);
        assert!(u.changes(0b01));
        assert!(!u.changes(0b10));
    }

    #[test]
    fn update_from_true_is_identity() {
        let u = Update::from_guard(&Guard::True).unwrap();
        assert!(u.is_identity());
        assert_eq!(u.apply(0b11), 0b11);
    }

    #[test]
    fn update_rejects_disjunction() {
        let (_, a, b) = setup();
        assert_eq!(
            Update::from_guard(&a.clone().or(b)),
            Err(RuleError::PostConditionNotLiterals)
        );
        let _ = a;
    }

    #[test]
    fn update_rejects_contradiction() {
        let (vs, _, _) = setup();
        let a = vs.get("A").unwrap();
        let g = Guard::var(a).and(Guard::not_var(a));
        assert_eq!(
            Update::from_guard(&g),
            Err(RuleError::ContradictoryPostCondition)
        );
    }

    #[test]
    fn rule_matching_and_application() {
        let (vs, ga, gb) = setup();
        let b = vs.get("B").unwrap();
        // (A) + (!A) -> (A & B) + (B)
        let rule = Rule::new(
            ga.clone(),
            ga.clone().not(),
            &ga.clone().and(Guard::var(b)),
            &Guard::var(b),
        )
        .unwrap();
        assert!(rule.matches(0b01, 0b10));
        assert!(!rule.matches(0b01, 0b01));
        let (a2, b2) = rule.apply(0b01, 0b10);
        assert_eq!(a2, 0b11);
        assert_eq!(b2, 0b10);
        let _ = gb;
    }

    #[test]
    fn effectiveness_accounts_for_current_state() {
        let (vs, ga, _) = setup();
        let b = vs.get("B").unwrap();
        let rule = Rule::new(ga.clone(), Guard::True, &Guard::var(b), &Guard::True).unwrap();
        // Initiator already has B: rule matches but changes nothing.
        assert!(!rule.is_effective_on(0b11, 0b00));
        assert!(rule.is_effective_on(0b01, 0b00));
    }

    #[test]
    fn render_matches_paper_notation() {
        let (vs, ga, _) = setup();
        let b = vs.get("B").unwrap();
        let rule = Rule::new(ga, Guard::True, &Guard::var(b).not().not(), &Guard::True);
        // !!B is not a literal conjunction.
        assert!(rule.is_err());
        let a = vs.get("A").unwrap();
        let ok = Rule::new(
            Guard::var(a),
            Guard::True,
            &Guard::not_var(a).and(Guard::var(b)),
            &Guard::True,
        )
        .unwrap();
        assert_eq!(ok.render(&vs), "(A) + (.) -> (!A & B) + (.)");
    }

    #[test]
    fn compose_pads_to_lcm() {
        let (_, ga, gb) = setup();
        let r1 = Rule::new(ga.clone(), Guard::True, &Guard::True, &Guard::True).unwrap();
        let r2 = Rule::new(gb.clone(), Guard::True, &Guard::True, &Guard::True).unwrap();
        let t1 = Ruleset::from_rules(vec![r1.clone(), r1.clone()]); // 2 rules
        let t2 = Ruleset::from_rules(vec![r2.clone(), r2.clone(), r2.clone()]); // 3 rules
        let composed = Ruleset::compose(&[t1, t2]);
        // LCM(2,3)=6 → each thread contributes 6 rules.
        assert_eq!(composed.len(), 12);
        let from_t1 = composed.rules().iter().filter(|r| r.guard_a == ga).count();
        assert_eq!(from_t1, 6);
    }

    #[test]
    fn compose_gives_empty_thread_a_noop_share() {
        let (_, ga, _) = setup();
        let r1 = Rule::new(ga, Guard::True, &Guard::True, &Guard::True).unwrap();
        let t1 = Ruleset::from_rules(vec![r1]);
        let t2 = Ruleset::new();
        let composed = Ruleset::compose(&[t1, t2]);
        assert_eq!(composed.len(), 2);
    }

    #[test]
    fn probability_validation() {
        let (_, ga, _) = setup();
        let r = Rule::new(ga, Guard::True, &Guard::True, &Guard::True).unwrap();
        let r = r.with_probability(0.5);
        assert_eq!(r.probability, 0.5);
    }

    #[test]
    #[should_panic(expected = "in (0, 1]")]
    fn zero_probability_rejected() {
        let (_, ga, _) = setup();
        let r = Rule::new(ga, Guard::True, &Guard::True, &Guard::True).unwrap();
        let _ = r.with_probability(0.0);
    }
}
