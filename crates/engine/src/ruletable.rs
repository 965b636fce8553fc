//! Table-driven protocols over an enumerated state space.
//!
//! [`RuleTableProtocol`] is a pure-data [`Protocol`]: a list of rules, each
//! lowered to dense per-state match/successor tables over `q` enumerated
//! states. It is the execution form emitted by compilers that enumerate a
//! protocol's *reachable* states and intern them into dense ids (see
//! `pp-lang`'s `enumerate` backend) — the engine needs no knowledge of the
//! source formalism, only the tables.
//!
//! Scheduling follows the uniform-random-rule convention: each interaction
//! draws one rule index uniformly from the *original* rule count and fires
//! it when both sides match (and its probability coin comes up). Rules the
//! compiler proved can never fire ("dead" rules) are stripped from the
//! table list but keep their draw share as no-ops, so the outcome
//! distribution is exactly the unstripped protocol's while the per-draw
//! guard evaluation cost drops to a single bounds check.
//!
//! Because every rule is tabulated, the protocol also implements the
//! batching hooks exactly: [`Protocol::outcome_table`] (reactivity and
//! collision-epoch binomial splits) and per-draw-slot
//! [`Protocol::rule_masks`] with [`Protocol::interact_slot`] (the sparse
//! backend's leap), so enumerated protocols ride the fast count-backend
//! paths.

use crate::protocol::{Protocol, RuleMasks};
use crate::rng::SimRng;

/// One rule lowered to dense per-state tables over `q` enumerated states.
#[derive(Debug, Clone)]
pub struct RuleTable {
    /// `match_a[s]`: the initiator guard holds in state `s`.
    pub match_a: Vec<bool>,
    /// `match_b[s]`: the responder guard holds in state `s`.
    pub match_b: Vec<bool>,
    /// `apply_a[s]`: the initiator's successor id (identity where unmatched).
    pub apply_a: Vec<u32>,
    /// `apply_b[s]`: the responder's successor id (identity where unmatched).
    pub apply_b: Vec<u32>,
    /// Firing probability once selected and matched (in `(0, 1]`).
    pub probability: f64,
}

/// Draw-slot sentinel: the slot belongs to a stripped dead rule and is
/// provably a no-op.
pub const NO_RULE: u32 = u32::MAX;

/// A protocol defined entirely by per-rule state tables.
///
/// The uniform rule draw goes through a slot map: each interaction picks
/// one of `total_rules()` slots uniformly, and the slot either points at a
/// lowered table or is a [`NO_RULE`] no-op. Several slots may share one
/// table — LCM thread composition replicates rules to equalize thread draw
/// shares, and replicating the (large, per-state) tables themselves would
/// multiply memory and lowering time for nothing.
#[derive(Debug, Clone)]
pub struct RuleTableProtocol {
    name: String,
    /// `q`, the number of enumerated states.
    num_states: usize,
    rules: Vec<RuleTable>,
    /// Uniform-draw slot map: `draw[i]` is an index into `rules`, or
    /// [`NO_RULE`] for a stripped dead rule's share.
    draw: Vec<u32>,
    /// `mult[r]`: how many draw slots point at rule `r`.
    mult: Vec<u32>,
    /// How many draw slots are [`NO_RULE`].
    noop_slots: usize,
}

impl RuleTableProtocol {
    /// Builds a table protocol with one draw slot per rule over
    /// `num_states` (`q`) enumerated states; every table in `rules` must
    /// have length `q`. `total_rules` is the rule count *before* dead-rule stripping
    /// (the uniform-draw denominator); pass `rules.len()` when nothing was
    /// stripped.
    ///
    /// # Panics
    ///
    /// Panics if `total_rules < rules.len()`, `total_rules == 0`, any
    /// table length disagrees with `num_states`, or any successor id is
    /// out of range.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        num_states: usize,
        rules: Vec<RuleTable>,
        total_rules: usize,
    ) -> Self {
        assert!(
            total_rules >= rules.len(),
            "total_rules excludes live rules"
        );
        let mut draw: Vec<u32> = (0..rules.len() as u32).collect();
        draw.resize(total_rules, NO_RULE);
        Self::with_draw(name, num_states, rules, draw)
    }

    /// Builds a table protocol with an explicit draw-slot map, letting
    /// replicated rules (LCM thread composition) share one lowered table.
    ///
    /// # Panics
    ///
    /// Panics if `draw` is empty, any non-[`NO_RULE`] slot is out of range,
    /// any rule has no slot, any table length disagrees with `num_states`,
    /// or any successor id is out of range.
    #[must_use]
    pub fn with_draw(
        name: impl Into<String>,
        num_states: usize,
        rules: Vec<RuleTable>,
        draw: Vec<u32>,
    ) -> Self {
        assert!(!draw.is_empty(), "a protocol needs at least one rule slot");
        let q = num_states;
        for (i, r) in rules.iter().enumerate() {
            assert!(
                r.match_a.len() == q
                    && r.match_b.len() == q
                    && r.apply_a.len() == q
                    && r.apply_b.len() == q,
                "rule {i} tables must cover all {q} states"
            );
            assert!(
                r.apply_a
                    .iter()
                    .chain(&r.apply_b)
                    .all(|&t| (t as usize) < q),
                "rule {i} successor out of range"
            );
            assert!(
                r.probability > 0.0 && r.probability <= 1.0,
                "rule {i} probability must be in (0, 1]"
            );
        }
        let mut mult = vec![0u32; rules.len()];
        let mut noop_slots = 0usize;
        for &slot in &draw {
            if slot == NO_RULE {
                noop_slots += 1;
            } else {
                let r = slot as usize;
                assert!(r < rules.len(), "draw slot {slot} out of range");
                mult[r] += 1;
            }
        }
        assert!(
            mult.iter().all(|&m| m > 0),
            "every rule table needs at least one draw slot"
        );
        Self {
            name: name.into(),
            num_states,
            rules,
            draw,
            mult,
            noop_slots,
        }
    }

    /// The live (unstripped) rule tables.
    #[must_use]
    pub fn rules(&self) -> &[RuleTable] {
        &self.rules
    }

    /// The uniform-draw denominator, including stripped dead rules.
    #[must_use]
    pub fn total_rules(&self) -> usize {
        self.draw.len()
    }

    /// How many draw slots belong to stripped dead rules (no-ops).
    #[must_use]
    pub fn stripped_rules(&self) -> usize {
        self.noop_slots
    }
}

impl Protocol for RuleTableProtocol {
    fn num_states(&self) -> usize {
        self.num_states
    }

    fn interact(&self, a: usize, b: usize, rng: &mut SimRng) -> (usize, usize) {
        let slot = self.draw[rng.index(self.draw.len())];
        if slot == NO_RULE {
            // A stripped dead rule was drawn: provably a no-op.
            return (a, b);
        }
        let rule = &self.rules[slot as usize];
        if rule.match_a[a]
            && rule.match_b[b]
            && (rule.probability >= 1.0 || rng.chance(rule.probability))
        {
            (rule.apply_a[a] as usize, rule.apply_b[b] as usize)
        } else {
            (a, b)
        }
    }

    fn weight_scale(&self) -> u32 {
        self.draw.len() as u32
    }

    /// Fires the rule behind draw slot `slot` with its probability:
    /// [`Protocol::interact`] after drawing that slot.
    fn interact_slot(&self, a: usize, b: usize, slot: usize, rng: &mut SimRng) -> (usize, usize) {
        let rule = &self.rules[self.draw[slot] as usize];
        debug_assert!(rule.match_a[a] && rule.match_b[b]);
        if rule.probability >= 1.0 || rng.chance(rule.probability) {
            (rule.apply_a[a] as usize, rule.apply_b[b] as usize)
        } else {
            (a, b)
        }
    }

    /// One mask bit per draw slot; stripped slots stay clear.
    fn rule_masks(&self, state: usize) -> Option<RuleMasks> {
        let mut masks = RuleMasks::new(self.draw.len());
        for (slot, &r) in self.draw.iter().enumerate() {
            if r == NO_RULE {
                continue;
            }
            let rule = &self.rules[r as usize];
            masks.set(
                slot,
                rule.match_a[state],
                rule.apply_a[state] as usize != state,
                rule.match_b[state],
                rule.apply_b[state] as usize != state,
            );
        }
        Some(masks)
    }

    /// The outcomes of the rules that move an agent of `(a, b)`, each
    /// with its draw share times its probability; the rest, the identity,
    /// is left out.
    fn outcome_table(&self, a: usize, b: usize) -> Option<Vec<((usize, usize), f64)>> {
        let mut out: Vec<((usize, usize), f64)> = Vec::new();
        let per_slot = 1.0 / self.draw.len() as f64;
        for (rule, &m) in self.rules.iter().zip(&self.mult) {
            let key = (rule.apply_a[a] as usize, rule.apply_b[b] as usize);
            if rule.match_a[a] && rule.match_b[b] && key != (a, b) {
                push_outcome(&mut out, key, per_slot * f64::from(m) * rule.probability);
            }
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

    /// Two states, one live rule 0+1 -> 1+1, one stripped dead rule.
    fn epidemic_with_stripped_tail() -> RuleTableProtocol {
        let rule = RuleTable {
            match_a: vec![true, false],
            match_b: vec![false, true],
            apply_a: vec![1, 1],
            apply_b: vec![1, 1],
            probability: 1.0,
        };
        RuleTableProtocol::new(
            "epi",
            2,
            vec![rule],
            2, // one dead rule stripped
        )
    }

    #[test]
    fn interact_follows_tables() {
        let p = epidemic_with_stripped_tail();
        let mut rng = SimRng::seed_from(1);
        let mut fired = 0u32;
        let mut noop = 0u32;
        for _ in 0..1000 {
            match p.interact(0, 1, &mut rng) {
                (1, 1) => fired += 1,
                (0, 1) => noop += 1,
                other => panic!("impossible outcome {other:?}"),
            }
        }
        // The stripped dead rule keeps half the draw mass as no-ops.
        assert!((300..700).contains(&fired), "fired {fired}");
        assert_eq!(fired + noop, 1000);
        // Unmatched pair never changes.
        assert_eq!(p.interact(1, 0, &mut rng), (1, 0));
    }

    #[test]
    fn outcome_table_matches_draw_shares() {
        let p = epidemic_with_stripped_tail();
        let table = p.outcome_table(0, 1).unwrap();
        assert_eq!(table.len(), 1, "the identity is left out: {table:?}");
        let fire = table.iter().find(|&&(k, _)| k == (1, 1)).unwrap().1;
        assert!((fire - 0.5).abs() < 1e-12, "live rule share");
    }

    #[test]
    fn reactivity_tracks_actual_change() {
        let p = epidemic_with_stripped_tail();
        assert_eq!(p.outcome_table(1, 0), Some(vec![]), "unmatched order");
        assert_eq!(p.outcome_table(1, 1), Some(vec![]), "identity successor");
    }

    #[test]
    fn shared_draw_slots_weight_the_outcome_table() {
        // One table shared by 3 of 4 slots, one no-op slot: the rule's
        // outcome share must be 3/4 — exactly what LCM replication of the
        // same rule three times would produce with three separate tables.
        let rule = RuleTable {
            match_a: vec![true, false],
            match_b: vec![false, true],
            apply_a: vec![1, 1],
            apply_b: vec![1, 1],
            probability: 1.0,
        };
        let p = RuleTableProtocol::with_draw("shared", 2, vec![rule], vec![0, 0, 0, NO_RULE]);
        assert_eq!(p.total_rules(), 4);
        assert_eq!(p.stripped_rules(), 1);
        let table = p.outcome_table(0, 1).unwrap();
        let fire = table.iter().find(|&&(k, _)| k == (1, 1)).unwrap().1;
        assert!((fire - 0.75).abs() < 1e-12, "3 of 4 slots fire");
        assert_eq!(table.len(), 1, "the no-op slot's quarter is left out");
        // The interactive draw follows the same shares.
        let mut rng = SimRng::seed_from(7);
        let fired = (0..4000)
            .filter(|_| p.interact(0, 1, &mut rng) == (1, 1))
            .count();
        assert!((2700..3300).contains(&fired), "fired {fired}");
    }

    #[test]
    fn name_and_sizes_round_trip() {
        let p = epidemic_with_stripped_tail();
        assert_eq!(p.name(), "epi");
        assert_eq!(p.num_states(), 2);
        assert_eq!(p.stripped_rules(), 1);
    }
}
