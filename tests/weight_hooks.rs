//! The sparse leap's protocol hooks — `weight_scale`, `rule_masks` and
//! `interact_slot` — checked exactly, on every ordered pair of states of
//! small protocols, against `outcome_table` and `interact`.
//!
//! The slot contract is that `interact(a, b)` has the law "draw one of
//! `scale` rule slots uniformly; if the drawn slot `r` is effective on
//! `(a, b)` run `interact_slot(a, b, r)`, else return `(a, b)`". For each
//! pair and each slot the test reads, from the rule data itself, the
//! slot's rule, its firing probability and its outcome, and checks:
//!
//! * the masks call slot `r` effective exactly when its rule matches the
//!   pair and moves an agent;
//! * the mixture law built from the effective slots equals
//!   `outcome_table` to 1e-12;
//! * `interact_slot` samples exactly the slot's law: on 64 streams per
//!   effective slot it returns what a reference sampler, drawing the same
//!   firing coin from the same stream, returns;
//! * `interact` is the contract's two-stage draw: on 64 streams per pair
//!   it returns what "uniform slot, then `interact_slot` if effective"
//!   returns from the same stream.
//!
//! Protocols on the default hooks (no masks, scale 1) must have an
//! identity `outcome_table` wherever `is_reactive` is false, and the
//! default `interact_slot` is `interact`.

use population_protocols::engine::protocol::{Protocol, RuleMasks, TableProtocol};
use population_protocols::engine::rng::SimRng;
use population_protocols::engine::ruletable::{RuleTable, RuleTableProtocol, NO_RULE};
use population_protocols::rules::{parse::parse_ruleset, FlagProtocol, Ruleset, VarSet};

/// One rule slot on a pair, from the rule data: whether it is effective,
/// its firing probability, and the pair it yields when it fires.
type Slot = (bool, f64, (usize, usize));

/// Streams per pair (and per effective slot) on which the hooks are
/// replayed against the reference samplers.
const STREAMS: u64 = 64;

/// Sums `((a', b'), p)` entries by outcome.
fn law(entries: impl IntoIterator<Item = ((usize, usize), f64)>) -> Vec<((usize, usize), f64)> {
    let mut out: Vec<((usize, usize), f64)> = Vec::new();
    for (key, p) in entries {
        match out.iter_mut().find(|(k, _)| *k == key) {
            Some(entry) => entry.1 += p,
            None => out.push((key, p)),
        }
    }
    out.retain(|&(_, p)| p > 0.0);
    out.sort_by_key(|&(k, _)| k);
    out
}

fn assert_same_law(got: &[((usize, usize), f64)], want: &[((usize, usize), f64)], what: &str) {
    assert_eq!(
        got.iter().map(|&(k, _)| k).collect::<Vec<_>>(),
        want.iter().map(|&(k, _)| k).collect::<Vec<_>>(),
        "{what}: outcomes differ ({got:?} vs {want:?})"
    );
    for (&(k, g), &(_, w)) in got.iter().zip(want) {
        assert!((g - w).abs() < 1e-12, "{what}: P{k:?} = {g} vs {w}");
    }
}

/// The reference for one slot: its firing coin, then its outcome.
fn reference_fire(
    prob: f64,
    out: (usize, usize),
    pair: (usize, usize),
    rng: &mut SimRng,
) -> (usize, usize) {
    if prob >= 1.0 || rng.chance(prob) {
        out
    } else {
        pair
    }
}

/// The exact checks on every ordered pair, with `slots(a, b)` listing all
/// `scale` rule slots on the pair from the protocol's own rule data.
fn assert_hooks_exact<P: Protocol>(name: &str, p: &P, slots: impl Fn(usize, usize) -> Vec<Slot>) {
    let k = p.num_states();
    let scale = p.weight_scale() as usize;
    let masks: Vec<RuleMasks> = (0..k)
        .map(|s| p.rule_masks(s).expect("these protocols have rule masks"))
        .collect();
    let mut reactive_pairs = 0;
    for a in 0..k {
        for b in 0..k {
            let what = format!("{name} ({a}, {b})");
            let slots = slots(a, b);
            assert_eq!(slots.len(), scale, "{what}: one entry per slot");
            for (r, &(effective, _, _)) in slots.iter().enumerate() {
                let masked = RuleMasks::effective(&masks[a], &masks[b], r);
                assert_eq!(masked, effective, "{what}: slot {r} masks");
            }
            let effective: Vec<(usize, f64, (usize, usize))> = slots
                .iter()
                .enumerate()
                .filter(|(_, &(on, _, _))| on)
                .map(|(r, &(_, prob, out))| (r, prob, out))
                .collect();
            assert_eq!(
                p.is_reactive(a, b),
                !effective.is_empty(),
                "{what}: is_reactive"
            );
            let share = 1.0 / scale as f64;
            let fired = effective
                .iter()
                .flat_map(|&(_, prob, out)| [(out, share * prob), ((a, b), share * (1.0 - prob))]);
            let idle = ((a, b), 1.0 - effective.len() as f64 * share);
            let table = p
                .outcome_table(a, b)
                .expect("these protocols list outcomes");
            assert_same_law(&law(table), &law(fired.chain([idle])), &what);
            reactive_pairs += usize::from(!effective.is_empty());
            let seed = |stream: u64| (a * k + b) as u64 * STREAMS + stream;
            for &(r, prob, out) in &effective {
                for stream in 0..STREAMS {
                    let got = p.interact_slot(a, b, r, &mut SimRng::seed_from(seed(stream)));
                    let want =
                        reference_fire(prob, out, (a, b), &mut SimRng::seed_from(seed(stream)));
                    assert_eq!(got, want, "{what}: interact_slot {r} on stream {stream}");
                }
            }
            for stream in 0..STREAMS {
                let got = p.interact(a, b, &mut SimRng::seed_from(seed(stream)));
                let mut rng = SimRng::seed_from(seed(stream));
                let r = rng.index(scale);
                let want = if slots[r].0 {
                    p.interact_slot(a, b, r, &mut rng)
                } else {
                    (a, b)
                };
                assert_eq!(got, want, "{what}: interact on stream {stream}");
            }
        }
    }
    assert!(reactive_pairs > 0, "{name}: no pair has an effective slot");
}

/// Two threads, composed: the epidemic (2 rules, so 3 replicas each) and
/// a 3-rule thread (2 replicas each) with rules firing with probability ½
/// and ¼, a disjunctive guard (evaluated, not mask-tested), and a rule
/// that matches pairs it cannot change.
fn composed() -> (VarSet, Ruleset) {
    let mut vars = VarSet::new();
    let epidemic = parse_ruleset(
        "(I) + (!I) -> (.) + (I)\n\
         (!I) + (I) -> (I) + (.)",
        &mut vars,
    )
    .expect("epidemic parses");
    let mixer = parse_ruleset(
        "(A & !B) + (B) -> (.) + (!B) @ 0.5\n\
         (!A | I) + (A) -> (A) + (.) @ 0.25\n\
         (B) + (B) -> (B) + (B)",
        &mut vars,
    )
    .expect("mixer parses");
    let composed = Ruleset::compose(&[epidemic, mixer]);
    assert_eq!(composed.len(), 12, "LCM replicas: 2·3 + 3·2");
    (vars, composed)
}

#[test]
fn flag_protocol_uniform_rule_hooks_match_the_outcome_table() {
    let (vars, rules) = composed();
    let p = FlagProtocol::new(vars, rules.clone(), "composed");
    assert_eq!(p.weight_scale(), 12);
    assert_hooks_exact("uniform-rule", &p, |a, b| {
        let (a, b) = (a as u32, b as u32);
        rules
            .rules()
            .iter()
            .map(|r| {
                let (a2, b2) = r.apply(a, b);
                let out = (a2 as usize, b2 as usize);
                (r.is_effective_on(a, b), r.probability, out)
            })
            .collect()
    });
}

/// The default hooks: no masks and a scale of 1, so the sparse backend
/// never leaps on the protocol; a pair that is not reactive must be inert,
/// and the default `interact_slot` is `interact`.
fn assert_default_hooks<P: Protocol>(name: &str, p: &P) {
    let k = p.num_states();
    assert_eq!(p.weight_scale(), 1, "{name}: scale");
    for a in 0..k {
        assert!(p.rule_masks(a).is_none(), "{name}: masks");
        for b in 0..k {
            if !p.is_reactive(a, b) {
                let table = p
                    .outcome_table(a, b)
                    .expect("these protocols list outcomes");
                assert_same_law(&law(table), &[((a, b), 1.0)], name);
                continue;
            }
            for stream in 0..STREAMS {
                let got = p.interact_slot(a, b, 0, &mut SimRng::seed_from(stream));
                let want = p.interact(a, b, &mut SimRng::seed_from(stream));
                assert_eq!(got, want, "{name} ({a}, {b}) on stream {stream}");
            }
        }
    }
}

#[test]
fn table_protocol_keeps_the_default_hooks() {
    let table = TableProtocol::new(3, "rps")
        .rule_p(0, 1, 0, 0, 0.5)
        .rule(1, 2, 1, 1)
        .rule_p(2, 0, 2, 2, 0.25)
        .rule_p(2, 0, 1, 0, 0.25);
    assert_default_hooks("table", &table);
}

#[test]
fn rule_table_protocol_hooks_match_the_outcome_table() {
    // Four states; rule 0 fires on 1 + 0 (certain), rule 1 on any + 2 with
    // probability ½, rule 2 on 3 + 3 with probability ¼ but only moves
    // the responder. Rule 0 holds 3 draw slots, rule 1 two, rule 2 one,
    // and one slot belongs to a stripped dead rule, so slot numbers and
    // rule numbers differ.
    let q = 4;
    let table = |ma: &[usize], mb: &[usize], to_a: &[(usize, u32)], to_b: &[(usize, u32)], p| {
        let mut apply_a: Vec<u32> = (0..q as u32).collect();
        let mut apply_b = apply_a.clone();
        for &(s, t) in to_a {
            apply_a[s] = t;
        }
        for &(s, t) in to_b {
            apply_b[s] = t;
        }
        RuleTable {
            match_a: (0..q).map(|s| ma.contains(&s)).collect(),
            match_b: (0..q).map(|s| mb.contains(&s)).collect(),
            apply_a,
            apply_b,
            probability: p,
        }
    };
    let rules = vec![
        table(&[1], &[0], &[], &[(0, 1)], 1.0),
        table(&[0, 1, 2, 3], &[2], &[(0, 3), (2, 1)], &[(2, 0)], 0.5),
        table(&[3], &[3], &[], &[(3, 0)], 0.25),
    ];
    let draw = vec![0, 1, 0, 2, NO_RULE, 1, 0];
    let p = RuleTableProtocol::with_draw("tables", q, rules.clone(), draw.clone());
    assert_eq!(p.weight_scale(), 7);
    assert_eq!(p.stripped_rules(), 1);
    assert_hooks_exact("rule-table", &p, |a, b| {
        draw.iter()
            .map(|&slot| {
                let Some(r) = rules.get(slot as usize) else {
                    return (false, 1.0, (a, b));
                };
                let out = (r.apply_a[a] as usize, r.apply_b[b] as usize);
                (
                    r.match_a[a] && r.match_b[b] && out != (a, b),
                    r.probability,
                    out,
                )
            })
            .collect()
    });
}
