//! The sparse leap's protocol hooks — `reactive_weight`, `weight_scale`,
//! `interact_reactive` and `rule_masks` — checked exactly, on every ordered
//! pair of states of small protocols, against `outcome_table`.
//!
//! The contract is that `interact(a, b)` has the law "with probability
//! `w / scale` run `interact_reactive(a, b)`, else return `(a, b)`". For
//! each pair the test lists the effective rule draws from the rule data
//! itself (their slot counts, probabilities and outcomes), and checks:
//!
//! * the weight equals the draws' slot count, and the masks' popcount
//!   weight equals it too;
//! * the mixture law built from the draws equals `outcome_table` to 1e-12;
//! * `interact_reactive` samples exactly that conditional law: on 64
//!   streams per pair it returns what a reference sampler, drawing the
//!   same uniform slot among the effective draws and the same firing coin
//!   from the same stream, returns.
//!
//! Protocols on the default hooks (weight 0 or 1 over a scale of 1) must
//! have an identity `outcome_table` wherever their weight is 0.

use population_protocols::core::engine::protocol::{Protocol, RuleMasks, TableProtocol};
use population_protocols::core::engine::rng::SimRng;
use population_protocols::core::engine::ruletable::{RuleTable, RuleTableProtocol, NO_RULE};
use population_protocols::core::rules::{
    parse::parse_ruleset, ExecutionMode, FlagProtocol, Ruleset, VarSet,
};

/// One effective rule draw on a pair: its draw slots, its firing
/// probability, and the pair it yields when it fires.
type Draw = (u32, f64, (usize, usize));

/// Streams per pair on which `interact_reactive` is replayed against the
/// reference sampler.
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

/// The reference sampler: a uniform slot among the effective draws, then
/// the firing coin.
fn reference_draw(draws: &[Draw], pair: (usize, usize), rng: &mut SimRng) -> (usize, usize) {
    let weight: u32 = draws.iter().map(|&(m, _, _)| m).sum();
    let mut pick = rng.below(u64::from(weight));
    for &(m, p, out) in draws {
        if pick < u64::from(m) {
            return if p >= 1.0 || rng.chance(p) { out } else { pair };
        }
        pick -= u64::from(m);
    }
    unreachable!("pick is below the weight")
}

/// The exact checks on every ordered pair, with `draws(a, b)` listing the
/// effective rule draws from the protocol's own rule data.
fn assert_hooks_exact<P: Protocol>(name: &str, p: &P, draws: impl Fn(usize, usize) -> Vec<Draw>) {
    let k = p.num_states();
    let scale = p.weight_scale();
    let masks: Option<Vec<RuleMasks>> = (0..k).map(|s| p.rule_masks(s)).collect();
    let mut reactive_pairs = 0;
    for a in 0..k {
        for b in 0..k {
            let what = format!("{name} ({a}, {b})");
            let effective = draws(a, b);
            let w: u32 = effective.iter().map(|&(m, _, _)| m).sum();
            assert_eq!(p.reactive_weight(a, b), w, "{what}: weight");
            assert_eq!(p.is_reactive(a, b), w > 0, "{what}: is_reactive");
            if let Some(masks) = &masks {
                assert_eq!(RuleMasks::weight(&masks[a], &masks[b]), w, "{what}: masks");
            }
            let share = 1.0 / f64::from(scale);
            let fired = effective.iter().flat_map(|&(m, prob, out)| {
                let slot = f64::from(m) * share;
                [(out, slot * prob), ((a, b), slot * (1.0 - prob))]
            });
            let idle = ((a, b), 1.0 - f64::from(w) * share);
            let table = p
                .outcome_table(a, b)
                .expect("these protocols list outcomes");
            assert_same_law(&law(table), &law(fired.chain([idle])), &what);
            if w == 0 {
                continue;
            }
            reactive_pairs += 1;
            for stream in 0..STREAMS {
                let seed = (a * k + b) as u64 * STREAMS + stream;
                let got = p.interact_reactive(a, b, &mut SimRng::seed_from(seed));
                let want = reference_draw(&effective, (a, b), &mut SimRng::seed_from(seed));
                assert_eq!(got, want, "{what}: interact_reactive on stream {stream}");
            }
        }
    }
    assert!(reactive_pairs > 0, "{name}: no pair has a positive weight");
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
        rules
            .rules()
            .iter()
            .filter(|r| r.is_effective_on(a as u32, b as u32))
            .map(|r| {
                let (a2, b2) = r.apply(a as u32, b as u32);
                (1, r.probability, (a2 as usize, b2 as usize))
            })
            .collect()
    });
}

/// The default hooks: weight 0 or 1 over a scale of 1, no masks, and
/// `interact_reactive` = `interact`; a pair of weight 0 must be inert.
fn assert_default_hooks<P: Protocol>(name: &str, p: &P) {
    let k = p.num_states();
    assert_eq!(p.weight_scale(), 1, "{name}: scale");
    for a in 0..k {
        assert!(p.rule_masks(a).is_none(), "{name}: masks");
        for b in 0..k {
            let w = p.reactive_weight(a, b);
            assert_eq!(w, u32::from(p.is_reactive(a, b)), "{name} ({a}, {b})");
            if w == 0 {
                let table = p
                    .outcome_table(a, b)
                    .expect("these protocols list outcomes");
                assert_same_law(&law(table), &[((a, b), 1.0)], name);
                continue;
            }
            for stream in 0..STREAMS {
                let got = p.interact_reactive(a, b, &mut SimRng::seed_from(stream));
                let want = p.interact(a, b, &mut SimRng::seed_from(stream));
                assert_eq!(got, want, "{name} ({a}, {b}) on stream {stream}");
            }
        }
    }
}

#[test]
fn first_match_and_table_protocols_keep_the_default_hooks() {
    let (vars, rules) = composed();
    let first = FlagProtocol::new(vars, rules, "first").with_mode(ExecutionMode::FirstMatch);
    assert_default_hooks("first-match", &first);
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
    // and one slot belongs to a stripped dead rule.
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
    let mult = [3u32, 2, 1];
    let draw = vec![0, 1, 0, 2, NO_RULE, 1, 0];
    let labels = (0..q).map(|s| format!("s{s}")).collect();
    let p = RuleTableProtocol::with_draw("tables", labels, rules.clone(), draw);
    assert_eq!(p.weight_scale(), 7);
    assert_hooks_exact("rule-table", &p, |a, b| {
        rules
            .iter()
            .zip(mult)
            .filter(|(r, _)| {
                r.match_a[a]
                    && r.match_b[b]
                    && (r.apply_a[a] as usize != a || r.apply_b[b] as usize != b)
            })
            .map(|(r, m)| {
                (
                    m,
                    r.probability,
                    (r.apply_a[a] as usize, r.apply_b[b] as usize),
                )
            })
            .collect()
    });
}
