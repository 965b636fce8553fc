//! Semi-linear predicates (Section 6.3): predicate AST, the slow (stable,
//! always-correct) blackbox, the fast (leader-timed, w.h.p.) blackbox, and
//! the `SemilinearPredicateExact` composition.
//!
//! The paper computes an arbitrary semi-linear predicate `Π` by combining
//! two blackboxes under the leader elected by `LeaderElectionExact`:
//!
//! * the **slow blackbox** (\[AAD+06\]) stably computes `Π` with certainty in
//!   expected polynomial time, exposing per-agent output states
//!   `(P⁰, P¹)`;
//! * the **fast blackbox** (\[AAE08b\]) computes `Π` w.h.p. in `O(log² n)`
//!   rounds given a unique leader, writing `P*`;
//! * an arbitration thread copies the fast answer into the output `P`
//!   unless the slow blackbox unanimously contradicts it, which makes the
//!   composition correct with certainty yet fast w.h.p. (Theorem 6.4).
//!
//! ### Reproduction scope
//!
//! The slow blackbox is implemented in full generality for the atoms we
//! exercise: threshold comparisons `#A − #B ≥ t` (`t ∈ {0, 1}`, the
//! leader-value construction with values clamped to `[−1, 1]`) and modulo
//! predicates `#A ≡ r (mod m)` for `m ∈ {2, 3, 4}`. The fast blackbox is
//! implemented for the *comparison fragment* (via the cancellation/doubling
//! machinery of [`crate::majority`]); modulo atoms are served by the slow
//! blackbox alone, so their convergence is exact-but-polynomial. \[AAE08b\]'s
//! general register-machine simulation is cited by the paper as an opaque
//! blackbox and is out of scope; the composition logic — the part this
//! paper contributes — is implemented exactly as written.

use pp_lang::ast::{build, Program, Thread};
use pp_lang::interp::Executor;
use pp_rules::parse::parse_ruleset;
use pp_rules::{Guard, Ruleset, VarSet};

/// A semi-linear predicate over input-set cardinalities, used as ground
/// truth in tests and experiments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Predicate {
    /// `#A − #B ≥ t` over two named input sets.
    Comparison {
        /// Threshold `t`.
        t: i64,
    },
    /// `#A ≡ r (mod m)`.
    Mod {
        /// Modulus `m ≥ 2`.
        m: u32,
        /// Residue `r < m`.
        r: u32,
    },
    /// Negation.
    Not(Box<Predicate>),
    /// Conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction.
    Or(Box<Predicate>, Box<Predicate>),
}

impl Predicate {
    /// Evaluates the predicate on input cardinalities `(#A, #B)`.
    #[must_use]
    pub fn eval(&self, a: u64, b: u64) -> bool {
        match self {
            Predicate::Comparison { t } => a as i64 - b as i64 >= *t,
            Predicate::Mod { m, r } => a % u64::from(*m) == u64::from(*r),
            Predicate::Not(p) => !p.eval(a, b),
            Predicate::And(p, q) => p.eval(a, b) && q.eval(a, b),
            Predicate::Or(p, q) => p.eval(a, b) || q.eval(a, b),
        }
    }
}

/// Generates the slow-blackbox ruleset for the threshold atom
/// `#A − #B ≥ t` with `t ∈ {0, 1}`.
///
/// Construction (the classic stable-computation protocol): every agent
/// starts as a *leader* (`G`) carrying a value in `{−1, 0, +1}` (flags
/// `Vp`/`Vm`; an `A`-input contributes +1, a `B`-input −1). Two leaders
/// merge: the pair's sum (clamped to `[−1, 1]`) stays with the initiator,
/// and when nothing remains for the responder it is demoted to a follower.
/// Each merge also rewrites both agents' output flag `O` to
/// `[sum ≥ t]`; followers copy `O` from leaders. Eventually the leaders
/// that remain all agree (a single one when `|Σ| ≤ 1`), and every agent's
/// `O` equals the predicate — stably.
///
/// Variable names are prefixed with `pre` so several atoms can coexist.
/// Returns the output variable (named `{pre}O`).
///
/// # Panics
///
/// Panics if `t` is not 0 or 1.
pub fn slow_threshold_ruleset(vars: &mut VarSet, pre: &str, t: i64) -> (Ruleset, pp_rules::Var) {
    assert!(t == 0 || t == 1, "slow threshold supports t ∈ {{0, 1}}");
    let g = format!("{pre}G");
    let vp = format!("{pre}Vp");
    let vm = format!("{pre}Vm");
    let o = format!("{pre}O");
    // Post-condition literal writing the output for a merged pair value w.
    let set_out = |w: i64| -> String {
        if w >= t {
            o.clone()
        } else {
            format!("!{o}")
        }
    };
    // Leader–leader merges, by value pair. Values: +1 (Vp), −1 (Vm), 0.
    let mut text = String::new();
    // (+1) + (−1) → 0 for initiator, responder demoted; w = 0.
    text.push_str(&format!(
        "({g} & {vp}) + ({g} & {vm}) -> ({g} & !{vp} & !{vm} & {s0}) + (!{g} & !{vp} & !{vm} & {s0})\n",
        s0 = set_out(0)
    ));
    text.push_str(&format!(
        "({g} & {vm}) + ({g} & {vp}) -> ({g} & !{vp} & !{vm} & {s0}) + (!{g} & !{vp} & !{vm} & {s0})\n",
        s0 = set_out(0)
    ));
    // (+1) + (+1): w = 2, clamp q = 1, r = 1: both stay leaders at +1;
    // outputs become [2 ≥ t] = on (t ≤ 1).
    text.push_str(&format!(
        "({g} & {vp}) + ({g} & {vp}) -> ({g} & {vp} & {o}) + ({g} & {vp} & {o})\n"
    ));
    // (−1) + (−1): w = −2: both stay at −1, outputs off.
    text.push_str(&format!(
        "({g} & {vm}) + ({g} & {vm}) -> ({g} & {vm} & !{o}) + ({g} & {vm} & !{o})\n"
    ));
    // (0) + (v): initiator absorbs the partner's value; responder demoted.
    for (pv, sv, w) in [
        (vp.clone(), vp.to_string(), 1i64),
        (vm.clone(), vm.to_string(), -1),
    ] {
        text.push_str(&format!(
            "({g} & !{vp} & !{vm}) + ({g} & {pv}) -> ({g} & {sv} & {sw}) + (!{g} & !{vp} & !{vm} & {sw})\n",
            sw = set_out(w)
        ));
    }
    // (v) + (0): responder demoted, initiator keeps value; w = v.
    for (pv, w) in [(vp.clone(), 1i64), (vm.clone(), -1)] {
        text.push_str(&format!(
            "({g} & {pv}) + ({g} & !{vp} & !{vm}) -> ({g} & {pv} & {sw}) + (!{g} & !{vp} & !{vm} & {sw})\n",
            sw = set_out(w)
        ));
    }
    // (0) + (0): initiator keeps leadership, responder demoted; w = 0.
    text.push_str(&format!(
        "({g} & !{vp} & !{vm}) + ({g} & !{vp} & !{vm}) -> ({g} & {s0}) + (!{g} & {s0})\n",
        s0 = set_out(0)
    ));
    // Followers copy outputs from leaders.
    text.push_str(&format!("(!{g}) + ({g} & {o}) -> (!{g} & {o}) + (.)\n"));
    text.push_str(&format!("(!{g}) + ({g} & !{o}) -> (!{g} & !{o}) + (.)\n"));

    let ruleset = parse_ruleset(&text, vars).expect("slow threshold ruleset parses");
    let ov = vars.get(&o).expect("output registered");
    (ruleset, ov)
}

/// Initial extra flags for the slow threshold atom, given an agent's input
/// membership: leaders everywhere, value +1 for `A`-agents, −1 for
/// `B`-agents, initial output `[value ≥ t]`.
#[must_use]
pub fn slow_threshold_init(
    vars: &VarSet,
    pre: &str,
    member_a: bool,
    member_b: bool,
    t: i64,
) -> Vec<pp_rules::Var> {
    let mut on = vec![vars.get(&format!("{pre}G")).expect("G")];
    let value = i64::from(member_a) - i64::from(member_b);
    if value > 0 {
        on.push(vars.get(&format!("{pre}Vp")).expect("Vp"));
    } else if value < 0 {
        on.push(vars.get(&format!("{pre}Vm")).expect("Vm"));
    }
    if value >= t {
        on.push(vars.get(&format!("{pre}O")).expect("O"));
    }
    on
}

/// Generates the slow-blackbox ruleset for the modulo atom
/// `#A ≡ r (mod m)` with `m ∈ {2, 3, 4}`.
///
/// Leaders carry a residue in `0..m` encoded in two flags (`R0`, `R1`);
/// merging adds residues mod `m` onto the initiator and demotes the
/// responder, updating both outputs to `[residue = r]`; followers copy.
///
/// # Panics
///
/// Panics if `m` is not 2, 3, or 4, or `r ≥ m`.
pub fn slow_mod_ruleset(vars: &mut VarSet, pre: &str, m: u32, r: u32) -> (Ruleset, pp_rules::Var) {
    assert!((2..=4).contains(&m), "slow mod supports m ∈ {{2, 3, 4}}");
    assert!(r < m, "residue out of range");
    let g = format!("{pre}G");
    let r0 = format!("{pre}R0");
    let r1 = format!("{pre}R1");
    let o = format!("{pre}O");
    let enc = |v: u32| -> String {
        // Conjunction of residue-bit literals for value v (usable both as a
        // guard and as a post-condition).
        let b0 = v & 1 != 0;
        let b1 = v & 2 != 0;
        let lit = |name: &str, set: bool| {
            if set {
                name.to_string()
            } else {
                format!("!{name}")
            }
        };
        format!("{} & {}", lit(&r0, b0), lit(&r1, b1))
    };
    let mut text = String::new();
    for u in 0..m {
        for v in 0..m {
            let w = (u + v) % m;
            let set_o = if w == r { o.clone() } else { format!("!{o}") };
            text.push_str(&format!(
                "({g} & {gu}) + ({g} & {gv}) -> ({g} & {sw} & {set_o}) + (!{g} & {s0} & {set_o})\n",
                gu = enc(u),
                gv = enc(v),
                sw = enc(w),
                s0 = enc(0),
            ));
        }
    }
    text.push_str(&format!("(!{g}) + ({g} & {o}) -> (!{g} & {o}) + (.)\n"));
    text.push_str(&format!("(!{g}) + ({g} & !{o}) -> (!{g} & !{o}) + (.)\n"));
    let ruleset = parse_ruleset(&text, vars).expect("slow mod ruleset parses");
    let ov = vars.get(&o).expect("output registered");
    (ruleset, ov)
}

/// Initial extra flags for the slow modulo atom: every agent is a leader;
/// `A`-members start with residue 1, others 0; output `[residue = r]`.
#[must_use]
pub fn slow_mod_init(vars: &VarSet, pre: &str, member_a: bool, r: u32) -> Vec<pp_rules::Var> {
    let mut on = vec![vars.get(&format!("{pre}G")).expect("G")];
    if member_a {
        on.push(vars.get(&format!("{pre}R0")).expect("R0"));
    }
    let residue = u32::from(member_a);
    if residue == r {
        on.push(vars.get(&format!("{pre}O")).expect("O"));
    }
    on
}

/// The always-correct parity protocol `#A ≡ r (mod 2)` — a representative
/// modulo predicate served by the slow blackbox, with the framework's
/// `Main` thread adopting the (eventually unique) slow leader's output.
///
/// Exact but polynomial-time: modulo atoms are outside our fast-blackbox
/// fragment (see the module docs).
#[must_use]
pub fn parity_exact(r: u32) -> Program {
    assert!(r < 2);
    let mut vars = VarSet::new();
    let a = vars.add("A");
    let p = vars.add("P");
    let (slow, _) = slow_mod_ruleset(&mut vars, "M", 2, r);
    let g = vars.get("MG").expect("G");
    let o = vars.get("MO").expect("O");
    let body = vec![
        build::if_exists(
            Guard::var(g).and(Guard::var(o)),
            vec![build::assign(p, Guard::any())],
        ),
        build::if_exists(
            Guard::var(g).and(Guard::not_var(o)),
            vec![build::assign(p, Guard::any().not())],
        ),
    ];
    let r0 = vars.get("MR0").expect("R0");
    let derived_init = vec![
        (g, Guard::any()),
        (r0, Guard::var(a)),
        (
            o,
            if r == 1 {
                Guard::var(a)
            } else {
                Guard::not_var(a)
            },
        ),
    ];
    Program {
        name: format!("ParityExact(r={r})"),
        vars,
        inputs: vec![a],
        outputs: vec![p],
        init: vec![],
        derived_init,
        threads: vec![
            Thread::Structured {
                name: "Main".into(),
                body,
            },
            Thread::Raw {
                name: "SlowMod".into(),
                ruleset: slow,
            },
        ],
    }
}

/// The always-correct modulo protocol `#A ≡ r (mod m)` for
/// `m ∈ {2, 3, 4}` — the general form of [`parity_exact`].
///
/// Exact but polynomial-time (modulo atoms are outside the fast-blackbox
/// fragment; see the module docs).
///
/// # Panics
///
/// Panics if `m ∉ {2, 3, 4}` or `r ≥ m`.
#[must_use]
pub fn mod_exact(m: u32, r: u32) -> Program {
    assert!((2..=4).contains(&m) && r < m);
    let mut vars = VarSet::new();
    let a = vars.add("A");
    let p = vars.add("P");
    let (slow, _) = slow_mod_ruleset(&mut vars, "M", m, r);
    let g = vars.get("MG").expect("G");
    let o = vars.get("MO").expect("O");
    let r0 = vars.get("MR0").expect("R0");
    let body = vec![
        build::if_exists(
            Guard::var(g).and(Guard::var(o)),
            vec![build::assign(p, Guard::any())],
        ),
        build::if_exists(
            Guard::var(g).and(Guard::not_var(o)),
            vec![build::assign(p, Guard::any().not())],
        ),
    ];
    let derived_init = vec![
        (g, Guard::any()),
        (r0, Guard::var(a)),
        (
            o,
            if r == 1 {
                Guard::var(a)
            } else if r == 0 {
                Guard::not_var(a)
            } else {
                Guard::any().not()
            },
        ),
    ];
    Program {
        name: format!("ModExact(m={m},r={r})"),
        vars,
        inputs: vec![a],
        outputs: vec![p],
        init: vec![],
        derived_init,
        threads: vec![
            Thread::Structured {
                name: "Main".into(),
                body,
            },
            Thread::Raw {
                name: "SlowMod".into(),
                ruleset: slow,
            },
        ],
    }
}

/// An always-correct *boolean combination* of two atoms, demonstrating the
/// product construction that closes semi-linear predicates under ∧/∨/¬:
/// `Π = [#A − #B ≥ 1] ∧ [#A ≡ r (mod 2)]`.
///
/// Both atoms run as independent slow-blackbox threads over the same
/// inputs; the `Main` thread combines the (eventually unique) leaders'
/// outputs locally. Exact, polynomial-time.
///
/// # Panics
///
/// Panics if `r ≥ 2`.
#[must_use]
pub fn comparison_and_parity_exact(r: u32) -> Program {
    assert!(r < 2);
    let mut vars = VarSet::new();
    let a = vars.add("A");
    let b = vars.add("B");
    let p = vars.add("P");
    let (slow_t, t_out) = slow_threshold_ruleset(&mut vars, "T", 1);
    let (slow_m, m_out) = slow_mod_ruleset(&mut vars, "M", 2, r);
    let tg = vars.get("TG").expect("TG");
    let tvp = vars.get("TVp").expect("TVp");
    let tvm = vars.get("TVm").expect("TVm");
    let mg = vars.get("MG").expect("MG");
    let mr0 = vars.get("MR0").expect("MR0");

    // P := (threshold leader says true) ∧ (mod leader says true), read via
    // two nested existential branches mirroring the Section 6.3 idiom.
    let body = vec![build::if_else(
        Guard::var(tg).and(Guard::var(t_out)),
        vec![build::if_else(
            Guard::var(mg).and(Guard::var(m_out)),
            vec![build::assign(p, Guard::any())],
            vec![build::assign(p, Guard::any().not())],
        )],
        vec![build::assign(p, Guard::any().not())],
    )];
    let derived_init = vec![
        (tg, Guard::any()),
        (tvp, Guard::var(a)),
        (tvm, Guard::var(b)),
        (t_out, Guard::var(a).and(Guard::not_var(b))),
        (mg, Guard::any()),
        (mr0, Guard::var(a)),
        (
            m_out,
            if r == 1 {
                Guard::var(a)
            } else {
                Guard::not_var(a)
            },
        ),
    ];
    Program {
        name: format!("ComparisonAndParityExact(r={r})"),
        vars,
        inputs: vec![a, b],
        outputs: vec![p],
        init: vec![],
        derived_init,
        threads: vec![
            Thread::Structured {
                name: "Main".into(),
                body,
            },
            Thread::Raw {
                name: "SlowThreshold".into(),
                ruleset: slow_t,
            },
            Thread::Raw {
                name: "SlowMod".into(),
                ruleset: slow_m,
            },
        ],
    }
}

/// `SemilinearPredicateExact` for the comparison predicate
/// `Π = [#A − #B ≥ 1]` (Section 6.3, full composition).
///
/// Threads:
///
/// * all threads of `LeaderElectionExact` (on `L`, `R`, `F`, …);
/// * `SemLinear` (`Main`): the fast blackbox — one cancellation/doubling
///   pass computing `P*` w.h.p. — followed by the paper's arbitration
///   against the slow blackbox outputs;
/// * `SemLinearSlow`: the stable threshold protocol, exposing `(P⁰, P¹)`
///   through its leader flag and output (`P¹ ⇔ TO`, `P⁰ ⇔ ¬TO`).
///
/// The fast path uses the framework's synchronization (and is gated by the
/// leader's existence only implicitly, via the shared iteration structure);
/// the slow path pins the output with certainty.
#[must_use]
pub fn semilinear_comparison_exact(c: u32) -> Program {
    let mut base = crate::leader::leader_election_exact();
    base.name = "SemilinearPredicateExact[#A-#B>=1]".into();
    let vars = &mut base.vars;
    let a = vars.add("A");
    let b = vars.add("B");
    let p = vars.add("P");
    let a_star = vars.add("A'");
    let b_star = vars.add("B'");
    let k = vars.add("K");
    let p_star = vars.add("P*");
    let (slow, slow_out) = slow_threshold_ruleset(vars, "T", 1);

    let cancel = parse_ruleset("(A') + (B') -> (!A') + (!B')", vars).expect("cancel");
    let double = parse_ruleset(
        "(A' & !K) + (!A' & !B') -> (A' & K) + (A' & K)\n\
         (B' & !K) + (!A' & !B') -> (B' & K) + (B' & K)",
        vars,
    )
    .expect("double");

    // Fast blackbox: duel, then P* := [A' survived].
    let mut body = vec![
        build::assign(a_star, Guard::var(a)),
        build::assign(b_star, Guard::var(b)),
        build::repeat_log(
            c,
            vec![
                build::execute(c, cancel),
                build::assign(k, Guard::any().not()),
                build::execute(c, double),
            ],
        ),
        build::if_else(
            Guard::var(a_star),
            vec![build::assign(p_star, Guard::any())],
            vec![build::assign(p_star, Guard::any().not())],
        ),
    ];
    // Arbitration (paper listing): adopt the fast answer unless the slow
    // blackbox unanimously contradicts it. `P⁰` = slow leader output off,
    // `P¹` = slow leader output on; "exists ¬P⁰" ⇔ some agent's slow
    // output is on.
    body.push(build::if_exists(
        Guard::var(p_star),
        vec![build::if_exists(
            Guard::var(slow_out),
            vec![build::assign(p, Guard::any())],
        )],
    ));
    body.push(build::if_exists(
        Guard::not_var(p_star),
        vec![build::if_exists(
            Guard::not_var(slow_out),
            vec![build::if_exists(
                Guard::var(p),
                vec![build::assign(p, Guard::any().not())],
            )],
        )],
    ));

    let tg = base.vars.get("TG").expect("TG");
    let tvp = base.vars.get("TVp").expect("TVp");
    let tvm = base.vars.get("TVm").expect("TVm");
    base.derived_init.extend([
        (tg, Guard::any()),
        (tvp, Guard::var(a)),
        (tvm, Guard::var(b)),
        // Initial output [value ≥ 1] = member of A (and not B).
        (slow_out, Guard::var(a).and(Guard::not_var(b))),
    ]);
    base.inputs.extend([a, b]);
    base.outputs = vec![p];
    base.threads.push(Thread::Structured {
        name: "SemLinear".into(),
        body,
    });
    base.threads.push(Thread::Raw {
        name: "SemLinearSlow".into(),
        ruleset: slow,
    });
    base
}

/// Parallel rounds after which the answer of an exact program is read:
/// `n² · log₂ n` (at least `n²`).
///
/// The slow blackboxes elect one leader by pairwise elimination, `Θ(n)`
/// expected rounds of its rule slots, and then every follower copies the
/// leader's output, a coupon collection of `Θ(n log n)` rounds per slot.
/// The budget leaves a factor `n` over that for the dilution of those
/// slots among the composed program's rules.
#[must_use]
pub fn settle_budget_rounds(n: u64) -> f64 {
    let n = n as f64;
    n * n * n.log2().max(1.0)
}

/// Runs `exec` for [`settle_budget_rounds`] parallel rounds and then as
/// many again, reading `right` after every iteration. The answer counts
/// only if every reading from the end of the budget on is right; an
/// answer the initial state already reads counts for nothing, since
/// readings start after the first iteration. Returns the iteration from
/// which every reading was right, or `None` if one at or past the budget
/// was wrong.
pub fn run_settled(exec: &mut Executor<'_>, right: impl Fn(&Executor<'_>) -> bool) -> Option<u64> {
    let budget = settle_budget_rounds(exec.n());
    let start = exec.rounds();
    let mut settled = exec.iterations() + 1;
    while exec.rounds() - start < 2.0 * budget {
        exec.run_iteration();
        if !right(exec) {
            if exec.rounds() - start >= budget {
                return None;
            }
            settled = exec.iterations() + 1;
        }
    }
    Some(settled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_engine::counts::CountPopulation;
    use pp_engine::rng::SimRng;
    use pp_engine::sim::{run_rounds, Simulator};
    use pp_rules::FlagProtocol;

    #[test]
    fn predicate_eval_ground_truth() {
        let cmp = Predicate::Comparison { t: 1 };
        assert!(cmp.eval(5, 4));
        assert!(!cmp.eval(4, 4));
        let parity = Predicate::Mod { m: 2, r: 1 };
        assert!(parity.eval(3, 0));
        assert!(!parity.eval(4, 0));
        let combo = Predicate::And(Box::new(cmp), Box::new(Predicate::Not(Box::new(parity))));
        assert!(combo.eval(6, 4));
        assert!(!combo.eval(5, 4));
    }

    /// Runs a raw slow-blackbox ruleset for a fixed (generously
    /// polynomial) duration and returns the unanimous output, if unanimous.
    fn run_slow(
        vars: VarSet,
        ruleset: Ruleset,
        out: pp_rules::Var,
        groups: &[(Vec<pp_rules::Var>, u64)],
        seed: u64,
    ) -> Option<bool> {
        let protocol = FlagProtocol::new(vars, ruleset, "slow");
        let mut counts = vec![0u64; protocol.vars().num_states()];
        let mut n = 0u64;
        for (on, c) in groups {
            let state = on.iter().fold(0u32, |acc, v| v.assign(acc, true));
            counts[state as usize] += c;
            n += c;
        }
        let mut pop = CountPopulation::from_counts(&protocol, &counts);
        let mut rng = SimRng::seed_from(seed);
        run_rounds(&mut pop, 30_000.0, &mut rng);
        let on: u64 = pop
            .counts()
            .iter()
            .enumerate()
            .filter(|&(st, &c)| c > 0 && out.is_set(st as u32))
            .map(|(_, &c)| c)
            .sum();
        if on == 0 {
            Some(false)
        } else if on == n {
            Some(true)
        } else {
            None
        }
    }

    #[test]
    fn slow_threshold_decides_comparison() {
        for (na, nb, expect) in [(10u64, 7u64, true), (7, 10, false), (8, 8, false)] {
            let mut vars = VarSet::new();
            let (rs, out) = slow_threshold_ruleset(&mut vars, "T", 1);
            let ga = slow_threshold_init(&vars, "T", true, false, 1);
            let gb = slow_threshold_init(&vars, "T", false, true, 1);
            let gblank = slow_threshold_init(&vars, "T", false, false, 1);
            let got = run_slow(
                vars,
                rs,
                out,
                &[(ga, na), (gb, nb), (gblank, 5)],
                42 + na + nb,
            );
            assert_eq!(got, Some(expect), "#A={na} #B={nb}");
        }
    }

    #[test]
    fn slow_threshold_t_zero_accepts_ties() {
        let mut vars = VarSet::new();
        let (rs, out) = slow_threshold_ruleset(&mut vars, "T", 0);
        let ga = slow_threshold_init(&vars, "T", true, false, 0);
        let gb = slow_threshold_init(&vars, "T", false, true, 0);
        let got = run_slow(vars, rs, out, &[(ga, 6), (gb, 6)], 9);
        assert_eq!(got, Some(true), "#A = #B satisfies ≥ 0");
    }

    #[test]
    fn slow_mod_counts_residues() {
        for m in 2..=4u32 {
            for na in 0..6u64 {
                let r = 1 % m;
                let mut vars = VarSet::new();
                let (rs, out) = slow_mod_ruleset(&mut vars, "M", m, r);
                let ga = slow_mod_init(&vars, "M", true, r);
                let gblank = slow_mod_init(&vars, "M", false, r);
                let got = run_slow(
                    vars,
                    rs,
                    out,
                    &[(ga, na), (gblank, 12 - na)],
                    100 + u64::from(m) * 10 + na,
                );
                let expect = na % u64::from(m) == u64::from(r);
                assert_eq!(got, Some(expect), "m={m} #A={na}");
            }
        }
    }

    #[test]
    fn parity_exact_program_converges() {
        for (na, expect) in [(7u64, true), (8, false)] {
            let p = parity_exact(1);
            let a = p.vars.get("A").unwrap();
            let out = p.vars.get("P").unwrap();
            let mut exec = Executor::new(&p, &[(vec![a], na), (vec![], 40 - na)], na);
            let done = run_settled(&mut exec, |e| {
                let c = e.count_where(&Guard::var(out));
                (c == e.n()) == expect && (c == 0) != expect
            });
            assert!(done.is_some(), "parity #A={na} settled");
        }
    }

    #[test]
    fn mod_exact_counts_mod_three() {
        for (na, expect) in [(6u64, false), (7, true), (10, true)] {
            let p = mod_exact(3, 1);
            let a = p.vars.get("A").unwrap();
            let out = p.vars.get("P").unwrap();
            let mut exec = Executor::new(&p, &[(vec![a], na), (vec![], 36 - na)], na + 50);
            let done = run_settled(&mut exec, |e| {
                let c = e.count_where(&Guard::var(out));
                (c == e.n()) == expect && (c == 0) != expect
            });
            assert!(done.is_some(), "mod-3 #A={na} settled");
        }
    }

    #[test]
    fn combined_predicate_matches_ground_truth() {
        // Π = [#A − #B ≥ 1] ∧ [#A odd].
        let pred = Predicate::And(
            Box::new(Predicate::Comparison { t: 1 }),
            Box::new(Predicate::Mod { m: 2, r: 1 }),
        );
        for (na, nb) in [(9u64, 4u64), (8, 4), (4, 9), (5, 5)] {
            let truth = pred.eval(na, nb);
            let p = comparison_and_parity_exact(1);
            let a = p.vars.get("A").unwrap();
            let b = p.vars.get("B").unwrap();
            let out = p.vars.get("P").unwrap();
            let mut exec = Executor::new(
                &p,
                &[(vec![a], na), (vec![b], nb), (vec![], 24 - na - nb)],
                na * 17 + nb,
            );
            // Eventually-correct: burn in well past blackbox leader
            // convergence, then require the pinned truth.
            for _ in 0..400 {
                exec.run_iteration();
            }
            for _ in 0..5 {
                exec.run_iteration();
                let c = exec.count_where(&Guard::var(out));
                assert_eq!(
                    c == exec.n(),
                    truth,
                    "combo #A={na} #B={nb} pinned to truth"
                );
                assert_eq!(c == 0, !truth);
            }
        }
    }

    #[test]
    fn semilinear_exact_fast_path_answers_quickly() {
        let p = semilinear_comparison_exact(2);
        let a = p.vars.get("A").unwrap();
        let b = p.vars.get("B").unwrap();
        let out = p.vars.get("P").unwrap();
        let mut exec = Executor::new(&p, &[(vec![a], 60), (vec![b], 30), (vec![], 30)], 3);
        let done = exec.run_until(30, |e| e.count_where(&Guard::var(out)) == e.n());
        assert!(done.is_some(), "fast path sets P within a few iterations");
    }

    #[test]
    fn semilinear_exact_negative_answer() {
        let p = semilinear_comparison_exact(2);
        let a = p.vars.get("A").unwrap();
        let b = p.vars.get("B").unwrap();
        let out = p.vars.get("P").unwrap();
        let mut exec = Executor::new(&p, &[(vec![a], 30), (vec![b], 60), (vec![], 30)], 4);
        for _ in 0..12 {
            exec.run_iteration();
        }
        assert_eq!(exec.count_where(&Guard::var(out)), 0, "P stays off");
    }

    #[test]
    fn semilinear_exact_slow_blackbox_vetoes_wrong_fast_answers() {
        // Force the fast path to be wrong by injecting if-exists failures;
        // after the slow blackbox converges, the arbitration must prevent
        // the wrong answer from sticking.
        use pp_lang::interp::ExecOptions;
        let p = semilinear_comparison_exact(2);
        let a = p.vars.get("A").unwrap();
        let b = p.vars.get("B").unwrap();
        let out = p.vars.get("P").unwrap();
        let opts = ExecOptions {
            exists_failure: 0.3,
            ..ExecOptions::default()
        };
        // Truth: #A − #B = 20 ≥ 1 → P should eventually be on.
        let mut exec =
            Executor::with_options(&p, &[(vec![a], 40), (vec![b], 20), (vec![], 10)], 5, opts);
        for _ in 0..80 {
            exec.run_iteration();
        }
        // The slow blackbox (exact) has long converged at n = 70. Once its
        // output is unanimous, "exists ¬TO" is false, so a *correctly
        // evaluated* arbitration can never set P := off again.
        let slow_out = p.vars.get("TO").unwrap();
        let unanimous = exec.count_where(&Guard::var(slow_out)) == exec.n();
        assert!(unanimous, "slow blackbox reached unanimity");
        // Stop fault injection and verify the pinned answer.
        exec.set_options(ExecOptions::default());
        exec.run_iteration();
        assert_eq!(
            exec.count_where(&Guard::var(out)),
            exec.n(),
            "arbitration pins the correct answer"
        );
        for _ in 0..5 {
            exec.run_iteration();
            assert_eq!(exec.count_where(&Guard::var(out)), exec.n());
        }
    }
}
