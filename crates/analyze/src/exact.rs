//! Exact small-`n` configuration-graph checking.
//!
//! For a fixed tiny population (`n ≤ 8`), the set of configurations —
//! multisets of packed agent states — is small enough to explore
//! exhaustively. This module builds the full reachable configuration graph
//! under a ruleset (every ordered agent pair × every rule, all treated as
//! possible since every rule has positive probability) and decides
//! *stabilization* exactly:
//!
//! Under uniform random scheduling the execution is a finite Markov chain,
//! so with probability 1 it ends up in (and then never leaves) a bottom
//! strongly connected component of the reachable graph. The protocol
//! stabilizes to a predicate `P` from the given initial configuration if
//! and only if **every** configuration of **every** bottom SCC satisfies
//! `P`. That classification is exact for the explored `n` — no sampling,
//! no bounds — but says nothing about larger populations: a protocol can
//! be correct for all `n ≤ 8` and wrong for `n = 9`. The checker is a
//! verifier for claimed behavior at small sizes, not a proof.
//!
//! Silence is classified the same way: a configuration is *silent* when no
//! rule is effective on any ordered pair; a bottom SCC is silent iff it is
//! a single silent configuration.
//!
//! [`transient_counts`] answers the quantitative question for an engine
//! [`Protocol`]: the exact law of the count vector after `t` interactions,
//! by powering the configuration chain built from the protocol's outcome
//! tables. It is the oracle the simulator's batch samplers are tested
//! against.

use crate::reach::strongly_connected_components;
use pp_engine::protocol::Protocol;
use pp_rules::Ruleset;
use std::collections::{BTreeMap, HashMap};

/// Maximum population size the checker accepts.
pub const MAX_EXACT_N: usize = 8;

/// The exact verdict for one initial configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StabilizationReport {
    /// Number of distinct reachable configurations.
    pub configs_explored: usize,
    /// Number of bottom strongly connected components.
    pub bottom_components: usize,
    /// How many bottom components are a single silent configuration.
    pub silent_bottoms: usize,
    /// A configuration (sorted agent states) inside a bottom component
    /// that violates the predicate, when stabilization fails.
    pub failing_example: Option<Vec<u32>>,
}

impl StabilizationReport {
    /// Whether the protocol stabilizes to the predicate from the explored
    /// initial configuration.
    #[must_use]
    pub fn stabilizes(&self) -> bool {
        self.failing_example.is_none()
    }

    /// Whether every execution additionally becomes silent.
    #[must_use]
    pub fn silences(&self) -> bool {
        self.silent_bottoms == self.bottom_components
    }
}

/// Explores the configuration graph from `initial` (agent states, `n =
/// initial.len()`) and checks that every bottom SCC satisfies `predicate`
/// on all its configurations.
///
/// # Panics
///
/// Panics when `initial` is empty or larger than [`MAX_EXACT_N`].
#[must_use]
pub fn check_stabilization(
    ruleset: &Ruleset,
    initial: &[u32],
    predicate: impl Fn(&[u32]) -> bool,
) -> StabilizationReport {
    assert!(
        !initial.is_empty() && initial.len() <= MAX_EXACT_N,
        "exact checker handles 1 ≤ n ≤ {MAX_EXACT_N} agents, got {}",
        initial.len()
    );
    let mut start = initial.to_vec();
    start.sort_unstable();

    // BFS over configurations, building the transition graph.
    let mut ids: HashMap<Vec<u32>, usize> = HashMap::new();
    let mut configs: Vec<Vec<u32>> = Vec::new();
    let mut edges: Vec<Vec<usize>> = Vec::new();
    ids.insert(start.clone(), 0);
    configs.push(start);
    edges.push(Vec::new());
    let mut frontier = vec![0usize];
    while let Some(id) = frontier.pop() {
        let config = configs[id].clone();
        let mut successors = Vec::new();
        for i in 0..config.len() {
            for j in 0..config.len() {
                if i == j {
                    continue;
                }
                for rule in ruleset.rules() {
                    let (a, b) = (config[i], config[j]);
                    if !rule.matches(a, b) {
                        continue;
                    }
                    let (a2, b2) = rule.apply(a, b);
                    if (a2, b2) == (a, b) {
                        continue;
                    }
                    let mut next = config.clone();
                    next[i] = a2;
                    next[j] = b2;
                    next.sort_unstable();
                    successors.push(next);
                }
            }
        }
        successors.sort();
        successors.dedup();
        for next in successors {
            let next_id = *ids.entry(next.clone()).or_insert_with(|| {
                configs.push(next);
                edges.push(Vec::new());
                frontier.push(configs.len() - 1);
                configs.len() - 1
            });
            if next_id != id {
                edges[id].push(next_id);
            }
        }
    }

    // Bottom SCCs: components with no edge to a different component.
    let components = strongly_connected_components(&edges);
    let mut component_of = vec![0usize; configs.len()];
    for (c, members) in components.iter().enumerate() {
        for &v in members {
            component_of[v] = c;
        }
    }
    let mut bottom_components = 0usize;
    let mut silent_bottoms = 0usize;
    let mut failing_example = None;
    for (c, members) in components.iter().enumerate() {
        let is_bottom = members
            .iter()
            .all(|&v| edges[v].iter().all(|&w| component_of[w] == c));
        if !is_bottom {
            continue;
        }
        bottom_components += 1;
        let silent = members.len() == 1 && edges[members[0]].is_empty();
        if silent {
            silent_bottoms += 1;
        }
        if failing_example.is_none() {
            if let Some(&bad) = members.iter().find(|&&v| !predicate(&configs[v])) {
                failing_example = Some(configs[bad].clone());
            }
        }
    }

    StabilizationReport {
        configs_explored: configs.len(),
        bottom_components,
        silent_bottoms,
        failing_example,
    }
}

/// The exact distribution of the count vector after `t` interactions of
/// the uniform scheduler on `protocol`, from `initial` agents per state:
/// `(counts, probability)` pairs over every configuration of positive
/// probability, sorted by counts.
///
/// The chain's states are count vectors; from `c`, the ordered state pair
/// `(a, b)` is picked with probability `c_a(c_b − [a = b])/(n(n−1))` and
/// moves to each outcome of [`Protocol::outcome_table`] with its
/// probability (mass the table leaves out is the identity, as in the
/// engine). Rows are built for the configurations the distribution
/// reaches, and the distribution is pushed through them `t` times.
///
/// # Panics
///
/// Panics when `initial` holds fewer than 2 or more than [`MAX_EXACT_N`]
/// agents, has more entries than the protocol has states, or a reactive
/// pair the chain reaches has no outcome table.
#[must_use]
pub fn transient_counts(protocol: &dyn Protocol, initial: &[u64], t: u64) -> Vec<(Vec<u64>, f64)> {
    let n: u64 = initial.iter().sum();
    assert!(
        (2..=MAX_EXACT_N as u64).contains(&n),
        "exact transient handles 2 ≤ n ≤ {MAX_EXACT_N} agents, got {n}"
    );
    let k = protocol.num_states();
    assert!(initial.len() <= k, "more initial counts than states");
    let mut start = vec![0u64; k];
    start[..initial.len()].copy_from_slice(initial);

    let mut chain = ConfigChain::default();
    // Probabilities by configuration id, pushed through the rows in id
    // order so the sums round the same way on every run.
    let mut dist = vec![0.0f64; 1];
    dist[chain.id(&start)] = 1.0;
    for _ in 0..t {
        let mut next = vec![0.0f64; chain.configs.len()];
        for (id, &p) in dist.iter().enumerate() {
            if p == 0.0 {
                continue;
            }
            for &(to, q) in chain.row(protocol, id, n) {
                if to >= next.len() {
                    next.resize(to + 1, 0.0);
                }
                next[to] += p * q;
            }
        }
        dist = next;
    }
    let mut out: Vec<(Vec<u64>, f64)> = dist
        .into_iter()
        .enumerate()
        .filter(|&(_, p)| p > 0.0)
        .map(|(id, p)| (chain.configs[id].clone(), p))
        .collect();
    out.sort_by(|x, y| x.0.cmp(&y.0));
    out
}

/// The count-vector chain, indexed as configurations are reached; `rows`
/// holds each built configuration's transition probabilities.
#[derive(Default)]
struct ConfigChain {
    ids: HashMap<Vec<u64>, usize>,
    configs: Vec<Vec<u64>>,
    rows: Vec<Option<Vec<(usize, f64)>>>,
}

impl ConfigChain {
    fn id(&mut self, config: &[u64]) -> usize {
        if let Some(&id) = self.ids.get(config) {
            return id;
        }
        self.ids.insert(config.to_vec(), self.configs.len());
        self.configs.push(config.to_vec());
        self.rows.push(None);
        self.configs.len() - 1
    }

    /// The transition row of configuration `id`, built on first use.
    fn row(&mut self, protocol: &dyn Protocol, id: usize, n: u64) -> &[(usize, f64)] {
        if self.rows[id].is_none() {
            let config = self.configs[id].clone();
            let pairs = (n * (n - 1)) as f64;
            let mut row: BTreeMap<usize, f64> = BTreeMap::new();
            for (a, &ca) in config.iter().enumerate() {
                for (b, &cb) in config.iter().enumerate() {
                    let w = ca * cb.saturating_sub(u64::from(a == b));
                    if w == 0 {
                        continue;
                    }
                    let pick = w as f64 / pairs;
                    let outcomes = if protocol.is_reactive(a, b) {
                        protocol.outcome_table(a, b).unwrap_or_else(|| {
                            panic!("reactive pair ({a}, {b}) has no outcome table")
                        })
                    } else {
                        Vec::new()
                    };
                    let mut identity = 1.0f64;
                    for ((a2, b2), q) in outcomes {
                        identity -= q;
                        let mut next = config.clone();
                        next[a] -= 1;
                        next[b] -= 1;
                        next[a2] += 1;
                        next[b2] += 1;
                        *row.entry(self.id(&next)).or_insert(0.0) += pick * q;
                    }
                    if identity > 0.0 {
                        *row.entry(id).or_insert(0.0) += pick * identity;
                    }
                }
            }
            self.rows[id] = Some(row.into_iter().collect());
        }
        self.rows[id].as_deref().expect("row built above")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_rules::parse::parse_ruleset;
    use pp_rules::VarSet;

    fn setup(text: &str) -> (VarSet, Ruleset) {
        let mut vars = VarSet::new();
        let rs = parse_ruleset(text, &mut vars).unwrap();
        (vars, rs)
    }

    /// One interaction of the epidemic from one infected agent among
    /// four: the infected agent is in the picked pair with probability ½.
    #[test]
    fn transient_counts_of_one_epidemic_step() {
        use pp_engine::protocol::TableProtocol;
        let p = TableProtocol::new(2, "epidemic")
            .rule(1, 0, 1, 1)
            .rule(0, 1, 1, 1);
        let dist = transient_counts(&p, &[3, 1], 1);
        assert_eq!(dist, vec![(vec![2, 2], 0.5), (vec![3, 1], 0.5)]);
        let total: f64 = transient_counts(&p, &[3, 1], 5).iter().map(|x| x.1).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(transient_counts(&p, &[3, 1], 0), vec![(vec![3, 1], 1.0)]);
    }

    #[test]
    fn fratricide_stabilizes_to_one_leader() {
        let (vars, rs) = setup("(L) + (L) -> (L) + (!L)");
        let l = vars.get("L").unwrap().mask();
        for n in 2..=6 {
            let initial = vec![l; n];
            let report = check_stabilization(&rs, &initial, |config| {
                config.iter().filter(|&&s| s & l != 0).count() == 1
            });
            assert!(report.stabilizes(), "n={n}: {report:?}");
            assert!(report.silences(), "n={n}: fratricide terminates");
        }
    }

    #[test]
    fn epidemic_stabilizes_to_all_infected() {
        let (vars, rs) = setup("(I) + (!I) -> (I) + (I)");
        let i = vars.get("I").unwrap().mask();
        let initial = vec![i, 0, 0, 0, 0];
        let report =
            check_stabilization(&rs, &initial, |config| config.iter().all(|&s| s & i != 0));
        assert!(report.stabilizes(), "{report:?}");
        assert!(report.silences());
        // Configurations: 1..=5 infected agents.
        assert_eq!(report.configs_explored, 5);
    }

    #[test]
    fn cancellation_preserves_majority_sign() {
        // The slow majority blackbox rule: opposing tokens annihilate.
        let (vars, rs) = setup("(A) + (B) -> (!A) + (!B)");
        let a = vars.get("A").unwrap().mask();
        let b = vars.get("B").unwrap().mask();
        // 3 A's vs 2 B's: every bottom config must keep only A tokens.
        let initial = vec![a, a, a, b, b];
        let report = check_stabilization(&rs, &initial, |config| {
            let na = config.iter().filter(|&&s| s & a != 0).count();
            let nb = config.iter().filter(|&&s| s & b != 0).count();
            na == 1 && nb == 0
        });
        assert!(report.stabilizes(), "{report:?}");
    }

    #[test]
    fn broken_protocol_reports_failing_config() {
        // "Leader election" that can also kill the last leader via a
        // non-leader initiator: the all-dead configuration is absorbing
        // and violates the predicate.
        let (vars, rs) = setup("(L) + (L) -> (L) + (!L)\n(!L) + (L) -> (!L) + (!L)");
        let l = vars.get("L").unwrap().mask();
        let report = check_stabilization(&rs, &[l, l, l], |config| {
            config.iter().filter(|&&s| s & l != 0).count() == 1
        });
        assert!(!report.stabilizes(), "{report:?}");
        let bad = report.failing_example.unwrap();
        assert!(bad.iter().all(|&s| s & l == 0), "all leaders dead: {bad:?}");
    }

    #[test]
    fn oscillating_rules_are_non_silent_but_can_stabilize() {
        // X flips forever on agents holding T; the T-count stays fixed, so
        // a predicate on T stabilizes while the chain never silences.
        let (vars, rs) = setup("(T & X) + (.) -> (!X) + (.)\n(T & !X) + (.) -> (X) + (.)");
        let t = vars.get("T").unwrap().mask();
        let report = check_stabilization(&rs, &[t, 0], |config| {
            config.iter().filter(|&&s| s & t != 0).count() == 1
        });
        assert!(report.stabilizes(), "{report:?}");
        assert!(!report.silences(), "{report:?}");
    }

    #[test]
    #[should_panic(expected = "exact checker")]
    fn oversized_population_rejected() {
        let (_, rs) = setup("(L) + (L) -> (L) + (!L)");
        let _ = check_stabilization(&rs, &[0; 9], |_| true);
    }
}
