//! The good-iteration executor: runs framework programs under the
//! synchronization semantics that Theorem 2.4 guarantees (Definitions
//! 2.2–2.3), with idealized clocks.
//!
//! The paper separates two concerns: (a) the protocol-level analysis of
//! programs *assuming* good iterations (Sections 3 and 6), and (b) the
//! clock hierarchy that realizes good iterations w.h.p. (Section 5). This
//! executor implements exactly the good-iteration semantics, so protocol
//! behavior (Theorems 3.1, 3.2, 6.1–6.4) can be measured in isolation from
//! clock dynamics:
//!
//! * `execute for ≥ c ln n rounds` runs the ruleset — composed with all raw
//!   threads — under the exact fair scheduler for `c ln n` rounds;
//! * assignments and `if exists` evaluations reach their expected outcome
//!   (`if exists` with an optional failure-injection knob for ablations)
//!   and are charged the parallel time their compiled form costs (two
//!   `c ln n` loops each at c = 1, per Section 4), during which raw threads
//!   keep running;
//! * `repeat ≥ c ln n times` performs exactly `⌈c ln n⌉` passes.
//!
//! Time accounting therefore reproduces the paper's round counts:
//! `O((log n)^{c+1})` rounds per iteration for loop depth `c`.
//!
//! One walk serves both program executors: [`ProgramExecutor`] is generic
//! over the [`StateSpace`] it runs on. [`Executor`] walks the packed
//! variable masks ([`Packed`]); `enumerate::EnumExecutor` walks the dense
//! ids of the enumerated live states. The walk — iterations, blocks,
//! assignments, `if exists`, loops, overhead charging and the round count —
//! is written once, so both executors keep identical semantics and time
//! accounting by construction.
//!
//! The configuration is the list of occupied states with their counts,
//! ascending by state ([`Executor::occupied`]): a program over `v` flags
//! has `2^v` nominal states but a run occupies few of them, so set-up,
//! assignments, `if exists` and every `execute` site cost `O(occupied)`.
//! Each site ([`Site`]) keeps one [`SparseCountPopulation`] and runs it on
//! those pairs ([`SparseCountPopulation::run_on`]), or, where its
//! composition splits into independent components whose product outgrows
//! them, one per component; only [`ProgramExecutor::counts`] builds a
//! vector over every state, on request.

use std::collections::HashMap;
use std::sync::OnceLock;

use crate::ast::{AssignValue, Instr, Program, Thread};
use pp_engine::counts::SparseCountPopulation;
use pp_engine::prof::{self, Section};
use pp_engine::protocol::{Protocol, RuleMasks};
use pp_engine::rng::SimRng;
use pp_engine::sim::round_steps;
use pp_rules::{FlagProtocol, Guard, Rule, Ruleset, Var, VarSet, MAX_VARS};

/// Site key of the raw-only run that charges assignments and conditions
/// (no ruleset lives at address 0).
const OVERHEAD_SITE: usize = 0;

/// Fault-injection options for the executor.
#[derive(Debug, Clone, Default)]
pub struct ExecOptions {
    /// Probability that an `if exists` evaluation returns the wrong branch
    /// (ablation knob; 0 = exact, the good-iteration default).
    pub exists_failure: f64,
}

/// The states a [`ProgramExecutor`] walks and the scheduler sites it runs
/// on them. A state is an index into [`ProgramExecutor::counts`]; states
/// ascend with their packed variable masks, so a walk over ascending
/// states visits the masks in ascending order.
pub trait StateSpace {
    /// Number of states.
    fn num_states(&self) -> usize;

    /// The packed variable mask of `state`.
    fn packed(&self, state: usize) -> u32;

    /// The state of the packed variable mask `packed`.
    fn state(&self, packed: u32) -> usize;

    /// Runs exactly `steps` interactions of `ruleset` composed with the
    /// program's raw threads — the raw threads alone for `None`, the
    /// overhead site — under the fair scheduler on `config`, in place (see
    /// [`SparseCountPopulation::run_on`]). A site with no rule to run
    /// leaves `config` as it is.
    fn schedule(
        &mut self,
        ruleset: Option<&Ruleset>,
        config: &mut Vec<(usize, u64)>,
        steps: u64,
        rng: &mut SimRng,
    );
}

/// Executes a [`Program`] over a population of `n` agents under
/// good-iteration semantics, on the state space `S`.
pub struct ProgramExecutor<'p, S> {
    program: &'p Program,
    n: u64,
    /// The configuration: each occupied state with its nonzero count,
    /// ascending by state.
    config: Vec<(usize, u64)>,
    /// The dense copy [`ProgramExecutor::counts`] builds; cleared whenever
    /// the configuration changes.
    dense: OnceLock<Vec<u64>>,
    rng: SimRng,
    rounds: f64,
    iterations: u64,
    opts: ExecOptions,
    ln_n: f64,
    pub(crate) space: S,
}

/// The interpreter's state space: every packed variable mask of the
/// program is a state (`2^vars` of them).
pub struct Packed<'p> {
    vars: &'p VarSet,
    /// The raw threads composed, if the program has any.
    raw: Option<Ruleset>,
    /// Per-site runners, built at the site's first run and kept across its
    /// runs: each `execute` site (keyed by its ruleset's address inside the
    /// borrowed program, stable for the executor's life) composed with the
    /// raw threads, and the raw threads alone under [`OVERHEAD_SITE`].
    /// `None` where the composition has no rule to run.
    sites: HashMap<usize, Option<Site>>,
}

impl StateSpace for Packed<'_> {
    fn num_states(&self) -> usize {
        self.vars.num_states()
    }

    fn packed(&self, state: usize) -> u32 {
        state as u32
    }

    fn state(&self, packed: u32) -> usize {
        packed as usize
    }

    fn schedule(
        &mut self,
        ruleset: Option<&Ruleset>,
        config: &mut Vec<(usize, u64)>,
        steps: u64,
        rng: &mut SimRng,
    ) {
        let key = ruleset.map_or(OVERHEAD_SITE, |rs| std::ptr::from_ref(rs) as usize);
        let (vars, raw) = (self.vars, &self.raw);
        let site = self.sites.entry(key).or_insert_with(|| {
            let combined = match (ruleset, raw) {
                (Some(rs), Some(raw)) => Ruleset::compose([rs, raw]),
                (Some(rs), None) => rs.clone(),
                (None, Some(raw)) => raw.clone(),
                (None, None) => return None,
            };
            (!combined.is_empty()).then(|| Site::new(vars, combined, config))
        });
        if let Some(site) = site {
            site.run(config, steps, rng);
        }
    }
}

/// Bit offset of the origin tag in a component state ([`Tagged`]): packed
/// masks use the bits below it.
const ORIGIN: usize = MAX_VARS;

/// The current packed mask of a component state.
const CURRENT: usize = (1 << ORIGIN) - 1;

const _: () = assert!(
    2 * ORIGIN < usize::BITS as usize,
    "a component state holds two masks"
);

/// One scheduler site: a composed ruleset under the fair scheduler, run on
/// the executor's configuration (DESIGN.md §9, "Factored sites").
///
/// A composition splits into *components*: two rules are joined when one
/// writes a flag the other reads or writes, so flags no rule writes
/// (inputs) may be read by several components. A rule that writes nothing
/// is a no-op wherever the scheduler picks it and belongs to none. When
/// two or more components are live and the dispatch rule says so, the
/// site runs one [`SparseCountPopulation`] per component on (origin,
/// current) projections of that component's flags instead of one
/// population over the components' product:
///
/// * the `steps` interactions are split by a multinomial over the
///   components' rule slots in the composition (replicas included; the
///   no-op slots keep their share), and each component runs exactly its
///   share — the slot a step draws is independent of its pair, and a
///   component's steps touch only its own flags;
/// * each agent's component flags end where its component run took an
///   agent of the same origin projection: agents that start with the same
///   projection are exchangeable in that run, so the joint configuration
///   is rebuilt by relabelling each component's flags within its origin
///   classes through multivariate-hypergeometric splits.
///
/// That is the composed site's law exactly, at any `n`;
/// `tests/factored_sites.rs` checks it against the exact transient law.
pub struct Site {
    /// The composed ruleset as one protocol over whole packed masks.
    composed: FlagProtocol,
    /// Its population, built at the site's first composed run.
    whole: Option<SparseCountPopulation<FlagProtocol>>,
    /// The live components, in order of their first rule slot; empty when
    /// there are fewer than two.
    parts: Vec<Part>,
    /// Whether [`Site::run`] goes through the components, as
    /// [`Site::factors`] decided at the site's first run.
    factored: bool,
}

/// A component of a site's composition and its population.
struct Part {
    /// Flags its rules read or write.
    flags: usize,
    /// Flags its rules write.
    writes: usize,
    /// Its rule slots in the composition, replicas included.
    slots: u64,
    protocol: Tagged,
    /// Built at the site's first factored run.
    pop: Option<SparseCountPopulation<Tagged>>,
}

impl Part {
    /// The component state of an agent in packed state `s` at the start of
    /// a run: its current projection, tagged with the written flags as its
    /// origin.
    fn tag(&self, s: usize) -> usize {
        (s & self.flags) | (s & self.writes) << ORIGIN
    }
}

impl Site {
    /// The runner of the composed ruleset `combined` over `vars`, built at
    /// its first run, on `config`, which decides its dispatch.
    ///
    /// # Panics
    ///
    /// Panics if `combined` is empty.
    #[must_use]
    pub fn new(vars: &VarSet, combined: Ruleset, config: &[(usize, u64)]) -> Self {
        let parts = components(vars, &combined);
        let mut site = Self {
            composed: FlagProtocol::new(vars.clone(), combined, "exec"),
            whole: None,
            parts: if parts.len() >= 2 { parts } else { Vec::new() },
            factored: false,
        };
        site.factored = site.factors(config);
        site
    }

    /// Number of live components of the composition, 0 when it has fewer
    /// than two (and so always runs composed).
    #[must_use]
    pub fn components(&self) -> usize {
        self.parts.len()
    }

    /// The dispatch rule (DESIGN.md §9): whether the site runs factored,
    /// from its composition and the configuration `config` of its first
    /// run. A run moves only written flags, so the composed population
    /// ranges over `k_fixed · Π_c 2^{w_c}` states, `k_fixed` the values the
    /// unwritten flags take in `config` and `w_c` the flags component `c`
    /// writes; component `c` ranges over `u_c · 4^{w_c}` (origin, current)
    /// pairs, `u_c` the values of the unwritten flags it reads. The site
    /// factors when `Σ_c u_c · 4^{w_c} < k_fixed · Π_c 2^{w_c}`. Two
    /// components with at most two fixed values never do, since
    /// `4^a + 4^b ≥ 2 · 2^{a+b}`: factoring pays where the components' product
    /// outgrows their pairs.
    fn factors(&self, config: &[(usize, u64)]) -> bool {
        if self.parts.is_empty() {
            return false;
        }
        let values = |mask: usize| {
            let mut v: Vec<usize> = config.iter().map(|&(s, _)| s & mask).collect();
            v.sort_unstable();
            v.dedup();
            v.len() as u128
        };
        let written = self.parts.iter().fold(0, |m, p| m | p.writes);
        let pairs: u128 = self
            .parts
            .iter()
            .map(|p| values(p.flags & !p.writes) << (2 * p.writes.count_ones()))
            .sum();
        pairs < values(CURRENT & !written) << written.count_ones()
    }

    /// Runs exactly `steps` interactions of the site on `config`, in place:
    /// composed or factored, as [`Site::factors`] decided.
    pub(crate) fn run(&mut self, config: &mut Vec<(usize, u64)>, steps: u64, rng: &mut SimRng) {
        let _site_span = prof::section(Section::ProgramSite);
        if self.factored {
            self.run_factored(config, steps, rng);
        } else {
            self.run_composed(config, steps, rng);
        }
    }

    /// Runs the composition as one population over whole packed masks.
    fn run_composed(&mut self, config: &mut Vec<(usize, u64)>, steps: u64, rng: &mut SimRng) {
        let composed = &self.composed;
        self.whole
            .get_or_insert_with(|| SparseCountPopulation::from_pairs(composed.clone(), config))
            .run_on(config, steps, rng);
    }

    /// Runs the composition as one population per component, then
    /// relabels the joint configuration.
    ///
    /// # Panics
    ///
    /// Panics if the composition has fewer than two live components.
    pub fn run_factored(&mut self, config: &mut Vec<(usize, u64)>, steps: u64, rng: &mut SimRng) {
        assert!(!self.parts.is_empty(), "a single component runs composed");
        let mut left = steps;
        let mut slots_left = self.composed.ruleset().len() as u64;
        let shares: Vec<u64> = self
            .parts
            .iter()
            .map(|part| {
                let share = if part.slots == slots_left {
                    left
                } else {
                    rng.binomial(left, part.slots as f64 / slots_left as f64)
                };
                left -= share;
                slots_left -= part.slots;
                share
            })
            .collect();
        let mut ran = Vec::new();
        for (part, share) in self.parts.iter_mut().zip(shares) {
            if share == 0 {
                continue;
            }
            ran.clear();
            ran.extend(config.iter().map(|&(s, c)| (part.tag(s), c)));
            merge(&mut ran);
            let protocol = &part.protocol;
            part.pop
                .get_or_insert_with(|| SparseCountPopulation::from_pairs(protocol.clone(), &ran))
                .run_on(&mut ran, share, rng);
            relabel(config, part, &ran, rng);
        }
    }
}

/// Rebuilds the joint configuration `config` after `part` ran to `ran`:
/// the agents of each joint state take their component's written flags
/// from the outcomes of their origin class, in a multivariate
/// hypergeometric split of what the class still holds. Joint states are
/// visited in ascending order and each class's outcomes from the largest,
/// so most splits end at their first draw; the draws are deterministic.
fn relabel(config: &mut Vec<(usize, u64)>, part: &Part, ran: &[(usize, u64)], rng: &mut SimRng) {
    let (flags, writes) = (part.flags, part.writes);
    // (origin class, written flags now, agents), by class, then the
    // largest outcome first.
    let mut urns: Vec<(usize, usize, u64)> = ran
        .iter()
        .map(|&(t, c)| ((t & CURRENT & !writes) | t >> ORIGIN, t & writes, c))
        .collect();
    if urns.iter().all(|&(class, now, _)| class & writes == now) {
        return;
    }
    let _relabel_span = prof::section(Section::SiteRelabel);
    urns.sort_unstable_by_key(|&(class, now, c)| (class, std::cmp::Reverse(c), now));
    let mut moved = Vec::with_capacity(config.len() + urns.len());
    for &(s, count) in config.iter() {
        let class = s & flags;
        let start = urns.partition_point(|u| u.0 < class);
        let len = urns[start..].partition_point(|u| u.0 == class);
        let urn = &mut urns[start..start + len];
        let mut total: u64 = urn.iter().map(|u| u.2).sum();
        let mut draws = count;
        for outcome in urn {
            let x = if outcome.2 == total {
                draws
            } else if draws == 1 {
                u64::from(rng.below(total) < outcome.2)
            } else {
                rng.hypergeometric(total, outcome.2, draws)
            };
            total -= outcome.2;
            outcome.2 -= x;
            draws -= x;
            if x > 0 {
                moved.push(((s & !writes) | outcome.1, x));
            }
            if draws == 0 {
                break;
            }
        }
        debug_assert_eq!(draws, 0, "an origin class holds its agents");
    }
    merge(&mut moved);
    *config = moved;
}

/// The live components of the composition `rules` over `vars`, in order of
/// their first rule slot. A component's protocol lists each of its distinct
/// rules its slot count over the greatest common divisor of those counts,
/// so a uniform pick among them is one among its slots.
fn components(vars: &VarSet, rules: &Ruleset) -> Vec<Part> {
    let rules = rules.rules();
    let written: Vec<usize> = rules
        .iter()
        .map(|r| (r.update_a.set | r.update_a.clear | r.update_b.set | r.update_b.clear) as usize)
        .collect();
    let touched: Vec<usize> = rules
        .iter()
        .zip(&written)
        .map(|(r, &w)| {
            let read = r.guard_a.vars().into_iter().chain(r.guard_b.vars());
            read.fold(w, |m, v| m | v.mask() as usize)
        })
        .collect();
    let mut root: Vec<usize> = (0..rules.len()).collect();
    fn find(root: &mut [usize], mut i: usize) -> usize {
        while root[i] != i {
            root[i] = root[root[i]];
            i = root[i];
        }
        i
    }
    // A flag some rule writes joins every rule that touches it and writes
    // anything; a rule that writes nothing is a no-op and joins nothing.
    for bit in (0..MAX_VARS).map(|f| 1 << f) {
        if written.iter().all(|&w| w & bit == 0) {
            continue;
        }
        let mut joined = (0..rules.len()).filter(|&i| touched[i] & bit != 0 && written[i] != 0);
        if let Some(first) = joined.next() {
            for i in joined {
                let (a, b) = (find(&mut root, first), find(&mut root, i));
                root[b] = a;
            }
        }
    }
    let root_of: Vec<usize> = (0..rules.len()).map(|i| find(&mut root, i)).collect();
    let mut roots: Vec<usize> = Vec::new();
    for i in (0..rules.len()).filter(|&i| written[i] != 0) {
        if !roots.contains(&root_of[i]) {
            roots.push(root_of[i]);
        }
    }
    roots
        .into_iter()
        .map(|r| {
            let members: Vec<usize> = (0..rules.len())
                .filter(|&i| written[i] != 0 && root_of[i] == r)
                .collect();
            let mut distinct: Vec<(&Rule, u64)> = Vec::new();
            for &i in &members {
                match distinct.iter_mut().find(|(seen, _)| **seen == rules[i]) {
                    Some((_, m)) => *m += 1,
                    None => distinct.push((&rules[i], 1)),
                }
            }
            let g = distinct.iter().fold(0, |g, &(_, m)| gcd(g, m));
            let ruleset = distinct
                .iter()
                .flat_map(|&(rule, m)| std::iter::repeat_n(rule.clone(), (m / g) as usize))
                .collect();
            Part {
                flags: members.iter().fold(0, |m, &i| m | touched[i]),
                writes: members.iter().fold(0, |m, &i| m | written[i]),
                slots: members.len() as u64,
                protocol: Tagged(FlagProtocol::new(vars.clone(), ruleset, "exec")),
                pop: None,
            }
        })
        .collect()
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// A component's protocol on (origin, current) pairs: its rules act on the
/// current packed mask below [`ORIGIN`]; the origin's written flags ride
/// above it untouched, so agents of different origins stay apart.
#[derive(Clone)]
struct Tagged(FlagProtocol);

impl Tagged {
    fn retag((a2, b2): (usize, usize), a: usize, b: usize) -> (usize, usize) {
        (a2 | (a & !CURRENT), b2 | (b & !CURRENT))
    }
}

impl Protocol for Tagged {
    fn num_states(&self) -> usize {
        1 << (2 * ORIGIN)
    }

    fn interact(&self, a: usize, b: usize, rng: &mut SimRng) -> (usize, usize) {
        Self::retag(self.0.interact(a & CURRENT, b & CURRENT, rng), a, b)
    }

    fn is_reactive(&self, a: usize, b: usize) -> bool {
        self.0.is_reactive(a & CURRENT, b & CURRENT)
    }

    fn weight_scale(&self) -> u32 {
        self.0.weight_scale()
    }

    fn interact_slot(&self, a: usize, b: usize, slot: usize, rng: &mut SimRng) -> (usize, usize) {
        Self::retag(
            self.0.interact_slot(a & CURRENT, b & CURRENT, slot, rng),
            a,
            b,
        )
    }

    fn rule_masks(&self, state: usize) -> Option<RuleMasks> {
        self.0.rule_masks(state & CURRENT)
    }

    fn name(&self) -> &str {
        self.0.name()
    }
}

/// The good-iteration executor over the packed variable masks.
///
/// # Examples
///
/// ```
/// use pp_lang::ast::{build, Program, Thread};
/// use pp_lang::interp::Executor;
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
/// let mut exec = Executor::new(&program, &[(vec![], 100)], 42);
/// exec.run_iteration();
/// assert_eq!(exec.count_where(&Guard::var(y)), 100);
/// ```
pub type Executor<'p> = ProgramExecutor<'p, Packed<'p>>;

impl<'p> Executor<'p> {
    /// Creates an executor. `groups` lists `(input variables on, agent
    /// count)` pairs describing the initial population.
    ///
    /// # Panics
    ///
    /// Panics if the total population is smaller than 2 or an input group
    /// names a non-input variable.
    #[must_use]
    pub fn new(program: &'p Program, groups: &[(Vec<Var>, u64)], seed: u64) -> Self {
        let config = initial_config(program, groups, |packed| packed as usize);
        let raws: Vec<&Ruleset> = program.raw_threads().map(|(_, rs)| rs).collect();
        let space = Packed {
            vars: &program.vars,
            raw: (!raws.is_empty()).then(|| Ruleset::compose(raws)),
            sites: HashMap::new(),
        };
        Self::start(program, config, seed, space)
    }

    /// Replaces the executor options (e.g. to stop fault injection after a
    /// warm-up phase).
    pub fn set_options(&mut self, opts: ExecOptions) {
        self.opts = opts;
    }

    /// The configuration: each occupied state (a packed variable mask)
    /// with its nonzero count, ascending by state.
    #[must_use]
    pub fn occupied(&self) -> &[(usize, u64)] {
        &self.config
    }

    /// The scheduler sites built so far, ascending: for each, its live
    /// components ([`Site::components`]) and whether it runs factored, as
    /// the dispatch rule decided at its first run (DESIGN.md §9).
    #[must_use]
    pub fn sites(&self) -> Vec<(usize, bool)> {
        let sites = self.space.sites.values().flatten();
        let mut sites: Vec<(usize, bool)> = sites.map(|s| (s.components(), s.factored)).collect();
        sites.sort_unstable();
        sites
    }
}

/// The initial configuration of `groups` (see [`Executor::new`]), each
/// agent's packed initial state mapped through `state`.
///
/// # Panics
///
/// Panics if the total population is smaller than 2.
pub(crate) fn initial_config(
    program: &Program,
    groups: &[(Vec<Var>, u64)],
    state: impl Fn(u32) -> usize,
) -> Vec<(usize, u64)> {
    let mut config: Vec<(usize, u64)> = groups
        .iter()
        .map(|(vars_on, count)| (state(program.initial_state(vars_on)), *count))
        .collect();
    merge(&mut config);
    assert!(
        config.iter().map(|&(_, c)| c).sum::<u64>() >= 2,
        "population must have at least 2 agents"
    );
    config
}

impl<'p, S: StateSpace> ProgramExecutor<'p, S> {
    /// Starts the walk of `program` from the initial configuration
    /// `config` (from [`initial_config`]) on `space`.
    pub(crate) fn start(
        program: &'p Program,
        config: Vec<(usize, u64)>,
        seed: u64,
        space: S,
    ) -> Self {
        let n: u64 = config.iter().map(|&(_, c)| c).sum();
        Self {
            program,
            n,
            config,
            dense: OnceLock::new(),
            rng: SimRng::seed_from(seed),
            rounds: 0.0,
            iterations: 0,
            opts: ExecOptions::default(),
            ln_n: (n as f64).ln(),
            space,
        }
    }

    /// Population size.
    #[must_use]
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Parallel time consumed so far, in rounds.
    #[must_use]
    pub fn rounds(&self) -> f64 {
        self.rounds
    }

    /// Completed iterations of the outermost `repeat:` loops.
    #[must_use]
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// State counts, indexed by state: by packed variable mask (`2^vars`
    /// long) for [`Executor`], by dense live-state id for the enumerated
    /// executor. The first call after the configuration changed builds it
    /// in `O(states)`; later calls reuse it until the next iteration.
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        self.dense.get_or_init(|| {
            let mut counts = vec![0u64; self.space.num_states()];
            for &(s, c) in &self.config {
                counts[s] = c;
            }
            counts
        })
    }

    /// Number of agents satisfying a guard.
    #[must_use]
    pub fn count_where(&self, guard: &Guard) -> u64 {
        self.config
            .iter()
            .filter(|&&(s, _)| guard.eval(self.space.packed(s)))
            .map(|&(_, c)| c)
            .sum()
    }

    /// Runs one good iteration: a full pass of every structured thread's
    /// body (threads executed in declaration order), with raw threads
    /// running throughout.
    pub fn run_iteration(&mut self) {
        self.dense.take();
        let program = self.program;
        for thread in &program.threads {
            if let Thread::Structured { body, .. } = thread {
                self.exec_block(body);
            }
        }
        self.iterations += 1;
    }

    /// Runs good iterations until `stop` returns true, up to
    /// `max_iterations`. Returns the number of iterations executed when
    /// `stop` first held, or `None` on timeout.
    pub fn run_until(
        &mut self,
        max_iterations: u64,
        mut stop: impl FnMut(&Self) -> bool,
    ) -> Option<u64> {
        if stop(self) {
            return Some(self.iterations);
        }
        for _ in 0..max_iterations {
            self.run_iteration();
            if stop(self) {
                return Some(self.iterations);
            }
        }
        None
    }

    fn exec_block(&mut self, instrs: &'p [Instr]) {
        for instr in instrs {
            self.exec_instr(instr);
        }
    }

    fn exec_instr(&mut self, instr: &'p Instr) {
        match instr {
            Instr::Assign { var, value } => {
                self.exec_assign(*var, value);
                self.charge_overhead(2);
            }
            Instr::IfExists {
                cond,
                then_branch,
                else_branch,
            } => {
                let mut exists = self.count_where(cond) > 0;
                if self.opts.exists_failure > 0.0 && self.rng.chance(self.opts.exists_failure) {
                    exists = !exists;
                }
                self.charge_overhead(2);
                if exists {
                    self.exec_block(then_branch);
                } else {
                    self.exec_block(else_branch);
                }
            }
            Instr::RepeatLog { c, body } => {
                let times = (*c as f64 * self.ln_n).ceil().max(1.0) as u64;
                for _ in 0..times {
                    self.exec_block(body);
                }
            }
            Instr::Execute { c, ruleset } => {
                self.run_scheduler(Some(ruleset), *c as f64 * self.ln_n);
            }
        }
    }

    /// Applies an assignment to every agent. Visits the occupied states in
    /// ascending order, so the coin draws come in the order a scan over all
    /// states would make them. `O(occupied)`.
    fn exec_assign(&mut self, var: Var, value: &AssignValue) {
        let space = &self.space;
        let mut moved: Vec<(usize, u64)> = Vec::with_capacity(2 * self.config.len());
        for &(s, c) in &self.config {
            let packed = space.packed(s);
            match value {
                AssignValue::Formula(g) => {
                    moved.push((space.state(var.assign(packed, g.eval(packed))), c));
                }
                AssignValue::RandomBit => {
                    let ones = self.rng.binomial(c, 0.5);
                    moved.push((space.state(var.assign(packed, true)), ones));
                    moved.push((space.state(var.assign(packed, false)), c - ones));
                }
            }
        }
        merge(&mut moved);
        self.config = moved;
    }

    /// Charges `loops · ln n` rounds of parallel time (Section 4's lowered
    /// assignments and conditions at c = 1), during which raw threads
    /// continue to run.
    fn charge_overhead(&mut self, loops: u32) {
        self.run_scheduler(None, f64::from(loops) * self.ln_n);
    }

    /// Runs `ruleset` (if any) composed with the raw threads under the fair
    /// scheduler for `duration` rounds: `⌈duration · n⌉` interactions.
    fn run_scheduler(&mut self, ruleset: Option<&Ruleset>, duration: f64) {
        self.rounds += duration;
        let steps = round_steps(duration, self.n);
        self.space
            .schedule(ruleset, &mut self.config, steps, &mut self.rng);
    }
}

/// Sorts `pairs` by state, merges the pairs of one state into one and
/// drops zero counts.
fn merge(pairs: &mut Vec<(usize, u64)>) {
    pairs.sort_unstable_by_key(|&(s, _)| s);
    pairs.dedup_by(|next, kept| {
        let same = next.0 == kept.0;
        if same {
            kept.1 += next.1;
        }
        same
    });
    pairs.retain(|&(_, c)| c > 0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::build::*;
    use pp_rules::parse::parse_ruleset;

    fn program_with(vars: VarSet, threads: Vec<Thread>) -> Program {
        Program {
            name: "test".into(),
            vars,
            inputs: vec![],
            outputs: vec![],
            init: vec![],
            derived_init: vec![],
            threads,
        }
    }

    #[test]
    fn assign_formula_updates_all_agents() {
        let mut vars = VarSet::new();
        let a = vars.add("A");
        let b = vars.add("B");
        let p = Program {
            name: "t".into(),
            inputs: vec![a],
            outputs: vec![b],
            init: vec![],
            derived_init: vec![],
            threads: vec![Thread::Structured {
                name: "Main".into(),
                body: vec![assign(b, Guard::var(a))],
            }],
            vars: p_vars(&vars),
        };
        let mut exec = Executor::new(&p, &[(vec![a], 30), (vec![], 70)], 1);
        exec.run_iteration();
        assert_eq!(exec.count_where(&Guard::var(b)), 30);
        assert_eq!(exec.count_where(&Guard::var(a)), 30, "input untouched");
    }

    fn p_vars(v: &VarSet) -> VarSet {
        v.clone()
    }

    #[test]
    fn assign_coin_splits_population() {
        let mut vars = VarSet::new();
        let f = vars.add("F");
        let p = program_with(
            vars,
            vec![Thread::Structured {
                name: "Main".into(),
                body: vec![assign_coin(f)],
            }],
        );
        let mut exec = Executor::new(&p, &[(vec![], 10_000)], 2);
        exec.run_iteration();
        let ones = exec.count_where(&Guard::var(f));
        assert!((4_500..5_500).contains(&ones), "coin split {ones}");
    }

    #[test]
    fn if_exists_branches_correctly() {
        let mut vars = VarSet::new();
        let a = vars.add("A");
        let y = vars.add("Y");
        let z = vars.add("Z");
        let body = vec![if_else(
            Guard::var(a),
            vec![assign(y, Guard::any())],
            vec![assign(z, Guard::any())],
        )];
        let p = Program {
            name: "t".into(),
            inputs: vec![a],
            outputs: vec![],
            init: vec![],
            derived_init: vec![],
            threads: vec![Thread::Structured {
                name: "Main".into(),
                body,
            }],
            vars,
        };
        // One agent with A: then-branch.
        let mut exec = Executor::new(&p, &[(vec![a], 1), (vec![], 99)], 3);
        exec.run_iteration();
        assert_eq!(exec.count_where(&Guard::var(y)), 100);
        assert_eq!(exec.count_where(&Guard::var(z)), 0);
        // No agent with A: else-branch.
        let mut exec = Executor::new(&p, &[(vec![], 100)], 4);
        exec.run_iteration();
        assert_eq!(exec.count_where(&Guard::var(y)), 0);
        assert_eq!(exec.count_where(&Guard::var(z)), 100);
    }

    #[test]
    fn execute_runs_ruleset_for_logarithmic_rounds() {
        let mut vars = VarSet::new();
        let rs = parse_ruleset("(I) + (!I) -> (I) + (I)", &mut vars).unwrap();
        let i = vars.get("I").unwrap();
        let p = Program {
            name: "t".into(),
            inputs: vec![i],
            outputs: vec![],
            init: vec![],
            derived_init: vec![],
            threads: vec![Thread::Structured {
                name: "Main".into(),
                body: vec![execute(8, rs)],
            }],
            vars,
        };
        let mut exec = Executor::new(&p, &[(vec![i], 1), (vec![], 999)], 5);
        exec.run_iteration();
        // 8 ln 1000 ≈ 55 rounds: the one-way epidemic completes w.h.p.
        assert_eq!(exec.count_where(&Guard::var(i)), 1000);
        assert!(exec.rounds() > 50.0);
    }

    #[test]
    fn repeat_log_multiplies_executions() {
        let mut vars = VarSet::new();
        let a = vars.add("A");
        // Body charges overhead each pass; count passes via rounds.
        let p = program_with(
            vars,
            vec![Thread::Structured {
                name: "Main".into(),
                body: vec![repeat_log(2, vec![assign(a, Guard::any())])],
            }],
        );
        let mut exec = Executor::new(&p, &[(vec![], 100)], 6);
        exec.run_iteration();
        let ln_n = 100f64.ln();
        let expected_passes = (2.0 * ln_n).ceil();
        // Each assign charges 2 · ln n rounds.
        let expected_rounds = expected_passes * 2.0 * ln_n;
        assert!(
            (exec.rounds() - expected_rounds).abs() < 1e-6,
            "rounds {} vs {expected_rounds}",
            exec.rounds()
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
                    // Pure overhead, no explicit execute.
                    body: vec![assign(a, Guard::any()), assign(a, Guard::any())],
                },
                Thread::Raw {
                    name: "ReduceSets".into(),
                    ruleset: rs,
                },
            ],
            vars,
        };
        let mut exec = Executor::new(&p, &[(vec![r], 200)], 7);
        for _ in 0..30 {
            exec.run_iteration();
        }
        let remaining = exec.count_where(&Guard::var(r));
        assert!(remaining < 200, "raw thread reduced R: {remaining}");
        assert!(remaining >= 1, "raw fratricide keeps one R");
    }

    #[test]
    fn exists_failure_injection_flips_branches() {
        let mut vars = VarSet::new();
        let y = vars.add("Y");
        let body = vec![if_else(
            // Condition is never true (no agent has Y initially and no one
            // sets it in the then-branch).
            Guard::var(y),
            vec![],
            vec![assign(y, Guard::any())],
        )];
        let p = program_with(
            vars,
            vec![Thread::Structured {
                name: "Main".into(),
                body,
            }],
        );
        let opts = ExecOptions {
            exists_failure: 1.0,
        };
        let mut exec = Executor::new(&p, &[(vec![], 50)], 8);
        exec.set_options(opts);
        exec.run_iteration();
        // With guaranteed misdetection the then-branch ran: Y stays off.
        assert_eq!(exec.count_where(&Guard::var(y)), 0);
    }

    /// At the variable budget the nominal space is `2^MAX_VARS` states;
    /// `counts` is the dense copy of the current configuration, never of
    /// a stale one.
    #[test]
    fn counts_at_the_variable_budget_follow_the_configuration() {
        let mut vars = VarSet::new();
        let flags: Vec<Var> = (0..MAX_VARS).map(|i| vars.add(&format!("F{i}"))).collect();
        let rs = parse_ruleset("(F0) + (!F0) -> (F0 & F10) + (F0)", &mut vars).unwrap();
        let body = vec![
            assign_coin(flags[0]),
            assign_coin(flags[MAX_VARS - 1]),
            execute(1, rs),
        ];
        let p = program_with(
            vars,
            vec![Thread::Structured {
                name: "Main".into(),
                body,
            }],
        );
        let n = 1_000;
        let agrees = |exec: &Executor| {
            let counts = exec.counts();
            assert_eq!(counts.len(), 1 << MAX_VARS);
            assert_eq!(counts.iter().sum::<u64>(), n);
            for &(s, c) in exec.occupied() {
                assert_eq!(counts[s], c, "state {s}");
            }
        };
        let mut exec = Executor::new(&p, &[(vec![], n)], 10);
        exec.run_iteration();
        agrees(&exec);
        let first = exec.counts().to_vec();
        exec.run_iteration();
        agrees(&exec);
        assert_ne!(
            exec.counts(),
            &first[..],
            "the second iteration moved agents"
        );
    }

    #[test]
    fn run_until_stops_at_predicate() {
        let mut vars = VarSet::new();
        let rs = parse_ruleset("(L) + (L) -> (L) + (!L)", &mut vars).unwrap();
        let l = vars.get("L").unwrap();
        let p = Program {
            name: "t".into(),
            inputs: vec![l],
            outputs: vec![],
            init: vec![],
            derived_init: vec![],
            threads: vec![
                Thread::Structured {
                    name: "Main".into(),
                    body: vec![execute(2, Ruleset::new())],
                },
                Thread::Raw {
                    name: "Fratricide".into(),
                    ruleset: rs,
                },
            ],
            vars,
        };
        let mut exec = Executor::new(&p, &[(vec![l], 64)], 9);
        let it = exec.run_until(500, |e| e.count_where(&Guard::var(l)) == 1);
        assert!(it.is_some(), "fratricide converges");
    }
}
