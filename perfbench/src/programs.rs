//! `interp_programs` and `enum_programs`: framework programs run the way
//! `ppsim` runs them, on the interpreter or on the enumeration compiler.
//!
//! A trial runs every program of its backend once on fresh inputs. Both
//! backends draw a shared program's inputs from the same generator, so on
//! the same seed they answer the same question, and each answer is checked
//! against the truth computed from the inputs. A run ends where `ppsim` and
//! the experiments end it: one-pass programs after one iteration, the
//! others at the first iteration whose answer holds.

use std::collections::BTreeMap;
use std::hint::black_box;

use pp_engine::counts::{CountPopulation, SparseCountPopulation};
use pp_engine::json::Json;
use pp_lang::enumerate::{
    collect_rulesets, lower_ruleset, plan, support_model, verify_enumeration, EnumExecutor,
};
use pp_lang::interp::Executor;
use pp_lang::parse::parse_program;
use pp_lang::Program;
use pp_protocols::leader::leader_election;
use pp_protocols::majority::majority;
use pp_protocols::plurality::{plurality, plurality_exact_three};
use pp_protocols::semilinear::{parity_exact, semilinear_comparison_exact};
use pp_rules::reach::support_closure;
use pp_rules::{FlagProtocol, Guard, Ruleset, Var};

use crate::trace::Tracer;
use crate::util::{derive, median, probe_ns, timed, SplitMix};
use crate::{Checker, Layers, Size, Trial, Workload};

/// The interpreter's switch to the sparse count backend (`interp.rs`);
/// the site-rebuild probe builds the same population the interpreter does.
const SPARSE_THRESHOLD: usize = 4096;

/// Iteration budget of the programs that iterate to an answer, as
/// `ppsim leader` sets it; the `.pp` programs get the same. Over 60 seeds
/// at n = 10⁴ the slowest runs needed 20 (leader election), 2 175
/// (fratricide) and 2 (rumor) iterations.
const BUDGET_LEADER: u64 = 5_000;

/// Parity runs at a smaller population, as E10 does. Its slow blackbox
/// eliminates all n starting leaders pairwise: at n = 10⁴ it needs up to
/// ~1 700 iterations of ~1 ms each, and its run-to-run variation would
/// dominate the workload. At n = 200, 100 seeds needed at most 78. The
/// budget is `ppsim parity`'s.
const PARITY_N: u64 = 200;
const BUDGET_PARITY: u64 = 20_000;

/// Fratricide runs at a smaller population too. It needs Θ(n) rounds: at
/// n = 10⁴ its 220–1 600 iterations of cheap two-state leaps simulated
/// about half of the workload's rounds in 0.1% of its time, so its
/// convergence luck alone moved `sim_rounds_per_s` by ±10% from run to
/// run. At n = 1 000 it simulates about a tenth as many rounds.
const FRATRICIDE_N: u64 = 1_000;

/// Iteration budget of the semilinear comparison, E10's. Its fast
/// blackbox answers in one iteration w.h.p.; when that answer is wrong
/// (6 of 200 seeds at n = 1 000, every one with `#A < #B`) the slow
/// blackbox corrects it within 2–3 more iterations.
const BUDGET_COMPARISON: u64 = 120;

/// Calls per compile-stage probe (plan, verify, lower, support closure).
const COMPILE_PROBES: usize = 3;

/// Set-ups per trial for the interpreter, whose set-up takes ~0.2 ms; the
/// enumeration compiler's takes ~0.2 s and is timed once.
const INTERP_SETUP_REPS: u32 = 10;

/// Which executor runs the programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// `pp_lang::interp::Executor`.
    Interp,
    /// `pp_lang::enumerate::EnumExecutor`.
    Enum,
}

/// A program of the workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prog {
    /// `leader_election()`.
    Leader,
    /// `majority(3)`.
    Majority,
    /// `plurality(3, 2)`.
    Plurality,
    /// `parity_exact(1)`.
    Parity,
    /// `plurality_exact_three()`.
    PluralityExactThree,
    /// `semilinear_comparison_exact(1)`.
    SemilinearComparison,
    /// `protocols/fratricide.pp`.
    PpFratricide,
    /// `protocols/leader_election.pp`.
    PpLeaderElection,
    /// `protocols/rumor_with_skeptics.pp`.
    PpRumorWithSkeptics,
}

/// The programs each backend runs: everything `ppsim` runs on the
/// interpreter, and the three that `choose_backend` sends to enumeration.
const INTERP: [Prog; 8] = [
    Prog::Leader,
    Prog::Majority,
    Prog::Plurality,
    Prog::Parity,
    Prog::PluralityExactThree,
    Prog::PpFratricide,
    Prog::PpLeaderElection,
    Prog::PpRumorWithSkeptics,
];
const ENUM: [Prog; 3] = [
    Prog::Plurality,
    Prog::PluralityExactThree,
    Prog::SemilinearComparison,
];

impl Prog {
    /// Metric suffix.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Prog::Leader => "leader",
            Prog::Majority => "majority",
            Prog::Plurality => "plurality",
            Prog::Parity => "parity",
            Prog::PluralityExactThree => "plurality_exact_three",
            Prog::SemilinearComparison => "semilinear_comparison",
            Prog::PpFratricide => "pp_fratricide",
            Prog::PpLeaderElection => "pp_leader_election",
            Prog::PpRumorWithSkeptics => "pp_rumor_with_skeptics",
        }
    }

    /// Source text of a shipped `.pp` program.
    fn source(self) -> Option<&'static str> {
        match self {
            Prog::PpFratricide => Some(include_str!("../../protocols/fratricide.pp")),
            Prog::PpLeaderElection => Some(include_str!("../../protocols/leader_election.pp")),
            Prog::PpRumorWithSkeptics => {
                Some(include_str!("../../protocols/rumor_with_skeptics.pp"))
            }
            _ => None,
        }
    }

    /// The program: a builtin, or a shipped source parsed.
    #[must_use]
    pub fn program(self) -> Program {
        self.builtin().unwrap_or_else(|| {
            parse_program(self.source().expect("every program is builtin or shipped"))
                .expect("shipped programs parse")
        })
    }

    fn builtin(self) -> Option<Program> {
        Some(match self {
            Prog::Leader => leader_election(),
            Prog::Majority => majority(3),
            Prog::Plurality => plurality(3, 2),
            Prog::Parity => parity_exact(1),
            Prog::PluralityExactThree => plurality_exact_three(),
            Prog::SemilinearComparison => semilinear_comparison_exact(1),
            _ => return None,
        })
    }
}

/// How many agents satisfy the goal's flag when the answer is right.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Want {
    One,
    All,
    None,
}

/// How a program run ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// After one iteration, as `ppsim majority` and `ppsim plurality` run.
    Once,
    /// At the first iteration whose answer holds (`run_until`), with at
    /// most this many iterations, as `ppsim leader`, `ppsim parity` and the
    /// experiments run.
    Until(u64),
    /// After one iteration if its answer holds, else at the first later
    /// iteration whose answer holds, with at most this many more: a fast
    /// answer that is right w.h.p., corrected by a slow exact one. The
    /// first iteration always runs, so an answer the initial state already
    /// reads does not end the run before anything is computed.
    Settle(u64),
}

/// What a program run must answer, and when the run ends.
#[derive(Debug, Clone)]
pub struct Goal {
    var: Var,
    want: Want,
    stop: Stop,
}

/// One program run's inputs.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// `(input flags on, agent count)` groups.
    pub groups: Vec<(Vec<Var>, u64)>,
    /// Executor seed.
    pub seed: u64,
    /// The answer to check.
    pub goal: Goal,
}

fn var(p: &Program, name: &str) -> Var {
    p.vars
        .get(name)
        .unwrap_or_else(|| panic!("program {} defines {name}", p.name))
}

/// Three distinct color shares of `n` with a clear plurality, assigned to
/// colors in a seed-chosen order. Returns the shares and the winner.
fn color_shares(n: u64, g: &mut SplitMix) -> ([u64; 3], usize) {
    let top = n * g.range(40, 46) / 100;
    let mid = n * g.range(30, 34) / 100;
    let low = n - top - mid;
    let winner = g.range(0, 2) as usize;
    let second = (winner + 1 + g.range(0, 1) as usize) % 3;
    let mut shares = [low; 3];
    shares[winner] = top;
    shares[second] = mid;
    (shares, winner)
}

/// Inputs for `prog` at population `n` from `seed`; shared programs get
/// identical inputs on both backends.
#[must_use]
pub fn inputs(prog: Prog, p: &Program, n: u64, seed: u64) -> Inputs {
    let mut g = SplitMix::new(seed);
    let goal = |var, want, stop| Goal { var, want, stop };
    let (groups, goal) = match prog {
        Prog::Leader | Prog::PpLeaderElection => (
            vec![(vec![], n)],
            goal(var(p, "L"), Want::One, Stop::Until(BUDGET_LEADER)),
        ),
        Prog::PpFratricide => (
            vec![(vec![], FRATRICIDE_N.min(n))],
            goal(var(p, "L"), Want::One, Stop::Until(BUDGET_LEADER)),
        ),
        Prog::Majority => {
            let gap = n * g.range(4, 8) / 100;
            let (big, small) = ((n + gap) / 2, (n - gap) / 2);
            let a_wins = g.range(0, 1) == 1;
            let (na, nb) = if a_wins { (big, small) } else { (small, big) };
            let want = if a_wins { Want::All } else { Want::None };
            let groups = vec![
                (vec![var(p, "A")], na),
                (vec![var(p, "B")], nb),
                (vec![], n - na - nb),
            ];
            (groups, goal(var(p, "Y_A"), want, Stop::Once))
        }
        Prog::Plurality | Prog::PluralityExactThree => {
            let (shares, winner) = color_shares(n, &mut g);
            let groups = (0..3)
                .map(|i| (vec![var(p, &format!("C{}", i + 1))], shares[i]))
                .collect();
            let w = var(p, &format!("W{}", winner + 1));
            (groups, goal(w, Want::All, Stop::Once))
        }
        Prog::Parity => {
            // #A is odd, as `ppsim parity`'s default (7) is: with #A even
            // the initial all-off output already reads "even", so
            // `run_until` stops before the first iteration (in `ppsim` and
            // E10 alike) and nothing is computed.
            let n = PARITY_N;
            let na = 2 * g.range(0, 19) + 1;
            let groups = vec![(vec![var(p, "A")], na), (vec![], n - na)];
            (
                groups,
                goal(var(p, "P"), Want::All, Stop::Until(BUDGET_PARITY)),
            )
        }
        Prog::SemilinearComparison => {
            let na = n * g.range(25, 40) / 100;
            let gap = n * g.range(5, 15) / 100;
            let a_wins = g.range(0, 1) == 1;
            let nb = if a_wins { na - gap } else { na + gap };
            let want = if a_wins { Want::All } else { Want::None };
            let groups = vec![
                (vec![var(p, "A")], na),
                (vec![var(p, "B")], nb),
                (vec![], n - na - nb),
            ];
            (
                groups,
                goal(var(p, "P"), want, Stop::Settle(BUDGET_COMPARISON)),
            )
        }
        Prog::PpRumorWithSkeptics => {
            let nr = g.range(1, 10);
            let ns = n * g.range(10, 20) / 100;
            let groups = vec![
                (vec![var(p, "R")], nr),
                (vec![var(p, "S")], ns),
                (vec![], n - nr - ns),
            ];
            (
                groups,
                goal(var(p, "Done"), Want::All, Stop::Until(BUDGET_LEADER)),
            )
        }
    };
    Inputs {
        groups,
        seed: g.next_u64(),
        goal,
    }
}

/// The executor surface both backends share.
pub trait Exec {
    /// One good iteration.
    fn run_iteration(&mut self);
    /// Iterations until `goal`'s answer holds, at most `max`; the count at
    /// which it first held, or `None` on a budget overrun.
    fn run_until(&mut self, max: u64, goal: &Goal) -> Option<u64>;
    /// Agents satisfying `guard`.
    fn count_where(&self, guard: &Guard) -> u64;
    /// Parallel rounds so far.
    fn rounds(&self) -> f64;
    /// State counts.
    fn counts(&self) -> &[u64];
    /// Population size.
    fn n(&self) -> u64;
    /// `(live states, dead rules)` of an enumerated executor.
    fn enumeration(&self) -> Option<(usize, usize)> {
        None
    }
}

impl Exec for Executor<'_> {
    fn run_iteration(&mut self) {
        Executor::run_iteration(self);
    }
    fn run_until(&mut self, max: u64, goal: &Goal) -> Option<u64> {
        Executor::run_until(self, max, |e| reached(e, goal))
    }
    fn count_where(&self, guard: &Guard) -> u64 {
        Executor::count_where(self, guard)
    }
    fn rounds(&self) -> f64 {
        Executor::rounds(self)
    }
    fn counts(&self) -> &[u64] {
        Executor::counts(self)
    }
    fn n(&self) -> u64 {
        Executor::n(self)
    }
}

impl Exec for EnumExecutor<'_> {
    fn run_iteration(&mut self) {
        EnumExecutor::run_iteration(self);
    }
    fn run_until(&mut self, max: u64, goal: &Goal) -> Option<u64> {
        EnumExecutor::run_until(self, max, |e| reached(e, goal))
    }
    fn count_where(&self, guard: &Guard) -> u64 {
        EnumExecutor::count_where(self, guard)
    }
    fn rounds(&self) -> f64 {
        EnumExecutor::rounds(self)
    }
    fn counts(&self) -> &[u64] {
        EnumExecutor::counts(self)
    }
    fn n(&self) -> u64 {
        EnumExecutor::n(self)
    }
    fn enumeration(&self) -> Option<(usize, usize)> {
        Some((self.live_states().len(), self.dead_rules()))
    }
}

fn reached(e: &dyn Exec, goal: &Goal) -> bool {
    let on = e.count_where(&Guard::var(goal.var));
    match goal.want {
        Want::One => on == 1,
        Want::All => on == e.n(),
        Want::None => on == 0,
    }
}

/// Runs a program until `goal` says it stops. Returns the iterations run
/// when the answer is right, `None` when it is wrong or the budget ran out.
pub fn drive(e: &mut dyn Exec, goal: &Goal) -> Option<u64> {
    match goal.stop {
        Stop::Once => {
            e.run_iteration();
            reached(e, goal).then_some(1)
        }
        Stop::Until(max) => e.run_until(max, goal),
        Stop::Settle(max) => {
            e.run_iteration();
            e.run_until(max, goal)
        }
    }
}

/// The workload.
pub struct Programs {
    backend: Backend,
    n: u64,
    progs: &'static [Prog],
    /// Builtins are built once, as `ppsim` does per command; `.pp`
    /// programs are parsed in every trial's set-up.
    builtins: Vec<Option<Program>>,
    /// Final counts of each program in the last trial, for the probes.
    last_counts: Vec<Vec<u64>>,
    /// `(live states, dead rules)` of each enumerated program.
    enumeration: Vec<(usize, usize)>,
    /// Per trial, the iteration at which each program's answer held.
    answered_at: Vec<Json>,
}

impl Programs {
    /// The workload on `backend` at `size`.
    #[must_use]
    pub fn new(backend: Backend, size: Size) -> Self {
        let progs: &'static [Prog] = match backend {
            Backend::Interp => &INTERP,
            Backend::Enum => &ENUM,
        };
        let n = match size {
            Size::Full => 10_000,
            Size::Smoke => 1_000,
        };
        Self {
            backend,
            n,
            progs,
            builtins: progs.iter().map(|p| p.builtin()).collect(),
            last_counts: Vec::new(),
            enumeration: Vec::new(),
            answered_at: Vec::new(),
        }
    }

    fn prefix(&self) -> &'static str {
        match self.backend {
            Backend::Interp => "lang.interp",
            Backend::Enum => "lang.enumerate",
        }
    }

    fn setup_reps(&self) -> u32 {
        match self.backend {
            Backend::Interp => INTERP_SETUP_REPS,
            Backend::Enum => 1,
        }
    }

    /// Parses this workload's `.pp` programs, in order.
    fn parse(&self, tr: &mut Tracer) -> Vec<Program> {
        self.progs
            .iter()
            .filter_map(|p| p.source())
            .map(|src| {
                tr.span("lang.parse.parse_program_s", |_| {
                    parse_program(src).expect("shipped programs parse")
                })
            })
            .collect()
    }
}

/// Builds one executor per program: the set-up that every trial times.
fn build<'p>(
    backend: Backend,
    progs: &[Prog],
    programs: &[&'p Program],
    inputs: &[Inputs],
    tr: &mut Tracer,
) -> Vec<Box<dyn Exec + 'p>> {
    programs
        .iter()
        .zip(inputs)
        .zip(progs)
        .map(|((&p, inp), prog)| -> Box<dyn Exec + 'p> {
            match backend {
                Backend::Interp => tr.span("lang.interp.executor_new_s", |_| {
                    Box::new(Executor::new(p, &inp.groups, inp.seed))
                }),
                Backend::Enum => tr.span(
                    format!("lang.enumerate.executor_new_s.{}", prog.name()),
                    |_| {
                        Box::new(
                            EnumExecutor::new(p, &inp.groups, inp.seed)
                                .expect("these programs enumerate"),
                        )
                    },
                ),
            }
        })
        .collect()
}

/// The workload's programs in order: builtins, then the parsed sources.
fn in_order<'a>(builtins: &'a [Option<Program>], parsed: &'a [Program]) -> Vec<&'a Program> {
    let mut parsed = parsed.iter();
    builtins
        .iter()
        .map(|b| {
            b.as_ref()
                .unwrap_or_else(|| parsed.next().expect("one parsed program per source"))
        })
        .collect()
}

impl Workload for Programs {
    fn config(&self) -> Json {
        Json::obj([
            ("n", Json::from(self.n)),
            ("parity_n", Json::from(PARITY_N)),
            ("fratricide_n", Json::from(FRATRICIDE_N.min(self.n))),
            (
                "programs",
                Json::arr(self.progs.iter().map(|p| Json::from(p.name()))),
            ),
            ("setup_reps", Json::from(u64::from(self.setup_reps()))),
        ])
    }

    fn trial_cost_s(&self) -> f64 {
        match self.backend {
            Backend::Interp => 1.1,
            Backend::Enum => 1.9,
        }
    }

    fn trial(&mut self, seed: u64, tr: &mut Tracer, check: &mut Checker) -> Trial {
        let n = self.n;
        let (prefix, backend, progs) = (self.prefix(), self.backend, self.progs);
        let (parsed, parse_s) = timed(|| self.parse(tr));
        let programs = in_order(&self.builtins, &parsed);
        let inputs: Vec<Inputs> = progs
            .iter()
            .zip(&programs)
            .map(|(&prog, p)| inputs(prog, p, n, derive(seed, prog as u64)))
            .collect();
        let (mut execs, new_s) = timed(|| build(backend, progs, &programs, &inputs, tr));
        let reps = self.setup_reps();
        let ((), extra_s) = timed(|| {
            let mut off = Tracer::new(false);
            for _ in 1..reps {
                let parsed = self.parse(&mut off);
                let programs = in_order(&self.builtins, &parsed);
                black_box(build(backend, progs, &programs, &inputs, &mut off));
            }
        });
        let mut rounds = 0.0;
        let mut answered_at = Vec::new();
        let ((), run_s) = timed(|| {
            for ((exec, inp), prog) in execs.iter_mut().zip(&inputs).zip(progs) {
                let at = tr.span(format!("{prefix}.run_s.{}", prog.name()), |_| {
                    drive(exec.as_mut(), &inp.goal)
                });
                check.expect(at.is_some());
                answered_at.push((prog.name(), at.map_or(Json::Null, Json::from)));
                rounds += exec.rounds();
            }
        });
        self.answered_at.push(Json::obj(answered_at));
        self.last_counts = execs.iter().map(|e| e.counts().to_vec()).collect();
        self.enumeration = execs.iter().filter_map(|e| e.enumeration()).collect();
        Trial {
            setup_s: (parse_s + new_s + extra_s) / f64::from(reps),
            run_s,
            rounds,
        }
    }

    fn answers(&self) -> Json {
        Json::arr(self.answered_at.iter().cloned())
    }

    fn layer_metrics(&mut self, _self_s: &BTreeMap<String, f64>, out: &mut Layers) {
        let parsed = self.parse(&mut Tracer::new(false));
        let programs = in_order(&self.builtins, &parsed);
        match self.backend {
            Backend::Interp => {
                out.set(
                    "rules.protocol.site_rebuild_us",
                    site_rebuild_ns(&programs, &self.last_counts) / 1e3,
                    "us",
                );
            }
            Backend::Enum => {
                // Each compile stage takes milliseconds to a second, so
                // each is the median of a few single calls.
                let stage_s = |f: &mut dyn FnMut()| probe_ns(COMPILE_PROBES, 1, f) / 1e9;
                let mut closure_s = 0.0;
                for (i, (prog, &p)) in self.progs.iter().zip(&programs).enumerate() {
                    let name = prog.name();
                    let (live, dead) = self.enumeration[i];
                    let enum_plan = plan(p).expect("these programs enumerate");
                    let model = support_model(p).expect("inputs within the enumeration cap");
                    verify_enumeration(&p.vars, &enum_plan.live, &model.rulesets, &model.assigns)
                        .expect("enumeration verifies");
                    let plan_s = stage_s(&mut || {
                        black_box(plan(p).expect("these programs enumerate"));
                    });
                    let verify_s = stage_s(&mut || {
                        black_box(verify_enumeration(
                            &p.vars,
                            &enum_plan.live,
                            &model.rulesets,
                            &model.assigns,
                        ))
                        .expect("enumeration verifies");
                    });
                    let lower_s = stage_s(&mut || lower_sites(p, &enum_plan.live));
                    closure_s += stage_s(&mut || {
                        black_box(support_closure(&p.vars, &model));
                    });
                    out.set(format!("lang.enumerate.plan_s.{name}"), plan_s, "s");
                    out.set(format!("lang.enumerate.verify_s.{name}"), verify_s, "s");
                    out.set(format!("lang.enumerate.lower_s.{name}"), lower_s, "s");
                    out.set(
                        format!("lang.enumerate.live_states.{name}"),
                        live as f64,
                        "count",
                    );
                    out.set(
                        format!("lang.enumerate.dead_rules.{name}"),
                        dead as f64,
                        "count",
                    );
                }
                out.set("rules.reach.support_closure_s", closure_s, "s");
            }
        }
    }
}

/// The raw threads of `p`, composed, as the executors compose them.
fn raw_threads(p: &Program) -> Option<Ruleset> {
    let raws: Vec<Ruleset> = p.raw_threads().map(|(_, rs)| rs.clone()).collect();
    (!raws.is_empty()).then(|| Ruleset::compose(&raws))
}

/// The `execute` sites of `p` (raw threads run everywhere, not at a site).
fn execute_sites(p: &Program) -> Vec<&Ruleset> {
    collect_rulesets(p)
        .into_iter()
        .filter(|&site| !p.raw_threads().any(|(_, rs)| std::ptr::eq(rs, site)))
        .collect()
}

/// A site composed with the raw threads, as both executors run it.
fn with_raw(site: &Ruleset, raw: Option<&Ruleset>) -> Ruleset {
    match raw {
        Some(r) => Ruleset::compose(&[site.clone(), r.clone()]),
        None => site.clone(),
    }
}

/// The rulesets every scheduler run of `p` executes: each `execute` site
/// composed with the raw threads, plus the raw threads alone (run while
/// assignments and conditions are charged).
fn site_rulesets(p: &Program) -> Vec<Ruleset> {
    let raw = raw_threads(p);
    let mut out: Vec<Ruleset> = raw.iter().cloned().collect();
    out.extend(
        execute_sites(p)
            .into_iter()
            .map(|site| with_raw(site, raw.as_ref())),
    );
    out.retain(|rs| !rs.is_empty());
    out
}

/// Lowers every site of `p` over `live`, as `EnumExecutor::new` does.
fn lower_sites(p: &Program, live: &[u32]) {
    for rs in site_rulesets(p) {
        black_box(lower_ruleset(&p.vars, &rs, live, "probe").expect("lowering succeeds"));
    }
}

/// Median cost of the interpreter's per-site rebuild — compose the site
/// with the raw threads, build the `FlagProtocol`, build the count
/// population — over every site of every program, on each program's
/// final counts.
fn site_rebuild_ns(programs: &[&Program], counts: &[Vec<u64>]) -> f64 {
    let mut samples = Vec::new();
    for (p, c) in programs.iter().zip(counts) {
        let raw = raw_threads(p);
        for site in execute_sites(p) {
            samples.push(probe_ns(5, 4, || {
                let composed = with_raw(site, raw.as_ref());
                let protocol = FlagProtocol::new(p.vars.clone(), composed, "exec");
                if c.len() > SPARSE_THRESHOLD {
                    black_box(SparseCountPopulation::from_dense(&protocol, c));
                } else {
                    black_box(CountPopulation::from_counts(&protocol, c));
                }
            }));
        }
    }
    median(&samples)
}
