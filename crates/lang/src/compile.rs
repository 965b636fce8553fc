//! Full compilation (Section 5.4): deploying a precompiled ruleset tree on
//! the phase-clock hierarchy as one finite-state population protocol.
//!
//! The hierarchy has one clock level per loop level (`l_max` levels; level
//! 0 is the fastest, driving the innermost loop). Every level's phase
//! counter runs modulo `m = 4·(w_max + 1)`; the *time path* of an agent is
//! the vector of its levels' phases. A leaf with index
//! `τ = (τ_{l_max}, …, τ₁)`, `τ_j ∈ {1..w_max}`, is *active* for an agent
//! pair when both agents' level-`j` phases equal `4·τ_j` for every `j` —
//! the filter `Π_τ` of the paper. Program rules fire only on pairs whose
//! common active leaf contains them; phases `≢ 0 (mod 4)` and phase 0 are
//! idle (they separate consecutive leaves and host the hierarchy's own
//! gating work).
//!
//! Because a faster clock completes `Θ(log n)` cycles per slower-clock
//! phase, each inner loop body re-executes a logarithmic number of times
//! per outer step — exactly the `repeat ≥ c ln n times` semantics — and
//! each leaf stays active for `Θ(log n)` rounds per visit, satisfying its
//! `execute for ≥ c ln n rounds` requirement (Proposition 5.7 / Fig. 1).
//!
//! Raw threads compose alongside, unfiltered. The result is an `O(1)`-state
//! protocol (for fixed program) running with **no global coordination
//! whatsoever** — Theorem 2.4's compilation claim, validated empirically in
//! experiment E13.

use crate::ast::Program;
use crate::precompile::{precompile, CompiledTree};
use pp_clocks::hierarchy::{ClockHierarchy, HierAgent};
use pp_clocks::junta::XControl;
use pp_clocks::oscillator::Oscillator;
use pp_engine::obj::ObjProtocol;
use pp_engine::rng::SimRng;
use pp_rules::{Ruleset, Var};

/// An agent of the compiled protocol: program flags + clock hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompiledAgent {
    /// Packed program variables (including `K#`/`Z#` auxiliaries).
    pub flags: u32,
    /// The clock-hierarchy component.
    pub clock: HierAgent,
}

/// The compiled population protocol: program flags composed with the clock
/// hierarchy, program rules filtered by active-leaf agreement.
pub struct CompiledProtocol<O, C> {
    tree: CompiledTree,
    hierarchy: ClockHierarchy<O, C>,
    /// Leaf rulesets indexed by time path (row-major, innermost last).
    leaf_rules: Vec<Ruleset>,
    raw: Option<Ruleset>,
    program_inputs: Vec<Var>,
    initial_flags_fn: InitFn,
    modulus: u8,
}

type InitFn = Box<dyn Fn(&[Var]) -> u32 + Send + Sync>;

impl<O: Oscillator, C: XControl> CompiledProtocol<O, C> {
    /// Compiles `program`'s first structured thread onto a hierarchy built
    /// from the given oscillator and `X`-control process, with detector
    /// depth `k`.
    ///
    /// The clock tempo (the paper's "large constant α depending on the
    /// sequential code") is chosen automatically from the program's leaf
    /// complexity so that every agent completes its per-leaf work within a
    /// leaf window w.h.p.; override via
    /// [`ClockHierarchy::with_tempo`](pp_clocks::hierarchy::ClockHierarchy::with_tempo)
    /// when constructing a hierarchy manually.
    ///
    /// # Panics
    ///
    /// Panics if the program has no structured thread, or the loop depth
    /// exceeds the hierarchy's supported levels.
    #[must_use]
    pub fn new(program: &Program, oscillator: O, control: C, k: u8) -> Self {
        let tree = precompile(program);
        let m = 4 * (tree.w_max as u8 + 1);
        // Leaf windows must cover a coupon-collector pass for the largest
        // leaf ruleset: stretch the base period proportionally.
        let leaves = tree.leaves();
        let max_rules = leaves
            .iter()
            .map(|(_, rs)| rs.len())
            .max()
            .unwrap_or(1)
            .max(1);
        let tempo = (max_rules as u8).clamp(1, 8);
        let hierarchy =
            ClockHierarchy::new(oscillator, control, tree.l_max, k, m).with_tempo(tempo);
        // Flatten leaves into a dense index by time path.
        let mut leaf_rules = vec![Ruleset::new(); tree.num_leaves()];
        let w = tree.w_max;
        for (path, ruleset) in leaves {
            // path = (τ_{l_max}, …, τ₁); index row-major with outer level
            // most significant.
            let mut idx = 0usize;
            for &t in &path {
                idx = idx * w + (t - 1);
            }
            leaf_rules[idx] = ruleset.clone();
        }
        let raws: Vec<&Ruleset> = program.raw_threads().map(|(_, rs)| rs).collect();
        let raw = (!raws.is_empty()).then(|| Ruleset::compose(raws));
        let program_clone = program.clone();
        let initial_flags_fn: InitFn =
            Box::new(move |inputs_on: &[Var]| program_clone.initial_state(inputs_on));
        Self {
            tree,
            hierarchy,
            leaf_rules,
            raw,
            program_inputs: program.inputs.clone(),
            initial_flags_fn,
            modulus: m,
        }
    }

    /// The precompiled tree.
    #[must_use]
    pub fn tree(&self) -> &CompiledTree {
        &self.tree
    }

    /// The clock hierarchy.
    #[must_use]
    pub fn hierarchy(&self) -> &ClockHierarchy<O, C> {
        &self.hierarchy
    }

    /// The phase modulus `m = 4(w_max + 1)`.
    #[must_use]
    pub fn modulus(&self) -> u8 {
        self.modulus
    }

    /// The initial agent for the given input membership.
    #[must_use]
    pub fn initial_agent(&self, inputs_on: &[Var]) -> CompiledAgent {
        for v in inputs_on {
            assert!(self.program_inputs.contains(v), "not an input variable");
        }
        CompiledAgent {
            flags: (self.initial_flags_fn)(inputs_on),
            clock: self.hierarchy.initial_agent(),
        }
    }

    /// The active leaf index for an agent, if its time path points inside a
    /// leaf window.
    ///
    /// Leaf `τ_j` occupies the level-`j` phases `{4τ_j, 4τ_j+1, 4τ_j+2}`;
    /// every fourth phase (`≡ 3 mod 4`) and the first four phases of the
    /// cycle are idle separators. One separator phase suffices to keep the
    /// ±1 phase skew of the tick waves from mixing adjacent leaves, while
    /// three active phases per leaf make the window robust to the
    /// oscillator's uneven per-species dwell times.
    #[must_use]
    pub fn active_leaf(&self, agent: &CompiledAgent) -> Option<usize> {
        let w = self.tree.w_max;
        let mut idx = 0usize;
        // Outer level (= highest hierarchy level) most significant.
        for j in (0..self.tree.l_max).rev() {
            let phase = agent.clock.cur[j].phase;
            if phase < 4 || phase % 4 == 3 {
                return None;
            }
            let tau = (phase / 4) as usize;
            if tau > w {
                return None;
            }
            idx = idx * w + (tau - 1);
        }
        Some(idx)
    }
}

/// Thread weights of one interaction, in units of `1/(48·tempo)`.
///
/// The split is clock hierarchy 1/2, raw threads 1/8, program rules 3/8
/// (the program thread gets a generous share so per-leaf coupon collection
/// completes within leaf windows). Inside the hierarchy's half, one of its
/// units (`1/(6·tempo)`, [`ClockHierarchy::active_weight`]) is 4 of these,
/// so a draw `u` below the hierarchy's active weight here is the
/// hierarchy's draw `u / 4`: control `4·tempo`, level-0 oscillator past its
/// tempo gate 8, level-0 clock `12·tempo`. Raw threads weigh `6·tempo` and
/// program rules `18·tempo`. The rest, `48·tempo` minus the sum, is idle:
/// the oscillator's tempo rejections and, without raw threads, their slot.
impl<O: Oscillator, C: XControl> CompiledProtocol<O, C> {
    /// Denominator of the thread weights.
    fn weight_total(&self) -> u64 {
        48 * u64::from(self.hierarchy.tempo())
    }

    /// Weight of the threads that can act: the hierarchy's active base
    /// threads, the raw threads (if any) and the program rules.
    fn active_weight(&self) -> u64 {
        let tempo = u64::from(self.hierarchy.tempo());
        let raw = if self.raw.is_some() { 6 * tempo } else { 0 };
        4 * self.hierarchy.active_weight() + raw + 18 * tempo
    }

    /// The interaction for thread draw `u < active_weight()`.
    fn interact_drawn(
        &self,
        a: &CompiledAgent,
        b: &CompiledAgent,
        u: u64,
        rng: &mut SimRng,
    ) -> (CompiledAgent, CompiledAgent) {
        let mut a = *a;
        let mut b = *b;
        let clock = 4 * self.hierarchy.active_weight();
        if u < clock {
            let (ca, cb) = self
                .hierarchy
                .interact_drawn(&a.clock, &b.clock, u / 4, rng);
            a.clock = ca;
            b.clock = cb;
            return (a, b);
        }
        let ruleset = match &self.raw {
            Some(raw) if u < clock + 6 * u64::from(self.hierarchy.tempo()) => raw,
            _ => {
                // Program thread: fire only when both agents agree on an
                // active leaf (the Π_τ filter).
                let (Some(la), Some(lb)) = (self.active_leaf(&a), self.active_leaf(&b)) else {
                    return (a, b);
                };
                if la != lb {
                    return (a, b);
                }
                &self.leaf_rules[la]
            }
        };
        if ruleset.is_empty() {
            return (a, b);
        }
        let rule = &ruleset.rules()[rng.index(ruleset.len())];
        if rule.matches(a.flags, b.flags)
            && (rule.probability >= 1.0 || rng.chance(rule.probability))
        {
            let (fa, fb) = rule.apply(a.flags, b.flags);
            a.flags = fa;
            b.flags = fb;
        }
        (a, b)
    }
}

impl<O: Oscillator, C: XControl> ObjProtocol for CompiledProtocol<O, C> {
    type State = CompiledAgent;

    fn interact(
        &self,
        a: &CompiledAgent,
        b: &CompiledAgent,
        rng: &mut SimRng,
    ) -> (CompiledAgent, CompiledAgent) {
        let u = rng.below(self.weight_total());
        if u < self.active_weight() {
            self.interact_drawn(a, b, u, rng)
        } else {
            (*a, *b)
        }
    }

    fn idle(&self) -> f64 {
        let total = self.weight_total();
        (total - self.active_weight()) as f64 / total as f64
    }

    fn interact_active(
        &self,
        a: &CompiledAgent,
        b: &CompiledAgent,
        rng: &mut SimRng,
    ) -> (CompiledAgent, CompiledAgent) {
        let u = rng.below(self.active_weight());
        self.interact_drawn(a, b, u, rng)
    }
}

/// Which execution backend compiles a program, and why.
#[derive(Debug, Clone, PartialEq)]
pub enum BackendChoice {
    /// Every structured thread fits the [`pp_rules::MAX_VARS`] packing
    /// budget (declared variables + lowering flags): the precompile →
    /// clock-hierarchy pipeline applies.
    Hierarchy,
    /// Some thread exceeds the flag budget, but the analyzer's support
    /// closure enumerated the reachable states: the
    /// [`crate::enumerate`] backend compiles it over dense ids.
    Enumerated {
        /// Live packed states (the dense state-space size).
        live_states: usize,
        /// Source-level rules proved dead and stripped.
        dead_rules: usize,
        /// Source-level rules in total.
        total_rules: usize,
    },
    /// Neither compiled backend applies; the interpreter
    /// ([`crate::interp::Executor`]) remains the execution vehicle.
    Interpreted {
        /// Why enumeration was infeasible.
        reason: String,
    },
}

/// Decides the execution backend for a program: the clock hierarchy when
/// every structured thread's projected packed-bit count (declared
/// variables + [`crate::precompile::lowering_flags`]) fits
/// [`pp_rules::MAX_VARS`]; otherwise reachable-state enumeration
/// ([`crate::enumerate::plan`]); otherwise the interpreter.
#[must_use]
pub fn choose_backend(program: &Program) -> BackendChoice {
    let declared = program.vars.len();
    let fits = program
        .structured_threads()
        .all(|(_, body)| declared + crate::precompile::lowering_flags(body) <= pp_rules::MAX_VARS);
    if fits {
        return BackendChoice::Hierarchy;
    }
    match crate::enumerate::plan(program) {
        Ok(plan) => BackendChoice::Enumerated {
            live_states: plan.live.len(),
            dead_rules: plan.dead_rules,
            total_rules: plan.total_rules,
        },
        Err(e) => BackendChoice::Interpreted {
            reason: e.to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{build, Thread};
    use pp_clocks::junta::PairwiseElimination;
    use pp_clocks::oscillator::Dk18Oscillator;
    use pp_engine::obj::ObjPopulation;
    use pp_rules::{Guard, VarSet};

    fn toy_program() -> Program {
        let mut vars = VarSet::new();
        let x = vars.add("X");
        let y = vars.add("Y");
        Program {
            name: "toy".into(),
            vars,
            inputs: vec![x],
            outputs: vec![y],
            init: vec![],
            derived_init: vec![],
            threads: vec![Thread::Structured {
                name: "Main".into(),
                body: vec![build::assign(y, Guard::var(x))],
            }],
        }
    }

    fn compiled() -> CompiledProtocol<Dk18Oscillator, PairwiseElimination> {
        CompiledProtocol::new(
            &toy_program(),
            Dk18Oscillator::new(),
            PairwiseElimination::new(),
            6,
        )
    }

    #[test]
    fn modulus_follows_width() {
        let c = compiled();
        assert_eq!(c.tree().w_max, 2);
        assert_eq!(c.modulus(), 12);
        assert_eq!(c.tree().l_max, 1);
    }

    #[test]
    fn initial_agent_carries_inputs() {
        let c = compiled();
        let p = toy_program();
        let x = p.vars.get("X").unwrap();
        let agent = c.initial_agent(&[x]);
        assert!(x.is_set(agent.flags));
        assert_eq!(agent.clock.cur[0].phase, 0);
    }

    #[test]
    fn active_leaf_requires_aligned_nonzero_phase() {
        let c = compiled();
        let mut agent = c.initial_agent(&[]);
        assert_eq!(c.active_leaf(&agent), None, "phase 0 is idle");
        agent.clock.cur[0].phase = 4;
        assert_eq!(c.active_leaf(&agent), Some(0));
        agent.clock.cur[0].phase = 6;
        assert_eq!(c.active_leaf(&agent), Some(0), "leaf spans 3 phases");
        agent.clock.cur[0].phase = 7;
        assert_eq!(c.active_leaf(&agent), None, "separator phase");
        agent.clock.cur[0].phase = 8;
        assert_eq!(c.active_leaf(&agent), Some(1));
        agent.clock.cur[0].phase = 10;
        assert_eq!(c.active_leaf(&agent), Some(1));
        agent.clock.cur[0].phase = 3;
        assert_eq!(c.active_leaf(&agent), None);
    }

    #[test]
    fn program_rules_only_fire_in_leaf_windows() {
        let c = compiled();
        let p = toy_program();
        let x = p.vars.get("X").unwrap();
        let y = p.vars.get("Y").unwrap();
        let mut rng = SimRng::seed_from(1);
        // Both agents pinned at idle phase: flags must never change.
        let a0 = c.initial_agent(&[x]);
        let b0 = c.initial_agent(&[]);
        for _ in 0..500 {
            let mut a = a0;
            let mut b = b0;
            a.clock.cur[0].phase = 1;
            b.clock.cur[0].phase = 1;
            let (a2, b2) = c.interact(&a, &b, &mut rng);
            assert_eq!(a2.flags, a.flags);
            assert_eq!(b2.flags, b.flags);
            let _ = y;
        }
    }

    #[test]
    fn full_stack_executes_assignment() {
        // End-to-end: run the compiled toy program (Y := X) on a real
        // population and check that Y eventually reflects X for most
        // agents. This exercises clocks, gating, triggers, and rules.
        let c = compiled();
        let p = toy_program();
        let x = p.vars.get("X").unwrap();
        let y = p.vars.get("Y").unwrap();
        let n = 300usize;
        let mut pop = ObjPopulation::from_fn(&c, n, |i| {
            if i < 100 {
                c.initial_agent(&[x])
            } else {
                c.initial_agent(&[])
            }
        });
        let mut rng = SimRng::seed_from(2);
        // Startup (X-control thinning + oscillator escape) then several
        // full phase cycles. Generous budget; leaf windows recur every
        // m·gap ≈ 12 · Θ(log n) rounds.
        let correct = |pop: &ObjPopulation<&CompiledProtocol<_, _>>| {
            pop.count_where(|ag| y.is_set(ag.flags) == x.is_set(ag.flags))
        };
        let t = pop.run_until(&mut rng, 30_000.0, 256 * n as u64, |p| {
            correct(p) == n as u64
        });
        assert!(
            t.is_some(),
            "compiled assignment completed for every agent; correct = {}/{n}",
            correct(&pop)
        );
    }
}
