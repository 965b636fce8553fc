//! `hierarchy_leader`: `LeaderElection` compiled onto the real clock
//! hierarchy and run agent by agent.
//!
//! Each trial compiles the program with `CompiledProtocol::new` (DK18
//! oscillator, pairwise-elimination junta, detector depth 6), builds an
//! `ObjPopulation` of compiled agents and runs it for a fixed number of
//! rounds, as E13 does. No count vectors and no pmf draws are involved.

use std::collections::BTreeMap;
use std::hint::black_box;

use pp_clocks::junta::PairwiseElimination;
use pp_clocks::oscillator::Dk18Oscillator;
use pp_engine::json::Json;
use pp_engine::obj::{ObjPopulation, ObjProtocol};
use pp_engine::rng::SimRng;
use pp_lang::compile::{CompiledAgent, CompiledProtocol};
use pp_lang::precompile::precompile;
use pp_lang::Program;
use pp_protocols::leader::leader_election;
use pp_rules::Var;

use crate::trace::Tracer;
use crate::util::{derive, probe_ns, timed, SplitMix};
use crate::{Checker, Layers, Size, Trial, Workload};

/// Detector depth of the compiled hierarchy, as in E13.
const DETECTOR_K: u8 = 6;

/// Rounds per `run_rounds` call.
const CHUNK_ROUNDS: f64 = 500.0;

/// Set-ups per trial: one takes ~70 µs, too short to time alone.
const SETUP_REPS: u32 = 20;

fn compile(program: &Program) -> CompiledProtocol<Dk18Oscillator, PairwiseElimination> {
    CompiledProtocol::new(
        program,
        Dk18Oscillator::new(),
        PairwiseElimination::new(),
        DETECTOR_K,
    )
}

/// The workload.
pub struct HierarchyLeader {
    n: usize,
    rounds: f64,
    program: Program,
    l: Var,
    steps: u64,
    /// Agents at the end of the last trial, for the probes.
    last_agents: Vec<CompiledAgent>,
}

impl HierarchyLeader {
    /// The workload at `size`.
    #[must_use]
    pub fn new(size: Size) -> Self {
        let (n, rounds) = match size {
            Size::Full => (500, 8_000.0),
            Size::Smoke => (100, 8_000.0),
        };
        let program = leader_election();
        let l = program.vars.get("L").expect("LeaderElection defines L");
        Self {
            n,
            rounds,
            program,
            l,
            steps: 0,
            last_agents: Vec::new(),
        }
    }
}

impl Workload for HierarchyLeader {
    fn config(&self) -> Json {
        Json::obj([
            ("n", Json::from(self.n)),
            ("rounds_per_trial", Json::from(self.rounds)),
            ("detector_k", Json::from(u64::from(DETECTOR_K))),
            ("setup_reps", Json::from(u64::from(SETUP_REPS))),
        ])
    }

    fn trial_cost_s(&self) -> f64 {
        0.43
    }

    fn trial(&mut self, seed: u64, tr: &mut Tracer, check: &mut Checker) -> Trial {
        let n = self.n;
        let program = &self.program;
        let ((), extra_s) = timed(|| {
            for _ in 1..SETUP_REPS {
                let c = compile(program);
                black_box(ObjPopulation::from_fn(&c, n, |_| c.initial_agent(&[])));
            }
        });
        let (compiled, compile_s) = timed(|| tr.span("lang.compile.new_s", |_| compile(program)));
        let (mut pop, from_s) =
            timed(|| ObjPopulation::from_fn(&compiled, n, |_| compiled.initial_agent(&[])));
        let mut rng = SimRng::seed_from(seed);
        let ((), run_s) = timed(|| {
            while pop.time() < self.rounds {
                tr.span("engine.obj.run_rounds_s", |_| {
                    pop.run_rounds(CHUNK_ROUNDS, &mut rng);
                });
            }
        });
        let l = self.l;
        let leaders = pop.count_where(|a| l.is_set(a.flags));
        check.expect((1..n as u64).contains(&leaders));
        self.steps += pop.steps();
        self.last_agents = pop.iter().copied().collect();
        Trial {
            setup_s: (extra_s + compile_s + from_s) / f64::from(SETUP_REPS),
            run_s,
            rounds: pop.time(),
        }
    }

    fn layer_metrics(&mut self, self_s: &BTreeMap<String, f64>, out: &mut Layers) {
        let run_s = self_s
            .get("engine.obj.run_rounds_s")
            .copied()
            .unwrap_or(0.0);
        out.set(
            "engine.obj.ns_per_step",
            run_s * 1e9 / self.steps as f64,
            "ns",
        );

        let precompile_ns = probe_ns(11, 20, || {
            black_box(precompile(&self.program));
        });
        out.set("lang.precompile.precompile_s", precompile_ns * 1e-9, "s");

        // Interactions on pairs drawn from the last trial's population.
        let compiled = compile(&self.program);
        let agents = &self.last_agents;
        let mut g = SplitMix::new(derive(self.n as u64, 11));
        let pairs: Vec<(usize, usize)> = (0..4_096)
            .map(|_| {
                let i = g.range(0, agents.len() as u64 - 1) as usize;
                let j = (i + 1 + g.range(0, agents.len() as u64 - 2) as usize) % agents.len();
                (i, j)
            })
            .collect();
        let mut rng = SimRng::seed_from(derive(self.n as u64, 12));
        let mut k = 0;
        let compile_ns = probe_ns(21, 4_096, || {
            let (i, j) = pairs[k % pairs.len()];
            k += 1;
            black_box(compiled.interact(&agents[i], &agents[j], &mut rng));
        });
        out.set("lang.compile.interact_ns", compile_ns, "ns");
        let hierarchy = compiled.hierarchy();
        let clock_ns = probe_ns(21, 4_096, || {
            let (i, j) = pairs[k % pairs.len()];
            k += 1;
            black_box(hierarchy.interact(&agents[i].clock, &agents[j].clock, &mut rng));
        });
        out.set("clocks.hierarchy.interact_ns", clock_ns, "ns");
    }
}
