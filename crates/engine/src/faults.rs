//! Fault injection: seeded, composable perturbations of running populations.
//!
//! The paper's clock constructions are claimed to *self-organize*: dominance
//! rotation and phase synchrony re-establish themselves w.h.p. from wide
//! ranges of perturbed configurations. Testing that requires perturbing runs
//! on purpose. This module provides:
//!
//! * [`FaultSpec`] — a declarative, JSON-serializable description of the
//!   faults to inject (parsed with the in-repo [`crate::json`] reader, so
//!   specs can live in files and flow through CI);
//! * [`FaultPlan`] — the compiled, seeded schedule: step-indexed triggers
//!   plus an RNG stream independent of the scheduler's, so the *same*
//!   simulation seed with and without faults sees identical scheduling up to
//!   the first injection;
//! * [`FaultyPopulation`] — a wrapper implementing [`Simulator`] over any
//!   backend. Batches are split at trigger boundaries, injections are
//!   applied through [`Simulator::migrate`] (count-level state surgery, no
//!   scheduler steps consumed), and every injection is recorded as a
//!   [`FaultEvent`] and counted by the run's [`crate::recorder::Recorder`].
//!
//! ## The fault model
//!
//! Agents are exchangeable in every backend, so all injectable faults are
//! expressible as count movements:
//!
//! * **Transient corruption** — at a given parallel time, each agent
//!   independently has its state overwritten with probability `frac`:
//!   either with a uniformly random state (`randomize`, a bit-flip model) or
//!   with state 0 (`zero`, a memory-reset model).
//! * **Agent churn** — every `every_rounds` rounds, each agent crashes with
//!   probability `frac` and is immediately replaced by a fresh agent in
//!   `reset_state` (the standard balanced crash+join model that keeps `n`
//!   fixed; all backends size their structures to a constant `n`).
//! * **Byzantine pinning** — every `every_rounds` rounds, an adversary
//!   (re)establishes `count` agents in an adversarial state `pin_state`,
//!   pulling victims proportionally from the other states. Between
//!   injections the pinned agents interact normally — repeated re-pinning
//!   is what makes them adversarial rather than merely corrupted once.
//!
//! Injections never consume scheduler steps; parallel time is still
//! `steps / n`, so recovery measurements downstream compare like with like.

use crate::json::{Json, JsonError};
use crate::metrics::Counter;
use crate::recorder;
use crate::rng::SimRng;
use crate::sim::{BatchOutcome, Simulator, StepOutcome};
use crate::snapshot::{hex_u64, parse_hex_u64};

/// What corruption writes into a corrupted agent's state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptMode {
    /// Overwrite with a uniformly random state (including, possibly, the
    /// current one).
    Randomize,
    /// Overwrite with state 0 (a memory reset).
    Zero,
}

impl CorruptMode {
    /// Stable name used in specs and event logs.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            CorruptMode::Randomize => "randomize",
            CorruptMode::Zero => "zero",
        }
    }
}

/// One declarative fault in a [`FaultSpec`].
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// One-shot transient corruption at `at_round`: each agent is
    /// independently corrupted with probability `frac`.
    Corrupt {
        /// Parallel time (rounds) at which the corruption fires.
        at_round: f64,
        /// Per-agent corruption probability in `[0, 1]`.
        frac: f64,
        /// What corrupted agents' states are overwritten with.
        mode: CorruptMode,
    },
    /// Recurring balanced crash+join churn: every `every_rounds`, each agent
    /// crashes with probability `frac` and rejoins in `reset_state`.
    Churn {
        /// Injection period in rounds (> 0).
        every_rounds: f64,
        /// Per-agent crash probability in `[0, 1]`.
        frac: f64,
        /// State in which replacement agents join.
        reset_state: usize,
    },
    /// Recurring Byzantine pinning: every `every_rounds`, top the population
    /// of `pin_state` back up to `count` agents.
    Byzantine {
        /// Number of agents the adversary keeps pinned.
        count: u64,
        /// The adversarial state they are pinned to.
        pin_state: usize,
        /// Re-pinning period in rounds (> 0).
        every_rounds: f64,
    },
}

impl Fault {
    /// Stable kind name used in specs and event logs.
    #[must_use]
    pub const fn kind(&self) -> &'static str {
        match self {
            Fault::Corrupt { .. } => "corrupt",
            Fault::Churn { .. } => "churn",
            Fault::Byzantine { .. } => "byzantine",
        }
    }

    fn to_json(&self) -> Json {
        match *self {
            Fault::Corrupt {
                at_round,
                frac,
                mode,
            } => Json::obj([
                ("fault", Json::from("corrupt")),
                ("at_round", Json::from(at_round)),
                ("frac", Json::from(frac)),
                ("mode", Json::from(mode.name())),
            ]),
            Fault::Churn {
                every_rounds,
                frac,
                reset_state,
            } => Json::obj([
                ("fault", Json::from("churn")),
                ("every_rounds", Json::from(every_rounds)),
                ("frac", Json::from(frac)),
                ("reset_state", Json::from(reset_state)),
            ]),
            Fault::Byzantine {
                count,
                pin_state,
                every_rounds,
            } => Json::obj([
                ("fault", Json::from("byzantine")),
                ("count", Json::from(count)),
                ("pin_state", Json::from(pin_state)),
                ("every_rounds", Json::from(every_rounds)),
            ]),
        }
    }

    fn from_json(doc: &Json) -> Result<Self, JsonError> {
        let bad = |msg: &str| JsonError {
            pos: 0,
            msg: msg.to_string(),
        };
        let field = |key: &str| doc.get(key).ok_or_else(|| bad(&format!("missing {key}")));
        let num = |key: &str| field(key)?.as_f64().ok_or_else(|| bad("non-numeric field"));
        match field("fault")?.as_str() {
            Some("corrupt") => {
                let mode = match field("mode")?.as_str() {
                    Some("randomize") => CorruptMode::Randomize,
                    Some("zero") => CorruptMode::Zero,
                    _ => return Err(bad("mode must be \"randomize\" or \"zero\"")),
                };
                Ok(Fault::Corrupt {
                    at_round: num("at_round")?,
                    frac: num("frac")?,
                    mode,
                })
            }
            Some("churn") => Ok(Fault::Churn {
                every_rounds: num("every_rounds")?,
                frac: num("frac")?,
                reset_state: field("reset_state")?
                    .as_u64()
                    .ok_or_else(|| bad("reset_state must be an integer"))?
                    as usize,
            }),
            Some("byzantine") => Ok(Fault::Byzantine {
                count: field("count")?
                    .as_u64()
                    .ok_or_else(|| bad("count must be an integer"))?,
                pin_state: field("pin_state")?
                    .as_u64()
                    .ok_or_else(|| bad("pin_state must be an integer"))?
                    as usize,
                every_rounds: num("every_rounds")?,
            }),
            _ => Err(bad("unknown fault type")),
        }
    }

    /// Validates probabilities, periods, and state indices against a state
    /// space of size `num_states`.
    fn validate(&self, num_states: usize) -> Result<(), String> {
        let check_frac = |f: f64| {
            if (0.0..=1.0).contains(&f) {
                Ok(())
            } else {
                Err(format!("frac {f} out of [0, 1]"))
            }
        };
        let check_period = |p: f64| {
            if p > 0.0 {
                Ok(())
            } else {
                Err(format!("every_rounds {p} must be positive"))
            }
        };
        let check_state = |s: usize| {
            if s < num_states {
                Ok(())
            } else {
                Err(format!("state {s} out of range (< {num_states})"))
            }
        };
        match *self {
            Fault::Corrupt { at_round, frac, .. } => {
                check_frac(frac)?;
                if at_round < 0.0 {
                    return Err(format!("at_round {at_round} must be non-negative"));
                }
                Ok(())
            }
            Fault::Churn {
                every_rounds,
                frac,
                reset_state,
            } => {
                check_frac(frac)?;
                check_period(every_rounds)?;
                check_state(reset_state)
            }
            Fault::Byzantine {
                pin_state,
                every_rounds,
                ..
            } => {
                check_period(every_rounds)?;
                check_state(pin_state)
            }
        }
    }
}

/// A declarative, JSON-serializable fault-injection specification.
///
/// # Examples
///
/// ```
/// use pp_engine::faults::{CorruptMode, FaultSpec};
///
/// let spec = FaultSpec::new(7)
///     .corrupt(60.0, 0.2, CorruptMode::Randomize)
///     .churn(5.0, 0.01, 0);
/// let text = spec.to_json().render();
/// assert_eq!(FaultSpec::parse(&text).unwrap(), spec);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Seed of the fault RNG stream (independent of the scheduler RNG).
    pub seed: u64,
    /// The faults to inject, in declaration order.
    pub faults: Vec<Fault>,
}

impl FaultSpec {
    /// Creates an empty spec with the given fault seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            faults: Vec::new(),
        }
    }

    /// Adds a one-shot corruption fault (builder style).
    #[must_use]
    pub fn corrupt(mut self, at_round: f64, frac: f64, mode: CorruptMode) -> Self {
        self.faults.push(Fault::Corrupt {
            at_round,
            frac,
            mode,
        });
        self
    }

    /// Adds a recurring churn fault (builder style).
    #[must_use]
    pub fn churn(mut self, every_rounds: f64, frac: f64, reset_state: usize) -> Self {
        self.faults.push(Fault::Churn {
            every_rounds,
            frac,
            reset_state,
        });
        self
    }

    /// Adds a recurring Byzantine-pinning fault (builder style).
    #[must_use]
    pub fn byzantine(mut self, count: u64, pin_state: usize, every_rounds: f64) -> Self {
        self.faults.push(Fault::Byzantine {
            count,
            pin_state,
            every_rounds,
        });
        self
    }

    /// Renders the spec as a JSON document.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("kind", Json::from("fault_spec")),
            ("seed", Json::from(self.seed)),
            ("faults", Json::arr(self.faults.iter().map(Fault::to_json))),
        ])
    }

    /// Parses a spec previously rendered by [`FaultSpec::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on malformed JSON or a document that is not a
    /// fault spec.
    pub fn parse(text: &str) -> Result<Self, JsonError> {
        let doc = Json::parse(text)?;
        let bad = |msg: &str| JsonError {
            pos: 0,
            msg: msg.to_string(),
        };
        if doc.get("kind").and_then(Json::as_str) != Some("fault_spec") {
            return Err(bad("not a fault_spec document"));
        }
        let seed = doc
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("missing seed"))?;
        let faults = doc
            .get("faults")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("missing faults array"))?
            .iter()
            .map(Fault::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { seed, faults })
    }
}

/// One injection applied to a running population.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Scheduler step count at which the injection fired.
    pub step: u64,
    /// Parallel time (rounds) at which the injection fired.
    pub time: f64,
    /// Kind of the fault ("corrupt", "churn", "byzantine").
    pub kind: &'static str,
    /// Agents selected by the fault (e.g. drawn for corruption).
    pub hit: u64,
    /// Agents whose state actually changed (`hit` minus same-state writes).
    pub moved: u64,
}

impl FaultEvent {
    /// Renders the event as a JSON object (one JSONL row).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("kind", Json::from("fault_event")),
            ("fault", Json::from(self.kind)),
            ("step", Json::from(self.step)),
            ("time", Json::from(self.time)),
            ("hit", Json::from(self.hit)),
            ("moved", Json::from(self.moved)),
        ])
    }
}

/// A per-fault trigger: the next step at which it fires, plus its period in
/// steps (0 for one-shot faults, which disarm after firing).
#[derive(Debug, Clone, Copy)]
struct Trigger {
    next: u64,
    period: u64,
}

/// A compiled, seeded injection schedule for a population of a known size.
///
/// Round-denominated spec times are converted to step thresholds here, so
/// the hot path compares integers. Built by [`FaultPlan::compile`] (or
/// implicitly by [`FaultyPopulation::new`]).
#[derive(Debug, Clone)]
pub struct FaultPlan {
    rng: SimRng,
    faults: Vec<Fault>,
    triggers: Vec<Trigger>,
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Compiles `spec` for a population of `n` agents and `num_states`
    /// states.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first invalid fault (probability out of
    /// range, non-positive period, state index out of range).
    pub fn compile(spec: &FaultSpec, n: u64, num_states: usize) -> Result<Self, String> {
        for (i, fault) in spec.faults.iter().enumerate() {
            fault
                .validate(num_states)
                .map_err(|e| format!("fault #{i} ({}): {e}", fault.kind()))?;
        }
        let triggers = spec
            .faults
            .iter()
            .map(|fault| match *fault {
                Fault::Corrupt { at_round, .. } => Trigger {
                    next: (at_round * n as f64).ceil() as u64,
                    period: 0,
                },
                Fault::Churn { every_rounds, .. } | Fault::Byzantine { every_rounds, .. } => {
                    let period = ((every_rounds * n as f64).ceil() as u64).max(1);
                    Trigger {
                        next: period,
                        period,
                    }
                }
            })
            .collect();
        Ok(Self {
            rng: SimRng::seed_from(spec.seed),
            faults: spec.faults.clone(),
            triggers,
            events: Vec::new(),
        })
    }

    /// The earliest still-armed trigger step, or `None` when all one-shot
    /// faults have fired and no recurring fault exists.
    fn next_trigger(&self) -> Option<u64> {
        self.triggers
            .iter()
            .filter(|t| t.next != u64::MAX)
            .map(|t| t.next)
            .min()
    }

    /// Applies every fault due at or before `sim.steps()` and re-arms
    /// recurring triggers. Returns how many injections fired.
    fn apply_due<S: Simulator>(&mut self, sim: &mut S) -> usize {
        let now = sim.steps();
        let mut fired = 0;
        for i in 0..self.faults.len() {
            while self.triggers[i].next != u64::MAX && self.triggers[i].next <= now {
                let (hit, moved) = match self.faults[i] {
                    Fault::Corrupt { frac, mode, .. } => corrupt(sim, &mut self.rng, frac, mode),
                    Fault::Churn {
                        frac, reset_state, ..
                    } => churn(sim, &mut self.rng, frac, reset_state),
                    Fault::Byzantine {
                        count, pin_state, ..
                    } => pin_byzantine(sim, &mut self.rng, count, pin_state),
                };
                self.events.push(FaultEvent {
                    step: now,
                    time: sim.time(),
                    kind: self.faults[i].kind(),
                    hit,
                    moved,
                });
                recorder::with(|r| {
                    r.add(Counter::FaultInjections, 1);
                    r.add(Counter::FaultAgentsMoved, moved);
                });
                fired += 1;
                let t = &mut self.triggers[i];
                t.next = if t.period == 0 {
                    u64::MAX
                } else {
                    t.next + t.period
                };
            }
        }
        fired
    }

    /// Every injection applied so far, in firing order.
    #[must_use]
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Serializes the plan's resumable state: the fault RNG, each trigger's
    /// next firing step (`u64::MAX` = disarmed one-shot), and the event log.
    /// The faults themselves are *not* stored — they are recompiled from the
    /// spec when the restoring process reconstructs the plan.
    fn snapshot(&self) -> Json {
        Json::obj([
            (
                "rng",
                Json::obj([
                    (
                        "words",
                        Json::Arr(self.rng.state_words().iter().map(|&w| hex_u64(w)).collect()),
                    ),
                    (
                        "spare_normal",
                        self.rng.spare_normal_bits().map_or(Json::Null, hex_u64),
                    ),
                ]),
            ),
            (
                "triggers",
                Json::Arr(self.triggers.iter().map(|t| hex_u64(t.next)).collect()),
            ),
            (
                "events",
                Json::Arr(
                    self.events
                        .iter()
                        .map(|e| {
                            Json::obj([
                                ("step", hex_u64(e.step)),
                                ("time", Json::from(e.time)),
                                ("fault", Json::from(e.kind)),
                                ("hit", hex_u64(e.hit)),
                                ("moved", hex_u64(e.moved)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Restores trigger progress, the fault RNG, and the event log into a
    /// freshly compiled plan for the same spec.
    fn restore(&mut self, state: &Json) -> Result<(), String> {
        let rng_obj = state.get("rng").ok_or("fault plan snapshot missing rng")?;
        let words_arr = rng_obj
            .get("words")
            .and_then(Json::as_arr)
            .filter(|w| w.len() == 4)
            .ok_or("fault plan rng needs exactly 4 state words")?;
        let mut words = [0u64; 4];
        for (slot, j) in words.iter_mut().zip(words_arr) {
            *slot = parse_hex_u64(j)?;
        }
        let spare = match rng_obj.get("spare_normal") {
            None | Some(Json::Null) => None,
            Some(j) => Some(parse_hex_u64(j)?),
        };
        let rng = SimRng::from_state(words, spare).ok_or("fault plan rng state is all-zero")?;
        let trigger_arr = state
            .get("triggers")
            .and_then(Json::as_arr)
            .ok_or("fault plan snapshot missing triggers")?;
        if trigger_arr.len() != self.triggers.len() {
            return Err(format!(
                "snapshot has {} triggers, compiled plan has {} (different spec?)",
                trigger_arr.len(),
                self.triggers.len()
            ));
        }
        let mut nexts = Vec::with_capacity(trigger_arr.len());
        for j in trigger_arr {
            nexts.push(parse_hex_u64(j)?);
        }
        let event_arr = state
            .get("events")
            .and_then(Json::as_arr)
            .ok_or("fault plan snapshot missing events")?;
        let mut events = Vec::with_capacity(event_arr.len());
        for e in event_arr {
            let kind = match e.get("fault").and_then(Json::as_str) {
                Some("corrupt") => "corrupt",
                Some("churn") => "churn",
                Some("byzantine") => "byzantine",
                other => return Err(format!("unknown fault event kind {other:?}")),
            };
            events.push(FaultEvent {
                step: parse_hex_u64(e.get("step").unwrap_or(&Json::Null))?,
                time: e
                    .get("time")
                    .and_then(Json::as_f64)
                    .ok_or("fault event missing time")?,
                kind,
                hit: parse_hex_u64(e.get("hit").unwrap_or(&Json::Null))?,
                moved: parse_hex_u64(e.get("moved").unwrap_or(&Json::Null))?,
            });
        }
        self.rng = rng;
        for (t, next) in self.triggers.iter_mut().zip(nexts) {
            t.next = next;
        }
        self.events = events;
        Ok(())
    }
}

/// Transient corruption: each agent independently corrupted with
/// probability `frac`. Exchangeability makes this exact at the count level:
/// the number corrupted out of state `s` is `Binomial(count(s), frac)`, and
/// randomize-mode targets are split uniformly by sequential binomial draws.
fn corrupt<S: Simulator>(
    sim: &mut S,
    rng: &mut SimRng,
    frac: f64,
    mode: CorruptMode,
) -> (u64, u64) {
    let k = sim.num_states();
    let counts = sim.counts();
    let mut hit = 0u64;
    let mut moved = 0u64;
    for (s, &c) in counts.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let picked = rng.binomial(c, frac);
        if picked == 0 {
            continue;
        }
        hit += picked;
        match mode {
            CorruptMode::Zero => moved += sim.migrate(s, 0, picked),
            CorruptMode::Randomize => {
                // Uniform multinomial split of `picked` over all k targets.
                let mut remaining = picked;
                for t in 0..k {
                    if remaining == 0 {
                        break;
                    }
                    let share = if t + 1 == k {
                        remaining
                    } else {
                        rng.binomial(remaining, 1.0 / (k - t) as f64)
                    };
                    if share > 0 && t != s {
                        moved += sim.migrate(s, t, share);
                    }
                    remaining -= share;
                }
            }
        }
    }
    (hit, moved)
}

/// Balanced crash+join churn: each agent independently crashes with
/// probability `frac` and is replaced by a fresh agent in `reset_state`.
fn churn<S: Simulator>(sim: &mut S, rng: &mut SimRng, frac: f64, reset_state: usize) -> (u64, u64) {
    let counts = sim.counts();
    let mut hit = 0u64;
    let mut moved = 0u64;
    for (s, &c) in counts.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let picked = rng.binomial(c, frac);
        if picked == 0 {
            continue;
        }
        hit += picked;
        if s != reset_state {
            moved += sim.migrate(s, reset_state, picked);
        }
    }
    (hit, moved)
}

/// Byzantine pinning: tops the population of `pin_state` back up to `count`
/// agents, pulling victims from the other states proportionally to their
/// counts (a sequential-binomial approximation of a uniform draw without
/// replacement, followed by a greedy fill for rounding leftovers).
fn pin_byzantine<S: Simulator>(
    sim: &mut S,
    rng: &mut SimRng,
    count: u64,
    pin_state: usize,
) -> (u64, u64) {
    let have = sim.count(pin_state);
    let need = count.saturating_sub(have).min(sim.n() - have);
    if need == 0 {
        return (0, 0);
    }
    let counts = sim.counts();
    let mut pool: u64 = counts
        .iter()
        .enumerate()
        .filter(|&(s, _)| s != pin_state)
        .map(|(_, &c)| c)
        .sum();
    let mut remaining = need;
    let mut moved = 0u64;
    for (s, &c) in counts.iter().enumerate() {
        if s == pin_state || c == 0 || remaining == 0 {
            continue;
        }
        let p = (c as f64 / pool as f64).min(1.0);
        let take = rng.binomial(remaining, p).min(c);
        moved += sim.migrate(s, pin_state, take);
        remaining -= take;
        pool -= c;
    }
    // Rounding can leave a remainder; fill greedily from whatever is left.
    if remaining > 0 {
        for s in 0..sim.num_states() {
            if s == pin_state || remaining == 0 {
                continue;
            }
            let take = sim.migrate(s, pin_state, remaining);
            moved += take;
            remaining -= take;
        }
    }
    (moved, moved)
}

/// A simulation backend wrapped with a fault-injection plan.
///
/// Implements [`Simulator`] by delegation; [`Simulator::step_batch`] splits
/// batches at trigger boundaries so injections fire at the scheduled step
/// regardless of how the run loop sizes its batches. The no-faults path
/// (empty spec) adds one integer comparison per batch.
///
/// # Examples
///
/// ```
/// use pp_engine::counts::CountPopulation;
/// use pp_engine::faults::{CorruptMode, FaultSpec, FaultyPopulation};
/// use pp_engine::protocol::TableProtocol;
/// use pp_engine::rng::SimRng;
/// use pp_engine::sim::Simulator;
///
/// let p = TableProtocol::new(2, "epidemic").rule(1, 0, 1, 1).rule(0, 1, 1, 1);
/// let inner = CountPopulation::from_counts(&p, &[999, 1]);
/// let spec = FaultSpec::new(7).corrupt(2.0, 0.5, CorruptMode::Zero);
/// let mut pop = FaultyPopulation::new(inner, &spec).unwrap();
/// let mut rng = SimRng::seed_from(1);
/// pop.step_batch(&mut rng, 5_000);
/// assert_eq!(pop.events().len(), 1, "the corruption fired mid-batch");
/// ```
#[derive(Debug, Clone)]
pub struct FaultyPopulation<S> {
    inner: S,
    plan: FaultPlan,
}

impl<S: Simulator> FaultyPopulation<S> {
    /// Wraps `inner` with the faults described by `spec`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first invalid fault in the spec.
    pub fn new(inner: S, spec: &FaultSpec) -> Result<Self, String> {
        let plan = FaultPlan::compile(spec, inner.n(), inner.num_states())?;
        Ok(Self { inner, plan })
    }

    /// The wrapped backend.
    #[must_use]
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Every injection applied so far, in firing order.
    #[must_use]
    pub fn events(&self) -> &[FaultEvent] {
        self.plan.events()
    }

    /// Renders the injection log as JSON Lines.
    #[must_use]
    pub fn events_jsonl(&self) -> String {
        let rows: Vec<Json> = self.plan.events().iter().map(FaultEvent::to_json).collect();
        crate::json::to_jsonl(&rows)
    }

    /// Writes the injection log as JSON Lines to `path`, creating parent
    /// directories.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from directory creation or the write.
    pub fn write_events_jsonl(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.events_jsonl())
    }
}

impl<S: Simulator> Simulator for FaultyPopulation<S> {
    fn n(&self) -> u64 {
        self.inner.n()
    }

    fn num_states(&self) -> usize {
        self.inner.num_states()
    }

    fn steps(&self) -> u64 {
        self.inner.steps()
    }

    fn count(&self, state: usize) -> u64 {
        self.inner.count(state)
    }

    fn counts(&self) -> Vec<u64> {
        self.inner.counts()
    }

    fn migrate(&mut self, from: usize, to: usize, k: u64) -> u64 {
        self.inner.migrate(from, to, k)
    }

    fn step(&mut self, rng: &mut SimRng) -> StepOutcome {
        self.plan.apply_due(&mut self.inner);
        self.inner.step(rng)
    }

    /// Splits the batch at the next trigger boundary: runs the inner backend
    /// up to the boundary, applies the due injections, repeats. A silent
    /// inner outcome ends the batch — step-indexed triggers can never fire
    /// in a configuration whose step count no longer advances.
    fn step_batch(&mut self, rng: &mut SimRng, max_steps: u64) -> BatchOutcome {
        let pf = recorder::capture().sections;
        let target = self.inner.steps() + max_steps;
        let mut out = BatchOutcome::default();
        loop {
            // Attribute the split bookkeeping (injection application and
            // boundary computation) separately from the inner backend's own
            // sections — the guard drops before the inner batch runs.
            let split_span = crate::prof::section_if(pf, crate::prof::Section::FaultSplit);
            self.plan.apply_due(&mut self.inner);
            let now = self.inner.steps();
            if now >= target {
                break;
            }
            let sub = match self.plan.next_trigger() {
                Some(t) if t < target => (t - now).max(1),
                _ => target - now,
            };
            drop(split_span);
            let part = self.inner.step_batch(rng, sub);
            out.executed += part.executed;
            out.changed += part.changed;
            if part.silent || part.executed == 0 {
                out.silent = part.silent;
                break;
            }
        }
        out
    }

    fn backend_tag(&self) -> &'static str {
        "faulty"
    }

    /// Serializes the inner backend's state (tagged, so a restore into a
    /// wrapper over a different backend is rejected) together with the fault
    /// plan's resumable state: its RNG, per-trigger progress, and the event
    /// log. The fault *spec* is not stored; restore targets a freshly built
    /// wrapper compiled from the same spec.
    fn snapshot(&self) -> Result<Json, String> {
        Ok(Json::obj([
            ("inner_backend", Json::from(self.inner.backend_tag())),
            ("inner", self.inner.snapshot()?),
            ("plan", self.plan.snapshot()),
        ]))
    }

    fn restore(&mut self, state: &Json) -> Result<(), String> {
        let tag = state
            .get("inner_backend")
            .and_then(Json::as_str)
            .ok_or("faulty snapshot missing inner backend tag")?;
        if tag != self.inner.backend_tag() {
            return Err(format!(
                "snapshot wraps backend \"{tag}\", simulator wraps \"{}\"",
                self.inner.backend_tag()
            ));
        }
        let inner_state = state.get("inner").ok_or("faulty snapshot missing inner")?;
        let plan_state = state.get("plan").ok_or("faulty snapshot missing plan")?;
        // Restore the plan first into a scratch clone so a failure in either
        // half leaves the simulator untouched.
        let mut plan = self.plan.clone();
        plan.restore(plan_state)?;
        self.inner.restore(inner_state)?;
        self.plan = plan;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counts::{CountPopulation, SparseCountPopulation};
    use crate::matching::MatchingPopulation;
    use crate::population::Population;
    use crate::protocol::TableProtocol;
    use crate::sim::run_rounds;

    fn epidemic() -> TableProtocol {
        TableProtocol::new(2, "epidemic")
            .rule(1, 0, 1, 1)
            .rule(0, 1, 1, 1)
    }

    /// Count-invariant and never silent: timing tests use this so the step
    /// count keeps advancing no matter what the injections do.
    fn swap() -> TableProtocol {
        TableProtocol::new(2, "swap")
            .rule(0, 1, 1, 0)
            .rule(1, 0, 0, 1)
    }

    #[test]
    fn spec_roundtrips_through_json() {
        let spec = FaultSpec::new(9)
            .corrupt(60.0, 0.2, CorruptMode::Randomize)
            .corrupt(90.0, 0.1, CorruptMode::Zero)
            .churn(5.0, 0.01, 0)
            .byzantine(5, 1, 2.0);
        let text = spec.to_json().render();
        assert_eq!(FaultSpec::parse(&text).unwrap(), spec);
    }

    #[test]
    fn spec_parse_rejects_garbage() {
        assert!(FaultSpec::parse("{\"kind\":\"other\"}").is_err());
        assert!(FaultSpec::parse("{\"kind\":\"fault_spec\",\"seed\":1}").is_err());
        let bad_mode = "{\"kind\":\"fault_spec\",\"seed\":1,\"faults\":[{\"fault\":\"corrupt\",\"at_round\":1,\"frac\":0.5,\"mode\":\"scramble\"}]}";
        assert!(FaultSpec::parse(bad_mode).is_err());
    }

    #[test]
    fn compile_validates_faults() {
        let spec = FaultSpec::new(1).churn(5.0, 1.5, 0);
        let err = FaultPlan::compile(&spec, 100, 2).unwrap_err();
        assert!(err.contains("frac"), "{err}");
        let spec = FaultSpec::new(1).byzantine(3, 9, 1.0);
        assert!(FaultPlan::compile(&spec, 100, 2).is_err());
    }

    #[test]
    fn corruption_fires_once_at_the_scheduled_step() {
        let inner = CountPopulation::from_counts(swap(), &[500, 500]);
        let spec = FaultSpec::new(3).corrupt(2.0, 0.5, CorruptMode::Zero);
        let mut pop = FaultyPopulation::new(inner, &spec).unwrap();
        let mut rng = SimRng::seed_from(5);
        run_rounds(&mut pop, 6.0, &mut rng);
        assert_eq!(pop.events().len(), 1);
        let ev = &pop.events()[0];
        assert_eq!(ev.kind, "corrupt");
        assert_eq!(ev.step, 2_000, "fired exactly at round 2");
        // Binomial(1000, 0.5) agents drawn; only state-1 draws move.
        assert!((300..700).contains(&ev.hit), "hit {}", ev.hit);
        assert!(ev.moved <= ev.hit);
        assert!(ev.moved > 100, "state-1 half must be zeroed: {}", ev.moved);
    }

    #[test]
    fn churn_recurs_and_respects_period() {
        let inner = CountPopulation::from_counts(swap(), &[250, 250]);
        let spec = FaultSpec::new(4).churn(1.0, 0.1, 0);
        let mut pop = FaultyPopulation::new(inner, &spec).unwrap();
        let mut rng = SimRng::seed_from(6);
        run_rounds(&mut pop, 5.5, &mut rng);
        assert_eq!(pop.events().len(), 5, "one churn per round");
        for (i, ev) in pop.events().iter().enumerate() {
            assert_eq!(ev.kind, "churn");
            assert_eq!(ev.step, (i as u64 + 1) * 500);
        }
    }

    #[test]
    fn byzantine_pinning_tops_up_the_pinned_state() {
        // States 0 and 2 swap forever (never silent); state 1 is inert, so
        // only the adversary ever populates it.
        let p = TableProtocol::new(3, "swap02")
            .rule(0, 2, 2, 0)
            .rule(2, 0, 0, 2);
        let inner = CountPopulation::from_counts(&p, &[200, 0, 100]);
        let spec = FaultSpec::new(8).byzantine(40, 1, 1.0);
        let mut pop = FaultyPopulation::new(inner, &spec).unwrap();
        let mut rng = SimRng::seed_from(7);
        run_rounds(&mut pop, 1.0, &mut rng);
        // The trigger sits exactly at the round boundary; one more step
        // ensures it has fired.
        pop.step_batch(&mut rng, 1);
        assert_eq!(pop.count(1), 40, "pinned state topped up");
        assert_eq!(pop.events().len(), 1);
        assert_eq!(pop.events()[0].moved, 40);
    }

    #[test]
    fn no_fault_plan_matches_bare_backend_exactly() {
        // With an empty spec the wrapper must replay the identical run: the
        // scheduler RNG stream is untouched by the (never-sampled) fault RNG.
        let p = epidemic();
        let mut bare = CountPopulation::from_counts(&p, &[900, 100]);
        let mut wrapped = FaultyPopulation::new(
            CountPopulation::from_counts(&p, &[900, 100]),
            &FaultSpec::new(0),
        )
        .unwrap();
        let mut rng_a = SimRng::seed_from(11);
        let mut rng_b = SimRng::seed_from(11);
        for _ in 0..10 {
            bare.step_batch(&mut rng_a, 500);
            wrapped.step_batch(&mut rng_b, 500);
            assert_eq!(bare.counts(), wrapped.counts());
            assert_eq!(bare.steps(), wrapped.steps());
        }
        assert!(wrapped.events().is_empty());
    }

    #[test]
    fn injections_are_deterministic_for_a_fixed_seed() {
        let p = epidemic();
        let spec = FaultSpec::new(21)
            .corrupt(1.0, 0.3, CorruptMode::Randomize)
            .churn(2.0, 0.05, 0);
        let run = |seed: u64| {
            let inner = SparseCountPopulation::from_dense(&p, &[400, 100]);
            let mut pop = FaultyPopulation::new(inner, &spec).unwrap();
            let mut rng = SimRng::seed_from(seed);
            run_rounds(&mut pop, 8.0, &mut rng);
            (pop.counts(), pop.events().to_vec())
        };
        assert_eq!(run(13), run(13));
    }

    #[test]
    fn wrapper_works_over_every_backend() {
        let p = epidemic();
        let spec = FaultSpec::new(2).corrupt(1.0, 0.25, CorruptMode::Zero);
        let total = |counts: &[u64]| counts.iter().sum::<u64>();
        macro_rules! check {
            ($inner:expr) => {{
                let mut pop = FaultyPopulation::new($inner, &spec).unwrap();
                let mut rng = SimRng::seed_from(17);
                run_rounds(&mut pop, 3.0, &mut rng);
                assert_eq!(pop.events().len(), 1);
                assert_eq!(total(&pop.counts()), 600, "n is conserved");
            }};
        }
        check!(Population::from_counts(&p, &[100, 500]));
        check!(CountPopulation::from_counts(&p, &[100, 500]));
        check!(SparseCountPopulation::from_dense(&p, &[100, 500]));
        check!(MatchingPopulation::from_counts(&p, &[100, 500]));
    }

    #[test]
    fn events_render_as_jsonl() {
        let inner = CountPopulation::from_counts(swap(), &[50, 50]);
        let spec = FaultSpec::new(1).corrupt(0.5, 1.0, CorruptMode::Zero);
        let mut pop = FaultyPopulation::new(inner, &spec).unwrap();
        let mut rng = SimRng::seed_from(2);
        run_rounds(&mut pop, 1.0, &mut rng);
        let rows = crate::json::parse_jsonl(&pop.events_jsonl()).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("fault").and_then(Json::as_str), Some("corrupt"));
        // frac = 1 hits all 100 agents; exactly the 50 in state 1 move.
        assert_eq!(rows[0].get("hit").and_then(Json::as_u64), Some(100));
        assert_eq!(rows[0].get("moved").and_then(Json::as_u64), Some(50));
    }
}
