//! `ppsim`'s own commands: the tools (`lint`, `compile`, `bench-diff`) and
//! the run commands. Their flags are declared in the command table of
//! [`crate::run`], which parses them; an argument error a command finds
//! itself (two flags that do not fit together, say) names the flag and
//! exits 2, like the parser's. Fractions are integer percents.

use crate::run::{backend_of, load_resume_snapshot, Checkpointer, Ctx};
use pp_analyze::{lint_builtin, lint_source, Report};
use pp_clocks::detect::{completed_periods, dominance_events, rotation_violations};
use pp_clocks::diag::rotation_recovery;
use pp_clocks::oscillator::{central_init, Dk18Oscillator, Oscillator, NUM_SPECIES};
use pp_engine::counts::CountPopulation;
use pp_engine::faults::{CorruptMode, FaultEvent, FaultSpec, FaultyPopulation};
use pp_engine::json::Json;
use pp_engine::prof;
use pp_engine::recorder::Recorder;
use pp_engine::rng::SimRng;
use pp_engine::snapshot::{hex_u64, parse_hex_u64, Checkpoint, RunSnapshot};
use pp_engine::stats::quantile_sorted;
use pp_lang::ast::Program;
use pp_lang::interp::Executor;
use pp_lang::parse::parse_program;
use pp_protocols::leader::{leader_election, leader_election_exact};
use pp_protocols::majority::{majority, majority_exact};
use pp_protocols::plurality::{plurality, plurality_exact_three};
use pp_protocols::semilinear::{
    comparison_and_parity_exact, mod_exact, parity_exact, run_settled, semilinear_comparison_exact,
    settle_budget_rounds,
};
use pp_rules::{Guard, Var};
use std::path::Path;

/// Reports an argument error; its exit code is 2.
fn arg_error(message: &str) -> u8 {
    eprintln!("error: {message}");
    2
}

/// A builtin program's name and constructor.
type Builtin = (&'static str, fn() -> Program);

/// Built-in programs the linter (and `lint --builtin all`) knows by name,
/// instantiated with the same default constants the run commands use.
const BUILTINS: &[Builtin] = &[
    ("leader", leader_election),
    ("leader-exact", leader_election_exact),
    ("majority", || majority(3)),
    ("majority-exact", || majority_exact(3)),
    ("plurality", || plurality(3, 2)),
    ("plurality-exact-three", plurality_exact_three),
    ("parity", || parity_exact(1)),
    ("mod", || mod_exact(3, 1)),
    ("comparison-parity", || comparison_and_parity_exact(1)),
    ("semilinear-comparison", || semilinear_comparison_exact(1)),
];

fn builtin_program(name: &str) -> Result<Program, String> {
    let found = BUILTINS.iter().find(|b| b.0 == name).map(|b| b.1());
    let names: Vec<&str> = BUILTINS.iter().map(|b| b.0).collect();
    found.ok_or_else(|| format!("unknown builtin {name:?} (one of: {})", names.join(" ")))
}

/// A target of `lint` or `compile`.
enum Target {
    /// The source text of a `.pp` file.
    Source(String),
    /// A builtin program.
    Builtin(Program),
}

/// Runs `check` on every target of `lint` and `compile`: each positional
/// `.pp` file, then each `--builtin` program (`all` names every builtin).
/// Exit code 1 when a target cannot be read or named or `check` fails it,
/// 2 when there is no target.
fn each_target(ctx: &Ctx, mut check: impl FnMut(&str, Target) -> bool) -> u8 {
    let builtins: Vec<&str> = ctx
        .texts("builtin")
        .flat_map(|name| match name {
            "all" => BUILTINS.iter().map(|b| b.0).collect(),
            name => vec![name],
        })
        .collect();
    if ctx.positional.is_empty() && builtins.is_empty() {
        return arg_error(&format!(
            "{} needs a protocol file or --builtin",
            ctx.command()
        ));
    }
    let files = ctx.positional.iter().map(|path| {
        let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
        (path.clone(), source.map(Target::Source))
    });
    let programs = builtins.into_iter().map(|name| {
        (
            format!("builtin:{name}"),
            builtin_program(name).map(Target::Builtin),
        )
    });
    let mut failed = false;
    for (target, what) in files.chain(programs) {
        match what {
            Ok(what) => failed |= check(&target, what),
            Err(e) => {
                eprintln!("{e}");
                failed = true;
            }
        }
    }
    u8::from(failed)
}

/// `ppsim lint`: statically analyze `.pp` files and/or built-in programs,
/// as human-readable blocks or, under `--json`, JSON Lines. Exit code 1
/// when any target has error-severity findings or cannot be read.
pub(crate) fn lint(ctx: &mut Ctx) -> u8 {
    let json = ctx.switch("json");
    each_target(ctx, |target, what| {
        let report: Report = match what {
            Target::Source(source) => lint_source(&source),
            Target::Builtin(program) => lint_builtin(&program),
        };
        if json {
            print!("{}", report.render_jsonl(target));
        } else {
            print!("{}", report.render_human(target));
        }
        report.has_errors()
    })
}

/// `ppsim compile`: report which execution backend compiles each target.
///
/// Same targets as `lint`. For each target it prints the backend decision
/// of `pp_lang::compile::choose_backend` — hierarchy (fits the precompile
/// flag budget), enumerated (reachable-state compilation with live-state
/// count, compression ratio, and dead-rule stripping), or interpreted
/// (with the reason enumeration was infeasible). Exit code 1 on
/// unreadable/unparsable targets only — every backend is a valid answer.
pub(crate) fn compile(ctx: &mut Ctx) -> u8 {
    let json = ctx.switch("json");
    each_target(ctx, |target, what| {
        let program = match what {
            Target::Source(source) => match parse_program(&source) {
                Ok(program) => program,
                Err(e) => {
                    eprintln!("{target}:{e}");
                    return true;
                }
            },
            Target::Builtin(program) => program,
        };
        print_backend(target, &program, json);
        false
    })
}

/// Prints `compile`'s backend decision for one program: one JSON line, or
/// one line of text plus, for an enumerated program, the threads whose
/// projected bits the enumeration lifts past the precompile budget.
fn print_backend(target: &str, program: &Program, json: bool) {
    use pp_lang::compile::{choose_backend, BackendChoice};
    use pp_lang::precompile::lowering_flags;
    use pp_rules::MAX_VARS;

    let declared = program.vars.len();
    let mut notes = Vec::new();
    let (backend, detail, fields) = match choose_backend(program) {
        BackendChoice::Hierarchy => (
            "hierarchy",
            format!(
                "{declared} declared variables; every thread fits the {MAX_VARS}-bit \
                 precompile budget"
            ),
            vec![],
        ),
        BackendChoice::Enumerated {
            live_states,
            dead_rules,
            total_rules,
        } => {
            notes = program
                .structured_threads()
                .map(|(name, body)| (name, declared + lowering_flags(body)))
                .filter(|&(_, projected)| projected > MAX_VARS)
                .map(|(name, projected)| {
                    format!(
                        "  thread {name}: {projected} projected bits exceed the \
                         {MAX_VARS}-bit precompile budget; enumeration bypasses it"
                    )
                })
                .collect();
            let upper = 1u64 << declared;
            let compression = upper as f64 / live_states.max(1) as f64;
            let detail = format!(
                "{live_states} live states of {upper} possible with {declared} variables, \
                 {compression:.0}x compression; {dead_rules} of {total_rules} rules dead and \
                 stripped"
            );
            let fields = vec![
                ("live_states", Json::from(live_states)),
                ("packed_states", Json::from(upper)),
                ("compression", Json::from(compression)),
                ("dead_rules", Json::from(dead_rules)),
                ("total_rules", Json::from(total_rules)),
            ];
            ("enumerated", detail, fields)
        }
        BackendChoice::Interpreted { reason } => {
            let detail = reason.to_string();
            ("interpreted", detail, vec![("reason", Json::from(reason))])
        }
    };
    if json {
        let head = [
            ("target", Json::from(target)),
            ("backend", Json::from(backend)),
            ("declared_bits", Json::from(declared)),
        ];
        println!("{}", Json::obj(head.into_iter().chain(fields)).render());
    } else {
        println!("{target}: backend {backend} ({detail})");
        for note in notes {
            println!("{note}");
        }
    }
}

/// Loads the `(bench/scenario/n/metric, rate)` rows of a
/// `BENCH_history.jsonl` snapshot, one per key in first-seen order, with
/// the median of the key's records as its rate: repeated bench runs append
/// one record per key each, and one timing per run spreads too widely to
/// gate on. A key recorded once keeps its one rate.
fn bench_history_rates(path: &str) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    // Histories are appended to by concurrently running benches; a crash
    // mid-append leaves a torn final line (no trailing newline). That line
    // is skipped with a warning — a malformed line anywhere *else* in the
    // file is real corruption and stays a hard error.
    let complete = text.ends_with('\n');
    let line_count = text.lines().count();
    let mut rates: Vec<(String, Vec<f64>)> = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = match Json::parse(line) {
            Ok(d) => d,
            Err(e) => {
                if idx + 1 == line_count && !complete {
                    eprintln!("warning: {path}: skipping torn trailing line ({e:?})");
                    continue;
                }
                return Err(format!("{path}: invalid JSONL on line {}: {e:?}", idx + 1));
            }
        };
        if doc.get("kind").and_then(Json::as_str) != Some("bench_run") {
            continue;
        }
        let fields = (
            doc.get("bench").and_then(Json::as_str),
            doc.get("scenario").and_then(Json::as_str),
            doc.get("n").and_then(Json::as_u64),
            doc.get("metric").and_then(Json::as_str),
            doc.get("rate").and_then(Json::as_f64),
        );
        let (Some(bench), Some(scenario), Some(n), Some(metric), Some(rate)) = fields else {
            return Err(format!(
                "{path}: bench_run record is missing bench/scenario/n/metric/rate"
            ));
        };
        let key = format!("{bench}/{scenario}/n={n}/{metric}");
        if let Some(slot) = rates.iter_mut().find(|(k, _)| *k == key) {
            slot.1.push(rate);
        } else {
            rates.push((key, vec![rate]));
        }
    }
    Ok(rates
        .into_iter()
        .map(|(key, mut runs)| {
            runs.sort_by(f64::total_cmp);
            (key, quantile_sorted(&runs, 0.5))
        })
        .collect())
}

/// `ppsim bench-diff`: compare two `BENCH_history.jsonl` snapshots.
///
/// Each file's rate for a key is the median of its records of that key.
/// Exit 0 when every shared rate is within tolerance, 1 when any shared
/// rate fell more than `--tolerance-pct` (default 25) below its baseline,
/// 2 on usage or input errors (including snapshots that share no rate —
/// a silent empty comparison must not pass CI). Records whose metric is
/// `ratio` are printed and marked `reported`, never gated: a ratio of two
/// rates falls when its denominator speeds up, and the two rates are
/// gated themselves.
pub(crate) fn bench_diff(ctx: &mut Ctx) -> u8 {
    let tolerance_pct = match ctx.text("tolerance-pct").map(str::parse::<f64>) {
        None => 25.0,
        Some(Ok(t)) if (0.0..100.0).contains(&t) => t,
        Some(_) => {
            return arg_error(&format!(
                "flag --tolerance-pct needs a number in [0, 100), got {:?}",
                ctx.text("tolerance-pct").unwrap_or_default()
            ))
        }
    };
    let rates = |path: &str| bench_history_rates(path).inspect_err(|e| eprintln!("error: {e}"));
    let (Ok(base), Ok(cur)) = (rates(&ctx.positional[0]), rates(&ctx.positional[1])) else {
        return 2;
    };
    let mut shared = 0usize;
    let mut reported = 0usize;
    let mut regressed = 0usize;
    for (key, base_rate) in &base {
        let Some((_, cur_rate)) = cur.iter().find(|(k, _)| k == key) else {
            println!("  {key}: missing from current snapshot");
            continue;
        };
        if key.ends_with("/ratio") {
            reported += 1;
            println!("  {key}: {base_rate:.3e} -> {cur_rate:.3e} reported");
            continue;
        }
        shared += 1;
        if *base_rate <= 0.0 {
            println!("  {key}: baseline rate is zero, skipping comparison");
            continue;
        }
        let delta_pct = (cur_rate - base_rate) / base_rate * 100.0;
        let floor = base_rate * (1.0 - tolerance_pct / 100.0);
        let verdict = if *cur_rate < floor {
            regressed += 1;
            "REGRESSION"
        } else {
            "ok"
        };
        println!("  {key}: {base_rate:.3e} -> {cur_rate:.3e} ({delta_pct:+.1}%) {verdict}");
    }
    if shared == 0 {
        eprintln!("error: the snapshots share no rate (nothing was compared)");
        return 2;
    }
    println!(
        "bench-diff: {shared} shared rate(s), {reported} ratio(s) reported, \
         {regressed} regression(s) beyond {tolerance_pct}% tolerance"
    );
    u8::from(regressed > 0)
}

/// `ppsim run-file`: runs a `.pp` program, or a builtin one, for `--iters`
/// good iterations. `--in-NAME count` puts `count` agents with the input
/// flag NAME set; the rest start blank. The record gets one `iteration`
/// line per iteration.
pub(crate) fn run_file(ctx: &mut Ctx) -> u8 {
    let program = match (ctx.positional.first(), ctx.text("builtin")) {
        (Some(path), None) => std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|source| parse_program(&source).map_err(|e| format!("{path}:{e}"))),
        (None, Some(name)) => builtin_program(name),
        _ => return arg_error("run-file takes a protocol file or --builtin NAME, not both"),
    };
    let program = match program {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    let (n, iters) = (ctx.num("n"), ctx.num("iters"));
    println!("{}", program.render());
    let mut groups: Vec<(Vec<Var>, u64)> = Vec::new();
    for (name, count) in ctx.prefixed("in-") {
        let input = program
            .vars
            .get(name)
            .filter(|v| program.inputs.contains(v));
        let Some(var) = input else {
            return arg_error(&format!("flag --in-{name}: {name:?} is no input variable"));
        };
        groups.push((vec![var], count));
    }
    let assigned: u64 = groups.iter().map(|g| g.1).sum();
    if assigned > n {
        return arg_error("the --in-NAME groups exceed --n");
    }
    groups.push((vec![], n - assigned));
    let mut exec = Executor::new(&program, &groups, ctx.num("seed"));
    for i in 0..iters {
        exec.run_iteration();
        ctx.observe(
            "iteration",
            [
                ("iteration", Json::from(i + 1)),
                ("rounds", Json::from(exec.rounds())),
            ],
        );
    }
    println!("after {iters} iterations ≈ {:.0} rounds:", exec.rounds());
    for (v, name) in program.vars.iter() {
        println!("  #{name} = {}", exec.count_where(&Guard::var(v)));
    }
    0
}

/// `ppsim leader` and `leader-exact`: iterate until one leader is left.
/// The record gets the leader count after every iteration.
pub(crate) fn leader(ctx: &mut Ctx) -> u8 {
    let program = if ctx.command() == "leader" {
        leader_election()
    } else {
        leader_election_exact()
    };
    let n = ctx.num("n");
    let l = program.vars.get("L").expect("leader programs define L");
    let mut exec = Executor::new(&program, &[(vec![], n)], ctx.num("seed"));
    let converged = exec.run_until(5_000, |e| {
        let leaders = e.count_where(&Guard::var(l));
        ctx.observe(
            "leaders",
            [
                ("iteration", Json::from(e.iterations())),
                ("rounds", Json::from(e.rounds())),
                ("count", Json::from(leaders)),
            ],
        );
        leaders == 1
    });
    if let Some(iters) = converged {
        println!(
            "unique leader after {iters} iterations ≈ {:.0} parallel rounds (n = {n})",
            exec.rounds()
        );
        0
    } else {
        eprintln!("did not converge within the iteration budget");
        1
    }
}

/// `ppsim majority`: one good iteration of the majority program; exit 1
/// on a wrong or split answer.
pub(crate) fn majority_cmd(ctx: &mut Ctx) -> u8 {
    let n = ctx.num("n");
    let a_count = ctx.given("a").unwrap_or(n / 2 + 1);
    let b_count = ctx.given("b").unwrap_or(n / 2 - 1);
    if a_count + b_count > n || a_count == b_count {
        return arg_error("flags --a and --b need a + b <= n and a != b");
    }
    let program = majority(3);
    let a = program.vars.get("A").expect("majority defines A");
    let b = program.vars.get("B").expect("majority defines B");
    let y = program.vars.get("Y_A").expect("majority defines Y_A");
    let mut exec = Executor::new(
        &program,
        &[
            (vec![a], a_count),
            (vec![b], b_count),
            (vec![], n - a_count - b_count),
        ],
        ctx.num("seed"),
    );
    exec.run_iteration();
    let on = exec.count_where(&Guard::var(y));
    let answer = if on == exec.n() {
        "A"
    } else if on == 0 {
        "B"
    } else {
        "split (rerun)"
    };
    let truth = if a_count > b_count { "A" } else { "B" };
    println!(
        "majority says {answer} (truth {truth}) after {:.0} rounds; #A={a_count} #B={b_count} n={n}",
        exec.rounds()
    );
    u8::from(answer != truth)
}

/// `ppsim plurality`: one good iteration over `--colors` colours with
/// skewed shares; exit 1 when no colour or a wrong one wins.
pub(crate) fn plurality_cmd(ctx: &mut Ctx) -> u8 {
    let n = ctx.num("n");
    let colors = ctx.num("colors") as usize;
    let program = plurality(colors, 2);
    // Deterministic skewed shares: color i gets weight i. Rounding
    // down can tie the largest shares at small n.
    let weight_total: u64 = (1..=colors as u64).sum();
    let shares: Vec<u64> = (1..=colors as u64).map(|i| n * i / weight_total).collect();
    let var = |name: String| program.vars.get(&name).expect("plurality defines C_i, W_i");
    let mut groups: Vec<_> = shares
        .iter()
        .enumerate()
        .map(|(i, &share)| (vec![var(format!("C{}", i + 1))], share))
        .collect();
    groups.push((vec![], n - shares.iter().sum::<u64>()));
    let top = shares.iter().copied().max().unwrap_or(0);
    let expected: Vec<usize> = (1..=colors).filter(|&i| shares[i - 1] == top).collect();
    let expected_text = match expected.as_slice() {
        [only] => format!("expected {only}"),
        tied => {
            let tied: Vec<String> = tied.iter().map(usize::to_string).collect();
            format!("tie between colors {}, any accepted", tied.join(", "))
        }
    };
    let mut exec = Executor::new(&program, &groups, ctx.num("seed"));
    exec.run_iteration();
    for i in 1..=colors {
        if exec.count_where(&Guard::var(var(format!("W{i}")))) == exec.n() {
            println!(
                "plurality winner: color {i} ({expected_text}) after {:.0} rounds",
                exec.rounds()
            );
            return u8::from(!expected.contains(&i));
        }
    }
    eprintln!("no unanimous winner (rerun with another seed)");
    1
}

/// `ppsim parity`: the exact parity program until its answer settles.
pub(crate) fn parity(ctx: &mut Ctx) -> u8 {
    let (n, a_count) = (ctx.num("n"), ctx.num("a"));
    if a_count > n {
        return arg_error("flag --a must be at most --n");
    }
    let program = parity_exact(1);
    let a = program.vars.get("A").expect("parity defines A");
    let p = program.vars.get("P").expect("parity defines P");
    let truth = a_count % 2 == 1;
    let mut exec = Executor::new(
        &program,
        &[(vec![a], a_count), (vec![], n - a_count)],
        ctx.num("seed"),
    );
    let done = run_settled(&mut exec, |e| {
        let on = e.count_where(&Guard::var(p));
        (on == e.n()) == truth && (on == 0) != truth
    });
    if let Some(iters) = done {
        println!(
            "#A = {a_count} is {}; settled after {iters} iterations \
             (right from there through {:.0} rounds)",
            if truth { "odd" } else { "even" },
            exec.rounds()
        );
        0
    } else {
        eprintln!(
            "answer not settled within {:.0} rounds \
             (parity is exact but polynomial-time)",
            2.0 * settle_budget_rounds(n)
        );
        1
    }
}

/// Encodes oscillator trace rows for the snapshot meta (times as JSON
/// numbers, counts hex-encoded like every other u64 in the format).
fn rows_to_json(rows: &[(f64, [u64; NUM_SPECIES])]) -> Json {
    Json::arr(rows.iter().map(|(t, sp)| {
        Json::Arr(vec![
            Json::from(*t),
            Json::Arr(sp.iter().map(|&c| hex_u64(c)).collect()),
        ])
    }))
}

/// Decodes trace rows written by [`rows_to_json`].
fn rows_from_json(j: Option<&Json>) -> Result<Vec<(f64, [u64; NUM_SPECIES])>, String> {
    let arr = j
        .and_then(Json::as_arr)
        .ok_or("snapshot meta is missing its trace rows")?;
    let mut rows = Vec::with_capacity(arr.len());
    for row in arr {
        let pair = row
            .as_arr()
            .filter(|p| p.len() == 2)
            .ok_or("bad trace row in snapshot meta")?;
        let t = pair[0].as_f64().ok_or("trace row time is not a number")?;
        let counts = pair[1].as_arr().ok_or("trace row is missing counts")?;
        if counts.len() != NUM_SPECIES {
            return Err(format!("trace row holds {} species counts", counts.len()));
        }
        let mut sp = [0u64; NUM_SPECIES];
        for (slot, c) in sp.iter_mut().zip(counts) {
            *slot = parse_hex_u64(c)?;
        }
        rows.push((t, sp));
    }
    Ok(rows)
}

/// The shape of a checkpointable run (`oscillator`, or `faults` when it
/// carries a fault spec): everything `resume` reads back from the snapshot
/// meta to rebuild the simulator and continue byte-identically.
struct RunShape {
    /// The run id of the run's record header; resumed runs keep it.
    run: String,
    n: u64,
    x: u64,
    rounds: u64,
    seed: u64,
    /// The injection schedule of a `faults` run; `None` for `oscillator`.
    spec: Option<FaultSpec>,
}

impl RunShape {
    /// The shape of a fresh `oscillator` or `faults` run, from its flags.
    /// `--x` defaults to n^0.3 and may not exceed n.
    fn from_flags(ctx: &Ctx, spec: Option<FaultSpec>) -> Result<Self, String> {
        let n = ctx.num("n");
        let x = ctx
            .given("x")
            .unwrap_or(((n as f64).powf(0.3) as u64).max(1));
        if x > n {
            return Err(format!("flag --x must be at most --n ({n}), got {x}"));
        }
        Ok(Self {
            run: ctx.run.clone(),
            n,
            x,
            rounds: ctx.num("rounds"),
            seed: ctx.num("seed"),
            spec,
        })
    }

    /// The shape a checkpoint's meta records, with the checkpoint cadence
    /// and the step the next checkpoint is due at.
    fn from_meta(meta: &Json, run: &str) -> Result<(Self, u64, u64), String> {
        let num = |key: &str| {
            meta.get(key)
                .ok_or_else(|| format!("snapshot meta is missing {key:?}"))
                .and_then(parse_hex_u64)
        };
        let command = meta.get("command").and_then(Json::as_str).unwrap_or("");
        let spec = match (command, meta.get("spec")) {
            ("oscillator", _) => None,
            ("faults", Some(j)) => Some(
                FaultSpec::parse(&j.render())
                    .map_err(|e| format!("snapshot carries an invalid fault spec: {e}"))?,
            ),
            ("faults", None) => return Err("faults snapshot is missing its fault spec".into()),
            (other, _) => {
                return Err(format!(
                    "snapshot was produced by non-resumable command {other:?}"
                ))
            }
        };
        let shape = Self {
            run: run.to_string(),
            n: num("n")?,
            x: num("x")?,
            rounds: num("rounds")?,
            seed: num("seed")?,
            spec,
        };
        Ok((shape, num("checkpoint_every")?, num("next_checkpoint")?))
    }

    fn command(&self) -> &'static str {
        if self.spec.is_some() {
            "faults"
        } else {
            "oscillator"
        }
    }

    /// The snapshot meta for a checkpoint taken with cadence `every`, next
    /// due at step `next`, after the species rows `rows`.
    fn checkpoint_meta(&self, every: u64, next: u64, rows: &[(f64, [u64; NUM_SPECIES])]) -> Json {
        let mut fields = vec![
            ("command", Json::from(self.command())),
            ("run", Json::from(self.run.as_str())),
            ("n", hex_u64(self.n)),
            ("x", hex_u64(self.x)),
            ("rounds", hex_u64(self.rounds)),
            ("seed", hex_u64(self.seed)),
            ("checkpoint_every", hex_u64(every)),
            ("next_checkpoint", hex_u64(next)),
            ("rows", rows_to_json(rows)),
        ];
        if let Some(spec) = &self.spec {
            fields.push(("spec", spec.to_json()));
        }
        Json::obj(fields)
    }
}

/// `ppsim oscillator` and `ppsim faults`: the DK18 oscillator from its
/// central configuration, for `faults` under the fault spec of its flags.
/// An error in the flags, the spec file included, exits 2.
pub(crate) fn oscillator(ctx: &mut Ctx) -> u8 {
    let spec = (ctx.command() == "faults").then(|| fault_spec_from_flags(ctx));
    let fresh = spec.transpose().and_then(|spec| {
        let ckpt = match (ctx.given("checkpoint-every"), ctx.text("checkpoint-dir")) {
            (None, None) => None,
            (Some(every), Some(dir)) => {
                Some(Checkpointer::open(Path::new(dir), every, every, None)?)
            }
            _ => return Err("--checkpoint-every and --checkpoint-dir go together".into()),
        };
        Ok((RunShape::from_flags(ctx, spec)?, ckpt))
    });
    match fresh {
        Ok((shape, ckpt)) => run_checkpointed(&shape, None, ckpt, ctx),
        Err(e) => arg_error(&e),
    }
}

/// Builds a [`FaultSpec`] from the flags: an explicit `--spec` file wins;
/// otherwise `--corrupt-*` / `--churn-*` / `--byz-*` flags compose
/// injectors, defaulting to one recurring byzantine dent (40% of the
/// population pinned into a species state every 120 rounds) when no fault
/// flag is given at all.
fn fault_spec_from_flags(ctx: &Ctx) -> Result<FaultSpec, String> {
    if let Some(path) = ctx.text("spec") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        return FaultSpec::parse(&text).map_err(|e| format!("{path}: invalid fault spec: {e}"));
    }
    let osc = Dk18Oscillator::new();
    let species0 = osc.species_state(0) as u64;
    let mut spec = FaultSpec::new(ctx.num("seed") ^ 0xfa17);
    let mut any = false;
    if let Some(at) = ctx.given("corrupt-at") {
        let frac = ctx.num("corrupt-pct") as f64 / 100.0;
        let mode = match ctx.text("corrupt-mode") {
            None | Some("randomize") => CorruptMode::Randomize,
            Some("zero") => CorruptMode::Zero,
            Some(other) => {
                return Err(format!(
                    "unknown --corrupt-mode {other:?} (randomize or zero)"
                ))
            }
        };
        spec = spec.corrupt(at as f64, frac, mode);
        any = true;
    }
    if let Some(every) = ctx.given("churn-every") {
        let frac = ctx.num("churn-pct") as f64 / 100.0;
        // Default churned agents to rejoining in a species state, not the
        // source state X (the raw oscillator cannot shed excess X).
        let reset = ctx.given("churn-state").unwrap_or(species0) as usize;
        spec = spec.churn(every as f64, frac, reset);
        any = true;
    }
    if ctx.given("byz-count").is_some() || ctx.given("byz-every").is_some() || !any {
        let count = ctx.given("byz-count").unwrap_or(ctx.num("n") * 2 / 5);
        let pin = ctx.given("byz-state").unwrap_or(species0) as usize;
        spec = spec.byzantine(count, pin, ctx.num("byz-every") as f64);
    }
    Ok(spec)
}

/// The run loop `oscillator` and `faults` share, fresh or resumed: one
/// parallel round per `step_batch`, a species row after each, and a
/// checkpoint whenever the cadence comes due.
/// A resumed run restores the simulator, the RNG, the counters (into the
/// recorder, which it then installs) and the rows recorded before the
/// checkpoint. Returns every row of the run, or `None` when the snapshot
/// does not restore.
fn species_rows<S: Checkpoint>(
    shape: &RunShape,
    pop: &mut S,
    resume: Option<&RunSnapshot>,
    mut ckpt: Option<Checkpointer>,
    mut recorder: Option<&mut Recorder>,
) -> Option<Vec<(f64, [u64; NUM_SPECIES])>> {
    let osc = Dk18Oscillator::new();
    let mut rows = Vec::new();
    let mut rng = match resume {
        None => SimRng::seed_from(shape.seed),
        Some(snap) => {
            let restored = match recorder.as_deref_mut() {
                Some(rec) => snap.resume(pop, rec),
                None => snap.resume_into(pop),
            };
            match restored.and_then(|rng| Ok((rng, rows_from_json(snap.meta.get("rows"))?))) {
                Ok((rng, saved)) => {
                    rows = saved;
                    rng
                }
                Err(e) => {
                    eprintln!("error: cannot resume: {e}");
                    return None;
                }
            }
        }
    };
    // Only a resumed run hands its recorder down: it is installed once the
    // snapshot's counters are in it. A fresh run's was installed by the
    // run path.
    let _installed = recorder.map(Recorder::install);
    while pop.time() < shape.rounds as f64 {
        let out = pop.step_batch(&mut rng, shape.n);
        {
            // A profiled run times the sampling on its own, so it cannot
            // pass for engine time.
            let _obs = prof::section(prof::Section::Observer);
            rows.push((pop.time(), osc.species_counts(&pop.counts())));
        }
        if let Some(c) = ckpt.as_mut() {
            c.maybe_save(pop.steps(), |every, next| {
                RunSnapshot::capture(&*pop, &rng)
                    .with_meta(shape.checkpoint_meta(every, next, &rows))
            });
        }
        if out.silent && out.executed == 0 {
            break;
        }
    }
    Some(rows)
}

/// Runs a checkpointable command, fresh or resumed, and prints its report:
/// `oscillator` prints the dominance summary over the whole run (rows a
/// resumed snapshot carried included); `faults` reports, per injection,
/// whether dominance rotation returned to its pre-fault period statistics,
/// and exits 1 if any injection failed to recover within the measurement
/// window. An injection that moved no agent, or that left less than a
/// window of rows after it, is reported as not judged and fails nothing.
/// The record gets every species row of the run, and the dominance periods
/// (`oscillator`) or the fault events (`faults`).
fn run_checkpointed(
    shape: &RunShape,
    resume: Option<&RunSnapshot>,
    ckpt: Option<Checkpointer>,
    ctx: &mut Ctx,
) -> u8 {
    let osc = Dk18Oscillator::new();
    let mut inner = CountPopulation::from_counts(&osc, &central_init(&osc, shape.n, shape.x));
    let Some(spec) = &shape.spec else {
        let Some(rows) = species_rows(shape, &mut inner, resume, ckpt, ctx.recorder.as_mut())
        else {
            return 1;
        };
        oscillator_report(shape, &rows, ctx);
        return 0;
    };
    let mut pop = match FaultyPopulation::new(inner, spec) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: invalid fault spec: {e}");
            return 1;
        }
    };
    let Some(rows) = species_rows(shape, &mut pop, resume, ckpt, ctx.recorder.as_mut()) else {
        return 1;
    };
    species_lines(ctx, &rows);
    for e in pop.events() {
        ctx.push(FaultEvent::to_json(e));
    }
    let window = ctx.num("window") as f64;
    let &RunShape {
        n, x, rounds, seed, ..
    } = shape;
    println!(
        "faults n={n} #X={x} seed={seed}: {} injections over {rounds} rounds ({})",
        pop.events().len(),
        spec.to_json().render(),
    );
    let end = rows.last().map_or(0.0, |&(t, _)| t);
    let mut failed = 0usize;
    for e in pop.events() {
        // A dent that moved nobody, or one with less than a window of rows
        // after it, has no recovery to judge.
        let verdict = if e.moved == 0 {
            "not judged: no agent moved".to_string()
        } else if end - e.time < window {
            format!("not judged: {:.1} of {window} rounds remain", end - e.time)
        } else {
            // Window each measurement so the next injection cannot
            // contaminate it; rotation_recovery builds its baseline from
            // pre-fault rows.
            let rows: Vec<_> = rows
                .iter()
                .copied()
                .filter(|(t, _)| *t <= e.time + window)
                .collect();
            match rotation_recovery(&rows, 0.8, e.time, 0.35) {
                Some(r) => format!(
                    "recovered in {:.1} rounds (pre-fault period {:.1})",
                    r.recovery_time, r.pre_median
                ),
                None => {
                    failed += 1;
                    format!("NOT recovered within {window} rounds")
                }
            }
        };
        println!(
            "  t={:7.1} {:<9} hit={:<6} moved={:<6} {verdict}",
            e.time, e.kind, e.hit, e.moved
        );
    }
    u8::from(failed > 0)
}

/// The run record's species lines, one per row.
fn species_lines(ctx: &mut Ctx, rows: &[(f64, [u64; NUM_SPECIES])]) {
    for (t, sp) in rows {
        let counts = Json::arr(sp.iter().map(|&c| Json::from(c)));
        ctx.observe("species", [("time", Json::from(*t)), ("counts", counts)]);
    }
}

/// The `oscillator` summary line: dominance events, rotation violations,
/// and the mean, median and 90th-percentile rotation period, each `NaN`
/// when no period completed. The record gets the species rows and the
/// periods the summary is made of.
fn oscillator_report(shape: &RunShape, rows: &[(f64, [u64; NUM_SPECIES])], ctx: &mut Ctx) {
    let &RunShape { n, x, .. } = shape;
    let events = dominance_events(rows, 0.8);
    let done = completed_periods(&events);
    species_lines(ctx, rows);
    for &(t, p) in &done {
        ctx.observe(
            "period",
            [("time", Json::from(t)), ("rounds", Json::from(p))],
        );
    }
    let mut per: Vec<f64> = done.iter().map(|&(_, p)| p).collect();
    let mean = per.iter().sum::<f64>() / per.len() as f64;
    per.sort_by(f64::total_cmp);
    let (mean, q50, q90) = if per.is_empty() {
        (f64::NAN, f64::NAN, f64::NAN)
    } else {
        (mean, quantile_sorted(&per, 0.5), quantile_sorted(&per, 0.9))
    };
    println!(
        "oscillator n={n} #X={x}: {} dominance events, {} rotation violations, mean period {mean:.1} rounds, p50 {q50:.1}, p90 {q90:.1} (log2 n = {:.1})",
        events.len(),
        rotation_violations(&events),
        (n as f64).log2()
    );
}

/// `ppsim resume <snapshot.snap|checkpoint-dir>`: continue an interrupted
/// checkpointed run. The run shape (command, n, x, rounds, seed, fault
/// spec, checkpoint cadence, run id) comes from the snapshot meta, so the
/// continuation is byte-identical to the uninterrupted run; `--record` and
/// `--window` are given on the resume command line as usual. The record's
/// header keeps the resumed run's id (this run's id is the fallback for
/// snapshots that carry none) and names the generation it continues from.
pub(crate) fn resume(ctx: &mut Ctx) -> u8 {
    let Some((snap, store_dir, generation)) = load_resume_snapshot(&ctx.positional[0]) else {
        return 1;
    };
    if let Some(run) = snap.meta.get("run").and_then(Json::as_str) {
        ctx.run = run.to_string();
    }
    let (shape, every, next) = match RunShape::from_meta(&snap.meta, &ctx.run) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let ckpt = store_dir.and_then(
        |dir| match Checkpointer::open(&dir, every, next, generation) {
            Ok(c) => Some(c),
            Err(e) => {
                eprintln!("warning: {e}; continuing without checkpoints");
                None
            }
        },
    );
    let command = shape.command();
    let mut header = ctx.header(Some(shape.n), Some(shape.seed), backend_of(command));
    if let Json::Obj(fields) = &mut header {
        let from = [
            ("command", Json::from(command)),
            ("generation", generation.map_or(Json::Null, Json::from)),
        ];
        fields.push(("resumed_from".to_string(), Json::obj(from)));
    }
    ctx.push(header);
    run_checkpointed(&shape, Some(&snap), ckpt, ctx)
}
