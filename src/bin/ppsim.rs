//! `ppsim` — command-line runner for the paper's protocols.
//!
//! ```text
//! ppsim list
//! ppsim lint          protocol.pp --builtin leader --json
//! ppsim compile       protocol.pp --builtin all --json
//! ppsim run-file      protocol.pp --n 500 --iters 30
//! ppsim run-file      --builtin plurality-exact-three --n 3000 --in-C1 1000
//! ppsim leader        --n 10000 --seed 7
//! ppsim leader-exact  --n 1000
//! ppsim majority      --n 10000 --a 5001 --b 4999
//! ppsim plurality     --n 3000 --colors 3
//! ppsim parity        --n 200 --a 7
//! ppsim oscillator    --n 50000 --rounds 300
//! ppsim faults        --n 4000 --byz-count 1600 --byz-every 120
//! ppsim resume        /tmp/ck --record run.jsonl
//! ppsim profile       oscillator --n 100000 --record run.jsonl
//! ppsim bench-diff    BENCH_history.jsonl new_history.jsonl --tolerance-pct 25
//! ```
//!
//! Every run command (`run-file`, `leader`, `leader-exact`, `majority`,
//! `plurality`, `parity`, `oscillator`, `faults`, `resume`) accepts
//! `--record <path>`, which writes the run record: one JSON Lines
//! file that opens with a `{"kind":"run",…}` header (run id, command,
//! arguments, `n`, seed, backend, host cores), continues with the run's
//! events (the paper observables, each naming the run id, then for
//! `faults` one `fault_event` line per injection, then one `dispatch` line
//! per engine batch) and closes with the engine's `metrics_report`.
//! Unprofiled, no line carries a wall-clock time, so two runs with the
//! same arguments write the same bytes (DESIGN.md §14). Unknown flags are
//! errors.
//!
//! The long-running commands (`oscillator`, `faults`) accept
//! `--checkpoint-every <steps> --checkpoint-dir <dir>` to write crash-safe
//! rotating snapshots; `ppsim resume <dir|snapshot.snap>` continues an
//! interrupted run byte-identically (DESIGN.md §15), degrading gracefully
//! past corrupt generations.
//!
//! `profile <command> [its flags]` runs a run command exactly as it runs
//! alone, with the in-engine section profiler switched on: the command's
//! own output comes first, then a self-time/total-time tree of where the
//! hot paths spent their wall time and one `regimes:` line of the regime
//! counters. Its run record is the unprofiled one plus a `profile_report`
//! line (the tree, the wall time and the attributed fraction) before the
//! footer, the one record line that carries times. `bench-diff` compares
//! two `BENCH_history.jsonl` snapshots and exits non-zero when any shared
//! metric regressed beyond the tolerance.
//!
//! `faults` runs the oscillator under an injection schedule (a JSON spec
//! file via `--spec`, or composed from `--corrupt-*` / `--churn-*` /
//! `--byz-*` flags) and reports, per injection, whether dominance rotation
//! recovered its pre-fault period statistics within `--window` rounds;
//! one that moved no agent, or came less than a window before the run's
//! end, is reported as not judged. Fractions are given as integer percents
//! (`--corrupt-pct 10` = 10%).

use population_protocols::core::analyze::{lint_builtin, lint_source};
use population_protocols::core::clocks::detect::{
    completed_periods, dominance_events, rotation_violations,
};
use population_protocols::core::clocks::diag::rotation_recovery;
use population_protocols::core::clocks::oscillator::{
    central_init, Dk18Oscillator, Oscillator, NUM_SPECIES,
};
use population_protocols::core::engine::counts::CountPopulation;
use population_protocols::core::engine::faults::{
    CorruptMode, FaultEvent, FaultSpec, FaultyPopulation,
};
use population_protocols::core::engine::json::{to_jsonl, Json};
use population_protocols::core::engine::prof;
use population_protocols::core::engine::recorder::Recorder;
use population_protocols::core::engine::rng::SimRng;
use population_protocols::core::engine::sim::Simulator;
use population_protocols::core::engine::snapshot::{
    crc64, hex_u64, load_path, parse_hex_u64, RunSnapshot, SnapshotStore,
};
use population_protocols::core::engine::stats::quantile_sorted;
use population_protocols::core::lang::ast::Program;
use population_protocols::core::lang::interp::Executor;
use population_protocols::core::lang::parse::parse_program;
use population_protocols::core::protocols::leader::{leader_election, leader_election_exact};
use population_protocols::core::protocols::majority::{majority, majority_exact};
use population_protocols::core::protocols::plurality::{plurality, plurality_exact_three};
use population_protocols::core::protocols::semilinear::{
    comparison_and_parity_exact, mod_exact, parity_exact, run_settled, semilinear_comparison_exact,
    settle_budget_rounds,
};
use population_protocols::core::rules::{Guard, Var};
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Integer-valued flags any command may take (`in-*` is also allowed for
/// `run-file` input groups). Fractions are integer percents.
const NUM_FLAGS: &[&str] = &[
    "n",
    "seed",
    "a",
    "b",
    "colors",
    "rounds",
    "x",
    "iters",
    "corrupt-at",
    "corrupt-pct",
    "churn-every",
    "churn-pct",
    "churn-state",
    "byz-count",
    "byz-state",
    "byz-every",
    "window",
    "checkpoint-every",
];
/// String-valued flags (paths, `--corrupt-mode randomize|zero` and
/// `run-file`'s `--builtin NAME`).
const STR_FLAGS: &[&str] = &[
    "record",
    "spec",
    "corrupt-mode",
    "checkpoint-dir",
    "builtin",
];

#[derive(Default)]
struct Flags {
    nums: HashMap<String, u64>,
    strs: HashMap<String, String>,
}

impl Flags {
    fn num(&self, key: &str, default: u64) -> u64 {
        *self.nums.get(key).unwrap_or(&default)
    }
}

/// Parses `--key value` pairs. Unknown flags, missing values, and
/// non-integer values for numeric flags are hard errors — a typo must not
/// silently run the default configuration.
fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut i = 0;
    while i < args.len() {
        let Some(key) = args[i].strip_prefix("--") else {
            return Err(format!(
                "unexpected argument {:?} (flags are --key value)",
                args[i]
            ));
        };
        let Some(value) = args.get(i + 1) else {
            return Err(format!("flag --{key} is missing a value"));
        };
        if NUM_FLAGS.contains(&key) || key.starts_with("in-") {
            let parsed = value
                .parse()
                .map_err(|_| format!("flag --{key} needs an integer value, got {value:?}"))?;
            flags.nums.insert(key.to_string(), parsed);
        } else if STR_FLAGS.contains(&key) {
            flags.strs.insert(key.to_string(), value.clone());
        } else {
            return Err(format!("unknown flag --{key}"));
        }
        i += 2;
    }
    Ok(flags)
}

/// Built-in programs the linter (and `lint --builtin all`) knows by name,
/// instantiated with the same default constants the run commands use.
const BUILTINS: &[&str] = &[
    "leader",
    "leader-exact",
    "majority",
    "majority-exact",
    "plurality",
    "plurality-exact-three",
    "parity",
    "mod",
    "comparison-parity",
    "semilinear-comparison",
];

fn builtin_program(name: &str) -> Option<Program> {
    Some(match name {
        "leader" => leader_election(),
        "leader-exact" => leader_election_exact(),
        "majority" => majority(3),
        "majority-exact" => majority_exact(3),
        "plurality" => plurality(3, 2),
        "plurality-exact-three" => plurality_exact_three(),
        "parity" => parity_exact(1),
        "mod" => mod_exact(3, 1),
        "comparison-parity" => comparison_and_parity_exact(1),
        "semilinear-comparison" => semilinear_comparison_exact(1),
        _ => return None,
    })
}

/// `ppsim lint`: statically analyze `.pp` files and/or built-in programs.
///
/// Arguments are positional file paths plus repeatable `--builtin NAME`
/// (`--builtin all` lints every registered builtin) and `--json` (emit
/// JSON Lines instead of human-readable blocks). Exit code 1 when any
/// target has error-severity findings or cannot be read.
fn run_lint(args: &[String]) -> u8 {
    let mut files: Vec<&str> = Vec::new();
    let mut builtins: Vec<&str> = Vec::new();
    let mut json = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json = true,
            "--builtin" => {
                let Some(name) = args.get(i + 1) else {
                    eprintln!("error: --builtin is missing a name (one of: {BUILTINS:?} or all)");
                    return 1;
                };
                if name == "all" {
                    builtins.extend(BUILTINS);
                } else {
                    builtins.push(name);
                }
                i += 1;
            }
            flag if flag.starts_with("--") => {
                eprintln!("error: unknown lint flag {flag} (expected --builtin NAME or --json)");
                return 1;
            }
            path => files.push(path),
        }
        i += 1;
    }
    if files.is_empty() && builtins.is_empty() {
        eprintln!("usage: ppsim lint [protocol.pp ...] [--builtin NAME|all] [--json]");
        return 1;
    }

    let emit = |target: &str, report: &population_protocols::core::analyze::Report| -> bool {
        if json {
            print!("{}", report.render_jsonl(target));
        } else {
            print!("{}", report.render_human(target));
        }
        report.has_errors()
    };
    let mut failed = false;
    for path in files {
        match std::fs::read_to_string(path) {
            Ok(source) => failed |= emit(path, &lint_source(&source)),
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                failed = true;
            }
        }
    }
    for name in builtins {
        match builtin_program(name) {
            Some(program) => failed |= emit(&format!("builtin:{name}"), &lint_builtin(&program)),
            None => {
                eprintln!("unknown builtin {name:?} (one of: {})", BUILTINS.join(" "));
                failed = true;
            }
        }
    }
    u8::from(failed)
}

/// `ppsim compile`: report which execution backend compiles each target.
///
/// Same grammar as `lint` (positional `.pp` files, repeatable
/// `--builtin NAME|all`, `--json`). For each target it prints the backend
/// decision of `pp_lang::compile::choose_backend` — hierarchy (fits the
/// precompile flag budget), enumerated (reachable-state compilation with
/// live-state count, compression ratio, and dead-rule stripping), or
/// interpreted (with the reason enumeration was infeasible). Exit code 1
/// on unreadable/unparsable targets only — every backend is a valid
/// answer.
fn run_compile(args: &[String]) -> u8 {
    use population_protocols::core::lang::compile::{choose_backend, BackendChoice};
    use population_protocols::core::lang::precompile::lowering_flags;
    use population_protocols::core::rules::MAX_VARS;

    let mut files: Vec<&str> = Vec::new();
    let mut builtins: Vec<&str> = Vec::new();
    let mut json = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json = true,
            "--builtin" => {
                let Some(name) = args.get(i + 1) else {
                    eprintln!("error: --builtin is missing a name (one of: {BUILTINS:?} or all)");
                    return 1;
                };
                if name == "all" {
                    builtins.extend(BUILTINS);
                } else {
                    builtins.push(name);
                }
                i += 1;
            }
            flag if flag.starts_with("--") => {
                eprintln!("error: unknown compile flag {flag} (expected --builtin NAME or --json)");
                return 1;
            }
            path => files.push(path),
        }
        i += 1;
    }
    if files.is_empty() && builtins.is_empty() {
        eprintln!("usage: ppsim compile [protocol.pp ...] [--builtin NAME|all] [--json]");
        return 1;
    }

    let emit = |target: &str, program: &Program| {
        let declared = program.vars.len();
        let over_budget: Vec<(String, usize)> = program
            .structured_threads()
            .map(|(name, body)| (name.to_string(), declared + lowering_flags(body)))
            .filter(|&(_, projected)| projected > MAX_VARS)
            .collect();
        match choose_backend(program) {
            BackendChoice::Hierarchy => {
                if json {
                    let line = Json::obj([
                        ("target", Json::from(target)),
                        ("backend", Json::from("hierarchy")),
                        ("declared_bits", Json::from(declared)),
                    ]);
                    println!("{}", line.render());
                } else {
                    println!(
                        "{target}: backend hierarchy ({declared} declared variables; every \
                         thread fits the {MAX_VARS}-bit precompile budget)"
                    );
                }
            }
            BackendChoice::Enumerated {
                live_states,
                dead_rules,
                total_rules,
            } => {
                let upper = 1u64 << declared;
                let compression = upper as f64 / live_states.max(1) as f64;
                if json {
                    let line = Json::obj([
                        ("target", Json::from(target)),
                        ("backend", Json::from("enumerated")),
                        ("declared_bits", Json::from(declared)),
                        ("live_states", Json::from(live_states)),
                        ("packed_states", Json::from(upper)),
                        ("compression", Json::from(compression)),
                        ("dead_rules", Json::from(dead_rules)),
                        ("total_rules", Json::from(total_rules)),
                    ]);
                    println!("{}", line.render());
                } else {
                    println!(
                        "{target}: backend enumerated ({live_states} live states of {upper} \
                         possible with {declared} variables, {compression:.0}x compression; \
                         {dead_rules} of {total_rules} rules dead and stripped)"
                    );
                    for (name, projected) in &over_budget {
                        println!(
                            "  thread {name}: {projected} projected bits exceed the \
                             {MAX_VARS}-bit precompile budget; enumeration bypasses it"
                        );
                    }
                }
            }
            BackendChoice::Interpreted { reason } => {
                if json {
                    let line = Json::obj([
                        ("target", Json::from(target)),
                        ("backend", Json::from("interpreted")),
                        ("declared_bits", Json::from(declared)),
                        ("reason", Json::from(reason)),
                    ]);
                    println!("{}", line.render());
                } else {
                    println!("{target}: backend interpreted ({reason})");
                }
            }
        }
    };

    let mut failed = false;
    for path in files {
        match std::fs::read_to_string(path) {
            Ok(source) => match parse_program(&source) {
                Ok(program) => emit(path, &program),
                Err(e) => {
                    eprintln!("{path}:{e}");
                    failed = true;
                }
            },
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                failed = true;
            }
        }
    }
    for name in builtins {
        match builtin_program(name) {
            Some(program) => emit(&format!("builtin:{name}"), &program),
            None => {
                eprintln!("unknown builtin {name:?} (one of: {})", BUILTINS.join(" "));
                failed = true;
            }
        }
    }
    u8::from(failed)
}

/// Periodic crash-safe checkpointing for the long-running commands
/// (`oscillator`, `faults`), configured by `--checkpoint-every <steps>` plus
/// `--checkpoint-dir <dir>`. Snapshots are written atomically and rotated
/// ([`SnapshotStore`]); `ppsim resume <dir|file>` continues from the newest
/// valid generation.
struct Checkpointer {
    store: SnapshotStore,
    /// Checkpoint cadence in scheduler steps.
    every: u64,
    /// Next step threshold at which to save.
    next: u64,
}

/// Generations kept per checkpoint directory (newest K survive rotation).
const CHECKPOINT_KEEP: usize = 3;

impl Checkpointer {
    /// Builds a checkpointer from the CLI flags; the two checkpoint flags
    /// must be given together.
    fn from_flags(flags: &Flags) -> Result<Option<Self>, String> {
        match (
            flags.nums.get("checkpoint-every"),
            flags.strs.get("checkpoint-dir"),
        ) {
            (None, None) => Ok(None),
            (Some(&every), Some(dir)) => {
                if every == 0 {
                    return Err("--checkpoint-every must be > 0 steps".to_string());
                }
                let store = SnapshotStore::open(dir, CHECKPOINT_KEEP)
                    .map_err(|e| format!("cannot open checkpoint dir {dir}: {e}"))?;
                Ok(Some(Self {
                    store,
                    every,
                    next: every,
                }))
            }
            _ => Err("--checkpoint-every and --checkpoint-dir must be given together".to_string()),
        }
    }

    /// Saves a checkpoint when `steps` crossed the cadence threshold. The
    /// builder receives `(every, next_threshold_after_this_save)` so the
    /// cadence position rides along in the snapshot meta and a resumed run
    /// checkpoints at the same step boundaries. Save failures are warnings:
    /// losing a checkpoint must not kill the run it protects.
    fn maybe_save<F>(&mut self, steps: u64, snap: F)
    where
        F: FnOnce(u64, u64) -> Result<RunSnapshot, String>,
    {
        if steps < self.next {
            return;
        }
        while self.next <= steps {
            self.next += self.every;
        }
        let saved = snap(self.every, self.next)
            .and_then(|s| self.store.save(&s).map(|_| ()).map_err(|e| e.to_string()));
        if let Err(e) = saved {
            eprintln!("warning: checkpoint save failed: {e}");
        }
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

/// Reads a required hex-encoded u64 field from the snapshot meta.
fn meta_u64(meta: &Json, key: &str) -> Result<u64, String> {
    parse_hex_u64(
        meta.get(key)
            .ok_or_else(|| format!("snapshot meta is missing {key:?}"))?,
    )
}

/// Backend a run command executes on, for the run record's header.
fn backend_name(command: &str) -> &'static str {
    match command {
        "oscillator" => "CountPopulation",
        "faults" => "FaultyPopulation<CountPopulation>",
        "run-file" | "leader" | "leader-exact" | "majority" | "plurality" | "parity" => {
            "Executor (SparseCountPopulation per site, with rule-weighted leaps)"
        }
        _ => "none",
    }
}

/// A command's arguments without `--record <path>`: what the run record's
/// header names, and what its run id is derived from.
fn record_args(args: &[String]) -> Vec<String> {
    let mut kept = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--record" {
            it.next();
        } else {
            kept.push(arg.clone());
        }
    }
    kept
}

/// The run id: a checksum of the command and its arguments, with no clock
/// or random component, so reruns share it.
fn run_id(command: &str, args: &[String]) -> String {
    let line = Json::arr(
        std::iter::once(command)
            .chain(args.iter().map(String::as_str))
            .map(Json::from),
    );
    format!("{:016x}", crc64(line.render().as_bytes()))
}

/// The header line of a run record.
fn record_header(
    run: &str,
    command: &str,
    args: &[String],
    n: u64,
    seed: u64,
    backend: &str,
) -> Json {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    Json::obj([
        ("kind", Json::from("run")),
        ("run", Json::from(run)),
        ("command", Json::from(command)),
        (
            "args",
            Json::arr(args.iter().map(|a| Json::from(a.as_str()))),
        ),
        ("n", Json::from(n)),
        ("seed", Json::from(seed)),
        ("backend", Json::from(backend)),
        ("host_cores", Json::from(cores as u64)),
    ])
}

/// Writes a run record to `path`: `lines` (the header and the paper
/// observables), one line per dispatch record, the `profile_report` of a
/// profiled run, and the metrics report as the footer. Dispatch lines are
/// rendered one at a time, since a long program run keeps millions of them.
fn write_record(
    path: &str,
    lines: &[Json],
    recorder: &Recorder,
    profile: Option<&Json>,
) -> std::io::Result<()> {
    let path = Path::new(path);
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(to_jsonl(lines).as_bytes())?;
    for d in recorder.dispatch() {
        writeln!(out, "{}", d.to_json().render())?;
    }
    if let Some(report) = profile {
        writeln!(out, "{}", report.render())?;
    }
    writeln!(out, "{}", recorder.metrics().to_json().render())?;
    out.flush()
}

/// Loads the `(bench/scenario/n/metric, rate)` rows of a
/// `BENCH_history.jsonl` snapshot, keeping the last occurrence of each key
/// (histories append, so the newest run is the snapshot value).
fn bench_history_rates(path: &str) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    // Histories are appended to by concurrently running benches; a crash
    // mid-append leaves a torn final line (no trailing newline). That line
    // is skipped with a warning — a malformed line anywhere *else* in the
    // file is real corruption and stays a hard error.
    let complete = text.ends_with('\n');
    let line_count = text.lines().count();
    let mut rates: Vec<(String, f64)> = Vec::new();
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
            slot.1 = rate;
        } else {
            rates.push((key, rate));
        }
    }
    Ok(rates)
}

/// `ppsim bench-diff`: compare two `BENCH_history.jsonl` snapshots.
///
/// Exit 0 when every shared rate is within tolerance, 1 when any shared
/// rate fell more than `--tolerance-pct` (default 25) below its baseline,
/// 2 on usage or input errors (including snapshots that share no rate —
/// a silent empty comparison must not pass CI). Records whose metric is
/// `ratio` are printed and marked `reported`, never gated: a ratio of two
/// rates falls when its denominator speeds up, and the two rates are
/// gated themselves.
fn run_bench_diff(args: &[String]) -> u8 {
    let mut tolerance_pct = 25.0f64;
    let mut paths: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--tolerance-pct" => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("error: --tolerance-pct is missing a value");
                    return 2;
                };
                match v.parse::<f64>() {
                    Ok(t) if (0.0..100.0).contains(&t) => tolerance_pct = t,
                    _ => {
                        eprintln!("error: --tolerance-pct needs a number in [0, 100), got {v:?}");
                        return 2;
                    }
                }
                i += 1;
            }
            flag if flag.starts_with("--") => {
                eprintln!("error: unknown bench-diff flag {flag}");
                return 2;
            }
            p => paths.push(p),
        }
        i += 1;
    }
    let [baseline_path, current_path] = paths[..] else {
        eprintln!("usage: ppsim bench-diff <baseline.jsonl> <current.jsonl> [--tolerance-pct T]");
        return 2;
    };
    let base = match bench_history_rates(baseline_path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let cur = match bench_history_rates(current_path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
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

fn usage() -> ExitCode {
    eprintln!(
        "usage: ppsim <command> [--n N] [--seed S] [--record FILE] [...]\n\
         commands:\n\
         \tlist                         list available protocols\n\
         \tlint [protocol.pp ...] [--builtin NAME|all] [--json]  static analysis\n\
         \tcompile [protocol.pp ...] [--builtin NAME|all] [--json]  backend decision\n\
         \t             (hierarchy / enumerated live-state stats / interpreted)\n\
         \trun-file     <protocol.pp>|--builtin NAME [--n --seed --iters --in-NAME C]\n\
         \t             run a .pp program or a builtin one (names as for lint)\n\
         \tleader       [--n --seed]    w.h.p. leader election (Thm 3.1)\n\
         \tleader-exact [--n --seed]    always-correct leader election (Thm 6.1)\n\
         \tmajority     [--n --a --b --seed]  exact majority (Thm 3.2)\n\
         \tplurality    [--n --colors --seed] plurality consensus\n\
         \tparity       [--n --a --seed]      #A odd? (slow blackbox)\n\
         \toscillator   [--n --x --rounds --seed]  the DK18-style oscillator\n\
         \tresume       <snapshot.snap|checkpoint-dir>  continue an interrupted\n\
         \t             checkpointed oscillator/faults run, byte-identically\n\
         \tfaults       [--n --x --rounds --seed --spec FILE\n\
         \t              --corrupt-at R --corrupt-pct P --corrupt-mode randomize|zero\n\
         \t              --churn-every R --churn-pct P --churn-state S\n\
         \t              --byz-count K --byz-state S --byz-every R --window R]\n\
         \t             oscillator under fault injection + recovery report\n\
         \tprofile      <{}> [its flags]\n\
         \t             run a run command with the section profiler on: its output,\n\
         \t             then the self/total-time tree and the regime counts\n\
         \tbench-diff   <baseline.jsonl> <current.jsonl> [--tolerance-pct T]\n\
         \t             compare two BENCH_history.jsonl snapshots (exit 1 on regression)\n\
         global flags:\n\
         \t--record FILE    write the run record (JSON Lines) on exit: a header,\n\
         \t                 the paper observables, per-batch dispatch decisions,\n\
         \t                 fault events, and the engine metrics as the footer\n\
         \t--checkpoint-every N --checkpoint-dir DIR  (oscillator, faults)\n\
         \t                 write a crash-safe rotating snapshot every N steps;\n\
         \t                 resume with `ppsim resume DIR`",
        RUN_COMMANDS.join("|")
    );
    ExitCode::FAILURE
}

/// A paper-observable line of the run record: its kind, the run id, then
/// `fields`.
fn observable<const N: usize>(kind: &str, run: &str, fields: [(&str, Json); N]) -> Json {
    Json::obj(
        [("kind", Json::from(kind)), ("run", Json::from(run))]
            .into_iter()
            .chain(fields),
    )
}

/// Runs one command. `args` are its arguments without `--record` and `run`
/// its run id, for the record header `resume` writes; `record` collects
/// the run record's observable lines when `--record` is given.
#[allow(clippy::too_many_lines)]
fn run_command(
    command: &str,
    path: Option<&str>,
    args: &[String],
    flags: &Flags,
    run: &str,
    mut record: Option<&mut Vec<Json>>,
    recorder: Option<&mut Recorder>,
) -> u8 {
    let n = flags.num("n", 1_000);
    let seed = flags.num("seed", 42);
    match command {
        "list" => {
            println!(
                "leader leader-exact majority plurality parity oscillator faults run-file resume lint \
                 compile profile bench-diff"
            );
            0
        }
        "run-file" => {
            let program = match (path, flags.strs.get("builtin")) {
                (Some(path), None) => std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {path}: {e}"))
                    .and_then(|source| parse_program(&source).map_err(|e| format!("{path}:{e}"))),
                (None, Some(name)) => builtin_program(name).ok_or_else(|| {
                    format!("unknown builtin {name:?} (one of: {})", BUILTINS.join(" "))
                }),
                _ => Err(
                    "usage: ppsim run-file <protocol.pp>|--builtin NAME [--n N] [--seed S] \
                          [--iters I] [--in-NAME C]"
                        .to_string(),
                ),
            };
            let program = match program {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("{e}");
                    return 1;
                }
            };
            let iters = flags.num("iters", 20);
            println!("{}", program.render());
            // Input groups: `--in-NAME count` puts `count` agents with the
            // input flag NAME set; the rest start blank.
            let mut groups: Vec<(Vec<Var>, u64)> = Vec::new();
            let mut assigned = 0u64;
            for (key, &count) in &flags.nums {
                if let Some(name) = key.strip_prefix("in-") {
                    let Some(var) = program.vars.get(name) else {
                        eprintln!("unknown input variable {name:?}");
                        return 1;
                    };
                    groups.push((vec![var], count));
                    assigned += count;
                }
            }
            if assigned > n {
                eprintln!("input groups exceed n");
                return 1;
            }
            groups.push((vec![], n - assigned));
            let mut exec = Executor::new(&program, &groups, seed);
            for i in 0..iters {
                exec.run_iteration();
                if let Some(r) = record.as_deref_mut() {
                    r.push(observable(
                        "iteration",
                        run,
                        [
                            ("iteration", Json::from(i + 1)),
                            ("rounds", Json::from(exec.rounds())),
                        ],
                    ));
                }
            }
            println!("after {iters} iterations ≈ {:.0} rounds:", exec.rounds());
            for (v, name) in program.vars.iter() {
                println!("  #{name} = {}", exec.count_where(&Guard::var(v)));
            }
            0
        }
        "leader" | "leader-exact" => {
            let program = if command == "leader" {
                leader_election()
            } else {
                leader_election_exact()
            };
            let l = program.vars.get("L").expect("leader programs define L");
            let mut exec = Executor::new(&program, &[(vec![], n)], seed);
            let converged = exec.run_until(5_000, |e| {
                let leaders = e.count_where(&Guard::var(l));
                if let Some(r) = record.as_deref_mut() {
                    r.push(observable(
                        "leaders",
                        run,
                        [
                            ("iteration", Json::from(e.iterations())),
                            ("rounds", Json::from(e.rounds())),
                            ("count", Json::from(leaders)),
                        ],
                    ));
                }
                leaders == 1
            });
            match converged {
                Some(iters) => {
                    println!(
                        "unique leader after {iters} iterations ≈ {:.0} parallel rounds (n = {n})",
                        exec.rounds()
                    );
                    0
                }
                None => {
                    eprintln!("did not converge within the iteration budget");
                    1
                }
            }
        }
        "majority" => {
            let a_count = flags.num("a", n / 2 + 1);
            let b_count = flags.num("b", n / 2 - 1);
            if a_count + b_count > n || a_count == b_count {
                eprintln!("need a + b <= n and a != b");
                return 1;
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
                seed,
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
        "plurality" => {
            let colors = flags.num("colors", 3).clamp(2, 8) as usize;
            let program = plurality(colors, 2);
            // Deterministic skewed shares: color i gets weight i. Rounding
            // down can tie the largest shares at small n.
            let weight_total: u64 = (1..=colors as u64).sum();
            let shares: Vec<u64> = (1..=colors as u64).map(|i| n * i / weight_total).collect();
            let mut groups: Vec<_> = shares
                .iter()
                .enumerate()
                .map(|(i, &share)| {
                    let c = program
                        .vars
                        .get(&format!("C{}", i + 1))
                        .expect("plurality defines C1..=colors");
                    (vec![c], share)
                })
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
            let mut exec = Executor::new(&program, &groups, seed);
            exec.run_iteration();
            for i in 1..=colors {
                let w = program
                    .vars
                    .get(&format!("W{i}"))
                    .expect("plurality defines W1..=colors");
                let count = exec.count_where(&Guard::var(w));
                if count == exec.n() {
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
        "parity" => {
            let a_count = flags.num("a", 7);
            if a_count > n {
                eprintln!("need a <= n");
                return 1;
            }
            let program = parity_exact(1);
            let a = program.vars.get("A").expect("majority defines A");
            let p = program.vars.get("P").expect("P");
            let truth = a_count % 2 == 1;
            let mut exec =
                Executor::new(&program, &[(vec![a], a_count), (vec![], n - a_count)], seed);
            let done = run_settled(&mut exec, |e| {
                let on = e.count_where(&Guard::var(p));
                (on == e.n()) == truth && (on == 0) != truth
            });
            match done {
                Some(iters) => {
                    println!(
                        "#A = {a_count} is {}; settled after {iters} iterations \
                         (right from there through {:.0} rounds)",
                        if truth { "odd" } else { "even" },
                        exec.rounds()
                    );
                    0
                }
                None => {
                    eprintln!(
                        "answer not settled within {:.0} rounds \
                         (parity is exact but polynomial-time)",
                        2.0 * settle_budget_rounds(n)
                    );
                    1
                }
            }
        }
        "oscillator" | "faults" => {
            let shape = if command == "oscillator" {
                Ok(RunShape {
                    run: run.to_string(),
                    n,
                    x: flags.num("x", ((n as f64).powf(0.3) as u64).max(1)),
                    rounds: flags.num("rounds", 300),
                    seed,
                    spec: None,
                })
            } else {
                faults_shape(flags, run)
            };
            match shape.and_then(|shape| Ok((shape, Checkpointer::from_flags(flags)?))) {
                Ok((shape, ckpt)) => run_checkpointed(&shape, None, ckpt, flags, None, record),
                Err(e) => {
                    eprintln!("error: {e}");
                    1
                }
            }
        }
        "resume" => run_resume(path, args, flags, run, recorder, record),
        _ => {
            let _ = usage();
            1
        }
    }
}

/// Builds a [`FaultSpec`] from the CLI flags: an explicit `--spec` file
/// wins; otherwise `--corrupt-*` / `--churn-*` / `--byz-*` flags compose
/// injectors, defaulting to one recurring byzantine dent (40% of the
/// population pinned into a species state every 120 rounds) when no fault
/// flag is given at all.
fn fault_spec_from_flags(flags: &Flags, n: u64, seed: u64) -> Result<FaultSpec, String> {
    if let Some(path) = flags.strs.get("spec") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        return FaultSpec::parse(&text).map_err(|e| format!("{path}: invalid fault spec: {e}"));
    }
    let osc = Dk18Oscillator::new();
    let mut spec = FaultSpec::new(seed ^ 0xfa17);
    let mut any = false;
    if let Some(&at) = flags.nums.get("corrupt-at") {
        let frac = flags.num("corrupt-pct", 10) as f64 / 100.0;
        let mode = match flags.strs.get("corrupt-mode").map(String::as_str) {
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
    if let Some(&every) = flags.nums.get("churn-every") {
        let frac = flags.num("churn-pct", 1) as f64 / 100.0;
        // Default churned agents to rejoining in a species state, not the
        // source state X (the raw oscillator cannot shed excess X).
        let reset = flags.num("churn-state", osc.species_state(0) as u64) as usize;
        spec = spec.churn(every as f64, frac, reset);
        any = true;
    }
    if flags.nums.contains_key("byz-count") || flags.nums.contains_key("byz-every") || !any {
        let count = flags.num("byz-count", n * 2 / 5);
        let pin = flags.num("byz-state", osc.species_state(0) as u64) as usize;
        spec = spec.byzantine(count, pin, flags.num("byz-every", 120) as f64);
    }
    Ok(spec)
}

/// Population size of a `ppsim faults` run without `--n`.
const FAULTS_N: u64 = 4_000;

/// The shape of a fresh `ppsim faults` run with id `run`, from its flags.
fn faults_shape(flags: &Flags, run: &str) -> Result<RunShape, String> {
    let n = flags.num("n", FAULTS_N);
    let seed = flags.num("seed", 42);
    Ok(RunShape {
        run: run.to_string(),
        n,
        x: flags.num("x", ((n as f64).powf(0.3) as u64).max(1)),
        rounds: flags.num("rounds", 470),
        seed,
        spec: Some(fault_spec_from_flags(flags, n, seed)?),
    })
}

/// The run loop `oscillator` and `faults` share, fresh or resumed: one
/// parallel round per `step_batch`, a species row after each, and a
/// checkpoint whenever the cadence comes due.
/// A resumed run restores the simulator, the RNG, the counters (into the
/// recorder, which it then installs) and the rows recorded before the
/// checkpoint. Returns every row of the run, or `None` when the snapshot
/// does not restore.
fn species_rows<S: Simulator>(
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
            let with_rows = restored.and_then(|rng| {
                rows = rows_from_json(snap.meta.get("rows"))?;
                Ok(rng)
            });
            match with_rows {
                Ok(rng) => rng,
                Err(e) => {
                    eprintln!("error: cannot resume: {e}");
                    return None;
                }
            }
        }
    };
    // Only a resumed run hands its recorder down: it is installed once the
    // snapshot's counters are in it. A fresh run's was installed by `main`.
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
                    .map(|s| s.with_meta(shape.checkpoint_meta(every, next, &rows)))
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
    flags: &Flags,
    recorder: Option<&mut Recorder>,
    record: Option<&mut Vec<Json>>,
) -> u8 {
    let osc = Dk18Oscillator::new();
    let mut inner = CountPopulation::from_counts(&osc, &central_init(&osc, shape.n, shape.x));
    let Some(spec) = &shape.spec else {
        let Some(rows) = species_rows(shape, &mut inner, resume, ckpt, recorder) else {
            return 1;
        };
        oscillator_report(shape, &rows, record);
        return 0;
    };
    let mut pop = match FaultyPopulation::new(inner, spec) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: invalid fault spec: {e}");
            return 1;
        }
    };
    let Some(rows) = species_rows(shape, &mut pop, resume, ckpt, recorder) else {
        return 1;
    };
    if let Some(r) = record {
        r.extend(species_lines(&shape.run, &rows));
        r.extend(pop.events().iter().map(FaultEvent::to_json));
    }
    let window = flags.num("window", 110) as f64;
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
fn species_lines<'a>(
    run: &'a str,
    rows: &'a [(f64, [u64; NUM_SPECIES])],
) -> impl Iterator<Item = Json> + 'a {
    rows.iter().map(move |(t, sp)| {
        let counts = Json::arr(sp.iter().map(|&c| Json::from(c)));
        observable(
            "species",
            run,
            [("time", Json::from(*t)), ("counts", counts)],
        )
    })
}

/// The `oscillator` summary line: dominance events, rotation violations,
/// and the mean, median and 90th-percentile rotation period. The record,
/// if any, gets the species rows and the periods the summary is made of.
fn oscillator_report(
    shape: &RunShape,
    rows: &[(f64, [u64; NUM_SPECIES])],
    record: Option<&mut Vec<Json>>,
) {
    let &RunShape { n, x, .. } = shape;
    let events = dominance_events(rows, 0.8);
    let done = completed_periods(&events);
    if let Some(r) = record {
        r.extend(species_lines(&shape.run, rows));
        r.extend(done.iter().map(|&(t, p)| {
            observable(
                "period",
                &shape.run,
                [("time", Json::from(t)), ("rounds", Json::from(p))],
            )
        }));
    }
    let mut per: Vec<f64> = done.iter().map(|&(_, p)| p).collect();
    let mean = per.iter().sum::<f64>() / per.len().max(1) as f64;
    per.sort_by(f64::total_cmp);
    let (q50, q90) = if per.is_empty() {
        (f64::NAN, f64::NAN)
    } else {
        (quantile_sorted(&per, 0.5), quantile_sorted(&per, 0.9))
    };
    println!(
        "oscillator n={n} #X={x}: {} dominance events, {} rotation violations, mean period {:.1} rounds, p50 {q50:.1}, p90 {q90:.1} (log2 n = {:.1})",
        events.len(),
        rotation_violations(&events),
        mean,
        (n as f64).log2()
    );
}

/// Generation number encoded in a rotating-store file name, if it is one.
fn snapshot_generation(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    name.strip_prefix("gen-")?
        .strip_suffix(".snap")?
        .parse()
        .ok()
}

/// Loads the snapshot to resume from, degrading gracefully past corruption:
/// a directory resumes from its newest valid generation (each rejected one
/// is reported and skipped); a corrupt file falls back to older generations
/// in its own directory. Returns the snapshot, the checkpoint directory the
/// continued run should keep writing into, and the snapshot's generation
/// when it came from a rotating store.
fn load_resume_snapshot(path: &str) -> Option<(RunSnapshot, Option<PathBuf>, Option<u64>)> {
    let p = Path::new(path);
    if p.is_dir() {
        let store = match SnapshotStore::open(p, CHECKPOINT_KEEP) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: cannot open checkpoint dir {path}: {e}");
                return None;
            }
        };
        let (found, rejected) = store.load_latest();
        for r in &rejected {
            eprintln!("warning: snapshot_corrupt: {}", r.detail);
        }
        return match found {
            Some((gen, file, snap)) => {
                eprintln!("resuming from {} (generation {gen})", file.display());
                Some((snap, Some(p.to_path_buf()), Some(gen)))
            }
            None => {
                eprintln!("error: no valid snapshot generation in {path}; start a fresh run");
                None
            }
        };
    }
    match load_path(p) {
        Ok(snap) => {
            // A generation file keeps checkpointing into its own store;
            // a free-standing snapshot continues without checkpoints.
            let gen = snapshot_generation(p);
            let dir = gen.and_then(|_| p.parent()).map(Path::to_path_buf);
            Some((snap, dir, gen))
        }
        Err(detail) => {
            eprintln!("warning: snapshot_corrupt: {path}: {detail}");
            let (Some(dir), Some(prev)) = (
                p.parent(),
                snapshot_generation(p).and_then(|g| g.checked_sub(1)),
            ) else {
                eprintln!("error: corrupt snapshot has no older generation to fall back to");
                return None;
            };
            let store = match SnapshotStore::open(dir, CHECKPOINT_KEEP) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: cannot open checkpoint dir {}: {e}", dir.display());
                    return None;
                }
            };
            let (found, rejected) = store.load_latest_at_most(Some(prev));
            for r in &rejected {
                eprintln!("warning: snapshot_corrupt: {}", r.detail);
            }
            match found {
                Some((gen, file, snap)) => {
                    eprintln!("falling back to {} (generation {gen})", file.display());
                    Some((snap, Some(dir.to_path_buf()), Some(gen)))
                }
                None => {
                    eprintln!(
                        "error: no older generation survives in {}; start a fresh run",
                        dir.display()
                    );
                    None
                }
            }
        }
    }
}

/// `ppsim resume <snapshot.snap|checkpoint-dir>`: continue an interrupted
/// checkpointed run. The run shape (command, n, x, rounds, seed, fault
/// spec, checkpoint cadence, run id) comes from the snapshot meta, so the
/// continuation is byte-identical to the uninterrupted run; `--record` and
/// `--window` are given on the resume command line as usual. The record's
/// header keeps the resumed run's id (`run` is the fallback for snapshots
/// that carry none) and names the generation it continues from.
fn run_resume(
    path: Option<&str>,
    args: &[String],
    flags: &Flags,
    run: &str,
    recorder: Option<&mut Recorder>,
    mut record: Option<&mut Vec<Json>>,
) -> u8 {
    let Some(path) = path else {
        eprintln!("usage: ppsim resume <snapshot.snap|checkpoint-dir> [--record FILE] [...]");
        return 1;
    };
    let Some((snap, store_dir, generation)) = load_resume_snapshot(path) else {
        return 1;
    };
    let meta = &snap.meta;
    let command = meta
        .get("command")
        .and_then(Json::as_str)
        .unwrap_or("")
        .to_string();
    let shape = meta_u64(meta, "n").and_then(|n| {
        Ok((
            n,
            meta_u64(meta, "x")?,
            meta_u64(meta, "rounds")?,
            meta_u64(meta, "seed")?,
            meta_u64(meta, "checkpoint_every")?,
            meta_u64(meta, "next_checkpoint")?,
        ))
    });
    let (n, x, rounds, seed, every, next) = match shape {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let run = meta.get("run").and_then(Json::as_str).unwrap_or(run);
    let ckpt = store_dir.and_then(|dir| match SnapshotStore::open(&dir, CHECKPOINT_KEEP) {
        Ok(store) => Some(Checkpointer { store, every, next }),
        Err(e) => {
            eprintln!(
                "warning: cannot reopen checkpoint dir {}: {e}; continuing without checkpoints",
                dir.display()
            );
            None
        }
    });
    let spec = match (command.as_str(), meta.get("spec")) {
        ("oscillator", _) => None,
        ("faults", Some(j)) => match FaultSpec::parse(&j.render()) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("error: snapshot carries an invalid fault spec: {e}");
                return 1;
            }
        },
        ("faults", None) => {
            eprintln!("error: faults snapshot is missing its fault spec");
            return 1;
        }
        (other, _) => {
            eprintln!("error: snapshot was produced by non-resumable command {other:?}");
            return 1;
        }
    };
    if let Some(r) = &mut record {
        let mut header = record_header(run, "resume", args, n, seed, backend_name(&command));
        if let Json::Obj(fields) = &mut header {
            let from = [
                ("command", Json::from(command.as_str())),
                ("generation", generation.map_or(Json::Null, Json::from)),
            ];
            fields.push(("resumed_from".to_string(), Json::obj(from)));
        }
        r.push(header);
    }
    let shape = RunShape {
        run: run.to_string(),
        n,
        x,
        rounds,
        seed,
        spec,
    };
    run_checkpointed(&shape, Some(&snap), ckpt, flags, recorder, record)
}

/// The run commands: the commands `--record` and `profile` apply to.
const RUN_COMMANDS: &[&str] = &[
    "run-file",
    "leader",
    "leader-exact",
    "majority",
    "plurality",
    "parity",
    "oscillator",
    "faults",
    "resume",
];

fn main() -> ExitCode {
    let all: Vec<String> = std::env::args().skip(1).collect();
    // `profile <command> …` runs a run command as it runs alone, with the
    // section profiler on.
    let profiled = all.first().is_some_and(|c| c == "profile");
    let args = &all[usize::from(profiled)..];
    if profiled
        && !args
            .first()
            .is_some_and(|c| RUN_COMMANDS.contains(&c.as_str()))
    {
        eprintln!(
            "error: usage: ppsim profile <command> [its flags], where <command> is a run \
             command: {}",
            RUN_COMMANDS.join(" ")
        );
        return ExitCode::FAILURE;
    }
    let Some(command) = args.first().map(String::as_str) else {
        return usage();
    };
    // `lint` has its own argument grammar (positional files, repeatable
    // `--builtin`, boolean `--json`), so it bypasses `parse_flags`.
    if command == "lint" {
        return ExitCode::from(run_lint(&args[1..]));
    }
    // `compile` shares the lint grammar.
    if command == "compile" {
        return ExitCode::from(run_compile(&args[1..]));
    }
    // `bench-diff` also carries its own grammar.
    if command == "bench-diff" {
        return ExitCode::from(run_bench_diff(&args[1..]));
    }
    // `run-file` and `resume` take a positional path before the flags.
    let (path, flag_args) = if command == "run-file" || command == "resume" {
        match args.get(1) {
            Some(p) if !p.starts_with("--") => (Some(p.as_str()), &args[2..]),
            _ => (None, &args[1..]),
        }
    } else {
        (None, &args[1..])
    };
    let flags = match parse_flags(flag_args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };

    let header_args = record_args(&args[1..]);
    let run = run_id(command, &header_args);
    let record_path = flags.strs.get("record");
    let mut recorder = (record_path.is_some() || profiled).then(|| {
        let recorder = Recorder::new();
        let recorder = if record_path.is_some() {
            recorder.with_dispatch_log()
        } else {
            recorder
        };
        if profiled {
            recorder.with_sections()
        } else {
            recorder
        }
    });
    // `resume` writes its own header, from the snapshot it continues.
    let mut record = record_path.map(|_| {
        if command == "resume" {
            return Vec::new();
        }
        let n = flags.num("n", if command == "faults" { FAULTS_N } else { 1_000 });
        let seed = flags.num("seed", 42);
        vec![record_header(
            &run,
            command,
            &header_args,
            n,
            seed,
            backend_name(command),
        )]
    });

    let started = std::time::Instant::now();
    let code = {
        // The snapshot's counters must reach a resumed run's recorder before
        // it is installed, so `resume` installs it after the restore.
        let (_installed, handed) = if command == "resume" {
            (None, recorder.as_mut())
        } else {
            (recorder.as_mut().map(Recorder::install), None)
        };
        let record = record.as_mut();
        run_command(command, path, &header_args, &flags, &run, record, handed)
    };
    let wall_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);

    let profile = recorder.as_ref().filter(|_| profiled).map(|rec| {
        let report = rec.profile();
        print!("{}", report.render_tree());
        let counters = rec.metrics();
        let regimes = [
            ("collision", "collision_epochs"),
            ("leap", "noop_leaps"),
            ("per_step", "reactive_dense_steps"),
            ("dense_fallback", "dense_fallback_entries"),
        ]
        .map(|(regime, counter)| format!("{regime}={}", counters.counter(counter)));
        println!("regimes: {}", regimes.join(" "));
        report.to_json(Some(wall_ns))
    });

    // A resume that found nothing to continue wrote no header: no record.
    if let (Some(path), Some(rec), Some(lines)) = (
        record_path,
        &recorder,
        record.filter(|lines| !lines.is_empty()),
    ) {
        if let Err(e) = write_record(path, &lines, rec, profile.as_ref()) {
            eprintln!("cannot write record {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::from(code)
}
