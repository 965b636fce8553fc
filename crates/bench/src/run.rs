//! The one run path of `ppsim` and the experiment binaries.
//!
//! Every command is one row of the command table: `ppsim`'s tools (`list`,
//! `lint`, `compile`, `bench-diff`), its run commands and the E1–E15
//! experiments. A row names the command's positional arguments, its flags
//! (kind, default and range) and its help line. One parser reads the
//! table, so a flag the command does not declare is an error that names
//! it. The usage text, `ppsim list`, the record header's `n` and its
//! backend name are rendered from the same rows.
//!
//! A run command or experiment given `--record FILE` writes the run record
//! (DESIGN.md §14). The record holds:
//! - a `run` header: run id, command, arguments, `n` and seed where the
//!   command takes them, backend and host cores;
//! - the run's lines: paper observables, fault events and an experiment's
//!   table rows;
//! - the engine's `metrics_report` as the footer, whose regime counters
//!   count every regime decision the engine made.
//!
//! `profile <command>` runs either kind with the section profiler on and
//! adds a `profile_report` line before the footer. A recorder is installed
//! only under `--record`, `profile` or a checkpoint, so a checkpoint always
//! carries the counters a resumed run's footer continues from (§15).

use crate::{commands, experiments, Scale};
use pp_engine::json::{to_jsonl, Json};
use pp_engine::recorder::Recorder;
use pp_engine::report::Table;
use pp_engine::snapshot::{crc64, file_generation, load_path, RunSnapshot, SnapshotStore};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// What a flag takes.
#[derive(Clone, Copy)]
enum Kind {
    /// An integer in `min..=max`. `default` is `None` when the command
    /// derives it (from `--n`, say) or the flag is off unless given.
    Int {
        default: Option<u64>,
        min: u64,
        max: u64,
    },
    /// A text value, named in the usage text by its metavariable; a list
    /// where a command reads every value given (`lint --builtin`).
    Text(&'static str),
    /// A flag without a value.
    Switch,
}

/// One flag of a command. A name ending in `-` declares every flag it
/// begins: `in-` takes `--in-C1 300`.
struct Flag {
    name: &'static str,
    kind: Kind,
}

const fn int(name: &'static str, default: Option<u64>) -> Flag {
    int_in(name, default, 0, u64::MAX)
}

const fn int_in(name: &'static str, default: Option<u64>, min: u64, max: u64) -> Flag {
    let kind = Kind::Int { default, min, max };
    Flag { name, kind }
}

const fn text(name: &'static str, meta: &'static str) -> Flag {
    let kind = Kind::Text(meta);
    Flag { name, kind }
}

const fn switch(name: &'static str) -> Flag {
    let kind = Kind::Switch;
    Flag { name, kind }
}

/// `--n`: every population needs two agents to interact.
const fn n(default: u64) -> Flag {
    int_in("n", Some(default), 2, u64::MAX)
}

const SEED: Flag = int("seed", Some(42));
const RECORD: Flag = text("record", "FILE");
const CHECKPOINT_EVERY: Flag = int_in("checkpoint-every", None, 1, u64::MAX);
const CHECKPOINT_DIR: Flag = text("checkpoint-dir", "DIR");
const WINDOW: Flag = int("window", Some(110));
const TARGETS: &[Flag] = &[text("builtin", "NAME|all"), switch("json")];
const PROGRAM: &[Flag] = &[n(1_000), SEED, RECORD];
const SCALE: &[Flag] = &[switch("quick"), switch("full"), RECORD];

/// Which run path a command takes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Prints a result; no record, no profile.
    Tool,
    /// A simulation run or an experiment: recorded and profiled alike; an
    /// experiment's record holds one `row` line per table row.
    Run,
}

/// One row of the command table.
struct Command {
    role: Role,
    name: &'static str,
    /// The positional arguments: usage text, least and most count.
    args: (&'static str, usize, usize),
    flags: &'static [Flag],
    /// What the run executes on, for the record header.
    backend: &'static str,
    main: fn(&mut Ctx) -> u8,
    help: &'static str,
}

const fn row(
    role: Role,
    name: &'static str,
    args: (&'static str, usize, usize),
    flags: &'static [Flag],
    backend: &'static str,
    main: fn(&mut Ctx) -> u8,
    help: &'static str,
) -> Command {
    Command {
        role,
        name,
        args,
        flags,
        backend,
        main,
        help,
    }
}

const NO_ARGS: (&str, usize, usize) = ("", 0, 0);
const FILES: (&str, usize, usize) = ("[protocol.pp ...]", 0, usize::MAX);
const EXECUTOR: &str = "Executor (SparseCountPopulation per site, with rule-weighted leaps)";
const COUNTS: &str = "CountPopulation";

/// Every command `ppsim` and the experiment binaries run.
#[rustfmt::skip]
static COMMANDS: &[Command] = {
    use experiments::*;
    use Role::{Run as R, Tool as T};
    &[
    row(T, "list", NO_ARGS, &[], "none", list, "list the commands"),
    row(T, "lint", FILES, TARGETS, "none", commands::lint,
        "static analysis of .pp files and builtin programs"),
    row(T, "compile", FILES, TARGETS, "none", commands::compile,
        "backend decision (hierarchy / enumerated live-state stats / interpreted)"),
    row(R, "run-file", ("[protocol.pp]", 0, 1),
        &[n(1_000), SEED, int("iters", Some(20)), int("in-", None), text("builtin", "NAME"), RECORD],
        EXECUTOR, commands::run_file,
        "run a .pp program or a builtin one; --in-NAME C: C agents with input NAME"),
    row(R, "leader", NO_ARGS, PROGRAM, EXECUTOR, commands::leader,
        "w.h.p. leader election (Thm 3.1)"),
    row(R, "leader-exact", NO_ARGS, PROGRAM, EXECUTOR, commands::leader,
        "always-correct leader election (Thm 6.1)"),
    row(R, "majority", NO_ARGS, &[n(1_000), SEED, int("a", None), int("b", None), RECORD],
        EXECUTOR, commands::majority_cmd, "exact majority (Thm 3.2); --a, --b default to n/2 ± 1"),
    row(R, "plurality", NO_ARGS, &[n(1_000), SEED, int_in("colors", Some(3), 2, 8), RECORD],
        EXECUTOR, commands::plurality_cmd, "plurality consensus over 2..=8 colours"),
    row(R, "parity", NO_ARGS, &[n(1_000), SEED, int("a", Some(7)), RECORD],
        EXECUTOR, commands::parity, "#A odd? (slow blackbox)"),
    row(R, "oscillator", NO_ARGS,
        &[n(1_000), SEED, int("x", None), int("rounds", Some(300)), CHECKPOINT_EVERY,
          CHECKPOINT_DIR, RECORD],
        COUNTS, commands::oscillator,
        "the DK18-style oscillator; --x (#X) defaults to n^0.3"),
    row(R, "faults", NO_ARGS,
        &[n(4_000), SEED, int("x", None), int("rounds", Some(470)), text("spec", "FILE"),
          int("corrupt-at", None), int_in("corrupt-pct", Some(10), 0, 100),
          text("corrupt-mode", "randomize|zero"), int("churn-every", None),
          int_in("churn-pct", Some(1), 0, 100), int("churn-state", None), int("byz-count", None),
          int("byz-state", None), int("byz-every", Some(120)), WINDOW, CHECKPOINT_EVERY,
          CHECKPOINT_DIR, RECORD],
        "FaultyPopulation<CountPopulation>", commands::oscillator,
        "oscillator under fault injection + recovery report"),
    row(R, "resume", ("<snapshot.snap|checkpoint-dir>", 1, 1), &[WINDOW, RECORD], "none",
        commands::resume, "continue a checkpointed oscillator/faults run, byte-identically"),
    row(T, "bench-diff", ("<baseline.jsonl> <current.jsonl>", 2, 2),
        &[text("tolerance-pct", "T")], "none", commands::bench_diff,
        "compare two BENCH_history.jsonl snapshots (exit 1 on regression)"),
    row(R, "e1_leader_whp", NO_ARGS, SCALE, EXECUTOR, e1_leader_whp::run,
        "E1: LeaderElection in O(log^2 n) rounds (Thm 3.1)"),
    row(R, "e2_majority_whp", NO_ARGS, SCALE, EXECUTOR, e2_majority_whp::run,
        "E2: Majority correct for any gap (Thm 3.2)"),
    row(R, "e3_x_elimination", NO_ARGS, SCALE, COUNTS, e3_x_elimination::run,
        "E3: #X elimination in O(n^eps) rounds (Prop 5.3)"),
    row(R, "e4_klevel_decay", NO_ARGS, SCALE, COUNTS, e4_klevel_decay::run,
        "E4: k-level decay and its mean-field limit (Prop 5.5)"),
    row(R, "e5_oscillator", NO_ARGS, SCALE, "CountPopulation, MatchingPopulation",
        e5_oscillator::run, "E5: oscillator escape and rotation (Thm 5.1)"),
    row(R, "e6_phase_clock", NO_ARGS, SCALE, COUNTS, e6_phase_clock::run,
        "E6: phase clock correctness and tick rate (Thm 5.2)"),
    row(R, "e7_hierarchy", NO_ARGS, SCALE, "ObjPopulation", e7_hierarchy::run,
        "E7: clock hierarchy rate separation (Sec 5.3)"),
    row(R, "e8_exact", NO_ARGS, SCALE, EXECUTOR, e8_exact::run,
        "E8: always-correct protocols (Thms 6.1-6.3)"),
    row(R, "e9_comparison", NO_ARGS, SCALE, "CountPopulation, Executor", e9_comparison::run,
        "E9: states against time across the protocol landscape"),
    row(R, "e10_semilinear", NO_ARGS, SCALE, "Executor, EnumExecutor", e10_semilinear::run,
        "E10: semi-linear predicates; compiled against interpreted (Thm 6.4)"),
    row(R, "e11_plurality", NO_ARGS, SCALE, "Executor, EnumExecutor", e11_plurality::run,
        "E11: plurality consensus; compiled against interpreted"),
    row(R, "e12_schedulers", NO_ARGS, SCALE, "CountPopulation, MatchingPopulation",
        e12_schedulers::run, "E12: asynchronous against random-matching schedulers"),
    row(R, "e13_full_stack", NO_ARGS, SCALE, "ObjPopulation", e13_full_stack::run,
        "E13: compiled programs on the real clock hierarchy (Thm 2.4)"),
    row(R, "e15_silence", NO_ARGS, SCALE, COUNTS, e15_silence::run,
        "E15: quiescence of the w.h.p. clock stack"),
    ]
};

fn find(name: &str) -> Option<&'static Command> {
    COMMANDS.iter().find(|c| c.name == name)
}

/// The backend the table names for `command`.
pub(crate) fn backend_of(command: &str) -> &'static str {
    find(command).map_or("none", |c| c.backend)
}

/// The commands `profile` and `--record` apply to.
fn profilable() -> impl Iterator<Item = &'static str> {
    COMMANDS
        .iter()
        .filter(|c| c.role != Role::Tool)
        .map(|c| c.name)
}

/// `ppsim list`: every command but `list`, and the `profile` prefix.
fn list(_: &mut Ctx) -> u8 {
    let names: Vec<_> = COMMANDS
        .iter()
        .map(|c| c.name)
        .filter(|&n| n != "list")
        .collect();
    println!("{} profile", names.join(" "));
    0
}

/// A command's arguments and flags as its usage line shows them, each
/// flag with its default or metavariable.
fn synopsis(cmd: &Command) -> Vec<String> {
    let args = Some(cmd.args.0.to_string()).filter(|a| !a.is_empty());
    let flags = cmd.flags.iter().map(|flag| {
        let name = match flag.name {
            prefix if prefix.ends_with('-') => format!("{prefix}NAME"),
            name => name.to_string(),
        };
        match flag.kind {
            Kind::Int { default, .. } => {
                format!(
                    "[--{name} {}]",
                    default.map_or("N".into(), |d| d.to_string())
                )
            }
            Kind::Text(meta) => format!("[--{name} {meta}]"),
            Kind::Switch => format!("[--{name}]"),
        }
    });
    args.into_iter().chain(flags).collect()
}

/// The usage text: every command with its flags and help line.
fn usage() -> String {
    const INDENT: &str = "\t             ";
    let mut out = String::from(
        "usage: ppsim [profile] <command> [arguments] [--flag value ...]\ncommands:\n",
    );
    for cmd in COMMANDS {
        let mut line = format!("\t{:<12}", cmd.name);
        for word in synopsis(cmd) {
            if line.len() + word.len() > 78 {
                out.push_str(&line);
                out.push('\n');
                line = INDENT.to_string();
            } else {
                line.push(' ');
            }
            line.push_str(&word);
        }
        out.push_str(&format!("{}\n{INDENT}{}\n", line.trim_end(), cmd.help));
    }
    let profiled: Vec<_> = profilable().collect();
    out.push_str(&format!(
        "\tprofile      <{}> [its flags]\n{INDENT}run a run command or experiment with the section \
         profiler on: its output,\n{INDENT}then the self/total-time tree and the regime counts\n",
        profiled.join("|")
    ));
    out
}

/// Reads `args` against `cmd`'s row into a run of it: positional arguments
/// and declared flags. An undeclared flag, a missing or malformed value, a
/// value out of its range and a wrong count of positional arguments are
/// errors.
fn parse(cmd: &'static Command, args: &[String]) -> Result<Ctx, String> {
    let mut positional = Vec::new();
    let mut values = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let Some(key) = arg.strip_prefix("--") else {
            positional.push(arg.clone());
            continue;
        };
        let flag = cmd
            .flags
            .iter()
            .find(|f| f.name == key || (f.name.ends_with('-') && key.starts_with(f.name)))
            .ok_or_else(|| format!("unknown flag --{key} for {}", cmd.name))?;
        let value = match flag.kind {
            Kind::Switch => String::new(),
            _ => it
                .next()
                .ok_or_else(|| format!("flag --{key} is missing a value"))?
                .clone(),
        };
        if let Kind::Int { min, max, .. } = flag.kind {
            let v: u64 = value
                .parse()
                .map_err(|_| format!("flag --{key} needs an integer value, got {value:?}"))?;
            if !(min..=max).contains(&v) {
                return Err(if max == u64::MAX {
                    format!("flag --{key} must be at least {min}, got {v}")
                } else {
                    format!("flag --{key} must lie in {min}..={max}, got {v}")
                });
            }
        }
        values.push((key.to_string(), value));
    }
    let (shape, least, most) = cmd.args;
    if positional.len() < least || positional.len() > most {
        return Err(if most == 0 {
            format!("unexpected argument {:?}", positional[0])
        } else {
            format!("{} takes {shape}", cmd.name)
        });
    }
    let args = record_args(args);
    Ok(Ctx {
        cmd,
        positional,
        values,
        run: run_id(cmd.name, &args),
        args,
        record: None,
        recorder: None,
    })
}

/// One run of one command: its parsed arguments, its run id and the lines
/// of its record.
pub(crate) struct Ctx {
    cmd: &'static Command,
    /// The positional arguments.
    pub positional: Vec<String>,
    /// `(flag, value)` as given, in command-line order.
    values: Vec<(String, String)>,
    /// The run id the record's lines name. `resume` replaces it by the id
    /// of the run it continues.
    pub run: String,
    /// The arguments without `--record <path>`, as the header names them.
    args: Vec<String>,
    /// The record's lines, under `--record`.
    record: Option<Vec<Json>>,
    /// `resume` only: its recorder, to restore the snapshot's counters
    /// into before it is installed. The run path installs every other
    /// command's recorder around the command.
    pub recorder: Option<Recorder>,
}

impl Ctx {
    /// The name of the command being run.
    pub fn command(&self) -> &'static str {
        self.cmd.name
    }

    /// A flag's last value, if given: the text of a text or integer flag,
    /// empty for a switch.
    pub fn text(&self, name: &str) -> Option<&str> {
        let last = self.values.iter().rev().find(|(k, _)| k == name);
        last.map(|(_, v)| v.as_str())
    }

    /// An integer flag's value, if given.
    pub fn given(&self, name: &str) -> Option<u64> {
        self.text(name).and_then(|v| v.parse().ok())
    }

    /// An integer flag's value, or its default in the command table.
    ///
    /// # Panics
    ///
    /// Panics if the command declares no default for it.
    pub fn num(&self, name: &str) -> u64 {
        self.given(name).unwrap_or_else(|| {
            self.cmd
                .flags
                .iter()
                .find_map(|f| match f.kind {
                    Kind::Int {
                        default: Some(d), ..
                    } if f.name == name => Some(d),
                    _ => None,
                })
                .unwrap_or_else(|| panic!("{} has no default for --{name}", self.cmd.name))
        })
    }

    /// Every value given to a text flag, in command-line order.
    pub fn texts(&self, name: &'static str) -> impl Iterator<Item = &str> {
        let given = self.values.iter().filter(move |(k, _)| k == name);
        given.map(|(_, v)| v.as_str())
    }

    /// Whether a switch was given.
    pub fn switch(&self, name: &str) -> bool {
        self.text(name).is_some()
    }

    /// The `(suffix, value)` pairs of a prefix flag such as `in-`.
    pub fn prefixed(&self, prefix: &'static str) -> impl Iterator<Item = (&str, u64)> {
        let given = self.values.iter();
        given.filter_map(move |(k, v)| Some((k.strip_prefix(prefix)?, v.parse().ok()?)))
    }

    /// An experiment's scale: `--quick`, else `--full`, else normal.
    pub fn scale(&self) -> Scale {
        if self.switch("quick") {
            Scale::Quick
        } else if self.switch("full") {
            Scale::Full
        } else {
            Scale::Normal
        }
    }

    /// The header line of the run record, stamped with the host's cores
    /// and the git revision.
    pub fn header(&self, n: Option<u64>, seed: Option<u64>, backend: &str) -> Json {
        let args = Json::arr(self.args.iter().map(|a| Json::from(a.as_str())));
        let mut fields = vec![
            ("kind", Json::from("run")),
            ("run", Json::from(self.run.as_str())),
            ("command", Json::from(self.cmd.name)),
            ("args", args),
        ];
        fields.extend(n.map(|n| ("n", Json::from(n))));
        fields.extend(seed.map(|s| ("seed", Json::from(s))));
        fields.push(("backend", Json::from(backend)));
        fields.push(("host_cores", Json::from(crate::history::host_cores())));
        fields.push(("git_rev", Json::from(crate::history::git_rev())));
        Json::obj(fields)
    }

    /// Adds `line` to the record, if the run writes one.
    pub fn push(&mut self, line: Json) {
        if let Some(r) = &mut self.record {
            r.push(line);
        }
    }

    /// Adds an observable line to the record: its kind, the run id, then
    /// `fields`.
    pub fn observe<const N: usize>(&mut self, kind: &str, fields: [(&str, Json); N]) {
        let head = [("kind", kind), ("run", &self.run)].map(|(k, v)| (k, Json::from(v)));
        self.push(Json::obj(head.into_iter().chain(fields)));
    }

    /// Prints an experiment's table and writes it to
    /// `target/experiments/<name>.csv`; the record gets one `row` line per
    /// table row, its cells keyed by the column names.
    pub fn emit(&mut self, name: &str, table: &Table) {
        println!("{}", table.render());
        let path = PathBuf::from("target/experiments").join(format!("{name}.csv"));
        match table.write_csv(&path) {
            Ok(()) => println!("(csv written to {})", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
        for row in table.rows() {
            let cells = table
                .header()
                .iter()
                .zip(row)
                .map(|(h, c)| (h.as_str(), Json::from(c.as_str())));
            self.observe(
                "row",
                [("table", Json::from(name)), ("cells", Json::obj(cells))],
            );
        }
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

/// Writes a run record to `path`: `lines` (the header and the run's
/// lines), the `profile_report` of a profiled run, and the metrics report
/// as the footer.
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
    let mut text = to_jsonl(lines);
    for line in profile.into_iter().chain([&recorder.metrics().to_json()]) {
        text.push_str(&line.render());
        text.push('\n');
    }
    std::fs::write(path, text)
}

/// Runs `cmd` on `args` (the arguments after its name). `invoked` is how
/// the command was called, for the usage line of an argument error, which
/// exits 2.
fn run(invoked: &str, cmd: &'static Command, profiled: bool, args: &[String]) -> u8 {
    let mut ctx = match parse(cmd, args) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("error: {e}\nusage: {invoked} {}", synopsis(cmd).join(" "));
            return 2;
        }
    };
    let record_path = ctx.text("record").map(str::to_owned);
    let resume = cmd.name == "resume";
    let checkpointed = resume || ctx.given("checkpoint-every").is_some();
    let mut recorder = (record_path.is_some() || profiled || checkpointed).then(|| {
        if profiled {
            Recorder::new().with_sections()
        } else {
            Recorder::new()
        }
    });
    if record_path.is_some() {
        // `resume` writes its own header, from the snapshot it continues.
        let declared = |name| cmd.flags.iter().any(|f| f.name == name);
        let n = declared("n").then(|| ctx.num("n"));
        let seed = declared("seed").then(|| ctx.num("seed"));
        let header = (!resume).then(|| ctx.header(n, seed, cmd.backend));
        ctx.record = Some(header.into_iter().collect());
    }

    let started = std::time::Instant::now();
    let code = if resume {
        // The snapshot's counters must reach a resumed run's recorder
        // before it is installed, so `resume` installs it after the restore.
        ctx.recorder = recorder.take();
        let code = (cmd.main)(&mut ctx);
        recorder = ctx.recorder.take();
        code
    } else {
        let _installed = recorder.as_mut().map(Recorder::install);
        (cmd.main)(&mut ctx)
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
        ctx.record.filter(|lines| !lines.is_empty()),
    ) {
        if let Err(e) = write_record(&path, &lines, rec, profile.as_ref()) {
            eprintln!("cannot write record {path}: {e}");
            return 1;
        }
    }
    code
}

/// `ppsim [profile] <command> [arguments]`: runs any command of the table.
#[must_use]
pub fn main() -> ExitCode {
    let all: Vec<String> = std::env::args().skip(1).collect();
    let profiled = all.first().is_some_and(|c| c == "profile");
    let args = &all[usize::from(profiled)..];
    let code = match args.first().and_then(|name| find(name)) {
        Some(cmd) if !profiled || cmd.role != Role::Tool => {
            run(&format!("ppsim {}", cmd.name), cmd, profiled, &args[1..])
        }
        _ if profiled => {
            eprintln!(
                "error: usage: ppsim profile <command> [its flags], where <command> is a run \
                 command or an experiment: {}",
                profilable().collect::<Vec<_>>().join(" ")
            );
            2
        }
        _ => {
            if let Some(name) = args.first() {
                eprintln!("error: unknown command {name:?}");
            }
            eprint!("{}", usage());
            2
        }
    };
    ExitCode::from(code)
}

/// An experiment binary's entry point: runs the table's `name` on the
/// process arguments, as `ppsim <name>` does.
#[must_use]
pub fn main_as(name: &str) -> ExitCode {
    let cmd = find(name).expect("every experiment binary is a row of the table");
    let args: Vec<String> = std::env::args().skip(1).collect();
    ExitCode::from(run(name, cmd, false, &args))
}

/// Generations kept per checkpoint directory (newest K survive rotation).
const CHECKPOINT_KEEP: usize = 3;

/// Periodic crash-safe checkpointing for the long-running commands
/// (`oscillator`, `faults`), configured by `--checkpoint-every <steps>` plus
/// `--checkpoint-dir <dir>`. Snapshots are written atomically and rotated
/// ([`SnapshotStore`]); `ppsim resume <dir|file>` continues from the newest
/// valid generation.
pub(crate) struct Checkpointer {
    store: SnapshotStore,
    /// Checkpoint cadence in scheduler steps.
    every: u64,
    /// Next step threshold at which to save.
    next: u64,
}

impl Checkpointer {
    /// A checkpointer writing into `dir` every `every` steps, next at
    /// step `next`; a run resumed from generation `resumed` numbers its
    /// checkpoints after it ([`SnapshotStore::continue_after`]).
    pub fn open(dir: &Path, every: u64, next: u64, resumed: Option<u64>) -> Result<Self, String> {
        let mut store = SnapshotStore::open(dir, CHECKPOINT_KEEP)
            .map_err(|e| format!("cannot open checkpoint dir {}: {e}", dir.display()))?;
        if let Some(generation) = resumed {
            store.continue_after(generation);
        }
        Ok(Self { store, every, next })
    }

    /// Saves a checkpoint when `steps` crossed the cadence threshold. The
    /// `snap` closure receives `(every, next_threshold_after_this_save)` so the
    /// cadence position rides along in the snapshot meta and a resumed run
    /// checkpoints at the same step boundaries. Save failures are warnings:
    /// losing a checkpoint must not kill the run it protects.
    pub fn maybe_save<F>(&mut self, steps: u64, snap: F)
    where
        F: FnOnce(u64, u64) -> RunSnapshot,
    {
        if steps < self.next {
            return;
        }
        while self.next <= steps {
            self.next += self.every;
        }
        if let Err(e) = self.store.save(&snap(self.every, self.next)) {
            eprintln!("warning: checkpoint save failed: {e}");
        }
    }
}

/// The newest valid generation of the store in `dir`, at most `max_gen`
/// when given; each rejected one is reported and skipped.
fn latest_in(dir: &Path, max_gen: Option<u64>) -> Option<(u64, PathBuf, RunSnapshot)> {
    let store = match SnapshotStore::open(dir, CHECKPOINT_KEEP) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot open checkpoint dir {}: {e}", dir.display());
            return None;
        }
    };
    let (found, rejected) = store.load_latest_at_most(max_gen);
    for r in &rejected {
        eprintln!("warning: snapshot_corrupt: {}", r.detail);
    }
    if found.is_none() {
        eprintln!(
            "error: no valid snapshot generation in {}; start a fresh run",
            dir.display()
        );
    }
    found
}

/// Loads the snapshot to resume from, degrading gracefully past corruption:
/// a directory resumes from its newest valid generation; a corrupt file
/// falls back to older generations in its own directory. Returns the
/// snapshot, the checkpoint directory the continued run should keep writing
/// into, and the snapshot's generation when it came from a rotating store.
pub(crate) fn load_resume_snapshot(
    path: &str,
) -> Option<(RunSnapshot, Option<PathBuf>, Option<u64>)> {
    let p = Path::new(path);
    if !p.exists() {
        eprintln!("error: snapshot {path} is missing");
        return None;
    }
    if p.is_dir() {
        let (gen, file, snap) = latest_in(p, None)?;
        eprintln!("resuming from {} (generation {gen})", file.display());
        return Some((snap, Some(p.to_path_buf()), Some(gen)));
    }
    match load_path(p) {
        Ok(snap) => {
            // A generation file keeps checkpointing into its own store;
            // a free-standing snapshot continues without checkpoints.
            let gen = file_generation(p);
            let dir = gen.and_then(|_| p.parent()).map(Path::to_path_buf);
            Some((snap, dir, gen))
        }
        Err(detail) => {
            eprintln!("warning: snapshot_corrupt: {path}: {detail}");
            let (Some(dir), Some(prev)) = (
                p.parent(),
                file_generation(p).and_then(|g| g.checked_sub(1)),
            ) else {
                eprintln!("error: corrupt snapshot has no older generation to fall back to");
                return None;
            };
            let (gen, file, snap) = latest_in(dir, Some(prev))?;
            eprintln!("falling back to {} (generation {gen})", file.display());
            Some((snap, Some(dir.to_path_buf()), Some(gen)))
        }
    }
}
