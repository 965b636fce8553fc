//! The lint driver: ties parsing, program checks, ruleset checks, and
//! support reachability into one [`Report`] per target.
//!
//! Three entry points:
//!
//! * [`lint_source`] — lint a `.pp` protocol definition from text. Parse
//!   failures become a single `PP00x` error diagnostic; otherwise the
//!   parsed program is linted with full span information.
//! * [`lint_program`] — lint an already-built [`Program`] (optionally with
//!   spans and source text from `parse_program_spanned`).
//! * [`lint_builtin`] — lint a built-in program constructed in code
//!   (spanless diagnostics).

use crate::diag::{Diagnostic, Report, Severity};
use crate::program::{analyze_program, ProgramLocator};
use crate::reach::{non_silent_cycles, support_closure, unreachable_rules, REACH_VAR_CAP};
use crate::ruleset::{analyze_ruleset_with, RuleLocator};
use pp_lang::ast::{Instr, Program, Thread};
use pp_lang::enumerate::{collect_assigns, initial_supports};
use pp_lang::parse::{
    parse_program_spanned, InstrSpan, ParseErrorKind, ParseProgramError, ProgramSpans, Span,
};
use pp_rules::reach::SupportModel;
use pp_rules::Ruleset;

pub use pp_lang::enumerate::{ENUM_STATE_CAP, INPUT_ENUM_CAP};

/// The diagnostic code for a parse error of the given kind.
#[must_use]
pub fn parse_error_code(kind: ParseErrorKind) -> &'static str {
    match kind {
        ParseErrorKind::Syntax => "PP001",
        ParseErrorKind::PostConditionNotLiterals => "PP002",
        ParseErrorKind::ContradictoryPostCondition => "PP003",
    }
}

/// Converts a parse failure into its diagnostic.
#[must_use]
pub fn parse_error_diagnostic(e: &ParseProgramError) -> Diagnostic {
    let mut d = Diagnostic::new(parse_error_code(e.kind), Severity::Error, e.message.clone())
        .with_span(Span::point(e.line, e.col));
    if !e.source.is_empty() {
        d = d.with_snippet(e.source.clone());
    }
    d
}

/// Lints a `.pp` protocol definition from source text.
#[must_use]
pub fn lint_source(source: &str) -> Report {
    match parse_program_spanned(source) {
        Err(e) => {
            let mut report = Report::new();
            report.push(parse_error_diagnostic(&e));
            report
        }
        Ok((program, spans)) => lint_program(&program, Some(&spans), Some(source)),
    }
}

/// Lints a built-in program constructed in code (no source locations).
#[must_use]
pub fn lint_builtin(program: &Program) -> Report {
    lint_program(program, None, None)
}

/// One ruleset occurrence inside a program, with its location info.
struct RulesetSite<'a> {
    ruleset: &'a Ruleset,
    spans: &'a [Span],
    label: String,
}

/// Collects every ruleset in the program — raw threads and `execute`
/// instructions — pairing each with its rule spans (pre-order instruction
/// counters mirror `ThreadSpans::instrs`).
fn collect_rulesets<'a>(
    program: &'a Program,
    spans: Option<&'a ProgramSpans>,
) -> Vec<RulesetSite<'a>> {
    fn walk<'a>(
        instrs: &'a [Instr],
        thread_spans: Option<&'a [InstrSpan]>,
        counter: &mut usize,
        label: &str,
        out: &mut Vec<RulesetSite<'a>>,
    ) {
        for instr in instrs {
            let idx = *counter;
            *counter += 1;
            match instr {
                Instr::Execute { ruleset, .. } => {
                    out.push(RulesetSite {
                        ruleset,
                        spans: thread_spans
                            .and_then(|t| t.get(idx))
                            .map_or(&[][..], |s| s.rules.as_slice()),
                        label: label.to_string(),
                    });
                }
                Instr::IfExists {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    walk(then_branch, thread_spans, counter, label, out);
                    walk(else_branch, thread_spans, counter, label, out);
                }
                Instr::RepeatLog { body, .. } => {
                    walk(body, thread_spans, counter, label, out);
                }
                Instr::Assign { .. } => {}
            }
        }
    }

    let mut out = Vec::new();
    for (thread_idx, thread) in program.threads.iter().enumerate() {
        let thread_spans = spans.and_then(|s| s.threads.get(thread_idx));
        match thread {
            Thread::Raw { name, ruleset } => {
                out.push(RulesetSite {
                    ruleset,
                    spans: thread_spans.map_or(&[][..], |t| t.rules.as_slice()),
                    label: format!("thread {name}"),
                });
            }
            Thread::Structured { name, body } => {
                let mut counter = 0usize;
                walk(
                    body,
                    thread_spans.map(|t| t.instrs.as_slice()),
                    &mut counter,
                    &format!("thread {name}"),
                    &mut out,
                );
            }
        }
    }
    out
}

/// Lints a program: `PP2xx` program checks, `PP10x` checks on every
/// embedded ruleset, and support-reachability checks (`PP105`/`PP106`)
/// from the declared initial supports.
///
/// When a program exceeds the precompile flag budget (`PP207`) but the
/// support closure proves the live state space small enough for the
/// `pp-lang` enumeration backend ([`ENUM_STATE_CAP`]), the `PP207`
/// warnings are replaced by a single `PP191` info diagnostic reporting the
/// live-state count, the compression ratio against `2^bits`, and the
/// dead-rule stripping — the program compiles after all.
#[must_use]
pub fn lint_program(
    program: &Program,
    spans: Option<&ProgramSpans>,
    source: Option<&str>,
) -> Report {
    let mut report = Report::new();

    let locator = ProgramLocator { spans, source };
    let program_diags = analyze_program(program, &locator);

    let sites = collect_rulesets(program, spans);

    // Support reachability from the declared initial supports, computed
    // first so the ruleset checks can restrict themselves to states that
    // may actually occur.
    let closure = match initial_supports(program) {
        None => {
            report.push(Diagnostic::new(
                "PP190",
                Severity::Info,
                format!(
                    "reachability checks skipped: more than {INPUT_ENUM_CAP} declared \
                     inputs to enumerate"
                ),
            ));
            None
        }
        Some(initial) => {
            let model = SupportModel {
                rulesets: sites.iter().map(|s| s.ruleset).collect(),
                assigns: collect_assigns(program),
                initial,
            };
            let closure = support_closure(&program.vars, &model);
            if closure.skipped {
                report.push(Diagnostic::new(
                    "PP190",
                    Severity::Info,
                    format!(
                        "reachability checks skipped: more than {REACH_VAR_CAP} \
                         variables in the packed state space"
                    ),
                ));
                None
            } else {
                Some(closure)
            }
        }
    };

    // PP191: the enumeration backend compiles past the flag budget. When
    // PP207 fired but the closure proved the live state space enumerable,
    // the budget warnings are moot — replace them with one info line.
    let over_budget = program_diags.iter().any(|d| d.code == "PP207");
    let enumerable = closure
        .as_ref()
        .is_some_and(|c| !c.live.is_empty() && c.live.len() <= ENUM_STATE_CAP);
    if over_budget && enumerable {
        let closure = closure.as_ref().expect("enumerable implies closure");
        let mut dead = 0usize;
        let mut total = 0usize;
        for site in &sites {
            for rule in site.ruleset.rules() {
                total += 1;
                if !(closure.any_satisfies(&rule.guard_a) && closure.any_satisfies(&rule.guard_b)) {
                    dead += 1;
                }
            }
        }
        let bits = program.vars.len();
        let upper = 1u64 << bits;
        let live = closure.live.len();
        let ratio = upper as f64 / live as f64;
        for d in program_diags {
            if d.code != "PP207" {
                report.push(d);
            }
        }
        report.push(Diagnostic::new(
            "PP191",
            Severity::Info,
            format!(
                "enumeration compiles this protocol over {live} live states \
                 (of {upper} possible with {bits} variables, {ratio:.0}x \
                 compression); {dead} of {total} rules are dead and stripped; \
                 the precompile flag budget does not apply"
            ),
        ));
    } else {
        for d in program_diags {
            report.push(d);
        }
    }

    for site in &sites {
        let rule_locator = RuleLocator {
            spans: site.spans,
            source,
        };
        for d in analyze_ruleset_with(
            &program.vars,
            site.ruleset,
            rule_locator,
            &site.label,
            closure.as_ref(),
        ) {
            report.push(d);
        }
    }

    if let Some(closure) = &closure {
        for site in &sites {
            let rule_locator = RuleLocator {
                spans: site.spans,
                source,
            };
            for d in unreachable_rules(
                &program.vars,
                site.ruleset,
                closure,
                rule_locator,
                &site.label,
            ) {
                report.push(d);
            }
        }
        let rulesets: Vec<&Ruleset> = sites.iter().map(|s| s.ruleset).collect();
        for d in non_silent_cycles(&program.vars, &rulesets, closure) {
            report.push(d);
        }
    }

    report.sort();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(report: &Report) -> Vec<&'static str> {
        report.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn syntax_error_becomes_pp001() {
        let report = lint_source("def protocol Broken\n  var X:\n  thread T:\n    what\n");
        assert!(report.has_errors());
        assert_eq!(codes(&report), vec!["PP001"]);
        let d = &report.diagnostics[0];
        assert!(d.span.is_some(), "{d:?}");
    }

    #[test]
    fn disjunctive_post_condition_becomes_pp002() {
        let source = "\
def protocol Bad
  var A, B:
  thread T:
    execute ruleset:
      > (A) + (.) -> (A | B) + (.)
";
        let report = lint_source(source);
        assert_eq!(codes(&report), vec!["PP002"]);
        let d = &report.diagnostics[0];
        assert_eq!(d.span.unwrap().line, 5, "{d:?}");
        assert!(d.snippet.is_some(), "{d:?}");
    }

    #[test]
    fn contradictory_post_condition_becomes_pp003() {
        let source = "\
def protocol Bad
  var A:
  thread T:
    execute ruleset:
      > (A) + (.) -> (A & !A) + (.)
";
        let report = lint_source(source);
        assert_eq!(codes(&report), vec!["PP003"]);
    }

    #[test]
    fn ruleset_findings_carry_rule_spans() {
        let source = "\
def protocol Conflict
  var A as input, B as output:
  thread T:
    execute ruleset:
      > (A) + (.) -> (B) + (.)
      > (A & B) + (.) -> (!B) + (.)
";
        let report = lint_source(source);
        let conflict = report
            .diagnostics
            .iter()
            .find(|d| d.code == "PP104")
            .expect("PP104");
        assert_eq!(conflict.span.unwrap().line, 6, "{conflict:?}");
        assert!(
            conflict.snippet.as_deref().unwrap().contains("(A & B)"),
            "{conflict:?}"
        );
        assert!(conflict.message.contains("thread T"), "{conflict:?}");
    }

    #[test]
    fn unreachable_rule_found_from_initial_support() {
        // B never occurs: no init, no input, nothing sets it.
        let source = "\
def protocol Dead
  var A as input, B, Y as output:
  thread T:
    execute ruleset:
      > (A) + (.) -> (Y) + (.)
      > (B) + (.) -> (!Y) + (.)
";
        let report = lint_source(source);
        let unreachable = report
            .diagnostics
            .iter()
            .find(|d| d.code == "PP105")
            .expect("PP105: {report:?}");
        assert_eq!(unreachable.span.unwrap().line, 6, "{unreachable:?}");
    }

    #[test]
    fn clean_program_is_clean() {
        let source = "\
def protocol Fratricide
  var L <- on as output:
  thread Elect:
    execute ruleset:
      > (L) + (L) -> (L) + (!L)
";
        let report = lint_source(source);
        assert!(report.diagnostics.is_empty(), "{report:?}");
    }

    #[test]
    fn raw_thread_rules_are_checked() {
        let source = "\
def protocol Raw
  var R <- on as output:
  thread Forever:
    execute ruleset:
      > (R & !R) + (.) -> (R) + (.)
";
        // No `repeat:` under the thread header, so this parses as a raw
        // (forever) thread and exercises the raw-thread span path.
        let report = lint_source(source);
        assert!(codes(&report).contains(&"PP101"), "{report:?}");
        assert!(report.has_errors());
    }

    #[test]
    fn over_budget_but_enumerable_program_reports_pp191_not_pp207() {
        use pp_lang::ast::build;
        use pp_rules::{Guard, VarSet};

        let mut vars = VarSet::new();
        let first = vars.add("V0");
        for i in 1..15 {
            let _ = vars.add(&format!("V{i}"));
        }
        // 15 declared + 6 lowering flags = 21 > 20: PP207 territory. But
        // only two states are ever live ({} and {V0}), so enumeration
        // compiles it and the budget warning is replaced by PP191.
        let body: Vec<Instr> = (0..6).map(|_| build::assign(first, Guard::any())).collect();
        let program = Program {
            name: "big".into(),
            vars,
            inputs: vec![],
            outputs: vec![first],
            init: vec![],
            derived_init: vec![],
            threads: vec![Thread::Structured {
                name: "Main".into(),
                body,
            }],
        };
        let report = lint_builtin(&program);
        assert!(!codes(&report).contains(&"PP207"), "{report:?}");
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == "PP191")
            .expect("PP191");
        assert_eq!(d.severity, Severity::Info);
        assert!(
            d.message.contains("2 live states"),
            "live count: {}",
            d.message
        );
        assert!(
            d.message.contains("of 32768 possible with 15 variables"),
            "{}",
            d.message
        );
    }

    #[test]
    fn within_budget_program_gets_no_pp191() {
        // Fits the flag budget: the hierarchy backend applies, so no
        // enumeration info line even though the closure ran.
        let source = "\
def protocol Fits
  var L <- on as output:
  thread Elect:
    execute ruleset:
      > (L) + (L) -> (L) + (!L)
";
        let report = lint_source(source);
        assert!(!codes(&report).contains(&"PP191"), "{report:?}");
    }

    #[test]
    fn report_is_sorted_by_position() {
        let source = "\
def protocol Multi
  var A, Y as output:
  thread T:
    execute ruleset:
      > (A & !A) + (.) -> (Y) + (.)
      > (A) + (.) -> (A) + (.)
";
        let report = lint_source(source);
        let lines: Vec<usize> = report
            .diagnostics
            .iter()
            .filter_map(|d| d.span.map(|s| s.line))
            .collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted, "{report:?}");
    }
}
