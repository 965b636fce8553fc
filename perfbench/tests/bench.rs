//! The benchmark's own tests, on smoke-size runs.

use std::collections::BTreeMap;

use perfbench::programs::{drive, inputs, Exec, Prog};
use perfbench::util::derive;
use perfbench::{result_line, run, Config, Size, WORKLOADS};
use pp_engine::json::Json;
use pp_lang::enumerate::EnumExecutor;
use pp_lang::interp::Executor;
use pp_rules::Guard;

/// A smoke-size run; one second is below every workload's trial cost, so
/// it holds the minimum of three trials.
fn smoke(workload: &str, trace: bool) -> Config {
    Config {
        workload: workload.into(),
        seed: 3,
        seconds: 1,
        trace,
        size: Size::Smoke,
        corrupt_trial: None,
    }
}

/// `name -> unit` of one metric list of `BENCHMARK.json`.
fn declared(list: &str) -> BTreeMap<String, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let spec = Json::parse(&text).expect("BENCHMARK.json parses");
    spec.get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// `name -> unit` of the metrics in a result line, after checking its keys.
fn emitted(line: &str) -> BTreeMap<String, String> {
    let result = Json::parse(line).expect("result line parses");
    let keys: Vec<&str> = result
        .as_obj()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(Json::as_f64).is_some(),
                "{name} has a value"
            );
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect()
}

#[test]
fn smoke_runs_emit_exactly_the_declared_metrics() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for workload in WORKLOADS {
        for (trace, want) in [(false, &end_to_end), (true, &per_layer)] {
            let report = run(&smoke(workload, trace)).expect("known workload");
            assert!(
                report.correct,
                "{workload} (trace {trace}) answers correctly"
            );
            assert_eq!(report.failed, 0);
            let record = Json::parse(&report.record).expect("record parses");
            if workload.ends_with("_programs") {
                let answers = record
                    .get("answers")
                    .and_then(Json::as_arr)
                    .expect("program runs record when each answer held");
                assert_eq!(answers.len(), report.attempted, "{workload}");
                for trial in answers {
                    for (prog, at) in trial.as_obj().expect("one object per trial") {
                        assert!(at.as_u64().is_some(), "{workload} {prog} answered");
                    }
                }
            }
            assert_eq!(
                &emitted(&result_line(&report)),
                want,
                "{workload} (trace {trace})"
            );
        }
    }
}

#[test]
fn traced_spans_nest_and_children_fit_in_their_parents() {
    let report = run(&smoke("interp_programs", true)).expect("known workload");
    let spans = &report.spans;
    assert!(spans.len() > 10, "the traced run records spans");
    let mut child_ns = vec![0u64; spans.len()];
    for (i, span) in spans.iter().enumerate() {
        assert!(span.start_ns <= span.end_ns);
        if let Some(p) = span.parent {
            assert!(p < i, "a parent opens before its child");
            let parent = &spans[p];
            assert!(parent.start_ns <= span.start_ns && span.end_ns <= parent.end_ns);
            assert_eq!(parent.trial, span.trial);
            child_ns[p] += span.duration_ns();
        }
    }
    for (span, &children) in spans.iter().zip(&child_ns) {
        assert!(
            children <= span.duration_ns(),
            "children of {} take {children} ns of its {} ns",
            span.name,
            span.duration_ns()
        );
    }
}

#[test]
fn an_injected_wrong_answer_lowers_ok_rate_instead_of_aborting() {
    for workload in ["oscillator_dense", "hierarchy_leader"] {
        let cfg = Config {
            corrupt_trial: Some(0),
            ..smoke(workload, false)
        };
        let report = run(&cfg).expect("known workload");
        assert_eq!((report.attempted, report.failed), (3, 1), "{workload}");
        assert!(!report.correct);
        let ok_rate = report
            .metrics
            .iter()
            .find(|m| m.name == "ok_rate")
            .expect("ok_rate reported");
        assert_eq!(ok_rate.value, 2.0 / 3.0);
        let wall = report
            .metrics
            .iter()
            .find(|m| m.name == "wall_s")
            .expect("wall_s");
        assert!(wall.value > 0.0, "the run went on to time every trial");
    }
}

/// The W_i flag counts after a run: the plurality answer.
fn plurality_answer(e: &dyn Exec, p: &pp_lang::Program) -> Vec<u64> {
    (1..=3)
        .map(|i| e.count_where(&Guard::var(p.vars.get(&format!("W{i}")).expect("W_i"))))
        .collect()
}

#[test]
fn enumerated_and_interpreted_programs_agree_on_shared_inputs() {
    for prog in [Prog::Plurality, Prog::PluralityExactThree] {
        let p = prog.program();
        for seed in 0..2 {
            let inp = inputs(prog, &p, 1_000, seed);
            let mut interp = Executor::new(&p, &inp.groups, inp.seed);
            let mut enumerated =
                EnumExecutor::new(&p, &inp.groups, inp.seed).expect("the program enumerates");
            assert_eq!(drive(&mut interp, &inp.goal), Some(1));
            assert_eq!(drive(&mut enumerated, &inp.goal), Some(1));
            assert_eq!(
                plurality_answer(&interp, &p),
                plurality_answer(&enumerated, &p),
                "{} seed {seed}",
                prog.name()
            );
        }
    }
}

/// On these inputs (`#A = 360 < #B = 450` at n = 1 000, the smoke-size
/// comparison of seed 2003790444's reference trial) the comparison's fast
/// blackbox answers wrongly in the first iteration. The run goes on until
/// the slow blackbox corrects the answer, on both backends, instead of
/// failing the trial.
#[test]
fn a_wrong_fast_comparison_is_settled_by_the_slow_blackbox() {
    let prog = Prog::SemilinearComparison;
    let p = prog.program();
    let seed = derive(derive(2_003_790_444, 1 << 32), prog as u64);
    let inp = inputs(prog, &p, 1_000, seed);
    let sizes: Vec<u64> = inp.groups.iter().map(|g| g.1).collect();
    assert_eq!(sizes, [360, 450, 190]);
    let mut interp = Executor::new(&p, &inp.groups, inp.seed);
    let mut enumerated =
        EnumExecutor::new(&p, &inp.groups, inp.seed).expect("the program enumerates");
    for e in [&mut interp as &mut dyn Exec, &mut enumerated] {
        let at = drive(e, &inp.goal).expect("the slow blackbox settles the answer");
        assert!(at > 1, "the first iteration's answer was wrong; settled at {at}");
    }
}
