//! Run-scoped telemetry through the public API: installation and merging,
//! and isolation — concurrent runs and sweeps at any worker count each
//! report exactly what their own work recorded.

use pp_engine::counts::CountPopulation;
use pp_engine::metrics::MetricsReport;
use pp_engine::prof::{section, Section};
use pp_engine::protocol::TableProtocol;
use pp_engine::recorder::{installed_metrics, Recorder};
use pp_engine::rng::SimRng;
use pp_engine::sim::Simulator;
use pp_engine::sweep::map_configs;
use std::sync::Barrier;

/// A public capture point: a population's first draw builds its
/// reactivity index, which bumps `batch_cache_rebuilds`.
fn bump() {
    let mut pop = CountPopulation::from_counts(cycle(), &[1, 1]);
    pop.step(&mut SimRng::seed_from(0));
}

fn rebuilds(rec: &Recorder) -> u64 {
    rec.metrics().counter("batch_cache_rebuilds")
}

#[test]
fn nested_installs_restore_the_outer_recorder() {
    let mut outer = Recorder::new();
    let mut inner = Recorder::new();
    {
        let _o = outer.install();
        bump();
        {
            let _i = inner.install();
            bump();
            bump();
        }
        bump();
    }
    bump();
    assert_eq!((rebuilds(&outer), rebuilds(&inner)), (2, 2));
}

#[test]
fn out_of_order_uninstall_leaves_no_recorder() {
    let mut a = Recorder::new();
    let mut b = Recorder::new();
    let ga = a.install();
    let gb = b.install();
    drop(ga);
    assert!(
        installed_metrics().is_none(),
        "b was cut, not left pointing at a"
    );
    drop(gb);
    assert!(installed_metrics().is_none());
}

#[test]
fn a_leaked_guard_keeps_its_copy_installed() {
    // On a thread of its own, since the recorder stays installed there.
    std::thread::spawn(|| {
        let mut rec = Recorder::new();
        std::mem::forget(rec.install());
        bump();
        assert_eq!(rebuilds(&rec), 0, "the recorder itself is left empty");
        drop(rec);
        bump();
        let installed = installed_metrics().expect("still installed");
        assert_eq!(installed.counter("batch_cache_rebuilds"), 2);
    })
    .join()
    .unwrap();
}

#[test]
fn merge_adds_counts_and_sections() {
    let mut a = Recorder::new().with_sections();
    let mut b = a.like();
    assert!(
        b.profile().calls_of("count_step_batch") == 0 && rebuilds(&b) == 0,
        "like() starts empty"
    );
    for (rec, steps) in [(&mut a, 1_000), (&mut b, 2_000)] {
        let _installed = rec.install();
        let _outer = section(Section::Observer);
        let mut pop = CountPopulation::from_counts(cycle(), &[400, 300, 300]);
        pop.step_batch(&mut SimRng::seed_from(1), steps);
    }
    let (pa, pb) = (a.profile(), b.profile());
    a.merge(b);
    assert_eq!(rebuilds(&a), 2);
    let merged = a.metrics();
    assert_eq!(merged.counter("batches"), 2);
    assert_eq!(merged.counter("interactions_executed"), 3_000);
    let edge = |p: &pp_engine::prof::ProfReport| {
        p.edge(&["observer"], "count_step_batch").unwrap().total_ns
    };
    let merged = a.profile();
    assert_eq!(merged.calls_of("count_step_batch"), 2);
    assert_eq!(edge(&merged), edge(&pa) + edge(&pb));
}

fn cycle() -> TableProtocol {
    TableProtocol::new(3, "cycle")
        .rule(0, 1, 1, 1)
        .rule(1, 2, 2, 2)
        .rule(2, 0, 0, 0)
}

/// A recorder's metrics, rendered.
fn render(rec: &Recorder) -> String {
    rec.metrics().to_json().render()
}

/// A dense cycle run under its own recorder, rendered; waits on `start`
/// (when given) once the recorder is installed.
fn dense_run(counts: &[u64], seed: u64, start: Option<&Barrier>) -> String {
    let mut pop = CountPopulation::from_counts(cycle(), counts);
    let mut rng = SimRng::seed_from(seed);
    let mut rec = Recorder::new();
    {
        let _installed = rec.install();
        if let Some(b) = start {
            b.wait();
        }
        for _ in 0..20 {
            pop.step_batch(&mut rng, 50_000);
        }
    }
    render(&rec)
}

#[test]
fn concurrent_runs_report_exactly_what_they_report_alone() {
    let a_counts = [30_000, 20_000, 10_000];
    let b_counts = [5_000, 5_000, 90_000];
    let alone_a = dense_run(&a_counts, 11, None);
    let alone_b = dense_run(&b_counts, 12, None);
    assert_ne!(alone_a, alone_b);
    let report = MetricsReport::parse(&alone_a).expect("a metrics report");
    assert_eq!(report.counter("batches"), 20);
    assert!(report.counter("collision_epochs") > 0, "{alone_a}");
    let start = Barrier::new(2);
    let (together_a, together_b) = std::thread::scope(|s| {
        let a = s.spawn(|| dense_run(&a_counts, 11, Some(&start)));
        let b = s.spawn(|| dense_run(&b_counts, 12, Some(&start)));
        (a.join().unwrap(), b.join().unwrap())
    });
    assert_eq!(together_a, alone_a);
    assert_eq!(together_b, alone_b);
}

#[test]
fn sweep_reports_do_not_depend_on_worker_count() {
    let seeds: Vec<u64> = (0..8).collect();
    let sweep = |workers| {
        let mut rec = Recorder::new();
        let finals = {
            let _installed = rec.install();
            map_configs(&seeds, workers, |&seed| {
                let mut pop = CountPopulation::from_counts(cycle(), &[1_500, 1_500, 1_000]);
                let mut rng = SimRng::seed_from(seed);
                for _ in 0..3 {
                    pop.step_batch(&mut rng, 4_000);
                }
                pop.counts()
            })
        };
        let m = rec.metrics();
        assert_eq!(m.counter("sweep_tasks"), 8);
        (finals, m.counter("batches"), render(&rec))
    };
    let (one, batches, one_text) = sweep(1);
    let (four, _, four_text) = sweep(4);
    assert_eq!(one, four);
    assert_eq!(batches, 24);
    assert_eq!(one_text, four_text);
}
