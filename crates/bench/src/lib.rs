//! Shared infrastructure for the experiment binaries (`src/bin/e*.rs`).
//!
//! Every binary regenerates one experiment row-set from EXPERIMENTS.md: it
//! prints an aligned table to stdout and writes the same rows as CSV under
//! `target/experiments/`. A `--quick` flag shrinks population sizes and
//! seed counts for smoke runs; `--full` enlarges them.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod history;
pub mod timing;

use pp_engine::recorder::{self, Recorder};
use pp_engine::report::Table;
use std::path::PathBuf;

/// Experiment scale selected on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Smoke-test sizes (seconds).
    Quick,
    /// Default sizes (tens of seconds to minutes).
    Normal,
    /// Paper-grade sizes (minutes to tens of minutes).
    Full,
}

impl Scale {
    /// Parses the scale from `std::env::args` (`--quick` / `--full`).
    ///
    /// Also installs a [`Recorder`] on the calling thread for the rest of
    /// the process (unless `--no-metrics` is given), so every experiment
    /// binary emits a telemetry snapshot next to its CSV via [`emit`];
    /// sweeps started from this thread merge their tasks' counts into it.
    /// The counters cost about a dozen adds per batch, plus the part of two
    /// histograms a batch reached. That is not negligible for experiments
    /// made of many short batches: E3 `--quick` (325 000 batches) ran
    /// 45–75 ms recorded against 32–53 ms with `--no-metrics` (8
    /// alternating runs on a 2-core Xeon host). The dedicated overhead
    /// micro-benchmark (`benches/recorder.rs`) runs without this path.
    #[must_use]
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        if !args.iter().any(|a| a == "--no-metrics") {
            // The experiment is the run: the guard is leaked, so the
            // recorder stays installed for as long as the process lives.
            std::mem::forget(Recorder::new().install());
        }
        if args.iter().any(|a| a == "--quick") {
            Scale::Quick
        } else if args.iter().any(|a| a == "--full") {
            Scale::Full
        } else {
            Scale::Normal
        }
    }

    /// Picks one of three values by scale.
    #[must_use]
    pub fn pick<T: Copy>(self, quick: T, normal: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Normal => normal,
            Scale::Full => full,
        }
    }
}

/// Prints the table and writes it to `target/experiments/<name>.csv`.
///
/// When a recorder is installed on the calling thread (the default via
/// [`Scale::from_args`]), also writes a telemetry snapshot to
/// `target/experiments/<name>_metrics.json`.
pub fn emit(name: &str, table: &Table) {
    println!("{}", table.render());
    let path = output_path(name);
    match table.write_csv(&path) {
        Ok(()) => println!("(csv written to {})", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
    if let Some(report) = recorder::installed_metrics() {
        let mpath = PathBuf::from("target/experiments").join(format!("{name}_metrics.json"));
        match report.write_json(&mpath) {
            Ok(()) => println!("(metrics written to {})", mpath.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", mpath.display()),
        }
    }
}

/// The CSV output path for an experiment.
#[must_use]
pub fn output_path(name: &str) -> PathBuf {
    PathBuf::from("target/experiments").join(format!("{name}.csv"))
}

/// Geometric sequence of population sizes `start · ratio^i`, `count` terms.
#[must_use]
pub fn n_ladder(start: u64, ratio: u64, count: usize) -> Vec<u64> {
    let mut out = Vec::with_capacity(count);
    let mut n = start;
    for _ in 0..count {
        out.push(n);
        n *= ratio;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_geometric() {
        assert_eq!(n_ladder(100, 4, 3), vec![100, 400, 1600]);
    }

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Quick.pick(1, 2, 3), 1);
        assert_eq!(Scale::Normal.pick(1, 2, 3), 2);
        assert_eq!(Scale::Full.pick(1, 2, 3), 3);
    }
}
