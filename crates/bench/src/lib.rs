//! The run path of `ppsim` and the E1–E15 experiment binaries
//! ([`run`]: one command table, its flag parser, the run record and the
//! `profile` prefix), plus the bench harness helpers ([`timing`],
//! [`history`]).

#![deny(missing_docs)]
#![warn(clippy::all)]

mod commands;
mod experiments;
pub mod history;
pub mod run;
pub mod timing;

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
