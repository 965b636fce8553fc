//! Oscillation analysis: dominance events, rotation order, and period
//! measurement from species-count time series.
//!
//! Theorem 5.1 characterizes correct oscillator operation by (i) `a_min`
//! (the smallest species count) staying small and (ii) each species
//! periodically being held by almost all agents, rotating in cyclic order.
//! These utilities extract exactly those features from recorded traces so
//! experiments can verify them quantitatively.

use crate::oscillator::NUM_SPECIES;

/// One dominance event: a species exceeded the dominance threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dominance {
    /// Parallel time at which the species first crossed the threshold in
    /// this event.
    pub time: f64,
    /// The dominant species (0, 1, or 2).
    pub species: usize,
}

/// Extracts the sequence of dominance events from a trace of
/// `(time, [#A₁, #A₂, #A₃])` rows.
///
/// A species becomes dominant when its share of the species population
/// (excluding source agents) exceeds `threshold`; the next event is only
/// recorded once a *different* species becomes dominant, so consecutive
/// events always name different species.
///
/// # Panics
///
/// Panics if `threshold` is not in `(0.5, 1.0)` (values ≤ ½ would allow two
/// simultaneous dominants).
#[must_use]
pub fn dominance_events(trace: &[(f64, [u64; NUM_SPECIES])], threshold: f64) -> Vec<Dominance> {
    assert!(
        threshold > 0.5 && threshold < 1.0,
        "threshold must be in (0.5, 1.0)"
    );
    let mut events = Vec::new();
    let mut current: Option<usize> = None;
    for &(time, counts) in trace {
        let total: u64 = counts.iter().sum();
        if total == 0 {
            continue;
        }
        for (s, &c) in counts.iter().enumerate() {
            if c as f64 / total as f64 > threshold && current != Some(s) {
                events.push(Dominance { time, species: s });
                current = Some(s);
            }
        }
    }
    events
}

/// Checks that a dominance sequence follows the cyclic order
/// `A₁ → A₂ → A₃ → A₁ …`, returning the number of violations.
#[must_use]
pub fn rotation_violations(events: &[Dominance]) -> usize {
    events
        .windows(2)
        .filter(|w| w[1].species != (w[0].species + 1) % NUM_SPECIES)
        .count()
}

/// Walks a dominance sequence cycle by cycle: one `(completion time,
/// period)` pair per completed cycle, where the period is the time since
/// the previous dominance event of the *same* species and the completion
/// time is the event that closed it.
#[must_use]
pub fn completed_periods(events: &[Dominance]) -> Vec<(f64, f64)> {
    let mut last_seen: [Option<f64>; NUM_SPECIES] = [None; NUM_SPECIES];
    let mut out = Vec::new();
    for e in events {
        if let Some(prev) = last_seen[e.species] {
            out.push((e.time, e.time - prev));
        }
        last_seen[e.species] = Some(e.time);
    }
    out
}

/// Measures full oscillation periods: the time between successive dominance
/// events of the *same* species. Returns one duration per completed cycle.
#[must_use]
pub fn periods(events: &[Dominance]) -> Vec<f64> {
    completed_periods(events)
        .into_iter()
        .map(|(_, period)| period)
        .collect()
}

/// The smallest species count in a row (`a_min` in the paper's notation).
#[must_use]
pub fn a_min(counts: &[u64; NUM_SPECIES]) -> u64 {
    *counts.iter().min().expect("3 species")
}

/// Share of the largest species in a row, in `[0, 1]` (`0` for an all-zero
/// row). Healthy rotation spends most of its time near 1; corruption
/// flattens the distribution and pushes this toward `1/3`.
#[must_use]
pub fn majority_share(counts: &[u64; NUM_SPECIES]) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let max = *counts.iter().max().expect("3 species");
    max as f64 / total as f64
}

/// First time in the trace at which `a_min` drops below `bound`
/// (Theorem 5.1(i) "escape from the central region"), or `None`.
#[must_use]
pub fn escape_time(trace: &[(f64, [u64; NUM_SPECIES])], bound: u64) -> Option<f64> {
    trace
        .iter()
        .find(|(_, c)| a_min(c) < bound)
        .map(|&(t, _)| t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(t: f64, a: u64, b: u64, c: u64) -> (f64, [u64; NUM_SPECIES]) {
        (t, [a, b, c])
    }

    #[test]
    fn dominance_extraction_basic() {
        let trace = vec![
            row(0.0, 34, 33, 33),
            row(1.0, 95, 3, 2),
            row(2.0, 90, 8, 2),
            row(3.0, 5, 92, 3),
            row(4.0, 2, 5, 93),
        ];
        let ev = dominance_events(&trace, 0.9);
        assert_eq!(ev.len(), 3);
        assert_eq!(ev[0].species, 0);
        assert_eq!(ev[1].species, 1);
        assert_eq!(ev[2].species, 2);
        assert_eq!(rotation_violations(&ev), 0);
    }

    #[test]
    fn dominance_requires_change_of_species() {
        let trace = vec![row(0.0, 95, 3, 2), row(1.0, 96, 2, 2), row(2.0, 97, 2, 1)];
        let ev = dominance_events(&trace, 0.9);
        assert_eq!(ev.len(), 1, "sustained dominance is a single event");
    }

    #[test]
    fn rotation_violation_detected() {
        let ev = vec![
            Dominance {
                time: 0.0,
                species: 0,
            },
            Dominance {
                time: 1.0,
                species: 2,
            },
        ];
        assert_eq!(rotation_violations(&ev), 1);
    }

    #[test]
    fn periods_from_same_species_returns() {
        let ev = vec![
            Dominance {
                time: 0.0,
                species: 0,
            },
            Dominance {
                time: 1.0,
                species: 1,
            },
            Dominance {
                time: 2.0,
                species: 2,
            },
            Dominance {
                time: 3.5,
                species: 0,
            },
            Dominance {
                time: 4.5,
                species: 1,
            },
        ];
        let p = periods(&ev);
        assert_eq!(p, vec![3.5, 3.5]);
        assert_eq!(completed_periods(&ev), vec![(3.5, 3.5), (4.5, 3.5)]);
    }

    #[test]
    fn majority_share_handles_edge_rows() {
        assert_eq!(majority_share(&[0, 0, 0]), 0.0);
        assert_eq!(majority_share(&[10, 0, 0]), 1.0);
        let flat = majority_share(&[33, 33, 34]);
        assert!((flat - 0.34).abs() < 1e-12);
    }

    #[test]
    fn escape_time_finds_first_crossing() {
        let trace = vec![
            row(0.0, 34, 33, 33),
            row(2.0, 50, 40, 10),
            row(3.0, 80, 19, 1),
        ];
        assert_eq!(escape_time(&trace, 5), Some(3.0));
        assert_eq!(escape_time(&trace, 1), None);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn threshold_validated() {
        let _ = dominance_events(&[], 0.4);
    }

    #[test]
    fn zero_total_rows_skipped() {
        let trace = vec![row(0.0, 0, 0, 0), row(1.0, 10, 0, 0)];
        let ev = dominance_events(&trace, 0.9);
        assert_eq!(ev.len(), 1);
    }
}
