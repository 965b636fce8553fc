//! The reactivity index of the dense count backend,
//! [`crate::counts::CountPopulation`].
//!
//! It is derived from the population's count vector, which it takes by
//! reference and never holds: it keeps the occupied states in ascending
//! order, a `k × k` memo of [`Protocol::is_reactive`] filled for a pair the
//! first time both its states are occupied, and `R`, the number of ordered
//! reactive pairs of distinct agents. Every scan runs over occupied states
//! only, so building the index costs `O(k + occupied²)` and a count change
//! `O(occupied)`: a protocol with 512 declared states of which five are
//! ever occupied asks about 25 pairs, not 262 144. Every draw of the
//! population samples from it: a reactive pair for a leap, or one agent's
//! state by rank ([`ReactivityIndex::state_at`]) for a plain step.
//!
//! The memo is filled when a state becomes occupied, so the scans read it
//! as a plain slice. The protocol is needed only then, so the index takes
//! it as `&dyn Protocol` and is compiled once, not per protocol type.
//! Because occupied states are kept in ascending order and empty states
//! carry zero weight, the rank → pair map of
//! [`ReactivityIndex::sample_reactive_pair`] is the one a scan over all
//! `k × k` pairs would give, and the rank → state map of
//! [`ReactivityIndex::state_at`] the one a scan over all `k` counts would.

use crate::protocol::Protocol;
use crate::rng::SimRng;

/// Memo cells: `UNKNOWN` until [`Protocol::is_reactive`] is asked, then
/// `INERT` or `REACTIVE` (`INERT + 1`).
const UNKNOWN: u8 = 0;
const INERT: u8 = 1;
const REACTIVE: u8 = 2;

#[derive(Debug, Clone)]
pub(crate) struct ReactivityIndex {
    /// States with a nonzero count, ascending.
    occupied: Vec<usize>,
    /// Row-major `k × k` tri-state memo of `is_reactive`.
    memo: Vec<u8>,
    /// `R`: ordered reactive pairs of distinct agents.
    pairs: u64,
}

impl ReactivityIndex {
    /// Indexes `counts` (one count per protocol state).
    pub(crate) fn new(protocol: &dyn Protocol, counts: &[u64]) -> Self {
        let k = counts.len();
        let mut index = Self {
            occupied: Vec::new(),
            memo: vec![UNKNOWN; k * k],
            pairs: 0,
        };
        for (s, &c) in counts.iter().enumerate() {
            if c > 0 {
                index.occupy(protocol, k, s);
            }
        }
        index.recount(counts);
        index
    }

    /// `R`, the number of ordered reactive pairs of distinct agents.
    pub(crate) fn pairs(&self) -> u64 {
        self.pairs
    }

    /// Inserts `s` into the occupied list and fills the memo for every pair
    /// it forms with an occupied state, of `k` states. `O(occupied)`.
    fn occupy(&mut self, protocol: &dyn Protocol, k: usize, s: usize) {
        let i = self.occupied.binary_search(&s).unwrap_err();
        self.occupied.insert(i, s);
        for &v in &self.occupied {
            for (a, b) in [(s, v), (v, s)] {
                let cell = &mut self.memo[a * k + b];
                if *cell == UNKNOWN {
                    *cell = INERT + u8::from(protocol.is_reactive(a, b));
                }
            }
        }
    }

    fn vacate(&mut self, s: usize) {
        let i = self.occupied.binary_search(&s).expect("state was occupied");
        self.occupied.remove(i);
    }

    /// Recounts `R` over occupied pairs. `O(occupied²)`.
    fn recount(&mut self, counts: &[u64]) {
        let k = counts.len();
        let mut total = 0u64;
        for &a in &self.occupied {
            let row = &self.memo[a * k..(a + 1) * k];
            let ca = counts[a];
            for &b in &self.occupied {
                if row[b] == REACTIVE {
                    total += ca * (counts[b] - u64::from(a == b));
                }
            }
        }
        self.pairs = total;
    }

    /// Adjusts occupancy and `R` after `counts[u]` changed by `delta`
    /// (`counts` holds the new value). `O(occupied)`.
    pub(crate) fn add(&mut self, protocol: &dyn Protocol, counts: &[u64], u: usize, delta: i64) {
        let k = counts.len();
        let cu = counts[u] as i64;
        let old = cu - delta;
        if old == 0 {
            self.occupy(protocol, k, u);
        }
        let mut d = 0i64;
        for &v in &self.occupied {
            if v == u {
                // Ordered pairs within state u: c(c − 1).
                if self.memo[u * k + u] == REACTIVE {
                    d += cu * (cu - 1) - old * (old - 1);
                }
                continue;
            }
            let cv = counts[v] as i64;
            if self.memo[u * k + v] == REACTIVE {
                d += delta * cv;
            }
            if self.memo[v * k + u] == REACTIVE {
                d += cv * delta;
            }
        }
        if cu == 0 {
            self.vacate(u);
        }
        self.pairs = (self.pairs as i64 + d) as u64;
    }

    /// Brings occupancy and `R` up to date after a collision epoch moved
    /// `delta` (its net per-state movement) into `counts`.
    pub(crate) fn sync_epoch(&mut self, protocol: &dyn Protocol, counts: &[u64], delta: &[i64]) {
        for (s, &d) in delta.iter().enumerate() {
            if d == 0 {
                continue;
            }
            if counts[s] as i64 == d {
                self.occupy(protocol, counts.len(), s);
            } else if counts[s] == 0 {
                self.vacate(s);
            }
        }
        self.recount(counts);
    }

    /// The state of the agent at `rank` in ascending state order, with one
    /// agent of state `exclude` left out: the initiator's draw takes
    /// `rank < n` and no exclusion, the responder's `rank < n − 1` and the
    /// initiator's state. `O(occupied)`.
    pub(crate) fn state_at(&self, counts: &[u64], mut rank: u64, exclude: Option<usize>) -> usize {
        for &s in &self.occupied {
            let c = counts[s] - u64::from(Some(s) == exclude);
            if rank < c {
                return s;
            }
            rank -= c;
        }
        unreachable!("rank exceeded the population");
    }

    /// Samples an ordered reactive state pair with probability proportional
    /// to the agent pairs realizing it, from one `rng.below(R)` draw.
    pub(crate) fn sample_reactive_pair(&self, counts: &[u64], rng: &mut SimRng) -> (usize, usize) {
        debug_assert!(self.pairs > 0);
        let k = counts.len();
        let mut r = rng.below(self.pairs);
        for &a in &self.occupied {
            let row = &self.memo[a * k..(a + 1) * k];
            let ca = counts[a];
            for &b in &self.occupied {
                if row[b] == REACTIVE {
                    let w = ca * (counts[b] - u64::from(a == b));
                    if r < w {
                        return (a, b);
                    }
                    r -= w;
                }
            }
        }
        unreachable!("rank exhausted the reactive pair mass");
    }

    /// Whether the occupied list and `R` match a recount that asks the
    /// protocol directly instead of the memo (for debug assertions).
    pub(crate) fn is_consistent(&self, protocol: &dyn Protocol, counts: &[u64]) -> bool {
        let occupied = (0..counts.len()).filter(|&s| counts[s] > 0);
        if !occupied.eq(self.occupied.iter().copied()) {
            return false;
        }
        let mut total = 0u64;
        for &a in &self.occupied {
            for &b in &self.occupied {
                if protocol.is_reactive(a, b) {
                    total += counts[a] * (counts[b] - u64::from(a == b));
                }
            }
        }
        total == self.pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::TableProtocol;

    /// `R` matches a brute-force count over all `k × k` state pairs, and the
    /// index stays consistent, through a run whose states empty and refill:
    /// two agents sharing a state advance together around a 5-state ring.
    #[test]
    fn index_pairs_match_bruteforce() {
        let ring = TableProtocol::new(5, "ring").rule(4, 1, 1, 1);
        let p = (0..5).fold(ring, |p, s| p.rule(s, s, (s + 1) % 5, (s + 1) % 5));
        let bruteforce = |c: &[u64]| -> u64 {
            let pair = |(a, b): (usize, usize)| c[a] * c[b].saturating_sub(u64::from(a == b));
            let all = (0..5).flat_map(|a| (0..5).map(move |b| (a, b)));
            all.filter(|&(a, b)| p.is_reactive(a, b)).map(pair).sum()
        };
        let mut counts = vec![5, 0, 7, 0, 1];
        let mut index = ReactivityIndex::new(&p, &counts);
        let mut rng = SimRng::seed_from(3);
        for _ in 0..2_000 {
            assert_eq!(index.pairs(), bruteforce(&counts));
            assert!(index.is_consistent(&p, &counts));
            if index.pairs() == 0 {
                break;
            }
            let (a, b) = index.sample_reactive_pair(&counts, &mut rng);
            let (a2, b2) = p.interact(a, b, &mut rng);
            for (s, d) in [(a, -1i64), (b, -1), (a2, 1), (b2, 1)] {
                counts[s] = counts[s].wrapping_add_signed(d);
                index.add(&p, &counts, s, d);
            }
        }
    }
}
