//! The reactivity index of the dense count backend,
//! [`crate::counts::CountPopulation`].
//!
//! It holds the dense counts, the occupied states in ascending order, a
//! `k × k` memo of [`Protocol::is_reactive`] filled for a pair the first
//! time both its states are occupied, and `R`, the number of ordered
//! reactive pairs of distinct agents. Every scan runs over occupied states
//! only, so building the index costs `O(k + occupied²)` and a count change
//! `O(occupied)`: a protocol with 512 declared states of which five are
//! ever occupied asks about 25 pairs, not 262 144.
//!
//! The memo is filled when a state becomes occupied, so the scans read it
//! as a plain slice. The protocol is needed only then, so the index takes
//! it as `&dyn Protocol` and is compiled once, not per protocol type.
//! Because occupied states are kept in ascending order and empty states
//! carry zero weight, the rank → pair map of
//! [`ReactivityIndex::sample_reactive_pair`] is the one a scan over all
//! `k × k` pairs would give.

use crate::protocol::Protocol;
use crate::rng::SimRng;

/// Memo cells: `UNKNOWN` until [`Protocol::is_reactive`] is asked, then
/// `INERT` or `REACTIVE` (`INERT + 1`).
const UNKNOWN: u8 = 0;
const INERT: u8 = 1;
const REACTIVE: u8 = 2;

#[derive(Debug, Clone)]
pub(crate) struct ReactivityIndex {
    /// Per-state agent counts.
    dense: Vec<u64>,
    /// States with a nonzero count, ascending.
    occupied: Vec<usize>,
    /// Row-major `k × k` tri-state memo of `is_reactive`.
    memo: Vec<u8>,
    /// `R`: ordered reactive pairs of distinct agents.
    pairs: u64,
}

impl ReactivityIndex {
    /// Indexes `dense` (one count per protocol state).
    pub(crate) fn new(protocol: &dyn Protocol, dense: Vec<u64>) -> Self {
        let k = dense.len();
        let mut index = Self {
            dense,
            occupied: Vec::new(),
            memo: vec![UNKNOWN; k * k],
            pairs: 0,
        };
        for s in 0..k {
            if index.dense[s] > 0 {
                index.occupy(protocol, s);
            }
        }
        index.recount();
        index
    }

    /// `R`, the number of ordered reactive pairs of distinct agents.
    pub(crate) fn pairs(&self) -> u64 {
        self.pairs
    }

    /// Number of occupied states.
    pub(crate) fn occupied(&self) -> usize {
        self.occupied.len()
    }

    /// Per-state agent counts.
    pub(crate) fn counts(&self) -> &[u64] {
        &self.dense
    }

    /// The counts for an in-place collision epoch; follow it with
    /// [`ReactivityIndex::sync_epoch`].
    pub(crate) fn counts_mut(&mut self) -> &mut [u64] {
        &mut self.dense
    }

    /// Inserts `s` into the occupied list and fills the memo for every pair
    /// it forms with an occupied state. `O(occupied)`.
    fn occupy(&mut self, protocol: &dyn Protocol, s: usize) {
        let i = self.occupied.binary_search(&s).unwrap_err();
        self.occupied.insert(i, s);
        let k = self.dense.len();
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
    fn recount(&mut self) {
        let k = self.dense.len();
        let mut total = 0u64;
        for &a in &self.occupied {
            let row = &self.memo[a * k..(a + 1) * k];
            let ca = self.dense[a];
            for &b in &self.occupied {
                if row[b] == REACTIVE {
                    total += ca * (self.dense[b] - u64::from(a == b));
                }
            }
        }
        self.pairs = total;
    }

    /// Applies `dense[u] += delta` and adjusts `R`. `O(occupied)`.
    pub(crate) fn add(&mut self, protocol: &dyn Protocol, u: usize, delta: i64) {
        let k = self.dense.len();
        let old = self.dense[u] as i64;
        let cu = old + delta;
        self.dense[u] = cu as u64;
        if old == 0 {
            self.occupy(protocol, u);
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
            let cv = self.dense[v] as i64;
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

    /// Applies one interaction `(a, b) → (a2, b2)`.
    pub(crate) fn apply(
        &mut self,
        protocol: &dyn Protocol,
        a: usize,
        b: usize,
        a2: usize,
        b2: usize,
    ) {
        for (s, d) in [(a, -1i64), (b, -1), (a2, 1), (b2, 1)] {
            self.add(protocol, s, d);
        }
    }

    /// Brings occupancy and `R` up to date after a collision epoch moved
    /// `delta` (its net per-state movement) through [`Self::counts_mut`].
    pub(crate) fn sync_epoch(&mut self, protocol: &dyn Protocol, delta: &[i64]) {
        for (s, &d) in delta.iter().enumerate() {
            if d == 0 {
                continue;
            }
            if self.dense[s] as i64 == d {
                self.occupy(protocol, s);
            } else if self.dense[s] == 0 {
                self.vacate(s);
            }
        }
        self.recount();
    }

    /// Samples an ordered reactive state pair with probability proportional
    /// to the agent pairs realizing it, from one `rng.below(R)` draw.
    pub(crate) fn sample_reactive_pair(&self, rng: &mut SimRng) -> (usize, usize) {
        debug_assert!(self.pairs > 0);
        let k = self.dense.len();
        let mut r = rng.below(self.pairs);
        for &a in &self.occupied {
            let row = &self.memo[a * k..(a + 1) * k];
            let ca = self.dense[a];
            for &b in &self.occupied {
                if row[b] == REACTIVE {
                    let w = ca * (self.dense[b] - u64::from(a == b));
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
    pub(crate) fn is_consistent(&self, protocol: &dyn Protocol) -> bool {
        let occupied = (0..self.dense.len()).filter(|&s| self.dense[s] > 0);
        if !occupied.eq(self.occupied.iter().copied()) {
            return false;
        }
        let mut total = 0u64;
        for &a in &self.occupied {
            for &b in &self.occupied {
                if protocol.is_reactive(a, b) {
                    total += self.dense[a] * (self.dense[b] - u64::from(a == b));
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
        let mut index = ReactivityIndex::new(&p, vec![5, 0, 7, 0, 1]);
        let mut rng = SimRng::seed_from(3);
        for _ in 0..2_000 {
            assert_eq!(index.pairs(), bruteforce(index.counts()));
            assert!(index.is_consistent(&p));
            if index.pairs() == 0 {
                break;
            }
            let (a, b) = index.sample_reactive_pair(&mut rng);
            let (a2, b2) = p.interact(a, b, &mut rng);
            index.apply(&p, a, b, a2, b2);
        }
    }
}
