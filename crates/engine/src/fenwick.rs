//! Fenwick (binary indexed) tree over `u64` weights with logarithmic-time
//! weighted sampling.
//!
//! The count-based simulator keeps one weight per protocol state (the number
//! of agents in that state) and must repeatedly (a) sample a state with
//! probability proportional to its count and (b) apply ±1 updates as agents
//! transition. A Fenwick tree supports both in `O(log k)` for `k` states,
//! which keeps even clock-hierarchy state spaces (tens of thousands of
//! composite states) cheap.
//!
//! # Examples
//!
//! ```
//! use pp_engine::fenwick::Fenwick;
//!
//! let mut f = Fenwick::from_weights(&[2, 0, 3]);
//! assert_eq!(f.total(), 5);
//! assert_eq!(f.find(0), 0); // prefix ranks 0,1 → state 0
//! assert_eq!(f.find(2), 2); // ranks 2,3,4 → state 2
//! f.add(1, 4);
//! assert_eq!(f.get(1), 4);
//! ```

/// A Fenwick tree over non-negative `u64` weights.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fenwick {
    /// 1-indexed partial sums; `tree[0]` unused.
    tree: Vec<u64>,
    len: usize,
    total: u64,
}

impl Fenwick {
    /// Creates a tree of `len` zero weights.
    #[must_use]
    pub fn new(len: usize) -> Self {
        Self {
            tree: vec![0; len + 1],
            len,
            total: 0,
        }
    }

    /// Builds a tree from initial weights in `O(len)`.
    #[must_use]
    pub fn from_weights(weights: &[u64]) -> Self {
        crate::recorder::add(crate::metrics::Counter::FenwickRebuilds, 1);
        let _span = crate::prof::section(crate::prof::Section::FenwickRebuild);
        let len = weights.len();
        let mut tree = vec![0u64; len + 1];
        let mut total = 0u64;
        for (i, &w) in weights.iter().enumerate() {
            total += w;
            let pos = i + 1;
            tree[pos] += w;
            let parent = pos + (pos & pos.wrapping_neg());
            if parent <= len {
                let carried = tree[pos];
                tree[parent] += carried;
            }
        }
        Self { tree, len, total }
    }

    /// Number of slots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree has zero slots.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sum of all weights.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Adds signed `delta` to slot `i`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the slot would go negative, and always if
    /// `i` is out of bounds.
    pub fn add(&mut self, i: usize, delta: i64) {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        debug_assert!(
            delta >= 0 || self.get(i) >= delta.unsigned_abs(),
            "slot {i} would go negative"
        );
        self.total = (self.total as i64 + delta) as u64;
        let mut pos = i + 1;
        while pos <= self.len {
            self.tree[pos] = (self.tree[pos] as i64 + delta) as u64;
            pos += pos & pos.wrapping_neg();
        }
    }

    /// Returns the weight at slot `i` in `O(log len)`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[must_use]
    pub fn get(&self, i: usize) -> u64 {
        self.prefix(i + 1) - self.prefix(i)
    }

    /// Sum of weights in slots `0..i`.
    ///
    /// # Panics
    ///
    /// Panics if `i > len`.
    #[must_use]
    pub fn prefix(&self, i: usize) -> u64 {
        assert!(i <= self.len);
        let mut pos = i;
        let mut sum = 0;
        while pos > 0 {
            sum += self.tree[pos];
            pos -= pos & pos.wrapping_neg();
        }
        sum
    }

    /// Finds the slot containing cumulative rank `r`: the smallest `i` with
    /// `prefix(i + 1) > r`. This maps a uniform rank in `0..total()` to a
    /// weighted sample.
    ///
    /// # Panics
    ///
    /// Panics if `r >= total()`.
    #[must_use]
    pub fn find(&self, mut r: u64) -> usize {
        assert!(r < self.total, "rank {r} >= total {}", self.total);
        let mut pos = 0usize;
        // Highest power of two ≤ len.
        let mut step = if self.len == 0 {
            0
        } else {
            1usize << (usize::BITS - 1 - self.len.leading_zeros())
        };
        while step > 0 {
            let next = pos + step;
            if next <= self.len && self.tree[next] <= r {
                r -= self.tree[next];
                pos = next;
            }
            step >>= 1;
        }
        pos
    }

    /// Copies all weights out into a vector (for reporting).
    #[must_use]
    pub fn to_weights(&self) -> Vec<u64> {
        (0..self.len).map(|i| self.get(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn from_weights_matches_incremental() {
        let w = [5u64, 0, 3, 7, 1, 0, 2];
        let built = Fenwick::from_weights(&w);
        let mut inc = Fenwick::new(w.len());
        for (i, &x) in w.iter().enumerate() {
            inc.add(i, x as i64);
        }
        assert_eq!(built, inc);
        assert_eq!(built.to_weights(), w.to_vec());
    }

    #[test]
    fn prefix_sums_are_correct() {
        let w = [1u64, 2, 3, 4, 5];
        let f = Fenwick::from_weights(&w);
        let mut acc = 0;
        for i in 0..=w.len() {
            assert_eq!(f.prefix(i), acc);
            if i < w.len() {
                acc += w[i];
            }
        }
    }

    #[test]
    fn find_maps_every_rank() {
        let w = [2u64, 0, 3, 1];
        let f = Fenwick::from_weights(&w);
        let expect = [0, 0, 2, 2, 2, 3];
        for (r, &e) in expect.iter().enumerate() {
            assert_eq!(f.find(r as u64), e, "rank {r}");
        }
    }

    #[test]
    #[should_panic(expected = ">= total")]
    fn find_rejects_out_of_range_rank() {
        let f = Fenwick::from_weights(&[1, 1]);
        let _ = f.find(2);
    }

    #[test]
    fn add_and_remove_roundtrip() {
        let mut f = Fenwick::new(10);
        f.add(3, 5);
        f.add(7, 2);
        f.add(3, -5);
        assert_eq!(f.get(3), 0);
        assert_eq!(f.get(7), 2);
        assert_eq!(f.total(), 2);
    }

    #[test]
    fn sampling_is_proportional_to_weights() {
        let w = [10u64, 30, 0, 60];
        let f = Fenwick::from_weights(&w);
        let mut rng = SimRng::seed_from(7);
        let mut hits = [0u32; 4];
        let trials = 50_000;
        for _ in 0..trials {
            hits[f.find(rng.below(f.total()))] += 1;
        }
        assert_eq!(hits[2], 0);
        for (i, &target) in [0.1, 0.3, 0.0, 0.6].iter().enumerate() {
            let rate = hits[i] as f64 / trials as f64;
            assert!((rate - target).abs() < 0.02, "state {i} rate {rate}");
        }
    }

    #[test]
    fn single_slot_tree() {
        let f = Fenwick::from_weights(&[4]);
        for r in 0..4 {
            assert_eq!(f.find(r), 0);
        }
    }

    #[test]
    fn large_random_tree_agrees_with_naive() {
        let mut rng = SimRng::seed_from(100);
        let w: Vec<u64> = (0..257).map(|_| rng.below(10)).collect();
        let f = Fenwick::from_weights(&w);
        // Naive check of find() against linear scan for 200 random ranks.
        for _ in 0..200 {
            if f.total() == 0 {
                break;
            }
            let r = rng.below(f.total());
            let mut acc = 0;
            let mut expect = 0;
            for (i, &x) in w.iter().enumerate() {
                if r < acc + x {
                    expect = i;
                    break;
                }
                acc += x;
            }
            assert_eq!(f.find(r), expect);
        }
    }
}
