//! Seed derivation, order statistics and probe timing.

use std::hint::black_box;
use std::time::Instant;

/// SplitMix64: the benchmark's own input generator, independent of the
/// simulator's RNG so that engine changes never change a workload's inputs.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// Derives the seed of item `index` from a parent seed.
#[must_use]
pub fn derive(seed: u64, index: u64) -> u64 {
    let mut g = SplitMix::new(seed ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03));
    g.next_u64()
}

/// Median of a non-empty sample (mean of the middle pair for even sizes).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Per-call cost of `f` in nanoseconds: the median over `blocks` timed
/// blocks of `per_block` calls each, so a single timing is far above the
/// clock's resolution and a slow phase of the host moves only some blocks.
pub fn probe_ns(blocks: usize, per_block: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..blocks)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per_block {
                f();
            }
            t.elapsed().as_nanos() as f64 / per_block as f64
        })
        .collect();
    median(&samples)
}

/// Seconds taken by `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Seconds [`reference_kernel_s`] takes on a quiet reference host (an
/// Intel Xeon KVM guest); the unit of the benchmark's speed correction.
pub const REFERENCE_KERNEL_S: f64 = 0.011;

/// How strongly the workloads follow the reference kernel's slowdown: a
/// trial's slowdown is `(kernel time / REFERENCE_KERNEL_S)^SPEED_EXPONENT`,
/// with the kernel timed just before and just after the trial. Over runs
/// in quiet and in loaded phases of the reference host the kernel slowed
/// by up to 2× while trials slowed by up to 1.5×; of the exponents 0, 0.5,
/// 0.75 and 1, 0.75 left the smallest run-to-run spread on the four
/// workloads together.
pub const SPEED_EXPONENT: f64 = 0.75;

/// Times the reference kernel: a fixed loop of random-number generation,
/// logarithms and divisions, the operations the host's slow phases hit
/// hardest. It depends on nothing in the simulator, so its time changes
/// only when the host's speed does.
pub fn reference_kernel_s() -> f64 {
    let ((), secs) = timed(|| {
        let mut x = 0x1234_5678_9abc_def0_u64;
        let mut acc = 0.0_f64;
        for i in 0..black_box(1_000_000_u64) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let u = (x >> 11) as f64 * (1.0 / (1_u64 << 53) as f64) + 1e-12;
            acc += u.ln() / (1.0 + (i & 7) as f64);
        }
        black_box(acc);
    });
    secs
}
