//! Deterministic pseudo-random number generation for the simulator.
//!
//! A self-contained xoshiro256** generator seeded through SplitMix64. Every
//! source of randomness in a simulation (deflection-ranking, traffic
//! destinations, arbitration tie-breaks) draws from a [`SimRng`] so that runs
//! are exactly reproducible from a seed — a property asserted by the
//! integration test suite.

use crate::snapshot::record_codec;

/// Deterministic PRNG (xoshiro256**).
///
/// # Examples
///
/// ```
/// use afc_netsim::rng::SimRng;
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> SimRng {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Returns the raw xoshiro256** state words — all a snapshot holds of
    /// a generator (its [`Codec`](crate::snapshot::Codec) is these four
    /// words), so a restored generator produces the identical stream.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Derives an independent stream for a sub-component.
    ///
    /// Forked streams with distinct `stream` values are statistically
    /// independent of each other and of the parent.
    pub fn fork(&self, stream: u64) -> SimRng {
        let mut sm = self.s[0] ^ stream.wrapping_mul(0xA076_1D64_78BD_642F);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `0..bound` (Lemire's method).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be positive");
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform index in `0..len` as `usize`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    #[inline]
    pub fn gen_index(&mut self, len: usize) -> usize {
        self.gen_range(len as u64) as usize
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        // 53-bit uniform in [0, 1).
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < p
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_index(i + 1);
            slice.swap(i, j);
        }
    }

    /// Geometric-ish exponential sample with the given mean (for think
    /// times). Returns at least 1.
    pub fn gen_exp(&mut self, mean: f64) -> u64 {
        if mean <= 0.0 {
            return 1;
        }
        let u = self.gen_f64().max(f64::MIN_POSITIVE);
        let v = -mean * u.ln();
        v.max(1.0).min(u64::MAX as f64) as u64
    }
}

record_codec!(SimRng { s });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn forked_streams_are_deterministic_and_distinct() {
        let root = SimRng::seed_from(9);
        let mut f1 = root.fork(1);
        let mut f1b = root.fork(1);
        let mut f2 = root.fork(2);
        assert_eq!(f1.next_u64(), f1b.next_u64());
        assert_ne!(f1.next_u64(), f2.next_u64());
    }

    #[test]
    fn gen_range_is_in_bounds_and_covers() {
        let mut rng = SimRng::seed_from(3);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = rng.gen_range(7);
            assert!(v < 7);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = SimRng::seed_from(4);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
        let trues = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2_500..3_500).contains(&trues), "got {trues}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::seed_from(5);
        let mut v: Vec<u32> = (0..20).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<u32>>());
    }

    #[test]
    fn gen_exp_mean_is_close() {
        let mut rng = SimRng::seed_from(6);
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| rng.gen_exp(50.0)).sum();
        let mean = sum as f64 / n as f64;
        assert!((40.0..60.0).contains(&mean), "mean {mean}");
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut rng = SimRng::seed_from(8);
        for _ in 0..1000 {
            let v = rng.gen_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }
}
