//! Small, fast, deterministic PRNGs used across the workspace.
//!
//! The hot paths (sampling, generators) use a hand-rolled xorshift128+ and
//! SplitMix64 rather than `rand`'s generic machinery: the generators below
//! are branch-free, inline, and identical across platforms, which keeps
//! every experiment reproducible from a single `u64` seed.

/// SplitMix64: used to seed other generators and for one-shot hashing.
///
/// Passes BigCrush when used as a generator; its main role here is turning
/// one user-provided seed into arbitrarily many independent streams.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed.
    #[inline]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64 uniformly random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// One-shot SplitMix64 finalizer; handy for hashing (seed, index) pairs.
#[inline]
pub fn mix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xorshift128+: the workhorse generator for sampling loops.
///
/// Two words of state, one add, three shifts per output — fast enough that
/// sampling never dominates an embedding update, mirroring the role of the
/// in-kernel RNG in the paper's CUDA implementation.
#[derive(Clone, Debug)]
pub struct Xorshift128Plus {
    s0: u64,
    s1: u64,
}

impl Xorshift128Plus {
    /// Seed via SplitMix64 (as recommended by the xorshift authors) so that
    /// even seeds 0 and 1 give well-mixed streams. State is never all-zero.
    #[inline]
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s0 = sm.next_u64();
        let mut s1 = sm.next_u64();
        if s0 == 0 && s1 == 0 {
            s1 = 0x9E37_79B9_7F4A_7C15;
        }
        Self { s0, s1 }
    }

    /// A generator at exactly the state `(s0, s1)`, for callers that
    /// derive the state words themselves. The state must not be all-zero.
    #[inline]
    pub const fn from_state(s0: u64, s1: u64) -> Self {
        Self { s0, s1 }
    }

    /// Next 64 uniformly random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.s0;
        let y = self.s1;
        self.s0 = y;
        x ^= x << 23;
        self.s1 = x ^ y ^ (x >> 17) ^ (y >> 26);
        self.s1.wrapping_add(y)
    }

    /// Uniform integer in `[0, bound)` via Lemire's multiply-shift.
    ///
    /// The tiny modulo bias (< 2^-32 for the graph sizes used here) is the
    /// same trade the paper's GPU sampler makes; negative-sample quality is
    /// unaffected.
    #[inline]
    pub fn below(&mut self, bound: u32) -> u32 {
        debug_assert!(bound > 0);
        let x = self.next_u64() as u32 as u64;
        ((x * bound as u64) >> 32) as u32
    }

    /// Uniform integer in `[0, bound)` for 64-bit bounds, via the 128-bit
    /// multiply-shift. [`Self::below`] keeps only the low 32 bits of the
    /// stream, so it silently truncates (and biases) once `bound` exceeds
    /// `u32::MAX` — billion-edge shuffles must use this instead.
    #[inline]
    pub fn below_u64(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        (((self.next_u64() as u128) * (bound as u128)) >> 64) as u64
    }

    /// [`Self::below_u64`] for `usize` bounds (indexing convenience).
    #[inline]
    pub fn below_usize(&mut self, bound: usize) -> usize {
        self.below_u64(bound as u64) as usize
    }

    /// Uniform `f32` in `[0, 1)`.
    #[inline]
    pub fn next_f32(&mut self) -> f32 {
        // 24 high-quality mantissa bits.
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splitmix_distinct_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn xorshift_never_zero_state() {
        // Seed 0 must still produce a usable stream.
        let mut r = Xorshift128Plus::new(0);
        let mut all_zero = true;
        for _ in 0..16 {
            if r.next_u64() != 0 {
                all_zero = false;
            }
        }
        assert!(!all_zero);
    }

    #[test]
    fn below_respects_bound() {
        let mut r = Xorshift128Plus::new(7);
        for bound in [1u32, 2, 3, 10, 1000, u32::MAX] {
            for _ in 0..200 {
                assert!(r.below(bound) < bound);
            }
        }
    }

    #[test]
    fn below_covers_small_range() {
        let mut r = Xorshift128Plus::new(11);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.below(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn below_u64_respects_bound() {
        let mut r = Xorshift128Plus::new(13);
        for bound in [1u64, 2, 1000, u32::MAX as u64 + 1, 1 << 40, u64::MAX] {
            for _ in 0..200 {
                assert!(r.below_u64(bound) < bound);
            }
        }
    }

    #[test]
    fn below_u64_covers_small_range() {
        let mut r = Xorshift128Plus::new(17);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.below_usize(8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn below_u64_reaches_beyond_u32() {
        // A 2^40 bound must produce values the 32-bit sampler never could.
        let mut r = Xorshift128Plus::new(19);
        let max = (0..1000).map(|_| r.below_u64(1 << 40)).max().unwrap();
        assert!(max > u32::MAX as u64, "max draw {max}");
    }

    #[test]
    fn f32_in_unit_interval() {
        let mut r = Xorshift128Plus::new(3);
        for _ in 0..1000 {
            let x = r.next_f32();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_is_near_half() {
        let mut r = Xorshift128Plus::new(5);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| r.next_f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn mix64_differs_from_identity() {
        assert_ne!(mix64(0), 0);
        assert_ne!(mix64(1), 1);
        assert_ne!(mix64(0), mix64(1));
    }
}
