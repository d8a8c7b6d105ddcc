//! Seedable, splittable pseudo-random number generation.
//!
//! [`SimRng`] is xoshiro256++ (Blackman & Vigna), seeded through
//! SplitMix64 so that *any* `u64` — including 0 — expands to a
//! well-mixed 256-bit state. Neither algorithm is cryptographic; both
//! are the standard choice for reproducible simulation: fast, tiny
//! state, equidistributed, and with cheap stream derivation for
//! parallel Monte-Carlo ([`SimRng::for_trial`]).
//!
//! The [`Rng`] trait carries the sampling surface the workspace
//! actually uses (`gen_f64`, `gen_bool`, `gen_range`, and
//! [`SliceRandom::shuffle`]); it is deliberately close to the `rand`
//! API it replaced so call sites migrated mechanically.

use std::ops::{Range, RangeInclusive};

/// The 64-bit golden-ratio increment used by SplitMix64 and for
/// decorrelating trial streams.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64: the seed expander. One `u64` of state, one output per
/// step; used to turn user seeds into xoshiro state and to derive
/// per-trial child seeds.
///
/// # Examples
///
/// ```
/// use sim_runtime::SplitMix64;
///
/// let mut a = SplitMix64::new(7);
/// let mut b = SplitMix64::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates the expander from a seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// One link of the keyed-hash chain: fold `word` into `h` and mix it
/// with one SplitMix64 step.
fn hash_round(h: u64, word: u64) -> u64 {
    SplitMix64::new(h ^ word).next_u64()
}

/// Uniform value in `[-1, 1)` from a keyed hash of three words: three
/// chained SplitMix64 rounds, the top 53 bits of the last one mapped
/// onto the interval. A pure function of its input, so per-site and
/// per-link draws need no generator state.
///
/// # Examples
///
/// ```
/// use sim_runtime::{signed_unit, HashPrefix};
///
/// let u = signed_unit([1, 2, 3]);
/// assert!((-1.0..1.0).contains(&u));
/// assert_eq!(u.to_bits(), HashPrefix::new(1, 2).signed_unit(3).to_bits());
/// ```
#[must_use]
pub fn signed_unit(words: [u64; 3]) -> f64 {
    HashPrefix::new(words[0], words[1]).signed_unit(words[2])
}

/// [`signed_unit`] with its first two words folded in ahead of time.
///
/// A draw keyed by `(stream, link, tick)` spends two of its three
/// rounds on words that never change for a link; caching the prefix
/// leaves one round per draw. `HashPrefix::new(a, b).signed_unit(c)`
/// is bit-identical to `signed_unit([a, b, c])`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashPrefix(u64);

impl HashPrefix {
    /// Runs the first two rounds of the chain over `a` then `b`.
    #[must_use]
    pub fn new(a: u64, b: u64) -> Self {
        HashPrefix(hash_round(hash_round(0, a), b))
    }

    /// Finishes the chain with `c` and maps it onto `[-1, 1)`.
    #[must_use]
    pub fn signed_unit(self, c: u64) -> f64 {
        let h = hash_round(self.0, c);
        (h >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }
}

/// The workspace's simulation PRNG: xoshiro256++ with SplitMix64
/// seeding.
///
/// # Examples
///
/// ```
/// use sim_runtime::{Rng, SimRng};
///
/// let mut rng = SimRng::seed_from_u64(1);
/// let x = rng.gen_f64();
/// assert!((0.0..1.0).contains(&x));
///
/// // Same seed, same stream.
/// let mut a = SimRng::seed_from_u64(9);
/// let mut b = SimRng::seed_from_u64(9);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Seeds the generator from a single `u64` by expanding it through
    /// SplitMix64 (the seeding procedure recommended by the xoshiro
    /// authors).
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        SimRng {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// The independent child generator for trial `trial` of a sweep
    /// rooted at `seed`.
    ///
    /// The stream depends only on `(seed, trial)` — not on which
    /// worker thread runs the trial or in what order — which is what
    /// makes [`crate::ParallelSweep`] results bit-identical for any
    /// thread count. Decorrelation runs the root seed through one
    /// SplitMix64 step before folding in the golden-ratio-spaced
    /// trial index, so `for_trial(s, 0)` differs from
    /// `seed_from_u64(s)`.
    #[must_use]
    pub fn for_trial(seed: u64, trial: u64) -> Self {
        let base = SplitMix64::new(seed).next_u64();
        SimRng::seed_from_u64(base ^ trial.wrapping_mul(GOLDEN_GAMMA).wrapping_add(GOLDEN_GAMMA))
    }

    /// Splits off a new generator whose stream is independent of the
    /// parent's continuation (the parent advances one step to pay for
    /// the split).
    pub fn split(&mut self) -> Self {
        SimRng::seed_from_u64(self.next_u64())
    }
}

impl Rng for SimRng {
    fn next_u64(&mut self) -> u64 {
        // xoshiro256++ step.
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// Uniform random sampling: the trait every sampling helper in the
/// workspace is generic over.
///
/// Only [`Rng::next_u64`] is required; everything else is derived.
pub trait Rng {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    fn gen_f64(&mut self) -> f64 {
        // Take the top 53 bits; 2^-53 scaling lands in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform `u64` strictly below `bound`, without modulo bias
    /// (rejection sampling on the largest multiple of `bound`).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    fn gen_u64_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Reject the tail [max - (max+1) % bound, max] that would
        // over-represent small residues.
        let zone = u64::MAX - (u64::MAX % bound + 1) % bound;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return v % bound;
            }
        }
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p ≤ 1`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.gen_f64() < p
    }

    /// A uniform sample from `range` (half-open `a..b` or inclusive
    /// `a..=b`, over floats or the primitive integer types).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }
}

/// A range that a uniform sample can be drawn from. Implemented for
/// `Range` and `RangeInclusive` over `f64` and the primitive integer
/// types.
pub trait SampleRange<T> {
    /// Draws one uniform sample from the range.
    fn sample_from<R: Rng>(self, rng: &mut R) -> T;
}

impl SampleRange<f64> for Range<f64> {
    fn sample_from<R: Rng>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample from empty range");
        let v = self.start + (self.end - self.start) * rng.gen_f64();
        // Floating rounding can land exactly on `end`; fold it back.
        if v < self.end {
            v
        } else {
            self.start
        }
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    fn sample_from<R: Rng>(self, rng: &mut R) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "cannot sample from empty range");
        lo + (hi - lo) * rng.gen_f64()
    }
}

macro_rules! impl_int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: Rng>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from empty range");
                let span = self.end.abs_diff(self.start) as u64;
                let off = rng.gen_u64_below(span);
                self.start.wrapping_add(off as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: Rng>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample from empty range");
                let span = hi.abs_diff(lo) as u64;
                let off = if span == u64::MAX {
                    rng.next_u64()
                } else {
                    rng.gen_u64_below(span + 1)
                };
                lo.wrapping_add(off as $t)
            }
        }
    )*};
}

impl_int_sample_range!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

/// Slice helpers driven by an [`Rng`] — the replacement for
/// `rand::seq::SliceRandom`.
pub trait SliceRandom {
    /// Uniformly permutes the slice in place (Fisher–Yates).
    fn shuffle<R: Rng>(&mut self, rng: &mut R);
}

impl<T> SliceRandom for [T] {
    fn shuffle<R: Rng>(&mut self, rng: &mut R) {
        for i in (1..self.len()).rev() {
            let j = rng.gen_u64_below(i as u64 + 1) as usize;
            self.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference outputs for seed 1234567 from the public-domain
        // splitmix64.c test suite.
        let mut sm = SplitMix64::new(1234567);
        assert_eq!(sm.next_u64(), 6457827717110365317);
        assert_eq!(sm.next_u64(), 3203168211198807973);
        assert_eq!(sm.next_u64(), 9817491932198370423);
    }

    #[test]
    fn hash_prefix_matches_the_full_chain() {
        // The three-round chain written out longhand.
        let chain = |words: [u64; 3]| {
            let mut h = 0u64;
            for w in words {
                h = SplitMix64::new(h ^ w).next_u64();
            }
            (h >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        };
        let mut rng = SimRng::seed_from_u64(2024);
        for _ in 0..10_000 {
            let words = [rng.next_u64(), rng.next_u64(), rng.next_u64()];
            let want = chain(words).to_bits();
            assert_eq!(signed_unit(words).to_bits(), want);
            let prefix = HashPrefix::new(words[0], words[1]);
            assert_eq!(prefix.signed_unit(words[2]).to_bits(), want);
        }
    }

    #[test]
    fn signed_unit_covers_half_open_interval() {
        let (mut lo, mut hi) = (0.0f64, 0.0f64);
        for i in 0..10_000u64 {
            let u = signed_unit([3, 5, i]);
            assert!((-1.0..1.0).contains(&u), "{u} outside [-1, 1)");
            lo = lo.min(u);
            hi = hi.max(u);
        }
        assert!(lo < -0.99 && hi > 0.99, "fills the interval: [{lo}, {hi}]");
    }

    #[test]
    fn xoshiro_is_deterministic_and_nontrivial() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        let seq_a: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let seq_b: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_eq!(seq_a, seq_b);
        // Not constant, not obviously periodic at tiny scale.
        assert!(seq_a.windows(2).any(|w| w[0] != w[1]));
        let mut c = SimRng::seed_from_u64(43);
        assert_ne!(seq_a[0], c.next_u64());
    }

    #[test]
    fn zero_seed_is_fine() {
        // xoshiro would be stuck at all-zero state; SplitMix64 seeding
        // must prevent that.
        let mut rng = SimRng::seed_from_u64(0);
        let v: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
        assert!(v.iter().any(|&x| x != 0));
    }

    #[test]
    fn f64_stays_in_unit_interval_and_fills_it() {
        let mut rng = SimRng::seed_from_u64(3);
        let mut lo = 1.0f64;
        let mut hi = 0.0f64;
        for _ in 0..10_000 {
            let x = rng.gen_f64();
            assert!((0.0..1.0).contains(&x), "{x} out of [0,1)");
            lo = lo.min(x);
            hi = hi.max(x);
        }
        assert!(lo < 0.01 && hi > 0.99, "poor coverage: [{lo}, {hi}]");
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = SimRng::seed_from_u64(5);
        for _ in 0..5_000 {
            let a = rng.gen_range(-4i64..=4);
            assert!((-4..=4).contains(&a));
            let b = rng.gen_range(-100i32..100);
            assert!((-100..100).contains(&b));
            let c = rng.gen_range(0.5f64..2.5);
            assert!((0.5..2.5).contains(&c));
            let d = rng.gen_range(1.0f64..=1.0);
            assert_eq!(d, 1.0);
            let e = rng.gen_range(0usize..7);
            assert!(e < 7);
        }
    }

    #[test]
    fn int_range_hits_every_value() {
        let mut rng = SimRng::seed_from_u64(6);
        let mut seen = [false; 9];
        for _ in 0..2_000 {
            let v = rng.gen_range(-4i64..=4);
            seen[(v + 4) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "missed values: {seen:?}");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = SimRng::seed_from_u64(8);
        let hits = (0..20_000).filter(|_| rng.gen_bool(0.3)).count();
        let ratio = hits as f64 / 20_000.0;
        assert!((ratio - 0.3).abs() < 0.02, "ratio {ratio}");
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    fn shuffle_permutes_uniformly_enough() {
        let mut rng = SimRng::seed_from_u64(9);
        // Every element must visit every position.
        let mut counts = [[0usize; 4]; 4];
        for _ in 0..4_000 {
            let mut v = [0usize, 1, 2, 3];
            v.shuffle(&mut rng);
            for (pos, &x) in v.iter().enumerate() {
                counts[x][pos] += 1;
            }
        }
        for row in &counts {
            for &c in row {
                // Expect ~1000 per cell; catch gross bias only.
                assert!((700..1300).contains(&c), "biased shuffle: {counts:?}");
            }
        }
    }

    #[test]
    fn trial_streams_are_distinct_and_stable() {
        let mut r0 = SimRng::for_trial(7, 0);
        let mut r1 = SimRng::for_trial(7, 1);
        assert_ne!(r0.next_u64(), r1.next_u64());
        let mut again = SimRng::for_trial(7, 0);
        assert_eq!(SimRng::for_trial(7, 0), again.clone());
        let _ = again.next_u64();
        // And the trial stream differs from the plain seeded stream.
        let mut root = SimRng::seed_from_u64(7);
        let mut t0 = SimRng::for_trial(7, 0);
        assert_ne!(root.next_u64(), t0.next_u64());
    }

    #[test]
    fn split_decorrelates() {
        let mut parent = SimRng::seed_from_u64(11);
        let mut child = parent.split();
        let a: Vec<u64> = (0..8).map(|_| parent.next_u64()).collect();
        let b: Vec<u64> = (0..8).map(|_| child.next_u64()).collect();
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_rejected() {
        let mut rng = SimRng::seed_from_u64(1);
        let _ = rng.gen_range(5i64..5);
    }
}
