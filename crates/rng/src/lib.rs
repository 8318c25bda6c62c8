#![warn(missing_docs)]
//! Hermetic pseudo-random number generation.
//!
//! This crate replaces the external `rand` crate so that the workspace
//! builds and tests with **zero external dependencies** (no registry
//! access required). It deliberately mirrors the small slice of the
//! `rand` 0.8 API surface the repository uses, so call sites read
//! identically:
//!
//! ```
//! use mars_rng::rngs::StdRng;
//! use mars_rng::seq::SliceRandom;
//! use mars_rng::{Rng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(42);
//! let dev: usize = rng.gen_range(0..5);
//! let u: f32 = rng.gen();
//! let mut xs = vec![1, 2, 3, 4];
//! xs.shuffle(&mut rng);
//! assert!(dev < 5 && (0.0..1.0).contains(&u));
//! ```
//!
//! Design:
//! * **Seeding** always goes through [`rngs::SplitMix64`] — a single
//!   `u64` seed expands into well-mixed full-period state, so nearby
//!   seeds (1, 2, 3, …) produce uncorrelated streams.
//! * **Core generator**: [`rngs::StdRng`] is xoshiro256++ (fast,
//!   64-bit output, passes BigCrush).
//! * **Determinism** is a hard guarantee: the byte sequence produced by
//!   a seeded generator is stable across platforms and releases. RL
//!   placers are notoriously seed-sensitive, and every experiment in
//!   EXPERIMENTS.md is reproducible from its `u64` seed alone.
//! * [`prop`] is a tiny property-test harness (seeded case generation,
//!   shrink-free failure reporting) replacing `proptest`.

pub mod prop;
pub mod rngs;
pub mod seq;

use std::ops::{Range, RangeInclusive};

/// Low-level generator interface: a source of uniform random bits.
///
/// Object-safe; everything else is provided by the [`Rng`] extension
/// trait, which is blanket-implemented for all `RngCore` types.
pub trait RngCore {
    /// Next 64 uniform random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 uniform random bits (high half of [`next_u64`]
    /// by default — the high bits are the best-mixed in both cores).
    ///
    /// [`next_u64`]: RngCore::next_u64
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fill `dest` with uniform random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rest = chunks.into_remainder();
        if !rest.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rest.copy_from_slice(&bytes[..rest.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }

    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
}

/// Generators constructible from a `u64` seed.
pub trait SeedableRng: Sized {
    /// Build a generator whose full state is derived from `seed` via
    /// SplitMix64 expansion. Equal seeds give equal streams; unequal
    /// seeds (even consecutive ones) give independent-looking streams.
    fn seed_from_u64(seed: u64) -> Self;
}

/// User-facing extension methods over any [`RngCore`].
pub trait Rng: RngCore {
    /// Sample a value of type `T` from its "standard" distribution:
    /// uniform `[0, 1)` for floats, uniform over all values for
    /// integers and `bool`.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Sample uniformly from a range (`a..b` or `a..=b`).
    ///
    /// # Panics
    /// If the range is empty.
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        Self: Sized,
        R: SampleRange<T>,
    {
        range.sample_from(self)
    }

    /// Bernoulli sample: `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        f64::sample(self) < p
    }

    /// Standard-normal sample via the Box–Muller transform.
    fn normal(&mut self) -> f64
    where
        Self: Sized,
    {
        loop {
            // u1 in (0, 1] so ln(u1) is finite.
            let u1 = 1.0 - f64::sample(self);
            let u2 = f64::sample(self);
            let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            if z.is_finite() {
                return z;
            }
        }
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Types sampleable from their standard distribution (see [`Rng::gen`]).
pub trait Standard: Sized {
    /// Draw one sample.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 24 high bits → uniform multiples of 2^-24 in [0, 1).
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 high bits → uniform multiples of 2^-53 in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for usize {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges that [`Rng::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Draw one sample from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Unbiased integer sampling in `[0, bound)` by rejection (widening
/// multiply trick; the rejection zone is at most `bound` values).
pub(crate) fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    // Rejection threshold: multiples of `bound` fitting in 2^64.
    let zone = bound.wrapping_neg() % bound;
    loop {
        let x = rng.next_u64();
        let m = (x as u128) * (bound as u128);
        if (m as u64) >= zone {
            return (m >> 64) as u64;
        }
    }
}

macro_rules! impl_int_range {
    ($($t:ty => $wide:ty),* $(,)?) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as $wide).wrapping_sub(self.start as $wide) as u64;
                self.start.wrapping_add(uniform_below(rng, span) as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi as $wide).wrapping_sub(lo as $wide) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(uniform_below(rng, span + 1) as $t)
            }
        }
    )*};
}

impl_int_range!(
    usize => u64, u64 => u64, u32 => u32, u16 => u16, u8 => u8,
    isize => i64, i64 => i64, i32 => i32, i16 => i16, i8 => i8,
);

macro_rules! impl_float_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let u = <$t as Standard>::sample(rng);
                let v = self.start + u * (self.end - self.start);
                // Guard against rounding up to the excluded endpoint.
                if v < self.end { v } else { self.start }
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let u = <$t as Standard>::sample(rng);
                lo + u * (hi - lo)
            }
        }
    )*};
}

impl_float_range!(f32, f64);

#[cfg(test)]
mod tests {
    use super::rngs::{SplitMix64, StdRng};
    use super::seq::SliceRandom;
    use super::*;

    #[test]
    fn seeding_is_deterministic_and_sensitive() {
        let a: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(8);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn splitmix_reference_vector() {
        // Reference values from the splitmix64 reference implementation
        // (Vigna), seed = 0.
        let mut sm = SplitMix64::new(0);
        assert_eq!(sm.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(sm.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn gen_range_int_bounds_and_coverage() {
        let mut r = StdRng::seed_from_u64(1);
        let mut seen = [false; 5];
        for _ in 0..500 {
            let v: usize = r.gen_range(0..5);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit: {seen:?}");
        for _ in 0..500 {
            let v: i32 = r.gen_range(-3..=3);
            assert!((-3..=3).contains(&v));
        }
    }

    #[test]
    fn gen_range_float_bounds() {
        let mut r = StdRng::seed_from_u64(2);
        for _ in 0..1000 {
            let v: f32 = r.gen_range(-2.0..3.0);
            assert!((-2.0..3.0).contains(&v), "{v}");
            let w: f32 = r.gen_range(-1.0..=1.0);
            assert!((-1.0..=1.0).contains(&w), "{w}");
        }
    }

    #[test]
    fn gen_unit_floats_in_range_with_plausible_mean() {
        let mut r = StdRng::seed_from_u64(3);
        let n = 10_000;
        let mut sum = 0.0f64;
        for _ in 0..n {
            let v: f64 = r.gen();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn normal_moments_roughly_standard() {
        let mut r = StdRng::seed_from_u64(4);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn shuffle_permutes_and_is_seed_deterministic() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b: Vec<u32> = (0..50).collect();
        a.shuffle(&mut StdRng::seed_from_u64(9));
        b.shuffle(&mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        let mut c: Vec<u32> = (0..50).collect();
        c.shuffle(&mut StdRng::seed_from_u64(10));
        assert_ne!(a, c);
    }

    #[test]
    fn choose_only_returns_members() {
        let xs = [10, 20, 30];
        let mut r = StdRng::seed_from_u64(11);
        for _ in 0..100 {
            assert!(xs.contains(xs.choose(&mut r).expect("non-empty")));
        }
        let empty: [i32; 0] = [];
        assert!(empty.choose(&mut r).is_none());
    }

    #[test]
    fn stdrng_split_gives_independent_child() {
        let mut parent = StdRng::seed_from_u64(21);
        let mut child = parent.split();
        let p: Vec<u64> = (0..16).map(|_| parent.next_u64()).collect();
        let c: Vec<u64> = (0..16).map(|_| child.next_u64()).collect();
        assert_ne!(p, c);
        // Reproducible: same construction path, same child stream.
        let mut parent2 = StdRng::seed_from_u64(21);
        let mut child2 = parent2.split();
        let c2: Vec<u64> = (0..16).map(|_| child2.next_u64()).collect();
        assert_eq!(c, c2);
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = StdRng::seed_from_u64(31);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((hits as f64 / 10_000.0 - 0.25).abs() < 0.02, "{hits}");
        assert!(!r.gen_bool(0.0));
        assert!(r.gen_bool(1.0));
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_int_range_panics() {
        let mut r = StdRng::seed_from_u64(0);
        let _: usize = r.gen_range(3..3);
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut r = StdRng::seed_from_u64(77);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0), "13 random bytes, all zero is ~impossible");
    }
}
