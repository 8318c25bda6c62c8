//! Concrete generator cores.
//!
//! * [`SplitMix64`] — the seed expander. Every other generator derives
//!   its initial state from SplitMix64 output, so a single `u64` seed
//!   yields well-mixed state and nearby seeds give unrelated streams.
//! * [`StdRng`] — xoshiro256++, the workspace default (64-bit output,
//!   256-bit state, passes BigCrush).

use crate::{RngCore, SeedableRng};

/// SplitMix64: a tiny, fast generator used to expand seeds.
///
/// Reference: Steele, Lea & Flood, "Fast splittable pseudorandom number
/// generators" (OOPSLA 2014); constants as in Vigna's reference C
/// implementation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Start a stream from `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }
}

impl RngCore for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl SeedableRng for SplitMix64 {
    fn seed_from_u64(seed: u64) -> Self {
        SplitMix64::new(seed)
    }
}

/// xoshiro256++ — the workspace's standard generator.
///
/// 256-bit state, 64-bit output, period 2^256 − 1. Reference: Blackman
/// & Vigna, "Scrambled linear pseudorandom number generators" (2019).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StdRng {
    s: [u64; 4],
}

impl StdRng {
    /// Derive an independent child generator from this one.
    ///
    /// The child's state is seeded from the parent's next output, so
    /// repeated `split` calls at the same point of a seeded program are
    /// themselves deterministic. Use this to hand each worker /
    /// experiment arm its own stream without sharing a generator.
    pub fn split(&mut self) -> StdRng {
        StdRng::seed_from_u64(self.next_u64())
    }

    /// Generator for substream `stream` of `seed` — a convenience for
    /// deterministic fan-out: `stream(seed, i)` for `i = 0, 1, 2, …`
    /// gives independent, individually reproducible generators.
    pub fn stream(seed: u64, stream: u64) -> StdRng {
        // Mix the pair through SplitMix64 so (s, 0) and (s+1, 0) do not
        // collide with (s, 1).
        let mut sm = SplitMix64::new(seed);
        let a = sm.next_u64();
        StdRng::seed_from_u64(a ^ SplitMix64::new(stream).next_u64())
    }
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        StdRng { s }
    }
}

impl RngCore for StdRng {
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}
