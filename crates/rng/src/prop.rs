//! A small seeded property-test harness (the workspace's `proptest`
//! replacement).
//!
//! Each property runs `cases` times. Case `i` gets a fresh [`StdRng`]
//! seeded deterministically from `(base seed, i)`, so failures are
//! reproducible byte-for-byte. There is no shrinking: on failure the
//! harness reports the case index and exact seed so the single failing
//! case can be re-run and, once understood, pinned as an explicit
//! regression test.
//!
//! Environment knobs:
//! * `MARS_PROP_SEED` — override the base seed (default
//!   `0x4d41_5253` = `"MARS"`).
//! * `MARS_PROP_CASES` — multiply every property's case count
//!   (e.g. `MARS_PROP_CASES=10` for a 10× deeper nightly run).
//! * `MARS_PROP_CASE_SEED` — run exactly one case with the given seed
//!   (as printed by a failure report).
//!
//! ```text
//! mars_rng::props! {
//!     fn addition_commutes(rng, 64) {
//!         let (a, b) = (rng.gen_range(-100..100), rng.gen_range(-100..100));
//!         assert_eq!(a + b, b + a);
//!     }
//! }
//! ```

use crate::rngs::{SplitMix64, StdRng};
use crate::{RngCore, SeedableRng};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Default base seed ("MARS" in ASCII).
pub const DEFAULT_BASE_SEED: u64 = 0x4d41_5253;

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok().and_then(|s| {
        let s = s.trim();
        if let Some(hex) = s.strip_prefix("0x") {
            u64::from_str_radix(hex, 16).ok()
        } else {
            s.parse().ok()
        }
    })
}

/// The base seed in effect (`MARS_PROP_SEED` or the default).
pub fn base_seed() -> u64 {
    env_u64("MARS_PROP_SEED").unwrap_or(DEFAULT_BASE_SEED)
}

/// Scale a declared case count by `MARS_PROP_CASES` (if set).
pub fn scaled_cases(declared: u64) -> u64 {
    match env_u64("MARS_PROP_CASES") {
        Some(mult) => declared.saturating_mul(mult.max(1)),
        None => declared,
    }
}

/// Seed for case `i` under base seed `base`: both words go through
/// SplitMix64 so neighbouring cases are uncorrelated.
pub fn case_seed(base: u64, case: u64) -> u64 {
    let mut sm = SplitMix64::new(base ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(case + 1));
    sm.next_u64()
}

/// Run `f` for `cases` seeded cases, reporting the failing case's seed
/// before propagating its panic.
///
/// Prefer the [`props!`](crate::props) macro, which wraps this in a
/// `#[test]` function.
pub fn run_cases<F>(name: &str, cases: u64, f: F)
where
    F: Fn(&mut StdRng),
{
    // Single-case reproduction mode.
    if let Some(seed) = env_u64("MARS_PROP_CASE_SEED") {
        let mut rng = StdRng::seed_from_u64(seed);
        f(&mut rng);
        return;
    }

    let base = base_seed();
    let cases = scaled_cases(cases);
    for case in 0..cases {
        let seed = case_seed(base, case);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut rng = StdRng::seed_from_u64(seed);
            f(&mut rng);
        }));
        if let Err(payload) = result {
            eprintln!(
                "\nproperty '{name}' FAILED at case {case}/{cases} \
                 (base seed {base:#x}, case seed {seed:#x})\n\
                 reproduce just this case with: MARS_PROP_CASE_SEED={seed:#x}\n"
            );
            resume_unwind(payload);
        }
    }
}

/// Declare seeded property tests.
///
/// Each entry becomes one `#[test]` function running the body for the
/// given number of cases, with `$rng` bound to a fresh per-case
/// [`StdRng`]:
///
/// ```ignore
/// mars_rng::props! {
///     fn transpose_is_involutive(rng, 128) {
///         let m = arb_matrix(rng, 12);
///         assert_eq!(m.transpose().transpose(), m);
///     }
/// }
/// ```
#[macro_export]
macro_rules! props {
    ($( $(#[$attr:meta])* fn $name:ident($rng:ident, $cases:expr) $body:block )*) => {
        $(
            $(#[$attr])*
            #[test]
            fn $name() {
                $crate::prop::run_cases(stringify!($name), $cases, |$rng| $body);
            }
        )*
    };
}

/// `RngCore` passthrough so property bodies can use the harness rng
/// for nested helpers expecting `&mut impl RngCore`.
pub fn fork(rng: &mut StdRng) -> StdRng {
    rng.split()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    #[test]
    fn case_seeds_are_distinct() {
        let seeds: std::collections::HashSet<u64> =
            (0..1000).map(|i| case_seed(DEFAULT_BASE_SEED, i)).collect();
        assert_eq!(seeds.len(), 1000);
    }

    #[test]
    fn run_cases_passes_for_true_property() {
        run_cases("tautology", 32, |rng| {
            let v: f32 = rng.gen();
            assert!((0.0..1.0).contains(&v));
        });
    }

    #[test]
    fn run_cases_propagates_failure() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_cases("falsum", 8, |rng| {
                let v: u64 = rng.gen_range(0..10);
                assert!(v < 10_000); // passes...
                assert_ne!(v, v, "deliberate failure"); // ...then fails
            });
        }));
        assert!(result.is_err(), "failing property must propagate its panic");
    }

    props! {
        fn macro_generated_property_runs(rng, 16) {
            let a: i64 = rng.gen_range(-50..50);
            assert!((-50..50).contains(&a));
        }
    }
}
