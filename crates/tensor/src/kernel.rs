//! Runtime kernel dispatch: which SIMD backend the hot loops use.
//!
//! The decision is made **once** per process (first kernel call) from
//! CPU feature detection, overridable by the `MARS_KERNEL` environment
//! variable:
//!
//! * `MARS_KERNEL=scalar` — force the portable scalar loops.
//! * `MARS_KERNEL=simd`   — require the best SIMD backend (AVX-512 where
//!   the CPU has `avx512f`, else AVX2 or NEON); panic loudly if the host
//!   has none (so CI jobs that *mean* to test SIMD can't silently fall
//!   back).
//! * `MARS_KERNEL=auto` (or unset) — pick the best available backend.
//!
//! The backend only changes *how many elements one instruction touches*,
//! never the per-element operation sequence: the default tier is
//! bit-identical across backends (see [`crate::simd`] for the lane
//! argument). The env var therefore exists for A/B timing and for
//! keeping the scalar fallback honest in CI, not for correctness.

use std::sync::atomic::{AtomicU8, Ordering};

/// A kernel backend. All variants exist on every target so tests and
/// diagnostics can name them; [`backend`] only ever returns one that is
/// usable on the running host.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Portable scalar loops — the reference semantics.
    Scalar,
    /// x86_64 AVX2 (256-bit, 8 × f32 lanes).
    Avx2,
    /// x86_64 AVX-512F (512-bit, 16 × f32 lanes) for the product
    /// kernel's 4-row tiles and `axpy`; every other kernel runs its
    /// AVX2 path.
    Avx512,
    /// aarch64 NEON (128-bit, 4 × f32 lanes).
    Neon,
}

impl Backend {
    /// Human-readable name (stable; printed by diagnostics).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
            Backend::Avx512 => "avx512",
            Backend::Neon => "neon",
        }
    }
}

const CODE_UNSET: u8 = 0;
const CODE_SCALAR: u8 = 1;
const CODE_AVX2: u8 = 2;
const CODE_NEON: u8 = 3;
const CODE_AVX512: u8 = 4;

fn encode(b: Backend) -> u8 {
    match b {
        Backend::Scalar => CODE_SCALAR,
        Backend::Avx2 => CODE_AVX2,
        Backend::Avx512 => CODE_AVX512,
        Backend::Neon => CODE_NEON,
    }
}

fn decode(c: u8) -> Backend {
    match c {
        CODE_SCALAR => Backend::Scalar,
        CODE_AVX2 => Backend::Avx2,
        CODE_AVX512 => Backend::Avx512,
        CODE_NEON => Backend::Neon,
        _ => unreachable!("invalid backend code {c}"),
    }
}

/// Backend resolved from the environment + CPU, cached after first use.
static DETECTED: AtomicU8 = AtomicU8::new(CODE_UNSET);
/// In-process override (tests / A/B harnesses); takes priority.
static OVERRIDE: AtomicU8 = AtomicU8::new(CODE_UNSET);

/// Best SIMD backend the running host supports, if any.
pub fn detected_simd() -> Option<Backend> {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return Some(Backend::Avx512);
            }
            return Some(Backend::Avx2);
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            return Some(Backend::Neon);
        }
    }
    None
}

fn resolve_from_env() -> Backend {
    match std::env::var("MARS_KERNEL") {
        Ok(v) => match v.as_str() {
            "scalar" => Backend::Scalar,
            "simd" => detected_simd().unwrap_or_else(|| {
                panic!(
                    "MARS_KERNEL=simd but this host has no supported SIMD backend \
                     (need x86_64 with AVX2 or aarch64 with NEON)"
                )
            }),
            "auto" | "" => detected_simd().unwrap_or(Backend::Scalar),
            other => panic!("MARS_KERNEL: unknown value {other:?} (expected scalar|simd|auto)"),
        },
        Err(_) => detected_simd().unwrap_or(Backend::Scalar),
    }
}

/// The active kernel backend. Resolved once (env + CPU detection) and
/// cached; an in-process [`set_backend_override`] takes priority.
#[inline]
pub fn backend() -> Backend {
    let ov = OVERRIDE.load(Ordering::Relaxed);
    if ov != CODE_UNSET {
        return decode(ov);
    }
    let d = DETECTED.load(Ordering::Relaxed);
    if d != CODE_UNSET {
        return decode(d);
    }
    let b = resolve_from_env();
    // A racing first call resolves to the same value, so last-write-wins
    // is fine.
    DETECTED.store(encode(b), Ordering::Relaxed);
    b
}

/// Whether the running host can run backend `b`: scalar anywhere, a
/// SIMD backend where [`detected_simd`] finds it, and AVX2 on an
/// AVX-512 host too.
pub fn usable(b: Backend) -> bool {
    match b {
        Backend::Scalar => true,
        Backend::Avx2 => matches!(detected_simd(), Some(Backend::Avx2 | Backend::Avx512)),
        Backend::Avx512 | Backend::Neon => detected_simd() == Some(b),
    }
}

/// Force a backend for this process (A/B tests; `None` restores the
/// detected one). Panics if the requested backend is not [`usable`] on
/// this host so a parity test can never silently compare scalar to
/// scalar.
pub fn set_backend_override(b: Option<Backend>) {
    if let Some(b) = b {
        assert!(usable(b), "backend override {:?} is not usable on this host", b);
        OVERRIDE.store(encode(b), Ordering::Relaxed);
    } else {
        OVERRIDE.store(CODE_UNSET, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_is_stable_and_usable() {
        let b = backend();
        assert_eq!(b, backend(), "backend must be cached, not re-detected");
        match b {
            Backend::Scalar => {}
            simd => assert_eq!(detected_simd(), Some(simd)),
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Backend::Scalar.name(), "scalar");
        assert_eq!(Backend::Avx2.name(), "avx2");
        assert_eq!(Backend::Avx512.name(), "avx512");
        assert_eq!(Backend::Neon.name(), "neon");
    }
}
