//! SIMD microkernels behind the [`crate::kernel`] dispatch seam.
//!
//! **Lane layout vs. accumulation order.** Every matmul variant in this
//! crate accumulates each output element by ascending contraction index
//! `t` (with the `a == 0.0` skip). The vector kernels here keep that
//! order *per element* by vectorizing **across output columns**: one
//! `axpy` lane holds a different output element, and each element still
//! receives its adds one `t` at a time, in the same order, with the same
//! two-rounding `mul` + `add` arithmetic as the scalar loop. FMA (one
//! rounding) would change the bits, so the default tier never uses it —
//! AVX2 issues `vmulps` + `vaddps`, NEON `fmul` + `fadd`. That makes
//! SIMD results bit-identical to the scalar kernels by construction,
//! pinned by `tests/simd_parity.rs` across ragged shapes, subnormals
//! and NaN.
//!
//! The remainder tail (< one lane width) runs the scalar loop, which is
//! the same arithmetic, so ragged widths stay exact too.

use crate::kernel::{self, Backend};
use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::ptr::NonNull;

/// `out[i] += a * b[i]` — the axpy at the heart of every matmul/spmm
/// inner loop. Bit-identical to the scalar loop on every backend.
///
/// # Panics
/// If the slices differ in length.
#[inline]
pub fn axpy(out: &mut [f32], a: f32, b: &[f32]) {
    assert_eq!(out.len(), b.len(), "axpy: length mismatch");
    match kernel::backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { axpy_avx2(out, a, b) },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => unsafe { axpy_neon(out, a, b) },
        _ => axpy_scalar(out, a, b),
    }
}

#[inline]
fn axpy_scalar(out: &mut [f32], a: f32, b: &[f32]) {
    for (o, &bv) in out.iter_mut().zip(b) {
        *o += a * bv;
    }
}

/// AVX2 axpy. Deliberately `mul` + `add` (two roundings, like the
/// scalar `*o += a * bv`), **not** FMA: contracting to one rounding
/// would break bit-identity with the scalar tier.
///
/// # Safety
/// Caller must ensure the host supports AVX2 (guaranteed by the
/// [`kernel::backend`] dispatch).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn axpy_avx2(out: &mut [f32], a: f32, b: &[f32]) {
    use std::arch::x86_64::*;
    let n = out.len();
    let po = out.as_mut_ptr();
    let pb = b.as_ptr();
    let va = _mm256_set1_ps(a);
    let mut i = 0;
    // 4×8-lane unroll keeps two load ports busy.
    while i + 32 <= n {
        unsafe {
            let o0 = _mm256_loadu_ps(po.add(i));
            let o1 = _mm256_loadu_ps(po.add(i + 8));
            let o2 = _mm256_loadu_ps(po.add(i + 16));
            let o3 = _mm256_loadu_ps(po.add(i + 24));
            let b0 = _mm256_loadu_ps(pb.add(i));
            let b1 = _mm256_loadu_ps(pb.add(i + 8));
            let b2 = _mm256_loadu_ps(pb.add(i + 16));
            let b3 = _mm256_loadu_ps(pb.add(i + 24));
            _mm256_storeu_ps(po.add(i), _mm256_add_ps(o0, _mm256_mul_ps(va, b0)));
            _mm256_storeu_ps(po.add(i + 8), _mm256_add_ps(o1, _mm256_mul_ps(va, b1)));
            _mm256_storeu_ps(po.add(i + 16), _mm256_add_ps(o2, _mm256_mul_ps(va, b2)));
            _mm256_storeu_ps(po.add(i + 24), _mm256_add_ps(o3, _mm256_mul_ps(va, b3)));
        }
        i += 32;
    }
    while i + 8 <= n {
        unsafe {
            let o0 = _mm256_loadu_ps(po.add(i));
            let b0 = _mm256_loadu_ps(pb.add(i));
            _mm256_storeu_ps(po.add(i), _mm256_add_ps(o0, _mm256_mul_ps(va, b0)));
        }
        i += 8;
    }
    axpy_scalar(&mut out[i..], a, &b[i..]);
}

/// NEON axpy. `fmul` + `fadd` (two roundings), **not** `vfmaq`: same
/// bit-identity argument as the AVX2 kernel.
///
/// # Safety
/// Caller must ensure the host supports NEON (guaranteed by the
/// [`kernel::backend`] dispatch).
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn axpy_neon(out: &mut [f32], a: f32, b: &[f32]) {
    use std::arch::aarch64::*;
    let n = out.len();
    let po = out.as_mut_ptr();
    let pb = b.as_ptr();
    let va = vdupq_n_f32(a);
    let mut i = 0;
    while i + 16 <= n {
        unsafe {
            let o0 = vld1q_f32(po.add(i));
            let o1 = vld1q_f32(po.add(i + 4));
            let o2 = vld1q_f32(po.add(i + 8));
            let o3 = vld1q_f32(po.add(i + 12));
            let b0 = vld1q_f32(pb.add(i));
            let b1 = vld1q_f32(pb.add(i + 4));
            let b2 = vld1q_f32(pb.add(i + 8));
            let b3 = vld1q_f32(pb.add(i + 12));
            vst1q_f32(po.add(i), vaddq_f32(o0, vmulq_f32(va, b0)));
            vst1q_f32(po.add(i + 4), vaddq_f32(o1, vmulq_f32(va, b1)));
            vst1q_f32(po.add(i + 8), vaddq_f32(o2, vmulq_f32(va, b2)));
            vst1q_f32(po.add(i + 12), vaddq_f32(o3, vmulq_f32(va, b3)));
        }
        i += 16;
    }
    while i + 4 <= n {
        unsafe {
            let o0 = vld1q_f32(po.add(i));
            let b0 = vld1q_f32(pb.add(i));
            vst1q_f32(po.add(i), vaddq_f32(o0, vmulq_f32(va, b0)));
        }
        i += 4;
    }
    axpy_scalar(&mut out[i..], a, &b[i..]);
}

/// `out[j] += Σ_t coeffs[t] · src[t·stride + j]` for `j < out.len()`,
/// skipping zero coefficients — the k-outer row sweep shared by the
/// matmul kernels (`stride` = packed-panel width or dense row width).
///
/// Unlike per-`t` [`axpy`], the SIMD paths keep the output accumulators
/// **in registers across the whole `t` loop** (one load + mul + add per
/// lane group per `t`, stores only at the end), which roughly halves
/// memory traffic on the hot panels. Per element the adds still ascend
/// `t` with the `== 0.0` skip and two-rounding mul + add, so the result
/// stays bit-identical to the scalar loop.
///
/// # Panics
/// If `src` is too short for `coeffs.len()` rows of the given stride
/// and width.
#[inline]
pub fn strided_sweep(out: &mut [f32], coeffs: &[f32], src: &[f32], stride: usize) {
    let w = out.len();
    if w == 0 {
        return;
    }
    assert!(
        coeffs.is_empty() || (coeffs.len() - 1) * stride + w <= src.len(),
        "strided_sweep: src too short ({} rows × stride {stride}, width {w}, len {})",
        coeffs.len(),
        src.len()
    );
    match kernel::backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { strided_sweep_avx2(out, coeffs, src, stride) },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => unsafe { strided_sweep_neon(out, coeffs, src, stride) },
        _ => strided_sweep_scalar(out, coeffs, src, stride),
    }
}

#[inline]
fn strided_sweep_scalar(out: &mut [f32], coeffs: &[f32], src: &[f32], stride: usize) {
    let w = out.len();
    for (t, &a) in coeffs.iter().enumerate() {
        if a == 0.0 {
            continue;
        }
        axpy_scalar(out, a, &src[t * stride..t * stride + w]);
    }
}

/// Register-blocked AVX2 sweep: 32-column strips hold four ymm
/// accumulators across the whole `t` loop. Mul + add (two roundings),
/// never FMA — same bit-identity argument as [`axpy_avx2`].
///
/// # Safety
/// Caller must ensure AVX2 support and that `src` covers
/// `coeffs.len()` rows of `stride` floats (checked by the dispatching
/// wrapper).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn strided_sweep_avx2(out: &mut [f32], coeffs: &[f32], src: &[f32], stride: usize) {
    use std::arch::x86_64::*;
    let w = out.len();
    let ps = src.as_ptr();
    let mut j = 0;
    while j + 32 <= w {
        unsafe {
            let po = out.as_mut_ptr().add(j);
            let mut a0 = _mm256_loadu_ps(po);
            let mut a1 = _mm256_loadu_ps(po.add(8));
            let mut a2 = _mm256_loadu_ps(po.add(16));
            let mut a3 = _mm256_loadu_ps(po.add(24));
            for (t, &av) in coeffs.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let va = _mm256_set1_ps(av);
                let p = ps.add(t * stride + j);
                a0 = _mm256_add_ps(a0, _mm256_mul_ps(va, _mm256_loadu_ps(p)));
                a1 = _mm256_add_ps(a1, _mm256_mul_ps(va, _mm256_loadu_ps(p.add(8))));
                a2 = _mm256_add_ps(a2, _mm256_mul_ps(va, _mm256_loadu_ps(p.add(16))));
                a3 = _mm256_add_ps(a3, _mm256_mul_ps(va, _mm256_loadu_ps(p.add(24))));
            }
            _mm256_storeu_ps(po, a0);
            _mm256_storeu_ps(po.add(8), a1);
            _mm256_storeu_ps(po.add(16), a2);
            _mm256_storeu_ps(po.add(24), a3);
        }
        j += 32;
    }
    while j + 8 <= w {
        unsafe {
            let po = out.as_mut_ptr().add(j);
            let mut a0 = _mm256_loadu_ps(po);
            for (t, &av) in coeffs.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let va = _mm256_set1_ps(av);
                a0 = _mm256_add_ps(a0, _mm256_mul_ps(va, _mm256_loadu_ps(ps.add(t * stride + j))));
            }
            _mm256_storeu_ps(po, a0);
        }
        j += 8;
    }
    if j < w {
        for (t, &av) in coeffs.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            axpy_scalar(&mut out[j..], av, &src[t * stride + j..t * stride + w]);
        }
    }
}

/// Register-blocked NEON sweep: 16-column strips hold four q
/// accumulators. `fmul` + `fadd`, never `vfmaq` (bit-identity).
///
/// # Safety
/// Caller must ensure NEON support and that `src` covers
/// `coeffs.len()` rows of `stride` floats (checked by the dispatching
/// wrapper).
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn strided_sweep_neon(out: &mut [f32], coeffs: &[f32], src: &[f32], stride: usize) {
    use std::arch::aarch64::*;
    let w = out.len();
    let ps = src.as_ptr();
    let mut j = 0;
    while j + 16 <= w {
        unsafe {
            let po = out.as_mut_ptr().add(j);
            let mut a0 = vld1q_f32(po);
            let mut a1 = vld1q_f32(po.add(4));
            let mut a2 = vld1q_f32(po.add(8));
            let mut a3 = vld1q_f32(po.add(12));
            for (t, &av) in coeffs.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let va = vdupq_n_f32(av);
                let p = ps.add(t * stride + j);
                a0 = vaddq_f32(a0, vmulq_f32(va, vld1q_f32(p)));
                a1 = vaddq_f32(a1, vmulq_f32(va, vld1q_f32(p.add(4))));
                a2 = vaddq_f32(a2, vmulq_f32(va, vld1q_f32(p.add(8))));
                a3 = vaddq_f32(a3, vmulq_f32(va, vld1q_f32(p.add(12))));
            }
            vst1q_f32(po, a0);
            vst1q_f32(po.add(4), a1);
            vst1q_f32(po.add(8), a2);
            vst1q_f32(po.add(12), a3);
        }
        j += 16;
    }
    while j + 4 <= w {
        unsafe {
            let po = out.as_mut_ptr().add(j);
            let mut a0 = vld1q_f32(po);
            for (t, &av) in coeffs.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let va = vdupq_n_f32(av);
                a0 = vaddq_f32(a0, vmulq_f32(va, vld1q_f32(ps.add(t * stride + j))));
            }
            vst1q_f32(po, a0);
        }
        j += 4;
    }
    if j < w {
        for (t, &av) in coeffs.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            axpy_scalar(&mut out[j..], av, &src[t * stride + j..t * stride + w]);
        }
    }
}

// ------------------------------------------------------------------
// tanh
// ------------------------------------------------------------------

// Coefficients of the classic odd rational minimax fit
// `tanh(x) ≈ x·P(x²) / Q(x²)` on `[-7.905, 7.905]` (degree 13 over
// degree 6), the approximation used across mainstream ML runtimes.
// Beyond the clamp bound f32 `tanh` is within one ulp of ±1 anyway.
const TANH_CLAMP: f32 = 7.905_311_5;
const TANH_P: [f32; 7] = [
    4.893_524_6e-3,   // x¹
    6.372_619_3e-4,   // x³
    1.485_722_4e-5,   // x⁵
    5.122_297_1e-8,   // x⁷
    -8.604_672e-11,   // x⁹
    2.000_188e-13,    // x¹¹
    -2.760_768_5e-16, // x¹³
];
const TANH_Q: [f32; 4] = [
    4.893_525e-3,   // x⁰
    2.268_434_6e-3, // x²
    1.185_347_1e-4, // x⁴
    1.198_258_4e-6, // x⁶
];

/// Deterministic `tanh` used by every kernel tier and backend.
///
/// A branch-free rational approximation (max error ≈ 3.9e-7, ~3 ulp)
/// that is ~3× faster than libm `tanhf` — and, unlike libm, under our
/// control: the SIMD batch path ([`tanh_inplace`]) performs the exact
/// same clamp → Horner (mul + add, never FMA) → divide sequence per
/// lane, so scalar and SIMD tiers agree **bitwise**. `tanh` dominates
/// the decoder hot path (one `T × A` activation block per attention
/// read, two activations per LSTM cell lane), which is why it gets a
/// hand kernel while cheaper transcendentals stay on libm.
///
/// Edge behavior: NaN → the same NaN, ±0 → ±0, subnormals pass
/// through (`tanh(x) ≈ x`), and |x| ≥ 7.905 saturates to ±0.999_999_76
/// (one ulp below ±1; exact ±1.0 is never reached).
#[inline]
pub fn tanh(x: f32) -> f32 {
    if x.is_nan() {
        return x;
    }
    let z = x.clamp(-TANH_CLAMP, TANH_CLAMP);
    let z2 = z * z;
    let mut p = TANH_P[6];
    p = TANH_P[5] + z2 * p;
    p = TANH_P[4] + z2 * p;
    p = TANH_P[3] + z2 * p;
    p = TANH_P[2] + z2 * p;
    p = TANH_P[1] + z2 * p;
    p = TANH_P[0] + z2 * p;
    let p = z * p;
    let mut q = TANH_Q[3];
    q = TANH_Q[2] + z2 * q;
    q = TANH_Q[1] + z2 * q;
    q = TANH_Q[0] + z2 * q;
    p / q
}

/// `tanh` over a slice in place, dispatched like the matmul kernels.
/// Bit-identical to mapping [`tanh`] over the slice on every backend.
pub fn tanh_inplace(xs: &mut [f32]) {
    match kernel::backend() {
        #[cfg(target_arch = "x86_64")]
        kernel::Backend::Avx2 => unsafe { tanh_avx2(xs) },
        #[cfg(target_arch = "aarch64")]
        kernel::Backend::Neon => unsafe { tanh_neon(xs) },
        _ => {
            for x in xs {
                *x = tanh(*x);
            }
        }
    }
}

/// AVX2 batch tanh: the scalar clamp/Horner/divide sequence per lane
/// (mul + add, never FMA), with NaN lanes restored from the input via
/// a blend so payloads pass through exactly like the scalar early
/// return.
///
/// # Safety
/// Caller must ensure the host supports AVX2 (guaranteed by the
/// [`kernel::backend`] dispatch).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn tanh_avx2(xs: &mut [f32]) {
    use std::arch::x86_64::*;
    let n = xs.len();
    let ptr = xs.as_mut_ptr();
    let hi = _mm256_set1_ps(TANH_CLAMP);
    let lo = _mm256_set1_ps(-TANH_CLAMP);
    let mut i = 0;
    while i + 8 <= n {
        let x = _mm256_loadu_ps(ptr.add(i));
        // min/max put the clamp bound in NaN lanes; the final blend
        // overwrites those lanes with the original input anyway.
        let z = _mm256_min_ps(_mm256_max_ps(x, lo), hi);
        let z2 = _mm256_mul_ps(z, z);
        let mut p = _mm256_set1_ps(TANH_P[6]);
        p = _mm256_add_ps(_mm256_set1_ps(TANH_P[5]), _mm256_mul_ps(z2, p));
        p = _mm256_add_ps(_mm256_set1_ps(TANH_P[4]), _mm256_mul_ps(z2, p));
        p = _mm256_add_ps(_mm256_set1_ps(TANH_P[3]), _mm256_mul_ps(z2, p));
        p = _mm256_add_ps(_mm256_set1_ps(TANH_P[2]), _mm256_mul_ps(z2, p));
        p = _mm256_add_ps(_mm256_set1_ps(TANH_P[1]), _mm256_mul_ps(z2, p));
        p = _mm256_add_ps(_mm256_set1_ps(TANH_P[0]), _mm256_mul_ps(z2, p));
        let p = _mm256_mul_ps(z, p);
        let mut q = _mm256_set1_ps(TANH_Q[3]);
        q = _mm256_add_ps(_mm256_set1_ps(TANH_Q[2]), _mm256_mul_ps(z2, q));
        q = _mm256_add_ps(_mm256_set1_ps(TANH_Q[1]), _mm256_mul_ps(z2, q));
        q = _mm256_add_ps(_mm256_set1_ps(TANH_Q[0]), _mm256_mul_ps(z2, q));
        let r = _mm256_div_ps(p, q);
        let nan_mask = _mm256_cmp_ps::<_CMP_UNORD_Q>(x, x);
        let r = _mm256_blendv_ps(r, x, nan_mask);
        _mm256_storeu_ps(ptr.add(i), r);
        i += 8;
    }
    for x in &mut xs[i..] {
        *x = tanh(*x);
    }
}

/// NEON batch tanh: same per-lane sequence as [`tanh_avx2`]
/// (`fmul` + `fadd`, never `vfmaq`), NaN lanes restored via `vbslq`.
///
/// # Safety
/// Caller must ensure the host supports NEON (guaranteed by the
/// [`kernel::backend`] dispatch).
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn tanh_neon(xs: &mut [f32]) {
    use std::arch::aarch64::*;
    let n = xs.len();
    let ptr = xs.as_mut_ptr();
    let hi = vdupq_n_f32(TANH_CLAMP);
    let lo = vdupq_n_f32(-TANH_CLAMP);
    let mut i = 0;
    while i + 4 <= n {
        let x = vld1q_f32(ptr.add(i));
        let z = vminq_f32(vmaxq_f32(x, lo), hi);
        let z2 = vmulq_f32(z, z);
        let mut p = vdupq_n_f32(TANH_P[6]);
        p = vaddq_f32(vdupq_n_f32(TANH_P[5]), vmulq_f32(z2, p));
        p = vaddq_f32(vdupq_n_f32(TANH_P[4]), vmulq_f32(z2, p));
        p = vaddq_f32(vdupq_n_f32(TANH_P[3]), vmulq_f32(z2, p));
        p = vaddq_f32(vdupq_n_f32(TANH_P[2]), vmulq_f32(z2, p));
        p = vaddq_f32(vdupq_n_f32(TANH_P[1]), vmulq_f32(z2, p));
        p = vaddq_f32(vdupq_n_f32(TANH_P[0]), vmulq_f32(z2, p));
        let p = vmulq_f32(z, p);
        let mut q = vdupq_n_f32(TANH_Q[3]);
        q = vaddq_f32(vdupq_n_f32(TANH_Q[2]), vmulq_f32(z2, q));
        q = vaddq_f32(vdupq_n_f32(TANH_Q[1]), vmulq_f32(z2, q));
        q = vaddq_f32(vdupq_n_f32(TANH_Q[0]), vmulq_f32(z2, q));
        let r = vdivq_f32(p, q);
        // Lanes where x == x is false are NaN: keep the input there.
        let not_nan = vceqq_f32(x, x);
        let r = vbslq_f32(not_nan, r, x);
        vst1q_f32(ptr.add(i), r);
        i += 4;
    }
    for x in &mut xs[i..] {
        *x = tanh(*x);
    }
}

/// A 64-byte (cache-line) aligned, zero-initialized f32 buffer for
/// packed-panel scratch: panel loads never straddle an extra line and
/// the alignment is stable across allocator choices.
pub struct AlignedBuf {
    ptr: NonNull<f32>,
    len: usize,
    layout: Option<Layout>,
}

// Plain f32 storage with unique ownership: safe to move across and
// share between pool threads.
unsafe impl Send for AlignedBuf {}
unsafe impl Sync for AlignedBuf {}

impl AlignedBuf {
    /// Allocate `len` zeroed f32s aligned to 64 bytes.
    pub fn zeroed(len: usize) -> Self {
        if len == 0 {
            return AlignedBuf { ptr: NonNull::dangling(), len: 0, layout: None };
        }
        let layout = Layout::from_size_align(len * size_of::<f32>(), 64)
            .expect("AlignedBuf: layout overflow");
        let raw = unsafe { alloc_zeroed(layout) };
        let Some(ptr) = NonNull::new(raw.cast::<f32>()) else {
            handle_alloc_error(layout);
        };
        AlignedBuf { ptr, len, layout: Some(layout) }
    }

    /// Number of f32 elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The elements as a shared slice.
    pub fn as_slice(&self) -> &[f32] {
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    /// The elements as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl Drop for AlignedBuf {
    fn drop(&mut self) {
        if let Some(layout) = self.layout {
            unsafe { dealloc(self.ptr.as_ptr().cast(), layout) };
        }
    }
}

impl std::ops::Deref for AlignedBuf {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        self.as_slice()
    }
}

impl std::ops::DerefMut for AlignedBuf {
    fn deref_mut(&mut self) -> &mut [f32] {
        self.as_mut_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axpy_matches_scalar_bitwise_on_all_lengths() {
        // Covers every remainder class around the 8-lane and 32-unroll
        // boundaries, plus subnormals and negative zero.
        for n in [0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100] {
            let b: Vec<f32> = (0..n)
                .map(|i| ((i as f32 * 0.37).sin() * 1e3) + if i % 7 == 0 { 1e-41 } else { 0.0 })
                .collect();
            let mut out_simd: Vec<f32> = (0..n).map(|i| (i as f32 * 0.11).cos()).collect();
            let mut out_scalar = out_simd.clone();
            let a = -1.2345e-3f32;
            axpy(&mut out_simd, a, &b);
            axpy_scalar(&mut out_scalar, a, &b);
            for (x, y) in out_simd.iter().zip(&out_scalar) {
                assert_eq!(x.to_bits(), y.to_bits(), "n={n}");
            }
        }
    }

    #[test]
    fn axpy_propagates_nan_like_scalar() {
        let mut out = vec![0.0f32; 9];
        let mut b = vec![1.0f32; 9];
        b[4] = f32::NAN;
        axpy(&mut out, 2.0, &b);
        assert!(out[4].is_nan());
        assert_eq!(out[3], 2.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn axpy_length_mismatch_panics() {
        axpy(&mut [0.0; 3], 1.0, &[0.0; 4]);
    }

    #[test]
    fn tanh_accuracy_and_edges() {
        let mut max_abs = 0.0f64;
        let mut x = -12.0f32;
        while x < 12.0 {
            max_abs = max_abs.max((tanh(x) as f64 - (x as f64).tanh()).abs());
            x += 0.00137;
        }
        assert!(max_abs < 5e-7, "tanh abs error {max_abs}");
        assert_eq!(tanh(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(tanh(-0.0).to_bits(), (-0.0f32).to_bits());
        assert!(tanh(f32::NAN).is_nan());
        assert!(tanh(f32::INFINITY) > 0.999_999);
        assert!(tanh(f32::NEG_INFINITY) < -0.999_999);
        // tanh(x) ≈ x for tiny/subnormal inputs.
        let tiny = tanh(1e-41f32);
        assert!(tiny > 0.0 && (tiny as f64 - 1e-41).abs() < 1e-43);
    }

    #[test]
    fn tanh_inplace_matches_scalar_bitwise() {
        // Every remainder class around the 8-lane boundary, with
        // saturating, tiny, subnormal, negative-zero, and NaN inputs.
        for n in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 31, 33, 100] {
            let mut xs: Vec<f32> = (0..n)
                .map(|i| match i % 9 {
                    0 => (i as f32 * 0.61).sin() * 10.0,
                    1 => -0.0,
                    2 => 1e-41,
                    3 => f32::NAN,
                    4 => 42.0,
                    5 => -42.0,
                    _ => (i as f32 * 0.31).cos() * 2.0,
                })
                .collect();
            let expect: Vec<f32> = xs.iter().map(|&x| tanh(x)).collect();
            tanh_inplace(&mut xs);
            for (i, (got, want)) in xs.iter().zip(&expect).enumerate() {
                assert_eq!(got.to_bits(), want.to_bits(), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn aligned_buf_is_cache_aligned_and_zeroed() {
        for len in [1usize, 7, 64, 1000] {
            let mut buf = AlignedBuf::zeroed(len);
            assert_eq!(buf.as_slice().as_ptr() as usize % 64, 0);
            assert_eq!(buf.len(), len);
            assert!(buf.iter().all(|&v| v == 0.0));
            buf.as_mut_slice()[len - 1] = 3.0;
            assert_eq!(buf[len - 1], 3.0);
        }
        let empty = AlignedBuf::zeroed(0);
        assert!(empty.is_empty());
        assert_eq!(empty.as_slice(), &[] as &[f32]);
    }
}
