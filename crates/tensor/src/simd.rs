//! SIMD microkernels behind the [`crate::kernel`] dispatch seam.
//!
//! **Lane layout vs. accumulation order.** Every dense product in the
//! workspace runs [`product`], which accumulates each output element by
//! ascending contraction index `t` (with the `a == 0.0` skip). The
//! vector paths keep that order *per element* by putting a different
//! output element in each lane — across output columns, or for a
//! single-column output across rows — so each element still receives
//! its adds one `t` at a time, in the same order, with the same
//! two-rounding `mul` + `add` arithmetic as the scalar loop. FMA (one
//! rounding) would change the bits, so the default tier never uses it —
//! AVX2 and AVX-512 issue `vmulps` + `vaddps`, NEON `fmul` + `fadd`.
//! That makes SIMD results bit-identical to the scalar kernels by
//! construction, pinned by `tests/simd_parity.rs` across ragged shapes,
//! subnormals and NaN.
//!
//! The remainder tail (< one lane width) runs the next narrower path
//! and finally the scalar loop, which is the same arithmetic, so ragged
//! widths stay exact too.
//!
//! The decoder's score kernels follow the same rule: [`attn_scores`]
//! lanes over output *rows* (an 8 × 8 register transpose feeds it),
//! [`attn_score_grads`] over columns. Those two have an AVX2 path only,
//! which the AVX-512 backend runs too; NEON runs their scalar loops.
//!
//! Every dispatch site names every [`Backend`] variant, so a new one
//! cannot fall through to a scalar arm unnoticed; a variant of another
//! architecture is `unreachable!`, since [`kernel::backend`] never
//! returns one.

use crate::kernel::{self, Backend};

/// `out[i] += a * b[i]` — the axpy at the heart of every matmul/spmm
/// inner loop. Bit-identical to the scalar loop on every backend.
///
/// # Panics
/// If the slices differ in length.
#[inline]
pub fn axpy(out: &mut [f32], a: f32, b: &[f32]) {
    assert_eq!(out.len(), b.len(), "axpy: length mismatch");
    match kernel::backend() {
        Backend::Scalar => axpy_scalar(out, a, b),
        // SAFETY (every SIMD arm of this file's dispatches): the
        // dispatch returns a backend only on a host that runs it, and
        // an AVX-512 host runs AVX2 too.
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { axpy_avx2(out, a, b) },
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 => unsafe { axpy_avx512(out, a, b) },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => unsafe { axpy_neon(out, a, b) },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 | Backend::Avx512 => unreachable!("an x86 backend on another target"),
        #[cfg(not(target_arch = "aarch64"))]
        Backend::Neon => unreachable!("NEON on another target"),
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

/// AVX-512 axpy: 64- and 16-lane strides, then the AVX2 kernel for the
/// rest. `mul` + `add`, never FMA, as in [`axpy_avx2`].
///
/// # Safety
/// Caller must ensure the host supports AVX-512F (guaranteed by the
/// [`kernel::backend`] dispatch).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn axpy_avx512(out: &mut [f32], a: f32, b: &[f32]) {
    use std::arch::x86_64::*;
    let n = out.len();
    let po = out.as_mut_ptr();
    let pb = b.as_ptr();
    let va = _mm512_set1_ps(a);
    let mut i = 0;
    // SAFETY (both loops): `i + 64 <= n` or `i + 16 <= n`, and
    // `b.len() == n`.
    while i + 64 <= n {
        unsafe {
            for k in (0..64).step_by(16) {
                let o = _mm512_loadu_ps(po.add(i + k));
                let bv = _mm512_loadu_ps(pb.add(i + k));
                _mm512_storeu_ps(po.add(i + k), _mm512_add_ps(o, _mm512_mul_ps(va, bv)));
            }
        }
        i += 64;
    }
    while i + 16 <= n {
        unsafe {
            let o = _mm512_loadu_ps(po.add(i));
            let bv = _mm512_loadu_ps(pb.add(i));
            _mm512_storeu_ps(po.add(i), _mm512_add_ps(o, _mm512_mul_ps(va, bv)));
        }
        i += 16;
    }
    // SAFETY: AVX-512F hosts run AVX2 (`detected_simd` requires both).
    unsafe { axpy_avx2(&mut out[i..], a, &b[i..]) };
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

// ------------------------------------------------------------------
// The product kernel
// ------------------------------------------------------------------

/// The coefficient side of [`product`]: output row `r`'s term `t` is
/// `a[r·rs + t·ts]`, for `t < terms`. One of the two strides is 1:
/// each row's coefficients are adjacent ([`Coeffs::rows`]) or each
/// term's are ([`Coeffs::cols`]).
#[derive(Clone, Copy, Debug)]
pub struct Coeffs<'a> {
    a: &'a [f32],
    rs: usize,
    ts: usize,
    pub(crate) terms: usize,
}

impl<'a> Coeffs<'a> {
    /// All of `a` as the coefficients of a single output row.
    pub fn row(a: &'a [f32]) -> Self {
        Coeffs::rows(a, a.len())
    }

    /// Rows of `terms` coefficients, one per output row: `A` of `A·B`.
    pub fn rows(a: &'a [f32], terms: usize) -> Self {
        Coeffs { a, rs: terms, ts: 1, terms }
    }

    /// Column `r` of the row-major `terms × width` matrix `a` for
    /// output row `r`: `A` of `Aᵀ·B`, read in place.
    pub fn cols(a: &'a [f32], width: usize, terms: usize) -> Self {
        Coeffs { a, rs: 1, ts: width, terms }
    }

    /// The same layout from output row `r0` on.
    pub(crate) fn skip_rows(self, r0: usize) -> Self {
        Coeffs { a: &self.a[r0 * self.rs..], ..self }
    }

    #[inline]
    fn at(&self, r: usize, t: usize) -> f32 {
        self.a[r * self.rs + t * self.ts]
    }

    /// Whether any of `rows`' coefficients is `== 0.0`, i.e. whether a
    /// skip can happen in them (no early exit, so the scan vectorizes).
    #[cfg(target_arch = "x86_64")]
    fn has_zero(&self, rows: std::ops::Range<usize>) -> bool {
        let any_zero = |xs: &[f32]| xs.iter().fold(false, |z, &x| z | (x == 0.0));
        if self.ts == 1 {
            rows.into_iter().any(|r| any_zero(&self.a[r * self.rs..][..self.terms]))
        } else {
            let n = rows.len();
            (0..self.terms).any(|t| any_zero(&self.a[rows.start + t * self.ts..][..n]))
        }
    }
}

/// `out[r][c] += Σ_t a[r·rs + t·ts] · b[t·ldb + c]` over the
/// `out.len() / cols` rows of `out` — the one dense-product kernel:
/// every matmul variant, the LSTM and decoder steps and the
/// weight-gradient replay call it.
///
/// Per element the terms are added in ascending `t`, a zero
/// coefficient is skipped, and each term is a two-rounding mul + add,
/// so a slot that already holds a value (even `-0.0`) ends
/// bit-identical to the loop
/// `for t { for r { if x != 0 { out.row(r) += x · b.row(t) } } }`
/// on every backend. The AVX2 path keeps a 4-row × 16-column tile of
/// `out` in registers across all terms (each `b` load feeds four rows),
/// single rows in 32- and 8-column strips, then a scalar tail; a tile
/// whose coefficients hold no zero runs without the skip's branch. The
/// AVX-512 path runs the 4-row tiles in 64- and 16-column zmm strips
/// first, and everything else as AVX2 does. A single-column output runs
/// eight rows in lanes instead, where a zero coefficient's lane keeps
/// its old value through a blend — the skip, lane by lane, so a `-0.0`
/// slot or a `0 · ∞` term comes out as the loop leaves it.
///
/// # Panics
/// If `out` is not whole rows of `cols`, or `a` or `b` is too short for
/// the rows, terms and strides asked of it.
pub fn product(out: &mut [f32], cols: usize, a: Coeffs<'_>, b: &[f32], ldb: usize) {
    if out.is_empty() || cols == 0 || a.terms == 0 {
        return;
    }
    assert!(out.len().is_multiple_of(cols), "product: out is not whole rows of {cols}");
    let rows = out.len() / cols;
    assert!(
        (rows - 1) * a.rs + (a.terms - 1) * a.ts < a.a.len(),
        "product: a too short ({rows} rows × stride {}, {} terms × stride {}, len {})",
        a.rs,
        a.terms,
        a.ts,
        a.a.len()
    );
    assert!(
        (a.terms - 1) * ldb + cols <= b.len(),
        "product: b too short ({} rows × stride {ldb}, width {cols}, len {})",
        a.terms,
        b.len()
    );
    match kernel::backend() {
        Backend::Scalar => product_scalar(out, cols, a, b, ldb, 0..rows, 0),
        // SAFETY: the dispatch returns Avx2 only on an AVX2 host and
        // Avx512 only on an AVX-512F one, and the two asserts above are
        // the bounds `product_avx2` reads in.
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { product_avx2(out, cols, a, b, ldb, false) },
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 => unsafe { product_avx2(out, cols, a, b, ldb, true) },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => {
            for r in 0..rows {
                let row = &mut out[r * cols..(r + 1) * cols];
                // SAFETY: Neon only on a NEON host; row `r` of the
                // bounds asserted above.
                unsafe { product_row_neon(row, a.skip_rows(r), b, ldb) };
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 | Backend::Avx512 => unreachable!("an x86 backend on another target"),
        #[cfg(not(target_arch = "aarch64"))]
        Backend::Neon => unreachable!("NEON on another target"),
    }
}

/// The scalar loop of [`product`] over `rows` and columns `c0..cols`:
/// the scalar backend, and the ragged edges of the SIMD tiles.
fn product_scalar(
    out: &mut [f32],
    cols: usize,
    a: Coeffs<'_>,
    b: &[f32],
    ldb: usize,
    rows: std::ops::Range<usize>,
    c0: usize,
) {
    if c0 == cols {
        return;
    }
    for t in 0..a.terms {
        let b_row = &b[t * ldb + c0..t * ldb + cols];
        for r in rows.clone() {
            let x = a.at(r, t);
            if x != 0.0 {
                axpy_scalar(&mut out[r * cols + c0..(r + 1) * cols], x, b_row);
            }
        }
    }
}

/// AVX2 [`product`]: 4-row tiles of two ymm accumulators per row
/// (eight add chains), then single rows of four; 8-column strips and a
/// scalar tail finish ragged widths. Single-column outputs go to
/// [`column_avx2`]. With `zmm` (the AVX-512 backend) the 4-row tiles
/// run [`row_strips_avx512`] instead. Mul + add, never FMA.
///
/// Single rows stay on ymm even with `zmm`: the LSTM and decoder steps'
/// 1-row products ran no faster end to end in zmm strips.
///
/// # Safety
/// Caller must ensure AVX2 support, AVX-512F support if `zmm`, and the
/// bounds checked by [`product`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn product_avx2(
    out: &mut [f32],
    cols: usize,
    a: Coeffs<'_>,
    b: &[f32],
    ldb: usize,
    zmm: bool,
) {
    let rows = out.len() / cols;
    // SAFETY (every call below): this function's own contract, with
    // `r + 4 <= rows` for the tiles and `r < rows` for the single rows.
    if cols == 1 {
        let r = unsafe { column_avx2(out, a, b, ldb) };
        product_scalar(out, 1, a, b, ldb, r..rows, 0);
        return;
    }
    let mut r = 0;
    while r + 4 <= rows {
        let c = if zmm {
            unsafe { row_strips_avx512(out, cols, a, b, ldb, r) }
        } else {
            unsafe { row_strips_avx2::<4, 2>(out, cols, a, b, ldb, r) }
        };
        product_scalar(out, cols, a, b, ldb, r..r + 4, c);
        r += 4;
    }
    for r in r..rows {
        let c = unsafe { row_strips_avx2::<1, 4>(out, cols, a, b, ldb, r) };
        product_scalar(out, cols, a, b, ldb, r..r + 1, c);
    }
}

/// Rows `r0 .. r0 + RT` of [`product_avx2`] in `8·G`- then 8-column
/// strips; returns the first column left to the scalar tail. The skip's
/// branch runs only if one of the rows' coefficients is `== 0.0`:
/// without one no term can be skipped, so the plain loop is the same
/// arithmetic.
///
/// # Safety
/// As [`product_avx2`], with `r0 + RT <= rows`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn row_strips_avx2<const RT: usize, const G: usize>(
    out: &mut [f32],
    cols: usize,
    a: Coeffs<'_>,
    b: &[f32],
    ldb: usize,
    r0: usize,
) -> usize {
    // SAFETY: this function's contract, passed on unchanged.
    unsafe {
        if a.has_zero(r0..r0 + RT) {
            let c = strips_avx2::<RT, G, true>(out, cols, a, b, ldb, r0, 0);
            strips_avx2::<RT, 1, true>(out, cols, a, b, ldb, r0, c)
        } else {
            let c = strips_avx2::<RT, G, false>(out, cols, a, b, ldb, r0, 0);
            strips_avx2::<RT, 1, false>(out, cols, a, b, ldb, r0, c)
        }
    }
}

/// Rows `r0 .. r0 + RT` of [`product_avx2`] from column `c0`, in
/// `8·G`-column strips held in registers across every term; returns
/// the first column no whole strip covered.
///
/// # Safety
/// As [`product_avx2`], with `r0 + RT <= rows`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn strips_avx2<const RT: usize, const G: usize, const SKIP: bool>(
    out: &mut [f32],
    cols: usize,
    a: Coeffs<'_>,
    b: &[f32],
    ldb: usize,
    r0: usize,
    c0: usize,
) -> usize {
    use std::arch::x86_64::*;
    let (po, pa, pb) = (out.as_mut_ptr(), a.a.as_ptr(), b.as_ptr());
    let mut c = c0;
    while c + 8 * G <= cols {
        // SAFETY: rows `r0..r0 + RT` and columns `c..c + 8·G` lie in
        // `out`; `b`'s reads end at `(terms - 1)·ldb + cols` and the
        // coefficients' at `(rows - 1)·rs + (terms - 1)·ts`, the bounds
        // `product` asserted.
        unsafe {
            let mut acc = [[_mm256_setzero_ps(); G]; RT];
            for (rr, acc_r) in acc.iter_mut().enumerate() {
                for (g, x) in acc_r.iter_mut().enumerate() {
                    *x = _mm256_loadu_ps(po.add((r0 + rr) * cols + c + 8 * g));
                }
            }
            for t in 0..a.terms {
                let mut bv = [_mm256_setzero_ps(); G];
                for (g, x) in bv.iter_mut().enumerate() {
                    *x = _mm256_loadu_ps(pb.add(t * ldb + c + 8 * g));
                }
                for (rr, acc_r) in acc.iter_mut().enumerate() {
                    let x = *pa.add((r0 + rr) * a.rs + t * a.ts);
                    if SKIP && x == 0.0 {
                        continue;
                    }
                    let vx = _mm256_set1_ps(x);
                    for (acc_g, &b_g) in acc_r.iter_mut().zip(&bv) {
                        *acc_g = _mm256_add_ps(*acc_g, _mm256_mul_ps(vx, b_g));
                    }
                }
            }
            for (rr, acc_r) in acc.iter().enumerate() {
                for (g, &x) in acc_r.iter().enumerate() {
                    _mm256_storeu_ps(po.add((r0 + rr) * cols + c + 8 * g), x);
                }
            }
        }
        c += 8 * G;
    }
    c
}

/// Rows `r0 .. r0 + 4` of [`product_avx2`] on the AVX-512 backend: four
/// zmm accumulators per row (64 columns, sixteen add chains), then
/// 16-column zmm strips and one 8-column ymm strip; returns the first
/// column left to the scalar tail. The skip's branch runs only if a
/// coefficient of the four rows is `== 0.0`, as in [`row_strips_avx2`].
///
/// # Safety
/// As [`product_avx2`] with `zmm`, and `r0 + 4 <= rows`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn row_strips_avx512(
    out: &mut [f32],
    cols: usize,
    a: Coeffs<'_>,
    b: &[f32],
    ldb: usize,
    r0: usize,
) -> usize {
    // SAFETY: this function's contract, passed on unchanged.
    unsafe {
        if a.has_zero(r0..r0 + 4) {
            let c = strips_avx512::<4, true>(out, cols, a, b, ldb, r0, 0);
            let c = strips_avx512::<1, true>(out, cols, a, b, ldb, r0, c);
            strips_avx2::<4, 1, true>(out, cols, a, b, ldb, r0, c)
        } else {
            let c = strips_avx512::<4, false>(out, cols, a, b, ldb, r0, 0);
            let c = strips_avx512::<1, false>(out, cols, a, b, ldb, r0, c);
            strips_avx2::<4, 1, false>(out, cols, a, b, ldb, r0, c)
        }
    }
}

/// Rows `r0 .. r0 + 4` of [`product_avx2`] from column `c0`, in
/// `16·G`-column zmm strips held in registers across every term; returns
/// the first column no whole strip covered. The zmm twin of
/// [`strips_avx2`]: per element the same ascending terms, skip and
/// mul + add.
///
/// # Safety
/// As [`row_strips_avx512`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn strips_avx512<const G: usize, const SKIP: bool>(
    out: &mut [f32],
    cols: usize,
    a: Coeffs<'_>,
    b: &[f32],
    ldb: usize,
    r0: usize,
    c0: usize,
) -> usize {
    use std::arch::x86_64::*;
    const RT: usize = 4;
    let (po, pa, pb) = (out.as_mut_ptr(), a.a.as_ptr(), b.as_ptr());
    let mut c = c0;
    while c + 16 * G <= cols {
        // SAFETY: as in `strips_avx2`, with columns `c..c + 16·G`.
        unsafe {
            let mut acc = [[_mm512_setzero_ps(); G]; RT];
            for (rr, acc_r) in acc.iter_mut().enumerate() {
                for (g, x) in acc_r.iter_mut().enumerate() {
                    *x = _mm512_loadu_ps(po.add((r0 + rr) * cols + c + 16 * g));
                }
            }
            for t in 0..a.terms {
                let mut bv = [_mm512_setzero_ps(); G];
                for (g, x) in bv.iter_mut().enumerate() {
                    *x = _mm512_loadu_ps(pb.add(t * ldb + c + 16 * g));
                }
                for (rr, acc_r) in acc.iter_mut().enumerate() {
                    let x = *pa.add((r0 + rr) * a.rs + t * a.ts);
                    if SKIP && x == 0.0 {
                        continue;
                    }
                    let vx = _mm512_set1_ps(x);
                    for (acc_g, &b_g) in acc_r.iter_mut().zip(&bv) {
                        *acc_g = _mm512_add_ps(*acc_g, _mm512_mul_ps(vx, b_g));
                    }
                }
            }
            for (rr, acc_r) in acc.iter().enumerate() {
                for (g, &x) in acc_r.iter().enumerate() {
                    _mm512_storeu_ps(po.add((r0 + rr) * cols + c + 16 * g), x);
                }
            }
        }
        c += 16 * G;
    }
    c
}

/// A single-column [`product_avx2`] with lane `l` holding row `r + l`:
/// four groups of eight rows at a time when the rows' coefficients are
/// adjacent (`rs == 1`), one 8 × 8 register transpose per eight terms
/// when each row's are (`ts == 1`). Returns the first row left to the
/// scalar loop.
///
/// # Safety
/// As [`product_avx2`], with `cols == 1`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn column_avx2(out: &mut [f32], a: Coeffs<'_>, b: &[f32], ldb: usize) -> usize {
    use std::arch::x86_64::*;
    let rows = out.len();
    let (po, pa) = (out.as_mut_ptr(), a.a.as_ptr());
    let mut r = 0;
    if a.rs == 1 {
        const G: usize = 4;
        // SAFETY (this and the next two blocks): rows `r..r + 8·G` or
        // `r..r + 8` lie in `out`, and their coefficients within the
        // extent `product` asserted.
        while r + 8 * G <= rows {
            unsafe {
                let mut acc = [_mm256_setzero_ps(); G];
                for (g, x) in acc.iter_mut().enumerate() {
                    *x = _mm256_loadu_ps(po.add(r + 8 * g));
                }
                for t in 0..a.terms {
                    let vb = _mm256_set1_ps(b[t * ldb]);
                    for (g, x) in acc.iter_mut().enumerate() {
                        *x = kept_term(*x, _mm256_loadu_ps(pa.add(r + 8 * g + t * a.ts)), vb);
                    }
                }
                for (g, &x) in acc.iter().enumerate() {
                    _mm256_storeu_ps(po.add(r + 8 * g), x);
                }
            }
            r += 8 * G;
        }
        while r + 8 <= rows {
            unsafe {
                let mut acc = _mm256_loadu_ps(po.add(r));
                for t in 0..a.terms {
                    let vb = _mm256_set1_ps(b[t * ldb]);
                    acc = kept_term(acc, _mm256_loadu_ps(pa.add(r + t * a.ts)), vb);
                }
                _mm256_storeu_ps(po.add(r), acc);
            }
            r += 8;
        }
    } else {
        let terms = a.terms;
        while r + 8 <= rows {
            unsafe {
                let mut acc = _mm256_loadu_ps(po.add(r));
                let mut t = 0;
                while t + 8 <= terms {
                    let mut block = [_mm256_setzero_ps(); 8];
                    for (l, x) in block.iter_mut().enumerate() {
                        *x = _mm256_loadu_ps(pa.add((r + l) * a.rs + t));
                    }
                    for (k, col) in transpose8(block).into_iter().enumerate() {
                        acc = kept_term(acc, col, _mm256_set1_ps(b[(t + k) * ldb]));
                    }
                    t += 8;
                }
                for t in t..terms {
                    let col: [f32; 8] = std::array::from_fn(|l| a.at(r + l, t));
                    acc = kept_term(acc, _mm256_loadu_ps(col.as_ptr()), _mm256_set1_ps(b[t * ldb]));
                }
                _mm256_storeu_ps(po.add(r), acc);
            }
            r += 8;
        }
    }
    r
}

/// `s + x·b` per lane, except where `x == 0.0`, which keep `s` — the
/// scalar loop's skip. `==` is ordered, so a NaN `x` counts, as there.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn kept_term(
    s: std::arch::x86_64::__m256,
    x: std::arch::x86_64::__m256,
    b: std::arch::x86_64::__m256,
) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    let skip = _mm256_cmp_ps::<_CMP_EQ_OQ>(x, _mm256_setzero_ps());
    _mm256_blendv_ps(_mm256_add_ps(s, _mm256_mul_ps(x, b)), s, skip)
}

/// One output row of [`product`] on NEON: 16-column strips of four q
/// accumulators held across every term, then 4-column strips and a
/// scalar tail. `fmul` + `fadd`, never `vfmaq` (bit-identity).
///
/// # Safety
/// Caller must ensure NEON support and the bounds checked by
/// [`product`] for this row.
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn product_row_neon(out: &mut [f32], a: Coeffs<'_>, b: &[f32], ldb: usize) {
    use std::arch::aarch64::*;
    let w = out.len();
    let pb = b.as_ptr();
    let mut j = 0;
    while j + 16 <= w {
        unsafe {
            let po = out.as_mut_ptr().add(j);
            let mut a0 = vld1q_f32(po);
            let mut a1 = vld1q_f32(po.add(4));
            let mut a2 = vld1q_f32(po.add(8));
            let mut a3 = vld1q_f32(po.add(12));
            for t in 0..a.terms {
                let av = a.at(0, t);
                if av == 0.0 {
                    continue;
                }
                let va = vdupq_n_f32(av);
                let p = pb.add(t * ldb + j);
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
            for t in 0..a.terms {
                let av = a.at(0, t);
                if av == 0.0 {
                    continue;
                }
                let va = vdupq_n_f32(av);
                a0 = vaddq_f32(a0, vmulq_f32(va, vld1q_f32(pb.add(t * ldb + j))));
            }
            vst1q_f32(po, a0);
        }
        j += 4;
    }
    product_scalar(out, w, a, b, ldb, 0..1, j);
}

// ------------------------------------------------------------------
// Additive-attention scores
// ------------------------------------------------------------------

/// `out[j] = Σ_a act[j][a] · v[a]` over `act` (`out.len() × v.len()`,
/// row-major), each sum from `+0.0` by ascending `a`, zero activations
/// contributing `+0.0` — the score row `(tanh(proj ⊕ dproj) · v)ᵀ` of
/// an additive-attention read from its activations.
///
/// Adding `+0.0` for a zero activation is adding nothing: a sum that
/// starts at `+0.0` never becomes `-0.0` under round-to-nearest, and
/// `s + 0.0 == s` for every other `s`. The products are masked, not
/// skipped, so a `0 · ∞` never reaches a sum. The SIMD path runs eight
/// rows at a time, one row per lane, transposing each 8 × 8 block of
/// activations in registers; per row the adds still ascend `a`.
///
/// # Panics
/// If `act` is not `out.len()` rows of `v.len()`.
pub fn attn_scores(out: &mut [f32], act: &[f32], v: &[f32]) {
    assert_eq!(act.len(), out.len() * v.len(), "attn_scores: act is not rows × v.len()");
    match kernel::backend() {
        // SAFETY: as in `axpy`.
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 | Backend::Avx512 => unsafe { attn_scores_avx2(out, act, v) },
        Backend::Scalar | Backend::Neon => attn_scores_scalar(out, act, v),
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 | Backend::Avx512 => unreachable!("an x86 backend on another target"),
    }
}

fn attn_scores_scalar(out: &mut [f32], act: &[f32], v: &[f32]) {
    if v.is_empty() {
        out.fill(0.0);
        return;
    }
    for (s, act_row) in out.iter_mut().zip(act.chunks_exact(v.len())) {
        *s = 0.0;
        for (&u, &vv) in act_row.iter().zip(v) {
            *s += if u != 0.0 { u * vv } else { 0.0 };
        }
    }
}

/// AVX2 [`attn_scores`]: lane `l` accumulates row `j + l`.
///
/// # Safety
/// Caller must ensure AVX2 support and the shape checked by
/// [`attn_scores`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn attn_scores_avx2(out: &mut [f32], act: &[f32], v: &[f32]) {
    use std::arch::x86_64::*;
    let (rows, ad) = (out.len(), v.len());
    let mut j = 0;
    while j + 8 <= rows {
        let block = &act[j * ad..(j + 8) * ad];
        let mut s = _mm256_setzero_ps();
        let mut a = 0;
        while a + 8 <= ad {
            let mut r = [_mm256_setzero_ps(); 8];
            for (l, x) in r.iter_mut().enumerate() {
                *x = unsafe { _mm256_loadu_ps(block.as_ptr().add(l * ad + a)) };
            }
            for (k, col) in transpose8(r).into_iter().enumerate() {
                s = score_term(s, col, v[a + k]);
            }
            a += 8;
        }
        for (a, &vv) in v.iter().enumerate().skip(a) {
            let col: [f32; 8] = std::array::from_fn(|l| block[l * ad + a]);
            s = score_term(s, unsafe { _mm256_loadu_ps(col.as_ptr()) }, vv);
        }
        unsafe { _mm256_storeu_ps(out.as_mut_ptr().add(j), s) };
        j += 8;
    }
    attn_scores_scalar(&mut out[j..], &act[j * ad..], v);
}

/// `s + (u ≠ 0 ? u·v : +0.0)` per lane; `≠` is unordered, so a NaN `u`
/// counts, as in the scalar loop.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn score_term(
    s: std::arch::x86_64::__m256,
    u: std::arch::x86_64::__m256,
    v: f32,
) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    let keep = _mm256_cmp_ps::<_CMP_NEQ_UQ>(u, _mm256_setzero_ps());
    _mm256_add_ps(s, _mm256_and_ps(keep, _mm256_mul_ps(u, _mm256_set1_ps(v))))
}

/// Transpose an 8 × 8 block held as eight row vectors: lane `l` of
/// output `k` is lane `k` of input `l`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn transpose8(r: [std::arch::x86_64::__m256; 8]) -> [std::arch::x86_64::__m256; 8] {
    use std::arch::x86_64::*;
    let t0 = _mm256_unpacklo_ps(r[0], r[1]);
    let t1 = _mm256_unpackhi_ps(r[0], r[1]);
    let t2 = _mm256_unpacklo_ps(r[2], r[3]);
    let t3 = _mm256_unpackhi_ps(r[2], r[3]);
    let t4 = _mm256_unpacklo_ps(r[4], r[5]);
    let t5 = _mm256_unpackhi_ps(r[4], r[5]);
    let t6 = _mm256_unpacklo_ps(r[6], r[7]);
    let t7 = _mm256_unpackhi_ps(r[6], r[7]);
    let u0 = _mm256_shuffle_ps::<0x44>(t0, t2);
    let u1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
    let u2 = _mm256_shuffle_ps::<0x44>(t1, t3);
    let u3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
    let u4 = _mm256_shuffle_ps::<0x44>(t4, t6);
    let u5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
    let u6 = _mm256_shuffle_ps::<0x44>(t5, t7);
    let u7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
    [
        _mm256_permute2f128_ps::<0x20>(u0, u4),
        _mm256_permute2f128_ps::<0x20>(u1, u5),
        _mm256_permute2f128_ps::<0x20>(u2, u6),
        _mm256_permute2f128_ps::<0x20>(u3, u7),
        _mm256_permute2f128_ps::<0x31>(u0, u4),
        _mm256_permute2f128_ps::<0x31>(u1, u5),
        _mm256_permute2f128_ps::<0x31>(u2, u6),
        _mm256_permute2f128_ps::<0x31>(u3, u7),
    ]
}

/// Where [`attn_score_grads`] puts the activation gradient of row `j`.
pub enum ProjGrad<'a> {
    /// Nowhere: the projection takes no gradient.
    Skip,
    /// Overwrite the slot (its first term, moved in with signed zeros).
    Assign(&'a mut [f32]),
    /// Add to the slot.
    Add(&'a mut [f32]),
}

/// Reverse of [`attn_scores`] for score gradients `gs`: with
/// `dpre[j][a] = gs[j] · v[a] · (1 − act[j][a]²)`,
///
/// ```text
/// gproj[j][a]  (=|+=) dpre[j][a]
/// gdproj[a]    = Σ_j dpre[j][a]
/// gv[a]        = Σ_j (act[j][a] ≠ 0 ? act[j][a] · gs[j] : +0.0)
/// ```
///
/// both sums from `+0.0` by ascending `j`. `gdproj` and `gv` are
/// overwritten. The SIMD path holds 32-column strips of both sums in
/// registers across every row; the `gproj` mode is resolved once, not
/// per element.
///
/// # Panics
/// If the slices' lengths disagree with `gs.len() × v.len()`.
pub fn attn_score_grads(
    act: &[f32],
    gs: &[f32],
    v: &[f32],
    gdproj: &mut [f32],
    gv: &mut [f32],
    gproj: ProjGrad<'_>,
) {
    let ad = v.len();
    assert_eq!(act.len(), gs.len() * ad, "attn_score_grads: act is not rows × v.len()");
    assert!(gdproj.len() == ad && gv.len() == ad, "attn_score_grads: sum width mismatch");
    match gproj {
        ProjGrad::Skip => score_grads::<SKIP>(act, gs, v, gdproj, gv, &mut []),
        ProjGrad::Assign(p) => score_grads::<ASSIGN>(act, gs, v, gdproj, gv, p),
        ProjGrad::Add(p) => score_grads::<ADD>(act, gs, v, gdproj, gv, p),
    }
}

const SKIP: u8 = 0;
const ASSIGN: u8 = 1;
const ADD: u8 = 2;

fn score_grads<const MODE: u8>(
    act: &[f32],
    gs: &[f32],
    v: &[f32],
    gdproj: &mut [f32],
    gv: &mut [f32],
    gproj: &mut [f32],
) {
    assert!(MODE == SKIP || gproj.len() == act.len(), "attn_score_grads: gproj shape mismatch");
    match kernel::backend() {
        // SAFETY: as in `axpy`.
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 | Backend::Avx512 => unsafe {
            score_grads_avx2::<MODE>(act, gs, v, gdproj, gv, gproj)
        },
        Backend::Scalar | Backend::Neon => {
            score_grads_cols::<MODE>(act, gs, v, gdproj, gv, gproj, 0)
        }
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 | Backend::Avx512 => unreachable!("an x86 backend on another target"),
    }
}

/// The scalar loop of [`attn_score_grads`] over columns `a0..`.
fn score_grads_cols<const MODE: u8>(
    act: &[f32],
    gs: &[f32],
    v: &[f32],
    gdproj: &mut [f32],
    gv: &mut [f32],
    gproj: &mut [f32],
    a0: usize,
) {
    let ad = v.len();
    gdproj[a0..].fill(0.0);
    gv[a0..].fill(0.0);
    for (j, &gj) in gs.iter().enumerate() {
        for a in a0..ad {
            let u = act[j * ad + a];
            let dpre = gj * v[a] * (1.0 - u * u);
            match MODE {
                ASSIGN => gproj[j * ad + a] = dpre,
                ADD => gproj[j * ad + a] += dpre,
                _ => {}
            }
            gdproj[a] += dpre;
            gv[a] += if u != 0.0 { u * gj } else { 0.0 };
        }
    }
}

/// AVX2 [`attn_score_grads`]: 32-column strips (eight add chains),
/// then the scalar tail (attention widths are multiples of 32).
///
/// # Safety
/// Caller must ensure AVX2 support and the shapes checked by
/// [`attn_score_grads`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn score_grads_avx2<const MODE: u8>(
    act: &[f32],
    gs: &[f32],
    v: &[f32],
    gdproj: &mut [f32],
    gv: &mut [f32],
    gproj: &mut [f32],
) {
    let ad = v.len();
    let mut a = 0;
    while a + 32 <= ad {
        unsafe { score_strip_avx2::<MODE>(act, gs, v, gdproj, gv, gproj, a) };
        a += 32;
    }
    score_grads_cols::<MODE>(act, gs, v, gdproj, gv, gproj, a);
}

/// Columns `a0 .. a0 + 32` of [`score_grads_avx2`], four ymm groups.
///
/// # Safety
/// As [`score_grads_avx2`], with `a0 + 32 <= v.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn score_strip_avx2<const MODE: u8>(
    act: &[f32],
    gs: &[f32],
    v: &[f32],
    gdproj: &mut [f32],
    gv: &mut [f32],
    gproj: &mut [f32],
    a0: usize,
) {
    use std::arch::x86_64::*;
    const G: usize = 4;
    let ad = v.len();
    let (zero, one) = (_mm256_setzero_ps(), _mm256_set1_ps(1.0));
    unsafe {
        let mut vv = [zero; G];
        for (g, x) in vv.iter_mut().enumerate() {
            *x = _mm256_loadu_ps(v.as_ptr().add(a0 + 8 * g));
        }
        let (mut sd, mut sv) = ([zero; G], [zero; G]);
        for (j, &gj) in gs.iter().enumerate() {
            let vg = _mm256_set1_ps(gj);
            for g in 0..G {
                let at = j * ad + a0 + 8 * g;
                let u = _mm256_loadu_ps(act.as_ptr().add(at));
                let tanh_d = _mm256_sub_ps(one, _mm256_mul_ps(u, u));
                let dpre = _mm256_mul_ps(_mm256_mul_ps(vg, vv[g]), tanh_d);
                match MODE {
                    ASSIGN => _mm256_storeu_ps(gproj.as_mut_ptr().add(at), dpre),
                    ADD => {
                        let p = gproj.as_mut_ptr().add(at);
                        _mm256_storeu_ps(p, _mm256_add_ps(_mm256_loadu_ps(p), dpre));
                    }
                    _ => {}
                }
                sd[g] = _mm256_add_ps(sd[g], dpre);
                let keep = _mm256_cmp_ps::<_CMP_NEQ_UQ>(u, zero);
                sv[g] = _mm256_add_ps(sv[g], _mm256_and_ps(keep, _mm256_mul_ps(u, vg)));
            }
        }
        for g in 0..G {
            _mm256_storeu_ps(gdproj.as_mut_ptr().add(a0 + 8 * g), sd[g]);
            _mm256_storeu_ps(gv.as_mut_ptr().add(a0 + 8 * g), sv[g]);
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
        Backend::Scalar => {
            for x in xs {
                *x = tanh(*x);
            }
        }
        // SAFETY: as in `axpy`.
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 | Backend::Avx512 => unsafe { tanh_avx2(xs) },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => unsafe { tanh_neon(xs) },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 | Backend::Avx512 => unreachable!("an x86 backend on another target"),
        #[cfg(not(target_arch = "aarch64"))]
        Backend::Neon => unreachable!("NEON on another target"),
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axpy_matches_scalar_bitwise_on_all_lengths() {
        // Covers every remainder class around the 8- and 16-lane and
        // 32- and 64-unroll boundaries, plus subnormals and negative zero.
        for n in [0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 80, 88, 89, 100, 127]
        {
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
}
