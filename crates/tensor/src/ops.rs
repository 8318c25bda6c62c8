//! Matrix-multiplication kernels.
//!
//! The hot loops of Mars are `X·W` products in the GCN/LSTM layers and
//! their gradient counterparts `Aᵀ·B` / `A·Bᵀ`. All three transpose
//! variants run the same row sweep; the two transposed ones pack their
//! transposed operand first (`matmul_nt` on every call, or once per
//! weight when the caller keeps `Bᵀ`: [`matmul_nt_packed_into`]).
//!
//! Each kernel uses a cache-friendly i-k-j loop order and switches to a
//! row partition parallelized on the in-repo thread pool
//! ([`crate::pool`]) once the output is large enough for the fork/join
//! overhead to pay off. Large products additionally take a blocked
//! (GEBP-style) path: `B` is packed into contiguous column panels of
//! [`PANEL_W`] floats that stay resident in cache while a block of
//! [`BLOCK_ROWS`] output rows is swept, and `matmul_tn` packs `Aᵀ` so
//! the backward hot path reads both operands contiguously.
//!
//! **Bit-exactness contract.** Every tiled/packed path performs, for
//! each output element, the *same sequence of f32 operations* as the
//! naive kernel: accumulation strictly ascends over the contraction
//! index and the `a == 0.0` skip is preserved. Tiling here reorders
//! only *which element* is updated next, never the order of adds within
//! an element, so packed results are bit-identical to the naive loops
//! (asserted by the `*_bit_identical_*` tests below) and the numerics
//! tests keep exact equality rather than relaxing to epsilon bounds.
//!
//! The row-sweep inner loops route through [`crate::simd::axpy`], which
//! vectorizes across output columns (lanes = different elements) with
//! two-rounding `mul` + `add` — bit-identical to the scalar loop on
//! every backend, so the contract holds under SIMD dispatch too (see
//! `crates/tensor/tests/simd_parity.rs`).

use crate::simd::{self, AlignedBuf};
use crate::{pool, Matrix};

/// Minimum number of multiply-accumulate operations before a kernel
/// parallelizes across rows. Below this the sequential loop wins.
const PAR_FLOP_THRESHOLD: usize = 64 * 64 * 64;

/// Width (in f32 columns) of one packed `B` panel: 64 floats = 256
/// bytes = 4 cache lines per packed row.
const PANEL_W: usize = 64;

/// Output rows swept per parallel task in the blocked path; one block
/// reuses each resident packed panel `BLOCK_ROWS` times.
const BLOCK_ROWS: usize = 32;

/// Minimum `m` before packing `B` pays for its `O(k·n)` copy: the pack
/// is amortized over `m` row sweeps, so single-row products (LSTM
/// steps) stay on the unpacked path.
const PACK_MIN_ROWS: usize = 8;

#[inline]
fn inner_nn(out_row: &mut [f32], a_row: &[f32], b: &Matrix) {
    // out_row += a_row · B, with k-outer loop so B is streamed
    // row-wise; the sweep keeps the output accumulators in registers
    // across k on SIMD backends.
    simd::strided_sweep(out_row, a_row, b.as_slice(), b.cols());
}

/// `B` repacked into contiguous column panels: panel `p` holds columns
/// `p·PANEL_W .. min((p+1)·PANEL_W, n)` as `k` consecutive rows of the
/// panel's width, so the inner kernel streams both operands linearly.
struct PackedB {
    /// Cache-line aligned panel storage: panel loads never straddle an
    /// extra line regardless of allocator behavior.
    data: AlignedBuf,
    /// Start offset of each panel in `data` (one trailing sentinel).
    offsets: Vec<usize>,
    /// Column range `(j0, width)` of each panel.
    panels: Vec<(usize, usize)>,
}

fn pack_b(b: &Matrix) -> PackedB {
    let (k, n) = b.shape();
    let num_panels = n.div_ceil(PANEL_W);
    let mut data = AlignedBuf::zeroed(k * n);
    let mut offsets = Vec::with_capacity(num_panels + 1);
    let mut panels = Vec::with_capacity(num_panels);
    let mut off = 0;
    for p in 0..num_panels {
        let j0 = p * PANEL_W;
        let w = PANEL_W.min(n - j0);
        offsets.push(off);
        panels.push((j0, w));
        for t in 0..k {
            let src = &b.row(t)[j0..j0 + w];
            data[off + t * w..off + t * w + w].copy_from_slice(src);
        }
        off += k * w;
    }
    offsets.push(off);
    PackedB { data, offsets, panels }
}

/// Blocked row sweep: accumulate `rows` output rows starting at global
/// row `i0` against every packed panel. Per element the adds ascend in
/// `t` with the zero skip, exactly like [`inner_nn`].
fn packed_block(out_blk: &mut [f32], a: &Matrix, bp: &PackedB, i0: usize, n: usize) {
    let rows = out_blk.len() / n;
    for (p, &(j0, w)) in bp.panels.iter().enumerate() {
        let panel = &bp.data[bp.offsets[p]..bp.offsets[p + 1]];
        for r in 0..rows {
            let a_row = a.row(i0 + r);
            let out_seg = &mut out_blk[r * n + j0..r * n + j0 + w];
            simd::strided_sweep(out_seg, a_row, panel, w);
        }
    }
}

/// `C = A · B` where `A: m×k`, `B: k×n`.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    matmul_into(a, b, &mut out);
    out
}

/// `C = A · B` written into a caller-provided `m×n` matrix (zeroed
/// here first) — the allocation-free entry point that [`matmul`]
/// wraps. Identical kernels and per-element op order, so the result is
/// bit-identical to [`matmul`] regardless of what the output buffer
/// previously held; the inference tape's pooled activation buffers
/// route through this.
pub fn matmul_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    let _span = mars_telemetry::span("tensor.ops.matmul");
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul: inner dimensions differ: {:?} x {:?}",
        a.shape(),
        b.shape()
    );
    product_into(a, b, out);
}

/// `out = A · B` for conforming operands: the row sweeps behind
/// [`matmul_into`] and, on a transposed `B`, behind [`matmul_nt_into`].
fn product_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    let (m, k) = a.shape();
    let n = b.cols();
    assert_eq!(out.shape(), (m, n), "product out shape {:?} != ({m}, {n})", out.shape());
    out.as_mut_slice().fill(0.0);
    if m * n * k >= PAR_FLOP_THRESHOLD && m >= PACK_MIN_ROWS {
        // Blocked/packed path: pack B once, sweep BLOCK_ROWS-row blocks
        // in parallel with the packed panels shared read-only.
        let bp = pack_b(b);
        pool::par_chunks_mut(out.as_mut_slice(), BLOCK_ROWS * n.max(1), |blk, out_blk| {
            packed_block(out_blk, a, &bp, blk * BLOCK_ROWS, n)
        });
    } else if m * n * k >= PAR_FLOP_THRESHOLD && m > 1 {
        let cols = n.max(1);
        pool::par_chunks_mut(out.as_mut_slice(), cols, |i, out_row| inner_nn(out_row, a.row(i), b));
    } else {
        for i in 0..m {
            let row = &mut out.as_mut_slice()[i * n..(i + 1) * n];
            inner_nn(row, a.row(i), b);
        }
    }
}

/// `C = Aᵀ · B` where `A: k×m`, `B: k×n` (result `m×n`).
///
/// This is the gradient-w.r.t.-weights kernel: for `Y = X·W`,
/// `dW = Xᵀ·dY`.
pub fn matmul_tn(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.cols(), b.cols());
    matmul_tn_into(a, b, &mut out);
    out
}

/// `C = Aᵀ · B` written into a caller-provided `m×n` matrix (zeroed
/// here first) — the allocation-free entry point that [`matmul_tn`]
/// wraps, used by the training arena's pooled gradient buffers. Same
/// kernels and per-element op order as [`matmul_tn`].
pub fn matmul_tn_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    let _span = mars_telemetry::span("tensor.ops.matmul_tn");
    assert_eq!(
        a.rows(),
        b.rows(),
        "matmul_tn: leading dimensions differ: {:?} x {:?}",
        a.shape(),
        b.shape()
    );
    let k = a.rows();
    let m = a.cols();
    let n = b.cols();
    assert_eq!(out.shape(), (m, n), "matmul_tn_into: out shape {:?} != ({m}, {n})", out.shape());
    out.as_mut_slice().fill(0.0);
    if m * n * k >= PAR_FLOP_THRESHOLD && m > 1 {
        // Packed path: transpose A once so each output row reads one
        // contiguous k-slice, then sweep rows in parallel. Per element
        // the adds ascend in t with the zero skip — bit-identical to
        // the rank-1 accumulation below.
        let mut at = AlignedBuf::zeroed(m * k);
        for t in 0..k {
            for (i, &av) in a.row(t).iter().enumerate() {
                at[i * k + t] = av;
            }
        }
        pool::par_chunks_mut(out.as_mut_slice(), n.max(1), |i, out_row| {
            simd::strided_sweep(out_row, &at[i * k..(i + 1) * k], b.as_slice(), n);
        });
        return;
    }
    // Accumulate rank-1 updates; row-major friendly for both inputs.
    for t in 0..k {
        let a_row = a.row(t);
        let b_row = b.row(t);
        for (i, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            simd::axpy(&mut out.as_mut_slice()[i * n..(i + 1) * n], av, b_row);
        }
    }
}

/// `C = A · Bᵀ` where `A: m×k`, `B: n×k` (result `m×n`).
///
/// This is the gradient-w.r.t.-input kernel: for `Y = X·W`,
/// `dX = dY·Wᵀ`.
pub fn matmul_nt(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.rows());
    matmul_nt_into(a, b, &mut out);
    out
}

/// `C = A · Bᵀ` written into a caller-provided `m×n` matrix (zeroed
/// here first) — the allocation-free entry point that [`matmul_nt`]
/// wraps, used by the training arena's pooled gradient buffers.
///
/// The contraction runs along the contiguous axis of both operands, so
/// lanes over it would sum each element as a lane tree. Transposing `B`
/// once turns it into the [`matmul`] sweep instead — lanes over output
/// columns, each element ascending `t` with `mul` + `add` — which is
/// bit-identical to the naive dot `Σ_t a[i][t]·b[j][t]` on finite
/// operands: that accumulator starts at `+0.0` and can never become
/// `-0.0`, so the `a == 0.0` skip drops only terms that leave it as is.
pub fn matmul_nt_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    let _span = mars_telemetry::span("tensor.ops.matmul_nt");
    assert_eq!(
        a.cols(),
        b.cols(),
        "matmul_nt: trailing dimensions differ: {:?} x {:?}",
        a.shape(),
        b.shape()
    );
    product_into(a, &b.transpose(), out);
}

/// [`matmul_nt_into`] for a caller that already holds `bt = Bᵀ`
/// (`k×n`) and reuses it across products — the backward pass keeps one
/// per weight leaf. Same span, same sweep, same bits.
pub fn matmul_nt_packed_into(a: &Matrix, bt: &Matrix, out: &mut Matrix) {
    let _span = mars_telemetry::span("tensor.ops.matmul_nt");
    assert_eq!(
        a.cols(),
        bt.rows(),
        "matmul_nt: trailing dimensions differ: {:?} x {:?}ᵀ",
        a.shape(),
        bt.shape()
    );
    product_into(a, bt, out);
}

/// Dot product of two equal-length slices.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Outer product `a · bᵀ` of two vectors (`m×1` result from slices).
pub fn outer(a: &[f32], b: &[f32]) -> Matrix {
    let mut out = Matrix::zeros(a.len(), b.len());
    for (i, &av) in a.iter().enumerate() {
        for (j, &bv) in b.iter().enumerate() {
            out.set(i, j, av * bv);
        }
    }
    out
}

/// Sparse matrix in compressed-sparse-row form.
///
/// Used for the (constant) normalized adjacency matrix of computational
/// graphs: `spmm` implements `Â · X` without densifying `Â`.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// Row pointer array, length `rows + 1`.
    indptr: Vec<usize>,
    /// Column indices, length nnz.
    indices: Vec<usize>,
    /// Non-zero values, length nnz.
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Build from (row, col, value) triplets. Duplicate entries are summed.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f32)]) -> Self {
        let mut per_row: Vec<Vec<(usize, f32)>> = vec![Vec::new(); rows];
        for &(r, c, v) in triplets {
            assert!(r < rows && c < cols, "triplet ({r},{c}) out of {rows}x{cols}");
            per_row[r].push((c, v));
        }
        let mut indptr = Vec::with_capacity(rows + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0);
        for row in &mut per_row {
            row.sort_by_key(|&(c, _)| c);
            let mut last: Option<usize> = None;
            for &(c, v) in row.iter() {
                if last == Some(c) {
                    *values.last_mut().expect("non-empty") += v;
                } else {
                    indices.push(c);
                    values.push(v);
                    last = Some(c);
                }
            }
            indptr.push(indices.len());
        }
        CsrMatrix { rows, cols, indptr, indices, values }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterate over `(col, value)` pairs of row `r`.
    pub fn row_iter(&self, r: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        let lo = self.indptr[r];
        let hi = self.indptr[r + 1];
        self.indices[lo..hi].iter().copied().zip(self.values[lo..hi].iter().copied())
    }

    /// Sparse × dense product `self · x`.
    pub fn spmm(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, x.cols());
        self.spmm_into(x, &mut out);
        out
    }

    /// [`CsrMatrix::spmm`] written into a caller-provided matrix
    /// (zeroed here first) — the allocation-free entry point used by
    /// the training arena's pooled buffers. Same kernels and
    /// per-element op order as [`CsrMatrix::spmm`].
    pub fn spmm_into(&self, x: &Matrix, out: &mut Matrix) {
        let _span = mars_telemetry::span("tensor.ops.spmm");
        assert_eq!(self.cols, x.rows(), "spmm: {}x{} · {:?}", self.rows, self.cols, x.shape());
        let n = x.cols();
        assert_eq!(out.shape(), (self.rows, n), "spmm_into: out shape mismatch");
        out.as_mut_slice().fill(0.0);
        let rows_big = self.nnz() * n >= PAR_FLOP_THRESHOLD;
        let compute = |r: usize, out_row: &mut [f32]| {
            let lo = self.indptr[r];
            let hi = self.indptr[r + 1];
            for t in lo..hi {
                simd::axpy(out_row, self.values[t], x.row(self.indices[t]));
            }
        };
        if rows_big && self.rows > 1 {
            pool::par_chunks_mut(out.as_mut_slice(), n.max(1), |r, out_row| compute(r, out_row));
        } else {
            for r in 0..self.rows {
                let row = &mut out.as_mut_slice()[r * n..(r + 1) * n];
                compute(r, row);
            }
        }
    }

    /// Transposed sparse × dense product `selfᵀ · x` (for backprop).
    pub fn spmm_t(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, x.cols());
        self.spmm_t_into(x, &mut out);
        out
    }

    /// [`CsrMatrix::spmm_t`] written into a caller-provided matrix
    /// (zeroed here first) — allocation-free for pooled gradient
    /// buffers, same scatter order as [`CsrMatrix::spmm_t`].
    pub fn spmm_t_into(&self, x: &Matrix, out: &mut Matrix) {
        let _span = mars_telemetry::span("tensor.ops.spmm_t");
        assert_eq!(self.rows, x.rows(), "spmm_t: ({}x{})ᵀ · {:?}", self.rows, self.cols, x.shape());
        let n = x.cols();
        assert_eq!(out.shape(), (self.cols, n), "spmm_t_into: out shape mismatch");
        out.as_mut_slice().fill(0.0);
        for r in 0..self.rows {
            let x_row = x.row(r);
            for (c, v) in self.row_iter(r) {
                simd::axpy(&mut out.as_mut_slice()[c * n..(c + 1) * n], v, x_row);
            }
        }
    }

    /// Densify (for tests and small problems).
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row_iter(r) {
                out.set(r, c, out.get(r, c) + v);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for t in 0..a.cols() {
                    acc += a.get(i, t) * b.get(t, j);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    #[test]
    fn matmul_small_known() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = matmul(&a, &b);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f32);
        let i = Matrix::eye(4);
        assert_eq!(matmul(&a, &i), a);
        assert_eq!(matmul(&i, &a), a);
    }

    #[test]
    fn transpose_variants_agree() {
        let a = Matrix::from_fn(5, 7, |r, c| ((r * 7 + c) as f32).sin());
        let b = Matrix::from_fn(7, 3, |r, c| ((r * 3 + c) as f32).cos());
        let c = matmul(&a, &b);
        let c_tn = matmul_tn(&a.transpose(), &b);
        let c_nt = matmul_nt(&a, &b.transpose());
        assert!(c.max_abs_diff(&c_tn) < 1e-5);
        assert!(c.max_abs_diff(&c_nt) < 1e-5);
    }

    #[test]
    fn large_parallel_path_matches_sequential() {
        let a = Matrix::from_fn(70, 70, |r, c| ((r + 2 * c) as f32 * 0.01).sin());
        let b = Matrix::from_fn(70, 70, |r, c| ((3 * r + c) as f32 * 0.02).cos());
        let fast = matmul(&a, &b);
        let slow = seq_matmul(&a, &b);
        assert!(fast.max_abs_diff(&slow) < 1e-4);
    }

    #[test]
    fn parallel_path_is_bit_identical_to_sequential_kernel() {
        // 70³ MACs exceed PAR_FLOP_THRESHOLD, so matmul takes the pool
        // path. Per-row arithmetic is the same `inner_nn` either way,
        // so the results must match exactly — not just within tolerance.
        let a = Matrix::from_fn(70, 70, |r, c| ((r + 2 * c) as f32 * 0.01).sin());
        let b = Matrix::from_fn(70, 70, |r, c| ((3 * r + c) as f32 * 0.02).cos());
        const { assert!(70 * 70 * 70 >= PAR_FLOP_THRESHOLD) }
        let fast = matmul(&a, &b);
        let mut seq = Matrix::zeros(70, 70);
        for i in 0..70 {
            inner_nn(&mut seq.as_mut_slice()[i * 70..(i + 1) * 70], a.row(i), &b);
        }
        assert_eq!(fast, seq);
    }

    #[test]
    fn threshold_switch_small_stays_sequential_and_agrees() {
        // Below the cutoff (8³ MACs) matmul uses the plain loop; the
        // same operands pushed through the parallel entry point via a
        // larger embedding must agree exactly on the shared block.
        let a = Matrix::from_fn(8, 8, |r, c| (r * 8 + c) as f32 * 0.5);
        let b = Matrix::from_fn(8, 8, |r, c| ((r + c) as f32).cos());
        const { assert!(8 * 8 * 8 < PAR_FLOP_THRESHOLD) }
        let small = matmul(&a, &b);
        let slow = seq_matmul(&a, &b);
        assert!(small.max_abs_diff(&slow) < 1e-5);
    }

    #[test]
    fn packed_matmul_bit_identical_on_ragged_shapes() {
        // Shapes that hit the packed path with a ragged last panel
        // (n % PANEL_W ≠ 0) and a ragged last row block
        // (m % BLOCK_ROWS ≠ 0). The packed result must equal the naive
        // inner_nn rows bit for bit — same per-element add sequence.
        for (m, k, n) in [(70, 70, 70), (33, 100, 90), (41, 128, 130), (8, 300, 200)] {
            assert!(m * n * k >= PAR_FLOP_THRESHOLD && m >= 8, "({m},{k},{n}) misses path");
            let a = Matrix::from_fn(m, k, |r, c| ((r * 3 + c) as f32 * 0.013).sin());
            let b = Matrix::from_fn(k, n, |r, c| ((r + 5 * c) as f32 * 0.007).cos());
            let fast = matmul(&a, &b);
            let mut seq = Matrix::zeros(m, n);
            for i in 0..m {
                inner_nn(&mut seq.as_mut_slice()[i * n..(i + 1) * n], a.row(i), &b);
            }
            assert_eq!(fast, seq, "({m},{k},{n})");
        }
    }

    #[test]
    fn packed_matmul_preserves_zero_skip_semantics() {
        let mut a = Matrix::from_fn(40, 80, |r, c| ((r + c) as f32 * 0.02).sin());
        for i in 0..40 {
            // Zero out a stripe so the skip branch is exercised.
            let row = &mut a.as_mut_slice()[i * 80..i * 80 + 80];
            row[i..80].iter_mut().step_by(3).for_each(|v| *v = 0.0);
        }
        let b = Matrix::from_fn(80, 96, |r, c| ((2 * r + c) as f32 * 0.011).cos());
        const { assert!(40 * 80 * 96 >= PAR_FLOP_THRESHOLD) }
        let fast = matmul(&a, &b);
        let mut seq = Matrix::zeros(40, 96);
        for i in 0..40 {
            inner_nn(&mut seq.as_mut_slice()[i * 96..(i + 1) * 96], a.row(i), &b);
        }
        assert_eq!(fast, seq);
    }

    #[test]
    fn matmul_tn_packed_bit_identical_to_rank1() {
        // (k, m, n) hitting the packed-Aᵀ path; reference is the serial
        // rank-1 accumulation (the small-size code path).
        let (k, m, n) = (90, 70, 70);
        assert!(m * n * k >= PAR_FLOP_THRESHOLD);
        let a = Matrix::from_fn(k, m, |r, c| ((r * 7 + c) as f32 * 0.017).sin());
        let b = Matrix::from_fn(k, n, |r, c| ((r + 11 * c) as f32 * 0.019).cos());
        let fast = matmul_tn(&a, &b);
        let mut seq = Matrix::zeros(m, n);
        for t in 0..k {
            let a_row = a.row(t);
            let b_row = b.row(t);
            for (i, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let out_row = &mut seq.as_mut_slice()[i * n..(i + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
        assert_eq!(fast, seq);
    }

    #[test]
    fn matmul_nt_bit_identical_to_naive_dot() {
        // The oracle is the plain ascending dot per element, with no
        // zero skip. Shapes cover single rows, ragged lane tails, the
        // serial path, the unpacked parallel path (m < PACK_MIN_ROWS)
        // and the blocked one; inputs carry exact zeros and `-0.0`.
        for (m, k, n) in [(1, 192, 96), (3, 17, 31), (5, 1, 40), (4, 300, 250), (70, 80, 67)] {
            let a = Matrix::from_fn(m, k, |r, c| match (r * 5 + c) % 7 {
                0 => 0.0,
                3 => -0.0,
                _ => ((r + 2 * c) as f32 * 0.01).sin(),
            });
            let b = Matrix::from_fn(n, k, |r, c| match (r + 3 * c) % 11 {
                0 => -0.0,
                _ => ((3 * r + c) as f32 * 0.02).cos(),
            });
            let mut seq = Matrix::zeros(m, n);
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for t in 0..k {
                        acc += a.row(i)[t] * b.row(j)[t];
                    }
                    seq.set(i, j, acc);
                }
            }
            let bits = |x: &Matrix| x.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&matmul_nt(&a, &b)), bits(&seq), "({m},{k},{n})");
            let mut held = Matrix::full(m, n, f32::NAN);
            matmul_nt_packed_into(&a, &b.transpose(), &mut held);
            assert_eq!(bits(&held), bits(&seq), "({m},{k},{n}) with a caller-held Bᵀ");
        }
        const { assert!(4 * 300 * 250 >= PAR_FLOP_THRESHOLD && 4 < PACK_MIN_ROWS) }
        const { assert!(70 * 80 * 67 >= PAR_FLOP_THRESHOLD) }
    }

    #[test]
    fn dot_and_outer() {
        assert_eq!(dot(&[1., 2., 3.], &[4., 5., 6.]), 32.0);
        let o = outer(&[1., 2.], &[3., 4., 5.]);
        assert_eq!(o.shape(), (2, 3));
        assert_eq!(o.row(1), &[6., 8., 10.]);
    }

    #[test]
    fn csr_roundtrip_and_spmm() {
        let triplets = [(0usize, 1usize, 2.0f32), (1, 0, 3.0), (1, 2, 4.0), (2, 2, 5.0)];
        let a = CsrMatrix::from_triplets(3, 3, &triplets);
        assert_eq!(a.nnz(), 4);
        let x = Matrix::from_vec(3, 2, vec![1., 10., 2., 20., 3., 30.]);
        let y = a.spmm(&x);
        let y_dense = matmul(&a.to_dense(), &x);
        assert!(y.max_abs_diff(&y_dense) < 1e-6);
        let yt = a.spmm_t(&x);
        let yt_dense = matmul(&a.to_dense().transpose(), &x);
        assert!(yt.max_abs_diff(&yt_dense) < 1e-6);

        // Both products against the plain serial loop — stored entries
        // in ascending order, `mul` then `add` — bit for bit: widths on
        // either side of the SIMD lanes, the empty and the single-node
        // matrix, and one product big enough for the pooled row sweep.
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let pooled = rand_adj(160, 3);
        assert!(pooled.nnz() * 96 >= PAR_FLOP_THRESHOLD);
        let mut cases = vec![
            (CsrMatrix::from_triplets(0, 0, &[]), 6),
            (CsrMatrix::from_triplets(1, 1, &[(0, 0, 1.0)]), 6),
            (pooled, 96),
        ];
        cases.extend([1, 7, 8, 9, 33].map(|width| (rand_adj(12, width), width)));
        for (adj, width) in &cases {
            let (n, width) = (adj.rows(), *width);
            let x = rand_feats(n, width, n);
            let mut want = Matrix::zeros(n, width);
            let mut want_t = Matrix::zeros(n, width);
            for r in 0..n {
                for (c, v) in adj.row_iter(r) {
                    for j in 0..width {
                        want.set(r, j, want.get(r, j) + v * x.get(c, j));
                        want_t.set(c, j, want_t.get(c, j) + v * x.get(r, j));
                    }
                }
            }
            assert_eq!(bits(&adj.spmm(&x)), bits(&want), "spmm {n}x{n} width {width}");
            assert_eq!(bits(&adj.spmm_t(&x)), bits(&want_t), "spmm_t {n}x{n} width {width}");
        }
    }

    #[test]
    fn csr_duplicate_triplets_sum() {
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.0)]);
        assert_eq!(a.nnz(), 1);
        assert_eq!(a.to_dense().get(0, 0), 3.0);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = matmul(&a, &b);
    }

    /// A pseudo-random sparse square adjacency with self-loops, sized
    /// to mimic normalized workload graphs.
    fn rand_adj(n: usize, seed: usize) -> CsrMatrix {
        let mut triplets = Vec::new();
        for r in 0..n {
            triplets.push((r, r, 0.5));
            for c in 0..n {
                if (r * 31 + c * 17 + seed * 7).is_multiple_of(5) && r != c {
                    triplets.push((r, c, ((r + c + seed) as f32 * 0.07).sin()));
                }
            }
        }
        CsrMatrix::from_triplets(n, n, &triplets)
    }

    fn rand_feats(rows: usize, cols: usize, seed: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| ((r * 13 + c * 5 + seed) as f32 * 0.011).sin())
    }

    #[test]
    fn into_variants_overwrite_dirty_buffers() {
        let a = rand_feats(6, 5, 1);
        let b = rand_feats(6, 4, 2); // for tn: a 6×5, b 6×4 → 5×4
        let want_tn = matmul_tn(&a, &b);
        let mut dirty = Matrix::full(5, 4, f32::NAN);
        matmul_tn_into(&a, &b, &mut dirty);
        assert_eq!(dirty, want_tn);

        let c = rand_feats(4, 5, 3); // for nt: a 6×5, c 4×5 → 6×4
        let want_nt = matmul_nt(&a, &c);
        let mut dirty = Matrix::full(6, 4, f32::NAN);
        matmul_nt_into(&a, &c, &mut dirty);
        assert_eq!(dirty, want_nt);

        let adj = rand_adj(6, 4);
        let want_s = adj.spmm(&a);
        let mut dirty = Matrix::full(6, 5, f32::NAN);
        adj.spmm_into(&a, &mut dirty);
        assert_eq!(dirty, want_s);
        let want_st = adj.spmm_t(&a);
        let mut dirty = Matrix::full(6, 5, f32::NAN);
        adj.spmm_t_into(&a, &mut dirty);
        assert_eq!(dirty, want_st);
    }
}
