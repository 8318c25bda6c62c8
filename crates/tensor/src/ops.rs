//! Matrix-multiplication kernels.
//!
//! The hot loops of Mars are `X·W` products in the GCN/LSTM layers and
//! their gradient counterparts `Aᵀ·B` / `A·Bᵀ`. All three transpose
//! variants are one call shape of [`simd::product`], the workspace's
//! single dense-product kernel: `A·B` reads `A` row-major, `Aᵀ·B` reads
//! it term-major in place (no `Aᵀ` copy), and `A·Bᵀ` transposes `B`
//! first (on every call, or once per weight when the caller keeps `Bᵀ`:
//! [`matmul_nt_packed_into`]).
//!
//! A product large enough for the fork/join overhead to pay off splits
//! its output into row blocks of at most [`BLOCK_ROWS`] on the in-repo
//! thread pool ([`crate::pool`]); a smaller one is one kernel call.
//!
//! **Bit-exactness contract.** Every product computes each output
//! element as the same sequence of f32 operations: from `+0.0`, one
//! two-rounding `mul` + `add` per contraction index `t`, in ascending
//! `t`, skipping a term whose `A` coefficient is `== 0.0`. Blocking,
//! threading, register tiles and SIMD lanes change only *which element*
//! is updated next, never the order of adds within an element, so
//! every path, every thread count and every backend give the same bits
//! (asserted against explicit loops by the tests below and by
//! `crates/tensor/tests/simd_parity.rs`), and the numerics tests keep
//! exact equality rather than relaxing to epsilon bounds.

use crate::simd::{self, Coeffs};
use crate::{pool, Matrix};

/// Minimum number of multiply-accumulate operations before a kernel
/// parallelizes across rows. Below this the sequential loop wins.
const PAR_FLOP_THRESHOLD: usize = 64 * 64 * 64;

/// Output rows per parallel task of a large product.
const BLOCK_ROWS: usize = 32;

/// `out = Σ_t a[r, t] · b.row(t)` for the `m × n` output: one kernel
/// call, or, once the product reaches [`PAR_FLOP_THRESHOLD`], one per
/// row block on the pool. A block is [`BLOCK_ROWS`] rows, or fewer when
/// that would leave a thread idle, so a product with as few rows as
/// threads still spreads (`m = 39` on two threads: 20 + 19 rows).
fn product_into(a: Coeffs<'_>, m: usize, b: &Matrix, out: &mut Matrix) {
    let n = b.cols();
    assert_eq!(out.shape(), (m, n), "product out shape {:?} != ({m}, {n})", out.shape());
    out.as_mut_slice().fill(0.0);
    let block = if m * n * a.terms >= PAR_FLOP_THRESHOLD {
        BLOCK_ROWS.min(m.div_ceil(pool::threads()))
    } else {
        m
    };
    pool::par_chunks_mut(out.as_mut_slice(), block * n, |i, out_blk| {
        simd::product(out_blk, n, a.skip_rows(i * block), b.as_slice(), n)
    });
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
    product_into(Coeffs::rows(a.as_slice(), a.cols()), a.rows(), b, out);
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
/// kernel and per-element op order as [`matmul_tn`]: output row `i`
/// reads column `i` of `A` in place, one coefficient per row of `A`.
pub fn matmul_tn_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    let _span = mars_telemetry::span("tensor.ops.matmul_tn");
    assert_eq!(
        a.rows(),
        b.rows(),
        "matmul_tn: leading dimensions differ: {:?} x {:?}",
        a.shape(),
        b.shape()
    );
    let (k, m) = (a.rows(), a.cols());
    product_into(Coeffs::cols(a.as_slice(), m, k), m, b, out);
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
/// once turns it into the [`matmul`] product instead — lanes over
/// output columns, each element ascending `t` with `mul` + `add` —
/// which is bit-identical to the naive dot `Σ_t a[i][t]·b[j][t]` on
/// finite operands: that accumulator starts at `+0.0` and can never
/// become `-0.0`, so the `a == 0.0` skip drops only terms that leave it
/// as is.
pub fn matmul_nt_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    let _span = mars_telemetry::span("tensor.ops.matmul_nt");
    assert_eq!(
        a.cols(),
        b.cols(),
        "matmul_nt: trailing dimensions differ: {:?} x {:?}",
        a.shape(),
        b.shape()
    );
    product_into(Coeffs::rows(a.as_slice(), a.cols()), a.rows(), &b.transpose(), out);
}

/// [`matmul_nt_into`] for a caller that already holds `bt = Bᵀ`
/// (`k×n`) and reuses it across products — the backward pass keeps one
/// per weight leaf. Same span, same kernel, same bits.
pub fn matmul_nt_packed_into(a: &Matrix, bt: &Matrix, out: &mut Matrix) {
    let _span = mars_telemetry::span("tensor.ops.matmul_nt");
    assert_eq!(
        a.cols(),
        bt.rows(),
        "matmul_nt: trailing dimensions differ: {:?} x {:?}ᵀ",
        a.shape(),
        bt.shape()
    );
    product_into(Coeffs::rows(a.as_slice(), a.cols()), a.rows(), bt, out);
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
    /// Build from (row, col, value) triplets. Duplicate entries are
    /// summed in input order.
    ///
    /// A counting sort by row keeps each row's triplets in input order,
    /// then a stable sort by column orders the row, so equal columns
    /// stay in input order for the sum.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f32)]) -> Self {
        let mut start = vec![0usize; rows + 1];
        for &(r, c, _) in triplets {
            assert!(r < rows && c < cols, "triplet ({r},{c}) out of {rows}x{cols}");
            start[r + 1] += 1;
        }
        for r in 0..rows {
            start[r + 1] += start[r];
        }
        let mut sorted = vec![(0usize, 0.0f32); triplets.len()];
        let mut next = start.clone();
        for &(r, c, v) in triplets {
            sorted[next[r]] = (c, v);
            next[r] += 1;
        }
        let mut indptr = Vec::with_capacity(rows + 1);
        let mut indices = Vec::with_capacity(triplets.len());
        let mut values: Vec<f32> = Vec::with_capacity(triplets.len());
        indptr.push(0);
        for r in 0..rows {
            let row = &mut sorted[start[r]..start[r + 1]];
            row.sort_by_key(|&(c, _)| c);
            let row_start = indices.len();
            for &(c, v) in row.iter() {
                if indices.len() > row_start && indices.last() == Some(&c) {
                    *values.last_mut().expect("non-empty") += v;
                } else {
                    indices.push(c);
                    values.push(v);
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

    /// The contract every product keeps, as a plain loop that calls no
    /// kernel: element `(i, j)` from `+0.0`, one `mul` + `add` per `t`
    /// in ascending order, a zero coefficient `a(i, t)` skipped.
    fn skip_loop(
        m: usize,
        k: usize,
        n: usize,
        a: impl Fn(usize, usize) -> f32,
        b: &Matrix,
    ) -> Matrix {
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for t in 0..k {
                    let x = a(i, t);
                    if x != 0.0 {
                        acc += x * b.get(t, j);
                    }
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    fn bits(x: &Matrix) -> Vec<u32> {
        x.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// `m × k` operand with exact zeros, `-0.0` and a NaN-free spread.
    fn zeroed_operand(m: usize, k: usize, seed: usize) -> Matrix {
        Matrix::from_fn(m, k, |r, c| match (r * 5 + c + seed) % 7 {
            0 => 0.0,
            3 => -0.0,
            _ => ((r * 3 + c + seed) as f32 * 0.013).sin(),
        })
    }

    /// `m × k` operand with no zero, so no skip can happen in it.
    fn dense_operand(m: usize, k: usize, seed: usize) -> Matrix {
        Matrix::from_fn(m, k, |r, c| ((r * 3 + c + seed) as f32 * 0.013).sin() - 1.5)
    }

    #[test]
    fn matmul_bit_identical_to_skip_loop_on_every_path() {
        // The serial call (below PAR_FLOP_THRESHOLD) and the pooled
        // blocks, with a ragged last block (m % BLOCK_ROWS ≠ 0), widths
        // around the 8- and 16-column strips, single columns (the
        // transposed-lane path) and the DGI head's 528×256·256×1.
        let shapes = [
            (8, 8, 8),
            (70, 70, 70),
            (33, 100, 90),
            (41, 128, 130),
            (8, 300, 200),
            (37, 64, 1),
            (528, 256, 1),
            (9, 1, 17),
            (65, 70, 64),
        ];
        const { assert!(8 * 8 * 8 < PAR_FLOP_THRESHOLD) }
        for (m, k, n) in shapes {
            let b = Matrix::from_fn(k, n, |r, c| ((r + 5 * c) as f32 * 0.007).cos());
            for a in [zeroed_operand(m, k, n), dense_operand(m, k, n)] {
                let want = skip_loop(m, k, n, |i, t| a.get(i, t), &b);
                let mut dirty = Matrix::full(m, n, f32::NAN);
                matmul_into(&a, &b, &mut dirty);
                assert_eq!(bits(&matmul(&a, &b)), bits(&want), "({m},{k},{n})");
                assert_eq!(bits(&dirty), bits(&want), "({m},{k},{n}) into a dirty buffer");
            }
        }
    }

    #[test]
    fn matmul_zero_coefficients_skip_infinite_terms() {
        // A zero coefficient facing an infinite `b` entry adds nothing:
        // with the skip `0 · ∞` never reaches a sum, so no NaN appears,
        // on the pooled tiles and in the single-column lanes alike.
        for n in [96, 1] {
            let mut a = zeroed_operand(40, 80, 1);
            for i in 0..40 {
                a.set(i, 11, 0.0);
                a.set(i, 12, -0.0);
            }
            let mut b = Matrix::from_fn(80, n, |r, c| ((2 * r + c) as f32 * 0.011).cos());
            b.row_mut(11).fill(f32::INFINITY);
            b.row_mut(12).fill(f32::NEG_INFINITY);
            let fast = matmul(&a, &b);
            assert!(fast.as_slice().iter().all(|v| v.is_finite()), "width {n}");
            assert_eq!(
                bits(&fast),
                bits(&skip_loop(40, 80, n, |i, t| a.get(i, t), &b)),
                "width {n}"
            );
        }
        const { assert!(40 * 80 * 96 >= PAR_FLOP_THRESHOLD) }
    }

    #[test]
    fn matmul_tn_bit_identical_to_skip_loop() {
        // (k, m, n): the pooled blocks, a ragged one, the serial call
        // and the DGI head's 528×256ᵀ·528×1 (rows in lanes).
        for (k, m, n) in [(90, 70, 70), (100, 41, 33), (5, 6, 4), (528, 256, 1), (20, 13, 1)] {
            let b = Matrix::from_fn(k, n, |r, c| ((r + 11 * c) as f32 * 0.019).cos());
            for a in [zeroed_operand(k, m, n), dense_operand(k, m, n)] {
                let want = skip_loop(m, k, n, |i, t| a.get(t, i), &b);
                let mut dirty = Matrix::full(m, n, f32::NAN);
                matmul_tn_into(&a, &b, &mut dirty);
                assert_eq!(bits(&matmul_tn(&a, &b)), bits(&want), "({k},{m},{n})");
                assert_eq!(bits(&dirty), bits(&want), "({k},{m},{n}) into a dirty buffer");
            }
        }
        const { assert!(90 * 70 * 70 >= PAR_FLOP_THRESHOLD) }
    }

    #[test]
    fn matmul_nt_bit_identical_to_naive_dot() {
        // The oracle is the plain ascending dot per element, with no
        // zero skip. Shapes cover single rows, ragged lane tails, the
        // serial call and the pooled blocks; inputs carry exact zeros
        // and `-0.0`.
        for (m, k, n) in [(1, 192, 96), (3, 17, 31), (5, 1, 40), (4, 300, 250), (70, 80, 67)] {
            let a = zeroed_operand(m, k, 0);
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
            assert_eq!(bits(&matmul_nt(&a, &b)), bits(&seq), "({m},{k},{n})");
            let mut held = Matrix::full(m, n, f32::NAN);
            matmul_nt_packed_into(&a, &b.transpose(), &mut held);
            assert_eq!(bits(&held), bits(&seq), "({m},{k},{n}) with a caller-held Bᵀ");
        }
        const { assert!(70 * 80 * 67 >= PAR_FLOP_THRESHOLD) }
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
    fn csr_matches_per_row_reference_bitwise() {
        // Unordered triplets, three per cell, whose sum depends on the
        // order (`(1e8 - 1e8) + x` is `x`, `(x - 1e8) + 1e8` is not),
        // rows of more than 20 (past the sort's insertion-sort cutoff),
        // an empty row and an empty column, against the per-row `Vec`
        // build: push in input order, stable sort by column, sum
        // duplicates as they come.
        let (rows, cols) = (17, 29);
        let mut triplets = Vec::new();
        for v in [1.0e8, -1.0e8, 0.75] {
            for i in 0..rows * cols {
                let (r, c) = ((i * 7) % rows, (i * 11) % cols);
                if r != 4 && c != 9 {
                    triplets.push((r, c, v + (i as f32) * 1e-3));
                }
            }
        }
        let mut per_row: Vec<Vec<(usize, f32)>> = vec![Vec::new(); rows];
        for &(r, c, v) in &triplets {
            per_row[r].push((c, v));
        }
        let want: Vec<Vec<(usize, u32)>> = per_row
            .into_iter()
            .map(|mut row| {
                row.sort_by_key(|&(c, _)| c);
                let mut out: Vec<(usize, f32)> = Vec::new();
                for (c, v) in row {
                    match out.last_mut() {
                        Some((lc, lv)) if *lc == c => *lv += v,
                        _ => out.push((c, v)),
                    }
                }
                out.into_iter().map(|(c, v)| (c, v.to_bits())).collect()
            })
            .collect();
        let csr = CsrMatrix::from_triplets(rows, cols, &triplets);
        let got: Vec<Vec<(usize, u32)>> =
            (0..rows).map(|r| csr.row_iter(r).map(|(c, v)| (c, v.to_bits())).collect()).collect();
        assert_eq!(got, want);
        assert!(got[4].is_empty());
        assert_eq!(csr.nnz(), want.iter().map(Vec::len).sum::<usize>());
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
