//! Row-major dense `f32` matrix.
//!
//! [`Matrix`] is the single value type threaded through the whole Mars
//! stack: node-feature tables, LSTM hidden states, policy logits and
//! gradients are all matrices. Vectors are represented as `1 × n` or
//! `n × 1` matrices so that every kernel has one code path.

use std::fmt;

/// A dense, row-major `f32` matrix.
///
/// Shape errors are programming errors in this codebase, so all shape
/// mismatches panic (with the offending dimensions in the message)
/// rather than returning `Result`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Create a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Create a matrix filled with a constant.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Matrix { rows, cols, data: vec![value; rows * cols] }
    }

    /// Create a matrix from a row-major data vector.
    ///
    /// # Panics
    /// If `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: data length {} != {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Create a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Identity matrix of size `n × n`.
    pub fn eye(n: usize) -> Self {
        Self::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 })
    }

    /// A `1 × n` row vector.
    pub fn row_vector(values: &[f32]) -> Self {
        Matrix { rows: 1, cols: values.len(), data: values.to_vec() }
    }

    /// A `n × 1` column vector.
    pub fn col_vector(values: &[f32]) -> Self {
        Matrix { rows: values.len(), cols: 1, data: values.to_vec() }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the matrix and return its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of {:?}", self.shape());
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of {:?}", self.shape());
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterator over row slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        self.transpose_into(&mut out);
        out
    }

    /// [`Self::transpose`] written into a caller-provided `cols × rows`
    /// matrix. Source rows go out sixteen at a time, so a destination
    /// cache line is filled while it is resident; one source row at a
    /// time revisits every line once per row, and a power-of-two row
    /// stride evicts it in between.
    pub fn transpose_into(&self, out: &mut Matrix) {
        assert_eq!(out.shape(), (self.cols, self.rows), "transpose_into: out shape mismatch");
        for r0 in (0..self.rows).step_by(16) {
            let r1 = (r0 + 16).min(self.rows);
            for c in 0..self.cols {
                for r in r0..r1 {
                    out.data[c * self.rows + r] = self.data[r * self.cols + c];
                }
            }
        }
    }

    /// Apply `f` elementwise, producing a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Apply `f` elementwise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Elementwise combination of two equally-shaped matrices.
    pub fn zip_map(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "zip_map shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)).collect(),
        }
    }

    /// Elementwise sum.
    pub fn add(&self, other: &Matrix) -> Matrix {
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        self.zip_map(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        self.zip_map(other, |a, b| a * b)
    }

    /// Multiply every element by a scalar.
    pub fn scale(&self, s: f32) -> Matrix {
        self.map(|x| x * s)
    }

    /// `self += other` in place.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// `self += s * other` in place (axpy).
    pub fn axpy(&mut self, s: f32, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += s * b;
        }
    }

    /// Fill with zeros in place.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// `1 × cols` vector of column sums.
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c] += self.get(r, c);
            }
        }
        out
    }

    /// `1 × cols` vector of column means.
    pub fn mean_rows(&self) -> Matrix {
        if self.rows == 0 {
            return Matrix::zeros(1, self.cols);
        }
        self.sum_rows().scale(1.0 / self.rows as f32)
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Horizontal concatenation `[self | other]`.
    pub fn hcat(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "hcat row mismatch");
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(other.row(r));
        }
        out
    }

    /// Vertical concatenation (self stacked on top of other).
    pub fn vcat(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "vcat col mismatch");
        let mut data = Vec::with_capacity(self.data.len() + other.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Matrix { rows: self.rows + other.rows, cols: self.cols, data }
    }

    /// Copy of rows `[start, end)`.
    pub fn slice_rows(&self, start: usize, end: usize) -> Matrix {
        assert!(
            start <= end && end <= self.rows,
            "slice_rows [{start},{end}) out of {} rows",
            self.rows
        );
        Matrix {
            rows: end - start,
            cols: self.cols,
            data: self.data[start * self.cols..end * self.cols].to_vec(),
        }
    }

    /// Gather the given rows into a new matrix (used for permutations and
    /// embedding lookups).
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (i, &idx) in indices.iter().enumerate() {
            assert!(idx < self.rows, "gather_rows: index {idx} out of {} rows", self.rows);
            out.row_mut(i).copy_from_slice(self.row(idx));
        }
        out
    }

    /// True if every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Maximum absolute difference with another matrix of the same shape.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!(self.shape(), other.shape());
        self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max)
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show = self.rows.min(6);
        for r in 0..show {
            let cols = self.cols.min(8);
            let row: Vec<String> = self.row(r)[..cols].iter().map(|x| format!("{x:+.4}")).collect();
            writeln!(f, "  [{}{}]", row.join(", "), if self.cols > 8 { ", ..." } else { "" })?;
        }
        if self.rows > show {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.get(0, 2), 3.0);
        assert_eq!(m.get(1, 0), 4.0);
        assert_eq!(m.row(1), &[4., 5., 6.]);
        assert_eq!(m.get(1, 2), 6.0);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f32);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().get(4, 2), m.get(2, 4));
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let b = Matrix::from_vec(2, 2, vec![10., 20., 30., 40.]);
        assert_eq!(a.add(&b).as_slice(), &[11., 22., 33., 44.]);
        assert_eq!(b.sub(&a).as_slice(), &[9., 18., 27., 36.]);
        assert_eq!(a.hadamard(&b).as_slice(), &[10., 40., 90., 160.]);
        assert_eq!(a.scale(2.0).as_slice(), &[2., 4., 6., 8.]);
    }

    #[test]
    fn reductions() {
        let m = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        assert_eq!(m.sum(), 10.0);
        assert_eq!(m.mean(), 2.5);
        assert_eq!(m.sum_rows().as_slice(), &[4., 6.]);
        assert_eq!(m.mean_rows().as_slice(), &[2., 3.]);
        assert!((m.frobenius_norm() - 30f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn concat_and_slice() {
        let a = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let b = Matrix::from_vec(2, 1, vec![9., 8.]);
        let h = a.hcat(&b);
        assert_eq!(h.shape(), (2, 3));
        assert_eq!(h.row(0), &[1., 2., 9.]);
        let v = a.vcat(&a);
        assert_eq!(v.shape(), (4, 2));
        assert_eq!(v.slice_rows(2, 4), a);
    }

    #[test]
    fn gather_rows_permutation() {
        let m = Matrix::from_fn(4, 2, |r, _| r as f32);
        let g = m.gather_rows(&[3, 1, 0, 2]);
        assert_eq!(g.as_slice(), &[3., 3., 1., 1., 0., 0., 2., 2.]);
    }

    #[test]
    #[should_panic(expected = "from_vec")]
    fn bad_shape_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Matrix::full(2, 2, 1.0);
        let b = Matrix::full(2, 2, 3.0);
        a.axpy(2.0, &b);
        assert_eq!(a.as_slice(), &[7., 7., 7., 7.]);
    }

    #[test]
    fn eye_identity() {
        let i = Matrix::eye(3);
        assert_eq!(i.get(0, 0), 1.0);
        assert_eq!(i.get(0, 1), 0.0);
        assert_eq!(i.sum(), 3.0);
    }
}
