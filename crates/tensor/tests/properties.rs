//! Property-based tests of the tensor kernels, on the in-repo seeded
//! harness (`mars_rng::props!`).

use mars_rng::rngs::StdRng;
use mars_rng::{props, Rng};
use mars_tensor::ops::{matmul, matmul_nt, matmul_tn, CsrMatrix};
use mars_tensor::stats::{entropy, logsumexp, softmax_rows};
use mars_tensor::Matrix;

fn arb_matrix(rng: &mut StdRng, max_dim: usize) -> Matrix {
    let r = rng.gen_range(1..=max_dim);
    let c = rng.gen_range(1..=max_dim);
    let data = (0..r * c).map(|_| rng.gen_range(-10.0f32..10.0)).collect();
    Matrix::from_vec(r, c, data)
}

fn arb_matmul_pair(rng: &mut StdRng, max_dim: usize) -> (Matrix, Matrix) {
    let m = rng.gen_range(1..=max_dim);
    let k = rng.gen_range(1..=max_dim);
    let n = rng.gen_range(1..=max_dim);
    let a = Matrix::from_vec(m, k, (0..m * k).map(|_| rng.gen_range(-5.0f32..5.0)).collect());
    let b = Matrix::from_vec(k, n, (0..k * n).map(|_| rng.gen_range(-5.0f32..5.0)).collect());
    (a, b)
}

props! {
    fn transpose_is_involutive(rng, 128) {
        let m = arb_matrix(rng, 12);
        assert_eq!(m.transpose().transpose(), m);
    }

    fn matmul_distributes_over_addition(rng, 128) {
        // A·(B + sB) == A·B + s(A·B) up to f32 error.
        let (a, b) = arb_matmul_pair(rng, 8);
        let scale = rng.gen_range(-2.0f32..2.0);
        let b2 = b.scale(scale);
        let lhs = matmul(&a, &b.add(&b2));
        let ab = matmul(&a, &b);
        let rhs = ab.add(&matmul(&a, &b2));
        assert!(lhs.max_abs_diff(&rhs) < 1e-2);
    }

    fn transpose_variants_consistent(rng, 128) {
        let (a, b) = arb_matmul_pair(rng, 8);
        let c = matmul(&a, &b);
        assert!(c.max_abs_diff(&matmul_tn(&a.transpose(), &b)) < 1e-3);
        assert!(c.max_abs_diff(&matmul_nt(&a, &b.transpose())) < 1e-3);
    }

    fn matmul_transpose_identity(rng, 128) {
        // (A·B)ᵀ == Bᵀ·Aᵀ
        let (a, b) = arb_matmul_pair(rng, 8);
        let lhs = matmul(&a, &b).transpose();
        let rhs = matmul(&b.transpose(), &a.transpose());
        assert!(lhs.max_abs_diff(&rhs) < 1e-3);
    }

    fn softmax_rows_are_distributions(rng, 128) {
        let m = arb_matrix(rng, 10);
        let p = softmax_rows(&m);
        for r in 0..p.rows() {
            let sum: f32 = p.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-4);
            assert!(p.row(r).iter().all(|&x| (0.0..=1.0).contains(&x)));
            // Entropy bounded by ln(n).
            let e = entropy(p.row(r));
            assert!(e <= (p.cols() as f32).ln() + 1e-4);
        }
    }

    fn logsumexp_bounds(rng, 128) {
        let len = rng.gen_range(1..20usize);
        let v: Vec<f32> = (0..len).map(|_| rng.gen_range(-50.0f32..50.0)).collect();
        let lse = logsumexp(&v);
        let max = v.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        assert!(lse >= max - 1e-5);
        assert!(lse <= max + (v.len() as f32).ln() + 1e-4);
    }

    fn csr_spmm_matches_dense(rng, 128) {
        let rows = rng.gen_range(1..10usize);
        let cols = rng.gen_range(1..10usize);
        let n_entries = rng.gen_range(0..30usize);
        let triplets: Vec<(usize, usize, f32)> = (0..n_entries)
            .map(|_| {
                (
                    rng.gen_range(0..10usize) % rows,
                    rng.gen_range(0..10usize) % cols,
                    rng.gen_range(-5.0f32..5.0),
                )
            })
            .collect();
        let xcols = rng.gen_range(1..6usize);
        let sp = CsrMatrix::from_triplets(rows, cols, &triplets);
        let x = Matrix::from_fn(cols, xcols, |r, c| ((r * 7 + c * 3) as f32 * 0.1).sin());
        let dense = sp.to_dense();
        assert!(sp.spmm(&x).max_abs_diff(&matmul(&dense, &x)) < 1e-3);
        let y = Matrix::from_fn(rows, xcols, |r, c| ((r + c) as f32 * 0.2).cos());
        assert!(sp.spmm_t(&y).max_abs_diff(&matmul(&dense.transpose(), &y)) < 1e-3);
    }

    fn gather_rows_preserves_content(rng, 128) {
        use mars_rng::seq::SliceRandom;
        let m = arb_matrix(rng, 10);
        let mut perm: Vec<usize> = (0..m.rows()).collect();
        perm.shuffle(rng);
        let g = m.gather_rows(&perm);
        for (new_r, &old_r) in perm.iter().enumerate() {
            assert_eq!(g.row(new_r), m.row(old_r));
        }
    }

    fn hcat_vcat_shapes(rng, 128) {
        let m = arb_matrix(rng, 8);
        let h = m.hcat(&m);
        assert_eq!(h.shape(), (m.rows(), m.cols() * 2));
        let v = m.vcat(&m);
        assert_eq!(v.shape(), (m.rows() * 2, m.cols()));
        assert_eq!(v.slice_rows(0, m.rows()), m.clone());
        assert_eq!(v.slice_rows(m.rows(), 2 * m.rows()), m);
    }

    fn frobenius_triangle_inequality(rng, 128) {
        let a = arb_matrix(rng, 6);
        let b = a.scale(-0.5);
        let sum = a.add(&b);
        assert!(sum.frobenius_norm() <= a.frobenius_norm() + b.frobenius_norm() + 1e-4);
    }
}
