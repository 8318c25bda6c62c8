//! SIMD ↔ scalar bit-parity battery.
//!
//! The default determinism tier claims the dispatched SIMD kernels are
//! **bit-identical** to the portable scalar loops: lanes only change how
//! many output elements one instruction touches, never the per-element
//! operation sequence. This file pins that claim over randomized shapes
//! (including degenerate `1 × N` / `N × 1` and non-lane-multiple
//! remainders), subnormal inputs, and NaN propagation, for all three
//! dense transpose variants, both sparse products and the tanh batch.
//!
//! The backend override is process-global, so everything runs inside a
//! single `#[test]` to keep the comparison race-free.

use mars_rng::rngs::StdRng;
use mars_rng::{Rng, SeedableRng};
use mars_tensor::kernel::{self, Backend};
use mars_tensor::ops::{matmul, matmul_nt, matmul_tn, CsrMatrix};
use mars_tensor::{simd, Matrix};

/// Random matrix whose entries include exact zeros (for the `== 0.0`
/// skip), subnormals, and ordinary values spanning many magnitudes.
fn spicy(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    for v in m.as_mut_slice() {
        *v = match rng.gen_range(0..8u32) {
            0 => 0.0,
            1 => -0.0,
            2 => 1.0e-41,  // subnormal
            3 => -7.3e-42, // subnormal
            4 => rng.gen::<f32>() * 1.0e20,
            5 => -rng.gen::<f32>() * 1.0e-12,
            _ => (rng.gen::<f32>() - 0.5) * 8.0,
        };
    }
    m
}

fn assert_bits_eq(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape mismatch");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: element {i} differs between backends ({x:e} vs {y:e})"
        );
    }
}

/// Run `f` once under the forced scalar backend and once under the
/// host's detected backend, returning both results.
fn under_both<T>(f: impl Fn() -> T) -> (T, T) {
    kernel::set_backend_override(Some(Backend::Scalar));
    let scalar = f();
    kernel::set_backend_override(None);
    let auto = f();
    (scalar, auto)
}

#[test]
fn simd_kernels_are_bit_identical_to_scalar() {
    if kernel::detected_simd().is_none() {
        eprintln!("no SIMD backend on this host; parity battery is trivially scalar-vs-scalar");
    }
    let mut rng = StdRng::seed_from_u64(0xD15B_A77C);

    // Shape battery: degenerate vectors, lane-multiple and remainder
    // sizes around the 8-lane / 32-strip boundaries, plus random odd
    // shapes.
    let mut shapes: Vec<(usize, usize, usize)> = vec![
        (1, 1, 1),
        (1, 7, 1),   // 1×N · N×1
        (9, 1, 33),  // N×1 outer-product path
        (1, 16, 40), // single row
        (5, 4, 8),
        (8, 8, 8),
        (3, 17, 31), // remainders everywhere
        (32, 33, 65),
        (6, 48, 96), // LSTM-gate-like panel
    ];
    for _ in 0..6 {
        shapes.push((
            rng.gen_range(1..40usize),
            rng.gen_range(1..40usize),
            rng.gen_range(1..70usize),
        ));
    }

    for &(m, k, n) in &shapes {
        let a = spicy(m, k, &mut rng);
        let b = spicy(k, n, &mut rng);
        let (s, v) = under_both(|| matmul(&a, &b));
        assert_bits_eq(&s, &v, &format!("matmul {m}x{k}·{k}x{n}"));

        let at = spicy(k, m, &mut rng);
        let (s, v) = under_both(|| matmul_tn(&at, &b));
        assert_bits_eq(&s, &v, &format!("matmul_tn {k}x{m}ᵀ·{k}x{n}"));

        let bn = spicy(n, k, &mut rng);
        let (s, v) = under_both(|| matmul_nt(&a, &bn));
        assert_bits_eq(&s, &v, &format!("matmul_nt {m}x{k}·{n}x{k}ᵀ"));
    }

    // A·Bᵀ at every output width 0..=33 — each tail class of the
    // 8-lane and 32-column strips, and the empty product — with one
    // all-zero coefficient row (every term skipped) and one of `-0.0`.
    for n in 0..=33usize {
        let mut a = spicy(3, 19, &mut rng);
        a.row_mut(1).fill(0.0);
        a.row_mut(2)[..9].fill(-0.0);
        let b = spicy(n, 19, &mut rng);
        let (s, v) = under_both(|| matmul_nt(&a, &b));
        assert_bits_eq(&s, &v, &format!("matmul_nt width {n}"));
        assert!(s.row(1).iter().all(|x| x.to_bits() == 0), "zero row must stay +0.0");
    }

    // Sparse products over random patterns (rows, cols, feature width,
    // non-zeros drawn per row): widths on either side of the lanes, the
    // empty and the single-node matrix, and one product whose
    // nnz · width (≥ 300·12·96 > 64³) takes the pooled row sweep.
    let mut sparse_cases = [19, 1, 7, 8, 9, 33].map(|feat| (23, 17, feat, 0..4usize)).to_vec();
    sparse_cases.extend([(0, 0, 6, 0..4), (1, 1, 6, 1..2), (300, 300, 96, 14..18)]);
    for (rows, cols, feat, per_row) in sparse_cases {
        let mut trips = Vec::new();
        for r in 0..rows {
            for _ in 0..rng.gen_range(per_row.clone()) {
                trips.push((r, rng.gen_range(0..cols), (rng.gen::<f32>() - 0.5) * 3.0));
            }
        }
        let sp = CsrMatrix::from_triplets(rows, cols, &trips);
        let x = spicy(cols, feat, &mut rng);
        let (s, v) = under_both(|| sp.spmm(&x));
        assert_bits_eq(&s, &v, &format!("spmm {rows}x{cols} width {feat}"));
        let y = spicy(rows, feat, &mut rng);
        let (s, v) = under_both(|| sp.spmm_t(&y));
        assert_bits_eq(&s, &v, &format!("spmm_t {rows}x{cols} width {feat}"));
    }

    // tanh batch kernel, remainder lengths + special values.
    for n in [1usize, 5, 8, 13, 31, 64, 100] {
        let mut base: Vec<f32> = (0..n).map(|i| (i as f32 * 0.7).sin() * 9.0).collect();
        if n > 2 {
            base[0] = f32::NAN;
            base[1] = 1e-41;
            base[2] = -0.0;
        }
        let (s, v) = under_both(|| {
            let mut xs = base.clone();
            simd::tanh_inplace(&mut xs);
            xs
        });
        for (i, (x, y)) in s.iter().zip(&v).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "tanh n={n} i={i}");
        }
    }

    // NaN propagation: a NaN in the contraction poisons exactly the
    // outputs it reaches, identically on both backends.
    let mut a = Matrix::zeros(3, 5);
    a.set(1, 2, f32::NAN);
    a.set(1, 3, 1.0);
    let b = spicy(5, 11, &mut rng);
    let (s, v) = under_both(|| matmul(&a, &b));
    assert!(s.row(1).iter().all(|x| x.is_nan()), "NaN row must be fully poisoned");
    assert_bits_eq(&s, &v, "matmul NaN propagation");
    assert!(s.row(0).iter().all(|x| !x.is_nan()), "NaN must not leak across rows");
}
