//! SIMD ↔ scalar bit-parity battery.
//!
//! The default determinism tier claims the dispatched SIMD kernels are
//! **bit-identical** to the portable scalar loops: lanes only change how
//! many output elements one instruction touches, never the per-element
//! operation sequence. This file pins that claim over randomized shapes
//! (including degenerate `1 × N` / `N × 1` and non-lane-multiple
//! remainders), subnormal inputs, and NaN propagation, for the dense
//! product kernel and its three transpose variants, both sparse
//! products and the tanh batch. Every backend the host can run takes
//! part — scalar, AVX2 and AVX-512 on an AVX-512 host — and each must
//! match the scalar one, so all match pairwise.
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

/// [`spicy`] through `tanh`: the same zeros, signed zeros and
/// subnormals, every other entry inside `(-1, 1)` — activation-like
/// values whose products and short sums cannot overflow into a second
/// NaN.
fn bounded(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    let mut m = spicy(rows, cols, rng);
    simd::tanh_inplace(m.as_mut_slice());
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

/// Every backend the running host can run, scalar first.
fn usable_backends() -> Vec<Backend> {
    [Backend::Scalar, Backend::Avx2, Backend::Avx512, Backend::Neon]
        .into_iter()
        .filter(|&b| kernel::usable(b))
        .collect()
}

/// Run `f` under each usable backend: every SIMD backend's result must
/// equal the scalar one bit for bit. Returns the scalar result.
fn all_equal(what: &str, f: impl Fn() -> Matrix) -> Matrix {
    kernel::set_backend_override(Some(Backend::Scalar));
    let scalar = f();
    for b in usable_backends().into_iter().skip(1) {
        kernel::set_backend_override(Some(b));
        assert_bits_eq(&scalar, &f(), &format!("{what} (scalar vs {})", b.name()));
    }
    kernel::set_backend_override(None);
    scalar
}

#[test]
fn simd_kernels_are_bit_identical_to_scalar() {
    let backends: Vec<&str> = usable_backends().iter().map(|b| b.name()).collect();
    eprintln!("backends compared: {}", backends.join(", "));
    if backends.len() == 1 {
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
        all_equal(&format!("matmul {m}x{k}·{k}x{n}"), || matmul(&a, &b));

        let at = spicy(k, m, &mut rng);
        all_equal(&format!("matmul_tn {k}x{m}ᵀ·{k}x{n}"), || matmul_tn(&at, &b));

        let bn = spicy(n, k, &mut rng);
        all_equal(&format!("matmul_nt {m}x{k}·{n}x{k}ᵀ"), || matmul_nt(&a, &bn));
    }

    // A·Bᵀ at every output width 0..=33 — each tail class of the
    // 8-lane and 32-column strips, and the empty product — with one
    // all-zero coefficient row (every term skipped) and one of `-0.0`.
    for n in 0..=33usize {
        let mut a = spicy(3, 19, &mut rng);
        a.row_mut(1).fill(0.0);
        a.row_mut(2)[..9].fill(-0.0);
        let b = spicy(n, 19, &mut rng);
        let s = all_equal(&format!("matmul_nt width {n}"), || matmul_nt(&a, &b));
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
        all_equal(&format!("spmm {rows}x{cols} width {feat}"), || sp.spmm(&x));
        let y = spicy(rows, feat, &mut rng);
        all_equal(&format!("spmm_t {rows}x{cols} width {feat}"), || sp.spmm_t(&y));
    }

    // tanh batch kernel, remainder lengths + special values.
    for n in [1usize, 5, 8, 13, 31, 64, 100] {
        let mut base: Vec<f32> = (0..n).map(|i| (i as f32 * 0.7).sin() * 9.0).collect();
        if n > 2 {
            base[0] = f32::NAN;
            base[1] = 1e-41;
            base[2] = -0.0;
        }
        all_equal(&format!("tanh n={n}"), || {
            let mut xs = Matrix::from_vec(1, n, base.clone());
            simd::tanh_inplace(xs.as_mut_slice());
            xs
        });
    }

    // The product kernel against the loop it stands for, on every
    // backend: both coefficient layouts, rows 1–9 around the 4-row
    // tile and the 8-row lanes, widths around the 8/16/32-column ymm
    // and 16/64-column zmm strips, a `b` stride wider than the slot,
    // and term counts on either side of the 8 × 8 transpose. With zeros, row 0's
    // coefficients are all zero and its slot `-0.0`, which only the
    // skip leaves as is, and even rows skip terms 0 and 1, where `b`
    // holds `+∞` and a NaN (one of each per element: with two NaNs
    // meeting in one sum, which payload survives is the compiler's
    // choice). With 13 terms, rows 2 and 4 then hold a NaN coefficient,
    // at term 2 (inside the first 8 × 8 transpose) and at term 12 (past
    // it): `==` against zero is false for NaN, so the lanes must add it
    // as the loop's `!=` does. Without zeros, every tile runs the
    // kernel's no-skip loop. The other slots hold values.
    for rows in 1..=9usize {
        for cols in [1usize, 7, 8, 15, 16, 17, 24, 25, 32, 33, 63, 64, 65, 80, 88, 89, 129, 256] {
            for terms in [1usize, 13, 40] {
                for (term_major, zeros) in
                    [(false, true), (true, true), (false, false), (true, false)]
                {
                    let ldb = cols + 3;
                    let (rs, ts) = if term_major { (1, rows) } else { (terms, 1) };
                    let mut a = spicy(rows, terms, &mut rng).as_slice().to_vec();
                    for t in 0..terms {
                        if !zeros {
                            for r in 0..rows {
                                if a[r * rs + t * ts] == 0.0 {
                                    a[r * rs + t * ts] = 0.5;
                                }
                            }
                            continue;
                        }
                        a[t * ts] = if t % 2 == 0 { 0.0 } else { -0.0 };
                        for r in (2..rows).step_by(2) {
                            if t < 2 {
                                a[r * rs + t * ts] = 0.0;
                            }
                        }
                    }
                    if zeros && terms > 2 {
                        for (r, t) in [(2, 2), (4, terms - 1)].into_iter().filter(|p| p.0 < rows) {
                            a[r * rs + t * ts] = f32::NAN;
                        }
                    }
                    let mut b = bounded(terms, ldb, &mut rng);
                    b.set(0, cols - 1, f32::INFINITY);
                    b.set(1 % terms, 0, f32::NAN);
                    let mut seed = spicy(rows, cols, &mut rng);
                    seed.row_mut(0).fill(-0.0);
                    let mut want = seed.clone();
                    for r in 0..rows {
                        for c in 0..cols {
                            let mut e = want.get(r, c);
                            for t in 0..terms {
                                let x = a[r * rs + t * ts];
                                if x != 0.0 {
                                    e += x * b.get(t, c);
                                }
                            }
                            want.set(r, c, e);
                        }
                    }
                    let what = format!(
                        "product {rows}x{cols}, {terms} terms, term-major {term_major}, zeros {zeros}"
                    );
                    let s = all_equal(&what, || {
                        let mut out = seed.clone();
                        let coeffs = if term_major {
                            simd::Coeffs::cols(&a, rows, terms)
                        } else {
                            simd::Coeffs::rows(&a, terms)
                        };
                        simd::product(out.as_mut_slice(), cols, coeffs, b.as_slice(), ldb);
                        out
                    });
                    assert_bits_eq(&s, &want, &format!("{what} (scalar vs loop)"));
                    if zeros {
                        let neg_zero = (-0.0f32).to_bits();
                        assert!(s.row(0).iter().all(|x| x.to_bits() == neg_zero), "{what}");
                    }
                }
            }
        }
    }

    // The DGI head's two single-column products at the paper's width:
    // scores `H · w` (528×256·256×1) and their weight gradient `Hᵀ · g`
    // (528×256ᵀ·528×1), against the loop on every backend.
    let h = bounded(528, 256, &mut rng);
    let w = bounded(256, 1, &mut rng);
    let g = bounded(528, 1, &mut rng);
    let loop_nn = Matrix::from_fn(528, 1, |i, _| {
        (0..256).filter(|&t| h.get(i, t) != 0.0).fold(0.0f32, |e, t| e + h.get(i, t) * w.get(t, 0))
    });
    let loop_tn = Matrix::from_fn(256, 1, |i, _| {
        (0..528).filter(|&t| h.get(t, i) != 0.0).fold(0.0f32, |e, t| e + h.get(t, i) * g.get(t, 0))
    });
    for (what, want, f) in [
        ("matmul 528x256·256x1", &loop_nn, &(|| matmul(&h, &w)) as &dyn Fn() -> Matrix),
        ("matmul_tn 528x256ᵀ·528x1", &loop_tn, &|| matmul_tn(&h, &g)),
    ] {
        assert_bits_eq(&all_equal(what, f), want, &format!("{what} (scalar vs loop)"));
    }

    // Attention scores and their reverse, rows and widths on either
    // side of the 8-row block and the 32-column strips, with zero and
    // NaN activations and a zero score gradient — against each other
    // and against the `if u != 0.0` skip loops the kernels' `+0.0`
    // selects replace.
    for &(rows, ad) in &[(1, 1), (8, 8), (9, 3), (17, 32), (32, 32), (33, 41), (32, 64), (5, 0)] {
        let mut act = bounded(rows, ad, &mut rng);
        let v = bounded(ad, 1, &mut rng);
        let mut gs = bounded(1, rows, &mut rng);
        if ad > 0 {
            act.set(rows - 1, ad - 1, f32::NAN);
        }
        gs.set(0, 0, 0.0);
        let s = all_equal(&format!("attn_scores {rows}x{ad}"), || {
            let mut out = Matrix::full(1, rows, 7.0);
            simd::attn_scores(out.as_mut_slice(), act.as_slice(), v.as_slice());
            out
        });
        let want = Matrix::from_fn(1, rows, |_, j| {
            let mut s = 0.0f32;
            for a in 0..ad {
                let u = act.get(j, a);
                if u != 0.0 {
                    s += u * v.get(a, 0);
                }
            }
            s
        });
        assert_bits_eq(&s, &want, &format!("attn_scores {rows}x{ad} (scalar vs skip loop)"));
        let seed = spicy(rows, ad, &mut rng);
        for mode in 0..3 {
            let (mut gd, mut gv, mut gp) =
                (Matrix::zeros(1, ad), Matrix::zeros(1, ad), seed.clone());
            for j in 0..rows {
                let gj = gs.get(0, j);
                for a in 0..ad {
                    let u = act.get(j, a);
                    let dpre = gj * v.get(a, 0) * (1.0 - u * u);
                    match mode {
                        0 => {}
                        1 => gp.set(j, a, dpre),
                        _ => gp.set(j, a, gp.get(j, a) + dpre),
                    }
                    gd.set(0, a, gd.get(0, a) + dpre);
                    if u != 0.0 {
                        gv.set(0, a, gv.get(0, a) + u * gj);
                    }
                }
            }
            let all = [gd.as_slice(), gv.as_slice(), gp.as_slice()].concat();
            let want = Matrix::from_vec(1, all.len(), all);
            let what = format!("attn_score_grads {rows}x{ad} mode {mode}");
            let s = all_equal(&what, || {
                let (mut gd, mut gv, mut gp) =
                    (Matrix::full(1, ad, 3.0), Matrix::zeros(1, ad), seed.clone());
                let sink = match mode {
                    0 => simd::ProjGrad::Skip,
                    1 => simd::ProjGrad::Assign(gp.as_mut_slice()),
                    _ => simd::ProjGrad::Add(gp.as_mut_slice()),
                };
                let (act, gs, v) = (act.as_slice(), gs.as_slice(), v.as_slice());
                simd::attn_score_grads(act, gs, v, gd.as_mut_slice(), gv.as_mut_slice(), sink);
                let all = [gd.as_slice(), gv.as_slice(), gp.as_slice()].concat();
                Matrix::from_vec(1, all.len(), all)
            });
            assert_bits_eq(&s, &want, &format!("{what} (scalar vs skip loop)"));
        }
    }

    // NaN propagation: a NaN in the contraction poisons exactly the
    // outputs it reaches, identically on every backend.
    let mut a = Matrix::zeros(3, 5);
    a.set(1, 2, f32::NAN);
    a.set(1, 3, 1.0);
    let b = spicy(5, 11, &mut rng);
    let s = all_equal("matmul NaN propagation", || matmul(&a, &b));
    assert!(s.row(1).iter().all(|x| x.is_nan()), "NaN row must be fully poisoned");
    assert!(s.row(0).iter().all(|x| !x.is_nan()), "NaN must not leak across rows");
}
