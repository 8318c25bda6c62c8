//! Correctness of the fused LSTM sequence op: value and gradient
//! equivalence with the op-composed reference implementation, plus
//! finite-difference checks on every input.

use mars_autograd::check::check_gradients_default;
use mars_autograd::{Tape, Var};
use mars_rng::rngs::StdRng;
use mars_rng::SeedableRng;
use mars_tensor::{init, Matrix};

/// Composed reference: one step of the same LSTM from primitive ops.
#[allow(clippy::too_many_arguments)]
fn composed_step(
    t: &mut Tape,
    x_t: Var,
    w_ih: Var,
    w_hh: Var,
    b: Var,
    h: Var,
    c: Var,
    hd: usize,
) -> (Var, Var) {
    let slice_cols = |t: &mut Tape, m: Var, a: usize, bb: usize| {
        let mt = t.transpose(m);
        let s = t.slice_rows(mt, a, bb);
        t.transpose(s)
    };
    let xi = t.matmul(x_t, w_ih);
    let hh = t.matmul(h, w_hh);
    let z0 = t.add(xi, hh);
    let z = t.add_bias(z0, b);
    let i_pre = slice_cols(t, z, 0, hd);
    let f_pre = slice_cols(t, z, hd, 2 * hd);
    let g_pre = slice_cols(t, z, 2 * hd, 3 * hd);
    let o_pre = slice_cols(t, z, 3 * hd, 4 * hd);
    let i = t.sigmoid(i_pre);
    let f = t.sigmoid(f_pre);
    let g = t.tanh(g_pre);
    let o = t.sigmoid(o_pre);
    let fc = t.mul(f, c);
    let ig = t.mul(i, g);
    let c2 = t.add(fc, ig);
    let ct = t.tanh(c2);
    let h2 = t.mul(o, ct);
    (h2, c2)
}

fn inputs(t_len: usize, in_dim: usize, hd: usize, seed: u64) -> Vec<Matrix> {
    let mut rng = StdRng::seed_from_u64(seed);
    vec![
        init::uniform(t_len, in_dim, 0.8, &mut rng),
        init::uniform(in_dim, 4 * hd, 0.5, &mut rng),
        init::uniform(hd, 4 * hd, 0.5, &mut rng),
        init::uniform(1, 4 * hd, 0.3, &mut rng),
        init::uniform(1, hd, 0.5, &mut rng),
        init::uniform(1, hd, 0.5, &mut rng),
    ]
}

#[test]
fn fused_values_match_composed() {
    let (t_len, in_dim, hd) = (5usize, 3usize, 4usize);
    let ins = inputs(t_len, in_dim, hd, 1);

    let mut tape = Tape::new();
    let vars: Vec<Var> = ins.iter().map(|m| tape.constant(m.clone())).collect();
    let fused = tape.lstm_seq(vars[0], vars[1], vars[2], vars[3], vars[4], vars[5]);
    let fused_val = tape.value(fused).clone();
    assert_eq!(fused_val.shape(), (t_len + 1, hd));

    // Composed rollout.
    let mut h = vars[4];
    let mut c = vars[5];
    let mut h_rows = Vec::new();
    for t in 0..t_len {
        let x_t = tape.slice_rows(vars[0], t, t + 1);
        let (h2, c2) = composed_step(&mut tape, x_t, vars[1], vars[2], vars[3], h, c, hd);
        h = h2;
        c = c2;
        h_rows.push(h2);
    }
    let composed_h = tape.stack_rows(h_rows);
    let composed_val = tape.value(composed_h).clone();
    let final_c = tape.value(c).clone();

    assert!(fused_val.slice_rows(0, t_len).max_abs_diff(&composed_val) < 1e-5);
    assert!(
        Matrix::row_vector(fused_val.row(t_len)).max_abs_diff(&final_c) < 1e-5,
        "final cell row mismatch"
    );
}

#[test]
fn fused_gradients_match_composed() {
    let (t_len, in_dim, hd) = (4usize, 3usize, 3usize);
    let ins = inputs(t_len, in_dim, hd, 2);

    // Loss through the fused op (hidden rows only).
    let fused_grads = {
        let mut tape = Tape::new();
        let vars: Vec<Var> = ins.iter().map(|m| tape.leaf(m.clone(), true)).collect();
        let out = tape.lstm_seq(vars[0], vars[1], vars[2], vars[3], vars[4], vars[5]);
        let h_rows = tape.slice_rows(out, 0, t_len);
        let act = tape.tanh(h_rows);
        let loss = tape.mean_all(act);
        tape.backward(loss);
        vars.iter().map(|&v| tape.grad(v).expect("grad").clone()).collect::<Vec<_>>()
    };

    // Same loss through the composed rollout.
    let composed_grads = {
        let mut tape = Tape::new();
        let vars: Vec<Var> = ins.iter().map(|m| tape.leaf(m.clone(), true)).collect();
        let mut h = vars[4];
        let mut c = vars[5];
        let mut h_rows = Vec::new();
        for t in 0..t_len {
            let x_t = tape.slice_rows(vars[0], t, t + 1);
            let (h2, c2) = composed_step(&mut tape, x_t, vars[1], vars[2], vars[3], h, c, hd);
            h = h2;
            c = c2;
            h_rows.push(h2);
        }
        let all = tape.stack_rows(h_rows);
        let act = tape.tanh(all);
        let loss = tape.mean_all(act);
        tape.backward(loss);
        vars.iter().map(|&v| tape.grad(v).expect("grad").clone()).collect::<Vec<_>>()
    };

    for (idx, (f, cgrad)) in fused_grads.iter().zip(&composed_grads).enumerate() {
        assert!(
            f.max_abs_diff(cgrad) < 1e-4,
            "gradient {idx} mismatch: fused {f:?} vs composed {cgrad:?}"
        );
    }
}

#[test]
fn fused_gradcheck_finite_differences() {
    let (t_len, in_dim, hd) = (3usize, 2usize, 2usize);
    let ins = inputs(t_len, in_dim, hd, 3);
    check_gradients_default(&ins, move |t, v| {
        let out = t.lstm_seq(v[0], v[1], v[2], v[3], v[4], v[5]);
        let h_rows = t.slice_rows(out, 0, t_len);
        let act = t.tanh(h_rows);
        t.mean_all(act)
    });
}

#[test]
fn fused_gradcheck_through_final_cell_state() {
    // Gradient must also flow through the extra c_T row (segment carry).
    let (t_len, in_dim, hd) = (3usize, 2usize, 2usize);
    let ins = inputs(t_len, in_dim, hd, 4);
    check_gradients_default(&ins, move |t, v| {
        let out = t.lstm_seq(v[0], v[1], v[2], v[3], v[4], v[5]);
        let c_final = t.slice_rows(out, t_len, t_len + 1);
        let act = t.tanh(c_final);
        t.mean_all(act)
    });
}

#[test]
fn fused_state_carry_equals_one_shot() {
    // Running [0..4) must equal [0..2) then [2..4) carried.
    let (t_len, in_dim, hd) = (4usize, 3usize, 3usize);
    let ins = inputs(t_len, in_dim, hd, 5);
    let mut tape = Tape::new();
    let vars: Vec<Var> = ins.iter().map(|m| tape.constant(m.clone())).collect();
    let full = tape.lstm_seq(vars[0], vars[1], vars[2], vars[3], vars[4], vars[5]);
    let full_val = tape.value(full).clone();

    let x1 = tape.slice_rows(vars[0], 0, 2);
    let seg1 = tape.lstm_seq(x1, vars[1], vars[2], vars[3], vars[4], vars[5]);
    let h_mid = tape.slice_rows(seg1, 1, 2); // h at t=1
    let c_mid = tape.slice_rows(seg1, 2, 3); // final cell row
    let x2 = tape.slice_rows(vars[0], 2, 4);
    let seg2 = tape.lstm_seq(x2, vars[1], vars[2], vars[3], h_mid, c_mid);

    let seg1_h = tape.value(seg1).slice_rows(0, 2);
    let seg2_h = tape.value(seg2).slice_rows(0, 2);
    let stitched = seg1_h.vcat(&seg2_h);
    assert!(full_val.slice_rows(0, t_len).max_abs_diff(&stitched) < 1e-5);
}

// ---------------------------------------------------------------------
// Bitwise pins of the backward rule. The oracle below is the per-step
// rule as it stood before `dz·Wᵀ` moved onto the SIMD sweep and the
// one-step weight gradients moved into their slots: plain ascending
// dots with no zero skip, weight gradients summed into fresh zeros.
// It recomputes the forward itself, so it needs no access to the tape.
// ---------------------------------------------------------------------

/// `[gx, gw_ih, gw_hh, gb, gh0, gc0]` by the old rule, for upstream
/// gradient `g` (`(T+1) × H`) on the op's output; `ins` as [`inputs`].
fn old_rule(ins: &[Matrix], g: &Matrix) -> Vec<Matrix> {
    use mars_tensor::ops::matmul;
    use mars_tensor::{simd, stats};
    let [x, w_ih, w_hh, b, h0, c0] = ins else { panic!("six inputs") };
    let (t_len, in_dim) = x.shape();
    let hd = h0.cols();

    // Forward, association for association as `Tape::lstm_seq`.
    let xw = matmul(x, w_ih);
    let mut gates = vec![Matrix::zeros(t_len, hd); 6]; // i f g o c tanh_c
    let mut hs = Matrix::zeros(t_len, hd);
    let (mut h_prev, mut c_prev) = (h0.clone(), c0.clone());
    for t in 0..t_len {
        let hw = matmul(&h_prev, w_hh);
        let z: Vec<f32> =
            (0..4 * hd).map(|j| (xw.get(t, j) + hw.get(0, j)) + b.get(0, j)).collect();
        for k in 0..hd {
            let (i, f) = (stats::sigmoid(z[k]), stats::sigmoid(z[hd + k]));
            let (gg, o) = (simd::tanh(z[2 * hd + k]), stats::sigmoid(z[3 * hd + k]));
            let c = f * c_prev.get(0, k) + i * gg;
            let tc = simd::tanh(c);
            for (m, v) in gates.iter_mut().zip([i, f, gg, o, c, tc]) {
                m.set(t, k, v);
            }
            c_prev.set(0, k, c);
            h_prev.set(0, k, o * tc);
            hs.set(t, k, o * tc);
        }
    }

    let mut gx = Matrix::zeros(t_len, in_dim);
    let mut gw_ih = Matrix::zeros(in_dim, 4 * hd);
    let mut gw_hh = Matrix::zeros(hd, 4 * hd);
    let mut gb = Matrix::zeros(1, 4 * hd);
    let mut dh_rec = vec![0.0f32; hd];
    let mut dc_rec = g.row(t_len).to_vec();
    let mut dz = vec![0.0f32; 4 * hd];
    let dot_rows = |dz: &[f32], w: &Matrix, out: &mut [f32]| {
        for (j, o) in out.iter_mut().enumerate() {
            let mut acc = 0.0f32;
            for (q, &d) in dz.iter().enumerate() {
                acc += d * w.get(j, q);
            }
            *o = acc;
        }
    };
    for t in (0..t_len).rev() {
        let (c_before, h_before) =
            if t == 0 { (c0.row(0), h0.row(0)) } else { (gates[4].row(t - 1), hs.row(t - 1)) };
        for k in 0..hd {
            let [i, f, gg, o, _, tc] = [0, 1, 2, 3, 4, 5].map(|m: usize| gates[m].get(t, k));
            let dh = g.get(t, k) + dh_rec[k];
            let dc = dh * o * (1.0 - tc * tc) + dc_rec[k];
            dz[k] = dc * gg * i * (1.0 - i);
            dz[hd + k] = dc * c_before[k] * f * (1.0 - f);
            dz[2 * hd + k] = dc * i * (1.0 - gg * gg);
            dz[3 * hd + k] = dh * tc * o * (1.0 - o);
            dc_rec[k] = dc * f;
        }
        for (sum, input) in [(&mut gw_ih, x.row(t)), (&mut gw_hh, h_before), (&mut gb, &[1.0][..])]
        {
            for (r, &v) in input.iter().enumerate() {
                if v != 0.0 {
                    for (s, &d) in sum.row_mut(r).iter_mut().zip(&dz) {
                        *s += v * d;
                    }
                }
            }
        }
        dot_rows(&dz, w_ih, gx.row_mut(t));
        dot_rows(&dz, w_hh, &mut dh_rec);
    }
    vec![gx, gw_ih, gw_hh, gb, Matrix::row_vector(&dh_rec), Matrix::row_vector(&dc_rec)]
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Loss weights with whole columns of `-0.0` and `0.0`: `sum(out ⊙ w)`
/// puts exactly `w` on `out` as its upstream gradient, so at the last
/// step those units get `dc = 0` and gate gradients of `±0.0` — zero
/// coefficients for the sweep to skip, `-0.0` products for the sums.
fn loss_weights(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut w = init::uniform(rows, cols, 1.0, &mut StdRng::seed_from_u64(seed));
    for r in 0..rows {
        w.set(r, 1, -0.0);
        w.set(r, 3, 0.0);
    }
    w
}

#[test]
fn backward_is_bitwise_the_old_per_step_rule() {
    // T = 1 takes the in-place weight-gradient path, T = 2 and 33 the
    // local sums; widths sit off the 8-lane and 32-column strips.
    for (t_len, in_dim, hd) in [(1usize, 35usize, 12usize), (2, 7, 5), (33, 9, 8)] {
        let mut ins = inputs(t_len, in_dim, hd, 40 + t_len as u64);
        ins[0].set(0, 2, 0.0); // a skipped outer-product row
        ins[4].set(0, 1, 0.0);
        let w = loss_weights(t_len + 1, hd, 50 + t_len as u64);

        let mut tape = Tape::new();
        let vars: Vec<Var> = ins.iter().map(|m| tape.leaf(m.clone(), true)).collect();
        let out = tape.lstm_seq(vars[0], vars[1], vars[2], vars[3], vars[4], vars[5]);
        let wv = tape.constant(w.clone());
        let weighted = tape.mul(out, wv);
        let loss = tape.sum_all(weighted);
        tape.backward(loss);
        assert_eq!(bits(tape.grad(out).expect("upstream")), bits(&w));

        let names = ["x", "w_ih", "w_hh", "b", "h0", "c0"];
        for ((want, &v), name) in old_rule(&ins, &w).iter().zip(&vars).zip(names) {
            let got = tape.grad(v).expect("grad");
            assert_eq!(got.shape(), want.shape(), "T={t_len} {name}");
            assert_eq!(
                bits(got),
                bits(want),
                "T={t_len}: d{name} is not the old rule's, bit for bit"
            );
        }
    }
}

#[test]
fn one_step_chain_sums_weight_grads_in_place_bitwise() {
    // Three decoder-style steps share one set of weight leaves, so the
    // later steps add into a filled slot. The oracle materializes each
    // step's gradient by the old rule and adds them in the order the
    // reverse sweep visits the steps (last recorded first).
    let (in_dim, hd) = (11usize, 6usize);
    let ins = inputs(1, in_dim, hd, 60);
    let mut rng = StdRng::seed_from_u64(61);
    let mut xs: Vec<Matrix> = (0..3).map(|_| init::uniform(1, in_dim, 0.8, &mut rng)).collect();
    xs[1].set(0, 4, 0.0); // a zero input element: its row is skipped

    let mut tape = Tape::new();
    let p: Vec<Var> = ins[1..].iter().map(|m| tape.leaf(m.clone(), true)).collect();
    let (w_ih, w_hh, b) = (p[0], p[1], p[2]);
    let (mut h, mut c) = (p[3], p[4]);
    let mut steps = Vec::new();
    let mut loss_terms = Vec::new();
    for (k, x) in xs.iter().enumerate() {
        let xv = tape.constant(x.clone());
        let out = tape.lstm_seq(xv, w_ih, w_hh, b, h, c);
        steps.push((out, h, c));
        h = tape.slice_rows(out, 0, 1);
        c = tape.slice_rows(out, 1, 2);
        // `-0.0` reaches every step's upstream gradient through these.
        let wv = tape.constant(loss_weights(2, hd, 70 + k as u64));
        let weighted = tape.mul(out, wv);
        loss_terms.push(tape.sum_all(weighted));
    }
    let partial = tape.add(loss_terms[0], loss_terms[1]);
    let loss = tape.add(partial, loss_terms[2]);
    tape.backward(loss);

    let last_upstream = tape.grad(steps[2].0).expect("upstream");
    assert_eq!(last_upstream.get(0, 1).to_bits(), (-0.0f32).to_bits());
    let mut want: Option<Vec<Matrix>> = None;
    for (k, &(out, h_in, c_in)) in steps.iter().enumerate().rev() {
        let step_ins = [
            xs[k].clone(),
            ins[1].clone(),
            ins[2].clone(),
            ins[3].clone(),
            tape.value(h_in).clone(),
            tape.value(c_in).clone(),
        ];
        let g = tape.grad(out).expect("step upstream").clone();
        let grads = old_rule(&step_ins, &g)[1..4].to_vec();
        match &mut want {
            None => want = Some(grads),
            Some(acc) => acc.iter_mut().zip(&grads).for_each(|(a, g)| a.add_assign(g)),
        }
    }
    for ((want, v), name) in
        want.expect("three steps").iter().zip([w_ih, w_hh, b]).zip(["w_ih", "w_hh", "b"])
    {
        assert_eq!(bits(tape.grad(v).expect("grad")), bits(want), "d{name} summed in place");
    }
}
