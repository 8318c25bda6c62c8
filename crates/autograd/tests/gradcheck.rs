//! Finite-difference verification of every op's backward rule.

use mars_autograd::check::check_gradients_default;
use mars_rng::rngs::StdRng;
use mars_rng::SeedableRng;
use mars_tensor::init;
use mars_tensor::ops::CsrMatrix;
use mars_tensor::Matrix;
use std::sync::Arc;

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

fn rand_m(r: usize, c: usize, seed: u64) -> Matrix {
    init::uniform(r, c, 0.9, &mut rng(seed))
}

#[test]
fn grad_matmul() {
    let a = rand_m(3, 4, 1);
    let b = rand_m(4, 2, 2);
    check_gradients_default(&[a, b], |t, v| {
        let y = t.matmul(v[0], v[1]);
        let s = t.tanh(y);
        t.mean_all(s)
    });
}

#[test]
fn grad_spmm() {
    let adj = Arc::new(CsrMatrix::from_triplets(
        3,
        3,
        &[(0, 0, 0.5), (0, 1, 0.5), (1, 1, 1.0), (2, 0, 0.3), (2, 2, 0.7)],
    ));
    let x = rand_m(3, 4, 3);
    check_gradients_default(&[x], move |t, v| {
        let y = t.spmm(adj.clone(), v[0]);
        let s = t.sigmoid(y);
        t.mean_all(s)
    });
}

#[test]
fn grad_add_sub_mul() {
    let a = rand_m(2, 3, 4);
    let b = rand_m(2, 3, 5);
    check_gradients_default(&[a, b], |t, v| {
        let s = t.add(v[0], v[1]);
        let d = t.sub(s, v[1]);
        let m = t.mul(d, v[0]);
        t.mean_all(m)
    });
}

#[test]
fn grad_add_bias() {
    let x = rand_m(4, 3, 6);
    let b = rand_m(1, 3, 7);
    check_gradients_default(&[x, b], |t, v| {
        let y = t.add_bias(v[0], v[1]);
        let s = t.tanh(y);
        t.mean_all(s)
    });
}

#[test]
fn grad_scale_add_scalar() {
    let x = rand_m(2, 2, 8);
    check_gradients_default(&[x], |t, v| {
        let y = t.scale(v[0], 1.7);
        let z = t.add_scalar(y, -0.3);
        let s = t.sigmoid(z);
        t.mean_all(s)
    });
}

#[test]
fn grad_activations() {
    let x = rand_m(3, 3, 9);
    check_gradients_default(std::slice::from_ref(&x), |t, v| {
        let y = t.sigmoid(v[0]);
        t.mean_all(y)
    });
    check_gradients_default(std::slice::from_ref(&x), |t, v| {
        let y = t.tanh(v[0]);
        t.mean_all(y)
    });
    // ReLU/clamp are non-smooth at 0; shift inputs away from kinks.
    let shifted = x.map(|e| e + if e >= 0.0 { 0.5 } else { -0.5 });
    check_gradients_default(std::slice::from_ref(&shifted), |t, v| {
        let y = t.relu(v[0]);
        t.mean_all(y)
    });
    check_gradients_default(&[shifted], |t, v| {
        let y = t.clamp(v[0], -0.25, 0.25);
        let z = t.tanh(y);
        t.mean_all(z)
    });
}

#[test]
fn grad_prelu_both_inputs() {
    let x = rand_m(3, 3, 10).map(|e| e + if e >= 0.0 { 0.4 } else { -0.4 });
    let alpha = Matrix::from_vec(1, 1, vec![0.25]);
    check_gradients_default(&[x, alpha], |t, v| {
        let y = t.prelu(v[0], v[1]);
        t.mean_all(y)
    });
}

#[test]
fn grad_exp_ln() {
    let x = rand_m(2, 3, 11).map(|e| e * 0.5);
    check_gradients_default(&[x], |t, v| {
        let y = t.exp(v[0]);
        t.mean_all(y)
    });
    let positive = rand_m(2, 3, 12).map(|e| e.abs() + 0.5);
    check_gradients_default(&[positive], |t, v| {
        let y = t.ln(v[0]);
        t.mean_all(y)
    });
}

#[test]
fn grad_softmax_rows() {
    let x = rand_m(3, 4, 13);
    let w = rand_m(4, 1, 14);
    check_gradients_default(&[x, w], |t, v| {
        let p = t.softmax_rows(v[0]);
        let y = t.matmul(p, v[1]);
        let s = t.tanh(y);
        t.mean_all(s)
    });
}

#[test]
fn grad_log_softmax_rows() {
    let x = rand_m(3, 5, 15);
    check_gradients_default(&[x], |t, v| {
        let lp = t.log_softmax_rows(v[0]);
        let sel = t.select_per_row(lp, vec![0, 2, 4]);
        let s = t.mean_all(sel);
        t.neg(s)
    });
}

#[test]
fn grad_reductions() {
    let x = rand_m(3, 4, 16);
    check_gradients_default(std::slice::from_ref(&x), |t, v| {
        let m = t.mean_rows(v[0]);
        let s = t.tanh(m);
        t.sum_all(s)
    });
    check_gradients_default(&[x], |t, v| {
        let m = t.sum_rows(v[0]);
        let s = t.sigmoid(m);
        t.mean_all(s)
    });
}

#[test]
fn grad_concat_slice() {
    let a = rand_m(2, 3, 17);
    let b = rand_m(2, 2, 18);
    check_gradients_default(&[a.clone(), b.clone()], |t, v| {
        let c = t.concat_cols(v[0], v[1]);
        let s = t.tanh(c);
        t.mean_all(s)
    });
    let c = rand_m(3, 3, 19);
    check_gradients_default(&[a, c], |t, v| {
        let m = t.concat_rows(v[0], v[1]);
        let sl = t.slice_rows(m, 1, 4);
        let s = t.sigmoid(sl);
        t.mean_all(s)
    });
}

#[test]
fn grad_gather_rows_with_duplicates() {
    let x = rand_m(4, 3, 20);
    check_gradients_default(&[x], |t, v| {
        let g = t.gather_rows(v[0], vec![0, 2, 2, 3, 1]);
        let s = t.tanh(g);
        t.mean_all(s)
    });
}

#[test]
fn grad_stack_rows() {
    let a = rand_m(1, 4, 21);
    let b = rand_m(1, 4, 22);
    let c = rand_m(1, 4, 23);
    check_gradients_default(&[a, b, c], |t, v| {
        let s = t.stack_rows(vec![v[0], v[1], v[2]]);
        let y = t.tanh(s);
        t.mean_all(y)
    });
}

#[test]
fn grad_transpose() {
    let x = rand_m(2, 5, 24);
    let w = rand_m(2, 3, 25);
    check_gradients_default(&[x, w], |t, v| {
        let xt = t.transpose(v[0]);
        let y = t.matmul(xt, v[1]);
        let s = t.tanh(y);
        t.mean_all(s)
    });
}

#[test]
fn grad_min_elem() {
    // Keep elements well-separated to avoid the tie kink.
    let a = Matrix::from_vec(2, 2, vec![0.1, 0.9, -0.5, 0.4]);
    let b = Matrix::from_vec(2, 2, vec![0.6, 0.2, 0.5, -0.8]);
    check_gradients_default(&[a, b], |t, v| {
        let m = t.min_elem(v[0], v[1]);
        let s = t.tanh(m);
        t.mean_all(s)
    });
}

#[test]
fn grad_bce_with_logits() {
    let x = rand_m(3, 2, 26);
    let targets = Arc::new(Matrix::from_vec(3, 2, vec![1., 0., 1., 1., 0., 0.]));
    check_gradients_default(&[x], move |t, v| t.bce_with_logits(v[0], targets.clone()));
}

#[test]
fn grad_composite_gcn_like_layer() {
    // sigmoid(mean_rows(prelu(Â·X·W + b))) — the actual DGI readout path.
    let adj = Arc::new(CsrMatrix::from_triplets(
        4,
        4,
        &[
            (0, 0, 0.5),
            (0, 1, 0.5),
            (1, 1, 0.6),
            (1, 2, 0.4),
            (2, 2, 1.0),
            (3, 0, 0.2),
            (3, 3, 0.8),
        ],
    ));
    let x = rand_m(4, 3, 27);
    let w = rand_m(3, 2, 28);
    let b = rand_m(1, 2, 29);
    let alpha = Matrix::from_vec(1, 1, vec![0.2]);
    check_gradients_default(&[x, w, b, alpha], move |t, v| {
        let ax = t.spmm(adj.clone(), v[0]);
        let xw = t.matmul(ax, v[1]);
        let z = t.add_bias(xw, v[2]);
        let h = t.prelu(z, v[3]);
        let s = t.mean_rows(h);
        let sig = t.sigmoid(s);
        t.mean_all(sig)
    });
}

#[test]
fn grad_composite_lstm_gate() {
    // One LSTM-style gate: c' = f⊙c + i⊙g with learned projections.
    let x = rand_m(1, 3, 30);
    let wf = rand_m(3, 2, 31);
    let wi = rand_m(3, 2, 32);
    let wg = rand_m(3, 2, 33);
    let c = rand_m(1, 2, 34);
    check_gradients_default(&[x, wf, wi, wg, c], |t, v| {
        let fpre = t.matmul(v[0], v[1]);
        let f = t.sigmoid(fpre);
        let ipre = t.matmul(v[0], v[2]);
        let i = t.sigmoid(ipre);
        let gpre = t.matmul(v[0], v[3]);
        let g = t.tanh(gpre);
        let fc = t.mul(f, v[4]);
        let ig = t.mul(i, g);
        let c2 = t.add(fc, ig);
        let h = t.tanh(c2);
        t.mean_all(h)
    });
}

#[test]
fn grad_bilstm() {
    // Both directions over four steps, the forward one seeded by a
    // carry; the loss reads every output row and the final carry, so
    // each direction's BPTT and the carry's gradient are checked.
    let (t_len, in_dim, hd) = (4, 3, 2);
    let mut inputs = vec![rand_m(t_len, in_dim, 40)];
    for d in 0..2 {
        inputs.push(rand_m(in_dim, 4 * hd, 41 + 3 * d));
        inputs.push(rand_m(hd, 4 * hd, 42 + 3 * d));
        inputs.push(rand_m(1, 4 * hd, 43 + 3 * d));
    }
    inputs.push(rand_m(1, 2 * hd, 47));
    let mix = rand_m(t_len + 1, 2 * hd, 48);
    check_gradients_default(&inputs, move |t, v| {
        let out = t.bilstm(v[0], [v[1], v[2], v[3]], [v[4], v[5], v[6]], Some(v[7]));
        let w = t.constant(mix.clone());
        let weighted = t.mul(out, w);
        let act = t.tanh(weighted);
        t.mean_all(act)
    });
}

#[test]
fn grad_ppo_surrogate_shape() {
    // min(r·A, clamp(r, 0.8, 1.2)·A) with r = exp(lp − lp_old).
    // Seed chosen so no ratio lands on the clip boundary, where the
    // surrogate is nondifferentiable and finite differences disagree.
    let logits = rand_m(4, 3, 36);
    check_gradients_default(&[logits], |t, v| {
        let lp = t.log_softmax_rows(v[0]);
        let chosen = t.select_per_row(lp, vec![0, 1, 2, 0]);
        let old = t.constant(Matrix::from_vec(4, 1, vec![-1.0, -1.1, -0.9, -1.2]));
        let diff = t.sub(chosen, old);
        let ratio = t.exp(diff);
        let adv = t.constant(Matrix::from_vec(4, 1, vec![0.5, -0.3, 0.2, -0.7]));
        let unclipped = t.mul(ratio, adv);
        let clipped_r = t.clamp(ratio, 0.8, 1.2);
        let clipped = t.mul(clipped_r, adv);
        let surr = t.min_elem(unclipped, clipped);
        let m = t.mean_all(surr);
        t.neg(m)
    });
}
