//! Finite-difference gradient checks of whole layers, treating layer
//! parameters as checked inputs (complements the per-op checks in
//! `mars-autograd`).

use mars_autograd::check::check_gradients;
use mars_autograd::{Tape, Var};
use mars_rng::rngs::StdRng;
use mars_rng::SeedableRng;
use mars_tensor::ops::CsrMatrix;
use mars_tensor::{init, Matrix};
use std::sync::Arc;

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Manual linear layer y = tanh(x·W + b), checked against FD.
#[test]
fn linear_layer_parameters() {
    let mut r = rng(1);
    let x = init::uniform(3, 4, 0.8, &mut r);
    let w = init::uniform(4, 2, 0.8, &mut r);
    let b = init::uniform(1, 2, 0.3, &mut r);
    check_gradients(&[x, w, b], 2e-2, 1e-2, |t, v| {
        let xw = t.matmul(v[0], v[1]);
        let z = t.add_bias(xw, v[2]);
        let y = t.tanh(z);
        t.mean_all(y)
    });
}

/// A full LSTM cell step, gradients w.r.t. fused weights and states.
#[test]
fn lstm_cell_parameters() {
    let mut r = rng(2);
    let hd = 3usize;
    let x = init::uniform(1, 4, 0.6, &mut r);
    let w_ih = init::uniform(4, 4 * hd, 0.5, &mut r);
    let w_hh = init::uniform(hd, 4 * hd, 0.5, &mut r);
    let bias = init::uniform(1, 4 * hd, 0.3, &mut r);
    let h0 = init::uniform(1, hd, 0.5, &mut r);
    let c0 = init::uniform(1, hd, 0.5, &mut r);

    let step = |t: &mut Tape, v: &[Var]| -> Var {
        let (h, _) = mars_oracle::lstm_step(t, v[0], v[1], v[2], v[3], v[4], v[5]);
        t.mean_all(h)
    };
    check_gradients(&[x, w_ih, w_hh, bias, h0, c0], 2e-2, 1e-2, step);
}

/// GCN layer with PReLU over a small normalized adjacency.
#[test]
fn gcn_layer_parameters() {
    let mut r = rng(3);
    let adj = Arc::new(CsrMatrix::from_triplets(
        4,
        4,
        &[
            (0, 0, 0.5),
            (0, 1, 0.5),
            (1, 0, 0.3),
            (1, 1, 0.4),
            (1, 2, 0.3),
            (2, 1, 0.5),
            (2, 2, 0.5),
            (3, 3, 1.0),
        ],
    ));
    let x = init::uniform(4, 3, 0.8, &mut r);
    let w = init::uniform(3, 2, 0.8, &mut r);
    let b = init::uniform(1, 2, 0.3, &mut r);
    let alpha = Matrix::from_vec(1, 1, vec![0.25]);
    check_gradients(&[x, w, b, alpha], 2e-2, 1e-2, move |t, v| {
        let xw = t.matmul(v[0], v[1]);
        let agg = t.spmm(adj.clone(), xw);
        let z = t.add_bias(agg, v[2]);
        let h = t.prelu(z, v[3]);
        t.mean_all(h)
    });
}

/// Bahdanau attention read (the fused decoder's, as `mars-oracle`
/// transcribes it), gradients w.r.t. all three projections.
#[test]
fn attention_parameters() {
    let mut r = rng(4);
    let enc = init::uniform(5, 3, 0.8, &mut r);
    let w_enc = init::uniform(3, 4, 0.6, &mut r);
    let w_dec = init::uniform(2, 4, 0.6, &mut r);
    let vvec = init::uniform(4, 1, 0.6, &mut r);
    let dec = init::uniform(1, 2, 0.6, &mut r);
    check_gradients(&[enc, w_enc, w_dec, vvec, dec], 2e-2, 1e-2, |t, v| {
        let proj = t.matmul(v[0], v[1]);
        let context = mars_oracle::attention_read(t, v[0], proj, v[4], v[2], v[3]);
        let y = t.tanh(context);
        t.mean_all(y)
    });
}

/// A two-segment recurrence: state carried across segments must pass
/// gradient back to the first segment's inputs.
#[test]
fn cross_segment_gradient_flow() {
    let mut r = rng(5);
    let hd = 2usize;
    let xs = init::uniform(4, 2, 0.6, &mut r); // 4 steps, 2 features
    let w_ih = init::uniform(2, 4 * hd, 0.5, &mut r);
    let w_hh = init::uniform(hd, 4 * hd, 0.5, &mut r);

    let checks = check_gradients(&[xs, w_ih, w_hh], 2e-2, 1e-2, move |t, v| {
        let mut h = t.constant(Matrix::zeros(1, hd));
        let mut c = t.constant(Matrix::zeros(1, hd));
        let b = t.constant(Matrix::zeros(1, 4 * hd));
        for i in 0..4 {
            let x = t.slice_rows(v[0], i, i + 1);
            (h, c) = mars_oracle::lstm_step(t, x, v[1], v[2], b, h, c);
        }
        // Loss only on the FINAL hidden state: early steps receive
        // gradient exclusively through the recurrence.
        t.mean_all(h)
    });
    // The first input row's gradient must be nonzero (long-range credit).
    let first_row_grad: f32 = checks[0].analytic.row(0).iter().map(|g| g.abs()).sum();
    assert!(first_row_grad > 1e-6, "no gradient reached the first timestep");
}
