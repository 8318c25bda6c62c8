#![warn(missing_docs)]
//! The test oracle of the fused attention decoder.
//!
//! [`mars_autograd::Tape::attn_decode`] records a placer's whole decode
//! loop as one node. This crate transcribes the same loop op by op,
//! from primitive tape ops only, so the fused node's values and
//! gradients can be compared with it bit for bit: per placed op an
//! additive-attention read ([`attention_read`]), one LSTM step on
//! `[encoder row ‖ context]` ([`lstm_step`]) and the device head.
//! [`decode_segment`] records one segment of that loop, so a caller can
//! interleave it with the segment encoders.
//!
//! Only `[dev-dependencies]` name this crate: nothing that ships links
//! it (`scripts/verify.sh` checks the dependency trees of `mars` and of
//! the ledger).

use mars_autograd::{Tape, Var};

/// One additive-attention read (Bahdanau et al., 2015): with `proj =
/// enc · w_enc` (`T × A`) and the decoder state `h` (`1 × H`),
///
/// ```text
/// α       = softmax((tanh(proj ⊕ h·w_dec) · v)ᵀ)
/// context = α · enc
/// ```
///
/// recorded as `matmul → add_bias → tanh → matmul → transpose →
/// softmax_rows → matmul`. Returns the `1 × E` context.
pub fn attention_read(t: &mut Tape, enc: Var, proj: Var, h: Var, w_dec: Var, v: Var) -> Var {
    let dproj = t.matmul(h, w_dec); // 1 × A
    let pre = t.add_bias(proj, dproj); // T × A
    let act = t.tanh(pre);
    let scores = t.matmul(act, v); // T × 1
    let scores_row = t.transpose(scores); // 1 × T
    let alpha = t.softmax_rows(scores_row);
    t.matmul(alpha, enc)
}

/// One LSTM step on `x` (`1 × F`) from `(h, c)` (`1 × H` each), gates
/// packed `[i | f | g | o]` in `w_ih` (`F × 4H`), `w_hh` (`H × 4H`) and
/// `b` (`1 × 4H`):
///
/// ```text
/// z  = (x·w_ih + h·w_hh) + b
/// c' = σ(z_f) ⊙ c + σ(z_i) ⊙ tanh(z_g)
/// h' = σ(z_o) ⊙ tanh(c')
/// ```
///
/// Each gate block is cut out of `z` as `transpose → slice_rows →
/// transpose`. Returns `(h', c')`.
pub fn lstm_step(t: &mut Tape, x: Var, w_ih: Var, w_hh: Var, b: Var, h: Var, c: Var) -> (Var, Var) {
    let hd = t.value(h).cols();
    let xi = t.matmul(x, w_ih);
    let hh = t.matmul(h, w_hh);
    let z0 = t.add(xi, hh);
    let z = t.add_bias(z0, b);
    let gate = |t: &mut Tape, k: usize| {
        let zt = t.transpose(z);
        let rows = t.slice_rows(zt, k * hd, (k + 1) * hd);
        t.transpose(rows)
    };
    let (i_pre, f_pre, g_pre, o_pre) = (gate(t, 0), gate(t, 1), gate(t, 2), gate(t, 3));
    let i = t.sigmoid(i_pre);
    let f = t.sigmoid(f_pre);
    let g = t.tanh(g_pre);
    let o = t.sigmoid(o_pre);
    let fc = t.mul(f, c);
    let ig = t.mul(i, g);
    let c2 = t.add(fc, ig);
    let tc = t.tanh(c2);
    let h2 = t.mul(o, tc);
    (h2, c2)
}

/// One segment of the decode loop, recorded op by op: for each row of
/// `enc` (`T × E`, keys `proj` = `T × A`), an [`attention_read`] with
/// the current state, an [`lstm_step`] on `[row ‖ context]` and the
/// head `h·head_w + head_b`. `params` is laid out as
/// [`Tape::attn_decode`] reads it: `[w_dec, v, w_ih, w_hh, b, head_w,
/// head_b]`. Pushes the segment's `1 × D` logit rows onto `rows` and
/// returns the carried `(h, c)`; stacking the rows of every segment
/// gives what one `attn_decode` node over the same segments computes.
pub fn decode_segment(
    t: &mut Tape,
    (enc, proj): (Var, Var),
    params: [Var; 7],
    (mut h, mut c): (Var, Var),
    rows: &mut Vec<Var>,
) -> (Var, Var) {
    let [w_dec, v, w_ih, w_hh, b, head_w, head_b] = params;
    for i in 0..t.value(enc).rows() {
        let row = t.slice_rows(enc, i, i + 1);
        let context = attention_read(t, enc, proj, h, w_dec, v);
        let dec_in = t.concat_cols(row, context);
        (h, c) = lstm_step(t, dec_in, w_ih, w_hh, b, h, c);
        let y = t.matmul(h, head_w);
        rows.push(t.add_bias(y, head_b));
    }
    (h, c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_tensor::Matrix;

    /// Deterministic values in `[-0.5, 0.5)`.
    fn pseudo(r: usize, c: usize, seed: u32) -> Matrix {
        let mut s = seed.wrapping_mul(2654435761).wrapping_add(12345);
        Matrix::from_fn(r, c, |_, _| {
            s = s.wrapping_mul(1103515245).wrapping_add(12345);
            ((s >> 8) & 0xffff) as f32 / 65536.0 - 0.5
        })
    }

    /// Bind `enc`, its keys through a fresh `w_enc`, `w_dec` and `v`.
    fn keys(t: &mut Tape, enc: Matrix, dec_dim: usize, attn_dim: usize) -> [Var; 4] {
        let enc_dim = enc.cols();
        let enc = t.constant(enc);
        let w_enc = t.constant(pseudo(enc_dim, attn_dim, 1));
        let proj = t.matmul(enc, w_enc);
        let w_dec = t.constant(pseudo(dec_dim, attn_dim, 2));
        let v = t.constant(pseudo(attn_dim, 1, 3));
        [enc, proj, w_dec, v]
    }

    #[test]
    fn context_is_convex_combination() {
        // One-hot encoder rows: the context's components are the
        // softmax weights, hence in [0, 1] and summing to 1.
        let mut t = Tape::new();
        let [enc, proj, w_dec, v] = keys(&mut t, Matrix::eye(3), 2, 4);
        let dec = t.constant(Matrix::row_vector(&[0.5, -0.5]));
        let c = attention_read(&mut t, enc, proj, dec, w_dec, v);
        let ctx = t.value(c);
        assert_eq!(ctx.shape(), (1, 3));
        let sum: f32 = ctx.as_slice().iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert!(ctx.as_slice().iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn different_queries_give_different_contexts() {
        let mut t = Tape::new();
        let [enc, proj, w_dec, v] = keys(&mut t, pseudo(6, 4, 4), 4, 8);
        let d1 = t.constant(pseudo(1, 4, 5));
        let d2 = t.constant(pseudo(1, 4, 6));
        let c1 = attention_read(&mut t, enc, proj, d1, w_dec, v);
        let c2 = attention_read(&mut t, enc, proj, d2, w_dec, v);
        assert!(t.value(c1).max_abs_diff(t.value(c2)) > 1e-6);
    }
}
