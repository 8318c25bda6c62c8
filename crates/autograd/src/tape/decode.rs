//! The fused attention decoder: [`Tape::attn_decode`] and its reverse
//! sweep.
//!
//! One node stands for the whole decode loop of a seq2seq placer — per
//! placed op an attention read, an LSTM step and the device head. Both
//! directions perform, per output element and per gradient slot, the
//! same f32 operations in the same order as the op-by-op chain they
//! replace (DESIGN §5j has the slot-by-slot table), so values and
//! gradients are bit-identical to it on every kernel backend: all
//! vector work goes through the dispatched `strided_sweep` / `axpy` /
//! `tanh_inplace`.

use super::{add_outer, lstm_gate_grads, lstm_step, Tape, Var};
use crate::ops::{AttnDecodeCache, Op};
use mars_tensor::simd::{strided_sweep, tanh_inplace};
use mars_tensor::{stats, Matrix};
use std::sync::Arc;

impl Tape {
    /// Fused attention decoder over every step of every segment.
    ///
    /// `segs` holds, per segment, the encoder outputs (`T_s × E`) and
    /// their attention projection (`T_s × A`); `params` is
    /// `[w_dec (H × A), v (A × 1), w_ih (2E × 4H), w_hh (H × 4H),
    /// b (1 × 4H), head_w (H × D), head_b (1 × D)]`; `h0`/`c0` the
    /// initial decoder state (`1 × H`), carried across segments.
    /// Returns the `N × D` logits, `N = Σ T_s`. Step `i` of a segment
    /// computes
    ///
    /// ```text
    /// α       = softmax((tanh(proj ⊕ h·w_dec) · v)ᵀ)
    /// (h, c)  = lstm([enc_i ‖ α·enc], (h, c))
    /// logits  = h·head_w + head_b
    /// ```
    ///
    /// exactly as `matmul → attn_scores → softmax_rows → matmul →
    /// concat_cols → lstm_seq → slice_rows → matmul → add_bias` would,
    /// in one node instead of twelve per step. The reverse sweep adds
    /// every gradient term into its parent's slot in place; that equals
    /// the chain's accumulation provided nothing recorded after this
    /// node has left a `-0.0` in a slot of `params`, `enc` or `proj` —
    /// true whenever the decoder is the last consumer of its inputs.
    pub fn attn_decode(&mut self, segs: &[(Var, Var)], params: [Var; 7], h0: Var, c0: Var) -> Var {
        let [w_dec, v, w_ih, w_hh, b, head_w, head_b] = params;
        assert!(!segs.is_empty(), "attn_decode: no segments");
        let (hd, ad) = self.value(w_dec).shape();
        let ed = self.value(segs[0].0).cols();
        let nd = self.value(head_w).cols();
        assert_eq!(self.value(v).shape(), (ad, 1), "attn_decode: v shape mismatch");
        assert_eq!(self.value(w_ih).shape(), (2 * ed, 4 * hd), "attn_decode: w_ih shape mismatch");
        assert_eq!(self.value(w_hh).shape(), (hd, 4 * hd), "attn_decode: w_hh shape mismatch");
        assert_eq!(self.value(b).shape(), (1, 4 * hd), "attn_decode: bias shape mismatch");
        assert_eq!(self.value(head_w).rows(), hd, "attn_decode: head_w shape mismatch");
        assert_eq!(self.value(head_b).shape(), (1, nd), "attn_decode: head_b shape mismatch");
        assert_eq!(self.value(h0).shape(), (1, hd), "attn_decode: h0 shape mismatch");
        assert_eq!(self.value(c0).shape(), (1, hd), "attn_decode: c0 shape mismatch");
        let (mut n, mut t_max, mut w_len) = (0, 0, 0);
        for &(enc, proj) in segs {
            let t = self.value(enc).rows();
            assert!(t > 0, "attn_decode: empty segment");
            assert_eq!(self.value(enc).cols(), ed, "attn_decode: enc width mismatch");
            assert_eq!(self.value(proj).shape(), (t, ad), "attn_decode: proj shape mismatch");
            n += t;
            t_max = t_max.max(t);
            w_len += t * t;
        }

        // A recording tape keeps every step's activations for the
        // reverse sweep; an inference tape reuses one step's worth.
        let keep = self.record;
        let (rows, flat) = if keep { (n, w_len) } else { (1, t_max) };
        let mut logits = self.alloc_zeros(n, nd);
        let mut gates = self.alloc_lstm_cache(rows, hd);
        let mut h_all = self.alloc_zeros(rows, hd);
        let mut dec_in = self.alloc_zeros(rows, 2 * ed);
        let mut weights = self.take_buf_empty(flat);
        let mut act = self.take_buf_empty(flat * ad);
        let mut scratch = self.alloc_zeros(1, 10 * hd + ad);
        {
            let (h_prev, rest) = scratch.as_mut_slice().split_at_mut(hd);
            let (c_prev, rest) = rest.split_at_mut(hd);
            let (dproj, rest) = rest.split_at_mut(ad);
            let (xw, hw) = rest.split_at_mut(4 * hd);
            h_prev.copy_from_slice(self.value(h0).row(0));
            c_prev.copy_from_slice(self.value(c0).row(0));
            let w_dec_m = self.value(w_dec);
            let v_col = self.value(v).as_slice(); // A × 1, contiguous
            let w_ih_m = self.value(w_ih);
            let w_hh_m = self.value(w_hh);
            let b_row = self.value(b).row(0);
            let head_w_m = self.value(head_w);
            let head_b_row = self.value(head_b).row(0);

            let mut step = 0;
            for &(enc, proj) in segs {
                let (enc_m, proj_m) = (self.value(enc), self.value(proj));
                for i in 0..enc_m.rows() {
                    let r = if keep { step } else { 0 };
                    // dproj = h · w_dec, then the score row
                    // s_j = Σ_a tanh(proj[j][a] + dproj[a]) · v[a]
                    // (ascending a, zero activations skipped).
                    dproj.fill(0.0);
                    strided_sweep(dproj, h_prev, w_dec_m.as_slice(), ad);
                    if !keep {
                        act.clear();
                        weights.clear();
                    }
                    let (a0, w0) = (act.len(), weights.len());
                    for proj_row in proj_m.rows_iter() {
                        act.extend(proj_row.iter().zip(&*dproj).map(|(&p, &d)| p + d));
                    }
                    tanh_inplace(&mut act[a0..]);
                    for act_row in act[a0..].chunks_exact(ad) {
                        let mut s = 0.0f32;
                        for (&tv, &vv) in act_row.iter().zip(v_col) {
                            if tv != 0.0 {
                                s += tv * vv;
                            }
                        }
                        weights.push(s);
                    }
                    stats::softmax_inplace(&mut weights[w0..]);
                    // [enc_i ‖ context], context = α · enc.
                    let (row, context) = dec_in.row_mut(r).split_at_mut(ed);
                    row.copy_from_slice(enc_m.row(i));
                    context.fill(0.0);
                    strided_sweep(context, &weights[w0..], enc_m.as_slice(), ed);
                    // One LSTM step on it.
                    xw.fill(0.0);
                    strided_sweep(xw, dec_in.row(r), w_ih_m.as_slice(), 4 * hd);
                    lstm_step(hw, xw, w_hh_m, b_row, h_prev, c_prev, &mut gates, r);
                    h_all.row_mut(r).copy_from_slice(h_prev);
                    // Device head.
                    let y = logits.row_mut(step);
                    strided_sweep(y, h_prev, head_w_m.as_slice(), nd);
                    for (e, &bv) in y.iter_mut().zip(head_b_row) {
                        *e += bv;
                    }
                    step += 1;
                }
            }
        }
        self.recycle(scratch);
        let (weights, act) =
            (Matrix::from_vec(1, weights.len(), weights), Matrix::from_vec(1, act.len(), act));
        if !keep {
            self.recycle_lstm_cache(gates);
            for m in [h_all, dec_in, weights, act] {
                self.recycle(m);
            }
            return self.push(logits, Op::Leaf, false);
        }
        let rg = segs.iter().any(|&(enc, proj)| self.rg(enc) || self.rg(proj))
            || params.iter().any(|&p| self.rg(p))
            || self.rg(h0)
            || self.rg(c0);
        let cache = AttnDecodeCache { gates, h: h_all, dec_in, weights, act };
        let op = Op::AttnDecode {
            segs: Arc::new(segs.to_vec()),
            params,
            h0,
            c0,
            cache: Arc::new(cache),
        };
        self.push(logits, op, rg)
    }

    /// Reverse sweep of [`Op::AttnDecode`]: steps walked backwards, each
    /// reproducing the chain's rules in their tape order (head, state
    /// slices, LSTM, concat, context product, softmax, scores, query
    /// projection, encoder-row slice).
    pub(super) fn attn_decode_backward(
        &mut self,
        g: &Matrix,
        segs: &[(Var, Var)],
        params: [Var; 7],
        (h0, c0): (Var, Var),
        cache: &AttnDecodeCache,
    ) {
        let [w_dec, v, w_ih, w_hh, _, head_w, _] = params;
        let (hd, ad) = self.value(w_dec).shape();
        let ed = cache.dec_in.cols() / 2;
        let t_max = segs.iter().map(|&(enc, _)| self.value(enc).rows()).max().unwrap_or(0);

        // Every parameter slot is taken for the sweep and added to in
        // place (see `add_outer`); an empty one starts from zeros, so
        // its first term is the `0 + x` the chain would have assigned.
        let mut slots = params.map(|p| {
            self.rg(p).then(|| {
                let (r, c) = self.value(p).shape();
                self.grads[p.0].take().unwrap_or_else(|| self.alloc_zeros(r, c))
            })
        });
        let [s_w_dec, s_v, s_w_ih, s_w_hh, s_b, s_head_w, s_head_b] = &mut slots;
        // `enc` slots likewise; a `proj` slot created here is *assigned*
        // by its first step (the chain moves that matrix in, signed
        // zeros and all) and added to afterwards.
        let mut proj_fresh = vec![false; segs.len()];
        for (&(enc, proj), fresh) in segs.iter().zip(&mut proj_fresh) {
            if self.rg(enc) {
                self.ensure_grad_slot(enc);
            }
            if self.rg(proj) {
                *fresh = self.ensure_grad_slot(proj);
            }
        }
        // Carries between steps: the LSTM's recurrent `dh`, the query
        // projection's `dh`, and `dc`.
        let mut dh_rec = self.alloc_zeros(1, hd);
        let mut ga_dproj = self.alloc_zeros(1, hd);
        let mut dc_rec = self.alloc_zeros(1, hd);
        let mut scratch = self.alloc_zeros(1, 6 * hd + 2 * ed + 2 * ad + 2 * t_max);
        let mut enc_t = self.alloc_zeros(1, ed * t_max);
        let at = [head_w, w_ih, w_hh, w_dec].map(|w| self.transposed(w));
        {
            let [wt_head, wt_ih, wt_hh, wt_dec] = at.map(|i| self.wt[i].1.as_slice());
            let v_col = self.nodes[v.0].value.as_slice();
            let (ga_head, rest) = scratch.as_mut_slice().split_at_mut(hd);
            let (dh, rest) = rest.split_at_mut(hd);
            let (dz, rest) = rest.split_at_mut(4 * hd);
            let (gx, rest) = rest.split_at_mut(2 * ed);
            let (gdproj, rest) = rest.split_at_mut(ad);
            let (gv, rest) = rest.split_at_mut(ad);
            let (dweights, gscores) = rest.split_at_mut(t_max);
            let (dh_rec, ga_dproj, dc_rec) =
                (dh_rec.as_mut_slice(), ga_dproj.as_mut_slice(), dc_rec.as_mut_slice());

            let mut step = cache.h.rows();
            let (mut w_end, mut a_end) = (cache.weights.len(), cache.act.len());
            let mut last = true;
            for (s, &(enc, proj)) in segs.iter().enumerate().rev() {
                let enc_m = &self.nodes[enc.0].value;
                let t_s = enc_m.rows();
                // encᵀ, once per segment, for dweights = gctx · encᵀ.
                let enc_t = &mut enc_t.as_mut_slice()[..ed * t_s];
                for (j, enc_row) in enc_m.rows_iter().enumerate() {
                    for (k, &e) in enc_row.iter().enumerate() {
                        enc_t[k * t_s + j] = e;
                    }
                }
                let mut enc_slot =
                    if self.nodes[enc.0].requires_grad { self.grads[enc.0].take() } else { None };
                let mut proj_slot =
                    if self.nodes[proj.0].requires_grad { self.grads[proj.0].take() } else { None };
                let (dweights, gscores) = (&mut dweights[..t_s], &mut gscores[..t_s]);
                for i in (0..t_s).rev() {
                    step -= 1;
                    w_end -= t_s;
                    a_end -= t_s * ad;
                    let g_row = g.row(step);
                    let (h_prev, c_prev) = match step {
                        0 => (self.nodes[h0.0].value.row(0), self.nodes[c0.0].value.row(0)),
                        _ => (cache.h.row(step - 1), cache.gates.c.row(step - 1)),
                    };

                    // Head: add_bias, then h · head_w.
                    if let Some(slot) = s_head_b.as_mut() {
                        for (e, &gc) in slot.as_mut_slice().iter_mut().zip(g_row) {
                            *e += 0.0 + gc;
                        }
                    }
                    ga_head.fill(0.0);
                    strided_sweep(ga_head, g_row, wt_head, hd);
                    add_outer(s_head_w, cache.h.row(step), g_row);

                    // The state slices: h_n's slot holds the next step's
                    // `(dh_rec + ga_dproj)` before the head's term joins
                    // it, and the slices scatter into a zero matrix
                    // (`0.0 +`, `+ 0.0`); the last step has no successor.
                    if last {
                        dh.copy_from_slice(ga_head);
                    } else {
                        for k in 0..hd {
                            dh[k] = 0.0 + ((dh_rec[k] + ga_dproj[k]) + ga_head[k]);
                            dc_rec[k] += 0.0;
                        }
                    }

                    // The T = 1 LSTM rule (its own `dh_rec` starts at 0).
                    lstm_gate_grads(dz, dc_rec, |k| dh[k] + 0.0, &cache.gates, step, c_prev);
                    add_outer(s_w_ih, cache.dec_in.row(step), dz);
                    add_outer(s_w_hh, h_prev, dz);
                    add_outer(s_b, &[1.0], dz);
                    gx.fill(0.0);
                    strided_sweep(gx, dz, wt_ih, 2 * ed);
                    dh_rec.fill(0.0);
                    strided_sweep(dh_rec, dz, wt_hh, hd);

                    // concat_cols, then context = α · enc.
                    let (grow, gctx) = gx.split_at(ed);
                    let alpha = &cache.weights.as_slice()[w_end..w_end + t_s];
                    dweights.fill(0.0);
                    strided_sweep(dweights, gctx, enc_t, t_s);
                    add_outer(&mut enc_slot, alpha, gctx);

                    // softmax_rows: ds = α ⊙ (dα − ⟨dα, α⟩).
                    let dot: f32 = dweights.iter().zip(alpha).map(|(&gi, &pi)| gi * pi).sum();
                    for ((gs, &p), &dw) in gscores.iter_mut().zip(alpha).zip(&*dweights) {
                        *gs = p * (dw - dot);
                    }

                    // attn_scores: gdproj and gv sum over j from +0.0.
                    gdproj.fill(0.0);
                    gv.fill(0.0);
                    let assign = proj_fresh[s] && i == t_s - 1;
                    let act = &cache.act.as_slice()[a_end..a_end + t_s * ad];
                    for (j, (act_row, &gj)) in act.chunks_exact(ad).zip(&*gscores).enumerate() {
                        let mut gproj_row = proj_slot.as_mut().map(|m| m.row_mut(j));
                        for a in 0..ad {
                            let u = act_row[a];
                            let dpre = gj * v_col[a] * (1.0 - u * u);
                            if let Some(row) = &mut gproj_row {
                                if assign {
                                    row[a] = dpre;
                                } else {
                                    row[a] += dpre;
                                }
                            }
                            gdproj[a] += dpre;
                            if u != 0.0 {
                                gv[a] += u * gj;
                            }
                        }
                    }
                    if let Some(slot) = s_v.as_mut() {
                        for (e, &x) in slot.as_mut_slice().iter_mut().zip(&*gv) {
                            *e += x;
                        }
                    }

                    // dproj = h_prev · w_dec.
                    ga_dproj.fill(0.0);
                    strided_sweep(ga_dproj, gdproj, wt_dec, hd);
                    add_outer(s_w_dec, h_prev, gdproj);

                    // slice_rows(enc, i, i + 1).
                    if let Some(slot) = &mut enc_slot {
                        for (e, &x) in slot.row_mut(i).iter_mut().zip(grow) {
                            *e += x;
                        }
                    }
                    last = false;
                }
                if enc_slot.is_some() {
                    self.grads[enc.0] = enc_slot;
                }
                if proj_slot.is_some() {
                    self.grads[proj.0] = proj_slot;
                }
            }
        }
        for (p, slot) in params.into_iter().zip(slots) {
            if slot.is_some() {
                self.grads[p.0] = slot;
            }
        }
        // The initial state receives the LSTM's term, then the query
        // projection's, like any `h`.
        self.accumulate(h0, dh_rec);
        self.accumulate(h0, ga_dproj);
        self.accumulate(c0, dc_rec);
        self.recycle(scratch);
        self.recycle(enc_t);
    }
}
