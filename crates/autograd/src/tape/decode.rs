//! The fused attention decoder: [`Tape::attn_decode`] and its reverse
//! sweep.
//!
//! One node stands for the whole decode loop of a seq2seq placer — per
//! placed op an attention read, an LSTM step and the device head. Both
//! directions perform, per output element and per gradient slot, the
//! same f32 operations in the same order as the op-by-op chain they
//! replace (DESIGN §5j has the slot-by-slot table), so values and
//! gradients are bit-identical to it on every kernel backend: all
//! vector work goes through the dispatched `mars_tensor::simd` kernels.

use super::lstm::{lstm_gate_grads, lstm_step};
use super::{record_parts, Tape, Var};
use crate::ops::{AttnDecodeCache, Op};
use mars_tensor::simd::{attn_score_grads, attn_scores, product, tanh_inplace, Coeffs, ProjGrad};
use mars_tensor::{pool, stats, Matrix};
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
    /// exactly as the primitive-op chain `matmul → add_bias → tanh →
    /// matmul → transpose → softmax_rows → matmul → concat_cols → LSTM
    /// step → matmul → add_bias` would (the `mars-oracle` crate records
    /// it, the LSTM step as `matmul`s, gate slices, `sigmoid`/`tanh` and
    /// `mul`/`add`), in one node instead of three dozen per step. The
    /// reverse sweep adds every gradient term into its parent's slot in
    /// place; that equals the chain's accumulation provided nothing
    /// recorded after this node has left a `-0.0` in a slot of
    /// `params`, `enc` or `proj` — true whenever the decoder is the last
    /// consumer of its inputs.
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
        let mut enc_w = self.alloc_zeros(t_max, 4 * hd);
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

            // The input projection's `w_ih` rows: encoder half, context half.
            let (w_ih_enc, w_ih_ctx) = w_ih_m.as_slice().split_at(ed * 4 * hd);

            let mut step = 0;
            for &(enc, proj) in segs {
                let (enc_m, proj_m) = (self.value(enc), self.value(proj));
                // Every step's `enc_i · W_ih[:E]` at once: each element
                // adds the same terms in the same ascending order as the
                // step's whole `[enc_i ‖ context] · W_ih` would before
                // reaching the context half.
                let enc_w = &mut enc_w.as_mut_slice()[..enc_m.rows() * 4 * hd];
                enc_w.fill(0.0);
                product(enc_w, 4 * hd, Coeffs::rows(enc_m.as_slice(), ed), w_ih_enc, 4 * hd);
                for i in 0..enc_m.rows() {
                    let r = if keep { step } else { 0 };
                    // dproj = h · w_dec, then the score row
                    // s_j = Σ_a tanh(proj[j][a] + dproj[a]) · v[a]
                    // (ascending a, zero activations adding +0.0).
                    dproj.fill(0.0);
                    product(dproj, ad, Coeffs::row(h_prev), w_dec_m.as_slice(), ad);
                    if !keep {
                        act.clear();
                        weights.clear();
                    }
                    let (a0, w0) = (act.len(), weights.len());
                    for proj_row in proj_m.rows_iter() {
                        act.extend(proj_row.iter().zip(&*dproj).map(|(&p, &d)| p + d));
                    }
                    tanh_inplace(&mut act[a0..]);
                    weights.resize(w0 + proj_m.rows(), 0.0);
                    attn_scores(&mut weights[w0..], &act[a0..], v_col);
                    stats::softmax_inplace(&mut weights[w0..]);
                    // [enc_i ‖ context], context = α · enc.
                    let (row, context) = dec_in.row_mut(r).split_at_mut(ed);
                    row.copy_from_slice(enc_m.row(i));
                    context.fill(0.0);
                    product(context, ed, Coeffs::row(&weights[w0..]), enc_m.as_slice(), ed);
                    // One LSTM step on it: the context half of the
                    // input projection goes on top of the encoder half.
                    xw.copy_from_slice(&enc_w[i * 4 * hd..(i + 1) * 4 * hd]);
                    product(xw, 4 * hd, Coeffs::row(context), w_ih_ctx, 4 * hd);
                    lstm_step(hw, xw, w_hh_m, b_row, h_prev, c_prev, &mut gates, r);
                    h_all.row_mut(r).copy_from_slice(h_prev);
                    // Device head.
                    let y = logits.row_mut(step);
                    product(y, nd, Coeffs::row(h_prev), head_w_m.as_slice(), nd);
                    for (e, &bv) in y.iter_mut().zip(head_b_row) {
                        *e += bv;
                    }
                    step += 1;
                }
            }
        }
        self.recycle(scratch);
        self.recycle(enc_w);
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
    /// projection, encoder-row slice). Only the recurrence runs per
    /// step: the weight gradients' rank-1 terms, the `enc_out` gradient
    /// and `grow = dz·W_ih[:E]ᵀ` are recorded per step and replayed once
    /// per segment, each slot element receiving the same terms in the
    /// same (descending step) order. The replay of segment s runs on a
    /// pool lane while the sweep of segment s − 1 fills a second record:
    /// the sweep writes only `head_b`, `v`, `proj` and its carries, the
    /// replay only `w_ih`, `w_hh`, `b`, `w_dec`, `head_w` and `enc_out`,
    /// and one replay ends before the next is posted.
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
        let (ed, nd) = (cache.dec_in.cols() / 2, g.cols());
        let t_max = segs.iter().map(|&(enc, _)| self.value(enc).rows()).max().unwrap_or(0);
        let shape = RecordShape { hd, ad, ed, nd, t_max };

        // Every parameter slot is taken for the sweep and added to in
        // place; an empty one starts from zeros, so its first term is
        // the `0 + x` the chain would have assigned.
        let mut slots = params.map(|p| {
            self.rg(p).then(|| {
                let (r, c) = self.value(p).shape();
                self.grads[p.0].take().unwrap_or_else(|| self.alloc_zeros(r, c))
            })
        });
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
        let mut scratch = self.alloc_zeros(1, 2 * hd + ad + 2 * t_max);
        let mut enc_t = self.alloc_zeros(1, ed * t_max);
        // Two segments' records, row m = the m-th step visited (steps
        // descending): what the replay reads, in the order it adds.
        // `records[0]` is the one the sweep fills, `records[1]` the one
        // being replayed; they swap after every segment.
        let record_floats = t_max * shape.widths().iter().sum::<usize>();
        let mut records = [(); 2].map(|_| self.alloc_zeros(1, record_floats));
        for record in &mut records {
            let [.., ones] = record_parts(record.as_mut_slice(), t_max, shape.widths());
            ones.fill(1.0);
        }
        let at = [head_w, w_ih, w_hh, w_dec].map(|w| self.transposed(w));
        {
            let [wt_head, wt_ih, wt_hh, wt_dec] = at.map(|i| self.wt[i].1.as_slice());
            let nodes = &self.nodes;
            let v_col = nodes[v.0].value.as_slice();
            let [s_w_dec, s_v, s_w_ih, s_w_hh, s_b, s_head_w, s_head_b] = &mut slots;
            let [ga_head, dh, gv, dweights, gscores] =
                record_parts(scratch.as_mut_slice(), 1, [hd, hd, ad, t_max, t_max]);
            let (dh_rec, ga_dproj, dc_rec) =
                (dh_rec.as_mut_slice(), ga_dproj.as_mut_slice(), dc_rec.as_mut_slice());

            let mut step = cache.h.rows();
            let (mut w_end, mut a_end) = (cache.weights.len(), cache.act.len());
            let mut last = true;
            // The segment whose replay is due, with its `enc_out` slot.
            let mut pending: Option<(usize, Option<Matrix>)> = None;
            for (s, &(enc, proj)) in segs.iter().enumerate().rev() {
                let enc_m = &nodes[enc.0].value;
                let t_s = enc_m.rows();
                let mut proj_slot =
                    if nodes[proj.0].requires_grad { self.grads[proj.0].take() } else { None };
                let mut due = pending.take();
                let [record, replayed] = &mut records;
                let sweep = || {
                    let [dz_rows, dz_t, gdproj_rows, gctx_rows, h_prev_rows, h_rows, dec_in_rows, g_rows, alpha_t, ..] =
                        record_parts(record.as_mut_slice(), t_max, shape.widths());
                    // encᵀ, once per segment, for dweights = gctx · encᵀ.
                    let enc_t = &mut enc_t.as_mut_slice()[..ed * t_s];
                    for (j, enc_row) in enc_m.rows_iter().enumerate() {
                        for (k, &e) in enc_row.iter().enumerate() {
                            enc_t[k * t_s + j] = e;
                        }
                    }
                    let (dweights, gscores) = (&mut dweights[..t_s], &mut gscores[..t_s]);
                    for i in (0..t_s).rev() {
                        let m = t_s - 1 - i;
                        step -= 1;
                        w_end -= t_s;
                        a_end -= t_s * ad;
                        let g_row = g.row(step);
                        let (h_prev, c_prev) = match step {
                            0 => (nodes[h0.0].value.row(0), nodes[c0.0].value.row(0)),
                            _ => (cache.h.row(step - 1), cache.gates.c.row(step - 1)),
                        };
                        let row = |w: usize| m * w..(m + 1) * w;
                        h_prev_rows[row(hd)].copy_from_slice(h_prev);
                        h_rows[row(hd)].copy_from_slice(cache.h.row(step));
                        dec_in_rows[row(2 * ed)].copy_from_slice(cache.dec_in.row(step));
                        g_rows[row(nd)].copy_from_slice(g_row);

                        // Head: add_bias, then h · head_w (its weight term
                        // is replayed).
                        if let Some(slot) = s_head_b.as_mut() {
                            for (e, &gc) in slot.as_mut_slice().iter_mut().zip(g_row) {
                                *e += 0.0 + gc;
                            }
                        }
                        ga_head.fill(0.0);
                        product(ga_head, hd, Coeffs::row(g_row), wt_head, hd);

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

                        // The T = 1 LSTM rule (its own `dh_rec` starts at 0);
                        // `dz` is kept, transposed too for `grow`.
                        let dz = &mut dz_rows[m * 4 * hd..(m + 1) * 4 * hd];
                        lstm_gate_grads(dz, dc_rec, |k| dh[k] + 0.0, &cache.gates, step, c_prev);
                        for (k, &d) in dz.iter().enumerate() {
                            dz_t[k * t_s + i] = d;
                        }
                        let gctx = &mut gctx_rows[m * ed..(m + 1) * ed];
                        gctx.fill(0.0);
                        product(gctx, ed, Coeffs::row(dz), &wt_ih[ed..], 2 * ed);
                        dh_rec.fill(0.0);
                        product(dh_rec, hd, Coeffs::row(dz), wt_hh, hd);

                        // concat_cols, then context = α · enc.
                        let alpha = &cache.weights.as_slice()[w_end..w_end + t_s];
                        dweights.fill(0.0);
                        product(dweights, t_s, Coeffs::row(gctx), enc_t, t_s);
                        for (j, &a) in alpha.iter().enumerate() {
                            alpha_t[j * t_s + m] = a;
                        }

                        // softmax_rows: ds = α ⊙ (dα − ⟨dα, α⟩).
                        let dot: f32 = dweights.iter().zip(alpha).map(|(&gi, &pi)| gi * pi).sum();
                        for ((gs, &p), &dw) in gscores.iter_mut().zip(alpha).zip(&*dweights) {
                            *gs = p * (dw - dot);
                        }

                        // add_bias → tanh → matmul: gdproj and gv sum over j
                        // from +0.0.
                        let act = &cache.act.as_slice()[a_end..a_end + t_s * ad];
                        let gdproj = &mut gdproj_rows[m * ad..(m + 1) * ad];
                        let sink = match proj_slot.as_mut() {
                            None => ProjGrad::Skip,
                            Some(p) if proj_fresh[s] && i == t_s - 1 => {
                                ProjGrad::Assign(p.as_mut_slice())
                            }
                            Some(p) => ProjGrad::Add(p.as_mut_slice()),
                        };
                        attn_score_grads(act, gscores, v_col, gdproj, gv, sink);
                        if let Some(slot) = s_v.as_mut() {
                            for (e, &x) in slot.as_mut_slice().iter_mut().zip(&*gv) {
                                *e += x;
                            }
                        }

                        // dproj = h_prev · w_dec.
                        ga_dproj.fill(0.0);
                        product(ga_dproj, hd, Coeffs::row(gdproj), wt_dec, hd);
                        last = false;
                    }
                };
                let replay = || {
                    if let Some((sp, enc_slot)) = &mut due {
                        let t_sp = nodes[segs[*sp].0 .0].value.rows();
                        let weights =
                            [&mut *s_w_ih, &mut *s_w_hh, &mut *s_b, &mut *s_w_dec, &mut *s_head_w];
                        replay_segment(
                            replayed.as_mut_slice(),
                            t_sp,
                            shape,
                            wt_ih,
                            weights,
                            enc_slot.as_mut(),
                        );
                    }
                };
                pool::join(sweep, replay);
                if proj_slot.is_some() {
                    self.grads[proj.0] = proj_slot;
                }
                if let Some((sp, Some(slot))) = due {
                    self.grads[segs[sp].0 .0] = Some(slot);
                }
                let enc_slot =
                    if nodes[enc.0].requires_grad { self.grads[enc.0].take() } else { None };
                pending = Some((s, enc_slot));
                records.swap(0, 1);
            }
            if let Some((sp, mut enc_slot)) = pending {
                let t_sp = nodes[segs[sp].0 .0].value.rows();
                let weights = [s_w_ih, s_w_hh, s_b, s_w_dec, s_head_w];
                replay_segment(
                    records[1].as_mut_slice(),
                    t_sp,
                    shape,
                    wt_ih,
                    weights,
                    enc_slot.as_mut(),
                );
                if enc_slot.is_some() {
                    self.grads[segs[sp].0 .0] = enc_slot;
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
        let [record, replayed] = records;
        for m in [scratch, enc_t, record, replayed] {
            self.recycle(m);
        }
    }
}

/// Widths of one step's row in a decoder reverse-sweep record.
#[derive(Clone, Copy)]
struct RecordShape {
    hd: usize,
    ad: usize,
    ed: usize,
    nd: usize,
    t_max: usize,
}

impl RecordShape {
    /// `dz`, `dz` transposed, `gdproj`, `gctx`, `h_prev`, `h`,
    /// `[enc row ‖ context]`, `g`, `α` transposed, `grow`, and the
    /// bias's constant input 1.
    fn widths(self) -> [usize; 11] {
        let RecordShape { hd, ad, ed, nd, t_max } = self;
        [4 * hd, 4 * hd, ad, ed, hd, hd, 2 * ed, nd, t_max, ed, 1]
    }
}

/// Replay one `t_s`-step segment's record: the rank-1 terms of `w_ih`,
/// `w_hh`, `b`, `w_dec` and `head_w` (`weights`, in that order), steps
/// descending; then `grow = dz·W_ih[:E]ᵀ` and the `enc_out` rows.
fn replay_segment(
    record: &mut [f32],
    t_s: usize,
    shape: RecordShape,
    wt_ih: &[f32],
    weights: [&mut Option<Matrix>; 5],
    enc_slot: Option<&mut Matrix>,
) {
    let RecordShape { hd, ad, ed, nd, t_max } = shape;
    let [dz_rows, dz_t, gdproj_rows, gctx_rows, h_prev_rows, h_rows, dec_in_rows, g_rows, alpha_t, grow, ones] =
        record_parts(record, t_max, shape.widths());
    let [s_w_ih, s_w_hh, s_b, s_w_dec, s_head_w] = weights;
    let dz = &dz_rows[..t_s * 4 * hd];
    let hp = &h_prev_rows[..t_s * hd];
    for (slot, coeffs, terms, width) in [
        (s_w_ih, &dec_in_rows[..t_s * 2 * ed], dz, 4 * hd),
        (s_w_hh, hp, dz, 4 * hd),
        (s_b, &ones[..t_s], dz, 4 * hd),
        (s_w_dec, hp, &gdproj_rows[..t_s * ad], ad),
        (s_head_w, &h_rows[..t_s * hd], &g_rows[..t_s * nd], nd),
    ] {
        if let Some(slot) = slot {
            let coeffs = Coeffs::cols(coeffs, slot.rows(), t_s);
            product(slot.as_mut_slice(), width, coeffs, terms, width);
        }
    }
    // enc_out row j: the `α[j]·gctx` terms of steps ≥ j, the row's own
    // `grow` (slice_rows), then those of steps < j.
    if let Some(slot) = enc_slot {
        let grow = &mut grow[..t_s * ed];
        grow.fill(0.0);
        product(grow, ed, Coeffs::cols(dz_t, t_s, 4 * hd), wt_ih, 2 * ed);
        let rows = slot.as_mut_slice().chunks_exact_mut(ed).zip(grow.chunks_exact(ed));
        for (j, (out, gr)) in rows.enumerate() {
            let split = t_s - j;
            let (later, earlier) = alpha_t[j * t_s..(j + 1) * t_s].split_at(split);
            product(out, ed, Coeffs::row(later), gctx_rows, ed);
            for (e, &x) in out.iter_mut().zip(gr) {
                *e += x;
            }
            product(out, ed, Coeffs::row(earlier), &gctx_rows[split * ed..], ed);
        }
    }
}
