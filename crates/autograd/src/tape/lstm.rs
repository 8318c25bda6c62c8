//! The fused LSTM nodes and their reverse sweeps: [`Tape::lstm_seq`]
//! (one direction) and [`Tape::bilstm`] (both directions of a
//! bidirectional layer, run as two pool lanes).
//!
//! Both run the same per-direction bodies, [`lstm_forward`] and
//! [`LstmBptt::run`]; a direction that reads its input backwards only
//! maps step `t` to input row `T − 1 − t`. So there is one copy of the
//! LSTM math, and the bidirectional node is bit-identical to the
//! `gather_rows → lstm_seq → slice_rows → gather_rows → concat_cols`
//! chain it replaces (DESIGN §5i).

use super::{record_parts, Tape, Var};
use crate::ops::{LstmCache, Op};
use mars_tensor::ops::matmul_into;
use mars_tensor::simd::{product, tanh_inplace, Coeffs};
use mars_tensor::{pool, stats, Matrix};
use std::sync::Arc;

/// One LSTM step over the fused `[i|f|g|o]` gate block, shared by the
/// LSTM nodes and [`Tape::attn_decode`]: `hw` (a `4H` scratch row)
/// becomes `z = (x·W_ih + h_prev·W_hh) + b` from the precomputed
/// `xw = x·W_ih`, the activations land in row `t` of `cache`, and
/// `h_prev`/`c_prev` are replaced by `h_t`/`c_t`.
#[allow(clippy::too_many_arguments)]
pub(super) fn lstm_step(
    hw: &mut [f32],
    xw: &[f32],
    w_hh: &Matrix,
    b: &[f32],
    h_prev: &mut [f32],
    c_prev: &mut [f32],
    cache: &mut LstmCache,
    t: usize,
) {
    let hd = h_prev.len();
    hw.fill(0.0);
    product(hw, 4 * hd, Coeffs::row(h_prev), w_hh.as_slice(), 4 * hd);
    for j in 0..4 * hd {
        hw[j] = (xw[j] + hw[j]) + b[j];
    }
    // Candidate gate tanh as one batch kernel call; the sigmoid gates
    // stay per-element (libm exp is cheap).
    tanh_inplace(&mut hw[2 * hd..3 * hd]);
    for k in 0..hd {
        let ig = stats::sigmoid(hw[k]);
        let fg = stats::sigmoid(hw[hd + k]);
        let gg = hw[2 * hd + k];
        let og = stats::sigmoid(hw[3 * hd + k]);
        let c = fg * c_prev[k] + ig * gg;
        cache.i.set(t, k, ig);
        cache.f.set(t, k, fg);
        cache.g.set(t, k, gg);
        cache.o.set(t, k, og);
        cache.c.set(t, k, c);
        c_prev[k] = c;
    }
    // tanh(c_t) for the whole row, then h_t = o ⊙ tanh(c_t).
    let tc_row = cache.tanh_c.row_mut(t);
    tc_row.copy_from_slice(c_prev);
    tanh_inplace(tc_row);
    for (k, hp) in h_prev.iter_mut().enumerate() {
        *hp = cache.o.get(t, k) * cache.tanh_c.get(t, k);
    }
}

/// The gate half of one reverse LSTM step, shared by the LSTM nodes and
/// [`Op::AttnDecode`]: from the gradient `dh(k)` on `h_t` and the carry
/// in `dc_rec` (the gradient on `c_t`), fill the pre-activation
/// gradient `dz` (`4H`) and leave the gradient on `c_{t-1}` in `dc_rec`.
pub(super) fn lstm_gate_grads(
    dz: &mut [f32],
    dc_rec: &mut [f32],
    dh: impl Fn(usize) -> f32,
    cache: &LstmCache,
    t: usize,
    c_prev: &[f32],
) {
    let hd = dc_rec.len();
    for k in 0..hd {
        let dh = dh(k);
        let o = cache.o.get(t, k);
        let tc = cache.tanh_c.get(t, k);
        let i = cache.i.get(t, k);
        let f = cache.f.get(t, k);
        let gg = cache.g.get(t, k);
        let dc = dh * o * (1.0 - tc * tc) + dc_rec[k];
        dz[k] = dc * gg * i * (1.0 - i);
        dz[hd + k] = dc * c_prev[k] * f * (1.0 - f);
        dz[2 * hd + k] = dc * i * (1.0 - gg * gg);
        dz[3 * hd + k] = dh * tc * o * (1.0 - o);
        dc_rec[k] = dc * f;
    }
}

/// Steps of an LSTM reverse sweep recorded before their weight-gradient
/// terms and `dx` rows are replayed: bounds the record to one placer
/// segment's worth however long the sequence.
const LSTM_REPLAY_STEPS: usize = 32;

/// Widths of one recorded step: `dz`, `dz` transposed, `x`, `h_prev`
/// and the bias's constant input 1.
fn record_widths(in_dim: usize, hd: usize) -> [usize; 5] {
    [4 * hd, 4 * hd, in_dim, hd, 1]
}

/// Floats of one direction's reverse-sweep record.
fn record_len(t_len: usize, in_dim: usize, hd: usize) -> usize {
    t_len.min(LSTM_REPLAY_STEPS) * record_widths(in_dim, hd).iter().sum::<usize>()
}

/// The input row step `t` of a `t_len`-step direction reads.
fn src(rev: bool, t_len: usize, t: usize) -> usize {
    if rev {
        t_len - 1 - t
    } else {
        t
    }
}

/// What one direction's forward sweep reads: the input (`T × F`), the
/// fused gate weights, and whether its steps take the rows backwards.
#[derive(Clone, Copy)]
struct LstmIn<'a> {
    x: &'a Matrix,
    w_ih: &'a Matrix,
    w_hh: &'a Matrix,
    b: &'a [f32],
    rev: bool,
}

/// Forward sweep of one LSTM direction from `(h0, c)`. `xw` is scratch
/// for `x·W_ih` (`T × 4H`, input order — a reversed direction reads its
/// rows backwards, which is the product of the reversed input row for
/// row); `hs` (`T × H`) receives `h_t` in step order, `cache` step `t`'s
/// gate activations in row `t`, and `c` is left holding `c_T`.
fn lstm_forward(
    w: LstmIn<'_>,
    h0: &[f32],
    c: &mut [f32],
    xw: &mut Matrix,
    cache: &mut LstmCache,
    hs: &mut [f32],
) {
    let t_len = w.x.rows();
    let hd = c.len();
    // One matmul computes x·W_ih for all four gates of the whole
    // sequence; the recurrent h·W_hh term is a single-row product per
    // step. Per element the arithmetic is the matmul's (ascending k with
    // the zero skip), so the fused loop is bit-identical to the matmul
    // it replaces.
    matmul_into(w.x, w.w_ih, xw);
    let mut h_prev = h0.to_vec();
    let mut hw = vec![0.0f32; 4 * hd]; // reusable 1 × 4H scratch
    for (t, h_row) in hs.chunks_exact_mut(hd).enumerate() {
        let xw_row = xw.row(src(w.rev, t_len, t));
        lstm_step(&mut hw, xw_row, w.w_hh, w.b, &mut h_prev, c, cache, t);
        h_row.copy_from_slice(&h_prev);
    }
}

/// What one direction's reverse sweep reads. Step `t`'s gradient and
/// hidden state are `H` columns from `col` of row `src(t)` of the node's
/// gradient `g` and value `out`.
struct LstmBptt<'a> {
    x: &'a Matrix,
    rev: bool,
    /// `W_ihᵀ` and `W_hhᵀ`.
    wt_ih: &'a [f32],
    wt_hh: &'a [f32],
    g: &'a Matrix,
    out: &'a Matrix,
    col: usize,
    h0: &'a [f32],
    c0: &'a [f32],
    cache: &'a LstmCache,
}

/// Where one direction's reverse sweep writes. `dh_rec`/`dc_rec`
/// (`1 × H`) come in holding the gradients on `h_T` (added to step
/// `T − 1`'s `dh`) and `c_T`, and leave holding those on `h_0` and
/// `c_0`.
struct LstmGrads<'a> {
    dh_rec: &'a mut Matrix,
    dc_rec: &'a mut Matrix,
    /// `[w_ih, w_hh, b]`, `None` where no gradient is required.
    sums: &'a mut [Option<Matrix>; 3],
    /// `dx`, `T × F` in input order, zeroed.
    gx: &'a mut Matrix,
    /// [`record_len`] floats of scratch.
    record: &'a mut Matrix,
}

impl LstmBptt<'_> {
    fn row<'m>(&self, m: &'m Matrix, t: usize, hd: usize) -> &'m [f32] {
        &m.row(src(self.rev, self.x.rows(), t))[self.col..self.col + hd]
    }

    /// Sweep the steps backwards. Only the recurrence (`dz`, then
    /// `dh_{t-1} = dz · W_hhᵀ` as a sweep over the cached transpose)
    /// runs per step; the weight gradients' rank-1 terms and
    /// `dx = dz · W_ihᵀ` are recorded and replayed per chunk of
    /// [`LSTM_REPLAY_STEPS`] steps, each slot element receiving the same
    /// terms in the same (descending step) order.
    fn run(&self, out: LstmGrads<'_>) {
        let LstmGrads { dh_rec, dc_rec, sums, gx, record } = out;
        let (dh_rec, dc_rec) = (dh_rec.as_mut_slice(), dc_rec.as_mut_slice());
        let (t_len, in_dim) = self.x.shape();
        let hd = dh_rec.len();
        // One chunk's record, row m = the m-th step visited (steps
        // descending), and `dz` transposed for `dx`.
        let chunk = t_len.min(LSTM_REPLAY_STEPS);
        let [dz_rows, dz_t, x_rows, h_prev_rows, ones] =
            record_parts(record.as_mut_slice(), chunk, record_widths(in_dim, hd));
        ones.fill(1.0);
        let mut t1 = t_len;
        while t1 > 0 {
            let t0 = t1.saturating_sub(chunk);
            let n = t1 - t0;
            // The chunk's steps read input rows lo..lo + n.
            let lo = if self.rev { t_len - t1 } else { t0 };
            for t in (t0..t1).rev() {
                let m = t1 - 1 - t;
                let (c_prev, h_prev) = match t {
                    0 => (self.c0, self.h0),
                    _ => (self.cache.c.row(t - 1), self.row(self.out, t - 1, hd)),
                };
                let dz = &mut dz_rows[m * 4 * hd..(m + 1) * 4 * hd];
                let g_row = self.row(self.g, t, hd);
                let dh = |k: usize| g_row[k] + dh_rec[k];
                lstm_gate_grads(dz, dc_rec, dh, self.cache, t, c_prev);
                let r = src(self.rev, t_len, t);
                for (k, &d) in dz.iter().enumerate() {
                    dz_t[k * n + (r - lo)] = d;
                }
                x_rows[m * in_dim..(m + 1) * in_dim].copy_from_slice(self.x.row(r));
                h_prev_rows[m * hd..(m + 1) * hd].copy_from_slice(h_prev);
                dh_rec.fill(0.0);
                product(dh_rec, hd, Coeffs::row(dz), self.wt_hh, hd);
            }
            // Parameter gradients: outer products with the step inputs
            // (the bias's input is the constant 1), steps descending;
            // then dx = dz · W_ihᵀ.
            let dz = &dz_rows[..n * 4 * hd];
            let inputs = [&x_rows[..n * in_dim], &h_prev_rows[..n * hd], &ones[..n]];
            for (sum, input) in sums.iter_mut().zip(inputs) {
                if let Some(sum) = sum {
                    let input = Coeffs::cols(input, input.len() / n, n);
                    product(sum.as_mut_slice(), 4 * hd, input, dz, 4 * hd);
                }
            }
            let gx_rows = &mut gx.as_mut_slice()[lo * in_dim..(lo + n) * in_dim];
            product(gx_rows, in_dim, Coeffs::cols(dz_t, n, 4 * hd), self.wt_ih, in_dim);
            t1 = t0;
        }
    }
}

impl Tape {
    /// Check one direction's gate parameters against `x`; returns `H`.
    fn lstm_hidden(&self, x: Var, [w_ih, w_hh, b]: [Var; 3]) -> usize {
        let (t_len, in_dim) = self.value(x).shape();
        let hd4 = self.value(w_ih).cols();
        assert_eq!(self.value(w_ih).rows(), in_dim, "w_ih shape mismatch");
        assert!(hd4.is_multiple_of(4), "w_ih width must be 4·H");
        let hd = hd4 / 4;
        assert_eq!(self.value(w_hh).shape(), (hd, hd4), "w_hh shape mismatch");
        assert_eq!(self.value(b).shape(), (1, hd4), "bias shape mismatch");
        assert!(t_len > 0, "empty sequence");
        hd
    }

    /// Where one direction's weight gradients sum up. One step (a
    /// `T = 1` node) contributes a single rank-1 term per weight,
    /// so it adds straight into the taken slot: `slot + (0 + x·dz)` is
    /// `slot + x·dz` bit for bit unless both `slot` and `x·dz` are
    /// `-0.0`, and a weight's slot never is — whatever reaches it (this
    /// rule, `matmul_tn`) is a sum that began at `+0.0`. Longer sequences
    /// sum locally first, as `slot + Σ_t` associates. Either way the sum
    /// goes back through [`Tape::accumulate`].
    fn lstm_sums(&mut self, ws: [Var; 3], t_len: usize) -> [Option<Matrix>; 3] {
        ws.map(|w| {
            self.rg(w).then(|| {
                let slot = if t_len == 1 { self.grads[w.0].take() } else { None };
                let (r, c) = self.value(w).shape();
                slot.unwrap_or_else(|| self.alloc_zeros(r, c))
            })
        })
    }

    /// Fused LSTM over a whole sequence (hand-written BPTT).
    ///
    /// `x` is `T × F`; `w_ih`/`w_hh`/`b` are the fused gate parameters
    /// (`F × 4H`, `H × 4H`, `1 × 4H`, gate order `[i|f|g|o]`);
    /// `h0`/`c0` the initial state (`1 × H`). Returns `(T+1) × H`: rows
    /// `0..T` are hidden states, row `T` is the final cell state.
    ///
    /// Replaces ~25 recorded ops per timestep with a single node —
    /// the difference between minutes and hours at paper-scale widths.
    pub fn lstm_seq(&mut self, x: Var, w_ih: Var, w_hh: Var, b: Var, h0: Var, c0: Var) -> Var {
        let t_len = self.value(x).rows();
        let hd = self.lstm_hidden(x, [w_ih, w_hh, b]);
        assert_eq!(self.value(h0).shape(), (1, hd), "h0 shape mismatch");
        assert_eq!(self.value(c0).shape(), (1, hd), "c0 shape mismatch");

        let mut xw = self.alloc_zeros(t_len, 4 * hd);
        let mut cache = self.alloc_lstm_cache(t_len, hd);
        let mut out = self.alloc_zeros(t_len + 1, hd);
        {
            // Rows 0..T take the hidden states, row T the final cell state.
            let (hs, c) = out.as_mut_slice().split_at_mut(t_len * hd);
            c.copy_from_slice(self.value(c0).row(0));
            let w = LstmIn {
                x: self.value(x),
                w_ih: self.value(w_ih),
                w_hh: self.value(w_hh),
                b: self.value(b).row(0),
                rev: false,
            };
            lstm_forward(w, self.value(h0).row(0), c, &mut xw, &mut cache, hs);
        }

        self.recycle(xw);
        if !self.record {
            // Inference: the gate caches exist only for BPTT — recycle
            // their buffers instead of threading them through `push`
            // (which would drop them on the floor).
            self.recycle_lstm_cache(cache);
            return self.push(out, Op::Leaf, false);
        }
        let rg = [x, w_ih, w_hh, b, h0, c0].iter().any(|&v| self.rg(v));
        self.push(out, Op::LstmSeq { x, w_ih, w_hh, b, h0, c0, cache: Arc::new(cache) }, rg)
    }

    /// Both directions of a bidirectional LSTM layer over `x` (`T × F`)
    /// as one node, the reversed direction on a pool lane beside the
    /// forward one (forward and reverse sweep alike).
    ///
    /// `fwd`/`bwd` are each direction's `[w_ih, w_hh, b]` (distinct
    /// parameters, shapes as in [`Tape::lstm_seq`]); `carry`, when
    /// given, is a `1 × 2H` row `[h0 ‖ c0]` seeding the forward
    /// direction, which otherwise starts from zeros like the reversed
    /// one always does. Returns `(T+1) × 2H`: row `t < T` is
    /// `[h_fwd(t) ‖ h_bwd(t)]` (the reversed direction's output
    /// un-reversed), row `T` is the forward direction's final
    /// `[h ‖ c]` — the next segment's `carry`.
    ///
    /// Values and gradients are bit-identical to `lstm_seq` on `x`,
    /// `gather_rows` reversing `x` into a second `lstm_seq` and back,
    /// `concat_cols` of the two hidden blocks, and the carry taken as
    /// `slice_rows` of the forward output — provided the carry's
    /// gradient arrives before that of rows `0..T`, which holds when the
    /// caller slices rows `0..T` first and the carry second.
    pub fn bilstm(&mut self, x: Var, fwd: [Var; 3], bwd: [Var; 3], carry: Option<Var>) -> Var {
        let t_len = self.value(x).rows();
        let hd = self.lstm_hidden(x, fwd);
        assert_eq!(self.lstm_hidden(x, bwd), hd, "bilstm: the directions' widths differ");
        if let Some(carry) = carry {
            assert_eq!(self.value(carry).shape(), (1, 2 * hd), "bilstm: carry shape mismatch");
        }

        let mut xw = [(); 2].map(|_| self.alloc_zeros(t_len, 4 * hd));
        let mut caches = [(); 2].map(|_| self.alloc_lstm_cache(t_len, hd));
        let mut hs = [(); 2].map(|_| self.alloc_zeros(t_len, hd));
        let mut cs = [(); 2].map(|_| self.alloc_zeros(1, hd));
        let mut out = self.alloc_zeros(t_len + 1, 2 * hd);
        {
            let zero = vec![0.0f32; hd];
            let h0 = match carry {
                Some(carry) => {
                    let row = self.value(carry).row(0);
                    cs[0].as_mut_slice().copy_from_slice(&row[hd..]);
                    &row[..hd]
                }
                None => &zero[..],
            };
            let [w_f, w_b] = [(fwd, false), (bwd, true)].map(|([w_ih, w_hh, b], rev)| LstmIn {
                x: self.value(x),
                w_ih: self.value(w_ih),
                w_hh: self.value(w_hh),
                b: self.value(b).row(0),
                rev,
            });
            let ([xw_f, xw_b], [cache_f, cache_b]) = (&mut xw, &mut caches);
            let ([hs_f, hs_b], [c_f, c_b]) = (&mut hs, &mut cs);
            pool::join(
                || lstm_forward(w_f, h0, c_f.as_mut_slice(), xw_f, cache_f, hs_f.as_mut_slice()),
                || lstm_forward(w_b, &zero, c_b.as_mut_slice(), xw_b, cache_b, hs_b.as_mut_slice()),
            );
            for t in 0..t_len {
                let (f, b) = out.row_mut(t).split_at_mut(hd);
                f.copy_from_slice(hs_f.row(t));
                b.copy_from_slice(hs_b.row(t_len - 1 - t));
            }
            let (h, c) = out.row_mut(t_len).split_at_mut(hd);
            h.copy_from_slice(hs_f.row(t_len - 1));
            c.copy_from_slice(c_f.row(0));
        }
        for m in xw.into_iter().chain(hs).chain(cs) {
            self.recycle(m);
        }
        if !self.record {
            for cache in caches {
                self.recycle_lstm_cache(cache);
            }
            return self.push(out, Op::Leaf, false);
        }
        let rg = std::iter::once(x).chain(fwd).chain(bwd).chain(carry).any(|v| self.rg(v));
        self.push(out, Op::BiLstm { x, fwd, bwd, carry, cache: Arc::new(caches) }, rg)
    }

    /// Reverse sweep of [`Op::LstmSeq`] node `i`.
    pub(super) fn lstm_seq_backward(
        &mut self,
        i: usize,
        g: &Matrix,
        [x, w_ih, w_hh, b, h0, c0]: [Var; 6],
        cache: &LstmCache,
    ) {
        // All scratch comes from the arena and all reads borrow node
        // values in place.
        let (t_len, in_dim) = self.value(x).shape();
        let hd = self.value(h0).cols();
        let mut gx = self.alloc_zeros(t_len, in_dim);
        // Recurrent carries: dh from t+1's gates, dc from t+1's forget
        // path (seeded by the grad on c_T).
        let mut dh_rec = self.alloc_zeros(1, hd);
        let mut dc_rec = self.alloc_zeros(1, hd);
        dc_rec.as_mut_slice().copy_from_slice(g.row(t_len));
        let mut sums = self.lstm_sums([w_ih, w_hh, b], t_len);
        let mut record = self.alloc_zeros(1, record_len(t_len, in_dim, hd));
        let (wt_ih, wt_hh) = (self.transposed(w_ih), self.transposed(w_hh));
        LstmBptt {
            x: &self.nodes[x.0].value,
            rev: false,
            wt_ih: self.wt[wt_ih].1.as_slice(),
            wt_hh: self.wt[wt_hh].1.as_slice(),
            g,
            out: &self.nodes[i].value,
            col: 0,
            h0: self.nodes[h0.0].value.row(0),
            c0: self.nodes[c0.0].value.row(0),
            cache,
        }
        .run(LstmGrads {
            dh_rec: &mut dh_rec,
            dc_rec: &mut dc_rec,
            sums: &mut sums,
            gx: &mut gx,
            record: &mut record,
        });
        self.accumulate(x, gx);
        for (w, sum) in [w_ih, w_hh, b].into_iter().zip(sums) {
            if let Some(sum) = sum {
                self.accumulate(w, sum);
            }
        }
        self.accumulate(h0, dh_rec);
        self.accumulate(c0, dc_rec);
        self.recycle(record);
    }

    /// Reverse sweep of [`Op::BiLstm`] node `i`: the two directions'
    /// BPTT on two lanes, then their gradients delivered in the order
    /// the replaced chain swept them — the reversed direction first
    /// (its `x` term through the `gather_rows` scatter, `0 +` a sum
    /// that began at `+0.0`, hence its own bits), then the forward one.
    pub(super) fn bilstm_backward(
        &mut self,
        i: usize,
        g: &Matrix,
        (x, fwd, bwd, carry): (Var, [Var; 3], [Var; 3], Option<Var>),
        caches: &[LstmCache; 2],
    ) {
        let (t_len, in_dim) = self.value(x).shape();
        let hd = caches[0].c.cols();
        let mut gx = [(); 2].map(|_| self.alloc_zeros(t_len, in_dim));
        let mut dh = [(); 2].map(|_| self.alloc_zeros(1, hd));
        let mut dc = [(); 2].map(|_| self.alloc_zeros(1, hd));
        // Row T is the carry's gradient: the forward direction's `h_T`
        // and `c_T` terms. Adding the first to step T−1's `dh` equals
        // the chain's `(0 + carry_h) + h_{T-1}` slot: both sums are
        // never `-0.0`, so a `±0` term in either changes nothing.
        let (carry_h, carry_c) = g.row(t_len).split_at(hd);
        dh[0].as_mut_slice().copy_from_slice(carry_h);
        dc[0].as_mut_slice().copy_from_slice(carry_c);
        let mut sums = [self.lstm_sums(fwd, t_len), self.lstm_sums(bwd, t_len)];
        let mut records = [(); 2].map(|_| self.alloc_zeros(1, record_len(t_len, in_dim, hd)));
        let wt = [fwd, bwd].map(|[w_ih, w_hh, _]| (self.transposed(w_ih), self.transposed(w_hh)));
        {
            let zero = vec![0.0f32; hd];
            let (h0, c0) = match carry {
                Some(carry) => self.nodes[carry.0].value.row(0).split_at(hd),
                None => (&zero[..], &zero[..]),
            };
            let [sweep_f, sweep_b] = [(0, false), (1, true)].map(|(d, rev)| LstmBptt {
                x: &self.nodes[x.0].value,
                rev,
                wt_ih: self.wt[wt[d].0].1.as_slice(),
                wt_hh: self.wt[wt[d].1].1.as_slice(),
                g,
                out: &self.nodes[i].value,
                col: d * hd,
                h0: if rev { &zero } else { h0 },
                c0: if rev { &zero } else { c0 },
                cache: &caches[d],
            });
            let ([gx_f, gx_b], [sums_f, sums_b]) = (&mut gx, &mut sums);
            let ([dh_f, dh_b], [dc_f, dc_b], [rec_f, rec_b]) = (&mut dh, &mut dc, &mut records);
            let grads_f =
                LstmGrads { dh_rec: dh_f, dc_rec: dc_f, sums: sums_f, gx: gx_f, record: rec_f };
            let grads_b =
                LstmGrads { dh_rec: dh_b, dc_rec: dc_b, sums: sums_b, gx: gx_b, record: rec_b };
            pool::join(|| sweep_f.run(grads_f), || sweep_b.run(grads_b));
        }
        let [gx_f, gx_b] = gx;
        let [sums_f, sums_b] = sums;
        for (gx, ws, sums) in [(gx_b, bwd, sums_b), (gx_f, fwd, sums_f)] {
            self.accumulate(x, gx);
            for (w, sum) in ws.into_iter().zip(sums) {
                if let Some(sum) = sum {
                    self.accumulate(w, sum);
                }
            }
        }
        let [dh_f, dh_b] = dh;
        let [dc_f, dc_b] = dc;
        if let Some(carry) = carry {
            let mut gc = self.alloc_zeros(1, 2 * hd);
            let (h, c) = gc.as_mut_slice().split_at_mut(hd);
            h.copy_from_slice(dh_f.as_slice());
            c.copy_from_slice(dc_f.as_slice());
            self.accumulate(carry, gc);
        }
        // The reversed direction starts from constant zeros.
        for m in [dh_f, dh_b, dc_f, dc_b].into_iter().chain(records) {
            self.recycle(m);
        }
    }
}
