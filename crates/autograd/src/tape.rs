//! The Wengert-list tape: forward builders and the reverse sweep.

use crate::ops::{LstmCache, Op};
use mars_tensor::ops::{
    matmul_into, matmul_nt_into, matmul_nt_packed_into, matmul_tn_into, CsrMatrix,
};
use mars_tensor::simd::{axpy, strided_sweep, tanh_inplace};
use mars_tensor::{stats, Matrix};
use std::sync::Arc;

mod decode;

/// Handle to a value recorded on a [`Tape`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

struct Node {
    value: Matrix,
    op: Op,
    requires_grad: bool,
}

/// A single-forward-pass gradient tape.
///
/// Typical usage:
/// ```
/// use mars_autograd::Tape;
/// use mars_tensor::Matrix;
///
/// let mut t = Tape::new();
/// let x = t.leaf(Matrix::from_vec(1, 2, vec![1.0, 2.0]), true);
/// let w = t.leaf(Matrix::from_vec(2, 1, vec![0.5, -0.5]), true);
/// let y = t.matmul(x, w);
/// let loss = t.mean_all(y);
/// t.backward(loss);
/// let gw = t.grad(w).unwrap();
/// assert_eq!(gw.as_slice(), &[1.0, 2.0]);
/// ```
pub struct Tape {
    nodes: Vec<Node>,
    grads: Vec<Option<Matrix>>,
    /// `true` for training tapes ([`Tape::new`]): ops and grad flags
    /// are recorded for [`Tape::backward`]. `false` for inference
    /// tapes ([`Tape::inference`]): every node is stored as a gradless
    /// [`Op::Leaf`], so backward caches (LSTM gate matrices, attention
    /// activations) are dropped the moment the forward value exists.
    record: bool,
    /// Scratch buffers recycled during the current pass, handed back
    /// out by the pooled builders and backward rules before `stock` is
    /// touched — forwards *and* backwards after the first run are
    /// allocation-free on the hot path (the training scratch arena).
    pool: Vec<Vec<f32>>,
    /// What the previous pass left behind: every node value, gradient
    /// and scratch buffer [`Tape::reset_for_reuse`] harvested. A buffer
    /// still here at the next reset went unused for a whole pass and is
    /// freed, so a tape that serves graphs of different sizes holds one
    /// pass's worth of memory, not the largest of each shape it has seen.
    stock: Vec<Vec<f32>>,
    /// Largest total f32 capacity a [`Tape::reset_for_reuse`] has ever
    /// kept as `stock` — exported as the `autograd.arena.high_water`
    /// gauge on every reset.
    high_water: usize,
    /// Buffers the last [`Tape::reset_for_reuse`] was handed, before the
    /// [`MAX_POOLED_BUFS`] cap.
    retired: usize,
    /// Transposed weights `(w, wᵀ)` of the current backward pass, so
    /// every `dY·Wᵀ` after the first reads `Wᵀ` instead of packing it
    /// again (one decoder weight serves 528 steps of a gnmt4 pass).
    /// Filled on first use, retired with the gradients. A `Vec` scanned
    /// linearly: a pass touches a handful of weights, and an empty one
    /// costs the per-request `Tape::inference()` nothing.
    wt: Vec<(Var, Matrix)>,
}

/// Upper bound on the recycled buffers of one generation (`pool`,
/// and so the `stock` it becomes), which keeps the linear best-candidate
/// scan in [`Tape::take_buf_empty`] short. Idle memory is bounded by the
/// two generations, not by this count. A pass that retires more has the
/// overflow — the gradients and transposed weights, retired last — freed
/// and allocated again every update: a gnmt4 (paper granularity) PPO
/// forward + backward at the `small` widths retires 589 (pinned in
/// `mars-core`). Holding all of them measured worse, not better: the
/// passes are identical, yet at either cap each one still allocates
/// ~0.9M f32s afresh, so the first-fit scan hands large kept buffers to
/// small requests and a bigger cap mostly raises what the arena holds.
pub const MAX_POOLED_BUFS: usize = 512;

/// One LSTM step over the fused `[i|f|g|o]` gate block, shared by
/// [`Tape::lstm_seq`] and [`Tape::attn_decode`]: `hw` (a `4H` scratch
/// row) becomes `z = (x·W_ih + h_prev·W_hh) + b` from the precomputed
/// `xw = x·W_ih`, the activations land in row `t` of `cache`, and
/// `h_prev`/`c_prev` are replaced by `h_t`/`c_t`.
#[allow(clippy::too_many_arguments)]
fn lstm_step(
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
    strided_sweep(hw, h_prev, w_hh.as_slice(), 4 * hd);
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

/// The gate half of one reverse LSTM step, shared by the
/// [`Op::LstmSeq`] and [`Op::AttnDecode`] rules: from the gradient
/// `dh(k)` on `h_t` and the carry in `dc_rec` (the gradient on `c_t`),
/// fill the pre-activation gradient `dz` (`4H`) and leave the gradient
/// on `c_{t-1}` in `dc_rec`.
fn lstm_gate_grads(
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

/// `slot.row(r) += input[r] · g` for every non-zero `input[r]`: the
/// rank-1 weight gradient of a one-row product `input · W`, added
/// straight into `W`'s gradient slot. Equals materialising
/// `inputᵀ · g` from zero and `add_assign`ing it unless the slot holds
/// a `-0.0`, which a sum that began at `+0.0` never does.
fn add_outer(slot: &mut Option<Matrix>, input: &[f32], g: &[f32]) {
    let Some(slot) = slot else { return };
    for (r, &x) in input.iter().enumerate() {
        if x != 0.0 {
            axpy(slot.row_mut(r), x, g);
        }
    }
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

impl Tape {
    /// Empty recording (training) tape.
    pub fn new() -> Self {
        Tape {
            nodes: Vec::new(),
            grads: Vec::new(),
            record: true,
            pool: Vec::new(),
            stock: Vec::new(),
            high_water: 0,
            retired: 0,
            wt: Vec::new(),
        }
    }

    /// Empty inference tape: forward values are computed by exactly the
    /// same kernels as a recording tape (bit-identical outputs), but no
    /// op structure or backward caches are retained and
    /// [`Tape::backward`] panics.
    pub fn inference() -> Self {
        Tape { record: false, ..Self::new() }
    }

    /// `false` for tapes built with [`Tape::inference`].
    pub fn is_recording(&self) -> bool {
        self.record
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Drop all nodes while recycling their backing buffers (and the
    /// node list's capacity) for the next forward pass. The values of
    /// existing [`Var`] handles become invalid; callers start a fresh
    /// forward afterwards.
    pub fn reset_for_reuse(&mut self) {
        self.retired = self.pool.len()
            + self.nodes.len()
            + self.grads.iter().flatten().count()
            + self.wt.len();
        for node in self.nodes.drain(..) {
            if self.pool.len() < MAX_POOLED_BUFS {
                self.pool.push(node.value.into_vec());
            }
        }
        self.retire_backward_state();
        // Generation turnover: what is still in `stock` was not needed
        // by the pass that just ended.
        self.stock.clear();
        std::mem::swap(&mut self.pool, &mut self.stock);
        let held: usize = self.stock.iter().map(|b| b.capacity()).sum();
        if held > self.high_water {
            self.high_water = held;
        }
        if mars_telemetry::active() {
            mars_telemetry::counter("autograd.arena.reset").inc();
            mars_telemetry::gauge("autograd.arena.high_water", self.high_water as f64);
        }
    }

    /// Largest total f32 capacity the arena has ever kept across a reset.
    pub fn arena_high_water(&self) -> usize {
        self.high_water
    }

    /// Buffers the last [`Tape::reset_for_reuse`] was handed — node
    /// values, gradient slots, transposed weights and the pass's recycled
    /// scratch — of which it keeps at most [`MAX_POOLED_BUFS`].
    pub fn arena_retired(&self) -> usize {
        self.retired
    }

    /// A recycled buffer with `len == 0` and capacity ≥ `min_cap`, or a
    /// fresh one. This pass's recycled buffers are searched before the
    /// previous pass's `stock`, each newest-first so the most recently
    /// retired (cache-warm) buffer wins.
    fn take_buf_empty(&mut self, min_cap: usize) -> Vec<f32> {
        for gen in [&mut self.pool, &mut self.stock] {
            if let Some(i) = gen.iter().rposition(|b| b.capacity() >= min_cap) {
                let mut b = gen.swap_remove(i);
                b.clear();
                return b;
            }
        }
        Vec::with_capacity(min_cap)
    }

    /// A zero-filled buffer of exactly `len` elements, recycled when
    /// possible. Contents are identical to `vec![0.0; len]`, so pooled
    /// and fresh allocations are indistinguishable to the kernels.
    fn take_buf(&mut self, len: usize) -> Vec<f32> {
        let mut b = self.take_buf_empty(len);
        b.resize(len, 0.0);
        b
    }

    /// A zero matrix backed by a recycled buffer when one fits.
    fn alloc_zeros(&mut self, rows: usize, cols: usize) -> Matrix {
        Matrix::from_vec(rows, cols, self.take_buf(rows * cols))
    }

    /// Return a scratch matrix's backing buffer to the pool.
    fn recycle(&mut self, m: Matrix) {
        if self.pool.len() < MAX_POOLED_BUFS {
            self.pool.push(m.into_vec());
        }
    }

    /// Pooled gate caches for `rows` LSTM steps of width `hd`.
    fn alloc_lstm_cache(&mut self, rows: usize, hd: usize) -> LstmCache {
        LstmCache {
            i: self.alloc_zeros(rows, hd),
            f: self.alloc_zeros(rows, hd),
            g: self.alloc_zeros(rows, hd),
            o: self.alloc_zeros(rows, hd),
            c: self.alloc_zeros(rows, hd),
            tanh_c: self.alloc_zeros(rows, hd),
        }
    }

    fn recycle_lstm_cache(&mut self, cache: LstmCache) {
        let LstmCache { i, f, g, o, c, tanh_c } = cache;
        for m in [i, f, g, o, c, tanh_c] {
            self.recycle(m);
        }
    }

    /// Training arena: the gradients and transposed weights of the last
    /// backward feed the pool, so the next pass reuses their buffers
    /// instead of re-allocating per node.
    fn retire_backward_state(&mut self) {
        let retired = self.grads.drain(..).flatten().chain(self.wt.drain(..).map(|(_, t)| t));
        for m in retired {
            if self.pool.len() < MAX_POOLED_BUFS {
                self.pool.push(m.into_vec());
            }
        }
    }

    /// A pooled copy of `src` — bit-identical to `src.clone()` without
    /// the allocation once the arena is warm.
    fn clone_pooled(&mut self, src: &Matrix) -> Matrix {
        let (r, c) = src.shape();
        let mut buf = self.take_buf_empty(r * c);
        buf.extend_from_slice(src.as_slice());
        Matrix::from_vec(r, c, buf)
    }

    /// A pooled copy of `v`'s value (the `Var` form of
    /// [`Tape::clone_pooled`], borrow-safe against the node list).
    fn clone_var_pooled(&mut self, v: Var) -> Matrix {
        let (r, c) = self.nodes[v.0].value.shape();
        let mut buf = self.take_buf_empty(r * c);
        buf.extend_from_slice(self.nodes[v.0].value.as_slice());
        Matrix::from_vec(r, c, buf)
    }

    fn push(&mut self, value: Matrix, op: Op, requires_grad: bool) -> Var {
        debug_assert!(value.is_finite(), "non-finite value produced by tape op");
        if self.record {
            self.nodes.push(Node { value, op, requires_grad });
        } else {
            // Inference: keep only the forward value (later builders
            // still read it by index); drop the op and its Arc'd
            // backward caches immediately.
            self.nodes.push(Node { value, op: Op::Leaf, requires_grad: false });
        }
        Var(self.nodes.len() - 1)
    }

    fn rg(&self, v: Var) -> bool {
        self.nodes[v.0].requires_grad
    }

    /// Insert a leaf. `requires_grad = true` for parameters, `false`
    /// for constant inputs.
    pub fn leaf(&mut self, value: Matrix, requires_grad: bool) -> Var {
        self.push(value, Op::Leaf, requires_grad)
    }

    /// Constant leaf (no gradient).
    pub fn constant(&mut self, value: Matrix) -> Var {
        self.leaf(value, false)
    }

    /// Leaf copied from `src` into a recycled buffer — how reused tapes
    /// (inference *and* persistent training tapes) bind parameters
    /// without a fresh allocation per pass. Bit-identical to
    /// `leaf(src.clone(), requires_grad)`.
    pub fn leaf_from(&mut self, src: &Matrix, requires_grad: bool) -> Var {
        let m = self.clone_pooled(src);
        self.push(m, Op::Leaf, requires_grad)
    }

    /// Gradless leaf copied from `src` into a recycled buffer.
    /// Bit-identical to `leaf(src.clone(), false)`.
    pub fn leaf_copy(&mut self, src: &Matrix) -> Var {
        self.leaf_from(src, false)
    }

    /// Value of a variable.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// Scalar value of a `1 × 1` variable.
    pub fn scalar(&self, v: Var) -> f32 {
        let m = self.value(v);
        assert_eq!(m.shape(), (1, 1), "scalar() on non-scalar {:?}", m.shape());
        m.get(0, 0)
    }

    /// Gradient of a variable after [`Tape::backward`], if one was computed.
    pub fn grad(&self, v: Var) -> Option<&Matrix> {
        self.grads.get(v.0).and_then(|g| g.as_ref())
    }

    /// Take ownership of a variable's gradient, leaving its slot empty.
    /// Lets callers move parameter gradients out of a persistent tape
    /// without cloning; the remaining grads are recycled into the arena
    /// by the next [`Tape::reset_for_reuse`].
    pub fn take_grad(&mut self, v: Var) -> Option<Matrix> {
        self.grads.get_mut(v.0).and_then(|g| g.take())
    }

    // ---------------------------------------------------------------
    // Builders (forward evaluation + recording)
    // ---------------------------------------------------------------

    /// Dense matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let mut v = self.alloc_zeros(self.value(a).rows(), self.value(b).cols());
        matmul_into(self.value(a), self.value(b), &mut v);
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::MatMul(a, b), rg)
    }

    /// Sparse-constant × dense product (`adj · x`).
    pub fn spmm(&mut self, adj: Arc<CsrMatrix>, x: Var) -> Var {
        let mut v = self.alloc_zeros(adj.rows(), self.value(x).cols());
        adj.spmm_into(self.value(x), &mut v);
        let rg = self.rg(x);
        self.push(v, Op::Spmm(adj, x), rg)
    }

    /// Elementwise sum.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).add(self.value(b));
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::Add(a, b), rg)
    }

    /// Elementwise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).sub(self.value(b));
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::Sub(a, b), rg)
    }

    /// Elementwise product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).hadamard(self.value(b));
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::Mul(a, b), rg)
    }

    /// Broadcast-add a `1 × n` bias to every row.
    pub fn add_bias(&mut self, x: Var, bias: Var) -> Var {
        let v = self.value(x).add_row_broadcast(self.value(bias));
        let rg = self.rg(x) || self.rg(bias);
        self.push(v, Op::AddBias(x, bias), rg)
    }

    /// Multiply by a scalar constant.
    pub fn scale(&mut self, x: Var, s: f32) -> Var {
        let v = self.value(x).scale(s);
        let rg = self.rg(x);
        self.push(v, Op::Scale(x, s), rg)
    }

    /// Add a scalar constant.
    pub fn add_scalar(&mut self, x: Var, s: f32) -> Var {
        let v = self.value(x).map(|e| e + s);
        let rg = self.rg(x);
        self.push(v, Op::AddScalar(x, s), rg)
    }

    /// Negation.
    pub fn neg(&mut self, x: Var) -> Var {
        self.scale(x, -1.0)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, x: Var) -> Var {
        let v = self.value(x).map(stats::sigmoid);
        let rg = self.rg(x);
        self.push(v, Op::Sigmoid(x), rg)
    }

    /// Hyperbolic tangent (the deterministic [`mars_tensor::simd::tanh`]
    /// kernel, batch-dispatched).
    pub fn tanh(&mut self, x: Var) -> Var {
        let (r, c) = self.value(x).shape();
        let mut buf = self.take_buf_empty(r * c);
        buf.extend_from_slice(self.value(x).as_slice());
        tanh_inplace(&mut buf);
        let v = Matrix::from_vec(r, c, buf);
        let rg = self.rg(x);
        self.push(v, Op::Tanh(x), rg)
    }

    /// ReLU.
    pub fn relu(&mut self, x: Var) -> Var {
        let v = self.value(x).map(|e| e.max(0.0));
        let rg = self.rg(x);
        self.push(v, Op::Relu(x), rg)
    }

    /// Parametric ReLU; `alpha` is a `1 × 1` learnable slope.
    pub fn prelu(&mut self, x: Var, alpha: Var) -> Var {
        assert_eq!(self.value(alpha).shape(), (1, 1), "prelu alpha must be 1x1");
        let a = self.scalar(alpha);
        let v = self.value(x).map(|e| if e > 0.0 { e } else { a * e });
        let rg = self.rg(x) || self.rg(alpha);
        self.push(v, Op::PRelu(x, alpha), rg)
    }

    /// Elementwise exponential.
    pub fn exp(&mut self, x: Var) -> Var {
        let v = self.value(x).map(f32::exp);
        let rg = self.rg(x);
        self.push(v, Op::Exp(x), rg)
    }

    /// Elementwise natural log.
    pub fn ln(&mut self, x: Var) -> Var {
        let v = self.value(x).map(f32::ln);
        let rg = self.rg(x);
        self.push(v, Op::Ln(x), rg)
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&mut self, x: Var) -> Var {
        let v = stats::softmax_rows(self.value(x));
        let rg = self.rg(x);
        self.push(v, Op::SoftmaxRows(x), rg)
    }

    /// Row-wise log-softmax.
    pub fn log_softmax_rows(&mut self, x: Var) -> Var {
        let v = stats::log_softmax_rows(self.value(x));
        let rg = self.rg(x);
        self.push(v, Op::LogSoftmaxRows(x), rg)
    }

    /// Mean of all elements (`1 × 1`).
    pub fn mean_all(&mut self, x: Var) -> Var {
        let v = Matrix::from_vec(1, 1, vec![self.value(x).mean()]);
        let rg = self.rg(x);
        self.push(v, Op::MeanAll(x), rg)
    }

    /// Sum of all elements (`1 × 1`).
    pub fn sum_all(&mut self, x: Var) -> Var {
        let v = Matrix::from_vec(1, 1, vec![self.value(x).sum()]);
        let rg = self.rg(x);
        self.push(v, Op::SumAll(x), rg)
    }

    /// Column means (`1 × n`).
    pub fn mean_rows(&mut self, x: Var) -> Var {
        let v = self.value(x).mean_rows();
        let rg = self.rg(x);
        self.push(v, Op::MeanRows(x), rg)
    }

    /// Column sums (`1 × n`).
    pub fn sum_rows(&mut self, x: Var) -> Var {
        let v = self.value(x).sum_rows();
        let rg = self.rg(x);
        self.push(v, Op::SumRows(x), rg)
    }

    /// `[a | b]` horizontal concatenation.
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let split = self.value(a).cols();
        let v = self.value(a).hcat(self.value(b));
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::ConcatCols(a, b, split), rg)
    }

    /// `a` stacked over `b` vertical concatenation.
    pub fn concat_rows(&mut self, a: Var, b: Var) -> Var {
        let split = self.value(a).rows();
        let v = self.value(a).vcat(self.value(b));
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::ConcatRows(a, b, split), rg)
    }

    /// Rows `[start, end)`.
    pub fn slice_rows(&mut self, x: Var, start: usize, end: usize) -> Var {
        let v = self.value(x).slice_rows(start, end);
        let rg = self.rg(x);
        self.push(v, Op::SliceRows(x, start, end), rg)
    }

    /// Gather rows by index (embedding lookup / permutation).
    pub fn gather_rows(&mut self, x: Var, indices: Vec<usize>) -> Var {
        let v = self.value(x).gather_rows(&indices);
        let rg = self.rg(x);
        self.push(v, Op::GatherRows(x, Arc::new(indices)), rg)
    }

    /// Per-row element selection: `out[r, 0] = x[r, idx[r]]`.
    pub fn select_per_row(&mut self, x: Var, indices: Vec<usize>) -> Var {
        let xm = self.value(x);
        assert_eq!(indices.len(), xm.rows(), "select_per_row index count mismatch");
        let mut v = Matrix::zeros(xm.rows(), 1);
        for (r, &c) in indices.iter().enumerate() {
            assert!(c < xm.cols(), "select_per_row column {c} out of {}", xm.cols());
            v.set(r, 0, xm.get(r, c));
        }
        let rg = self.rg(x);
        self.push(v, Op::SelectPerRow(x, Arc::new(indices)), rg)
    }

    /// Stack many `1 × n` rows into one `m × n` matrix.
    pub fn stack_rows(&mut self, rows: Vec<Var>) -> Var {
        assert!(!rows.is_empty(), "stack_rows: empty input");
        let cols = self.value(rows[0]).cols();
        let mut data = self.take_buf_empty(rows.len() * cols);
        let mut rg = false;
        for &r in &rows {
            let m = self.value(r);
            assert_eq!(m.shape(), (1, cols), "stack_rows: row {:?} != (1,{cols})", m.shape());
            data.extend_from_slice(m.as_slice());
            rg |= self.rg(r);
        }
        let v = Matrix::from_vec(rows.len(), cols, data);
        self.push(v, Op::StackRows(Arc::new(rows)), rg)
    }

    /// Transpose.
    pub fn transpose(&mut self, x: Var) -> Var {
        let v = self.value(x).transpose();
        let rg = self.rg(x);
        self.push(v, Op::Transpose(x), rg)
    }

    /// Clamp into `[lo, hi]`.
    pub fn clamp(&mut self, x: Var, lo: f32, hi: f32) -> Var {
        assert!(lo <= hi);
        let v = self.value(x).map(|e| e.clamp(lo, hi));
        let rg = self.rg(x);
        self.push(v, Op::Clamp(x, lo, hi), rg)
    }

    /// Elementwise minimum.
    pub fn min_elem(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).zip_map(self.value(b), f32::min);
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::MinElem(a, b), rg)
    }

    /// Mean binary-cross-entropy with logits against constant targets.
    ///
    /// Uses the numerically-stable formulation
    /// `max(x, 0) − x·t + ln(1 + exp(−|x|))`.
    pub fn bce_with_logits(&mut self, logits: Var, targets: Arc<Matrix>) -> Var {
        let x = self.value(logits);
        assert_eq!(x.shape(), targets.shape(), "bce_with_logits shape mismatch");
        let mut acc = 0.0f32;
        for (xi, ti) in x.as_slice().iter().zip(targets.as_slice()) {
            acc += xi.max(0.0) - xi * ti + (1.0 + (-xi.abs()).exp()).ln();
        }
        let v = Matrix::from_vec(1, 1, vec![acc / x.len() as f32]);
        let rg = self.rg(logits);
        self.push(v, Op::BceWithLogits(logits, targets), rg)
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
        let (t_len, in_dim) = self.value(x).shape();
        let hd4 = self.value(w_ih).cols();
        assert_eq!(self.value(w_ih).rows(), in_dim, "w_ih shape mismatch");
        assert!(hd4.is_multiple_of(4), "w_ih width must be 4·H");
        let hd = hd4 / 4;
        assert_eq!(self.value(w_hh).shape(), (hd, hd4), "w_hh shape mismatch");
        assert_eq!(self.value(b).shape(), (1, hd4), "bias shape mismatch");
        assert_eq!(self.value(h0).shape(), (1, hd), "h0 shape mismatch");
        assert_eq!(self.value(c0).shape(), (1, hd), "c0 shape mismatch");
        assert!(t_len > 0, "empty sequence");

        // Fused gate pass: one packed matmul computes x·W_ih for all
        // four gates of the whole sequence, and the recurrent h·W_hh
        // term is an in-place axpy sweep over W_hh rows — no per-step
        // Matrix allocation. Per element the arithmetic is exactly the
        // serial `inner_nn` sequence (ascending k with the zero skip),
        // so the fused loop is bit-identical to the matmul it replaces.
        let mut xw = self.alloc_zeros(t_len, hd4); // T × 4H
        matmul_into(self.value(x), self.value(w_ih), &mut xw);

        let mut cache = self.alloc_lstm_cache(t_len, hd);
        let mut out = self.alloc_zeros(t_len + 1, hd);
        {
            let mut h_prev: Vec<f32> = self.value(h0).row(0).to_vec();
            let mut c_prev: Vec<f32> = self.value(c0).row(0).to_vec();
            let w_hh_m = self.value(w_hh);
            let b_row = self.value(b).row(0);
            let mut hw = vec![0.0f32; hd4]; // reusable 1 × 4H scratch

            for t in 0..t_len {
                lstm_step(
                    &mut hw,
                    xw.row(t),
                    w_hh_m,
                    b_row,
                    &mut h_prev,
                    &mut c_prev,
                    &mut cache,
                    t,
                );
                out.row_mut(t).copy_from_slice(&h_prev);
            }
            // Final cell state as the extra row.
            for (k, &c) in c_prev.iter().enumerate() {
                out.set(t_len, k, c);
            }
        }

        self.recycle(xw);
        if !self.record {
            // Inference: the gate caches exist only for BPTT — recycle
            // their buffers instead of threading them through `push`
            // (which would drop them on the floor).
            self.recycle_lstm_cache(cache);
            return self.push(out, Op::Leaf, false);
        }
        let rg = self.rg(x)
            || self.rg(w_ih)
            || self.rg(w_hh)
            || self.rg(b)
            || self.rg(h0)
            || self.rg(c0);
        self.push(out, Op::LstmSeq { x, w_ih, w_hh, b, h0, c0, cache: Arc::new(cache) }, rg)
    }

    /// Fused additive-attention scores `(tanh(proj ⊕ dproj) · v)ᵀ`.
    ///
    /// `proj` is the pre-projected encoder matrix (`T × A`), `dproj`
    /// the projected decoder query (`1 × A`), `v` the scoring vector
    /// (`A × 1`); returns the `1 × T` score row. One node replaces the
    /// four-op `add_bias → tanh → matmul → transpose` chain (and its
    /// three `T × A`-sized intermediates) on the per-placement decoder
    /// hot path. Per element the score accumulates ascending `a` with
    /// the `== 0.0` skip, exactly like the `matmul` it replaces.
    pub fn attn_scores(&mut self, proj: Var, dproj: Var, v: Var) -> Var {
        let (t_len, ad) = self.value(proj).shape();
        assert_eq!(self.value(dproj).shape(), (1, ad), "attn_scores: dproj shape mismatch");
        assert_eq!(self.value(v).shape(), (ad, 1), "attn_scores: v shape mismatch");
        let mut act = self.alloc_zeros(t_len, ad);
        let mut scores = self.alloc_zeros(1, t_len);
        {
            let proj_m = self.value(proj);
            let dproj_row = self.value(dproj).row(0);
            let v_m = self.value(v);
            let v_col = v_m.as_slice(); // A × 1, contiguous
            for j in 0..t_len {
                let proj_row = proj_m.row(j);
                let act_row = act.row_mut(j);
                for a in 0..ad {
                    act_row[a] = proj_row[a] + dproj_row[a];
                }
                tanh_inplace(act_row);
                let mut s = 0.0f32;
                for a in 0..ad {
                    let tv = act_row[a];
                    if tv != 0.0 {
                        s += tv * v_col[a];
                    }
                }
                scores.set(0, j, s);
            }
        }
        if !self.record {
            // The tanh activations are a backward-only cache.
            self.recycle(act);
            return self.push(scores, Op::Leaf, false);
        }
        let rg = self.rg(proj) || self.rg(dproj) || self.rg(v);
        self.push(scores, Op::AttnScores { proj, dproj, v, act: Arc::new(act) }, rg)
    }

    // ---------------------------------------------------------------
    // Backward
    // ---------------------------------------------------------------

    /// Index in `self.wt` of `v`'s transposed value, packed into a
    /// pooled buffer on its first use in this backward.
    fn transposed(&mut self, v: Var) -> usize {
        if let Some(at) = self.wt.iter().position(|(w, _)| *w == v) {
            return at;
        }
        let (r, c) = self.value(v).shape();
        let mut t = self.alloc_zeros(c, r);
        self.value(v).transpose_into(&mut t);
        self.wt.push((v, t));
        self.wt.len() - 1
    }

    /// `g · bᵀ`, the input gradient of `a · b`. A leaf `b` is a weight
    /// that many products share, so its transpose comes from the cache;
    /// any other operand is packed by the kernel for this one product.
    fn grad_nt(&mut self, g: &Matrix, b: Var) -> Matrix {
        let mut ga = self.alloc_zeros(g.rows(), self.value(b).rows());
        if matches!(self.nodes[b.0].op, Op::Leaf) {
            let at = self.transposed(b);
            matmul_nt_packed_into(g, &self.wt[at].1, &mut ga);
        } else {
            matmul_nt_into(g, self.value(b), &mut ga);
        }
        ga
    }

    fn accumulate(&mut self, v: Var, g: Matrix) {
        if !self.nodes[v.0].requires_grad {
            self.recycle(g);
            return;
        }
        match &mut self.grads[v.0] {
            Some(existing) => {
                existing.add_assign(&g);
                self.recycle(g);
            }
            slot @ None => *slot = Some(g),
        }
    }

    /// Give `v` a zero gradient slot if it has none; `true` if it was
    /// created here.
    fn ensure_grad_slot(&mut self, v: Var) -> bool {
        if self.grads[v.0].is_some() {
            return false;
        }
        let (r, c) = self.value(v).shape();
        let z = self.alloc_zeros(r, c);
        self.grads[v.0] = Some(z);
        true
    }

    /// Run the reverse sweep from a scalar (`1 × 1`) loss.
    ///
    /// Gradients are available through [`Tape::grad`] afterwards. A
    /// second call resets previous gradients.
    pub fn backward(&mut self, loss: Var) {
        let _span = mars_telemetry::span("autograd.tape.backward");
        assert!(self.record, "backward() on an inference tape — build it with Tape::new()");
        assert_eq!(
            self.value(loss).shape(),
            (1, 1),
            "backward() requires a scalar loss, got {:?}",
            self.value(loss).shape()
        );
        // Arena: recycle whatever a previous backward on this tape left
        // and reuse the slot vector's capacity.
        self.retire_backward_state();
        self.grads.resize_with(self.nodes.len(), || None);
        let mut seed = self.take_buf_empty(1);
        seed.push(1.0);
        self.grads[loss.0] = Some(Matrix::from_vec(1, 1, seed));

        for i in (0..=loss.0).rev() {
            // Take-and-restore instead of clone: the node's own grad is
            // never aliased by its parents' slots (parents have strictly
            // lower indices), so the loop can own `g` for free.
            let Some(g) = self.grads[i].take() else { continue };
            if !self.nodes[i].requires_grad {
                self.grads[i] = Some(g);
                continue;
            }
            let op = self.nodes[i].op.clone();
            match op {
                Op::Leaf => {}
                Op::MatMul(a, b) => {
                    if self.rg(a) {
                        let ga = self.grad_nt(&g, b);
                        self.accumulate(a, ga);
                    }
                    if self.rg(b) {
                        let mut gb = self.alloc_zeros(self.value(a).cols(), g.cols());
                        matmul_tn_into(self.value(a), &g, &mut gb);
                        self.accumulate(b, gb);
                    }
                }
                Op::Spmm(adj, x) => {
                    if self.rg(x) {
                        let mut gx = self.alloc_zeros(adj.cols(), g.cols());
                        adj.spmm_t_into(&g, &mut gx);
                        self.accumulate(x, gx);
                    }
                }
                Op::Add(a, b) => {
                    if self.rg(a) {
                        let ga = self.clone_pooled(&g);
                        self.accumulate(a, ga);
                    }
                    if self.rg(b) {
                        let gb = self.clone_pooled(&g);
                        self.accumulate(b, gb);
                    }
                }
                Op::Sub(a, b) => {
                    if self.rg(a) {
                        let ga = self.clone_pooled(&g);
                        self.accumulate(a, ga);
                    }
                    if self.rg(b) {
                        let mut gb = self.clone_pooled(&g);
                        for e in gb.as_mut_slice() {
                            *e *= -1.0;
                        }
                        self.accumulate(b, gb);
                    }
                }
                Op::Mul(a, b) => {
                    if self.rg(a) {
                        let mut ga = self.clone_pooled(&g);
                        for (e, &bv) in
                            ga.as_mut_slice().iter_mut().zip(self.nodes[b.0].value.as_slice())
                        {
                            *e *= bv;
                        }
                        self.accumulate(a, ga);
                    }
                    if self.rg(b) {
                        let mut gb = self.clone_pooled(&g);
                        for (e, &av) in
                            gb.as_mut_slice().iter_mut().zip(self.nodes[a.0].value.as_slice())
                        {
                            *e *= av;
                        }
                        self.accumulate(b, gb);
                    }
                }
                Op::AddBias(x, bias) => {
                    if self.rg(x) {
                        let gx = self.clone_pooled(&g);
                        self.accumulate(x, gx);
                    }
                    if self.rg(bias) {
                        // sum_rows, pooled: ascending rows then columns,
                        // exactly Matrix::sum_rows' accumulation order.
                        let mut gb = self.alloc_zeros(1, g.cols());
                        for rr in 0..g.rows() {
                            let row = g.row(rr);
                            for (o, &e) in gb.as_mut_slice().iter_mut().zip(row) {
                                *o += e;
                            }
                        }
                        self.accumulate(bias, gb);
                    }
                }
                Op::Scale(x, s) => {
                    if self.rg(x) {
                        let mut gx = self.clone_pooled(&g);
                        for e in gx.as_mut_slice() {
                            *e *= s;
                        }
                        self.accumulate(x, gx);
                    }
                }
                Op::AddScalar(x, _) => {
                    if self.rg(x) {
                        let gx = self.clone_pooled(&g);
                        self.accumulate(x, gx);
                    }
                }
                Op::Sigmoid(x) => {
                    if self.rg(x) {
                        let mut gx = self.clone_pooled(&g);
                        for (gi, &yi) in
                            gx.as_mut_slice().iter_mut().zip(self.nodes[i].value.as_slice())
                        {
                            *gi = *gi * yi * (1.0 - yi);
                        }
                        self.accumulate(x, gx);
                    }
                }
                Op::Tanh(x) => {
                    if self.rg(x) {
                        let mut gx = self.clone_pooled(&g);
                        for (gi, &yi) in
                            gx.as_mut_slice().iter_mut().zip(self.nodes[i].value.as_slice())
                        {
                            *gi *= 1.0 - yi * yi;
                        }
                        self.accumulate(x, gx);
                    }
                }
                Op::Relu(x) => {
                    if self.rg(x) {
                        let mut gx = self.clone_pooled(&g);
                        for (gi, &xi) in
                            gx.as_mut_slice().iter_mut().zip(self.nodes[x.0].value.as_slice())
                        {
                            *gi = if xi > 0.0 { *gi } else { 0.0 };
                        }
                        self.accumulate(x, gx);
                    }
                }
                Op::PRelu(x, alpha) => {
                    let a = self.scalar(alpha);
                    if self.rg(x) {
                        let mut gx = self.clone_pooled(&g);
                        for (gi, &xi) in
                            gx.as_mut_slice().iter_mut().zip(self.nodes[x.0].value.as_slice())
                        {
                            *gi = if xi > 0.0 { *gi } else { a * *gi };
                        }
                        self.accumulate(x, gx);
                    }
                    if self.rg(alpha) {
                        let da: f32 = g
                            .as_slice()
                            .iter()
                            .zip(self.value(x).as_slice())
                            .map(|(&gi, &xi)| if xi > 0.0 { 0.0 } else { gi * xi })
                            .sum();
                        let mut buf = self.take_buf_empty(1);
                        buf.push(da);
                        self.accumulate(alpha, Matrix::from_vec(1, 1, buf));
                    }
                }
                Op::Exp(x) => {
                    if self.rg(x) {
                        let mut gx = self.clone_pooled(&g);
                        for (gi, &yi) in
                            gx.as_mut_slice().iter_mut().zip(self.nodes[i].value.as_slice())
                        {
                            *gi *= yi;
                        }
                        self.accumulate(x, gx);
                    }
                }
                Op::Ln(x) => {
                    if self.rg(x) {
                        let mut gx = self.clone_pooled(&g);
                        for (gi, &xi) in
                            gx.as_mut_slice().iter_mut().zip(self.nodes[x.0].value.as_slice())
                        {
                            *gi /= xi;
                        }
                        self.accumulate(x, gx);
                    }
                }
                Op::SoftmaxRows(x) => {
                    if self.rg(x) {
                        // dx = p ⊙ (g − ⟨g, p⟩) per row.
                        let (rows, cols) = self.nodes[i].value.shape();
                        let mut gx = self.alloc_zeros(rows, cols);
                        let p = &self.nodes[i].value;
                        for r in 0..rows {
                            let dot: f32 =
                                g.row(r).iter().zip(p.row(r)).map(|(&gi, &pi)| gi * pi).sum();
                            for c in 0..cols {
                                gx.set(r, c, p.get(r, c) * (g.get(r, c) - dot));
                            }
                        }
                        self.accumulate(x, gx);
                    }
                }
                Op::LogSoftmaxRows(x) => {
                    if self.rg(x) {
                        // dx = g − softmax(x) · Σ_row(g)
                        let (rows, cols) = self.nodes[i].value.shape();
                        let mut gx = self.alloc_zeros(rows, cols);
                        let lp = &self.nodes[i].value;
                        for r in 0..rows {
                            let gsum: f32 = g.row(r).iter().sum();
                            for c in 0..cols {
                                let p = lp.get(r, c).exp();
                                gx.set(r, c, g.get(r, c) - p * gsum);
                            }
                        }
                        self.accumulate(x, gx);
                    }
                }
                Op::MeanAll(x) => {
                    if self.rg(x) {
                        let n = self.value(x).len() as f32;
                        let (r, c) = self.value(x).shape();
                        let fill = g.get(0, 0) / n;
                        let mut gx = self.alloc_zeros(r, c);
                        gx.as_mut_slice().fill(fill);
                        self.accumulate(x, gx);
                    }
                }
                Op::SumAll(x) => {
                    if self.rg(x) {
                        let (r, c) = self.value(x).shape();
                        let fill = g.get(0, 0);
                        let mut gx = self.alloc_zeros(r, c);
                        gx.as_mut_slice().fill(fill);
                        self.accumulate(x, gx);
                    }
                }
                Op::MeanRows(x) => {
                    if self.rg(x) {
                        let (r, c) = self.value(x).shape();
                        let scale = 1.0 / r.max(1) as f32;
                        let mut gx = self.alloc_zeros(r, c);
                        for rr in 0..r {
                            let dst = gx.row_mut(rr);
                            for (d, &gc) in dst.iter_mut().zip(g.row(0)) {
                                *d = gc * scale;
                            }
                        }
                        self.accumulate(x, gx);
                    }
                }
                Op::SumRows(x) => {
                    if self.rg(x) {
                        let (r, c) = self.value(x).shape();
                        let mut gx = self.alloc_zeros(r, c);
                        for rr in 0..r {
                            gx.row_mut(rr).copy_from_slice(g.row(0));
                        }
                        self.accumulate(x, gx);
                    }
                }
                Op::ConcatCols(a, b, split) => {
                    if self.rg(a) {
                        let mut ga = Matrix::zeros(g.rows(), split);
                        for r in 0..g.rows() {
                            ga.row_mut(r).copy_from_slice(&g.row(r)[..split]);
                        }
                        self.accumulate(a, ga);
                    }
                    if self.rg(b) {
                        let bw = g.cols() - split;
                        let mut gb = Matrix::zeros(g.rows(), bw);
                        for r in 0..g.rows() {
                            gb.row_mut(r).copy_from_slice(&g.row(r)[split..]);
                        }
                        self.accumulate(b, gb);
                    }
                }
                Op::ConcatRows(a, b, split) => {
                    if self.rg(a) {
                        self.accumulate(a, g.slice_rows(0, split));
                    }
                    if self.rg(b) {
                        self.accumulate(b, g.slice_rows(split, g.rows()));
                    }
                }
                Op::SliceRows(x, start, end) => {
                    if self.rg(x) {
                        let (r, c) = self.value(x).shape();
                        let mut gx = Matrix::zeros(r, c);
                        for (gi, rr) in (start..end).enumerate() {
                            gx.row_mut(rr).copy_from_slice(g.row(gi));
                        }
                        self.accumulate(x, gx);
                    }
                }
                Op::GatherRows(x, indices) => {
                    if self.rg(x) {
                        let (r, c) = self.value(x).shape();
                        let mut gx = Matrix::zeros(r, c);
                        for (gi, &idx) in indices.iter().enumerate() {
                            let row = g.row(gi);
                            let dst = gx.row_mut(idx);
                            for (d, &s) in dst.iter_mut().zip(row) {
                                *d += s;
                            }
                        }
                        self.accumulate(x, gx);
                    }
                }
                Op::SelectPerRow(x, indices) => {
                    if self.rg(x) {
                        let (r, c) = self.value(x).shape();
                        let mut gx = Matrix::zeros(r, c);
                        for (rr, &cc) in indices.iter().enumerate() {
                            gx.set(rr, cc, g.get(rr, 0));
                        }
                        self.accumulate(x, gx);
                    }
                }
                Op::StackRows(vars) => {
                    for (rr, &v) in vars.iter().enumerate() {
                        if self.rg(v) {
                            let gr = Matrix::row_vector(g.row(rr));
                            self.accumulate(v, gr);
                        }
                    }
                }
                Op::Transpose(x) => {
                    if self.rg(x) {
                        self.accumulate(x, g.transpose());
                    }
                }
                Op::Clamp(x, lo, hi) => {
                    if self.rg(x) {
                        let mut gx = self.clone_pooled(&g);
                        for (gi, &xi) in
                            gx.as_mut_slice().iter_mut().zip(self.nodes[x.0].value.as_slice())
                        {
                            *gi = if xi > lo && xi < hi { *gi } else { 0.0 };
                        }
                        self.accumulate(x, gx);
                    }
                }
                Op::MinElem(a, b) => {
                    let av = self.value(a).clone();
                    let bv = self.value(b).clone();
                    if self.rg(a) {
                        let ga = Matrix::from_fn(g.rows(), g.cols(), |r, c| {
                            if av.get(r, c) <= bv.get(r, c) {
                                g.get(r, c)
                            } else {
                                0.0
                            }
                        });
                        self.accumulate(a, ga);
                    }
                    if self.rg(b) {
                        let gb = Matrix::from_fn(g.rows(), g.cols(), |r, c| {
                            if av.get(r, c) <= bv.get(r, c) {
                                0.0
                            } else {
                                g.get(r, c)
                            }
                        });
                        self.accumulate(b, gb);
                    }
                }
                Op::BceWithLogits(x, targets) => {
                    if self.rg(x) {
                        let n = self.value(x).len() as f32;
                        let scale = g.get(0, 0) / n;
                        let mut gx = self.clone_var_pooled(x);
                        for (e, &ti) in gx.as_mut_slice().iter_mut().zip(targets.as_slice()) {
                            *e = (stats::sigmoid(*e) - ti) * scale;
                        }
                        self.accumulate(x, gx);
                    }
                }
                Op::LstmSeq { x, w_ih, w_hh, b, h0, c0, cache } => {
                    // All scratch comes from the arena and all reads
                    // borrow node values in place. `dz · Wᵀ` sweeps the
                    // cached transposes — per element the same ascending
                    // mul + add as the dot product it stands for (see
                    // `matmul_nt_into`) — and the gate outer products
                    // run through the dispatched axpy.
                    let (t_len, in_dim) = self.value(x).shape();
                    let hd = self.value(h0).cols();
                    let mut gx = self.alloc_zeros(t_len, in_dim);
                    let mut dz_m = self.alloc_zeros(1, 4 * hd);
                    // Recurrent carries: dh from t+1's gates, dc from
                    // t+1's forget path (seeded by the grad on c_T).
                    let mut dh_rec = self.alloc_zeros(1, hd);
                    let mut dc_rec = self.alloc_zeros(1, hd);
                    dc_rec.as_mut_slice().copy_from_slice(g.row(t_len));
                    // Where the weight gradients sum up. One step
                    // (`LstmCell::step`) contributes a single rank-1 term per
                    // weight, so it adds straight into the taken slot:
                    // `slot + (0 + x·dz)` is `slot + x·dz` bit for bit
                    // unless both `slot` and `x·dz` are `-0.0`, and a
                    // weight's slot never is — whatever reaches it
                    // (this rule, `matmul_tn`) is a sum that began at
                    // `+0.0`. Longer sequences sum locally first, as
                    // `slot + Σ_t` associates.
                    let mut sums = [w_ih, w_hh, b].map(|w| {
                        self.rg(w).then(|| {
                            let slot = if t_len == 1 { self.grads[w.0].take() } else { None };
                            let (r, c) = self.value(w).shape();
                            slot.unwrap_or_else(|| self.alloc_zeros(r, c))
                        })
                    });
                    let (wt_ih, wt_hh) = (self.transposed(w_ih), self.transposed(w_hh));
                    let (wt_ih, wt_hh) = (self.wt[wt_ih].1.as_slice(), self.wt[wt_hh].1.as_slice());
                    let x_m = self.value(x);
                    let dz = dz_m.as_mut_slice();
                    for t in (0..t_len).rev() {
                        let (c_prev, h_prev) = match t {
                            0 => (self.value(c0).row(0), self.value(h0).row(0)),
                            _ => (cache.c.row(t - 1), self.nodes[i].value.row(t - 1)),
                        };
                        let dh = |k: usize| g.get(t, k) + dh_rec.get(0, k);
                        lstm_gate_grads(dz, dc_rec.as_mut_slice(), dh, &cache, t, c_prev);
                        // Parameter gradients: outer products with the
                        // step inputs (the bias's input is the constant 1).
                        for (sum, input) in sums.iter_mut().zip([x_m.row(t), h_prev, &[1.0]]) {
                            add_outer(sum, input, dz);
                        }
                        // Input and recurrent gradients: dz · Wᵀ.
                        strided_sweep(gx.row_mut(t), dz, wt_ih, in_dim);
                        dh_rec.as_mut_slice().fill(0.0);
                        strided_sweep(dh_rec.as_mut_slice(), dz, wt_hh, hd);
                    }
                    self.accumulate(x, gx);
                    for (w, sum) in [w_ih, w_hh, b].into_iter().zip(sums) {
                        if let Some(sum) = sum {
                            self.accumulate(w, sum);
                        }
                    }
                    self.accumulate(h0, dh_rec);
                    self.accumulate(c0, dc_rec);
                    self.recycle(dz_m);
                }
                Op::AttnScores { proj, dproj, v, act } => {
                    // s_j = Σ_a tanh(proj[j][a] + dproj[a]) · v[a], so
                    // with u = act (the cached tanh):
                    //   d_act[j][a]  = g_j · v[a]
                    //   d_pre[j][a]  = d_act · (1 − u²)   (tanh')
                    //   d_proj       = d_pre
                    //   d_dproj[a]   = Σ_j d_pre[j][a]    (broadcast)
                    //   d_v[a]       = Σ_j u[j][a] · g_j
                    let (t_len, ad) = act.shape();
                    let g_row = g.row(0);
                    let v_col = self.value(v).as_slice().to_vec();
                    let mut gproj = Matrix::zeros(t_len, ad);
                    let mut gdproj = Matrix::zeros(1, ad);
                    let mut gv = Matrix::zeros(ad, 1);
                    for (j, &gj) in g_row.iter().enumerate().take(t_len) {
                        let act_row = act.row(j);
                        let gproj_row = gproj.row_mut(j);
                        let gdproj_row = gdproj.row_mut(0);
                        for a in 0..ad {
                            let u = act_row[a];
                            let dpre = gj * v_col[a] * (1.0 - u * u);
                            gproj_row[a] = dpre;
                            gdproj_row[a] += dpre;
                            if u != 0.0 {
                                gv.as_mut_slice()[a] += u * gj;
                            }
                        }
                    }
                    if self.rg(proj) {
                        self.accumulate(proj, gproj);
                    }
                    if self.rg(dproj) {
                        self.accumulate(dproj, gdproj);
                    }
                    if self.rg(v) {
                        self.accumulate(v, gv);
                    }
                }
                Op::AttnDecode { segs, params, h0, c0, cache } => {
                    self.attn_decode_backward(&g, &segs, params, (h0, c0), &cache);
                }
            }
            // Restore the node's own grad (taken, not cloned, above) so
            // Tape::grad / take_grad still see every computed gradient.
            self.grads[i] = Some(g);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_chain() {
        // loss = mean(sigmoid(x * 2))
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_vec(1, 1, vec![0.0]), true);
        let s = t.scale(x, 2.0);
        let y = t.sigmoid(s);
        let loss = t.mean_all(y);
        t.backward(loss);
        // d/dx sigmoid(2x) at 0 = 2 * 0.25 = 0.5
        let g = t.grad(x).expect("grad");
        assert!((g.get(0, 0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn grad_accumulates_over_reuse() {
        // loss = sum(x + x) → dx = 2
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_vec(1, 2, vec![1.0, 2.0]), true);
        let y = t.add(x, x);
        let loss = t.sum_all(y);
        t.backward(loss);
        assert_eq!(t.grad(x).expect("grad").as_slice(), &[2.0, 2.0]);
    }

    #[test]
    fn constants_get_no_grad() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_vec(1, 1, vec![3.0]), true);
        let c = t.constant(Matrix::from_vec(1, 1, vec![4.0]));
        let y = t.mul(x, c);
        let loss = t.sum_all(y);
        t.backward(loss);
        assert!(t.grad(c).is_none());
        assert_eq!(t.grad(x).expect("grad").get(0, 0), 4.0);
    }

    #[test]
    fn matmul_grads_match_manual() {
        // loss = sum(A·B); dA = 1·Bᵀ, dB = Aᵀ·1.
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]), true);
        let b = t.leaf(Matrix::from_vec(2, 2, vec![5., 6., 7., 8.]), true);
        let y = t.matmul(a, b);
        let loss = t.sum_all(y);
        t.backward(loss);
        assert_eq!(t.grad(a).expect("ga").as_slice(), &[11., 15., 11., 15.]);
        assert_eq!(t.grad(b).expect("gb").as_slice(), &[4., 4., 6., 6.]);
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_requires_scalar() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::zeros(2, 2), true);
        t.backward(x);
    }

    #[test]
    fn select_per_row_scatter() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]), true);
        let sel = t.select_per_row(x, vec![2, 0]);
        assert_eq!(t.value(sel).as_slice(), &[3.0, 4.0]);
        let loss = t.sum_all(sel);
        t.backward(loss);
        assert_eq!(t.grad(x).expect("gx").as_slice(), &[0., 0., 1., 1., 0., 0.]);
    }

    /// One representative forward touching every pooled builder:
    /// leaf → matmul → tanh → lstm_seq → attn_scores → stack_rows.
    fn forward_values(t: &mut Tape, bind: impl Fn(&mut Tape, Matrix) -> Var) -> Vec<Vec<f32>> {
        let x = bind(t, Matrix::from_vec(3, 2, vec![0.1, -0.2, 0.3, 0.7, -0.5, 0.25]));
        let w = bind(t, Matrix::from_vec(2, 4, (0..8).map(|i| 0.1 * i as f32 - 0.3).collect()));
        let mm = t.matmul(x, w);
        let th = t.tanh(mm);
        let w_ih =
            bind(t, Matrix::from_vec(4, 8, (0..32).map(|i| 0.05 * (i % 7) as f32).collect()));
        let w_hh = bind(t, Matrix::from_vec(2, 8, (0..16).map(|i| -0.04 * i as f32).collect()));
        let b = bind(t, Matrix::from_vec(1, 8, vec![0.01; 8]));
        let h0 = bind(t, Matrix::zeros(1, 2));
        let c0 = bind(t, Matrix::zeros(1, 2));
        let hs = t.lstm_seq(th, w_ih, w_hh, b, h0, c0);
        let dq = bind(t, Matrix::from_vec(1, 4, vec![0.2, -0.1, 0.4, -0.3]));
        let v = bind(t, Matrix::from_vec(4, 1, vec![0.3, -0.9, 0.5, 0.1]));
        let sc = t.attn_scores(th, dq, v);
        let sm = t.softmax_rows(sc);
        let st = t.stack_rows(vec![sc, sm]);
        [x, mm, th, hs, sc, sm, st].iter().map(|&v| t.value(v).as_slice().to_vec()).collect()
    }

    #[test]
    fn inference_forward_is_bit_identical_to_recorded() {
        let mut rec = Tape::new();
        let want = forward_values(&mut rec, |t, m| t.leaf(m, true));
        let mut inf = Tape::inference();
        let got = forward_values(&mut inf, |t, m| t.leaf_copy(&m));
        assert_eq!(want, got, "inference forward diverged from recorded forward");
    }

    #[test]
    fn reused_inference_tape_is_bit_stable() {
        let mut inf = Tape::inference();
        let first = forward_values(&mut inf, |t, m| t.leaf_copy(&m));
        for _ in 0..3 {
            inf.reset_for_reuse();
            assert!(inf.is_empty());
            let again = forward_values(&mut inf, |t, m| t.leaf_copy(&m));
            assert_eq!(first, again, "pooled-buffer reuse changed forward values");
        }
    }

    #[test]
    #[should_panic(expected = "inference tape")]
    fn backward_panics_on_inference_tape() {
        let mut t = Tape::inference();
        let x = t.leaf_copy(&Matrix::from_vec(1, 1, vec![1.0]));
        let loss = t.sum_all(x);
        t.backward(loss);
    }

    /// Deterministic pseudo-random matrix for equivalence tests.
    fn pseudo(r: usize, c: usize, seed: u32) -> Matrix {
        let mut s = seed.wrapping_mul(2654435761).wrapping_add(12345);
        Matrix::from_fn(r, c, |_, _| {
            s = s.wrapping_mul(1103515245).wrapping_add(12345);
            ((s >> 8) & 0xffff) as f32 / 65536.0 - 0.5
        })
    }

    /// A persistent training tape (forward → backward → reset_for_reuse,
    /// repeated) must produce bit-identical losses and gradients every
    /// round — the arena recycles buffers but never changes results.
    #[test]
    fn reused_training_tape_is_bit_stable() {
        let run = |t: &mut Tape| -> (Vec<f32>, Vec<f32>, Vec<f32>) {
            let x = t.leaf_from(&pseudo(6, 4, 21), false);
            let w = t.leaf_from(&pseudo(4, 3, 22), true);
            let b = t.leaf_from(&pseudo(1, 3, 23), true);
            let mm = t.matmul(x, w);
            let ab = t.add_bias(mm, b);
            let sg = t.sigmoid(ab);
            let loss = t.mean_all(sg);
            t.backward(loss);
            (
                t.value(loss).as_slice().to_vec(),
                t.grad(w).expect("gw").as_slice().to_vec(),
                t.grad(b).expect("gb").as_slice().to_vec(),
            )
        };
        let mut fresh = Tape::new();
        let want = run(&mut fresh);
        let mut reused = Tape::new();
        let first = run(&mut reused);
        assert_eq!(want, first, "fresh vs to-be-reused tape diverged");
        for round in 0..3 {
            reused.reset_for_reuse();
            assert!(reused.is_empty());
            let again = run(&mut reused);
            assert_eq!(want, again, "arena reuse changed results in round {round}");
        }
        assert!(reused.arena_high_water() > 0, "high-water gauge never recorded");
    }

    #[test]
    fn take_grad_moves_out_and_empties_slot() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_vec(1, 2, vec![1.0, 2.0]), true);
        let loss = t.sum_all(x);
        t.backward(loss);
        let g = t.take_grad(x).expect("grad present");
        assert_eq!(g.as_slice(), &[1.0, 1.0]);
        assert!(t.grad(x).is_none(), "slot should be empty after take_grad");
    }

    #[test]
    fn stack_rows_roundtrip() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::row_vector(&[1.0, 2.0]), true);
        let b = t.leaf(Matrix::row_vector(&[3.0, 4.0]), true);
        let s = t.stack_rows(vec![a, b]);
        assert_eq!(t.value(s).shape(), (2, 2));
        let w = t.constant(Matrix::from_vec(2, 1, vec![1.0, 10.0]));
        let y = t.matmul(s, w);
        let loss = t.sum_all(y);
        t.backward(loss);
        assert_eq!(t.grad(a).expect("ga").as_slice(), &[1.0, 10.0]);
        assert_eq!(t.grad(b).expect("gb").as_slice(), &[1.0, 10.0]);
    }
}
