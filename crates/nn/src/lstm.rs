//! LSTM cell, unidirectional and bidirectional sequence runners.
//!
//! The Mars placer is "a bidirectional LSTM layer as the encoder and a
//! uni-directional LSTM layer as the decoder" (§4.2), processing the
//! operation sequence segment-by-segment with the encoder hidden state
//! carried across segments. [`LstmState`] makes that carry-over
//! explicit: `Lstm::run` accepts an initial state and returns the final
//! one.
//!
//! Sequences are represented as `T × F` matrices (one row per element);
//! this matches how node representations come out of the GCN encoder.

use crate::ctx::FwdCtx;
use crate::param::{ParamId, ParamStore};
use mars_autograd::Var;
use mars_rng::Rng;
use mars_tensor::{init, Matrix};

/// Carried `(h, c)` state of an LSTM, as tape variables (each `1 × H`).
#[derive(Clone, Copy)]
pub struct LstmState {
    /// Hidden state.
    pub h: Var,
    /// Cell state.
    pub c: Var,
}

/// A single LSTM cell with fused gate weights.
///
/// Gate layout inside the fused `4H`-wide pre-activation is
/// `[i | f | g | o]`.
pub struct LstmCell {
    w_ih: ParamId,
    w_hh: ParamId,
    b: ParamId,
    input_dim: usize,
    hidden_dim: usize,
}

impl LstmCell {
    /// Register the cell parameters. The forget-gate bias starts at 1.0
    /// (standard trick for gradient flow over long sequences).
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        input_dim: usize,
        hidden_dim: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let w_ih =
            store.add(format!("{name}.w_ih"), init::xavier_uniform(input_dim, 4 * hidden_dim, rng));
        let w_hh = store
            .add(format!("{name}.w_hh"), init::xavier_uniform(hidden_dim, 4 * hidden_dim, rng));
        let mut bias = Matrix::zeros(1, 4 * hidden_dim);
        for cidx in hidden_dim..2 * hidden_dim {
            bias.set(0, cidx, 1.0);
        }
        let b = store.add(format!("{name}.b"), bias);
        LstmCell { w_ih, w_hh, b, input_dim, hidden_dim }
    }

    /// Hidden width.
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// Input width.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// The fused gate parameters `[w_ih, w_hh, b]`.
    pub(crate) fn params(&self) -> [ParamId; 3] {
        [self.w_ih, self.w_hh, self.b]
    }

    /// Zero initial state.
    pub fn zero_state(&self, ctx: &mut FwdCtx<'_>) -> LstmState {
        let h = ctx.tape.constant(Matrix::zeros(1, self.hidden_dim));
        let c = ctx.tape.constant(Matrix::zeros(1, self.hidden_dim));
        LstmState { h, c }
    }

    /// One step: `x` is `1 × input_dim`; returns the new state.
    ///
    /// Routed through the fused [`mars_autograd::Tape::lstm_seq`]
    /// kernel with `T = 1`: one packed pass over the concatenated
    /// `[i|f|g|o]` gate block (plus two row slices for the state)
    /// instead of the ~20 tape ops of the composed formulation —
    /// this is the decoder hot path, stepped once per placed op.
    /// Forward values are bit-identical to the composed ops: the fused
    /// gate math associates `(x·W_ih + h·W_hh) + b`, `(f·c) + (i·g)`
    /// and `o·tanh(c)` exactly like the op-by-op tape did.
    pub fn step(&self, ctx: &mut FwdCtx<'_>, x: Var, state: LstmState) -> LstmState {
        debug_assert_eq!(ctx.tape.value(x).shape(), (1, self.input_dim));
        let w_ih = ctx.p(self.w_ih);
        let w_hh = ctx.p(self.w_hh);
        let b = ctx.p(self.b);
        // 2 × H: row 0 is h_1, row 1 is the final cell state c_1.
        let out = ctx.tape.lstm_seq(x, w_ih, w_hh, b, state.h, state.c);
        let h = ctx.tape.slice_rows(out, 0, 1);
        let c = ctx.tape.slice_rows(out, 1, 2);
        LstmState { h, c }
    }
}

/// Unidirectional LSTM over a `T × F` sequence.
pub struct Lstm {
    /// The underlying cell.
    pub cell: LstmCell,
}

impl Lstm {
    /// Register a new LSTM.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        input_dim: usize,
        hidden_dim: usize,
        rng: &mut impl Rng,
    ) -> Self {
        Lstm { cell: LstmCell::new(store, name, input_dim, hidden_dim, rng) }
    }

    /// Run over the whole sequence. Returns the stacked hidden states
    /// (`T × H`) and the final state (for segment carry-over).
    ///
    /// Uses the fused [`mars_autograd::Tape::lstm_seq`] op (one tape
    /// node for the whole sequence, hand-written BPTT) — verified
    /// equivalent to the step-composed rollout in
    /// `mars-autograd/tests/lstm_fused.rs`.
    pub fn run(&self, ctx: &mut FwdCtx<'_>, xs: Var, init: Option<LstmState>) -> (Var, LstmState) {
        let _span = mars_telemetry::span("nn.lstm.run");
        let t_len = ctx.tape.value(xs).rows();
        assert!(t_len > 0, "Lstm::run on empty sequence");
        let state = init.unwrap_or_else(|| self.cell.zero_state(ctx));
        let w_ih = ctx.p(self.cell.w_ih);
        let w_hh = ctx.p(self.cell.w_hh);
        let b = ctx.p(self.cell.b);
        let out = ctx.tape.lstm_seq(xs, w_ih, w_hh, b, state.h, state.c);
        let hs = ctx.tape.slice_rows(out, 0, t_len);
        let h_final = ctx.tape.slice_rows(out, t_len - 1, t_len);
        let c_final = ctx.tape.slice_rows(out, t_len, t_len + 1);
        (hs, LstmState { h: h_final, c: c_final })
    }
}

/// Bidirectional LSTM: forward and backward passes concatenated
/// (`T × 2H` output).
pub struct BiLstm {
    /// Forward-direction cell.
    pub fwd: LstmCell,
    /// Backward-direction cell.
    pub bwd: LstmCell,
}

impl BiLstm {
    /// Register a new bidirectional LSTM.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        input_dim: usize,
        hidden_dim: usize,
        rng: &mut impl Rng,
    ) -> Self {
        BiLstm {
            fwd: LstmCell::new(store, &format!("{name}.fwd"), input_dim, hidden_dim, rng),
            bwd: LstmCell::new(store, &format!("{name}.bwd"), input_dim, hidden_dim, rng),
        }
    }

    /// Run over the sequence; `init` seeds the *forward* direction
    /// (segment carry-over in the Mars placer). Returns `T × 2H`
    /// outputs and the forward direction's final state.
    ///
    /// Both directions use the fused
    /// [`mars_autograd::Tape::lstm_seq`] op; the backward direction
    /// processes a row-reversed view of the input and un-reverses its
    /// outputs.
    pub fn run(&self, ctx: &mut FwdCtx<'_>, xs: Var, init: Option<LstmState>) -> (Var, LstmState) {
        let _span = mars_telemetry::span("nn.lstm.bi_run");
        let t_len = ctx.tape.value(xs).rows();
        assert!(t_len > 0, "BiLstm::run on empty sequence");
        let reversed: Vec<usize> = (0..t_len).rev().collect();

        // Forward direction.
        let state_f = init.unwrap_or_else(|| self.fwd.zero_state(ctx));
        let wf_ih = ctx.p(self.fwd.w_ih);
        let wf_hh = ctx.p(self.fwd.w_hh);
        let bf = ctx.p(self.fwd.b);
        let out_f = ctx.tape.lstm_seq(xs, wf_ih, wf_hh, bf, state_f.h, state_f.c);
        let hs_f = ctx.tape.slice_rows(out_f, 0, t_len);
        let hf_final = ctx.tape.slice_rows(out_f, t_len - 1, t_len);
        let cf_final = ctx.tape.slice_rows(out_f, t_len, t_len + 1);

        // Backward direction over the reversed sequence.
        let state_b = self.bwd.zero_state(ctx);
        let wb_ih = ctx.p(self.bwd.w_ih);
        let wb_hh = ctx.p(self.bwd.w_hh);
        let bb = ctx.p(self.bwd.b);
        let xs_rev = ctx.tape.gather_rows(xs, reversed.clone());
        let out_b = ctx.tape.lstm_seq(xs_rev, wb_ih, wb_hh, bb, state_b.h, state_b.c);
        let hs_b_rev = ctx.tape.slice_rows(out_b, 0, t_len);
        let hs_b = ctx.tape.gather_rows(hs_b_rev, reversed);

        let stacked = ctx.tape.concat_cols(hs_f, hs_b);
        (stacked, LstmState { h: hf_final, c: cf_final })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adam::Adam;
    use crate::linear::Linear;
    use mars_rng::rngs::StdRng;
    use mars_rng::SeedableRng;

    #[test]
    fn step_shapes_and_state_carry() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let lstm = Lstm::new(&mut store, "l", 3, 5, &mut rng);
        let mut ctx = FwdCtx::new(&store);
        let xs = ctx.tape.constant(Matrix::full(4, 3, 0.1));
        let (out, state) = lstm.run(&mut ctx, xs, None);
        assert_eq!(ctx.tape.value(out).shape(), (4, 5));
        assert_eq!(ctx.tape.value(state.h).shape(), (1, 5));
        // Final hidden row equals last stacked row.
        let last = ctx.tape.value(out).row(3).to_vec();
        assert_eq!(ctx.tape.value(state.h).as_slice(), &last[..]);
    }

    #[test]
    fn segment_carry_matches_full_run() {
        // Running [x0..x3] in one shot must equal running [x0..x1] then
        // [x2..x3] with the carried state — the exact property the
        // segment-level placer relies on.
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let lstm = Lstm::new(&mut store, "l", 2, 4, &mut rng);
        let xs = init::uniform(4, 2, 1.0, &mut rng);

        let mut ctx = FwdCtx::new(&store);
        let x_all = ctx.tape.constant(xs.clone());
        let (out_full, _) = lstm.run(&mut ctx, x_all, None);
        let full = ctx.tape.value(out_full).clone();

        let mut ctx2 = FwdCtx::new(&store);
        let x1 = ctx2.tape.constant(xs.slice_rows(0, 2));
        let (o1, s1) = lstm.run(&mut ctx2, x1, None);
        let x2 = ctx2.tape.constant(xs.slice_rows(2, 4));
        let (o2, _) = lstm.run(&mut ctx2, x2, Some(s1));
        let seg = ctx2.tape.value(o1).vcat(ctx2.tape.value(o2));

        assert!(full.max_abs_diff(&seg) < 1e-6);
    }

    #[test]
    fn bilstm_output_width_and_direction() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let bi = BiLstm::new(&mut store, "b", 3, 4, &mut rng);
        let mut ctx = FwdCtx::new(&store);
        let xs = ctx.tape.constant(init::uniform(5, 3, 1.0, &mut rng));
        let (out, _) = bi.run(&mut ctx, xs, None);
        assert_eq!(ctx.tape.value(out).shape(), (5, 8));
    }

    #[test]
    fn learns_to_remember_first_token() {
        // Sequence of ±1 scalars; target = sign of the FIRST element.
        // Solvable only if state actually propagates through time.
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        let lstm = Lstm::new(&mut store, "l", 1, 8, &mut rng);
        let head = Linear::new(&mut store, "head", 8, 1, true, &mut rng);
        let mut adam = Adam::new(0.02);
        let seqs: Vec<(Matrix, f32)> = (0..8)
            .map(|i| {
                let first = if i % 2 == 0 { 1.0 } else { -1.0 };
                let data = vec![first, 0.3, -0.2, 0.1, -0.4];
                (Matrix::col_vector(&data), (first + 1.0) / 2.0)
            })
            .collect();
        let mut last_loss = f32::INFINITY;
        for _ in 0..150 {
            let mut total = 0.0;
            for (xs, target) in &seqs {
                let mut ctx = FwdCtx::new(&store);
                let x = ctx.tape.constant(xs.clone());
                let (_, state) = lstm.run(&mut ctx, x, None);
                let logit = head.forward(&mut ctx, state.h);
                let t = std::sync::Arc::new(Matrix::from_vec(1, 1, vec![*target]));
                let loss = ctx.tape.bce_with_logits(logit, t);
                total += ctx.tape.scalar(loss);
                let grads = ctx.into_grads(loss, 1.0 / seqs.len() as f32);
                crate::ctx::apply_grads(&mut store, grads);
            }
            last_loss = total / seqs.len() as f32;
            adam.step(&mut store, 5.0);
        }
        assert!(last_loss < 0.1, "LSTM failed to learn copy task: loss {last_loss}");
    }
}
