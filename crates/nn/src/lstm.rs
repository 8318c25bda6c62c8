//! LSTM cell and the bidirectional sequence runner.
//!
//! The Mars placer is "a bidirectional LSTM layer as the encoder and a
//! uni-directional LSTM layer as the decoder" (§4.2), processing the
//! operation sequence segment-by-segment with the encoder hidden state
//! carried across segments. That carry-over is explicit: `BiLstm::run`
//! accepts the forward direction's [`BiLstmCarry`] and returns the
//! final one. The decoder's cell steps inside the fused
//! [`crate::decode::decode`] node, which carries its [`LstmState`] from
//! op to op; an [`LstmCell`] itself only owns parameters and the zero
//! state.
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
        LstmCell { w_ih, w_hh, b, hidden_dim }
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
}

/// The forward direction's final `[h ‖ c]` (`1 × 2H`) after one
/// [`BiLstm::run`]: what the Mars placer carries from one segment's
/// encoder to the next.
#[derive(Clone, Copy)]
pub struct BiLstmCarry(Var);

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
    /// (segment carry-over in the Mars placer), which otherwise starts
    /// from zeros like the backward one. Returns `T × 2H` outputs and
    /// the forward direction's final state.
    ///
    /// Both directions are one [`mars_autograd::Tape::bilstm`] node,
    /// the backward direction on a pool lane beside the forward one.
    /// The carry is sliced after the outputs, the order the node's
    /// bit-identity with the two-`lstm_seq` chain relies on.
    pub fn run(
        &self,
        ctx: &mut FwdCtx<'_>,
        xs: Var,
        init: Option<BiLstmCarry>,
    ) -> (Var, BiLstmCarry) {
        let _span = mars_telemetry::span("nn.lstm.bi_run");
        let t_len = ctx.tape.value(xs).rows();
        assert!(t_len > 0, "BiLstm::run on empty sequence");
        let fwd = self.fwd.params().map(|p| ctx.p(p));
        let bwd = self.bwd.params().map(|p| ctx.p(p));
        let out = ctx.tape.bilstm(xs, fwd, bwd, init.map(|c| c.0));
        let stacked = ctx.tape.slice_rows(out, 0, t_len);
        let carry = ctx.tape.slice_rows(out, t_len, t_len + 1);
        (stacked, BiLstmCarry(carry))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adam::Adam;
    use crate::linear::Linear;
    use mars_autograd::Tape;
    use mars_rng::rngs::StdRng;
    use mars_rng::SeedableRng;

    /// Unidirectional LSTM over a `T × F` sequence: one `lstm_seq`
    /// node, the multi-step use of the fused op the tests below pin.
    struct Lstm {
        cell: LstmCell,
    }

    impl Lstm {
        fn new(
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
        fn run(&self, ctx: &mut FwdCtx<'_>, xs: Var, init: Option<LstmState>) -> (Var, LstmState) {
            let t_len = ctx.tape.value(xs).rows();
            assert!(t_len > 0, "Lstm::run on empty sequence");
            let state = init.unwrap_or_else(|| self.cell.zero_state(ctx));
            let [w_ih, w_hh, b] = self.cell.params().map(|p| ctx.p(p));
            let out = ctx.tape.lstm_seq(xs, w_ih, w_hh, b, state.h, state.c);
            let hs = ctx.tape.slice_rows(out, 0, t_len);
            let h_final = ctx.tape.slice_rows(out, t_len - 1, t_len);
            let c_final = ctx.tape.slice_rows(out, t_len, t_len + 1);
            (hs, LstmState { h: h_final, c: c_final })
        }
    }

    #[test]
    fn step_shapes_and_state_carry() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let lstm = Lstm::new(&mut store, "l", 3, 5, &mut rng);
        let mut ctx = FwdCtx::new(Tape::new(), &store);
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

        let mut ctx = FwdCtx::new(Tape::new(), &store);
        let x_all = ctx.tape.constant(xs.clone());
        let (out_full, _) = lstm.run(&mut ctx, x_all, None);
        let full = ctx.tape.value(out_full).clone();

        let mut ctx2 = FwdCtx::new(Tape::new(), &store);
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
        let mut ctx = FwdCtx::new(Tape::new(), &store);
        let xs = ctx.tape.constant(init::uniform(5, 3, 1.0, &mut rng));
        let (out, _) = bi.run(&mut ctx, xs, None);
        assert_eq!(ctx.tape.value(out).shape(), (5, 8));
    }

    /// The chain one [`BiLstm::run`] node replaced: two `lstm_seq`
    /// nodes, the backward one over a `gather_rows`-reversed input whose
    /// outputs are gathered back and `concat_cols`-joined to the forward
    /// ones, the forward state carried as two row slices.
    fn run_composed(
        bi: &BiLstm,
        ctx: &mut FwdCtx<'_>,
        xs: Var,
        init: Option<LstmState>,
    ) -> (Var, LstmState) {
        let t_len = ctx.tape.value(xs).rows();
        let reversed: Vec<usize> = (0..t_len).rev().collect();
        let state_f = init.unwrap_or_else(|| bi.fwd.zero_state(ctx));
        let [wf_ih, wf_hh, bf] = bi.fwd.params().map(|p| ctx.p(p));
        let out_f = ctx.tape.lstm_seq(xs, wf_ih, wf_hh, bf, state_f.h, state_f.c);
        let hs_f = ctx.tape.slice_rows(out_f, 0, t_len);
        let hf_final = ctx.tape.slice_rows(out_f, t_len - 1, t_len);
        let cf_final = ctx.tape.slice_rows(out_f, t_len, t_len + 1);
        let state_b = bi.bwd.zero_state(ctx);
        let [wb_ih, wb_hh, bb] = bi.bwd.params().map(|p| ctx.p(p));
        let xs_rev = ctx.tape.gather_rows(xs, reversed.clone());
        let out_b = ctx.tape.lstm_seq(xs_rev, wb_ih, wb_hh, bb, state_b.h, state_b.c);
        let hs_b_rev = ctx.tape.slice_rows(out_b, 0, t_len);
        let hs_b = ctx.tape.gather_rows(hs_b_rev, reversed);
        let stacked = ctx.tape.concat_cols(hs_f, hs_b);
        (stacked, LstmState { h: hf_final, c: cf_final })
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// Per segment the outputs, then the last carry `[h ‖ c]`, the input
    /// gradient and every parameter gradient, as bits. The loss weighs
    /// every output and the last carry by values that include `+0.0` and
    /// `-0.0`, so signed-zero gradients reach both directions.
    fn bilstm_bits(seed: u64, segs: &[usize], fused: bool) -> Vec<Vec<u32>> {
        let (fd, hd) = (6, 5);
        let n: usize = segs.iter().sum();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let bi = BiLstm::new(&mut store, "bi", fd, hd, &mut rng);
        let mut x = init::uniform(n, fd, 1.0, &mut rng);
        if n > 4 {
            for c in 0..fd {
                x.set(2, c, 0.0);
            }
            x.set(4, 1, -0.0);
        }
        let mut signed = |rows, cols| {
            let mut m = init::uniform(rows, cols, 1.0, &mut rng);
            m.as_mut_slice().iter_mut().step_by(4).for_each(|v| *v = 0.0);
            m.as_mut_slice().iter_mut().skip(2).step_by(5).for_each(|v| *v = -0.0);
            m
        };
        let mixes: Vec<Matrix> = segs.iter().map(|&t| signed(t, 2 * hd)).collect();
        let carry_mix = signed(1, 2 * hd);

        let mut ctx = FwdCtx::new(Tape::new(), &store);
        let xv = ctx.tape.leaf(x, true);
        let (mut outs, mut start) = (Vec::new(), 0);
        let (mut carry, mut state) = (None, None);
        for &t in segs {
            let seg = ctx.tape.slice_rows(xv, start, start + t);
            let out = if fused {
                let (out, c) = bi.run(&mut ctx, seg, carry);
                carry = Some(c);
                out
            } else {
                let (out, s) = run_composed(&bi, &mut ctx, seg, state);
                state = Some(s);
                out
            };
            outs.push(out);
            start += t;
        }
        let last = match (carry, state) {
            (Some(c), _) => c.0,
            (_, Some(s)) => ctx.tape.concat_cols(s.h, s.c),
            _ => unreachable!(),
        };
        let mut result: Vec<Vec<u32>> = outs.iter().map(|&o| bits(ctx.tape.value(o))).collect();
        result.push(bits(ctx.tape.value(last)));
        let mut terms = Vec::new();
        for (&o, mix) in outs.iter().chain([&last]).zip(mixes.iter().chain([&carry_mix])) {
            let w = ctx.tape.constant(mix.clone());
            let weighted = ctx.tape.mul(o, w);
            terms.push(ctx.tape.sum_all(weighted));
        }
        let loss = terms.into_iter().reduce(|a, b| ctx.tape.add(a, b)).unwrap();
        let (grads, tape) = ctx.into_grads(loss, 1.0);
        result.push(bits(tape.grad(xv).expect("input gradient")));
        crate::ctx::apply_grads(&mut store, grads);
        result.extend(store.ids().map(|id| bits(store.grad(id))));
        result
    }

    #[test]
    fn bilstm_node_matches_the_composed_chain_bitwise() {
        use mars_tensor::kernel::{self, Backend};
        let backends = [Some(Backend::Scalar), None];
        for backend in backends {
            kernel::set_backend_override(backend);
            // A one-step segment (its weights add straight into the slot)
            // and one longer than a replay chunk (32 steps).
            for (seed, segs) in [(0, &[4, 4, 3][..]), (1, &[37, 1, 5]), (2, &[1]), (3, &[9])] {
                let fused = bilstm_bits(seed, segs, true);
                let composed = bilstm_bits(seed, segs, false);
                assert_eq!(fused.len(), composed.len());
                for (k, (f, c)) in fused.iter().zip(&composed).enumerate() {
                    assert_eq!(f, c, "part {k} differs (seed {seed}, backend {backend:?})");
                }
                // (A lone one-step segment gives `w_hh` no term: h_prev = 0.)
                let param_grads = &fused[segs.len() + 2..];
                let live = param_grads.iter().all(|g| g.iter().any(|&b| b != 0));
                assert!(live || segs == [1], "a parameter got no gradient (seed {seed})");
            }
        }
        kernel::set_backend_override(None);
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
                let mut ctx = FwdCtx::new(Tape::new(), &store);
                let x = ctx.tape.constant(xs.clone());
                let (_, state) = lstm.run(&mut ctx, x, None);
                let logit = head.forward(&mut ctx, state.h);
                let t = std::sync::Arc::new(Matrix::from_vec(1, 1, vec![*target]));
                let loss = ctx.tape.bce_with_logits(logit, t);
                total += ctx.tape.scalar(loss);
                let (grads, _) = ctx.into_grads(loss, 1.0 / seqs.len() as f32);
                crate::ctx::apply_grads(&mut store, grads);
            }
            last_loss = total / seqs.len() as f32;
            adam.step(&mut store, 5.0);
        }
        assert!(last_loss < 0.1, "LSTM failed to learn copy task: loss {last_loss}");
    }
}
