//! The placers' attention decoder (Mirhoseini et al., 2017; §3.3 keeps
//! it per segment).
//!
//! Every seq2seq placer decodes the same way: per placed op, an
//! attention read over the current segment's encoder outputs, one LSTM
//! step on `[encoder row ‖ context]` with the state carried from the
//! previous op (across segments too), and a linear head producing the
//! device logits. [`decode`] records that whole loop as one
//! [`mars_autograd::Tape::attn_decode`] node over the parameters
//! [`bind_params`] puts on the tape. The `mars-oracle` crate (a
//! dev-dependency) records the same loop from primitive ops; the test
//! below and the placers' tests compare the two bit for bit.

use crate::attention::{Attention, AttentionKeys};
use crate::ctx::FwdCtx;
use crate::linear::Linear;
use crate::lstm::{LstmCell, LstmState};
use mars_autograd::Var;

/// Bind the decoder's seven parameters on `ctx`'s tape, in the order
/// [`mars_autograd::Tape::attn_decode`] reads them: `[w_dec, v, w_ih,
/// w_hh, b, head_w, head_b]`.
///
/// # Panics
/// If `head` has no bias.
pub fn bind_params(
    ctx: &mut FwdCtx<'_>,
    cell: &LstmCell,
    attn: &Attention,
    head: &Linear,
) -> [Var; 7] {
    let [w_dec, v] = attn.query_params();
    let [w_ih, w_hh, b] = cell.params();
    let head_b = head.bias().expect("decode: the device head has a bias");
    [w_dec, v, w_ih, w_hh, b, head.weight(), head_b].map(|p| ctx.p(p))
}

/// Decode every row of every segment in `keys` (in order) from `state`
/// and return the `N × D` logits. The segments' encoders never read the
/// decoder, so callers record them all first and decode once, last.
///
/// # Panics
/// If `head` has no bias or `keys` is empty.
pub fn decode(
    ctx: &mut FwdCtx<'_>,
    cell: &LstmCell,
    attn: &Attention,
    head: &Linear,
    keys: &[AttentionKeys],
    state: LstmState,
) -> Var {
    let _span = mars_telemetry::span("nn.decode");
    let params = bind_params(ctx, cell, attn, head);
    let segs: Vec<(Var, Var)> = keys.iter().map(|k| (k.enc, k.proj)).collect();
    ctx.tape.attn_decode(&segs, params, state.h, state.c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::apply_grads;
    use crate::param::ParamStore;
    use mars_autograd::Tape;
    use mars_rng::rngs::StdRng;
    use mars_rng::SeedableRng;
    use mars_tensor::{init, Matrix};

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// Logits, the gradient on each (`requires_grad`) encoder block and
    /// every parameter gradient after `apply_grads`, as bits.
    fn run(seed: u64, fused: bool) -> (Vec<u32>, Vec<Vec<u32>>, Vec<Vec<u32>>) {
        let (ed, hd, ad, nd) = (6, 5, 4, 3);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let cell = LstmCell::new(&mut store, "dec", 2 * ed, hd, &mut rng);
        let attn = Attention::new(&mut store, "attn", ed, hd, ad, &mut rng);
        let head = Linear::new(&mut store, "head", hd, nd, true, &mut rng);
        // 11 ops in segments of 4/4/3.
        let encs: Vec<Matrix> = [4, 4, 3].map(|t| init::uniform(t, ed, 1.0, &mut rng)).into();
        let mix = init::uniform(11, nd, 1.0, &mut rng);

        let mut ctx = FwdCtx::new(Tape::new(), &store);
        let enc_vars: Vec<Var> = encs.iter().map(|m| ctx.tape.leaf(m.clone(), true)).collect();
        let state = cell.zero_state(&mut ctx);
        let logits = if fused {
            let keys: Vec<AttentionKeys> =
                enc_vars.iter().map(|&e| attn.precompute(&mut ctx, e)).collect();
            decode(&mut ctx, &cell, &attn, &head, &keys, state)
        } else {
            // The chain the placers recorded before the fusion: each
            // segment's key projection right before its steps.
            let params = bind_params(&mut ctx, &cell, &attn, &head);
            let (mut rows, mut state) = (Vec::new(), (state.h, state.c));
            for &e in &enc_vars {
                let keys = attn.precompute(&mut ctx, e);
                let seg = (keys.enc, keys.proj);
                state = mars_oracle::decode_segment(&mut ctx.tape, seg, params, state, &mut rows);
            }
            ctx.tape.stack_rows(rows)
        };
        let logit_bits = bits(ctx.tape.value(logits));
        let weights = ctx.tape.constant(mix);
        let weighted = ctx.tape.mul(logits, weights);
        let loss = ctx.tape.sum_all(weighted);
        let (grads, tape) = ctx.into_grads(loss, 1.0);
        let enc_grads = enc_vars.iter().map(|&e| bits(tape.grad(e).expect("enc grad"))).collect();
        apply_grads(&mut store, grads);
        // Every parameter, `attn.w_enc` (fed through the `proj` slots) included.
        let param_grads = store.ids().map(|id| bits(store.grad(id))).collect();
        (logit_bits, enc_grads, param_grads)
    }

    #[test]
    fn fused_decode_matches_the_composed_loop_bitwise() {
        for seed in 0..6 {
            let fused = run(seed, true);
            let composed = run(seed, false);
            assert_eq!(fused.0, composed.0, "logits diverged (seed {seed})");
            assert_eq!(fused.1, composed.1, "encoder gradients diverged (seed {seed})");
            assert_eq!(fused.2, composed.2, "parameter gradients diverged (seed {seed})");
            assert!(fused.2.iter().all(|g| g.iter().any(|&b| b != 0)), "a parameter got no grad");
        }
    }
}
