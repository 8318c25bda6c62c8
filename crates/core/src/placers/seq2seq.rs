//! Full-sequence seq2seq placer with attention (Mirhoseini et al. [21],
//! Hierarchical Planner's placer [20]).
//!
//! Encodes the *entire* op sequence with one bidirectional LSTM and
//! decodes device choices with a unidirectional LSTM + attention. §3.3:
//! "As the number of operations increases, it becomes less likely for
//! the sequence-to-sequence placer to encode all of them at once
//! efficiently" — this is the architecture Table 1 shows losing on
//! every benchmark.

use crate::placers::PlacerNet;
use mars_autograd::Var;
use mars_nn::{decode, Attention, BiLstm, FwdCtx, Linear, LstmCell, ParamStore};
use mars_rng::Rng;

/// Classic seq2seq placer over the full sequence.
pub struct FullSeq2Seq {
    encoder: BiLstm,
    decoder: LstmCell,
    attn: Attention,
    head: Linear,
    num_devices: usize,
}

impl FullSeq2Seq {
    /// Register parameters (see [`crate::placers::segment::SegmentSeq2Seq::new`]).
    pub fn new(
        store: &mut ParamStore,
        rep_dim: usize,
        hidden: usize,
        attn_dim: usize,
        num_devices: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(hidden.is_multiple_of(2), "placer hidden width must be even");
        FullSeq2Seq {
            encoder: BiLstm::new(store, "s2s.enc", rep_dim, hidden / 2, rng),
            decoder: LstmCell::new(store, "s2s.dec", 2 * hidden, hidden, rng),
            attn: Attention::new(store, "s2s.attn", hidden, hidden, attn_dim, rng),
            head: Linear::new(store, "s2s.head", hidden, num_devices, true, rng),
            num_devices,
        }
    }
}

impl PlacerNet for FullSeq2Seq {
    fn logits(&self, ctx: &mut FwdCtx<'_>, reps: Var) -> Var {
        let (enc_out, _) = self.encoder.run(ctx, reps, None);
        let keys = self.attn.precompute(ctx, enc_out);
        let state = self.decoder.zero_state(ctx);
        decode(ctx, &self.decoder, &self.attn, &self.head, &[keys], state)
    }

    fn num_devices(&self) -> usize {
        self.num_devices
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placers::oracle::assert_same_bits;
    use mars_autograd::Tape;
    use mars_nn::decode::bind_params;
    use mars_rng::rngs::StdRng;
    use mars_rng::SeedableRng;
    use mars_tensor::init;

    /// The tape `logits` recorded before the decoder was fused.
    fn composed_logits(p: &FullSeq2Seq, ctx: &mut FwdCtx<'_>, reps: Var) -> Var {
        let (enc_out, _) = p.encoder.run(ctx, reps, None);
        let keys = p.attn.precompute(ctx, enc_out);
        let params = bind_params(ctx, &p.decoder, &p.attn, &p.head);
        let state = p.decoder.zero_state(ctx);
        let mut rows = Vec::new();
        let seg = (keys.enc, keys.proj);
        mars_oracle::decode_segment(&mut ctx.tape, seg, params, (state.h, state.c), &mut rows);
        ctx.tape.stack_rows(rows)
    }

    #[test]
    fn logits_match_the_composed_oracle_bitwise() {
        for seed in 0..3 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut store = ParamStore::new();
            let p = FullSeq2Seq::new(&mut store, 5, 8, 4, 5, &mut rng);
            let reps = init::uniform(9, 5, 1.0, &mut rng);
            assert_same_bits(
                &store,
                &reps,
                |ctx, r| p.logits(ctx, r),
                |ctx, r| composed_logits(&p, ctx, r),
            );
        }
    }

    #[test]
    fn logits_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let p = FullSeq2Seq::new(&mut store, 5, 8, 4, 5, &mut rng);
        let mut ctx = FwdCtx::new(Tape::new(), &store);
        let reps = ctx.tape.constant(init::uniform(9, 5, 1.0, &mut rng));
        let l = p.logits(&mut ctx, reps);
        assert_eq!(ctx.tape.value(l).shape(), (9, 5));
        assert!(ctx.tape.value(l).is_finite());
    }

    #[test]
    fn attention_sees_whole_sequence() {
        // Changing the LAST op's representation must influence the
        // FIRST op's logits (via the bidirectional encoder).
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let p = FullSeq2Seq::new(&mut store, 4, 6, 4, 3, &mut rng);
        let base = init::uniform(6, 4, 1.0, &mut rng);
        let mut altered = base.clone();
        altered.set(5, 0, altered.get(5, 0) + 1.0);

        let mut c1 = FwdCtx::new(Tape::new(), &store);
        let r1 = c1.tape.constant(base);
        let l1 = p.logits(&mut c1, r1);
        let mut c2 = FwdCtx::new(Tape::new(), &store);
        let r2 = c2.tape.constant(altered);
        let l2 = p.logits(&mut c2, r2);
        let first_a = mars_tensor::Matrix::row_vector(c1.tape.value(l1).row(0));
        let first_b = mars_tensor::Matrix::row_vector(c2.tape.value(l2).row(0));
        assert!(first_a.max_abs_diff(&first_b) > 1e-7);
    }
}
