//! The Mars placer: segment-level sequence-to-sequence (§3.3, Fig. 6).
//!
//! The op sequence is split into segments of `segment_size`. Each
//! segment is encoded by a bidirectional LSTM whose forward state is
//! carried from the previous segment ("the encoded hidden state of
//! previous segment is used as the initial state of encoding new
//! segment"), then decoded by a unidirectional LSTM (also carried
//! across segments, so the placer "recalls previous decisions"). A
//! context-based input attention over the current segment's encoder
//! outputs feeds each decoding step.

use crate::placers::PlacerNet;
use mars_autograd::Var;
use mars_nn::attention::AttentionKeys;
use mars_nn::{decode, Attention, BiLstm, FwdCtx, Linear, LstmCell, ParamStore};
use mars_rng::Rng;

/// Segment-level seq2seq placer with attention.
pub struct SegmentSeq2Seq {
    encoder: BiLstm,
    decoder: LstmCell,
    attn: Attention,
    head: Linear,
    segment_size: usize,
    num_devices: usize,
}

impl SegmentSeq2Seq {
    /// Register parameters. `rep_dim` is the encoder-representation
    /// width, `hidden` the LSTM width (must be even: the BiLSTM halves
    /// it per direction).
    pub fn new(
        store: &mut ParamStore,
        rep_dim: usize,
        hidden: usize,
        attn_dim: usize,
        segment_size: usize,
        num_devices: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(hidden.is_multiple_of(2), "placer hidden width must be even");
        assert!(segment_size > 0);
        let encoder = BiLstm::new(store, "seg.enc", rep_dim, hidden / 2, rng);
        // Decoder input: [encoder output (hidden) ‖ attention context (hidden)].
        let decoder = LstmCell::new(store, "seg.dec", 2 * hidden, hidden, rng);
        let attn = Attention::new(store, "seg.attn", hidden, hidden, attn_dim, rng);
        let head = Linear::new(store, "seg.head", hidden, num_devices, true, rng);
        SegmentSeq2Seq { encoder, decoder, attn, head, segment_size, num_devices }
    }

    /// Segment length `s`.
    pub fn segment_size(&self) -> usize {
        self.segment_size
    }
}

impl SegmentSeq2Seq {
    /// Encode the segments in order, the forward state carried from
    /// one to the next, handing each one's attention keys to `each`.
    fn encode_segments(
        &self,
        ctx: &mut FwdCtx<'_>,
        reps: Var,
        mut each: impl FnMut(&mut FwdCtx<'_>, AttentionKeys),
    ) {
        let n = ctx.tape.value(reps).rows();
        let mut enc_state = None;
        let mut start = 0;
        while start < n {
            let end = (start + self.segment_size).min(n);
            let seg = ctx.tape.slice_rows(reps, start, end);
            let (enc_out, final_state) = self.encoder.run(ctx, seg, enc_state);
            enc_state = Some(final_state);
            let keys = self.attn.precompute(ctx, enc_out);
            each(ctx, keys);
            start = end;
        }
    }
}

impl PlacerNet for SegmentSeq2Seq {
    fn logits(&self, ctx: &mut FwdCtx<'_>, reps: Var) -> Var {
        // The decoder (its state carried across segments too) never
        // feeds an encoder, so it runs once over all of them, last.
        let mut keys = Vec::new();
        self.encode_segments(ctx, reps, |_, k| keys.push(k));
        let dec_state = self.decoder.zero_state(ctx);
        decode(ctx, &self.decoder, &self.attn, &self.head, &keys, dec_state)
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

    /// The tape `logits` recorded before the decoder was fused: per
    /// segment, encoder then op-by-op decode steps.
    fn composed_logits(p: &SegmentSeq2Seq, ctx: &mut FwdCtx<'_>, reps: Var) -> Var {
        let params = bind_params(ctx, &p.decoder, &p.attn, &p.head);
        let state = p.decoder.zero_state(ctx);
        let (mut rows, mut state) = (Vec::new(), (state.h, state.c));
        p.encode_segments(ctx, reps, |ctx, keys| {
            let seg = (keys.enc, keys.proj);
            state = mars_oracle::decode_segment(&mut ctx.tape, seg, params, state, &mut rows);
        });
        ctx.tape.stack_rows(rows)
    }

    #[test]
    fn logits_match_the_composed_oracle_bitwise() {
        for seed in 0..3 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut store = ParamStore::new();
            // 11 ops, segment 4 → segments of 4, 4, 3.
            let p = SegmentSeq2Seq::new(&mut store, 6, 8, 4, 4, 5, &mut rng);
            let reps = init::uniform(11, 6, 1.0, &mut rng);
            assert_same_bits(
                &store,
                &reps,
                |ctx, r| p.logits(ctx, r),
                |ctx, r| composed_logits(&p, ctx, r),
            );
        }
    }

    #[test]
    fn logits_shape_with_ragged_last_segment() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        // 10 ops, segment 4 → segments of 4, 4, 2.
        let p = SegmentSeq2Seq::new(&mut store, 6, 8, 4, 4, 5, &mut rng);
        let mut ctx = FwdCtx::new(Tape::new(), &store);
        let reps = ctx.tape.constant(init::uniform(10, 6, 1.0, &mut rng));
        let l = p.logits(&mut ctx, reps);
        assert_eq!(ctx.tape.value(l).shape(), (10, 5));
        assert!(ctx.tape.value(l).is_finite());
    }

    #[test]
    fn sequence_shorter_than_segment() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let p = SegmentSeq2Seq::new(&mut store, 4, 6, 4, 32, 3, &mut rng);
        let mut ctx = FwdCtx::new(Tape::new(), &store);
        let reps = ctx.tape.constant(init::uniform(5, 4, 1.0, &mut rng));
        let l = p.logits(&mut ctx, reps);
        assert_eq!(ctx.tape.value(l).shape(), (5, 3));
    }

    #[test]
    fn state_carry_makes_segments_interdependent() {
        // Changing an op in segment 1 must change logits in segment 2
        // (the carried state is the whole point of the design).
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let p = SegmentSeq2Seq::new(&mut store, 4, 8, 4, 4, 3, &mut rng);
        let base = init::uniform(8, 4, 1.0, &mut rng);
        let mut altered = base.clone();
        altered.set(1, 2, altered.get(1, 2) + 1.0); // inside segment 0

        let mut c1 = FwdCtx::new(Tape::new(), &store);
        let r1 = c1.tape.constant(base);
        let l1 = p.logits(&mut c1, r1);
        let mut c2 = FwdCtx::new(Tape::new(), &store);
        let r2 = c2.tape.constant(altered);
        let l2 = p.logits(&mut c2, r2);

        let seg2_a = c1.tape.value(l1).slice_rows(4, 8);
        let seg2_b = c2.tape.value(l2).slice_rows(4, 8);
        assert!(seg2_a.max_abs_diff(&seg2_b) > 1e-6, "no cross-segment influence");
    }

    #[test]
    fn gradients_flow_through_all_segments() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let p = SegmentSeq2Seq::new(&mut store, 4, 6, 4, 3, 4, &mut rng);
        let mut ctx = FwdCtx::new(Tape::new(), &store);
        let reps = ctx.tape.constant(init::uniform(7, 4, 1.0, &mut rng));
        let l = p.logits(&mut ctx, reps);
        let loss = ctx.tape.mean_all(l);
        let (grads, _) = ctx.into_grads(loss, 1.0);
        assert!(!grads.is_empty());
        let total: f32 = grads.iter().map(|(_, g)| g.frobenius_norm()).sum();
        assert!(total > 0.0);
    }
}
