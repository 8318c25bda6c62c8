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
//!
//! Run as one segment over the whole sequence, the same network is the
//! classic seq2seq placer with attention (Mirhoseini et al. [21]; the
//! placer of the Hierarchical Planner [20]), which encodes every op at
//! once: Table 1's Seq2seq column and the grouper's placer.

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
    /// Register parameters under `prefix` (`"seg"` for Mars, `"s2s"`
    /// for the full-sequence placer, `"grp"` for the grouper's): the
    /// prefix keeps each placer's checkpoint names apart. `rep_dim` is
    /// the input-representation width, `hidden` the LSTM width (must be
    /// even: the BiLSTM halves it per direction).
    ///
    /// The placer runs as one segment, however long the sequence, until
    /// [`SegmentSeq2Seq::with_segment_size`] splits it.
    pub fn new(
        store: &mut ParamStore,
        prefix: &str,
        rep_dim: usize,
        hidden: usize,
        attn_dim: usize,
        num_devices: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(hidden.is_multiple_of(2), "placer hidden width must be even");
        let name = |part: &str| format!("{prefix}.{part}");
        let encoder = BiLstm::new(store, &name("enc"), rep_dim, hidden / 2, rng);
        // Decoder input: [encoder output (hidden) ‖ attention context (hidden)].
        let decoder = LstmCell::new(store, &name("dec"), 2 * hidden, hidden, rng);
        let attn = Attention::new(store, &name("attn"), hidden, hidden, attn_dim, rng);
        let head = Linear::new(store, &name("head"), hidden, num_devices, true, rng);
        SegmentSeq2Seq { encoder, decoder, attn, head, segment_size: usize::MAX, num_devices }
    }

    /// Split the sequence into segments of `segment_size` ops (`s`).
    pub fn with_segment_size(mut self, segment_size: usize) -> Self {
        assert!(segment_size > 0);
        self.segment_size = segment_size;
        self
    }

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
            let end = start.saturating_add(self.segment_size).min(n);
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
pub(crate) mod tests {
    use super::*;
    use crate::placers::oracle::assert_same_bits;
    use mars_autograd::Tape;
    use mars_nn::decode::bind_params;
    use mars_rng::rngs::StdRng;
    use mars_rng::SeedableRng;
    use mars_tensor::init;

    /// The tape `logits` recorded before the decoder was fused: per
    /// segment, encoder then op-by-op decode steps. The grouper's
    /// oracle runs it over the group embeddings.
    pub(crate) fn composed_logits(p: &SegmentSeq2Seq, ctx: &mut FwdCtx<'_>, reps: Var) -> Var {
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
        // (rep_dim, segment, ops): 11 ops in segments of 4, 4, 3; and
        // 9 ops in the one segment of the full-sequence placer.
        for (rep_dim, segment, ops) in [(6, 4, 11), (5, usize::MAX, 9)] {
            for seed in 0..3 {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut store = ParamStore::new();
                let p = SegmentSeq2Seq::new(&mut store, "seg", rep_dim, 8, 4, 5, &mut rng)
                    .with_segment_size(segment);
                let reps = init::uniform(ops, rep_dim, 1.0, &mut rng);
                assert_same_bits(
                    &store,
                    &reps,
                    |ctx, r| p.logits(ctx, r),
                    |ctx, r| composed_logits(&p, ctx, r),
                );
            }
        }
    }

    #[test]
    fn logits_shape_with_ragged_last_segment() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        // 10 ops, segment 4 → segments of 4, 4, 2.
        let p = SegmentSeq2Seq::new(&mut store, "seg", 6, 8, 4, 5, &mut rng).with_segment_size(4);
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
        let p = SegmentSeq2Seq::new(&mut store, "seg", 4, 6, 4, 3, &mut rng).with_segment_size(32);
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
        let p = SegmentSeq2Seq::new(&mut store, "seg", 4, 8, 4, 3, &mut rng).with_segment_size(4);
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
        let p = SegmentSeq2Seq::new(&mut store, "seg", 4, 6, 4, 4, &mut rng).with_segment_size(3);
        let mut ctx = FwdCtx::new(Tape::new(), &store);
        let reps = ctx.tape.constant(init::uniform(7, 4, 1.0, &mut rng));
        let l = p.logits(&mut ctx, reps);
        let loss = ctx.tape.mean_all(l);
        let (grads, _) = ctx.into_grads(loss, 1.0);
        assert!(!grads.is_empty());
        let total: f32 = grads.iter().map(|(_, g)| g.frobenius_norm()).sum();
        assert!(total > 0.0);
    }

    #[test]
    fn one_segment_attends_to_the_whole_sequence() {
        // Without a segment size, changing the LAST op's representation
        // must influence the FIRST op's logits (via the bidirectional
        // encoder and the attention over every op).
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let p = SegmentSeq2Seq::new(&mut store, "s2s", 4, 6, 4, 3, &mut rng);
        let base = init::uniform(6, 4, 1.0, &mut rng);
        let mut altered = base.clone();
        altered.set(5, 0, altered.get(5, 0) + 1.0);

        let mut c1 = FwdCtx::new(Tape::new(), &store);
        let r1 = c1.tape.constant(base);
        let l1 = p.logits(&mut c1, r1);
        let mut c2 = FwdCtx::new(Tape::new(), &store);
        let r2 = c2.tape.constant(altered);
        let l2 = p.logits(&mut c2, r2);
        assert_eq!(c1.tape.value(l1).shape(), (6, 3));
        assert!(c1.tape.value(l1).is_finite());
        let first_a = c1.tape.value(l1).slice_rows(0, 1);
        let first_b = c2.tape.value(l2).slice_rows(0, 1);
        assert!(first_a.max_abs_diff(&first_b) > 1e-7);
    }
}
