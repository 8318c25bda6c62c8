//! The Grouper-Placer baseline (Hierarchical Planner, Mirhoseini et
//! al. [20]).
//!
//! A two-layer MLP grouper soft-assigns each op to one of `G` groups;
//! group embeddings are the assignment-weighted means of op features;
//! a seq2seq placer with attention assigns a device distribution to
//! each group; an op's device distribution is the assignment-weighted
//! mixture of its groups' device distributions.
//!
//! Substitution note (DESIGN.md §2): the original trains hard group
//! assignments with REINFORCE through two stochastic stages; we use the
//! differentiable soft-mixture policy so all agents share one PPO
//! trainer. The action space reduction — the paper's Fig. 2a — is
//! preserved: devices are chosen per *group*, ops inherit them.

use crate::placers::PlacerNet;
use mars_autograd::Var;
use mars_nn::{decode, Attention, BiLstm, FwdCtx, Linear, LstmCell, ParamStore};
use mars_rng::Rng;

/// Grouper + seq2seq-placer policy producing per-op device log-probs.
pub struct GrouperPlacerNet {
    grouper_fc1: Linear,
    grouper_fc2: Linear,
    enc: BiLstm,
    dec: LstmCell,
    attn: Attention,
    head: Linear,
    num_groups: usize,
    num_devices: usize,
}

impl GrouperPlacerNet {
    /// Register parameters.
    pub fn new(
        store: &mut ParamStore,
        feature_dim: usize,
        hidden: usize,
        attn_dim: usize,
        num_groups: usize,
        num_devices: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(hidden.is_multiple_of(2));
        GrouperPlacerNet {
            grouper_fc1: Linear::new(store, "grp.fc1", feature_dim, hidden, true, rng),
            grouper_fc2: Linear::new(store, "grp.fc2", hidden, num_groups, true, rng),
            enc: BiLstm::new(store, "grp.enc", feature_dim, hidden / 2, rng),
            dec: LstmCell::new(store, "grp.dec", 2 * hidden, hidden, rng),
            attn: Attention::new(store, "grp.attn", hidden, hidden, attn_dim, rng),
            head: Linear::new(store, "grp.head", hidden, num_devices, true, rng),
            num_groups,
            num_devices,
        }
    }

    /// Number of groups `G`.
    pub fn num_groups(&self) -> usize {
        self.num_groups
    }
}

impl GrouperPlacerNet {
    /// Soft group assignment `S` (`N × G`) and the group embeddings,
    /// the normalized `Sᵀ · X` (`G × F`).
    fn group(&self, ctx: &mut FwdCtx<'_>, reps: Var) -> (Var, Var) {
        let h = self.grouper_fc1.forward(ctx, reps);
        let a = ctx.tape.tanh(h);
        let group_logits = self.grouper_fc2.forward(ctx, a);
        let s = ctx.tape.softmax_rows(group_logits); // N × G

        let st = ctx.tape.transpose(s); // G × N
        let mass = ctx.tape.sum_rows(s); // 1 × G, column masses
        let raw = ctx.tape.matmul(st, reps); // G × F
                                             // Normalize each group row by its mass (avoid division op:
                                             // scale via reciprocal diagonal — implemented with an
                                             // elementwise product against a broadcast reciprocal).
        let recip = {
            let eps = 1e-6f32;
            let m = ctx.tape.value(mass).clone();
            let mut r = m.clone();
            r.map_inplace(|x| 1.0 / (x + eps));
            ctx.tape.constant(r)
        };
        let recip_t = ctx.tape.transpose(recip); // G × 1
        let ones = ctx.tape.constant(mars_tensor::Matrix::full(1, ctx.tape.value(raw).cols(), 1.0));
        let recip_full = ctx.tape.matmul(recip_t, ones); // G × F broadcast
        (s, ctx.tape.mul(raw, recip_full))
    }

    /// Op device distribution `S · softmax(group logits)` (`N × D`),
    /// returned as log-probs.
    fn mix(&self, ctx: &mut FwdCtx<'_>, s: Var, group_dev_logits: Var) -> Var {
        let group_dev_probs = ctx.tape.softmax_rows(group_dev_logits);
        let op_probs = ctx.tape.matmul(s, group_dev_probs);
        let eps = ctx.tape.add_scalar(op_probs, 1e-8);
        ctx.tape.ln(eps)
    }
}

impl PlacerNet for GrouperPlacerNet {
    fn logits(&self, ctx: &mut FwdCtx<'_>, reps: Var) -> Var {
        let (s, group_emb) = self.group(ctx, reps);
        // Seq2seq placer over group embeddings → per-group device logits.
        let (enc_out, _) = self.enc.run(ctx, group_emb, None);
        let keys = self.attn.precompute(ctx, enc_out);
        let state = self.dec.zero_state(ctx);
        let group_dev_logits = decode(ctx, &self.dec, &self.attn, &self.head, &[keys], state); // G × D
        self.mix(ctx, s, group_dev_logits)
    }

    fn num_devices(&self) -> usize {
        self.num_devices
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placers::oracle::assert_same_bits;
    use mars_nn::decode::decode_composed;
    use mars_rng::rngs::StdRng;
    use mars_rng::SeedableRng;
    use mars_tensor::init;
    use mars_tensor::stats::softmax_rows;

    /// The tape `logits` recorded before the decoder was fused.
    fn composed_logits(p: &GrouperPlacerNet, ctx: &mut FwdCtx<'_>, reps: Var) -> Var {
        let (s, group_emb) = p.group(ctx, reps);
        let (enc_out, _) = p.enc.run(ctx, group_emb, None);
        let keys = p.attn.precompute(ctx, enc_out);
        let state = p.dec.zero_state(ctx);
        let mut rows = Vec::new();
        decode_composed(ctx, &p.dec, &p.attn, &p.head, keys, state, &mut rows);
        let group_dev_logits = ctx.tape.stack_rows(rows);
        p.mix(ctx, s, group_dev_logits)
    }

    #[test]
    fn logits_match_the_composed_oracle_bitwise() {
        for seed in 0..3 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut store = ParamStore::new();
            let p = GrouperPlacerNet::new(&mut store, 6, 8, 4, 3, 5, &mut rng);
            let reps = init::uniform(9, 6, 1.0, &mut rng);
            assert_same_bits(
                &store,
                &reps,
                |ctx, r| p.logits(ctx, r),
                |ctx, r| composed_logits(&p, ctx, r),
            );
        }
    }

    #[test]
    fn logits_rows_are_normalized_distributions() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let p = GrouperPlacerNet::new(&mut store, 6, 8, 4, 3, 5, &mut rng);
        let mut ctx = FwdCtx::new(&store);
        let reps = ctx.tape.constant(init::uniform(9, 6, 1.0, &mut rng));
        let l = p.logits(&mut ctx, reps);
        let lv = ctx.tape.value(l);
        assert_eq!(lv.shape(), (9, 5));
        // The output is log of a proper mixture: rows already normalized.
        for r in 0..9 {
            let s: f32 = lv.row(r).iter().map(|x| x.exp()).sum();
            assert!((s - 1.0).abs() < 1e-4, "row {r} sums to {s}");
        }
        // Applying softmax again (as the PPO path does) must be ~identity.
        let again = softmax_rows(lv);
        for r in 0..9 {
            for c in 0..5 {
                assert!((again.get(r, c) - lv.get(r, c).exp()).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn ops_in_same_group_share_device_distribution() {
        // Two ops with identical features get identical rows.
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let p = GrouperPlacerNet::new(&mut store, 4, 8, 4, 2, 3, &mut rng);
        let mut feats = init::uniform(6, 4, 1.0, &mut rng);
        let row0 = feats.row(0).to_vec();
        feats.row_mut(3).copy_from_slice(&row0);
        let mut ctx = FwdCtx::new(&store);
        let reps = ctx.tape.constant(feats);
        let l = p.logits(&mut ctx, reps);
        let lv = ctx.tape.value(l);
        for c in 0..3 {
            assert!((lv.get(0, c) - lv.get(3, c)).abs() < 1e-5);
        }
    }

    #[test]
    fn gradients_reach_grouper_and_placer() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let p = GrouperPlacerNet::new(&mut store, 4, 8, 4, 3, 4, &mut rng);
        let mut ctx = FwdCtx::new(&store);
        let reps = ctx.tape.constant(init::uniform(5, 4, 1.0, &mut rng));
        let l = p.logits(&mut ctx, reps);
        let sel = ctx.tape.select_per_row(l, vec![0, 1, 2, 3, 0]);
        let loss = ctx.tape.mean_all(sel);
        let grads = ctx.into_grads(loss, 1.0);
        let by_name: Vec<&str> = grads.iter().map(|(id, _)| store.name(*id)).collect();
        assert!(by_name.iter().any(|n| n.starts_with("grp.fc1")), "{by_name:?}");
        assert!(by_name.iter().any(|n| n.starts_with("grp.head")), "{by_name:?}");
    }
}
