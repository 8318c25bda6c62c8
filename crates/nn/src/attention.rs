//! Context-based input attention (Bahdanau et al., 2015).
//!
//! The paper's placer uses "a context-based input attention mechanism
//! [2]" over the encoder outputs: at each decoding step the decoder
//! state queries every encoder position,
//!
//! ```text
//! score_j = vᵀ · tanh(W_e·e_j + W_d·d)
//! α       = softmax(score)
//! context = Σ_j α_j · e_j
//! ```
//!
//! `precompute` caches `E·W_e` once per forward pass so each decoding
//! step costs only one `1 × H` projection plus the softmax-weighted sum.

use crate::ctx::FwdCtx;
use crate::param::{ParamId, ParamStore};
use mars_autograd::Var;
use mars_rng::Rng;
use mars_tensor::init;

/// Bahdanau-style additive attention.
pub struct Attention {
    w_enc: ParamId,
    w_dec: ParamId,
    v: ParamId,
    attn_dim: usize,
}

/// Cached encoder projection for one forward pass.
#[derive(Clone, Copy)]
pub struct AttentionKeys {
    pub(crate) enc: Var,
    pub(crate) proj: Var,
}

impl Attention {
    /// Register parameters. `enc_dim`/`dec_dim` are the encoder/decoder
    /// state widths, `attn_dim` the scoring space width.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        enc_dim: usize,
        dec_dim: usize,
        attn_dim: usize,
        rng: &mut impl Rng,
    ) -> Self {
        Attention {
            w_enc: store.add(format!("{name}.w_enc"), init::xavier_uniform(enc_dim, attn_dim, rng)),
            w_dec: store.add(format!("{name}.w_dec"), init::xavier_uniform(dec_dim, attn_dim, rng)),
            v: store.add(format!("{name}.v"), init::xavier_uniform(attn_dim, 1, rng)),
            attn_dim,
        }
    }

    /// Scoring-space width.
    pub fn attn_dim(&self) -> usize {
        self.attn_dim
    }

    /// The query-side parameters `[w_dec, v]` a decoding step reads.
    pub(crate) fn query_params(&self) -> [ParamId; 2] {
        [self.w_dec, self.v]
    }

    /// Project the encoder outputs (`T × enc_dim`) once.
    pub fn precompute(&self, ctx: &mut FwdCtx<'_>, enc: Var) -> AttentionKeys {
        let w = ctx.p(self.w_enc);
        let proj = ctx.tape.matmul(enc, w);
        AttentionKeys { enc, proj }
    }

    /// One attention read with decoder state `dec` (`1 × dec_dim`).
    /// Returns the context vector (`1 × enc_dim`).
    ///
    /// The scoring chain runs through the fused
    /// [`mars_autograd::Tape::attn_scores`] op: one tape node computes
    /// `(tanh(proj ⊕ dproj) · v)ᵀ` in a single pass instead of four
    /// composed ops with three `T × attn` intermediates — this is the
    /// decoder hot path, read once per placed op.
    pub fn read(&self, ctx: &mut FwdCtx<'_>, keys: AttentionKeys, dec: Var) -> Var {
        let _span = mars_telemetry::span("nn.attention.read");
        let wd = ctx.p(self.w_dec);
        let dproj = ctx.tape.matmul(dec, wd); // 1 × attn
        let v = ctx.p(self.v);
        let scores_row = ctx.tape.attn_scores(keys.proj, dproj, v); // 1 × T
        let weights = ctx.tape.softmax_rows(scores_row); // 1 × T
        ctx.tape.matmul(weights, keys.enc) // 1 × enc_dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_rng::rngs::StdRng;
    use mars_rng::SeedableRng;
    use mars_tensor::Matrix;

    #[test]
    fn context_is_convex_combination() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let attn = Attention::new(&mut store, "a", 3, 2, 4, &mut rng);
        let mut ctx = FwdCtx::new(&store);
        // Encoder rows are one-hot — context components must be softmax
        // weights, hence in [0, 1] and summing to 1.
        let enc = ctx.tape.constant(Matrix::eye(3));
        let keys = attn.precompute(&mut ctx, enc);
        let dec = ctx.tape.constant(Matrix::row_vector(&[0.5, -0.5]));
        let c = attn.read(&mut ctx, keys, dec);
        let v = ctx.tape.value(c);
        assert_eq!(v.shape(), (1, 3));
        let sum: f32 = v.as_slice().iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert!(v.as_slice().iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn different_queries_give_different_contexts() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let attn = Attention::new(&mut store, "a", 4, 4, 8, &mut rng);
        let mut ctx = FwdCtx::new(&store);
        let enc = ctx.tape.constant(init::uniform(6, 4, 1.0, &mut rng));
        let keys = attn.precompute(&mut ctx, enc);
        let d1 = ctx.tape.constant(init::uniform(1, 4, 1.0, &mut rng));
        let d2 = ctx.tape.constant(init::uniform(1, 4, 1.0, &mut rng));
        let c1 = attn.read(&mut ctx, keys, d1);
        let c2 = attn.read(&mut ctx, keys, d2);
        assert!(ctx.tape.value(c1).max_abs_diff(ctx.tape.value(c2)) > 1e-6);
    }

    #[test]
    fn gradients_reach_all_three_params() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let attn = Attention::new(&mut store, "a", 3, 3, 5, &mut rng);
        let mut ctx = FwdCtx::new(&store);
        let enc = ctx.tape.constant(init::uniform(4, 3, 1.0, &mut rng));
        let keys = attn.precompute(&mut ctx, enc);
        let dec = ctx.tape.constant(init::uniform(1, 3, 1.0, &mut rng));
        let c = attn.read(&mut ctx, keys, dec);
        let loss = ctx.tape.mean_all(c);
        let grads = ctx.into_grads(loss, 1.0);
        crate::ctx::apply_grads(&mut store, grads);
        assert!(store.grad(attn.w_enc).frobenius_norm() > 0.0);
        assert!(store.grad(attn.w_dec).frobenius_norm() > 0.0);
        assert!(store.grad(attn.v).frobenius_norm() > 0.0);
    }
}
