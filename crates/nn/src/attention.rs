//! Context-based input attention (Bahdanau et al., 2015).
//!
//! The paper's placer uses "a context-based input attention mechanism
//! \[2\]" over the encoder outputs: at each decoding step the decoder
//! state queries every encoder position,
//!
//! ```text
//! score_j = vᵀ · tanh(W_e·e_j + W_d·d)
//! α       = softmax(score)
//! context = Σ_j α_j · e_j
//! ```
//!
//! `precompute` caches `E·W_e` once per segment. The read itself runs
//! inside the fused decoder ([`crate::decode::decode`], one
//! [`mars_autograd::Tape::attn_decode`] node per forward), so a decoding
//! step costs one `1 × A` query projection plus the softmax-weighted
//! sum. The `mars-oracle` dev-dependency transcribes the read from
//! primitive ops for the tests.

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
}

/// One segment's attention inputs, its projection cached once.
#[derive(Clone, Copy)]
pub struct AttentionKeys {
    /// The segment's encoder outputs (`T × enc_dim`).
    pub enc: Var,
    /// Their projection `enc · W_e` (`T × attn_dim`).
    pub proj: Var,
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
        }
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
}
