//! Placer networks (§3.3).
//!
//! Every placer maps per-op representations (`N × d`) to per-op device
//! logits (`N × D`). Placements are sampled per-op from the row-wise
//! categorical distribution; PPO re-evaluates the log-probability of
//! sampled actions through the same forward pass.
//!
//! Compared in Table 1:
//! * Seq2seq — classic full-sequence seq2seq with attention (struggles
//!   on long op sequences): [`segment::SegmentSeq2Seq`] with one
//!   segment over the whole sequence;
//! * [`segment::SegmentSeq2Seq`] — **the Mars placer**: segment-level
//!   BiLSTM encoder + LSTM decoder with state carried across segments;
//! * [`trfxl::TrfXlPlacer`] — a Transformer-XL-style segment-recurrent
//!   attention placer (the GDP baseline's placer, "a little heavy");
//! * [`mlp::MlpPlacer`] — the two-layer MLP the paper dismisses
//!   ("easily overfits, gets stuck at a local optimum").

pub mod mlp;
pub mod segment;
pub mod trfxl;

use crate::config::MarsConfig;
use mars_autograd::Var;
use mars_nn::{FwdCtx, ParamStore};
use mars_rng::Rng;
use mlp::MlpPlacer;
use segment::SegmentSeq2Seq;
use trfxl::TrfXlPlacer;

/// A network producing per-op device logits.
pub trait PlacerNet {
    /// Compute `N × num_devices` logits from `N × d` representations.
    fn logits(&self, ctx: &mut FwdCtx<'_>, reps: Var) -> Var;
    /// Action-space width.
    fn num_devices(&self) -> usize;
}

/// Which placer architecture to instantiate (Table 1 ablation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlacerChoice {
    /// Full-sequence seq2seq.
    Seq2Seq,
    /// Segment-level seq2seq (Mars).
    Segment,
    /// Transformer-XL-style.
    TrfXl,
    /// Two-layer MLP.
    Mlp,
}

impl PlacerChoice {
    /// Canonical column label used in Table 1.
    pub fn label(self) -> &'static str {
        match self {
            PlacerChoice::Seq2Seq => "Seq2seq",
            PlacerChoice::Segment => "Seq2seq (segment)",
            PlacerChoice::TrfXl => "Trf-XL",
            PlacerChoice::Mlp => "MLP",
        }
    }

    /// Register this placer's parameters at `cfg`'s widths, over
    /// `rep_dim`-wide representations and `num_devices` devices.
    pub fn build(
        self,
        store: &mut ParamStore,
        rep_dim: usize,
        cfg: &MarsConfig,
        num_devices: usize,
        rng: &mut impl Rng,
    ) -> Box<dyn PlacerNet + Send + Sync> {
        let (hidden, attn, d) = (cfg.placer_hidden, cfg.attn_dim, num_devices);
        match self {
            PlacerChoice::Seq2Seq => {
                Box::new(SegmentSeq2Seq::new(store, "s2s", rep_dim, hidden, attn, d, rng))
            }
            PlacerChoice::Segment => Box::new(
                SegmentSeq2Seq::new(store, "seg", rep_dim, hidden, attn, d, rng)
                    .with_segment_size(cfg.segment_size),
            ),
            PlacerChoice::TrfXl => {
                Box::new(TrfXlPlacer::new(store, rep_dim, hidden, cfg.segment_size, d, rng))
            }
            PlacerChoice::Mlp => Box::new(MlpPlacer::new(store, rep_dim, hidden, d, rng)),
        }
    }
}

/// Shared by the seq2seq placer's and the grouper's tests: each pins
/// its `logits` (one fused [`mars_nn::decode`]) to the op-by-op tape it
/// recorded before the fusion, its decode loop rebuilt from primitive
/// ops by `mars_oracle::decode_segment`.
#[cfg(test)]
pub(crate) mod oracle {
    use mars_autograd::{Tape, Var};
    use mars_nn::{FwdCtx, ParamStore};
    use mars_rng::rngs::StdRng;
    use mars_rng::SeedableRng;
    use mars_tensor::{init, Matrix};

    /// One forward + backward through `logits` over a `requires_grad`
    /// `reps`: the logits, the gradient on `reps` and every parameter
    /// gradient (ascending id), as bits.
    fn pass(
        store: &ParamStore,
        reps: &Matrix,
        logits: impl FnOnce(&mut FwdCtx<'_>, Var) -> Var,
    ) -> Vec<Vec<u32>> {
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let mut ctx = FwdCtx::new(Tape::new(), store);
        let reps = ctx.tape.leaf(reps.clone(), true);
        let l = logits(&mut ctx, reps);
        let mut out = vec![bits(ctx.tape.value(l))];
        let (r, c) = ctx.tape.value(l).shape();
        let mix = ctx.tape.constant(init::uniform(r, c, 1.0, &mut StdRng::seed_from_u64(99)));
        let weighted = ctx.tape.mul(l, mix);
        let loss = ctx.tape.sum_all(weighted);
        let (grads, tape) = ctx.into_grads(loss, 1.0);
        out.push(bits(tape.grad(reps).expect("gradient on reps")));
        assert_eq!(grads.len(), store.len(), "a parameter got no gradient");
        out.extend(grads.iter().map(|(_, g)| bits(g)));
        out
    }

    /// Assert `fused` and `composed` agree bit for bit on `reps`.
    pub(crate) fn assert_same_bits(
        store: &ParamStore,
        reps: &Matrix,
        fused: impl FnOnce(&mut FwdCtx<'_>, Var) -> Var,
        composed: impl FnOnce(&mut FwdCtx<'_>, Var) -> Var,
    ) {
        let (f, c) = (pass(store, reps, fused), pass(store, reps, composed));
        assert_eq!(f[0], c[0], "logits diverged from the composed oracle");
        assert_eq!(f[1], c[1], "gradient on reps diverged from the composed oracle");
        assert_eq!(f[2..], c[2..], "parameter gradients diverged from the composed oracle");
    }
}
