//! Deep Graph Infomax contrastive pre-training (§3.2, Fig. 5).
//!
//! Positive sample: the workload graph itself. Negative sample: the
//! same graph with node features permuted (Eq. 2). A mean readout
//! summarizes the graph (Eq. 4), a bilinear discriminator scores
//! local–global pairs (Eq. 5), and the Jensen–Shannon/BCE objective
//! (Eq. 6) pushes real nodes' mutual information with the summary up
//! and shuffled nodes' down.
//!
//! §4.2: "we pre-train the graph encoder with contrastive learning for
//! 1000 iterations and save the parameters corresponding to the lowest
//! loss" — [`pretrain`] restores the best snapshot before returning.

use crate::encoder::Encoder;
use crate::workload_input::WorkloadInput;
use mars_autograd::{Tape, Var};
use mars_nn::{apply_grads, Adam, FwdCtx, ParamId, ParamStore};
use mars_rng::seq::SliceRandom;
use mars_rng::Rng;
use mars_tensor::{init, Matrix};
use std::sync::Arc;

/// The DGI discriminator (bilinear weight) plus the pre-training loop.
pub struct Dgi {
    w: ParamId,
}

/// Result of a pre-training run.
pub struct DgiReport {
    /// Loss after every iteration.
    pub losses: Vec<f32>,
    /// Best (lowest) loss seen.
    pub best_loss: f32,
    /// Iteration index of the best loss.
    pub best_iter: usize,
}

impl Dgi {
    /// Register the discriminator for `dim`-wide representations.
    pub fn new(store: &mut ParamStore, dim: usize, rng: &mut impl Rng) -> Self {
        Dgi { w: store.add("dgi.w", init::xavier_uniform(dim, dim, rng)) }
    }

    /// The contrastive loss for one (positive, negative) pair, and the
    /// discriminator's accuracy: the fraction of the `2N` local–global
    /// pairs it classifies correctly (positive score > 0, negative
    /// score < 0).
    ///
    /// `perm` is the node permutation producing the corrupted view.
    pub fn loss_stats(
        &self,
        ctx: &mut FwdCtx<'_>,
        encoder: &dyn Encoder,
        input: &WorkloadInput,
        perm: &[usize],
    ) -> (Var, f32) {
        let n = input.num_ops;
        assert_eq!(perm.len(), n);

        // Positive view.
        let h_pos = encoder.encode(ctx, input);
        // Corrupted view: same structure, shuffled features (Fig. 5).
        let corrupted = WorkloadInput {
            features: input.features.gather_rows(perm),
            adj: input.adj.clone(),
            num_ops: n,
        };
        let h_neg = encoder.encode(ctx, &corrupted);

        // Readout: s = sigmoid(mean of node representations), Eq. (4).
        let mean = ctx.tape.mean_rows(h_pos);
        let s = ctx.tape.sigmoid(mean); // 1 × d

        // Bilinear scores: H · W · sᵀ, Eq. (5). The sigmoid is folded
        // into the BCE-with-logits loss.
        let w = ctx.p(self.w);
        let st = ctx.tape.transpose(s); // d × 1
        let ws = ctx.tape.matmul(w, st); // d × 1
        let pos_scores = ctx.tape.matmul(h_pos, ws); // N × 1
        let neg_scores = ctx.tape.matmul(h_neg, ws); // N × 1

        let all = ctx.tape.concat_rows(pos_scores, neg_scores); // 2N × 1
        let mut targets = Matrix::zeros(2 * n, 1);
        for i in 0..n {
            targets.set(i, 0, 1.0);
        }
        let loss = ctx.tape.bce_with_logits(all, Arc::new(targets));

        // Discriminator accuracy: the sigmoid crosses 0.5 at logit 0.
        let pos = ctx.tape.value(pos_scores);
        let neg = ctx.tape.value(neg_scores);
        let correct = pos.as_slice().iter().filter(|&&s| s > 0.0).count()
            + neg.as_slice().iter().filter(|&&s| s < 0.0).count();
        let acc = correct as f32 / (2 * n) as f32;
        (loss, acc)
    }
}

/// Run DGI pre-training and restore the lowest-loss parameters.
///
/// The tape persists across iterations, so activation and gradient
/// buffers come from the scratch arena after the first update.
#[allow(clippy::too_many_arguments)]
pub fn pretrain(
    store: &mut ParamStore,
    encoder: &dyn Encoder,
    dgi: &Dgi,
    input: &WorkloadInput,
    iters: usize,
    lr: f32,
    grad_clip: f32,
    rng: &mut impl Rng,
) -> DgiReport {
    let _span = mars_telemetry::span("core.dgi.pretrain");
    let mut adam = Adam::new(lr);
    let mut losses = Vec::with_capacity(iters);
    let mut best_loss = f32::INFINITY;
    let mut best_iter = 0;
    let mut best_snapshot = store.snapshot();
    let mut perm: Vec<usize> = (0..input.num_ops).collect();
    let mut tape: Option<Tape> = None;

    for it in 0..iters {
        perm.shuffle(rng);
        let mut ctx = match tape.take() {
            Some(t) => FwdCtx::with_tape(t, store),
            None => FwdCtx::new(store),
        };
        let (loss, disc_acc) = dgi.loss_stats(&mut ctx, encoder, input, &perm);
        let value = ctx.tape.scalar(loss);
        let (grads, mut t) = ctx.into_grads_and_tape(loss, 1.0);
        apply_grads(store, grads);
        t.reset_for_reuse();
        tape = Some(t);
        adam.step(store, grad_clip);
        losses.push(value);
        if mars_telemetry::active() {
            mars_telemetry::event(
                "dgi.iter",
                &[
                    ("iter", (it as f64).into()),
                    ("loss", value.into()),
                    ("disc_acc", disc_acc.into()),
                ],
            );
        }
        if value < best_loss {
            best_loss = value;
            best_iter = it;
            best_snapshot = store.snapshot();
        }
    }
    store.restore(&best_snapshot);
    store.reset_optimizer_state();
    DgiReport { losses, best_loss, best_iter }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::GcnEncoder;
    use mars_graph::features::FEATURE_DIM;
    use mars_graph::generators::{Profile, Workload};
    use mars_rng::rngs::StdRng;
    use mars_rng::SeedableRng;

    #[test]
    fn loss_decreases_with_training() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let enc = GcnEncoder::new(&mut store, FEATURE_DIM, 16, 2, &mut rng);
        let dgi = Dgi::new(&mut store, 16, &mut rng);
        let input = WorkloadInput::from_graph(&Workload::InceptionV3.build(Profile::Reduced));
        let report = pretrain(&mut store, &enc, &dgi, &input, 150, 5e-3, 1.0, &mut rng);
        let first10: f32 = report.losses[..10].iter().sum::<f32>() / 10.0;
        let last10: f32 = report.losses[report.losses.len() - 10..].iter().sum::<f32>() / 10.0;
        assert!(
            last10 < first10 * 0.8,
            "DGI loss did not decrease: first {first10}, last {last10}"
        );
        assert!(report.best_loss <= last10 + 1e-6);
    }

    #[test]
    fn initial_loss_near_chance() {
        // With random parameters the discriminator is at chance:
        // BCE ≈ ln 2 ≈ 0.693.
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let enc = GcnEncoder::new(&mut store, FEATURE_DIM, 8, 2, &mut rng);
        let dgi = Dgi::new(&mut store, 8, &mut rng);
        let input = WorkloadInput::from_graph(&Workload::InceptionV3.build(Profile::Reduced));
        let perm: Vec<usize> = (0..input.num_ops).rev().collect();
        let mut ctx = FwdCtx::new(&store);
        let (loss, _) = dgi.loss_stats(&mut ctx, &enc, &input, &perm);
        let v = ctx.tape.scalar(loss);
        assert!((v - 0.693).abs() < 0.1, "initial loss {v}");
    }

    #[test]
    fn best_snapshot_restored() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let enc = GcnEncoder::new(&mut store, FEATURE_DIM, 8, 1, &mut rng);
        let dgi = Dgi::new(&mut store, 8, &mut rng);
        let input = WorkloadInput::from_graph(&Workload::InceptionV3.build(Profile::Reduced));
        let report = pretrain(&mut store, &enc, &dgi, &input, 30, 5e-3, 1.0, &mut rng);
        // Evaluate the restored parameters: their loss must be close to
        // the reported best (same permutation class, modest variance).
        let perm: Vec<usize> = (0..input.num_ops).rev().collect();
        let mut ctx = FwdCtx::new(&store);
        let (loss, _) = dgi.loss_stats(&mut ctx, &enc, &input, &perm);
        let v = ctx.tape.scalar(loss);
        assert!(v < report.losses[0] * 1.2, "restored loss {v} vs first {}", report.losses[0]);
    }
}
