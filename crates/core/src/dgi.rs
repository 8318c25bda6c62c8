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

use crate::config::GRAD_CLIP;
use crate::encoder::Encoder;
use crate::workload_input::WorkloadInput;
use mars_autograd::{Tape, Var};
use mars_nn::{apply_grads, Adam, FwdCtx, ParamId, ParamStore};
use mars_rng::seq::SliceRandom;
use mars_rng::Rng;
use mars_tensor::{init, pool, Matrix};
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

/// The three tapes of a DGI iteration: one per view, which
/// [`Dgi::step`] encodes side by side as the two lanes of a
/// [`pool::join`], and the discriminator's. Kept across iterations, so
/// every arena stays warm.
#[derive(Default)]
pub struct DgiTapes {
    pos: Tape,
    neg: Tape,
    head: Tape,
}

impl Dgi {
    /// Register the discriminator for `dim`-wide representations.
    pub fn new(store: &mut ParamStore, dim: usize, rng: &mut impl Rng) -> Self {
        Dgi { w: store.add("dgi.w", init::xavier_uniform(dim, dim, rng)) }
    }

    /// One iteration's forward and backward for one (positive,
    /// negative) pair: accumulates every parameter's gradient of the
    /// contrastive loss into `store` and returns the loss and the
    /// discriminator's accuracy, the fraction of the `2N` local–global
    /// pairs it classifies correctly (positive score > 0, negative
    /// score < 0).
    ///
    /// `perm` is the node permutation producing the corrupted view. The
    /// two views are independent until the discriminator, so each is
    /// encoded, and later swept backward, on its own tape and its own
    /// lane; the discriminator runs on the third tape over copies of
    /// both views' outputs, and seeds each view's sweep with that
    /// view's gradient. The arithmetic is that of one tape holding both
    /// views (DESIGN §5k).
    pub fn step(
        &self,
        tapes: &mut DgiTapes,
        store: &mut ParamStore,
        encoder: &(dyn Encoder + Sync),
        input: &WorkloadInput,
        perm: &[usize],
    ) -> (f32, f32) {
        let n = input.num_ops;
        assert_eq!(perm.len(), n);
        let params: &ParamStore = store;
        let encode = |tape: &mut Tape, view: &WorkloadInput| {
            let mut ctx = FwdCtx::new(std::mem::take(tape), params);
            let h = encoder.encode(&mut ctx, view);
            (ctx, h)
        };
        // A cold tape allocates its whole arena during the pass. On the
        // helper, those buffers would land in the helper thread's own
        // malloc heap beside the caller's, which raised the corpus's peak
        // RSS by 8% (DESIGN §5k). So the first pass runs both views on
        // the caller, in sequence, as `join` does without a helper.
        let cold = tapes.neg.arena_high_water() == 0;
        let ((pos, h_pos), (neg, h_neg)) = lanes(
            cold,
            || encode(&mut tapes.pos, input),
            || {
                // Corrupted view: same structure, shuffled features (Fig. 5).
                let corrupted = WorkloadInput {
                    features: input.features.gather_rows(perm),
                    adj: input.adj.clone(),
                    num_ops: n,
                };
                encode(&mut tapes.neg, &corrupted)
            },
        );

        let mut head = FwdCtx::new(std::mem::take(&mut tapes.head), params);
        let hp = head.tape.leaf_from(pos.tape.value(h_pos), true);
        let hn = head.tape.leaf_from(neg.tape.value(h_neg), true);
        let (loss, acc) = self.discriminate(&mut head, hp, hn);
        let value = head.tape.scalar(loss);
        let (head_grads, head_tape) = head.into_grads(loss, 1.0);

        let seed = |v| head_tape.grad(v).expect("both views feed the loss").as_slice();
        let ((pos_grads, pos_tape), (neg_grads, neg_tape)) = lanes(
            cold,
            || pos.into_grads_seeded(h_pos, seed(hp), 1.0),
            || neg.into_grads_seeded(h_neg, seed(hn), 1.0),
        );
        // Each encoder parameter gets one term per view. The store adds
        // them one at a time, `(+0 + a) + b`, where one tape's sweep
        // added `+0 + (a + b)`: the same bits (DESIGN §5k).
        for grads in [pos_grads, neg_grads, head_grads] {
            apply_grads(store, grads);
        }
        for (slot, mut tape) in
            [(&mut tapes.head, head_tape), (&mut tapes.neg, neg_tape), (&mut tapes.pos, pos_tape)]
        {
            tape.reset_for_reuse();
            *slot = tape;
        }
        (value, acc)
    }

    /// The discriminator over the two views' representations: the
    /// contrastive loss, and the discriminator's accuracy.
    fn discriminate(&self, ctx: &mut FwdCtx<'_>, h_pos: Var, h_neg: Var) -> (Var, f32) {
        let n = ctx.tape.value(h_pos).rows();
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

/// `a` and `b` on the pool's two lanes ([`pool::join`]), or, when
/// `cold`, one after the other on the caller: the same arithmetic.
fn lanes<A, B, RA, RB>(cold: bool, a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB + Send,
    RB: Send,
{
    if cold {
        (a(), b())
    } else {
        pool::join(a, b)
    }
}

/// Run DGI pre-training and restore the lowest-loss parameters.
///
/// The tapes persist across iterations, so activation and gradient
/// buffers come from the scratch arenas after the first update.
pub fn pretrain(
    store: &mut ParamStore,
    encoder: &(dyn Encoder + Sync),
    dgi: &Dgi,
    input: &WorkloadInput,
    iters: usize,
    lr: f32,
    rng: &mut impl Rng,
) -> DgiReport {
    let _span = mars_telemetry::span("core.dgi.pretrain");
    let mut adam = Adam::new(lr);
    let mut losses = Vec::with_capacity(iters);
    let mut best_loss = f32::INFINITY;
    let mut best_iter = 0;
    let mut best_snapshot = store.snapshot();
    let mut perm: Vec<usize> = (0..input.num_ops).collect();
    let mut tapes = DgiTapes::default();

    for it in 0..iters {
        perm.shuffle(rng);
        let (value, disc_acc) = dgi.step(&mut tapes, store, encoder, input, &perm);
        // `value` is the loss of the parameters before this step: those
        // are the ones to keep if it is the lowest.
        if value < best_loss {
            best_loss = value;
            best_iter = it;
            best_snapshot = store.snapshot();
        }
        adam.step(store, GRAD_CLIP);
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
        let report = pretrain(&mut store, &enc, &dgi, &input, 150, 5e-3, &mut rng);
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
        let (v, _) = dgi.step(&mut DgiTapes::default(), &mut store, &enc, &input, &perm);
        assert!((v - 0.693).abs() < 0.1, "initial loss {v}");
    }

    #[test]
    fn best_snapshot_restored() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let enc = GcnEncoder::new(&mut store, FEATURE_DIM, 8, 1, &mut rng);
        let dgi = Dgi::new(&mut store, 8, &mut rng);
        let input = WorkloadInput::from_graph(&Workload::InceptionV3.build(Profile::Reduced));
        let report = pretrain(&mut store, &enc, &dgi, &input, 30, 5e-3, &mut rng);
        // Evaluate the restored parameters: their loss must be close to
        // the reported best (same permutation class, modest variance).
        let perm: Vec<usize> = (0..input.num_ops).rev().collect();
        let (v, _) = dgi.step(&mut DgiTapes::default(), &mut store, &enc, &input, &perm);
        assert!(v < report.losses[0] * 1.2, "restored loss {v} vs first {}", report.losses[0]);
    }

    #[test]
    fn one_iteration_restores_the_initial_parameters() {
        // The one loss measured is the initial parameters'; the step
        // taken after it must not survive the restore.
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let enc = GcnEncoder::new(&mut store, FEATURE_DIM, 8, 2, &mut rng);
        let dgi = Dgi::new(&mut store, 8, &mut rng);
        let input = WorkloadInput::from_graph(&Workload::InceptionV3.build(Profile::Reduced));
        let bits = |store: &ParamStore| -> Vec<Vec<u32>> {
            store
                .snapshot()
                .iter()
                .map(|m| m.as_slice().iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        let initial = bits(&store);
        let report = pretrain(&mut store, &enc, &dgi, &input, 1, 5e-3, &mut rng);
        assert_eq!((report.losses.len(), report.best_iter), (1, 0));
        assert!(bits(&store) == initial, "the restore kept a parameter of the step after the best");
    }

    /// The single-tape composition the lanes replace: both views, then
    /// the discriminator, on one tape — [`Dgi::step`]'s bitwise
    /// reference.
    fn single_tape_loss(
        dgi: &Dgi,
        ctx: &mut FwdCtx<'_>,
        encoder: &dyn Encoder,
        input: &WorkloadInput,
        perm: &[usize],
    ) -> (Var, f32) {
        let h_pos = encoder.encode(ctx, input);
        let corrupted = WorkloadInput {
            features: input.features.gather_rows(perm),
            adj: input.adj.clone(),
            num_ops: input.num_ops,
        };
        let h_neg = encoder.encode(ctx, &corrupted);
        dgi.discriminate(ctx, h_pos, h_neg)
    }

    fn grad_bits(store: &ParamStore) -> Vec<Vec<u32>> {
        store
            .ids()
            .map(|id| store.grad(id).as_slice().iter().map(|x| x.to_bits()).collect())
            .collect()
    }

    #[test]
    fn lane_step_matches_the_single_tape_reference_bitwise() {
        use mars_tensor::kernel::{self, Backend};
        for backend in [Some(Backend::Scalar), None] {
            kernel::set_backend_override(backend);
            for (seed, workload, width) in
                [(3, Workload::InceptionV3, 16), (4, Workload::Gnmt4, 24)]
            {
                let input = WorkloadInput::from_graph(&workload.build(Profile::Reduced));
                let mut rng = StdRng::seed_from_u64(seed);
                let mut store = ParamStore::new();
                let enc = GcnEncoder::new(&mut store, FEATURE_DIM, width, 3, &mut rng);
                let dgi = Dgi::new(&mut store, width, &mut rng);
                let mut perm: Vec<usize> = (0..input.num_ops).collect();
                perm.shuffle(&mut rng);

                let mut ctx = FwdCtx::new(Tape::new(), &store);
                let (loss, ref_acc) = single_tape_loss(&dgi, &mut ctx, &enc, &input, &perm);
                let ref_loss = ctx.tape.scalar(loss);
                let (grads, _) = ctx.into_grads(loss, 1.0);
                apply_grads(&mut store, grads);
                let ref_grads = grad_bits(&store);
                assert!(ref_grads.iter().all(|g| g.iter().any(|&b| b != 0)), "a dead gradient");
                store.zero_grads();

                // Twice: cold tapes, then warm arenas.
                let mut tapes = DgiTapes::default();
                for pass in 0..2 {
                    let (loss, acc) = dgi.step(&mut tapes, &mut store, &enc, &input, &perm);
                    let at = format!("seed {seed}, pass {pass}, backend {backend:?}");
                    assert_eq!(loss.to_bits(), ref_loss.to_bits(), "loss, {at}");
                    assert_eq!(acc.to_bits(), ref_acc.to_bits(), "accuracy, {at}");
                    for (id, (g, r)) in store.ids().zip(grad_bits(&store).iter().zip(&ref_grads)) {
                        assert_eq!(g, r, "gradient of {}, {at}", store.name(id));
                    }
                    store.zero_grads();
                }
            }
        }
        kernel::set_backend_override(None);
    }
}
