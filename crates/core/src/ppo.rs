//! Proximal policy optimization (§3.4).
//!
//! Reward: `R = −√t` where `t` is the measured per-step time (Eq. 7).
//! Baseline: exponential moving average of rewards with μ = 0.99;
//! advantage `Â = R − B`. The clipped surrogate is applied per op
//! (each op's device choice is an action sharing the placement's
//! advantage), which keeps ratios numerically sane for graphs with
//! hundreds of ops.

use mars_autograd::Var;
use mars_nn::FwdCtx;
use mars_rng::Rng;
use mars_tensor::stats;
use mars_tensor::Matrix;

/// One sampled placement with everything PPO needs to reuse it.
#[derive(Clone)]
pub struct SampleRecord {
    /// Device chosen per op.
    pub actions: Vec<usize>,
    /// Log-probability of each chosen action under the sampling policy
    /// (`N × 1`).
    pub old_logp: Matrix,
    /// Advantage (filled in after the baseline update).
    pub advantage: f32,
}

/// Reward shaping applied to the per-step reading (Eq. 7 uses
/// `R = −√t`; the alternatives are ablation points).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum RewardShaping {
    /// The paper's `R = −√t`.
    #[default]
    NegSqrt,
    /// Raw negative time `R = −t` (over-weights bad placements).
    NegLinear,
    /// Logarithmic `R = −ln(1 + t)` (compresses the penalty range).
    NegLog,
}

impl RewardShaping {
    /// Shape a per-step reading into a reward.
    pub fn reward(self, reading_s: f64) -> f32 {
        let t = reading_s.max(0.0);
        (match self {
            RewardShaping::NegSqrt => -t.sqrt(),
            RewardShaping::NegLinear => -t,
            RewardShaping::NegLog => -t.ln_1p(),
        }) as f32
    }
}

/// The EMA baseline of Eq. (7).
#[derive(Clone, Debug, Default)]
pub struct EmaBaseline {
    value: Option<f32>,
}

impl EmaBaseline {
    /// Update with a new reward and return the advantage `R − B`
    /// (using the *pre-update* baseline; `B₁ = R₁` so the first
    /// advantage is 0).
    pub fn advantage(&mut self, reward: f32, mu: f32) -> f32 {
        match self.value {
            None => {
                self.value = Some(reward);
                0.0
            }
            Some(b) => {
                let adv = reward - b;
                self.value = Some((1.0 - mu) * reward + mu * b);
                adv
            }
        }
    }

    /// Current baseline value.
    pub fn value(&self) -> Option<f32> {
        self.value
    }
}

/// Sample one placement from row-wise categorical `probs` (`N × D`),
/// returning actions and their log-probabilities.
pub fn sample_actions(probs: &Matrix, rng: &mut impl Rng) -> (Vec<usize>, Matrix) {
    let n = probs.rows();
    let mut actions = Vec::with_capacity(n);
    let mut logp = Matrix::zeros(n, 1);
    for r in 0..n {
        let row = probs.row(r);
        let u: f32 = rng.gen();
        let mut acc = 0.0;
        let mut chosen = row.len() - 1;
        for (d, &p) in row.iter().enumerate() {
            acc += p;
            if u < acc {
                chosen = d;
                break;
            }
        }
        actions.push(chosen);
        logp.set(r, 0, row[chosen].max(1e-12).ln());
    }
    (actions, logp)
}

/// Greedy (argmax) actions from `probs`.
pub fn greedy_actions(probs: &Matrix) -> Vec<usize> {
    (0..probs.rows()).map(|r| stats::argmax(probs.row(r))).collect()
}

/// Diagnostics of one PPO minibatch update (read off the tape after the
/// forward pass; pure observation, no effect on the loss).
#[derive(Clone, Copy, Debug, Default)]
pub struct PpoStats {
    /// Fraction of (sample, op) ratios outside `1 ± ε`.
    pub clip_fraction: f32,
    /// `mean(old_logp − new_logp)` — the usual cheap KL estimate.
    pub approx_kl: f32,
    /// Policy entropy averaged over ops (nats).
    pub entropy: f32,
}

/// Build the clipped-surrogate PPO loss for one minibatch on the tape.
///
/// `logits` are the current policy's `N × D` logits; each record
/// contributes `mean_ops(min(ρ·Â, clip(ρ, 1±ε)·Â))`. Returns the scalar
/// loss variable `-(surrogate + entropy_coef × entropy)` and its
/// [`PpoStats`] diagnostics for telemetry.
pub fn ppo_loss_stats(
    ctx: &mut FwdCtx<'_>,
    logits: Var,
    batch: &[&SampleRecord],
    clip_eps: f32,
    entropy_coef: f32,
) -> (Var, PpoStats) {
    assert!(!batch.is_empty());
    let lp = ctx.tape.log_softmax_rows(logits);
    let n = ctx.tape.value(lp).rows();

    let mut surrogate_sum: Option<Var> = None;
    let mut clipped_count = 0usize;
    let mut kl_sum = 0.0f64;
    for rec in batch {
        assert_eq!(rec.actions.len(), n, "sample/op-count mismatch");
        let sel = ctx.tape.select_per_row(lp, rec.actions.clone());
        let old = ctx.tape.constant(rec.old_logp.clone());
        let diff = ctx.tape.sub(sel, old);
        let ratio = ctx.tape.exp(diff);
        for &r in ctx.tape.value(ratio).as_slice() {
            if (r - 1.0).abs() > clip_eps {
                clipped_count += 1;
            }
        }
        kl_sum -= ctx.tape.value(diff).as_slice().iter().map(|&d| d as f64).sum::<f64>();
        let adv = ctx.tape.constant(Matrix::full(n, 1, rec.advantage));
        let unclipped = ctx.tape.mul(ratio, adv);
        let clipped_ratio = ctx.tape.clamp(ratio, 1.0 - clip_eps, 1.0 + clip_eps);
        let clipped = ctx.tape.mul(clipped_ratio, adv);
        let surr = ctx.tape.min_elem(unclipped, clipped);
        let mean = ctx.tape.mean_all(surr);
        surrogate_sum = Some(match surrogate_sum {
            None => mean,
            Some(acc) => ctx.tape.add(acc, mean),
        });
    }
    let surrogate =
        ctx.tape.scale(surrogate_sum.expect("non-empty batch"), 1.0 / batch.len() as f32);

    // Entropy of the current policy, averaged over ops.
    let p = ctx.tape.exp(lp);
    let plp = ctx.tape.mul(p, lp);
    let sum = ctx.tape.sum_all(plp);
    let entropy = ctx.tape.scale(sum, -1.0 / n as f32);
    let stats = PpoStats {
        clip_fraction: clipped_count as f32 / (batch.len() * n) as f32,
        approx_kl: (kl_sum / (batch.len() * n) as f64) as f32,
        entropy: ctx.tape.value(entropy).get(0, 0),
    };

    // Maximize surrogate + coef·entropy → minimize the negation.
    let bonus = ctx.tape.scale(entropy, entropy_coef);
    let objective = ctx.tape.add(surrogate, bonus);
    (ctx.tape.neg(objective), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_autograd::Tape;
    use mars_nn::ParamStore;
    use mars_rng::rngs::StdRng;
    use mars_rng::SeedableRng;

    #[test]
    fn reward_is_negative_sqrt() {
        let reward = |t| RewardShaping::NegSqrt.reward(t);
        assert_eq!(reward(4.0), -2.0);
        assert_eq!(reward(100.0), -10.0);
        assert!(reward(0.067) > reward(1.4));
    }

    #[test]
    fn baseline_follows_eq7() {
        let mut b = EmaBaseline::default();
        // First reward: B1 = R1, advantage 0.
        assert_eq!(b.advantage(-2.0, 0.99), 0.0);
        assert_eq!(b.value(), Some(-2.0));
        // Second: adv = R - B = -1 - (-2) = 1; B = 0.01·(-1) + 0.99·(-2).
        let adv = b.advantage(-1.0, 0.99);
        assert!((adv - 1.0).abs() < 1e-6);
        assert!((b.value().unwrap() + 1.99).abs() < 1e-5);
    }

    #[test]
    fn sampling_respects_probabilities() {
        let probs = Matrix::from_vec(1, 3, vec![0.0, 1.0, 0.0]);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..10 {
            let (a, lp) = sample_actions(&probs, &mut rng);
            assert_eq!(a, vec![1]);
            assert!((lp.get(0, 0) - 0.0).abs() < 1e-5);
        }
    }

    #[test]
    fn sampling_covers_support() {
        let probs = Matrix::from_vec(1, 2, vec![0.5, 0.5]);
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = [false; 2];
        for _ in 0..64 {
            let (a, _) = sample_actions(&probs, &mut rng);
            seen[a[0]] = true;
        }
        assert!(seen[0] && seen[1]);
    }

    #[test]
    fn greedy_picks_argmax() {
        let probs = Matrix::from_vec(2, 3, vec![0.1, 0.7, 0.2, 0.6, 0.3, 0.1]);
        assert_eq!(greedy_actions(&probs), vec![1, 0]);
    }

    #[test]
    fn ppo_loss_pushes_toward_advantaged_actions() {
        // One op, two devices; a sample choosing device 0 with positive
        // advantage must create a gradient that raises logit 0.
        let mut store = ParamStore::new();
        let w = store.add("logits", Matrix::from_vec(1, 2, vec![0.0, 0.0]));
        let rec = SampleRecord {
            actions: vec![0],
            old_logp: Matrix::from_vec(1, 1, vec![(0.5f32).ln()]),
            advantage: 1.0,
        };
        let mut ctx = FwdCtx::new(Tape::new(), &store);
        let logits = ctx.p(w);
        let loss = ppo_loss_stats(&mut ctx, logits, &[&rec], 0.2, 0.0).0;
        let (grads, _) = ctx.into_grads(loss, 1.0);
        let g = &grads.iter().find(|(id, _)| *id == w).expect("grad").1;
        // Minimizing the loss should increase logit 0 relative to 1.
        assert!(g.get(0, 0) < 0.0, "{g:?}");
        assert!(g.get(0, 1) > 0.0, "{g:?}");
    }

    #[test]
    fn ppo_clipping_caps_the_update() {
        // With a huge ratio and positive advantage the clipped branch
        // wins and the gradient through the ratio vanishes.
        let mut store = ParamStore::new();
        let w = store.add("logits", Matrix::from_vec(1, 2, vec![5.0, -5.0]));
        let rec = SampleRecord {
            actions: vec![0],
            // Sampled when the action was very unlikely.
            old_logp: Matrix::from_vec(1, 1, vec![(0.001f32).ln()]),
            advantage: 1.0,
        };
        let mut ctx = FwdCtx::new(Tape::new(), &store);
        let logits = ctx.p(w);
        let loss = ppo_loss_stats(&mut ctx, logits, &[&rec], 0.2, 0.0).0;
        let (grads, _) = ctx.into_grads(loss, 1.0);
        let g = &grads.iter().find(|(id, _)| *id == w).expect("grad").1;
        assert!(g.frobenius_norm() < 1e-6, "clipping should zero the gradient: {g:?}");
    }
}
