//! Hyper-parameters.
//!
//! [`MarsConfig::paper`] uses the values from §4.2 of the paper
//! (256-unit GCN, 512-unit LSTMs, segment 128, 1000 DGI iterations).
//! [`MarsConfig::small`] scales widths down for CPU-only experiment
//! runs; code paths are identical.

use crate::ppo::RewardShaping;

/// All hyper-parameters of the agent and its training.
#[derive(Clone, Debug)]
pub struct MarsConfig {
    /// GCN hidden width (paper: 256).
    pub encoder_hidden: usize,
    /// Number of GCN layers (paper: 3).
    pub encoder_layers: usize,
    /// Placer LSTM hidden width (paper: 512).
    pub placer_hidden: usize,
    /// Attention scoring width.
    pub attn_dim: usize,
    /// Segment length for segment-level placers (paper: 128).
    pub segment_size: usize,
    /// Number of groups for the Grouper-Placer baseline (Hierarchical
    /// Planner uses 256 groups at paper scale).
    pub num_groups: usize,

    /// Adam learning rate (paper: 3e-4).
    pub lr: f32,
    /// PPO clip ratio ε (paper: 0.2).
    pub clip_eps: f32,
    /// Entropy bonus coefficient (paper: 0.001).
    pub entropy_coef: f32,
    /// Global gradient-norm clip (paper: 1.0).
    pub grad_clip: f32,
    /// EMA baseline decay μ (paper: 0.99).
    pub baseline_mu: f32,
    /// Reward shaping (paper: `R = −√t`, Eq. 7).
    pub reward_shaping: RewardShaping,

    /// Placements sampled per policy update (paper: 20 = 2 rounds × 10).
    pub samples_per_update: usize,
    /// Minibatches per epoch (paper: 4).
    pub minibatches: usize,
    /// PPO epochs per update (paper: 3).
    pub ppo_epochs: usize,

    /// DGI pre-training iterations (paper: 1000).
    pub dgi_iters: usize,
    /// DGI pre-training learning rate.
    pub dgi_lr: f32,

    /// Threads used to evaluate each round's sampled placements
    /// (calling thread included). Never changes results — evaluation is
    /// pure and outcomes commit in sample order (see `mars_sim`).
    pub eval_threads: usize,
    /// Memoize placement evaluations in the environment's LRU cache.
    /// Cache hits replay the stored outcome and machine-time cost bit
    /// for bit, so this too changes wall-clock only.
    pub eval_cache: bool,

    /// Retries allowed per evaluation after an injected transient
    /// error (bounded exponential backoff; see `mars_sim::RetryPolicy`).
    pub max_eval_retries: u32,
    /// Per-evaluation machine-time budget in seconds: retries beyond
    /// this are abandoned and the evaluation reads as the cutoff.
    pub eval_timeout_s: f64,
    /// Checkpoint path used to resume through injected agent crashes.
    /// `None` keeps the checkpoint in memory (still a full
    /// save-and-reload roundtrip, so resume stays bit-exact).
    pub auto_checkpoint: Option<String>,
}

impl MarsConfig {
    /// The paper's hyper-parameters (§4.2).
    pub fn paper() -> Self {
        MarsConfig {
            encoder_hidden: 256,
            encoder_layers: 3,
            placer_hidden: 512,
            attn_dim: 256,
            segment_size: 128,
            num_groups: 256,
            lr: 3e-4,
            clip_eps: 0.2,
            entropy_coef: 0.001,
            grad_clip: 1.0,
            baseline_mu: 0.99,
            reward_shaping: RewardShaping::NegSqrt,
            samples_per_update: 20,
            minibatches: 4,
            ppo_epochs: 3,
            dgi_iters: 1000,
            dgi_lr: 1e-3,
            eval_threads: 1,
            eval_cache: true,
            max_eval_retries: 3,
            eval_timeout_s: 300.0,
            auto_checkpoint: None,
        }
    }

    /// Reduced widths for CPU-only experiment runs (identical code
    /// paths; see DESIGN.md §2).
    pub fn small() -> Self {
        MarsConfig {
            encoder_hidden: 48,
            encoder_layers: 3,
            placer_hidden: 48,
            attn_dim: 32,
            segment_size: 32,
            num_groups: 16,
            lr: 1e-3,
            clip_eps: 0.2,
            entropy_coef: 0.001,
            grad_clip: 1.0,
            baseline_mu: 0.99,
            reward_shaping: RewardShaping::NegSqrt,
            samples_per_update: 20,
            minibatches: 4,
            ppo_epochs: 3,
            dgi_iters: 300,
            dgi_lr: 2e-3,
            eval_threads: 1,
            eval_cache: true,
            max_eval_retries: 3,
            eval_timeout_s: 300.0,
            auto_checkpoint: None,
        }
    }

    /// Resolve a profile from the `MARS_PROFILE` environment variable
    /// (`"full"`/`"paper"` → [`MarsConfig::paper`], anything else →
    /// [`MarsConfig::small`]).
    pub fn from_env() -> Self {
        match std::env::var("MARS_PROFILE").as_deref() {
            Ok("full") | Ok("paper") => Self::paper(),
            _ => Self::small(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_values_match_section_4_2() {
        let c = MarsConfig::paper();
        assert_eq!(c.encoder_hidden, 256);
        assert_eq!(c.encoder_layers, 3);
        assert_eq!(c.placer_hidden, 512);
        assert_eq!(c.segment_size, 128);
        assert_eq!(c.lr, 3e-4);
        assert_eq!(c.clip_eps, 0.2);
        assert_eq!(c.entropy_coef, 0.001);
        assert_eq!(c.baseline_mu, 0.99);
        assert_eq!(c.reward_shaping, RewardShaping::NegSqrt);
        assert_eq!(c.samples_per_update, 20);
        assert_eq!(c.minibatches, 4);
        assert_eq!(c.ppo_epochs, 3);
        assert_eq!(c.dgi_iters, 1000);
    }

    #[test]
    fn small_shares_rl_constants() {
        let p = MarsConfig::paper();
        let s = MarsConfig::small();
        assert_eq!(p.clip_eps, s.clip_eps);
        assert_eq!(p.entropy_coef, s.entropy_coef);
        assert_eq!(p.baseline_mu, s.baseline_mu);
        assert!(s.encoder_hidden < p.encoder_hidden);
    }
}
