//! Hyper-parameters.
//!
//! [`MarsConfig::paper`] uses the values from §4.2 of the paper
//! (256-unit GCN, 512-unit LSTMs, segment 128, 1000 DGI iterations).
//! [`MarsConfig::small`] scales widths down for CPU-only experiment
//! runs; code paths are identical.

use crate::ppo::RewardShaping;

/// Entropy bonus coefficient (paper §4.2: 0.001).
pub const ENTROPY_COEF: f32 = 0.001;
/// Global gradient-norm clip of every Adam step, PPO and DGI (paper: 1.0).
pub const GRAD_CLIP: f32 = 1.0;
/// EMA baseline decay μ (paper: 0.99).
pub const BASELINE_MU: f32 = 0.99;

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
            reward_shaping: RewardShaping::NegSqrt,
            samples_per_update: 20,
            minibatches: 4,
            ppo_epochs: 3,
            dgi_iters: 1000,
            dgi_lr: 1e-3,
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
            reward_shaping: RewardShaping::NegSqrt,
            samples_per_update: 20,
            minibatches: 4,
            ppo_epochs: 3,
            dgi_iters: 300,
            dgi_lr: 2e-3,
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
        assert_eq!(c.reward_shaping, RewardShaping::NegSqrt);
        assert_eq!(c.samples_per_update, 20);
        assert_eq!(c.minibatches, 4);
        assert_eq!(c.ppo_epochs, 3);
        assert_eq!(c.dgi_iters, 1000);
        assert_eq!(ENTROPY_COEF, 0.001);
        assert_eq!(GRAD_CLIP, 1.0);
        assert_eq!(BASELINE_MU, 0.99);
    }

    #[test]
    fn small_shares_rl_constants() {
        let p = MarsConfig::paper();
        let s = MarsConfig::small();
        assert_eq!(p.clip_eps, s.clip_eps);
        assert!(s.encoder_hidden < p.encoder_hidden);
    }
}
