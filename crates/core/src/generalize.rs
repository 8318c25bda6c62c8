//! Generalizability evaluation (Table 3).
//!
//! §4.3: train Mars on a *training workload* until it stops improving
//! for 100 steps, then fine-tune the policy on the *unseen* workload
//! for 100 steps. Table 3 compares this against direct training with
//! the same total step budget, an ordinary training run of its own.

use crate::agent::{Agent, AgentKind, TrainingLog};
use crate::config::MarsConfig;
use crate::workload_input::WorkloadInput;
use mars_graph::features::FEATURE_DIM;
use mars_graph::generators::{Profile, Workload};
use mars_graph::CompGraph;
use mars_rng::rngs::StdRng;
use mars_rng::SeedableRng;
use mars_sim::{Cluster, SimEnv};

/// The measurement noise of a run seeded `seed` is drawn from
/// `seed ^ ENV_SALT`, a stream apart from the agent's own draws.
const ENV_SALT: u64 = 0xE11;

/// The environment a run seeded `seed` measures `graph` in, on the
/// paper's cluster, its noise drawn from `seed ^ ENV_SALT`. Table 3's
/// fine-tuning below and its direct-training arm both measure the
/// unseen workload here, so at one seed the two arms draw the same
/// noise.
pub fn measurement_env(graph: CompGraph, seed: u64) -> SimEnv {
    SimEnv::new(graph, Cluster::p100_quad(), seed ^ ENV_SALT)
}

/// Result of one generalization run.
pub struct GeneralizeResult {
    /// Best per-step time found on the unseen workload (seconds).
    pub best_s: Option<f64>,
    /// Samples spent on the training workload.
    pub train_samples: usize,
    /// Samples spent fine-tuning on the unseen workload.
    pub finetune_samples: usize,
}

/// Train on `train_w` until no improvement for `patience` samples (or
/// `max_train_samples`), then fine-tune on `test_w` for
/// `finetune_samples`. Returns the fine-tuned best on `test_w`.
#[allow(clippy::too_many_arguments)]
pub fn generalize(
    cfg: &MarsConfig,
    train_w: Workload,
    test_w: Workload,
    profile: Profile,
    max_train_samples: usize,
    patience: usize,
    finetune_samples: usize,
    seed: u64,
) -> GeneralizeResult {
    let cluster = Cluster::p100_quad();
    let mut rng = StdRng::seed_from_u64(seed);

    let train_graph = train_w.build(profile);
    let train_input = WorkloadInput::from_graph(&train_graph);
    let mut agent =
        Agent::new(AgentKind::Mars, cfg.clone(), FEATURE_DIM, cluster.num_devices(), &mut rng);
    agent.pretrain(&train_input, &mut rng);

    // Phase 1: source-workload training with early stopping.
    let mut env = SimEnv::new(train_graph, cluster.clone(), seed ^ 0x5151);
    let mut log = TrainingLog::default();
    let mut last_best: Option<f64> = None;
    let mut stale_samples = 0usize;
    while log.total_samples < max_train_samples && stale_samples < patience {
        let target = log.total_samples + cfg.samples_per_update;
        agent.train(&mut env, &train_input, target.min(max_train_samples), &mut rng, &mut log);
        if log.best_reading_s == last_best {
            stale_samples += cfg.samples_per_update;
        } else {
            stale_samples = 0;
            last_best = log.best_reading_s;
        }
    }
    let train_samples = log.total_samples;

    // Phase 2: fine-tune on the unseen workload.
    let test_graph = test_w.build(profile);
    let test_input = WorkloadInput::from_graph(&test_graph);
    let mut test_env = measurement_env(test_graph, seed);
    let mut ft_log = TrainingLog::default();
    agent.train(&mut test_env, &test_input, finetune_samples, &mut rng, &mut ft_log);

    GeneralizeResult {
        best_s: ft_log.best_reading_s,
        train_samples,
        finetune_samples: ft_log.total_samples,
    }
}

/// Table 3's pairing: the "similar type" training workload per unseen
/// workload (VGG16 → Inception, seq2seq → GNMT, Transformer → BERT).
pub fn similar_source(test_w: Workload) -> Workload {
    match test_w {
        Workload::InceptionV3 => Workload::Vgg16,
        Workload::Gnmt4 => Workload::Seq2Seq,
        Workload::BertBase => Workload::Transformer,
        Workload::Vgg16 => Workload::InceptionV3,
        Workload::Seq2Seq => Workload::Gnmt4,
        Workload::Transformer => Workload::BertBase,
        Workload::Resnet50 => Workload::InceptionV3,
        Workload::Gpt2Small => Workload::Transformer,
    }
}

/// Table 3's pairing: the "different type" training workload
/// (GNMT-4 → Inception, Inception → GNMT, VGG16 → BERT).
pub fn different_source(test_w: Workload) -> Workload {
    match test_w {
        Workload::InceptionV3 => Workload::Gnmt4,
        Workload::Gnmt4 => Workload::InceptionV3,
        Workload::BertBase => Workload::Vgg16,
        Workload::Vgg16 => Workload::Gnmt4,
        Workload::Seq2Seq => Workload::InceptionV3,
        Workload::Transformer => Workload::Vgg16,
        Workload::Resnet50 => Workload::Seq2Seq,
        Workload::Gpt2Small => Workload::InceptionV3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_pairings_match_paper() {
        // "we choose VGG16, sequence-to-sequence and transformer as
        // training workload respectively; GNMT-4, Inception-V3 and
        // VGG16 are selected for generalizing to a different type".
        assert_eq!(similar_source(Workload::InceptionV3), Workload::Vgg16);
        assert_eq!(similar_source(Workload::Gnmt4), Workload::Seq2Seq);
        assert_eq!(similar_source(Workload::BertBase), Workload::Transformer);
        assert_eq!(different_source(Workload::InceptionV3), Workload::Gnmt4);
        assert_eq!(different_source(Workload::Gnmt4), Workload::InceptionV3);
        assert_eq!(different_source(Workload::BertBase), Workload::Vgg16);
    }

    #[test]
    fn generalization_produces_a_valid_result_quickly() {
        let mut cfg = MarsConfig::small();
        cfg.encoder_hidden = 16;
        cfg.placer_hidden = 16;
        cfg.attn_dim = 8;
        cfg.segment_size = 16;
        cfg.dgi_iters = 10;
        let r = generalize(
            &cfg,
            Workload::Vgg16,
            Workload::InceptionV3,
            Profile::Reduced,
            40,
            40,
            40,
            3,
        );
        assert!(r.best_s.is_some(), "fine-tuning must find a valid placement");
        assert!(r.finetune_samples == 40);
    }
}
