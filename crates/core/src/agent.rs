//! The device-placement agent and its joint training loop (§3.4).
//!
//! An [`Agent`] is an encoder + placer pair over one [`ParamStore`],
//! trained end-to-end with PPO against an
//! [`Environment`](mars_sim::Environment). [`AgentKind`] selects
//! between Mars and the baselines of §4.1; Table 1's placer ablation
//! uses [`AgentKind::FixedEncoder`] (trained-then-frozen GCN
//! representations, exactly as the paper evaluates its placers).

use crate::config::{MarsConfig, BASELINE_MU, ENTROPY_COEF, GRAD_CLIP};
use crate::dgi::{pretrain, Dgi, DgiReport};
use crate::encoder::{Encoder, GcnEncoder, RawEncoder, SageEncoder};
use crate::grouper::GrouperPlacerNet;
use crate::placers::mlp::MlpPlacer;
use crate::placers::segment::SegmentSeq2Seq;
use crate::placers::seq2seq::FullSeq2Seq;
use crate::placers::trfxl::TrfXlPlacer;
use crate::placers::{PlacerChoice, PlacerNet};
use crate::ppo::{ppo_loss_stats, sample_actions, EmaBaseline, PpoStats, SampleRecord};
use crate::workload_input::WorkloadInput;
use mars_autograd::Tape;
use mars_nn::{apply_grads, Adam, FwdCtx, ParamStore};
use mars_rng::rngs::StdRng;
use mars_rng::seq::SliceRandom;
use mars_sim::{Environment, EvalOutcome, Placement};
use mars_tensor::{stats, Matrix};
use std::time::Instant;

/// Which agent architecture to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AgentKind {
    /// Mars: GCN encoder (DGI pre-trainable) + segment seq2seq placer.
    Mars,
    /// Mars without self-supervised pre-training (Table 2 ablation).
    MarsNoPretrain,
    /// Encoder-Placer baseline (GDP): GraphSAGE + Transformer-XL.
    EncoderPlacer,
    /// Grouper-Placer baseline (Hierarchical Planner).
    GrouperPlacer,
    /// Trained-then-frozen GCN representations + the chosen placer
    /// (the Table 1 ablation protocol).
    FixedEncoder(PlacerChoice),
}

impl AgentKind {
    /// Display name used in tables and logs.
    pub fn label(self) -> String {
        match self {
            AgentKind::Mars => "Mars".into(),
            AgentKind::MarsNoPretrain => "Mars (no pre-training)".into(),
            AgentKind::EncoderPlacer => "Encoder-Placer".into(),
            AgentKind::GrouperPlacer => "Grouper-Placer".into(),
            AgentKind::FixedEncoder(p) => format!("fixed-encoder + {}", p.label()),
        }
    }
}

/// One record per policy update round.
#[derive(Clone, Debug)]
pub struct TrainingRecord {
    /// Placements sampled so far (the paper's Fig. 7 x-axis).
    pub samples_so_far: usize,
    /// Mean per-step reading of this round's valid samples (seconds).
    pub mean_valid_reading_s: Option<f64>,
    /// Best valid per-step time found so far (seconds).
    pub best_so_far_s: Option<f64>,
    /// Fraction of this round's samples that were valid.
    pub valid_fraction: f64,
    /// Agent-side wall-clock seconds since training started.
    pub agent_wall_s: f64,
    /// Cumulative environment machine-seconds (simulated).
    pub machine_s: f64,
    /// Mean per-op policy entropy (nats) at sampling time — the
    /// exploration budget left in the policy.
    pub policy_entropy: f64,
}

/// Full training trace plus the best placement found.
#[derive(Clone, Debug, Default)]
pub struct TrainingLog {
    /// One record per policy update.
    pub records: Vec<TrainingRecord>,
    /// Best valid placement found during the search.
    pub best_placement: Option<Placement>,
    /// Its measured per-step time.
    pub best_reading_s: Option<f64>,
    /// Wall-clock seconds spent in DGI pre-training (0 if none).
    pub pretrain_wall_s: f64,
    /// Total agent wall-clock seconds (excluding pre-training).
    pub train_wall_s: f64,
    /// Total environment machine-seconds consumed.
    pub machine_s: f64,
    /// Total placements sampled.
    pub total_samples: usize,
}

impl TrainingLog {
    /// Fig-8 style total agent training time: environment machine time
    /// plus agent compute (and pre-training, which needs no machine).
    pub fn total_training_time_s(&self) -> f64 {
        self.machine_s + self.train_wall_s + self.pretrain_wall_s
    }

    /// Samples needed until the best reading came within `slack`
    /// (e.g. 1.05 = 5%) of the final best — a convergence measure.
    pub fn samples_to_converge(&self, slack: f64) -> Option<usize> {
        let best = self.best_reading_s?;
        self.records
            .iter()
            .find(|r| r.best_so_far_s.is_some_and(|b| b <= best * slack))
            .map(|r| r.samples_so_far)
    }
}

/// Encoder + placer + optimizer state.
///
/// ```
/// use mars_core::agent::{Agent, AgentKind, TrainingLog};
/// use mars_core::config::MarsConfig;
/// use mars_core::workload_input::WorkloadInput;
/// use mars_graph::features::FEATURE_DIM;
/// use mars_graph::generators::{Profile, Workload};
/// use mars_sim::{Cluster, SimEnv};
/// use mars_rng::rngs::StdRng;
/// use mars_rng::SeedableRng;
///
/// let graph = Workload::InceptionV3.build(Profile::Reduced);
/// let input = WorkloadInput::from_graph(&graph);
/// let cluster = Cluster::p100_quad();
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut cfg = MarsConfig::small();
/// cfg.dgi_iters = 10; // keep the doctest fast
///
/// let mut agent = Agent::new(AgentKind::Mars, cfg, FEATURE_DIM, cluster.num_devices(), &mut rng);
/// agent.pretrain(&input, &mut rng).expect("Mars has a GCN encoder");
/// let mut env = SimEnv::new(graph, cluster, 0);
/// let mut log = TrainingLog::default();
/// agent.train(&mut env, &input, 40, &mut rng, &mut log);
/// assert_eq!(log.total_samples, 40);
/// assert!(log.best_reading_s.is_some());
/// ```
pub struct Agent {
    /// All trainable parameters.
    pub store: ParamStore,
    encoder: Box<dyn Encoder + Send + Sync>,
    pub(crate) placer: Box<dyn PlacerNet + Send + Sync>,
    dgi: Option<Dgi>,
    frozen_reps: Option<Matrix>,
    adam: Adam,
    baseline: EmaBaseline,
    /// Hyper-parameters.
    pub cfg: MarsConfig,
    kind: AgentKind,
}

impl Agent {
    /// Build an agent of the given kind.
    pub fn new(
        kind: AgentKind,
        cfg: MarsConfig,
        feature_dim: usize,
        num_devices: usize,
        rng: &mut StdRng,
    ) -> Self {
        let mut store = ParamStore::new();
        let (encoder, dgi): (Box<dyn Encoder + Send + Sync>, Option<Dgi>) = match kind {
            AgentKind::Mars | AgentKind::MarsNoPretrain | AgentKind::FixedEncoder(_) => {
                let enc = GcnEncoder::new(
                    &mut store,
                    feature_dim,
                    cfg.encoder_hidden,
                    cfg.encoder_layers,
                    rng,
                );
                let dgi = Dgi::new(&mut store, cfg.encoder_hidden, rng);
                (Box::new(enc), Some(dgi))
            }
            AgentKind::EncoderPlacer => (
                Box::new(SageEncoder::new(
                    &mut store,
                    feature_dim,
                    cfg.encoder_hidden,
                    cfg.encoder_layers,
                    rng,
                )),
                None,
            ),
            AgentKind::GrouperPlacer => (Box::new(RawEncoder::new(feature_dim)), None),
        };
        let rep_dim = encoder.out_dim();
        let placer: Box<dyn PlacerNet + Send + Sync> = match kind {
            AgentKind::Mars | AgentKind::MarsNoPretrain => Box::new(SegmentSeq2Seq::new(
                &mut store,
                rep_dim,
                cfg.placer_hidden,
                cfg.attn_dim,
                cfg.segment_size,
                num_devices,
                rng,
            )),
            AgentKind::EncoderPlacer => Box::new(TrfXlPlacer::new(
                &mut store,
                rep_dim,
                cfg.placer_hidden,
                cfg.segment_size,
                num_devices,
                rng,
            )),
            AgentKind::GrouperPlacer => Box::new(GrouperPlacerNet::new(
                &mut store,
                rep_dim,
                cfg.placer_hidden,
                cfg.attn_dim,
                cfg.num_groups,
                num_devices,
                rng,
            )),
            AgentKind::FixedEncoder(choice) => match choice {
                PlacerChoice::Seq2Seq => Box::new(FullSeq2Seq::new(
                    &mut store,
                    rep_dim,
                    cfg.placer_hidden,
                    cfg.attn_dim,
                    num_devices,
                    rng,
                )),
                PlacerChoice::Segment => Box::new(SegmentSeq2Seq::new(
                    &mut store,
                    rep_dim,
                    cfg.placer_hidden,
                    cfg.attn_dim,
                    cfg.segment_size,
                    num_devices,
                    rng,
                )),
                PlacerChoice::TrfXl => Box::new(TrfXlPlacer::new(
                    &mut store,
                    rep_dim,
                    cfg.placer_hidden,
                    cfg.segment_size,
                    num_devices,
                    rng,
                )),
                PlacerChoice::Mlp => Box::new(MlpPlacer::new(
                    &mut store,
                    rep_dim,
                    cfg.placer_hidden,
                    num_devices,
                    rng,
                )),
            },
        };
        let adam = Adam::new(cfg.lr);
        Agent {
            store,
            encoder,
            placer,
            dgi,
            frozen_reps: None,
            adam,
            baseline: EmaBaseline::default(),
            cfg,
            kind,
        }
    }

    /// Agent kind.
    pub fn kind(&self) -> AgentKind {
        self.kind
    }

    /// DGI pre-training (§3.2). Returns `None` for agents without a
    /// GCN encoder.
    pub fn pretrain(&mut self, input: &WorkloadInput, rng: &mut StdRng) -> Option<DgiReport> {
        let dgi = self.dgi.as_ref()?;
        let _span = mars_telemetry::span("core.agent.pretrain");
        let report = pretrain(
            &mut self.store,
            self.encoder.as_ref(),
            dgi,
            input,
            self.cfg.dgi_iters,
            self.cfg.dgi_lr,
            rng,
        );
        Some(report)
    }

    /// Encode once and freeze the representations (Table 1 protocol:
    /// "we train these three placers with fixed operation
    /// representations generated by the trained graph encoder").
    ///
    /// The frozen representations are standardized to unit RMS: DGI
    /// training is scale-free in its representations, and unnormalized
    /// magnitudes would saturate the placers' input nonlinearities.
    pub fn freeze_encoder(&mut self, input: &WorkloadInput) {
        let mut ctx = FwdCtx::new(Tape::new(), &self.store);
        let reps = self.encoder.encode(&mut ctx, input);
        let mut m = ctx.tape.value(reps).clone();
        let rms = (m.as_slice().iter().map(|x| x * x).sum::<f32>() / m.len() as f32).sqrt();
        if rms > 1e-6 {
            m.map_inplace(|x| x / rms);
        }
        self.frozen_reps = Some(m);
    }

    /// Encoder output, RMS-normalized. DGI pre-training is scale-free
    /// in its representations; without normalization a pre-trained
    /// encoder's larger magnitudes saturate the placer's gate
    /// nonlinearities and erase the pre-training benefit. The norm is
    /// treated as a constant (no gradient through it), like a
    /// stop-gradient RMSNorm.
    pub(crate) fn reps_on<'a>(
        &self,
        ctx: &mut FwdCtx<'a>,
        input: &WorkloadInput,
    ) -> mars_autograd::Var {
        match &self.frozen_reps {
            Some(m) => ctx.tape.constant(m.clone()),
            None => {
                let h = self.encoder.encode(ctx, input);
                let v = ctx.tape.value(h);
                let rms = (v.as_slice().iter().map(|x| x * x).sum::<f32>() / v.len() as f32).sqrt();
                if rms > 1e-6 {
                    ctx.tape.scale(h, 1.0 / rms)
                } else {
                    h
                }
            }
        }
    }

    /// The policy forward — encode, decode, softmax — on `tape`, which
    /// is handed back for the caller to reuse or drop. The one body
    /// behind [`Agent::policy_probs`] and the serving path's
    /// [`crate::PolicyInference::policy_probs`].
    pub(crate) fn policy_probs_on(&self, tape: Tape, input: &WorkloadInput) -> (Matrix, Tape) {
        let mut ctx = FwdCtx::new(tape, &self.store);
        let reps = self.reps_on(&mut ctx, input);
        let logits = self.placer.logits(&mut ctx, reps);
        let probs = stats::softmax_rows(ctx.tape.value(logits));
        (probs, ctx.into_tape())
    }

    /// Current policy's device probabilities (`N × D`), on an inference
    /// tape: no backward pass follows, so no op or backward cache is
    /// kept (same kernels, same bits as a recording forward).
    pub fn policy_probs(&self, input: &WorkloadInput) -> Matrix {
        self.policy_probs_on(Tape::inference(), input).0
    }

    /// Greedy placement under the current policy.
    pub fn greedy_placement(&self, input: &WorkloadInput) -> Placement {
        let probs = self.policy_probs(input);
        Placement(crate::ppo::greedy_actions(&probs))
    }

    /// Run `max_samples` placement evaluations of PPO training,
    /// extending `log`.
    pub fn train(
        &mut self,
        env: &mut dyn Environment,
        input: &WorkloadInput,
        max_samples: usize,
        rng: &mut StdRng,
        log: &mut TrainingLog,
    ) {
        let _span = mars_telemetry::span("core.agent.train");
        let t0 = Instant::now();
        let machine_t0 = env.machine_seconds();
        let start_wall = log.train_wall_s;
        // Training-tape scratch arena: every minibatch update runs on
        // this one tape and recycles its node and gradient buffers
        // (bit-identical to fresh tapes; see `Tape::reset_for_reuse`).
        let mut tape = Tape::new();

        while log.total_samples < max_samples {
            // ---- Sampling phase: one forward, S samples. ----
            let sample_span = mars_telemetry::span("core.agent.sample");
            let probs = self.policy_probs(input);
            let policy_entropy = (0..probs.rows())
                .map(|r| mars_tensor::stats::entropy(probs.row(r)) as f64)
                .sum::<f64>()
                / probs.rows().max(1) as f64;
            let round = self.cfg.samples_per_update.min(max_samples - log.total_samples);
            let mut records: Vec<SampleRecord> = Vec::with_capacity(round);
            let mut valid_readings: Vec<f64> = Vec::new();
            let (mut oom_count, mut bad_count, mut fault_count) = (0usize, 0usize, 0usize);
            let mut reward_sum = 0.0f64;
            // Draw the whole round up front, then hand the placements
            // to the environment as one batch. The RNG stream — and so
            // the trace — depends on this order: sampling is never
            // interleaved with evaluation. Outcomes come back in sample
            // order.
            let sampled: Vec<_> = (0..round).map(|_| sample_actions(&probs, rng)).collect();
            let placements: Vec<Placement> =
                sampled.iter().map(|(actions, _)| Placement(actions.clone())).collect();
            let eval_t0 = Instant::now();
            let outcomes = env.evaluate_batch(&placements);
            let eval_wall_s = eval_t0.elapsed().as_secs_f64();
            for (((actions, old_logp), placement), outcome) in
                sampled.into_iter().zip(placements).zip(outcomes)
            {
                let reading = outcome.reading_s();
                match outcome {
                    EvalOutcome::Valid { per_step_s } => {
                        valid_readings.push(per_step_s);
                        let better = log.best_reading_s.is_none_or(|b| per_step_s < b);
                        if better {
                            log.best_reading_s = Some(per_step_s);
                            log.best_placement = Some(placement.clone());
                        }
                    }
                    EvalOutcome::Invalid { .. } => {
                        oom_count += 1;
                        mars_telemetry::counter("train.oom_penalty").inc();
                    }
                    EvalOutcome::Bad { .. } => {
                        bad_count += 1;
                        mars_telemetry::counter("train.eval_cutoff").inc();
                    }
                    EvalOutcome::TransientError { .. } | EvalOutcome::Straggler { .. } => {
                        fault_count += 1;
                        mars_telemetry::counter("train.eval_fault").inc();
                    }
                }
                let reward = self.cfg.reward_shaping.reward(reading);
                reward_sum += reward as f64;
                let advantage = self.baseline.advantage(reward, BASELINE_MU);
                records.push(SampleRecord {
                    actions,
                    old_logp,
                    reading_s: reading,
                    valid: matches!(outcome, EvalOutcome::Valid { .. }),
                    advantage,
                });
                log.total_samples += 1;
            }
            drop(sample_span);

            // ---- PPO update phase. ----
            let update_span = mars_telemetry::span("core.agent.update");
            let mut idx: Vec<usize> = (0..records.len()).collect();
            let mut stats_acc = PpoStats::default();
            let mut stats_n = 0usize;
            let mut grad_norm_sq = 0.0f64;
            for _epoch in 0..self.cfg.ppo_epochs {
                idx.shuffle(rng);
                let mb = self.cfg.minibatches.min(idx.len().max(1));
                let chunk = idx.len().div_ceil(mb);
                for batch_ids in idx.chunks(chunk) {
                    let batch: Vec<&SampleRecord> =
                        batch_ids.iter().map(|&i| &records[i]).collect();
                    let mut ctx = FwdCtx::new(tape, &self.store);
                    let reps = self.reps_on(&mut ctx, input);
                    let logits = self.placer.logits(&mut ctx, reps);
                    let (loss, stats) =
                        ppo_loss_stats(&mut ctx, logits, &batch, self.cfg.clip_eps, ENTROPY_COEF);
                    stats_acc.clip_fraction += stats.clip_fraction;
                    stats_acc.approx_kl += stats.approx_kl;
                    stats_acc.entropy += stats.entropy;
                    stats_n += 1;
                    let grads;
                    (grads, tape) = ctx.into_grads(loss, 1.0);
                    if mars_telemetry::active() {
                        grad_norm_sq += grads
                            .iter()
                            .map(|(_, g)| {
                                g.as_slice().iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>()
                            })
                            .sum::<f64>();
                    }
                    apply_grads(&mut self.store, grads);
                    tape.reset_for_reuse();
                    self.adam.step(&mut self.store, GRAD_CLIP);
                }
            }
            drop(update_span);

            let mean_valid = if valid_readings.is_empty() {
                None
            } else {
                Some(valid_readings.iter().sum::<f64>() / valid_readings.len() as f64)
            };
            if mars_telemetry::active() {
                let inv = 1.0 / stats_n.max(1) as f32;
                let advs: Vec<f32> = records.iter().map(|r| r.advantage).collect();
                let adv_mean = advs.iter().sum::<f32>() / advs.len().max(1) as f32;
                let adv_var = advs.iter().map(|a| (a - adv_mean) * (a - adv_mean)).sum::<f32>()
                    / advs.len().max(1) as f32;
                mars_telemetry::event(
                    "ppo.update",
                    &[
                        ("samples_so_far", (log.total_samples as f64).into()),
                        ("reward_mean", (reward_sum / round.max(1) as f64).into()),
                        ("baseline", self.baseline.value().unwrap_or(0.0).into()),
                        ("adv_mean", adv_mean.into()),
                        ("adv_std", adv_var.sqrt().into()),
                        ("clip_fraction", (stats_acc.clip_fraction * inv).into()),
                        ("approx_kl", (stats_acc.approx_kl * inv).into()),
                        ("entropy", (stats_acc.entropy * inv).into()),
                        ("grad_norm", grad_norm_sq.sqrt().into()),
                        ("policy_entropy", policy_entropy.into()),
                        ("oom_count", (oom_count as f64).into()),
                        ("bad_count", (bad_count as f64).into()),
                        ("fault_count", (fault_count as f64).into()),
                        (
                            "valid_fraction",
                            (valid_readings.len() as f64 / round.max(1) as f64).into(),
                        ),
                        ("mean_valid_reading_s", mean_valid.unwrap_or(f64::NAN).into()),
                        ("best_so_far_s", log.best_reading_s.unwrap_or(f64::NAN).into()),
                        ("eval_wall_s", eval_wall_s.into()),
                    ],
                );
            }
            log.records.push(TrainingRecord {
                samples_so_far: log.total_samples,
                mean_valid_reading_s: mean_valid,
                best_so_far_s: log.best_reading_s,
                valid_fraction: valid_readings.len() as f64 / round.max(1) as f64,
                agent_wall_s: start_wall + t0.elapsed().as_secs_f64(),
                machine_s: env.machine_seconds(),
                policy_entropy,
            });

            // An injected crash killed the process during this round's
            // evaluations; checkpoint and resume before the next round.
            if env.take_crash() {
                self.resume_from_crash(log.total_samples);
            }
        }
        log.train_wall_s = start_wall + t0.elapsed().as_secs_f64();
        log.machine_s += env.machine_seconds() - machine_t0;
    }

    /// Checkpoint-and-resume after an injected crash: serialize every
    /// parameter, then reload it — to `cfg.auto_checkpoint` when set,
    /// else through an in-memory buffer. The roundtrip is bit-exact
    /// (f32 bits are stored losslessly), so a crashed-and-resumed run
    /// produces the identical trace to an uninterrupted one. Optimizer
    /// and baseline state stay in memory (see DESIGN.md §9).
    fn resume_from_crash(&mut self, samples_so_far: usize) {
        let _span = mars_telemetry::span("core.agent.crash_resume");
        match self.cfg.auto_checkpoint.clone() {
            Some(path) => {
                mars_nn::checkpoint::save_file(&self.store, &path).expect("auto-checkpoint save");
                mars_nn::checkpoint::load_file(&mut self.store, &path)
                    .expect("auto-checkpoint load");
            }
            None => {
                let mut buf = Vec::new();
                mars_nn::checkpoint::save(&self.store, &mut buf).expect("in-memory checkpoint");
                mars_nn::checkpoint::load(&mut self.store, &mut buf.as_slice())
                    .expect("in-memory resume");
            }
        }
        mars_telemetry::counter("train.crash_resume").inc();
        if mars_telemetry::active() {
            mars_telemetry::event(
                "train.crash_resume",
                &[
                    ("samples_so_far", (samples_so_far as f64).into()),
                    ("to_file", (self.cfg.auto_checkpoint.is_some() as u64 as f64).into()),
                ],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_graph::features::FEATURE_DIM;
    use mars_graph::generators::{Profile, Workload};
    use mars_rng::SeedableRng;
    use mars_sim::{Cluster, SimEnv};

    fn tiny_cfg() -> MarsConfig {
        let mut c = MarsConfig::small();
        c.encoder_hidden = 16;
        c.placer_hidden = 16;
        c.attn_dim = 8;
        c.segment_size = 16;
        c.num_groups = 4;
        c.dgi_iters = 20;
        c
    }

    #[test]
    fn all_agent_kinds_produce_valid_probability_tables() {
        let g = Workload::InceptionV3.build(Profile::Reduced);
        let input = WorkloadInput::from_graph(&g);
        for kind in [
            AgentKind::Mars,
            AgentKind::MarsNoPretrain,
            AgentKind::EncoderPlacer,
            AgentKind::GrouperPlacer,
            AgentKind::FixedEncoder(PlacerChoice::Seq2Seq),
            AgentKind::FixedEncoder(PlacerChoice::Mlp),
        ] {
            let mut rng = StdRng::seed_from_u64(3);
            let agent = Agent::new(kind, tiny_cfg(), FEATURE_DIM, 5, &mut rng);
            let probs = agent.policy_probs(&input);
            assert_eq!(probs.shape(), (g.num_nodes(), 5), "{kind:?}");
            for r in 0..probs.rows() {
                let s: f32 = probs.row(r).iter().sum();
                assert!((s - 1.0).abs() < 1e-4, "{kind:?} row {r} sums {s}");
            }
        }
    }

    #[test]
    fn pretrain_only_for_gcn_agents() {
        let g = Workload::InceptionV3.build(Profile::Reduced);
        let input = WorkloadInput::from_graph(&g);
        let mut rng = StdRng::seed_from_u64(4);
        let mut mars = Agent::new(AgentKind::Mars, tiny_cfg(), FEATURE_DIM, 5, &mut rng);
        assert!(mars.pretrain(&input, &mut rng).is_some());
        let mut grouper =
            Agent::new(AgentKind::GrouperPlacer, tiny_cfg(), FEATURE_DIM, 5, &mut rng);
        assert!(grouper.pretrain(&input, &mut rng).is_none());
    }

    #[test]
    fn training_improves_over_random_on_inception() {
        let g = Workload::InceptionV3.build(Profile::Reduced);
        let input = WorkloadInput::from_graph(&g);
        let cluster = Cluster::p100_quad();
        let mut env = SimEnv::new(g.clone(), cluster.clone(), 11);
        let mut rng = StdRng::seed_from_u64(11);
        let mut agent = Agent::new(AgentKind::Mars, tiny_cfg(), FEATURE_DIM, 5, &mut rng);
        agent.pretrain(&input, &mut rng);
        let mut log = TrainingLog::default();
        agent.train(&mut env, &input, 120, &mut rng, &mut log);
        assert_eq!(log.total_samples, 120);
        assert_eq!(log.records.len(), 6);
        let best = log.best_reading_s.expect("found a valid placement");
        // Random placements on inception measure ≳ 0.2 s; training must
        // find something competitive with single-GPU (≈ 0.1 s).
        assert!(best < 0.2, "best {best}");
        assert!(log.best_placement.is_some());
        assert!(log.machine_s > 0.0);
    }

    /// The training arena matches buffers by size, so identical passes
    /// on one tape reuse what the last one retired and the arena stops
    /// growing after the first reset. Four gnmt4 (paper granularity) PPO
    /// minibatch forward + backward passes at the `small` widths — the
    /// shape `train_gnmt4` trains — must leave the same high water after
    /// passes 2, 3 and 4. A first-fit arena hands large kept buffers to
    /// small requests and grows again on pass 4.
    #[test]
    fn identical_ppo_passes_hold_the_arena_high_water() {
        let g = Workload::Gnmt4.build(Profile::Paper);
        let input = WorkloadInput::from_graph(&g);
        let mut rng = StdRng::seed_from_u64(7);
        let cfg = MarsConfig::small();
        let agent = Agent::new(AgentKind::Mars, cfg.clone(), FEATURE_DIM, 5, &mut rng);
        let probs = agent.policy_probs(&input);
        let minibatch = cfg.samples_per_update / cfg.minibatches;
        let records: Vec<SampleRecord> = (0..minibatch)
            .map(|i| {
                let (actions, old_logp) = sample_actions(&probs, &mut rng);
                SampleRecord { actions, old_logp, reading_s: 1.0, valid: true, advantage: i as f32 }
            })
            .collect();
        let batch: Vec<&SampleRecord> = records.iter().collect();
        let mut tape = Tape::new();
        let mut high_water = Vec::new();
        for _ in 0..4 {
            let mut ctx = FwdCtx::new(tape, &agent.store);
            let reps = agent.reps_on(&mut ctx, &input);
            let logits = agent.placer.logits(&mut ctx, reps);
            let (loss, _) = ppo_loss_stats(&mut ctx, logits, &batch, cfg.clip_eps, ENTROPY_COEF);
            (_, tape) = ctx.into_grads(loss, 1.0);
            tape.reset_for_reuse();
            high_water.push(tape.arena_high_water());
        }
        assert!(
            high_water[1..].iter().all(|&h| h == high_water[1]),
            "arena high water after passes 1-4: {high_water:?}"
        );
    }

    #[test]
    fn frozen_encoder_is_constant_during_training() {
        let g = Workload::InceptionV3.build(Profile::Reduced);
        let input = WorkloadInput::from_graph(&g);
        let mut rng = StdRng::seed_from_u64(5);
        let mut agent = Agent::new(
            AgentKind::FixedEncoder(PlacerChoice::Mlp),
            tiny_cfg(),
            FEATURE_DIM,
            5,
            &mut rng,
        );
        agent.freeze_encoder(&input);
        let before = agent.frozen_reps.clone().expect("frozen");
        let mut env = SimEnv::new(g, Cluster::p100_quad(), 6);
        let mut log = TrainingLog::default();
        agent.train(&mut env, &input, 40, &mut rng, &mut log);
        assert_eq!(agent.frozen_reps.expect("still frozen"), before);
    }
}
