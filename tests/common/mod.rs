//! What the determinism test binaries share: a tiny configuration, one
//! pretrain-and-train run, and a training trace reduced to bits.

use mars::core::agent::{Agent, AgentKind, TrainingLog};
use mars::core::config::MarsConfig;
use mars::core::workload_input::WorkloadInput;
use mars::graph::features::FEATURE_DIM;
use mars::graph::generators::{Profile, Workload};
use mars::sim::{Cluster, Environment, FaultPlan, SimEnv};
use mars_rng::rngs::StdRng;
use mars_rng::SeedableRng;

pub fn tiny_cfg() -> MarsConfig {
    let mut c = MarsConfig::small();
    c.encoder_hidden = 16;
    c.placer_hidden = 16;
    c.attn_dim = 8;
    c.segment_size = 24;
    c.dgi_iters = 20;
    c
}

/// Run DGI pre-training + PPO and return the pretrain loss curve and
/// the training log.
pub fn run(seed: u64, samples: usize) -> (Vec<f32>, TrainingLog) {
    let (losses, log, _) = pretrain_and_train(tiny_cfg(), seed, &[samples], None);
    (losses, log)
}

/// Pre-train a Mars agent on Reduced Inception, then train it with one
/// `Agent::train` call per cumulative target, all extending one log,
/// under an optional fault plan. Returns the DGI loss curve, the log
/// and the devices left dead at the end of the run.
pub fn pretrain_and_train(
    cfg: MarsConfig,
    seed: u64,
    targets: &[usize],
    plan: Option<&str>,
) -> (Vec<f32>, TrainingLog, Vec<usize>) {
    let graph = Workload::InceptionV3.build(Profile::Reduced);
    let input = WorkloadInput::from_graph(&graph);
    let cluster = Cluster::p100_quad();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut agent = Agent::new(AgentKind::Mars, cfg, FEATURE_DIM, cluster.num_devices(), &mut rng);
    let report = agent.pretrain(&input, &mut rng).expect("Mars agent pre-trains");
    let mut env = SimEnv::new(graph, cluster, seed);
    if let Some(spec) = plan {
        env.set_fault_plan(FaultPlan::parse(spec).expect("plan parses")).expect("plan installs");
    }
    let mut log = TrainingLog::default();
    for &target in targets {
        agent.train(&mut env, &input, target, &mut rng, &mut log);
    }
    (report.losses, log, env.cluster().failed_ids())
}

/// One record's observable bits: (samples so far, mean valid reading,
/// best so far, valid fraction, simulated machine time, policy
/// entropy). Wall-clock fields are left out; simulated machine time is
/// kept, so a run degraded by a device failure must cost the same on
/// every rerun.
pub type TraceRow = (usize, Option<u64>, Option<u64>, u64, u64, u64);

/// The deterministic portion of a training trace, floats as bits so
/// equality is exact.
pub fn trace_bits(log: &TrainingLog) -> Vec<TraceRow> {
    log.records
        .iter()
        .map(|r| {
            (
                r.samples_so_far,
                r.mean_valid_reading_s.map(f64::to_bits),
                r.best_so_far_s.map(f64::to_bits),
                r.valid_fraction.to_bits(),
                r.machine_s.to_bits(),
                r.policy_entropy.to_bits(),
            )
        })
        .collect()
}
