//! Bit-level reproducibility of the full pipeline: with the in-repo RNG
//! the entire run — DGI pre-training losses, PPO training trace, and
//! the final placement — must be byte-identical across same-seed runs,
//! and must diverge across seeds.

use mars::core::agent::{Agent, AgentKind, TrainingLog};
use mars::core::config::MarsConfig;
use mars::core::workload_input::WorkloadInput;
use mars::graph::features::FEATURE_DIM;
use mars::graph::generators::{Profile, Workload};
use mars::sim::{Cluster, SimEnv};
use mars_rng::rngs::StdRng;
use mars_rng::SeedableRng;

fn tiny_cfg() -> MarsConfig {
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
fn run(seed: u64, samples: usize) -> (Vec<f32>, TrainingLog) {
    let graph = Workload::InceptionV3.build(Profile::Reduced);
    let input = WorkloadInput::from_graph(&graph);
    let cluster = Cluster::p100_quad();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut agent =
        Agent::new(AgentKind::Mars, tiny_cfg(), FEATURE_DIM, cluster.num_devices(), &mut rng);
    let report = agent.pretrain(&input, &mut rng).expect("Mars agent pre-trains");
    let mut env = SimEnv::new(graph, cluster, seed);
    let mut log = TrainingLog::default();
    agent.train(&mut env, &input, samples, &mut rng, &mut log);
    (report.losses, log)
}

/// The deterministic portion of a training trace, with floats reduced
/// to their bit patterns so equality is exact (wall-clock fields are
/// intentionally excluded).
/// One record's observable bits: (round, best, last, reward, entropy, loss).
type TraceRow = (usize, Option<u64>, Option<u64>, u64, u64, u64);

fn trace_bits(log: &TrainingLog) -> Vec<TraceRow> {
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

#[test]
fn same_seed_runs_are_byte_identical() {
    let (losses_a, log_a) = run(42, 48);
    let (losses_b, log_b) = run(42, 48);

    // DGI pre-training loss curve, bit for bit.
    assert_eq!(losses_a.len(), losses_b.len());
    for (i, (a, b)) in losses_a.iter().zip(&losses_b).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "DGI loss diverged at iter {i}: {a} vs {b}");
    }

    // PPO trace, bit for bit.
    assert_eq!(trace_bits(&log_a), trace_bits(&log_b));
    assert_eq!(log_a.total_samples, log_b.total_samples);

    // Final placement and its reading.
    assert_eq!(log_a.best_placement, log_b.best_placement);
    assert_eq!(log_a.best_reading_s.map(f64::to_bits), log_b.best_reading_s.map(f64::to_bits));
}

#[test]
fn scalar_and_dispatched_backends_produce_identical_traces() {
    // The SIMD dispatch seam must be invisible in the bits: a full
    // pretrain + PPO run under the forced scalar backend reproduces the
    // auto-dispatched trace exactly (the default tier's core claim —
    // lanes change how many elements one instruction touches, never the
    // per-element operation sequence).
    use mars_tensor::kernel::{self, Backend};
    let (losses_auto, log_auto) = run(42, 48);
    kernel::set_backend_override(Some(Backend::Scalar));
    let scalar_run = std::panic::catch_unwind(|| run(42, 48));
    kernel::set_backend_override(None);
    let (losses_scalar, log_scalar) = scalar_run.expect("scalar-backend run panicked");

    assert_eq!(
        losses_auto.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
        losses_scalar.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
        "DGI losses diverged between scalar and dispatched backends"
    );
    assert_eq!(
        trace_bits(&log_auto),
        trace_bits(&log_scalar),
        "training trace diverged between scalar and dispatched backends"
    );
    assert_eq!(log_auto.best_placement, log_scalar.best_placement);
    assert_eq!(
        log_auto.best_reading_s.map(f64::to_bits),
        log_scalar.best_reading_s.map(f64::to_bits)
    );
}

#[test]
fn different_seeds_diverge() {
    let (losses_a, log_a) = run(42, 48);
    let (losses_c, log_c) = run(43, 48);

    // Different seeds must produce different random initializations,
    // so the very first DGI loss already differs.
    assert_ne!(
        losses_a.first().map(|l| l.to_bits()),
        losses_c.first().map(|l| l.to_bits()),
        "different seeds produced identical initial DGI loss"
    );
    assert_ne!(
        trace_bits(&log_a),
        trace_bits(&log_c),
        "different seeds produced identical training traces"
    );
}
