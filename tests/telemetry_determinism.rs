//! The telemetry determinism contract: a training run with a recorder
//! installed and spans enabled must be bit-identical to the same run
//! with telemetry fully disabled. Telemetry only *observes* — it never
//! touches an RNG stream or feeds back into numerics.

use mars::core::agent::{Agent, AgentKind, TrainingLog};
use mars::core::config::MarsConfig;
use mars::core::workload_input::WorkloadInput;
use mars::graph::features::FEATURE_DIM;
use mars::graph::generators::{Profile, Workload};
use mars::sim::{Cluster, SimEnv};
use mars::telemetry;
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

/// The deterministic portion of a training trace, floats as bits
/// (wall-clock fields excluded).
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

/// The recorder is process-global: tests that install one take turns.
static RECORDER: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// [`run`] with a memory recorder installed and spans on; also returns
/// the captured JSONL.
fn run_instrumented(seed: u64, samples: usize) -> (Vec<f32>, TrainingLog, String) {
    let sink = telemetry::install_memory();
    let (losses, log) = run(seed, samples);
    assert!(telemetry::uninstall(), "recorder was installed");
    let text = sink.lock().unwrap().join("\n");
    (losses, log, text)
}

#[test]
fn telemetry_does_not_perturb_training() {
    let _turn = RECORDER.lock().unwrap_or_else(|e| e.into_inner());
    // Plain run: no recorder, spans off.
    let (losses_off, log_off) = run(42, 48);

    // Instrumented run: memory recorder + spans on, full event stream.
    let (losses_on, log_on, text) = run_instrumented(42, 48);

    // The capture must actually contain the instrumentation output…
    let summary = telemetry::summarize(&text).expect("capture parses");
    assert!(summary.events > 0, "no events recorded");
    assert!(
        summary.spans.iter().any(|s| s.path.contains("tensor.ops.")),
        "no tensor kernel spans recorded"
    );
    assert!(
        summary.rollups.iter().any(|r| r.event == "ppo.update"),
        "no PPO update events recorded"
    );

    // …while the numerics stay bit-identical.
    assert_eq!(losses_off.len(), losses_on.len());
    for (i, (a, b)) in losses_off.iter().zip(&losses_on).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "DGI loss diverged at iter {i}: {a} vs {b}");
    }
    assert_eq!(trace_bits(&log_off), trace_bits(&log_on));
    assert_eq!(log_off.best_placement, log_on.best_placement);
    assert_eq!(log_off.best_reading_s.map(f64::to_bits), log_on.best_reading_s.map(f64::to_bits));
}

/// `grad_norm` of every `ppo.update` event in a capture, as bits.
fn grad_norm_bits(text: &str) -> Vec<u64> {
    text.lines()
        .map(|line| mars::json::Json::parse(line).expect("capture line parses"))
        .filter(|rec| rec.get("name").and_then(|n| n.as_str()) == Some("ppo.update"))
        .map(|rec| rec.get("grad_norm").and_then(|g| g.as_f64()).expect("grad_norm").to_bits())
        .collect()
}

/// The trace itself repeats: `grad_norm` is an f64 sum over the
/// parameter gradients in the order `FwdCtx` drains them, which must
/// not depend on a hasher's per-instance state.
#[test]
fn same_seed_traces_agree_on_grad_norm_bits() {
    let _turn = RECORDER.lock().unwrap_or_else(|e| e.into_inner());
    let (_, _, first) = run_instrumented(7, 40);
    let (_, _, second) = run_instrumented(7, 40);
    let norms = grad_norm_bits(&first);
    assert!(norms.len() >= 2, "expected several PPO updates, got {}", norms.len());
    assert_eq!(norms, grad_norm_bits(&second), "ppo.update grad_norm differs between reruns");
}
