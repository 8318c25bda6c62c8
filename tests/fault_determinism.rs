//! Determinism under fault injection: an armed fault plan must change
//! *what* happens (failures, retries, remaps) without breaking bitwise
//! determinism. A faulty run must be bit-identical across same-seed
//! reruns, and an injected crash — absorbed by a checkpoint save/reload
//! roundtrip — must leave no trace in the training record.

use mars::core::agent::{Agent, AgentKind, TrainingLog};
use mars::core::config::MarsConfig;
use mars::core::workload_input::WorkloadInput;
use mars::graph::features::FEATURE_DIM;
use mars::graph::generators::{Profile, Workload};
use mars::sim::{Cluster, Environment, FaultPlan, SimEnv};
use mars_rng::rngs::StdRng;
use mars_rng::SeedableRng;

fn tiny_cfg() -> MarsConfig {
    let mut c = MarsConfig::small();
    c.encoder_hidden = 16;
    c.placer_hidden = 16;
    c.attn_dim = 8;
    c.segment_size = 24;
    c.dgi_iters = 10;
    c
}

/// Pre-train + PPO-train under an optional fault plan; return the
/// training log and the devices left dead at the end of the run.
fn run_faulty(
    seed: u64,
    samples: usize,
    plan_spec: Option<&str>,
    auto_checkpoint: Option<String>,
) -> (TrainingLog, Vec<usize>) {
    let graph = Workload::InceptionV3.build(Profile::Reduced);
    let input = WorkloadInput::from_graph(&graph);
    let cluster = Cluster::p100_quad();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cfg = tiny_cfg();
    cfg.auto_checkpoint = auto_checkpoint;
    let mut agent = Agent::new(AgentKind::Mars, cfg, FEATURE_DIM, cluster.num_devices(), &mut rng);
    agent.pretrain(&input, &mut rng).expect("Mars agent pre-trains");
    let mut env = SimEnv::new(graph, cluster, seed);
    if let Some(spec) = plan_spec {
        env.set_fault_plan(FaultPlan::parse(spec).expect("plan parses")).expect("plan installs");
    }
    let mut log = TrainingLog::default();
    agent.train(&mut env, &input, samples, &mut rng, &mut log);
    let failed = env.cluster().failed_ids();
    (log, failed)
}

/// The deterministic portion of a training trace, floats as bits
/// (wall-clock fields excluded). Simulated machine time IS included:
/// retries and stragglers must cost the same on every rerun.
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

const PLAN: &str = "fail:2@10, transient:0.25, straggler:0.15x6";

#[test]
fn faulty_run_is_bit_identical_across_reruns() {
    let (log_ref, failed_ref) = run_faulty(42, 48, Some(PLAN), None);
    assert_eq!(failed_ref, vec![2], "the planned device failure fired");
    let (log, failed) = run_faulty(42, 48, Some(PLAN), None);
    assert_eq!(trace_bits(&log_ref), trace_bits(&log), "faulty trace diverged on a rerun");
    assert_eq!(log_ref.best_placement, log.best_placement);
    assert_eq!(log_ref.best_reading_s.map(f64::to_bits), log.best_reading_s.map(f64::to_bits));
    assert_eq!(failed_ref, failed, "degraded cluster diverged");
}

#[test]
fn fault_plan_changes_the_trace() {
    // Sanity: the plan above is not a no-op — a healthy run reads
    // differently (and spends less machine time on retries).
    let (faulty, _) = run_faulty(42, 48, Some(PLAN), None);
    let (clean, failed) = run_faulty(42, 48, None, None);
    assert_eq!(failed, Vec::<usize>::new());
    assert_ne!(trace_bits(&faulty), trace_bits(&clean), "fault plan had no effect");
}

#[test]
fn crash_resume_is_invisible_in_the_trace() {
    // A crash alone (no other faults) is absorbed by a bit-exact
    // checkpoint roundtrip: the resumed run must equal the
    // uninterrupted one — through the in-memory path and through a
    // real checkpoint file.
    let (clean, _) = run_faulty(42, 48, None, None);
    let (crashed_mem, _) = run_faulty(42, 48, Some("crash@24"), None);
    assert_eq!(trace_bits(&clean), trace_bits(&crashed_mem), "in-memory resume left a trace");
    assert_eq!(clean.best_placement, crashed_mem.best_placement);

    let path = std::env::temp_dir().join("mars-fault-determinism.ckpt");
    let (crashed_file, _) =
        run_faulty(42, 48, Some("crash@24"), Some(path.to_str().expect("utf8").into()));
    assert_eq!(trace_bits(&clean), trace_bits(&crashed_file), "file resume left a trace");
    assert!(path.exists(), "auto-checkpoint written");
    let _ = std::fs::remove_file(path);
}
