//! Quickstart: build a benchmark workload, measure baseline
//! placements, train a small Mars agent, and compare.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use mars::core::agent::{Agent, AgentKind, TrainingLog};
use mars::core::baselines::{gpu_only, human_expert};
use mars::core::config::MarsConfig;
use mars::core::workload_input::WorkloadInput;
use mars::graph::features::FEATURE_DIM;
use mars::graph::generators::{Profile, Workload};
use mars::sim::{Cluster, Environment, Placement, SimEnv};
use mars_rng::rngs::StdRng;
use mars_rng::SeedableRng;

fn main() {
    // 1. Build the workload's computational graph (Inception-V3,
    //    batch 1 — the paper's benchmark 1).
    let workload = Workload::InceptionV3;
    let graph = workload.build(Profile::Reduced);
    println!(
        "Workload {}: {} ops, {} edges, {:.2} GB, {:.2e} training FLOPs",
        graph.name,
        graph.num_nodes(),
        graph.num_edges(),
        graph.total_memory_bytes() as f64 / (1u64 << 30) as f64,
        graph.total_flops()
    );

    // 2. The paper's testbed: 4×P100 (12 GB) + dual-Xeon CPU over PCIe.
    let cluster = Cluster::p100_quad();
    let mut env = SimEnv::new(graph.clone(), cluster.clone(), 7);

    // 3. Baselines.
    let human = human_expert(workload, &graph, &cluster);
    let gpu = gpu_only(&graph, &cluster);
    let mut rng = StdRng::seed_from_u64(7);
    let random = Placement::random(&graph, &cluster, &mut rng);
    for (name, p) in [("human expert", &human), ("gpu-only", &gpu), ("random", &random)] {
        println!("  {name:<13} → {}", describe(&mut env, p));
    }

    // 4. Train a small Mars agent: DGI pre-training, then joint PPO.
    let input = WorkloadInput::from_graph(&graph);
    let mut agent = Agent::new(
        AgentKind::Mars,
        MarsConfig::small(),
        FEATURE_DIM,
        cluster.num_devices(),
        &mut rng,
    );
    let report = agent.pretrain(&input, &mut rng).expect("Mars has a GCN encoder");
    println!(
        "DGI pre-training: loss {:.3} → best {:.3} at iter {}",
        report.losses[0], report.best_loss, report.best_iter
    );

    let mut log = TrainingLog::default();
    agent.train(&mut env, &input, 300, &mut rng, &mut log);
    println!(
        "Mars after {} sampled placements: best per-step time {:.3} s \
         ({:.1} simulated machine-hours of evaluation)",
        log.total_samples,
        log.best_reading_s.expect("found a valid placement"),
        log.machine_s / 3600.0
    );

    let best = log.best_placement.expect("best placement recorded");
    let devices = best.devices_used();
    println!("Best placement uses devices {devices:?} with {} cut edges", best.cut_edges(&graph));
}

fn describe(env: &mut SimEnv, p: &Placement) -> String {
    match env.evaluate(p) {
        mars::sim::EvalOutcome::Valid { per_step_s } => format!("{per_step_s:.3} s/step"),
        mars::sim::EvalOutcome::Bad { cutoff_s } => format!("aborted (> {cutoff_s:.0} s)"),
        mars::sim::EvalOutcome::Invalid { oom } => format!("invalid: {oom}"),
    }
}
