#![warn(missing_docs)]
//! Shared experiment harness for regenerating the paper's tables and
//! figures.
//!
//! Every bench target (`cargo bench -p mars-bench --bench <name>`)
//! prints the paper's table layout with our measured values and writes
//! a JSON record under `target/experiments/` for EXPERIMENTS.md.
//!
//! Two run profiles, selected by `MARS_PROFILE`:
//! * default (*small*) — reduced graph/width profile; minutes on a
//!   CPU-only box.
//! * `MARS_PROFILE=full` — paper-scale graphs and widths (much slower).

use mars_core::agent::{Agent, AgentKind, TrainingLog};
use mars_core::config::MarsConfig;
use mars_core::workload_input::WorkloadInput;
use mars_graph::features::FEATURE_DIM;
use mars_graph::generators::{Profile, Workload};
use mars_sim::{Cluster, Environment, EvalOutcome, Placement, SimEnv};
pub mod harness;

use mars_json::Json;
use mars_rng::rngs::StdRng;
use mars_rng::SeedableRng;

/// Experiment-wide settings.
#[derive(Clone, Debug)]
pub struct ExpConfig {
    /// Graph granularity.
    pub profile: Profile,
    /// Agent hyper-parameters.
    pub mars: MarsConfig,
    /// Placement-evaluation budget per (agent, workload) run.
    pub budget: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Independent seeds averaged per table cell.
    pub seeds: usize,
}

impl ExpConfig {
    /// Resolve from `MARS_PROFILE` / `MARS_BUDGET` / `MARS_SEED` /
    /// `MARS_SEED_COUNT`.
    pub fn from_env() -> Self {
        let full = matches!(std::env::var("MARS_PROFILE").as_deref(), Ok("full") | Ok("paper"));
        let budget = std::env::var("MARS_BUDGET")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(if full { 2000 } else { 600 });
        let seed = std::env::var("MARS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(42);
        let seeds = std::env::var("MARS_SEED_COUNT").ok().and_then(|s| s.parse().ok()).unwrap_or(3);
        ExpConfig {
            profile: if full { Profile::Paper } else { Profile::Reduced },
            mars: if full { MarsConfig::paper() } else { MarsConfig::small() },
            budget,
            seed,
            seeds,
        }
    }
}

/// Aggregate of several seeds of the same (agent, workload) run.
pub struct MultiRunResult {
    /// Per-seed best per-step times (None = no valid placement found).
    pub bests: Vec<Option<f64>>,
    /// Mean of the per-seed bests (None if no seed found a placement).
    pub mean_best: Option<f64>,
    /// Per-seed training logs.
    pub logs: Vec<TrainingLog>,
}

/// Run `cfg.seeds` independent trainings and aggregate.
pub fn run_agent_multi(
    cfg: &ExpConfig,
    kind: AgentKind,
    workload: Workload,
    pretrain: bool,
    budget: usize,
    seed_offset: u64,
) -> MultiRunResult {
    let mut bests = Vec::new();
    let mut logs = Vec::new();
    for s in 0..cfg.seeds {
        let r = run_agent(cfg, kind, workload, pretrain, budget, seed_offset + (s as u64) * 7919);
        bests.push(r.log.best_reading_s);
        logs.push(r.log);
    }
    let found: Vec<f64> = bests.iter().flatten().copied().collect();
    let mean_best = (!found.is_empty()).then(|| found.iter().sum::<f64>() / found.len() as f64);
    MultiRunResult { bests, mean_best, logs }
}

/// One trained-agent result.
pub struct RunResult {
    /// Training trace.
    pub log: TrainingLog,
    /// The trained agent (for generalization / inspection).
    pub agent: Agent,
    /// Pre-training report losses, if pre-training ran.
    pub pretrain_losses: Option<Vec<f32>>,
}

/// Train an agent of `kind` on `workload` for `budget` evaluations.
///
/// `pretrain = true` runs DGI first (only meaningful for GCN agents).
pub fn run_agent(
    cfg: &ExpConfig,
    kind: AgentKind,
    workload: Workload,
    pretrain: bool,
    budget: usize,
    seed_offset: u64,
) -> RunResult {
    let graph = workload.build(cfg.profile);
    let input = WorkloadInput::from_graph(&graph);
    let cluster = Cluster::p100_quad();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ seed_offset);
    let mut agent =
        Agent::new(kind, cfg.mars.clone(), FEATURE_DIM, cluster.num_devices(), &mut rng);

    let mut log = TrainingLog::default();
    let mut pretrain_losses = None;
    if pretrain {
        let t0 = std::time::Instant::now();
        if let Some(report) = agent.pretrain(&input, &mut rng) {
            log.pretrain_wall_s = t0.elapsed().as_secs_f64();
            pretrain_losses = Some(report.losses);
        }
    }
    if let AgentKind::FixedEncoder(_) = kind {
        agent.freeze_encoder(&input);
    }

    let mut env = SimEnv::new(graph, cluster, cfg.seed ^ seed_offset ^ 0xE11);
    agent.train(&mut env, &input, budget, &mut rng, &mut log);
    RunResult { log, agent, pretrain_losses }
}

/// Evaluate a fixed placement under the measurement protocol.
pub fn measure_placement(
    cfg: &ExpConfig,
    workload: Workload,
    placement: &Placement,
    seed_offset: u64,
) -> EvalOutcome {
    let graph = workload.build(cfg.profile);
    let cluster = Cluster::p100_quad();
    let mut env = SimEnv::new(graph, cluster, cfg.seed ^ seed_offset);
    env.evaluate(placement)
}

/// Format a table cell: seconds or "OOM".
pub fn cell(v: &EvalOutcome) -> String {
    match v {
        EvalOutcome::Valid { per_step_s } => format!("{per_step_s:.3}"),
        EvalOutcome::Bad { .. } => "bad".into(),
        EvalOutcome::Invalid { .. } => "OOM".into(),
        EvalOutcome::TransientError { .. } => "fault".into(),
        EvalOutcome::Straggler { .. } => "straggler".into(),
    }
}

/// Format an optional seconds value.
pub fn cell_opt(v: Option<f64>) -> String {
    match v {
        Some(s) => format!("{s:.3}"),
        None => "OOM".into(),
    }
}

/// Print a markdown-style table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n### {title}\n");
    println!("| {} |", header.join(" | "));
    println!("|{}|", header.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
    println!();
}

/// Install a telemetry JSONL recorder when `MARS_TELEMETRY=<path>` is
/// set. Call [`finish_runs`] at the end of the bench to flush it.
pub fn telemetry_from_env() -> bool {
    match std::env::var("MARS_TELEMETRY") {
        Ok(path) if !path.is_empty() => match mars_telemetry::install_file(&path) {
            Ok(()) => true,
            Err(e) => {
                eprintln!("cannot open telemetry sink '{path}': {e}");
                false
            }
        },
        _ => false,
    }
}

/// Record one aggregated (agent, workload) training run in telemetry —
/// the structured replacement for the old per-run stderr lines. Bumps
/// the `bench.runs` / `bench.runs_no_valid` counters and, when a
/// recorder is active, emits a `bench.run` event carrying the per-seed
/// bests.
pub fn note_run(label: &str, workload: Workload, r: &MultiRunResult) {
    mars_telemetry::counter("bench.runs").inc();
    if r.mean_best.is_none() {
        mars_telemetry::counter("bench.runs_no_valid").inc();
    }
    if mars_telemetry::active() {
        mars_telemetry::event(
            "bench.run",
            &[
                ("agent", label.into()),
                ("workload", workload.name().into()),
                ("mean_best_s", r.mean_best.unwrap_or(f64::NAN).into()),
                ("seeds", (r.bests.len() as f64).into()),
                ("seeds_valid", (r.bests.iter().filter(|b| b.is_some()).count() as f64).into()),
            ],
        );
    }
}

/// Print the single end-of-bench summary line for the runs noted via
/// [`note_run`] and flush the env-installed recorder, if any.
pub fn finish_runs(table: &str) {
    let runs = mars_telemetry::counter("bench.runs").get();
    let no_valid = mars_telemetry::counter("bench.runs_no_valid").get();
    eprintln!("{table}: {runs} training runs, {no_valid} found no valid placement");
    if mars_telemetry::uninstall() {
        if let Ok(path) = std::env::var("MARS_TELEMETRY") {
            println!("(telemetry written to {path})");
        }
    }
}

/// Persist an experiment record as JSON under the workspace's
/// `target/experiments/`.
pub fn save_json(name: &str, value: &Json) {
    let dir = harness::workspace_path("target/experiments");
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    if std::fs::write(dir.join(format!("{name}.json")), value.pretty()).is_ok() {
        println!("(wrote target/experiments/{name}.json)");
    }
}

/// The three benchmark workloads of §4.1, in table order.
pub const BENCHMARKS: [Workload; 3] = [Workload::InceptionV3, Workload::Gnmt4, Workload::BertBase];

/// Paper row label per benchmark.
pub fn bench_label(w: Workload) -> &'static str {
    match w {
        Workload::InceptionV3 => "Inception-V3",
        Workload::Gnmt4 => "GNMT-4",
        Workload::BertBase => "BERT",
        Workload::Vgg16 => "VGG16",
        Workload::Seq2Seq => "Seq2seq",
        Workload::Transformer => "Transformer",
        Workload::Resnet50 => "ResNet-50",
        Workload::Gpt2Small => "GPT-2 Small",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_sim::OomError;

    #[test]
    fn cells_format_outcomes() {
        assert_eq!(cell(&EvalOutcome::Valid { per_step_s: 1.2345 }), "1.234");
        assert_eq!(cell(&EvalOutcome::Bad { cutoff_s: 20.0 }), "bad");
        let oom = OomError { device: 1, required_bytes: 1, capacity_bytes: 0 };
        assert_eq!(cell(&EvalOutcome::Invalid { oom }), "OOM");
        assert_eq!(cell_opt(Some(0.5)), "0.500");
        assert_eq!(cell_opt(None), "OOM");
    }

    #[test]
    fn bench_labels_cover_all_workloads() {
        for w in Workload::ALL {
            assert!(!bench_label(w).is_empty());
        }
        assert_eq!(bench_label(Workload::BertBase), "BERT");
    }

    #[test]
    fn multi_run_aggregates_means() {
        let mut cfg = ExpConfig::from_env();
        cfg.seeds = 2;
        cfg.mars.encoder_hidden = 16;
        cfg.mars.placer_hidden = 16;
        cfg.mars.attn_dim = 8;
        cfg.mars.segment_size = 16;
        cfg.mars.dgi_iters = 5;
        let r = run_agent_multi(
            &cfg,
            mars_core::agent::AgentKind::MarsNoPretrain,
            Workload::InceptionV3,
            false,
            40,
            12345,
        );
        assert_eq!(r.bests.len(), 2);
        assert_eq!(r.logs.len(), 2);
        let found: Vec<f64> = r.bests.iter().flatten().copied().collect();
        if !found.is_empty() {
            let mean = found.iter().sum::<f64>() / found.len() as f64;
            assert!((r.mean_best.unwrap() - mean).abs() < 1e-12);
        } else {
            assert!(r.mean_best.is_none());
        }
    }
}
