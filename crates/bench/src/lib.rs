#![warn(missing_docs)]
//! The experiment runner behind the paper's tables and figures.
//!
//! Every table — Tables 1–3, Figs. 7–8 and four ablations — is one
//! function `fn(&ExpConfig) -> Vec<Table>` listed in [`EXPERIMENTS`],
//! and one entry point runs them:
//!
//! ```text
//! cargo bench -p mars-bench --bench experiments -- <table|all> \
//!     [--profile reduced|paper] [--budget N] [--seed N] [--seeds K] [--telemetry PATH]
//! ```
//!
//! One writer ([`report::write`]) prints each table as markdown and
//! writes `target/experiments/<table>.json`, a record naming the axes
//! it ran at. `--profile reduced` (the default) runs reduced graphs at
//! small widths, minutes on a CPU-only box; `--profile paper` runs
//! paper-scale graphs and widths (much slower).
//!
//! The `kernels` bench target times the hot kernels on [`harness`].

use mars_core::agent::{Agent, AgentKind, TrainingLog};
use mars_core::config::MarsConfig;
use mars_core::workload_input::WorkloadInput;
use mars_graph::features::FEATURE_DIM;
use mars_graph::generators::{Profile, Workload};
use mars_rng::rngs::StdRng;
use mars_rng::SeedableRng;
use mars_sim::{Cluster, Environment, EvalOutcome, Placement, SimEnv};
use std::str::FromStr;

mod experiments;
pub mod harness;
pub mod report;

pub use experiments::EXPERIMENTS;
use report::Table;

/// The axes one experiment runs at.
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
    /// The default axes of `profile`: small widths and 600 evaluations
    /// per agent run on reduced graphs, paper widths and 2000 on paper
    /// graphs; base seed 42, 3 seeds per cell.
    pub fn new(profile: Profile) -> Self {
        let paper = matches!(profile, Profile::Paper);
        ExpConfig {
            profile,
            mars: if paper { MarsConfig::paper() } else { MarsConfig::small() },
            budget: if paper { 2000 } else { 600 },
            seed: 42,
            seeds: 3,
        }
    }
}

/// One table or figure: its name on the command line and in
/// `target/experiments/<name>.json`, and the function that runs it.
#[derive(Clone, Copy)]
pub struct Experiment {
    /// Command-line and file name, e.g. `table2_final`.
    pub name: &'static str,
    /// Runs the experiment at the given axes.
    pub run: fn(&ExpConfig) -> Vec<Table>,
}

/// The runner's command line.
pub const USAGE: &str = "usage: experiments <table|all> [--profile reduced|paper] [--budget N] \
                         [--seed N] [--seeds K] [--telemetry PATH]";

/// A parsed command line: what to run, at which axes, and where to
/// record telemetry.
pub struct Invocation {
    /// The experiments to run, in [`EXPERIMENTS`] order.
    pub experiments: Vec<Experiment>,
    /// Their axes.
    pub cfg: ExpConfig,
    /// JSONL telemetry sink (`--telemetry`), if any.
    pub telemetry: Option<String>,
}

impl Invocation {
    /// Parse the runner's arguments (program name excluded). Besides
    /// the flags in [`USAGE`] only cargo's forwarded `--bench` is
    /// accepted. An unknown table or flag, a repeated flag, a malformed
    /// number, a zero budget or seed count and a seed above 2^53 are
    /// errors naming the argument: none of them may silently change
    /// what runs or what the record says ran.
    pub fn parse(args: &[String]) -> Result<Invocation, String> {
        let mut name = None;
        let (mut profile, mut budget, mut seed, mut seeds, mut telemetry) =
            (None, None, None, None, None);
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if arg == "--bench" {
                continue;
            }
            let Some(flag) = arg.strip_prefix("--") else {
                if name.replace(arg.as_str()).is_some() {
                    return Err(format!("unexpected argument '{arg}' (give one table or 'all')"));
                }
                continue;
            };
            let slot = match flag {
                "profile" => &mut profile,
                "budget" => &mut budget,
                "seed" => &mut seed,
                "seeds" => &mut seeds,
                "telemetry" => &mut telemetry,
                _ => return Err(format!("unknown flag --{flag}")),
            };
            let value = args
                .next()
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("missing value for --{flag}"))?;
            if slot.replace(value.as_str()).is_some() {
                return Err(format!("--{flag} given twice"));
            }
        }

        let profile = match profile {
            None => Profile::Reduced,
            Some(v) => [Profile::Reduced, Profile::Paper]
                .into_iter()
                .find(|p| p.name() == v)
                .ok_or_else(|| format!("invalid value '{v}' for --profile (reduced or paper)"))?,
        };
        let mut cfg = ExpConfig::new(profile);
        cfg.budget = count("budget", budget, cfg.budget)?;
        cfg.seeds = count("seeds", seeds, cfg.seeds)?;
        if let Some(v) = seed {
            cfg.seed = number("seed", v)?;
            // JSON numbers are f64: a larger seed would be recorded as
            // a different one.
            if cfg.seed > 1 << 53 {
                return Err(format!("--seed must be at most 2^53 = {} (got {v})", 1u64 << 53));
            }
        }
        let names = || EXPERIMENTS.map(|e| e.name).join(", ");
        let experiments = match name {
            None => return Err(format!("no table given (all, {})", names())),
            Some("all") => EXPERIMENTS.to_vec(),
            Some(n) => vec![*EXPERIMENTS
                .iter()
                .find(|e| e.name == n)
                .ok_or_else(|| format!("unknown table '{n}' (all, {})", names()))?],
        };
        Ok(Invocation { experiments, cfg, telemetry: telemetry.map(str::to_string) })
    }
}

fn number<T: FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("invalid value '{v}' for --{flag}"))
}

/// `--flag N` where zero would leave every cell empty.
fn count(flag: &str, v: Option<&str>, default: usize) -> Result<usize, String> {
    match v.map(|v| number(flag, v)).transpose()? {
        None => Ok(default),
        Some(0) => Err(format!("--{flag} must be at least 1")),
        Some(n) => Ok(n),
    }
}

/// Mean of the values that are present — over the seeds that found a
/// placement, say — or `None` when none is.
pub(crate) fn mean_found(values: impl IntoIterator<Item = Option<f64>>) -> Option<f64> {
    let found: Vec<f64> = values.into_iter().flatten().collect();
    (!found.is_empty()).then(|| found.iter().sum::<f64>() / found.len() as f64)
}

/// Aggregate of several seeds of the same (agent, workload) run.
pub(crate) struct MultiRunResult {
    /// Per-seed best per-step times (None = no valid placement found).
    pub bests: Vec<Option<f64>>,
    /// Mean of the per-seed bests (None if no seed found a placement).
    pub mean_best: Option<f64>,
    /// Per-seed training logs.
    pub logs: Vec<TrainingLog>,
}

/// Train `kind` on `workload` once per seed of `cfg`, record the run
/// in telemetry ([`note_run`], naming the cell by `seed_offset`) and
/// aggregate.
pub(crate) fn run_agent_multi(
    cfg: &ExpConfig,
    kind: AgentKind,
    workload: Workload,
    seed_offset: u64,
) -> MultiRunResult {
    let logs: Vec<TrainingLog> = (0..cfg.seeds as u64)
        .map(|s| run_agent(cfg, kind, workload, seed_offset + s * 7919))
        .collect();
    let bests: Vec<Option<f64>> = logs.iter().map(|l| l.best_reading_s).collect();
    note_run(&kind.label(), workload, Some(seed_offset), &bests);
    MultiRunResult { mean_best: mean_found(bests.iter().copied()), bests, logs }
}

/// Train an agent of `kind` on `workload` for `cfg.budget`
/// evaluations. Mars and Table 1's frozen encoders pre-train their GCN
/// with DGI first; the frozen encoders then freeze it.
fn run_agent(
    cfg: &ExpConfig,
    kind: AgentKind,
    workload: Workload,
    seed_offset: u64,
) -> TrainingLog {
    let graph = workload.build(cfg.profile);
    let input = WorkloadInput::from_graph(&graph);
    let cluster = Cluster::p100_quad();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ seed_offset);
    let mut agent =
        Agent::new(kind, cfg.mars.clone(), FEATURE_DIM, cluster.num_devices(), &mut rng);

    let mut log = TrainingLog::default();
    if matches!(kind, AgentKind::Mars | AgentKind::FixedEncoder(_)) {
        let t0 = std::time::Instant::now();
        if agent.pretrain(&input, &mut rng).is_some() {
            log.pretrain_wall_s = t0.elapsed().as_secs_f64();
        }
    }
    if let AgentKind::FixedEncoder(_) = kind {
        agent.freeze_encoder(&input);
    }

    let mut env = SimEnv::new(graph, cluster, cfg.seed ^ seed_offset ^ 0xE11);
    agent.train(&mut env, &input, cfg.budget, &mut rng, &mut log);
    log
}

/// Evaluate a fixed placement under the measurement protocol.
pub(crate) fn measure_placement(
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

/// Record one aggregated (agent, workload) training run in telemetry:
/// bumps the `bench.runs` / `bench.runs_no_valid` counters and, when a
/// recorder is active, emits a `bench.run` event carrying the per-seed
/// bests. A table's cells differ by their seed offset, which depends
/// only on the cell's place in the table; the event carries it when
/// given, so the variants of an ablation (same agent label) can be
/// told apart.
pub(crate) fn note_run(
    label: &str,
    workload: Workload,
    seed_offset: Option<u64>,
    bests: &[Option<f64>],
) {
    let mean_best = mean_found(bests.iter().copied());
    mars_telemetry::counter("bench.runs").inc();
    if mean_best.is_none() {
        mars_telemetry::counter("bench.runs_no_valid").inc();
    }
    if mars_telemetry::active() {
        let mut fields = vec![
            ("agent", label.into()),
            ("workload", workload.name().into()),
            ("mean_best_s", mean_best.unwrap_or(f64::NAN).into()),
            ("seeds", (bests.len() as f64).into()),
            ("seeds_valid", (bests.iter().filter(|b| b.is_some()).count() as f64).into()),
        ];
        fields.extend(seed_offset.map(|o| ("seed_offset", o.into())));
        mars_telemetry::event("bench.run", &fields);
    }
}

/// Format a table cell: seconds or "OOM".
pub(crate) fn cell(v: &EvalOutcome) -> String {
    match v {
        EvalOutcome::Valid { per_step_s } => format!("{per_step_s:.3}"),
        EvalOutcome::Bad { .. } => "bad".into(),
        EvalOutcome::Invalid { .. } => "OOM".into(),
        EvalOutcome::TransientError { .. } => "fault".into(),
        EvalOutcome::Straggler { .. } => "straggler".into(),
    }
}

/// Format an optional seconds value.
pub(crate) fn cell_opt(v: Option<f64>) -> String {
    match v {
        Some(s) => format!("{s:.3}"),
        None => "OOM".into(),
    }
}

/// The three benchmark workloads of §4.1, in table order.
pub(crate) const BENCHMARKS: [Workload; 3] =
    [Workload::InceptionV3, Workload::Gnmt4, Workload::BertBase];

/// Paper row label per benchmark.
pub(crate) fn bench_label(w: Workload) -> &'static str {
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
    use mars_json::Json;
    use mars_sim::OomError;

    fn parse(args: &[&str]) -> Result<Invocation, String> {
        Invocation::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

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
        let mut cfg = ExpConfig { seeds: 2, budget: 40, ..ExpConfig::new(Profile::Reduced) };
        cfg.mars.encoder_hidden = 16;
        cfg.mars.placer_hidden = 16;
        cfg.mars.attn_dim = 8;
        cfg.mars.segment_size = 16;
        cfg.mars.dgi_iters = 5;
        let r = run_agent_multi(&cfg, AgentKind::MarsNoPretrain, Workload::InceptionV3, 12345);
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

    #[test]
    fn mean_skips_missing_values() {
        assert_eq!(mean_found([Some(1.0), None, Some(2.0)]), Some(1.5));
        assert_eq!(mean_found([None, None]), None);
        assert_eq!(mean_found([]), None);
    }

    #[test]
    fn axes_default_per_profile_and_parse_from_flags() {
        let inv = parse(&["table2_final", "--bench"]).unwrap();
        assert_eq!(inv.experiments.len(), 1);
        assert_eq!(inv.experiments[0].name, "table2_final");
        assert_eq!((inv.cfg.budget, inv.cfg.seed, inv.cfg.seeds), (600, 42, 3));
        assert!(matches!(inv.cfg.profile, Profile::Reduced));
        assert!(inv.telemetry.is_none());

        let inv = parse(&["all", "--profile", "paper", "--seeds", "2", "--telemetry", "t.jsonl"])
            .unwrap();
        assert_eq!(inv.experiments.len(), EXPERIMENTS.len());
        assert!(matches!(inv.cfg.profile, Profile::Paper));
        assert_eq!(inv.cfg.mars.segment_size, MarsConfig::paper().segment_size);
        assert_eq!((inv.cfg.budget, inv.cfg.seeds), (2000, 2));
        assert_eq!(inv.telemetry.as_deref(), Some("t.jsonl"));

        let inv = parse(&["ablation_rl", "--budget", "8", "--seed", "7"]).unwrap();
        assert_eq!((inv.cfg.budget, inv.cfg.seed), (8, 7));
    }

    fn refused(args: &[&str], needle: &str) {
        let err = parse(args).err().unwrap_or_else(|| panic!("{args:?} was accepted"));
        assert!(err.contains(needle), "{args:?}: {err}");
    }

    #[test]
    fn unknown_table_is_refused() {
        refused(&["table4"], "unknown table 'table4'");
        refused(&[], "no table given");
        refused(&["table1_placers", "fig7_curves"], "unexpected argument 'fig7_curves'");
    }

    #[test]
    fn unknown_flag_is_refused() {
        refused(&["all", "--smoke"], "unknown flag --smoke");
        refused(&["all", "--profile", "full"], "invalid value 'full' for --profile");
        refused(&["all", "--budget", "8", "--budget", "9"], "--budget given twice");
        refused(&["all", "--telemetry"], "missing value for --telemetry");
    }

    #[test]
    fn unparsable_number_is_refused() {
        refused(&["all", "--budget", "2k"], "invalid value '2k' for --budget");
        refused(&["all", "--seed", "-1"], "invalid value '-1' for --seed");
        refused(&["all", "--seeds", "1.5"], "invalid value '1.5' for --seeds");
        refused(&["all", "--seed", "9007199254740993"], "--seed must be at most 2^53");
    }

    #[test]
    fn zero_budget_is_refused() {
        refused(&["all", "--budget", "0"], "--budget must be at least 1");
    }

    #[test]
    fn zero_seeds_is_refused() {
        refused(&["all", "--seeds", "0"], "--seeds must be at least 1");
    }

    /// Runs `name` at a smoke budget and checks that its record parses
    /// back with `rows[i]` rows in table `i`, each as wide as its header.
    fn smoke(name: &str, rows: &[usize]) {
        let cfg = ExpConfig { budget: 8, seeds: 1, ..ExpConfig::new(Profile::Reduced) };
        let exp = EXPERIMENTS.iter().find(|e| e.name == name).expect("listed");
        let text = report::record(name, &cfg, &(exp.run)(&cfg)).pretty();
        let record = Json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(record["experiment"].as_str(), Some(name));
        assert_eq!(record["profile"].as_str(), Some("reduced"));
        assert_eq!(record["budget"].as_usize(), Some(8));
        assert_eq!(record["seed"].as_u64(), Some(42));
        assert_eq!(record["seeds"].as_usize(), Some(1));
        let tables = record["tables"].as_array().expect("tables");
        let got: Vec<usize> =
            tables.iter().map(|t| t["rows"].as_array().expect("rows").len()).collect();
        assert_eq!(got, rows, "{name}: rows per table");
        for t in tables {
            let width = t["header"].as_array().expect("header").len();
            for row in t["rows"].as_array().expect("rows") {
                assert_eq!(row.as_array().expect("row").len(), width, "{name}: {row}");
            }
        }
    }

    /// One test per experiment, so they run side by side.
    macro_rules! smoke_tests {
        ($($name:ident: $rows:expr;)*) => {
            mod smoke {
                $(#[test]
                fn $name() {
                    super::smoke(stringify!($name), &$rows);
                })*

                #[test]
                fn covers_every_experiment() {
                    assert_eq!([$(stringify!($name)),*], super::EXPERIMENTS.map(|e| e.name));
                }
            }
        };
    }

    // At budget 8 every run is one update round, so Fig. 7 has one row
    // per (workload, agent) series.
    smoke_tests! {
        table1_placers: [3];
        table2_final: [3];
        table3_generalization: [3];
        fig7_curves: [6, 6];
        fig8_training_time: [12, 4];
        ablation_rl: [4];
        ablation_segment: [10];
        ablation_partitioner: [3];
        ablation_reward: [6];
    }
}
