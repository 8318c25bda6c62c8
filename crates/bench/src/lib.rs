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
//! A table function does not train: it asks [`Cells`] for its seed
//! cells, one training or generalization run each. Every table shares
//! one file, `target/experiments/cells.jsonl`: a cell missing from it
//! runs and is appended as it finishes; one already there is read back,
//! whichever table ran it. A cell is named by what it trains, so two
//! tables that show one configuration show one run of it, and seeded by
//! where it runs, so every arm of a workload trains on the same seeds.
//! Re-running a command therefore resumes a killed run, and with every
//! cell present a table function is a pure render. Deleting the cells
//! file starts over.
//!
//! One writer ([`report::write`]) prints each table as markdown and
//! writes `target/experiments/<table>.json`, a record naming the axes
//! it ran at. `--profile reduced` (the default) runs reduced graphs at
//! small widths, minutes on a CPU-only box; `--profile paper` runs
//! paper-scale graphs and widths (much slower).
//!
//! The `kernels` bench target times the hot kernels on [`harness`].

use mars_core::agent::{Agent, AgentKind, TrainingLog, TrainingRecord};
use mars_core::config::MarsConfig;
use mars_core::generalize::{measurement_env, GeneralizeResult};
use mars_core::workload_input::WorkloadInput;
use mars_graph::features::FEATURE_DIM;
use mars_graph::generators::{Profile, Workload};
use mars_json::Json;
use mars_rng::rngs::StdRng;
use mars_rng::SeedableRng;
use mars_sim::{Cluster, Environment, EvalOutcome, Placement};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::Path;
use std::str::FromStr;
use std::sync::OnceLock;
use std::time::Instant;

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
/// `target/experiments/<name>.json`, and the function that renders it.
#[derive(Clone, Copy)]
pub struct Experiment {
    /// Command-line and file name, e.g. `table2_final`.
    pub name: &'static str,
    /// Renders the experiment at the given axes from its seed cells,
    /// running the cells that are missing. Fails only if a finished
    /// cell cannot be appended to the cells file.
    pub run: fn(&ExpConfig, &mut Cells) -> io::Result<Vec<Table>>,
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

/// Mean best per-step time over the seeds that found a placement.
pub(crate) fn mean_best(logs: &[TrainingLog]) -> Option<f64> {
    mean_found(logs.iter().map(|l| l.best_reading_s))
}

/// What one seed cell keeps in its table's cells file.
pub(crate) trait CellValue: Sized {
    /// The value as the `value` field of its line.
    fn to_json(&self) -> Json;
    /// The value back from its line; `None` if the line does not hold one.
    fn from_json(json: &Json) -> Option<Self>;
    /// The best per-step time the cell found, for its progress line.
    fn best_s(&self) -> Option<f64>;
}

/// `null` as `None`, a number as `Some`, anything else as a bad line.
fn opt_f64(json: &Json) -> Option<Option<f64>> {
    if json.is_null() {
        Some(None)
    } else {
        json.as_f64().map(Some)
    }
}

/// Everything of a training run but its best placement, which no table
/// reads.
impl CellValue for TrainingLog {
    fn to_json(&self) -> Json {
        let record = |r: &TrainingRecord| {
            Json::obj([
                ("samples", Json::from(r.samples_so_far)),
                ("mean_valid_s", r.mean_valid_reading_s.into()),
                ("best_so_far_s", r.best_so_far_s.into()),
                ("valid_fraction", r.valid_fraction.into()),
                ("agent_wall_s", r.agent_wall_s.into()),
                ("machine_s", r.machine_s.into()),
                ("entropy", r.policy_entropy.into()),
            ])
        };
        Json::obj([
            ("best_s", self.best_reading_s.into()),
            ("pretrain_wall_s", self.pretrain_wall_s.into()),
            ("train_wall_s", self.train_wall_s.into()),
            ("machine_s", self.machine_s.into()),
            ("samples", self.total_samples.into()),
            ("records", Json::arr(self.records.iter().map(record))),
        ])
    }

    fn from_json(json: &Json) -> Option<TrainingLog> {
        let record = |r: &Json| {
            Some(TrainingRecord {
                samples_so_far: r["samples"].as_usize()?,
                mean_valid_reading_s: opt_f64(&r["mean_valid_s"])?,
                best_so_far_s: opt_f64(&r["best_so_far_s"])?,
                valid_fraction: r["valid_fraction"].as_f64()?,
                agent_wall_s: r["agent_wall_s"].as_f64()?,
                machine_s: r["machine_s"].as_f64()?,
                policy_entropy: r["entropy"].as_f64()?,
            })
        };
        Some(TrainingLog {
            records: json["records"].as_array()?.iter().map(record).collect::<Option<_>>()?,
            best_placement: None,
            best_reading_s: opt_f64(&json["best_s"])?,
            pretrain_wall_s: json["pretrain_wall_s"].as_f64()?,
            train_wall_s: json["train_wall_s"].as_f64()?,
            machine_s: json["machine_s"].as_f64()?,
            total_samples: json["samples"].as_usize()?,
        })
    }

    fn best_s(&self) -> Option<f64> {
        self.best_reading_s
    }
}

impl CellValue for GeneralizeResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("best_s", self.best_s.into()),
            ("train_samples", self.train_samples.into()),
            ("finetune_samples", self.finetune_samples.into()),
        ])
    }

    fn from_json(json: &Json) -> Option<GeneralizeResult> {
        Some(GeneralizeResult {
            best_s: opt_f64(&json["best_s"])?,
            train_samples: json["train_samples"].as_usize()?,
            finetune_samples: json["finetune_samples"].as_usize()?,
        })
    }

    fn best_s(&self) -> Option<f64> {
        self.best_s
    }
}

/// FNV-1a of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// FNV-1a of the running executable's bytes, read once per process.
/// Any change to the code that trains a cell changes it, so no cell of
/// another build is reused.
fn fingerprint() -> io::Result<&'static str> {
    static FINGERPRINT: OnceLock<String> = OnceLock::new();
    if let Some(f) = FINGERPRINT.get() {
        return Ok(f);
    }
    let hash = fnv1a(&std::fs::read(std::env::current_exe()?)?);
    Ok(FINGERPRINT.get_or_init(|| format!("{hash:016x}")))
}

/// The seed of seed index `s` on `workload` at base seed `base`. It
/// depends on nothing else, so on one workload every agent kind, every
/// configuration and every table trains seed `s` from the same weights
/// seed and measures it under the same noise.
fn cell_seed(base: u64, workload: Workload, s: u64) -> u64 {
    base ^ fnv1a(format!("{}/{s}", workload.name()).as_bytes())
}

/// The seed cells of every table at one set of axes, backed by
/// `<dir>/cells.jsonl`.
///
/// A seed cell is one training or generalization run, keyed
/// `<arm>/<workload>/<budget>/<config digest>/<seed index>`: what it
/// trains, on which workload, for how many evaluations, with which
/// [`MarsConfig`] (FNV-1a of its `Debug` rendering), and which seed.
/// Its seed is [`cell_seed`] of the workload and the seed index alone.
/// Each line of the file holds a key, the axes it ran at (profile, base
/// seed and the [`fingerprint`] of the executable), its wall seconds
/// and its value. A line is reused only at equal axes, and of two lines
/// for one key the later wins; the seed count is not an axis, so raising
/// `--seeds` reuses the seeds already run.
pub struct Cells {
    file: File,
    axes: Json,
    seed: u64,
    done: HashMap<String, Json>,
    ran: usize,
    reused: usize,
}

impl Cells {
    /// Open (or create) `<dir>/cells.jsonl` and read the cells already
    /// run at `cfg`'s axes. A final line without its newline was torn
    /// by a killed run: it is cut off, and its cell runs again.
    pub fn open(dir: &Path, cfg: &ExpConfig) -> io::Result<Cells> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join("cells.jsonl");
        let mut file = OpenOptions::new().read(true).append(true).create(true).open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let whole = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        file.set_len(whole as u64)?;
        let axes = Json::obj([
            ("profile", Json::from(cfg.profile.name())),
            ("seed", cfg.seed.into()),
            ("fingerprint", fingerprint()?.into()),
        ]);
        let mut done = HashMap::new();
        for line in bytes[..whole].split(|&b| b == b'\n') {
            let Some(line) = std::str::from_utf8(line).ok().and_then(|l| Json::parse(l).ok())
            else {
                continue;
            };
            if let (Some(key), true) = (line["cell"].as_str(), line["axes"] == axes) {
                done.insert(key.to_string(), line["value"].clone());
            }
        }
        Ok(Cells { file, axes, seed: cfg.seed, done, ran: 0, reused: 0 })
    }

    /// Seed cell `seed_index` of `arm` on `workload` at `budget` and
    /// `mars`: its value from the cells file if it is there, else
    /// `train`'s from the cell's seed, appended to the file as one
    /// synced line and announced by a progress line on stderr and a
    /// `bench.run` event. Either way the value is the one the line
    /// decodes to, so a table renders the same bytes from a fresh run
    /// and from a resumed one.
    pub(crate) fn run<T: CellValue>(
        &mut self,
        arm: &str,
        workload: Workload,
        budget: usize,
        mars: &MarsConfig,
        seed_index: u64,
        train: impl FnOnce(u64) -> T,
    ) -> io::Result<T> {
        let digest = fnv1a(format!("{mars:?}").as_bytes());
        let key = format!("{arm}/{}/{budget}/{digest:016x}/{seed_index}", workload.name());
        if let Some(value) = self.done.get(&key).and_then(T::from_json) {
            self.reused += 1;
            return Ok(value);
        }
        let t0 = Instant::now();
        let value = train(cell_seed(self.seed, workload, seed_index));
        let wall_s = t0.elapsed().as_secs_f64();
        let line = Json::obj([
            ("cell", Json::from(&key)),
            ("axes", self.axes.clone()),
            ("wall_s", wall_s.into()),
            ("value", value.to_json()),
        ])
        .to_string();
        // A value its own line cannot give back (a non-finite number
        // written as `null` where the codec wants one) would be re-run
        // on every resume; it is refused before it is appended.
        let value =
            Json::parse(&line).ok().and_then(|l| T::from_json(&l["value"])).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("cell {key} does not decode: {line}"),
                )
            })?;
        self.file.write_all(format!("{line}\n").as_bytes())?;
        self.file.sync_data()?;
        self.ran += 1;
        eprintln!("{key}: best {}, {wall_s:.1} s", report::Cell::Best(value.best_s()));
        mars_telemetry::event(
            "bench.run",
            &[("cell", key.into()), ("best_s", value.best_s().into()), ("wall_s", wall_s.into())],
        );
        Ok(value)
    }

    /// How many cells this process ran, and how many it read back.
    pub fn counts(&self) -> (usize, usize) {
        (self.ran, self.reused)
    }
}

/// Seeds `0..cfg.seeds` of `kind` on `workload` at `cfg.budget`.
pub(crate) fn run_agent_multi(
    cfg: &ExpConfig,
    cells: &mut Cells,
    kind: AgentKind,
    workload: Workload,
) -> io::Result<Vec<TrainingLog>> {
    (0..cfg.seeds as u64).map(|s| train_cell(cfg, cells, kind, workload, cfg.budget, s)).collect()
}

/// Seed cell `s` of `kind` trained on `workload` for `budget`
/// evaluations.
pub(crate) fn train_cell(
    cfg: &ExpConfig,
    cells: &mut Cells,
    kind: AgentKind,
    workload: Workload,
    budget: usize,
    s: u64,
) -> io::Result<TrainingLog> {
    cells.run(&format!("{kind:?}"), workload, budget, &cfg.mars, s, |seed| {
        train(cfg, kind, workload, budget, seed)
    })
}

/// Train an agent of `kind` on `workload` for `budget` evaluations,
/// its weights and samples drawn from `seed`, measured in
/// [`measurement_env`]. Mars and Table 1's frozen encoders pre-train
/// their GCN with DGI first; the frozen encoders then freeze it.
fn train(
    cfg: &ExpConfig,
    kind: AgentKind,
    workload: Workload,
    budget: usize,
    seed: u64,
) -> TrainingLog {
    let graph = workload.build(cfg.profile);
    let input = WorkloadInput::from_graph(&graph);
    let cluster = Cluster::p100_quad();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut agent =
        Agent::new(kind, cfg.mars.clone(), FEATURE_DIM, cluster.num_devices(), &mut rng);

    let mut log = TrainingLog::default();
    if matches!(kind, AgentKind::Mars | AgentKind::FixedEncoder(_)) {
        let t0 = Instant::now();
        if agent.pretrain(&input, &mut rng).is_some() {
            log.pretrain_wall_s = t0.elapsed().as_secs_f64();
        }
    }
    if let AgentKind::FixedEncoder(_) = kind {
        agent.freeze_encoder(&input);
    }

    let mut env = measurement_env(graph, seed);
    agent.train(&mut env, &input, budget, &mut rng, &mut log);
    log
}

/// Evaluate a fixed placement under the measurement protocol, with the
/// noise seed index 0 of `workload` trains under.
pub(crate) fn measure_placement(
    cfg: &ExpConfig,
    workload: Workload,
    placement: &Placement,
) -> EvalOutcome {
    let graph = workload.build(cfg.profile);
    measurement_env(graph, cell_seed(cfg.seed, workload, 0)).evaluate(placement)
}

/// Format a table cell: seconds or "OOM".
pub(crate) fn cell(v: &EvalOutcome) -> String {
    match v {
        EvalOutcome::Valid { per_step_s } => format!("{per_step_s:.3}"),
        EvalOutcome::Bad { .. } => "bad".into(),
        EvalOutcome::Invalid { .. } => "OOM".into(),
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
    use mars_core::baselines::human_expert;
    use mars_json::Json;
    use mars_sim::{OomError, SimEnv};
    use std::path::PathBuf;

    fn parse(args: &[&str]) -> Result<Invocation, String> {
        Invocation::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn cells_format_outcomes() {
        assert_eq!(cell(&EvalOutcome::Valid { per_step_s: 1.2345 }), "1.234");
        assert_eq!(cell(&EvalOutcome::Bad { cutoff_s: 20.0 }), "bad");
        let oom = OomError { device: 1, required_bytes: 1, capacity_bytes: 0 };
        assert_eq!(cell(&EvalOutcome::Invalid { oom }), "OOM");
    }

    #[test]
    fn bench_labels_cover_all_workloads() {
        for w in Workload::ALL {
            assert!(!bench_label(w).is_empty());
        }
        assert_eq!(bench_label(Workload::BertBase), "BERT");
    }

    /// A fresh directory for one test's cells file.
    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mars-bench-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A stand-in for a training run: a log that depends on `x`, with
    /// one record.
    fn fake_log(x: f64) -> TrainingLog {
        TrainingLog {
            records: vec![TrainingRecord {
                samples_so_far: 8,
                mean_valid_reading_s: Some(x * 1.5),
                best_so_far_s: Some(x),
                valid_fraction: 0.75,
                agent_wall_s: x / 3.0,
                machine_s: 2.0 * x,
                policy_entropy: 1.1,
            }],
            best_reading_s: Some(x),
            machine_s: 2.0 * x,
            total_samples: 8,
            ..TrainingLog::default()
        }
    }

    /// Asks for seed 0 of each of `arms` on Inception-V3 at `budget`
    /// and returns their best times and how many of them trained.
    fn ask(cells: &mut Cells, budget: usize, arms: &[&str]) -> (Vec<Option<f64>>, usize) {
        let mut trained = 0;
        let bests = arms
            .iter()
            .enumerate()
            .map(|(i, arm)| {
                let mars = MarsConfig::small();
                cells
                    .run(arm, Workload::InceptionV3, budget, &mars, 0, |_| {
                        trained += 1;
                        fake_log(i as f64 + 0.1)
                    })
                    .expect("cells file")
                    .best_reading_s
            })
            .collect();
        (bests, trained)
    }

    fn smoke_cfg() -> ExpConfig {
        ExpConfig { budget: 8, seeds: 1, ..ExpConfig::new(Profile::Reduced) }
    }

    #[test]
    fn a_log_survives_its_cell_line_exactly() {
        let log = fake_log(0.1 + 0.2);
        let back = TrainingLog::from_json(&Json::parse(&log.to_json().to_string()).unwrap())
            .expect("decodes");
        assert_eq!(back.to_json(), log.to_json());
        assert_eq!(back.records[0].agent_wall_s.to_bits(), log.records[0].agent_wall_s.to_bits());
        assert!(TrainingLog::from_json(&Json::parse(r#"{"best_s":"x"}"#).unwrap()).is_none());
    }

    #[test]
    fn multi_run_aggregates_means() {
        let mut cfg = ExpConfig { seeds: 2, budget: 40, ..ExpConfig::new(Profile::Reduced) };
        cfg.mars.encoder_hidden = 16;
        cfg.mars.placer_hidden = 16;
        cfg.mars.attn_dim = 8;
        cfg.mars.segment_size = 16;
        cfg.mars.dgi_iters = 5;
        let dir = scratch_dir("multi");
        let run = |cells: &mut Cells| {
            run_agent_multi(&cfg, cells, AgentKind::MarsNoPretrain, Workload::InceptionV3)
                .expect("cells file")
        };

        let mut cells = Cells::open(&dir, &cfg).unwrap();
        let logs = run(&mut cells);
        // Each seed is its own cell: none reuses another's line.
        assert_eq!(logs.len(), 2);
        assert_eq!(cells.counts(), (2, 0));
        let found: Vec<f64> = logs.iter().filter_map(|l| l.best_reading_s).collect();
        match mean_best(&logs) {
            Some(mean) => {
                assert!((mean - found.iter().sum::<f64>() / found.len() as f64).abs() < 1e-12)
            }
            None => assert!(found.is_empty()),
        }

        let mut again = Cells::open(&dir, &cfg).unwrap();
        let reused = run(&mut again);
        assert_eq!(again.counts(), (0, 2));
        let json = |logs: &[TrainingLog]| logs.iter().map(|l| l.to_json()).collect::<Vec<_>>();
        assert_eq!(json(&reused), json(&logs));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_value_its_line_cannot_give_back_is_refused() {
        let dir = scratch_dir("nan");
        let mut cells = Cells::open(&dir, &smoke_cfg()).unwrap();
        let mut log = fake_log(0.5);
        log.records[0].policy_entropy = f64::NAN;
        let mars = MarsConfig::small();
        let err =
            cells.run("a", Workload::InceptionV3, 8, &mars, 0, |_| log).map(|_| ()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("cell a/inception_v3/8/"), "{err}");
        assert_eq!(std::fs::read_to_string(dir.join("cells.jsonl")).unwrap(), "");
        assert_eq!(cells.counts(), (0, 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_complete_cells_file_trains_nothing() {
        let dir = scratch_dir("complete");
        let cfg = smoke_cfg();
        let first = ask(&mut Cells::open(&dir, &cfg).unwrap(), 8, &["a", "b", "c"]);
        assert_eq!(first.1, 3);
        let mut cells = Cells::open(&dir, &cfg).unwrap();
        assert_eq!(ask(&mut cells, 8, &["a", "b", "c"]), (first.0, 0));
        assert_eq!(cells.counts(), (0, 3));
        // The seed count is not an axis: more seeds reuse the ones run.
        let more = ExpConfig { seeds: 5, ..smoke_cfg() };
        assert_eq!(ask(&mut Cells::open(&dir, &more).unwrap(), 8, &["a", "b", "c"]).1, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_torn_final_line_is_skipped_and_its_cell_rerun() {
        let dir = scratch_dir("torn");
        let cfg = smoke_cfg();
        let first = ask(&mut Cells::open(&dir, &cfg).unwrap(), 8, &["a", "b", "c"]);
        let path = dir.join("cells.jsonl");
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        let torn = format!("{}\n{}\n{}", lines[0], lines[1], &lines[2][..lines[2].len() / 2]);
        std::fs::write(&path, torn).unwrap();

        let again = ask(&mut Cells::open(&dir, &cfg).unwrap(), 8, &["a", "b", "c"]);
        assert_eq!(again, (first.0, 1));
        // The torn half is gone and the re-run cell's line is whole.
        let resumed = std::fs::read_to_string(&path).unwrap();
        assert!(resumed.starts_with(&format!("{}\n{}\n{{", lines[0], lines[1])), "{resumed}");
        assert!(resumed.lines().all(|l| Json::parse(l).is_ok()), "{resumed}");
        assert_eq!(resumed.lines().count(), 3);
        assert_eq!(ask(&mut Cells::open(&dir, &cfg).unwrap(), 8, &["a", "b", "c"]).1, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_line_of_another_build_or_budget_is_never_reused() {
        let dir = scratch_dir("stale");
        let cfg = smoke_cfg();
        ask(&mut Cells::open(&dir, &cfg).unwrap(), 8, &["a", "b"]);

        // The budget is part of the key: lines at two budgets coexist,
        // and each is reused at its own.
        assert_eq!(ask(&mut Cells::open(&dir, &cfg).unwrap(), 9, &["a", "b"]).1, 2);
        assert_eq!(ask(&mut Cells::open(&dir, &cfg).unwrap(), 8, &["a", "b"]).1, 0);
        assert_eq!(ask(&mut Cells::open(&dir, &cfg).unwrap(), 9, &["a", "b"]).1, 0);

        let path = dir.join("cells.jsonl");
        let text = std::fs::read_to_string(&path).unwrap();
        let fp = fingerprint().unwrap();
        assert!(text.contains(fp));
        std::fs::write(&path, text.replace(fp, "0000000000000000")).unwrap();
        assert_eq!(ask(&mut Cells::open(&dir, &cfg).unwrap(), 8, &["a", "b"]).1, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_cell_is_seeded_by_its_workload_and_seed_index_alone() {
        let dir = scratch_dir("seeds");
        let mut cells = Cells::open(&dir, &smoke_cfg()).unwrap();
        let mut seed_of = |arm: &str, w: Workload, budget: usize, segment_size: usize, s: u64| {
            let mars = MarsConfig { segment_size, ..MarsConfig::small() };
            let mut seed = 0;
            cells
                .run(arm, w, budget, &mars, s, |cell_seed| {
                    seed = cell_seed;
                    fake_log(0.5)
                })
                .expect("cells file");
            seed
        };
        let base = seed_of("a", Workload::Gnmt4, 8, 32, 0);
        assert_eq!(seed_of("b", Workload::Gnmt4, 9, 16, 0), base, "another arm, budget, config");
        assert_ne!(seed_of("a", Workload::Gnmt4, 8, 32, 1), base, "another seed index");
        assert_ne!(seed_of("a", Workload::BertBase, 8, 32, 0), base, "another workload");
        // Each of the four asks above was a distinct cell.
        assert_eq!(cells.counts(), (4, 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Table 3's direct arm and the fine-tuning of its generalized arms
    /// measure the unseen workload at equal seeds, in one environment,
    /// so both read the same noise.
    #[test]
    fn table3_arms_measure_the_unseen_workload_under_one_noise() {
        use mars_core::generalize::{different_source, similar_source};
        let (cfg, w) = (smoke_cfg(), Workload::Gnmt4);
        let dir = scratch_dir("table3-noise");
        let mut cells = Cells::open(&dir, &cfg).unwrap();
        let mut env_of = |arm: &str| {
            let mut seed = 0;
            cells
                .run(arm, w, cfg.budget, &cfg.mars, 0, |cell_seed| {
                    seed = cell_seed;
                    fake_log(0.5)
                })
                .expect("cells file");
            measurement_env(w.build(cfg.profile), seed)
        };
        let graph = w.build(cfg.profile);
        let placement = human_expert(w, &graph, &Cluster::p100_quad());
        let readings = |mut env: SimEnv| -> Vec<String> {
            (0..3).map(|_| format!("{:?}", env.evaluate(&placement))).collect()
        };
        let direct = readings(env_of(&format!("{:?}", AgentKind::Mars)));
        for src in [similar_source(w), different_source(w)] {
            let generalized = readings(env_of(&format!("Mars-from-{}", src.name())));
            assert_eq!(generalized, direct, "fine-tuning from {}", src.name());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The rendered tables of `name` over the cells file in `dir`, and
    /// how many cells the render trained and read back.
    fn render(dir: &Path, cfg: &ExpConfig, name: &str) -> (Vec<Table>, (usize, usize)) {
        let exp = EXPERIMENTS.iter().find(|e| e.name == name).expect("listed");
        let mut cells = Cells::open(dir, cfg).expect("cells file");
        let tables = (exp.run)(cfg, &mut cells).expect("cells file");
        (tables, cells.counts())
    }

    #[test]
    fn tables_share_the_cells_of_one_configuration() {
        let cfg = smoke_cfg();
        let dir = scratch_dir("shared");
        let (table2, counts) = render(&dir, &cfg, "table2_final");
        assert_eq!(counts, (12, 0), "four agents on three workloads");
        for (name, reused) in
            [("fig7_curves", 6), ("fig8_training_time", 12), ("ablation_partitioner", 3)]
        {
            assert_eq!(render(&dir, &cfg, name).1, (0, reused), "{name} renders Table 2's cells");
        }
        // GNMT-4 is row 1 of both; Mars is Table 2's column 5 and the
        // partitioner ablation's column 2, both recorded as numbers.
        let (partitioner, _) = render(&dir, &cfg, "ablation_partitioner");
        let mars = |tables: &[Table], col: usize| {
            let record = report::record("t", &cfg, tables);
            record["tables"][0]["rows"][1][col].as_f64().expect("a time")
        };
        assert_eq!(mars(&table2, 5).to_bits(), mars(&partitioner, 2).to_bits());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_partitioner_ablation_records_mars_as_a_number_or_null() {
        let cfg = smoke_cfg();
        let dir = scratch_dir("partitioner-mars");
        {
            // The Mars cells, already run; on GNMT-4 no seed found a
            // placement.
            let mut cells = Cells::open(&dir, &cfg).unwrap();
            let arm = format!("{:?}", AgentKind::Mars);
            for (w, best) in BENCHMARKS.into_iter().zip([Some(0.25), None, Some(2.5)]) {
                let log = || TrainingLog { best_reading_s: best, ..fake_log(1.0) };
                cells.run(&arm, w, cfg.budget, &cfg.mars, 0, |_| log()).unwrap();
            }
        }
        let (tables, counts) = render(&dir, &cfg, "ablation_partitioner");
        assert_eq!(counts, (0, 3), "the partitioner ablation reads the Mars cells back");
        let record = Json::parse(&report::record("p", &cfg, &tables).to_string()).unwrap();
        let mars: Vec<&Json> = (0..3).map(|r| &record["tables"][0]["rows"][r][2]).collect();
        assert_eq!(mars[0].as_f64(), Some(0.25));
        assert!(mars[1].is_null(), "no placement found: {}", mars[1]);
        assert_eq!(mars[2].as_f64(), Some(2.5));
        std::fs::remove_dir_all(&dir).unwrap();
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
        let cfg = smoke_cfg();
        let exp = EXPERIMENTS.iter().find(|e| e.name == name).expect("listed");
        let dir = scratch_dir(name);
        let mut cells = Cells::open(&dir, &cfg).expect("cells file");
        let tables = (exp.run)(&cfg, &mut cells).expect("cells file");
        let text = report::record(name, &cfg, &tables).pretty();
        std::fs::remove_dir_all(&dir).expect("remove the cells file");
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
