//! `mars-cli` — command-line interface to the Mars reproduction.
//!
//! ```text
//! mars-cli inspect  <workload>                      graph stats + memory + baselines
//! mars-cli train    <workload> [options]            train an agent, print summary
//! mars-cli pretrain <workload> [options]            DGI contrastive pre-training only
//! mars-cli trace    <workload> --placement <name>   ASCII Gantt of one placement
//! mars-cli dot      <workload> [--max-nodes N]      Graphviz export to stdout
//! mars-cli evaluate <workload> --placement <name>   measure one placement
//! mars-cli metrics summarize <run.jsonl>            render a telemetry capture
//! mars-cli metrics tail <run.jsonl> [options]       one line per record, live with --follow
//! mars-cli metrics flame <run.jsonl>                collapsed stacks for flamegraph tools
//! mars-cli bench-gate --current <b.json> [options]  compare a bench run to baseline
//! mars-cli serve --listen ADDR [options]            placement-as-a-service daemon
//! mars-cli place <workload> --connect ADDR [opts]   query a running serve daemon
//!
//! workloads:  inception | gnmt | bert | vgg | seq2seq | transformer
//! placements: human | gpu-only | rr2 | rr4 | blocked2 | blocked3 | blocked4 | mincut
//! train options: --agent mars|mars-nopre|grouper|encoder   --budget N
//!                --seed N   --profile small|full   --save <ckpt-path>
//!                --telemetry <run.jsonl>   --dgi-iters N
//!                --eval-threads N   --no-eval-cache
//!                --fault-plan <spec>   --max-eval-retries N
//!                --eval-timeout-s S    --auto-checkpoint <ckpt-path>
//!                (the kernel backend is picked by the MARS_KERNEL env
//!                 var: scalar | simd | auto — see DESIGN.md)
//! metrics tail:  --lines N (default 20, 0 = all)   --follow
//! bench-gate:    --current <e2e.json>     --baseline <e2e.json>
//!                --kernels <kernels.json> --kernels-baseline <kernels.json>
//!                --serve <serve.json>     --serve-baseline <serve.json>
//!                --min-ratio R (default 0.5)
//!                --min-kernel-ratio R (default 0.5)
//!                --min-serve-ratio R (default 0.5)
//!                --only <prefix>   gate only kernels matching prefix
//! serve options: --listen ADDR          bind (host:port or unix:<path>)
//!                --seed N   --checkpoint <ckpt>   --store <placements.jsonl>
//!                --cache-capacity N   --max-requests N   --devices N
//!                --profile small|full   --telemetry <run.jsonl>
//! place options: --connect ADDR   --top-k K   --repeat N   --shutdown
//!                --profile small|full   --fail-device N
//! ```
//!
//! A flag the command does not read is refused before any work starts
//! (`unknown flag --bugdet for 'train'`; the table is
//! `mars::cli::COMMAND_FLAGS`), so a typo cannot run as a no-op.
//!
//! `--telemetry <path>` records a JSONL event stream (per-iteration DGI
//! loss, per-update PPO diagnostics, per-evaluation simulator gauges,
//! and a span-tree profile of the hot kernels); inspect it afterwards
//! with `mars-cli metrics summarize <path>`. `metrics tail --follow`
//! renders records live as the run writes them (it exits when the
//! end-of-run summary records appear); `metrics flame` folds span
//! self-times into collapsed-stack lines (under a `learner` root
//! frame) ready for `flamegraph.pl` or inferno, and prints the top
//! self-time kernels on stderr so stdout stays pipeable.
//!
//! `--fault-plan` injects deterministic failures into the simulated
//! cluster (see `mars_sim::FaultPlan::parse` for the grammar):
//! `fail:2@50` kills device 2 before evaluation 50, `transient:0.1`
//! draws background transient errors, `straggler:0.05x8` slows 5% of
//! evaluations 8×, `crash@100` crashes (and resumes) the agent. Same
//! seed + same plan reproduces the run bit for bit.

use mars::cli::{fail, Flags};
use mars::core::agent::{Agent, AgentKind, TrainingLog};
use mars::core::baselines::{gpu_only, human_expert};
use mars::core::config::MarsConfig;
use mars::core::partitioner::best_min_cut;
use mars::core::workload_input::WorkloadInput;
use mars::graph::analysis::{stats, to_dot};
use mars::graph::generators::{Profile, Workload};
use mars::graph::CompGraph;
use mars::json::Json;
use mars::net::{recv_msg, send_msg, Addr, Conn, Listener, Msg, PROTOCOL_VERSION};
use mars::nn::checkpoint;
use mars::serve::{PlacementEngine, ServeOptions};
use mars::sim::{
    check_memory, simulate_traced, Cluster, Environment, EvalOutcome, FaultPlan, Placement, SimEnv,
};
use mars_rng::rngs::StdRng;
use mars_rng::SeedableRng;
use std::process::ExitCode;

fn named_placement(
    name: &str,
    workload: Workload,
    graph: &CompGraph,
    cluster: &Cluster,
) -> Option<Placement> {
    let mut p = match name {
        "human" => human_expert(workload, graph, cluster),
        "gpu-only" | "gpu" => gpu_only(graph, cluster),
        "rr2" => Placement::round_robin(graph, &cluster.gpu_ids()[..2]),
        "rr4" => Placement::round_robin(graph, &cluster.gpu_ids()),
        "blocked2" => Placement::blocked(graph, &cluster.gpu_ids()[..2]),
        "blocked3" => Placement::blocked(graph, &cluster.gpu_ids()[..3]),
        "blocked4" => Placement::blocked(graph, &cluster.gpu_ids()),
        "mincut" => return best_min_cut(graph, cluster),
        _ => return None,
    };
    p.enforce_compatibility(graph, cluster);
    Some(p)
}

fn cmd_inspect(workload: Workload, profile: Profile) -> Result<(), String> {
    let graph = workload.build(profile);
    let cluster = Cluster::p100_quad();
    let s = stats(&graph);
    println!("workload {}", graph.name);
    println!(
        "  nodes {}  edges {}  depth {}  max width {}",
        s.nodes, s.edges, s.depth, s.max_width
    );
    println!(
        "  training FLOPs {:.3e}  memory {:.2} GB  mean edge {:.2} MB",
        s.total_flops,
        s.total_memory_bytes as f64 / (1u64 << 30) as f64,
        s.mean_edge_bytes / (1 << 20) as f64
    );
    println!("  op kinds:");
    for (kind, count) in s.kind_histogram.iter().take(8) {
        println!("    {kind:?}: {count}");
    }
    println!("  baselines on 4×P100 + CPU:");
    let env = SimEnv::new(graph.clone(), cluster.clone(), 0);
    for name in ["human", "gpu-only", "rr4", "blocked3", "mincut"] {
        let Some(p) = named_placement(name, workload, &graph, &cluster) else {
            println!("    {name:<9} (unavailable)");
            continue;
        };
        match env.true_step_time(&p) {
            Ok(rep) => println!(
                "    {name:<9} {:8.3} s/step  (comm {:.3} s, {} transfers)",
                rep.makespan_s, rep.comm_s, rep.num_transfers
            ),
            Err(e) => println!("    {name:<9} {e}"),
        }
    }
    Ok(())
}

/// Install a JSONL recorder when `--telemetry <path>` was given.
/// Returns the path so the caller can report where the capture went.
fn install_telemetry(flags: &Flags) -> Result<Option<String>, String> {
    let Some(path) = flags.string_opt("telemetry")? else { return Ok(None) };
    mars::telemetry::install_file(&path)
        .map_err(|e| format!("cannot open telemetry sink '{path}': {e}"))?;
    Ok(Some(path))
}

fn finish_telemetry(path: Option<String>) {
    if let Some(path) = path {
        mars::telemetry::uninstall();
        println!("telemetry written to {path} (mars-cli metrics summarize {path})");
    }
}

/// Resolve `--profile`, `--dgi-iters`, and the resilience flags
/// (`--max-eval-retries`, `--eval-timeout-s`, `--auto-checkpoint`)
/// into a [`MarsConfig`]. Shared by `train` and `pretrain`.
fn config_from_flags(flags: &Flags) -> Result<MarsConfig, String> {
    let mut cfg = match flags.one_of("profile", &["small", "full", "paper"], "small")? {
        "full" | "paper" => MarsConfig::paper(),
        _ => MarsConfig::small(),
    };
    if let Some(iters) = flags.parsed_opt("dgi-iters")? {
        cfg.dgi_iters = iters;
    }
    if let Some(threads) = flags.parsed_opt("eval-threads")? {
        if threads == 0 {
            return Err("invalid value '0' for --eval-threads (need at least 1)".into());
        }
        cfg.eval_threads = threads;
    }
    if flags.switch("no-eval-cache")? {
        cfg.eval_cache = false;
    }
    cfg.max_eval_retries = flags.parsed("max-eval-retries", cfg.max_eval_retries)?;
    cfg.eval_timeout_s = flags.parsed("eval-timeout-s", cfg.eval_timeout_s)?;
    if cfg.eval_timeout_s <= 0.0 {
        return Err(format!(
            "invalid value '{}' for --eval-timeout-s (must be positive)",
            cfg.eval_timeout_s
        ));
    }
    cfg.auto_checkpoint = flags.string_opt("auto-checkpoint")?;
    Ok(cfg)
}

/// Parse and validate `--fault-plan` against the cluster, then install
/// it (and the retry/timeout knobs from `cfg`) on the environment.
fn arm_environment(env: &mut SimEnv, cfg: &MarsConfig, flags: &Flags) -> Result<(), String> {
    env.set_eval_threads(cfg.eval_threads);
    env.set_cache_enabled(cfg.eval_cache);
    env.retry.max_retries = cfg.max_eval_retries;
    env.eval_timeout_s = cfg.eval_timeout_s;
    if let Some(spec) = flags.string_opt("fault-plan")? {
        let plan =
            FaultPlan::parse(&spec).map_err(|e| format!("invalid value for --fault-plan: {e}"))?;
        env.set_fault_plan(plan).map_err(|e| format!("invalid value for --fault-plan: {e}"))?;
        println!("fault plan armed: {spec}");
    }
    Ok(())
}

fn cmd_train(workload: Workload, profile: Profile, flags: &Flags) -> Result<(), String> {
    let kind = match flags.one_of("agent", &["mars", "mars-nopre", "grouper", "encoder"], "mars")? {
        "mars-nopre" => AgentKind::MarsNoPretrain,
        "grouper" => AgentKind::GrouperPlacer,
        "encoder" => AgentKind::EncoderPlacer,
        _ => AgentKind::Mars,
    };
    let budget: usize = flags.parsed("budget", 400)?;
    let seed: u64 = flags.parsed("seed", 42)?;
    let cfg = config_from_flags(flags)?;
    let telemetry = install_telemetry(flags)?;

    let graph = workload.build(profile);
    let input = WorkloadInput::from_graph(&graph);
    let cluster = Cluster::p100_quad();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut agent =
        Agent::new(kind, cfg, mars::graph::features::FEATURE_DIM, cluster.num_devices(), &mut rng);
    if kind == AgentKind::Mars {
        println!("DGI pre-training…");
        if let Some(report) = agent.pretrain(&input, &mut rng) {
            println!("  loss {:.4} → {:.4}", report.losses[0], report.best_loss);
        }
    }
    let mut env = SimEnv::new(graph, cluster, seed);
    arm_environment(&mut env, &agent.cfg, flags)?;
    let mut log = TrainingLog::default();
    println!(
        "training {} on {} for {budget} placement evaluations…",
        kind.label(),
        workload.name()
    );
    agent.train(&mut env, &input, budget, &mut rng, &mut log);
    match log.best_reading_s {
        Some(best) => {
            let p = log.best_placement.as_ref().expect("placement recorded");
            println!(
                "best {best:.3} s/step on devices {:?} after {} samples \
                 ({:.1} simulated machine-hours)",
                p.devices_used(),
                log.total_samples,
                log.machine_s / 3600.0
            );
        }
        None => println!("no valid placement found in {} samples", log.total_samples),
    }
    if env.cluster().has_failures() {
        println!("cluster degraded: failed devices {:?}", env.cluster().failed_ids());
    }
    if let Some((hits, misses, evictions)) = env.cache_stats() {
        let total = hits + misses;
        println!(
            "eval cache: {hits}/{total} hits ({:.1}%), {evictions} evictions",
            env.cache_hit_rate().unwrap_or(0.0) * 100.0
        );
    }
    if let Some(path) = flags.string_opt("save")? {
        checkpoint::save_file(&agent.store, &path)
            .map_err(|e| format!("checkpoint save failed: {e}"))?;
        println!("checkpoint written to {path}");
    }
    finish_telemetry(telemetry);
    Ok(())
}

fn cmd_pretrain(workload: Workload, profile: Profile, flags: &Flags) -> Result<(), String> {
    let seed: u64 = flags.parsed("seed", 42)?;
    let cfg = config_from_flags(flags)?;
    let telemetry = install_telemetry(flags)?;
    let graph = workload.build(profile);
    let input = WorkloadInput::from_graph(&graph);
    let cluster = Cluster::p100_quad();
    let mut rng = StdRng::seed_from_u64(seed);
    let iters = cfg.dgi_iters;
    let mut agent = Agent::new(
        AgentKind::Mars,
        cfg,
        mars::graph::features::FEATURE_DIM,
        cluster.num_devices(),
        &mut rng,
    );
    println!("DGI pre-training on {} for {iters} iterations…", workload.name());
    match agent.pretrain(&input, &mut rng) {
        Some(report) => println!(
            "loss {:.4} → best {:.4} at iteration {}",
            report.losses[0], report.best_loss, report.best_iter
        ),
        None => eprintln!("agent has no pre-trainable encoder"),
    }
    if let Some(path) = flags.string_opt("save")? {
        checkpoint::save_file(&agent.store, &path)
            .map_err(|e| format!("checkpoint save failed: {e}"))?;
        println!("checkpoint written to {path}");
    }
    finish_telemetry(telemetry);
    Ok(())
}

fn cmd_metrics(args: &[String]) -> Result<(), String> {
    let usage = "usage: mars-cli metrics <summarize|tail|flame> <run.jsonl> \
                 [--lines N] [--follow]";
    let (Some(sub), Some(path)) = (args.first(), args.get(1)) else { return Err(usage.into()) };
    let flags = Flags::parse_for(&format!("metrics {sub}"), &args[2..])?;
    match sub.as_str() {
        "summarize" => cmd_metrics_summarize(path),
        "tail" => cmd_metrics_tail(path, &flags),
        "flame" => cmd_metrics_flame(path),
        other => Err(format!(
            "unknown metrics subcommand '{other}' (expected summarize, tail, or flame)"
        )),
    }
}

fn load_summary(path: &str) -> Result<mars::telemetry::RunSummary, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
    mars::telemetry::summarize(&text).map_err(|e| format!("cannot summarize '{path}': {e}"))
}

fn cmd_metrics_summarize(path: &str) -> Result<(), String> {
    let summary = load_summary(path)?;
    print!("{}", summary.render());
    let kernel_share = summary.self_time_fraction(&["tensor.", "nn.", "autograd."]);
    if kernel_share > 0.0 {
        println!("kernel self-time share (tensor/nn/autograd): {:.1}%", kernel_share * 100.0);
    }
    if let Some(report) = summary.rollout_report() {
        print!("{}", report.render());
    }
    if let Some(report) = summary.fault_report() {
        print!("{}", report.render());
    }
    if let Some(report) = summary.serve_report() {
        print!("{}", report.render());
    }
    Ok(())
}

/// Fold span self-times into collapsed-stack lines
/// (`learner;frame;frame value`), the input format of `flamegraph.pl`
/// and inferno. Stacks go to stdout (pipeable); the top self-time
/// kernels go to stderr.
fn cmd_metrics_flame(path: &str) -> Result<(), String> {
    let summary = load_summary(path)?;
    let stacks = summary.collapsed_stacks();
    if stacks.is_empty() {
        return Err(format!(
            "'{path}' has no span data to fold (was the run recorded with --telemetry?)"
        ));
    }
    print!("{stacks}");
    let rows = summary.self_time_by_leaf();
    let total: u64 = rows.iter().map(|(_, ns)| *ns).sum::<u64>().max(1);
    let top: Vec<String> = rows
        .iter()
        .take(5)
        .map(|(leaf, ns)| format!("{leaf} {:.1}%", *ns as f64 * 100.0 / total as f64))
        .collect();
    eprintln!("learner: {}", top.join(", "));
    Ok(())
}

/// Render one line per record, oldest first. `--lines N` bounds the
/// initial backlog (0 = all); `--follow` then polls the file and
/// renders records as the run appends them, tolerating a torn final
/// line, until the end-of-run summary records appear.
fn cmd_metrics_tail(path: &str, flags: &Flags) -> Result<(), String> {
    let follow = flags.switch("follow")?;
    let backlog: usize = flags.parsed("lines", 20)?;
    let read = |from: u64| -> Result<String, String> {
        use std::io::{Read, Seek, SeekFrom};
        let mut f = std::fs::File::open(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
        f.seek(SeekFrom::Start(from)).map_err(|e| format!("cannot seek '{path}': {e}"))?;
        let mut text = String::new();
        f.read_to_string(&mut text).map_err(|e| format!("cannot read '{path}': {e}"))?;
        Ok(text)
    };
    // Only consume up to the last newline: the writer flushes whole
    // lines, but we may race the OS mid-append.
    let complete_prefix = |text: &str| text.rfind('\n').map_or(0, |at| at + 1);

    let text = read(0)?;
    let mut consumed = complete_prefix(&text) as u64;
    let lines: Vec<&str> = text[..consumed as usize].lines().collect();
    let skip = if backlog == 0 { 0 } else { lines.len().saturating_sub(backlog) };
    let mut complete = false;
    for line in &lines[skip..] {
        complete |= print_tail_line(line);
    }
    if !follow || complete {
        return Ok(());
    }
    loop {
        std::thread::sleep(std::time::Duration::from_millis(200));
        let fresh = read(consumed)?;
        let upto = complete_prefix(&fresh);
        for line in fresh[..upto].lines() {
            if print_tail_line(line) {
                return Ok(());
            }
        }
        consumed += upto as u64;
    }
}

/// Print one record; `true` once the run is complete (the recorder
/// writes its `histograms` summary last, at uninstall).
fn print_tail_line(line: &str) -> bool {
    let Ok(j) = Json::parse(line) else { return false };
    println!("{}", mars::telemetry::summary::tail_line(&j));
    j.get("kind").and_then(Json::as_str) == Some("histograms")
}

/// One parsed bench-JSON file: its per-arm medians plus the aggregate
/// speedup (present in e2e baselines, absent in kernel baselines).
#[derive(Debug)]
struct BenchRun {
    speedup: Option<f64>,
    arms: Vec<(String, f64)>,
}

fn parse_bench_run(path: &str, text: &str) -> Result<BenchRun, String> {
    let json = Json::parse(text).map_err(|e| format!("cannot parse '{path}': {e}"))?;
    // An empty run is a broken run: a bench JSON that carries no
    // samples must fail the gate loudly, not pass it vacuously
    // (and certainly not panic on an index).
    let samples = match json.get("benchmarks").and_then(Json::as_array) {
        Some(samples) if !samples.is_empty() => samples,
        _ => {
            return Err(format!(
                "'{path}' has no benchmark samples (missing or empty 'benchmarks' array)"
            ))
        }
    };
    let arms = samples
        .iter()
        .map(|s| {
            let name = s
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("'{path}' has a benchmark sample without a 'name'"))?;
            let median = s
                .get("median_ns")
                .and_then(Json::as_f64)
                .filter(|m| *m > 0.0)
                .ok_or_else(|| format!("'{path}': arm '{name}' has no positive 'median_ns'"))?;
            Ok((name.to_string(), median))
        })
        .collect::<Result<_, String>>()?;
    let speedup = json.get("speedup").and_then(Json::as_f64);
    Ok(BenchRun { speedup, arms })
}

/// Require the aggregate speedup of an e2e bench file.
fn require_speedup(run: &BenchRun, path: &str) -> Result<f64, String> {
    run.speedup.ok_or_else(|| format!("'{path}' has no numeric 'speedup' field"))
}

/// Per-arm regression ratios between two bench runs. Raw medians are
/// not comparable across runs (a smoke run uses fewer rounds than the
/// committed baseline), so each arm is first normalized to its own
/// file's serial arm — speedup(arm) = serial_median / arm_median —
/// and the ratio compares those speedups. Arms missing from either
/// file, and the serial arm itself (its ratio is 1 by construction),
/// are skipped.
fn bench_arm_ratios(current: &BenchRun, baseline: &BenchRun) -> Vec<(String, f64)> {
    let serial =
        |run: &BenchRun| run.arms.iter().find(|(name, _)| name.contains("serial")).map(|(_, m)| *m);
    let (Some(serial_cur), Some(serial_base)) = (serial(current), serial(baseline)) else {
        return Vec::new();
    };
    current
        .arms
        .iter()
        .filter(|(name, _)| !name.contains("serial"))
        .filter_map(|(name, median_cur)| {
            let (_, median_base) = baseline.arms.iter().find(|(n, _)| n == name)?;
            let ratio = (serial_cur / median_cur) / (serial_base / median_base);
            Some((name.clone(), ratio))
        })
        .collect()
}

/// Per-kernel regression ratios between two kernel-bench runs. Raw
/// medians are machine-dependent, so each kernel's raw improvement
/// `r = baseline_median / current_median` is normalized by the
/// geometric mean of all raw ratios: a uniformly faster or slower
/// machine moves every `r` by the same factor, which the geomean
/// divides back out, while a single regressed kernel falls below its
/// peers. Returns the normalized ratios plus the names present in only
/// one of the two files (compared nowhere, reported so coverage loss is
/// never silent).
fn bench_kernel_ratios(
    current: &BenchRun,
    baseline: &BenchRun,
) -> (Vec<(String, f64)>, Vec<String>) {
    let mut raw: Vec<(String, f64)> = Vec::new();
    let mut unmatched = Vec::new();
    for (name, cur) in &current.arms {
        match baseline.arms.iter().find(|(n, _)| n == name) {
            Some((_, base)) => raw.push((name.clone(), base / cur)),
            None => unmatched.push(format!("{name} (current only)")),
        }
    }
    for (name, _) in &baseline.arms {
        if !current.arms.iter().any(|(n, _)| n == name) {
            unmatched.push(format!("{name} (baseline only)"));
        }
    }
    if raw.is_empty() {
        return (raw, unmatched);
    }
    let geomean = (raw.iter().map(|(_, r)| r.ln()).sum::<f64>() / raw.len() as f64).exp();
    (raw.into_iter().map(|(n, r)| (n, r / geomean)).collect(), unmatched)
}

/// Restrict a run to the arms whose names start with `prefix`. Used by
/// `--only`: a partial bench run (one kernel family re-measured) gates
/// just that family, and baseline arms outside the prefix are dropped
/// *before* matching so they produce no "baseline only" noise.
fn filter_arms(run: &mut BenchRun, prefix: &str) {
    run.arms.retain(|(name, _)| name.starts_with(prefix));
}

/// One serve-bench file: open-loop load-generator results.
#[derive(Debug)]
struct ServeRun {
    throughput_rps: f64,
    p99_ns: f64,
}

fn parse_serve_run(path: &str, text: &str) -> Result<ServeRun, String> {
    let json = Json::parse(text).map_err(|e| format!("cannot parse '{path}': {e}"))?;
    let field = |name: &str| -> Result<f64, String> {
        json.get(name)
            .and_then(Json::as_f64)
            .filter(|v| *v > 0.0)
            .ok_or_else(|| format!("'{path}' has no positive '{name}' field"))
    };
    Ok(ServeRun { throughput_rps: field("throughput_rps")?, p99_ns: field("p99_ns")? })
}

/// Compare fresh benchmark JSONs against committed baselines and fail
/// on regression. Three independent gates:
///
/// * `--current <e2e.json>` — the aggregate rollout speedup
///   (threads+cache vs serial) and each arm's serial-normalized
///   speedup, both against `--min-ratio`.
/// * `--kernels <kernels.json>` — every microkernel's geomean-normalized
///   median against `--min-kernel-ratio`, so a failure names the
///   regressed kernel rather than a blended number. `--only <prefix>`
///   restricts the gate to one kernel family.
/// * `--serve <serve.json>` — the serve loop's throughput (floor) and
///   p99 latency (ceiling) against `--min-serve-ratio`.
fn cmd_bench_gate(flags: &Flags) -> Result<(), String> {
    let usage = "usage: mars-cli bench-gate [--current <e2e.json> [--baseline <e2e.json>]] \
                 [--kernels <kernels.json> [--kernels-baseline <kernels.json>] [--only <prefix>]] \
                 [--serve <serve.json> [--serve-baseline <serve.json>]]";
    let current_path = flags.string_opt("current")?;
    let kernels_path = flags.string_opt("kernels")?;
    let serve_path = flags.string_opt("serve")?;
    if current_path.is_none() && kernels_path.is_none() && serve_path.is_none() {
        return Err(usage.into());
    }
    let min_ratio: f64 = flags.parsed("min-ratio", 0.5)?;
    if !(0.0..=1.0).contains(&min_ratio) {
        return Err(format!("invalid value '{min_ratio}' for --min-ratio (expected 0..=1)"));
    }
    let min_kernel_ratio: f64 = flags.parsed("min-kernel-ratio", 0.5)?;
    if !(0.0..=1.0).contains(&min_kernel_ratio) {
        return Err(format!(
            "invalid value '{min_kernel_ratio}' for --min-kernel-ratio (expected 0..=1)"
        ));
    }
    let load = |path: &str| -> Result<BenchRun, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
        parse_bench_run(path, &text)
    };

    if let Some(current_path) = current_path {
        let baseline_path =
            flags.string_opt("baseline")?.unwrap_or_else(|| "BENCH_e2e.json".to_string());
        let baseline = load(&baseline_path)?;
        let current = load(&current_path)?;
        let baseline_speedup = require_speedup(&baseline, &baseline_path)?;
        let current_speedup = require_speedup(&current, &current_path)?;
        if baseline_speedup <= 0.0 {
            return Err(format!(
                "baseline speedup {baseline_speedup} in '{baseline_path}' is not positive"
            ));
        }
        let ratio = current_speedup / baseline_speedup;
        println!(
            "bench gate: current speedup {current_speedup:.3} vs baseline {baseline_speedup:.3} \
             (ratio {ratio:.3}, floor {min_ratio:.3})"
        );
        for (arm, arm_ratio) in bench_arm_ratios(&current, &baseline) {
            println!("bench gate: arm '{arm}' serial-normalized ratio {arm_ratio:.3}");
            if arm_ratio < min_ratio {
                return Err(format!(
                    "benchmark regression in arm '{arm}': serial-normalized speedup ratio \
                     {arm_ratio:.3} fell below the {min_ratio:.3} floor"
                ));
            }
        }
        if ratio < min_ratio {
            return Err(format!(
                "benchmark regression: speedup ratio {ratio:.3} fell below the {min_ratio:.3} \
                 floor"
            ));
        }
    }

    if let Some(kernels_path) = kernels_path {
        let kernels_baseline_path = flags
            .string_opt("kernels-baseline")?
            .unwrap_or_else(|| "BENCH_kernels.json".to_string());
        let mut baseline = load(&kernels_baseline_path)?;
        let mut current = load(&kernels_path)?;
        if let Some(prefix) = flags.string_opt("only")? {
            filter_arms(&mut current, &prefix);
            filter_arms(&mut baseline, &prefix);
            if current.arms.is_empty() {
                return Err(format!(
                    "'{kernels_path}' has no kernel arms matching --only '{prefix}'"
                ));
            }
            println!("bench gate: --only '{prefix}' gates {} kernel arm(s)", current.arms.len());
        }
        let (ratios, unmatched) = bench_kernel_ratios(&current, &baseline);
        if ratios.is_empty() {
            return Err(format!(
                "'{kernels_path}' and '{kernels_baseline_path}' share no kernel names; \
                 nothing was gated"
            ));
        }
        for name in &unmatched {
            println!("bench gate: kernel {name} not compared");
        }
        for (kernel, ratio) in &ratios {
            println!("bench gate: kernel '{kernel}' normalized ratio {ratio:.3}");
        }
        if let Some((kernel, ratio)) =
            ratios.iter().filter(|(_, r)| *r < min_kernel_ratio).min_by(|a, b| a.1.total_cmp(&b.1))
        {
            return Err(format!(
                "benchmark regression in kernel '{kernel}': geomean-normalized median ratio \
                 {ratio:.3} fell below the {min_kernel_ratio:.3} floor"
            ));
        }
    }

    if let Some(serve_path) = serve_path {
        let serve_baseline_path =
            flags.string_opt("serve-baseline")?.unwrap_or_else(|| "BENCH_serve.json".to_string());
        let min_serve_ratio: f64 = flags.parsed("min-serve-ratio", 0.5)?;
        if !(0.0..=1.0).contains(&min_serve_ratio) {
            return Err(format!(
                "invalid value '{min_serve_ratio}' for --min-serve-ratio (expected 0..=1)"
            ));
        }
        let load_serve = |path: &str| -> Result<ServeRun, String> {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
            parse_serve_run(path, &text)
        };
        let baseline = load_serve(&serve_baseline_path)?;
        let current = load_serve(&serve_path)?;
        let throughput_ratio = current.throughput_rps / baseline.throughput_rps;
        // The latency gate is a ceiling, expressed as the same kind of
        // "bigger is better" ratio: p99 may grow at most 1/R.
        let p99_ratio = baseline.p99_ns / current.p99_ns;
        println!(
            "bench gate: serve throughput {:.0} rps vs baseline {:.0} \
             (ratio {throughput_ratio:.3}, floor {min_serve_ratio:.3})",
            current.throughput_rps, baseline.throughput_rps
        );
        println!(
            "bench gate: serve p99 {:.0} ns vs baseline {:.0} \
             (ratio {p99_ratio:.3}, floor {min_serve_ratio:.3})",
            current.p99_ns, baseline.p99_ns
        );
        if throughput_ratio < min_serve_ratio {
            return Err(format!(
                "benchmark regression in serve throughput: ratio {throughput_ratio:.3} fell \
                 below the {min_serve_ratio:.3} floor"
            ));
        }
        if p99_ratio < min_serve_ratio {
            return Err(format!(
                "benchmark regression in serve p99 latency: ratio {p99_ratio:.3} fell below \
                 the {min_serve_ratio:.3} floor"
            ));
        }
    }

    println!("bench gate passed");
    Ok(())
}

/// Run the placement-as-a-service daemon: build (or load) an agent,
/// wrap it in the tiered engine, and serve `PlaceRequest`s until a
/// client sends `Shutdown` (or `--max-requests` is reached).
fn cmd_serve(flags: &Flags) -> Result<(), String> {
    let usage = "usage: mars-cli serve --listen ADDR [--seed N] [--checkpoint <ckpt>] \
                 [--store <placements.jsonl>] [--cache-capacity N] [--max-requests N] \
                 [--devices N] [--profile small|full] [--telemetry <run.jsonl>]";
    let Some(listen) = flags.string_opt("listen")? else { return Err(usage.into()) };
    let addr = Addr::parse(&listen)?;
    let seed: u64 = flags.parsed("seed", 42)?;
    let devices: usize = flags.parsed("devices", Cluster::p100_quad().num_devices())?;
    if devices == 0 {
        return Err("invalid value '0' for --devices (need at least 1)".into());
    }
    let capacity: usize = flags.parsed("cache-capacity", 256)?;
    if capacity == 0 {
        return Err("invalid value '0' for --cache-capacity (need at least 1)".into());
    }
    let cfg = config_from_flags(flags)?;
    let telemetry = install_telemetry(flags)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut agent =
        Agent::new(AgentKind::Mars, cfg, mars::graph::features::FEATURE_DIM, devices, &mut rng);
    if let Some(ckpt) = flags.string_opt("checkpoint")? {
        let n = checkpoint::load_file(&mut agent.store, &ckpt)
            .map_err(|e| format!("cannot load checkpoint '{ckpt}': {e}"))?;
        println!("loaded {n} parameters from {ckpt}");
    }
    let mut engine = PlacementEngine::new(agent, devices, capacity);
    if let Some(store) = flags.string_opt("store")? {
        let (loaded, skipped) = engine
            .attach_store(&store)
            .map_err(|e| format!("cannot open placement store '{store}': {e}"))?;
        println!("placement store {store}: {loaded} entries loaded, {skipped} skipped");
    }
    let max_requests = flags.parsed_opt("max-requests")?;
    let listener = Listener::bind(&addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    println!(
        "serving weights {:016x} on {addr} ({devices}-device policy, cache capacity {capacity})",
        engine.weights_fp()
    );
    let stats = mars::serve::serve(&listener, engine, ServeOptions { max_requests });
    // Joins of a forward in flight are part of `hot`; named only when
    // there were any, so a single-client run prints what it always has.
    let coalesced = match stats.engine.coalesced {
        0 => String::new(),
        n => format!(", {n} of the hot coalesced"),
    };
    // Forwards likewise: named when some cold answer was landed from a
    // graph's memo instead of inferred.
    let forwards = match stats.engine.forwards {
        n if n == stats.engine.miss => String::new(),
        n => format!(", {n} forward(s)"),
    };
    println!(
        "serve loop done: {} connection(s), {} request(s) (hot {}, warm {}, cold {}{coalesced}{forwards})",
        stats.connections, stats.requests, stats.engine.hot, stats.engine.warm, stats.engine.miss
    );
    finish_telemetry(telemetry);
    Ok(())
}

/// Query a running serve daemon and print the ranking. Output is
/// deterministic for fixed inputs — the CI smoke diffs two runs byte
/// for byte. `--repeat N` re-sends the same request and verifies every
/// response matches the first; `--shutdown` stops the daemon after.
fn cmd_place(workload: Workload, profile: Profile, flags: &Flags) -> Result<(), String> {
    let usage = "usage: mars-cli place <workload> --connect ADDR [--top-k K] [--repeat N] \
                 [--fail-device N] [--shutdown] [--profile small|full]";
    let Some(connect) = flags.string_opt("connect")? else { return Err(usage.into()) };
    let addr = Addr::parse(&connect)?;
    let top_k: usize = flags.parsed("top-k", 1)?;
    let repeat: u64 = flags.parsed("repeat", 1)?;
    if repeat == 0 {
        return Err("invalid value '0' for --repeat (need at least 1)".into());
    }
    let mut cluster = Cluster::p100_quad();
    if let Some(dead) = flags.parsed_opt::<usize>("fail-device")? {
        if dead >= cluster.num_devices() {
            return Err(format!(
                "invalid value '{dead}' for --fail-device (cluster has {})",
                cluster.num_devices()
            ));
        }
        cluster.fail_device(dead);
    }
    let mut conn = Conn::connect(&addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    send_msg(&mut conn, &Msg::Hello { version: PROTOCOL_VERSION })?;
    match recv_msg(&mut conn)? {
        Some(Msg::Hello { .. }) => {}
        Some(Msg::Error { message }) => return Err(format!("server rejected us: {message}")),
        other => return Err(format!("unexpected handshake reply: {other:?}")),
    }
    let mut first: Option<(u64, u64, u64, Vec<Vec<usize>>)> = None;
    for unit in 0..repeat {
        let req = Msg::PlaceRequest {
            unit,
            workload: workload.name().into(),
            profile: profile.name().into(),
            cluster: cluster.clone(),
            top_k,
        };
        send_msg(&mut conn, &req)?;
        match recv_msg(&mut conn)? {
            Some(Msg::PlaceResponse { unit: u, graph_fp, cluster_fp, weights_fp, ranking }) => {
                if u != unit {
                    return Err(format!("response unit {u} does not match request {unit}"));
                }
                match &first {
                    None => {
                        println!(
                            "{}/{} on {} device(s): graph_fp={graph_fp:016x} \
                             cluster_fp={cluster_fp:016x} weights_fp={weights_fp:016x}",
                            workload.name(),
                            profile.name(),
                            cluster.num_devices()
                        );
                        for (op, row) in ranking.iter().enumerate() {
                            let devices: Vec<String> = row.iter().map(|d| d.to_string()).collect();
                            println!("op {op:>4}: {}", devices.join(" "));
                        }
                        first = Some((graph_fp, cluster_fp, weights_fp, ranking));
                    }
                    Some(f) => {
                        if *f != (graph_fp, cluster_fp, weights_fp, ranking) {
                            return Err(format!("response {unit} diverged from response 0"));
                        }
                        println!("response {unit} identical to response 0");
                    }
                }
            }
            Some(Msg::Error { message }) => return Err(format!("server error: {message}")),
            other => return Err(format!("unexpected response: {other:?}")),
        }
    }
    if flags.switch("shutdown")? {
        send_msg(&mut conn, &Msg::Shutdown)?;
        match recv_msg(&mut conn)? {
            Some(Msg::Shutdown) => println!("server shutting down"),
            other => return Err(format!("unexpected shutdown reply: {other:?}")),
        }
    }
    Ok(())
}

fn cmd_trace(workload: Workload, profile: Profile, flags: &Flags) -> Result<(), String> {
    let graph = workload.build(profile);
    let cluster = Cluster::p100_quad();
    let name = flags.get("placement").unwrap_or("blocked3");
    let Some(p) = named_placement(name, workload, &graph, &cluster) else {
        return Err(format!("unknown or infeasible placement '{name}'"));
    };
    check_memory(&graph, &p, &cluster).map_err(|e| format!("placement invalid: {e}"))?;
    let (report, trace) = simulate_traced(&graph, &p, &cluster);
    println!(
        "{} under '{name}': {:.3} s/step, comm {:.3} s, {} transfers",
        graph.name, report.makespan_s, report.comm_s, report.num_transfers
    );
    print!("{}", trace.ascii_gantt(cluster.num_devices(), 100));
    for d in 0..cluster.num_devices() {
        println!("dev{d} idle {:.0}%", trace.idle_fraction(d) * 100.0);
    }
    Ok(())
}

fn cmd_evaluate(workload: Workload, profile: Profile, flags: &Flags) -> Result<(), String> {
    let graph = workload.build(profile);
    let cluster = Cluster::p100_quad();
    let name = flags.get("placement").unwrap_or("gpu-only");
    let Some(p) = named_placement(name, workload, &graph, &cluster) else {
        return Err(format!("unknown placement '{name}'"));
    };
    let seed = flags.parsed("seed", 42u64)?;
    let mut env = SimEnv::new(graph, cluster, seed);
    let cfg = config_from_flags(flags)?;
    arm_environment(&mut env, &cfg, flags)?;
    match env.evaluate(&p) {
        EvalOutcome::Valid { per_step_s } => {
            println!("{per_step_s:.4} s/step (15-step protocol, 5 warm-up discarded)")
        }
        EvalOutcome::Bad { cutoff_s } => println!("aborted: exceeded {cutoff_s:.0} s cutoff"),
        EvalOutcome::Invalid { oom } => println!("invalid: {oom}"),
        EvalOutcome::TransientError { attempts, cutoff_s } => {
            println!("transient error: gave up after {attempts} attempts, read as {cutoff_s:.0} s")
        }
        EvalOutcome::Straggler { slowdown, cutoff_s } => {
            println!("straggler (×{slowdown}): aborted, read as {cutoff_s:.0} s")
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: mars-cli <inspect|train|pretrain|trace|dot|evaluate|place> <workload> [--flags]\n       mars-cli metrics summarize <run.jsonl>\n       mars-cli bench-gate --current <bench.json> [--baseline <bench.json>]\n       mars-cli serve --listen ADDR [--flags]\n(see --help in the module docs)";
    match args.first().map(String::as_str) {
        Some("metrics") => {
            return match cmd_metrics(&args[1..]) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => fail(e),
            }
        }
        Some("bench-gate") => {
            return match Flags::parse_for("bench-gate", &args[1..]).and_then(|f| cmd_bench_gate(&f))
            {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => fail(e),
            }
        }
        Some("serve") => {
            return match Flags::parse_for("serve", &args[1..]).and_then(|f| cmd_serve(&f)) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => fail(e),
            }
        }
        _ => {}
    }
    let (Some(cmd), Some(wname)) = (args.first(), args.get(1)) else {
        return fail(usage);
    };
    let Some(workload) = Workload::parse(wname) else {
        return fail(format!("unknown workload '{wname}'"));
    };
    let flags = match Flags::parse_for(cmd, &args[2..]) {
        Ok(flags) => flags,
        Err(e) => return fail(e),
    };
    let profile = match flags.one_of("profile", &["small", "full", "paper"], "small") {
        Ok("full") | Ok("paper") => Profile::Paper,
        Ok(_) => Profile::Reduced,
        Err(e) => return fail(e),
    };
    let result = match cmd.as_str() {
        "inspect" => cmd_inspect(workload, profile),
        "train" => cmd_train(workload, profile, &flags),
        "pretrain" => cmd_pretrain(workload, profile, &flags),
        "trace" => cmd_trace(workload, profile, &flags),
        "evaluate" => cmd_evaluate(workload, profile, &flags),
        "place" => cmd_place(workload, profile, &flags),
        "dot" => flags.parsed("max-nodes", usize::MAX).map(|max_nodes| {
            print!("{}", to_dot(&workload.build(profile), max_nodes));
        }),
        other => Err(format!("unknown command '{other}'\n{usage}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench_json(serial_ns: f64, threads_ns: f64) -> String {
        format!(
            r#"{{"benchmarks":[
                {{"name":"rollout_e2e/serial_nocache","iters":6,"median_ns":{serial_ns}}},
                {{"name":"rollout_e2e/threads4_cache","iters":6,"median_ns":{threads_ns}}}],
                "speedup":{}}}"#,
            serial_ns / threads_ns
        )
    }

    #[test]
    fn arm_ratios_are_serial_normalized_and_skip_serial() {
        // The current run is uniformly 10× faster in wall-clock than
        // the baseline (fewer rounds), but every arm kept its speedup
        // over serial — so every normalized ratio is exactly 1.
        let baseline = parse_bench_run("b", &bench_json(1000.0, 500.0)).expect("baseline");
        let current = parse_bench_run("c", &bench_json(100.0, 50.0)).expect("current");
        let ratios = bench_arm_ratios(&current, &baseline);
        assert_eq!(ratios.len(), 1, "serial arm must be skipped: {ratios:?}");
        for (arm, ratio) in &ratios {
            assert!((ratio - 1.0).abs() < 1e-12, "{arm}: {ratio}");
        }
    }

    #[test]
    fn regressed_arm_is_named() {
        let baseline = parse_bench_run("b", &bench_json(1000.0, 500.0)).expect("baseline");
        // The threads arm got slower than serial.
        let current = parse_bench_run("c", &bench_json(1000.0, 4000.0)).expect("current");
        let ratios = bench_arm_ratios(&current, &baseline);
        let threads = ratios.iter().find(|(arm, _)| arm.contains("threads")).expect("threads arm");
        assert!(threads.1 < 0.5, "threads regression must show: {ratios:?}");
    }

    #[test]
    fn missing_serial_arm_disables_per_arm_checks() {
        let no_serial = r#"{"benchmarks":[{"name":"only_arm","median_ns":10.0}],"speedup":1.0}"#;
        let run = parse_bench_run("p", no_serial).expect("parses");
        assert!(bench_arm_ratios(&run, &run).is_empty());
    }

    #[test]
    fn malformed_bench_files_are_rejected() {
        let e = parse_bench_run("p", r#"{"benchmarks":[],"speedup":1.0}"#).expect_err("empty");
        assert!(e.contains("no benchmark samples"), "{e}");
        let e = parse_bench_run("p", r#"{"benchmarks":[{"name":"a","median_ns":0}],"speedup":1}"#)
            .expect_err("zero median");
        assert!(e.contains("'a'"), "{e}");
    }

    #[test]
    fn kernel_files_parse_without_a_speedup_field() {
        let run = parse_bench_run("k", r#"{"benchmarks":[{"name":"matmul/256","median_ns":5.0}]}"#)
            .expect("kernel baselines carry no aggregate speedup");
        assert_eq!(run.speedup, None);
        assert!(require_speedup(&run, "k").expect_err("absent").contains("'k'"));
    }

    fn kernel_json(arms: &[(&str, f64)]) -> BenchRun {
        let body: Vec<String> =
            arms.iter().map(|(n, m)| format!(r#"{{"name":"{n}","median_ns":{m}}}"#)).collect();
        parse_bench_run("k", &format!(r#"{{"benchmarks":[{}]}}"#, body.join(","))).expect("parses")
    }

    #[test]
    fn kernel_ratios_cancel_uniform_machine_speed() {
        // The current run is uniformly 3× slower (a slower CI box) —
        // after geomean normalization every kernel's ratio is exactly 1.
        let baseline = kernel_json(&[("matmul/256", 100.0), ("softmax/4096", 10.0)]);
        let current = kernel_json(&[("matmul/256", 300.0), ("softmax/4096", 30.0)]);
        let (ratios, unmatched) = bench_kernel_ratios(&current, &baseline);
        assert!(unmatched.is_empty());
        for (k, r) in &ratios {
            assert!((r - 1.0).abs() < 1e-12, "{k}: {r}");
        }
    }

    #[test]
    fn regressed_kernel_falls_below_its_peers() {
        let baseline = kernel_json(&[("matmul/256", 100.0), ("softmax/4096", 10.0)]);
        // matmul regressed 4× while softmax held: normalized ratios
        // split around the geomean, with matmul on the losing side.
        let current = kernel_json(&[("matmul/256", 400.0), ("softmax/4096", 10.0)]);
        let (ratios, _) = bench_kernel_ratios(&current, &baseline);
        let matmul = ratios.iter().find(|(k, _)| k == "matmul/256").expect("gated");
        let softmax = ratios.iter().find(|(k, _)| k == "softmax/4096").expect("gated");
        assert!(matmul.1 < 0.55, "regressed kernel must stand out: {ratios:?}");
        assert!(softmax.1 > 1.5, "healthy kernel sits above the geomean: {ratios:?}");
    }

    #[test]
    fn only_prefix_drops_out_of_family_baseline_arms_without_noise() {
        // A partial re-run measured only the matmul family; the
        // committed baseline still carries other kernels. With --only,
        // those extra baseline arms are filtered out before matching,
        // so nothing is reported as "baseline only".
        let mut baseline =
            kernel_json(&[("matmul/256", 100.0), ("softmax/4096", 10.0), ("lstm/64", 50.0)]);
        let mut current = kernel_json(&[("matmul/256", 100.0)]);
        filter_arms(&mut current, "matmul");
        filter_arms(&mut baseline, "matmul");
        let (ratios, unmatched) = bench_kernel_ratios(&current, &baseline);
        assert_eq!(ratios.len(), 1, "{ratios:?}");
        assert!(unmatched.is_empty(), "out-of-prefix arms must not be noise: {unmatched:?}");
    }

    #[test]
    fn serve_runs_parse_and_reject_missing_fields() {
        let run = parse_serve_run(
            "s",
            r#"{"throughput_rps":1200.5,"p50_ns":80000,"p99_ns":410000,"requests":256}"#,
        )
        .expect("parses");
        assert!((run.throughput_rps - 1200.5).abs() < 1e-9);
        assert!((run.p99_ns - 410000.0).abs() < 1e-9);
        let e = parse_serve_run("s", r#"{"throughput_rps":1200.5}"#).expect_err("no p99");
        assert!(e.contains("p99_ns"), "{e}");
        let e = parse_serve_run("s", r#"{"throughput_rps":0,"p99_ns":1}"#).expect_err("zero");
        assert!(e.contains("throughput_rps"), "{e}");
    }

    #[test]
    fn unmatched_kernels_are_reported_not_gated() {
        let baseline = kernel_json(&[("matmul/256", 100.0), ("retired/old", 5.0)]);
        let current = kernel_json(&[("matmul/256", 100.0), ("softmax/4096", 10.0)]);
        let (ratios, unmatched) = bench_kernel_ratios(&current, &baseline);
        assert_eq!(ratios.len(), 1, "{ratios:?}");
        assert!(unmatched.iter().any(|n| n.contains("softmax/4096") && n.contains("current only")));
        assert!(unmatched.iter().any(|n| n.contains("retired/old") && n.contains("baseline only")));
    }
}
