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
//! mars-cli serve --listen ADDR [options]            placement-as-a-service daemon
//! mars-cli place <workload> --connect ADDR [opts]   query a running serve daemon
//!
//! workloads:  inception | gnmt | bert | vgg | seq2seq | transformer
//! placements: human | gpu-only | rr2 | rr4 | blocked2 | blocked3 | blocked4 | mincut
//! train options: --agent mars|mars-nopre|grouper|encoder   --budget N
//!                --seed N   --profile small|full   --save <ckpt-path>
//!                --telemetry <run.jsonl>   --dgi-iters N (≥ 1; mars only)
//!                --fault-plan <spec>
//!                (the kernel backend is picked by the MARS_KERNEL env
//!                 var: scalar | simd | auto — see DESIGN.md)
//! evaluate:      --placement <name>   --seed N   --profile small|full
//!                --fault-plan <spec>
//! metrics tail:  --lines N (default 20, 0 = all)   --follow
//! serve options: --listen ADDR          bind (host:port or unix:<path>)
//!                --seed N   --checkpoint <ckpt>   --store <placements.jsonl>
//!                --profile small|full   --telemetry <run.jsonl>
//!                (a 5-device policy, the one `train` checkpoints and
//!                 `place` queries use, behind a 256-entry hot cache)
//! place options: --connect ADDR   --top-k K   --repeat N   --shutdown
//!                --profile small|full   --fail-device N
//! ```
//!
//! A command the table does not list, or a flag the command does not
//! read, is refused before any work starts (`unknown command 'tarin'`,
//! `unknown flag --bugdet for 'train'`; the table is
//! `mars::cli::COMMAND_FLAGS`), so a typo cannot run as a no-op.
//!
//! `--telemetry <path>` records a JSONL event stream (per-iteration DGI
//! loss, per-update PPO diagnostics, per-evaluation simulator readings,
//! and a span-tree profile of the hot kernels); inspect it afterwards
//! with `mars-cli metrics summarize <path>`. `metrics tail --follow`
//! renders records live as the run writes them (it exits when the
//! end-of-run summary records appear); `metrics flame` folds span
//! self-times into collapsed-stack lines (under a `learner` root
//! frame) ready for `flamegraph.pl` or inferno, and prints the top
//! self-time kernels on stderr so stdout stays pipeable.
//!
//! `--fault-plan` fails devices of the simulated cluster at fixed
//! evaluation indices (see `mars_sim::FaultPlan::parse`): `fail:2@50`
//! kills device 2 before evaluation 50, and later placements are
//! remapped off it. Clauses are comma-separated. Same seed + same plan
//! reproduces the run bit for bit.

use mars::cli::{fail, Flags, COMMAND_FLAGS};
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

/// Resolve `--profile` and `--dgi-iters` into a [`MarsConfig`]. Shared
/// by `train`, `pretrain` and `serve`.
fn config_from_flags(flags: &Flags) -> Result<MarsConfig, String> {
    let mut cfg = match flags.one_of("profile", &["small", "full", "paper"], "small")? {
        "full" | "paper" => MarsConfig::paper(),
        _ => MarsConfig::small(),
    };
    if let Some(iters) = flags.parsed_opt("dgi-iters")? {
        if iters == 0 {
            return Err("invalid value '0' for --dgi-iters (must be at least 1)".into());
        }
        cfg.dgi_iters = iters;
    }
    Ok(cfg)
}

/// Parse and validate `--fault-plan` against the cluster and install
/// it on the environment. Shared by `train` and `evaluate`.
fn arm_environment(env: &mut SimEnv, flags: &Flags) -> Result<(), String> {
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
    if kind != AgentKind::Mars && flags.get("dgi-iters").is_some() {
        return Err(format!(
            "--dgi-iters is read only by --agent mars: {} has no DGI pre-training",
            kind.label()
        ));
    }
    let budget: usize = flags.parsed("budget", 400)?;
    let seed: u64 = flags.parsed("seed", 42)?;
    let cfg = config_from_flags(flags)?;
    let telemetry = install_telemetry(flags)?;

    let graph = workload.build(profile);
    let input = WorkloadInput::from_graph(&graph);
    let mut env = SimEnv::new(graph, Cluster::p100_quad(), seed);
    arm_environment(&mut env, flags)?;
    let devices = env.cluster().num_devices();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut agent = Agent::new(kind, cfg, mars::graph::features::FEATURE_DIM, devices, &mut rng);
    if kind == AgentKind::Mars {
        println!("DGI pre-training…");
        if let Some(report) = agent.pretrain(&input, &mut rng) {
            println!("  loss {:.4} → {:.4}", report.losses[0], report.best_loss);
        }
    }
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
    if let Some(report) = summary.arena_report() {
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

/// Run the placement-as-a-service daemon: build (or load) an agent,
/// wrap it in the tiered engine, and serve `PlaceRequest`s until a
/// client sends `Shutdown`.
fn cmd_serve(flags: &Flags) -> Result<(), String> {
    let usage = "usage: mars-cli serve --listen ADDR [--seed N] [--checkpoint <ckpt>] \
                 [--store <placements.jsonl>] [--profile small|full] [--telemetry <run.jsonl>]";
    let Some(listen) = flags.string_opt("listen")? else { return Err(usage.into()) };
    let addr = Addr::parse(&listen)?;
    let seed: u64 = flags.parsed("seed", 42)?;
    let devices = Cluster::p100_quad().num_devices();
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
    let mut engine = PlacementEngine::new(agent, devices, 256);
    if let Some(store) = flags.string_opt("store")? {
        let (loaded, skipped) = engine
            .attach_store(&store)
            .map_err(|e| format!("cannot open placement store '{store}': {e}"))?;
        println!("placement store {store}: {loaded} entries loaded, {skipped} skipped");
    }
    let listener = Listener::bind(&addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    println!("serving weights {:016x} on {addr}", engine.weights_fp());
    let stats = mars::serve::serve(&listener, engine, ServeOptions);
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
    arm_environment(&mut env, flags)?;
    match env.evaluate(&p) {
        EvalOutcome::Valid { per_step_s } => {
            println!("{per_step_s:.4} s/step (15-step protocol, 5 warm-up discarded)")
        }
        EvalOutcome::Bad { cutoff_s } => println!("aborted: exceeded {cutoff_s:.0} s cutoff"),
        EvalOutcome::Invalid { oom } => println!("invalid: {oom}"),
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: mars-cli <inspect|train|pretrain|trace|dot|evaluate|place> <workload> [--flags]\n       mars-cli metrics summarize <run.jsonl>\n       mars-cli serve --listen ADDR [--flags]\n(see --help in the module docs)";
    match args.first().map(String::as_str) {
        Some("metrics") => {
            return match cmd_metrics(&args[1..]) {
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
    let Some(cmd) = args.first() else { return fail(usage) };
    // `COMMAND_FLAGS` lists every command: a removed or mistyped one is
    // named as a command before its next word is read as a workload.
    if !COMMAND_FLAGS.iter().any(|(c, _)| *c == cmd.as_str()) {
        return fail(format!("unknown command '{cmd}'\n{usage}"));
    }
    let Some(wname) = args.get(1) else { return fail(usage) };
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
