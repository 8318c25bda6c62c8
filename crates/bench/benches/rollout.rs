//! End-to-end benchmark of the parallel rollout engine: PPO-shaped
//! evaluation rounds through [`SimEnv::evaluate_batch`], comparing the
//! serial/no-cache path against `--eval-threads 4` + memo cache, plus a
//! real smoke-train comparison. Writes the `BENCH_e2e.json` perf
//! baseline at the repo root.
//!
//! # What the rounds look like
//!
//! Placement-eval memoization only pays when the sampler re-draws a
//! placement it has seen. Early PPO training samples from a diffuse
//! policy over an astronomically large action space (`D^N`), where
//! exact repeats essentially never happen; the paper's acceleration
//! claim lives in the *converging* regime, where the policy peaks and
//! keeps re-emitting its favorite placements (§4's
//! samples-to-convergence comparison). The round generator models that
//! trajectory explicitly: round `r`'s resample probability ramps from
//! 0 (fully explorative, all fresh placements) to 0.9 (near-converged,
//! mostly re-drawing from the pool of previously sampled placements).
//! The realized cache hit rate is recorded in the JSON — nothing about
//! the workload shape is hidden.
//!
//! Both arms — serial and threads+cache — are asserted bit-identical
//! (outcomes and simulated machine-seconds) every repetition: the
//! engine may only change wall-clock.

use mars_bench::harness::{write_baseline, BenchOpts, Sample};
use mars_core::agent::{Agent, AgentKind, TrainingLog};
use mars_core::config::MarsConfig;
use mars_core::workload_input::WorkloadInput;
use mars_graph::features::FEATURE_DIM;
use mars_graph::generators::{Profile, Workload};
use mars_json::Json;
use mars_rng::rngs::StdRng;
use mars_rng::{Rng, SeedableRng};
use mars_sim::{Cluster, Environment, EvalOutcome, Placement, SimEnv};
use std::time::{Duration, Instant};

const SEED: u64 = 42;
const SAMPLES_PER_ROUND: usize = 20;

/// PPO-shaped rounds with a convergence schedule: the probability of
/// re-drawing an already-sampled placement ramps 0 → 0.9 across rounds.
fn make_rounds(graph_w: Workload, profile: Profile, rounds: usize) -> Vec<Vec<Placement>> {
    let graph = graph_w.build(profile);
    let cluster = Cluster::p100_quad();
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x5011_0e75);
    let mut pool: Vec<Placement> = Vec::new();
    let mut out = Vec::with_capacity(rounds);
    for r in 0..rounds {
        let resample_p = 0.9 * r as f64 / (rounds.max(2) - 1) as f64;
        let mut round = Vec::with_capacity(SAMPLES_PER_ROUND);
        for _ in 0..SAMPLES_PER_ROUND {
            let redraw = !pool.is_empty() && (rng.gen::<f64>()) < resample_p;
            let p = if redraw {
                pool[rng.gen_range(0..pool.len())].clone()
            } else {
                let p = Placement::random(&graph, &cluster, &mut rng);
                pool.push(p.clone());
                p
            };
            round.push(p);
        }
        out.push(round);
    }
    out
}

struct ArmResult {
    wall: Duration,
    outcomes: Vec<EvalOutcome>,
    machine_bits: u64,
    hit_rate: f64,
}

fn run_arm(
    graph_w: Workload,
    profile: Profile,
    rounds: &[Vec<Placement>],
    threads: usize,
    cache: bool,
) -> ArmResult {
    let mut env = SimEnv::new(graph_w.build(profile), Cluster::p100_quad(), SEED);
    env.set_eval_threads(threads);
    env.set_cache_enabled(cache);
    let t0 = Instant::now();
    let mut outcomes = Vec::new();
    for round in rounds {
        outcomes.extend(env.evaluate_batch(round));
    }
    ArmResult {
        wall: t0.elapsed(),
        outcomes,
        machine_bits: env.machine_seconds().to_bits(),
        hit_rate: env.cache_hit_rate().unwrap_or(0.0),
    }
}

fn percentile_sample(name: &str, mut times: Vec<Duration>) -> Sample {
    times.sort_unstable();
    Sample {
        name: name.to_string(),
        iters: times.len() as u32,
        median: times[times.len() / 2],
        mean: times.iter().sum::<Duration>() / times.len() as u32,
        p10: times[times.len() / 10],
        p90: times[(times.len() * 9 / 10).min(times.len() - 1)],
    }
}

/// Real smoke train, serial/no-cache vs threads+cache; returns the two
/// wall times after asserting the training traces are bit-identical.
fn smoke_train(threads: usize, cache: bool) -> (Duration, TrainingLog) {
    let graph = Workload::InceptionV3.build(Profile::Reduced);
    let input = WorkloadInput::from_graph(&graph);
    let cluster = Cluster::p100_quad();
    let mut cfg = MarsConfig::small();
    cfg.encoder_hidden = 16;
    cfg.placer_hidden = 16;
    cfg.attn_dim = 8;
    cfg.segment_size = 24;
    cfg.dgi_iters = 0;
    cfg.eval_threads = threads;
    cfg.eval_cache = cache;
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut agent = Agent::new(AgentKind::Mars, cfg, FEATURE_DIM, cluster.num_devices(), &mut rng);
    let mut env = SimEnv::new(graph, cluster, SEED);
    env.set_eval_threads(threads);
    env.set_cache_enabled(cache);
    let mut log = TrainingLog::default();
    let t0 = Instant::now();
    agent.train(&mut env, &input, 100, &mut rng, &mut log);
    (t0.elapsed(), log)
}

fn trace_bits(log: &TrainingLog) -> Vec<(usize, Option<u64>, u64)> {
    log.records
        .iter()
        .map(|r| (r.samples_so_far, r.best_so_far_s.map(f64::to_bits), r.machine_s.to_bits()))
        .collect()
}

fn main() {
    let opts = BenchOpts::from_args();
    opts.install_telemetry();
    let (workload, profile) = (Workload::Gnmt4, Profile::Paper);
    let (rounds_n, reps) = if opts.smoke { (6, 1) } else { (40, 7) };
    let rounds = make_rounds(workload, profile, rounds_n);
    let evals: usize = rounds.iter().map(Vec::len).sum();

    let mut serial_times = Vec::new();
    let mut engine_times = Vec::new();
    let mut hit_rate = 0.0;
    for rep in 0..=reps {
        let serial = run_arm(workload, profile, &rounds, 1, false);
        let engine = run_arm(workload, profile, &rounds, 4, true);
        assert_eq!(
            serial.outcomes, engine.outcomes,
            "parallel+cached rollout must be observably identical to serial"
        );
        assert_eq!(serial.machine_bits, engine.machine_bits, "machine-seconds must match bitwise");
        if rep > 0 || opts.smoke {
            // rep 0 is warm-up in measured mode.
            serial_times.push(serial.wall);
            engine_times.push(engine.wall);
            hit_rate = engine.hit_rate;
        }
        if opts.smoke {
            break;
        }
    }
    println!(
        "rollout rounds on {}/{profile:?}: {evals} evals, cache hit rate {:.1}%",
        workload.name(),
        hit_rate * 100.0
    );

    let (train_serial, log_serial) = smoke_train(1, false);
    let (train_engine, log_engine) = smoke_train(4, true);
    assert_eq!(
        trace_bits(&log_serial),
        trace_bits(&log_engine),
        "smoke train must be bit-identical across engine configurations"
    );
    println!(
        "smoke train (inception, 100 evals): serial {:.3}s, engine {:.3}s (bit-identical traces)",
        train_serial.as_secs_f64(),
        train_engine.as_secs_f64()
    );

    if opts.smoke {
        // One-rep measurement for the CI bench gate: too noisy to be a
        // committed baseline, but enough to catch an order-of-magnitude
        // regression via `mars-cli bench-gate` with a loose floor. The
        // gate requires a non-empty `benchmarks` array, so the one-rep
        // samples are recorded too.
        let serial_s = serial_times[0].as_secs_f64();
        let engine_s = engine_times[0].as_secs_f64().max(1e-12);
        let samples = [
            percentile_sample("rollout_e2e/serial_nocache", serial_times),
            percentile_sample("rollout_e2e/threads4_cache", engine_times),
        ];
        let smoke = Json::obj([
            ("benchmarks", Json::arr(samples.iter().map(Sample::to_json))),
            ("speedup", Json::from(serial_s / engine_s)),
            ("cache_hit_rate", Json::from(hit_rate)),
            ("smoke", Json::from(true)),
        ]);
        // Anchor at the workspace root (cargo runs benches from the
        // package dir), same as `write_baseline`.
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments");
        let _ = std::fs::create_dir_all(&dir);
        match std::fs::write(dir.join("BENCH_e2e_smoke.json"), format!("{smoke}\n")) {
            Ok(()) => {
                println!("(smoke baseline written to target/experiments/BENCH_e2e_smoke.json)")
            }
            Err(e) => eprintln!("cannot write smoke baseline: {e}"),
        }
        println!("rollout smoke ok");
        opts.finish();
        return;
    }

    let serial = percentile_sample("rollout_e2e/serial_nocache", serial_times);
    let engine = percentile_sample("rollout_e2e/threads4_cache", engine_times);
    let speedup = serial.median.as_secs_f64() / engine.median.as_secs_f64().max(1e-12);
    println!(
        "rollout engine: serial {:?} vs threads4+cache {:?} → {speedup:.2}x",
        serial.median, engine.median
    );
    let extra = [
        ("speedup", Json::from(speedup)),
        ("cache_hit_rate", Json::from(hit_rate)),
        ("rounds", Json::from(rounds_n as f64)),
        ("samples_per_round", Json::from(SAMPLES_PER_ROUND as f64)),
        ("workload", Json::from(format!("{}/{profile:?}", workload.name()))),
        (
            "smoke_train",
            Json::obj([
                ("serial_s", Json::from(train_serial.as_secs_f64())),
                ("engine_s", Json::from(train_engine.as_secs_f64())),
                (
                    "speedup",
                    Json::from(train_serial.as_secs_f64() / train_engine.as_secs_f64().max(1e-12)),
                ),
            ]),
        ),
    ];
    write_baseline("BENCH_e2e.json", &[serial, engine], &extra);
    opts.finish();
}
