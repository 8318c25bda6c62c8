//! The two training workloads: `train_gnmt4` (DGI then PPO on the
//! paper-granularity GNMT graph, the sequence `mars-cli train` runs)
//! and `pretrain_corpus` (DGI at the paper's encoder width over all
//! eight graphs).

use crate::report::{median, median_of, tail, Run};
use crate::trace::{fnv_hex, peak_rss_mb, Rollup};
use crate::Opts;
use mars_core::agent::TrainingLog;
use mars_core::baselines::human_expert;
use mars_core::{Agent, AgentKind, MarsConfig, WorkloadInput};
use mars_graph::features::FEATURE_DIM;
use mars_graph::generators::{Profile, Workload};
use mars_graph::CompGraph;
use mars_rng::rngs::StdRng;
use mars_rng::SeedableRng;
use mars_sim::{Cluster, Environment, EvalOutcome, Placement, SimEnv};
use mars_telemetry::enable_spans;
use std::time::{Duration, Instant};

/// Work per `--seconds`, measured on the 2-core reference box at the
/// commit that introduced the ledger. They only turn `--seconds` into
/// an amount of work, so that the work is a function of the arguments
/// alone: a faster program finishes the same work sooner, and the same
/// seed gives the same trace on every commit.
const TRAIN_EVALS_PER_S: f64 = 70.0;
const DGI_ITERS_PER_S: f64 = 6.5;

/// `SimEnv` behind a stopwatch: the ledger's span around `sim`.
struct TimedEnv {
    inner: SimEnv,
    busy: Duration,
    evals: usize,
}

impl Environment for TimedEnv {
    fn evaluate(&mut self, placement: &Placement) -> EvalOutcome {
        self.evaluate_batch(std::slice::from_ref(placement)).remove(0)
    }
    fn evaluate_batch(&mut self, placements: &[Placement]) -> Vec<EvalOutcome> {
        let t0 = Instant::now();
        let out = self.inner.evaluate_batch(placements);
        self.busy += t0.elapsed();
        self.evals += placements.len();
        out
    }
    fn graph(&self) -> &CompGraph {
        self.inner.graph()
    }
    fn cluster(&self) -> &Cluster {
        self.inner.cluster()
    }
    fn machine_seconds(&self) -> f64 {
        self.inner.machine_seconds()
    }
    fn evaluations(&self) -> usize {
        self.inner.evaluations()
    }
    fn take_crash(&mut self) -> bool {
        self.inner.take_crash()
    }
}

/// Set-up is cheap and noisy, so it is repeated after the run and the
/// medians of its time and of its graph-building part are reported.
/// After, because peak RSS should belong to one set-up and one run.
fn repeat_set_up(o: &Opts, first: (f64, f64), mut again: impl FnMut() -> (f64, f64)) -> (f64, f64) {
    let (mut setup_s, mut build_ms) = (vec![first.0], vec![first.1]);
    for _ in 1..o.setup_reps() {
        let (s, b) = again();
        setup_s.push(s);
        build_ms.push(b);
    }
    (median(&setup_s), median(&build_ms))
}

/// Shares of the traced time by crate, so the README's claim about
/// which layer does most and least work can be read off any run.
fn note_layer_shares(run: &mut Run, spans: &Rollup) {
    let layers = ["tensor.", "autograd.", "nn.", "sim.", "core."];
    let total: f64 = layers.iter().map(|l| spans.layer_self_s(l)).sum();
    let shares: Vec<String> = layers
        .iter()
        .map(|l| format!("{}{:.1}%", l, 100.0 * spans.layer_self_s(l) / total.max(1e-12)))
        .collect();
    run.note("layer_self_time_shares", shares.join(" "));
}

pub fn train_gnmt4(o: &Opts) -> Run {
    let mut run = Run::default();
    let mut cfg = MarsConfig::small();
    let per_round = cfg.samples_per_update;
    let evals = if o.smoke {
        cfg.dgi_iters = 4;
        2 * per_round
    } else {
        per_round * ((o.seconds * TRAIN_EVALS_PER_S / per_round as f64).round() as usize).max(2)
    };

    // Set-up: what a caller does before `pretrain`.
    let set_up = || {
        let t0 = Instant::now();
        let graph = Workload::Gnmt4.build(Profile::Paper);
        let input = WorkloadInput::from_graph(&graph);
        let build_ms = t0.elapsed().as_secs_f64() * 1e3;
        let cluster = Cluster::p100_quad();
        let mut rng = StdRng::seed_from_u64(o.seed);
        let agent =
            Agent::new(AgentKind::Mars, cfg.clone(), FEATURE_DIM, cluster.num_devices(), &mut rng);
        let env = SimEnv::new(graph.clone(), cluster.clone(), o.seed);
        ((graph, input, cluster, rng, agent, env), t0.elapsed().as_secs_f64(), build_ms)
    };
    let ((graph, input, cluster, mut rng, mut agent, env), first_setup_s, first_build_ms) =
        set_up();

    // The quality target of Fig. 8: the expert placement's noise-free
    // step time.
    let expert = human_expert(Workload::Gnmt4, &graph, &cluster);
    let target = env.true_step_time(&expert).map(|r| r.makespan_s);
    run.check(target.is_ok(), || "the expert placement does not fit the cluster".into());
    let target = target.unwrap_or(f64::INFINITY);

    enable_spans(o.traced);
    let t0 = Instant::now();
    let report = agent.pretrain(&input, &mut rng).expect("Mars agents have a GCN encoder");
    let pretrain_wall_s = t0.elapsed().as_secs_f64();
    enable_spans(false);

    // A traced run first trains a few rounds with spans off, so that
    // it carries its own untraced reference for `trace.overhead_ratio`.
    // Training continues from the same log, agent and generator, so
    // the trace is the one an untraced run of this seed produces.
    let mut env = TimedEnv { inner: env, busy: Duration::ZERO, evals: 0 };
    let mut log = TrainingLog::default();
    let reference_evals =
        if o.traced { (evals / 4).max(per_round) / per_round * per_round } else { 0 };
    if reference_evals > 0 {
        agent.train(&mut env, &input, reference_evals, &mut rng, &mut log);
    }
    let (reference_busy, reference_hits) = (env.busy, env.inner.cache_stats().map_or(0, |c| c.0));
    enable_spans(o.traced);
    agent.train(&mut env, &input, evals, &mut rng, &mut log);
    enable_spans(false);
    let spans = Rollup::capture();

    run.set("peak_rss_mb", peak_rss_mb());
    let (setup_s, build_ms) = repeat_set_up(o, (first_setup_s, first_build_ms), || {
        let (_, s, b) = set_up();
        (s, b)
    });
    run.set("setup_s", setup_s);
    run.set("graph.build.ms", build_ms);

    // Checks: the budget was spent, the rounds are whole, and the best
    // placement is valid on an environment that never saw it.
    run.attempted = (evals / per_round) as u64;
    run.check(log.total_samples == evals, || {
        format!("trained {} evaluations, asked for {evals}", log.total_samples)
    });
    run.check(env.evals == evals, || format!("the environment saw {} evaluations", env.evals));
    let mut round_ms = Vec::with_capacity(log.records.len());
    let mut prev_wall = 0.0;
    for (i, r) in log.records.iter().enumerate() {
        let whole = r.samples_so_far == (i + 1) * per_round && r.agent_wall_s >= prev_wall;
        run.failed += u64::from(!whole);
        round_ms.push((r.agent_wall_s - prev_wall) * 1e3);
        prev_wall = r.agent_wall_s;
    }
    run.failed += run.attempted.saturating_sub(log.records.len() as u64);
    let mut fresh = SimEnv::new(graph.clone(), cluster.clone(), o.seed ^ 0x5eed);
    let best_valid = log.best_placement.as_ref().is_some_and(|p| fresh.evaluate(p).is_valid());
    run.check(best_valid, || "the best placement is not valid on a fresh environment".into());
    run.check(report.losses.iter().all(|l| l.is_finite()), || "a DGI loss is not finite".into());

    let timed = &round_ms[reference_evals / per_round..];
    let mut sorted = timed.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (tail_ms, tail_pct) = tail(&sorted);
    let timed_wall_s: f64 = timed.iter().sum::<f64>() * 1e-3;
    run.set("ops_per_s", (timed.len() * per_round) as f64 / timed_wall_s);
    run.set("op_p50_ms", median(timed));
    run.set("op_tail_ms", tail_ms);
    run.note("op", format!("one PPO round of {per_round} placement evaluations"));
    run.note("op_samples", timed.len());
    run.note("op_tail_percentile", format!("p{tail_pct:.1}"));
    run.note("evaluations", evals);

    // Quality, reported beside the speed: evaluations and wall time
    // until the best reading reached the target. They depend on the
    // seed far more than on the code, so they carry no bound.
    let reached = log.records.iter().find(|r| r.best_so_far_s.is_some_and(|b| b <= target));
    run.set("core.train.target_step_s", target);
    run.set("core.train.best_step_s", log.best_reading_s.unwrap_or(f64::NAN));
    run.set("core.train.target_reached", f64::from(u8::from(reached.is_some())));
    run.set("core.train.evals_to_target", reached.map_or(evals, |r| r.samples_so_far) as f64);
    run.set(
        "core.train.time_to_target_s",
        pretrain_wall_s + reached.map_or(log.train_wall_s, |r| r.agent_wall_s),
    );

    run.note(
        "training_trace_fnv",
        fnv_hex(log.records.iter().flat_map(|r| {
            [
                r.samples_so_far as u64,
                r.best_so_far_s.map_or(0, f64::to_bits),
                r.machine_s.to_bits(),
            ]
        })),
    );
    run.note("dgi_loss_fnv", fnv_hex(report.losses.iter().map(|l| u64::from(l.to_bits()))));

    run.set("core.pretrain.busy_s", pretrain_wall_s);
    // The ledger's own boundary around `sim`, over the timed rounds.
    let sim_busy_s = (env.busy - reference_busy).as_secs_f64();
    let sim_evals = env.evals - reference_evals;
    let hits = env.inner.cache_stats().map_or(0, |c| c.0) - reference_hits;
    run.set("core.train.self_s", timed_wall_s - sim_busy_s);
    run.set("sim.evaluate_batch.busy_s", sim_busy_s);
    run.set("sim.evaluate_batch.evals", sim_evals as f64);
    run.set("sim.cache.hit_ratio", hits as f64 / sim_evals as f64);
    if o.traced {
        spans.report(&mut run);
        note_layer_shares(&mut run, &spans);
        let reference = median(&round_ms[..reference_evals / per_round]);
        run.set("trace.overhead_ratio", median(timed) / reference);
        run.set(
            "core.policy_forward.ms",
            median_of(20, 1e3, |_| {
                std::hint::black_box(agent.policy_probs(&input));
            }),
        );
    }
    run
}

pub fn pretrain_corpus(o: &Opts) -> Run {
    let mut run = Run::default();
    // The corpus is pre-trained `passes` times from the same seeds, so
    // every pass does the same arithmetic, and each graph's time is the
    // median of its passes: a moment in which the box was busy with
    // something else moves one pass, not the result.
    let passes = if o.smoke { 1 } else { 3 };
    let mut cfg = MarsConfig::small();
    cfg.encoder_hidden = 256;
    cfg.encoder_layers = 3;
    cfg.dgi_iters = if o.smoke {
        4
    } else {
        ((o.seconds * DGI_ITERS_PER_S / passes as f64).round() as usize).max(8)
    };
    let iters = cfg.dgi_iters;
    let devices = Cluster::p100_quad().num_devices();

    let set_up = || {
        let t0 = Instant::now();
        let inputs: Vec<WorkloadInput> = Workload::ALL
            .iter()
            .map(|w| WorkloadInput::from_graph(&w.build(Profile::Paper)))
            .collect();
        let build_ms = t0.elapsed().as_secs_f64() * 1e3;
        let corpus: Vec<(WorkloadInput, Agent, StdRng)> = inputs
            .into_iter()
            .enumerate()
            .map(|(i, input)| {
                let mut rng = StdRng::seed_from_u64(o.seed.wrapping_add(i as u64));
                let agent =
                    Agent::new(AgentKind::Mars, cfg.clone(), FEATURE_DIM, devices, &mut rng);
                (input, agent, rng)
            })
            .collect();
        (corpus, t0.elapsed().as_secs_f64(), build_ms)
    };
    let (mut corpus, first_setup_s, first_build_ms) = set_up();
    let graphs = corpus.len();

    // A traced run first pre-trains a copy of the largest graph's agent
    // with spans off: its own untraced reference for the overhead ratio.
    let largest = (0..graphs).max_by_key(|&i| corpus[i].0.num_ops).expect("eight graphs");
    let mut reference_iter_ms = f64::NAN;
    if o.traced {
        let (input, _, _) = &corpus[largest];
        let mut rng = StdRng::seed_from_u64(o.seed.wrapping_add(largest as u64));
        let mut agent = Agent::new(AgentKind::Mars, cfg.clone(), FEATURE_DIM, devices, &mut rng);
        let t0 = Instant::now();
        agent.pretrain(input, &mut rng);
        reference_iter_ms = t0.elapsed().as_secs_f64() * 1e3 / iters as f64;
    }

    enable_spans(o.traced);
    let mut pass_ms = vec![Vec::with_capacity(passes); graphs];
    let mut loss_sums = Vec::with_capacity(passes);
    let t_all = Instant::now();
    for pass in 0..passes {
        if pass > 0 {
            corpus = set_up().0;
        }
        let mut loss_bits = Vec::new();
        for (g, (input, agent, rng)) in corpus.iter_mut().enumerate() {
            let t0 = Instant::now();
            let report = agent.pretrain(input, rng).expect("Mars agents have a GCN encoder");
            pass_ms[g].push(t0.elapsed().as_secs_f64() * 1e3 / iters as f64);
            // The loss of a single iteration is spiky (a fresh
            // corruption each time) and `pretrain` keeps its best
            // weights, so progress is judged on the best loss against
            // the first, which sits at chance. Four iterations are too
            // few to demand it.
            let learned = report.losses.len() == iters
                && report.losses.iter().all(|l| l.is_finite())
                && (o.smoke || report.best_loss < 0.5 * report.losses[0]);
            run.attempted += 1;
            run.failed += u64::from(!learned);
            loss_bits.extend(report.losses.iter().map(|l| u64::from(l.to_bits())));
        }
        loss_sums.push(fnv_hex(loss_bits.into_iter()));
    }
    let wall_s = t_all.elapsed().as_secs_f64();
    enable_spans(false);
    let spans = Rollup::capture();
    run.check(loss_sums.iter().all(|s| *s == loss_sums[0]), || {
        format!("passes from the same seeds gave different losses: {loss_sums:?}")
    });
    run.set("peak_rss_mb", peak_rss_mb());
    let (setup_s, build_ms) = repeat_set_up(o, (first_setup_s, first_build_ms), || {
        let (_, s, b) = set_up();
        (s, b)
    });
    run.set("setup_s", setup_s);
    run.set("graph.build.ms", build_ms);

    let mut iter_ms: Vec<f64> = pass_ms.iter().map(|p| median(p)).collect();
    let typical_sweep_s = iter_ms.iter().sum::<f64>() * 1e-3;
    let largest_iter_ms = iter_ms[largest];
    iter_ms.sort_by(f64::total_cmp);
    let (tail_ms, tail_pct) = tail(&iter_ms);
    run.set("ops_per_s", graphs as f64 / typical_sweep_s);
    run.set("op_p50_ms", median(&iter_ms));
    run.set("op_tail_ms", tail_ms);
    run.note("op", "one DGI iteration; per graph the mean of a pass, median of the passes");
    run.note("op_samples", format!("{graphs} graphs x {passes} passes x {iters} iterations"));
    run.note("op_tail_percentile", format!("p{tail_pct:.1}"));
    run.note("whole_run_ops_per_s", format!("{:.3}", (graphs * passes * iters) as f64 / wall_s));
    run.note("dgi_loss_fnv", &loss_sums[0]);

    run.set("core.pretrain.busy_s", wall_s);
    if o.traced {
        spans.report(&mut run);
        note_layer_shares(&mut run, &spans);
        run.set("trace.overhead_ratio", largest_iter_ms / reference_iter_ms);
        run.check(spans.calls("nn.lstm.bi_run") == 0.0, || {
            "the placer ran during DGI pre-training".into()
        });
    }
    run
}
