//! The measurement protocol around the engine — the `Environment` the
//! RL agent interacts with.
//!
//! §4.2: "we only run the benchmark workload for 15 steps in each
//! placement ... we discard the first 5 steps and average the per-step
//! time of the last 10 steps." §3.4: invalid (OOM) placements receive
//! an extremely long reading (100 s); evaluations beyond a per-workload
//! cutoff are aborted and marked *bad*.
//!
//! # Purity, parallelism, and memoization
//!
//! Evaluating a placement is a *pure function* of `(graph, cluster,
//! environment seed, placement)`: the measurement noise is drawn from a
//! generator seeded by mixing the environment seed with a stable hash
//! of the (compatibility-enforced) placement, not from a shared
//! sequential stream. Re-evaluating the same placement therefore
//! always yields the bit-identical outcome and machine-time cost, which
//! buys two things at once:
//!
//! * **Concurrency** — [`SimEnv::evaluate_batch`] computes a round's
//!   evaluations on up to `eval_threads` threads
//!   ([`mars_tensor::pool::par_tasks`]); results are committed in
//!   sample order on the calling thread, so serial and parallel runs
//!   are bit-identical.
//! * **Memoization** — resampled placements are answered from a
//!   bounded LRU cache ([`crate::cache::EvalCache`]) instead of a full
//!   critical-path simulation. A cache hit replays the stored outcome
//!   *and* the stored simulated machine-seconds, so enabling or
//!   disabling the cache changes wall-clock only, never the training
//!   trace.

use crate::cache::EvalCache;
use crate::device::Cluster;
use crate::engine::{simulate, StepReport};
use crate::fault::{Fault, FaultKind, FaultPlan, RetryPolicy};
use crate::memory::{check_memory, OomError};
use crate::placement::Placement;
use mars_graph::CompGraph;
use mars_rng::rngs::{SplitMix64, StdRng};
use mars_rng::{RngCore, SeedableRng};
use mars_tensor::init::randn_scalar;
use mars_tensor::pool;
use std::collections::{HashMap, HashSet};
use std::sync::Mutex;
use std::time::Instant;

/// Outcome of evaluating one placement.
#[derive(Clone, Debug, PartialEq)]
pub enum EvalOutcome {
    /// Ran to completion; the averaged per-step time in seconds.
    Valid {
        /// Measured per-step time (mean of the 10 kept steps).
        per_step_s: f64,
    },
    /// Ran but exceeded the cutoff; evaluation was aborted.
    Bad {
        /// The cutoff that was hit, used as the reward reading.
        cutoff_s: f64,
    },
    /// Out of memory — could not run at all.
    Invalid {
        /// Which device overflowed.
        oom: OomError,
    },
    /// An injected transient error exhausted the retry/timeout budget
    /// (see [`crate::fault::RetryPolicy`]).
    TransientError {
        /// Attempts made before giving up.
        attempts: u32,
        /// The cutoff used as the reward reading.
        cutoff_s: f64,
    },
    /// An injected straggler slowed the run past the cutoff; aborted.
    Straggler {
        /// The slowdown factor that was injected.
        slowdown: f64,
        /// The cutoff used as the reward reading.
        cutoff_s: f64,
    },
}

impl EvalOutcome {
    /// The per-step reading fed to the reward (§3.4): the measurement
    /// for valid placements, the cutoff for bad ones, and the 100 s
    /// penalty for invalid ones.
    pub fn reading_s(&self, invalid_penalty_s: f64) -> f64 {
        match self {
            EvalOutcome::Valid { per_step_s } => *per_step_s,
            EvalOutcome::Bad { cutoff_s } => *cutoff_s,
            EvalOutcome::Invalid { .. } => invalid_penalty_s,
            EvalOutcome::TransientError { cutoff_s, .. } => *cutoff_s,
            EvalOutcome::Straggler { cutoff_s, .. } => *cutoff_s,
        }
    }

    /// True for [`EvalOutcome::Valid`].
    pub fn is_valid(&self) -> bool {
        matches!(self, EvalOutcome::Valid { .. })
    }
}

/// Everything one evaluation produces: the outcome plus the simulated
/// machine-time cost and the telemetry readings. This is what the
/// memo cache stores — committing a cached computation is
/// indistinguishable from committing a fresh one.
#[derive(Clone, Debug, PartialEq)]
pub struct EvalComputation {
    /// The agent-visible outcome.
    pub outcome: EvalOutcome,
    /// Simulated machine-seconds this evaluation costs (§4.2 protocol
    /// accounting: warm-up steps at double cost, aborted step for bad
    /// placements, 5 s startup overhead for OOM).
    pub machine_s: f64,
    /// Noise-free makespan of one step (NaN for OOM).
    pub makespan_s: f64,
    /// Link-occupancy seconds (NaN for OOM).
    pub comm_s: f64,
    /// Cross-device transfers (0 for OOM).
    pub num_transfers: usize,
    /// Peak device-memory utilization (for OOM: the overflow ratio
    /// `required / capacity` of the overflowing device).
    pub peak_mem_utilization: f64,
}

/// Stable 64-bit fingerprint of a (graph, cluster) pair — the guard key
/// for [`EvalCache`]. Coarse by design (name, sizes, device memory): it
/// exists to catch a cache accidentally reused across environments, not
/// to distinguish adversarially similar graphs.
pub fn env_fingerprint(graph: &CompGraph, cluster: &Cluster) -> u64 {
    let mut h: u64 = 0x4d41_5253_4556_414c; // "MARSEVAL"
    let mut fold = |v: u64| h = SplitMix64::new(h ^ v).next_u64();
    for b in graph.name.bytes() {
        fold(b as u64);
    }
    fold(graph.num_nodes() as u64);
    fold(graph.num_edges() as u64);
    fold(cluster.num_devices() as u64);
    for d in 0..cluster.num_devices() {
        fold(cluster.device(d).memory_bytes);
        // The failure mask is part of the environment identity: losing
        // a device invalidates every memoized evaluation.
        fold(cluster.is_alive(d) as u64);
    }
    h
}

/// An RL environment measuring placements.
pub trait Environment {
    /// Evaluate a placement and return the outcome.
    fn evaluate(&mut self, placement: &Placement) -> EvalOutcome;

    /// Evaluate a whole round of placements, returning outcomes in
    /// sample order. The default implementation is the serial loop;
    /// implementations may compute concurrently as long as every
    /// observable effect (outcomes, machine time, telemetry order) is
    /// identical to the serial loop.
    fn evaluate_batch(&mut self, placements: &[Placement]) -> Vec<EvalOutcome> {
        placements.iter().map(|p| self.evaluate(p)).collect()
    }

    /// The workload graph.
    fn graph(&self) -> &CompGraph;
    /// The device cluster.
    fn cluster(&self) -> &Cluster;
    /// Seconds of (simulated) machine time spent on evaluations so far
    /// — the dominant cost in Fig. 8's agent-training-time comparison.
    fn machine_seconds(&self) -> f64;
    /// Number of evaluations performed.
    fn evaluations(&self) -> usize;
    /// Consume a pending injected agent crash: `true` exactly once per
    /// crash fault that fired since the last call. The training loop
    /// reacts by checkpointing and resuming (see `mars_core`).
    fn take_crash(&mut self) -> bool {
        false
    }
}

/// Simulator-backed environment with the paper's measurement protocol.
///
/// ```
/// use mars_graph::generators::{Profile, Workload};
/// use mars_sim::{Cluster, Environment, EvalOutcome, Placement, SimEnv};
///
/// let graph = Workload::InceptionV3.build(Profile::Reduced);
/// let mut env = SimEnv::new(graph.clone(), Cluster::p100_quad(), 42);
/// let placement = Placement::all_on(&graph, 1); // everything on GPU 0
/// match env.evaluate(&placement) {
///     EvalOutcome::Valid { per_step_s } => assert!(per_step_s > 0.0),
///     other => panic!("inception fits one GPU: {other:?}"),
/// }
/// assert_eq!(env.evaluations(), 1);
/// ```
pub struct SimEnv {
    graph: CompGraph,
    cluster: Cluster,
    seed: u64,
    /// Per-step times beyond this are aborted and marked bad.
    pub bad_cutoff_s: f64,
    /// Reading assigned to invalid placements.
    pub invalid_penalty_s: f64,
    /// Relative measurement-noise standard deviation.
    pub noise_sigma: f64,
    /// Steps run per evaluation (warm-up included).
    pub steps_per_eval: usize,
    /// Warm-up steps discarded.
    pub warmup_steps: usize,
    /// Retry policy for injected transient errors.
    pub retry: RetryPolicy,
    /// Per-evaluation machine-time budget: retries that would push one
    /// evaluation past this are abandoned (mirrors the paper's cutoff
    /// philosophy — never let one measurement stall the search).
    pub eval_timeout_s: f64,
    machine_seconds: f64,
    evaluations: usize,
    eval_threads: usize,
    fingerprint: u64,
    cache: Option<EvalCache>,
    fault_plan: FaultPlan,
    /// Boundary faults (device failures, crashes) not yet fired.
    boundaries: Vec<Fault>,
    boundary_cursor: usize,
    crash_pending: bool,
}

impl SimEnv {
    /// Environment with the paper's defaults (15 steps, 5 warm-up,
    /// 100 s invalid penalty, 20 s bad cutoff), a single evaluation
    /// thread, and the memo cache enabled.
    pub fn new(graph: CompGraph, cluster: Cluster, seed: u64) -> Self {
        let fingerprint = env_fingerprint(&graph, &cluster);
        SimEnv {
            graph,
            cluster,
            seed,
            bad_cutoff_s: 20.0,
            invalid_penalty_s: 100.0,
            noise_sigma: 0.03,
            steps_per_eval: 15,
            warmup_steps: 5,
            retry: RetryPolicy::default(),
            eval_timeout_s: 300.0,
            machine_seconds: 0.0,
            evaluations: 0,
            eval_threads: 1,
            fingerprint,
            cache: Some(EvalCache::with_default_capacity(fingerprint)),
            fault_plan: FaultPlan::none(),
            boundaries: Vec::new(),
            boundary_cursor: 0,
            crash_pending: false,
        }
    }

    /// Install a fault plan (validated against the cluster). Replaces
    /// any previous plan; boundary faults scheduled at or before the
    /// current evaluation count fire before the next evaluation.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) -> Result<(), String> {
        plan.validate(&self.cluster)?;
        self.boundaries = plan.boundaries();
        self.boundary_cursor = 0;
        self.fault_plan = plan;
        Ok(())
    }

    /// The installed fault plan (the empty plan by default).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault_plan
    }

    /// Global index of the next boundary fault yet to fire, if any.
    fn next_boundary(&self) -> Option<u64> {
        self.boundaries.get(self.boundary_cursor).map(|f| f.at_eval)
    }

    /// Fire every boundary fault scheduled at or before the current
    /// evaluation count. Called before each evaluation (and before each
    /// batch segment), so the firing point is a pure function of the
    /// global evaluation index — identical across threads and caching.
    fn fire_due_faults(&mut self) {
        while let Some(f) = self.boundaries.get(self.boundary_cursor) {
            if f.at_eval > self.evaluations as u64 {
                break;
            }
            let fault = f.clone();
            self.boundary_cursor += 1;
            match fault.kind {
                FaultKind::DeviceFailure { device } => self.apply_device_failure(device),
                FaultKind::AgentCrash => {
                    self.crash_pending = true;
                    mars_telemetry::counter("sim.fault.crash").inc();
                    if mars_telemetry::active() {
                        mars_telemetry::event(
                            "sim.fault.crash",
                            &[("at_eval", (self.evaluations as f64).into())],
                        );
                    }
                }
                // Commit faults never appear in `boundaries`.
                FaultKind::Transient { .. } | FaultKind::Straggler { .. } => unreachable!(),
            }
        }
    }

    /// Degrade the cluster: mark the device dead, refresh the
    /// environment fingerprint (the failure mask is part of it), and
    /// rebuild the memo cache — every stored reading was measured on
    /// the healthy cluster and must not be replayed.
    fn apply_device_failure(&mut self, device: usize) {
        self.cluster.fail_device(device);
        self.fingerprint = env_fingerprint(&self.graph, &self.cluster);
        if self.cache.is_some() {
            self.cache = Some(EvalCache::with_default_capacity(self.fingerprint));
        }
        mars_telemetry::counter("sim.fault.device_failure").inc();
        if mars_telemetry::active() {
            mars_telemetry::event(
                "sim.fault.device_failure",
                &[
                    ("device", (device as f64).into()),
                    ("at_eval", (self.evaluations as f64).into()),
                    ("live_devices", (self.cluster.num_live_devices() as f64).into()),
                ],
            );
        }
    }

    /// Use up to `n` threads (calling thread included) per
    /// [`Environment::evaluate_batch`] round. `0` is treated as `1`.
    /// Thread count never changes results — only wall-clock.
    pub fn set_eval_threads(&mut self, n: usize) {
        self.eval_threads = n.max(1);
    }

    /// Current evaluation concurrency.
    pub fn eval_threads(&self) -> usize {
        self.eval_threads
    }

    /// Enable (default) or disable the placement memo cache. Disabling
    /// drops all entries. The cache never changes results — a hit
    /// replays the stored outcome and machine-time cost bit for bit.
    pub fn set_cache_enabled(&mut self, on: bool) {
        if on && self.cache.is_none() {
            self.cache = Some(EvalCache::with_default_capacity(self.fingerprint));
        } else if !on {
            self.cache = None;
        }
    }

    /// Drop all cached evaluations (call after mutating protocol
    /// parameters such as `noise_sigma` so stale readings cannot be
    /// replayed).
    pub fn reset_cache(&mut self) {
        if self.cache.is_some() {
            self.cache = Some(EvalCache::with_default_capacity(self.fingerprint));
        }
    }

    /// `(hits, misses, evictions)` of the memo cache, if enabled.
    pub fn cache_stats(&self) -> Option<(u64, u64, u64)> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// Hit fraction of the memo cache, if enabled.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        self.cache.as_ref().map(|c| c.hit_rate())
    }

    /// Noise-free single-step simulation (for analysis and tests).
    pub fn true_step_time(&self, placement: &Placement) -> Result<StepReport, OomError> {
        let mut p = placement.clone();
        p.enforce_compatibility(&self.graph, &self.cluster);
        check_memory(&self.graph, &p, &self.cluster)?;
        Ok(simulate(&self.graph, &p, &self.cluster))
    }

    /// Compatibility-enforce a sampled placement and remap it off any
    /// failed devices. Runs serially (pre-pass of the batch path, or
    /// inline in the serial path) so remap telemetry is deterministic.
    fn normalize(&self, placement: &Placement) -> Placement {
        let mut p = placement.clone();
        p.enforce_compatibility(&self.graph, &self.cluster);
        let moved = p.remap_failed(&self.graph, &self.cluster);
        if moved > 0 {
            mars_telemetry::counter("sim.fault.remap").inc();
            mars_telemetry::counter("sim.fault.remap_ops").add(moved as u64);
            if mars_telemetry::active() {
                mars_telemetry::event(
                    "sim.fault.remap",
                    &[
                        ("ops_moved", (moved as f64).into()),
                        ("live_devices", (self.cluster.num_live_devices() as f64).into()),
                    ],
                );
            }
        }
        p
    }

    /// Apply this evaluation's commit faults (straggler, transient) to
    /// a pure computation. Keyed by the global evaluation index (the
    /// pre-commit evaluation count), so the transformation is identical
    /// whether `comp` was freshly computed, replayed from the memo
    /// cache, or produced on another thread.
    fn apply_commit_faults(&self, comp: &EvalComputation) -> EvalComputation {
        if self.fault_plan.is_empty() {
            return comp.clone();
        }
        let idx = self.evaluations as u64;
        let mut comp = comp.clone();

        // Straggler: the whole evaluation runs `slow`× longer; if the
        // slowed per-step time would blow the cutoff, the measurement
        // protocol aborts it like any other over-cutoff run. OOM never
        // started, so it cannot straggle.
        if let Some(slow) = self.fault_plan.straggler_at(self.seed, idx) {
            if !matches!(comp.outcome, EvalOutcome::Invalid { .. }) {
                comp.machine_s *= slow;
                mars_telemetry::counter("sim.fault.straggler").inc();
                if let EvalOutcome::Valid { per_step_s } = comp.outcome {
                    if per_step_s * slow > self.bad_cutoff_s {
                        comp.outcome =
                            EvalOutcome::Straggler { slowdown: slow, cutoff_s: self.bad_cutoff_s };
                        mars_telemetry::counter("sim.fault.straggler_abort").inc();
                    }
                }
            }
        }

        // Transient errors: each failed attempt burns a full attempt's
        // machine time plus exponential backoff. The retry budget and
        // the per-evaluation timeout both bound the total spend.
        let failures = self.fault_plan.transient_failures_at(self.seed, idx);
        if failures > 0 {
            mars_telemetry::counter("sim.fault.transient").inc();
            let attempt_cost = comp.machine_s;
            let mut spend = 0.0;
            let mut attempts = 0u32;
            let mut succeeded = false;
            while attempts <= self.retry.max_retries {
                if attempts > 0 {
                    spend += self.retry.backoff_s(attempts - 1);
                }
                spend += attempt_cost;
                attempts += 1;
                if spend > self.eval_timeout_s {
                    break; // the timeout kills the evaluation mid-attempt
                }
                if attempts > failures {
                    succeeded = true;
                    break;
                }
            }
            mars_telemetry::counter("sim.fault.retry").add(attempts.saturating_sub(1) as u64);
            if succeeded {
                comp.machine_s = spend;
            } else {
                mars_telemetry::counter("sim.fault.retry_exhausted").inc();
                comp.machine_s = spend.min(self.eval_timeout_s);
                comp.outcome =
                    EvalOutcome::TransientError { attempts, cutoff_s: self.bad_cutoff_s };
            }
        }
        comp
    }

    /// Stable seed for a placement's measurement noise: the env seed
    /// mixed with a SplitMix64 fold over the device ids. Function of
    /// value only — independent of evaluation order, thread, or count.
    fn noise_seed(&self, enforced: &Placement) -> u64 {
        let mut h = SplitMix64::new(self.seed ^ 0x4d41_5253_5349_4d21).next_u64();
        for &d in &enforced.0 {
            h = SplitMix64::new(h ^ (d as u64).wrapping_add(0x9E37_79B9_7F4A_7C15)).next_u64();
        }
        h
    }

    /// The pure evaluation: everything §4.2 prescribes for one
    /// (already compatibility-enforced) placement. No `&mut self`, no
    /// shared state — safe to run concurrently for distinct
    /// placements on any thread.
    pub fn compute(&self, enforced: &Placement) -> EvalComputation {
        let _span = mars_telemetry::span("sim.measure.compute");
        let report = match check_memory(&self.graph, enforced, &self.cluster) {
            Err(oom) => {
                // Startup + failure still costs machine time.
                let over = oom.required_bytes as f64 / oom.capacity_bytes.max(1) as f64;
                return EvalComputation {
                    outcome: EvalOutcome::Invalid { oom },
                    machine_s: 5.0,
                    makespan_s: f64::NAN,
                    comm_s: f64::NAN,
                    num_transfers: 0,
                    peak_mem_utilization: over,
                };
            }
            Ok(mem) => {
                let peak = mem.peak_utilization(&self.cluster);
                (simulate(&self.graph, enforced, &self.cluster), peak)
            }
        };
        let (report, peak_mem) = report;
        let base = report.makespan_s;

        // Bad placements: abort as soon as one step exceeds the cutoff.
        if base > self.bad_cutoff_s {
            return EvalComputation {
                outcome: EvalOutcome::Bad { cutoff_s: self.bad_cutoff_s },
                machine_s: base, // one aborted step
                makespan_s: base,
                comm_s: report.comm_s,
                num_transfers: report.num_transfers,
                peak_mem_utilization: peak_mem,
            };
        }

        // Warm-up steps take longer (graph rewrites, allocator growth).
        let warm_factor = 2.0;
        let mut rng = StdRng::seed_from_u64(self.noise_seed(enforced));
        let mut machine_s = 0.0;
        let mut kept = Vec::with_capacity(self.steps_per_eval - self.warmup_steps);
        for step in 0..self.steps_per_eval {
            let noise = 1.0 + self.noise_sigma * randn_scalar(&mut rng) as f64;
            let t = base * noise.clamp(0.5, 1.5);
            if step < self.warmup_steps {
                machine_s += t * warm_factor;
            } else {
                machine_s += t;
                kept.push(t);
            }
        }
        let mean = kept.iter().sum::<f64>() / kept.len() as f64;
        EvalComputation {
            outcome: EvalOutcome::Valid { per_step_s: mean },
            machine_s,
            makespan_s: base,
            comm_s: report.comm_s,
            num_transfers: report.num_transfers,
            peak_mem_utilization: peak_mem,
        }
    }

    /// Serial bookkeeping for one evaluation: machine time, counters,
    /// and the telemetry event. Called in sample order for both the
    /// serial and the batched path, so the observable stream is
    /// identical regardless of how the computation was produced.
    fn commit(&mut self, comp: &EvalComputation, cached: bool) -> EvalOutcome {
        self.evaluations += 1;
        self.machine_seconds += comp.machine_s;
        match &comp.outcome {
            EvalOutcome::Invalid { oom } => {
                mars_telemetry::counter("sim.eval.oom").inc();
                if mars_telemetry::active() {
                    mars_telemetry::event(
                        "sim.eval",
                        &[
                            ("outcome", "oom".into()),
                            ("device", (oom.device as f64).into()),
                            ("peak_mem_utilization", comp.peak_mem_utilization.into()),
                            ("cached", (cached as u64 as f64).into()),
                        ],
                    );
                }
            }
            EvalOutcome::Bad { .. } => {
                self.eval_gauges(comp);
                mars_telemetry::counter("sim.eval.bad").inc();
                if mars_telemetry::active() {
                    mars_telemetry::event(
                        "sim.eval",
                        &[
                            ("outcome", "bad".into()),
                            ("makespan_s", comp.makespan_s.into()),
                            ("comm_s", comp.comm_s.into()),
                            ("transfers", (comp.num_transfers as f64).into()),
                            ("peak_mem_utilization", comp.peak_mem_utilization.into()),
                            ("cached", (cached as u64 as f64).into()),
                        ],
                    );
                }
            }
            EvalOutcome::TransientError { attempts, .. } => {
                mars_telemetry::counter("sim.eval.transient_error").inc();
                if mars_telemetry::active() {
                    mars_telemetry::event(
                        "sim.eval",
                        &[
                            ("outcome", "transient_error".into()),
                            ("attempts", (*attempts as f64).into()),
                            ("cached", (cached as u64 as f64).into()),
                        ],
                    );
                }
            }
            EvalOutcome::Straggler { slowdown, .. } => {
                mars_telemetry::counter("sim.eval.straggler").inc();
                if mars_telemetry::active() {
                    mars_telemetry::event(
                        "sim.eval",
                        &[
                            ("outcome", "straggler".into()),
                            ("slowdown", (*slowdown).into()),
                            ("makespan_s", comp.makespan_s.into()),
                            ("cached", (cached as u64 as f64).into()),
                        ],
                    );
                }
            }
            EvalOutcome::Valid { per_step_s } => {
                self.eval_gauges(comp);
                mars_telemetry::counter("sim.eval.valid").inc();
                if mars_telemetry::active() {
                    mars_telemetry::event(
                        "sim.eval",
                        &[
                            ("outcome", "valid".into()),
                            ("makespan_s", comp.makespan_s.into()),
                            ("reading_s", (*per_step_s).into()),
                            ("comm_s", comp.comm_s.into()),
                            ("transfers", (comp.num_transfers as f64).into()),
                            ("peak_mem_utilization", comp.peak_mem_utilization.into()),
                            ("cached", (cached as u64 as f64).into()),
                        ],
                    );
                }
            }
        }
        if cached {
            mars_telemetry::counter("sim.cache.hit").inc();
        } else {
            mars_telemetry::counter("sim.cache.miss").inc();
        }
        comp.outcome.clone()
    }

    fn eval_gauges(&self, comp: &EvalComputation) {
        if mars_telemetry::active() {
            mars_telemetry::gauge("sim.eval.makespan_s", comp.makespan_s);
            mars_telemetry::gauge("sim.eval.comm_s", comp.comm_s);
            mars_telemetry::gauge("sim.eval.transfers", comp.num_transfers as f64);
            mars_telemetry::gauge("sim.eval.peak_mem_utilization", comp.peak_mem_utilization);
        }
    }

    /// Cache-aware lookup-or-compute for one enforced placement.
    /// Returns the computation and whether it was a cache hit.
    fn lookup_or_compute(&mut self, enforced: Placement) -> (EvalComputation, bool) {
        let fp = self.fingerprint;
        if let Some(cache) = &mut self.cache {
            if let Some(hit) = cache.get(&enforced, fp) {
                return (hit, true);
            }
        }
        let comp = self.compute(&enforced);
        if let Some(cache) = &mut self.cache {
            cache.insert(enforced, comp.clone(), fp);
        }
        (comp, false)
    }
}

impl Environment for SimEnv {
    fn evaluate(&mut self, placement: &Placement) -> EvalOutcome {
        let _span = mars_telemetry::span("sim.measure.evaluate");
        self.fire_due_faults();
        let p = self.normalize(placement);
        let (comp, cached) = self.lookup_or_compute(p);
        let comp = self.apply_commit_faults(&comp);
        self.commit(&comp, cached)
    }

    /// One round of evaluations. Boundary faults (device failures,
    /// crashes) split the round into segments — each segment sees one
    /// consistent cluster, and faults fire at exactly the same global
    /// evaluation index the serial loop would fire them at.
    fn evaluate_batch(&mut self, placements: &[Placement]) -> Vec<EvalOutcome> {
        let _span = mars_telemetry::span("sim.measure.evaluate_batch");
        let mut outcomes = Vec::with_capacity(placements.len());
        let mut i = 0;
        while i < placements.len() {
            self.fire_due_faults();
            let remaining = placements.len() - i;
            let seg = match self.next_boundary() {
                Some(b) => (b.saturating_sub(self.evaluations as u64) as usize).min(remaining),
                None => remaining,
            };
            debug_assert!(seg > 0, "due boundaries fire before segmentation");
            outcomes.extend(self.evaluate_batch_segment(&placements[i..i + seg]));
            i += seg;
        }
        outcomes
    }

    fn graph(&self) -> &CompGraph {
        &self.graph
    }

    fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    fn machine_seconds(&self) -> f64 {
        self.machine_seconds
    }

    fn evaluations(&self) -> usize {
        self.evaluations
    }

    fn take_crash(&mut self) -> bool {
        std::mem::take(&mut self.crash_pending)
    }
}

impl SimEnv {
    /// One boundary-free segment of a round: cache-known placements are
    /// skipped, the remaining computations run on up to `eval_threads`
    /// threads, and all bookkeeping (cache get/insert, machine time,
    /// fault application, telemetry) is committed serially in sample
    /// order — exactly the sequence the serial loop would produce.
    fn evaluate_batch_segment(&mut self, placements: &[Placement]) -> Vec<EvalOutcome> {
        let wall_t0 = Instant::now();
        let enforced: Vec<Placement> = placements.iter().map(|p| self.normalize(p)).collect();

        // Pre-pass: decide what actually needs computing. With the
        // cache on, only the first occurrence of each unknown placement
        // (`peek` leaves recency/stats untouched — the authoritative
        // lookups happen at commit time). With the cache off, every
        // occurrence is computed, matching the serial no-cache loop.
        let mut jobs: Vec<usize> = Vec::new(); // indices into `enforced`
        if self.cache.is_some() {
            let mut scheduled: HashSet<&Placement> = HashSet::new();
            for (i, p) in enforced.iter().enumerate() {
                let known = self.cache.as_ref().is_some_and(|c| c.peek(p));
                if !known && scheduled.insert(p) {
                    jobs.push(i);
                }
            }
        } else {
            jobs = (0..enforced.len()).collect();
        }

        // Compute phase: pure evaluations on up to `eval_threads`
        // threads. The results feed the serial commit below, so the
        // thread count is trace-invisible.
        let slots = Mutex::new(vec![None; jobs.len()]);
        let env = &*self;
        pool::par_tasks(jobs.len(), self.eval_threads, |j| {
            let t0 = Instant::now();
            let comp = env.compute(&enforced[jobs[j]]);
            let wall = t0.elapsed().as_secs_f64();
            slots.lock().unwrap_or_else(|e| e.into_inner())[j] = Some((comp, wall));
        });
        let computed = slots.into_inner().unwrap_or_else(|e| e.into_inner());
        let mut by_placement: HashMap<&Placement, EvalComputation> = HashMap::new();
        let mut by_index: HashMap<usize, EvalComputation> = HashMap::new();
        let mut compute_wall_s = 0.0;
        for (j, slot) in computed.into_iter().enumerate() {
            let (comp, wall) = slot.expect("par_tasks ran every job");
            compute_wall_s += wall;
            by_placement.insert(&enforced[jobs[j]], comp.clone());
            by_index.insert(jobs[j], comp);
        }

        // Commit phase: sample order, identical to serial evaluate().
        let fp = self.fingerprint;
        let mut outcomes = Vec::with_capacity(enforced.len());
        let mut batch_hits = 0u64;
        for (i, p) in enforced.iter().enumerate() {
            let (comp, cached) = if self.cache.is_some() {
                let from_cache = self.cache.as_mut().and_then(|c| c.get(p, fp));
                match from_cache {
                    Some(hit) => (hit, true),
                    None => {
                        // First occurrence: use the precomputed result
                        // (recomputing on the spot covers the rare case
                        // of an entry evicted between pre-pass and
                        // commit with a tiny cache capacity — the pure
                        // function makes both paths identical).
                        let comp = by_placement.get(p).cloned().unwrap_or_else(|| self.compute(p));
                        if let Some(cache) = &mut self.cache {
                            cache.insert(p.clone(), comp.clone(), fp);
                        }
                        (comp, false)
                    }
                }
            } else {
                (by_index.get(&i).cloned().unwrap_or_else(|| self.compute(p)), false)
            };
            if cached {
                batch_hits += 1;
            }
            let comp = self.apply_commit_faults(&comp);
            outcomes.push(self.commit(&comp, cached));
        }

        if mars_telemetry::active() {
            mars_telemetry::event(
                "sim.eval_batch",
                &[
                    ("size", (enforced.len() as f64).into()),
                    ("computed", (jobs.len() as f64).into()),
                    ("cache_hits", (batch_hits as f64).into()),
                    ("threads", (self.eval_threads as f64).into()),
                    ("wall_s", wall_t0.elapsed().as_secs_f64().into()),
                    ("compute_s", compute_wall_s.into()),
                ],
            );
        }
        outcomes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_graph::generators::{Profile, Workload};

    fn env(w: Workload, seed: u64) -> SimEnv {
        SimEnv::new(w.build(Profile::Reduced), Cluster::p100_quad(), seed)
    }

    #[test]
    fn valid_measurement_close_to_truth() {
        let mut e = env(Workload::InceptionV3, 7);
        let p = Placement::all_on(e.graph(), 1);
        let truth = e.true_step_time(&p).expect("fits").makespan_s;
        match e.evaluate(&p) {
            EvalOutcome::Valid { per_step_s } => {
                assert!((per_step_s - truth).abs() / truth < 0.05, "{per_step_s} vs {truth}");
            }
            other => panic!("expected valid, got {other:?}"),
        }
        assert_eq!(e.evaluations(), 1);
        assert!(e.machine_seconds() > truth * 15.0);
    }

    #[test]
    fn oom_yields_invalid_and_penalty_reading() {
        let mut e = env(Workload::Gnmt4, 7);
        let p = Placement::all_on(e.graph(), 1);
        let out = e.evaluate(&p);
        assert!(matches!(out, EvalOutcome::Invalid { .. }));
        assert_eq!(out.reading_s(100.0), 100.0);
    }

    #[test]
    fn cpu_only_bert_is_bad() {
        // BERT entirely on the CPU is far beyond the 20 s cutoff.
        let mut e = env(Workload::BertBase, 7);
        let cpu = e.cluster().cpu_id();
        let p = Placement::all_on(e.graph(), cpu);
        let out = e.evaluate(&p);
        assert!(matches!(out, EvalOutcome::Bad { .. }), "{out:?}");
    }

    #[test]
    fn noise_is_seed_deterministic() {
        let p = Placement::all_on(env(Workload::InceptionV3, 1).graph(), 1);
        let a = env(Workload::InceptionV3, 42).evaluate(&p);
        let b = env(Workload::InceptionV3, 42).evaluate(&p);
        assert_eq!(a, b);
        let c = env(Workload::InceptionV3, 43).evaluate(&p);
        assert_ne!(a, c);
    }

    #[test]
    fn noise_is_placement_deterministic_and_distinct() {
        // Evaluation is pure: same placement, same reading, every time
        // — and different placements draw independent noise.
        let mut e = env(Workload::InceptionV3, 9);
        let p1 = Placement::all_on(e.graph(), 1);
        let p2 = Placement::all_on(e.graph(), 2);
        let a = e.evaluate(&p1);
        let b = e.evaluate(&p2);
        let a2 = e.evaluate(&p1);
        assert_eq!(a, a2, "re-evaluation replays the identical reading");
        assert_ne!(a, b, "distinct placements draw distinct noise");
    }

    #[test]
    fn machine_time_accumulates_per_eval() {
        let mut e = env(Workload::InceptionV3, 5);
        let p = Placement::all_on(e.graph(), 1);
        e.evaluate(&p);
        let after_one = e.machine_seconds();
        e.evaluate(&p);
        assert!(e.machine_seconds() > 1.9 * after_one);
    }

    #[test]
    fn cache_hits_replay_machine_time_and_count_evaluations() {
        let mut e = env(Workload::InceptionV3, 5);
        let p = Placement::all_on(e.graph(), 1);
        e.evaluate(&p);
        let after_one = e.machine_seconds();
        e.evaluate(&p); // cache hit
        assert_eq!(e.machine_seconds(), 2.0 * after_one, "hit replays the stored cost exactly");
        assert_eq!(e.evaluations(), 2);
        assert_eq!(e.cache_stats(), Some((1, 1, 0)));
    }

    #[test]
    fn cache_on_off_observables_identical() {
        let g = Workload::InceptionV3.build(Profile::Reduced);
        let ps: Vec<Placement> = vec![
            Placement::all_on(&g, 1),
            Placement::round_robin(&g, &[1, 2]),
            Placement::all_on(&g, 1), // repeat → hit when cached
            Placement::blocked(&g, &[1, 2, 3]),
            Placement::round_robin(&g, &[1, 2]), // repeat
        ];
        let mut on = env(Workload::InceptionV3, 11);
        let mut off = env(Workload::InceptionV3, 11);
        off.set_cache_enabled(false);
        let out_on = on.evaluate_batch(&ps);
        let out_off = off.evaluate_batch(&ps);
        assert_eq!(out_on, out_off);
        assert_eq!(on.machine_seconds().to_bits(), off.machine_seconds().to_bits());
        assert_eq!(on.evaluations(), off.evaluations());
        assert!(on.cache_stats().unwrap().0 >= 2, "repeats hit the cache");
        assert!(off.cache_stats().is_none());
    }

    #[test]
    fn batch_matches_serial_loop_bitwise() {
        let g = Workload::InceptionV3.build(Profile::Reduced);
        let ps: Vec<Placement> = (0..8)
            .map(|i| {
                if i % 3 == 0 {
                    Placement::all_on(&g, 1 + i % 4)
                } else {
                    Placement::round_robin(&g, &[1, 1 + i % 4])
                }
            })
            .collect();
        for threads in [1usize, 4] {
            let mut serial = env(Workload::InceptionV3, 21);
            let serial_out: Vec<EvalOutcome> = ps.iter().map(|p| serial.evaluate(p)).collect();
            let mut batch = env(Workload::InceptionV3, 21);
            batch.set_eval_threads(threads);
            let batch_out = batch.evaluate_batch(&ps);
            assert_eq!(serial_out, batch_out, "threads={threads}");
            assert_eq!(
                serial.machine_seconds().to_bits(),
                batch.machine_seconds().to_bits(),
                "threads={threads}"
            );
            assert_eq!(serial.cache_stats(), batch.cache_stats(), "threads={threads}");
        }
    }

    #[test]
    fn fingerprint_distinguishes_graphs_and_clusters() {
        let a =
            env_fingerprint(&Workload::InceptionV3.build(Profile::Reduced), &Cluster::p100_quad());
        let b = env_fingerprint(&Workload::BertBase.build(Profile::Reduced), &Cluster::p100_quad());
        assert_ne!(a, b);
    }
}
