//! The measurement protocol around the engine — the `Environment` the
//! RL agent interacts with.
//!
//! §4.2: "we only run the benchmark workload for 15 steps in each
//! placement ... we discard the first 5 steps and average the per-step
//! time of the last 10 steps." §3.4: invalid (OOM) placements receive
//! an extremely long reading (100 s); evaluations beyond a per-workload
//! cutoff are aborted and marked *bad*.
//!
//! # Purity
//!
//! Evaluating a placement is a *pure function* of `(graph, cluster,
//! environment seed, placement)`: the measurement noise is drawn from a
//! generator seeded by mixing the environment seed with a stable hash
//! of the (compatibility-enforced) placement, not from a shared
//! sequential stream. Re-evaluating the same placement therefore
//! always yields the bit-identical outcome and machine-time cost, in
//! this environment or in a fresh one of the same seed. Injected faults
//! are keyed by the evaluation index, not by the placement.

use crate::device::Cluster;
use crate::engine::{simulate, StepReport};
use crate::fault::{Fault, FaultKind, FaultPlan, RetryPolicy};
use crate::memory::{check_memory, OomError};
use crate::placement::Placement;
use mars_graph::CompGraph;
use mars_rng::rngs::{SplitMix64, StdRng};
use mars_rng::{RngCore, SeedableRng};
use mars_tensor::init::randn_scalar;

/// Per-step times beyond this are aborted and marked bad (§3.4).
pub const BAD_CUTOFF_S: f64 = 20.0;
/// Reading assigned to invalid (OOM) placements (§3.4).
pub const INVALID_PENALTY_S: f64 = 100.0;
/// Relative measurement-noise standard deviation.
pub const NOISE_SIGMA: f64 = 0.03;
/// Steps run per evaluation, warm-up included (§4.2).
pub const STEPS_PER_EVAL: usize = 15;
/// Warm-up steps discarded (§4.2).
pub const WARMUP_STEPS: usize = 5;

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
    /// for valid placements, the cutoff for bad ones, and
    /// [`INVALID_PENALTY_S`] for invalid ones.
    pub fn reading_s(&self) -> f64 {
        match self {
            EvalOutcome::Valid { per_step_s } => *per_step_s,
            EvalOutcome::Bad { cutoff_s } => *cutoff_s,
            EvalOutcome::Invalid { .. } => INVALID_PENALTY_S,
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
/// machine-time cost and the telemetry readings.
struct EvalComputation {
    /// The agent-visible outcome.
    outcome: EvalOutcome,
    /// Simulated machine-seconds this evaluation costs (§4.2 protocol
    /// accounting: warm-up steps at double cost, aborted step for bad
    /// placements, 5 s startup overhead for OOM).
    machine_s: f64,
    /// Noise-free makespan of one step (NaN for OOM).
    makespan_s: f64,
    /// Link-occupancy seconds (NaN for OOM).
    comm_s: f64,
    /// Cross-device transfers (0 for OOM).
    num_transfers: usize,
    /// Peak device-memory utilization (for OOM: the overflow ratio
    /// `required / capacity` of the overflowing device).
    peak_mem_utilization: f64,
}

/// An RL environment measuring placements.
pub trait Environment {
    /// Evaluate a placement and return the outcome.
    fn evaluate(&mut self, placement: &Placement) -> EvalOutcome;

    /// Evaluate a whole round of placements, returning outcomes in
    /// sample order: the serial loop over [`Environment::evaluate`].
    /// Wrappers override it to observe a round as one unit; every
    /// observable effect must stay that of the serial loop.
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
    /// Retry policy for injected transient errors.
    pub retry: RetryPolicy,
    /// Per-evaluation machine-time budget: retries that would push one
    /// evaluation past this are abandoned (mirrors the paper's cutoff
    /// philosophy — never let one measurement stall the search).
    pub eval_timeout_s: f64,
    machine_seconds: f64,
    evaluations: usize,
    fault_plan: FaultPlan,
    /// Boundary faults (device failures, crashes) not yet fired.
    boundaries: Vec<Fault>,
    boundary_cursor: usize,
    crash_pending: bool,
}

impl SimEnv {
    /// Environment measuring under the paper's protocol (the constants
    /// above), with no fault plan armed.
    pub fn new(graph: CompGraph, cluster: Cluster, seed: u64) -> Self {
        SimEnv {
            graph,
            cluster,
            seed,
            retry: RetryPolicy::default(),
            eval_timeout_s: 300.0,
            machine_seconds: 0.0,
            evaluations: 0,
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

    /// Fire every boundary fault scheduled at or before the current
    /// evaluation count. Called before each evaluation, so the firing
    /// point is a pure function of the global evaluation index.
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

    /// Degrade the cluster: mark the device dead. Later evaluations
    /// remap their placements off it (see `normalize`).
    fn apply_device_failure(&mut self, device: usize) {
        self.cluster.fail_device(device);
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

    /// Always `None`: there is no evaluation memo. Kept only because
    /// the benchmark's `train_gnmt4` (`ledger/src/train.rs`) reads
    /// `cache_stats()` to report `sim.cache.hit_ratio`.
    pub fn cache_stats(&self) -> Option<(u64, u64, u64)> {
        None
    }

    /// Noise-free single-step simulation (for analysis and tests).
    pub fn true_step_time(&self, placement: &Placement) -> Result<StepReport, OomError> {
        let mut p = placement.clone();
        p.enforce_compatibility(&self.graph, &self.cluster);
        check_memory(&self.graph, &p, &self.cluster)?;
        Ok(simulate(&self.graph, &p, &self.cluster))
    }

    /// Compatibility-enforce a sampled placement and remap it off any
    /// failed devices.
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
    /// pre-commit evaluation count), not by the placement.
    fn apply_commit_faults(&self, mut comp: EvalComputation) -> EvalComputation {
        if self.fault_plan.is_empty() {
            return comp;
        }
        let idx = self.evaluations as u64;

        // Straggler: the whole evaluation runs `slow`× longer; if the
        // slowed per-step time would blow the cutoff, the measurement
        // protocol aborts it like any other over-cutoff run. OOM never
        // started, so it cannot straggle.
        if let Some(slow) = self.fault_plan.straggler_at(self.seed, idx) {
            if !matches!(comp.outcome, EvalOutcome::Invalid { .. }) {
                comp.machine_s *= slow;
                mars_telemetry::counter("sim.fault.straggler").inc();
                if let EvalOutcome::Valid { per_step_s } = comp.outcome {
                    if per_step_s * slow > BAD_CUTOFF_S {
                        comp.outcome =
                            EvalOutcome::Straggler { slowdown: slow, cutoff_s: BAD_CUTOFF_S };
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
                comp.outcome = EvalOutcome::TransientError { attempts, cutoff_s: BAD_CUTOFF_S };
            }
        }
        comp
    }

    /// Stable seed for a placement's measurement noise: the env seed
    /// mixed with a SplitMix64 fold over the device ids. Function of
    /// value only — independent of evaluation order or count.
    fn noise_seed(&self, enforced: &Placement) -> u64 {
        let mut h = SplitMix64::new(self.seed ^ 0x4d41_5253_5349_4d21).next_u64();
        for &d in &enforced.0 {
            h = SplitMix64::new(h ^ (d as u64).wrapping_add(0x9E37_79B9_7F4A_7C15)).next_u64();
        }
        h
    }

    /// The pure evaluation: everything §4.2 prescribes for one
    /// (already compatibility-enforced) placement. No `&mut self`, no
    /// shared state.
    fn compute(&self, enforced: &Placement) -> EvalComputation {
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
        if base > BAD_CUTOFF_S {
            return EvalComputation {
                outcome: EvalOutcome::Bad { cutoff_s: BAD_CUTOFF_S },
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
        let mut kept = Vec::with_capacity(STEPS_PER_EVAL - WARMUP_STEPS);
        for step in 0..STEPS_PER_EVAL {
            let noise = 1.0 + NOISE_SIGMA * randn_scalar(&mut rng) as f64;
            let t = base * noise.clamp(0.5, 1.5);
            if step < WARMUP_STEPS {
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

    /// Bookkeeping for one evaluation: machine time, counters, and the
    /// telemetry event.
    fn commit(&mut self, comp: EvalComputation) -> EvalOutcome {
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
                        ],
                    );
                }
            }
            EvalOutcome::Bad { .. } => {
                self.eval_gauges(&comp);
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
                        ],
                    );
                }
            }
            EvalOutcome::Valid { per_step_s } => {
                self.eval_gauges(&comp);
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
                        ],
                    );
                }
            }
        }
        comp.outcome
    }

    fn eval_gauges(&self, comp: &EvalComputation) {
        if mars_telemetry::active() {
            mars_telemetry::gauge("sim.eval.makespan_s", comp.makespan_s);
            mars_telemetry::gauge("sim.eval.comm_s", comp.comm_s);
            mars_telemetry::gauge("sim.eval.transfers", comp.num_transfers as f64);
            mars_telemetry::gauge("sim.eval.peak_mem_utilization", comp.peak_mem_utilization);
        }
    }
}

impl Environment for SimEnv {
    fn evaluate(&mut self, placement: &Placement) -> EvalOutcome {
        let _span = mars_telemetry::span("sim.measure.evaluate");
        self.fire_due_faults();
        let p = self.normalize(placement);
        let comp = self.apply_commit_faults(self.compute(&p));
        self.commit(comp)
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
        assert_eq!(out.reading_s(), INVALID_PENALTY_S);
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
        assert_eq!(a, a2, "re-evaluation reads the identical value");
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
}
