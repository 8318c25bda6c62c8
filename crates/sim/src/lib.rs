#![warn(missing_docs)]
//! Discrete-event multi-device execution simulator.
//!
//! This crate is the reproduction's substitute for the paper's physical
//! RL environment (a 4×P100 + 2×Xeon machine running TensorFlow; see
//! DESIGN.md §2). Given a [`CompGraph`](mars_graph::CompGraph) and a
//! [`Placement`], it computes the per-step training time by
//! list-scheduling ops on devices and tensor transfers on PCIe links:
//!
//! * each device executes one op at a time, picking ready ops in
//!   topological priority order;
//! * an op is ready when every input tensor has arrived on its device;
//! * cross-device edges enqueue transfers on the directed link between
//!   the two devices (links serialize; latency + bytes/bandwidth);
//! * per-device memory is parameters + live activations; exceeding
//!   capacity is an out-of-memory error (an *invalid placement* in the
//!   paper's terms).
//!
//! [`measure::SimEnv`] wraps the engine in the paper's measurement
//! protocol: run 15 steps, discard the first 5, average the last 10
//! (with seeded measurement noise), abort evaluations beyond a cutoff
//! ("bad placements"), and penalize invalid placements with a 100 s
//! reading.

pub mod cost;
pub mod device;
pub mod engine;
pub mod fault;
pub mod measure;
pub mod memory;
pub mod placement;
pub mod trace;

pub use device::{Cluster, DeviceId, DeviceKind, DeviceSpec, LinkSpec};
pub use engine::{simulate, StepReport};
pub use fault::{Fault, FaultKind, FaultPlan, RetryPolicy};
pub use measure::{
    Environment, EvalOutcome, SimEnv, BAD_CUTOFF_S, INVALID_PENALTY_S, NOISE_SIGMA, STEPS_PER_EVAL,
    WARMUP_STEPS,
};
pub use memory::{check_memory, MemoryReport, OomError};
pub use placement::Placement;
pub use trace::{simulate_traced, StepTrace};
