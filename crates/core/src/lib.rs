#![warn(missing_docs)]
//! Mars: the paper's contribution — a pre-trained encoder-placer
//! device-placement agent — plus every baseline it is compared against.
//!
//! * [`encoder`] — the 3-layer GCN encoder (§3.1) and the GraphSAGE
//!   encoder used by the Encoder-Placer baseline (GDP [33]).
//! * [`dgi`] — Deep Graph Infomax contrastive pre-training (§3.2).
//! * [`placers`] — the four placer designs studied in §3.3: full
//!   seq2seq, **segment-level seq2seq (the Mars placer)**, a
//!   Transformer-XL-style segment-recurrent attention placer, and the
//!   two-layer MLP.
//! * [`grouper`] — the Grouper-Placer baseline (Hierarchical Planner
//!   [20]): MLP grouper + seq2seq placer over groups.
//! * [`ppo`] — proximal policy optimization with the paper's reward
//!   `R = −√t`, EMA baseline (μ = 0.99), clip 0.2, entropy 0.001.
//! * [`agent`] — the joint training loop (§3.4) with full logging for
//!   Fig. 7 (per-step runtime of found placements over training) and
//!   Fig. 8 (agent training time).
//! * [`baselines`] — Human Expert and GPU-Only placements (§4.1).
//! * [`partitioner`] — a classical min-cut graph-partitioning baseline
//!   (the "Scotch" family §2 argues against).
//! * [`generalize`] — Table-3 train-on-A / fine-tune-on-B evaluation.

pub mod agent;
pub mod baselines;
pub mod config;
pub mod dgi;
pub mod encoder;
pub mod generalize;
pub mod grouper;
pub mod infer;
pub mod partitioner;
pub mod placers;
pub mod ppo;
pub mod workload_input;

pub use agent::{Agent, AgentKind, TrainingLog};
pub use config::MarsConfig;
pub use infer::PolicyInference;
pub use workload_input::WorkloadInput;
