#![warn(missing_docs)]
//! Placement-as-a-service: the layer that turns a trained agent into a
//! queryable engine (ROADMAP north-star item 1).
//!
//! A query is `(workload, profile, cluster) → per-op device ranking`.
//! Three tiers answer it, cheapest first:
//!
//! 1. **Hot** — an in-memory LRU ([`cache::PlacementCache`]) keyed by
//!    `(graph fingerprint, cluster fingerprint)`: the `mars_sim::Lru`
//!    of the eval memo, holding policy outputs.
//! 2. **Warm** — a persistent JSONL-backed store
//!    ([`store::PlacementStore`]) with crash-safe append and
//!    load-on-start, stamped with the weights fingerprint so stale
//!    entries from other checkpoints are never replayed.
//! 3. **Cold** — policy inference through
//!    [`mars_core::PolicyInference`], the no-tape forward with pooled
//!    activation buffers.
//!
//! All three tiers return byte-identical rankings for the same
//! `(graph, cluster, weights)` triple: the cold path is bit-identical
//! to the training-time forward (pinned in `mars_core::infer`), and
//! the caches store exactly what the cold path produced. The serve
//! loop ([`server::serve`]) speaks the `mars-net` framed protocol
//! (`PlaceRequest`/`PlaceResponse`, protocol v3) with one thread per
//! connection over a shared engine that synchronises itself: hits
//! never wait for a miss's forward, and identical concurrent misses
//! share one ([`engine`] module docs).

pub mod cache;
pub mod engine;
pub mod fingerprint;
pub mod server;
pub mod store;

pub use cache::PlacementCache;
pub use engine::{EngineStats, Placed, PlacementEngine, Ranking, Tier};
pub use fingerprint::{cluster_fingerprint, graph_fingerprint};
pub use server::{serve, ServeOptions, ServeStats};
pub use store::PlacementStore;
