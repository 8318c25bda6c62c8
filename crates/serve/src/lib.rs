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
//! 3. **Cold** — the key is in neither tier and is *landed* now (hot
//!    insert, store line) from the ranking remembered on the graph's
//!    entry. The policy reads the graph and not the cluster, so that
//!    ranking is computed once per `(workload, profile)` recipe, by
//!    [`mars_core::PolicyInference`] (the no-tape forward with pooled
//!    activation buffers); every other cluster of the graph costs a map
//!    insert.
//!
//! All three tiers return byte-identical rankings for the same
//! `(graph, cluster, weights)` triple: the forward is bit-identical
//! to the training-time forward (pinned in `mars_core::infer`), and
//! the memo and the caches store exactly what it produced. The serve
//! loop ([`server::serve`]) speaks the `mars-net` framed protocol
//! (`PlaceRequest`/`PlaceResponse`, protocol v3) with one thread per
//! connection over a shared engine that synchronises itself: hits
//! never wait for a forward, and concurrent first requests for one
//! graph share one ([`engine`] module docs).

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
