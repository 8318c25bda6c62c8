//! Hot tier: bounded in-memory LRU from query key to device ranking.
//!
//! The same [`mars_sim::Lru`] as the evaluation memo, with the key
//! widened from a [`Placement`](mars_sim::Placement) under one fixed
//! environment to the `(graph fingerprint, cluster fingerprint)` pair
//! itself, so one cache serves every workload and cluster a client
//! throws at it. Values are `Arc`-shared so a hit never copies the
//! ranking and concurrent responders can hold it while the cache keeps
//! evolving.
//!
//! Eviction can only ever cause a re-landing — never a different
//! answer, and never a second forward — because an evicted key is
//! filled again from the ranking its graph's entry remembers (pinned by
//! the eviction test in `engine.rs`).

use crate::engine::Ranking;

/// Cache key: `(graph fingerprint, cluster fingerprint)`
/// (see [`crate::fingerprint`]).
pub type Key = (u64, u64);

/// Bounded LRU map from [`Key`] to the full device [`Ranking`].
pub type PlacementCache = mars_sim::Lru<Key, Ranking>;
