//! Bounded LRU caches: the generic [`Lru`] and the placement-evaluation
//! memo built on it.
//!
//! The PPO policy resamples placements constantly — within a round once
//! entropy drops, and across rounds as the policy converges — and every
//! resample used to pay a full critical-path simulation. Evaluation is
//! a pure function of `(graph, cluster, env seed, placement)` (see
//! [`crate::measure`]), so identical placements can be answered from a
//! map lookup. [`EvalCache`] is keyed by the [`Placement`] itself
//! (already `Hash + Eq`) and guarded by a fingerprint of the graph +
//! cluster so a cache can never silently serve readings for a different
//! workload. The serve daemon's hot tier is the same [`Lru`] under a
//! different key.
//!
//! Eviction is least-recently-used with a monotonic tick: ticks are
//! unique, so the eviction victim is deterministic and cache behavior
//! is identical across serial and parallel rollout runs (all cache
//! mutations happen in the serial commit phase of
//! [`crate::measure::SimEnv::evaluate_batch`]). The victim scan is
//! `O(len)` per eviction; with the default capacity and
//! millisecond-scale simulations this is noise, and it keeps the
//! structure a single `HashMap` with no intrusive list to maintain.

use crate::measure::EvalComputation;
use crate::placement::Placement;
use std::collections::HashMap;
use std::hash::Hash;

/// Default number of memoized evaluations ([`EvalCache::with_default_capacity`]).
pub const DEFAULT_CAPACITY: usize = 4096;

struct Entry<V> {
    value: V,
    last_used: u64,
}

/// Bounded least-recently-used map with hit/miss/eviction counters.
pub struct Lru<K, V> {
    map: HashMap<K, Entry<V>>,
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: Hash + Eq + Clone, V: Clone> Lru<K, V> {
    /// Empty cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "Lru capacity must be positive");
        Lru {
            map: HashMap::with_capacity(capacity.min(1024)),
            capacity,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Look up `key`, refreshing its recency and bumping the hit/miss
    /// statistics.
    pub fn get(&mut self, key: &K) -> Option<V> {
        self.tick += 1;
        match self.map.get_mut(key) {
            Some(entry) => {
                entry.last_used = self.tick;
                self.hits += 1;
                Some(entry.value.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Whether `key` is cached, *without* touching recency or the
    /// hit/miss statistics (used by the batch pre-pass to decide what
    /// to compute; the authoritative lookup happens at commit time).
    pub fn peek(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Insert (or overwrite) `key`, evicting the least-recently-used
    /// entry when full. Ticks are unique so the victim is deterministic.
    pub fn insert(&mut self, key: K, value: V) {
        self.tick += 1;
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            if let Some(victim) =
                self.map.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| k.clone())
            {
                self.map.remove(&victim);
                self.evictions += 1;
            }
        }
        self.map.insert(key, Entry { value, last_used: self.tick });
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entry is held.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Maximum entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// `(hits, misses, evictions)` since construction.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }

    /// Hit fraction over all lookups (0 when none were made).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// [`Lru`] from [`Placement`] to its evaluation result, bound to one
/// environment: `get` and `insert` take the caller's fingerprint and
/// panic on a foreign one. Reads that cannot serve a wrong reading
/// (`peek`, `len`, `stats`, …) pass straight through to the [`Lru`].
pub struct EvalCache {
    lru: Lru<Placement, EvalComputation>,
    fingerprint: u64,
}

impl std::ops::Deref for EvalCache {
    type Target = Lru<Placement, EvalComputation>;

    fn deref(&self) -> &Self::Target {
        &self.lru
    }
}

impl EvalCache {
    /// Empty cache holding at most `capacity` entries, bound to the
    /// environment identified by `fingerprint`
    /// (see [`crate::measure::env_fingerprint`]).
    pub fn new(capacity: usize, fingerprint: u64) -> Self {
        EvalCache { lru: Lru::new(capacity), fingerprint }
    }

    /// [`EvalCache::new`] with [`DEFAULT_CAPACITY`].
    pub fn with_default_capacity(fingerprint: u64) -> Self {
        Self::new(DEFAULT_CAPACITY, fingerprint)
    }

    fn check_fingerprint(&self, fingerprint: u64) {
        assert_eq!(
            self.fingerprint, fingerprint,
            "EvalCache used with a different graph/cluster than it was built for"
        );
    }

    /// [`Lru::get`]; `fingerprint` must match the one the cache was
    /// built with.
    pub fn get(&mut self, placement: &Placement, fingerprint: u64) -> Option<EvalComputation> {
        self.check_fingerprint(fingerprint);
        self.lru.get(placement)
    }

    /// [`Lru::insert`]; `fingerprint` must match the one the cache was
    /// built with.
    pub fn insert(&mut self, placement: Placement, value: EvalComputation, fingerprint: u64) {
        self.check_fingerprint(fingerprint);
        self.lru.insert(placement, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EvalOutcome;

    #[test]
    fn get_after_insert_returns_value_and_counts_hit() {
        let mut c = Lru::new(8);
        assert!(c.get(&(1, 2)).is_none());
        c.insert((1, 2), 0.5);
        assert_eq!(c.get(&(1, 2)), Some(0.5));
        assert_eq!(c.stats(), (1, 1, 0));
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = Lru::new(2);
        c.insert(0, 0.1);
        c.insert(1, 0.2);
        // Touch 0 so 1 becomes the LRU victim.
        assert!(c.get(&0).is_some());
        c.insert(2, 0.3);
        assert_eq!(c.len(), 2);
        assert!(c.peek(&0), "recently used entry survived");
        assert!(!c.peek(&1), "LRU entry evicted");
        assert!(c.peek(&2));
        assert_eq!(c.stats().2, 1, "one eviction");
    }

    #[test]
    fn reinserting_existing_key_does_not_evict() {
        let mut c = Lru::new(2);
        c.insert(0, 0.1);
        c.insert(1, 0.2);
        c.insert(0, 0.9); // overwrite, cache stays full
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().2, 0);
        assert_eq!(c.get(&0), Some(0.9), "overwritten entry");
    }

    #[test]
    fn peek_does_not_disturb_recency_or_stats() {
        let mut c = Lru::new(2);
        c.insert(0, 0.1);
        c.insert(1, 0.2);
        assert!(c.peek(&0));
        // peek(0) must NOT have refreshed it: 0 is still the LRU.
        c.insert(2, 0.3);
        assert!(!c.peek(&0));
        assert_eq!(c.stats(), (0, 0, 1));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = Lru::<u64, f64>::new(0);
    }

    #[test]
    #[should_panic(expected = "different graph/cluster")]
    fn fingerprint_mismatch_panics() {
        let comp = EvalComputation {
            outcome: EvalOutcome::Valid { per_step_s: 0.1 },
            machine_s: 2.0,
            makespan_s: 0.1,
            comm_s: 0.0,
            num_transfers: 0,
            peak_mem_utilization: 0.1,
        };
        EvalCache::new(2, 1).insert(Placement(vec![0]), comp, 2);
    }
}
