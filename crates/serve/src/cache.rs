//! Hot tier: bounded in-memory LRU from query key to device ranking.
//!
//! The key is the `(graph fingerprint, cluster fingerprint)` pair, so
//! one cache serves every workload and cluster a client throws at it.
//! Values are `Arc`-shared so a hit never copies the ranking and
//! concurrent responders can hold it while the cache keeps evolving.
//!
//! Eviction is least-recently-used with a monotonic tick: ticks are
//! unique, so the eviction victim is deterministic and cache behavior
//! is a function of the request sequence alone. The victim scan is
//! `O(len)` per eviction, which keeps the structure a single `HashMap`
//! with no intrusive list to maintain.
//!
//! Eviction can only ever cause a re-landing — never a different
//! answer, and never a second forward — because an evicted key is
//! filled again from the ranking its graph's entry remembers (pinned by
//! the eviction test in `engine.rs`).

use crate::engine::Ranking;
use std::collections::HashMap;
use std::hash::Hash;

/// Cache key: `(graph fingerprint, cluster fingerprint)`
/// (see [`crate::fingerprint`]).
pub type Key = (u64, u64);

/// Bounded LRU map from [`Key`] to the full device [`Ranking`].
pub type PlacementCache = Lru<Key, Ranking>;

struct Entry<V> {
    value: V,
    last_used: u64,
}

/// Bounded least-recently-used map.
pub struct Lru<K, V> {
    map: HashMap<K, Entry<V>>,
    capacity: usize,
    tick: u64,
}

impl<K: Hash + Eq + Clone, V: Clone> Lru<K, V> {
    /// Empty cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "Lru capacity must be positive");
        Lru { map: HashMap::with_capacity(capacity.min(1024)), capacity, tick: 0 }
    }

    /// Look up `key`, refreshing its recency.
    pub fn get(&mut self, key: &K) -> Option<V> {
        self.tick += 1;
        let entry = self.map.get_mut(key)?;
        entry.last_used = self.tick;
        Some(entry.value.clone())
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
            }
        }
        self.map.insert(key, Entry { value, last_used: self.tick });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_after_insert_returns_value() {
        let mut c = Lru::new(8);
        assert!(c.get(&(1, 2)).is_none());
        c.insert((1, 2), 0.5);
        assert_eq!(c.get(&(1, 2)), Some(0.5));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = Lru::new(2);
        c.insert(0, 0.1);
        c.insert(1, 0.2);
        // Touch 0 so 1 becomes the LRU victim.
        assert!(c.get(&0).is_some());
        c.insert(2, 0.3);
        assert!(c.get(&0).is_some(), "recently used entry survived");
        assert!(c.get(&1).is_none(), "LRU entry evicted");
        assert!(c.get(&2).is_some());
    }

    #[test]
    fn capacity_one_evicts_on_every_distinct_insert() {
        let mut c = Lru::new(1);
        c.insert(1, 0.1);
        c.insert(2, 0.2);
        assert!(c.get(&2).is_some() && c.get(&1).is_none());
    }

    #[test]
    fn reinserting_existing_key_does_not_evict() {
        let mut c = Lru::new(2);
        c.insert(0, 0.1);
        c.insert(1, 0.2);
        c.insert(0, 0.9); // overwrite, cache stays full
        assert_eq!(c.get(&0), Some(0.9), "overwritten entry");
        assert_eq!(c.get(&1), Some(0.2), "nothing was evicted");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = Lru::<u64, f64>::new(0);
    }
}
