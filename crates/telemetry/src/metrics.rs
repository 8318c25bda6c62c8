//! Process-wide named metrics: counters and fixed-bucket histograms.
//!
//! Handles are looked up (and lazily created) by name; [`Counter`] and
//! [`Histogram`] are cheap `Arc` clones backed by atomics, so hot code
//! can resolve a handle once and bump it from any thread — including
//! the tensor crate's kernel thread pool.
//!
//! Snapshots feed the recorder's end-of-run summary records; [`reset`]
//! clears everything (done automatically when a recorder is installed
//! so each run's JSONL is self-contained).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing atomic counter.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram over `f64` observations.
///
/// `edges` are the inclusive upper bounds of the first `edges.len()`
/// buckets; one implicit overflow bucket catches everything larger, so
/// there are `edges.len() + 1` buckets in total.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramCore>);

struct HistogramCore {
    edges: Vec<f64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of observations, stored as `f64` bits behind a CAS loop.
    sum_bits: AtomicU64,
}

impl Histogram {
    /// Record one observation.
    pub fn observe(&self, v: f64) {
        let idx = self.0.edges.iter().position(|&e| v <= e).unwrap_or(self.0.edges.len());
        self.0.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.0.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.0.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Bucket upper edges (the overflow bucket has no edge).
    pub fn edges(&self) -> &[f64] {
        &self.0.edges
    }

    /// Per-bucket counts (`edges.len() + 1` entries, overflow last).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.0.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect()
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }
}

struct Registries {
    counters: Mutex<HashMap<String, Counter>>,
    histograms: Mutex<HashMap<String, Histogram>>,
}

fn registries() -> &'static Registries {
    static REG: OnceLock<Registries> = OnceLock::new();
    REG.get_or_init(|| Registries {
        counters: Mutex::new(HashMap::new()),
        histograms: Mutex::new(HashMap::new()),
    })
}

/// Look up (or create) the counter named `name`.
pub fn counter(name: &str) -> Counter {
    let mut reg = registries().counters.lock().unwrap_or_else(|e| e.into_inner());
    reg.entry(name.to_string()).or_insert_with(|| Counter(Arc::new(AtomicU64::new(0)))).clone()
}

/// Look up (or create) the histogram named `name` with the given bucket
/// upper edges. Edges must be non-empty and strictly increasing; they
/// are fixed on first creation and later calls ignore the argument.
pub fn histogram(name: &str, edges: &[f64]) -> Histogram {
    assert!(!edges.is_empty(), "histogram {name} needs at least one bucket edge");
    assert!(
        edges.windows(2).all(|w| w[0] < w[1]),
        "histogram {name} edges must be strictly increasing: {edges:?}"
    );
    let mut reg = registries().histograms.lock().unwrap_or_else(|e| e.into_inner());
    reg.entry(name.to_string())
        .or_insert_with(|| {
            Histogram(Arc::new(HistogramCore {
                edges: edges.to_vec(),
                buckets: (0..=edges.len()).map(|_| AtomicU64::new(0)).collect(),
                count: AtomicU64::new(0),
                sum_bits: AtomicU64::new(0f64.to_bits()),
            }))
        })
        .clone()
}

/// Sorted snapshot of every counter.
pub fn counter_snapshot() -> Vec<(String, u64)> {
    let reg = registries().counters.lock().unwrap_or_else(|e| e.into_inner());
    let mut rows: Vec<(String, u64)> = reg.iter().map(|(k, v)| (k.clone(), v.get())).collect();
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    rows
}

/// One histogram snapshot row: `(name, edges, bucket counts, total
/// count, sum)`.
pub type HistogramRow = (String, Vec<f64>, Vec<u64>, u64, f64);

/// Sorted snapshot of every histogram.
pub fn histogram_snapshot() -> Vec<HistogramRow> {
    let reg = registries().histograms.lock().unwrap_or_else(|e| e.into_inner());
    let mut rows: Vec<_> = reg
        .iter()
        .map(|(k, h)| (k.clone(), h.edges().to_vec(), h.bucket_counts(), h.count(), h.sum()))
        .collect();
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    rows
}

/// Drop every counter and histogram. Handles obtained before
/// the reset keep working but are no longer reachable by name.
pub fn reset() {
    let reg = registries();
    reg.counters.lock().unwrap_or_else(|e| e.into_inner()).clear();
    reg.histograms.lock().unwrap_or_else(|e| e.into_inner()).clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share_by_name() {
        let a = counter("test.metrics.shared");
        let b = counter("test.metrics.shared");
        a.inc();
        b.add(4);
        assert_eq!(counter("test.metrics.shared").get(), 5);
    }

    #[test]
    fn concurrent_counter_increments_are_lossless() {
        let c = counter("test.metrics.concurrent");
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("incrementer thread");
        }
        assert_eq!(c.get(), 8000);
    }

    #[test]
    fn histogram_bucket_edges_are_inclusive_upper_bounds() {
        let h = histogram("test.metrics.hist", &[1.0, 2.0, 4.0]);
        // Exactly on an edge lands in that edge's bucket.
        for v in [0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 100.0, f64::INFINITY] {
            h.observe(v);
        }
        assert_eq!(h.bucket_counts(), vec![2, 2, 2, 2]);
        assert_eq!(h.count(), 8);
        assert!(h.sum().is_infinite());
    }

    #[test]
    fn histogram_sum_accumulates() {
        let h = histogram("test.metrics.hist-sum", &[10.0]);
        h.observe(1.5);
        h.observe(2.25);
        assert!((h.sum() - 3.75).abs() < 1e-12);
        assert_eq!(h.bucket_counts(), vec![2, 0]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_edges() {
        let _ = histogram("test.metrics.bad-edges", &[2.0, 1.0]);
    }

    /// Boundary values land deterministically: an observation exactly
    /// on an edge belongs to that edge's bucket (inclusive upper
    /// bound), the next representable float above it overflows into
    /// the following bucket, and the extremes (0, -0, negatives, MAX,
    /// +inf) all have a well-defined home.
    #[test]
    fn histogram_boundary_values_bucket_exactly() {
        let h = histogram("test.metrics.boundary", &[0.0, 1.0, 10.0]);
        h.observe(0.0); // exactly on the first edge → bucket 0
        h.observe(-0.0); // -0 == 0 → bucket 0
        h.observe(-1.5); // below every edge → bucket 0
        h.observe(f64::MIN_POSITIVE); // just above 0 → bucket 1
        h.observe(1.0); // exactly on edge 1 → bucket 1
        h.observe(1.0 + f64::EPSILON); // nextafter(1) → bucket 2
        h.observe(10.0); // last finite edge → bucket 2
        h.observe(f64::MAX); // → overflow
        h.observe(f64::INFINITY); // → overflow
        assert_eq!(h.bucket_counts(), vec![3, 2, 2, 2]);
        assert_eq!(h.count(), 9);
        // NaN compares false against every edge → overflow bucket,
        // never a panic or a lost observation.
        h.observe(f64::NAN);
        assert_eq!(h.bucket_counts(), vec![3, 2, 2, 3]);
        assert_eq!(h.count(), 10);
    }

    /// Concurrent observers must keep count, bucket totals, and the
    /// CAS-looped sum exact — bucket sums equal the total count, and
    /// the f64 sum is order-independent because every observation is
    /// identical.
    #[test]
    fn concurrent_histogram_observations_are_lossless() {
        let h = histogram("test.metrics.hist-concurrent", &[0.5, 1.5]);
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        h.observe(1.0);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("observer thread");
        }
        assert_eq!(h.count(), 4000);
        assert_eq!(h.bucket_counts(), vec![0, 4000, 0]);
        assert_eq!(h.sum(), 4000.0, "CAS loop must not lose additions");
    }

    #[test]
    fn snapshots_contain_registered_names() {
        counter("test.metrics.snap").add(7);
        let _ = histogram("test.metrics.snap-hist", &[1.0]);
        assert!(counter_snapshot().iter().any(|(n, v)| n == "test.metrics.snap" && *v >= 7));
        assert!(histogram_snapshot().iter().any(|(n, ..)| n == "test.metrics.snap-hist"));
    }
}
