//! Telemetry counters bumped from inside the tensor thread pool: the
//! atomic counter must see every increment exactly once, no matter how
//! the chunks are distributed across pool workers.

use mars_tensor::pool::par_chunks_mut;

#[test]
fn counter_increments_from_pool_workers_are_exact() {
    let counter = mars_telemetry::counter("test.pool.chunks");
    let before = counter.get();

    let chunk_len = 7;
    let mut data = vec![0.0f32; 10_007]; // non-multiple of chunk_len
    let chunks = data.len().div_ceil(chunk_len) as u64;
    par_chunks_mut(&mut data, chunk_len, |_, chunk| {
        mars_telemetry::counter("test.pool.chunks").inc();
        mars_telemetry::counter("test.pool.elems").add(chunk.len() as u64);
    });

    assert_eq!(counter.get() - before, chunks);
}

#[test]
fn element_counts_from_pool_workers_are_exact() {
    let counter = mars_telemetry::counter("test.pool.elems_exact");
    let before = counter.get();

    let mut data = vec![0.0f32; 4_099];
    let total = data.len() as u64;
    par_chunks_mut(&mut data, 13, |_, chunk| {
        mars_telemetry::counter("test.pool.elems_exact").add(chunk.len() as u64);
    });

    assert_eq!(counter.get() - before, total);
}

/// Histogram observations from eight contending threads: the
/// CAS-summed `sum` and the per-bucket atomics must account for every
/// observation exactly, with each value in its own bucket.
#[test]
fn histogram_observations_under_contention_are_exact() {
    const TASKS: usize = 1_000;
    let edges = [10.0, 100.0, 1_000.0];
    let hist = mars_telemetry::histogram("test.pool.tasks_hist", &edges);
    let (count0, buckets0, sum0) = (hist.count(), hist.bucket_counts(), hist.sum());

    // Task i observes i as f64: 0..=10 land in bucket 0, 11..=100 in
    // bucket 1, 101..=1000 in bucket 2. Integer-valued partial sums
    // stay below 2^53, so every CAS addition is exact in any order
    // and the total must come out to exactly Σ i.
    std::thread::scope(|scope| {
        for w in 0..8 {
            scope.spawn(move || {
                for i in (w..=TASKS).step_by(8) {
                    mars_telemetry::histogram("test.pool.tasks_hist", &edges).observe(i as f64);
                }
            });
        }
    });

    assert_eq!(hist.count() - count0, (TASKS + 1) as u64);
    let delta: Vec<u64> =
        hist.bucket_counts().iter().zip(&buckets0).map(|(b, b0)| b - b0).collect();
    assert_eq!(delta, vec![11, 90, 900, 0], "bucket totals under contention");
    let expected: f64 = (0..=TASKS).map(|i| i as f64).sum();
    assert_eq!((hist.sum() - sum0).to_bits(), expected.to_bits(), "summed total is lossless");
}
