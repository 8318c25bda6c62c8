//! Where a pooled call's time lands when no helper is free: a
//! `par_chunks_mut` inside a `join` lane, while the helper runs the
//! other lane, runs every chunk on the caller and opens no
//! `tensor.pool.par_chunks_mut` span, so its time stays the calling
//! span's self time. The same call with the helper free is the control:
//! it records the span.
//!
//! Its own binary: the pool reads `MARS_THREADS` once per process, and
//! this test needs exactly one helper that nothing else keeps busy.

use mars_telemetry::spans::{self, SpanStat};
use mars_tensor::pool::{join, par_chunks_mut, threads};
use std::hint::spin_loop;
use std::sync::atomic::{AtomicBool, Ordering};

fn pooled_work(data: &mut [f32]) {
    par_chunks_mut(data, 64, |i, chunk| {
        for x in chunk.iter_mut() {
            *x += i as f32;
        }
    });
}

fn stat(path: &str) -> Option<SpanStat> {
    spans::snapshot().into_iter().find(|(p, _)| p == path).map(|(_, s)| s)
}

#[test]
fn a_call_inside_a_busy_join_records_no_pool_span() {
    std::env::set_var("MARS_THREADS", "2");
    assert_eq!(threads(), 2, "one helper beside the caller");
    mars_telemetry::enable_spans(true);
    let mut data = vec![0.0f32; 64 * 64];

    // Lane `a` waits until the helper is inside lane `b`, and `b` holds
    // the helper until `a` is done: `a`'s pooled call finds no helper.
    let (b_running, a_done) = (AtomicBool::new(false), AtomicBool::new(false));
    join(
        || {
            while !b_running.load(Ordering::Acquire) {
                spin_loop();
            }
            let _lane = mars_telemetry::span("test.lane");
            pooled_work(&mut data);
            a_done.store(true, Ordering::Release);
        },
        || {
            b_running.store(true, Ordering::Release);
            while !a_done.load(Ordering::Acquire) {
                spin_loop();
            }
        },
    );
    {
        let _free = mars_telemetry::span("test.free");
        pooled_work(&mut data);
    }
    mars_telemetry::enable_spans(false);

    let lane = stat("test.lane").expect("the lane's span");
    assert!(stat("test.lane/tensor.pool.par_chunks_mut").is_none(), "no helper took part");
    assert_eq!(lane.self_ns, lane.total_ns, "the lane's pooled call is its own time");
    let free = stat("test.free/tensor.pool.par_chunks_mut").expect("a free helper is spanned");
    assert_eq!(free.count, 1);
    assert!(data.iter().enumerate().all(|(k, &x)| x == 2.0 * (k / 64) as f32));
}
