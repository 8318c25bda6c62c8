//! A small persistent thread pool for data-parallel kernels (the
//! workspace's `rayon` replacement).
//!
//! [`par_chunks_mut`] splits a mutable output buffer into fixed-size
//! chunks and runs the same closure on each (the kernel shape). Work is
//! distributed by an atomic chunk counter; the calling thread
//! participates, so on a single-core machine (or when `MARS_THREADS=1`)
//! execution is exactly the sequential loop. Pool threads are spawned
//! once on first use and live for the process lifetime, parked on a
//! shared job channel.
//!
//! Panics inside the closure are caught on each worker, forwarded to
//! the caller, and re-raised there after every helper has finished —
//! the borrow of the caller's stack never outlives the call.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Pool {
    tx: Sender<Job>,
    /// Helper threads beyond the caller.
    helpers: usize,
}

fn helper_count() -> usize {
    let hw = std::env::var("MARS_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| thread::available_parallelism().map(|n| n.get()).unwrap_or(1));
    hw.saturating_sub(1)
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let helpers = helper_count();
        let (tx, rx) = channel::<Job>();
        let rx: Arc<Mutex<Receiver<Job>>> = Arc::new(Mutex::new(rx));
        for w in 0..helpers {
            let rx = Arc::clone(&rx);
            thread::Builder::new()
                .name(format!("mars-pool-{w}"))
                .spawn(move || loop {
                    let job = {
                        let guard = rx.lock().unwrap_or_else(|e| e.into_inner());
                        guard.recv()
                    };
                    match job {
                        Ok(job) => job(),
                        Err(_) => break, // channel closed: process exit
                    }
                })
                .expect("spawn pool worker");
        }
        Pool { tx, helpers }
    })
}

/// Everything a work-stealing participant needs, shared by address and
/// fully type-erased so pool jobs (which must be `'static`) never name
/// the caller's closure type. `data` chunks are disjoint because each
/// index is claimed exactly once through the atomic counter.
struct Shared {
    data: *mut f32,
    len: usize,
    chunk_len: usize,
    chunks: usize,
    next: AtomicUsize,
    /// Address of the caller's `F` closure.
    f: *const (),
    /// Monomorphized trampoline that downcasts `f` back to `&F`.
    call: unsafe fn(*const (), usize, &mut [f32]),
}

unsafe impl Sync for Shared {}

impl Shared {
    /// # Safety
    /// `self.f`/`self.data` must still be live, i.e. the owning
    /// `par_chunks_mut` call must not have returned.
    unsafe fn run(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.chunks {
                break;
            }
            let start = i * self.chunk_len;
            let end = (start + self.chunk_len).min(self.len);
            let chunk = std::slice::from_raw_parts_mut(self.data.add(start), end - start);
            (self.call)(self.f, i, chunk);
        }
    }
}

unsafe fn call_closure<F: Fn(usize, &mut [f32])>(f: *const (), i: usize, chunk: &mut [f32]) {
    (*(f as *const F))(i, chunk)
}

/// Run `f(chunk_index, chunk)` over `data` split into `chunk_len`-sized
/// pieces (last piece may be shorter), distributing chunks across the
/// pool. Equivalent to
/// `data.chunks_mut(chunk_len).enumerate().for_each(...)` — including
/// observable panics — but parallel when the machine has spare cores.
pub fn par_chunks_mut<F>(data: &mut [f32], chunk_len: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    let chunk_len = chunk_len.max(1);
    let chunks = data.len().div_ceil(chunk_len);
    let p = pool();
    let helpers = p.helpers.min(chunks.saturating_sub(1));
    if helpers == 0 {
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
        return;
    }

    // Only the parallel dispatch is spanned; the sequential fallback
    // above is attributed to the calling kernel's own span.
    let _span = mars_telemetry::span("tensor.pool.par_chunks_mut");
    let shared = Shared {
        data: data.as_mut_ptr(),
        len: data.len(),
        chunk_len,
        chunks,
        next: AtomicUsize::new(0),
        f: &f as *const F as *const (),
        call: call_closure::<F>,
    };
    let (done_tx, done_rx) = channel();
    for _ in 0..helpers {
        // Lifetime erasure: ship the address of the stack-held `shared`
        // to pool threads. Sound because this function does not return
        // (or unwind) until every helper has reported done below.
        let addr = &shared as *const Shared as usize;
        let tx = done_tx.clone();
        let job: Job = Box::new(move || {
            let result = catch_unwind(AssertUnwindSafe(|| unsafe {
                (*(addr as *const Shared)).run();
            }));
            let _ = tx.send(result);
        });
        p.tx.send(job).expect("pool job channel closed");
    }

    let mut first_panic = catch_unwind(AssertUnwindSafe(|| unsafe { shared.run() })).err();
    for _ in 0..helpers {
        match done_rx.recv().expect("pool worker vanished mid-job") {
            Ok(()) => {}
            Err(payload) => {
                first_panic.get_or_insert(payload);
            }
        }
    }
    if let Some(payload) = first_panic {
        resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_every_chunk_exactly_once() {
        let mut data = vec![0.0f32; 1003]; // non-multiple of chunk_len
        par_chunks_mut(&mut data, 10, |i, chunk| {
            for v in chunk.iter_mut() {
                *v += 1.0 + i as f32;
            }
        });
        for (k, &v) in data.iter().enumerate() {
            assert_eq!(v, 1.0 + (k / 10) as f32, "element {k}");
        }
    }

    #[test]
    fn matches_sequential_loop() {
        let n = 64;
        let mut par = vec![0.0f32; n * n];
        let mut seq = vec![0.0f32; n * n];
        let fill = |i: usize, chunk: &mut [f32]| {
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = ((i * 31 + j) as f32 * 0.01).sin();
            }
        };
        par_chunks_mut(&mut par, n, fill);
        for (i, chunk) in seq.chunks_mut(n).enumerate() {
            fill(i, chunk);
        }
        assert_eq!(par, seq);
    }

    #[test]
    fn empty_and_single_chunk_inputs() {
        let mut empty: Vec<f32> = vec![];
        par_chunks_mut(&mut empty, 8, |_, _| panic!("must not be called"));
        let mut one = vec![1.0f32; 4];
        par_chunks_mut(&mut one, 8, |i, chunk| {
            assert_eq!(i, 0);
            assert_eq!(chunk.len(), 4);
            chunk[0] = 9.0;
        });
        assert_eq!(one[0], 9.0);
    }

    #[test]
    fn propagates_worker_panics() {
        let mut data = vec![0.0f32; 100];
        let result = catch_unwind(AssertUnwindSafe(|| {
            par_chunks_mut(&mut data, 1, |i, _| {
                if i == 57 {
                    panic!("deliberate kernel panic");
                }
            });
        }));
        assert!(result.is_err(), "panic inside the closure must reach the caller");
        // The pool must still be usable afterwards.
        par_chunks_mut(&mut data, 1, |_, chunk| chunk[0] = 1.0);
        assert!(data.iter().all(|&v| v == 1.0));
    }
}
