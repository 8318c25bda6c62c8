//! A small persistent thread pool for data-parallel kernels and
//! two-lane joins (the workspace's `rayon` replacement).
//!
//! [`par_chunks_mut`] splits a mutable output buffer into fixed-size
//! chunks and runs the same closure on each (the kernel shape); [`join`]
//! runs two closures, the second on a helper while the caller runs the
//! first. Both use one dispatch path. Every helper thread owns an atomic
//! job slot; after its last job it spins on that slot for `SPIN` and
//! then parks. A caller posts a job by one compare-and-swap on an idle
//! helper's slot (unparking it only if it sleeps), does its own share,
//! takes back a job no helper has claimed yet, and waits on the job's
//! atomic done counter for the rest. So no call ever waits for a helper
//! to become free: a caller that finds no idle helper — two daemon
//! handlers at once, a `join` inside a `par_chunks_mut` closure — does
//! the work itself. With `MARS_THREADS=1` (or one core) there are no
//! helpers and both calls are exactly their sequential loops.
//!
//! Pool threads are spawned once on first use and live for the process
//! lifetime. Panics inside a job are caught on the helper, forwarded to
//! the caller, and re-raised there after every lane has finished — the
//! borrow of the caller's stack never outlives the call.

use std::any::Any;
use std::cell::UnsafeCell;
use std::hint;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

/// How long a helper keeps polling its slot after a job before it
/// parks: long enough to bridge the serial gaps between the placer's
/// lanes and between a pretrain pass's products (a spinning helper picks
/// a job up in under a microsecond, a parked one in tens), short enough
/// that an idle pool costs no CPU.
const SPIN: Duration = Duration::from_micros(100);

/// Slot value of a helper with no job. Any other value is the address
/// of a posted [`Task`] or [`RUNNING`].
const IDLE: usize = 0;
/// Slot value while a helper runs the task it claimed.
const RUNNING: usize = 1;

type Payload = Box<dyn Any + Send + 'static>;

/// One posted job: a type-erased call on caller-owned data, and where
/// the helpers that ran it report. It lives on the posting caller's
/// stack, and that caller does not return (or unwind) before every
/// helper that claimed it has counted itself into `done`.
struct Task {
    call: unsafe fn(*const ()),
    data: *const (),
    done: AtomicUsize,
    panic: Mutex<Option<Payload>>,
}

// SAFETY: `call` is a plain fn pointer, `done` an atomic and `panic` a
// `Mutex` of a `Send` payload, all `Sync`. `data` is only dereferenced
// through `call`, and the two constructors of a `Task` bound what it
// points at: `par_chunks_mut` shares a `Shared` whose closure is `Sync`
// and whose chunks are disjoint, and `join` hands a `Lane` whose closure
// and result are `Send` to exactly one thread at a time.
unsafe impl Sync for Task {}

impl Task {
    fn new(call: unsafe fn(*const ()), data: *const ()) -> Self {
        Task { call, data, done: AtomicUsize::new(0), panic: Mutex::new(None) }
    }

    fn addr(&self) -> usize {
        self as *const Task as usize
    }

    /// Run the job here, keeping its panic (if any) in `self.panic`.
    fn run(&self) {
        // SAFETY: a task is run only by its caller, or by the one helper
        // that claimed it, while the caller keeps `data` alive.
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| unsafe { (self.call)(self.data) })) {
            self.panic.lock().unwrap_or_else(|e| e.into_inner()).get_or_insert(payload);
        }
    }

    /// Wait until `claimed` helpers have finished the job, then hand
    /// back the first panic any run of it raised. The `Acquire` load
    /// pairs with each helper's `Release` count, so the job's writes are
    /// visible once it returns.
    fn wait(&self, claimed: usize) -> Option<Payload> {
        let mut spins = 0u32;
        while self.done.load(Ordering::Acquire) < claimed {
            if spins < 1024 {
                spins += 1;
                hint::spin_loop();
            } else {
                thread::yield_now();
            }
        }
        self.panic.lock().unwrap_or_else(|e| e.into_inner()).take()
    }
}

/// One helper thread's mailbox, on its own cache line.
#[repr(align(64))]
struct Helper {
    slot: AtomicUsize,
    sleeping: AtomicBool,
    thread: OnceLock<Thread>,
}

impl Helper {
    /// Offer `task` to this helper; `false` if it already has a job.
    fn post(&self, task: &Task) -> bool {
        let posted =
            self.slot.compare_exchange(IDLE, task.addr(), Ordering::SeqCst, Ordering::Relaxed);
        if posted.is_err() {
            return false;
        }
        // Pairs with the helper's `sleeping` store and slot re-check
        // before it parks: one of the two sees the other.
        if self.sleeping.load(Ordering::SeqCst) {
            if let Some(t) = self.thread.get() {
                t.unpark();
            }
        }
        true
    }

    /// Take `task` back if this helper holds it unclaimed. `Relaxed`
    /// suffices: a taken-back job was never seen by the helper, and when
    /// the helper did claim it the caller synchronises through
    /// [`Task::wait`] instead.
    fn retract(&self, task: &Task) -> bool {
        let addr = task.addr();
        self.slot.load(Ordering::Relaxed) == addr
            && self.slot.compare_exchange(addr, IDLE, Ordering::Relaxed, Ordering::Relaxed).is_ok()
    }

    /// The helper thread's loop: wait for a posted task, claim it, run
    /// it, report.
    fn serve(&self) {
        let _ = self.thread.set(thread::current());
        loop {
            let addr = self.next_post();
            // `Acquire` pairs with the poster's compare-and-swap, which
            // published the task record.
            if self
                .slot
                .compare_exchange(addr, RUNNING, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
            {
                continue; // taken back by its caller
            }
            // SAFETY: the caller keeps the task alive until `done`
            // counts this claim.
            let task = unsafe { &*(addr as *const Task) };
            task.run();
            // Free the slot before reporting, so the caller's next post
            // finds this helper idle.
            self.slot.store(IDLE, Ordering::Release);
            task.done.fetch_add(1, Ordering::Release);
        }
    }

    /// Spin on the slot for [`SPIN`], then park until a post arrives.
    fn next_post(&self) -> usize {
        let start = Instant::now();
        loop {
            let addr = self.slot.load(Ordering::Acquire);
            if addr != IDLE {
                return addr;
            }
            if start.elapsed() < SPIN {
                hint::spin_loop();
                continue;
            }
            self.sleeping.store(true, Ordering::SeqCst);
            while self.slot.load(Ordering::SeqCst) == IDLE {
                thread::park();
            }
            self.sleeping.store(false, Ordering::SeqCst);
        }
    }
}

fn helper_count() -> usize {
    let hw = std::env::var("MARS_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| thread::available_parallelism().map(|n| n.get()).unwrap_or(1));
    hw.saturating_sub(1)
}

/// The helpers beyond the caller, started on first use.
fn helpers() -> &'static [Helper] {
    static POOL: OnceLock<&'static [Helper]> = OnceLock::new();
    POOL.get_or_init(|| {
        let helpers: &'static [Helper] = Box::leak(
            (0..helper_count())
                .map(|_| Helper {
                    slot: AtomicUsize::new(IDLE),
                    sleeping: AtomicBool::new(false),
                    thread: OnceLock::new(),
                })
                .collect(),
        );
        for (w, helper) in helpers.iter().enumerate() {
            thread::Builder::new()
                .name(format!("mars-pool-{w}"))
                .spawn(move || helper.serve())
                .expect("spawn pool worker");
        }
        helpers
    })
}

/// Everything a chunk-claiming participant needs, shared by address and
/// type-erased so a [`Task`] never names the caller's closure type.
/// `data` chunks are disjoint because each index is claimed exactly once
/// through the atomic counter.
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

/// # Safety
/// `shared` points at a live [`Shared`] (see [`Shared::run`]).
unsafe fn run_shared(shared: *const ()) {
    (*(shared as *const Shared)).run()
}

/// # Safety
/// `f` points at a live `F`.
unsafe fn call_closure<F: Fn(usize, &mut [f32])>(f: *const (), i: usize, chunk: &mut [f32]) {
    (*(f as *const F))(i, chunk)
}

/// Threads a [`par_chunks_mut`] call can run on: the pool's helpers
/// plus the caller (`MARS_THREADS`, else the machine's parallelism).
pub fn threads() -> usize {
    helpers().len() + 1
}

/// Run `f(chunk_index, chunk)` over `data` split into `chunk_len`-sized
/// pieces (last piece may be shorter), distributing chunks across the
/// pool. Equivalent to
/// `data.chunks_mut(chunk_len).enumerate().for_each(...)` — including
/// observable panics — but parallel when a helper is free.
pub fn par_chunks_mut<F>(data: &mut [f32], chunk_len: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    let chunk_len = chunk_len.max(1);
    let chunks = data.len().div_ceil(chunk_len);
    let pool = helpers();
    let wanted = pool.len().min(chunks.saturating_sub(1));
    if wanted == 0 {
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
        return;
    }

    let shared = Shared {
        data: data.as_mut_ptr(),
        len: data.len(),
        chunk_len,
        chunks,
        next: AtomicUsize::new(0),
        f: &f as *const F as *const (),
        call: call_closure::<F>,
    };
    let task = Task::new(run_shared, &shared as *const Shared as *const ());
    let mut posted = 0;
    for helper in pool {
        if posted == wanted {
            break;
        }
        posted += usize::from(helper.post(&task));
    }
    // Only a dispatch posted to a helper is spanned. When every helper
    // is busy (this call runs inside a `join` lane, say) the caller runs
    // all chunks, and that time stays in the calling kernel's own span,
    // as the sequential fallback's does.
    let _span = (posted > 0).then(|| mars_telemetry::span("tensor.pool.par_chunks_mut"));
    task.run();
    let taken_back = pool.iter().filter(|h| h.retract(&task)).count();
    if let Some(payload) = task.wait(posted - taken_back) {
        resume_unwind(payload);
    }
}

/// The second lane of a [`join`]: its closure until run, then its result.
struct Lane<B, R> {
    f: UnsafeCell<Option<B>>,
    out: UnsafeCell<Option<R>>,
}

/// # Safety
/// `lane` points at a live `Lane<B, R>` that no other thread touches
/// until this returns.
unsafe fn run_lane<B: FnOnce() -> R, R>(lane: *const ()) {
    let lane = &*(lane as *const Lane<B, R>);
    let f = (*lane.f.get()).take().expect("a join lane runs once");
    *lane.out.get() = Some(f());
}

/// Run `a` on the calling thread and `b` on an idle helper, and return
/// both results. When no helper is idle — `MARS_THREADS=1`, another
/// caller holds it, or this call is itself inside a pool job — or none
/// has picked `b` up by the time `a` returns, the caller runs `b` itself
/// after `a`. Either way each closure runs exactly once, and a panic in
/// either reaches the caller only after both have finished (`a`'s first).
///
/// `b` runs concurrently with `a`: it must write only memory `a` does
/// not touch, which the borrow checker enforces for safe code.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB + Send,
    RB: Send,
{
    let lane = Lane { f: UnsafeCell::new(Some(b)), out: UnsafeCell::new(None) };
    let task = Task::new(run_lane::<B, RB>, &lane as *const Lane<B, RB> as *const ());
    let helper = helpers().iter().find(|h| h.post(&task));
    let ra = catch_unwind(AssertUnwindSafe(a));
    let panic_b = match helper {
        Some(h) if !h.retract(&task) => task.wait(1),
        _ => {
            task.run();
            task.panic.lock().unwrap_or_else(|e| e.into_inner()).take()
        }
    };
    let ra = ra.unwrap_or_else(|payload| resume_unwind(payload));
    if let Some(payload) = panic_b {
        resume_unwind(payload);
    }
    (ra, lane.out.into_inner().expect("the join lane ran"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

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

    #[test]
    fn join_runs_each_closure_exactly_once() {
        for round in 0..200 {
            let (runs_a, runs_b) = (AtomicU32::new(0), AtomicU32::new(0));
            let (ra, rb) = join(
                || {
                    runs_a.fetch_add(1, Ordering::Relaxed);
                    round * 2
                },
                || {
                    runs_b.fetch_add(1, Ordering::Relaxed);
                    vec![round; 3]
                },
            );
            assert_eq!((ra, rb), (round * 2, vec![round; 3]));
            assert_eq!(runs_a.load(Ordering::Relaxed), 1, "round {round}");
            assert_eq!(runs_b.load(Ordering::Relaxed), 1, "round {round}");
        }
    }

    /// Panic in each lane in turn: the payload must reach the caller
    /// only after the other lane has finished. When `a` panics, `b` is
    /// held until `a` is about to, so a helper running `b` is still busy
    /// at that moment; run inline, `b` finds the flag already up.
    fn panic_in_each_lane() {
        for panicking_lane in ["a", "b"] {
            let finished = AtomicU32::new(0);
            let a_panicking = AtomicBool::new(false);
            let result = catch_unwind(AssertUnwindSafe(|| {
                join(
                    || {
                        if panicking_lane == "a" {
                            a_panicking.store(true, Ordering::SeqCst);
                            panic!("deliberate panic in lane a");
                        }
                        finished.fetch_add(1, Ordering::SeqCst);
                    },
                    || {
                        if panicking_lane == "b" {
                            panic!("deliberate panic in lane b");
                        }
                        while !a_panicking.load(Ordering::SeqCst) {
                            hint::spin_loop();
                        }
                        finished.fetch_add(1, Ordering::SeqCst);
                    },
                )
            }));
            let payload = result.expect_err("the lane's panic must reach the caller");
            let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
            assert_eq!(msg, format!("deliberate panic in lane {panicking_lane}"));
            assert_eq!(finished.load(Ordering::SeqCst), 1, "lane {panicking_lane} panicked");
        }
    }

    #[test]
    fn join_panics_after_both_lanes_finish() {
        // On a helper when one is idle, and inline while an outer lane
        // holds the helper (see `join_with_the_helper_busy_runs_inline`).
        panic_in_each_lane();
        let inner_done = AtomicBool::new(false);
        join(
            || {
                let checked = catch_unwind(panic_in_each_lane);
                inner_done.store(true, Ordering::SeqCst);
                checked.unwrap_or_else(|payload| resume_unwind(payload));
            },
            || {
                while !inner_done.load(Ordering::SeqCst) {
                    hint::spin_loop();
                }
            },
        );
        // The pool still works afterwards.
        assert_eq!(join(|| 1, || 2), (1, 2));
        let mut data = vec![0.0f32; 64];
        par_chunks_mut(&mut data, 4, |_, chunk| chunk.fill(3.0));
        assert!(data.iter().all(|&v| v == 3.0));
    }

    #[test]
    fn join_with_the_helper_busy_runs_inline() {
        // The outer `b` holds the helper (posted or running) until the
        // inner join has returned, so the inner join finds no idle
        // helper and must finish on the calling thread. `a` never waits
        // for `b`, so no schedule can deadlock, with or without helpers.
        let caller = thread::current().id();
        let inner_done = AtomicBool::new(false);
        let (inner, ()) = join(
            || {
                let lanes = join(|| thread::current().id(), || thread::current().id());
                inner_done.store(true, Ordering::SeqCst);
                lanes
            },
            || {
                while !inner_done.load(Ordering::SeqCst) {
                    hint::spin_loop();
                }
            },
        );
        // With more than one helper the inner `b` may run on another.
        if helpers().len() <= 1 {
            assert_eq!(inner, (caller, caller));
        }
    }

    #[test]
    fn concurrent_callers_share_the_helpers() {
        // Two threads dispatching at once, as two daemon handlers do:
        // each call either gets a helper or runs inline, and every
        // result is complete and exact.
        std::thread::scope(|scope| {
            for caller in 0..2u32 {
                scope.spawn(move || {
                    let mut data = vec![0.0f32; 96];
                    for round in 0..500u32 {
                        let (a, b) = join(|| round + caller, || round * 2 + caller);
                        assert_eq!((a, b), (round + caller, round * 2 + caller));
                        par_chunks_mut(&mut data, 8, |i, chunk| {
                            chunk.fill((i as u32 + round) as f32)
                        });
                        for (k, &v) in data.iter().enumerate() {
                            assert_eq!(v, (k / 8) as f32 + round as f32, "caller {caller}");
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn join_inside_a_par_chunks_closure_finishes() {
        let mut data = vec![0.0f32; 64];
        par_chunks_mut(&mut data, 8, |i, chunk| {
            let (left, right) = chunk.split_at_mut(4);
            join(|| left.fill(i as f32), || right.fill(-(i as f32)));
        });
        for (k, &v) in data.iter().enumerate() {
            let i = (k / 8) as f32;
            assert_eq!(v, if k % 8 < 4 { i } else { -i }, "element {k}");
        }
    }
}
