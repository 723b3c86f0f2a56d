//! Shared persistent worker pool for the compute kernels.
//!
//! All parallel tensor kernels go through [`ThreadPool::run`]: a fixed set of
//! `std::thread` workers parked on a condition variable, handed one job at a
//! time. The pool is designed around a *determinism contract*:
//!
//! - Work is partitioned into tasks by **fixed geometry** (chunk sizes and
//!   block extents are compile-time constants), never by thread count.
//! - Each task writes a disjoint region of the output, so scheduling order
//!   cannot affect results.
//! - Cross-task reductions accumulate per-task partials **in task-index
//!   order** on the calling thread.
//!
//! Under this contract every kernel produces bit-identical output for any
//! worker count, including 1 — which is what lets the PR-1 resume-exactness
//! guarantees survive parallel execution. *Who* executes the tasks is not
//! part of the geometry: `run` hands a job to the workers only when its
//! estimated cost reaches [`GRAIN`] (the dispatch rule, DESIGN §5b) and runs
//! it on the caller otherwise, with the same task partition either way.
//!
//! The global pool is sized from `EGERIA_THREADS` if set (clamped to
//! `[1, 256]`), otherwise [`std::thread::available_parallelism`]. The calling
//! thread always participates in task execution, so a pool of size `n` holds
//! `n - 1` worker threads and a size-1 pool runs everything inline.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// Fixed chunk length (in elements) for parallel elementwise and reduction
/// kernels. Part of the determinism contract: chunk geometry never depends
/// on thread count, so partial-sum association is stable.
pub const CHUNK: usize = 32 * 1024;

/// The dispatch grain: a job whose `tasks × cost` is below this runs inline
/// on the caller. The unit is one multiply-add flop of the blocked GEMM;
/// each kernel states its per-task `cost` to [`ThreadPool::run`] in it
/// (the streaming helpers below through `STREAM_COST`).
///
/// Calibrated against the measured break-even of a wake-up (DESIGN §5b
/// "Dispatch rule": forced dispatch ties the inline run at ≈ 128³ = 4 MFLOP
/// and only wins clearly from 256³ = 33 MFLOP) and set on the inline side of
/// it — a job kept inline can never lose, one dispatched too early loses up
/// to 3×.
pub const GRAIN: u64 = 1 << 23;

/// [`GRAIN`] units per element of a streaming (memory-bound) kernel: the
/// chunk helpers below cost a chunk at `CHUNK × STREAM_COST`. An element
/// streamed through `axpy` / an Adam update takes 0.3–0.8 ns on the
/// calibration host against 0.03–0.05 ns per GEMM flop, so the helpers
/// dispatch from 2¹⁹ elements (16 chunks, ≈ 150–400 µs) — the same
/// "twice the break-even" margin as the GEMM side.
const STREAM_COST: u64 = 16;

/// One `run` invocation's shared state. Lives on the dispatching caller's
/// stack; workers reach it through the pointer in [`Slot`].
struct Job {
    f: *const (dyn Fn(usize) + Sync),
    /// Next unclaimed task index.
    next: AtomicUsize,
    tasks: usize,
    panicked: AtomicBool,
}

impl Job {
    /// Runs task `i`, latching a panic instead of unwinding through the
    /// job: every sibling still runs and `run` re-raises at the end.
    fn run_task(&self, i: usize) {
        // SAFETY: `ThreadPool::run` keeps the closure borrow alive until
        // every thread that entered the job has left it, so the pointer is
        // valid for this deref.
        let f = unsafe { &*self.f };
        if catch_unwind(AssertUnwindSafe(|| f(i))).is_err() {
            self.panicked.store(true, Ordering::Relaxed);
        }
    }

    /// Claims and runs tasks until none remain: the loop of every thread
    /// inside a posted job.
    fn drain(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.tasks {
                return;
            }
            self.run_task(i);
        }
    }
}

/// The pool-owned handoff point between a dispatching caller and the
/// workers. One caller owns it from `post` to the end of `withdraw`
/// (`Slot::busy`), so `inside` and `idle` never serve two jobs at once.
struct Handoff {
    slot: Mutex<Slot>,
    /// Workers park here until a job is posted (or the pool shuts down).
    wake: Condvar,
    /// The dispatching caller parks here until the last worker has left its
    /// job.
    idle: Condvar,
}

struct Slot {
    /// Set by `post`, cleared by `withdraw` only once `inside` is back to
    /// zero: while it is set every other caller's `post` is refused.
    busy: bool,
    /// The job on offer, or null once its caller has drained its own share.
    /// Points into the dispatching caller's stack frame.
    job: *const Job,
    /// Bumped per posted job, so a worker that has drained a job does not
    /// re-enter it while the caller is still finishing its own share.
    seq: u64,
    /// Workers currently inside `job`.
    inside: usize,
    shutdown: bool,
}

// The only non-`Send` field is the `job` pointer; the rest are plain values.
// SAFETY: the pointee is shared-access only (atomics, a plain `tasks`, a
// `Sync` closure), and `run` keeps it alive until the slot no longer holds
// the pointer and `inside` is back to zero.
unsafe impl Send for Slot {}

impl Handoff {
    fn lock(&self) -> MutexGuard<'_, Slot> {
        // Tasks run outside the lock under `catch_unwind`, and no critical
        // section below can panic, so a poisoned lock still guards a
        // consistent slot.
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The worker loop: park until a new job is on offer, help drain it,
    /// report back, repeat.
    fn work(&self) {
        let mut seen = 0u64;
        let mut slot = self.lock();
        loop {
            if slot.shutdown {
                return;
            }
            if slot.job.is_null() || slot.seq == seen {
                slot = self.wake.wait(slot).unwrap_or_else(PoisonError::into_inner);
                continue;
            }
            seen = slot.seq;
            slot.inside += 1;
            let job = slot.job;
            drop(slot);
            IN_TASK.with(|t| t.set(true));
            // SAFETY: `inside` was raised under the lock while the slot still
            // held the pointer, and the caller that owns the job waits for
            // `inside == 0` before its frame goes away.
            unsafe { &*job }.drain();
            IN_TASK.with(|t| t.set(false));
            slot = self.lock();
            slot.inside -= 1;
            // A null slot means the caller has finished its own share and
            // is (or is about to be) parked on `idle`; `busy` keeps any
            // other caller out until it has woken, so one notify suffices.
            if slot.inside == 0 && slot.job.is_null() {
                self.idle.notify_one();
            }
        }
    }
}

thread_local! {
    /// Set while a thread is executing pool tasks; nested `run` calls from
    /// inside a task execute inline so kernels can freely compose (e.g. a
    /// per-image conv task calling the blocked GEMM) without inverting the
    /// fixed work partition.
    static IN_TASK: Cell<bool> = const { Cell::new(false) };
}

/// Occupancy counters a pool accumulates over its lifetime. Updated with
/// relaxed atomics on the dispatch path (not per task), so the cost is a
/// couple of uncontended increments per `run` call; read by the telemetry
/// layer to report pool task occupancy.
#[derive(Default)]
pub struct PoolStats {
    jobs: AtomicUsize,
    tasks: AtomicUsize,
    inline_jobs: AtomicUsize,
    small_jobs: AtomicUsize,
}

/// A point-in-time copy of a pool's [`PoolStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStatsSnapshot {
    /// `run` invocations handed to the workers.
    pub jobs: usize,
    /// Total tasks executed across all jobs (dispatched and inline).
    pub tasks: usize,
    /// `run` invocations that executed inline on the calling thread, for any
    /// reason: single-thread pool, single task, nested dispatch, below the
    /// grain, or the workers busy with another caller's job.
    pub inline_jobs: usize,
    /// The subset of `inline_jobs` that only the grain rule kept inline:
    /// multi-task, un-nested jobs on a multi-thread pool whose
    /// `tasks × cost` was under [`GRAIN`].
    pub small_jobs: usize,
}

/// A persistent worker pool. See the module docs for the determinism
/// contract all dispatched work must follow.
pub struct ThreadPool {
    handoff: Arc<Handoff>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
    grain: u64,
    stats: PoolStats,
}

impl ThreadPool {
    /// Creates a pool that executes with `threads` total threads (the caller
    /// plus `threads - 1` spawned workers). `0` is treated as `1`.
    pub fn new(threads: usize) -> Self {
        Self::build(threads, GRAIN)
    }

    /// A pool whose grain is 0, so every multi-task job crosses threads
    /// whatever its cost. For tests and benches that must exercise the
    /// handoff with small shapes; production pools come from [`Self::new`].
    #[doc(hidden)]
    pub fn with_zero_grain(threads: usize) -> Self {
        Self::build(threads, 0)
    }

    fn build(threads: usize, grain: u64) -> Self {
        let threads = threads.max(1);
        let handoff = Arc::new(Handoff {
            slot: Mutex::new(Slot {
                busy: false,
                job: std::ptr::null(),
                seq: 0,
                inside: 0,
                shutdown: false,
            }),
            wake: Condvar::new(),
            idle: Condvar::new(),
        });
        let workers = (0..threads - 1)
            .map(|i| {
                let handoff = Arc::clone(&handoff);
                std::thread::Builder::new()
                    .name(format!("egeria-pool-{i}"))
                    .spawn(move || handoff.work())
                    // egeria-lint: allow(no-panic-in-kernels, panic-reachable-from-kernel):
                    // failing to spawn a worker at pool construction is
                    // unrecoverable, and happens once at startup — never
                    // mid-train-step.
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool {
            handoff,
            workers,
            threads,
            grain,
            stats: PoolStats::default(),
        }
    }

    /// A snapshot of this pool's lifetime occupancy counters.
    pub fn stats(&self) -> PoolStatsSnapshot {
        PoolStatsSnapshot {
            jobs: self.stats.jobs.load(Ordering::Relaxed),
            tasks: self.stats.tasks.load(Ordering::Relaxed),
            inline_jobs: self.stats.inline_jobs.load(Ordering::Relaxed),
            small_jobs: self.stats.small_jobs.load(Ordering::Relaxed),
        }
    }

    /// The configured thread count (callers + workers).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(0)`, `f(1)`, …, `f(tasks - 1)` and blocks until all tasks
    /// have finished. `cost` is the caller's estimate of one task's work in
    /// [`GRAIN`] units; the job goes to the workers only when
    /// `tasks × cost` reaches the grain, and runs on the calling thread
    /// otherwise (as it does on a 1-thread pool, for a single task, and
    /// when nested inside another job's task).
    ///
    /// Tasks may run in any order on any thread; callers must ensure tasks
    /// write disjoint data (see the module-level determinism contract).
    /// A panic in a task is re-raised here after all tasks have completed,
    /// wherever they ran.
    pub fn run(&self, tasks: usize, cost: u64, f: &(dyn Fn(usize) + Sync)) {
        if tasks == 0 {
            return;
        }
        self.stats.tasks.fetch_add(tasks, Ordering::Relaxed);
        let f: &'static (dyn Fn(usize) + Sync) =
            // SAFETY: only erases the borrow's lifetime so a pointer to
            // `job` can sit in the handoff slot; `withdraw` below does not
            // return until no worker can still reach it.
            unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), _>(f) };
        // The job descriptor lives in this frame: a dispatch allocates
        // nothing.
        let job = Job {
            f,
            next: AtomicUsize::new(0),
            tasks,
            panicked: AtomicBool::new(false),
        };
        let could_dispatch = self.threads > 1 && tasks > 1 && !IN_TASK.with(|t| t.get());
        let small = (tasks as u64).saturating_mul(cost) < self.grain;
        if could_dispatch && small {
            self.stats.small_jobs.fetch_add(1, Ordering::Relaxed);
        }
        if could_dispatch && !small && self.post(&job) {
            self.stats.jobs.fetch_add(1, Ordering::Relaxed);
            IN_TASK.with(|t| t.set(true));
            job.drain();
            IN_TASK.with(|t| t.set(false));
            self.withdraw();
        } else {
            // Nobody else can see the job: no claiming needed.
            self.stats.inline_jobs.fetch_add(1, Ordering::Relaxed);
            for i in 0..tasks {
                job.run_task(i);
            }
        }
        if job.panicked.load(Ordering::Relaxed) {
            // egeria-lint: allow(no-panic-in-kernels, panic-reachable-from-kernel):
            // deliberate re-raise of a task's panic on the calling thread —
            // swallowing it would let a half-computed tensor flow onward;
            // the transitive reachability from every kernel entry is
            // exactly the point.
            panic!("egeria-tensor pool task panicked");
        }
    }

    /// Offers `job` to the workers and wakes as many as it has tasks for.
    /// Returns `false`, posting nothing, if another caller holds the slot.
    fn post(&self, job: &Job) -> bool {
        {
            let mut slot = self.handoff.lock();
            if slot.busy {
                return false;
            }
            slot.busy = true;
            slot.job = job;
            slot.seq += 1;
        }
        let helpers = self.workers.len().min(job.tasks - 1);
        if helpers == self.workers.len() {
            self.handoff.wake.notify_all();
        } else {
            for _ in 0..helpers {
                self.handoff.wake.notify_one();
            }
        }
        true
    }

    /// Called once the posting caller has drained its job (every task is
    /// claimed): withdraws the offer so no further worker enters, waits for
    /// those inside to finish what they claimed, and only then releases the
    /// slot to the next caller.
    fn withdraw(&self) {
        let mut slot = self.handoff.lock();
        slot.job = std::ptr::null();
        while slot.inside > 0 {
            slot = self
                .handoff
                .idle
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
        }
        slot.busy = false;
    }

    /// The process-wide pool used by all tensor kernels, sized from
    /// `EGERIA_THREADS` or the machine's available parallelism.
    pub fn global() -> &'static ThreadPool {
        static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
        GLOBAL.get_or_init(|| ThreadPool::new(default_threads()))
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.handoff.lock().shutdown = true;
        self.handoff.wake.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Thread count the global pool is created with: `EGERIA_THREADS` if set and
/// parseable, else available parallelism, else 1.
pub fn default_threads() -> usize {
    match std::env::var("EGERIA_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) => n.clamp(1, 256),
            Err(_) => hardware_threads(),
        },
        Err(_) => hardware_threads(),
    }
}

fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Raw mutable pointer that may cross threads; used to hand disjoint
/// sub-slices of one buffer to pool tasks.
#[derive(Clone, Copy)]
struct SendPtr(*mut f32);
// SAFETY: a SendPtr is only handed to pool tasks that write disjoint,
// in-bounds regions of the buffer it points into, and the dispatching call
// blocks until every task finishes — no aliasing or dangling access.
unsafe impl Send for SendPtr {}
// SAFETY: as for Send — concurrent tasks touch disjoint regions only.
unsafe impl Sync for SendPtr {}
impl SendPtr {
    /// Method (not field) access so closures capture the whole wrapper,
    /// keeping it `Sync` under edition-2021 disjoint capture.
    fn get(self) -> *mut f32 {
        self.0
    }
}

/// Applies `f(chunk_index, chunk)` to fixed-size chunks of `data` in
/// parallel. Chunk geometry is [`CHUNK`], independent of thread count.
pub fn for_each_chunk_mut(
    pool: &ThreadPool,
    data: &mut [f32],
    f: impl Fn(usize, &mut [f32]) + Sync,
) {
    let len = data.len();
    if len == 0 {
        return;
    }
    let tasks = len.div_ceil(CHUNK);
    let ptr = SendPtr(data.as_mut_ptr());
    pool.run(tasks, CHUNK as u64 * STREAM_COST, &|i| {
        let start = i * CHUNK;
        let end = (start + CHUNK).min(len);
        // SAFETY: chunk ranges are disjoint and in-bounds, and `data`
        // outlives the blocking `run` call.
        let chunk = unsafe { std::slice::from_raw_parts_mut(ptr.get().add(start), end - start) };
        f(i, chunk);
    });
}

/// Applies `f(chunk_of_dst, matching_chunk_of_src)` in parallel over fixed
/// [`CHUNK`]-sized chunks. `dst` and `src` must have equal length.
pub fn for_each_chunk_mut_zip(
    pool: &ThreadPool,
    dst: &mut [f32],
    src: &[f32],
    f: impl Fn(&mut [f32], &[f32]) + Sync,
) {
    // egeria-lint: allow(panic-reachable-from-kernel): geometry
    // precondition guarding the unsafe disjoint-chunk split below — a
    // length mismatch here must never reach the raw-pointer arithmetic.
    assert_eq!(dst.len(), src.len(), "zip chunk length mismatch");
    let len = dst.len();
    if len == 0 {
        return;
    }
    let tasks = len.div_ceil(CHUNK);
    let ptr = SendPtr(dst.as_mut_ptr());
    pool.run(tasks, CHUNK as u64 * STREAM_COST, &|i| {
        let start = i * CHUNK;
        let end = (start + CHUNK).min(len);
        // SAFETY: chunk ranges are disjoint and in-bounds, and `dst`
        // outlives the blocking `run` call.
        let d = unsafe { std::slice::from_raw_parts_mut(ptr.get().add(start), end - start) };
        f(d, &src[start..end]);
    });
}

/// Splits `data` into consecutive `item`-sized slices and applies
/// `f(item_index, item_slice)` in parallel — the dispatch used for
/// batch-parallel kernels (one task per batch element / image). `cost` is
/// one item's work in [`GRAIN`] units (see [`ThreadPool::run`]).
pub fn for_each_batch_mut(
    pool: &ThreadPool,
    data: &mut [f32],
    item: usize,
    cost: u64,
    f: impl Fn(usize, &mut [f32]) + Sync,
) {
    if item == 0 || data.is_empty() {
        return;
    }
    // egeria-lint: allow(panic-reachable-from-kernel): geometry
    // precondition guarding the unsafe disjoint-item split below — a
    // non-dividing length must never reach the raw-pointer arithmetic.
    assert_eq!(data.len() % item, 0, "batch dispatch length mismatch");
    let tasks = data.len() / item;
    let ptr = SendPtr(data.as_mut_ptr());
    pool.run(tasks, cost, &|i| {
        // SAFETY: item ranges are disjoint and in-bounds (length divides
        // evenly), and `data` outlives the blocking `run` call.
        let slice = unsafe { std::slice::from_raw_parts_mut(ptr.get().add(i * item), item) };
        f(i, slice);
    });
}

/// Deterministic parallel reduction: maps each fixed [`CHUNK`]-sized range
/// of `0..len` to a partial with `f`, then folds the partials **in chunk
/// order** on the calling thread. Bit-identical for every thread count.
pub fn reduce_chunks(pool: &ThreadPool, len: usize, f: impl Fn(std::ops::Range<usize>) -> f32 + Sync) -> f32 {
    if len == 0 {
        return 0.0;
    }
    let tasks = len.div_ceil(CHUNK);
    if tasks == 1 {
        return f(0..len);
    }
    let mut partials = vec![0.0f32; tasks];
    {
        let ptr = SendPtr(partials.as_mut_ptr());
        pool.run(tasks, CHUNK as u64 * STREAM_COST, &|i| {
            let start = i * CHUNK;
            let end = (start + CHUNK).min(len);
            // SAFETY: each task writes only its own in-bounds slot of the
            // partials buffer, which outlives the blocking `run` call.
            unsafe { *ptr.get().add(i) = f(start..end) };
        });
    }
    // Fixed left-to-right association, independent of scheduling.
    partials.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// A per-task cost that puts any multi-task job above the grain.
    const BIG: u64 = GRAIN;

    #[test]
    fn runs_every_task_exactly_once() {
        for threads in [1, 2, 4, 7] {
            let pool = ThreadPool::new(threads);
            // Sum of task indices: double-counted or skipped tasks change it.
            let sum = AtomicU64::new(0);
            for cost in [0, BIG] {
                sum.store(0, Ordering::Relaxed);
                pool.run(1000, cost, &|i| {
                    sum.fetch_add(i as u64 + 1, Ordering::Relaxed);
                });
                assert_eq!(sum.load(Ordering::Relaxed), 500_500, "threads={threads}");
            }
            assert_eq!(pool.stats().jobs, usize::from(threads > 1));
        }
    }

    #[test]
    fn zero_tasks_is_a_noop() {
        let pool = ThreadPool::new(4);
        pool.run(0, BIG, &|_| panic!("must not run"));
        assert_eq!(pool.stats(), PoolStatsSnapshot::default());
    }

    #[test]
    fn chunked_mutation_covers_whole_buffer() {
        let pool = ThreadPool::with_zero_grain(3);
        let mut data = vec![0.0f32; CHUNK * 2 + 17];
        for_each_chunk_mut(&pool, &mut data, |ci, chunk| {
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = (ci * CHUNK + j) as f32;
            }
        });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, i as f32);
        }
        assert_eq!(pool.stats().jobs, 1);
    }

    #[test]
    fn reduce_is_bit_identical_across_thread_counts() {
        let len = CHUNK * 3 + 123;
        let data: Vec<f32> = (0..len).map(|i| (i as f32 * 0.37).sin()).collect();
        let serial = reduce_chunks(&ThreadPool::new(1), len, |r| data[r].iter().sum());
        for threads in [2usize, 7, 8] {
            // Across threads (grain 0) and kept inline (default grain): the
            // chunk partition and fold order are the same either way.
            let crossing = ThreadPool::with_zero_grain(threads);
            let inline = ThreadPool::new(threads);
            for pool in [&crossing, &inline] {
                let r = reduce_chunks(pool, len, |r| data[r].iter().sum());
                assert_eq!(r.to_bits(), serial.to_bits(), "threads={threads}");
            }
            assert_eq!(crossing.stats().jobs, 1);
            assert_eq!(inline.stats().jobs, 0);
            assert_eq!(inline.stats().small_jobs, 1);
        }
    }

    #[test]
    fn grain_rule_edges() {
        let pool = ThreadPool::new(2);
        let tasks = 4usize;
        // Exactly at the grain dispatches; one unit under it stays inline.
        pool.run(tasks, GRAIN / tasks as u64, &|_| {});
        assert_eq!(pool.stats().jobs, 1);
        pool.run(tasks, GRAIN / tasks as u64 - 1, &|_| {});
        let s = pool.stats();
        assert_eq!((s.jobs, s.inline_jobs, s.small_jobs), (1, 1, 1));
        // `tasks × cost` saturates instead of wrapping round to "small".
        pool.run(tasks, u64::MAX / 2, &|_| {});
        assert_eq!(pool.stats().jobs, 2);
        // A single task never leaves the caller, whatever it costs, and
        // that is not the grain rule's doing.
        pool.run(1, u64::MAX, &|_| {});
        let s = pool.stats();
        assert_eq!((s.jobs, s.inline_jobs, s.small_jobs), (2, 2, 1));
        // Nor is anything on a 1-thread pool.
        let serial = ThreadPool::new(1);
        serial.run(tasks, 0, &|_| {});
        serial.run(tasks, u64::MAX, &|_| {});
        let s = serial.stats();
        assert_eq!((s.jobs, s.inline_jobs, s.small_jobs, s.tasks), (0, 2, 0, 8));
    }

    #[test]
    fn nested_run_executes_inline_without_deadlock() {
        let pool = ThreadPool::new(4);
        let inner = ThreadPool::new(4);
        let count = AtomicUsize::new(0);
        pool.run(8, BIG, &|_| {
            inner.run(8, BIG, &|_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
            // Nesting on the dispatching pool itself must not wait on the
            // slot its own outer job occupies.
            pool.run(8, BIG, &|_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(count.load(Ordering::Relaxed), 128);
        assert_eq!(pool.stats().jobs, 1);
        assert_eq!(pool.stats().inline_jobs, 8);
        let s = inner.stats();
        assert_eq!((s.jobs, s.inline_jobs, s.small_jobs), (0, 8, 0));
    }

    #[test]
    fn task_panic_is_reraised_after_all_siblings_finish() {
        let pool = ThreadPool::new(2);
        // Above the grain (across threads) and below it (on the caller).
        for cost in [BIG, 0] {
            let ran = AtomicUsize::new(0);
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.run(16, cost, &|i| {
                    if i == 2 {
                        panic!("boom");
                    }
                    ran.fetch_add(1, Ordering::Relaxed);
                });
            }));
            assert!(result.is_err());
            assert_eq!(ran.load(Ordering::Relaxed), 15, "cost={cost}");
            // Pool stays usable after a panic.
            let count = AtomicUsize::new(0);
            pool.run(4, cost, &|_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(count.load(Ordering::Relaxed), 4);
        }
        assert_eq!(pool.stats().jobs, 2);
    }

    #[test]
    fn busy_workers_leave_a_second_caller_inline() {
        use std::sync::mpsc;
        let pool = ThreadPool::new(2);
        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (entered_tx, release_rx) = (Mutex::new(entered_tx), Mutex::new(release_rx));
        std::thread::scope(|s| {
            // First caller: a dispatched job whose tasks block until told.
            s.spawn(|| {
                pool.run(2, BIG, &|_| {
                    entered_tx.lock().unwrap().send(()).unwrap();
                    release_rx.lock().unwrap().recv().unwrap();
                });
            });
            // Once a task is running the slot is taken.
            entered_rx.recv().unwrap();
            let count = AtomicUsize::new(0);
            pool.run(4, BIG, &|_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(count.load(Ordering::Relaxed), 4);
            release_tx.send(()).unwrap();
            release_tx.send(()).unwrap();
        });
        let s = pool.stats();
        assert_eq!((s.jobs, s.inline_jobs, s.small_jobs), (1, 1, 0));
    }

    #[test]
    fn concurrent_callers_never_lose_a_wakeup() {
        use std::sync::mpsc;
        use std::time::Duration;
        const CALLERS: usize = 4;
        const ROUNDS: usize = 500_000;
        // Back-to-back dispatches from several callers: the slot changes
        // hands while the previous owner may still be waking from `idle`.
        let pool = Arc::new(ThreadPool::with_zero_grain(3));
        let (done_tx, done_rx) = mpsc::channel();
        let callers: Vec<_> = (0..CALLERS)
            .map(|_| {
                let (pool, done_tx) = (Arc::clone(&pool), done_tx.clone());
                std::thread::spawn(move || {
                    let sum = AtomicU64::new(0);
                    for _ in 0..ROUNDS {
                        pool.run(3, 0, &|i| {
                            // Long enough that helpers are often still
                            // inside when the caller withdraws.
                            for k in 0..200u64 {
                                std::hint::black_box(k);
                            }
                            sum.fetch_add(i as u64 + 1, Ordering::Relaxed);
                        });
                    }
                    done_tx.send(sum.into_inner()).unwrap();
                })
            })
            .collect();
        for _ in 0..CALLERS {
            // A lost wake-up parks its caller for good: fail, don't hang.
            let sum = done_rx
                .recv_timeout(Duration::from_secs(60))
                .expect("a caller hung inside ThreadPool::run");
            assert_eq!(sum, ROUNDS as u64 * 6);
        }
        for c in callers {
            c.join().unwrap();
        }
        let s = pool.stats();
        assert_eq!(s.jobs + s.inline_jobs, CALLERS * ROUNDS);
        assert!(s.jobs > 0);
    }
}
