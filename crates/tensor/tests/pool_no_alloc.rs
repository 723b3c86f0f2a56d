//! A dispatched `ThreadPool::run` performs no heap allocation: the job
//! descriptor lives on the caller's stack and completion goes through
//! pool-owned state (DESIGN §5b "Pool lifecycle").
//!
//! One test in its own binary, so the process-wide counting allocator sees
//! only this test's threads: the caller, the pool's workers, and libtest's
//! main thread parked on the result channel.

use egeria_tensor::ThreadPool;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Barrier;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: defers every call unchanged to the system allocator; the counter
// touches only atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn dispatched_run_allocates_nothing() {
    const RUNS: usize = 200;
    const THREADS: usize = 3;
    let pool = ThreadPool::with_zero_grain(THREADS);
    // Outside the window: a job whose tasks each hold their thread at a
    // barrier, so every worker has started (thread start-up allocates) and
    // has been through the handoff once.
    let all_in = Barrier::new(THREADS);
    pool.run(THREADS, 0, &|_| {
        all_in.wait();
    });
    let sum = AtomicUsize::new(0);
    let job = |i: usize| {
        sum.fetch_add(i, Ordering::Relaxed);
    };
    ARMED.store(true, Ordering::SeqCst);
    for _ in 0..RUNS {
        pool.run(8, 0, &job);
    }
    ARMED.store(false, Ordering::SeqCst);
    assert_eq!(pool.stats().jobs, RUNS + 1, "every run must have been handed off");
    assert_eq!(sum.load(Ordering::Relaxed), RUNS * 28);
    assert_eq!(ALLOCATIONS.load(Ordering::SeqCst), 0);
}
