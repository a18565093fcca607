//! Counting global allocator.
//!
//! Wraps [`System`] and feeds every allocation into the `alloc.bytes` /
//! `alloc.count` telemetry counters, so `reproduce profile` can attribute
//! allocator traffic to phases and the allocation-regression test can
//! assert that warm SCF iterations stay off the allocator. Deallocations
//! are not tracked — the interesting signal is allocation *pressure*, and
//! the hot-path counters must stay monotone for per-iteration deltas.
//!
//! Always compiled; it counts only in a process that installed it.
//! `reproduce` and the allocation-regression test binaries do:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: qt_bench::alloc::CountingAllocator = qt_bench::alloc::CountingAllocator;
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// System allocator with telemetry-counter accounting on every
/// allocation path (`alloc`, `alloc_zeroed`, and growth via `realloc`).
pub struct CountingAllocator;

thread_local! {
    static IN_HOOK: Cell<bool> = const { Cell::new(false) };
}

#[inline]
fn record(bytes: usize) {
    // `add_alloc` itself allocates on a thread's first counter touch
    // (shard-cell registration) and thread-local access can fail during
    // thread teardown — the guard and `try_with` break both recursions.
    let _ = IN_HOOK.try_with(|flag| {
        if !flag.get() {
            flag.set(true);
            qt_telemetry::counters::add_alloc(bytes as u64);
            flag.set(false);
        }
    });
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            record(new_size - layout.size());
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
