//! A counting global allocator. Counting is off until [`enable`] is
//! called, so untimed and untraced runs pay one relaxed load per
//! allocation. Counts are per thread: the span recorder reads them at
//! span boundaries on the thread that opened the span.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

pub struct Counting;

static ENABLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    // const-initialised and without a destructor, so touching these
    // from inside the allocator never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Start counting allocations on every thread.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// `(allocations, bytes requested)` made by this thread so far.
pub fn thread_counts() -> (u64, u64) {
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

#[inline]
fn count(size: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        ALLOCS.with(|c| c.set(c.get() + 1));
        BYTES.with(|c| c.set(c.get() + size as u64));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are plain thread-local cells that never
// allocate, so the wrapper adds no requirement of its own.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}
