//! Counting global allocator: exact allocation calls and bytes, only
//! while `counting` is on (the traced run's alloc probes). Off, each
//! call adds one relaxed load to the system allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct Counting;

// Relaxed: statistics read after the counted section ends on the
// thread that ran it.
static ON: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn note(bytes: usize) {
    if ON.load(Ordering::Relaxed) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Run `f` with counting on; returns `(allocation calls, bytes asked)`.
pub fn counted(f: impl FnOnce()) -> (u64, u64) {
    let (c0, b0) = (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    ON.store(true, Ordering::Relaxed);
    f();
    ON.store(false, Ordering::Relaxed);
    (
        CALLS.load(Ordering::Relaxed) - c0,
        BYTES.load(Ordering::Relaxed) - b0,
    )
}
