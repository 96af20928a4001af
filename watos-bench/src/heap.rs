//! A counting global allocator: the system allocator, plus a count of
//! the heap bytes a stretch of code allocates and has not yet freed,
//! and that count's high-water mark.
//!
//! The process's peak resident set size (`VmHWM`) of the same search
//! moved between 45 and 72 MiB from run to run, because which allocator
//! arena each short-lived worker thread lands in decides how much freed
//! memory stays resident. The live-heap peak counts only what the
//! program holds. Counting is off outside [`peak_during`], where the
//! allocator adds one relaxed load per call, so timed searches do not
//! pay for contended counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};

/// The system allocator, counting inside [`peak_during`].
pub struct Counting;

// Relaxed throughout: the counters are statistics and publish no other
// data; `peak_during` runs its closure between two stores to COUNTING
// on the same thread, and the closure's own threads are joined before
// it returns.
static COUNTING: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn grew(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        let bytes = bytes as isize;
        let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
        if now > PEAK.load(Ordering::Relaxed) {
            PEAK.fetch_max(now, Ordering::Relaxed);
        }
    }
}

fn shrank(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        LIVE.fetch_sub(bytes as isize, Ordering::Relaxed);
    }
}

/// Run `f` with counting on and return its result with the most heap
/// bytes it held at once beyond what was allocated before it started.
pub fn peak_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let result = f();
    COUNTING.store(false, Ordering::Relaxed);
    (result, PEAK.load(Ordering::Relaxed).max(0) as usize)
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting around the
// calls touches only the atomics above, never the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations on `layout` pass through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, plus the caller's obligations on
        // `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            match new_size.checked_sub(layout.size()) {
                Some(more) => grew(more),
                None => shrank(layout.size() - new_size),
            }
        }
        p
    }
}
