//! Memory instruments: a counting allocator over `System` and the
//! process's peak resident set.
//!
//! The allocator counts only inside [`count`]; everywhere else each
//! allocation and free pays one relaxed load. The timed ops never run
//! inside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated minus bytes freed since counting began; negative
/// when memory from before the window is freed inside it.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

/// `System`, counting allocations (and reallocations), the bytes they
/// request, and the peak of bytes held while [`count`] runs. Install it
/// with `#[global_allocator]`.
pub struct CountingAlloc;

#[inline]
fn note(allocated: usize, freed: usize) {
    if COUNTING.load(Relaxed) {
        if allocated > 0 {
            ALLOCS.fetch_add(1, Relaxed);
            BYTES.fetch_add(allocated as u64, Relaxed);
        }
        let delta = allocated as i64 - freed as i64;
        let live = LIVE.fetch_add(delta, Relaxed) + delta;
        PEAK.fetch_max(live, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are
// atomics and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), 0);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), 0);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, layout.size());
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size, layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract,
        // and `ptr` came from `System` with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations made while a closure ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCount {
    /// Allocation and reallocation calls.
    pub allocs: u64,
    /// Bytes those calls requested.
    pub bytes: u64,
    /// The most bytes allocated and not yet freed at any moment, counted
    /// from the start of the closure.
    pub peak_bytes: u64,
}

/// Run `f`, counting the allocations every thread makes meanwhile.
/// Counts are zero unless [`CountingAlloc`] is the global allocator.
///
/// # Panics
///
/// Panics when called inside another `count`.
pub fn count<T>(f: impl FnOnce() -> T) -> (T, AllocCount) {
    assert!(!COUNTING.load(Relaxed), "allocation counts do not nest");
    /// Stops counting even when `f` unwinds.
    struct Stop;
    impl Drop for Stop {
        fn drop(&mut self) {
            COUNTING.store(false, Relaxed);
        }
    }
    let (a0, b0) = (ALLOCS.load(Relaxed), BYTES.load(Relaxed));
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    COUNTING.store(true, Relaxed);
    let out = {
        let _stop = Stop;
        f()
    };
    let counted = AllocCount {
        allocs: ALLOCS.load(Relaxed) - a0,
        bytes: BYTES.load(Relaxed) - b0,
        peak_bytes: PEAK.load(Relaxed).max(0) as u64,
    };
    (out, counted)
}

/// The process's peak resident set (`VmHWM`), bytes; `None` where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib * 1024)
}
