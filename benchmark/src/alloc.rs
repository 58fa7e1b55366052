//! The counting allocator: `System` plus call, byte and live-byte counters
//! that run only while a switch is on.
//!
//! Exact heap figures (`peak_heap_mib`, `allocs_per_unit`) come from the
//! counting rep, which runs with the switch on; timed reps run with it off
//! and pay one relaxed load per allocator call. The counters are plain
//! load-then-store pairs, not atomic read-modify-writes: counting is only
//! ever switched on while the process has a single thread, and a `lock`
//! prefix per allocation would make the counting rep measurably unlike the
//! timed ones.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

pub struct CountingAlloc;

static ON: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Live bytes relative to the instant counting was switched on; goes
/// negative when memory allocated before that instant is freed.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

#[inline]
fn grew(bytes: usize) {
    CALLS.store(CALLS.load(Relaxed) + 1, Relaxed);
    BYTES.store(BYTES.load(Relaxed) + bytes as u64, Relaxed);
    let live = LIVE.load(Relaxed) + bytes as i64;
    LIVE.store(live, Relaxed);
    if live > PEAK.load(Relaxed) {
        PEAK.store(live, Relaxed);
    }
}

#[inline]
fn shrank(bytes: usize) {
    LIVE.store(LIVE.load(Relaxed) - bytes as i64, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state
// and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Relaxed) {
            grew(layout.size());
        }
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ON.load(Relaxed) {
            grew(layout.size());
        }
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ON.load(Relaxed) {
            shrank(layout.size());
        }
        // SAFETY: `ptr` and `layout` are the caller's, and every block this
        // allocator hands out came from `System` with that layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.load(Relaxed) {
            shrank(layout.size());
            grew(new_size);
        }
        // SAFETY: as in `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Counter values at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Allocator calls that obtained memory (`alloc`, `alloc_zeroed`,
    /// `realloc`).
    pub calls: u64,
    /// Bytes those calls asked for.
    pub bytes: u64,
    /// High-water mark of live bytes since [`start`].
    pub peak_live: u64,
}

/// Zero the counters and switch counting on. Call only while this is the
/// process's one thread.
pub fn start() {
    CALLS.store(0, Relaxed);
    BYTES.store(0, Relaxed);
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ON.store(true, Relaxed);
}

/// Switch counting off.
pub fn stop() {
    ON.store(false, Relaxed);
}

/// The totals since [`start`]; all zero while counting is off, so a timed
/// rep reads no stale figures.
pub fn snapshot() -> Snapshot {
    if !ON.load(Relaxed) {
        return Snapshot::default();
    }
    Snapshot {
        calls: CALLS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        peak_live: PEAK.load(Relaxed).max(0) as u64,
    }
}
