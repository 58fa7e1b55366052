//! `Metrics` books a send without touching the heap: its per-phase
//! counters are fixed arrays, so recording sends, refusals and merging
//! another `Metrics` allocate nothing. Only closing a round may allocate
//! (the per-round trace grows).
//!
//! The counting `#[global_allocator]` counts per thread, so the parallel
//! test threads of this binary do not see each other's allocations.

use gossip_net::{Metrics, Phase};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Heap allocations (`alloc` and `realloc` calls) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local counter with
// a const initialiser and no destructor, which itself never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn recording_and_merging_allocate_nothing() {
    let phases = [Phase::DrrProbe, Phase::Convergecast, Phase::RootGossip];
    let before = allocs();
    let mut total = Metrics::default();
    let mut part = Metrics::new();
    for (i, &phase) in phases.iter().cycle().take(1_000).enumerate() {
        part.record_send(phase, 16 + i as u32 % 48, i % 7 != 0);
        total.record_send(phase, 24, true);
    }
    part.record_refused(Phase::RootGossip);
    total.merge(&part);
    total.merge(&Metrics::default());
    assert_eq!(allocs() - before, 0, "booking sends allocated");
    assert_eq!(total.total_messages(), 2_000);
    assert_eq!(total.total_dropped(), part.total_dropped());
}
