//! Counting global allocator: live bytes, their peak, and a call count.
//!
//! `peak_heap_mb` and `harness.steady_allocs` come from here. The workspace
//! crates forbid `unsafe`; the `unsafe` that [`GlobalAlloc`] needs lives in
//! the harness, as it does in `tests/alloc_free.rs`. Counters are atomics
//! so sweep worker threads are counted too; end-to-end runs use one thread,
//! where the peak is exact.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

pub struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator and returns its result; the wrapper only updates atomic
// counters, which cannot affect the validity of the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        grew(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        if new_size >= layout.size() {
            grew(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocation calls (alloc, alloc_zeroed, realloc) so far.
pub fn calls() -> u64 {
    CALLS.load(Relaxed)
}

/// Bytes currently allocated.
pub fn live() -> usize {
    LIVE.load(Relaxed)
}

/// Forgets the peak so far: the next [`peak_since_mark`] reports growth
/// above what is live right now (the reference kernel and the harness's
/// own tables are allocated before the mark and so excluded).
pub fn mark() -> usize {
    let base = live();
    PEAK.store(base, Relaxed);
    base
}

/// Peak live bytes above `base` since [`mark`] returned it.
pub fn peak_since_mark(base: usize) -> usize {
    PEAK.load(Relaxed).saturating_sub(base)
}

/// Serialises the tests that use process-wide state: the peak mark here,
/// and the sweep engine's arena pool and warm cache in the smoke runs.
#[cfg(test)]
pub static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    // Other tests still allocate concurrently, so assert only what a
    // 64 MiB block makes unambiguous.
    #[test]
    fn peak_accounts_for_freed_and_regrown_blocks() {
        const BIG: usize = 64 << 20;
        let _serial = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let base = mark();
        let calls_before = calls();
        // black_box: the optimiser may otherwise elide an unused allocation.
        let v: Vec<u8> = std::hint::black_box(Vec::with_capacity(BIG));
        assert!(live() >= base + BIG - (1 << 20), "live counts the block");
        drop(v);
        assert!(live() < base + BIG / 2, "dealloc is subtracted");
        let mut w: Vec<u8> = std::hint::black_box(Vec::with_capacity(BIG / 4));
        w.reserve_exact(BIG / 2); // realloc grows in place or moves
        drop(std::hint::black_box(w));
        let peak = peak_since_mark(base);
        assert!(peak >= BIG - (1 << 20), "peak keeps the high-water mark");
        assert!(peak < BIG + BIG / 2, "freed blocks are not double counted");
        assert!(calls() >= calls_before + 3);
    }
}
