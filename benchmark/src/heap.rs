//! Peak live heap of the measuring thread, counted by a wrapper around
//! the system allocator.
//!
//! The memory metric is counted, not read from `VmHWM`: glibc keeps freed
//! heap it has not trimmed, and whether a sweep's next `TxMemory` fits the
//! hole the previous one left depends on the order in which `HashMap`s
//! happen to drop their entries — on `fig4_sweep` the same binary peaks
//! at 22 MB or 39 MB resident from one process to the next. Live bytes
//! repeat to within a few kB. The counters are thread-local plain
//! integers (an atomic read-modify-write per allocation would cost
//! `webrick_xeon`, at 0.6 allocations per bytecode, ~5 % of its run); the
//! untraced pass is single-threaded, so the measuring thread sees it all.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn grew(by: usize) {
    LIVE.with(|live| {
        let now = live.get().wrapping_add(by);
        live.set(now);
        PEAK.with(|peak| peak.set(peak.get().max(now)));
    });
}

fn shrank(by: usize) {
    // Wrapping: a block may be freed by another thread than allocated it
    // (the traced pass's pool kernel), where the memory metric is not read.
    LIVE.with(|live| live.set(live.get().wrapping_sub(by)));
}

pub struct Counting;

// SAFETY: every method passes its arguments to `System` unchanged and
// returns `System`'s result unchanged, so `System`'s `GlobalAlloc`
// guarantees carry over. The counters are const-initialised thread-locals
// without destructors: touching them never allocates (no re-entry) and
// never fails during thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        p
    }
}

/// Most bytes the calling thread ever had allocated at once, in MB.
pub fn peak_heap_mb() -> f64 {
    PEAK.with(Cell::get) as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_follows_the_largest_live_total_and_survives_the_free() {
        let before = peak_heap_mb();
        let block = vec![1u8; 64 << 20];
        std::hint::black_box(&block);
        let with_block = peak_heap_mb();
        assert!(with_block >= before.max(64.0), "a live 64 MB block is counted");
        drop(block);
        assert_eq!(peak_heap_mb(), with_block, "freeing does not lower the peak");
        let small = vec![1u8; 1 << 20];
        std::hint::black_box(&small);
        assert_eq!(peak_heap_mb(), with_block, "a smaller total does not raise it");
    }
}
