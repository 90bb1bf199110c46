//! A counting global allocator: the bytes this process has live on the
//! heap and their high-water mark since the last reset. It lets a run
//! report the memory one engine call needs, byte-exact and independent of
//! how the C allocator maps pages, which is what makes the resident-set
//! high-water mark (`VmHWM`) move by a megabyte from run to run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Live heap bytes and their high-water mark.
struct Counter {
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl Counter {
    const fn new() -> Counter {
        Counter {
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    fn grow(&self, bytes: usize) {
        let live = self.live.fetch_add(bytes, Relaxed) + bytes;
        if live > self.peak.load(Relaxed) {
            self.peak.fetch_max(live, Relaxed);
        }
    }

    fn shrink(&self, bytes: usize) {
        self.live.fetch_sub(bytes, Relaxed);
    }

    fn resize(&self, old: usize, new: usize) {
        if new >= old {
            self.grow(new - old);
        } else {
            self.shrink(old - new);
        }
    }

    fn reset_peak(&self) -> usize {
        let live = self.live.load(Relaxed);
        self.peak.store(live, Relaxed);
        live
    }
}

static HEAP: Counter = Counter::new();

/// The system allocator, counted.
pub struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; only the
// counters are updated around it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            HEAP.grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            HEAP.grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        HEAP.shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            HEAP.resize(layout.size(), new_size);
        }
        p
    }
}

/// Start a new high-water mark at the bytes live now, and return them.
pub fn reset_peak() -> usize {
    HEAP.reset_peak()
}

/// Most bytes live at once since the last `reset_peak`.
pub fn peak() -> usize {
    HEAP.peak.load(Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_is_the_most_bytes_live_at_once_since_the_reset() {
        let c = Counter::new();
        c.grow(100);
        assert_eq!(c.reset_peak(), 100);
        c.grow(50);
        c.resize(50, 80);
        c.shrink(80);
        c.grow(10);
        assert_eq!(c.peak.load(Relaxed), 180);
        assert_eq!(c.live.load(Relaxed), 110);
        c.resize(110, 20);
        assert_eq!(c.reset_peak(), 20);
        assert_eq!(c.peak.load(Relaxed), 20);
    }
}
