//! Per-call heap of the §2.3 catalog tables, counted by a global
//! allocator.
//!
//! Neither table holds the catalog it generates: `table-bundling` counts
//! each swarm as the generator streams it past, and `table-books` keeps
//! and walks only the book swarms, the only ones it reads. The allocator
//! counter is process-wide, so this file holds exactly one test and
//! nothing else allocates while it measures. Telemetry stays off: its
//! registries would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use swarm_bench::output::Report;
use swarm_bench::tables::{books_table, bundling_table};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

/// The system allocator, with live bytes and their high-water mark counted.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; only the
// counters are updated around it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn catalog_tables_hold_only_what_they_read() {
    assert!(!swarm_obs::enabled());
    // The most heap bytes live at once during the call, above those live
    // when it began, the returned report included.
    let peak = |table: fn(bool) -> Report| {
        let base = LIVE.load(Relaxed);
        PEAK.store(base, Relaxed);
        drop(table(true));
        PEAK.load(Relaxed) - base
    };
    // The 664 book swarms of the 10,879 generated, in a table reserved at
    // their count, beside the generator's own table of them as it hands
    // them over; a table grown by doubling reads 315 KiB, and holding and
    // walking the whole catalog 3.3 MiB.
    let books = peak(books_table);
    assert!(books < 300 << 10, "table-books peaked at {books} B");
    // One swarm at a time, and the generator's held-back Books; holding
    // the 5,440-swarm catalog reads 1.3 MiB.
    let bundling = peak(bundling_table);
    assert!(
        bundling < 192 << 10,
        "table-bundling peaked at {bundling} B"
    );
}
