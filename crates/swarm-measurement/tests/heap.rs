//! Allocations and heap of catalog generation, counted by a global
//! allocator.
//!
//! A generated swarm owns two heap blocks, its title and its file list,
//! and a file is a plain record with no heap of its own. Streaming the
//! catalog holds no swarm table: only the swarm in hand and the Books,
//! which wait for their super-collection links. The allocator counters
//! are process-wide, so this file holds exactly one test and nothing
//! else allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use swarm_measurement::{for_each_swarm, generate_catalog, CatalogConfig};

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

/// The system allocator, with fresh allocations, live bytes and their
/// high-water mark counted. A `realloc` resizes a block it already
/// counted, so it moves the byte counters only.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; only the
// counters are updated around it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            ALLOCS.fetch_add(1, Relaxed);
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            ALLOCS.fetch_add(1, Relaxed);
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
fn catalog_allocates_two_blocks_per_swarm() {
    // swarmbench's `catalog` input and the experiments' default.
    let cfg = CatalogConfig {
        scale: 0.01,
        seed: 42,
    };
    let (allocs0, live0) = (ALLOCS.load(Relaxed), LIVE.load(Relaxed));
    PEAK.store(live0, Relaxed);
    let swarms = generate_catalog(&cfg);
    let allocs = ALLOCS.load(Relaxed) - allocs0;
    let peak = PEAK.load(Relaxed) - live0;
    let n = swarms.len();
    drop(swarms);

    // A title and a file list per swarm, plus the swarm table and the
    // books' collection bookkeeping.
    assert!(
        allocs <= 2 * n + 8,
        "{allocs} allocations for {n} swarms ({:.2} per swarm)",
        allocs as f64 / n as f64
    );
    // The most bytes live at once, the returned catalog included.
    assert!(
        peak < 300 * n,
        "peak heap {peak} B for {n} swarms ({:.0} B per swarm)",
        peak as f64 / n as f64
    );

    // The same catalog streamed to a callback that drops each swarm: the
    // peak is the held Books (664 swarms at this scale) and their files,
    // under a tenth of the collected catalog's.
    let live0 = LIVE.load(Relaxed);
    PEAK.store(live0, Relaxed);
    let mut streamed = 0;
    for_each_swarm(&cfg, |_| streamed += 1);
    let peak = PEAK.load(Relaxed) - live0;
    assert_eq!(streamed, n);
    assert!(peak < 320 * 1024, "streaming {n} swarms peaked at {peak} B");
}
