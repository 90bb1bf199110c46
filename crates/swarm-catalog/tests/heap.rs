//! Per-call heap of the catalog runtime, counted by a global allocator.
//!
//! Beyond the summaries it returns, `run_catalog` holds per-worker state
//! only: a result slot per swarm that becomes the returned vector, and
//! each worker's telemetry batch. Nothing may grow with the catalog, such
//! as a queue of swarm indices. The allocator counter is process-wide, so
//! this file holds exactly one test and nothing else allocates while it
//! measures. Telemetry stays off: its registries would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use swarm_catalog::{run_catalog, CatalogRunConfig, SwarmSummary};
use swarm_measurement::{generate_catalog, CatalogConfig, Swarm};

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
fn catalog_run_holds_only_its_summaries_and_per_worker_state() {
    assert!(!swarm_obs::enabled());
    let small = generate_catalog(&CatalogConfig {
        scale: 0.001,
        seed: 42,
    });
    let large = generate_catalog(&CatalogConfig {
        scale: 0.004,
        seed: 42,
    });
    for threads in [2, 4] {
        let cfg = CatalogRunConfig {
            months: 1,
            threads,
            ..CatalogRunConfig::default()
        };
        // The most heap bytes live at once during the call, above those
        // live when it began and beyond the returned summaries.
        let beyond_summaries = |swarms: &[Swarm]| {
            let base = LIVE.load(Relaxed);
            PEAK.store(base, Relaxed);
            let run = run_catalog(swarms, &cfg);
            let n = run.per_swarm.len();
            PEAK.load(Relaxed) - base - n * std::mem::size_of::<SwarmSummary>()
        };
        let (at_small, at_large) = (beyond_summaries(&small), beyond_summaries(&large));
        assert!(
            at_small < 8 << 10 && at_large < 8 << 10,
            "{threads} threads: {at_small} B ({} swarms) and {at_large} B ({} swarms) \
             beyond the summaries",
            small.len(),
            large.len()
        );
        assert!(
            at_large < at_small + 1024,
            "{threads} threads: per-call heap grows with the catalog, \
             {at_small} B at {} swarms to {at_large} B at {}",
            small.len(),
            large.len()
        );
    }
}
