//! Per-call heap of the flow simulator, counted by a global allocator.
//!
//! The engine's heap must follow the peers in the system, not every peer
//! that ever arrived. The allocator counter is process-wide, so this file
//! holds exactly one test and nothing else allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use swarm_sim::{run, Patience, PublisherProcess, ServiceModel, SimConfig};

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

/// Most heap bytes live at once during `run(cfg)`, above those live
/// when it began.
fn call_heap(cfg: &SimConfig) -> usize {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    drop(run(cfg));
    PEAK.load(Relaxed) - base
}

#[test]
fn heap_follows_peers_in_the_system_not_every_arrival() {
    // About 3,300 peers arrive over the horizon, and the warmup ends a
    // second before it, so the result keeps almost no samples: what is
    // left is the engine's own state. A table that kept every arrival
    // would pass 150 kB in peer rows alone.
    let horizon = 2.0e5;
    let base = SimConfig {
        lambda: 1.0 / 60.0,
        service: ServiceModel::Exponential { mean: 80.0 },
        publisher: PublisherProcess::SingleOnOff {
            on_mean: 300.0,
            off_mean: 900.0,
            initially_on: true,
        },
        patience: Patience::Patient,
        linger_mean: None,
        coverage_threshold: 0,
        horizon,
        warmup: horizon - 1.0,
        seed: 7,
        record_timeline: false,
    };
    for (label, cfg) in [
        ("patient", base),
        (
            "impatient",
            SimConfig {
                patience: Patience::Impatient,
                ..base
            },
        ),
        (
            "lingering",
            SimConfig {
                linger_mean: Some(120.0),
                ..base
            },
        ),
    ] {
        let peak = call_heap(&cfg);
        assert!(
            peak < 64 * 1024,
            "{label}: one run's peak heap is {peak} B over {horizon} s"
        );
    }
}
