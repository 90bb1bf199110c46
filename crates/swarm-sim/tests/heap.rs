//! Per-call heap of the flow simulator, counted by a global allocator.
//!
//! The engine's heap must follow the peers in the system, not every peer
//! that ever arrived, and `replicate` must hold little beyond the samples
//! it pools. The allocator counter is process-wide, so this file holds
//! exactly one test and nothing else allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use swarm_sim::{replicate, run, Patience, PublisherProcess, ServiceModel, SimConfig};

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

/// Most heap bytes live at once during `f()`, above those live when it
/// began, and what `f` returned.
fn call_heap<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let out = f();
    (PEAK.load(Relaxed) - base, out)
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
        let (peak, _) = call_heap(|| run(&cfg));
        assert!(
            peak < 64 * 1024,
            "{label}: one run's peak heap is {peak} B over {horizon} s"
        );
    }

    // Figure 6(c)'s bundle, three replications on one thread, as the
    // quick suite runs it: about 74,000 pooled download times. Each run
    // keeps its download times at their length, and the pool copies them
    // into one exactly sized vector, so the call peaks at 1.67 times the
    // pooled bytes. Keeping every run's whole result, and pooling by
    // doubling the first one's vectors, read 4.41 times.
    let bundle = SimConfig {
        lambda: (1..=4).map(|i| 1.0 / (8.0 * f64::from(i))).sum(),
        service: ServiceModel::Exponential { mean: 320.0 },
        coverage_threshold: 9,
        horizon: 100_000.0,
        warmup: 5_000.0,
        seed: 6405,
        ..base
    };
    let (peak, rep) = call_heap(|| replicate(&bundle, 3, 1));
    let pooled = rep.pooled.download_times.len() * std::mem::size_of::<f64>();
    assert!(
        peak < 2 * pooled,
        "replicate peaked at {peak} B for {pooled} B of pooled download times"
    );
}
