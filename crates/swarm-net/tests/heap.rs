//! Per-call heap of the live engine, counted by a global allocator.
//!
//! The loopback engine's heap must follow the live swarm, not every
//! peer that ever arrived: a departed peer frees its neighbor table and
//! per-piece progress, and a hub lane holds one round's frames at most.
//! The allocator counter is process-wide, so this file holds exactly one
//! test and nothing else allocates while it measures. Telemetry stays
//! off: its registries would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use swarm_bt::{BtConfig, BtPublisher, CapacityDistribution};
use swarm_net::{run_live, HostMode, NetResult};

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

/// The result of `run_live(cfg)` and the most heap bytes live at once
/// during the call, above those live when it began.
fn call_heap(cfg: &BtConfig) -> (NetResult, usize) {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let result = run_live(cfg, HostMode::SingleThread);
    (result, PEAK.load(Relaxed) - base)
}

/// `n` K=4 leechers arriving 400 ticks apart at an always-on publisher:
/// its 100 kB/tick fills a lone leecher's 64 pieces in 160 ticks, so
/// each completes and departs before the next one arrives.
fn sequential(n: u64) -> BtConfig {
    BtConfig {
        publisher: BtPublisher::AlwaysOn,
        horizon: n * 400,
        drain_ticks: 0,
        linger_mean: None,
        scripted_arrivals: Some((0..n).map(|i| (i * 400, 50.0)).collect()),
        ..BtConfig::paper_section_4_3(4, 1)
    }
}

/// A script shaped like a swarmbench `net-loopback` input, as
/// `golden_digest.rs` builds it: `leechers` arrivals at seeded ticks in
/// the first half of the horizon, seeded upload capacities in [30, 70)
/// kB/tick, K=4 behind a 300/120 square-wave publisher.
fn loopback_shaped(seed: u64, leechers: usize, horizon: u64) -> BtConfig {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut arrivals: Vec<(u64, f64)> = (0..leechers)
        .map(|_| (rng.gen_range(0..horizon / 2), rng.gen_range(30.0..70.0)))
        .collect();
    arrivals.sort_by_key(|&(tick, _)| tick);
    BtConfig {
        publisher: BtPublisher::Periodic {
            on_ticks: 300,
            off_ticks: 120,
            initially_on: true,
        },
        peer_capacity: CapacityDistribution::Uniform(50.0),
        horizon,
        drain_ticks: 0,
        linger_mean: None,
        scripted_arrivals: Some(arrivals),
        ..BtConfig::paper_section_4_3(4, seed)
    }
}

#[test]
fn heap_follows_the_live_swarm_not_every_arrival() {
    swarm_obs::set_enabled(false);

    // Each extra leecher of a sequential swarm is, at the peak, one that
    // completed and left. It keeps its counters and bitfield, not its
    // neighbor table or progress row: 1.4 kB a leecher, where keeping
    // them cost 4.1 kB.
    let (few, many) = (10u64, 40u64);
    let (done_few, heap_few) = call_heap(&sequential(few));
    let (done_many, heap_many) = call_heap(&sequential(many));
    assert_eq!(
        done_few.completions, few,
        "every sequential leecher completes"
    );
    assert_eq!(
        done_many.completions, many,
        "every sequential leecher completes"
    );
    let per_leecher = (heap_many - heap_few) / (many - few) as usize;
    assert!(
        per_leecher < 2_048,
        "each departed leecher still costs {per_leecher} B \
         ({heap_few} B at {few} leechers, {heap_many} B at {many})"
    );

    // The 96-leecher loopback shape peaks near its end, with most of its
    // leechers departed. It read 1.47-1.49 MB at these seeds while
    // departed peers kept their tables and hub lanes kept the capacity
    // of their busiest round.
    for seed in [4, 5, 6] {
        let (result, heap) = call_heap(&loopback_shaped(seed, 96, 2_400));
        assert!(result.completions > 0, "seed {seed}: leechers complete");
        assert!(
            heap < 1 << 20,
            "seed {seed}: a 96-leecher call peaks at {heap} B, over 1 MiB"
        );
    }
}
