//! Per-call heap of the block engine, counted by a global allocator.
//!
//! The engine's heap must follow the peers that are online and
//! downloading, not the horizon, not every peer that ever arrived and not
//! the busiest moment of a peer's lists.
//! The allocator counter is process-wide, so this file holds exactly one
//! test and nothing else allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use swarm_bt::{run, BtConfig, BtPublisher};

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
fn call_heap(cfg: &BtConfig) -> usize {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    drop(run(cfg));
    PEAK.load(Relaxed) - base
}

/// A K=4 swarm of 30 scripted leechers behind a publisher that seeds
/// 100 ticks and never returns: it injects too few pieces, so every
/// leecher stays blocked until the horizon.
fn abandoned(horizon: u64) -> BtConfig {
    BtConfig {
        publisher: BtPublisher::Periodic {
            on_ticks: 100,
            off_ticks: 1 << 40,
            initially_on: true,
        },
        horizon,
        drain_ticks: 0,
        scripted_arrivals: Some((0..30u64).map(|i| (i * 3, 50.0)).collect()),
        ..BtConfig::paper_section_4_3(4, 1)
    }
}

/// `n` K=16 leechers arriving 400 ticks apart at an always-on publisher
/// that serves one 250 kB piece a tick, so each leecher completes its
/// 256 pieces and departs before the next one arrives.
fn sequential(n: u64) -> BtConfig {
    BtConfig {
        publisher: BtPublisher::AlwaysOn,
        publisher_capacity: 250.0,
        horizon: n * 400,
        drain_ticks: 0,
        scripted_arrivals: Some((0..n).map(|i| (i * 400, 50.0)).collect()),
        ..BtConfig::paper_section_4_3(16, 2)
    }
}

/// `n` scripted leechers of a K-file bundle arriving 3 ticks apart at a
/// publisher that seeds 200 ticks and never returns: at K=4 and up it
/// injects too few pieces for anyone to finish, so every leecher sits
/// blocked on its partial pieces until the 3,000-tick horizon.
fn blocked(k: u32, n: u64) -> BtConfig {
    BtConfig {
        publisher: BtPublisher::Periodic {
            on_ticks: 200,
            off_ticks: 1 << 40,
            initially_on: true,
        },
        horizon: 3_000,
        drain_ticks: 0,
        scripted_arrivals: Some((0..n).map(|i| (i * 3, 50.0)).collect()),
        ..BtConfig::paper_section_4_3(k, 1)
    }
}

#[test]
fn heap_follows_live_downloaders_not_horizon_or_history() {
    // An idle horizon costs nothing: 100x more ticks of a blocked swarm
    // (one u64 per tick would be ~7.9 MB) must barely move the peak.
    let short = call_heap(&abandoned(10_000));
    let long = call_heap(&abandoned(1_000_000));
    assert!(
        long <= short + 64 * 1024,
        "peak heap grew with the horizon: {short} B at 10^4 ticks, {long} B at 10^6"
    );

    // A peer that completed and left holds no open-partial, neighbor or
    // connection list: it costs less than a dense progress row would.
    // The run lengths put every per-peer vector in the same capacity
    // class (9 → 16 rows, 73 → 128), so the slope compares like with
    // like.
    let (few, many) = (8u64, 72u64);
    let cfg_few = sequential(few);
    let cfg_many = sequential(many);
    let done = run(&cfg_many);
    assert_eq!(done.completions, many, "every sequential peer completes");
    assert_eq!(done.in_flight_at_horizon, 0);
    let per_peer = (call_heap(&cfg_many) - call_heap(&cfg_few)) / (many - few) as usize;
    let progress_row = cfg_many.num_pieces() * std::mem::size_of::<f64>();
    assert!(
        per_peer < progress_row,
        "each departed peer still costs {per_peer} B, at least a {progress_row} B dense progress row"
    );

    // A blocked downloader holds its open partials, not a row of every
    // piece: from K=4 (64 pieces) to K=32 (512), the heap of each extra
    // blocked leecher may grow by less than half of the 3,584 B by which
    // their dense progress rows differ. The populations of 30 and 60 put
    // the per-peer vectors in the same capacity classes at both K.
    let per_blocked = |k: u32| {
        let (few, many) = (30u64, 60u64);
        let done = run(&blocked(k, many));
        assert_eq!(done.completions, 0, "K={k}: nobody completes");
        (call_heap(&blocked(k, many)) - call_heap(&blocked(k, few))) / (many - few) as usize
    };
    let (small, large) = (per_blocked(4), per_blocked(32));
    let row_gap =
        (blocked(32, 0).num_pieces() - blocked(4, 0).num_pieces()) * std::mem::size_of::<f64>();
    assert!(
        large < small + row_gap / 2,
        "each blocked leecher costs {large} B at K=32 but {small} B at K=4, \
         at least half the {row_gap} B gap between dense progress rows"
    );

    // A peer's lists follow their live length, not its busiest moment.
    // On swarmbench bt-busy's two shapes a few hundred leechers pile up
    // behind the publisher, and the window roll and piece completions
    // hand their connection and open-partial lists' spare capacity back.
    // At seeds 1 and 2 the K=16 runs peak at 492,288 and 697,088 B and
    // the K=32 runs at 551,616 and 468,032 B. Lists that kept their
    // busiest moment's capacity, with 8-byte neighbor ids, read 890,208
    // and 1,045,728 B (K=16) and 785,856 and 732,608 B (K=32).
    for seed in [1, 2] {
        let shapes = [
            (
                BtConfig {
                    drain_ticks: 600,
                    ..BtConfig::paper_section_4_3(16, seed)
                },
                768 * 1024,
            ),
            (BtConfig::paper_section_4_2(32, seed), 640 * 1024),
        ];
        for (cfg, bound) in shapes {
            let peak = call_heap(&cfg);
            assert!(
                peak < bound,
                "K={} seed {seed}: peak heap {peak} B, over {bound} B",
                cfg.num_files
            );
        }
    }
}
