//! Integration tests for the sharded catalog runtime.
//!
//! The contract under test: the number of shards and which shard walks
//! which swarm must not change a single bit of any result — per-swarm summaries,
//! deterministic `catalog.*` counters, or the downloads histogram. The
//! `swarm-obs` registry and enable switch are process-wide and the test
//! harness is multi-threaded, so every test that runs the engine holds
//! one shared lock (an engine run with telemetry enabled elsewhere in
//! the process would flush into a concurrent test's snapshot delta).

use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, OnceLock};
use swarm_catalog::runtime::simulate_swarm;
use swarm_catalog::{run_catalog, CatalogRunConfig};
use swarm_measurement::{generate_catalog, CatalogConfig, Swarm};

fn engine_guard() -> MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    GUARD
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// RAII: telemetry on while held, off (and unlocked) on drop.
struct Enabled {
    _guard: MutexGuard<'static, ()>,
}

impl Enabled {
    fn new() -> Self {
        let guard = engine_guard();
        swarm_obs::set_enabled(true);
        Enabled { _guard: guard }
    }
}

impl Drop for Enabled {
    fn drop(&mut self) {
        swarm_obs::set_enabled(false);
    }
}

fn catalog(scale: f64, seed: u64) -> Vec<Swarm> {
    generate_catalog(&CatalogConfig { scale, seed })
}

fn summaries_json(swarms: &[Swarm], threads: usize, months: u32) -> String {
    let run = run_catalog(
        swarms,
        &CatalogRunConfig {
            threads,
            months,
            ..CatalogRunConfig::default()
        },
    );
    serde_json::to_string(&run.per_swarm).expect("summaries serialize")
}

#[test]
fn results_are_bit_identical_across_shard_counts() {
    let _lock = engine_guard();
    let swarms = catalog(0.002, 7);
    let baseline = summaries_json(&swarms, 1, 3);
    for threads in [2, 4, 8] {
        let sharded = summaries_json(&swarms, threads, 3);
        assert_eq!(
            baseline, sharded,
            "{threads}-thread run must be bit-identical to serial"
        );
    }
}

#[test]
fn sharded_telemetry_merges_to_the_single_threaded_registry() {
    let _on = Enabled::new();
    let swarms = catalog(0.002, 19);
    let cfg = |threads| CatalogRunConfig {
        threads,
        months: 2,
        ..CatalogRunConfig::default()
    };

    let base = swarm_obs::snapshot();
    let serial = run_catalog(&swarms, &cfg(1));
    let after_serial = swarm_obs::snapshot();
    let sharded = run_catalog(&swarms, &cfg(4));
    let after_sharded = swarm_obs::snapshot();

    let d1 = after_serial.delta_since(&base);
    let d4 = after_sharded.delta_since(&after_serial);

    // Every deterministic counter matches across shard counts, and
    // matches the summaries it was batched from.
    for name in [
        "catalog.swarms",
        "catalog.toggles",
        "catalog.peers.arrived",
        "catalog.peers.lingered",
        "catalog.events",
        "catalog.final_on",
    ] {
        assert_eq!(
            d1.counter(name),
            d4.counter(name),
            "counter {name} must be shard-count invariant"
        );
    }
    assert_eq!(d1.counter("catalog.swarms"), swarms.len() as u64);
    assert_eq!(d1.counter("catalog.peers.arrived"), serial.total_arrivals());
    assert_eq!(
        d4.counter("catalog.peers.arrived"),
        sharded.total_arrivals()
    );
    assert_eq!(d1.counter("catalog.toggles"), serial.total_toggles());

    // The per-shard downloads histograms merge to exactly the serial
    // histogram: same count, sum and every bucket.
    let h1 = &d1.histograms["catalog.swarm.downloads"];
    let h4 = &d4.histograms["catalog.swarm.downloads"];
    assert_eq!(h1, h4, "downloads histogram must be shard-count invariant");
    assert_eq!(h1.count, swarms.len() as u64);

    // Each worker flushed exactly once at the barrier.
    assert!(d1.counter("stats.catalog.shard_flushes") >= 1);
}

#[test]
fn disabled_telemetry_records_nothing() {
    let _lock = engine_guard();
    assert!(!swarm_obs::enabled());
    let swarms = catalog(0.001, 23);
    let base = swarm_obs::snapshot();
    let _ = run_catalog(
        &swarms,
        &CatalogRunConfig {
            threads: 4,
            months: 1,
            ..CatalogRunConfig::default()
        },
    );
    let delta = swarm_obs::snapshot().delta_since(&base);
    assert_eq!(delta.counter("catalog.swarms"), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any catalog seed, any thread count, any horizon: sharded equals
    /// serial, bit for bit.
    #[test]
    fn sharding_never_perturbs_results(
        seed in 0u64..u64::MAX,
        threads in 2usize..9,
        months in 1u32..4,
    ) {
        let _lock = engine_guard();
        let swarms = catalog(0.001, seed);
        let serial = summaries_json(&swarms, 1, months);
        let sharded = summaries_json(&swarms, threads, months);
        prop_assert_eq!(serial, sharded);
    }

    /// Hour-boundary samples of a walk track its exact on-time: each
    /// seeded stretch gains or loses less than one sample, and a walk
    /// that is never (always) seeded samples no (every) hour.
    #[test]
    fn hour_samples_track_on_time(
        seed in 0u64..u64::MAX,
        catalog_seed in 0u64..u64::MAX,
        months in 1u32..8,
    ) {
        let cfg = CatalogRunConfig { catalog_seed, months, ..CatalogRunConfig::default() };
        let hours = 720 * months;
        for s in catalog(0.001, seed).iter().step_by(8) {
            let out = simulate_swarm(s, &cfg);
            prop_assert!(out.on_samples <= hours);
            let err = (f64::from(out.on_samples) - out.on_hours).abs();
            prop_assert!(
                err <= (out.toggles / 2 + 1) as f64,
                "swarm {}: {} samples vs {} hours over {} toggles",
                s.id, out.on_samples, out.on_hours, out.toggles
            );
            if out.on_hours == 0.0 {
                prop_assert_eq!(out.on_samples, 0);
            }
            if out.toggles == 0 && out.final_on {
                prop_assert!((out.on_hours - f64::from(hours)).abs() < 1e-6);
                prop_assert_eq!(out.on_samples, hours);
            }
        }
    }
}
