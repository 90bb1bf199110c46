//! Shard-local telemetry batching.
//!
//! The global `swarm-obs` registry is made of atomics, and hammering
//! them from every swarm tick on every shard would put a shared cache
//! line in the middle of the hot loop. Instead each shard owns a
//! [`ShardObs`]: plain integer counters plus local
//! [`HistogramSnapshot`]s, all touched without synchronization, and
//! flushed to the registry exactly once — at the shard barrier, when
//! the worker finds no swarm left and hands its state back.
//!
//! Tick latencies are additionally windowed: every [`TICK_WINDOW`]
//! simulated swarms the shard records the window's *average* latency
//! into the local histogram and resets the window, so the histogram
//! tracks sustained per-swarm cost rather than per-call jitter.
//!
//! # Metric namespaces
//!
//! Everything deterministic lands under `catalog.*` — those counters
//! are integer sums over per-swarm values and therefore invariant in
//! shard count and in which worker ran which swarm; `swarm-trace` treats the `catalog.`
//! prefix as part of its deterministic domain and CI diffs it across
//! thread counts. Scheduling-dependent telemetry (flush counts, tick
//! latency) lands under `stats.*` or carries a `_ns` suffix, both of
//! which the deterministic gate excludes.

use crate::runtime::{SwarmSummary, TS_WINDOW_HOURS};
use std::time::Duration;
use swarm_obs::{counter, histogram, HistogramSnapshot, Recorder};

/// Tick-latency window length, in simulated swarms.
pub const TICK_WINDOW: u32 = 50;

/// Per-shard telemetry batch. Created at shard start, mutated without
/// synchronization while the shard runs, consumed by [`flush`] at the
/// shard barrier.
///
/// [`flush`]: ShardObs::flush
#[derive(Debug)]
pub struct ShardObs {
    shard: usize,
    enabled: bool,
    swarms: u64,
    toggles: u64,
    arrivals: u64,
    lingered: u64,
    events: u64,
    final_on: u64,
    window_len: u32,
    window_ns: u64,
    latency_windows: HistogramSnapshot,
    downloads: HistogramSnapshot,
    /// Shard-local slice of the `"catalog"` time series (weekly windows
    /// keyed by simulated hours); merged into the global series at the
    /// shard barrier. `None` while recording is disabled.
    ts: Option<Recorder>,
}

impl ShardObs {
    /// Fresh batch for shard `shard`. The enable switch is sampled once
    /// here so the hot path doesn't re-check it per swarm.
    pub fn new(shard: usize) -> Self {
        let enabled = swarm_obs::enabled();
        ShardObs {
            shard,
            enabled,
            ts: (enabled && swarm_obs::series_enabled()).then(|| Recorder::new(TS_WINDOW_HOURS)),
            swarms: 0,
            toggles: 0,
            arrivals: 0,
            lingered: 0,
            events: 0,
            final_on: 0,
            window_len: 0,
            window_ns: 0,
            latency_windows: HistogramSnapshot::new(),
            downloads: HistogramSnapshot::new(),
        }
    }

    /// The shard's time-series recorder, for the simulation to record
    /// into directly (`None` while recording is disabled).
    pub fn ts_mut(&mut self) -> Option<&mut Recorder> {
        self.ts.as_mut()
    }

    /// Fold one simulated swarm into the batch.
    pub fn record_swarm(&mut self, summary: &SwarmSummary, elapsed: Duration) {
        if !self.enabled {
            return;
        }
        self.swarms += 1;
        self.toggles += summary.toggles;
        self.arrivals += summary.arrivals;
        self.lingered += summary.lingered;
        self.events += summary.events;
        self.final_on += u64::from(summary.final_on);
        self.downloads.record(summary.arrivals);

        self.window_ns += elapsed.as_nanos() as u64;
        self.window_len += 1;
        if self.window_len == TICK_WINDOW {
            self.roll_window();
        }
    }

    fn roll_window(&mut self) {
        if self.window_len == 0 {
            return;
        }
        let avg_ns = self.window_ns / u64::from(self.window_len);
        self.latency_windows.record(avg_ns);
        swarm_obs::log_debug!(
            "catalog",
            "shard {} window: {} swarms, avg tick {} ns",
            self.shard,
            self.window_len,
            avg_ns
        );
        self.window_len = 0;
        self.window_ns = 0;
    }

    /// Flush the batch to the global registry. Called exactly once per
    /// shard, at the pool's shard barrier.
    pub fn flush(mut self) {
        if !self.enabled {
            return;
        }
        self.roll_window();
        counter("catalog.swarms").add(self.swarms);
        counter("catalog.toggles").add(self.toggles);
        counter("catalog.peers.arrived").add(self.arrivals);
        counter("catalog.peers.lingered").add(self.lingered);
        counter("catalog.events").add(self.events);
        counter("catalog.final_on").add(self.final_on);
        histogram("catalog.swarm.downloads").merge_snapshot(&self.downloads);
        histogram("catalog.tick_latency_ns").merge_snapshot(&self.latency_windows);
        // Per-swarm window contributions are deterministic and merging
        // is additive, so the flushed series is shard-invariant too.
        if let Some(ts) = self.ts.take() {
            swarm_obs::merge_series_owned("catalog", ts);
        }
        // Shard-count-dependent by construction: keep it out of the
        // deterministic `catalog.*` namespace.
        counter("stats.catalog.shard_flushes").inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(arrivals: u64, toggles: u64) -> SwarmSummary {
        SwarmSummary {
            id: 0,
            on_hours: 1.0,
            first_month_on_hours: 1.0,
            on_samples: 1,
            toggles,
            arrivals,
            lingered: 0,
            events: toggles + 1,
            final_on: true,
        }
    }

    #[test]
    fn disabled_batch_records_nothing() {
        // Recording is off by default in unit tests.
        let mut obs = ShardObs::new(0);
        assert!(!obs.enabled || swarm_obs::enabled());
        if !obs.enabled {
            obs.record_swarm(&summary(3, 2), Duration::from_nanos(10));
            assert_eq!(obs.swarms, 0);
            assert!(obs.downloads.is_empty());
            obs.flush(); // must not touch the registry
        }
    }

    #[test]
    fn windows_roll_at_tick_window() {
        let mut obs = ShardObs::new(1);
        obs.enabled = true; // force local batching without the registry
        for _ in 0..TICK_WINDOW {
            obs.record_swarm(&summary(1, 1), Duration::from_nanos(100));
        }
        assert_eq!(obs.window_len, 0, "window must reset after rolling");
        assert_eq!(obs.latency_windows.count, 1);
        // A partial window stays pending until the flush.
        obs.record_swarm(&summary(1, 1), Duration::from_nanos(100));
        assert_eq!(obs.window_len, 1);
        assert_eq!(obs.latency_windows.count, 1);
    }
}
