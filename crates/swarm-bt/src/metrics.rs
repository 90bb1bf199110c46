//! Metrics collected by the block-level engine.

use serde::{Deserialize, Serialize};
use swarm_stats::Samples;

/// One peer's presence record, for Figure-5-style timelines.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PeerSpan {
    /// Arrival tick.
    pub arrived: u64,
    /// Departure tick (completion or linger end), or `None` if still
    /// online at the horizon.
    pub departed: Option<u64>,
    /// Tick at which the download completed, if it did.
    pub completed: Option<u64>,
    /// Fraction of the content held at departure/horizon.
    pub final_fraction: f64,
}

/// Result of one block-level run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct BtResult {
    /// Download times (s) of completed peers that arrived post-warmup.
    pub download_times: Samples,
    /// Peers that arrived (post-warmup).
    pub arrivals: u64,
    /// Completions among post-warmup arrivals.
    pub completions: u64,
    /// `(tick, cumulative completions)` — Figure 4's series (all peers).
    pub completion_curve: Vec<(u64, u64)>,
    /// Fraction of ticks on which the content was fully available (the
    /// publisher online, or every piece present in the union of online
    /// peers' bitfields).
    pub availability: f64,
    /// Tick of the last tick-with-full-availability, if any.
    pub last_available_tick: Option<u64>,
    /// Per-peer spans for timeline rendering.
    pub spans: Vec<PeerSpan>,
    /// Publisher online intervals `(start, end)` in ticks.
    pub publisher_intervals: Vec<(u64, u64)>,
    /// Largest number of completions within any 5-tick window — the
    /// "flash departure" signature of Figure 5(a): blocked peers all
    /// finish together when the publisher returns.
    pub max_flash_departures: u64,
    /// Peers still online (downloading or lingering) when the run ends:
    /// after any drain ticks, not at the horizon itself.
    pub in_flight_at_horizon: u64,
    /// `(tick, pieces held by at least one online peer)` — recorded when
    /// `record_timeline` is set; shows piece extinction after the
    /// publisher leaves (Figure 4's availability story).
    pub peer_coverage_curve: Vec<(u64, usize)>,
    /// `(tick, minimum per-piece holder count among online peers)` —
    /// recorded when `record_timeline` is set; the swarm's replication
    /// safety margin (0 = some piece exists only at the publisher).
    pub min_replication_curve: Vec<(u64, usize)>,
    /// Sorted per-piece holder counts sampled every 60 ticks (recorded
    /// when `record_timeline` is set): the replication-balance histogram.
    pub replication_snapshots: Vec<(u64, Vec<usize>)>,
    /// Per-second swarm-aggregate transfer rate (kB/s) — the sum of all
    /// bytes moved each tick, the engine's equivalent of the paper's
    /// instrumented per-second client logs (recorded when
    /// `record_timeline` is set).
    pub aggregate_rate_curve: Vec<(u64, f64)>,
}

impl BtResult {
    /// Mean download time; `NaN` if nothing completed.
    pub fn mean_download_time(&self) -> f64 {
        self.download_times.mean()
    }

    /// Completions within the window `[from, to)` ticks (Figure 4 reads
    /// the curve between 0 and 1500 s).
    pub fn completions_between(&self, from: u64, to: u64) -> u64 {
        let at = |t: u64| -> u64 {
            self.completion_curve
                .iter()
                .take_while(|(tick, _)| *tick < t)
                .last()
                .map(|&(_, n)| n)
                .unwrap_or(0)
        };
        at(to).saturating_sub(at(from))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completions_between_windows() {
        let r = BtResult {
            completion_curve: vec![(10, 1), (20, 2), (30, 3), (100, 4)],
            ..Default::default()
        };
        assert_eq!(r.completions_between(0, 15), 1);
        assert_eq!(r.completions_between(15, 35), 2);
        assert_eq!(r.completions_between(0, 1000), 4);
        assert_eq!(r.completions_between(40, 50), 0);
    }

    #[test]
    fn mean_download_time_nan_when_empty() {
        assert!(BtResult::default().mean_download_time().is_nan());
    }
}
