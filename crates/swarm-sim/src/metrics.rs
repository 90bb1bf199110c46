//! Metrics collected during a simulation run.

use crate::timeline::Timeline;
use serde::{Deserialize, Serialize};
use swarm_stats::Samples;

/// Everything a run reports. Peers arriving before the warmup are
/// excluded from per-peer metrics; time-fraction metrics cover the whole
/// horizon past warmup.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SimResult {
    /// Download times (arrival → completion) of peers that completed.
    pub download_times: Samples,
    /// Waiting component of those download times (time spent while the
    /// content was unavailable before or during the peer's stay).
    pub waiting_times: Samples,
    /// Peers that arrived (post-warmup).
    pub arrivals: u64,
    /// Peers that completed their download (post-warmup arrivals only).
    pub completions: u64,
    /// Impatient peers that arrived during an idle period and left
    /// unserved (post-warmup).
    pub blocked: u64,
    /// Peers still in the system (downloading, waiting or lingering) at
    /// the horizon.
    pub in_flight_at_horizon: u64,
    /// Lengths of completed availability (busy) periods.
    pub busy_periods: Samples,
    /// Fraction of post-warmup time during which content was available.
    pub availability: f64,
    /// Optional per-entity timeline (Figures 2 and 5).
    pub timeline: Timeline,
    /// Closed availability intervals `(start, end)` over the whole run
    /// (recorded when `record_timeline` is set); the joint-availability
    /// analysis of mixed bundling reads these.
    pub availability_intervals: Vec<(f64, f64)>,
}

impl SimResult {
    /// Is content available at time `t` according to the recorded
    /// intervals? Requires `record_timeline`.
    pub fn available_at(&self, t: f64) -> bool {
        self.availability_intervals
            .iter()
            .any(|&(a, b)| a <= t && t < b)
    }

    /// Fraction of post-warmup arrivals that were blocked (impatient runs:
    /// the empirical unavailability probability `P` by PASTA).
    pub fn blocked_fraction(&self) -> f64 {
        if self.arrivals == 0 {
            f64::NAN
        } else {
            self.blocked as f64 / self.arrivals as f64
        }
    }

    /// Mean download time; `NaN` if no peer completed.
    pub fn mean_download_time(&self) -> f64 {
        self.download_times.mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocked_fraction_nan_when_no_arrivals() {
        let r = SimResult::default();
        assert!(r.blocked_fraction().is_nan());
    }

    #[test]
    fn blocked_fraction_ratio() {
        let r = SimResult {
            arrivals: 10,
            blocked: 3,
            ..Default::default()
        };
        assert!((r.blocked_fraction() - 0.3).abs() < 1e-12);
    }
}
