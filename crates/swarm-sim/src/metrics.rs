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

    /// Merge another replication's result into this one (per-peer samples
    /// concatenate; availability averages weighted equally — callers run
    /// identical-length replications). Timelines and availability
    /// intervals are per-run artifacts: the first run's are kept.
    pub fn absorb(&mut self, other: &SimResult, replications_so_far: u64) {
        self.download_times.extend_from(&other.download_times);
        self.waiting_times.extend_from(&other.waiting_times);
        self.arrivals += other.arrivals;
        self.completions += other.completions;
        self.blocked += other.blocked;
        self.in_flight_at_horizon += other.in_flight_at_horizon;
        self.busy_periods.extend_from(&other.busy_periods);
        let n = replications_so_far as f64;
        self.availability = (self.availability * n + other.availability) / (n + 1.0);
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

    #[test]
    fn absorb_accumulates_counts_and_averages_availability() {
        let mut a = SimResult {
            arrivals: 10,
            completions: 8,
            availability: 0.5,
            ..Default::default()
        };
        a.download_times.add(10.0);
        let mut b = SimResult {
            arrivals: 6,
            completions: 5,
            availability: 0.9,
            ..Default::default()
        };
        b.download_times.add(20.0);
        a.absorb(&b, 1);
        assert_eq!(a.arrivals, 16);
        assert_eq!(a.completions, 13);
        assert_eq!(a.download_times.len(), 2);
        assert!((a.availability - 0.7).abs() < 1e-12);
    }
}
