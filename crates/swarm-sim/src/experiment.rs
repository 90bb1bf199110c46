//! Replicated experiments with parallel execution.
//!
//! The paper's experiments report means over 10 runs; the reproduction
//! harness typically wants many more. Replications are embarrassingly
//! parallel: each gets a derived seed and runs on a worker from the
//! shared index-ordered pool in [`swarm_stats::parallel`].
//!
//! A replication keeps only what callers read. On the worker that ran
//! it, its waiting times, timeline and availability intervals are
//! dropped and its samples shrink to their length; the pool then
//! concatenates them in replication order at exact size.

use crate::config::SimConfig;
use crate::engine::run;
use crate::metrics::SimResult;
use swarm_stats::ci::{mean_ci, ConfidenceInterval};
use swarm_stats::{Samples, Summary};

/// What callers read of one or more replications of a configuration:
/// [`SimResult`]'s per-peer samples concatenated in replication order,
/// its counters summed and its availability averaged. Waiting times,
/// timelines and availability intervals are per-run artifacts that no
/// caller of [`replicate`] reads, so none are kept.
#[derive(Debug, Clone, Default)]
pub struct Pooled {
    /// Download times (arrival → completion) of peers that completed.
    pub download_times: Samples,
    /// Lengths of completed availability (busy) periods.
    pub busy_periods: Samples,
    /// Peers that arrived (post-warmup).
    pub arrivals: u64,
    /// Peers that completed their download (post-warmup arrivals only).
    pub completions: u64,
    /// Impatient peers that arrived during an idle period and left
    /// unserved (post-warmup).
    pub blocked: u64,
    /// Peers still in the system at the horizon.
    pub in_flight_at_horizon: u64,
    /// Mean over replications of the fraction of post-warmup time during
    /// which content was available.
    pub availability: f64,
}

impl Pooled {
    /// Keep what a caller reads of one run, its samples at their length.
    fn of_run(mut r: SimResult) -> Self {
        r.download_times.shrink_to_fit();
        r.busy_periods.shrink_to_fit();
        Pooled {
            download_times: r.download_times,
            busy_periods: r.busy_periods,
            arrivals: r.arrivals,
            completions: r.completions,
            blocked: r.blocked,
            in_flight_at_horizon: r.in_flight_at_horizon,
            availability: r.availability,
        }
    }

    /// Pool runs in order. Availability is the running average
    /// `(a·i + aᵢ)/(i + 1)`; callers run identical-length replications.
    fn pool(runs: Vec<Pooled>) -> Self {
        let mut pooled = Pooled::default();
        let mut downloads = Vec::with_capacity(runs.len());
        let mut busy = Vec::with_capacity(runs.len());
        for (i, r) in runs.into_iter().enumerate() {
            pooled.arrivals += r.arrivals;
            pooled.completions += r.completions;
            pooled.blocked += r.blocked;
            pooled.in_flight_at_horizon += r.in_flight_at_horizon;
            let n = i as f64;
            pooled.availability = (pooled.availability * n + r.availability) / (n + 1.0);
            downloads.push(r.download_times);
            busy.push(r.busy_periods);
        }
        pooled.download_times = Samples::concat(downloads);
        pooled.busy_periods = Samples::concat(busy);
        pooled
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

/// Aggregate of `n` independent replications of one configuration: the
/// runs pooled into one [`Pooled`], and each run's mean download time.
/// No run's whole [`SimResult`] outlives the worker that produced it.
#[derive(Debug, Clone)]
pub struct Replicated {
    /// What callers read of the runs, pooled in replication order.
    pub pooled: Pooled,
    /// Per-replication mean download times (for run-level CIs).
    pub per_run_means: Vec<f64>,
    /// Number of replications executed.
    pub replications: usize,
}

impl Replicated {
    /// Confidence interval on the replication-level mean download time.
    pub fn download_time_ci(&self, level: f64) -> ConfidenceInterval {
        let finite: Vec<f64> = self
            .per_run_means
            .iter()
            .copied()
            .filter(|m| m.is_finite())
            .collect();
        mean_ci(&Summary::from_slice(&finite), level)
    }
}

/// Run `n` replications of `config`, varying only the seed
/// (`seed + replica index`), on up to `threads` worker threads.
pub fn replicate(config: &SimConfig, n: usize, threads: usize) -> Replicated {
    assert!(n >= 1, "need at least one replication");
    assert!(threads >= 1, "need at least one thread");
    config.validate();

    let runs: Vec<Pooled> = swarm_stats::parallel::run_indexed(n, threads, |i| {
        Pooled::of_run(run(&SimConfig {
            seed: config.seed.wrapping_add(i as u64),
            ..*config
        }))
    });

    let per_run_means: Vec<f64> = runs.iter().map(Pooled::mean_download_time).collect();
    Replicated {
        pooled: Pooled::pool(runs),
        per_run_means,
        replications: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Patience, PublisherProcess, ServiceModel};

    fn cfg() -> SimConfig {
        SimConfig {
            lambda: 1.0 / 60.0,
            service: ServiceModel::Exponential { mean: 80.0 },
            publisher: PublisherProcess::Poisson {
                rate: 1.0 / 900.0,
                residence: 300.0,
            },
            patience: Patience::Patient,
            linger_mean: None,
            coverage_threshold: 0,
            horizon: 50_000.0,
            warmup: 1_000.0,
            seed: 7,
            record_timeline: false,
        }
    }

    #[test]
    fn parallel_equals_serial() {
        let serial = replicate(&cfg(), 4, 1);
        let parallel = replicate(&cfg(), 4, 4);
        assert_eq!(serial.pooled.arrivals, parallel.pooled.arrivals);
        assert_eq!(serial.pooled.completions, parallel.pooled.completions);
        // Replication order is fixed by seed, so pooled samples match
        // exactly (order within pooling is by replica index in both).
        assert_eq!(serial.per_run_means, parallel.per_run_means);
        assert_eq!(
            serial.pooled.download_times.values(),
            parallel.pooled.download_times.values()
        );
        assert_eq!(
            serial.pooled.availability.to_bits(),
            parallel.pooled.availability.to_bits()
        );
    }

    #[test]
    fn pool_concatenates_in_order_sums_counts_and_averages_availability() {
        let part = |arrivals, completions, availability, times: &[f64]| Pooled {
            arrivals,
            completions,
            availability,
            download_times: times.iter().copied().collect(),
            busy_periods: times.iter().map(|t| t + 1.0).collect(),
            ..Default::default()
        };
        let pooled = Pooled::pool(vec![
            part(10, 8, 0.5, &[10.0, 30.0]),
            part(6, 5, 0.9, &[20.0]),
            part(4, 4, 0.1, &[]),
        ]);
        assert_eq!(pooled.arrivals, 20);
        assert_eq!(pooled.completions, 17);
        assert_eq!(pooled.download_times.values(), &[10.0, 30.0, 20.0]);
        assert_eq!(pooled.busy_periods.values(), &[11.0, 31.0, 21.0]);
        let running: f64 = ((0.5 + 0.9) / 2.0 * 2.0 + 0.1) / 3.0;
        assert_eq!(pooled.availability.to_bits(), running.to_bits());
    }

    #[test]
    fn replication_count_respected() {
        let r = replicate(&cfg(), 3, 2);
        assert_eq!(r.replications, 3);
        assert_eq!(r.per_run_means.len(), 3);
    }

    #[test]
    fn ci_is_positive_and_contains_grand_mean() {
        let rep = replicate(&cfg(), 8, 4);
        let ci = rep.download_time_ci(0.95);
        assert!(ci.half_width > 0.0);
        assert_eq!(ci.n, 8);
        let grand = rep.per_run_means.iter().sum::<f64>() / rep.per_run_means.len() as f64;
        assert!(ci.contains(grand));
    }

    #[test]
    #[should_panic(expected = "at least one replication")]
    fn rejects_zero_replications() {
        replicate(&cfg(), 0, 1);
    }
}
