//! Replicated block-level experiments.
//!
//! The paper's §4.3 experiments run "10 runs of 1200 s each" per bundle
//! size; this module parallelizes replications and aggregates download
//! times across runs. A run keeps only its download times and
//! availability; the rest of its result is dropped on its worker.

use crate::config::BtConfig;
use crate::engine::run;
use swarm_stats::{BoxPlot, Samples};

/// Aggregate of independent replications of one configuration.
#[derive(Debug, Clone)]
pub struct BtReplicated {
    /// Download times pooled across runs, in run order.
    pub download_times: Samples,
    /// Mean availability across runs.
    pub availability: f64,
}

impl BtReplicated {
    /// Pooled mean download time.
    pub fn mean_download_time(&self) -> f64 {
        self.download_times.mean()
    }

    /// Pooled box plot (quartiles and 5/95 percentiles, Figure 6(c)).
    pub fn box_plot(&mut self) -> BoxPlot {
        self.download_times.box_plot()
    }
}

/// Run `n` replications (seeds `seed..seed+n`) on up to `threads` threads.
pub fn replicate(cfg: &BtConfig, n: usize, threads: usize) -> BtReplicated {
    assert!(n >= 1, "need at least one replication");
    assert!(threads >= 1, "need at least one thread");
    cfg.validate();

    let runs: Vec<(Samples, f64)> = swarm_stats::parallel::run_indexed(n, threads, |i| {
        let r = run(&BtConfig {
            seed: cfg.seed.wrapping_add(i as u64),
            ..cfg.clone()
        });
        (r.download_times, r.availability)
    });

    let availability = runs.iter().map(|r| r.1).sum::<f64>() / n as f64;
    BtReplicated {
        download_times: Samples::concat(runs.into_iter().map(|r| r.0).collect()),
        availability,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BtPublisher;

    fn cfg() -> BtConfig {
        BtConfig {
            horizon: 600,
            publisher: BtPublisher::AlwaysOn,
            ..BtConfig::paper_section_4_3(1, 41)
        }
    }

    /// The download times of single runs at seeds `seed..seed + n`, in
    /// seed order.
    fn single_runs(n: u64) -> Vec<f64> {
        (0..n)
            .flat_map(|i| {
                run(&BtConfig {
                    seed: cfg().seed + i,
                    ..cfg()
                })
                .download_times
                .values()
                .to_vec()
            })
            .collect()
    }

    #[test]
    fn parallel_equals_serial() {
        let s = replicate(&cfg(), 3, 1);
        let p = replicate(&cfg(), 3, 3);
        assert_eq!(s.download_times.values(), p.download_times.values());
        assert_eq!(s.availability, p.availability);
    }

    #[test]
    fn uneven_split_equals_serial() {
        // n not divisible by threads: 5 runs over 2 threads leaves one
        // thread with an extra replication; order and pooling must not
        // depend on how the work was chunked.
        let s = replicate(&cfg(), 5, 1);
        let p = replicate(&cfg(), 5, 2);
        assert_eq!(s.download_times.values(), p.download_times.values());
        assert_eq!(s.availability, p.availability);
        assert_eq!(p.download_times.values(), single_runs(5));
    }

    #[test]
    fn more_threads_than_runs_equals_serial() {
        // threads > n: the surplus threads have nothing to do and must
        // not perturb ordering or results.
        let s = replicate(&cfg(), 2, 1);
        let p = replicate(&cfg(), 2, 8);
        assert_eq!(s.download_times.values(), p.download_times.values());
        assert_eq!(s.availability, p.availability);
        assert_eq!(p.download_times.values(), single_runs(2));
    }

    #[test]
    fn pools_across_runs() {
        let one = replicate(&cfg(), 1, 1);
        let four = replicate(&cfg(), 4, 2);
        assert!(four.download_times.len() > one.download_times.len());
        assert_eq!(four.download_times.values(), single_runs(4));
    }
}
