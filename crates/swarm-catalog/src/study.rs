//! The paper's §2 analyses over the exact-dwell catalog walk.
//!
//! Figure 1's CDFs read each swarm's exact seed time on the walk
//! (`on_hours`). Only the monitoring-agent bias study reads the walk's
//! samples at hour boundaries (`on_samples`), which stand in for the
//! paper's hourly agents; it walks each swarm with [`simulate_swarm`].
//! The §2.3.2 contrasts (the books contrast, the "Friends" case study)
//! read measured download counts and end-of-run seed presence from a
//! [`CatalogRun`]. The books contrast reads only book swarms, so a run
//! over the Books alone gives it the same numbers as a run over the whole
//! catalog. Aggregation happens serially in swarm-id order over the
//! deterministic per-swarm summaries, so every number here inherits the
//! runtime's shard-count invariance.

use crate::runtime::{run_catalog, simulate_swarm, CatalogRun, CatalogRunConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use swarm_measurement::observe::HOURS_PER_MONTH;
use swarm_measurement::{
    book_stats_with, friends_population, show_case_counts, BookStats, ShowCaseStudy, Swarm,
};
use swarm_stats::Ecdf;

/// Figure 1: over the monitored swarms, the CDF of the fraction of time
/// at least one seed was available — once over the first month after
/// creation, once over the whole (7-month) trace.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AvailabilityStudy {
    /// Per-swarm availability over the first month after creation.
    pub first_month: Ecdf,
    /// Per-swarm availability over the full monitoring window.
    pub whole_trace: Ecdf,
    /// Months in the full window.
    pub months: u32,
}

impl AvailabilityStudy {
    /// Fraction of swarms with a seed available the whole first month
    /// (the paper: "less than 35%").
    pub fn always_available_first_month(&self) -> f64 {
        1.0 - self.first_month.eval(1.0 - 1e-9)
    }

    /// Fraction of swarms unavailable at least `1 - threshold` of the
    /// whole trace; the paper: "almost 80% of the swarms are unavailable
    /// 80% of the time" → `whole_trace.eval(0.2) ≈ 0.8`.
    pub fn mostly_unavailable_whole_trace(&self, threshold: f64) -> f64 {
        self.whole_trace.eval(threshold)
    }
}

/// The Figure 1 pipeline over a catalog run: per-swarm seed-availability
/// fractions (first month and whole horizon) as ECDFs, in id order.
pub fn availability_study(run: &CatalogRun) -> AvailabilityStudy {
    let first: Vec<f64> = run
        .per_swarm
        .iter()
        .map(|s| s.first_month_availability())
        .collect();
    let whole: Vec<f64> = run
        .per_swarm
        .iter()
        .map(|s| s.availability(run.horizon_hours))
        .collect();
    AvailabilityStudy {
        first_month: Ecdf::new(first),
        whole_trace: Ecdf::new(whole),
        months: run.config.months,
    }
}

/// The §2.3.2 books contrast over a live run: seed presence is the
/// measured end-of-horizon state and download volume is the measured
/// arrival count, instead of a stationary sample and the closed-form
/// expectation. `run` must be [`run_catalog`] over `swarms`, which may
/// hold the Books alone.
pub fn book_stats_live(swarms: &[Swarm], run: &CatalogRun) -> BookStats {
    assert_eq!(swarms.len(), run.per_swarm.len());
    book_stats_with(swarms, &run.seeded_flags(), |i| {
        run.per_swarm[i].arrivals as f64
    })
}

/// The "Friends" case study over a live run: generate the show's
/// population, run it through the sharded engine as a one-month
/// snapshot continuation from the generated ages, and tally the
/// end-of-run seed presence.
pub fn friends_case_live(
    total: u64,
    bundle_share: f64,
    seed: u64,
    threads: usize,
) -> ShowCaseStudy {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let population = friends_population(total, bundle_share, &mut rng);
    let swarms: Vec<Swarm> = population.iter().map(|(s, _)| s.clone()).collect();
    let run = run_catalog(
        &swarms,
        &CatalogRunConfig {
            catalog_seed: seed ^ 0x5EED_F00D,
            months: 1,
            threads,
            start_at_generated_age: true,
        },
    );
    show_case_counts(&population, &run.seeded_flags())
}

/// An imperfect monitoring agent: each hourly sample independently
/// detects an online seed with probability `detection`.
///
/// The paper's agents discover peers through the tracker and PEX (§2.2)
/// and classify seeds from bitmaps. Discovery is not exhaustive, so an
/// agent can miss an online seed in a given sample, which biases the
/// measured availability *downward*.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Observer {
    /// Per-sample probability of discovering at least one online seed
    /// when one exists. 1.0 is a perfect observer.
    pub detection: f64,
}

impl Observer {
    /// A new observer. `detection` must lie in (0, 1].
    pub fn new(detection: f64) -> Self {
        assert!(
            detection > 0.0 && detection <= 1.0,
            "detection must be in (0,1], got {detection}"
        );
        Observer { detection }
    }

    /// Thin `on_samples` hourly samples that had a seed online: each is
    /// seen with probability `detection`. Seedless samples stay seedless
    /// (the observer never hallucinates seeds), so only the online ones
    /// are drawn.
    pub fn observe<R: Rng + ?Sized>(&self, on_samples: u32, rng: &mut R) -> u32 {
        (0..on_samples)
            .filter(|_| rng.gen::<f64>() < self.detection)
            .count() as u32
    }
}

/// Paired true/measured availability study.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BiasStudy {
    /// Detection probability used.
    pub detection: f64,
    /// CDF of true per-swarm availability.
    pub true_cdf: Ecdf,
    /// CDF of measured per-swarm availability.
    pub measured_cdf: Ecdf,
}

impl BiasStudy {
    /// Kolmogorov–Smirnov distance between measured and true CDFs — the
    /// size of the measurement bias.
    pub fn ks_bias(&self) -> f64 {
        self.true_cdf.ks_distance(&self.measured_cdf)
    }

    /// Mean downward shift in per-swarm availability.
    pub fn mean_shift(&self) -> f64 {
        let t: f64 =
            self.true_cdf.sorted_values().iter().sum::<f64>() / self.true_cdf.len().max(1) as f64;
        let m: f64 = self.measured_cdf.sorted_values().iter().sum::<f64>()
            / self.measured_cdf.len().max(1) as f64;
        t - m
    }
}

/// Monitor every swarm hourly for `months` through an imperfect observer
/// and report true-vs-measured availability CDFs.
///
/// The walk's catalog seed is the first draw from `rng`. Each swarm is
/// then walked once with [`simulate_swarm`], serially in id order, and
/// no catalog telemetry is recorded. Its true availability is the share
/// of hour boundaries with a seed online; the observer thins those
/// samples with further draws from `rng`.
pub fn bias_study<R: Rng + ?Sized>(
    swarms: &[Swarm],
    months: u32,
    observer: Observer,
    rng: &mut R,
) -> BiasStudy {
    let cfg = CatalogRunConfig {
        catalog_seed: rng.gen(),
        months,
        ..CatalogRunConfig::default()
    };
    let samples = months as f64 * HOURS_PER_MONTH;
    let mut true_av = Vec::with_capacity(swarms.len());
    let mut meas_av = Vec::with_capacity(swarms.len());
    for s in swarms {
        let on = simulate_swarm(s, &cfg).on_samples;
        true_av.push(f64::from(on) / samples);
        meas_av.push(f64::from(observer.observe(on, rng)) / samples);
    }
    BiasStudy {
        detection: observer.detection,
        true_cdf: Ecdf::new(true_av),
        measured_cdf: Ecdf::new(meas_av),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swarm_measurement::{book_stats, generate_catalog, CatalogConfig, Category};

    #[test]
    fn study_reproduces_figure_1_calibration() {
        let swarms = generate_catalog(&CatalogConfig {
            scale: 0.004,
            seed: 17,
        });
        let run = run_catalog(
            &swarms,
            &CatalogRunConfig {
                months: 7,
                ..CatalogRunConfig::default()
            },
        );
        let study = availability_study(&run);
        assert_eq!(study.months, 7);

        // Paper: "less than 35% of the swarms had at least one seed
        // available all the time" in the first month, and "almost 80% of
        // the swarms are unavailable 80% of the time" over the whole
        // trace. Fewer than ~45% fully seeded in their first month, but
        // some are; most swarms mostly unavailable over the whole trace.
        let always = study.always_available_first_month();
        assert!(always < 0.45, "always-available share too high: {always}");
        assert!(always > 0.05, "some swarms must be fully seeded: {always}");
        let mostly_off = study.mostly_unavailable_whole_trace(0.2);
        assert!(
            mostly_off > 0.55,
            "whole-trace unavailability too low: {mostly_off}"
        );
        // The whole-trace curve dominates the first-month curve (old
        // swarms are less available): CDF higher at every point.
        for q in [0.1, 0.3, 0.5, 0.7, 0.9] {
            assert!(
                study.whole_trace.eval(q) >= study.first_month.eval(q) - 0.05,
                "whole-trace CDF must lie above first-month at {q}"
            );
        }
    }

    #[test]
    fn live_book_contrast_matches_paper_direction() {
        let swarms = generate_catalog(&CatalogConfig {
            scale: 0.02,
            seed: 41,
        });
        let run = run_catalog(
            &swarms,
            &CatalogRunConfig {
                months: 7,
                start_at_generated_age: true,
                ..CatalogRunConfig::default()
            },
        );
        assert!(
            swarms.iter().any(|s| s.category == Category::Books),
            "catalog must include books"
        );
        let stats = book_stats_live(&swarms, &run);
        assert!(
            stats.unavailable_all > stats.unavailable_collections,
            "collections must be more available: {} vs {}",
            stats.unavailable_all,
            stats.unavailable_collections
        );
        assert!(stats.unavailable_collections_effective <= stats.unavailable_collections);
        assert!(
            stats.downloads_collections > stats.downloads_typical,
            "collections must out-download typical swarms: {} vs {}",
            stats.downloads_collections,
            stats.downloads_typical
        );
    }

    #[test]
    fn books_alone_give_the_whole_catalogs_contrast() {
        let swarms = generate_catalog(&CatalogConfig {
            scale: 0.01,
            seed: 43,
        });
        let books: Vec<Swarm> = swarms
            .iter()
            .filter(|s| s.category == Category::Books)
            .cloned()
            .collect();
        assert!(books.len() < swarms.len());
        assert!(
            books.iter().any(|s| s.subset_of.is_some()),
            "a super-collection link must be resolved"
        );

        let sampled = |input: &[Swarm]| book_stats(input, &mut ChaCha8Rng::seed_from_u64(45));
        assert_eq!(sampled(&books), sampled(&swarms));

        let cfg = CatalogRunConfig {
            months: 1,
            threads: 2,
            start_at_generated_age: true,
            ..CatalogRunConfig::default()
        };
        let live = |input: &[Swarm]| book_stats_live(input, &run_catalog(input, &cfg));
        assert_eq!(live(&books), live(&swarms));
    }

    #[test]
    fn live_friends_availability_concentrates_in_bundles() {
        // Average over trials as the sampled test does; the live engine
        // replaces the stationary coin flip with simulated dynamics.
        let mut avail_bundle_frac = 0.0;
        let mut unavail_bundle_frac = 0.0;
        let trials = 30;
        for t in 0..trials {
            let s = friends_case_live(52, 0.54, 47 + t, 1);
            if s.available > 0 {
                avail_bundle_frac += s.available_bundles as f64 / s.available as f64;
            }
            let unavailable = s.total - s.available;
            if unavailable > 0 {
                unavail_bundle_frac += s.unavailable_bundles as f64 / unavailable as f64;
            }
        }
        avail_bundle_frac /= trials as f64;
        unavail_bundle_frac /= trials as f64;
        assert!(
            avail_bundle_frac > unavail_bundle_frac + 0.15,
            "available swarms must be predominantly bundles: \
             {avail_bundle_frac} vs {unavail_bundle_frac}"
        );
    }

    fn bias_swarms() -> Vec<Swarm> {
        generate_catalog(&CatalogConfig {
            scale: 0.001,
            seed: 31,
        })
    }

    #[test]
    fn perfect_observer_measures_the_truth() {
        let mut rng = ChaCha8Rng::seed_from_u64(33);
        let study = bias_study(&bias_swarms(), 2, Observer::new(1.0), &mut rng);
        assert_eq!(study.ks_bias(), 0.0);
        assert!(study.mean_shift().abs() < 1e-12);
    }

    #[test]
    fn observer_never_hallucinates() {
        let mut rng = ChaCha8Rng::seed_from_u64(35);
        let obs = Observer::new(0.5);
        assert_eq!(obs.observe(0, &mut rng), 0);
        for n in [1, 10, 1000] {
            assert!(obs.observe(n, &mut rng) <= n);
        }
    }

    #[test]
    fn bias_grows_as_detection_falls() {
        let sw = bias_swarms();
        let bias = |det: f64| {
            let mut rng = ChaCha8Rng::seed_from_u64(37);
            bias_study(&sw, 2, Observer::new(det), &mut rng).mean_shift()
        };
        let b90 = bias(0.9);
        let b50 = bias(0.5);
        assert!(b90 >= 0.0, "bias is downward: {b90}");
        assert!(b50 > b90, "lower detection must bias more: {b50} vs {b90}");
    }

    #[test]
    fn conclusions_survive_moderate_bias() {
        // "Most swarms are mostly unavailable" holds for the measured CDF
        // whenever it holds for the truth: the observer only moves mass
        // toward *lower* availability.
        let mut rng = ChaCha8Rng::seed_from_u64(39);
        let study = bias_study(&bias_swarms(), 3, Observer::new(0.8), &mut rng);
        let truth_mostly_off = study.true_cdf.eval(0.2);
        let measured_mostly_off = study.measured_cdf.eval(0.2);
        assert!(
            measured_mostly_off >= truth_mostly_off,
            "measured {measured_mostly_off} vs true {truth_mostly_off}"
        );
    }

    #[test]
    fn empty_study_has_no_bias_reading() {
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        let study = bias_study(&[], 1, Observer::new(0.5), &mut rng);
        assert!(study.ks_bias().is_nan());
    }

    #[test]
    #[should_panic(expected = "detection must be in (0,1]")]
    fn rejects_zero_detection() {
        Observer::new(0.0);
    }
}
