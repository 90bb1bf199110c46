//! The sharded catalog engine.
//!
//! One [`SwarmSummary`] per swarm walked — a whole catalog or any slice of
//! it — produced by an event-driven walk of the swarm's seed process over
//! the monitoring horizon. This is the only walk of that process: the
//! [`seed_process`] parameterization refreshed weekly, a stationary
//! initial draw, and exact exponential dwell times. It also counts the peers that arrive
//! (and the completers that linger as seeds) while the swarm is
//! available, and the hour boundaries at which a seed is online — what
//! the paper's hourly monitoring agents would record. An idle swarm
//! costs one RNG draw per week of simulated time.
//!
//! # Determinism
//!
//! Every swarm draws from a private ChaCha8 stream keyed by
//! `(catalog_seed, swarm_id)` (see [`swarm_stream`]), and every field of
//! [`SwarmSummary`] is accumulated sequentially inside that swarm's own
//! walk. Shard assignment and shard count therefore cannot
//! perturb any summary: a run at 8 threads is bit-identical to a
//! 1-thread run, and a swarm walked in a slice of the catalog gets the
//! summary it gets in the whole catalog. Anything aggregated *across*
//! swarms must either be an integer sum (order-independent) or be
//! computed serially in id order from the returned summaries — which is
//! what [`CatalogRun`]'s accessors do.

use crate::obsbatch::ShardObs;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rand_distr::{Distribution, Exp};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};
use swarm_measurement::observe::{
    demand_decay, seed_process, HOURS_PER_MONTH, PARAM_REFRESH_HOURS,
};
use swarm_measurement::Swarm;
use swarm_stats::parallel::run_sharded;

/// Default root seed for per-swarm streams.
pub const DEFAULT_CATALOG_SEED: u64 = 0xCA7A_1065;

/// Window width of the catalog time series, in hours of simulated time
/// (the virtual-tick unit of this engine). One week — the same
/// [`PARAM_REFRESH_HOURS`] discretization the walk itself advances by,
/// so window boundaries align with parameter-refresh segments.
pub const TS_WINDOW_HOURS: u64 = PARAM_REFRESH_HOURS as u64;

/// Configuration of one catalog run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CatalogRunConfig {
    /// Root seed all per-swarm streams derive from.
    pub catalog_seed: u64,
    /// Monitoring horizon in 30-day months (≥ 1).
    pub months: u32,
    /// Worker threads to request (≥ 1 effective; extra workers beyond
    /// the first are leased from the global [`ThreadBudget`] and the
    /// pool degrades gracefully when the budget grants fewer).
    ///
    /// [`ThreadBudget`]: swarm_stats::parallel::ThreadBudget
    pub threads: usize,
    /// When true, each swarm starts at its generated `age_days` (a
    /// snapshot continuation, as in the §2.3.2 case studies); when
    /// false all swarms start at creation (age 0), as in Figure 1.
    pub start_at_generated_age: bool,
}

impl Default for CatalogRunConfig {
    fn default() -> Self {
        CatalogRunConfig {
            catalog_seed: DEFAULT_CATALOG_SEED,
            months: 7,
            threads: 1,
            start_at_generated_age: false,
        }
    }
}

/// Per-swarm outcome of a catalog run. Every field is deterministic in
/// `(catalog_seed, swarm_id, config)` alone.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SwarmSummary {
    /// Id of the walked swarm.
    pub id: u64,
    /// Hours with at least one seed online, over the whole horizon.
    pub on_hours: f64,
    /// Hours with a seed online during the first month.
    pub first_month_on_hours: f64,
    /// Hour boundaries `h < horizon` at which a seed is online: what
    /// an hourly monitoring agent sampling this path would record.
    pub on_samples: u32,
    /// ON↔OFF transitions of the seed process.
    pub toggles: u64,
    /// Peers that arrived while a seed was present — i.e. downloads
    /// served. (Arrivals during seedless time find nothing to fetch and
    /// are not counted, matching the impatient-peer reading of §2.)
    pub arrivals: u64,
    /// Arrived peers that stayed to seed after completing (the
    /// altruists feeding the swarm's own seed process).
    pub lingered: u64,
    /// Dwell segments processed (the engine's event count).
    pub events: u64,
    /// Was a seed present at the end of the horizon?
    pub final_on: bool,
}

// Most of a catalog run's heap is its summaries, so a new field must fit
// in the existing padding.
const _: () = assert!(std::mem::size_of::<SwarmSummary>() == 64);

impl SwarmSummary {
    /// Fraction of the horizon with a seed available.
    pub fn availability(&self, horizon_hours: f64) -> f64 {
        self.on_hours / horizon_hours
    }

    /// Fraction of the first month with a seed available.
    pub fn first_month_availability(&self) -> f64 {
        self.first_month_on_hours / HOURS_PER_MONTH
    }
}

/// Outcome of ticking the whole catalog.
#[derive(Debug, Clone)]
pub struct CatalogRun {
    /// The configuration that produced this run.
    pub config: CatalogRunConfig,
    /// Monitoring horizon in hours.
    pub horizon_hours: f64,
    /// One summary per swarm walked: `per_swarm[i]` is the summary of
    /// the `i`-th swarm of the slice given to [`run_catalog`].
    pub per_swarm: Vec<SwarmSummary>,
    /// Wall-clock time of the sharded execution.
    pub wall: Duration,
}

impl CatalogRun {
    /// Total downloads served across the catalog.
    pub fn total_arrivals(&self) -> u64 {
        self.per_swarm.iter().map(|s| s.arrivals).sum()
    }

    /// Total seed-process transitions across the catalog.
    pub fn total_toggles(&self) -> u64 {
        self.per_swarm.iter().map(|s| s.toggles).sum()
    }

    /// End-of-horizon seed presence per swarm, in the order of
    /// [`per_swarm`](Self::per_swarm) — the live analog of the
    /// stationary snapshot sample used by `book_stats`.
    pub fn seeded_flags(&self) -> Vec<bool> {
        self.per_swarm.iter().map(|s| s.final_on).collect()
    }
}

/// SplitMix64 — the standard 64-bit mixer, used here to expand
/// `(catalog_seed, swarm_id)` into a 256-bit ChaCha key.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The private RNG stream of one swarm: ChaCha8 keyed by a SplitMix64
/// expansion of `(catalog_seed, swarm_id)`. Streams for distinct ids
/// are statistically independent, and a swarm's stream never depends on
/// which shard simulates it.
pub fn swarm_stream(catalog_seed: u64, swarm_id: u64) -> ChaCha8Rng {
    let mut state = catalog_seed ^ swarm_id.wrapping_mul(0xA076_1D64_78BD_642F);
    let mut key = [0u8; 32];
    for chunk in key.chunks_exact_mut(8) {
        chunk.copy_from_slice(&splitmix64(&mut state).to_le_bytes());
    }
    ChaCha8Rng::from_seed(key)
}

fn sample_exp<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    Exp::new(rate).expect("positive rate").sample(rng)
}

/// Event-driven walk of one swarm's seed process over the horizon.
///
/// Time advances in weekly segments (the [`PARAM_REFRESH_HOURS`]
/// discretization of the age decay): within a segment the
/// hazards are constant, so dwell times are exponential and truncation
/// at the segment boundary is exact by memorylessness. While a seed is
/// present, peer arrivals are generated from their exponential
/// inter-arrival times at the (age-decayed) demand, and each arrival
/// lingers as a seed with probability `altruist_rate / demand`.
pub fn simulate_swarm(swarm: &Swarm, cfg: &CatalogRunConfig) -> SwarmSummary {
    simulate_swarm_recorded(swarm, cfg, None)
}

/// Credit an on-dwell `[from, until)` (hours) to the recorder as
/// integer seconds, split at [`TS_WINDOW_HOURS`] boundaries so each
/// window carries exactly its share. Integer seconds keep the series
/// in the exactly-summable domain the cross-shard diff gate needs.
fn record_on_span(rec: &mut swarm_obs::Recorder, from: f64, until: f64) {
    let w = TS_WINDOW_HOURS as f64;
    let mut a = from;
    while a < until {
        let b = until.min(((a / w).floor() + 1.0) * w);
        rec.add(a as u64, "on_seconds", ((b - a) * 3600.0).round() as u64);
        a = b;
    }
}

/// [`simulate_swarm`] with an optional time-series recorder: arrivals,
/// lingering completers and seed toggles land in the window of their
/// event hour, seed on-time is spread across the windows it covers.
/// Every recorded quantity is derived from the swarm's own
/// deterministic walk, so recorders merged across any shard partition
/// produce identical windows (the shard-invariance test enforces it).
pub fn simulate_swarm_recorded(
    swarm: &Swarm,
    cfg: &CatalogRunConfig,
    mut ts: Option<&mut swarm_obs::Recorder>,
) -> SwarmSummary {
    assert!(cfg.months >= 1, "must run for at least one month");
    assert!(
        cfg.months.checked_mul(HOURS_PER_MONTH as u32).is_some(),
        "the horizon's hour count must fit in u32"
    );
    let mut rng = swarm_stream(cfg.catalog_seed, swarm.id);
    let horizon = cfg.months as f64 * HOURS_PER_MONTH;
    let start_age = if cfg.start_at_generated_age {
        swarm.age_days
    } else {
        0.0
    };
    let refresh = PARAM_REFRESH_HOURS as f64;
    let linger_p = (swarm.altruist_rate / swarm.demand).clamp(0.0, 1.0);

    let p0 = seed_process(swarm, start_age);
    let mut on = rng.gen::<f64>() < p0.on_mean / (p0.on_mean + p0.off_mean);

    let mut out = SwarmSummary {
        id: swarm.id,
        on_hours: 0.0,
        first_month_on_hours: 0.0,
        on_samples: 0,
        toggles: 0,
        arrivals: 0,
        lingered: 0,
        events: 0,
        final_on: on,
    };

    let mut t = 0.0f64;
    while t < horizon {
        let seg_end = (((t / refresh).floor() + 1.0) * refresh).min(horizon);
        let age_days = start_age + t / 24.0;
        let params = seed_process(swarm, age_days);
        let lambda = (swarm.demand * demand_decay(age_days)).max(1e-12);
        while t < seg_end {
            let mean = if on { params.on_mean } else { params.off_mean };
            let until = (t + sample_exp(&mut rng, 1.0 / mean)).min(seg_end);
            if on {
                out.on_hours += until - t;
                // Hour boundaries h with t <= h < until.
                out.on_samples += (until.ceil() - t.ceil()) as u32;
                let fm_end = HOURS_PER_MONTH.min(horizon);
                if t < fm_end {
                    out.first_month_on_hours += until.min(fm_end) - t;
                }
                if let Some(rec) = ts.as_deref_mut() {
                    record_on_span(rec, t, until);
                }
                // Peers arriving while the content is fetchable.
                let mut next = t + sample_exp(&mut rng, lambda);
                while next < until {
                    out.arrivals += 1;
                    let lingers = rng.gen::<f64>() < linger_p;
                    if lingers {
                        out.lingered += 1;
                    }
                    if let Some(rec) = ts.as_deref_mut() {
                        rec.add(next as u64, "arrivals", 1);
                        rec.add(next as u64, "lingered", u64::from(lingers));
                    }
                    next += sample_exp(&mut rng, lambda);
                }
            }
            out.events += 1;
            t = until;
            if until < seg_end {
                on = !on;
                out.toggles += 1;
                if let Some(rec) = ts.as_deref_mut() {
                    rec.add(until as u64, "toggles", 1);
                }
            }
        }
    }
    out.final_on = on;
    out
}

/// Walk every swarm of `swarms`: a whole catalog or any part of it.
///
/// Each worker of [`run_sharded`] takes the next swarm from a shared
/// counter and batches its telemetry locally, flushing to the global
/// registry exactly once at the shard barrier (see [`ShardObs`]). The
/// returned `per_swarm[i]` is `swarms[i]`'s summary. A swarm's walk
/// reads its own stream, keyed by `(catalog_seed, swarm.id)`, so a swarm
/// gets the same summary whichever other swarms share the slice.
pub fn run_catalog(swarms: &[Swarm], cfg: &CatalogRunConfig) -> CatalogRun {
    let start = Instant::now();
    let per_swarm = run_sharded(
        swarms.len(),
        cfg.threads,
        ShardObs::new,
        |obs, i| {
            let tick = Instant::now();
            let summary = simulate_swarm_recorded(&swarms[i], cfg, obs.ts_mut());
            obs.record_swarm(&summary, tick.elapsed());
            summary
        },
        |_shard, obs| obs.flush(),
    );
    CatalogRun {
        config: *cfg,
        horizon_hours: cfg.months as f64 * HOURS_PER_MONTH,
        per_swarm,
        wall: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swarm_measurement::{generate_catalog, stationary_availability, CatalogConfig, Category};

    fn small_catalog() -> Vec<Swarm> {
        generate_catalog(&CatalogConfig {
            scale: 0.001,
            seed: 11,
        })
    }

    #[test]
    fn streams_are_keyed_by_seed_and_id() {
        let mut a = swarm_stream(1, 2);
        let mut b = swarm_stream(1, 2);
        let mut c = swarm_stream(1, 3);
        let mut d = swarm_stream(2, 2);
        let (xa, xb, xc, xd) = (
            a.gen::<u64>(),
            b.gen::<u64>(),
            c.gen::<u64>(),
            d.gen::<u64>(),
        );
        assert_eq!(xa, xb);
        assert_ne!(xa, xc);
        assert_ne!(xa, xd);
    }

    #[test]
    fn summary_is_internally_consistent() {
        for s in small_catalog().iter().take(40) {
            let cfg = CatalogRunConfig {
                months: 2,
                ..CatalogRunConfig::default()
            };
            let out = simulate_swarm(s, &cfg);
            let horizon = 2.0 * HOURS_PER_MONTH;
            assert!(out.on_hours >= 0.0 && out.on_hours <= horizon + 1e-9);
            assert!(out.first_month_on_hours <= HOURS_PER_MONTH + 1e-9);
            assert!(out.first_month_on_hours <= out.on_hours + 1e-9);
            assert!(out.lingered <= out.arrivals);
            assert!(out.events >= out.toggles);
            // A walk covering the horizon needs at least one dwell per
            // refresh segment.
            assert!(out.events as f64 >= horizon / PARAM_REFRESH_HOURS as f64);
        }
    }

    #[test]
    fn walk_matches_stationary_availability() {
        let music: Vec<Swarm> = generate_catalog(&CatalogConfig {
            scale: 0.002,
            seed: 3,
        })
        .into_iter()
        .filter(|s| s.category == Category::Music)
        .collect();
        // One swarm walked from creation, while both decays move its
        // parameters, and one walked from a generated age past both
        // decays, where the envelope is narrow. The second is seeded
        // about half the time, so on- and off-dwells both weigh in.
        let young = &music[0];
        let old = music
            .iter()
            .find(|s| {
                s.age_days > 120.0 && (0.3..0.7).contains(&stationary_availability(s, s.age_days))
            })
            .expect("an old music swarm with mid-range availability");
        for (s, from_age) in [(young, false), (old, true)] {
            // Average over many independent month-long walks.
            let reps = 200;
            let measured = (0..reps)
                .map(|rep| {
                    let cfg = CatalogRunConfig {
                        catalog_seed: rep,
                        months: 1,
                        start_at_generated_age: from_age,
                        ..CatalogRunConfig::default()
                    };
                    simulate_swarm(s, &cfg).first_month_availability()
                })
                .sum::<f64>()
                / reps as f64;
            // With decaying parameters the occupancy lags the stationary
            // curve (the process remembers its more-available past), so
            // the measured month-average must lie between the
            // end-of-month and start-of-month stationary availabilities.
            let start = if from_age { s.age_days } else { 0.0 };
            let lo = stationary_availability(s, start + 30.0);
            let hi = stationary_availability(s, start);
            assert!(
                measured >= lo - 0.05 && measured <= hi + 0.05,
                "swarm {}: measured {measured} outside stationary envelope [{lo}, {hi}]",
                s.id
            );
        }
    }

    #[test]
    fn rerun_is_bit_identical() {
        let swarms = small_catalog();
        let cfg = CatalogRunConfig {
            months: 2,
            ..CatalogRunConfig::default()
        };
        let a = run_catalog(&swarms, &cfg);
        let b = run_catalog(&swarms, &cfg);
        assert_eq!(a.per_swarm, b.per_swarm);
    }

    #[test]
    #[should_panic(expected = "must fit in u32")]
    fn hour_count_overflow_rejected() {
        let swarms = small_catalog();
        simulate_swarm(
            &swarms[0],
            &CatalogRunConfig {
                months: u32::MAX / 720 + 1,
                ..CatalogRunConfig::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "at least one month")]
    fn zero_months_rejected() {
        let swarms = small_catalog();
        simulate_swarm(
            &swarms[0],
            &CatalogRunConfig {
                months: 0,
                ..CatalogRunConfig::default()
            },
        );
    }
}
