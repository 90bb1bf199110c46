//! Seed-presence dynamics: the closed forms of a swarm's seed process.
//!
//! Each swarm's *ground-truth* seed presence is an alternating renewal
//! process driven by the paper's own model: seeds (the original
//! publisher plus altruistic completers) form an M/G/∞ queue whose busy
//! periods are seed-present intervals (eq. 9 parameterization), and idle
//! periods are exponential with mean `1/r`. Demand and publisher interest
//! decay with swarm age, which is what separates the paper's first-month
//! curve from the whole-trace curve in Figure 1. The process itself is
//! walked by `swarm_catalog::runtime::simulate_swarm`; this module holds
//! its parameters and their stationary reading.

use crate::catalog::Swarm;
use serde::{Deserialize, Serialize};
use swarm_queue::busy::TwoPhaseBusyPeriod;

/// Hours per "month" of monitoring (30 days).
pub const HOURS_PER_MONTH: f64 = 720.0;

/// How often (in hours) the slowly-varying seed-process parameters are
/// refreshed: weekly. The catalog runtime's walk (`swarm-catalog`)
/// holds the hazards constant within each such segment.
pub const PARAM_REFRESH_HOURS: usize = 24 * 7;

/// Age-dependent effective parameters of a swarm's seed process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SeedProcessParams {
    /// Mean seed-present (busy) period length in hours.
    pub on_mean: f64,
    /// Mean seedless (idle) period length in hours (`1/r(age)`).
    pub off_mean: f64,
}

/// Demand decay with age: a popularity wave that fades over a few weeks
/// onto a small persistent tail (Figure 7's new-vs-old contrast).
pub fn demand_decay(age_days: f64) -> f64 {
    0.05 + 0.95 * (-age_days / 20.0).exp()
}

/// Publisher-interest decay with age: publishers re-seed new content
/// often, old content rarely.
pub fn publisher_decay(age_days: f64) -> f64 {
    0.008 + 0.992 * (-age_days / 14.0).exp()
}

/// Effective seed-process parameters of `swarm` at the given age.
///
/// The busy period comes from the eq. (9) machinery with seeds as
/// customers: publishers arrive at `r(age)` and stay `u`; altruistic
/// completers appear at `ψ(age)` (a fixed fraction of demand) and stay
/// their lingering time.
pub fn seed_process(swarm: &Swarm, age_days: f64) -> SeedProcessParams {
    let r = (swarm.publisher_rate * publisher_decay(age_days)).max(1e-7);
    let psi = (swarm.altruist_rate * demand_decay(age_days)).max(1e-9);
    let p = TwoPhaseBusyPeriod {
        beta: r + psi,
        theta: swarm.publisher_residence,
        q1: psi / (r + psi),
        alpha1: swarm.altruist_residence,
        alpha2: swarm.publisher_residence,
    };
    let on_mean = p.expected().min(24.0 * 365.0 * 10.0); // cap at 10 years
    SeedProcessParams {
        on_mean,
        off_mean: 1.0 / r,
    }
}

/// Stationary probability that at least one seed is online at the given
/// age (the snapshot statistic used in §2.3.2).
pub fn stationary_availability(swarm: &Swarm, age_days: f64) -> f64 {
    let p = seed_process(swarm, age_days);
    p.on_mean / (p.on_mean + p.off_mean)
}

/// Expected number of completed downloads over a monitoring window: peers
/// arrive at the (decayed) demand and complete when content is available.
pub fn expected_downloads(swarm: &Swarm, months: u32) -> f64 {
    let mut total = 0.0;
    for m in 0..months {
        let age_days = m as f64 * 30.0 + 15.0;
        let demand = swarm.demand * demand_decay(age_days);
        let avail = stationary_availability(swarm, age_days);
        total += demand * avail * HOURS_PER_MONTH;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{generate_catalog, CatalogConfig, Category};

    fn any_swarm() -> Swarm {
        generate_catalog(&CatalogConfig {
            scale: 0.002,
            seed: 3,
        })
        .into_iter()
        .find(|s| s.category == Category::Music)
        .expect("music swarm exists")
    }

    #[test]
    fn decay_functions_monotone() {
        assert!(demand_decay(0.0) > demand_decay(10.0));
        assert!(demand_decay(10.0) > demand_decay(100.0));
        assert!(demand_decay(1e6) >= 0.05 - 1e-12);
        assert!(publisher_decay(0.0) > publisher_decay(365.0));
    }

    #[test]
    fn seed_process_degrades_with_age() {
        let s = any_swarm();
        let young = seed_process(&s, 0.0);
        let old = seed_process(&s, 365.0);
        assert!(young.on_mean >= old.on_mean);
        assert!(young.off_mean <= old.off_mean);
        assert!(stationary_availability(&s, 0.0) >= stationary_availability(&s, 365.0));
    }

    #[test]
    fn expected_downloads_positive_and_decaying() {
        let s = any_swarm();
        let one = expected_downloads(&s, 1);
        let seven = expected_downloads(&s, 7);
        assert!(one > 0.0);
        assert!(seven > one);
        // Month 7 adds less than month 1 did (decay).
        let six = expected_downloads(&s, 6);
        assert!(seven - six < one);
    }
}
