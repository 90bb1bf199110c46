//! Peer upload-capacity distributions.
//!
//! §4.3.2 repeats the bundling experiment with heterogeneous upload
//! capacities drawn from the measured BitTyrant distribution (Piatek et
//! al., NSDI'07): "The average upload rate is 280 KBps and the median is
//! 50 KBps" — a heavy-tailed shape where most peers are slow and a small
//! fraction are very fast.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// How per-peer upload capacities are assigned.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CapacityDistribution {
    /// Every peer uploads at the same rate (the paper's homogeneous
    /// experiments: 33 kB/s in §4.2, 50 kB/s in §4.3).
    Uniform(f64),
    /// A BitTyrant-like heavy-tailed empirical distribution with median
    /// ≈ 50 kB/s and mean ≈ 280 kB/s (§4.3.2).
    BitTyrant,
    /// Explicit quantile table: `(cumulative probability, rate)` pairs in
    /// ascending order; sampling inverts the piecewise-constant CDF.
    Empirical(Vec<(f64, f64)>),
}

/// BitTyrant-like quantile table. Piecewise-constant inverse CDF chosen to
/// hit the paper's two calibration points (median 50, mean ≈ 280 kB/s)
/// with a plausible heavy tail: half the peers are broadband-slow,
/// ~10% are fast university/datacenter hosts.
const BITTYRANT_QUANTILES: &[(f64, f64)] = &[
    (0.10, 12.0),
    (0.25, 25.0),
    (0.50, 50.0),
    (0.70, 100.0),
    (0.85, 250.0),
    (0.93, 600.0),
    (0.97, 1200.0),
    (0.99, 3000.0),
    (1.00, 5000.0),
];

impl CapacityDistribution {
    /// Draw one peer's upload capacity.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match self {
            CapacityDistribution::Uniform(c) => {
                assert!(*c > 0.0 && c.is_finite(), "capacity must be positive");
                *c
            }
            CapacityDistribution::BitTyrant => sample_quantiles(BITTYRANT_QUANTILES, rng),
            CapacityDistribution::Empirical(table) => {
                assert!(!table.is_empty(), "empirical table must not be empty");
                sample_quantiles(table, rng)
            }
        }
    }

    /// Panic unless the distribution is well formed: a finite positive
    /// uniform rate, or a non-empty quantile table whose cumulative
    /// probabilities strictly ascend within (0, 1] and end at exactly 1.0,
    /// with finite positive rates. Otherwise a NaN rate uploads at the
    /// full download cap (`f64::min(NaN, cap)` is `cap`), and a table
    /// ending short of 1.0 makes [`Self::mean`] disagree with
    /// [`Self::sample`]. Inlined so the common uniform case costs config
    /// validation only a compare.
    #[inline]
    pub fn validate(&self) {
        match self {
            CapacityDistribution::Uniform(c) => assert!(
                *c > 0.0 && c.is_finite(),
                "uniform capacity must be positive and finite"
            ),
            CapacityDistribution::BitTyrant => validate_quantiles(BITTYRANT_QUANTILES),
            CapacityDistribution::Empirical(table) => validate_quantiles(table),
        }
    }

    /// Expected value of the distribution.
    pub fn mean(&self) -> f64 {
        match self {
            CapacityDistribution::Uniform(c) => *c,
            CapacityDistribution::BitTyrant => quantile_mean(BITTYRANT_QUANTILES),
            CapacityDistribution::Empirical(table) => quantile_mean(table),
        }
    }

    /// Expected value of `min(X, cap)` — the *effective* per-peer rate
    /// when receivers cannot absorb more than `cap` (e.g. 2008-era DSL
    /// downlinks): the fast tail's surplus capacity is wasted.
    pub fn mean_capped(&self, cap: f64) -> f64 {
        assert!(cap > 0.0 && cap.is_finite(), "cap must be positive");
        match self {
            CapacityDistribution::Uniform(c) => c.min(cap),
            CapacityDistribution::BitTyrant => quantile_mean_capped(BITTYRANT_QUANTILES, cap),
            CapacityDistribution::Empirical(table) => quantile_mean_capped(table, cap),
        }
    }
}

fn sample_quantiles<R: Rng + ?Sized>(table: &[(f64, f64)], rng: &mut R) -> f64 {
    let u: f64 = rng.gen();
    for &(q, v) in table {
        if u <= q {
            return v;
        }
    }
    table.last().expect("nonempty table").1
}

/// The quantile-table rules of [`CapacityDistribution::validate`].
fn validate_quantiles(table: &[(f64, f64)]) {
    assert!(!table.is_empty(), "empirical table must not be empty");
    let mut prev = 0.0;
    for &(q, rate) in table {
        assert!(
            q > prev && q <= 1.0,
            "quantile probabilities must strictly ascend within (0, 1]"
        );
        assert!(
            rate > 0.0 && rate.is_finite(),
            "quantile rates must be positive and finite"
        );
        prev = q;
    }
    assert!(prev == 1.0, "quantile table must end at probability 1.0");
}

fn quantile_mean_capped(table: &[(f64, f64)], cap: f64) -> f64 {
    let mut prev_q = 0.0;
    let mut mean = 0.0;
    for &(q, v) in table {
        mean += (q - prev_q) * v.min(cap);
        prev_q = q;
    }
    mean
}

fn quantile_mean(table: &[(f64, f64)]) -> f64 {
    let mut prev_q = 0.0;
    let mut mean = 0.0;
    for &(q, v) in table {
        mean += (q - prev_q) * v;
        prev_q = q;
    }
    mean
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn uniform_is_constant() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let d = CapacityDistribution::Uniform(50.0);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 50.0);
        }
        assert_eq!(d.mean(), 50.0);
    }

    #[test]
    fn bittyrant_matches_paper_calibration() {
        // Median 50 kB/s, mean ≈ 280 kB/s (§4.3.2).
        let d = CapacityDistribution::BitTyrant;
        let mean = d.mean();
        assert!(
            (mean - 280.0).abs() < 40.0,
            "analytic mean {mean} should be ≈ 280 kB/s"
        );
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let samples: Vec<f64> = (0..100_000).map(|_| d.sample(&mut rng)).collect();
        // Half the mass sits at or below 50 kB/s (the paper's median).
        let at_or_below_median =
            samples.iter().filter(|&&v| v <= 50.0).count() as f64 / samples.len() as f64;
        assert!(
            (at_or_below_median - 0.5).abs() < 0.01,
            "P(X <= 50) = {at_or_below_median}, median must be 50 kB/s"
        );
        let sample_mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!(
            (sample_mean - mean).abs() < 10.0,
            "sample mean {sample_mean} vs analytic {mean}"
        );
    }

    #[test]
    fn mean_capped_clips_the_tail() {
        let d = CapacityDistribution::BitTyrant;
        // Uncapped mean ≈ 280; a 250 kB/s downlink clips it to ~112.
        let eff = d.mean_capped(250.0);
        assert!(eff < d.mean() / 2.0, "capped mean {eff}");
        assert!(
            (eff - 112.0).abs() < 10.0,
            "capped mean {eff} should be ~112"
        );
        // A huge cap changes nothing; uniform clips trivially.
        assert!((d.mean_capped(1e9) - d.mean()).abs() < 1e-9);
        assert_eq!(CapacityDistribution::Uniform(50.0).mean_capped(30.0), 30.0);
    }

    #[test]
    fn bittyrant_is_heavy_tailed() {
        let d = CapacityDistribution::BitTyrant;
        // Mean far above median is the heavy-tail signature.
        assert!(d.mean() > 4.0 * 50.0);
    }

    #[test]
    fn empirical_table_sampling() {
        let d = CapacityDistribution::Empirical(vec![(0.5, 10.0), (1.0, 30.0)]);
        assert!((d.mean() - 20.0).abs() < 1e-12);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let n_fast = (0..10_000).filter(|_| d.sample(&mut rng) == 30.0).count();
        assert!((n_fast as f64 / 10_000.0 - 0.5).abs() < 0.02);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empirical_rejects_empty_table() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        CapacityDistribution::Empirical(vec![]).sample(&mut rng);
    }
}
