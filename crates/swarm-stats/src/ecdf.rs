//! Empirical cumulative distribution functions.
//!
//! Figure 1 of the paper is a CDF of per-swarm seed availability over
//! ~45k swarms; the measurement crate reproduces it with [`Ecdf`].

use serde::{Deserialize, Serialize};

/// Empirical CDF over a finite sample.
///
/// `F(x)` is the fraction of observations `<= x` (right-continuous step
/// function, the standard ECDF definition).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Build an ECDF from observations. Non-finite values are dropped.
    pub fn new(mut values: Vec<f64>) -> Self {
        values.retain(|x| x.is_finite());
        values.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
        Ecdf { sorted: values }
    }

    /// Number of underlying observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when built from no observations.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `F(x)`: fraction of observations less than or equal to `x`.
    /// `NaN` when empty.
    pub fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return f64::NAN;
        }
        // partition_point returns the count of elements <= x because the
        // predicate holds on the (sorted) prefix of such elements.
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Generalized inverse `F^{-1}(p)`: the smallest observation `x` with
    /// `F(x) >= p`. `p` is clamped to `(0, 1]`. `NaN` when empty.
    pub fn inverse(&self, p: f64) -> f64 {
        if self.sorted.is_empty() {
            return f64::NAN;
        }
        let p = p.clamp(f64::MIN_POSITIVE, 1.0);
        let n = self.sorted.len();
        let idx = ((p * n as f64).ceil() as usize).clamp(1, n) - 1;
        self.sorted[idx]
    }

    /// Evaluate the ECDF at `points` evenly spaced grid positions across
    /// `[lo, hi]`, returning `(x, F(x))` pairs — the series a CDF figure
    /// plots.
    pub fn curve(&self, lo: f64, hi: f64, points: usize) -> Vec<(f64, f64)> {
        assert!(points >= 2, "need at least two grid points");
        assert!(hi >= lo, "hi must be >= lo");
        (0..points)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (points - 1) as f64;
                (x, self.eval(x))
            })
            .collect()
    }

    /// Sorted underlying observations.
    pub fn sorted_values(&self) -> &[f64] {
        &self.sorted
    }

    /// Kolmogorov–Smirnov distance to another ECDF
    /// (sup over observed jump points of |F1 - F2|). `NaN` when either
    /// sample is empty, as [`Ecdf::eval`] is: an empty sample agrees
    /// with no distribution.
    ///
    /// Used by tests to compare simulated distributions against analytic
    /// ones and by the reproduction harness to quantify "shape" agreement.
    pub fn ks_distance(&self, other: &Ecdf) -> f64 {
        if self.is_empty() || other.is_empty() {
            return f64::NAN;
        }
        let mut d: f64 = 0.0;
        for &x in self.sorted.iter().chain(other.sorted.iter()) {
            d = d.max((self.eval(x) - other.eval(x)).abs());
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_step_function() {
        let e = Ecdf::new(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.eval(0.5), 0.0);
        assert_eq!(e.eval(1.0), 0.25);
        assert_eq!(e.eval(2.5), 0.5);
        assert_eq!(e.eval(4.0), 1.0);
        assert_eq!(e.eval(100.0), 1.0);
    }

    #[test]
    fn handles_duplicates() {
        let e = Ecdf::new(vec![1.0, 1.0, 1.0, 2.0]);
        assert_eq!(e.eval(1.0), 0.75);
        assert_eq!(e.eval(1.5), 0.75);
        assert_eq!(e.eval(2.0), 1.0);
    }

    #[test]
    fn inverse_round_trips() {
        let e = Ecdf::new(vec![10.0, 20.0, 30.0, 40.0]);
        assert_eq!(e.inverse(0.25), 10.0);
        assert_eq!(e.inverse(0.26), 20.0);
        assert_eq!(e.inverse(1.0), 40.0);
        // tiny p maps to the smallest observation
        assert_eq!(e.inverse(1e-12), 10.0);
    }

    #[test]
    fn empty_is_nan() {
        let e = Ecdf::new(vec![]);
        assert!(e.eval(1.0).is_nan());
        assert!(e.inverse(0.5).is_nan());
        assert!(e.is_empty());
    }

    #[test]
    fn drops_non_finite() {
        let e = Ecdf::new(vec![1.0, f64::NAN, 2.0, f64::INFINITY]);
        assert_eq!(e.len(), 2);
    }

    #[test]
    fn curve_endpoints() {
        let e = Ecdf::new(vec![0.0, 0.5, 1.0]);
        let c = e.curve(0.0, 1.0, 3);
        assert_eq!(c.len(), 3);
        assert_eq!(c[0], (0.0, 1.0 / 3.0));
        assert_eq!(c[2], (1.0, 1.0));
    }

    #[test]
    fn ks_distance_identical_is_zero() {
        let a = Ecdf::new(vec![1.0, 2.0, 3.0]);
        let b = Ecdf::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(a.ks_distance(&b), 0.0);
    }

    #[test]
    fn ks_distance_to_an_empty_sample_is_nan() {
        let a = Ecdf::new(vec![1.0, 2.0]);
        let empty = Ecdf::new(vec![]);
        assert!(a.ks_distance(&empty).is_nan());
        assert!(empty.ks_distance(&a).is_nan());
        assert!(empty.ks_distance(&empty).is_nan());
    }

    #[test]
    fn ks_distance_disjoint_is_one() {
        let a = Ecdf::new(vec![1.0, 2.0]);
        let b = Ecdf::new(vec![10.0, 20.0]);
        assert_eq!(a.ks_distance(&b), 1.0);
    }
}
