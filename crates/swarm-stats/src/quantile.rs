//! Batch samples, quantiles and box-plot summaries.

use crate::Summary;
use serde::{Deserialize, Serialize};

/// A batch of finite observations supporting exact quantiles.
///
/// Observations are kept unsorted until a quantile is requested; sorting is
/// in place and memoized. This matches how the experiment harnesses use
/// it: accumulate download times during a run, then report quartiles at
/// the end.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Samples {
    values: Vec<f64>,
    #[serde(skip)]
    sorted: bool,
}

impl Samples {
    /// An empty sample set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one observation. Non-finite values are rejected with a panic in
    /// debug builds and silently dropped in release builds (an experiment
    /// should never produce them; dropping beats poisoning every quantile).
    pub fn add(&mut self, x: f64) {
        debug_assert!(
            x.is_finite(),
            "Samples observations must be finite, got {x}"
        );
        if x.is_finite() {
            self.values.push(x);
            self.sorted = false;
        }
    }

    /// The observations of every part, in part order, in one vector of
    /// exactly their count.
    ///
    /// The first part's vector is grown once to the total and each later
    /// part is freed as soon as it is copied, so pooling `n` equal parts
    /// peaks at the total plus `n - 1` parts, not at twice a vector that
    /// grew by doubling.
    pub fn concat(parts: Vec<Samples>) -> Samples {
        let total = parts.iter().map(Samples::len).sum::<usize>();
        let mut parts = parts.into_iter();
        let mut values = parts.next().map(|first| first.values).unwrap_or_default();
        values.reserve_exact(total - values.len());
        for part in parts {
            values.extend_from_slice(&part.values);
        }
        // Only a first part with spare capacity leaves any.
        values.shrink_to_fit();
        Samples {
            values,
            sorted: false,
        }
    }

    /// Free the spare capacity that adding one value at a time leaves.
    pub fn shrink_to_fit(&mut self) {
        self.values.shrink_to_fit();
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no observations have been added.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Raw observations in insertion order (until a quantile call sorts them).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Arithmetic mean; `NaN` when empty.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            f64::NAN
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Summary statistics over the batch.
    pub fn summary(&self) -> Summary {
        Summary::from_slice(&self.values)
    }

    /// Sort in place. Under `total_cmp` two finite values compare equal
    /// only when their bits are equal, so the sorted sequence is unique
    /// and the unstable sort, which allocates nothing, gives the one a
    /// stable sort would.
    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.values.sort_unstable_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// Exact quantile with linear interpolation (type-7, the R/NumPy
    /// default). `q` is clamped to `[0, 1]`. `NaN` when empty.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.values.is_empty() {
            return f64::NAN;
        }
        self.ensure_sorted();
        let q = q.clamp(0.0, 1.0);
        let n = self.values.len();
        if n == 1 {
            return self.values[0];
        }
        let pos = q * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        self.values[lo] * (1.0 - frac) + self.values[hi] * frac
    }

    /// Median (50th percentile).
    pub fn median(&mut self) -> f64 {
        self.quantile(0.5)
    }

    /// Five-number box plot extended with 5th/95th percentile whiskers, the
    /// exact presentation of Figure 6(c) in the paper.
    pub fn box_plot(&mut self) -> BoxPlot {
        BoxPlot {
            n: self.len(),
            mean: self.mean(),
            p05: self.quantile(0.05),
            q1: self.quantile(0.25),
            median: self.quantile(0.5),
            q3: self.quantile(0.75),
            p95: self.quantile(0.95),
            min: self.quantile(0.0),
            max: self.quantile(1.0),
        }
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Self::new();
        for x in iter {
            s.add(x);
        }
        s
    }
}

/// Box-plot summary: quartiles plus 5th/95th percentile whiskers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoxPlot {
    /// Number of observations.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// 5th percentile (lower whisker in Figure 6(c)).
    pub p05: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// 95th percentile (upper whisker in Figure 6(c)).
    pub p95: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl BoxPlot {
    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_known_sequence() {
        let mut s = Samples::from_iter((1..=9).map(|i| i as f64));
        assert_eq!(s.median(), 5.0);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 9.0);
        assert_eq!(s.quantile(0.25), 3.0);
        assert_eq!(s.quantile(0.75), 7.0);
    }

    #[test]
    fn interpolated_quantile() {
        let mut s = Samples::from_iter([1.0, 2.0, 3.0, 4.0]);
        // type-7: pos = 0.5 * 3 = 1.5 -> between 2 and 3
        assert!((s.median() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn empty_is_nan() {
        let mut s = Samples::new();
        assert!(s.median().is_nan());
        assert!(s.mean().is_nan());
        assert_eq!(s.len(), 0);
        assert!(s.is_empty());
    }

    #[test]
    fn single_value() {
        let mut s = Samples::from_iter([42.0]);
        assert_eq!(s.quantile(0.3), 42.0);
        assert_eq!(s.median(), 42.0);
    }

    #[test]
    fn quantile_clamps_out_of_range() {
        let mut s = Samples::from_iter([1.0, 2.0, 3.0]);
        assert_eq!(s.quantile(-0.5), 1.0);
        assert_eq!(s.quantile(1.5), 3.0);
    }

    #[test]
    fn box_plot_is_monotone() {
        let mut s = Samples::from_iter((0..100).map(|i| ((i * 37) % 100) as f64));
        let b = s.box_plot();
        assert!(b.min <= b.p05);
        assert!(b.p05 <= b.q1);
        assert!(b.q1 <= b.median);
        assert!(b.median <= b.q3);
        assert!(b.q3 <= b.p95);
        assert!(b.p95 <= b.max);
        assert_eq!(b.n, 100);
        assert!(b.iqr() >= 0.0);
    }

    #[test]
    fn adding_after_quantile_resorts() {
        let mut s = Samples::from_iter([3.0, 1.0, 2.0]);
        assert_eq!(s.median(), 2.0);
        s.add(100.0);
        assert!((s.median() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn quantiles_over_repeated_values() {
        let mut s = Samples::from_iter([2.0, 1.0, 2.0, 3.0, 2.0, 1.0, 2.0]);
        // Sorted: 1 1 2 2 2 2 3; type-7 positions q·6.
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0 / 6.0), 1.0);
        assert_eq!(s.quantile(0.25), 1.5);
        assert_eq!(s.median(), 2.0);
        assert_eq!(s.quantile(0.75), 2.0);
        assert_eq!(s.quantile(11.0 / 12.0), 2.5);
        assert_eq!(s.quantile(1.0), 3.0);
        assert_eq!(s.values(), &[1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 3.0]);
    }

    #[test]
    fn concat_keeps_part_order_at_exact_capacity() {
        let parts = vec![
            Samples::from_iter([3.0, 1.0, 2.0]),
            Samples::new(),
            Samples::from_iter([5.0]),
            Samples::from_iter([4.0, 0.5]),
        ];
        let mut s = Samples::concat(parts);
        assert_eq!(s.values(), &[3.0, 1.0, 2.0, 5.0, 4.0, 0.5]);
        assert_eq!(s.values.capacity(), 6);
        assert_eq!(s.median(), 2.5);

        // A first part with spare room is trimmed to the total.
        let mut roomy = Samples::from_iter([1.0]);
        roomy.values.reserve(100);
        let s = Samples::concat(vec![roomy, Samples::from_iter([2.0])]);
        assert_eq!(s.values(), &[1.0, 2.0]);
        assert_eq!(s.values.capacity(), 2);

        let one = Samples::concat(vec![Samples::from_iter([7.0, 8.0, 9.0])]);
        assert_eq!(one.values(), &[7.0, 8.0, 9.0]);
        assert_eq!(one.values.capacity(), 3);

        assert!(Samples::concat(Vec::new()).is_empty());
        let empty = Samples::concat(vec![Samples::new(), Samples::new()]);
        assert!(empty.is_empty());
        assert_eq!(empty.values.capacity(), 0);
    }
}
