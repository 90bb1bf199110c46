//! Process-wide metrics registry: atomic counters and gauges, lock-free
//! fixed-bucket histograms, and serializable snapshots.
//!
//! Handles are `&'static` — [`counter`]/[`gauge`]/[`histogram`] intern
//! the name once (a short registry-lock critical section) and hand back
//! a leaked reference, so hot paths can cache the handle and mutate it
//! with nothing but relaxed atomics. All mutating operations are gated
//! on [`crate::enabled`] internally; callers need no `cfg` of their own.
//!
//! # Naming scheme
//!
//! `<crate>.<subsystem>.<metric>`, e.g. `bt.pieces.covered`,
//! `stats.budget.lease_wait_ns`, `lab.cache.hit`. Span histograms are
//! registered by [`crate::span()`] under `span.<name>`. Units go in the
//! name suffix (`_ns`, `_ms`, `_bytes`) — there is no unit metadata.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Monotonic `u64` counter.
#[derive(Debug)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    fn new() -> Self {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    #[inline(always)]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline(always)]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Last-write-wins signed gauge (with a `set_max` high-water helper).
#[derive(Debug)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    fn new() -> Self {
        Gauge {
            value: AtomicI64::new(0),
        }
    }

    #[inline(always)]
    pub fn set(&self, v: i64) {
        if crate::enabled() {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    #[inline(always)]
    pub fn add(&self, d: i64) {
        if crate::enabled() {
            self.value.fetch_add(d, Ordering::Relaxed);
        }
    }

    /// Raise the gauge to `v` if above the current value (high-water mark).
    #[inline(always)]
    pub fn set_max(&self, v: i64) {
        if crate::enabled() {
            self.value.fetch_max(v, Ordering::Relaxed);
        }
    }

    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Bucket count: one zero bucket plus one per power of two of `u64`.
pub const HIST_BUCKETS: usize = 65;

/// Index of the bucket holding `v`: 0 for 0, else `ilog2(v) + 1`.
/// Bucket `i >= 1` spans `[2^(i-1), 2^i - 1]`.
#[inline(always)]
fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Lock-free histogram over power-of-two buckets. Coarse (one bucket
/// per binary order of magnitude) but allocation-free and mergeable;
/// quantiles come back as bucket bounds, which is plenty for latency
/// tails and distribution shape.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    #[inline(always)]
    pub fn record(&self, v: u64) {
        if crate::enabled() {
            self.count.fetch_add(1, Ordering::Relaxed);
            self.sum.fetch_add(v, Ordering::Relaxed);
            self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record a duration in nanoseconds.
    #[inline(always)]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Merge an externally accumulated [`HistogramSnapshot`] into this
    /// registry histogram in one pass.
    ///
    /// This is the flush half of per-shard metric batching: a shard
    /// worker records into its own plain `HistogramSnapshot` (no
    /// atomics, no registry contention) and merges the whole thing at
    /// its barrier. Observations land in exactly the buckets a direct
    /// [`Histogram::record`] of each value would have used, so a
    /// batched multi-shard run and a single-threaded run produce
    /// identical registry snapshots for deterministic value streams.
    pub fn merge_snapshot(&self, snap: &HistogramSnapshot) {
        if !crate::enabled() || snap.count == 0 {
            return;
        }
        assert_eq!(
            snap.buckets.len(),
            HIST_BUCKETS,
            "snapshot bucket layout mismatch"
        );
        self.count.fetch_add(snap.count, Ordering::Relaxed);
        self.sum.fetch_add(snap.sum, Ordering::Relaxed);
        for (b, &v) in self.buckets.iter().zip(&snap.buckets) {
            if v > 0 {
                b.fetch_add(v, Ordering::Relaxed);
            }
        }
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// Owned, serializable copy of a [`Histogram`]. Also usable as a plain
/// single-threaded histogram via [`HistogramSnapshot::record`] (tests,
/// offline merging).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub buckets: Vec<u64>,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::new()
    }
}

impl HistogramSnapshot {
    pub fn new() -> Self {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            buckets: vec![0; HIST_BUCKETS],
        }
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Non-atomic record, for building histograms outside the registry.
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum += v;
        self.buckets[bucket_index(v)] += 1;
    }

    /// Inclusive value range of bucket `i`.
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        assert!(i < HIST_BUCKETS);
        if i == 0 {
            (0, 0)
        } else {
            let lo = 1u64 << (i - 1);
            let hi = if i == 64 { u64::MAX } else { (1u64 << i) - 1 };
            (lo, hi)
        }
    }

    /// Add `other`'s observations into `self`.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        assert_eq!(self.buckets.len(), other.buckets.len());
        self.count += other.count;
        self.sum += other.sum;
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    /// Observations recorded since `base` (normally an earlier snapshot
    /// of the same histogram). Saturates per field when `base` carries
    /// counts this snapshot lacks — a merged or reset base must not
    /// underflow — and keeps `self`'s bucket layout even when `base`
    /// has fewer buckets (zip would silently truncate, breaking the
    /// `HIST_BUCKETS` invariant downstream `merge_snapshot` asserts).
    /// When saturation zeroes `count` but bucket mass survives, `count`
    /// is raised to the surviving mass so the two stay consistent.
    pub fn delta_since(&self, base: &HistogramSnapshot) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .enumerate()
            .map(|(i, a)| a.saturating_sub(base.buckets.get(i).copied().unwrap_or(0)))
            .collect();
        let mass: u64 = buckets.iter().sum();
        HistogramSnapshot {
            count: self.count.saturating_sub(base.count).max(mass),
            sum: self.sum.saturating_sub(base.sum),
            buckets,
        }
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `(lo, hi)` bounds of the bucket holding the `q`-quantile
    /// observation (nearest-rank), or `None` when empty.
    pub fn quantile_bounds(&self, q: f64) -> Option<(u64, u64)> {
        self.quantile_bucket(q)
            .map(|(i, _, _)| Self::bucket_bounds(i))
    }

    /// Bucket index holding the `q`-quantile observation, with the
    /// nearest-rank position and the cumulative count *before* that
    /// bucket (the ingredients of within-bucket interpolation).
    fn quantile_bucket(&self, q: f64) -> Option<(usize, u64, u64)> {
        if self.count == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * (self.count - 1) as f64).round() as u64;
        let mut cum = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            if cum + b > rank {
                return Some((i, rank, cum));
            }
            cum += b;
        }
        // Unreachable when counts are consistent; be forgiving if a
        // racy snapshot undercounted buckets relative to `count`.
        Some((HIST_BUCKETS - 1, rank, cum))
    }

    /// The `q`-quantile, linearly interpolated within the matched
    /// power-of-two bucket (observations are assumed uniform across the
    /// bucket, the usual fixed-bucket estimator); `None` when empty.
    ///
    /// The estimate always lies inside [`Self::quantile_bounds`], so it
    /// refines — never contradicts — the raw bound the previous
    /// implementation returned.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let (i, rank, cum_before) = self.quantile_bucket(q)?;
        let (lo, hi) = Self::bucket_bounds(i);
        let in_bucket = self.buckets[i];
        if in_bucket == 0 || hi == lo {
            return Some(hi);
        }
        // Nearest-rank position within the bucket, placed at the
        // midpoint of its 1/in_bucket slice of the value range.
        let frac = (rank.saturating_sub(cum_before) as f64 + 0.5) / in_bucket as f64;
        let mut est = lo as f64 + frac * (hi - lo) as f64;
        if in_bucket == self.count {
            // Every observation sits in this one bucket, so the global
            // mean is an exact within-bucket statistic. Re-center the
            // uniform fan on it: the median lands on the true mean
            // instead of the bucket midpoint (exact when all values are
            // equal — the common case for latency counters that only
            // ever saw one value), while the tails keep their spread.
            est += self.mean() - (lo as f64 + hi as f64) / 2.0;
        }
        Some((est.round() as u64).clamp(lo, hi))
    }

    /// Upper bound of the highest non-empty bucket (coarse max).
    pub fn max_bound(&self) -> Option<u64> {
        self.buckets
            .iter()
            .rposition(|&b| b > 0)
            .map(|i| Self::bucket_bounds(i).1)
    }

    /// Lower bound of the lowest non-empty bucket (coarse min).
    pub fn min_bound(&self) -> Option<u64> {
        self.buckets
            .iter()
            .position(|&b| b > 0)
            .map(|i| Self::bucket_bounds(i).0)
    }
}

#[derive(Default)]
struct Registry {
    counters: Mutex<BTreeMap<String, &'static Counter>>,
    gauges: Mutex<BTreeMap<String, &'static Gauge>>,
    histograms: Mutex<BTreeMap<String, &'static Histogram>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

fn intern<T>(map: &Mutex<BTreeMap<String, &'static T>>, name: &str, make: fn() -> T) -> &'static T {
    let mut map = map.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(v) = map.get(name) {
        return v;
    }
    let v: &'static T = Box::leak(Box::new(make()));
    map.insert(name.to_string(), v);
    v
}

/// The counter registered under `name` (created on first use). Cache
/// the handle outside hot loops — interning takes the registry lock.
pub fn counter(name: &str) -> &'static Counter {
    intern(&registry().counters, name, Counter::new)
}

/// The gauge registered under `name` (created on first use).
pub fn gauge(name: &str) -> &'static Gauge {
    intern(&registry().gauges, name, Gauge::new)
}

/// The histogram registered under `name` (created on first use).
pub fn histogram(name: &str) -> &'static Histogram {
    intern(&registry().histograms, name, Histogram::new)
}

/// Point-in-time copy of every registered metric.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Snapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, i64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// Snapshot the whole registry (counters, gauges, histograms).
pub fn snapshot() -> Snapshot {
    let reg = registry();
    let counters = {
        let map = reg.counters.lock().unwrap_or_else(|e| e.into_inner());
        map.iter().map(|(k, c)| (k.clone(), c.get())).collect()
    };
    let gauges = {
        let map = reg.gauges.lock().unwrap_or_else(|e| e.into_inner());
        map.iter().map(|(k, g)| (k.clone(), g.get())).collect()
    };
    let histograms = {
        let map = reg.histograms.lock().unwrap_or_else(|e| e.into_inner());
        map.iter().map(|(k, h)| (k.clone(), h.snapshot())).collect()
    };
    Snapshot {
        counters,
        gauges,
        histograms,
    }
}

impl Snapshot {
    /// Activity between `base` (earlier) and `self` (later): counters
    /// and histograms are subtracted; gauges keep their latest value.
    /// Metrics absent from `base` appear with their full value.
    pub fn delta_since(&self, base: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| {
                (
                    k.clone(),
                    v.saturating_sub(base.counters.get(k).copied().unwrap_or(0)),
                )
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| {
                let d = match base.histograms.get(k) {
                    Some(b) => h.delta_since(b),
                    None => h.clone(),
                };
                (k.clone(), d)
            })
            .collect();
        Snapshot {
            counters,
            gauges: self.gauges.clone(),
            histograms,
        }
    }

    /// Counter value by name, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 1..HIST_BUCKETS {
            let (lo, hi) = HistogramSnapshot::bucket_bounds(i);
            assert_eq!(bucket_index(lo), i);
            assert_eq!(bucket_index(hi), i);
        }
    }

    #[test]
    fn delta_since_saturates_against_heavier_base() {
        // A merged/reset base can carry counts the newer snapshot
        // lacks; the delta must saturate per bucket, keep the full
        // bucket layout, and keep count consistent with bucket mass.
        let mut newer = HistogramSnapshot::new();
        newer.record(1);
        newer.record(1);
        newer.record(1000);
        let mut base = HistogramSnapshot::new();
        for _ in 0..5 {
            base.record(1);
        }
        let d = newer.delta_since(&base);
        assert_eq!(d.buckets.len(), HIST_BUCKETS);
        assert_eq!(d.buckets[bucket_index(1)], 0);
        assert_eq!(d.buckets[bucket_index(1000)], 1);
        // Raw count delta saturates to 0, but one observation survives
        // in the buckets; count reflects it.
        assert_eq!(d.count, 1);
        assert_eq!(d.sum, 1002 - 5);

        // A base with a truncated bucket vector must not shrink the
        // delta's layout (zip-truncation would break merge_snapshot).
        let short_base = HistogramSnapshot {
            count: 1,
            sum: 1,
            buckets: vec![0; 3],
        };
        let d = newer.delta_since(&short_base);
        assert_eq!(d.buckets.len(), HIST_BUCKETS);
        assert_eq!(d.buckets[bucket_index(1000)], 1);

        // The ordinary direction is unchanged.
        let d = newer.delta_since(&HistogramSnapshot::new());
        assert_eq!(d.count, 3);
        assert_eq!(d.sum, 1002);
    }

    #[test]
    fn quantiles_of_known_distribution() {
        let mut h = HistogramSnapshot::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        // p0 sits in the bucket of 1, p100 in the bucket of 100.
        let (lo, _) = h.quantile_bounds(0.0).unwrap();
        assert_eq!(lo, 1);
        let (lo, hi) = h.quantile_bounds(1.0).unwrap();
        assert!(lo <= 100 && 100 <= hi);
        assert_eq!(h.max_bound(), Some(127));
        assert_eq!(h.min_bound(), Some(1));
        assert!((h.mean() - 50.5).abs() < 1e-9);
        assert!(HistogramSnapshot::new().quantile(0.5).is_none());
    }

    #[test]
    fn single_bucket_median_recenters_on_the_mean() {
        // All observations equal: the fan is re-centered on the global
        // mean, so the median is exact instead of the bucket midpoint.
        let mut h = HistogramSnapshot::new();
        for _ in 0..5 {
            h.record(100);
        }
        assert_eq!(h.quantile(0.5), Some(100));
        let mut prev = 0;
        for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let est = h.quantile(q).unwrap();
            assert!((64..=127).contains(&est), "q={q} est={est} out of bucket");
            assert!(est >= prev, "quantiles must be monotone in q");
            prev = est;
        }
        // A lone observation is recovered exactly too.
        let mut h = HistogramSnapshot::new();
        h.record(100);
        assert_eq!(h.quantile(0.5), Some(100));
        // Spread within one bucket: estimates stay clamped to the
        // bucket's bounds, which min/max report directly.
        let mut h = HistogramSnapshot::new();
        h.record(70);
        h.record(120);
        assert_eq!(h.min_bound(), Some(64));
        assert_eq!(h.max_bound(), Some(127));
        let med = h.quantile(0.5).unwrap();
        assert!((64..=127).contains(&med));
    }
}
