//! Property-based tests for the statistics substrate.

use proptest::prelude::*;
use std::sync::Arc;
use swarm_stats::parallel::ThreadBudget;
use swarm_stats::{Ecdf, Histogram, Samples, Summary};

fn finite_vec() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6..1e6f64, 1..200)
}

proptest! {
    #[test]
    fn summary_merge_equals_sequential(xs in finite_vec(), split in 0usize..200) {
        let split = split.min(xs.len());
        let whole = Summary::from_slice(&xs);
        let mut left = Summary::from_slice(&xs[..split]);
        let right = Summary::from_slice(&xs[split..]);
        left.merge(&right);
        prop_assert_eq!(left.count(), whole.count());
        prop_assert!((left.mean() - whole.mean()).abs() <= 1e-6 * whole.mean().abs().max(1.0));
        prop_assert_eq!(left.min(), whole.min());
        prop_assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn summary_mean_bounded_by_extrema(xs in finite_vec()) {
        let s = Summary::from_slice(&xs);
        prop_assert!(s.mean() >= s.min() - 1e-9);
        prop_assert!(s.mean() <= s.max() + 1e-9);
        prop_assert!(s.population_variance() >= -1e-9);
    }

    #[test]
    fn quantiles_are_monotone_and_bounded(xs in finite_vec(), qs in prop::collection::vec(0.0..1.0f64, 2..10)) {
        let mut samples = Samples::from_iter(xs.iter().copied());
        let mut sorted_qs = qs.clone();
        sorted_qs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = f64::NEG_INFINITY;
        for q in sorted_qs {
            let v = samples.quantile(q);
            prop_assert!(v >= prev, "quantiles must be monotone");
            prop_assert!(v >= samples.quantile(0.0) - 1e-9);
            prop_assert!(v <= samples.quantile(1.0) + 1e-9);
            prev = v;
        }
    }

    #[test]
    fn box_plot_five_numbers_ordered(xs in finite_vec()) {
        let mut samples = Samples::from_iter(xs.iter().copied());
        let b = samples.box_plot();
        prop_assert!(b.min <= b.p05 && b.p05 <= b.q1 && b.q1 <= b.median);
        prop_assert!(b.median <= b.q3 && b.q3 <= b.p95 && b.p95 <= b.max);
        prop_assert_eq!(b.n, xs.len());
    }

    #[test]
    fn ecdf_is_a_cdf(xs in finite_vec(), probes in prop::collection::vec(-1e6..1e6f64, 1..20)) {
        let e = Ecdf::new(xs.clone());
        let mut sorted_probes = probes.clone();
        sorted_probes.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = 0.0;
        for x in sorted_probes {
            let v = e.eval(x);
            prop_assert!((0.0..=1.0).contains(&v));
            prop_assert!(v >= prev - 1e-12, "CDF must be nondecreasing");
            prev = v;
        }
        // Beyond the max everything is covered.
        prop_assert_eq!(e.eval(1e7), 1.0);
        prop_assert_eq!(e.eval(-1e7), 0.0);
    }

    #[test]
    fn ecdf_inverse_is_pseudo_inverse(xs in finite_vec(), p in 0.01..1.0f64) {
        let e = Ecdf::new(xs);
        let x = e.inverse(p);
        // F(F^{-1}(p)) >= p and F^{-1} value is an observed sample.
        prop_assert!(e.eval(x) >= p - 1e-12);
        prop_assert!(e.sorted_values().contains(&x));
    }

    #[test]
    fn histogram_conserves_observations(xs in finite_vec(), bins in 1usize..64) {
        let mut h = Histogram::new(-1e6, 1e6, bins);
        for &x in &xs {
            h.add(x);
        }
        prop_assert_eq!(h.total() as usize, xs.len());
        let binned: u64 = h.counts().iter().sum();
        prop_assert_eq!(binned + h.underflow() + h.overflow(), h.total());
        // Cumulative is nondecreasing and ends at the in-range count.
        let cum = h.cumulative();
        prop_assert!(cum.windows(2).all(|w| w[0] <= w[1]));
        prop_assert_eq!(*cum.last().unwrap(), binned);
    }

    #[test]
    fn sharded_equals_serial_under_any_shape(
        n in 0usize..80,
        threads in 1usize..9,
        salt in 0u64..1_000,
    ) {
        // Scheduling must be invisible in the results: any task count
        // and thread count yields the serial map in index order, and
        // shard-batched accumulators cover every task exactly once.
        let expected: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(salt) ^ i).collect();
        let sum = std::sync::atomic::AtomicU64::new(0);
        let got = swarm_stats::parallel::run_sharded(
            n,
            threads,
            |_w| 0u64,
            |acc, i| {
                let v = (i as u64).wrapping_mul(salt) ^ i as u64;
                *acc = acc.wrapping_add(v);
                v
            },
            |_w, acc| {
                sum.fetch_add(acc, std::sync::atomic::Ordering::Relaxed);
            },
        );
        prop_assert_eq!(&got, &expected);
        let mut want = 0u64;
        for v in &expected {
            want = want.wrapping_add(*v);
        }
        prop_assert_eq!(sum.load(std::sync::atomic::Ordering::Relaxed), want);
    }

    #[test]
    fn thread_budget_never_exceeds_total(
        total in 0usize..32,
        ops in prop::collection::vec((0usize..16, 0usize..8), 1..100),
    ) {
        // Random interleaving of lease requests and releases: the sum of
        // outstanding grants never exceeds the budget, every grant is at
        // most what was asked, and releases restore availability exactly.
        let budget = Arc::new(ThreadBudget::new(total));
        let mut held = Vec::new();
        for (want, drop_at) in ops {
            let lease = budget.try_lease(want);
            prop_assert!(lease.granted() <= want);
            held.push(lease);
            let outstanding: usize = held.iter().map(|l| l.granted()).sum();
            prop_assert!(outstanding <= total, "budget exceeded: {outstanding} > {total}");
            prop_assert_eq!(budget.available() + outstanding, total);
            if drop_at < held.len() {
                held.swap_remove(drop_at);
                let outstanding: usize = held.iter().map(|l| l.granted()).sum();
                prop_assert_eq!(budget.available() + outstanding, total);
            }
        }
        drop(held);
        prop_assert_eq!(budget.available(), total);
    }
}
