//! End-to-end measurement pipeline: catalog → classification →
//! seed-process walk → CDFs → case studies, checking internal
//! consistency across crates.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use swarmsys::catalog::{availability_study, run_catalog, CatalogRunConfig};
use swarmsys::measurement::{
    book_stats, bundling_extent, generate_catalog, is_bundle, stationary_availability,
    CatalogConfig, Category,
};

fn catalog() -> Vec<swarmsys::measurement::Swarm> {
    generate_catalog(&CatalogConfig {
        scale: 0.004,
        seed: 77,
    })
}

#[test]
fn classification_agrees_with_generated_structure() {
    // The extension-based classifier must recover the generator's intent:
    // music bundles carry >= 2 audio files, singles do not.
    let swarms = catalog();
    for s in swarms.iter().filter(|s| s.category == Category::Music) {
        let audio = s
            .files
            .iter()
            .filter(|f| ["mp3", "mid", "wav"].contains(&f.extension.as_str()))
            .count();
        assert_eq!(is_bundle(s), audio >= 2, "swarm {}", s.id);
    }
}

#[test]
fn every_category_has_plausible_extent() {
    let swarms = catalog();
    for cat in Category::ALL {
        let e = bundling_extent(&swarms, cat);
        assert!(e.total > 0, "{cat:?} empty");
        assert!(e.bundles <= e.total);
        // Only books can have collections.
        if cat != Category::Books {
            assert_eq!(e.collections, 0, "{cat:?} has collections");
        }
    }
}

#[test]
fn bundles_are_more_available_in_the_ground_truth() {
    // The generator encodes the paper's causal structure: aggregated
    // demand + committed publishers ⇒ higher stationary availability for
    // bundles, category by category.
    let swarms = catalog();
    for cat in [Category::Music, Category::Tv, Category::Books] {
        let (mut b_sum, mut b_n, mut s_sum, mut s_n) = (0.0, 0u32, 0.0, 0u32);
        for s in swarms.iter().filter(|s| s.category == cat) {
            let a = stationary_availability(s, s.age_days);
            if is_bundle(s) {
                b_sum += a;
                b_n += 1;
            } else {
                s_sum += a;
                s_n += 1;
            }
        }
        let (b_avg, s_avg) = (b_sum / b_n as f64, s_sum / s_n as f64);
        assert!(
            b_avg > s_avg,
            "{cat:?}: bundles {b_avg:.3} must beat singles {s_avg:.3}"
        );
    }
}

#[test]
fn study_is_deterministic_given_seeds() {
    let swarms = catalog();
    let run = |catalog_seed: u64| {
        let cfg = CatalogRunConfig {
            catalog_seed,
            months: 2,
            ..CatalogRunConfig::default()
        };
        availability_study(&run_catalog(&swarms[..200], &cfg))
    };
    let a = run(5);
    let b = run(5);
    assert_eq!(a.first_month.sorted_values(), b.first_month.sorted_values());
    let c = run(6);
    assert_ne!(a.first_month.sorted_values(), c.first_month.sorted_values());
}

#[test]
fn book_stats_internally_consistent() {
    let swarms = catalog();
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let stats = book_stats(&swarms, &mut rng);
    assert!(stats.total > 0);
    assert!(stats.collections <= stats.total);
    for v in [
        stats.unavailable_all,
        stats.unavailable_collections,
        stats.unavailable_collections_effective,
    ] {
        assert!((0.0..=1.0).contains(&v));
    }
    // Folding can only help.
    assert!(stats.unavailable_collections_effective <= stats.unavailable_collections);
    assert!(stats.downloads_typical > 0.0);
    // Collections are rare (841 of 66k in the paper); at small catalog
    // scales there may be none, in which case the metric is zero.
    if stats.collections > 0 {
        assert!(stats.downloads_collections > 0.0);
    }
}

#[test]
fn subset_collections_reference_valid_supersets() {
    let swarms = catalog();
    for s in &swarms {
        if let Some(sup) = s.subset_of {
            let sup = &swarms[sup as usize];
            assert_eq!(sup.category, Category::Books);
            assert!(sup.title.contains("collection"));
            assert!(sup.id != s.id);
        }
    }
}
