//! §2.3.2 — bundled content is more available.
//!
//! Two case studies from the paper:
//!
//! * **Books**: 62% of all book swarms had no seed at the snapshot vs 36%
//!   for collections (25% after folding subset collections into their
//!   available super-collections); collections also see more downloads
//!   (4,216 vs 2,578 on average).
//! * **"Friends"**: 52 swarms for one TV show; the available ones are
//!   overwhelmingly bundles.
//!
//! The book statistics read only the Books of the slice they are given,
//! matching observations to swarms by position and super-collection
//! links by id, so a caller may pass the Books alone instead of the
//! whole catalog.

use crate::bundling::is_collection;
use crate::catalog::{Category, Swarm};
use crate::observe::{expected_downloads, stationary_availability};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Snapshot statistics for book swarms (the §2.3.2 numbers).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BookStats {
    /// Book swarms examined.
    pub total: u64,
    /// Fraction of all book swarms with no seed at the snapshot.
    pub unavailable_all: f64,
    /// Collections examined.
    pub collections: u64,
    /// Fraction of collections with no seed.
    pub unavailable_collections: f64,
    /// Fraction of collections with no seed *and no available
    /// super-collection* (the paper's effective 25%).
    pub unavailable_collections_effective: f64,
    /// Mean expected downloads for non-collection swarms.
    pub downloads_typical: f64,
    /// Mean expected downloads for collections.
    pub downloads_collections: f64,
}

/// Compute the book-availability contrast at a snapshot where each swarm
/// has its generated age. Seed presence is sampled from the stationary
/// availability of each swarm's seed process.
///
/// `swarms` is any slice whose ids strictly ascend, such as a whole
/// catalog or its Books alone; only the Books are read, and they draw
/// from `rng` in slice order, so both give the same contrast.
pub fn book_stats<R: Rng + ?Sized>(swarms: &[Swarm], rng: &mut R) -> BookStats {
    // Sample the snapshot seed-presence of every book swarm once.
    let seeded: Vec<bool> = swarms
        .iter()
        .map(|s| {
            s.category == Category::Books
                && rng.gen::<f64>() < stationary_availability(s, s.age_days)
        })
        .collect();
    book_stats_with(swarms, &seeded, |i| expected_downloads(&swarms[i], 7))
}

/// The book contrast over externally supplied snapshot observations:
/// `seeded[i]` says whether `swarms[i]` had a seed at the snapshot and
/// `downloads(i)` scores its download volume. [`book_stats`] feeds it
/// stationary samples and the closed-form expectation; the live catalog
/// runtime (`swarm-catalog`) feeds it the *measured* end-of-run seed
/// state and download counts — same folding and aggregation either way.
///
/// Ids must strictly ascend along `swarms`; a super-collection link is
/// resolved by id within the slice, so every linked super-collection
/// must be in it.
pub fn book_stats_with(
    swarms: &[Swarm],
    seeded: &[bool],
    downloads: impl Fn(usize) -> f64,
) -> BookStats {
    assert_eq!(seeded.len(), swarms.len(), "one seed flag per swarm");
    assert!(
        swarms.windows(2).all(|w| w[0].id < w[1].id),
        "swarm ids must strictly ascend"
    );
    let seeded_id = |id: u64| match swarms.binary_search_by_key(&id, |s| s.id) {
        Ok(i) => seeded[i],
        Err(_) => panic!("super-collection {id} is not among the swarms"),
    };

    let mut total = 0u64;
    let mut unavailable = 0u64;
    let mut coll_total = 0u64;
    let mut coll_unavailable = 0u64;
    let mut coll_unavailable_eff = 0u64;
    let mut dl_typical = (0.0, 0u64);
    let mut dl_coll = (0.0, 0u64);

    for (i, s) in swarms.iter().enumerate() {
        if s.category != Category::Books {
            continue;
        }
        total += 1;
        let has_seed = seeded[i];
        if !has_seed {
            unavailable += 1;
        }
        let dl = downloads(i);
        if is_collection(s) {
            coll_total += 1;
            dl_coll.0 += dl;
            dl_coll.1 += 1;
            if !has_seed {
                coll_unavailable += 1;
                // Folding rule: content is effectively available if a
                // super-collection containing this one has a seed.
                let rescued = s.subset_of.is_some_and(seeded_id);
                if !rescued {
                    coll_unavailable_eff += 1;
                }
            }
        } else {
            dl_typical.0 += dl;
            dl_typical.1 += 1;
        }
    }
    assert!(total > 0, "catalog has no book swarms");

    BookStats {
        total,
        unavailable_all: unavailable as f64 / total as f64,
        collections: coll_total,
        unavailable_collections: coll_unavailable as f64 / coll_total.max(1) as f64,
        unavailable_collections_effective: coll_unavailable_eff as f64 / coll_total.max(1) as f64,
        downloads_typical: dl_typical.0 / dl_typical.1.max(1) as f64,
        downloads_collections: dl_coll.0 / dl_coll.1.max(1) as f64,
    }
}

/// The "Friends" case study: counts over the show's swarms.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShowCaseStudy {
    /// Swarms for the show.
    pub total: u64,
    /// Swarms with at least one seed.
    pub available: u64,
    /// Available swarms that are bundles.
    pub available_bundles: u64,
    /// Unavailable swarms that are bundles.
    pub unavailable_bundles: u64,
}

/// Generate a Friends-style population — `total` swarms for one TV show,
/// a share of which are season bundles — and sample a snapshot. Bundles
/// aggregate episode demand and attract more committed publishers
/// (`commit` multiplies both the publisher arrival rate and residence),
/// exactly the structural asymmetry the paper observes: season packs of
/// a long-running show stay seeded, single episodes do not.
pub fn show_case_study<R: Rng + ?Sized>(
    total: u64,
    bundle_share: f64,
    rng: &mut R,
) -> ShowCaseStudy {
    let population = friends_population(total, bundle_share, rng);
    let seeded: Vec<bool> = population
        .iter()
        .map(|(swarm, _)| {
            let p = stationary_availability(swarm, swarm.age_days);
            rng.gen::<f64>() < p
        })
        .collect();
    show_case_counts(&population, &seeded)
}

/// Generate the Friends-style population itself: `total` swarms for one
/// TV show, each flagged as a season bundle or a single episode. Split
/// out of [`show_case_study`] so the live catalog runtime can run the
/// same population through its sharded engine and derive the snapshot
/// from *simulated* seed presence instead of a stationary sample.
pub fn friends_population<R: Rng + ?Sized>(
    total: u64,
    bundle_share: f64,
    rng: &mut R,
) -> Vec<(Swarm, bool)> {
    assert!(total > 0);
    assert!((0.0..=1.0).contains(&bundle_share));
    (0..total)
        .map(|i| {
            let is_bundle = rng.gen::<f64>() < bundle_share;
            let episodes = if is_bundle { rng.gen_range(6..=24) } else { 1 };
            let demand = 0.15 * episodes as f64; // per-episode demand aggregated
            let commit = if is_bundle { 4.0 } else { 1.0 };
            let swarm = Swarm {
                id: i,
                category: Category::Tv,
                title: format!("friends-{i}"),
                files: Vec::new(),
                age_days: 200.0,
                demand,
                publisher_rate: commit * 0.8,
                publisher_residence: commit * 15.0,
                altruist_rate: 0.05 * demand,
                altruist_residence: 2.0,
                subset_of: None,
            };
            (swarm, is_bundle)
        })
        .collect()
}

/// Tally a Friends population against per-swarm snapshot seed flags
/// (`seeded[i]` corresponds to `population[i]`).
pub fn show_case_counts(population: &[(Swarm, bool)], seeded: &[bool]) -> ShowCaseStudy {
    assert_eq!(population.len(), seeded.len());
    let mut stats = ShowCaseStudy {
        total: population.len() as u64,
        available: 0,
        available_bundles: 0,
        unavailable_bundles: 0,
    };
    for ((_, is_bundle), &has_seed) in population.iter().zip(seeded) {
        if has_seed {
            stats.available += 1;
            if *is_bundle {
                stats.available_bundles += 1;
            }
        } else if *is_bundle {
            stats.unavailable_bundles += 1;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{generate_catalog, CatalogConfig};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn book_contrast_matches_paper_direction() {
        let swarms = generate_catalog(&CatalogConfig {
            scale: 0.02,
            seed: 41,
        });
        let mut rng = ChaCha8Rng::seed_from_u64(43);
        let stats = book_stats(&swarms, &mut rng);

        // Paper: 62% of book swarms unavailable vs 36% of collections,
        // 25% effective. Direction and rough magnitudes must hold.
        assert!(
            stats.unavailable_all > stats.unavailable_collections,
            "collections must be more available: {} vs {}",
            stats.unavailable_all,
            stats.unavailable_collections
        );
        assert!(stats.unavailable_collections_effective <= stats.unavailable_collections);
        assert!(
            (0.4..0.9).contains(&stats.unavailable_all),
            "overall unavailability {} out of plausible range",
            stats.unavailable_all
        );
        // Paper: collections see more downloads (4,216 vs 2,578).
        assert!(
            stats.downloads_collections > stats.downloads_typical,
            "collections must out-download typical swarms"
        );
    }

    #[test]
    fn friends_case_study_shape() {
        // The paper: 52 swarms, 23 available (21 bundles) vs 29
        // unavailable (7 bundles). With the paper's observed ~54% bundle
        // share, availability must concentrate in bundles.
        let mut rng = ChaCha8Rng::seed_from_u64(47);
        // Average 30 trials of 52-swarm populations to tame small-sample
        // noise, then check the aggregate.
        let mut avail_bundle_frac = 0.0;
        let mut unavail_bundle_frac = 0.0;
        for _ in 0..30 {
            let s = show_case_study(52, 0.54, &mut rng);
            if s.available > 0 {
                avail_bundle_frac += s.available_bundles as f64 / s.available as f64;
            }
            let unavailable = s.total - s.available;
            if unavailable > 0 {
                unavail_bundle_frac += s.unavailable_bundles as f64 / unavailable as f64;
            }
        }
        avail_bundle_frac /= 30.0;
        unavail_bundle_frac /= 30.0;
        assert!(
            avail_bundle_frac > unavail_bundle_frac + 0.15,
            "available swarms must be predominantly bundles: {avail_bundle_frac} vs {unavail_bundle_frac}"
        );
    }

    #[test]
    fn show_case_study_counts_consistent() {
        let mut rng = ChaCha8Rng::seed_from_u64(53);
        let s = show_case_study(52, 0.5, &mut rng);
        assert_eq!(s.total, 52);
        assert!(s.available <= s.total);
        assert!(s.available_bundles <= s.available);
        assert!(s.unavailable_bundles <= s.total - s.available);
    }
}
