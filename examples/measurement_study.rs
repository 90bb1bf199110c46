//! A miniature Section-2 measurement study end to end: generate a
//! synthetic catalog, walk every swarm's seed process for seven months,
//! and reproduce the paper's headline measurement findings.
//!
//! ```text
//! cargo run --release --example measurement_study
//! ```

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use swarmsys::catalog::{availability_study, run_catalog, CatalogRunConfig};
use swarmsys::measurement::{
    book_stats, bundling_extent, generate_catalog, show_case_study, CatalogConfig, Category,
};
use swarmsys::stats::ascii::{line_chart, Series};

fn main() {
    let catalog = generate_catalog(&CatalogConfig {
        scale: 0.004,
        seed: 2026,
    });
    println!("generated {} swarms across 9 categories\n", catalog.len());

    // (1) Content unavailability is a serious problem (Figure 1).
    let run = run_catalog(
        &catalog,
        &CatalogRunConfig {
            catalog_seed: 2027,
            months: 7,
            ..CatalogRunConfig::default()
        },
    );
    let study = availability_study(&run);
    println!(
        "{}",
        line_chart(
            "CDF of per-swarm seed availability",
            &[
                Series::new("first month", study.first_month.curve(0.0, 1.0, 33)),
                Series::new("whole 7-month trace", study.whole_trace.curve(0.0, 1.0, 33)),
            ],
            60,
            14,
        )
    );
    println!(
        "always available in month 1: {:.0}% | unavailable >=80% of whole trace: {:.0}%\n",
        study.always_available_first_month() * 100.0,
        study.mostly_unavailable_whole_trace(0.2) * 100.0
    );

    // (2) Bundling is widely prevalent (§2.3.1).
    for cat in [Category::Music, Category::Tv, Category::Books] {
        let e = bundling_extent(&catalog, cat);
        println!(
            "{cat:?}: {}/{} swarms are bundles ({:.0}%)",
            e.bundles,
            e.total,
            e.bundle_fraction() * 100.0
        );
    }

    // (3) Bundled content is more available (§2.3.2).
    let mut rng = ChaCha8Rng::seed_from_u64(2028);
    let books = book_stats(&catalog, &mut rng);
    println!(
        "\nbooks: {:.0}% of all swarms had no seed vs {:.0}% of collections \
         ({:.0}% after super-collection folding)",
        books.unavailable_all * 100.0,
        books.unavailable_collections * 100.0,
        books.unavailable_collections_effective * 100.0
    );
    println!(
        "downloads: typical {:.0} vs collections {:.0}",
        books.downloads_typical, books.downloads_collections
    );

    let friends = show_case_study(52, 28.0 / 52.0, &mut rng);
    println!(
        "\n\"Friends\": {} of {} swarms available; {} of the available are bundles \
         (paper: 23 available, 21 of them bundles)",
        friends.available, friends.total, friends.available_bundles
    );
}
