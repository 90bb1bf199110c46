//! E2/E3 — the §2.3 tables: extent of bundling, book availability
//! contrast, and the "Friends" case study.
//!
//! Neither catalog table holds a catalog it does not read: the bundling
//! table counts the swarms as the generator streams them past, and the
//! books table keeps and walks only the book swarms.

use crate::output::{table2, Report};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde_json::json;
use swarm_catalog::{book_stats_live, friends_case_live, run_catalog, CatalogRunConfig};
use swarm_measurement::{
    book_stats, category_count, for_each_swarm, show_case_study, BundlingExtent, CatalogConfig,
    Category,
};

/// E2 — §2.3.1: extent of bundling per category.
pub fn bundling_table(quick: bool) -> Report {
    let mut report = Report::new("table-bundling", "Extent of bundling (paper §2.3.1)");
    let scale = if quick { 0.005 } else { 0.02 };
    // Paper reference fractions for the three classified categories.
    let paper = [
        (Category::Music, 193_491.0 / 267_117.0),
        (Category::Tv, 25_990.0 / 164_930.0),
        (Category::Books, 7_111.0 / 66_387.0),
    ];
    let mut extents = [BundlingExtent::default(); 3];
    let mut catalog_size = 0usize;
    for_each_swarm(&CatalogConfig { scale, seed: 2001 }, |s| {
        catalog_size += 1;
        if let Some(k) = paper.iter().position(|&(cat, _)| cat == s.category) {
            extents[k].add(&s);
        }
    });

    let mut rows = Vec::new();
    let mut data = Vec::new();
    for ((cat, paper_frac), ext) in paper.into_iter().zip(extents) {
        rows.push((
            format!("{cat:?}"),
            format!(
                "{}/{} bundles ({:.1}%; paper {:.1}%){}",
                ext.bundles,
                ext.total,
                ext.bundle_fraction() * 100.0,
                paper_frac * 100.0,
                if cat == Category::Books {
                    format!(", {} collections", ext.collections)
                } else {
                    String::new()
                }
            ),
        ));
        data.push(json!({
            "category": format!("{cat:?}"),
            "total": ext.total,
            "bundles": ext.bundles,
            "collections": ext.collections,
            "fraction": ext.bundle_fraction(),
            "paper_fraction": paper_frac,
        }));
    }
    report.block(table2(("category", "bundling"), &rows));
    report.set_data(json!({ "categories": data, "catalog_size": catalog_size }));
    report
}

/// E3a — §2.3.2: book swarms vs collections.
pub fn books_table(quick: bool) -> Report {
    let mut report = Report::new(
        "table-books",
        "Bundled content is more available: books (paper §2.3.2)",
    );
    let scale = if quick { 0.01 } else { 0.04 };
    // The contrast reads only the book swarms, and each swarm's walk its
    // own stream, so the Books alone give the whole catalog's numbers.
    // The table is reserved at their count: the generator still holds its
    // own table of them while it hands them over.
    let catalog = CatalogConfig { scale, seed: 2003 };
    let mut books = Vec::with_capacity(category_count(&catalog, Category::Books));
    for_each_swarm(&catalog, |s| {
        if s.category == Category::Books {
            books.push(s);
        }
    });
    let mut rng = ChaCha8Rng::seed_from_u64(2004);
    let stats = book_stats(&books, &mut rng);

    // Live contrast: run the books through the sharded runtime as a
    // snapshot continuation and measure seed presence and downloads
    // instead of sampling the stationary law.
    let live_run = run_catalog(
        &books,
        &CatalogRunConfig {
            catalog_seed: 2006,
            months: 7,
            threads: crate::fig1::worker_threads(),
            start_at_generated_age: true,
        },
    );
    let live = book_stats_live(&books, &live_run);

    report.block(table2(
        ("metric", "value (paper)"),
        &[
            (
                "no seed, all".into(),
                format!("{:.0}% (62%)", stats.unavailable_all * 100.0),
            ),
            (
                "no seed, colls".into(),
                format!("{:.0}% (36%)", stats.unavailable_collections * 100.0),
            ),
            (
                "effective".into(),
                format!(
                    "{:.0}% (25%, after super-collection folding)",
                    stats.unavailable_collections_effective * 100.0
                ),
            ),
            (
                "downloads".into(),
                format!(
                    "typical {:.0} vs collections {:.0} (paper 2,578 vs 4,216)",
                    stats.downloads_typical, stats.downloads_collections
                ),
            ),
            (
                "live: no seed".into(),
                format!(
                    "all {:.0}%, colls {:.0}%, effective {:.0}%",
                    live.unavailable_all * 100.0,
                    live.unavailable_collections * 100.0,
                    live.unavailable_collections_effective * 100.0
                ),
            ),
            (
                "live: downloads".into(),
                format!(
                    "typical {:.0} vs collections {:.0} (measured)",
                    live.downloads_typical, live.downloads_collections
                ),
            ),
        ],
    ));
    let mut data = serde_json::to_value(stats).expect("serializable");
    if let serde_json::Value::Object(map) = &mut data {
        map.insert(
            "live".into(),
            serde_json::to_value(live).expect("serializable"),
        );
    }
    report.set_data(data);
    report
}

/// E3b — §2.3.2: the "Friends" case study.
pub fn friends_table(_quick: bool) -> Report {
    let mut report = Report::new(
        "table-friends",
        "Bundled content is more available: the \"Friends\" swarms (paper §2.3.2)",
    );
    let mut rng = ChaCha8Rng::seed_from_u64(2005);
    // Paper: 52 swarms, 28 bundles (21 + 7); 23 available of which 21
    // bundles. Bundle share 28/52.
    let s = show_case_study(52, 28.0 / 52.0, &mut rng);
    // The same case study with the snapshot simulated by the catalog
    // runtime instead of sampled from the stationary law.
    let live = friends_case_live(52, 28.0 / 52.0, 2005, crate::fig1::worker_threads());
    report.block(table2(
        ("metric", "value (paper)"),
        &[
            ("total swarms".into(), format!("{} (52)", s.total)),
            ("available".into(), format!("{} (23)", s.available)),
            (
                "avail. bundles".into(),
                format!("{} (21)", s.available_bundles),
            ),
            (
                "unavail. bundles".into(),
                format!("{} (7)", s.unavailable_bundles),
            ),
            (
                "live snapshot".into(),
                format!(
                    "{} available ({} bundles), {} unavailable bundles",
                    live.available, live.available_bundles, live.unavailable_bundles
                ),
            ),
        ],
    ));
    let mut data = serde_json::to_value(s).expect("serializable");
    if let serde_json::Value::Object(map) = &mut data {
        map.insert(
            "live".into(),
            serde_json::to_value(live).expect("serializable"),
        );
    }
    report.set_data(data);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundling_fractions_close_to_paper() {
        let r = bundling_table(true);
        for cat in r.data["categories"].as_array().unwrap() {
            let got = cat["fraction"].as_f64().unwrap();
            let want = cat["paper_fraction"].as_f64().unwrap();
            assert!(
                (got - want).abs() < 0.06,
                "{}: {got} vs paper {want}",
                cat["category"]
            );
        }
    }

    #[test]
    fn books_contrast_direction() {
        let r = books_table(true);
        let all = r.data["unavailable_all"].as_f64().unwrap();
        let coll = r.data["unavailable_collections"].as_f64().unwrap();
        let eff = r.data["unavailable_collections_effective"]
            .as_f64()
            .unwrap();
        assert!(all > coll, "collections more available: {all} vs {coll}");
        assert!(eff <= coll);
        assert!(
            r.data["downloads_collections"].as_f64().unwrap()
                > r.data["downloads_typical"].as_f64().unwrap()
        );
    }

    #[test]
    fn friends_bundles_dominate_available() {
        let r = friends_table(true);
        let available = r.data["available"].as_u64().unwrap();
        let avail_bundles = r.data["available_bundles"].as_u64().unwrap();
        let total = r.data["total"].as_u64().unwrap();
        let unavail_bundles = r.data["unavailable_bundles"].as_u64().unwrap();
        assert_eq!(total, 52);
        // Bundle share among available must exceed share among unavailable.
        let unavailable = total - available;
        let f_avail = avail_bundles as f64 / available.max(1) as f64;
        let f_unavail = unavail_bundles as f64 / unavailable.max(1) as f64;
        assert!(
            f_avail > f_unavail,
            "available {f_avail} vs unavailable {f_unavail}"
        );
    }
}
