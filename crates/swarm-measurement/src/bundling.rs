//! Extension-based bundle classification (§2.3.1).
//!
//! The paper detects bundling automatically in three categories by
//! counting files with known content extensions: two or more `.mp3`-like
//! files make a music bundle, `.mpg`-like a TV bundle, `.pdf`-like a book
//! bundle; book torrents with "collection" in the title are collections.

use crate::catalog::{Category, Swarm};
use serde::{Deserialize, Serialize};

/// Extensions that identify *content* (vs decoys) per §2.3.1.
fn content_extensions(cat: Category) -> &'static [&'static str] {
    match cat {
        Category::Music => &["mp3", "mid", "wav"],
        Category::Tv => &["mpg", "avi"],
        Category::Books => &["pdf", "djvu"],
        // The paper only classifies the three categories above; others
        // return an empty set and are never classified as bundles.
        _ => &[],
    }
}

/// Number of recognized content files in the swarm.
pub fn content_file_count(swarm: &Swarm) -> usize {
    let exts = content_extensions(swarm.category);
    swarm
        .files
        .iter()
        .filter(|f| exts.contains(&f.extension.as_str()))
        .count()
}

/// §2.3.1 rule: a swarm is a bundle if it has two or more files with the
/// category's known content extensions.
pub fn is_bundle(swarm: &Swarm) -> bool {
    content_file_count(swarm) >= 2
}

/// §2.3.1 rule for books: torrents with "collection" in the title, in
/// any letter case.
pub fn is_collection(swarm: &Swarm) -> bool {
    // Same answer as `to_lowercase().contains("collection")` on every
    // title, without allocating: the only non-ASCII characters that
    // lowercase to ASCII are the Kelvin sign (to `k`, not in the keyword)
    // and `İ` (to `i` and a combining dot, where the keyword needs `o`).
    const KEYWORD: &[u8] = b"collection";
    swarm.category == Category::Books
        && swarm
            .title
            .as_bytes()
            .windows(KEYWORD.len())
            .any(|w| w.eq_ignore_ascii_case(KEYWORD))
}

/// Per-category bundling-extent statistics (the §2.3.1 table).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct BundlingExtent {
    /// Swarms examined.
    pub total: u64,
    /// Swarms classified as bundles by the extension rule.
    pub bundles: u64,
    /// Swarms classified as collections (books only).
    pub collections: u64,
}

impl BundlingExtent {
    /// Bundled fraction.
    pub fn bundle_fraction(&self) -> f64 {
        self.bundles as f64 / self.total as f64
    }

    /// Count one swarm: examined, and a bundle or collection if the
    /// §2.3.1 rules classify it so.
    pub fn add(&mut self, swarm: &Swarm) {
        self.total += 1;
        self.bundles += u64::from(is_bundle(swarm));
        self.collections += u64::from(is_collection(swarm));
    }
}

/// Classify every swarm of `cat` in the catalog.
pub fn bundling_extent(swarms: &[Swarm], cat: Category) -> BundlingExtent {
    swarms
        .iter()
        .filter(|s| s.category == cat)
        .fold(BundlingExtent::default(), |mut ext, s| {
            ext.add(s);
            ext
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{extensions, generate_catalog, CatalogConfig, Extension, FileEntry};
    use Extension::*;

    fn swarm_with(cat: Category, exts: &[Extension], title: &str) -> Swarm {
        Swarm {
            id: 0,
            category: cat,
            title: title.to_string(),
            files: exts
                .iter()
                .map(|&extension| FileEntry {
                    extension,
                    size_kb: 1000.0,
                })
                .collect(),
            age_days: 0.0,
            demand: 1.0,
            publisher_rate: 0.01,
            publisher_residence: 10.0,
            altruist_rate: 0.01,
            altruist_residence: 1.0,
            subset_of: None,
        }
    }

    #[test]
    fn two_mp3s_make_a_music_bundle() {
        assert!(is_bundle(&swarm_with(Category::Music, &[Mp3, Mp3], "x")));
        assert!(!is_bundle(&swarm_with(Category::Music, &[Mp3], "x")));
    }

    #[test]
    fn decoys_do_not_count() {
        let s = swarm_with(Category::Music, &[Mp3, Nfo, Jpg, Txt], "x");
        assert!(!is_bundle(&s));
        assert_eq!(content_file_count(&s), 1);
    }

    #[test]
    fn movies_never_classified() {
        // The paper skips movie bundles (DVD file sets are ambiguous).
        let s = swarm_with(Category::Movies, &[Avi, Avi, Avi], "x");
        assert!(!is_bundle(&s));
    }

    #[test]
    fn collection_keyword_detection() {
        assert!(is_collection(&swarm_with(
            Category::Books,
            &[Pdf],
            "Ultimate Math Collection (1)"
        )));
        assert!(!is_collection(&swarm_with(
            Category::Books,
            &[Pdf],
            "a book"
        )));
        // in any letter case, and inside a longer word
        let book = |title: &str| is_collection(&swarm_with(Category::Books, &[Pdf], title));
        assert!(book("Ultimate COLLECTION"));
        assert!(book("collections"));
        assert!(!book("Collected Works, Vol. 2"));
        // keyword in another category does not count
        assert!(!is_collection(&swarm_with(
            Category::Music,
            &[Mp3],
            "collection of hits"
        )));
    }

    #[test]
    fn classifier_and_generator_share_a_vocabulary() {
        for cat in Category::ALL {
            let (content, decoys) = extensions(cat);
            let classified = content_extensions(cat);
            // Decoys never trip the bundle classifier.
            for decoy in decoys {
                assert!(
                    !classified.contains(&decoy.as_str()),
                    "{cat:?}: decoy {decoy:?} counts as content"
                );
            }
            // The classifier looks only for extensions the generator
            // draws as content, so it can recognise every bundle.
            for ext in classified {
                assert!(
                    content.iter().any(|c| c.as_str() == *ext),
                    "{cat:?}: classifier extension {ext} is never drawn as content"
                );
            }
        }
        for cat in [Category::Music, Category::Tv, Category::Books] {
            assert!(!content_extensions(cat).is_empty(), "{cat:?} is classified");
        }
    }

    #[test]
    fn extent_matches_paper_shape() {
        let swarms = generate_catalog(&CatalogConfig {
            scale: 0.01,
            seed: 11,
        });
        let music = bundling_extent(&swarms, Category::Music);
        let tv = bundling_extent(&swarms, Category::Tv);
        let books = bundling_extent(&swarms, Category::Books);
        // Paper: 72.4% of music, 15.8% of TV, 10.7% of book swarms bundled.
        assert!(
            (music.bundle_fraction() - 0.724).abs() < 0.05,
            "music fraction {}",
            music.bundle_fraction()
        );
        assert!(
            (tv.bundle_fraction() - 0.158).abs() < 0.04,
            "tv fraction {}",
            tv.bundle_fraction()
        );
        assert!(
            (books.bundle_fraction() - 0.107).abs() < 0.04,
            "books fraction {}",
            books.bundle_fraction()
        );
        assert!(books.collections > 0);
        // Collections are a small share of book bundles (841/7111).
        assert!(books.collections < books.bundles);
    }
}
