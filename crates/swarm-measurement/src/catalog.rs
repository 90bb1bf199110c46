//! Synthetic swarm-catalog generation (the Mininova stand-in).
//!
//! §2 of the paper monitors real torrent-hosting-site swarms. We have no
//! Mininova feed, so this module generates a synthetic population whose
//! *structure* matches what the paper reports: nine content categories,
//! per-category bundle prevalence (72% of music swarms are albums, 16% of
//! TV swarms are season packs, books have rare large "collections"),
//! realistic file-extension mixes, Zipf demand across swarms, and
//! heterogeneous publisher behavior in which bundles enjoy both higher
//! aggregate demand and more committed publishers — the two causal inputs
//! the paper's model turns into higher availability.
//!
//! [`for_each_swarm`] is the generator: it hands each swarm to a callback
//! as it is drawn, so a caller that counts or filters never holds the
//! whole catalog. [`generate_catalog`] collects that stream.

use rand::seq::SliceRandom;
use rand::Rng;
use rand_distr::Distribution as _;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Mininova's nine content categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Category {
    /// Music: albums are common bundles.
    Music,
    /// TV shows: season packs.
    Tv,
    /// Books: rare but huge "collections".
    Books,
    /// Movies (bundle detection nontrivial; the paper skips it).
    Movies,
    /// Games.
    Games,
    /// Software.
    Software,
    /// Anime.
    Anime,
    /// Pictures.
    Pictures,
    /// Everything else.
    Other,
}

impl Category {
    /// All categories, in a fixed order.
    pub const ALL: [Category; 9] = [
        Category::Music,
        Category::Tv,
        Category::Books,
        Category::Movies,
        Category::Games,
        Category::Software,
        Category::Anime,
        Category::Pictures,
        Category::Other,
    ];

    /// The variant's name, e.g. `"Music"`: the text `{:?}` prints.
    pub fn as_str(self) -> &'static str {
        match self {
            Category::Music => "Music",
            Category::Tv => "Tv",
            Category::Books => "Books",
            Category::Movies => "Movies",
            Category::Games => "Games",
            Category::Software => "Software",
            Category::Anime => "Anime",
            Category::Pictures => "Pictures",
            Category::Other => "Other",
        }
    }
}

/// A file extension the generator draws: the content and decoy
/// extensions of the nine categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Extension {
    /// `.mp3` audio.
    Mp3,
    /// `.mid` audio.
    Mid,
    /// `.wav` audio.
    Wav,
    /// `.mpg` video.
    Mpg,
    /// `.avi` video.
    Avi,
    /// `.mkv` video.
    Mkv,
    /// `.pdf` document.
    Pdf,
    /// `.djvu` document.
    Djvu,
    /// `.iso` disc image.
    Iso,
    /// `.bin` disc image.
    Bin,
    /// `.exe` executable.
    Exe,
    /// `.jpg` image.
    Jpg,
    /// `.png` image.
    Png,
    /// `.dat` data.
    Dat,
    /// `.zip` archive.
    Zip,
    /// `.nfo` release notes.
    Nfo,
    /// `.txt` text.
    Txt,
    /// `.srt` subtitles.
    Srt,
    /// `.ass` subtitles.
    Ass,
}

impl Extension {
    /// The lower-case extension without the dot, e.g. `"mp3"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Extension::Mp3 => "mp3",
            Extension::Mid => "mid",
            Extension::Wav => "wav",
            Extension::Mpg => "mpg",
            Extension::Avi => "avi",
            Extension::Mkv => "mkv",
            Extension::Pdf => "pdf",
            Extension::Djvu => "djvu",
            Extension::Iso => "iso",
            Extension::Bin => "bin",
            Extension::Exe => "exe",
            Extension::Jpg => "jpg",
            Extension::Png => "png",
            Extension::Dat => "dat",
            Extension::Zip => "zip",
            Extension::Nfo => "nfo",
            Extension::Txt => "txt",
            Extension::Srt => "srt",
            Extension::Ass => "ass",
        }
    }
}

/// One file inside a swarm's content: its extension and size, a 16-byte
/// record with no heap of its own. Files carry no names; nothing in the
/// §2 pipeline reads one.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FileEntry {
    /// File extension.
    pub extension: Extension,
    /// Size in kB.
    pub size_kb: f64,
}

/// One swarm in the catalog.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Swarm {
    /// Catalog-unique identifier.
    pub id: u64,
    /// Content category.
    pub category: Category,
    /// Torrent title.
    pub title: String,
    /// Constituent files.
    pub files: Vec<FileEntry>,
    /// Days before the snapshot the swarm was created.
    pub age_days: f64,
    /// Aggregate peer arrival rate λ (peers/hour) at creation time; for
    /// bundles this is the *sum* over the bundled items' demands.
    pub demand: f64,
    /// Publisher arrival rate r (1/hour).
    pub publisher_rate: f64,
    /// Mean publisher residence u (hours).
    pub publisher_residence: f64,
    /// Rate at which completing peers choose to stay and seed (1/hour of
    /// swarm time — the altruist arrival process feeding seed presence).
    pub altruist_rate: f64,
    /// Mean time an altruist seed stays (hours).
    pub altruist_residence: f64,
    /// For generated collections: the id of a super-collection this swarm
    /// is a strict subset of, if any (the paper's Garfield example).
    pub subset_of: Option<u64>,
}

impl Swarm {
    /// Total content size in kB.
    pub fn total_size_kb(&self) -> f64 {
        self.files.iter().map(|f| f.size_kb).sum()
    }

    /// Number of constituent files (decoys included).
    pub fn file_count(&self) -> usize {
        self.files.len()
    }
}

/// Catalog generation parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CatalogConfig {
    /// Scale factor on the paper's population (1.0 ≈ 1.09 M swarms in the
    /// snapshot dataset; the default 0.01 keeps experiments fast while
    /// leaving thousands of swarms per category).
    pub scale: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CatalogConfig {
    fn default() -> Self {
        CatalogConfig {
            scale: 0.01,
            seed: 42,
        }
    }
}

/// Paper §2.3.1 calibration: swarm counts in the May 2009 snapshot and the
/// fraction of each category that is bundled.
const CATEGORY_PLAN: &[(Category, u64, f64)] = &[
    // (category, snapshot count, bundle fraction)
    (Category::Music, 267_117, 0.724), // 193,491 / 267,117
    (Category::Tv, 164_930, 0.158),    // 25,990 / 164,930
    (Category::Books, 66_387, 0.107),  // (841 + 6,270) / 66,387
    (Category::Movies, 260_000, 0.30),
    (Category::Games, 90_000, 0.25),
    (Category::Software, 110_000, 0.35),
    (Category::Anime, 60_000, 0.40),
    (Category::Pictures, 30_000, 0.50),
    (Category::Other, 39_499, 0.20),
];

/// Fraction of book bundles that are keyword "collections"
/// (841 of the 7,111 book bundles).
const BOOK_COLLECTION_SHARE: f64 = 841.0 / 7_111.0;

/// (primary content extensions, decoy extensions) the generator draws
/// for `cat`.
pub(crate) fn extensions(cat: Category) -> (&'static [Extension], &'static [Extension]) {
    use Extension::*;
    match cat {
        Category::Music => (&[Mp3, Mid, Wav], &[Nfo, Jpg, Txt]),
        Category::Tv => (&[Mpg, Avi], &[Nfo, Srt, Txt]),
        Category::Books => (&[Pdf, Djvu], &[Nfo, Txt]),
        Category::Movies => (&[Avi, Mkv], &[Nfo, Srt, Jpg]),
        Category::Games => (&[Iso, Bin], &[Nfo, Txt]),
        Category::Software => (&[Exe, Iso], &[Nfo, Txt]),
        Category::Anime => (&[Mkv, Avi], &[Ass, Nfo]),
        Category::Pictures => (&[Jpg, Png], &[Txt]),
        Category::Other => (&[Dat, Zip], &[Nfo]),
    }
}

fn typical_file_size_kb(cat: Category) -> f64 {
    match cat {
        Category::Music => 5_000.0, // one song
        Category::Tv => 350_000.0,  // one episode
        Category::Books => 9_000.0, // one pdf
        Category::Movies => 700_000.0,
        Category::Games => 2_000_000.0,
        Category::Software => 300_000.0,
        Category::Anime => 250_000.0,
        Category::Pictures => 2_000.0,
        Category::Other => 50_000.0,
    }
}

fn bundle_file_count<R: Rng + ?Sized>(cat: Category, rng: &mut R) -> usize {
    match cat {
        Category::Music => rng.gen_range(8..=16), // album
        Category::Tv => rng.gen_range(6..=24),    // season(s)
        Category::Books => rng.gen_range(3..=30), // themed pack
        _ => rng.gen_range(2..=10),
    }
}

/// Swarms per category: the snapshot count at scale, at least 10.
fn category_size(cfg: &CatalogConfig, count: u64) -> u64 {
    assert!(
        cfg.scale > 0.0 && cfg.scale <= 1.0,
        "scale must be in (0, 1]"
    );
    ((count as f64 * cfg.scale).round() as u64).max(10)
}

/// Swarms of category `cat` in the catalog `cfg` generates.
pub fn category_count(cfg: &CatalogConfig, cat: Category) -> usize {
    let &(_, count, _) = CATEGORY_PLAN
        .iter()
        .find(|plan| plan.0 == cat)
        .expect("every category has a plan");
    category_size(cfg, count) as usize
}

/// Generate the synthetic catalog, handing each swarm to `emit` in id
/// order. Ids are dense from 0.
///
/// Deterministic for a given config. A swarm is emitted as soon as it
/// is drawn, except the Books: their super-collection links are drawn
/// after the category's last swarm, so they are held in one table,
/// reserved at the category's count, and emitted once linked.
pub fn for_each_swarm(cfg: &CatalogConfig, mut emit: impl FnMut(Swarm)) {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(cfg.seed);
    use rand::SeedableRng;

    let mut id = 0u64;
    for &(cat, count, bundle_frac) in CATEGORY_PLAN {
        let n = category_size(cfg, count);
        let is_books = cat == Category::Books;
        // Books wait here until their super-collection links are drawn.
        let first_id = id;
        let mut held = Vec::with_capacity(if is_books { n as usize } else { 0 });
        let mut collection_ids: Vec<u64> = Vec::new();
        for i in 0..n {
            let is_bundle = rng.gen::<f64>() < bundle_frac;
            let is_collection = is_books && is_bundle && rng.gen::<f64>() < BOOK_COLLECTION_SHARE;
            let swarm = synth_swarm(&mut rng, id, cat, i, is_bundle, is_collection);
            if is_collection {
                collection_ids.push(id);
            }
            if is_books {
                held.push(swarm);
            } else {
                emit(swarm);
            }
            id += 1;
        }
        // Some collections are strict subsets of a larger super-collection
        // (the paper's Garfield-comics example): link ~25% of collections
        // to a random larger one.
        if is_books && collection_ids.len() >= 4 {
            let supers: Vec<u64> = collection_ids
                .iter()
                .copied()
                .filter(|_| rng.gen::<f64>() < 0.3)
                .collect();
            for &cid in &collection_ids {
                if !supers.contains(&cid) && rng.gen::<f64>() < 0.25 {
                    if let Some(&sup) = supers.choose(&mut rng) {
                        held[(cid - first_id) as usize].subset_of = Some(sup);
                    }
                }
            }
        }
        held.into_iter().for_each(&mut emit);
    }
}

/// Generate the synthetic catalog: [`for_each_swarm`]'s stream, collected.
///
/// Swarm ids are dense from 0 and equal to their index. The swarm table
/// is allocated once, at its exact length, and each swarm adds two
/// allocations: its title and its file list.
pub fn generate_catalog(cfg: &CatalogConfig) -> Vec<Swarm> {
    let total: u64 = CATEGORY_PLAN
        .iter()
        .map(|&(_, count, _)| category_size(cfg, count))
        .sum();
    let mut swarms = Vec::with_capacity(total as usize);
    for_each_swarm(cfg, |s| swarms.push(s));
    swarms
}

fn synth_swarm<R: Rng + ?Sized>(
    rng: &mut R,
    id: u64,
    cat: Category,
    index_in_cat: u64,
    is_bundle: bool,
    is_collection: bool,
) -> Swarm {
    let (content_exts, decoy_exts) = extensions(cat);
    let n_files = if is_collection {
        rng.gen_range(50..=700) // "Ultimate Math Collection" has 642 books
    } else if is_bundle {
        bundle_file_count(cat, rng)
    } else {
        1
    };
    let mut files = Vec::with_capacity(n_files + 2);
    let base_size = typical_file_size_kb(cat);
    for _ in 0..n_files {
        let extension = content_exts[rng.gen_range(0..content_exts.len())];
        // Log-normal-ish spread around the typical size.
        let factor = (rng.gen::<f64>() * 2.0 - 1.0).exp();
        files.push(FileEntry {
            extension,
            size_kb: base_size * factor,
        });
    }
    // Decoys (nfo/txt/...) never trip the bundle classifier; a test in
    // `bundling` checks the two vocabularies against each other.
    for _ in 0..rng.gen_range(0..=2usize) {
        let extension = decoy_exts[rng.gen_range(0..decoy_exts.len())];
        files.push(FileEntry {
            extension,
            size_kb: rng.gen_range(1.0..50.0),
        });
    }

    // Zipf demand across swarms within the category: most swarms are
    // unpopular. Demand is per item; a bundle of n items aggregates the
    // demand of its constituents (any peer wanting any item fetches the
    // bundle) — the model's Λ = Σ λ_k.
    let rank = index_in_cat + 1;
    let per_item = 6.0 / (rank as f64).powf(0.78) + 0.002;
    let demand = if is_collection {
        // A themed collection aggregates demand across its whole theme,
        // decoupled from any single item's rank, but grows far
        // sublinearly in the item count (most constituents are obscure).
        0.5 + per_item * 0.5 * (n_files as f64).powf(0.25)
    } else if is_bundle {
        per_item * n_files as f64 * 0.9
    } else {
        per_item
    };

    // Publisher behavior: bundles (and especially collections) come from
    // more committed publishers — the paper's observation that "content
    // publishers are intrinsically more willing to support seeds for
    // bundled content".
    let commit = if is_collection {
        3.0
    } else if is_bundle {
        1.8
    } else {
        1.0
    };
    let publisher_rate = commit * sample_lognormal(rng, 0.04, 1.0);
    let publisher_residence = commit * sample_lognormal(rng, 40.0, 1.4);

    // A small fraction of completing peers stays to seed for a while.
    let altruist_rate = 0.05 * demand;
    let altruist_residence = sample_lognormal(rng, 2.0, 0.5);

    // E.g. "Books ultimate collection 12", built in one block of its
    // exact length.
    let kind = if is_collection {
        " ultimate collection "
    } else if is_bundle {
        " pack "
    } else {
        " item "
    };
    let name = cat.as_str();
    let digits = index_in_cat.checked_ilog10().map_or(1, |d| d as usize + 1);
    let mut title = String::with_capacity(name.len() + kind.len() + digits);
    title.push_str(name);
    title.push_str(kind);
    write!(title, "{index_in_cat}").expect("writing to a String cannot fail");

    Swarm {
        id,
        category: cat,
        title,
        files,
        // Torrent sites grow: the snapshot is biased toward recent swarms
        // (exponential ages with a 150-day mean, capped at two years).
        age_days: sample_lognormal(rng, 80.0, 1.1).min(700.0),
        demand,
        publisher_rate,
        publisher_residence,
        altruist_rate,
        altruist_residence,
        subset_of: None,
    }
}

fn sample_lognormal<R: Rng + ?Sized>(rng: &mut R, median: f64, sigma: f64) -> f64 {
    let normal = rand_distr::Normal::new(0.0, sigma).expect("valid sigma");
    median * normal.sample(rng).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> Vec<Swarm> {
        generate_catalog(&CatalogConfig {
            scale: 0.01,
            seed: 7,
        })
    }

    #[test]
    fn category_names_match_debug() {
        for cat in Category::ALL {
            assert_eq!(cat.as_str(), format!("{cat:?}"));
        }
    }

    #[test]
    fn file_entry_is_a_16_byte_record() {
        assert_eq!(std::mem::size_of::<FileEntry>(), 16);
    }

    #[test]
    fn catalog_is_deterministic() {
        let a = catalog();
        let b = catalog();
        assert_eq!(a.len(), b.len());
        assert_eq!(a[100].title, b[100].title);
        assert_eq!(a[100].demand, b[100].demand);
    }

    #[test]
    fn category_counts_scale() {
        let swarms = catalog();
        let music = swarms
            .iter()
            .filter(|s| s.category == Category::Music)
            .count();
        // 267,117 * 0.01 ≈ 2,671
        assert!(
            (music as i64 - 2671).unsigned_abs() < 30,
            "music count {music}"
        );
        let total = swarms.len();
        assert!(
            (total as i64 - 10_879).unsigned_abs() < 200,
            "total {total}"
        );
        let cfg = CatalogConfig {
            scale: 0.01,
            seed: 7,
        };
        for cat in Category::ALL {
            let generated = swarms.iter().filter(|s| s.category == cat).count();
            assert_eq!(category_count(&cfg, cat), generated, "{cat:?}");
        }
    }

    #[test]
    fn ids_are_dense_and_match_indices() {
        let swarms = catalog();
        for (i, s) in swarms.iter().enumerate() {
            assert_eq!(s.id, i as u64);
        }
    }

    #[test]
    fn bundles_have_multiple_content_files() {
        let swarms = catalog();
        let with_many = swarms
            .iter()
            .filter(|s| {
                s.files
                    .iter()
                    .filter(|f| f.extension == Extension::Mp3)
                    .count()
                    >= 2
            })
            .count();
        assert!(with_many > 0, "some music bundles must exist");
    }

    #[test]
    fn collections_are_large_and_linked() {
        let swarms = catalog();
        let collections: Vec<&Swarm> = swarms
            .iter()
            .filter(|s| s.title.contains("collection"))
            .collect();
        assert!(!collections.is_empty());
        assert!(collections.iter().all(|c| c.file_count() >= 50));
        let subsets = swarms.iter().filter(|s| s.subset_of.is_some()).count();
        assert!(
            subsets > 0,
            "some collections must be subsets of super-collections"
        );
        // subset links point at collections
        for s in &swarms {
            if let Some(sup) = s.subset_of {
                assert!(swarms[sup as usize].title.contains("collection"));
            }
        }
    }

    #[test]
    fn bundle_demand_exceeds_item_demand_on_average() {
        let swarms = catalog();
        let music: Vec<&Swarm> = swarms
            .iter()
            .filter(|s| s.category == Category::Music)
            .collect();
        let (mut bundle_sum, mut bundle_n, mut single_sum, mut single_n) = (0.0, 0, 0.0, 0);
        for s in music {
            let content = s
                .files
                .iter()
                .filter(|f| {
                    !matches!(
                        f.extension,
                        Extension::Nfo | Extension::Jpg | Extension::Txt
                    )
                })
                .count();
            if content >= 2 {
                bundle_sum += s.demand;
                bundle_n += 1;
            } else {
                single_sum += s.demand;
                single_n += 1;
            }
        }
        assert!(bundle_sum / bundle_n as f64 > single_sum / single_n as f64);
    }

    #[test]
    fn publisher_commitment_favors_collections() {
        // Larger scale: collections are rare, medians need a sample.
        let swarms = generate_catalog(&CatalogConfig {
            scale: 0.05,
            seed: 7,
        });
        let books: Vec<&Swarm> = swarms
            .iter()
            .filter(|s| s.category == Category::Books)
            .collect();
        let coll_res: Vec<f64> = books
            .iter()
            .filter(|s| s.title.contains("collection"))
            .map(|s| s.publisher_residence)
            .collect();
        let single_res: Vec<f64> = books
            .iter()
            .filter(|s| s.file_count() == 1)
            .map(|s| s.publisher_residence)
            .collect();
        let median = |v: &[f64]| {
            let mut v = v.to_vec();
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v[v.len() / 2]
        };
        assert!(median(&coll_res) > median(&single_res));
    }

    #[test]
    #[should_panic(expected = "scale must be in (0, 1]")]
    fn rejects_bad_scale() {
        generate_catalog(&CatalogConfig {
            scale: 0.0,
            seed: 0,
        });
    }
}
