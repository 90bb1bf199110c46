//! Synthetic measurement study of swarm populations (paper §2).
//!
//! The paper's measurement study monitored 66k+ real Mininova swarms from
//! 300 PlanetLab vantage points for seven months, plus a 1.09M-swarm
//! snapshot. Neither data source exists here, so this crate builds the
//! closest synthetic equivalent, classifies it, and holds the closed
//! forms the analyses read. The `swarm-catalog` runtime walks each
//! swarm's seed process over it, which yields the Figure 1 CDFs and the
//! observation-bias study:
//!
//! * [`catalog`] — a Mininova-shaped catalog: nine categories, per-category
//!   bundle prevalence calibrated to §2.3.1, file-extension mixes, Zipf
//!   demand, heterogeneous publishers (more committed for bundles), and
//!   book super-collections. A file is a 16-byte [`FileEntry`] (an
//!   [`Extension`] and a size), so a swarm owns exactly two heap blocks,
//!   its title and its file list. [`for_each_swarm`] streams the
//!   catalog swarm by swarm; [`generate_catalog`] collects the stream;
//! * [`observe`] — the closed forms of per-swarm seed presence: an
//!   alternating renewal process whose ON periods are M/G/∞ busy periods
//!   of the seed process (publishers + altruistic completers), with
//!   demand and publisher interest decaying in swarm age;
//! * [`bundling`] — the §2.3.1 extension-based bundle classifier and the
//!   per-category extent table;
//! * [`analysis`] — the §2.3.2 contrasts: books vs collections
//!   (availability, downloads, super-collection folding) and the
//!   "Friends" case study;
//! * [`popularity`] — Figure 7's new-vs-old swarm arrival patterns;
//! * [`population`] — capture–recapture estimation of swarm sizes from
//!   incomplete agent samples (Chapman-corrected Lincoln–Petersen).
//!
//! Absolute counts are scaled (default 1% of the paper's population); the
//! reproduced artifacts are *shapes and orderings* — the CDF of Figure 1,
//! the bundled-vs-unbundled availability gap, the bundling-extent table.

pub mod analysis;
pub mod bundling;
pub mod catalog;
pub mod observe;
pub mod popularity;
pub mod population;

pub use analysis::{
    book_stats, book_stats_with, friends_population, show_case_counts, show_case_study, BookStats,
    ShowCaseStudy,
};
pub use bundling::{bundling_extent, is_bundle, is_collection, BundlingExtent};
pub use catalog::{
    category_count, for_each_swarm, generate_catalog, CatalogConfig, Category, Extension,
    FileEntry, Swarm,
};
pub use observe::{seed_process, stationary_availability};
pub use population::{capture_recapture, sample_and_estimate, PopulationEstimate};
