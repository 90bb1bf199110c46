//! # swarmsys
//!
//! Content availability and bundling in swarming systems — a Rust
//! implementation of the models, simulators and measurement tooling of
//! *"Content Availability and Bundling in Swarming Systems"* (Menasche,
//! Rocha, Li, Towsley, Venkataramani — CoNEXT 2009).
//!
//! BitTorrent-style swarming scales beautifully with popularity but fails
//! on *availability*: unpopular content disappears whenever no seed is
//! online. The paper models availability periods as busy periods of an
//! M/G/∞ queue and shows that **bundling** K files multiplies both demand
//! and per-peer residence by K, growing availability periods by
//! `e^Θ(K²)` — enough that, for rarely-seeded content, peers download
//! *more* data in *less* time.
//!
//! This crate re-exports the whole workspace under one roof:
//!
//! * [`stats`] — statistics substrate (summaries, quantiles, ECDFs,
//!   confidence intervals, ASCII rendering);
//! * [`queue`] — M/G/∞ theory: busy periods with exceptional initiators
//!   (Browne–Steele), residual busy periods, Monte-Carlo validation;
//! * [`model`] — **the paper's contribution**: availability and download
//!   time under impatient/patient peers, coverage thresholds, altruistic
//!   lingering, Zipf demand, bundling analysis and the fluid baseline;
//! * [`sim`] — flow-level discrete-event swarm simulator;
//! * [`bt`] — block-level BitTorrent-like engine (pieces, bitfields,
//!   rarest-first, choking, tracker/PEX);
//! * [`measurement`] — synthetic Mininova-scale measurement study:
//!   the catalog, the bundle classifier and the seed process's closed
//!   forms;
//! * [`catalog`] — the seed-process walk over the whole catalog, and
//!   the Figure 1 and monitoring-bias studies read from it.
//!
//! ## Quick start
//!
//! ```
//! use swarmsys::model::params::{PublisherScaling, SwarmParams};
//! use swarmsys::model::{impatient, patient};
//!
//! // An unpopular 4 MB file: a peer every 150 s, a publisher that
//! // reappears every ~3 hours and stays 5 minutes.
//! let file = SwarmParams {
//!     lambda: 1.0 / 150.0,
//!     size: 4_000.0,
//!     mu: 50.0,
//!     r: 1.0 / 10_000.0,
//!     u: 300.0,
//! };
//!
//! // Bundling 5 such files slashes unavailability...
//! let bundle = file.bundle(5, PublisherScaling::Fixed);
//! assert!(impatient::unavailability(&bundle) < impatient::unavailability(&file) / 10.0);
//!
//! // ...and this publisher is rare enough that peers also finish sooner,
//! // despite downloading 5x the bytes.
//! assert!(patient::download_time(&bundle) < patient::download_time(&file));
//! ```
//!
//! ## Reproduction
//!
//! Every table and figure of the paper regenerates via the `repro` binary
//! in the `swarm-bench` crate:
//!
//! ```text
//! cargo run --release -p swarm-bench --bin repro -- all
//! ```

/// Statistics substrate (re-export of `swarm-stats`).
pub use swarm_stats as stats;

/// M/G/∞ queueing theory (re-export of `swarm-queue`).
pub use swarm_queue as queue;

/// The paper's availability and bundling models (re-export of
/// `swarm-core`).
pub use swarm_core as model;

/// Flow-level discrete-event simulator (re-export of `swarm-sim`).
pub use swarm_sim as sim;

/// Block-level BitTorrent-like engine (re-export of `swarm-bt`).
pub use swarm_bt as bt;

/// Live networked swarm mode (re-export of `swarm-net`).
pub use swarm_net as net;

/// Synthetic measurement study (re-export of `swarm-measurement`).
pub use swarm_measurement as measurement;

/// Catalog-scale seed-process walk (re-export of `swarm-catalog`).
pub use swarm_catalog as catalog;

pub use swarm_core::params::{PublisherScaling, SwarmParams};
