//! Flow-level discrete-event simulator of swarming systems.
//!
//! This crate simulates the availability dynamics the paper models
//! analytically: peers arrive Poisson(λ) and download content of size `s`
//! at effective rate `μ`; publishers come and go; content is available
//! while a publisher is online or enough peers remain (the coverage
//! threshold `m`); patient peers wait out idle periods, impatient ones
//! leave; altruistic peers linger after completing (§3.3.4).
//!
//! It plays the role PlanetLab plays in the paper for the *model-level*
//! questions — validating eqs. (9)–(16) against an independent
//! implementation of the stochastic system — while the block-level
//! `swarm_bt` crate covers protocol-level effects (piece unavailability,
//! flash departures).
//!
//! * [`config`] — run configuration: service models (exponential or
//!   capacity-shared fluid), publisher processes (Poisson, single on/off,
//!   until-first-completion), patience, lingering, coverage threshold;
//! * [`engine`] — the event loop; it keeps only the peers in the system,
//!   so an event costs time in the peers present, not in every arrival;
//! * [`metrics`] — per-run results: download/wait times, blocking,
//!   busy periods, availability fraction;
//! * [`timeline`] — per-entity presence intervals (Figures 2 and 5);
//! * [`experiment`] — parallel replications with confidence intervals;
//!   each replication keeps only what callers read ([`Pooled`]), and
//!   the pool joins their samples at exact size;
//! * [`validate`] — packaged model-vs-simulation comparisons.
//!
//! # Example
//!
//! ```
//! use swarm_sim::config::{Patience, PublisherProcess, ServiceModel, SimConfig};
//!
//! let cfg = SimConfig {
//!     lambda: 1.0 / 60.0,
//!     service: ServiceModel::Exponential { mean: 80.0 },
//!     publisher: PublisherProcess::SingleOnOff {
//!         on_mean: 300.0,
//!         off_mean: 900.0,
//!         initially_on: true,
//!     },
//!     patience: Patience::Patient,
//!     linger_mean: None,
//!     coverage_threshold: 0,
//!     horizon: 50_000.0,
//!     warmup: 1_000.0,
//!     seed: 42,
//!     record_timeline: false,
//! };
//! let result = swarm_sim::run(&cfg);
//! assert!(result.completions > 0);
//! assert!(result.availability > 0.0 && result.availability < 1.0);
//! ```

pub mod config;
pub mod engine;
pub mod experiment;
pub mod metrics;
pub mod timeline;
pub mod trace;
pub mod validate;

pub use config::{Patience, PublisherProcess, ServiceModel, SimConfig};
pub use engine::run;
pub use experiment::{replicate, Pooled, Replicated};
pub use metrics::SimResult;
pub use timeline::{EntityState, Timeline};
pub use trace::run_trace;
