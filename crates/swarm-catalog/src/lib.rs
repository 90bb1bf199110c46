//! Catalog-scale sharded multi-swarm runtime.
//!
//! This crate holds the repo's one walk of a swarm's seed process, the
//! alternating-renewal model whose parameters and closed forms live in
//! `swarm_measurement::observe`, and runs it over a generated catalog or
//! any slice of it:
//!
//! * [`runtime`] — the sharded engine. Workers take the catalog's
//!   swarms one at a time from a shared counter (built on
//!   `swarm_stats::parallel::run_sharded`, which leases its workers
//!   from the process-wide [`ThreadBudget`]). Each swarm advances
//!   *event-driven*: seed-present/seedless dwell times are drawn
//!   directly from the alternating-renewal process, so a quiescent
//!   swarm — months of seedless time — costs one exponential draw per
//!   parameter-refresh window.
//!   That is the measurement-layer analog of the swarm-bt engine's
//!   quiescence fast-forward.
//! * Determinism: every swarm owns a private ChaCha8 stream derived
//!   from `(catalog_seed, swarm_id)` via SplitMix64, so results are
//!   bit-identical no matter how many shards run or which shard walks
//!   which swarm.
//! * [`obsbatch`] — shard-local telemetry batching: plain (non-atomic)
//!   counters and histogram snapshots accumulated per shard, flushed to
//!   the global `swarm-obs` registry once at the shard barrier, with
//!   per-swarm tick latencies aggregated into fixed-size windows.
//! * [`study`] — the paper's §2 analyses over the walk: Figure 1's CDFs
//!   of exact seed time, the monitoring-agent bias study (it reads the
//!   walk's samples at hour boundaries, which stand in for the paper's
//!   hourly agents), and the books and "Friends"
//!   contrasts from measured download counts and seed presence.
//!
//! [`ThreadBudget`]: swarm_stats::parallel::ThreadBudget

pub mod obsbatch;
pub mod runtime;
pub mod study;

pub use obsbatch::{ShardObs, TICK_WINDOW};
pub use runtime::{
    run_catalog, simulate_swarm_recorded, swarm_stream, CatalogRun, CatalogRunConfig, SwarmSummary,
    DEFAULT_CATALOG_SEED, TS_WINDOW_HOURS,
};
pub use study::{
    availability_study, bias_study, book_stats_live, friends_case_live, AvailabilityStudy,
    BiasStudy, Observer,
};
