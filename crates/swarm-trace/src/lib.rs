//! Offline analysis of `swarm-obs` telemetry.
//!
//! The orchestrator (`swarm-lab`) writes one `telemetry.jsonl` per
//! job plus run-level `metrics.json` summaries; this crate turns those
//! artifacts back into answers:
//!
//! * [`timeline`] — groups the engine's `bt.run.start` / `bt.tick` /
//!   `bt.availability` / `bt.run.end` events into per-run
//!   [`timeline::BtRunTrace`]s, reconstructs the availability step
//!   function, extracts busy/idle periods, and cross-checks the
//!   trace-measured unavailability against the `swarm-core` closed
//!   forms (model-vs-trace validation, §4.3 of the paper).
//! * [`flame`] — folds `"span"` events into collapsed-stack lines
//!   (`a;b;c <self-µs>`), the input format of inferno's
//!   `flamegraph.pl` work-alikes and speedscope.
//! * [`diff`] — compares the deterministic counters of two runs'
//!   `metrics.json` (or a run against a committed baseline) under
//!   per-metric relative-delta thresholds; the regression gate behind
//!   `repro diff` and the `trace-regression` CI job.
//! * [`net`] — reconstructs per-connection message timelines from the
//!   live engine's `net.conn`/`net.req`/`net.xfer` lifecycle events
//!   (both endpoints merged), checks the wire-level conservation
//!   invariants, and renders swimlanes plus collapsed message stacks;
//!   the analysis behind `repro net-report` and the net-live CI gate.
//! * [`timeseries`] — trend analysis over `timeseries.jsonl` (the
//!   recorder windows a run wrote): per-window rates, dip/stall episode
//!   detection, the windowed-availability cross-check against the event
//!   timeline, and the trend baseline behind `repro diff --timeseries`.
//! * [`cli`] — the `repro trace` / `repro diff` / `repro net-report`
//!   entry points.
//!
//! Everything here is read-only over artifacts on disk: the analysis
//! runs in a different process (often on a different machine) than the
//! experiments, correlated through the `{"kind":"header"}` line
//! (`run_id`, `ts_unix_ms`) heading every telemetry file.

pub mod cli;
pub mod diff;
pub mod flame;
pub mod net;
pub mod timeline;
pub mod timeseries;

pub use diff::{Baseline, DiffReport, Thresholds};
pub use flame::collapse_spans;
pub use net::{collect_net_runs, ConnRecord, NetRunTrace};
pub use timeline::{collect_runs, BtRunTrace, ModelCheck};
pub use timeseries::{
    availability_crosscheck, diff_series, load_timeseries, series_digest, CrossCheck, Episode,
    SeriesAnalysis, TsBaseline, TsSeriesBaseline, DIP_THRESHOLD,
};
