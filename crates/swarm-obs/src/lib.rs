//! Observability substrate for the swarmsys workspace.
//!
//! Hand-rolled (the build environment has no registry access, so this
//! follows the same zero-external-dependency discipline as
//! `swarm-stats`) and deliberately small:
//!
//! * [`metrics`] — a process-wide registry of atomic [`Counter`]s,
//!   [`Gauge`]s and lock-free power-of-two-bucket [`Histogram`]s, with
//!   serializable [`Snapshot`]s and snapshot deltas.
//! * [`labels`] — labelled metric families (`net.conn.bytes_in{2->5}`)
//!   over an interned-label registry, so per-entity metrics cost no
//!   string formatting on the hot path.
//! * [`lifecycle`] — typed wire-lifecycle events ([`ConnEvent`],
//!   [`ReqEvent`], [`XferEvent`]): the shared emit/parse schema between
//!   `swarm-net`'s probes and `swarm-trace`'s net analyzer.
//! * [`span`](mod@span) — RAII span timers with nesting (parent/child ids) that
//!   feed both a `span.<name>` histogram and the event sink.
//! * [`sink`] — a structured-event flight recorder: a bounded in-memory
//!   ring of events, drained per job label or whole-run, serialized as
//!   JSONL through `serde_json`.
//! * [`timeseries`] — tick-windowed [`Recorder`]s of counter deltas
//!   keyed by virtual time, with power-of-two downsampling and a
//!   process-wide named-series registry, serialized as
//!   `timeseries.jsonl` beside the event sink.
//! * [`report`] — end-of-run text rendering of a snapshot delta (top
//!   spans by wall time, counter deltas, histogram quantiles).
//! * leveled logging ([`log`] plus the `log_error!`/`log_warn!`/
//!   `log_info!`/`log_debug!` macros) and a process-wide [`console`]
//!   lock so multi-line reports never interleave across threads.
//!
//! # The enable switch
//!
//! All recording is gated on [`enabled`], a single relaxed atomic load.
//! It starts `false`: an uninstrumented process pays one predictable
//! branch per probe. Orchestrators turn recording on with
//! [`set_enabled`] (the `repro` CLI does this for `--telemetry`).
//! Compiling with the `obs-off` feature makes [`enabled`] a
//! `const false`, so the optimizer removes probe bodies entirely —
//! that is the compiled-out arm of the CI overhead guard.
//!
//! Logging is independent of the metrics switch: log macros always
//! work, filtered by [`log_level`] (initialized from `SWARM_LOG`, one
//! of `error|warn|info|debug`, default `info`).

pub mod labels;
pub mod lifecycle;
pub mod metrics;
pub mod report;
pub mod sink;
pub mod span;
pub mod timeseries;

pub use labels::{
    counter_family, family_metric_name, gauge_family, label, split_family_metric, CounterFamily,
    Family, GaugeFamily, Label,
};
pub use lifecycle::{
    ConnEvent, ConnPhase, Dir, ReqEvent, ReqPhase, XferEvent, XferPhase, CONN_KIND, REQ_KIND,
    XFER_KIND,
};
pub use metrics::{
    counter, gauge, histogram, snapshot, Counter, Gauge, Histogram, HistogramSnapshot, Snapshot,
};
pub use report::render_report;
pub use sink::{
    drain_all, drain_job, dropped_events, emit, header_line, parse_jsonl, parse_jsonl_with_header,
    run_id, set_ring_capacity, start_unix_ms, to_jsonl, val, Event, Header,
};
pub use span::{current_job, job_scope, span, span_labeled, JobScope, Span};
pub use timeseries::{
    drain_series, merge_series_owned, parse_timeseries, series_to_jsonl, take_series, Recorder,
    Window,
};

use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is metric/span/event recording on? One relaxed load; `const false`
/// under the `obs-off` feature so probe bodies compile out.
#[inline(always)]
pub fn enabled() -> bool {
    #[cfg(feature = "obs-off")]
    {
        false
    }
    #[cfg(not(feature = "obs-off"))]
    {
        ENABLED.load(Ordering::Relaxed)
    }
}

/// Turn metric/span/event recording on or off process-wide. A no-op
/// (the switch is never read) when compiled with `obs-off`.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

static SERIES_ENABLED: AtomicBool = AtomicBool::new(true);

/// Is windowed time-series recording on? Subordinate to [`enabled`]:
/// engines consult [`series_active`], which requires both. Defaults to
/// `true` so turning telemetry on gets the series for free; the
/// overhead guard turns it off to measure the recorder's marginal
/// cost under otherwise-identical telemetry.
#[inline(always)]
pub fn series_enabled() -> bool {
    SERIES_ENABLED.load(Ordering::Relaxed)
}

/// Turn windowed time-series recording on or off process-wide
/// (independent of the master [`set_enabled`] switch).
pub fn set_series_enabled(on: bool) {
    SERIES_ENABLED.store(on, Ordering::Relaxed);
}

/// Should an engine allocate and feed a window [`Recorder`]? True when
/// both the master recording switch and the series switch are on;
/// `const false` under `obs-off` like every other probe gate.
#[inline(always)]
pub fn series_active() -> bool {
    enabled() && series_enabled()
}

/// Log severity, ordered: `Error < Warn < Info < Debug`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    Error = 0,
    Warn = 1,
    Info = 2,
    Debug = 3,
}

impl Level {
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }

    pub fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" | "0" => Some(Level::Error),
            "warn" | "warning" | "1" => Some(Level::Warn),
            "info" | "2" => Some(Level::Info),
            "debug" | "trace" | "3" => Some(Level::Debug),
            _ => None,
        }
    }

    fn from_u8(v: u8) -> Level {
        match v {
            0 => Level::Error,
            1 => Level::Warn,
            2 => Level::Info,
            _ => Level::Debug,
        }
    }
}

/// Sentinel: level not yet initialized from the environment.
const LEVEL_UNSET: u8 = u8::MAX;
static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNSET);

/// The current log threshold. Lazily initialized from `SWARM_LOG`
/// (`error|warn|info|debug`); defaults to [`Level::Info`].
pub fn log_level() -> Level {
    match LEVEL.load(Ordering::Relaxed) {
        LEVEL_UNSET => {
            let l = std::env::var("SWARM_LOG")
                .ok()
                .and_then(|s| Level::parse(&s))
                .unwrap_or(Level::Info);
            LEVEL.store(l as u8, Ordering::Relaxed);
            l
        }
        v => Level::from_u8(v),
    }
}

/// Override the log threshold (e.g. `--quiet` sets [`Level::Warn`]).
pub fn set_log_level(level: Level) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

static CONSOLE: Mutex<()> = Mutex::new(());

/// The process-wide console lock. Hold the guard while printing a
/// multi-line block (summary tables, failure lists) so output from
/// worker threads cannot interleave with it. [`log`] takes this lock
/// itself — never call a log macro while holding the guard.
pub fn console() -> MutexGuard<'static, ()> {
    CONSOLE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Write one leveled log line (`[level] target: message`) to stderr
/// under the console lock, and — when recording is [`enabled`] — a
/// matching `"log"` event into the sink. Prefer the `log_*!` macros.
pub fn log(level: Level, target: &str, args: std::fmt::Arguments<'_>) {
    if level > log_level() {
        return;
    }
    let msg = args.to_string();
    {
        let _guard = console();
        eprintln!("[{:<5}] {target}: {msg}", level.as_str());
    }
    if enabled() {
        sink::emit(
            "log",
            &[
                ("level", val(level.as_str())),
                ("target", val(target)),
                ("msg", val(msg)),
            ],
        );
    }
}

/// `log_error!("target", "format {}", args)` — always-visible errors.
#[macro_export]
macro_rules! log_error {
    ($target:expr, $($arg:tt)*) => {
        $crate::log($crate::Level::Error, $target, format_args!($($arg)*))
    };
}

/// `log_warn!("target", "format {}", args)` — survives `--quiet`.
#[macro_export]
macro_rules! log_warn {
    ($target:expr, $($arg:tt)*) => {
        $crate::log($crate::Level::Warn, $target, format_args!($($arg)*))
    };
}

/// `log_info!("target", "format {}", args)` — default visibility.
#[macro_export]
macro_rules! log_info {
    ($target:expr, $($arg:tt)*) => {
        $crate::log($crate::Level::Info, $target, format_args!($($arg)*))
    };
}

/// `log_debug!("target", "format {}", args)` — `SWARM_LOG=debug` only.
#[macro_export]
macro_rules! log_debug {
    ($target:expr, $($arg:tt)*) => {
        $crate::log($crate::Level::Debug, $target, format_args!($($arg)*))
    };
}
