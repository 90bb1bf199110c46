//! Per-run availability timelines from engine telemetry.
//!
//! The `swarm-bt` engine emits, while recording is on:
//!
//! * one `bt.run.start` event carrying the run ordinal and the config
//!   summary (bundle size, arrival rate, publisher process, effective
//!   peer upload rate),
//! * a `bt.availability` event per availability *transition* (sparse —
//!   the step function is exact, not sampled),
//! * a `bt.tick` sample every [`TICK_EVENT_SAMPLE`]: online peers,
//!   blocked leechers, coverage, minimum replication,
//! * one `bt.run.end` event with the engine's own availability figure.
//!
//! [`collect_runs`] groups a drained event stream back into
//! [`BtRunTrace`]s keyed on the run ordinal (replication seeds collide
//! across sweep points, ordinals never do). From the transition list
//! the trace reconstructs the full availability step function, so the
//! measured unavailable fraction and the busy/idle period lengths come
//! out exact. [`BtRunTrace::model_check`] then maps the run's config
//! onto the paper's Table-1 parameters and compares the trace against
//! `swarm_core::patient` — the model-vs-trace validation loop.

use serde_json::Value;
use std::collections::BTreeMap;
use swarm_core::{patient, SwarmParams};
use swarm_obs::Event;

/// Event-sampling stride of `bt.tick` (mirrors the engine constant).
pub const TICK_EVENT_SAMPLE: u64 = 64;

fn field<'a>(e: &'a Event, key: &str) -> Option<&'a Value> {
    e.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn f64_field(e: &Event, key: &str) -> Option<f64> {
    field(e, key)?.as_f64()
}

fn u64_field(e: &Event, key: &str) -> Option<u64> {
    field(e, key)?.as_u64()
}

/// Config summary carried by `bt.run.start`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunInfo {
    /// Process-wide run ordinal (the grouping key).
    pub run: u64,
    /// Bundle size K.
    pub k: u64,
    /// Per-file size (kB).
    pub file_size: f64,
    pub pieces: u64,
    /// Total peer arrival rate (peers/s) — the model's λ.
    pub arrival_rate: f64,
    /// Arrival window (ticks).
    pub horizon: u64,
    pub drain_ticks: u64,
    pub seed: u64,
    /// `"always_on"`, `"on_off"` or `"until_first_completion"`.
    pub publisher: String,
    /// Mean publisher on-time (s); 0 unless `on_off` — the model's u.
    pub on_mean: f64,
    /// Mean publisher off-time (s); 0 unless `on_off` — the model's 1/r.
    pub off_mean: f64,
    /// Capped mean peer upload rate (kB/s) — the model's μ.
    pub peer_upload_mean: f64,
}

impl RunInfo {
    fn from_event(e: &Event) -> Option<RunInfo> {
        Some(RunInfo {
            run: u64_field(e, "run")?,
            k: u64_field(e, "k")?,
            file_size: f64_field(e, "file_size")?,
            pieces: u64_field(e, "pieces")?,
            arrival_rate: f64_field(e, "arrival_rate")?,
            horizon: u64_field(e, "horizon")?,
            drain_ticks: u64_field(e, "drain_ticks").unwrap_or(0),
            seed: u64_field(e, "seed")?,
            publisher: field(e, "publisher")?.as_str()?.to_string(),
            on_mean: f64_field(e, "on_mean").unwrap_or(0.0),
            off_mean: f64_field(e, "off_mean").unwrap_or(0.0),
            peer_upload_mean: f64_field(e, "peer_upload_mean")?,
        })
    }
}

/// One strided `bt.tick` sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TickSample {
    pub tick: u64,
    pub online: u64,
    pub blocked: u64,
    pub covered: u64,
    pub min_replication: u64,
    pub publisher_on: bool,
}

/// One availability transition (the step function's corner points).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flip {
    pub tick: u64,
    pub available: bool,
}

/// Engine-side summary carried by `bt.run.end`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunEnd {
    /// Availability fraction over the arrival window, as the engine
    /// itself computed it — the reconstruction cross-check.
    pub availability: f64,
    pub completions: u64,
    pub last_available_tick: u64,
}

/// A contiguous interval of constant availability state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// First tick of the interval.
    pub start: u64,
    /// One past the last tick (half-open).
    pub end: u64,
    pub available: bool,
}

impl Segment {
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.end == self.start
    }
}

/// Everything one engine run left in the event stream.
#[derive(Debug, Clone, PartialEq)]
pub struct BtRunTrace {
    /// `None` when the `bt.run.start` line was evicted from the ring
    /// before the drain (the rest of the trace is still usable).
    pub info: Option<RunInfo>,
    /// Job label the run executed under, if any.
    pub job: Option<String>,
    pub run: u64,
    pub ticks: Vec<TickSample>,
    pub flips: Vec<Flip>,
    pub end: Option<RunEnd>,
}

impl BtRunTrace {
    fn new(run: u64) -> BtRunTrace {
        BtRunTrace {
            info: None,
            job: None,
            run,
            ticks: Vec::new(),
            flips: Vec::new(),
            end: None,
        }
    }

    /// End of the observed window: the horizon when known, else one
    /// past the last event tick.
    pub fn window_end(&self) -> u64 {
        if let Some(info) = &self.info {
            return info.horizon;
        }
        let last_tick = self.ticks.last().map(|t| t.tick).unwrap_or(0);
        let last_flip = self.flips.last().map(|f| f.tick).unwrap_or(0);
        last_tick.max(last_flip) + 1
    }

    /// The availability step function over `[0, window_end)`, as
    /// maximal constant segments. Empty when no transition was seen.
    pub fn segments(&self) -> Vec<Segment> {
        let end = self.window_end();
        let mut out = Vec::new();
        for (i, flip) in self.flips.iter().enumerate() {
            let seg_end = self
                .flips
                .get(i + 1)
                .map(|n| n.tick)
                .unwrap_or(end)
                .min(end);
            if flip.tick < seg_end {
                out.push(Segment {
                    start: flip.tick,
                    end: seg_end,
                    available: flip.available,
                });
            }
        }
        out
    }

    /// Fraction of the arrival window the content was *unavailable* —
    /// by PASTA this is also the probability an arriving peer finds it
    /// unavailable, the paper's P. `None` without any transition event.
    pub fn unavailable_fraction(&self) -> Option<f64> {
        let end = self.window_end();
        if end == 0 || self.flips.is_empty() {
            return None;
        }
        let unavailable: u64 = self
            .segments()
            .iter()
            .filter(|s| !s.available)
            .map(Segment::len)
            .sum();
        Some(unavailable as f64 / end as f64)
    }

    /// Completed busy periods: available segments that both start and
    /// end strictly inside the window (censored edge segments would
    /// bias the mean down).
    pub fn busy_periods(&self) -> Vec<Segment> {
        let end = self.window_end();
        self.segments()
            .into_iter()
            .filter(|s| s.available && s.end < end)
            .collect()
    }

    /// Mean completed busy-period length in ticks, when any completed.
    pub fn mean_busy_period(&self) -> Option<f64> {
        let periods = self.busy_periods();
        if periods.is_empty() {
            return None;
        }
        Some(periods.iter().map(|s| s.len() as f64).sum::<f64>() / periods.len() as f64)
    }

    /// Map this run's config onto the paper's Table-1 parameters.
    /// `None` unless the publisher is the §4.3 on/off process (the
    /// closed forms model exponential publisher churn; an always-on
    /// publisher has nothing to validate).
    pub fn model_params(&self) -> Option<SwarmParams> {
        let info = self.info.as_ref()?;
        if info.publisher != "on_off" || info.off_mean <= 0.0 || info.on_mean <= 0.0 {
            return None;
        }
        Some(SwarmParams {
            lambda: info.arrival_rate,
            size: info.k as f64 * info.file_size,
            mu: info.peer_upload_mean,
            r: 1.0 / info.off_mean,
            u: info.on_mean,
        })
    }

    /// Model-vs-trace validation: the closed-form unavailability and
    /// busy period against what this trace measured.
    pub fn model_check(&self) -> Option<ModelCheck> {
        let params = self.model_params()?;
        let trace_unavailability = self.unavailable_fraction()?;
        Some(ModelCheck {
            model_unavailability: patient::unavailability(&params),
            trace_unavailability,
            model_busy_period: patient::busy_period(&params),
            trace_mean_busy_period: self.mean_busy_period(),
            params,
        })
    }

    /// Render the availability step function as a fixed-width strip:
    /// `#` fully available, `.` fully unavailable, `+` mixed, `?` not
    /// observed. One cell covers `window_end / width` ticks.
    pub fn ascii_timeline(&self, width: usize) -> String {
        let end = self.window_end();
        let width = width.max(1);
        if end == 0 || self.flips.is_empty() {
            return "?".repeat(width);
        }
        let segments = self.segments();
        let mut out = String::with_capacity(width);
        for cell in 0..width {
            let c_start = cell as u64 * end / width as u64;
            let c_end = ((cell as u64 + 1) * end / width as u64).max(c_start + 1);
            let mut avail = 0u64;
            let mut covered = 0u64;
            for s in &segments {
                let lo = s.start.max(c_start);
                let hi = s.end.min(c_end);
                if lo < hi {
                    covered += hi - lo;
                    if s.available {
                        avail += hi - lo;
                    }
                }
            }
            out.push(if covered == 0 {
                '?'
            } else if avail == covered {
                '#'
            } else if avail == 0 {
                '.'
            } else {
                '+'
            });
        }
        out
    }
}

/// Closed-form prediction vs. trace measurement for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelCheck {
    /// The Table-1 parameters the run mapped onto.
    pub params: SwarmParams,
    /// `swarm_core::patient::unavailability` — the predicted P.
    pub model_unavailability: f64,
    /// Fraction of the window the trace was unavailable.
    pub trace_unavailability: f64,
    /// `swarm_core::patient::busy_period` — the predicted E\[B\] (s).
    pub model_busy_period: f64,
    /// Mean completed available period in the trace (ticks = s), when
    /// any busy period completed inside the window.
    pub trace_mean_busy_period: Option<f64>,
    // The trace exceeding the model here is expected physics, not a
    // bug: peers keep content available after the publisher leaves, so
    // measured busy periods are stochastically longer than the
    // publisher-only on-time — exactly the paper's swarm-sustained
    // availability effect.
}

impl ModelCheck {
    /// Absolute error of the unavailability prediction.
    pub fn abs_error(&self) -> f64 {
        (self.model_unavailability - self.trace_unavailability).abs()
    }
}

/// Group a drained event stream into per-run traces, ordered by run
/// ordinal. Events without a `run` field are ignored; a trace whose
/// `bt.run.start` was evicted still collects ticks and flips.
pub fn collect_runs(events: &[Event]) -> Vec<BtRunTrace> {
    let mut runs: BTreeMap<u64, BtRunTrace> = BTreeMap::new();
    for e in events {
        let Some(run) = u64_field(e, "run") else {
            continue;
        };
        let trace = runs.entry(run).or_insert_with(|| BtRunTrace::new(run));
        if trace.job.is_none() {
            trace.job = e.job.clone();
        }
        match e.kind.as_str() {
            "bt.run.start" => trace.info = RunInfo::from_event(e),
            "bt.tick" => {
                if let (Some(tick), Some(online), Some(blocked), Some(covered), Some(min_rep)) = (
                    u64_field(e, "tick"),
                    u64_field(e, "online"),
                    u64_field(e, "blocked"),
                    u64_field(e, "covered"),
                    u64_field(e, "min_replication"),
                ) {
                    trace.ticks.push(TickSample {
                        tick,
                        online,
                        blocked,
                        covered,
                        min_replication: min_rep,
                        publisher_on: field(e, "publisher_on")
                            .and_then(Value::as_bool)
                            .unwrap_or(false),
                    });
                }
            }
            "bt.availability" => {
                if let (Some(tick), Some(available)) = (
                    u64_field(e, "tick"),
                    field(e, "available").and_then(Value::as_bool),
                ) {
                    trace.flips.push(Flip { tick, available });
                }
            }
            "bt.run.end" => {
                trace.end = Some(RunEnd {
                    availability: f64_field(e, "availability").unwrap_or(0.0),
                    completions: u64_field(e, "completions").unwrap_or(0),
                    last_available_tick: u64_field(e, "last_available_tick").unwrap_or(0),
                });
            }
            _ => {}
        }
    }
    // Transitions can arrive out of order only if two drains were
    // concatenated; sort defensively, ticks likewise.
    let mut out: Vec<BtRunTrace> = runs.into_values().collect();
    for t in &mut out {
        t.flips.sort_by_key(|f| f.tick);
        t.ticks.sort_by_key(|s| s.tick);
    }
    out
}
