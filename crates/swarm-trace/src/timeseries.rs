//! Trend analysis over a run's `timeseries.jsonl`.
//!
//! The recorder windows (see `swarm_obs::timeseries`) say *when* a
//! run's counters moved; this module turns that into answers and
//! gates:
//!
//! * [`SeriesAnalysis`] — per-window rates, the windowed availability
//!   curve, and episode detection: **dips** (windows whose availability
//!   fraction drops below a threshold) and **stalls** (windows where
//!   leechers were blocked but no bytes moved).
//! * [`availability_crosscheck`] — the windowed availability curve must
//!   integrate to the engine's own end-of-run availability figure
//!   (from the event timeline), within one tick of rounding per run.
//! * [`TsBaseline`] — the committed trend baseline behind
//!   `repro diff --timeseries`: per-series window geometry, counter
//!   totals and an FNV-1a digest over the canonical serialization, so
//!   CI catches a *reshaped* curve even when the totals still match.
//!
//! Every series is recorded in virtual ticks, so every series is
//! bit-identical across machines and shard counts for a fixed seed and
//! enters the diff gate.

use crate::timeline::BtRunTrace;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;
use swarm_obs::{Recorder, Window};

/// Availability fraction below which a window counts as a dip.
pub const DIP_THRESHOLD: f64 = 0.5;

/// A maximal run of consecutive windows satisfying an episode
/// predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct Episode {
    /// First tick of the first window in the run.
    pub start: u64,
    /// One past the last tick of the last window.
    pub end: u64,
    /// Number of windows in the run.
    pub windows: usize,
    /// Worst (lowest) availability fraction seen, for dips; 0 for
    /// stalls.
    pub severity: f64,
}

impl Episode {
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.end == self.start
    }
}

/// One named series, loaded for analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesAnalysis {
    pub name: String,
    /// Base window width in virtual ticks.
    pub window: u64,
    /// Downsampling stride at render time.
    pub stride: u64,
    pub windows: Vec<Window>,
    /// Counter name → sum over every window.
    pub totals: BTreeMap<String, u64>,
}

impl SeriesAnalysis {
    pub fn from_recorder(name: &str, rec: &Recorder) -> SeriesAnalysis {
        let windows = rec.windows();
        let mut totals: BTreeMap<String, u64> = BTreeMap::new();
        for w in &windows {
            for (k, &v) in &w.counters {
                *totals.entry(k.clone()).or_insert(0) += v;
            }
        }
        SeriesAnalysis {
            name: name.to_string(),
            window: rec.window(),
            stride: rec.stride(),
            windows,
            totals,
        }
    }

    /// `counter / window length` — the per-virtual-tick rate inside one
    /// window. Ticks are seconds for the engine series and hours for
    /// the catalog series, so this is a rate in 1/s-of-sim-time
    /// respectively 1/h.
    pub fn rate(w: &Window, counter: &str) -> f64 {
        let v = w.counters.get(counter).copied().unwrap_or(0);
        v as f64 / w.len as f64
    }

    /// Availability fraction of one window
    /// (`available_ticks / ticks`), when the series carries both.
    pub fn availability(w: &Window) -> Option<f64> {
        let ticks = w.counters.get("ticks").copied()?;
        if ticks == 0 {
            return None;
        }
        let avail = w.counters.get("available_ticks").copied().unwrap_or(0);
        Some(avail as f64 / ticks as f64)
    }

    /// Maximal runs of consecutive windows whose availability fraction
    /// is below `threshold`. Windows without tick counts (catalog
    /// series, gaps) never extend an episode.
    pub fn dip_episodes(&self, threshold: f64) -> Vec<Episode> {
        self.episodes(|w| {
            Self::availability(w)
                .filter(|&f| f < threshold)
                .map(|f| f.min(1.0))
        })
    }

    /// Maximal runs of consecutive windows where leechers sat blocked
    /// (`blocked_ticks > 0`) while nothing was transferred
    /// (`bytes_moved == 0`).
    pub fn stall_episodes(&self) -> Vec<Episode> {
        self.episodes(|w| {
            let blocked = w.counters.get("blocked_ticks").copied().unwrap_or(0);
            let bytes = w.counters.get("bytes_moved").copied().unwrap_or(0);
            (blocked > 0 && bytes == 0).then_some(0.0)
        })
    }

    /// Generic episode scan: `hit` returns a severity when the window
    /// belongs to an episode. Consecutive means *adjacent in tick
    /// space* — a materialization gap breaks the run.
    fn episodes(&self, hit: impl Fn(&Window) -> Option<f64>) -> Vec<Episode> {
        let mut out: Vec<Episode> = Vec::new();
        let mut current: Option<Episode> = None;
        for w in &self.windows {
            match hit(w) {
                Some(severity) => {
                    let adjacent = current.as_ref().map(|e| e.end == w.start).unwrap_or(false);
                    if adjacent {
                        let e = current.as_mut().expect("adjacent implies current");
                        e.end = w.start + w.len;
                        e.windows += 1;
                        e.severity = e.severity.min(severity);
                    } else {
                        if let Some(e) = current.take() {
                            out.push(e);
                        }
                        current = Some(Episode {
                            start: w.start,
                            end: w.start + w.len,
                            windows: 1,
                            severity,
                        });
                    }
                }
                None => {
                    if let Some(e) = current.take() {
                        out.push(e);
                    }
                }
            }
        }
        out.extend(current);
        out
    }

    /// Human-readable report for `repro trace --timeseries`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "series {:<10} window {} x stride {} = {} tick(s)/window, {} window(s)\n",
            self.name,
            self.window,
            self.stride,
            self.window * self.stride,
            self.windows.len()
        ));
        let covered: u64 = self.windows.iter().map(|w| w.len).sum();
        for (name, total) in &self.totals {
            out.push_str(&format!(
                "  {name:<18} total {total:>12}  mean rate {:.6}/tick\n",
                *total as f64 / covered.max(1) as f64
            ));
        }
        let dips = self.dip_episodes(DIP_THRESHOLD);
        for e in &dips {
            out.push_str(&format!(
                "  dip: ticks [{}, {}) — {} window(s), worst availability {:.3}\n",
                e.start, e.end, e.windows, e.severity
            ));
        }
        let stalls = self.stall_episodes();
        for e in &stalls {
            out.push_str(&format!(
                "  stall: ticks [{}, {}) — {} window(s) blocked with no bytes moved\n",
                e.start, e.end, e.windows
            ));
        }
        if dips.is_empty() && stalls.is_empty() {
            out.push_str("  no dip or stall episodes\n");
        }
        out
    }
}

/// Outcome of checking the windowed availability curve against the
/// engines' own end-of-run figures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossCheck {
    /// `sum(available_ticks)` over every window.
    pub windowed_available: u64,
    /// `sum(round(availability * horizon))` over the event timeline's
    /// runs — what the engines reported.
    pub engine_available: u64,
    /// Runs that contributed to `engine_available`.
    pub runs: usize,
}

impl CrossCheck {
    /// The engine figure is a rounded fraction, so allow one tick of
    /// rounding slack per contributing run.
    pub fn ok(&self) -> bool {
        self.windowed_available.abs_diff(self.engine_available) <= self.runs as u64
    }
}

/// Cross-check a `bt` series against the availability figures the
/// engine itself emitted on the event timeline. `None` when the series
/// has no availability counter or no run carried both a config and an
/// end summary (multiple runs merge additively on both sides, so the
/// sums stay comparable).
pub fn availability_crosscheck(
    analysis: &SeriesAnalysis,
    traces: &[BtRunTrace],
) -> Option<CrossCheck> {
    let windowed_available = *analysis.totals.get("available_ticks")?;
    let mut engine_available = 0u64;
    let mut runs = 0usize;
    for t in traces {
        let (Some(info), Some(end)) = (&t.info, &t.end) else {
            continue;
        };
        engine_available += (end.availability * info.horizon as f64).round() as u64;
        runs += 1;
    }
    if runs == 0 {
        return None;
    }
    Some(CrossCheck {
        windowed_available,
        engine_available,
        runs,
    })
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Canonical digest of one series: FNV-1a over its serialized JSONL
/// (header + windows), which pins geometry, order and every counter.
pub fn series_digest(name: &str, rec: &Recorder) -> String {
    let mut one = BTreeMap::new();
    one.insert(name.to_string(), rec.clone());
    format!(
        "{:016x}",
        fnv1a(swarm_obs::series_to_jsonl(&one).as_bytes())
    )
}

/// One baselined series: window geometry, counter totals and the
/// canonical digest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TsSeriesBaseline {
    pub window: u64,
    pub stride: u64,
    pub windows: u64,
    pub totals: BTreeMap<String, u64>,
    pub digest: String,
}

/// The committed trend baseline (`BENCH_timeseries_baseline.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TsBaseline {
    /// What produced it — documentation, not compared.
    pub description: String,
    pub series: BTreeMap<String, TsSeriesBaseline>,
}

impl TsBaseline {
    /// Build a baseline from a run's series.
    pub fn from_series(
        series: &BTreeMap<String, Recorder>,
        description: impl Into<String>,
    ) -> TsBaseline {
        TsBaseline {
            description: description.into(),
            series: series
                .iter()
                .map(|(name, rec)| {
                    let analysis = SeriesAnalysis::from_recorder(name, rec);
                    (
                        name.clone(),
                        TsSeriesBaseline {
                            window: rec.window(),
                            stride: rec.stride(),
                            windows: analysis.windows.len() as u64,
                            totals: analysis.totals,
                            digest: series_digest(name, rec),
                        },
                    )
                })
                .collect(),
        }
    }

    /// Compare a current run's series against this baseline. Every
    /// problem is one line; an empty list is a pass. New series not in
    /// the baseline are tolerated (new instrumentation must not break
    /// old baselines).
    pub fn check(&self, current: &BTreeMap<String, Recorder>) -> Vec<String> {
        let mut problems = Vec::new();
        for (name, base) in &self.series {
            let Some(rec) = current.get(name) else {
                problems.push(format!("series {name}: missing from current run"));
                continue;
            };
            let analysis = SeriesAnalysis::from_recorder(name, rec);
            if rec.window() != base.window || rec.stride() != base.stride {
                problems.push(format!(
                    "series {name}: geometry changed — window {} x stride {} vs baseline {} x {}",
                    rec.window(),
                    rec.stride(),
                    base.window,
                    base.stride
                ));
            }
            if analysis.windows.len() as u64 != base.windows {
                problems.push(format!(
                    "series {name}: {} window(s) vs baseline {}",
                    analysis.windows.len(),
                    base.windows
                ));
            }
            for (counter, &expect) in &base.totals {
                match analysis.totals.get(counter) {
                    Some(&got) if got == expect => {}
                    Some(&got) => problems.push(format!(
                        "series {name}: counter {counter} total {got} vs baseline {expect}"
                    )),
                    None => problems.push(format!(
                        "series {name}: counter {counter} missing (baseline {expect})"
                    )),
                }
            }
            let digest = series_digest(name, rec);
            if digest != base.digest {
                problems.push(format!(
                    "series {name}: window shape changed (digest {digest} vs baseline {})",
                    base.digest
                ));
            }
        }
        problems
    }

    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("baseline serializes")
    }

    pub fn from_json(s: &str) -> Result<TsBaseline, String> {
        serde_json::from_str(s).map_err(|e| format!("timeseries baseline parse error: {e}"))
    }
}

/// Exact two-run comparison of the series: bit-identical
/// serialization or a problem line per divergence. Series present on
/// only one side fail too.
pub fn diff_series(a: &BTreeMap<String, Recorder>, b: &BTreeMap<String, Recorder>) -> Vec<String> {
    let mut problems = Vec::new();
    let names: std::collections::BTreeSet<&String> = a.keys().chain(b.keys()).collect();
    for name in names {
        match (a.get(name), b.get(name)) {
            (Some(ra), Some(rb)) => {
                if series_digest(name, ra) != series_digest(name, rb) {
                    problems.push(format!("series {name}: windows diverge between runs"));
                }
            }
            (Some(_), None) => problems.push(format!("series {name}: only in run A")),
            (None, Some(_)) => problems.push(format!("series {name}: only in run B")),
            (None, None) => unreachable!("name came from one of the maps"),
        }
    }
    problems
}

/// Load `timeseries.jsonl` from a run directory (or the file itself).
pub fn load_timeseries(path: &Path) -> Result<BTreeMap<String, Recorder>, String> {
    let file = if path.is_dir() {
        path.join("timeseries.jsonl")
    } else {
        path.to_path_buf()
    };
    let text = std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
    swarm_obs::parse_timeseries(&text).map_err(|e| format!("{}: {e}", file.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bt_like() -> Recorder {
        // 4 windows of 8 ticks: healthy, dip, stall, healthy.
        let mut rec = Recorder::with_capacity(8, 64);
        for (i, (avail, blocked, bytes)) in [(8, 0, 100), (2, 3, 50), (0, 8, 0), (8, 0, 80)]
            .iter()
            .enumerate()
        {
            let base = i as u64 * 8;
            rec.add(base, "ticks", 8);
            rec.add(base, "available_ticks", *avail);
            rec.add(base, "blocked_ticks", *blocked);
            rec.add(base, "bytes_moved", *bytes);
        }
        rec
    }

    #[test]
    fn totals_and_rates() {
        let rec = bt_like();
        let a = SeriesAnalysis::from_recorder("bt", &rec);
        assert_eq!(a.totals["ticks"], 32);
        assert_eq!(a.totals["bytes_moved"], 230);
        let w = &a.windows[0];
        assert_eq!(SeriesAnalysis::rate(w, "bytes_moved"), 100.0 / 8.0);
        assert_eq!(SeriesAnalysis::availability(w), Some(1.0));
    }

    #[test]
    fn dips_and_stalls_detected() {
        let a = SeriesAnalysis::from_recorder("bt", &bt_like());
        let dips = a.dip_episodes(DIP_THRESHOLD);
        // Windows 1 (2/8) and 2 (0/8) are adjacent → one episode.
        assert_eq!(dips.len(), 1);
        assert_eq!((dips[0].start, dips[0].end), (8, 24));
        assert_eq!(dips[0].windows, 2);
        assert_eq!(dips[0].severity, 0.0);

        let stalls = a.stall_episodes();
        assert_eq!(stalls.len(), 1);
        assert_eq!((stalls[0].start, stalls[0].end), (16, 24));
    }

    #[test]
    fn episode_breaks_at_gap() {
        let mut rec = Recorder::with_capacity(8, 64);
        // Two dip windows separated by an unmaterialized window.
        for base in [0u64, 16] {
            rec.add(base, "ticks", 8);
            rec.add(base, "available_ticks", 1);
        }
        let a = SeriesAnalysis::from_recorder("x", &rec);
        let dips = a.dip_episodes(DIP_THRESHOLD);
        assert_eq!(dips.len(), 2, "a gap must split the episode");
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let rec = bt_like();
        assert_eq!(series_digest("bt", &rec), series_digest("bt", &rec));
        let mut other = bt_like();
        other.add(0, "ticks", 1);
        assert_ne!(series_digest("bt", &rec), series_digest("bt", &other));
        // Same windows under a different name digest differently: the
        // name is part of the canonical serialization.
        assert_ne!(series_digest("bt", &rec), series_digest("net", &rec));
    }

    #[test]
    fn baseline_round_trip_and_injected_regression() {
        let mut series = BTreeMap::new();
        series.insert("bt".to_string(), bt_like());
        let baseline = TsBaseline::from_series(&series, "test");
        let parsed = TsBaseline::from_json(&baseline.to_json()).expect("round trips");
        assert_eq!(parsed, baseline);
        assert!(baseline.check(&series).is_empty(), "self-check passes");

        // Injected regression: one counter in one window moves.
        let mut broken = series.clone();
        broken.get_mut("bt").unwrap().add(9, "arrivals", 1);
        let problems = baseline.check(&broken);
        assert!(!problems.is_empty(), "regression must be caught");
        assert!(problems.iter().any(|p| p.contains("digest")));

        // A missing series is a failure.
        let mut gone = series.clone();
        gone.remove("bt");
        assert!(gone.is_empty() || !gone.contains_key("bt"));
        assert!(baseline
            .check(&gone)
            .iter()
            .any(|p| p.contains("missing from current run")));
    }

    #[test]
    fn two_run_diff_exact() {
        let mut a = BTreeMap::new();
        a.insert("bt".to_string(), bt_like());
        let mut b = a.clone();
        assert!(diff_series(&a, &b).is_empty());
        b.get_mut("bt").unwrap().add(30, "ticks", 1);
        assert!(!diff_series(&a, &b).is_empty());
        // A series on one side only is a divergence.
        let mut d = a.clone();
        d.insert("catalog".to_string(), bt_like());
        assert_eq!(diff_series(&a, &d).len(), 1);
    }

    #[test]
    fn crosscheck_accepts_engine_figures() {
        use crate::timeline::collect_runs;
        let a = SeriesAnalysis::from_recorder("bt", &bt_like());
        // Build a fake timeline: one run, horizon 32, availability
        // 18/32 (the series' available_ticks total).
        let events = vec![
            swarm_obs::Event {
                seq: 0,
                ts_us: 0,
                kind: "bt.run.start".into(),
                job: None,
                fields: vec![
                    ("run".into(), swarm_obs::val(1u64)),
                    ("k".into(), swarm_obs::val(1u64)),
                    ("file_size".into(), swarm_obs::val(100.0)),
                    ("pieces".into(), swarm_obs::val(4u64)),
                    ("arrival_rate".into(), swarm_obs::val(0.1)),
                    ("horizon".into(), swarm_obs::val(32u64)),
                    ("seed".into(), swarm_obs::val(7u64)),
                    ("publisher".into(), swarm_obs::val("always_on")),
                    ("peer_upload_mean".into(), swarm_obs::val(32.0)),
                ],
            },
            swarm_obs::Event {
                seq: 1,
                ts_us: 0,
                kind: "bt.run.end".into(),
                job: None,
                fields: vec![
                    ("run".into(), swarm_obs::val(1u64)),
                    ("availability".into(), swarm_obs::val(18.0 / 32.0)),
                    ("completions".into(), swarm_obs::val(0u64)),
                    ("last_available_tick".into(), swarm_obs::val(31u64)),
                ],
            },
        ];
        let traces = collect_runs(&events);
        let check = availability_crosscheck(&a, &traces).expect("both sides present");
        assert_eq!(check.windowed_available, 18);
        assert_eq!(check.engine_available, 18);
        assert!(check.ok());
    }
}
