//! Run-to-run metric diffing and the committed regression baseline.
//!
//! A run's `metrics.json` is a serialized [`swarm_obs::Snapshot`]
//! delta. Most of it is timing and therefore machine-dependent; the
//! diff gate only looks at the *deterministic* counters — the engine
//! and simulator event counts that a fixed seed pins exactly
//! ([`is_deterministic`]). Two runs of the same code on the same
//! configs must agree on those to the last event; a change in
//! `bt.ticks` or `sim.completions` means behavior changed, not the
//! machine.
//!
//! Two comparison modes share [`DiffReport`]:
//!
//! * [`diff`] — A vs. B, two runs, one default threshold plus
//!   per-metric overrides ([`Thresholds`]).
//! * [`Baseline::check`] — current run vs. a committed baseline file
//!   (`BENCH_trace_baseline.json`), each metric carrying its own
//!   `max_rel`. CI fails when any relative delta exceeds its bound or
//!   a baselined metric disappears.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use swarm_obs::Snapshot;

/// Is this metric expected to be bit-identical across machines for a
/// fixed seed? Engine/simulator/Monte-Carlo counters are, as are the
/// catalog runtime's shard-batched counters (integer sums over
/// per-swarm RNG streams, invariant in shard count and in which shard
/// walks which swarm) and the live network engine's `net.*` counters
/// (endpoints stepped in id order in virtual time, frames delivered in
/// (sender, send order));
/// anything timing-derived (`*_ns`, `*_ms`) or
/// scheduler-dependent (`lab.*`, `stats.*`, `span.*`, gauges) is not.
/// The live engine keeps its wall-clock/scheduling metrics under
/// `stats.net.*` with `_ns` suffixes, so they never enter this domain.
pub fn is_deterministic(name: &str) -> bool {
    let deterministic_domain = ["bt.", "sim.", "mc.", "catalog.", "net."]
        .iter()
        .any(|p| name.starts_with(p));
    deterministic_domain && !name.ends_with("_ns") && !name.ends_with("_ms")
}

/// The counter stems compared between the simulator and the live
/// network engine: `bt.<stem>` must equal `net.<stem>` *exactly* on the
/// scripted equivalence scenarios. These are the counters the scenario
/// construction pins (scripted arrivals, schedule-driven publisher,
/// drain-free horizon); byte totals and message counts are engine-shaped
/// and deliberately excluded.
pub const SIM_VS_LIVE_STEMS: [&str; 4] = [
    "ticks",
    "arrivals",
    "completions",
    "availability.transitions",
];

/// Pair `bt.<stem>` against `net.<stem>` within one run's metrics and
/// require exact equality. A missing side is a failure: the gate must
/// not silently pass because one engine didn't run.
pub fn sim_vs_live(metrics: &BTreeMap<String, f64>) -> DiffReport {
    let mut report = DiffReport::default();
    for stem in SIM_VS_LIVE_STEMS {
        let sim_name = format!("bt.{stem}");
        let live_name = format!("net.{stem}");
        match (metrics.get(&sim_name), metrics.get(&live_name)) {
            (Some(&a), Some(&b)) => {
                let rel = rel_delta(a, b);
                report.entries.push(DiffEntry {
                    name: format!("{sim_name} vs {live_name}"),
                    a,
                    b,
                    rel,
                    max_rel: 0.0,
                    regressed: rel != 0.0,
                });
            }
            (sim, live) => {
                if sim.is_none() {
                    report.missing.push(sim_name);
                }
                if live.is_none() {
                    report.missing.push(live_name);
                }
            }
        }
    }
    report
}

/// Extract the deterministic counters from a snapshot delta.
pub fn deterministic_metrics(snap: &Snapshot) -> BTreeMap<String, f64> {
    snap.counters
        .iter()
        .filter(|(k, _)| is_deterministic(k))
        .map(|(k, &v)| (k.clone(), v as f64))
        .collect()
}

/// Relative delta of `b` against `a`: `(b-a)/|a|`, infinite when a
/// metric appears from zero.
pub fn rel_delta(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else if a == 0.0 {
        f64::INFINITY
    } else {
        (b - a) / a.abs()
    }
}

/// Per-metric relative-delta bounds for [`diff`].
#[derive(Debug, Clone)]
pub struct Thresholds {
    /// Bound applied when no override matches. Deterministic counters
    /// warrant 0.0 (exact).
    pub default_max_rel: f64,
    /// `--metric NAME=R` overrides.
    pub per_metric: BTreeMap<String, f64>,
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds {
            default_max_rel: 0.0,
            per_metric: BTreeMap::new(),
        }
    }
}

impl Thresholds {
    pub fn max_rel_for(&self, name: &str) -> f64 {
        self.per_metric
            .get(name)
            .copied()
            .unwrap_or(self.default_max_rel)
    }
}

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    pub name: String,
    pub a: f64,
    pub b: f64,
    pub rel: f64,
    pub max_rel: f64,
    /// `|rel| > max_rel` — deviation in either direction counts; a
    /// "speedup" in an event counter is as suspicious as a slowdown.
    pub regressed: bool,
}

/// Outcome of a comparison: per-metric entries plus the metrics only
/// one side had.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiffReport {
    pub entries: Vec<DiffEntry>,
    /// In A/baseline but missing from B/current — always a failure.
    pub missing: Vec<String>,
    /// In B/current only — reported, never failing (new
    /// instrumentation must not break old baselines).
    pub extra: Vec<String>,
}

impl DiffReport {
    /// Number of failing metrics (threshold breaches plus missing).
    pub fn regressions(&self) -> usize {
        self.entries.iter().filter(|e| e.regressed).count() + self.missing.len()
    }

    pub fn ok(&self) -> bool {
        self.regressions() == 0
    }

    /// Human-readable table; `verbose` includes passing metrics.
    pub fn render(&self, verbose: bool) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<32} {:>14} {:>14} {:>10} {:>9}  status\n",
            "metric", "a", "b", "rel", "max_rel"
        ));
        for e in &self.entries {
            if !verbose && !e.regressed {
                continue;
            }
            let rel = if e.rel.is_infinite() {
                "inf".to_string()
            } else {
                format!("{:+.4}", e.rel)
            };
            out.push_str(&format!(
                "{:<32} {:>14.1} {:>14.1} {:>10} {:>9.4}  {}\n",
                e.name,
                e.a,
                e.b,
                rel,
                e.max_rel,
                if e.regressed { "REGRESSED" } else { "ok" }
            ));
        }
        for name in &self.missing {
            out.push_str(&format!("{name:<32} missing from current run  REGRESSED\n"));
        }
        for name in &self.extra {
            out.push_str(&format!("{name:<32} new metric (not in baseline)\n"));
        }
        let n = self.regressions();
        out.push_str(&format!(
            "{} metric(s) compared, {} regression(s)\n",
            self.entries.len(),
            n
        ));
        out
    }
}

/// Compare run B against run A under `thresholds`.
pub fn diff(
    a: &BTreeMap<String, f64>,
    b: &BTreeMap<String, f64>,
    thresholds: &Thresholds,
) -> DiffReport {
    let mut report = DiffReport::default();
    for (name, &va) in a {
        match b.get(name) {
            Some(&vb) => {
                let rel = rel_delta(va, vb);
                let max_rel = thresholds.max_rel_for(name);
                report.entries.push(DiffEntry {
                    name: name.clone(),
                    a: va,
                    b: vb,
                    rel,
                    max_rel,
                    regressed: rel.abs() > max_rel,
                });
            }
            None => report.missing.push(name.clone()),
        }
    }
    for name in b.keys() {
        if !a.contains_key(name) {
            report.extra.push(name.clone());
        }
    }
    report
}

/// One baselined metric: the expected value and its tolerance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BaselineMetric {
    pub value: f64,
    /// Maximum tolerated `|rel_delta|` against `value`.
    pub max_rel: f64,
}

/// The committed regression baseline (`BENCH_trace_baseline.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Baseline {
    /// What produced it (suite, flags) — documentation, not compared.
    pub description: String,
    /// Whether the producing run used `--quick`.
    pub quick: bool,
    pub metrics: BTreeMap<String, BaselineMetric>,
}

impl Baseline {
    /// Build a baseline from a run's deterministic metrics, every
    /// metric tolerating `max_rel`.
    pub fn from_metrics(
        metrics: &BTreeMap<String, f64>,
        description: impl Into<String>,
        quick: bool,
        max_rel: f64,
    ) -> Baseline {
        Baseline {
            description: description.into(),
            quick,
            metrics: metrics
                .iter()
                .map(|(k, &value)| (k.clone(), BaselineMetric { value, max_rel }))
                .collect(),
        }
    }

    /// Compare a current run against this baseline.
    pub fn check(&self, current: &BTreeMap<String, f64>) -> DiffReport {
        let expected: BTreeMap<String, f64> = self
            .metrics
            .iter()
            .map(|(k, m)| (k.clone(), m.value))
            .collect();
        let mut thresholds = Thresholds::default();
        for (k, m) in &self.metrics {
            thresholds.per_metric.insert(k.clone(), m.max_rel);
        }
        diff(&expected, current, &thresholds)
    }

    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("baseline serializes")
    }

    pub fn from_json(s: &str) -> Result<Baseline, String> {
        serde_json::from_str(s).map_err(|e| format!("baseline parse error: {e}"))
    }
}

/// Parse a `metrics.json` file (a serialized snapshot delta) into its
/// deterministic counters.
pub fn load_metrics_json(s: &str) -> Result<BTreeMap<String, f64>, String> {
    let snap: Snapshot =
        serde_json::from_str(s).map_err(|e| format!("metrics.json parse error: {e}"))?;
    Ok(deterministic_metrics(&snap))
}
