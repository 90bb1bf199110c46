//! E12 — `net-live`: the sim-vs-live equivalence experiment.
//!
//! Runs the canonical scripted scenarios twice each: once through the
//! `swarm-bt` tick simulator and once through the `swarm-net` live
//! networked engine on its deterministic loopback transport. The
//! scenarios are constructed so the comparable counters — ticks,
//! arrivals, completions, availability transitions — are *exactly*
//! equal between the two engines (see `swarm-net`'s scenario module for
//! the construction), and this experiment is where that claim meets the
//! telemetry pipeline: under `repro net-live --telemetry`, the sim's
//! `bt.*` counters and the live engine's `net.*` counters land in the
//! same run-level `metrics.json`, and `repro diff --sim-vs-live` gates
//! their equality in CI. The scenarios are fixed, so quick and full runs
//! are the same.

use crate::output::Report;
use serde_json::json;
use swarm_net::{run_live, scenarios, HostMode};

/// The counter stems the equivalence construction pins exactly; kept in
/// sync with `swarm_trace::diff::SIM_VS_LIVE_STEMS` by the test below.
const STEMS: [&str; 4] = [
    "ticks",
    "arrivals",
    "completions",
    "availability.transitions",
];

/// Run the sim-vs-live comparison.
pub fn run() -> Report {
    let mut report = Report::new(
        "net-live",
        "Sim-vs-live equivalence (swarm-bt vs swarm-net loopback)",
    );

    let mut rows = Vec::new();
    let mut all_equal = true;
    for (name, cfg) in scenarios::all(42) {
        let sim = swarm_bt::run(&cfg);
        let live = run_live(&cfg, HostMode::SingleThread);

        // The live engine reports ticks directly; the sim's drain-free
        // scripted runs are exactly the horizon by construction.
        let sim_counts = [
            cfg.horizon,
            sim.arrivals,
            sim.completions,
            availability_transitions(&sim, cfg.horizon),
        ];
        let live_counts = [
            live.ticks,
            live.arrivals,
            live.completions,
            live.availability_transitions,
        ];
        let equal = sim_counts == live_counts && sim.availability == live.availability;
        all_equal &= equal;

        report.line(format!(
            "{name}: K={} peers={} horizon={} | completions sim={} live={} | \
             availability sim={:.4} live={:.4} | transitions sim={} live={} | {}",
            cfg.file_size / cfg.piece_size,
            cfg.scripted_arrivals.as_ref().map_or(0, Vec::len),
            cfg.horizon,
            sim.completions,
            live.completions,
            sim.availability,
            live.availability,
            sim_counts[3],
            live.availability_transitions,
            if equal { "EXACT MATCH" } else { "MISMATCH" }
        ));

        rows.push(json!({
            "scenario": name,
            "stems": STEMS,
            "sim": sim_counts,
            "live": live_counts,
            "sim_availability": sim.availability,
            "live_availability": live.availability,
            "live_bytes_moved": live.bytes_moved,
            "live_messages": live.messages,
            "exact_match": equal,
        }));
    }
    report.line(if all_equal {
        "sim and live agree exactly on every comparable counter".to_string()
    } else {
        "MISMATCH: engines disagree — the repro diff --sim-vs-live gate will fail".to_string()
    });

    report.set_data(json!({
        "scenarios": rows,
        "all_exact": all_equal,
    }));
    report
}

/// Availability transitions of a sim run, recovered from its recorded
/// publisher intervals: the scenarios put every completion inside the
/// first on-phase, so availability equals the publisher square wave and
/// each interval edge strictly inside the horizon is one transition.
/// (The engine counts the same quantity on the
/// `bt.availability.transitions` counter, but counters are global and
/// this experiment needs the per-run number.)
fn availability_transitions(sim: &swarm_bt::BtResult, horizon: u64) -> u64 {
    let mut edges: Vec<(u64, bool)> = Vec::new();
    for &(on, off) in &sim.publisher_intervals {
        edges.push((on, true));
        edges.push((off, false));
    }
    edges.sort();
    let mut flips = 0u64;
    let mut last = true; // runs start available (publisher on at tick 0)
    for (tick, state) in edges {
        if tick == 0 {
            last = state;
            continue;
        }
        // An interval closing at the horizon is the run ending, not the
        // publisher leaving; the engine never saw that tick.
        if tick >= horizon {
            continue;
        }
        if state != last {
            flips += 1;
            last = state;
        }
    }
    flips
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stems_match_the_diff_gate() {
        assert_eq!(STEMS, swarm_trace::diff::SIM_VS_LIVE_STEMS);
    }

    #[test]
    fn quick_run_agrees_exactly() {
        let r = run();
        assert!(r.data["all_exact"].as_bool().unwrap(), "{}", r.text);
        let rows = r.data["scenarios"].as_array().unwrap();
        assert_eq!(rows.len(), 2);
        for row in rows {
            assert_eq!(row["sim"], row["live"], "{row}");
            assert_eq!(row["sim_availability"], row["live_availability"]);
        }
    }
}
