//! E1 — Figure 1: CDF of seed availability across the monitored swarms.
//!
//! Every swarm of the catalog is walked from its creation through the
//! sharded catalog runtime (`swarm-catalog`), event-driven on its
//! shared-counter shard pool. Beside the CDFs the report gives the
//! walk's catalog-wide totals: downloads served, lingering seeds,
//! seed-process toggles, dwell events and swarms seeded at the end.
//! Every number is bit-identical at any thread count.

use crate::output::Report;
use serde_json::json;
use swarm_catalog::{availability_study, run_catalog, CatalogRunConfig};
use swarm_measurement::{generate_catalog, CatalogConfig};
use swarm_stats::ascii::{line_chart, Series};

/// Worker threads for the catalog experiments: every available core,
/// bounded so a huge machine doesn't oversubscribe the lab scheduler's
/// own workers.
pub(crate) fn worker_threads() -> usize {
    swarm_stats::parallel::cores().min(8)
}

/// Regenerate Figure 1. `quick` shrinks the catalog.
pub fn run(quick: bool) -> Report {
    let mut report = Report::new("fig1", "CDF of seed availability (paper Figure 1)");
    let scale = if quick { 0.002 } else { 0.01 };
    let months = 7;
    let catalog = generate_catalog(&CatalogConfig { scale, seed: 1001 });
    let run = run_catalog(
        &catalog,
        &CatalogRunConfig {
            catalog_seed: 1003,
            months,
            threads: worker_threads(),
            start_at_generated_age: false,
        },
    );
    let study = availability_study(&run);
    let lingered: u64 = run.per_swarm.iter().map(|s| s.lingered).sum();

    let first: Vec<(f64, f64)> = study.first_month.curve(0.0, 1.0, 41);
    let whole: Vec<(f64, f64)> = study.whole_trace.curve(0.0, 1.0, 41);
    report.block(line_chart(
        "CDF of per-swarm seed availability (x: availability, y: fraction of swarms)",
        &[
            Series::new("first month after creation", first.clone()),
            Series::new(format!("entire {months}-month trace"), whole.clone()),
        ],
        64,
        18,
    ));
    let always = study.always_available_first_month();
    let mostly_off = study.mostly_unavailable_whole_trace(0.2);
    report.line(format!(
        "swarms monitored: {} | always available in first month: {:.1}% (paper: <35%)",
        catalog.len(),
        always * 100.0
    ));
    report.line(format!(
        "unavailable >=80% of the whole trace: {:.1}% (paper: ~80%)",
        mostly_off * 100.0
    ));
    report.line(format!(
        "downloads served: {} | lingered as seeds: {} | seed-process toggles: {}",
        run.total_arrivals(),
        lingered,
        run.total_toggles()
    ));

    report.set_data(json!({
        "swarms": catalog.len(),
        "months": months,
        "always_available_first_month": always,
        "mostly_unavailable_whole_trace": mostly_off,
        "first_month_cdf": first,
        "whole_trace_cdf": whole,
        "arrivals": run.total_arrivals(),
        "lingered": lingered,
        "toggles": run.total_toggles(),
        "events": run.per_swarm.iter().map(|s| s.events).sum::<u64>(),
        "final_on": run.per_swarm.iter().filter(|s| s.final_on).count(),
        "paper": {
            "always_available_first_month": "< 0.35",
            "mostly_unavailable_whole_trace": "~ 0.80",
        },
    }));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_reproduces_paper_shape() {
        let r = run(true);
        let always = r.data["always_available_first_month"].as_f64().unwrap();
        let mostly = r.data["mostly_unavailable_whole_trace"].as_f64().unwrap();
        assert!(always < 0.45, "always available {always}");
        assert!(mostly > 0.5, "mostly unavailable {mostly}");
        assert!(r.text.contains("CDF"));
        assert!(r.data["arrivals"].as_u64().unwrap() > 0);
        assert!(r.data["toggles"].as_u64().unwrap() > 0);
    }
}
