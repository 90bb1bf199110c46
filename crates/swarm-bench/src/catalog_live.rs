//! E1′ — `catalog-live`: the whole generated catalog ticked through the
//! sharded multi-swarm runtime.
//!
//! This experiment runs every swarm of the catalog through
//! `swarm-catalog`'s work-stealing shard pool and reports measured
//! aggregates: seed-time CDF calibration points, downloads served,
//! seed-process transitions. `fig1` draws its CDFs from the same run;
//! the two stay separate reports. Every number in the JSON payload is
//! deterministic in the catalog seed alone — shard count and steal
//! order provably cannot move it — so the quick-mode run doubles as a
//! cross-thread-count regression surface for the `repro diff` gate.

use crate::output::Report;
use serde_json::json;
use swarm_catalog::{availability_study, run_catalog, CatalogRunConfig};
use swarm_measurement::{generate_catalog, CatalogConfig};

/// Worker threads for the catalog experiments: every available core,
/// bounded so a huge machine doesn't oversubscribe the lab scheduler's
/// own workers.
pub fn worker_threads() -> usize {
    swarm_stats::parallel::cores().min(8)
}

/// Run the live catalog experiment. `quick` shrinks the catalog.
pub fn run(quick: bool) -> Report {
    let mut report = Report::new(
        "catalog-live",
        "Live sharded catalog runtime (measurement study, E1-E3 substrate)",
    );
    let scale = if quick { 0.002 } else { 0.01 };
    let months = 7;
    let catalog = generate_catalog(&CatalogConfig { scale, seed: 1001 });
    let threads = worker_threads();
    let run = run_catalog(
        &catalog,
        &CatalogRunConfig {
            catalog_seed: 1003,
            months,
            threads,
            start_at_generated_age: false,
        },
    );
    let study = availability_study(&run);

    let always = study.always_available_first_month();
    let mostly_off = study.mostly_unavailable_whole_trace(0.2);
    report.line(format!(
        "catalog: {} swarms | horizon: {} months | threads requested: {}",
        catalog.len(),
        months,
        threads
    ));
    report.line(format!(
        "downloads served: {} | lingered as seeds: {} | seed-process toggles: {}",
        run.total_arrivals(),
        run.per_swarm.iter().map(|s| s.lingered).sum::<u64>(),
        run.total_toggles()
    ));
    report.line(format!(
        "always available in first month: {:.1}% (paper: <35%) | \
         unavailable >=80% of whole trace: {:.1}% (paper: ~80%)",
        always * 100.0,
        mostly_off * 100.0
    ));
    report.line(format!(
        "wall: {:.0} ms (shard-count invariant results)",
        run.wall.as_secs_f64() * 1000.0
    ));

    report.set_data(json!({
        "swarms": catalog.len(),
        "months": months,
        "arrivals": run.total_arrivals(),
        "lingered": run.per_swarm.iter().map(|s| s.lingered).sum::<u64>(),
        "toggles": run.total_toggles(),
        "events": run.per_swarm.iter().map(|s| s.events).sum::<u64>(),
        "final_on": run.seeded_flags().iter().filter(|&&b| b).count(),
        "always_available_first_month": always,
        "mostly_unavailable_whole_trace": mostly_off,
    }));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_live_calibrates_like_the_paper() {
        let r = run(true);
        let always = r.data["always_available_first_month"].as_f64().unwrap();
        let mostly = r.data["mostly_unavailable_whole_trace"].as_f64().unwrap();
        assert!(always < 0.45, "always available {always}");
        assert!(mostly > 0.5, "mostly unavailable {mostly}");
        assert!(r.data["arrivals"].as_u64().unwrap() > 0);
        assert!(r.data["toggles"].as_u64().unwrap() > 0);
    }
}
