//! `catalog_bench` — wall-clock scaling and shard-count-invariance
//! benchmark for the sharded catalog runtime.
//!
//! ```text
//! catalog_bench [--quick] [--reps N] [--out BENCH_catalog.json]
//!               [--telemetry DIR]
//! ```
//!
//! Generates a catalog (full mode: ~1% of the paper's 1.09M-swarm
//! snapshot, i.e. >10K swarms serving on the order of a million peer
//! arrivals over a 7-month horizon), then ticks the *entire* catalog
//! through `swarm-catalog`'s shared-counter shard pool at each thread
//! count, checking two things:
//!
//! * **Invariance** — every deterministic output (the serialized
//!   per-swarm summaries and every `catalog.*` counter) must be
//!   bit-identical at every thread count. Any drift is a scheduling
//!   leak into the per-swarm RNG streams and fails the run.
//! * **Scaling** — full mode requires ≥3× speedup at 8 threads over 1
//!   (min-of-reps wall clock) *when the machine has the cores to show
//!   it*: a box with fewer physical cores than the largest thread
//!   count cannot exhibit parallel speedup, so the bar is recorded as
//!   waived (with the core count) instead of failing vacuously. Quick
//!   mode — the CI smoke job, which runs on small shared runners —
//!   always only records the ratio.
//!
//! `--telemetry DIR` additionally enables `swarm-obs` recording and
//! writes each thread count's registry delta to `DIR/t<n>/metrics.json`
//! plus its weekly window series to `DIR/t<n>/timeseries.jsonl`, so
//! `repro diff DIR/t1 DIR/t<n>` (and `repro diff --timeseries ...`) can
//! re-verify counter and trend invariance offline (the CI job does
//! exactly that).

use serde::Serialize;
use std::process::ExitCode;
use swarm_catalog::{run_catalog, CatalogRun, CatalogRunConfig};
use swarm_measurement::{generate_catalog, CatalogConfig, Swarm};

const USAGE: &str = "usage: catalog_bench [--quick] [--reps N] [--out FILE] [--telemetry DIR]";

fn summaries_json(run: &CatalogRun) -> String {
    serde_json::to_string(&run.per_swarm).expect("summaries serialize")
}

#[derive(Debug, Serialize)]
struct ThreadResult {
    threads: usize,
    wall_min_s: f64,
    wall_median_s: f64,
    /// wall_min(1 thread) / wall_min(this thread count).
    speedup: f64,
    /// Serialized per-swarm summaries identical to the 1-thread run.
    summaries_identical: bool,
    /// Every `catalog.*` registry counter identical to the 1-thread run
    /// (only checked when telemetry is on).
    counters_identical: Option<bool>,
}

#[derive(Debug, Serialize)]
struct Report {
    quick: bool,
    reps: usize,
    swarms: usize,
    months: u32,
    arrivals: u64,
    toggles: u64,
    events: u64,
    physical_cores: usize,
    thread_counts: Vec<usize>,
    results: Vec<ThreadResult>,
    /// Full mode: speedup at the largest thread count must be >= this.
    /// `None` when quick or when the machine has too few cores to show
    /// parallel speedup (see `speedup_bar_note`).
    min_speedup_at_max_threads: Option<f64>,
    speedup_bar_note: String,
    pass: bool,
}

fn timed_run(swarms: &[Swarm], cfg: &CatalogRunConfig, reps: usize) -> (CatalogRun, f64, f64) {
    let first = run_catalog(swarms, cfg);
    let mut samples = vec![first.wall.as_secs_f64()];
    for _ in 1..reps {
        samples.push(run_catalog(swarms, cfg).wall.as_secs_f64());
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    (first, samples[0], samples[samples.len() / 2])
}

fn catalog_counters(snap: &swarm_obs::Snapshot) -> Vec<(String, u64)> {
    snap.counters
        .iter()
        .filter(|(k, _)| k.starts_with("catalog."))
        .map(|(k, &v)| (k.clone(), v))
        .collect()
}

fn main() -> ExitCode {
    let mut quick = false;
    let mut reps = 0usize;
    let mut out: Option<String> = None;
    let mut telemetry: Option<std::path::PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--reps" => {
                let v = args.next().unwrap_or_default();
                match v.parse() {
                    Ok(n) if n > 0 => reps = n,
                    _ => {
                        eprintln!("bad --reps `{v}`\n{USAGE}");
                        return ExitCode::from(2);
                    }
                }
            }
            "--out" => match args.next() {
                Some(v) => out = Some(v),
                None => {
                    eprintln!("--out needs a value\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--telemetry" => match args.next() {
                Some(v) => telemetry = Some(std::path::PathBuf::from(v)),
                None => {
                    eprintln!("--telemetry needs a directory\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown argument: {other}\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    if reps == 0 {
        reps = if quick { 1 } else { 3 };
    }

    // Full mode is the acceptance configuration: >10K swarms, 7 months,
    // on the order of a million served peer arrivals. Quick mode keeps
    // the same pipeline at CI-smoke size.
    let (scale, months) = if quick { (0.002, 3) } else { (0.01, 7) };
    let thread_counts: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4, 8] };
    let swarms = generate_catalog(&CatalogConfig { scale, seed: 1001 });

    if telemetry.is_some() {
        swarm_obs::set_enabled(true);
    }

    let mut results: Vec<ThreadResult> = Vec::new();
    let mut baseline_summaries = String::new();
    let mut baseline_counters: Vec<(String, u64)> = Vec::new();
    let mut first_run: Option<CatalogRun> = None;
    for &threads in thread_counts {
        let cfg = CatalogRunConfig {
            catalog_seed: 1003,
            months,
            threads,
            start_at_generated_age: false,
        };
        let before = swarm_obs::snapshot();
        let (run, wall_min, wall_median) = timed_run(&swarms, &cfg, reps);
        let delta = swarm_obs::snapshot().delta_since(&before);

        if let Some(dir) = &telemetry {
            let tdir = dir.join(format!("t{threads}"));
            if let Err(e) = std::fs::create_dir_all(&tdir) {
                eprintln!("error: mkdir {}: {e}", tdir.display());
                return ExitCode::from(2);
            }
            let path = tdir.join("metrics.json");
            let json = serde_json::to_string_pretty(&delta).expect("snapshot serializes");
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("error: write {}: {e}", path.display());
                return ExitCode::from(2);
            }
            // The sharded run merged its weekly recorder windows into
            // the global "catalog" series; take (and thereby reset) it
            // per thread count so `repro diff --timeseries DIR/t1
            // DIR/t<n>` can re-verify shard invariance on the windowed
            // series too. Reps accumulate additively and every thread
            // count runs the same reps, so the files stay comparable.
            if let Some(rec) = swarm_obs::take_series("catalog") {
                let series: std::collections::BTreeMap<_, _> =
                    [("catalog".to_string(), rec)].into_iter().collect();
                let mut body = swarm_obs::header_line();
                body.push_str(&swarm_obs::series_to_jsonl(&series));
                let path = tdir.join("timeseries.jsonl");
                if let Err(e) = std::fs::write(&path, body) {
                    eprintln!("error: write {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            }
        }

        let summaries = summaries_json(&run);
        let counters = catalog_counters(&delta);
        let (summaries_identical, counters_identical) = if results.is_empty() {
            baseline_summaries = summaries;
            baseline_counters = counters;
            (true, telemetry.as_ref().map(|_| true))
        } else {
            (
                summaries == baseline_summaries,
                // Deltas sum over the same number of reps at every
                // thread count, so raw equality is the right check.
                telemetry.as_ref().map(|_| counters == baseline_counters),
            )
        };

        let base_wall = results.first().map(|r| r.wall_min_s).unwrap_or(wall_min);
        let r = ThreadResult {
            threads,
            wall_min_s: wall_min,
            wall_median_s: wall_median,
            speedup: base_wall / wall_min,
            summaries_identical,
            counters_identical,
        };
        eprintln!(
            "threads {:2}  wall {:8.3}s (median {:8.3}s)  speedup {:5.2}x  \
             summaries {}  counters {}",
            r.threads,
            r.wall_min_s,
            r.wall_median_s,
            r.speedup,
            if r.summaries_identical {
                "identical"
            } else {
                "DIVERGED"
            },
            match r.counters_identical {
                Some(true) => "identical",
                Some(false) => "DIVERGED",
                None => "(telemetry off)",
            },
        );
        if first_run.is_none() {
            first_run = Some(run);
        }
        results.push(r);
    }

    let run = first_run.expect("at least one thread count");
    let cores = swarm_stats::parallel::cores();
    let max_threads = *thread_counts.last().unwrap();
    let (min_speedup, speedup_bar_note) = if quick {
        (None, "quick mode records the ratio only".to_string())
    } else if cores < max_threads {
        (
            None,
            format!(
                "waived: {cores} physical core(s) cannot exhibit \
                 {max_threads}-thread speedup; the 3x bar applies on \
                 >= {max_threads}-core machines"
            ),
        )
    } else {
        (Some(3.0), format!("enforced on {cores} cores"))
    };
    let scaling_ok = match min_speedup {
        Some(bar) => results.last().map(|r| r.speedup >= bar).unwrap_or(false),
        None => true,
    };
    let invariant = results
        .iter()
        .all(|r| r.summaries_identical && r.counters_identical.unwrap_or(true));
    if !invariant {
        eprintln!("shard-count invariance violated — FAIL");
    }
    if !scaling_ok {
        eprintln!(
            "speedup at {max_threads} threads below the {}x bar — FAIL",
            min_speedup.unwrap()
        );
    }
    let pass = invariant && scaling_ok;

    let report = Report {
        quick,
        reps,
        swarms: swarms.len(),
        months,
        arrivals: run.total_arrivals(),
        toggles: run.total_toggles(),
        events: run.per_swarm.iter().map(|s| s.events).sum(),
        physical_cores: cores,
        thread_counts: thread_counts.to_vec(),
        results,
        min_speedup_at_max_threads: min_speedup,
        speedup_bar_note,
        pass,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("error: write {path}: {e}");
                return ExitCode::from(2);
            }
        }
        None => println!("{json}"),
    }
    if pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
