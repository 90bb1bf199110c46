//! `bt_idle` — wall-clock benchmark for the quiescence fast-forward on
//! long-horizon, mostly-unavailable swarms.
//!
//! ```text
//! bt_idle [--quick] [--reps N] [--out BENCH_bt_idle.json]
//! ```
//!
//! Three scenarios bracket the feature's envelope:
//!
//! * `high_unavailability` — the publisher seeds once for ~30 s and
//!   never returns; the sparse-arrival crowd converges on the seeded
//!   pieces and then idles, blocked, for the rest of a long horizon.
//!   Nearly every tick is a provable no-op; the fast-forward must win
//!   ≥ 10× wall-clock here (the quick smoke run uses a shorter horizon
//!   and a looser ≥ 5× bar).
//! * `mid_unavailability` — same crowd, but the publisher returns every
//!   ~3000 s; each reseeding burst breaks the quiescent stretch.
//!   Speedup must land strictly between the two extremes: the win
//!   grows with unavailability.
//! * `always_on` — a busy, always-seeded control where the detector
//!   almost never fires. Its per-tick disqualification checks may cost
//!   at most 2% over the dense loop (10% in quick mode, where the runs
//!   are short enough for scheduler noise to dominate).
//!
//! Every scenario also asserts that the elided run's serialized
//! `BtResult` is byte-for-byte identical to the dense run's, so the CI
//! smoke job doubles as an end-to-end equivalence check in release
//! mode. Dense and elided reps alternate within one loop — the
//! `obs_overhead marginal` pattern — so slow timing drift (scheduler,
//! frequency scaling) hits both arms alike and cancels out of the
//! min-over-min ratio; timed in back-to-back blocks, drift alone can
//! move the control past its 2% bar. Exits non-zero if any bar is
//! missed.

use serde::Serialize;
use std::process::ExitCode;
use std::time::Instant;
use swarm_bt::{run, BtConfig, BtPublisher};

const USAGE: &str = "usage: bt_idle [--quick] [--reps N] [--out FILE]";

struct Scenario {
    id: &'static str,
    description: &'static str,
    cfg: BtConfig,
    /// Lower bound on dense/elided wall-clock ratio, if any.
    min_speedup: Option<f64>,
    /// Upper bound on `elided/dense - 1`, if any (control scenarios).
    max_overhead: Option<f64>,
}

fn scenarios(quick: bool) -> Vec<Scenario> {
    vec![
        Scenario {
            id: "high_unavailability",
            description: "K=4, publisher seeds for ~30 s then never \
                          returns: sparse arrivals (1/300 s, PEX off) \
                          converge on the seeded pieces and the blocked \
                          crowd then idles for the rest of the horizon",
            cfg: BtConfig {
                arrival_rate: 1.0 / 300.0,
                publisher: BtPublisher::OnOff {
                    on_mean: 30.0,
                    off_mean: 1.0e9,
                    initially_on: true,
                },
                horizon: if quick { 60_000 } else { 300_000 },
                drain_ticks: 600,
                pex_interval: 0,
                ..BtConfig::paper_section_4_3(4, 7)
            },
            min_speedup: Some(if quick { 5.0 } else { 10.0 }),
            max_overhead: None,
        },
        Scenario {
            id: "mid_unavailability",
            description: "K=4, publisher on 30 s / off 3000 s (~99% off) \
                          but returning: quiescent stretches are broken \
                          by periodic reseeding bursts",
            cfg: BtConfig {
                arrival_rate: 1.0 / 300.0,
                publisher: BtPublisher::OnOff {
                    on_mean: 30.0,
                    off_mean: 3_000.0,
                    initially_on: true,
                },
                horizon: if quick { 30_000 } else { 100_000 },
                drain_ticks: 600,
                pex_interval: 0,
                ..BtConfig::paper_section_4_3(4, 7)
            },
            min_speedup: Some(if quick { 1.2 } else { 1.5 }),
            max_overhead: None,
        },
        Scenario {
            id: "always_on",
            description: "K=2, always-seeded busy swarm (detector control)",
            cfg: BtConfig {
                publisher: BtPublisher::AlwaysOn,
                horizon: if quick { 600 } else { 1_200 },
                drain_ticks: 300,
                ..BtConfig::paper_section_4_3(2, 7)
            },
            min_speedup: None,
            max_overhead: Some(if quick { 0.10 } else { 0.02 }),
        },
    ]
}

/// Min/median wall seconds of the dense and the elided config over
/// `reps` rounds (after one warmup of each), each round timing one run
/// of both.
fn time_interleaved(dense: &BtConfig, elided: &BtConfig, reps: usize) -> [(f64, f64); 2] {
    let arms = [dense, elided];
    for cfg in arms {
        std::hint::black_box(run(cfg));
    }
    let mut samples = [Vec::with_capacity(reps), Vec::with_capacity(reps)];
    for _ in 0..reps {
        for (cfg, arm) in arms.iter().zip(&mut samples) {
            let t0 = Instant::now();
            std::hint::black_box(run(cfg));
            arm.push(t0.elapsed().as_secs_f64());
        }
    }
    samples.map(|mut arm| {
        arm.sort_by(|a, b| a.total_cmp(b));
        (arm[0], arm[arm.len() / 2])
    })
}

#[derive(Debug, Serialize)]
struct ScenarioResult {
    id: &'static str,
    description: &'static str,
    horizon: u64,
    drain_ticks: u64,
    dense_min_s: f64,
    dense_median_s: f64,
    elided_min_s: f64,
    elided_median_s: f64,
    /// `dense_min_s / elided_min_s`.
    speedup: f64,
    /// Serialized `BtResult` equality between the dense and elided run.
    results_equal: bool,
    requirement: String,
    pass: bool,
}

fn run_scenario(s: &Scenario, reps: usize) -> ScenarioResult {
    let dense_cfg = BtConfig {
        disable_fast_forward: true,
        ..s.cfg.clone()
    };
    let dense_result = serde_json::to_string(&run(&dense_cfg)).expect("serialize dense");
    let elided_result = serde_json::to_string(&run(&s.cfg)).expect("serialize elided");
    let results_equal = dense_result == elided_result;

    let [(dense_min_s, dense_median_s), (elided_min_s, elided_median_s)] =
        time_interleaved(&dense_cfg, &s.cfg, reps);
    let speedup = dense_min_s / elided_min_s;
    let overhead = elided_min_s / dense_min_s - 1.0;

    let (requirement, bar_met) = match (s.min_speedup, s.max_overhead) {
        (Some(min), _) => (format!("speedup >= {min}x"), speedup >= min),
        (None, Some(max)) => (format!("overhead <= {:.0}%", max * 100.0), overhead <= max),
        (None, None) => ("record only".to_string(), true),
    };
    ScenarioResult {
        id: s.id,
        description: s.description,
        horizon: s.cfg.horizon,
        drain_ticks: s.cfg.drain_ticks,
        dense_min_s,
        dense_median_s,
        elided_min_s,
        elided_median_s,
        speedup,
        results_equal,
        requirement,
        pass: bar_met && results_equal,
    }
}

#[derive(Debug, Serialize)]
struct Report {
    quick: bool,
    reps: usize,
    scenarios: Vec<ScenarioResult>,
    /// Speedup must grow with publisher unavailability.
    speedup_monotone: bool,
    pass: bool,
}

fn main() -> ExitCode {
    let mut quick = false;
    let mut reps = 0usize;
    let mut out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--reps" => {
                let v = args.next().unwrap_or_default();
                match v.parse() {
                    Ok(n) => reps = n,
                    Err(_) => {
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
            other => {
                eprintln!("unknown argument: {other}\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    if reps == 0 {
        reps = if quick { 3 } else { 5 };
    }

    let results: Vec<ScenarioResult> = scenarios(quick)
        .iter()
        .map(|s| {
            let r = run_scenario(s, reps);
            eprintln!(
                "{:22} dense {:8.3}s  elided {:8.3}s  speedup {:6.2}x  \
                 results {}  [{}] — {}",
                r.id,
                r.dense_min_s,
                r.elided_min_s,
                r.speedup,
                if r.results_equal { "equal" } else { "DIVERGED" },
                r.requirement,
                if r.pass { "ok" } else { "FAIL" },
            );
            r
        })
        .collect();

    let high = results.iter().find(|r| r.id == "high_unavailability");
    let mid = results.iter().find(|r| r.id == "mid_unavailability");
    let speedup_monotone = match (high, mid) {
        (Some(h), Some(m)) => h.speedup > m.speedup,
        _ => false,
    };
    if !speedup_monotone {
        eprintln!("speedup does not grow with unavailability — FAIL");
    }
    let pass = speedup_monotone && results.iter().all(|r| r.pass);
    let report = Report {
        quick,
        reps,
        scenarios: results,
        speedup_monotone,
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
