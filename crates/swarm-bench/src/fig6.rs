//! E8/E9/E10 — Figure 6: download time vs bundling strategy.
//!
//! * (a) homogeneous 50 kB/s peers, one publisher alternating on 300 s /
//!   off 900 s — the experimental optimum is K = 4 and the eq. (16) model
//!   predicts K = 5 with the right trend (§4.3.1);
//! * (b) heterogeneous (BitTyrant) upload capacities — the optimum moves
//!   up, consistent with the higher average capacity;
//! * (c) heterogeneous per-file popularities λᵢ = 1/(8i) — bundling hurts
//!   the most popular file and helps the rest.
//!
//! The flow-level simulator (coverage threshold m = 9, the paper's fitted
//! value) is the primary experimental substrate; the block-level engine
//! runs alongside it at reduced scale. Its piece-extinction cascades make
//! large-K swarms less self-sustaining than the paper's real swarms, a
//! deviation documented in EXPERIMENTS.md.

use crate::output::{table2, Report};
use serde_json::json;
use swarm_bt::{replicate as bt_replicate, BtConfig, CapacityDistribution};
use swarm_core::params::{PublisherScaling, SwarmParams};
use swarm_core::threshold;
use swarm_sim::{replicate, Patience, PublisherProcess, ServiceModel, SimConfig};
use swarm_stats::ascii::{box_plot_row, line_chart, Series};
use swarm_stats::parallel::cores;

/// §4.3 base parameters as a model/flow-sim configuration.
pub fn fig6_params() -> SwarmParams {
    SwarmParams {
        lambda: 1.0 / 60.0,
        size: 4_000.0,
        mu: 50.0,
        r: 1.0 / 900.0,
        u: 300.0,
    }
}

fn flow_sim_download_time(k: u32, mu: f64, reps: usize, seed: u64) -> f64 {
    flow_sim_stats(k, mu, reps, seed).mean
}

/// Mean plus spread of the flow-level download times — Figure 6(a) plots
/// variance bars, and the paper reads their trend (huge for K = 1-2,
/// minimal at the optimum).
fn flow_sim_stats(k: u32, mu: f64, reps: usize, seed: u64) -> swarm_stats::BoxPlot {
    let kf = k as f64;
    let cfg = SimConfig {
        lambda: kf / 60.0,
        service: ServiceModel::Exponential {
            mean: kf * 4_000.0 / mu,
        },
        publisher: PublisherProcess::SingleOnOff {
            on_mean: 300.0,
            off_mean: 900.0,
            initially_on: true,
        },
        patience: Patience::Patient,
        linger_mean: None,
        coverage_threshold: 9,
        horizon: 150_000.0,
        warmup: 5_000.0,
        seed,
        record_timeline: false,
    };
    replicate(&cfg, reps, cores())
        .pooled
        .download_times
        .box_plot()
}

/// E8 — Figure 6(a).
pub fn fig6a(quick: bool) -> Report {
    let mut report = Report::new(
        "fig6a",
        "Mean download time vs K, homogeneous capacities (paper Figure 6(a))",
    );
    let ks: Vec<u32> = (1..=8).collect();
    let reps = if quick { 3 } else { 10 };
    let base = fig6_params();

    let mut flow = Vec::new();
    let mut model = Vec::new();
    let mut block = Vec::new();
    let mut spread = Vec::new();
    for &k in &ks {
        let stats = flow_sim_stats(k, 50.0, reps, 6000 + k as u64);
        flow.push((k as f64, stats.mean));
        spread.push(stats);
        let b = base.bundle(k, PublisherScaling::Fixed);
        model.push((k as f64, threshold::single_publisher_download_time(&b, 9)));
        let bt = bt_replicate(
            &BtConfig::paper_section_4_3(k, 6100 + k as u64),
            if quick { 2 } else { 6 },
            cores(),
        );
        block.push((k as f64, bt.mean_download_time()));
    }
    report.block(line_chart(
        "E[T] (s) vs K",
        &[
            Series::new("flow-level simulation (m=9)", flow.clone()),
            Series::new("model eq. (16)", model.clone()),
            Series::new("block-level engine", block.clone()),
        ],
        64,
        18,
    ));
    let argmin = |v: &[(f64, f64)]| {
        v.iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .expect("nonempty")
            .0 as u32
    };
    report.line(format!(
        "optimal K: flow-sim {} (paper experiment: 4), model {} (paper model: 5)",
        argmin(&flow),
        argmin(&model)
    ));
    // The paper reads the variance trend off the error bars: huge for
    // K = 1-2 (publisher downtime variance), small at and past the
    // optimum (self-sustaining swarms).
    for (k, b) in ks.iter().zip(&spread) {
        report.line(format!(
            "  K={k}: mean {:>5.0} s, IQR [{:>5.0}, {:>5.0}], p95 {:>5.0}",
            b.mean, b.q1, b.q3, b.p95
        ));
    }
    report.set_data(json!({
        "flow": flow, "model": model, "block": block,
        "spread": spread,
        "k_opt_flow": argmin(&flow), "k_opt_model": argmin(&model),
    }));
    report
}

/// E9 — Figure 6(b): BitTyrant capacities.
pub fn fig6b(quick: bool) -> Report {
    let mut report = Report::new(
        "fig6b",
        "Mean download time vs K, heterogeneous capacities (paper Figure 6(b))",
    );
    let ks: Vec<u32> = (1..=8).collect();
    let reps = if quick { 3 } else { 10 };
    // The effective per-peer rate is NOT the raw mean upload (280 kB/s):
    // receivers cap what the fast tail can deliver. With 2008-era DSL
    // downlinks (~250 kB/s = 2 Mbps), μ_eff = E[min(upload, downlink)]
    // ≈ 112 kB/s — higher than 6(a)'s 50, as the paper reasons, which is
    // what pushes the optimal bundle size up.
    const DOWNLINK: f64 = 250.0;
    let mu_eff = CapacityDistribution::BitTyrant.mean_capped(DOWNLINK);
    let mut flow = Vec::new();
    let mut model = Vec::new();
    let mut block = Vec::new();
    for &k in &ks {
        flow.push((
            k as f64,
            flow_sim_download_time(k, mu_eff, reps, 6200 + k as u64),
        ));
        let b = SwarmParams {
            mu: mu_eff,
            ..fig6_params()
        }
        .bundle(k, PublisherScaling::Fixed);
        model.push((k as f64, threshold::single_publisher_download_time(&b, 9)));
        let cfg = BtConfig {
            peer_capacity: CapacityDistribution::BitTyrant,
            download_cap: DOWNLINK,
            ..BtConfig::paper_section_4_3(k, 6300 + k as u64)
        };
        let bt = bt_replicate(&cfg, if quick { 2 } else { 6 }, cores());
        block.push((k as f64, bt.mean_download_time()));
    }
    report.block(line_chart(
        "E[T] (s) vs K (BitTyrant uploads, 250 kB/s downlinks; mu_eff = E[min(up, down)])",
        &[
            Series::new("flow-level simulation (m=9)", flow.clone()),
            Series::new("model eq. (16)", model.clone()),
            Series::new("block-level engine", block.clone()),
        ],
        64,
        18,
    ));
    let argmin = |v: &[(f64, f64)]| {
        v.iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .expect("nonempty")
            .0 as u32
    };
    report.line(format!(
        "optimal K: flow-sim {} (paper: 5 — larger than 6(a)'s 4 because capacity rose)",
        argmin(&flow)
    ));
    report.set_data(json!({
        "flow": flow, "model": model, "block": block,
        "k_opt_flow": argmin(&flow),
        "mu_eff": mu_eff,
    }));
    report
}

/// E10 — Figure 6(c): heterogeneous popularities λᵢ = 1/(8i).
pub fn fig6c(quick: bool) -> Report {
    let mut report = Report::new(
        "fig6c",
        "Download time with heterogeneous popularities (paper Figure 6(c))",
    );
    let reps = if quick { 3 } else { 10 };
    let mut rows = Vec::new();
    let mut data = Vec::new();
    let mut all_boxes = Vec::new();

    // Experiments 1-4: individual files with λᵢ = 1/(8i) peers/s. The
    // coverage threshold scales with content size (fewer peers suffice to
    // cover a single 4 MB file than a 16 MB bundle): m = ceil(9·s/S) = 3.
    for i in 1..=4u32 {
        let lambda = 1.0 / (8.0 * i as f64);
        let cfg = SimConfig {
            lambda,
            service: ServiceModel::Exponential { mean: 80.0 },
            publisher: PublisherProcess::SingleOnOff {
                on_mean: 300.0,
                off_mean: 900.0,
                initially_on: true,
            },
            patience: Patience::Patient,
            linger_mean: None,
            coverage_threshold: 3,
            horizon: 100_000.0,
            warmup: 5_000.0,
            seed: 6400 + i as u64,
            record_timeline: false,
        };
        let mut rep = replicate(&cfg, reps, cores());
        let b = rep.pooled.download_times.box_plot();
        all_boxes.push((format!("file {i}"), b));
        data.push(json!({ "experiment": i, "lambda": lambda, "mean": b.mean, "box": b }));
    }

    // Experiment 5: the bundle of all four files (λ = Σ = 1/3.84).
    let lambda_bundle = (1..=4).map(|i| 1.0 / (8.0 * i as f64)).sum::<f64>();
    let cfg = SimConfig {
        lambda: lambda_bundle,
        service: ServiceModel::Exponential { mean: 320.0 },
        publisher: PublisherProcess::SingleOnOff {
            on_mean: 300.0,
            off_mean: 900.0,
            initially_on: true,
        },
        patience: Patience::Patient,
        linger_mean: None,
        coverage_threshold: 9,
        horizon: 100_000.0,
        warmup: 5_000.0,
        seed: 6405,
        record_timeline: false,
    };
    let mut rep = replicate(&cfg, reps, cores());
    let b = rep.pooled.download_times.box_plot();
    all_boxes.push(("bundle".to_string(), b));
    data.push(json!({ "experiment": 5, "lambda": lambda_bundle, "mean": b.mean, "box": b }));

    let hi = all_boxes.iter().map(|x| x.1.p95).fold(0.0f64, f64::max) * 1.05;
    for (label, bx) in &all_boxes {
        rows.push(box_plot_row(label, bx, 0.0, hi, 60));
    }
    report.line("quartile boxes with 5th/95th percentile whiskers (x: download time, s):");
    for r in rows {
        report.block(r);
    }
    report.line("paper: bundle mean 405 s — above file 1 alone (329 s) but below files 2-4 alone.");
    report.block(table2(
        ("experiment", "mean download time (s)"),
        &all_boxes
            .iter()
            .map(|(l, b)| (l.clone(), format!("{:.0}", b.mean)))
            .collect::<Vec<_>>(),
    ));
    report.set_data(json!({ "experiments": data }));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6a_flow_sim_matches_paper_shape() {
        let r = fig6a(true);
        let k_opt = r.data["k_opt_flow"].as_u64().unwrap();
        assert!(
            (3..=5).contains(&k_opt),
            "flow-sim optimum {k_opt} should be near the paper's 4"
        );
        let k_model = r.data["k_opt_model"].as_u64().unwrap();
        assert!(
            (3..=6).contains(&k_model),
            "model optimum {k_model} should be near the paper's 5"
        );
        // K=1 wait-dominated vs optimum.
        let flow: Vec<(f64, f64)> = serde_json::from_value(r.data["flow"].clone()).unwrap();
        let t1 = flow[0].1;
        let topt = flow[(k_opt - 1) as usize].1;
        assert!(t1 > 1.8 * topt, "K=1 {t1} must dwarf optimum {topt}");
        // Past the optimum the curve rises.
        assert!(flow[7].1 > topt);
    }

    #[test]
    fn fig6b_optimum_at_least_fig6a() {
        let a = fig6a(true);
        let b = fig6b(true);
        let ka = a.data["k_opt_flow"].as_u64().unwrap();
        let kb = b.data["k_opt_flow"].as_u64().unwrap();
        assert!(
            kb >= ka,
            "higher capacity needs bigger bundles: 6(b) {kb} vs 6(a) {ka}"
        );
    }

    #[test]
    fn fig6c_bundle_helps_unpopular_files() {
        let r = fig6c(true);
        let exps = r.data["experiments"].as_array().unwrap();
        let mean = |i: usize| exps[i]["mean"].as_f64().unwrap();
        // The popular file sees times far below the unpopular ones.
        assert!(
            mean(3) > 1.5 * mean(0),
            "file4 {} vs file1 {}",
            mean(3),
            mean(0)
        );
        // The bundle beats every unpopular file alone...
        let bundle = mean(4);
        for i in 1..=3 {
            assert!(
                bundle < mean(i),
                "bundle {bundle} vs file{} {}",
                i + 1,
                mean(i)
            );
        }
        // ...while being roughly neutral for the most popular file (the
        // paper reports a slight loss, 405 vs 329 s; our flow-level runs
        // put the two within noise of each other).
        assert!(
            (bundle - mean(0)).abs() / mean(0) < 0.35,
            "bundle {bundle} vs file1 {} should be comparable",
            mean(0)
        );
    }
}
