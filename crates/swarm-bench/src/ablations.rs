//! A1–A6 — ablations over the design choices DESIGN.md calls out.

use crate::fig6::fig6_params;
use crate::output::{table2, Report};
use serde_json::json;
use swarm_core::baseline::FluidParams;
use swarm_core::bundling::{optimal_bundle_size, sweep_single_publisher};
use swarm_core::params::{PublisherScaling, SwarmParams};
use swarm_core::{asymptotic, impatient, lingering, patient, threshold, zipf::ZipfProfile};
use swarm_sim::{replicate, Patience, PublisherProcess, ServiceModel, SimConfig};
use swarm_stats::parallel::cores;

/// A1 — coverage-threshold sensitivity: how m moves B(m) and the optimal
/// bundle size.
pub fn threshold_sensitivity(_quick: bool) -> Report {
    let mut report = Report::new(
        "ablation-threshold",
        "Coverage threshold m: sensitivity of B(m) and the optimal K",
    );
    let base = fig6_params();
    let ks: Vec<u32> = (1..=10).collect();
    let mut rows = Vec::new();
    let mut data = Vec::new();
    for m in [1u64, 3, 6, 9, 15] {
        let pts = sweep_single_publisher(&base, PublisherScaling::Fixed, m, &ks);
        let best = pts
            .iter()
            .min_by(|a, b| {
                a.download_time
                    .partial_cmp(&b.download_time)
                    .expect("finite")
            })
            .expect("nonempty");
        let bm4 = threshold::residual_busy_period(&base.bundle(4, PublisherScaling::Fixed), m);
        rows.push((
            format!("m={m}"),
            format!(
                "optimal K = {} (E[T] = {:.0} s), B(m) at K=4: {:.0} s",
                best.k, best.download_time, bm4
            ),
        ));
        data.push(json!({ "m": m, "k_opt": best.k, "t_opt": best.download_time, "bm_k4": bm4 }));
    }
    report.block(table2(("threshold", "effect"), &rows));
    report.line("a stricter coverage requirement (larger m) pushes the optimal bundle size up.");
    report.set_data(json!({ "rows": data }));
    report
}

/// A2 — lingering vs bundling: the eq. (15) equivalence.
pub fn lingering_ablation(_quick: bool) -> Report {
    let mut report = Report::new(
        "ablation-lingering",
        "Altruistic lingering vs bundling (paper §3.3.4, eq. 15)",
    );
    // Small unpopular file 1 + large popular file 2.
    let (mu, s1, s2) = (50.0, 1_000.0, 40_000.0);
    let (l1, l2) = (1.0 / 2_000.0, 1.0 / 20.0);
    let (residence, linger) = lingering::equivalent_lingering(l1, s1, l2, s2, mu);
    report.line(format!(
        "to match the bundle's availability, swarm-1 peers must stay {residence:.0} s \
         ({linger:.0} s of lingering) vs a bundle download of {:.0} s",
        (s1 + s2) / mu
    ));

    // Model sweep: availability of the small swarm vs lingering time.
    let small = SwarmParams {
        lambda: l1,
        size: s1,
        mu,
        r: 1.0 / 5_000.0,
        u: 100.0,
    };
    let mut rows = Vec::new();
    let mut avail = Vec::new();
    for linger_s in [1.0, 100.0, 1_000.0, 10_000.0] {
        let p = lingering::unavailability(&small, 1.0 / linger_s);
        rows.push((
            format!("linger {linger_s:>6.0} s"),
            format!("unavailability {p:.4}"),
        ));
        avail.push(json!({ "linger": linger_s, "unavailability": p }));
    }
    report.block(table2(("lingering", "availability"), &rows));
    report.line("lingering buys availability, but matching a bundle requires staying orders of magnitude longer than the bundle download itself.");
    report.set_data(json!({
        "required_residence": residence,
        "required_linger": linger,
        "bundle_download": (s1 + s2) / mu,
        "sweep": avail,
    }));
    report
}

/// A3 — Zipf demand: does the e^Θ(K²) law survive skew?
pub fn zipf_ablation(_quick: bool) -> Report {
    let mut report = Report::new(
        "ablation-zipf",
        "Zipf per-file demand: Lemma 3.1 under skew (paper §3.3.1)",
    );
    let per_file = fig6_params();
    let mut rows = Vec::new();
    let mut data = Vec::new();
    for delta in [0.0, 0.5, 1.0, 2.0] {
        // Bundle of K files whose aggregate demand follows a Zipf profile
        // over a catalog of K·λ̄ total demand.
        let pts: Vec<(f64, f64)> = (1..=6u32)
            .map(|k| {
                let profile = ZipfProfile::new(k, delta);
                let rates = profile.rates(per_file.lambda * k as f64);
                let aggregate: f64 = rates.iter().sum();
                let bundle = SwarmParams {
                    lambda: aggregate,
                    size: per_file.size * k as f64,
                    ..per_file
                };
                (k as f64, impatient::ln_mean_peers_served(&bundle))
            })
            .collect();
        let fit = asymptotic::fit_k_squared(&pts);
        rows.push((
            format!("delta={delta}"),
            format!("ln E[N] ~ {:.3}·K², r² = {:.4}", fit.slope, fit.r2),
        ));
        data.push(json!({ "delta": delta, "slope": fit.slope, "r2": fit.r2 }));
    }
    report.block(table2(("skew", "quadratic fit"), &rows));
    report.line("the quadratic law holds at every skew (aggregate demand is what matters).");
    report.set_data(json!({ "fits": data }));
    report
}

/// A4 — publisher scaling: R fixed vs R = Kr vs R = r·e^{−cK²}.
pub fn publisher_ablation(_quick: bool) -> Report {
    let mut report = Report::new(
        "ablation-publisher",
        "Publisher scaling under bundling (Theorem 3.1 and its robustness remark)",
    );
    let base = fig6_params();
    let mut rows = Vec::new();
    let mut data = Vec::new();
    for k in [1u32, 2, 4, 6] {
        let fixed = impatient::ln_unavailability(&base.bundle(k, PublisherScaling::Fixed));
        let prop = impatient::ln_unavailability(&base.bundle(k, PublisherScaling::Proportional));
        let kf = k as f64;
        let shrunk = impatient::ln_unavailability(&base.bundle(
            k,
            PublisherScaling::Custom {
                r: base.r * (-0.05 * kf * kf).exp(),
                u: base.u,
            },
        ));
        rows.push((
            format!("K={k}"),
            format!("ln P: fixed {fixed:.1}, proportional {prop:.1}, shrinking-R {shrunk:.1}"),
        ));
        data.push(json!({ "k": k, "fixed": fixed, "proportional": prop, "shrinking": shrunk }));
    }
    report.block(table2(("bundle", "ln unavailability"), &rows));
    report.line(
        "unavailability collapses with K under every scaling — even when the \
         bundle's publisher arrival rate shrinks as e^(-cK²) (the paper's \
         robustness remark).",
    );
    report.set_data(json!({ "rows": data }));
    report
}

/// A5 — the naive fluid baseline vs the availability model.
pub fn baseline_ablation(_quick: bool) -> Report {
    let mut report = Report::new(
        "ablation-baseline",
        "Naive fluid model vs the availability model (Related Work contrast)",
    );
    // A rare publisher: the availability model sees a bundling optimum,
    // the fluid model cannot.
    let file = SwarmParams {
        lambda: 1.0 / 60.0,
        size: 4_000.0,
        mu: 50.0,
        r: 1.0 / 5_000.0,
        u: 300.0,
    };
    let fluid = FluidParams {
        size: file.size,
        upload: file.mu,
        download_cap: 4_000.0,
        eta: 1.0,
        seed_departure: 1.0 / 30.0,
    };
    let mut rows = Vec::new();
    let mut data = Vec::new();
    for k in 1..=8u32 {
        let b = file.bundle(k, PublisherScaling::Fixed);
        let t_avail = patient::download_time(&b);
        let t_fluid = fluid.bundle_download_time(k);
        rows.push((
            format!("K={k}"),
            format!("availability model {t_avail:>7.0} s | fluid baseline {t_fluid:>6.0} s"),
        ));
        data.push(json!({ "k": k, "availability_model": t_avail, "fluid": t_fluid }));
    }
    report.block(table2(("bundle", "mean download time"), &rows));
    let (k_opt, _) = optimal_bundle_size(&file, PublisherScaling::Fixed, 8);
    report.line(format!(
        "the availability model finds an interior optimum (K = {k_opt}); the fluid \
         baseline grows strictly linearly and would never bundle."
    ));
    report.set_data(json!({ "rows": data, "k_opt_availability": k_opt }));
    report
}

/// A6 — service-model ablation: exponential vs capacity-shared fluid
/// service in the flow simulator.
pub fn service_ablation(quick: bool) -> Report {
    let mut report = Report::new(
        "ablation-service",
        "Service model: exponential vs capacity-shared fluid (conclusions survive)",
    );
    let reps = if quick { 2 } else { 6 };
    let mut rows = Vec::new();
    let mut data = Vec::new();
    for k in [1u32, 4] {
        let kf = k as f64;
        let mk = |service| SimConfig {
            lambda: kf / 60.0,
            service,
            publisher: PublisherProcess::SingleOnOff {
                on_mean: 300.0,
                off_mean: 900.0,
                initially_on: true,
            },
            patience: Patience::Patient,
            linger_mean: None,
            coverage_threshold: 9,
            horizon: 60_000.0,
            warmup: 3_000.0,
            seed: 9000 + k as u64,
            record_timeline: false,
        };
        let exp = replicate(
            &mk(ServiceModel::Exponential { mean: 80.0 * kf }),
            reps,
            cores(),
        );
        let fluid = replicate(
            &mk(ServiceModel::Fluid {
                size: 4_000.0 * kf,
                peer_upload: 50.0,
                publisher_upload: 100.0,
                download_cap: 4_000.0,
            }),
            reps,
            cores(),
        );
        rows.push((
            format!("K={k}"),
            format!(
                "exponential {:.0} s | fluid {:.0} s",
                exp.pooled.mean_download_time(),
                fluid.pooled.mean_download_time()
            ),
        ));
        data.push(json!({
            "k": k,
            "exponential": exp.pooled.mean_download_time(),
            "fluid": fluid.pooled.mean_download_time(),
        }));
    }
    report.block(table2(("bundle", "mean download time"), &rows));
    report.line("both service models agree: K=4 beats K=1 under the intermittent publisher.");
    report.set_data(json!({ "rows": data }));
    report
}

/// A7 — trace-driven arrivals (paper §4.3.4): replaying bursty measured
/// patterns instead of Poisson arrivals does not change the conclusions.
pub fn trace_ablation(quick: bool) -> Report {
    let mut report = Report::new(
        "ablation-trace",
        "Trace-driven arrivals vs Poisson (paper §4.3.4)",
    );
    use rand::SeedableRng;
    let reps = if quick { 3 } else { 6 };
    let horizon = 100_000.0;
    let mut rows = Vec::new();
    let mut data = Vec::new();
    for k in [1u32, 4] {
        let kf = k as f64;
        let cfg = SimConfig {
            lambda: kf / 60.0,
            service: ServiceModel::Exponential { mean: 80.0 * kf },
            publisher: PublisherProcess::SingleOnOff {
                on_mean: 300.0,
                off_mean: 900.0,
                initially_on: true,
            },
            patience: Patience::Patient,
            linger_mean: None,
            coverage_threshold: 9,
            horizon,
            warmup: 5_000.0,
            seed: 9100 + k as u64,
            record_timeline: false,
        };
        // Poisson baseline.
        let poisson = replicate(&cfg, reps, cores()).pooled.mean_download_time();
        // Trace-driven: a decaying "old swarm settling" pattern with the
        // same long-run mean rate, bootstrap-replicated per run.
        let mut t_sum = 0.0;
        for rep in 0..reps {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9200 + rep as u64 + k as u64);
            let base = swarm_queue::arrivals::nonhomogeneous_poisson(
                |t| (kf / 60.0) * (0.6 + 0.8 * (-t / 30_000.0).exp()),
                kf / 60.0 * 1.4,
                horizon,
                &mut rng,
            );
            let resampled = swarm_sim::trace::resample_interarrivals(&base, &mut rng);
            let c = SimConfig {
                seed: cfg.seed + rep as u64,
                ..cfg
            };
            t_sum += swarm_sim::run_trace(&c, &resampled).mean_download_time();
        }
        let traced = t_sum / reps as f64;
        rows.push((
            format!("K={k}"),
            format!("Poisson {poisson:.0} s | trace-driven {traced:.0} s"),
        ));
        data.push(json!({ "k": k, "poisson": poisson, "trace": traced }));
    }
    report.block(table2(("bundle", "mean download time"), &rows));
    report
        .line("the K=4 bundle beats K=1 under both arrival models (the paper's robustness check).");
    report.set_data(json!({ "rows": data }));
    report
}

/// A8 — piece selection and super-seeding in the block engine: how fast
/// does the full content get injected into the peer population?
pub fn selection_ablation(_quick: bool) -> Report {
    let mut report = Report::new(
        "ablation-selection",
        "Piece selection and super-seeding: unique-piece injection speed",
    );
    use swarm_bt::config::PieceSelection;
    use swarm_bt::{run as bt_run, BtConfig, BtPublisher};
    // Full-coverage ticks have a seed-to-seed spread of several hundred
    // seconds; 3 seeds was not enough to keep the super-seeding ordering
    // out of the Monte-Carlo noise, so quick mode averages 6 too (the
    // incremental engine made the extra runs cheap).
    let seeds: u64 = 6;
    let coverage_tick = |super_seed: bool, selection: PieceSelection| -> f64 {
        (0..seeds)
            .map(|s| {
                let cfg = BtConfig {
                    publisher: BtPublisher::AlwaysOn,
                    super_seed,
                    piece_selection: selection,
                    record_timeline: true,
                    horizon: 2_000,
                    drain_ticks: 0,
                    ..BtConfig::paper_section_4_2(6, 9300 + s)
                };
                let r = bt_run(&cfg);
                let full = cfg.num_pieces();
                r.peer_coverage_curve
                    .iter()
                    .find(|&&(_, c)| c == full)
                    .map(|&(t, _)| t as f64)
                    .unwrap_or(2_000.0)
            })
            .sum::<f64>()
            / seeds as f64
    };
    let rarest = coverage_tick(false, PieceSelection::RarestFirst);
    let rarest_ss = coverage_tick(true, PieceSelection::RarestFirst);
    let random = coverage_tick(false, PieceSelection::Random);
    let random_ss = coverage_tick(true, PieceSelection::Random);
    let in_order = coverage_tick(false, PieceSelection::InOrder);
    report.block(table2(
        ("policy", "mean tick of full peer coverage (K=6 seedless)"),
        &[
            ("rarest-first".into(), format!("{rarest:.0} s")),
            ("rarest + superseed".into(), format!("{rarest_ss:.0} s")),
            ("random".into(), format!("{random:.0} s")),
            ("random + superseed".into(), format!("{random_ss:.0} s")),
            ("in-order (streaming)".into(), format!("{in_order:.0} s")),
        ],
    ));
    report.line(
        "rarest-first already injects near-optimally (Legout et al.'s \
         'rarest-first is enough'); super-seeding only pays when the \
         downloaders' selection is impaired.",
    );
    report.set_data(json!({
        "rarest": rarest, "rarest_super": rarest_ss,
        "random": random, "random_super": random_ss,
        "in_order": in_order,
    }));
    report
}

/// A9 — observation bias in the measurement study: imperfect peer
/// discovery shifts the Figure 1 CDF but preserves its shape.
pub fn bias_ablation(quick: bool) -> Report {
    let mut report = Report::new(
        "ablation-bias",
        "Monitoring-agent observation bias (measurement methodology)",
    );
    use rand::SeedableRng;
    use swarm_catalog::{bias_study, Observer};
    use swarm_measurement::{generate_catalog, CatalogConfig};
    let scale = if quick { 0.001 } else { 0.004 };
    let catalog = generate_catalog(&CatalogConfig { scale, seed: 9400 });
    let mut rows = Vec::new();
    let mut data = Vec::new();
    for det in [1.0, 0.9, 0.7, 0.5] {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9401);
        let study = bias_study(&catalog, 3, Observer::new(det), &mut rng);
        rows.push((
            format!("detection {det}"),
            format!(
                "KS bias {:.3}, mean availability shift -{:.3}, \
                 measured P(avail<=0.2) {:.2} (true {:.2})",
                study.ks_bias(),
                study.mean_shift(),
                study.measured_cdf.eval(0.2),
                study.true_cdf.eval(0.2),
            ),
        ));
        data.push(json!({
            "detection": det,
            "ks_bias": study.ks_bias(),
            "mean_shift": study.mean_shift(),
            "measured_mostly_off": study.measured_cdf.eval(0.2),
            "true_mostly_off": study.true_cdf.eval(0.2),
        }));
    }
    report.block(table2(("observer", "bias"), &rows));
    report.line("imperfect discovery biases availability downward but never flips the 'mostly unavailable' conclusion.");
    report.set_data(json!({ "rows": data }));
    report
}

/// A10 — mixed vs pure bundling (paper §5): the take-rate spectrum.
pub fn mixed_ablation(_quick: bool) -> Report {
    let mut report = Report::new(
        "ablation-mixed",
        "Mixed vs pure bundling: the take-rate spectrum (paper §5)",
    );
    use swarm_core::mixed::{mixed_bundling, FileSpec};
    let files = vec![
        FileSpec {
            lambda: 1.0 / 5.0,
            size: 4_000.0,
        }, // the hit
        FileSpec {
            lambda: 1.0 / 600.0,
            size: 4_000.0,
        }, // niche
        FileSpec {
            lambda: 1.0 / 1_200.0,
            size: 4_000.0,
        },
    ];
    let (mu, r, u) = (50.0, 1.0 / 5_000.0, 300.0);
    let mut rows = Vec::new();
    let mut data = Vec::new();
    for phi in [0.0, 0.05, 0.1, 0.25, 0.5, 1.0] {
        let o = mixed_bundling(&files, mu, r, u, phi);
        rows.push((
            format!("phi={phi}"),
            format!(
                "P(hit) {:.5} | P(niche) {:.4} | bundle E[T] {:.0} s",
                o.files[0].unavailability,
                o.files[2].unavailability,
                o.files[0].bundle_download_time
            ),
        ));
        data.push(json!({
            "phi": phi,
            "p_hit": o.files[0].unavailability,
            "p_niche": o.files[2].unavailability,
            "bundle_t": o.files[0].bundle_download_time,
        }));
    }
    report.block(table2(("take rate", "outcome"), &rows));
    report.line(
        "even a 5-10% take rate slashes niche-file unavailability — the \
         paper's 'even a small fraction of users opting to download more \
         content... can significantly improve availability.'",
    );
    report.set_data(json!({ "rows": data }));
    report
}

/// A11 — catalog partitioning (the §5 open question): how much does
/// optimizing bundle *composition* buy over naive strategies?
pub fn partition_ablation(_quick: bool) -> Report {
    let mut report = Report::new(
        "ablation-partition",
        "Optimal bundle composition over a heterogeneous catalog (paper §5 open question)",
    );
    use swarm_core::partition::{
        evaluate_partition, greedy_partition, local_search, CatalogFile, Environment,
    };
    let files: Vec<CatalogFile> = vec![
        CatalogFile {
            lambda: 1.0 / 8.0,
            size: 4_000.0,
        },
        CatalogFile {
            lambda: 1.0 / 12.0,
            size: 4_000.0,
        },
        CatalogFile {
            lambda: 1.0 / 40.0,
            size: 4_000.0,
        },
        CatalogFile {
            lambda: 1.0 / 90.0,
            size: 4_000.0,
        },
        CatalogFile {
            lambda: 1.0 / 150.0,
            size: 4_000.0,
        },
        CatalogFile {
            lambda: 1.0 / 300.0,
            size: 2_000.0,
        },
        CatalogFile {
            lambda: 1.0 / 600.0,
            size: 2_000.0,
        },
        CatalogFile {
            lambda: 1.0 / 900.0,
            size: 2_000.0,
        },
    ];
    let env = Environment {
        mu: 50.0,
        r: 1.0 / 20_000.0,
        u: 300.0,
    };
    let singletons: Vec<Vec<usize>> = (0..files.len()).map(|i| vec![i]).collect();
    let giant: Vec<Vec<usize>> = vec![(0..files.len()).collect()];
    let t_single = evaluate_partition(&files, &singletons, env);
    let t_giant = evaluate_partition(&files, &giant, env);
    let greedy = greedy_partition(&files, env);
    let t_greedy = evaluate_partition(&files, &greedy, env);
    let (refined, t_refined) = local_search(&files, greedy.clone(), env, 100);
    report.block(table2(
        ("strategy", "demand-weighted E[T] (s)"),
        &[
            ("all singletons".into(), format!("{t_single:.0}")),
            ("one giant bundle".into(), format!("{t_giant:.0}")),
            ("greedy merges".into(), format!("{t_greedy:.0}")),
            ("greedy + local search".into(), format!("{t_refined:.0}")),
        ],
    ));
    report.line(format!(
        "recommended plan: {refined:?} — hits stay lean, the long tail pools \
         enough demand to self-sustain."
    ));
    report.set_data(json!({
        "singletons": t_single,
        "giant": t_giant,
        "greedy": t_greedy,
        "refined": t_refined,
        "plan": refined,
    }));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a1_optimal_k_nondecreasing_in_m() {
        let r = threshold_sensitivity(true);
        let rows = r.data["rows"].as_array().unwrap();
        let kopts: Vec<u64> = rows.iter().map(|x| x["k_opt"].as_u64().unwrap()).collect();
        assert!(kopts.windows(2).all(|w| w[0] <= w[1]), "{kopts:?}");
        // B(m) falls as m rises.
        let bms: Vec<f64> = rows.iter().map(|x| x["bm_k4"].as_f64().unwrap()).collect();
        assert!(bms.windows(2).all(|w| w[0] >= w[1]), "{bms:?}");
    }

    #[test]
    fn a2_lingering_requirement_dwarfs_bundle_download() {
        let r = lingering_ablation(true);
        let need = r.data["required_residence"].as_f64().unwrap();
        let bundle = r.data["bundle_download"].as_f64().unwrap();
        assert!(need > 20.0 * bundle, "need {need} vs bundle {bundle}");
        // Unavailability falls monotonically with lingering.
        let sweep = r.data["sweep"].as_array().unwrap();
        let ps: Vec<f64> = sweep
            .iter()
            .map(|x| x["unavailability"].as_f64().unwrap())
            .collect();
        assert!(ps.windows(2).all(|w| w[0] >= w[1]), "{ps:?}");
    }

    #[test]
    fn a3_quadratic_fit_survives_skew() {
        let r = zipf_ablation(true);
        for fit in r.data["fits"].as_array().unwrap() {
            assert!(fit["r2"].as_f64().unwrap() > 0.98, "{fit}");
            assert!(fit["slope"].as_f64().unwrap() > 0.0);
        }
    }

    #[test]
    fn a4_unavailability_collapses_under_all_scalings() {
        let r = publisher_ablation(true);
        let rows = r.data["rows"].as_array().unwrap();
        for key in ["fixed", "proportional", "shrinking"] {
            let lnp: Vec<f64> = rows.iter().map(|x| x[key].as_f64().unwrap()).collect();
            assert!(
                lnp.windows(2).all(|w| w[1] <= w[0] + 1e-9),
                "{key}: {lnp:?}"
            );
            assert!(lnp.last().unwrap() < &-8.0, "{key} must collapse: {lnp:?}");
        }
    }

    #[test]
    fn a5_fluid_never_finds_the_optimum() {
        let r = baseline_ablation(true);
        let rows = r.data["rows"].as_array().unwrap();
        let fluid: Vec<f64> = rows.iter().map(|x| x["fluid"].as_f64().unwrap()).collect();
        assert!(
            fluid.windows(2).all(|w| w[1] > w[0]),
            "fluid strictly increasing"
        );
        let avail: Vec<f64> = rows
            .iter()
            .map(|x| x["availability_model"].as_f64().unwrap())
            .collect();
        let min_idx = avail
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!(
            min_idx > 0,
            "availability model must have an interior optimum"
        );
    }

    #[test]
    fn a7_trace_driven_preserves_bundling_gain() {
        let r = trace_ablation(true);
        let rows = r.data["rows"].as_array().unwrap();
        for key in ["poisson", "trace"] {
            let t1 = rows[0][key].as_f64().unwrap();
            let t4 = rows[1][key].as_f64().unwrap();
            assert!(t4 < t1, "{key}: K=4 {t4} must beat K=1 {t1}");
        }
    }

    #[test]
    fn a8_rarest_first_is_enough() {
        let r = selection_ablation(true);
        let rarest = r.data["rarest"].as_f64().unwrap();
        let random = r.data["random"].as_f64().unwrap();
        let random_ss = r.data["random_super"].as_f64().unwrap();
        let in_order = r.data["in_order"].as_f64().unwrap();
        assert!(rarest < random, "rarest {rarest} vs random {random}");
        assert!(
            random_ss < random,
            "superseed {random_ss} vs random {random}"
        );
        // Streaming-style pickup is the worst for coverage.
        assert!(in_order >= random, "in-order {in_order} vs random {random}");
    }

    #[test]
    fn a9_bias_is_downward_and_bounded() {
        let r = bias_ablation(true);
        let rows = r.data["rows"].as_array().unwrap();
        let mut prev_shift = -1e-9;
        for row in rows {
            let shift = row["mean_shift"].as_f64().unwrap();
            assert!(
                shift >= prev_shift - 0.02,
                "bias should grow as detection falls"
            );
            prev_shift = shift;
            // The conclusion survives: measured mostly-off >= true.
            assert!(
                row["measured_mostly_off"].as_f64().unwrap()
                    >= row["true_mostly_off"].as_f64().unwrap() - 1e-9
            );
        }
    }

    #[test]
    fn a10_take_rate_slashes_niche_unavailability() {
        let r = mixed_ablation(true);
        let rows = r.data["rows"].as_array().unwrap();
        let p0 = rows[0]["p_niche"].as_f64().unwrap();
        let p10 = rows[2]["p_niche"].as_f64().unwrap(); // phi = 0.1
        assert!(p10 < 0.5 * p0, "phi=0.1 niche {p10} vs none {p0}");
        // Monotone decreasing in phi.
        let ps: Vec<f64> = rows
            .iter()
            .map(|x| x["p_niche"].as_f64().unwrap())
            .collect();
        assert!(ps.windows(2).all(|w| w[1] <= w[0] + 1e-12), "{ps:?}");
    }

    #[test]
    fn a11_optimized_partition_beats_naive_strategies() {
        let r = partition_ablation(true);
        let single = r.data["singletons"].as_f64().unwrap();
        let giant = r.data["giant"].as_f64().unwrap();
        let refined = r.data["refined"].as_f64().unwrap();
        assert!(
            refined <= giant + 1e-9,
            "optimizer must not lose to the giant bundle"
        );
        assert!(refined < single, "optimizer must beat no-bundling");
    }

    #[test]
    fn a6_bundling_wins_under_both_service_models() {
        let r = service_ablation(true);
        let rows = r.data["rows"].as_array().unwrap();
        for key in ["exponential", "fluid"] {
            let t1 = rows[0][key].as_f64().unwrap();
            let t4 = rows[1][key].as_f64().unwrap();
            assert!(t4 < t1, "{key}: K=4 {t4} must beat K=1 {t1}");
        }
    }
}
