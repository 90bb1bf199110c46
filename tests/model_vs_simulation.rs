//! Cross-crate integration: the analytic model (swarm-core) must predict
//! what the flow-level simulator (swarm-sim) measures, across the model
//! variants of §3.

use swarm_stats::parallel::cores;
use swarmsys::model::params::{PublisherScaling, SwarmParams};
use swarmsys::model::{impatient, patient};
use swarmsys::sim::{replicate, Patience, SimConfig};

fn base_swarm() -> SwarmParams {
    SwarmParams {
        lambda: 1.0 / 60.0,
        size: 4_000.0,
        mu: 50.0,
        r: 1.0 / 900.0,
        u: 300.0,
    }
}

fn sim_config(p: &SwarmParams, patience: Patience, seed: u64) -> SimConfig {
    SimConfig {
        warmup: 10_000.0,
        ..SimConfig::from_params(p, patience, 0, 300_000.0, seed)
    }
}

#[test]
fn eq10_unavailability_matches_blocking_probability() {
    // §3.3.1: P = (1/r)/(E[B] + 1/r); by PASTA the simulator's blocked
    // fraction estimates the same quantity.
    for (i, p) in [
        base_swarm(),
        SwarmParams {
            r: 1.0 / 3_000.0,
            ..base_swarm()
        },
        SwarmParams {
            lambda: 1.0 / 200.0,
            ..base_swarm()
        },
    ]
    .iter()
    .enumerate()
    {
        let rep = replicate(
            &sim_config(p, Patience::Impatient, 100 + i as u64),
            6,
            cores(),
        );
        let simulated = rep.pooled.blocked_fraction();
        let model = impatient::unavailability(p);
        assert!(
            ((simulated - model) / model).abs() < 0.15,
            "case {i}: model {model} vs simulated {simulated}"
        );
    }
}

#[test]
fn eq11_download_time_matches_patient_simulation() {
    for (i, p) in [
        base_swarm(),
        SwarmParams {
            r: 1.0 / 2_000.0,
            ..base_swarm()
        },
    ]
    .iter()
    .enumerate()
    {
        let rep = replicate(
            &sim_config(p, Patience::Patient, 200 + i as u64),
            6,
            cores(),
        );
        let simulated = rep.pooled.mean_download_time();
        let model = patient::download_time(p);
        assert!(
            ((simulated - model) / model).abs() < 0.15,
            "case {i}: model {model} vs simulated {simulated}"
        );
    }
}

#[test]
fn busy_period_lengths_match_the_model() {
    let p = base_swarm();
    let rep = replicate(&sim_config(&p, Patience::Impatient, 300), 8, cores());
    let simulated = rep.pooled.busy_periods.mean();
    let model = impatient::busy_period(&p);
    assert!(
        ((simulated - model) / model).abs() < 0.2,
        "model {model} vs simulated {simulated}"
    );
}

#[test]
fn bundling_gain_is_visible_end_to_end() {
    // The headline: with a rare publisher, a K=4 bundle downloads faster
    // than the single file — in the analytic model AND in simulation.
    let single = SwarmParams {
        r: 1.0 / 6_000.0,
        ..base_swarm()
    };
    let bundle = single.bundle(4, PublisherScaling::Fixed);

    let t_single_model = patient::download_time(&single);
    let t_bundle_model = patient::download_time(&bundle);
    assert!(
        t_bundle_model < t_single_model,
        "model disagrees with the paper"
    );

    let t_single_sim = replicate(&sim_config(&single, Patience::Patient, 400), 5, cores())
        .pooled
        .mean_download_time();
    let t_bundle_sim = replicate(&sim_config(&bundle, Patience::Patient, 401), 5, cores())
        .pooled
        .mean_download_time();
    assert!(
        t_bundle_sim < t_single_sim,
        "simulation disagrees: bundle {t_bundle_sim} vs single {t_single_sim}"
    );
}

#[test]
fn lingering_model_matches_lingering_simulation() {
    // §3.3.4: peers lingering 1/γ after completion lengthen busy periods.
    let p = SwarmParams {
        lambda: 1.0 / 100.0,
        size: 2_000.0,
        mu: 50.0,
        r: 1.0 / 2_000.0,
        u: 200.0,
    };
    let gamma = 1.0 / 120.0; // linger 2 minutes
    let model = swarmsys::model::lingering::unavailability(&p, gamma);

    let cfg = SimConfig {
        linger_mean: Some(1.0 / gamma),
        ..sim_config(&p, Patience::Impatient, 500)
    };
    let rep = replicate(&cfg, 8, cores());
    let simulated = rep.pooled.blocked_fraction();
    assert!(
        ((simulated - model) / model).abs() < 0.2,
        "model {model} vs simulated {simulated}"
    );
}

#[test]
fn mixed_bundling_joint_unavailability_matches_model() {
    // §5 mixed bundling: file k is blocked only when BOTH its individual
    // swarm and the bundle swarm are idle. The model multiplies the two
    // unavailabilities (independent processes); check that against a
    // joint trace built from two independently simulated swarms.
    use swarmsys::model::mixed::{mixed_bundling, FileSpec};

    let files = vec![
        FileSpec {
            lambda: 1.0 / 5.0,
            size: 4_000.0,
        },
        FileSpec {
            lambda: 1.0 / 600.0,
            size: 4_000.0,
        },
    ];
    let (mu, r, u) = (50.0, 1.0 / 5_000.0, 300.0);
    let phi = 0.1;
    let model = mixed_bundling(&files, mu, r, u, phi);

    // Simulate the niche file's individual swarm and the bundle swarm.
    let horizon = 2_000_000.0;
    let mk = |lambda: f64, size: f64, seed: u64| SimConfig {
        record_timeline: true,
        ..SimConfig::from_params(
            &SwarmParams {
                lambda,
                size,
                mu,
                r,
                u,
            },
            Patience::Impatient,
            0,
            horizon,
            seed,
        )
    };
    let indiv = swarmsys::sim::run(&mk((1.0 - phi) * files[1].lambda, files[1].size, 901));
    let bundle_lambda = phi * (files[0].lambda + files[1].lambda);
    let bundle = swarmsys::sim::run(&mk(bundle_lambda, 8_000.0, 902));

    // Joint unavailability sampled on a grid.
    let samples = 40_000;
    let both_idle = (0..samples)
        .filter(|i| {
            let t = horizon * (*i as f64 + 0.5) / samples as f64;
            !indiv.available_at(t) && !bundle.available_at(t)
        })
        .count() as f64
        / samples as f64;
    let predicted = model.files[1].unavailability;
    assert!(
        (both_idle - predicted).abs() < 0.08,
        "joint idle fraction {both_idle} vs model {predicted}"
    );
}

#[test]
fn availability_fraction_consistent_with_unavailability() {
    // Time-average availability and the arriving-peer unavailability must
    // agree (PASTA again, at the availability-process level).
    let p = base_swarm();
    let rep = replicate(&sim_config(&p, Patience::Impatient, 600), 6, cores());
    let avail_time = rep.pooled.availability;
    let p_model = impatient::unavailability(&p);
    assert!(
        ((1.0 - avail_time) - p_model).abs() < 0.05,
        "time-unavailability {} vs P {}",
        1.0 - avail_time,
        p_model
    );
}
