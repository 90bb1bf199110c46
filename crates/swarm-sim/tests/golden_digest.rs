//! Cross-commit output pin for the flow-level simulator.
//!
//! This test pins a 64-bit FNV-1a digest of each run's outputs for a
//! fixed mix of configurations covering every engine path: exponential
//! and fluid service, patient and impatient peers, lingering seeds,
//! coverage thresholds m = 0, 3 and 9, the Poisson, single on/off and
//! until-first-completion publishers, timelines, trace replay and pooled
//! replications. A change meant to keep outputs byte-identical must leave
//! every digest as it is.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use swarm_sim::{
    replicate, run, run_trace, EntityState, Patience, Pooled, PublisherProcess, ServiceModel,
    SimConfig, SimResult,
};

/// 64-bit FNV-1a, fed one little-endian word at a time.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn floats(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        xs.iter().for_each(|x| self.word(x.to_bits()));
    }
}

/// Digest of a run's samples, counters, availability, timeline and
/// availability intervals, with every float by its bit pattern.
fn digest(r: &SimResult) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.floats(r.download_times.values());
    h.floats(r.waiting_times.values());
    h.word(r.arrivals);
    h.word(r.completions);
    h.word(r.blocked);
    h.word(r.in_flight_at_horizon);
    h.floats(r.busy_periods.values());
    h.word(r.availability.to_bits());
    let intervals = r.timeline.intervals();
    h.word(intervals.len() as u64);
    for iv in intervals {
        h.word(iv.entity);
        h.word(iv.start.to_bits());
        h.word(iv.end.to_bits());
        h.word(match iv.state {
            EntityState::Publishing => 0,
            EntityState::Active => 1,
            EntityState::Waiting => 2,
        });
    }
    h.word(r.availability_intervals.len() as u64);
    for &(a, b) in &r.availability_intervals {
        h.word(a.to_bits());
        h.word(b.to_bits());
    }
    h.0
}

/// The §4.3 swarm: λ = 1/60, exponential service of mean 80 s, Poisson
/// publishers arriving every 900 s on average and staying 300 s.
fn base(seed: u64) -> SimConfig {
    SimConfig {
        lambda: 1.0 / 60.0,
        service: ServiceModel::Exponential { mean: 80.0 },
        publisher: PublisherProcess::Poisson {
            rate: 1.0 / 900.0,
            residence: 300.0,
        },
        patience: Patience::Patient,
        linger_mean: None,
        coverage_threshold: 0,
        horizon: 100_000.0,
        warmup: 2_000.0,
        seed,
        record_timeline: false,
    }
}

const ON_OFF: PublisherProcess = PublisherProcess::SingleOnOff {
    on_mean: 300.0,
    off_mean: 900.0,
    initially_on: true,
};

const FLUID: ServiceModel = ServiceModel::Fluid {
    size: 4_000.0,
    peer_upload: 50.0,
    publisher_upload: 100.0,
    download_cap: 1e9,
};

/// Figure 6(a)'s flow configuration for bundle size `k` (m = 9).
fn fig6(k: u32, seed: u64) -> SimConfig {
    let kf = f64::from(k);
    SimConfig {
        lambda: kf / 60.0,
        service: ServiceModel::Exponential {
            mean: kf * 4_000.0 / 50.0,
        },
        publisher: ON_OFF,
        coverage_threshold: 9,
        horizon: 150_000.0,
        warmup: 5_000.0,
        ..base(seed)
    }
}

/// The fixed mix, labelled, each entry with the run that produces it.
fn mix() -> Vec<(&'static str, SimResult)> {
    let impatient = Patience::Impatient;
    let mut out = vec![
        ("exp patient poisson", run(&base(1))),
        (
            "exp impatient poisson",
            run(&SimConfig {
                patience: impatient,
                ..base(2)
            }),
        ),
        (
            "exp patient linger",
            run(&SimConfig {
                linger_mean: Some(120.0),
                ..base(3)
            }),
        ),
        (
            "exp impatient linger",
            run(&SimConfig {
                patience: impatient,
                linger_mean: Some(60.0),
                ..base(4)
            }),
        ),
        (
            "exp patient m3",
            run(&SimConfig {
                lambda: 1.0 / 20.0,
                coverage_threshold: 3,
                ..base(5)
            }),
        ),
        (
            "exp impatient m3 linger",
            run(&SimConfig {
                lambda: 1.0 / 20.0,
                patience: impatient,
                coverage_threshold: 3,
                linger_mean: Some(90.0),
                ..base(6)
            }),
        ),
        ("fig6a k1 m9", run(&fig6(1, 6001))),
        ("fig6a k8 m9", run(&fig6(8, 6008))),
        (
            "exp impatient on/off m9",
            run(&SimConfig {
                patience: impatient,
                ..fig6(4, 7)
            }),
        ),
        (
            "exp patient on/off initially off",
            run(&SimConfig {
                publisher: PublisherProcess::SingleOnOff {
                    on_mean: 300.0,
                    off_mean: 900.0,
                    initially_on: false,
                },
                ..base(8)
            }),
        ),
        (
            "fluid patient always-on",
            run(&SimConfig {
                service: FLUID,
                publisher: PublisherProcess::SingleOnOff {
                    on_mean: 1e9,
                    off_mean: 1.0,
                    initially_on: true,
                },
                ..base(9)
            }),
        ),
        (
            "fluid patient on/off",
            run(&SimConfig {
                service: FLUID,
                publisher: ON_OFF,
                ..base(10)
            }),
        ),
        (
            "fluid impatient on/off linger m3",
            run(&SimConfig {
                service: FLUID,
                publisher: ON_OFF,
                patience: impatient,
                linger_mean: Some(120.0),
                coverage_threshold: 3,
                lambda: 1.0 / 30.0,
                ..base(11)
            }),
        ),
        (
            "fluid capped poisson linger",
            run(&SimConfig {
                service: ServiceModel::Fluid {
                    size: 4_000.0,
                    peer_upload: 50.0,
                    publisher_upload: 100.0,
                    download_cap: 20.0,
                },
                linger_mean: Some(300.0),
                ..base(12)
            }),
        ),
        (
            "first-completion",
            run(&SimConfig {
                lambda: 1.0 / 50.0,
                publisher: PublisherProcess::UntilFirstCompletion,
                horizon: 20_000.0,
                warmup: 0.0,
                ..base(13)
            }),
        ),
        (
            "first-completion linger m3 timeline",
            run(&SimConfig {
                lambda: 1.0 / 2.0,
                publisher: PublisherProcess::UntilFirstCompletion,
                linger_mean: Some(200.0),
                coverage_threshold: 3,
                horizon: 5_000.0,
                warmup: 0.0,
                record_timeline: true,
                ..base(14)
            }),
        ),
        (
            "timeline exp poisson",
            run(&SimConfig {
                record_timeline: true,
                horizon: 20_000.0,
                warmup: 0.0,
                ..base(15)
            }),
        ),
        (
            "timeline impatient linger on/off",
            run(&SimConfig {
                patience: impatient,
                publisher: ON_OFF,
                linger_mean: Some(120.0),
                record_timeline: true,
                horizon: 30_000.0,
                ..base(16)
            }),
        ),
        (
            "timeline fluid m9",
            run(&SimConfig {
                service: FLUID,
                record_timeline: true,
                horizon: 30_000.0,
                ..fig6(2, 17)
            }),
        ),
    ];
    let mut rng = ChaCha8Rng::seed_from_u64(18);
    let times = swarm_queue::arrivals::poisson_process(1.0 / 40.0, 60_000.0, &mut rng);
    out.push((
        "trace on/off patient",
        run_trace(
            &SimConfig {
                publisher: ON_OFF,
                horizon: 60_000.0,
                ..base(19)
            },
            &times,
        ),
    ));
    out.push((
        "trace impatient linger m3 timeline",
        run_trace(
            &SimConfig {
                patience: impatient,
                linger_mean: Some(150.0),
                coverage_threshold: 3,
                record_timeline: true,
                horizon: 60_000.0,
                ..base(20)
            },
            &times,
        ),
    ));
    out.push((
        "replicated fig6a k4",
        pooled_result(replicate(&fig6(4, 6004), 3, 2).pooled),
    ));
    out
}

/// A result holding a pooled replication's fields, every other field at
/// its default: pooling keeps no waiting times, timeline or availability
/// intervals.
fn pooled_result(p: Pooled) -> SimResult {
    SimResult {
        download_times: p.download_times,
        busy_periods: p.busy_periods,
        arrivals: p.arrivals,
        completions: p.completions,
        blocked: p.blocked,
        in_flight_at_horizon: p.in_flight_at_horizon,
        availability: p.availability,
        ..SimResult::default()
    }
}

/// Digests generated from the engine as of this test's introduction. The
/// pooled entry is the pooled result as first pinned with its waiting
/// times, timeline and availability intervals cleared, since pooling now
/// keeps none of them.
const PINNED: &[(&str, u64)] = &[
    ("exp patient poisson", 0xac012e9d8d5bfdfc),
    ("exp impatient poisson", 0xc85aeba398f1026a),
    ("exp patient linger", 0x5558ab90bac40848),
    ("exp impatient linger", 0xd7a8c3b831f7e7ac),
    ("exp patient m3", 0xc2491a5ed50c6d5a),
    ("exp impatient m3 linger", 0x60130c2e192eca2b),
    ("fig6a k1 m9", 0xdcbc5475a05104e7),
    ("fig6a k8 m9", 0x7cbe2f86e382c635),
    ("exp impatient on/off m9", 0xe8f6593b49dd19a2),
    ("exp patient on/off initially off", 0x3491fa8defbec7bb),
    ("fluid patient always-on", 0xeb128e33c345eb2b),
    ("fluid patient on/off", 0x371dcad9087d1a9a),
    ("fluid impatient on/off linger m3", 0x6dbd1b8056daba50),
    ("fluid capped poisson linger", 0x1864132eddc913af),
    ("first-completion", 0xb74d61c4bd2401e1),
    ("first-completion linger m3 timeline", 0x284b35d49465a724),
    ("timeline exp poisson", 0xb98c2fc2d05ea55f),
    ("timeline impatient linger on/off", 0xb836ca33af7bfeac),
    ("timeline fluid m9", 0x85883c480f2c43a6),
    ("trace on/off patient", 0xc9eb6ed9f30ff5cb),
    ("trace impatient linger m3 timeline", 0x8af4c3dd6a22b0e7),
    ("replicated fig6a k4", 0x1769545a6118b711),
];

#[test]
fn sim_results_match_pinned_digests() {
    let actual: Vec<(&str, u64)> = mix().iter().map(|(l, r)| (*l, digest(r))).collect();
    let table: String = actual
        .iter()
        .map(|(label, d)| format!("    ({label:?}, 0x{d:016x}),\n"))
        .collect();
    let changed: Vec<&str> = actual
        .iter()
        .filter(|a| !PINNED.contains(a))
        .map(|(label, _)| *label)
        .collect();
    assert!(
        changed.is_empty() && PINNED.len() == actual.len(),
        "SimResult changed for {changed:?} ({} pinned, {} run).\n\
         If the output change is intended, re-pin by replacing PINNED in \
         crates/swarm-sim/tests/golden_digest.rs with:\n{table}",
        PINNED.len(),
        actual.len(),
    );
}
