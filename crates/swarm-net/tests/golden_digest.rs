//! Cross-commit output pin for the live engine.
//!
//! This test pins a 64-bit FNV-1a digest of each `NetResult`'s JSON for
//! the two canonical scenarios at three seeds and for six scripts shaped
//! like swarmbench's `net-loopback` inputs (K=4, a 300/120 square-wave
//! publisher, no linger, no drain; 48 leechers over 1,800 ticks and 96
//! over 2,400). Each runs with telemetry off and on, so the `"net"`
//! windows are pinned too. A change meant to keep outputs byte-identical
//! must leave every digest as it is.
//!
//! The 96-leecher scripts complete 55 or 56 of 96 leechers, not all of
//! them: departed peers keep their neighbor-table slots, and full tables
//! refuse later handshakes. The digests pin that as it is.
//!
//! One `#[test]`: it toggles the process-global telemetry switch.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use swarm_bt::{BtConfig, BtPublisher, CapacityDistribution};
use swarm_net::{run_live, scenarios, HostMode, NetResult};

/// 64-bit FNV-1a of `r` serialized as JSON.
fn digest(r: &NetResult) -> u64 {
    let json = serde_json::to_string(r).expect("NetResult serializes");
    json.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A scripted swarm shaped like a `net-loopback` input: `leechers`
/// arrivals at seeded ticks in the first half of the horizon, seeded
/// upload capacities in [30, 70) kB/tick.
fn loopback_shaped(seed: u64, leechers: usize, horizon: u64) -> BtConfig {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut arrivals: Vec<(u64, f64)> = (0..leechers)
        .map(|_| (rng.gen_range(0..horizon / 2), rng.gen_range(30.0..70.0)))
        .collect();
    arrivals.sort_by_key(|&(tick, _)| tick);
    BtConfig {
        publisher: BtPublisher::Periodic {
            on_ticks: 300,
            off_ticks: 120,
            initially_on: true,
        },
        peer_capacity: CapacityDistribution::Uniform(50.0),
        horizon,
        drain_ticks: 0,
        linger_mean: None,
        scripted_arrivals: Some(arrivals),
        ..BtConfig::paper_section_4_3(4, seed)
    }
}

/// The fixed mix, labelled.
fn mix() -> Vec<(String, BtConfig)> {
    let mut out = Vec::new();
    for seed in [1, 7, 42] {
        for (name, cfg) in scenarios::all(seed) {
            out.push((format!("{name} seed {seed}"), cfg));
        }
    }
    for seed in [1, 2, 3] {
        out.push((
            format!("48 leechers seed {seed}"),
            loopback_shaped(seed, 48, 1_800),
        ));
    }
    for seed in [4, 5, 6] {
        out.push((
            format!("96 leechers seed {seed}"),
            loopback_shaped(seed, 96, 2_400),
        ));
    }
    out
}

/// `(label, telemetry off, telemetry on)` digests.
const PINNED: [(&str, u64, u64); 12] = [
    ("scenario-a seed 1", 0x380094f01896b65d, 0x7873566c4b4895cb),
    ("scenario-b seed 1", 0x900338df4cdb58f9, 0x82d35996083791ae),
    ("scenario-a seed 7", 0xa72f2c22e4d282ab, 0xf7c01fdfb216e834),
    ("scenario-b seed 7", 0x4b21864c7612cb69, 0x856252f87d26710e),
    ("scenario-a seed 42", 0xd33c6ec06d6abef3, 0xf0351dbdbf58777d),
    ("scenario-b seed 42", 0xc80b088a783c970f, 0xb9bd36163dba0b5b),
    ("48 leechers seed 1", 0x3e280a26dbcfc451, 0x99ebe25aca47460c),
    ("48 leechers seed 2", 0x187ed6b4964098ed, 0xd5bede0ad980937f),
    ("48 leechers seed 3", 0xae54b8aac92d753a, 0x073df7c74cadedee),
    ("96 leechers seed 4", 0x0d13d6141bde70fd, 0x9f75ae8b4b59cc95),
    ("96 leechers seed 5", 0xdba79bd476951269, 0xb84b5cb28c304357),
    ("96 leechers seed 6", 0x623a6ae7865ea9d0, 0xb0586ad2c828f688),
];

#[test]
fn live_results_match_their_pinned_digests() {
    let mut got = Vec::new();
    for (label, cfg) in mix() {
        swarm_obs::set_enabled(false);
        let off = run_live(&cfg, HostMode::SingleThread);
        assert!(off.timeseries.is_empty(), "{label}: no windows while off");
        swarm_obs::set_enabled(true);
        let on = run_live(&cfg, HostMode::SingleThread);
        assert!(!on.timeseries.is_empty(), "{label}: windows while on");
        let _ = swarm_obs::take_series("net");
        let _ = swarm_obs::drain_all();
        got.push((label, digest(&off), digest(&on)));
    }
    swarm_obs::set_enabled(false);
    let line = |label: &str, off: u64, on: u64| format!("(\"{label}\", {off:#018x}, {on:#018x}),");
    let got: Vec<String> = got.iter().map(|(l, off, on)| line(l, *off, *on)).collect();
    let want: Vec<String> = PINNED
        .iter()
        .map(|&(l, off, on)| line(l, off, on))
        .collect();
    assert_eq!(got, want, "digests moved; this run's:\n{}", got.join("\n"));
}
