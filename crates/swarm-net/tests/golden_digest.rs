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
//! Every script completes all of its leechers, as the simulator does:
//! 48 of 48 and 96 of 96. (While departed peers kept their
//! neighbor-table slots, full tables refused later handshakes and the
//! 96-leecher scripts completed 55 or 56 of 96.)
//!
//! One `#[test]`: it toggles the process-global telemetry switch.

use swarm_bt::BtConfig;
use swarm_net::{run_live, scenarios, HostMode, NetResult};

mod common;
use common::loopback_shaped;

/// 64-bit FNV-1a of `r` serialized as JSON.
fn digest(r: &NetResult) -> u64 {
    let json = serde_json::to_string(r).expect("NetResult serializes");
    json.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
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
    ("48 leechers seed 1", 0xb84a0b9693ec0827, 0xd09ce9d8d55c5362),
    ("48 leechers seed 2", 0x1865d1fd35662413, 0xb774d38c03b5a815),
    ("48 leechers seed 3", 0xbfcdd176eb9faaaf, 0x7a404d32e709135c),
    ("96 leechers seed 4", 0x5daae6149f5037d6, 0x987f837425f20058),
    ("96 leechers seed 5", 0x783e3d7aa3741311, 0x31d653cd40eaa0ec),
    ("96 leechers seed 6", 0xcfc1e15ddccf21c7, 0x460836ecc86184aa),
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
