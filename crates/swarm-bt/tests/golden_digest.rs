//! Cross-commit output pin for the block engine.
//!
//! `golden_trace_byte_identical` compares two runs inside one binary, so
//! it cannot see an output change between commits. This test pins an
//! FNV-1a digest of the serialized `BtResult` for a fixed mix of
//! configurations covering every engine path: the §4.2 and §4.3 presets
//! across bundle sizes, super-seeding, Random and InOrder selection,
//! lingering seeds, the Periodic publisher with scripted arrivals,
//! BitTyrant capacities under a download cap, timelines, the dense loop
//! and the swarmbench `bt-busy` and `bt-idle` shapes. A change meant to keep
//! outputs byte-identical must leave every digest as it is.

use swarm_bt::{run, BtConfig, BtPublisher, CapacityDistribution, PieceSelection};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The fixed configuration mix, labelled. Horizons are trimmed where the
/// preset would cost more than a few tens of milliseconds per run.
fn mix() -> Vec<(String, BtConfig)> {
    let mut out = Vec::new();
    for (i, k) in [1u32, 2, 4, 8, 16, 32].into_iter().enumerate() {
        let seed = 100 + i as u64;
        let mut seedless = BtConfig::paper_section_4_2(k, seed);
        let mut on_off = BtConfig {
            drain_ticks: 1_200,
            ..BtConfig::paper_section_4_3(k, seed)
        };
        if k >= 16 {
            seedless.horizon = 500;
            on_off.horizon = 400;
            on_off.drain_ticks = 400;
        }
        out.push((format!("4.2 k{k}"), seedless));
        out.push((format!("4.3 k{k}"), on_off));
    }
    // swarmbench's `bt-busy` shapes at full size.
    out.push((
        "bt-busy 4.3 k16".into(),
        BtConfig {
            drain_ticks: 600,
            ..BtConfig::paper_section_4_3(16, 110)
        },
    ));
    out.push((
        "bt-busy 4.2 k32".into(),
        BtConfig::paper_section_4_2(32, 111),
    ));
    for (i, selection) in [PieceSelection::RarestFirst, PieceSelection::Random]
        .into_iter()
        .enumerate()
    {
        out.push((
            format!("super-seed {selection:?}"),
            BtConfig {
                super_seed: true,
                piece_selection: selection,
                ..BtConfig::paper_section_4_2(4, 200 + i as u64)
            },
        ));
    }
    out.push((
        "super-seed k16".into(),
        BtConfig {
            super_seed: true,
            horizon: 600,
            ..BtConfig::paper_section_4_2(16, 202)
        },
    ));
    out.push((
        "super-seed on/off timeline".into(),
        BtConfig {
            super_seed: true,
            record_timeline: true,
            horizon: 600,
            drain_ticks: 600,
            ..BtConfig::paper_section_4_3(2, 203)
        },
    ));
    for (i, selection) in [PieceSelection::Random, PieceSelection::InOrder]
        .into_iter()
        .enumerate()
    {
        out.push((
            format!("seedless {selection:?}"),
            BtConfig {
                piece_selection: selection,
                ..BtConfig::paper_section_4_2(6, 210 + i as u64)
            },
        ));
        out.push((
            format!("on/off {selection:?}"),
            BtConfig {
                piece_selection: selection,
                drain_ticks: 600,
                ..BtConfig::paper_section_4_3(4, 212 + i as u64)
            },
        ));
    }
    out.push((
        "linger on/off timeline".into(),
        BtConfig {
            linger_mean: Some(120.0),
            record_timeline: true,
            horizon: 600,
            drain_ticks: 300,
            ..BtConfig::paper_section_4_3(2, 42)
        },
    ));
    out.push((
        "linger seedless".into(),
        BtConfig {
            linger_mean: Some(600.0),
            ..BtConfig::paper_section_4_2(2, 220)
        },
    ));
    out.push((
        "linger always-on k8".into(),
        BtConfig {
            linger_mean: Some(60.0),
            publisher: BtPublisher::AlwaysOn,
            horizon: 600,
            drain_ticks: 600,
            ..BtConfig::paper_section_4_3(8, 221)
        },
    ));
    out.push((
        "linger on/off k16".into(),
        BtConfig {
            linger_mean: Some(90.0),
            horizon: 600,
            drain_ticks: 600,
            ..BtConfig::paper_section_4_3(16, 222)
        },
    ));
    let periodic = BtPublisher::Periodic {
        on_ticks: 300,
        off_ticks: 120,
        initially_on: true,
    };
    out.push((
        "periodic scripted".into(),
        BtConfig {
            publisher: periodic,
            horizon: 1_800,
            drain_ticks: 0,
            scripted_arrivals: Some((0..48u64).map(|i| (i * 17, 30.0 + i as f64)).collect()),
            ..BtConfig::paper_section_4_3(4, 230)
        },
    ));
    out.push((
        "periodic stochastic linger".into(),
        BtConfig {
            publisher: BtPublisher::Periodic {
                on_ticks: 90,
                off_ticks: 400,
                initially_on: false,
            },
            linger_mean: Some(45.0),
            drain_ticks: 800,
            ..BtConfig::paper_section_4_3(2, 231)
        },
    ));
    for (i, k) in [1u32, 3, 8, 16].into_iter().enumerate() {
        out.push((
            format!("bittyrant capped k{k}"),
            BtConfig {
                peer_capacity: CapacityDistribution::BitTyrant,
                download_cap: 120.0,
                drain_ticks: 600,
                ..BtConfig::paper_section_4_3(k, 240 + i as u64)
            },
        ));
    }
    out.push((
        "timeline seedless k8".into(),
        BtConfig {
            record_timeline: true,
            ..BtConfig::paper_section_4_2(8, 250)
        },
    ));
    out.push((
        "timeline always-on k1".into(),
        BtConfig {
            record_timeline: true,
            publisher: BtPublisher::AlwaysOn,
            ..BtConfig::paper_section_4_3(1, 251)
        },
    ));
    for (i, k) in [1u32, 4, 16].into_iter().enumerate() {
        let mut cfg = BtConfig {
            disable_fast_forward: true,
            drain_ticks: 600,
            ..BtConfig::paper_section_4_3(k, 260 + i as u64)
        };
        if k == 16 {
            cfg.horizon = 300;
            cfg.drain_ticks = 300;
        }
        out.push((format!("dense on/off k{k}"), cfg));
    }
    out.push((
        "dense seedless linger timeline".into(),
        BtConfig {
            disable_fast_forward: true,
            linger_mean: Some(200.0),
            record_timeline: true,
            ..BtConfig::paper_section_4_2(3, 263)
        },
    ));
    // swarmbench's `bt-idle` shapes: K=4, sparse arrivals, PEX off, a
    // publisher that seeds ~30 s and leaves for ~forever (high) or comes
    // back every ~3000 s (mid).
    for (label, off_mean, horizon, seed) in [
        ("bt-idle high", 1.0e9, 300_000, 270),
        ("bt-idle mid", 3_000.0, 100_000, 271),
    ] {
        out.push((
            label.into(),
            BtConfig {
                arrival_rate: 1.0 / 300.0,
                publisher: BtPublisher::OnOff {
                    on_mean: 30.0,
                    off_mean,
                    initially_on: true,
                },
                horizon,
                drain_ticks: 600,
                pex_interval: 0,
                ..BtConfig::paper_section_4_3(4, seed)
            },
        ));
    }
    out
}

/// Digests generated from the engine as of this test's introduction.
const PINNED: &[(&str, u64)] = &[
    ("4.2 k1", 0xfdcabb78c7fe1cbb),
    ("4.3 k1", 0x2c0416be7ef5cf03),
    ("4.2 k2", 0xe4778c6ffc1fcd59),
    ("4.3 k2", 0x48c1786cd0c9702a),
    ("4.2 k4", 0xf5dc44fd8b613ace),
    ("4.3 k4", 0x55e36afc93e15e30),
    ("4.2 k8", 0xa0c835dd5f3a9a73),
    ("4.3 k8", 0x98e368477b96bda7),
    ("4.2 k16", 0x449bc8b8a6852f0f),
    ("4.3 k16", 0xec44848ff216e4bf),
    ("4.2 k32", 0x23e6d2aea6e86945),
    ("4.3 k32", 0x647eb114cddc77b3),
    ("bt-busy 4.3 k16", 0x67fcfd077ee37458),
    ("bt-busy 4.2 k32", 0x982d063ff85890a9),
    ("super-seed RarestFirst", 0xf0ac1053147ba2df),
    ("super-seed Random", 0x616fb66f4ad57da6),
    ("super-seed k16", 0xda562abc47de4013),
    ("super-seed on/off timeline", 0xdfc3700b8cd7a024),
    ("seedless Random", 0x688bcc034cec6c65),
    ("on/off Random", 0x80b80d944a57578a),
    ("seedless InOrder", 0x2193bbcf31102c53),
    ("on/off InOrder", 0x4b5c51ad0b494630),
    ("linger on/off timeline", 0x1775ddd5dfb4d71d),
    ("linger seedless", 0xe4c067eb741154e3),
    ("linger always-on k8", 0xd12a65ed27c85cd4),
    ("linger on/off k16", 0x57ee8b77ab2c98bc),
    ("periodic scripted", 0x563652a7e7baff32),
    ("periodic stochastic linger", 0xb87fac716eca196a),
    ("bittyrant capped k1", 0xf7faa988f5ef74f2),
    ("bittyrant capped k3", 0x8204c7380c6875e6),
    ("bittyrant capped k8", 0x7a90e1a3f9614bd8),
    ("bittyrant capped k16", 0xfe7f7721cafaf9a4),
    ("timeline seedless k8", 0x9b112ad2895f18b3),
    ("timeline always-on k1", 0x03e3f76e89e4576f),
    ("dense on/off k1", 0xb9f88a49971e1f82),
    ("dense on/off k4", 0x67917d056d501d02),
    ("dense on/off k16", 0xf97f1f1c71e8be96),
    ("dense seedless linger timeline", 0x4aba537a382472d8),
    ("bt-idle high", 0x13de3008cf448059),
    ("bt-idle mid", 0xbe5b3e5817597626),
];

#[test]
fn bt_results_match_pinned_digests() {
    let actual: Vec<(String, u64)> = mix()
        .into_iter()
        .map(|(label, cfg)| {
            let json = serde_json::to_string(&run(&cfg)).expect("serialize");
            (label, fnv1a(json.as_bytes()))
        })
        .collect();
    let table: String = actual
        .iter()
        .map(|(label, d)| format!("    ({label:?}, 0x{d:016x}),\n"))
        .collect();
    let pinned: Vec<(String, u64)> = PINNED.iter().map(|&(l, d)| (l.to_string(), d)).collect();
    let changed: Vec<&str> = actual
        .iter()
        .filter(|a| !pinned.contains(a))
        .map(|(label, _)| label.as_str())
        .collect();
    assert!(
        changed.is_empty() && pinned.len() == actual.len(),
        "BtResult changed for {changed:?} ({} pinned, {} run).\n\
         If the output change is intended, re-pin by replacing PINNED in \
         crates/swarm-bt/tests/golden_digest.rs with:\n{table}",
        pinned.len(),
        actual.len(),
    );
}
