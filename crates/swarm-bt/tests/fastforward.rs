//! Dense-vs-elided equivalence suite for the quiescence fast-forward.
//!
//! The contract under test: with fast-forward enabled (the default) the
//! engine must produce a `BtResult` byte-for-byte identical — timeline
//! curves included — to the dense loop's (`disable_fast_forward: true`)
//! on *every* configuration. The fast-forward elides provably quiescent
//! ticks; it never changes what any executed tick does, and it consumes
//! exactly the same RNG stream.
//!
//! Fixed configs pin the regimes the paper cares about (K ∈ {1, 4, 16},
//! intermittent and seedless publishers, lingering seeds) plus the
//! wake rules no random sweep reliably reaches; the proptest sweeps
//! random configurations across publisher processes, loads and protocol
//! intervals.

use proptest::prelude::*;
use swarm_bt::{run, BtConfig, BtPublisher, PieceSelection};

/// Run `cfg` both densely and with fast-forward, and require the two
/// serialized results to match byte for byte.
fn assert_equivalent(label: &str, cfg: &BtConfig) {
    let dense_cfg = BtConfig {
        disable_fast_forward: true,
        ..cfg.clone()
    };
    let elided_cfg = BtConfig {
        disable_fast_forward: false,
        ..cfg.clone()
    };
    let dense = serde_json::to_string(&run(&dense_cfg)).expect("serialize dense");
    let elided = serde_json::to_string(&run(&elided_cfg)).expect("serialize elided");
    assert_eq!(
        dense, elided,
        "{label}: fast-forward diverged from the dense loop"
    );
}

#[test]
fn k1_intermittent_publisher_with_timeline() {
    // §4.3's headline point: K=1, publisher on 300 s / off 900 s. Long
    // blocked spans during off-periods are exactly what gets elided.
    let cfg = BtConfig {
        record_timeline: true,
        ..BtConfig::paper_section_4_3(1, 42)
    };
    assert_equivalent("k1 on/off", &cfg);
}

#[test]
fn k4_intermittent_publisher() {
    let cfg = BtConfig {
        horizon: 600,
        drain_ticks: 900,
        ..BtConfig::paper_section_4_3(4, 7)
    };
    assert_equivalent("k4 on/off", &cfg);
}

#[test]
fn k16_intermittent_publisher_with_timeline() {
    // Largest bundle of the sweep; 256 pieces. Short horizon keeps the
    // dense reference cheap in debug builds.
    let cfg = BtConfig {
        horizon: 300,
        drain_ticks: 300,
        record_timeline: true,
        ..BtConfig::paper_section_4_3(16, 11)
    };
    assert_equivalent("k16 on/off", &cfg);
}

#[test]
fn k1_highly_unavailable_publisher() {
    // The benchmark regime: publisher mostly off, sparse arrivals, long
    // horizon. Nearly every tick is elidable.
    let cfg = BtConfig {
        arrival_rate: 1.0 / 300.0,
        publisher: BtPublisher::OnOff {
            on_mean: 60.0,
            off_mean: 1_200.0,
            initially_on: false,
        },
        horizon: 4_000,
        drain_ticks: 600,
        record_timeline: true,
        ..BtConfig::paper_section_4_3(1, 23)
    };
    assert_equivalent("k1 highly unavailable", &cfg);
}

#[test]
fn seedless_publishers() {
    // §4.2: the publisher leaves at the first completion. K=1 dies and
    // drains; K=8 self-sustains for a while.
    assert_equivalent("seedless k1", &BtConfig::paper_section_4_2(1, 13));
    assert_equivalent("seedless k8", &BtConfig::paper_section_4_2(8, 13));
}

#[test]
fn always_on_publisher() {
    // Control: a busy, always-available swarm should round-trip too
    // (fast-forward rarely engages, but must stay invisible when it
    // does, e.g. before the first arrival).
    let cfg = BtConfig {
        publisher: BtPublisher::AlwaysOn,
        horizon: 600,
        drain_ticks: 300,
        ..BtConfig::paper_section_4_3(2, 5)
    };
    assert_equivalent("always-on", &cfg);
}

#[test]
fn lingering_seeds() {
    // Lingering exercises the linger-expiry wake events and the
    // peer-sustained availability path (covered == num_pieces).
    let cfg = BtConfig {
        linger_mean: Some(120.0),
        horizon: 600,
        drain_ticks: 600,
        record_timeline: true,
        ..BtConfig::paper_section_4_3(2, 42)
    };
    assert_equivalent("lingering seeds", &cfg);
}

#[test]
fn pex_disabled() {
    // With PEX off, isolated-peer quiescence no longer depends on the
    // 30-tick gossip cadence; jumps stretch to the next arrival/toggle.
    let cfg = BtConfig {
        pex_interval: 0,
        horizon: 2_000,
        drain_ticks: 600,
        ..BtConfig::paper_section_4_3(1, 29)
    };
    assert_equivalent("pex disabled", &cfg);
}

#[test]
fn super_seed_random_selection() {
    // Cover the other RNG-consuming piece-selection paths.
    let cfg = BtConfig {
        super_seed: true,
        piece_selection: PieceSelection::Random,
        horizon: 600,
        drain_ticks: 300,
        ..BtConfig::paper_section_4_3(2, 31)
    };
    assert_equivalent("super-seed + random selection", &cfg);
}

#[test]
fn publisher_return_reactivates_old_edges() {
    // A periodic publisher returns to edges PEX last saw dead: while it
    // was away, peers whose only live edges ran to it had no gossip
    // partner, so PEX could mark itself quiet, and the return revives
    // those edges without creating one. Only the return itself can tell
    // the fast-forward that the next PEX boundary has partners again.
    let base = BtConfig::paper_section_4_3(1, 0);
    let cfg = BtConfig {
        horizon: 1_500,
        drain_ticks: 0,
        arrival_rate: base.arrival_rate * 0.1,
        publisher: BtPublisher::Periodic {
            on_ticks: 30,
            off_ticks: 20,
            initially_on: false,
        },
        linger_mean: Some(600.0),
        pex_interval: 7,
        ..base
    };
    assert_equivalent("publisher return over old edges", &cfg);
}

proptest! {
    // Each case runs the engine twice; the test profile is optimized,
    // so a few seconds buy a wide sweep (proptest perturbs seeds run to
    // run).
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn equivalent_on_random_configs(
        k in 1u32..5,
        seed in 0u64..1_000_000,
        horizon in 200u64..901,
        drain_idx in 0usize..3,
        publisher_kind in 0usize..4,
        initially_on in prop::bool::ANY,
        on_mean in 40.0f64..400.0,
        off_mean in 40.0f64..900.0,
        // Periodic phases, with off phases both shorter and longer than
        // the 30-tick re-announce interval.
        on_ticks in 10u64..300,
        off_ticks in 5u64..90,
        linger_on in prop::bool::ANY,
        linger_mean in 20.0f64..240.0,
        pex_idx in 0usize..3,
        rechoke_idx in 0usize..4,
        rate_scale in 0.05f64..1.5,
    ) {
        let base = BtConfig::paper_section_4_3(k, seed);
        let cfg = BtConfig {
            horizon,
            drain_ticks: [0u64, 120, 600][drain_idx],
            arrival_rate: base.arrival_rate * rate_scale,
            publisher: match publisher_kind {
                0 => BtPublisher::AlwaysOn,
                1 => BtPublisher::OnOff { on_mean, off_mean, initially_on },
                2 => BtPublisher::Periodic { on_ticks, off_ticks, initially_on },
                _ => BtPublisher::UntilFirstCompletion,
            },
            linger_mean: linger_on.then_some(linger_mean),
            pex_interval: [0u64, 7, 30][pex_idx],
            // 17 does not divide the re-announce interval, so rechoke
            // and re-announce boundaries drift against each other.
            rechoke_interval: [1u64, 3, 10, 17][rechoke_idx],
            record_timeline: true,
            ..base
        };
        let dense = serde_json::to_string(&run(&BtConfig {
            disable_fast_forward: true,
            ..cfg.clone()
        })).expect("serialize dense");
        let elided = serde_json::to_string(&run(&cfg)).expect("serialize elided");
        prop_assert_eq!(dense, elided, "random config diverged");
    }
}
