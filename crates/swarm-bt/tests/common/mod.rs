//! Configurations shared by the dense-vs-fast-forward suites: the fixed
//! regimes `fastforward.rs` pins and the random-config strategy its
//! proptest sweeps, so the `BtResult` oracle and the telemetry oracle
//! in `fastforward_obs.rs` check the same ground.

use proptest::prelude::*;
use swarm_bt::{BtConfig, BtPublisher, PieceSelection};

/// Whether the fast-forward must engage on a fixed config.
pub enum Elision {
    /// The config is idle-heavy, or was written for a wake rule: the run
    /// must elide ticks, or its dense-vs-elided comparison tests nothing.
    Required,
    /// The config pins something else; the fast-forward may or may not
    /// engage.
    Optional,
}

/// Fixed configs pinning the regimes the paper cares about (K ∈ {1, 4,
/// 16}, intermittent and seedless publishers, lingering seeds) plus the
/// wake rules no random sweep reliably reaches, labelled and marked with
/// whether the fast-forward must engage.
pub fn fixed_configs() -> Vec<(&'static str, Elision, BtConfig)> {
    let base = BtConfig::paper_section_4_3(1, 0);
    vec![
        // §4.3's headline point: K=1, publisher on 300 s / off 900 s. Long
        // blocked spans during off-periods are exactly what gets elided.
        (
            "k1 on/off",
            Elision::Required,
            BtConfig {
                record_timeline: true,
                ..BtConfig::paper_section_4_3(1, 42)
            },
        ),
        (
            "k4 on/off",
            Elision::Optional,
            BtConfig {
                horizon: 600,
                drain_ticks: 900,
                ..BtConfig::paper_section_4_3(4, 7)
            },
        ),
        // Largest bundle of the sweep; 256 pieces. Short horizon keeps the
        // dense reference cheap in debug builds.
        (
            "k16 on/off",
            Elision::Optional,
            BtConfig {
                horizon: 300,
                drain_ticks: 300,
                record_timeline: true,
                ..BtConfig::paper_section_4_3(16, 11)
            },
        ),
        // The benchmark regime: publisher mostly off, sparse arrivals, long
        // horizon. Nearly every tick is elidable.
        (
            "k1 highly unavailable",
            Elision::Required,
            BtConfig {
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
            },
        ),
        // An idle-heavy run with lingering: off-periods, linger-expiry
        // wakes and peer-sustained availability all in play.
        (
            "idle-heavy lingering",
            Elision::Required,
            BtConfig {
                arrival_rate: 1.0 / 120.0,
                publisher: BtPublisher::OnOff {
                    on_mean: 120.0,
                    off_mean: 900.0,
                    initially_on: true,
                },
                linger_mean: Some(60.0),
                horizon: 2_400,
                drain_ticks: 1_200,
                ..BtConfig::paper_section_4_3(1, 97)
            },
        ),
        // §4.2: the publisher leaves at the first completion. K=1 dies and
        // drains; K=8 self-sustains for a while.
        (
            "seedless k1",
            Elision::Required,
            BtConfig::paper_section_4_2(1, 13),
        ),
        (
            "seedless k8",
            Elision::Optional,
            BtConfig::paper_section_4_2(8, 13),
        ),
        // Control: a busy, always-available swarm should round-trip too
        // (fast-forward rarely engages, but must stay invisible when it
        // does, e.g. before the first arrival).
        (
            "always-on",
            Elision::Optional,
            BtConfig {
                publisher: BtPublisher::AlwaysOn,
                horizon: 600,
                drain_ticks: 300,
                ..BtConfig::paper_section_4_3(2, 5)
            },
        ),
        // Lingering exercises the linger-expiry wake events and the
        // peer-sustained availability path (covered == num_pieces).
        (
            "lingering seeds",
            Elision::Required,
            BtConfig {
                linger_mean: Some(120.0),
                horizon: 600,
                drain_ticks: 600,
                record_timeline: true,
                ..BtConfig::paper_section_4_3(2, 42)
            },
        ),
        // With PEX off, isolated-peer quiescence no longer depends on the
        // 30-tick gossip cadence; jumps stretch to the next arrival/toggle.
        (
            "pex disabled",
            Elision::Required,
            BtConfig {
                pex_interval: 0,
                horizon: 2_000,
                drain_ticks: 600,
                ..BtConfig::paper_section_4_3(1, 29)
            },
        ),
        // Cover the other RNG-consuming piece-selection paths.
        (
            "super-seed + random selection",
            Elision::Optional,
            BtConfig {
                super_seed: true,
                piece_selection: PieceSelection::Random,
                horizon: 600,
                drain_ticks: 300,
                ..BtConfig::paper_section_4_3(2, 31)
            },
        ),
        // A periodic publisher returns to edges PEX last saw dead: while it
        // was away, peers whose only live edges ran to it had no gossip
        // partner, so PEX could mark itself quiet, and the return revives
        // those edges without creating one. Only the return itself can tell
        // the fast-forward that the next PEX boundary has partners again.
        (
            "publisher return over old edges",
            Elision::Required,
            BtConfig {
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
            },
        ),
    ]
}

/// Random configurations across publisher processes, loads and protocol
/// intervals, with timelines on.
pub fn random_config() -> impl Strategy<Value = BtConfig> {
    (
        (
            1u32..5,         // k
            0u64..1_000_000, // seed
            200u64..901,     // horizon
            0usize..3,       // drain index
            0usize..4,       // publisher kind
            prop::bool::ANY, // initially on
            40.0f64..400.0,  // on mean
        ),
        (
            40.0f64..900.0, // off mean
            // Periodic phases, with off phases both shorter and longer
            // than the 30-tick re-announce interval.
            10u64..300,      // on ticks
            5u64..90,        // off ticks
            prop::bool::ANY, // linger on
            20.0f64..240.0,  // linger mean
            0usize..3,       // PEX index
            0usize..4,       // rechoke index
        ),
        0.05f64..1.5, // arrival-rate scale
    )
        .prop_map(
            |(
                (k, seed, horizon, drain_idx, publisher_kind, initially_on, on_mean),
                (off_mean, on_ticks, off_ticks, linger_on, linger_mean, pex_idx, rechoke_idx),
                rate_scale,
            )| {
                let base = BtConfig::paper_section_4_3(k, seed);
                BtConfig {
                    horizon,
                    drain_ticks: [0u64, 120, 600][drain_idx],
                    arrival_rate: base.arrival_rate * rate_scale,
                    publisher: match publisher_kind {
                        0 => BtPublisher::AlwaysOn,
                        1 => BtPublisher::OnOff {
                            on_mean,
                            off_mean,
                            initially_on,
                        },
                        2 => BtPublisher::Periodic {
                            on_ticks,
                            off_ticks,
                            initially_on,
                        },
                        _ => BtPublisher::UntilFirstCompletion,
                    },
                    linger_mean: linger_on.then_some(linger_mean),
                    pex_interval: [0u64, 7, 30][pex_idx],
                    // 17 does not divide the re-announce interval, so
                    // rechoke and re-announce boundaries drift against
                    // each other.
                    rechoke_interval: [1u64, 3, 10, 17][rechoke_idx],
                    record_timeline: true,
                    ..base
                }
            },
        )
}

/// `cfg` with the dense loop forced on: the reference every
/// equivalence check compares the fast-forward against.
pub fn dense(cfg: &BtConfig) -> BtConfig {
    BtConfig {
        disable_fast_forward: true,
        ..cfg.clone()
    }
}
