//! Dense-vs-elided equivalence suite for the quiescence fast-forward.
//!
//! The contract under test: with fast-forward enabled (the default) the
//! engine must produce a `BtResult` byte-for-byte identical — timeline
//! curves included — to the dense loop's (`disable_fast_forward: true`)
//! on *every* configuration. The fast-forward elides provably quiescent
//! ticks; it never changes what any executed tick does, and it consumes
//! exactly the same RNG stream.
//!
//! The fixed configs (see `common::fixed_configs`) pin the regimes the
//! paper cares about plus the wake rules no random sweep reliably
//! reaches; the proptest sweeps random configurations across publisher
//! processes, loads and protocol intervals.

mod common;

use proptest::prelude::*;
use swarm_bt::{run, BtConfig};

/// Run `cfg` both densely and with fast-forward, serialized.
fn both(cfg: &BtConfig) -> (String, String) {
    let dense = serde_json::to_string(&run(&common::dense(cfg))).expect("serialize dense");
    let elided = serde_json::to_string(&run(cfg)).expect("serialize elided");
    (dense, elided)
}

#[test]
fn fixed_configs_are_equivalent() {
    for (label, _, cfg) in common::fixed_configs() {
        let (dense, elided) = both(&cfg);
        assert_eq!(
            dense, elided,
            "{label}: fast-forward diverged from the dense loop"
        );
    }
}

proptest! {
    // Each case runs the engine twice; the test profile is optimized,
    // so a few seconds buy a wide sweep.
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn equivalent_on_random_configs(cfg in common::random_config()) {
        let (dense, elided) = both(&cfg);
        prop_assert_eq!(dense, elided, "random config diverged");
    }
}
