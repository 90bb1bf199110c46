//! Telemetry equivalence of the quiescence fast-forward.
//!
//! Every config `fastforward.rs` pins, plus a seeded sweep over the
//! ranges its proptest draws from (timelines on and off), runs densely
//! and with fast-forward under full telemetry. The two runs must agree
//! on everything deterministic the engine publishes:
//!
//! - every `bt.*` counter delta — ticks, bytes, arrivals, completions,
//!   rechokes, churn, blocked ticks, availability transitions — except
//!   the two fast-forward counters themselves (`bt.ticks_elided`,
//!   `bt.fastforward.jumps`: zero under the dense loop);
//! - the final value of every `bt.*` gauge;
//! - the serialized `"bt"` time series;
//! - the payload of every `bt.*` event, in order, with the process-wide
//!   run ordinal removed.
//!
//! The fixed configs marked `Elision::Required` must also actually
//! elide ticks and jump, so their comparison cannot pass vacuously; the
//! sweep as a whole must elide ticks too.
//!
//! Own test binary: it owns the process-global `swarm-obs` state
//! (enable switch, metric registry, flight recorder, series registry),
//! which must not race with other tests' runs.

mod common;

use common::Elision;
use proptest::prelude::*;
use proptest::TestRng;
use std::collections::BTreeMap;
use swarm_bt::{run, BtConfig};

/// The counters introduced by the fast-forward path; everything else
/// under `bt.` must match a dense run exactly.
const FF_COUNTERS: [&str; 2] = ["bt.ticks_elided", "bt.fastforward.jumps"];

/// Configs drawn from the proptest's ranges.
const SWEEP: usize = 40;

/// A `bt.*` event with its run ordinal removed.
type Payload = (String, Vec<(String, serde_json::Value)>);

/// Everything deterministic one run publishes, and its fast-forward
/// counters.
struct Observed {
    result: String,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    series: String,
    events: Vec<Payload>,
    ticks_elided: u64,
    jumps: u64,
}

/// Run `cfg` under telemetry inside job scope `job` and collect what it
/// published. Every `bt.*` gauge is first set to a sentinel, so a gauge
/// one run never writes cannot inherit the previous run's value.
fn observe(job: &str, cfg: &BtConfig) -> Observed {
    for name in swarm_obs::snapshot().gauges.keys() {
        if name.starts_with("bt.") {
            swarm_obs::gauge(name).set(i64::MIN);
        }
    }
    let _ = swarm_obs::take_series("bt");
    let before = swarm_obs::snapshot();
    let result = {
        let _job = swarm_obs::job_scope(job);
        run(cfg)
    };
    let after = swarm_obs::snapshot();
    let delta = after.delta_since(&before);
    let series = swarm_obs::take_series("bt")
        .map(|rec| swarm_obs::series_to_jsonl(&BTreeMap::from([("bt".to_string(), rec)])))
        .unwrap_or_default();
    let events = swarm_obs::drain_job(job)
        .into_iter()
        .filter(|e| e.kind.starts_with("bt."))
        .map(|e| {
            let fields = e.fields.into_iter().filter(|(k, _)| k != "run").collect();
            (e.kind, fields)
        })
        .collect();
    Observed {
        result: serde_json::to_string(&result).expect("serialize"),
        counters: delta
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("bt.") && !FF_COUNTERS.contains(&k.as_str()))
            .map(|(k, &v)| (k.clone(), v))
            .collect(),
        gauges: after
            .gauges
            .into_iter()
            .filter(|(k, _)| k.starts_with("bt."))
            .collect(),
        series,
        events,
        ticks_elided: delta.counter("bt.ticks_elided"),
        jumps: delta.counter("bt.fastforward.jumps"),
    }
}

#[test]
fn telemetry_matches_dense_on_every_config() {
    let mut configs = common::fixed_configs()
        .into_iter()
        .map(|(label, elision, cfg)| (label.to_string(), elision, cfg))
        .collect::<Vec<_>>();
    let strategy = common::random_config();
    let mut rng = TestRng::new(0x5eed_fa57);
    for i in 0..SWEEP {
        let mut cfg = strategy.generate(&mut rng);
        cfg.record_timeline = i % 2 == 0;
        configs.push((format!("sweep {i}"), Elision::Optional, cfg));
    }

    swarm_obs::set_enabled(true);
    swarm_obs::set_ring_capacity(1 << 20);
    let dropped_before = swarm_obs::dropped_events();
    let mut total_elided = 0;
    for (label, elision, cfg) in &configs {
        let dense = observe(&format!("{label} dense"), &common::dense(cfg));
        let elided = observe(&format!("{label} elided"), cfg);
        assert_eq!(
            dense.ticks_elided, 0,
            "{label}: the dense loop elided ticks"
        );
        assert_eq!(dense.jumps, 0, "{label}: the dense loop jumped");
        assert!(
            dense.counters.get("bt.ticks").copied().unwrap_or(0) > elided.ticks_elided,
            "{label}: cannot elide every tick of the run"
        );
        assert!(!dense.series.is_empty(), "{label}: no series recorded");
        assert!(!dense.events.is_empty(), "{label}: no events recorded");
        assert_eq!(dense.result, elided.result, "{label}: results diverged");
        assert_eq!(
            dense.counters, elided.counters,
            "{label}: counters diverged"
        );
        assert_eq!(
            dense.gauges, elided.gauges,
            "{label}: final gauges diverged"
        );
        assert_eq!(dense.series, elided.series, "{label}: series diverged");
        assert_eq!(
            dense.events.len(),
            elided.events.len(),
            "{label}: event count"
        );
        for (d, e) in dense.events.iter().zip(&elided.events) {
            assert_eq!(d, e, "{label}: event payloads diverged");
        }
        assert_eq!(
            elided.jumps > 0,
            elided.ticks_elided > 0,
            "{label}: jumps vs elided ticks"
        );
        if matches!(elision, Elision::Required) {
            assert!(elided.ticks_elided > 0, "{label}: must elide ticks");
            assert!(elided.jumps > 0, "{label}: must take jumps");
        }
        total_elided += elided.ticks_elided;
    }
    swarm_obs::set_enabled(false);
    assert_eq!(
        swarm_obs::dropped_events(),
        dropped_before,
        "the flight recorder dropped events"
    );
    assert!(total_elided > 0, "the sweep must exercise the fast-forward");
}
