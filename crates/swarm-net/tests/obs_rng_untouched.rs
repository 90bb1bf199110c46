//! Instrumentation must be a pure observer: turning telemetry on must
//! not consume a single RNG draw or reorder a single frame. This file
//! is its own test binary (one `#[test]`) because it toggles the global
//! `swarm_obs` enable flag, which must not race with other tests.

use swarm_bt::run as run_sim;
use swarm_net::scenarios;
use swarm_net::{run_live, HostMode};

#[test]
fn telemetry_probes_leave_the_protocol_untouched() {
    // Baseline: instrumentation off.
    swarm_obs::set_enabled(false);
    let mut baseline = Vec::new();
    for (name, cfg) in scenarios::all(42) {
        baseline.push((name, run_live(&cfg, HostMode::SingleThread)));
    }

    // Same scenarios with every probe live.
    swarm_obs::set_enabled(true);
    for (name, cfg) in scenarios::all(42) {
        let sim = run_sim(&cfg);
        let on = run_live(&cfg, HostMode::SingleThread);
        let (_, off) = baseline.iter().find(|(n, _)| *n == name).unwrap();

        // Obs-on vs obs-off: identical deterministic outcome.
        assert_eq!(off.counters, on.counters, "{name}: counters drifted");
        assert_eq!(
            off.availability.to_bits(),
            on.availability.to_bits(),
            "{name}: availability"
        );
        assert_eq!(
            off.bytes_moved.to_bits(),
            on.bytes_moved.to_bits(),
            "{name}: bytes moved"
        );
        assert_eq!(off.completion_curve, on.completion_curve, "{name}");
        assert_eq!(off.messages, on.messages, "{name}: message counts");

        // Sim-vs-live exactness still holds with probes on.
        assert_eq!(sim.arrivals, on.arrivals, "{name}: arrivals");
        assert_eq!(sim.completions, on.completions, "{name}: completions");
        assert_eq!(sim.availability, on.availability, "{name}: availability");
        assert_eq!(sim.publisher_intervals, on.publisher_intervals, "{name}");
    }

    // The probes did fire: lifecycle events reached the sink.
    let events = swarm_obs::drain_all();
    assert!(
        events.iter().any(|e| e.kind == "net.conn"),
        "expected connection lifecycle events while enabled"
    );
    assert!(
        events.iter().any(|e| e.kind == "net.xfer"),
        "expected transfer lifecycle events while enabled"
    );
    swarm_obs::set_enabled(false);
}
