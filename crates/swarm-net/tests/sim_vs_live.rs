//! The tentpole guarantees, as tests:
//!
//! 1. **Sim-vs-live equivalence** — the canonical scripted scenarios
//!    produce *exactly equal* deterministic counters (ticks, arrivals,
//!    completions, availability transitions) and availability fractions
//!    in the `swarm-bt` simulator and the live networked engine.
//! 2. **Reproducibility** — repeated live runs of one config are
//!    bit-identical: the result is a pure function of the config.

use swarm_bt::run as run_sim;
use swarm_net::scenarios;
use swarm_net::{run_live, HostMode};

/// Availability transitions of a sim run, recovered from the scenario's
/// schedule-driven design: with every completion inside the first
/// publisher on-phase, availability equals the publisher square wave,
/// whose flip count is fully determined by the config. For always-on
/// scenarios that is 0; for the Periodic scenario it is one flip per
/// schedule edge inside the horizon.
fn scheduled_transitions(cfg: &swarm_bt::BtConfig) -> u64 {
    match cfg.publisher {
        swarm_bt::BtPublisher::AlwaysOn => 0,
        swarm_bt::BtPublisher::Periodic {
            on_ticks,
            off_ticks,
            ..
        } => {
            let period = on_ticks + off_ticks;
            let mut flips = 0;
            let mut last = true;
            for t in 0..cfg.horizon {
                let on = t % period < on_ticks;
                if on != last {
                    flips += 1;
                    last = on;
                }
            }
            flips
        }
        _ => unreachable!("scenarios use deterministic schedules"),
    }
}

#[test]
fn sim_and_live_agree_exactly_on_scenario_a() {
    let cfg = scenarios::scenario_a(42);
    let sim = run_sim(&cfg);
    let live = run_live(&cfg, HostMode::SingleThread);

    assert_eq!(
        live.ticks, cfg.horizon,
        "drain-free run is exactly the horizon"
    );
    assert_eq!(sim.arrivals, live.arrivals, "arrivals");
    assert_eq!(sim.arrivals, 8);
    assert_eq!(sim.completions, live.completions, "completions");
    assert_eq!(sim.completions, 8, "every scripted leecher completes");
    assert_eq!(sim.availability, live.availability, "availability fraction");
    assert_eq!(sim.availability, 1.0);
    assert_eq!(live.availability_transitions, scheduled_transitions(&cfg));
    assert_eq!(live.availability_transitions, 0);
    assert_eq!(sim.publisher_intervals, live.publisher_intervals);
    assert_eq!(sim.last_available_tick, live.last_available_tick);
}

#[test]
fn sim_and_live_agree_exactly_on_scenario_b() {
    let cfg = scenarios::scenario_b(7);
    let sim = run_sim(&cfg);
    let live = run_live(&cfg, HostMode::SingleThread);

    assert_eq!(live.ticks, cfg.horizon);
    assert_eq!(sim.arrivals, live.arrivals);
    assert_eq!(sim.arrivals, 10);
    assert_eq!(sim.completions, live.completions);
    assert_eq!(sim.completions, 10);
    assert_eq!(sim.availability, live.availability);
    assert!((sim.availability - 300.0 / 360.0).abs() < 1e-12);
    assert_eq!(live.availability_transitions, scheduled_transitions(&cfg));
    assert_eq!(
        live.availability_transitions, 2,
        "off at 150, back on at 210"
    );
    assert_eq!(sim.publisher_intervals, live.publisher_intervals);
    assert_eq!(sim.publisher_intervals, vec![(0, 150), (210, 360)]);
    assert_eq!(sim.last_available_tick, live.last_available_tick);
}

#[test]
fn completions_happen_inside_the_first_on_phase_in_both_engines() {
    // The construction that makes exact equivalence possible: every
    // completion lands before the first publisher departure, in both
    // engines, with margin.
    let cfg = scenarios::scenario_b(7);
    let sim = run_sim(&cfg);
    let live = run_live(&cfg, HostMode::SingleThread);
    let sim_last = sim.completion_curve.last().map(|&(t, _)| t).unwrap();
    let live_last = live.completion_curve.last().map(|&(t, _)| t).unwrap();
    assert!(sim_last < 150, "sim finished at {sim_last}");
    assert!(live_last < 150, "live finished at {live_last}");
}

#[test]
fn live_counters_snapshot_matches_result_fields() {
    let cfg = scenarios::scenario_a(42);
    let live = run_live(&cfg, HostMode::SingleThread);
    assert_eq!(live.counters["net.ticks"], live.ticks);
    assert_eq!(live.counters["net.arrivals"], live.arrivals);
    assert_eq!(live.counters["net.completions"], live.completions);
    assert_eq!(
        live.counters["net.availability.transitions"],
        live.availability_transitions
    );
    assert_eq!(
        live.counters["net.bytes_moved"],
        live.bytes_moved.round() as u64
    );
    assert!(
        live.bytes_moved >= 8.0 * 1_000.0,
        "each leecher pulled the content"
    );
}

#[test]
fn repeated_runs_are_bit_identical() {
    let cfg = scenarios::scenario_b(7);
    let a = run_live(&cfg, HostMode::SingleThread);
    let b = run_live(&cfg, HostMode::SingleThread);
    assert_eq!(a.counters, b.counters);
    assert_eq!(a.availability_flips, b.availability_flips);
    assert_eq!(a.completion_curve, b.completion_curve);
    assert_eq!(a.bytes_moved.to_bits(), b.bytes_moved.to_bits());
    assert_eq!(a.messages, b.messages);
}
