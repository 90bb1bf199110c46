//! The `"net"` time series against the scalar counters.
//!
//! The live engine's recorder runs on the coordinator between rounds,
//! observing counter deltas in endpoint-id order. Its windows must tile
//! the run from tick 0, and their sums must reconcile exactly with the
//! run's totals.
//!
//! Own test binary: it owns the process-global `swarm-obs` state
//! (enable switch + timeseries registry), which must not race with
//! other tests' runs.

use swarm_net::scenarios;
use swarm_net::{run_live, HostMode, NET_TS_WINDOW};

#[test]
fn windows_tile_the_run_and_sum_to_the_counters() {
    swarm_obs::set_enabled(true);
    for (name, cfg) in scenarios::all(42) {
        let _ = swarm_obs::take_series("net");
        let live = run_live(&cfg, HostMode::SingleThread);
        assert!(
            !live.timeseries.is_empty(),
            "{name}: enabled run must carry windows"
        );

        let mut next = 0;
        for w in &live.timeseries {
            assert_eq!(w.start, next, "{name}: windows must tile");
            assert!(w.len >= NET_TS_WINDOW, "{name}: window spans >= base width");
            next = w.start + w.len;
        }
        let sum = |key: &str| -> u64 {
            live.timeseries
                .iter()
                .filter_map(|w| w.counters.get(key))
                .sum()
        };
        assert_eq!(sum("ticks"), live.ticks, "{name}: ticks");
        assert_eq!(sum("arrivals"), live.arrivals, "{name}: arrivals");
        assert_eq!(sum("completions"), live.completions, "{name}: completions");
        assert_eq!(
            sum("bytes_moved"),
            live.bytes_moved.round() as u64,
            "{name}: windowed byte deltas telescope to the total"
        );
    }
    let _ = swarm_obs::take_series("net");
    swarm_obs::set_enabled(false);
}
