//! Real-socket smoke test: 2 seeds + 3 leechers on 127.0.0.1.
//!
//! `#[ignore]` by default — it opens real TCP sockets and runs on the
//! wall clock, so it belongs to its own CI job (`net-tcp-smoke`), not
//! the deterministic test sweep. Run with:
//!
//! ```sh
//! cargo test -p swarm-net --test tcp_smoke -- --ignored
//! ```
//!
//! The run executes with full telemetry and hands the drained events
//! to the `swarm-trace` net analyzer: the wire-level conservation
//! invariants must hold over real sockets too, and the TCP host's
//! periodic `net.health` snapshots must be present. The run also serves
//! a live `GET /metrics` exposition, polled here mid-run from another
//! thread the way `repro watch` would from another process.

use swarm_net::{http_get, run_tcp_smoke_with, TcpSmokeOpts};

#[test]
#[ignore = "real sockets + wall clock; run explicitly or via the net-tcp-smoke CI job"]
fn two_seeds_three_leechers_complete_over_loopback_tcp() {
    swarm_obs::set_enabled(true);
    let _ = swarm_obs::drain_all();
    let _ = swarm_obs::take_series("net.tcp");
    // Generous ring: lifecycle events from five peer threads must not
    // be evicted, or request-resolution tracking would see gaps.
    swarm_obs::set_ring_capacity(1 << 18);

    // Poll the live exposition endpoint from a side thread while the
    // swarm runs, exactly as `repro watch` would.
    let (addr_tx, addr_rx) = std::sync::mpsc::channel();
    let watcher = std::thread::spawn(move || {
        let addr = addr_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("metrics endpoint came up");
        let mut last = String::new();
        for _ in 0..50 {
            std::thread::sleep(std::time::Duration::from_millis(100));
            match http_get(addr, "/metrics") {
                Ok(body) => last = body,
                Err(_) => break, // run finished, endpoint gone
            }
        }
        last
    });

    // 8 pieces of 100 kB, 20 ms ticks, up to 500 ticks (~10 s budget).
    let opts = TcpSmokeOpts {
        metrics_port: Some(0),
        on_metrics_addr: Some(addr_tx),
    };
    let report = run_tcp_smoke_with(2, 3, 8, 20, 500, &opts).expect("smoke swarm failed to run");
    let events = swarm_obs::drain_all();
    let ts = swarm_obs::take_series("net.tcp");
    swarm_obs::set_enabled(false);

    // The mid-run scrape saw parseable exposition text with live
    // window samples.
    let exposition = watcher.join().expect("watcher thread panicked");
    assert!(
        exposition.contains("swarm_ts_net_tcp_window_start"),
        "live scrape carried the windowed series:\n{exposition}"
    );
    assert!(exposition.contains("swarm_ts_net_tcp_peer_ticks"));
    assert!(report.metrics_addr.is_some(), "report records the endpoint");

    // The wall-tick series made it into the global registry: window
    // sums carry the whole swarm's completions.
    let ts = ts.expect("TCP host merged its recorder");
    let completions: u64 = ts
        .windows()
        .iter()
        .filter_map(|w| w.counters.get("completions"))
        .sum();
    assert_eq!(completions, 3, "one windowed completion per leecher");

    assert_eq!(
        report.completions, 3,
        "every leecher must finish; report: {report:?}"
    );
    // Leechers announce STOPPED when done, so the final census is the
    // two still-serving seeds and nobody else.
    assert_eq!(report.census, (2, 0), "tracker census: {report:?}");
    let slowest = report.slowest_completion_tick.expect("all completed");
    assert!(slowest <= 500, "completion within the tick budget");

    // Wire-level conservation invariants over real sockets.
    let runs = swarm_trace::collect_net_runs(&events);
    assert!(!runs.is_empty(), "lifecycle telemetry reached the sink");
    for trace in &runs {
        assert!(
            trace.violations.is_empty(),
            "run {}: {:#?}",
            trace.run,
            trace.violations
        );
    }
    let total: u64 = runs.iter().map(|t| t.completions()).sum();
    assert!(total >= 3 * 8, "one xfer.done per piece per leecher");
    assert!(
        runs.iter().any(|t| !t.health.is_empty()),
        "TCP host emitted periodic health snapshots"
    );
}
