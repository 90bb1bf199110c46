//! The scripted swarm shape shared by the golden-digest, heap and
//! sim-vs-live suites.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use swarm_bt::{BtConfig, BtPublisher, CapacityDistribution};

/// A scripted swarm shaped like a swarmbench `net-loopback` input:
/// `leechers` arrivals at seeded ticks in the first half of the horizon,
/// seeded upload capacities in [30, 70) kB/tick, K=4 behind a 300/120
/// square-wave publisher, no linger, no drain.
pub fn loopback_shaped(seed: u64, leechers: usize, horizon: u64) -> BtConfig {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut arrivals: Vec<(u64, f64)> = (0..leechers)
        .map(|_| (rng.gen_range(0..horizon / 2), rng.gen_range(30.0..70.0)))
        .collect();
    arrivals.sort_by_key(|&(tick, _)| tick);
    BtConfig {
        publisher: BtPublisher::Periodic {
            on_ticks: 300,
            off_ticks: 120,
            initially_on: true,
        },
        peer_capacity: CapacityDistribution::Uniform(50.0),
        horizon,
        drain_ticks: 0,
        linger_mean: None,
        scripted_arrivals: Some(arrivals),
        ..BtConfig::paper_section_4_3(4, seed)
    }
}
