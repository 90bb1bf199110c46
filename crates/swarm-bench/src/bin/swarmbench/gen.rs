//! Seeded input generators. Every engine input of every workload is built
//! here from `--seed` through the engines' public constructors; the same
//! seed always yields the same inputs.

use swarm_bt::{BtConfig, BtPublisher, CapacityDistribution};
use swarm_catalog::CatalogRunConfig;
use swarm_measurement::CatalogConfig;

/// SplitMix64: a seeded stream of independent 64-bit draws, salted per
/// workload so two workloads at one seed share no inputs.
pub struct SeedStream(u64);

impl SeedStream {
    pub fn new(seed: u64, salt: &str) -> SeedStream {
        let salt = salt.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        SeedStream(seed ^ salt)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Full-size inputs for the timed runs, or a tiny shape of the same
/// pipeline for the in-package tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Smoke,
}

/// `bt-busy`: §4.3 K=16 bundles (256 pieces) behind the paper's
/// exponential on/off publisher (means 300 s on, 900 s off), and §4.2
/// K=32 seedless swarms (512 pieces), in equal numbers.
///
/// One K=16 input costs from a quarter of the mean to twice it, depending
/// on how long its publisher happens to stay on, so a pass holds 24 of each
/// shape: enough distinct inputs that a run's latency statistics move
/// little from seed to seed.
pub fn busy_configs(seed: u64, size: Size) -> Vec<BtConfig> {
    let mut s = SeedStream::new(seed, "bt-busy");
    let (n, k16, k32, horizon) = match size {
        Size::Full => (24, 16, 32, None),
        Size::Smoke => (1, 2, 2, Some(200)),
    };
    let mut out = Vec::with_capacity(2 * n);
    for _ in 0..n {
        let mut cfg = BtConfig {
            drain_ticks: 600,
            ..BtConfig::paper_section_4_3(k16, s.next_u64())
        };
        if let Some(h) = horizon {
            cfg.horizon = h;
            cfg.drain_ticks = 0;
        }
        out.push(cfg);
    }
    for _ in 0..n {
        let mut cfg = BtConfig::paper_section_4_2(k32, s.next_u64());
        if let Some(h) = horizon {
            cfg.horizon = h;
        }
        out.push(cfg);
    }
    out
}

/// `bt-idle`: the `bt_idle` benchmark's two unavailable shapes — high
/// unavailability (the publisher seeds for ~30 s and never returns;
/// 300k-tick horizon) and mid unavailability (it returns for ~30 s about
/// every 3000 s; 100k ticks), both with exponential on/off dwells, in
/// equal numbers.
///
/// About one high-unavailability input in ten draws a long first seeding
/// phase, keeps trading late in the horizon and costs ~15x the others.
/// A pass holds 45 of each shape so that the share of such inputs, and
/// with it the run's latency statistics, moves little from seed to seed.
pub fn idle_configs(seed: u64, size: Size) -> Vec<BtConfig> {
    let mut s = SeedStream::new(seed, "bt-idle");
    let (n, high_h, mid_h) = match size {
        Size::Full => (45, 300_000, 100_000),
        Size::Smoke => (1, 20_000, 10_000),
    };
    let shape = |off_mean: f64, horizon: u64, seed: u64| BtConfig {
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
    };
    let mut out = Vec::with_capacity(2 * n);
    for _ in 0..n {
        out.push(shape(1.0e9, high_h, s.next_u64()));
    }
    for _ in 0..n {
        out.push(shape(3_000.0, mid_h, s.next_u64()));
    }
    out
}

/// One scripted live scenario: K=4 bundle, a square-wave publisher
/// (on 300 / off 120), `leechers` arrivals at seeded ticks in the first
/// half of the horizon with seeded upload capacities, no linger, no
/// drain — the constraints `swarm_net::run_live` replays exactly.
fn net_config(s: &mut SeedStream, leechers: usize, horizon: u64) -> BtConfig {
    let mut arrivals: Vec<(u64, f64)> = (0..leechers)
        .map(|_| {
            let tick = s.next_u64() % (horizon / 2);
            (tick, 30.0 + 40.0 * s.next_f64())
        })
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
        ..BtConfig::paper_section_4_3(4, s.next_u64())
    }
}

/// `net-loopback`: 48-leecher scenarios over 1800 ticks and 96-leecher
/// scenarios over 2400 ticks, three to one, so per-endpoint coordinator
/// cost shows.
pub fn net_configs(seed: u64, size: Size) -> Vec<BtConfig> {
    let mut s = SeedStream::new(seed, "net-loopback");
    let shapes: &[(usize, usize, u64)] = match size {
        Size::Full => &[(12, 48, 1_800), (4, 96, 2_400)],
        Size::Smoke => &[(1, 6, 300)],
    };
    let mut out = Vec::new();
    for &(count, leechers, horizon) in shapes {
        for _ in 0..count {
            out.push(net_config(&mut s, leechers, horizon));
        }
    }
    out
}

/// Is `cfg` a scenario the live engine can replay exactly? Mirrors the
/// checks `swarm_net::run_live` asserts on entry.
pub fn live_eligible(cfg: &BtConfig) -> bool {
    matches!(
        cfg.publisher,
        BtPublisher::AlwaysOn | BtPublisher::Periodic { .. }
    ) && cfg.linger_mean.is_none()
        && cfg.drain_ticks == 0
        && cfg.scripted_arrivals.is_some()
}

/// Catalog generation seed. The catalog's structure (category mix,
/// popularity, file lists) stays fixed so every seed walks the paper's
/// Fig. 1 population: with the structure drawn per seed, the single
/// heaviest swarm moved one pass's cost by ±20%. `--seed` drives the
/// per-swarm seed-process streams instead.
pub const CATALOG_STRUCTURE_SEED: u64 = 42;

/// `catalog`: the generated catalog at scale 0.01 (10,879 swarms) walked
/// for 7 months on `threads` shards.
pub fn catalog_inputs(seed: u64, size: Size, threads: usize) -> (CatalogConfig, CatalogRunConfig) {
    let mut s = SeedStream::new(seed, "catalog");
    let (scale, months) = match size {
        Size::Full => (0.01, 7),
        Size::Smoke => (0.001, 1),
    };
    (
        CatalogConfig {
            scale,
            seed: CATALOG_STRUCTURE_SEED,
        },
        CatalogRunConfig {
            catalog_seed: s.next_u64(),
            months,
            threads,
            start_at_generated_age: false,
        },
    )
}

/// `suite-quick`: the paper's fixed experiment list (the smoke size runs
/// two cheap experiments through the same orchestrator).
pub fn suite_ids(size: Size) -> Vec<&'static str> {
    match size {
        Size::Full => swarm_bench::EXPERIMENTS.to_vec(),
        Size::Smoke => vec!["table-bm", "ablation-zipf"],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest<T: std::fmt::Debug>(v: &T) -> String {
        format!("{v:?}")
    }

    #[test]
    fn generators_are_deterministic_and_seed_sensitive() {
        for size in [Size::Full, Size::Smoke] {
            let gens: [fn(u64, Size) -> Vec<BtConfig>; 3] =
                [busy_configs, idle_configs, net_configs];
            for g in gens {
                assert_eq!(digest(&g(1, size)), digest(&g(1, size)));
                assert_ne!(digest(&g(1, size)), digest(&g(2, size)));
            }
            assert_eq!(
                digest(&catalog_inputs(1, size, 2)),
                digest(&catalog_inputs(1, size, 2))
            );
            assert_ne!(
                digest(&catalog_inputs(1, size, 2)),
                digest(&catalog_inputs(2, size, 2))
            );
        }
    }

    #[test]
    fn every_generated_config_validates() {
        for size in [Size::Full, Size::Smoke] {
            for cfg in busy_configs(3, size)
                .iter()
                .chain(&idle_configs(3, size))
                .chain(&net_configs(3, size))
            {
                cfg.validate();
            }
        }
    }

    #[test]
    fn net_scripts_satisfy_live_constraints() {
        for seed in 0..20 {
            for cfg in net_configs(seed, Size::Full) {
                assert!(live_eligible(&cfg));
                let script = cfg.scripted_arrivals.as_ref().unwrap();
                assert!(script.windows(2).all(|w| w[0].0 <= w[1].0), "tick-sorted");
                assert!(script.iter().all(|&(t, up)| t < cfg.horizon && up > 0.0));
            }
        }
        assert_eq!(net_configs(1, Size::Full).len(), 16);
    }
}
