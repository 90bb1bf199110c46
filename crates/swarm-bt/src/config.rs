//! Block-level engine configuration.

use crate::capacity::CapacityDistribution;
use serde::{Deserialize, Serialize};

/// Downloader piece-selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PieceSelection {
    /// Mainline's rarest-first over the neighborhood (default).
    RarestFirst,
    /// Uniformly random among interesting pieces — the strawman Legout et
    /// al. (IMC'06) compare against; used by the selection ablation.
    Random,
    /// Lowest-index first — what a streaming client would do. Destroys
    /// piece diversity: every peer holds a prefix, so the swarm's union
    /// coverage collapses to the publisher's injection frontier.
    InOrder,
}

/// Publisher behavior over the run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BtPublisher {
    /// Always online (control runs).
    AlwaysOn,
    /// Exponential on/off alternation — §4.3's intermittent publisher
    /// (on 300 s at 100 kB/s, off 900 s).
    OnOff {
        /// Mean on-time in seconds.
        on_mean: f64,
        /// Mean off-time in seconds.
        off_mean: f64,
        /// Online at t = 0?
        initially_on: bool,
    },
    /// Stays until the first peer completes the full content, then leaves
    /// forever — §4.2's seedless-swarm experiment (Figure 4).
    UntilFirstCompletion,
    /// Deterministic square wave: online for `on_ticks`, offline for
    /// `off_ticks`, repeating. Unlike [`BtPublisher::OnOff`] this draws
    /// nothing from the RNG, so two runtimes with different RNG streams
    /// (the tick simulator and `swarm-net`'s live mode) share an
    /// identical availability schedule — the sim-vs-live equivalence
    /// scenarios are built on it.
    Periodic {
        /// Ticks per online phase.
        on_ticks: u64,
        /// Ticks per offline phase.
        off_ticks: u64,
        /// Online at t = 0?
        initially_on: bool,
    },
}

/// Configuration of one block-level swarm run.
///
/// Sizes are in kB and rates in kB/s; one tick is one second (the paper's
/// instrumented client logs rates every second).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BtConfig {
    /// Number of files bundled (K). Content size is `num_files·file_size`.
    pub num_files: u32,
    /// Size of each constituent file (kB). The paper uses 4 MB.
    pub file_size: f64,
    /// Piece size (kB). The default 256 kB gives 16 pieces per 4 MB file.
    pub piece_size: f64,
    /// Total peer arrival rate for the swarm (peers/s). For a K-bundle of
    /// files with per-file rate λ this is K·λ (or Σλᵢ when heterogeneous).
    pub arrival_rate: f64,
    /// Per-peer upload capacity distribution.
    pub peer_capacity: CapacityDistribution,
    /// Per-peer download cap (kB/s).
    pub download_cap: f64,
    /// Publisher upload capacity (kB/s).
    pub publisher_capacity: f64,
    /// Publisher availability process.
    pub publisher: BtPublisher,
    /// Super-seeding: the publisher serves each connection the globally
    /// least-injected piece instead of honoring rarest-first requests,
    /// maximizing the rate at which *new* pieces enter the swarm
    /// (mainline's optional super-seed mode).
    pub super_seed: bool,
    /// Downloader piece-selection policy.
    pub piece_selection: PieceSelection,
    /// Mean lingering time after completion, or `None` for selfish peers.
    pub linger_mean: Option<f64>,
    /// Regular unchoke slots per uploader (mainline uses 4).
    pub unchoke_slots: usize,
    /// Additional optimistic-unchoke slots (mainline uses 1).
    pub optimistic_slots: usize,
    /// Ticks between rechoke decisions (mainline rechokes every 10 s).
    /// Unchoke sets persist between rechokes, which is essential: it
    /// gives each unchoked peer a sustained stream instead of splitting
    /// capacity over everyone in expectation.
    pub rechoke_interval: u64,
    /// Maximum neighbors per peer.
    pub max_neighbors: usize,
    /// Peers returned by the tracker on join.
    pub tracker_response: usize,
    /// Ticks between PEX gossip rounds (0 disables PEX).
    pub pex_interval: u64,
    /// Arrival window in ticks (seconds): no peers arrive past this.
    pub horizon: u64,
    /// Extra ticks after the horizon during which the swarm keeps running
    /// so in-flight peers can finish (the paper's controller dispatches
    /// arrivals for the run length but collects traces after clients
    /// complete). 0 stops the world exactly at the horizon; peers still
    /// online when the drain budget runs out are censored.
    pub drain_ticks: u64,
    /// Peers arriving before this tick are excluded from per-peer metrics.
    pub warmup: u64,
    /// RNG seed.
    pub seed: u64,
    /// Record per-entity timeline segments (Figure 5).
    pub record_timeline: bool,
    /// Execute every tick densely instead of fast-forwarding across
    /// provably quiescent spans. The two are bit-for-bit equivalent (same
    /// RNG stream, same `BtResult`, same telemetry), which makes the dense
    /// loop the reference: the dense-vs-fast-forward equivalence suites,
    /// swarmbench's `bt-idle` output check and the `bt_idle` benchmark
    /// all run it beside the default.
    #[serde(default)]
    pub disable_fast_forward: bool,
    /// Scripted arrival schedule: explicit `(tick, upload_capacity)`
    /// pairs consumed in ascending tick order, replacing the Poisson
    /// process entirely (no arrival-time or capacity RNG draws). `None`
    /// (the default) keeps the stochastic process — and the RNG stream —
    /// exactly as before. Used by the sim-vs-live equivalence scenarios,
    /// which need both runtimes to see the same peers at the same ticks
    /// with the same capacities.
    #[serde(default)]
    pub scripted_arrivals: Option<Vec<(u64, f64)>>,
}

impl BtConfig {
    /// A §4.3-style configuration: K-file bundle of 4 MB files, per-file
    /// arrival rate λ = 1/60, homogeneous 50 kB/s peers, one 100 kB/s
    /// publisher alternating on 300 s / off 900 s.
    pub fn paper_section_4_3(k: u32, seed: u64) -> BtConfig {
        BtConfig {
            num_files: k,
            file_size: 4_000.0,
            piece_size: 250.0,
            arrival_rate: k as f64 / 60.0,
            peer_capacity: CapacityDistribution::Uniform(50.0),
            download_cap: 4_000.0,
            publisher_capacity: 100.0,
            publisher: BtPublisher::OnOff {
                on_mean: 300.0,
                off_mean: 900.0,
                initially_on: true,
            },
            super_seed: false,
            piece_selection: PieceSelection::RarestFirst,
            linger_mean: None,
            unchoke_slots: 4,
            optimistic_slots: 1,
            rechoke_interval: 10,
            max_neighbors: 55,
            tracker_response: 40,
            pex_interval: 30,
            horizon: 1_200,
            drain_ticks: 3_600,
            warmup: 0,
            seed,
            record_timeline: false,
            disable_fast_forward: false,
            scripted_arrivals: None,
        }
    }

    /// A §4.2-style configuration: K-file bundle, per-file λ = 1/150,
    /// 33 kB/s peers, 50 kB/s publisher that leaves after the first full
    /// download, 1500 s horizon.
    pub fn paper_section_4_2(k: u32, seed: u64) -> BtConfig {
        BtConfig {
            num_files: k,
            file_size: 4_000.0,
            piece_size: 250.0,
            arrival_rate: k as f64 / 150.0,
            peer_capacity: CapacityDistribution::Uniform(33.0),
            download_cap: 4_000.0,
            publisher_capacity: 50.0,
            publisher: BtPublisher::UntilFirstCompletion,
            super_seed: false,
            piece_selection: PieceSelection::RarestFirst,
            linger_mean: None,
            unchoke_slots: 4,
            optimistic_slots: 1,
            rechoke_interval: 10,
            max_neighbors: 55,
            tracker_response: 40,
            pex_interval: 30,
            horizon: 1_500,
            drain_ticks: 0,
            warmup: 0,
            seed,
            record_timeline: false,
            disable_fast_forward: false,
            scripted_arrivals: None,
        }
    }

    /// Total content size (kB).
    pub fn content_size(&self) -> f64 {
        self.num_files as f64 * self.file_size
    }

    /// Number of pieces the content splits into (last piece may be short).
    pub fn num_pieces(&self) -> usize {
        (self.content_size() / self.piece_size).ceil() as usize
    }

    /// Panic unless the configuration is self-consistent.
    pub fn validate(&self) {
        assert!(self.num_files >= 1, "need at least one file");
        assert!(self.file_size > 0.0 && self.file_size.is_finite());
        assert!(self.piece_size > 0.0 && self.piece_size <= self.content_size());
        assert!(self.arrival_rate > 0.0 && self.arrival_rate.is_finite());
        assert!(self.download_cap > 0.0);
        self.peer_capacity.validate();
        assert!(self.publisher_capacity > 0.0 && self.publisher_capacity.is_finite());
        assert!(
            self.unchoke_slots + self.optimistic_slots >= 1,
            "need at least one slot"
        );
        assert!(
            self.rechoke_interval >= 1,
            "rechoke interval must be at least one tick"
        );
        assert!(self.max_neighbors >= 1);
        assert!(self.tracker_response >= 1);
        assert!(self.horizon > 0);
        assert!(self.warmup < self.horizon, "warmup must precede horizon");
        if let Some(l) = self.linger_mean {
            assert!(l > 0.0 && l.is_finite());
        }
        match self.publisher {
            BtPublisher::OnOff {
                on_mean, off_mean, ..
            } => {
                assert!(on_mean > 0.0 && on_mean.is_finite());
                assert!(off_mean > 0.0 && off_mean.is_finite());
            }
            BtPublisher::Periodic {
                on_ticks,
                off_ticks,
                ..
            } => {
                assert!(on_ticks >= 1, "periodic on-phase must last a tick");
                assert!(off_ticks >= 1, "periodic off-phase must last a tick");
            }
            BtPublisher::AlwaysOn | BtPublisher::UntilFirstCompletion => {}
        }
        if let Some(script) = &self.scripted_arrivals {
            let mut prev = 0u64;
            for &(tick, upload) in script {
                assert!(tick >= prev, "scripted arrivals must be tick-sorted");
                assert!(tick < self.horizon, "scripted arrival past horizon");
                assert!(upload > 0.0 && upload.is_finite());
                prev = tick;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_presets_are_valid() {
        for k in [1u32, 4, 10] {
            BtConfig::paper_section_4_2(k, 0).validate();
            BtConfig::paper_section_4_3(k, 0).validate();
        }
    }

    #[test]
    fn piece_count_scales_with_bundle() {
        let c1 = BtConfig::paper_section_4_3(1, 0);
        let c4 = BtConfig::paper_section_4_3(4, 0);
        assert_eq!(c1.num_pieces(), 16);
        assert_eq!(c4.num_pieces(), 64);
        assert_eq!(c4.content_size(), 16_000.0);
    }

    #[test]
    fn arrival_rate_sums_per_file_demand() {
        let c3 = BtConfig::paper_section_4_3(3, 0);
        assert!((c3.arrival_rate - 3.0 / 60.0).abs() < 1e-12);
    }

    #[test]
    fn periodic_publisher_and_scripted_arrivals_validate() {
        let mut c = BtConfig::paper_section_4_3(1, 0);
        c.publisher = BtPublisher::Periodic {
            on_ticks: 150,
            off_ticks: 60,
            initially_on: true,
        };
        c.scripted_arrivals = Some(vec![(0, 50.0), (3, 40.0), (3, 40.0), (10, 25.0)]);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "tick-sorted")]
    fn rejects_unsorted_script() {
        let mut c = BtConfig::paper_section_4_3(1, 0);
        c.scripted_arrivals = Some(vec![(10, 50.0), (3, 40.0)]);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "past horizon")]
    fn rejects_script_past_horizon() {
        let mut c = BtConfig::paper_section_4_3(1, 0);
        c.scripted_arrivals = Some(vec![(c.horizon, 50.0)]);
        c.validate();
    }

    #[test]
    fn scripted_arrivals_default_to_none_in_serde() {
        // Old serialized configs (without the field) must keep decoding.
        let c = BtConfig::paper_section_4_3(1, 7);
        let mut v = serde_json::to_value(&c).expect("encode");
        if let serde_json::Value::Object(map) = &mut v {
            map.remove("scripted_arrivals");
        }
        let back: BtConfig = serde_json::from_value(v).expect("decode");
        assert_eq!(back, c);
    }

    fn with_capacity(peer_capacity: CapacityDistribution) -> BtConfig {
        BtConfig {
            peer_capacity,
            ..BtConfig::paper_section_4_3(1, 0)
        }
    }

    #[test]
    fn capacity_distributions_validate() {
        with_capacity(CapacityDistribution::BitTyrant).validate();
        with_capacity(CapacityDistribution::Empirical(vec![
            (0.5, 10.0),
            (1.0, 30.0),
        ]))
        .validate();
    }

    #[test]
    #[should_panic(expected = "uniform capacity must be positive and finite")]
    fn rejects_negative_uniform_capacity() {
        with_capacity(CapacityDistribution::Uniform(-50.0)).validate();
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn rejects_empty_capacity_table() {
        with_capacity(CapacityDistribution::Empirical(vec![])).validate();
    }

    #[test]
    #[should_panic(expected = "strictly ascend within (0, 1]")]
    fn rejects_unsorted_capacity_table() {
        let table = vec![(0.6, 10.0), (0.6, 20.0), (1.0, 30.0)];
        with_capacity(CapacityDistribution::Empirical(table)).validate();
    }

    #[test]
    #[should_panic(expected = "end at probability 1.0")]
    fn rejects_capacity_table_short_of_one() {
        let table = vec![(0.5, 10.0), (0.9, 20.0)];
        with_capacity(CapacityDistribution::Empirical(table)).validate();
    }

    #[test]
    #[should_panic(expected = "rates must be positive and finite")]
    fn rejects_nan_capacity_rate() {
        let table = vec![(0.5, 50.0), (1.0, f64::NAN)];
        with_capacity(CapacityDistribution::Empirical(table)).validate();
    }

    #[test]
    #[should_panic(expected = "warmup must precede horizon")]
    fn rejects_warmup_past_horizon() {
        let mut c = BtConfig::paper_section_4_3(1, 0);
        c.warmup = c.horizon;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn rejects_zero_slots() {
        let mut c = BtConfig::paper_section_4_3(1, 0);
        c.unchoke_slots = 0;
        c.optimistic_slots = 0;
        c.validate();
    }
}
