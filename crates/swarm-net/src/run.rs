//! Deterministic live-swarm coordinator.
//!
//! Runs a scripted `BtConfig` scenario as a *networked* swarm: one
//! [`TrackerCore`] plus one [`PeerCore`] per participant, exchanging
//! encoded wire frames over a [`LoopbackHub`] in virtual ticks. Each
//! tick the coordinator sets the publisher's schedule, steps every
//! endpoint in id order on the caller's thread, delivers the round's
//! frames, and aggregates across endpoints in id order. A frame becomes
//! readable only in the round after it was sent, in (sender, send
//! order), so a run is a pure function of its config.
//!
//! Telemetry mirrors the sim's `bt.*` namespace as `net.*`: the
//! deterministic counters (`net.ticks`, `net.arrivals`, …) carry the
//! same meanings as their `bt.*` twins, while anything wall-clock-ish
//! stays under a `_ns` suffix so the trace-diff gate never compares
//! scheduler noise.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use swarm_bt::{Bitfield, BtConfig, BtPublisher};

use crate::peer::{PeerCore, PeerParams, PUBLISHER, TRACKER};
use crate::tracker::TrackerCore;
use crate::transport::{records, LoopbackHub};
use crate::wire::Message;

/// Process-wide run ordinal for `net.run.*` events (mirrors the sim's
/// run counter so traces from repeated runs stay distinguishable).
static NET_RUN_SEQ: AtomicU64 = AtomicU64::new(0);

/// Claim the next `net.run.*` ordinal — shared with the TCP host so
/// loopback and socket runs in one process never collide on a run id.
pub(crate) fn next_net_run_ordinal() -> u64 {
    NET_RUN_SEQ.fetch_add(1, Ordering::Relaxed)
}

/// How the deterministic host schedules endpoint work. There is one
/// host, so one variant; the type and [`run_live`]'s argument remain
/// because swarmbench's sources pass them, and those change only with
/// the benchmark itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostMode {
    /// Endpoints stepped in id order on the caller's thread.
    SingleThread,
}

/// Result of one live run — the networked twin of `BtResult`, carrying
/// exactly the aggregates the sim-vs-live diff compares plus the
/// network-side extras.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NetResult {
    /// Ticks executed (always the horizon; live mode runs drain-free
    /// scenarios).
    pub ticks: u64,
    /// Leechers that joined the swarm.
    pub arrivals: u64,
    /// Leechers that finished the download.
    pub completions: u64,
    /// Fraction of ticks with the content fully available.
    pub availability: f64,
    /// Availability flips after the initial latch (the sim's
    /// `bt.availability.transitions`).
    pub availability_transitions: u64,
    /// `(tick, available)` at each transition, initial state included.
    pub availability_flips: Vec<(u64, bool)>,
    pub last_available_tick: Option<u64>,
    /// `(completion tick, cumulative completions)`.
    pub completion_curve: Vec<(u64, u64)>,
    /// Publisher online intervals `(start, end)` in ticks.
    pub publisher_intervals: Vec<(u64, u64)>,
    /// kB accepted by receivers over the whole run.
    pub bytes_moved: f64,
    /// Wire frames processed by peers.
    pub messages: u64,
    /// Announces served by the tracker.
    pub announces: u64,
    /// Deterministic counter snapshot, keyed by `net.*` name — the same
    /// values land in the process registry when telemetry is on, but
    /// tests read them here to stay independent of global state.
    pub counters: BTreeMap<String, u64>,
    /// Tick-windowed counter deltas (the `"net"` time series), recorded
    /// coordinator-side between rounds in id order, and carried here so
    /// tests can compare series without the global registry. Empty while
    /// telemetry is off.
    #[serde(default)]
    pub timeseries: Vec<swarm_obs::Window>,
}

/// Window width of the live engine's time series, in virtual ticks.
/// Scenarios are a few hundred ticks, so 16-tick windows give the
/// analyzer enough resolution to see availability dips.
pub const NET_TS_WINDOW: u64 = 16;

/// Per-run window recorder plus the previous cumulative totals (the
/// aggregator tracks run totals; the series wants per-tick deltas).
///
/// The hot `observe` path only does integer math on the `acc_*`
/// fields; the recorder's string-keyed maps are touched once per
/// window boundary (and once at finish), not once per tick.
struct NetTs {
    rec: swarm_obs::Recorder,
    prev_arrivals: u64,
    prev_completions: u64,
    prev_transitions: u64,
    prev_bytes: u64,
    /// Tick of the last `observe` folded into the accumulators; names
    /// the window the pending deltas belong to.
    acc_tick: u64,
    acc_ticks: u64,
    acc_available: u64,
    acc_arrivals: u64,
    acc_completions: u64,
    acc_transitions: u64,
    acc_bytes: u64,
}

impl NetTs {
    fn new() -> NetTs {
        NetTs {
            rec: swarm_obs::Recorder::new(NET_TS_WINDOW),
            prev_arrivals: 0,
            prev_completions: 0,
            prev_transitions: 0,
            prev_bytes: 0,
            acc_tick: 0,
            acc_ticks: 0,
            acc_available: 0,
            acc_arrivals: 0,
            acc_completions: 0,
            acc_transitions: 0,
            acc_bytes: 0,
        }
    }

    /// Fold the pending per-tick deltas into the recorder. Flushing is
    /// additive, so flushing more often than the (possibly downsampled)
    /// slot width is always correct — the boundary check in `observe`
    /// uses the base window width for exactly that reason.
    fn flush(&mut self) {
        if self.acc_ticks == 0 {
            return;
        }
        self.rec.add_batch(
            self.acc_tick,
            &[
                ("ticks", self.acc_ticks),
                ("available_ticks", self.acc_available),
                ("arrivals", self.acc_arrivals),
                ("completions", self.acc_completions),
                ("transitions", self.acc_transitions),
                ("bytes_moved", self.acc_bytes),
            ],
        );
        self.acc_ticks = 0;
        self.acc_available = 0;
        self.acc_arrivals = 0;
        self.acc_completions = 0;
        self.acc_transitions = 0;
        self.acc_bytes = 0;
    }
}

/// SplitMix64 expansion, identical to swarm-catalog's stream keying.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The private ChaCha8 stream of endpoint `id` under `seed`. Keyed the
/// way swarm-catalog keys per-swarm streams, so per-endpoint randomness
/// is independent of how many endpoints exist.
pub fn peer_stream(seed: u64, id: u64) -> ChaCha8Rng {
    use rand::SeedableRng;
    let mut state = seed ^ id.wrapping_mul(0xA076_1D64_78BD_642F);
    let mut key = [0u8; 32];
    for chunk in key.chunks_exact_mut(8) {
        chunk.copy_from_slice(&splitmix64(&mut state).to_le_bytes());
    }
    ChaCha8Rng::from_seed(key)
}

/// Is the publisher scheduled online at `tick`? Mirrors the sim's
/// square-wave semantics for `Periodic` (on-phase first when
/// `initially_on`).
pub fn publisher_online_at(publisher: &BtPublisher, tick: u64) -> bool {
    match publisher {
        BtPublisher::AlwaysOn => true,
        BtPublisher::Periodic {
            on_ticks,
            off_ticks,
            initially_on,
        } => {
            let phase = tick % (on_ticks + off_ticks);
            if *initially_on {
                phase < *on_ticks
            } else {
                phase >= *off_ticks
            }
        }
        _ => unreachable!("live mode requires a deterministic publisher schedule"),
    }
}

/// One hub endpoint: the tracker or a peer.
enum Endpoint {
    // The RNG is boxed: `ChaCha8Rng` carries a 4-block keystream buffer,
    // which would otherwise dwarf the `Peer` variant.
    Tracker {
        core: TrackerCore,
        rng: Box<ChaCha8Rng>,
    },
    Peer(Box<PeerCore>),
}

impl Endpoint {
    fn peer(&self) -> &PeerCore {
        match self {
            Endpoint::Peer(core) => core,
            Endpoint::Tracker { .. } => unreachable!("endpoint 0 is the tracker"),
        }
    }
}

/// Drain, decode, step, encode, send — one endpoint's whole round. The
/// inbox is decoded one message at a time as the endpoint consumes it,
/// and freed before the replies are sent. `out` is empty between calls;
/// one buffer serves every endpoint.
fn step_endpoint(
    ep: &mut Endpoint,
    id: usize,
    tick: u64,
    hub: &mut LoopbackHub,
    out: &mut Vec<(usize, Message)>,
) {
    let inbox = hub.take_inbox(id);
    match ep {
        Endpoint::Tracker { core, rng } => {
            for (from, msg) in records(&inbox) {
                core.handle(from, &msg, &mut **rng, out);
            }
        }
        Endpoint::Peer(core) => core.step(tick, records(&inbox), out),
    }
    drop(inbox);
    for (to, msg) in out.drain(..) {
        hub.send(id, to, &msg);
    }
}

/// Check that `cfg` describes a scenario live mode can replay exactly:
/// scripted arrivals (no Poisson draws), a deterministic publisher
/// schedule, no linger, no drain.
fn validate_live(cfg: &BtConfig) -> &[(u64, f64)] {
    cfg.validate();
    assert!(
        matches!(
            cfg.publisher,
            BtPublisher::AlwaysOn | BtPublisher::Periodic { .. }
        ),
        "live mode needs a schedule-driven publisher (AlwaysOn or Periodic)"
    );
    assert!(cfg.linger_mean.is_none(), "live mode is linger-free");
    assert_eq!(cfg.drain_ticks, 0, "live mode runs without a drain window");
    cfg.scripted_arrivals
        .as_deref()
        .expect("live mode needs scripted arrivals")
}

/// Run the scripted scenario in `cfg` as a live networked swarm.
pub fn run_live(cfg: &BtConfig, _mode: HostMode) -> NetResult {
    let script = validate_live(cfg);
    let run_ord = next_net_run_ordinal();
    let num_pieces = cfg.num_pieces();
    let params = PeerParams {
        num_pieces,
        piece_size: cfg.piece_size,
        unchoke_slots: cfg.unchoke_slots,
        optimistic_slots: cfg.optimistic_slots,
        rechoke_interval: cfg.rechoke_interval,
        pex_interval: cfg.pex_interval,
        max_neighbors: cfg.max_neighbors,
        run: run_ord,
    };

    // Endpoint layout: 0 tracker, 1 publisher, 2.. one leecher per
    // scripted arrival.
    let n = 2 + script.len();
    let mut endpoints: Vec<Endpoint> = Vec::with_capacity(n);
    endpoints.push(Endpoint::Tracker {
        core: TrackerCore::new(cfg.tracker_response),
        rng: Box::new(peer_stream(cfg.seed, TRACKER as u64)),
    });
    endpoints.push(Endpoint::Peer(Box::new(PeerCore::publisher(
        PUBLISHER,
        cfg.publisher_capacity,
        params,
        peer_stream(cfg.seed, PUBLISHER as u64),
    ))));
    for (i, &(arrive, upload)) in script.iter().enumerate() {
        let id = 2 + i;
        endpoints.push(Endpoint::Peer(Box::new(PeerCore::leecher(
            id,
            arrive,
            upload,
            cfg.download_cap,
            params,
            peer_stream(cfg.seed, id as u64),
        ))));
    }
    let mut hub = LoopbackHub::new(n);

    if swarm_obs::enabled() {
        let publisher_kind = match cfg.publisher {
            BtPublisher::AlwaysOn => "always_on",
            _ => "periodic",
        };
        swarm_obs::emit(
            "net.run.start",
            &[
                ("run", swarm_obs::val(run_ord)),
                ("k", swarm_obs::val(cfg.num_files as u64)),
                ("file_size", swarm_obs::val(cfg.file_size)),
                ("pieces", swarm_obs::val(num_pieces as u64)),
                ("horizon", swarm_obs::val(cfg.horizon)),
                ("seed", swarm_obs::val(cfg.seed)),
                ("publisher", swarm_obs::val(publisher_kind)),
                ("peers", swarm_obs::val(script.len() as u64)),
            ],
        );
    }

    let mut agg = Aggregator::new(cfg, run_ord);
    let mut out = Vec::new();
    for tick in 0..cfg.horizon {
        let t0 = std::time::Instant::now();
        let Endpoint::Peer(publisher) = &mut endpoints[PUBLISHER] else {
            unreachable!("endpoint 1 is the publisher")
        };
        publisher.set_online(publisher_online_at(&cfg.publisher, tick));
        for (id, ep) in endpoints.iter_mut().enumerate() {
            step_endpoint(ep, id, tick, &mut hub, &mut out);
        }
        hub.deliver_round();
        agg.observe(tick, &endpoints);
        if swarm_obs::enabled() {
            swarm_obs::histogram("stats.net.tick_ns").record_duration(t0.elapsed());
        }
    }
    agg.finish(&endpoints)
}

/// Coordinator-side aggregation: the live twin of the sim's per-tick
/// `account` (availability credit and transitions) + completion
/// accounting. Runs between rounds and iterates endpoints in id order.
struct Aggregator {
    horizon: u64,
    warmup: u64,
    num_pieces: usize,
    run_ord: u64,
    available_ticks: u64,
    last_available: Option<bool>,
    transitions: u64,
    flips: Vec<(u64, bool)>,
    last_available_tick: Option<u64>,
    arrivals: u64,
    arrival_seen: Vec<bool>,
    completion_seen: Vec<bool>,
    completions: u64,
    completion_curve: Vec<(u64, u64)>,
    publisher_was_on: bool,
    publisher_on_since: u64,
    publisher_intervals: Vec<(u64, u64)>,
    /// `"net"` series recorder; `None` while telemetry is off.
    ts: Option<NetTs>,
}

impl Aggregator {
    fn new(cfg: &BtConfig, run_ord: u64) -> Self {
        Aggregator {
            horizon: cfg.horizon,
            warmup: cfg.warmup,
            num_pieces: cfg.num_pieces(),
            run_ord,
            available_ticks: 0,
            last_available: None,
            transitions: 0,
            flips: Vec::new(),
            last_available_tick: None,
            arrivals: 0,
            arrival_seen: Vec::new(),
            completion_seen: Vec::new(),
            completions: 0,
            completion_curve: Vec::new(),
            publisher_was_on: false,
            publisher_on_since: 0,
            publisher_intervals: Vec::new(),
            ts: swarm_obs::series_active().then(NetTs::new),
        }
    }

    fn observe(&mut self, tick: u64, endpoints: &[Endpoint]) {
        let leechers = endpoints.len() - 2;
        if self.arrival_seen.is_empty() {
            self.arrival_seen = vec![false; leechers];
            self.completion_seen = vec![false; leechers];
        }
        let mut union = Bitfield::new(self.num_pieces);
        // Cumulative kB received so far (publisher included, matching
        // `finish`'s sum), summed in id order.
        let publisher = endpoints[PUBLISHER].peer();
        let mut cum_bytes = publisher.bytes_received;
        let pub_online = publisher.online;
        if pub_online && !self.publisher_was_on {
            self.publisher_on_since = tick;
        } else if !pub_online && self.publisher_was_on {
            self.publisher_intervals
                .push((self.publisher_on_since, tick));
        }
        self.publisher_was_on = pub_online;
        let mut newly_done: Vec<u64> = Vec::new();
        for (i, ep) in endpoints.iter().enumerate().skip(2) {
            let core = ep.peer();
            let slot = i - 2;
            cum_bytes += core.bytes_received;
            if core.online {
                union.union_with(&core.bitfield);
            }
            if !self.arrival_seen[slot] && (core.online || core.departed) {
                self.arrival_seen[slot] = true;
                if core.arrived >= self.warmup {
                    self.arrivals += 1;
                }
            }
            if !self.completion_seen[slot] {
                if let Some(done) = core.completed {
                    self.completion_seen[slot] = true;
                    self.completions += 1;
                    newly_done.push(done);
                }
            }
        }
        for done in newly_done {
            let total = self.completion_curve.last().map_or(0, |&(_, n)| n) + 1;
            self.completion_curve.push((done, total));
        }
        let available = pub_online || union.is_complete();
        if self.last_available != Some(available) {
            if self.last_available.is_some() {
                self.transitions += 1;
            }
            self.last_available = Some(available);
            self.flips.push((tick, available));
            if swarm_obs::enabled() {
                swarm_obs::emit(
                    "net.availability",
                    &[
                        ("run", swarm_obs::val(self.run_ord)),
                        ("tick", swarm_obs::val(tick)),
                        ("available", swarm_obs::val(available)),
                        ("covered", swarm_obs::val(union.count() as u64)),
                    ],
                );
            }
        }
        if available {
            self.available_ticks += 1;
            self.last_available_tick = Some(tick);
        }
        // Windowed time series: per-tick deltas of the run totals this
        // function maintains, all computed coordinator-side in id order.
        if let Some(ts) = &mut self.ts {
            if ts.acc_ticks > 0 && tick / NET_TS_WINDOW != ts.acc_tick / NET_TS_WINDOW {
                ts.flush();
            }
            ts.acc_tick = tick;
            ts.acc_ticks += 1;
            ts.acc_available += u64::from(available);
            ts.acc_arrivals += self.arrivals - ts.prev_arrivals;
            ts.acc_completions += self.completions - ts.prev_completions;
            ts.acc_transitions += self.transitions - ts.prev_transitions;
            // Rounded-cumulative deltas telescope: the window sums
            // reconcile exactly with `net.bytes_moved` at finish.
            let rounded = cum_bytes.round() as u64;
            ts.acc_bytes += rounded.saturating_sub(ts.prev_bytes);
            ts.prev_arrivals = self.arrivals;
            ts.prev_completions = self.completions;
            ts.prev_transitions = self.transitions;
            ts.prev_bytes = rounded;
        }
        if swarm_obs::enabled() && tick.is_multiple_of(64) {
            swarm_obs::emit(
                "net.tick",
                &[
                    ("run", swarm_obs::val(self.run_ord)),
                    ("tick", swarm_obs::val(tick)),
                    ("covered", swarm_obs::val(union.count() as u64)),
                    ("completions", swarm_obs::val(self.completions)),
                ],
            );
        }
    }

    fn finish(mut self, endpoints: &[Endpoint]) -> NetResult {
        if self.publisher_was_on {
            self.publisher_intervals
                .push((self.publisher_on_since, self.horizon));
        }
        let mut bytes_moved = 0.0;
        let mut messages = 0;
        let mut rechokes = 0;
        for core in endpoints.iter().skip(1).map(Endpoint::peer) {
            bytes_moved += core.bytes_received;
            messages += core.messages_handled;
            rechokes += core.rechokes;
        }
        let Endpoint::Tracker { core, .. } = &endpoints[TRACKER] else {
            unreachable!("endpoint 0 is the tracker")
        };
        let announces = core.announces;
        let timeseries = match self.ts.take() {
            Some(mut ts) => {
                ts.flush();
                let windows = ts.rec.windows();
                swarm_obs::merge_series_owned("net", ts.rec);
                windows
            }
            None => Vec::new(),
        };
        let mut counters = BTreeMap::new();
        counters.insert("net.ticks".to_string(), self.horizon);
        counters.insert("net.arrivals".to_string(), self.arrivals);
        counters.insert("net.completions".to_string(), self.completions);
        counters.insert("net.availability.transitions".to_string(), self.transitions);
        counters.insert("net.bytes_moved".to_string(), bytes_moved.round() as u64);
        counters.insert("net.messages".to_string(), messages);
        counters.insert("net.rechoke.count".to_string(), rechokes);
        counters.insert("net.tracker.announces".to_string(), announces);
        if swarm_obs::enabled() {
            for (name, v) in &counters {
                swarm_obs::counter(name).add(*v);
            }
            swarm_obs::emit(
                "net.run.end",
                &[
                    ("run", swarm_obs::val(self.run_ord)),
                    (
                        "availability",
                        swarm_obs::val(self.available_ticks as f64 / self.horizon as f64),
                    ),
                    ("completions", swarm_obs::val(self.completions)),
                    (
                        "last_available_tick",
                        swarm_obs::val(self.last_available_tick.unwrap_or(0)),
                    ),
                ],
            );
        }
        NetResult {
            ticks: self.horizon,
            arrivals: self.arrivals,
            completions: self.completions,
            availability: self.available_ticks as f64 / self.horizon as f64,
            availability_transitions: self.transitions,
            availability_flips: self.flips,
            last_available_tick: self.last_available_tick,
            completion_curve: self.completion_curve,
            publisher_intervals: self.publisher_intervals,
            bytes_moved,
            messages,
            announces,
            counters,
            timeseries,
        }
    }
}
