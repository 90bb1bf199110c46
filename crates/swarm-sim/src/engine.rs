//! The discrete-event engine.
//!
//! Entities are peers and publishers; content availability is a *latch*:
//! it turns on when a publisher arrives and turns off when no publisher is
//! online and the number of online content holders (downloading peers plus
//! lingering seeds) drops to the coverage threshold `m` — exactly the
//! busy/idle structure of Figure 2.
//!
//! Two service models are supported (see [`crate::config::ServiceModel`]):
//! exponential per-peer service that ticks only while content is available
//! (the analytic model's M/G/∞ customers), and a capacity-shared fluid
//! mode where progress is work-conserving and persists across idle gaps.
//!
//! Modeling notes, following the paper:
//!
//! * patient peers arriving idle wait and begin service when a publisher
//!   returns (§3.3.2); impatient peers leave immediately (§3.3.1);
//! * with `m > 0`, peers caught mid-download when the busy period ends
//!   wait (patient) or leave unserved (impatient, counted as blocked);
//! * lingering seeds count as content holders and, in fluid mode,
//!   contribute upload capacity (§3.3.4).

use crate::config::{Patience, PublisherProcess, ServiceModel, SimConfig};
use crate::metrics::SimResult;
use crate::timeline::{EntityState, Timeline};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use swarm_stats::UptimeFraction;

#[derive(Debug, Clone, Copy, PartialEq)]
enum EventKind {
    PeerArrival,
    PublisherArrival,
    PublisherDeparture { publisher: usize },
    PublisherToggle,
    Completion { peer: u64, epoch: u64 },
    LingerEnd { peer: u64 },
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Event {
    time: f64,
    seq: u64,
    kind: EventKind,
}

impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap by (time, seq) via Reverse at the call sites; seq breaks
        // ties deterministically.
        self.time
            .partial_cmp(&other.time)
            .expect("finite event times")
            .then(self.seq.cmp(&other.seq))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PeerState {
    Waiting,
    Downloading,
    Lingering,
}

#[derive(Debug, Clone, Copy)]
struct Peer {
    entity: u64,
    arrival: f64,
    state: PeerState,
    /// Remaining work (fluid mode only).
    remaining: f64,
    /// Invalidates stale Completion events (exponential mode).
    epoch: u64,
    /// Total time spent waiting so far.
    waited: f64,
    /// Time of the last state transition.
    state_since: f64,
    /// Whether this peer arrived at or after the warmup (metrics eligible).
    counted: bool,
}

struct Publisher {
    entity: u64,
    online: bool,
    online_since: f64,
}

/// Run one simulation to the horizon.
pub fn run(config: &SimConfig) -> SimResult {
    config.validate();
    Engine::new(config, None).run()
}

/// Run with peer arrivals replayed from an explicit (ascending) time list
/// instead of the Poisson process; used by [`crate::trace`].
pub(crate) fn run_with_arrivals(config: &SimConfig, arrivals: Option<&[f64]>) -> SimResult {
    config.validate();
    Engine::new(config, arrivals).run()
}

/// Cached `swarm-obs` handles, resolved once at engine construction iff
/// recording is enabled; the event loop then pays one `Option` check per
/// probe site. Probes never touch the RNG or the event heap, so results
/// are identical with recording on or off.
struct SimProbes {
    events: &'static swarm_obs::Counter,
    arrivals: &'static swarm_obs::Counter,
    completions: &'static swarm_obs::Counter,
    avail_transitions: &'static swarm_obs::Counter,
    busy_ms: &'static swarm_obs::Histogram,
}

impl SimProbes {
    fn get() -> Option<SimProbes> {
        if !swarm_obs::enabled() {
            return None;
        }
        Some(SimProbes {
            events: swarm_obs::counter("sim.events"),
            arrivals: swarm_obs::counter("sim.arrivals"),
            completions: swarm_obs::counter("sim.completions"),
            avail_transitions: swarm_obs::counter("sim.availability.transitions"),
            busy_ms: swarm_obs::histogram("sim.busy_period_ms"),
        })
    }
}

struct Engine<'c> {
    cfg: &'c SimConfig,
    /// Trace-driven arrivals: remaining times to replay (ascending). When
    /// `None`, arrivals are Poisson(λ).
    trace: Option<&'c [f64]>,
    trace_idx: usize,
    rng: ChaCha8Rng,
    now: f64,
    seq: u64,
    events: BinaryHeap<Reverse<Event>>,
    /// Peers in the system (waiting, downloading or lingering) in arrival
    /// order, which is entity order. A peer is removed the moment it
    /// leaves, so every scan costs O(peers present), and events name a
    /// peer by entity id, found by binary search.
    peers: Vec<Peer>,
    publishers: Vec<Publisher>,
    publishers_online: usize,
    available: bool,
    availability_started: f64,
    uptime: UptimeFraction,
    next_entity: u64,
    result: SimResult,
    /// UntilFirstCompletion mode: publisher already left for good.
    publisher_retired: bool,
    timeline: Timeline,
    probes: Option<SimProbes>,
}

impl<'c> Engine<'c> {
    fn new(cfg: &'c SimConfig, trace: Option<&'c [f64]>) -> Self {
        let mut e = Engine {
            cfg,
            trace,
            trace_idx: 0,
            rng: ChaCha8Rng::seed_from_u64(cfg.seed),
            now: 0.0,
            seq: 0,
            events: BinaryHeap::new(),
            peers: Vec::new(),
            publishers: Vec::new(),
            publishers_online: 0,
            available: false,
            availability_started: 0.0,
            uptime: UptimeFraction::new(cfg.warmup, false),
            next_entity: 0,
            result: SimResult::default(),
            publisher_retired: false,
            timeline: Timeline::new(),
            probes: SimProbes::get(),
        };
        // Prime arrivals and the publisher process.
        e.schedule_next_arrival();
        match cfg.publisher {
            PublisherProcess::Poisson { rate, .. } => {
                let t = e.exp(1.0 / rate);
                e.schedule(t, EventKind::PublisherArrival);
            }
            PublisherProcess::SingleOnOff {
                on_mean,
                off_mean,
                initially_on,
            } => {
                let entity = e.fresh_entity();
                e.publishers.push(Publisher {
                    entity,
                    online: initially_on,
                    online_since: 0.0,
                });
                if initially_on {
                    e.publishers_online = 1;
                    e.set_available(true);
                    let t = e.exp(on_mean);
                    e.schedule(t, EventKind::PublisherToggle);
                } else {
                    let t = e.exp(off_mean);
                    e.schedule(t, EventKind::PublisherToggle);
                }
            }
            PublisherProcess::UntilFirstCompletion => {
                let entity = e.fresh_entity();
                e.publishers.push(Publisher {
                    entity,
                    online: true,
                    online_since: 0.0,
                });
                e.publishers_online = 1;
                e.set_available(true);
            }
        }
        e
    }

    /// Schedule the next peer arrival: the next trace entry when running
    /// trace-driven, a fresh exponential gap otherwise.
    fn schedule_next_arrival(&mut self) {
        match self.trace {
            Some(times) => {
                if let Some(&t) = times.get(self.trace_idx) {
                    self.trace_idx += 1;
                    self.schedule(t, EventKind::PeerArrival);
                }
            }
            None => {
                let t = self.exp(1.0 / self.cfg.lambda);
                self.schedule(t, EventKind::PeerArrival);
            }
        }
    }

    fn exp(&mut self, mean: f64) -> f64 {
        self.now + -(1.0 - self.rng.gen::<f64>()).ln() * mean
    }

    fn fresh_entity(&mut self) -> u64 {
        self.next_entity += 1;
        self.next_entity
    }

    fn schedule(&mut self, time: f64, kind: EventKind) {
        self.seq += 1;
        self.events.push(Reverse(Event {
            time,
            seq: self.seq,
            kind,
        }));
    }

    /// Table index of the peer with entity id `entity`, if it is still in
    /// the system.
    fn find(&self, entity: u64) -> Option<usize> {
        self.peers.binary_search_by_key(&entity, |p| p.entity).ok()
    }

    /// Online content holders: downloading peers plus lingering seeds.
    fn holders(&self) -> usize {
        self.peers
            .iter()
            .filter(|p| matches!(p.state, PeerState::Downloading | PeerState::Lingering))
            .count()
    }

    fn downloading(&self) -> usize {
        self.peers
            .iter()
            .filter(|p| p.state == PeerState::Downloading)
            .count()
    }

    /// Pooled upload capacity in fluid mode.
    fn fluid_capacity(&self) -> f64 {
        let ServiceModel::Fluid {
            peer_upload,
            publisher_upload,
            ..
        } = self.cfg.service
        else {
            unreachable!("fluid_capacity called outside fluid mode")
        };
        self.publishers_online as f64 * publisher_upload + self.holders() as f64 * peer_upload
    }

    /// Per-leecher download rate in fluid mode; `None` when nothing can
    /// progress.
    fn fluid_rate(&self) -> Option<f64> {
        if !self.available {
            return None;
        }
        let n = self.downloading();
        if n == 0 {
            return None;
        }
        let ServiceModel::Fluid { download_cap, .. } = self.cfg.service else {
            unreachable!()
        };
        let rate = (self.fluid_capacity() / n as f64).min(download_cap);
        (rate > 0.0).then_some(rate)
    }

    fn set_available(&mut self, avail: bool) {
        if avail == self.available {
            return;
        }
        self.available = avail;
        if let Some(p) = &self.probes {
            p.avail_transitions.inc();
            if !avail {
                // Busy-period length in model milliseconds.
                let len_ms = (self.now - self.availability_started) * 1e3;
                p.busy_ms.record(len_ms.max(0.0) as u64);
            }
        }
        self.uptime
            .set(self.now.clamp(self.cfg.warmup, self.cfg.horizon), avail);
        if avail {
            self.availability_started = self.now;
            self.resume_waiting_peers();
        } else {
            if self.availability_started >= self.cfg.warmup {
                self.result
                    .busy_periods
                    .add(self.now - self.availability_started);
            }
            if self.cfg.record_timeline {
                self.result
                    .availability_intervals
                    .push((self.availability_started, self.now));
            }
            self.pause_downloading_peers();
        }
    }

    fn resume_waiting_peers(&mut self) {
        let now = self.now;
        for i in 0..self.peers.len() {
            if self.peers[i].state == PeerState::Waiting {
                self.peers[i].waited += now - self.peers[i].state_since;
                self.record_interval(i, EntityState::Waiting);
                self.peers[i].state = PeerState::Downloading;
                self.peers[i].state_since = now;
                self.start_service(i);
            }
        }
    }

    /// Patient downloaders start waiting; impatient ones leave unserved.
    fn pause_downloading_peers(&mut self) {
        let (now, cfg) = (self.now, self.cfg);
        let (timeline, result) = (&mut self.timeline, &mut self.result);
        self.peers.retain_mut(|p| {
            if p.state != PeerState::Downloading {
                return true;
            }
            if cfg.record_timeline {
                timeline.push(p.entity, p.state_since, now, EntityState::Active);
            }
            p.epoch += 1; // invalidate pending completion
            match cfg.patience {
                Patience::Patient => {
                    p.state = PeerState::Waiting;
                    p.state_since = now;
                    true
                }
                Patience::Impatient => {
                    if p.counted {
                        result.blocked += 1;
                    }
                    false
                }
            }
        });
    }

    fn record_interval(&mut self, peer_idx: usize, state: EntityState) {
        if self.cfg.record_timeline {
            let p = &self.peers[peer_idx];
            self.timeline.push(p.entity, p.state_since, self.now, state);
        }
    }

    /// Begin (or resume) service for a downloading peer.
    fn start_service(&mut self, peer_idx: usize) {
        match self.cfg.service {
            ServiceModel::Exponential { mean } => {
                let Peer { entity, epoch, .. } = self.peers[peer_idx];
                let t = self.exp(mean);
                self.schedule(
                    t,
                    EventKind::Completion {
                        peer: entity,
                        epoch,
                    },
                );
            }
            ServiceModel::Fluid { .. } => {
                // Progress is advanced lazily in the main loop.
            }
        }
    }

    fn complete_peer(&mut self, peer_idx: usize) {
        self.record_interval(peer_idx, EntityState::Active);
        let now = self.now;
        if let Some(p) = &self.probes {
            p.completions.inc();
        }
        {
            let p = &mut self.peers[peer_idx];
            if p.counted {
                self.result.completions += 1;
                self.result.download_times.add(now - p.arrival);
                self.result.waiting_times.add(p.waited);
            }
        }
        // UntilFirstCompletion: the publisher leaves for good now.
        if matches!(self.cfg.publisher, PublisherProcess::UntilFirstCompletion)
            && !self.publisher_retired
        {
            self.publisher_retired = true;
            self.publishers_online = 0;
            if let Some(publisher) = self.publishers.first() {
                let (entity, since) = (publisher.entity, publisher.online_since);
                if self.cfg.record_timeline {
                    self.timeline
                        .push(entity, since, now, EntityState::Publishing);
                }
            }
            if let Some(p) = self.publishers.first_mut() {
                p.online = false;
            }
        }
        match self.cfg.linger_mean {
            Some(mean) => {
                let p = &mut self.peers[peer_idx];
                p.state = PeerState::Lingering;
                p.state_since = now;
                let peer = p.entity;
                let t = self.exp(mean);
                self.schedule(t, EventKind::LingerEnd { peer });
            }
            None => {
                self.peers.remove(peer_idx);
            }
        }
        self.check_availability_end();
    }

    fn check_availability_end(&mut self) {
        if self.available
            && self.publishers_online == 0
            && self.holders() <= self.cfg.coverage_threshold
        {
            self.set_available(false);
        }
    }

    /// Advance fluid-mode progress by `dt` at the current rate.
    fn advance_fluid(&mut self, dt: f64) {
        if dt <= 0.0 {
            return;
        }
        if let Some(rate) = self.fluid_rate() {
            for p in &mut self.peers {
                if p.state == PeerState::Downloading {
                    p.remaining -= rate * dt;
                }
            }
        }
    }

    /// In fluid mode, the absolute time of the earliest completion at
    /// current rates, if any.
    fn next_fluid_completion(&self) -> Option<(usize, f64)> {
        let rate = self.fluid_rate()?;
        self.peers
            .iter()
            .enumerate()
            .filter(|(_, p)| p.state == PeerState::Downloading)
            .map(|(i, p)| (i, self.now + (p.remaining / rate).max(0.0)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite times"))
    }

    fn run(mut self) -> SimResult {
        let _span = swarm_obs::span("sim.run");
        let horizon = self.cfg.horizon;
        loop {
            let next_event_time = self
                .events
                .peek()
                .map(|e| e.0.time)
                .unwrap_or(f64::INFINITY);

            // Fluid mode: a completion may precede the next discrete event.
            if matches!(self.cfg.service, ServiceModel::Fluid { .. }) {
                if let Some((peer, t)) = self.next_fluid_completion() {
                    if t <= next_event_time && t <= horizon {
                        let dt = t - self.now;
                        self.advance_fluid(dt);
                        self.now = t;
                        self.peers[peer].remaining = 0.0;
                        self.complete_peer(peer);
                        continue;
                    }
                }
            }

            if next_event_time > horizon {
                break;
            }
            let ev = self.events.pop().expect("peeked event exists").0;
            if matches!(self.cfg.service, ServiceModel::Fluid { .. }) {
                self.advance_fluid(ev.time - self.now);
            }
            self.now = ev.time;
            self.dispatch(ev.kind);
        }
        self.finalize()
    }

    fn dispatch(&mut self, kind: EventKind) {
        if let Some(p) = &self.probes {
            p.events.inc();
        }
        match kind {
            EventKind::PeerArrival => {
                self.schedule_next_arrival();
                self.peer_arrives();
            }
            EventKind::PublisherArrival => {
                let PublisherProcess::Poisson { rate, residence } = self.cfg.publisher else {
                    unreachable!("PublisherArrival only in Poisson mode")
                };
                let t = self.exp(1.0 / rate);
                self.schedule(t, EventKind::PublisherArrival);
                let entity = self.fresh_entity();
                self.publishers.push(Publisher {
                    entity,
                    online: true,
                    online_since: self.now,
                });
                self.publishers_online += 1;
                let idx = self.publishers.len() - 1;
                let t = self.exp(residence);
                self.schedule(t, EventKind::PublisherDeparture { publisher: idx });
                self.set_available(true);
            }
            EventKind::PublisherDeparture { publisher } => {
                let (entity, since) = {
                    let p = &mut self.publishers[publisher];
                    debug_assert!(p.online, "double departure");
                    p.online = false;
                    (p.entity, p.online_since)
                };
                if self.cfg.record_timeline {
                    self.timeline
                        .push(entity, since, self.now, EntityState::Publishing);
                }
                self.publishers_online -= 1;
                self.check_availability_end();
            }
            EventKind::PublisherToggle => {
                let PublisherProcess::SingleOnOff {
                    on_mean, off_mean, ..
                } = self.cfg.publisher
                else {
                    unreachable!("PublisherToggle only in SingleOnOff mode")
                };
                let was_online = self.publishers[0].online;
                if was_online {
                    let (entity, since) =
                        (self.publishers[0].entity, self.publishers[0].online_since);
                    if self.cfg.record_timeline {
                        self.timeline
                            .push(entity, since, self.now, EntityState::Publishing);
                    }
                    self.publishers[0].online = false;
                    self.publishers_online = 0;
                    let t = self.exp(off_mean);
                    self.schedule(t, EventKind::PublisherToggle);
                    self.check_availability_end();
                } else {
                    self.publishers[0].online = true;
                    self.publishers[0].online_since = self.now;
                    self.publishers_online = 1;
                    let t = self.exp(on_mean);
                    self.schedule(t, EventKind::PublisherToggle);
                    self.set_available(true);
                }
            }
            EventKind::Completion { peer, epoch } => {
                // A stale event names a peer that has left, or one whose
                // service was paused since (a newer epoch).
                let due = self.find(peer).filter(|&i| {
                    let p = &self.peers[i];
                    p.state == PeerState::Downloading && p.epoch == epoch
                });
                if let Some(i) = due {
                    self.complete_peer(i);
                }
            }
            EventKind::LingerEnd { peer } => {
                let i = self
                    .find(peer)
                    .expect("a lingering peer stays until its linger ends");
                self.record_interval(i, EntityState::Active);
                self.peers.remove(i);
                self.check_availability_end();
            }
        }
    }

    fn peer_arrives(&mut self) {
        if let Some(p) = &self.probes {
            p.arrivals.inc();
        }
        let counted = self.now >= self.cfg.warmup;
        if counted {
            self.result.arrivals += 1;
        }
        let size = match self.cfg.service {
            ServiceModel::Fluid { size, .. } => size,
            ServiceModel::Exponential { .. } => 0.0,
        };
        let entity = self.fresh_entity();
        let peer = Peer {
            entity,
            arrival: self.now,
            state: PeerState::Downloading,
            remaining: size,
            epoch: 0,
            waited: 0.0,
            state_since: self.now,
            counted,
        };
        if self.available {
            self.peers.push(peer);
            let idx = self.peers.len() - 1;
            self.start_service(idx);
        } else {
            match self.cfg.patience {
                Patience::Impatient => {
                    if counted {
                        self.result.blocked += 1;
                    }
                    // Peer never enters the system.
                }
                Patience::Patient => {
                    let mut p = peer;
                    p.state = PeerState::Waiting;
                    self.peers.push(p);
                }
            }
        }
    }

    fn finalize(mut self) -> SimResult {
        let horizon = self.cfg.horizon;
        self.now = horizon;
        // Close open busy period for the availability fraction (but do not
        // record it as a completed busy-period sample).
        self.result.availability = self.uptime.fraction_until(horizon);
        if self.cfg.record_timeline {
            for i in 0..self.peers.len() {
                match self.peers[i].state {
                    PeerState::Downloading | PeerState::Lingering => {
                        self.record_interval(i, EntityState::Active)
                    }
                    PeerState::Waiting => self.record_interval(i, EntityState::Waiting),
                }
            }
            for p in &self.publishers {
                if p.online {
                    self.timeline
                        .push(p.entity, p.online_since, horizon, EntityState::Publishing);
                }
            }
        }
        self.result.in_flight_at_horizon = self.peers.len() as u64;
        if self.cfg.record_timeline && self.available {
            self.result
                .availability_intervals
                .push((self.availability_started, horizon));
        }
        self.result.timeline = self.timeline;
        self.result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Patience, PublisherProcess, ServiceModel, SimConfig};

    fn base() -> SimConfig {
        SimConfig {
            lambda: 1.0 / 60.0,
            service: ServiceModel::Exponential { mean: 80.0 },
            publisher: PublisherProcess::Poisson {
                rate: 1.0 / 900.0,
                residence: 300.0,
            },
            patience: Patience::Patient,
            linger_mean: None,
            coverage_threshold: 0,
            horizon: 200_000.0,
            warmup: 2_000.0,
            seed: 42,
            record_timeline: false,
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(&base());
        let b = run(&base());
        assert_eq!(a.arrivals, b.arrivals);
        assert_eq!(a.completions, b.completions);
        assert_eq!(a.download_times.values(), b.download_times.values());
    }

    #[test]
    fn different_seeds_differ() {
        let a = run(&base());
        let b = run(&SimConfig { seed: 43, ..base() });
        assert_ne!(a.download_times.values(), b.download_times.values());
    }

    #[test]
    fn arrival_count_tracks_lambda() {
        let r = run(&base());
        let expected = (200_000.0 - 2_000.0) / 60.0;
        let n = r.arrivals as f64;
        assert!(
            (n - expected).abs() < 5.0 * expected.sqrt(),
            "arrivals {n} vs expected {expected}"
        );
    }

    #[test]
    fn patient_peers_all_complete_eventually() {
        let r = run(&base());
        // Everyone who arrives either completes or is still in flight.
        assert!(r.blocked == 0);
        assert!(r.completions + r.in_flight_at_horizon >= r.arrivals);
    }

    #[test]
    fn impatient_peers_get_blocked_sometimes() {
        let cfg = SimConfig {
            patience: Patience::Impatient,
            ..base()
        };
        let r = run(&cfg);
        assert!(
            r.blocked > 0,
            "rare publisher must block some impatient peers"
        );
        assert!(r.blocked_fraction() > 0.0 && r.blocked_fraction() < 1.0);
    }

    #[test]
    fn availability_fraction_reasonable() {
        let r = run(&base());
        assert!(r.availability > 0.0 && r.availability < 1.0);
    }

    #[test]
    fn always_on_publisher_means_always_available() {
        let cfg = SimConfig {
            publisher: PublisherProcess::SingleOnOff {
                on_mean: 1e9,
                off_mean: 1.0,
                initially_on: true,
            },
            ..base()
        };
        let r = run(&cfg);
        assert!(r.availability > 0.999, "availability {}", r.availability);
        assert_eq!(r.blocked, 0);
        // Download times should be close to pure service (mean 80).
        assert!((r.mean_download_time() - 80.0).abs() < 8.0);
    }

    #[test]
    fn waiting_time_separates_from_service() {
        let r = run(&base());
        // Download = wait + service; means must satisfy the decomposition
        // within sampling noise.
        let t = r.download_times.mean();
        let w = r.waiting_times.mean();
        assert!(t > w, "download {t} must exceed waiting {w}");
        assert!((t - w - 80.0).abs() < 10.0, "service residual {}", t - w);
    }

    #[test]
    fn until_first_completion_publisher_leaves() {
        let cfg = SimConfig {
            lambda: 1.0 / 50.0,
            publisher: PublisherProcess::UntilFirstCompletion,
            horizon: 20_000.0,
            warmup: 0.0,
            ..base()
        };
        let r = run(&cfg);
        // The first completion retires the publisher; afterwards the swarm
        // (coverage threshold 0) dies with the last peer and no one else
        // is served once it is empty.
        assert!(r.completions >= 1);
        assert!(r.availability < 1.0);
    }

    #[test]
    fn fluid_mode_conserves_work() {
        let cfg = SimConfig {
            service: ServiceModel::Fluid {
                size: 4000.0,
                peer_upload: 50.0,
                publisher_upload: 100.0,
                download_cap: 1e9,
            },
            publisher: PublisherProcess::SingleOnOff {
                on_mean: 1e9,
                off_mean: 1.0,
                initially_on: true,
            },
            horizon: 100_000.0,
            warmup: 1_000.0,
            ..base()
        };
        let r = run(&cfg);
        assert!(r.completions > 0);
        // With an always-on 100 kB/s publisher and peers uploading 50 kB/s,
        // a lone peer downloads 4000 kB at >= 100 kB/s -> <= 40 s; crowds
        // only increase capacity. Mean download time must be bounded by
        // size/publisher_upload plus slack.
        assert!(
            r.mean_download_time() <= 80.0,
            "mean download {}",
            r.mean_download_time()
        );
    }

    #[test]
    fn fluid_download_cap_binds() {
        let capped = SimConfig {
            service: ServiceModel::Fluid {
                size: 4000.0,
                peer_upload: 50.0,
                publisher_upload: 100.0,
                download_cap: 20.0,
            },
            publisher: PublisherProcess::SingleOnOff {
                on_mean: 1e9,
                off_mean: 1.0,
                initially_on: true,
            },
            ..base()
        };
        let r = run(&capped);
        // 4000 kB at <= 20 kB/s: no download under 200 s.
        assert!(r.download_times.values().iter().all(|&t| t >= 200.0 - 1e-6));
    }

    #[test]
    fn lingering_peers_extend_availability() {
        let no_linger = SimConfig {
            publisher: PublisherProcess::Poisson {
                rate: 1.0 / 5000.0,
                residence: 200.0,
            },
            lambda: 1.0 / 30.0,
            ..base()
        };
        let linger = SimConfig {
            linger_mean: Some(600.0),
            ..no_linger
        };
        let a = run(&no_linger);
        let b = run(&linger);
        assert!(
            b.availability > a.availability,
            "lingering {} vs none {}",
            b.availability,
            a.availability
        );
    }

    #[test]
    fn coverage_threshold_shortens_busy_periods() {
        let m0 = SimConfig {
            lambda: 1.0 / 20.0,
            ..base()
        };
        let m3 = SimConfig {
            coverage_threshold: 3,
            ..m0
        };
        let a = run(&m0);
        let b = run(&m3);
        assert!(
            b.availability < a.availability,
            "threshold must reduce availability: m3 {} vs m0 {}",
            b.availability,
            a.availability
        );
    }

    #[test]
    fn timeline_recorded_when_requested() {
        let cfg = SimConfig {
            record_timeline: true,
            horizon: 20_000.0,
            warmup: 0.0,
            ..base()
        };
        let r = run(&cfg);
        assert!(r.timeline.entity_count() > 0);
        assert!(!r.timeline.rows().is_empty());
    }

    #[test]
    fn single_on_off_initially_off_starts_idle() {
        let cfg = SimConfig {
            publisher: PublisherProcess::SingleOnOff {
                on_mean: 300.0,
                off_mean: 900.0,
                initially_on: false,
            },
            ..base()
        };
        let r = run(&cfg);
        assert!(r.availability < 0.9);
        assert!(r.completions > 0);
    }
}
